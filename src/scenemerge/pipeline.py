"""End-to-end merge pipeline: plan, align, track, refine, evaluate.

Each stage is one function that run_pipeline composes and the matching CLI
subcommand calls after reading its files. Stages consume and produce
interchange artifacts, so a pipeline run is reproducible stage by stage
from cached files, and every artifact is byte-identical across runs.
"""

from __future__ import annotations

import json
import numbers
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .alignment import (
    MergedGeometry,
    chain_alignments,
    estimate_sim3_irls,
    extract_overlap_correspondences,
)
from .ba import BAConfig, BAProblem, apply_ba_result, run_ba
from .clusters import load_cluster
from .errors import ConfigError, DataError, SceneMergeError, SchemaViolationError
from .evaluation import evaluate_trajectories, point_cloud_distance, umeyama_align
from .geometry import PointCloud, apply_sim3
from .io_formats import (
    JSON_FORMAT_VERSION,
    _finite_float,
    _finite_floats,
    _int,
    _object,
    _read_json,
    _str,
    _value,
    pose_record_from_camera,
    read_manifest,
    read_ply,
    read_pose_map,
    sim3_from_transform_record,
    transform_record_from_sim3,
    write_plan,
    write_ply,
    write_poses,
    write_tracks,
    write_transforms,
)
from .ordering import SimilarityMatrix, plan_scene, read_similarity
from .synthetic import (
    PerturbationSpec,
    generate_scene,
    render_cluster,
    synthetic_matcher,
    synthetic_similarity,
    write_scene,
)
from .tracking import Tracks, run_tracking

SYNTH_RECORD_NAME = "synth.json"


# PipelineConfig field annotation -> the type a config value must have
_FIELD_KINDS = {"int": numbers.Integral, "int | None": numbers.Integral, "float": numbers.Real, "bool": bool}
# PerturbationSpec field annotation -> the converter of its synth.json value
_PERTURB_CONVERTERS = {
    "float": _finite_float,
    "str": _str,
    "tuple[float, float, float]": lambda v: tuple(_finite_floats(v).reshape(3).tolist()),
}


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for every stage; defaults follow the reference recipe."""

    subset_size: int = 100
    overlap: int = 5
    k: int = 5
    conf_percentile: float = 70.0
    tau_reproj: float = 8.0
    max_keypoints: int = 4096
    ba_iterations: int = 300
    ba_lr: float = 3e-3
    lambda_exp: float = 0.5
    n_subsequences: int | None = None
    similarity_constrained: bool = False

    def __post_init__(self):
        if self.subset_size < 2:
            raise ConfigError(f"subset_size must be >= 2, got {self.subset_size}")
        if not 0 <= self.overlap < self.subset_size:
            raise ConfigError(
                f"overlap must be in [0, subset_size), got {self.overlap} with subset_size {self.subset_size}"
            )
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if not 0 <= self.conf_percentile < 100:
            raise ConfigError(f"conf_percentile must be in [0, 100), got {self.conf_percentile}")
        if not (np.isfinite(self.tau_reproj) and self.tau_reproj > 0):
            raise ConfigError(f"tau_reproj must be positive and finite, got {self.tau_reproj}")
        if self.max_keypoints < 1:
            raise ConfigError(f"max_keypoints must be >= 1, got {self.max_keypoints}")
        self.ba_config()  # validates the BA fields

    def ba_config(self) -> BAConfig:
        return BAConfig(
            iterations=self.ba_iterations,
            initial_lr=self.ba_lr,
            lambda_exp=self.lambda_exp,
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_sources(cls, file_values: dict | None = None, overrides: dict | None = None) -> "PipelineConfig":
        """Merge with precedence overrides > file_values > defaults.

        None entries mean "not given" and never shadow a lower layer. Any
        other value must fit its field: an int field takes an int but not a
        bool, a float field an int or a float, a bool field a bool.
        """
        types = {f.name: f.type for f in fields(cls)}
        values = {}
        for layer in (file_values or {}, overrides or {}):
            for key, val in layer.items():
                if key not in types:
                    raise ConfigError(f"unknown config field {key!r}")
                if val is None:
                    continue
                kind = _FIELD_KINDS[types[key]]
                if isinstance(val, bool) != (kind is bool) or not isinstance(val, kind):
                    raise ConfigError(f"config field {key!r} must be {types[key]}, got {val!r}")
                values[key] = val
        return cls(**values)


@dataclass
class SceneData:
    """A scene directory loaded into memory."""

    root: Path
    manifest: object
    clusters: list
    similarity: SimilarityMatrix

    @property
    def n_images(self) -> int:
        return len(self.manifest.images)


@dataclass
class PipelineResult:
    """Everything a run produced, before and after serialization."""

    plan: object
    transform_records: list
    tracking: object
    ba: object
    cameras: list
    tracks: Tracks
    cloud: PointCloud
    metrics: dict | None
    report: dict


def load_scene(scene_dir) -> SceneData:
    """Read manifest, similarity matrix, and every cluster reconstruction."""
    root = Path(scene_dir)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise DataError(f"{root} does not contain a manifest.json")
    manifest = read_manifest(manifest_path)
    if manifest.similarity_path is None:
        raise DataError(f"{manifest_path} lists no similarity matrix")
    if not manifest.clusters:
        raise DataError(f"{manifest_path} lists no cluster reconstructions")
    similarity_path = root / manifest.similarity_path
    similarity = read_similarity(similarity_path)
    if similarity.n != len(manifest.images):
        raise DataError(
            f"{similarity_path}: similarity matrix is {similarity.n}x{similarity.n} "
            f"but the manifest lists {len(manifest.images)} images"
        )
    image_sizes = {im.frame_id: (im.width, im.height) for im in manifest.images}
    clusters = [load_cluster(root, entry, image_sizes) for entry in manifest.clusters]
    return SceneData(
        root=root,
        manifest=manifest,
        clusters=clusters,
        similarity=similarity,
    )


def synthesize_scene_dir(
    out_dir,
    seed: int = 42,
    n_cameras: int = 200,
    n_landmarks: int = 5000,
    layout: str = "room",
    perturb: PerturbationSpec | None = None,
    subset_size: int = 100,
    overlap: int = 5,
    n_subsequences: int | None = None,
    similarity_constrained: bool = False,
) -> Path:
    """Generate a scene, partition it, render per-subset clusters, and
    write the full interchange layout plus the gt/ directory.

    gt/synth.json records the generation parameters so later stages can
    rebuild the deterministic synthetic matcher from the directory alone.
    Returns the manifest path.
    """
    perturb = perturb if perturb is not None else PerturbationSpec.default()
    scene = generate_scene(seed, n_cameras=n_cameras, n_landmarks=n_landmarks, layout=layout)
    # The tensor file stores float32, so plan from the rounded values: a
    # reader recomputing the plan from the written similarity must get the
    # exact partition the clusters were rendered with, and float64-vs-float32
    # can flip near-ties in the greedy ordering.
    similarity = SimilarityMatrix(
        synthetic_similarity(scene).values.astype(np.float32)
    )
    plan = plan_scene(
        similarity,
        subset_size,
        overlap,
        n_subsequences=n_subsequences,
        similarity_constrained=similarity_constrained,
    )
    clusters, warps = [], []
    for cid, subset in enumerate(plan.subsets):
        c, w = render_cluster(scene, [int(i) for i in subset], perturb, cluster_id=cid)
        clusters.append(c)
        warps.append(w)
    manifest_path = write_scene(out_dir, scene, clusters, similarity, warps=warps)
    record = {
        "format_version": JSON_FORMAT_VERSION,
        "seed": seed,
        "n_cameras": n_cameras,
        "n_landmarks": n_landmarks,
        "layout": layout,
        "subset_size": subset_size,
        "overlap": overlap,
        "perturb": asdict(perturb),
    }
    synth_path = Path(out_dir) / "gt" / SYNTH_RECORD_NAME
    synth_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return manifest_path


def matcher_from_scene_dir(scene_dir):
    """Rebuild the deterministic synthetic matcher recorded at synth time.

    Regenerates the ground-truth scene from gt/synth.json; raises DataError
    when the record is absent (real scenes need a caller-supplied matcher).
    A record that is not valid JSON, lacks a field, or holds a value of the
    wrong type or one generation rejects raises a DataError subclass naming
    the file and the field.
    """
    path = Path(scene_dir) / "gt" / SYNTH_RECORD_NAME
    if not path.exists():
        raise DataError(
            f"{scene_dir} has no gt/{SYNTH_RECORD_NAME}; supply a matcher for non-synthetic scenes"
        )
    record = _read_json(path, "synthetic record")
    perturb = _value(record, "perturb", _object, path)
    where = f"{path}: perturb"
    try:
        spec = PerturbationSpec(
            **{f.name: _value(perturb, f.name, _PERTURB_CONVERTERS[f.type], where) for f in fields(PerturbationSpec)}
        )
        scene = generate_scene(
            _value(record, "seed", _int, path),
            n_cameras=_value(record, "n_cameras", _int, path),
            n_landmarks=_value(record, "n_landmarks", _int, path),
            layout=_value(record, "layout", _str, path),
        )
    except ConfigError as e:
        raise SchemaViolationError(f"{path}: {e}") from None
    return synthetic_matcher(scene, spec)


def align_clusters(clusters, conf_percentile: float = 70.0):
    """Robust Sim(3) for each consecutive cluster pair, chained to cluster 0.

    Returns (per-cluster transforms into the global frame, their
    transforms.json records, per-pair AlignmentResult list). The transforms
    are read back from the records: rotation -> quaternion -> rotation
    loses ~1e-16, so later stages must consume exactly what a reader of
    transforms.json reconstructs, or a stage-by-stage run from cached files
    would drift from the end-to-end run by ulps.
    """
    if not clusters:
        raise ConfigError("no clusters to align")
    results = [
        estimate_sim3_irls(extract_overlap_correspondences(a, b, conf_percentile))
        for a, b in zip(clusters, clusters[1:])
    ]
    records = [
        transform_record_from_sim3(c.cluster_id, t)
        for c, t in zip(clusters, chain_alignments([r.transform for r in results]))
    ]
    return [sim3_from_transform_record(r) for r in records], records, results


@contextmanager
def _stage(name: str, timings: dict):
    """Time a pipeline stage and tag any pipeline error with its name.

    Exceptions keep their type and extra attributes; only args[0] gains
    the stage prefix, so exit-code mapping and message matching still work.
    """
    start = time.perf_counter()
    try:
        yield
    except SceneMergeError as e:
        if e.args and isinstance(e.args[0], str):
            e.args = (f"{name} stage: {e.args[0]}",) + e.args[1:]
        raise
    finally:
        timings[name] = time.perf_counter() - start


def check_plan_matches_clusters(clusters, plan) -> None:
    """Raise ConfigError unless clusters are exactly the plan's subsets."""
    if len(clusters) != len(plan.subsets):
        raise ConfigError(
            f"scene has {len(clusters)} clusters but the plan produces {len(plan.subsets)} subsets; "
            "partition settings do not match the reconstruction layout"
        )
    for idx, cluster in enumerate(clusters):
        if list(cluster.frame_ids) != [int(i) for i in plan.subsets[idx]]:
            raise ConfigError(f"cluster {cluster.cluster_id} frames do not match plan subset {idx}")


def bundle_adjust(merged: MergedGeometry, tracks, cfg: BAConfig):
    """Global BA over the merged cameras and the tracks.

    Returns (problem before BA, BAResult, refined cameras sorted by frame
    id, tracks with refined points, dense cloud under the refined cameras).
    """
    cameras = [merged.camera(fid) for fid in merged.frames()]
    problem = BAProblem.from_tracks(cameras, tracks)
    result = run_ba(problem, cfg)
    refined_cameras, refined_tracks, cloud = apply_ba_result(result, merged, tracks)
    return problem, result, refined_cameras, refined_tracks, cloud


def evaluate_reconstruction(
    est, gt, pred_cloud: PointCloud | None = None, gt_cloud: PointCloud | None = None
) -> dict:
    """Trajectory metrics of est against gt (parallel camera or pose lists),
    plus point-cloud accuracy and completion when both clouds are given.

    The predicted cloud shares the estimated trajectory's coordinate frame,
    so the trajectory's fitted Sim(3) gauge maps it into ground-truth
    coordinates before comparing.
    """
    metrics = {"trajectory": evaluate_trajectories(est, gt).to_dict()}
    if pred_cloud is not None and gt_cloud is not None:
        gauge = umeyama_align(est, gt)
        accuracy, completion = point_cloud_distance(apply_sim3(gauge, pred_cloud.points), gt_cloud)
        metrics["point_cloud"] = {"accuracy": accuracy, "completion": completion}
    return metrics


def evaluate_run(data: SceneData, cameras, cloud: PointCloud | None) -> dict | None:
    """Metrics against the gt/ directory; None when the scene has no GT.

    The cloud is scored only when it holds points and gt/landmarks.ply
    exists.
    """
    gt_path = data.root / "gt" / "poses.json"
    if not gt_path.exists():
        return None
    gt = read_pose_map(gt_path)
    missing = [c.frame_id for c in cameras if c.frame_id not in gt]
    if missing:
        raise DataError(f"gt poses missing frames {missing[:5]}")
    gt_poses = [gt[c.frame_id] for c in cameras]
    gt_cloud_path = data.root / "gt" / "landmarks.ply"
    if cloud is not None and len(cloud.points) and gt_cloud_path.exists():
        return evaluate_reconstruction(cameras, gt_poses, cloud, read_ply(gt_cloud_path))
    return evaluate_reconstruction(cameras, gt_poses)


def run_pipeline(
    scene_dir,
    config: PipelineConfig | None = None,
    out_dir=None,
    matcher=None,
) -> PipelineResult:
    """plan -> align -> track -> bundle-adjust -> evaluate, with timings.

    Writes the artifact set into out_dir when given (plan.json,
    transforms.json, tracks.bin, poses_refined.json, merged.ply,
    ba_loss.csv, metrics.json when GT is present, report.json).
    """
    cfg = config if config is not None else PipelineConfig()
    timings = {}

    with _stage("load", timings):
        data = load_scene(scene_dir)

    with _stage("plan", timings):
        plan = plan_scene(
            data.similarity,
            cfg.subset_size,
            cfg.overlap,
            n_subsequences=cfg.n_subsequences,
            similarity_constrained=cfg.similarity_constrained,
        )
        check_plan_matches_clusters(data.clusters, plan)

    with _stage("align", timings):
        transforms, transform_records, _ = align_clusters(data.clusters, cfg.conf_percentile)

    with _stage("track", timings):
        if matcher is None:
            matcher = matcher_from_scene_dir(data.root)
        merged = MergedGeometry(data.clusters, transforms)
        tracking = run_tracking(
            data.similarity,
            merged,
            matcher,
            k=cfg.k,
            tau_reproj=cfg.tau_reproj,
            max_keypoints=cfg.max_keypoints,
        )

    with _stage("ba", timings):
        problem, ba_result, refined_cameras, refined_tracks, cloud = bundle_adjust(
            merged, tracking.tracks, cfg.ba_config()
        )

    with _stage("eval", timings):
        metrics = evaluate_run(data, refined_cameras, cloud)

    n = data.n_images
    k_subsets = len(plan.subsets)
    report = {
        "format_version": JSON_FORMAT_VERSION,
        "n_images": n,
        "subset_size": cfg.subset_size,
        "overlap": cfg.overlap,
        "n_subsets": k_subsets,
        "pair_count": {
            "k_t_squared": k_subsets * cfg.subset_size**2,
            "n_squared": n**2,
            "ratio": k_subsets * cfg.subset_size**2 / n**2,
        },
        "counts": {
            "matcher_invocations": tracking.matcher_invocations,
            "failed_edges": tracking.failed_edges,
            "tracks": len(tracking.tracks),
            "ba_observations": problem.n_observations,
            "merged_points": int(len(cloud.points)),
        },
        "timings_sec": timings,
        "config": cfg.to_dict(),
    }

    result = PipelineResult(
        plan=plan,
        transform_records=transform_records,
        tracking=tracking,
        ba=ba_result,
        cameras=refined_cameras,
        tracks=refined_tracks,
        cloud=cloud,
        metrics=metrics,
        report=report,
    )
    if out_dir is not None:
        write_run_artifacts(out_dir, result, cfg)
    return result


def write_loss_csv(path, ba_result, cfg: BAConfig) -> None:
    """History as CSV rows (iteration, lr, loss); row 0 is the initial loss."""
    lines = ["iteration,lr,loss"]
    for i, loss in enumerate(ba_result.loss_history):
        lines.append(f"{i},{cfg.learning_rate(i):.10e},{loss:.17e}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_run_artifacts(out_dir, result: PipelineResult, cfg: PipelineConfig) -> dict:
    """Serialize every stage output; returns {artifact name: path}."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}

    paths["plan"] = out / "plan.json"
    write_plan(paths["plan"], result.plan)
    paths["transforms"] = out / "transforms.json"
    write_transforms(paths["transforms"], result.transform_records)
    paths["tracks"] = out / "tracks.bin"
    write_tracks(paths["tracks"], result.tracking.tracks)
    paths["poses"] = out / "poses_refined.json"
    write_poses(paths["poses"], [pose_record_from_camera(c) for c in result.cameras])
    paths["cloud"] = out / "merged.ply"
    write_ply(paths["cloud"], result.cloud)
    paths["ba_loss"] = out / "ba_loss.csv"
    write_loss_csv(paths["ba_loss"], result.ba, cfg.ba_config())
    if result.metrics is not None:
        paths["metrics"] = out / "metrics.json"
        paths["metrics"].write_text(json.dumps(result.metrics, indent=2) + "\n", encoding="utf-8")
    paths["report"] = out / "report.json"
    paths["report"].write_text(json.dumps(result.report, indent=2) + "\n", encoding="utf-8")
    return paths
