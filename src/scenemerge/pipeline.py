"""End-to-end merge pipeline: plan, align, track, refine, evaluate.

Each stage is one function that run_pipeline composes and the matching CLI
subcommand calls after reading its files: align_clusters, merged_geometry
(the one builder of MergedGeometry, from transforms.json records),
track_scene, bundle_adjust and write_ba_artifacts. Stages consume and
produce interchange artifacts, so a pipeline run is reproducible stage by
stage from cached files, and every artifact is byte-identical across runs.
"""

from __future__ import annotations

import logging
import numbers
import resource
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
from .geometry import PointCloud
from .io_formats import (
    JSON_FORMAT_VERSION,
    pose_record_from_camera,
    read_document,
    read_gt_scene,
    read_manifest,
    read_ply,
    read_pose_map,
    sim3_from_transform_record,
    transform_record_from_sim3,
    write_document,
    write_json,
    write_loss_csv,
    write_plan,
    write_ply,
    write_poses,
    write_tracks,
    write_transforms,
)
from .ordering import SimilarityMatrix, plan_scene, read_similarity
from .synthetic import (
    GT_SCENE_NAME,
    PerturbationSpec,
    SynthRecord,
    consecutive_similarity,
    generate_scene,
    render_cluster,
    synthetic_matcher,
    synthetic_similarity,
    write_scene,
)
from .tracking import Tracks, run_tracking

SYNTH_RECORD_NAME = "synth.json"

logger = logging.getLogger(__name__)

# PipelineConfig field annotation -> the type a config value must have
_FIELD_KINDS = {"int": numbers.Integral, "int | None": numbers.Integral, "float": numbers.Real}


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
        if self.n_subsequences is not None and self.n_subsequences < 1:
            raise ConfigError(f"n_subsequences must be >= 1, got {self.n_subsequences}")
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
        other value must fit its field: an int field takes an int, a float
        field an int or a float, and neither takes a bool.
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
                if isinstance(val, bool) or not isinstance(val, kind):
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
    bad = [im.frame_id for im in manifest.images if not 0 <= im.frame_id < similarity.n]
    if bad:  # the similarity matrix, the plan and the frame graph index frames by row
        raise SchemaViolationError(f"{manifest_path}: frame_id {bad[0]} is outside 0..{similarity.n - 1}")
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
) -> Path:
    """Generate a scene, partition it, render per-subset clusters, and
    write the full interchange layout plus the gt/ directory.

    gt/synth.json holds the scene's SynthRecord: the generation parameters
    and the partition settings the clusters were cut with (n_subsequences
    is null when derived). gt/scene.mrgt holds the generated scene itself,
    so later stages read the deterministic synthetic matcher back from the
    directory alone without generating the scene again. Returns the
    manifest path.
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
    plan = plan_scene(similarity, subset_size, overlap, n_subsequences=n_subsequences)
    clusters, warps = [], []
    for cid, subset in enumerate(plan.subsets):
        c, w = render_cluster(scene, [int(i) for i in subset], perturb, cluster_id=cid)
        clusters.append(c)
        warps.append(w)
    manifest_path = write_scene(out_dir, scene, clusters, similarity, warps=warps)
    record = SynthRecord(seed, n_cameras, n_landmarks, layout, subset_size, overlap, n_subsequences, perturb)
    write_document(Path(out_dir) / "gt" / SYNTH_RECORD_NAME, record)
    return manifest_path


def matcher_from_scene_dir(scene_dir, similarity: SimilarityMatrix | None = None):
    """The deterministic synthetic matcher recorded at synth time.

    Reads the ground-truth scene from gt/scene.mrgt and the seed and noise
    model from gt/synth.json's SynthRecord; the scene is never generated
    again. Raises DataError when the record is absent (real scenes need a
    caller-supplied matcher), when the scene file is absent (the scene
    predates it and must be synthesized again), or, given the scene's
    similarity matrix, when gt/ belongs to another scene: the record holds
    another camera count, or the co-visibility of consecutive frames
    differs from the matrix, which synthesis wrote from it. A record
    read_document rejects, and a scene file read_gt_scene rejects, raise a
    DataError subclass naming the file and the field.
    """
    path = Path(scene_dir) / "gt" / SYNTH_RECORD_NAME
    if not path.exists():
        raise DataError(
            f"{scene_dir} has no gt/{SYNTH_RECORD_NAME}; supply a matcher for non-synthetic scenes"
        )
    record = read_document(path, SynthRecord, "synthetic record")
    if similarity is not None and record.n_cameras != similarity.n:
        raise DataError(f"{path}: records {record.n_cameras} cameras, but the scene has {similarity.n} images")
    scene_path = path.parent / GT_SCENE_NAME
    if not scene_path.exists():
        raise DataError(f"{scene_path}: ground-truth scene file not found; synthesize the scene again")
    scene = read_gt_scene(scene_path, record.seed, record.layout, record.n_cameras, record.n_landmarks)
    if similarity is not None:
        recorded, held = consecutive_similarity(scene).astype(np.float32), np.diagonal(similarity.values, 1)
        differ = np.flatnonzero(recorded != held.astype(np.float32))
        if len(differ):
            i = differ[0]
            raise DataError(
                f"{path.parent}: ground truth of another scene: frames {i} and {i + 1} are co-visible "
                f"{recorded[i]:.6g} there, but {held[i]:.6g} in the scene's similarity matrix"
            )
    return synthetic_matcher(scene, record.perturb)


def align_clusters(clusters, conf_percentile: float = 70.0):
    """Robust Sim(3) for each consecutive cluster pair, chained to cluster 0.

    Returns (the transforms.json record of each cluster's transform into the
    global frame, per-pair AlignmentResult list).
    """
    if not clusters:
        raise ConfigError("no clusters to align")
    results = [
        estimate_sim3_irls(extract_overlap_correspondences(a, b, conf_percentile))
        for a, b in zip(clusters, clusters[1:])
    ]
    for cluster, res in zip(clusters[1:], results):
        logger.info(
            "cluster %d: %d inliers, objective %.6g after %d IRLS iterations",
            cluster.cluster_id,
            res.inlier_count,
            res.final_objective,
            res.iterations_used,
        )
    records = [
        transform_record_from_sim3(c.cluster_id, t)
        for c, t in zip(clusters, chain_alignments([r.transform for r in results]))
    ]
    return records, results


def merged_geometry(clusters, records, source) -> MergedGeometry:
    """The clusters under the transforms.json records of their ids; DataError
    names source when a cluster has no record.

    Each Sim(3) is read back from its record (rotation -> quaternion ->
    rotation loses ~1e-16), so later stages consume exactly what a reader of
    transforms.json reconstructs and a staged run matches run_pipeline's.
    """
    by_id = {rec.cluster_id: rec for rec in records}
    missing = [c.cluster_id for c in clusters if c.cluster_id not in by_id]
    if missing:
        raise DataError(f"{source} has no transform for cluster {missing[0]}")
    return MergedGeometry(clusters, [sim3_from_transform_record(by_id[c.cluster_id]) for c in clusters])


def track_scene(data: SceneData, merged: MergedGeometry, cfg: PipelineConfig, matcher=None):
    """Tracks across the scene's frame graph under cfg's k, tau_reproj and
    max_keypoints; the matcher defaults to the scene's synthetic one."""
    if matcher is None:
        matcher = matcher_from_scene_dir(data.root, data.similarity)
    return run_tracking(
        data.similarity, merged, matcher, k=cfg.k, tau_reproj=cfg.tau_reproj, max_keypoints=cfg.max_keypoints
    )


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
    """Raise ConfigError unless clusters are exactly the plan's subsets.

    The message names the plan's partition settings, so a scene built under
    other settings tells its user which flags to pass.
    """
    settings = (
        f"the plan has subset_size {plan.subset_size}, overlap {plan.overlap}, "
        f"n_subsequences {plan.n_subsequences}; partition settings do not match the reconstruction layout"
    )
    if len(clusters) != len(plan.subsets):
        raise ConfigError(
            f"scene has {len(clusters)} clusters but the plan produces {len(plan.subsets)} subsets; {settings}"
        )
    for idx, cluster in enumerate(clusters):
        if list(cluster.frame_ids) != [int(i) for i in plan.subsets[idx]]:
            raise ConfigError(f"cluster {cluster.cluster_id} frames do not match plan subset {idx}; {settings}")


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
    so point_cloud_distance maps it into ground-truth coordinates by the
    trajectory's fitted Sim(3) gauge, chunk by chunk, while it scores.
    """
    metrics = {"trajectory": evaluate_trajectories(est, gt).to_dict()}
    if pred_cloud is not None and gt_cloud is not None:
        gauge = umeyama_align(est, gt)
        accuracy, completion = point_cloud_distance(pred_cloud, gt_cloud, gauge)
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
        raise DataError(f"{gt_path}: gt poses missing frames {missing[:5]}")
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
    report.json's timings_sec holds each stage's wall time, and its
    peak_rss_mib the process's resident-set high-water mark in MiB
    (ru_maxrss) read after each stage: it never falls, and it counts
    whatever the process held before this call, so a stage that raises it
    set a new peak and one that leaves it level did not.
    """
    cfg = config if config is not None else PipelineConfig()
    timings, peak_rss = {}, {}

    @contextmanager
    def stage(name):
        with _stage(name, timings):
            yield
        peak_rss[name] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux

    with stage("load"):
        data = load_scene(scene_dir)

    with stage("plan"):
        plan = plan_scene(data.similarity, cfg.subset_size, cfg.overlap, n_subsequences=cfg.n_subsequences)
        check_plan_matches_clusters(data.clusters, plan)

    with stage("align"):
        transform_records, _ = align_clusters(data.clusters, cfg.conf_percentile)

    with stage("track"):
        merged = merged_geometry(data.clusters, transform_records, "the align stage")
        tracking = track_scene(data, merged, cfg, matcher)

    with stage("ba"):
        problem, ba_result, refined_cameras, refined_tracks, cloud = bundle_adjust(
            merged, tracking.tracks, cfg.ba_config()
        )

    with stage("eval"):
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
            "keypoints": tracking.keypoints,
            "verified_pairs": tracking.verified_pairs,
            "tracks": len(tracking.tracks),
            "ba_observations": problem.n_observations,
            "merged_points": int(len(cloud.points)),
        },
        "timings_sec": timings,
        "peak_rss_mib": peak_rss,
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


def write_run_artifacts(out_dir, result: PipelineResult, cfg: PipelineConfig) -> dict:
    """Serialize every stage output; returns {artifact name: path}."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"plan": out / "plan.json", "transforms": out / "transforms.json", "tracks": out / "tracks.bin"}
    write_plan(paths["plan"], result.plan)
    write_transforms(paths["transforms"], result.transform_records)
    write_tracks(paths["tracks"], result.tracking.tracks)
    paths.update(write_ba_artifacts(out, result.cameras, result.ba, result.cloud, cfg.ba_config()))
    if result.metrics is not None:
        paths["metrics"] = out / "metrics.json"
        write_json(paths["metrics"], result.metrics)
    paths["report"] = out / "report.json"
    write_json(paths["report"], result.report)
    return paths


def write_ba_artifacts(out_dir, cameras, ba_result, cloud: PointCloud, ba_cfg: BAConfig) -> dict:
    """Write poses_refined.json, merged.ply and ba_loss.csv; returns {artifact name: path}."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"poses": out / "poses_refined.json", "cloud": out / "merged.ply", "ba_loss": out / "ba_loss.csv"}
    write_poses(paths["poses"], [pose_record_from_camera(c) for c in cameras])
    write_ply(paths["cloud"], cloud)
    write_loss_csv(paths["ba_loss"], ba_result, ba_cfg)
    return paths
