"""Tests for the end-to-end pipeline: config, scene IO, and staged runs.

Scene scale is kept small (24 cameras, 3 subsets) so each full run takes a
fraction of a second; the acceptance suite exercises the 200-camera scale.
Expected partition arithmetic for the shared scene: N=24, T=12, O=3 gives
ceil((24-12)/(12-3)) + 1 = 3 subsets, so the report's pair-count entry is
K*T^2 = 3*144 = 432 against N^2 = 576, ratio 0.75.
"""

import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from scenemerge.errors import ConfigError, DataError
from scenemerge.geometry import Sim3Transform
from scenemerge.io_formats import read_manifest, read_poses, read_tensor, sim3_from_transform_record, write_poses
from scenemerge.ordering import plan_scene
from scenemerge.pipeline import (
    PipelineConfig,
    align_clusters,
    bundle_adjust,
    check_plan_matches_clusters,
    evaluate_run,
    load_scene,
    matcher_from_scene_dir,
    merged_geometry,
    run_pipeline,
    synthesize_scene_dir,
    track_scene,
    write_loss_csv,
)
from scenemerge.synthetic import PerturbationSpec, generate_scene, synthetic_matcher

SEED = 5
N_CAMERAS = 24
N_LANDMARKS = 900
SUBSET_SIZE = 12
OVERLAP = 3


def _small_config(**overrides) -> PipelineConfig:
    values = dict(subset_size=SUBSET_SIZE, overlap=OVERLAP)
    values.update(overrides)
    return PipelineConfig(**values)


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    """A noisy 24-camera scene synthesized once for the whole module."""
    root = tmp_path_factory.mktemp("scene") / "noisy"
    synthesize_scene_dir(
        root,
        seed=SEED,
        n_cameras=N_CAMERAS,
        n_landmarks=N_LANDMARKS,
        subset_size=SUBSET_SIZE,
        overlap=OVERLAP,
    )
    return root


@pytest.fixture(scope="module")
def run_output(scene_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("artifacts")
    result = run_pipeline(scene_dir, _small_config(), out_dir=out)
    return result, out


class TestPipelineConfig:
    def test_defaults(self):
        cfg = PipelineConfig()
        assert cfg.subset_size == 100
        assert cfg.overlap == 5
        assert cfg.k == 5
        assert cfg.conf_percentile == 70.0
        assert cfg.tau_reproj == 8.0
        assert cfg.max_keypoints == 4096
        assert cfg.ba_iterations == 300
        assert cfg.ba_lr == 3e-3
        assert cfg.lambda_exp == 0.5
        assert cfg.n_subsequences is None

    def test_ba_config_mirrors_fields(self):
        cfg = PipelineConfig(ba_iterations=7, ba_lr=0.01, lambda_exp=2.0)
        ba = cfg.ba_config()
        assert ba.iterations == 7
        assert ba.initial_lr == 0.01
        assert ba.lambda_exp == 2.0

    def test_from_sources_precedence(self):
        cfg = PipelineConfig.from_sources(
            file_values={"subset_size": 40, "overlap": 4, "k": 3},
            overrides={"subset_size": 50, "overlap": None},
        )
        assert cfg.subset_size == 50  # flag beats file
        assert cfg.overlap == 4  # None override never shadows the file
        assert cfg.k == 3  # file beats default
        assert cfg.tau_reproj == 8.0  # untouched default

    def test_from_sources_empty_is_default(self):
        assert PipelineConfig.from_sources() == PipelineConfig()

    def test_from_sources_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config field"):
            PipelineConfig.from_sources(file_values={"subset_sze": 10})
        with pytest.raises(ConfigError, match="unknown config field"):
            PipelineConfig.from_sources(overrides={"lr": 0.1})

    def test_from_sources_checks_value_types(self):
        """int fields take ints, float fields ints or floats, and neither
        takes a bool; None still means "not given"."""
        cfg = PipelineConfig.from_sources(file_values={"ba_lr": 1, "n_subsequences": None, "k": 4})
        assert (cfg.ba_lr, cfg.n_subsequences, cfg.k) == (1, None, 4)
        for bad in ({"k": True}, {"k": 2.5}, {"k": "5"}, {"ba_lr": "abc"}, {"ba_lr": False},
                    {"n_subsequences": True}, {"n_subsequences": 2.0}):
            (key,) = bad
            with pytest.raises(ConfigError, match=f"config field {key!r} must be"):
                PipelineConfig.from_sources(file_values=bad)

    def test_to_dict_round_trips(self):
        cfg = PipelineConfig(subset_size=15, overlap=2, k=3)
        assert PipelineConfig.from_sources(file_values=cfg.to_dict()) == cfg

    def test_rejects_bad_ranges(self):
        with pytest.raises(ConfigError, match="subset_size"):
            PipelineConfig(subset_size=1)
        with pytest.raises(ConfigError, match="overlap"):
            PipelineConfig(subset_size=10, overlap=10)
        with pytest.raises(ConfigError, match="k must be"):
            PipelineConfig(k=0)
        with pytest.raises(ConfigError, match="conf_percentile"):
            PipelineConfig(conf_percentile=100.0)
        for bad in (0.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="tau_reproj"):
                PipelineConfig(tau_reproj=bad)
        with pytest.raises(ConfigError, match="max_keypoints"):
            PipelineConfig(max_keypoints=0)
        for bad in (0, -1):
            with pytest.raises(ConfigError, match="n_subsequences must be >= 1"):
                PipelineConfig(n_subsequences=bad)
        with pytest.raises(ConfigError, match="iterations"):
            PipelineConfig(ba_iterations=0)


class TestSynthesizeSceneDir:
    def test_layout_and_record(self, scene_dir):
        assert (scene_dir / "manifest.json").exists()
        manifest = read_manifest(scene_dir / "manifest.json")
        assert len(manifest.images) == N_CAMERAS
        assert len(manifest.clusters) == 3
        record = json.loads((scene_dir / "gt" / "synth.json").read_text())
        assert record["seed"] == SEED
        assert record["n_cameras"] == N_CAMERAS
        assert record["subset_size"] == SUBSET_SIZE
        assert record["overlap"] == OVERLAP
        assert record["perturb"]["depth_noise_sigma"] == 0.01
        assert (scene_dir / "gt" / "poses.json").exists()
        assert (scene_dir / "gt" / "landmarks.ply").exists()

    def test_deterministic_bytes(self, tmp_path):
        kwargs = dict(
            seed=2, n_cameras=12, n_landmarks=400, subset_size=6, overlap=2
        )
        a = synthesize_scene_dir(tmp_path / "a", **kwargs).parent
        b = synthesize_scene_dir(tmp_path / "b", **kwargs).parent
        rel_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        rel_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        assert rel_a == rel_b
        for rel in rel_a:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    def test_object_layout(self, tmp_path):
        path = synthesize_scene_dir(
            tmp_path / "obj",
            seed=3,
            n_cameras=10,
            n_landmarks=300,
            layout="object",
            perturb=PerturbationSpec(),
            subset_size=5,
            overlap=1,
        )
        data = load_scene(path.parent)
        assert data.n_images == 10


class TestLoadScene:
    def test_loads_counts(self, scene_dir):
        data = load_scene(scene_dir)
        assert data.n_images == N_CAMERAS
        assert len(data.clusters) == 3
        assert data.similarity.n == N_CAMERAS
        assert [c.cluster_id for c in data.clusters] == [0, 1, 2]

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError, match="manifest.json"):
            load_scene(tmp_path)


class TestMatcherFromSceneDir:
    def test_missing_record(self, tmp_path):
        with pytest.raises(DataError, match="supply a matcher"):
            matcher_from_scene_dir(tmp_path)

    def test_missing_field(self, scene_dir, tmp_path):
        record = json.loads((scene_dir / "gt" / "synth.json").read_text())
        del record["perturb"]["depth_noise_sigma"]
        broken = tmp_path / "gt"
        broken.mkdir()
        (broken / "synth.json").write_text(json.dumps(record))
        with pytest.raises(DataError, match="depth_noise_sigma"):
            matcher_from_scene_dir(tmp_path)

    def test_rebuilds_recorded_matcher(self, scene_dir, tmp_path, monkeypatch):
        """On both layouts, the matcher read from gt/ matches every
        frame-graph edge bit for bit with the one built on a freshly
        generated scene, and reading it never generates the scene."""
        from scenemerge import pipeline, synthetic
        from scenemerge.tracking import build_frame_graph

        object_dir = tmp_path / "object"
        synthesize_scene_dir(object_dir, seed=SEED, n_cameras=N_CAMERAS, n_landmarks=N_LANDMARKS, layout="object",
                             subset_size=SUBSET_SIZE, overlap=OVERLAP)
        fresh = {
            layout: synthetic_matcher(
                generate_scene(SEED, n_cameras=N_CAMERAS, n_landmarks=N_LANDMARKS, layout=layout),
                PerturbationSpec.default(),
            )
            for layout in ("room", "object")
        }

        def no_generation(*args, **kwargs):
            raise AssertionError("matcher_from_scene_dir generated the scene")

        for module in (synthetic, pipeline):
            monkeypatch.setattr(module, "generate_scene", no_generation)
        for layout, root in (("room", scene_dir), ("object", object_dir)):
            read = matcher_from_scene_dir(root)
            edges = build_frame_graph(load_scene(root).similarity, k=5).edges
            assert len(edges) > N_CAMERAS
            for i, j in edges:
                for a, b in ((read(i, j), fresh[layout](i, j)), (read(j, i), fresh[layout](j, i))):
                    assert (a.frame_i, a.frame_j) == (b.frame_i, b.frame_j)
                    assert a.pixels_i.tobytes() == b.pixels_i.tobytes()
                    assert a.pixels_j.tobytes() == b.pixels_j.tobytes()

    def test_matches_scene_of_any_image_size(self, tmp_path):
        """A scene generated at 96x72 gets its matches in its own pixel frame:
        with no match noise every one of them verifies."""
        from scenemerge.alignment import MergedGeometry
        from scenemerge.synthetic import render_cluster, synthetic_similarity, write_scene
        from scenemerge.tracking import MatchBlock, build_frame_graph, verify_matches

        root = tmp_path / "wide"
        n_cameras, n_landmarks, noise_free = 16, 900, PerturbationSpec()
        synthesize_scene_dir(root, seed=SEED, n_cameras=n_cameras, n_landmarks=n_landmarks, perturb=noise_free,
                             subset_size=8, overlap=2)  # writes the synth record
        scene = generate_scene(SEED, n_cameras=n_cameras, n_landmarks=n_landmarks, image_size=(96, 72))
        similarity = synthetic_similarity(scene)
        clusters = [render_cluster(scene, s, noise_free, cluster_id=c)[0]
                    for c, s in enumerate(plan_scene(similarity, 8, 2).subsets)]
        write_scene(root, scene, clusters, similarity)
        assert read_manifest(root / "manifest.json").images[0].width == 96

        matcher = matcher_from_scene_dir(root)
        merged = MergedGeometry(clusters, [Sim3Transform.identity()] * len(clusters))
        edges = build_frame_graph(similarity, k=3).edges
        block = MatchBlock.of(((matcher(i, j), slice(None)) for i, j in edges), merged)
        assert len(block) > 0 and len(verify_matches(block, merged, tau_reproj=1.0)) == len(block)


class TestAlignClusters:
    def test_single_cluster_identity(self, scene_dir):
        data = load_scene(scene_dir)
        records, results = align_clusters(data.clusters[:1])
        assert results == []
        assert [r.cluster_id for r in records] == [data.clusters[0].cluster_id]
        transform = sim3_from_transform_record(records[0])
        identity = Sim3Transform.identity()
        assert transform.scale == identity.scale
        assert np.array_equal(transform.rotation, identity.rotation)
        assert np.array_equal(transform.translation, identity.translation)

    def test_transforms_are_read_back_from_records(self, scene_dir):
        """merged_geometry looks each cluster's record up by id and places
        the cluster by the Sim(3) a reader of transforms.json reconstructs."""
        from scenemerge.alignment import MergedGeometry

        data = load_scene(scene_dir)
        records, results = align_clusters(data.clusters)
        assert len(results) == len(data.clusters) - 1
        assert [r.cluster_id for r in records] == [c.cluster_id for c in data.clusters]
        merged = merged_geometry(data.clusters, records[::-1], "records")
        expected = MergedGeometry(data.clusters, [sim3_from_transform_record(r) for r in records])
        assert merged.frames() == expected.frames()
        for fid in merged.frames():
            mine, theirs = merged.camera(fid).pose, expected.camera(fid).pose
            assert np.array_equal(mine.rotation, theirs.rotation)
            assert np.array_equal(mine.translation, theirs.translation)

    def test_merged_geometry_names_source_of_missing_cluster(self, scene_dir):
        data = load_scene(scene_dir)
        records, _ = align_clusters(data.clusters)
        with pytest.raises(DataError, match=re.escape("t.json has no transform for cluster 1")):
            merged_geometry(data.clusters, [records[0], records[2]], "t.json")

    def test_validation(self):
        with pytest.raises(ConfigError, match="no clusters"):
            align_clusters([])


class TestCheckPlanMatchesClusters:
    def test_matching_plan_passes(self, scene_dir):
        data = load_scene(scene_dir)
        plan = plan_scene(data.similarity, SUBSET_SIZE, OVERLAP)
        check_plan_matches_clusters(data.clusters, plan)

    def test_wrong_subset_count(self, scene_dir):
        data = load_scene(scene_dir)
        plan = plan_scene(data.similarity, 8, 2)
        with pytest.raises(ConfigError, match="partition settings"):
            check_plan_matches_clusters(data.clusters, plan)

    def test_wrong_frames(self, scene_dir):
        data = load_scene(scene_dir)
        plan = plan_scene(data.similarity, SUBSET_SIZE, OVERLAP)
        shuffled = replace(plan, subsets=plan.subsets[::-1])
        with pytest.raises(ConfigError, match="do not match plan subset"):
            check_plan_matches_clusters(data.clusters, shuffled)


class TestRunPipeline:
    def test_smoke_counts(self, run_output):
        result, _ = run_output
        report = result.report
        assert report["n_images"] == N_CAMERAS
        assert report["n_subsets"] == 3
        counts = report["counts"]
        assert counts["tracks"] == len(result.tracking.tracks) > 0
        assert counts["ba_observations"] > 0
        assert counts["merged_points"] == len(result.cloud.points) > 0
        assert counts["failed_edges"] == 0
        assert counts["keypoints"] == result.tracking.keypoints >= len(result.tracking.tracks.frames)
        assert counts["verified_pairs"] == result.tracking.verified_pairs > 0
        assert counts["keypoints"] <= 2 * counts["verified_pairs"]
        assert len(result.cameras) == N_CAMERAS
        assert len(result.tracks) == counts["tracks"]

    def test_pair_count_arithmetic(self, run_output):
        result, _ = run_output
        pair = result.report["pair_count"]
        assert pair["k_t_squared"] == 3 * SUBSET_SIZE**2 == 432
        assert pair["n_squared"] == N_CAMERAS**2 == 576
        assert pair["ratio"] == 432 / 576

    def test_matcher_invocation_bound(self, run_output):
        result, _ = run_output
        assert result.report["counts"]["matcher_invocations"] <= 5 * N_CAMERAS

    def test_metrics_present_with_gt(self, run_output):
        result, _ = run_output
        traj = result.metrics["trajectory"]
        assert set(traj["rra_at"]) == {"5", "15", "30"}
        assert 0 <= traj["auc_at_30"] <= 100
        assert traj["ate"] < 0.1  # noisy scene still merges to a few percent
        cloud = result.metrics["point_cloud"]
        assert 0 < cloud["accuracy"] < 0.2
        assert 0 < cloud["completion"] < 0.2

    def test_stage_timings(self, run_output):
        result, _ = run_output
        timings = result.report["timings_sec"]
        assert set(timings) == {"load", "plan", "align", "track", "ba", "eval"}
        assert all(t >= 0 for t in timings.values())

    def test_stage_peak_rss(self, run_output):
        """One high-water mark per stage, in stage order; a high-water mark never falls."""
        result, _ = run_output
        peaks = result.report["peak_rss_mib"]
        assert list(peaks) == ["load", "plan", "align", "track", "ba", "eval"]
        values = list(peaks.values())
        assert values[0] > 0
        assert values == sorted(values)

    def test_artifact_files(self, run_output):
        _, out = run_output
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "ba_loss.csv",
            "merged.ply",
            "metrics.json",
            "plan.json",
            "poses_refined.json",
            "report.json",
            "tracks.bin",
            "transforms.json",
        ]
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["trajectory"]["rra_at"]["30"] == 100.0

    def test_rerun_byte_identical(self, scene_dir, run_output, tmp_path):
        _, first = run_output
        run_pipeline(scene_dir, _small_config(), out_dir=tmp_path)
        for name in (
            "plan.json",
            "transforms.json",
            "tracks.bin",
            "poses_refined.json",
            "merged.ply",
            "ba_loss.csv",
            "metrics.json",
        ):
            assert (tmp_path / name).read_bytes() == (first / name).read_bytes(), name
        # report.json differs only by wall times and memory high-water marks
        own = json.loads((tmp_path / "report.json").read_text())
        ref = json.loads((first / "report.json").read_text())
        for measured in ("timings_sec", "peak_rss_mib"):
            own.pop(measured)
            ref.pop(measured)
        assert own == ref

    def test_zero_noise_recovers_ground_truth(self, tmp_path):
        scene = tmp_path / "clean"
        synthesize_scene_dir(
            scene,
            seed=11,
            n_cameras=N_CAMERAS,
            n_landmarks=N_LANDMARKS,
            perturb=PerturbationSpec(),
            subset_size=SUBSET_SIZE,
            overlap=OVERLAP,
        )
        result = run_pipeline(scene, _small_config())
        traj = result.metrics["trajectory"]
        diameter = generate_scene(11, n_cameras=N_CAMERAS, n_landmarks=N_LANDMARKS).diameter
        assert traj["ate"] < 1e-5 * diameter
        assert traj["rra_at"]["30"] == 100.0
        assert traj["rta_at"]["30"] == 100.0
        # cloud error is bounded by pixel-grid quantization of the depth
        # maps (about 0.25 px times depth over focal), not by the noise model
        assert result.metrics["point_cloud"]["accuracy"] < 0.05

    def test_without_gt_metrics_none(self, scene_dir, tmp_path):
        import shutil

        stripped = tmp_path / "nogt"
        shutil.copytree(scene_dir, stripped)
        shutil.rmtree(stripped / "gt")
        matcher = matcher_from_scene_dir(scene_dir)
        result = run_pipeline(stripped, _small_config(), matcher=matcher)
        assert result.metrics is None
        assert result.report["counts"]["tracks"] > 0

    def test_without_gt_needs_explicit_matcher(self, scene_dir, tmp_path):
        import shutil

        stripped = tmp_path / "nogt"
        shutil.copytree(scene_dir, stripped)
        shutil.rmtree(stripped / "gt")
        with pytest.raises(DataError, match="track stage: .*supply a matcher"):
            run_pipeline(stripped, _small_config())

    def test_gt_missing_frames_are_named(self, scene_dir, run_output, tmp_path):
        import shutil

        result, _ = run_output
        scene = tmp_path / "scene"
        shutil.copytree(scene_dir, scene)
        gt_path = scene / "gt" / "poses.json"
        write_poses(gt_path, [r for r in read_poses(gt_path) if r.frame_id not in (3, 7)])
        with pytest.raises(DataError, match=re.escape(f"{gt_path}: gt poses missing frames [3, 7]")):
            evaluate_run(load_scene(scene), result.cameras, result.cloud)

    def test_stage_name_tags_errors(self, scene_dir):
        with pytest.raises(ConfigError, match="plan stage: "):
            run_pipeline(scene_dir, PipelineConfig(subset_size=8, overlap=2))

    def test_stage_by_stage_matches_end_to_end(self, scene_dir, run_output, tmp_path):
        """Recomputing later stages from cached artifacts reproduces the run."""
        from scenemerge.io_formats import read_plan, read_tracks, read_transforms, write_tracks

        result, out = run_output
        data = load_scene(scene_dir)
        cfg = _small_config()
        check_plan_matches_clusters(data.clusters, read_plan(out / "plan.json"))
        transforms_path = out / "transforms.json"
        merged = merged_geometry(data.clusters, read_transforms(transforms_path), transforms_path)
        tracking = track_scene(data, merged, cfg)
        write_tracks(tmp_path / "tracks.bin", tracking.tracks)
        assert (tmp_path / "tracks.bin").read_bytes() == (out / "tracks.bin").read_bytes()

        tracks = read_tracks(out / "tracks.bin")
        _, _, refined, _, cloud = bundle_adjust(merged, tracks, cfg.ba_config())
        for mine, theirs in zip(refined, result.cameras):
            assert mine.frame_id == theirs.frame_id
            assert np.array_equal(mine.pose.rotation, theirs.pose.rotation)
            assert np.array_equal(mine.pose.translation, theirs.pose.translation)
        assert np.array_equal(cloud.points, result.cloud.points)


class TestWriteLossCsv:
    def test_rows_round_trip(self, run_output, tmp_path):
        result, _ = run_output
        cfg = _small_config().ba_config()
        path = tmp_path / "loss.csv"
        write_loss_csv(path, result.ba, cfg)
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,lr,loss"
        assert len(lines) == len(result.ba.loss_history) + 1
        for text, loss in zip(lines[1:], result.ba.loss_history):
            idx, lr, value = text.split(",")
            assert float(value) == loss  # %.17e prints float64 exactly
            assert float(lr) == pytest.approx(cfg.learning_rate(int(idx)), rel=1e-9)


class TestBAMustNotHurt:
    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="run_ba raises ATE on both bench scenes: 4.5e-4 -> 5.1e-3 on room-200, 6.1e-4 -> 3.0e-2 on object-200",
    )
    @pytest.mark.parametrize("workload", ["room-200", "object-200"])
    def test_ate_after_ba_not_above_before(self, workload, tmp_path):
        """On each benchmark scene, built stage by stage as run_pipeline
        does, the cameras after BA are no further from ground truth (ATE)
        than the merged cameras BA starts from. Seeds, sizes and
        perturbation are the benchmark's (bench/run.py)."""
        import sys

        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
        from run import PERTURBATION, WORKLOADS

        wl = WORKLOADS[workload]
        synthesize_scene_dir(
            tmp_path,
            seed=wl.scene_seed,
            n_cameras=wl.n_cameras,
            n_landmarks=wl.n_landmarks,
            layout=wl.layout,
            perturb=PerturbationSpec(**PERTURBATION),
            subset_size=wl.subset_size,
            overlap=wl.overlap,
        )
        cfg = PipelineConfig(subset_size=wl.subset_size, overlap=wl.overlap)
        data = load_scene(tmp_path)
        records, _ = align_clusters(data.clusters, cfg.conf_percentile)
        merged = merged_geometry(data.clusters, records, "align_clusters")
        tracks = track_scene(data, merged, cfg).tracks
        problem, _, refined, _, _ = bundle_adjust(merged, tracks, cfg.ba_config())
        before = evaluate_run(data, problem.cameras, None)["trajectory"]["ate"]
        after = evaluate_run(data, refined, None)["trajectory"]["ate"]
        assert after <= before, f"ATE {before:.3g} before BA, {after:.3g} after"
