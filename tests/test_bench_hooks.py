"""The benchmark's span hooks, run against the current pipeline.

bench/spans.py wraps pipeline functions where their callers look them up
(tracking.merge_tracks, ba.BAProblem.from_tracks called as (cameras,
tracks), pipeline.apply_ba_result, ...) and reads what they return. One
traced 20-camera run_pipeline call here makes a refactor that moves a hook
point, or changes what a hooked function returns, fail in tier-1 as well as
in the benchmark's own smoke test (bench/test_bench.py).
"""

import json
import math
import sys
from inspect import getattr_static
from pathlib import Path

from scenemerge import ba, pipeline, tracking
from scenemerge.pipeline import PipelineConfig, run_pipeline, synthesize_scene_dir

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
from spans import Tracer, install_hooks, layer_metrics  # noqa: E402
from worker import gt_ate  # noqa: E402

# Added by the benchmark's worker and runner around layer_metrics.
OUTSIDE_LAYER_METRICS = {"trace.overhead_s", "ba.ate_ratio", "io_formats.scene_bytes"}


def _hook_points():
    return [
        getattr_static(tracking, "merge_tracks"),
        getattr_static(tracking, "verify_matches"),
        getattr_static(pipeline, "matcher_from_scene_dir"),
        getattr_static(ba.BAProblem, "from_tracks"),
        getattr_static(pipeline, "apply_ba_result"),
        getattr_static(pipeline, "_stage"),
    ]


def test_traced_run_reports_every_layer_metric(tmp_path):
    scene = tmp_path / "scene"
    synthesize_scene_dir(scene, seed=3, n_cameras=20, n_landmarks=900, subset_size=10, overlap=3)
    config = PipelineConfig(subset_size=10, overlap=3, ba_iterations=20)
    untraced = run_pipeline(scene, config)
    originals = _hook_points()

    tracer = Tracer()
    install_hooks(tracer)
    try:
        traced = run_pipeline(scene, config)
    finally:
        tracer.uninstall()
    assert _hook_points() == originals

    metrics = layer_metrics(tracer, config, gt_ate(str(scene)))
    declared = {d["name"] for d in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(metrics) == declared - OUTSIDE_LAYER_METRICS
    for name, (value, _) in metrics.items():
        assert math.isfinite(value), name
    tracks = traced.tracking.tracks
    assert metrics["tracking.tracks"][0] == len(tracks) > 0
    assert metrics["tracking.track_len_mean"][0] == tracks.lengths.mean()
    assert metrics["ba.observations"][0] == tracks.lengths.sum()
    assert metrics["ba.loss_best"][0] == untraced.ba.final_loss == traced.ba.final_loss
    # the verify span's note counts the pairs offered (len of the first
    # argument) and kept (len of the result) by each gate call
    offered = sum(min(n, config.max_keypoints) for n in tracer.notes["synthetic.match"])
    assert 0 < traced.tracking.verified_pairs < offered
    assert metrics["tracking.verify_pass_rate"][0] == traced.tracking.verified_pairs / offered
    # the merge span's note counts its input keypoints as twice the pair
    # numbers the keypoint table iterates over, which must be every pair
    assert metrics["tracking.track_yield"][0] == tracks.lengths.sum() / (2 * traced.tracking.verified_pairs)
