"""One measuring process: closed-loop run_pipeline calls on one scene.

The parent (run.py) synthesizes the scene and starts this script in a
fresh interpreter, so the process's peak RSS covers only pipeline calls.
One caller issues each call after the previous one returns, for at least
the requested number of seconds. Every call is checked against ground
truth, and timed both raw and scaled to a reference machine speed
(calibrate.py). With tracing on, one more call runs with the span wrappers of
spans.py installed and must reproduce the untraced outputs bit for bit.

Usage: python3 worker.py SPEC_JSON   (SPEC_JSON as written by run.py)
Prints one JSON object on stdout.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

import calibrate

# Bounds of the per-call correctness check. ATE_LIMIT is the tier-1 bound.
ATE_LIMIT = 0.1
AUC30_FLOOR = 90.0
# Outputs a traced call must reproduce exactly.
TRACE_EQUAL = ("loss_best", "ate", "auc30", "tracks")


def summarize(result) -> dict:
    """The outputs of one call that the checks and comparisons read."""
    metrics = result.metrics or {}
    traj = metrics.get("trajectory", {})
    cloud = metrics.get("point_cloud", {})
    return {
        "ate": traj.get("ate"),
        "rre_deg": traj.get("rre"),
        "auc30": traj.get("auc_at_30"),
        "pc_accuracy": cloud.get("accuracy"),
        "pc_completion": cloud.get("completion"),
        "loss_best": float(result.ba.final_loss),
        "failed_edges": int(result.tracking.failed_edges),
        "tracks": len(result.tracking.tracks),
    }


def check(summary: dict) -> list[str]:
    """Reasons this call's outputs are wrong; empty when they pass."""
    problems = [
        f"{k} is {v}" for k, v in summary.items() if not (isinstance(v, (int, float)) and math.isfinite(v))
    ]
    if problems:
        return problems
    if summary["failed_edges"] != 0:
        problems.append(f"{summary['failed_edges']} failed edges")
    if summary["tracks"] < 1:
        problems.append("no track survived")
    if not summary["ate"] < ATE_LIMIT:
        problems.append(f"ate {summary['ate']} >= {ATE_LIMIT}")
    if not summary["auc30"] >= AUC30_FLOOR:
        problems.append(f"auc30 {summary['auc30']} < {AUC30_FLOOR}")
    return problems


def file_digest(path: Path) -> str:
    return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


def artifact_digests(result, config, out_dir: Path) -> dict:
    """Digests of the tracks.bin and poses_refined.json a refactor must keep byte-identical.

    The full artifact set is written, as a CLI run would, then removed.
    """
    from scenemerge.pipeline import write_run_artifacts

    paths = write_run_artifacts(out_dir, result, config)
    digests = {paths[k].name: file_digest(paths[k]) for k in ("tracks", "poses")}
    shutil.rmtree(out_dir)
    return digests


def one_call(scene: str, config, tracer=None):
    """(call record, PipelineResult or None); the record holds wall and CPU seconds."""
    from scenemerge.pipeline import run_pipeline

    gc.collect()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        if tracer is None:
            result = run_pipeline(scene, config)
        else:
            with tracer.span("pipeline.run_pipeline"):
                result = run_pipeline(scene, config)
    except Exception as e:  # a failing call is counted in pass_rate, not fatal
        failure = {"error": f"{type(e).__name__}: {e}", "traceback": traceback.format_exc()}
        return {"wall_s": time.perf_counter() - t0, **failure}, None
    record = {"wall_s": time.perf_counter() - t0, "cpu_s": time.process_time() - c0}
    record["summary"] = summarize(result)
    record["problems"] = check(record["summary"])
    return record, result


def gt_ate(scene: str):
    """ATE of a camera list against the scene's gt/poses.json."""
    from scenemerge.evaluation import trajectory_errors
    from scenemerge.geometry import CameraPose, quat_wxyz_to_matrix
    from scenemerge.io_formats import read_poses

    records = {r.frame_id: r for r in read_poses(Path(scene) / "gt" / "poses.json")}

    def ate_of(cameras) -> float:
        gt = [
            CameraPose(
                rotation=quat_wxyz_to_matrix(records[c.frame_id].quat_wxyz),
                translation=records[c.frame_id].translation,
            )
            for c in cameras
        ]
        return float(trajectory_errors(cameras, gt)[0])

    return ate_of


def measure(spec: dict) -> dict:
    from scenemerge.pipeline import PipelineConfig

    scene, out_dir = spec["scene"], Path(spec["out_dir"])
    config = PipelineConfig(**spec["config"])
    calls, reference, artifacts = [], None, None
    start = time.perf_counter()
    speed = calibrate.speed_s()
    while True:
        record, result = one_call(scene, config)
        speed = calibrate_call(record, speed)
        if result is not None:
            if reference is None:
                reference = record["summary"]
                artifacts = artifact_digests(result, config, out_dir / "untraced")
            elif record["summary"] != reference:
                record["problems"].append("outputs differ from the first call of this run")
        del result
        calls.append(record)
        if time.perf_counter() - start >= spec["seconds"]:
            break
    out = {
        "calls": calls,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "reference": reference,
        "artifacts": artifacts,
        "config": asdict(config),
    }
    if spec["trace"]:
        out["traced"] = traced_call(scene, config, out_dir, calls, reference, artifacts, speed)
    return out


def calibrate_call(record: dict, speed_before: float) -> float:
    """Add the call's times scaled to the reference machine speed; returns the speed after it."""
    speed_after = calibrate.speed_s()
    record["speed_s"] = [speed_before, speed_after]
    for key in ("wall_s", "cpu_s"):
        if key in record:
            record[f"scaled_{key}"] = calibrate.scaled(record[key], speed_before, speed_after)
    return speed_after


def traced_call(scene, config, out_dir: Path, calls, reference, artifacts, speed: float) -> dict:
    from spans import Tracer, install_hooks, layer_metrics

    tracer = Tracer()
    install_hooks(tracer)
    try:
        record, result = one_call(scene, config, tracer)
    finally:
        tracer.uninstall()
    calibrate_call(record, speed)
    (out_dir / "spans.json").write_text(json.dumps([asdict(s) for s in tracer.spans]) + "\n")
    if result is None:
        return {"record": record}
    problems = record["problems"]
    traced_artifacts = artifact_digests(result, config, out_dir / "traced")
    if reference is None:
        problems.append("no untraced call succeeded to compare against")
    else:
        for key in TRACE_EQUAL:
            if record["summary"][key] != reference[key]:
                problems.append(f"traced {key} {record['summary'][key]!r} != untraced {reference[key]!r}")
        if traced_artifacts != artifacts:
            problems.append(f"traced artifacts {traced_artifacts} != untraced {artifacts}")
    layers = layer_metrics(tracer, config, gt_ate(scene))
    untraced = [c["scaled_wall_s"] for c in calls if "error" not in c]
    if untraced:
        layers["trace.overhead_s"] = (record["scaled_wall_s"] - statistics.median(untraced), "s")
    ate_before = layers["alignment.ate_before_ba"][0]
    layers["ba.ate_ratio"] = (record["summary"]["ate"] / ate_before if ate_before else float("nan"), "ratio")
    return {"record": record, "layers": layers, "artifacts": traced_artifacts}


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    sys.path.insert(0, spec["src"])
    print(json.dumps(measure(spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
