"""scenemerge benchmark: synthetic merge workloads, timed end to end.

    python3 bench/run.py --workload room-200 --seed 0 --seconds 40 --trace 0

Each run synthesizes the workload's scene several times (set-up time),
then starts worker.py in a fresh process, which calls
scenemerge.pipeline.run_pipeline on the scene in a closed loop for
--seconds seconds and checks every call against ground truth. With
--trace 1 the worker makes one more call with span wrappers installed
(spans.py) and reports the per-layer numbers instead of the end-to-end
ones. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

Run from the repository root; the program under test is imported from
src/. See README.md in this directory for workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import calibrate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"
# One run must end within 180 s; the worker gets what set-up leaves of this.
RUN_DEADLINE_S = 170.0
# Set-up is repeated and its median reported, so one slow synthesis does
# not decide setup_s.
SETUP_REPEATS = 5

# Pinned here instead of PerturbationSpec.default(), so a change to that
# default cannot silently change a workload.
PERTURBATION = {
    "per_cluster_sim3_noise": (0.3, 30.0, 1.0),
    "depth_noise_sigma": 0.01,
    "confidence_model": "inverse_error",
    "match_pixel_noise_sigma": 0.5,
    "outlier_match_fraction": 0.05,
}


@dataclass(frozen=True)
class Workload:
    """A synthetic scene; subset_size and overlap go to both synthesis and the pipeline."""

    scene_seed: int
    n_cameras: int
    n_landmarks: int
    layout: str
    subset_size: int = 100
    overlap: int = 5


WORKLOADS = {
    # The reference scene: BA's per-observation work is at its largest share.
    "room-200": Workload(scene_seed=42, n_cameras=200, n_landmarks=5000, layout="room"),
    # Matches collapse into a few giant ambiguous components: the track
    # stage dominates and BA keeps only its per-camera work.
    "object-200": Workload(scene_seed=42, n_cameras=200, n_landmarks=5000, layout="object"),
    # Scaling scene (quadratic pairwise metric, 716k-point cloud). One call
    # takes 40-50 s on 2 cores, so it is defined for manual runs but not
    # listed in BENCHMARK.json.
    "room-600": Workload(scene_seed=7, n_cameras=600, n_landmarks=15000, layout="room"),
}

END_TO_END_UNITS = {
    "pipeline_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "ate": "scene_units",
    "rre_deg": "deg",
    "auc30": "%",
    "pc_accuracy": "scene_units",
    "pc_completion": "scene_units",
    "pass_rate": "fraction",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def tree_digest(root: Path) -> str:
    """sha256 over every file's relative path and bytes, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return "sha256:" + h.hexdigest()


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():  # a plain source checkout has no history to ask
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    import numpy
    import scipy

    return {
        "git_sha": sha,
        "src_digest": tree_digest(SRC / "scenemerge") if (SRC / "scenemerge").is_dir() else None,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def synthesize(wl: Workload, out_dir: Path) -> float:
    """Write the workload's scene into out_dir; returns the wall time of the synthesis call."""
    from scenemerge.pipeline import synthesize_scene_dir
    from scenemerge.synthetic import PerturbationSpec

    if out_dir.exists():
        shutil.rmtree(out_dir)
    perturb = PerturbationSpec(**PERTURBATION)
    t0 = time.perf_counter()
    synthesize_scene_dir(
        out_dir,
        seed=wl.scene_seed,
        n_cameras=wl.n_cameras,
        n_landmarks=wl.n_landmarks,
        layout=wl.layout,
        perturb=perturb,
        subset_size=wl.subset_size,
        overlap=wl.overlap,
    )
    return time.perf_counter() - t0


def run_benchmark(name: str, wl: Workload, seed: int, seconds: float, trace: bool, work_dir: Path) -> dict:
    """Set up, measure and check one workload; returns the full run record."""
    started = time.perf_counter()
    run_dir = work_dir / f"{name}-seed{seed}-trace{int(trace)}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    scenes = [run_dir / f"scene-{i}" for i in range(SETUP_REPEATS)]
    speeds = [calibrate.speed_s()]
    setup_times = []
    for d in scenes:
        setup_times.append(synthesize(wl, d))
        speeds.append(calibrate.speed_s())
    scaled_setup = [calibrate.scaled(t, a, b) for t, a, b in zip(setup_times, speeds, speeds[1:])]
    scene_digests = [tree_digest(d) for d in scenes]
    scene_bytes = sum(p.stat().st_size for p in scenes[0].rglob("*") if p.is_file())
    for d in scenes[1:]:
        shutil.rmtree(d)

    spec = {
        "src": str(SRC),
        "scene": str(scenes[0]),
        "out_dir": str(run_dir),
        "seconds": seconds,
        "trace": trace,
        "config": {"subset_size": wl.subset_size, "overlap": wl.overlap},
    }
    budget = RUN_DEADLINE_S - (time.perf_counter() - started)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(spec)],
            capture_output=True,
            text=True,
            timeout=max(budget, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {budget:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    shutil.rmtree(scenes[0])

    calls = out["calls"]
    traced = out.get("traced")
    all_calls = calls + ([traced["record"]] if traced else [])
    failed = [c for c in all_calls if "error" in c or c["problems"]]
    run_problems = [] if len(set(scene_digests)) == 1 else [f"synthesis is not deterministic: {scene_digests}"]
    good = [c for c in calls if "error" not in c]
    if not good:
        raise BenchError(f"every pipeline call failed: {[c.get('error') for c in calls]}")
    ref = out["reference"]
    end_to_end = {
        "pipeline_s": statistics.median(c["scaled_wall_s"] for c in good),
        "setup_s": statistics.median(scaled_setup),
        "cpu_s": statistics.median(c["scaled_cpu_s"] for c in good),
        "peak_rss_mb": out["peak_rss_kib"] / 1024.0,
        "ate": ref["ate"],
        "rre_deg": ref["rre_deg"],
        "auc30": ref["auc30"],
        "pc_accuracy": ref["pc_accuracy"],
        "pc_completion": ref["pc_completion"],
        "pass_rate": 1.0 - len(failed) / len(all_calls),
    }
    record = {
        "workload": name,
        "params": asdict(wl),
        "perturbation": PERTURBATION,
        "pipeline_config": out["config"],
        "seed": seed,
        "seconds": seconds,
        "environment": environment(),
        "scene_digest": scene_digests[0],
        "artifact_digests": out["artifacts"],
        "setup_s_samples": setup_times,
        "setup_speed_s": speeds,
        "raw_medians": {
            "pipeline_s": statistics.median(c["wall_s"] for c in good),
            "setup_s": statistics.median(setup_times),
            "cpu_s": statistics.median(c["cpu_s"] for c in good),
        },
        "calls": calls,
        "end_to_end": {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end.items()},
        "failures": [c.get("error") or c["problems"] for c in failed] + run_problems,
        "correct": not failed and not run_problems,
        "attempted": len(all_calls),
        "failed": len(failed),
    }
    if trace:
        if "layers" not in traced:
            raise BenchError(f"traced call failed: {traced['record'].get('error')}")
        layers = dict(traced["layers"])
        layers["io_formats.scene_bytes"] = (scene_bytes, "bytes")
        record["traced"] = traced["record"]
        record["per_layer"] = layers
        record["spans_file"] = str(run_dir / "spans.json")
    (run_dir / "record.json").write_text(json.dumps(record, indent=2) + "\n")
    return record


def report(record: dict, trace: bool) -> str:
    """Readable lines followed by the one-line JSON result."""
    lines = [f"workload {record['workload']} {record['params']}", f"environment {record['environment']}"]
    lines.append(f"scene {record['scene_digest']}  artifacts {record['artifact_digests']}")
    walls = ", ".join(f"{c['wall_s']:.3f}" for c in record["calls"])
    lines.append(f"{len(record['calls'])} untraced calls, raw wall s: {walls}")
    lines.append(f"raw medians (not scaled to the reference speed): {record['raw_medians']}")
    for f in record["failures"]:
        lines.append(f"FAILED: {f}")
    shown = dict(record["end_to_end"])
    if trace:
        shown.update(sorted(record["per_layer"].items()))
    for k, (v, unit) in shown.items():
        value = f"{v:.6g}" if isinstance(v, (int, float)) else repr(v)
        lines.append(f"{k:34s} {value:>16} {unit}")
    metrics = record["per_layer"] if trace else record["end_to_end"]
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    lines.append(json.dumps(result))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument(
        "--seed", type=int, default=0, help="run seed; recorded (each workload's scene seed is pinned)"
    )
    parser.add_argument("--scene-seed", type=int, default=None, help="replace the pinned scene seed (held-out scene)")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "scenemerge" / "__init__.py").is_file():
        print(f"error: {SRC}/scenemerge not found; run from a scenemerge checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    if args.scene_seed is not None:
        wl = replace(wl, scene_seed=args.scene_seed)
    try:
        record = run_benchmark(args.workload, wl, args.seed, args.seconds, bool(args.trace), WORK_DIR)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(report(record, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
