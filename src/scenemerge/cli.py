"""Command-line entry point: synth, plan, align, track, ba, eval, run.

Each stage subcommand reads its interchange artifacts, calls the stage
functions run_pipeline calls (align: align_clusters; track: merged_geometry
and track_scene; ba: merged_geometry, bundle_adjust and write_ba_artifacts),
and writes the stage's artifacts, so any stage can be swapped with an
external tool (including foundation-model outputs dropped into a cluster
directory as its one maps.mrgt file). Exit codes:
0 success, 2 configuration error, 3 data error, 4 numerical divergence.
The MERG3R_LOG environment variable selects the log level (default
WARNING); logs go to stderr so stdout stays machine-readable.

Every PipelineConfig setting has one flag, declared once in SETTING_FLAGS
and added to each subcommand that reads it. The flags default to None, so
PipelineConfig supplies the defaults and checks the bounds for every
subcommand alike.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import fields
from pathlib import Path

from .errors import ConfigError, DataError, DivergenceError
from .io_formats import (
    JSON_FORMAT_VERSION,
    document,
    read_json,
    read_plan,
    read_ply,
    read_pose_map,
    read_tracks,
    read_transforms,
    write_plan,
    write_tracks,
    write_transforms,
)
from .ordering import plan_scene, read_similarity
from .pipeline import (
    PipelineConfig,
    align_clusters,
    bundle_adjust,
    check_plan_matches_clusters,
    evaluate_reconstruction,
    load_scene,
    merged_geometry,
    run_pipeline,
    synthesize_scene_dir,
    track_scene,
    write_ba_artifacts,
)
from .synthetic import PerturbationSpec

LOG_ENV_VAR = "MERG3R_LOG"

logger = logging.getLogger(__name__)


def _configure_logging() -> None:
    name = os.environ.get(LOG_ENV_VAR, "WARNING").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        level=level,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
        force=True,
    )
    if not isinstance(getattr(logging, name, None), int):
        logger.warning("unrecognized %s level %r, using WARNING", LOG_ENV_VAR, name)


def _load_config_file(path) -> dict:
    try:
        return read_json(path, "config")
    except DataError as e:
        raise ConfigError(str(e)) from None


def _pipeline_config(args, file_values: dict | None = None) -> PipelineConfig:
    """PipelineConfig from the flags whose dest is a config field; a flag
    left unset, or absent from the subcommand, keeps the lower layer."""
    overrides = {f.name: getattr(args, f.name, None) for f in fields(PipelineConfig)}
    return PipelineConfig.from_sources(file_values, overrides)


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> None:
    cfg = _pipeline_config(args)
    manifest_path = synthesize_scene_dir(
        args.out,
        seed=args.seed,
        n_cameras=args.cameras,
        n_landmarks=args.landmarks,
        layout=args.layout,
        perturb=PerturbationSpec() if args.perturb == "none" else PerturbationSpec.default(),
        subset_size=cfg.subset_size,
        overlap=cfg.overlap,
        n_subsequences=cfg.n_subsequences,
    )
    print(f"wrote {manifest_path}")


def cmd_plan(args) -> None:
    cfg = _pipeline_config(args)
    plan = plan_scene(read_similarity(args.similarity), cfg.subset_size, cfg.overlap, n_subsequences=cfg.n_subsequences)
    if args.out is None:
        print(json.dumps(document(plan), indent=2))
    else:
        write_plan(args.out, plan)
        print(f"wrote {args.out} ({len(plan.subsets)} subsets of {plan.subset_size})")


def _planned_scene(args):
    """The --clusters scene, checked against the --plan partition."""
    plan = read_plan(args.plan)
    data = load_scene(args.clusters)
    check_plan_matches_clusters(data.clusters, plan)
    return data


def cmd_align(args) -> None:
    records, _ = align_clusters(_planned_scene(args).clusters, _pipeline_config(args).conf_percentile)
    write_transforms(args.out, records)
    print(f"wrote {args.out} ({len(records)} cluster transforms)")


def cmd_track(args) -> None:
    data = _planned_scene(args)
    merged = merged_geometry(data.clusters, read_transforms(args.transforms), args.transforms)
    tracking = track_scene(data, merged, _pipeline_config(args))
    write_tracks(args.out, tracking.tracks)
    print(
        f"wrote {args.out} ({len(tracking.tracks)} tracks from "
        f"{tracking.matcher_invocations} matcher invocations, "
        f"{tracking.failed_edges} failed edges)"
    )


def cmd_ba(args) -> None:
    data = load_scene(args.scene)
    tracks = read_tracks(args.tracks)
    transforms_path = args.transforms or Path(args.tracks).parent / "transforms.json"
    if args.transforms is None and not transforms_path.exists():
        raise DataError(f"{transforms_path} not found; pass --transforms explicitly")
    merged = merged_geometry(data.clusters, read_transforms(transforms_path), transforms_path)
    cfg = _pipeline_config(args).ba_config()
    problem, result, refined_cameras, _, cloud = bundle_adjust(merged, tracks, cfg)
    write_ba_artifacts(args.out, refined_cameras, result, cloud, cfg)
    print(
        f"optimized {problem.n_cameras} cameras over {problem.n_points} tracks: "
        f"loss {result.initial_loss:.6g} -> {result.final_loss:.6g} "
        f"(best iteration {result.best_iteration})"
    )
    print(f"wrote poses_refined.json, ba_loss.csv, merged.ply under {args.out}")


def cmd_eval(args) -> None:
    if (args.pred_cloud is None) != (args.gt_cloud is None):
        raise ConfigError("--pred-cloud and --gt-cloud must be given together")
    est = read_pose_map(args.est)
    gt = read_pose_map(args.gt)
    if sorted(est) != sorted(gt):
        raise DataError(f"{args.est} and {args.gt} cover different frame ids")
    frame_ids = sorted(gt)
    pred_cloud = None if args.pred_cloud is None else read_ply(args.pred_cloud)
    gt_cloud = None if args.gt_cloud is None else read_ply(args.gt_cloud)
    metrics = evaluate_reconstruction(
        [est[f] for f in frame_ids], [gt[f] for f in frame_ids], pred_cloud, gt_cloud
    )
    doc = {"format_version": JSON_FORMAT_VERSION, "n_cameras": len(frame_ids), **metrics}
    print(json.dumps(doc, indent=2))


def cmd_run(args) -> None:
    file_values = _load_config_file(args.config) if args.config is not None else None
    result = run_pipeline(args.scene, _pipeline_config(args, file_values), out_dir=args.out)
    counts = result.report["counts"]
    print(
        f"merged {result.report['n_images']} images in {result.report['n_subsets']} subsets: "
        f"{counts['tracks']} tracks, {counts['ba_observations']} observations, "
        f"{counts['merged_points']} points"
    )
    if result.metrics is not None:
        traj = result.metrics["trajectory"]
        print(f"ATE {traj['ate']:.6g}, AUC@30 {traj['auc_at_30']:.4f}")
    print(f"wrote artifacts under {args.out}")


# ---------------------------------------------------------------------------
# parser


# PipelineConfig field -> (flag, argparse keywords); every flag defaults to
# None, so PipelineConfig supplies the default and checks the bounds.
SETTING_FLAGS = {
    "subset_size": ("--subset-size", {"type": int, "help": "frames per subset"}),
    "overlap": ("--overlap", {"type": int,
                "help": "frames shared by consecutive subsets (at least 1 when there are several)"}),
    "n_subsequences": ("--n-subsequences", {"type": int,
                       "help": "subsequences the pseudo-video is interleaved into; 1 keeps each subset "
                               "contiguous (default: one per subset)"}),
    "conf_percentile": ("--conf-percentile", {"type": float,
                        "help": "percent of overlap pairs dropped, least confident first"}),
    "k": ("--k", {"type": int, "help": "frame-graph neighbor count"}),
    "tau_reproj": ("--tau", {"type": float, "metavar": "TAU", "help": "reprojection gate in pixels"}),
    "max_keypoints": ("--max-keypoints", {"type": int, "help": "matches kept per frame pair"}),
    "ba_iterations": ("--iters", {"type": int, "metavar": "ITERS", "help": "BA iterations"}),
    "ba_lr": ("--lr", {"type": float, "metavar": "LR", "help": "BA initial learning rate"}),
    "lambda_exp": ("--lambda", {"type": float, "metavar": "LAMBDA", "help": "BA robust-loss exponent"}),
}
PLAN_SETTINGS = ("subset_size", "overlap", "n_subsequences")


def _add_settings(parser, names) -> None:
    for name in names:
        flag, kwargs = SETTING_FLAGS[name]
        parser.add_argument(flag, dest=name, default=None, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scenemerge",
        description="Merge per-subset 3D reconstructions into one global scene.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene directory with ground truth")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--cameras", type=int, default=200)
    p.add_argument("--landmarks", type=int, default=5000)
    p.add_argument("--layout", choices=("room", "object"), default="room")
    p.add_argument("--perturb", choices=("none", "default"), default="default")
    _add_settings(p, PLAN_SETTINGS)
    p.add_argument("--out", required=True, help="scene directory to create")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("plan", help="order frames and partition them into subsets")
    p.add_argument("--similarity", required=True, help="similarity matrix tensor file")
    _add_settings(p, PLAN_SETTINGS)
    p.add_argument("--out", default=None, help="plan JSON path (stdout when omitted)")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("align", help="estimate per-cluster Sim(3) transforms")
    p.add_argument("--plan", required=True)
    p.add_argument("--clusters", required=True, help="scene directory with cluster reconstructions")
    _add_settings(p, ("conf_percentile",))
    p.add_argument("--out", required=True, help="transforms JSON path")
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("track", help="build multi-view tracks across clusters")
    p.add_argument("--plan", required=True)
    p.add_argument("--clusters", required=True, help="scene directory with cluster reconstructions")
    p.add_argument("--transforms", required=True)
    _add_settings(p, ("k", "tau_reproj", "max_keypoints"))
    p.add_argument("--out", required=True, help="tracks binary path")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("ba", help="globally bundle-adjust merged cameras and tracks")
    p.add_argument("--scene", required=True, help="scene directory with cluster reconstructions")
    p.add_argument("--tracks", required=True)
    p.add_argument("--transforms", default=None,
                   help="transforms JSON (default: transforms.json next to --tracks)")
    _add_settings(p, ("ba_iterations", "ba_lr", "lambda_exp"))
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_ba)

    p = sub.add_parser("eval", help="trajectory and point-cloud metrics as JSON on stdout")
    p.add_argument("--est", required=True, help="estimated poses JSON")
    p.add_argument("--gt", required=True, help="ground-truth poses JSON")
    p.add_argument("--pred-cloud", default=None, help="predicted point cloud PLY")
    p.add_argument("--gt-cloud", default=None, help="ground-truth point cloud PLY")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("run", help="full pipeline: plan, align, track, ba, eval")
    p.add_argument("--scene", required=True, help="scene directory")
    p.add_argument("--out", required=True, help="artifact output directory")
    p.add_argument("--config", default=None, help="JSON config file (flags take precedence)")
    _add_settings(p, SETTING_FLAGS)
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except DivergenceError as e:
        print(f"error: {e} (iteration {e.iteration})", file=sys.stderr)
        return 4
    except DataError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
