"""Span tracing around the public functions of each scenemerge layer.

A traced run swaps module and class attributes for wrappers that record a
span (id, name, parent, start, end) in memory and note a few facts about
the call's arguments and result. Every wrapper is installed where its
caller looks the function up: ``pipeline`` binds ``run_ba``,
``run_tracking``, ``evaluate_run`` and the rest at import time, while
``run_tracking`` reaches ``build_frame_graph``, ``verify_matches`` and
``merge_tracks`` through the ``tracking`` module. The wrappers only
observe: they pass arguments and results through untouched, so a traced
run must reproduce an untraced run bit for bit.

Spans are nested through a per-thread stack. A span's self time is its
duration minus the union of its children's intervals.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from inspect import getattr_static

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = float("nan")


class Tracer:
    """Spans and per-call observations of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.notes: dict[str, list] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)
        self.wrapped: set[str] = set()
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        s = Span(len(self.spans), name, stack[-1].id if stack else None, time.perf_counter())
        self.spans.append(s)
        stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()

    def wrap(self, name: str, fn, note=None):
        """fn inside a span; note(args, kwargs, result) runs after the span closes."""
        self.wrapped.add(name)

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if note is not None:
                self.notes[name].append(note(args, kwargs, result))
            return result

        return traced

    def count(self, name: str, fn):
        """fn with a call counter and no span, for calls too frequent to time one by one."""

        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def patch(self, owner, attr: str, replacement) -> None:
        """Replace owner.attr until uninstall(); a missing hook point fails loudly."""
        original = getattr_static(owner, attr)  # raises AttributeError if the hook point moved
        self._installed.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[int, float]:
        """span id -> duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))
        out = {}
        for s in self.spans:
            covered, reach = 0.0, s.start
            for a, b in sorted(children[s.id]):
                a = max(a, reach)
                if b > a:
                    covered += b - a
                    reach = b
            out[s.id] = (s.end - s.start) - covered
        return out

    def self_time_by_name(self) -> dict[str, list[float]]:
        st = self.self_times()
        out = defaultdict(list)
        for s in self.spans:
            out[s.name].append(st[s.id])
        return out


def install_hooks(tracer: Tracer) -> None:
    """Wrap every layer's public functions at the place its caller looks them up."""
    from scenemerge import alignment, ba, evaluation, pipeline, tracking

    original_stage = pipeline._stage
    original_matcher_from_scene_dir = pipeline.matcher_from_scene_dir

    @contextmanager
    def traced_stage(name, timings):
        with tracer.span(f"pipeline.{name}"):
            with original_stage(name, timings):
                yield

    def traced_matcher_rebuild(*args, **kwargs):
        with tracer.span("synthetic.matcher_rebuild"):
            matcher = original_matcher_from_scene_dir(*args, **kwargs)
        return tracer.wrap("synthetic.match", matcher, note=lambda a, k, ms: len(ms))

    original_from_tracks = ba.BAProblem.from_tracks  # bound to the class

    wraps = [
        (pipeline, "load_scene", "clusters.load_scene", None),
        (pipeline, "plan_scene", "ordering.plan_scene", lambda a, k, plan: len(plan.subsets)),
        (pipeline, "align_clusters", "alignment.align_clusters", None),
        (pipeline, "extract_overlap_correspondences", "alignment.extract", lambda a, k, c: len(c)),
        (
            pipeline,
            "estimate_sim3_irls",
            "alignment.irls",
            lambda a, k, r: (len(a[0]), r.inlier_count, r.iterations_used),
        ),
        # Both places that build merged geometry construct this class.
        (alignment.MergedGeometry, "__init__", "alignment.merged_geometry", None),
        (pipeline, "run_tracking", "tracking.run_tracking", lambda a, k, r: (r.matcher_invocations, r.failed_edges)),
        (tracking, "build_frame_graph", "tracking.graph", lambda a, k, g: len(g.edges)),
        (tracking, "verify_matches", "tracking.verify", lambda a, k, ms: (len(a[0]), len(ms))),
        (
            tracking,
            "merge_tracks",
            "tracking.merge",
            lambda a, k, tracks: (2 * sum(len(ms) for ms in a[0]), [len(t) for t in tracks]),
        ),
        (pipeline, "run_ba", "ba.run", lambda a, k, r: {"problem_before": a[0], "result": r}),
        (pipeline, "apply_ba_result", "ba.apply", lambda a, k, out: len(out[2].points)),
        (pipeline, "evaluate_run", "evaluation.evaluate_run", None),
        (evaluation, "trajectory_errors", "evaluation.trajectory", None),
        (
            evaluation,
            "pairwise_relative_accuracy",
            "evaluation.pairwise",
            lambda a, k, acc: len(a[0]) * (len(a[0]) - 1) // 2,
        ),
        (pipeline, "point_cloud_distance", "evaluation.cloud", lambda a, k, out: _n_points(a[0]) + _n_points(a[1])),
    ]
    tracer.patch(pipeline, "_stage", traced_stage)
    tracer.patch(pipeline, "matcher_from_scene_dir", traced_matcher_rebuild)
    for owner, attr, name, note in wraps:
        tracer.patch(owner, attr, tracer.wrap(name, getattr(owner, attr), note))
    tracer.patch(
        alignment.MergedGeometry,
        "sample",
        tracer.count("alignment.sample", alignment.MergedGeometry.sample),
    )
    tracer.patch(
        ba.BAProblem,
        "from_tracks",
        staticmethod(tracer.wrap("ba.from_tracks", original_from_tracks, lambda a, k, p: list(a[0]))),
    )


STAGES = ("load", "plan", "align", "track", "ba", "eval")


def _n_points(cloud) -> int:
    return len(getattr(cloud, "points", cloud))


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else float("nan")


def layer_metrics(tracer: Tracer, config, ate_of) -> dict[str, tuple[float, str]]:
    """Per-layer numbers of one traced run_pipeline(scene, config) call.

    Returns name -> (value, unit). Times are span self times summed over
    the run. ate_of(cameras) computes the ATE of a camera list against
    ground truth; it is called here, after the run, outside every span.
    """
    from scenemerge.ba import reprojection_errors

    # A wrapper that never ran means its hook point left the path run_pipeline
    # takes, and the layer's numbers would silently read 0.
    expected = tracer.wrapped | {f"pipeline.{stage}" for stage in STAGES}
    missing = sorted(expected - {s.name for s in tracer.spans})
    if missing:
        raise RuntimeError(f"traced run recorded no span for {missing}; a hook point moved")
    self_s = tracer.self_time_by_name()
    notes = tracer.notes
    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    def put_time(name, span_name):
        put(name, float(sum(self_s[span_name])), "s")

    for stage in STAGES:
        put_time(f"pipeline.{stage}_s", f"pipeline.{stage}")
        wall = sum(s.end - s.start for s in tracer.spans if s.name == f"pipeline.{stage}")
        put(f"pipeline.{stage}_total_s", float(wall), "s")

    put_time("clusters.load_scene_s", "clusters.load_scene")
    put_time("ordering.plan_scene_s", "ordering.plan_scene")
    put("ordering.subsets", notes["ordering.plan_scene"][-1], "count")

    irls = notes["alignment.irls"]
    put_time("alignment.align_clusters_s", "alignment.align_clusters")
    put_time("alignment.extract_s", "alignment.extract")
    put_time("alignment.irls_s", "alignment.irls")
    put("alignment.irls_iters_mean", float(np.mean([it for _, _, it in irls])), "iterations")
    put("alignment.inlier_ratio", _ratio(sum(i for _, i, _ in irls), sum(n for n, _, _ in irls)), "fraction")
    put("alignment.merged_geometry_calls", len(self_s["alignment.merged_geometry"]), "count")
    put_time("alignment.merged_geometry_s", "alignment.merged_geometry")
    put("alignment.sample_calls", tracer.counts["alignment.sample"], "count")

    put_time("synthetic.matcher_rebuild_s", "synthetic.matcher_rebuild")
    put("synthetic.match_calls", len(notes["synthetic.match"]), "count")
    put_time("synthetic.match_s", "synthetic.match")
    put("synthetic.matches_out", int(sum(notes["synthetic.match"])), "count")

    invocations, failed = notes["tracking.run_tracking"][-1]
    offered = sum(a for a, _ in notes["tracking.verify"])
    kept = sum(b for _, b in notes["tracking.verify"])
    keypoints_in, lengths = notes["tracking.merge"][-1]
    lengths = np.asarray(lengths, dtype=np.int64)
    put_time("tracking.run_tracking_s", "tracking.run_tracking")
    put_time("tracking.graph_s", "tracking.graph")
    put("tracking.edges", notes["tracking.graph"][-1], "count")
    put_time("tracking.verify_s", "tracking.verify")
    put("tracking.verify_edge_ms_p50", 1e3 * float(np.median(self_s["tracking.verify"])), "ms")
    put("tracking.verify_pass_rate", _ratio(kept, offered), "fraction")
    put("tracking.failed_edge_rate", _ratio(failed, invocations), "fraction")
    put_time("tracking.merge_s", "tracking.merge")
    put("tracking.tracks", int(len(lengths)), "count")
    put("tracking.track_len_mean", float(lengths.mean()) if len(lengths) else float("nan"), "observations")
    put("tracking.len2_share", _ratio(np.count_nonzero(lengths == 2), len(lengths)), "fraction")
    put("tracking.track_yield", _ratio(lengths.sum(), keypoints_in), "fraction")

    run = notes["ba.run"][-1]
    before, result = run["problem_before"], run["result"]
    iterations = len(result.loss_history) - 1
    n_params = before.n_cameras * (10 if config.ba_config().optimize_intrinsics else 6) + 3 * before.n_points
    err_before, front_before = reprojection_errors(before)
    err_after, front_after = reprojection_errors(result.problem)
    put_time("ba.from_tracks_s", "ba.from_tracks")
    put_time("ba.run_s", "ba.run")
    put_time("ba.apply_s", "ba.apply")
    put("ba.iter_ms", 1e3 * _ratio(m["ba.run_s"][0], iterations), "ms")
    put("ba.observations", before.n_observations, "count")
    put("ba.points", before.n_points, "count")
    put("ba.obs_per_param", _ratio(before.n_observations, n_params), "obs/param")
    put("ba.loss_initial", result.initial_loss, "loss")
    put("ba.loss_best", result.final_loss, "loss")
    put("ba.best_iteration", result.best_iteration, "count")
    put("ba.reproj_px_p50_before", float(np.median(err_before[front_before])), "px")
    put("ba.reproj_px_p50_after", float(np.median(err_after[front_after])), "px")
    put("ba.cloud_points", notes["ba.apply"][-1], "count")
    put("alignment.ate_before_ba", ate_of(notes["ba.from_tracks"][-1]), "scene_units")

    put_time("evaluation.evaluate_run_s", "evaluation.evaluate_run")
    put_time("evaluation.pairwise_s", "evaluation.pairwise")
    put("evaluation.pairs", notes["evaluation.pairwise"][-1], "count")
    put_time("evaluation.trajectory_s", "evaluation.trajectory")
    put_time("evaluation.cloud_s", "evaluation.cloud")
    put("evaluation.cloud_queries", notes["evaluation.cloud"][-1], "count")
    return m
