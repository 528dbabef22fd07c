"""Tests for frame-graph construction, match verification, and tracks."""

import dataclasses
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

import scenemerge
from scenemerge.alignment import (
    MergedGeometry,
    chain_alignments,
    estimate_sim3_irls,
    extract_overlap_correspondences,
)
from scenemerge.clusters import ClusterReconstruction
from scenemerge.errors import ConfigError, DataError, MissingFrameError
from scenemerge.geometry import (
    CameraIntrinsics,
    CameraParams,
    CameraPose,
    Sim3Transform,
    apply_sim3,
    project_points,
)
from scenemerge.ordering import SimilarityMatrix, plan_scene
from scenemerge.synthetic import (
    PerturbationSpec,
    generate_scene,
    render_cluster,
    synthetic_matcher,
    synthetic_similarity,
)
from scenemerge import tracking
from scenemerge.tracking import (
    MatchBlock,
    MatchSet,
    Tracks,
    build_frame_graph,
    merge_tracks,
    run_tracking,
    verify_matches,
)


def _random_similarity(rng, n):
    m = rng.uniform(0.0, 1.0, size=(n, n))
    m = (m + m.T) / 2.0
    np.fill_diagonal(m, 1.0)
    return SimilarityMatrix(m)


def _flat_cluster(frame_ids, depth_value=2.0, conf_values=None, size=8, baseline=0.1):
    """One cluster of identical forward-facing frames with constant depth,
    baseline apart along x."""
    cams, depths, confs = [], [], []
    for idx, fid in enumerate(frame_ids):
        intr = CameraIntrinsics(
            fx=2.0 * size, fy=2.0 * size, cx=size / 2.0, cy=size / 2.0, width=size, height=size
        )
        pose = CameraPose(rotation=np.eye(3), translation=np.array([baseline * idx, 0.0, 0.0]))
        cams.append(CameraParams(intrinsics=intr, pose=pose, frame_id=fid))
        depths.append(np.full((size, size), depth_value, dtype=np.float32))
        c = 1.0 if conf_values is None else conf_values[idx]
        confs.append(np.full((size, size), c, dtype=np.float32))
    return ClusterReconstruction(
        cluster_id=0, frame_ids=list(frame_ids), cameras=cams, depths=depths, confidences=confs
    )


def _merged_flat(frame_ids, **kwargs):
    cluster = _flat_cluster(frame_ids, **kwargs)
    return MergedGeometry([cluster], [Sim3Transform.identity()])


def _pair(fi, fj, pixels):
    """MatchSet from a list of ((u,v) in i, (u,v) in j)."""
    return MatchSet(
        frame_i=fi,
        frame_j=fj,
        pixels_i=np.array([p[0] for p in pixels], dtype=np.float64),
        pixels_j=np.array([p[1] for p in pixels], dtype=np.float64),
    )


def _block(ms, merged):
    """ms as a block of one piece, keyed in merged."""
    return MatchBlock.of([(ms, slice(None))], merged)


def _table(matches, merged):
    """A KeypointTable over merged holding every pair of each match set, one add each."""
    table = tracking.KeypointTable(merged)
    for ms in matches:
        table.add(_block(ms, merged), np.arange(len(ms)))
    return table


def _kept(ms, rows):
    """The match set of the pairs of ms at rows."""
    return MatchSet(ms.frame_i, ms.frame_j, ms.pixels_i[rows], ms.pixels_j[rows])


def _verify(ms, merged, tau_reproj=8.0):
    """The block gate on one match set: its kept rows."""
    return verify_matches(_block(ms, merged), merged, tau_reproj)


def _streamed_kept_rows(match_sets, merged, tau_reproj=8.0):
    """Each match set's kept rows as run_tracking verifies them: its rows
    cut into blocks (tracking._blocks), one gate call per block. Each
    piece's rows are recovered from its block's result by position in the
    stream. The blocks' pieces must hold the match sets' rows and frames,
    in order."""
    blocks = list(tracking._blocks(iter(match_sets), merged, max_keypoints=2**62))
    frames = [np.repeat(b.frames, b.counts, axis=0) for b in blocks]
    frames = np.concatenate([np.empty((0, 2), dtype=np.int64)] + frames)
    sizes = [len(ms) for ms in match_sets]
    want_frames = np.repeat([(ms.frame_i, ms.frame_j) for ms in match_sets], sizes, axis=0).reshape(-1, 2)
    assert frames.tolist() == want_frames.tolist()
    for side in ("pixels_i", "pixels_j"):
        got = np.concatenate([np.empty((0, 2))] + [getattr(b, side) for b in blocks])
        assert got.tobytes() == np.concatenate([np.empty((0, 2))] + [getattr(ms, side) for ms in match_sets]).tobytes()
    kept, offset = [np.empty(0, dtype=np.intp)], 0
    for block in blocks:
        kept.append(tracking.verify_matches(block, merged, tau_reproj) + offset)
        offset += len(block)
    kept, starts = np.concatenate(kept), np.cumsum([0] + sizes)
    bounds = np.searchsorted(kept, starts)
    return [kept[a:b] - first for a, b, first in zip(bounds[:-1], bounds[1:], starts)]


def _per_edge_verify(ms, merged, tau_reproj):
    """The per-edge gate the block gate replaced: each direction lifts the
    rows that can still pass to world points and projects them, the reverse
    only on the forward survivors. Its kept rows."""

    def reprojects(src, pix_src, dst, pix_dst):
        pts, _, valid = merged.sample(src, pix_src)
        rows = np.flatnonzero(valid)
        pts = pts.take(rows, axis=0)
        uv, in_front = project_points(pts, merged.camera(dst))
        rows, uv = rows[in_front], uv.compress(in_front, axis=0)
        du, dv = np.clip(uv - pix_dst.take(rows, axis=0), -2 * tau_reproj, 2 * tau_reproj).T
        return rows[np.sqrt(du * du + dv * dv) <= tau_reproj]

    if len(ms) == 0:
        return np.empty(0, dtype=np.intp)
    keep = reprojects(ms.frame_i, ms.pixels_i, ms.frame_j, ms.pixels_j)
    back = reprojects(ms.frame_j, ms.pixels_j.take(keep, axis=0), ms.frame_i, ms.pixels_i.take(keep, axis=0))
    return keep[back]


def _reference_verify_matches(ms, merged, tau_reproj):
    """Reference gate: both directions on every pair, then AND.

    Returns (kept rows, forward pass mask, reverse pass mask)."""
    passes = []
    for src, pix_src, dst, pix_dst in (
        (ms.frame_i, ms.pixels_i, ms.frame_j, ms.pixels_j),
        (ms.frame_j, ms.pixels_j, ms.frame_i, ms.pixels_i),
    ):
        pts, _, valid = merged.sample(src, pix_src)
        uv, in_front = project_points(pts, merged.camera(dst))
        diff = np.where(np.isfinite(uv), uv, np.inf) - pix_dst
        err = np.linalg.norm(np.clip(diff, -2 * tau_reproj, 2 * tau_reproj), axis=1)
        passes.append(valid & in_front & (err <= tau_reproj))
    forward, reverse = passes
    return np.flatnonzero(forward & reverse), forward, reverse


class _DisjointSet:
    """Array DSU with path compression and union by size."""

    def __init__(self):
        self.parent = []
        self.size = []

    def add(self) -> int:
        self.parent.append(len(self.parent))
        self.size.append(1)
        return len(self.parent) - 1

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]


def _reference_merge_tracks(all_matches, merged):
    """The loop version of merge_tracks: union-find over interned keypoints,
    one merged.sample call per (track, frame), one fusion per track. Tracks
    come out in the order of their union-find root, each as (point,
    confidence, [(frame, pixel), ...])."""
    dsu = _DisjointSet()
    node_of = {}
    node_frame = []
    node_pixel = []

    def intern(frame_id, uv):
        key = (frame_id, int(round(uv[0])), int(round(uv[1])))
        idx = node_of.get(key)
        if idx is None:
            idx = dsu.add()
            node_of[key] = idx
            node_frame.append(frame_id)
            node_pixel.append(uv)
        return idx

    for ms in all_matches:
        for a, b in zip(ms.pixels_i, ms.pixels_j):
            dsu.union(intern(ms.frame_i, a), intern(ms.frame_j, b))

    components = {}
    for idx in range(len(node_frame)):
        components.setdefault(dsu.find(idx), []).append(idx)

    tracks = []
    for root in sorted(components):
        nodes = components[root]
        if len(nodes) < 2:
            continue
        frames = [node_frame[i] for i in nodes]
        if len(set(frames)) != len(frames):
            continue
        order = np.argsort(frames, kind="stable")
        obs_frames = [frames[i] for i in order]
        pixels = np.array([node_pixel[nodes[i]] for i in order])
        pts = np.full((len(nodes), 3), np.nan)
        confs = np.zeros(len(nodes))
        ok = np.zeros(len(nodes), dtype=bool)
        for fid in set(obs_frames):
            rows = [i for i, f in enumerate(obs_frames) if f == fid]
            p, c, valid = merged.sample(fid, pixels[rows])
            pts[rows], confs[rows], ok[rows] = p, c, valid
        if ok.sum() < 2:
            continue
        pts, confs = pts[ok], confs[ok]
        kept = [i for i, good in enumerate(ok) if good]
        total = confs.sum()
        if total > 0:
            fused = (confs[:, None] * pts).sum(axis=0) / total
        else:
            fused = pts.mean(axis=0)
        tracks.append((fused, float(total / len(pts)), [(obs_frames[i], pixels[i].copy()) for i in kept]))
    return tracks


def _reference_intern_keypoints(all_matches):
    """The global-key version of tracking.KeypointTable's interning: one
    interleaved table of every keypoint, each keyed by the mixed-radix int64
    (frame index, rounded row, rounded column) over the whole table's span,
    then one np.unique. Returns (int32 node of every table row, first table
    row, frame and subpixel coordinate of every node)."""
    lo = np.rint(np.min([np.minimum(ms.pixels_i.min(axis=0), ms.pixels_j.min(axis=0)) for ms in all_matches], axis=0))
    hi = np.rint(np.max([np.maximum(ms.pixels_i.max(axis=0), ms.pixels_j.max(axis=0)) for ms in all_matches], axis=0))
    frame_ids = sorted({f for ms in all_matches for f in (ms.frame_i, ms.frame_j)})
    w, h = (hi - lo + 1).astype(np.int64).tolist()
    frame_index = {f: i for i, f in enumerate(frame_ids)}
    key = np.empty(2 * sum(len(ms) for ms in all_matches), dtype=np.int64)
    pixels = np.empty((len(key), 2))
    start = 0
    for ms in all_matches:
        for side, fid, px in ((0, ms.frame_i, ms.pixels_i), (1, ms.frame_j, ms.pixels_j)):
            u, v = (np.rint(px).astype(np.int64) - lo.astype(np.int64)).T
            key[start + side : start + 2 * len(ms) : 2] = (frame_index[fid] * h + v) * w + u
            pixels[start + side : start + 2 * len(ms) : 2] = px
        start += 2 * len(ms)
    uniq, first, node = np.unique(key, return_index=True, return_inverse=True)
    return node.astype(np.int32), first, np.asarray(frame_ids)[uniq // (w * h)], pixels[first]


def _track_list(tracks):
    """A Tracks table in the reference's form: per track (point,
    confidence, [(frame, pixel), ...])."""
    return [
        (tracks.points[i], tracks.confidences[i], [(int(tracks.frames[r]), tracks.pixels[r]) for r in rows])
        for i, rows in enumerate(tracks)
    ]


def _frames(tracks):
    """Each track's frame ids, in track order."""
    return [tracks.frames[rows].tolist() for rows in tracks]


def _track_bits(track):
    """A (point, confidence, observations) track as bytes, bit for bit."""
    point, confidence, observations = track
    obs = tuple((int(f), np.asarray(uv, dtype=np.float64).tobytes()) for f, uv in observations)
    return np.asarray(point).tobytes(), np.float64(confidence).tobytes(), obs


def _two_tracks(**changes):
    """A valid two-track table (lengths 2 and 3), with fields replaced by changes."""
    fields = dict(
        points=[[0.0, 0.0, 1.0], [1.0, 0.0, 2.0]],
        confidences=[1.0, 0.5],
        lengths=[2, 3],
        frames=[0, 1, 0, 1, 2],
        pixels=[[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0], [5.0, 5.0]],
    )
    return Tracks(**{**fields, **changes})


class TestMatchSetAndTrack:
    def test_match_set_rejects_self_edge(self):
        with pytest.raises(ConfigError):
            MatchSet(frame_i=1, frame_j=1, pixels_i=np.zeros((1, 2)), pixels_j=np.zeros((1, 2)))

    def test_match_set_rejects_count_mismatch(self):
        with pytest.raises(DataError, match=r"^match set \(0, 1\): pixels \(2, 2\) and \(3, 2\), not \(N, 2\)$"):
            MatchSet(frame_i=0, frame_j=1, pixels_i=np.zeros((2, 2)), pixels_j=np.zeros((3, 2)))

    @pytest.mark.parametrize(
        "shape_i, shape_j, bad",
        [
            ((2, 3), (3, 2), r"\(2, 3\) and \(3, 2\)"),  # six values each, read as 3 pairs
            ((3, 2), (6,), r"\(3, 2\) and \(6,\)"),
            ((3, 2, 1), (3, 2), r"\(3, 2, 1\) and \(3, 2\)"),
            ((0,), (0, 2), r"\(0,\) and \(0, 2\)"),
        ],
    )
    def test_match_set_rejects_pixels_not_shaped_n_by_2(self, shape_i, shape_j, bad):
        """A pixel array not shaped (N, 2) fails with a DataError naming both
        frames, instead of being re-read as pairs."""
        pixels_i = np.arange(np.prod(shape_i), dtype=np.float64).reshape(shape_i)
        pixels_j = np.arange(np.prod(shape_j), dtype=np.float64).reshape(shape_j)
        with pytest.raises(DataError, match=rf"^match set \(4, 9\): pixels {bad}, not \(N, 2\)$"):
            MatchSet(frame_i=4, frame_j=9, pixels_i=pixels_i, pixels_j=pixels_j)

    def test_match_set_rejects_non_finite_pixels(self):
        with pytest.raises(DataError, match=r"match set \(3, 5\) row 1 holds a non-finite pixel"):
            MatchSet(frame_i=3, frame_j=5, pixels_i=[[1.0, 1.0], [np.nan, 1.0]], pixels_j=[[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(DataError, match="row 0"):
            MatchSet(frame_i=0, frame_j=1, pixels_i=[[1.0, 1.0]], pixels_j=[[np.inf, 1.0]])

    def test_track_requires_two_observations(self):
        with pytest.raises(DataError, match="track 1 has 1 observations"):
            _two_tracks(lengths=[4, 1], frames=[0, 1, 2, 3, 0])
        with pytest.raises(DataError, match="track 0 has 0 observations"):
            _two_tracks(lengths=[0, 5], frames=[0, 1, 2, 3, 4])

    def test_track_rejects_duplicate_frame(self):
        with pytest.raises(DataError, match="track 1 observes frame 0 twice"):
            _two_tracks(frames=[0, 1, 0, 2, 0])
        _two_tracks(frames=[1, 0, 2, 0, 1])  # distinct frames in any order are fine

    def test_track_rejects_negative_confidence(self):
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(DataError, match="track 1 confidence must be finite and >= 0"):
                _two_tracks(confidences=[1.0, bad])

    def test_tracks_reject_non_finite_point_and_pixel(self):
        with pytest.raises(DataError, match="track 1 point must be finite"):
            _two_tracks(points=[[0.0, 0.0, 1.0], [np.inf, 0.0, 2.0]])
        with pytest.raises(DataError, match="track 1 holds a non-finite pixel"):
            _two_tracks(pixels=[[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, np.nan], [5.0, 5.0]])

    def test_tracks_reject_mismatched_arrays(self):
        with pytest.raises(DataError, match="2 points, 1 confidences and 2 lengths"):
            _two_tracks(confidences=[1.0])
        with pytest.raises(DataError, match="holding 5 observations, 4 frames, 5 pixels"):
            _two_tracks(frames=[0, 1, 0, 1])

    def test_tracks_len_and_iteration(self):
        """len() counts tracks; iterating yields each track's observation rows."""
        tracks = _two_tracks()
        assert len(tracks) == 2
        assert [list(rows) for rows in tracks] == [[0, 1], [2, 3, 4]]
        assert [len(rows) for rows in tracks] == [2, 3]
        np.testing.assert_array_equal(tracks.track_indices, [0, 0, 1, 1, 1])
        assert len(Tracks([], [], [], [], [])) == 0


class TestBuildFrameGraph:
    def test_two_frames_one_edge(self):
        m = SimilarityMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
        g = build_frame_graph(m, k=1)
        assert g.edges == [(0, 1)]

    def test_edge_count_bounds_and_degrees(self):
        """n=10, k=3: between ceil(30/2)=15 and 30 edges, degree >= 3."""
        for seed in range(50):
            m = _random_similarity(np.random.default_rng(seed), 10)
            g = build_frame_graph(m, k=3)
            assert 15 <= len(g) <= 30
            assert np.bincount(np.ravel(g.edges), minlength=10).min() >= 3

    def test_linear_scaling(self):
        """Edge count stays within k*n and doubles with n."""
        counts = {}
        for n in (100, 200, 400):
            m = _random_similarity(np.random.default_rng(1), n)
            g = build_frame_graph(m, k=5)
            assert len(g) <= 5 * n
            assert len(g) >= int(np.ceil(5 * n / 2))
            counts[n] = len(g)
        assert 1.8 < counts[200] / counts[100] < 2.2
        assert 1.8 < counts[400] / counts[200] < 2.2

    def test_deterministic(self):
        m = _random_similarity(np.random.default_rng(5), 20)
        assert build_frame_graph(m, 4).edges == build_frame_graph(m, 4).edges

    def test_rejects_bad_k(self):
        m = _random_similarity(np.random.default_rng(0), 5)
        for bad in (0, 5, 7):
            with pytest.raises(ConfigError):
                build_frame_graph(m, bad)


class TestVerifyMatches:
    def _scene_geometry(self, seed=2, n_cameras=10, n_landmarks=2000, image_size=(64, 48)):
        scene = generate_scene(
            seed=seed, n_cameras=n_cameras, n_landmarks=n_landmarks, layout="room", image_size=image_size
        )
        cluster, _ = render_cluster(scene, list(range(n_cameras)), PerturbationSpec())
        merged = MergedGeometry([cluster], [Sim3Transform.identity()])
        return scene, merged

    def test_perfect_matches_fully_retained(self):
        """Exact projected landmarks survive tau=8 at 100%."""
        scene, merged = self._scene_geometry()
        ms = synthetic_matcher(scene, PerturbationSpec())(1, 2)
        kept = _verify(ms, merged)
        assert len(kept) == len(ms) > 0

    def test_huge_finite_pixel_dropped_without_warning(self):
        """A finite pixel far outside the map fails verification without
        overflowing the integer cast or the error norm (a warning is an
        error here)."""
        ms = _pair(
            0, 1, [((2.0, 2.0), (2.0, 2.0)), ((1e300, 3.0), (2.0, 2.0)), ((2.0, 2.0), (3.0, -1e300))]
        )
        kept = _verify(ms, _merged_flat([0, 1]))
        assert kept.dtype.kind == "i" and kept.tolist() == [0]

    def test_offset_matches_fully_rejected(self):
        """Shifting image-j pixels by 20 px kills every pair at tau=8."""
        scene, merged = self._scene_geometry()
        ms = synthetic_matcher(scene, PerturbationSpec())(1, 2)
        shifted = MatchSet(
            frame_i=1, frame_j=2, pixels_i=ms.pixels_i, pixels_j=ms.pixels_j + [20.0, 0.0]
        )
        assert len(_verify(shifted, merged)) == 0

    def test_outlier_rejection_rate(self):
        """80 true + 20 uniform-random pairs on 640x480: true all kept,
        >= 18 of 20 random rejected (probed: 20/20 across seeds)."""
        scene, merged = self._scene_geometry(
            seed=3, n_cameras=6, n_landmarks=20000, image_size=(640, 480)
        )
        full = synthetic_matcher(scene, PerturbationSpec())(2, 3)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            pick = rng.choice(len(full), size=80, replace=False)
            rnd_i = rng.uniform([0, 0], [639, 479], size=(20, 2))
            rnd_j = rng.uniform([0, 0], [639, 479], size=(20, 2))
            mixed = MatchSet(
                frame_i=2,
                frame_j=3,
                pixels_i=np.concatenate([full.pixels_i[pick], rnd_i]),
                pixels_j=np.concatenate([full.pixels_j[pick], rnd_j]),
            )
            kept = _verify(mixed, merged)
            kept_set = {tuple(p) for p in mixed.pixels_i[kept]}
            assert sum(tuple(p) in kept_set for p in full.pixels_i[pick]) == 80
            assert sum(tuple(p) in kept_set for p in rnd_i) <= 2

    def test_invalid_depth_rejects_pair(self):
        """A pair whose source pixel has zero depth cannot verify."""
        flat = _flat_cluster([0, 1])
        hole = np.where(np.arange(8)[None, :] < 4, 0.0, 2.0).astype(np.float32) * np.ones((8, 8), dtype=np.float32)
        cluster = dataclasses.replace(flat, depths=[hole, flat.depths[1]])
        merged = MergedGeometry([cluster], [Sim3Transform.identity()])
        ms = _pair(0, 1, [(((2.0, 2.0)), (2.0, 2.0)), ((6.0, 6.0), (4.4, 6.0))])
        assert _verify(ms, merged).tolist() == [1]

    def test_pair_order_invariance(self):
        scene, merged = self._scene_geometry()
        ms = synthetic_matcher(scene, PerturbationSpec(match_pixel_noise_sigma=2.0))(1, 2)
        perm = np.random.default_rng(0).permutation(len(ms))
        shuffled = MatchSet(frame_i=1, frame_j=2, pixels_i=ms.pixels_i[perm], pixels_j=ms.pixels_j[perm])
        a = _verify(ms, merged)
        b = _verify(shuffled, merged)
        assert sorted(perm[b].tolist()) == a.tolist()

    def test_every_rejection_branch_matches_reference(self):
        """On one hand-built edge the gate keeps the rows that the reference
        (both directions on every row, NaN rows guarded) and the per-edge
        gate keep, and each row fails where it is built to, in each
        direction of the gate alone. Frame 1 sits 1 unit ahead of frame 0
        on the optical axis with half its depth, so a depth-2 pixel (u, v)
        of frame 0 lands at (2u - 4, 2v - 4) in frame 1 and back."""
        intr = CameraIntrinsics(fx=16.0, fy=16.0, cx=4.0, cy=4.0, width=8, height=8)
        cams = [
            CameraParams(intr, CameraPose(np.eye(3), np.array([0.0, 0.0, -dz])), fid)
            for fid, dz in ((0, 0.0), (1, 1.0))
        ]
        depth0 = np.full((8, 8), 2.0, dtype=np.float32)
        depth0[2, 2] = 0.0  # hole
        depth0[6, 1] = 0.5  # lifts behind frame 1
        depth1 = np.full((8, 8), 1.0, dtype=np.float32)
        depth1[4, 0] = 0.2  # lifts back to (3.33, 4), 1.33 px off
        depth1[4, 4] = 0.0  # hole; a depth-0 lift would land at (4, 4) in frame 0
        cluster = ClusterReconstruction(
            cluster_id=0,
            frame_ids=[0, 1],
            cameras=cams,
            depths=[depth0, depth1],
            confidences=[np.ones((8, 8), dtype=np.float32)] * 2,
        )
        merged = MergedGeometry([cluster], [Sim3Transform.identity()])
        rows = [
            ((5.0, 5.0), (6.0, 6.0)),  # 0 passes
            ((3.0, 3.0), (2.0, 2.0)),  # 1 passes
            ((9.0, 3.0), (14.0, 2.0)),  # 2 i outside the map
            ((-1.0, 3.0), (-6.0, 2.0)),  # 3 i at the -1 clip edge
            ((3.0, 8.0), (2.0, 12.0)),  # 4 i at the height clip edge
            ((-0.5, 3.0), (-5.0, 2.0)),  # 5 i rounds into the map; j at (-5, 2) does not
            ((6.0, 3.0), (8.0, 2.0)),  # 6 j at the width clip edge
            ((2.0, 2.0), (0.0, 0.0)),  # 7 i has zero depth
            ((1.0, 6.0), (2.0, 8.0)),  # 8 i lifts behind frame 1
            ((1e300, 3.0), (2.0, 2.0)),  # 9 huge i
            ((3.0, 3.0), (2.0, -1e300)),  # 10 huge j
            ((5.0, 5.0), (7.5, 6.0)),  # 11 1.5 px off forward
            ((2.0, 4.0), (0.0, 4.0)),  # 12 1.33 px off in reverse
            ((4.0, 4.0), (4.0, 4.0)),  # 13 j has zero depth
            ((1.0, 6.0), (7.0, 2.0)),  # 14 behind frame 1, whose division by -z puts it on its partner
        ]
        ms = _pair(0, 1, rows)
        kept = _verify(ms, merged, 1.0)
        reference, forward, reverse = _reference_verify_matches(ms, merged, 1.0)
        assert kept.tolist() == reference.tolist() == _per_edge_verify(ms, merged, 1.0).tolist() == [0, 1]
        assert np.flatnonzero(~forward).tolist() == [2, 3, 4, 7, 8, 9, 10, 11, 14]
        assert np.flatnonzero(forward & ~reverse).tolist() == [5, 6, 12, 13]
        # each direction of the block gate alone, on every row
        block, (row_0, row_1) = _block(ms, merged), merged.table_rows([0, 1])
        for src, keys, pix_src, dst, pix_dst, want in (
            ([row_0], block.keys[:, 0], block.pixels_i, [row_1], block.pixels_j, forward),
            ([row_1], block.keys[:, 1], block.pixels_j, [row_0], block.pixels_i, reverse),
        ):
            passed = tracking._passes(merged, block.counts, np.array(src), keys, pix_src, np.array(dst), pix_dst, 1.0)
            assert passed.tolist() == np.flatnonzero(want).tolist()

    def test_rejects_bad_tau(self):
        merged = _merged_flat([0, 1])
        ms = _pair(0, 1, [((2.0, 2.0), (2.0, 2.0))])
        for bad in (0.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="tau_reproj"):
                _verify(ms, merged, bad)


class TestMergeTracks:
    def test_transitive_union_forms_one_track(self):
        """Pairs (A,B) and (B,C) over frames 0,1,2 chain into length 3."""
        merged = _merged_flat([0, 1, 2])
        matches = [
            _pair(0, 1, [((1.0, 1.0), (2.0, 1.0))]),
            _pair(1, 2, [((2.0, 1.0), (3.0, 4.0))]),
        ]
        tracks = merge_tracks(_table(matches, merged), merged)
        assert len(tracks) == 1
        assert _frames(tracks) == [[0, 1, 2]]

    def test_equal_confidence_fusion_is_midpoint(self):
        """Equal weights: fused = (p+q)/2 and C equals that confidence."""
        merged = _merged_flat([0, 1], conf_values=[0.7, 0.7])
        pa, pb = (1.0, 1.0), (5.0, 3.0)
        tracks = merge_tracks(_table([_pair(0, 1, [(pa, pb)])], merged), merged)
        assert len(tracks) == 1
        p, _, _ = merged.sample(0, np.array([pa]))
        q, _, _ = merged.sample(1, np.array([pb]))
        assert np.allclose(tracks.points[0], (p[0] + q[0]) / 2.0, atol=1e-12)
        assert abs(tracks.confidences[0] - np.float32(0.7)) < 1e-7

    def test_weighted_fusion_hand_values(self):
        """Confidences 3 and 1: fused = p + 0.25 (q - p), C = (3+1)/2 = 2.

        Mirrors the hand-evaluated case of points (0,0,0) and (1,0,0)
        fusing to (0.25, 0, 0) with confidence 2.
        """
        merged = _merged_flat([0, 1], conf_values=[3.0, 1.0])
        pa, pb = (2.0, 2.0), (6.0, 5.0)
        tracks = merge_tracks(_table([_pair(0, 1, [(pa, pb)])], merged), merged)
        p, _, _ = merged.sample(0, np.array([pa]))
        q, _, _ = merged.sample(1, np.array([pb]))
        assert np.allclose(tracks.points[0], p[0] + 0.25 * (q[0] - p[0]), atol=1e-12)
        assert abs(tracks.confidences[0] - 2.0) < 1e-7

    def test_ambiguous_same_frame_component_discarded(self):
        """Two distinct frame-0 keypoints in one component drop the track."""
        merged = _merged_flat([0, 1])
        matches = [
            _pair(0, 1, [((1.0, 1.0), (4.0, 4.0))]),
            _pair(0, 1, [((6.0, 6.0), (4.0, 4.0))]),
        ]
        assert len(merge_tracks(_table(matches, merged), merged)) == 0

    def test_min_track_len(self):
        """A track needs 2 valid samples: a three-frame chain is kept whole,
        a pair whose second pixel lies in the image at zero depth is
        dropped."""
        cluster = _flat_cluster([0, 1, 2])
        cluster.depths[1, 1, 7] = 0.0  # pixel (7, 1) of frame 1
        merged = MergedGeometry([cluster], [Sim3Transform.identity()])
        matches = [
            _pair(0, 1, [((1.0, 1.0), (2.0, 1.0))]),
            _pair(1, 2, [((2.0, 1.0), (3.0, 4.0))]),
        ]
        assert merge_tracks(_table(matches, merged), merged).lengths.tolist() == [3]
        assert not merged.sample(1, np.array([[7.0, 1.0]]))[2][0]
        assert len(merge_tracks(_table([_pair(0, 1, [((1.0, 1.0), (7.0, 1.0))])], merged), merged)) == 0

    def test_non_finite_pixel_rejected(self):
        merged = _merged_flat([0, 1])
        with pytest.raises(DataError, match="finite"):
            merge_tracks(_table([_pair(0, 1, [((1.0, 1.0), (2.0, 2.0)), ((np.nan, 3.0), (4.0, 4.0))])], merged), merged)

    def test_intern_matches_global_key_reference(self, monkeypatch):
        """A KeypointTable interns the keypoints one global key over the
        whole table does: its ids number them in the order of their unique
        first table rows, with the same frames and kept subpixel
        coordinates, and each keypoint's root is the smallest id of its
        component among scipy's connected components over the reference's
        pairs, whether it interns once or flushes every 7 rows. The table
        has unsorted sparse frame ids, frames on both sides of a pair,
        half-pixel ties and pixels on the images' borders."""
        rng = np.random.default_rng(21)
        frame_ids = [40, 3, 17, 8, 25, 11]
        merged = _merged_flat(frame_ids, size=48)
        shift = {f: rng.uniform(6.5, 40.5, size=2) for f in frame_ids}
        matches = []
        for _ in range(60):
            fi, fj = (int(f) for f in rng.choice(frame_ids, size=2, replace=False))
            n = int(rng.integers(1, 40))
            pi = np.round(rng.uniform(-6.0, 6.0, (n, 2)) * 2) / 2 + np.round(shift[fi])
            pj = rng.uniform(-6.0, 6.0, (n, 2)) + shift[fj]
            matches.append(MatchSet(fi, fj, pi, pj))
        matches.append(_pair(3, 40, [((0.0, 47.0), (47.0, 0.0)), ((-0.5, 46.5), (47.4, -0.5))]))  # the borders
        rounded = np.rint(np.concatenate([px for ms in matches for px in (ms.pixels_i, ms.pixels_j)]))
        assert rounded.min() == 0 and rounded.max() == 47
        node, first, frames, pixels = _reference_intern_keypoints(matches)
        n_nodes = len(first)
        assert n_nodes < len(node)  # rows share nodes
        graph = csr_matrix((np.ones(len(node) // 2), (node[0::2], node[1::2])), shape=(n_nodes, n_nodes))
        n_comp, component = connected_components(graph, directed=False)
        assert 1 < n_comp < n_nodes

        order = np.argsort(first)  # the reference's nodes in first-row order: the table's ids
        smallest = np.full(n_comp, n_nodes)  # the smallest id in each component
        np.minimum.at(smallest, component.take(order), np.arange(n_nodes))
        expected = (frames[order], pixels[order], smallest[component].take(order).astype(np.int32))
        for flush_rows in (tracking._FLUSH_ROWS, 7):
            monkeypatch.setattr(tracking, "_FLUSH_ROWS", flush_rows)
            table = _table(matches, merged)
            assert [len(pairs) for pairs in table] == [len(ms) for ms in matches]
            assert table.n_pairs == len(node) // 2
            got = table.keypoints()
            assert table.n_keypoints == n_nodes
            assert [a.dtype for a in got] == [np.int64, np.float64, np.int32]
            for a, b in zip(got, expected):
                assert a.tobytes() == b.tobytes()
            with pytest.raises(ConfigError, match="handed over"):
                table.add(_block(matches[0], merged), np.arange(len(matches[0])))
            with pytest.raises(ConfigError, match="handed over"):
                table.keypoints()

    def test_merge_memory_bounded_by_input(self, traced_peak):
        """Building a table of ~200k pairs and merging it allocates at most
        twice the bytes of the input pixels at its peak (a global key, a
        stable sort over every keypoint and an interleaved pixel table took
        3.1x)."""
        rng = np.random.default_rng(12)
        n_frames, size = 100, 64
        merged = _merged_flat(list(range(n_frames)), size=size)
        keypoints = rng.uniform(-0.5, size - 0.5, (n_frames, 300, 2))
        matches = []
        for _ in range(1000):
            fi, fj = rng.choice(n_frames, size=2, replace=False)
            rows_i, rows_j = rng.integers(0, 300, (2, 200))
            matches.append(MatchSet(int(fi), int(fj), keypoints[fi, rows_i], keypoints[fj, rows_j]))
        input_bytes = sum(ms.pixels_i.nbytes + ms.pixels_j.nbytes for ms in matches)
        _, peak = traced_peak(lambda: merge_tracks(_table(matches, merged), merged))
        assert peak <= 2.0 * input_bytes, f"peak {peak / input_bytes:.2f}x the input pixel bytes"

    def test_merge_sort_key_holds_no_index_copy(self, traced_peak):
        """merge_tracks over 204,800 keypoints peaks (tracemalloc) below 47
        bytes per keypoint: the 28 bytes the table hands over, the int64
        sort order, and under 10 more while it gathers the roots and frames
        into track order one at a time and marks the ambiguous components.
        Sorting by each component's first table row, handed over as 8 more
        bytes per keypoint and reduced per root in the merge, read 49.1.
        Pixel p of frame 0 matches pixels p and p + 1 of frame 1, so one
        chain holds frame 1 many times and is dropped: fusion allocates
        nothing and the peak comes before it."""
        size = 320
        merged = _merged_flat([0, 1], size=size, baseline=0.0)
        v, u = np.mgrid[0:size, 0:size]
        pixels = np.stack([u.ravel(), v.ravel()], axis=1).astype(np.float64)
        table = tracking.KeypointTable(merged)
        table.add(_block(MatchSet(0, 1, pixels, pixels), merged), np.arange(len(pixels)))
        table.add(_block(MatchSet(0, 1, pixels[:-1], pixels[1:]), merged), np.arange(len(pixels) - 1))
        tracks, peak = traced_peak(lambda: merge_tracks(table, merged))
        assert table.n_keypoints == 2 * size * size >= 200_000 and len(tracks) == 0
        per_keypoint = peak / table.n_keypoints
        assert per_keypoint < 47, f"peak {per_keypoint:.1f} bytes per keypoint"

    def test_subpixel_coordinates_share_rounded_node(self):
        """(1.4, 1.4) and (0.6, 0.6) both round to pixel (1, 1)."""
        merged = _merged_flat([0, 1, 2])
        matches = [
            _pair(0, 1, [((1.4, 1.4), (3.0, 3.0))]),
            _pair(0, 2, [((0.6, 0.6), (5.0, 5.0))]),
        ]
        tracks = merge_tracks(_table(matches, merged), merged)
        assert list(tracks.lengths) == [3]
        obs = dict(_track_list(tracks)[0][2])
        assert np.allclose(obs[0], [1.4, 1.4])

    def test_fused_point_and_confidence_bounds(self):
        """Fused confidence within member range; point inside member bbox."""
        rng = np.random.default_rng(6)
        frames = list(range(6))
        conf_values = rng.uniform(0.2, 2.0, size=6)
        merged = _merged_flat(frames, conf_values=list(conf_values))
        matches = []
        for f in range(5):
            px = tuple(rng.uniform(0.0, 7.0, size=2))
            qx = tuple(rng.uniform(0.0, 7.0, size=2))
            matches.append(_pair(f, f + 1, [(px, qx)]))
        tracks = merge_tracks(_table(matches, merged), merged)
        for point, confidence, observations in _track_list(tracks):
            member_pts = []
            member_confs = []
            for f, uv in observations:
                p, c, _ = merged.sample(f, np.array([uv]))
                member_pts.append(p[0])
                member_confs.append(c[0])
            member_pts = np.array(member_pts)
            assert min(member_confs) - 1e-9 <= confidence <= max(member_confs) + 1e-9
            assert np.all(point >= member_pts.min(axis=0) - 1e-9)
            assert np.all(point <= member_pts.max(axis=0) + 1e-9)

    def test_dsu_matches_brute_force_components(self):
        """Partition equals BFS connected components with the same rules."""
        rng = np.random.default_rng(7)
        n_frames, size = 12, 16
        merged = _merged_flat(list(range(n_frames)), size=size)
        matches = []
        adjacency = {}
        for _ in range(300):
            fi, fj = sorted(rng.choice(n_frames, size=2, replace=False))
            pi = tuple(float(x) for x in rng.integers(0, size, size=2))
            pj = tuple(float(x) for x in rng.integers(0, size, size=2))
            matches.append(_pair(int(fi), int(fj), [(pi, pj)]))
            a, b = (int(fi), pi), (int(fj), pj)
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set()).add(a)

        # brute force: BFS components, drop same-frame-duplicate or short ones
        seen = set()
        expected = set()
        for start in adjacency:
            if start in seen:
                continue
            comp, queue = [], [start]
            seen.add(start)
            while queue:
                node = queue.pop()
                comp.append(node)
                for nxt in adjacency[node]:
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append(nxt)
            frames = [f for f, _ in comp]
            if len(comp) >= 2 and len(set(frames)) == len(frames):
                expected.add(frozenset(comp))

        got = set()
        for _, _, observations in _track_list(merge_tracks(_table(matches, merged), merged)):
            got.add(frozenset((f, (float(uv[0]), float(uv[1]))) for f, uv in observations))
        assert got == expected


    def test_tracks_in_first_seen_order(self):
        """Tracks are ordered by their first keypoint in the table, which is
        their union-find root. The 5-frame component starts with the very
        first keypoint; the reference's union by size roots it at a later
        pair's keypoint, so its root order puts the 2-frame component
        first."""
        merged = _merged_flat(list(range(5)))
        matches = [
            _pair(0, 1, [((1.0, 1.0), (2.0, 2.0))]),
            _pair(0, 1, [((5.0, 5.0), (6.0, 6.0))]),
            _pair(2, 3, [((1.0, 1.0), (2.0, 2.0))]),
            _pair(3, 4, [((2.0, 2.0), (3.0, 3.0))]),
            _pair(0, 4, [((1.0, 1.0), (3.0, 3.0))]),
        ]
        tracks = merge_tracks(_table(matches, merged), merged)
        assert _frames(tracks) == [[0, 1, 2, 3, 4], [0, 1]]
        assert [tuple(tracks.pixels[rows[0]]) for rows in tracks] == [(1.0, 1.0), (5.0, 5.0)]
        reference = _reference_merge_tracks(matches, merged)
        assert [[f for f, _ in obs] for _, _, obs in reference] == [[0, 1], [0, 1, 2, 3, 4]]
        assert sorted(map(_track_bits, _track_list(tracks))) == sorted(map(_track_bits, reference))

    def test_empty_match_sets_add_nothing(self):
        """A match set that lost every pair (on frames no other set touches)
        neither fails the merge nor changes its tracks."""
        merged = _merged_flat(list(range(6)))
        empty = np.zeros((0, 2))
        matches = [
            MatchSet(frame_i=4, frame_j=5, pixels_i=empty, pixels_j=empty),
            _pair(0, 1, [((1.0, 1.0), (2.0, 2.0))]),
            MatchSet(frame_i=2, frame_j=3, pixels_i=empty, pixels_j=empty),
        ]
        tracks = merge_tracks(_table(matches, merged), merged)
        assert _frames(tracks) == [[0, 1]]
        reference = _reference_merge_tracks(matches, merged)
        assert list(map(_track_bits, _track_list(tracks))) == list(map(_track_bits, reference))
        assert len(merge_tracks(_table(matches[::2], merged), merged)) == 0

    def test_empty_and_rejected_pieces_add_nothing(self):
        """Empty match sets make no piece of any block, a piece whose rows
        all fail leaves nothing pending, and a block with no kept row adds
        no pair and no range: the table holds what a table of the kept
        pieces alone holds."""
        empty = MatchSet(4, 5, np.zeros((0, 2)), np.zeros((0, 2)))
        merged = _merged_flat(list(range(6)))
        assert list(tracking._blocks(iter([empty, empty]), merged, 4096)) == []
        sets = [
            _pair(0, 1, [((1.0, 1.0), (2.0, 2.0)), ((3.0, 3.0), (4.0, 4.0))]),
            empty,
            _pair(2, 3, [((5.0, 5.0), (6.0, 6.0))]),
            _pair(1, 2, [((2.0, 2.0), (5.0, 5.0)), ((7.0, 7.0), (1.0, 1.0))]),
        ]
        (block,) = tracking._blocks(iter(sets), merged, 4096)
        assert block.frames.tolist() == [[0, 1], [2, 3], [1, 2]] and block.counts.tolist() == [2, 1, 2]
        table = tracking.KeypointTable(merged)
        table.add(block, np.empty(0, dtype=np.intp))
        table.add(block, np.array([0, 1, 3]))  # the (2, 3) piece lost its row, the (1, 2) piece one of two
        table.add(block, np.empty(0, dtype=np.intp))
        assert [list(pairs) for pairs in table] == [[0, 1, 2]] and table.n_pairs == 3
        alone = _table([sets[0], _pair(1, 2, [((2.0, 2.0), (5.0, 5.0))])], merged)
        for got, want in zip(table.keypoints(), alone.keypoints()):
            assert got.tobytes() == want.tobytes()

    def test_one_sample_call_per_frame(self, monkeypatch):
        """Every keypoint of a frame is lifted in a single merged.sample call."""
        merged = _merged_flat(list(range(4)))
        matches = [
            _pair(0, 1, [((1.0, 1.0), (2.0, 2.0)), ((5.0, 5.0), (6.0, 6.0))]),
            _pair(1, 2, [((2.0, 2.0), (3.0, 3.0)), ((6.0, 6.0), (4.0, 4.0))]),
            _pair(2, 3, [((3.0, 3.0), (1.0, 5.0))]),
        ]
        calls = []
        sample = merged.sample

        def counting_sample(fid, pixels):
            calls.append(fid)
            return sample(fid, pixels)

        monkeypatch.setattr(merged, "sample", counting_sample)
        tracks = merge_tracks(_table(matches, merged), merged)
        assert len(tracks) == 2
        assert sorted(calls) == [0, 1, 2, 3]


class TestKeypointTable:
    """A keypoint is MergedGeometry's pixel: the match pixel rounded (np.rint)
    inside its frame's image, keyed by its global pixel index."""

    @pytest.mark.parametrize(
        "pixel, inside",
        [
            ((-0.5, 3.0), True),  # rounds to 0
            ((-0.6, 3.0), False),  # rounds to -1
            ((6.5, 3.0), True),  # half to even: 6
            ((7.5, 3.0), False),  # half to even: 8, past the last column
            ((7.4, 3.0), True),
            ((3.0, -0.5), True),
            ((3.0, -0.6), False),
            ((3.0, 6.5), True),
            ((3.0, 7.5), False),
            ((3.0, 7.4), True),
        ],
    )
    def test_add_accepts_exactly_the_pixels_the_gate_can_keep(self, pixel, inside):
        """On 8x8 maps with depth everywhere, add accepts a pair iff
        depths(), which the gate reads, keeps its pixel; the table then
        holds the pixel as given, and a pixel outside fails naming frame 1."""
        merged = _merged_flat([0, 1])
        rows = np.array([1])
        assert len(merged.depths(rows, merged.pixel_keys(rows, np.array([pixel])))[0]) == inside
        table = tracking.KeypointTable(merged)
        block = _block(_pair(0, 1, [((1.0, 1.0), pixel)]), merged)
        if not inside:
            with pytest.raises(DataError, match=r"^frame 1: match pixel .* lies outside its 8x8 image"):
                table.add(block, np.arange(1))
            return
        table.add(block, np.arange(1))
        frames, pixels, root = table.keypoints()
        assert frames.tolist() == [0, 1] and root.tolist() == [0, 0]
        assert pixels.tolist() == [[1.0, 1.0], list(pixel)]

    def test_pixel_keys_are_frame_offset_plus_flat_index(self):
        """The key of pixel (u, v) of the frame at table row r is
        key_base[r] + v * W + u, with key_base the exclusive cumulative sum
        of the frames' W * H in frames() order and the total at its end; a
        pixel that rounds outside its frame's image has key -1, even where
        it lies inside a larger frame's."""
        a = _flat_cluster([7, 2], size=8)
        b = _flat_cluster([4], size=6)
        b = dataclasses.replace(b, cluster_id=1)
        merged = MergedGeometry([a, b], [Sim3Transform.identity()] * 2)
        assert merged.frames() == [2, 4, 7]
        assert merged.key_base.tolist() == [0, 64, 100, 164]
        rows = merged.table_rows([7, 4, 2, 7, 4])
        keys = merged.pixel_keys(rows, np.array([[3.0, 2.0], [5.4, 5.4], [0.0, 0.0], [7.0, 7.0], [6.0, 1.0]]))
        assert keys.dtype == np.int64 and keys.tolist() == [100 + 19, 64 + 35, 0, 163, -1]

    def test_pixel_outside_image_rejected_naming_frame(self):
        """A pixel outside its image, however large and on either side of a
        pair, fails add with a DataError naming its frame before any integer
        cast, so nothing warns, and the table keeps no pair."""
        merged = _merged_flat([0, 1, 2])
        pairs = [
            (2, 0, ((1e300, 3.0), (4.0, 4.0))),  # outside in frame 2, the first frame of the pair
            (0, 1, ((1.0, 1.0), (-3e9, 2.0))),
            (2, 0, ((1.0, 1.0), (8.6, 1.0))),  # rounds to column 9 of 8
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for (fi, fj, bad), frame in zip(pairs, (2, 1, 0)):
                table = tracking.KeypointTable(merged)
                block = _block(_pair(fi, fj, [((1.0, 1.0), (2.0, 2.0)), bad]), merged)
                with pytest.raises(DataError, match=rf"^frame {frame}: match pixel .* lies outside its 8x8 image"):
                    table.add(block, np.arange(2))
                assert table.n_pairs == 0 and list(table) == []

    def test_frame_no_cluster_holds_rejected(self):
        """A match set on a frame no cluster holds fails where its block is
        cut, naming the frame."""
        merged = _merged_flat([0, 1])
        with pytest.raises(MissingFrameError, match="frame 5"):
            _block(_pair(0, 5, [((1.0, 1.0), (2.0, 2.0))]), merged)
        with pytest.raises(MissingFrameError, match="frame 5"):
            list(tracking._blocks(iter([_pair(5, 1, [((1.0, 1.0), (2.0, 2.0))])]), merged, 4096))

    def test_every_row_the_gate_keeps_is_a_keypoint(self):
        """On random match sets over identical cameras and 8x8 maps with depth
        everywhere, with half-pixel ties and pixels up to 1.5 px outside the
        maps, verify_matches keeps exactly the rows whose two pixels round
        inside the maps, add accepts all of them, and adding any other row
        raises DataError."""
        merged = _merged_flat(list(range(4)), baseline=0.0)
        rng = np.random.default_rng(17)
        table = tracking.KeypointTable(merged)
        rejected = 0
        for _ in range(20):
            fi, fj = (int(f) for f in rng.choice(4, size=2, replace=False))
            pi = np.round(rng.uniform(-1.5, 8.5, (50, 2)) * 2) / 2
            pj = pi + np.round(rng.uniform(-1.0, 1.0, (50, 2)) * 2) / 2
            ms = MatchSet(fi, fj, pi, pj)
            kept = _verify(ms, merged)
            both = [np.rint(p) for p in (pi, pj)]
            inside = np.all([(p >= 0) & (p < 8) for p in both], axis=(0, 2))
            assert kept.tolist() == np.flatnonzero(inside).tolist()
            table.add(_block(ms, merged), kept)
            for row in np.flatnonzero(~inside):
                with pytest.raises(DataError, match="lies outside"):
                    tracking.KeypointTable(merged).add(_block(ms, merged), np.array([row]))
                rejected += 1
        assert table.n_pairs > 200 and rejected > 200
        held = np.rint(table.keypoints()[1])
        assert np.all((held >= 0) & (held < 8))

    def test_keypoints_hold_only_their_outputs(self, traced_peak):
        """keypoints() over 131,072 keypoints peaks (tracemalloc) below 29
        bytes per keypoint: the 28 it hands over (int64 frame, float64
        pixel, int32 root) and under 1 more. It finds the roots before it
        makes the outputs, reads the frames off the sorted key table and
        fills the pixels from their per-flush parts; concatenating the parts
        first and finding the roots beside the outputs read 52.0, and also
        handing over each keypoint's int64 first table row read 36.0."""
        size = 256
        merged = _merged_flat([0, 1], size=size, baseline=0.0)
        v, u = np.mgrid[0:size, 0:size]
        pixels = np.stack([u.ravel(), v.ravel()], axis=1).astype(np.float64)
        table = tracking.KeypointTable(merged)
        table.add(_block(MatchSet(0, 1, pixels, pixels), merged), np.arange(len(pixels)))
        table.add(_block(MatchSet(0, 1, pixels[:-1], pixels[1:]), merged), np.arange(len(pixels) - 1))
        (frames, kept, root), peak = traced_peak(table.keypoints)
        assert table.n_keypoints == len(frames) == 2 * size * size >= 131_072
        assert len(np.unique(root)) == 1 and sorted(frames.tolist()) == [0] * size * size + [1] * size * size
        per_keypoint = peak / table.n_keypoints
        assert per_keypoint < 29, f"peak {per_keypoint:.1f} bytes per keypoint"


class TestComponents:
    """tracking._union, streamed over several batches, against scipy's connected_components."""

    @staticmethod
    def _check(n_nodes, edges):
        """Each batch of edges, split in three, is unioned in turn; then every
        node's root (tracking._find) gives scipy's partition, each component
        rooted at its smallest node."""
        edges = [np.asarray(e, dtype=np.int32).reshape(-1, 2) for e in edges]
        parent = np.arange(n_nodes, dtype=np.int32)
        for batch in edges:
            for part in np.array_split(batch, 3):
                tracking._union(parent, part)
        label = tracking._find(parent, np.arange(n_nodes, dtype=np.int32))
        pairs = np.concatenate([np.empty((0, 2), dtype=np.int32)] + edges)
        graph = csr_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n_nodes, n_nodes))
        n_comp, reference = connected_components(graph, directed=False)
        smallest = np.full(n_comp, n_nodes)
        np.minimum.at(smallest, reference, np.arange(n_nodes))
        assert label.dtype == np.int32
        assert label.tolist() == smallest[reference].tolist()
        assert np.array_equal(parent, label)  # every node now points at its root
        return label

    def test_alternating_path(self):
        """1-0-3-2-5-4...: every node's smaller neighbour is a hook away from
        the other side, so the path needs several rounds."""
        path = np.arange(1000) ^ 1
        edges = np.stack([path[:-1], path[1:]], axis=1)
        assert self._check(1000, [edges[:300], edges[300:]]).tolist() == [0] * 1000

    def test_star_with_largest_centre(self):
        centre = 499
        leaves = np.arange(centre)
        edges = np.stack([np.full(centre, centre), leaves], axis=1)
        edges[::2] = edges[::2, ::-1]  # both orientations
        assert self._check(500, [edges]).tolist() == [0] * 500

    def test_duplicates_self_loops_and_isolated_nodes(self):
        edges = [[(3, 3), (5, 7), (7, 5), (5, 7)], [(9, 9), (12, 2), (2, 12), (7, 12)], []]
        label = self._check(20, edges)
        assert label[[2, 5, 7, 12]].tolist() == [2] * 4
        assert label[[3, 9, 19]].tolist() == [3, 9, 19]

    def test_no_edges(self):
        assert self._check(6, []).tolist() == list(range(6))

    def test_random_graph(self):
        rng = np.random.default_rng(4)
        n = 100_000
        edges = rng.integers(0, n, (70_000, 2))
        label = self._check(n, np.array_split(edges, 7))
        assert 1 < len(np.unique(label)) < n


class TestRunTracking:
    def _pipeline_pieces(self, n_cameras=20, seed=7):
        scene = generate_scene(seed=seed, n_cameras=n_cameras, n_landmarks=4000, layout="room")
        spec = PerturbationSpec(
            per_cluster_sim3_noise=(0.2, 20.0, 0.5),
            match_pixel_noise_sigma=0.5,
            outlier_match_fraction=0.05,
        )
        sim = synthetic_similarity(scene)
        plan = plan_scene(sim, subset_size=10, overlap=3)
        clusters, warps = [], []
        for cid, subset in enumerate(plan.subsets):
            c, w = render_cluster(scene, subset, spec, cluster_id=cid)
            clusters.append(c)
            warps.append(w)
        pairwise = [
            estimate_sim3_irls(extract_overlap_correspondences(clusters[i], clusters[i + 1], 70.0))
            for i in range(len(clusters) - 1)
        ]
        merged = MergedGeometry(clusters, chain_alignments([r.transform for r in pairwise]))
        return scene, spec, sim, plan, clusters, warps, merged

    def test_invocation_budget_and_track_quality(self):
        """Matcher calls <= k*n; fused points sit near their GT landmarks."""
        scene, spec, sim, plan, clusters, warps, merged = self._pipeline_pieces()
        res = run_tracking(sim, merged, synthetic_matcher(scene, spec), k=5)
        assert res.matcher_invocations <= 5 * scene.n_cameras
        assert res.matcher_invocations == len(res.graph.edges)
        assert res.failed_edges == 0
        assert len(res.tracks) > 100
        pts = res.tracks.points
        unwarped = apply_sim3(warps[0].inverse(), pts)
        from scipy.spatial import cKDTree

        dist, _ = cKDTree(scene.landmarks).query(unwarped)
        bound = 3.0 * spec.match_pixel_noise_sigma * 2.2 / scene.gt_cameras[0].intrinsics.fx
        assert (dist < bound).mean() >= 0.95

    def test_merge_matches_reference_bit_for_bit(self, monkeypatch):
        """On a 20-camera scene the array merge returns the loop reference's
        tracks: same points, confidences and observations, bit for bit,
        whether the keypoint table flushes every _FLUSH_ROWS rows or every 7
        rows and whether run_tracking verifies _VERIFY_BLOCK rows per gate
        call or 64. The table hands over the same keypoint ids and roots in
        all four, whether it takes one add per match set or one per block."""
        scene, spec, sim, plan, clusters, warps, merged = self._pipeline_pieces()
        matcher = synthetic_matcher(scene, spec)
        match_sets = [matcher(i, j) for i, j in build_frame_graph(sim, 5).edges]
        verified = [(ms, _verify(ms, merged)) for ms in match_sets]
        reference = _reference_merge_tracks([_kept(ms, rows) for ms, rows in verified], merged)
        assert len(reference) > 100

        def table(per_block):
            """The table of the verified rows: one add per match set, or one
            per block of _VERIFY_BLOCK rows, as run_tracking adds them."""
            table = tracking.KeypointTable(merged)
            if per_block:
                for block in tracking._blocks(iter(match_sets), merged, max_keypoints=2**62):
                    table.add(block, verify_matches(block, merged))
            else:
                for ms, rows in verified:
                    table.add(_block(ms, merged), rows)
            return table

        runs, handed = [], []
        settings = [(f, b) for f in (tracking._FLUSH_ROWS, 7) for b in (tracking._VERIFY_BLOCK, 64)]
        for flush_rows, verify_block in settings:
            monkeypatch.setattr(tracking, "_FLUSH_ROWS", flush_rows)
            monkeypatch.setattr(tracking, "_VERIFY_BLOCK", verify_block)
            tracks = list(map(_track_bits, _track_list(merge_tracks(table(False), merged))))
            assert sorted(tracks) == sorted(map(_track_bits, reference))
            via_run = _track_list(run_tracking(sim, merged, matcher, k=5).tracks)
            assert list(map(_track_bits, via_run)) == tracks
            runs.append(tracks)
            handed += [table(False).keypoints(), table(True).keypoints()]
        assert all(run == runs[0] for run in runs)
        for got in handed:
            assert [a.tobytes() for a in got] == [a.tobytes() for a in handed[0]]

    def test_verify_matches_reference_bit_for_bit(self):
        """On every edge of a 20-camera scene, checking the reverse direction
        only on forward survivors keeps the rows that checking both
        directions on every pair keeps, and those of the per-edge gate that
        lifted pixels to world points; the edges hold pairs that fail only
        the forward check and pairs that fail only the reverse one."""
        scene, spec, sim, plan, clusters, warps, merged = self._pipeline_pieces()
        matcher = synthetic_matcher(scene, spec)
        forward_only = reverse_only = 0
        for i, j in build_frame_graph(sim, 5).edges:
            ms = matcher(i, j)
            kept = _verify(ms, merged)
            reference, forward, reverse = _reference_verify_matches(ms, merged, 8.0)
            assert kept.tolist() == reference.tolist() == _per_edge_verify(ms, merged, 8.0).tolist()
            forward_only += int(np.sum(~forward & reverse))
            reverse_only += int(np.sum(forward & ~reverse))
        assert forward_only > 0 and reverse_only > 0

    def test_each_match_pixel_is_rounded_once(self, monkeypatch):
        """Over one run_tracking in which the gate rejects some rows, the
        blocks' cut, verification and interning hand MergedGeometry.pixel_keys
        exactly the two pixels of every row offered, and KeypointTable.add
        calls no MergedGeometry method on the rows it accepts: the gate and
        the table read the keys the block was cut with instead of rounding
        the pixels again. (merge_tracks' lift rounds through sample after.)"""
        scene, spec, sim, plan, clusters, warps, merged = self._pipeline_pieces()
        log = []  # ("call", method, rows), or ("enter"/"leave", stage), in order

        def spy(name, method):
            def spied(self, *args, **kwargs):
                log.append(("call", name, len(args[0]) if name == "pixel_keys" else 0))
                return method(self, *args, **kwargs)

            return spied

        def staged(stage, function):
            def wrapped(*args, **kwargs):
                log.append(("enter", stage, len(args[0]) if stage == "verify" else 0))
                try:
                    return function(*args, **kwargs)
                finally:
                    log.append(("leave", stage, 0))

            return wrapped

        for name, member in vars(MergedGeometry).items():
            if callable(member) and name != "__init__":
                monkeypatch.setattr(MergedGeometry, name, spy(name, member))
        monkeypatch.setattr(tracking.KeypointTable, "add", staged("add", tracking.KeypointTable.add))
        monkeypatch.setattr(tracking, "verify_matches", staged("verify", tracking.verify_matches))
        monkeypatch.setattr(tracking, "merge_tracks", staged("merge", tracking.merge_tracks))
        result = run_tracking(sim, merged, synthetic_matcher(scene, spec), k=5)

        before_merge = log[: log.index(("enter", "merge", 0))]
        offered = sum(rows for kind, stage, rows in before_merge if (kind, stage) == ("enter", "verify"))
        assert 0 < result.verified_pairs < offered  # the gate rejects some rows
        rounded = sum(rows for kind, name, rows in before_merge if (kind, name) == ("call", "pixel_keys"))
        assert rounded == 2 * offered
        in_add, called_in_add = False, []
        for kind, name, _ in before_merge:
            if kind != "call" and name == "add":
                in_add = kind == "enter"
            elif kind == "call" and in_add:
                called_in_add.append(name)
        assert called_in_add == []
        assert any(entry == ("enter", "add", 0) for entry in before_merge)

    @pytest.mark.parametrize("block", [7, 64, pytest.param(tracking._VERIFY_BLOCK, id="default")])
    def test_block_size_keeps_rows_and_tracks(self, monkeypatch, block):
        """Verified _VERIFY_BLOCK rows per gate call, every match set keeps
        the rows the per-edge gate keeps on it alone, in edge order, and
        run_tracking gives the tracks of those rows, at 7, 64 and the
        default rows per block, whether the keypoint table flushes every
        _FLUSH_ROWS rows or every 10, inside a block's rows. Blocks split
        edges, and the edges include empty match sets and ones whose every
        row fails."""
        scene, spec, sim, plan, clusters, warps, merged = self._pipeline_pieces()
        base = synthetic_matcher(scene, spec)
        edges = build_frame_graph(sim, 5).edges

        def matcher(i, j):
            ms, e = base(i, j), edges.index((i, j))
            if e % 7 == 3:
                return MatchSet(i, j, np.empty((0, 2)), np.empty((0, 2)))
            if e % 7 == 5:  # 20 px off: every row fails
                return MatchSet(i, j, ms.pixels_i, ms.pixels_j + [20.0, 0.0])
            return ms

        match_sets = [matcher(i, j) for i, j in edges]
        expected = [_per_edge_verify(ms, merged, 8.0) for ms in match_sets]
        starts = np.cumsum([0] + [len(ms) for ms in match_sets])
        assert any(len(ms) == 0 for ms in match_sets)
        assert any(len(ms) > 0 and len(rows) == 0 for ms, rows in zip(match_sets, expected))
        assert any(s // block != (e - 1) // block for s, e in zip(starts[:-1], starts[1:]) if e > s)

        monkeypatch.setattr(tracking, "_VERIFY_BLOCK", block)
        offered, gate = [], tracking.verify_matches

        def counted(match_block, *args):
            offered.append(len(match_block))
            return gate(match_block, *args)

        monkeypatch.setattr(tracking, "verify_matches", counted)
        handed = _streamed_kept_rows(match_sets, merged)
        assert len(handed) == len(match_sets)
        for rows, want in zip(handed, expected):
            assert rows.tolist() == want.tolist()
        assert set(offered[:-1]) <= {block} and 0 < offered[-1] <= block and sum(offered) == starts[-1]

        reference = _reference_merge_tracks([_kept(ms, rows) for ms, rows in zip(match_sets, expected)], merged)
        assert len(reference) > 100
        for flush_rows in (tracking._FLUSH_ROWS, 10):
            monkeypatch.setattr(tracking, "_FLUSH_ROWS", flush_rows)
            offered.clear()
            result = run_tracking(sim, merged, matcher, k=5)
            assert result.verified_pairs == sum(map(len, expected)) and sum(offered) == starts[-1]
            tracks = _track_list(result.tracks)
            assert sorted(map(_track_bits, tracks)) == sorted(map(_track_bits, reference))

    def test_random_match_sets_match_per_edge_reference(self, monkeypatch):
        """On random match sets over a three-cluster merge, the block gate
        (64 rows per call) keeps on every match set the rows of the per-edge
        gate, which lifted pixels to world points, and of both directions on
        every row. Every rejection branch occurs: outside the map, zero
        depth, behind the camera, beyond tau and a huge finite pixel. The
        keypoint table accepts every kept row. None raises a RuntimeWarning."""
        scene, spec, sim, plan, clusters, warps, merged = self._pipeline_pieces()
        assert len(clusters) == 3
        base = synthetic_matcher(scene, spec)
        w, h = scene.image_size
        rng = np.random.default_rng(11)
        n = scene.n_cameras
        # graph edges, plus frames half the ring apart: their points fall behind each other
        pairs = build_frame_graph(sim, 5).edges + [(i, (i + n // 2) % n) for i in range(0, n, 3)]
        match_sets = []
        for i, j in pairs:
            ms = base(i, j)
            if len(ms) == 0:  # far frames share no landmarks: pair random pixels instead
                ms = MatchSet(i, j, rng.uniform(0, [w, h], (50, 2)), rng.uniform(0, [w, h], (50, 2)))
            pi, pj = ms.pixels_i.copy(), ms.pixels_j.copy()
            kind = rng.integers(0, 10, len(ms))
            wild = kind < 3  # anywhere in a box wider than the map
            pi[wild] = rng.uniform([-4, -4], [w + 4, h + 4], (wild.sum(), 2))
            nudged = kind == 3  # near the threshold
            pj[nudged] += rng.normal(0, 8, (nudged.sum(), 2))
            huge = np.flatnonzero(kind == 4)
            pi[huge[::2], 0], pj[huge[1::2], 1] = 1e300, -1e300
            match_sets.append(MatchSet(i, j, pi, pj))

        branches = dict.fromkeys(["outside", "zero depth", "behind", "beyond tau", "huge", "kept"], 0)
        for ms in match_sets:
            k = merged.camera(ms.frame_i).intrinsics
            u, v = np.rint(ms.pixels_i).T
            inside = (u >= 0) & (u < k.width) & (v >= 0) & (v < k.height)
            pts, _, valid = merged.sample(ms.frame_i, ms.pixels_i)
            uv, front = project_points(pts, merged.camera(ms.frame_j))
            reference, forward, _ = _reference_verify_matches(ms, merged, 8.0)
            branches["outside"] += int(np.sum(~inside))
            branches["zero depth"] += int(np.sum(inside & ~valid))
            branches["behind"] += int(np.sum(valid & ~front))
            branches["beyond tau"] += int(np.sum(valid & front & ~forward))
            branches["huge"] += int(np.sum(np.abs(np.concatenate([ms.pixels_i, ms.pixels_j])) > 1e100))
            branches["kept"] += len(reference)
        assert min(branches.values()) > 0, branches

        monkeypatch.setattr(tracking, "_VERIFY_BLOCK", 64)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            handed = _streamed_kept_rows(match_sets, merged)
            assert len(handed) == len(match_sets)
            table = tracking.KeypointTable(merged)
            for ms, rows in zip(match_sets, handed):
                reference = _reference_verify_matches(ms, merged, 8.0)[0]
                assert rows.tolist() == _per_edge_verify(ms, merged, 8.0).tolist() == reference.tolist()
                table.add(_block(ms, merged), rows)  # every kept row is a keypoint
            assert table.n_pairs == branches["kept"]

    @staticmethod
    def _pool_tracking(traced_peak, pairs):
        """run_tracking over about `pairs` pairs that all verify, drawn from a
        fixed pool of 300 pixels in each of 100 identical frames: (result,
        traced peak bytes)."""
        n_frames, size = 100, 64
        merged = _merged_flat(list(range(n_frames)), size=size, baseline=0.0)
        pool = np.random.default_rng(5).uniform(-0.5, size - 0.5, (300, 2))
        sim = _random_similarity(np.random.default_rng(6), n_frames)
        edges = build_frame_graph(sim, 10).edges
        per_edge = pairs // len(edges) + 1

        def matcher(i, j):
            rows = np.random.default_rng(i * n_frames + j).integers(0, len(pool), per_edge)
            return MatchSet(i, j, pool[rows], pool[rows])  # identical cameras: every pair verifies

        result, peak = traced_peak(lambda: run_tracking(sim, merged, matcher, k=10))
        assert result.verified_pairs == per_edge * len(edges) >= pairs
        assert len(result.tracks) > 0
        return result, peak

    def test_run_tracking_memory_below_verified_pixels(self, traced_peak):
        """Tracking ~200k pairs that all verify peaks (tracemalloc) below
        0.6x the bytes of their verified pixels: the keypoint table unions
        pairs as they are interned and keeps one row per keypoint, never the
        match sets or an id per pair (keeping two int32 ids per pair read
        0.81x)."""
        result, peak = self._pool_tracking(traced_peak, 200_000)
        verified_bytes = 4 * 8 * result.verified_pairs
        assert peak < 0.6 * verified_bytes, f"peak {peak / verified_bytes:.2f}x the verified pixel bytes"

    def test_run_tracking_memory_flat_in_pairs(self, traced_peak):
        """Twice the verified pairs over the same keypoints raise run_tracking's
        traced peak by less than 10%: only keypoints and the flush buffer
        are held (an int32 id pair per verified pair grew it by 8 bytes per
        pair)."""
        once, peak_once = self._pool_tracking(traced_peak, 200_000)
        twice, peak_twice = self._pool_tracking(traced_peak, 400_000)
        assert twice.keypoints == once.keypoints and twice.verified_pairs >= 2 * 200_000
        assert peak_twice < 1.1 * peak_once, f"peak {peak_once} -> {peak_twice} bytes"

    def test_pipeline_import_leaves_out_csgraph(self):
        """Tracks are found without scipy.sparse.csgraph, so importing the
        pipeline does not load it."""
        src = str(Path(scenemerge.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = "import sys, scenemerge.pipeline; print('scipy.sparse.csgraph' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_matcher_failure_skips_edge(self):
        scene, spec, sim, plan, clusters, warps, merged = self._pipeline_pieces(n_cameras=10)
        base = synthetic_matcher(scene, spec)

        def flaky(i, j):
            if (i, j) == tuple(sorted((0, 1))):
                raise DataError("no matches for this pair")
            return base(i, j)

        res = run_tracking(sim, merged, flaky, k=2)
        assert res.failed_edges >= 1
        assert res.matcher_invocations == len(res.graph.edges)
        assert len(res.tracks) > 0

    def test_non_finite_matcher_pixels_fail_the_edge(self):
        """A matcher whose MatchSet holds a NaN pixel fails its edge with the
        DataError of MatchSet, counted like any other failed edge."""
        scene, spec, sim, plan, clusters, warps, merged = self._pipeline_pieces(n_cameras=10)
        base = synthetic_matcher(scene, spec)
        bad_edge = build_frame_graph(sim, 2).edges[0]

        def nan_pixel(i, j):
            ms = base(i, j)
            if (i, j) == bad_edge:
                return MatchSet(i, j, np.where(np.arange(len(ms))[:, None] == 0, np.nan, ms.pixels_i), ms.pixels_j)
            return ms

        res = run_tracking(sim, merged, nan_pixel, k=2)
        assert res.failed_edges == run_tracking(sim, merged, base, k=2).failed_edges + 1
        assert len(res.tracks) > 0

    def test_misshaped_matcher_pixels_fail_the_edge(self):
        """A matcher whose MatchSet pixels are not shaped (N, 2) fails its edge
        with the DataError of MatchSet, counted like any other failed edge."""
        scene, spec, sim, plan, clusters, warps, merged = self._pipeline_pieces(n_cameras=10)
        base = synthetic_matcher(scene, spec)
        bad_edge = build_frame_graph(sim, 2).edges[0]

        def transposed(i, j):
            ms = base(i, j)
            if (i, j) == bad_edge:
                return MatchSet(i, j, ms.pixels_i.T, ms.pixels_j)
            return ms

        assert len(base(*bad_edge)) > 2
        res = run_tracking(sim, merged, transposed, k=2)
        assert res.failed_edges == run_tracking(sim, merged, base, k=2).failed_edges + 1
        assert len(res.tracks) > 0

    def test_match_set_of_other_frames_fails_the_edge(self):
        """A match set that does not join its edge's two frames fails the
        edge with a DataError naming the edge and the frames it holds,
        counted like any other failed edge, instead of being verified
        against the wrong frames."""
        scene, spec, sim, plan, clusters, warps, merged = self._pipeline_pieces(n_cameras=10)
        base = synthetic_matcher(scene, spec)
        bad_edge = build_frame_graph(sim, 2).edges[0]
        other = (bad_edge[1] + 7) % 10

        def wrong_frame(i, j):
            ms = base(i, j)
            return dataclasses.replace(ms, frame_j=other) if (i, j) == bad_edge else ms

        def no_matches(i, j):
            if (i, j) == bad_edge:
                raise DataError("no matches for this pair")
            return base(i, j)

        with pytest.raises(DataError, match=rf"edge \({bad_edge[0]}, {bad_edge[1]}\).*\({bad_edge[0]}, {other}\)"):
            tracking._edge_matches(wrong_frame, *bad_edge)
        res = run_tracking(sim, merged, wrong_frame, k=2)
        skipped = run_tracking(sim, merged, no_matches, k=2)
        assert res.failed_edges == skipped.failed_edges == run_tracking(sim, merged, base, k=2).failed_edges + 1
        assert res.verified_pairs == skipped.verified_pairs
        assert list(map(_track_bits, _track_list(res.tracks))) == list(map(_track_bits, _track_list(skipped.tracks)))
        swapped = run_tracking(sim, merged, lambda i, j: base(j, i), k=2)  # (j, i) joins the same frames
        assert swapped.failed_edges == res.failed_edges - 1

    def test_matcher_bug_propagates(self):
        """Only DataError marks an edge as failed; any other exception is a
        bug in the matcher and must surface, not be counted away."""
        scene, spec, sim, plan, clusters, warps, merged = self._pipeline_pieces(n_cameras=10)
        base = synthetic_matcher(scene, spec)

        def buggy(i, j):
            if (i, j) == tuple(sorted((0, 1))):
                raise RuntimeError("matcher crashed")
            return base(i, j)

        with pytest.raises(RuntimeError, match="matcher crashed"):
            run_tracking(sim, merged, buggy, k=2)

    def test_max_keypoints_truncates(self):
        """Only the first max_keypoints pairs of an oversized match set
        can reach the track stage."""
        merged_frames = [0, 1]
        cluster = _flat_cluster(merged_frames)
        sim = SimilarityMatrix(np.array([[1.0, 0.9], [0.9, 1.0]]))
        rng = np.random.default_rng(8)
        pts = rng.uniform(1.0, 6.0, size=(50, 2)).round(1)

        def fat_matcher(i, j):
            return MatchSet(frame_i=0, frame_j=1, pixels_i=pts, pixels_j=pts)

        merged = MergedGeometry([cluster], [Sim3Transform.identity()])
        res = run_tracking(sim, merged, fat_matcher, k=1, max_keypoints=10)
        allowed = {(float(u), float(v)) for u, v in pts[:10]}
        assert len(res.tracks) > 0
        for u, v in res.tracks.pixels:
            assert (float(u), float(v)) in allowed

    def test_max_keypoints_caps_rows_offered(self, monkeypatch):
        """A 5,000-row match set with max_keypoints 4,096 offers exactly its
        first 4,096 rows to the gate, in one block."""
        merged = _merged_flat([0, 1], size=64, baseline=0.0)
        sim = SimilarityMatrix(np.array([[1.0, 0.9], [0.9, 1.0]]))
        pts = np.random.default_rng(9).uniform(0.0, 63.0, size=(5000, 2))
        offered, gate = [], tracking.verify_matches

        def counted(block, *args):
            offered.append(block)
            return gate(block, *args)

        monkeypatch.setattr(tracking, "verify_matches", counted)
        res = run_tracking(sim, merged, lambda i, j: MatchSet(i, j, pts, pts), k=1, max_keypoints=4096)
        assert [len(block) for block in offered] == [4096] and res.verified_pairs == 4096
        assert offered[0].pixels_i.tobytes() == offered[0].pixels_j.tobytes() == pts[:4096].tobytes()

    def test_plan_mismatch_rejected(self):
        """A 20-camera plan has several subsets, so reversal misaligns; the
        track stage checks its clusters against the plan before tracking."""
        from scenemerge.pipeline import check_plan_matches_clusters

        scene, spec, sim, plan, clusters, warps, merged = self._pipeline_pieces(n_cameras=20)
        assert len(clusters) > 1
        with pytest.raises(ConfigError):
            check_plan_matches_clusters(list(reversed(clusters)), plan)

    def test_frame_missing_from_clusters_rejected(self):
        """A graph edge to a frame no cluster holds fails before matching."""
        sim = SimilarityMatrix(np.array([[1.0, 0.9, 0.5], [0.9, 1.0, 0.4], [0.5, 0.4, 1.0]]))
        merged = MergedGeometry([_flat_cluster([0, 1])], [Sim3Transform.identity()])

        def never(i, j):
            raise AssertionError("matcher must not run")

        with pytest.raises(MissingFrameError, match=r"\[2\]"):
            run_tracking(sim, merged, never, k=1)
