"""Tests for frame-graph construction, match verification, and tracks."""

import dataclasses

import numpy as np
import pytest

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
from scenemerge.tracking import (
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


def _flat_cluster(frame_ids, depth_value=2.0, conf_values=None, size=8):
    """One cluster of identical forward-facing frames with constant depth."""
    cams, depths, confs = [], [], []
    for idx, fid in enumerate(frame_ids):
        intr = CameraIntrinsics(
            fx=2.0 * size, fy=2.0 * size, cx=size / 2.0, cy=size / 2.0, width=size, height=size
        )
        pose = CameraPose(rotation=np.eye(3), translation=np.array([0.1 * idx, 0.0, 0.0]))
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


def _reference_verify_matches(ms, merged, tau_reproj):
    """Reference gate: both directions on every pair, then AND.

    Returns (kept pairs, forward pass mask, reverse pass mask)."""
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
    return ms.select(forward & reverse), forward, reverse


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
        with pytest.raises(DataError):
            MatchSet(frame_i=0, frame_j=1, pixels_i=np.zeros((2, 2)), pixels_j=np.zeros((3, 2)))

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
        cluster, _ = render_cluster(scene, list(range(n_cameras)), PerturbationSpec.none())
        merged = MergedGeometry([cluster], [Sim3Transform.identity()])
        return scene, merged

    def test_perfect_matches_fully_retained(self):
        """Exact projected landmarks survive tau=8 at 100%."""
        scene, merged = self._scene_geometry()
        ms = synthetic_matcher(scene, PerturbationSpec.none())(1, 2)
        kept = verify_matches(ms, merged, 8.0)
        assert len(kept) == len(ms) > 0

    def test_huge_finite_pixel_dropped_without_warning(self):
        """A finite pixel far outside the map fails verification without
        overflowing the integer cast or the error norm (a warning is an
        error here)."""
        ms = _pair(
            0, 1, [((2.0, 2.0), (2.0, 2.0)), ((1e300, 3.0), (2.0, 2.0)), ((2.0, 2.0), (3.0, -1e300))]
        )
        kept = verify_matches(ms, _merged_flat([0, 1]))
        np.testing.assert_array_equal(kept.pixels_i, [[2.0, 2.0]])

    def test_offset_matches_fully_rejected(self):
        """Shifting image-j pixels by 20 px kills every pair at tau=8."""
        scene, merged = self._scene_geometry()
        ms = synthetic_matcher(scene, PerturbationSpec.none())(1, 2)
        shifted = MatchSet(
            frame_i=1, frame_j=2, pixels_i=ms.pixels_i, pixels_j=ms.pixels_j + [20.0, 0.0]
        )
        assert len(verify_matches(shifted, merged, 8.0)) == 0

    def test_outlier_rejection_rate(self):
        """80 true + 20 uniform-random pairs on 640x480: true all kept,
        >= 18 of 20 random rejected (probed: 20/20 across seeds)."""
        scene, merged = self._scene_geometry(
            seed=3, n_cameras=6, n_landmarks=20000, image_size=(640, 480)
        )
        full = synthetic_matcher(scene, PerturbationSpec.none())(2, 3)
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
            kept = verify_matches(mixed, merged, 8.0)
            kept_set = {tuple(p) for p in kept.pixels_i}
            assert sum(tuple(p) in kept_set for p in full.pixels_i[pick]) == 80
            assert sum(tuple(p) in kept_set for p in rnd_i) <= 2

    def test_invalid_depth_rejects_pair(self):
        """A pair whose source pixel has zero depth cannot verify."""
        flat = _flat_cluster([0, 1])
        hole = np.where(np.arange(8)[None, :] < 4, 0.0, 2.0).astype(np.float32) * np.ones((8, 8), dtype=np.float32)
        cluster = dataclasses.replace(flat, depths=[hole, flat.depths[1]])
        merged = MergedGeometry([cluster], [Sim3Transform.identity()])
        ms = _pair(0, 1, [(((2.0, 2.0)), (2.0, 2.0)), ((6.0, 6.0), (4.4, 6.0))])
        kept = verify_matches(ms, merged, 8.0)
        assert len(kept) == 1
        assert kept.pixels_i[0, 0] == 6.0

    def test_pair_order_invariance(self):
        scene, merged = self._scene_geometry()
        ms = synthetic_matcher(scene, PerturbationSpec(match_pixel_noise_sigma=2.0))(1, 2)
        perm = np.random.default_rng(0).permutation(len(ms))
        shuffled = MatchSet(frame_i=1, frame_j=2, pixels_i=ms.pixels_i[perm], pixels_j=ms.pixels_j[perm])
        a = verify_matches(ms, merged, 8.0)
        b = verify_matches(shuffled, merged, 8.0)
        set_a = {tuple(np.concatenate([p, q])) for p, q in zip(a.pixels_i, a.pixels_j)}
        set_b = {tuple(np.concatenate([p, q])) for p, q in zip(b.pixels_i, b.pixels_j)}
        assert set_a == set_b

    def test_rejects_bad_tau(self):
        merged = _merged_flat([0, 1])
        ms = _pair(0, 1, [((2.0, 2.0), (2.0, 2.0))])
        for bad in (0.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="tau_reproj"):
                verify_matches(ms, merged, bad)


class TestMergeTracks:
    def test_transitive_union_forms_one_track(self):
        """Pairs (A,B) and (B,C) over frames 0,1,2 chain into length 3."""
        merged = _merged_flat([0, 1, 2])
        matches = [
            _pair(0, 1, [((1.0, 1.0), (2.0, 1.0))]),
            _pair(1, 2, [((2.0, 1.0), (3.0, 4.0))]),
        ]
        tracks = merge_tracks(matches, merged)
        assert len(tracks) == 1
        assert _frames(tracks) == [[0, 1, 2]]

    def test_equal_confidence_fusion_is_midpoint(self):
        """Equal weights: fused = (p+q)/2 and C equals that confidence."""
        merged = _merged_flat([0, 1], conf_values=[0.7, 0.7])
        pa, pb = (1.0, 1.0), (5.0, 3.0)
        tracks = merge_tracks([_pair(0, 1, [(pa, pb)])], merged)
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
        tracks = merge_tracks([_pair(0, 1, [(pa, pb)])], merged)
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
        assert len(merge_tracks(matches, merged)) == 0

    def test_min_track_len(self):
        """A track needs 2 valid samples: a three-frame chain is kept whole,
        a pair whose second pixel lands off the map is dropped."""
        merged = _merged_flat([0, 1, 2])
        matches = [
            _pair(0, 1, [((1.0, 1.0), (2.0, 1.0))]),
            _pair(1, 2, [((2.0, 1.0), (3.0, 4.0))]),
        ]
        assert merge_tracks(matches, merged).lengths.tolist() == [3]
        assert len(merge_tracks([_pair(0, 1, [((1.0, 1.0), (20.0, 1.0))])], merged)) == 0

    def test_non_finite_pixel_rejected(self):
        merged = _merged_flat([0, 1])
        with pytest.raises(DataError, match="finite"):
            merge_tracks([_pair(0, 1, [((1.0, 1.0), (2.0, 2.0)), ((np.nan, 3.0), (4.0, 4.0))])], merged)

    def test_subpixel_coordinates_share_rounded_node(self):
        """(1.4, 1.4) and (0.6, 0.6) both round to pixel (1, 1)."""
        merged = _merged_flat([0, 1, 2])
        matches = [
            _pair(0, 1, [((1.4, 1.4), (3.0, 3.0))]),
            _pair(0, 2, [((0.6, 0.6), (5.0, 5.0))]),
        ]
        tracks = merge_tracks(matches, merged)
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
        tracks = merge_tracks(matches, merged)
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
        for _, _, observations in _track_list(merge_tracks(matches, merged)):
            got.add(frozenset((f, (float(uv[0]), float(uv[1]))) for f, uv in observations))
        assert got == expected


    def test_tracks_in_first_seen_order(self):
        """Tracks are ordered by their first keypoint in the table, not by
        union-find root. The 5-frame component starts with the very first
        keypoint but is merged by size under the root of a later pair, so
        the union-find order puts the 2-frame component first."""
        merged = _merged_flat(list(range(5)))
        matches = [
            _pair(0, 1, [((1.0, 1.0), (2.0, 2.0))]),
            _pair(0, 1, [((5.0, 5.0), (6.0, 6.0))]),
            _pair(2, 3, [((1.0, 1.0), (2.0, 2.0))]),
            _pair(3, 4, [((2.0, 2.0), (3.0, 3.0))]),
            _pair(0, 4, [((1.0, 1.0), (3.0, 3.0))]),
        ]
        tracks = merge_tracks(matches, merged)
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
        tracks = merge_tracks(matches, merged)
        assert _frames(tracks) == [[0, 1]]
        reference = _reference_merge_tracks(matches, merged)
        assert list(map(_track_bits, _track_list(tracks))) == list(map(_track_bits, reference))
        assert len(merge_tracks(matches[::2], merged)) == 0

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
        tracks = merge_tracks(matches, merged)
        assert len(tracks) == 2
        assert sorted(calls) == [0, 1, 2, 3]


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

    def test_merge_matches_reference_bit_for_bit(self):
        """On a 20-camera scene the array merge returns the loop reference's
        tracks: same points, confidences and observations, bit for bit."""
        scene, spec, sim, plan, clusters, warps, merged = self._pipeline_pieces()
        matcher = synthetic_matcher(scene, spec)
        verified = [verify_matches(matcher(i, j), merged, 8.0) for i, j in build_frame_graph(sim, 5).edges]
        tracks = _track_list(merge_tracks(verified, merged))
        reference = _reference_merge_tracks(verified, merged)
        assert len(tracks) > 100
        assert sorted(map(_track_bits, tracks)) == sorted(map(_track_bits, reference))
        via_run = _track_list(run_tracking(sim, merged, matcher, k=5).tracks)
        assert list(map(_track_bits, via_run)) == list(map(_track_bits, tracks))

    def test_verify_matches_reference_bit_for_bit(self):
        """On every edge of a 20-camera scene, checking the reverse direction
        only on forward survivors keeps the pairs that checking both
        directions on every pair keeps, bit for bit; the edges hold pairs
        that fail only the forward check and pairs that fail only the
        reverse one."""
        scene, spec, sim, plan, clusters, warps, merged = self._pipeline_pieces()
        matcher = synthetic_matcher(scene, spec)
        forward_only = reverse_only = 0
        for i, j in build_frame_graph(sim, 5).edges:
            ms = matcher(i, j)
            kept = verify_matches(ms, merged, 8.0)
            reference, forward, reverse = _reference_verify_matches(ms, merged, 8.0)
            assert kept.pixels_i.tobytes() == reference.pixels_i.tobytes()
            assert kept.pixels_j.tobytes() == reference.pixels_j.tobytes()
            forward_only += int(np.sum(~forward & reverse))
            reverse_only += int(np.sum(forward & ~reverse))
        assert forward_only > 0 and reverse_only > 0

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
