"""Multi-view track building over a sparse k-NN frame graph.

Pairwise matches are verified by bidirectional reprojection against the
globally aligned geometry, then merged into tracks: the connected
components of the match graph over keypoints keyed on (frame id, rounded
pixel). The keypoint identities form a per-frame table: each frame's
keypoints are numbered on their own, so besides one int64 node per
keypoint and the pair graph, the merge's work arrays hold one frame's
rows at a time. Every pixel is lifted to 3D through MergedGeometry.sample. Each track fuses its
per-observation 3D points by confidence-weighted averaging; the fused
confidence is the mean of the observation confidences.

All tracks live in one Tracks table (see its docstring). Canonical order:
tracks by their first keypoint in merge_tracks' keypoint table, each
track's observations by frame id; tracks.bin stores the table as is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import ConfigError, DataError, MissingFrameError
from .geometry import project_points

__all__ = [
    "MatchSet",
    "FrameGraph",
    "Tracks",
    "TrackingResult",
    "build_frame_graph",
    "verify_matches",
    "merge_tracks",
    "run_tracking",
]


@dataclass(frozen=True)
class MatchSet:
    """Putative pixel correspondences between two frames; every pixel is finite."""

    frame_i: int
    frame_j: int
    pixels_i: np.ndarray
    pixels_j: np.ndarray

    def __post_init__(self):
        if self.frame_i == self.frame_j:
            raise ConfigError(f"match set must connect two distinct frames, got {self.frame_i} twice")
        pi = np.asarray(self.pixels_i, dtype=np.float64).reshape(-1, 2)
        pj = np.asarray(self.pixels_j, dtype=np.float64).reshape(-1, 2)
        if len(pi) != len(pj):
            raise DataError(f"match set pixel counts differ: {len(pi)} vs {len(pj)}")
        if not (np.isfinite(pi).all() and np.isfinite(pj).all()):
            bad = np.flatnonzero(~(np.isfinite(pi).all(axis=1) & np.isfinite(pj).all(axis=1)))[0]
            raise DataError(
                f"match set ({self.frame_i}, {self.frame_j}) row {bad} holds a non-finite pixel: "
                f"{pi[bad].tolist()} vs {pj[bad].tolist()}"
            )
        object.__setattr__(self, "pixels_i", pi)
        object.__setattr__(self, "pixels_j", pj)

    def __len__(self) -> int:
        return len(self.pixels_i)

    def select(self, rows) -> MatchSet:
        """The pairs at rows (an index array, slice or boolean mask).

        Those rows were cast and checked when this set was built, so the
        subset is assembled without running __post_init__ again.
        """
        subset = object.__new__(MatchSet)
        subset.__dict__.update(
            frame_i=self.frame_i, frame_j=self.frame_j, pixels_i=self.pixels_i[rows], pixels_j=self.pixels_j[rows]
        )
        return subset


def _reject(bad_tracks: np.ndarray, message) -> None:
    """Raise DataError naming the lowest track index in bad_tracks, if any."""
    if len(bad_tracks):
        i = int(bad_tracks.min())
        raise DataError(f"track {i} {message(i)}")


@dataclass(frozen=True, eq=False)
class Tracks:
    """Every track as one table: P fused points over M pixel observations.

    points (P, 3), confidences (P,) and lengths (P,) hold one row per track;
    frames (M,) and pixels (M, 2) the observations, grouped by track in track
    order. len() is the track count; iterating yields each track's rows as a
    range. All tracks are checked at once (>= 2 observations, no frame twice,
    finite confidence >= 0, finite point and pixels); a DataError names the
    first bad track.
    """

    points: np.ndarray
    confidences: np.ndarray
    lengths: np.ndarray
    frames: np.ndarray
    pixels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", np.ascontiguousarray(self.points, dtype=np.float64).reshape(-1, 3))
        object.__setattr__(self, "confidences", np.ascontiguousarray(self.confidences, dtype=np.float64).reshape(-1))
        object.__setattr__(self, "lengths", np.ascontiguousarray(self.lengths, dtype=np.int64).reshape(-1))
        object.__setattr__(self, "frames", np.ascontiguousarray(self.frames, dtype=np.int64).reshape(-1))
        object.__setattr__(self, "pixels", np.ascontiguousarray(self.pixels, dtype=np.float64).reshape(-1, 2))
        pts, conf, lengths, frames, pixels = self.points, self.confidences, self.lengths, self.frames, self.pixels
        if not (len(pts) == len(conf) == len(lengths) and len(frames) == len(pixels) == lengths.sum()):
            raise DataError(
                f"track arrays disagree: {len(pts)} points, {len(conf)} confidences and {len(lengths)} lengths "
                f"holding {lengths.sum()} observations, {len(frames)} frames, {len(pixels)} pixels"
            )
        _reject(np.flatnonzero(lengths < 2), lambda i: f"has {lengths[i]} observations, needs >= 2")
        bad_conf = np.flatnonzero(~(np.isfinite(conf) & (conf >= 0)))
        _reject(bad_conf, lambda i: f"confidence must be finite and >= 0, got {conf[i]}")
        _reject(np.flatnonzero(~np.isfinite(pts).all(axis=1)), lambda i: f"point must be finite, got {pts[i].tolist()}")
        track = self.track_indices
        _reject(track[~np.isfinite(pixels).all(axis=1)], lambda i: "holds a non-finite pixel")
        order = np.lexsort((frames, track))
        dup = order[1:][(np.diff(track[order]) == 0) & (np.diff(frames[order]) == 0)]
        _reject(track[dup], lambda i: f"observes frame {frames[dup][track[dup] == i][0]} twice")

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        ends = np.cumsum(self.lengths).tolist()
        return (range(end - n, end) for n, end in zip(self.lengths.tolist(), ends))

    @property
    def track_indices(self) -> np.ndarray:
        """(M,) track index of every observation row."""
        return np.repeat(np.arange(len(self.lengths)), self.lengths)


@dataclass(frozen=True)
class FrameGraph:
    """Sparse undirected frame graph; edges are canonical (lo, hi) pairs."""

    n_frames: int
    edges: list

    def __post_init__(self):
        seen = set()
        for i, j in self.edges:
            if not (0 <= i < j < self.n_frames):
                raise DataError(f"edge ({i}, {j}) is not canonical for {self.n_frames} frames")
            if (i, j) in seen:
                raise DataError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))

    def __len__(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class TrackingResult:
    """Tracks plus bookkeeping from the per-edge matching phase."""

    tracks: Tracks
    graph: FrameGraph
    matcher_invocations: int
    failed_edges: int


def build_frame_graph(m, k: int) -> FrameGraph:
    """k-NN graph over frames with duplicate-pair substitution.

    Each frame proposes its k most-similar neighbors (ties to the lower
    index); when a proposed unordered pair already exists, the next
    nearest unused neighbor substitutes. Every frame therefore ends with
    degree >= k (or degree n-1 if its candidate list runs out first), so
    the edge count lies in [ceil(k*n/2), k*n].
    """
    n = m.n
    if not (1 <= k < n):
        raise ConfigError(f"k must satisfy 1 <= k < n_frames, got k={k}, n={n}")
    edges = {}  # insertion-ordered set of pairs
    for i in range(n):
        order = np.argsort(-m.values[i], kind="stable")
        added = 0
        for j in order:
            j = int(j)
            if j == i:
                continue
            pair = (i, j) if i < j else (j, i)
            if pair in edges:
                continue
            edges[pair] = None
            added += 1
            if added == k:
                break
    return FrameGraph(n_frames=n, edges=list(edges))


def verify_matches(ms: MatchSet, merged, tau_reproj: float = 8.0) -> MatchSet:
    """Bidirectional reprojection gate at tau_reproj pixels.

    A pair survives iff both pixels sample valid depth, the point that
    merged.sample lifts from pixel i reprojects through merged's camera of
    frame j within tau_reproj of its partner (landing in front of the
    camera), and the symmetric j to i check passes. The reverse check runs
    only on the pairs that survive the forward one; every row gets the bits
    it would get alone, so the survivors are those of checking both
    directions on every pair.
    """
    if not (np.isfinite(tau_reproj) and tau_reproj > 0):
        raise ConfigError(f"tau_reproj must be positive and finite, got {tau_reproj}")
    if len(ms) == 0:
        return ms
    keep = np.flatnonzero(_reprojects(merged, ms.frame_i, ms.pixels_i, ms.frame_j, ms.pixels_j, tau_reproj))
    back = _reprojects(merged, ms.frame_j, ms.pixels_j[keep], ms.frame_i, ms.pixels_i[keep], tau_reproj)
    return ms.select(keep[back])


def _reprojects(merged, src: int, pix_src: np.ndarray, dst: int, pix_dst: np.ndarray, tau_reproj: float):
    """Mask of the pixels of frame src whose lifted point lands in front of
    frame dst's camera within tau_reproj of its partner in pix_dst."""
    pts, _, valid = merged.sample(src, pix_src)
    uv, in_front = project_points(pts, merged.camera(dst))
    # clipped so a huge pixel cannot overflow the norm; it fails either way
    diff = np.where(np.isfinite(uv), uv, np.inf) - pix_dst
    err = np.linalg.norm(np.clip(diff, -2 * tau_reproj, 2 * tau_reproj), axis=1)
    return valid & in_front & (err <= tau_reproj)


def _intern_keypoints(all_matches):
    """Keypoint identities of the merge_tracks table (non-empty match sets).

    Returns (node of each table row, first table row of each node, node
    frame ids, node subpixel coordinates). Nodes are numbered by frame id,
    then rounded row, then rounded column. The table is never built: each
    match set adds one strided block of rows per side, and the blocks are
    interned one frame at a time, keyed by (row, column) within that
    frame's own rounded span. Apart from node, every work array holds one
    frame's rows.
    """
    blocks = {}  # frame id -> [(first table row, pixels)], in table order
    n_rows = 0
    for ms in all_matches:
        blocks.setdefault(ms.frame_i, []).append((n_rows, ms.pixels_i))
        blocks.setdefault(ms.frame_j, []).append((n_rows + 1, ms.pixels_j))
        n_rows += 2 * len(ms)
    node = np.empty(n_rows, dtype=np.int64)
    frame_ids = sorted(blocks)
    firsts, pixels = [], []
    n_nodes = 0
    for fid in frame_ids:
        starts = [row for row, _ in blocks[fid]]
        sizes = np.array([len(px) for _, px in blocks[fid]])
        px = np.concatenate([px for _, px in blocks[fid]])
        u, v = np.rint(px).T
        u0, u1, v0, v1 = u.min(), u.max(), v.min(), v.max()
        # bounds first, so an out-of-range pixel never reaches the cast
        if not (np.abs([u0, u1, v0, v1]).max() < 2**31 and (u1 - u0 + 1) * (v1 - v0 + 1) < 2**62):
            raise DataError(
                f"frame {fid}: match pixels must be finite, round to below 2**31 in magnitude and span "
                f"fewer than 2**62 keys, got rounded pixels from ({u0}, {v0}) to ({u1}, {v1})"
            )
        key = (v - v0).astype(np.int64) * int(u1 - u0 + 1) + (u - u0).astype(np.int64)
        _, first, rank = np.unique(key, return_index=True, return_inverse=True)
        rank += n_nodes
        offsets = np.cumsum(sizes) - sizes
        for start, n, offset in zip(starts, sizes.tolist(), offsets.tolist()):
            node[start : start + 2 * n : 2] = rank[offset : offset + n]
        block = np.searchsorted(offsets, first, side="right") - 1
        firsts.append(np.asarray(starts)[block] + 2 * (first - offsets[block]))
        pixels.append(px[first])
        n_nodes += len(first)
    node_frame = np.repeat(frame_ids, [len(p) for p in pixels])
    return node, np.concatenate(firsts), node_frame, np.concatenate(pixels)


def merge_tracks(all_matches, merged) -> Tracks:
    """Connected components over one keypoint table, then fusion per component.

    The table lists both keypoints of every pair: match sets in order,
    pairs in order, frame_i before frame_j. Keypoint identity is (frame id,
    pixel rounded half to even); an identity keeps the first subpixel
    coordinate the table holds for it. Components with two keypoints in
    one frame are ambiguous and discarded. The remaining keypoints are
    lifted with one merged.sample call per frame, and a component keeps
    only its valid samples, needing at least 2 of them. Fusion follows
    x = sum(C_k x_k) / sum(C_k) and C = sum(C_k) / K, over one (count, K)
    block per track length K; each block sums its rows as a single track's
    arrays would, so the bits do not depend on the blocking.

    Tracks come out in the order of their first keypoint in the table,
    each with its observations sorted by frame id.

    The table is never built: _intern_keypoints numbers the keypoints one
    frame at a time. Beyond the match sets, the merge holds the node of
    every table row (8 bytes per keypoint), the pair graph as CSR with
    1-byte data, and one frame's work arrays; node is freed before the
    components are found. Its traced peak stays below twice the bytes of
    the input pixels (tests/test_tracking.py checks a ~200k-pair table).
    """
    all_matches = [ms for ms in all_matches if len(ms)]
    if not all_matches:
        return Tracks([], [], [], [], [])
    node, first, node_frame, node_pixel = _intern_keypoints(all_matches)
    n_rows, n_nodes = len(node), len(first)
    pairs = csr_matrix((np.ones(n_rows // 2, dtype=bool), (node[0::2], node[1::2])), shape=(n_nodes, n_nodes))
    del node
    n_comp, label = connected_components(pairs, directed=False)
    del pairs

    first_row = np.full(n_comp, n_rows)
    np.minimum.at(first_row, label, first)
    order = np.lexsort((node_frame, first_row[label]))
    comp, obs_frame = label[order], node_frame[order]
    ambiguous = np.zeros(n_comp, dtype=bool)
    ambiguous[comp[1:][(comp[1:] == comp[:-1]) & (obs_frame[1:] == obs_frame[:-1])]] = True
    order = order[~ambiguous[comp]]
    obs_frame, obs_pixel = node_frame[order], node_pixel[order]

    pts = np.empty((len(order), 3))
    confs = np.empty(len(order))
    ok = np.empty(len(order), dtype=bool)
    for fid in np.unique(obs_frame):
        rows = np.flatnonzero(obs_frame == fid)
        pts[rows], confs[rows], ok[rows] = merged.sample(int(fid), obs_pixel[rows])

    # Components stay contiguous in order; keep the valid samples of those
    # with at least 2 of them.
    comp = label[order][ok]
    lengths = np.diff(np.flatnonzero(np.diff(comp, prepend=-1, append=-1)))
    keep = np.repeat(lengths >= 2, lengths)
    lengths = lengths[lengths >= 2]
    pts, confs = pts[ok][keep], confs[ok][keep]

    starts = np.cumsum(lengths) - lengths
    points = np.empty((len(lengths), 3))
    confidences = np.empty(len(lengths))
    for n in np.unique(lengths):
        sel = np.flatnonzero(lengths == n)
        rows = starts[sel, None] + np.arange(n)
        p, c = pts[rows], confs[rows]
        total = c.sum(axis=1)
        w = total > 0
        points[sel] = p.mean(axis=1)
        points[sel[w]] = (c[w, :, None] * p[w]).sum(axis=1) / total[w, None]
        confidences[sel] = total / n
    return Tracks(points, confidences, lengths, obs_frame[ok][keep], obs_pixel[ok][keep])


def run_tracking(
    m,
    merged,
    matcher,
    k: int = 5,
    tau_reproj: float = 8.0,
    max_keypoints: int = 4096,
) -> TrackingResult:
    """Graph, per-edge matching, verification, then merge_tracks.

    merged is the MergedGeometry of the aligned clusters; verification and
    fusion lift pixels and project points only through it. The matcher is
    invoked once per graph edge (at most k * n times), in edge order; an
    edge whose matcher call raises DataError (such as a MatchSet holding a
    non-finite pixel) is skipped and counted in failed_edges, while any
    other exception propagates. This is the one keypoint cap, for any
    matcher: a match set keeps its first max_keypoints pairs.
    """
    if max_keypoints < 1:
        raise ConfigError(f"max_keypoints must be >= 1, got {max_keypoints}")

    graph = build_frame_graph(m, k)
    missing = {f for edge in graph.edges for f in edge} - set(merged.frames())
    if missing:
        raise MissingFrameError(
            f"graph edges reference frames missing from all clusters: {sorted(missing)[:5]}"
        )

    verified = []
    failures = 0
    for i, j in graph.edges:
        try:
            ms = matcher(i, j)
        except DataError:
            failures += 1
            continue
        if len(ms) > max_keypoints:
            ms = ms.select(slice(max_keypoints))
        verified.append(verify_matches(ms, merged, tau_reproj))

    tracks = merge_tracks(verified, merged)
    return TrackingResult(
        tracks=tracks,
        graph=graph,
        matcher_invocations=len(graph.edges),
        failed_edges=failures,
    )
