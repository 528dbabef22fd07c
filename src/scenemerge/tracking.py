"""Multi-view track building over a sparse k-NN frame graph.

Pairwise matches are verified by bidirectional reprojection against the
globally aligned geometry, then merged into tracks: the connected
components of the match graph over keypoints keyed on (frame id, rounded
pixel). Every pixel is lifted to 3D through MergedGeometry.sample. Each
track fuses its per-observation 3D points by confidence-weighted
averaging; the fused confidence is the mean of the observation
confidences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .errors import ConfigError, DataError, MissingFrameError
from .geometry import project_points

__all__ = [
    "MatchSet",
    "FrameGraph",
    "Track",
    "TrackingResult",
    "build_frame_graph",
    "verify_matches",
    "merge_tracks",
    "run_tracking",
]


@dataclass(frozen=True)
class MatchSet:
    """Putative pixel correspondences between two frames."""

    frame_i: int
    frame_j: int
    pixels_i: np.ndarray
    pixels_j: np.ndarray
    scores: np.ndarray | None = None

    def __post_init__(self):
        if self.frame_i == self.frame_j:
            raise ConfigError(f"match set must connect two distinct frames, got {self.frame_i} twice")
        pi = np.asarray(self.pixels_i, dtype=np.float64).reshape(-1, 2)
        pj = np.asarray(self.pixels_j, dtype=np.float64).reshape(-1, 2)
        if len(pi) != len(pj):
            raise DataError(f"match set pixel counts differ: {len(pi)} vs {len(pj)}")
        object.__setattr__(self, "pixels_i", pi)
        object.__setattr__(self, "pixels_j", pj)
        if self.scores is not None:
            s = np.asarray(self.scores, dtype=np.float64).reshape(-1)
            if len(s) != len(pi):
                raise DataError(f"match scores length {len(s)} != pair count {len(pi)}")
            if np.any(s < 0) or np.any(s > 1):
                raise DataError("match scores must lie in [0, 1]")
            object.__setattr__(self, "scores", s)

    def __len__(self) -> int:
        return len(self.pixels_i)

    def select(self, rows) -> MatchSet:
        """The pairs at rows (an index array, slice or boolean mask)."""
        scores = None if self.scores is None else self.scores[rows]
        return MatchSet(self.frame_i, self.frame_j, self.pixels_i[rows], self.pixels_j[rows], scores)


@dataclass(frozen=True)
class Track:
    """A fused 3D point with its pixel observations across frames."""

    point: np.ndarray
    confidence: float
    observations: list = field(default_factory=list)

    def __post_init__(self):
        object.__setattr__(self, "point", np.asarray(self.point, dtype=np.float64))
        if self.point.shape != (3,):
            raise DataError(f"track point must have shape (3,), got {self.point.shape}")
        if not np.isfinite(self.confidence) or self.confidence < 0:
            raise DataError(f"track confidence must be finite and >= 0, got {self.confidence}")
        if len(self.observations) < 2:
            raise DataError(f"track needs >= 2 observations, got {len(self.observations)}")
        frames = [f for f, _ in self.observations]
        if len(set(frames)) != len(frames):
            raise DataError("track holds two observations in one frame")

    def __len__(self) -> int:
        return len(self.observations)

    def frames(self) -> list[int]:
        return [f for f, _ in self.observations]


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

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n_frames, dtype=np.int64)
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg


@dataclass(frozen=True)
class TrackingResult:
    """Tracks plus bookkeeping from the per-edge matching phase."""

    tracks: list
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
    edges = []
    seen = set()
    for i in range(n):
        order = np.argsort(-m.values[i], kind="stable")
        added = 0
        for j in order:
            j = int(j)
            if j == i:
                continue
            pair = (i, j) if i < j else (j, i)
            if pair in seen:
                continue
            seen.add(pair)
            edges.append(pair)
            added += 1
            if added == k:
                break
    return FrameGraph(n_frames=n, edges=edges)


def verify_matches(ms: MatchSet, merged, tau_reproj: float = 8.0) -> MatchSet:
    """Bidirectional reprojection gate at tau_reproj pixels.

    A pair survives iff both pixels sample valid depth, the point that
    merged.sample lifts from pixel i reprojects through merged's camera of
    frame j within tau_reproj of its partner (landing in front of the
    camera), and the symmetric j to i check passes.
    """
    if not (np.isfinite(tau_reproj) and tau_reproj > 0):
        raise ConfigError(f"tau_reproj must be positive and finite, got {tau_reproj}")
    if len(ms) == 0:
        return ms
    keep = np.ones(len(ms), dtype=bool)
    for src, pix_src, dst, pix_dst in (
        (ms.frame_i, ms.pixels_i, ms.frame_j, ms.pixels_j),
        (ms.frame_j, ms.pixels_j, ms.frame_i, ms.pixels_i),
    ):
        pts, _, valid = merged.sample(src, pix_src)
        uv, in_front = project_points(pts, merged.camera(dst))
        err = np.linalg.norm(np.where(np.isfinite(uv), uv, np.inf) - pix_dst, axis=1)
        keep &= valid & in_front & (err <= tau_reproj)
    return ms.select(keep)


def _intern_keypoints(all_matches):
    """Keypoint identities of the merge_tracks table (non-empty match sets).

    Returns (node of each table row, first table row of each node, node
    frame ids, node subpixel coordinates). Each row is keyed by one int64,
    the mixed-radix number (frame index, rounded row, rounded column), so
    np.unique runs on a flat array no larger than the table.
    """
    lo = np.rint(np.min([np.minimum(ms.pixels_i.min(axis=0), ms.pixels_j.min(axis=0)) for ms in all_matches], axis=0))
    hi = np.rint(np.max([np.maximum(ms.pixels_i.max(axis=0), ms.pixels_j.max(axis=0)) for ms in all_matches], axis=0))
    frame_ids = sorted({f for ms in all_matches for f in (ms.frame_i, ms.frame_j)})
    w, h = (hi - lo + 1).tolist()
    if not (np.abs([lo, hi]).max() < 2**31 and len(frame_ids) * w * h < 2**62):
        raise DataError(
            f"match pixels must be finite and span fewer than 2**62 keys, got rounded pixels "
            f"from {lo.tolist()} to {hi.tolist()} over {len(frame_ids)} frames"
        )
    w, h, lo = int(w), int(h), lo.astype(np.int64)
    frame_index = {f: i for i, f in enumerate(frame_ids)}
    n_rows = 2 * sum(len(ms) for ms in all_matches)
    key = np.empty(n_rows, dtype=np.int64)
    start = 0
    for ms in all_matches:
        for side, fid, px in ((0, ms.frame_i, ms.pixels_i), (1, ms.frame_j, ms.pixels_j)):
            u, v = (np.rint(px).astype(np.int64) - lo).T
            key[start + side : start + 2 * len(ms) : 2] = (frame_index[fid] * h + v) * w + u
        start += 2 * len(ms)
    uniq, first, node = np.unique(key, return_index=True, return_inverse=True)
    del key
    node_frame = np.asarray(frame_ids)[uniq // (w * h)]
    # An identity keeps the subpixel coordinate of its first table row. The
    # pixel table is built after np.unique has released its work arrays.
    pixels = np.empty((n_rows, 2))
    pixels[0::2] = np.concatenate([ms.pixels_i for ms in all_matches])
    pixels[1::2] = np.concatenate([ms.pixels_j for ms in all_matches])
    return node, first, node_frame, pixels[first]


def merge_tracks(all_matches, merged, min_track_len: int = 2) -> list:
    """Connected components over one keypoint table, then fusion per component.

    The table lists both keypoints of every pair: match sets in order,
    pairs in order, frame_i before frame_j. Keypoint identity is (frame id,
    pixel rounded half to even); an identity keeps the first subpixel
    coordinate the table holds for it. Components with two keypoints in
    one frame are ambiguous and discarded, as are components shorter than
    min_track_len. The remaining keypoints are lifted with one
    merged.sample call per frame, and a component keeps only its valid
    samples, needing at least min_track_len of them. Fusion follows
    x = sum(C_k x_k) / sum(C_k) and C = sum(C_k) / K.

    Tracks come out in the order of their first keypoint in the table,
    each with its observations sorted by frame id.
    """
    if min_track_len < 2:
        raise ConfigError(f"min_track_len must be >= 2, got {min_track_len}")
    all_matches = [ms for ms in all_matches if len(ms)]
    if not all_matches:
        return []
    node, first, node_frame, node_pixel = _intern_keypoints(all_matches)
    n_nodes = len(first)
    pairs = coo_matrix((np.ones(len(node) // 2), (node[0::2], node[1::2])), shape=(n_nodes, n_nodes))
    n_comp, label = connected_components(pairs, directed=False)

    first_row = np.full(n_comp, len(node))
    np.minimum.at(first_row, label, first)
    order = np.lexsort((node_frame, first_row[label]))
    comp, obs_frame = label[order], node_frame[order]
    ambiguous = np.zeros(n_comp, dtype=bool)
    ambiguous[comp[1:][(comp[1:] == comp[:-1]) & (obs_frame[1:] == obs_frame[:-1])]] = True
    usable = (np.bincount(label, minlength=n_comp) >= min_track_len) & ~ambiguous
    order = order[usable[comp]]
    comp, obs_frame, obs_pixel = label[order], node_frame[order], node_pixel[order]

    pts = np.empty((len(order), 3))
    confs = np.empty(len(order))
    ok = np.empty(len(order), dtype=bool)
    for fid in np.unique(obs_frame):
        rows = np.flatnonzero(obs_frame == fid)
        pts[rows], confs[rows], ok[rows] = merged.sample(int(fid), obs_pixel[rows])

    tracks = []
    starts = np.flatnonzero(np.r_[True, comp[1:] != comp[:-1]])
    for lo, hi in zip(starts, np.r_[starts[1:], len(comp)]):
        good = ok[lo:hi]
        if good.sum() < min_track_len:
            continue
        p, c = pts[lo:hi][good], confs[lo:hi][good]
        total = c.sum()
        fused = (c[:, None] * p).sum(axis=0) / total if total > 0 else p.mean(axis=0)
        tracks.append(
            Track(
                point=fused,
                confidence=float(total / len(p)),
                observations=[(int(f), uv) for f, uv in zip(obs_frame[lo:hi][good], obs_pixel[lo:hi][good])],
            )
        )
    return tracks


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
    edge whose matcher call raises DataError is skipped and counted in
    failed_edges, while any other exception propagates. Match sets larger
    than max_keypoints are truncated.
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
