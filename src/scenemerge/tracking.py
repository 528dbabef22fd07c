"""Multi-view track building over a sparse k-NN frame graph.

Pairwise matches are verified by bidirectional reprojection against the
globally aligned geometry, then merged into tracks with a disjoint-set
union keyed on (frame id, rounded pixel). Each track fuses its
per-observation 3D points by confidence-weighted averaging; the fused
confidence is the mean of the observation confidences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, MissingFrameError
from .geometry import project_points, unproject_pixels

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


def verify_matches(
    ms: MatchSet,
    cam_i,
    depth_i,
    cam_j,
    depth_j,
    tau_reproj: float = 8.0,
    scale_i: float = 1.0,
    scale_j: float = 1.0,
) -> MatchSet:
    """Bidirectional reprojection gate at tau_reproj pixels.

    A pair survives iff both pixels sample valid depth, the unprojection
    of pixel i reprojects into frame j within tau_reproj of its partner
    (landing in front of the camera), and the symmetric j to i check
    passes. Depth values are multiplied by scale_i/scale_j before
    unprojection so cluster-local maps can be verified against
    globally-aligned cameras.
    """
    if tau_reproj <= 0:
        raise ConfigError(f"tau_reproj must be positive, got {tau_reproj}")
    if len(ms) == 0:
        return ms
    keep = np.ones(len(ms), dtype=bool)
    for pix_src, pix_dst, cam_src, cam_dst, depth_src, s_src in (
        (ms.pixels_i, ms.pixels_j, cam_i, cam_j, depth_i, scale_i),
        (ms.pixels_j, ms.pixels_i, cam_j, cam_i, depth_j, scale_j),
    ):
        d, valid = depth_src.sample_nearest(pix_src)
        keep &= valid
        pts = unproject_pixels(pix_src, np.where(valid, d, 1.0) * s_src, cam_src)
        uv, in_front = project_points(pts, cam_dst)
        keep &= in_front
        err = np.linalg.norm(np.where(np.isfinite(uv), uv, np.inf) - pix_dst, axis=1)
        keep &= err <= tau_reproj
    return MatchSet(
        frame_i=ms.frame_i,
        frame_j=ms.frame_j,
        pixels_i=ms.pixels_i[keep],
        pixels_j=ms.pixels_j[keep],
        scores=None if ms.scores is None else ms.scores[keep],
    )


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


def merge_tracks(all_matches, merged, min_track_len: int = 2) -> list:
    """DSU over keypoints, then confidence-weighted fusion per component.

    Keypoint identity is (frame id, pixel rounded to the nearest integer);
    the first subpixel coordinate seen for an identity is kept. Components
    with two distinct keypoints in one frame are ambiguous and discarded,
    as are components shorter than min_track_len. Fusion follows
    x = sum(C_k x_k) / sum(C_k) and C = sum(C_k) / K with per-observation
    points unprojected from the merged global geometry and confidences
    sampled at the nearest pixel.
    """
    if min_track_len < 2:
        raise ConfigError(f"min_track_len must be >= 2, got {min_track_len}")
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
        if len(nodes) < min_track_len:
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
        if ok.sum() < min_track_len:
            continue
        pts, confs = pts[ok], confs[ok]
        kept = [i for i, good in enumerate(ok) if good]
        total = confs.sum()
        if total > 0:
            fused = (confs[:, None] * pts).sum(axis=0) / total
        else:
            fused = pts.mean(axis=0)
        tracks.append(
            Track(
                point=fused,
                confidence=float(total / len(pts)),
                observations=[(obs_frames[i], pixels[i].copy()) for i in kept],
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
    min_track_len: int = 2,
) -> TrackingResult:
    """Graph, per-edge matching, verification, DSU, and fusion.

    merged is the MergedGeometry of the aligned clusters; verification and
    fusion read every frame's camera and depth from it. The matcher is
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
            ms = MatchSet(
                frame_i=ms.frame_i,
                frame_j=ms.frame_j,
                pixels_i=ms.pixels_i[:max_keypoints],
                pixels_j=ms.pixels_j[:max_keypoints],
                scores=None if ms.scores is None else ms.scores[:max_keypoints],
            )
        cam_i, depth_i, _, s_i = merged.frame_geometry(i)
        cam_j, depth_j, _, s_j = merged.frame_geometry(j)
        verified.append(verify_matches(ms, cam_i, depth_i, cam_j, depth_j, tau_reproj, s_i, s_j))

    tracks = merge_tracks(verified, merged, min_track_len=min_track_len)
    return TrackingResult(
        tracks=tracks,
        graph=graph,
        matcher_invocations=len(graph.edges),
        failed_edges=failures,
    )
