"""Multi-view track building over a sparse k-NN frame graph.

Pairwise matches are cut into blocks of many edges' rows and verified by
bidirectional reprojection against the globally aligned geometry, one
block per call, which returns the rows that pass, then merged into tracks:
the connected components of the match graph over keypoints keyed on
(frame id, rounded pixel). Each verified block and its kept rows stream
into a KeypointTable, which keeps one sorted keypoint table per frame and
unions each batch of pairs into one int32 parent array over the keypoints
as it is interned (hook and compress, in numpy), so neither the match
sets nor the pairs are kept and tracking memory grows with keypoints, not
pairs.
The gate reads depth and cameras from MergedGeometry's per-frame tables
and moves each pixel into the other camera through the edge's relative
pose, forming no world point; fusion lifts keypoints to 3D with their
confidences through MergedGeometry.sample. Each track fuses its
per-observation 3D points by confidence-weighted averaging; the fused
confidence is the mean of the observation confidences.

All tracks live in one Tracks table (see its docstring). Canonical order:
tracks by their first row in merge_tracks' keypoint table, each track's
observations by frame id; tracks.bin stores the table as is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, MissingFrameError

__all__ = [
    "MatchSet",
    "MatchBlock",
    "KeypointTable",
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
    """Tracks plus bookkeeping from the per-edge matching phase: the
    verified pairs and the distinct keypoints they hold."""

    tracks: Tracks
    graph: FrameGraph
    matcher_invocations: int
    failed_edges: int
    keypoints: int
    verified_pairs: int


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


@dataclass(frozen=True)
class MatchBlock:
    """Consecutive rows of several match sets, verified in one gate call.

    The block is cut into pieces, each a run of rows of one match set:
    frames (E, 2) holds each piece's (frame_i, frame_j) and counts (E,) its
    row count, and pixels_i and pixels_j (N, 2) hold the rows of every piece
    in order. len() is N, the pairs offered.
    """

    frames: np.ndarray
    counts: np.ndarray
    pixels_i: np.ndarray
    pixels_j: np.ndarray

    @classmethod
    def of(cls, pieces) -> "MatchBlock":
        """The block of (match set, row slice) pieces, in order."""
        pieces = list(pieces)
        pixels_i = [ms.pixels_i[rows] for ms, rows in pieces]
        return cls(
            frames=np.array([(ms.frame_i, ms.frame_j) for ms, _ in pieces], dtype=np.int64).reshape(-1, 2),
            counts=np.array([len(p) for p in pixels_i], dtype=np.int64),
            pixels_i=np.concatenate(pixels_i).reshape(-1, 2),
            pixels_j=np.concatenate([ms.pixels_j[rows] for ms, rows in pieces]).reshape(-1, 2),
        )

    def __len__(self) -> int:
        return len(self.pixels_i)


def verify_matches(block: MatchBlock, merged, tau_reproj: float = 8.0) -> np.ndarray:
    """Bidirectional reprojection gate at tau_reproj pixels: the rows of
    block that pass, in ascending order, as an int array.

    A pair passes iff both pixels sample valid depth, pixel i moved at its
    depth into frame j's camera lands in front of it within tau_reproj of
    its partner, and the symmetric j to i check passes. merged's per-frame
    tables give each row's depth (MergedGeometry.depths) and each piece's
    transfer (_transfers); no world point is formed. Each direction
    transfers only the rows that can still pass, and the reverse check runs
    only on the pairs that survive the forward one, so the rows kept are
    those of checking both directions on every pair.
    """
    if not (np.isfinite(tau_reproj) and tau_reproj > 0):
        raise ConfigError(f"tau_reproj must be positive and finite, got {tau_reproj}")
    if len(block) == 0:
        return np.empty(0, dtype=np.intp)
    frame_i, frame_j = merged.table_rows(block.frames[:, 0]), merged.table_rows(block.frames[:, 1])
    keep = _passes(merged, block.counts, frame_i, block.pixels_i, frame_j, block.pixels_j, tau_reproj)
    back = _passes(
        merged,
        _runs(keep, block.counts),
        frame_j,
        block.pixels_j.take(keep, axis=0),
        frame_i,
        block.pixels_i.take(keep, axis=0),
        tau_reproj,
    )
    return keep.take(back)


def _runs(rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """How many of rows (ascending) fall in each piece of counts rows."""
    return np.diff(np.searchsorted(rows, np.cumsum(counts)), prepend=0)


def _transfers(merged, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """(12, E): for each piece, from table row src to table row dst, the
    3x3 matrix a (row-major) and vector b with which a source pixel (u, v)
    at depth z lands at the homogeneous destination pixel
    q = z * a @ (u, v, 1) + b. With K the pinhole matrices and the relative
    pose r = R_dst R_src^T, t = t_dst - r t_src: a = K_dst r K_src^-1 and
    b = K_dst t."""
    r = merged.rotations.take(dst, axis=0) @ merged.rotations.take(src, axis=0).transpose(0, 2, 1)
    t = merged.translations.take(dst, axis=0) - np.einsum("eij,ej->ei", r, merged.translations.take(src, axis=0))
    k_src, k_dst = (_pinhole_matrices(merged.intrinsics.take(rows, axis=0)) for rows in (src, dst))
    a = k_dst @ r @ np.linalg.inv(k_src)
    b = np.einsum("eij,ej->ei", k_dst, t)
    return np.ascontiguousarray(np.concatenate([a.reshape(-1, 9), b], axis=1).T)


def _pinhole_matrices(k: np.ndarray) -> np.ndarray:
    """(E, 3, 3) matrices [[fx, 0, cx], [0, fy, cy], [0, 0, 1]] of (E, 4)
    intrinsics rows [fx, fy, cx, cy]."""
    m = np.zeros((len(k), 3, 3))
    m[:, 0, 0], m[:, 1, 1], m[:, 0, 2], m[:, 1, 2], m[:, 2, 2] = *k.T, 1
    return m


def _passes(merged, counts, src, pix_src, dst, pix_dst, tau_reproj: float) -> np.ndarray:
    """Rows of pix_src, in pieces of counts rows each moving from table row
    src[piece] to dst[piece], whose pixel moved at its depth lands in front
    of the dst camera within tau_reproj of its partner in pix_dst.

    Only the rows with valid depth are moved, and each piece's transfer is
    repeated over its rows, so no per-row index is built. A row behind the
    camera gets a NaN homogeneous depth there, which fails the comparison
    quietly; the others' pixels are finite or, on overflow, infinite, and
    neither needs a guard.
    """
    rows, _, z = merged.depths(np.repeat(src, counts), pix_src)
    transfer, runs = _transfers(merged, src, dst), _runs(rows, counts)
    u, v = pix_src.take(rows, axis=0).T

    def moved(k):
        """Homogeneous coordinate k of every row's moved pixel,
        z * (a[k, 0] * u + a[k, 1] * v + a[k, 2]) + b[k], in place."""
        q = np.repeat(transfer[3 * k], runs)
        q *= u
        q += np.repeat(transfer[3 * k + 1], runs) * v
        q += np.repeat(transfer[3 * k + 2], runs)
        q *= z
        q += np.repeat(transfer[9 + k], runs)
        return q

    w = moved(2)
    w[w <= 0] = np.nan
    # clipped so a huge pixel cannot overflow the square; it fails either
    # way. sqrt(du * du + dv * dv) is np.linalg.norm's sum over two columns.
    lim = 2 * tau_reproj
    du = np.clip(moved(0) / w - pix_dst[:, 0].take(rows), -lim, lim)
    dv = np.clip(moved(1) / w - pix_dst[:, 1].take(rows), -lim, lim)
    return rows[np.sqrt(du * du + dv * dv) <= tau_reproj]


# Pending keypoint rows (two per pair) that trigger interning and a union.
_FLUSH_ROWS = 65_536


class KeypointTable:
    """Verified pairs unioned into components over one keypoint table per frame.

    The rows of the table are both keypoints of every pair added: blocks in
    the order added, the pairs of each at the kept rows given in order,
    frame_i before frame_j, so pair p holds rows 2p and 2p + 1. Keypoint
    identity is (frame id, pixel rounded half to even); a keypoint keeps the
    first table row and first subpixel coordinate the table holds for it.
    add() keeps no block: the kept pixels of each of its pieces wait in a
    per-frame buffer until _FLUSH_ROWS rows are pending. A flush
    interns each pending frame with one sort over its rounded (row, column)
    keys, merged into that frame's sorted key table, then unions the
    flushed pairs into one int32 parent array over the keypoints (_union)
    and drops their ids. So besides the buffer, the table grows with
    keypoints, not pairs. The buffer lets one sort serve many match sets; a
    sorted insert per set made run_tracking 40% slower on the bench's
    object-200 scene. Iterating the table yields one range of pair numbers
    per add() that kept at least one pair, in order.

    Ids are handed out as keypoints are interned, so they follow the flush
    order; nothing downstream reads their values. keypoints() flushes and
    hands over the per-keypoint arrays in id order with each keypoint's
    component root; the table then takes no more pairs.
    """

    def __init__(self):
        self._pending = {}  # frame id -> [(first table row, pixels)]
        self._pending_rows = 0
        self._n_rows = 0
        self._sets = []  # pair numbers of each match set with pairs
        self._keys = {}  # frame id -> (sorted int64 keys, their int32 ids)
        self._first = [np.empty(0, dtype=np.int64)]  # per id, in id order
        self._pixels = [np.empty((0, 2))]
        self._runs = []  # (frame id, count) of each interned run of ids, in id order
        self._parent = np.empty(0, dtype=np.int32)  # union-find forest over the ids
        self.n_keypoints = 0

    def __iter__(self):
        return iter(self._sets)

    @property
    def n_pairs(self) -> int:
        return self._n_rows // 2

    def add(self, block: MatchBlock, rows: np.ndarray) -> None:
        """Append the pairs of block at rows, the ascending int array of
        kept rows verify_matches returns for it, to the table."""
        if self._keys is None:
            raise ConfigError("keypoint table has handed over its keypoints; it takes no more match sets")
        if not len(rows):
            return
        counts = _runs(rows, block.counts)  # kept rows of each piece
        starts = np.cumsum(counts) - counts
        for (fi, fj), start, n in zip(block.frames.tolist(), starts.tolist(), counts.tolist()):
            if n:
                kept = rows[start : start + n]
                for side, fid, px in ((0, fi, block.pixels_i), (1, fj, block.pixels_j)):
                    self._pending.setdefault(fid, []).append((self._n_rows + 2 * start + side, px.take(kept, axis=0)))
        self._sets.append(range(self.n_pairs, self.n_pairs + len(rows)))
        self._n_rows += 2 * len(rows)
        self._pending_rows += 2 * len(rows)
        if self._pending_rows >= _FLUSH_ROWS:
            self._flush()

    def _flush(self) -> None:
        """Intern the pending rows, one frame at a time in frame id order,
        then union their pairs."""
        if not self._pending_rows:
            return
        ids = np.empty(self._pending_rows, dtype=np.int32)  # per pending table row
        base = self._n_rows - self._pending_rows
        for fid in sorted(self._pending):
            self._intern(fid, self._pending[fid], ids, base)
        self._pending.clear()
        self._pending_rows = 0
        grown = np.arange(len(self._parent), self.n_keypoints, dtype=np.int32)
        self._parent = np.concatenate([self._parent, grown])
        _union(self._parent, ids.reshape(-1, 2))

    def _intern(self, fid: int, blocks, ids: np.ndarray, base: int) -> None:
        """Write the keypoint id of each pending row of frame fid into ids
        (at its table row minus base), adding the keypoints not yet in the
        frame's key table."""
        table_rows, pixel_blocks = zip(*blocks)
        px = np.concatenate(pixel_blocks)
        uv = np.rint(px)
        # bounds first, so an out-of-range pixel never reaches the cast
        if not np.abs(uv).max() < 2**31:
            (u0, v0), (u1, v1) = uv.min(axis=0), uv.max(axis=0)
            raise DataError(
                f"frame {fid}: match pixels must be finite and round to below 2**31 in magnitude, "
                f"got rounded pixels from ({u0}, {v0}) to ({u1}, {v1})"
            )
        # row-major: the row in the high 32 bits, the signed column added below
        key = uv[:, 1].astype(np.int64) * 2**32 + uv[:, 0].astype(np.int64)
        # what np.unique(key, return_index=True, return_inverse=True)
        # gives, from one unstable argsort: a third of np.unique's time
        order = np.argsort(key)
        key = key.take(order)
        heads = np.ones(len(key), dtype=bool)  # the first sorted row of each key
        np.not_equal(key[1:], key[:-1], out=heads[1:])
        heads = np.flatnonzero(heads)
        uniq, first = key[heads], np.minimum.reduceat(order, heads)

        keys, key_ids = self._keys.get(fid, (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int32)))
        pos = np.searchsorted(keys, uniq)
        seen = keys[np.minimum(pos, len(keys) - 1)] == uniq if len(keys) else np.zeros(len(uniq), dtype=bool)
        new = np.flatnonzero(~seen)
        if self.n_keypoints + len(new) >= 2**31:
            raise DataError(f"frame {fid}: more than 2**31 - 1 keypoints in one table")
        uniq_ids = np.empty(len(uniq), dtype=np.int32)
        uniq_ids[seen] = key_ids[pos[seen]]
        uniq_ids[new] = np.arange(self.n_keypoints, self.n_keypoints + len(new))
        self.n_keypoints += len(new)
        self._runs.append((fid, len(new)))
        # insert the new keys into the frame's sorted table
        at = pos[new] + np.arange(len(new))
        old = np.ones(len(keys) + len(new), dtype=bool)
        old[at] = False
        merged_keys, merged_ids = np.empty(len(old), dtype=np.int64), np.empty(len(old), dtype=np.int32)
        merged_keys[at], merged_keys[old] = uniq[new], keys
        merged_ids[at], merged_ids[old] = uniq_ids[new], key_ids
        self._keys[fid] = merged_keys, merged_ids

        # a block's rows are every other table row from its first; rows
        # counts them from base
        sizes = [len(p) for p in pixel_blocks]
        starts = np.array(table_rows) - base - 2 * (np.cumsum(sizes) - sizes)
        rows = np.repeat(starts, sizes) + 2 * np.arange(len(px))
        first = first[new]
        self._first.append(rows.take(first) + base)
        self._pixels.append(px[first])
        ids[rows.take(order)] = np.repeat(uniq_ids, np.diff(heads, append=len(key)))

    def keypoints(self):
        """(first table row, frame id, subpixel coordinate, component root)
        of every keypoint, in id order.

        A keypoint's root (_find) is the smallest id in its component, so it
        labels the component. The table hands the arrays over, so this runs
        once and the table then takes no more match sets.
        """
        if self._keys is None:
            raise ConfigError("keypoint table has already handed over its keypoints")
        self._flush()
        self._keys = None
        first, self._first = np.concatenate(self._first), None
        pixels, self._pixels = np.concatenate(self._pixels), None
        runs, self._runs = np.array(self._runs, dtype=np.int64).reshape(-1, 2), None
        frames = np.repeat(runs[:, 0], runs[:, 1])
        parent, self._parent = self._parent, None
        return first, frames, pixels, _find(parent, np.arange(len(first), dtype=np.int32))


def _union(parent: np.ndarray, pairs: np.ndarray) -> None:
    """Join, in the int32 forest parent, the components of the two nodes of
    every (pairs, 2) row.

    Hook and compress: each round finds the roots of the pairs still to
    join (_find), and every pair whose roots differ hooks the larger root to
    the smaller (np.minimum.at, against the roots the round started with).
    A root that several pairs hook keeps only the smallest target, so the
    next round checks the hooked root pairs again, until a round hooks
    nothing. A node's parent never exceeds it, so the root of a component
    is its smallest node.
    """
    a, b = pairs[:, 0], pairs[:, 1]
    while len(a):
        a, b = _find(parent, a), _find(parent, b)
        crossing = np.flatnonzero(a != b)
        a, b = a.take(crossing), b.take(crossing)
        a, b = np.maximum(a, b), np.minimum(a, b)
        np.minimum.at(parent, a, b)


def _find(parent: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Root of every node in the forest parent.

    Pointer jumping over the queried nodes only: each round points every one
    of them at its grandparent, so a path made of queried nodes halves in
    length per round, and the nodes end pointing straight at their roots.
    The rest of the forest is left as it is.
    """
    up = parent.take(nodes)
    while not np.array_equal(top := parent.take(up), up):
        parent[nodes] = top
        up = top
    return up


# Keypoints per chunk of merge_tracks' sort-key gather.
_KEY_CHUNK = 65_536


def merge_tracks(table: KeypointTable, merged) -> Tracks:
    """Connected components over one KeypointTable, then fusion per component.

    The table labels each keypoint with its component, found by hook and
    compress as the pairs streamed in (see its docstring for the table rows
    and keypoint identity). Components with two keypoints in one frame are
    ambiguous and discarded. The remaining keypoints are lifted with one
    merged.sample call per frame, and a component keeps only its valid
    samples, needing at least 2 of them. Fusion follows
    x = sum(C_k x_k) / sum(C_k) and C = sum(C_k) / K, over one (count, K)
    block per track length K; each block sums its rows as a single track's
    arrays would, so the bits do not depend on the blocking.

    Tracks come out in the order of their first table row, each with its
    observations sorted by frame id. First rows are unique and a track
    holds each frame once, so neither order reads a keypoint id.

    The merge holds a few arrays per keypoint and nothing per pair, and
    gathers each per-keypoint array into track order once. The sort key is
    written over the first rows _KEY_CHUNK keypoints at a time, so no
    full-size int64 copy of the int32 roots exists. Building a table
    from match sets and merging it peaks below twice the bytes of their
    pixels; run_tracking, which streams verified rows into a table, peaks
    below 0.6x the bytes of the verified pixels, and twice the pairs over
    the same keypoints raise that peak by under 10% (tests/test_tracking.py
    checks these at ~200k pairs).
    """
    first, node_frame, node_pixel, root = table.keypoints()
    if not len(first):
        return Tracks([], [], [], [], [])

    first_row = first.copy()  # each component's first table row, at its root
    np.minimum.at(first_row, root, first)
    # every keypoint's sort key, written over first a chunk at a time, so
    # take never casts all the int32 roots to one int64 index
    for start in range(0, len(root), _KEY_CHUNK):
        chunk = slice(start, start + _KEY_CHUNK)
        first[chunk] = first_row.take(root[chunk])
    del first_row
    order = np.lexsort((node_frame, first))
    del first
    comp, obs_frame = root.take(order), node_frame.take(order)
    del root, node_frame
    ambiguous = np.zeros(len(order), dtype=bool)  # per root
    ambiguous[comp[1:][(comp[1:] == comp[:-1]) & (obs_frame[1:] == obs_frame[:-1])]] = True
    keep = np.flatnonzero(~ambiguous.take(comp))
    comp, obs_frame = comp.take(keep), obs_frame.take(keep)
    obs_pixel = node_pixel.take(order.take(keep), axis=0)
    del node_pixel, order, ambiguous, keep

    pts = np.empty((len(comp), 3))
    confs = np.empty(len(comp))
    ok = np.empty(len(comp), dtype=bool)
    for fid in np.unique(obs_frame):
        rows = np.flatnonzero(obs_frame == fid)
        pts[rows], confs[rows], ok[rows] = merged.sample(int(fid), obs_pixel[rows])

    # Components stay contiguous; keep the valid samples of those with at
    # least 2 of them.
    kept = np.flatnonzero(ok)
    lengths = np.diff(np.flatnonzero(np.diff(comp[kept], prepend=-1, append=-1)))
    kept = kept[np.repeat(lengths >= 2, lengths)]
    lengths = lengths[lengths >= 2]
    points, confidences = _fuse(pts, confs, kept, lengths)
    del pts, confs
    return Tracks(points, confidences, lengths, obs_frame[kept], obs_pixel[kept])


def _fuse(pts, confs, rows, lengths):
    """Confidence-weighted point and mean confidence of each track. The
    tracks' observations are the rows of pts (M, 3) and confs (M,) listed
    in rows, each track's contiguous there."""
    starts = np.cumsum(lengths) - lengths
    points = np.empty((len(lengths), 3))
    confidences = np.empty(len(lengths))
    for n in np.unique(lengths):
        sel = np.flatnonzero(lengths == n)
        block = rows[starts[sel, None] + np.arange(n)]
        p, c = pts[block], confs[block]
        total = c.sum(axis=1)
        confidences[sel] = total / n
        points[sel] = p.mean(axis=1)
        w = total > 0
        if not w.all():
            sel, p, c, total = sel[w], p[w], c[w], total[w]
        p *= c[:, :, None]
        points[sel] = p.sum(axis=1) / total[:, None]
    return points, confidences


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
    fusion read pixels and cameras only through it. The matcher is invoked
    once per graph edge (at most k * n times), in edge order; an edge whose
    matcher call raises DataError (such as a MatchSet holding a non-finite
    pixel), or returns a match set that does not join the edge's two
    frames, is skipped and counted in failed_edges, while any other
    exception propagates. This is the one keypoint cap, for any matcher: a
    match set keeps its first max_keypoints pairs, and only those are
    verified, in blocks of _VERIFY_BLOCK rows (_blocks), each of which goes
    to the keypoint table with its kept rows.
    """
    if max_keypoints < 1:
        raise ConfigError(f"max_keypoints must be >= 1, got {max_keypoints}")

    graph = build_frame_graph(m, k)
    missing = {f for edge in graph.edges for f in edge} - set(merged.frames())
    if missing:
        raise MissingFrameError(
            f"graph edges reference frames missing from all clusters: {sorted(missing)[:5]}"
        )

    failures = 0

    def match_sets():
        nonlocal failures
        for i, j in graph.edges:
            try:
                ms = _edge_matches(matcher, i, j)
            except DataError:
                failures += 1
                continue
            yield ms

    table = KeypointTable()
    for block in _blocks(match_sets(), max_keypoints):
        table.add(block, verify_matches(block, merged, tau_reproj))

    tracks = merge_tracks(table, merged)
    return TrackingResult(
        tracks=tracks,
        graph=graph,
        matcher_invocations=len(graph.edges),
        failed_edges=failures,
        keypoints=table.n_keypoints,
        verified_pairs=table.n_pairs,
    )


def _edge_matches(matcher, i: int, j: int) -> MatchSet:
    """matcher(i, j), or DataError naming the edge when the match set does
    not join frames i and j."""
    ms = matcher(i, j)
    if {ms.frame_i, ms.frame_j} != {i, j}:
        raise DataError(
            f"edge ({i}, {j}): the matcher returned a match set of frames ({ms.frame_i}, {ms.frame_j})"
        )
    return ms


# Rows of match sets verified per verify_matches call.
_VERIFY_BLOCK = 4_096


def _blocks(match_sets, max_keypoints: int):
    """The first max_keypoints rows of every match set, in order, cut into
    MatchBlocks of _VERIFY_BLOCK rows (the last may hold fewer). A block
    holds pieces of many match sets, and a match set may span several
    blocks; a match set with no rows adds no piece."""
    pieces, filled = [], 0  # (match set, row slice) of the block being filled, and its rows
    for ms in match_sets:
        start, stop = 0, min(len(ms), max_keypoints)
        while start < stop:
            end = min(stop, start + _VERIFY_BLOCK - filled)
            pieces.append((ms, slice(start, end)))
            filled += end - start
            start = end
            if filled == _VERIFY_BLOCK:
                yield MatchBlock.of(pieces)
                pieces, filled = [], 0
    if pieces:
        yield MatchBlock.of(pieces)
