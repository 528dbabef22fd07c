"""Multi-view track building over a sparse k-NN frame graph.

Pairwise matches are cut into blocks of many edges' rows and verified by
bidirectional reprojection against the globally aligned geometry, one
block per call, which returns the rows that pass, then merged into tracks:
the connected components of the match graph over keypoints. A keypoint is
the map pixel the gate reads depth at, keyed by its global pixel index
(frame offset + flat pixel index, MergedGeometry.pixel_keys) once, when its
block is cut; the gate and the table read the block's keys. Each verified
block and its kept rows stream into a KeypointTable, which interns a batch
of rows with one sort and unions their pairs into one int32 parent array
over the keypoints (hook and compress, in numpy), so neither the match sets
nor the pairs are kept and tracking memory grows with keypoints, not pairs.
The gate reads depth and cameras from MergedGeometry's per-frame tables
and moves each pixel into the other camera through the edge's relative
pose, forming no world point; fusion lifts keypoints to 3D with their
confidences through MergedGeometry.sample. Each track fuses its
per-observation 3D points by confidence-weighted averaging; the fused
confidence is the mean of the observation confidences.

All tracks live in one Tracks table (see its docstring). Canonical order:
tracks by their union-find root, the id of their first keypoint, each
track's observations by frame id; tracks.bin stores the table as is.
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
    """Putative pixel correspondences between two frames: two (N, 2) arrays of finite pixels."""

    frame_i: int
    frame_j: int
    pixels_i: np.ndarray
    pixels_j: np.ndarray

    def __post_init__(self):
        if self.frame_i == self.frame_j:
            raise ConfigError(f"match set must connect two distinct frames, got {self.frame_i} twice")
        pi = np.asarray(self.pixels_i, dtype=np.float64)
        pj = np.asarray(self.pixels_j, dtype=np.float64)
        if pi.ndim != 2 or pi.shape[1] != 2 or pj.shape != pi.shape:
            raise DataError(f"match set ({self.frame_i}, {self.frame_j}): pixels {pi.shape} and {pj.shape}, not (N, 2)")
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
    in order; keys (N, 2) holds their MergedGeometry.pixel_keys (-1 outside
    the image), computed once, at the cut. len() is N, the pairs offered.
    """

    frames: np.ndarray
    counts: np.ndarray
    pixels_i: np.ndarray
    pixels_j: np.ndarray
    keys: np.ndarray

    @classmethod
    def of(cls, pieces, merged) -> "MatchBlock":
        """The block of (match set, row slice) pieces, in order, keyed in the
        MergedGeometry merged; MissingFrameError names a frame it lacks."""
        pieces = list(pieces)
        frames = np.array([(ms.frame_i, ms.frame_j) for ms, _ in pieces], dtype=np.int64).reshape(-1, 2)
        pixels_i = [ms.pixels_i[rows] for ms, rows in pieces]
        counts = np.array([len(p) for p in pixels_i], dtype=np.int64)
        pixels_i = np.concatenate(pixels_i).reshape(-1, 2)
        pixels_j = np.concatenate([ms.pixels_j[rows] for ms, rows in pieces]).reshape(-1, 2)
        at = np.repeat(merged.table_rows(frames), counts, axis=0)  # each row's two frames' table rows
        keys = np.stack([merged.pixel_keys(at[:, 0], pixels_i), merged.pixel_keys(at[:, 1], pixels_j)], axis=1)
        return cls(frames, counts, pixels_i, pixels_j, keys)

    def __len__(self) -> int:
        return len(self.pixels_i)


def verify_matches(block: MatchBlock, merged, tau_reproj: float = 8.0) -> np.ndarray:
    """Bidirectional reprojection gate at tau_reproj pixels: the rows of
    block that pass, in ascending order, as an int array.

    A pair passes iff both pixels sample valid depth, pixel i moved at its
    depth into frame j's camera lands in front of it within tau_reproj of
    its partner, and the symmetric j to i check passes. merged's per-frame
    tables give each row's depth at its key (MergedGeometry.depths) and each
    piece's transfer (_transfers); no world point is formed. Each direction
    transfers only the rows that can still pass, and the reverse check runs
    only on the pairs that survive the forward one, so the rows kept are
    those of checking both directions on every pair.
    """
    if not (np.isfinite(tau_reproj) and tau_reproj > 0):
        raise ConfigError(f"tau_reproj must be positive and finite, got {tau_reproj}")
    if len(block) == 0:
        return np.empty(0, dtype=np.intp)
    (frame_i, frame_j), (keys_i, keys_j) = merged.table_rows(block.frames).T, block.keys.T
    keep = _passes(merged, block.counts, frame_i, keys_i, block.pixels_i, frame_j, block.pixels_j, tau_reproj)
    kept_i, kept_j = block.pixels_i.take(keep, axis=0), block.pixels_j.take(keep, axis=0)
    back = _passes(merged, _runs(keep, block.counts), frame_j, keys_j.take(keep), kept_j, frame_i, kept_i, tau_reproj)
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


def _passes(merged, counts, src, keys, pix_src, dst, pix_dst, tau_reproj: float) -> np.ndarray:
    """Rows of pix_src (keys their keys), in pieces of counts rows each moving
    from table row src[piece] to dst[piece], whose pixel moved at its depth
    lands in front of the dst camera within tau_reproj of its partner.

    Only the rows with valid depth are moved, and each piece's transfer is
    repeated over its rows, so no per-row index is built. A row behind the
    camera gets a NaN homogeneous depth there, which fails the comparison
    quietly; the others' pixels are finite or, on overflow, infinite, and
    neither needs a guard.
    """
    rows, z = merged.depths(np.repeat(src, counts), keys)
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


# Pending keypoint rows (two per pair) that trigger interning and a union; at
# 65,536 a flush's transients set run_tracking's traced peak (0.69x, not 0.53x).
_FLUSH_ROWS = 32_768


class KeypointTable:
    """Verified pairs unioned into components over the keypoints of merged,
    a MergedGeometry.

    The rows of the table are both keypoints of every pair added: blocks in
    the order added, the pairs of each at the kept rows given in order,
    frame_i before frame_j, so pair p holds rows 2p and 2p + 1. A keypoint
    is a global pixel index, taken as given from the block's keys (a kept
    key of -1, outside the image, raises DataError naming the frame); it
    keeps the subpixel coordinate of its first table row. add() keeps no
    block, only the keys and pixels of its kept rows until _FLUSH_ROWS rows
    are pending. A flush interns them with one sort against one sorted
    table of every key, hands out ids to the new keys in the order of their
    first rows, then unions the pairs into one int32 parent array over the
    ids (_union) and drops them, so the table grows with keypoints, not
    pairs. Ids number the keypoints by first appearance, so a component's
    root, its smallest id, is its first keypoint. Iterating the table yields
    one range of pair numbers per add() that kept a pair, in order.
    keypoints() hands over the per-keypoint arrays in id order with each
    keypoint's component root; the table then takes no more pairs.
    """

    def __init__(self, merged):
        self._merged = merged
        self._pending_keys, self._pending_pixels = [], []  # per add, in table row order
        self._pending_rows = 0
        self._sets = []  # pair numbers of each add with pairs
        self._keys = np.empty(0, dtype=np.int64)  # every key interned, ascending
        self._key_ids = np.empty(0, dtype=np.int32)  # the id of each
        self._pixels = [np.empty((0, 2))]  # per flush: the new ids' pixels, in id order
        self._parent = np.empty(0, dtype=np.int32)  # union-find forest over the ids
        self.n_keypoints = self.n_pairs = 0

    def __iter__(self):
        return iter(self._sets)

    def add(self, block: MatchBlock, rows: np.ndarray) -> None:
        """Append the pairs of block at rows, the ascending int array of
        kept rows verify_matches returns for it, to the table."""
        if self._keys is None:
            raise ConfigError("keypoint table has handed over its keypoints; it takes no more match sets")
        if not len(rows):
            return
        keys = block.keys.take(rows, axis=0)
        if keys.min() < 0:  # a kept pixel outside its image: name the first one's frame
            pair, side = np.argwhere(keys < 0)[0]
            row = rows[pair]
            frame = block.frames[np.searchsorted(np.cumsum(block.counts), row, side="right"), side]
            pixel, k = (block.pixels_i, block.pixels_j)[side][row].tolist(), self._merged.camera(frame).intrinsics
            raise DataError(f"frame {frame}: match pixel {pixel} lies outside its {k.width}x{k.height} image")
        self._pending_keys.append(keys.ravel())
        self._pending_pixels.append(
            np.stack([block.pixels_i.take(rows, axis=0), block.pixels_j.take(rows, axis=0)], axis=1).reshape(-1, 2)
        )
        self._sets.append(range(self.n_pairs, self.n_pairs + len(rows)))
        self.n_pairs += len(rows)
        self._pending_rows += 2 * len(rows)
        if self._pending_rows >= _FLUSH_ROWS:
            self._flush()

    def _flush(self) -> None:
        """Intern the pending rows with one sort and union their pairs, each
        transient freed before the next is made and the new pixels last."""
        n = self._pending_rows
        if not n:
            return
        shift = n.bit_length()  # bits that hold a row number
        if int(self._merged.key_base[-1]) << shift >= 2**63:
            raise DataError(f"{n} pending keypoint rows over {self._merged.key_base[-1]} pixels overflow the sort key")
        # one in-place sort of key << shift | row orders the rows by key, then
        # by row, so each key's run starts at its first row
        key = np.concatenate(self._pending_keys)
        self._pending_keys.clear()
        key <<= shift
        key |= np.arange(n)
        key.sort()
        row = key & ((1 << shift) - 1)
        key >>= shift
        heads = np.ones(n, dtype=bool)  # the first sorted row of each key
        np.not_equal(key[1:], key[:-1], out=heads[1:])
        heads = np.flatnonzero(heads)
        uniq, first = key.take(heads), row.take(heads)
        del key

        pos = np.searchsorted(self._keys, uniq)
        seen = self._keys.take(np.minimum(pos, len(self._keys) - 1)) == uniq if len(self._keys) else pos < 0
        new = np.flatnonzero(~seen)
        if self.n_keypoints + len(new) >= 2**31:
            raise DataError("more than 2**31 - 1 keypoints in one table")
        first = first.take(new)
        opens = np.sort(first)  # the new keys' first rows: their ids follow this order
        ids = np.empty(n, dtype=np.int32)  # per pending row; first the new ids at their first rows
        ids[opens] = np.arange(self.n_keypoints, self.n_keypoints + len(new), dtype=np.int32)
        uniq_ids = np.empty(len(uniq), dtype=np.int32)
        uniq_ids[seen] = self._key_ids.take(pos[seen])
        uniq_ids[new] = ids.take(first)
        pos, fresh = pos.take(new), uniq.take(new)
        del seen, uniq, first
        ids[row] = np.repeat(uniq_ids, np.diff(heads, append=n))
        del row, heads

        self._keys = np.insert(self._keys, pos, fresh)
        self._key_ids = np.insert(self._key_ids, pos, uniq_ids.take(new))
        del pos, fresh, uniq_ids

        self._pixels.append(np.concatenate(self._pending_pixels).take(opens, axis=0))
        self._pending_pixels.clear()
        self._pending_rows = 0
        self.n_keypoints += len(new)
        del opens, new
        self._parent = np.append(self._parent, np.arange(len(self._parent), self.n_keypoints, dtype=np.int32))
        _union(self._parent, ids.reshape(-1, 2))

    def keypoints(self):
        """(frame id, subpixel coordinate, component root) of every keypoint, in id order.

        A keypoint's root (_find) is the smallest id in its component, so it
        labels the component. This runs once: the forest is dropped before
        the outputs are made, the frames read off the sorted key table, and
        the pixels filled part by part.
        """
        if self._keys is None:
            raise ConfigError("keypoint table has already handed over its keypoints")
        self._flush()
        root = _find(self._parent, np.arange(self.n_keypoints, dtype=np.int32))
        self._parent = None
        frames = np.empty(self.n_keypoints, dtype=np.int64)
        runs = np.diff(np.searchsorted(self._keys, self._merged.key_base))
        frames[self._key_ids] = np.repeat(self._merged.frames(), runs)
        self._keys = self._key_ids = None
        return frames, _drain(self._pixels), root


def _drain(parts: list) -> np.ndarray:
    """The concatenation of the non-empty list of arrays parts, filled part
    by part; parts is emptied, each part dropped as it is copied."""
    out = np.empty((sum(map(len, parts)),) + parts[0].shape[1:], dtype=parts[0].dtype)
    end = 0
    while parts:
        part = parts.pop(0)
        out[end : end + len(part)] = part
        end += len(part)
    return out


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


def merge_tracks(table: KeypointTable, merged) -> Tracks:
    """Connected components over one KeypointTable, then fusion per component.

    The table labels each keypoint with its component, found by hook and
    compress as the pairs streamed in (see its docstring for the table rows;
    a keypoint is a global pixel index of merged, one per map pixel).
    Components with two keypoints in one frame are
    ambiguous and discarded. The remaining keypoints are lifted with one
    merged.sample call per frame, and a component keeps only its valid
    samples, needing at least 2 of them. Fusion follows
    x = sum(C_k x_k) / sum(C_k) and C = sum(C_k) / K, over one (count, K)
    block per track length K; each block sums its rows as a single track's
    arrays would, so the bits do not depend on the blocking.

    One lexsort by (root, frame id) puts the tracks in the order of their
    first keypoint in the table, each with its observations by frame id.

    The merge holds a few arrays per keypoint and nothing per pair, and
    gathers each per-keypoint array into track order once. Building a table
    from match sets and merging it peaks below twice the bytes of their
    pixels; run_tracking, which streams verified rows into a table, peaks
    below 0.6x the bytes of the verified pixels, and twice the pairs over
    the same keypoints raise that peak by under 10% (tests/test_tracking.py
    checks these at ~200k pairs).
    """
    node_frame, node_pixel, root = table.keypoints()
    if not len(root):
        return Tracks([], [], [], [], [])

    order = np.lexsort((node_frame, root))
    comp = root.take(order)
    del root
    obs_frame = node_frame.take(order)
    del node_frame
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

    table = KeypointTable(merged)
    for block in _blocks(match_sets(), merged, max_keypoints):
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


def _blocks(match_sets, merged, max_keypoints: int):
    """The first max_keypoints rows of every match set, in order, cut into
    MatchBlocks of _VERIFY_BLOCK rows (the last may hold fewer), keyed in
    merged. A block holds pieces of many match sets, and a match set may
    span several blocks; a match set with no rows adds no piece."""
    pieces, filled = [], 0  # (match set, row slice) of the block being filled, and its rows
    for ms in match_sets:
        start, stop = 0, min(len(ms), max_keypoints)
        while start < stop:
            end = min(stop, start + _VERIFY_BLOCK - filled)
            pieces.append((ms, slice(start, end)))
            filled += end - start
            start = end
            if filled == _VERIFY_BLOCK:
                yield MatchBlock.of(pieces, merged)
                pieces, filled = [], 0
    if pieces:
        yield MatchBlock.of(pieces, merged)
