"""Robust Sim(3) alignment of consecutive overlapping clusters.

Correspondences come from shared frames: every pixel valid in both
clusters' depth maps yields a pair of unprojected points, one in each
cluster's own frame, scored by the smaller of the two confidences. A
percentile filter drops low-confidence pairs, then IRLS with a Huber loss
solves for the similarity transform mapping the second cluster into the
first. Per-cluster world transforms follow by chaining the pairwise
estimates from cluster 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clusters import ClusterReconstruction
from .errors import (
    ConfigError,
    DataError,
    DegenerateGeometryError,
    DivergenceError,
    InsufficientOverlapError,
    MissingFrameError,
)
from .geometry import (
    CameraParams,
    PointCloud,
    Sim3Transform,
    apply_sim3,
    compose_sim3,
    transform_camera,
    unproject_pixels,
)

_MAX_PAIRS = 50_000  # correspondences kept per cluster pair
_HUBER_K = 1.345  # 95% Gaussian efficiency
_MAD_SCALE = 1.4826  # MAD to sigma for normal residuals
_DELTA_FLOOR_FRACTION = 1e-6  # of the RMS point spread
_IRLS_MAX_ITERS = 20
_IRLS_TOL = 1e-9  # relative parameter change that ends the iteration


@dataclass(frozen=True)
class CorrespondenceSet:
    """Paired 3D points from two clusters with per-pair confidences."""

    points_a: np.ndarray
    points_b: np.ndarray
    confidences: np.ndarray

    def __post_init__(self):
        pa = np.asarray(self.points_a, dtype=np.float64).reshape(-1, 3)
        pb = np.asarray(self.points_b, dtype=np.float64).reshape(-1, 3)
        c = np.asarray(self.confidences, dtype=np.float64).reshape(-1)
        if not (len(pa) == len(pb) == len(c)):
            raise DataError(
                f"correspondence arrays must be parallel, got {len(pa)}, {len(pb)}, {len(c)}"
            )
        if not (np.all(np.isfinite(pa)) and np.all(np.isfinite(pb)) and np.all(np.isfinite(c))):
            raise DataError("correspondences contain non-finite values")
        if np.any(c < 0):
            raise DataError("correspondence confidences must be nonnegative")
        object.__setattr__(self, "points_a", pa)
        object.__setattr__(self, "points_b", pb)
        object.__setattr__(self, "confidences", c)

    def __len__(self) -> int:
        return len(self.points_a)


@dataclass(frozen=True)
class AlignmentResult:
    """Estimated transform with diagnostics from the IRLS solve."""

    transform: Sim3Transform
    inlier_count: int
    final_objective: float
    iterations_used: int


def extract_overlap_correspondences(
    a: ClusterReconstruction,
    b: ClusterReconstruction,
    conf_percentile: float = 70.0,
) -> CorrespondenceSet:
    """Pair up per-pixel unprojections over the clusters' shared frames.

    For every shared frame and every pixel with valid depth in both
    clusters, the pair (unproject in a, unproject in b) is emitted with
    confidence min(c_a, c_b). The lowest conf_percentile percent of pairs
    are dropped: with n pairs exactly n - floor(n * percentile / 100)
    survive, ties keeping the higher pair index. Survivors beyond _MAX_PAIRS
    are thinned by even spacing (deterministic, no randomness).
    """
    if not (0 <= conf_percentile < 100):
        raise ConfigError(f"conf_percentile must be in [0, 100), got {conf_percentile}")
    shared = sorted(set(a.frame_ids) & set(b.frame_ids))
    if not shared:
        raise InsufficientOverlapError(
            f"clusters {a.cluster_id} and {b.cluster_id} share no frames"
        )

    pts_a, pts_b, confs = [], [], []
    for fid in shared:
        ia, ib = a.frame_index(fid), b.frame_index(fid)
        da = a.depths[ia].astype(np.float64)
        db = b.depths[ib].astype(np.float64)
        valid = (da > 0) & (db > 0)
        if not valid.any():
            continue
        rows, cols = np.nonzero(valid)
        pixels = np.stack([cols, rows], axis=1).astype(np.float64)
        pts_a.append(unproject_pixels(pixels, da[rows, cols], a.cameras[ia]))
        pts_b.append(unproject_pixels(pixels, db[rows, cols], b.cameras[ib]))
        confs.append(np.minimum(a.confidences[ia][rows, cols], b.confidences[ib][rows, cols]))
    if not pts_a:
        raise InsufficientOverlapError(
            f"clusters {a.cluster_id} and {b.cluster_id} have no pixel valid in both depth maps"
        )

    pa = np.concatenate(pts_a)
    pb = np.concatenate(pts_b)
    c = np.concatenate(confs).astype(np.float64)

    n = len(c)
    n_drop = int(np.floor(n * conf_percentile / 100.0))
    if n_drop > 0:
        # stable ascending sort drops lower indices first among ties,
        # so ties keep the higher index
        order = np.argsort(c, kind="stable")
        keep = np.sort(order[n_drop:])
        pa, pb, c = pa[keep], pb[keep], c[keep]
    if len(pa) > _MAX_PAIRS:
        idx = np.unique(np.linspace(0, len(pa) - 1, _MAX_PAIRS).round().astype(np.int64))
        pa, pb, c = pa[idx], pb[idx], c[idx]
    return CorrespondenceSet(points_a=pa, points_b=pb, confidences=c)


def huber_rho(r, delta: float):
    """Huber loss: r^2/2 inside delta, delta*(r - delta/2) outside.

    rho(3, 1) = 1*(3 - 0.5) = 2.5; rho(delta, delta) = delta^2/2 from both
    branches. Accepts scalars or arrays of nonnegative residuals.
    """
    if delta <= 0:
        raise ConfigError(f"huber delta must be positive, got {delta}")
    r = np.asarray(r, dtype=np.float64)
    if np.any(r < 0):
        raise ConfigError("huber residuals must be nonnegative")
    out = np.where(r <= delta, 0.5 * r * r, delta * (r - 0.5 * delta))
    return float(out) if out.ndim == 0 else out


def weighted_umeyama(points_a: np.ndarray, points_b: np.ndarray, weights: np.ndarray) -> Sim3Transform:
    """Closed-form weighted similarity Procrustes: a ~ s R b + t.

    Exact minimizer of sum w_i ||a_i - (s R b_i + t)||^2. Raises
    DegenerateGeometryError for < 3 points, zero total weight, collinear
    configurations (second singular value of the cross-covariance
    vanishes), or zero source variance.
    """
    a = np.asarray(points_a, dtype=np.float64)
    b = np.asarray(points_b, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if len(a) < 3:
        raise DegenerateGeometryError(f"need >= 3 correspondences, got {len(a)}")
    wsum = w.sum()
    if wsum <= 0:
        raise DegenerateGeometryError("total correspondence weight is zero")
    wn = w / wsum
    mu_a = wn @ a
    mu_b = wn @ b
    a0 = a - mu_a
    b0 = b - mu_b
    cov = (a0 * wn[:, None]).T @ b0
    var_b = float(np.sum(wn * np.einsum("ij,ij->i", b0, b0)))
    u, s, vt = np.linalg.svd(cov)
    if var_b <= 0 or s[0] <= 0 or s[1] <= s[0] * 1e-12:
        raise DegenerateGeometryError(
            "correspondences are collinear or coincident; similarity transform is not unique"
        )
    d = np.ones(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0:
        d[2] = -1.0
    rot = u @ np.diag(d) @ vt
    scale = float((s * d).sum() / var_b)
    if scale <= 0:
        raise DegenerateGeometryError(f"recovered nonpositive scale {scale}")
    trans = mu_a - scale * rot @ mu_b
    return Sim3Transform(scale=scale, rotation=rot, translation=trans)


def _sim3_params(t: Sim3Transform) -> np.ndarray:
    return np.concatenate([[t.scale], t.rotation.reshape(-1), t.translation])


def _residuals(c: CorrespondenceSet, t: Sim3Transform) -> np.ndarray:
    return np.linalg.norm(c.points_a - apply_sim3(t, c.points_b), axis=1)


def _huber_delta(residuals: np.ndarray, floor: float) -> float:
    mad = float(np.median(np.abs(residuals - np.median(residuals))))
    return max(_HUBER_K * _MAD_SCALE * mad, floor)


def estimate_sim3_irls(c: CorrespondenceSet) -> AlignmentResult:
    """Huber IRLS for the Sim(3) minimizing sum c_i rho(||a_i - T b_i||).

    Initialization is a confidence-only weighted Umeyama. Each iteration
    recomputes the Huber delta from the MAD of current residuals (floored
    at 1e-6 of the RMS spread of points_a), reweights by
    w_i = c_i * rho'(r_i)/r_i, and re-solves in closed form. The weighted
    Huber objective at the current delta must not increase across a step
    (majorize-minimize guarantee); iteration stops after 20 steps or once
    the relative parameter change drops below 1e-9. Inliers are pairs with
    final residual inside the final delta.
    """
    spread = c.points_a - c.points_a.mean(axis=0)
    rms = float(np.sqrt(np.mean(np.einsum("ij,ij->i", spread, spread))))
    if rms <= 0:
        raise DegenerateGeometryError("target points are coincident")
    floor = _DELTA_FLOOR_FRACTION * rms

    t_init = weighted_umeyama(c.points_a, c.points_b, c.confidences)
    t = t_init
    params = _sim3_params(t)
    iterations = 0
    for _ in range(_IRLS_MAX_ITERS):
        r = _residuals(c, t)
        delta = _huber_delta(r, floor)
        obj_before = float(np.sum(c.confidences * huber_rho(r, delta)))
        with np.errstate(divide="ignore", invalid="ignore"):
            psi_over_r = np.where(r > delta, delta / np.maximum(r, np.finfo(float).tiny), 1.0)
        t_new = weighted_umeyama(c.points_a, c.points_b, c.confidences * psi_over_r)
        obj_after = float(np.sum(c.confidences * huber_rho(_residuals(c, t_new), delta)))
        if obj_after > obj_before + 1e-12 * (1.0 + obj_before):
            raise DivergenceError(
                f"IRLS objective increased: {obj_before} -> {obj_after}", iteration=iterations
            )
        iterations += 1
        new_params = _sim3_params(t_new)
        change = np.linalg.norm(new_params - params) / max(1.0, np.linalg.norm(params))
        t = t_new
        params = new_params
        if change < _IRLS_TOL:
            break

    r_final = _residuals(c, t)
    delta_final = _huber_delta(r_final, floor)
    final_obj = float(np.sum(c.confidences * huber_rho(r_final, delta_final)))
    init_obj = float(np.sum(c.confidences * huber_rho(_residuals(c, t_init), delta_final)))
    if final_obj > init_obj:
        # defensive: adaptive delta cannot guarantee cross-delta descent,
        # so never return something worse than the initialization
        t, r_final, final_obj = t_init, _residuals(c, t_init), init_obj
    return AlignmentResult(
        transform=t,
        inlier_count=int(np.sum(r_final <= delta_final)),
        final_objective=final_obj,
        iterations_used=iterations,
    )


def chain_alignments(pairwise) -> list[Sim3Transform]:
    """World transforms per cluster from consecutive pairwise transforms.

    Pairwise transform k maps cluster k+1 coordinates into cluster k; the
    returned list maps each cluster into cluster 0's frame: out[0] is the
    identity and out[k] = out[k-1] composed with pairwise[k-1].
    """
    out = [Sim3Transform.identity()]
    for t in pairwise:
        out.append(compose_sim3(out[-1], t))
    return out


def _mean_frame_confidence(cluster: ClusterReconstruction, index: int) -> float:
    conf = cluster.confidences[index]
    valid = cluster.depths[index] > 0
    if not valid.any():
        return 0.0
    return float(conf[valid].mean())


def _select_winner_instances(clusters) -> dict:
    """frame_id -> (score, cluster index, frame index) for duplicate frames.

    The instance with the higher mean valid-pixel confidence wins; the
    earlier cluster wins ties.
    """
    winners = {}
    for ci, cluster in enumerate(clusters):
        for fi, fid in enumerate(cluster.frame_ids):
            score = _mean_frame_confidence(cluster, fi)
            if fid not in winners or score > winners[fid][0]:
                winners[fid] = (score, ci, fi)
    return winners


class MergedGeometry:
    """Per-frame globally-aligned geometry for tracking, BA and the dense cloud.

    pipeline.merged_geometry builds it in one pass over the winning cluster
    instance of each frame, and keeps each frame once, as one row of
    per-frame tables in frames() order: its camera mapped into the global
    frame (rotations (F, 3, 3), translations (F, 3) and intrinsics rows
    (F, 4), which the match gate tracking.verify_matches reads), its image
    size, the cluster transform's scale, and which cluster holds its depth
    and confidence maps at what flat offset in that cluster's stacks. The
    maps are read from the stacks in place, never copied. Depth values are
    multiplied by the scale when a pixel is lifted (in float64), since a
    Sim(3)-transformed camera sees all depths scaled. pixel_keys() is the
    one rule from a match pixel to a map pixel, its global pixel index
    key_base[row] + v * W + u: tracking cuts each block of matches once
    through it, and both the gate's depths() and the keypoint identity of
    tracking.KeypointTable read those keys.
    """

    def __init__(self, clusters, transforms):
        if len(clusters) != len(transforms):
            raise ConfigError(
                f"need one transform per cluster, got {len(clusters)} clusters and {len(transforms)} transforms"
            )
        if not clusters:
            raise ConfigError("no clusters to merge")
        winners = _select_winner_instances(clusters)
        self._ids = np.array(sorted(winners), dtype=np.int64)
        holders = [winners[fid][1:] for fid in self._ids.tolist()]  # (cluster index, frame index in it)
        self._cameras = cams = [transform_camera(transforms[ci], clusters[ci].cameras[fi]) for ci, fi in holders]
        self.rotations = np.array([c.pose.rotation for c in cams])
        self.translations = np.array([c.pose.translation for c in cams])
        self.intrinsics = np.array([c.intrinsics.row() for c in cams])
        self._depth_scales = np.array([transforms[ci].scale for ci, _ in holders], dtype=np.float64)
        # per frame: width, height, holding cluster and flat offset in that cluster's stacks
        sizes = [(c.intrinsics.width, c.intrinsics.height) for c in cams]
        self._pixel_table = np.ascontiguousarray(
            np.array([(w, h, ci, fi * w * h) for (w, h), (ci, fi) in zip(sizes, holders)], dtype=np.int64).T
        )
        # each frame's first global pixel index, then the pixel count
        self.key_base = np.concatenate([[0], np.cumsum(self._pixel_table[0] * self._pixel_table[1])])
        self._depth_stacks = [np.ravel(c.depths) for c in clusters]  # views of the cluster stacks
        self._conf_stacks = [np.ravel(c.confidences) for c in clusters]

    def frames(self):
        return self._ids.tolist()

    def camera(self, frame_id: int) -> CameraParams:
        return self._cameras[self.table_rows([frame_id])[0]]

    def _maps(self, row: int):
        """(depth map, confidence map, depth scale) of the frame at table
        row row; the maps are views of its holding cluster's stacks."""
        width, height, holder, offset = self._pixel_table[:, row].tolist()
        at = slice(offset, offset + width * height)
        depth = self._depth_stacks[holder][at].reshape(height, width)
        conf = self._conf_stacks[holder][at].reshape(height, width)
        return depth, conf, self._depth_scales[row]

    def table_rows(self, frame_ids) -> np.ndarray:
        """Row of each frame id in the per-frame tables; MissingFrameError
        names the first id no cluster holds."""
        ids = np.asarray(frame_ids, dtype=np.int64)
        rows = np.minimum(np.searchsorted(self._ids, ids), len(self._ids) - 1)
        missing = self._ids.take(rows) != ids
        if missing.any():
            raise MissingFrameError(f"frame {ids[missing][0]} not present in any cluster")
        return rows

    def pixel_keys(self, rows: np.ndarray, pixels: np.ndarray) -> np.ndarray:
        """Global pixel index key_base[row] + v * W + u (int64) of (N, 2)
        float64 subpixel coordinates, each of the frame at its table row in
        rows (N,), or -1 where the nearest integer pixel (np.rint, half to
        even) lies outside the frame's image. The one rule from a match
        pixel to a map pixel: pixels are rounded, bounded and indexed in
        float64 (exact below 2**53), and only the keys of those inside are
        cast, so a huge finite pixel never reaches the cast."""
        width = self._pixel_table[0].take(rows)
        u, v = np.rint(pixels).T
        inside = (u >= 0) & (u < width) & (v >= 0) & (v < self._pixel_table[1].take(rows))
        with np.errstate(over="ignore"):  # a huge pixel's index may overflow to inf; it is not inside
            keys = v * width + u + self.key_base.take(rows)
        return np.where(inside, keys, -1).astype(np.int64)

    def depths(self, rows: np.ndarray, keys: np.ndarray):
        """(kept, depths) at the keys (N,) pixel_keys gives, each of the
        frame at its table row in rows (N,).

        Depth is read by flat index straight from the holding cluster's
        depth stack. Only the valid samples (key >= 0, depth > 0) are kept:
        kept numbers them in keys, and depths holds their depth times the
        frame's depth scale, in float64.
        """
        kept = np.flatnonzero(keys >= 0)
        _, _, holder, offset = self._pixel_table
        rows = rows.take(kept)
        in_stack, holder = keys.take(kept) + (offset - self.key_base[:-1]).take(rows), holder.take(rows)
        d = np.empty(len(kept), dtype=np.float32)
        for ci, stack in enumerate(self._depth_stacks):
            sel = np.flatnonzero(holder == ci)
            d[sel] = stack.take(in_stack.take(sel))
        ok = np.flatnonzero(d > 0)
        return kept.take(ok), d.take(ok).astype(np.float64) * self._depth_scales.take(rows.take(ok))

    def sample(self, frame_id: int, pixels: np.ndarray):
        """Unproject subpixel coordinates through the global camera, the one
        lift to world points (the gate reads depths() but forms none).

        Returns (points (N,3), confidences (N,), valid (N,) bool): the rows
        of the samples depths() keeps hold the pixel unprojected at its depth
        and the confidence at the same stack index; the others stay NaN/0.
        """
        pixels = np.asarray(pixels, dtype=np.float64).reshape(-1, 2)
        (row,) = self.table_rows([frame_id])
        rows = np.full(len(pixels), row)
        keys = self.pixel_keys(rows, pixels)
        kept, d = self.depths(rows, keys)
        _, _, holder, offset = self._pixel_table[:, row].tolist()
        pts = np.full((len(pixels), 3), np.nan)
        confs = np.zeros(len(pixels))
        valid = np.zeros(len(pixels), dtype=bool)
        pts[kept] = unproject_pixels(pixels.take(kept, axis=0), d, self._cameras[row])
        confs[kept] = self._conf_stacks[holder].take(keys.take(kept) + (offset - self.key_base[row]))
        valid[kept] = True
        return pts, confs, valid

    def dense_cloud(self, cameras=None) -> PointCloud:
        """Every valid-depth pixel of every frame, unprojected in frame order.

        cameras, one per frame in frames() order, replace the merged global
        cameras; apply_ba_result passes the refined ones. Each frame's valid
        pixels are counted first, then unprojected in place into one (N, 3)
        points array and one (N,) confidences array, so the cloud is held
        once and beside it only one frame's temporaries.
        """
        if cameras is None:
            cameras = self._cameras
        if len(cameras) != len(self._ids):
            raise DataError(
                f"dense cloud needs one camera per frame: got {len(cameras)} cameras for {len(self._ids)} frames"
            )
        maps = [self._maps(row) for row in range(len(self._ids))]
        counts = [int(np.count_nonzero(depth > 0)) for depth, _, _ in maps]
        points, confidences = np.empty((sum(counts), 3)), np.empty(sum(counts))
        end = 0
        for (depth, conf, scale), cam, n in zip(maps, cameras, counts):
            rows, cols = np.nonzero(depth > 0)
            at = slice(end, end + n)
            end += n
            pixels = np.stack([cols, rows], axis=1).astype(np.float64)
            points[at] = unproject_pixels(pixels, depth[rows, cols].astype(np.float64) * scale, cam)
            confidences[at] = conf[rows, cols]
        return PointCloud(points=points, confidences=confidences)
