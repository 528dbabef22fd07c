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

_DEFAULT_MAX_PAIRS = 50_000
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
    max_pairs: int = _DEFAULT_MAX_PAIRS,
) -> CorrespondenceSet:
    """Pair up per-pixel unprojections over the clusters' shared frames.

    For every shared frame and every pixel with valid depth in both
    clusters, the pair (unproject in a, unproject in b) is emitted with
    confidence min(c_a, c_b). The lowest conf_percentile percent of pairs
    are dropped: with n pairs exactly n - floor(n * percentile / 100)
    survive, ties keeping the higher pair index. Survivors beyond max_pairs
    are thinned by even spacing (deterministic, no randomness).
    """
    if not (0 <= conf_percentile < 100):
        raise ConfigError(f"conf_percentile must be in [0, 100), got {conf_percentile}")
    if max_pairs < 1:
        raise ConfigError(f"max_pairs must be >= 1, got {max_pairs}")
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
    if len(pa) > max_pairs:
        idx = np.unique(np.linspace(0, len(pa) - 1, max_pairs).round().astype(np.int64))
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

    run_pipeline builds it once, after alignment. Holds, for each frame id,
    the winning cluster instance's camera mapped into the global frame, its
    cluster-local depth and confidence maps, and the cluster transform's
    scale. Depth values are multiplied by that scale at sample time (in
    float64), since a Sim(3)-transformed camera sees all depths scaled.
    """

    def __init__(self, clusters, transforms):
        if len(clusters) != len(transforms):
            raise ConfigError(
                f"need one transform per cluster, got {len(clusters)} clusters and {len(transforms)} transforms"
            )
        if not clusters:
            raise ConfigError("no clusters to merge")
        self._frames = {}
        for fid, (_, ci, fi) in _select_winner_instances(clusters).items():
            cluster, t = clusters[ci], transforms[ci]
            self._frames[fid] = (
                transform_camera(t, cluster.cameras[fi]),
                cluster.depths[fi],
                cluster.confidences[fi],
                t.scale,
            )

    def frames(self):
        return sorted(self._frames)

    def camera(self, frame_id: int) -> CameraParams:
        return self.frame_geometry(frame_id)[0]

    def frame_geometry(self, frame_id: int):
        """(global camera, local float32 depth map, confidence map, depth scale)."""
        try:
            return self._frames[frame_id]
        except KeyError:
            raise MissingFrameError(f"frame {frame_id} not present in any cluster") from None

    def sample(self, frame_id: int, pixels: np.ndarray):
        """Unproject subpixel coordinates through the global camera.

        Depth and confidence are read once each, at the nearest integer
        pixel of the valid samples (inside the map, depth > 0); returns
        (points (N,3), confidences (N,), valid (N,) bool) with rows of
        invalid samples left as NaN/0. Pixels are clipped to one past the map
        before the integer cast, which a huge finite pixel would overflow.
        """
        cam, depth, conf, scale = self.frame_geometry(frame_id)
        pixels = np.asarray(pixels, dtype=np.float64).reshape(-1, 2)
        height, width = depth.shape
        col, row = np.rint(np.clip(pixels, -1, [width, height])).astype(np.int64).T
        rows = np.flatnonzero((col >= 0) & (col < width) & (row >= 0) & (row < height))
        d = depth[row[rows], col[rows]]
        rows, d = rows[d > 0], d[d > 0]
        pts = np.full((len(pixels), 3), np.nan)
        confs = np.zeros(len(pixels))
        valid = np.zeros(len(pixels), dtype=bool)
        pts[rows] = unproject_pixels(pixels[rows], d.astype(np.float64) * scale, cam)
        confs[rows] = conf[row[rows], col[rows]]
        valid[rows] = True
        return pts, confs, valid

    def dense_cloud(self, cameras=None) -> PointCloud:
        """Every valid-depth pixel of every frame, unprojected in frame order.

        cameras, one per frame in frames() order, replace the merged global
        cameras; apply_ba_result passes the refined ones.
        """
        frames = self.frames()
        if cameras is None:
            cameras = [self.camera(fid) for fid in frames]
        pts, confs = [], []
        for fid, cam in zip(frames, cameras):
            _, depth, conf, scale = self._frames[fid]
            d = depth.astype(np.float64)
            rows, cols = np.nonzero(d > 0)
            if len(rows) == 0:
                continue
            pixels = np.stack([cols, rows], axis=1).astype(np.float64)
            pts.append(unproject_pixels(pixels, d[rows, cols] * scale, cam))
            confs.append(conf[rows, cols].astype(np.float64))
        if not pts:
            return PointCloud(points=np.zeros((0, 3)), confidences=np.zeros(0))
        return PointCloud(points=np.concatenate(pts), confidences=np.concatenate(confs))
