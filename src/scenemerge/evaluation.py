"""Trajectory and point-cloud evaluation metrics.

Pairwise angular accuracies (RRA/RTA/AUC) follow the convention common in
recent multi-view pose benchmarks: over all unordered camera pairs, the
rotation error is the geodesic angle between estimated and ground-truth
relative rotations, and the translation error is the angle between the
relative-translation directions (scale-free). RRA@tau / RTA@tau count the
percentage of pairs with error <= tau degrees; AUC@30 is the normalized
trapezoid area of min(RRA@t, RTA@t) over integer degrees t in [0, 30].

Absolute metrics align the estimate to the ground truth with a closed-form
similarity fit on camera centers first: ATE is the RMSE of aligned center
distances, RRE/RTE are mean relative-pose rotation (degrees) / translation
(aligned scene units) errors over consecutive frame pairs. ATE and RTE
carry scene units, so a similarity gauge applied to BOTH trajectories
scales them by the gauge scale; the angular metrics are invariant.

Translation direction angles use atan2(||u x v||, u . v): bitwise-equal
directions give exactly zero, which keeps AUC@30 at exactly 100 for a
perfect trajectory (an arccos formulation leaves ~1e-6 degree noise that
a zero threshold would count as a miss).

Relative motions come from one pair-list kernel, _relative_motion, over
stacked poses and index arrays (i, j): consecutive pairs for RRE/RTE, and
np.triu_indices pairs for RRA/RTA, walked PAIR_CHUNK at a time with only
hit counts kept, so memory stays bounded by the chunk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .alignment import weighted_umeyama
from .errors import DataError
from .geometry import (
    CameraPose,
    PointCloud,
    Sim3Transform,
    apply_sim3,
    rotation_distance,
    row_dot,
)

AUC_MAX_DEGREES = 30
DEFAULT_THRESHOLDS = (5, 15, 30)
PAIR_CHUNK = 4096  # camera pairs per kernel call in pairwise_relative_accuracy


@dataclass(frozen=True)
class PairwiseAccuracy:
    """RRA/RTA percentages keyed by threshold, plus AUC@30.

    Iterates as the 3-tuple (rra_at, rta_at, auc_at_30); pairs whose
    ground-truth relative translation has zero length are excluded from
    the denominators and counted in skipped_pairs.
    """

    rra_at: dict
    rta_at: dict
    auc_at_30: float
    skipped_pairs: int = 0

    def __iter__(self):
        return iter((self.rra_at, self.rta_at, self.auc_at_30))


@dataclass(frozen=True)
class TrajectoryMetrics:
    """Full camera-trajectory report; percentages live in [0, 100]."""

    ate: float
    rre: float
    rte: float
    rra_at: dict
    rta_at: dict
    auc_at_30: float

    def __post_init__(self):
        if not (np.isfinite(self.ate) and self.ate >= 0):
            raise DataError(f"ate must be finite and >= 0, got {self.ate}")
        for name, mapping in (("rra_at", self.rra_at), ("rta_at", self.rta_at)):
            for tau, pct in mapping.items():
                if not 0.0 <= pct <= 100.0:
                    raise DataError(f"{name}[{tau}] = {pct} outside [0, 100]")
        if not 0.0 <= self.auc_at_30 <= 100.0:
            raise DataError(f"auc_at_30 = {self.auc_at_30} outside [0, 100]")

    def to_dict(self) -> dict:
        return {
            "ate": self.ate,
            "rre": self.rre,
            "rte": self.rte,
            "rra_at": {str(k): v for k, v in self.rra_at.items()},
            "rta_at": {str(k): v for k, v in self.rta_at.items()},
            "auc_at_30": self.auc_at_30,
        }


def _pose_of(entry) -> CameraPose:
    if isinstance(entry, CameraPose):
        return entry
    pose = getattr(entry, "pose", None)
    if isinstance(pose, CameraPose):
        return pose
    raise DataError(f"expected CameraPose or an object with a .pose, got {type(entry).__name__}")


def _pose_lists(est, gt):
    if len(est) != len(gt):
        raise DataError(f"est and gt must be parallel, got {len(est)} vs {len(gt)} poses")
    return [_pose_of(e) for e in est], [_pose_of(g) for g in gt]


def _centers(poses) -> np.ndarray:
    return np.stack([p.center for p in poses])


def _stacked(poses) -> tuple[np.ndarray, np.ndarray]:
    """(rotations (n, 3, 3), translations (n, 3))."""
    return np.stack([p.rotation for p in poses]), np.stack([p.translation for p in poses])


def _relative_motion(r, t, i, j) -> tuple[np.ndarray, np.ndarray]:
    """j-from-i relative motions (R_j R_i^T, t_j - R_j R_i^T t_i) of pairs (i[p], j[p])."""
    rel = r[j] @ np.swapaxes(r[i], -1, -2)
    return rel, t[j] - (rel @ t[i][..., None])[..., 0]


def _pair_errors(est, gt, i, j) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-pair rotation and translation-direction errors in degrees, and
    the mask of pairs with a nonzero ground-truth relative translation (rows
    outside it are meaningless). A zero estimated translation counts as 180."""
    rel_est, u = _relative_motion(*est, i, j)
    rel_gt, v = _relative_motion(*gt, i, j)
    rot = np.degrees(rotation_distance(rel_est, rel_gt))
    nu, nv = np.sqrt(row_dot(u, u)), np.sqrt(row_dot(v, v))
    un = u / np.where(nu == 0.0, 1.0, nu)[:, None]
    vn = v / np.where(nv == 0.0, 1.0, nv)[:, None]
    cross = np.cross(un, vn)
    angle = np.degrees(np.arctan2(np.sqrt(row_dot(cross, cross)), row_dot(un, vn)))
    return rot, np.where(nu == 0.0, 180.0, angle), nv != 0.0


def umeyama_align(est, gt) -> Sim3Transform:
    """Closed-form similarity minimizing sum ||gt_center - T(est_center)||^2.

    Needs >= 3 poses with non-collinear centers; raises
    DegenerateGeometryError otherwise.
    """
    est, gt = _pose_lists(est, gt)
    return weighted_umeyama(_centers(gt), _centers(est), np.ones(len(est)))


def pairwise_relative_accuracy(est, gt, thresholds=DEFAULT_THRESHOLDS) -> PairwiseAccuracy:
    """RRA@tau / RTA@tau / AUC@30 over all unordered camera pairs.

    Pairs with a zero-length ground-truth relative translation are skipped
    wholesale (both accuracies, same denominator); a zero-length estimated
    translation against a nonzero ground truth counts as a 180 degree
    direction error.
    """
    est, gt = _pose_lists(est, gt)
    if len(est) < 2:
        raise DataError(f"need >= 2 poses for pairwise accuracy, got {len(est)}")
    for tau in thresholds:
        if not tau > 0:
            raise DataError(f"thresholds must be positive, got {tau}")

    pairs_i, pairs_j = np.triu_indices(len(est), k=1)
    est, gt = _stacked(est), _stacked(gt)
    taus = np.array([*range(AUC_MAX_DEGREES + 1), *thresholds], dtype=np.float64)
    hits = np.zeros((2, len(taus)), dtype=np.int64)  # (rotation, direction) errors <= tau
    kept = 0
    for start in range(0, len(pairs_i), PAIR_CHUNK):
        chunk = slice(start, start + PAIR_CHUNK)
        rot, direction, keep = _pair_errors(est, gt, pairs_i[chunk], pairs_j[chunk])
        hits += np.count_nonzero(np.stack([rot, direction])[:, keep, None] <= taus, axis=1)
        kept += int(np.count_nonzero(keep))
    if kept == 0:
        raise DataError("every camera pair has a zero-length ground-truth relative translation")

    rot_pct, dir_pct = 100.0 * (hits / kept)
    curve = np.minimum(rot_pct, dir_pct)[: AUC_MAX_DEGREES + 1]
    auc = (0.5 * (curve[0] + curve[-1]) + float(np.sum(curve[1:-1]))) / AUC_MAX_DEGREES
    return PairwiseAccuracy(
        rra_at={tau: float(p) for tau, p in zip(thresholds, rot_pct[AUC_MAX_DEGREES + 1 :])},
        rta_at={tau: float(p) for tau, p in zip(thresholds, dir_pct[AUC_MAX_DEGREES + 1 :])},
        auc_at_30=float(auc),
        skipped_pairs=len(pairs_i) - kept,
    )


def trajectory_errors(est, gt):
    """(ate, rre, rte) after similarity alignment of est onto gt.

    ATE is the RMSE of aligned camera-center distances; RRE (degrees) and
    RTE (aligned scene units) average relative-pose errors over consecutive
    frame pairs in trajectory order.
    """
    est, gt = _pose_lists(est, gt)
    t = umeyama_align(est, gt)
    residual = apply_sim3(t, _centers(est)) - _centers(gt)
    ate = float(np.sqrt(np.mean(np.sum(residual**2, axis=1))))

    # Aligning a trajectory leaves relative rotations untouched and scales
    # relative translations by the fitted scale (exact identities), so both
    # are computed from the raw estimate; this keeps est == gt at exactly
    # zero instead of picking up alignment rounding noise.
    i = np.arange(len(est) - 1)
    rel_est, t_est = _relative_motion(*_stacked(est), i, i + 1)
    rel_gt, t_gt = _relative_motion(*_stacked(gt), i, i + 1)
    rre = np.degrees(rotation_distance(rel_est, rel_gt))
    d = t.scale * t_est - t_gt
    return ate, float(np.mean(rre)), float(np.mean(np.sqrt(row_dot(d, d))))


def evaluate_trajectories(est, gt, thresholds=DEFAULT_THRESHOLDS) -> TrajectoryMetrics:
    """Full metric bundle: absolute errors plus pairwise accuracies."""
    ate, rre, rte = trajectory_errors(est, gt)
    acc = pairwise_relative_accuracy(est, gt, thresholds)
    return TrajectoryMetrics(
        ate=ate,
        rre=rre,
        rte=rte,
        rra_at=acc.rra_at,
        rta_at=acc.rta_at,
        auc_at_30=acc.auc_at_30,
    )


def point_cloud_distance(pred, gt):
    """(accuracy, completion): mean nearest-neighbor distance pred->gt and gt->pred.

    With pred equal to gt plus one outlier whose nearest true point lies at
    distance D, accuracy is D / (m + 1) for m ground-truth points and
    completion is 0. Swapping the arguments swaps the two outputs exactly.
    """
    p = pred.points if isinstance(pred, PointCloud) else np.asarray(pred, dtype=np.float64)
    g = gt.points if isinstance(gt, PointCloud) else np.asarray(gt, dtype=np.float64)
    for name, arr in (("pred", p), ("gt", g)):
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise DataError(f"{name} cloud must have shape (N, 3), got {arr.shape}")
        if len(arr) == 0:
            raise DataError(f"{name} cloud is empty")
    accuracy = float(np.mean(cKDTree(g).query(p)[0]))
    completion = float(np.mean(cKDTree(p).query(g)[0]))
    return accuracy, completion
