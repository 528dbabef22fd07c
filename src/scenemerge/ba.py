"""Global bundle adjustment by first-order descent on a robust loss.

The objective is sum over tracks of C_l * sum over observations of
(||y - pi(x)||^2 + eps)^(lambda/2), with lambda = 0.5 by default; eps
smooths the non-differentiable point at zero residual. Observations whose
point falls behind the camera contribute C_l * (B + Z^2) instead, pushing
the point back in front. Updates are plain gradient descent with a cosine
learning-rate schedule, per-block unit scaling, and rotation steps taken
on the manifold via the exponential map.

Step rule: adaptive per-parameter steps, step_i = lr_t * unit_b *
m_i / (d_i + delta), where m is the first-moment average of the true
gradient and d averages the sum of ABSOLUTE per-observation gradient
contributions with every confidence set to 1. Raw gradient magnitudes
under lambda < 1 span orders of magnitude (the weight factor
||e||^(lambda-2) blows up near zero residual), so unnormalized descent
at the stated learning rate diverges. The L1 denominator cannot cancel
the way a net gradient can, so |m_i / d_i| <= max confidence holds
unconditionally and every step is bounded by lr_t * unit_b * max C_l;
normalizing by the net confidence-free gradient instead was observed to
blow up near-converged cameras whose signed contributions cancel.
Keeping confidences out of d preserves the homogeneity contract
exactly: scaling confidences by a scales m by a and leaves d unchanged,
so dividing the learning rate by a reproduces the identical iterate
sequence. unit_b converts the dimensionless step into block units:
radians for rotations, median camera-center spread for translations and
points, the camera's initial focal length for intrinsics.

Reductions: each observation contributes a camera row C [rotation |
translation | intrinsics] and a point row. With A the 0/1 CSR incidence
matrix (cameras or points x observations, built once per problem), the
gradient is A @ (conf * C) and the step denominator A @ |C|. Each CSR row
lists its observations in order, so the sums add exactly as np.bincount.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse

from .errors import ConfigError, DataError, DivergenceError
from .geometry import CameraParams, CameraPose, rotation_exp

_BEHIND_PENALTY = 1e4  # px-equivalent floor for behind-camera observations
_NORM_FLOOR = 1e-30


@dataclass(frozen=True)
class BAConfig:
    """Optimizer settings; defaults follow the reference recipe."""

    iterations: int = 300
    initial_lr: float = 3e-3
    lambda_exp: float = 0.5
    epsilon: float = 1e-8
    optimize_intrinsics: bool = True

    def __post_init__(self):
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if not (np.isfinite(self.initial_lr) and self.initial_lr > 0):
            raise ConfigError(f"initial_lr must be positive and finite, got {self.initial_lr}")
        if not (0 < self.lambda_exp <= 2):
            raise ConfigError(f"lambda_exp must be in (0, 2], got {self.lambda_exp}")
        if not (np.isfinite(self.epsilon) and self.epsilon > 0):
            raise ConfigError(f"epsilon must be positive and finite, got {self.epsilon}")

    def learning_rate(self, iteration: int) -> float:
        """lr at a 0-based iteration; a cosine schedule anneals it toward zero."""
        return self.initial_lr * 0.5 * (1.0 + np.cos(np.pi * iteration / self.iterations))


@dataclass(frozen=True)
class BAProblem:
    """Cameras, one 3D point per track, and flat observations."""

    cameras: list
    points: np.ndarray
    camera_indices: np.ndarray
    point_indices: np.ndarray
    pixels: np.ndarray
    confidences: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        ci = np.asarray(self.camera_indices, dtype=np.int64).reshape(-1)
        pi = np.asarray(self.point_indices, dtype=np.int64).reshape(-1)
        px = np.asarray(self.pixels, dtype=np.float64).reshape(-1, 2)
        cf = np.asarray(self.confidences, dtype=np.float64).reshape(-1)
        if not self.cameras:
            raise DataError("problem has no cameras")
        if len(pts) == 0:
            raise DataError("problem has no points")
        if not (len(ci) == len(pi) == len(px) == len(cf)) or len(ci) == 0:
            raise DataError("observation arrays must be parallel and nonempty")
        if ci.min() < 0 or ci.max() >= len(self.cameras):
            raise DataError("camera index out of range")
        if pi.min() < 0 or pi.max() >= len(pts):
            raise DataError("point index out of range")
        if np.any(cf < 0) or not np.all(np.isfinite(cf)):
            raise DataError("observation confidences must be finite and >= 0")
        counts = np.bincount(pi, minlength=len(pts))
        if counts.min() < 2:
            raise DataError(
                f"point {int(np.argmin(counts))} has {int(counts.min())} observations, need >= 2"
            )
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "camera_indices", ci)
        object.__setattr__(self, "point_indices", pi)
        object.__setattr__(self, "pixels", px)
        object.__setattr__(self, "confidences", cf)

    @property
    def n_cameras(self) -> int:
        return len(self.cameras)

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def n_observations(self) -> int:
        return len(self.pixels)

    @classmethod
    def from_tracks(cls, cameras, tracks) -> "BAProblem":
        """Point i is track i's fused location; every observation carries
        the track confidence C_l."""
        frame_to_index = {c.frame_id: i for i, c in enumerate(cameras)}
        ci, pi, px, cf = [], [], [], []
        for ti, track in enumerate(tracks):
            for fid, uv in track.observations:
                if fid not in frame_to_index:
                    raise DataError(f"track {ti} observes frame {fid} with no camera")
                ci.append(frame_to_index[fid])
                pi.append(ti)
                px.append(uv)
                cf.append(track.confidence)
        if not tracks:
            raise DataError("no tracks to adjust")
        return cls(
            cameras=list(cameras),
            points=np.array([t.point for t in tracks]),
            camera_indices=np.array(ci),
            point_indices=np.array(pi),
            pixels=np.array(px),
            confidences=np.array(cf),
        )


@dataclass(frozen=True)
class BAGradients:
    """Partial derivatives of ba_loss per parameter block.

    rotation rows are tangent increments omega: the derivative of the
    loss under R -> exp(skew(omega)) R at omega = 0.
    """

    rotation: np.ndarray
    translation: np.ndarray
    points: np.ndarray
    intrinsics: np.ndarray


@dataclass(frozen=True)
class BAResult:
    problem: BAProblem
    loss_history: np.ndarray
    initial_loss: float
    final_loss: float
    best_iteration: int


def _stack_state(prob: BAProblem):
    r = np.stack([c.pose.rotation for c in prob.cameras])
    t = np.stack([c.pose.translation for c in prob.cameras])
    k = np.array([[c.intrinsics.fx, c.intrinsics.fy, c.intrinsics.cx, c.intrinsics.cy] for c in prob.cameras])
    return r, t, k, prob.points.copy()


def _rebuild_cameras(prob: BAProblem, r, t, k):
    return [
        CameraParams(
            intrinsics=replace(cam.intrinsics, fx=float(k[i, 0]), fy=float(k[i, 1]), cx=float(k[i, 2]), cy=float(k[i, 3])),
            pose=CameraPose(rotation=r[i], translation=t[i]),
            frame_id=cam.frame_id,
        )
        for i, cam in enumerate(prob.cameras)
    ]


def _loss_terms(prob: BAProblem, cfg: BAConfig, r, t, k, points):
    """Per-observation unweighted losses and gradient intermediates.

    Returns (loss_unweighted (M,), g_cam3d_unweighted (M,3),
    g_intrinsics_unweighted (M,4), rotated_points (M,3), front (M,)).
    Multiplying by the observation confidence yields the weighted
    quantities; keeping them separate lets one geometry pass serve both
    the true gradient and the confidence-free normalizer.
    """
    lam, eps = cfg.lambda_exp, cfg.epsilon
    rm = r[prob.camera_indices]
    tm = t[prob.camera_indices]
    km = k[prob.camera_indices]
    x = points[prob.point_indices]
    rx = np.einsum("mij,mj->mi", rm, x)
    v = rx + tm
    z = v[:, 2]
    front = z > 0
    zs = np.where(front, z, 1.0)

    fx, fy, cx, cy = km[:, 0], km[:, 1], km[:, 2], km[:, 3]
    u_px = fx * v[:, 0] / zs + cx
    v_px = fy * v[:, 1] / zs + cy
    e = prob.pixels - np.stack([u_px, v_px], axis=1)
    s2 = np.einsum("mi,mi->m", e, e) + eps

    loss_front = s2 ** (lam / 2.0)
    w_geom = lam * s2 ** (lam / 2.0 - 1.0)
    gpi = -w_geom[:, None] * e  # d loss / d projected pixel

    g_cam = np.empty((prob.n_observations, 3))
    g_cam[:, 0] = gpi[:, 0] * fx / zs
    g_cam[:, 1] = gpi[:, 1] * fy / zs
    g_cam[:, 2] = -(gpi[:, 0] * fx * v[:, 0] + gpi[:, 1] * fy * v[:, 1]) / (zs * zs)

    g_intr = np.empty((prob.n_observations, 4))
    g_intr[:, 0] = gpi[:, 0] * v[:, 0] / zs
    g_intr[:, 1] = gpi[:, 1] * v[:, 1] / zs
    g_intr[:, 2] = gpi[:, 0]
    g_intr[:, 3] = gpi[:, 1]

    # behind-camera branch: C * (B + Z^2), gradient (0, 0, 2Z)
    loss = np.where(front, loss_front, _BEHIND_PENALTY + z * z)
    g_cam[~front] = 0.0
    g_cam[~front, 2] = 2.0 * z[~front]
    g_intr[~front] = 0.0
    return loss, g_cam, g_intr, rx, front


def _incidence(prob: BAProblem) -> tuple[sparse.csr_array, sparse.csr_array]:
    """(cameras x observations, points x observations) 0/1 CSR matrices."""
    obs = np.arange(prob.n_observations)
    ones = np.ones(prob.n_observations)
    return (
        sparse.csr_array((ones, (prob.camera_indices, obs)), shape=(prob.n_cameras, prob.n_observations)),
        sparse.csr_array((ones, (prob.point_indices, obs)), shape=(prob.n_points, prob.n_observations)),
    )


def _gradient_sums(prob: BAProblem, incidence, r, g_cam, g_intr, rx):
    """(camera gradient, point gradient, camera denominator, point denominator).

    Camera rows are [rotation | translation | intrinsics]; each sum is one
    incidence product over the per-observation contributions C.
    """
    a_cam, a_pt = incidence
    c_cam = np.hstack([np.cross(rx, g_cam), g_cam, g_intr])
    c_pt = np.einsum("mji,mj->mi", r[prob.camera_indices], g_cam)
    w = prob.confidences[:, None]
    return a_cam @ (w * c_cam), a_pt @ (w * c_pt), a_cam @ np.abs(c_cam), a_pt @ np.abs(c_pt)


def ba_loss(prob: BAProblem, cfg: BAConfig | None = None) -> float:
    """Confidence-weighted robust reprojection loss."""
    cfg = cfg or BAConfig()
    r, t, k, points = _stack_state(prob)
    loss, _, _, _, _ = _loss_terms(prob, cfg, r, t, k, points)
    return float(np.sum(prob.confidences * loss))


def predicted_pixels(prob: BAProblem) -> tuple[np.ndarray, np.ndarray]:
    """Reproject every observation's point through its camera.

    Returns (uv (M, 2), in_front (M,)). Behind-camera rows are NaN. Uses
    the exact arithmetic of the loss, so observations built from this
    output yield bitwise-zero residuals.
    """
    r, t, k, points = _stack_state(prob)
    rm = r[prob.camera_indices]
    v = np.einsum("mij,mj->mi", rm, points[prob.point_indices]) + t[prob.camera_indices]
    z = v[:, 2]
    front = z > 0
    zs = np.where(front, z, np.nan)
    km = k[prob.camera_indices]
    uv = np.stack([km[:, 0] * v[:, 0] / zs + km[:, 2], km[:, 1] * v[:, 1] / zs + km[:, 3]], axis=1)
    return uv, front


def reprojection_errors(prob: BAProblem) -> tuple[np.ndarray, np.ndarray]:
    """(residual norms in px, in-front mask); behind-camera rows are NaN."""
    uv, front = predicted_pixels(prob)
    return np.linalg.norm(prob.pixels - uv, axis=1), front


def ba_gradients(prob: BAProblem, cfg: BAConfig | None = None) -> BAGradients:
    """Analytic gradient of ba_loss for every parameter block."""
    cfg = cfg or BAConfig()
    r, t, k, points = _stack_state(prob)
    _, g_cam, g_intr, rx, _ = _loss_terms(prob, cfg, r, t, k, points)
    g, g_pt, _, _ = _gradient_sums(prob, _incidence(prob), r, g_cam, g_intr, rx)
    return BAGradients(rotation=g[:, :3], translation=g[:, 3:6], points=g_pt, intrinsics=g[:, 6:])


class _AdaptiveState:
    """First moment of the weighted gradient over an L1 denominator built
    from confidence-free contribution magnitudes, with bias correction."""

    beta1, beta2 = 0.9, 0.99

    def __init__(self, shape):
        self.m = np.zeros(shape)
        self.d = np.zeros(shape)
        self.count = 0

    def step(self, grad, denom_l1, lr, unit):
        self.count += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.d = self.beta2 * self.d + (1.0 - self.beta2) * denom_l1
        m_hat = self.m / (1.0 - self.beta1**self.count)
        d_hat = self.d / (1.0 - self.beta2**self.count)
        return (lr * unit) * m_hat / (d_hat + _NORM_FLOOR)


def run_ba(prob: BAProblem, cfg: BAConfig | None = None) -> BAResult:
    """Gradient descent with best-iterate return.

    Translation and point steps scale with the median camera-center
    spread; intrinsic steps scale with each camera's initial focal
    length; rotation steps are radians. The loss history has
    iterations + 1 entries (initial value first). Non-finite loss or
    gradient raises DivergenceError naming the iteration.
    """
    cfg = cfg or BAConfig()
    r, t, k, points = _stack_state(prob)

    centers = np.stack([c.pose.center for c in prob.cameras])
    spread = np.linalg.norm(centers - centers.mean(axis=0), axis=1)
    unit_t = float(np.median(spread))
    if unit_t <= 0:
        unit_t = 1.0
    unit_k = k[:, 0:1].copy()  # per-camera initial focal, fixed for the run
    widths = np.array([float(c.intrinsics.width) for c in prob.cameras])
    heights = np.array([float(c.intrinsics.height) for c in prob.cameras])
    focal_floor = 1e-6 * unit_k[:, 0]

    history = np.empty(cfg.iterations + 1)
    loss0, g_cam0, g_intr0, rx0, _ = _loss_terms(prob, cfg, r, t, k, points)
    current = float(np.sum(prob.confidences * loss0))
    if not np.isfinite(current):
        raise DivergenceError("initial loss is not finite", iteration=0)
    history[0] = current
    best = (current, r.copy(), t.copy(), k.copy(), points.copy(), 0)

    # camera columns [rotation | translation | intrinsics]; intrinsic steps
    # are taken in unit 1 and scaled by each camera's focal below
    unit_cam = np.array([1.0] * 3 + [unit_t] * 3 + [1.0] * 4)
    state_cam = _AdaptiveState((prob.n_cameras, 10))
    state_pt = _AdaptiveState((prob.n_points, 3))
    incidence = _incidence(prob)

    g_cam, g_intr, rx = g_cam0, g_intr0, rx0
    for it in range(cfg.iterations):
        grad_cam, grad_pt, denom_cam, denom_pt = _gradient_sums(prob, incidence, r, g_cam, g_intr, rx)
        if not (np.all(np.isfinite(grad_cam)) and np.all(np.isfinite(grad_pt))):
            raise DivergenceError("non-finite gradient", iteration=it + 1)

        lr = cfg.learning_rate(it)
        # divergence shows up as non-finite values that the checks below
        # catch; silence the intermediate overflow warnings
        with np.errstate(all="ignore"):
            step_cam = state_cam.step(grad_cam, denom_cam, lr, unit_cam)
            r = rotation_exp(-step_cam[:, :3]) @ r
            t = t - step_cam[:, 3:6]
            points = points - state_pt.step(grad_pt, denom_pt, lr, unit_t)
            if cfg.optimize_intrinsics:
                k = k - step_cam[:, 6:] * unit_k
                # keep intrinsics rebuildable: positive focals, principal
                # point inside the image
                k[:, 0] = np.maximum(k[:, 0], focal_floor)
                k[:, 1] = np.maximum(k[:, 1], focal_floor)
                k[:, 2] = np.clip(k[:, 2], 0.0, widths)
                k[:, 3] = np.clip(k[:, 3], 0.0, heights)

            loss_terms, g_cam, g_intr, rx, _ = _loss_terms(prob, cfg, r, t, k, points)
        current = float(np.sum(prob.confidences * loss_terms))
        if not np.isfinite(current):
            raise DivergenceError("loss became non-finite", iteration=it + 1)
        history[it + 1] = current
        if current < best[0]:
            best = (current, r.copy(), t.copy(), k.copy(), points.copy(), it + 1)

    best_loss, r_b, t_b, k_b, p_b, best_it = best
    refined = replace(
        prob,
        cameras=_rebuild_cameras(prob, r_b, t_b, k_b),
        points=p_b,
    )
    return BAResult(
        problem=refined,
        loss_history=history,
        initial_loss=float(history[0]),
        final_loss=best_loss,
        best_iteration=best_it,
    )


def apply_ba_result(result: BAResult, merged, tracks):
    """Write refined parameters back into the merged scene.

    Returns (cameras sorted by frame id, tracks with refined fused
    points, dense cloud re-unprojected from the stored depth maps under
    the refined cameras). Track observations and confidences are
    untouched; only the fused 3D points move.
    """
    from .tracking import Track

    prob = result.problem
    if len(tracks) != prob.n_points:
        raise DataError(f"track count {len(tracks)} != problem points {prob.n_points}")
    by_frame = {c.frame_id: c for c in prob.cameras}

    new_tracks = [
        Track(point=prob.points[i], confidence=tr.confidence, observations=tr.observations)
        for i, tr in enumerate(tracks)
    ]

    cameras = []
    for fid in merged.frames():
        cam = by_frame.get(fid)
        if cam is None:
            raise DataError(f"refined problem lacks a camera for frame {fid}")
        cameras.append(cam)
    return cameras, new_tracks, merged.dense_cloud(cameras)
