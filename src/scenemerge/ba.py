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
matrix (cameras or points x observations, built once per problem) and
A_w the same pattern holding the confidences, the gradient is A_w @ C,
which forms conf * C inside the product, and the step denominator
A @ |C|. Each CSR row lists its observations in order, so the sums add
exactly as np.bincount of conf * C and |C|.

Column layout, in blocks: an iteration walks the observations _BA_BLOCK
at a time. For each block it gathers the block's columns of the camera
table [rotation | translation | intrinsics] (16 x cameras) and of the
point table (3 x points) with np.take along the transposed column axis,
so every per-observation quantity is a contiguous row of the block's
length, and writes the 13 contribution rows into one (13, block) scratch
that two copies turn into the block's slices of the row-major (M, 10) and
(M, 3) buffers the products read; the block's losses go into an (M,)
buffer. A run allocates those three buffers once, so only they, the
incidence products and |C| grow with M. Every quantity is per
observation, so the block size changes no bit. The sums are
written out with fixed addition orders, so each one keeps the bits of the
stacked einsum/np.cross form it replaced: R x adds (R_i0 x_0 + R_i2 x_2) +
R_i1 x_1, R^T g adds (R_0i g_0 + R_1i g_1) + R_2i g_2, the cross product is
a_1 b_2 - a_2 b_1 (and its rotations) and ||e||^2 is e_0^2 + e_1^2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse

from .errors import ConfigError, DataError, DivergenceError
from .geometry import CameraParams, CameraPose, pinhole, rotation_exp

_BEHIND_PENALTY = 1e4  # px-equivalent floor for behind-camera observations
_NORM_FLOOR = 1e-30
_BA_BLOCK = 4096  # observations per kernel block, so temporaries do not grow with M


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
        the track confidence C_l. tracks is a tracking.Tracks table."""
        if not len(tracks):
            raise DataError("no tracks to adjust")
        frame_ids = np.array([c.frame_id for c in cameras], dtype=np.int64)
        missing = np.flatnonzero(~np.isin(tracks.frames, frame_ids))
        if len(missing):
            m = missing[0]
            raise DataError(f"track {tracks.track_indices[m]} observes frame {tracks.frames[m]} with no camera")
        by_frame = np.argsort(frame_ids, kind="stable")
        return cls(
            cameras=list(cameras),
            points=tracks.points,
            camera_indices=by_frame[np.searchsorted(frame_ids[by_frame], tracks.frames, side="right") - 1],
            point_indices=tracks.track_indices,
            pixels=tracks.pixels,
            confidences=np.repeat(tracks.confidences, tracks.lengths),
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
    k = np.stack([c.intrinsics.row() for c in prob.cameras])
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


def _tables(r, t, k, points):
    """(camera table (16, cameras), point table (3, points)): the camera
    rows [rotation | translation | intrinsics] and the points, transposed
    so each gathered quantity is a contiguous row."""
    return np.concatenate([r.reshape(-1, 9), t, k], axis=1).T, points.T


def _camera_frame(tables, camera_indices, point_indices):
    """Per-observation columns (rotation (9, n), intrinsics (4, n), R x (3, n),
    R x + t (3, n)) for the observations of the given camera and point
    indices.

    Row 3i + j of the rotation block holds R_ij. Each table is gathered
    once with np.take along its column axis.
    """
    cam = np.take(tables[0], camera_indices, axis=1)
    x = np.take(tables[1], point_indices, axis=1)
    rm = cam[:9]
    # (R_i0 x_0 + R_i2 x_2) + R_i1 x_1, the order numpy 2.4's "mij,mj->mi"
    # einsum adds in; keeping it keeps every refined pose's bits
    rx = rm[0::3] * x[0] + rm[2::3] * x[2]
    rx += rm[1::3] * x[1]
    return rm, cam[12:], rx, rx + cam[9:12]


def _kernel_buffers(prob: BAProblem):
    """(camera rows (M, 10), point rows (M, 3), losses (M,)) for _loss_terms
    to fill; a run allocates them once."""
    m = prob.n_observations
    return np.empty((m, 10)), np.empty((m, 3)), np.empty(m)


def _loss_terms(prob: BAProblem, cfg: BAConfig, r, t, k, points, buffers):
    """Fills the buffers of _kernel_buffers and returns the per-observation
    unweighted losses (M,).

    The camera buffer receives each observation's camera row [rotation |
    translation | intrinsics] and the point buffer its point row, both
    before the confidence weight: multiplying by the observation confidence
    yields the weighted quantities, so one geometry pass serves both the
    true gradient and the confidence-free normalizer. Observations are
    taken _BA_BLOCK at a time; every quantity is per observation, so the
    block size changes no bit.
    """
    c_cam, c_pt, loss = buffers
    lam, eps = cfg.lambda_exp, cfg.epsilon
    tables = _tables(r, t, k, points)
    # rows [rotation | translation | intrinsics | point] of one block, copied
    # into the row-major buffers the incidence products read
    block_rows = np.empty((13, min(_BA_BLOCK, prob.n_observations)))
    for start in range(0, prob.n_observations, _BA_BLOCK):
        obs = slice(start, start + _BA_BLOCK)
        rm, km, rx, v = _camera_frame(tables, prob.camera_indices[obs], prob.point_indices[obs])
        uv, front = pinhole(v.T, km.T)
        z = v[2]
        zs = np.where(front, z, 1.0)
        e = (prob.pixels[obs] - uv).T
        s2 = e[0] * e[0] + e[1] * e[1] + eps
        gpi = -(lam * s2 ** (lam / 2.0 - 1.0)) * e  # d loss / d projected pixel

        rows = block_rows[:, : len(z)]
        g = rows[3:6]
        a = gpi * km[0:2]
        np.divide(a, zs, out=g[0:2])
        np.divide(-(a[0] * v[0] + a[1] * v[1]), zs * zs, out=g[2])
        np.divide(gpi * v[0:2], zs, out=rows[6:8])
        rows[8:10] = gpi
        # behind-camera branch: C * (B + Z^2), gradient (0, 0, 2Z)
        back = ~front
        rows[3:10, back] = 0.0
        g[2, back] = 2.0 * z[back]

        # rotation rows rx x g, each component a_1 b_2 - a_2 b_1 as np.cross forms it
        for i, j, l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            np.multiply(rx[j], g[l], out=rows[i])
            rows[i] -= rx[l] * g[j]
        # point rows R^T g, adding (R_0i g_0 + R_1i g_1) + R_2i g_2
        pt = rows[10:13]
        np.multiply(rm[0:3], g[0], out=pt)
        pt += rm[3:6] * g[1]
        pt += rm[6:9] * g[2]
        np.copyto(c_cam[obs], rows[:10].T)
        np.copyto(c_pt[obs], pt.T)
        loss[obs] = np.where(front, s2 ** (lam / 2.0), _BEHIND_PENALTY + z * z)
    return loss


def _incidences(prob: BAProblem):
    """(cameras x observations, points x observations) CSR pairs, first
    holding each observation's confidence, then holding ones."""
    obs = np.arange(prob.n_observations)
    return tuple(
        (
            sparse.csr_array((w, (prob.camera_indices, obs)), shape=(prob.n_cameras, prob.n_observations)),
            sparse.csr_array((w, (prob.point_indices, obs)), shape=(prob.n_points, prob.n_observations)),
        )
        for w in (prob.confidences, np.ones(prob.n_observations))
    )


def _gradient_sums(incidences, buffers):
    """(camera gradient, point gradient, camera denominator, point denominator).

    Each sum is one incidence product over the contribution rows
    _loss_terms filled: the weighted incidence forms conf * C inside the
    product, the 0/1 one sums |C|.
    """
    (w_cam, w_pt), (a_cam, a_pt) = incidences
    c_cam, c_pt, _ = buffers
    return w_cam @ c_cam, w_pt @ c_pt, a_cam @ np.abs(c_cam), a_pt @ np.abs(c_pt)


def ba_loss(prob: BAProblem, cfg: BAConfig | None = None) -> float:
    """Confidence-weighted robust reprojection loss."""
    cfg = cfg or BAConfig()
    loss = _loss_terms(prob, cfg, *_stack_state(prob), _kernel_buffers(prob))
    return float(np.sum(prob.confidences * loss))


def predicted_pixels(prob: BAProblem) -> tuple[np.ndarray, np.ndarray]:
    """Reproject every observation's point through its camera.

    Returns (uv (M, 2), in_front (M,)); behind-camera rows are NaN. The
    loss takes its pixels from the same camera-frame step and the same
    pinhole call, so observations built from this output yield bitwise-zero
    residuals.
    """
    _, km, _, v = _camera_frame(_tables(*_stack_state(prob)), prob.camera_indices, prob.point_indices)
    return pinhole(v.T, km.T)


def reprojection_errors(prob: BAProblem) -> tuple[np.ndarray, np.ndarray]:
    """(residual norms in px, in-front mask); behind-camera rows are NaN."""
    uv, front = predicted_pixels(prob)
    return np.linalg.norm(prob.pixels - uv, axis=1), front


def ba_gradients(prob: BAProblem, cfg: BAConfig | None = None) -> BAGradients:
    """Analytic gradient of ba_loss for every parameter block."""
    cfg = cfg or BAConfig()
    buffers = _kernel_buffers(prob)
    _loss_terms(prob, cfg, *_stack_state(prob), buffers)
    g, g_pt, _, _ = _gradient_sums(_incidences(prob), buffers)
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
    buffers = _kernel_buffers(prob)
    current = float(np.sum(prob.confidences * _loss_terms(prob, cfg, r, t, k, points, buffers)))
    if not np.isfinite(current):
        raise DivergenceError("initial loss is not finite", iteration=0)
    history[0] = current
    best = (current, r.copy(), t.copy(), k.copy(), points.copy(), 0)

    # camera columns [rotation | translation | intrinsics]; intrinsic steps
    # are taken in unit 1 and scaled by each camera's focal below
    unit_cam = np.array([1.0] * 3 + [unit_t] * 3 + [1.0] * 4)
    state_cam = _AdaptiveState((prob.n_cameras, 10))
    state_pt = _AdaptiveState((prob.n_points, 3))
    incidences = _incidences(prob)

    for it in range(cfg.iterations):
        grad_cam, grad_pt, denom_cam, denom_pt = _gradient_sums(incidences, buffers)
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

            loss_terms = _loss_terms(prob, cfg, r, t, k, points, buffers)
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
    prob = result.problem
    if len(tracks) != prob.n_points:
        raise DataError(f"track count {len(tracks)} != problem points {prob.n_points}")
    by_frame = {c.frame_id: c for c in prob.cameras}
    missing = [fid for fid in merged.frames() if fid not in by_frame]
    if missing:
        raise DataError(f"refined problem lacks a camera for frame {missing[0]}")
    cameras = [by_frame[fid] for fid in merged.frames()]
    return cameras, replace(tracks, points=prob.points), merged.dense_cloud(cameras)
