"""Global bundle adjustment by first-order descent on a robust loss.

The objective is sum over tracks of C_l * sum over observations of
(||y - pi(x)||^2 + eps)^(lambda/2), with lambda = 0.5 by default; eps
(_EPSILON, 1e-8) smooths the non-differentiable point at zero residual.
Observations whose point falls behind the camera contribute C_l * (B + Z^2)
instead, pushing the point back in front. Updates are plain gradient
descent with a cosine learning-rate schedule, per-block unit scaling, and
rotation steps taken on the manifold via the exponential map.

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

Column layout, in blocks: a run allocates one workspace (_Workspace) and
writes into it every iteration. It holds C-contiguous camera (16 x
cameras, [rotation | translation | intrinsics]) and point (3 x points)
tables, the pixels transposed once to (2, M), the row-major (M, 10) and
(M, 3) contribution buffers the incidence products read, an (M,) loss
buffer and one block's scratch rows. An iteration walks the observations
_BA_BLOCK at a time: np.take gathers the block's table columns straight
into the scratch, so every per-observation quantity is a contiguous row,
and each step writes its rows there with out=. The projection is
geometry.pinhole_rows, pinhole's formula, which predicted_pixels also
uses; the behind-camera mask is built only for a block that has a row
behind its camera. Two transposed copies move the 13 contribution rows
into the block's slices of the buffers. The step denominators take |C| in
place once the weighted products have read C, and the adaptive moments and
the best iterate are updated in place, so an iteration allocates nothing
per observation: only the products' per-camera and per-point results and
the rotation update. Every quantity is per observation, so the block size
changes no bit. The sums are written out with fixed addition orders, so
each one keeps the bits of the stacked einsum/np.cross form it replaced:
R x adds (R_i0 x_0 + R_i2 x_2) + R_i1 x_1, R^T g adds (R_0i g_0 +
R_1i g_1) + R_2i g_2, the cross product is a_1 b_2 - a_2 b_1 (and its
rotations) and ||e||^2 is e_0^2 + e_1^2.

Observed cameras only: a camera that no observation refers to gets an
exactly zero step every iteration. After its first application that step
maps the camera to itself (it can only turn a -0.0 rotation entry into
+0.0), so run_ba iterates over the observed cameras and, when the best
iterate is past iteration 0, gives each other camera that step's one
effect: its rotation R becomes I R. Every camera center still counts
toward the translation unit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse

from .errors import ConfigError, DataError, DivergenceError
from .geometry import CameraParams, CameraPose, pinhole_rows, rotation_exp

_BEHIND_PENALTY = 1e4  # px-equivalent floor for behind-camera observations
_NORM_FLOOR = 1e-30
_BA_BLOCK = 4096  # observations per kernel block, so temporaries do not grow with M
_EPSILON = 1e-8  # smoothing added to each squared residual norm before the power lambda/2


@dataclass(frozen=True)
class BAConfig:
    """Optimizer settings; defaults follow the reference recipe."""

    iterations: int = 300
    initial_lr: float = 3e-3
    lambda_exp: float = 0.5
    optimize_intrinsics: bool = True

    def __post_init__(self):
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if not (np.isfinite(self.initial_lr) and self.initial_lr > 0):
            raise ConfigError(f"initial_lr must be positive and finite, got {self.initial_lr}")
        if not (0 < self.lambda_exp <= 2):
            raise ConfigError(f"lambda_exp must be in (0, 2], got {self.lambda_exp}")

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
        for what, rows in (("pixel of observation", px), ("point", pts)):
            bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
            if len(bad):
                raise DataError(f"{what} {bad[0]} is not finite: {rows[bad[0]].tolist()}")
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


def _stack_cameras(cameras):
    r = np.stack([c.pose.rotation for c in cameras])
    t = np.stack([c.pose.translation for c in cameras])
    k = np.stack([c.intrinsics.row() for c in cameras])
    return r, t, k


def _stack_state(prob: BAProblem):
    return *_stack_cameras(prob.cameras), prob.points.copy()


def _rebuild_cameras(prob: BAProblem, r, t, k):
    return [
        CameraParams(
            intrinsics=replace(cam.intrinsics, fx=float(k[i, 0]), fy=float(k[i, 1]), cx=float(k[i, 2]), cy=float(k[i, 3])),
            pose=CameraPose(rotation=r[i], translation=t[i]),
            frame_id=cam.frame_id,
        )
        for i, cam in enumerate(prob.cameras)
    ]


def _tables(r, t, k, points, out=None):
    """(camera table (16, cameras), point table (3, points)), both
    C-contiguous: the camera rows [rotation | translation | intrinsics] and
    the points, transposed so each gathered quantity is a contiguous row.
    Fills out, a pair of such tables, when given."""
    cam, pt = out if out is not None else (np.empty((16, len(r))), np.empty((3, len(points))))
    cam[:9] = r.reshape(-1, 9).T
    cam[9:12] = t.T
    cam[12:] = k.T
    pt[...] = points.T
    return cam, pt


def _camera_frame(cam, x, rx, v, tmp):
    """Fills rx with R x and v with R x + t for gathered camera columns cam
    (16, n) and point columns x (3, n); tmp is (3, n) scratch.

    Row 3i + j of the rotation block holds R_ij.
    """
    rm = cam[:9]
    # (R_i0 x_0 + R_i2 x_2) + R_i1 x_1, the order numpy 2.4's "mij,mj->mi"
    # einsum adds in; keeping it keeps every refined pose's bits
    np.multiply(rm[0::3], x[0], out=rx)
    rx += np.multiply(rm[2::3], x[2], out=tmp)
    rx += np.multiply(rm[1::3], x[1], out=tmp)
    np.add(rx, cam[9:12], out=v)


# per-observation rows of one block's scratch: the gathered camera columns
# (16) and point columns (3), R x, R x + t, the residual, its squared norm,
# the 13 contribution rows, gpi * (fx, fy) and three rows of temporaries
_BLOCK_ROWS = {"cam": 16, "x": 3, "rx": 3, "v": 3, "e": 2, "s2": 1, "rows": 13, "a": 2, "tmp": 3}


class _Workspace:
    """Everything the kernel writes, allocated once per run: the tables,
    the transposed pixels (2, M), the contribution rows the incidence
    products read (camera (M, 10), point (M, 3)), the unweighted losses
    (M,) and one block's scratch rows."""

    def __init__(self, prob: BAProblem):
        m = prob.n_observations
        self.prob = prob
        self.tables = np.empty((16, prob.n_cameras)), np.empty((3, prob.n_points))
        self.pixels = np.ascontiguousarray(prob.pixels.T)
        self.c_cam, self.c_pt, self.loss = np.empty((m, 10)), np.empty((m, 3)), np.empty(m)
        self._arena = np.empty(sum(_BLOCK_ROWS.values()) * min(_BA_BLOCK, m))
        self._blocks = {}

    def block(self, n: int) -> dict:
        """Named (rows, n) views of the scratch, each C-contiguous; a run
        carves them once per block length."""
        if n not in self._blocks:
            views, off = {}, 0
            for name, rows in _BLOCK_ROWS.items():
                views[name] = self._arena[off:off + rows * n].reshape(rows, n)
                off += rows * n
            self._blocks[n] = views
        return self._blocks[n]


def _loss_terms(ws: _Workspace, cfg: BAConfig, r, t, k, points):
    """Fills the workspace's contribution rows and losses and returns the
    per-observation unweighted losses (M,), a view of its buffer.

    The camera buffer receives each observation's camera row [rotation |
    translation | intrinsics] and the point buffer its point row, both
    before the confidence weight: multiplying by the observation confidence
    yields the weighted quantities, so one geometry pass serves both the
    true gradient and the confidence-free normalizer. Observations are
    taken _BA_BLOCK at a time; every quantity is per observation, so the
    block size changes no bit.
    """
    prob = ws.prob
    lam = cfg.lambda_exp
    cam_tab, pt_tab = _tables(r, t, k, points, out=ws.tables)
    for start in range(0, prob.n_observations, _BA_BLOCK):
        obs = slice(start, start + _BA_BLOCK)
        ci = prob.camera_indices[obs]
        b = ws.block(len(ci))
        # indices were range-checked with the problem, so "clip" changes
        # none and lets take write straight into the scratch
        cam = np.take(cam_tab, ci, axis=1, out=b["cam"], mode="clip")
        x = np.take(pt_tab, prob.point_indices[obs], axis=1, out=b["x"], mode="clip")
        rm, km, rx, v, tmp, rows = cam[:9], cam[12:], b["rx"], b["v"], b["tmp"], b["rows"]
        _camera_frame(cam, x, rx, v, tmp)
        z = v[2]
        all_front = z.min() > 0  # False on a NaN depth, which then counts as behind
        if all_front:
            zs = z
        else:
            back = ~(z > 0)
            zs = np.where(back, 1.0, z)
        e = pinhole_rows(v, km, zs, b["e"])
        np.subtract(ws.pixels[:, obs], e, out=e)
        s2, t0 = b["s2"][0], tmp[0]
        np.multiply(e[0], e[0], out=s2)
        s2 += np.multiply(e[1], e[1], out=t0)
        s2 += _EPSILON
        loss = ws.loss[obs]
        np.copyto(loss, s2)
        # in-place ** keeps the operator's bits (it takes sqrt for 0.5)
        loss **= lam / 2.0
        # d loss / d projected pixel: -(lam * s2^(lam/2 - 1)) * e, in rows 8:10;
        # rounding is symmetric, so (-lam) * w is -(lam * w) bit for bit
        s2 **= lam / 2.0 - 1.0
        s2 *= -lam
        gpi = np.multiply(s2, e, out=rows[8:10])

        g = rows[3:6]
        a = np.multiply(gpi, km[0:2], out=b["a"])
        np.divide(a, zs, out=g[0:2])
        np.multiply(a[0], v[0], out=g[2])
        g[2] += np.multiply(a[1], v[1], out=t0)
        np.negative(g[2], out=g[2])
        g[2] /= np.multiply(zs, zs, out=t0)
        np.multiply(gpi, v[0:2], out=rows[6:8])
        rows[6:8] /= zs
        if not all_front:
            # behind-camera branch: C * (B + Z^2), gradient (0, 0, 2Z)
            rows[3:10, back] = 0.0
            zb = z[back]
            g[2, back] = 2.0 * zb
            loss[back] = _BEHIND_PENALTY + zb * zb

        # rotation rows rx x g, each component a_1 b_2 - a_2 b_1 as np.cross forms it
        for i, j, l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            np.multiply(rx[j], g[l], out=rows[i])
            rows[i] -= np.multiply(rx[l], g[j], out=t0)
        # point rows R^T g, adding (R_0i g_0 + R_1i g_1) + R_2i g_2
        pt = rows[10:13]
        np.multiply(rm[0:3], g[0], out=pt)
        pt += np.multiply(rm[3:6], g[1], out=tmp)
        pt += np.multiply(rm[6:9], g[2], out=tmp)
        # the incidence products read row-major (M, 10) and (M, 3) buffers
        np.copyto(ws.c_cam[obs], rows[:10].T)
        np.copyto(ws.c_pt[obs], pt.T)
    return ws.loss


def _incidences(prob: BAProblem):
    """(cameras x observations, points x observations) CSR pairs, first
    holding each observation's confidence, then holding ones.

    The two matrices of a side share one int32 index structure, each row's
    observations in ascending order, and both 0/1 matrices share one vector
    of ones: about 32 bytes per observation in all.
    """
    m = prob.n_observations
    dtype = np.int32 if m < 2**31 else np.int64
    ones = np.ones(m)
    weighted, unit = [], []
    for index, n in ((prob.camera_indices, prob.n_cameras), (prob.point_indices, prob.n_points)):
        obs = np.argsort(index, kind="stable").astype(dtype)
        indptr = np.zeros(n + 1, dtype=dtype)
        np.cumsum(np.bincount(index, minlength=n), out=indptr[1:])
        weighted.append(sparse.csr_array((prob.confidences.take(obs), obs, indptr), shape=(n, m)))
        unit.append(sparse.csr_array((ones, obs, indptr), shape=(n, m)))
    return tuple(weighted), tuple(unit)


def _gradient_sums(incidences, ws: _Workspace):
    """(camera gradient, point gradient, camera denominator, point denominator).

    Each sum is one incidence product over the contribution rows
    _loss_terms filled: the weighted incidence forms conf * C inside the
    product, then the 0/1 one sums |C|, which replaces C in its buffer.
    """
    (w_cam, w_pt), (a_cam, a_pt) = incidences
    g_cam, g_pt = w_cam @ ws.c_cam, w_pt @ ws.c_pt
    return g_cam, g_pt, a_cam @ np.abs(ws.c_cam, out=ws.c_cam), a_pt @ np.abs(ws.c_pt, out=ws.c_pt)


def _total(prob: BAProblem, loss) -> float:
    """sum of confidence * loss; weights the loss buffer in place."""
    return float(np.sum(np.multiply(prob.confidences, loss, out=loss)))


def ba_loss(prob: BAProblem, cfg: BAConfig | None = None) -> float:
    """Confidence-weighted robust reprojection loss."""
    cfg = cfg or BAConfig()
    return _total(prob, _loss_terms(_Workspace(prob), cfg, *_stack_state(prob)))


def predicted_pixels(prob: BAProblem) -> tuple[np.ndarray, np.ndarray]:
    """Reproject every observation's point through its camera.

    Returns (uv (M, 2), in_front (M,)); behind-camera rows are NaN. The
    loss takes its pixels from the same camera-frame step and the same
    projection, pinhole_rows, so observations built from this output yield
    bitwise-zero residuals.
    """
    m = prob.n_observations
    cam_tab, pt_tab = _tables(*_stack_state(prob))
    cam = cam_tab.take(prob.camera_indices, axis=1)
    rx, v = np.empty((3, m)), np.empty((3, m))
    _camera_frame(cam, pt_tab.take(prob.point_indices, axis=1), rx, v, np.empty((3, m)))
    front = v[2] > 0
    uv = pinhole_rows(v, cam[12:], np.where(front, v[2], np.nan), np.empty((2, m)))
    return uv.T.copy(), front


def reprojection_errors(prob: BAProblem) -> tuple[np.ndarray, np.ndarray]:
    """(residual norms in px, in-front mask); behind-camera rows are NaN."""
    uv, front = predicted_pixels(prob)
    return np.linalg.norm(prob.pixels - uv, axis=1), front


def ba_gradients(prob: BAProblem, cfg: BAConfig | None = None) -> BAGradients:
    """Analytic gradient of ba_loss for every parameter block."""
    cfg = cfg or BAConfig()
    ws = _Workspace(prob)
    _loss_terms(ws, cfg, *_stack_state(prob))
    g, g_pt, _, _ = _gradient_sums(_incidences(prob), ws)
    return BAGradients(rotation=g[:, :3], translation=g[:, 3:6], points=g_pt, intrinsics=g[:, 6:])


class _AdaptiveState:
    """First moment of the weighted gradient over an L1 denominator built
    from confidence-free contribution magnitudes, with bias correction.
    Updates its moments in place."""

    beta1, beta2 = 0.9, 0.99

    def __init__(self, shape):
        self.m = np.zeros(shape)
        self.d = np.zeros(shape)
        self.count = 0

    def step(self, grad, denom_l1, lr, unit):
        """(lr * unit) * m_hat / (d_hat + floor). grad and denom_l1 are
        used as scratch: the step is returned in grad's buffer."""
        self.count += 1
        self.m *= self.beta1
        self.m += np.multiply(grad, 1.0 - self.beta1, out=grad)
        self.d *= self.beta2
        self.d += np.multiply(denom_l1, 1.0 - self.beta2, out=denom_l1)
        step = np.divide(self.m, 1.0 - self.beta1**self.count, out=grad)
        step *= lr * unit
        d_hat = np.divide(self.d, 1.0 - self.beta2**self.count, out=denom_l1)
        d_hat += _NORM_FLOOR
        step /= d_hat
        return step


def _camera_bounds(cameras, k):
    """(per-camera focal unit, focal floor, image widths, image heights),
    fixed for the run: intrinsic steps are taken in units of each camera's
    initial focal length (the first column of its intrinsics row in k)."""
    unit_k = k[:, 0:1].copy()
    widths = np.array([float(c.intrinsics.width) for c in cameras])
    heights = np.array([float(c.intrinsics.height) for c in cameras])
    return unit_k, 1e-6 * unit_k[:, 0], widths, heights


def _step_cameras(r, t, k, step, bounds, optimize_intrinsics: bool):
    """Takes step (cameras, 10) [rotation | translation | intrinsics]: the
    rotation on the manifold, translation and intrinsics in place, keeping
    the intrinsics rebuildable (positive focals, principal point inside the
    image). Returns the new rotations; step's intrinsic columns are used as
    scratch."""
    r = rotation_exp(-step[:, :3]) @ r
    t -= step[:, 3:6]
    if optimize_intrinsics:
        unit_k, focal_floor, widths, heights = bounds
        k -= np.multiply(step[:, 6:], unit_k, out=step[:, 6:])
        np.maximum(k[:, 0], focal_floor, out=k[:, 0])
        np.maximum(k[:, 1], focal_floor, out=k[:, 1])
        np.clip(k[:, 2], 0.0, widths, out=k[:, 2])
        np.clip(k[:, 3], 0.0, heights, out=k[:, 3])
    return r


def run_ba(prob: BAProblem, cfg: BAConfig | None = None) -> BAResult:
    """Gradient descent with best-iterate return.

    Translation and point steps scale with the median camera-center
    spread; intrinsic steps scale with each camera's initial focal
    length; rotation steps are radians. The loss history has
    iterations + 1 entries (initial value first). Non-finite loss or
    gradient raises DivergenceError naming the iteration.
    """
    cfg = cfg or BAConfig()
    centers = np.stack([c.pose.center for c in prob.cameras])
    spread = np.linalg.norm(centers - centers.mean(axis=0), axis=1)
    unit_t = float(np.median(spread))
    if unit_t <= 0:
        unit_t = 1.0

    # A camera without observations gets an exactly zero step at every
    # iteration, so the loop runs over the observed cameras only and the
    # others take that zero step once at the end.
    observed = np.bincount(prob.camera_indices, minlength=prob.n_cameras) > 0
    if observed.all():
        sub = prob
    else:
        index = np.flatnonzero(observed)
        sub = replace(
            prob,
            cameras=[prob.cameras[i] for i in index],
            camera_indices=np.searchsorted(index, prob.camera_indices),
        )
    r, t, k, points = _stack_state(sub)
    bounds = _camera_bounds(sub.cameras, k)

    history = np.empty(cfg.iterations + 1)
    incidences = _incidences(sub)  # before the workspace, so its build transients do not stack on it
    ws = _Workspace(sub)
    current = _total(sub, _loss_terms(ws, cfg, r, t, k, points))
    if not np.isfinite(current):
        raise DivergenceError("initial loss is not finite", iteration=0)
    history[0] = current
    best_it, best = 0, (r.copy(), t.copy(), k.copy(), points.copy())

    # camera columns [rotation | translation | intrinsics]; intrinsic steps
    # are taken in unit 1 and scaled by each camera's focal
    unit_cam = np.array([1.0] * 3 + [unit_t] * 3 + [1.0] * 4)
    state_cam = _AdaptiveState((sub.n_cameras, 10))
    state_pt = _AdaptiveState((sub.n_points, 3))

    for it in range(cfg.iterations):
        grad_cam, grad_pt, denom_cam, denom_pt = _gradient_sums(incidences, ws)
        if not (np.all(np.isfinite(grad_cam)) and np.all(np.isfinite(grad_pt))):
            raise DivergenceError("non-finite gradient", iteration=it + 1)

        lr = cfg.learning_rate(it)
        # divergence shows up as non-finite values that the checks below
        # catch; silence the intermediate overflow warnings
        with np.errstate(all="ignore"):
            step_cam = state_cam.step(grad_cam, denom_cam, lr, unit_cam)
            r = _step_cameras(r, t, k, step_cam, bounds, cfg.optimize_intrinsics)
            points -= state_pt.step(grad_pt, denom_pt, lr, unit_t)
            loss_terms = _loss_terms(ws, cfg, r, t, k, points)
        current = _total(sub, loss_terms)
        if not np.isfinite(current):
            raise DivergenceError("loss became non-finite", iteration=it + 1)
        history[it + 1] = current
        if current < history[best_it]:
            best_it = it + 1
            for snapshot, now in zip(best, (r, t, k, points)):
                np.copyto(snapshot, now)

    r_b, t_b, k_b, p_b = best
    if sub is not prob:
        r_all, t_all, k_all = _stack_cameras(prob.cameras)
        r_all[observed], t_all[observed], k_all[observed] = r_b, t_b, k_b
        if best_it:
            # their zero steps leave translation and intrinsics as they
            # are, and turn each rotation into exp(0) R with an exact identity
            r_all[~observed] = np.eye(3) @ r_all[~observed]
        r_b, t_b, k_b = r_all, t_all, k_all
    refined = replace(
        prob,
        cameras=_rebuild_cameras(prob, r_b, t_b, k_b),
        points=p_b,
    )
    return BAResult(
        problem=refined,
        loss_history=history,
        initial_loss=float(history[0]),
        final_loss=float(history[best_it]),
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
