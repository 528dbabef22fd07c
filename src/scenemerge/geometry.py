"""Camera models, pinhole projection, and the Sim(3) group.

Conventions used throughout the package:

* Poses are camera-from-world: ``x_cam = R @ x_world + t``. The camera
  center in world coordinates is ``-R.T @ t``.
* Pixels are (u, v) with u along image width (x) and v along height (y).
* A Sim(3) transform acts on points as ``s * R @ p + t``.
* Depth is the camera-frame z coordinate; points with z <= 0 are behind
  the camera and are flagged, never silently projected.
* pinhole is the one projection: every pixel the package computes from a
  3D point goes through it, or through pinhole_rows, its formula on
  columns, which BA calls on its per-observation rows. The world-to-camera
  step before it stays with each caller (a gemm for one camera, BA's
  per-observation sums), since the two differ in the last bit and every
  artifact keeps its bits. The one exception is the match gate:
  tracking._transfers moves a pixel at its depth into the other camera.
* The rotation primitives take stacks, (..., 3) vectors and (..., 3, 3)
  matrices, and give each row the bits a call on that row alone gives.
  Branches (small angle, zero axis, equal rotations) are picked per row
  with np.where; the discarded one runs on safe values and never warns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidPoseError

_ORTHO_TOL = 1e-6
# Rows per gemm in apply_sim3. OpenBLAS 0.3.31 (x86-64) hands a
# (rows x 3) @ (3 x 3) product to its thread pool above about 58k rows, and
# waking a pool thread stalls ~0.1 s on a busy 2-vCPU machine. No row's
# bits depend on the blocking.
_SIM3_BLOCK_ROWS = 16_384


def _as_rotation(m, tol: float = _ORTHO_TOL) -> np.ndarray:
    r = np.asarray(m, dtype=np.float64)
    if r.shape != (3, 3):
        raise InvalidPoseError(f"rotation must be 3x3, got shape {r.shape}")
    if not np.all(np.isfinite(r)):
        raise InvalidPoseError("rotation contains non-finite entries")
    err = np.linalg.norm(r.T @ r - np.eye(3))
    if err > tol:
        raise InvalidPoseError(f"rotation is not orthonormal (||R^T R - I|| = {err:.3e})")
    if np.linalg.det(r) < 0:
        raise InvalidPoseError("rotation has negative determinant (reflection)")
    return r


def _as_vec3(v, name: str) -> np.ndarray:
    a = np.asarray(v, dtype=np.float64)
    if a.shape != (3,):
        raise InvalidPoseError(f"{name} must have shape (3,), got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidPoseError(f"{name} contains non-finite entries")
    return a


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics in pixels for an image of size width x height."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (0 < self.fx < np.inf and 0 < self.fy < np.inf):
            raise InvalidPoseError(f"focal lengths must be positive and finite, got fx={self.fx}, fy={self.fy}")
        if self.width <= 0 or self.height <= 0:
            raise InvalidPoseError(f"image size must be positive, got {self.width}x{self.height}")
        if not (0 <= self.cx <= self.width and 0 <= self.cy <= self.height):
            raise InvalidPoseError(
                f"principal point ({self.cx}, {self.cy}) outside image {self.width}x{self.height}"
            )

    def row(self) -> np.ndarray:
        """[fx, fy, cx, cy], the intrinsics row pinhole takes."""
        return np.array([self.fx, self.fy, self.cx, self.cy], dtype=np.float64)


@dataclass(frozen=True)
class CameraPose:
    """Camera-from-world rigid pose: x_cam = rotation @ x_world + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", _as_rotation(self.rotation))
        object.__setattr__(self, "translation", _as_vec3(self.translation, "translation"))

    @property
    def center(self) -> np.ndarray:
        """Camera center in world coordinates, -R^T @ t."""
        return -self.rotation.T @ self.translation

    def world_to_camera(self, points: np.ndarray) -> np.ndarray:
        cam = np.asarray(points, dtype=np.float64) @ self.rotation.T
        t, axes = self.translation, cam.T  # axes[0] is every point's x, of any (..., 3) shape
        # t added axis by axis: the bits of adding it to each (3,) row,
        # without numpy's slow broadcast over rows of 3
        axes[0] += t[0]
        axes[1] += t[1]
        axes[2] += t[2]
        return cam


@dataclass(frozen=True)
class CameraParams:
    """One frame's calibrated camera: intrinsics + pose + global frame id."""

    intrinsics: CameraIntrinsics
    pose: CameraPose
    frame_id: int


@dataclass(frozen=True)
class Sim3Transform:
    """Similarity transform p -> scale * rotation @ p + translation."""

    scale: float
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise InvalidPoseError(f"Sim(3) scale must be positive and finite, got {self.scale}")
        object.__setattr__(self, "rotation", _as_rotation(self.rotation))
        object.__setattr__(self, "translation", _as_vec3(self.translation, "translation"))

    @classmethod
    def identity(cls) -> "Sim3Transform":
        return cls(1.0, np.eye(3), np.zeros(3))

    def inverse(self) -> "Sim3Transform":
        """Inverse transform: (1/s, R^T, -(1/s) R^T t)."""
        rt = self.rotation.T
        return Sim3Transform(1.0 / self.scale, rt, -(rt @ self.translation) / self.scale)


@dataclass(frozen=True)
class PointCloud:
    """Points (N, 3) with an optional per-point confidence (N,)."""

    points: np.ndarray
    confidences: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise InvalidPoseError(f"points must have shape (N, 3), got {pts.shape}")
        object.__setattr__(self, "points", pts)
        if self.confidences is not None:
            conf = np.asarray(self.confidences, dtype=np.float64)
            if conf.shape != (len(pts),):
                raise InvalidPoseError(f"confidences must have shape ({len(pts)},), got {conf.shape}")
            object.__setattr__(self, "confidences", conf)

    def __len__(self) -> int:
        return len(self.points)


def pinhole_rows(v: np.ndarray, k: np.ndarray, zs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fills out (2, n) with the pixels u = fx * x / z + cx, v = fy * y / z + cy
    of camera-frame columns v (3, n), dividing by zs in place of z; k holds
    the intrinsics as rows [fx, fy, cx, cy], (4, n) or (4, 1). The formula
    pinhole and bundle adjustment share."""
    np.multiply(k[0:2], v[0:2], out=out)
    out /= zs
    out += k[2:4]
    return out


def pinhole(points_cam: np.ndarray, k) -> tuple[np.ndarray, np.ndarray]:
    """Pixels u = fx * x / z + cx, v = fy * y / z + cy of (N, 3) camera-frame points.

    k is one [fx, fy, cx, cy] row or one row per point. Returns (uv (N, 2),
    in_front (N,)); rows with z <= 0 are NaN and flagged. Each row gets the
    bits it would get alone.
    """
    p = np.asarray(points_cam, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    z = p[:, 2]
    in_front = z > 0
    zs = np.where(in_front, z, np.nan)  # NaN propagates quietly; no divide by 0
    u, v = pinhole_rows(p.T, k.reshape(-1, 4).T, zs, np.empty((2, len(p))))
    return np.stack([u, v], axis=1), in_front


def project_points(points: np.ndarray, camera: CameraParams) -> tuple[np.ndarray, np.ndarray]:
    """Pinhole projection of (N, 3) world points through one camera.

    Returns (uv, in_front) where uv is (N, 2) and in_front is a bool mask of
    points with camera-frame depth > 0. Pixels of behind-camera points are NaN.
    """
    return pinhole(camera.pose.world_to_camera(points), camera.intrinsics.row())


def unproject_pixels(pixels: np.ndarray, depths: np.ndarray, camera: CameraParams) -> np.ndarray:
    """Vectorized unprojection of (N, 2) pixels with (N,) depths to world points."""
    px = np.asarray(pixels, dtype=np.float64)
    d = np.asarray(depths, dtype=np.float64)
    k = camera.intrinsics
    x = (px[:, 0] - k.cx) / k.fx * d
    y = (px[:, 1] - k.cy) / k.fy * d
    t = camera.pose.translation
    # camera-frame point minus t, column by column: the bits of subtracting
    # t from each (3,) row, without numpy's slow broadcast over rows of 3
    return np.stack([x - t[0], y - t[1], d - t[2]], axis=1) @ camera.pose.rotation


def apply_sim3(t: Sim3Transform, points: np.ndarray) -> np.ndarray:
    """Apply s * R @ p + t to a single (3,) point or an (N, 3) array.

    An array is transformed in blocks of _SIM3_BLOCK_ROWS rows, so BLAS
    runs each product on the calling thread; every row gets the bits of
    one product over the whole array.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        return t.scale * (t.rotation @ pts) + t.translation
    out = np.empty(pts.shape)
    for start in range(0, len(pts), _SIM3_BLOCK_ROWS):
        rows = slice(start, start + _SIM3_BLOCK_ROWS)
        out[rows] = t.scale * (pts[rows] @ t.rotation.T) + t.translation
    return out


def compose_sim3(a: Sim3Transform, b: Sim3Transform) -> Sim3Transform:
    """Composition a after b: (compose(a, b))(p) == a(b(p))."""
    return Sim3Transform(
        a.scale * b.scale,
        a.rotation @ b.rotation,
        a.scale * (a.rotation @ b.translation) + a.translation,
    )


def transform_camera(t: Sim3Transform, camera: CameraParams) -> CameraParams:
    """Move a camera so it views transformed points exactly as it viewed the originals.

    If x_cam = R @ p + tr, the new pose (R', tr') must satisfy
    R' @ (s Q p + u) + tr' = s * (R @ p + tr) for the Sim(3) (s, Q, u); depth
    scales by s and pixels are unchanged. That gives R' = R @ Q^T and
    tr' = s * tr - R @ Q^T @ u. The camera center maps by apply_sim3.
    """
    r_new = camera.pose.rotation @ t.rotation.T
    tr_new = t.scale * camera.pose.translation - r_new @ t.translation
    return CameraParams(
        intrinsics=camera.intrinsics,
        pose=CameraPose(rotation=r_new, translation=tr_new),
        frame_id=camera.frame_id,
    )


def row_dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot products of matching rows, (..., n) x (..., n) -> (...), each
    bit-equal to np.dot of that row pair (np.sum and einsum add in other orders)."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def rotation_angle(r: np.ndarray):
    """Rotation angle of R in radians, in [0, pi]."""
    c = (np.trace(np.asarray(r, dtype=np.float64), axis1=-2, axis2=-1) - 1.0) / 2.0
    return np.arccos(np.clip(c, -1.0, 1.0))


def rotation_distance(a: np.ndarray, b: np.ndarray):
    """Geodesic angle between two rotations in radians.

    Bitwise-equal inputs return exactly 0.0; the matrix product a @ b.T
    otherwise leaves ~1e-16 residue whose arccos is ~1e-8, which matters
    to metrics that count errors against a zero threshold.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    equal = np.all(a == b, axis=(-2, -1))
    return np.where(equal, 0.0, rotation_angle(a @ np.swapaxes(b, -1, -2)))[()]


def _rodrigues(k, angle):
    """I + sin(angle) K + (1 - cos(angle)) K^2 for unit-axis skew matrices K."""
    angle = angle[..., None, None]
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def rotation_from_axis_angle(axis, angle) -> np.ndarray:
    """Rodrigues formula; a zero axis gives the identity. axis need not be
    normalized unless angle comes from its norm."""
    ax = np.asarray(axis, dtype=np.float64)
    n = np.sqrt(row_dot(ax, ax))[..., None]
    zero = n == 0
    r = _rodrigues(skew(ax / np.where(zero, 1.0, n)), np.asarray(angle, dtype=np.float64))
    return np.where(zero[..., None], np.eye(3), r)


def rotation_exp(omega) -> np.ndarray:
    """Matrix exponential of skew(omega): rotation by ||omega|| around omega.

    Below an angle of 1e-12 the second-order series keeps the result
    orthonormal to machine precision; it is built only when some row needs
    it. The angle is computed once and also normalizes the axis.
    """
    w = np.asarray(omega, dtype=np.float64)
    angle = np.sqrt(row_dot(w, w))
    small = angle < 1e-12
    r = _rodrigues(skew(w / np.where(small, 1.0, angle)[..., None]), angle)
    if np.any(small):
        k = skew(np.where(small[..., None], w, 0.0))
        r = np.where(small[..., None, None], np.eye(3) + k + 0.5 * (k @ k), r)
    return r


def skew(v) -> np.ndarray:
    """Cross-product matrix: skew(v) @ u == cross(v, u)."""
    x, y, z = np.moveaxis(np.asarray(v, dtype=np.float64), -1, 0)
    o = np.zeros_like(x)
    return np.stack([o, -z, y, z, o, -x, -y, x, o], axis=-1).reshape(*x.shape, 3, 3)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniformly distributed rotation matrix (random unit quaternion)."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    return quat_wxyz_to_matrix(q)


def quat_wxyz_to_matrix(q) -> np.ndarray:
    """Unit quaternion (w, x, y, z) to rotation matrix."""
    w, x, y, z = np.asarray(q, dtype=np.float64)
    n = w * w + x * x + y * y + z * z
    if n == 0:
        raise InvalidPoseError("zero quaternion")
    s = 2.0 / n
    return np.array(
        [
            [1 - s * (y * y + z * z), s * (x * y - w * z), s * (x * z + w * y)],
            [s * (x * y + w * z), 1 - s * (x * x + z * z), s * (y * z - w * x)],
            [s * (x * z - w * y), s * (y * z + w * x), 1 - s * (x * x + y * y)],
        ]
    )


def matrix_to_quat_wxyz(r) -> np.ndarray:
    """Rotation matrix to unit quaternion (w, x, y, z), w >= 0."""
    m = _as_rotation(r)
    t = np.trace(m)
    if t > 0:
        s = np.sqrt(t + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s]
        )
    else:
        i = int(np.argmax(np.diag(m)))
        if i == 0:
            s = np.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
            q = np.array(
                [(m[2, 1] - m[1, 2]) / s, 0.25 * s, (m[0, 1] + m[1, 0]) / s, (m[0, 2] + m[2, 0]) / s]
            )
        elif i == 1:
            s = np.sqrt(1.0 - m[0, 0] + m[1, 1] - m[2, 2]) * 2.0
            q = np.array(
                [(m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s, 0.25 * s, (m[1, 2] + m[2, 1]) / s]
            )
        else:
            s = np.sqrt(1.0 - m[0, 0] - m[1, 1] + m[2, 2]) * 2.0
            q = np.array(
                [(m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s, (m[1, 2] + m[2, 1]) / s, 0.25 * s]
            )
    q = q / np.linalg.norm(q)
    if q[0] < 0:
        q = -q
    return q
