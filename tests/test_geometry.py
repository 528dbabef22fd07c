"""Geometry oracle tests.

Hand-derived expectations used below:

* project_points: point (1, 2, 4) under the identity pose, fx=100 fy=200 cx=50 cy=60:
  u = 100 * 1/4 + 50 = 75, v = 200 * 2/4 + 60 = 160.
* apply_sim3: scale 2, identity rotation, translation (1, 0, 0) applied to
  (1, 1, 1) gives 2*(1,1,1) + (1,0,0) = (3, 2, 2).
* inverse: for t = (s, R, u), t^-1 = (1/s, R^T, -(1/s) R^T u); composing the
  two in either order must give the identity transform.
"""

import warnings

import numpy as np
import pytest

from scenemerge import geometry
from scenemerge.errors import InvalidPoseError
from scenemerge.geometry import (
    CameraIntrinsics,
    CameraParams,
    CameraPose,
    Sim3Transform,
    apply_sim3,
    compose_sim3,
    matrix_to_quat_wxyz,
    pinhole,
    project_points,
    quat_wxyz_to_matrix,
    random_rotation,
    rotation_angle,
    rotation_distance,
    rotation_exp,
    rotation_from_axis_angle,
    skew,
    transform_camera,
    unproject_pixels,
)


def _K(fx=100.0, fy=200.0, cx=50.0, cy=60.0, w=640, h=480):
    return CameraIntrinsics(fx=fx, fy=fy, cx=cx, cy=cy, width=w, height=h)


def _identity_camera(frame_id=0):
    return CameraParams(
        intrinsics=_K(),
        pose=CameraPose(rotation=np.eye(3), translation=np.zeros(3)),
        frame_id=frame_id,
    )


def _random_camera(rng, frame_id=0):
    r = random_rotation(rng)
    t = rng.normal(size=3)
    k = CameraIntrinsics(
        fx=float(rng.uniform(80, 400)),
        fy=float(rng.uniform(80, 400)),
        cx=float(rng.uniform(100, 540)),
        cy=float(rng.uniform(100, 380)),
        width=640,
        height=480,
    )
    return CameraParams(intrinsics=k, pose=CameraPose(rotation=r, translation=t), frame_id=frame_id)


def _random_sim3(rng, scale_lo=0.1, scale_hi=10.0):
    return Sim3Transform(
        scale=float(rng.uniform(scale_lo, scale_hi)),
        rotation=random_rotation(rng),
        translation=rng.normal(size=3) * 3.0,
    )


class TestProjection:
    def test_frozen_example(self):
        uv, in_front = project_points(np.array([[1.0, 2.0, 4.0]]), _identity_camera())
        assert in_front.tolist() == [True]
        np.testing.assert_allclose(uv, [[75.0, 160.0]], atol=1e-12)

    def test_behind_camera_flagged_not_raised(self):
        uv, in_front = project_points(np.array([[0.0, 0.0, -1.0]]), _identity_camera())
        assert in_front.tolist() == [False]
        assert np.all(np.isnan(uv))

    def test_zero_depth_flagged(self):
        uv, in_front = project_points(np.array([[1.0, 1.0, 0.0], [1.0, 1.0, -0.0]]), _identity_camera())
        assert in_front.tolist() == [False, False]
        assert np.all(np.isnan(uv))

    def test_vectorized_matches_scalar(self):
        """Each row of a stacked call matches that row projected alone, up to
        rounding: the world-to-camera gemm may round a one-row product
        differently. pinhole itself is bitwise per row (TestPinhole)."""
        rng = np.random.default_rng(7)
        cam = _random_camera(rng)
        pts = rng.normal(size=(100, 3)) * 4.0
        uv, valid = project_points(pts, cam)
        assert 0 < valid.sum() < len(pts)
        for i in range(len(pts)):
            uv_i, v_i = project_points(pts[i : i + 1], cam)
            assert v_i.tolist() == [valid[i]]
            np.testing.assert_allclose(uv_i, uv[i : i + 1], atol=1e-12)

    def test_unproject_project_round_trip(self):
        # spec invariant: unproject(project(p)) == p to 1e-9 for z > 0
        rng = np.random.default_rng(42)
        for _ in range(50):
            cam = _random_camera(rng)
            pts = rng.normal(size=(20, 3)) * 5.0
            cam_frame = cam.pose.world_to_camera(pts)
            keep = cam_frame[:, 2] > 0.05
            pts = pts[keep]
            if len(pts) == 0:
                continue
            uv, valid = project_points(pts, cam)
            assert valid.all()
            back = unproject_pixels(uv, cam.pose.world_to_camera(pts)[:, 2], cam)
            np.testing.assert_allclose(back, pts, atol=1e-9)

    def test_world_to_camera_bits_of_the_broadcast_add(self):
        """Adding t axis by axis gives the bits of the broadcast
        points @ R.T + t, for an empty, a strided and a single point."""
        rng = np.random.default_rng(11)
        pose = _random_camera(rng).pose
        wide = rng.normal(size=(781, 5)) * 4.0
        for pts in (wide[:, :3], wide[:, 1:4].copy(), wide[::3, 2:], np.empty((0, 3)), wide[7, :3]):
            got = pose.world_to_camera(pts)
            want = np.asarray(pts) @ pose.rotation.T + pose.translation
            assert got.shape == want.shape and got.dtype == np.float64
            assert got.tobytes() == want.tobytes()
        assert not wide[::3, 2:].flags.c_contiguous

    def test_unproject_scalar_matches_vectorized(self):
        """Each row of a stacked unprojection matches that row alone."""
        rng = np.random.default_rng(3)
        cam = _random_camera(rng)
        px = rng.uniform(0, 480, size=(20, 2))
        depth = rng.uniform(0.5, 5.0, size=20)
        stacked = unproject_pixels(px, depth, cam)
        for i in range(len(px)):
            np.testing.assert_allclose(unproject_pixels(px[i : i + 1], depth[i : i + 1], cam), stacked[i : i + 1])


class TestPinhole:
    def test_frozen_example_per_row_intrinsics(self):
        """(1, 2, 4) under [100, 200, 50, 60] is (75, 160); under [10, 20, 5, 6] it is (7.5, 16)."""
        k = np.array([[100.0, 200.0, 50.0, 60.0], [10.0, 20.0, 5.0, 6.0]])
        uv, in_front = pinhole(np.array([[1.0, 2.0, 4.0], [1.0, 2.0, 4.0]]), k)
        assert in_front.tolist() == [True, True]
        np.testing.assert_allclose(uv, [[75.0, 160.0], [7.5, 16.0]], atol=1e-12)

    def test_stack_rows_match_rows_alone(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(200, 3)) * 3.0
        k = np.column_stack([rng.uniform(80, 400, size=(200, 2)), rng.uniform(100, 400, size=(200, 2))])
        for kk in (k, k[0]):
            uv, front = pinhole(pts, kk)
            assert 0 < front.sum() < len(pts)
            for i in range(len(pts)):
                uv_i, front_i = pinhole(pts[i : i + 1], kk[i] if kk.ndim == 2 else kk)
                assert front_i.tolist() == [front[i]]
                np.testing.assert_array_equal(uv_i, uv[i : i + 1])

    def test_non_positive_depth_is_nan_and_flagged_without_warning(self):
        pts = np.array([[1.0, 2.0, -3.0], [1.0, 2.0, 0.0], [0.0, 0.0, -0.0], [0.0, 0.0, 0.0], [1.0, 2.0, 4.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            uv, in_front = pinhole(pts, [100.0, 200.0, 50.0, 60.0])
        assert in_front.tolist() == [False, False, False, False, True]
        assert np.all(np.isnan(uv[:4]))
        np.testing.assert_array_equal(uv[4], [75.0, 160.0])


class TestSim3:
    def test_frozen_apply_example(self):
        t = Sim3Transform(scale=2.0, rotation=np.eye(3), translation=np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(apply_sim3(t, np.array([1.0, 1.0, 1.0])), [3.0, 2.0, 2.0])

    def test_identity(self):
        t = Sim3Transform.identity()
        p = np.array([0.3, -1.2, 8.0])
        np.testing.assert_allclose(apply_sim3(t, p), p)

    def test_compose_matches_sequential_apply(self):
        # spec invariant at 1e-9 over randomized transforms, scales in [0.1, 10]
        rng = np.random.default_rng(1234)
        for _ in range(1000):
            a = _random_sim3(rng)
            b = _random_sim3(rng)
            p = rng.normal(size=3) * 5.0
            lhs = apply_sim3(compose_sim3(a, b), p)
            rhs = apply_sim3(a, apply_sim3(b, p))
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_inverse_composes_to_identity(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            t = _random_sim3(rng)
            for c in (compose_sim3(t, t.inverse()), compose_sim3(t.inverse(), t)):
                assert abs(c.scale - 1.0) < 1e-9
                np.testing.assert_allclose(c.rotation, np.eye(3), atol=1e-9)
                np.testing.assert_allclose(c.translation, 0.0, atol=1e-9)

    def test_batch_apply_matches_single(self):
        rng = np.random.default_rng(5)
        t = _random_sim3(rng)
        pts = rng.normal(size=(17, 3))
        batch = apply_sim3(t, pts)
        for i in range(17):
            np.testing.assert_allclose(batch[i], apply_sim3(t, pts[i]), atol=1e-12)

    def test_blocked_apply_matches_one_product_bit_for_bit(self):
        """A cloud of several blocks plus a partial one gets the bits of a
        single gemm over every row, whatever its memory layout."""
        rng = np.random.default_rng(8)
        t = _random_sim3(rng)
        pts = rng.normal(size=(120_003, 3)) * 50.0
        assert len(pts) > 7 * geometry._SIM3_BLOCK_ROWS
        for cloud in (pts, np.asfortranarray(pts), pts[::-1]):
            expected = t.scale * (cloud @ t.rotation.T) + t.translation
            assert apply_sim3(t, cloud).tobytes() == expected.tobytes()
        assert apply_sim3(t, np.zeros((0, 3))).shape == (0, 3)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(InvalidPoseError):
            Sim3Transform(scale=0.0, rotation=np.eye(3), translation=np.zeros(3))
        with pytest.raises(InvalidPoseError):
            Sim3Transform(scale=-1.0, rotation=np.eye(3), translation=np.zeros(3))

    def test_rejects_non_orthonormal_rotation(self):
        m = np.eye(3)
        m[0, 0] = 1.5
        with pytest.raises(InvalidPoseError):
            Sim3Transform(scale=1.0, rotation=m, translation=np.zeros(3))
        with pytest.raises(InvalidPoseError):
            CameraPose(rotation=-np.eye(3), translation=np.zeros(3))  # det = -1


class TestTransformCamera:
    def test_projection_invariance(self):
        # spec invariant: pixels agree to 1e-6 between (camera, points) and
        # (transformed camera, transformed points)
        rng = np.random.default_rng(2024)
        for _ in range(200):
            cam = _random_camera(rng)
            t = _random_sim3(rng)
            pts = cam.pose.center + rng.normal(size=(10, 3))
            cam_frame = cam.pose.world_to_camera(pts)
            keep = cam_frame[:, 2] > 0.1
            if not keep.any():
                continue
            pts = pts[keep]
            uv_before, _ = project_points(pts, cam)
            uv_after, valid_after = project_points(apply_sim3(t, pts), transform_camera(t, cam))
            assert valid_after.all()
            np.testing.assert_allclose(uv_after, uv_before, atol=1e-6)

    def test_center_maps_by_apply(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            cam = _random_camera(rng)
            t = _random_sim3(rng)
            moved = transform_camera(t, cam)
            np.testing.assert_allclose(moved.pose.center, apply_sim3(t, cam.pose.center), atol=1e-9)

    def test_depth_scales_by_s(self):
        rng = np.random.default_rng(12)
        cam = _random_camera(rng)
        t = _random_sim3(rng)
        pts = cam.pose.center + rng.normal(size=(50, 3))
        z_before = cam.pose.world_to_camera(pts)[:, 2]
        z_after = transform_camera(t, cam).pose.world_to_camera(apply_sim3(t, pts))[:, 2]
        np.testing.assert_allclose(z_after, t.scale * z_before, atol=1e-9 * max(1.0, t.scale))


def _reference_skew(v):
    x, y, z = np.asarray(v, dtype=np.float64)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def _reference_rotation_from_axis_angle(axis, angle):
    ax = np.asarray(axis, dtype=np.float64)
    n = np.linalg.norm(ax)
    if n == 0:
        return np.eye(3)
    k = _reference_skew(ax / n)
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def _reference_rotation_exp(omega):
    w = np.asarray(omega, dtype=np.float64)
    angle = np.linalg.norm(w)
    if angle < 1e-12:
        k = _reference_skew(w)
        return np.eye(3) + k + 0.5 * (k @ k)
    return _reference_rotation_from_axis_angle(w, angle)


def _reference_rotation_angle(r):
    c = (np.trace(np.asarray(r, dtype=np.float64)) - 1.0) / 2.0
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def _reference_rotation_distance(a, b):
    if np.array_equal(a, b):
        return 0.0
    return _reference_rotation_angle(a @ b.T)


def _tangent_vectors(rng, n=600):
    """Rotation vectors over 35 decades of length, with exact zeros (both
    signs) and lengths below the 1e-12 series threshold."""
    w = rng.normal(size=(n, 3)) * np.exp(rng.uniform(-35.0, 1.5, size=(n, 1)))
    w[:10] = 0.0
    w[10:20] = -0.0
    w[20:60] *= 1e-13
    return w


class TestRotationHelpers:
    def test_quat_round_trip(self):
        rng = np.random.default_rng(77)
        for _ in range(1000):
            r = random_rotation(rng)
            q = matrix_to_quat_wxyz(r)
            assert q[0] >= 0
            np.testing.assert_allclose(quat_wxyz_to_matrix(q), r, atol=1e-12)

    def test_rotation_angle(self):
        assert rotation_angle(np.eye(3)) == 0.0
        r = rotation_exp(np.array([0.0, 0.0, 0.3]))
        assert abs(rotation_angle(r) - 0.3) < 1e-12
        assert abs(rotation_distance(r, np.eye(3)) - 0.3) < 1e-12

    def test_rotation_exp_small_angle_orthonormal(self):
        r = rotation_exp(np.array([1e-14, 0.0, 0.0]))
        np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-15)

    def test_stacks_match_per_row_reference(self):
        """Each primitive on a stack gives, row by row, the bits of the
        one-at-a-time formula, including the small-angle series, the zero
        axis and exactly-equal rotations; a single row keeps its shape."""
        rng = np.random.default_rng(78)
        w = _tangent_vectors(rng)
        angles = rng.uniform(-4.0, 4.0, size=len(w))
        rots = np.stack([random_rotation(rng) for _ in range(len(w))])
        others = np.stack([random_rotation(rng) for _ in range(len(w))])
        others[:50] = rots[:50]
        exp_stack = rotation_exp(w)
        axis_stack = rotation_from_axis_angle(w, angles)
        skew_stack = skew(w)
        angle_stack = rotation_angle(rots)
        dist_stack = rotation_distance(rots, others)
        for i in range(len(w)):
            np.testing.assert_array_equal(exp_stack[i], _reference_rotation_exp(w[i]))
            np.testing.assert_array_equal(rotation_exp(w[i]), exp_stack[i])
            np.testing.assert_array_equal(axis_stack[i], _reference_rotation_from_axis_angle(w[i], angles[i]))
            np.testing.assert_array_equal(rotation_from_axis_angle(w[i], angles[i]), axis_stack[i])
            np.testing.assert_array_equal(skew_stack[i], _reference_skew(w[i]))
            assert angle_stack[i] == _reference_rotation_angle(rots[i]) == rotation_angle(rots[i])
            assert dist_stack[i] == _reference_rotation_distance(rots[i], others[i])
            assert dist_stack[i] == rotation_distance(rots[i], others[i])
        assert np.all(dist_stack[:50] == 0.0)
        np.testing.assert_array_equal(exp_stack[:20], np.broadcast_to(np.eye(3), (20, 3, 3)))
        np.testing.assert_array_equal(axis_stack[:20], np.broadcast_to(np.eye(3), (20, 3, 3)))
        assert rotation_exp(w[0]).shape == (3, 3)
        assert rotation_exp(w.reshape(20, 30, 3)).shape == (20, 30, 3, 3)
        assert np.ndim(rotation_distance(rots[0], others[0])) == 0

    def test_intrinsics_validation(self):
        with pytest.raises(InvalidPoseError):
            _K(fx=-1.0)
        for bad in (float("inf"), float("nan")):
            with pytest.raises(InvalidPoseError, match="positive and finite"):
                _K(fx=bad)
            with pytest.raises(InvalidPoseError, match="positive and finite"):
                _K(fy=bad)
        with pytest.raises(InvalidPoseError):
            _K(cx=700.0)  # outside 640-wide image
