"""Tests for global bundle adjustment.

Hand-computed anchors:
  * one observation with residual 4 px, confidence 2, lambda = 0.5 and
    negligible epsilon costs 2 * (4^2)^0.25 = 2 * 2 = 4.
  * a zero-residual problem costs sum(C_l) * epsilon^(lambda/2), the
    smoothing floor; its gradient is exactly zero.
  * a point 3 units behind its camera with confidence 1.5 costs
    1.5 * (1e4 + 3^2) = 15013.5.
"""

from dataclasses import replace

import numpy as np
import pytest

from scenemerge.ba import (
    BAConfig,
    BAGradients,
    BAProblem,
    BAResult,
    apply_ba_result,
    ba_gradients,
    ba_loss,
    predicted_pixels,
    reprojection_errors,
    run_ba,
)
from scenemerge.errors import ConfigError, DataError, DivergenceError
from scenemerge.geometry import (
    CameraIntrinsics,
    CameraParams,
    CameraPose,
    Sim3Transform,
    apply_sim3,
    pinhole,
    project_points,
    random_rotation,
    rotation_exp,
    rotation_from_axis_angle,
    transform_camera,
)
from scenemerge.synthetic import generate_scene
from scenemerge.tracking import Tracks
from scenemerge.alignment import weighted_umeyama


def _front_camera(frame_id: int = 0) -> CameraParams:
    """Identity pose, fx=fy=50, principal point (32, 24)."""
    return CameraParams(
        intrinsics=CameraIntrinsics(fx=50.0, fy=50.0, cx=32.0, cy=24.0, width=64, height=48),
        pose=CameraPose(rotation=np.eye(3), translation=np.zeros(3)),
        frame_id=frame_id,
    )


def _ring_cameras(rng, n_cams: int) -> list:
    """Cameras on a radius-3 ring looking at the origin."""
    cams = []
    for i in range(n_cams):
        angle = 2 * np.pi * i / n_cams + rng.normal(0, 0.1)
        center = np.array([3 * np.cos(angle), 3 * np.sin(angle), rng.normal(0, 0.3)])
        fwd = -center / np.linalg.norm(center)
        right = np.cross(fwd, np.array([0.0, 0.0, 1.0]))
        right /= np.linalg.norm(right)
        r = np.stack([right, np.cross(fwd, right), fwd])
        cams.append(
            CameraParams(
                intrinsics=CameraIntrinsics(
                    fx=60.0 + rng.normal(0, 2), fy=60.0 + rng.normal(0, 2),
                    cx=32.0, cy=24.0, width=64, height=48,
                ),
                pose=CameraPose(rotation=r, translation=-r @ center),
                frame_id=i,
            )
        )
    return cams


def _ring_problem(seed: int, n_cams=None, n_pts=None) -> BAProblem:
    """Random all-in-front problem with residual magnitudes in [1, 4] px.

    Residuals are kept >= 1 px because the lambda = 0.5 loss has curvature
    growing like r^(lambda - 3) toward zero residual, which central finite
    differences at h = 1e-6 cannot resolve.
    """
    rng = np.random.default_rng(seed)
    cams = _ring_cameras(rng, n_cams or int(rng.integers(2, 6)))
    pts = rng.normal(0, 0.7, size=(n_pts or int(rng.integers(5, 25)), 3))
    ci, pi, px, cf = [], [], [], []
    for p in range(len(pts)):
        seen = []
        for c in range(len(cams)):
            uv, front = project_points(pts[p][None], cams[c])
            if front[0]:
                seen.append((c, uv[0]))
        if len(seen) < 2:
            continue
        for c, uv in seen:
            d = rng.normal(0, 1, 2)
            d /= max(np.linalg.norm(d), 1e-9)
            ci.append(c)
            pi.append(p)
            px.append(uv + d * rng.uniform(1.0, 4.0))
            cf.append(float(rng.uniform(0.1, 2.0)))
    pi = np.array(pi)
    used = np.unique(pi)
    remap = {int(u): i for i, u in enumerate(used)}
    return BAProblem(
        cameras=cams,
        points=pts[used],
        camera_indices=np.array(ci),
        point_indices=np.array([remap[int(x)] for x in pi]),
        pixels=np.array(px),
        confidences=np.array(cf),
    )


def _behind_problem(seed: int) -> BAProblem:
    """A ring problem with every fourth point moved behind the camera of
    its first observation (out along the camera's center ray), so the
    problem mixes in-front and behind-camera observations."""
    prob = _ring_problem(seed, n_cams=5, n_pts=30)
    points = prob.points.copy()
    first = np.searchsorted(prob.point_indices, np.arange(prob.n_points))
    for j in range(0, prob.n_points, 4):
        points[j] = 1.5 * prob.cameras[prob.camera_indices[first[j]]].pose.center
    return replace(prob, points=points)


def _perturbed_scene_problem(seed: int, n_cameras=20, n_tracks=500):
    """Exact observations of scene landmarks, cameras perturbed by a
    1-degree rotation and 1 percent of the scene diameter in translation.

    Returns (problem, gt_centers).
    """
    scene = generate_scene(seed, n_cameras=n_cameras, n_landmarks=3000, layout="room")
    rng = np.random.default_rng(1000 + seed)
    w, h = scene.image_size
    cams = scene.gt_cameras
    good = np.nonzero(scene.visibility.sum(axis=0) >= 2)[0]
    chosen = rng.choice(good, size=n_tracks, replace=False)
    ci, pi, px, cf = [], [], [], []
    for j, l in enumerate(chosen):
        obs = []
        for c in range(len(cams)):
            uv, front = project_points(scene.landmarks[l][None], cams[c])
            if front[0] and 0 <= uv[0, 0] <= w - 1 and 0 <= uv[0, 1] <= h - 1:
                obs.append((c, uv[0]))
        if len(obs) < 2:
            continue
        conf = float(rng.uniform(0.5, 1.5))
        for c, uv in obs:
            ci.append(c)
            pi.append(j)
            px.append(uv)
            cf.append(conf)
    pi = np.array(pi)
    used = np.unique(pi)
    remap = {int(u): i for i, u in enumerate(used)}
    perturbed = []
    for c in cams:
        dr = rotation_from_axis_angle(rng.normal(size=3), np.deg2rad(1.0))
        r_new = dr @ c.pose.rotation
        dv = rng.normal(size=3)
        dv /= np.linalg.norm(dv)
        ctr = c.pose.center + 0.01 * scene.diameter * dv
        perturbed.append(
            CameraParams(intrinsics=c.intrinsics, pose=CameraPose(rotation=r_new, translation=-r_new @ ctr), frame_id=c.frame_id)
        )
    prob = BAProblem(
        cameras=perturbed,
        points=scene.landmarks[chosen][used].copy(),
        camera_indices=np.array(ci),
        point_indices=np.array([remap[int(x)] for x in pi]),
        pixels=np.array(px),
        confidences=np.array(cf),
    )
    return prob, np.stack([c.pose.center for c in cams])


def _aligned_rmse(cameras, gt_centers) -> float:
    """ATE: RMSE of camera centers after similarity alignment to GT."""
    centers = np.stack([c.pose.center for c in cameras])
    t = weighted_umeyama(gt_centers, centers, np.ones(len(centers)))
    return float(np.sqrt(np.mean(np.sum((apply_sim3(t, centers) - gt_centers) ** 2, axis=1))))


def _ref_loss_terms(prob: BAProblem, cfg: BAConfig, r, t, k, points):
    """The per-observation loss kernel in its stacked (M, 3, 3) form, with
    einsum for R x: (loss (M,), g_cam (M, 3), g_intr (M, 4), R x (M, 3),
    in_front (M,)), all before the confidence weight."""
    lam, eps = cfg.lambda_exp, cfg.epsilon
    km = k[prob.camera_indices]
    rx = np.einsum("mij,mj->mi", r[prob.camera_indices], points[prob.point_indices])
    v = rx + t[prob.camera_indices]
    uv, front = pinhole(v, km)
    z = v[:, 2]
    zs = np.where(front, z, 1.0)

    fx, fy = km[:, 0], km[:, 1]
    e = prob.pixels - uv
    s2 = np.einsum("mi,mi->m", e, e) + eps

    loss_front = s2 ** (lam / 2.0)
    w_geom = lam * s2 ** (lam / 2.0 - 1.0)
    gpi = -w_geom[:, None] * e

    g_cam = np.empty((prob.n_observations, 3))
    g_cam[:, 0] = gpi[:, 0] * fx / zs
    g_cam[:, 1] = gpi[:, 1] * fy / zs
    g_cam[:, 2] = -(gpi[:, 0] * fx * v[:, 0] + gpi[:, 1] * fy * v[:, 1]) / (zs * zs)

    g_intr = np.empty((prob.n_observations, 4))
    g_intr[:, 0] = gpi[:, 0] * v[:, 0] / zs
    g_intr[:, 1] = gpi[:, 1] * v[:, 1] / zs
    g_intr[:, 2] = gpi[:, 0]
    g_intr[:, 3] = gpi[:, 1]

    loss = np.where(front, loss_front, 1e4 + z * z)
    g_cam[~front] = 0.0
    g_cam[~front, 2] = 2.0 * z[~front]
    g_intr[~front] = 0.0
    return loss, g_cam, g_intr, rx, front


def _ref_loss(prob: BAProblem, cfg: BAConfig, r, t, k, points) -> float:
    terms, _, _, _, _ = _ref_loss_terms(prob, cfg, r, t, k, points)
    return float(np.sum(prob.confidences * terms))


def _fd_worst(prob: BAProblem, cfg: BAConfig, h: float = 1e-6) -> float:
    """Worst central-difference disagreement, measured as
    |fd - analytic| / max(|fd|, |analytic|, 1e-3); the 1e-3 floor folds the
    1e-8 absolute tolerance into the 1e-5 relative one."""
    from scenemerge.ba import _stack_state

    g = ba_gradients(prob, cfg)
    r0, t0, k0, p0 = _stack_state(prob)

    def loss_at(r_, t_, k_, p_):
        return _ref_loss(prob, cfg, r_, t_, k_, p_)

    worst = 0.0
    for c in range(prob.n_cameras):
        for d in range(3):
            w = np.zeros(3)
            w[d] = h
            rp = r0.copy()
            rp[c] = rotation_exp(w) @ r0[c]
            rm = r0.copy()
            rm[c] = rotation_exp(-w) @ r0[c]
            fd = (loss_at(rp, t0, k0, p0) - loss_at(rm, t0, k0, p0)) / (2 * h)
            an = g.rotation[c, d]
            worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-3))
    for name, arr, gb in (("t", t0, g.translation), ("p", p0, g.points), ("k", k0, g.intrinsics)):
        flat = arr.reshape(-1)
        gf = gb.reshape(-1)
        for i in range(len(flat)):
            hh = h * max(1.0, abs(flat[i]))
            ap = flat.copy()
            ap[i] += hh
            am = flat.copy()
            am[i] -= hh
            a, b = ap.reshape(arr.shape), am.reshape(arr.shape)
            if name == "t":
                fd = (loss_at(r0, a, k0, p0) - loss_at(r0, b, k0, p0)) / (2 * hh)
            elif name == "p":
                fd = (loss_at(r0, t0, k0, a) - loss_at(r0, t0, k0, b)) / (2 * hh)
            else:
                fd = (loss_at(r0, t0, a, p0) - loss_at(r0, t0, b, p0)) / (2 * hh)
            worst = max(worst, abs(fd - gf[i]) / max(abs(fd), abs(gf[i]), 1e-3))
    return worst


def _reference_reduce(prob: BAProblem, contrib, weights=None, absolute=False):
    """The per-dimension np.bincount reduction that the incidence products
    replaced: weights multiplies each row, absolute sums magnitudes."""
    out = {}
    for block, arr in contrib.items():
        if absolute:
            arr = np.abs(arr)
        elif weights is not None:
            arr = arr * weights[:, None]
        if block == "p":
            idx, n = prob.point_indices, prob.n_points
        else:
            idx, n = prob.camera_indices, prob.n_cameras
        out[block] = np.stack(
            [np.bincount(idx, weights=arr[:, d], minlength=n) for d in range(arr.shape[1])],
            axis=1,
        )
    return out


def _reference_obs_contributions(prob: BAProblem, r, g_cam, g_intr, rx):
    rm = r[prob.camera_indices]
    return {
        "rot": np.cross(rx, g_cam),
        "t": g_cam,
        "k": g_intr,
        "p": np.einsum("mji,mj->mi", rm, g_cam),
    }


def _reference_gradient_sums(prob: BAProblem, r, g_cam, g_intr, rx):
    """(camera gradient, point gradient, camera denominator, point
    denominator) with camera columns [rotation | translation | intrinsics],
    reduced by bincount."""
    contrib = _reference_obs_contributions(prob, r, g_cam, g_intr, rx)
    grads = _reference_reduce(prob, contrib, weights=prob.confidences)
    denoms = _reference_reduce(prob, contrib, absolute=True)
    return (
        np.hstack([grads["rot"], grads["t"], grads["k"]]),
        grads["p"],
        np.hstack([denoms["rot"], denoms["t"], denoms["k"]]),
        denoms["p"],
    )


def _reference_run_ba(prob: BAProblem, cfg: BAConfig):
    """run_ba written with one bincount per dimension, four adaptive states
    and one rotation_exp call per camera, the loop form the stacked version
    must reproduce bit for bit.

    Returns (loss history, (r, t, k, points) of the best iterate, best iteration).
    """
    from scenemerge.ba import _AdaptiveState, _stack_state

    r, t, k, points = _stack_state(prob)
    centers = np.stack([c.pose.center for c in prob.cameras])
    unit_t = float(np.median(np.linalg.norm(centers - centers.mean(axis=0), axis=1)))
    if unit_t <= 0:
        unit_t = 1.0
    unit_k = k[:, 0:1].copy()
    widths = np.array([float(c.intrinsics.width) for c in prob.cameras])
    heights = np.array([float(c.intrinsics.height) for c in prob.cameras])
    focal_floor = 1e-6 * unit_k[:, 0]

    history = np.empty(cfg.iterations + 1)
    loss, g_cam, g_intr, rx, _ = _ref_loss_terms(prob, cfg, r, t, k, points)
    history[0] = float(np.sum(prob.confidences * loss))
    best = (history[0], (r.copy(), t.copy(), k.copy(), points.copy()), 0)
    state_rot = _AdaptiveState((prob.n_cameras, 3))
    state_t = _AdaptiveState((prob.n_cameras, 3))
    state_p = _AdaptiveState((prob.n_points, 3))
    state_k = _AdaptiveState((prob.n_cameras, 4))
    for it in range(cfg.iterations):
        contrib = _reference_obs_contributions(prob, r, g_cam, g_intr, rx)
        grads = _reference_reduce(prob, contrib, weights=prob.confidences)
        denoms = _reference_reduce(prob, contrib, absolute=True)
        lr = cfg.learning_rate(it)
        step_rot = state_rot.step(grads["rot"], denoms["rot"], lr, 1.0)
        step_t = state_t.step(grads["t"], denoms["t"], lr, unit_t)
        step_p = state_p.step(grads["p"], denoms["p"], lr, unit_t)
        for c in range(prob.n_cameras):
            r[c] = rotation_exp(-step_rot[c]) @ r[c]
        t = t - step_t
        points = points - step_p
        if cfg.optimize_intrinsics:
            k = k - state_k.step(grads["k"], denoms["k"], lr, 1.0) * unit_k
            k[:, 0] = np.maximum(k[:, 0], focal_floor)
            k[:, 1] = np.maximum(k[:, 1], focal_floor)
            k[:, 2] = np.clip(k[:, 2], 0.0, widths)
            k[:, 3] = np.clip(k[:, 3], 0.0, heights)
        loss, g_cam, g_intr, rx, _ = _ref_loss_terms(prob, cfg, r, t, k, points)
        history[it + 1] = float(np.sum(prob.confidences * loss))
        if history[it + 1] < best[0]:
            best = (history[it + 1], (r.copy(), t.copy(), k.copy(), points.copy()), it + 1)
    return history, best[1], best[2]


class TestBAConfig:
    def test_defaults(self):
        cfg = BAConfig()
        assert cfg.iterations == 300
        assert cfg.initial_lr == 3e-3
        assert cfg.lambda_exp == 0.5
        assert cfg.epsilon == 1e-8
        assert cfg.optimize_intrinsics is True

    def test_cosine_schedule(self):
        """Halfway through 100 iterations the cosine factor is
        0.5 * (1 + cos(pi/2)) = 0.5."""
        cfg = BAConfig(iterations=100, initial_lr=2e-3)
        assert cfg.learning_rate(0) == pytest.approx(2e-3)
        assert cfg.learning_rate(50) == pytest.approx(1e-3)
        assert cfg.learning_rate(100) == pytest.approx(0.0, abs=1e-18)

    def test_lambda_two_allowed(self):
        assert BAConfig(lambda_exp=2.0).lambda_exp == 2.0

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError, match="iterations"):
            BAConfig(iterations=0)
        with pytest.raises(ConfigError, match="initial_lr"):
            BAConfig(initial_lr=0.0)
        with pytest.raises(ConfigError, match="lambda_exp"):
            BAConfig(lambda_exp=0.0)
        with pytest.raises(ConfigError, match="lambda_exp"):
            BAConfig(lambda_exp=2.5)
        with pytest.raises(ConfigError, match="epsilon"):
            BAConfig(epsilon=0.0)
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigError, match="initial_lr"):
                BAConfig(initial_lr=bad)
            with pytest.raises(ConfigError, match="epsilon"):
                BAConfig(epsilon=bad)
            with pytest.raises(ConfigError, match="lambda_exp"):
                BAConfig(lambda_exp=bad)


class TestBAProblem:
    def test_validation(self):
        cams = [_front_camera(0), _front_camera(1)]
        pts = np.array([[0.0, 0.0, 2.0]])
        ok = dict(
            cameras=cams,
            points=pts,
            camera_indices=np.array([0, 1]),
            point_indices=np.array([0, 0]),
            pixels=np.array([[32.0, 24.0], [30.0, 20.0]]),
            confidences=np.array([1.0, 1.0]),
        )
        prob = BAProblem(**ok)
        assert prob.n_cameras == 2 and prob.n_points == 1 and prob.n_observations == 2
        with pytest.raises(DataError, match="camera index"):
            BAProblem(**{**ok, "camera_indices": np.array([0, 2])})
        with pytest.raises(DataError, match="point index"):
            BAProblem(**{**ok, "point_indices": np.array([0, 1])})
        with pytest.raises(DataError, match="observations, need >= 2"):
            BAProblem(**{**ok, "camera_indices": np.array([0]), "point_indices": np.array([0]),
                         "pixels": np.array([[32.0, 24.0]]), "confidences": np.array([1.0])})
        with pytest.raises(DataError, match="confidences"):
            BAProblem(**{**ok, "confidences": np.array([1.0, -0.5])})
        with pytest.raises(DataError, match="parallel"):
            BAProblem(**{**ok, "confidences": np.array([1.0])})
        with pytest.raises(DataError, match="no cameras"):
            BAProblem(**{**ok, "cameras": []})

    def test_from_tracks(self):
        """Cameras are found by frame id in any camera order; a track of
        three observations sits between two of two."""
        cams = [_front_camera(30), _front_camera(10), _front_camera(20)]
        tracks = Tracks(
            points=[[0.0, 0.0, 2.0], [0.1, 0.0, 3.0], [0.2, 0.1, 2.5]],
            confidences=[0.8, 0.4, 0.6],
            lengths=[2, 3, 2],
            frames=[10, 20, 10, 20, 30, 20, 30],
            pixels=[[32.0, 24.0], [30.0, 22.0], [33.0, 24.0], [31.0, 25.0], [29.0, 20.0], [30.0, 21.0], [28.0, 20.0]],
        )
        prob = BAProblem.from_tracks(cams, tracks)
        assert prob.n_points == 3 and prob.n_observations == 7
        np.testing.assert_array_equal(prob.point_indices, [0, 0, 1, 1, 1, 2, 2])
        np.testing.assert_array_equal(prob.camera_indices, [1, 2, 1, 2, 0, 2, 0])
        np.testing.assert_array_equal(prob.confidences, [0.8, 0.8, 0.4, 0.4, 0.4, 0.6, 0.6])
        np.testing.assert_array_equal(prob.points, tracks.points)
        np.testing.assert_array_equal(prob.pixels, tracks.pixels)

    def test_from_tracks_missing_frame(self):
        tracks = Tracks(
            points=[[0.0, 0.0, 2.0], [0.0, 0.0, 2.0]], confidences=[1.0, 1.0], lengths=[2, 2],
            frames=[10, 11, 10, 99], pixels=[[32.0, 24.0], [31.0, 24.0], [32.0, 24.0], [30.0, 22.0]],
        )
        with pytest.raises(DataError, match="track 1 observes frame 99"):
            BAProblem.from_tracks([_front_camera(10), _front_camera(11)], tracks)
        with pytest.raises(DataError, match="track 0 observes frame 10"):
            BAProblem.from_tracks([], tracks)

    def test_from_tracks_empty(self):
        with pytest.raises(DataError, match="no tracks"):
            BAProblem.from_tracks([_front_camera(0)], Tracks([], [], [], [], []))


class TestBALoss:
    def test_hand_example_four_pixels(self):
        """Residual (4, 0) px with C=2, lambda=0.5: 2 * (16)^0.25 = 4.
        The second observation has zero confidence and zero residual so it
        contributes nothing."""
        cam = _front_camera()
        prob = BAProblem(
            cameras=[cam],
            points=np.array([[0.0, 0.0, 2.0]]),
            camera_indices=np.array([0, 0]),
            point_indices=np.array([0, 0]),
            pixels=np.array([[36.0, 24.0], [32.0, 24.0]]),
            confidences=np.array([2.0, 0.0]),
        )
        assert ba_loss(prob, BAConfig(epsilon=1e-300)) == pytest.approx(4.0, rel=1e-15)

    def test_zero_residual_floor(self):
        """Exact observations cost sum(C) * eps^0.25 = 3 * 0.01."""
        prob = _ring_problem(0, n_cams=3, n_pts=8)
        uv, front = predicted_pixels(prob)
        exact = replace(prob, pixels=uv)
        expected = float(np.sum(prob.confidences)) * (1e-8) ** 0.25
        assert ba_loss(exact) == pytest.approx(expected, rel=1e-12)

    def test_confidence_doubling_doubles_loss(self):
        prob = _ring_problem(1)
        double = replace(prob, confidences=2.0 * prob.confidences)
        assert ba_loss(double) == 2.0 * ba_loss(prob)

    def test_behind_camera_penalty(self):
        """Point at camera-frame depth -3: C * (1e4 + 9) = 1.5 * 10009."""
        cam = _front_camera()
        prob = BAProblem(
            cameras=[cam, _front_camera(1)],
            points=np.array([[0.0, 0.0, -3.0]]),
            camera_indices=np.array([0, 0]),
            point_indices=np.array([0, 0]),
            pixels=np.array([[32.0, 24.0], [32.0, 24.0]]),
            confidences=np.array([1.5, 0.0]),
        )
        assert ba_loss(prob) == pytest.approx(1.5 * (1e4 + 9.0), rel=1e-15)

    def test_lambda_two_is_squared_norm(self):
        """lambda=2 turns each term into C * (||e||^2 + eps): residual 3 px
        with C=1 costs 9."""
        cam = _front_camera()
        prob = BAProblem(
            cameras=[cam],
            points=np.array([[0.0, 0.0, 2.0]]),
            camera_indices=np.array([0, 0]),
            point_indices=np.array([0, 0]),
            pixels=np.array([[35.0, 24.0], [32.0, 24.0]]),
            confidences=np.array([1.0, 0.0]),
        )
        cfg = BAConfig(lambda_exp=2.0, epsilon=1e-300)
        assert ba_loss(prob, cfg) == pytest.approx(9.0, rel=1e-15)

    def test_gauge_invariance(self):
        """A global similarity transform of cameras and points scales every
        camera-frame depth by s > 0 and leaves pixels unchanged, so the loss
        of an all-in-front problem is invariant."""
        prob = _ring_problem(3)
        rng = np.random.default_rng(5)
        for _ in range(5):
            g = Sim3Transform(
                scale=float(rng.uniform(0.4, 2.5)),
                rotation=random_rotation(rng),
                translation=rng.normal(size=3),
            )
            moved = replace(
                prob,
                cameras=[transform_camera(g, c) for c in prob.cameras],
                points=apply_sim3(g, prob.points),
            )
            assert ba_loss(moved) == pytest.approx(ba_loss(prob), rel=1e-9)


class TestBAGradients:
    def test_matches_finite_differences(self):
        """40 random problems, worst relative disagreement below 1e-5."""
        cfg = BAConfig()
        worst = 0.0
        for seed in range(40):
            worst = max(worst, _fd_worst(_ring_problem(100 + seed), cfg))
        assert worst < 1e-5

    def test_matches_finite_differences_lambda_two(self):
        cfg = BAConfig(lambda_exp=2.0)
        worst = max(_fd_worst(_ring_problem(200 + s), cfg) for s in range(5))
        assert worst < 1e-5

    def test_behind_camera_branch(self):
        """The behind-camera penalty is quadratic in depth, so central
        differences with h = 1e-4 are exact up to rounding against the 1e4
        penalty constant."""
        from scenemerge.ba import _stack_state

        cfg = BAConfig()
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(500 + seed)
            cams = _ring_cameras(rng, 2)
            pt = cams[0].pose.center * float(rng.uniform(1.5, 3.0))
            prob = BAProblem(
                cameras=cams,
                points=pt[None],
                camera_indices=np.array([0, 1]),
                point_indices=np.array([0, 0]),
                pixels=np.array([[10.0, 10.0], [20.0, 20.0]]),
                confidences=np.array([1.3, 0.7]),
            )
            g = ba_gradients(prob, cfg)
            r0, t0, k0, p0 = _stack_state(prob)

            def loss_at(pts_):
                return _ref_loss(prob, cfg, r0, t0, k0, pts_)

            h = 1e-4
            for i in range(3):
                ap, am = p0.copy(), p0.copy()
                ap[0, i] += h
                am[0, i] -= h
                fd = (loss_at(ap) - loss_at(am)) / (2 * h)
                worst = max(worst, abs(fd - g.points[0, i]) / max(abs(fd), abs(g.points[0, i]), 1e-3))
        assert worst < 1e-5

    def test_zero_residual_gradient_is_zero(self):
        prob = _ring_problem(7)
        uv, _ = predicted_pixels(prob)
        g = ba_gradients(replace(prob, pixels=uv))
        assert np.abs(g.rotation).max() == 0.0
        assert np.abs(g.translation).max() == 0.0
        assert np.abs(g.points).max() == 0.0
        assert np.abs(g.intrinsics).max() == 0.0

    def test_negative_gradient_step_decreases_loss(self):
        for seed in range(10):
            prob = _ring_problem(300 + seed)
            g = ba_gradients(prob)
            eta = 1e-7
            stepped = replace(
                prob,
                points=prob.points - eta * g.points,
                cameras=[
                    CameraParams(
                        intrinsics=c.intrinsics,
                        pose=CameraPose(
                            rotation=rotation_exp(-eta * g.rotation[i]) @ c.pose.rotation,
                            translation=c.pose.translation - eta * g.translation[i],
                        ),
                        frame_id=c.frame_id,
                    )
                    for i, c in enumerate(prob.cameras)
                ],
            )
            assert ba_loss(stepped) < ba_loss(prob)


class TestRunBA:
    def test_loss_history_shape(self):
        prob = _ring_problem(11)
        res = run_ba(prob, BAConfig(iterations=25))
        assert len(res.loss_history) == 26
        assert res.loss_history[0] == pytest.approx(ba_loss(prob))
        assert res.initial_loss == res.loss_history[0]

    def test_best_iterate_returned(self):
        prob = _ring_problem(12)
        res = run_ba(prob, BAConfig(iterations=40))
        assert res.final_loss == pytest.approx(np.min(res.loss_history), rel=1e-15)
        assert res.final_loss == pytest.approx(res.loss_history[res.best_iteration], rel=1e-15)
        assert res.final_loss <= res.initial_loss

    def test_already_optimal_unchanged(self):
        """Bitwise-exact observations give exactly zero gradients: the
        optimizer never moves and the final state equals the initial one."""
        prob = _ring_problem(13)
        uv, _ = predicted_pixels(prob)
        exact = replace(prob, pixels=uv)
        res = run_ba(exact, BAConfig(iterations=30))
        assert res.final_loss == res.initial_loss
        assert np.ptp(res.loss_history) == 0.0
        np.testing.assert_array_equal(res.problem.points, exact.points)
        for a, b in zip(res.problem.cameras, exact.cameras):
            np.testing.assert_array_equal(a.pose.rotation, b.pose.rotation)
            np.testing.assert_array_equal(a.pose.translation, b.pose.translation)
            assert a.intrinsics.fx == b.intrinsics.fx

    def test_perturbed_problem_converges(self):
        """1 degree / 1 percent-of-diameter perturbation with exact
        observations: sub-0.1 px mean error, > 90 percent loss reduction,
        and the aligned trajectory error does not worsen."""
        prob, gt_centers = _perturbed_scene_problem(0)
        pre_err, _ = reprojection_errors(prob)
        res = run_ba(prob)
        post_err, _ = reprojection_errors(res.problem)
        assert float(np.nanmean(pre_err)) > 0.5
        assert float(np.nanmean(post_err)) < 0.1
        assert res.final_loss < 0.1 * res.initial_loss
        assert _aligned_rmse(res.problem.cameras, gt_centers) <= _aligned_rmse(prob.cameras, gt_centers)

    @pytest.mark.parametrize("optimize_intrinsics", [True, False])
    def test_matches_reference_bit_for_bit(self, optimize_intrinsics):
        """The incidence products, the two adaptive states and the stacked
        rotation update reproduce the per-camera, per-dimension loop
        exactly: same loss history, points, rotations, translations and
        intrinsics, and the same gradients from ba_gradients."""
        from scenemerge.ba import _stack_state

        prob, _ = _perturbed_scene_problem(0)
        cfg = BAConfig(iterations=150, optimize_intrinsics=optimize_intrinsics)
        res = run_ba(prob, cfg)
        history, (r, t, k, points), best_it = _reference_run_ba(prob, cfg)
        np.testing.assert_array_equal(res.loss_history, history)
        assert res.best_iteration == best_it
        np.testing.assert_array_equal(res.problem.points, points)
        for i, cam in enumerate(res.problem.cameras):
            np.testing.assert_array_equal(cam.pose.rotation, r[i])
            np.testing.assert_array_equal(cam.pose.translation, t[i])
            intr = cam.intrinsics
            np.testing.assert_array_equal([intr.fx, intr.fy, intr.cx, intr.cy], k[i])

        g = ba_gradients(prob, cfg)
        r0, t0, k0, p0 = _stack_state(prob)
        _, g_cam, g_intr, rx, _ = _ref_loss_terms(prob, cfg, r0, t0, k0, p0)
        ref_cam, ref_pt, _, _ = _reference_gradient_sums(prob, r0, g_cam, g_intr, rx)
        np.testing.assert_array_equal(g.rotation, ref_cam[:, :3])
        np.testing.assert_array_equal(g.translation, ref_cam[:, 3:6])
        np.testing.assert_array_equal(g.intrinsics, ref_cam[:, 6:])
        np.testing.assert_array_equal(g.points, ref_pt)

    @pytest.mark.parametrize("optimize_intrinsics", [True, False])
    @pytest.mark.parametrize("problem", ["scene", "behind"])
    def test_kernel_matches_reference_bit_for_bit(self, problem, optimize_intrinsics):
        """The column kernel reproduces the stacked einsum/cross form exactly:
        per-observation losses, gradients and step denominators, at the
        start and after a few iterations that move (or freeze) the
        intrinsics, on the 20-camera scene and on a ring where some
        observations lie behind their camera."""
        from scenemerge.ba import _contribution_buffers, _gradient_sums, _incidences, _loss_terms, _stack_state

        prob = _perturbed_scene_problem(0)[0] if problem == "scene" else _behind_problem(23)
        cfg = BAConfig(iterations=5, optimize_intrinsics=optimize_intrinsics)
        for state in (prob, run_ba(prob, cfg).problem):
            r, t, k, points = _stack_state(state)
            c_cam, c_pt = _contribution_buffers(state)
            loss = _loss_terms(state, cfg, r, t, k, points, c_cam, c_pt)
            sums = _gradient_sums(_incidences(state), c_cam, c_pt)
            ref_loss, g_cam, g_intr, rx, front = _ref_loss_terms(state, cfg, r, t, k, points)
            assert front.any() and (problem == "scene") == front.all()
            np.testing.assert_array_equal(loss, ref_loss)
            for got, want in zip(sums, _reference_gradient_sums(state, r, g_cam, g_intr, rx)):
                np.testing.assert_array_equal(got, want)

    def test_homogeneity(self):
        """Scaling confidences by a and the learning rate by 1/a reproduces
        the same iterates."""
        prob = _ring_problem(14)
        alpha = 7.3
        r1 = run_ba(prob, BAConfig(iterations=5))
        r2 = run_ba(
            replace(prob, confidences=alpha * prob.confidences),
            BAConfig(iterations=5, initial_lr=3e-3 / alpha),
        )
        np.testing.assert_allclose(r2.problem.points, r1.problem.points, rtol=0, atol=1e-12)
        for a, b in zip(r1.problem.cameras, r2.problem.cameras):
            np.testing.assert_allclose(b.pose.rotation, a.pose.rotation, rtol=0, atol=1e-12)
            np.testing.assert_allclose(b.pose.translation, a.pose.translation, rtol=0, atol=1e-12)
            assert b.intrinsics.fx == pytest.approx(a.intrinsics.fx, abs=1e-12)

    def test_rotations_stay_orthonormal(self):
        prob = _ring_problem(15)
        for iters in (1, 57, 300):
            res = run_ba(prob, BAConfig(iterations=iters))
            for cam in res.problem.cameras:
                r = cam.pose.rotation
                assert np.linalg.norm(r.T @ r - np.eye(3)) < 1e-9

    def test_optimize_intrinsics_off_freezes_k(self):
        prob = _ring_problem(16)
        res = run_ba(prob, BAConfig(iterations=20, optimize_intrinsics=False))
        for a, b in zip(res.problem.cameras, prob.cameras):
            assert a.intrinsics.fx == b.intrinsics.fx
            assert a.intrinsics.fy == b.intrinsics.fy
            assert a.intrinsics.cx == b.intrinsics.cx
            assert a.intrinsics.cy == b.intrinsics.cy

    def test_divergence_error(self):
        """Astronomical confidences keep the first loss finite but the first
        update step overflows the behind-camera penalty."""
        rng = np.random.default_rng(17)
        cams = _ring_cameras(rng, 2)
        pt = cams[0].pose.center * 2.0
        prob = BAProblem(
            cameras=cams,
            points=pt[None],
            camera_indices=np.array([0, 1]),
            point_indices=np.array([0, 0]),
            pixels=np.array([[10.0, 10.0], [20.0, 20.0]]),
            confidences=np.array([1e200, 1e200]),
        )
        with pytest.raises(DivergenceError) as exc:
            run_ba(prob, BAConfig(iterations=10))
        assert exc.value.iteration >= 1

    def test_deterministic(self):
        prob = _ring_problem(18)
        r1 = run_ba(prob, BAConfig(iterations=15))
        r2 = run_ba(prob, BAConfig(iterations=15))
        np.testing.assert_array_equal(r1.loss_history, r2.loss_history)
        np.testing.assert_array_equal(r1.problem.points, r2.problem.points)


class TestApplyBAResult:
    def _merged_setup(self, seed=4):
        from scenemerge.alignment import MergedGeometry
        from scenemerge.synthetic import PerturbationSpec, generate_scene, render_cluster
        from scenemerge.geometry import Sim3Transform

        scene = generate_scene(seed, n_cameras=6, n_landmarks=2000, layout="room")
        cluster, _ = render_cluster(scene, list(range(6)), PerturbationSpec.none(), cluster_id=0)
        transforms = [Sim3Transform.identity()]
        merged = MergedGeometry([cluster], transforms)
        cameras = [merged.camera(fid) for fid in merged.frames()]
        return merged, cameras, merged.dense_cloud()

    @staticmethod
    def _tracks(points):
        """One track per point, each seen at pixel (3, 4) of frame 0 and (5, 6) of frame 1."""
        n = len(points)
        return Tracks(points, np.full(n, 0.9), np.full(n, 2), np.tile([0, 1], n), np.tile([[3.0, 4.0], [5.0, 6.0]], (n, 1)))

    def test_identity_refinement_preserves_scene(self):
        """Running zero iterations of refinement and writing back must
        reproduce the merged cameras, tracks, and cloud bit for bit."""
        merged, cameras, cloud = self._merged_setup()
        tracks = self._tracks(np.array([[0.0, 0.0, 1.5], [0.5, 0.2, 1.2]]))
        prob = BAProblem.from_tracks(cameras, tracks)
        res = BAResult(problem=prob, loss_history=np.array([1.0]), initial_loss=1.0,
                       final_loss=1.0, best_iteration=0)
        out_cams, out_tracks, out_cloud = apply_ba_result(res, merged, tracks)
        assert [c.frame_id for c in out_cams] == [c.frame_id for c in cameras]
        for a, b in zip(out_cams, cameras):
            np.testing.assert_array_equal(a.pose.rotation, b.pose.rotation)
        np.testing.assert_array_equal(out_cloud.points, cloud.points)
        np.testing.assert_array_equal(out_cloud.confidences, cloud.confidences)
        for name in ("points", "confidences", "lengths", "frames", "pixels"):
            np.testing.assert_array_equal(getattr(out_tracks, name), getattr(tracks, name))

    def test_refined_points_replace_track_points(self):
        """apply_ba_result moves only the fused points, to the problem's."""
        merged, cameras, _ = self._merged_setup()
        tracks = self._tracks(np.array([[0.0, 0.0, 1.5], [0.5, 0.2, 1.2]]))
        prob = BAProblem.from_tracks(cameras, tracks)
        refined = replace(prob, points=prob.points + 0.25)
        res = BAResult(problem=refined, loss_history=np.array([1.0]), initial_loss=1.0,
                       final_loss=1.0, best_iteration=0)
        _, out_tracks, _ = apply_ba_result(res, merged, tracks)
        np.testing.assert_array_equal(out_tracks.points, refined.points)
        for name in ("confidences", "lengths", "frames", "pixels"):
            np.testing.assert_array_equal(getattr(out_tracks, name), getattr(tracks, name))

    def test_refined_cloud_reprojects_to_pixels(self):
        """Each frame's cloud points are unprojected from the stored depths
        under the (here: slightly moved) refined cameras, so projecting the
        returned cloud's frame-0 rows back through the refined frame-0
        camera must land on frame 0's valid pixel grid, in row-major order."""
        merged, cameras, _ = self._merged_setup()
        rng = np.random.default_rng(8)
        moved = []
        for c in cameras:
            dr = rotation_from_axis_angle(rng.normal(size=3), np.deg2rad(0.5))
            moved.append(CameraParams(
                intrinsics=c.intrinsics,
                pose=CameraPose(rotation=dr @ c.pose.rotation, translation=c.pose.translation + rng.normal(0, 0.01, 3)),
                frame_id=c.frame_id,
            ))
        tracks = self._tracks(np.array([[0.0, 0.0, 1.5]]))
        prob = BAProblem.from_tracks(moved, tracks)
        res = BAResult(problem=prob, loss_history=np.array([1.0]), initial_loss=1.0,
                       final_loss=1.0, best_iteration=0)
        out_cams, _, out_cloud = apply_ba_result(res, merged, tracks)
        assert merged.frames()[0] == out_cams[0].frame_id == 0
        rows, cols = np.nonzero(merged.frame_geometry(0)[1] > 0)
        pixels = np.stack([cols, rows], axis=1).astype(np.float64)
        frame0 = out_cloud.points[: len(pixels)]
        uv, front = project_points(frame0, out_cams[0])
        assert front.all()
        assert np.abs(uv - pixels).max() < 1e-6
        stale, _ = project_points(frame0, cameras[0])
        assert np.abs(stale - pixels).max() > 1e-3

    def test_track_count_mismatch_rejected(self):
        merged, cameras, _ = self._merged_setup()
        prob = BAProblem.from_tracks(cameras, self._tracks(np.array([[0.0, 0.0, 1.5]])))
        res = BAResult(problem=prob, loss_history=np.array([1.0]), initial_loss=1.0,
                       final_loss=1.0, best_iteration=0)
        with pytest.raises(DataError, match="track count"):
            apply_ba_result(res, merged, self._tracks(np.array([[0.0, 0.0, 1.5], [0.0, 0.0, 1.5]])))


class TestReprojectionHelpers:
    def test_reprojection_error_hand_value(self):
        """Predicted (32, 24), observed (35, 28): error 5 (3-4-5)."""
        cam = _front_camera()
        prob = BAProblem(
            cameras=[cam],
            points=np.array([[0.0, 0.0, 2.0]]),
            camera_indices=np.array([0, 0]),
            point_indices=np.array([0, 0]),
            pixels=np.array([[35.0, 28.0], [32.0, 24.0]]),
            confidences=np.array([1.0, 1.0]),
        )
        errs, front = reprojection_errors(prob)
        assert front.all()
        assert errs[0] == pytest.approx(5.0)
        assert errs[1] == pytest.approx(0.0)

    def test_predicted_pixels_matches_projection(self):
        prob = _ring_problem(19)
        uv, front = predicted_pixels(prob)
        assert front.all()
        for m in range(prob.n_observations):
            cam = prob.cameras[prob.camera_indices[m]]
            ref, ok = project_points(prob.points[prob.point_indices[m]][None], cam)
            assert ok[0]
            np.testing.assert_allclose(uv[m], ref[0], atol=1e-6)

    def test_behind_camera_is_nan(self):
        cams = [_front_camera(0), _front_camera(1)]
        prob = BAProblem(
            cameras=cams,
            points=np.array([[0.0, 0.0, -2.0]]),
            camera_indices=np.array([0, 1]),
            point_indices=np.array([0, 0]),
            pixels=np.array([[32.0, 24.0], [32.0, 24.0]]),
            confidences=np.array([1.0, 1.0]),
        )
        uv, front = predicted_pixels(prob)
        assert not front.any()
        assert np.isnan(uv).all()
