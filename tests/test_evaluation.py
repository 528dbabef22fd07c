"""Tests for trajectory and point-cloud metrics.

Hand-computed anchors:
  * 3 cameras with one estimated rotation perturbed by exactly 10 degrees:
    2 of 3 pairs carry a 10 degree relative-rotation error, so RRA@30 = 100
    and RRA@5 = 100 * (1/3).
  * pred = gt plus one outlier whose nearest true point sits at exactly
    distance 9, with 50 true points: accuracy = 9/51, completion = 0.
"""

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.spatial.transform import Rotation

from scenemerge import evaluation
from scenemerge.alignment import weighted_umeyama
from scenemerge.errors import DataError, DegenerateGeometryError
from scenemerge.evaluation import (
    PairwiseAccuracy,
    TrajectoryMetrics,
    evaluate_trajectories,
    pairwise_relative_accuracy,
    point_cloud_distance,
    trajectory_errors,
    umeyama_align,
)
from scenemerge.geometry import (
    CameraPose,
    PointCloud,
    Sim3Transform,
    apply_sim3,
    random_rotation,
    rotation_distance,
    rotation_from_axis_angle,
)


def _random_trajectory(rng, n=10):
    return [
        CameraPose(rotation=random_rotation(rng), translation=rng.normal(size=3))
        for _ in range(n)
    ]


def _gauge_pose(t: Sim3Transform, p: CameraPose) -> CameraPose:
    """Pose of the same camera after the world moves by the Sim(3) t."""
    r_new = p.rotation @ t.rotation.T
    return CameraPose(rotation=r_new, translation=t.scale * p.translation - r_new @ t.translation)


def _identity_pose(translation) -> CameraPose:
    return CameraPose(rotation=np.eye(3), translation=np.asarray(translation, dtype=np.float64))


def _oracle_pairwise(est, gt, thresholds):
    """Brute-force reference: 4x4 relative motions via matrix inverse,
    direction angles via arccos. Shares only the percentage arithmetic."""

    def mat(p):
        m = np.eye(4)
        m[:3, :3] = p.rotation
        m[:3, 3] = p.translation
        return m

    rot, dirn = [], []
    n = len(est)
    for i in range(n):
        for j in range(i + 1, n):
            rel_g = mat(gt[j]) @ np.linalg.inv(mat(gt[i]))
            tg = rel_g[:3, 3]
            if np.linalg.norm(tg) == 0.0:
                continue
            rel_e = mat(est[j]) @ np.linalg.inv(mat(est[i]))
            cos_r = (np.trace(rel_e[:3, :3] @ rel_g[:3, :3].T) - 1.0) / 2.0
            rot.append(np.degrees(np.arccos(np.clip(cos_r, -1.0, 1.0))))
            te = rel_e[:3, 3]
            if np.linalg.norm(te) == 0.0:
                dirn.append(180.0)
            else:
                cos_t = np.dot(te / np.linalg.norm(te), tg / np.linalg.norm(tg))
                dirn.append(np.degrees(np.arccos(np.clip(cos_t, -1.0, 1.0))))
    rot, dirn = np.array(rot), np.array(dirn)
    m = len(rot)

    def pct(errors, tau):
        return 100.0 * (float(np.count_nonzero(errors <= tau)) / m)

    rra = {tau: pct(rot, tau) for tau in thresholds}
    rta = {tau: pct(dirn, tau) for tau in thresholds}
    curve = np.array([min(pct(rot, t), pct(dirn, t)) for t in range(31)])
    auc = (0.5 * (curve[0] + curve[-1]) + float(np.sum(curve[1:-1]))) / 30
    return rra, rta, auc


def _reference_relative_translation(pose_i, pose_j):
    return pose_j.translation - pose_j.rotation @ pose_i.rotation.T @ pose_i.translation


def _reference_direction_angle_deg(u, v):
    un = u / np.linalg.norm(u)
    vn = v / np.linalg.norm(v)
    return float(np.degrees(np.arctan2(np.linalg.norm(np.cross(un, vn)), np.dot(un, vn))))


def _reference_pair_errors(est, gt):
    """One Python iteration per unordered pair, the loop form of the pair
    kernel: {(i, j): (rotation error, direction error)} in degrees, and the
    pairs skipped for a zero-length ground-truth relative translation."""
    errors, skipped = {}, []
    for i in range(len(est)):
        for j in range(i + 1, len(est)):
            t_gt = _reference_relative_translation(gt[i], gt[j])
            if np.linalg.norm(t_gt) == 0.0:
                skipped.append((i, j))
                continue
            rel_est = est[j].rotation @ est[i].rotation.T
            rel_gt = gt[j].rotation @ gt[i].rotation.T
            rot = np.degrees(rotation_distance(rel_est, rel_gt))
            t_est = _reference_relative_translation(est[i], est[j])
            if np.linalg.norm(t_est) == 0.0:
                errors[i, j] = (rot, 180.0)
            else:
                errors[i, j] = (rot, _reference_direction_angle_deg(t_est, t_gt))
    return errors, skipped


def _reference_pairwise_relative_accuracy(est, gt, thresholds):
    errors, skipped = _reference_pair_errors(est, gt)
    rot_errs = np.array([e[0] for e in errors.values()])
    dir_errs = np.array([e[1] for e in errors.values()])
    n = len(rot_errs)

    def pct(errs, tau):
        return 100.0 * (float(np.count_nonzero(errs <= tau)) / n)

    rra_at = {tau: pct(rot_errs, tau) for tau in thresholds}
    rta_at = {tau: pct(dir_errs, tau) for tau in thresholds}
    curve = np.array([min(pct(rot_errs, t), pct(dir_errs, t)) for t in range(31)])
    auc = (0.5 * (curve[0] + curve[-1]) + float(np.sum(curve[1:-1]))) / 30
    return PairwiseAccuracy(rra_at=rra_at, rta_at=rta_at, auc_at_30=auc, skipped_pairs=len(skipped))


def _reference_trajectory_errors(est, gt):
    centers_est = np.stack([p.center for p in est])
    centers_gt = np.stack([p.center for p in gt])
    t = weighted_umeyama(centers_gt, centers_est, np.ones(len(est)))
    residual = apply_sim3(t, centers_est) - centers_gt
    ate = float(np.sqrt(np.mean(np.sum(residual**2, axis=1))))
    rres, rtes = [], []
    for i in range(len(est) - 1):
        rel_est = est[i + 1].rotation @ est[i].rotation.T
        rel_gt = gt[i + 1].rotation @ gt[i].rotation.T
        rres.append(np.degrees(rotation_distance(rel_est, rel_gt)))
        d = t.scale * _reference_relative_translation(est[i], est[i + 1]) - _reference_relative_translation(
            gt[i], gt[i + 1]
        )
        rtes.append(float(np.linalg.norm(d)))
    return ate, float(np.mean(rres)), float(np.mean(rtes))


def _special_case_trajectories(seed, n=23):
    """Noisy estimate of a random trajectory with every special case of the
    pair metrics: poses equal to ground truth (equal relative rotations),
    two estimated cameras sharing a rotation, a ground-truth pair with a
    zero relative translation, and an estimated pair with one."""
    rng = np.random.default_rng(seed)
    gt = _random_trajectory(rng, n)
    est = [
        CameraPose(
            rotation=rotation_from_axis_angle(rng.normal(size=3), rng.uniform(0, 0.3)) @ p.rotation,
            translation=p.translation + rng.normal(0, 0.2, size=3),
        )
        for p in gt
    ]
    for i in (1, 2):
        est[i] = CameraPose(rotation=gt[i].rotation.copy(), translation=gt[i].translation.copy())
    est[6] = CameraPose(rotation=est[5].rotation.copy(), translation=est[6].translation)
    for i in (3, 4):
        gt[i] = CameraPose(rotation=gt[i].rotation, translation=np.zeros(3))
    for i in (8, 11):
        est[i] = CameraPose(rotation=est[i].rotation, translation=np.zeros(3))
    return est, gt


class TestUmeyamaAlign:
    def test_identity_recovery(self):
        rng = np.random.default_rng(0)
        gt = _random_trajectory(rng)
        t = umeyama_align(gt, gt)
        assert abs(t.scale - 1.0) < 1e-9
        assert np.abs(t.rotation - np.eye(3)).max() < 1e-9
        assert np.abs(t.translation).max() < 1e-9

    def test_known_warp_recovered(self):
        """est is a Sim(3) warp of gt; alignment must recover the exact
        inverse warp."""
        rng = np.random.default_rng(1)
        for seed in range(10):
            r = np.random.default_rng(seed)
            gt = _random_trajectory(r)
            g = Sim3Transform(
                scale=float(r.uniform(0.5, 2.0)),
                rotation=random_rotation(r),
                translation=r.normal(size=3),
            )
            est = [_gauge_pose(g, p) for p in gt]
            t = umeyama_align(est, gt)
            inv = g.inverse()
            assert abs(t.scale - inv.scale) < 1e-9
            assert np.abs(t.rotation - inv.rotation).max() < 1e-9
            assert np.abs(t.translation - inv.translation).max() < 1e-9

    def test_residual_not_worse_than_identity(self):
        rng = np.random.default_rng(2)
        gt = _random_trajectory(rng)
        est = _random_trajectory(rng)
        t = umeyama_align(est, gt)
        ec = np.stack([p.center for p in est])
        gc = np.stack([p.center for p in gt])
        aligned = np.sum((apply_sim3(t, ec) - gc) ** 2)
        assert aligned <= np.sum((ec - gc) ** 2) + 1e-12

    def test_two_poses_degenerate(self):
        rng = np.random.default_rng(3)
        gt = _random_trajectory(rng, n=2)
        with pytest.raises(DegenerateGeometryError):
            umeyama_align(gt, gt)

    def test_collinear_centers_degenerate(self):
        line = [_identity_pose([-float(i), 0.0, 0.0]) for i in range(5)]
        with pytest.raises(DegenerateGeometryError):
            umeyama_align(line, line)

    def test_length_mismatch(self):
        rng = np.random.default_rng(4)
        gt = _random_trajectory(rng)
        with pytest.raises(DataError, match="parallel"):
            umeyama_align(gt[:-1], gt)


class TestPairwiseRelativeAccuracy:
    def test_perfect_trajectory(self):
        rng = np.random.default_rng(5)
        gt = _random_trajectory(rng)
        acc = pairwise_relative_accuracy(gt, gt)
        assert all(v == 100.0 for v in acc.rra_at.values())
        assert all(v == 100.0 for v in acc.rta_at.values())
        assert acc.auc_at_30 == 100.0
        assert acc.skipped_pairs == 0

    def test_unpacks_as_three_tuple(self):
        rng = np.random.default_rng(6)
        gt = _random_trajectory(rng, n=4)
        rra, rta, auc = pairwise_relative_accuracy(gt, gt)
        assert rra[30] == 100.0 and rta[30] == 100.0 and auc == 100.0

    def test_ten_degree_perturbation_hand_values(self):
        """One of three rotations off by exactly 10 degrees: pairs (0,1)
        and (1,2) err by 10 degrees, pair (0,2) by zero."""
        rng = np.random.default_rng(7)
        gt = _random_trajectory(rng, n=3)
        d = rotation_from_axis_angle(rng.normal(size=3), np.deg2rad(10.0))
        est = [
            gt[0],
            CameraPose(rotation=d @ gt[1].rotation, translation=gt[1].translation),
            gt[2],
        ]
        acc = pairwise_relative_accuracy(est, gt, thresholds=(5, 30))
        assert acc.rra_at[30] == 100.0
        assert acc.rra_at[5] == pytest.approx(100.0 / 3, abs=1e-9)

    def test_global_rotation_gauge_leaves_rra(self):
        rng = np.random.default_rng(8)
        gt = _random_trajectory(rng)
        base = pairwise_relative_accuracy(gt, gt)
        d = random_rotation(rng)
        est = [CameraPose(rotation=p.rotation @ d, translation=p.translation) for p in gt]
        moved = pairwise_relative_accuracy(est, gt)
        assert moved.rra_at == base.rra_at

    def test_matches_brute_force_oracle(self):
        """Exact equality against an independent 4x4-matrix implementation
        on random trajectories."""
        for seed in range(8):
            rng = np.random.default_rng(100 + seed)
            gt = _random_trajectory(rng)
            est = [
                CameraPose(
                    rotation=rotation_from_axis_angle(rng.normal(size=3), rng.uniform(0, 0.6)) @ p.rotation,
                    translation=p.translation + rng.normal(0, 0.2, size=3),
                )
                for p in gt
            ]
            taus = (2, 5, 10, 15, 30)
            acc = pairwise_relative_accuracy(est, gt, thresholds=taus)
            rra, rta, auc = _oracle_pairwise(est, gt, taus)
            assert acc.rra_at == rra
            assert acc.rta_at == rta
            assert acc.auc_at_30 == auc

    @pytest.mark.parametrize("chunk", [1, 7, evaluation.PAIR_CHUNK])
    def test_matches_reference_bit_for_bit(self, monkeypatch, chunk):
        """The chunked pair kernel gives the loop's per-pair errors and
        accuracies bit for bit, whatever the chunk size."""
        monkeypatch.setattr(evaluation, "PAIR_CHUNK", chunk)
        taus = (1, 2.5, 5, 15, 30)
        for seed in range(3):
            est, gt = _special_case_trajectories(200 + seed)
            want = _reference_pairwise_relative_accuracy(est, gt, taus)
            got = pairwise_relative_accuracy(est, gt, thresholds=taus)
            assert got.skipped_pairs == want.skipped_pairs == 1
            assert got.rra_at == want.rra_at
            assert got.rta_at == want.rta_at
            assert got.auc_at_30 == want.auc_at_30

    def test_pair_errors_match_reference(self):
        est, gt = _special_case_trajectories(210)
        errors, skipped = _reference_pair_errors(est, gt)
        i, j = np.triu_indices(len(est), k=1)
        rot, direction, keep = evaluation._pair_errors(evaluation._stacked(est), evaluation._stacked(gt), i, j)
        assert [(a, b) for a, b, k in zip(i, j, keep) if not k] == skipped == [(3, 4)]
        want = np.array([errors[a, b] for a, b, k in zip(i, j, keep) if k])
        np.testing.assert_array_equal(rot[keep], want[:, 0])
        np.testing.assert_array_equal(direction[keep], want[:, 1])
        assert np.count_nonzero(direction[keep] == 180.0) >= 1
        assert np.count_nonzero(rot[keep] == 0.0) >= 1

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(9)
        gt = _random_trajectory(rng)
        est = _random_trajectory(rng)
        taus = list(range(1, 31))
        acc = pairwise_relative_accuracy(est, gt, thresholds=taus)
        for lo, hi in zip(taus, taus[1:]):
            assert acc.rra_at[lo] <= acc.rra_at[hi]
            assert acc.rta_at[lo] <= acc.rta_at[hi]
        assert acc.auc_at_30 <= min(acc.rra_at[30], acc.rta_at[30]) + 1.0

    def test_zero_length_gt_pair_skipped(self):
        """Two coincident identity poses produce one exactly-zero relative
        translation; that pair leaves both denominators."""
        poses = [
            _identity_pose([0.0, 0.0, 0.0]),
            _identity_pose([0.0, 0.0, 0.0]),
            _identity_pose([1.0, 0.0, 0.0]),
            _identity_pose([0.0, 1.0, 0.0]),
        ]
        acc = pairwise_relative_accuracy(poses, poses)
        assert acc.skipped_pairs == 1
        assert acc.rra_at[30] == 100.0
        assert acc.auc_at_30 == 100.0

    def test_zero_length_est_counts_180(self):
        """Coincident estimated poses against a nonzero ground-truth
        baseline: direction error 180; pair errors are (180, 0, 45)."""
        gt = [
            _identity_pose([0.0, 0.0, 0.0]),
            _identity_pose([2.0, 0.0, 0.0]),
            _identity_pose([0.0, 2.0, 0.0]),
        ]
        est = [
            _identity_pose([0.0, 0.0, 0.0]),
            _identity_pose([0.0, 0.0, 0.0]),
            _identity_pose([0.0, 2.0, 0.0]),
        ]
        acc = pairwise_relative_accuracy(est, gt, thresholds=(44, 45, 179, 180))
        assert acc.rta_at[44] == pytest.approx(100.0 / 3)
        assert acc.rta_at[45] == pytest.approx(200.0 / 3)
        assert acc.rta_at[179] == pytest.approx(200.0 / 3)
        assert acc.rta_at[180] == 100.0

    def test_all_pairs_skipped(self):
        poses = [_identity_pose([0.0, 0.0, 0.0])] * 3
        with pytest.raises(DataError, match="zero-length"):
            pairwise_relative_accuracy(poses, poses)

    def test_validation(self):
        rng = np.random.default_rng(10)
        gt = _random_trajectory(rng)
        with pytest.raises(DataError, match=">= 2 poses"):
            pairwise_relative_accuracy(gt[:1], gt[:1])
        with pytest.raises(DataError, match="positive"):
            pairwise_relative_accuracy(gt, gt, thresholds=(0,))
        with pytest.raises(DataError, match="parallel"):
            pairwise_relative_accuracy(gt[:-1], gt)


class TestTrajectoryErrors:
    def test_perfect_trajectory_zeros(self):
        rng = np.random.default_rng(11)
        gt = _random_trajectory(rng)
        ate, rre, rte = trajectory_errors(gt, gt)
        assert ate == pytest.approx(0.0, abs=1e-12)
        assert rre == 0.0
        assert rte == pytest.approx(0.0, abs=1e-12)

    def test_matches_reference_bit_for_bit(self):
        for seed in range(3):
            est, gt = _special_case_trajectories(220 + seed)
            assert trajectory_errors(est, gt) == _reference_trajectory_errors(est, gt)

    def test_constant_offset_absorbed(self):
        """Shifting every camera center by one vector is pure gauge."""
        rng = np.random.default_rng(12)
        gt = _random_trajectory(rng)
        shift = np.array([1.0, 2.0, 3.0])
        est = [
            CameraPose(rotation=p.rotation, translation=p.translation - p.rotation @ shift)
            for p in gt
        ]
        ate, _, _ = trajectory_errors(est, gt)
        assert ate == pytest.approx(0.0, abs=1e-12)

    def test_sim3_warp_absorbed(self):
        rng = np.random.default_rng(13)
        gt = _random_trajectory(rng)
        g = Sim3Transform(scale=1.7, rotation=random_rotation(rng), translation=rng.normal(size=3))
        est = [_gauge_pose(g, p) for p in gt]
        ate, rre, rte = trajectory_errors(est, gt)
        assert ate == pytest.approx(0.0, abs=1e-9)
        assert rre == pytest.approx(0.0, abs=1e-5)
        assert rte == pytest.approx(0.0, abs=1e-9)

    def test_displaced_center_matches_numeric_oracle(self):
        """ATE for one displaced center equals the RMSE at the numerically
        optimized similarity (7-parameter BFGS from identity)."""
        rng = np.random.default_rng(14)
        gt = _random_trajectory(rng)
        est = list(gt)
        p0 = gt[0]
        est[0] = CameraPose(
            rotation=p0.rotation,
            translation=p0.translation - p0.rotation @ np.array([0.37, 0.0, 0.0]),
        )
        ate, _, _ = trajectory_errors(est, gt)
        ec = np.stack([p.center for p in est])
        gc = np.stack([p.center for p in gt])

        def rmse(params):
            s = np.exp(params[0])
            r = Rotation.from_rotvec(params[1:4]).as_matrix()
            aligned = s * ec @ r.T + params[4:]
            return np.sqrt(np.mean(np.sum((aligned - gc) ** 2, axis=1)))

        res = minimize(rmse, np.zeros(7), method="BFGS")
        assert ate <= res.fun + 1e-9
        assert ate == pytest.approx(res.fun, abs=1e-6)
        assert ate <= rmse(np.zeros(7))

    def test_rre_hand_value(self):
        """Identity rotations, middle camera turned by exactly 10 degrees:
        both consecutive pairs err by 10, so RRE = 10."""
        gt = [
            _identity_pose([0.0, 0.0, 0.0]),
            _identity_pose([1.0, 0.0, 0.0]),
            _identity_pose([0.0, 1.0, 0.0]),
        ]
        d = rotation_from_axis_angle(np.array([0.0, 0.0, 1.0]), np.deg2rad(10.0))
        est = [gt[0], CameraPose(rotation=d, translation=gt[1].translation), gt[2]]
        _, rre, _ = trajectory_errors(est, gt)
        assert rre == pytest.approx(10.0, abs=1e-6)

    def test_ate_gauge_invariance_est_alone(self):
        """Alignment absorbs any Sim(3) applied to the estimate."""
        rng = np.random.default_rng(15)
        gt = _random_trajectory(rng)
        est = _random_trajectory(rng)
        ate0, rre0, rte0 = trajectory_errors(est, gt)
        for seed in range(5):
            r = np.random.default_rng(200 + seed)
            g = Sim3Transform(
                scale=float(r.uniform(0.3, 3.0)),
                rotation=random_rotation(r),
                translation=r.normal(size=3),
            )
            ate, rre, rte = trajectory_errors([_gauge_pose(g, p) for p in est], gt)
            assert ate == pytest.approx(ate0, abs=1e-9)
            assert rre == pytest.approx(rre0, abs=1e-6)
            assert rte == pytest.approx(rte0, abs=1e-9)

    def test_gauge_on_both_scales_metric_units(self):
        """Angular metrics are invariant under a common Sim(3); ATE and RTE
        carry scene units and scale by the gauge scale exactly."""
        rng = np.random.default_rng(16)
        gt = _random_trajectory(rng)
        est = _random_trajectory(rng)
        m0 = evaluate_trajectories(est, gt)
        g = Sim3Transform(scale=2.3, rotation=random_rotation(rng), translation=rng.normal(size=3))
        m1 = evaluate_trajectories(
            [_gauge_pose(g, p) for p in est], [_gauge_pose(g, p) for p in gt]
        )
        assert m1.rra_at == m0.rra_at
        assert m1.rta_at == m0.rta_at
        assert m1.auc_at_30 == m0.auc_at_30
        assert m1.rre == pytest.approx(m0.rre, abs=1e-9)
        assert m1.ate == pytest.approx(g.scale * m0.ate, rel=1e-12)
        assert m1.rte == pytest.approx(g.scale * m0.rte, rel=1e-12)


class TestEvaluateTrajectories:
    def test_bundles_all_fields(self):
        rng = np.random.default_rng(17)
        gt = _random_trajectory(rng)
        est = _random_trajectory(rng)
        m = evaluate_trajectories(est, gt, thresholds=(15, 30))
        assert set(m.rra_at) == {15, 30}
        assert m.ate >= 0
        d = m.to_dict()
        assert set(d) == {"ate", "rre", "rte", "rra_at", "rta_at", "auc_at_30"}
        assert set(d["rra_at"]) == {"15", "30"}

    def test_accepts_camera_params(self):
        from scenemerge.synthetic import generate_scene

        scene = generate_scene(0, n_cameras=6, n_landmarks=500, layout="room")
        m = evaluate_trajectories(scene.gt_cameras, scene.gt_cameras)
        assert m.ate == pytest.approx(0.0, abs=1e-12)
        assert m.auc_at_30 == 100.0

    def test_metrics_validation(self):
        with pytest.raises(DataError, match="ate"):
            TrajectoryMetrics(ate=-1.0, rre=0.0, rte=0.0, rra_at={}, rta_at={}, auc_at_30=100.0)
        with pytest.raises(DataError, match="outside"):
            TrajectoryMetrics(ate=0.0, rre=0.0, rte=0.0, rra_at={5: 101.0}, rta_at={}, auc_at_30=100.0)
        with pytest.raises(DataError, match="auc"):
            TrajectoryMetrics(ate=0.0, rre=0.0, rte=0.0, rra_at={}, rta_at={}, auc_at_30=-0.5)


class TestPointCloudDistance:
    def test_identical_clouds(self):
        rng = np.random.default_rng(18)
        pts = rng.normal(size=(40, 3))
        assert point_cloud_distance(pts, pts) == (0.0, 0.0)

    def test_single_outlier_hand_value(self):
        """Outlier beyond the max-x point along +x has its nearest true
        point at exactly D, so accuracy is D / (m + 1) bit for bit."""
        rng = np.random.default_rng(19)
        pts = rng.normal(size=(50, 3))
        k = int(np.argmax(pts[:, 0]))
        pred = np.vstack([pts, pts[k] + np.array([9.0, 0.0, 0.0])])
        accuracy, completion = point_cloud_distance(pred, pts)
        assert accuracy == 9.0 / 51
        assert completion == 0.0

    def test_swap_symmetry(self):
        rng = np.random.default_rng(20)
        a = rng.normal(size=(30, 3))
        b = rng.normal(size=(45, 3))
        acc, comp = point_cloud_distance(a, b)
        acc2, comp2 = point_cloud_distance(b, a)
        assert (acc2, comp2) == (comp, acc)

    def test_matches_brute_force(self):
        """Both directions equal the mean of a brute-force minimum over all
        pairwise distances, bit for bit, whatever tree answers the queries."""
        rng = np.random.default_rng(23)
        pred = rng.normal(size=(700, 3))
        gt = rng.normal(size=(300, 3)) * [2.0, 1.0, 0.5]
        dist = np.sqrt(np.sum((pred[:, None, :] - gt[None, :, :]) ** 2, axis=2))
        accuracy, completion = point_cloud_distance(pred, gt)
        assert accuracy == float(np.mean(np.min(dist, axis=1)))
        assert completion == float(np.mean(np.min(dist, axis=0)))

    @pytest.mark.parametrize("with_gauge", [False, True])
    @pytest.mark.parametrize("swapped", [False, True])
    def test_chunks_keep_whole_cloud_bits(self, with_gauge, swapped, monkeypatch):
        """Scored 6 points at a time, both metrics equal whole-cloud cKDTree
        queries over the gauge-mapped cloud bit for bit, in either argument
        order. apply_sim3's block shrinks with the chunk, which stays a
        multiple of it."""
        from scenemerge import geometry
        from scipy.spatial import cKDTree

        rng = np.random.default_rng(24)
        pred, gt = rng.normal(size=(100, 3)), rng.normal(size=(40, 3)) * [2.0, 1.0, 0.5]
        if swapped:
            pred, gt = gt, pred
        gauge = Sim3Transform(1.7, random_rotation(rng), rng.normal(size=3)) if with_gauge else None
        monkeypatch.setattr(evaluation, "_CLOUD_CHUNK", 6)
        monkeypatch.setattr(geometry, "_SIM3_BLOCK_ROWS", 3)
        mapped = pred if gauge is None else apply_sim3(gauge, pred)
        accuracy = float(np.mean(cKDTree(gt).query(mapped)[0]))
        completion = float(np.mean(cKDTree(mapped).query(gt)[0]))
        assert point_cloud_distance(pred, gt, gauge) == (accuracy, completion)

    @pytest.mark.parametrize("with_gauge", [False, True])
    def test_query_threads_keep_bits(self, with_gauge, monkeypatch):
        """Over several chunks, queries on every core give the bits of
        queries on one thread. gt repeats some points, so nearest-neighbour
        ties are broken the same way on any number of threads."""
        from scenemerge import geometry

        rng = np.random.default_rng(26)
        pred = rng.normal(size=(3000, 3))
        gt = rng.normal(size=(2000, 3)) * [2.0, 1.0, 0.5]
        gt = np.concatenate([gt, gt[:200]])
        gauge = Sim3Transform(0.8, random_rotation(rng), rng.normal(size=3)) if with_gauge else None
        monkeypatch.setattr(evaluation, "_CLOUD_CHUNK", 512)
        monkeypatch.setattr(geometry, "_SIM3_BLOCK_ROWS", 256)
        assert evaluation._QUERY_WORKERS == -1
        threaded = point_cloud_distance(pred, gt, gauge)
        monkeypatch.setattr(evaluation, "_QUERY_WORKERS", 1)
        assert np.array(point_cloud_distance(pred, gt, gauge)).tobytes() == np.array(threaded).tobytes()

    def test_chunk_is_a_multiple_of_the_sim3_block(self):
        from scenemerge import geometry

        assert evaluation._CLOUD_CHUNK % geometry._SIM3_BLOCK_ROWS == 0

    @pytest.mark.parametrize("with_gauge", [False, True])
    def test_memory_below_sixteen_bytes_per_point(self, with_gauge, traced_peak):
        """Scoring 400,000 points against 20,000 peaks (tracemalloc) below
        16 bytes per predicted point: one (N,) distance array plus one
        chunk's temporaries. A whole-cloud query's distance and index
        arrays alone take 16."""
        rng = np.random.default_rng(25)
        pred, gt = rng.normal(size=(400_000, 3)), rng.normal(size=(20_000, 3))
        args = (pred, gt, Sim3Transform(1.1, random_rotation(rng), rng.normal(size=3))) if with_gauge else (pred, gt)
        _, peak = traced_peak(lambda: point_cloud_distance(*args))
        assert peak < 16 * len(pred), f"{peak / len(pred):.1f} bytes per point"

    def test_accepts_point_cloud_objects(self):
        rng = np.random.default_rng(21)
        pts = rng.normal(size=(25, 3))
        cloud = PointCloud(points=pts)
        assert point_cloud_distance(cloud, cloud) == (0.0, 0.0)

    def test_empty_cloud_rejected(self):
        rng = np.random.default_rng(22)
        pts = rng.normal(size=(10, 3))
        with pytest.raises(DataError, match="empty"):
            point_cloud_distance(np.zeros((0, 3)), pts)
        with pytest.raises(DataError, match="empty"):
            point_cloud_distance(pts, np.zeros((0, 3)))
        with pytest.raises(DataError, match="shape"):
            point_cloud_distance(np.zeros((5, 2)), pts)
