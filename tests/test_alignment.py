"""Tests for robust Sim(3) cluster alignment."""

import numpy as np
import pytest

from scenemerge import alignment
from scenemerge.alignment import (
    CorrespondenceSet,
    chain_alignments,
    estimate_sim3_irls,
    extract_overlap_correspondences,
    MergedGeometry,
    huber_rho,
    weighted_umeyama,
)
from scenemerge.clusters import ClusterReconstruction
from scenemerge.errors import (
    ConfigError,
    DataError,
    DegenerateGeometryError,
    DivergenceError,
    InsufficientOverlapError,
    MissingFrameError,
)
from scenemerge.geometry import (
    CameraIntrinsics,
    CameraParams,
    CameraPose,
    Sim3Transform,
    apply_sim3,
    compose_sim3,
    project_points,
    random_rotation,
    unproject_pixels,
)
from scenemerge.synthetic import PerturbationSpec, generate_scene, render_cluster


def _camera(width, height, frame_id=0):
    intr = CameraIntrinsics(
        fx=2.0 * width, fy=2.0 * width, cx=width / 2.0, cy=height / 2.0, width=width, height=height
    )
    return CameraParams(
        intrinsics=intr, pose=CameraPose(rotation=np.eye(3), translation=np.zeros(3)), frame_id=frame_id
    )


def _cluster(cluster_id, frames):
    """frames: list of (frame_id, depth array, conf array)."""
    cams, depths, confs, fids = [], [], [], []
    for fid, d, c in frames:
        d = np.asarray(d, dtype=np.float32)
        cams.append(_camera(d.shape[1], d.shape[0], fid))
        depths.append(d)
        confs.append(c)
        fids.append(fid)
    return ClusterReconstruction(
        cluster_id=cluster_id, frame_ids=fids, cameras=cams, depths=depths, confidences=confs
    )


def _random_sim3(rng, scale_range=(0.5, 2.0)):
    return Sim3Transform(
        scale=float(rng.uniform(*scale_range)),
        rotation=random_rotation(rng),
        translation=rng.normal(size=3),
    )


def _sim3_param_errors(est, gt):
    """(scale, rotation element, translation) absolute differences."""
    return (
        abs(est.scale - gt.scale),
        float(np.abs(est.rotation - gt.rotation).max()),
        float(np.abs(est.translation - gt.translation).max()),
    )


class TestHuberRho:
    def test_zero_residual(self):
        assert huber_rho(0.0, 1.0) == 0.0

    def test_continuity_at_delta(self):
        """Both branches give delta^2/2 at r = delta: 0.5*4 = 2.0 for delta 2."""
        assert huber_rho(2.0, 2.0) == 2.0
        eps = 1e-9
        assert abs(huber_rho(2.0 + eps, 2.0) - 2.0) < 1e-8

    def test_hand_value(self):
        """rho(3, 1) = 1*(3 - 0.5) = 2.5."""
        assert huber_rho(3.0, 1.0) == 2.5

    def test_vector_input(self):
        out = huber_rho(np.array([0.0, 1.0, 3.0]), 1.0)
        assert np.allclose(out, [0.0, 0.5, 2.5])

    def test_rejects_bad_args(self):
        with pytest.raises(ConfigError):
            huber_rho(1.0, 0.0)
        with pytest.raises(ConfigError):
            huber_rho(-1.0, 1.0)


class TestCorrespondenceSet:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(DataError):
            CorrespondenceSet(
                points_a=np.zeros((3, 3)), points_b=np.zeros((2, 3)), confidences=np.ones(3)
            )

    def test_rejects_negative_confidence(self):
        with pytest.raises(DataError):
            CorrespondenceSet(
                points_a=np.zeros((2, 3)), points_b=np.zeros((2, 3)), confidences=[-1.0, 1.0]
            )


class TestExtractOverlap:
    def test_identical_clusters_identical_points(self):
        """Same cluster twice at percentile 0: points_a equals points_b."""
        rng = np.random.default_rng(0)
        depth = rng.uniform(1.0, 3.0, size=(6, 8)).astype(np.float32)
        conf = rng.uniform(0.1, 1.0, size=(6, 8)).astype(np.float32)
        a = _cluster(0, [(4, depth, conf)])
        b = _cluster(1, [(4, depth, conf)])
        cs = extract_overlap_correspondences(a, b, conf_percentile=0.0)
        assert len(cs) == 48
        assert np.array_equal(cs.points_a, cs.points_b)

    def test_percentile_70_keeps_exactly_300_of_1000(self):
        """n - floor(n*p/100) survive: 1000 - 700 = 300."""
        rng = np.random.default_rng(1)
        depth = rng.uniform(1.0, 3.0, size=(25, 40)).astype(np.float32)
        conf = rng.uniform(0.0, 1.0, size=(25, 40)).astype(np.float32)
        a = _cluster(0, [(0, depth, conf)])
        b = _cluster(1, [(0, depth, conf)])
        cs = extract_overlap_correspondences(a, b, conf_percentile=70.0)
        assert len(cs) == 300
        threshold = np.sort(conf.reshape(-1))[699]
        assert cs.confidences.min() >= threshold

    def test_ties_keep_higher_index(self):
        """All-equal confidences: survivors are the last-emitted pairs.

        Depth encodes the emission index (row-major pixels), so with 25x40
        = 1000 equal-confidence pairs and percentile 70, the surviving
        camera-frame z values are exactly depths 700..999.
        """
        depth = (1.0 + np.arange(1000, dtype=np.float32).reshape(25, 40) / 1000.0)
        conf = np.full((25, 40), 0.5, dtype=np.float32)
        a = _cluster(0, [(0, depth, conf)])
        b = _cluster(1, [(0, depth, conf)])
        cs = extract_overlap_correspondences(a, b, conf_percentile=70.0)
        expected_z = depth.reshape(-1)[700:].astype(np.float64)
        assert np.array_equal(cs.points_a[:, 2], expected_z)

    def test_combined_confidence_is_min(self):
        depth = np.ones((4, 4), dtype=np.float32)
        a = _cluster(0, [(0, depth, np.full((4, 4), 0.9))])
        b = _cluster(1, [(0, depth, np.full((4, 4), 0.3))])
        cs = extract_overlap_correspondences(a, b, conf_percentile=0.0)
        assert np.all(cs.confidences == np.float32(0.3))

    def test_no_shared_frames(self):
        depth = np.ones((4, 4), dtype=np.float32)
        conf = np.ones((4, 4), dtype=np.float32)
        a = _cluster(0, [(0, depth, conf)])
        b = _cluster(1, [(1, depth, conf)])
        with pytest.raises(InsufficientOverlapError):
            extract_overlap_correspondences(a, b)

    def test_no_covalid_pixels(self):
        """Shared frame but disjoint validity masks."""
        da = np.zeros((4, 4), dtype=np.float32)
        da[:2] = 1.0
        db = np.zeros((4, 4), dtype=np.float32)
        db[2:] = 1.0
        conf = np.ones((4, 4), dtype=np.float32)
        a = _cluster(0, [(0, da, conf)])
        b = _cluster(1, [(0, db, conf)])
        with pytest.raises(InsufficientOverlapError):
            extract_overlap_correspondences(a, b)

    def test_max_pairs_thinning(self, monkeypatch):
        rng = np.random.default_rng(2)
        depth = rng.uniform(1.0, 3.0, size=(25, 40)).astype(np.float32)
        conf = rng.uniform(0.0, 1.0, size=(25, 40)).astype(np.float32)
        a = _cluster(0, [(0, depth, conf)])
        b = _cluster(1, [(0, depth, conf)])
        monkeypatch.setattr(alignment, "_MAX_PAIRS", 100)
        cs = extract_overlap_correspondences(a, b, conf_percentile=0.0)
        again = extract_overlap_correspondences(a, b, conf_percentile=0.0)
        assert len(cs) == 100
        assert np.array_equal(cs.points_a, again.points_a)

    def test_rejects_bad_percentile(self):
        depth = np.ones((4, 4), dtype=np.float32)
        conf = np.ones((4, 4), dtype=np.float32)
        a = _cluster(0, [(0, depth, conf)])
        b = _cluster(1, [(0, depth, conf)])
        for bad in (-1.0, 100.0, 150.0):
            with pytest.raises(ConfigError):
                extract_overlap_correspondences(a, b, conf_percentile=bad)

    def test_warped_oracle_pairs_satisfy_relative_transform(self):
        """p_a = (warp_a o warp_b^-1)(p_b) for zero-depth-noise clusters.

        Depths are float32, so agreement is to roughly 1e-7 of scene
        scale; 1e-5 is generous.
        """
        scene = generate_scene(seed=6, n_cameras=8, n_landmarks=2500, layout="room")
        spec = PerturbationSpec(per_cluster_sim3_noise=(0.25, 25.0, 0.8))
        ca, wa = render_cluster(scene, [0, 1, 2, 3], spec, cluster_id=0)
        cb, wb = render_cluster(scene, [2, 3, 4, 5], spec, cluster_id=1)
        rel = compose_sim3(wa, wb.inverse())
        cs = extract_overlap_correspondences(ca, cb, conf_percentile=0.0)
        assert len(cs) > 100
        err = np.linalg.norm(cs.points_a - apply_sim3(rel, cs.points_b), axis=1)
        assert err.max() < 1e-5


class TestWeightedUmeyama:
    def test_exact_recovery_nonuniform_weights(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            pts = rng.normal(size=(40, 3))
            gt = _random_sim3(rng)
            w = rng.uniform(0.1, 5.0, size=40)
            est = weighted_umeyama(apply_sim3(gt, pts), pts, w)
            ds, dr, dt = _sim3_param_errors(est, gt)
            assert max(ds, dr, dt) < 1e-9

    def test_too_few_points(self):
        with pytest.raises(DegenerateGeometryError):
            weighted_umeyama(np.zeros((2, 3)), np.zeros((2, 3)), np.ones(2))

    def test_collinear_points(self):
        t = np.linspace(0, 1, 10)
        line = np.stack([t, 2 * t, -t], axis=1)
        with pytest.raises(DegenerateGeometryError):
            weighted_umeyama(line, line, np.ones(10))

    def test_zero_weights(self):
        pts = np.random.default_rng(0).normal(size=(5, 3))
        with pytest.raises(DegenerateGeometryError):
            weighted_umeyama(pts, pts, np.zeros(5))

    def test_planar_points_are_fine(self):
        """Rank-2 configurations still determine the rotation uniquely."""
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(30, 3))
        pts[:, 2] = 0.0
        gt = _random_sim3(rng)
        est = weighted_umeyama(apply_sim3(gt, pts), pts, np.ones(30))
        assert max(_sim3_param_errors(est, gt)) < 1e-9


class TestEstimateSim3:
    def test_identity_on_equal_points(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(30, 3))
        cs = CorrespondenceSet(points_a=pts, points_b=pts, confidences=np.ones(30))
        res = estimate_sim3_irls(cs)
        # residuals carry ~1e-15 SVD rounding, so "objective 0" means
        # squared-noise scale, far below any real misalignment
        assert res.final_objective < 1e-20
        assert abs(res.transform.scale - 1.0) < 1e-12
        assert np.abs(res.transform.rotation - np.eye(3)).max() < 1e-12
        assert np.abs(res.transform.translation).max() < 1e-12
        assert res.inlier_count == 30

    def test_exact_recovery_all_seven_parameters(self):
        """Noise-free pairs recover (s, R, t) within 1e-8 elementwise."""
        rng = np.random.default_rng(6)
        for _ in range(50):
            pts = rng.normal(size=(500, 3)) * rng.uniform(0.5, 5.0)
            gt = _random_sim3(rng)
            cs = CorrespondenceSet(
                points_a=apply_sim3(gt, pts), points_b=pts, confidences=np.ones(500)
            )
            res = estimate_sim3_irls(cs)
            assert max(_sim3_param_errors(res.transform, gt)) < 1e-8
            assert res.inlier_count <= len(cs)

    def test_outlier_robustness_vs_least_squares(self):
        """100 inliers + 20 outliers displaced by 10x scene scale.

        IRLS lands within 1e-3 of truth while the unrobust baseline errs
        by more than 1e-1 (probed: worst IRLS 2e-6, best baseline 0.5 over
        100 seeds)."""
        for seed in range(20):
            rng = np.random.default_rng(seed)
            base = rng.normal(size=(100, 3))
            scene_scale = float(np.linalg.norm(base - base.mean(axis=0), axis=1).max())
            gt = _random_sim3(rng)
            out_b = rng.normal(size=(20, 3))
            out_a = apply_sim3(gt, out_b) + rng.normal(size=(20, 3)) * 10.0 * scene_scale
            cs = CorrespondenceSet(
                points_a=np.concatenate([apply_sim3(gt, base), out_a]),
                points_b=np.concatenate([base, out_b]),
                confidences=np.ones(120),
            )
            robust = estimate_sim3_irls(cs)
            baseline = weighted_umeyama(cs.points_a, cs.points_b, cs.confidences)  # one unrobust solve
            assert max(_sim3_param_errors(robust.transform, gt)) < 1e-3
            assert max(_sim3_param_errors(baseline, gt)) > 1e-1

    def test_final_objective_not_above_initialization(self):
        """With the final delta, the result never scores worse than the
        confidence-only initialization."""
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(200, 3))
        gt = _random_sim3(rng)
        noisy_a = apply_sim3(gt, pts) + rng.normal(size=(200, 3)) * 0.05
        noisy_a[:30] += rng.normal(size=(30, 3)) * 5.0
        conf = rng.uniform(0.2, 1.0, size=200)
        cs = CorrespondenceSet(points_a=noisy_a, points_b=pts, confidences=conf)
        res = estimate_sim3_irls(cs)
        init = weighted_umeyama(cs.points_a, cs.points_b, cs.confidences)
        r_init = np.linalg.norm(cs.points_a - apply_sim3(init, cs.points_b), axis=1)
        r_final = np.linalg.norm(cs.points_a - apply_sim3(res.transform, cs.points_b), axis=1)
        assert res.final_objective <= float(np.sum(conf * r_init * r_init))
        assert np.median(r_final) <= np.median(r_init)

    def test_objective_increase_raises_divergence(self, monkeypatch):
        """A step that raises the Huber objective breaks the majorize-minimize
        guarantee; it must raise DivergenceError, which python -O keeps."""
        from scenemerge import alignment

        rng = np.random.default_rng(11)
        pts = rng.normal(size=(100, 3))
        a = apply_sim3(_random_sim3(rng), pts) + rng.normal(size=(100, 3)) * 0.01
        cs = CorrespondenceSet(points_a=a, points_b=pts, confidences=np.ones(100))
        real = alignment.weighted_umeyama
        calls = []

        def worse_after_init(pa, pb, w):
            t = real(pa, pb, w)
            calls.append(t)
            if len(calls) == 1:
                return t
            return Sim3Transform(scale=2.0 * t.scale, rotation=t.rotation, translation=t.translation)

        monkeypatch.setattr(alignment, "weighted_umeyama", worse_after_init)
        with pytest.raises(DivergenceError, match="IRLS objective increased") as exc:
            estimate_sim3_irls(cs)
        assert exc.value.iteration == 0

    def test_equivariance_under_source_transform(self):
        """Estimating against S-pre-warped sources recovers T o S^-1."""
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(300, 3))
        gt = _random_sim3(rng)
        s = _random_sim3(rng)
        a = apply_sim3(gt, pts) + rng.normal(size=(300, 3)) * 0.01
        cs_plain = CorrespondenceSet(points_a=a, points_b=pts, confidences=np.ones(300))
        cs_warped = CorrespondenceSet(
            points_a=a, points_b=apply_sim3(s, pts), confidences=np.ones(300)
        )
        t_plain = estimate_sim3_irls(cs_plain).transform
        t_warped = estimate_sim3_irls(cs_warped).transform
        probe = rng.normal(size=(100, 3))
        lhs = apply_sim3(t_warped, apply_sim3(s, probe))
        rhs = apply_sim3(t_plain, probe)
        assert np.abs(lhs - rhs).max() < 1e-6

    def test_confidence_scale_invariance(self):
        """Scaling all confidences by 7.3 leaves the estimate unchanged."""
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(150, 3))
        gt = _random_sim3(rng)
        a = apply_sim3(gt, pts) + rng.normal(size=(150, 3)) * 0.02
        conf = rng.uniform(0.1, 1.0, size=150)
        r1 = estimate_sim3_irls(CorrespondenceSet(points_a=a, points_b=pts, confidences=conf))
        r2 = estimate_sim3_irls(
            CorrespondenceSet(points_a=a, points_b=pts, confidences=conf * 7.3)
        )
        assert abs(r1.transform.scale - r2.transform.scale) < 1e-9
        assert np.abs(r1.transform.rotation - r2.transform.rotation).max() < 1e-9
        assert np.abs(r1.transform.translation - r2.transform.translation).max() < 1e-9

    def test_degenerate_inputs(self):
        pts = np.random.default_rng(0).normal(size=(2, 3))
        cs = CorrespondenceSet(points_a=pts, points_b=pts, confidences=np.ones(2))
        with pytest.raises(DegenerateGeometryError):
            estimate_sim3_irls(cs)
        coincident = np.zeros((10, 3))
        cs2 = CorrespondenceSet(points_a=coincident, points_b=coincident, confidences=np.ones(10))
        with pytest.raises(DegenerateGeometryError):
            estimate_sim3_irls(cs2)


class TestChainAlignments:
    def test_empty_chain(self):
        out = chain_alignments([])
        assert len(out) == 1
        assert out[0].scale == 1.0

    def test_all_identity(self):
        out = chain_alignments([Sim3Transform.identity()] * 3)
        for t in out:
            assert t.scale == 1.0
            assert np.array_equal(t.rotation, np.eye(3))
            assert np.array_equal(t.translation, np.zeros(3))

    def test_two_clusters(self):
        rng = np.random.default_rng(10)
        t = _random_sim3(rng)
        out = chain_alignments([t])
        assert len(out) == 2
        assert out[1].scale == t.scale
        assert np.array_equal(out[1].rotation, t.rotation)

    def test_three_cluster_pointwise(self):
        """Cluster-2 transform equals sequential application, 1e-9."""
        rng = np.random.default_rng(11)
        t1, t2 = _random_sim3(rng), _random_sim3(rng)
        out = chain_alignments([t1, t2])
        pts = rng.normal(size=(100, 3))
        chained = apply_sim3(out[2], pts)
        sequential = apply_sim3(t1, apply_sim3(t2, pts))
        assert np.abs(chained - sequential).max() < 1e-9

    def test_accepts_bare_transforms(self):
        rng = np.random.default_rng(12)
        t = _random_sim3(rng)
        out = chain_alignments([t])
        assert out[1].scale == t.scale


class TestMergeClusters:
    """MergedGeometry: one winning instance per frame, mapped into the global frame."""

    def test_single_cluster_identity_unchanged(self):
        rng = np.random.default_rng(13)
        depth = rng.uniform(1.0, 2.0, size=(4, 4)).astype(np.float32)
        conf = rng.uniform(0.1, 1.0, size=(4, 4)).astype(np.float32)
        cluster = _cluster(0, [(0, depth, conf)])
        merged = MergedGeometry([cluster], [Sim3Transform.identity()])
        assert merged.frames() == [0]
        cam = merged.camera(0)
        assert np.allclose(cam.pose.rotation, np.eye(3), atol=1e-15)
        assert np.allclose(cam.pose.translation, 0.0, atol=1e-15)
        rows, cols = np.nonzero(depth > 0)
        pixels = np.stack([cols, rows], axis=1).astype(np.float64)
        direct = unproject_pixels(pixels, depth[rows, cols].astype(np.float64), cluster.cameras[0])
        assert np.allclose(merged.dense_cloud().points, direct, atol=1e-12)

    def test_duplicate_frame_keeps_higher_confidence(self):
        """Frame 5 appears with mean confidences 0.9 and 0.3."""
        depth = np.ones((4, 4), dtype=np.float32)
        strong = _cluster(0, [(5, depth, np.full((4, 4), 0.9))])
        weak = _cluster(1, [(5, depth * 2.0, np.full((4, 4), 0.3))])
        merged = MergedGeometry([weak, strong], [Sim3Transform.identity(), Sim3Transform.identity()])
        assert merged.frames() == [5]
        cloud = merged.dense_cloud()
        assert np.all(cloud.confidences == np.float32(0.9))
        assert np.allclose(cloud.points[:, 2], 1.0)

    def test_sample_reads_the_nearest_pixel(self):
        """On a 5x7 map with holes, under a non-identity Sim(3), sample
        lifts each pixel inside the map with valid depth at its nearest
        integer pixel and reads the confidence there; every other row is
        NaN/0/False. Pixels sit on and past every clip edge."""
        rng = np.random.default_rng(16)
        depth = rng.uniform(1.0, 2.0, (5, 7)) * (rng.uniform(size=(5, 7)) > 0.3)
        conf = rng.uniform(0.1, 1.0, (5, 7)).astype(np.float32)
        t = _random_sim3(rng)
        merged = MergedGeometry([_cluster(0, [(3, depth, conf)])], [t])
        pixels = np.concatenate(
            [
                rng.uniform(-1.5, 7.5, (200, 2)) * [1.0, 5.0 / 7.0],
                [[-1.0, 0.0], [-0.5, 0.0], [-0.51, 0.0], [6.49, 4.49], [6.5, 0.0], [7.0, 0.0], [0.0, 5.0]],
                [[0.0, 4.5], [1e300, 1.0], [1.0, -1e300]],
            ]
        )
        pts, confs, valid = merged.sample(3, pixels)
        col, row = np.rint(pixels).clip(-1, 8).astype(int).T
        inside = (col >= 0) & (col < 7) & (row >= 0) & (row < 5)
        expected = inside.copy()
        expected[inside] = depth.astype(np.float32)[row[inside], col[inside]] > 0
        assert valid.tolist() == expected.tolist() and 0 < expected.sum() < len(pixels)
        d = depth.astype(np.float32)[row[expected], col[expected]].astype(np.float64) * t.scale
        lifted = unproject_pixels(pixels[expected], d, merged.camera(3))
        assert pts[expected].tobytes() == lifted.tobytes()
        assert np.isnan(pts[~expected]).all()
        assert confs.tolist() == np.where(expected, conf[row.clip(0, 4), col.clip(0, 6)], 0.0).tolist()

    def test_dense_cloud_rejects_wrong_camera_count(self):
        """A camera list of the wrong length is rejected, naming both counts,
        instead of zip dropping the frames it has no camera for."""
        depth = np.ones((4, 4), dtype=np.float32)
        cluster = _cluster(0, [(0, depth, np.ones((4, 4))), (1, depth, np.ones((4, 4)))])
        merged = MergedGeometry([cluster], [Sim3Transform.identity()])
        with pytest.raises(DataError, match="1 cameras for 2 frames"):
            merged.dense_cloud([merged.camera(0)])
        with pytest.raises(DataError, match="3 cameras for 2 frames"):
            merged.dense_cloud([merged.camera(0)] * 3)

    def test_dense_cloud_memory_is_the_cloud(self, traced_peak):
        """dense_cloud's traced peak is at most 1.1x the arrays it returns: each
        frame is unprojected in place, so beside the cloud it holds one
        frame's temporaries (concatenating per-frame lists held the cloud
        twice). Frames have holes, and one has no valid depth at all."""
        rng = np.random.default_rng(15)
        frames = []
        for fid in range(100):
            depth = rng.uniform(1.0, 2.0, (32, 32)) * (rng.uniform(size=(32, 32)) > 0.2) * (fid != 7)
            frames.append((fid, depth, rng.uniform(0.1, 1.0, (32, 32)).astype(np.float32)))
        merged = MergedGeometry([_cluster(0, frames)], [Sim3Transform.identity()])
        cloud, peak = traced_peak(merged.dense_cloud)
        assert len(cloud) == sum(int(np.count_nonzero(np.float32(d) > 0)) for _, d, _ in frames)
        returned = cloud.points.nbytes + cloud.confidences.nbytes
        assert peak <= 1.1 * returned, f"peak {peak / returned:.2f}x the returned cloud"

    def test_reprojection_invariance(self):
        """project(T(p), T(cam)) == project(p, cam) within 1e-6 px, and the
        merged dense cloud is the cluster-local cloud mapped by T."""
        rng = np.random.default_rng(14)
        scene = generate_scene(seed=1, n_cameras=4, n_landmarks=1000, layout="room")
        spec = PerturbationSpec(per_cluster_sim3_noise=(0.2, 20.0, 0.5))
        cluster, _ = render_cluster(scene, [0, 1], spec, cluster_id=0)
        t = _random_sim3(rng)
        merged = MergedGeometry([cluster], [t])
        local = MergedGeometry([cluster], [Sim3Transform.identity()]).dense_cloud()
        assert np.allclose(merged.dense_cloud().points, apply_sim3(t, local.points), atol=1e-9)
        pts = local.points[:: max(1, len(local.points) // 500)]
        for raw_cam in cluster.cameras:
            new_cam = merged.camera(raw_cam.frame_id)
            uv_old, front_old = project_points(pts, raw_cam)
            uv_new, front_new = project_points(apply_sim3(t, pts), new_cam)
            assert np.array_equal(front_old, front_new)
            assert np.abs(uv_old[front_old] - uv_new[front_new]).max() < 1e-6

    def test_three_cluster_oracle_trajectory(self):
        """Gauge-only clusters align back onto the ground-truth trajectory.

        Estimated pairwise transforms chain into cluster 0's frame, so the
        merged camera centers must equal warp_0 applied to the GT centers,
        up to float32 depth rounding.
        """
        scene = generate_scene(seed=9, n_cameras=9, n_landmarks=2500, layout="room")
        spec = PerturbationSpec(per_cluster_sim3_noise=(0.25, 25.0, 0.8))
        subsets = [[0, 1, 2, 3], [2, 3, 4, 5, 6], [5, 6, 7, 8]]
        clusters, warps = [], []
        for cid, subset in enumerate(subsets):
            cl, w = render_cluster(scene, subset, spec, cluster_id=cid)
            clusters.append(cl)
            warps.append(w)
        pairwise = [
            estimate_sim3_irls(extract_overlap_correspondences(clusters[i], clusters[i + 1], 0.0))
            for i in range(2)
        ]
        merged = MergedGeometry(clusters, chain_alignments([r.transform for r in pairwise]))
        assert merged.frames() == list(range(9))
        gt_centers = np.array([scene.gt_cameras[i].pose.center for i in range(9)])
        expected = apply_sim3(warps[0], gt_centers)
        got = np.array([merged.camera(f).pose.center for f in merged.frames()])
        assert np.abs(got - expected).max() < 1e-5

    def test_depths_read_each_frame_from_its_winning_cluster(self):
        """depths, given the table rows of many frames at once and the keys
        pixel_keys gives their pixels, reads each pixel from its frame's own
        map in the winning cluster: three clusters of different image sizes
        and scales, two frames held twice, pixels inside, on and past every
        edge, over holes and huge. Each kept row has its flat index into the
        frame's map (its key less the frame's key_base) and that depth times
        the cluster's scale, bit for bit; table_rows names a frame no
        cluster holds."""
        rng = np.random.default_rng(21)

        def frame(fid, h, w, conf):
            depth = rng.uniform(1.0, 3.0, (h, w)) * (rng.uniform(size=(h, w)) > 0.3)
            return fid, depth, np.full((h, w), conf, dtype=np.float32)

        clusters = [
            _cluster(0, [frame(0, 5, 7, 0.5), frame(1, 5, 7, 0.2), frame(2, 5, 7, 0.9)]),
            _cluster(1, [frame(2, 4, 6, 0.1), frame(3, 4, 6, 0.5), frame(4, 4, 6, 0.5)]),
            _cluster(2, [frame(5, 6, 3, 0.5), frame(1, 6, 3, 0.8)]),
        ]
        merged = MergedGeometry(clusters, [_random_sim3(rng) for _ in clusters])
        fids = rng.integers(0, 6, 600)
        pixels = rng.uniform(-1.5, 8.5, (600, 2))
        pixels[::50, 0] = 1e300
        rows = merged.table_rows(fids)
        keys = merged.pixel_keys(rows, pixels)
        kept, depths = merged.depths(rows, keys)
        at = keys[kept] - merged.key_base[rows[kept]]

        want = []
        for row, (fid, (u, v)) in enumerate(zip(fids.tolist(), np.rint(pixels).tolist())):
            depth, _, scale = merged._maps(merged.table_rows([fid])[0])
            h, w = depth.shape
            if 0 <= u < w and 0 <= v < h and depth[int(v), int(u)] > 0:
                want.append((row, int(v) * w + int(u), float(depth[int(v), int(u)]) * scale))
        assert 0 < len(want) < len(pixels)
        assert list(zip(kept.tolist(), at.tolist(), depths.tolist())) == want
        assert [merged._maps(row)[0].shape for row in merged.table_rows([1, 2])] == [(6, 3), (5, 7)]
        with pytest.raises(MissingFrameError, match="frame 9"):
            merged.table_rows([0, 9])

    def test_rejects_mismatched_lists(self):
        depth = np.ones((4, 4), dtype=np.float32)
        cluster = _cluster(0, [(0, depth, depth)])
        with pytest.raises(ConfigError):
            MergedGeometry([cluster], [])
        with pytest.raises(ConfigError):
            MergedGeometry([], [])
