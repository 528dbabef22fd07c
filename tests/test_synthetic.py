"""Tests for the synthetic scene generator and simulated model outputs."""

import numpy as np
import pytest
from scipy.stats import spearmanr

from scenemerge.alignment import MergedGeometry
from scenemerge.errors import ConfigError, GenerationFailureError
from scenemerge.geometry import (
    CameraIntrinsics,
    CameraParams,
    CameraPose,
    Sim3Transform,
    apply_sim3,
    pinhole,
    rotation_angle,
)
from scenemerge.synthetic import (
    _NEAR_PLANE,
    PerturbationSpec,
    _splat,
    generate_scene,
    render_cluster,
    render_depth,
    synthetic_matcher,
    synthetic_similarity,
)


def _unproject_gt_frame(scene, frame_index):
    """World-frame points from the noise-free render of one camera."""
    dm = render_depth(scene, frame_index)
    cam = scene.gt_cameras[frame_index]
    rows, cols = np.nonzero(dm > 0)
    d = dm[rows, cols].astype(np.float64)
    k = cam.intrinsics
    pts_cam = np.stack([(cols - k.cx) / k.fx * d, (rows - k.cy) / k.fy * d, d], axis=1)
    return (pts_cam - cam.pose.translation) @ cam.pose.rotation


def _splat_lexsort(camera, landmarks):
    """Reference z-buffer: a stable sort by (pixel, depth) keeps each pixel's
    first row, the nearest landmark and on a depth tie the lowest index."""
    k = camera.intrinsics
    cam_pts = camera.pose.world_to_camera(landmarks)
    z = cam_pts[:, 2]
    idx = np.flatnonzero(z > _NEAR_PLANE)
    uv, _ = pinhole(cam_pts.take(idx, axis=0), k.row())
    col, row = np.rint(uv.T).astype(np.int64)
    keep = np.flatnonzero((col >= 0) & (col < k.width) & (row >= 0) & (row < k.height))
    idx = idx.take(keep)
    pix = (row * k.width + col).take(keep)
    order = np.lexsort((z[idx], pix))
    first = np.ones(len(order), dtype=bool)
    first[1:] = pix[order][1:] != pix[order][:-1]
    winners = idx[order][first]
    win_pix = pix[order][first]
    depth = np.zeros((k.height, k.width), dtype=np.float32)
    depth.reshape(-1)[win_pix] = z[winners].astype(np.float32)
    return depth, winners, win_pix


def _assert_splats_equal(camera, landmarks):
    got, ref = _splat(camera, landmarks), _splat_lexsort(camera, landmarks)
    for a, b in zip(got, ref):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    return got


class TestSplat:
    @pytest.mark.parametrize("layout", ["room", "object"])
    def test_matches_lexsort_reference_on_every_camera(self, layout):
        scene = generate_scene(42, 200, 5000, layout)
        for camera in scene.gt_cameras:
            _assert_splats_equal(camera, scene.landmarks)

    @staticmethod
    def _camera():
        k = CameraIntrinsics(fx=100.0, fy=100.0, cx=32.0, cy=24.0, width=64, height=48)
        return CameraParams(k, CameraPose(np.eye(3), np.zeros(3)), frame_id=0)

    def test_depth_tie_goes_to_the_lower_index(self):
        # 1 and 2 round to pixel (24, 32) at depth 2; 0 lands on (34, 32)
        landmarks = np.array([[0.0, 0.2, 2.0], [0.001, 0.0, 2.0], [0.0, 0.0, 2.0]])
        _, winners, pix = _assert_splats_equal(self._camera(), landmarks)
        assert winners.tolist() == [1, 0]
        assert pix.tolist() == [24 * 64 + 32, 34 * 64 + 32]

    def test_nearer_landmark_wins_with_the_higher_index(self):
        landmarks = np.array([[0.0, 0.0, 3.0], [0.001, 0.0, 2.0]])
        depth, winners, pix = _assert_splats_equal(self._camera(), landmarks)
        assert winners.tolist() == [1]
        assert pix.tolist() == [24 * 64 + 32]
        assert depth[24, 32] == 2.0 and np.count_nonzero(depth) == 1

    def test_frame_with_no_landmark_in_view(self):
        landmarks = np.array([[0.0, 0.0, -2.0], [50.0, 0.0, 1.0], [0.0, 0.0, 0.01]])
        depth, winners, pix = _assert_splats_equal(self._camera(), landmarks)
        assert len(winners) == len(pix) == 0
        assert not depth.any()


class TestGenerateScene:
    def test_deterministic(self):
        """Same seed twice gives bit-identical scenes."""
        a = generate_scene(seed=11, n_cameras=12, n_landmarks=1500, layout="room")
        b = generate_scene(seed=11, n_cameras=12, n_landmarks=1500, layout="room")
        assert np.array_equal(a.landmarks, b.landmarks)
        assert np.array_equal(a.visibility, b.visibility)
        for ca, cb in zip(a.gt_cameras, b.gt_cameras):
            assert np.array_equal(ca.pose.rotation, cb.pose.rotation)
            assert np.array_equal(ca.pose.translation, cb.pose.translation)

    def test_two_camera_minimal_scene(self):
        """The smallest allowed scene is valid and shares >= 50 landmarks."""
        scene = generate_scene(seed=0, n_cameras=2, n_landmarks=500, layout="room")
        shared = np.sum(scene.visibility[0] & scene.visibility[1])
        assert shared >= 50

    def test_every_landmark_seen_twice(self):
        for seed in range(5):
            scene = generate_scene(seed=seed, n_cameras=10, n_landmarks=2000, layout="room")
            assert scene.visibility.sum(axis=0).min() >= 2

    def test_every_camera_sees_enough(self):
        for layout in ("room", "object"):
            scene = generate_scene(seed=1, n_cameras=15, n_landmarks=3000, layout=layout)
            assert scene.visibility.sum(axis=1).min() >= 50

    def test_trajectory_smoothness_200_cameras(self):
        """Consecutive camera centers move less than 5% of scene diameter."""
        for layout in ("room", "object"):
            scene = generate_scene(seed=4, n_cameras=200, n_landmarks=5000, layout=layout)
            centers = np.array([c.pose.center for c in scene.gt_cameras])
            steps = np.linalg.norm(np.diff(centers, axis=0), axis=1)
            assert steps.max() < 0.05 * scene.diameter

    def test_rejects_single_camera(self):
        with pytest.raises(ConfigError):
            generate_scene(seed=0, n_cameras=1)

    @pytest.mark.parametrize("n_landmarks", [0, -5])
    def test_rejects_fewer_than_one_landmark(self, n_landmarks):
        with pytest.raises(ConfigError, match="at least 1 landmark"):
            generate_scene(seed=0, n_cameras=4, n_landmarks=n_landmarks)

    def test_rejects_negative_seed(self):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            generate_scene(seed=-1, n_cameras=4, n_landmarks=500)

    def test_rejects_unknown_layout(self):
        with pytest.raises(ConfigError):
            generate_scene(seed=0, layout="forest")

    def test_too_few_landmarks_fails(self):
        """40 landmarks cannot satisfy the 50-per-camera floor."""
        with pytest.raises(GenerationFailureError):
            generate_scene(seed=0, n_cameras=4, n_landmarks=40, layout="room")

    def test_splat_skips_points_on_the_camera_plane(self):
        """A landmark at z = 0 (and one behind) is never rounded to a pixel, so
        no cast warning; the landmark in front still renders."""
        k = CameraIntrinsics(fx=100.0, fy=100.0, cx=32.0, cy=24.0, width=64, height=48)
        camera = CameraParams(k, CameraPose(np.eye(3), np.zeros(3)), frame_id=0)
        landmarks = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -2.0], [0.0, 0.0, 2.0]])
        depth, winners, pix = _splat(camera, landmarks)
        assert winners.tolist() == [2]
        assert pix.tolist() == [24 * 64 + 32]
        assert depth[24, 32] == 2.0 and np.count_nonzero(depth) == 1

    def test_render_depth_matches_visibility(self):
        """Each z-buffer winner owns exactly one depth pixel."""
        scene = generate_scene(seed=7, n_cameras=8, n_landmarks=2000, layout="room")
        for i in range(scene.n_cameras):
            n_pix = int((render_depth(scene, i) > 0).sum())
            assert n_pix == int(scene.visibility[i].sum())


class TestPerturbationSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            PerturbationSpec(per_cluster_sim3_noise=(1.5, 0.0, 0.0))
        with pytest.raises(ConfigError):
            PerturbationSpec(depth_noise_sigma=-0.1)
        with pytest.raises(ConfigError):
            PerturbationSpec(outlier_match_fraction=1.0)
        with pytest.raises(ConfigError):
            PerturbationSpec(confidence_model="linear")

    def test_none_is_noise_free(self):
        spec = PerturbationSpec.none()
        assert spec.per_cluster_sim3_noise == (0.0, 0.0, 0.0)
        assert spec.depth_noise_sigma == 0.0
        assert spec.outlier_match_fraction == 0.0


class TestRenderCluster:
    def test_deterministic(self):
        scene = generate_scene(seed=2, n_cameras=10, n_landmarks=2000, layout="room")
        spec = PerturbationSpec.default()
        c1, w1 = render_cluster(scene, [0, 1, 2], spec, cluster_id=3)
        c2, w2 = render_cluster(scene, [0, 1, 2], spec, cluster_id=3)
        assert w1.scale == w2.scale
        assert np.array_equal(w1.rotation, w2.rotation)
        assert np.array_equal(c1.depths[0], c2.depths[0])
        assert np.array_equal(c1.confidences[1], c2.confidences[1])

    def test_distinct_clusters_draw_distinct_warps(self):
        scene = generate_scene(seed=2, n_cameras=10, n_landmarks=2000, layout="room")
        spec = PerturbationSpec.default()
        _, w0 = render_cluster(scene, [0, 1], spec, cluster_id=0)
        _, w1 = render_cluster(scene, [0, 1], spec, cluster_id=1)
        assert abs(w0.scale - w1.scale) > 1e-6

    def test_zero_noise_identity_warp(self):
        """No perturbation at all: cameras and depths equal ground truth."""
        scene = generate_scene(seed=5, n_cameras=6, n_landmarks=1500, layout="room")
        cluster, warp = render_cluster(scene, [1, 3], PerturbationSpec.none())
        assert warp.scale == 1.0
        assert rotation_angle(warp.rotation) == 0.0
        assert np.all(warp.translation == 0.0)
        for fi, cam in zip([1, 3], cluster.cameras):
            gt = scene.gt_cameras[fi]
            assert np.allclose(cam.pose.rotation, gt.pose.rotation, atol=1e-12)
            assert np.allclose(cam.pose.translation, gt.pose.translation, atol=1e-12)
        assert np.array_equal(cluster.depths[0], render_depth(scene, 1))

    def test_warped_cluster_matches_gt_up_to_warp(self):
        """With only gauge noise the cluster is exactly the warped GT render.

        Depth maps are float32, so one rounding of scale*depth bounds the
        reconstruction error near 1e-7 of scene scale; 1e-5 is generous.
        """
        scene = generate_scene(seed=2, n_cameras=10, n_landmarks=3000, layout="room")
        spec = PerturbationSpec(per_cluster_sim3_noise=(0.2, 20.0, 0.5))
        cluster, warp = render_cluster(scene, [0, 1, 2], spec, cluster_id=3)
        cloud = MergedGeometry([cluster], [Sim3Transform.identity()]).dense_cloud()
        gt = np.concatenate([_unproject_gt_frame(scene, fi) for fi in (0, 1, 2)])
        assert len(gt) == len(cloud.points)
        assert np.abs(apply_sim3(warp, gt) - cloud.points).max() < 1e-5

    def test_confidence_monotone_in_injected_error(self):
        """c = 1/(1 + |relative depth error| * 100), checked per pixel."""
        scene = generate_scene(seed=2, n_cameras=10, n_landmarks=2000, layout="room")
        spec = PerturbationSpec(depth_noise_sigma=0.05)
        cluster, warp = render_cluster(scene, [0], spec, cluster_id=1)
        gt_depth = render_depth(scene, 0)
        valid = gt_depth > 0
        factor = cluster.depths[0][valid].astype(np.float64) / (
            warp.scale * gt_depth[valid].astype(np.float64)
        )
        expected = 1.0 / (1.0 + np.abs(factor - 1.0) * 100.0)
        got = cluster.confidences[0][valid]
        assert np.abs(got - expected).max() < 1e-4
        assert np.all(cluster.confidences[0][~valid] == 0.0)
        order = np.argsort(np.abs(factor - 1.0))
        assert np.all(np.diff(got[order].astype(np.float64)) <= 1e-6)

    def test_rejects_out_of_range_subset(self):
        scene = generate_scene(seed=0, n_cameras=4, n_landmarks=1000, layout="room")
        with pytest.raises(ConfigError):
            render_cluster(scene, [0, 9], PerturbationSpec.none())


class TestSyntheticSimilarity:
    def test_unit_diagonal_and_symmetry(self):
        scene = generate_scene(seed=3, n_cameras=12, n_landmarks=2000, layout="room")
        sim = synthetic_similarity(scene).values
        assert np.all(sim.diagonal() == 1.0)
        assert np.array_equal(sim, sim.T)

    def test_disjoint_views_score_zero(self):
        """A wide room arc contains camera pairs with no shared landmarks."""
        scene = generate_scene(seed=5, n_cameras=30, n_landmarks=4000, layout="room")
        sim = synthetic_similarity(scene).values
        iu = np.triu_indices(30, 1)
        assert sim[iu].min() == 0.0

    def test_similarity_decays_with_separation(self):
        """Spearman(index separation, similarity) < -0.8 over seeds.

        Probed ranges: room n=8 lands in [-0.94, -0.91], object n=16 in
        [-0.99, -0.99] for seeds 0..7.
        """
        for seed in range(4):
            for kwargs in (
                dict(n_cameras=8, n_landmarks=3000, layout="room"),
                dict(n_cameras=16, n_landmarks=2000, layout="object"),
            ):
                scene = generate_scene(seed=seed, **kwargs)
                sim = synthetic_similarity(scene).values
                iu = np.triu_indices(scene.n_cameras, 1)
                rho = spearmanr(np.abs(iu[0] - iu[1]), sim[iu]).statistic
                assert rho < -0.8


class TestSyntheticMatcher:
    def test_deterministic(self):
        scene = generate_scene(seed=2, n_cameras=10, n_landmarks=2000, layout="room")
        match = synthetic_matcher(scene, PerturbationSpec.default())
        a = match(1, 2)
        b = match(1, 2)
        assert np.array_equal(a.pixels_i, b.pixels_i)
        assert np.array_equal(a.pixels_j, b.pixels_j)

    def test_orientation_swap(self):
        scene = generate_scene(seed=2, n_cameras=10, n_landmarks=2000, layout="room")
        match = synthetic_matcher(scene, PerturbationSpec.none())
        fwd = match(1, 2)
        rev = match(2, 1)
        assert fwd.frame_i == 1 and rev.frame_i == 2
        assert np.array_equal(fwd.pixels_i, rev.pixels_j)
        assert np.array_equal(fwd.pixels_j, rev.pixels_i)

    def test_zero_noise_pixels_are_exact_projections(self):
        scene = generate_scene(seed=2, n_cameras=10, n_landmarks=2000, layout="room")
        match = synthetic_matcher(scene, PerturbationSpec.none())
        ms = match(3, 4)
        shared = np.nonzero(scene.visibility[3] & scene.visibility[4])[0]
        assert len(ms) == len(shared)
        cam = scene.gt_cameras[3]
        k = cam.intrinsics
        c = cam.pose.world_to_camera(scene.landmarks[shared])
        uv = np.stack([k.fx * c[:, 0] / c[:, 2] + k.cx, k.fy * c[:, 1] / c[:, 2] + k.cy], axis=1)
        assert np.array_equal(ms.pixels_i, uv)

    def test_outlier_count(self):
        """Exactly floor(fraction * n) pairs are replaced."""
        scene = generate_scene(seed=2, n_cameras=10, n_landmarks=2000, layout="room")
        clean = synthetic_matcher(scene, PerturbationSpec.none())(1, 2)
        dirty = synthetic_matcher(scene, PerturbationSpec(outlier_match_fraction=0.2))(1, 2)
        moved = np.any(clean.pixels_i != dirty.pixels_i, axis=1) | np.any(
            clean.pixels_j != dirty.pixels_j, axis=1
        )
        assert moved.sum() == int(np.floor(0.2 * len(clean)))
