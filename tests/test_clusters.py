"""Tests for cluster loading, writing, and point-cloud extraction."""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from scenemerge.alignment import MergedGeometry
from scenemerge.clusters import ClusterReconstruction, write_cluster
from scenemerge.errors import (
    DataCorruptionError,
    MissingFrameError,
    SchemaViolationError,
)
from scenemerge.geometry import (
    CameraIntrinsics,
    CameraParams,
    CameraPose,
    Sim3Transform,
    apply_sim3,
    project_points,
)
from scenemerge.io_formats import read_manifest, read_tensor, write_tensor
from scenemerge.pipeline import load_scene
from scenemerge.synthetic import (
    PerturbationSpec,
    generate_scene,
    render_cluster,
    render_depth,
    synthetic_similarity,
    write_scene,
)


def _tiny_camera(width=4, height=4, frame_id=0):
    intr = CameraIntrinsics(fx=8.0, fy=8.0, cx=width / 2.0, cy=height / 2.0, width=width, height=height)
    pose = CameraPose(rotation=np.eye(3), translation=np.zeros(3))
    return CameraParams(intrinsics=intr, pose=pose, frame_id=frame_id)


def _tiny_cluster(depth, conf, frame_id=0, cluster_id=0):
    cam = _tiny_camera(depth.shape[1], depth.shape[0], frame_id)
    return ClusterReconstruction(
        cluster_id=cluster_id,
        frame_ids=[frame_id],
        cameras=[cam],
        depths=[depth],
        confidences=[conf],
    )


def _write_synthetic_scene(tmp_path, seed=2, n_cameras=6, subsets=((0, 1, 2), (2, 3, 4, 5))):
    scene = generate_scene(seed=seed, n_cameras=n_cameras, n_landmarks=1500, layout="room")
    spec = PerturbationSpec(per_cluster_sim3_noise=(0.2, 15.0, 0.5), depth_noise_sigma=0.01)
    clusters, warps = [], []
    for cid, subset in enumerate(subsets):
        c, w = render_cluster(scene, list(subset), spec, cluster_id=cid)
        clusters.append(c)
        warps.append(w)
    path = write_scene(tmp_path / "scene", scene, clusters, synthetic_similarity(scene), warps=warps)
    return path, scene, clusters


def _load(path, cluster_id):
    """One cluster of the scene whose manifest is at path, loaded by load_scene."""
    return load_scene(path.parent).clusters[cluster_id]


class TestValidation:
    def test_depth_map_requires_2d(self):
        cam = _tiny_camera(5, 1, frame_id=3)
        with pytest.raises(SchemaViolationError, match=r"cluster 2 frame 3: depth map has shape \(5,\)"):
            ClusterReconstruction(
                cluster_id=2, frame_ids=[3], cameras=[cam], depths=[np.zeros(5)], confidences=[np.ones((1, 5))]
            )

    def test_confidence_rejects_negative(self):
        depth, conf = np.ones((2, 2)), np.full((2, 2), -1.0)
        with pytest.raises(SchemaViolationError, match="cluster 4 frame 6: confidence map contains negative values"):
            _tiny_cluster(depth, conf, frame_id=6, cluster_id=4)

    def test_maps_are_stored_as_float32(self):
        """A float64 depth of 1.1 is stored, and lifted by sample, as float32(1.1)."""
        cluster = _tiny_cluster(np.full((4, 4), 1.1), np.ones((4, 4)))
        assert cluster.depths[0].dtype == np.float32 and cluster.confidences[0].dtype == np.float32
        pts, _, valid = MergedGeometry([cluster], [Sim3Transform.identity()]).sample(0, np.array([[2.0, 2.0]]))
        assert valid.all()
        assert pts[0, 2] == float(np.float32(1.1)) != 1.1

    def test_cluster_rejects_length_mismatch(self):
        cam = _tiny_camera()
        with pytest.raises(SchemaViolationError):
            ClusterReconstruction(
                cluster_id=0,
                frame_ids=[0, 1],
                cameras=[cam],
                depths=[np.ones((4, 4), dtype=np.float32)],
                confidences=[np.ones((4, 4), dtype=np.float32)],
            )

    def test_cluster_rejects_dimension_mismatch(self):
        """Depth 3x4 against 4x4 intrinsics fails."""
        cam = _tiny_camera(4, 4)
        with pytest.raises(SchemaViolationError, match=r"cluster 0 frame 0: depth map has shape \(3, 4\)"):
            ClusterReconstruction(
                cluster_id=0,
                frame_ids=[0],
                cameras=[cam],
                depths=[np.ones((3, 4), dtype=np.float32)],
                confidences=[np.ones((3, 4), dtype=np.float32)],
            )

    def test_frame_index_missing_frame(self):
        cluster = _tiny_cluster(np.ones((4, 4)), np.ones((4, 4)), frame_id=7)
        assert cluster.frame_index(7) == 0
        with pytest.raises(MissingFrameError):
            cluster.frame_index(3)


class TestLoadCluster:
    def test_round_trip_with_writer(self, tmp_path):
        """Oracle output loads back with identical tensors and frame lists."""
        path, _, clusters = _write_synthetic_scene(tmp_path)
        for original in clusters:
            loaded = _load(path, original.cluster_id)
            assert loaded.frame_ids == original.frame_ids
            for a, b in zip(loaded.depths, original.depths):
                assert np.array_equal(a, b)
            for a, b in zip(loaded.confidences, original.confidences):
                assert np.array_equal(a, b)
            for ca, cb in zip(loaded.cameras, original.cameras):
                assert np.allclose(ca.pose.rotation, cb.pose.rotation, atol=1e-12)
                assert np.allclose(ca.pose.translation, cb.pose.translation, atol=1e-12)

    def test_rewrite_is_byte_identical(self, tmp_path):
        """write(load(write(x))) reproduces every tensor byte for byte.

        poses.json is compared semantically: materializing cameras converts
        quaternion to matrix and back, which can flip the last bit, so the
        byte-level pose guarantee lives at the record layer (tested in
        test_io_formats); here the re-written values must agree to 1e-15.
        """
        import json

        path, _, clusters = _write_synthetic_scene(tmp_path)
        loaded = _load(path, 0)
        write_cluster(tmp_path / "again", loaded)
        src = path.parent / "clusters" / "000"
        dst = tmp_path / "again" / "clusters" / "000"
        for f in sorted(src.iterdir()):
            if f.suffix == ".mrgt":
                assert (dst / f.name).read_bytes() == f.read_bytes()
        a = json.loads((src / "poses.json").read_text())
        b = json.loads((dst / "poses.json").read_text())
        for ra, rb in zip(a["poses"], b["poses"]):
            assert ra["frame_id"] == rb["frame_id"]
            assert np.allclose(ra["quat_wxyz"], rb["quat_wxyz"], atol=1e-15)
            assert np.allclose(ra["translation"], rb["translation"], atol=1e-15)

    def test_missing_depth_file_names_frame(self, tmp_path):
        path, _, clusters = _write_synthetic_scene(tmp_path)
        victim = clusters[1].frame_ids[1]
        (path.parent / "clusters" / "001" / f"depth_{victim:05d}.mrgt").unlink()
        with pytest.raises(MissingFrameError, match=str(victim)):
            _load(path, 1)

    def test_truncated_tensor(self, tmp_path):
        path, _, clusters = _write_synthetic_scene(tmp_path)
        victim = path.parent / "clusters" / "000" / f"depth_{clusters[0].frame_ids[0]:05d}.mrgt"
        victim.write_bytes(victim.read_bytes()[:-40])
        with pytest.raises(DataCorruptionError):
            _load(path, 0)

    def test_nan_payload(self, tmp_path):
        path, _, clusters = _write_synthetic_scene(tmp_path)
        victim = path.parent / "clusters" / "000" / f"conf_{clusters[0].frame_ids[0]:05d}.mrgt"
        bad = np.full((48, 64), np.nan, dtype=np.float32)
        write_tensor(victim, bad)
        with pytest.raises(DataCorruptionError):
            _load(path, 0)

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_depth_names_cluster_frame_and_file(self, tmp_path, value):
        path, _, clusters = _write_synthetic_scene(tmp_path)
        fid = clusters[1].frame_ids[2]
        rel = f"clusters/001/depth_{fid:05d}.mrgt"
        bad = read_tensor(path.parent / rel)
        bad[5, 7] = value
        write_tensor(path.parent / rel, bad)
        with pytest.raises(DataCorruptionError, match=f"cluster 1 frame {fid}: non-finite value in depth tensor {rel}"):
            _load(path, 1)

    def test_wrong_shape_tensor(self, tmp_path):
        """A depth grid that disagrees with the manifest image size fails."""
        path, _, clusters = _write_synthetic_scene(tmp_path)
        victim = path.parent / "clusters" / "000" / f"depth_{clusters[0].frame_ids[0]:05d}.mrgt"
        write_tensor(victim, np.ones((10, 10), dtype=np.float32))
        with pytest.raises(SchemaViolationError):
            _load(path, 0)

    def test_missing_poses_file_names_cluster(self, tmp_path):
        path, _, _ = _write_synthetic_scene(tmp_path)
        (path.parent / "clusters" / "001" / "poses.json").unlink()
        with pytest.raises(MissingFrameError, match="cluster 1: poses file clusters/001/poses.json not found"):
            _load(path, 1)

    def test_manifest_round_trip(self, tmp_path):
        path, scene, clusters = _write_synthetic_scene(tmp_path)
        manifest = read_manifest(path)
        assert len(manifest.images) == scene.n_cameras
        assert [c.cluster_id for c in manifest.clusters] == [c.cluster_id for c in clusters]


def _dense_cloud(cluster):
    """The cluster's own cloud: its dense merged cloud under the identity."""
    return MergedGeometry([cluster], [Sim3Transform.identity()]).dense_cloud()


class TestClusterPointcloud:
    def test_four_by_four_reprojects_to_source_pixels(self):
        """16 valid pixels unproject then project back within 1e-6 px.

        Depth varies per pixel so the test exercises real unprojection, not
        a constant plane.
        """
        depth = (1.0 + np.arange(16, dtype=np.float32).reshape(4, 4) / 8.0)
        cluster = _tiny_cluster(depth, np.ones((4, 4)))
        cloud = _dense_cloud(cluster)
        assert len(cloud.points) == 16
        uv, in_front = project_points(cloud.points, cluster.cameras[0])
        assert in_front.all()
        rows, cols = np.nonzero(depth > 0)
        expected = np.stack([cols, rows], axis=1).astype(np.float64)
        assert np.abs(uv - expected).max() < 1e-6

    def test_invalid_depth_pixels_are_skipped(self):
        depth = np.ones((4, 4), dtype=np.float32)
        depth[0, 0] = 0.0
        depth[3, 3] = -2.0
        cloud = _dense_cloud(_tiny_cluster(depth, np.ones((4, 4))))
        assert len(cloud.points) == 14

    def test_noisy_cloud_stays_within_injected_noise(self):
        """Mean cloud-to-surface distance < sigma times mean scene depth.

        Radial displacement averages ~0.8 sigma d, and half-pixel lateral
        quantization adds ~0.02 units, keeping the ratio near 0.82 at
        sigma = 0.05 (probed)."""
        scene = generate_scene(seed=4, n_cameras=10, n_landmarks=3000, layout="room")
        sigma = 0.05
        cluster, warp = render_cluster(
            scene, list(range(10)), PerturbationSpec(depth_noise_sigma=sigma), cluster_id=0
        )
        cloud = _dense_cloud(cluster)
        unwarped = apply_sim3(warp.inverse(), cloud.points)
        dist, _ = cKDTree(scene.landmarks).query(unwarped)
        gt_depths = np.concatenate(
            [d[d > 0] for d in (render_depth(scene, i) for i in range(10))]
        )
        assert dist.mean() < sigma * gt_depths.mean()
