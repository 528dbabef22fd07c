"""Interchange format oracle tests.

Hand-derived expectations:

* a 2x3 float32 tensor file is 4 (magic) + 2 (version) + 1 (dtype) +
  1 (rank) + 2*4 (dims) + 6*4 (payload) = 40 bytes;
* a cluster's maps.mrgt holds two (F, H, W) float32 tensors: per tensor
  a 20-byte header and 4*F*H*W payload bytes;
* gt/scene.mrgt holds four tensors: headers of 16 + 16 + 12 + 16 = 60
  bytes, then 24 bytes per landmark, 128 per camera, 8 for the image size
  and per camera 4 * ceil(L / 32) bytes of visibility bits for L landmarks;
* tracks.bin holds five tensors: headers of 16 + 12 + 12 + 12 + 16 = 68
  bytes, then per track 24 (point) + 8 (confidence) + 4 (length) and per
  observation 4 (frame) + 16 (pixel);
* write(read(write(x))) is byte-identical for every format.
"""

import json
import re
import struct

import numpy as np
import pytest

from scenemerge.clusters import ClusterReconstruction, load_cluster, write_cluster
from scenemerge.errors import (
    DataCorruptionError,
    DataError,
    SchemaViolationError,
    UnsupportedVersionError,
)
from scenemerge.geometry import (
    CameraIntrinsics,
    CameraParams,
    CameraPose,
    PointCloud,
    Sim3Transform,
    random_rotation,
)
from scenemerge.io_formats import (
    ClusterEntry,
    ImageEntry,
    PoseRecord,
    SceneManifest,
    TransformRecord,
    camera_from_pose_record,
    pose_record_from_camera,
    read_gt_scene,
    read_manifest,
    read_plan,
    read_ply,
    read_poses,
    read_tensor,
    read_tensors,
    read_tracks,
    read_transforms,
    sim3_from_transform_record,
    transform_record_from_sim3,
    write_gt_scene,
    write_manifest,
    write_plan,
    write_ply,
    write_poses,
    write_tensor,
    write_tensors,
    write_tracks,
    write_transforms,
)
from scenemerge.ordering import SceneGraphPlan
from scenemerge.pipeline import matcher_from_scene_dir, synthesize_scene_dir
from scenemerge.synthetic import generate_scene
from scenemerge.tracking import Tracks


class TestTensor:
    def test_frozen_size(self, tmp_path):
        p = tmp_path / "t.mrgt"
        write_tensor(p, np.zeros((2, 3), dtype=np.float32))
        assert p.stat().st_size == 40

    def test_round_trip_values(self, tmp_path):
        rng = np.random.default_rng(0)
        for shape in [(5,), (2, 3), (4, 6, 2), (1, 1, 1, 7)]:
            a = rng.normal(size=shape).astype(np.float32)
            p = tmp_path / "x.mrgt"
            write_tensor(p, a)
            b = read_tensor(p)
            assert b.dtype == np.float32
            np.testing.assert_array_equal(a, b)

    def test_round_trip_bytes(self, tmp_path):
        a = np.random.default_rng(1).normal(size=(3, 7)).astype(np.float32)
        p1, p2 = tmp_path / "a.mrgt", tmp_path / "b.mrgt"
        write_tensor(p1, a)
        write_tensor(p2, read_tensor(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.mrgt"
        write_tensor(p, np.zeros(3, dtype=np.float32))
        raw = bytearray(p.read_bytes())
        raw[:4] = b"XXXX"
        p.write_bytes(bytes(raw))
        with pytest.raises(SchemaViolationError, match="magic"):
            read_tensor(p)

    def test_bad_version(self, tmp_path):
        p = tmp_path / "bad.mrgt"
        write_tensor(p, np.zeros(3, dtype=np.float32))
        raw = bytearray(p.read_bytes())
        raw[4] = 9
        p.write_bytes(bytes(raw))
        with pytest.raises(UnsupportedVersionError, match="version 9"):
            read_tensor(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "bad.mrgt"
        write_tensor(p, np.zeros((2, 3), dtype=np.float32))
        p.write_bytes(p.read_bytes()[:-4])
        with pytest.raises(DataCorruptionError):
            read_tensor(p)

    def test_dimension_payload_mismatch(self, tmp_path):
        p = tmp_path / "bad.mrgt"
        write_tensor(p, np.zeros((2, 3), dtype=np.float32))
        raw = bytearray(p.read_bytes())
        raw[8] = 200  # first dim now 200, payload still 6 floats
        p.write_bytes(bytes(raw))
        with pytest.raises(DataCorruptionError, match="payload"):
            read_tensor(p)

    def test_several_dtypes_round_trip(self, tmp_path):
        arrays = [
            np.arange(6, dtype=np.float32).reshape(2, 3),
            np.array([0.1, -2.5e300]),
            np.array([0, 7, 0xFFFFFFFF], dtype=np.uint32),
        ]
        p = tmp_path / "t.mrgt"
        write_tensors(p, arrays)
        got = read_tensors(p)
        assert [a.dtype.str for a in got] == ["<f4", "<f8", "<u4"]
        for a, b in zip(arrays, got):
            np.testing.assert_array_equal(a, b)
        assert p.stat().st_size == (16 + 24) + (12 + 16) + (12 + 12)

    def test_rejects_unknown_dtype_code(self, tmp_path):
        p = tmp_path / "t.mrgt"
        write_tensors(p, [np.zeros(2, dtype=np.uint32)])
        raw = bytearray(p.read_bytes())
        raw[6] = 4
        p.write_bytes(bytes(raw))
        with pytest.raises(SchemaViolationError, match=re.escape(f"{p}: unknown dtype code 4 at offset 6")):
            read_tensors(p)
        with pytest.raises(SchemaViolationError, match=re.escape("cannot store <i8 array of shape (2,) as a tensor")):
            write_tensors(p, [np.zeros(2, dtype=np.int64)])

    def test_trailing_bytes(self, tmp_path):
        p = tmp_path / "t.mrgt"
        write_tensor(p, np.zeros(3, dtype=np.float32))
        for tail in (b"xx", b"not a tensor header"):
            p.write_bytes(p.read_bytes()[:24] + tail)
            with pytest.raises(DataCorruptionError, match=re.escape(f"{p}: {len(tail)} trailing bytes after tensor 0")):
                read_tensor(p)

    @pytest.mark.parametrize(
        "write, found",
        [
            (lambda p: write_tensors(p, [np.zeros((2, 2))]), "float64 (2, 2)"),
            (lambda p: write_tensors(p, [np.zeros(2, dtype=np.float32)] * 2), "float32 (2,), float32 (2,)"),
            (
                lambda p: write_tracks(p, Tracks([[0.0, 1.0, 2.0]], [1.0], [2], [0, 1], [[0.5, 0.5], [1.5, 1.5]])),
                "float64 (1, 3), float64 (1,), uint32 (1,), uint32 (2,), float64 (2, 2)",
            ),
        ],
        ids=["float64", "two-tensors", "tracks-file"],
    )
    def test_read_tensor_needs_one_float32_tensor(self, tmp_path, write, found):
        """A file of other tensors, such as a tracks.bin, fails at the read
        of a depth, confidence or similarity tensor, naming the file."""
        p = tmp_path / "t.mrgt"
        write(p)
        with pytest.raises(SchemaViolationError, match=re.escape(f"{p}: expected one float32 tensor, found {found}")):
            read_tensor(p)

    def test_maps_read_holds_the_file_once(self, tmp_path, traced_peak):
        """A cluster maps file of 2.4 MB reads in under 1.3x its size
        (tracemalloc): the tensors are writable views of the one buffer the
        file is read into. Copying each out of the file's bytes peaked at
        twice the file."""
        rng = np.random.default_rng(3)
        maps = [rng.random((100, 48, 64), dtype=np.float32) for _ in range(2)]
        p = tmp_path / "maps.mrgt"
        write_tensors(p, maps)
        size = p.stat().st_size
        got, peak = traced_peak(lambda: read_tensors(p, "maps"))
        assert peak < 1.3 * size, f"peak {peak / size:.2f}x the file"
        for want, tensor in zip(maps, got, strict=True):
            assert tensor.flags.writeable and tensor.tobytes() == want.tobytes()
        got[0][0, 0, 0] = -1.0
        assert got[1][0, 0, 0] == maps[1][0, 0, 0]

    def test_misaligned_payload_is_copied(self, tmp_path):
        """A float64 tensor after a rank-1 header starts 12 bytes into the
        file, off its 8-byte alignment; it comes back as an aligned copy
        with the same values."""
        p = tmp_path / "t.mrgt"
        values = np.array([0.1, -2.5e300, 7.0])
        write_tensors(p, [values])
        (got,) = read_tensors(p)
        assert got.flags.aligned and got.flags.writeable and got.base is None
        assert got.tobytes() == values.tobytes()


class TestManifest:
    def _manifest(self):
        return SceneManifest(
            images=[ImageEntry(frame_id=i, width=64, height=48) for i in range(4)],
            clusters=[
                ClusterEntry(
                    cluster_id=0,
                    frame_ids=[0, 1, 2],
                    poses_path="clusters/000/poses.json",
                    maps_path="clusters/000/maps.mrgt",
                )
            ],
            similarity_path="similarity.mrgt",
        )

    def test_round_trip(self, tmp_path):
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        write_manifest(p1, self._manifest())
        write_manifest(p2, read_manifest(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_duplicate_frame_ids(self):
        with pytest.raises(SchemaViolationError, match="duplicate"):
            SceneManifest(images=[ImageEntry(0, 64, 48), ImageEntry(0, 64, 48)])

    def test_rejects_unknown_cluster_frames(self):
        with pytest.raises(SchemaViolationError, match="absent"):
            SceneManifest(
                images=[ImageEntry(0, 64, 48)],
                clusters=[
                    ClusterEntry(
                        cluster_id=0,
                        frame_ids=[0, 5],
                        poses_path="p.json",
                        maps_path="m.mrgt",
                    )
                ],
            )

    def test_rejects_wrong_convention(self):
        with pytest.raises(SchemaViolationError, match="pose_convention"):
            SceneManifest(images=[], pose_convention="world_from_camera")

    def test_cluster_entry_rejects_repeated_or_no_frames(self):
        with pytest.raises(SchemaViolationError, match=re.escape("cluster 3 repeats frame_ids [1]")):
            ClusterEntry(3, [0, 1, 2, 1], "p.json", "m.mrgt")
        with pytest.raises(SchemaViolationError, match="cluster 3 lists no frames"):
            ClusterEntry(3, [], "p.json", "m.mrgt")

    def test_rejects_cluster_of_two_image_sizes(self, tmp_path):
        """A cluster's maps are one (F, H, W) stack, so its frames share one
        size; the manifest reader names the file, the cluster and the frame."""
        p = tmp_path / "m.json"
        write_manifest(p, self._manifest())
        doc = json.loads(p.read_text())
        doc["images"][2]["width"] = 32
        p.write_text(json.dumps(doc))
        message = f"{p}: cluster 0 frame 2: image size differs from frame 0's"
        with pytest.raises(SchemaViolationError, match=re.escape(message)):
            read_manifest(p)

    def test_optional_fields_may_be_absent(self, tmp_path):
        """image_path, similarity_path and units may be left out; every
        other field is required."""
        p = tmp_path / "m.json"
        write_manifest(p, self._manifest())
        doc = json.loads(p.read_text())
        del doc["similarity_path"], doc["units"]
        for im in doc["images"]:
            del im["image_path"]
        p.write_text(json.dumps(doc))
        got = read_manifest(p)
        assert got.similarity_path is None and got.units == "arbitrary"
        assert [im.image_path for im in got.images] == [None] * 4
        for key, field in [("images", "width"), ("clusters", "poses_path")]:
            bad = json.loads(json.dumps(doc))
            del bad[key][0][field]
            p.write_text(json.dumps(bad))
            with pytest.raises(SchemaViolationError, match=re.escape(f"{p}: {key}[0]: missing field {field!r}")):
                read_manifest(p)

    def test_repeated_image_frame_id_names_entry(self, tmp_path):
        p = tmp_path / "m.json"
        write_manifest(p, self._manifest())
        doc = json.loads(p.read_text())
        doc["images"][2]["frame_id"] = 0
        p.write_text(json.dumps(doc))
        with pytest.raises(SchemaViolationError, match=re.escape(f"{p}: images[2]: repeats frame_id 0")):
            read_manifest(p)


class TestPoses:
    def _cameras(self, n=3):
        rng = np.random.default_rng(2)
        cams = []
        for i in range(n):
            cams.append(
                CameraParams(
                    intrinsics=CameraIntrinsics(300.0, 310.0, 32.0, 24.0, 64, 48),
                    pose=CameraPose(rotation=random_rotation(rng), translation=rng.normal(size=3)),
                    frame_id=i,
                )
            )
        return cams

    def test_round_trip_bytes(self, tmp_path):
        recs = [pose_record_from_camera(c) for c in self._cameras()]
        p1, p2 = tmp_path / "p1.json", tmp_path / "p2.json"
        write_poses(p1, recs)
        write_poses(p2, read_poses(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_camera_reconstruction(self, tmp_path):
        cams = self._cameras()
        p = tmp_path / "p.json"
        write_poses(p, [pose_record_from_camera(c) for c in cams])
        for rec, cam in zip(read_poses(p), cams):
            back = camera_from_pose_record(rec, 64, 48)
            assert back.frame_id == cam.frame_id
            np.testing.assert_allclose(back.pose.rotation, cam.pose.rotation, atol=1e-12)
            np.testing.assert_allclose(back.pose.translation, cam.pose.translation, atol=1e-12)
            assert back.intrinsics == cam.intrinsics

    def test_rejects_denormalized_quaternion(self, tmp_path):
        p = tmp_path / "p.json"
        rec = pose_record_from_camera(self._cameras(1)[0])
        bad = type(rec)(
            frame_id=0,
            quat_wxyz=rec.quat_wxyz * 1.01,  # norm off by 1e-2 > 1e-3 tolerance
            translation=rec.translation,
            fx=rec.fx, fy=rec.fy, cx=rec.cx, cy=rec.cy,
        )
        write_poses(p, [bad])
        with pytest.raises(SchemaViolationError, match=re.escape(f"{p}: poses[0]: field 'quat_wxyz' norm 1.010000 ")):
            read_poses(p)

    def test_renormalizes_slightly_off_quaternion(self, tmp_path):
        p = tmp_path / "p.json"
        rec = pose_record_from_camera(self._cameras(1)[0])
        nudged = type(rec)(
            frame_id=0,
            quat_wxyz=rec.quat_wxyz * (1.0 + 5e-4),
            translation=rec.translation,
            fx=rec.fx, fy=rec.fy, cx=rec.cx, cy=rec.cy,
        )
        write_poses(p, [nudged])
        (got,) = read_poses(p)
        assert abs(np.linalg.norm(got.quat_wxyz) - 1.0) < 1e-12

    def test_rejects_repeated_frame_id(self, tmp_path):
        p = tmp_path / "p.json"
        recs = [pose_record_from_camera(c) for c in self._cameras()]
        write_poses(p, recs + recs[1:2])
        with pytest.raises(SchemaViolationError, match=re.escape(f"{p}: poses[3]: repeats frame_id 1")):
            read_poses(p)


class TestTransforms:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        ts = [
            (k, Sim3Transform(float(rng.uniform(0.5, 2)), random_rotation(rng), rng.normal(size=3)))
            for k in range(4)
        ]
        recs = [transform_record_from_sim3(k, t) for k, t in ts]
        p1, p2 = tmp_path / "t1.json", tmp_path / "t2.json"
        write_transforms(p1, recs)
        write_transforms(p2, read_transforms(p1))
        assert p1.read_bytes() == p2.read_bytes()
        for (ka, ta), rb in zip(ts, read_transforms(p1)):
            tb = sim3_from_transform_record(rb)
            assert ka == rb.cluster_id
            assert abs(ta.scale - tb.scale) < 1e-12
            np.testing.assert_allclose(ta.rotation, tb.rotation, atol=1e-12)
            np.testing.assert_allclose(ta.translation, tb.translation, atol=1e-12)

    def test_rejects_repeated_cluster_id(self, tmp_path):
        p = tmp_path / "t.json"
        recs = [transform_record_from_sim3(k, Sim3Transform.identity()) for k in (0, 1, 0)]
        write_transforms(p, recs)
        with pytest.raises(SchemaViolationError, match=re.escape(f"{p}: clusters[2]: repeats cluster_id 0")):
            read_transforms(p)


class TestRandomizedRoundTrips:
    """Spec example: randomized content, 1000 cases, byte-identical cycles."""

    def test_thousand_cases(self, tmp_path):
        rng = np.random.default_rng(2024)
        checked = 0
        for case in range(200):
            # tensor
            rank = int(rng.integers(1, 5))
            shape = tuple(int(d) for d in rng.integers(1, 6, size=rank))
            a = rng.normal(size=shape).astype(np.float32)
            p1, p2 = tmp_path / "a.mrgt", tmp_path / "b.mrgt"
            write_tensor(p1, a)
            write_tensor(p2, read_tensor(p1))
            assert p1.read_bytes() == p2.read_bytes()
            # poses
            cam = CameraParams(
                intrinsics=CameraIntrinsics(
                    float(rng.uniform(50, 500)), float(rng.uniform(50, 500)),
                    float(rng.uniform(10, 50)), float(rng.uniform(10, 40)), 64, 48,
                ),
                pose=CameraPose(rotation=random_rotation(rng), translation=rng.normal(size=3)),
                frame_id=case,
            )
            p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
            write_poses(p1, [pose_record_from_camera(cam)])
            write_poses(p2, read_poses(p1))
            assert p1.read_bytes() == p2.read_bytes()
            # transforms
            rec = transform_record_from_sim3(
                case,
                Sim3Transform(float(rng.uniform(0.1, 10)), random_rotation(rng), rng.normal(size=3)),
            )
            write_transforms(p1, [rec])
            write_transforms(p2, read_transforms(p1))
            assert p1.read_bytes() == p2.read_bytes()
            # tracks
            n_obs = int(rng.integers(2, 5))
            tr = Tracks(
                points=rng.normal(size=(1, 3)),
                confidences=[float(rng.uniform(0, 1))],
                lengths=[n_obs],
                frames=rng.choice(99, size=n_obs, replace=False),
                pixels=rng.uniform(0, 640, size=(n_obs, 2)),
            )
            p1, p2 = tmp_path / "a.trk", tmp_path / "b.trk"
            write_tracks(p1, tr)
            write_tracks(p2, read_tracks(p1))
            assert p1.read_bytes() == p2.read_bytes()
            # ply
            cloud = PointCloud(
                points=rng.normal(size=(int(rng.integers(1, 20)), 3)).astype(np.float32).astype(np.float64)
            )
            p1, p2 = tmp_path / "a.ply", tmp_path / "b.ply"
            write_ply(p1, cloud)
            write_ply(p2, read_ply(p1))
            assert p1.read_bytes() == p2.read_bytes()
            checked += 5
        assert checked == 1000


class TestTracks:
    def _records(self):
        rng = np.random.default_rng(4)
        out = []
        for _ in range(5):
            n_obs = int(rng.integers(2, 6))
            frames = rng.choice(50, size=n_obs, replace=False)
            obs = [(int(f), tuple(rng.uniform(0, 640, size=2))) for f in frames]
            out.append((tuple(rng.normal(size=3)), float(rng.uniform(0, 1)), obs))
        return out

    def _tracks(self):
        records = self._records()
        return Tracks(
            points=[p for p, _, _ in records],
            confidences=[c for _, c, _ in records],
            lengths=[len(obs) for _, _, obs in records],
            frames=[f for _, _, obs in records for f, _ in obs],
            pixels=[uv for _, _, obs in records for _, uv in obs],
        )

    def test_frozen_size(self, tmp_path):
        t = Tracks(points=np.zeros((1, 3)), confidences=[1.0], lengths=[2], frames=[0, 1], pixels=[[0, 0], [1, 1]])
        p = tmp_path / "t.trk"
        write_tracks(p, t)
        assert p.stat().st_size == 68 + 36 + 2 * 20

    def test_empty_file_round_trip(self, tmp_path):
        p = tmp_path / "t.trk"
        write_tracks(p, Tracks([], [], [], [], []))
        headers = [(2, [0, 3]), (2, [0]), (3, [0]), (3, [0]), (2, [0, 2])]
        assert p.read_bytes() == b"".join(
            b"MRGT" + struct.pack(f"<HBB{len(dims)}I", 1, code, len(dims), *dims) for code, dims in headers
        )
        assert len(read_tracks(p)) == 0

    def test_round_trip_exact(self, tmp_path):
        tracks = self._tracks()
        p1, p2 = tmp_path / "a.trk", tmp_path / "b.trk"
        write_tracks(p1, tracks)
        got = read_tracks(p1)
        write_tracks(p2, got)
        assert p1.read_bytes() == p2.read_bytes()
        for name in ("points", "confidences", "lengths", "frames", "pixels"):
            np.testing.assert_array_equal(getattr(got, name), getattr(tracks, name))  # f64 exact
        for i, ((point, confidence, obs), rows) in enumerate(zip(self._records(), got)):
            assert tuple(got.points[i]) == point and got.confidences[i] == confidence
            assert [(int(f), tuple(uv)) for f, uv in zip(got.frames[rows], got.pixels[rows])] == obs

    def test_truncation_detected(self, tmp_path):
        p = tmp_path / "t.trk"
        write_tracks(p, self._tracks())
        full = p.read_bytes()
        for cut in (7, len(full) - 70, len(full) - 3):
            p.write_bytes(full[:-cut])
            with pytest.raises(DataCorruptionError, match=re.escape(f"{p}: ")):
                read_tracks(p)

    def test_trailing_garbage_detected(self, tmp_path):
        p = tmp_path / "t.trk"
        write_tracks(p, self._tracks())
        p.write_bytes(p.read_bytes() + b"xx")
        with pytest.raises(DataCorruptionError, match=re.escape(f"{p}: 2 trailing bytes after tensor 4")):
            read_tracks(p)

    @pytest.mark.parametrize(
        "column, value, message",
        [
            (
                0,
                np.zeros((5, 3), dtype=np.float32),
                "track column points is float32 (5, 3), needs float64 rows of shape (3,)",
            ),
            (1, np.zeros((5, 1)), "track column confidences is float64 (5, 1), needs float64 rows of shape ()"),
            (3, np.zeros(17), "track column frames is float64 (17,), needs uint32 rows of shape ()"),
            (4, np.zeros((17, 3)), "track column pixels is float64 (17, 3), needs float64 rows of shape (2,)"),
        ],
        ids=["points-float32", "confidences-2d", "frames-float64", "pixels-3-wide"],
    )
    def test_rejects_bad_column(self, tmp_path, column, value, message):
        """A column of another dtype or row shape fails where it is read,
        naming the file and the column."""
        tracks = self._tracks()
        columns = [tracks.points, tracks.confidences, tracks.lengths.astype(np.uint32),
                   tracks.frames.astype(np.uint32), tracks.pixels]
        columns[column] = value
        p = tmp_path / "t.trk"
        write_tensors(p, columns)
        with pytest.raises(SchemaViolationError, match=re.escape(f"{p}: {message}")):
            read_tracks(p)

    def test_rejects_depth_tensor(self, tmp_path):
        p = tmp_path / "depth.mrgt"
        write_tensor(p, np.ones((4, 6), dtype=np.float32))
        with pytest.raises(SchemaViolationError, match=re.escape(f"{p}: a track file holds 5 tensors, found 1")):
            read_tracks(p)


class TestGtScene:
    def test_round_trip_exact(self, tmp_path):
        """read_gt_scene gives back every bit of the scene, and rewriting it
        gives back every byte of the file."""
        scene = generate_scene(3, n_cameras=6, n_landmarks=700, layout="object", image_size=(40, 30))
        p1, p2 = tmp_path / "a.mrgt", tmp_path / "b.mrgt"
        write_gt_scene(p1, scene)
        assert p1.stat().st_size == 60 + 24 * 700 + 128 * 6 + 8 + 6 * 4 * 22
        got = read_gt_scene(p1, 3, "object", 6, 700)
        write_gt_scene(p2, got)
        assert p1.read_bytes() == p2.read_bytes()
        assert (got.seed, got.layout, got.image_size) == (3, "object", (40, 30))
        assert got.landmarks.tobytes() == scene.landmarks.tobytes()
        assert np.array_equal(got.visibility, scene.visibility)
        for mine, theirs in zip(got.gt_cameras, scene.gt_cameras, strict=True):
            assert mine.frame_id == theirs.frame_id
            assert mine.intrinsics == theirs.intrinsics
            assert mine.pose.rotation.tobytes() == theirs.pose.rotation.tobytes()
            assert mine.pose.translation.tobytes() == theirs.pose.translation.tobytes()

    def test_rejects_counts_other_than_the_record(self, tmp_path):
        p = tmp_path / "s.mrgt"
        write_gt_scene(p, generate_scene(0, n_cameras=4, n_landmarks=500))
        with pytest.raises(SchemaViolationError, match=re.escape(f"{p}: tensor landmarks is float64 (500, 3)")):
            read_gt_scene(p, 0, "room", 4, 501)
        with pytest.raises(SchemaViolationError, match=re.escape(f"{p}: tensor cameras is float64 (4, 16)")):
            read_gt_scene(p, 0, "room", 5, 500)

    def test_rejects_rotation_that_is_not_one(self, tmp_path):
        p = tmp_path / "s.mrgt"
        write_gt_scene(p, generate_scene(0, n_cameras=4, n_landmarks=500))
        tensors = read_tensors(p)
        tensors[1][3, 0] += 0.5
        write_tensors(p, tensors)
        with pytest.raises(DataCorruptionError, match=re.escape(f"{p}: camera 3: rotation is not orthonormal")):
            read_gt_scene(p, 0, "room", 4, 500)


class TestPly:
    def test_round_trip_plain(self, tmp_path):
        pts = np.random.default_rng(5).normal(size=(20, 3)).astype(np.float32).astype(np.float64)
        p1, p2 = tmp_path / "a.ply", tmp_path / "b.ply"
        write_ply(p1, PointCloud(points=pts))
        cloud = read_ply(p1)
        np.testing.assert_array_equal(cloud.points, pts)  # float32 grid, exact
        write_ply(p2, cloud)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_quality_reads_past_colors(self, tmp_path):
        """quality round-trips exactly; a file's red/green/blue properties
        are read past."""
        rng = np.random.default_rng(6)
        cloud = PointCloud(
            points=rng.normal(size=(10, 3)).astype(np.float32).astype(np.float64),
            confidences=rng.uniform(0, 1, size=10).astype(np.float32).astype(np.float64),
        )
        p1, p2, p3 = tmp_path / "a.ply", tmp_path / "b.ply", tmp_path / "c.ply"
        write_ply(p1, cloud)
        got = read_ply(p1)
        np.testing.assert_array_equal(got.points, cloud.points)
        np.testing.assert_array_equal(got.confidences, cloud.confidences)
        write_ply(p2, got)
        assert p1.read_bytes() == p2.read_bytes()

        rec = np.zeros(10, dtype=[(c, "<f4") for c in "xyz"] + [(c, "u1") for c in ("red", "green", "blue")]
                       + [("quality", "<f4")])
        rec["x"], rec["y"], rec["z"] = cloud.points.T
        rec["red"], rec["quality"] = 255, cloud.confidences
        p3.write_bytes(
            b"ply\nformat binary_little_endian 1.0\nelement vertex 10\n"
            b"property float x\nproperty float y\nproperty float z\n"
            b"property uchar red\nproperty uchar green\nproperty uchar blue\nproperty float quality\nend_header\n"
            + rec.tobytes()
        )
        colored = read_ply(p3)
        np.testing.assert_array_equal(colored.points, cloud.points)
        np.testing.assert_array_equal(colored.confidences, cloud.confidences)

    def test_rejects_ascii(self, tmp_path):
        p = tmp_path / "a.ply"
        p.write_bytes(b"ply\nformat ascii 1.0\nelement vertex 0\nend_header\n")
        with pytest.raises(SchemaViolationError, match="binary_little_endian"):
            read_ply(p)

    def test_rejects_missing_axis(self, tmp_path):
        p = tmp_path / "a.ply"
        p.write_bytes(
            b"ply\nformat binary_little_endian 1.0\nelement vertex 1\n"
            b"property float x\nproperty float y\nend_header\n" + b"\x00" * 8
        )
        with pytest.raises(SchemaViolationError, match="'z'"):
            read_ply(p)

    @pytest.mark.parametrize(
        "at, replaced, line",
        [
            (1, 1, "element vertex abc"),
            (1, 1, "element vertex -1"),
            (0, 1, "format"),
            (1, 1, "element vertex"),
            (5, 0, "property float"),
            (5, 0, "property float x"),
        ],
        ids=["count-not-integer", "count-negative", "bare-format", "bare-element", "bare-property", "repeated-name"],
    )
    def test_malformed_header_line(self, tmp_path, at, replaced, line):
        """A header line read_ply cannot use is a SchemaViolationError naming
        the file and the line, never an IndexError, a ValueError or a cloud
        read from stray bytes."""
        lines = ["format binary_little_endian 1.0", "element vertex 1", *(f"property float {c}" for c in "xyz")]
        lines[at : at + replaced] = [line]
        p = tmp_path / "a.ply"
        p.write_bytes("\n".join(["ply", *lines, "end_header", ""]).encode() + bytes(16))
        with pytest.raises(SchemaViolationError, match=re.escape(f"{p}: malformed PLY header line {at + 2}: {line!r}")):
            read_ply(p)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_rejects_non_finite_vertex(self, tmp_path, bad):
        """A NaN or infinite coordinate is a DataCorruptionError naming the
        file and the first bad vertex, not a cloud that fails later inside
        a KD-tree."""
        pts = np.arange(12, dtype="<f4").reshape(4, 3)
        pts[2, 1] = pts[3, 0] = bad
        p = tmp_path / "a.ply"
        header = "\n".join(["ply", "format binary_little_endian 1.0", "element vertex 4",
                            *(f"property float {c}" for c in "xyz"), "end_header", ""])
        p.write_bytes(header.encode() + pts.tobytes())
        with pytest.raises(DataCorruptionError, match=re.escape(f"{p}: PLY vertex 2 is not finite")):
            read_ply(p)

    def test_rejects_element_before_vertex(self, tmp_path):
        """A PLY whose vertex element is not first is a SchemaViolationError
        naming the file and the element in front, not vertices read from
        the start of the body, where the other element's records are. An
        empty element in front holds no bytes and is read past."""
        face = [b"element face 1", b"property list uchar int vertex_indices"]
        vertex = [b"element vertex 2", *(f"property float {c}".encode() for c in "xyz")]
        pts = np.array([[1, 2, 3], [4, 5, 6]], dtype="<f4")
        faces = np.array([3], dtype="u1").tobytes() + np.array([0, 1, 0], dtype="<i4").tobytes()
        p = tmp_path / "a.ply"
        header = [b"ply", b"format binary_little_endian 1.0", *face, *vertex, b"end_header", b""]
        p.write_bytes(b"\n".join(header) + faces + pts.tobytes())
        with pytest.raises(SchemaViolationError, match=re.escape(f"{p}: PLY element 'face' with 1 records precedes")):
            read_ply(p)
        header = [b"ply", b"format binary_little_endian 1.0", b"element face 0", *face[1:], *vertex, *face, b"end_header", b""]
        p.write_bytes(b"\n".join(header) + pts.tobytes() + faces)
        np.testing.assert_array_equal(read_ply(p).points, pts)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "a.ply"
        write_ply(p, PointCloud(points=np.zeros((4, 3))))
        p.write_bytes(p.read_bytes()[:-5])
        with pytest.raises(DataCorruptionError, match="truncated"):
            read_ply(p)


_H = 0.5**0.5

# The exact text the writers produce for these records, pinned so a change
# to the writers shows up here and not only as a self-consistent round trip.
POSES_TEXT = """{
  "format_version": 1,
  "poses": [
    {
      "frame_id": 7,
      "quat_wxyz": [
        0.7071067811865476,
        0.0,
        0.0,
        0.7071067811865476
      ],
      "translation": [
        0.25,
        -1.0,
        3.0
      ],
      "fx": 300.0,
      "fy": 310.5,
      "cx": 32.0,
      "cy": 24.0
    }
  ]
}
"""

TRANSFORMS_TEXT = """{
  "format_version": 1,
  "clusters": [
    {
      "cluster_id": 2,
      "scale": 0.5,
      "quat_wxyz": [
        0.7071067811865476,
        0.0,
        -0.7071067811865476,
        0.0
      ],
      "translation": [
        1.5,
        0.0,
        -2.0
      ]
    }
  ]
}
"""

MANIFEST_TEXT = """{
  "format_version": 1,
  "pose_convention": "camera_from_world",
  "units": "arbitrary",
  "similarity_path": "similarity.mrgt",
  "images": [
    {
      "frame_id": 0,
      "width": 64,
      "height": 48,
      "image_path": null
    },
    {
      "frame_id": 1,
      "width": 64,
      "height": 48,
      "image_path": "images/1.png"
    }
  ],
  "clusters": [
    {
      "cluster_id": 0,
      "frame_ids": [
        0,
        1
      ],
      "poses_path": "clusters/000/poses.json",
      "maps_path": "clusters/000/maps.mrgt"
    }
  ]
}
"""

PLAN_TEXT = """{
  "format_version": 1,
  "subset_size": 3,
  "overlap": 1,
  "n_subsequences": 2,
  "pseudo_order": [
    2,
    0,
    1,
    3
  ],
  "interleaved_order": [
    2,
    1,
    0,
    3
  ],
  "subsets": [
    [
      2,
      1,
      0
    ],
    [
      0,
      3
    ]
  ]
}
"""

SYNTH_TEXT = """{
  "format_version": 1,
  "seed": 5,
  "n_cameras": 8,
  "n_landmarks": 400,
  "layout": "room",
  "subset_size": 5,
  "overlap": 2,
  "n_subsequences": null,
  "perturb": {
    "per_cluster_sim3_noise": [
      0.3,
      30.0,
      1.0
    ],
    "depth_noise_sigma": 0.01,
    "confidence_model": "inverse_error",
    "match_pixel_noise_sigma": 0.5,
    "outlier_match_fraction": 0.05
  }
}
"""

# A cluster of frames 4 and 9, 3 pixels wide and 2 high, as maps.mrgt: the
# (2, 2, 3) float32 depth stack, then the confidence stack, each a tensor
# header (magic, version 1, dtype code 1, rank 3, dims) and its payload.
MAP_DEPTHS = [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 0.0, 4.0, 4.25, 4.5, 4.75, 5.0]
MAP_CONFIDENCES = [0.5, 0.25, 1.0, 0.0, 2.0, 0.125, 0.0, 1.0, 1.0, 0.5, 0.5, 0.75]
MAPS_BYTES = b"".join(
    [
        b"MRGT", struct.pack("<HBB3I", 1, 1, 3, 2, 2, 3), struct.pack("<12f", *MAP_DEPTHS),
        b"MRGT", struct.pack("<HBB3I", 1, 1, 3, 2, 2, 3), struct.pack("<12f", *MAP_CONFIDENCES),
    ]
)

# One track of two observations as tracks.bin: five tensor headers (magic,
# version 1, dtype code, rank, dims), each followed by its payload.
TRACKS_BYTES = b"".join(
    [
        b"MRGT", struct.pack("<HBB2I", 1, 2, 2, 1, 3), struct.pack("<3d", 0.5, -1.0, 2.25),
        b"MRGT", struct.pack("<HBBI", 1, 2, 1, 1), struct.pack("<d", 0.75),
        b"MRGT", struct.pack("<HBBI", 1, 3, 1, 1), struct.pack("<I", 2),
        b"MRGT", struct.pack("<HBBI", 1, 3, 1, 2), struct.pack("<2I", 4, 9),
        b"MRGT", struct.pack("<HBB2I", 1, 2, 2, 2, 2), struct.pack("<4d", 10.5, 20.25, 31.0, 0.125),
    ]
)


class TestPinnedText:
    """Writers produce exactly these texts, and readers take them back."""

    def test_poses(self, tmp_path):
        p = tmp_path / "p.json"
        rec = PoseRecord(7, np.array([_H, 0.0, 0.0, _H]), np.array([0.25, -1.0, 3.0]), 300.0, 310.5, 32.0, 24.0)
        write_poses(p, [rec])
        assert p.read_text() == POSES_TEXT
        (got,) = read_poses(p)
        assert got.frame_id == 7 and (got.fx, got.fy, got.cx, got.cy) == (300.0, 310.5, 32.0, 24.0)
        assert got.quat_wxyz.tolist() == rec.quat_wxyz.tolist()
        assert got.translation.tolist() == rec.translation.tolist()

    def test_transforms(self, tmp_path):
        p = tmp_path / "t.json"
        write_transforms(p, [TransformRecord(2, 0.5, np.array([_H, 0.0, -_H, 0.0]), np.array([1.5, 0.0, -2.0]))])
        assert p.read_text() == TRANSFORMS_TEXT
        (got,) = read_transforms(p)
        assert (got.cluster_id, got.scale) == (2, 0.5)
        assert got.quat_wxyz.tolist() == [_H, 0.0, -_H, 0.0]
        assert got.translation.tolist() == [1.5, 0.0, -2.0]

    def test_manifest(self, tmp_path):
        p = tmp_path / "m.json"
        manifest = SceneManifest(
            images=[ImageEntry(0, 64, 48), ImageEntry(1, 64, 48, "images/1.png")],
            clusters=[ClusterEntry(0, [0, 1], "clusters/000/poses.json", "clusters/000/maps.mrgt")],
            similarity_path="similarity.mrgt",
        )
        write_manifest(p, manifest)
        assert p.read_text() == MANIFEST_TEXT
        assert read_manifest(p) == manifest

    def test_plan(self, tmp_path):
        p = tmp_path / "plan.json"
        write_plan(p, SceneGraphPlan(3, 1, 2, [2, 0, 1, 3], [2, 1, 0, 3], [[2, 1, 0], [0, 3]]))
        assert p.read_text() == PLAN_TEXT
        got = read_plan(p)
        assert (got.subset_size, got.overlap, got.n_subsequences) == (3, 1, 2)
        assert got.pseudo_order.tolist() == [2, 0, 1, 3] and got.interleaved_order.tolist() == [2, 1, 0, 3]
        assert [s.tolist() for s in got.subsets] == [[2, 1, 0], [0, 3]]

    def test_synth_record(self, tmp_path):
        synthesize_scene_dir(tmp_path, seed=5, n_cameras=8, n_landmarks=400, subset_size=5, overlap=2)
        assert (tmp_path / "gt" / "synth.json").read_text() == SYNTH_TEXT
        matcher_from_scene_dir(tmp_path)

    def test_cluster_maps(self, tmp_path):
        """write_cluster writes a cluster's maps as MAPS_BYTES, and
        load_cluster reads the two stacks back."""
        intrinsics = CameraIntrinsics(fx=2.0, fy=2.0, cx=1.0, cy=0.5, width=3, height=2)
        cameras = [CameraParams(intrinsics, CameraPose(np.eye(3), np.zeros(3)), frame_id=f) for f in (4, 9)]
        depths = np.reshape(MAP_DEPTHS, (2, 2, 3))
        confidences = np.reshape(MAP_CONFIDENCES, (2, 2, 3))
        entry = write_cluster(tmp_path, ClusterReconstruction(5, [4, 9], cameras, depths, confidences))
        assert entry == ClusterEntry(5, [4, 9], "clusters/005/poses.json", "clusters/005/maps.mrgt")
        assert (tmp_path / entry.maps_path).read_bytes() == MAPS_BYTES
        got = load_cluster(tmp_path, entry, {4: (3, 2), 9: (3, 2)})
        assert got.depths.tolist() == depths.tolist() and got.confidences.tolist() == confidences.tolist()

    def test_tracks(self, tmp_path):
        """The writer produces tracks.bin byte for byte, and the reader inverts it."""
        p = tmp_path / "tracks.bin"
        write_tracks(p, Tracks([[0.5, -1.0, 2.25]], [0.75], [2], [4, 9], [[10.5, 20.25], [31.0, 0.125]]))
        assert p.read_bytes() == TRACKS_BYTES
        got = read_tracks(p)
        assert got.points.tolist() == [[0.5, -1.0, 2.25]] and got.confidences.tolist() == [0.75]
        assert got.lengths.tolist() == [2] and got.frames.tolist() == [4, 9]
        assert got.pixels.tolist() == [[10.5, 20.25], [31.0, 0.125]]


class TestMissingFiles:
    """Every reader maps a missing path to the data-error subtree, so the
    CLI can report exit code 3 instead of leaking FileNotFoundError."""

    def test_all_readers(self, tmp_path):
        cases = [
            (read_tensor, "t.mrgt"),
            (read_tracks, "t.bin"),
            (read_ply, "c.ply"),
            (read_poses, "p.json"),
            (read_transforms, "t.json"),
            (read_plan, "plan.json"),
            (read_manifest, "manifest.json"),
        ]
        for reader, name in cases:
            with pytest.raises(DataError, match="not found"):
                reader(tmp_path / name)


@pytest.mark.parametrize(
    "reader, kind",
    [
        (read_tensor, "tensor"),
        (read_tracks, "tracks"),
        (read_ply, "PLY"),
        (read_poses, "poses"),
        (read_transforms, "transforms"),
        (read_plan, "plan"),
        (read_manifest, "manifest"),
    ],
)
class TestUnreadableFiles:
    """A path that cannot be read, or JSON that is not UTF-8, is a DataError
    naming the file, which the CLI reports with exit code 3."""

    def test_directory(self, tmp_path, reader, kind):
        with pytest.raises(DataError, match=re.escape(f"{tmp_path}: cannot read {kind} file: Is a directory")):
            reader(tmp_path)

    def test_bytes_that_are_not_utf8(self, tmp_path, reader, kind):
        p = tmp_path / "bad"
        p.write_bytes(b'{"format_version": 1, "x": "\xff\xfe"}')
        with pytest.raises(DataError, match=re.escape(f"{p}: ")):
            reader(p)
        if kind not in ("tensor", "tracks", "PLY"):
            with pytest.raises(DataCorruptionError, match=re.escape(f"{p}: {kind} file is not UTF-8 text")):
                reader(p)
