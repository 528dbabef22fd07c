"""Per-subset reconstruction model: cameras + dense depth/confidence maps.

A cluster is one subset's reconstruction in its own (arbitrary, scaled)
frame, as a foundation model or the synthetic oracle would produce it.
Depth values <= 0 mark invalid pixels; confidences are raw nonnegative
scores with no cross-model calibration (percentile filtering downstream
makes the scale irrelevant). Integer pixel coordinates sit at pixel
centers, so unprojecting pixel (u, v) at its stored depth and projecting
it back is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DataCorruptionError,
    MissingFrameError,
    SchemaViolationError,
)
from .geometry import CameraParams
from .io_formats import (
    ClusterEntry,
    camera_from_pose_record,
    pose_record_from_camera,
    read_manifest,
    read_poses,
    read_tensor,
    write_poses,
    write_tensor,
)


@dataclass(frozen=True)
class DepthMap:
    """Row-major (height, width) depth grid; 0 or negative marks invalid."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float32)
        if v.ndim != 2:
            raise SchemaViolationError(f"depth map must be 2-D, got shape {v.shape}")
        object.__setattr__(self, "values", v)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class ConfidenceMap:
    """Row-major (height, width) nonnegative confidence grid."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float32)
        if v.ndim != 2:
            raise SchemaViolationError(f"confidence map must be 2-D, got shape {v.shape}")
        if np.any(v < 0):
            raise SchemaViolationError("confidence map contains negative values")
        object.__setattr__(self, "values", v)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class ClusterReconstruction:
    """One subset's reconstruction in its own arbitrary Sim(3) gauge."""

    cluster_id: int
    frame_ids: list[int]
    cameras: list[CameraParams]
    depths: list[DepthMap]
    confidences: list[ConfidenceMap]

    def __post_init__(self):
        n = len(self.frame_ids)
        if not (len(self.cameras) == len(self.depths) == len(self.confidences) == n):
            raise SchemaViolationError(
                f"cluster {self.cluster_id}: parallel arrays differ in length "
                f"({n} frames, {len(self.cameras)} cameras, {len(self.depths)} depths, "
                f"{len(self.confidences)} confidences)"
            )
        if len(set(self.frame_ids)) != n:
            raise SchemaViolationError(f"cluster {self.cluster_id}: duplicate frame_ids")
        for fid, cam, d, c in zip(self.frame_ids, self.cameras, self.depths, self.confidences):
            if cam.frame_id != fid:
                raise SchemaViolationError(
                    f"cluster {self.cluster_id}: camera frame_id {cam.frame_id} does not match {fid}"
                )
            k = cam.intrinsics
            if (d.height, d.width) != (k.height, k.width):
                raise SchemaViolationError(
                    f"cluster {self.cluster_id} frame {fid}: depth {d.width}x{d.height} "
                    f"does not match intrinsics {k.width}x{k.height}"
                )
            if (c.height, c.width) != (d.height, d.width):
                raise SchemaViolationError(
                    f"cluster {self.cluster_id} frame {fid}: confidence {c.width}x{c.height} "
                    f"does not match depth {d.width}x{d.height}"
                )

    def __len__(self) -> int:
        return len(self.frame_ids)

    def frame_index(self, frame_id: int) -> int:
        try:
            return self.frame_ids.index(frame_id)
        except ValueError:
            raise MissingFrameError(f"frame {frame_id} not in cluster {self.cluster_id}") from None


def load_cluster(manifest_path, cluster_id: int) -> ClusterReconstruction:
    """Load one cluster's reconstruction from a scene directory.

    Paths in the manifest are resolved relative to the manifest file.
    Raises MissingFrameError naming the frame when a per-frame file is
    absent, DataCorruptionError for non-finite payloads or truncated
    tensors, and SchemaViolationError for dimension mismatches.
    """
    manifest_path = Path(manifest_path)
    manifest = read_manifest(manifest_path)
    entry = manifest.cluster_by_id(cluster_id)
    base = manifest_path.parent

    poses_file = base / entry.poses_path
    if not poses_file.exists():
        raise MissingFrameError(f"cluster {cluster_id}: poses file {entry.poses_path} not found")
    records = {r.frame_id: r for r in read_poses(poses_file)}

    cameras, depths, confidences = [], [], []
    for fid, dpath, cpath in zip(entry.frame_ids, entry.depth_paths, entry.confidence_paths):
        if fid not in records:
            raise MissingFrameError(f"cluster {cluster_id}: frame {fid} missing from {entry.poses_path}")
        image = manifest.image_by_frame(fid)
        cameras.append(camera_from_pose_record(records[fid], image.width, image.height))
        for kind, rel in (("depth", dpath), ("confidence", cpath)):
            if not (base / rel).exists():
                raise MissingFrameError(f"cluster {cluster_id}: {kind} file for frame {fid} not found: {rel}")
        d = read_tensor(base / dpath)
        c = read_tensor(base / cpath)
        for kind, arr, rel in (("depth", d, dpath), ("confidence", c, cpath)):
            if not np.all(np.isfinite(arr)):
                raise DataCorruptionError(
                    f"cluster {cluster_id} frame {fid}: non-finite value in {kind} tensor {rel}"
                )
        depths.append(DepthMap(d))
        confidences.append(ConfidenceMap(c))

    return ClusterReconstruction(
        cluster_id=cluster_id,
        frame_ids=list(entry.frame_ids),
        cameras=cameras,
        depths=depths,
        confidences=confidences,
    )


def write_cluster(scene_dir, cluster: ClusterReconstruction) -> ClusterEntry:
    """Write one cluster under scene_dir/clusters/<id>/ and return its entry.

    The returned ClusterEntry carries paths relative to the scene directory
    (where the manifest lives).
    """
    scene_dir = Path(scene_dir)
    rel_dir = Path("clusters") / f"{cluster.cluster_id:03d}"
    out_dir = scene_dir / rel_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    write_poses(out_dir / "poses.json", [pose_record_from_camera(c) for c in cluster.cameras])
    depth_paths, conf_paths = [], []
    for fid, d, c in zip(cluster.frame_ids, cluster.depths, cluster.confidences):
        dp = rel_dir / f"depth_{fid:05d}.mrgt"
        cp = rel_dir / f"conf_{fid:05d}.mrgt"
        write_tensor(scene_dir / dp, d.values)
        write_tensor(scene_dir / cp, c.values)
        depth_paths.append(str(dp))
        conf_paths.append(str(cp))
    return ClusterEntry(
        cluster_id=cluster.cluster_id,
        frame_ids=list(cluster.frame_ids),
        poses_path=str(rel_dir / "poses.json"),
        depth_paths=depth_paths,
        confidence_paths=conf_paths,
    )
