"""Per-subset reconstruction model: cameras + dense depth/confidence maps.

A cluster is one subset's reconstruction in its own (arbitrary, scaled)
frame, as a foundation model or the synthetic oracle would produce it.
Each frame's depth and confidence maps are plain row-major float32 arrays
of shape (height, width); ClusterReconstruction casts them and is the one
place their shape and sign are checked. Depth values <= 0 mark invalid
pixels; confidences are raw nonnegative scores with no cross-model
calibration (percentile filtering downstream makes the scale irrelevant).
Integer pixel coordinates sit at pixel centers, so unprojecting pixel
(u, v) at its stored depth and projecting it back is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DataCorruptionError,
    InvalidPoseError,
    MissingFrameError,
    SchemaViolationError,
)
from .geometry import CameraParams
from .io_formats import (
    ClusterEntry,
    camera_from_pose_record,
    pose_record_from_camera,
    read_poses,
    read_tensor,
    write_poses,
    write_tensor,
)


@dataclass(frozen=True)
class ClusterReconstruction:
    """One subset's reconstruction in its own arbitrary Sim(3) gauge.

    Construction casts every map to float32 and rejects, naming the cluster
    and the frame, a map whose shape is not the camera's (height, width) and
    a negative confidence.
    """

    cluster_id: int
    frame_ids: list[int]
    cameras: list[CameraParams]
    depths: list[np.ndarray]
    confidences: list[np.ndarray]

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
        depths = [np.asarray(d, dtype=np.float32) for d in self.depths]
        confidences = [np.asarray(c, dtype=np.float32) for c in self.confidences]
        for fid, cam, d, c in zip(self.frame_ids, self.cameras, depths, confidences):
            if cam.frame_id != fid:
                raise SchemaViolationError(
                    f"cluster {self.cluster_id}: camera frame_id {cam.frame_id} does not match {fid}"
                )
            k = cam.intrinsics
            for kind, m in (("depth", d), ("confidence", c)):
                if m.shape != (k.height, k.width):
                    raise SchemaViolationError(
                        f"cluster {self.cluster_id} frame {fid}: {kind} map has shape {m.shape}, "
                        f"intrinsics need ({k.height}, {k.width})"
                    )
            if np.any(c < 0):
                raise SchemaViolationError(
                    f"cluster {self.cluster_id} frame {fid}: confidence map contains negative values"
                )
        object.__setattr__(self, "depths", depths)
        object.__setattr__(self, "confidences", confidences)

    def __len__(self) -> int:
        return len(self.frame_ids)

    def frame_index(self, frame_id: int) -> int:
        try:
            return self.frame_ids.index(frame_id)
        except ValueError:
            raise MissingFrameError(f"frame {frame_id} not in cluster {self.cluster_id}") from None


def load_cluster(root, entry: ClusterEntry, image_sizes: dict) -> ClusterReconstruction:
    """Load one manifest cluster entry from the scene directory root.

    The entry's paths are relative to root, and image_sizes maps each frame
    id to its (width, height). Raises MissingFrameError naming the frame
    when a per-frame file is absent, InvalidPoseError naming the poses file
    and the frame for a camera geometry rejects, DataCorruptionError for
    non-finite payloads or truncated tensors, and SchemaViolationError for
    dimension mismatches.
    """
    root = Path(root)
    cluster_id = entry.cluster_id
    poses_file = root / entry.poses_path
    if not poses_file.exists():
        raise MissingFrameError(f"cluster {cluster_id}: poses file {entry.poses_path} not found")
    records = {r.frame_id: r for r in read_poses(poses_file)}

    cameras, depths, confidences = [], [], []
    for fid, dpath, cpath in zip(entry.frame_ids, entry.depth_paths, entry.confidence_paths):
        if fid not in records:
            raise MissingFrameError(f"cluster {cluster_id}: frame {fid} missing from {entry.poses_path}")
        try:
            cameras.append(camera_from_pose_record(records[fid], *image_sizes[fid]))
        except InvalidPoseError as e:
            raise InvalidPoseError(f"{poses_file}: frame {fid}: {e}") from e
        for kind, rel in (("depth", dpath), ("confidence", cpath)):
            if not (root / rel).exists():
                raise MissingFrameError(f"cluster {cluster_id}: {kind} file for frame {fid} not found: {rel}")
        d = read_tensor(root / dpath)
        c = read_tensor(root / cpath)
        for kind, arr, rel in (("depth", d, dpath), ("confidence", c, cpath)):
            if not np.all(np.isfinite(arr)):
                raise DataCorruptionError(
                    f"cluster {cluster_id} frame {fid}: non-finite value in {kind} tensor {rel}"
                )
        depths.append(d)
        confidences.append(c)

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
        write_tensor(scene_dir / dp, d)
        write_tensor(scene_dir / cp, c)
        depth_paths.append(str(dp))
        conf_paths.append(str(cp))
    return ClusterEntry(
        cluster_id=cluster.cluster_id,
        frame_ids=list(cluster.frame_ids),
        poses_path=str(rel_dir / "poses.json"),
        depth_paths=depth_paths,
        confidence_paths=conf_paths,
    )
