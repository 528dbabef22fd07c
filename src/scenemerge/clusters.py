"""Per-subset reconstruction model: cameras + dense depth/confidence maps.

A cluster is one subset's reconstruction in its own (arbitrary, scaled)
frame, as a foundation model or the synthetic oracle would produce it.
Its depth and confidence maps are two row-major float32 stacks of shape
(frames, height, width), frames in frame_ids order, as a model emits one
subset in one batch; all frames of a cluster share one image size.
ClusterReconstruction casts the stacks and is the one place their shape,
finiteness and sign are checked. Depth values <= 0 mark invalid pixels;
confidences are raw nonnegative scores with no cross-model calibration
(percentile filtering downstream makes the scale irrelevant). Integer
pixel coordinates sit at pixel centers, so unprojecting pixel (u, v) at
its stored depth and projecting it back is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DataCorruptionError,
    DataError,
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
    read_tensors,
    write_poses,
    write_tensors,
)


@dataclass(frozen=True)
class ClusterReconstruction:
    """One subset's reconstruction in its own arbitrary Sim(3) gauge.

    Construction casts both map stacks to float32 and rejects, naming the
    cluster and a frame, a camera whose image size is not the first
    camera's, a stack whose shape is not (frames, height, width), a
    non-finite value (DataCorruptionError) and a negative confidence.
    """

    cluster_id: int
    frame_ids: list[int]
    cameras: list[CameraParams]
    depths: np.ndarray
    confidences: np.ndarray

    def __post_init__(self):
        cid, fids, n = self.cluster_id, self.frame_ids, len(self.frame_ids)
        if not n or len(self.cameras) != n:
            raise SchemaViolationError(f"cluster {cid}: {n} frames, {len(self.cameras)} cameras; needs one per frame")
        if len(set(fids)) != n:
            raise SchemaViolationError(f"cluster {cid}: duplicate frame_ids")
        k = self.cameras[0].intrinsics
        for fid, cam in zip(fids, self.cameras):
            if cam.frame_id != fid:
                raise SchemaViolationError(f"cluster {cid}: camera frame_id {cam.frame_id} does not match {fid}")
            if (cam.intrinsics.width, cam.intrinsics.height) != (k.width, k.height):
                raise SchemaViolationError(f"cluster {cid} frame {fid}: image size differs from frame {fids[0]}'s")
        depths, confidences = (np.asarray(m, dtype=np.float32) for m in (self.depths, self.confidences))
        for kind, m in (("depth", depths), ("confidence", confidences)):
            if m.shape[:1] != (n,):
                raise SchemaViolationError(f"cluster {cid}: {kind} stack has shape {m.shape}, needs {n} frames")
            if m.shape[1:] != (k.height, k.width):
                raise SchemaViolationError(
                    f"cluster {cid} frame {fids[0]}: {kind} map has shape {m.shape[1:]}, "
                    f"intrinsics need ({k.height}, {k.width})"
                )
            finite = np.isfinite(m).all(axis=(1, 2))
            if not finite.all():
                bad = fids[finite.argmin()]
                raise DataCorruptionError(f"cluster {cid} frame {bad}: non-finite value in {kind} map")
        negative = (confidences < 0).any(axis=(1, 2))
        if negative.any():
            raise SchemaViolationError(
                f"cluster {cid} frame {fids[negative.argmax()]}: confidence map contains negative values"
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
    id to its (width, height). Raises MissingFrameError naming the cluster
    when its poses or maps file is absent or the poses file lacks a frame,
    InvalidPoseError naming the poses file and the frame for a camera
    geometry rejects, and, naming the maps file, DataCorruptionError for
    non-finite or truncated maps and SchemaViolationError for maps that are
    not two float32 stacks of the cluster's (frames, height, width).
    """
    root = Path(root)
    cluster_id = entry.cluster_id
    for kind, rel in (("poses", entry.poses_path), ("maps", entry.maps_path)):
        if not (root / rel).exists():
            raise MissingFrameError(f"cluster {cluster_id}: {kind} file {rel} not found")
    poses_file, maps_file = root / entry.poses_path, root / entry.maps_path
    records = {r.frame_id: r for r in read_poses(poses_file)}
    cameras = []
    for fid in entry.frame_ids:
        if fid not in records:
            raise MissingFrameError(f"cluster {cluster_id}: frame {fid} missing from {entry.poses_path}")
        try:
            cameras.append(camera_from_pose_record(records[fid], *image_sizes[fid]))
        except InvalidPoseError as e:
            raise InvalidPoseError(f"{poses_file}: frame {fid}: {e}") from e

    maps = read_tensors(maps_file, "maps")
    if [m.dtype for m in maps] != [np.float32] * 2:
        found = ", ".join(f"{m.dtype.name} {m.shape}" for m in maps)
        raise SchemaViolationError(f"{maps_file}: expected two float32 tensors, found {found}")
    try:
        return ClusterReconstruction(cluster_id, list(entry.frame_ids), cameras, *maps)
    except DataError as e:
        raise type(e)(f"{maps_file}: {e}") from None


def write_cluster(scene_dir, cluster: ClusterReconstruction) -> ClusterEntry:
    """Write one cluster under scene_dir/clusters/<id>/ and return its entry.

    The returned ClusterEntry carries paths relative to the scene directory
    (where the manifest lives).
    """
    rel_dir = Path("clusters") / f"{cluster.cluster_id:03d}"
    out_dir = Path(scene_dir) / rel_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    write_poses(out_dir / "poses.json", [pose_record_from_camera(c) for c in cluster.cameras])
    write_tensors(out_dir / "maps.mrgt", [cluster.depths, cluster.confidences])
    return ClusterEntry(
        cluster_id=cluster.cluster_id,
        frame_ids=list(cluster.frame_ids),
        poses_path=str(rel_dir / "poses.json"),
        maps_path=str(rel_dir / "maps.mrgt"),
    )
