"""Interchange formats. Everything on disk is little-endian.

Tensor file (.mrgt):

    offset  size  field
    0       4     magic b"MRGT"
    4       2     format version, u16 (currently 1)
    6       1     dtype code, u8 (1 = float32)
    7       1     rank, u8 (1..8)
    8       4*r   dims, u32 each
    ...           payload, row-major float32

    A 2x3 float32 tensor therefore occupies 4 + 2 + 1 + 1 + 8 + 24 = 40 bytes.

Track file (.trk): a u64 track count, then two packed record types, each
track's header followed by its observations (subpixel coordinates exact):

    track header, 36 bytes: point 3 x f64, confidence f64, observation count u32
    observation, 20 bytes:  frame id u32, u f64, v f64

Both sizes are whole u32 words (9 and 5), so the body reads and writes as
one table of 9-word rows, observation rows using their first 5 words.

Point clouds use binary little-endian PLY with float x/y/z and an optional
float "quality" carrying per-point confidence. The reader reads past any
other vertex property (red/green/blue, normals).

Manifests, poses, pairwise transforms, and partition plans are JSON with a
"format_version" field. Quaternions are stored (w, x, y, z); readers reject
quaternions whose norm deviates from 1 by more than 1e-3 and renormalize the
rest. All writers are deterministic: write(read(write(x))) is byte-identical.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    DataCorruptionError,
    DataError,
    SchemaViolationError,
    UnsupportedVersionError,
)
from .geometry import (
    CameraIntrinsics,
    CameraParams,
    CameraPose,
    PointCloud,
    Sim3Transform,
    matrix_to_quat_wxyz,
    quat_wxyz_to_matrix,
)

TENSOR_MAGIC = b"MRGT"
TENSOR_VERSION = 1
DTYPE_FLOAT32 = 1
_MAX_RANK = 8

_TRACK_HEADER = np.dtype([("point", "<f8", 3), ("confidence", "<f8"), ("n_obs", "<u4")])
_TRACK_OBSERVATION = np.dtype([("frame_id", "<u4"), ("uv", "<f8", 2)])
JSON_FORMAT_VERSION = 1
POSE_CONVENTION = "camera_from_world"
_QUAT_NORM_TOL = 1e-3


# ---------------------------------------------------------------------------
# binary tensors


def write_tensor(path, array) -> None:
    """Write an array as a float32 tensor file (values are cast to float32)."""
    a = np.ascontiguousarray(np.asarray(array), dtype="<f4")
    if a.ndim < 1 or a.ndim > _MAX_RANK:
        raise SchemaViolationError(f"tensor rank must be 1..{_MAX_RANK}, got {a.ndim}")
    if any(d > 0xFFFFFFFF for d in a.shape):
        raise SchemaViolationError(f"tensor dimension exceeds u32 range: {a.shape}")
    p = Path(path)
    with open(p, "wb") as f:
        f.write(TENSOR_MAGIC)
        f.write(struct.pack("<HBB", TENSOR_VERSION, DTYPE_FLOAT32, a.ndim))
        f.write(struct.pack(f"<{a.ndim}I", *a.shape))
        f.write(a.tobytes())


def read_tensor(path) -> np.ndarray:
    """Read a tensor file back as a float32 array."""
    raw = _read_bytes(path, "tensor")
    if len(raw) < 8:
        raise DataCorruptionError(f"{path}: file shorter than the 8-byte header")
    if raw[:4] != TENSOR_MAGIC:
        raise SchemaViolationError(f"{path}: bad magic {raw[:4]!r} at offset 0, expected {TENSOR_MAGIC!r}")
    version, dtype_code, rank = struct.unpack_from("<HBB", raw, 4)
    if version != TENSOR_VERSION:
        raise UnsupportedVersionError(f"{path}: tensor version {version} at offset 4, supported: {TENSOR_VERSION}")
    if dtype_code != DTYPE_FLOAT32:
        raise SchemaViolationError(f"{path}: unknown dtype code {dtype_code} at offset 6")
    if rank < 1 or rank > _MAX_RANK:
        raise SchemaViolationError(f"{path}: rank {rank} at offset 7 outside 1..{_MAX_RANK}")
    dims_end = 8 + 4 * rank
    if len(raw) < dims_end:
        raise DataCorruptionError(f"{path}: truncated dims block (need {dims_end} bytes, have {len(raw)})")
    dims = struct.unpack_from(f"<{rank}I", raw, 8)
    count = 1
    for d in dims:
        count *= d
    expected = dims_end + 4 * count
    if count * 4 != len(raw) - dims_end:
        raise DataCorruptionError(
            f"{path}: payload is {len(raw) - dims_end} bytes, dims {dims} require {expected - dims_end}"
        )
    return np.frombuffer(raw, dtype="<f4", count=count, offset=dims_end).reshape(dims).copy()


# ---------------------------------------------------------------------------
# scene manifest


@dataclass(frozen=True)
class ImageEntry:
    frame_id: int
    width: int
    height: int
    image_path: str | None = None


@dataclass(frozen=True)
class ClusterEntry:
    """Pointers to one cluster's reconstruction files, relative to the manifest."""

    cluster_id: int
    frame_ids: list[int]
    poses_path: str
    depth_paths: list[str]
    confidence_paths: list[str]

    def __post_init__(self):
        n = len(self.frame_ids)
        if len(self.depth_paths) != n or len(self.confidence_paths) != n:
            raise SchemaViolationError(
                f"cluster {self.cluster_id}: frame_ids/depth_paths/confidence_paths lengths differ "
                f"({n}/{len(self.depth_paths)}/{len(self.confidence_paths)})"
            )


@dataclass(frozen=True)
class SceneManifest:
    images: list[ImageEntry]
    clusters: list[ClusterEntry] = field(default_factory=list)
    similarity_path: str | None = None
    pose_convention: str = POSE_CONVENTION
    units: str = "arbitrary"

    def __post_init__(self):
        if self.pose_convention != POSE_CONVENTION:
            raise SchemaViolationError(
                f"pose_convention is {self.pose_convention!r}, this build requires {POSE_CONVENTION!r}"
            )
        ids = [im.frame_id for im in self.images]
        if len(set(ids)) != len(ids):
            raise SchemaViolationError("manifest field images contains duplicate frame_ids")
        known = set(ids)
        for c in self.clusters:
            missing = [f for f in c.frame_ids if f not in known]
            if missing:
                raise SchemaViolationError(
                    f"cluster {c.cluster_id} references frame_ids absent from images: {missing[:5]}"
                )


def write_manifest(path, manifest: SceneManifest) -> None:
    doc = {
        "format_version": JSON_FORMAT_VERSION,
        "pose_convention": manifest.pose_convention,
        "units": manifest.units,
        "similarity_path": manifest.similarity_path,
        "images": [
            {"frame_id": im.frame_id, "width": im.width, "height": im.height, "image_path": im.image_path}
            for im in manifest.images
        ],
        "clusters": [
            {
                "cluster_id": c.cluster_id,
                "frame_ids": list(c.frame_ids),
                "poses_path": c.poses_path,
                "depth_paths": list(c.depth_paths),
                "confidence_paths": list(c.confidence_paths),
            }
            for c in manifest.clusters
        ],
    }
    _write_json(path, doc)


def read_manifest(path) -> SceneManifest:
    doc = _read_json(path, "manifest")
    _check_version(doc, path)
    convention = _value(doc, "pose_convention", str, path)
    images = [
        ImageEntry(
            frame_id=_value(im, "frame_id", _int, where),
            width=_value(im, "width", _int, where),
            height=_value(im, "height", _int, where),
            image_path=im.get("image_path"),
        )
        for where, im in _entries(doc, "images", path)
    ]
    clusters = [
        ClusterEntry(
            cluster_id=_value(c, "cluster_id", _int, where),
            frame_ids=_value(c, "frame_ids", _ints, where),
            poses_path=_value(c, "poses_path", str, where),
            depth_paths=_value(c, "depth_paths", lambda v: [str(p) for p in v], where),
            confidence_paths=_value(c, "confidence_paths", lambda v: [str(p) for p in v], where),
        )
        for where, c in _entries(doc, "clusters", path)
    ]
    _check_unique(clusters, "cluster_id", "clusters", path)
    return SceneManifest(
        images=images,
        clusters=clusters,
        similarity_path=_value(doc, "similarity_path", _optional_str, path) if "similarity_path" in doc else None,
        pose_convention=convention,
        units=str(doc.get("units", "arbitrary")),
    )


# ---------------------------------------------------------------------------
# camera poses


@dataclass(frozen=True)
class PoseRecord:
    """Serialized camera: wxyz quaternion + translation + pinhole intrinsics."""

    frame_id: int
    quat_wxyz: np.ndarray
    translation: np.ndarray
    fx: float
    fy: float
    cx: float
    cy: float


def pose_record_from_camera(cam: CameraParams) -> PoseRecord:
    return PoseRecord(
        frame_id=cam.frame_id,
        quat_wxyz=matrix_to_quat_wxyz(cam.pose.rotation),
        translation=np.asarray(cam.pose.translation, dtype=np.float64),
        fx=cam.intrinsics.fx,
        fy=cam.intrinsics.fy,
        cx=cam.intrinsics.cx,
        cy=cam.intrinsics.cy,
    )


def camera_from_pose_record(rec: PoseRecord, width: int, height: int) -> CameraParams:
    return CameraParams(
        intrinsics=CameraIntrinsics(fx=rec.fx, fy=rec.fy, cx=rec.cx, cy=rec.cy, width=width, height=height),
        pose=CameraPose(rotation=quat_wxyz_to_matrix(rec.quat_wxyz), translation=rec.translation),
        frame_id=rec.frame_id,
    )


def write_poses(path, records: list[PoseRecord]) -> None:
    doc = {
        "format_version": JSON_FORMAT_VERSION,
        "poses": [
            {
                "frame_id": r.frame_id,
                "quat_wxyz": [float(x) for x in r.quat_wxyz],
                "translation": [float(x) for x in r.translation],
                "fx": float(r.fx),
                "fy": float(r.fy),
                "cx": float(r.cx),
                "cy": float(r.cy),
            }
            for r in records
        ],
    }
    _write_json(path, doc)


def read_poses(path) -> list[PoseRecord]:
    doc = _read_json(path, "poses")
    _check_version(doc, path)
    records = [
        PoseRecord(
            frame_id=_value(p, "frame_id", _int, where),
            quat_wxyz=_read_quat(_value(p, "quat_wxyz", _finite_floats, where), f"{where}.quat_wxyz"),
            translation=_value(p, "translation", _finite_floats, where),
            fx=_value(p, "fx", _finite_float, where),
            fy=_value(p, "fy", _finite_float, where),
            cx=_value(p, "cx", _finite_float, where),
            cy=_value(p, "cy", _finite_float, where),
        )
        for where, p in _entries(doc, "poses", path)
    ]
    _check_unique(records, "frame_id", "poses", path)
    return records


def read_pose_map(path) -> dict[int, CameraPose]:
    """A poses file as {frame_id: CameraPose}, for callers that need no intrinsics."""
    return {
        rec.frame_id: CameraPose(rotation=quat_wxyz_to_matrix(rec.quat_wxyz), translation=rec.translation)
        for rec in read_poses(path)
    }


# ---------------------------------------------------------------------------
# pairwise cluster transforms


@dataclass(frozen=True)
class TransformRecord:
    """Serialized per-cluster Sim(3): scale + wxyz quaternion + translation.

    Records hold the quaternion verbatim so a read/write cycle is
    byte-stable; convert to Sim3Transform for computation.
    """

    cluster_id: int
    scale: float
    quat_wxyz: np.ndarray
    translation: np.ndarray


def transform_record_from_sim3(cluster_id: int, t: Sim3Transform) -> TransformRecord:
    return TransformRecord(
        cluster_id=cluster_id,
        scale=float(t.scale),
        quat_wxyz=matrix_to_quat_wxyz(t.rotation),
        translation=np.asarray(t.translation, dtype=np.float64),
    )


def sim3_from_transform_record(rec: TransformRecord) -> Sim3Transform:
    return Sim3Transform(
        scale=rec.scale,
        rotation=quat_wxyz_to_matrix(rec.quat_wxyz),
        translation=rec.translation,
    )


def write_transforms(path, records: list[TransformRecord]) -> None:
    doc = {
        "format_version": JSON_FORMAT_VERSION,
        "clusters": [
            {
                "cluster_id": int(r.cluster_id),
                "scale": float(r.scale),
                "quat_wxyz": [float(x) for x in r.quat_wxyz],
                "translation": [float(x) for x in r.translation],
            }
            for r in records
        ],
    }
    _write_json(path, doc)


def read_transforms(path) -> list[TransformRecord]:
    doc = _read_json(path, "transforms")
    _check_version(doc, path)
    records = [
        TransformRecord(
            cluster_id=_value(c, "cluster_id", _int, where),
            scale=_value(c, "scale", _finite_float, where),
            quat_wxyz=_read_quat(_value(c, "quat_wxyz", _finite_floats, where), f"{where}.quat_wxyz"),
            translation=_value(c, "translation", _finite_floats, where),
        )
        for where, c in _entries(doc, "clusters", path)
    ]
    _check_unique(records, "cluster_id", "clusters", path)
    return records


def _read_quat(q: np.ndarray, where: str) -> np.ndarray:
    """Validate a wxyz quaternion; renormalize only when measurably off.

    Keeping already-normalized quaternions verbatim makes read/write cycles
    byte-stable (dividing by a norm of 1 + 1e-16 would flip last bits).
    """
    if q.shape != (4,):
        raise SchemaViolationError(f"{where} must have 4 entries")
    n = float(np.linalg.norm(q))
    if abs(n - 1.0) > _QUAT_NORM_TOL:
        raise SchemaViolationError(f"{where} norm {n:.6f} deviates from 1 by more than {_QUAT_NORM_TOL}")
    if abs(n - 1.0) > 1e-12:
        q = q / n
    return q


# ---------------------------------------------------------------------------
# tracks


def _track_rows(lengths: np.ndarray):
    """(header-row flags, used-word mask, empty body) of a track file body
    as rows of 9 u32 words, one row per record."""
    header = np.zeros(len(lengths) + int(lengths.sum()), dtype=bool)
    header[np.cumsum(lengths + 1) - lengths - 1] = True
    used = np.ones((len(header), 9), dtype=bool)
    used[~header, 5:] = False
    return header, used, np.zeros(used.shape, dtype="<u4")


def write_tracks(path, tracks) -> None:
    """Write a tracking.Tracks table."""
    if len(tracks.frames) and not 0 <= tracks.frames.min() <= tracks.frames.max() <= 0xFFFFFFFF:
        raise SchemaViolationError(f"track frame ids {tracks.frames.min()}..{tracks.frames.max()} exceed u32")
    head = np.empty(len(tracks), dtype=_TRACK_HEADER)
    head["point"], head["confidence"], head["n_obs"] = tracks.points, tracks.confidences, tracks.lengths
    obs = np.empty(len(tracks.frames), dtype=_TRACK_OBSERVATION)
    obs["frame_id"], obs["uv"] = tracks.frames, tracks.pixels
    header, used, body = _track_rows(tracks.lengths)
    body[header] = head.view("<u4").reshape(-1, 9)
    body[~header, :5] = obs.view("<u4").reshape(-1, 5)
    Path(path).write_bytes(struct.pack("<Q", len(tracks)) + body[used].tobytes())


def read_tracks(path):
    """Read a track file into a tracking.Tracks table; only the walk over
    track headers loops. A track Tracks rejects raises DataCorruptionError."""
    from .tracking import Tracks  # local import keeps io_formats import-light

    raw = _read_bytes(path, "tracks")
    if len(raw) < 8:
        raise DataCorruptionError(f"{path}: file shorter than the 8-byte track count")
    (count,) = struct.unpack_from("<Q", raw, 0)
    off, lengths = 8, []
    for ti in range(count):
        if len(raw) < off + 36:
            raise DataCorruptionError(f"{path}: track {ti} header truncated at offset {off}")
        lengths.append(struct.unpack_from("<I", raw, off + 32)[0])
        off += 36 + 20 * lengths[-1]
        if len(raw) < off:
            raise DataCorruptionError(f"{path}: track {ti} observations truncated at offset {off - 20 * lengths[-1]}")
    if off != len(raw):
        raise DataCorruptionError(f"{path}: {len(raw) - off} trailing bytes after track {count - 1}")
    header, used, body = _track_rows(np.array(lengths, dtype=np.int64))
    body[used] = np.frombuffer(raw, dtype="<u4", offset=8)
    head = body[header].view(_TRACK_HEADER)[:, 0]
    obs = np.ascontiguousarray(body[~header, :5]).view(_TRACK_OBSERVATION)[:, 0]
    try:
        return Tracks(head["point"], head["confidence"], lengths, obs["frame_id"], obs["uv"])
    except DataError as e:
        raise DataCorruptionError(f"{path}: {e}") from None


# ---------------------------------------------------------------------------
# PLY point clouds


def write_ply(path, cloud: PointCloud) -> None:
    """Binary little-endian PLY; confidence goes to a float 'quality' property."""
    n = len(cloud)
    fields = [("x", "<f4"), ("y", "<f4"), ("z", "<f4")]
    props = ["property float x", "property float y", "property float z"]
    if cloud.confidences is not None:
        fields.append(("quality", "<f4"))
        props.append("property float quality")
    rec = np.empty(n, dtype=np.dtype(fields))
    rec["x"], rec["y"], rec["z"] = cloud.points[:, 0], cloud.points[:, 1], cloud.points[:, 2]
    if cloud.confidences is not None:
        rec["quality"] = cloud.confidences
    header = "\n".join(
        ["ply", "format binary_little_endian 1.0", f"element vertex {n}", *props, "end_header", ""]
    )
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        f.write(rec.tobytes())


_PLY_TYPES = {
    "float": "<f4", "float32": "<f4", "double": "<f8", "float64": "<f8",
    "uchar": "u1", "uint8": "u1", "char": "i1", "int8": "i1",
    "short": "<i2", "int16": "<i2", "ushort": "<u2", "uint16": "<u2",
    "int": "<i4", "int32": "<i4", "uint": "<u4", "uint32": "<u4",
}


def read_ply(path) -> PointCloud:
    raw = _read_bytes(path, "PLY")
    end = raw.find(b"end_header\n")
    if not raw.startswith(b"ply") or end < 0:
        raise SchemaViolationError(f"{path}: not a PLY file (missing 'ply'/'end_header')")
    header = raw[:end].decode("ascii", errors="replace").splitlines()
    body = raw[end + len(b"end_header\n"):]
    n = None
    fields: list[tuple[str, str]] = []
    in_vertex = False
    for number, line in enumerate(header[1:], start=2):
        tok = line.split()
        if not tok:
            continue
        try:
            if tok[0] == "format":
                if tok[1] != "binary_little_endian":
                    raise SchemaViolationError(f"{path}: unsupported PLY format {tok[1]!r}, need binary_little_endian")
            elif tok[0] == "element":
                in_vertex = tok[1] == "vertex"
                if in_vertex:
                    n = int(tok[2])
            elif tok[0] == "property" and in_vertex:
                if tok[1] == "list":
                    raise SchemaViolationError(f"{path}: list property {tok[-1]!r} not supported for vertices")
                if tok[1] not in _PLY_TYPES:
                    raise SchemaViolationError(f"{path}: unknown PLY property type {tok[1]!r}")
                fields.append((tok[2], _PLY_TYPES[tok[1]]))
            malformed = (n or 0) < 0 or len(dict(fields)) < len(fields)  # negative count, repeated name
        except (IndexError, ValueError):  # a missing token, a count that is not an integer
            malformed = True
        if malformed:
            raise SchemaViolationError(f"{path}: malformed PLY header line {number}: {line!r}")
    if n is None:
        raise SchemaViolationError(f"{path}: PLY header has no vertex element")
    for axis in ("x", "y", "z"):
        if axis not in [f[0] for f in fields]:
            raise SchemaViolationError(f"{path}: PLY vertex element missing property {axis!r}")
    dt = np.dtype(fields)
    if len(body) < n * dt.itemsize:
        raise DataCorruptionError(f"{path}: PLY payload truncated ({len(body)} bytes, need {n * dt.itemsize})")
    rec = np.frombuffer(body, dtype=dt, count=n)
    pts = np.stack([rec["x"], rec["y"], rec["z"]], axis=1).astype(np.float64)
    bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if len(bad):
        raise DataCorruptionError(f"{path}: PLY vertex {bad[0]} is not finite: {pts[bad[0]].tolist()}")
    conf = rec["quality"].astype(np.float64) if "quality" in dt.names else None
    return PointCloud(points=pts, confidences=conf)


# ---------------------------------------------------------------------------
# partition plans


def plan_document(plan) -> dict:
    """Plan as the JSON-serializable document written by write_plan."""
    return {
        "format_version": JSON_FORMAT_VERSION,
        "subset_size": int(plan.subset_size),
        "overlap": int(plan.overlap),
        "n_subsequences": int(plan.n_subsequences),
        "pseudo_order": [int(i) for i in plan.pseudo_order],
        "interleaved_order": [int(i) for i in plan.interleaved_order],
        "subsets": [[int(i) for i in s] for s in plan.subsets],
    }


def write_plan(path, plan) -> None:
    _write_json(path, plan_document(plan))


def read_plan(path):
    from .ordering import SceneGraphPlan

    doc = _read_json(path, "plan")
    _check_version(doc, path)
    return SceneGraphPlan(
        pseudo_order=_value(doc, "pseudo_order", _indices, path),
        interleaved_order=_value(doc, "interleaved_order", _indices, path),
        subsets=_value(doc, "subsets", lambda v: [_indices(s) for s in v], path),
        subset_size=_value(doc, "subset_size", _int, path),
        overlap=_value(doc, "overlap", _int, path),
        n_subsequences=_value(doc, "n_subsequences", _int, path),
    )


# ---------------------------------------------------------------------------
# shared JSON plumbing


def _write_json(path, doc) -> None:
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _read_bytes(path, kind: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except FileNotFoundError:
        raise SchemaViolationError(f"{path}: {kind} file not found") from None


def _read_json(path, kind: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise SchemaViolationError(f"{path}: {kind} file not found") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise DataCorruptionError(f"{path}: invalid JSON in {kind} file: {e}") from None
    if not isinstance(doc, dict):
        raise SchemaViolationError(f"{path}: {kind} file must contain a JSON object")
    return doc


def _entries(doc, key: str, path) -> list[tuple[str, dict]]:
    """doc[key] as (location, entry) pairs, e.g. ("poses.json: poses[0]", {...}).

    Raises SchemaViolationError naming the file and the entry when doc[key]
    is missing, is not a list, or holds something other than JSON objects.
    """
    if key not in doc:
        raise SchemaViolationError(f"{path}: missing field {key!r}")
    entries = doc[key]
    if not isinstance(entries, list):
        raise SchemaViolationError(f"{path}: field {key!r} must be a list, got {type(entries).__name__}")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise SchemaViolationError(f"{path}: {key}[{i}]: must be a JSON object, got {type(entry).__name__}")
    return [(f"{path}: {key}[{i}]", entry) for i, entry in enumerate(entries)]


def _value(entry: dict, name: str, convert, where):
    """convert(entry[name]), the one way a JSON reader takes a field's value.

    A missing field, or a value convert rejects (null for a number, "abc"
    or Infinity for an id, NaN for a pose), raises SchemaViolationError
    naming where (the file, and the entry if any) and the field.
    """
    if name not in entry:
        raise SchemaViolationError(f"{where}: missing field {name!r}")
    try:
        return convert(entry[name])
    except (TypeError, ValueError, OverflowError):
        raise SchemaViolationError(f"{where}: field {name!r} has invalid value {entry[name]!r}") from None


def _check_unique(records, name: str, key: str, path) -> None:
    """Raise SchemaViolationError naming the first record whose field name repeats an earlier one's."""
    first = {}
    for i, value in enumerate(getattr(rec, name) for rec in records):
        if first.setdefault(value, i) != i:
            raise SchemaViolationError(f"{path}: {key}[{i}]: repeats {name} {value}")


def _str(value) -> str:
    """value itself when it is a string; TypeError otherwise."""
    if not isinstance(value, str):
        raise TypeError(value)
    return value


def _object(value) -> dict:
    """value itself when it is a JSON object; TypeError otherwise."""
    if not isinstance(value, dict):
        raise TypeError(value)
    return value


def _optional_str(value) -> str | None:
    """value itself when it is a string or null; TypeError otherwise."""
    return None if value is None else _str(value)


def _finite_floats(value) -> np.ndarray:
    """value as a float64 array; ValueError when an entry is NaN or infinite."""
    a = np.asarray(value, dtype=np.float64)
    if not np.isfinite(a).all():
        raise ValueError(value)
    return a


def _finite_float(value) -> float:
    """float(value); ValueError when it is NaN or infinite."""
    x = float(value)
    if not np.isfinite(x):
        raise ValueError(value)
    return x


def _int(value) -> int:
    """value as an int; ValueError for a bool or a number with a fraction,
    so a corrupt id cannot truncate into another frame's."""
    integral = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not integral:
        raise ValueError(value)
    return int(value)


def _ints(value) -> list[int]:
    return [_int(v) for v in value]


def _indices(value) -> np.ndarray:
    return np.array(_ints(value), dtype=np.int64)


def _check_version(doc, path) -> None:
    v = doc.get("format_version")
    if v != JSON_FORMAT_VERSION:
        raise UnsupportedVersionError(f"{path}: format_version {v!r}, supported: {JSON_FORMAT_VERSION}")
