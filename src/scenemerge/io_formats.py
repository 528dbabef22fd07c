"""Interchange formats: every file scenemerge reads or writes. Everything on
disk is little-endian.

Tensor file (.mrgt): one or more tensors back to back, each a header and
its payload:

    offset  size  field
    0       4     magic b"MRGT"
    4       2     format version, u16 (currently 1)
    6       1     dtype code, u8 (1 = float32, 2 = float64, 3 = uint32)
    7       1     rank, u8 (1..8)
    8       4*r   dims, u32 each
    ...           payload, row-major, prod(dims) values of the dtype

    A 2x3 float32 tensor therefore occupies 4 + 2 + 1 + 1 + 8 + 24 = 40 bytes.
    A similarity file holds one float32 tensor.

Cluster maps file (clusters/NNN/maps.mrgt): a tensor file holding two
float32 tensors of shape (F, H, W), a cluster's depth maps, then its
confidence maps, frames in the order of the cluster's frame_ids. All F
frames share the one image size (W, H) the manifest gives them.

Track file (tracks.bin): a tensor file holding the five columns of a
tracking.Tracks table, in field order, so subpixel coordinates are exact:

    points       (P, 3)  float64
    confidences  (P,)    float64
    lengths      (P,)    uint32, observations per track
    frames       (M,)    uint32, frame id of each observation
    pixels       (M, 2)  float64, observations grouped by track in track order

Ground-truth scene file (gt/scene.mrgt): a tensor file holding the exact
scene a synthetic scene directory was generated from, so the synthetic
matcher is read back instead of regenerated. C cameras see L landmarks,
packed W = ceil(L / 32) words per camera:

    landmarks   (L, 3)   float64, world points
    cameras     (C, 16)  float64, rotation row-major, translation, fx fy cx cy
    image       (2,)     uint32, width and height shared by every camera
    visibility  (C, W)   uint32, bit l % 32 of word l // 32 set when landmark
                         l wins the camera's z-buffer; bits from L on are 0

Point clouds use binary little-endian PLY with float x/y/z and an optional
float "quality" carrying per-point confidence. The reader reads past any
other vertex property (red/green/blue, normals).

Manifests, poses, pairwise transforms, partition plans and gt/synth.json
are UTF-8 JSON objects with a "format_version" field. A partition plan
(ordering.SceneGraphPlan) and gt/synth.json (synthetic.SynthRecord) are
each one record, which write_document and read_document write and read
after the version; the entries of a manifest's "images" and "clusters", of
a poses file's "poses" and of a transforms file's "clusters" are records
too. read_record and record_document read and write a record from its
dataclass fields, keys in field order, through the entry of _FIELD_CODECS
for the field's annotation, or as a nested record when the annotation names
another record class (gt/synth.json's perturb). A field annotated X | None
may be absent and reads as None (an image's image_path, gt/synth.json's
n_subsequences); every other record field is required. In the manifest's
header, similarity_path (null) and units ("arbitrary") may be absent too.
A float field takes a finite JSON number, never a bool or a string;
translations are exactly 3 of them and Sim(3) scales are positive.
Quaternions are stored (w, x, y, z); readers reject quaternions whose norm
deviates from 1 by more than 1e-3 and renormalize the rest. A file that is
missing, unreadable or not UTF-8, or whose header or record its dataclass
rejects, raises a DataError naming it. All writers are deterministic:
write(read(write(x))) is byte-identical. ba_loss.csv holds CSV text.
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys
from collections import Counter
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
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
_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f8"), 3: np.dtype("<u4")}  # dtype code -> dtype
_DTYPE_CODES = {dtype.str: code for code, dtype in _DTYPES.items()}
_MAX_RANK = 8

JSON_FORMAT_VERSION = 1
POSE_CONVENTION = "camera_from_world"
_QUAT_NORM_TOL = 1e-3

# record field annotations naming a checked JSON value, read per _FIELD_CODECS
Quaternion = np.ndarray  # (w, x, y, z), norm within _QUAT_NORM_TOL of 1
Vector3 = np.ndarray  # exactly 3 finite floats
PositiveFloat = float  # finite and above 0
Indices = np.ndarray  # int64 frame indices


# ---------------------------------------------------------------------------
# binary tensors


def write_tensors(path, arrays) -> None:
    """Write arrays back to back as one tensor file, each in its own dtype,
    which must be little-endian float32, float64 or uint32."""
    arrays = [np.ascontiguousarray(a) for a in arrays]
    for a in arrays:
        if a.dtype.str not in _DTYPE_CODES or not 1 <= a.ndim <= _MAX_RANK or max(a.shape) > 0xFFFFFFFF:
            raise SchemaViolationError(f"cannot store {a.dtype.str} array of shape {a.shape} as a tensor")
    with open(path, "wb") as f:
        for a in arrays:
            header = struct.pack(f"<HBB{a.ndim}I", TENSOR_VERSION, _DTYPE_CODES[a.dtype.str], a.ndim, *a.shape)
            f.writelines([TENSOR_MAGIC, header, a])


def write_tensor(path, array) -> None:
    """Write an array as a file of one float32 tensor (values are cast to float32)."""
    write_tensors(path, [np.asarray(array, dtype="<f4")])


def read_tensors(path, kind: str = "tensor") -> list[np.ndarray]:
    """Every tensor in the tensor file at path, in file order, each with its
    stored dtype; errors name the file and the offset.

    The tensors are writable views of one buffer holding the file, so a
    read holds the file once; only a tensor whose payload offset is
    misaligned for its dtype is copied out.
    """
    raw = _read_bytes(path, kind)
    tensors, off = [], 0
    while True:
        if off and (len(raw) < off + 8 or raw[off:off + 4] != TENSOR_MAGIC):  # no header after a tensor
            raise DataCorruptionError(f"{path}: {len(raw) - off} trailing bytes after tensor {len(tensors) - 1}")
        if len(raw) < 8:
            raise DataCorruptionError(f"{path}: file shorter than the 8-byte header")
        if raw[:4] != TENSOR_MAGIC:
            raise SchemaViolationError(f"{path}: bad magic {raw[:4]!r} at offset 0, expected {TENSOR_MAGIC!r}")
        version, code, rank = struct.unpack_from("<HBB", raw, off + 4)
        if version != TENSOR_VERSION:
            raise UnsupportedVersionError(
                f"{path}: tensor version {version} at offset {off + 4}, supported: {TENSOR_VERSION}"
            )
        if code not in _DTYPES:
            raise SchemaViolationError(f"{path}: unknown dtype code {code} at offset {off + 6}")
        if rank < 1 or rank > _MAX_RANK:
            raise SchemaViolationError(f"{path}: rank {rank} at offset {off + 7} outside 1..{_MAX_RANK}")
        dims_end = off + 8 + 4 * rank
        if len(raw) < dims_end:
            raise DataCorruptionError(f"{path}: truncated dims block (need {dims_end} bytes, have {len(raw)})")
        dims = struct.unpack_from(f"<{rank}I", raw, off + 8)
        count = math.prod(dims)
        off = dims_end + _DTYPES[code].itemsize * count
        if len(raw) < off:
            raise DataCorruptionError(
                f"{path}: payload at offset {dims_end} is {len(raw) - dims_end} bytes, "
                f"dims {dims} require {off - dims_end}"
            )
        tensor = np.frombuffer(raw, dtype=_DTYPES[code], count=count, offset=dims_end).reshape(dims)
        tensors.append(tensor if tensor.flags.aligned else tensor.copy())
        if off == len(raw):
            return tensors


def read_tensor(path) -> np.ndarray:
    """Read a file of exactly one float32 tensor."""
    tensors = read_tensors(path)
    if len(tensors) != 1 or tensors[0].dtype != "<f4":
        found = ", ".join(f"{t.dtype.name} {t.shape}" for t in tensors)
        raise SchemaViolationError(f"{path}: expected one float32 tensor, found {found}")
    return tensors[0]


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
    maps_path: str

    def __post_init__(self):
        if not self.frame_ids:
            raise SchemaViolationError(f"cluster {self.cluster_id} lists no frames")
        repeated = [f for f, count in Counter(self.frame_ids).items() if count > 1]
        if repeated:
            raise SchemaViolationError(f"cluster {self.cluster_id} repeats frame_ids {repeated[:5]}")


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
        sizes = {im.frame_id: (im.width, im.height) for im in self.images}
        for c in self.clusters:
            missing = [f for f in c.frame_ids if f not in sizes]
            if missing:
                raise SchemaViolationError(
                    f"cluster {c.cluster_id} references frame_ids absent from images: {missing[:5]}"
                )
            odd = [f for f in c.frame_ids if sizes[f] != sizes[c.frame_ids[0]]]
            if odd:
                raise SchemaViolationError(
                    f"cluster {c.cluster_id} frame {odd[0]}: image size differs from frame {c.frame_ids[0]}'s"
                )


def write_manifest(path, manifest: SceneManifest) -> None:
    doc = {
        "format_version": JSON_FORMAT_VERSION,
        "pose_convention": manifest.pose_convention,
        "units": manifest.units,
        "similarity_path": manifest.similarity_path,
        "images": [record_document(im) for im in manifest.images],
        "clusters": [record_document(c) for c in manifest.clusters],
    }
    write_json(path, doc)


def read_manifest(path) -> SceneManifest:
    doc = read_json(path, "manifest")
    _check_version(doc, path)
    return _construct(
        SceneManifest,
        path,
        pose_convention=_value(doc, "pose_convention", _str, path),
        images=_read_records(ImageEntry, doc, "images", path, "frame_id"),
        clusters=_read_records(ClusterEntry, doc, "clusters", path, "cluster_id"),
        similarity_path=_value(doc, "similarity_path", _optional_str, path) if "similarity_path" in doc else None,
        units=_value(doc, "units", _str, path) if "units" in doc else "arbitrary",
    )


# ---------------------------------------------------------------------------
# camera poses


@dataclass(frozen=True)
class PoseRecord:
    """Serialized camera: wxyz quaternion + translation + pinhole intrinsics."""

    frame_id: int
    quat_wxyz: Quaternion
    translation: Vector3
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
    write_json(path, {"format_version": JSON_FORMAT_VERSION, "poses": [record_document(r) for r in records]})


def read_poses(path) -> list[PoseRecord]:
    doc = read_json(path, "poses")
    _check_version(doc, path)
    return _read_records(PoseRecord, doc, "poses", path, "frame_id")


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
    scale: PositiveFloat
    quat_wxyz: Quaternion
    translation: Vector3


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
    write_json(path, {"format_version": JSON_FORMAT_VERSION, "clusters": [record_document(r) for r in records]})


def read_transforms(path) -> list[TransformRecord]:
    doc = read_json(path, "transforms")
    _check_version(doc, path)
    return _read_records(TransformRecord, doc, "clusters", path, "cluster_id")


# ---------------------------------------------------------------------------
# tracks


# tracks.bin columns in file order: Tracks field -> (dtype, shape of one row)
_TRACK_COLUMNS = {"points": ("<f8", (3,)), "confidences": ("<f8", ()), "lengths": ("<u4", ()),
                  "frames": ("<u4", ()), "pixels": ("<f8", (2,))}


def write_tracks(path, tracks) -> None:
    """Write a tracking.Tracks table as its five columns."""
    if len(tracks.frames) and not 0 <= tracks.frames.min() <= tracks.frames.max() <= 0xFFFFFFFF:
        raise SchemaViolationError(f"track frame ids {tracks.frames.min()}..{tracks.frames.max()} exceed u32")
    write_tensors(path, [getattr(tracks, name).astype(dtype) for name, (dtype, _) in _TRACK_COLUMNS.items()])


def read_tracks(path):
    """Read a track file into a tracking.Tracks table. Another tensor count,
    or a column of another dtype or row shape, raises SchemaViolationError,
    and a track Tracks rejects DataCorruptionError, both naming the file."""
    from .tracking import Tracks  # local import keeps io_formats import-light

    columns = read_tensors(path, "tracks")
    if len(columns) != len(_TRACK_COLUMNS):
        raise SchemaViolationError(f"{path}: a track file holds {len(_TRACK_COLUMNS)} tensors, found {len(columns)}")
    for column, (name, (dtype, row)) in zip(columns, _TRACK_COLUMNS.items()):
        if column.dtype != dtype or column.shape[1:] != row:
            raise SchemaViolationError(f"{path}: track column {name} is {column.dtype.name} {column.shape}, "
                                       f"needs {np.dtype(dtype).name} rows of shape {row}")
    try:
        return Tracks(*columns)
    except DataError as e:
        raise DataCorruptionError(f"{path}: {e}") from None


# ---------------------------------------------------------------------------
# synthetic ground-truth scene


def write_gt_scene(path, scene) -> None:
    """Write a synthetic.SyntheticScene's landmarks, cameras, image size and
    visibility as the four tensors of a ground-truth scene file."""
    cameras = [np.concatenate([c.pose.rotation.ravel(), c.pose.translation, c.intrinsics.row()])
               for c in scene.gt_cameras]
    packed = np.packbits(scene.visibility, axis=1, bitorder="little")  # little-endian bytes of the words
    write_tensors(path, [
        np.asarray(scene.landmarks, dtype="<f8"),
        np.array(cameras, dtype="<f8"),
        np.array(scene.image_size, dtype="<u4"),
        np.pad(packed, ((0, 0), (0, -packed.shape[1] % 4))).view("<u4"),
    ])


def read_gt_scene(path, seed: int, layout: str, n_cameras: int, n_landmarks: int):
    """The synthetic.SyntheticScene of seed and layout stored in the
    ground-truth scene file at path.

    Another tensor count, or a tensor of another dtype or of a shape other
    than n_cameras and n_landmarks give, raises SchemaViolationError; a
    non-finite landmark or camera value, a visibility bit set for a
    landmark index >= n_landmarks, or a camera geometry rejects raise
    DataCorruptionError. Each error names the file.
    """
    from .synthetic import SyntheticScene  # local import: synthetic writes through this module

    tensors = read_tensors(path, "ground-truth scene")
    expected = {"landmarks": ("<f8", (n_landmarks, 3)), "cameras": ("<f8", (n_cameras, 16)),
                "image": ("<u4", (2,)), "visibility": ("<u4", (n_cameras, (n_landmarks + 31) // 32))}
    if len(tensors) != len(expected):
        raise SchemaViolationError(f"{path}: a ground-truth scene file holds {len(expected)} tensors, "
                                   f"found {len(tensors)}")
    for t, (name, (dtype, shape)) in zip(tensors, expected.items()):
        if t.dtype != dtype or t.shape != shape:
            raise SchemaViolationError(f"{path}: tensor {name} is {t.dtype.name} {t.shape}, "
                                       f"needs {np.dtype(dtype).name} {shape}")
    landmarks, cameras, image, words = tensors
    for name, rows in (("landmarks", landmarks), ("cameras", cameras)):
        bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
        if len(bad):
            raise DataCorruptionError(f"{path}: {name} row {bad[0]} is not finite: {rows[bad[0]].tolist()}")
    bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
    stray = np.argwhere(bits[:, n_landmarks:])
    if len(stray):
        camera, landmark = stray[0] + (0, n_landmarks)
        raise DataCorruptionError(f"{path}: camera {camera} sees landmark {landmark}, "
                                  f"beyond the {n_landmarks} landmarks")
    width, height = image.tolist()
    gt_cameras = []
    for i, row in enumerate(cameras):
        try:
            gt_cameras.append(CameraParams(
                intrinsics=CameraIntrinsics(*row[12:].tolist(), width=width, height=height),
                pose=CameraPose(rotation=row[:9].reshape(3, 3), translation=row[9:12]),
                frame_id=i,
            ))
        except DataError as e:
            raise DataCorruptionError(f"{path}: camera {i}: {e}") from None
    return SyntheticScene(seed=seed, layout=layout, landmarks=landmarks, gt_cameras=gt_cameras,
                          image_size=(width, height), visibility=bits[:, :n_landmarks].view(bool))


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
        f.write(rec)  # through the buffer protocol, without a bytes copy


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
                elif n is None and int(tok[2]) != 0:  # its records would be read as vertices
                    raise SchemaViolationError(
                        f"{path}: PLY element {tok[1]!r} with {tok[2]} records precedes the vertex element"
                    )
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


def write_plan(path, plan) -> None:
    write_document(path, plan)


def read_plan(path):
    from .ordering import SceneGraphPlan

    return read_document(path, SceneGraphPlan, "plan")


# ---------------------------------------------------------------------------
# BA loss history


def write_loss_csv(path, ba_result, cfg) -> None:
    """ba_result's loss history as CSV rows (iteration, lr, loss) under the
    ba.BAConfig cfg's learning-rate schedule; row 0 is the initial loss."""
    lines = ["iteration,lr,loss"]
    for i, loss in enumerate(ba_result.loss_history):
        lines.append(f"{i},{cfg.learning_rate(i):.10e},{loss:.17e}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# shared JSON plumbing


def write_json(path, doc) -> None:
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def document(record) -> dict:
    """A record as the JSON document of its own file: format_version, then
    its fields."""
    return {"format_version": JSON_FORMAT_VERSION, **record_document(record)}


def write_document(path, record) -> None:
    write_json(path, document(record))


def read_document(path, cls, kind: str):
    """The cls record the JSON document at path holds, its format_version
    checked; errors name the file, and kind names what it failed to be."""
    doc = read_json(path, kind)
    _check_version(doc, path)
    return read_record(cls, doc, path)


def _read_bytes(path, kind: str) -> bytearray:
    """The file's bytes in one mutable buffer, read in place: arrays viewing
    it are writable and need no copy."""
    try:
        with open(path, "rb") as f:
            raw = bytearray(os.fstat(f.fileno()).st_size)
            del raw[f.readinto(raw):]
            raw += f.read()  # whatever the size did not announce: a file that grew, a pipe
            return raw
    except FileNotFoundError:
        raise SchemaViolationError(f"{path}: {kind} file not found") from None
    except OSError as e:  # a directory, a permission, an I/O failure
        raise DataError(f"{path}: cannot read {kind} file: {e.strerror or e}") from None


def read_json(path, kind: str) -> dict:
    """The JSON object in the UTF-8 file at path; DataError subclasses name the file."""
    try:
        doc = json.loads(_read_bytes(path, kind).decode("utf-8"))
    except UnicodeDecodeError as e:
        raise DataCorruptionError(f"{path}: {kind} file is not UTF-8 text ({e.reason} at byte {e.start})") from None
    except json.JSONDecodeError as e:
        raise DataCorruptionError(f"{path}: invalid JSON in {kind} file: {e}") from None
    if not isinstance(doc, dict):
        raise SchemaViolationError(f"{path}: {kind} file must contain a JSON object")
    return doc


def read_record(cls, entry: dict, where):
    """The cls record held in the JSON object entry.

    Each field's value is read by the reader _FIELD_CODECS lists for its
    annotation X, or, when X names another record class of cls's module,
    is that nested record, read at "{where}: {field}". A field annotated
    X | None may be absent or null and reads as None; every other field
    must be present. A missing field, a bad value, or a record cls rejects
    raises SchemaViolationError naming where (the file and the entry) and,
    for a field, the field.
    """
    values = {}
    for f in fields(cls):
        kind = f.type.removesuffix(" | None")
        if kind != f.type and entry.get(f.name) is None:
            values[f.name] = None
        elif kind in _FIELD_CODECS:
            values[f.name] = _value(entry, f.name, _FIELD_CODECS[kind][0], where)
        else:
            nested = getattr(sys.modules[cls.__module__], kind)
            values[f.name] = read_record(nested, _value(entry, f.name, _object, where), f"{where}: {f.name}")
    return _construct(cls, where, **values)


def _construct(cls, where, **values):
    """cls(**values); an error cls raises becomes a SchemaViolationError naming where."""
    try:
        return cls(**values)
    except (ConfigError, DataError) as e:
        raise SchemaViolationError(f"{where}: {e}") from None


def record_document(record) -> dict:
    """A record as the JSON object read_record reads back, keys in field order."""
    doc = {}
    for f in fields(record):
        value, kind = getattr(record, f.name), f.type.removesuffix(" | None")
        write = _FIELD_CODECS[kind][1] if kind in _FIELD_CODECS else record_document
        doc[f.name] = None if value is None else write(value)
    return doc


def _read_records(cls, doc, key: str, path, unique: str) -> list:
    """doc[key], a list of JSON objects, as cls records read at locations
    such as "poses.json: poses[0]".

    Raises SchemaViolationError naming the file, and the entry if any, when
    doc[key] is missing or not a list, when an entry is not a JSON object
    or read_record rejects it, or when an entry's unique field repeats an
    earlier entry's.
    """
    if key not in doc:
        raise SchemaViolationError(f"{path}: missing field {key!r}")
    if not isinstance(doc[key], list):
        raise SchemaViolationError(f"{path}: field {key!r} must be a list, got {type(doc[key]).__name__}")
    records, first = [], {}
    for i, entry in enumerate(doc[key]):
        where = f"{path}: {key}[{i}]"
        if not isinstance(entry, dict):
            raise SchemaViolationError(f"{where}: must be a JSON object, got {type(entry).__name__}")
        records.append(read_record(cls, entry, where))
        value = getattr(records[-1], unique)
        if first.setdefault(value, i) != i:
            raise SchemaViolationError(f"{where}: repeats {unique} {value}")
    return records


class _Rejected(ValueError):
    """A reader's reason for refusing a value, worded to follow the field's
    name ("norm 1.010000 deviates ...")."""


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
    except _Rejected as e:
        raise SchemaViolationError(f"{where}: field {name!r} {e}") from None
    except (TypeError, ValueError, OverflowError):
        raise SchemaViolationError(f"{where}: field {name!r} has invalid value {entry[name]!r}") from None


def _instance_of(kind):
    """A reader that returns a value of type kind itself and raises
    TypeError for any other value."""

    def read(value):
        if not isinstance(value, kind):
            raise TypeError(value)
        return value

    return read


_str, _list, _object = _instance_of(str), _instance_of(list), _instance_of(dict)


def _optional_str(value) -> str | None:
    """value itself when it is a string or null; TypeError otherwise."""
    return None if value is None else _str(value)


def _finite_floats(value, length: int) -> np.ndarray:
    """value, a list of length finite JSON numbers, as a float64 array;
    TypeError or ValueError for any other value."""
    a = np.array([_finite_float(x) for x in _list(value)], dtype=np.float64)
    if len(a) != length:
        raise ValueError(value)
    return a


def _quat(value) -> np.ndarray:
    """value as a wxyz quaternion, renormalized only when measurably off.

    Keeping already-normalized quaternions verbatim makes read/write cycles
    byte-stable (dividing by a norm of 1 + 1e-16 would flip last bits).
    """
    q = _finite_floats(value, 4)
    n = float(np.linalg.norm(q))
    if abs(n - 1.0) > _QUAT_NORM_TOL:
        raise _Rejected(f"norm {n:.6f} deviates from 1 by more than {_QUAT_NORM_TOL}")
    return q / n if abs(n - 1.0) > 1e-12 else q


def _finite_float(value) -> float:
    """value, a JSON number, as a float; TypeError for a bool, a string or
    any other non-number, ValueError when it is NaN or infinite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(value)
    x = float(value)
    if not np.isfinite(x):
        raise ValueError(value)
    return x


def _positive_float(value) -> float:
    """_finite_float(value); ValueError unless it is above 0."""
    x = _finite_float(value)
    if x <= 0:
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
    return [_int(v) for v in _list(value)]


def _indices(value) -> np.ndarray:
    return np.array(_ints(value), dtype=np.int64)


def _floats(value) -> list[float]:
    return [float(x) for x in value]


# record field annotation -> (reader, writer) of its JSON value; the one
# place a record field's JSON type is stated
_FIELD_CODECS = {
    "int": (_int, int),
    "list[int]": (_ints, list),
    "float": (_finite_float, float),
    "PositiveFloat": (_positive_float, float),
    "Vector3": (lambda v: _finite_floats(v, 3), _floats),
    "Quaternion": (_quat, _floats),
    "tuple[float, float, float]": (lambda v: tuple(_finite_floats(v, 3).tolist()), _floats),
    "str": (_str, str),
    "Indices": (_indices, np.ndarray.tolist),
    "list[Indices]": (lambda v: [_indices(s) for s in _list(v)], lambda v: [s.tolist() for s in v]),
}


def _check_version(doc, path) -> None:
    v = doc.get("format_version")
    if v != JSON_FORMAT_VERSION:
        raise UnsupportedVersionError(f"{path}: format_version {v!r}, supported: {JSON_FORMAT_VERSION}")
