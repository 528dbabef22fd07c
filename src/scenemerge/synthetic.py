"""Synthetic scenes standing in for neural reconstruction components.

Generates ground-truth landmark/camera scenes, renders noisy per-cluster
reconstructions with an injected per-cluster Sim(3) gauge (the arbitrary
scaled frame a foundation model would output), a co-visibility similarity
matrix standing in for learned image similarity, and a pixel matcher
standing in for learned feature matching. Everything is deterministic
given the scene seed.

Conventions:

* A landmark is "visible" in a camera when it wins the z-buffer at the
  pixel it projects to (the nearest integer pixel). The winner of a pixel
  is the landmark with the smallest camera depth; on a depth tie, the
  lowest landmark index. Rendering, similarity, and matching all share
  this definition, so with zero injected noise the matcher's
  correspondences verify exactly against the rendered depth maps.
* The injected cluster warp w maps ground truth into the cluster frame;
  the expected alignment between clusters a and b is w_a composed with
  the inverse of w_b.
* Depth noise is multiplicative log-normal: d * exp(N(0, sigma)).
  Confidence follows c = 1 / (1 + |exp(g) - 1| * 100), so noisier pixels
  get strictly lower confidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .clusters import ClusterReconstruction
from .errors import ConfigError, GenerationFailureError
from .geometry import (
    CameraIntrinsics,
    CameraParams,
    CameraPose,
    PointCloud,
    Sim3Transform,
    pinhole,
    project_points,
    rotation_from_axis_angle,
    transform_camera,
)
from .io_formats import (
    SceneManifest,
    ImageEntry,
    pose_record_from_camera,
    write_manifest,
    write_ply,
    write_poses,
    write_tensor,
)
from .ordering import SimilarityMatrix

_MIN_LANDMARKS_PER_CAMERA = 50
_RESAMPLE_ATTEMPTS = 100
_NEAR_PLANE = 0.05
_MAX_STEP_FRACTION = 0.04  # of scene diameter, under the 5% smoothness bound
_MAX_ARC_SPAN = 0.9 * 2.0 * np.pi  # open trajectory: no wraparound


@dataclass(frozen=True)
class PerturbationSpec:
    """Noise model applied when rendering a cluster.

    per_cluster_sim3_noise is (scale jitter fraction, rotation jitter in
    degrees, translation jitter in scene units) for the injected gauge
    warp. depth_noise_sigma is the log-normal sigma of multiplicative
    depth noise. match_pixel_noise_sigma (px) and outlier_match_fraction
    shape the synthetic matcher.
    """

    per_cluster_sim3_noise: tuple[float, float, float] = (0.0, 0.0, 0.0)
    depth_noise_sigma: float = 0.0
    confidence_model: str = "inverse_error"
    match_pixel_noise_sigma: float = 0.0
    outlier_match_fraction: float = 0.0

    def __post_init__(self):
        s, r, t = self.per_cluster_sim3_noise
        if not (0 <= s < 1):
            raise ConfigError(f"scale jitter fraction must be in [0, 1), got {s}")
        if r < 0 or t < 0:
            raise ConfigError("rotation/translation jitter must be nonnegative")
        if self.depth_noise_sigma < 0 or self.match_pixel_noise_sigma < 0:
            raise ConfigError("noise sigmas must be nonnegative")
        if not (0 <= self.outlier_match_fraction < 1):
            raise ConfigError(f"outlier fraction must be in [0, 1), got {self.outlier_match_fraction}")
        if self.confidence_model != "inverse_error":
            raise ConfigError(f"unknown confidence model {self.confidence_model!r}")

    @classmethod
    def none(cls) -> "PerturbationSpec":
        return cls()

    @classmethod
    def default(cls) -> "PerturbationSpec":
        return cls(
            per_cluster_sim3_noise=(0.3, 30.0, 1.0),
            depth_noise_sigma=0.01,
            match_pixel_noise_sigma=0.5,
            outlier_match_fraction=0.05,
        )


@dataclass(frozen=True)
class SyntheticScene:
    """Ground truth: landmarks, cameras, and the co-visibility table."""

    seed: int
    layout: str
    landmarks: np.ndarray
    gt_cameras: list[CameraParams]
    image_size: tuple[int, int]
    visibility: np.ndarray  # (n_cameras, n_landmarks) bool, z-buffer winners

    @property
    def n_cameras(self) -> int:
        return len(self.gt_cameras)

    @property
    def diameter(self) -> float:
        centers = np.array([c.pose.center for c in self.gt_cameras])
        pts = np.concatenate([self.landmarks, centers])
        return float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))

    def gt_pointcloud(self) -> PointCloud:
        return PointCloud(points=self.landmarks.copy())


def _splat(camera: CameraParams, landmarks: np.ndarray):
    """Z-buffer point splat. Returns (depth map, winner landmark indices,
    winner pixel flat indices)."""
    k = camera.intrinsics
    cam_pts = camera.pose.world_to_camera(landmarks)
    z = cam_pts[:, 2]
    idx = np.flatnonzero(z > _NEAR_PLANE)  # only these rows are rounded and cast
    uv, _ = pinhole(cam_pts.take(idx, axis=0), k.row())
    col, row = np.rint(uv.T).astype(np.int64)
    keep = np.flatnonzero((col >= 0) & (col < k.width) & (row >= 0) & (row < k.height))
    idx = idx.take(keep)
    pix = (row * k.width + col).take(keep)
    zi = z.take(idx)
    # Per-pixel minimum depth, then the lowest position among the rows that
    # reach it: idx ascends, so that is the lowest landmark index.
    zmin = np.full(k.height * k.width, np.inf)
    np.minimum.at(zmin, pix, zi)
    cand = np.flatnonzero(zi == zmin.take(pix))
    first = np.full(k.height * k.width, len(idx))
    np.minimum.at(first, pix.take(cand), cand)
    win_pix = np.flatnonzero(first < len(idx))
    winners = idx.take(first.take(win_pix))
    depth = np.zeros((k.height, k.width), dtype=np.float32)
    depth.reshape(-1)[win_pix] = z[winners].astype(np.float32)
    return depth, winners, win_pix


def render_depth(scene: SyntheticScene, camera_index: int) -> np.ndarray:
    """Noise-free ground-truth float32 depth map for one camera."""
    return _splat(scene.gt_cameras[camera_index], scene.landmarks)[0]


def _camera_ring(rng, n_cameras, image_size, radius, height, diameter, look_inward):
    w, h = image_size
    fx = fy = 0.75 * w  # ~67 deg horizontal field of view
    intr = CameraIntrinsics(fx=float(fx), fy=float(fy), cx=w / 2.0, cy=h / 2.0, width=w, height=h)
    max_step = _MAX_STEP_FRACTION * diameter
    dtheta = min(max_step / radius, _MAX_ARC_SPAN / max(n_cameras - 1, 1))
    theta0 = float(rng.uniform(0, 2 * np.pi))
    cams = []
    for i in range(n_cameras):
        th = theta0 + i * dtheta
        center = np.array([radius * np.cos(th), radius * np.sin(th), height])
        radial = np.array([np.cos(th), np.sin(th), 0.0])
        forward = -center / np.linalg.norm(center) if look_inward else radial
        up = np.array([0.0, 0.0, 1.0])
        right = np.cross(forward, up)
        right /= np.linalg.norm(right)
        down = np.cross(forward, right)
        r = np.stack([right, down, forward])
        cams.append(
            CameraParams(intrinsics=intr, pose=CameraPose(rotation=r, translation=-r @ center), frame_id=i)
        )
    return cams


def _sample_room_landmarks(rng, count):
    """Uniform samples on the interior surfaces of an 8 x 8 x 3 box."""
    hw, hd, zt = 4.0, 4.0, 3.0
    areas = np.array([2 * hd * zt, 2 * hd * zt, 2 * hw * zt, 2 * hw * zt, 2 * hw * 2 * hd, 2 * hw * 2 * hd])
    face = rng.choice(6, size=count, p=areas / areas.sum())
    a = rng.uniform(-1.0, 1.0, size=count)
    b = rng.uniform(-1.0, 1.0, size=count)
    pts = np.empty((count, 3))
    pts[face == 0] = np.stack([np.full((face == 0).sum(), hw), a[face == 0] * hd, (b[face == 0] + 1) * zt / 2], axis=1)
    pts[face == 1] = np.stack([np.full((face == 1).sum(), -hw), a[face == 1] * hd, (b[face == 1] + 1) * zt / 2], axis=1)
    pts[face == 2] = np.stack([a[face == 2] * hw, np.full((face == 2).sum(), hd), (b[face == 2] + 1) * zt / 2], axis=1)
    pts[face == 3] = np.stack([a[face == 3] * hw, np.full((face == 3).sum(), -hd), (b[face == 3] + 1) * zt / 2], axis=1)
    pts[face == 4] = np.stack([a[face == 4] * hw, b[face == 4] * hd, np.zeros((face == 4).sum())], axis=1)
    pts[face == 5] = np.stack([a[face == 5] * hw, b[face == 5] * hd, np.full((face == 5).sum(), zt)], axis=1)
    return pts


def _sample_object_landmarks(rng, count):
    """Blobby object: unit sphere with radial noise."""
    v = rng.normal(size=(count, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    r = 1.0 + rng.uniform(-0.15, 0.15, size=count)
    return v * r[:, None]


def _resample_through_cameras(rng, cameras, count, layout):
    """Draw surface points on rays through random pixels of random cameras.

    Starved landmarks resampled uniformly over the whole surface may never
    enter any frustum (narrow camera arcs); casting rays guarantees each
    draw is visible from at least its source camera.
    """
    cam_idx = rng.integers(0, len(cameras), size=count)
    out = np.empty((count, 3))
    for n, ci in enumerate(cam_idx):
        cam = cameras[int(ci)]
        k = cam.intrinsics
        u = rng.uniform(0, k.width - 1)
        v = rng.uniform(0, k.height - 1)
        d = cam.pose.rotation.T @ np.array([(u - k.cx) / k.fx, (v - k.cy) / k.fy, 1.0])
        o = cam.pose.center
        if layout == "room":
            # exit point of the ray from inside the box [-4,4]x[-4,4]x[0,3]
            ts = []
            for axis, (lo_b, hi_b) in enumerate(((-4.0, 4.0), (-4.0, 4.0), (0.0, 3.0))):
                if d[axis] > 1e-12:
                    ts.append((hi_b - o[axis]) / d[axis])
                elif d[axis] < -1e-12:
                    ts.append((lo_b - o[axis]) / d[axis])
            out[n] = o + min(ts) * d
        else:
            # nearest intersection with the blob sphere; fall back to the
            # point of closest approach projected onto the surface
            r = 1.0 + rng.uniform(-0.15, 0.15)
            d = d / np.linalg.norm(d)
            b = float(d @ o)
            disc = b * b - float(o @ o) + r * r
            if disc > 0:
                t = -b - np.sqrt(disc)
                p = o + max(t, 0.0) * d
            else:
                p = o - b * d
            out[n] = p / np.linalg.norm(p) * r
    return out


def generate_scene(
    seed: int,
    n_cameras: int = 20,
    n_landmarks: int = 3000,
    layout: str = "room",
    image_size: tuple[int, int] = (64, 48),
) -> SyntheticScene:
    """Deterministic scene with every landmark visible from >= 2 cameras.

    Landmarks seen by fewer than 2 cameras are resampled (up to 100
    attempts); if the constraint cannot be met, or some camera ends up
    seeing fewer than 50 landmarks, generation fails.
    """
    if n_cameras < 2:
        raise ConfigError(f"need at least 2 cameras, got {n_cameras}")
    if n_landmarks < 1:
        raise ConfigError(f"need at least 1 landmark, got {n_landmarks}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if layout not in ("room", "object"):
        raise ConfigError(f"unknown layout {layout!r}, expected 'room' or 'object'")
    rng = np.random.default_rng(seed)

    if layout == "room":
        sampler = _sample_room_landmarks
        diameter = float(np.linalg.norm([8.0, 8.0, 3.0]))
        ring = dict(radius=2.2, height=1.5, look_inward=False)
    else:
        sampler = _sample_object_landmarks
        diameter = 2.3 + 6.0  # blob extent plus the camera ring
        ring = dict(radius=3.0, height=0.0, look_inward=True)

    cameras = _camera_ring(rng, n_cameras, image_size, diameter=diameter, **ring)
    landmarks = sampler(rng, n_landmarks)

    visibility = np.zeros((n_cameras, n_landmarks), dtype=bool)
    for attempt in range(_RESAMPLE_ATTEMPTS + 1):
        visibility[:] = False
        for ci, cam in enumerate(cameras):
            _, winners, _ = _splat(cam, landmarks)
            visibility[ci, winners] = True
        starved = np.nonzero(visibility.sum(axis=0) < 2)[0]
        if len(starved) == 0:
            break
        if attempt == _RESAMPLE_ATTEMPTS:
            raise GenerationFailureError(
                f"{len(starved)} landmarks still seen by < 2 cameras after {_RESAMPLE_ATTEMPTS} resamples"
            )
        landmarks[starved] = _resample_through_cameras(rng, cameras, len(starved), layout)

    per_camera = visibility.sum(axis=1)
    if per_camera.min() < _MIN_LANDMARKS_PER_CAMERA:
        worst = int(np.argmin(per_camera))
        raise GenerationFailureError(
            f"camera {worst} sees only {int(per_camera[worst])} landmarks "
            f"(need {_MIN_LANDMARKS_PER_CAMERA}); increase n_landmarks"
        )

    return SyntheticScene(
        seed=seed,
        layout=layout,
        landmarks=landmarks,
        gt_cameras=cameras,
        image_size=image_size,
        visibility=visibility,
    )


def _draw_warp(rng, noise: tuple[float, float, float]) -> Sim3Transform:
    s_frac, rot_deg, t_units = noise
    scale = 1.0 + float(rng.uniform(-s_frac, s_frac))
    axis = rng.normal(size=3)
    angle = float(rng.uniform(0.0, np.radians(rot_deg)))
    rot = rotation_from_axis_angle(axis, angle)
    trans = rng.uniform(-1.0, 1.0, size=3) * t_units
    return Sim3Transform(scale=scale, rotation=rot, translation=trans)


def render_cluster(
    scene: SyntheticScene,
    subset,
    perturb: PerturbationSpec,
    cluster_id: int = 0,
) -> tuple[ClusterReconstruction, Sim3Transform]:
    """Simulated foundation-model output for one subset of frames.

    Renders ground-truth depth, multiplies by log-normal noise, derives
    confidences from the injected noise, then warps the whole cluster by a
    random Sim(3) gauge. Returns the cluster and the injected warp (which
    maps ground-truth coordinates into the cluster frame). The RNG derives
    from (scene seed, cluster_id), so re-rendering is bit-identical.
    """
    subset = [int(i) for i in np.asarray(subset).reshape(-1)]
    for i in subset:
        if not (0 <= i < scene.n_cameras):
            raise ConfigError(f"subset frame {i} outside 0..{scene.n_cameras - 1}")
    rng = np.random.default_rng(np.random.SeedSequence((scene.seed, 7919, cluster_id)))
    warp = _draw_warp(rng, perturb.per_cluster_sim3_noise)

    cameras, depths, confs = [], [], []
    for fi in subset:
        gt_cam = scene.gt_cameras[fi]
        depth, _, _ = _splat(gt_cam, scene.landmarks)
        g = rng.normal(0.0, 1.0, size=depth.shape) * perturb.depth_noise_sigma
        factor = np.exp(g).astype(np.float64)
        valid = depth > 0
        noisy = np.where(valid, depth * factor, 0.0)
        conf = np.where(valid, 1.0 / (1.0 + np.abs(factor - 1.0) * 100.0), 0.0)
        cameras.append(transform_camera(warp, gt_cam))
        depths.append((warp.scale * noisy).astype(np.float32))
        confs.append(conf.astype(np.float32))

    cluster = ClusterReconstruction(
        cluster_id=cluster_id,
        frame_ids=subset,
        cameras=cameras,
        depths=depths,
        confidences=confs,
    )
    return cluster, warp


def synthetic_similarity(scene: SyntheticScene) -> SimilarityMatrix:
    """Co-visibility proxy: |V_i and V_j| / sqrt(|V_i| |V_j|), unit diagonal."""
    v = scene.visibility.astype(np.float64)
    counts = v @ v.T
    norm = np.sqrt(np.outer(counts.diagonal(), counts.diagonal()))
    m = counts / norm
    np.fill_diagonal(m, 1.0)
    return SimilarityMatrix(m)


def synthetic_matcher(scene: SyntheticScene, perturb: PerturbationSpec):
    """Pluggable matcher: (frame_i, frame_j) -> MatchSet.

    Projects every co-visible landmark into both views at exact subpixel
    positions, adds Gaussian pixel noise, and replaces a fraction of pairs
    with uniform random pixels (gross outliers). Deterministic per
    unordered frame pair; invariant to any injected cluster warps since it
    works in ground-truth geometry, as a real image matcher would be. Like
    any matcher it returns every pair it finds; run_tracking applies the
    one keypoint cap.
    """
    from .tracking import MatchSet

    w, h = scene.image_size

    def match(frame_i: int, frame_j: int) -> MatchSet:
        lo, hi = (frame_i, frame_j) if frame_i < frame_j else (frame_j, frame_i)
        rng = np.random.default_rng(np.random.SeedSequence((scene.seed, 104729, lo, hi)))
        shared = np.nonzero(scene.visibility[lo] & scene.visibility[hi])[0]
        pts = scene.landmarks[shared]
        uv = {f: project_points(pts, scene.gt_cameras[f])[0] for f in (lo, hi)}
        if perturb.match_pixel_noise_sigma > 0:
            uv[lo] = uv[lo] + rng.normal(0, perturb.match_pixel_noise_sigma, size=uv[lo].shape)
            uv[hi] = uv[hi] + rng.normal(0, perturb.match_pixel_noise_sigma, size=uv[hi].shape)
        n_out = int(np.floor(perturb.outlier_match_fraction * len(shared)))
        if n_out > 0:
            which = rng.choice(len(shared), size=n_out, replace=False)
            uv[lo][which] = rng.uniform([0, 0], [w - 1, h - 1], size=(n_out, 2))
            uv[hi][which] = rng.uniform([0, 0], [w - 1, h - 1], size=(n_out, 2))
        if frame_i == lo:
            return MatchSet(frame_i=lo, frame_j=hi, pixels_i=uv[lo], pixels_j=uv[hi])
        return MatchSet(frame_i=hi, frame_j=lo, pixels_i=uv[hi], pixels_j=uv[lo])

    return match


def write_scene(
    scene_dir,
    scene: SyntheticScene,
    clusters: list[ClusterReconstruction],
    similarity: SimilarityMatrix,
    warps: list[Sim3Transform] | None = None,
) -> Path:
    """Write the full interchange layout (manifest, tensors, clusters, gt/).

    Returns the manifest path. The gt/ subdirectory carries ground-truth
    poses, the landmark cloud, and the injected warps for evaluation.
    """
    from .clusters import write_cluster
    from .io_formats import transform_record_from_sim3, write_transforms

    scene_dir = Path(scene_dir)
    scene_dir.mkdir(parents=True, exist_ok=True)
    write_tensor(scene_dir / "similarity.mrgt", similarity.values.astype(np.float32))
    entries = [write_cluster(scene_dir, c) for c in clusters]
    w, h = scene.image_size
    manifest = SceneManifest(
        images=[ImageEntry(frame_id=i, width=w, height=h) for i in range(scene.n_cameras)],
        clusters=entries,
        similarity_path="similarity.mrgt",
    )
    manifest_path = scene_dir / "manifest.json"
    write_manifest(manifest_path, manifest)
    gt_dir = scene_dir / "gt"
    gt_dir.mkdir(exist_ok=True)
    write_poses(gt_dir / "poses.json", [pose_record_from_camera(c) for c in scene.gt_cameras])
    write_ply(gt_dir / "landmarks.ply", scene.gt_pointcloud())
    if warps is not None:
        write_transforms(
            gt_dir / "warps.json",
            [transform_record_from_sim3(c.cluster_id, t) for c, t in zip(clusters, warps)],
        )
    return manifest_path
