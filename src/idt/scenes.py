"""Procedural multi-view synthetic scenes with exact intrinsic ground truth.

Scenes are analytic arrangements of textured planes and spheres lit by a
spherical Gaussian mixture, ray-cast without global illumination so every
pixel satisfies the formation identity

    image = albedo * s_diff + s_spec

bitwise by construction. Background pixels (rays that miss everything) get
albedo 0, s_diff 0, s_spec equal to the ambient-free environment radiance
along the ray, and depth +inf, so the identity covers the whole frame.

All generation is a pure function of (seed, config): the same inputs
reproduce every float and every written byte.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import sglight
from .ioutil import atomic_write_text, parse_kv_lines
from .pfm import read_pfm, write_pfm

MANIFEST_FORMAT = "IDTDATA1"
HIT_EPS = 1e-6  # minimum ray parameter, rejects self-hits at the origin


# cameras ---------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Camera:
    """Pinhole camera: world-to-camera rotation/translation plus intrinsics.

    Convention: x right, y up, z forward (looking direction), proper
    rotation (det +1). Pixel (row i, col j) has center (j+0.5, i+0.5).
    """

    rotation: np.ndarray     # 3x3 world-to-camera
    translation: np.ndarray  # 3-vector, camera = R @ world + t
    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        r = np.array(self.rotation, dtype=np.float64)
        t = np.array(self.translation, dtype=np.float64)
        if r.shape != (3, 3) or t.shape != (3,):
            raise ValueError("rotation must be 3x3 and translation a 3-vector")
        if np.abs(r @ r.T - np.eye(3)).max() > 1e-9:
            raise ValueError("rotation must be orthonormal within 1e-9")
        if np.linalg.det(r) < 0.0:
            raise ValueError("rotation must have determinant +1")
        for name in ("fx", "fy", "cx", "cy"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (self.fx > 0.0 and self.fy > 0.0):
            raise ValueError("focal lengths must be positive")
        r.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @property
    def position(self) -> np.ndarray:
        """Camera center in world coordinates."""
        return -self.rotation.T @ self.translation


def project_batch(camera: Camera, points: np.ndarray):
    """World points [M, 3] -> (pixel xy [M, 2], z-depth [M], valid [M]).

    Points at or behind the camera plane (depth <= 0) are flagged invalid
    and get NaN pixel coordinates rather than being silently projected;
    the returned depth carries the sign.
    """
    pts = np.asarray(points, dtype=np.float64)
    pc = pts @ camera.rotation.T + camera.translation
    depth = pc[:, 2]
    valid = depth > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        pix = np.stack([camera.fx * pc[:, 0] / depth + camera.cx,
                        camera.fy * pc[:, 1] / depth + camera.cy], axis=1)
    pix[~valid] = np.nan
    return pix, depth, valid


def unproject_batch(camera: Camera, pixels: np.ndarray,
                    depths: np.ndarray) -> np.ndarray:
    """Pixel xy [M, 2] plus positive z-depths [M] -> world points [M, 3];
    inverse of project_batch."""
    px = np.asarray(pixels, dtype=np.float64)
    d = np.asarray(depths, dtype=np.float64)
    if not np.all(d > 0.0):
        raise ValueError("depths must be positive")
    pc = np.stack([(px[:, 0] - camera.cx) / camera.fx * d,
                   (px[:, 1] - camera.cy) / camera.fy * d,
                   d], axis=1)
    return (pc - camera.translation) @ camera.rotation


def look_at(eye, target, up=(0.0, 1.0, 0.0)) -> tuple:
    """World-to-camera (rotation, translation) looking from eye to target."""
    eye = np.asarray(eye, dtype=np.float64)
    fwd = np.asarray(target, dtype=np.float64) - eye
    fwd = fwd / np.linalg.norm(fwd)
    up = np.asarray(up, dtype=np.float64)
    right = np.cross(up, fwd)
    nr = np.linalg.norm(right)
    if nr < 1e-9:  # looking straight along up; pick any perpendicular
        right = np.cross(np.array([1.0, 0.0, 0.0]), fwd)
        nr = np.linalg.norm(right)
    right = right / nr
    upv = np.cross(fwd, right)
    rot = np.stack([right, upv, fwd])
    return rot, -rot @ eye


def camera_from_fov(eye, target, height: int, width: int,
                    fov_degrees: float) -> Camera:
    rot, t = look_at(eye, target)
    f = 0.5 * width / math.tan(math.radians(fov_degrees) / 2.0)
    return Camera(rot, t, f, f, width / 2.0, height / 2.0)


# primitives ------------------------------------------------------------------


def _validate_albedo(c, name):
    v = np.array(c, dtype=np.float64)
    if v.shape != (3,) or np.any(v < 0.0) or np.any(v > 1.0):
        raise ValueError(f"{name} must be an RGB triple in [0,1]")
    v.flags.writeable = False
    return v


@dataclass(frozen=True, eq=False)
class Plane:
    """Finite rectangle: center point, unit normal, in-plane unit axes u/v
    with half extents, solid or checker albedo, glossiness."""

    point: np.ndarray
    normal: np.ndarray
    u_axis: np.ndarray
    v_axis: np.ndarray
    half_u: float
    half_v: float
    albedo_a: np.ndarray
    albedo_b: np.ndarray
    checker_cells: int  # 0 means solid albedo_a
    gloss: float

    def __post_init__(self):
        for name in ("point", "normal", "u_axis", "v_axis"):
            v = np.array(getattr(self, name), dtype=np.float64)
            if v.shape != (3,):
                raise ValueError(f"{name} must be a 3-vector")
            v.flags.writeable = False
            object.__setattr__(self, name, v)
        for name in ("normal", "u_axis", "v_axis"):
            if abs(np.linalg.norm(getattr(self, name)) - 1.0) > 1e-9:
                raise ValueError(f"{name} must be unit length")
        if (abs(self.normal @ self.u_axis) > 1e-9
                or abs(self.normal @ self.v_axis) > 1e-9
                or abs(self.u_axis @ self.v_axis) > 1e-9):
            raise ValueError("normal, u_axis, v_axis must be orthogonal")
        object.__setattr__(self, "albedo_a", _validate_albedo(self.albedo_a, "albedo_a"))
        object.__setattr__(self, "albedo_b", _validate_albedo(self.albedo_b, "albedo_b"))
        if not (self.half_u > 0.0 and self.half_v > 0.0):
            raise ValueError("half extents must be positive")
        if self.checker_cells < 0:
            raise ValueError("checker_cells must be >= 0")
        if not self.gloss > 0.0:
            raise ValueError("gloss must be positive")

    def intersect(self, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        denom = dirs @ self.normal
        with np.errstate(divide="ignore", invalid="ignore"):
            s = ((self.point - origin) @ self.normal) / denom
        p = origin + s[:, None] * dirs
        rel = p - self.point
        inside = ((np.abs(rel @ self.u_axis) <= self.half_u)
                  & (np.abs(rel @ self.v_axis) <= self.half_v))
        ok = (np.abs(denom) > 1e-12) & (s > HIT_EPS) & inside
        return np.where(ok, s, np.inf)

    def normal_at(self, points: np.ndarray) -> np.ndarray:
        return np.broadcast_to(self.normal, points.shape).copy()

    def albedo_at(self, points: np.ndarray) -> np.ndarray:
        if self.checker_cells == 0:
            return np.broadcast_to(self.albedo_a, points.shape).copy()
        rel = points - self.point
        cu = 2.0 * self.half_u / self.checker_cells
        cv = 2.0 * self.half_v / self.checker_cells
        iu = np.floor((rel @ self.u_axis + self.half_u) / cu)
        iv = np.floor((rel @ self.v_axis + self.half_v) / cv)
        odd = ((iu + iv) % 2.0) != 0.0
        return np.where(odd[:, None], self.albedo_b, self.albedo_a)


@dataclass(frozen=True, eq=False)
class Sphere:
    """Sphere with solid or latitude/longitude checker albedo."""

    center: np.ndarray
    radius: float
    albedo_a: np.ndarray
    albedo_b: np.ndarray
    checker_cells: int  # 0 means solid albedo_a
    gloss: float

    def __post_init__(self):
        c = np.array(self.center, dtype=np.float64)
        if c.shape != (3,):
            raise ValueError("center must be a 3-vector")
        c.flags.writeable = False
        object.__setattr__(self, "center", c)
        if not self.radius > 0.0:
            raise ValueError("radius must be positive")
        object.__setattr__(self, "albedo_a", _validate_albedo(self.albedo_a, "albedo_a"))
        object.__setattr__(self, "albedo_b", _validate_albedo(self.albedo_b, "albedo_b"))
        if self.checker_cells < 0:
            raise ValueError("checker_cells must be >= 0")
        if not self.gloss > 0.0:
            raise ValueError("gloss must be positive")

    def intersect(self, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        oc = origin - self.center
        a = np.einsum("md,md->m", dirs, dirs)
        b = dirs @ oc
        c = oc @ oc - self.radius * self.radius
        disc = b * b - a * c
        hit = disc >= 0.0
        sq = np.sqrt(np.where(hit, disc, 0.0))
        near = (-b - sq) / a
        far = (-b + sq) / a
        s = np.where(near > HIT_EPS, near, far)  # far root if inside
        ok = hit & (s > HIT_EPS)
        return np.where(ok, s, np.inf)

    def normal_at(self, points: np.ndarray) -> np.ndarray:
        return (points - self.center) / self.radius

    def albedo_at(self, points: np.ndarray) -> np.ndarray:
        if self.checker_cells == 0:
            return np.broadcast_to(self.albedo_a, points.shape).copy()
        n = self.normal_at(points)
        theta = np.arccos(np.clip(n[:, 2], -1.0, 1.0))
        phi = np.arctan2(n[:, 1], n[:, 0])
        cell = math.pi / self.checker_cells
        it = np.floor(theta / cell)
        ip = np.floor((phi + math.pi) / cell)
        odd = ((it + ip) % 2.0) != 0.0
        return np.where(odd[:, None], self.albedo_b, self.albedo_a)


# scene specification ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SceneSpec:
    primitives: tuple
    illumination: sglight.SGMixture
    seed: int

    def __post_init__(self):
        prims = tuple(self.primitives)
        if not prims:
            raise ValueError("scene needs at least one primitive")
        for p in prims:
            if not isinstance(p, (Plane, Sphere)):
                raise TypeError(f"unsupported primitive {type(p).__name__}")
        object.__setattr__(self, "primitives", prims)
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True, eq=False)
class GroundTruthFrame:
    image: np.ndarray   # H x W x 3 linear RGB
    albedo: np.ndarray  # H x W x 3 in [0,1]
    s_diff: np.ndarray  # H x W x 3 >= 0
    s_spec: np.ndarray  # H x W x 3 >= 0
    depth: np.ndarray   # H x W, +inf on background
    camera: Camera

    def __post_init__(self):
        h, w = self.depth.shape
        for name in ("image", "albedo", "s_diff", "s_spec"):
            if getattr(self, name).shape != (h, w, 3):
                raise ValueError(f"{name} must be {h}x{w}x3")


@dataclass(frozen=True, eq=False)
class MultiViewBatch:
    frames: tuple
    illumination: sglight.SGMixture

    def __post_init__(self):
        frames = tuple(self.frames)
        if len(frames) < 1:
            raise ValueError("batch needs at least one view")
        object.__setattr__(self, "frames", frames)

    @property
    def v(self) -> int:
        return len(self.frames)

    def images(self) -> np.ndarray:
        return np.stack([f.image for f in self.frames])


# generator configuration ------------------------------------------------------

DEFAULT_PALETTE = (
    (0.84, 0.16, 0.12),
    (0.16, 0.55, 0.83),
    (0.22, 0.69, 0.26),
    (0.91, 0.73, 0.12),
    (0.62, 0.27, 0.70),
    (0.90, 0.47, 0.14),
    (0.88, 0.88, 0.86),
    (0.34, 0.32, 0.30),
)


@dataclass(frozen=True)
class SceneConfig:
    """Bounds for procedural scene sampling."""

    min_primitives: int = 2  # total count, backdrop included
    max_primitives: int = 4
    lobe_count: int = 3
    sharpness_range: tuple = (2.0, 30.0)
    amplitude_range: tuple = (0.15, 0.9)
    ambient_range: tuple = (0.02, 0.2)
    gloss_range: tuple = (20.0, 80.0)
    checker_prob: float = 0.5
    palette: tuple = DEFAULT_PALETTE

    def validate(self) -> None:
        if not (1 <= self.min_primitives <= self.max_primitives):
            raise ValueError("need 1 <= min_primitives <= max_primitives")
        if self.lobe_count < 1:
            raise ValueError("lobe_count must be >= 1")
        for name in ("sharpness_range", "amplitude_range", "ambient_range",
                     "gloss_range"):
            lo, hi = getattr(self, name)
            if not (0.0 <= lo <= hi):
                raise ValueError(f"{name} must satisfy 0 <= lo <= hi")
        if self.sharpness_range[0] <= 0.0 or self.gloss_range[0] <= 0.0:
            raise ValueError("sharpness and gloss must be strictly positive")
        if not (0.0 <= self.checker_prob <= 1.0):
            raise ValueError("checker_prob must be in [0,1]")
        if len(self.palette) < 2:
            raise ValueError("palette needs at least two colors")
        for c in self.palette:
            _validate_albedo(c, "palette color")


@dataclass(frozen=True)
class DatasetConfig:
    """Shape of a generated multi-view dataset."""

    scenes: int = 16
    views: int = 4
    height: int = 64
    width: int = 64
    seed: int = 0
    arc_radius: float = 4.5
    arc_span: float = 0.35  # radians across all views
    elevation: float = 0.25
    fov_degrees: float = 50.0
    overwrite: bool = False
    scene: SceneConfig = field(default_factory=SceneConfig)

    def validate(self) -> None:
        if self.scenes < 1:
            raise ValueError("scenes must be >= 1")
        if self.views < 2:
            raise ValueError("views must be >= 2")
        if self.height < 8 or self.width < 8:
            raise ValueError("resolution must be at least 8x8")
        if not self.arc_radius > 0.0:
            raise ValueError("arc_radius must be positive")
        if not 0.0 < self.fov_degrees < 180.0:
            raise ValueError("fov_degrees must be in (0, 180)")
        self.scene.validate()


# scene generation -------------------------------------------------------------


def _unit_toward_camera(rng) -> np.ndarray:
    # random unit vector in the +z half space, where the camera arc lives
    v = rng.standard_normal(3)
    v[2] = abs(v[2]) + 0.2
    return v / np.linalg.norm(v)


def _pick_colors(rng, config: SceneConfig):
    palette = config.palette
    ia = int(rng.integers(len(palette)))
    checker = rng.random() < config.checker_prob
    if checker:
        ib = int(rng.integers(len(palette) - 1))
        if ib >= ia:
            ib += 1  # distinct second color
        cells = int(rng.integers(2, 7))
        return palette[ia], palette[ib], cells
    return palette[ia], palette[ia], 0


def generate_scene(seed: int, config: SceneConfig = SceneConfig()) -> SceneSpec:
    """Sample a SceneSpec deterministically from a 64-bit seed."""
    config.validate()
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))

    lo, hi = config.sharpness_range
    lobes = []
    for _ in range(config.lobe_count):
        sharp = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        lobes.append(sglight.SGLobe(_unit_toward_camera(rng), sharp,
                                    rng.uniform(*config.amplitude_range, 3)))
    mixture = sglight.canonicalize(
        sglight.SGMixture(tuple(lobes), rng.uniform(*config.ambient_range, 3)))

    n_prims = int(rng.integers(config.min_primitives, config.max_primitives + 1))
    prims = []

    # backdrop: large wall behind the objects, facing the camera arc
    ca, cb, cells = _pick_colors(rng, config)
    prims.append(Plane(
        point=np.array([0.0, 0.0, -1.5]),
        normal=np.array([0.0, 0.0, 1.0]),
        u_axis=np.array([1.0, 0.0, 0.0]),
        v_axis=np.array([0.0, 1.0, 0.0]),
        half_u=4.0, half_v=4.0,
        albedo_a=ca, albedo_b=cb, checker_cells=cells,
        gloss=float(rng.uniform(*config.gloss_range))))

    for _ in range(n_prims - 1):
        ca, cb, cells = _pick_colors(rng, config)
        gloss = float(rng.uniform(*config.gloss_range))
        if rng.random() < 0.6:
            center = np.array([rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9),
                               rng.uniform(-0.6, 0.6)])
            prims.append(Sphere(center, float(rng.uniform(0.35, 0.75)),
                                ca, cb, cells, gloss))
        else:
            point = np.array([rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9),
                              rng.uniform(-0.5, 0.5)])
            normal = _unit_toward_camera(rng)
            # in-plane frame with a random roll
            seed_u = _unit_toward_camera(rng)
            u = seed_u - (seed_u @ normal) * normal
            nu = np.linalg.norm(u)
            if nu < 1e-9:
                u = np.cross(normal, np.array([1.0, 0.0, 0.0]))
                nu = np.linalg.norm(u)
            u = u / nu
            v = np.cross(normal, u)
            prims.append(Plane(point, normal, u, v,
                               float(rng.uniform(0.3, 0.8)),
                               float(rng.uniform(0.3, 0.8)),
                               ca, cb, cells, gloss))

    return SceneSpec(tuple(prims), mixture, seed)


def make_arc_cameras(rng, config: DatasetConfig) -> list:
    """Cameras on a small arc around +z, all looking at the origin."""
    cams = []
    v = config.views
    for i in range(v):
        frac = 0.5 if v == 1 else i / (v - 1)
        theta = (frac - 0.5) * config.arc_span + rng.uniform(-0.02, 0.02)
        elev = config.elevation + rng.uniform(-0.05, 0.05)
        eye = config.arc_radius * np.array([
            math.sin(theta) * math.cos(elev),
            math.sin(elev),
            math.cos(theta) * math.cos(elev)])
        cams.append(camera_from_fov(eye, np.zeros(3), config.height,
                                    config.width, config.fov_degrees))
    return cams


# rendering --------------------------------------------------------------------


def render_view(scene: SceneSpec, camera: Camera, resolution) -> GroundTruthFrame:
    """Ray-cast one view; the returned frame satisfies the formation
    identity bitwise (image is computed from the stored factor arrays)."""
    h, w = int(resolution[0]), int(resolution[1])
    if h < 8 or w < 8:
        raise ValueError(f"resolution must be at least 8x8, got {h}x{w}")

    xs = (np.arange(w) + 0.5 - camera.cx) / camera.fx
    ys = (np.arange(h) + 0.5 - camera.cy) / camera.fy
    gx, gy = np.meshgrid(xs, ys)
    d_cam = np.stack([gx.ravel(), gy.ravel(), np.ones(h * w)], axis=1)
    dirs = d_cam @ camera.rotation  # row-wise R^T @ d
    origin = camera.position

    mix = scene.illumination
    depths = np.stack([p.intersect(origin, dirs) for p in scene.primitives])
    prim_idx = np.argmin(depths, axis=0)
    depth = depths[prim_idx, np.arange(h * w)]
    hit = np.isfinite(depth)

    albedo = np.zeros((h * w, 3))
    s_diff = np.zeros((h * w, 3))
    s_spec = np.zeros((h * w, 3))

    for pi, prim in enumerate(scene.primitives):
        sel = hit & (prim_idx == pi)
        if not sel.any():
            continue
        pts = origin + depth[sel, None] * dirs[sel]
        normals = prim.normal_at(pts)
        views = -dirs[sel]
        views = views / np.linalg.norm(views, axis=1, keepdims=True)
        # two-sided shading: flip normals away from the surface's far side
        facing = np.einsum("md,md->m", normals, views)
        normals = np.where(facing[:, None] < 0.0, -normals, normals)

        albedo[sel] = prim.albedo_at(pts)
        if isinstance(prim, Plane):
            # a flat surface has at most two shading normals; integrate once each
            for flipped in (False, True):
                sub = (facing < 0.0) == flipped
                if sub.any():
                    nrm = -prim.normal if flipped else prim.normal
                    irr = sglight.diffuse_irradiance_batch(mix, nrm[None, :])[0]
                    rows = np.where(sel)[0][sub]
                    s_diff[rows] = irr
        else:
            s_diff[sel] = sglight.diffuse_irradiance_batch(mix, normals)
        s_spec[sel] = sglight.specular_response_batch(mix, normals, views,
                                                      prim.gloss)

    bg = ~hit
    if bg.any():
        # environment radiance along the ray, ambient excluded by convention
        rays = dirs[bg] / np.linalg.norm(dirs[bg], axis=1, keepdims=True)
        env = sglight.sg_radiance(mix, rays) - mix.ambient
        s_spec[bg] = np.maximum(env, 0.0)

    image = albedo * s_diff + s_spec
    return GroundTruthFrame(
        image=image.reshape(h, w, 3),
        albedo=albedo.reshape(h, w, 3),
        s_diff=s_diff.reshape(h, w, 3),
        s_spec=s_spec.reshape(h, w, 3),
        depth=depth.reshape(h, w),
        camera=camera)


def render_batch(scene: SceneSpec, cameras, resolution) -> MultiViewBatch:
    frames = tuple(render_view(scene, c, resolution) for c in cameras)
    return MultiViewBatch(frames, scene.illumination)


# dataset layout ----------------------------------------------------------------


def save_camera(path, camera: Camera) -> None:
    """12 pose floats ([R|t], row-major) then fx fy cx cy, one per line."""
    vals = []
    for i in range(3):
        vals.extend(camera.rotation[i])
        vals.append(camera.translation[i])
    vals.extend([camera.fx, camera.fy, camera.cx, camera.cy])
    atomic_write_text(path, "\n".join(f"{v:.17g}" for v in vals) + "\n")


def load_camera(path) -> Camera:
    with open(path) as f:
        vals = [float(ln) for ln in f if ln.strip()]
    if len(vals) != 16:
        raise ValueError(f"{path}: camera file must hold 16 floats")
    pose = np.array(vals[:12]).reshape(3, 4)
    return Camera(pose[:, :3], pose[:, 3], *vals[12:])


def scene_dir_name(index: int) -> str:
    return f"scene_{index:04d}"


def view_dir_name(index: int) -> str:
    return f"view_{index:02d}"


def make_dataset(config: DatasetConfig, out_dir) -> dict:
    """Generate and write a dataset; returns the manifest summary."""
    config.validate()
    out_dir = os.fspath(out_dir)
    if os.path.exists(out_dir) and os.listdir(out_dir) and not config.overwrite:
        raise FileExistsError(f"{out_dir} exists and is not empty; "
                              "set overwrite to regenerate")
    os.makedirs(out_dir, exist_ok=True)

    scene_seeds = np.random.SeedSequence(config.seed).generate_state(
        config.scenes, dtype=np.uint64)
    for i in range(config.scenes):
        scene_seed = int(scene_seeds[i])
        scene = generate_scene(scene_seed, config.scene)
        cam_rng = np.random.default_rng(
            np.random.SeedSequence(scene_seed, spawn_key=(1,)))
        cameras = make_arc_cameras(cam_rng, config)

        sdir = os.path.join(out_dir, scene_dir_name(i))
        os.makedirs(sdir, exist_ok=True)
        sglight.save_sgm(os.path.join(sdir, "sgm.txt"), scene.illumination)
        for vi, cam in enumerate(cameras):
            frame = render_view(scene, cam, (config.height, config.width))
            vdir = os.path.join(sdir, view_dir_name(vi))
            os.makedirs(vdir, exist_ok=True)
            write_pfm(os.path.join(vdir, "image.pfm"), frame.image)
            write_pfm(os.path.join(vdir, "albedo.pfm"), frame.albedo)
            write_pfm(os.path.join(vdir, "sdiff.pfm"), frame.s_diff)
            write_pfm(os.path.join(vdir, "sspec.pfm"), frame.s_spec)
            write_pfm(os.path.join(vdir, "depth.pfm"), frame.depth)
            save_camera(os.path.join(vdir, "camera.txt"), cam)

    summary = {"format": MANIFEST_FORMAT, "scenes": config.scenes,
               "views": config.views, "height": config.height,
               "width": config.width, "seed": config.seed}
    # manifest last: its presence marks a complete dataset
    atomic_write_text(os.path.join(out_dir, "manifest.txt"),
                      "".join(f"{k} = {v}\n" for k, v in summary.items()))
    return summary


def load_manifest(dataset_dir) -> dict:
    path = os.path.join(os.fspath(dataset_dir), "manifest.txt")
    with open(path) as f:
        raw = parse_kv_lines(f.read(), source=path)
    if raw.get("format") != MANIFEST_FORMAT:
        raise ValueError(f"{path}: unsupported dataset format "
                         f"{raw.get('format')!r}")
    out = dict(raw)
    for key in ("scenes", "views", "height", "width", "seed"):
        if key not in raw:
            raise ValueError(f"{path}: missing manifest key {key!r}")
        out[key] = int(raw[key])
    return out


def load_scene(dataset_dir, index: int) -> MultiViewBatch:
    """Load all of one scene's frames."""
    root = os.fspath(dataset_dir)
    manifest = load_manifest(root)
    sdir = os.path.join(root, scene_dir_name(index))
    illumination = sglight.load_sgm(os.path.join(sdir, "sgm.txt"))
    frames = []
    for vi in range(manifest["views"]):
        vdir = os.path.join(sdir, view_dir_name(vi))
        frames.append(GroundTruthFrame(
            image=read_pfm(os.path.join(vdir, "image.pfm")),
            albedo=read_pfm(os.path.join(vdir, "albedo.pfm")),
            s_diff=read_pfm(os.path.join(vdir, "sdiff.pfm")),
            s_spec=read_pfm(os.path.join(vdir, "sspec.pfm")),
            depth=read_pfm(os.path.join(vdir, "depth.pfm")),
            camera=load_camera(os.path.join(vdir, "camera.txt"))))
    return MultiViewBatch(tuple(frames), illumination)
