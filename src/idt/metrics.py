"""Evaluation harness: image metrics, geometric warping, consistency.

All metrics run on linear RGB (no tone mapping anywhere in the toolkit);
the CSV report header records that convention. Warping uses known cameras
and ground-truth depth: predictions are warped into a reference view and
compared where the warp is geometrically valid.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import losses, scenes

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03

# 1% of the generator's typical camera-to-scene distance (~5 units)
DEFAULT_OCCLUSION_TAU = 0.05

# snap sampling coordinates this close to the border into bounds, so an
# identity warp's float rounding cannot mask out edge pixels
_EDGE_SNAP = 1e-9

REPORT_FIELDS = ("scene", "factor", "psnr", "ssim", "mae", "log_rmse",
                 "consistency", "coverage")
REPORT_NOTE = "# all values computed on linear RGB (no tone mapping)"


def _check_pair(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a, b


def psnr(a, b, peak: float = 1.0) -> float:
    """10*log10(peak^2 / MSE); identical inputs give +inf."""
    a, b = _check_pair(a, b)
    if not peak > 0:
        raise ValueError("peak must be positive")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)


def mae(a, b) -> float:
    a, b = _check_pair(a, b)
    return float(np.mean(np.abs(a - b)))


def log_rmse(pred, gt, eps: float = 1e-4) -> float:
    """sqrt(mean squared log difference); log domain suits the wide
    dynamic range of shading factors."""
    p, g = _check_pair(pred, gt)
    if p.min() < 0 or g.min() < 0:
        raise ValueError("log_rmse requires nonnegative inputs")
    d = np.log(p + eps) - np.log(g + eps)
    return float(np.sqrt(np.mean(d * d)))


def _gaussian_window(size: int, sigma: float) -> np.ndarray:
    """Normalized 1-D Gaussian; its outer product is the 2-D SSIM window."""
    x = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return g / g.sum()


def ssim(a, b, peak: float = 1.0) -> float:
    """Mean local SSIM, Gaussian 11x11 window sigma 1.5, K1/K2 0.01/0.03,
    dynamic range `peak`; 'valid' windows only, channels averaged.

    HxW or HxWxC images, or stacks [V, H, W, C] scored as the mean over
    views. The separable window runs as one 1-D pass per image axis over
    all five local statistics at once.
    """
    a, b = _check_pair(a, b)
    if a.ndim == 2:
        a = a[..., None]
        b = b[..., None]
    if a.ndim < 3:
        raise ValueError(f"expected HxW or HxWxC images, got {a.shape}")
    h, w = a.shape[-3:-1]
    if h < SSIM_WINDOW or w < SSIM_WINDOW:
        raise ValueError(f"image {h}x{w} smaller than the "
                         f"{SSIM_WINDOW}x{SSIM_WINDOW} window")
    g = _gaussian_window(SSIM_WINDOW, SSIM_SIGMA)
    a = np.moveaxis(a, -1, -3)
    b = np.moveaxis(b, -1, -3)
    stats = np.stack([a, b, a * a, b * b, a * b])
    for axis in (-1, -2):
        stats = sliding_window_view(stats, SSIM_WINDOW, axis=axis) @ g
    mu_a, mu_b, e_aa, e_bb, e_ab = stats
    c1 = (SSIM_K1 * peak) ** 2
    c2 = (SSIM_K2 * peak) ** 2
    var_a = e_aa - mu_a * mu_a
    var_b = e_bb - mu_b * mu_b
    cov = e_ab - mu_a * mu_b
    num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


# warping ------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class WarpResult:
    warped: np.ndarray      # reference-frame map; 0 where mask is false
    valid_mask: np.ndarray  # H x W booleans


def _bilinear(src: np.ndarray, u: np.ndarray, v: np.ndarray):
    """Sample src at continuous index coords (v rows, u cols).

    Returns (values, finite_and_inbounds mask). Non-finite samples (e.g.
    +inf depth leaking into an interpolation stencil) are masked out, never
    returned as data.
    """
    h, w = src.shape[:2]
    u = np.where(np.abs(u) < _EDGE_SNAP, 0.0, u)
    u = np.where(np.abs(u - (w - 1)) < _EDGE_SNAP, float(w - 1), u)
    v = np.where(np.abs(v) < _EDGE_SNAP, 0.0, v)
    v = np.where(np.abs(v - (h - 1)) < _EDGE_SNAP, float(h - 1), v)
    inb = (u >= 0) & (u <= w - 1) & (v >= 0) & (v <= h - 1)
    uc = np.clip(u, 0, w - 1)
    vc = np.clip(v, 0, h - 1)
    u0 = np.clip(np.floor(uc).astype(int), 0, w - 2) if w > 1 else np.zeros_like(uc, int)
    v0 = np.clip(np.floor(vc).astype(int), 0, h - 2) if h > 1 else np.zeros_like(vc, int)
    fu = uc - u0
    fv = vc - v0
    if src.ndim == 3:
        fu = fu[..., None]
        fv = fv[..., None]
    p00 = src[v0, u0]
    p01 = src[v0, u0 + 1]
    p10 = src[v0 + 1, u0]
    p11 = src[v0 + 1, u0 + 1]
    with np.errstate(invalid="ignore"):
        out = ((1 - fv) * ((1 - fu) * p00 + fu * p01)
               + fv * ((1 - fu) * p10 + fu * p11))
    finite = np.isfinite(out)
    if out.ndim == 3:
        finite = finite.all(axis=-1)
    return out, inb & finite


def warp_to_reference(src_map, src_cam: scenes.Camera, ref_cam: scenes.Camera,
                      ref_depth, occlusion_tau: float = DEFAULT_OCCLUSION_TAU,
                      src_depth=None) -> WarpResult:
    """Warp a source-view map into the reference frame.

    Each reference pixel is unprojected with its ground-truth depth,
    projected into the source camera, and bilinearly sampled. The mask
    requires finite positive reference depth, positive projected source
    depth, in-bounds sampling, and — when `src_depth` is given — agreement
    between the interpolated source depth and the reprojected depth within
    `occlusion_tau` (occlusion test).
    """
    if ref_depth is None:
        raise ValueError("warping requires reference depth")
    src_map = np.asarray(src_map, dtype=np.float64)
    ref_depth = np.asarray(ref_depth, dtype=np.float64)
    h, w = ref_depth.shape
    if src_map.shape[:2] != (h, w):
        raise ValueError(f"map resolution {src_map.shape[:2]} does not "
                         f"match depth {ref_depth.shape}")

    jj, ii = np.meshgrid(np.arange(w), np.arange(h))
    pix = np.stack([jj + 0.5, ii + 0.5], axis=-1).reshape(-1, 2)
    depth_ok = np.isfinite(ref_depth) & (ref_depth > 0)
    d = np.where(depth_ok, ref_depth, 1.0).reshape(-1)

    world = scenes.unproject_batch(ref_cam, pix, d)
    proj, pdepth, front = scenes.project_batch(src_cam, world)
    proj = np.where(front[:, None], proj, 0.5)

    u = (proj[:, 0] - 0.5).reshape(h, w)
    v = (proj[:, 1] - 0.5).reshape(h, w)
    warped, samp_ok = _bilinear(src_map, u, v)
    mask = depth_ok & front.reshape(h, w) & samp_ok

    if src_depth is not None:
        src_depth = np.asarray(src_depth, dtype=np.float64)
        sdepth, s_ok = _bilinear(src_depth, u, v)
        with np.errstate(invalid="ignore"):
            agree = np.abs(sdepth - pdepth.reshape(h, w)) <= occlusion_tau
        mask = mask & s_ok & agree

    if warped.ndim == 3:
        warped = np.where(mask[..., None], warped, 0.0)
    else:
        warped = np.where(mask, warped, 0.0)
    return WarpResult(warped, mask)


@dataclass(frozen=True)
class ConsistencyResult:
    score: float     # mean L1 over valid pixels, averaged over pairs
    coverage: float  # mean valid-pixel fraction over pairs
    pairs: int

    def __float__(self):
        return self.score


def consistency_score(maps, cameras, depths,
                      occlusion_tau: float = DEFAULT_OCCLUSION_TAU
                      ) -> ConsistencyResult:
    """Cross-view agreement of per-view maps under ground-truth warping.

    Each non-reference view is warped into the reference view (view 0 by
    convention) and compared by mean L1 over the valid mask; pair scores
    are averaged. A pair with an empty mask yields NaN (undefined), which
    propagates to the score rather than counting as zero agreement.
    """
    maps = np.stack([np.asarray(m, dtype=np.float64) for m in maps])
    depths = np.stack([np.asarray(d, dtype=np.float64) for d in depths])
    v = maps.shape[0]
    if v < 2:
        raise ValueError("consistency needs at least two views")
    if not (len(cameras) == v and depths.shape[0] == v):
        raise ValueError("views, cameras, and depths must align")

    scores = []
    coverages = []
    for s in range(1, v):
        wr = warp_to_reference(maps[s], cameras[s], cameras[0], depths[0],
                               occlusion_tau, src_depth=depths[s])
        n = int(wr.valid_mask.sum())
        coverages.append(n / wr.valid_mask.size)
        if n == 0:
            scores.append(math.nan)
            continue
        diff = np.abs(wr.warped - maps[0])
        if diff.ndim == 3:
            diff = diff.mean(axis=-1)
        scores.append(float(diff[wr.valid_mask].mean()))
    return ConsistencyResult(float(np.mean(scores)), float(np.mean(coverages)),
                             len(scores))


# batch reports --------------------------------------------------------------


def evaluate_batch(intrinsics, batch: scenes.MultiViewBatch,
                   occlusion_tau: float = DEFAULT_OCCLUSION_TAU,
                   scene_id: int = 0, eps: float = 1e-4) -> list:
    """Metric rows for one scene: one row per factor, fixed schema.

    Factors: albedo, s_diff, s_spec (pixel metrics against ground truth
    plus warped cross-view consistency of the *prediction*), and recon
    (recomposed prediction against the input images). Shading PSNR is
    computed in the log domain; consistency uses ground-truth depth.
    """
    gt = losses.stack_ground_truth(batch)
    images = batch.images()
    cams = [f.camera for f in batch.frames]
    gt_depths = gt["depth"]

    def get(key):
        val = intrinsics.get(key) if isinstance(intrinsics, dict) else \
            getattr(intrinsics, key)
        return np.asarray(val, dtype=np.float64)

    pred = {k: get(k) for k in ("albedo", "s_diff", "s_spec")}
    recon_pred = pred["albedo"] * pred["s_diff"] + pred["s_spec"]

    def stack_metric(fn, a, b):
        return float(np.mean([fn(a[i], b[i]) for i in range(a.shape[0])]))

    def cons(maps):
        if maps.shape[0] < 2:
            return math.nan, math.nan
        res = consistency_score(maps, cams, gt_depths, occlusion_tau)
        return res.score, res.coverage

    rows = []

    def row(factor, a, b, log_domain=False):
        if log_domain:
            p = stack_metric(lambda x, y: psnr(np.log(x + eps), np.log(y + eps),
                                               peak=1.0), a, b)
        else:
            p = stack_metric(psnr, a, b)
        c, cov = cons(a)
        rows.append({
            "scene": scene_id,
            "factor": factor,
            "psnr": p,
            "ssim": ssim(a, b),
            "mae": stack_metric(mae, a, b),
            "log_rmse": stack_metric(lambda x, y: log_rmse(np.clip(x, 0, None),
                                                           np.clip(y, 0, None),
                                                           eps), a, b),
            "consistency": c,
            "coverage": cov,
        })

    row("albedo", pred["albedo"], gt["albedo"])
    row("s_diff", pred["s_diff"], gt["s_diff"], log_domain=True)
    row("s_spec", pred["s_spec"], gt["s_spec"], log_domain=True)
    row("recon", recon_pred, images)
    return rows


def _format_value(x) -> str:
    if isinstance(x, str):
        return x
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.8g}"


def report_csv(rows: list) -> str:
    """Fixed-header CSV; first line documents the color convention."""
    buf = io.StringIO()
    buf.write(REPORT_NOTE + "\n")
    buf.write(",".join(REPORT_FIELDS) + "\n")
    for r in rows:
        buf.write(",".join(_format_value(r[f]) for f in REPORT_FIELDS) + "\n")
    return buf.getvalue()


def report_json(rows: list) -> str:
    """Same fields as the CSV, as a JSON array (inf/nan become strings)."""
    def clean(r):
        out = {}
        for f in REPORT_FIELDS:
            x = r[f]
            if isinstance(x, float) and not math.isfinite(x):
                out[f] = _format_value(x)
            else:
                out[f] = x
        return out

    return json.dumps([clean(r) for r in rows], indent=2) + "\n"
