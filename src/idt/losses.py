"""Training objectives: recomposition operator and the five loss terms.

Every loss accepts numpy arrays or ndtensor Tensors interchangeably and
returns a scalar Tensor, so the same code serves gradient-based training
and plain evaluation. Reductions are means over pixels and channels, which
keeps values resolution-independent; the illumination loss is a sum over
its fixed-size parameter vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ndtensor as nd
from . import sglight
from .ndtensor import Tensor

LOSS_TERMS = ("alb", "diff", "spec", "recon", "illum")


@dataclass(frozen=True)
class LossConfig:
    eps: float = 1e-4
    weight_alb: float = 1.0
    weight_diff: float = 1.0
    weight_spec: float = 1.0
    weight_recon: float = 1.0
    weight_illum: float = 0.1

    def validate(self) -> None:
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        for name in ("alb", "diff", "spec", "recon", "illum"):
            if getattr(self, f"weight_{name}") < 0:
                raise ValueError(f"weight_{name} must be nonnegative")

    def weight(self, term: str) -> float:
        return getattr(self, f"weight_{term}")


def recompose(albedo, s_diff, s_spec) -> Tensor:
    """albedo * s_diff + s_spec, elementwise; the formation identity."""
    a, d, s = nd.as_tensor(albedo), nd.as_tensor(s_diff), nd.as_tensor(s_spec)
    if not (a.shape == d.shape == s.shape):
        raise ValueError(f"shape mismatch: {a.shape}, {d.shape}, {s.shape}")
    if a.shape[-1] != 3:
        raise ValueError("expected 3 channels on the last axis")
    return a * d + s


def loss_albedo(pred, gt) -> Tensor:
    """Mean absolute difference; keeps material boundaries sharp."""
    p, g = nd.as_tensor(pred), nd.as_tensor(gt)
    if p.shape != g.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {g.shape}")
    return nd.tmean(nd.tabs(p - g))


def loss_shading_log(pred, gt, eps: float = 1e-4) -> Tensor:
    """Mean squared log difference, used for both shading factors.

    Relative-intensity error: exactly invariant to common positive
    rescaling of pred and gt when eps is 0.
    """
    p, g = nd.as_tensor(pred), nd.as_tensor(gt).data
    if p.shape != g.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {g.shape}")
    if np.min(p.data) < 0 or np.min(g) < 0:
        raise ValueError("shading losses require nonnegative inputs")
    # the target is a constant: its log stays off the tape
    diff = nd.tlog(p + eps) - Tensor(np.log(g + eps))
    return nd.tmean(diff * diff)


def loss_recon(albedo, s_diff, s_spec, images) -> Tensor:
    """Per-view mean |recompose - image|, averaged over views.

    Views share one resolution, so this equals a single global mean over
    the stacked [V, H, W, 3] arrays.
    """
    a, i = nd.as_tensor(albedo), nd.as_tensor(images)
    if a.ndim != 4 or i.ndim != 4:
        raise ValueError("loss_recon expects stacked [V, H, W, 3] inputs")
    if a.shape[0] != i.shape[0]:
        raise ValueError(f"view-count mismatch: {a.shape[0]} vs {i.shape[0]}")
    r = recompose(a, s_diff, s_spec)
    if r.shape != i.shape:
        raise ValueError(f"shape mismatch: {r.shape} vs {i.shape}")
    return nd.tmean(nd.tabs(r - i))


def _illum_vec_loss(pred_vec: Tensor, gt_vec: np.ndarray, k: int) -> Tensor:
    """Squared distance in packed parameter space.

    Axis slots use 1 - dot(axis_pred, axis_gt) per lobe (both unit), the
    remaining slots (inverse-softplus sharpness, amplitudes, ambient) use
    squared differences; contributions are summed, so a single 90-degree
    axis rotation contributes exactly 1.
    """
    axis_mask = np.zeros(7 * k + 3)
    axis_mask[:7 * k].reshape(k, 7)[:, :3] = 1.0
    diff = pred_vec - Tensor(gt_vec)
    return ((k - (pred_vec * Tensor(gt_vec * axis_mask)).sum())
            + (diff * diff * Tensor(1.0 - axis_mask)).sum())


def loss_illum_packed(pred_vec: Tensor, gt: sglight.SGMixture) -> Tensor:
    """Parameter-space distance from a packed prediction to a mixture.

    `pred_vec` is the canonical pack-space Tensor (axes already unit and
    lobes in canonical order), as produced by the conditioning helper or
    by Tensor(sglight.pack(m)) for a mixture m; `gt` is canonicalized by
    packing, so a lobe permutation costs nothing.
    """
    if pred_vec.shape != (7 * gt.k + 3,):
        raise ValueError(f"expected packed length {7 * gt.k + 3}, "
                         f"got {pred_vec.shape}")
    return _illum_vec_loss(pred_vec, sglight.pack(gt), gt.k)


def loss_total(intrinsics: dict, ground_truth: dict, images,
               cfg: LossConfig | None = None):
    """Weighted sum of the five terms plus a per-term breakdown.

    `intrinsics`: albedo / s_diff / s_spec Tensors or arrays and the
    packed illumination Tensor under illum_cond, as `model.forward`
    returns them. `ground_truth`: albedo / s_diff / s_spec arrays and the
    illumination SGMixture, as `stack_ground_truth` returns them. Returns
    (total, breakdown) where breakdown maps term name to its unweighted
    scalar Tensor.
    """
    cfg = cfg or LossConfig()
    cfg.validate()
    pa, pd, ps = (intrinsics[k] for k in ("albedo", "s_diff", "s_spec"))
    breakdown = {
        "alb": loss_albedo(pa, ground_truth["albedo"]),
        "diff": loss_shading_log(pd, ground_truth["s_diff"], cfg.eps),
        "spec": loss_shading_log(ps, ground_truth["s_spec"], cfg.eps),
        "recon": loss_recon(pa, pd, ps, images),
        "illum": loss_illum_packed(intrinsics["illum_cond"],
                                   ground_truth["illumination"]),
    }
    total = None
    for term, value in breakdown.items():
        piece = value * cfg.weight(term)
        total = piece if total is None else total + piece
    return total, breakdown


def loss_depth_log(pred, gt) -> Tensor:
    """Auxiliary depth term: mean |log pred - log gt| over pixels whose
    ground-truth depth is finite (background depth is +inf by convention).

    Returns 0 when no pixel has finite ground truth.
    """
    p = nd.as_tensor(pred)
    g = np.asarray(gt, dtype=np.float64)
    if p.shape != g.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {g.shape}")
    if np.min(p.data) <= 0:
        raise ValueError("predicted depth must be positive")
    mask = np.isfinite(g) & (g > 0)
    count = int(mask.sum())
    if count == 0:
        return Tensor(0.0)
    g_safe = np.where(mask, g, 1.0)
    diff = nd.tabs(nd.tlog(p) - Tensor(np.log(g_safe))) * Tensor(mask.astype(np.float64))
    return diff.sum() / float(count)


def stack_ground_truth(batch) -> dict:
    """Stack a synthetic batch's per-frame layers into loss-ready arrays."""
    frames = batch.frames
    return {
        "albedo": np.stack([f.albedo for f in frames]),
        "s_diff": np.stack([f.s_diff for f in frames]),
        "s_spec": np.stack([f.s_spec for f in frames]),
        "depth": np.stack([f.depth for f in frames]),
        "illumination": batch.illumination,
    }


def format_loss_line(step: int, total, breakdown: dict,
                     depth=None) -> str:
    """One comma-separated line per step: step, total, alb, diff, spec,
    recon, illum; a trailing depth column appears when the auxiliary depth
    loss is active. Missing terms print as nan."""
    def val(x):
        if x is None:
            return float("nan")
        return float(x.data) if isinstance(x, Tensor) else float(x)

    cols = [f"{step}", f"{val(total):.10g}"]
    for term in LOSS_TERMS:
        cols.append(f"{val(breakdown.get(term)):.10g}")
    if depth is not None:
        cols.append(f"{val(depth):.10g}")
    return ", ".join(cols)
