"""Multi-view intrinsic decomposition network.

A single feed-forward pass maps V images of one scene to per-view albedo,
diffuse shading, specular shading, optional depth, and one shared
illumination mixture:

  * patch embedding with fixed 2D sinusoidal positions, plus one camera
    token and R register tokens per view (same initial values for every
    view — the architecture carries no view-index information, which makes
    view-permutation equivariance exact up to float rounding);
  * an encoder alternating frame-wise self-attention (tokens of each view
    separately) and global self-attention (all views jointly), pre-norm
    residual blocks with GELU MLPs;
  * one appearance adapter per factor (albedo, diffuse, specular,
    illumination): cross-attention whose queries are the view-mean of the
    scene-level tokens (pooled, not learnable) and whose keys/values are
    every patch token of every view;
  * per-patch linear decoders, modulated additively by a projection of the
    adapter context; shading decoders additionally receive a projection of
    the predicted illumination's parameter vector.

Range contracts hold for arbitrary finite parameters: albedo in [0,1]
(sigmoid), shading >= 0 (softplus), depth > 0 (exp).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import ndtensor as nd
from . import sglight
from .ndtensor import Tensor

FACTORS = ("alb", "diff", "spec", "illum")


class NumericalAbort(RuntimeError):
    """A forward stage, loss term or gradient went non-finite; the message
    names the first one. Every command maps it to exit code 4."""


@dataclass(frozen=True)
class ModelConfig:
    patch_size: int = 8
    embed_dim: int = 64
    block_pairs: int = 4
    heads: int = 4
    register_count: int = 4
    sg_lobes: int = 3
    aux_depth: bool = True

    def validate(self) -> None:
        if self.patch_size < 1 or self.embed_dim < 2 or self.block_pairs < 1:
            raise ValueError("patch_size, embed_dim, block_pairs must be positive")
        if self.heads < 1 or self.embed_dim % self.heads != 0:
            raise ValueError("embed_dim must be divisible by heads")
        if self.embed_dim % 2 != 0:
            raise ValueError("embed_dim must be even (positional encoding)")
        if self.register_count < 1 or self.sg_lobes < 1:
            raise ValueError("register_count and sg_lobes must be >= 1")

    def check_resolution(self, h: int, w: int) -> tuple:
        if h % self.patch_size or w % self.patch_size:
            raise ValueError(f"resolution {h}x{w} not divisible by patch size "
                             f"{self.patch_size}")
        return h // self.patch_size, w // self.patch_size


@dataclass(frozen=True, eq=False)
class TokenSet:
    """Encoder output: [V, 1 + R + Np, d] tokens plus the patch grid shape.

    Per-view layout along axis 1: camera token, R register tokens, then
    the gh*gw patch tokens in row-major grid order. The token sets the
    adapters and heads read are built once per instance and shared.
    """

    tokens: Tensor
    grid: tuple
    register_count: int

    def __post_init__(self):
        gh, gw = self.grid
        expect = 1 + self.register_count + gh * gw
        if self.tokens.ndim != 3 or self.tokens.shape[1] != expect:
            raise ValueError(f"tokens must be [V, {expect}, d], "
                             f"got {self.tokens.shape}")

    @property
    def v(self) -> int:
        return self.tokens.shape[0]

    @cached_property
    def patch_tokens(self) -> Tensor:
        """[V, gh*gw, d]: the patch tokens of every view."""
        return self.tokens[:, 1 + self.register_count:]

    @cached_property
    def scene_query(self) -> Tensor:
        """[1, 1 + R, d]: the view-mean of the camera and register tokens."""
        return self.tokens[:, :1 + self.register_count].mean(axis=0, keepdims=True)

    @cached_property
    def flat_patches(self) -> Tensor:
        """[1, V*gh*gw, d]: every patch token of every view as one set."""
        v, n, d = self.patch_tokens.shape
        return self.patch_tokens.reshape((1, v * n, d))


@dataclass(frozen=True, eq=False)
class AdaptedContext:
    factor: str
    context: Tensor  # [(1 + R), d]


@dataclass(frozen=True, eq=False)
class IntrinsicSet:
    albedo: np.ndarray  # [V, H, W, 3] in [0, 1]
    s_diff: np.ndarray  # [V, H, W, 3] >= 0
    s_spec: np.ndarray  # [V, H, W, 3] >= 0
    illumination: sglight.SGMixture
    depth: np.ndarray | None = None  # [V, H, W] > 0

    @property
    def v(self) -> int:
        return self.albedo.shape[0]


# parameters -------------------------------------------------------------------


def init_params(config: ModelConfig, seed: int = 0) -> dict:
    """Fresh parameter dictionary; a pure function of (config, seed)."""
    config.validate()
    rng = np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(7,)))
    d = config.embed_dim
    p = config.patch_size
    params: dict = {}

    def normal(name, shape, std=0.02):
        params[name] = Tensor(rng.normal(0.0, std, shape))

    def zeros(name, shape):
        params[name] = Tensor(np.zeros(shape))

    def norm(name):
        params[f"{name}/gain"] = Tensor(np.ones(d))
        zeros(f"{name}/bias", (d,))

    normal("patch/weight", (p * p * 3, d))
    zeros("patch/bias", (d,))
    normal("tokens/camera", (d,))
    normal("tokens/register", (config.register_count, d))

    def block(prefix, norms):
        """Attention + MLP block; `norms` are the pre-attention layer norms:
        ("ln1",) on shared tokens, ("lnq", "lnkv") for cross-attention."""
        for ln in norms:
            norm(f"{prefix}/{ln}")
        for nm in ("wq", "wk", "wv", "wo"):
            normal(f"{prefix}/{nm}", (d, d))
        for nm in ("bq", "bk", "bv", "bo"):
            zeros(f"{prefix}/{nm}", (d,))
        norm(f"{prefix}/ln2")
        normal(f"{prefix}/mlp/w1", (d, 4 * d))
        zeros(f"{prefix}/mlp/b1", (4 * d,))
        normal(f"{prefix}/mlp/w2", (4 * d, d))
        zeros(f"{prefix}/mlp/b2", (d,))

    for i in range(config.block_pairs):
        block(f"enc{i}/frame", ("ln1",))
        block(f"enc{i}/global", ("ln1",))
    for k in FACTORS:
        block(f"adapt/{k}", ("lnq", "lnkv"))

    n_illum = 7 * config.sg_lobes + 3
    normal("head/alb/mod_w", (d, d))
    zeros("head/alb/mod_b", (d,))
    normal("head/alb/dec_w", (d, p * p * 3))
    zeros("head/alb/dec_b", (p * p * 3,))
    for k in ("diff", "spec"):
        normal(f"head/{k}/mod_w", (d, d))
        zeros(f"head/{k}/mod_b", (d,))
        normal(f"head/{k}/illum_w", (n_illum, d))
        zeros(f"head/{k}/illum_b", (d,))
        normal(f"head/{k}/dec_w", (d, p * p * 3))
        zeros(f"head/{k}/dec_b", (p * p * 3,))
    normal("head/illum/w", (d, n_illum))
    zeros("head/illum/b", (n_illum,))
    normal("head/depth/w", (d, p * p))
    zeros("head/depth/b", (p * p,))
    return params


def adapter_param_names(config: ModelConfig, factor: str) -> list:
    """Registry audit helper: the adapter parameter names for one factor."""
    return [n for n in init_params(config) if n.startswith(f"adapt/{factor}/")]


# building blocks ---------------------------------------------------------------


@lru_cache(maxsize=16)
def _posenc(gh: int, gw: int, d: int) -> np.ndarray:
    """Fixed 2D sinusoidal positions: rows in the first d/2 dims, columns
    in the rest, interleaved sin/cos per frequency."""
    def enc1d(n, dim):
        pos = np.arange(n, dtype=np.float64)[:, None]
        j = np.arange(dim // 2, dtype=np.float64)[None, :]
        ang = pos / np.power(10000.0, 2.0 * j / dim)
        out = np.zeros((n, dim))
        out[:, 0::2] = np.sin(ang)
        out[:, 1::2] = np.cos(ang)
        return out

    half = d // 2
    rows = np.repeat(enc1d(gh, half), gw, axis=0)
    cols = np.tile(enc1d(gw, d - half), (gh, 1))
    pe = np.concatenate([rows, cols], axis=1)
    pe.flags.writeable = False
    return pe


def _unpatchify(flat: Tensor, grid: tuple, p: int, c: int) -> Tensor:
    v = flat.shape[0]
    gh, gw = grid
    x = flat.reshape((v, gh, gw, p, p, c))
    x = x.transpose((0, 1, 3, 2, 4, 5))
    return x.reshape((v, gh * p, gw * p, c))


def patchify(images: np.ndarray, config: ModelConfig, params: dict) -> Tensor:
    """Images [V, H, W, 3] -> [V, gh*gw, d] patch tokens with positions."""
    v, h, w, c = images.shape
    gh, gw = config.check_resolution(h, w)
    p = config.patch_size
    patches = (images.reshape(v, gh, p, gw, p, c)
               .transpose(0, 1, 3, 2, 4, 5)
               .reshape(v, gh * gw, p * p * c))
    tok = nd.linear(patches, params["patch/weight"], params["patch/bias"])
    return tok + Tensor(_posenc(gh, gw, config.embed_dim))


def _mha(x_q: Tensor, x_kv: Tensor, params: dict, prefix: str,
         heads: int) -> Tensor:
    """Multi-head attention on [B, Nq, d] queries / [B, Nk, d] keys-values."""
    q = nd.linear(x_q, params[f"{prefix}/wq"], params[f"{prefix}/bq"])
    k = nd.linear(x_kv, params[f"{prefix}/wk"], params[f"{prefix}/bk"])
    v = nd.linear(x_kv, params[f"{prefix}/wv"], params[f"{prefix}/bv"])
    out = nd.attention(q, k, v, heads)
    return nd.linear(out, params[f"{prefix}/wo"], params[f"{prefix}/bo"])


def _mlp(x: Tensor, params: dict, prefix: str) -> Tensor:
    h = nd.gelu(nd.linear(x, params[f"{prefix}/mlp/w1"], params[f"{prefix}/mlp/b1"]))
    return nd.linear(h, params[f"{prefix}/mlp/w2"], params[f"{prefix}/mlp/b2"])


def _block(x: Tensor, params: dict, prefix: str, heads: int) -> Tensor:
    h = nd.layer_norm(x, params[f"{prefix}/ln1/gain"], params[f"{prefix}/ln1/bias"])
    x = x + _mha(h, h, params, prefix, heads)
    h = nd.layer_norm(x, params[f"{prefix}/ln2/gain"], params[f"{prefix}/ln2/bias"])
    return x + _mlp(h, params, prefix)


def encode(images, config: ModelConfig, params: dict) -> TokenSet:
    """Images [V, H, W, 3] -> TokenSet via alternating frame/global blocks."""
    config.validate()
    images = np.asarray(images, dtype=np.float64)
    if images.ndim == 3:
        images = images[None]
    v = images.shape[0]
    grid = config.check_resolution(images.shape[1], images.shape[2])
    d = config.embed_dim
    r = config.register_count
    tok = patchify(images, config, params)

    # identical start tokens for every view: no view-index dependence
    tile = Tensor(np.ones((v, 1, 1)))
    cam = tile * params["tokens/camera"].reshape((1, 1, d))
    reg = tile * params["tokens/register"].reshape((1, r, d))
    x = nd.concat([cam, reg, tok], axis=1)  # [V, T, d]
    t = x.shape[1]

    for i in range(config.block_pairs):
        x = _block(x, params, f"enc{i}/frame", config.heads)
        x = x.reshape((1, v * t, d))
        x = _block(x, params, f"enc{i}/global", config.heads)
        x = x.reshape((v, t, d))
    return TokenSet(x, grid, r)


def adapt(tokens: TokenSet, factor: str, params: dict,
          heads: int) -> AdaptedContext:
    """Factor-specific cross-attention context from shared tokens.

    Queries are the view-mean of [camera; register] tokens (pooled scene
    tokens, not learnable); keys/values are all patch tokens of all views.
    """
    if factor not in FACTORS:
        raise ValueError(f"unknown factor {factor!r}")
    prefix = f"adapt/{factor}"
    q = tokens.scene_query
    qn = nd.layer_norm(q, params[f"{prefix}/lnq/gain"], params[f"{prefix}/lnq/bias"])
    kvn = nd.layer_norm(tokens.flat_patches, params[f"{prefix}/lnkv/gain"],
                        params[f"{prefix}/lnkv/bias"])
    x = q + _mha(qn, kvn, params, prefix, heads)
    h = nd.layer_norm(x, params[f"{prefix}/ln2/gain"], params[f"{prefix}/ln2/bias"])
    x = x + _mlp(h, params, prefix)
    return AdaptedContext(factor, x.reshape(q.shape[1:]))


# heads -------------------------------------------------------------------------


def predict_albedo(tokens: TokenSet, ctx: AdaptedContext, params: dict) -> Tensor:
    """Per-view albedo maps [V, H, W, 3] in [0, 1]."""
    d = tokens.tokens.shape[2]
    mod = nd.linear(ctx.context.mean(axis=0), params["head/alb/mod_w"],
                    params["head/alb/mod_b"])
    h = tokens.patch_tokens + mod.reshape((1, 1, d))
    flat = nd.sigmoid(nd.linear(h, params["head/alb/dec_w"], params["head/alb/dec_b"]))
    p = int(round((params["head/alb/dec_w"].shape[1] // 3) ** 0.5))
    return _unpatchify(flat, tokens.grid, p, 3)


def illumination_conditioning(raw: Tensor, k: int) -> Tensor:
    """Differentiable canonical parameter vector from the raw head output.

    Equals pack(unpack(raw)) away from the degenerate cases (zero axis,
    underflowed positives): axes are normalized smoothly and lobe blocks
    are reordered into canonical order; sharpness/amplitude/ambient slots
    stay in the softplus preimage.
    """
    block = raw.data[:7 * k].reshape(k, 7)
    order = sglight.canonical_order(np.logaddexp(0.0, block[:, 3]),
                                    np.logaddexp(0.0, block[:, 4:7]))
    lobes = raw[7 * order[:, None] + np.arange(7)]  # [k, 7], canonical order
    axis = lobes[:, :3]
    norm = nd.tsqrt((axis * axis).sum(axis=1, keepdims=True) + 1e-24)
    lobes = nd.concat([axis / norm, lobes[:, 3:]], axis=1)
    return nd.concat([lobes.reshape((7 * k,)), raw[7 * k:]], axis=0)


def _illum_raw(ctx: AdaptedContext, params: dict) -> Tensor:
    return nd.linear(ctx.context.mean(axis=0), params["head/illum/w"],
                     params["head/illum/b"])


def predict_shading(tokens: TokenSet, ctx: AdaptedContext, cond: Tensor,
                    params: dict, kind: str) -> Tensor:
    """Per-view shading maps [V, H, W, 3], >= 0.

    `cond` is the pack-space illumination Tensor, as produced by
    illumination_conditioning (or Tensor(sglight.pack(m)) for a fixed
    mixture m).
    """
    if kind not in ("diff", "spec"):
        raise ValueError(f"kind must be 'diff' or 'spec', got {kind!r}")
    d = tokens.tokens.shape[2]
    prefix = f"head/{kind}"
    mod = nd.linear(ctx.context.mean(axis=0), params[f"{prefix}/mod_w"],
                    params[f"{prefix}/mod_b"])
    lmod = nd.linear(cond, params[f"{prefix}/illum_w"], params[f"{prefix}/illum_b"])
    h = tokens.patch_tokens + (mod + lmod).reshape((1, 1, d))
    flat = nd.softplus(nd.linear(h, params[f"{prefix}/dec_w"],
                                 params[f"{prefix}/dec_b"]))
    p = int(round((params[f"{prefix}/dec_w"].shape[1] // 3) ** 0.5))
    return _unpatchify(flat, tokens.grid, p, 3)


def predict_depth(tokens: TokenSet, params: dict,
                  config: ModelConfig) -> Tensor:
    """Per-view depth maps [V, H, W], > 0; reads raw patch tokens only."""
    if not config.aux_depth:
        raise ValueError("depth head is disabled (aux_depth off)")
    p = config.patch_size
    flat = nd.texp(nd.linear(tokens.patch_tokens, params["head/depth/w"],
                             params["head/depth/b"]))
    v = flat.shape[0]
    gh, gw = tokens.grid
    out = _unpatchify(flat, tokens.grid, p, 1)
    return out.reshape((v, gh * p, gw * p))


# full forward -------------------------------------------------------------------


def _checked(stage: str, t: Tensor, positive: bool = False) -> Tensor:
    """`t` itself, or NumericalAbort naming `stage` if any entry is inf/NaN
    (or, with `positive`, not > 0)."""
    lo, hi = float(t.data.min()), float(t.data.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise NumericalAbort(f"{stage} is not finite")
    if positive and not lo > 0.0:
        raise NumericalAbort(f"{stage} is not positive (min {lo:g})")
    return t


def forward(images, config: ModelConfig, params: dict) -> dict:
    """Single forward pass keeping everything on the active tape.

    Returns Tensors for the dense factors plus the raw illumination vector,
    its differentiable canonical conditioning, and the value-level mixture.
    Each stage's output is checked in order; the first one that is not
    finite (depth: not finite and > 0) raises NumericalAbort naming it.
    """
    tokens = encode(images, config, params)
    _checked("encoder output", tokens.tokens)
    ctx = {}
    for k in FACTORS:
        ctx[k] = adapt(tokens, k, params, config.heads)
        _checked(f"adapter context for {k!r}", ctx[k].context)
    raw = _checked("illumination head output",
                   _illum_raw(ctx["illum"], params))
    cond = illumination_conditioning(raw, config.sg_lobes)
    out = {
        "tokens": tokens,
        "albedo": _checked("albedo head output",
                           predict_albedo(tokens, ctx["alb"], params)),
        "s_diff": _checked("diffuse head output", predict_shading(
            tokens, ctx["diff"], cond, params, "diff")),
        "s_spec": _checked("specular head output", predict_shading(
            tokens, ctx["spec"], cond, params, "spec")),
        "illum_raw": raw,
        "illum_cond": cond,
        "illumination": sglight.unpack(raw.data, config.sg_lobes),
        "context": ctx,
    }
    if config.aux_depth:
        out["depth"] = _checked("depth head output",
                                predict_depth(tokens, params, config),
                                positive=True)
    return out


def decompose(images, config: ModelConfig, params: dict) -> IntrinsicSet:
    """Feed-forward decomposition of V views into an IntrinsicSet.

    One forward pass: no sampling loop, no iterative refinement, and no
    camera input.
    """
    out = forward(images, config, params)
    depth = out["depth"].data if config.aux_depth else None
    return IntrinsicSet(
        albedo=out["albedo"].data,
        s_diff=out["s_diff"].data,
        s_spec=out["s_spec"].data,
        illumination=out["illumination"],
        depth=depth)
