"""Spherical Gaussian mixture illumination.

A scene light is a sum of K spherical Gaussian lobes plus a constant
ambient term, all in linear RGB radiance units:

    G(w) = ambient + sum_k mu_k * exp(lambda_k * (w . xi_k - 1))

Each lobe peaks at its unit axis xi with value mu and falls off with
sharpness lambda. The same representation drives the synthetic renderer
(irradiance and specular response below) and serves as the regression
target for the illumination head.

Diffuse irradiance is integrated by a deterministic Fibonacci-spiral
hemisphere quadrature whose tangent frame is anchored to the lobe axes,
so jointly rotating (mixture, normal) moves the sample set with the
scene and reproduces the result to ~1e-12 instead of quadrature error.
The ambient part of the integral is done analytically and is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Rec. 709 luminance weights; used only to order lobes canonically.
LUMA_WEIGHTS = np.array([0.2126, 0.7152, 0.0722])

N_QUADRATURE = 2048
IRRADIANCE_CHUNK = 256  # normals per [chunk, n_samples, 3] direction block
GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))

AXIS_NORM_TOL = 1e-9   # constructor tolerance on |xi| - 1
DIR_NORM_TOL = 1e-6    # query-direction tolerance
MIN_SHARPNESS = 1e-12


def _as_vec3(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {v.shape}")
    v = v.copy()
    v.flags.writeable = False
    return v


def _check_unit(v: np.ndarray, name: str, tol: float) -> None:
    n = float(np.linalg.norm(v))
    if abs(n - 1.0) > tol:
        raise ValueError(f"{name} must be unit length, |{name}| = {n:.9g}")


@dataclass(frozen=True, eq=False)
class SGLobe:
    """One spherical Gaussian lobe: unit axis, sharpness > 0, RGB amplitude >= 0."""

    axis: np.ndarray
    sharpness: float
    amplitude: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "axis", _as_vec3(self.axis, "axis"))
        object.__setattr__(self, "sharpness", float(self.sharpness))
        object.__setattr__(self, "amplitude", _as_vec3(self.amplitude, "amplitude"))
        _check_unit(self.axis, "axis", AXIS_NORM_TOL)
        if not self.sharpness > 0.0:
            raise ValueError(f"sharpness must be positive, got {self.sharpness}")
        if np.any(self.amplitude < 0.0):
            raise ValueError("amplitude must be nonnegative per channel")

    @property
    def luminance(self) -> float:
        return float(self.amplitude @ LUMA_WEIGHTS)


@dataclass(frozen=True, eq=False)
class SGMixture:
    """K >= 1 lobes plus a constant ambient radiance.

    Canonical lobe order (descending luminance, ties by descending
    sharpness) is established by `canonicalize`; the constructor accepts
    any order so permuted mixtures can be built and then normalized.
    """

    lobes: tuple
    ambient: np.ndarray

    def __post_init__(self):
        lobes = tuple(self.lobes)
        if len(lobes) < 1:
            raise ValueError("mixture needs at least one lobe")
        for l in lobes:
            if not isinstance(l, SGLobe):
                raise TypeError("lobes must be SGLobe instances")
        object.__setattr__(self, "lobes", lobes)
        object.__setattr__(self, "ambient", _as_vec3(self.ambient, "ambient"))
        if np.any(self.ambient < 0.0):
            raise ValueError("ambient must be nonnegative per channel")

    @property
    def k(self) -> int:
        return len(self.lobes)

    def _axes(self) -> np.ndarray:
        return np.stack([l.axis for l in self.lobes])

    def _sharpnesses(self) -> np.ndarray:
        return np.array([l.sharpness for l in self.lobes])

    def _amplitudes(self) -> np.ndarray:
        return np.stack([l.amplitude for l in self.lobes])


def canonical_order(sharpness: np.ndarray, amplitude: np.ndarray) -> np.ndarray:
    """Lobe indices by descending luminance of amplitude [K, 3], ties by
    descending sharpness [K]; the sort is stable."""
    return np.lexsort((-sharpness, -(amplitude @ LUMA_WEIGHTS)))


def canonicalize(mixture: SGMixture) -> SGMixture:
    """Reorder lobes into canonical_order.

    Pure reordering: sg_radiance is unchanged pointwise, and the sort is
    stable so the result is deterministic and idempotent.
    """
    order = canonical_order(mixture._sharpnesses(), mixture._amplitudes())
    return SGMixture(tuple(mixture.lobes[i] for i in order), mixture.ambient)


# radiance -------------------------------------------------------------------


def sg_radiance(mixture: SGMixture, directions) -> np.ndarray:
    """Radiance arriving from unit `directions` [..., 3], linear RGB [..., 3]."""
    dirs = np.asarray(directions, dtype=np.float64)
    if dirs.shape[-1:] != (3,):
        raise ValueError(f"directions must be [..., 3], got shape {dirs.shape}")
    if np.any(np.abs(np.linalg.norm(dirs, axis=-1) - 1.0) > DIR_NORM_TOL):
        raise ValueError("directions must be unit length")
    out = np.broadcast_to(mixture.ambient, dirs.shape[:-1] + (3,)).copy()
    for lobe in mixture.lobes:
        t = dirs @ lobe.axis  # cos angle to lobe axis
        out += np.exp(lobe.sharpness * (t - 1.0))[..., None] * lobe.amplitude
    return out


def mean_radiance(mixture: SGMixture) -> np.ndarray:
    """Average of sg_radiance over the full sphere, in closed form.

    The sphere average of a lobe is mu * (1 - exp(-2*lambda)) / (2*lambda).
    """
    out = mixture.ambient.copy()
    for lobe in mixture.lobes:
        out = out + lobe.amplitude * (-np.expm1(-2.0 * lobe.sharpness)
                                      / (2.0 * lobe.sharpness))
    return out


# diffuse irradiance ----------------------------------------------------------


def _hemisphere_samples(n_samples: int):
    """Fibonacci spiral on the upper hemisphere in a local (t1, t2, n) frame.

    Returns (z, r, cos_phi, sin_phi); sum(z) == n/2 exactly in exact
    arithmetic, so the cosine-weighted constant integral is unbiased.
    """
    i = np.arange(n_samples, dtype=np.float64)
    z = (i + 0.5) / n_samples
    r = np.sqrt(1.0 - z * z)
    phi = i * GOLDEN_ANGLE
    return z, r, np.cos(phi), np.sin(phi)


def _anchored_frames(normals: np.ndarray, axes: np.ndarray):
    """Tangent frames (t1, t2) per normal, anchored to the lobe axes.

    t1 is the first lobe axis not parallel to the normal, projected onto
    the tangent plane; that way the frame co-rotates with the scene. If
    every axis is parallel the integrand is axially symmetric about the
    normal, so any frame works; a fixed world axis is used then.
    """
    m = normals.shape[0]
    # sin of angle between each normal and each lobe axis
    cross = np.cross(normals[:, None, :], axes[None, :, :])
    sin2 = np.einsum("mkd,mkd->mk", cross, cross)
    usable = sin2 > 1e-12  # sin > 1e-6
    pick = np.argmax(usable, axis=1)
    anchor = axes[pick]

    none_usable = ~usable.any(axis=1)
    if np.any(none_usable):
        # world axis least aligned with the normal
        sub = normals[none_usable]
        least = np.argmin(np.abs(sub), axis=1)
        anchor = anchor.copy()
        anchor[none_usable] = np.eye(3)[least]

    t1 = anchor - np.einsum("md,md->m", anchor, normals)[:, None] * normals
    t1 /= np.linalg.norm(t1, axis=1, keepdims=True)
    t2 = np.cross(normals, t1)
    return t1, t2


def diffuse_irradiance(mixture: SGMixture, normal,
                       n_samples: int = N_QUADRATURE) -> np.ndarray:
    """Cosine-weighted hemisphere integral of radiance over pi, linear RGB.

    (1/pi) * integral over the hemisphere around `normal` of
    sg_radiance(w) * (w . normal) dw, by deterministic n_samples-point
    Fibonacci quadrature. The ambient contribution is added analytically
    (a constant integrates to exactly itself).
    """
    n = np.asarray(normal, dtype=np.float64)
    if n.shape != (3,):
        raise ValueError(f"normal must be a 3-vector, got shape {n.shape}")
    _check_unit(n, "normal", DIR_NORM_TOL)
    return diffuse_irradiance_batch(mixture, n[None, :], n_samples)[0]


def diffuse_irradiance_batch(mixture: SGMixture, normals: np.ndarray,
                             n_samples: int = N_QUADRATURE) -> np.ndarray:
    """diffuse_irradiance over an [M, 3] array of unit normals."""
    normals = np.asarray(normals, dtype=np.float64)
    m = normals.shape[0]
    out = np.broadcast_to(mixture.ambient, (m, 3)).copy()
    if m == 0:
        return out

    z, r, cphi, sphi = _hemisphere_samples(n_samples)
    axes = mixture._axes()
    sharps = mixture._sharpnesses()
    amps = mixture._amplitudes()

    for lo in range(0, m, IRRADIANCE_CHUNK):
        ns = normals[lo:lo + IRRADIANCE_CHUNK]
        t1, t2 = _anchored_frames(ns, axes)
        # directions [m, n, 3] in the co-rotating frame
        dirs = (z[None, :, None] * ns[:, None, :]
                + (r * cphi)[None, :, None] * t1[:, None, :]
                + (r * sphi)[None, :, None] * t2[:, None, :])
        acc = np.zeros((ns.shape[0], 3))
        for k in range(len(sharps)):
            t = dirs @ axes[k]
            w = np.exp(sharps[k] * (t - 1.0)) * z[None, :]
            acc += w.sum(axis=1)[:, None] * amps[k]
        out[lo:lo + IRRADIANCE_CHUNK] += acc * (2.0 / n_samples)
    return np.maximum(out, 0.0)


# specular response -----------------------------------------------------------


def _sharpened(mixture: SGMixture, gloss: float) -> SGMixture:
    # Specular composition rule: reflecting a lobe of sharpness lambda off
    # a glossy surface of sharpness `gloss` yields an effective sharpness
    # lambda * gloss / (lambda + gloss); amplitudes unchanged. The ambient
    # term is dropped — a constant has no mirror-direction preference and
    # belongs to the diffuse term, so a pure-ambient light produces zero
    # glossy response. The map is monotone in lambda, so canonical order
    # is preserved.
    lobes = tuple(
        SGLobe(l.axis, l.sharpness * gloss / (l.sharpness + gloss), l.amplitude)
        for l in mixture.lobes)
    return SGMixture(lobes, np.zeros(3))


def specular_response_batch(mixture: SGMixture, normals: np.ndarray,
                            view_dirs: np.ndarray, gloss: float) -> np.ndarray:
    """Glossy reflection toward unit `view_dirs` [M, 3] off surfaces with
    unit `normals` [M, 3].

    Evaluates the lobes of the gloss-sharpened mixture (see _sharpened;
    ambient excluded) at the mirror direction r = 2(n.v)n - v; zero for
    back-facing views (n.v <= 0). Nonnegative, linear RGB [M, 3].
    """
    if not gloss > 0.0:
        raise ValueError(f"gloss must be positive, got {gloss}")
    normals = np.asarray(normals, dtype=np.float64)
    view_dirs = np.asarray(view_dirs, dtype=np.float64)
    ndv = np.einsum("md,md->m", normals, view_dirs)
    refl = 2.0 * ndv[:, None] * normals - view_dirs
    sharp = _sharpened(mixture, float(gloss))
    out = sg_radiance(sharp, refl)
    out[ndv <= 0.0] = 0.0
    return np.maximum(out, 0.0)


# parameter packing -----------------------------------------------------------


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def _inv_softplus(y: np.ndarray) -> np.ndarray:
    # x such that softplus(x) = y, for y > 0; inputs are floored first so
    # exact zeros stay representable (they come back as ~1e-12).
    y = np.maximum(y, MIN_SHARPNESS)
    return y + np.log(-np.expm1(-y))


def pack(mixture: SGMixture) -> np.ndarray:
    """Flatten to raw reals: per lobe [axis(3), sharpness(1), amplitude(3)]
    in canonical order, then ambient(3); length 7K+3.

    Positive quantities are stored through the inverse of the softplus map
    used by `unpack`, so unpack(pack(m), K) reproduces m's radiance.
    """
    m = canonicalize(mixture)
    parts = []
    for l in m.lobes:
        parts.append(l.axis)
        parts.append(_inv_softplus(np.array([l.sharpness])))
        parts.append(_inv_softplus(l.amplitude))
    parts.append(_inv_softplus(m.ambient))
    return np.concatenate(parts)


def unpack(vec: np.ndarray, k: int) -> SGMixture:
    """Map any finite raw vector of length 7K+3 to a valid SGMixture.

    Axis blocks are normalized (near-zero raw axis falls back to +z),
    sharpness / amplitude / ambient go through softplus; the result is
    canonicalized.
    """
    vec = np.asarray(vec, dtype=np.float64).reshape(-1)
    if vec.shape[0] != 7 * k + 3:
        raise ValueError(
            f"expected length {7 * k + 3} for K={k}, got {vec.shape[0]}")
    lobes = []
    for i in range(k):
        raw = vec[7 * i:7 * i + 7]
        axis = raw[0:3]
        norm = float(np.linalg.norm(axis))
        if norm > 1e-12:
            axis = axis / norm
        else:
            axis = np.array([0.0, 0.0, 1.0])
        sharp = max(float(_softplus(raw[3:4])[0]), MIN_SHARPNESS)
        amp = _softplus(raw[4:7])
        lobes.append(SGLobe(axis, sharp, amp))
    ambient = _softplus(vec[7 * k:])
    return canonicalize(SGMixture(tuple(lobes), ambient))


# text serialization ----------------------------------------------------------


def save_sgm(path, mixture: SGMixture) -> None:
    """Write the SGM text form: K, ambient line, then one line per lobe
    `xi_x xi_y xi_z lambda mu_r mu_g mu_b`."""
    from .ioutil import atomic_write_text

    lines = [str(mixture.k)]
    lines.append(" ".join(f"{v:.17g}" for v in mixture.ambient))
    for l in mixture.lobes:
        row = list(l.axis) + [l.sharpness] + list(l.amplitude)
        lines.append(" ".join(f"{v:.17g}" for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_sgm(path) -> SGMixture:
    """Read the SGM text form written by save_sgm."""
    with open(path) as f:
        raw = [ln.strip() for ln in f if ln.strip()]
    if not raw:
        raise ValueError(f"{path}: empty SGM file")
    try:
        k = int(raw[0])
    except ValueError:
        raise ValueError(f"{path}: first line must be the lobe count") from None
    if len(raw) != 2 + k:
        raise ValueError(f"{path}: expected {2 + k} lines for K={k}, got {len(raw)}")
    ambient = np.array([float(v) for v in raw[1].split()])
    if ambient.shape != (3,):
        raise ValueError(f"{path}: ambient line must hold 3 floats")
    lobes = []
    for ln in raw[2:]:
        vals = [float(v) for v in ln.split()]
        if len(vals) != 7:
            raise ValueError(f"{path}: lobe lines must hold 7 floats")
        lobes.append(SGLobe(vals[0:3], vals[3], vals[4:7]))
    return SGMixture(tuple(lobes), ambient)
