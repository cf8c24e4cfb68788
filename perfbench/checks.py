"""Correctness checks the benchmark runs on the program's outputs.

Each check compares the program against a computation made here, apart
from the program (its own PFM and SGM parsers, a direct sliding-window
SSIM, a dense hemisphere integral), or against a property the method must
have. Every check returns a `Check`; none of them raises on a mismatch, so
a run reports all failures at once. The smoke test feeds each check a
deliberately perturbed value to show that it can fail.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# float32 unit roundoff: PFM layers are narrowed to float32 on disk
F32_EPS = 2.0 ** -24


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


# file formats, parsed without the program's readers --------------------------


def read_pfm(path) -> np.ndarray:
    """PFM file -> float64 array, rows top to bottom."""
    with open(path, "rb") as f:
        data = f.read()
    parts = data.split(b"\n", 3)
    magic, dims, scale, payload = parts[0], parts[1], parts[2], parts[3]
    w, h = (int(x) for x in dims.split())
    channels = {b"PF": 3, b"Pf": 1}[magic.strip()]
    dtype = "<f4" if float(scale) < 0 else ">f4"
    arr = np.frombuffer(payload, dtype=dtype, count=w * h * channels)
    shape = (h, w, 3) if channels == 3 else (h, w)
    return np.flipud(arr.reshape(shape)).astype(np.float64)


@dataclass(frozen=True)
class Light:
    """Spherical Gaussian mixture as stored in an `sgm.txt` file."""

    ambient: np.ndarray      # [3]
    axes: np.ndarray         # [K, 3]
    sharpness: np.ndarray    # [K]
    amplitude: np.ndarray    # [K, 3]


def read_sgm(path) -> Light:
    with open(path) as f:
        rows = [[float(v) for v in ln.split()] for ln in f if ln.strip()]
    k = int(rows[0][0])
    lobes = np.array(rows[2:2 + k])
    return Light(np.array(rows[1]), lobes[:, 0:3], lobes[:, 3], lobes[:, 4:7])


def tree_digest(root) -> str:
    """sha256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def array_digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.float64)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


# train_64 ------------------------------------------------------------------


def losses_finite(lines) -> Check:
    """Every numeric column of every loss-log line is finite."""
    bad = [ln for ln in lines
           if not all(math.isfinite(float(x)) for x in ln.split(","))]
    return Check("train.losses_finite", not bad and bool(lines),
                 f"{len(lines)} lines, {len(bad)} with a non-finite value")


def logs_identical(logs) -> Check:
    """Runs with one seed must log the same lines, byte for byte."""
    differ = [i for i, log in enumerate(logs) if log != logs[0]]
    return Check("train.same_seed_same_log", len(logs) >= 2 and not differ,
                 f"{len(logs)} runs, runs {differ} differ from run 0")


def directional_derivative(fd: float, tape: float,
                           rtol: float = 1e-4) -> Check:
    """Central finite difference against the tape gradient along one
    direction; rtol allows for the roundoff of a float64 difference and
    the few L1 kinks a step of h may cross."""
    err = abs(fd - tape)
    ok = err <= rtol * max(abs(fd), abs(tape)) + 1e-12
    return Check("train.fd_directional_derivative", ok,
                 f"fd {fd:.12g} tape {tape:.12g} rel err "
                 f"{err / max(abs(tape), 1e-300):.3g} (rtol {rtol:g})")


def bit_exact(name: str, expected: dict, loaded: dict) -> Check:
    """Two name -> array tables hold the same names and the same bits."""
    missing = sorted(set(expected) ^ set(loaded))
    differ = sorted(n for n in set(expected) & set(loaded)
                    if np.asarray(expected[n]).tobytes()
                    != np.asarray(loaded[n]).tobytes()
                    or np.shape(expected[n]) != np.shape(loaded[n]))
    return Check(name, not missing and not differ,
                 f"{len(expected)} tensors, {len(missing)} unmatched names, "
                 f"{len(differ)} differ")


# eval_64 -------------------------------------------------------------------


def gaussian_window(size: int = 11, sigma: float = 1.5) -> np.ndarray:
    x = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-(x * x) / (2.0 * sigma * sigma))
    k = np.outer(g, g)
    return k / k.sum()


def ssim_direct(a: np.ndarray, b: np.ndarray, peak: float = 1.0) -> float:
    """Mean SSIM over every full 11x11 window position, channels averaged.

    Each local statistic is the window-weighted sum over an explicit
    sliding-window view, with no convolution routine.
    """
    k = gaussian_window()
    c1, c2 = (0.01 * peak) ** 2, (0.03 * peak) ** 2
    if a.ndim == 2:
        a, b = a[..., None], b[..., None]
    vals = []
    for c in range(a.shape[2]):
        wa = sliding_window_view(a[..., c], k.shape)
        wb = sliding_window_view(b[..., c], k.shape)

        def local(x):
            return np.einsum("ijkl,kl->ij", x, k)

        mu_a, mu_b = local(wa), local(wb)
        var_a = local(wa * wa) - mu_a * mu_a
        var_b = local(wb * wb) - mu_b * mu_b
        cov = local(wa * wb) - mu_a * mu_b
        num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
        den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
        vals.append(np.mean(num / den))
    return float(np.mean(vals))


def psnr_direct(a: np.ndarray, b: np.ndarray) -> float:
    mse = float(np.mean((a - b) ** 2))
    return math.inf if mse == 0.0 else -10.0 * math.log10(mse)


def own_scores(pred: dict, gt: dict, images: np.ndarray,
               eps: float) -> dict:
    """(factor -> {"psnr", "ssim"}) with the eval report's definitions:
    per-view scores averaged over views, shading PSNR on log(x + eps)."""
    recon = pred["albedo"] * pred["s_diff"] + pred["s_spec"]
    pairs = {"albedo": (pred["albedo"], gt["albedo"], False),
             "s_diff": (pred["s_diff"], gt["s_diff"], True),
             "s_spec": (pred["s_spec"], gt["s_spec"], True),
             "recon": (recon, images, False)}
    out = {}
    for factor, (p, g, log) in pairs.items():
        lp, lg = (np.log(p + eps), np.log(g + eps)) if log else (p, g)
        out[factor] = {
            "psnr": float(np.mean([psnr_direct(lp[i], lg[i])
                                   for i in range(p.shape[0])])),
            "ssim": float(np.mean([ssim_direct(p[i], g[i])
                                   for i in range(p.shape[0])])),
        }
    return out


def scores_agree(report_rows, own: dict, tol: float = 1e-9) -> Check:
    """The program's metrics.json rows against `own` ({scene: own_scores})."""
    worst, n = 0.0, 0
    for row in report_rows:
        mine = own.get(row["scene"], {}).get(row["factor"])
        if mine is None:
            continue
        for key in ("psnr", "ssim"):
            theirs = float(row[key])
            err = abs(theirs - mine[key]) / max(1.0, abs(mine[key]))
            worst = max(worst, err if math.isfinite(err) else math.inf)
            n += 1
    return Check("eval.ssim_psnr_match_direct", n > 0 and worst <= tol,
                 f"{n} scores compared, worst rel err {worst:.3g} "
                 f"(tol {tol:g})")


def ranges_hold(albedo, s_diff, s_spec, depth) -> Check:
    ok = {
        "albedo in [0,1]": bool(np.all((albedo >= 0) & (albedo <= 1))),
        "s_diff >= 0": bool(np.all(s_diff >= 0)),
        "s_spec >= 0": bool(np.all(s_spec >= 0)),
        "depth > 0": bool(np.all(depth > 0)),
    }
    bad = [k for k, v in ok.items() if not v]
    return Check("eval.range_contracts", not bad,
                 "violated: " + ", ".join(bad) if bad else "all hold")


def permutation_equivariant(base: dict, permuted: dict, perm,
                            tol: float = 1e-9) -> Check:
    """Outputs of permuted views are the permuted outputs; the shared
    illumination (packed vector) is unchanged."""
    worst = 0.0
    for key in ("albedo", "s_diff", "s_spec", "depth"):
        worst = max(worst, float(np.max(np.abs(
            permuted[key] - base[key][perm]))))
    worst_l = float(np.max(np.abs(permuted["illum"] - base["illum"])))
    ok = worst <= tol and worst_l <= tol
    return Check("eval.view_permutation", ok,
                 f"perm {[int(i) for i in perm]}: max factor diff {worst:.3g}, "
                 f"illumination diff {worst_l:.3g} (tol {tol:g})")


def reports_identical(digests) -> Check:
    differ = [i for i, d in enumerate(digests) if d != digests[0]]
    return Check("eval.reports_identical", not differ,
                 f"{len(digests)} eval calls, {len(differ)} reports differ")


# gen_64 --------------------------------------------------------------------


def formation_identity(image, albedo, s_diff, s_spec) -> Check:
    """image = albedo * s_diff + s_spec within float32 rounding: each of
    the four stored layers carries at most one float32 rounding."""
    model = albedo * s_diff + s_spec
    tol = 4.0 * F32_EPS * (np.abs(albedo * s_diff) + np.abs(s_spec)
                           + np.abs(image)) + 1e-30
    excess = float(np.max(np.abs(image - model) / tol))
    return Check("gen.formation_identity", excess <= 1.0,
                 f"worst error / float32 bound = {excess:.3g}")


def _frame(n: np.ndarray):
    helper = np.eye(3)[int(np.argmin(np.abs(n)))]
    t1 = helper - (helper @ n) * n
    t1 /= np.linalg.norm(t1)
    return t1, np.cross(n, t1)


def dense_irradiance(light: Light, normal: np.ndarray,
                     n_theta: int = 512, n_phi: int = 1024) -> np.ndarray:
    """(1/pi) * integral over the hemisphere about `normal` of radiance
    times cosine, by the midpoint rule on a dense (theta, phi) grid."""
    n = normal / np.linalg.norm(normal)
    t1, t2 = _frame(n)
    dt, dp = 0.5 * math.pi / n_theta, 2.0 * math.pi / n_phi
    theta = (np.arange(n_theta) + 0.5) * dt
    phi = (np.arange(n_phi) + 0.5) * dp
    st, ct = np.sin(theta)[:, None], np.cos(theta)[:, None]
    weight = np.broadcast_to(st * ct * dt * dp, (n_theta, n_phi)).ravel()
    dirs = ((ct * np.ones(n_phi))[..., None] * n
            + (st * np.cos(phi))[..., None] * t1
            + (st * np.sin(phi))[..., None] * t2).reshape(-1, 3)
    radiance = np.zeros(3) + light.ambient * weight.sum()
    for axis, lam, amp in zip(light.axes, light.sharpness, light.amplitude):
        radiance = radiance + amp * float(
            weight @ np.exp(lam * (dirs @ axis - 1.0)))
    return radiance / math.pi


def irradiance_agrees(program: np.ndarray, dense: np.ndarray,
                      rtol: float = 0.005) -> Check:
    rel = np.abs(program - dense) / np.abs(dense)
    worst = float(np.max(rel))
    return Check("gen.irradiance_vs_dense", worst <= rtol,
                 f"{program.shape[0]} normals, worst rel err {worst:.3g} "
                 f"(tol {rtol:g})")


def same_bytes(name: str, a: str, b: str) -> Check:
    return Check(name, a == b, f"{str(a)[:16]} vs {str(b)[:16]}")


# traced runs ---------------------------------------------------------------


def trace_reproduces(plain, traced) -> Check:
    """The traced rounds produced exactly what the untraced rounds did."""
    same = len(plain) > 0 and list(plain) == list(traced)
    return Check("trace.reproduces_outputs", same,
                 f"{len(plain)} rounds untraced, {len(traced)} traced, "
                 f"outputs {'identical' if same else 'differ'}")
