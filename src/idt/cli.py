"""Command-line entry points.

    idt gen-data  --config run.cfg [--out DIR] [--seed N]
    idt train     --config run.cfg [--checkpoint RESUME] [--out DIR] [--seed N]
    idt decompose --checkpoint CKPT --out DIR image.pfm [image.pfm ...]
    idt eval      --config run.cfg [--checkpoint CKPT] [--out DIR]
                  [--per-view] [--oracle]
    idt relight   --checkpoint CKPT --sgm NEW.txt --out DIR image.pfm [...]

Exit codes: 0 success, 2 usage or configuration error, 3 I/O error
(including corrupt checkpoints), 4 numerical abort (non-finite values)
in any command.
Every command is deterministic: rerunning with the same inputs produces
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import losses, metrics, sglight
from . import model as idtmodel
from .checkpoint import CheckpointError, load_checkpoint
from .config import ConfigError, load_run_config
from .ioutil import atomic_write_text
from .pfm import read_pfm, write_pfm
from .scenes import load_manifest, load_scene, make_dataset
from .train import run_training

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


def _load_images(paths) -> np.ndarray:
    imgs = []
    for p in paths:
        arr = read_pfm(p)
        if arr.ndim != 3:
            raise ValueError(f"{p}: expected a 3-channel color image")
        imgs.append(arr)
    shapes = {a.shape for a in imgs}
    if len(shapes) > 1:
        raise ValueError(f"input images disagree on shape: {sorted(shapes)}")
    return np.stack(imgs)


def cmd_gen_data(args) -> int:
    cfg = load_run_config(args.config)
    data = cfg.data if args.seed is None else replace(cfg.data, seed=args.seed)
    out = args.out or cfg.dataset
    summary = make_dataset(data, out)
    for k, v in summary.items():
        print(f"{k} = {v}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = load_run_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.out:
        cfg = replace(cfg, out_dir=args.out)
    result = run_training(cfg, resume=args.checkpoint, log=print)
    print(f"done: {result.step} steps, checkpoint in {cfg.out_dir}")
    return EXIT_OK


def _write_factor_maps(out_dir, pred: idtmodel.IntrinsicSet,
                       images: np.ndarray) -> int:
    """Per-view PFMs plus the predicted mixture; returns the file count."""
    os.makedirs(out_dir, exist_ok=True)
    count = 0
    for i in range(pred.v):
        recomposed = pred.albedo[i] * pred.s_diff[i] + pred.s_spec[i]
        write_pfm(os.path.join(out_dir, f"albedo_{i:02d}.pfm"), pred.albedo[i])
        write_pfm(os.path.join(out_dir, f"sdiff_{i:02d}.pfm"), pred.s_diff[i])
        write_pfm(os.path.join(out_dir, f"sspec_{i:02d}.pfm"), pred.s_spec[i])
        write_pfm(os.path.join(out_dir, f"recomposed_{i:02d}.pfm"), recomposed)
        write_pfm(os.path.join(out_dir, f"residual_{i:02d}.pfm"),
                  np.abs(recomposed - images[i]))
        count += 5
        if pred.depth is not None:
            write_pfm(os.path.join(out_dir, f"depth_{i:02d}.pfm"),
                      pred.depth[i])
            count += 1
    sglight.save_sgm(os.path.join(out_dir, "sgm.txt"), pred.illumination)
    return count + 1


def cmd_decompose(args) -> int:
    params, mcfg, _, _ = load_checkpoint(args.checkpoint)
    images = _load_images(args.images)
    mcfg.check_resolution(images.shape[1], images.shape[2])
    pred = idtmodel.decompose(images, mcfg, params)
    count = _write_factor_maps(args.out, pred, images)
    print(f"wrote {count} files to {args.out}")
    return EXIT_OK


def _per_view_decompose(images: np.ndarray, mcfg,
                        params: dict) -> idtmodel.IntrinsicSet:
    """Each view through the model alone (V=1): the no-cross-talk ablation."""
    parts = [idtmodel.decompose(images[v:v + 1], mcfg, params)
             for v in range(images.shape[0])]
    depth = (np.concatenate([p.depth for p in parts])
             if parts[0].depth is not None else None)
    return idtmodel.IntrinsicSet(
        albedo=np.concatenate([p.albedo for p in parts]),
        s_diff=np.concatenate([p.s_diff for p in parts]),
        s_spec=np.concatenate([p.s_spec for p in parts]),
        illumination=parts[0].illumination,
        depth=depth)


def evaluate_dataset(cfg, params, mcfg, per_view: bool = False,
                     oracle: bool = False, scene_ids=None) -> list:
    """Metric rows over dataset scenes (all by default)."""
    manifest = load_manifest(cfg.dataset)
    if scene_ids is None:
        scene_ids = range(manifest["scenes"])
    rows = []
    for sid in scene_ids:
        batch = load_scene(cfg.dataset, sid)
        images = batch.images()
        if oracle:
            gt = losses.stack_ground_truth(batch)
            pred = idtmodel.IntrinsicSet(
                albedo=gt["albedo"], s_diff=gt["s_diff"],
                s_spec=gt["s_spec"], illumination=batch.illumination,
                depth=gt["depth"])
        elif per_view:
            pred = _per_view_decompose(images, mcfg, params)
        else:
            pred = idtmodel.decompose(images, mcfg, params)
        rows.extend(metrics.evaluate_batch(
            pred, batch, occlusion_tau=cfg.occlusion_tau, scene_id=sid,
            eps=cfg.loss.eps))
    return rows


def cmd_eval(args) -> int:
    cfg = load_run_config(args.config)
    cfg.validate(need_dataset=True)
    if args.oracle:
        params, mcfg = None, None
    else:
        if not args.checkpoint:
            raise ConfigError("eval needs --checkpoint (or --oracle)")
        params, mcfg, _, _ = load_checkpoint(args.checkpoint)
        manifest = load_manifest(cfg.dataset)
        mcfg.check_resolution(manifest["height"], manifest["width"])

    rows = evaluate_dataset(cfg, params, mcfg, per_view=args.per_view,
                            oracle=args.oracle)
    out = args.out or cfg.out_dir
    os.makedirs(out, exist_ok=True)
    csv_text = metrics.report_csv(rows)
    atomic_write_text(os.path.join(out, "metrics.csv"), csv_text)
    atomic_write_text(os.path.join(out, "metrics.json"),
                      metrics.report_json(rows))
    sys.stdout.write(csv_text)
    return EXIT_OK


def relight_ratios(pred_mix: sglight.SGMixture,
                   new_mix: sglight.SGMixture):
    """Per-channel rescale factors (diffuse, specular) for a lighting swap.

    Diffuse shading scales by the ratio of diffuse irradiance evaluated at
    one global direction (the luminance-weighted mean lobe axis, +z when
    degenerate); specular scales by the ratio of sphere-mean radiance.
    This is a documented approximation: it is exact for uniform amplitude
    scaling and for identical mixtures gives exactly 1.
    """
    w = np.zeros(3)
    for lobe in pred_mix.lobes:
        w += lobe.luminance * lobe.axis
    norm = np.linalg.norm(w)
    d = w / norm if norm > 1e-12 else np.array([0.0, 0.0, 1.0])
    e_pred = sglight.diffuse_irradiance(pred_mix, d)
    e_new = sglight.diffuse_irradiance(new_mix, d)
    m_pred = sglight.mean_radiance(pred_mix)
    m_new = sglight.mean_radiance(new_mix)
    return _safe_ratio(e_new, e_pred), _safe_ratio(m_new, m_pred)


def _safe_ratio(new: np.ndarray, old: np.ndarray) -> np.ndarray:
    # equal values (0/0 included) mean "leave the channel alone"
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(new == old, 1.0, new / old)


def cmd_relight(args) -> int:
    params, mcfg, _, _ = load_checkpoint(args.checkpoint)
    new_mix = sglight.load_sgm(args.sgm)
    images = _load_images(args.images)
    mcfg.check_resolution(images.shape[1], images.shape[2])
    pred = idtmodel.decompose(images, mcfg, params)
    if new_mix.k != pred.illumination.k:
        raise ValueError(f"target mixture has {new_mix.k} lobes, model "
                         f"predicts {pred.illumination.k}")
    r_diff, r_spec = relight_ratios(pred.illumination, new_mix)

    os.makedirs(args.out, exist_ok=True)
    for i in range(pred.v):
        relit = (pred.albedo[i] * (pred.s_diff[i] * r_diff)
                 + pred.s_spec[i] * r_spec)
        write_pfm(os.path.join(args.out, f"relit_{i:02d}.pfm"), relit)
        write_pfm(os.path.join(args.out, f"albedo_{i:02d}.pfm"),
                  pred.albedo[i])
    sglight.save_sgm(os.path.join(args.out, "sgm.txt"), new_mix)
    print(f"wrote {2 * pred.v + 1} files to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idt", description="multi-view intrinsic decomposition toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="dataset directory "
                   "(default: the config's dataset path)")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", default=None, help="resume from here")
    p.add_argument("--out", default=None, help="override run output dir")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("decompose", help="split images into factor maps")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("images", nargs="+")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("eval", help="metric table over a dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--per-view", action="store_true",
                   help="feed views through the model independently (V=1)")
    p.add_argument("--oracle", action="store_true",
                   help="score ground-truth layers as if predicted")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("relight", help="swap illumination on decomposed views")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--sgm", required=True, help="target lighting file")
    p.add_argument("--out", required=True)
    p.add_argument("images", nargs="+")
    p.set_defaults(func=cmd_relight)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except idtmodel.NumericalAbort as exc:
        print(f"idt: numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except CheckpointError as exc:
        print(f"idt: {exc}", file=sys.stderr)
        return EXIT_IO
    except ConfigError as exc:
        print(f"idt: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FileExistsError, OSError) as exc:
        print(f"idt: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"idt: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
