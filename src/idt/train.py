"""Deterministic training loop: momentum gradient descent on seeded batches.

Each step draws its scene and view indices from a fresh generator seeded by
(run seed, step index), so a run resumed from a checkpoint at step t replays
exactly the batches an uninterrupted run would have drawn from step t on.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import losses
from . import model as idtmodel
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig
from .ioutil import atomic_write_text
from .model import NumericalAbort
from .ndtensor import Tape, Tensor, grad
from .scenes import MultiViewBatch, load_manifest, load_scene

CHECKPOINT_NAME = "checkpoint.bin"
LOG_NAME = "train_log.txt"


@dataclass
class TrainResult:
    params: dict
    opt_state: dict
    step: int
    log_lines: list = field(default_factory=list)


def _step_rng(seed: int, step: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, step]))


def _select_views(rng, total: int, want: int, dropout: float) -> list:
    idx = sorted(rng.choice(total, size=min(want, total),
                            replace=False).tolist())
    # view dropout trains occasional single-view steps so the model keeps a
    # usable V=1 mode; drawn after the view pick to keep the stream aligned
    if dropout > 0.0 and rng.random() < dropout:
        idx = [idx[int(rng.integers(len(idx)))]]
    return idx


def _subset(batch: MultiViewBatch, view_idx) -> MultiViewBatch:
    return MultiViewBatch(tuple(batch.frames[i] for i in view_idx),
                          batch.illumination)


def scene_loss(images, gt: dict, cfg: RunConfig, params: dict):
    """Forward pass and full objective for one scene's view stack.

    Returns (total, breakdown, depth_term); the depth term enters the total
    with weight cfg.depth_weight and is kept separate in the breakdown so
    the log line can report it unweighted. Divergence raises the forward
    pass's NumericalAbort before any loss precondition can fail.
    """
    out = idtmodel.forward(images, cfg.model, params)
    total, breakdown = losses.loss_total(out, gt, images, cfg.loss)
    depth_term = None
    if cfg.model.aux_depth and gt.get("depth") is not None:
        depth_term = losses.loss_depth_log(out["depth"], gt["depth"])
        total = total + depth_term * cfg.depth_weight
    return total, breakdown, depth_term


def _check_finite(total, breakdown: dict, depth_term) -> None:
    for name in losses.LOSS_TERMS:
        t = breakdown.get(name)
        if t is not None and not np.isfinite(float(t.data)):
            raise NumericalAbort(f"loss term '{name}' is non-finite")
    if depth_term is not None and not np.isfinite(float(depth_term.data)):
        raise NumericalAbort("loss term 'depth' is non-finite")
    if not np.isfinite(float(total.data)):
        raise NumericalAbort("total loss is non-finite")


def _check_finite_grads(names, grads) -> None:
    """Abort before the update on the first non-finite gradient, by name."""
    for name, g in zip(names, grads):
        # a sum is cheaper than an elementwise test and is finite unless an
        # entry is inf/NaN or the entries overflow (the exact test clears that)
        if not math.isfinite(g.data.sum()) and not np.isfinite(g.data).all():
            raise NumericalAbort(f"gradient of parameter '{name}' is non-finite")


def run_training(cfg: RunConfig, resume: str | None = None,
                 log=None) -> TrainResult:
    """Train per the run config; returns final parameters and state.

    `resume` loads a checkpoint and continues from its stored step. The
    latest checkpoint and the loss log live in cfg.out_dir; a resumed run
    keeps the first `step` lines of the log already there, so its log
    reads as if the run had not been interrupted.
    """
    cfg.validate(need_dataset=True)
    manifest = load_manifest(cfg.dataset)
    cfg.model.check_resolution(manifest["height"], manifest["width"])

    n_scenes = manifest["scenes"]
    n_train = n_scenes if cfg.train_scenes == 0 else cfg.train_scenes
    if n_train > n_scenes:
        raise ValueError(f"train_scenes={n_train} exceeds dataset "
                         f"scene count {n_scenes}")
    if cfg.batch_scenes > n_train:
        raise ValueError(f"batch_scenes={cfg.batch_scenes} exceeds "
                         f"training scene count {n_train}")

    if resume is not None:
        params, model_cfg, step0, opt_state = load_checkpoint(resume)
        if model_cfg != cfg.model:
            raise ValueError("checkpoint model configuration does not match "
                             "the run config")
    else:
        params = idtmodel.init_params(cfg.model, cfg.seed)
        step0, opt_state = 0, {}
    params = dict(params)
    param_names = sorted(params)
    velocity = {n: (opt_state[n].data if n in opt_state
                    else np.zeros(params[n].shape)) for n in param_names}

    os.makedirs(cfg.out_dir, exist_ok=True)
    ckpt_path = os.path.join(cfg.out_dir, CHECKPOINT_NAME)
    log_path = os.path.join(cfg.out_dir, LOG_NAME)
    earlier: list = []
    if resume is not None and os.path.exists(log_path):
        with open(log_path) as f:
            earlier = f.read().splitlines()[:step0]

    def save(done: int) -> None:
        opt = {n: Tensor(velocity[n]) for n in param_names}
        save_checkpoint(ckpt_path, params, cfg.model, step=done,
                        opt_state=opt)
        if lines:
            atomic_write_text(log_path, "\n".join(earlier + lines) + "\n")

    cache: dict = {}
    lines: list = []
    final_step = step0
    for step in range(step0, cfg.steps):
        rng = _step_rng(cfg.seed, step)
        scene_ids = sorted(rng.choice(n_train, size=cfg.batch_scenes,
                                      replace=False).tolist())
        view_sel = [_select_views(rng, manifest["views"],
                                  cfg.views_per_batch, cfg.view_dropout)
                    for _ in scene_ids]

        term_sums: dict = {}
        depth_sum = 0.0
        depth_seen = False
        try:
            with Tape() as tape:
                for p in params.values():
                    tape.watch(p)
                total = None
                for sid, vids in zip(scene_ids, view_sel):
                    batch = cache.get(sid)
                    if batch is None:
                        batch = cache[sid] = load_scene(cfg.dataset, sid)
                    sub = _subset(batch, vids)
                    gt = losses.stack_ground_truth(sub)
                    images = np.stack([f.image for f in sub.frames])
                    t, br, dt = scene_loss(images, gt, cfg, params)
                    _check_finite(t, br, dt)
                    total = t if total is None else total + t
                    for name, v in br.items():
                        term_sums[name] = (term_sums.get(name, 0.0)
                                           + float(v.data))
                    if dt is not None:
                        depth_sum += float(dt.data)
                        depth_seen = True
                if len(scene_ids) > 1:
                    total = total * (1.0 / len(scene_ids))

            grads = grad(tape, total, [params[n] for n in param_names])
            _check_finite_grads(param_names, grads)
        except NumericalAbort as exc:
            raise NumericalAbort(f"step {step}: {exc}") from exc

        lr = cfg.step_size / (1.0 + cfg.decay * step)
        for n, g in zip(param_names, grads):
            v = cfg.momentum * velocity[n] + g.data
            velocity[n] = v
            params[n] = Tensor(params[n].data - lr * v)

        k = float(len(scene_ids))
        breakdown = {name: s / k for name, s in term_sums.items()}
        line = losses.format_loss_line(
            step, float(total.data),
            breakdown, depth=depth_sum / k if depth_seen else None)
        lines.append(line)
        if log is not None:
            log(line)

        final_step = step + 1
        if final_step % cfg.checkpoint_every == 0 or final_step == cfg.steps:
            save(final_step)

    opt = {n: Tensor(velocity[n]) for n in param_names}
    return TrainResult(params=params, opt_state=opt, step=final_step,
                       log_lines=lines)
