"""The benchmark's workloads: inputs, one round of operations, checks.

A workload drives the program through the entry points the `idt` command
uses: `cli.main` in-process, or `train.run_training` with its `log`
callback, which timestamps every step. A round is one such call and holds
a fixed number of operations, so every run attempts whole rounds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

import idt
from idt import checkpoint, cli, config, losses, model, ndtensor, scenes
from idt import sglight, train

import checks
from tracing import STEP_SPAN


@dataclass(frozen=True)
class Shape:
    """Input and model size shared by the three workloads."""

    size: int = 64            # image height and width
    views: int = 4
    scenes: int = 4           # scenes per dataset or per gen-data call
    steps: int = 8            # training steps per round
    checkpoint_every: int = 4
    model: tuple = ()         # (key, value) overrides of ModelConfig


FULL = Shape()
# 16x16 micro model for the smoke test
MICRO = Shape(size=16, scenes=2, steps=4, checkpoint_every=2,
              model=(("embed_dim", 16), ("block_pairs", 1), ("heads", 2),
                     ("register_count", 2)))


@dataclass
class Round:
    attempted: int
    failed: int
    op_times: list      # seconds per operation, one sample per entry
    digest: str | None  # what the round produced, for exact comparison


class SetupError(RuntimeError):
    pass


def derive(seed: int, *keys: int) -> int:
    """A 31-bit seed drawn from the workload seed and fixed keys."""
    state = np.random.SeedSequence([seed % 2 ** 63, *keys]).generate_state(1)
    return int(state[0] >> 1)


def _cli(argv) -> int:
    """cli.main with its report lines kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _intrinsics(pred) -> dict:
    return {"albedo": pred.albedo, "s_diff": pred.s_diff,
            "s_spec": pred.s_spec, "depth": pred.depth,
            "illum": sglight.pack(pred.illumination)}


class Workload:
    name = ""

    def __init__(self, work_dir: str, seed: int, shape: Shape = FULL):
        self.dir = work_dir
        self.seed = seed
        self.shape = shape
        self.cfg_path = os.path.join(work_dir, "run.cfg")
        self.data_dir = os.path.join(work_dir, "data")

    def write_config(self, **keys) -> None:
        s = self.shape
        flat = {"dataset": self.data_dir, "scenes": s.scenes,
                "views": s.views, "height": s.size, "width": s.size,
                **dict(s.model), **keys}
        with open(self.cfg_path, "w") as f:
            f.writelines(f"{k} = {v}\n" for k, v in flat.items())

    def generate(self, out: str, data_seed: int) -> None:
        """`idt gen-data` in this process."""
        code = _cli(["gen-data", "--config", self.cfg_path, "--out", out,
                     "--seed", str(data_seed)])
        if code != 0:
            raise SetupError(f"gen-data exited {code}")

    def generate_inputs(self) -> None:
        """The workload's dataset from `idt gen-data` run as its own
        command, as a user would, so that rendering's memory peak stays
        out of this process's peak RSS."""
        src = os.path.dirname(os.path.dirname(idt.__file__))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ,
                   PYTHONPATH=src + (os.pathsep + path if path else ""))
        proc = subprocess.run(
            [sys.executable, "-m", "idt.cli", "gen-data", "--config",
             self.cfg_path, "--seed", str(derive(self.seed, 1))],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=600)
        if proc.returncode != 0:
            raise SetupError(f"gen-data exited {proc.returncode}: "
                             f"{proc.stderr.strip()}")

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, index: int, tracer=None, digest: bool = False) -> Round:
        """Round `index` of the timed phase. `digest` asks for
        `Round.digest`; workloads whose digest is cheap always make it."""
        raise NotImplementedError

    def checks(self) -> list:
        raise NotImplementedError

    def fingerprint(self) -> dict:
        raise NotImplementedError


class Train(Workload):
    """op = one training step of `idt train`, default ModelConfig."""

    name = "train_64"

    def setup(self) -> None:
        s = self.shape
        self.out_dir = os.path.join(self.dir, "run")
        self.write_config(out_dir=self.out_dir, seed=derive(self.seed, 2),
                          steps=s.steps, step_size=1e-3, batch_scenes=1,
                          views_per_batch=s.views,
                          checkpoint_every=s.checkpoint_every)
        self.generate_inputs()
        self.cfg = config.load_run_config(self.cfg_path)
        self.logs = []
        self.last = None

    def round(self, index: int, tracer=None, digest: bool = False) -> Round:
        stamps, lines = [], []

        def log(line):
            stamps.append(time.perf_counter())
            lines.append(line)
            if tracer is not None:
                tracer.end()
                tracer.begin(STEP_SPAN)

        if tracer is not None:
            tracer.begin(STEP_SPAN)
        try:
            self.last = train.run_training(self.cfg, log=log)
        except train.NumericalAbort:
            self.last = None
        finally:
            if tracer is not None:
                tracer.end()
        self.logs.append(lines)
        steps = self.shape.steps
        return Round(steps, steps - len(lines), list(np.diff(stamps)),
                     _sha256("\n".join(lines).encode()))

    def _directional_derivative(self, params: dict):
        """(central finite difference, tape value) of d scene_loss along a
        seeded unit direction, on all views of scene 0."""
        batch = scenes.load_scene(self.data_dir, 0)
        images = batch.images()
        gt = losses.stack_ground_truth(batch)
        names = sorted(params)
        rng = np.random.default_rng(derive(self.seed, 3))
        u = {n: rng.standard_normal(params[n].shape) for n in names}
        norm = math.sqrt(sum(float(np.sum(u[n] ** 2)) for n in names))
        u = {n: u[n] / norm for n in names}

        with ndtensor.Tape() as tape:
            for n in names:
                tape.watch(params[n])
            total = train.scene_loss(images, gt, self.cfg, params)[0]
        grads = ndtensor.grad(tape, total, [params[n] for n in names])
        along = sum(float(np.sum(g.data * u[n])) for g, n in zip(grads, names))

        def loss_at(h):
            moved = {n: ndtensor.Tensor(params[n].data + h * u[n])
                     for n in names}
            return float(train.scene_loss(images, gt, self.cfg, moved)[0].data)

        h = 1e-4
        return (loss_at(h) - loss_at(-h)) / (2 * h), along

    def checks(self) -> list:
        out = [checks.losses_finite([ln for log in self.logs for ln in log]),
               checks.logs_identical(self.logs)]
        if self.last is None:
            return out + [checks.Check("train.completed", False,
                                       "last round aborted")]
        with open(os.path.join(self.out_dir, train.LOG_NAME)) as f:
            logged = f.read()
        out.append(checks.Check(
            "train.log_file", logged == "\n".join(self.logs[-1]) + "\n",
            f"{len(logged.splitlines())} lines in {train.LOG_NAME}"))

        params, mcfg, step, opt = checkpoint.load_checkpoint(
            os.path.join(self.out_dir, train.CHECKPOINT_NAME))
        want = {n: t.data for n, t in self.last.params.items()}
        want.update({"opt/" + n: t.data
                     for n, t in self.last.opt_state.items()})
        got = {n: t.data for n, t in params.items()}
        got.update({"opt/" + n: t.data for n, t in opt.items()})
        out.append(checks.bit_exact("train.checkpoint_bit_exact", want, got))
        out.append(checks.Check(
            "train.checkpoint_header",
            step == self.shape.steps and mcfg == self.cfg.model,
            f"step {step}, config {'matches' if mcfg == self.cfg.model else 'differs'}"))

        fd, along = self._directional_derivative(self.last.params)
        out.append(checks.directional_derivative(fd, along))
        return out

    def fingerprint(self) -> dict:
        first = self.logs[0]
        batch = scenes.load_scene(self.data_dir, 0)
        pred = model.decompose(batch.images(), self.cfg.model,
                               self.last.params)
        return {f"loss_after_{len(first)}_steps": first[-1].split(",")[1].strip(),
                "decompose_sha256": checks.array_digest(
                    *_intrinsics(pred).values())}


class Eval(Workload):
    """op = one scene decomposed jointly and scored by `idt eval`."""

    name = "eval_64"

    def setup(self) -> None:
        self.out_dir = os.path.join(self.dir, "eval")
        self.ckpt = os.path.join(self.dir, "checkpoint.bin")
        self.write_config(out_dir=self.out_dir)
        self.generate_inputs()
        self.cfg = config.load_run_config(self.cfg_path)
        mcfg = self.cfg.model
        checkpoint.save_checkpoint(
            self.ckpt, model.init_params(mcfg, derive(self.seed, 2)), mcfg)
        self.digests = []
        self.base = None

    def round(self, index: int, tracer=None, digest: bool = False) -> Round:
        t0 = time.perf_counter()
        code = _cli(["eval", "--config", self.cfg_path, "--checkpoint",
                     self.ckpt, "--out", self.out_dir])
        dt = time.perf_counter() - t0
        n = self.shape.scenes
        report = None
        if code == 0:
            with open(os.path.join(self.out_dir, "metrics.json"), "rb") as f:
                report = _sha256(f.read())
        self.digests.append(report)
        return Round(n, 0 if code == 0 else n, [dt / n], report)

    def checks(self) -> list:
        with open(os.path.join(self.out_dir, "metrics.json")) as f:
            rows = json.load(f)
        params, mcfg, _, _ = checkpoint.load_checkpoint(self.ckpt)
        own, preds = {}, []
        for sid in range(self.shape.scenes):
            batch = scenes.load_scene(self.data_dir, sid)
            images = batch.images()
            pred = _intrinsics(model.decompose(images, mcfg, params))
            preds.append(pred)
            own[sid] = checks.own_scores(
                pred, losses.stack_ground_truth(batch), images,
                self.cfg.loss.eps)
        self.base = preds[0]

        def stacked(key):
            return np.concatenate([p[key] for p in preds])

        images = scenes.load_scene(self.data_dir, 0).images()
        perm = np.random.default_rng(derive(self.seed, 5)).permutation(
            len(images))
        if np.all(perm == np.arange(len(perm))):
            perm = perm[::-1].copy()
        permuted = _intrinsics(model.decompose(images[perm], mcfg, params))
        return [checks.scores_agree(rows, own),
                checks.ranges_hold(stacked("albedo"), stacked("s_diff"),
                                   stacked("s_spec"), stacked("depth")),
                checks.permutation_equivariant(self.base, permuted, perm),
                checks.reports_identical(self.digests)]

    def fingerprint(self) -> dict:
        return {"decompose_sha256": checks.array_digest(*self.base.values())}


class Gen(Workload):
    """op = one view rendered and written by `idt gen-data`; each round
    draws a fresh dataset seed, so a run renders many different scenes."""

    name = "gen_64"

    def setup(self) -> None:
        self.out_dir = os.path.join(self.dir, "gen")
        self.write_config(overwrite="true")
        self.first = None

    def data_seed(self, index: int) -> int:
        return derive(self.seed, 4, index)

    def round(self, index: int, tracer=None, digest: bool = False) -> Round:
        t0 = time.perf_counter()
        code = _cli(["gen-data", "--config", self.cfg_path, "--out",
                     self.out_dir, "--seed", str(self.data_seed(index))])
        dt = time.perf_counter() - t0
        n = self.shape.scenes * self.shape.views
        tree = (checks.tree_digest(self.out_dir)
                if digest and code == 0 else None)
        if index == 0:
            self.first = tree
        return Round(n, 0 if code == 0 else n, [dt / n], tree)

    def checks(self) -> list:
        again = os.path.join(self.dir, "gen_again")
        self.generate(again, self.data_seed(0))
        out = [checks.same_bytes("gen.same_seed_same_bytes", self.first,
                                 checks.tree_digest(again))]

        layers = {k: [] for k in ("image", "albedo", "sdiff", "sspec")}
        rng = np.random.default_rng(derive(self.seed, 6))
        program, dense = [], []
        for sid in range(self.shape.scenes):
            sdir = os.path.join(again, scenes.scene_dir_name(sid))
            for vi in range(self.shape.views):
                vdir = os.path.join(sdir, scenes.view_dir_name(vi))
                for k in layers:
                    layers[k].append(checks.read_pfm(
                        os.path.join(vdir, k + ".pfm")))
            sgm = os.path.join(sdir, "sgm.txt")
            light = checks.read_sgm(sgm)
            normals = rng.standard_normal((4, 3))
            normals = np.concatenate([normals, light.axes])
            normals /= np.linalg.norm(normals, axis=1, keepdims=True)
            program.append(sglight.diffuse_irradiance_batch(
                sglight.load_sgm(sgm), normals))
            dense.extend(checks.dense_irradiance(light, n) for n in normals)
        out.append(checks.formation_identity(
            *(np.stack(layers[k]) for k in layers)))
        out.append(checks.irradiance_agrees(np.concatenate(program),
                                            np.stack(dense)))
        return out

    def fingerprint(self) -> dict:
        return {"dataset_sha256": self.first}


WORKLOADS = {w.name: w for w in (Train, Eval, Gen)}
