import itertools

import numpy as np
import pytest

from idt import losses, train
from idt.checkpoint import load_checkpoint, save_checkpoint
from idt.config import RunConfig
from idt.losses import LossConfig
from idt.model import ModelConfig, init_params
from idt.ndtensor import Tape, Tensor
from idt.scenes import DatasetConfig, load_scene, make_dataset
from idt.train import NumericalAbort, run_training

MICRO = ModelConfig(patch_size=8, embed_dim=16, block_pairs=1, heads=2,
                    register_count=2, sg_lobes=3, aux_depth=True)


def run_cfg(dataset, out, **kw):
    kw.setdefault("model", MICRO)
    kw.setdefault("steps", 6)
    kw.setdefault("step_size", 0.01)
    kw.setdefault("views_per_batch", 2)
    kw.setdefault("seed", 3)
    return RunConfig(dataset=str(dataset), out_dir=str(out), **kw)


def totals(lines):
    return [float(ln.split(",")[1]) for ln in lines]


class TestDescent:
    def test_loss_decreases(self, tiny_dataset, tmp_path):
        cfg = run_cfg(tiny_dataset, tmp_path / "run", steps=25)
        result = run_training(cfg)
        t = totals(result.log_lines)
        assert len(t) == 25
        assert t[-1] < t[0]

    def test_log_line_has_depth_column(self, tiny_dataset, tmp_path):
        cfg = run_cfg(tiny_dataset, tmp_path / "run", steps=1)
        result = run_training(cfg)
        assert len(result.log_lines[0].split(",")) == 8

    def test_log_file_written(self, tiny_dataset, tmp_path):
        out = tmp_path / "run"
        cfg = run_cfg(tiny_dataset, out, steps=2)
        result = run_training(cfg)
        text = (out / "train_log.txt").read_text()
        assert text == "\n".join(result.log_lines) + "\n"


class TestDeterminism:
    def test_rerun_is_bit_identical(self, tiny_dataset, tmp_path):
        a = run_training(run_cfg(tiny_dataset, tmp_path / "a", steps=4))
        b = run_training(run_cfg(tiny_dataset, tmp_path / "b", steps=4))
        assert a.log_lines == b.log_lines
        for k in a.params:
            np.testing.assert_array_equal(a.params[k].data, b.params[k].data)
        ca = (tmp_path / "a" / "checkpoint.bin").read_bytes()
        cb = (tmp_path / "b" / "checkpoint.bin").read_bytes()
        assert ca == cb

    def test_resume_matches_uninterrupted_run(self, tiny_dataset, tmp_path):
        full = run_training(run_cfg(tiny_dataset, tmp_path / "full",
                                    steps=8, checkpoint_every=4))
        half_dir = tmp_path / "half"
        run_training(run_cfg(tiny_dataset, half_dir, steps=4,
                             checkpoint_every=4))
        resumed = run_training(
            run_cfg(tiny_dataset, half_dir, steps=8, checkpoint_every=4),
            resume=str(half_dir / "checkpoint.bin"))
        # first resumed step reproduces the uninterrupted step 4 exactly
        assert resumed.log_lines[0] == full.log_lines[4]
        assert resumed.log_lines == full.log_lines[4:]
        assert resumed.step == full.step == 8
        # the resumed run's log file holds all eight steps, as if never cut
        assert ((half_dir / "train_log.txt").read_bytes()
                == (tmp_path / "full" / "train_log.txt").read_bytes())
        for k in full.params:
            np.testing.assert_array_equal(resumed.params[k].data,
                                          full.params[k].data)
            np.testing.assert_array_equal(resumed.opt_state[k].data,
                                          full.opt_state[k].data)

    def test_seed_changes_run(self, tiny_dataset, tmp_path):
        a = run_training(run_cfg(tiny_dataset, tmp_path / "a", steps=2))
        b = run_training(run_cfg(tiny_dataset, tmp_path / "b", steps=2,
                                 seed=4))
        assert a.log_lines != b.log_lines


class TestEdges:
    def test_zero_weights_leave_params_unchanged(self, tiny_dataset,
                                                 tmp_path):
        zl = LossConfig(weight_alb=0.0, weight_diff=0.0, weight_spec=0.0,
                        weight_recon=0.0, weight_illum=0.0)
        cfg = run_cfg(tiny_dataset, tmp_path / "run", steps=3, loss=zl,
                      depth_weight=0.0)
        result = run_training(cfg)
        init = init_params(MICRO, seed=cfg.seed)
        for k, p in init.items():
            np.testing.assert_array_equal(result.params[k].data, p.data)
        assert all(t == 0.0 for t in totals(result.log_lines))

    def test_nan_aborts_with_term_name(self, tiny_dataset, tmp_path):
        params = dict(init_params(MICRO, seed=0))
        # exp overflow in the depth head: inf depth, finite everything else
        params["head/depth/b"] = Tensor(params["head/depth/b"].data + 2000.0)
        ck = tmp_path / "poisoned.bin"
        save_checkpoint(ck, params, MICRO, step=0)
        cfg = run_cfg(tiny_dataset, tmp_path / "run", steps=1)
        with np.errstate(over="ignore"):
            with pytest.raises(NumericalAbort, match="depth"):
                run_training(cfg, resume=str(ck))

    def test_nonfinite_gradient_aborts_before_update(self, tiny_dataset,
                                                     tmp_path, monkeypatch):
        # an inf gradient under a finite loss: the step aborts naming the
        # first poisoned parameter and leaves the parameters as they were
        real_grad = train.grad
        names = sorted(init_params(MICRO, 0))
        poisoned = ("tokens/camera", "head/alb/dec_w")
        calls = itertools.count()

        def grad_with_inf(tape, output, inputs):
            grads = real_grad(tape, output, inputs)
            if next(calls) == 1:
                for name in poisoned:
                    i = names.index(name)
                    g = grads[i].data.copy()
                    g.flat[0] = np.inf
                    grads[i] = Tensor(g)
            return grads

        monkeypatch.setattr(train, "grad", grad_with_inf)
        out = tmp_path / "run"
        with pytest.raises(NumericalAbort,
                           match="step 1: gradient of parameter "
                                 "'head/alb/dec_w' is non-finite"):
            run_training(run_cfg(tiny_dataset, out, steps=3,
                                 checkpoint_every=1))
        monkeypatch.undo()
        one = run_training(run_cfg(tiny_dataset, tmp_path / "one", steps=1))
        params, _, step, _ = load_checkpoint(out / "checkpoint.bin")
        assert step == 1
        for k in names:
            np.testing.assert_array_equal(params[k].data, one.params[k].data)

    def test_divergence_aborts_not_raises(self, tiny_dataset, tmp_path):
        # a huge step size must end in a classified numerical abort, never
        # in a loss precondition error
        cfg = run_cfg(tiny_dataset, tmp_path / "run", steps=40,
                      step_size=30.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalAbort, match="step"):
                run_training(cfg)

    def test_resume_config_mismatch(self, tiny_dataset, tmp_path):
        ck = tmp_path / "c.bin"
        other = ModelConfig(patch_size=8, embed_dim=32, block_pairs=1,
                            heads=2, register_count=2, sg_lobes=3)
        save_checkpoint(ck, init_params(other, 0), other)
        with pytest.raises(ValueError, match="does not match"):
            run_training(run_cfg(tiny_dataset, tmp_path / "run"),
                         resume=str(ck))

    def test_too_many_train_scenes(self, tiny_dataset, tmp_path):
        cfg = run_cfg(tiny_dataset, tmp_path / "run", train_scenes=9)
        with pytest.raises(ValueError, match="train_scenes"):
            run_training(cfg)

    def test_batch_larger_than_train_set(self, tiny_dataset, tmp_path):
        cfg = run_cfg(tiny_dataset, tmp_path / "run", train_scenes=1,
                      batch_scenes=2)
        with pytest.raises(ValueError, match="batch_scenes"):
            run_training(cfg)

    def test_indivisible_resolution(self, tiny_dataset, tmp_path):
        bad = ModelConfig(patch_size=12, embed_dim=16, block_pairs=1,
                          heads=2, register_count=2, sg_lobes=3)
        cfg = run_cfg(tiny_dataset, tmp_path / "run", model=bad)
        with pytest.raises(ValueError, match="not divisible"):
            run_training(cfg)

    def test_view_dropout_and_multi_scene_batches(self, tiny_dataset,
                                                  tmp_path):
        cfg = run_cfg(tiny_dataset, tmp_path / "run", steps=2,
                      batch_scenes=2, view_dropout=1.0)
        result = run_training(cfg)
        assert len(result.log_lines) == 2
        assert np.isfinite(totals(result.log_lines)).all()

    def test_checkpoint_carries_step(self, tiny_dataset, tmp_path):
        out = tmp_path / "run"
        run_training(run_cfg(tiny_dataset, out, steps=5,
                             checkpoint_every=2))
        assert load_checkpoint(out / "checkpoint.bin")[2] == 5


def test_scene_loss_tape_size(tmp_path):
    """One default-model scene (V=4, 64x64) stays a short tape: each layer
    (layer norm, multi-head attention, GELU, linear, mean) is one node."""
    make_dataset(DatasetConfig(scenes=1, views=4, height=64, width=64,
                               seed=1), tmp_path / "data")
    batch = load_scene(tmp_path / "data", 0)
    cfg = RunConfig(dataset=str(tmp_path / "data"), out_dir=str(tmp_path))
    params = init_params(cfg.model, 0)
    with Tape() as tape:
        tape.watch(*params.values())
        train.scene_loss(batch.images(), losses.stack_ground_truth(batch),
                         cfg, params)
    assert len(tape) <= 265
    # the token views are sliced once per scene, not once per access
    getitems = [node for node in tape._nodes
                if node[2].__qualname__.startswith("getitem.")]
    assert len(getitems) <= 8
