import json
import subprocess
import sys

import numpy as np
import pytest

from idt import cli
from idt.checkpoint import save_checkpoint
from idt.model import ModelConfig, init_params
from idt.ndtensor import Tensor
from idt.pfm import read_pfm, write_pfm
from idt.sglight import SGLobe, SGMixture, load_sgm, save_sgm

MICRO = ModelConfig(patch_size=8, embed_dim=16, block_pairs=1, heads=2,
                    register_count=2, sg_lobes=3, aux_depth=True)

MICRO_KEYS = {"patch_size": 8, "embed_dim": 16, "block_pairs": 1,
              "heads": 2, "register_count": 2, "sg_lobes": 3}


def write_cfg(path, **kv):
    path.write_text("".join(f"{k} = {v}\n" for k, v in kv.items()))
    return str(path)


def tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def micro_ckpt(tmp_path_factory):
    path = tmp_path_factory.mktemp("ck") / "micro.bin"
    save_checkpoint(path, init_params(MICRO, seed=11), MICRO)
    return str(path)


def scene_images(tiny_dataset, n=2):
    return [str(tiny_dataset / "scene_0000" / f"view_{i:02d}" / "image.pfm")
            for i in range(n)]


class TestGenData:
    def test_generates_and_prints_summary(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "g.cfg", scenes=1, views=2, height=8,
                        width=8, data_seed=1)
        out = tmp_path / "ds"
        assert cli.main(["gen-data", "--config", cfg, "--out",
                         str(out)]) == 0
        assert (out / "manifest.txt").exists()
        assert "scenes = 1" in capsys.readouterr().out

    def test_refuses_nonempty_dir(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "g.cfg", scenes=1, views=2, height=8,
                        width=8)
        out = tmp_path / "ds"
        assert cli.main(["gen-data", "--config", cfg, "--out", str(out)]) == 0
        assert cli.main(["gen-data", "--config", cfg, "--out", str(out)]) == 3

    def test_rerun_same_seed_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path / "g.cfg", scenes=1, views=2, height=8,
                        width=8, data_seed=6)
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["gen-data", "--config", cfg, "--out", str(a)]) == 0
        assert cli.main(["gen-data", "--config", cfg, "--out", str(b)]) == 0
        ta, tb = tree_bytes(a), tree_bytes(b)
        assert ta and ta == tb

    def test_bad_config_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "g.cfg", scenez=1)
        assert cli.main(["gen-data", "--config", cfg, "--out",
                         str(tmp_path / "x")]) == 2


class TestDecompose:
    def test_writes_expected_files(self, tiny_dataset, micro_ckpt, tmp_path):
        out = tmp_path / "dec"
        imgs = scene_images(tiny_dataset)
        assert cli.main(["decompose", "--checkpoint", micro_ckpt, "--out",
                         str(out)] + imgs) == 0
        files = sorted(p.name for p in out.iterdir())
        # V x (albedo, sdiff, sspec, recomposed, residual, depth) + sgm
        assert len(files) == 2 * 6 + 1
        assert "sgm.txt" in files and "depth_01.pfm" in files
        alb = read_pfm(out / "albedo_00.pfm")
        assert alb.shape == (16, 16, 3)
        assert alb.min() >= 0.0 and alb.max() <= 1.0

    def test_residual_matches_recomposition(self, tiny_dataset, micro_ckpt,
                                            tmp_path):
        out = tmp_path / "dec"
        imgs = scene_images(tiny_dataset, n=1)
        assert cli.main(["decompose", "--checkpoint", micro_ckpt, "--out",
                         str(out)] + imgs) == 0
        a = read_pfm(out / "albedo_00.pfm")
        s = read_pfm(out / "sdiff_00.pfm")
        sp = read_pfm(out / "sspec_00.pfm")
        r = read_pfm(out / "recomposed_00.pfm")
        res = read_pfm(out / "residual_00.pfm")
        img = read_pfm(imgs[0])
        np.testing.assert_allclose(a * s + sp, r, atol=3e-6)
        np.testing.assert_allclose(np.abs(r - img), res, atol=3e-6)

    def test_deterministic_bytes(self, tiny_dataset, micro_ckpt, tmp_path):
        imgs = scene_images(tiny_dataset)
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert cli.main(["decompose", "--checkpoint", micro_ckpt,
                             "--out", str(out)] + imgs) == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_without_depth_head(self, tiny_dataset, tmp_path):
        nodepth = ModelConfig(patch_size=8, embed_dim=16, block_pairs=1,
                              heads=2, register_count=2, sg_lobes=3,
                              aux_depth=False)
        ck = tmp_path / "nd.bin"
        save_checkpoint(ck, init_params(nodepth, 0), nodepth)
        out = tmp_path / "dec"
        imgs = scene_images(tiny_dataset, n=1)
        assert cli.main(["decompose", "--checkpoint", str(ck), "--out",
                         str(out)] + imgs) == 0
        assert len(list(out.iterdir())) == 5 + 1

    def test_indivisible_resolution(self, micro_ckpt, tmp_path, capsys):
        bad = tmp_path / "bad.pfm"
        write_pfm(bad, np.zeros((12, 12, 3)))
        rc = cli.main(["decompose", "--checkpoint", micro_ckpt, "--out",
                       str(tmp_path / "o"), str(bad)])
        assert rc == 2
        assert "not divisible" in capsys.readouterr().err

    def test_grayscale_rejected(self, micro_ckpt, tmp_path):
        bad = tmp_path / "gray.pfm"
        write_pfm(bad, np.zeros((16, 16)))
        assert cli.main(["decompose", "--checkpoint", micro_ckpt, "--out",
                         str(tmp_path / "o"), str(bad)]) == 2

    def test_missing_image(self, micro_ckpt, tmp_path):
        assert cli.main(["decompose", "--checkpoint", micro_ckpt, "--out",
                         str(tmp_path / "o"),
                         str(tmp_path / "nope.pfm")]) == 3

    def test_corrupt_checkpoint(self, micro_ckpt, tiny_dataset, tmp_path):
        broken = tmp_path / "broken.bin"
        blob = open(micro_ckpt, "rb").read()
        broken.write_bytes(blob[: len(blob) // 2])
        assert cli.main(["decompose", "--checkpoint", str(broken), "--out",
                         str(tmp_path / "o")]
                        + scene_images(tiny_dataset, 1)) == 3

    def test_non_finite_is_numerical_abort(self, tiny_dataset, tmp_path,
                                           capsys):
        params = dict(init_params(MICRO, seed=0))
        params["tokens/camera"] = Tensor(np.full(MICRO.embed_dim, np.nan))
        ck = tmp_path / "nan.bin"
        save_checkpoint(ck, params, MICRO)
        rc = cli.main(["decompose", "--checkpoint", str(ck), "--out",
                       str(tmp_path / "o")] + scene_images(tiny_dataset, 1))
        assert rc == 4
        assert "numerical abort" in capsys.readouterr().err

    @pytest.mark.parametrize("name,value,stage", [
        ("head/spec/dec_w", np.nan, "specular head"),
        ("enc0/frame/wq", np.nan, "encoder"),
        ("head/depth/b", 2000.0, "depth head"),  # exp overflow to inf
    ], ids=["spec_head", "encoder", "depth_overflow"])
    def test_non_finite_stage_is_named(self, tiny_dataset, tmp_path, capsys,
                                       name, value, stage):
        params = dict(init_params(MICRO, seed=0))
        w = params[name].data.copy()
        w.flat[0] = value
        params[name] = Tensor(w)
        ck = tmp_path / "bad.bin"
        save_checkpoint(ck, params, MICRO)
        with np.errstate(over="ignore", invalid="ignore"):
            rc = cli.main(["decompose", "--checkpoint", str(ck), "--out",
                           str(tmp_path / "o")] + scene_images(tiny_dataset, 1))
        assert rc == 4
        err = capsys.readouterr().err
        assert stage in err and "'alb'" not in err


class TestEval:
    def eval_cfg(self, tiny_dataset, tmp_path):
        return write_cfg(tmp_path / "e.cfg", dataset=str(tiny_dataset),
                         **MICRO_KEYS)

    def test_oracle_mode(self, tiny_dataset, tmp_path, capsys):
        cfg = self.eval_cfg(tiny_dataset, tmp_path)
        out = tmp_path / "rep"
        assert cli.main(["eval", "--config", cfg, "--out", str(out),
                         "--oracle"]) == 0
        rows = json.loads((out / "metrics.json").read_text())
        assert len(rows) == 4 * 4  # scenes x factors
        alb = [r for r in rows if r["factor"] == "albedo"]
        assert all(r["psnr"] == "inf" and r["ssim"] == 1.0 for r in alb)
        assert all(r["consistency"] < 0.05 for r in alb)
        csv_text = (out / "metrics.csv").read_text()
        assert csv_text.splitlines()[1].startswith("scene,factor,psnr")
        assert capsys.readouterr().out == csv_text

    def test_model_and_per_view_modes(self, tiny_dataset, micro_ckpt,
                                      tmp_path, capsys):
        cfg = self.eval_cfg(tiny_dataset, tmp_path)
        for extra in ([], ["--per-view"]):
            out = tmp_path / ("rep" + str(len(extra)))
            assert cli.main(["eval", "--config", cfg, "--checkpoint",
                             micro_ckpt, "--out", str(out)] + extra) == 0
            rows = json.loads((out / "metrics.json").read_text())
            assert len(rows) == 4 * 4
            assert {r["factor"] for r in rows} == {
                "albedo", "s_diff", "s_spec", "recon"}

    def test_needs_checkpoint_or_oracle(self, tiny_dataset, tmp_path):
        cfg = self.eval_cfg(tiny_dataset, tmp_path)
        assert cli.main(["eval", "--config", cfg, "--out",
                         str(tmp_path / "rep")]) == 2

    def test_missing_dataset(self, tmp_path):
        cfg = write_cfg(tmp_path / "e.cfg", dataset=str(tmp_path / "none"))
        assert cli.main(["eval", "--config", cfg, "--oracle"]) == 2


class TestTrainCli:
    def train_cfg(self, tiny_dataset, tmp_path, **kw):
        kv = dict(dataset=str(tiny_dataset), out_dir=str(tmp_path / "run"),
                  steps=2, step_size=0.01, views_per_batch=2, seed=3,
                  **MICRO_KEYS)
        kv.update(kw)
        return write_cfg(tmp_path / "t.cfg", **kv)

    def test_short_run(self, tiny_dataset, tmp_path, capsys):
        cfg = self.train_cfg(tiny_dataset, tmp_path)
        assert cli.main(["train", "--config", cfg]) == 0
        run = tmp_path / "run"
        assert (run / "checkpoint.bin").exists()
        assert len((run / "train_log.txt").read_text().splitlines()) == 2

    def test_nan_abort_exit_code(self, tiny_dataset, tmp_path, capsys):
        params = dict(init_params(MICRO, seed=0))
        params["head/depth/b"] = Tensor(params["head/depth/b"].data + 2000.0)
        ck = tmp_path / "poisoned.bin"
        save_checkpoint(ck, params, MICRO, step=0)
        cfg = self.train_cfg(tiny_dataset, tmp_path, steps=1)
        with np.errstate(over="ignore"):
            rc = cli.main(["train", "--config", cfg, "--checkpoint",
                           str(ck)])
        assert rc == 4
        err = capsys.readouterr().err
        assert "numerical abort" in err and "depth" in err

    def test_missing_dataset(self, tmp_path):
        cfg = write_cfg(tmp_path / "t.cfg", dataset=str(tmp_path / "none"),
                        steps=1, **MICRO_KEYS)
        assert cli.main(["train", "--config", cfg]) == 2


class TestRelight:
    @pytest.fixture()
    def decomposed(self, tiny_dataset, micro_ckpt, tmp_path):
        out = tmp_path / "dec"
        imgs = scene_images(tiny_dataset)
        assert cli.main(["decompose", "--checkpoint", micro_ckpt, "--out",
                         str(out)] + imgs) == 0
        return out, imgs

    def test_identical_sgm_is_bitwise_recomposition(self, decomposed,
                                                    micro_ckpt, tmp_path):
        dec, imgs = decomposed
        out = tmp_path / "rel"
        assert cli.main(["relight", "--checkpoint", micro_ckpt, "--sgm",
                         str(dec / "sgm.txt"), "--out", str(out)]
                        + imgs) == 0
        for i in range(2):
            relit = (out / f"relit_{i:02d}.pfm").read_bytes()
            recomposed = (dec / f"recomposed_{i:02d}.pfm").read_bytes()
            assert relit == recomposed
            assert ((out / f"albedo_{i:02d}.pfm").read_bytes()
                    == (dec / f"albedo_{i:02d}.pfm").read_bytes())

    def test_double_amplitude_scales_shading(self, decomposed, micro_ckpt,
                                             tmp_path):
        dec, imgs = decomposed
        mix = load_sgm(dec / "sgm.txt")
        doubled = SGMixture(
            tuple(SGLobe(l.axis, l.sharpness, 2.0 * l.amplitude)
                  for l in mix.lobes), 2.0 * mix.ambient)
        target = tmp_path / "double.txt"
        save_sgm(target, doubled)
        out = tmp_path / "rel2"
        assert cli.main(["relight", "--checkpoint", micro_ckpt, "--sgm",
                         str(target), "--out", str(out)] + imgs) == 0
        a = read_pfm(dec / "albedo_00.pfm")
        s = read_pfm(dec / "sdiff_00.pfm")
        sp = read_pfm(dec / "sspec_00.pfm")
        relit = read_pfm(out / "relit_00.pfm")
        np.testing.assert_allclose(relit, a * (2.0 * s) + 2.0 * sp,
                                   atol=3e-6)

    def test_lobe_count_mismatch(self, decomposed, micro_ckpt, tmp_path):
        dec, imgs = decomposed
        mix = load_sgm(dec / "sgm.txt")
        short = SGMixture(mix.lobes[:2], mix.ambient)
        target = tmp_path / "short.txt"
        save_sgm(target, short)
        assert cli.main(["relight", "--checkpoint", micro_ckpt, "--sgm",
                         str(target), "--out", str(tmp_path / "rel")]
                        + imgs) == 2


class TestRelightRatios:
    def mixture(self, seed=0):
        rng = np.random.default_rng(seed)
        lobes = []
        for _ in range(3):
            ax = rng.standard_normal(3)
            lobes.append(SGLobe(ax / np.linalg.norm(ax),
                                rng.uniform(2.0, 20.0), rng.uniform(0.1, 1.0, 3)))
        return SGMixture(tuple(lobes), rng.uniform(0.01, 0.2, 3))

    def test_identity(self):
        mix = self.mixture()
        r_d, r_s = cli.relight_ratios(mix, mix)
        assert np.all(r_d == 1.0) and np.all(r_s == 1.0)

    def test_uniform_scaling_is_exact(self):
        mix = self.mixture(3)
        doubled = SGMixture(
            tuple(SGLobe(l.axis, l.sharpness, 2.0 * l.amplitude)
                  for l in mix.lobes), 2.0 * mix.ambient)
        r_d, r_s = cli.relight_ratios(mix, doubled)
        assert np.all(r_d == 2.0) and np.all(r_s == 2.0)

    def test_zero_channel_guard(self):
        assert np.array_equal(
            cli._safe_ratio(np.array([0.0, 2.0, 3.0]),
                            np.array([0.0, 1.0, 3.0])),
            np.array([1.0, 2.0, 1.0]))


class TestUsage:
    def test_no_arguments_is_usage_error(self):
        proc = subprocess.run([sys.executable, "-m", "idt.cli"],
                              capture_output=True)
        assert proc.returncode == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2
