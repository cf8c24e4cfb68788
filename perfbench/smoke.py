"""Fast smoke test of the benchmark, at 16x16 with a micro model.

    python3 perfbench/smoke.py

Runs every workload untraced and traced for a moment and validates the
result object against BENCHMARK.json; checks that tracing rebinds the
functions callers imported directly and reaches every layer the workload
exercises; shows that each correctness check fails on a deliberately
perturbed value; and shows that the benchmark exits non-zero, without a
result, where the program's sources are missing. Exits 0 when all pass.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
from idt import checkpoint, cli, losses, model  # noqa: E402
from idt import scenes, sglight, train  # noqa: E402

import checks  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORK = os.path.join(HERE, "_work", f"smoke-{os.getpid()}")
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)

# per-layer metrics each workload must reach (see README.md)
_MODEL = {"ndtensor.attention_s", "ndtensor.layer_norm_s", "ndtensor.gelu_s",
          "model.forward_s", "model.encode_s", "model.adapt_s",
          "model.heads_s", "scenes.load_scene_s", "pfm.read_s", "pfm.read_mb",
          "ioutil.write_mb"}
REACHED = {
    "train_64": _MODEL | {"ndtensor.tape_nodes", "ndtensor.tape_mb",
                          "ndtensor.grad_s", "losses.loss_s",
                          "train.scene_loss_s", "train.update_s",
                          "checkpoint.save_s", "checkpoint.save_mb"},
    "eval_64": _MODEL | {"checkpoint.load_s", "metrics.evaluate_s",
                         "metrics.ssim_s", "metrics.ssim_calls",
                         "metrics.warp_s"},
    "gen_64": {"scenes.render_view_s", "sglight.irradiance_s",
               "sglight.irradiance_normals", "sglight.specular_s",
               "pfm.write_s", "pfm.write_mb", "ioutil.write_mb"},
}


def _run(name: str, trace: bool, seed: int = 3):
    work = os.path.join(WORK, f"{name}-{int(trace)}")
    os.makedirs(work)
    lines = []
    t0 = time.perf_counter()
    result = bench.run(name, seed, 0.5, trace, workloads.MICRO, work,
                       clock=lambda: time.perf_counter() - t0,
                       log=lines.append)
    return result, lines


def _validate(result: dict, names: dict) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    json.loads(json.dumps(result))
    assert set(result["metrics"]) == set(names), set(result["metrics"]) ^ set(names)
    for key, m in result["metrics"].items():
        assert set(m) == {"value", "unit"} and m["unit"] == names[key], key
        assert math.isfinite(m["value"]) and m["value"] >= 0, (key, m)


def test_untraced_results():
    names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name in workloads.WORKLOADS:
        result, lines = _run(name, trace=False)
        _validate(result, names)
        assert all(result["metrics"][k]["value"] > 0 for k in names)
        assert not [ln for ln in lines if ln.startswith("check FAIL")]


def test_traced_results_reach_every_layer():
    names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name, reached in REACHED.items():
        result, lines = _run(name, trace=True)
        _validate(result, names)
        zero = [k for k in reached if result["metrics"][k]["value"] == 0]
        assert not zero, (name, zero)
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
        assert any("PASS trace.reproduces_outputs" in ln for ln in lines)


def test_tracing_rebinds_direct_imports():
    direct = [(train, "grad"), (train, "save_checkpoint"),
              (train, "scene_loss"), (scenes, "write_pfm"),
              (scenes, "read_pfm"), (cli, "load_checkpoint"),
              (cli, "load_scene"), (cli, "read_pfm")]
    before = [getattr(m, a) for m, a in direct]
    with tracing.traced(tracing.Tracer()):
        for (m, a), fn in zip(direct, before):
            assert getattr(m, a).__wrapped__ is fn, f"{m.__name__}.{a}"
    assert [getattr(m, a) for m, a in direct] == before


def _flip_low_bit(a: np.ndarray) -> np.ndarray:
    b = np.array(a, dtype=np.float64)
    b.reshape(-1).view(np.uint64)[0] ^= 1
    return b


def _pair(good: checks.Check, bad: checks.Check) -> None:
    assert good.ok, good
    assert not bad.ok, bad
    assert good.name == bad.name


def test_checks_fail_on_perturbed_values():
    rng = np.random.default_rng(0)
    line = "3, 1.5, 0.25, 0.5, 0.125, 0.75, 0.0625, 0.03"
    _pair(checks.losses_finite([line]),
          checks.losses_finite([line.replace("0.125", "nan")]))
    _pair(checks.logs_identical([[line], [line]]),
          checks.logs_identical([[line], [line.replace("1.5", "1.50001")]]))
    _pair(checks.directional_derivative(0.0371622612505, 0.0371622611862),
          checks.directional_derivative(0.0371622612505, 0.0372))
    w = rng.standard_normal((3, 4))
    _pair(checks.bit_exact("t", {"w": w}, {"w": w.copy()}),
          checks.bit_exact("t", {"w": w}, {"w": _flip_low_bit(w)}))
    _pair(checks.reports_identical(["a", "a"]),
          checks.reports_identical(["a", "b"]))
    _pair(checks.same_bytes("g", "ab", "ab"), checks.same_bytes("g", "ab", "ac"))
    _pair(checks.trace_reproduces(["a", "b"], ["a", "b"]),
          checks.trace_reproduces(["a", "b"], ["a", "c"]))

    # eval: real micro outputs from the program, then perturbed copies
    ev = workloads.Eval(os.path.join(WORK, "perturb-eval"), 5,
                        workloads.MICRO)
    os.makedirs(ev.dir)
    ev.setup()
    assert ev.round(0).failed == 0
    with open(os.path.join(ev.out_dir, "metrics.json")) as f:
        rows = json.load(f)
    assert all(c.ok for c in ev.checks())
    own = {sid: checks.own_scores(*_eval_inputs(ev, sid), ev.cfg.loss.eps)
           for sid in range(ev.shape.scenes)}
    bumped = [dict(r) for r in rows]
    bumped[1]["ssim"] = float(bumped[1]["ssim"]) + 1e-7
    _pair(checks.scores_agree(rows, own), checks.scores_agree(bumped, own))
    base = ev.base
    _pair(checks.ranges_hold(base["albedo"], base["s_diff"], base["s_spec"],
                             base["depth"]),
          checks.ranges_hold(base["albedo"] + 1.0, base["s_diff"],
                             base["s_spec"], base["depth"]))
    _pair(checks.ranges_hold(base["albedo"], base["s_diff"], base["s_spec"],
                             base["depth"]),
          checks.ranges_hold(base["albedo"], base["s_diff"], base["s_spec"],
                             base["depth"] * 0.0))
    perm = np.roll(np.arange(len(base["albedo"])), 1)
    permuted = {k: (v[perm] if k != "illum" else v) for k, v in base.items()}
    moved_light = dict(permuted, illum=base["illum"] + 1e-6)
    _pair(checks.permutation_equivariant(base, permuted, perm),
          checks.permutation_equivariant(base, base, perm))
    _pair(checks.permutation_equivariant(base, permuted, perm),
          checks.permutation_equivariant(base, moved_light, perm))

    # gen: a real micro dataset, read back, then perturbed
    gen = workloads.Gen(os.path.join(WORK, "perturb-gen"), 5, workloads.MICRO)
    os.makedirs(gen.dir)
    gen.setup()
    assert gen.round(0, digest=True).failed == 0
    vdir = os.path.join(gen.out_dir, "scene_0000", "view_00")
    img, alb, sd, ss = (checks.read_pfm(os.path.join(vdir, k + ".pfm"))
                        for k in ("image", "albedo", "sdiff", "sspec"))
    hit = np.argmax(alb * sd)
    bad_img = img.copy()
    bad_img.reshape(-1)[hit] *= 1 + 1e-6
    _pair(checks.formation_identity(img, alb, sd, ss),
          checks.formation_identity(bad_img, alb, sd, ss))
    sgm = os.path.join(gen.out_dir, "scene_0000", "sgm.txt")
    normals = np.array([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8]])
    program = sglight.diffuse_irradiance_batch(sglight.load_sgm(sgm), normals)
    dense = np.stack([checks.dense_irradiance(checks.read_sgm(sgm), n)
                      for n in normals])
    _pair(checks.irradiance_agrees(program, dense),
          checks.irradiance_agrees(program * 1.006, dense))
    assert all(c.ok for c in gen.checks())


def _eval_inputs(ev, sid):
    """(prediction, ground truth, images) of one scene, as Eval.checks
    computes them."""
    params, mcfg, _, _ = checkpoint.load_checkpoint(ev.ckpt)
    batch = scenes.load_scene(ev.data_dir, sid)
    images = batch.images()
    pred = workloads._intrinsics(model.decompose(images, mcfg, params))
    return pred, losses.stack_ground_truth(batch), images


def test_missing_sources_exit_nonzero():
    bare = os.path.join(WORK, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_64",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == "", proc


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    failed = 0
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        for test in tests:
            t0 = time.perf_counter()
            try:
                test()
                print(f"PASS {test.__name__} ({time.perf_counter() - t0:.1f}s)")
            except Exception:
                failed += 1
                print(f"FAIL {test.__name__}")
                traceback.print_exc()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(WORK))
        except OSError:
            pass
    print(f"{len(tests) - failed}/{len(tests)} smoke tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
