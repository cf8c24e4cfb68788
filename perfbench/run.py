"""Benchmark of the idt toolkit: one workload per process.

    python3 perfbench/run.py --workload train_64 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
With `--trace 0` the run reports the end-to-end metrics; with `--trace 1`
it runs the same rounds untraced and then traced, checks that both produce
the same outputs, and reports the per-layer metrics. Machine information,
the check results and a numerical fingerprint go to stderr; the last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics. See perfbench/README.md.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")


def process_age() -> float:
    """Seconds since this process started (kernel start time, 10 ms
    ticks); the script's first line when /proc is unavailable."""
    try:
        with open("/proc/self/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T0


def blas_threads():
    """Thread count of the loaded OpenBLAS, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as f:
            libs = {ln.split()[-1] for ln in f if "openblas" in ln}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info() -> dict:
    import numpy as np
    import scipy

    info = {"nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": "unknown", "blas_threads": blas_threads()}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        pass
    return info


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


class Phase:
    """Whole rounds of one workload and what they took."""

    def __init__(self, workload, seconds=None, rounds=None, tracer=None,
                 digests=False):
        self.rounds = []
        start = time.perf_counter()

        def more():
            n = len(self.rounds)
            if rounds is not None:
                return n < rounds
            # at least two rounds, so runs with one seed can be compared
            return n < 2 or time.perf_counter() - start < seconds

        while more():
            index = len(self.rounds)
            self.rounds.append(workload.round(
                index, tracer, digest=digests or index == 0))
        self.elapsed = time.perf_counter() - start
        self.attempted = sum(r.attempted for r in self.rounds)
        self.failed = sum(r.failed for r in self.rounds)
        times = [t for r in self.rounds for t in r.op_times]
        self.op_s = statistics.median(times) if times else float("nan")
        self.ops_per_s = (self.attempted - self.failed) / self.elapsed

    def digests(self) -> list:
        return [r.digest for r in self.rounds]


# per-layer metric -> (unit, source, key, scale); sources are the tracer's
# busy or self seconds, call counts, or counts taken at span boundaries
PER_LAYER = {
    "ndtensor.tape_nodes": ("count", "count", "tape_nodes", 1.0),
    "ndtensor.tape_mb": ("MB", "count", "tape_bytes", 1e-6),
    "ndtensor.grad_s": ("s", "busy", "ndtensor.grad", 1.0),
    "ndtensor.attention_s": ("s", "busy", "ndtensor.attention", 1.0),
    "ndtensor.layer_norm_s": ("s", "busy", "ndtensor.layer_norm", 1.0),
    "ndtensor.gelu_s": ("s", "busy", "ndtensor.gelu", 1.0),
    "model.forward_s": ("s", "busy", "model.forward", 1.0),
    "model.encode_s": ("s", "busy", "model.encode", 1.0),
    "model.adapt_s": ("s", "busy", "model.adapt", 1.0),
    "model.heads_s": ("s", "busy", "model.heads", 1.0),
    "losses.loss_s": ("s", "busy", "losses.loss", 1.0),
    "train.scene_loss_s": ("s", "busy", "train.scene_loss", 1.0),
    "train.update_s": ("s", "self", "train.step", 1.0),
    "checkpoint.save_s": ("s", "busy", "checkpoint.save", 1.0),
    "checkpoint.save_mb": ("MB", "count", "checkpoint.save.write_bytes", 1e-6),
    "checkpoint.load_s": ("s", "busy", "checkpoint.load", 1.0),
    "ioutil.write_mb": ("MB", "count", "ioutil.write.write_bytes", 1e-6),
    "scenes.render_view_s": ("s", "busy", "scenes.render_view", 1.0),
    "scenes.load_scene_s": ("s", "busy", "scenes.load_scene", 1.0),
    "sglight.irradiance_s": ("s", "busy", "sglight.irradiance", 1.0),
    "sglight.irradiance_normals": ("count", "count", "irradiance_normals", 1.0),
    "sglight.specular_s": ("s", "busy", "sglight.specular", 1.0),
    "pfm.write_s": ("s", "busy", "pfm.write", 1.0),
    "pfm.write_mb": ("MB", "count", "pfm.write.write_bytes", 1e-6),
    "pfm.read_s": ("s", "busy", "pfm.read", 1.0),
    "pfm.read_mb": ("MB", "count", "pfm.read_bytes", 1e-6),
    "metrics.evaluate_s": ("s", "busy", "metrics.evaluate", 1.0),
    "metrics.ssim_s": ("s", "busy", "metrics.ssim", 1.0),
    "metrics.ssim_calls": ("count", "calls", "metrics.ssim", 1.0),
    "metrics.warp_s": ("s", "busy", "metrics.warp", 1.0),
}


def per_layer_metrics(tracer, ops: int) -> dict:
    """Every PER_LAYER metric per operation; 0 for layers not reached."""
    source = {"busy": tracer.busy, "self": tracer.self_time,
              "calls": tracer.calls, "count": tracer.counts}
    return {name: {"value": source[src].get(key, 0) * scale / ops,
                   "unit": unit}
            for name, (unit, src, key, scale) in PER_LAYER.items()}


def run(name: str, seed: int, seconds: float, trace: bool, shape,
        work_dir: str, clock=process_age, log=None) -> dict:
    """Set up, measure and check one workload; returns the result object."""
    from checks import trace_reproduces
    from tracing import Tracer, traced
    from workloads import WORKLOADS

    log = log or (lambda msg: print(msg, file=sys.stderr))
    workload = WORKLOADS[name](work_dir, seed, shape)
    workload.setup()
    setup_s = clock()

    if not trace:
        phase = Phase(workload, seconds=seconds)
        rss = peak_rss_mb()
        results = workload.checks()
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_s": {"value": phase.op_s, "unit": "s"},
            "ops_per_s": {"value": phase.ops_per_s, "unit": "1/s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
        attempted, failed = phase.attempted, phase.failed
    else:
        plain = Phase(workload, seconds=seconds / 2, digests=True)
        tracer = Tracer()
        with traced(tracer):
            phase = Phase(workload, rounds=len(plain.rounds), tracer=tracer,
                          digests=True)
        results = workload.checks()
        results.append(trace_reproduces(plain.digests(), phase.digests()))
        metrics = per_layer_metrics(tracer, max(phase.attempted, 1))
        metrics["trace.overhead_ratio"] = {
            "value": phase.op_s / plain.op_s, "unit": "ratio"}
        attempted = plain.attempted + phase.attempted
        failed = plain.failed + phase.failed
        log("trace spans per operation:\n" + tracer.table(
            max(phase.attempted, 1)))

    for c in results:
        log(f"check {'PASS' if c.ok else 'FAIL'} {c.name}: {c.detail}")
    try:
        log("fingerprint: " + json.dumps(workload.fingerprint()))
    except Exception as exc:  # the fingerprint is informative, not a gate
        log(f"fingerprint unavailable: {exc!r}")
    return {"correct": all(c.ok for c in results), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train_64", "eval_64", "gen_64"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "idt")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import FULL

    print("machine: " + json.dumps(machine_info()), file=sys.stderr)
    work_dir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     FULL, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
