"""In-process spans around calls into the program's layers.

`traced(tracer)` wraps each public function listed in SPANS and rebinds
the wrapper under every name an `idt` module holds for that function.
Callers that imported a function directly (`from .ndtensor import grad`
in `idt.train`, `from .pfm import read_pfm` in `idt.scenes` and `idt.cli`,
and so on) look it up in their own namespace, so wrapping only the
defining module would miss them. On exit every binding is restored.

The spans record busy time (inclusive), self time (busy minus the time
of the spans nested in it) and calls, plus a few counts taken at the same
boundaries: tape nodes and bytes when the tape is replayed, normals per
irradiance call, bytes written and read. Spans inside the program's own
functions are not recorded, so layers the program reaches only through
private names (the frame and global encoder blocks, `model._block`) are
not separable here.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time

# (defining module, function, span name)
SPANS = (
    ("idt.ndtensor", "attention", "ndtensor.attention"),
    ("idt.ndtensor", "layer_norm", "ndtensor.layer_norm"),
    ("idt.ndtensor", "gelu", "ndtensor.gelu"),
    ("idt.ndtensor", "grad", "ndtensor.grad"),
    ("idt.model", "init_params", "model.init_params"),
    ("idt.model", "forward", "model.forward"),
    ("idt.model", "encode", "model.encode"),
    ("idt.model", "adapt", "model.adapt"),
    ("idt.model", "predict_albedo", "model.heads"),
    ("idt.model", "predict_shading", "model.heads"),
    ("idt.model", "predict_depth", "model.heads"),
    ("idt.model", "illumination_conditioning", "model.heads"),
    ("idt.losses", "loss_total", "losses.loss"),
    ("idt.losses", "loss_depth_log", "losses.loss"),
    ("idt.train", "scene_loss", "train.scene_loss"),
    ("idt.checkpoint", "save_checkpoint", "checkpoint.save"),
    ("idt.checkpoint", "load_checkpoint", "checkpoint.load"),
    ("idt.ioutil", "atomic_write_bytes", "ioutil.write"),
    ("idt.scenes", "render_view", "scenes.render_view"),
    ("idt.scenes", "load_scene", "scenes.load_scene"),
    ("idt.sglight", "diffuse_irradiance_batch", "sglight.irradiance"),
    ("idt.sglight", "specular_response_batch", "sglight.specular"),
    ("idt.pfm", "write_pfm", "pfm.write"),
    ("idt.pfm", "read_pfm", "pfm.read"),
    ("idt.metrics", "evaluate_batch", "metrics.evaluate"),
    ("idt.metrics", "ssim", "metrics.ssim"),
    ("idt.metrics", "warp_to_reference", "metrics.warp"),
)

# the benchmark opens this span itself, around each training step
STEP_SPAN = "train.step"


class Tracer:
    """Spans kept in memory: per name, calls, busy and self seconds."""

    def __init__(self):
        self.calls: dict = {}
        self.busy: dict = {}
        self.self_time: dict = {}
        self.counts: dict = {}
        self._stack: list = []  # [name, start, time of nested spans]

    def begin(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def end(self) -> None:
        name, start, nested = self._stack.pop()
        dt = time.perf_counter() - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.busy[name] = self.busy.get(name, 0.0) + dt
        self.self_time[name] = self.self_time.get(name, 0.0) + dt - nested
        if self._stack:
            self._stack[-1][2] += dt

    def count(self, key: str, n: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def count_written(self, n: int) -> None:
        """Bytes written, charged to every open span."""
        for name in {frame[0] for frame in self._stack}:
            self.count(f"{name}.write_bytes", n)

    def table(self, ops: int) -> str:
        lines = [f"{'span':24s} {'calls/op':>10s} {'busy ms/op':>11s} "
                 f"{'self ms/op':>11s}"]
        for name in sorted(self.busy):
            lines.append(f"{name:24s} {self.calls[name] / ops:10.2f} "
                         f"{1e3 * self.busy[name] / ops:11.4f} "
                         f"{1e3 * self.self_time[name] / ops:11.4f}")
        return "\n".join(lines)


def _before_call(tracer: Tracer, span: str, args) -> None:
    # counts taken as the call enters its span
    if span == "ndtensor.grad":
        tape = args[0]
        tracer.count("tape_nodes", len(tape))
        # bytes of every tensor the recorded operations computed; the tape
        # has no public view of its nodes, so this reads Tape._nodes
        tracer.count("tape_bytes",
                     sum(node[0].data.nbytes for node in tape._nodes))
    elif span == "ioutil.write":
        tracer.count_written(len(args[1]))
    elif span == "sglight.irradiance":
        tracer.count("irradiance_normals", len(args[1]))
    elif span == "pfm.read":
        tracer.count("pfm.read_bytes", os.path.getsize(args[0]))


def _wrap(tracer: Tracer, fn, span: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.begin(span)
        try:
            _before_call(tracer, span, args)
            return fn(*args, **kwargs)
        finally:
            tracer.end()
    return wrapper


def _idt_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "idt" or name.startswith("idt."))]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Route every binding of every SPANS function through a wrapper."""
    modules = _idt_modules()
    saved = []
    try:
        for mod_name, fn_name, span in SPANS:
            original = getattr(sys.modules[mod_name], fn_name)
            wrapper = _wrap(tracer, original, span)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)

