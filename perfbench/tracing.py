"""Timestamps and spans recorded from outside ocusim.

``StepProbe`` marks the end of each training call's set-up (the return of
the ``optim.Adam`` constructor) and the end of every optimizer step (the
return of ``Adam.step``).  It is the only probe of an untraced run.

``Tracer`` wraps public callables of the ocusim modules in spans so that a
traced run can split every step into layers.  Both patch class and module
attributes at run time and put the originals back on ``uninstall``; the
package sources are never edited.
"""

from __future__ import annotations

import bisect
import functools
import time

from ocusim import data, networks, nn, optics, optim, srp, tensorize

MODULES = (optics, tensorize, nn, optim, data, networks, srp)

# module-level functions: (module, attribute, span name or None for "module.attribute")
FUNCTIONS = (
    (optics, "transfer_partials", None),
    (optics, "ocu_vjp", None),
    (optics, "balanced_detect", None),
    (optics, "stacked_transfer_partials", None),
    (optics, "propagation_matrices", None),
    (tensorize, "im2col_batch", None),
    (tensorize, "fold_batch", None),
    (nn, "softmax_cross_entropy", "nn.softmax_xent"),
    (nn, "mse_loss", None),
    (data, "add_awgn", None),
    (data, "synthetic_corpus", None),
    (data, "synthetic_blobs", None),
    (data, "crop_patches", None),
    (srp, "conv2d_reference", None),
    (networks, "calibrate_optical_layers", None),
)


def _conv_span(kind):
    def name(layer, x=None, training=False, *_, **__):
        return f"nn.{kind}{layer.q}x{layer.c}.{'fwd' if training else 'infer'}"

    def back(layer, *_, **__):
        return f"nn.{kind}{layer.q}x{layer.c}.bwd"
    return name, back


def _plain_span(kind):
    def name(layer, x=None, training=False, *_, **__):
        return f"nn.{kind}.{'fwd' if training else 'infer'}"

    def back(layer, *_, **__):
        return f"nn.{kind}.bwd"
    return name, back


# layer classes: (class, span-name factory for forward and backward)
LAYERS = (
    (nn.OclLayer, _conv_span("ocl")),
    (nn.Conv2dLayer, _conv_span("conv")),
    (nn.BatchNormLayer, _plain_span("batchnorm")),
    (nn.ReluLayer, _plain_span("relu")),
    (nn.Pool2dLayer, _plain_span("pool")),
    (nn.DenseLayer, _plain_span("dense")),
)


class SetupDone(Exception):
    """Raised at the end of a training call's set-up when only set-up is timed."""


class StepProbe:
    """Timestamps at optimizer construction and at every optimizer step.

    ``marks`` holds one list per training call: the set-up end, then the
    end of each step.  A step therefore spans from the previous mark to its
    own, so every step is timed including the loop work around it.
    """

    def __init__(self):
        self.marks: list[list[float]] = []
        self.setup_only = False
        self.plan: Interleave | None = None
        self._saved = None

    def install(self):
        init, step = optim.Adam.__init__, optim.Adam.step
        probe = self

        @functools.wraps(init)
        def probed_init(opt, *args, **kwargs):
            init(opt, *args, **kwargs)
            probe.marks.append([time.perf_counter()])
            if probe.setup_only:
                raise SetupDone
            if probe.plan is not None:
                probe.plan.setup_end()

        @functools.wraps(step)
        def probed_step(opt):
            start = time.perf_counter()
            step(opt)
            end = time.perf_counter()
            probe.marks[-1].append(end)
            if probe.plan is not None:
                if probe.plan.tracer.installed:
                    probe.plan.tracer.record("optim.adam_step", start, end)
                probe.plan.step_end()

        self._saved = (init, step)
        optim.Adam.__init__, optim.Adam.step = probed_init, probed_step

    def uninstall(self):
        if self._saved is not None:
            optim.Adam.__init__, optim.Adam.step = self._saved
            self._saved = None


class Interleave:
    """Which steps of a traced run are traced.

    Steps alternate in blocks of ``block``: untraced, traced, untraced, ...
    counted from the first step of each training call, so the traced and
    the untraced steps sample the same stretch of every round and their
    medians give the tracing overhead.  Set-up and evaluation are traced.
    """

    def __init__(self, tracer, steps_per_round: int, block: int):
        self.tracer = tracer
        self.steps_per_round = steps_per_round
        self.block = block
        self.step = 0

    def traced(self, step: int) -> bool:
        """Whether step ``step`` (0-based, within its training call) is traced."""
        return step < self.steps_per_round and (step // self.block) % 2 == 1

    def _switch(self):
        if self.step >= self.steps_per_round or self.traced(self.step):
            self.tracer.install()
        else:
            self.tracer.uninstall()

    def setup_end(self):
        self.step = 0
        self._switch()

    def step_end(self):
        self.step += 1
        self._switch()


class Tracer:
    """Span recorder; spans are ``[name, start, end, parent index or -1]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []     # (owner, attribute, original, wrapped)
        self.installed = False

    def record(self, name, start, end):
        """Add a completed span under whichever span is open."""
        self.spans.append([name, start, end, self._stack[-1] if self._stack else -1])

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name(*args, **kwargs) if callable(name) else name, 0.0, 0.0,
                    tracer._stack[-1] if tracer._stack else -1]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
        return traced

    def _plan(self):
        for owner, attr, name in FUNCTIONS:
            original = getattr(owner, attr)
            wrapped = self._wrap(original, name or f"{owner.__name__.split('.')[-1]}.{attr}")
            for mod in MODULES:
                for key, value in vars(mod).items():
                    if value is original:
                        self._patches.append((mod, key, original, wrapped))
        for cls, (fwd_name, bwd_name) in LAYERS:
            for attr, name in (("forward", fwd_name), ("backward", bwd_name)):
                original = cls.__dict__[attr]
                self._patches.append((cls, attr, original, self._wrap(original, name)))

    def install(self):
        if not self._patches:
            self._plan()
        if not self.installed:
            for owner, attr, _, wrapped in self._patches:
                setattr(owner, attr, wrapped)
            self.installed = True

    def uninstall(self):
        if self.installed:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)
            self.installed = False


def _child_time(spans) -> list[float]:
    """Seconds each span spent in its direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return child


def span_stats(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total ms and self ms (minus direct children)."""
    child = _child_time(spans)
    stats: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        s["calls"] += 1
        s["ms"] += (end - start) * 1e3
        s["self_ms"] += (end - start - child[i]) * 1e3
    return stats


def reconcile(spans, windows) -> list[dict]:
    """Split each step window into span self times and an unattributed rest.

    ``windows`` are the (start, end) of traced steps.  A span belongs to the
    step whose window holds it.  For each step the self times of its spans
    plus ``unattributed`` equal the step time by construction; the returned
    ``error_ms`` checks that spans nest and stay inside their step.
    """
    starts = [w[0] for w in windows]
    child = _child_time(spans)
    steps = [{"step_ms": (e - s) * 1e3, "self_ms": {}, "top_ms": 0.0} for s, e in windows]
    for i, (name, start, end, parent) in enumerate(spans):
        k = bisect.bisect_right(starts, start) - 1
        if k < 0 or end > windows[k][1]:
            continue
        row = steps[k]
        row["self_ms"][name] = row["self_ms"].get(name, 0.0) + (end - start - child[i]) * 1e3
        if parent < 0:
            row["top_ms"] += (end - start) * 1e3
    for row in steps:
        attributed = sum(row["self_ms"].values())
        row["unattributed_ms"] = row["step_ms"] - row.pop("top_ms")
        row["error_ms"] = abs(attributed + row["unattributed_ms"] - row["step_ms"])
        if row["unattributed_ms"] < 0:
            row["error_ms"] = max(row["error_ms"], -row["unattributed_ms"])
    return steps
