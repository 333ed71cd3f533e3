"""Per-layer tracing for the benchmark's traced runs.

A ``Tracer`` replaces the public names that ``cvdistill.cli``,
``cvdistill.scenario`` and ``cvdistill.calibrate`` call at run time, the
active kernel's ``accumulate_chunk`` and ``CovarianceAccumulator``'s
merge with wrappers that record a span (name, start, end, parent) and
counts at each boundary. ``remove`` restores the originals, so untraced
operations run the program unchanged. A name that no longer exists is
listed in ``missing`` instead of failing the run.

Spans recorded inside Monte Carlo worker processes stay there: with more
than one worker the kernel and worker-side merges are not seen.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict

# (module, attribute, span name). Span names are "<defining module>.<function>",
# so a function imported into two namespaces reports as one layer.
TARGETS = [("cvdistill.cli", "main", "cli.main"),
           ("cvdistill.cli", "run_scenario", "scenario.run_scenario")]
TARGETS += [("cvdistill.scenario", attr, span) for attr, span in (
    ("calibrate", "calibrate.calibrate"),
    ("calibrate_envelope", "calibrate.calibrate_envelope"),
    ("discrete_channel", "channel.discrete_channel"),
    ("envelope_fading", "channel.envelope_fading"),
    ("envelope_exponential", "channel.envelope_exponential"),
    ("make_kerr_entangled", "gaussian.make_kerr_entangled"),
    ("gaussian_log_negativity", "gaussian.gaussian_log_negativity"),
    ("propagate", "channel.propagate"),
    ("pooled_cm", "channel.pooled_cm"),
    ("upper_bound_ln", "channel.upper_bound_ln"),
    ("attach_tap", "distill.attach_tap"),
    ("herald", "distill.herald"),
    ("distilled_gln", "distill.distilled_gln"),
    ("gaussification_metrics", "distill.gaussification_metrics"),
    ("joint_quadrature_variances", "distill.joint_quadrature_variances"),
    ("kernel_backend", "mc.kernel_backend"),
    ("run_mc", "mc.run_mc"),
    ("ln_with_se", "mc.ln_with_se"),
    ("emit_artifacts", "scenario.emit_artifacts"),
)]
TARGETS += [("cvdistill.calibrate", attr, span) for attr, span in (
    ("discrete_premix_ln", "calibrate.discrete_premix_ln"),
    ("semicontinuous_premix_ln", "calibrate.semicontinuous_premix_ln"),
    ("make_kerr_entangled", "gaussian.make_kerr_entangled"),
    ("gaussian_log_negativity", "gaussian.gaussian_log_negativity"),
    ("propagate", "channel.propagate"),
    ("pooled_cm", "channel.pooled_cm"),
    ("discrete_channel", "channel.discrete_channel"),
    ("envelope_fading", "channel.envelope_fading"),
    ("envelope_exponential", "channel.envelope_exponential"),
)]
KERNEL_MODULES = {"python": "cvdistill.mc._kernel_py", "compiled": "cvdistill.mc._shotkernel"}
ACCUMULATOR_METHODS = [("merge_moments", "accumulators.merge_moments"),
                       ("covariance", "accumulators.covariance")]


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _kernel_module():
    """The module whose ``accumulate_chunk`` run_mc calls, if it can be found."""
    backend = getattr(_module("cvdistill.mc"), "kernel_backend", None)
    name = KERNEL_MODULES.get(backend()) if backend is not None else None
    return _module(name) if name else None


def _mc_config(args):
    """The McConfig of a ``run_mc(mixture, config)`` call, if passed by position."""
    return args[1] if len(args) > 1 else None


class Tracer:
    """Spans and counts of the wrapped calls, kept in memory."""

    def __init__(self):
        self.keep_spans = True
        self.spans = []  # (name, start, end, parent index or None)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.missing = []
        self._stack = []  # open frames: [span name, child time, span index, in-process run_mc]
        self._undo = []

    def install(self) -> None:
        self.missing = []
        for module, attr, span in TARGETS:
            self._wrap(_module(module), attr, span, module)
        self._wrap(_kernel_module(), "accumulate_chunk", "kernel.accumulate_chunk",
                   "active kernel")
        accumulator = getattr(_module("cvdistill.mc"), "CovarianceAccumulator", None)
        for attr, span in ACCUMULATOR_METHODS:
            self._wrap(accumulator, attr, span, "CovarianceAccumulator")

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, owner, attr: str, span: str, where: str) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{where}.{attr}")
            return
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(span, args)
            start = time.perf_counter()
            try:
                out = original(*args, **kwargs)
            except BaseException as exc:
                tracer._exit(frame, start, args, None, exc)
                raise
            tracer._exit(frame, start, args, out, None)
            return out

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def _enter(self, span: str, args) -> list:
        parent = self._stack[-1][2] if self._stack else None
        in_process = span == "mc.run_mc" and getattr(_mc_config(args), "n_workers", 0) == 1
        if self._stack and self._stack[-1][3]:
            in_process = True
        index = len(self.spans)
        if self.keep_spans:
            self.spans.append([span, 0.0, 0.0, parent])
        frame = [span, 0.0, index if self.keep_spans else None, in_process]
        self._stack.append(frame)
        return frame

    def _exit(self, frame, start: float, args, out, exc) -> None:
        end = time.perf_counter()
        dt = end - start
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += dt
        span = frame[0]
        self.total[span] += dt
        self.self_time[span] += dt - frame[1]
        self.calls[span] += 1
        if self.keep_spans:
            self.spans[frame[2]][1:3] = [start, end]
        if span == "mc.run_mc":
            self._count_run_mc(_mc_config(args), out, exc, dt, frame[3])
        elif span == "kernel.accumulate_chunk":
            self.counts["kernel_bytes"] += sum(getattr(a, "nbytes", 0) for a in args)
        elif span == "scenario.emit_artifacts" and out is not None:
            self.counts["files"] += len(out)
        if span in ("kernel.accumulate_chunk", "accumulators.merge_moments") and frame[3]:
            self.total["in_process_kernel_merge"] += dt

    def _count_run_mc(self, config, result, exc, dt: float, in_process: bool) -> None:
        self.counts["shots"] += getattr(config, "n_shots", 0)
        if result is not None:
            self.counts["kept"] += result.kept_count
        elif getattr(exc, "pre_stats", None) is not None:
            self.counts["degenerate"] += 1
            self.counts["kept"] += exc.pre_stats["kept_count"]
        if in_process:
            self.total["in_process_run_mc"] += dt

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-operation per-layer figures: (value, unit) by metric name."""
        t, c, n = self.total, self.calls, self.counts
        shots = n["shots"]
        run_mc_s = t["mc.run_mc"]
        per_op = {
            "calibrate.source_s": (t["calibrate.calibrate"], "s"),
            "calibrate.envelope_s": (t["calibrate.calibrate_envelope"], "s"),
            "calibrate.ln_evals": (c["calibrate.discrete_premix_ln"]
                                   + c["calibrate.semicontinuous_premix_ln"], "count"),
            "channel.propagate_s": (t["channel.propagate"], "s"),
            "channel.upper_bound_s": (t["channel.upper_bound_ln"], "s"),
            "distill.herald_s": (t["distill.herald"], "s"),
            "distill.herald_calls": (c["distill.herald"], "count"),
            "mc.run_mc_s": (run_mc_s, "s"),
            "mc.run_mc_calls": (c["mc.run_mc"], "count"),
            "mc.degenerate_calls": (n["degenerate"], "count"),
            "mc.shots": (shots, "count"),
            "mc.kept": (n["kept"], "count"),
            "mc.sampling_s": (t["in_process_run_mc"] - t["in_process_kernel_merge"], "s"),
            "mc.kernel_s": (t["kernel.accumulate_chunk"], "s"),
            "mc.kernel_calls": (c["kernel.accumulate_chunk"], "count"),
            "mc.kernel_bytes": (n["kernel_bytes"], "B"),
            "mc.ln_se_s": (t["mc.ln_with_se"], "s"),
            "accumulators.merge_s": (t["accumulators.merge_moments"], "s"),
            "accumulators.merge_calls": (c["accumulators.merge_moments"], "count"),
            "scenario.emit_s": (t["scenario.emit_artifacts"], "s"),
            "scenario.files": (n["files"], "count"),
            "scenario.self_s": (self.self_time["scenario.run_scenario"], "s"),
            "cli.self_s": (self.self_time["cli.main"], "s"),
        }
        out = {name: (value / n_ops, unit) for name, (value, unit) in per_op.items()}
        out["mc.shots_per_s"] = (shots / run_mc_s if run_mc_s > 0 else 0.0, "1/s")
        out["mc.kept_per_shot"] = (n["kept"] / shots if shots else 0.0, "ratio")
        out["trace.missing"] = (len(self.missing), "count")
        return out
