"""Lock-free span tracer that times nlwave's layers from outside.

``Tracer.hooks()`` replaces the public functions at each layer boundary with
timing wrappers for the duration of a ``with`` block and restores them on
exit.  Every thread appends its spans to its own log, so recording takes no
lock even when the study thread pool runs integrations concurrently; the
logs are read only after the traced pass, when the pool has shut down.

A span is ``(name, parent, t0, t1, busy, own, count, count2)``: ``t0`` and
``t1`` are wall-clock bounds, ``busy`` is the thread's CPU time inside the
span (time spent waiting for a core or the interpreter lock under the pool
is not counted), ``own`` is ``busy`` minus the busy time of the span's
direct children on the same thread, and the counts are grid nodes, FFT
length or accepted and rejected steps.
"""

import sys
import threading
import time
from array import array
from contextlib import contextmanager

import numpy as np

_perf = time.perf_counter
_cpu = time.thread_time


NAMES = ("cli", "config", "study", "analytic", "run", "build", "integrate",
         "rhs", "poly", "conv_direct", "fft")
_CODE = {name: code for code, name in enumerate(NAMES)}
_NONE = -1  # parent code of a span opened outside every other span


_FIELDS = 8  # name, parent, t0, t1, busy, own, count, count2


class _ThreadLog:
    """One thread's spans, flattened into one array of floats: appending
    creates no objects for the garbage collector to track, which would
    otherwise slow traced runs."""

    __slots__ = ("data", "stack", "child")

    def __init__(self):
        self.data = array("d")
        self.stack = []  # codes of the open spans
        self.child = []  # busy seconds of each open span's children

    def spans(self):
        d = self.data
        return [
            (NAMES[int(d[i])], NAMES[int(d[i + 1])] if d[i + 1] != _NONE else None,
             d[i + 2], d[i + 3], d[i + 4], d[i + 5], int(d[i + 6]), int(d[i + 7]))
            for i in range(0, len(d), _FIELDS)
        ]


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._logs = []  # one _ThreadLog per thread; list.append is atomic

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog()
            self._local.log = log
            self._logs.append(log)
        return log

    def wrap(self, name, fn, counts=None):
        """Timing wrapper around ``fn``; ``counts(args, result)`` returns the
        span's two counts."""
        code = _CODE[name]
        local = self._local

        def wrapper(*args, **kwargs):
            log = getattr(local, "log", None) or self._log()
            stack, child = log.stack, log.child
            parent = stack[-1] if stack else _NONE
            stack.append(code)
            child.append(0.0)
            result = None
            t0, c0 = _perf(), _cpu()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                c1, t1 = _cpu(), _perf()
                stack.pop()
                busy = c1 - c0
                own = busy - child.pop()
                if child:
                    child[-1] += busy
                n, n2 = counts(args, result) if counts else (0, 0)
                log.data.extend((code, parent, t0, t1, busy, own, n, n2))

        return wrapper

    def count_fft(self, fn):
        """Untimed wrapper that logs the length of each inverse FFT in rhs."""
        fft, rhs = _CODE["fft"], _CODE["rhs"]
        local = self._local

        def wrapper(a, n=None, *args, **kwargs):
            log = getattr(local, "log", None) or self._log()
            if log.stack and log.stack[-1] == rhs:
                length = n if n is not None else 2 * (np.shape(a)[-1] - 1)
                log.data.extend((fft, rhs, 0.0, 0.0, 0.0, 0.0, length, 0))
            return fn(a, n, *args, **kwargs)

        return wrapper

    def drain(self):
        """All spans recorded so far, across threads; clears the logs."""
        spans = []
        for log in self._logs:
            spans.extend(log.spans())
            log.__init__()
        return spans

    @contextmanager
    def hooks(self):
        """Install the layer wrappers; restore the originals on exit."""
        import nlwave.cli as cli
        import nlwave.experiments as experiments
        import nlwave.system as system

        def rhs_counts(args, _result):
            # nodes, and 1 when the FFT path ran
            return args[0].grid.node_count, args[0].use_fast

        def steps(_args, traj):
            return (traj.accepted_steps, traj.rejected_steps) if traj else (0, 0)

        targets = [
            (cli, "main", "cli", None),
            (cli, "load_run_config", "config", None),
            (cli, "run_h_refinement", "study", None),
            (cli, "run_truncation_study", "study", None),
            (cli, "run_profile_study", "study", None),
            (cli, "evaluate_solitary", "analytic", None),
            (cli, "check_decay", "analytic", None),
            (cli, "calibrate_envelope", "analytic", None),
            (experiments, "run_single", "run", None),
            (experiments, "build_system", "build", None),
            (experiments, "initial_data", "analytic", None),
            (experiments, "evaluate_solitary", "analytic", None),
            (experiments, "integrate", "integrate", steps),
            (system.TruncatedSystem, "rhs_values", "rhs", rhs_counts),
            (system.Nonlinearity, "evaluate_values", "poly",
             lambda args, _r: (args[1].size, 0)),
            (system, "convolve_rhs_direct", "conv_direct", None),
        ]
        saved = []
        try:
            for owner, attr, name, counts in targets:
                original = owner.__dict__.get(attr)
                if original is None:
                    print(f"perfbench: no hook point {owner.__name__}.{attr}",
                          file=sys.stderr)
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, counts))
            saved.append((np.fft, "irfft", np.fft.irfft))
            np.fft.irfft = self.count_fft(np.fft.irfft)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _peak_overlap(intervals) -> int:
    events = sorted([(t0, 1) for t0, _ in intervals]
                    + [(t1, -1) for _, t1 in intervals])
    peak = level = 0
    for _, step in events:
        level += step
        peak = max(peak, level)
    return peak


def layer_metrics(spans) -> dict:
    """Layer figures of one traced pass.

    Seconds are busy CPU time summed over threads, except the study's, which
    is wall time: ``experiments.concurrency`` is the integrations' busy time
    over the study's wall time.
    """
    busy = {}
    own = {}
    count = {}
    wall = {}
    rhs_nodes = fast_calls = fft_points = poly_nodes = 0
    accepted = rejected = 0
    runs = []
    for name, parent, t0, t1, span_busy, span_own, n, n2 in spans:
        # f, the direct convolution and rhs count only where the rhs calls them
        key = (name, parent) if name in ("rhs", "poly", "conv_direct") else name
        busy[key] = busy.get(key, 0.0) + span_busy
        own[key] = own.get(key, 0.0) + span_own
        count[key] = count.get(key, 0) + 1
        wall[key] = wall.get(key, 0.0) + (t1 - t0)
        if name == "rhs":
            rhs_nodes += n
            fast_calls += n2
        elif name == "fft":
            fft_points += n
        elif name == "poly" and parent == "rhs":
            poly_nodes += n
        elif name == "integrate":
            accepted += n
            rejected += n2
        elif name == "run":
            runs.append((t0, t1))

    rhs_keys = [k for k in busy if isinstance(k, tuple) and k[0] == "rhs"]
    rhs_s = sum(busy[k] for k in rhs_keys)
    rhs_calls = sum(count[k] for k in rhs_keys)
    poly_s = busy.get(("poly", "rhs"), 0.0)
    study_wall = wall.get("study", 0.0)
    steps = accepted + rejected
    return {
        "config.load_s": busy.get("config", 0.0),
        "system.build_s": busy.get("build", 0.0),
        "experiments.study_s": study_wall,
        "experiments.runs": count.get("run", 0),
        "experiments.concurrency": (busy.get("run", 0.0) / study_wall
                                    if study_wall else 0.0),
        "experiments.threads_peak": _peak_overlap(runs),
        "system.rhs_calls": rhs_calls,
        "system.rhs_s": rhs_s,
        "system.rhs_ns_per_node": 1e9 * rhs_s / rhs_nodes if rhs_nodes else 0.0,
        "system.rhs_self_s": sum(own[k] for k in rhs_keys),
        "system.fft_share": fast_calls / rhs_calls if rhs_calls else 0.0,
        "system.fft_points": fft_points,
        "backend.poly_s": poly_s,
        "backend.poly_ns_per_node": 1e9 * poly_s / poly_nodes if poly_nodes else 0.0,
        "backend.conv_direct_s": busy.get(("conv_direct", "rhs"), 0.0),
        "backend.conv_direct_calls": count.get(("conv_direct", "rhs"), 0),
        "integrator.integrate_s": busy.get("integrate", 0.0),
        "integrator.self_s": own.get("integrate", 0.0),
        "integrator.accepted_steps": accepted,
        "integrator.rejected_steps": rejected,
        "integrator.rhs_per_step": (count.get(("rhs", "integrate"), 0) / steps
                                    if steps else 0.0),
        "analytic.s": busy.get("analytic", 0.0),
        "cli.self_s": own.get("cli", 0.0),
    }
