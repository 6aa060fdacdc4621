"""Outside-in tracing of bellsim's layers.

The tracer replaces public functions of each bellsim module with wrappers
that record a span (name, layer, start, end, thread, parent) and count
work from the call's arguments and return value.  Nothing under src/
changes: every module attribute bound to a traced function is patched,
including the names ``bellsim.cli`` imports directly.  Spans stay in
memory; the pass writes them out when it ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import Counter, defaultdict

#: Traced functions per layer; a layer is a bellsim module.
TRACED = {
    "cli": ("main",),
    "report": ("build_report", "render_json", "render_text"),
    "spinmodel": ("quantum_correlation", "subquantum_correlation"),
    "montecarlo": ("run_experiment", "run_experiment_records", "description_equivalence",
                   "chsh_details", "write_trials_csv"),
    "ballprotocol": ("run_stage", "run_stage_records", "analytic_stage_report",
                     "bell_inequality_check", "contextual_decomposition", "write_stage_csv"),
    "commoncause": ("spin_event_model", "ball_event_model", "empirical_ball_event_model",
                    "binary_event_model_from_json_dict", "full_report"),
    "rng": ("RngStream.trial_doubles",),
}
LAYERS = tuple(TRACED)
#: Writers whose self time is reported on its own.
WRITERS = (("montecarlo", "write_trials_csv"), ("ballprotocol", "write_stage_csv"))


def _config(args, kwargs):
    return args[0] if args else kwargs["config"]


def _count_trial_doubles(c, args, kwargs, result):
    # The returned block is a view of everything Philox generated.
    c["rng.doubles_generated"] += result.base.size if result.base is not None else result.size


def _count_mc(c, args, kwargs, result):
    trials = _config(args, kwargs).trials
    c["montecarlo.trials_simulated"] += trials
    c["rng.doubles_used"] += 2 * trials  # sign draw and outcome draw


def _count_ball(c, args, kwargs, result):
    config = _config(args, kwargs)
    report = result[0] if isinstance(result, tuple) else result
    c["ballprotocol.trials_simulated"] += config.trials
    c["ballprotocol.registered"] += report.registered_trials
    # Algorithm and correlation draws; the two filter draws only matter
    # when filters can mismatch.
    c["rng.doubles_used"] += (4 if config.filter_mismatch_prob > 0.0 else 2) * config.trials


def _count_build_report(c, args, kwargs, result):
    sweep = result["results"].get("sweep")
    if sweep:
        c["spinmodel.sweep_points"] += sweep["row_count"]


def _count_render(c, args, kwargs, result):
    c["report.bytes_rendered"] += len(result.encode("utf-8"))


COUNTERS = {
    "trial_doubles": _count_trial_doubles,
    "run_experiment": _count_mc,
    "run_experiment_records": _count_mc,
    "run_stage": _count_ball,
    "run_stage_records": _count_ball,
    "build_report": _count_build_report,
    "render_json": _count_render,
    "render_text": _count_render,
}


class Tracer:
    def __init__(self) -> None:
        #: (id, name, layer, start, end, thread, parent id or None)
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        #: Traced names this version of bellsim does not define.
        self.missing: list[str] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, layer: str, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # A pool thread's span belongs to the library call that is
            # waiting for it on the main thread (one client, closed loop).
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            span = next(self._ids)
            stack.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span, name, layer, start, end, threading.get_ident(), parent))
            if count is not None:
                with self._lock:
                    count(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> "Tracer":
        modules = {layer: importlib.import_module(f"bellsim.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, names in TRACED.items():
            for dotted in names:
                owner = modules[layer]
                *path, name = dotted.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, name, None)
                if original is None:
                    self.missing.append(f"{layer}.{dotted}")
                    continue
                wrappers[original] = self._wrap(layer, name, original)
                self._set(owner, name, wrappers[original])
        # Names bound by `from ... import ...` in other modules.
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    self._set(module, attr, wrappers[value])
        return self

    def _set(self, owner, name: str, value) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()


def _union(intervals) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def summarize(spans, counters: dict) -> dict:
    """Per-layer calls, busy and self time, writer self time, work counts.

    A span's self time is its duration minus the union of its children's
    intervals; a layer's busy time is the union of its spans' intervals.
    """
    children = defaultdict(list)
    for s in spans:
        children[s[6]].append(s)
    self_time = {}
    for s in spans:
        kids = [(max(k[3], s[3]), min(k[4], s[4])) for k in children[s[0]]]
        self_time[s[0]] = (s[4] - s[3]) - _union((lo, hi) for lo, hi in kids if hi > lo)
    m: dict[str, float] = {}
    for layer in LAYERS:
        mine = [s for s in spans if s[2] == layer]
        m[f"{layer}.calls"] = len(mine)
        m[f"{layer}.busy_s"] = _union((s[3], s[4]) for s in mine)
        m[f"{layer}.self_s"] = sum((self_time[s[0]] for s in mine), 0.0)
    for layer, name in WRITERS:
        m[f"{layer}.{name}.self_s"] = sum((self_time[s[0]] for s in spans if s[1] == name), 0.0)
    threads = defaultdict(set)
    for s in spans:
        if s[1] == "trial_doubles":
            threads[s[6]].add(s[5])
    c = Counter(counters)
    m["rng.doubles_generated"] = c["rng.doubles_generated"]
    m["rng.doubles_used"] = c["rng.doubles_used"]
    m["rng.useful_ratio"] = _ratio(c["rng.doubles_used"], c["rng.doubles_generated"])
    m["rng.threads_max"] = max((len(t) for t in threads.values()), default=0)
    m["montecarlo.trials_simulated"] = c["montecarlo.trials_simulated"]
    m["montecarlo.sim_per_requested"] = _ratio(c["montecarlo.trials_simulated"],
                                               c["montecarlo.trials_requested"])
    m["ballprotocol.trials_simulated"] = c["ballprotocol.trials_simulated"]
    m["ballprotocol.registered_ratio"] = _ratio(c["ballprotocol.registered"],
                                                c["ballprotocol.trials_simulated"])
    m["spinmodel.sweep_points"] = c["spinmodel.sweep_points"]
    m["report.bytes_rendered"] = c["report.bytes_rendered"]
    m["export.bytes_written"] = c["export.bytes_written"]
    m["export.rows_written"] = c["export.rows_written"]
    return m


def _ratio(num: int, den: int) -> float:
    """num/den, or 0.0 on a workload that does no such work."""
    return num / den if den else 0.0
