"""Wrappers for the traced pass (spans) and the count pass (counters).

Both install plain function wrappers on attributes of the program's
modules and classes, at the names their callers bind, and restore the
originals afterwards. A wrapper records only while an operation is in
flight, so the benchmark's own output checks are never recorded.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

# (module, attribute path, span name). The layer is the span name's
# prefix; it is the module that does the work, whichever module binds it.
SPAN_TARGETS = [
    ("haselhand.cli", "cmd_characterize", "cli.characterize"),
    ("haselhand.cli", "cmd_grasp", "cli.grasp"),
    ("haselhand.cli", "cmd_detect_batch", "cli.detect_batch"),
    ("haselhand.cli", "cmd_replay", "cli.replay"),
    ("haselhand.cli", "load_config", "config.load"),
    ("haselhand.cli", "default_config", "config.load"),
    ("haselhand.cli", "resolve_scenario", "config.resolve"),
    ("haselhand.cli", "resolve_preset", "config.resolve"),
    ("haselhand.control", "resolve_scenario", "config.resolve"),
    ("haselhand.cli", "config_hash", "config.hash"),
    ("haselhand.config", "config_hash", "config.hash"),
    ("haselhand.control", "profile_hash", "config.hash"),
    ("haselhand.plant", "profile_hash", "config.hash"),
    ("haselhand.cli", "run_scenario", "plant.run_scenario"),
    ("haselhand.control", "run_scenario", "plant.run_scenario"),
    ("haselhand.plant", "Plant", "plant.build"),
    ("haselhand.plant", "reference_force", "actuator.reference_force"),
    ("haselhand.plant", "capacitance_of", "actuator.capacitance_of"),
    ("haselhand.plant", "displacement_current", "actuator.displacement_current"),
    ("haselhand.cli", "active_force", "actuator.active_force"),
    ("haselhand.plant", "extensor_tension", "transmission.extensor_tension"),
    ("haselhand.cli", "delivered_tension", "transmission.delivered_tension"),
    ("haselhand.cli", "fingertip_force", "kinematics.fingertip_force"),
    ("haselhand.cli", "run_grasp_episode", "control.episode"),
    ("haselhand.cli", "calibrate_threshold", "control.calibrate"),
    ("haselhand.cli", "detect_grasp", "control.detect"),
    ("haselhand.control", "detect_grasp", "control.detect"),
    ("haselhand.control", "record_baseline", "control.baseline"),
    ("haselhand.control", "ContactAwareController.command", "control.command"),
    ("haselhand.cli", "load_trace", "trace.decode"),
    ("haselhand.trace", "SignalTrace.to_csv_text", "trace.encode"),
]


@contextmanager
def patched(wrappers: list[tuple[str, str, Callable]]) -> Iterator[list[str]]:
    """Install make_wrapper(original) at each (module, path); yield the missing ones.

    Only an attribute the module or class defines itself is replaced,
    so restoring it afterwards is exact.
    """
    saved, missing = [], []
    try:
        for module, path, make_wrapper in wrappers:
            *parents, attr = path.split(".")
            owner: Any = importlib.import_module(module)
            for name in parents:
                owner = getattr(owner, name, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                missing.append(f"{module}.{path}")
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, make_wrapper(original))
        yield missing
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class Tracer:
    """In-memory spans: [name, start_ns, end_ns, parent index, op id].

    clock is the harness's probe-excluding clock, so time the speed
    probe spends inside a span is not charged to it.
    """

    def __init__(self, clock: Callable[[], int]) -> None:
        self.spans: list[list] = []
        self.encoded_bytes = 0
        self.op = -1
        self.clock = clock
        self._stack: list[int] = []

    def wrap(self, name: str) -> Callable[[Callable], Callable]:
        spans, stack, clock = self.spans, self._stack, self.clock

        def make(fn: Callable) -> Callable:
            def traced(*args, **kwargs):
                if self.op < 0:
                    return fn(*args, **kwargs)
                idx = len(spans)
                rec = [name, 0, 0, stack[-1] if stack else -1, self.op]
                spans.append(rec)
                stack.append(idx)
                t0 = clock()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    rec[2] = clock()
                    rec[1] = t0
                    stack.pop()
                if name == "trace.encode":
                    self.encoded_bytes += len(out)
                return out
            return traced
        return make

    def install(self):
        return patched([(m, p, self.wrap(n)) for m, p, n in SPAN_TARGETS])

    @contextmanager
    def op_span(self, op_id: int) -> Iterator[None]:
        """Root span of one operation (the cli.main call)."""
        self.op = op_id
        rec = ["cli.main", self.clock(), 0, -1, op_id]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[2] = self.clock()
            self._stack.pop()
            self.op = -1

    def summary(self, speed: list[float]) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self nanoseconds at reference speed.

        speed[op] scales the spans of operation op the way the harness
        scaled its wall time. Calls nest and run on one thread, so a
        span's children are disjoint and self time is its duration
        minus theirs.
        """
        child = [0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_ns": 0.0, "self_ns": 0.0})
        for (name, t0, t1, _, op), c in zip(self.spans, child):
            row = out[name]
            row["calls"] += 1
            row["total_ns"] += (t1 - t0) * speed[op]
            row["self_ns"] += (t1 - t0 - c) * speed[op]
        return dict(out)


class Counters:
    """Exact per-step counts from wrappers on the plant's chain kernel."""

    KEYS = ("chain_steps", "stall_solves", "memo_hits", "gated_steps", "episodes",
            "commander_calls", "trace_bytes")

    def __init__(self) -> None:
        self.c = dict.fromkeys(self.KEYS, 0)
        self.max_residual_n = 0.0
        self.active = False

    def _advance(self, fn: Callable) -> Callable:
        c = self.c

        def advance(chain, *args):
            if not self.active:
                return fn(chain, *args)
            x0, solves = chain.x, c["stall_solves"]
            out = fn(chain, *args)
            c["chain_steps"] += 1
            if c["stall_solves"] == solves:
                # No solve: either the stiction gate held x, or the memo
                # supplied the target. A memo hit that moves nothing is
                # indistinguishable from a gated step and counts as one.
                if out == x0 and chain.x == x0:
                    c["gated_steps"] += 1
                else:
                    c["memo_hits"] += 1
            return out
        return advance

    def _count(self, key: str) -> Callable[[Callable], Callable]:
        def make(fn: Callable) -> Callable:
            def counted(*args, **kwargs):
                out = fn(*args, **kwargs)
                if self.active:
                    self.c[key] += len(out) if key == "trace_bytes" else 1
                return out
            return counted
        return make

    def _episode(self, fn: Callable) -> Callable:
        def episode(*args, **kwargs):
            trace = fn(*args, **kwargs)
            if self.active:
                self.c["episodes"] += 1
                self.max_residual_n = max(self.max_residual_n,
                                          float(trace.meta["max_equilibrium_residual_n"]))
            return trace
        return episode

    def install(self):
        return patched([
            ("haselhand.plant", "ChainSim.advance", self._advance),
            ("haselhand.plant", "ChainSim.stall_target", self._count("stall_solves")),
            ("haselhand.cli", "run_scenario", self._episode),
            ("haselhand.control", "run_scenario", self._episode),
            ("haselhand.control", "ContactAwareController.command", self._count("commander_calls")),
            ("haselhand.trace", "SignalTrace.to_csv_text", self._count("trace_bytes")),
        ])
