"""Shared plumbing: locating the program, running a pass, fingerprints.

The program is always imported from ``src/`` of the checkout this file
sits in, never from an installed copy. BLAS pools are pinned to one
thread before numpy is first imported, here and in every child process.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import os
import random
import shutil
import signal
import statistics
import sys
import time
import traceback
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from workloads import WORKLOADS, Op

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"       # results, registry and scratch outputs

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


class ProgramMissing(RuntimeError):
    """The checkout holds no importable haselhand package under src/."""


def import_program():
    """Import haselhand.cli from this checkout's src/ and return its main."""
    if not (SRC / "haselhand" / "__init__.py").is_file():
        raise ProgramMissing(f"no haselhand package under {SRC}")
    sys.path.insert(0, str(SRC))
    import haselhand.cli

    if Path(haselhand.cli.__file__).resolve().parent != SRC / "haselhand":
        raise ProgramMissing(f"haselhand imported from {haselhand.cli.__file__}, not {SRC}")
    return haselhand.cli.main


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def code_fingerprint() -> str:
    """sha256 over the program's source files: runs of the same code share it."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def tree_fingerprint(root: Path) -> str:
    """sha256 over every file under root, by relative path and content."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()[:16]


class SpeedProbe:
    """Tracks the machine's current speed with a fixed reference workload.

    The host shares its cores with other tenants, whose load changes the
    speed of the same Python code by a factor of up to 2.5 within
    seconds. The probe times a fixed interpreter loop plus a fixed
    pattern of reads over a 4 MB array, before and after every timed
    call and every PERIOD_S seconds during it (on a wall-clock timer
    signal). A call's time is its wall time minus the time spent probing,
    scaled by REFERENCE_NS over the mean probe duration around and
    during the call: seconds at the reference machine speed. The probe is
    part of the benchmark's definition; changing it changes every time.
    """

    PERIOD_S = 0.1
    # A fixed scale: about the probe's duration on the reference machine
    # (2 vCPU Xeon at 2.0 GHz, Python 3.11.7) while its neighbours are
    # idle, so normalized times read close to quiet-machine wall times.
    REFERENCE_NS = 3_000_000

    def __init__(self) -> None:
        rng = random.Random(0)
        self._data = array("d", range(1 << 19))
        self._reads = [rng.randrange(1 << 19) for _ in range(16000)]
        self.spent_ns = 0
        self.durations: list[int] = []

    def sample(self) -> None:
        clock = time.perf_counter_ns
        t0 = clock()
        acc = 0
        for i in range(20000):
            acc += i * i
        data, total = self._data, 0.0
        for i in self._reads:
            total += data[i]
        d = clock() - t0
        self.durations.append(d)
        self.spent_ns += d

    def clock_ns(self) -> int:
        """Wall clock that stands still while the probe runs."""
        return time.perf_counter_ns() - self.spent_ns

    @contextlib.contextmanager
    def running(self):
        """Sample on a timer while the block runs."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def timed(self, fn: Callable[[], Any]) -> tuple[Any, float, float]:
        """Run fn; return (result, seconds, seconds at reference speed)."""
        self.sample()
        first = len(self.durations) - 1
        t0 = self.clock_ns()
        out = fn()
        seconds = (self.clock_ns() - t0) / 1e9
        self.sample()
        speed = self.REFERENCE_NS / statistics.mean(self.durations[first:])
        return out, seconds, seconds * speed


@dataclass
class OpResult:
    kind: str
    seconds: float          # at reference speed
    raw_seconds: float      # wall time minus probe time
    chain_steps: int
    bytes_written: int
    problems: list[str]
    facts: dict = field(default_factory=dict)


@dataclass
class PassResult:
    index: int
    ops: list[OpResult]
    fingerprint: str

    @property
    def seconds(self) -> float:
        return sum(op.seconds for op in self.ops)

    @property
    def raw_seconds(self) -> float:
        return sum(op.raw_seconds for op in self.ops)


def _call(main: Callable, argv: list[str]):
    try:
        return main(argv)
    except SystemExit as exc:   # argparse rejecting the arguments
        return exc.code
    except Exception:   # a crash is a failed operation, not a failed run
        return traceback.format_exc(limit=3)


def run_op(main: Callable, op: Op, probe: Optional[SpeedProbe] = None,
           around: Optional[Callable] = None) -> OpResult:
    """Time one CLI call (nothing else), then check what it wrote."""
    op.out.mkdir(parents=True, exist_ok=True)
    problems: list[str] = []
    try:
        if op.prepare:
            op.prepare()
    except (OSError, KeyError, ValueError) as exc:
        problems.append(f"{op.kind}: inputs could not be prepared: {exc!r}")
    err = io.StringIO()
    seconds = raw = 0.0
    if not problems:
        gc.collect()
        guard = around() if around else contextlib.nullcontext()
        with guard, contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            if probe is None:
                t0 = time.perf_counter()
                code = _call(main, op.argv)
                seconds = raw = time.perf_counter() - t0
            else:
                code, raw, seconds = probe.timed(lambda: _call(main, op.argv))
        if code != 0:
            problems.append(f"{' '.join(op.argv[:3])}: exit {code} {err.getvalue().strip()}")
    if not problems:
        try:
            problems = op.check(op)
        except (OSError, KeyError, ValueError, TypeError) as exc:
            problems = [f"{op.kind}: output missing or malformed: {exc!r}"]
    written = sum(p.stat().st_size for p in op.out.rglob("*") if p.is_file())
    return OpResult(op.kind, seconds, raw, op.chain_steps, written, problems, op.facts)


def run_pass(main: Callable, workload: str, seed: int, index: int, work: Path,
             probe: Optional[SpeedProbe] = None, around: Optional[Callable] = None) -> PassResult:
    """Generate pass `index` of (workload, seed) under work/, run it, fingerprint it.

    around, when given, returns a fresh context manager entered around
    each CLI call.
    """
    root = work / f"pass{index}"
    shutil.rmtree(root, ignore_errors=True)
    results = [run_op(main, op, probe, around) for op in WORKLOADS[workload](seed, index, root)]
    fingerprint = tree_fingerprint(root / "out")
    shutil.rmtree(root, ignore_errors=True)
    return PassResult(index, results, fingerprint)
