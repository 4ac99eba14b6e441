"""haselhand benchmark: closed-loop CLI workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one thread, BLAS pinned to one thread. Each operation is
one in-process ``haselhand.cli.main([...])`` call issued after the
previous one returned. --trace 0 runs timed passes (no wrappers) and
prints the end-to-end metrics; --trace 1 runs timed passes for half the
time, traced passes for the rest, and prints the per-layer metrics.
Both modes re-run the first pass in a fresh interpreter with exact
counters (count_pass.py), whose output fingerprint must equal the timed
pass's. The last line of standard output is the result JSON. See
README.md for the workloads, metrics and the layer-to-metric map.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import (STATE, ProgramMissing, SpeedProbe, child_env, code_fingerprint,
                     import_program, run_op, run_pass)
from probes import Tracer
from workloads import WORKLOADS, characterize_op, setup_inputs

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 150

# Tail percentile per workload, about the highest with at least ten
# timed calls beyond it at the seed code's sample count, placed inside a
# group of similar calls (README.md). It is fixed, so a faster program
# that fits more calls into a run is not scored at a different point of
# the distribution. detect_batch runs about ten calls, too few for any
# percentile to have ten beyond it; between its two slowest calls (p90)
# the figure spread 10% across seeds, so it reports p75.
TAIL_PCT = {"detect_batch": 75, "contact_hold": 75, "sweep_io": 83}

SETUP_CODE = """\
import sys
import haselhand.cli
from haselhand.config import default_config, load_config, resolve_scenario
cfg = load_config(sys.argv[1]) if sys.argv[1] else default_config()
resolve_scenario(cfg, sys.argv[2])
"""


def percentile(values: list[float], pct: float) -> float:
    if pct >= 100 or len(values) == 1:
        return max(values)
    return statistics.quantiles(values, n=100, method="inclusive")[round(pct) - 1]


def measure_setup(workload: str, seed: int, work: Path,
                  probe: SpeedProbe) -> tuple[float, float]:
    """Median time of fresh interpreters: import, config load, first resolve.

    Returns (seconds at reference speed, wall seconds).
    """
    config, preset = setup_inputs(workload, seed, work / "setup")
    cmd = [sys.executable, "-c", SETUP_CODE, str(config) if config else "", preset]
    timed, raw = [], []
    for k in range(SETUP_PROBES + 1):   # the first probe warms the bytecode cache
        _, seconds, at_ref = probe.timed(lambda: subprocess.run(
            cmd, env=child_env(), cwd=work, check=True, timeout=CHILD_TIMEOUT_S,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE))
        if k:
            timed.append(at_ref)
            raw.append(seconds)
    return statistics.median(timed), statistics.median(raw)


def run_passes(program, workload, seed, work, first, until, probe, around=None):
    """Run passes first, first+1, ... until `until` (perf_counter) has passed."""
    passes = []
    with probe.running():
        for index in itertools.count(first):
            passes.append(run_pass(program, workload, seed, index, work, probe, around))
            if time.perf_counter() >= until:
                return passes


def count_pass(workload: str, seed: int, work: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "count_pass.py"), workload, str(seed), str(work / "count")],
        env=child_env(), cwd=work, timeout=CHILD_TIMEOUT_S, capture_output=True, text=True)
    try:
        if proc.returncode == 0:
            return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        pass
    return {"problems": [f"count pass exited {proc.returncode}: {proc.stderr[-2000:]}"]}


def check_registry(key: str, counters: dict, fingerprints: list[str]) -> list[str]:
    """Compare with earlier runs of the same code and seed; remember this one.

    Pass k has the same inputs in every run of a seed, so its output
    fingerprint must repeat; runs differ only in how many passes fit.
    """
    path = STATE / "registry.json"
    registry = json.loads(path.read_text()) if path.exists() else {}
    problems = []
    old = registry.get(key, {"counters": counters, "fingerprints": []})
    if old["counters"] != counters:
        problems.append(f"counters differ from an earlier run: {old['counters']}")
    n = min(len(old["fingerprints"]), len(fingerprints))
    if old["fingerprints"][:n] != fingerprints[:n]:
        problems.append("output fingerprints differ from an earlier run of the same code")
    longest = max(old["fingerprints"], fingerprints, key=len)
    registry[key] = {"counters": counters, "fingerprints": longest}
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(registry, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return problems


def ops_of(passes):
    return [op for p in passes for op in p.ops]


def timings(workload, passes, setup_s, raw=False):
    """Time metrics of timed passes, at reference speed or (raw) as measured."""
    attr = "raw_seconds" if raw else "seconds"
    lat = [getattr(op, attr) for op in ops_of(passes)]
    busy = sum(lat)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(getattr(p, attr) for p in passes), "s"),
        "ops_per_s": (len(lat) / busy, "1/s"),
        "op_ms_p50": (1e3 * statistics.median(lat), "ms"),
        "op_ms_tail": (1e3 * percentile(lat, TAIL_PCT[workload]), "ms"),
        "chain_steps_per_s": (sum(op.chain_steps for op in ops_of(passes)) / busy, "1/s"),
    }


def per_layer(timed, traced, tracer, counts):
    ops = ops_of(traced)
    # Calls whose inputs could not be prepared never ran and opened no span.
    spans = tracer.summary([op.seconds / op.raw_seconds for op in ops if op.raw_seconds])
    n_ops = len(ops)
    steps = sum(op.chain_steps for op in ops)

    def mean_ms(name):
        row = spans.get(name)
        return row["total_ns"] / row["calls"] / 1e6 if row else 0.0

    def self_ns(*prefixes):
        return sum(r["self_ns"] for n, r in spans.items() if n.startswith(prefixes))

    enc = spans.get("trace.encode", {"total_ns": 0})["total_ns"]
    c = counts.get("counters", {})
    moving = c.get("memo_hits", 0) + c.get("stall_solves", 0)
    n_count_ops = max(counts.get("ops", 0), 1)
    metrics = {
        "plant.chain_step_ns": (self_ns("plant.run_scenario") / steps if steps else 0.0, "ns"),
        "plant.build_ms": (mean_ms("plant.build"), "ms"),
        "plant.stall_solves_per_kstep": (
            1e3 * c.get("stall_solves", 0) / c["chain_steps"] if c.get("chain_steps") else 0.0,
            "count"),
        "plant.memo_hit_ratio": (c.get("memo_hits", 0) / moving if moving else 0.0, "ratio"),
        "plant.executed_step_share": (
            c.get("chain_steps", 0) / max(counts.get("chain_steps_requested", 0), 1), "ratio"),
        "plant.max_residual_n": (counts.get("max_residual_n", 0.0), "N"),
        "control.detect_ms": (mean_ms("control.detect"), "ms"),
        "control.calibrate_ms": (mean_ms("control.calibrate"), "ms"),
        "control.command_us": (1e3 * mean_ms("control.command"), "us"),
        "control.command_calls": (c.get("commander_calls", 0) / n_count_ops, "count"),
        "control.baseline_ms": (mean_ms("control.baseline"), "ms"),
        "trace.encode_ms": (mean_ms("trace.encode"), "ms"),
        "trace.decode_ms": (mean_ms("trace.decode"), "ms"),
        "trace.encode_mb_per_s": (tracer.encoded_bytes / 1e6 / (enc / 1e9) if enc else 0.0, "MB/s"),
        "trace.bytes_per_op": (c.get("trace_bytes", 0) / n_count_ops, "B"),
        "config.load_ms": (mean_ms("config.load"), "ms"),
        "config.resolve_ms": (mean_ms("config.resolve"), "ms"),
        "config.hash_ms": (mean_ms("config.hash"), "ms"),
        "cli.verb_self_ms": (self_ns("cli.") / n_ops / 1e6, "ms"),
        "cli.bytes_written_per_op": (sum(op.bytes_written for op in ops) / n_ops, "B"),
    }
    for layer in ("plant", "control", "trace", "config", "actuator", "transmission", "kinematics"):
        metrics[f"{layer}.self_ms_per_op"] = (self_ns(layer + ".") / n_ops / 1e6, "ms")
    traced_wall = statistics.median(p.seconds for p in traced)
    timed_wall = statistics.median(p.seconds for p in timed)
    metrics["bench.trace_overhead"] = (traced_wall / timed_wall, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        program = import_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2

    probe = SpeedProbe()
    work = STATE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_s, setup_raw = measure_setup(args.workload, args.seed, work, probe)
        t0 = time.perf_counter()
        share = 0.5 if args.trace else 1.0
        timed = run_passes(program, args.workload, args.seed, work, 0,
                           t0 + share * args.seconds, probe)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        traced, tracer, missing = [], Tracer(probe.clock_ns), []
        if args.trace:
            op_ids = itertools.count()
            with tracer.install() as missing:
                traced = run_passes(program, args.workload, args.seed, work, len(timed),
                                    t0 + args.seconds, probe,
                                    lambda: tracer.op_span(next(op_ids)))
        extra = []
        if args.workload != "sweep_io":
            extra.append(run_op(program, characterize_op(work / "characterize", None)))
        counts = count_pass(args.workload, args.seed, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = ops_of(timed + traced) + extra
    failed = {id(op) for op in results if op.problems}
    problems = [p for op in results for p in op.problems]
    run_problems = list(counts.get("problems", []))
    if counts.get("fingerprint") not in (None, timed[0].fingerprint):
        run_problems.append(f"pass 0 fingerprint {timed[0].fingerprint} differs from its "
                            f"sibling run's {counts['fingerprint']}")
    code = code_fingerprint()
    run_problems += check_registry(f"{args.workload}:{args.seed}:{code}", counts.get("counters"),
                                   [p.fingerprint for p in timed + traced])
    if run_problems:   # the sibling or an earlier run disagrees: pass 0's calls failed
        failed |= {id(op) for op in timed[0].ops}
        problems += run_problems
    attempted = len(results)
    ok_ratio = 1.0 - len(failed) / attempted
    # A failed characterize is already counted; score its error as total.
    model_err = max((op.facts["model_err"] for op in results if "model_err" in op.facts),
                    default=1.0)

    e2e = {**timings(args.workload, timed, setup_s),
           "peak_rss_mb": (peak_rss_mb, "MB"),
           "ok_ratio": (ok_ratio, "ratio"),
           "model_err_max": (model_err, "ratio")}
    metrics = per_layer(timed, traced, tracer, counts) if args.trace else e2e
    lat = [op.seconds for op in ops_of(timed)]
    tail_at = percentile(lat, TAIL_PCT[args.workload])
    tail = {"tail_pct": TAIL_PCT[args.workload], "samples": len(lat),
            "beyond_tail": sum(1 for x in lat if x > tail_at)}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "code": code, "time": time.time(),
        "machine": {"nproc": os.cpu_count(), "python": sys.version.split()[0],
                    "numpy": sys.modules["numpy"].__version__},
        "passes": len(timed), "traced_passes": len(traced), "tail": tail,
        "fingerprints": [p.fingerprint for p in timed + traced],
        "count_pass": counts, "missing_hooks": missing, "problems": problems[:50],
        "metrics": {k: v for k, (v, _) in {**e2e, **metrics}.items()},
        "measured": {k: v for k, (v, _) in
                     timings(args.workload, timed, setup_raw, raw=True).items()},
        "probe_ms_median": statistics.median(probe.durations) / 1e6,
    }
    with open(STATE / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    for p in problems[:20]:
        print(f"perfbench: FAILED {p}")
    print(f"perfbench: {args.workload} seed={args.seed} passes={len(timed)}+{len(traced)} "
          f"ops={attempted} tail=p{tail['tail_pct']} of {tail['samples']} calls "
          f"({tail['beyond_tail']} beyond) fingerprint={timed[0].fingerprint} code={code}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
