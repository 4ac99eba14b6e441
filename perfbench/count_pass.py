"""Count pass, run in a fresh interpreter: pass 0 of a workload with exact counters.

Usage: python3 perfbench/count_pass.py WORKLOAD SEED WORKDIR

It re-runs the same inputs as the parent's first timed pass, so its
output fingerprint is that pass's sibling, and it prints one JSON line
with the fingerprint, the counters and any failed checks. Its timings
are discarded.
"""

import contextlib
import json
import sys
from pathlib import Path

from harness import import_program, run_pass
from probes import Counters


def main(argv: list[str]) -> int:
    workload, seed, work = argv[0], int(argv[1]), Path(argv[2])
    program = import_program()
    counters = Counters()

    @contextlib.contextmanager
    def counting():
        counters.active = True
        try:
            yield
        finally:
            counters.active = False

    with counters.install() as missing:
        result = run_pass(program, workload, seed, 0, work, around=counting)
    print(json.dumps({
        "fingerprint": result.fingerprint,
        "counters": counters.c,
        "max_residual_n": counters.max_residual_n,
        "missing_hooks": missing,
        "ops": len(result.ops),
        "chain_steps_requested": sum(op.chain_steps for op in result.ops),
        "problems": [p for op in result.ops for p in op.problems],
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
