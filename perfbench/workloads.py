"""Workload generators and output checks.

Every input of a run (config JSON, presets, detector documents, seeds,
episode counts) is derived from (workload, seed, pass index), so the
same arguments always produce the same operations. An operation is one
``haselhand`` CLI verb; a pass is a fixed sequence of operations whose
composition does not depend on the seed, so per-pass timings compare
across seeds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
BASE_CONFIG = HERE / "base_config.json"

# Simulation grid of the shipped configuration (base_config.json): a 2 s
# episode is 2000 sample periods of 10 internal steps for every chain.
STEPS_PER_CHAIN = 2000 * 10
N_CALIBRATION = 4            # calibration episodes per class in detect-batch
DETECT_CHAINS = 4            # detect_free, detect_cube, balloon_hold: thumb + index
MAX_RESIDUAL_N = 1e-6

# Characterization bench values from the paper: fingertip force at
# 5.5 kV (N) and index MCP saturation angle (deg).
PAPER_TIP_N = {"index": 0.53, "thumb": 0.26}
PAPER_MCP_SAT_DEG = 30.0

FINGERS = ("thumb", "index", "middle", "ring", "pinky")
OBJECTS = ("cube", "mushroom", "stuffed_toy", "pet_bottle", "paper_balloon")


@dataclass
class Op:
    """One CLI call, the inputs it needs written first, and its check."""

    kind: str
    argv: list[str]
    out: Path
    chain_steps: int
    check: Callable[["Op"], list[str]]
    prepare: Optional[Callable[[], None]] = None
    facts: dict = field(default_factory=dict)


def _json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def check_trace_file(csv_path: Path) -> list[str]:
    """A written trace must re-encode byte-identically and solve exactly."""
    from haselhand.trace import load_trace

    problems = []
    raw = csv_path.read_bytes()
    if load_trace(csv_path).to_csv_text().encode("utf-8") != raw:
        problems.append(f"{csv_path.name}: load_trace does not re-encode byte-identically")
    residual = _json(csv_path.with_suffix(".meta.json"))["max_equilibrium_residual_n"]
    if not residual <= MAX_RESIDUAL_N:
        problems.append(f"{csv_path.name}: stall residual {residual} N > {MAX_RESIDUAL_N} N")
    return problems


def model_error(meta: dict) -> float:
    """Largest relative error of characterize against the paper's bench values."""
    errs = [abs(meta["fingertip_n"][f] - ref) / ref for f, ref in PAPER_TIP_N.items()]
    sat = meta["saturation_deg"]["index_mcp"]
    errs.append(abs(sat - PAPER_MCP_SAT_DEG) / PAPER_MCP_SAT_DEG)
    return max(errs)


def characterize_op(out: Path, config: Optional[Path]) -> Op:
    def check(op: Op) -> list[str]:
        meta = _json(op.out / "characterize.meta.json")
        op.facts["model_err"] = model_error(meta)
        # Acceptance criterion 4's tolerances: 15% on forces, 30 +/- 5 deg.
        tips_ok = all(abs(meta["fingertip_n"][f] - ref) <= 0.15 * ref
                      for f, ref in PAPER_TIP_N.items())
        if not (tips_ok and 25.0 <= meta["saturation_deg"]["index_mcp"] <= 35.0):
            return [f"characterize off the paper's bench values: {meta['fingertip_n']}, "
                    f"index MCP {meta['saturation_deg']['index_mcp']} deg"]
        return []

    argv = ["characterize", "--out", str(out)]
    if config is not None:
        argv += ["--config", str(config)]
    return Op("characterize", argv, out, 2 * 2 * STEPS_PER_CHAIN, check)


# ---------------------------------------------------------------------------
# detect_batch
# ---------------------------------------------------------------------------

def detect_batch_pass(seed: int, index: int, root: Path) -> list[Op]:
    rng = random.Random(f"detect_batch:{seed}:{index}")
    n_free, n_grasp = rng.choice([(1, 2), (2, 1)])
    batch_seed = rng.randrange(1_000_000)
    out = root / "out" / "0_detect-batch"

    def check(op: Op) -> list[str]:
        s = _json(op.out / "detect_batch_summary.json")
        total = n_free + n_grasp
        if (s["n_free"], s["n_grasp"], s["total"], s["correct"]) != (n_free, n_grasp, total, total):
            return [f"detect-batch seed {batch_seed}: {s['correct']}/{s['total']} correct, "
                    f"expected {total}/{total}"]
        if not (op.out / "detector.json").is_file():
            return ["detect-batch wrote no detector.json"]
        return []

    argv = ["detect-batch", "--free", str(n_free), "--grasp", str(n_grasp),
            "--seed", str(batch_seed), "--out", str(out)]
    steps = (2 * N_CALIBRATION + n_free + n_grasp) * DETECT_CHAINS * STEPS_PER_CHAIN
    return [Op("detect-batch", argv, out, steps, check)]


# ---------------------------------------------------------------------------
# contact_hold
# ---------------------------------------------------------------------------

def _balloon_op(out: Path, seed: int, controlled: bool) -> Op:
    stem = f"balloon_hold_seed{seed}"

    def check(op: Op) -> list[str]:
        problems = check_trace_file(op.out / f"{stem}.csv")
        v = _json(op.out / f"{stem}.report.json")["verdicts"]
        force, f_crush = v["max_contact_force"], v["f_crush"]
        if controlled and not (v.get("held") and force < f_crush):
            problems.append(f"controlled balloon seed {seed}: held={v.get('held')} "
                            f"force {force:.3f} N vs f_crush {f_crush} N")
        if not controlled and not force > f_crush:
            problems.append(f"uncontrolled balloon seed {seed}: force {force:.3f} N "
                            f"does not exceed f_crush {f_crush} N")
        return problems

    argv = ["grasp", "--preset", "balloon_hold", "--seed", str(seed), "--out", str(out)]
    if not controlled:
        argv.append("--no-controller")
    # A controlled call first records its free-motion baseline episode.
    episodes = 2 if controlled else 1
    kind = "grasp-controlled" if controlled else "grasp-open"
    return Op(kind, argv, out, episodes * DETECT_CHAINS * STEPS_PER_CHAIN, check)


def contact_hold_pass(seed: int, index: int, root: Path) -> list[Op]:
    rng = random.Random(f"contact_hold:{seed}:{index}")
    # Five alternating calls, three of them closed loop, so the median
    # call lies inside the closed-loop group instead of on the gap
    # between the two groups.
    ops = []
    for k, controlled in enumerate((True, False, True, False, True)):
        out = root / "out" / f"{k}_{'on' if controlled else 'off'}"
        ops.append(_balloon_op(out, rng.randrange(1_000_000), controlled))
    return ops


# ---------------------------------------------------------------------------
# sweep_io
# ---------------------------------------------------------------------------

def sweep_presets(seed: int, index: int) -> dict[str, dict]:
    """Four open-loop presets of 2, 3, 4 and 5 fingers in seeded order.

    Object, ramp target and ramp time are drawn per preset, so no two
    episodes of a run share mechanics. Every preset includes the index
    finger, whose MCP stack is the monitored one.
    """
    rng = random.Random(f"sweep_io:{seed}:{index}")
    presets = {}
    for k, n_fingers in enumerate(rng.sample([2, 3, 4, 5], 4)):
        others = rng.sample([f for f in FINGERS if f != "index"], n_fingers - 1)
        fingers = [f for f in FINGERS if f == "index" or f in others]
        presets[f"sweep_{index}_{k}"] = {
            "fingers": fingers,
            "object": rng.choice(OBJECTS),
            "profiles": {"*": {"kind": "ramp_hold",
                               "target_kv": round(rng.uniform(4.5, 5.5), 4),
                               "ramp_s": round(rng.uniform(0.6, 1.4), 4)}},
            "duration": None,
            "controller": "none",
            "amp_ceiling": None,
        }
    return presets


def write_sweep_config(seed: int, index: int, path: Path) -> dict[str, dict]:
    doc = json.loads(BASE_CONFIG.read_text(encoding="utf-8"))
    presets = sweep_presets(seed, index)
    doc["presets"].update(presets)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return presets


def _grasp_op(out: Path, config: Path, name: str, preset: dict, seed: int) -> Op:
    stem = f"{name}_seed{seed}"

    def check(op: Op) -> list[str]:
        problems = check_trace_file(op.out / f"{stem}.csv")
        if _json(op.out / f"{stem}.report.json")["scenario"] != name:
            problems.append(f"{stem}: report names another scenario")
        return problems

    argv = ["grasp", "--config", str(config), "--preset", name,
            "--seed", str(seed), "--out", str(out)]
    steps = 2 * len(preset["fingers"]) * STEPS_PER_CHAIN   # two chains per finger
    return Op("grasp", argv, out, steps, check)


def _replay_op(out: Path, trace: Path, detector: Path, threshold: float) -> Op:
    def prepare() -> None:
        # The detector document is built for the trace's own profile.
        meta = _json(trace.with_suffix(".meta.json"))
        doc = {"monitored_stack": meta["monitored_stack"], "i_threshold": threshold,
               "window": [0.88, 0.99], "smoothing": 5, "debounce": 10,
               "profile_hash": meta["profile_hash"], "config_hash": meta["config_hash"]}
        detector.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    def check(op: Op) -> list[str]:
        v = _json(op.out / f"{trace.stem}.verdict.json")
        meta = _json(trace.with_suffix(".meta.json"))
        if (v["trace"], v["threshold_ua"], v["profile_hash"]) != (
                trace.name, threshold, meta["profile_hash"]):
            return [f"replay of {trace.name}: verdict does not match its inputs"]
        return []

    argv = ["replay", "--trace", str(trace), "--detector", str(detector), "--out", str(out)]
    return Op("replay", argv, out, 0, check, prepare)


def sweep_io_pass(seed: int, index: int, root: Path) -> list[Op]:
    config = root / "in" / "config.json"
    presets = write_sweep_config(seed, index, config)
    rng = random.Random(f"sweep_io:ops:{seed}:{index}")
    ops = [characterize_op(root / "out" / "0_characterize", config)]
    for k, (name, preset) in enumerate(presets.items()):
        ep_seed = rng.randrange(1_000_000)
        grasp = _grasp_op(root / "out" / f"{k + 1}_grasp", config, name, preset, ep_seed)
        detector = root / "in" / f"detector_{k}.json"
        threshold = round(rng.uniform(0.5, 3.0), 4)
        ops += [grasp, _replay_op(root / "out" / f"{k + 1}_replay",
                                  grasp.out / f"{name}_seed{ep_seed}.csv", detector, threshold)]
    return ops


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

WORKLOADS: dict[str, Callable[[int, int, Path], list[Op]]] = {
    "detect_batch": detect_batch_pass,
    "contact_hold": contact_hold_pass,
    "sweep_io": sweep_io_pass,
}


def setup_inputs(workload: str, seed: int, root: Path) -> tuple[Optional[Path], str]:
    """Config file (None: built-in) and first scenario the set-up probe resolves."""
    if workload == "sweep_io":
        presets = write_sweep_config(seed, 0, root / "config.json")
        return root / "config.json", next(iter(presets))
    return None, {"detect_batch": "detect_cube", "contact_hold": "balloon_hold"}[workload]
