"""Command-line front end.

Verbs:
    characterize  voltage->angle and voltage->fingertip-force sweeps
    grasp         run one scenario preset, write trace + episode report
    detect-batch  calibrate a threshold and classify a seeded batch
    replay        rerun grasp detection offline on a recorded trace

Every command is deterministic given its inputs and writes plot-ready
CSV/JSON only; all outputs carry the config hash. Each cmd_* returns its
files (name -> text, in write order) and its stdout line; main writes and
prints them once the verb has returned, so a refused run writes nothing.
Exit codes: 0 success, 2 configuration error, 3 model-consistency error,
4 calibration failure. HASELHAND_OUT overrides the output directory.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Optional

import numpy as np

from .actuator import active_force, voltage_for_force
from .config import (
    DetectionConfig,
    HandConfig,
    ProfileSpec,
    ScenarioPreset,
    config_hash,  # noqa: F401 -- unused, kept: perfbench's config.hash span wraps it
    decode,
    default_config,
    load_config,
    resolve_preset,
    resolve_scenario,
)
from .control import calibrate_threshold, detect_grasp, detection_horizon, run_grasp_episode
from .errors import (
    CalibrationError,
    ConfigError,
    DomainError,
    HaselHandError,
    InsufficientDataError,
    ModelConsistencyError,
)
from .kinematics import fingertip_force
from .plant import Plant, run_scenario
from .trace import column_name, csv_text, json_text, load_trace, read_json, write_atomic
from .transmission import delivered_tension

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MODEL = 3
EXIT_CALIBRATION = 4

_builtin_config = functools.cache(default_config)  # built on first use; no verb mutates it


def _load(args) -> HandConfig:
    return load_config(args.config) if args.config else _builtin_config()


def _outdir(args) -> Path:
    """The output directory, which main alone resolves. write_atomic creates
    it with main's first write, so a refused run leaves no directory behind."""
    return Path(os.environ.get("HASELHAND_OUT") or args.out)


# ---------------------------------------------------------------------------
# characterize
# ---------------------------------------------------------------------------

def cmd_characterize(args) -> tuple[dict[str, str], str]:
    cfg = _load(args)
    missing = [finger for finger in ("index", "thumb") if finger not in cfg.fingers]
    if missing:
        raise ConfigError(f"characterize sweeps the index and thumb fingers; "
                          f"the config has no {' and no '.join(missing)}")
    meta: dict[str, Any] = {
        "config_hash": cfg.fingerprint,
        "onset_voltage_kv": {},
        "saturation_deg": {},
        "fingertip_n": {},
    }
    sweep_top = min(5.5, cfg.amplifier.v_ceiling)
    volts = np.array([round(0.01 * k, 10) for k in range(int(round(sweep_top / 0.01)) + 1)])
    tips = [("v(kV)", volts)]
    files: dict[str, str] = {}

    for finger in ("index", "thumb"):
        layout = cfg.fingers[finger]
        mcp = layout.tendon_ids[0]
        stack, path = cfg.stacks[mcp], cfg.tendons[mcp]
        preset = ScenarioPreset(
            fingers=(finger,),
            profiles={"*": ProfileSpec(target_kv=min(stack.v_ref, cfg.amplifier.v_ceiling))},
        )
        # A bench test reads no monitor: the record alone, with no seed or noise.
        plant = Plant(resolve_preset(cfg, f"characterize_{finger}", preset))
        trace = plant.noise_free

        # The trace holds this finger's joints only, keyed "<finger>_<joint>".
        columns = [("v_cmd(kV)", trace.v_cmd)]
        columns += [(column_name("theta", key), theta) for key, theta in trace.theta.items()]
        files[f"voltage_angle_{finger}.csv"] = csv_text(columns)

        # An onset voltage overcomes the breakaway force and the load at rest, ls[0].
        for chain in plant.chains:
            tid = chain.spec.tendon_id
            meta["onset_voltage_kv"][tid] = voltage_for_force(
                chain.spec.stack, chain.f_breakaway + chain.ls[0], f"stack {tid}")
        for key, theta in trace.theta.items():
            meta["saturation_deg"][key] = float(np.degrees(theta[-1]))

        # Static fingertip-force sweep: finger blocked straight on the load
        # cell, so the stack stalls at zero contraction and the delivered
        # tension works against the extensor pretension about the MCP.
        tension = delivered_tension(path, active_force(stack, volts, 0.0, f"stack {mcp}"))
        force = fingertip_force(layout, tension, extensor_tension=path.f_ext0)
        tips.append((f"f_{finger}(N)", force))
        meta["fingertip_n"][finger] = float(force[-1])

    files["fingertip_force.csv"] = csv_text(tips)
    files["characterize.meta.json"] = json_text(meta)
    return files, f"characterize: wrote {args.out}/voltage_angle_*.csv, fingertip_force.csv"


# ---------------------------------------------------------------------------
# grasp
# ---------------------------------------------------------------------------

def cmd_grasp(args) -> tuple[dict[str, str], str]:
    cfg = _load(args)
    report = run_grasp_episode(
        cfg,
        args.preset,
        seed=args.seed,
        drop_object=args.no_object,
        controller="none" if args.no_controller else None,
    )
    stem = f"{args.preset}_seed{args.seed}"
    files = report.trace.file_texts(f"{stem}.csv")
    files[f"{stem}.report.json"] = json_text(report.to_dict())
    return files, f"grasp: {args.preset} seed={args.seed} verdicts={report.verdicts}"


# ---------------------------------------------------------------------------
# detect-batch
# ---------------------------------------------------------------------------

CAL_SEED_OFFSET = 900_000
GRASP_SEED_OFFSET = 100_000
N_CALIBRATION = 4


def cmd_detect_batch(args) -> tuple[dict[str, str], str]:
    cfg = _load(args)
    if args.free < 1 or args.grasp < 1:
        raise ConfigError("detect-batch needs at least one episode of each class")

    # Detection reads the monitored current only, through its window: only
    # that chain is stepped, and only that far.
    plants = {}
    for cls, preset in (("free", "detect_free"), ("grasp", "detect_cube")):
        full = resolve_scenario(cfg, preset).monitored()
        horizon = detection_horizon(full, cfg.detection)
        # Every episode of a class has the same mechanics: one record steps them once.
        plants[cls] = Plant(replace(full, duration=horizon))

    def episode(cls, seed):
        return run_scenario(plants[cls].scenario, seed, plant=plants[cls])

    cal_free = [episode("free", args.seed + CAL_SEED_OFFSET + k) for k in range(N_CALIBRATION)]
    cal_grasp = [episode("grasp", args.seed + CAL_SEED_OFFSET + 500 + k)
                 for k in range(N_CALIBRATION)]
    threshold = calibrate_threshold(cal_free, cal_grasp, cfg.detection)
    detector_doc = {
        "monitored_stack": cfg.detection.monitored_stack,
        "i_threshold": threshold,
        "window": list(cfg.detection.window),
        "smoothing": cfg.detection.smoothing,
        "debounce": cfg.detection.debounce,
        "profile_hash": plants["free"].scenario.profile_fingerprint,
        "config_hash": plants["free"].scenario.config_fingerprint,
    }
    # The batch is classified by the detector replay reads back, so a
    # threshold outside its domain is refused here, before any write.
    det = decode(DetectionConfig, detector_doc, "detector")

    counts = {"tp": 0, "tn": 0, "fp": 0, "fn": 0}
    misclassified = []
    for cls, n, seed0 in (("free", args.free, args.seed),
                          ("grasp", args.grasp, args.seed + GRASP_SEED_OFFSET)):
        for seed in range(seed0, seed0 + n):
            grasped, _ = detect_grasp(episode(cls, seed), det)
            expected = cls == "grasp"
            counts[("t" if grasped == expected else "f") + ("p" if grasped else "n")] += 1
            if grasped != expected:
                misclassified.append({"class": cls, "seed": seed})

    total = args.free + args.grasp
    correct = counts["tp"] + counts["tn"]
    summary = {
        "config_hash": plants["free"].scenario.config_fingerprint,
        "threshold_ua": threshold,
        "n_free": args.free,
        "n_grasp": args.grasp,
        "counts": counts,
        "correct": correct,
        "total": total,
        "misclassified": misclassified,
        "seed": args.seed,
    }
    files = {"detect_batch_summary.json": json_text(summary),
             "detector.json": json_text(detector_doc)}
    return files, f"detect-batch: {correct}/{total} correct, threshold {threshold:.3f} uA"


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def cmd_replay(args) -> tuple[dict[str, str], str]:
    detector_doc = read_json(args.detector)
    det = decode(DetectionConfig, detector_doc, "detector")
    trace = load_trace(args.trace)

    # A detector applies to traces of its own schedule, config and stack,
    # so its document and the trace's metadata must both say which they are.
    meta_path = Path(args.trace).with_suffix(".meta.json")
    if not meta_path.exists():
        raise ConfigError(f"trace {args.trace}: missing its metadata file {meta_path.name}")
    for key in ("profile_hash", "config_hash", "monitored_stack"):
        if key not in detector_doc:
            raise ConfigError(f"detector: missing required key {key!r}")
        got, want = trace.meta.get(key), detector_doc[key]
        if got != want:
            raise ConfigError(f"trace {key} {got} does not match detector {key} {want}")

    grasped, t_dec = detect_grasp(trace, det)
    verdict = {
        "trace": Path(args.trace).name,
        "grasped": grasped,
        "decision_time": t_dec,
        "threshold_ua": det.i_threshold,
        "config_hash": trace.meta.get("config_hash"),
        "profile_hash": trace.meta.get("profile_hash"),
    }
    files = {Path(args.trace).stem + ".verdict.json": json_text(verdict)}
    return files, f"replay: grasped={grasped} decision_time={t_dec}"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def non_negative_int(text: str) -> int:
    """An integer option that numpy's seeded generators accept: >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} must be >= 0")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="haselhand",
        description="Simulation workbench for an electrohydraulically "
                    "actuated tendon-driven hand",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Each verb takes only the options its cmd_* function reads, and --out.
    def verb(name, func, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--out", default="out", help="output directory")
        p.set_defaults(func=func)
        return p

    config = {"help": "experiment config JSON (default: built-in)"}
    seed = {"type": non_negative_int, "default": 0, "help": "base RNG seed"}

    p = verb("characterize", cmd_characterize, "voltage sweeps: joint angles and fingertip force")
    p.add_argument("--config", **config)

    p = verb("grasp", cmd_grasp, "run one scenario preset")
    p.add_argument("--config", **config)
    p.add_argument("--seed", **seed)
    p.add_argument("--preset", required=True, help="preset name from the config")
    p.add_argument("--no-object", action="store_true", help="run the preset without its object")
    p.add_argument("--no-controller", action="store_true",
                   help="disable the preset's controller")

    p = verb("detect-batch", cmd_detect_batch, "calibrate and classify a seeded batch")
    p.add_argument("--config", **config)
    p.add_argument("--seed", **seed)
    p.add_argument("--free", type=int, default=25, help="number of free-motion episodes")
    p.add_argument("--grasp", type=int, default=25, help="number of grasp episodes")

    p = verb("replay", cmd_replay, "offline grasp detection on a recorded trace")
    p.add_argument("--trace", required=True, help="trace CSV to replay")
    p.add_argument("--detector", required=True, help="detector JSON from detect-batch")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # HASELHAND_OUT wins over --out; a verb's stdout line may name the result.
    args.out = _outdir(args)
    try:
        # An overflow or NaN is refused by name where a result is checked
        # for finite values, so numpy's warning would only precede that line.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            files, line = args.func(args)
        for name, text in files.items():
            write_atomic(args.out / name, text)
    except CalibrationError as exc:
        print(f"calibration failure: {exc}", file=sys.stderr)
        return EXIT_CALIBRATION
    except ModelConsistencyError as exc:
        print(f"model-consistency error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except (ConfigError, DomainError, InsufficientDataError, OSError) as exc:
        # OSError: an input path missing or a directory, an --out that is a file.
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HaselHandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    print(line)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
