"""The output matrix: every shipped CLI output, with a sha256 manifest.

Usage:
    python tools/outputs.py [--src DIR] [--out DIR]
    python tools/outputs.py --against REV [--out DIR]

The matrix runs haselhand's CLI verbs in one process, once with the
built-in config (the default half) and once with
perfbench/base_config.json, read only (the base half):

- characterize;
- detect-batch 25/25 at seeds 0, 3 and 4242;
- grasp of every preset, as shipped, with --no-controller and with
  --no-object, at seeds 0, 3 and 4242;
- replay of each grasp trace against its seed's detector.

Then come the edge calls, under edge/: each verb on configs derived
from the built-in one (written beside the calls) that the model can or
cannot give meaning to, and a replay against a detector that lacks its
config_hash.

Besides each verb's own files, every call leaves its exit code, stdout
and stderr as files. The calls run in the output directory on relative
paths, so no file names it. The script then prints one line per file,
"<sha256>  <path>", sorted by path. Every call states the exit code it
expects: a build prints each call that exits otherwise to stderr and
exits 1. base_config.json holds the built-in config. Each base-half
call loads it afresh, while the default-half calls share one built-in
config per process, so the two halves must match file by file: a build
prints each base-half file whose bytes differ from its default-half
twin, or that has none, and exits 1. The one exception is
calls/base/characterize.stdout, which names its own directory.

--src builds with the package in DIR (default: this checkout's src).
The expected exit codes are this checkout's, so a build with --src
records its exit codes and does not hold them, or its halves, to the
expectations.
--against REV builds the matrix twice, each in an interpreter of its
own: with this checkout's package and with the package of
`git archive REV`, extracted into a temporary directory. Both read this
checkout's base config. It prints the paths whose bytes differ or that
only one build wrote, the .exit files among them, and this checkout's
base-half files that differ from their twins, and exits 1 if there are
any. --out keeps the files (with --against, under tree/ and rev/);
otherwise they go to a temporary directory that is removed.

The script uses the standard library and the package only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BASE_CONFIG = ROOT / "perfbench" / "base_config.json"
SEEDS = (0, 3, 4242)
VARIANTS = {"shipped": [], "no-controller": ["--no-controller"], "no-object": ["--no-object"]}
HALVES = ("default", "base")
NAMES_ITS_DIRECTORY = "calls/base/characterize.stdout"
# One episode of each class reaches every check an edge config meets.
SHORT_BATCH = ["detect-batch", "--free", "1", "--grasp", "1"]
GRASP = ["grasp", "--preset", "pinch_cube"]
# Per derived config: the key path it sets, the value, and each call's
# (verb, argv, expected exit code).
EDGE_CONFIGS = {
    # Monitor noise reaches the monitored columns only, which characterize does not run.
    "monitor-noise-1e308": ("amplifier.monitor_noise_v", 1e308, [
        ("characterize", ["characterize"], 0),
        ("grasp", GRASP, 2),
        ("detect-batch", SHORT_BATCH, 2),
    ]),
    # A preset naming a finger the config lacks refuses the whole config.
    "unknown-finger": ("presets.pinch_cube.fingers", ["index", "nosuch"], [
        ("characterize", ["characterize"], 2),
        ("grasp", GRASP, 2),
        ("detect-batch", SHORT_BATCH, 2),
    ]),
    # A ceiling below a preset's 6 kV target refuses that preset alone, when it resolves.
    "balloon-ceiling-5kv": ("presets.balloon_hold.amp_ceiling", 5.0, [
        ("characterize", ["characterize"], 0),
        ("grasp-balloon_hold", ["grasp", "--preset", "balloon_hold"], 2),
        ("grasp", GRASP, 0),
        ("detect-batch", SHORT_BATCH, 0),
    ]),
    # Every episode without a duration of its own, characterize's included,
    # runs sim.duration: 1,000 periods of 3 ms.
    "sim-3ms-3s": ("sim", {"dt_sample": 0.003, "duration": 3.0}, [
        ("characterize", ["characterize"], 0),
        ("grasp", GRASP, 0),
        ("detect-batch", SHORT_BATCH, 0),
    ]),
    # A window between two samples holds none to decide on.
    "narrow-window": ("detection.window", [0.8805, 0.8808], [
        ("detect-batch", SHORT_BATCH, 2),
    ]),
}


def import_package(src: Path):
    """haselhand imported from src, and from nowhere else."""
    sys.path.insert(0, str(src))
    import haselhand.cli
    if Path(haselhand.cli.__file__).resolve().parents[1] != src.resolve():
        raise SystemExit(f"outputs: haselhand was imported from {haselhand.cli.__file__}, "
                         f"not from {src}")
    return haselhand


def call(cli, argv: list[str], name: str, want: int = 0) -> list[str]:
    """Run one CLI call; keep its exit code, stdout and stderr under calls/.
    Returns the call's mismatch with its expected exit code want, if any."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses its arguments this way
            code = exc.code
    for suffix, text in ((".exit", f"{code}\n"), (".stdout", out.getvalue()),
                         (".stderr", err.getvalue())):
        path = Path("calls", name + suffix)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return [] if code == want else [f"calls/{name}: exit {code}, expected {want}"]


def write_json(path: str, doc) -> str:
    """Write doc to path as indented JSON; returns path."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path


def build(src: Path, out: Path) -> list[str]:
    """Write the matrix with the package in src into out; returns the
    calls that did not exit as expected."""
    haselhand = import_package(src)
    presets = list(haselhand.default_config().presets)
    os.environ.pop("HASELHAND_OUT", None)  # it would override every --out
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    cli, missed = haselhand.cli, []
    for label, config in zip(HALVES, ([], ["--config", str(BASE_CONFIG)])):
        missed += call(cli, ["characterize", "--out", f"{label}/characterize", *config],
                       f"{label}/characterize")
        for seed in SEEDS:
            missed += call(cli, ["detect-batch", "--seed", str(seed), "--out",
                                 f"{label}/detect-batch/seed{seed}", *config],
                           f"{label}/detect-batch/seed{seed}")
        for variant, flags in VARIANTS.items():
            for preset in presets:
                for seed in SEEDS:
                    grasp, stem = f"{label}/grasp/{variant}", f"{preset}_seed{seed}"
                    missed += call(cli, ["grasp", "--preset", preset, "--seed", str(seed),
                                         "--out", grasp, *flags, *config], f"{grasp}/{stem}")
                    # balloon_hold's profile hash is not the detect-batch detector's.
                    missed += call(cli, ["replay", "--trace", f"{grasp}/{stem}.csv", "--detector",
                                         f"{label}/detect-batch/seed{seed}/detector.json",
                                         "--out", f"{label}/replay/{variant}"],
                                   f"{label}/replay/{variant}/{stem}",
                                   2 if preset == "balloon_hold" else 0)

    for case, (where, value, calls) in EDGE_CONFIGS.items():
        doc = haselhand.config.config_to_dict(haselhand.default_config())
        *parents, leaf = where.split(".")
        block = doc
        for key in parents:
            block = block[key]
        block[leaf] = value
        config = write_json(f"edge/{case}/config.json", doc)
        for verb, argv, want in calls:
            missed += call(cli, [*argv, "--config", config, "--out", f"edge/{case}/{verb}"],
                           f"edge/{case}/{verb}", want)
    detector = json.loads(Path("default/detect-batch/seed0/detector.json").read_text())
    del detector["config_hash"]
    missed += call(cli, ["replay", "--trace", "default/grasp/shipped/pinch_cube_seed0.csv",
                         "--detector", write_json("edge/no-config-hash/detector.json", detector),
                         "--out", "edge/no-config-hash/replay"], "edge/no-config-hash/replay", 2)
    return missed


def manifest(out: Path) -> str:
    """"<sha256>  <path>" of every file under out, sorted by path."""
    files = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    return "".join(f"{hashlib.sha256((out / f).read_bytes()).hexdigest()}  {f}\n" for f in files)


def digests(text: str) -> dict[str, str]:
    """A manifest's "<sha256>  <path>" lines as path -> digest."""
    return dict(line.split("  ", 1)[::-1] for line in text.splitlines())


def halves_differ(files: dict[str, str]) -> list[str]:
    """A line for each base-half path whose digest is not its default-half twin's."""
    default, base = ({path.replace(f"{label}/", "base/", 1): digest
                      for path, digest in files.items()
                      if path.startswith((f"{label}/", f"calls/{label}/"))}
                     for label in HALVES)
    return [f"{path}: differs from its default-half twin"
            for path in sorted(default.keys() | base.keys())
            if default.get(path) != base.get(path) and path != NAMES_ITS_DIRECTORY]


def build_in_child(src: Path, out: Path) -> subprocess.Popen:
    """This script, in an interpreter of its own, building with src into out."""
    return subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                             "--src", str(src), "--out", str(out)],
                            stdout=subprocess.PIPE, text=True)


def against(rev: str, out: Path, scratch: Path) -> int:
    """Compare the matrix of this checkout's package with REV's."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # The "data" filter refuses absolute and escaping members where it exists.
        tar.extractall(scratch / "rev", **({"filter": "data"} if hasattr(tarfile, "data_filter")
                                           else {}))
    children = [build_in_child(ROOT / "src", out / "tree"),
                build_in_child(scratch / "rev" / "src", out / "rev")]
    texts = [child.communicate()[0] for child in children]
    if any(child.returncode for child in children):
        print("outputs: a build failed", file=sys.stderr)
        return 2
    tree, other = (digests(text) for text in texts)
    paths = tree.keys() | other.keys()
    differ = sorted(p for p in paths if tree.get(p) != other.get(p))
    for path in differ:
        where = ("only in tree" if path not in other else
                 "only in rev" if path not in tree else "differs")
        print(f"{where}: {path}")
    halves = halves_differ(tree)
    for line in halves:
        print(line)
    print(f"{len(paths)} files, {len(differ)} differ from {rev}")
    return 1 if differ or halves else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path,
                        help="the package's source directory (default: this checkout's src); "
                             "its exit codes are not held to the expectations")
    parser.add_argument("--out", type=Path, help="keep the outputs in this directory")
    parser.add_argument("--against", metavar="REV",
                        help="compare with the package of a git revision")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="haselhand-outputs-") as scratch:
        out = (args.out or Path(scratch) / "out").resolve()
        if out.exists() and any(out.iterdir()):
            parser.error(f"--out {out} is not empty")
        if args.against:
            status = against(args.against, out, Path(scratch))
        else:
            missed = build((args.src or ROOT / "src").resolve(), out)
            text = manifest(out)
            sys.stdout.write(text)
            # Another package's exit codes and halves are recorded, not checked.
            missed = [] if args.src is not None else missed + halves_differ(digests(text))
            for line in missed:
                print(line, file=sys.stderr)
            status = 1 if missed else 0
        os.chdir(ROOT)  # leave the directory before it is removed
    print(f"outputs: {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
