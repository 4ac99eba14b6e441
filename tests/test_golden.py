"""Golden fingerprint: the sha256 of every file a fixed CLI run set writes.

Criterion 7 only compares two runs of the same code with each other;
this pin also catches a refactor that changes behaviour. A hash may
change only on purpose, with the reason recorded in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from haselhand.cli import main
from haselhand.config import config_hash, default_config, load_config

BASE_CONFIG = Path(__file__).resolve().parent.parent / "perfbench" / "base_config.json"

PRESETS = ("free_motion", "pinch_mushroom", "pinch_cube", "tripod_toy",
           "power_grasp_bottle", "detect_free", "detect_cube", "balloon_hold")

GOLDEN_FILES = {
    "balloon_hold_seed3.csv":
        "05dc1a38f3c40ace10508dce88d9c6203dabee24512bc763ead1505b21be701d",
    "balloon_hold_seed3.meta.json":
        "fe095a01fb9263a592d353fb0e031da08825968e0b906b0009bebe4227ac6fa5",
    "balloon_hold_seed3.report.json":
        "176232d6bdeda4f31166b8f4c8b7a8239ff582dfa3c5860a00a07d938bfb252c",
    "balloon_hold_seed4.csv":
        "62979c293105187a4fddd149654344ede5182c3a385d1da0acf7e84ba86b5d2d",
    "balloon_hold_seed4.meta.json":
        "09eafcaef4ec80e39f84c6b741e366cb5c2254800aaff329c79446f892675f04",
    "balloon_hold_seed4.report.json":
        "c38f3cc83eb217d6388265040a89df1471464f21e02e49ed7da67c8f0a85be21",
    "characterize.meta.json":
        "219225a02342ebe518d859d3f3cbe770a8a2acf38b02459d9160ed9c2d4efe85",
    "detect_batch_summary.json":
        "6b2f509e6f5050c58f340c770ebf63c08cd6b95f822ba774149f89432d305587",
    "detect_cube_seed3.csv":
        "f3c777951e33b778492a5a6c5e0357c25ebcc9a890c0140271f84754919b8aa6",
    "detect_cube_seed3.meta.json":
        "cca50556660bee9e3238c5c75cba3ad4804a4c6ea2ff91297dedfc576dd3204c",
    "detect_cube_seed3.report.json":
        "af5cf6d8668736b72d0c489e0aa6237664ee3f6331ee219a8f8b17ca11435738",
    "detect_free_seed3.csv":
        "2297174e18808b66fb920e6bc6e4afe359d67cc6892f8813b0eaa964e1fa3bf7",
    "detect_free_seed3.meta.json":
        "1855f9fc0f1d59be800b753d5026799c13eeaf06b77a92922287d8a908b75823",
    "detect_free_seed3.report.json":
        "c72f224c2f338b5607ad358e4e45dbd434c112544a9e342c649a0def2e6215b0",
    "detector.json":
        "2ed4c8751db1e0c25acc5134d0e9412d6b27250cfceeccea31bf4733cc3a0ef8",
    "fingertip_force.csv":
        "f44264e303c4a46cb69857b73a378e790a50eecb6d5b579de3963894b5843037",
    "free_motion_seed3.csv":
        "2297174e18808b66fb920e6bc6e4afe359d67cc6892f8813b0eaa964e1fa3bf7",
    "free_motion_seed3.meta.json":
        "c92a9b2ffd645c8827fdcc743eee6d89c753f052b596b5fd2e8edc1bab8de31e",
    "free_motion_seed3.report.json":
        "a1021ed27bec747d7cac96f2a4a82f0964de4db3ca9bbdb944ab6fc7856838fc",
    "pinch_cube_seed3.csv":
        "f3c777951e33b778492a5a6c5e0357c25ebcc9a890c0140271f84754919b8aa6",
    "pinch_cube_seed3.meta.json":
        "9d963f018ef4afd10b894f8db9bb02363fce77e6f9a038ed2d46a9cc8f40167f",
    "pinch_cube_seed3.report.json":
        "e1321839343c8ca62f2c76255e5a6f0d575a2d60fe099678a5bc0d0309a00ee0",
    "pinch_cube_seed3.verdict.json":
        "524d08fd514a78caf9a61a95a030620ad010cc2f8e17db25e78f462b84555739",
    "pinch_mushroom_seed3.csv":
        "44170d91666fb3ddef9e2c7f135666644b750a6926af59785eed9075aa133ff3",
    "pinch_mushroom_seed3.meta.json":
        "1cf41a9ced31805511e26fc51c44ab4c7cd8e062cf80607a78e4174bcb128326",
    "pinch_mushroom_seed3.report.json":
        "09123930164b2a2555bfc82eab46fe162debd1d75092e4dedb1921751df4dea2",
    "power_grasp_bottle_seed3.csv":
        "f09536b592c2240938ccd7846c13f5f1493f2c370437022a08b296dfad49979f",
    "power_grasp_bottle_seed3.meta.json":
        "f0a9c2d7d31618421a59c7bb9d5854936c64054598567a9924cd8c5ce9241ef9",
    "power_grasp_bottle_seed3.report.json":
        "6839fd8cdb044ec4dc750c546b735514bce1aa8f994c057895b2d23b603f910b",
    "tripod_toy_seed3.csv":
        "b7a21f4fdec4d670a9c206e6170d1fc4c3cc185c3e685c5917bb5d96c927aeb3",
    "tripod_toy_seed3.meta.json":
        "090788fc48bedb311bc7c00333e9643fa80d893a98e0872b869034fbc0ae8d8e",
    "tripod_toy_seed3.report.json":
        "0413839d85fbe9e4374caf4ca4d28858797665dd72434e91b6031257704a4e89",
    "voltage_angle_index.csv":
        "9815081d992d99f576336ef278c62a8e9404555ddd2f828e5f37338f420fd43e",
    "voltage_angle_thumb.csv":
        "4cf60b34e31ca46da9c86f293525b848319bcb3e393f2bf1dddf486256797bc1",
}

GOLDEN_CONFIG_HASHES = {
    "default": "d69d38271d6d5ab5",
    "perfbench/base_config.json": "d69d38271d6d5ab5",
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Run the fixed CLI set into one directory; map file name -> sha256."""
    out = tmp_path_factory.mktemp("golden")
    runs = [["characterize"]]
    runs += [["grasp", "--preset", p, "--seed", "3"] for p in PRESETS]
    runs.append(["grasp", "--preset", "balloon_hold", "--no-controller", "--seed", "4"])
    runs.append(["detect-batch", "--free", "2", "--grasp", "2", "--seed", "7"])
    runs.append(["replay", "--trace", str(out / "pinch_cube_seed3.csv"),
                 "--detector", str(out / "detector.json")])
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("HASELHAND_OUT", raising=False)
        for argv in runs:
            assert main(argv + ["--out", str(out)]) == 0, argv
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def test_cli_outputs_match_golden(outputs):
    changed = sorted(name for name in set(outputs) | set(GOLDEN_FILES)
                     if outputs.get(name) != GOLDEN_FILES.get(name))
    assert not changed, f"outputs differ from the golden fingerprint: {changed}"


def test_config_hashes_match_golden():
    got = {"default": config_hash(default_config()),
           "perfbench/base_config.json": config_hash(load_config(BASE_CONFIG))}
    assert got == GOLDEN_CONFIG_HASHES
