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
        "9ef18c577cc89ed14b8967bdf4ae72725bf498a31c8dcb40339965de8fa5195a",
    "balloon_hold_seed3.report.json":
        "0c4ab6f8cabede65c63fe04b14032b56cd09fce2c3370bd497ac3434d427c46d",
    "balloon_hold_seed4.csv":
        "62979c293105187a4fddd149654344ede5182c3a385d1da0acf7e84ba86b5d2d",
    "balloon_hold_seed4.meta.json":
        "62f27216156f82aaf069bcd348757ee7c8045993e4256d4d67f051eec396f16a",
    "balloon_hold_seed4.report.json":
        "f36717ffb345155c2f9c88a8a2d7d7da1e30ff33b2f7dec0d749e82d2752365b",
    "characterize.meta.json":
        "ad71731d5bd004a34d963fa0444b1ca190625cd77d76a48cc1296c568406751f",
    "detect_batch_summary.json":
        "8d4cea582e421d381ddda9912416a88eb65ae102b34095028aa48db7e4fbc8f5",
    "detect_cube_seed3.csv":
        "f3c777951e33b778492a5a6c5e0357c25ebcc9a890c0140271f84754919b8aa6",
    "detect_cube_seed3.meta.json":
        "3ef25b20ea9036cfcbf06a3ebad96d46d1d661412cd6fc654d9cf8b70cbacb25",
    "detect_cube_seed3.report.json":
        "e4f10c6ace949eb06d1be8e4943809d0ebaca5660f3c1d20cc249a2605118195",
    "detect_free_seed3.csv":
        "2297174e18808b66fb920e6bc6e4afe359d67cc6892f8813b0eaa964e1fa3bf7",
    "detect_free_seed3.meta.json":
        "4a6513c1dfa0ea7b9d0ae7d79baeca56bd07b2d0f65caab81b5c5578f03b3823",
    "detect_free_seed3.report.json":
        "31e2467afe389a67d58a0aca0f7158f59270cc9cafd2dc2c999ce87853047f47",
    "detector.json":
        "f14cc90d76b28cc41d1c9bd1d9bc543788b9f6f3f1e4f37778a64d0a5ad27977",
    "fingertip_force.csv":
        "f44264e303c4a46cb69857b73a378e790a50eecb6d5b579de3963894b5843037",
    "free_motion_seed3.csv":
        "2297174e18808b66fb920e6bc6e4afe359d67cc6892f8813b0eaa964e1fa3bf7",
    "free_motion_seed3.meta.json":
        "205b375fa579709a95951b41c8c7dc139ab8f52ee2927600f860074c723cc9c3",
    "free_motion_seed3.report.json":
        "7c7430d13f4a74d2f70fe7c4e47e7b47f518439b7f9f5bf92c9ced345fd10c0e",
    "pinch_cube_seed3.csv":
        "f3c777951e33b778492a5a6c5e0357c25ebcc9a890c0140271f84754919b8aa6",
    "pinch_cube_seed3.meta.json":
        "8fd5478dfc2f5260b3899ce4f579e10826efb36a5b60fcba2f45304fddb49811",
    "pinch_cube_seed3.report.json":
        "190251457908536b34ed52292781dab1f394cfdcd008fbf016f7377b5279491a",
    "pinch_cube_seed3.verdict.json":
        "b871c3332e4db6da23dcbfec3b625f6f37ce3c4019e5398307f70855ad77e491",
    "pinch_mushroom_seed3.csv":
        "44170d91666fb3ddef9e2c7f135666644b750a6926af59785eed9075aa133ff3",
    "pinch_mushroom_seed3.meta.json":
        "b0d13a50c5b79c58ea54133b9f381b1b74affb708532b43af5367958e6dc90e9",
    "pinch_mushroom_seed3.report.json":
        "453b2a90c2605f183d4a3610aa3e78db3cc489b1f3a74bd6fbea95623b36e431",
    "power_grasp_bottle_seed3.csv":
        "f09536b592c2240938ccd7846c13f5f1493f2c370437022a08b296dfad49979f",
    "power_grasp_bottle_seed3.meta.json":
        "650befed5a52378bf60d1bb4df4618365ab934461d879e470cef80792952ee86",
    "power_grasp_bottle_seed3.report.json":
        "edddeb3ad239bce8b84b38b75996edf3f0472d6c9e2770aa158ab3008cf501ef",
    "tripod_toy_seed3.csv":
        "b7a21f4fdec4d670a9c206e6170d1fc4c3cc185c3e685c5917bb5d96c927aeb3",
    "tripod_toy_seed3.meta.json":
        "ae33b57b179e439c1afb2f740b9646caff79e72eddc6174dcbab934310fc5b71",
    "tripod_toy_seed3.report.json":
        "a8035537ede4d6b2f48abcf53492f5e7c2be9acef29280683b161b740d7740bf",
    "voltage_angle_index.csv":
        "9815081d992d99f576336ef278c62a8e9404555ddd2f828e5f37338f420fd43e",
    "voltage_angle_thumb.csv":
        "4cf60b34e31ca46da9c86f293525b848319bcb3e393f2bf1dddf486256797bc1",
}

GOLDEN_CONFIG_HASHES = {
    "default": "2cf72d7ea50e7586",
    "perfbench/base_config.json": "2cf72d7ea50e7586",
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
