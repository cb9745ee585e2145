"""Byte-identity contract: every zoo scenario audits to pinned artefacts.

Each of the seven zoo scenarios is generated at seed 3 under the `strict`
and `round:2` policies and audited through the CLI.  The sha256 of
report.json, the three SVGs and the three sidecars must equal the digests in
tests/data/zoo_artefact_digests.json.  A change that alters any byte of any
artefact fails here; a deliberate change regenerates the file with

    PYTHONPATH=src python tests/test_artefact_digests.py

and argues the new bytes in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from multimax.cli import main
from multimax.report import PROFILE_BASENAMES, REPORT_BASENAME
from multimax.zoo import SCENARIOS

DIGESTS_PATH = Path(__file__).parent / "data" / "zoo_artefact_digests.json"
SEED = "3"
POLICIES = ("strict", "round:2")
ARTEFACTS = (REPORT_BASENAME,) + tuple(
    f"{name}{suffix}" for name in PROFILE_BASENAMES for suffix in (".svg", ".sidecar.json")
)


def scenario_digests(scenario: str, policy: str, work: Path) -> dict[str, str]:
    """sha256 of every audit artefact of one zoo scenario under one policy."""
    data = work / "data"
    out = work / "out"
    zoo_args = ["zoo", "--scenario", scenario, "--seed", SEED, "--out", str(data)]
    assert main(zoo_args + ["--banding", policy]) == 0
    assert main(["audit", "--manifest", str(data / "manifest.txt"), "--out", str(out)]) == 0
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ARTEFACTS}


def all_digests(work: Path) -> dict[str, dict[str, str]]:
    return {
        f"{scenario}@{policy}": scenario_digests(
            scenario, policy, work / scenario / policy.replace(":", "_")
        )
        for scenario in sorted(SCENARIOS)
        for policy in POLICIES
    }


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_zoo_artefacts_match_pinned_digests(tmp_path, capsys, scenario, policy):
    expected = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    assert scenario_digests(scenario, policy, tmp_path) == expected[f"{scenario}@{policy}"]


def test_digest_file_covers_every_scenario():
    expected = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    assert sorted(expected) == sorted(
        f"{scenario}@{policy}" for scenario in SCENARIOS for policy in POLICIES
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = all_digests(Path(tmp))
    DIGESTS_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {DIGESTS_PATH}\n")
