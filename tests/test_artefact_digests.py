"""Byte-identity contract: every zoo scenario audits to pinned artefacts.

Each of the seven zoo scenarios is generated at seed 3 under the `strict`
and `round:2` policies and audited through the CLI.  The sha256 of
report.json, the three SVGs and the three sidecars must equal the digests in
tests/data/zoo_artefact_digests.json.  The files that `compare --out`,
`profile` (each kind) and `fair-model --band <top band>` write are pinned the
same way in tests/data/zoo_cli_digests.json.  A change that alters any byte
of any artefact fails here; a deliberate change regenerates both files with

    PYTHONPATH=src python tests/test_artefact_digests.py

and argues the new bytes in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from multimax.cli import main
from multimax.report import PROFILE_BASENAMES, REPORT_BASENAME
from multimax.zoo import SCENARIOS

DIGESTS_PATH = Path(__file__).parent / "data" / "zoo_artefact_digests.json"
CLI_DIGESTS_PATH = Path(__file__).parent / "data" / "zoo_cli_digests.json"
SEED = "3"
POLICIES = ("strict", "round:2")
ARTEFACTS = (REPORT_BASENAME,) + tuple(
    f"{name}{suffix}" for name in PROFILE_BASENAMES for suffix in (".svg", ".sidecar.json")
)


def zoo_manifest(scenario: str, policy: str, data: Path) -> str:
    """Write one zoo scenario's audit inputs; returns the manifest path."""
    zoo_args = ["zoo", "--scenario", scenario, "--seed", SEED, "--out", str(data)]
    assert main(zoo_args + ["--banding", policy]) == 0
    return str(data / "manifest.txt")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def scenario_digests(scenario: str, policy: str, work: Path) -> dict[str, str]:
    """sha256 of every audit artefact of one zoo scenario under one policy."""
    manifest = zoo_manifest(scenario, policy, work / "data")
    out = work / "out"
    assert main(["audit", "--manifest", manifest, "--out", str(out)]) == 0
    return {name: sha256(out / name) for name in ARTEFACTS}


def cli_digests(scenario: str, policy: str, work: Path) -> dict[str, str]:
    """sha256 of every file compare, profile and fair-model write, by relative path."""
    manifest = zoo_manifest(scenario, policy, work / "data")
    out = work / "out"
    assert main(["compare", "--manifest", manifest, "--out", str(out / "compare.json")]) == 0
    for kind in PROFILE_BASENAMES:
        profile_args = ["profile", "--manifest", manifest, "--kind", kind]
        assert main(profile_args + ["--out", str(out / f"{kind}.svg")]) == 0
    # the first comparison row is the manifest's own policy
    top = json.loads((out / "compare.json").read_text(encoding="utf-8"))["rows"][0]
    fair_args = ["fair-model", "--manifest", manifest, "--band", top["top_band_label"]]
    assert main(fair_args + ["--out", str(out / "fair-model")]) == 0
    return {
        path.relative_to(out).as_posix(): sha256(path)
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def all_digests(digests, work: Path) -> dict[str, dict[str, str]]:
    return {
        f"{scenario}@{policy}": digests(
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


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_zoo_cli_outputs_match_pinned_digests(tmp_path, capsys, scenario, policy):
    expected = json.loads(CLI_DIGESTS_PATH.read_text(encoding="utf-8"))
    assert cli_digests(scenario, policy, tmp_path) == expected[f"{scenario}@{policy}"]


def test_digest_file_covers_every_scenario():
    keys = sorted(f"{scenario}@{policy}" for scenario in SCENARIOS for policy in POLICIES)
    for path in (DIGESTS_PATH, CLI_DIGESTS_PATH):
        assert sorted(json.loads(path.read_text(encoding="utf-8"))) == keys


if __name__ == "__main__":
    for path, digests in ((DIGESTS_PATH, scenario_digests), (CLI_DIGESTS_PATH, cli_digests)):
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            pinned = all_digests(digests, Path(tmp))
        path.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        sys.stdout.write(f"wrote {path}\n")
