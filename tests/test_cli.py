from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from helpers import write_labels_csv, write_manifest, write_predictions_csv
from multimax import ingest, plain
from multimax.cli import ZOO_SCENARIOS, main
from multimax.core import InstanceIndex, LabelVector, ModelRun, PredictionVector
from multimax.errors import ValidationError
from multimax.ingest import ensemble_csv
from multimax.zoo import SCENARIOS
from test_report import write_fixture_inputs

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv) -> int:
    return main(list(argv))


def write_group_map(directory, positions, extra_rows=()):
    """groups.csv assigning the fixture instances at positions, plus extra rows."""
    rows = [f"i{k:04d},g{k % 2}" for k in positions] + list(extra_rows)
    (directory / "groups.csv").write_text(
        "instance_id,group\n" + "".join(row + "\n" for row in rows), encoding="utf-8"
    )


# Every manifest-reading command, with the files it writes under out.
COMMANDS = {
    "audit": lambda out: ["audit", "--out", str(out)],
    "compare": lambda out: ["compare", "--out", str(out / "cmp.json")],
    "stability_profile": lambda out: ["profile", "--kind", "stability_profile", "--out", str(out / "p.svg")],
    "fairness_profile": lambda out: ["profile", "--kind", "fairness_profile", "--out", str(out / "p.svg")],
    "multiplicity_panel": lambda out: ["profile", "--kind", "multiplicity_panel", "--out", str(out / "p.svg")],
    "fair-model": lambda out: ["fair-model", "--band", "5/6", "--out", str(out)],
}


def run_command(name, manifest, out):
    argv = COMMANDS[name](out)
    return run_cli(argv[0], "--manifest", str(manifest), *argv[1:])


def written(out):
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


class TestFailureScope:
    """Each command validates every input but fails only on analyses it prints."""

    @pytest.mark.parametrize("name", ["audit", "multiplicity_panel"])
    def test_group_map_gap_fails_commands_that_print_group_analyses(self, tmp_path, capsys, name):
        write_group_map(tmp_path, range(5))
        manifest = write_fixture_inputs(tmp_path, extra_entries={"group_map": "groups.csv"})
        assert run_command(name, manifest, tmp_path / "out") == 3
        assert "i0005" in capsys.readouterr().err
        assert not (tmp_path / "out").exists() or written(tmp_path / "out") == {}

    @pytest.mark.parametrize("name", ["compare", "stability_profile", "fairness_profile", "fair-model"])
    def test_group_map_gap_spares_the_other_commands(self, tmp_path, capsys, name):
        plain = write_fixture_inputs(tmp_path)
        assert run_command(name, plain, tmp_path / "plain") == 0
        plain_out = capsys.readouterr().out.replace(str(tmp_path / "plain"), "OUT")
        write_group_map(tmp_path, range(5))
        manifest = tmp_path / "gapped.txt"
        manifest.write_text(plain.read_text() + "group_map=groups.csv\n", encoding="utf-8")
        assert run_command(name, manifest, tmp_path / "gapped") == 0
        assert capsys.readouterr().out.replace(str(tmp_path / "gapped"), "OUT") == plain_out
        assert written(tmp_path / "gapped") == written(tmp_path / "plain")

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_malformed_group_map_fails_every_command(self, tmp_path, capsys, name):
        write_group_map(tmp_path, range(6), extra_rows=["i0000,g9"])
        manifest = write_fixture_inputs(tmp_path, extra_entries={"group_map": "groups.csv"})
        assert run_command(name, manifest, tmp_path / "out") == 2
        assert "duplicate group assignment for 'i0000'" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_bad_seed_fails_every_command(self, tmp_path, capsys, monkeypatch, name):
        manifest = write_fixture_inputs(tmp_path)
        monkeypatch.setenv("MULTIMAX_SEED", "soon")
        assert run_command(name, manifest, tmp_path / "out") == 2
        assert "MULTIMAX_SEED" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["audit", "compare", "stability_profile", "fair-model", "zoo"])
    def test_unwritable_output_is_validation_failure(self, tmp_path, capsys, name):
        manifest = write_fixture_inputs(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file\n", encoding="utf-8")
        out = blocker / "out"
        if name == "zoo":
            code = run_cli("zoo", "--scenario", "stump", "--out", str(out))
        else:
            code = run_command(name, manifest, out)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: cannot write output: ")
        assert blocker.read_text(encoding="utf-8") == "a regular file\n"


class TestAuditCommand:
    def test_happy_path(self, tmp_path, capsys):
        manifest = write_fixture_inputs(tmp_path)
        code = run_cli("audit", "--manifest", str(manifest), "--out", str(tmp_path / "out"))
        assert code == 0
        out = capsys.readouterr().out
        assert "policy: strict  runs: 7" in out
        assert "bands: 4  (partition: True)" in out
        assert "top band 5/6: 2 runs, ambiguity 2/6 (0.3333)" in out
        assert out.count("wrote ") == 7
        assert (tmp_path / "out" / "report.json").exists()

    def test_missing_manifest_is_validation_failure(self, tmp_path, capsys):
        code = run_cli("audit", "--manifest", str(tmp_path / "nope.txt"), "--out", str(tmp_path))
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_group_map_gaps_are_compute_failures(self, tmp_path, capsys):
        # A group map that skips an instance makes group ambiguity undecidable.
        write_group_map(tmp_path, range(5))
        manifest = write_fixture_inputs(tmp_path, extra_entries={"group_map": "groups.csv"})
        code = run_cli("audit", "--manifest", str(manifest), "--out", str(tmp_path / "out"))
        assert code == 3
        assert "i0005" in capsys.readouterr().err

    def test_seed_env_override(self, tmp_path, capsys, monkeypatch):
        manifest = write_fixture_inputs(tmp_path)
        monkeypatch.setenv("MULTIMAX_SEED", "123")
        assert run_cli("audit", "--manifest", str(manifest), "--out", str(tmp_path / "out")) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["seed"] == 123

    def test_bad_seed_env_is_validation_failure(self, tmp_path, capsys, monkeypatch):
        manifest = write_fixture_inputs(tmp_path)
        monkeypatch.setenv("MULTIMAX_SEED", "soon")
        assert run_cli("audit", "--manifest", str(manifest), "--out", str(tmp_path / "out")) == 2
        assert "MULTIMAX_SEED" in capsys.readouterr().err

    # int() and Fraction() also read other scripts' digits, "_" and padding
    @pytest.mark.parametrize(
        "entry, message",
        [
            (("band", "tol:\u0661/\u0662\u0660"), "cannot parse tolerance delta"),
            (("band", "tol:1_0/200"), "cannot parse tolerance delta"),
            (("discrepancy_cap", "\u0665"), "discrepancy_cap must be an integer"),
            (("seed", "1_000"), "seed must be an integer"),
        ],
    )
    def test_manifest_numbers_take_ascii_digits_only(self, tmp_path, capsys, monkeypatch, entry, message):
        monkeypatch.delenv("MULTIMAX_SEED", raising=False)
        manifest = write_fixture_inputs(tmp_path, extra_entries=dict([entry]))
        assert run_cli("audit", "--manifest", str(manifest), "--out", str(tmp_path / "out")) == 2
        assert f"manifest.txt:{4 if entry[0] == 'band' else 5}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["\u0667", "1_000", " 7", "7 "])
    def test_seed_env_takes_ascii_digits_only(self, tmp_path, capsys, monkeypatch, value):
        manifest = write_fixture_inputs(tmp_path)
        monkeypatch.setenv("MULTIMAX_SEED", value)
        assert run_cli("audit", "--manifest", str(manifest), "--out", str(tmp_path / "out")) == 2
        assert f"MULTIMAX_SEED must be an integer, got {value!r}" in capsys.readouterr().err


class TestZooCommand:
    def test_writes_audit_inputs(self, tmp_path, capsys):
        code = run_cli("zoo", "--scenario", "stump", "--out", str(tmp_path))
        assert code == 0
        for name in ("labels.csv", "predictions.csv", "manifest.txt"):
            assert (tmp_path / name).exists()
        # the stump family predicts on the validation grid only
        assert not (tmp_path / "fairness_predictions.csv").exists()
        manifest = (tmp_path / "manifest.txt").read_text()
        assert "provenance.scenario=stump" in manifest
        assert "seed=0" in manifest

    def test_fairness_grid_written_when_distinct(self, tmp_path):
        assert run_cli("zoo", "--scenario", "separable-linear", "--out", str(tmp_path)) == 0
        assert (tmp_path / "fairness_predictions.csv").exists()
        manifest = (tmp_path / "manifest.txt").read_text()
        assert "fairness_predictions=fairness_predictions.csv" in manifest

    def test_tie_break_and_banding_flow_into_manifest(self, tmp_path):
        code = run_cli(
            "zoo",
            "--scenario", "stump",
            "--out", str(tmp_path),
            "--banding", "round:2",
            "--tie-break", "specificity,recall",
        )
        assert code == 0
        manifest = (tmp_path / "manifest.txt").read_text()
        assert "band=round:2" in manifest
        assert "tie_break=specificity,recall" in manifest

    def test_refused_manifest_entry_writes_no_file(self, tmp_path, capsys):
        assert run_cli("zoo", "--scenario", "stump", "--out", str(tmp_path), "--banding", " strict") == 2
        assert "' strict'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--banding", "round:x", "cannot parse rounding digits 'x'"),
            ("--tie-break", "accuracy,bogus", "unknown tie-break metric 'bogus'"),
        ],
    )
    def test_unloadable_policy_writes_no_file(self, tmp_path, capsys, flag, value, message):
        assert run_cli("zoo", "--scenario", "stump", "--out", str(tmp_path), flag, value) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_negative_seed_writes_no_file(self, tmp_path, capsys, monkeypatch):
        assert run_cli("zoo", "--scenario", "stump", "--seed", "-1", "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err == "error: zoo seed must be non-negative, got -1\n"
        monkeypatch.setenv("MULTIMAX_SEED", "-5")
        assert run_cli("zoo", "--scenario", "polynomial", "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err == "error: zoo seed must be non-negative, got -5\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["\u0667", "1_000", " 7"])
    def test_seed_takes_ascii_digits_only(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.delenv("MULTIMAX_SEED", raising=False)
        with pytest.raises(SystemExit) as excinfo:
            run_cli("zoo", "--scenario", "stump", "--seed", value, "--out", str(tmp_path))
        assert excinfo.value.code == 2
        assert f"argument --seed: invalid integer value: {value!r}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fault", ["rename", "prediction write"])
    def test_failed_zoo_leaves_earlier_inputs_unchanged(self, tmp_path, capsys, monkeypatch, fault):
        zoo = ("zoo", "--scenario", "separable-linear", "--out", str(tmp_path), "--seed")
        assert run_cli(*zoo, "1") == 0
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        real_open = open

        def refuse_rename(*args, **kwargs):
            raise OSError("rename refused")

        def refuse_predictions(file, *args, **kwargs):
            if "predictions" in os.fspath(file):
                raise OSError("disk full")
            return real_open(file, *args, **kwargs)

        if fault == "rename":
            monkeypatch.setattr(os, "replace", refuse_rename)
        else:
            monkeypatch.setattr(ingest, "open", refuse_predictions, raising=False)
        assert run_cli(*zoo, "2") == 2
        assert capsys.readouterr().err.startswith("error: cannot write output: ")
        # no input file changed, manifest included, and no temporary file is left
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_unknown_scenario_rejected_by_parser(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps the usage to the terminal width
        with pytest.raises(SystemExit) as excinfo:
            run_cli("zoo", "--scenario", "imaginary", "--out", str(tmp_path))
        assert excinfo.value.code == 2
        assert capsys.readouterr().err == (
            "usage: multimax zoo [-h] --scenario\n"
            "                    {borderline-linear,constrained-knn,ensemble-cost,paired-knn,polynomial,separable-linear,stump}\n"
            "                    [--seed SEED] --out OUT [--banding BANDING]\n"
            "                    [--tie-break TIE_BREAK]\n"
            "multimax zoo: error: argument --scenario: invalid choice: 'imaginary' (choose from "
            "'borderline-linear', 'constrained-knn', 'ensemble-cost', 'paired-knn', 'polynomial', "
            "'separable-linear', 'stump')\n"
        )

    def test_scenario_choices_are_the_sorted_zoo(self):
        assert ZOO_SCENARIOS == tuple(sorted(SCENARIOS))

    def test_env_seed_overrides_flag(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MULTIMAX_SEED", "7")
        assert run_cli("zoo", "--scenario", "stump", "--seed", "1", "--out", str(tmp_path)) == 0
        assert "seed=7" in (tmp_path / "manifest.txt").read_text()


class TestEndToEnd:
    def test_zoo_output_audits_cleanly(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run_cli("zoo", "--scenario", "separable-linear", "--out", str(data)) == 0
        code = run_cli(
            "audit", "--manifest", str(data / "manifest.txt"), "--out", str(tmp_path / "out")
        )
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["provenance"]["scenario"] == "separable-linear"
        assert report["counts"]["fairness_instances"] != report["counts"]["validation_instances"]


class TestFairModelCommand:
    def test_writes_model_artefacts(self, tmp_path, capsys):
        manifest = write_fixture_inputs(tmp_path)
        code = run_cli(
            "fair-model",
            "--manifest", str(manifest),
            "--band", "5/6",
            "--out", str(tmp_path / "fm"),
        )
        assert code == 0
        payload = json.loads((tmp_path / "fm" / "fair_model.json").read_text())
        assert payload["band"] == "5/6"
        assert payload["run_count"] == 2
        assert payload["recall"] == {"ratio": "3/3", "decimal": "1.0000"}
        csv = (tmp_path / "fm" / "fair_model_validation.csv").read_text().splitlines()
        assert csv[0] == "run_id,instance_id,prediction"
        assert len(csv) == 7
        assert all(line.startswith("fair-ensemble,") for line in csv[1:])
        # the fixture's manifest names no fairness file
        assert not (tmp_path / "fm" / "fair_model_fairness.csv").exists()

    def test_distinct_fairness_grid_exported(self, tmp_path):
        data = tmp_path / "data"
        run_cli("zoo", "--scenario", "separable-linear", "--out", str(data))
        report_dir = tmp_path / "out"
        run_cli("audit", "--manifest", str(data / "manifest.txt"), "--out", str(report_dir))
        report = json.loads((report_dir / "report.json").read_text())
        band = report["bands"][0]["label"]
        code = run_cli(
            "fair-model",
            "--manifest", str(data / "manifest.txt"),
            "--band", band,
            "--out", str(tmp_path / "fm"),
        )
        assert code == 0
        fairness_csv = (tmp_path / "fm" / "fair_model_fairness.csv").read_text().splitlines()
        assert len(fairness_csv) - 1 == report["counts"]["fairness_instances"]

    def test_fairness_file_on_validation_ids_exported(self, tmp_path, capsys):
        labels = LabelVector(InstanceIndex(("i0", "i1", "i2", "i3")), (1, 1, 0, 0))
        runs = [
            ModelRun.from_predictions(
                run_id, PredictionVector(labels.index, bits), labels, PredictionVector(labels.index, fair)
            )
            for run_id, bits, fair in (("r1", (1, 1, 0, 0), (0, 1, 0, 0)), ("r2", (1, 1, 0, 0), (0, 0, 1, 0)))
        ]
        write_labels_csv(tmp_path / "labels.csv", labels)
        write_predictions_csv(tmp_path / "predictions.csv", runs)
        write_predictions_csv(tmp_path / "fairness.csv", runs, fairness=True)
        write_manifest(
            tmp_path / "manifest.txt",
            {
                "labels": "labels.csv",
                "predictions": "predictions.csv",
                "fairness_predictions": "fairness.csv",
                "favourable_label": "1",
                "band": "strict",
            },
        )
        out = tmp_path / "fm"
        assert run_cli("fair-model", "--manifest", str(tmp_path / "manifest.txt"), "--band", "1/1", "--out", str(out)) == 0
        assert json.loads((out / "fair_model.json").read_text())["resolved_disputes"] == 2
        assert (out / "fair_model_fairness.csv").read_text().splitlines()[1:] == [
            "fair-ensemble,i0,0",
            "fair-ensemble,i1,1",
            "fair-ensemble,i2,1",
            "fair-ensemble,i3,0",
        ]

    def test_ids_are_quoted_and_read_back_exactly(self, tmp_path, capsys):
        ids = ("a,b", 'd"q', "plain")
        labels = LabelVector(InstanceIndex(ids), (1, 0, 1))
        runs = [
            ModelRun.from_predictions(run_id, PredictionVector(labels.index, bits), labels)
            for run_id, bits in (("r1", (1, 0, 0)), ("r2", (0, 0, 1)))
        ]
        write_labels_csv(tmp_path / "labels.csv", labels)
        write_predictions_csv(tmp_path / "predictions.csv", runs)
        write_manifest(
            tmp_path / "manifest.txt",
            {"labels": "labels.csv", "predictions": "predictions.csv", "favourable_label": "1", "band": "strict"},
        )
        out = tmp_path / "fm"
        assert run_cli("fair-model", "--manifest", str(tmp_path / "manifest.txt"), "--band", "2/3", "--out", str(out)) == 0
        text = (out / "fair_model_validation.csv").read_text(encoding="utf-8")
        assert text.endswith("fair-ensemble,plain,1\n")
        with open(out / "fair_model_validation.csv", encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows == [
            ["run_id", "instance_id", "prediction"],
            ["fair-ensemble", "a,b", "1"],
            ["fair-ensemble", 'd"q', "0"],
            ["fair-ensemble", "plain", "1"],
        ]

    def test_padded_ids_refused(self):
        preds = PredictionVector(InstanceIndex((" a", "b")), (1, 0))
        with pytest.raises(ValidationError, match="' a'"):
            ensemble_csv(preds)

    def test_unknown_band_lists_known_ones(self, tmp_path, capsys):
        manifest = write_fixture_inputs(tmp_path)
        code = run_cli(
            "fair-model",
            "--manifest", str(manifest),
            "--band", "9/9",
            "--out", str(tmp_path / "fm"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "9/9" in err and "5/6" in err and "1/6" in err


class TestCompareCommand:
    def test_default_table(self, tmp_path, capsys):
        manifest = write_fixture_inputs(tmp_path)
        assert run_cli("compare", "--manifest", str(manifest)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["policy", "bands", "top_band", "top_runs", "top_ambiguity"]
        assert lines[1].split()[:2] == ["strict", "4"]
        assert [line.split()[0] for line in lines[1:]] == ["strict", "round:3", "round:2"]

    def test_explicit_policies_and_json(self, tmp_path, capsys):
        manifest = write_fixture_inputs(tmp_path)
        out = tmp_path / "cmp.json"
        code = run_cli(
            "compare",
            "--manifest", str(manifest),
            "--policies", "strict", "tol:1/6",
            "--out", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert [row["policy"] for row in payload["rows"]] == ["strict", "tol:1/6"]
        assert payload["rows"][0]["band_count"] == 4

    def test_malformed_policy_is_validation_failure(self, tmp_path, capsys):
        manifest = write_fixture_inputs(tmp_path)
        assert run_cli("compare", "--manifest", str(manifest), "--policies", "fuzzy:9") == 2
        assert "fuzzy:9" in capsys.readouterr().err


class TestProfileCommand:
    @pytest.mark.parametrize(
        "kind", ["stability_profile", "fairness_profile", "multiplicity_panel"]
    )
    def test_renders_each_kind(self, tmp_path, capsys, kind):
        manifest = write_fixture_inputs(tmp_path)
        out = tmp_path / "profiles" / f"{kind}.svg"
        code = run_cli(
            "profile", "--manifest", str(manifest), "--kind", kind, "--out", str(out)
        )
        assert code == 0
        assert out.read_text().startswith("<svg")
        sidecar = json.loads((out.parent / f"{kind}.sidecar.json").read_text())
        assert sidecar["kind"] == kind

    def test_matches_audit_render(self, tmp_path):
        manifest = write_fixture_inputs(tmp_path)
        out = tmp_path / "alone.svg"
        run_cli("profile", "--manifest", str(manifest), "--kind", "fairness_profile", "--out", str(out))
        run_cli("audit", "--manifest", str(manifest), "--out", str(tmp_path / "full"))
        assert out.read_bytes() == (tmp_path / "full" / "fairness_profile.svg").read_bytes()


def test_cli_import_loads_neither_the_zoo_nor_the_network_stack():
    # urllib.parse is not listed: pathlib imports it
    code = "import sys, multimax.cli; print(*sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    unwanted = {"xml.sax", "urllib.request", "http.client", "email", "ssl", "multimax.zoo"}
    assert unwanted.isdisjoint(loaded.stdout.split())


def test_audit_of_run_major_files_never_loads_numpy_ma(tmp_path):
    # np.unique without return_index or return_inverse calls np.ma.is_masked,
    # which on numpy 2, where numpy.ma loads lazily, imports it; no audit of
    # plain files needs it
    manifest = write_fixture_inputs(tmp_path)
    data = (tmp_path / "predictions.csv").read_bytes()
    with mock.patch.object(plain, "_coded", side_effect=AssertionError("not run-major")):
        assert plain.columns(data, ingest.PREDICTION_HEADER, run_major=True) is not None
    code = "import sys, numpy; print('numpy.ma' in sys.modules); from multimax.cli import main; main(sys.argv[1:])"
    code += "; print(*sys.modules)"
    command = [sys.executable, "-c", code, "audit", "--manifest", str(manifest), "--out", str(tmp_path / "out")]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    bare, *_, loaded = subprocess.run(command, env=env, capture_output=True, text=True, check=True).stdout.splitlines()
    if bare == "True":
        pytest.skip("a bare import numpy loads numpy.ma (numpy 1.x)")
    assert "numpy" in loaded.split() and "numpy.ma" not in loaded.split()
