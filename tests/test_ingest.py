from __future__ import annotations

import csv
import json
import string
import tempfile
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    make_index,
    oracle_load_fairness_predictions,
    oracle_load_predictions,
    oracle_read_group_map,
    oracle_read_labels,
    two_band_runs,
    write_labels_csv,
    write_manifest,
    write_predictions_csv,
)
from multimax import ingest, plain
from multimax.banding import BandingPolicy
from multimax.cli import main
from multimax.core import ExactRatio, InstanceIndex, LabelVector, ModelRun, PredictionVector
from multimax.errors import ValidationError
from multimax.ingest import (
    GROUP_HEADER,
    LABEL_HEADER,
    PREDICTION_HEADER,
    AuditManifest,
    attach_fairness,
    csv_text,
    load_fairness_predictions,
    load_manifest,
    load_predictions,
    read_group_map,
    read_labels,
)
from multimax.report import load_inputs
from multimax.zoo import SCENARIOS
from test_report import write_fixture_inputs


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLabels:
    def test_arbitrary_vocabulary(self, tmp_path):
        path = write(
            tmp_path / "labels.csv",
            "instance_id,label\nalice,granted\nbob,denied\ncarol,granted\n",
        )
        labels, value_map = read_labels(path, favourable_label="granted")
        assert value_map == {"denied": 0, "granted": 1}
        assert labels.index.ids == ("alice", "bob", "carol")
        assert labels.values.tolist() == [1, 0, 1]

    def test_write_read_round_trip(self, tmp_path):
        idx = make_index(4)
        labels = LabelVector(idx, (1, 0, 0, 1))
        path = tmp_path / "labels.csv"
        write_labels_csv(path, labels)
        loaded, value_map = read_labels(path, favourable_label="1")
        assert loaded.values.tolist() == labels.values.tolist() == [1, 0, 0, 1]
        assert loaded.index == idx
        assert value_map == {"0": 0, "1": 1}

    def test_errors_carry_file_and_line(self, tmp_path):
        path = write(tmp_path / "labels.csv", "instance_id,label\na,1\na,0\n")
        with pytest.raises(ValidationError) as err:
            read_labels(path, "1")
        message = str(err.value)
        assert "labels.csv" in message and ":3:" in message and "'a'" in message

    def test_header_is_checked(self, tmp_path):
        path = write(tmp_path / "labels.csv", "id,label\na,1\n")
        with pytest.raises(ValidationError, match="header"):
            read_labels(path, "1")

    def test_field_count_checked(self, tmp_path):
        path = write(tmp_path / "labels.csv", "instance_id,label\na,1,extra\n")
        with pytest.raises(ValidationError, match="expected 2 fields"):
            read_labels(path, "1")

    def test_empty_field_rejected(self, tmp_path):
        path = write(tmp_path / "labels.csv", "instance_id,label\na,\n")
        with pytest.raises(ValidationError, match="empty field"):
            read_labels(path, "1")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read"):
            read_labels(tmp_path / "nope.csv", "1")

    def test_empty_and_header_only_files(self, tmp_path):
        with pytest.raises(ValidationError, match="empty"):
            read_labels(write(tmp_path / "e.csv", ""), "1")
        with pytest.raises(ValidationError, match="no data rows"):
            read_labels(write(tmp_path / "h.csv", "instance_id,label\n"), "1")
        with pytest.raises(ValidationError, match="no data rows"):
            read_labels(write(tmp_path / "b.csv", "instance_id,label\n , \n"), "1")

    def test_vocabulary_must_be_binary_with_favourable(self, tmp_path):
        three = write(tmp_path / "three.csv", "instance_id,label\na,x\nb,y\nc,z\n")
        with pytest.raises(ValidationError, match="binary"):
            read_labels(three, "x")
        one = write(tmp_path / "one.csv", "instance_id,label\na,x\nb,x\n")
        with pytest.raises(ValidationError, match="binary"):
            read_labels(one, "x")
        absent = write(tmp_path / "absent.csv", "instance_id,label\na,x\nb,y\n")
        with pytest.raises(ValidationError, match="never occurs"):
            read_labels(absent, "z")

    def test_blank_lines_skipped(self, tmp_path):
        path = write(tmp_path / "labels.csv", "instance_id,label\n\na,1\n\nb,0\n")
        labels, _ = read_labels(path, "1")
        assert labels.index.ids == ("a", "b")


@pytest.mark.parametrize(
    "load, read, rewritten, message",
    [
        (
            lambda path: read_labels(path, "1"),
            "instance_id,label\na,1\na,0\n",
            "instance_id,label\na,1\nb,0\n",
            "duplicate instance id 'a'",
        ),
        (
            read_group_map,
            "instance_id,group\na,1\na,0\n",
            "instance_id,group\na,1\nb,0\n",
            "duplicate group assignment for 'a'",
        ),
        (
            lambda path: load_fairness_predictions(path, {"0": 0, "1": 1}),
            "run_id,instance_id,prediction\nr,a,1\nr,a,0\n",
            "run_id,instance_id,prediction\nr,a,1\nr,b,0\n",
            "duplicate prediction for run 'r', instance 'a'",
        ),
    ],
    ids=["labels", "group map", "fairness predictions"],
)
def test_a_rescan_reads_the_bytes_already_read(tmp_path, load, read, rewritten, message):
    """A file rewritten after it was read is reported as it was read."""
    with mock.patch.object(ingest, "_read_bytes", side_effect=[read.encode(), rewritten.encode()]):
        with pytest.raises(ValidationError, match=message) as err:
            load(tmp_path / "file.csv")
    assert err.value.line == 3


class TestPredictions:
    @staticmethod
    def _labels(tmp_path):
        path = write(tmp_path / "labels.csv", "instance_id,label\na,1\nb,1\nc,0\n")
        return read_labels(path, "1")

    def test_runs_in_first_appearance_order(self, tmp_path):
        labels, value_map = self._labels(tmp_path)
        path = write(
            tmp_path / "preds.csv",
            "run_id,instance_id,prediction\n"
            "r2,a,1\nr1,a,1\nr2,b,0\nr1,b,1\nr2,c,0\nr1,c,0\n",
        )
        runs = load_predictions(path, labels, value_map)
        assert [r.run_id for r in runs] == ["r2", "r1"]
        assert runs[0].utility == ExactRatio(2, 3)
        assert runs[1].utility == ExactRatio(3, 3)

    def test_unknown_value(self, tmp_path):
        labels, value_map = self._labels(tmp_path)
        path = write(tmp_path / "preds.csv", "run_id,instance_id,prediction\nr,a,maybe\n")
        with pytest.raises(ValidationError, match="'maybe'"):
            load_predictions(path, labels, value_map)

    def test_duplicate_pair(self, tmp_path):
        labels, value_map = self._labels(tmp_path)
        path = write(
            tmp_path / "preds.csv",
            "run_id,instance_id,prediction\nr,a,1\nr,a,0\n",
        )
        with pytest.raises(ValidationError) as err:
            load_predictions(path, labels, value_map)
        assert "duplicate prediction" in str(err.value) and ":3:" in str(err.value)

    def test_unknown_instance(self, tmp_path):
        labels, value_map = self._labels(tmp_path)
        path = write(
            tmp_path / "preds.csv",
            "run_id,instance_id,prediction\nr,a,1\nr,b,1\nr,c,0\nr,ghost,0\n",
        )
        with pytest.raises(ValidationError, match="ghost"):
            load_predictions(path, labels, value_map)

    def test_incomplete_coverage(self, tmp_path):
        labels, value_map = self._labels(tmp_path)
        path = write(tmp_path / "preds.csv", "run_id,instance_id,prediction\nr,a,1\n")
        with pytest.raises(ValidationError, match="misses 2 instances"):
            load_predictions(path, labels, value_map)


class TestFairnessPredictions:
    def test_index_defined_by_first_run(self, tmp_path):
        path = write(
            tmp_path / "fair.csv",
            "run_id,instance_id,prediction\n"
            "r1,g1,1\nr1,g0,0\n"
            "r2,g0,1\nr2,g1,1\n",
        )
        index, vectors = load_fairness_predictions(path, {"0": 0, "1": 1})
        assert index.ids == ("g1", "g0")
        assert vectors["r1"].values.tolist() == [1, 0]
        assert vectors["r2"].values.tolist() == [1, 1]

    def test_extra_instance_rejected(self, tmp_path):
        path = write(
            tmp_path / "fair.csv",
            "run_id,instance_id,prediction\nr1,g0,1\nr2,g0,1\nr2,g9,0\n",
        )
        with pytest.raises(ValidationError, match="g9"):
            load_fairness_predictions(path, {"0": 0, "1": 1})

    def test_missing_instance_rejected(self, tmp_path):
        path = write(
            tmp_path / "fair.csv",
            "run_id,instance_id,prediction\nr1,g0,1\nr1,g1,1\nr2,g0,1\n",
        )
        with pytest.raises(ValidationError, match="misses fairness instance 'g1'"):
            load_fairness_predictions(path, {"0": 0, "1": 1})

    def test_attach_swaps_vectors(self):
        _, runs = two_band_runs()
        grid = InstanceIndex(("g0", "g1"))
        fairness = {
            run.run_id: PredictionVector(grid, (1, 0)) for run in runs
        }
        attached = attach_fairness(runs, fairness)
        assert all(run.preds_fairness.index == grid for run in attached)
        assert [r.run_id for r in attached] == [r.run_id for r in runs]
        assert attached[0].utility == runs[0].utility

    def test_attach_requires_exact_run_sets(self):
        _, runs = two_band_runs()
        grid = InstanceIndex(("g0",))
        vectors = {run.run_id: PredictionVector(grid, (1,)) for run in runs}
        incomplete = dict(list(vectors.items())[:-1])
        with pytest.raises(ValidationError, match="missing for run"):
            attach_fairness(runs, incomplete)
        extra = dict(vectors)
        extra["stranger"] = PredictionVector(grid, (0,))
        with pytest.raises(ValidationError, match="stranger"):
            attach_fairness(runs, extra)


class TestGroupMap:
    def test_round_trip(self, tmp_path):
        path = write(tmp_path / "groups.csv", "instance_id,group\na,north\nb,south\n")
        assert read_group_map(path) == {"a": "north", "b": "south"}

    def test_duplicate_assignment(self, tmp_path):
        path = write(tmp_path / "groups.csv", "instance_id,group\na,north\na,south\n")
        with pytest.raises(ValidationError, match="duplicate group"):
            read_group_map(path)


class TestManifest:
    FULL = (
        "# audit inputs\n"
        "labels=labels.csv\n"
        "predictions=preds.csv\n"
        "\n"
        "favourable_label=granted\n"
        "band=round:2\n"
        "tie_break=specificity, recall\n"
        "discrepancy_cap=100\n"
        "seed=7\n"
        "profile_top_n=3\n"
        "profile_variant=faithful\n"
        "profile_max_instances=40\n"
        "fairness_predictions=fair.csv\n"
        "group_map=groups.csv\n"
        "provenance.family=linear\n"
        "provenance.note=hand built\n"
    )

    def test_full_parse(self, tmp_path):
        path = write(tmp_path / "manifest.txt", self.FULL)
        manifest = load_manifest(path)
        assert manifest.labels_path == (tmp_path / "labels.csv").resolve()
        assert manifest.predictions_path == (tmp_path / "preds.csv").resolve()
        assert manifest.favourable_label == "granted"
        assert manifest.policy.describe() == "round:2"
        assert manifest.policy.tie_break == ("specificity", "recall")
        assert manifest.discrepancy_cap == 100
        assert manifest.seed == 7
        assert manifest.profile_top_n == 3
        assert manifest.profile_variant == "faithful"
        assert manifest.profile_max_instances == 40
        assert manifest.fairness_predictions_path == (tmp_path / "fair.csv").resolve()
        assert manifest.group_map_path == (tmp_path / "groups.csv").resolve()
        assert manifest.provenance == {"family": "linear", "note": "hand built"}

    def test_defaults(self, tmp_path):
        path = write(
            tmp_path / "m.txt",
            "labels=l.csv\npredictions=p.csv\nfavourable_label=1\nband=strict\n",
        )
        manifest = load_manifest(path)
        assert manifest.discrepancy_cap == 500
        assert manifest.seed == 0
        assert manifest.profile_top_n == 8
        assert manifest.profile_variant == "summary"
        assert manifest.profile_max_instances == 250
        assert manifest.fairness_predictions_path is None
        assert manifest.group_map_path is None
        assert manifest.provenance == {}
        assert manifest.policy.tie_break == ()

    def test_unknown_key_rejected_with_line(self, tmp_path):
        path = write(
            tmp_path / "m.txt",
            "labels=l.csv\npredictions=p.csv\nfavourable_label=1\nband=strict\nbadnkey=3\n",
        )
        with pytest.raises(ValidationError) as err:
            load_manifest(path)
        assert "badnkey" in str(err.value) and ":5:" in str(err.value)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write(
            tmp_path / "m.txt",
            "labels=l.csv\nlabels=other.csv\npredictions=p.csv\nfavourable_label=1\nband=strict\n",
        )
        with pytest.raises(ValidationError, match="duplicate manifest key"):
            load_manifest(path)

    def test_duplicate_provenance_key_names_key_and_line(self, tmp_path):
        path = write(
            tmp_path / "m.txt",
            "labels=l.csv\npredictions=p.csv\nfavourable_label=1\nband=strict\n"
            "provenance.x=a\nprovenance.x=b\n",
        )
        with pytest.raises(ValidationError, match="duplicate manifest key 'provenance.x'") as err:
            load_manifest(path)
        assert ":6:" in str(err.value)

    def test_missing_required_key(self, tmp_path):
        path = write(tmp_path / "m.txt", "labels=l.csv\npredictions=p.csv\nband=strict\n")
        with pytest.raises(ValidationError, match="favourable_label"):
            load_manifest(path)

    def test_bad_band_policy_names_the_line(self, tmp_path):
        path = write(
            tmp_path / "m.txt",
            "labels=l.csv\npredictions=p.csv\nfavourable_label=1\nband=round:x\n",
        )
        with pytest.raises(ValidationError) as err:
            load_manifest(path)
        assert ":4:" in str(err.value)

    def test_line_separators_inside_values(self, tmp_path):
        note = "a\u2028b\x85c\x0cd"
        lines = ["labels=l.csv", f"provenance.note={note}", "predictions=p.csv", "favourable_label=1"]
        path = write(tmp_path / "m.txt", "\n".join(lines + ["band=strict"]) + "\n")
        assert load_manifest(path).provenance == {"note": note}
        path = write(tmp_path / "m.txt", "\r\n".join(lines + ["badkey=3", "band=strict"]) + "\r\n")
        with pytest.raises(ValidationError) as err:
            load_manifest(path)
        assert "badkey" in str(err.value) and ":5:" in str(err.value)

    def test_non_integer_seed(self, tmp_path):
        path = write(
            tmp_path / "m.txt",
            "labels=l.csv\npredictions=p.csv\nfavourable_label=1\nband=strict\nseed=soon\n",
        )
        with pytest.raises(ValidationError, match="seed must be an integer"):
            load_manifest(path)

    def test_key_value_shape_enforced(self, tmp_path):
        path = write(tmp_path / "m.txt", "labels l.csv\n")
        with pytest.raises(ValidationError, match="key=value"):
            load_manifest(path)
        path = write(tmp_path / "m.txt", "labels=\n")
        with pytest.raises(ValidationError, match="empty key or value"):
            load_manifest(path)

    def test_absolute_paths_kept(self, tmp_path):
        target = tmp_path / "elsewhere" / "labels.csv"
        path = write(
            tmp_path / "m.txt",
            f"labels={target}\npredictions=p.csv\nfavourable_label=1\nband=strict\n",
        )
        assert load_manifest(path).labels_path == target

    def test_constructor_validation(self, tmp_path):
        with pytest.raises(ValidationError, match="discrepancy_cap"):
            AuditManifest(
                labels_path=tmp_path / "l",
                predictions_path=tmp_path / "p",
                favourable_label="1",
                policy=BandingPolicy(mode="strict"),
                discrepancy_cap=1,
            )

    def test_write_then_load(self, tmp_path):
        write_manifest(
            tmp_path / "m.txt",
            {
                "labels": "l.csv",
                "predictions": "p.csv",
                "favourable_label": "1",
                "band": "tol:1/100",
            },
        )
        manifest = load_manifest(tmp_path / "m.txt")
        assert manifest.policy.mode == "tolerance"
        assert manifest.policy.delta == Fraction(1, 100)

    def test_written_entries_read_back_unchanged(self, tmp_path):
        provenance = {
            "note": "two words",
            "formula": "a=b+c",
            "hash": "#not a comment",
            "separator": "x\u2028y\x0cz",
            "inner key": "v",
        }
        entries = {"labels": "l.csv", "predictions": "p.csv", "favourable_label": "1", "band": "strict"}
        entries.update({f"provenance.{key}": value for key, value in provenance.items()})
        write_manifest(tmp_path / "m.txt", entries)
        assert load_manifest(tmp_path / "m.txt").provenance == provenance

    @pytest.mark.parametrize(
        "key, value",
        [
            ("", "v"),
            ("provenance.x", ""),
            ("provenance.x", " padded "),
            ("band", " strict"),
            (" provenance.x", "v"),
            ("provenance.x", "\u2028v"),
            ("provenance.x", "a\nseed=9"),
            ("provenance.x", "a\rseed=9"),
            ("provenance.a\nb", "v"),
            ("provenance.a=b", "v"),
            ("#provenance.x", "v"),
        ],
    )
    def test_write_refuses_entries_that_would_read_back_changed(self, tmp_path, key, value):
        entries = {"labels": "l.csv", "predictions": "p.csv", "favourable_label": "1", "band": "strict"}
        entries[key] = value
        with pytest.raises(ValidationError):
            write_manifest(tmp_path / "m.txt", entries)
        assert list(tmp_path.iterdir()) == []


class TestPredictionWriter:
    def test_round_trip_preserves_everything(self, tmp_path):
        labels, runs = two_band_runs()
        write_labels_csv(tmp_path / "labels.csv", labels)
        write_predictions_csv(tmp_path / "preds.csv", runs)
        loaded_labels, value_map = read_labels(tmp_path / "labels.csv", "1")
        loaded = load_predictions(tmp_path / "preds.csv", loaded_labels, value_map)
        assert [r.run_id for r in loaded] == [r.run_id for r in runs]
        for original, copy in zip(runs, loaded):
            assert copy.preds_validation.values.tolist() == original.preds_validation.values.tolist()
            assert copy.utility == original.utility

    def test_ids_round_trip_or_are_refused(self, tmp_path):
        # The readers strip every cell, so only an id without surrounding
        # whitespace comes back unchanged; the writers refuse the others.
        idx = InstanceIndex(("a b", "c"))
        labels = LabelVector(idx, (1, 0))
        run = ModelRun.from_predictions("run 1", PredictionVector(idx, (1, 1)), labels)
        write_labels_csv(tmp_path / "labels.csv", labels)
        write_predictions_csv(tmp_path / "preds.csv", [run])
        loaded_labels, value_map = read_labels(tmp_path / "labels.csv", "1")
        (loaded,) = load_predictions(tmp_path / "preds.csv", loaded_labels, value_map)
        assert loaded_labels.index == idx
        assert loaded.run_id == "run 1"

        padded = LabelVector(InstanceIndex((" a", "b ")), (1, 0))
        with pytest.raises(ValidationError, match="instance id ' a' has surrounding whitespace"):
            write_labels_csv(tmp_path / "padded_labels.csv", padded)
        padded_run = ModelRun.from_predictions("r", PredictionVector(padded.index, (1, 1)), padded)
        with pytest.raises(ValidationError, match="instance id ' a'"):
            write_predictions_csv(tmp_path / "padded_preds.csv", [padded_run])
        with pytest.raises(ValidationError, match="run id 'run 1 '"):
            write_predictions_csv(tmp_path / "padded_run.csv", [replace(run, run_id="run 1 ")])
        assert not list(tmp_path.glob("padded*"))


def write_rows(path, header, rows):
    """Write a CSV file with every field quoted."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, quoting=csv.QUOTE_ALL)
        writer.writerow(header)
        writer.writerows(rows)
    return path


class TestQuotedFields:
    IDS = ("a\u2028b", "c\x0cd", "e\x85f", "g\nh")

    def test_ids_survive_into_the_report(self, tmp_path, monkeypatch):
        monkeypatch.delenv("MULTIMAX_SEED", raising=False)
        write_rows(tmp_path / "labels.csv", LABEL_HEADER, zip(self.IDS, "1010"))
        runs = {"run\u2028one": "1100", "run\ntwo": "0011"}  # both 2/4, disagreeing everywhere
        write_rows(
            tmp_path / "preds.csv",
            PREDICTION_HEADER,
            [(run_id, i, v) for run_id, bits in runs.items() for i, v in zip(self.IDS, bits)],
        )
        write_manifest(
            tmp_path / "m.txt",
            {"labels": "labels.csv", "predictions": "preds.csv", "favourable_label": "1", "band": "strict"},
        )
        out = tmp_path / "out"
        assert main(["audit", "--manifest", str(tmp_path / "m.txt"), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        (band,) = report["bands"]
        assert sorted(band["run_ids"]) == sorted(runs)
        assert band["disputable"]["instance_ids"] == list(self.IDS)

    def test_errors_name_the_physical_start_line(self, tmp_path):
        head = 'run_id,instance_id,prediction\nr,"a\nb",1\nr,c,1\n'  # rows on lines 2-3 and 4
        after = write(tmp_path / "after.csv", head + "r,d,maybe\n")
        with pytest.raises(ValidationError, match="'maybe'") as err:
            load_fairness_predictions(after, {"0": 0, "1": 1})
        assert err.value.line == 5
        spanning = write(tmp_path / "spanning.csv", head + 'r,"d\r\ne",1,extra\n')
        with pytest.raises(ValidationError, match="expected 3 fields, got 4") as err:
            load_fairness_predictions(spanning, {"0": 0, "1": 1})
        assert err.value.line == 5


class TestUnreadableFiles:
    """Bytes that cannot be read as rows end `multimax audit` with exit 2, not a traceback."""

    @pytest.mark.parametrize("name", ["labels.csv", "predictions.csv", "manifest.txt"])
    def test_non_utf8_byte_names_the_file_and_line(self, tmp_path, capsys, name):
        manifest = write_fixture_inputs(tmp_path)
        path = tmp_path / name
        lines = path.read_bytes().split(b"\n")
        lines[2] = b"\xff" + lines[2]
        path.write_bytes(b"\n".join(lines))
        assert main(["audit", "--manifest", str(manifest), "--out", str(tmp_path / "out")]) == 2
        assert f"{name}:3: not UTF-8 text: byte 0xff" in capsys.readouterr().err

    def test_line_of_a_bad_byte_counts_every_line_ending(self, tmp_path):
        path = write(tmp_path / "labels.csv", "")
        path.write_bytes(b'instance_id,label\r\na,1\rb,0\n"c\r\nd",\xe9\n')
        with pytest.raises(ValidationError, match="byte 0xe9") as err:
            read_labels(path, "1")
        assert err.value.line == 5

    @pytest.mark.parametrize("gap", [10, 10_000])
    def test_a_bad_byte_is_reported_before_a_faulty_row(self, tmp_path, gap):
        rows = [f"i{k},1" for k in range(gap + 1)]
        rows[1] += ",extra"  # line 3
        rows.append("\xff,0")  # line gap + 3
        path = tmp_path / "labels.csv"
        path.write_bytes("\n".join(["instance_id,label", *rows, ""]).encode("latin-1"))
        with pytest.raises(ValidationError, match="not UTF-8 text: byte 0xff") as err:
            read_labels(path, "1")
        assert err.value.line == gap + 3

    def test_oversized_field_names_the_file_and_line(self, tmp_path, capsys):
        manifest = write_fixture_inputs(tmp_path)
        with open(tmp_path / "labels.csv", "a", encoding="utf-8") as handle:
            handle.write("x" * 200_000 + ",1\n")
        assert main(["audit", "--manifest", str(manifest), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "labels.csv:8: cannot parse CSV: field larger than field limit" in err


# ------------------------------------------------- bulk ingest vs row oracle

SEPARATORS = ("", " ", ",", '"', "\n", "\r\n", "\u2028", "\x0c", "\x85")
BLANK_ROWS = ("", " ", "\t", ",", " , , ")
FAULTS = ("value", "fields", "empty", "duplicate", "missing", "outside")


def _cell(data, text: str) -> str:
    """`text` as one CSV cell, padded, and quoted when it must be or when drawn."""
    pad = data.draw(st.sampled_from(("", " ", "\t")))
    if data.draw(st.booleans()) or any(c in text for c in ',"\r\n'):
        return '"' + pad + text.replace('"', '""') + pad + '"'
    return pad + text + pad


def _write_csv(data, path: Path, header, rows) -> Path:
    eol = data.draw(st.sampled_from(("\n", "\r\n")))
    lines = [",".join(header)]
    for row in rows:
        if data.draw(st.integers(0, 4)) == 0:
            lines.append(data.draw(st.sampled_from(BLANK_ROWS)))
        lines.append(",".join(_cell(data, text) for text in row))
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(eol.join(lines) + data.draw(st.sampled_from(("", eol))))
    return path


def _inject(data, rows: list[list[str]], fault: str, run_ids: list[str]) -> None:
    if not rows:
        return
    k = data.draw(st.integers(0, len(rows) - 1))
    at = data.draw(st.integers(0, len(rows)))
    if fault == "value":
        rows[k][-1] = "maybe"
    elif fault == "fields":
        rows[k] = rows[k][:-1] if data.draw(st.booleans()) else rows[k] + ["x"]
    elif fault == "empty":
        rows[k][data.draw(st.integers(0, len(rows[k]) - 1))] = data.draw(st.sampled_from(("", " ")))
    elif fault == "duplicate":
        rows.insert(at, list(rows[k]))
    elif fault == "missing":
        del rows[k]
    else:
        rows.insert(at, [data.draw(st.sampled_from(run_ids)), "ghost", "yes"])


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValidationError as exc:
        return "error", str(exc), exc.line


def _as_written(outcome):
    """Loaded runs' utilities as (num, den) pairs: ExactRatio compares by value, reports keep num/den."""
    return [(run.utility.num, run.utility.den) for run in outcome[1]] if outcome[0] == "ok" else outcome


@pytest.mark.parametrize(
    "body, line",
    [
        ("r1,a,1\nr1,b,1\nr2,a,1\nr2,c,1\n", 5),  # r2 predicts c outside, before missing b
        ("r1,a,1\nr2,a,1\nr3,c,1\nr2,c,1\nr1,b,1\n", 4),  # c is named at its first line, in r3
        ("r1,a,1\nr1,b,1\nr2,a,1\nr2,b,1\nr3,b,1\n", None),  # r3 misses a
        ("r1,a,maybe\nr1,b,1,x\n", 3),  # field errors anywhere come first
        ("r1,a,1\nr1,a,0\nr1,b,maybe\n", 3),  # then values and duplicates in row order
    ],
)
def test_fairness_fault_precedence_matches_row_oracle(tmp_path, body, line):
    path = write(tmp_path / "fair.csv", "run_id,instance_id,prediction\n" + body)
    value_map = {"0": 0, "1": 1}
    got = _outcome(load_fairness_predictions, path, value_map)
    assert got == _outcome(oracle_load_fairness_predictions, path, value_map)
    assert got[0] == "error" and got[2] == line


@pytest.mark.parametrize(
    "body, message",
    [
        ("r1,ghost,1\nr1,a,1\n", "r1' predicts unknown instance 'ghost'"),  # before r1 misses b
        ("r1,a,1\nr2,ghost,1\nr2,a,1\nr2,b,1\n", "r1' misses 1 instances"),  # runs in order
    ],
)
def test_validation_fault_precedence_matches_row_oracle(tmp_path, body, message):
    labels, value_map = read_labels(write(tmp_path / "labels.csv", "instance_id,label\na,1\nb,0\n"), "1")
    path = write(tmp_path / "preds.csv", "run_id,instance_id,prediction\n" + body)
    got = _outcome(load_predictions, path, labels, value_map)
    assert got == _outcome(oracle_load_predictions, path, labels, value_map)
    assert got[0] == "error" and message in got[1]


@settings(max_examples=150)
@given(data=st.data())
def test_bulk_ingest_matches_row_oracle(data):
    """Equal runs and vectors, or the same message and line, on every file."""
    n_instances = data.draw(st.integers(1, 5))
    ids = [f"i{data.draw(st.sampled_from(SEPARATORS))}{k}" for k in range(n_instances)]
    run_ids = [f"r{data.draw(st.sampled_from(SEPARATORS))}{k}" for k in range(data.draw(st.integers(1, 3)))]
    label_rows = [[i, data.draw(st.sampled_from(("yes", "no")))] for i in ids]
    label_rows[-1][1] = "no" if label_rows[0][1] == "yes" else "yes"
    group_rows = [[i, data.draw(st.sampled_from(("north", "south")))] for i in ids]
    for rows in (label_rows, group_rows):
        if data.draw(st.integers(0, 5)) == 0:
            rows.insert(data.draw(st.integers(0, len(rows))), list(data.draw(st.sampled_from(rows))))
    rows = [[r, i, data.draw(st.sampled_from(("yes", "no")))] for r in run_ids for i in ids]
    if data.draw(st.booleans()):
        rows = [list(row) for row in data.draw(st.permutations(rows))]
    for _ in range(data.draw(st.sampled_from((0, 1, 1, 1, 2, 3)))):
        _inject(data, rows, data.draw(st.sampled_from(FAULTS)), run_ids)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        labels = _write_csv(data, tmp / "labels.csv", LABEL_HEADER, label_rows)
        groups = _write_csv(data, tmp / "groups.csv", GROUP_HEADER, group_rows)
        preds = _write_csv(data, tmp / "preds.csv", PREDICTION_HEADER, rows)
        assert _outcome(read_group_map, groups) == _outcome(oracle_read_group_map, groups)
        loaded = _outcome(read_labels, labels, "yes")
        assert loaded == _outcome(oracle_read_labels, labels, "yes")
        value_map = {"no": 0, "yes": 1}
        assert _outcome(load_fairness_predictions, preds, value_map) == _outcome(
            oracle_load_fairness_predictions, preds, value_map
        )
        if loaded[0] == "ok":
            label_vector, value_map = loaded[1]
            got = _outcome(load_predictions, preds, label_vector, value_map)
            expected = _outcome(oracle_load_predictions, preds, label_vector, value_map)
            assert got == expected and _as_written(got) == _as_written(expected)


# ------------------------------------------- plain files: the byte-level parse

ID_CHARS = string.ascii_letters + string.digits + "_.-"
PLAIN_CHARS = "".join(chr(c) for c in range(0x21, 0x7F) if chr(c) not in ',"')
NEAR_PLAIN = (" ", '"', "\x1f", "\r", "blank line", "no final line end", "x after the last line end")
LAYOUT_FAULTS = (
    "one block reordered",
    "one run in two blocks",
    "one run in two whole blocks",
    "one block a row short",
    "a row of the last block under another run id",
    "a third value",
    "an instance outside the index in every block",
    "an instance twice in block 1",
    "an instance twice in every block",
)


def _laid_out(data, layout: str, run_ids: list[str], ids: list[str]) -> list[list[str]]:
    """Prediction rows of every run for every instance, in the row layout named."""
    order = data.draw(st.permutations(ids))  # every block's instance order, not the label file's
    blocks = [[[r, i, data.draw(st.sampled_from(("yes", "no")))] for i in order] for r in run_ids]
    k = data.draw(st.integers(0, len(blocks) - 1))
    cut = data.draw(st.integers(1, len(order) - (layout == "one run in two blocks")))  # leaves no block empty
    if layout == "one block reordered":
        blocks[k] = [list(row) for row in data.draw(st.permutations(blocks[k]))]
    elif layout == "one run in two blocks":
        blocks.append(blocks[k][cut:])
        blocks[k] = blocks[k][:cut]
    elif layout == "one run in two whole blocks":
        blocks.append([[run_ids[k], i, v] for _, i, v in blocks[0]])
    elif layout == "one block a row short":
        del blocks[k][cut - 1]
    elif layout == "a row of the last block under another run id":
        blocks[-1][cut - 1][0] = "stray+"  # outside ID_CHARS, so no drawn run id
    elif layout == "a third value":
        blocks[k][cut - 1][2] = "maybe"
    elif layout == "an instance outside the index in every block":
        for block in blocks:
            block.insert(cut, [block[0][0], "ghost", "yes"])
    elif layout == "an instance twice in block 1":
        blocks[0].insert(cut, list(blocks[0][cut - 1]))
    elif layout == "an instance twice in every block":
        for block in blocks:
            block.insert(cut, list(block[cut - 1]))
    rows = [row for block in blocks for row in block]
    if layout == "shuffled":
        rows = [list(row) for row in data.draw(st.permutations(rows))]
    return rows


def _one_byte_off(data, text: str, eol: str) -> str:
    """`text` with one byte of NEAR_PLAIN added, or its final line end taken away."""
    kind = data.draw(st.sampled_from(NEAR_PLAIN))
    if kind == "no final line end":
        return text[: -len(eol)]
    if kind == "x after the last line end":
        return text + "x"
    if kind == "blank line":
        at = data.draw(st.sampled_from([k + 1 for k, c in enumerate(text) if c == "\n"]))
        return text[:at] + eol + text[at:]
    at = data.draw(st.integers(0, len(text) - 1))
    return text[:at] + kind + text[at:]


@settings(max_examples=150)
@given(data=st.data())
def test_plain_ingest_matches_row_oracle(data):
    """Plain files, run-major or shuffled, faulty ones and ones a byte away from plain: the row oracle's outcome."""
    _check_plain_ingest(data, data.draw(st.sampled_from(("run-major", "shuffled"))))


@pytest.mark.parametrize("layout", LAYOUT_FAULTS)
@settings(max_examples=25)
@given(data=st.data())
def test_plain_layout_faults_match_row_oracle(layout, data):
    """Each layout fault alone, in files of two or more runs and instances: the row oracle's outcome."""
    _check_plain_ingest(data, layout)


def _check_plain_ingest(data, layout: str) -> None:
    """Load the drawn files in `layout` and compare every outcome with the row oracle's.

    Run-major and shuffled files may also hold injected faults or a byte
    that makes them not plain; a file with one of LAYOUT_FAULTS holds
    nothing else, so the fault shows in the layout.
    """
    least = 1 if layout in ("run-major", "shuffled") else 2
    ident = st.text(ID_CHARS, min_size=1, max_size=20)
    ids = data.draw(st.lists(ident, min_size=least, max_size=6, unique=True))
    run_ids = data.draw(st.lists(ident, min_size=least, max_size=3, unique=True))
    label_rows = [[i, data.draw(st.sampled_from(("yes", "no")))] for i in ids]
    label_rows[-1][1] = "no" if label_rows[0][1] == "yes" else "yes"
    group_rows = [[i, data.draw(ident)] for i in ids]
    faults = data.draw(st.sampled_from((0, 0, 1, 1, 2))) if layout in ("run-major", "shuffled") else 0
    for rows in (label_rows, group_rows):
        if faults and data.draw(st.booleans()):
            rows.insert(data.draw(st.integers(0, len(rows))), list(data.draw(st.sampled_from(rows))))
    rows = _laid_out(data, layout, run_ids, ids)
    for _ in range(faults):
        _inject(data, rows, data.draw(st.sampled_from(FAULTS)), run_ids)
    eol = data.draw(st.sampled_from(("\n", "\r\n")))
    texts = {
        "labels.csv": csv_text(LABEL_HEADER, label_rows, eol),
        "groups.csv": csv_text(GROUP_HEADER, group_rows, eol),
        "preds.csv": csv_text(PREDICTION_HEADER, rows, eol),
    }
    near = data.draw(st.sampled_from((None,) + tuple(texts))) if layout in ("run-major", "shuffled") else None
    if near is not None:
        texts[near] = _one_byte_off(data, texts[near], eol)
    # 1, 2 and 5 bytes cut after every row; 16, 40 and 64 put 2-4 rows in most
    # chunks, so cuts fall inside blocks, at block ends and at the last row
    chunk = data.draw(st.sampled_from((1, 2, 5, 16, 40, 64, 1 << 18)))
    blocks, real_columns = [], plain.columns  # whether each run-major call reshaped its file

    def columns(data, header, run_major=False):
        got = real_columns(data, header, run_major)
        if run_major:
            blocks.append(got is not None and isinstance(got[0][1], slice))
        return got

    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(plain, "CHUNK", chunk), mock.patch.object(
        ingest, "_csv_reader", wraps=ingest._csv_reader
    ) as reader, mock.patch.object(plain, "columns", columns):
        tmp = Path(tmp)
        for name, text in texts.items():
            (tmp / name).write_bytes(text.encode("ascii"))
        labels, groups, preds = tmp / "labels.csv", tmp / "groups.csv", tmp / "preds.csv"
        outcomes = [_outcome(read_group_map, groups)]
        assert outcomes[-1] == _outcome(oracle_read_group_map, groups)
        loaded = _outcome(read_labels, labels, "yes")
        assert loaded == _outcome(oracle_read_labels, labels, "yes")
        value_map = {"no": 0, "yes": 1}
        outcomes += [loaded, _outcome(load_fairness_predictions, preds, value_map)]
        assert outcomes[-1] == _outcome(oracle_load_fairness_predictions, preds, value_map)
        if loaded[0] == "ok":
            label_vector, value_map = loaded[1]
            outcomes.append(_outcome(load_predictions, preds, label_vector, value_map))
            expected = _outcome(oracle_load_predictions, preds, label_vector, value_map)
            assert outcomes[-1] == expected and _as_written(outcomes[-1]) == _as_written(expected)
        if near is None and all(outcome[0] == "ok" for outcome in outcomes):
            assert reader.call_count == 0  # every file took the byte-level parse
        if layout == "run-major" and not faults and near != "preds.csv":
            assert blocks and all(blocks)  # and the predictions were reshaped


def oracle_keys(data: bytes, starts, lengths) -> list[list[int]]:
    """Each field's bytes, zero-padded to the longest field's whole words, read as little-endian words."""
    words = (max(lengths) + 7) // 8
    padded = [data[a : a + n].ljust(8 * words, b"\0") for a, n in zip(starts, lengths)]
    return [[int.from_bytes(field[8 * w : 8 * w + 8], "little") for w in range(words)] for field in padded]


@settings(max_examples=150)
@given(data=st.data())
def test_keys_match_a_bytes_oracle(data):
    """Fields of one to three words in rows of one to three columns, the last just before the chunk's line end."""
    width = data.draw(st.integers(1, 3))
    field = st.text(PLAIN_CHARS, min_size=1, max_size=24)
    rows = data.draw(st.lists(st.lists(field, min_size=width, max_size=width), min_size=1, max_size=6))
    eol = data.draw(st.sampled_from(("\n", "\r\n")))
    text = "".join(",".join(row) + eol for row in rows).encode("ascii")
    starts, at = [], 0
    for row in rows:
        for cell in row:
            starts.append(at)
            at += len(cell) + 1
        at += len(eol) - 1
    keys = plain._keys(np.frombuffer(text, dtype=np.uint8), width, len(eol))
    lengths = [len(cell) for row in rows for cell in row]
    assert [k.tolist() for k in keys] == [oracle_keys(text, starts[c::width], lengths[c::width]) for c in range(width)]


def test_run_major_ingest_holds_less_than_the_file_besides_its_bytes(tmp_path):
    # about 3.5 MB over more than a dozen chunks: each chunk's temporaries are
    # freed before the next is read, and only block 1's keys and the matrix
    # stay, so the traced peak beyond the bytes read stays below the file's size
    ids = [f"i{k:05d}" for k in range(2000)]
    bits = np.random.default_rng(7).integers(0, 2, (126, len(ids))).tolist()
    write(tmp_path / "labels.csv", "instance_id,label\n" + "".join(f"{i},{b}\n" for i, b in zip(ids, bits[0])))
    body = "".join(f"r{r:03d},{i},{b}\n" for r, row in enumerate(bits[1:]) for i, b in zip(ids, row))
    path = write(tmp_path / "preds.csv", "run_id,instance_id,prediction\n" + body)
    labels, value_map = read_labels(tmp_path / "labels.csv", "1")
    size = path.stat().st_size
    assert size > 12 * plain.CHUNK
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        runs = load_predictions(path, labels, value_map)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(runs) == 125 and peak - size < size


class TestPlainDispatch:
    """Only the bytes choose the parser: plain files never reach the csv module."""

    ROWS = [["r1", "a", "1"], ["r1", "b", "0"], ["r2", "a", "0"], ["r2", "b", "0"]]
    GROUPS = ["instance_id,group", "a,north", "b,south", "c,south"]

    @staticmethod
    def _near(kind: str, eol: str) -> str:
        """A group map one byte away from plain; valid unless it ends in a line without a comma."""
        lines = list(TestPlainDispatch.GROUPS)
        if kind == "no final line end":
            return eol.join(lines)
        if kind == "x after the last line end":
            return eol.join(lines) + eol + "x"
        if kind == "blank line":
            lines.insert(2, "")
        elif kind == "\r":
            lines[2] += "\r"  # a lone CR in a CRLF file, one CRLF among LFs
        else:
            lines[2] = lines[2].replace("uth", f"{kind}uth")
        return eol.join(lines) + eol

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    @pytest.mark.parametrize("kind", NEAR_PLAIN)
    def test_one_byte_off_plain_goes_to_the_reader(self, tmp_path, kind, eol):
        self._read_by_the_reader(tmp_path, self._near(kind, eol))

    def test_crlf_needs_a_cr_at_every_line_end(self, tmp_path):
        # as many CRs as line ends, but one line ends in LF alone
        lines = self.GROUPS
        self._read_by_the_reader(tmp_path, "\r\n".join(lines[:2]) + "\r\r\n" + "\n".join(lines[2:]) + "\r\n")

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_a_line_end_in_place_of_a_comma_goes_to_the_reader(self, tmp_path, eol):
        # every row's last delimiter is a line end, and the row count is whole
        got = self._read_by_the_reader(tmp_path, eol.join(["instance_id,group", "a", "north", "b,south", ""]))
        assert got == ("error", f"{tmp_path / 'groups.csv'}:2: expected 2 fields, got 1", 2)

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_header_and_an_unended_line_go_to_the_reader(self, tmp_path, eol):
        # no data row ends, so no delimiter follows the header
        got = self._read_by_the_reader(tmp_path, f"instance_id,group{eol}x")
        assert got == ("error", f"{tmp_path / 'groups.csv'}:2: expected 2 fields, got 1", 2)

    @staticmethod
    def _read_by_the_reader(tmp_path, text: str):
        """Read a group map: once by the reader if valid, once more by the rescan if not."""
        path = tmp_path / "groups.csv"
        path.write_bytes(text.encode("ascii"))
        with mock.patch.object(ingest, "_csv_reader", wraps=ingest._csv_reader) as reader:
            got = _outcome(read_group_map, path)
        assert reader.call_count == (1 if got[0] == "ok" else 2)
        assert got == _outcome(oracle_read_group_map, path)
        return got

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_an_unprintable_byte_stops_the_scan_at_its_chunk(self, tmp_path, eol):
        # the tab is in the first chunk of both files: the long file's other
        # chunks are never scanned, so both take as many byte counts
        counted = {}
        for name, rows in (("short", 1), ("long", 200)):
            lines = ["instance_id,group", "a\t,north"] + [f"b{k},south" for k in range(rows)]
            path = tmp_path / f"{name}.csv"
            path.write_bytes((eol.join(lines) + eol).encode("ascii"))
            with mock.patch.object(plain, "CHUNK", 8), mock.patch.object(
                ingest, "_csv_reader", wraps=ingest._csv_reader
            ) as reader, mock.patch.object(plain.np, "count_nonzero", wraps=np.count_nonzero) as counts:
                groups = read_group_map(path)
            assert reader.call_count == 1
            assert groups == oracle_read_group_map(path) and groups["a"] == "north" and len(groups) == rows + 1
            counted[name] = counts.call_count
        assert counted["long"] == counted["short"]

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_an_instance_sorted_file_leaves_the_run_major_pass_in_its_first_chunk(self, tmp_path, eol):
        # sorted by instance, then run, the file breaks the layout at its
        # fourth row, in the first of its many chunks: the run-major pass reads
        # no other, and the column pass reads them all, as the run-major copy's
        # one pass does
        rows = [[f"r{r}", f"i{k:03d}", str((r + k) % 2)] for r in range(3) for k in range(200)]
        (tmp_path / "labels.csv").write_bytes(csv_text(LABEL_HEADER, [row[1:] for row in rows[:200]], eol).encode())
        labels, value_map = read_labels(tmp_path / "labels.csv", "1")
        passes, real_chunks = {}, plain._chunks  # each pass's chunk count, per file

        def chunks(data, header):
            passes[name].append(0)
            for keys in real_chunks(data, header):
                passes[name][-1] += 1
                yield keys

        for name, body in (("major", rows), ("sorted", sorted(rows, key=lambda row: (row[1], row[0])))):
            path = tmp_path / f"{name}.csv"
            path.write_bytes(csv_text(PREDICTION_HEADER, body, eol).encode())
            passes[name] = []
            with mock.patch.object(plain, "CHUNK", 64), mock.patch.object(plain, "_chunks", chunks):
                assert load_predictions(path, labels, value_map) == oracle_load_predictions(path, labels, value_map)
        assert passes["major"][0] > 1 and passes["sorted"] == [1] + passes["major"]

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_plain_files_never_reach_the_reader(self, tmp_path, eol):
        files = {
            "labels.csv": csv_text(LABEL_HEADER, [["a", "1"], ["b", "0"]], eol),
            "groups.csv": csv_text(GROUP_HEADER, [["a", "north"], ["b", "south"]], eol),
            "preds.csv": csv_text(PREDICTION_HEADER, self.ROWS, eol),
        }
        for name, text in files.items():
            (tmp_path / name).write_bytes(text.encode("ascii"))
        with mock.patch.object(ingest, "_csv_reader", side_effect=AssertionError("csv module used")):
            labels, value_map = read_labels(tmp_path / "labels.csv", "1")
            runs = load_predictions(tmp_path / "preds.csv", labels, value_map)
            fairness = load_fairness_predictions(tmp_path / "preds.csv", value_map)
            groups = read_group_map(tmp_path / "groups.csv")
        assert (labels, value_map) == oracle_read_labels(tmp_path / "labels.csv", "1")
        assert runs == oracle_load_predictions(tmp_path / "preds.csv", labels, value_map)
        assert fairness == oracle_load_fairness_predictions(tmp_path / "preds.csv", value_map)
        assert groups == oracle_read_group_map(tmp_path / "groups.csv")

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_run_major_files_are_reshaped_without_a_column_sort(self, tmp_path, eol):
        # blocks list b before a, unlike the label file; the shuffled copy is
        # sorted by instance, then run, so only its columns can number it
        rows = [["r1", "b", "1"], ["r1", "a", "0"], ["r22", "b", "0"], ["r22", "a", "0"]]
        rows += [["r3", "b", "1"], ["r3", "a", "1"]]
        files = {
            "labels.csv": [["a", "1"], ["b", "0"]],
            "major.csv": rows,
            "shuffled.csv": sorted(rows, key=lambda row: (row[1], row[0])),
        }
        for name, body in files.items():
            header = LABEL_HEADER if name == "labels.csv" else PREDICTION_HEADER
            (tmp_path / name).write_bytes(csv_text(header, body, eol).encode("ascii"))
        labels, value_map = read_labels(tmp_path / "labels.csv", "1")
        major, shuffled = tmp_path / "major.csv", tmp_path / "shuffled.csv"
        with mock.patch.object(plain, "_coded", side_effect=AssertionError("a column was sorted")):
            runs = load_predictions(major, labels, value_map)
            fairness = load_fairness_predictions(major, value_map)
        with mock.patch.object(plain, "_coded", wraps=plain._coded) as coded:
            assert load_predictions(shuffled, labels, value_map) == runs
            shuffled_index, shuffled_fairness = load_fairness_predictions(shuffled, value_map)
        assert coded.call_count == 2
        assert runs == oracle_load_predictions(major, labels, value_map)
        assert fairness == oracle_load_fairness_predictions(major, value_map)
        index, vectors = fairness
        assert index.ids == ("b", "a") and shuffled_index.ids == ("a", "b")
        for run_id, vector in vectors.items():
            assert vector.values.tolist()[::-1] == shuffled_fairness[run_id].values.tolist()

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_zoo_files_are_plain(self, tmp_path, scenario):
        assert main(["zoo", "--scenario", scenario, "--out", str(tmp_path)]) == 0
        manifest = load_manifest(tmp_path / "manifest.txt")
        for path in tmp_path.glob("*.csv"):
            text = path.read_bytes()
            assert text.endswith(b"\r\n") and text.count(b"\r\n") == text.count(b"\n")
        with mock.patch.object(ingest, "_csv_reader", side_effect=AssertionError("csv module used")):
            labels, runs, _ = load_inputs(manifest)
        assert labels.index.size and runs
