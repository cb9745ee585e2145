from __future__ import annotations

import json
import os
import stat
from collections import Counter
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import two_band_runs, write_labels_csv, write_manifest, write_predictions_csv
from multimax import ingest
from multimax.banding import BandingPolicy
from multimax.core import decimal_display
from multimax.errors import InvariantViolation
from multimax.fairness import BandMatrix
from multimax.ingest import AuditManifest
from multimax.report import (
    audit,
    compare_policies,
    default_comparison_policies,
    emit_json,
    run_audit,
    validate_payload,
)


def write_fixture_inputs(tmp_path, band="strict", extra_entries=None):
    """Dump the two-band fixture as audit input files; returns manifest path."""
    labels, runs = two_band_runs()
    write_labels_csv(tmp_path / "labels.csv", labels)
    write_predictions_csv(tmp_path / "predictions.csv", runs)
    entries = {
        "labels": "labels.csv",
        "predictions": "predictions.csv",
        "favourable_label": "1",
        "band": band,
    }
    if extra_entries:
        entries.update(extra_entries)
    write_manifest(tmp_path / "manifest.txt", entries)
    return tmp_path / "manifest.txt"


def fixture_manifest(tmp_path, **overrides) -> AuditManifest:
    labels, runs = two_band_runs()
    write_labels_csv(tmp_path / "labels.csv", labels)
    write_predictions_csv(tmp_path / "predictions.csv", runs)
    kwargs = dict(
        labels_path=tmp_path / "labels.csv",
        predictions_path=tmp_path / "predictions.csv",
        favourable_label="1",
        policy=BandingPolicy(mode="strict"),
    )
    kwargs.update(overrides)
    return AuditManifest(**kwargs)


def assert_coherent_numbers(node):
    """Every {'ratio', 'decimal'} pair in the payload must agree exactly."""
    if isinstance(node, dict):
        if set(node) == {"ratio", "decimal"}:
            ratio, decimal = node["ratio"], node["decimal"]
            negative = ratio.startswith("-")
            num, den = (int(p) for p in ratio.lstrip("-").split("/"))
            expected = decimal_display(num, den)
            if negative and num != 0:
                expected = "-" + expected
            assert decimal == expected, f"{ratio} rendered as {decimal}"
        else:
            for value in node.values():
                assert_coherent_numbers(value)
    elif isinstance(node, list):
        for value in node:
            assert_coherent_numbers(value)


class TestRunAudit:
    def test_outcome_structure(self, tmp_path):
        outcome = run_audit(fixture_manifest(tmp_path))
        assert [b.label for b in outcome.banding] == ["5/6", "2/3", "1/2", "1/6"]
        assert outcome.payload["counts"] == {
            "runs": 7,
            "validation_instances": 6,
            "fairness_instances": 6,
        }
        assert outcome.payload["baseline_accuracy"] == {"ratio": "3/6", "decimal": "0.5000"}
        assert outcome.payload["is_partition"] is True
        assert outcome.payload["policy"] == "strict"
        assert set(outcome.renders) == {
            "stability_profile",
            "fairness_profile",
            "multiplicity_panel",
        }

    def test_every_reported_number_is_ratio_and_decimal(self, tmp_path):
        outcome = run_audit(fixture_manifest(tmp_path))
        assert_coherent_numbers(outcome.payload)

    def test_payload_survives_canonical_json(self, tmp_path):
        outcome = run_audit(fixture_manifest(tmp_path))
        text = emit_json(outcome.payload)
        assert text.endswith("\n")
        assert json.loads(text) == outcome.payload

    def test_band_payload_details(self, tmp_path):
        outcome = run_audit(fixture_manifest(tmp_path))
        top = outcome.payload["bands"][0]
        assert top["label"] == "5/6"
        assert top["run_ids"] == ["a1", "a2"]
        assert top["ambiguity"] == {"ratio": "2/6", "decimal": "0.3333"}
        assert top["disputable"]["instance_ids"] == ["i0002", "i0003"]
        assert top["disputable"]["votes"] == {"i0002": [1, 1], "i0003": [1, 1]}
        assert top["discrepancy"]["fraction_counts"] == {"2/6": 1}
        assert top["unique_vector_counts"] == [1, 1]
        assert top["fair_ensemble"]["recall"] == {"ratio": "3/3", "decimal": "1.0000"}
        assert top["refinement"] is None
        assert top["group_ambiguity"] is None

    def test_refinement_follows_tie_break(self, tmp_path):
        manifest = fixture_manifest(
            tmp_path, policy=BandingPolicy(mode="strict", tie_break=("specificity",))
        )
        outcome = run_audit(manifest)
        top = outcome.payload["bands"][0]
        assert top["refinement"] is not None
        labels = [sub["label"] for sub in top["refinement"]]
        assert labels == ["5/6 [specificity=1.0000]", "5/6 [specificity=0.6667]"]

    def test_group_ambiguity_from_map(self, tmp_path):
        rows = ["instance_id,group"]
        rows += [f"i{k:04d},left" for k in range(3)]
        rows += [f"i{k:04d},right" for k in range(3, 6)]
        (tmp_path / "groups.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        manifest = fixture_manifest(tmp_path, group_map_path=tmp_path / "groups.csv")
        outcome = run_audit(manifest)
        top = outcome.payload["bands"][0]
        assert top["group_ambiguity"] == {
            "left": {"ratio": "1/3", "decimal": "0.3333"},
            "right": {"ratio": "1/3", "decimal": "0.3333"},
        }

    def test_seed_override_wins_and_is_recorded(self, tmp_path):
        manifest = fixture_manifest(tmp_path, seed=4)
        assert run_audit(manifest).payload["seed"] == 4
        assert run_audit(manifest, seed_override=9).payload["seed"] == 9

    def test_provenance_echoed(self, tmp_path):
        manifest = fixture_manifest(tmp_path, provenance={"family": "linear", "z": "last"})
        payload = run_audit(manifest).payload
        assert payload["provenance"] == {"family": "linear", "z": "last"}


def test_audit_finds_each_band_groups_once(tmp_path, monkeypatch):
    """unique_vector_counts and stability_profile share each band matrix's groups."""
    found = Counter()
    compute = BandMatrix.vector_groups.func

    def counted(bm):
        found[id(bm)] += 1
        return compute(bm)

    groups = cached_property(counted)
    groups.__set_name__(BandMatrix, "vector_groups")
    monkeypatch.setattr(BandMatrix, "vector_groups", groups)
    outcome = run_audit(fixture_manifest(tmp_path))
    matrices = [analysis.matrix for analysis in outcome.analyses]
    assert found == Counter(id(bm) for bm in matrices)
    segments = [band["segments"] for band in outcome.renders["stability_profile"].sidecar["bands"]]
    assert segments == [list(map(len, bm.vector_groups)) for bm in matrices]


class TestComparison:
    def test_default_ladder_dedupes(self):
        rungs = default_comparison_policies(BandingPolicy(mode="strict"))
        assert [p.describe() for p in rungs] == ["strict", "round:3", "round:2"]
        rungs = default_comparison_policies(BandingPolicy.parse("round:2"))
        assert [p.describe() for p in rungs] == ["round:2", "strict", "round:3"]
        rungs = default_comparison_policies(BandingPolicy.parse("tol:1/100"))
        assert [p.describe() for p in rungs] == ["tol:1/100", "strict", "round:3", "round:2"]

    def test_rows_match_partitions(self, tmp_path):
        outcome = run_audit(fixture_manifest(tmp_path))
        rows = compare_policies(outcome.runs, default_comparison_policies(BandingPolicy(mode="strict")))
        strict_row = rows[0]
        assert strict_row.policy == "strict"
        assert strict_row.band_count == 4
        assert strict_row.top_band_label == "5/6"
        assert strict_row.top_band_run_count == 2

    def test_comparison_lands_in_payload(self, tmp_path):
        payload = run_audit(fixture_manifest(tmp_path)).payload
        assert [row["policy"] for row in payload["policy_comparison"]] == [
            "strict",
            "round:3",
            "round:2",
        ]


class TestValidatePayload:
    def test_missing_key(self):
        with pytest.raises(InvariantViolation, match="required key"):
            validate_payload({"format_version": "1"})

    def test_wrong_version(self, tmp_path):
        payload = dict(run_audit(fixture_manifest(tmp_path)).payload)
        payload["format_version"] = "99"
        with pytest.raises(InvariantViolation, match="format_version"):
            validate_payload(payload)

    def test_empty_bands(self, tmp_path):
        payload = dict(run_audit(fixture_manifest(tmp_path)).payload)
        payload["bands"] = []
        with pytest.raises(InvariantViolation, match="no bands"):
            validate_payload(payload)


class TestEmitJson:
    @given(
        st.recursive(
            st.none()
            | st.booleans()
            | st.integers()
            | st.floats()
            | st.text(st.sampled_from("a\u00e9\u2603\U0001f600\x00\x1f\x7f\"\\/\n\t") | st.characters()),
            lambda inner: st.lists(inner)
            | st.lists(inner).map(tuple)
            | st.dictionaries(st.text(max_size=4), inner),
            max_leaves=40,
        )
    )
    def test_emit_json_is_indented_json_dumps(self, tree):
        assert emit_json(tree) == json.dumps(tree, indent=2, sort_keys=True, ensure_ascii=False) + "\n"

    @pytest.mark.parametrize(
        "value", [{1: "a"}, {None: 1}, [{"a": {2.5: 1}}], {"a": b"x"}, [{1, 2}], object(), [np.float64(0.5)]]
    )
    def test_emit_json_refuses_what_is_not_json(self, value):
        with pytest.raises(TypeError):
            emit_json(value)


class TestAuditFiles:
    def test_writes_the_full_artefact_set(self, tmp_path):
        manifest_path = write_fixture_inputs(tmp_path)
        outcome, written = audit(manifest_path, tmp_path / "out")
        expected = {
            "report",
            "stability_profile",
            "stability_profile.sidecar",
            "fairness_profile",
            "fairness_profile.sidecar",
            "multiplicity_panel",
            "multiplicity_panel.sidecar",
        }
        assert set(written) == expected
        for path in written.values():
            assert path.exists() and path.stat().st_size > 0
        report = json.loads(written["report"].read_text())
        assert report == outcome.payload

    def test_repeated_audits_are_byte_identical(self, tmp_path):
        manifest_path = write_fixture_inputs(tmp_path)
        _, first = audit(manifest_path, tmp_path / "out1")
        _, again = audit(manifest_path, tmp_path / "out2")
        for key in first:
            assert first[key].read_bytes() == again[key].read_bytes()

    def test_sidecars_are_canonical_json(self, tmp_path):
        manifest_path = write_fixture_inputs(tmp_path)
        _, written = audit(manifest_path, tmp_path / "out")
        sidecar = written["fairness_profile.sidecar"].read_text()
        assert sidecar == emit_json(json.loads(sidecar))

    def test_failed_rename_keeps_the_old_report(self, tmp_path, monkeypatch):
        manifest_path = write_fixture_inputs(tmp_path)
        out = tmp_path / "out"
        _, written = audit(manifest_path, out)
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        (tmp_path / "plain.txt").write_text("x", encoding="utf-8")
        assert stat.S_IMODE(written["report"].stat().st_mode) == stat.S_IMODE(
            (tmp_path / "plain.txt").stat().st_mode
        )

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            audit(manifest_path, out, seed_override=99)
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_failed_third_write_keeps_every_old_artefact(self, tmp_path, monkeypatch):
        manifest_path = write_fixture_inputs(tmp_path)
        out = tmp_path / "out"
        audit(manifest_path, out)
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        opened = []

        def fail_third(path, mode="r", **kwargs):
            opened.append(path)
            if len(opened) == 3:
                raise OSError("disk full")
            return open(path, mode, **kwargs)

        # the module global shadows the builtin for ingest's writes only
        monkeypatch.setattr(ingest, "open", fail_third, raising=False)
        with pytest.raises(OSError, match="disk full"):
            audit(manifest_path, out, seed_override=99)
        assert len(opened) == 3
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before
        assert not list(out.glob("*.tmp")) and not list(out.glob(".*.tmp"))
