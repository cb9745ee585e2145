from __future__ import annotations

import re
from collections import Counter
from pathlib import Path
from xml.dom import minidom

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    band_matrices,
    cell_fills,
    cell_rects,
    make_index,
    oracle_fairness_cells,
    pyramid_runs,
    run_from_bits,
    two_band_runs,
    whole_band,
)
from multimax.banding import BandingPolicy, partition
from multimax.core import LabelVector
from multimax.errors import AnalysisError
from multimax.fairness import analyse_band, band_matrix, unique_vector_counts
from multimax.profiles import (
    BAND_PALETTE,
    CELL_PX,
    FAVOURABLE_SHADE,
    MAX_WIDTH,
    UNFAVOURABLE_SHADE,
    _escape,
    _mix_towards_white,
    band_colour,
    fairness_profile,
    multiplicity_panel,
    prediction_fill,
    stability_profile,
)

DATA_DIR = Path(__file__).parent / "data"


@st.composite
def profile_bands(draw):
    """Band matrices over one index, each column random, constant or alternating.

    Bands may have a single member; max_instances may fall below the
    disputed count, so the drawn columns are then a seeded sample.
    """
    n = draw(st.integers(1, 10))
    idx = make_index(n)
    labels = LabelVector(idx, tuple(k % 2 for k in range(n)))
    matrices = []
    for b in range(draw(st.integers(1, 4))):
        rows = draw(st.integers(1, 6))
        columns = []
        for _ in range(n):
            kind = draw(st.sampled_from(("random", "constant", "alternating")))
            if kind == "random":
                columns.append(draw(st.lists(st.integers(0, 1), min_size=rows, max_size=rows)))
            else:
                first = draw(st.integers(0, 1))
                step = 1 if kind == "alternating" else 0
                columns.append([(first + step * r) % 2 for r in range(rows)])
        runs = [run_from_bits(f"b{b}r{r}", labels, bits) for r, bits in enumerate(zip(*columns))]
        matrices.append(band_matrix(whole_band(runs, label=f"band{b}"), runs))
    return matrices, draw(st.integers(1, n + 1)), draw(st.integers(0, 3))


def assert_well_formed(svg: str) -> None:
    minidom.parseString(svg)


class TestStyle:
    def test_defaults_are_valid(self):
        assert band_colour(0) == BAND_PALETTE[0]
        assert all(re.fullmatch(r"#[0-9a-f]{6}", colour) for colour in BAND_PALETTE)
        # the two outcomes must stay far apart to survive printing
        assert FAVOURABLE_SHADE - UNFAVOURABLE_SHADE >= 0.3
        assert CELL_PX == 14

    def test_palette_cycles_then_dashes(self):
        n = len(BAND_PALETTE)
        assert band_colour(n + 2) == BAND_PALETTE[2]

    def test_prediction_fills_differ(self):
        fav = prediction_fill(0, True)
        unf = prediction_fill(0, False)
        assert fav != unf
        assert fav == _mix_towards_white(BAND_PALETTE[0], FAVOURABLE_SHADE)
        assert unf == _mix_towards_white(BAND_PALETTE[0], UNFAVOURABLE_SHADE)

    def test_mix_towards_white(self):
        assert _mix_towards_white("#000000", 0.0) == "#ffffff"
        assert _mix_towards_white("#123456", 1.0) == "#123456"

    @given(st.text(st.sampled_from("&<>;amplt\"'") | st.characters()))
    def test_escape_matches_saxutils(self, text):
        from xml.sax.saxutils import escape

        assert _escape(text) == escape(text)


class TestStabilityProfile:
    @staticmethod
    def _render(top_n=8):
        _, runs, _ = pyramid_runs()
        banding = partition(runs, BandingPolicy(mode="strict"))
        return banding, runs, stability_profile(band_matrices(banding.bands[:top_n], runs))

    def test_segments_match_group_sizes(self):
        banding, runs, rendered = self._render()
        (band_entry,) = rendered.sidecar["bands"]
        assert band_entry["label"] == "93/100"
        assert band_entry["run_count"] == 36
        assert tuple(band_entry["segments"]) == unique_vector_counts(band_matrix(banding.top, runs))
        assert sum(band_entry["segments"]) == 36

    def test_render_is_byte_stable(self):
        _, _, first = self._render()
        _, _, again = self._render()
        assert first.svg == again.svg
        assert first.sidecar == again.sidecar

    def test_well_formed(self):
        _, _, rendered = self._render()
        assert_well_formed(rendered.svg)

    def test_top_n_slices(self):
        _, runs = two_band_runs()
        banding = partition(runs, BandingPolicy(mode="strict"))
        rendered = stability_profile(band_matrices(banding.bands[:2], runs))
        assert [b["label"] for b in rendered.sidecar["bands"]] == ["5/6", "2/3"]

    def test_validation(self):
        _, runs = two_band_runs()
        banding = partition(runs, BandingPolicy(mode="strict"))
        with pytest.raises(AnalysisError):
            stability_profile([])


class TestFairnessProfile:
    @staticmethod
    def _bands_and_runs():
        _, runs = two_band_runs()
        banding = partition(runs, BandingPolicy(mode="strict"))
        return banding.bands, runs

    def test_variants_conserve_column_multisets(self):
        bands, runs = self._bands_and_runs()
        faithful = fairness_profile(band_matrices(bands, runs), variant="faithful")
        summary = fairness_profile(band_matrices(bands, runs), variant="summary")

        def fills_by_column(rendered):
            columns = rendered.sidecar["columns"]
            xs = sorted({x for x, _, _ in cell_fills(rendered.svg)})
            assert len(xs) == len(columns)
            x_to_col = dict(zip(xs, columns))
            out: dict[str, Counter] = {c: Counter() for c in columns}
            for x, _, fill in cell_fills(rendered.svg):
                out[x_to_col[x]][fill] += 1
            return out

        assert fills_by_column(faithful) == fills_by_column(summary)

    def test_sidecar_counts_agree_between_variants(self):
        bands, runs = self._bands_and_runs()
        faithful = fairness_profile(band_matrices(bands, runs), variant="faithful")
        summary = fairness_profile(band_matrices(bands, runs), variant="summary")
        for f_band, s_band in zip(faithful.sidecar["bands"], summary.sidecar["bands"]):
            assert f_band["column_counts"] == s_band["column_counts"]

    def test_faithful_keeps_run_identity(self):
        bands, runs = self._bands_and_runs()
        faithful = fairness_profile(band_matrices(bands, runs), variant="faithful")
        summary = fairness_profile(band_matrices(bands, runs), variant="summary")
        first = faithful.sidecar["bands"][0]
        assert [row["run_id"] for row in first["rows"]] == list(first["members"])
        assert all(
            row["run_id"] is None for b in summary.sidecar["bands"] for row in b["rows"]
        )

    def test_summary_puts_disputed_columns_first(self):
        bands, runs = self._bands_and_runs()
        summary = fairness_profile(band_matrices(bands, runs), variant="summary")
        assert summary.sidecar["columns"][:3] == ["i0001", "i0002", "i0003"]
        faithful = fairness_profile(band_matrices(bands, runs), variant="faithful")
        assert faithful.sidecar["columns"] == [f"i{k:04d}" for k in range(6)]

    def test_summary_sorts_rows_within_each_column(self):
        bands, runs = self._bands_and_runs()
        summary = fairness_profile(band_matrices(bands, runs), variant="summary")
        cells = cell_fills(summary.svg)
        light = prediction_fill(0, True)
        dark = prediction_fill(0, False)
        first_band_rows = 2
        xs = sorted({x for x, _, _ in cells})
        for x in xs:
            column = sorted(
                (y, fill) for cx, y, fill in cells if cx == x and fill in (light, dark)
            )[:first_band_rows]
            seen_unfavourable = False
            for _, fill in column:
                if fill == dark:
                    seen_unfavourable = True
                else:
                    assert not seen_unfavourable  # favourable never below unfavourable

    def test_sampling_kicks_in_and_is_deterministic(self):
        idx = make_index(30)
        labels = LabelVector(idx, (1,) * 15 + (0,) * 15)
        base = [1] * 15 + [0] * 15
        flipped = [1 - b for b in base]
        runs = [
            run_from_bits("r0", labels, base),
            run_from_bits("r1", labels, flipped),  # disputes every instance
        ]
        banding = partition(runs, BandingPolicy.parse("tol:1"))
        assert banding.top.run_count == 2
        rendered = fairness_profile(band_matrices(banding.bands, runs), max_instances=5, seed=9)
        assert rendered.sidecar["sampled"] is True
        assert rendered.sidecar["disputable_union_size"] == 30
        assert len(rendered.sidecar["columns"]) == 5
        again = fairness_profile(band_matrices(banding.bands, runs), max_instances=5, seed=9)
        assert rendered.svg == again.svg
        assert "seeded sample" in rendered.svg

    def test_disputed_fill_before_peaceful_when_room(self):
        bands, runs = self._bands_and_runs()
        rendered = fairness_profile(band_matrices(bands, runs), max_instances=4)
        assert rendered.sidecar["sampled"] is False
        assert set(rendered.sidecar["columns"]) >= {"i0001", "i0002", "i0003"}
        assert len(rendered.sidecar["columns"]) == 4

    @given(profile_bands(), st.sampled_from(("faithful", "summary")))
    def test_run_rects_cover_exactly_the_oracle_cells(self, drawn, variant):
        matrices, max_instances, seed = drawn
        rendered = fairness_profile(matrices, variant=variant, max_instances=max_instances, seed=seed)
        expected = oracle_fairness_cells(matrices, variant, rendered.sidecar["columns"])
        assert sorted(cell_fills(rendered.svg)) == sorted(expected)
        # nothing else is drawn: one swatch per band, then the two outcome swatches
        rects = cell_rects(rendered.svg)
        assert rendered.svg.count("<rect ") == len(rects) + len(matrices) + 2

        # a cell opens a vertical run unless the cell above it has its fill
        cells = set(expected)
        runs = sum((x, y - CELL_PX, fill) not in cells for x, y, fill in expected)
        assert len(rects) == runs
        if variant == "summary":
            band_tops, top = [], 48
            for bm in matrices:
                band_tops.append(top)
                top += len(bm.member_ids) * CELL_PX + 8
            per_block = Counter((x, sum(y >= t for t in band_tops)) for x, y, _, _ in rects)
            assert max(per_block.values()) <= 2

    def test_validation(self):
        bands, runs = self._bands_and_runs()
        with pytest.raises(AnalysisError):
            fairness_profile(band_matrices(bands, runs), variant="compact")
        with pytest.raises(AnalysisError):
            fairness_profile(band_matrices(bands, runs), max_instances=0)
        with pytest.raises(AnalysisError):
            fairness_profile([])

    def test_well_formed_and_stable(self):
        bands, runs = self._bands_and_runs()
        rendered = fairness_profile(band_matrices(bands, runs))
        assert_well_formed(rendered.svg)
        assert rendered.svg == fairness_profile(band_matrices(bands, runs)).svg

    def test_matches_golden_render(self):
        bands, runs = self._bands_and_runs()
        rendered = fairness_profile(band_matrices(bands, runs), variant="summary", seed=0)
        golden = (DATA_DIR / "fairness_profile_golden.svg").read_text()
        assert rendered.svg == golden

    def test_oversize_canvas_shrinks_display_only(self):
        idx = make_index(150)
        labels = LabelVector(idx, (1,) * 75 + (0,) * 75)
        runs = [run_from_bits("solo", labels, labels.values)]
        banding = partition(runs, BandingPolicy(mode="strict"))
        rendered = fairness_profile(band_matrices(banding.bands, runs))
        header = rendered.svg.splitlines()[0]
        match = re.search(r'viewBox="0 0 ([\d.]+) [\d.]+" width="([\d.]+)"', header)
        assert match is not None
        layout_w, display_w = float(match.group(1)), float(match.group(2))
        assert layout_w > MAX_WIDTH
        assert display_w <= MAX_WIDTH


class TestMultiplicityPanel:
    @staticmethod
    def _panel():
        labels, runs = two_band_runs()
        banding = partition(runs, BandingPolicy(mode="strict"))
        return [analyse_band(b, runs, labels) for b in banding]

    def test_markers(self):
        rendered = multiplicity_panel(self._panel())
        assert rendered.sidecar["markers"] == {
            "5/6": "violin",
            "2/3": "violin",
            "1/2": "single-run",
            "1/6": "all-zero",
        }

    def test_pooled_fraction_counts(self):
        rendered = multiplicity_panel(self._panel())
        pooled = rendered.sidecar["pooled_fraction_counts"]
        assert pooled["5/6"] == {"2/6": 1}
        assert pooled["2/3"] == {"2/6": 1}
        assert pooled["1/6"] == {"0/6": 1}
        assert pooled["1/2"] == {}

    def test_violin_widths_follow_pair_counts(self):
        idx = make_index(4)
        labels = LabelVector(idx, (1, 1, 0, 0))
        bits = {"a": (0, 0, 0, 0), "b": (0, 0, 0, 0), "c": (1, 0, 0, 0), "d": (1, 1, 0, 0)}
        runs = [run_from_bits(run_id, labels, row) for run_id, row in bits.items()]
        band = whole_band(runs)
        analysis = analyse_band(band, runs, labels)
        assert analysis.discrepancy.pair_counts == {0: 1, 1: 3, 2: 2}
        rendered = multiplicity_panel([analysis])
        assert rendered.sidecar["markers"] == {band.label: "violin"}
        rects = re.findall(r'<rect [^>]*width="([\d.]+)" height="[\d.]+" fill="([^"]+)"', rendered.svg)
        # violin bins bottom-up (0, 1/4, 2/4), then the run-count bar
        widths = [float(w) for w, fill in rects if fill == band_colour(0)][:-1]
        assert [w / max(widths) for w in widths] == pytest.approx([1 / 3, 1, 2 / 3], abs=0.01)

    def test_fraction_on_a_bin_edge_opens_its_bin(self):
        # n = 11, K/N = 9/11: 3/11 and 6/11 lie exactly on the lower edges of
        # bins 4 and 8, which float edges would round into bins 3 and 7
        idx = make_index(11)
        labels = LabelVector(idx, (1,) * 6 + (0,) * 5)
        ones = {"a": 0, "b": 0, "c": 9, "d": 6}
        runs = [run_from_bits(r, labels, (1,) * m + (0,) * (11 - m)) for r, m in ones.items()]
        analysis = analyse_band(whole_band(runs), runs, labels)
        assert analysis.discrepancy.pair_counts == {0: 1, 3: 1, 6: 2, 9: 2}
        rendered = multiplicity_panel([analysis])
        rects = re.findall(r'<rect [^>]*y="([\d.]+)" [^>]*fill="([^"]+)"', rendered.svg)
        # violin bins bottom-up, then the run-count bar
        ys = [float(y) for y, fill in rects if fill == band_colour(0)][:-1]
        bottom, step = ys[0], (ys[0] - ys[-1]) / 11
        assert [round((bottom - y) / step) for y in ys] == [0, 4, 8, 11]

    def test_fold_sidecar_numbers(self):
        rendered = multiplicity_panel(self._panel())
        (fold_entry,) = rendered.sidecar["folds"]
        assert fold_entry["fold_id"] == "all"
        assert fold_entry["run_counts"] == {"5/6": 2, "2/3": 2, "1/2": 1, "1/6": 2}
        assert fold_entry["pair_counts"] == {"5/6": 1, "2/3": 1, "1/2": 0, "1/6": 1}
        assert fold_entry["ambiguity"]["5/6"] == "2/6"

    def test_validation(self):
        with pytest.raises(AnalysisError):
            multiplicity_panel([])

    def test_well_formed_and_stable(self):
        rendered = multiplicity_panel(self._panel())
        assert_well_formed(rendered.svg)
        assert rendered.svg == multiplicity_panel(self._panel()).svg
