"""Deterministic SVG views of band structure and disagreement.

Three renderers:

  stability_profile    per band, a pyramid of identical-prediction groups
  fairness_profile     per band and instance, every member's prediction as a
                       coloured cell (faithful row order or sorted summary)
  multiplicity_panel   an ambiguity curve, discrepancy violins and run counts,
                       sharing one band axis

Rendering is pure string building over already-computed numbers: the same
inputs give byte-identical SVG, so outputs are diffable and golden-file
testable.  Every renderer returns the SVG together with a JSON-ready sidecar
holding the plotted numbers, because pixels are not an API.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import InstanceIndex
from .errors import AlignmentError, AnalysisError
from .fairness import BandAnalysis, BandMatrix, _hash_rank, prediction_vector_groups, vote_pairs

# colour-blind-friendly cycle, repeated past its 12 colours
BAND_PALETTE = (
    "#0173b2",
    "#de8f05",
    "#029e73",
    "#d55e00",
    "#cc78bc",
    "#ca9161",
    "#fbafe4",
    "#949494",
    "#ece133",
    "#56b4e9",
    "#b2182b",
    "#2166ac",
)
# mix weights towards white for the two prediction cells; they stay well apart
# so the two outcomes survive both printing and mild colour-vision loss
FAVOURABLE_SHADE = 0.95
UNFAVOURABLE_SHADE = 0.30
CELL_PX = 14
FONT_PX = 11
# the display size shrinks to fit this canvas; the viewBox keeps the layout
MAX_WIDTH = 1600
MAX_HEIGHT = 1200


def _escape(text: str) -> str:
    """xml.sax.saxutils.escape without its import, which loads urllib and http."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def band_colour(position: int) -> str:
    return BAND_PALETTE[position % len(BAND_PALETTE)]


def prediction_fill(position: int, favourable: bool) -> str:
    weight = FAVOURABLE_SHADE if favourable else UNFAVOURABLE_SHADE
    return _mix_towards_white(band_colour(position), weight)


def _mix_towards_white(colour: str, weight: float) -> str:
    channels = [int(colour[i : i + 2], 16) for i in (1, 3, 5)]
    mixed = [round(255 - weight * (255 - c)) for c in channels]
    return "#" + "".join(f"{c:02x}" for c in mixed)


def _fmt(value: float) -> str:
    # fixed two decimals keeps coordinates byte-stable across platforms
    return f"{float(value):.2f}"


class _SvgDoc:
    """Accumulates SVG elements; geometry decided by the caller."""

    def __init__(self) -> None:
        self.elements: list[str] = []

    def rect(
        self,
        x: float,
        y: float,
        w: float,
        h: float,
        fill: str,
        stroke: str | None = None,
        extra: str = "",
    ) -> None:
        attrs = f'x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" height="{_fmt(h)}" fill="{fill}"'
        if stroke is not None:
            attrs += f' stroke="{stroke}" stroke-width="1"'
        if extra:
            attrs += " " + extra
        self.elements.append(f"<rect {attrs}/>")

    def line(self, x1: float, y1: float, x2: float, y2: float, stroke: str = "#444") -> None:
        self.elements.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="1"/>'
        )

    def polyline(self, points: Sequence[tuple[float, float]], stroke: str) -> None:
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
        self.elements.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}" stroke-width="1.5"/>'
        )

    def circle(self, cx: float, cy: float, r: float, fill: str) -> None:
        self.elements.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" fill="{fill}"/>')

    def text(
        self,
        x: float,
        y: float,
        content: str,
        size: int,
        anchor: str = "start",
        fill: str = "#222222",
    ) -> None:
        self.elements.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" '
            f'text-anchor="{anchor}" fill="{fill}">{_escape(content)}</text>'
        )

    def render(self, width: float, height: float) -> str:
        # the viewBox carries layout coordinates; width/height shrink the
        # display size when a profile outgrows the canvas
        scale = min(1.0, MAX_WIDTH / width, MAX_HEIGHT / height)
        header = (
            '<svg xmlns="http://www.w3.org/2000/svg" '
            f'viewBox="0 0 {_fmt(width)} {_fmt(height)}" '
            f'width="{_fmt(width * scale)}" height="{_fmt(height * scale)}" '
            'font-family="sans-serif">'
        )
        body = "\n".join(self.elements)
        return f"{header}\n{body}\n</svg>\n"


@dataclass(frozen=True)
class RenderedSvg:
    """An SVG document plus the JSON-ready numbers it was drawn from."""

    svg: str
    sidecar: dict


def stability_profile(matrices: Sequence[BandMatrix]) -> RenderedSvg:
    """One pyramid per band: its identical fairness predictions, largest at the base.

    Segment widths share a single per-run scale across bands, so a band of
    36 runs visibly dwarfs a band of 3 and equal-width segments mean equal
    multiplicity wherever they appear.
    """
    if not matrices:
        raise AnalysisError("no bands to draw")
    shown = [bm.band for bm in matrices]
    counts_per_band = [[len(group) for group in prediction_vector_groups(bm)] for bm in matrices]
    max_count = max(c for counts in counts_per_band for c in counts)
    max_segments = max(len(counts) for counts in counts_per_band)

    col_inner = CELL_PX * 8
    col_gap = 24
    seg_h = CELL_PX + 2
    margin_left = 20
    margin_top = 48
    label_h = 2 * (FONT_PX + 4)
    pyramid_h = max_segments * seg_h
    width = margin_left + len(shown) * (col_inner + col_gap) + margin_left
    height = margin_top + pyramid_h + label_h + 16
    unit = col_inner / max_count

    doc = _SvgDoc()
    doc.text(margin_left, 24, "stability profile: identical-prediction groups per band", FONT_PX + 3)
    base_y = margin_top + pyramid_h
    sidecar_bands = []
    shades = (FAVOURABLE_SHADE, (FAVOURABLE_SHADE + UNFAVOURABLE_SHADE) / 2)  # alternating up each pyramid
    for pos, (band, counts) in enumerate(zip(shown, counts_per_band)):
        cx = margin_left + pos * (col_inner + col_gap) + col_inner / 2
        fills = [_mix_towards_white(band_colour(pos), shade) for shade in shades]
        for level, count in enumerate(reversed(counts)):
            # widest group sits at the bottom; equal widths stack upwards
            w = count * unit
            x = cx - w / 2
            y = base_y - (level + 1) * seg_h
            doc.rect(x, y, w, seg_h - 1, fills[level % 2], stroke=band_colour(pos))
            doc.text(cx, y + seg_h - 4, str(count), FONT_PX - 1, anchor="middle")
        doc.line(cx - col_inner / 2, base_y, cx + col_inner / 2, base_y, stroke="#888888")
        doc.text(cx, base_y + FONT_PX + 4, band.label, FONT_PX, anchor="middle")
        doc.text(
            cx,
            base_y + 2 * (FONT_PX + 4),
            f"{band.run_count} runs / {len(counts)} vectors",
            FONT_PX - 1,
            anchor="middle",
        )
        sidecar_bands.append(
            {
                "label": band.label,
                "epsilon": str(band.epsilon),
                "run_count": band.run_count,
                "segments": sorted(counts, reverse=True),
            }
        )
    sidecar = {
        "kind": "stability_profile",
        "prediction_set": "fairness",
        "bands": sidecar_bands,
    }
    return RenderedSvg(svg=doc.render(width, height), sidecar=sidecar)


def _select_columns(
    index: InstanceIndex,
    disputable_union: list[str],
    max_instances: int,
    seed: int,
) -> tuple[list[str], bool]:
    """Pick which instance columns to draw, in index order; True means sampling kicked in."""
    if index.size <= max_instances:
        return list(index.ids), False
    if len(disputable_union) > max_instances:
        chosen = sorted(disputable_union, key=lambda i: _hash_rank(seed, i))[:max_instances]
        return sorted(chosen, key=index.position), True
    disputed = set(disputable_union)
    rest = [i for i in index.ids if i not in disputed][: max_instances - len(disputable_union)]
    return sorted(disputable_union + rest, key=index.position), False


def fairness_profile(
    matrices: Sequence[BandMatrix],
    variant: str = "summary",
    max_instances: int = 250,
    seed: int = 0,
) -> RenderedSvg:
    """Per-instance predictions of every member of every band, as cell rows.

    The faithful variant keeps members in run-id order, so each row is a real
    model.  The summary variant sorts every column within each band block
    (favourable on top), which surrenders row identity but makes the vote
    split legible; per-(instance, band) prediction multisets are identical
    between the two variants by construction.  A vertical run of equal cells
    is one rect, so a summary column is at most two: favourable, unfavourable.

    When the fairness index outgrows max_instances, disputed columns win
    seats first; if even those overflow, a deterministic seeded sample of
    them is drawn and flagged in the legend and sidecar.
    """
    if variant not in ("faithful", "summary"):
        raise AnalysisError(f"unknown fairness profile variant {variant!r}")
    if max_instances < 1:
        raise AnalysisError("max_instances must be at least 1")
    if not matrices:
        raise AnalysisError("no bands to draw")
    index = matrices[0].fairness_index
    disputed_any = np.zeros(index.size, dtype=bool)
    for bm in matrices:
        if bm.fairness_index != index:
            raise AlignmentError(f"band {bm.label!r} uses a different fairness index")
        disputed_any |= bm.disputed
    disputable_union = [index.ids[pos] for pos in np.flatnonzero(disputed_any).tolist()]

    columns, sampled = _select_columns(index, disputable_union, max_instances, seed)
    if variant == "summary":
        disputed_set = set(disputable_union)
        columns = [c for c in columns if c in disputed_set] + [
            c for c in columns if c not in disputed_set
        ]
    col_pos = [index.position(c) for c in columns]

    cell = CELL_PX
    band_gap = 8
    margin_left = 140
    margin_top = 48
    legend_h = (FONT_PX + 6) * (len(matrices) + 2)
    total_rows = sum(len(bm.member_ids) for bm in matrices)
    width = margin_left + len(columns) * cell + 30
    height = margin_top + total_rows * cell + band_gap * len(matrices) + legend_h + 30

    doc = _SvgDoc()
    title = f"fairness profile ({variant}): member predictions per instance"
    doc.text(20, 24, title, FONT_PX + 3)
    sidecar_bands = []
    y = margin_top
    for pos, bm in enumerate(matrices):
        block = bm.fairness[:, col_pos]
        if variant == "summary":
            block = np.sort(block, axis=0)[::-1]
        fills = (prediction_fill(pos, False), prediction_fill(pos, True))
        # one rect per vertical run of equal cells, column by column; every
        # column opens a run on row 0, so each run ends where the next begins
        n_rows = block.shape[0]
        starts = np.ones(block.shape, dtype=bool)
        starts[1:] = block[1:] != block[:-1]
        cols, rows = np.nonzero(starts.T)
        lengths = np.diff(cols * n_rows + rows, append=block.size)
        for c, r, k, value in zip(cols.tolist(), rows.tolist(), lengths.tolist(), block[rows, cols].tolist()):
            doc.rect(margin_left + c * cell, y + r * cell, cell - 1, k * cell - 1, fills[value])
        doc.text(
            margin_left - 8,
            y + (n_rows * cell) / 2 + FONT_PX / 2,
            bm.label,
            FONT_PX,
            anchor="end",
            fill=band_colour(pos),
        )
        favourable = block.sum(axis=0, dtype=np.int64).tolist()
        # summary rows, and columns with equal counts, share one object each
        rows = [{"run_id": r} for r in bm.member_ids] if variant == "faithful" else [{"run_id": None}] * n_rows
        sidecar_bands.append(
            {
                "label": bm.label,
                "members": list(bm.member_ids),
                "rows": rows,
                "column_counts": dict(zip(columns, vote_pairs(favourable, n_rows))),
            }
        )
        y += n_rows * cell + band_gap

    legend_y = y + FONT_PX + 6
    doc.text(20, legend_y, "bands:", FONT_PX)
    for pos, bm in enumerate(matrices):
        ly = legend_y + (pos + 1) * (FONT_PX + 6)
        doc.rect(20, ly - FONT_PX + 2, FONT_PX, FONT_PX, band_colour(pos))
        doc.text(20 + FONT_PX + 6, ly, bm.label, FONT_PX)
    note_y = legend_y + (len(matrices) + 1) * (FONT_PX + 6)
    shade_x = 20
    doc.rect(shade_x, note_y - FONT_PX + 2, FONT_PX, FONT_PX, prediction_fill(0, True))
    doc.text(shade_x + FONT_PX + 6, note_y, "favourable", FONT_PX)
    shade_x += 110
    doc.rect(shade_x, note_y - FONT_PX + 2, FONT_PX, FONT_PX, prediction_fill(0, False))
    doc.text(shade_x + FONT_PX + 6, note_y, "unfavourable", FONT_PX)
    if sampled:
        doc.text(
            shade_x + 140,
            note_y,
            f"columns: seeded sample of {len(columns)} disputed instances (seed {seed})",
            FONT_PX,
        )

    sidecar = {
        "kind": "fairness_profile",
        "variant": variant,
        "columns": columns,
        "sampled": sampled,
        "seed": seed,
        "disputable_union_size": len(disputable_union),
        "bands": sidecar_bands,
    }
    return RenderedSvg(svg=doc.render(width, height), sidecar=sidecar)


def multiplicity_panel(analyses: Sequence[BandAnalysis]) -> RenderedSvg:
    """Three stacked panels over one band axis: ambiguity, discrepancy, counts.

    Discrepancy draws each band's pairwise fractions as a mirrored
    histogram, binned in integers; a single-run band draws an x marker (no
    pairs exist), and a band whose pairs all agree draws a flat dash at
    zero.  Run-count bars use a log scale.  The sidecar keeps the layout of a
    one-fold panel: the per-band numbers sit in one fold, "all".
    """
    if not analyses:
        raise AnalysisError("no bands to draw")
    band_order = [a.band.label for a in analyses]

    col_w = CELL_PX * 5
    margin_left = 70
    margin_top = 40
    panel_h = 130
    panel_gap = 34
    width = margin_left + len(band_order) * col_w + 30
    height = margin_top + 3 * panel_h + 2 * panel_gap + 60

    def band_x(i: int) -> float:
        return margin_left + i * col_w + col_w / 2

    doc = _SvgDoc()
    doc.text(20, 22, "multiplicity panel: ambiguity / discrepancy / run count by band", FONT_PX + 3)

    # panel 1: the ambiguity polyline
    amb_top = margin_top
    amb_values = [float(a.ambiguity.as_fraction()) for a in analyses]
    amb_max = max(amb_values + [0.0]) or 1.0
    doc.text(margin_left - 10, amb_top + FONT_PX, "ambiguity", FONT_PX, anchor="end")
    doc.line(margin_left, amb_top + panel_h, width - 30, amb_top + panel_h)
    doc.line(margin_left, amb_top, margin_left, amb_top + panel_h)
    for tick in (0.0, 0.5, 1.0):
        ty = amb_top + panel_h - tick * (panel_h - 14)
        doc.text(margin_left - 6, ty + 3, f"{tick * amb_max * 100:.1f}%", FONT_PX - 2, anchor="end")
    pts = [
        (band_x(i), amb_top + panel_h - (value / amb_max) * (panel_h - 14))
        for i, value in enumerate(amb_values)
    ]
    if len(pts) > 1:
        doc.polyline(pts, band_colour(0))
    for x, yy in pts:
        doc.circle(x, yy, 2.5, band_colour(0))

    # panel 2: discrepancy violins
    disc_top = margin_top + panel_h + panel_gap
    doc.text(margin_left - 10, disc_top + FONT_PX, "discrepancy", FONT_PX, anchor="end")
    doc.line(margin_left, disc_top + panel_h, width - 30, disc_top + panel_h)
    doc.line(margin_left, disc_top, margin_left, disc_top + panel_h)
    stats = [a.discrepancy for a in analyses]
    # K/N, the panel's largest pair fraction, tops the axis; only its tick labels use a float
    top = max((s.max_fraction.as_fraction() for s in stats if s.pair_counts), default=Fraction(0))
    disc_max = float(top) or 1.0
    for tick in (0.0, 0.5, 1.0):
        ty = disc_top + panel_h - tick * (panel_h - 14)
        doc.text(margin_left - 6, ty + 3, f"{tick * disc_max * 100:.1f}%", FONT_PX - 2, anchor="end")
    n_bins = 12
    markers: dict[str, str] = {}
    for i, (label, s) in enumerate(zip(band_order, stats)):
        x = band_x(i)
        if s.single_run:
            markers[label] = "single-run"
            arm = 5.0
            yy = disc_top + panel_h
            doc.polyline([(x - arm, yy - arm), (x + arm, yy + arm)], "#444444")
            doc.polyline([(x - arm, yy + arm), (x + arm, yy - arm)], "#444444")
            continue
        if not any(s.pair_counts):
            markers[label] = "all-zero"
            doc.line(x - 8, disc_top + panel_h, x + 8, disc_top + panel_h, stroke="#444444")
            continue
        markers[label] = "violin"
        # k/n falls in the half-open bin [b, b + 1) * (K/N) / n_bins; K/N itself in the last
        hist = [0] * n_bins
        for k, c in s.pair_counts.items():
            b = n_bins * k * top.denominator // (top.numerator * s.instance_count)
            hist[min(b, n_bins - 1)] += c
        peak = max(hist)
        half_unit = (col_w / 2 - 4) / peak
        bin_h = (panel_h - 14) / n_bins
        for b in range(n_bins):
            if hist[b] == 0:
                continue
            half = hist[b] * half_unit
            y_lo = disc_top + panel_h - (b + 1) * bin_h
            doc.rect(x - half, y_lo, 2 * half, bin_h - 0.5, band_colour(i))
    for i, label in enumerate(band_order):
        doc.text(band_x(i), disc_top + panel_h + FONT_PX + 4, label, FONT_PX - 1, anchor="middle")

    # panel 3: run counts (log scale)
    cnt_top = disc_top + panel_h + panel_gap + FONT_PX + 8
    doc.text(margin_left - 10, cnt_top + FONT_PX, "runs", FONT_PX, anchor="end")
    doc.line(margin_left, cnt_top + panel_h, width - 30, cnt_top + panel_h)
    doc.line(margin_left, cnt_top, margin_left, cnt_top + panel_h)
    counts = [a.band.run_count for a in analyses]
    log_cap = float(np.log10(max(counts) + 1))
    for i, count in enumerate(counts):
        h = (float(np.log10(count + 1)) / log_cap) * (panel_h - 18)
        x = band_x(i)
        doc.rect(x - col_w / 4, cnt_top + panel_h - h, col_w / 2, h, band_colour(i))
        doc.text(x, cnt_top + panel_h - h - 4, str(count), FONT_PX - 2, anchor="middle")

    sidecar = {
        "kind": "multiplicity_panel",
        "bands": band_order,
        "markers": markers,
        "folds": [
            {
                "fold_id": "all",
                "ambiguity": {a.band.label: str(a.ambiguity) for a in analyses},
                "run_counts": {a.band.label: a.band.run_count for a in analyses},
                "pair_counts": {a.band.label: a.discrepancy.pair_count for a in analyses},
            }
        ],
        "pooled_fraction_counts": {a.band.label: a.discrepancy.fraction_counts() for a in analyses},
    }
    return RenderedSvg(svg=doc.render(width, height), sidecar=sidecar)
