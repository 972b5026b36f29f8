"""Self-contained SVG figures from sweep CSVs: theory curve, empirical
medians, and the interquartile band, one panel per varied parameter."""

from __future__ import annotations

import math
import os

from . import sweep as sweep_mod
from .errors import SchemaMismatch, UnknownAxis
from .sweep import AXIS_COLUMNS, DEFAULTS

KINDS = {
    "mu": ("mu_emp", "mu_theory", "mean shift"),
    "sigma": ("sigma2_emp", "sigma2_theory", "score variance"),
    "eta": ("eta_emp_mc", "eta_theory", "poisoning efficacy"),
}

AXES = {
    "theta": "theta",
    "c": "c_target",
    "lambda": "lambda",
    "v_norm": "v_norm",
}

_W, _H = 520, 360
_ML, _MR, _MT, _MB = 60, 20, 30, 50


def _select_axis_rows(agg_rows: list[dict], axis: str) -> list[dict]:
    """Aggregate rows where only the requested parameter varies."""
    col = AXES[axis]
    others = {column: DEFAULTS[name] for name, column in AXIS_COLUMNS.items() if column != col}
    rows = [
        r for r in agg_rows
        if all(math.isclose(r[k], v, rel_tol=1e-9) for k, v in others.items())
    ]
    rows.sort(key=lambda r: r[col])
    return rows


def _scale(values, lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in values]


def render_panel(agg_rows: list[dict], axis: str, kind: str) -> str:
    """One SVG panel: theory line, median markers, q25-q75 shaded band.

    A point without a finite median (every trial of it failed) is left out.
    """
    emp_col, th_col, label = KINDS[kind]
    rows = [r for r in _select_axis_rows(agg_rows, axis)
            if math.isfinite(r[f"{emp_col}_median"])]
    if not rows:
        raise SchemaMismatch(f"no aggregate rows vary along axis {axis!r}")
    xcol = AXES[axis]
    xs = [r[xcol] for r in rows]
    med = [r[f"{emp_col}_median"] for r in rows]
    q25 = [r[f"{emp_col}_q25"] for r in rows]
    q75 = [r[f"{emp_col}_q75"] for r in rows]
    th = [r[th_col] for r in rows]

    finite = [v for v in med + q25 + q75 + th if math.isfinite(v)]
    ylo, yhi = min(finite + [0.0]), max(finite)
    if yhi == ylo:
        yhi = ylo + 1.0
    pad = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad

    px = _scale(xs, min(xs), max(xs), _ML, _W - _MR)
    def py(vals):
        return _scale(vals, ylo, yhi, _H - _MB, _MT)

    med_y, q25_y, q75_y, th_y = py(med), py(q25), py(q75), py(th)

    band_pts = " ".join(
        f"{x:.2f},{y:.2f}" for x, y in list(zip(px, q75_y)) + list(zip(px, q25_y))[::-1]
    )
    theory_pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, th_y))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<polygon points="{band_pts}" fill="#4c72b0" fill-opacity="0.25" stroke="none"/>',
        f'<polyline points="{theory_pts}" fill="none" stroke="#dd8452" stroke-width="2"/>',
    ]
    for x, y in zip(px, med_y):
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="#4c72b0"/>')
    # axes
    parts.append(
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="black"/>'
    )
    parts.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>')
    for x, xv in zip(px, xs):
        parts.append(
            f'<text x="{x:.2f}" y="{_H - _MB + 18}" font-size="11" '
            f'text-anchor="middle">{xv:g}</text>'
        )
    for frac in (0.0, 0.5, 1.0):
        yv = ylo + frac * (yhi - ylo)
        yy = _H - _MB - frac * (_H - _MB - _MT)
        parts.append(
            f'<text x="{_ML - 8}" y="{yy:.2f}" font-size="11" '
            f'text-anchor="end">{yv:.3g}</text>'
        )
    parts.append(
        f'<text x="{(_ML + _W - _MR) / 2}" y="{_H - 12}" font-size="13" '
        f'text-anchor="middle">{axis}</text>'
    )
    parts.append(
        f'<text x="{(_ML + _W - _MR) / 2}" y="{_MT - 10}" font-size="13" '
        f'text-anchor="middle">{label} vs {axis} (line: theory, dots: empirical '
        f'median, band: IQR)</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts)


def make_report(input_csv, kind: str, axes=None, outdir=None) -> list[str]:
    """Aggregate a sweep CSV and emit one SVG per axis plus the _agg CSV.

    Every panel is rendered before the first file is written.  Returns the
    list of written paths.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {sorted(KINDS)}, got {kind!r}")
    unknown = [axis for axis in axes or () if axis not in AXES]
    if unknown:
        raise UnknownAxis(f"axis must be one of {sorted(AXES)}, got {unknown}")
    records = sweep_mod.read_records(input_csv)
    if not records:
        raise SchemaMismatch(f"{input_csv} contains no records")
    agg_rows = sweep_mod.aggregate(records)

    if axes is None:
        axes = [a for a in AXES if len({r[AXES[a]] for r in _select_axis_rows(agg_rows, a)}) > 1]
    panels = {axis: render_panel(agg_rows, axis, kind) for axis in axes}

    base, _ = os.path.splitext(str(input_csv))
    if outdir is None:
        outdir = os.path.dirname(str(input_csv)) or "."
    stem = os.path.basename(base)
    agg_path = os.path.join(outdir, f"{stem}_agg.csv")
    sweep_mod.write_aggregates(agg_path, agg_rows)
    written = [agg_path]
    for axis, svg in panels.items():
        path = os.path.join(outdir, f"{stem}_{kind}_vs_{axis}.svg")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(svg + "\n")
        written.append(path)
    return written
