"""Self-contained SVG heatmaps of per-cell sweep statistics.

Renders one colored rect per (n, k) row of a cell record array
(`harness.CELL_DTYPE`, from `aggregate` or `matio.read_csv` of a cells.csv) for
a fixed gamma, n on the x axis and k on the y axis. The shares in
`UNIT_SCALE_STATS` are colored linearly on [0, 1], the ratio means on a log
scale over the range of the cells drawn in color. A cell is colored only when
its value lies in its scale's domain and none of its trials is singular or
excluded (degenerate); every other cell, a NaN one too, is hatched. No plotting
library is involved; the output is plain SVG 1.1.
"""

from __future__ import annotations

import math

import numpy as np

from .harness import STAT_FIELDS
# indicator means have the domain [0, 1] and get a fixed linear color scale; ratio means
# have the domain (0, inf) and get a log scale over their range, on which a few huge
# ratios do not wash out every other cell
UNIT_SCALE_STATS = {"td_win_ratio", "bound_prediction_ratio"}

_CELL = 16
_MARGIN_LEFT = 46
_MARGIN_BOTTOM = 40
_MARGIN_TOP = 30
_MARGIN_RIGHT = 16

# dark blue -> teal -> yellow gradient anchors
_ANCHORS = [(0.0, (68, 1, 84)), (0.5, (33, 145, 140)), (1.0, (253, 231, 37))]


def _color(t: float) -> str:
    (t0, c0), (t1, c1) = next(pair for pair in zip(_ANCHORS, _ANCHORS[1:]) if t <= pair[1][0])
    u = (t - t0) / (t1 - t0)
    rgb = [round(a + u * (b - a)) for a, b in zip(c0, c1)]
    return f"rgb({rgb[0]},{rgb[1]},{rgb[2]})"


def render_heatmap(cells: np.ndarray, stat: str, gamma: float) -> str:
    """Return an SVG document for one statistic at one gamma of a
    `harness.CELL_DTYPE` record array."""
    if stat not in STAT_FIELDS:
        raise ValueError(f"unknown statistic {stat!r}; choose from {STAT_FIELDS}")
    cells = np.asarray(cells)  # a plain array: a recarray's field lookups cost more than its masks
    selected = cells[cells["gamma"] == gamma]
    if not selected.size:
        available = sorted(set(cells["gamma"].tolist()))
        raise ValueError(f"no cells for gamma={gamma}; available: {available}")

    values = selected[stat]
    log_scale = stat not in UNIT_SCALE_STATS
    # NaN fails every comparison, so it is hatched with the values the scale cannot place
    in_domain = (values > 0) & (values < math.inf) if log_scale else (values >= 0) & (values <= 1)
    colored = in_domain & (selected["singular_count"] + selected["excluded_count"] == 0)
    drawn = values[colored].tolist()
    lo, hi = (min(drawn), max(drawn)) if drawn and log_scale else (0.0, 1.0)
    axis = math.log10 if log_scale else float
    alo, ahi = (axis(lo), axis(hi)) if drawn else (lo, hi)  # no log10(0) when nothing is drawn

    def scale(v):
        return 0.5 if ahi == alo else (axis(v) - alo) / (ahi - alo)

    ns, ks = selected["n"].tolist(), selected["k"].tolist()
    n_min, n_max, k_max = min(ns), max(ns), max(ks)
    width = _MARGIN_LEFT + (n_max - n_min + 1) * _CELL + _MARGIN_RIGHT
    axis_y = _MARGIN_TOP + k_max * _CELL
    height = axis_y + _MARGIN_BOTTOM

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}">',
        '<defs><pattern id="hatch" width="6" height="6" '
        'patternUnits="userSpaceOnUse" patternTransform="rotate(45)">'
        '<rect width="6" height="6" fill="#bbbbbb"/>'
        '<line x1="0" y1="0" x2="0" y2="6" stroke="#666666" stroke-width="2"/>'
        "</pattern></defs>",
        f'<rect width="{width}" height="{height}" fill="white"/>',
        _text(f"{width / 2:.1f}", 18, 12,
              f"{stat} (gamma={gamma!r}{', log scale' if log_scale else ''})"),
    ]
    for n, k, v, c in sorted(zip(ns, ks, values.tolist(), colored.tolist())):
        x = _MARGIN_LEFT + (n - n_min) * _CELL
        y = _MARGIN_TOP + (k_max - k) * _CELL
        fill = _color(scale(v)) if c else "url(#hatch)"
        parts.append(
            f'<rect x="{x}" y="{y}" width="{_CELL}" height="{_CELL}" '
            f'fill="{fill}" stroke="white" stroke-width="0.5">'
            f"<title>n={n} k={k} {stat}={v:.6g}</title></rect>")

    for n in range(n_min, n_max + 1, max(1, (n_max - n_min) // 10 or 1)):
        x = _MARGIN_LEFT + (n - n_min) * _CELL + _CELL / 2
        parts.append(_text(f"{x:.1f}", axis_y + 14, 9, n))
    for k in range(1, k_max + 1, max(1, k_max // 10 or 1)):
        y = _MARGIN_TOP + (k_max - k) * _CELL + _CELL / 2 + 3
        parts.append(_text(_MARGIN_LEFT - 6, f"{y:.1f}", 9, k, anchor="end"))
    mid = f"{_MARGIN_TOP + k_max * _CELL / 2:.1f}"
    parts += [_text(f"{_MARGIN_LEFT + (n_max - n_min + 1) * _CELL / 2:.1f}", axis_y + 30, 11,
                    "n (state-space size)"),
              _text(12, mid, 11, "k (feature dimension)", extra=f' transform="rotate(-90 12 {mid})"'),
              _text(width - _MARGIN_RIGHT, 18, 9, f"range [{lo:.3g}, {hi:.3g}]", anchor="end"),
              "</svg>"]
    return "\n".join(parts)


def _text(x, y, size, body, anchor="middle", extra="") -> str:
    return (f'<text x="{x}" y="{y}" text-anchor="{anchor}" font-family="sans-serif" '
            f'font-size="{size}"{extra}>{body}</text>')
