"""Deterministic CSV / SVG / JSON artifact writers for the CLI.

Floats are printed with 17 significant digits so identical runs produce
byte-identical files.  SVG output is hand-assembled (no plotting library):
the spectral curve is traced by marching squares on the sign grid of psi1,
with the spectral parameter on the horizontal axis.  No writer runs Python
per value or per grid cell: the contour's edge points and the pixel
coordinates are whole-array operations, and every file is formatted by
template substitutions over flat lists of values (one for a whole CSV of
rows, one per lambda line of the grid CSV).
"""

from __future__ import annotations

import json
import os

import numpy as np

CSV_COLUMNS = "param,omega1,omega2,psi1,psi2,rho"
HEATMAP_CELLS = 200  # heat-map cells per axis


def fmt(value) -> str:
    return "%.17g" % float(value)


def write_path_csv(path, samples) -> None:
    columns = (samples.ts, samples.omega1, samples.omega2, samples.psi1, samples.psi2,
               samples.rho)
    _write_csv(path, CSV_COLUMNS, [len(columns)] * len(samples.ts),
               np.column_stack(columns).ravel().tolist())


def write_rows_csv(path, header, rows) -> None:
    rows = list(rows)
    _write_csv(path, header, [len(row) for row in rows], [v for row in rows for v in row])


def _write_csv(path, header, widths, values) -> None:
    """The header and one row per width, all values formatted %.17g in one
    substitution over the flat list."""
    line = {w: "\n" + ",".join(["%.17g"] * w) for w in set(widths)}
    body = "".join([line[w] for w in widths]) % tuple(values)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + body + "\n")


def write_grid_csv(path, lam_axis, x_axis, values) -> None:
    """Long-format grid dump: one (lambda, x, value) row per node.

    Each x is formatted once for all lines and each lambda once for its
    line; a line's values are formatted in one template substitution.
    """
    line = "\n".join(f"\0,{fmt(x)},%.17g" for x in x_axis)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("lambda,x,rho")
        for lam, row in zip(lam_axis, values):
            fh.write("\n" + (line % tuple(row.tolist())).replace("\0", fmt(lam)))
        fh.write("\n")


def write_summary_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 20, 20, 50  # margins


def _x_px(lam, lam_lo, lam_hi):
    return _ML + (lam - lam_lo) / (lam_hi - lam_lo) * (_W - _ML - _MR)


def _y_px(x):
    # x in [0,1], origin at the bottom
    return _H - _MB - x * (_H - _MT - _MB)


@np.errstate(divide="ignore", invalid="ignore")  # t of a skipped edge is never used
def marching_squares(lam_axis, x_axis, values):
    """Zero-level segments of a scalar grid (values indexed [lam, x]).

    Returns a list of ((lam0, x0), (lam1, x1)) segments of np.float64, from
    linear interpolation on each grid cell edge.  Only active cells count: a
    cell with a corner exactly 0.0, or whose corners do not all share
    `value < 0`.  Any other cell has no edge point (NaN counts as
    non-negative and non-zero, as in the edge rule).  Edges are taken in the
    order corner 0 -> 1 -> 2 -> 3 -> 0, corners at (i, j), (i+1, j),
    (i+1, j+1), (i, j+1).  An edge whose two ends are 0.0 has no point; an
    edge starting at 0.0 gives its start; an edge whose ends differ in
    `value < 0` gives p + t (q - p), t = vp / (vp - vq).  A cell's points,
    ranked by edge, give segment (0, 1), and (2, 3) when it has four.  All
    of this is whole-array work over the active cells, and the segments come
    out in the order of a row-major walk over all cells.
    """
    lam_axis = np.asarray(lam_axis, dtype=float)
    x_axis = np.asarray(x_axis, dtype=float)

    def cell_corners(mask):
        return mask[:-1, :-1], mask[1:, :-1], mask[1:, 1:], mask[:-1, 1:]

    z0, z1, z2, z3 = cell_corners(values == 0.0)
    n0, n1, n2, n3 = cell_corners(values < 0)
    active = z0 | z1 | z2 | z3 | ((n0 | n1 | n2 | n3) & ~(n0 & n1 & n2 & n3))
    i, j = np.nonzero(active)
    v = np.stack((values[i, j], values[i + 1, j], values[i + 1, j + 1], values[i, j + 1]))
    lam = np.stack((lam_axis[i], lam_axis[i + 1], lam_axis[i + 1], lam_axis[i]))
    x = np.stack((x_axis[j], x_axis[j], x_axis[j + 1], x_axis[j + 1]))
    # edge k runs from corner k (p) to corner k+1 (q)
    vq, lam_q, x_q = (np.roll(a, -1, axis=0) for a in (v, lam, x))
    zero = v == 0.0
    has = ~(zero & (vq == 0.0)) & (((v < 0) != (vq < 0)) | zero)
    t = v / (v - vq)
    pts = np.where(zero, lam, lam + t * (lam_q - lam)), np.where(zero, x, x + t * (x_q - x))
    # a cell's points in edge order: point r of cell c at [r, c]
    rank = np.cumsum(has, axis=0) - 1
    k, c = np.nonzero(has)
    ranked = np.full((2, 4, len(i)), np.nan)
    ranked[:, rank[k, c], c] = [p[k, c] for p in pts]
    count = rank[-1] + 1
    # (cells, 2 segments, lam0 x0 lam1 x1), and which of the two each cell has
    segs = ranked.transpose(2, 1, 0).reshape(len(i), 2, 4)
    segs = segs[np.stack((count >= 2, count == 4), axis=1)]
    lam0, x0, lam1, x1 = segs.T
    return list(zip(zip(lam0, x0), zip(lam1, x1)))


def _svg_header(title):
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f"<title>{title}</title>",
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
    ]


def _svg_axes(lam_lo, lam_hi):
    x0, x1 = _x_px(lam_lo, lam_lo, lam_hi), _x_px(lam_hi, lam_lo, lam_hi)
    y0, y1 = _y_px(0.0), _y_px(1.0)
    parts = [
        f'<rect x="{x0:.2f}" y="{y1:.2f}" width="{x1 - x0:.2f}" '
        f'height="{y0 - y1:.2f}" fill="none" stroke="black"/>',
        f'<text x="{(x0 + x1) / 2:.2f}" y="{_H - 12}" text-anchor="middle" '
        f'font-size="14">lambda</text>',
        f'<text x="18" y="{(y0 + y1) / 2:.2f}" text-anchor="middle" '
        f'font-size="14" transform="rotate(-90 18 {(y0 + y1) / 2:.2f})">x</text>',
    ]
    for lam in (lam_lo, lam_hi):
        px = _x_px(lam, lam_lo, lam_hi)
        parts.append(
            f'<text x="{px:.2f}" y="{y0 + 18:.2f}" text-anchor="middle" '
            f'font-size="12">{lam:g}</text>'
        )
    for xv in (0.0, 1.0):
        parts.append(
            f'<text x="{x0 - 8:.2f}" y="{_y_px(xv) + 4:.2f}" text-anchor="end" '
            f'font-size="12">{xv:g}</text>'
        )
    return parts


def write_box_svg(path, lam_axis, x_axis, psi1_grid, crossings=(), eigenvalues=(),
                  title="spectral curve") -> None:
    lam_lo, lam_hi = float(lam_axis[0]), float(lam_axis[-1])
    parts = _svg_header(title)
    parts += _svg_axes(lam_lo, lam_hi)
    segs = marching_squares(lam_axis, x_axis, psi1_grid)
    if segs:
        lam0, x0, lam1, x1 = np.reshape(segs, (-1, 4)).T
        px = np.column_stack((_x_px(lam0, lam_lo, lam_hi), _y_px(x0),
                              _x_px(lam1, lam_lo, lam_hi), _y_px(x1)))
        line = ('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" '
                'stroke="#1050c0" stroke-width="1.2"/>')
        parts.append("\n".join([line] * len(segs)) % tuple(px.ravel().tolist()))
    for x in crossings:
        parts.append(
            f'<circle cx="{_x_px(lam_lo, lam_lo, lam_hi):.2f}" '
            f'cy="{_y_px(x):.2f}" r="4" fill="#d02020"/>'
        )
    for lam in eigenvalues:
        parts.append(
            f'<circle cx="{_x_px(lam, lam_lo, lam_hi):.2f}" '
            f'cy="{_y_px(1.0):.2f}" r="4" fill="#108030"/>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def write_heatmap_svg(path, lam_axis, x_axis, values, loss_points=(),
                      title="rho over the box") -> None:
    """Down-sampled (at most HEATMAP_CELLS per axis) log10 heat map of rho
    with loss points marked.

    Rect geometry and shades are computed as arrays; each row's x/width and
    each column's y/height strings are formatted once.
    """
    L, S = values.shape
    li = np.unique(np.linspace(0, L - 1, min(L, HEATMAP_CELLS)).astype(int))
    xi = np.unique(np.linspace(0, S - 1, min(S, HEATMAP_CELLS)).astype(int))
    sub = values[np.ix_(li, xi)]
    logv = np.log10(np.maximum(sub, 1e-300))
    lo, hi = float(np.min(logv)), float(np.max(logv))
    span = hi - lo if hi > lo else 1.0
    lam_lo, lam_hi = float(lam_axis[0]), float(lam_axis[-1])
    # dark = small rho
    shade = (30 + 225 * ((logv - lo) / span)).astype(int).tolist()
    lam_edges = np.append(lam_axis[li], lam_hi)
    x_edges = np.append(x_axis[xi], x_axis[-1])
    px = _x_px(lam_edges[:-1], lam_lo, lam_hi)
    pw = np.maximum(_x_px(lam_edges[1:], lam_lo, lam_hi) - px, 0.5)
    py = _y_px(x_edges[1:])
    ph = np.maximum(_y_px(x_edges[:-1]) - py, 0.5)
    rows = [(f'<rect x="{a:.2f}" y="', f'" width="{b:.2f}" height="')
            for a, b in zip(px, pw)]
    cols = [(f"{a:.2f}", f"{b:.2f}") for a, b in zip(py, ph)]
    parts = _svg_header(title)
    for (x_part, w_part), shades in zip(rows, shade):
        for (y, h), s in zip(cols, shades):
            parts.append(f'{x_part}{y}{w_part}{h}" fill="rgb({s},{s},255)"/>')
    parts += _svg_axes(lam_lo, lam_hi)
    for p in loss_points:
        parts.append(
            f'<circle cx="{_x_px(p.lambda_star, lam_lo, lam_hi):.2f}" '
            f'cy="{_y_px(p.x_star):.2f}" r="5" fill="none" stroke="#d02020" '
            f'stroke-width="2"/>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def ensure_outdir(path) -> str:
    os.makedirs(path, exist_ok=True)
    return path
