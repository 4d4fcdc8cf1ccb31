"""The array-speed writers against all-cells / all-nodes / per-value
reference loops.

Each reference below is the plain loop the writer once was; the writers must
give the same segments, in the same order, and the same bytes.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from renosc import artifacts
from renosc.artifacts import CSV_COLUMNS, _svg_axes, _svg_header, _x_px, _y_px, fmt
from renosc.invariance import LossPoint, _psi_grids
from renosc.maslovbox import SHELVES, shelf_path


def reference_marching_squares(lam_axis, x_axis, values):
    segs = []
    L, S = values.shape

    def interp(p, q, vp, vq):
        t = vp / (vp - vq)
        return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))

    for i in range(L - 1):
        for j in range(S - 1):
            corners = [
                ((lam_axis[i], x_axis[j]), values[i, j]),
                ((lam_axis[i + 1], x_axis[j]), values[i + 1, j]),
                ((lam_axis[i + 1], x_axis[j + 1]), values[i + 1, j + 1]),
                ((lam_axis[i], x_axis[j + 1]), values[i, j + 1]),
            ]
            pts = []
            for k in range(4):
                (p, vp) = corners[k]
                (q, vq) = corners[(k + 1) % 4]
                if vp == 0.0 and vq == 0.0:
                    continue
                if (vp < 0) != (vq < 0) or vp == 0.0:
                    if vp == 0.0:
                        pts.append(p)
                    else:
                        pts.append(interp(p, q, vp, vq))
            if len(pts) >= 2:
                segs.append((pts[0], pts[1]))
            if len(pts) == 4:
                segs.append((pts[2], pts[3]))
    return segs


def reference_rows_csv(path, header, rows):
    lines = [header]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def reference_path_csv(path, samples):
    reference_rows_csv(path, CSV_COLUMNS, zip(samples.ts, samples.omega1, samples.omega2,
                                              samples.psi1, samples.psi2, samples.rho))


def reference_box_svg(path, lam_axis, x_axis, psi1_grid, crossings=(), eigenvalues=(),
                      title="spectral curve"):
    lam_lo, lam_hi = float(lam_axis[0]), float(lam_axis[-1])
    parts = _svg_header(title)
    parts += _svg_axes(lam_lo, lam_hi)
    for (a, b) in reference_marching_squares(lam_axis, x_axis, psi1_grid):
        parts.append(
            f'<line x1="{_x_px(a[0], lam_lo, lam_hi):.2f}" y1="{_y_px(a[1]):.2f}" '
            f'x2="{_x_px(b[0], lam_lo, lam_hi):.2f}" y2="{_y_px(b[1]):.2f}" '
            f'stroke="#1050c0" stroke-width="1.2"/>'
        )
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


def reference_grid_csv(path, lam_axis, x_axis, values):
    lines = ["lambda,x,rho"]
    for li, lam in enumerate(lam_axis):
        for xi, x in enumerate(x_axis):
            lines.append(f"{fmt(lam)},{fmt(x)},{fmt(values[li, xi])}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def reference_heatmap_svg(path, lam_axis, x_axis, values, loss_points=(),
                          title="rho over the box", max_cells=200):
    L, S = values.shape
    li = np.unique(np.linspace(0, L - 1, min(L, max_cells)).astype(int))
    xi = np.unique(np.linspace(0, S - 1, min(S, max_cells)).astype(int))
    sub = values[np.ix_(li, xi)]
    logv = np.log10(np.maximum(sub, 1e-300))
    lo, hi = float(np.min(logv)), float(np.max(logv))
    span = hi - lo if hi > lo else 1.0
    lam_lo, lam_hi = float(lam_axis[0]), float(lam_axis[-1])
    parts = _svg_header(title)
    for a in range(len(li)):
        for b in range(len(xi)):
            t = (logv[a, b] - lo) / span
            shade = int(30 + 225 * t)
            lam0 = lam_axis[li[a]]
            lam1 = lam_axis[li[a + 1]] if a + 1 < len(li) else lam_hi
            x0 = x_axis[xi[b]]
            x1 = x_axis[xi[b + 1]] if b + 1 < len(xi) else x_axis[-1]
            px = _x_px(lam0, lam_lo, lam_hi)
            pw = max(_x_px(lam1, lam_lo, lam_hi) - px, 0.5)
            py = _y_px(x1)
            ph = max(_y_px(x0) - py, 0.5)
            parts.append(
                f'<rect x="{px:.2f}" y="{py:.2f}" width="{pw:.2f}" '
                f'height="{ph:.2f}" fill="rgb({shade},{shade},255)"/>'
            )
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


def axes(L, S):
    return np.linspace(-5.0, 1.0, L), np.linspace(0.0, 1.0, S)


# -- marching squares ----------------------------------------------------------


def assert_same_segments(values):
    lam_axis, x_axis = axes(*values.shape)
    got = artifacts.marching_squares(lam_axis, x_axis, values)
    want = reference_marching_squares(lam_axis, x_axis, values)
    assert repr(got) == repr(want)  # exact values and order; NaN points compare too
    return got


@pytest.mark.parametrize("seed", range(4))
def test_marching_squares_random_grids(seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((23, 31))
    values[rng.random(values.shape) < 0.1] = 0.0
    values[rng.random(values.shape) < 0.02] = np.nan
    assert assert_same_segments(values)


def test_marching_squares_zeros_at_corners_and_along_edges():
    values = np.add.outer(np.linspace(-1.0, 1.0, 9), np.linspace(-1.0, 1.0, 11))
    values[4, :] = 0.0          # a whole row of zeros
    values[:, 5] = 0.0          # a whole column of zeros
    values[0, 0] = values[8, 10] = 0.0
    values[2, 7] = -0.0         # a signed zero is a zero
    assert assert_same_segments(values)
    assert assert_same_segments(np.zeros((5, 6))) == []


def test_marching_squares_saddle_cell_gives_two_segments():
    values = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert len(assert_same_segments(values)) == 2
    tiled = np.tile(values, (4, 5))
    assert assert_same_segments(tiled)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_marching_squares_single_signed_grids_have_no_segments(sign):
    values = sign * (1.0 + np.random.default_rng(7).random((12, 17)))
    assert assert_same_segments(values) == []


def test_marching_squares_on_example1_grid(example1):
    problem = replace(example1, x_steps=200, lambda_steps=60)
    psi1, _ = _psi_grids(problem)
    lam_axis, x_axis = problem.lambda_grid(), problem.x_grid()
    got = artifacts.marching_squares(lam_axis, x_axis, psi1)
    assert got and got == reference_marching_squares(lam_axis, x_axis, psi1)


# -- row CSVs and the box SVG ---------------------------------------------------


SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -1.7976931348623157e308, 0.1, 1 / 3]


@pytest.mark.parametrize("rows", [
    pytest.param([], id="no-rows"),
    pytest.param([(v,) for v in SPECIAL], id="one-column"),
    pytest.param([(0.25, -3), (7, np.float64(-2.5e-17)), (True, np.int64(12))], id="ints"),
    pytest.param(list(zip(SPECIAL, reversed(SPECIAL))), id="two-columns"),
    pytest.param([(1.0,), (2.0, 3.0), (4.0, 5.0, 6.0)], id="ragged"),
])
def test_rows_csv_matches_reference(tmp_path, rows):
    for header in ("x", "x,ratio"):
        got = written(tmp_path, artifacts.write_rows_csv, header, rows)
        assert got == written(tmp_path, reference_rows_csv, header, rows)
    # rows given as an iterator are read once
    got = written(tmp_path, artifacts.write_rows_csv, "x", iter(rows))
    assert got == written(tmp_path, reference_rows_csv, "x", rows)


@pytest.mark.parametrize("length", [1, 2, 17])
def test_path_csv_matches_reference(tmp_path, length):
    rng = np.random.default_rng(length)
    columns = rng.standard_normal((6, length)) * 10.0 ** rng.integers(-30, 30, (6, length))
    flat = columns.ravel()
    flat[rng.permutation(flat.size)[:len(SPECIAL)]] = SPECIAL[:flat.size]
    samples = SimpleNamespace(**dict(zip(("ts", "omega1", "omega2", "psi1", "psi2", "rho"),
                                         columns)))
    got = written(tmp_path, artifacts.write_path_csv, samples)
    assert got == written(tmp_path, reference_path_csv, samples)


def test_path_csv_matches_reference_on_shelves(tmp_path, example2):
    problem = replace(example2, x_steps=150, lambda_steps=40)
    for shelf in SHELVES:
        samples = shelf_path(problem, shelf)
        got = written(tmp_path, artifacts.write_path_csv, samples)
        assert got == written(tmp_path, reference_path_csv, samples)


@pytest.mark.parametrize("seed", range(3))
def test_box_svg_matches_reference(tmp_path, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((19, 27))
    values[rng.random(values.shape) < 0.1] = 0.0
    values[rng.random(values.shape) < 0.03] = np.nan
    values[3, 4] = -0.0
    lam_axis, x_axis = axes(*values.shape)
    markers = dict(crossings=[0.0, 0.37, 1.0], eigenvalues=[-4.5, 0.25, np.nan],
                   title=f"spectral curve (seed {seed})")
    got = written(tmp_path, artifacts.write_box_svg, lam_axis, x_axis, values, **markers)
    assert got == written(tmp_path, reference_box_svg, lam_axis, x_axis, values, **markers)


@pytest.mark.parametrize("values", [np.ones((4, 5)), np.zeros((4, 5))], ids=["none", "zeros"])
def test_box_svg_without_segments_matches_reference(tmp_path, values):
    lam_axis, x_axis = axes(*values.shape)
    got = written(tmp_path, artifacts.write_box_svg, lam_axis, x_axis, values)
    assert got == written(tmp_path, reference_box_svg, lam_axis, x_axis, values)


def test_box_svg_matches_reference_on_example1(tmp_path, example1):
    problem = replace(example1, x_steps=200, lambda_steps=60)
    psi1 = _psi_grids(problem)[0]
    args = (problem.lambda_grid(), problem.x_grid(), psi1)
    got = written(tmp_path, artifacts.write_box_svg, *args, crossings=[0.5])
    assert got == written(tmp_path, reference_box_svg, *args, crossings=[0.5])


# -- grid CSV and heat map -----------------------------------------------------


def rho_grid(L, S, seed=0):
    """Non-negative grid with 0.0, subnormals and values below the 1e-300 floor."""
    rng = np.random.default_rng(seed)
    values = 10.0 ** rng.uniform(-8.0, 2.0, (L, S))
    values[0, 0] = 0.0
    values[1, 2] = 5e-324
    values[2, 1] = 2.5e-310
    values[L - 1, S - 1] = 1e-305
    values[L // 2, S // 2] = 1e-300
    return values


def written(tmp_path, writer, *args, **kwargs):
    path = tmp_path / f"{writer.__name__}.out"
    writer(path, *args, **kwargs)
    return path.read_bytes()


@pytest.mark.parametrize("shape", [(7, 9), (31, 17)])
def test_grid_csv_matches_reference(tmp_path, shape):
    lam_axis, x_axis = axes(*shape)
    values = rho_grid(*shape)
    values[3, 4] = -1.25
    got = written(tmp_path, artifacts.write_grid_csv, lam_axis, x_axis, values)
    assert got == written(tmp_path, reference_grid_csv, lam_axis, x_axis, values)


@pytest.mark.parametrize("shape", [(7, 9), (230, 121), (250, 40)])
def test_heatmap_svg_matches_reference(tmp_path, shape):
    lam_axis, x_axis = axes(*shape)
    values = rho_grid(*shape, seed=1)
    points = [LossPoint(x_star=0.87, lambda_star=-3.37, rho=0.0),
              LossPoint(x_star=0.25, lambda_star=-0.13, rho=1e-20)]
    got = written(tmp_path, artifacts.write_heatmap_svg, lam_axis, x_axis, values,
                  loss_points=points, title="t")
    assert got == written(tmp_path, reference_heatmap_svg, lam_axis, x_axis, values,
                          loss_points=points, title="t")


def test_heatmap_svg_constant_grid_matches_reference(tmp_path):
    lam_axis, x_axis = axes(6, 8)
    values = np.full((6, 8), 0.25)
    got = written(tmp_path, artifacts.write_heatmap_svg, lam_axis, x_axis, values)
    assert got == written(tmp_path, reference_heatmap_svg, lam_axis, x_axis, values)
