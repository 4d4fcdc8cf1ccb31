import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from renosc import (
    BlowUpError,
    CoefficientField,
    Frame,
    SpectralProblem,
    asymptotic_bc_determinants,
    builtin_catalog,
    classify_loss_point,
    compute_box,
    config_from_dict,
    constants_report,
    delta_bound_higher_order,
    load_problem,
    propagate_lambda_grid,
    rho_grid_scan,
)
from renosc import _kernels, cli, invariance
from renosc.maslovbox import normalized_forms
from renosc.propagation import chain_prefix
from renosc.invariance import (
    LossPoint,
    _newton_polish,
    _psi_grids,
)

# zeros of (psi1, psi2) for the example3 configuration, as given by the
# adaptive-integrator oracle in tests/oracle.py (test_ex3_loss_matches_oracle)
EX3_LOSS = ((0.869639, -3.371210), (0.868906, -0.128805))


# -- certificate constants ------------------------------------------------------


def test_example1_certificate(example1):
    rep = constants_report(example1)
    assert rep.C_A == pytest.approx(0.7481, abs=2e-3)
    assert rep.C_h == pytest.approx(0.2621, abs=2e-3)
    assert rep.c_h == pytest.approx(0.9975, abs=2e-3)
    assert rep.C == pytest.approx(4.0202, abs=2e-3)
    assert rep.delta == pytest.approx(0.2673, abs=2e-3)
    assert rep.rho0 == pytest.approx(0.5000, abs=2e-3)
    assert rep.margin == pytest.approx(0.0136, abs=2e-3)
    assert rep.certified
    assert rep.cg_mode == "exact" and rep.c_g == 1.0
    assert rep.delta_mode == "hadamard"


def test_zero_field_certificate():
    field = CoefficientField(
        n=2, base_table=lambda xs: np.zeros((len(xs), 2, 2)), lambda_mat=np.zeros((2, 2)),
    )
    problem = SpectralProblem(
        field=field, P=Frame([[1.0], [0.0]]), Q=Frame([[0.0], [1.0]]),
        lambda1=0.0, lambda2=1.0, x_steps=50, lambda_steps=10,
    )
    rep = constants_report(problem)
    assert rep.C_a == 0.0
    assert rep.C_A == 0.0
    assert rep.delta == 0.0
    assert rep.rho0 == pytest.approx(0.5)
    assert rep.margin == pytest.approx(rep.rho0)
    assert rep.certified


def test_m_equals_one_forces_cg(example1):
    rep = constants_report(example1)
    assert rep.c_g == 1.0


def test_hadamard_bound_example1(example1):
    bound = delta_bound_higher_order(example1, c_g=1.0, c_h=0.9975)
    assert bound == pytest.approx((1 / 0.9975) * (10 / 60 + 1 / 10), rel=1e-9)
    assert bound == pytest.approx(0.2673, abs=2e-4)


def test_hadamard_bound_shrinks_with_large_leading_coefficient():
    def make(kappa2, alpha3):
        cfg = replace(builtin_catalog("example1"),
                      alphas=[".2*cos(10*x)", "0", str(kappa2), str(alpha3)],
                      kappas=[kappa2, alpha3])
        return load_problem(cfg)

    small = delta_bound_higher_order(make(10, 60), 1.0, 1.0)
    large = delta_bound_higher_order(make(1000, 600000), 1.0, 1.0)
    assert large < small / 50


def test_second_order_uses_grid_delta(example2):
    rep = constants_report(example2)
    assert rep.delta_mode == "grid-fd"
    assert rep.cg_mode == "measured"
    assert 0 < rep.c_g <= 1.0
    assert rep.C_g_measured is not None
    # cross-check: the measured Gram log-derivative max obeys the bound
    assert rep.C_g_measured <= rep.C_g + 1e-9


def test_gram_bounds_hold_on_example1_paths(example1):
    rep = constants_report(example1)
    hp = example1.h_path()
    xs = example1.x_grid()
    gp = example1.g_path(example1.lambda1)
    dg = np.abs(_kernels.volume_rates(gp.frames,
                                      example1.field.table(xs, example1.lambda1))[1])
    # scalar column: |d/dx log |g|| <= ||A|| exactly, i.e. m! C_A / c_g^2
    assert np.max(dg) <= rep.C_g + 1e-9
    # and the normalization factors away from zero:
    ch_path = _kernels.volume_rates(hp.frames, example1.field.table(xs, example1.lambda2))[0]
    assert np.min(ch_path) >= rep.c_h - 1e-12


def test_gram_log_derivatives_match_long_double_reference():
    # example3's G frames are ill-conditioned (c_g about 0.0026); a solve with
    # their Gram matrix squares the condition number, the Pluecker rate does not
    from test_kernels import reference_volume_rates

    problem = load_problem(replace(builtin_catalog("example3"), x_steps=230, lambda_steps=120))
    xs = problem.x_grid()
    frames_grid = propagate_lambda_grid(problem.field, problem.P.entries, problem.lambda_grid(),
                                        0.0, 1.0, problem.x_steps, problem.rescale)[1]
    for lam, frames in zip(problem.lambda_grid(), frames_grid):
        A = problem.field.table(xs, lam)
        got = _kernels.volume_rates(frames, A)[1]
        want = reference_volume_rates(frames, A)[1]
        assert np.max(np.abs(got - want)) <= 1e-12


def test_bc_determinants_example1(example1):
    d1, d2 = asymptotic_bc_determinants(example1)
    assert max(abs(d1), abs(d2)) > 1e-6


def test_bc_determinants_dirichlet_dirichlet_degenerate():
    problem = load_problem(replace(builtin_catalog("example1"), P="dirichlet", Q="dirichlet"))
    d1, d2 = asymptotic_bc_determinants(problem)
    assert abs(d1) < 1e-12 and abs(d2) < 1e-12


# -- grid scan --------------------------------------------------------------------


def test_example2_scan_finds_no_loss_points(example2):
    scan = rho_grid_scan(example2)
    assert scan.loss_points == []
    assert scan.min_rho > 0.0
    assert scan.rho.shape == (example2.lambda_steps + 1, example2.x_steps + 1)


def test_zero_field_scan_constant():
    field = CoefficientField(
        n=2, base_table=lambda xs: np.zeros((len(xs), 2, 2)), lambda_mat=np.zeros((2, 2)),
    )
    problem = SpectralProblem(
        field=field, P=Frame([[1.0], [0.0]]), Q=Frame([[0.0], [1.0]]),
        lambda1=0.0, lambda2=1.0, x_steps=40, lambda_steps=10,
    )
    scan = rho_grid_scan(problem)
    assert scan.min_rho == pytest.approx(0.5)
    assert np.ptp(scan.rho) == pytest.approx(0.0, abs=1e-15)


@pytest.fixture(scope="module")
def example3_scan(example3):
    return rho_grid_scan(example3)


def test_example3_two_loss_points(example3_scan):
    pts = example3_scan.loss_points
    assert len(pts) == 2
    for p, (x_ref, lam_ref) in zip(pts, EX3_LOSS):
        assert p.x_star == pytest.approx(x_ref, abs=2e-3)
        assert p.lambda_star == pytest.approx(lam_ref, abs=2e-3)
        assert p.rho < 1e-9


def test_ex3_loss_matches_oracle(example3_oracle_loss_points):
    assert len(example3_oracle_loss_points) == len(EX3_LOSS)
    for (x, lam, residual), (x_ref, lam_ref) in zip(example3_oracle_loss_points,
                                                    EX3_LOSS):
        assert residual < 1e-10
        assert x == pytest.approx(x_ref, abs=1e-6)
        assert lam == pytest.approx(lam_ref, abs=1e-6)


def test_example3_classification(example3, example3_scan):
    pts = example3_scan.loss_points
    left = classify_loss_point(example3, pts[0], others=tuple(pts))
    right = classify_loss_point(example3, pts[1], others=tuple(pts))
    assert (left.i_minus, left.i_plus, left.local_m) == (0, 1, 2)
    assert (right.i_minus, right.i_plus, right.local_m) == (1, 0, -2)
    assert not left.flagged and not right.flagged


@pytest.mark.parametrize("col, zeros", [
    ([-1.0, 0.0, 1.0], [0.25]),
    ([1.0, 0.0, -1.0], [0.25]),
    ([0.0, 1.0, -1.0], [0.0, 0.375]),
    ([1.0, -1.0, 0.0], [0.5, 0.125]),
])
def test_column_zeros_count_an_exact_zero_once(col, zeros):
    # a zero node is one zero whichever sign comes before it, so the branch
    # counts i_minus, i_plus and the "more than two branches" flag do not
    # depend on it
    xs = np.linspace(0.0, 1.0, 5)[:3]
    assert invariance._column_zeros(xs, np.array(col)).tolist() == zeros


def test_transversal_point_classifies_to_zero(example3):
    """A point on the spectral curve where it crosses a lambda line
    transversally: one branch in, one branch out, net zero."""
    from renosc.maslovbox import shelf_path
    from renosc.winding import detect_crossings

    problem = load_problem(replace(builtin_catalog("example3"), lam=(-2.0, 1.0)))
    recs = detect_crossings(shelf_path(problem, "left"))
    assert recs, "lambda = -2 should cut the spectral loop"
    fake = LossPoint(x_star=recs[0].t_star, lambda_star=-2.0, rho=0.0)
    out = classify_loss_point(problem, fake)
    assert out.local_m == 0


def test_sum_rule(example3, example3_narrow, example3_scan):
    # boundary index of the wide box equals the sum of interior contributions
    pts = [classify_loss_point(example3, p, others=tuple(example3_scan.loss_points))
           for p in example3_scan.loss_points]
    wide = compute_box(example3)
    assert wide.m_frak == sum(p.local_m for p in pts) == 0
    # the narrow box contains only the right loss point
    narrow = compute_box(example3_narrow)
    inside = [p for p in pts if example3_narrow.lambda1 < p.lambda_star]
    assert narrow.m_frak == sum(p.local_m for p in inside) == -2


def test_narrow_scan_rejects_outside_zeros(example3_narrow):
    # the left spectral-curve vertex sits at lambda ~ -3.37, outside [-3, 1];
    # polishing must not report it as an interior loss point of this box
    scan = rho_grid_scan(example3_narrow)
    assert len(scan.loss_points) == 1
    assert scan.loss_points[0].lambda_star == pytest.approx(-0.1288, abs=2e-3)


def test_certificate_soundness(example1):
    rep = constants_report(example1)
    assert rep.certified
    scan = rho_grid_scan(example1)
    assert scan.min_rho > 0.0
    assert scan.loss_points == []


# -- sweep counts ----------------------------------------------------------------


def count_rk4_calls(monkeypatch):
    calls = []
    real = _kernels.rk4_grid

    def counted(*args):
        calls.append(len(args[2]))
        return real(*args)

    monkeypatch.setattr(_kernels, "rk4_grid", counted)
    return calls


def test_scan_and_classification_build_each_full_leg_once(monkeypatch, tmp_path):
    # windows, points and classification boxes start on the grid: their
    # leads are prefixes of the grid leg and the H path, whose coefficients
    # are built once, and their own short sweeps are not cached
    problem = load_problem(builtin_catalog("example3"))  # a field of its own
    N = problem.x_steps
    built = []
    real = _kernels._coefficients

    def counted(table, E, h):
        built.append((len(table) // 2, float(h[0, 0, 0])))
        return real(table, E, h)

    monkeypatch.setattr(_kernels, "_coefficients", counted)
    scan = rho_grid_scan(problem)
    assert len(scan.loss_points) == 2
    for p in scan.loss_points:
        classify_loss_point(problem, p, others=tuple(scan.loss_points))
    legs = sorted(b for b in built if abs(b[1]) >= 1.0 / N)
    assert legs == [(N, -1.0 / N), (N, 1.0 / N)]
    assert len(built) > len(legs)  # the windows' own sweeps, built per call
    assert all(runs in (((1.0, N),), ((0.0, N),)) for _, runs in problem.field._chains)

    # a box run sweeps the grid leg block by block, on coefficients built once
    built.clear()
    assert cli.main(["box", "example2", "--out", str(tmp_path)]) == 0
    N = builtin_catalog("example2").x_steps
    legs = sorted(b for b in built if abs(b[1]) >= 1.0 / N)
    assert legs == [(N, -1.0 / N), (N, 1.0 / N)]


def test_certificate_and_scan_share_one_full_grid_pass(example3, monkeypatch, march_blocks):
    problem = replace(example3, x_steps=230, lambda_steps=120)
    calls = count_rk4_calls(monkeypatch)
    constants_report(problem)
    # the grid leg is marched once, over all 121 lines, and never swept by rk4_grid
    assert [(lines, k0) for lines, k0, _ in march_blocks] == [(121, 0), (121, 135)]
    assert not [c for c in calls if c > 1]
    # the scan reads the pass's psi grids: its sweeps are refine windows (21
    # lambda columns) and Newton windows (3)
    calls.clear()
    rho_grid_scan(problem)
    assert len(march_blocks) == 2
    assert calls and max(calls) <= 21


def test_full_grid_pass_keeps_no_frame_grid():
    # example2's (L, N, n, m) frames at 1000 x 300 would take 19.3 MB
    problem = load_problem(replace(builtin_catalog("example2"), x_steps=1000,
                                   lambda_steps=300))
    tracemalloc.start()
    try:
        _psi_grids(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not any(isinstance(v, np.ndarray) and v.ndim >= 4
                   for v in problem._cache.values())
    assert peak < 301 * 1001 * 4 * 2 * 8


def rk4_grid_pass(problem):
    """psi1, psi2 and the top frames of the grid leg swept by rk4_grid."""
    _, frames = propagate_lambda_grid(problem.field, problem.P.entries,
                                      problem.lambda_grid(), 0.0, 1.0, problem.x_steps,
                                      problem.rescale)
    hp, AT = problem.h_path(), problem.a_tilde()
    w1, w2, d = _kernels.omega_tables(frames, hp.frames, AT.block_g, AT.block_h)
    return (*normalized_forms(w1, w2, d, "the rk4_grid pass"), frames[:, -1])


def assert_march_matches_rk4_grid(problem):
    """The full-grid pass's psi and the march's last node against rk4_grid's,
    within 1e-12: psi relative to its x column's largest |psi| (absolute
    where that is below 1, psi being normalized), frames relative per
    column.  Returns the pass's psi grids."""
    psi1, psi2 = _psi_grids(problem)
    for _, frames in problem.march():
        pass
    ref1, ref2, ref_top = rk4_grid_pass(problem)
    for got, want in ((psi1, ref1), (psi2, ref2)):
        scale = np.maximum(1.0, np.abs(want).max(axis=0))
        assert np.all(np.abs(got - want) <= 1e-12 * scale)
    top = frames[:, -1]
    assert np.all(np.isfinite(top))
    err = np.linalg.norm(top - ref_top, axis=-2) / np.linalg.norm(ref_top, axis=-2)
    assert np.max(err) <= 1e-12
    return psi1, psi2


@pytest.mark.parametrize("lambda_steps", [2, 120, 300])
@pytest.mark.parametrize("rescale", [True, False])
@pytest.mark.parametrize("name", ["example1", "example2", "example3", "harmonic-neumann"])
def test_grid_march_matches_rk4_grid(name, rescale, lambda_steps):
    problem = replace(load_problem(replace(builtin_catalog(name), x_steps=400,
                                           lambda_steps=lambda_steps)), rescale=rescale)
    psi1, psi2 = assert_march_matches_rk4_grid(problem)
    # a second pass on the problem repeats every bit, and so does the top
    # edge with or without a pass; an x-uniform leg's top edge keeps the
    # squaring endpoint sweep
    again, alone = replace(problem), replace(problem)
    assert [a.tobytes() for a in _psi_grids(again)] == [psi1.tobytes(), psi2.tobytes()]
    assert np.array_equal(problem.top_frames(), again.top_frames())
    assert np.array_equal(problem.top_frames(), alone.top_frames())
    assert problem.uniform_leg() == (name == "harmonic-neumann")
    if problem.uniform_leg():
        sweep = chain_prefix(problem.field, problem.P.entries, problem.lambda_grid(), 0.0,
                             [(1.0, problem.x_steps)], problem.x_steps, rescale)[1][:, 0]
        assert np.array_equal(problem.top_frames(), sweep)


@pytest.mark.parametrize("steps_per_block", [1, 2, 16])
def test_grid_extrema_read_across_block_edges(example3, monkeypatch, steps_per_block):
    # the certificate's extrema, psi2's centered difference included, are
    # those of rk4_grid's frames however short the x-blocks are
    problem = replace(example3, x_steps=200, lambda_steps=20)
    L, xs = 21, problem.x_grid()
    monkeypatch.setattr(_kernels, "MARCH_NODES", steps_per_block * L)
    dh_log = _kernels.volume_rates(problem.h_path().frames,
                                   problem.field.table(xs, problem.lambda2))[1]
    _, psi2 = _psi_grids(problem, dh_log)
    got = problem._cache["g_extrema"]
    _, ref2, _ = rk4_grid_pass(problem)
    assert np.max(np.abs(psi2 - ref2)) <= 1e-12
    _, frames = propagate_lambda_grid(problem.field, problem.P.entries,
                                      problem.lambda_grid(), 0.0, 1.0, problem.x_steps)
    A = problem.field.base_table(xs) + problem.lambda_grid()[:, None, None, None] * \
        problem.field.lambda_mat
    ratio, dg_log = _kernels.volume_rates(frames, A)
    fd = (ref2[:, 2:] - ref2[:, :-2]) / (2 * (xs[1] - xs[0]))
    delta = np.max(np.abs(fd + ref2[:, 1:-1] * (dg_log + dh_log)[:, 1:-1]))
    want = np.min(ratio), np.max(np.abs(dg_log)), delta
    assert got == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("lambda1, block", [(-2000.0, 66), (-1e6, 10)])
def test_stiff_lines_march_in_range(example2, lambda1, block):
    # every line of [lambda1, lambda1 + 10] is stiff, and its step bound b
    # (about 2.03 at -2000, 1,800 at -1e6) cuts the x-blocks to
    # 182 log 1.5 / log(1 + b) steps; at -1e6 the unnormalized frames would
    # overflow near x = 0.71 in blocks of MARCH_NODES // 5 steps
    problem = replace(example2, lambda1=lambda1, lambda2=lambda1 + 10.0, lambda_steps=4)
    lams = problem.lambda_grid()
    assert_march_matches_rk4_grid(problem)
    (C, rho), = problem.field._chains[0.0, ((1.0, 1000),)][1].values()
    assert np.all(_kernels._stiff(rho, lams))
    assert [frames.shape[1] - 1 for _, frames in problem.march()][:2] == [block, block]
    assert _kernels.MARCH_NODES // len(lams) > block


def test_march_blow_up_is_reported_where_the_sweep_reports_it():
    # without rescaling the growing mode overflows near x = 0.62; the march
    # raises BlowUpError at the same node as rk4_grid's sweep
    cfg = config_from_dict({
        "kind": "second-order", "l": 2, "B": [1.0, 1.0],
        "V": [["1000000*(1+x)", "0"], ["0", "400000*(1+x)"]], "W": [["0", "0"], ["0", "0"]],
        "P": "neumann", "Q": "neumann", "lambda": [-5.0, 1.0], "x_steps": 1000,
        "lambda_steps": 300})
    problem = replace(load_problem(cfg), rescale=False)
    with pytest.raises(BlowUpError) as swept:
        propagate_lambda_grid(problem.field, problem.P.entries, problem.lambda_grid(), 0.0,
                              1.0, problem.x_steps, False)
    with pytest.raises(BlowUpError) as marched:
        problem.top_frames()
    assert marched.value.x == swept.value.x == pytest.approx(0.62)
    assert "top_frames" not in problem._cache
    # with rescaling the march stays in range
    assert np.all(np.isfinite(replace(problem, rescale=True).top_frames()))


def test_newton_returns_its_last_window_middle_node(example3, monkeypatch):
    # the polish returns the x of its last window's middle node and the rho
    # at that node on the window's first lambda line, bit for bit
    windows = []
    real = invariance._psi_window

    def recorded(problem, lams, lo, hi, nx):
        out = real(problem, lams, lo, hi, nx)
        windows.append((lams, nx, out))
        return out

    monkeypatch.setattr(invariance, "_psi_window", recorded)
    for x0, lam0 in ((0.8696, -3.3712), (0.8689, -0.1288), (0.5, -1.0)):
        windows.clear()
        x, lam, rho = _newton_polish(example3, x0, lam0, hx=1e-5, hl=1e-4)
        lams, nx, (wxs, p1, p2) = windows[-1]
        assert nx == 2 and len(windows) <= invariance.NEWTON_ITERS
        assert x == wxs[1] and lam == lams[0]
        assert rho == 0.5 * (p1[0, 1] * p1[0, 1] + p2[0, 1] * p2[0, 1])


def test_example3_loss_points_are_pinned(example3_scan):
    # the catalog scan's polished loss points, as (lambda*, x*), as a polish
    # at point windows gave them; the stencil window's middle node is another
    # RK4 discretization of the same psi and moves them by under 1e-12
    pinned = ((-3.37121023243286, 0.8696391117845156),
              (-0.12880464057333058, 0.868905575791469))
    for p, (lam, x) in zip(example3_scan.loss_points, pinned, strict=True):
        assert abs(p.lambda_star - lam) <= 1e-9 and abs(p.x_star - x) <= 1e-9
        assert p.rho < 1e-24


def test_classification_doubling_sweeps_do_not_depend_on_columns(example3, monkeypatch):
    point = LossPoint(x_star=EX3_LOSS[1][0], lambda_star=EX3_LOSS[1][1], rho=0.0)
    calls = count_rk4_calls(monkeypatch)
    monkeypatch.setattr(invariance, "MAX_DOUBLINGS", 0)
    for n_cols in (5, 33, 65):
        monkeypatch.setattr(invariance, "CLASSIFY_COLS", n_cols)
        calls.clear()
        classify_loss_point(example3, point)
        assert len(calls) <= 4
        assert max(calls) == n_cols


def test_refine_round_and_newton_sweep_counts(example3, monkeypatch):
    problem = replace(example3, x_steps=200, lambda_steps=60)
    _psi_grids(problem)  # the full-grid sweep is cached before counting
    polished = []

    def no_polish(problem, x, lam, hx, hl):
        polished.append((x, lam))
        return x, lam, 1.0

    calls = count_rk4_calls(monkeypatch)
    with monkeypatch.context() as m:
        m.setattr(invariance, "_newton_polish", no_polish)
        m.setattr(invariance, "CANDIDATE_TOL", np.inf)
        rho_grid_scan(problem, refine_rounds=1)
    assert polished and len(calls) <= 4 * len(polished)

    # one Newton iteration is one window: the grid lead, the G run and the H run
    calls.clear()
    monkeypatch.setattr(invariance, "NEWTON_ITERS", 1)
    _newton_polish(problem, 0.5, -1.0, hx=1e-5, hl=1e-4)
    assert len(calls) <= 3
