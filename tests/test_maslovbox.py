import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from renosc import (
    CoefficientField,
    Frame,
    InvalidInputError,
    SpectralProblem,
    builtin_catalog,
    compute_box,
    config_from_dict,
    derivative_identity_residual,
    load_problem,
    localize_eigenvalues_top,
    monotonicity_audit,
    integrate_frame,
    omega_at_points,
    psi_point,
    psi_window,
    renormalized_count,
    shelf_path,
)
from renosc import _kernels, cli, invariance, maslovbox
from renosc.maslovbox import _psi1_at_one
from renosc.invariance import _psi_grids
from renosc.propagation import chain_prefix, propagate_chain
from renosc.winding import PathSamples, detect_crossings

SQ50 = np.sqrt(50.0)


# -- shelf structure -----------------------------------------------------------


def test_bottom_shelf_constant(example1):
    samples = shelf_path(example1, "bottom")
    assert np.ptp(samples.psi1) == 0.0
    assert np.ptp(samples.psi2) == 0.0
    assert len(samples.ts) == example1.lambda_steps + 1


def test_right_shelf_no_crossings(example1):
    # lambda2 = 0 is not an eigenvalue, so psi1 never vanishes on the right
    samples = shelf_path(example1, "right")
    assert detect_crossings(samples) == []


def test_top_shelf_zero_location(example1):
    samples = shelf_path(example1, "top")
    recs = detect_crossings(samples)
    assert len(recs) == 1
    assert recs[0].t_star == pytest.approx(-0.513, abs=5e-3)


def test_shelf_name_validated(example1):
    with pytest.raises(InvalidInputError):
        shelf_path(example1, "diagonal")


# -- example 1 end to end --------------------------------------------------------


def test_example1_box_report(example1):
    rep = compute_box(example1)
    assert rep.ind_bottom == 0
    assert rep.ind_right == 0
    assert rep.ind_left == 1
    assert rep.m_frak == 0
    assert rep.lower_bound == 1
    assert len(rep.left_crossings) == 1
    assert rep.left_crossings[0] == pytest.approx(0.535, abs=1e-2)
    assert len(rep.eigenvalues) == 1
    assert rep.eigenvalues[0] == pytest.approx(-0.513, abs=5e-3)
    assert rep.monotonicity_violations == []


def test_example1_renormalized_count(example1):
    count, xs = renormalized_count(example1)
    assert count == 1
    assert xs[0] == pytest.approx(0.535, abs=1e-2)


def test_example1_audit_ratio(example1):
    ratios = monotonicity_audit(example1)
    assert len(ratios) == 1
    x_star, ratio = ratios[0]
    assert 0.999 <= ratio <= 1.001


# -- harmonic oracle -------------------------------------------------------------


def harmonic_left_shelf_closed_form(x):
    """det of the lambda1=0 solution against the lambda2=50 solution
    (Dirichlet at both ends), up to a positive factor."""
    return x * np.cos(SQ50 * (x - 1.0)) - np.sin(SQ50 * (x - 1.0)) / SQ50


def test_harmonic_dirichlet_count_matches_closed_form(harmonic_dirichlet):
    count, xs = renormalized_count(harmonic_dirichlet)
    grid = np.linspace(1e-9, 1.0, 200001)
    vals = harmonic_left_shelf_closed_form(grid)
    flips = np.where(np.sign(vals[:-1]) != np.sign(vals[1:]))[0]
    assert count == len(flips) == 2
    # crossing locations agree with bisected closed-form roots
    for x, k in zip(xs, flips):
        a, b = grid[k], grid[k + 1]
        for _ in range(60):
            mid = 0.5 * (a + b)
            if (harmonic_left_shelf_closed_form(mid) < 0) == (
                harmonic_left_shelf_closed_form(a) < 0
            ):
                a = mid
            else:
                b = mid
        assert x == pytest.approx(0.5 * (a + b), abs=1e-5)


def test_harmonic_dirichlet_eigenvalues(harmonic_dirichlet):
    eigs = localize_eigenvalues_top(harmonic_dirichlet, tol=1e-10)
    assert len(eigs) == 2
    assert eigs[0] == pytest.approx(np.pi ** 2, abs=1e-6)
    assert eigs[1] == pytest.approx(4 * np.pi ** 2, abs=1e-6)


def test_eigenvalue_free_interval_gives_zero(harmonic_dirichlet):
    # between 4 pi^2 ~ 39.5 and 9 pi^2 ~ 88.8
    problem = load_problem(replace(builtin_catalog("harmonic-dirichlet"), lam=(45.0, 85.0)))
    rep = compute_box(problem)
    assert rep.lower_bound == 0
    assert rep.eigenvalues == []
    count, _ = renormalized_count(problem)
    assert count == 0


@pytest.mark.parametrize("lam1,lam2", [(1.0, 1.0), (0.0, math.inf), (math.nan, 1.0)])
def test_lambda_interval_must_be_ordered(harmonic_dirichlet, lam1, lam2):
    with pytest.raises(InvalidInputError):
        SpectralProblem(
            field=harmonic_dirichlet.field,
            P=harmonic_dirichlet.P,
            Q=harmonic_dirichlet.Q,
            lambda1=lam1,
            lambda2=lam2,
        )


def test_problem_is_frozen_and_replace_starts_a_fresh_cache():
    problem = load_problem(replace(builtin_catalog("harmonic-neumann"),
                                   x_steps=200, lambda_steps=20))
    with pytest.raises(FrozenInstanceError):
        problem.rescale = False
    with pytest.raises(FrozenInstanceError):
        problem.x_steps = 400
    assert len(problem.h_path().xs) == 201
    assert _psi_grids(problem)[0].shape[1] == 201
    finer = replace(problem, x_steps=400)
    assert len(finer.h_path().xs) == 401
    assert len(finer.g_path(problem.lambda1).xs) == 401
    assert _psi_grids(finer)[0].shape[1] == 401
    assert len(shelf_path(finer, "left").ts) == 401
    assert len(problem.h_path().xs) == 201  # the original keeps its own cache


# -- rescaling invariance ----------------------------------------------------------


def test_rescaling_does_not_move_crossings(example1):
    cfg = builtin_catalog("example1")
    raw = replace(load_problem(cfg), rescale=False)
    on = [r.t_star for r in detect_crossings(shelf_path(example1, "left"))]
    off = [r.t_star for r in detect_crossings(shelf_path(raw, "left"))]
    assert len(on) == len(off)
    for a, b in zip(on, off):
        assert a == pytest.approx(b, abs=1e-8)
    # signs of psi1 agree node by node
    s_on = np.sign(shelf_path(example1, "left").psi1)
    s_off = np.sign(shelf_path(raw, "left").psi1)
    assert np.array_equal(s_on, s_off)


# -- derivative identity and local evaluation ---------------------------------------


def test_omega_at_points_matches_shelf(example1):
    samples = shelf_path(example1, "left")
    take = [100, 400, 800]
    w1, w2, d = omega_at_points(example1, example1.lambda1,
                                [samples.ts[k] for k in take])
    for i, k in enumerate(take):
        assert w1[i] / d[i] == pytest.approx(samples.psi1[k], rel=1e-7, abs=1e-10)
        assert w2[i] / d[i] == pytest.approx(samples.psi2[k], rel=1e-7, abs=1e-9)


def count_rk4_calls(monkeypatch, key=lambda args: len(args[2])):
    """Records key(args) of every rk4_grid call; by default its line count."""
    calls = []
    real = _kernels.rk4_grid

    def counted(*args):
        calls.append(key(args))
        return real(*args)

    monkeypatch.setattr(_kernels, "rk4_grid", counted)
    return calls


def test_point_inputs_validated(example1):
    for points in ([np.nan], [0.2, np.nan], [-0.1], [1.5]):
        with pytest.raises(InvalidInputError):
            omega_at_points(example1, -0.5, points)
    with pytest.raises(InvalidInputError):
        omega_at_points(example1, np.nan, [0.5])
    for x, h in ((0.5, 0.0), (0.5, -1e-4), (0.5, np.nan), (0.01, 0.01)):
        with pytest.raises(InvalidInputError):
            derivative_identity_residual(example1, x, -0.5, h=h)


def test_point_evaluations_make_one_sweep_per_family(example2, monkeypatch):
    problem = replace(example2, x_steps=300)
    shelf_path(problem, "left")  # the shelf sweeps are cached before counting
    calls = count_rk4_calls(monkeypatch)
    derivative_identity_residual(problem, 0.4, -1.0)
    assert calls == [1, 1]
    calls.clear()
    ratios = monotonicity_audit(problem)
    assert len(ratios) >= 2 and calls == [1, 1]
    # points at either end need no run of the family that starts there
    calls.clear()
    omega_at_points(problem, -1.0, [0.0, 0.5, 0.5, 1.0])
    assert calls == [1, 1]


def test_identity_residual_small_on_catalog(example1, example2):
    rng = np.random.default_rng(42)
    for problem in (example1, example2):
        for _ in range(5):
            x = rng.uniform(0.1, 0.9)
            lam = rng.uniform(problem.lambda1, problem.lambda2)
            assert derivative_identity_residual(problem, x, lam) <= 1e-5


def constant_pencil(c, P, Q):
    """A = [[0, 1], [0, 0]] + lambda E with E = [[c, 0], [-1, 0]] on [5, 40]:
    y2' = -lambda y1 plus, for c != 0, a lambda-dependent diagonal entry."""
    base = np.array([[0.0, 1.0], [0.0, 0.0]])
    field = CoefficientField(n=2, base_table=lambda xs: np.broadcast_to(base, (len(xs), 2, 2)),
                             lambda_mat=[[c, 0.0], [-1.0, 0.0]])
    return SpectralProblem(field=field, P=Frame(P), Q=Frame(Q), lambda1=5.0, lambda2=40.0,
                           x_steps=400, lambda_steps=50)


def test_negative_control_breaks_monotonicity():
    """With a lambda-dependent diagonal the crossing-rate identity fails and
    the audit ratios leave [0.999, 1.001]; the same system with c = 0 keeps
    them inside, so the control is genuine."""
    ratios = monotonicity_audit(constant_pencil(0.1, [[0.0], [1.0]], [[0.0], [1.0]]))
    assert ratios, "control problem should have left-shelf crossings"
    assert any(abs(r - 1.0) > 1e-3 for _, r in ratios)
    control = monotonicity_audit(constant_pencil(0.0, [[0.0], [1.0]], [[0.0], [1.0]]))
    assert control and all(abs(r - 1.0) <= 1e-3 for _, r in control)


def test_renormalized_count_requires_structure():
    # structure_b is read off E: a nonzero diagonal turns the count and the
    # audit off, and c = 0 turns them back on
    problem = constant_pencil(0.1, [[1.0], [0.0]], [[1.0], [0.0]])
    assert not problem.field.structure_b
    with pytest.raises(InvalidInputError):
        renormalized_count(problem)
    rep = compute_box(problem)
    assert rep.audit_ratios == [] and rep.monotonicity_violations == []
    assert compute_box(constant_pencil(0.0, [[1.0], [0.0]], [[1.0], [0.0]])).audit_ratios


# -- theorem consistency --------------------------------------------------------------


def test_lower_bound_never_exceeds_eigenvalue_count(example1, example2):
    for problem in (example1, example2):
        rep = compute_box(problem)
        assert rep.lower_bound <= len(rep.eigenvalues) + len(
            rep.degenerate_candidates
        )


def test_dirichlet_right_end_degenerates_top_shelf(harmonic_dirichlet):
    """With a Dirichlet space at x=1 the second form vanishes identically
    along the top shelf, so both forms vanish together at each eigenvalue:
    the rectangle assembly must refuse rather than return an index."""
    from renosc import InvarianceViolationError

    with pytest.raises(InvarianceViolationError) as err:
        compute_box(harmonic_dirichlet)
    assert err.value.shelf == "top"
    # the left-shelf count and the eigenvalue localization are unaffected
    count, _ = renormalized_count(harmonic_dirichlet)
    assert count == 2
    assert len(localize_eigenvalues_top(harmonic_dirichlet, 1e-8)) == 2


def test_example3_narrow_box(example3_narrow):
    rep = compute_box(example3_narrow)
    assert rep.ind_left == 2
    assert rep.m_frak == -2
    assert rep.lower_bound == 0
    assert rep.eigenvalues == []


# -- the batched psi window --------------------------------------------------------


def lead_steps(problem, dx):
    return max(4, int(np.ceil(dx * problem.x_steps)))


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_psi_window_batch_equals_single_lambda_legs(name):
    problem = replace(load_problem(builtin_catalog(name)), x_steps=300)
    field, AT, rescale = problem.field, problem.a_tilde(), problem.rescale
    lams = np.linspace(problem.lambda1, problem.lambda2, 5)
    x_lo, x_hi, nx = 0.301, 0.3605, 12
    xs, p1, p2 = psi_window(problem, lams, x_lo, x_hi, nx)
    assert p1.shape == p2.shape == (len(lams), nx + 1)
    assert np.array_equal(xs, np.linspace(x_lo, x_hi, nx + 1))
    # G leaves the grid at node k = 90 (x = 0.3) and H at node j = 109
    grid = problem.x_grid()
    k, j = 90, 109
    assert grid[k] < x_lo < grid[k + 1] and grid[j - 1] < x_hi < grid[j]
    h_runs = [(x_hi, lead_steps(problem, grid[j] - x_hi)), (x_lo, nx)]
    h = propagate_chain(field, problem.h_path().frames[j], [problem.lambda2], grid[j],
                        h_runs, rescale)[1][0, -(nx + 1):][::-1]
    g_runs = [(x_lo, lead_steps(problem, x_lo - grid[k])), (x_hi, nx)]
    for i, lam in enumerate(lams):
        _, q1, q2 = psi_window(problem, [lam], x_lo, x_hi, nx)
        assert np.array_equal(p1[i], q1[0]) and np.array_equal(p2[i], q2[0])
        # the same construction, one lambda at a time: k steps of the grid
        # leg, then the tail and the window as a chain of their own
        g = chain_prefix(field, problem.P.entries, [lam], 0.0, [(1.0, problem.x_steps)],
                         k, rescale)[1][:, 0]
        g = propagate_chain(field, g, [lam], grid[k], g_runs, rescale)[1][0, -(nx + 1):]
        w1, w2, d = _kernels.omega_tables(g, h, AT.block_g, AT.block_h)
        assert np.array_equal(p1[i], w1 / d) and np.array_equal(p2[i], w2 / d)


def test_psi_at_grid_nodes_matches_the_grid_and_the_left_shelf():
    # a window between grid nodes at lambda on the lambda grid runs the grid
    # leg's steps up to rounding: no tail, and H read off the H path
    problem = replace(load_problem(builtin_catalog("example2")),
                      x_steps=200, lambda_steps=40)
    psi1, psi2 = _psi_grids(problem)
    grid, lams = problem.x_grid(), problem.lambda_grid()
    left = shelf_path(problem, "left")
    for a, b in ((0, 12), (57, 80), (190, 200)):
        xs, p1, p2 = psi_window(problem, lams[[0, 17, 40]], grid[a], grid[b], b - a)
        assert np.allclose(xs, grid[a:b + 1], rtol=0.0, atol=1e-15)
        assert np.max(np.abs(p1 - psi1[[0, 17, 40], a:b + 1])) <= 1e-12
        assert np.max(np.abs(p2 - psi2[[0, 17, 40], a:b + 1])) <= 1e-12
        assert np.max(np.abs(p1[0] - left.psi1[a:b + 1])) <= 1e-12
        assert np.max(np.abs(p2[0] - left.psi2[a:b + 1])) <= 1e-12
    for i in (0, 1, 57, 199, 200):
        for li in (0, 17, 40):
            q1, q2, _ = psi_point(problem, grid[i], lams[li])
            assert abs(q1 - psi1[li, i]) <= 1e-12 and abs(q2 - psi2[li, i]) <= 1e-12


def fine_window(problem, lams, x_lo, x_hi, nx, per_unit=20000):
    """psi on the window from leads of per_unit steps per unit length."""
    def frames(init, lams, x0, x_near, x_far):
        lead = max(4, math.ceil(abs(x_near - x0) * per_unit))
        runs = ([(x_near, lead)] if x_near != x0 else []) + ([(x_far, nx)] if nx else [])
        return propagate_chain(problem.field, init, lams, x0, runs)[1][:, -(nx + 1):]

    G = frames(problem.P.entries, lams, 0.0, x_lo, x_hi)
    H = frames(problem.Q.entries, [problem.lambda2], 1.0, x_hi, x_lo)[0, ::-1]
    AT = problem.a_tilde()
    w1, w2, d = _kernels.omega_tables(G, H, AT.block_g, AT.block_h)
    return w1 / d, w2 / d


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_windows_at_the_ends_match_a_fine_sweep(name):
    # windows on x = 0 and x = 1 and in the first and last cells (k = 0,
    # j = x_steps), against leads of 20,000 steps per unit length
    problem = load_problem(builtin_catalog(name))
    lams = np.linspace(problem.lambda1, problem.lambda2, 4)
    c = 1.0 / problem.x_steps
    for x_lo, x_hi, nx in ((0.0, 0.0, 0), (0.0, 0.05, 10), (0.2 * c, 0.7 * c, 3),
                           (0.5 * c, 0.5 * c, 0), (1.0 - 0.7 * c, 1.0 - 0.2 * c, 3),
                           (1.0 - 0.5 * c, 1.0 - 0.5 * c, 0), (0.95, 1.0, 10),
                           (1.0, 1.0, 0)):
        _, p1, p2 = psi_window(problem, lams, x_lo, x_hi, nx)
        q1, q2 = fine_window(problem, lams, x_lo, x_hi, nx)
        assert np.max(np.abs(p1 - q1)) <= 1e-9 and np.max(np.abs(p2 - q2)) <= 1e-9


@pytest.mark.parametrize("x", [0.0, 0.4, 1.0])
def test_psi_point_matches_psi_rho_on_separate_frames(example2, x):
    problem, lam = example2, -0.7
    G, H = problem.P.entries, problem.Q.entries
    if x > 0.0:
        G = integrate_frame(problem.field, G, 0.0, x, lead_steps(problem, x),
                            lam).frames[-1]
    if x < 1.0:
        H = integrate_frame(problem.field, H, 1.0, x, lead_steps(problem, 1.0 - x),
                            problem.lambda2).frames[0]
    AT = problem.a_tilde()
    w1, w2, d = (float(t[0]) for t in _kernels.omega_tables(G[None], H, AT.block_g,
                                                             AT.block_h))
    ref1, ref2 = w1 / d, w2 / d
    p1, p2, rho = psi_point(problem, x, lam)
    assert p1 == pytest.approx(ref1, abs=1e-12)
    assert p2 == pytest.approx(ref2, abs=1e-12)
    assert rho == pytest.approx(0.5 * (ref1 * ref1 + ref2 * ref2), abs=1e-12)


def test_psi1_at_one_equals_top_shelf():
    # the top shelf is the march's last node (one GEMM per step over the
    # whole lambda grid), the points are endpoint sweeps: the same RK4 steps
    # in another order of products
    problem = replace(load_problem(builtin_catalog("example1")),
                      x_steps=300, lambda_steps=50)
    top = shelf_path(problem, "top")
    assert np.max(np.abs(_psi1_at_one(problem, problem.lambda_grid()) - top.psi1)) <= 1e-12


def test_psi1_at_one_does_not_depend_on_its_batch():
    # at 300 steps and n = 4 the kernel runs 6 lines per chunk, so the 45
    # lines share chunks with different neighbours than a line run alone
    problem = replace(load_problem(builtin_catalog("example2")),
                      x_steps=300, lambda_steps=50)
    lams = np.linspace(problem.lambda1, problem.lambda2, 45)
    batch = _psi1_at_one(problem, lams)
    for i, lam in enumerate(lams):
        assert np.array_equal(_psi1_at_one(problem, lams[i:i + 1]), batch[i:i + 1])


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_top_shelf_does_not_depend_on_the_grid_cache(name):
    # without the full-grid pass the top shelf takes one endpoint sweep, which
    # equals the pass's last nodes bit for bit (121 lines: three blocks)
    base = replace(load_problem(builtin_catalog(name)), x_steps=300, lambda_steps=120)
    alone, after_grid = replace(base), replace(base)
    _psi_grids(after_grid)
    got, want = shelf_path(alone, "top"), shelf_path(after_grid, "top")
    assert "psi_grids" not in alone._cache
    for key in ("ts", "omega1", "omega2", "d", "psi1", "psi2", "rho"):
        assert np.array_equal(getattr(got, key), getattr(want, key))
    assert got.label == want.label == "top"


@pytest.mark.parametrize("name", ["example2", "harmonic-dirichlet"])
def test_top_shelf_search_makes_no_h_sweep(name):
    # at x = 1 the H family is Q itself: the top shelf and the search's cuts
    # never read the H path, and the eigenvalues do not depend on it being cached
    base = replace(load_problem(builtin_catalog(name)), x_steps=300, lambda_steps=120)
    fresh, with_h = replace(base), replace(base)
    with_h.h_path()
    got = localize_eigenvalues_top(fresh, 1e-10)
    assert "h_path" not in fresh._cache
    assert got and got == localize_eigenvalues_top(with_h, 1e-10)


def test_box_sweeps_the_grid_leg_once_in_blocks(tmp_path, monkeypatch, march_blocks):
    # the grid leg is marched once over all L lines in x-blocks of
    # MARCH_NODES // L steps, and the top shelf takes the march's last nodes:
    # rk4_grid never sweeps the grid leg in full, nor all L lines to x = 1
    steps, L = 200, 160
    calls = count_rk4_calls(monkeypatch, key=lambda args: (len(args[2]), len(args[4]), args[6]))
    assert cli.main(["box", "example2", "--x-steps", str(steps), "--lambda-steps",
                     str(L - 1), "--out", str(tmp_path)]) == 0
    assert _kernels.MARCH_NODES // L == 102
    assert march_blocks == [(L, 0, 103), (L, 102, 99)]
    assert not [c for c in calls if c[0] > 1 and c[1:] == (steps, False)]
    assert (L, steps, True) not in calls


@pytest.mark.parametrize("name, lambda_steps", [("example1", 120), ("example2", 50)])
def test_side_shelves_reuse_the_grid_pass(name, lambda_steps, request):
    # the left and right shelves sweep legs of their own, so a full-grid
    # pass before them changes no bit: the legs equal fresh ones bit for bit
    problem = replace(request.getfixturevalue(name), x_steps=200,
                      lambda_steps=lambda_steps)
    _psi_grids(problem)
    kept = [problem.g_path(lam) for lam in (problem.lambda1, problem.lambda2)]
    fresh = replace(problem)
    for path, lam in zip(kept, (problem.lambda1, problem.lambda2)):
        want = fresh.g_path(lam)
        assert path.lam == want.lam and path.direction == want.direction
        for field in ("xs", "frames", "scale_log"):
            assert np.array_equal(getattr(path, field), getattr(want, field))
    assert [shelf_path(problem, s).psi1.tobytes() for s in ("left", "right")] == \
        [shelf_path(fresh, s).psi1.tobytes() for s in ("left", "right")]


def test_psi_window_honors_no_rescale(example2, monkeypatch):
    raw = replace(example2, x_steps=200, rescale=False)
    lams = [-1.0, 0.1, 0.6]
    ref = [psi_window(replace(raw, rescale=True), lams, 0.2, 0.3, 8),
           psi_window(replace(raw, rescale=True), lams, 0.5, 0.5, 0)]
    seen = []
    real = _kernels.rk4_grid

    def spy(*args):
        seen.append(args[5])
        return real(*args)

    monkeypatch.setattr(_kernels, "rk4_grid", spy)
    got = [psi_window(raw, lams, 0.2, 0.3, 8), psi_window(raw, lams, 0.5, 0.5, 0)]
    # the window: G's grid-leg prefix, G's window, the H path and H's
    # window; the point at the grid node 0.5: G's prefix alone
    assert len(seen) == 5 and not any(seen)
    for (_, p1, p2), (_, q1, q2) in zip(got, ref):
        assert np.max(np.abs(p1 - q1)) < 1e-9
        assert np.max(np.abs(p2 - q2)) < 1e-9


@pytest.mark.parametrize("nx", [2.0, 2.5, "2"])
def test_psi_window_takes_an_integral_nx(example1, nx):
    # an integral float is a step count; anything else is refused by name
    if nx == 2.0:
        got = psi_window(example1, [0.1], 0.2, 0.3, nx)
        for a, b in zip(got, psi_window(example1, [0.1], 0.2, 0.3, 2)):
            assert np.array_equal(a, b)
    else:
        with pytest.raises(InvalidInputError, match="step count"):
            psi_window(example1, [0.1], 0.2, 0.3, nx)


def test_psi_window_validates_its_window(example1):
    for args in [(0.2, 0.1, 4), (0.2, 0.2, 4), (0.1, 0.2, 0), (-0.1, 0.2, 4),
                 (0.5, 1.5, 4)]:
        with pytest.raises(InvalidInputError):
            psi_window(example1, [0.0], *args)
    with pytest.raises(InvalidInputError):
        psi_window(example1, [math.nan], 0.3, 0.3, 0)
    with pytest.raises(InvalidInputError):
        psi_point(example1, 0.5, math.inf)


# -- the eigenvalue search on the top shelf ---------------------------------------


def sequential_bisection(problem, tol):
    """Bisection, one midpoint per bracket per round and one sweep per round.
    Returns (sorted eigenvalues, rounds)."""
    top = shelf_path(problem, "top")
    lams, p1 = top.ts, top.psi1
    zero = np.abs(p1) <= 1e-9
    eigs = [float(v) for v in lams[zero]]
    ks = np.array([k for k in range(len(lams) - 1)
                   if not (zero[k] or zero[k + 1]) and (p1[k] < 0) != (p1[k + 1] < 0)],
                  dtype=int)
    a, b, fa = lams[ks], lams[ks + 1], p1[ks]
    rounds = 0
    while len(ks) and np.max(b - a) > tol:
        mid = 0.5 * (a + b)
        fm = _psi1_at_one(problem, mid)
        left = (fm < 0) == (fa < 0)
        a = np.where(left, mid, a)
        fa = np.where(left, fm, fa)
        b = np.where(left, b, mid)
        rounds += 1
    return sorted(eigs + [float(v) for v in 0.5 * (a + b)]), rounds


def decoupled_three_eigenvalues():
    """-phi'' = lam phi and -phi''/2 + phi = lam phi, Dirichlet at both ends:
    pi^2 + (1 + pi^2/2, 1 + 2 pi^2) in [3, 25]."""
    return load_problem(config_from_dict({
        "kind": "second-order", "l": 2, "B": [1.0, 0.5],
        "V": [["0", "0"], ["0", "1"]], "W": [["0", "0"], ["0", "0"]],
        "P": "dirichlet", "Q": "dirichlet", "lambda": [3.0, 25.0],
        "x_steps": 300, "lambda_steps": 60,
    }))


@pytest.mark.parametrize("tol", [1e-8, 1e-10])
@pytest.mark.parametrize("name", ["harmonic-dirichlet", "example1", "decoupled"])
def test_bisection_tree_equals_sequential_bisection(name, tol, monkeypatch):
    if name == "decoupled":
        problem = decoupled_three_eigenvalues()
    else:
        problem = replace(load_problem(builtin_catalog(name)), x_steps=300,
                          lambda_steps=60)
    want, rounds = sequential_bisection(problem, tol)  # also caches the top shelf
    assert len(want) == {"harmonic-dirichlet": 2, "example1": 1, "decoupled": 3}[name]
    calls = count_rk4_calls(monkeypatch)
    got = localize_eigenvalues_top(problem, tol=tol)
    assert len(got) == len(want)
    assert all(abs(g - w) <= tol for g, w in zip(got, want))
    assert rounds > 4
    assert len(calls) <= 4


@pytest.mark.parametrize("tol", [0.0, -1e-8, np.nan, np.inf])
def test_localize_refuses_a_tol_that_is_not_positive(harmonic_dirichlet, tol):
    with pytest.raises(InvalidInputError):
        localize_eigenvalues_top(harmonic_dirichlet, tol=tol)


def test_localize_below_the_double_spacing_stops_at_four_ulps(monkeypatch):
    # a tol below the spacing of doubles at an eigenvalue cannot be met; the
    # search stops once a bracket is 4 ulps wide, and the guided cuts close in
    # on those 4 ulps as fast as on any other stopping width
    problem = replace(load_problem(builtin_catalog("harmonic-dirichlet")),
                      x_steps=200, lambda_steps=20)
    want = localize_eigenvalues_top(problem, tol=1e-12)
    calls = count_rk4_calls(monkeypatch)
    got = localize_eigenvalues_top(problem, tol=1e-300)
    assert len(got) == len(want) == 2
    assert got == pytest.approx(want, abs=1e-12)
    assert 0 < len(calls) <= 6


def test_three_zeros_in_one_top_cell_yield_three_eigenvalues(monkeypatch):
    """-phi'' = lam phi, Dirichlet at both ends: on [0, 200] with two lambda
    cells, the cell [0, 100] holds pi^2, 4 pi^2 and 9 pi^2 and the cell
    [100, 200] holds 16 pi^2.  The cuts of the first sweep, a 16-section,
    separate the three zeros of the first cell."""
    problem = replace(load_problem(builtin_catalog("harmonic-dirichlet")),
                      lambda1=0.0, lambda2=200.0, x_steps=400, lambda_steps=2)
    shelf_path(problem, "top")  # the shelf sweeps are cached before counting
    calls = count_rk4_calls(monkeypatch)
    got = localize_eigenvalues_top(problem, tol=1e-8)
    want = [k * k * np.pi ** 2 for k in (1, 2, 3, 4)]
    assert got == pytest.approx(want, rel=1e-6)
    # 15 cuts in each of the two grid brackets, then 22 on each of four
    # brackets; the 16-section alone takes ceil(log16(100 / 1e-8)) = 9 sweeps
    assert calls[0] == 30 and len(calls) <= 6


@pytest.mark.parametrize("roots, power", [
    ([0.001], 3), ([0.01], 3), ([0.05], 3),  # regula falsi stalls at a triple root
    ([0.501, 0.55, 0.56], 1),  # three zeros in one part of the first sweep
])
def test_synthetic_top_shelf_keeps_the_16_section_bound(harmonic_dirichlet, roots, power,
                                                        monkeypatch):
    """psi1 = 1000 prod (lam - root)^power on the one cell [0, 1].  Every
    sweep holds the 16-section, so the search takes at most ceil(log16(w /
    tol)) sweeps however poor the secant estimate (9; guided sweeps with no
    equal parts took 13 to 21 on the triple roots), and zeros that share a
    part of the first sweep are still separated (guided sweeps alone
    returned only 0.501 of the cluster)."""
    tol = 1e-10
    sweeps = []

    def f(lams):
        lams = np.asarray(lams)
        return 1e3 * np.prod([(lams - z) ** power for z in roots], axis=0)

    def psi1(problem, lams):
        sweeps.append(len(lams))
        return f(lams)

    ts = np.array([0.0, 1.0])
    top = PathSamples.from_psi(ts, f(ts), np.ones(2), label="top")
    monkeypatch.setattr(maslovbox, "shelf_path", lambda problem, shelf: top)
    monkeypatch.setattr(maslovbox, "_psi1_at_one", psi1)
    eigs = np.array(localize_eigenvalues_top(harmonic_dirichlet, tol=tol))
    assert sweeps[0] == 15
    assert len(sweeps) <= math.ceil(math.log(1.0 / tol, 16))
    # every e is the midpoint of a sign-change bracket no wider than tol
    assert len(eigs) == len(roots)
    assert np.all(np.abs(eigs - roots) <= tol / 2)
    assert np.all((f(eigs - tol / 2) < 0) != (f(eigs + tol / 2) < 0))


def closed_form_eigenvalues(B, V, bc, lo, hi):
    """V_j + B_j k^2 pi^2 in (lo, hi): k >= 1 for Dirichlet, k >= 0 for
    Neumann."""
    k = np.arange(0 if bc == "neumann" else 1, 10)
    eigs = (np.asarray(V)[:, None] + np.asarray(B)[:, None] * (k * np.pi) ** 2).ravel()
    return np.sort(eigs[(eigs > lo) & (eigs < hi)])


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("B, V", [([1.0], [0.5]), ([1.0, 0.5], [0.0, 1.0])])
def test_every_eigenvalue_is_the_midpoint_of_a_sign_change_bracket(bc, B, V):
    """Decoupled -B_j phi'' + V_j phi = lam phi: psi1 changes sign across
    [e - tol/2, e + tol/2] for every returned e, and e is the closed-form
    eigenvalue."""
    tol, lo, hi = 1e-10, -0.7, 42.3
    problem = load_problem(config_from_dict({
        "kind": "second-order", "l": len(B), "B": B,
        "V": [[str(v) if i == j else "0" for j in range(len(V))] for i, v in enumerate(V)],
        "W": [["0"] * len(V) for _ in V], "P": bc, "Q": bc, "lambda": [lo, hi],
        "x_steps": 1000, "lambda_steps": 200,
    }))
    eigs = np.array(localize_eigenvalues_top(problem, tol=tol))
    want = closed_form_eigenvalues(B, V, bc, lo, hi)
    assert len(eigs) == len(want) >= 2
    assert np.max(np.abs(eigs - want)) < 1e-6
    below = _psi1_at_one(problem, eigs - tol / 2)
    above = _psi1_at_one(problem, eigs + tol / 2)
    assert np.all((below < 0) != (above < 0))


def diag_strings(values):
    return [[str(v) if i == j else "0" for j in range(len(values))]
            for i, v in enumerate(values)]


@pytest.mark.parametrize("V, W, lam, crossings, eigenvalues, closed, tol", [
    ([2500.0, 400.0], [0.0, 0.0], (390.0, 420.0), [0.2102682064204045, 0.8632691106545821],
     [400.0000000000168, 409.8696044011303], [400.0, 400.0 + np.pi ** 2], 1e-6),
    ([2500.0, 400.0], [0.0, 0.0], (2490.0, 2540.0),
     [0.005270276988540739, 0.437604635639225, 0.9270401853694007],
     [2500.0, 2509.8696044011303, 2539.478417605408],
     [2500.0, 2500.0 + np.pi ** 2, 2500.0 + 4 * np.pi ** 2], 1e-6),
    ([0.0], [-80.0], (1700.0, 1800.0), [0.3916085376376949], [1757.9136984534005],
     [1600.0 + 16 * np.pi ** 2], 1e-4),
    ([0.0], [-200.0], (10000.0, 10100.0),
     [0.14828837914320786, 0.4994089018094423, 0.8209763933178248],
     [10009.869695106841, 10039.478778130488, 10088.827242189273],
     [10000.0 + (k * np.pi) ** 2 for k in (1, 2, 3)], 1e-3),
])
def test_constant_system_counts_and_eigenvalues(V, W, lam, crossings, eigenvalues, closed, tol):
    """-phi'' + W phi' + V phi = lam phi, diagonal V and W, Neumann: the
    x-uniform legs chain their step matrix by repeated squaring.  With V =
    diag(2500, 400), W = 0 and lam in [390, 420] the first component grows
    and decays like exp(+-46 x); with W < 0 and lam > W^2 / 4 every mode
    decays like exp(W x / 2), so the powers P^(2^l) fall far below the
    identity.  The counts, the crossings (to 1e-12) and the localized
    eigenvalues (to 1e-10) are those of the blocked sweep, which chains
    every step, and the eigenvalues are the closed form's to the RK4 error
    of 1000 steps (`tol`)."""
    problem = load_problem(config_from_dict({
        "kind": "second-order", "l": len(V), "B": [1.0] * len(V), "V": diag_strings(V),
        "W": diag_strings(W), "P": "neumann", "Q": "neumann", "lambda": list(lam),
        "x_steps": 1000, "lambda_steps": 200,
    }))
    count, xs = renormalized_count(problem)
    assert count == len(crossings) == len(eigenvalues)
    assert np.max(np.abs(np.array(xs) - crossings)) < 1e-12
    eigs = np.array(localize_eigenvalues_top(problem, tol=1e-10))
    assert np.max(np.abs(eigs - eigenvalues)) < 1e-10
    assert np.max(np.abs(eigs - closed)) < tol
