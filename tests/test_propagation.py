import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from renosc import (
    BlowUpError,
    CoefficientField,
    DegenerateCoefficientError,
    InvalidInputError,
    builtin_catalog,
    config_from_dict,
    eval_companion_higher_order,
    eval_companion_second_order,
    integrate_frame,
    load_problem,
    propagate_lambda_grid,
)
from renosc import _kernels
from renosc.propagation import chain_prefix, propagate_chain, propagate_chains


def constant_field(matrix):
    A = np.asarray(matrix, dtype=float)
    return CoefficientField(
        n=A.shape[0],
        base_table=lambda xs: np.broadcast_to(A, (len(xs),) + A.shape),
        lambda_mat=np.zeros_like(A),
    )


def harmonic_field():
    # y1' = y2, y2' = -lam y1
    base = np.array([[0.0, 1.0], [0.0, 0.0]])
    E = np.array([[0.0, 0.0], [-1.0, 0.0]])
    return CoefficientField(
        n=2, base_table=lambda xs: np.broadcast_to(base, (len(xs), 2, 2)), lambda_mat=E,
    )


def varying_field():
    # y1' = y2, y2' = (x - lam) y1: an Airy-type field whose table depends on x
    def base_table(xs):
        A = np.zeros((len(xs), 2, 2))
        A[:, 0, 1] = 1.0
        A[:, 1, 0] = xs
        return A

    return CoefficientField(n=2, base_table=base_table,
                            lambda_mat=[[0.0, 0.0], [-1.0, 0.0]])


# -- companion builders -------------------------------------------------------


def test_higher_order_example1_entries():
    alphas = [
        lambda x: 0.2 * np.cos(10 * x) - 0.5 * np.cos(x / 10),
        lambda x: 2 * np.sin(5 * x),
        10.0,
        60.0,
    ]
    A = eval_companion_higher_order(alphas, [10.0, 60.0], 0.0)
    assert A[0, 1] == pytest.approx(1 / 10)
    assert A[1, 2] == pytest.approx(10 / 60)
    assert A[2, 0] == pytest.approx(0.3)  # -alpha_0(0); lambda enters through E
    assert A[2, 1] == pytest.approx(0.0)
    assert A[2, 2] == pytest.approx(-1 / 6)
    assert A[0, 0] == A[1, 1] == 0.0


def test_higher_order_n2_oscillator():
    A = eval_companion_higher_order([-4.0, 0.0, 1.0], [1.0], 0.3)
    assert np.allclose(A, [[0.0, 1.0], [4.0, 0.0]])


def test_higher_order_diagonal_lambda_free():
    alphas = [lambda x: np.sin(x), lambda x: x, 2.0, lambda x: 3.0 + x]
    A = eval_companion_higher_order(alphas, [2.0, 1.0], 0.4)
    assert np.allclose(np.diag(A)[:-1], 0.0)
    assert A[2, 2] == pytest.approx(-2.0 / 3.4)
    # lambda enters the companion field off the diagonal only
    field = load_problem(builtin_catalog("example1")).field
    E = np.zeros((3, 3))
    E[2, 0] = 1.0
    assert np.array_equal(field.lambda_mat, E)
    for lam in (-2.0, 0.5, 7.0):
        assert np.array_equal(np.diag(field.evaluate(0.4, lam)),
                              np.diag(field.evaluate(0.4, 0.0)))


def test_higher_order_rejects_bad_leading_coefficient():
    with pytest.raises(DegenerateCoefficientError):
        eval_companion_higher_order([0.0, 0.0, -1.0], [1.0], 0.0)


def test_second_order_block_layout():
    A = eval_companion_second_order(np.eye(2), np.zeros((2, 2)), -np.eye(2), 0.0)
    assert np.allclose(A[:2, 2:], np.eye(2))
    assert np.allclose(A[2:, :2], -np.eye(2))
    assert np.allclose(A[:2, :2], 0.0)
    assert np.allclose(A[2:, 2:], 0.0)


def test_second_order_example2_v_block():
    cfg = builtin_catalog("example2")
    problem = load_problem(cfg)
    A = problem.field.evaluate(0.0, 0.0)
    assert np.allclose(A[2:, :2], [[0.0, 0.0], [0.0, 10.0]])
    assert np.allclose(A[2:, 2:], 0.0)  # W(0) = 0


def test_second_order_lambda_difference_structure():
    field = load_problem(config_from_dict({
        "kind": "second-order", "l": 2, "B": [2.0, 3.0],
        "W": [["x", "1"], ["0", "x"]], "V": [["sin(x)", "0"], ["x", "1"]],
        "lambda": [-1.5, 2.0],
    })).field
    lam, lam2 = -1.5, 2.0
    for x in (0.0, 0.3, 0.9):
        D = field.evaluate(x, lam2) - field.evaluate(x, lam)
        expect = np.zeros((4, 4))
        expect[2, 0] = expect[3, 1] = -(lam2 - lam)
        assert np.allclose(D, expect)


def test_second_order_singular_B():
    with pytest.raises(InvalidInputError):
        eval_companion_second_order(np.zeros((2, 2)), np.zeros((2, 2)),
                                    np.zeros((2, 2)), 0.0)


# -- integration ---------------------------------------------------------------


def test_zero_field_keeps_frame():
    field = constant_field(np.zeros((3, 3)))
    init = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    path = integrate_frame(field, init, 0.0, 1.0, 50, 0.0, rescale=False)
    assert np.allclose(path.frames, init)


def test_harmonic_closed_form():
    lam = np.pi ** 2
    path = integrate_frame(harmonic_field(), np.array([[0.0], [1.0]]), 0.0, 1.0,
                           1000, lam, rescale=False)
    xs = path.xs
    expect = np.stack([np.sin(np.pi * xs) / np.pi, np.cos(np.pi * xs)], axis=1)
    err = np.max(np.abs(path.frames[:, :, 0] - expect))
    assert err <= 1e-8
    assert np.allclose(path.frames[-1, :, 0], [0.0, -1.0], atol=1e-8)


def test_rk4_order_on_harmonic():
    lam = np.pi ** 2
    init = np.array([[0.0], [1.0]])

    def endpoint_error(steps):
        path = integrate_frame(harmonic_field(), init, 0.0, 1.0, steps, lam,
                               rescale=False)
        return np.max(np.abs(path.frames[-1, :, 0] - [0.0, -1.0]))

    ratio = endpoint_error(50) / endpoint_error(100)
    assert 8 < ratio < 32  # fourth order: ~16


def test_backward_then_forward_recovers_frame():
    field = load_problem(builtin_catalog("example1")).field
    Q = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    back = integrate_frame(field, Q, 1.0, 0.0, 1000, 0.0, rescale=False)
    assert back.direction == "backward"
    assert back.xs[0] == 0.0 and back.xs[-1] == 1.0  # stored increasing
    fwd = integrate_frame(field, back.frames[0], 0.0, 1.0, 1000, 0.0,
                          rescale=False)
    rel = np.max(np.abs(fwd.frames[-1] - Q)) / np.max(np.abs(Q))
    assert rel <= 1e-7


def test_blow_up_reports_location():
    field = constant_field([[2000.0]])
    with pytest.raises(BlowUpError) as single:
        integrate_frame(field, np.array([[1.0]]), 0.0, 1.0, 100, 0.0,
                        rescale=False)
    with pytest.raises(BlowUpError) as grid:
        propagate_lambda_grid(field, np.array([[1.0]]), np.array([0.0, 1.0]),
                              0.0, 1.0, 100, rescale=False)
    # each step multiplies y by the RK4 amplification g = sum (20)^k / k!
    g = sum(20.0 ** k / math.factorial(k) for k in range(5))
    first_overflow = (int(np.log(np.finfo(float).max) / np.log(g)) + 1) / 100
    assert single.value.x == grid.value.x
    assert single.value.x == pytest.approx(first_overflow, abs=1e-12)
    # an endpoint read sees only its last node, so it reports the chain's end
    with pytest.raises(BlowUpError) as end:
        chain_prefix(field, np.array([[1.0]]), [0.0], 0.0, [(0.5, 50), (1.0, 50)], 100,
                     False)
    assert end.value.x == 1.0


def half_step_table(field, steps):
    """The field's lambda-free table on the half-step grid of [0, 1] in
    `steps` equal steps."""
    return field.base_table(np.linspace(0.0, 1.0, 2 * steps + 1))


def test_rescaling_tracks_log_factors():
    # the kernel's scale_log is the log of the column norms taken out
    field = constant_field([[1.0]])  # y' = y, so y(1) = e
    path = integrate_frame(field, np.array([[1.0]]), 0.0, 1.0, 200, 0.0,
                           rescale=True)
    assert np.allclose(path.frames, 1.0)  # unit columns throughout
    frames, scale_log = _kernels.rk4_grid(half_step_table(field, 200), field.lambda_mat,
                                          [0.0], np.array([[1.0]]), 1.0 / 200, True)
    assert np.array_equal(frames[0], path.frames)
    assert scale_log[0, -1] == pytest.approx(1.0, abs=1e-8)


def test_lambda_grid_matches_single_runs():
    field = harmonic_field()
    init = np.array([[0.0], [1.0]])
    lams = np.array([1.0, 4.0, 9.0])
    xs, frames = propagate_lambda_grid(field, init, lams, 0.0, 1.0, 200)
    table = half_step_table(field, 200)
    slog = _kernels.rk4_grid(table, field.lambda_mat, lams, init, 1.0 / 200, True)[1]
    for i, lam in enumerate(lams):
        single = integrate_frame(field, init, 0.0, 1.0, 200, lam)
        assert np.allclose(frames[i], single.frames, atol=1e-13)
        single_log = _kernels.rk4_grid(table, field.lambda_mat, [lam], init, 1.0 / 200,
                                       True)[1]
        assert np.allclose(slog[i], single_log[0], atol=1e-12)


def test_structure_check_on_companion_builders():
    # structure_b is read off E: it holds exactly when diag(E) vanishes
    rng = np.random.default_rng(11)
    E = np.zeros((3, 3))
    E[2, 0] = 1.0
    for _ in range(3):
        c = rng.uniform(0.5, 2.0, size=4)
        alphas = [lambda x, a=c[0]: a * np.sin(3 * x),
                  lambda x, a=c[1]: a * x,
                  float(c[2] + 1.0), float(c[3] + 2.0)]
        field = CoefficientField(
            n=3, lambda_mat=E,
            base_table=partial(eval_companion_higher_order, alphas,
                               [float(c[2] + 1.0), float(c[3] + 2.0)]),
        )
        assert field.structure_b
    for diag in (0.1, -1e-300):
        bad = CoefficientField(n=3, base_table=field.base_table,
                               lambda_mat=E + diag * np.eye(3)[2])
        assert not bad.structure_b


@pytest.mark.parametrize("lambda_mat", [np.eye(3), np.zeros(2), [[0.0, np.nan], [0.0, 0.0]]],
                         ids=["wrong-size", "not-a-matrix", "nan"])
def test_malformed_lambda_mat_is_refused(lambda_mat):
    # refused when the field is built, not as a numpy error or a blow-up mid-run
    with pytest.raises(InvalidInputError):
        CoefficientField(n=2, base_table=harmonic_field().base_table, lambda_mat=lambda_mat)


def test_invalid_inputs():
    field = harmonic_field()
    with pytest.raises(InvalidInputError):
        integrate_frame(field, np.zeros((3, 1)), 0.0, 1.0, 10, 0.0)
    with pytest.raises(InvalidInputError):
        integrate_frame(field, np.array([[1.0], [0.0]]), 0.5, 0.5, 10, 0.0)
    with pytest.raises(InvalidInputError):  # a chain must keep one direction
        propagate_chain(field, np.array([[1.0], [0.0]]), [0.0], 0.0, [(0.5, 4), (0.2, 4)])


@pytest.mark.parametrize("lams, runs", [
    (np.zeros((2, 1)), [(1.0, 10)]),
    ([np.inf], [(1.0, 10)]),
    ([0.0], [(1.0, 10.5)]),
], ids=["2-D-lams", "infinite-lambda", "fractional-steps"])
def test_propagate_chain_refuses_malformed_input(lams, runs):
    # refused up front, not as a numpy broadcast error, a blow-up or a
    # truncated step count
    with pytest.raises(InvalidInputError):
        propagate_chain(harmonic_field(), np.array([[1.0], [0.0]]), lams, 0.0, runs)


@pytest.mark.parametrize("init, from_x, runs", [
    ([[np.nan], [0.0]], 0.0, [(1.0, 10)]),
    ([[1.0], [np.inf]], 0.0, [(1.0, 10)]),
    ([[1.0], [0.0]], 0.0, [(np.inf, 10)]),
    ([[1.0], [0.0]], 0.0, [(0.5, 4), (np.nan, 4)]),
    ([[1.0], [0.0]], -np.inf, [(1.0, 10)]),
    ([[1.0], [0.0]], np.nan, []),
], ids=["nan-init", "infinite-init", "infinite-stop", "nan-stop", "infinite-from-x",
        "nan-from-x-no-runs"])
def test_propagate_chain_refuses_non_finite_input(init, from_x, runs):
    # named as bad input, not as a blow-up "near x = 0" or "near x = inf",
    # nor as stops that do not keep one direction
    with pytest.raises(InvalidInputError, match="finite"):
        propagate_chain(harmonic_field(), np.array(init), [0.0], from_x, runs)


# -- per-chain cache ------------------------------------------------------------


def cold_copy(field):
    """The same field with empty caches."""
    return CoefficientField(n=field.n, base_table=field.base_table,
                            lambda_mat=field.lambda_mat)


def count_coefficient_builds(monkeypatch):
    built = []
    real = _kernels._coefficients

    def counted(*args):
        built.append(len(args[0]) // 2)  # steps of the x segment
        return real(*args)

    monkeypatch.setattr(_kernels, "_coefficients", counted)
    return built


@pytest.mark.parametrize("endpoint", [False, True], ids=["full", "endpoint"])
@pytest.mark.parametrize("rescale", [False, True])
def test_chain_coefficients_are_built_once(rescale, endpoint, monkeypatch):
    # the first sweep of a chain, in full or by its endpoint read, builds
    # C_0..C_4 once per x segment (160 bytes hold 5 steps at n = 2, so 60
    # steps make 12 segments); a later sweep, at other lambdas too, builds
    # none and gives the bits of a cold copy of the field
    monkeypatch.setattr(_kernels, "STEP_BUDGET", 8 * 4 * 5)
    built = count_coefficient_builds(monkeypatch)
    field = varying_field()
    init = np.array([[0.0], [1.0]])
    runs = [(0.3, 17), (1.0, 43)]

    def sweep(field, lams):
        if endpoint:
            return chain_prefix(field, init, lams, 0.0, runs, 60, rescale)
        return propagate_chain(field, init, lams, 0.0, runs, rescale)

    for lams in ([1.0, 4.0, 9.0], [2.5]):
        built.clear()
        warm = sweep(field, lams)
        assert built == ([5] * 12 if lams == [1.0, 4.0, 9.0] else [])
        cold = sweep(cold_copy(field), lams)
        for a, b in zip(warm, cold):
            assert np.array_equal(a, b)


def test_chains_with_different_runs_share_no_coefficients(monkeypatch):
    # two 20-step chains from x = 0 cut into the same segments but differ in
    # step size: each keeps its own coefficients and its own bits
    built = count_coefficient_builds(monkeypatch)
    field = varying_field()
    init = np.array([[0.0], [1.0]])
    for to_x in (0.5, 1.0):
        got = propagate_chain(field, init, [3.0], 0.0, [(to_x, 20)], True)
        want = propagate_chain(cold_copy(field), init, [3.0], 0.0, [(to_x, 20)], True)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
    assert built == [20] * 4
    kept = [C for _, coefficients in field._chains.values()
            for C, _ in coefficients.values()]
    assert len(kept) == 2 and not np.shares_memory(kept[0], kept[1])


@pytest.mark.parametrize("budget", [8 * 4 * 5, _kernels.STEP_BUDGET], ids=["segments", "one"])
def test_chain_prefix_reuses_the_chain_coefficients(budget, monkeypatch):
    # after the chain's sweep a prefix of it, across segments too (5 steps a
    # segment at the small budget), builds no coefficients and matches a
    # cold prefix; the whole chain's prefix is the full sweep's last node
    # bit for bit
    monkeypatch.setattr(_kernels, "STEP_BUDGET", budget)
    built = count_coefficient_builds(monkeypatch)
    field = varying_field()
    init = np.array([[0.0, 1.0], [1.0, 0.0]])
    runs = [(0.3, 17), (1.0, 43)]
    lams = [1.0, 4.0, 9.0]
    whole = propagate_chain(field, init, lams, 0.0, runs, True)
    for steps in (1, 3, 5, 12, 17, 23, 59, 60):
        built.clear()
        got = chain_prefix(field, init, lams, 0.0, runs, steps)
        assert built == []
        want = chain_prefix(cold_copy(field), init, lams, 0.0, runs, steps)
        assert np.array_equal(got[0], want[0])
        assert np.max(np.abs(got[1] - want[1])) <= 1e-14 * np.max(np.abs(want[1]))
    last = chain_prefix(field, init, lams, 0.0, runs, 60)
    assert np.array_equal(last[0], whole[0][-1:]) and np.array_equal(last[1], whole[1][:, -1:])
    start = chain_prefix(field, init, lams, 0.0, runs, 0)
    assert np.array_equal(start[0], [0.0]) and np.array_equal(start[1][:, 0], [init] * 3)
    for steps in (-1, 61, 2.5, "3"):
        with pytest.raises(InvalidInputError, match="step"):
            chain_prefix(field, init, lams, 0.0, runs, steps)


def test_constant_field_keeps_one_step_of_coefficients(monkeypatch):
    # a field whose table does not depend on x, swept in one run, keeps one
    # step of C_0..C_4 for the chain, built once; a later sweep and every
    # prefix build none and give a cold copy's bits.  Two runs of different
    # step sizes keep every step of the segment that holds both, and one
    # step of each segment inside a run (5 steps a segment at 160 bytes).
    built = count_coefficient_builds(monkeypatch)
    field = harmonic_field()
    init = np.array([[0.0, 1.0], [1.0, 0.0]])
    lams = [1.0, 4.0, 9.0]
    runs = [(1.0, 60)]
    for rescale, builds in ((True, [1]), (False, [])):
        warm = propagate_chain(field, init, lams, 0.0, runs, rescale)
        assert built == builds
        cold = propagate_chain(cold_copy(field), init, lams, 0.0, runs, rescale)
        for a, b in zip(warm, cold):
            assert np.array_equal(a, b)
        built.clear()
    (_, coefficients), = field._chains.values()
    assert [C.shape[1] for C, _ in coefficients.values()] == [1]
    for steps in (1, 7, 59, 60):
        got = chain_prefix(field, init, lams, 0.0, runs, steps)
        assert built == []
        for a, b in zip(got, chain_prefix(cold_copy(field), init, lams, 0.0, runs, steps)):
            assert np.array_equal(a, b)
        built.clear()
    for budget, kept in ((_kernels.STEP_BUDGET, [60]), (8 * 4 * 5, [1, 1, 1, 5] + [1] * 8)):
        monkeypatch.setattr(_kernels, "STEP_BUDGET", budget)
        field = harmonic_field()
        propagate_chain(field, init, lams, 0.0, [(0.3, 17), (1.0, 43)], True)
        (_, coefficients), = field._chains.values()
        assert built == [C.shape[1] for C, _ in coefficients.values()] == kept
        built.clear()


def test_propagate_chains_equal_cached_chains_and_keep_nothing():
    # one base_table call for every chain; each chain's bits are those of
    # propagate_chain in sweep order, or of the chain's whole prefix with
    # `endpoint`, and the field's chain cache is left alone
    tables = []
    base = varying_field()

    def counted(xs):
        tables.append(len(xs))
        return base.base_table(xs)

    field = CoefficientField(n=2, base_table=counted, lambda_mat=base.lambda_mat)
    init = np.array([[0.0], [1.0]])
    chains = [(init, [1.0, 4.0], 0.2, [(0.25, 4), (0.4, 8)]),
              (init, [2.0], 0.9, [(0.6, 5)]),
              (init, [3.0], 0.5, [])]
    for endpoint in (False, True):
        tables.clear()
        got = propagate_chains(field, chains, False, endpoint)
        assert tables == [2 * 12 + 1 + 2 * 5 + 1] and field._chains == {}
        for (init, lams, from_x, runs), (xs, frames) in zip(chains, got):
            if endpoint:
                steps = sum(s for _, s in runs)
                want = chain_prefix(base, init, lams, from_x, runs, steps, False)
            else:
                want = propagate_chain(base, init, lams, from_x, runs, False)
                if xs[0] > xs[-1]:  # a backward chain in sweep order
                    want = want[0][::-1], want[1][:, ::-1]
            assert np.array_equal(xs, want[0]) and np.array_equal(frames, want[1])


def test_replaced_field_starts_with_an_empty_chain_cache():
    # a field derived by dataclasses.replace with another E or table must not
    # reuse the coefficients or tables of the field it came from
    field = varying_field()
    init = np.array([[0.0], [1.0]])
    runs = [(1.0, 50)]
    propagate_chain(field, init, [4.0], 0.0, runs, False)
    for change in ({"lambda_mat": 2.0 * field.lambda_mat},
                   {"base_table": harmonic_field().base_table}):
        derived = replace(field, **change)
        got = propagate_chain(derived, init, [4.0], 0.0, runs, False)
        want = propagate_chain(cold_copy(derived), init, [4.0], 0.0, runs, False)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


def test_chain_cache_stays_bounded():
    # past 8 chains the cache is cleared: it never holds more than 9
    field = varying_field()
    init = np.array([[0.0], [1.0]])
    sizes = []
    for k in range(1, 141):
        propagate_chain(field, init, [1.0], 0.0, [(k / 140, 4)], True)
        sizes.append(len(field._chains))
    assert max(sizes) == 9 and sizes[-1] < 9


def test_companion_builders_vectorize_over_x():
    alphas = [lambda x: np.sin(x), lambda x: x, 2.0, lambda x: 3.0 + x]
    B = np.array([2.0, 3.0])
    W = lambda x: np.stack([np.stack([x, np.ones_like(x)], -1),
                            np.stack([np.zeros_like(x), x], -1)], -2)
    V = np.array([[1.0, 0.5], [0.0, 4.0]])
    xs = np.linspace(0.0, 1.0, 7)
    grid_ho = eval_companion_higher_order(alphas, [2.0, 1.0], xs)
    grid_so = eval_companion_second_order(B, W, V, xs)
    assert grid_ho.shape == (7, 3, 3) and grid_so.shape == (7, 4, 4)
    for k, x in enumerate(xs):
        point_ho = eval_companion_higher_order(alphas, [2.0, 1.0], x)
        point_so = eval_companion_second_order(B, W, V, x)
        assert point_ho.shape == (3, 3) and point_so.shape == (4, 4)
        assert np.array_equal(grid_ho[k], point_ho)
        assert np.array_equal(grid_so[k], point_so)


def test_field_evaluate_and_base_table_derive_from_table():
    # table(xs, lam) is base_table(xs) + lam E; evaluate is a view of it
    field = load_problem(builtin_catalog("example1")).field
    xs = np.linspace(0.0, 1.0, 11)
    for lam in (-1.0, 0.25):
        A = field.table(xs, lam)
        assert np.array_equal(A, field.base_table(xs) + lam * field.lambda_mat)
        for k, x in enumerate(xs):
            assert np.array_equal(field.evaluate(x, lam), A[k])
    with pytest.raises(ValueError):  # E is fixed with the field
        field.lambda_mat[0, 0] = 1.0


def _rotation_frame(k, x):
    # fundamental matrix of y1' = y2, y2' = -k^2 y1 from the identity at x = 0
    c, s = np.cos(k * x), np.sin(k * x)
    return np.stack([np.stack([c, s / k], -1), np.stack([-k * s, c], -1)], -2)


def test_harmonic_field_integrate_frame_matches_closed_form():
    field = harmonic_field()
    for k in (1.0, 3.0, 5.5):
        fwd = integrate_frame(field, np.eye(2), 0.0, 1.0, 400, k * k, rescale=False)
        assert fwd.direction == "forward"
        assert np.max(np.abs(fwd.frames - _rotation_frame(k, fwd.xs))) <= 1e-7
        # backward from the identity at x = 1 gives the propagator from 1 to x
        back = integrate_frame(field, np.eye(2), 1.0, 0.0, 400, k * k, rescale=False)
        assert back.direction == "backward"
        assert np.max(np.abs(back.frames - _rotation_frame(k, back.xs - 1.0))) <= 1e-7


def test_harmonic_field_lambda_grid_matches_closed_form():
    field = harmonic_field()
    ks = np.array([1.0, 3.0, 5.5])
    init = np.array([[1.0], [0.0]])
    xs, frames = propagate_lambda_grid(field, init, ks * ks, 0.0, 1.0, 400, rescale=False)
    assert frames.shape == (3, 401, 2, 1)
    for i, k in enumerate(ks):
        raw = frames[i, :, :, 0]
        expect = _rotation_frame(k, xs)[:, :, 0]
        assert np.max(np.abs(raw - expect)) <= 1e-7 * k
        single = integrate_frame(field, init, 0.0, 1.0, 400, k * k, rescale=False)
        assert np.allclose(frames[i], single.frames, rtol=0, atol=1e-14)


@pytest.mark.parametrize("field", [harmonic_field(), varying_field()],
                         ids=["affine", "varying"])
@pytest.mark.parametrize("backward", [False, True])
def test_chain_of_runs_matches_chained_legs(field, backward):
    # one sweep through runs of 7, 50 and 3 steps against three integrate_frame
    # legs, each started from the previous leg's end frame
    lams = np.array([1.0, 4.0])
    init = np.array([[0.0], [1.0]])
    x0, stops = (1.0, [0.8, 0.3, 0.25]) if backward else (0.0, [0.2, 0.7, 0.75])
    runs = list(zip(stops, [7, 50, 3]))
    xs, frames = propagate_chain(field, init, lams, x0, runs, False)
    assert frames.shape == (2, 61, 2, 1)
    for i, lam in enumerate(lams):
        F, start, legs = init, x0, []
        for to_x, steps in runs:
            leg = integrate_frame(field, F, start, to_x, steps, lam, rescale=False)
            legs.append(leg)
            F, start = (leg.frames[0] if backward else leg.frames[-1]), to_x
        if backward:
            legs = legs[::-1]
        want_xs = np.concatenate([legs[0].xs] + [leg.xs[1:] for leg in legs[1:]])
        want = np.concatenate([legs[0].frames] + [leg.frames[1:] for leg in legs[1:]])
        assert np.allclose(xs, want_xs, rtol=0, atol=1e-15)
        assert np.max(np.abs(frames[i] - want)) <= 1e-13 * np.max(np.abs(want))
