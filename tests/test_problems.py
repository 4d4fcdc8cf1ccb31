import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renosc import (
    ConfigError,
    ExpressionEvalError,
    ExpressionSyntaxError,
    CATALOG,
    builtin_catalog,
    config_from_dict,
    eval_expression,
    load_problem,
    parse_expression,
    robin_frame,
    serialize_expression,
)
from renosc.problems import preset_frame

# -- parser -------------------------------------------------------------------


def ev(text, x=0.0):
    return eval_expression(parse_expression(text), x)


def test_example1_alpha0_at_zero():
    assert ev(".2*cos(10*x) - .5*cos(x/10)", 0.0) == pytest.approx(-0.3)


def test_variable():
    assert ev("x", 0.25) == 0.25


def test_sin_unclosed_errors_at_offset_4():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("sin(")
    assert err.value.offset == 4


def test_alpha1_at_zero():
    assert ev("2*sin(5*x)", 0.0) == 0.0


def test_w_entry_midpoint():
    assert ev("5*x*(1-x)", 0.5) == pytest.approx(1.25)


def test_division_by_zero():
    with pytest.raises(ExpressionEvalError):
        ev("1/x", 0.0)


def test_sqrt_of_negative():
    with pytest.raises(ExpressionEvalError):
        ev("sqrt(x-1)", 0.0)


def test_leading_dot_literal():
    assert ev(".5") == 0.5


def test_power_right_associative():
    assert ev("2^3^2") == 512.0


def test_unary_minus_binds_atom_first():
    # grammar puts '-' inside the factor, so -2^2 means (-2)^2
    assert ev("-2^2") == 4.0


def test_unary_in_products():
    assert ev("2*-3") == -6.0


def test_unknown_name():
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("tan(x)")


def test_trailing_garbage():
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("1 + 2 )")


def test_empty_expression():
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("   ")


def _random_tree(r, depth):
    roll = r.random()
    if depth <= 0 or roll < 0.25:
        if r.random() < 0.5:
            return f"{r.uniform(0.1, 9.9):.3f}"
        return "x"
    if roll < 0.4:
        fn = ("sin", "cos", "exp")[r.randrange(3)]
        return f"{fn}({_random_tree(r, depth - 1)})"
    if roll < 0.5:
        return f"-{_random_tree(r, 0)}"
    op = ("+", "-", "*", "/")[r.randrange(4)]
    left = _random_tree(r, depth - 1)
    right = _random_tree(r, depth - 1)
    if op == "/":
        right = f"({right}+10.5)"  # keep denominators away from zero
    return f"({left}) {op} ({right})"


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_serialize_roundtrip(seed):
    import random

    r = random.Random(seed)
    text = _random_tree(r, 4)
    tree = parse_expression(text)
    again = parse_expression(serialize_expression(tree))
    xs = np.linspace(0.0, 1.0, 100)
    for x in xs:
        # a value that overflows (exp of a large argument) must be refused by
        # both trees alike; every other value must agree
        outcomes = []
        for e in (tree, again):
            try:
                outcomes.append(eval_expression(e, float(x)))
            except ExpressionEvalError:
                outcomes.append(None)
        a, b = outcomes
        if a is None or b is None:
            assert a is None and b is None
        else:
            assert b == pytest.approx(a, rel=1e-15, abs=1e-15)


# -- configs ------------------------------------------------------------------


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "second-order", "l": 1, "V": [["0"]],
                          "W": [["0"]], "lambda": [0, 1], "frobnicate": 1})


def test_general_kind_is_api_only():
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "general", "lambda": [0, 1]})


def test_lambda_interval_validated():
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "second-order", "l": 1, "V": [["0"]],
                          "W": [["0"]], "lambda": [1, 1]})


def test_frame_dimension_mismatch():
    cfg = replace(builtin_catalog("example1"), P=[[1.0], [0.0]])  # wrong row count
    with pytest.raises(ConfigError):
        load_problem(cfg)


def test_presets():
    assert np.allclose(preset_frame("neumann", 4, 2),
                       [[1, 0], [0, 1], [0, 0], [0, 0]])
    assert np.allclose(preset_frame("dirichlet", 4, 2),
                       [[0, 0], [0, 0], [1, 0], [0, 1]])
    with pytest.raises(ConfigError):
        preset_frame("robin", 4, 2)  # robin needs an explicit matrix


def test_robin_frame():
    theta = [[1.0, 2.0], [3.0, 4.0]]
    F = robin_frame(theta)
    assert np.allclose(F[:2], np.eye(2))
    assert np.allclose(F[2:], theta)


def test_catalog_example1_shape():
    problem = load_problem(builtin_catalog("example1"))
    assert problem.n == 3 and problem.m == 1
    assert (problem.lambda1, problem.lambda2) == (-1.0, 0.0)
    assert np.allclose(problem.P.entries, [[1.0], [0.0], [0.0]])


def test_catalog_example3_w_offdiagonal():
    cfg = builtin_catalog("example3")
    assert cfg.W[0][1] == "10*sin(10*x)"
    assert cfg.W[1][0] == "10*cos(10*x)"


def test_catalog_harmonic_dirichlet_frames():
    problem = load_problem(builtin_catalog("harmonic-dirichlet"))
    assert problem.n == 2 and problem.m == 1
    assert np.allclose(problem.P.entries, [[0.0], [1.0]])
    assert np.allclose(problem.Q.entries, [[0.0], [1.0]])


def test_catalog_unknown_name():
    with pytest.raises(ConfigError):
        builtin_catalog("example99")


def test_example1_coefficients_match_hand_values():
    problem = load_problem(builtin_catalog("example1"))
    for x in (0.0, 0.5, 1.0):
        a0 = 0.2 * math.cos(10 * x) - 0.5 * math.cos(x / 10)
        a1 = 2 * math.sin(5 * x)
        A = problem.field.evaluate(x, -1.0)
        expect = np.array([
            [0.0, 1 / 10, 0.0],
            [0.0, 0.0, 10 / 60],
            [-1.0 - a0, -a1 / 10, -10 / 60],
        ])
        assert np.max(np.abs(A - expect)) <= 1e-12


def test_builder_fields_satisfy_structure():
    # structure_b is read off E; check it independently on samples of the
    # table: lambda-differences have a zero diagonal and an x-independent
    # off-diagonal part
    xs = np.linspace(0.0, 1.0, 7)
    for name in CATALOG:
        problem = load_problem(builtin_catalog(name))
        field = problem.field
        assert field.structure_b
        ref = field.table(xs, problem.lambda2)
        scale = max(float(np.max(np.abs(ref))), 1.0)
        off = ~np.eye(field.n, dtype=bool)
        for lam in np.linspace(problem.lambda1, problem.lambda2, 7):
            diff = field.table(xs, lam) - ref
            assert np.max(np.abs(np.diagonal(diff, axis1=1, axis2=2))) <= 1e-12 * scale
            assert np.max(np.abs(diff[:, off] - diff[0, off])) <= 1e-12 * scale


def test_config_roundtrip_through_dict():
    cfg = builtin_catalog("example2")
    again = config_from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()


@pytest.mark.parametrize("name", CATALOG)
def test_catalog_config_roundtrips_to_an_equal_config(name):
    assert config_from_dict(builtin_catalog(name).to_dict()) == builtin_catalog(name)


def test_config_is_frozen_and_replace_revalidates_m():
    cfg = builtin_catalog("example2")
    with pytest.raises(FrozenInstanceError):
        cfg.m = 3
    assert replace(cfg, m=3).m == 3
    for m in (0, cfg.n):
        with pytest.raises(ConfigError, match="m must be in 1..3"):
            replace(cfg, m=m)


def test_only_higher_order_fields_carry_the_companion_record():
    example1 = load_problem(builtin_catalog("example1")).field
    alphas, kappas = example1.higher_order
    assert len(alphas) == 4 and kappas == (10.0, 60.0)
    assert alphas[-1](np.array([0.3])) == pytest.approx([60.0])
    assert load_problem(builtin_catalog("example2")).field.higher_order is None


def test_degenerate_leading_coefficient_detected():
    with pytest.raises(Exception) as err:
        load_problem(config_from_dict({
            "kind": "higher-order", "n": 3, "m": 1,
            "alphas": ["0", "0", "1", "x-.5"],
            "kappas": [1, 1],
            "P": [[1.0], [0.0], [0.0]],
            "Q": [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
            "lambda": [0, 1],
        }))
    assert "alpha_n" in str(err.value)
