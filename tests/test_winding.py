import numpy as np
import pytest

from renosc import (
    InvarianceViolationError,
    PathSamples,
    detect_crossings,
    p_point,
    winding_index,
)
from renosc.multilinear import OmegaPairValue


def path(ts, psi1, psi2):
    return PathSamples.from_psi(np.asarray(ts, float), np.asarray(psi1, float),
                                np.asarray(psi2, float))


def value(w1, w2):
    d = 1.0
    return OmegaPairValue(w1, w2, d, w1, w2, 0.5 * (w1 ** 2 + w2 ** 2))


# -- p_point -----------------------------------------------------------------


def test_p_point_crossing_lower_branch():
    assert np.allclose(p_point(value(0.0, -1.0)), [-1.0, 0.0])


def test_p_point_crossing_upper_branch():
    assert np.allclose(p_point(value(0.0, 1.0)), [-1.0, 0.0])


def test_p_point_quarter():
    assert np.allclose(p_point(value(1.0, 0.0)), [0.0, 1.0])


def test_p_point_unit_circle():
    rng = np.random.default_rng(3)
    for _ in range(25):
        w1, w2 = rng.normal(size=2)
        assert np.hypot(*p_point(value(w1, w2))) == pytest.approx(1.0)


def test_p_point_rejects_origin():
    with pytest.raises(InvarianceViolationError):
        p_point(value(0.0, 0.0))


# -- detection ---------------------------------------------------------------


def test_single_interior_crossing():
    ts = np.linspace(0, 1, 101)
    recs = detect_crossings(path(ts, ts - 0.5, np.ones_like(ts)))
    assert len(recs) == 1
    assert recs[0].kind == "interior"
    assert recs[0].t_star == pytest.approx(0.5, abs=1e-9)


def test_no_crossings_constant():
    ts = np.linspace(0, 1, 11)
    assert detect_crossings(path(ts, np.ones_like(ts), np.ones_like(ts))) == []


def test_invariance_violation_reports_node():
    ts = np.linspace(0, 1, 11)
    psi1 = np.ones_like(ts)
    psi2 = np.ones_like(ts)
    psi1[4] = 0.0
    psi2[4] = 0.0
    with pytest.raises(InvarianceViolationError) as err:
        detect_crossings(path(ts, psi1, psi2))
    assert err.value.node == 4


def test_interval_record_merges_consecutive_zeros():
    ts = np.linspace(0, 1, 11)
    psi1 = np.ones_like(ts)
    psi1[4:7] = 0.0
    recs = detect_crossings(path(ts, psi1, np.ones_like(ts)))
    assert len(recs) == 1
    assert recs[0].kind == "interval"
    assert recs[0].t_star == pytest.approx(0.4)
    assert recs[0].t_end == pytest.approx(0.6)


# -- direction ---------------------------------------------------------------


def test_direction_counterclockwise():
    ts = np.linspace(0, 1, 101)
    p = path(ts, ts - 0.5, np.ones_like(ts))
    recs = detect_crossings(p)
    assert recs[0].direction == 1


def test_direction_clockwise():
    ts = np.linspace(0, 1, 101)
    p = path(ts, 0.5 - ts, np.ones_like(ts))
    recs = detect_crossings(p)
    assert recs[0].direction == -1


# -- index conventions -------------------------------------------------------


def test_index_no_crossings_is_zero():
    ts = np.linspace(0, 1, 11)
    idx, _ = winding_index(path(ts, np.ones_like(ts), np.ones_like(ts)))
    assert idx == 0


def test_index_single_ccw_interior():
    ts = np.linspace(0, 1, 101)
    idx, _ = winding_index(path(ts, ts - 0.5, np.ones_like(ts)))
    assert idx == 1


def test_index_single_cw_interior():
    ts = np.linspace(0, 1, 101)
    idx, _ = winding_index(path(ts, 0.5 - ts, np.ones_like(ts)))
    assert idx == -1


def test_left_endpoint_departure_rules():
    ts = np.linspace(0, 1, 101)
    # departs counterclockwise (r grows from 0): no contribution
    idx, recs = winding_index(path(ts, ts, np.ones_like(ts)))
    assert idx == 0 and recs[0].kind == "left-endpoint"
    # departs clockwise: decrement
    idx, _ = winding_index(path(ts, -ts, np.ones_like(ts)))
    assert idx == -1


def test_right_endpoint_arrival_rules():
    ts = np.linspace(0, 1, 101)
    # arrives counterclockwise (r rises to 0): increment
    idx, recs = winding_index(path(ts, ts - 1.0, np.ones_like(ts)))
    assert idx == 1 and recs[-1].kind == "right-endpoint"
    # arrives clockwise: nothing
    idx, _ = winding_index(path(ts, 1.0 - ts, np.ones_like(ts)))
    assert idx == 0


def test_tangential_touch_is_flagged_and_neutral():
    ts = np.linspace(0, 1, 101)
    psi1 = (ts - 0.5) ** 2  # touches zero without crossing
    idx, recs = winding_index(path(ts, psi1, np.ones_like(ts)))
    assert idx == 0
    assert len(recs) == 1
    assert recs[0].direction == 0


def test_interval_with_crossing_through():
    # zero plateau entered from below (r<0) and left upward: one net count
    ts = np.linspace(0, 1, 21)
    psi1 = np.where(ts < 0.4, ts - 0.4, np.where(ts > 0.6, ts - 0.6, 0.0))
    idx, recs = winding_index(path(ts, psi1, np.ones_like(ts)))
    assert len(recs) == 1
    assert recs[0].kind == "interval"
    assert idx == 1


def test_all_zero_path_contributes_nothing():
    ts = np.linspace(0, 1, 11)
    idx, recs = winding_index(path(ts, np.zeros_like(ts), np.ones_like(ts)))
    assert idx == 0
    assert recs[0].kind == "interval"


# -- synthetic transversal paths: properties ---------------------------------


def synthetic_path(seed, nodes=801):
    """Smooth closed-form pair with well-separated transversal crossings."""
    r = np.random.default_rng(seed)
    ts = np.linspace(0, 1, nodes)
    a, b = r.uniform(1.0, 3.0, size=2)
    k = r.integers(1, 5)
    phase = r.uniform(0, 2 * np.pi)
    psi1 = a * np.sin(2 * np.pi * k * ts + phase) + r.uniform(-0.4, 0.4)
    psi2 = b * np.cos(2 * np.pi * k * ts + phase) + r.uniform(-0.4, 0.4)
    rho = 0.5 * (psi1 ** 2 + psi2 ** 2)
    if np.min(rho) < 1e-3:
        return None
    if np.any(np.abs(psi1[[0, -1]]) < 5e-2):
        return None  # keep endpoints away from crossings
    return ts, psi1, psi2


def winding_via_complex_square(psi1, psi2):
    """Independent oracle: unwrapped angle of ((w1 - i w2)/|.|)^2.

    Counts signed passages of the squared-phase through pi modulo 2 pi,
    which is where the tracked circle point sits at (-1, 0).
    """
    phase = np.unwrap(2 * np.arctan2(-psi2, psi1))
    u = (phase - np.pi) / (2 * np.pi)
    return int(np.floor(u[-1])) - int(np.floor(u[0]))


def test_matches_complex_square_oracle():
    checked = 0
    for seed in range(200):
        synth = synthetic_path(seed)
        if synth is None:
            continue
        ts, psi1, psi2 = synth
        idx, _ = winding_index(path(ts, psi1, psi2))
        assert idx == winding_via_complex_square(psi1, psi2), f"seed {seed}"
        checked += 1
    assert checked > 60


def test_path_additivity():
    checked = 0
    for seed in range(120):
        synth = synthetic_path(seed)
        if synth is None:
            continue
        ts, psi1, psi2 = synth
        cut = len(ts) // 2
        if abs(psi1[cut]) < 5e-2:
            continue
        whole, _ = winding_index(path(ts, psi1, psi2))
        first, _ = winding_index(path(ts[: cut + 1], psi1[: cut + 1], psi2[: cut + 1]))
        second, _ = winding_index(path(ts[cut:], psi1[cut:], psi2[cut:]))
        assert whole == first + second, f"seed {seed}"
        checked += 1
    assert checked > 40


def test_reversal_antisymmetry():
    checked = 0
    for seed in range(120):
        synth = synthetic_path(seed)
        if synth is None:
            continue
        ts, psi1, psi2 = synth
        fwd, recs = winding_index(path(ts, psi1, psi2))
        if any(r.kind != "interior" or r.direction == 0 for r in recs):
            continue
        rev, _ = winding_index(path(ts, psi1[::-1].copy(), psi2[::-1].copy()))
        assert rev == -fwd, f"seed {seed}"
        checked += 1
    assert checked > 40


def test_grid_refinement_stability():
    for seed in range(40):
        synth = synthetic_path(seed, nodes=401)
        if synth is None:
            continue
        ts, psi1, psi2 = synth
        coarse, _ = winding_index(path(ts, psi1, psi2))
        fine = synthetic_path(seed, nodes=801)
        if fine is None:
            continue
        idx_fine, _ = winding_index(path(*fine))
        assert coarse == idx_fine, f"seed {seed}"
