import numpy as np
import pytest

from renosc import (
    InvalidInputError,
    InvarianceViolationError,
    PathSamples,
    detect_crossings,
    p_point,
    winding_index,
)
from renosc.winding import ZERO_TOL, CrossingRecord, _sign_r


def path(ts, psi1, psi2):
    return PathSamples.from_psi(np.asarray(ts, float), np.asarray(psi1, float),
                                np.asarray(psi2, float))


def value(w1, w2):
    return w1, w2


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


@pytest.mark.parametrize("pair", [(np.nan, 1.0), (1.0, np.nan), (np.inf, np.nan),
                                  (np.inf, 1.0)])
def test_p_point_rejects_non_finite_pair(pair):
    with pytest.raises(InvalidInputError):
        p_point(value(*pair))


# a NaN compares false both ways: in psi1 it splits one crossing into two
# records of opposite sign, in ts it passes the increasing check
NON_FINITE = {
    "psi1 nan": ([0.0, 0.25, 0.5, 0.75, 1.0], [1.0, np.nan, -1.0, -1.0, -1.0], 1.0),
    "psi2 nan": ([0.0, 0.25, 0.5, 0.75, 1.0], [1.0, 1.0, -1.0, -1.0, -1.0],
                 [1.0, 1.0, np.nan, 1.0, 1.0]),
    "ts nan": ([0.0, np.nan, 1.0], [1.0, -1.0, -1.0], 1.0),
    "ts inf": ([0.0, 0.5, np.inf], [1.0, 1.0, -1.0], 1.0),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_path_samples_refuse_non_finite(case):
    ts, psi1, psi2 = NON_FINITE[case]
    with pytest.raises(InvalidInputError, match="finite"):
        path(ts, psi1, np.broadcast_to(psi2, len(ts)))


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


def test_sign_change_sits_at_the_interpolant_zero():
    rec, = detect_crossings(path([0.0, 1.0], [-1.0, 2.0], [1.0, 1.0]))
    assert abs(rec.t_star - 1 / 3) <= np.spacing(1 / 3)


def test_unorientable_crossing_is_refused():
    # psi2 is exactly zero on every node left of the sign change, so the
    # arrival side has no sign of r to read
    ts = np.linspace(0, 1, 11)
    psi2 = np.where(np.arange(11) <= 5, 0.0, 1.0)
    with pytest.raises(InvarianceViolationError,
                       match="second form vanishes identically") as err:
        detect_crossings(path(ts, ts - 0.55, psi2))
    assert err.value.node == 5


# -- the node-by-node record loop, as a reference -------------------------------


def _nearest_nonzero(zero, k, direction):
    j = k + direction
    while 0 <= j < len(zero) and zero[j]:
        j += direction
    return j if 0 <= j < len(zero) else None


def reference_crossings(p):
    """A record loop over the nodes, then a pass that checks each record for
    vanishing psi2 and reads its directions at the nearest non-zero nodes;
    sign changes sit at the closed-form zero."""
    p.check_invariance()
    ts, p1, p2 = p.ts, p.psi1, p.psi2
    zero = np.abs(p1) <= ZERO_TOL
    last = len(ts) - 1
    recs = []
    k = 0
    while k <= last:
        if zero[k]:
            k2 = k
            while k2 + 1 <= last and zero[k2 + 1]:
                k2 += 1
            kind = ("interval" if k2 > k else "left-endpoint" if k == 0
                    else "right-endpoint" if k == last else "interior")
            rec = CrossingRecord(float(ts[k]), kind, 0, 0, node=k)
            if k2 > k:
                rec.t_end, rec.node_end = float(ts[k2]), k2
            recs.append(rec)
            k = k2 + 1
        else:
            if k < last and not zero[k + 1] and (p1[k] < 0) != (p1[k + 1] < 0):
                t = float(ts[k] - p1[k] * (ts[k + 1] - ts[k]) / (p1[k + 1] - p1[k]))
                recs.append(CrossingRecord(t, "interior", 0, 0, node=k))
            k += 1
    for rec in recs:
        if rec.kind == "interval":
            span = np.abs(p2[rec.node:rec.node_end + 1])
            small, where = np.min(span), rec.node + int(np.argmin(span))
            k_lo, k_hi = rec.node, rec.node_end
        elif zero[rec.node]:
            small, where = abs(p2[rec.node]), rec.node
            k_lo = k_hi = rec.node
        else:
            k = rec.node
            w = (rec.t_star - ts[k]) / (ts[k + 1] - ts[k])
            small, where = abs((1 - w) * p2[k] + w * p2[k + 1]), k
            k_lo, k_hi = k, k + 1
        if small <= ZERO_TOL:
            raise InvarianceViolationError("both forms vanish", node=where)
        if zero[k_lo]:
            j_before = _nearest_nonzero(zero, k_lo, -1)
            j_after = _nearest_nonzero(zero, k_hi, +1)
        else:
            j_before, j_after = k_lo, k_hi
        arrival = departure = 0
        if j_before is not None:
            arrival = +1 if _sign_r(p, j_before, -1) < 0 else -1
        if j_after is not None:
            departure = +1 if _sign_r(p, j_after, +1) > 0 else -1
        at_left = rec.kind == "left-endpoint" or (rec.kind == "interval" and rec.node == 0)
        at_right = rec.kind == "right-endpoint" or (
            rec.kind == "interval" and rec.node_end == last)
        rec.contribution = int(not at_left and arrival == 1) - int(
            not at_right and departure == -1)
        rec.direction = arrival if arrival == departure else 0
        if rec.kind == "left-endpoint":
            rec.direction = departure
        elif rec.kind == "right-endpoint":
            rec.direction = arrival
    return recs


def random_short_path(rng):
    """A few nodes whose psi1 holds zero runs, near-zeros on both sides of
    ZERO_TOL and exact sign changes, and whose psi2 holds exact zeros."""
    n = int(rng.integers(2, 12))
    ts = np.cumsum(rng.uniform(0.05, 1.0, n))
    special = np.array([0.0, 0.0, -0.0, 1e-10, -1e-10, 3e-9, -3e-9, 1.0, -1.0])
    psi1 = np.where(rng.random(n) < 0.5, rng.choice(special, n), rng.normal(size=n))
    psi2 = np.where(rng.random(n) < 0.2, 0.0, rng.choice([-2.0, -0.5, 0.5, 1.0], n))
    return path(ts, psi1, psi2)


def outcome(find, p):
    try:
        return find(p), None
    except InvarianceViolationError as err:
        return None, err.node


def test_records_match_the_node_by_node_reference():
    rng = np.random.default_rng(15)
    with_records = refused = 0
    for _ in range(6000):
        p = random_short_path(rng)
        got, got_node = outcome(detect_crossings, p)
        want, want_node = outcome(reference_crossings, p)
        assert got_node == want_node
        assert got == want  # every field, t_star exactly
        with_records += bool(got)
        refused += got_node is not None
    assert with_records > 1000 and refused > 500


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
