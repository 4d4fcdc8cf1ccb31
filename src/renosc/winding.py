"""Projective winding index of a sampled (psi1, psi2) path.

The index counts passages of the tracked circle point through (-1, 0), which
happen exactly where psi1 = 0.  Counting conventions:

* interior transversal crossing: +1 counterclockwise, -1 clockwise;
* a crossing sitting at the path's left endpoint contributes only on
  departure, and only -1 if the departure is clockwise;
* a crossing at the right endpoint contributes only on arrival, and only +1
  if the arrival is counterclockwise;
* an interval of persistent zeros contributes on arrival and departure by the
  same two rules.

Near a crossing the rotation direction is the sign of the derivative of
r = psi1/psi2, so arrivals are counterclockwise when r approaches 0 from
below and departures are counterclockwise when r leaves 0 upward.  The
unified rule used here: contribution = (+1 if the arrival is
counterclockwise) + (-1 if the departure is clockwise), dropping the missing
side at path endpoints.  A tangential touch (same sign of r on both sides)
nets 0 and is flagged with direction 0 for review.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import InvalidInputError, InvarianceViolationError
from .multilinear import OmegaPairValue

# |psi1| at or below this is a numeric zero (psi values are Gram-normalized,
# so an absolute threshold acts relatively).
ZERO_TOL = 1e-9
# Bisection width target when refining a sign-change location.
REFINE_TOL = 1e-10
RHO_MIN_TOL = 1e-12


@dataclass(frozen=True)
class PathSamples:
    """A sampled path of form values on an increasing parameter grid."""

    ts: np.ndarray
    omega1: np.ndarray
    omega2: np.ndarray
    d: np.ndarray
    psi1: np.ndarray
    psi2: np.ndarray
    rho: np.ndarray
    label: str = ""

    def __post_init__(self):
        ts = np.asarray(self.ts, dtype=float)
        if ts.ndim != 1 or len(ts) < 2:
            raise InvalidInputError("need at least two samples")
        if np.any(np.diff(ts) <= 0):
            raise InvalidInputError("parameter grid must be strictly increasing")
        for name in ("omega1", "omega2", "d", "psi1", "psi2", "rho"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != ts.shape:
                raise InvalidInputError(f"{name} has wrong length")
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "ts", ts)

    @classmethod
    def from_psi(cls, ts, psi1, psi2, label=""):
        """Build from normalized values only (d = 1); handy for synthetic paths."""
        psi1 = np.asarray(psi1, dtype=float)
        psi2 = np.asarray(psi2, dtype=float)
        rho = 0.5 * (psi1 ** 2 + psi2 ** 2)
        return cls(
            ts=np.asarray(ts, dtype=float),
            omega1=psi1.copy(),
            omega2=psi2.copy(),
            d=np.ones_like(psi1),
            psi1=psi1,
            psi2=psi2,
            rho=rho,
            label=label,
        )

    def check_invariance(self, tol: float = RHO_MIN_TOL):
        bad = np.where(self.rho <= tol)[0]
        if len(bad):
            k = int(bad[0])
            raise InvarianceViolationError(
                f"rho = {self.rho[k]:.3e} <= {tol:g} at node {k}"
                + (f" of {self.label}" if self.label else ""),
                node=k,
                shelf=self.label or None,
            )


@dataclass
class CrossingRecord:
    t_star: float
    kind: str  # interior | left-endpoint | right-endpoint | interval
    direction: int  # +1 counterclockwise, -1 clockwise, 0 tangential touch
    contribution: int
    t_end: Optional[float] = None  # right edge of an interval record
    node: Optional[int] = None
    node_end: Optional[int] = None


def p_point(v) -> np.ndarray:
    """Unit-circle point tracked by the index.

    Maps the projective pair [omega1 : omega2] to the left half circle closed
    up at (0, +-1); crossings sit at (-1, 0).
    """
    w1, w2 = (v.psi1, v.psi2) if isinstance(v, OmegaPairValue) else (v[0], v[1])
    r = np.hypot(w1, w2)
    if r == 0.0:
        raise InvarianceViolationError("p is undefined where both forms vanish")
    p = np.array([w2 / r, w1 / r])
    return -p if w2 > 0 else p


def _refine_zero(t0, t1, f0, f1, tol=REFINE_TOL):
    """Bisect the linear interpolant of psi1 between two bracketing nodes."""
    a, b, fa = t0, t1, f0
    slope = (f1 - f0) / (t1 - t0)
    while b - a > tol:
        mid = 0.5 * (a + b)
        fm = f0 + slope * (mid - t0)
        if fm == 0.0:
            return mid
        if (fm < 0) == (fa < 0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


def _sign_r(path: PathSamples, k: int, direction: int = 0) -> int:
    """Sign of r = psi1/psi2 at node k; steps outward past exact psi2 zeros."""
    j = k
    while 0 <= j < len(path.ts):
        if path.psi2[j] != 0.0:
            return 1 if path.psi1[j] / path.psi2[j] > 0 else -1
        if direction == 0:
            break
        j += direction
    raise InvarianceViolationError(
        f"second form vanishes identically around node {k}; the form pair "
        "cannot orient this crossing",
        node=k,
        shelf=path.label or None,
    )


def _nearest_nonzero(zero_mask, k, direction):
    j = k + direction
    while 0 <= j < len(zero_mask) and zero_mask[j]:
        j += direction
    if 0 <= j < len(zero_mask):
        return j
    return None


def detect_crossings(
    path: PathSamples, zero_tol: float = ZERO_TOL, refine_tol: float = REFINE_TOL
) -> List[CrossingRecord]:
    """Locate all zeros of psi1: isolated nodes, sign changes, and intervals.

    Sign changes between adjacent non-zero nodes are refined on the linear
    interpolant; two or more consecutive numeric zeros merge into a single
    interval record.  Raises InvarianceViolationError if rho vanishes at a
    node.
    """
    path.check_invariance()
    p1 = path.psi1
    ts = path.ts
    zero = np.abs(p1) <= zero_tol
    records: List[CrossingRecord] = []
    last = len(ts) - 1

    k = 0
    while k <= last:
        if zero[k]:
            k2 = k
            while k2 + 1 <= last and zero[k2 + 1]:
                k2 += 1
            if k2 > k:
                rec = CrossingRecord(
                    t_star=float(ts[k]), kind="interval", direction=0,
                    contribution=0, t_end=float(ts[k2]), node=k, node_end=k2,
                )
            elif k == 0:
                rec = CrossingRecord(
                    t_star=float(ts[0]), kind="left-endpoint", direction=0,
                    contribution=0, node=0,
                )
            elif k == last:
                rec = CrossingRecord(
                    t_star=float(ts[last]), kind="right-endpoint", direction=0,
                    contribution=0, node=last,
                )
            else:
                rec = CrossingRecord(
                    t_star=float(ts[k]), kind="interior", direction=0,
                    contribution=0, node=k,
                )
            records.append(rec)
            k = k2 + 1
        else:
            if k < last and not zero[k + 1] and (p1[k] < 0) != (p1[k + 1] < 0):
                t_star = _refine_zero(ts[k], ts[k + 1], p1[k], p1[k + 1], refine_tol)
                records.append(
                    CrossingRecord(
                        t_star=float(t_star), kind="interior", direction=0,
                        contribution=0, node=k,
                    )
                )
            k += 1

    _assign_directions(path, records, zero)
    return records


def _check_crossing_nondegenerate(path, rec, zero_mask, tol=ZERO_TOL):
    """Both forms vanishing at a crossing means invariance fails right there."""
    if rec.kind == "interval":
        span = slice(rec.node, rec.node_end + 1)
        small = np.min(np.abs(path.psi2[span]))
        where = rec.node + int(np.argmin(np.abs(path.psi2[span])))
    elif rec.node is not None and zero_mask[rec.node]:
        small = abs(path.psi2[rec.node])
        where = rec.node
    else:
        k = rec.node
        t0, t1 = path.ts[k], path.ts[k + 1]
        w = (rec.t_star - t0) / (t1 - t0)
        small = abs((1 - w) * path.psi2[k] + w * path.psi2[k + 1])
        where = k
    if small <= tol:
        raise InvarianceViolationError(
            f"both forms vanish at the crossing near t = {rec.t_star:.6g} "
            f"(|psi2| = {small:.3e})",
            node=where,
            shelf=path.label or None,
        )


def _assign_directions(path, records, zero_mask):
    """Fill direction and contribution on each record in place."""
    last = len(path.ts) - 1
    for rec in records:
        _check_crossing_nondegenerate(path, rec, zero_mask)
        if rec.kind == "interval":
            k_lo, k_hi = rec.node, rec.node_end
        elif rec.node is not None and zero_mask[rec.node]:
            k_lo = k_hi = rec.node
        else:
            # sign-change crossing between node and node+1
            k_lo, k_hi = rec.node, rec.node + 1

        if zero_mask[k_lo] or rec.kind == "interval":
            j_before = _nearest_nonzero(zero_mask, k_lo, -1)
            j_after = _nearest_nonzero(zero_mask, k_hi, +1)
        else:
            j_before, j_after = k_lo, k_hi

        arrival = 0
        departure = 0
        if j_before is not None:
            # r approaching 0 from below turns counterclockwise
            arrival = +1 if _sign_r(path, j_before, -1) < 0 else -1
        if j_after is not None:
            departure = +1 if _sign_r(path, j_after, +1) > 0 else -1

        at_left_edge = rec.kind == "left-endpoint" or (
            rec.kind == "interval" and rec.node == 0
        )
        at_right_edge = rec.kind == "right-endpoint" or (
            rec.kind == "interval" and rec.node_end == last
        )
        contribution = 0
        if not at_left_edge and arrival == +1:
            contribution += 1
        if not at_right_edge and departure == -1:
            contribution -= 1

        if arrival == +1 and departure == +1:
            rec.direction = +1
        elif arrival == -1 and departure == -1:
            rec.direction = -1
        else:
            rec.direction = 0  # tangential touch or endpoint one-sided case
        if rec.kind in ("left-endpoint", "right-endpoint"):
            # one-sided difference fixes the record's direction at endpoints
            rec.direction = departure if rec.kind == "left-endpoint" else arrival
        rec.contribution = contribution


def winding_index(path: PathSamples):
    """Total index of the path plus its crossing records."""
    records = detect_crossings(path)
    return sum(r.contribution for r in records), records
