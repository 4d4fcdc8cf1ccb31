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

Records come from one scan (`sign_changes`): each maximal run of numeric
zeros of psi1 is one record, and each sign change between adjacent non-zero
nodes is one record at the zero of the linear interpolant (`linear_zero`,
in closed form).  A record's arrival and departure are read at the nodes
just outside its span; a span touching a path end has no node on that side.
The top-shelf eigenvalue search and the loss-point classification find
their zeros with the same two functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import InvalidInputError, InvarianceViolationError

# |psi1| at or below this is a numeric zero (psi values are Gram-normalized,
# so an absolute threshold acts relatively).
ZERO_TOL = 1e-9
RHO_MIN_TOL = 1e-12


@dataclass(frozen=True)
class PathSamples:
    """A sampled path of form values on an increasing parameter grid.

    Every sample must be finite (InvalidInputError): a NaN compares false
    both ways and would hide or invent a crossing.
    """

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
        if not np.all(np.isfinite(ts)):
            raise InvalidInputError("parameter grid must be finite")
        if np.any(np.diff(ts) <= 0):
            raise InvalidInputError("parameter grid must be strictly increasing")
        for name in ("omega1", "omega2", "d", "psi1", "psi2", "rho"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != ts.shape:
                raise InvalidInputError(f"{name} has wrong length")
            if not np.all(np.isfinite(arr)):
                raise InvalidInputError(f"{name} has non-finite samples")
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

    def check_invariance(self):
        bad = np.where(self.rho <= RHO_MIN_TOL)[0]
        if len(bad):
            k = int(bad[0])
            raise InvarianceViolationError(
                f"rho = {self.rho[k]:.3e} <= {RHO_MIN_TOL:g} at node {k}"
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

    Maps a (psi1, psi2) pair, or any positive multiple of it such as
    (omega1, omega2), to the left half circle closed up at (0, +-1);
    crossings sit at (-1, 0).
    """
    w1, w2 = v
    r = np.hypot(w1, w2)
    if not np.isfinite(r):
        raise InvalidInputError("p needs finite form values")
    if r == 0.0:
        raise InvarianceViolationError("p is undefined where both forms vanish")
    p = np.array([w2 / r, w1 / r])
    return -p if w2 > 0 else p


def sign_changes(values, tol: float):
    """Numeric zeros and sign changes of a sampled function.

    Returns the mask of nodes with |value| <= tol and the indices k at which
    nodes k and k+1 are both non-zero and of opposite sign.
    """
    v = np.asarray(values, dtype=float)
    zero = np.abs(v) <= tol
    neg = v < 0
    return zero, np.flatnonzero(~zero[:-1] & ~zero[1:] & (neg[:-1] != neg[1:]))


def linear_zero(t0, t1, f0, f1):
    """Zero of the linear interpolant through (t0, f0) and (t1, f1)."""
    return t0 - f0 * (t1 - t0) / (f1 - f0)


def _sign_r(path: PathSamples, k: int, direction: int) -> int:
    """Sign of r = psi1/psi2 at node k, stepping in `direction` past exact
    psi2 zeros."""
    j = k
    while 0 <= j < len(path.ts):
        if path.psi2[j] != 0.0:
            return 1 if path.psi1[j] / path.psi2[j] > 0 else -1
        j += direction
    raise InvarianceViolationError(
        f"second form vanishes identically around node {k}; the form pair "
        "cannot orient this crossing",
        node=k,
        shelf=path.label or None,
    )


def _spans(zero, changes):
    """(before, after) of every span, ordered by node: the nodes just outside
    each maximal zero run, and k, k+1 for each sign change."""
    flips = np.flatnonzero(np.diff(zero, prepend=False, append=False)).tolist()
    runs = zip([k - 1 for k in flips[::2]], flips[1::2])
    return sorted([*runs, *((k, k + 1) for k in changes.tolist())])


def detect_crossings(path: PathSamples) -> List[CrossingRecord]:
    """Locate all zeros of psi1: isolated nodes, sign changes, and intervals.

    One record per span, in node order: a maximal run of numeric zeros
    (|psi1| <= ZERO_TOL; two or more nodes make an interval record), or a
    sign change between adjacent non-zero nodes, placed at the zero of the
    linear interpolant.  A span's neighbours are the nodes just outside it;
    a side without one is a path edge.  Raises InvarianceViolationError if
    rho vanishes at a node, psi2 vanishes at a crossing, or psi2 is exactly
    zero on every node to one side of a crossing.
    """
    path.check_invariance()
    ts, p1, p2 = path.ts, path.psi1, path.psi2
    last = len(ts) - 1
    records: List[CrossingRecord] = []
    for before, after in _spans(*sign_changes(p1, ZERO_TOL)):
        if after == before + 1:  # a sign change
            t_star = float(linear_zero(ts[before], ts[after], p1[before], p1[after]))
            rec = CrossingRecord(t_star=t_star, kind="interior", direction=0,
                                 contribution=0, node=before)
            w = (t_star - ts[before]) / (ts[after] - ts[before])
            small, where = abs((1 - w) * p2[before] + w * p2[after]), before
        else:
            lo, hi = before + 1, after - 1
            rec = CrossingRecord(t_star=float(ts[lo]), kind="interior", direction=0,
                                 contribution=0, node=lo)
            if hi > lo:
                rec.kind, rec.t_end, rec.node_end = "interval", float(ts[hi]), hi
            elif lo == 0:
                rec.kind = "left-endpoint"
            elif lo == last:
                rec.kind = "right-endpoint"
            where = lo + int(np.argmin(np.abs(p2[lo:hi + 1])))
            small = abs(p2[where])
        if small <= ZERO_TOL:
            raise InvarianceViolationError(
                f"both forms vanish at the crossing near t = {rec.t_star:.6g} "
                f"(|psi2| = {small:.3e})",
                node=where,
                shelf=path.label or None,
            )
        # +1 counterclockwise: r rises to 0 on arrival and leaves 0 upward on
        # departure; a path edge has no side there (0)
        arrival = -_sign_r(path, before, -1) if before >= 0 else 0
        departure = _sign_r(path, after, +1) if after <= last else 0
        rec.contribution = int(arrival == 1) - int(departure == -1)
        if rec.kind == "left-endpoint":
            rec.direction = departure
        elif rec.kind == "right-endpoint":
            rec.direction = arrival
        else:  # 0 for a tangential touch or a one-sided interval
            rec.direction = arrival if arrival == departure else 0
        records.append(rec)
    return records


def winding_index(path: PathSamples):
    """Total index of the path plus its crossing records."""
    records = detect_crossings(path)
    return sum(r.contribution for r in records), records
