"""Boundary-value eigenvalue counting over the parameter rectangle.

The rectangle [0,1] x [lambda1, lambda2] carries four shelves: bottom (x=0,
lambda rising), right (lambda=lambda2, x rising), top (x=1, lambda rising in
storage, traversed downward in the loop) and left (lambda=lambda1).  The
boundary index decomposes as

    m_frak = ind_bottom + ind_right - ind_top - ind_left

and the eigenvalue count on [lambda1, lambda2] is bounded below by
|ind_left + m_frak|.  Under the structural assumption on the coefficients the
left-shelf crossings are monotone, so ind_left is a direct count of the
renormalized intersections in (0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import _kernels
from .errors import InvalidInputError, RankDeficiencyError, ShelfAssertionError
from .multilinear import BlockLambdaMatrix, Frame, build_A_tilde, psi_rho
from .propagation import CoefficientField, integrate_frame, propagate_lambda_grid
from .winding import PathSamples, detect_crossings, winding_index

SHELVES = ("bottom", "right", "top", "left")


@dataclass(frozen=True)
class SpectralProblem:
    """A first-order system y' = A(x; lambda) y with subspace boundary data.

    P frames the admissible space at x=0, Q the one at x=1; their dimensions
    must be complementary.  Instances are immutable and cache propagated
    paths on first use; make variants with dataclasses.replace, which starts
    the copy with an empty cache.
    """

    field: CoefficientField
    P: Frame
    Q: Frame
    lambda1: float
    lambda2: float
    x_steps: int = 1000
    lambda_steps: int = 600
    rescale: bool = True
    _cache: dict = dc_field(default_factory=dict, init=False, repr=False,
                            compare=False)

    def __post_init__(self):
        n = self.field.n
        if self.P.rows != n or self.Q.rows != n:
            raise InvalidInputError("boundary frames must have n rows")
        if self.P.cols + self.Q.cols != n:
            raise InvalidInputError(
                f"dim P + dim Q must equal n: {self.P.cols} + {self.Q.cols} != {n}"
            )
        if not self.lambda1 < self.lambda2:
            raise InvalidInputError("need lambda1 < lambda2")
        if self.x_steps < 2 or self.lambda_steps < 2:
            raise InvalidInputError("grid resolutions must be at least 2")

    # -- cached building blocks -------------------------------------------

    @property
    def n(self) -> int:
        return self.field.n

    @property
    def m(self) -> int:
        return self.P.cols

    def x_grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.x_steps + 1)

    def lambda_grid(self) -> np.ndarray:
        return np.linspace(self.lambda1, self.lambda2, self.lambda_steps + 1)

    def a_tilde(self) -> BlockLambdaMatrix:
        if "a_tilde" not in self._cache:
            self._cache["a_tilde"] = build_A_tilde(self)
        return self._cache["a_tilde"]

    def h_path(self):
        if "h_path" not in self._cache:
            self._cache["h_path"] = integrate_frame(
                self.field, self.Q.entries, 1.0, 0.0, self.x_steps,
                self.lambda2, self.rescale,
            )
        return self._cache["h_path"]

    def g_path(self, lam: float):
        key = ("g_path", float(lam))
        if key not in self._cache:
            self._cache[key] = integrate_frame(
                self.field, self.P.entries, 0.0, 1.0, self.x_steps, lam, self.rescale
            )
        return self._cache[key]

    def lambda_grid_frames(self) -> np.ndarray:
        """G frames for every lambda grid line, shape (L, x_steps+1, n, m)."""
        if "lambda_grid_frames" not in self._cache:
            _, frames, _ = propagate_lambda_grid(
                self.field, self.P.entries, self.lambda_grid(),
                0.0, 1.0, self.x_steps, self.rescale,
            )
            self._cache["lambda_grid_frames"] = frames
        return self._cache["lambda_grid_frames"]


@dataclass
class MaslovBoxReport:
    ind_bottom: int
    ind_right: int
    ind_top: int
    ind_left: int
    m_frak: int
    lower_bound: int
    left_crossings: List[float]
    eigenvalues: List[float]
    monotonicity_violations: List[Tuple[float, float]]
    audit_ratios: List[Tuple[float, float]]
    degenerate_candidates: List[float]
    shelf_samples: Dict[str, PathSamples] = dc_field(default_factory=dict, repr=False)
    shelf_records: dict = dc_field(default_factory=dict, repr=False)

    def to_dict(self) -> dict:
        return {
            "ind_bottom": self.ind_bottom,
            "ind_right": self.ind_right,
            "ind_top": self.ind_top,
            "ind_left": self.ind_left,
            "m_frak": self.m_frak,
            "lower_bound": self.lower_bound,
            "left_crossings": list(self.left_crossings),
            "eigenvalues": list(self.eigenvalues),
            "monotonicity_violations": [list(v) for v in self.monotonicity_violations],
            "audit_ratios": [list(v) for v in self.audit_ratios],
            "degenerate_candidates": list(self.degenerate_candidates),
        }


def normalized_forms(w1, w2, d, where: str):
    """psi1 = omega1 / d and psi2 = omega2 / d, refusing non-finite values.

    A non-finite psi means a propagated frame collapsed (d = 0 or NaN):
    column rescaling does not keep the columns of a stiff multi-column frame
    independent.  Raises RankDeficiencyError naming `where`.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        psi1 = w1 / d
        psi2 = w2 / d
    if not (np.all(np.isfinite(psi1)) and np.all(np.isfinite(psi2))):
        raise RankDeficiencyError(
            f"non-finite psi on {where}: a propagated frame collapsed "
            "(rank-deficient)"
        )
    return psi1, psi2


def _samples_from_tables(ts, w1, w2, d, label) -> PathSamples:
    psi1, psi2 = normalized_forms(w1, w2, d, f"the {label} shelf")
    return PathSamples(
        ts=ts, omega1=w1, omega2=w2, d=d, psi1=psi1, psi2=psi2,
        rho=0.5 * (psi1 ** 2 + psi2 ** 2), label=label,
    )


def shelf_path(problem: SpectralProblem, shelf: str) -> PathSamples:
    """Form values along one shelf, parameter increasing.

    The H family is always the one propagated at lambda2; the bottom and top
    shelves vary lambda with x pinned at 0 and 1, the left and right shelves
    vary x at pinned lambda.
    """
    if shelf not in SHELVES:
        raise InvalidInputError(f"shelf must be one of {SHELVES}")
    AT = problem.a_tilde()
    ATg, ATh = AT.block_g, AT.block_h
    hp = problem.h_path()

    if shelf == "bottom":
        lams = problem.lambda_grid()
        v = psi_rho(problem.P.entries, hp.frames[0], AT)
        const = lambda val: np.full(len(lams), val)
        return PathSamples(
            ts=lams, omega1=const(v.omega1), omega2=const(v.omega2),
            d=const(v.d), psi1=const(v.psi1), psi2=const(v.psi2),
            rho=const(v.rho), label="bottom",
        )
    if shelf == "top":
        lams = problem.lambda_grid()
        g_end = problem.lambda_grid_frames()[:, -1]
        w1, w2, d = _kernels.omega_tables(g_end, problem.Q.entries, ATg, ATh)
        return _samples_from_tables(lams, w1, w2, d, "top")

    lam = problem.lambda2 if shelf == "right" else problem.lambda1
    gp = problem.g_path(lam)
    w1, w2, d = _kernels.omega_tables(gp.frames, hp.frames, ATg, ATh)
    return _samples_from_tables(gp.xs, w1, w2, d, shelf)


# -- consistent-scale local evaluation ------------------------------------


def omega_at_points(problem: SpectralProblem, lam: float, points):
    """Raw form values at arbitrary x locations in one consistent scale.

    Integrates fresh, without rescaling, visiting the requested points in
    order, so finite differences of omega1 across nearby points are
    meaningful.  Returns (w1, w2, d) arrays aligned with `points`.
    """
    pts = np.asarray(points, dtype=float)
    if np.any(pts < 0) or np.any(pts > 1):
        raise InvalidInputError("points must lie in [0, 1]")
    order = np.argsort(pts)
    AT = problem.a_tilde()

    def leg(Fstart, x0, x1, lam_leg):
        steps = max(4, int(np.ceil(abs(x1 - x0) * 2 * problem.x_steps)))
        path = integrate_frame(problem.field, Fstart, x0, x1, steps, lam_leg, False)
        idx = -1 if x1 > x0 else 0
        return path.frames[idx]

    G = np.empty(pts.shape + problem.P.entries.shape)
    F = problem.P.entries
    x_cur = 0.0
    for i in order:
        x = pts[i]
        if x > x_cur:
            F = leg(F, x_cur, x, lam)
            x_cur = x
        G[i] = F
    H = np.empty(pts.shape + problem.Q.entries.shape)
    F = problem.Q.entries
    x_cur = 1.0
    for i in order[::-1]:
        x = pts[i]
        if x < x_cur:
            F = leg(F, x_cur, x, problem.lambda2)
            x_cur = x
        H[i] = F
    return _kernels.omega_tables(G, H, AT.block_g, AT.block_h)


def psi_window(problem: SpectralProblem, lams, x_lo: float, x_hi: float, nx: int):
    """psi1, psi2 at every lambda of `lams` on the window x_lo <= x <= x_hi.

    A coarse lead leg carries the G family from x = 0 to x_lo at every
    lambda in one batch, and the H family from x = 1 to x_hi at lambda2 once
    (max(4, ceil(dx * x_steps)) steps each); fine legs of `nx` steps then
    cover the window.  nx = 0 with x_lo == x_hi evaluates one point.  Every
    leg follows problem.rescale.  Returns xs (nx+1,) and psi1, psi2 shaped
    (len(lams), nx+1); a collapsed frame raises RankDeficiencyError.
    """
    if not (0.0 <= x_lo <= x_hi <= 1.0 and (nx > 0) == (x_lo < x_hi)):
        raise InvalidInputError(
            "need 0 <= x_lo <= x_hi <= 1, with nx = 0 exactly when x_lo == x_hi"
        )
    lams = np.asarray(lams, dtype=float)
    field, rescale = problem.field, problem.rescale

    def lead_steps(dx):
        return max(4, int(np.ceil(dx * problem.x_steps)))

    G = problem.P.entries
    if x_lo > 0.0:
        G = propagate_lambda_grid(field, G, lams, 0.0, x_lo, lead_steps(x_lo),
                                  rescale)[1][:, -1]
    H = problem.Q.entries
    if x_hi < 1.0:
        H = integrate_frame(field, H, 1.0, x_hi, lead_steps(1.0 - x_hi),
                            problem.lambda2, rescale).frames[0]
    if nx:
        G = propagate_lambda_grid(field, G, lams, x_lo, x_hi, nx, rescale)[1]
        H = integrate_frame(field, H, x_hi, x_lo, nx, problem.lambda2, rescale).frames
    else:
        G = np.broadcast_to(G, lams.shape + G.shape[-2:])[:, None]
    AT = problem.a_tilde()
    w1, w2, d = _kernels.omega_tables(G, H, AT.block_g, AT.block_h)
    psi1, psi2 = normalized_forms(w1, w2, d, "a psi window")
    return np.linspace(x_lo, x_hi, nx + 1), psi1, psi2


def psi_point(problem: SpectralProblem, x: float, lam: float):
    """Normalized form values (psi1, psi2, rho) at one point."""
    _, p1, p2 = psi_window(problem, [lam], x, x, 0)
    p1, p2 = float(p1[0, 0]), float(p2[0, 0])
    return p1, p2, 0.5 * (p1 * p1 + p2 * p2)


def derivative_identity_residual(problem: SpectralProblem, x: float, lam: float,
                                 h: Optional[float] = None) -> float:
    """Relative mismatch between a finite-difference d(omega1)/dx and

        trace(A) * omega1 + (lambda2-lambda)/(lambda2-lambda1) * omega2

    evaluated on a five-point stencil in one consistent scale.
    """
    if h is None:
        h = 0.25 / problem.x_steps
    if not 2 * h < min(x, 1.0 - x):
        raise InvalidInputError("stencil leaves [0, 1]; move x inward")
    pts = [x - 2 * h, x - h, x, x + h, x + 2 * h]
    w1, w2, _ = omega_at_points(problem, lam, pts)
    fd = (-w1[4] + 8 * w1[3] - 8 * w1[1] + w1[0]) / (12 * h)
    tr = float(np.trace(np.asarray(problem.field.evaluate(x, lam))))
    frac = (problem.lambda2 - lam) / (problem.lambda2 - problem.lambda1)
    rhs = tr * w1[2] + frac * w2[2]
    denom = max(abs(fd), abs(rhs))
    if denom == 0.0:
        return 0.0
    return abs(fd - rhs) / denom


def monotonicity_audit(problem: SpectralProblem) -> List[Tuple[float, float]]:
    """Finite-difference check that d(omega1)/dx / omega2 = 1 at left-shelf
    crossings.  Returns (x_star, ratio) pairs; under the structural
    assumption each ratio should be 1 to a few parts in a thousand.
    """
    samples = shelf_path(problem, "left")
    records = detect_crossings(samples)
    h = 1.0 / problem.x_steps
    out = []
    for rec in records:
        if rec.kind != "interior":
            continue
        x_star = rec.t_star
        if not h < x_star < 1.0 - h:
            continue
        w1, w2, _ = omega_at_points(
            problem, problem.lambda1, [x_star - h, x_star, x_star + h]
        )
        ratio = (w1[2] - w1[0]) / (2 * h * w2[1])
        out.append((float(x_star), float(ratio)))
    return out


# -- eigenvalue localization on the top shelf ------------------------------


def _psi1_at_one(problem: SpectralProblem, lams: np.ndarray) -> np.ndarray:
    """psi1(1; lambda) for a batch of lambda values."""
    return psi_window(problem, lams, 1.0, 1.0, 0)[1][:, 0]


# Bisection rounds taken per sweep; depths 3-6 were measured, 4 was fastest.
_TREE_DEPTH = 4


def _bisection_tree(a, b, depth):
    """Every midpoint that `depth` rounds of bisection of [a, b] can form.

    Returns (len(a), 2**depth - 1) in heap order: node k halves the interval
    its parent's round left, into children 2k+1 (lower half) and 2k+2 (upper
    half).  Each node is 0.5 * (lo + hi) of its own interval's floats, so a
    path down the tree reproduces sequential bisection's midpoints exactly.
    """
    lo, hi = a[:, None], b[:, None]
    mids = np.empty((len(a), 2 ** depth - 1))
    for level in range(depth):
        mid = 0.5 * (lo + hi)
        mids[:, 2 ** level - 1:2 ** (level + 1) - 1] = mid
        lo = np.stack([lo, mid], axis=2).reshape(len(a), -1)
        hi = np.stack([mid, hi], axis=2).reshape(len(a), -1)
    return mids


def _localize_top(problem: SpectralProblem, tol: float):
    """Eigenvalues (zeros of psi1(1; .)) and degenerate candidates.

    Sign-change brackets between top-shelf nodes are bisected in lockstep
    until every width is <= tol.  One sweep evaluates a depth-_TREE_DEPTH
    bisection tree per bracket in a single batch and then descends it with
    the sequential update rule, testing the width before each level.  The
    midpoints and rounds are those of one-midpoint-per-round bisection, with
    a quarter of the sweeps; psi1 at a midpoint does not depend on its batch.
    """
    top = shelf_path(problem, "top")
    lams = top.ts
    p1 = top.psi1
    zero = np.abs(p1) <= 1e-9
    eigs = [float(lams[k]) for k in np.where(zero)[0]]

    # brackets from sign changes between non-zero nodes
    a_list, b_list, fa_list = [], [], []
    for k in range(len(lams) - 1):
        if zero[k] or zero[k + 1]:
            continue
        if (p1[k] < 0) != (p1[k + 1] < 0):
            a_list.append(lams[k])
            b_list.append(lams[k + 1])
            fa_list.append(p1[k])
    if a_list:
        a = np.array(a_list)
        b = np.array(b_list)
        fa = np.array(fa_list)
        rows = np.arange(len(a))
        while np.max(b - a) > tol:
            mids = _bisection_tree(a, b, _TREE_DEPTH)
            fms = _psi1_at_one(problem, mids.ravel()).reshape(mids.shape)
            node = np.zeros(len(a), dtype=int)  # heap index: children 2k+1, 2k+2
            for _ in range(_TREE_DEPTH):
                if not np.max(b - a) > tol:
                    break
                mid, fm = mids[rows, node], fms[rows, node]
                left = (fm < 0) == (fa < 0)
                a = np.where(left, mid, a)
                fa = np.where(left, fm, fa)
                b = np.where(left, b, mid)
                node = 2 * node + 1 + left
        eigs.extend(float(v) for v in 0.5 * (a + b))

    # dips below 1e-7 that never change sign: degenerate candidates
    degenerate = []
    absr = np.abs(p1)
    for k in range(1, len(lams) - 1):
        if zero[k] or absr[k] >= 1e-7:
            continue
        if absr[k] <= absr[k - 1] and absr[k] <= absr[k + 1]:
            if (p1[k - 1] < 0) == (p1[k + 1] < 0):
                degenerate.append(float(lams[k]))
    return sorted(eigs), degenerate


def localize_eigenvalues_top(problem: SpectralProblem, tol: float = 1e-8) -> List[float]:
    """Zeros of psi1(1; .) on the spectral interval, bisected to width <= tol.

    These are exactly the lambda at which the forward family meets the
    boundary space at x=1, i.e. the eigenvalues.  Each sweep evaluates a
    bisection tree whose nodes are the midpoints sequential bisection would
    form, so the search takes sequential bisection's midpoints and rounds.
    Non-sign-changing dips are reported separately by compute_box as
    degenerate candidates.
    """
    eigs, _ = _localize_top(problem, tol)
    return eigs


def renormalized_count(problem: SpectralProblem):
    """Count of x in (0, 1] where the lambda1-family meets the lambda2-family.

    Requires the structural assumption (monotone crossings); a crossing
    sitting exactly at x=0 is a departure and does not count.
    Returns (count, crossing locations).
    """
    if not problem.field.structure_b:
        raise InvalidInputError(
            "renormalized count needs the structural assumption on A(x; lambda)"
        )
    samples = shelf_path(problem, "left")
    records = detect_crossings(samples)
    xs = [r.t_star for r in records if r.kind != "left-endpoint"]
    return len(xs), xs


def compute_box(problem: SpectralProblem, eig_tol: float = 1e-8) -> MaslovBoxReport:
    """Assemble all four shelves into indices, m_frak and the lower bound."""
    samples = {shelf: shelf_path(problem, shelf) for shelf in SHELVES}
    for shelf in SHELVES:
        samples[shelf].check_invariance()

    indices = {}
    records = {}
    for shelf in SHELVES:
        indices[shelf], records[shelf] = winding_index(samples[shelf])

    for shelf in ("bottom", "right"):
        if indices[shelf] != 0:
            raise ShelfAssertionError(
                f"{shelf} shelf index must vanish, got {indices[shelf]}"
            )

    m_frak = indices["bottom"] + indices["right"] - indices["top"] - indices["left"]
    lower = abs(indices["left"] + m_frak)
    left_crossings = [r.t_star for r in records["left"]]

    eigs, degenerate = _localize_top(problem, eig_tol)

    ratios = monotonicity_audit(problem) if problem.field.structure_b else []
    violations = [(x, r) for (x, r) in ratios if abs(r - 1.0) > 1e-3]

    return MaslovBoxReport(
        ind_bottom=indices["bottom"],
        ind_right=indices["right"],
        ind_top=indices["top"],
        ind_left=indices["left"],
        m_frak=m_frak,
        lower_bound=lower,
        left_crossings=left_crossings,
        eigenvalues=eigs,
        monotonicity_violations=violations,
        audit_ratios=ratios,
        degenerate_candidates=degenerate,
        shelf_samples=samples,
        shelf_records=records,
    )
