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

A SpectralProblem caches its H path, side-shelf legs and top-edge frames,
whose source it alone decides; psi windows and points start from those
legs and sweep their own short chains uncached.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import _kernels
from .errors import InvalidInputError, RankDeficiencyError, ShelfAssertionError
from .multilinear import BlockLambdaMatrix, Frame, build_A_tilde
from .propagation import (CoefficientField, _step_count, chain_prefix, integrate_frame,
                          march_chain, propagate_chains, uniform_chain)
from .winding import (ZERO_TOL, PathSamples, detect_crossings, linear_zero, sign_changes,
                      winding_index)

SHELVES = ("bottom", "right", "top", "left")
# Bracket width to which top-shelf eigenvalues are localized.
EIG_TOL = 1e-8


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
        if not -np.inf < self.lambda1 < self.lambda2 < np.inf:
            raise InvalidInputError("need finite lambda1 < lambda2")
        try:
            for name in ("x_steps", "lambda_steps"):
                object.__setattr__(self, name, _step_count(getattr(self, name), least=2))
        except InvalidInputError as exc:
            raise InvalidInputError(f"grid resolutions must be at least 2: {exc}") from None

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
        """The G family's leg at lam, one sweep of its own, cached (the left
        and right shelves' legs)."""
        key = ("g_path", float(lam))
        if key not in self._cache:
            self._cache[key] = integrate_frame(
                self.field, self.P.entries, 0.0, 1.0, self.x_steps, lam, self.rescale
            )
        return self._cache[key]

    def march(self):
        """The grid leg marched over the whole lambda grid, x-block by
        x-block (propagation.march_chain).  A march run to its end keeps an
        x-dependent leg's last node as the top frames (top_frames)."""
        for k0, frames in march_chain(self.field, self.P.entries, self.lambda_grid(), 0.0,
                                      [(1.0, self.x_steps)], self.rescale):
            yield k0, frames
        if not self.uniform_leg():
            self._cache["top_frames"] = frames[:, -1].copy()

    def uniform_leg(self) -> bool:
        """Whether the grid leg is x-uniform (propagation.uniform_chain)."""
        return uniform_chain(self.field, 0.0, [(1.0, self.x_steps)])

    def top_frames(self) -> np.ndarray:
        """G frames at x = 1 for every lambda grid line, shape (L, n, m), cached.

        An x-dependent leg's are the last node of its march (self.march),
        the same routine whether the full-grid pass (invariance._psi_grids)
        ran it or this call runs it alone.  An x-uniform leg's are the whole
        leg's prefix (propagation.chain_prefix), one endpoint sweep, which
        chains its one step matrix by squaring.
        """
        if "top_frames" not in self._cache:
            if self.uniform_leg():
                self._cache["top_frames"] = chain_prefix(
                    self.field, self.P.entries, self.lambda_grid(), 0.0, [(1.0, self.x_steps)],
                    self.x_steps, self.rescale)[1][:, -1]
            else:
                for _ in self.march():
                    pass
        return self._cache["top_frames"]


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

    if shelf == "top":  # x = 1, where H is Q itself: no H sweep
        lams = problem.lambda_grid()
        w1, w2, d = _kernels.omega_tables(problem.top_frames(), problem.Q.entries, ATg, ATh)
        return _samples_from_tables(lams, w1, w2, d, "top")
    hp = problem.h_path()
    if shelf == "bottom":  # x = 0 does not depend on lambda: one node, repeated
        lams = problem.lambda_grid()
        tables = _kernels.omega_tables(problem.P.entries[None], hp.frames[0], ATg, ATh)
        return _samples_from_tables(lams, *(np.repeat(t, len(lams)) for t in tables),
                                    "bottom")

    lam = problem.lambda2 if shelf == "right" else problem.lambda1
    gp = problem.g_path(lam)
    w1, w2, d = _kernels.omega_tables(gp.frames, hp.frames, ATg, ATh)
    return _samples_from_tables(gp.xs, w1, w2, d, shelf)


# -- consistent-scale local evaluation ------------------------------------


def _gap_steps(problem: SpectralProblem, dx):
    """RK4 steps over a gap dx off the grid: max(4, ceil(dx * x_steps)).

    A psi window's tail from its grid node spans less than one cell and so
    takes 4 steps; omega_at_points applies the rule to every gap between
    its points.
    """
    return np.maximum(4, np.ceil(dx * problem.x_steps).astype(int))


def omega_at_points(problem: SpectralProblem, lam: float, points):
    """Raw form values at arbitrary x locations in one consistent scale.

    Each family makes one unrescaled sweep from its boundary through the
    points in order (each gap one run of _gap_steps steps), so finite
    differences of omega1 across nearby points are meaningful.  Both sweeps
    share one base_table call and are not cached.  Returns (w1, w2, d)
    arrays shaped like `points`.
    """
    pts = np.asarray(points, dtype=float)
    if not np.all((pts >= 0.0) & (pts <= 1.0)):
        raise InvalidInputError("points must lie in [0, 1]")
    if not np.isfinite(lam):
        raise InvalidInputError("lambda must be finite")
    xs, where = np.unique(pts, return_inverse=True)
    chains, nodes = [], []
    for init, at_lam, x0, stops in ((problem.P.entries, lam, 0.0, xs),
                                    (problem.Q.entries, problem.lambda2, 1.0, xs[::-1])):
        gaps = np.abs(np.diff(np.concatenate(([x0], stops))))
        steps = np.where(gaps > 0, _gap_steps(problem, gaps), 0)  # a point at x0 takes none
        chains.append((init, [at_lam], x0, [(x, s) for x, s in zip(stops, steps) if s]))
        nodes.append(np.cumsum(steps))  # each point's node in its sweep
    (_, G), (_, H) = propagate_chains(problem.field, chains, False)
    G, H = G[0, nodes[0]], H[0, nodes[1][::-1]]
    where = where.reshape(pts.shape)
    AT = problem.a_tilde()
    return _kernels.omega_tables(G[where], H[where], AT.block_g, AT.block_h)


def psi_window(problem: SpectralProblem, lams, x_lo: float, x_hi: float, nx: int):
    """psi1, psi2 at every lambda of `lams` on the window x_lo <= x <= x_hi.

    Both families start on the grid.  G reaches x_k, the last node of
    problem.x_grid() at or below x_lo, by the first k steps of the grid leg
    (the chain that the full-grid pass and top_frames sweep), with that
    leg's cached half-step table and step coefficients; H starts from
    h_path's frame at x_j, the first node at or above x_hi (Q when j =
    x_steps).  Each family then runs a tail from its node to the window's
    near edge (_gap_steps steps, none when the edge is the node) and `nx`
    steps across the window; both families' tails and windows share one
    base_table call and are not cached.  nx = 0 with x_lo == x_hi evaluates
    one point, and at x = 1 that is the top edge's endpoint sweep.  Every
    sweep follows problem.rescale.  Returns xs (nx+1,) and psi1, psi2
    shaped (len(lams), nx+1); nx must be an integer >= 0, and a bad window
    or a non-finite lambda raises InvalidInputError, a collapsed frame
    RankDeficiencyError.
    """
    nx = _step_count(nx, least=0)
    if not (0.0 <= x_lo <= x_hi <= 1.0 and (nx > 0) == (x_lo < x_hi)):
        raise InvalidInputError(
            "need 0 <= x_lo <= x_hi <= 1, with nx = 0 exactly when x_lo == x_hi"
        )
    lams = np.asarray(lams, dtype=float)
    if not np.all(np.isfinite(lams)):
        raise InvalidInputError("lambda must be finite")
    field, rescale, steps = problem.field, problem.rescale, problem.x_steps
    grid = problem.x_grid()
    k = int(np.searchsorted(grid, x_lo, side="right")) - 1
    j = int(np.searchsorted(grid, x_hi, side="left"))
    g_start = chain_prefix(field, problem.P.entries, lams, 0.0, [(1.0, steps)], k,
                           rescale)[1][:, 0]
    h_start = problem.Q.entries if j == steps else problem.h_path().frames[j]

    def runs(x0, x_near, x_far):
        """A tail from the grid node x0 to the window's near edge, then nx steps."""
        tail = [(x_near, int(_gap_steps(problem, abs(x_near - x0))))] if x_near != x0 else []
        return tail + ([(x_far, nx)] if nx else [])

    (_, G), (_, H) = propagate_chains(field, [
        (g_start, lams, grid[k], runs(grid[k], x_lo, x_hi)),
        (h_start, [problem.lambda2], grid[j], runs(grid[j], x_hi, x_lo)),
    ], rescale, endpoint=not nx)
    G, H = G[:, -(nx + 1):], H[0, -(nx + 1):][::-1]
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
    if not h > 0.0:
        raise InvalidInputError("stencil step h must be positive")
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
    h = 1.0 / problem.x_steps
    xs = np.array([r.t_star for r in detect_crossings(shelf_path(problem, "left"))
                   if r.kind == "interior" and h < r.t_star < 1.0 - h])
    w1, w2, _ = omega_at_points(problem, problem.lambda1,
                                np.stack((xs - h, xs, xs + h), axis=1))
    ratios = (w1[:, 2] - w1[:, 0]) / (2 * h * w2[:, 1])
    return [(float(x), float(r)) for x, r in zip(xs, ratios)]


# -- eigenvalue localization on the top shelf ------------------------------


def _psi1_at_one(problem: SpectralProblem, lams: np.ndarray) -> np.ndarray:
    """psi1(1; lambda) for a batch of lambda values."""
    return psi_window(problem, lams, 1.0, 1.0, 0)[1][:, 0]


# Parts of the 16-section, which every sweep cuts; every sweep after the
# first adds the regula-falsi point and _RUNGS cuts on each side of it (3
# took the fewest psi1 lines on count-oracle systems: 22 cuts a sweep).
_SECTIONS = 16
_RUNGS = 3


def _localize_top(problem: SpectralProblem, tol: float):
    """Eigenvalues (zeros of psi1(1; .)) and degenerate candidates.

    Sign-change brackets between top-shelf nodes are cut until each width is
    <= fl = max(tol, 4 ulps of its larger end), below which a cut no longer
    narrows it.  A sweep cuts every open bracket, evaluates psi1 at the cuts
    in one batch and keeps every part across which psi1 changes sign, so a
    bracket holding several zeros splits into one bracket per zero the cuts
    separate.  psi1 at a cut does not depend on its batch.

    Every sweep cuts every bracket into _SECTIONS equal parts, so no part is
    wider than 1/16 of its bracket and a bracket of width w takes at most
    ceil(log16(w/fl)) sweeps.  Every sweep after the first also puts a cut
    at the bracket's regula-falsi point r and _RUNGS cuts on each side of it
    at offsets fl/2 * q^k, k = 0.._RUNGS-1, q = max(2, (w/fl)^(1/_RUNGS));
    cuts outside the bracket are dropped.  On a smooth psi1 the zero lies in
    a part next to r, far narrower than w/16 (a safeguarded secant search).
    """
    if not (np.isfinite(tol) and tol > 0.0):
        raise InvalidInputError(f"tol must be finite and positive, got {tol!r}")
    top = shelf_path(problem, "top")
    lams, p1 = top.ts, top.psi1
    zero, k = sign_changes(p1, ZERO_TOL)
    eigs = [float(v) for v in lams[zero]]
    nodes = np.stack((lams[k], lams[k + 1]), axis=1)
    vals = np.stack((p1[k], p1[k + 1]), axis=1)
    parts = np.arange(1, _SECTIONS) / _SECTIONS
    rungs = np.arange(_RUNGS)
    done = [nodes[:0]]
    guided = False
    while len(nodes):
        width = nodes[:, 1] - nodes[:, 0]
        fl = np.maximum(tol, 4.0 * np.spacing(np.max(np.abs(nodes), axis=1)))
        wide = width > fl
        done.append(nodes[~wide])
        nodes, vals, width, fl = nodes[wide], vals[wide], width[wide], fl[wide]
        if not len(nodes):
            break
        a, b = nodes[:, :1], nodes[:, 1:]
        fa, fb = vals[:, :1], vals[:, 1:]
        cuts = a + (b - a) * parts
        if guided:
            r = linear_zero(a, b, fa, fb)
            q = np.maximum(2.0, (width / fl) ** (1.0 / _RUNGS))
            off = 0.5 * fl[:, None] * q[:, None] ** rungs
            cuts = np.sort(np.hstack((cuts, r - off, r, r + off)), axis=1)
        guided = True
        # a cut outside (a, b) is dropped: it becomes an end, which adds a
        # part without width and so without a sign change
        below, above = cuts <= a, cuts >= b
        inside = ~(below | above)
        cuts = np.where(below, a, np.where(above, b, cuts))
        fc = np.where(below, fa, fb)
        fc[inside] = _psi1_at_one(problem, cuts[inside])
        nodes = np.hstack((a, cuts, b))
        vals = np.hstack((fa, fc, fb))
        keep = (vals[:, :-1] < 0) != (vals[:, 1:] < 0)
        nodes = np.stack((nodes[:, :-1][keep], nodes[:, 1:][keep]), axis=1)
        vals = np.stack((vals[:, :-1][keep], vals[:, 1:][keep]), axis=1)
    nodes = np.concatenate(done)
    eigs.extend(float(v) for v in 0.5 * (nodes[:, 0] + nodes[:, 1]))

    # dips below 1e-7 that never change sign: degenerate candidates
    r = np.abs(p1)
    dip = (~zero[1:-1] & (r[1:-1] < 1e-7) & (r[1:-1] <= r[:-2]) & (r[1:-1] <= r[2:])
           & ((p1[:-2] < 0) == (p1[2:] < 0)))
    return sorted(eigs), [float(v) for v in lams[1:-1][dip]]


def localize_eigenvalues_top(problem: SpectralProblem, tol: float = EIG_TOL) -> List[float]:
    """Zeros of psi1(1; .) on the spectral interval, bracketed to width <= tol.

    These are exactly the lambda at which the forward family meets the
    boundary space at x=1, i.e. the eigenvalues.  Each sweep cuts every
    sign-change bracket into 16 equal parts, so a bracket of width w takes
    at most ceil(log16(w / fl)) sweeps, fl = max(tol, 4 ulps of the
    eigenvalue), and each sweep after the first adds cuts on a geometric
    ladder around the bracket's regula-falsi point, so that a smooth psi1
    takes 3 to 4 sweeps at tol 1e-10.  tol must be finite and positive
    (InvalidInputError otherwise).  Non-sign-changing dips are reported
    separately by compute_box as degenerate candidates.
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


def compute_box(problem: SpectralProblem) -> MaslovBoxReport:
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

    eigs, degenerate = _localize_top(problem, EIG_TOL)

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
