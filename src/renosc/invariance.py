"""Invariance certificates, full-grid scans, and loss-point classification.

The certificate route bounds the growth of rho = (psi1^2 + psi2^2)/2 from
x = 0 data: with C_a bounding |trace A|, C_d bounding |d'/d|, delta bounding
|d(omega2)/dx / d| and C = 2 C_d + max(2 C_a, 1) + 1, positivity of

    margin = rho(0) - delta^2 / (2C) * (exp(C) - 1)

guarantees rho > 0 on the whole rectangle.  The volume data behind C_d,
c_g and c_h come from the Pluecker minors (`_kernels.volume_rates`), with
no Gram matrix and no solve.  The scan route simply evaluates rho on the
full grid; wherever it vanishes, the local spectral-curve branch structure
determines the contribution 2 (i_plus - i_minus) to the boundary index.
Both routes read one streamed full-grid pass (`_psi_grids`), which runs
the problem's march (SpectralProblem.march) and keeps only its own
results: the psi grids and the G family's extrema.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import _kernels
from .errors import InvalidInputError, NeedsFinerGridError, RankDeficiencyError
from .maslovbox import SpectralProblem, normalized_forms, shelf_path
from .maslovbox import psi_window as _psi_window
from .winding import ZERO_TOL, linear_zero, sign_changes

RHO_ZERO_TOL = 1e-9
# rho_grid_scan refines the grid-local minima of rho below this
CANDIDATE_TOL = 1e-3
# Newton iterations of one loss-point polish
NEWTON_ITERS = 25
# classify_loss_point's lambda columns, and how often it may double the box
CLASSIFY_COLS = 33
MAX_DOUBLINGS = 5


@dataclass
class InvarianceReport:
    n: int
    m: int
    C_a: float
    C_A: float
    c_g: float
    c_h: float
    C_g: float
    C_h: float
    C_d: float
    delta: float
    C: float
    rho0: float
    margin: float
    certified: bool
    cg_mode: str  # "exact" (m = 1) or "measured" (grid minimum)
    delta_mode: str  # "hadamard" or "grid-fd"
    C_g_measured: Optional[float] = None

    def to_dict(self) -> dict:
        out = asdict(self)
        if not math.isfinite(self.margin):
            out["margin"] = None
        if self.C_g_measured is None:
            del out["C_g_measured"]
        return out


@dataclass
class LossPoint:
    x_star: float
    lambda_star: float
    rho: float
    i_minus: Optional[int] = None
    i_plus: Optional[int] = None
    local_m: Optional[int] = None
    flagged: bool = False
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "x_star": self.x_star, "lambda_star": self.lambda_star,
            "rho": self.rho, "i_minus": self.i_minus, "i_plus": self.i_plus,
            "local_m": self.local_m, "flagged": self.flagged, "note": self.note,
        }


@dataclass
class ScanResult:
    min_rho: float
    argmin_x: float
    argmin_lambda: float
    loss_points: List[LossPoint]
    lam_axis: np.ndarray
    x_axis: np.ndarray
    rho: np.ndarray  # (len(lam_axis), len(x_axis))
    psi1: np.ndarray

    def to_dict(self) -> dict:
        return {
            "min_rho": self.min_rho,
            "argmin_x": self.argmin_x,
            "argmin_lambda": self.argmin_lambda,
            "loss_points": [p.to_dict() for p in self.loss_points],
        }


# ---------------------------------------------------------------------------
# helpers shared by the certificate and the scan
# ---------------------------------------------------------------------------


def _volume_rates(frames, A):
    """`_kernels.volume_rates`, refusing a collapsed frame (RankDeficiencyError)."""
    ratio, rate = _kernels.volume_rates(frames, A)
    if np.isnan(ratio).any():
        raise RankDeficiencyError("degenerate frame volume: a propagated frame collapsed")
    return ratio, rate


def _psi_grids(problem: SpectralProblem, dh_log=None):
    """psi1 and psi2 over the full (lambda, x) grid, in one streamed pass.

    The pass marches the grid leg over every lambda line at once
    (SpectralProblem.march, one GEMM per RK4 step) in x-blocks of about
    _kernels.MARCH_NODES nodes.  Each block's nodes go to omega_tables
    against that block's H frames, and the block is dropped: no frame grid
    is kept.  Given dh_log, the H path's d/dx log |hhat| per node, the pass
    also caches the G family's extrema as "g_extrema": the minimum
    column-volume ratio, the maximum |d/dx log |ghat|| and the maximum of
    |d(omega2)/dx / d| = |d(psi2)/dx + psi2 d'/d|.  psi2 and the volume
    data are scale-invariant, so they are legitimate on the march's frames,
    which are normalized only at block ends; psi2's centered difference
    at a block's first node reads the previous block's last d'/d.  d'/d is
    the two families' rates, analytic per node.  A call with dh_log after a
    pass without it marches again.  A collapsed frame raises
    RankDeficiencyError.
    """
    cache = problem._cache
    if "psi_grids" in cache and (dh_log is None or "g_extrema" in cache):
        return cache["psi_grids"]
    lams, xs = problem.lambda_grid(), problem.x_grid()
    hp, AT = problem.h_path(), problem.a_tilde()
    psi1, psi2 = np.empty((2, len(lams), len(xs)))
    if dh_log is not None:
        base, E = problem.field.base_table(xs), problem.field.lambda_mat
        h = xs[1] - xs[0]
        ratio_min, dg_max, delta = math.inf, 0.0, 0.0
    for k0, frames in problem.march():
        k1 = k0 + frames.shape[1]
        lo = k0 + 1 if k0 else 0  # node k0 ended the previous block
        frames = frames[:, lo - k0:]
        w1, w2, d = _kernels.omega_tables(frames, hp.frames[lo:k1], AT.block_g, AT.block_h)
        psi1[:, lo:k1], psi2[:, lo:k1] = normalized_forms(w1, w2, d, "the full grid")
        if dh_log is None:
            continue
        ratio, dg_log = _volume_rates(frames, base[lo:k1] + lams[:, None, None, None] * E)
        ratio_min = min(ratio_min, float(np.min(ratio)))
        dg_max = max(dg_max, float(np.max(np.abs(dg_log))))
        dlog = dg_log + dh_log[lo:k1]
        if lo:  # from node lo - 1, whose neighbours are now known
            dlog, lo = np.concatenate((last[:, None], dlog), axis=1), lo - 1
        last = dlog[:, -1]
        i = max(lo, 1)  # the centered difference at nodes i .. k1 - 2
        if i < k1 - 1:
            fd = (psi2[:, i + 1:k1] - psi2[:, i - 1:k1 - 2]) / (2 * h)
            fd += psi2[:, i:k1 - 1] * dlog[:, i - lo:-1]
            delta = max(delta, float(np.max(np.abs(fd))))
    cache["psi_grids"] = psi1, psi2
    if dh_log is not None:
        cache["g_extrema"] = ratio_min, dg_max, delta
    return cache["psi_grids"]


def delta_bound_higher_order(problem: SpectralProblem, c_g: float, c_h: float) -> float:
    """Hadamard bound on |d(omega2)/dx / d| for companion-form scalar operators.

    (lambda2 - lambda1) / (c_g c_h) * max_x (kappa_{n-1}/alpha_n(x) + 1/kappa_2).
    """
    if problem.field.higher_order is None:
        raise InvalidInputError("problem does not carry higher-order structure")
    alphas, kappas = problem.field.higher_order
    alpha_n = alphas[-1]
    n = problem.field.n
    kappa2 = float(kappas[0])
    kappa_last = float(kappas[n - 3]) if n >= 3 else 1.0
    peak = float(np.max(kappa_last / alpha_n(problem.x_grid()) + 1.0 / kappa2))
    return (problem.lambda2 - problem.lambda1) / (c_g * c_h) * peak


def constants_report(problem: SpectralProblem) -> InvarianceReport:
    """All certificate constants, the criterion margin, and the verdict.

    c_g is exactly 1 when the forward family is one-dimensional; otherwise it
    is measured as a grid minimum in the full-grid pass (_psi_grids), and
    C_g enters C_d through the bound m! C_A / c_g^2 (the measured maximum of
    |d/dx log |ghat|| is kept alongside as a cross-check).
    """
    field = problem.field
    n, m = problem.n, problem.m
    xs = problem.x_grid()
    A2 = field.table(xs, problem.lambda2)

    C_a = float(np.max(np.abs(np.trace(A2, axis1=1, axis2=2))))

    # the operator norm of the affine pencil A = base + lambda E is convex in
    # lambda, so the grid maximum is attained at the interval endpoints
    C_A = max(float(np.max(np.linalg.svd(A, compute_uv=False)[:, 0]))
              for A in (field.table(xs, problem.lambda1), A2))

    hp = problem.h_path()
    ratio_h, dh_log = _volume_rates(hp.frames, A2)
    c_h = float(np.min(ratio_h))
    C_h = float(np.max(np.abs(dh_log)))

    c_g, cg_mode, C_g_measured, delta = 1.0, "exact", None, None
    if m > 1 or field.higher_order is None:  # the G family's grid extrema
        _psi_grids(problem, dh_log)
        ratio_min, dg_max, fd_delta = problem._cache["g_extrema"]
        if m > 1:
            c_g, cg_mode, C_g_measured = ratio_min, "measured", dg_max
        if field.higher_order is None:
            delta = fd_delta
    C_g = math.factorial(m) * C_A / c_g ** 2
    C_d = C_g + C_h

    if delta is None:
        delta = delta_bound_higher_order(problem, c_g, c_h)
        delta_mode = "hadamard"
    else:
        delta_mode = "grid-fd"

    rho0 = float(shelf_path(problem, "bottom").rho[0])
    C = 2 * C_d + max(2 * C_a, 1.0) + 1.0
    if delta == 0.0:
        growth = 0.0
    elif C > 700.0:  # exp overflows; the certificate is hopeless anyway
        growth = math.inf
    else:
        growth = delta ** 2 / (2 * C) * (math.exp(C) - 1.0)
    margin = rho0 - growth

    return InvarianceReport(
        n=n, m=m, C_a=C_a, C_A=C_A, c_g=c_g, c_h=c_h, C_g=C_g, C_h=C_h,
        C_d=C_d, delta=delta, C=C, rho0=rho0, margin=margin,
        certified=margin > 0, cg_mode=cg_mode, delta_mode=delta_mode,
        C_g_measured=C_g_measured,
    )


def asymptotic_bc_determinants(problem: SpectralProblem) -> Tuple[float, float]:
    """The two boundary determinants whose non-vanishing underwrites the
    large-leading-coefficient invariance advisory for higher-order operators.
    """
    if problem.field.higher_order is None:
        raise InvalidInputError("problem does not carry higher-order structure")
    alphas, _ = problem.field.higher_order
    xs = np.linspace(0.0, 1.0, 1001)
    vals = problem.lambda2 - alphas[0](xs)
    integral = float(np.trapezoid(vals, xs))
    P, Q = problem.P.entries, problem.Q.entries
    n = problem.n
    M1 = np.hstack([P, Q]).astype(float)
    M1[n - 1, problem.m:] -= integral * Q[0, :]
    M2 = np.hstack([P, Q]).astype(float)
    M2[n - 1, : problem.m] = 0.0
    M2[n - 1, problem.m:] = Q[0, :]
    return float(np.linalg.det(M1)), float(np.linalg.det(M2))


# ---------------------------------------------------------------------------
# full-grid scan and local classification
# ---------------------------------------------------------------------------


def _newton_polish(problem: SpectralProblem, x0: float, lam0: float,
                   hx: float, hl: float):
    """Drive (psi1, psi2) to zero with a finite-difference Newton iteration.

    Each step is one window: the lambdas (lam, lam + hl, lam - hl) on the
    three x nodes lo, (lo + hi) / 2, hi, with lo, hi = x -+ hx clipped to
    [0, 1].  The iterate's x becomes the middle node; psi there gives the
    value and the lambda differences, line lam's end nodes the x difference.
    Returns (x, lam, rho) of the last window's middle node at lam, whether
    rho fell below 1e-24, J was singular, the step fell below the
    tolerances or the iterations ran out."""
    x, lam = x0, lam0
    for _ in range(NEWTON_ITERS):
        lo, hi = max(x - hx, 0.0), min(x + hx, 1.0)
        wxs, p1, p2 = _psi_window(problem, [lam, lam + hl, lam - hl], lo, hi, 2)
        x_w, lam_w = float(wxs[1]), lam
        rho = 0.5 * (p1[0, 1] * p1[0, 1] + p2[0, 1] * p2[0, 1])
        if rho < 1e-24:
            break
        J = np.array([
            [(p1[0, 2] - p1[0, 0]) / (hi - lo), (p1[1, 1] - p1[2, 1]) / (2 * hl)],
            [(p2[0, 2] - p2[0, 0]) / (hi - lo), (p2[1, 1] - p2[2, 1]) / (2 * hl)],
        ])
        try:
            step = np.linalg.solve(J, [p1[0, 1], p2[0, 1]])
        except np.linalg.LinAlgError:
            break
        if abs(step[0]) < 1e-13 and abs(step[1]) < 1e-12:
            break
        # keep the iterate inside the open rectangle
        x = min(max(x_w - step[0], 1e-6), 1.0 - 1e-6)
        lam = lam_w - step[1]
    return x_w, lam_w, float(rho)


def rho_grid_scan(problem: SpectralProblem, refine_rounds: int = 2) -> ScanResult:
    """Evaluate rho over the whole grid and hunt down interior zeros.

    Grid-local minima below CANDIDATE_TOL are refined by `refine_rounds`
    rounds of 10x local grid refinement and then polished by a Newton
    iteration on (psi1, psi2); a candidate is kept as a loss point only if
    the polished rho falls below RHO_ZERO_TOL.
    """
    psi1, psi2 = _psi_grids(problem)
    rho = psi1 * psi1  # 0.5 * (psi1 ** 2 + psi2 ** 2), in place
    rho += psi2 * psi2
    rho *= 0.5
    lams = problem.lambda_grid()
    xs = problem.x_grid()
    L, S1 = rho.shape

    flat = int(np.argmin(rho))
    li0, xi0 = divmod(flat, S1)
    min_rho = float(rho[li0, xi0])

    pad = np.pad(rho, 1, constant_values=np.inf)
    is_min = np.ones_like(rho, dtype=bool)
    for dl in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dl == 0 and dx == 0:
                continue
            is_min &= rho <= pad[1 + dl: 1 + dl + L, 1 + dx: 1 + dx + S1]
    candidates = np.argwhere(is_min & (rho < CANDIDATE_TOL))

    d_lam = lams[1] - lams[0]
    d_x = xs[1] - xs[0]
    found: List[LossPoint] = []
    for li, xi in candidates:
        x_c, lam_c = float(xs[xi]), float(lams[li])
        span_x, span_l = 2 * d_x, 2 * d_lam
        for _ in range(refine_rounds):
            lo = max(x_c - span_x, 0.0)
            hi = min(x_c + span_x, 1.0)
            cols = np.linspace(lam_c - span_l, lam_c + span_l, 21)
            wxs, p1w, p2w = _psi_window(problem, cols, lo, hi, 40)
            # the first column, then the first node, that attains the minimum
            lk, k = divmod(int(np.argmin(0.5 * (p1w ** 2 + p2w ** 2))), len(wxs))
            x_c, lam_c = float(wxs[k]), float(cols[lk])
            span_x /= 10.0
            span_l /= 10.0
        x_c, lam_c, rho_c = _newton_polish(problem, x_c, lam_c,
                                           hx=max(span_x, 1e-7),
                                           hl=max(span_l, 1e-6))
        inside = 0.0 < x_c < 1.0 and problem.lambda1 < lam_c < problem.lambda2
        if rho_c < RHO_ZERO_TOL and inside:
            found.append(LossPoint(x_star=x_c, lambda_star=lam_c, rho=rho_c))

    # merge duplicates that converged to the same zero
    found.sort(key=lambda p: (p.lambda_star, p.x_star))
    deduped: List[LossPoint] = []
    for p in found:
        if deduped and abs(p.lambda_star - deduped[-1].lambda_star) < 2 * d_lam \
                and abs(p.x_star - deduped[-1].x_star) < 2 * d_x:
            continue
        deduped.append(p)

    return ScanResult(
        min_rho=min_rho, argmin_x=float(xs[xi0]), argmin_lambda=float(lams[li0]),
        loss_points=deduped, lam_axis=lams, x_axis=xs, rho=rho, psi1=psi1,
    )


def _column_zeros(xs, col):
    """x locations where the sampled column is exactly zero, then those
    where it changes sign (at the zero of the linear interpolant)."""
    zero, k = sign_changes(col, 0.0)
    return np.concatenate((xs[zero], linear_zero(xs[k], xs[k + 1], col[k], col[k + 1])))


def classify_loss_point(problem: SpectralProblem, point: LossPoint,
                        others: Tuple[LossPoint, ...] = ()) -> LossPoint:
    """Fill in the local branch counts and the 2 (i_plus - i_minus) index.

    Builds a box around the point, 4 coarse lambda-cells wide in
    CLASSIFY_COLS columns of 160 x steps, doubling its x-height (at most
    MAX_DOUBLINGS times) until every spectral-curve branch enters and leaves
    through the vertical sides; then i_minus counts zeros on the left side
    below x_star and i_plus zeros on the right side above x_star.
    """
    d_lam = (problem.lambda2 - problem.lambda1) / problem.lambda_steps
    d_x = 1.0 / problem.x_steps
    w = 2 * d_lam
    h = 2 * d_x
    x_s, lam_s = point.x_star, point.lambda_star

    psi_cols = None
    window_xs = None
    clean = False
    for _ in range(MAX_DOUBLINGS + 1):
        for q in others:
            if q is point:
                continue
            if abs(q.lambda_star - lam_s) <= w and abs(q.x_star - x_s) <= h:
                raise NeedsFinerGridError(
                    "another loss point inside the classification box; "
                    "refine the scan first"
                )
        lo = max(x_s - h, 0.0)
        hi = min(x_s + h, 1.0)
        cols = np.linspace(lam_s - w, lam_s + w, CLASSIFY_COLS)
        window_xs, psi_cols, _ = _psi_window(problem, cols, lo, hi, 160)
        # a zero or a sign change on the top or bottom side means a branch
        # leaves the box there
        scans = [sign_changes(edge, ZERO_TOL) for edge in (psi_cols[:, -1], psi_cols[:, 0])]
        if not any(zero.any() or len(k) for zero, k in scans):
            clean = True
            break
        h *= 2.0

    left_zeros = _column_zeros(window_xs, psi_cols[0])
    right_zeros = _column_zeros(window_xs, psi_cols[-1])
    i_minus = sum(1 for z in left_zeros if z < x_s)
    i_plus = sum(1 for z in right_zeros if z > x_s)

    flagged = not clean
    note = "" if clean else "branches could not be confined to vertical sides"

    # weak monotonicity validation: chains of zeros across columns must move
    # one way in x on each side of the loss point
    per_col = [_column_zeros(window_xs, col) for col in psi_cols]
    counts = [len(z) for z in per_col]
    if max(counts, default=0) > 2:
        flagged = True
        note = (note + "; " if note else "") + "more than two branches in the box"

    return LossPoint(
        x_star=point.x_star, lambda_star=point.lambda_star, rho=point.rho,
        i_minus=i_minus, i_plus=i_plus, local_m=2 * (i_plus - i_minus),
        flagged=flagged, note=note,
    )
