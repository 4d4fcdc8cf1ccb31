"""Coefficient fields and RK4 propagation of solution frames.

The evolving subspaces are represented by matrix solutions of F' = A(x; lam) F.
The G-family starts from the boundary frame at x = 0, the H-family from the
frame at x = 1 (integrated backward).  The kernel, `_kernels.rk4_grid`, runs
classical RK4 in propagator form: every step's matrix P_k (F_{k+1} = P_k F_k)
is a degree-4 polynomial in lambda, whose coefficients are built from the
half-step table once per chain (kept with the table in the field's
per-chain cache, so a repeated sweep pays only Horner) and evaluated per
lambda line by Horner, and the steps are chained by a blocked prefix
product, blocks of ceil(sqrt(steps)) steps, so a leg costs about
2 sqrt(steps) numpy-level iterations.  One call can run a chain of uniform
runs (a tail and a window, or the gaps between points) with one step size
per step, over one half-step table.  On an x segment whose half-step rows
and step sizes are bitwise equal (a constant field in one run) the kernel
keeps one step of coefficients and chains that step by repeated squaring,
about log2(steps) products per line, with its own bits.
A query that reads only the end of a chain (a psi point, a top-edge sweep)
runs in endpoint mode, which expands only the last node and equals the full
sweep's last node bit for bit.
Every sweep goes through one core, `_sweep`, behind one of three fronts:
`propagate_chain` caches the chain's table and coefficients,
`chain_prefix` runs the first steps of a cached chain on its table and
coefficients (a psi window's lead is a prefix of the grid leg), and
`propagate_chains` sweeps chains used once (a psi window's tails and
window runs) over one base_table call, uncached.  The full-grid pass does
not sweep: `march_chain` runs `_kernels.march` on the grid leg's cached
table and coefficients, one GEMM per step over every line of the whole
lambda grid (a line's bits depend on that grid, so no narrow batch is
marched), and yields its nodes x-block by x-block; `rk4_grid` serves
every other sweep, and there a line's bits do not depend on its batch.
`uniform_chain` tells an x-uniform chain, whose top edge keeps the
squaring endpoint sweep.  Temporaries of a sweep are bounded by
`_kernels.STEP_BUDGET`: x segments of at most that many bytes of one
line's step matrices cut long legs, and lines run in chunks of up to four
times that.  Column rescaling keeps stiff problems in range: every node's
columns are normalized, adding the log of their norms to scale_log, and
inside a block every step matrix of a stiff line is divided by a power of
two s, adding m log s; on a cached chain a line whose steps all lie
within 1/2 of the identity on a segment cannot leave range inside a block
and skips that division (same frames, bit for bit).  It multiplies both determinant forms
by a common positive factor and therefore changes nothing at the psi level.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional, Tuple

import numpy as np

from . import _kernels
from .errors import BlowUpError, DegenerateCoefficientError, InvalidInputError


@dataclass(frozen=True)
class CoefficientField:
    """The n x n coefficient matrix A(x; lambda) = base_table(x) + lambda E.

    base_table(xs) returns the lambda-free part at every x of a 1-D grid,
    shape (len(xs), n, n); lambda_mat is the constant matrix E, which the
    propagation kernel needs to batch over lambda.  A field is built only
    with a finite (n, n) E (InvalidInputError otherwise).

    structure_b, the structural assumption that makes the renormalized
    crossing flow monotone (a lambda-independent diagonal and x-independent
    off-diagonal lambda-differences), is read off E: it holds exactly when
    the diagonal of E vanishes.

    higher_order is (alphas, kappas), the tuples of coefficient callables
    alpha_0 .. alpha_n and constants kappa_2 .. kappa_n of an n-th order
    scalar operator in companion form (eval_companion_higher_order), for
    the invariance bounds that need them; None for every other field.

    `_chains` is propagation's per-chain cache (half-step tables and step
    coefficients, both built from base_table and E; at most 9 chains, see
    _chain_cache).  It holds the legs that are swept again or read in part:
    the grid leg, which the full-grid pass marches in x-blocks and whose
    prefixes lead every psi window, the H path and the shelf legs, and the
    chains of omega_at_points; psi windows' own short sweeps are not kept,
    so they never evict a leg.  It is not a constructor argument, so a field
    derived by dataclasses.replace starts with an empty one.
    """

    n: int
    base_table: Callable[[np.ndarray], np.ndarray]
    lambda_mat: np.ndarray
    higher_order: Optional[Tuple[tuple, tuple]] = None
    _chains: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            E = np.array(self.lambda_mat, dtype=float)
        except (TypeError, ValueError):  # ragged or not numbers
            E = None
        if E is None or E.shape != (self.n, self.n) or not np.all(np.isfinite(E)):
            raise InvalidInputError(f"lambda_mat must be a finite {self.n} x {self.n} matrix")
        E.setflags(write=False)
        object.__setattr__(self, "lambda_mat", E)

    @property
    def structure_b(self) -> bool:
        return not np.any(np.diag(self.lambda_mat))

    def table(self, xs, lam: float) -> np.ndarray:
        """A(x; lam) at every x of `xs`, shape (len(xs), n, n)."""
        return self.base_table(np.asarray(xs, dtype=float)) + lam * self.lambda_mat

    def evaluate(self, x: float, lam: float) -> np.ndarray:
        """A(x; lam) at one point, shape (n, n)."""
        return self.table([float(x)], lam)[0]


@dataclass(frozen=True)
class FramePath:
    """Frames of one propagated family on an increasing x grid.

    scale_log[k] is the accumulated log of column rescaling factors at node k;
    raw determinant-form values at that node are the stored-frame values times
    exp(scale_log[k]).  `direction` records which end the run started from.
    """

    lam: float
    xs: np.ndarray
    frames: np.ndarray  # (len(xs), n, m)
    scale_log: np.ndarray
    direction: str  # "forward" (from x=0 side) or "backward" (from x=1 side)


def eval_companion_higher_order(alphas, kappas, x) -> np.ndarray:
    """Lambda-free companion matrix of a single n-th order operator, at x or on a grid.

    alphas: callables of x (applied to the whole grid at once) or constants
    alpha_0 .. alpha_n; kappas: the scaling constants kappa_2 .. kappa_n
    attached to alpha_2 .. alpha_n.  Phase-space coordinates are y_1 = phi,
    y_j = kappa_j phi^(j-1) for 2 <= j <= n-1 and y_n = alpha_n(x) phi^(n-1).
    The eigenvalue parameter adds lambda to entry (n-1, 0), through the
    field's lambda_mat.  Returns shape x.shape + (n, n): (n, n) at a scalar
    x, (N, n, n) on a grid.
    """
    n = len(alphas) - 1
    if n < 2:
        raise InvalidInputError("need alpha_0 .. alpha_n with n >= 2")
    if len(kappas) != n - 1:
        raise InvalidInputError(f"expected {n - 1} kappa values, got {len(kappas)}")
    if any(k == 0 for k in kappas):
        raise InvalidInputError("kappa values must be non-zero")
    xs = np.asarray(x, dtype=float)
    a = [np.broadcast_to(al(xs) if callable(al) else float(al), xs.shape)
         for al in alphas]
    lead = a[n]
    bad = lead <= 0
    if np.any(bad):
        k = int(np.argmax(bad))
        raise DegenerateCoefficientError(
            f"leading coefficient alpha_n({xs.flat[k]:g}) = {lead.flat[k]:g} "
            "is not positive"
        )
    # scale[j-1] is the factor relating y_j to phi^(j-1); the last is alpha_n
    scale = [1.0] + [float(k) for k in kappas[:-1]]
    A = np.zeros(xs.shape + (n, n))
    for i in range(n - 2):
        A[..., i, i + 1] = scale[i] / scale[i + 1]
    A[..., n - 2, n - 1] = scale[n - 2] / lead
    A[..., n - 1, 0] = -a[0]
    for j in range(1, n - 1):
        A[..., n - 1, j] = -a[j] / scale[j]
    A[..., n - 1, n - 1] = -a[n - 1] / lead
    return A


def eval_companion_second_order(B, W, V, x) -> np.ndarray:
    """Lambda-free first-order form of -B phi'' + W phi' + V phi = lam phi, at x
    or on a grid.

    B is a positive diagonal l x l matrix (given as a matrix or a diagonal
    vector); W and V are matrix-valued callables of x (applied to the whole
    grid at once) or constant matrices.  Coordinates are y = (phi, B phi').
    The eigenvalue parameter adds -lambda I to the lower-left block, through
    the field's lambda_mat.  Returns shape x.shape + (2l, 2l).
    """
    Bm = np.asarray(B, dtype=float)
    if Bm.ndim == 1:
        Bm = np.diag(Bm)
    l = Bm.shape[0]
    det = float(np.linalg.det(Bm))
    if det == 0.0 or not np.isfinite(det):
        raise InvalidInputError("B must be invertible")
    Binv = np.linalg.inv(Bm)
    xs = np.asarray(x, dtype=float)
    Wx = np.broadcast_to(W(xs) if callable(W) else np.asarray(W, dtype=float),
                         xs.shape + (l, l))
    Vx = np.broadcast_to(V(xs) if callable(V) else np.asarray(V, dtype=float),
                         xs.shape + (l, l))
    A = np.zeros(xs.shape + (2 * l, 2 * l))
    A[..., :l, l:] = Binv
    A[..., l:, :l] = Vx
    A[..., l:, l:] = Wx @ Binv
    return A


def _half_steps(from_x: float, runs):
    """Step sizes and half-step grid of a chain of runs (to_x, steps).

    A run takes `steps` equal steps from where the previous one ended
    (from_x for the first), and consecutive runs share their junction node.
    Returns h, one size per step, and the grid (2*steps+1,) in propagation
    order; its even entries are the nodes.
    """
    hs, xh, x0 = [], [[from_x]], from_x
    for to_x, steps in runs:
        hs.append((to_x - x0) / steps)
        xh.append(x0 + 0.5 * hs[-1] * np.arange(1, 2 * steps + 1))
        x0 = to_x
    return np.repeat(hs, [steps for _, steps in runs]), np.concatenate(xh)


def _chain_cache(field: CoefficientField, xh, key):
    """The field's lambda-free table on the half-step grid xh and the dict
    of the chain's step coefficients (filled by the kernel), cached under the
    chain `key`; past 8 chains the cache is cleared, to bound it.  A run
    reuses only a few chains (a box its full forward legs, a count its
    per-point legs), and 8 keeps nearly all of their hits."""
    cache = field._chains
    hit = cache.get(key)
    if hit is None:
        if len(cache) > 8:
            cache.clear()
        hit = cache[key] = (np.ascontiguousarray(field.base_table(xh)), {})
    return hit


def _step_count(steps, least=1) -> int:
    """A step count as an int; InvalidInputError unless it is an integer of
    at least `least` (10.5 is refused, not truncated, and so is "10")."""
    try:
        k = int(steps)
    except (TypeError, ValueError, OverflowError):
        k = None
    if k is None or k != steps or k < least:
        what = "a positive integer" if least == 1 else f"an integer >= {least}"
        raise InvalidInputError(f"a step count must be {what}, not {steps!r}")
    return k


def _chain_front(field, init, lams, from_x, runs):
    """The validated arguments (init, lams, from_x, runs) of a chain, runs as
    a tuple of (float, int) pairs; InvalidInputError as propagate_chain says."""
    init = np.ascontiguousarray(init, dtype=float)
    try:
        lams = np.asarray(lams, dtype=float)
    except (TypeError, ValueError):  # ragged or not numbers
        lams = None
    if lams is None or lams.ndim != 1 or not np.all(np.isfinite(lams)):
        raise InvalidInputError("lams must be a 1-D array of finite numbers")
    if init.shape[:-2] not in ((), lams.shape) or init.shape[-2:-1] != (field.n,):
        raise InvalidInputError(f"init must be one {field.n} x m frame or one per lambda")
    if not np.all(np.isfinite(init)):
        raise InvalidInputError("init must hold finite numbers")
    runs = tuple((float(to_x), _step_count(steps)) for to_x, steps in runs)
    stops = [from_x] + [to_x for to_x, _ in runs]
    if not np.all(np.isfinite(stops)):
        raise InvalidInputError("from_x and every stop of a chain must be finite")
    dx = np.diff(stops)
    if not (np.all(dx > 0) or np.all(dx < 0)):
        raise InvalidInputError("the stops of a chain must differ and keep one direction")
    return init, lams, from_x, runs


def _unmoved(init, lams, from_x):
    """A chain without runs: the initial frame at from_x for every line."""
    frames = np.broadcast_to(init[..., None, :, :], (len(lams), 1) + init.shape[-2:])
    return np.array([float(from_x)]), frames, np.zeros((len(lams), 1))


def _sweep(field, a_half, h, xh, lams, init, rescale, endpoint, coefficients=None):
    """The sweep core of every chain: RK4 over the half-step table a_half of
    the grid xh, steps h (see _half_steps), at every lambda of `lams`.

    Returns (xs, frames, scale_log) in sweep order; with `endpoint` the last
    node alone.  Raises BlowUpError with the first x at which some lambda
    line leaves double-precision range.
    """
    frames, slog = _kernels.rk4_grid(a_half, field.lambda_mat, lams, init, h, rescale,
                                     endpoint, coefficients)
    xs = xh[-1:] if endpoint else xh[::2].copy()
    if not np.all(np.isfinite(frames)):
        _blew_up(xs, frames)
    return xs, frames, slog


def _blew_up(xs, frames):
    """Raise BlowUpError at the first node xs[k] where some line of frames
    (L, len(xs), n, m) is not finite."""
    x = xs[int(np.argmin(np.isfinite(frames).all(axis=(0, 2, 3))))]
    raise BlowUpError(f"propagation blew up near x = {x:.6g}", x=x)


def propagate_chain(field, init, lams, from_x, runs, rescale=True, increasing=False,
                    endpoint=False):
    """RK4 at every lambda of `lams` along a chain of runs, in one kernel call.

    `runs` holds (to_x, steps) pairs in one x direction (see _half_steps), so
    a lead leg and a window, or the gaps between points, are one sweep over
    one half-step table; no run leaves the initial frame alone.  `init` is
    one (n, m) frame shared by every lambda line, or one frame per line,
    shaped (len(lams), n, m).  Every line shares one half-step table of the
    field's lambda-free part and the step coefficients built from it, both
    cached per chain.  `lams` must be a 1-D array of finite numbers, `init`,
    from_x and every stop finite, and every run's steps a positive integer
    (InvalidInputError).  Returns (xs, frames, scale_log) in sweep order,
    xs[0] = from_x, or on an increasing x grid if `increasing`, with frames
    shaped (len(lams), 1 + steps, n, m); raises BlowUpError with the first x
    at which some lambda line leaves double-precision range.  With
    `endpoint` only the chain's last node is expanded: xs, frames and
    scale_log hold that node alone, bit for bit the last node of the full
    sweep, and a blow-up is reported at its x.
    """
    init, lams, from_x, runs = _chain_front(field, init, lams, from_x, runs)
    if not runs:
        return _unmoved(init, lams, from_x)
    h, xh = _half_steps(from_x, runs)
    a_half, coefficients = _chain_cache(field, xh, (from_x, runs))
    xs, frames, slog = _sweep(field, a_half, h, xh, lams, init, rescale, endpoint,
                              coefficients)
    if increasing and xs[0] > xs[-1]:
        xs = xs[::-1].copy()
        frames = frames[:, ::-1].copy()
        slog = slog[:, ::-1].copy()
    return xs, frames, slog


def chain_prefix(field, init, lams, from_x, runs, steps, rescale=True):
    """The node reached after the first `steps` steps of the chain (from_x, runs).

    One endpoint sweep over the start of the chain's cached half-step table,
    with the chain's cached step coefficients (see _kernels.rk4_grid), so a
    prefix of a chain already swept builds none (the prefix of a chain not
    yet swept builds and keeps its own).  Arguments are validated as
    in propagate_chain, and `steps` must be an integer from 0 to the chain's
    step count.  Returns (xs, frames, scale_log) of that node, shaped as
    propagate_chain's endpoint result; zero steps give `init` at from_x.
    """
    init, lams, from_x, runs = _chain_front(field, init, lams, from_x, runs)
    steps = _step_count(steps, least=0)
    if steps > sum(s for _, s in runs):
        raise InvalidInputError(f"a prefix of {steps} steps is longer than its chain")
    if not steps:
        return _unmoved(init, lams, from_x)
    h, xh = _half_steps(from_x, runs)
    a_half, coefficients = _chain_cache(field, xh, (from_x, runs))
    return _sweep(field, a_half[:2 * steps + 1], h[:steps], xh[:2 * steps + 1], lams, init,
                  rescale, True, coefficients)


def propagate_chains(field, chains, rescale=True):
    """Several chains, each swept once, over one field.base_table call.

    `chains` holds (init, lams, from_x, runs, endpoint) tuples, validated as
    propagate_chain validates them.  The half-step grids of all chains go
    through one base_table call, whose fixed cost would otherwise be paid
    per chain, and nothing is cached: a chain swept once would only evict
    the cached legs.  Returns one (xs, frames, scale_log) per chain, in
    sweep order, as propagate_chain does.
    """
    fronts = [_chain_front(field, *chain[:4]) for chain in chains]
    grids = [_half_steps(from_x, runs) if runs else None for _, _, from_x, runs in fronts]
    points = [grid[1] for grid in grids if grid]
    table = field.base_table(np.concatenate(points)) if points else None
    out, start = [], 0
    for (init, lams, from_x, _), grid, chain in zip(fronts, grids, chains):
        if grid is None:
            out.append(_unmoved(init, lams, from_x))
            continue
        h, xh = grid
        a_half = table[start:start + len(xh)]
        start += len(xh)
        out.append(_sweep(field, a_half, h, xh, lams, init, rescale, chain[4]))
    return out


def march_chain(field, init, lams, from_x, runs, rescale=True):
    """The chain's nodes at every lambda of `lams`, x-block by x-block, by
    `_kernels.march`: one GEMM per RK4 step over all lines, on the chain's
    cached half-step table and step coefficients.

    Meant for a problem's whole lambda grid (a GEMM column's bits depend on
    its batch width).  Arguments are validated as in propagate_chain.  A
    generator of (k0, frames) per x-block in sweep order: frames (L, k+1,
    n, m) are the nodes k0 .. k0 + k, a view that the next block
    overwrites, whose first node is the previous block's last.  Frames are
    column-normalized only at block ends (rescale only).  Raises
    BlowUpError with the first x at which some lambda line leaves
    double-precision range, as _sweep does.
    """
    init, lams, from_x, runs = _chain_front(field, init, lams, from_x, runs)
    h, xh = _half_steps(from_x, runs)
    a_half, coefficients = _chain_cache(field, xh, (from_x, runs))
    for k0, frames in _kernels.march(a_half, field.lambda_mat, lams, init, h, rescale,
                                     coefficients):
        if not np.all(np.isfinite(frames[:, -1])):  # a non-finite entry stays so
            _blew_up(xh[2 * k0::2], frames)
        yield k0, frames


def uniform_chain(field, from_x, runs) -> bool:
    """Whether the chain is x-uniform, so that rk4_grid chains it by squaring
    (`_kernels.uniform`), on its cached table and step coefficients."""
    runs = tuple((float(to_x), _step_count(steps)) for to_x, steps in runs)
    h, xh = _half_steps(from_x, runs)
    a_half, coefficients = _chain_cache(field, xh, (from_x, runs))
    return _kernels.uniform(a_half, field.lambda_mat, h, coefficients)


def integrate_frame(
    field: CoefficientField,
    init: np.ndarray,
    from_x: float,
    to_x: float,
    steps: int,
    lam: float,
    rescale: bool = True,
) -> FramePath:
    """Classical fixed-step RK4 on F' = A(x; lam) F over a uniform grid.

    Works in either direction; the result is always stored on an increasing
    x grid.  Raises BlowUpError (with the offending x) if the state leaves
    double-precision range.
    """
    xs, frames, slog = propagate_chain(field, init, [lam], from_x, [(to_x, steps)],
                                       rescale, increasing=True)
    direction = "forward" if to_x > from_x else "backward"
    return FramePath(lam=lam, xs=xs, frames=frames[0], scale_log=slog[0],
                     direction=direction)


def propagate_lambda_grid(
    field: CoefficientField,
    init: np.ndarray,
    lams: np.ndarray,
    from_x: float,
    to_x: float,
    steps: int,
    rescale: bool = True,
):
    """Propagate one initial frame, or one frame per lambda (L, n, m), at
    every lambda of a grid.

    Returns (xs, frames, scale_log) with frames shaped (L, steps+1, n, m) on
    an increasing x grid.
    """
    return propagate_chain(field, init, lams, from_x, [(to_x, steps)], rescale,
                           increasing=True)
