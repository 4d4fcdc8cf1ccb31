"""Hot numeric kernels: RK4 frame propagation and determinant-form tables.

Both kernels are batched numpy: `rk4_grid` propagates every lambda line of a
batch at once, `march` every line of a problem's whole lambda grid one step
at a time, and `omega_tables` evaluates the forms over all nodes in chunks.
It is the one evaluator of omega1, omega2 and the Gram normalization d (a
single node is a batch of one), and `volume_rates` gives a frame's volume
data.  COLLAPSE_TOL is the one rank rule, for given and propagated frames
alike (`multilinear.Frame` applies it through `volume_rates`).  Per-call
timings on an example2-sized problem are part of the pipeline benchmark
(`python3 benchmarks/pipeline/run.py --trace 1`).

The forms are evaluated in Pluecker coordinates (the compound-matrix method
of Allen & Bridges, Numer. Math. 92, 2002).  ghat holds the m x m minors of
G and hhat the (n-m) x (n-m) minors of H, row sets in lexicographic order;
both come from a Laplace recursion over columns driven by index tables
cached per (n, k), elementwise, so no BLAS or LAPACK call runs per node and
a node's values never depend on its batch.  Then

    omega1 = det([G H]) = sum_I sign(I, I^c) ghat_I hhat_{I^c} = ghat^T J hhat
    omega2 = ghat^T K hhat,  K = D_m(ATg)^T J + J D_{n-m}(ATh)
    d      = |ghat| |hhat|

J is the Hodge pairing; D_k(A), the derived (additive) compound, is the
action of A on k-vectors as a derivation, so that D_m(ATg) ghat is the sum of
the single-column replacements g_k -> ATg g_k, and omega2 is the
column-replacement sum.  K is scattered from cached tables once per call.
|ghat|^2 = det(G^T G) by Cauchy-Binet, so d is the Gram normalization
without forming a Gram matrix; likewise, as F' = A F induces ghat' =
D_m(A) ghat, the Gram log-derivative is ghat^T D_m(A) ghat / |ghat|^2
(`volume_rates`), with no Gram solve to square the frame's condition number.
The H side (J hhat, K hhat, |hhat|) is computed once per distinct H frame;
each G node then costs its minors and two C(n, m)-term dot products.  Collapse rule: d is NaN where either frame's
squared volume is at most COLLAPSE_TOL = 2^-52 times the product of its
squared column norms, the rounding floor of det(F^T F), below which a
propagated frame has lost its subdominant directions (the Pluecker norm
itself stays positive there, so the rule must be explicit).  The chunk of
nodes is sized so that its temporaries, about 6 C(n, m) + n^2 doubles per
node, fit FORM_BUDGET bytes at any n.

Coefficient matrices enter through a half-step table: ``a_half[j]`` holds the
lambda-independent part of A at x = x0 + j*h/2, and the full matrix is
``a_half[j] + lam * E``: every coefficient field is affine in lambda, with a
constant matrix E, so one table serves every lambda line.

RK4 runs in propagator form.  For the linear ODE F' = A F one classical RK4
step is a matrix, F_{k+1} = P_k F_k, with

    K1 = A0,  K2 = Ah + (h/2) Ah K1,  K3 = Ah + (h/2) Ah K2,  K4 = A1 + h A1 K3,
    P_k = I + (h/6) (K1 + 2 K2 + 2 K3 + K4)

(A0, Ah, A1: A at the step's start, midpoint and end; h may differ from
step to step, for a chain of runs), so a leg is a prefix product of step
matrices.  Since A = a + lam E is affine in lambda, K_j is a polynomial of
degree j in lambda and P_k one of degree at most 4, P_k(lam) = sum_j lam^j C_j.  The
coefficients C_0..C_4 of every x segment are built by exact
polynomial-matrix arithmetic on (a + lam E): three stages, each one batched
product with the a table and one with E, about 18 (steps, n, n) products in
all.  They are kept up to the last C_j that is not all zero (`_trimmed`):
a companion-form E has E^2 = 0, which makes C_3 = C_4 = 0 exactly, so
both catalog field kinds keep C_0..C_2, while a field with E^2 != 0 keeps
degree 4.  They are built once per chain: a caller that passes a dict as
`coefficients` (propagation keeps one per chain, next to its half-step
table) gets them kept, keyed by the segment's step range, and every later
call on the chain, or on a prefix of it, skips the build.  Every line's P_k
is then C_0 + lam (C_1 + lam (...)) by elementwise Horner, with no BLAS call, so in
rk4_grid a line's bits do not depend on its batch, and no interpolation nodes, so no
lambda is an extrapolation; the dropped terms would only add zeros, so no
value changes (at most the sign of an exact zero).  Horner writes into a buffer padded to whole
blocks with exact identity steps, so nothing is copied to pad it.
The steps are then grouped in blocks of b = ceil(sqrt(steps)): b - 1
batched products give every block's partial products Q_j = P_j ... P_1
(`_prefixes`), the block starts are carried one block after another
(`_carry`), and each block's nodes are expanded by one product, its stacked
prefixes (b n x n) times its start (`_expand`), which gives the same bits
as b separate (n x n)(n x m) products (the kernel tests check this against
a frozen copy of the per-node expansion).  A 1,000-step leg, 32 blocks of
32, thus takes 31 product calls per chunk of lines, 31 carry iterations of
5 calls and one expansion call, each over many lines at once, instead of
1,000 steps; inside the expansion BLAS runs 32 products per line instead of
1,000.  In endpoint mode (`_endpoint`) each chunk of lines keeps only its
block totals, its last block's prefixes and its exponent sums, and one
carry serves a batch of whole chunks whose kept arrays fit 4 * STEP_BUDGET
bytes (128 lines of a 1,000-step leg at n = 4, where a chunk holds 8).  The
last node is expanded through the same stacked product as in the full
sweep, the last block's (b n x n) prefixes times its start, and normalized
by the same reductions, so it equals the full sweep's last node bit for bit
by construction: the same BLAS call on the same operands, not two products
of different shapes that happen to round alike.
An x segment of more than one step whose half-step rows and step sizes are
all bitwise equal (a constant-coefficient field in one run) has one step
matrix P: its coefficients are built from one step and kept as (d + 1, 1,
n, n), the length-1 step axis meaning "every step is this step", and it is
chained by repeated squaring, about log2(steps) products per line instead
of a carry over sqrt(steps) block starts (`_powers`, `_squaring`).  Node j
is the start with P^(2^l) applied for each set bit l of j, lowest bit
first, its columns normalized after each application; the endpoint applies
the last node's powers by the same products in the same order, so it
equals the full sweep's last node bit for bit.  Near the identity the
powers are squared as a I + D_l (D_0 = P - I), so their rounding scales
with |D_l| and is not doubled by every squaring; once a bound from |P -
I| no longer keeps D_l within a / 2 they are plain squares, which also
keeps a power that every mode has decayed through from cancelling against
a I.
Against P^j F0 in long double, the frames of random 1,000- and 2,049-step
legs come out 2 to 84 times closer than the step-by-step chain's (median
16).  Plain squares of a strongly non-normal P lose more: at -phi'' -
2000 phi' = lam phi over 1,000 steps (each step decays by e^-1) the frames
are up to 9 times farther off than the step-by-step chain's, while RK4
itself is 2% off exp(h A) per step there.
These are not the blocked path's bits, which every x-dependent segment
keeps.  Between column normalizations the squaring applies up to
2^floor(log2 steps) steps where a block carry applies b; neither
re-orthogonalizes, so neither keeps subdominant directions better.
With rescaling, the expanded node is column-normalized as if it had been
normalized after every step, and its scale_log is the block start's plus m
log s plus the log of the m column norms, where s = s_1 ... s_j is the
power of two that the block's steps were divided by.  A stiff line divides
each P_k by the power of two s_k of its largest |entry| before the
products (an exact operation), so every partial product is the true one
divided by s and cannot overflow inside a block.  A line near the identity
on a segment needs none: when rho_0 + |lam| rho_1 + ... + |lam|^d rho_d <=
1/2, with rho_0 = max_k |C_0[k] - I|_inf and rho_j = max_k |C_j[k]|_inf
(`_step_bounds`, bounds of every prefix too), every step has |P_k|_inf <=
3/2 and |P_k^-1|_inf <= 2, so a block of b <= 182 steps (a segment holds
at most 8,192 steps at n = 2, 32,768 at n = 1) keeps a normalized start's
columns between about 2^-182 and 1.5^182 in norm, far inside double range,
and its steps take s_k = 1 (`_stiff`; a NaN bound is stiff).  The bounds
read every C_j once, more than one line's |entries|, so only a call that
keeps its coefficients (a `coefficients` dict) builds them, once per kept
segment, beside C; a call without one divides every line as before.  A
chunk of lines all near the identity reads no |entry| and makes no
exponent (m log s is 0); in a chunk with a stiff line the other lines'
exponents are 0, and ldexp by 2^0 is exact, so a line's bits do not
depend on the other lines of its batch.  Scaling by a power of two is
exact, so the frames have the same bits either way; only the last bits of
scale_log follow the exponents applied.  On the catalog's x-dependent
legs every rescaled step is near the identity (the largest bound is about
0.19).  The carry loop does only the products and
the column normalizations; the logs come after it, and the block starts'
scale_logs are one cumsum over [acc, m log s, sum log norms, ...], which
adds in the order of a step-by-step loop.  The expanded nodes' column
norms and their log sums over m add one term after another (`_normalize`),
not by np.sum over an axis n or m long, whose per-call cost dominates at
such lengths; below 8 terms np.sum adds in the same order, so the bits are
the same (from 8 terms on, at m = 1 with n >= 8 or at m >= 8, np.sum adds
pairwise and the last bits differ).  Each column is read as the entries
i*m + c of the nodes' (..., n*m) view, so every square, add and divide
runs along the long node axes, not along an inner axis m long.  The
block-start carry keeps one reduction over the n rows (np.add.reduce into
arrays made once per call): its arrays are small, and one call costs less
than 2n - 1 row adds.
Temporaries are bounded two
ways.  An x segment holds STEP_BUDGET bytes of one line's step matrices, so
a longer leg is cut into segments that depend on steps and n only (a
larger STEP_BUDGET would move them, and with them the bits of long legs).
A chunk of lines fills up to 4 * STEP_BUDGET bytes of (lines, steps, n, n)
temporaries, Horner's step matrices and their |entries|: two buffers that
every chunk of a call reuses (fresh ones per chunk cost more in page
faults than the batching saves), of which a call with no stiff line never
writes the second; and an endpoint
batch as much again of kept arrays; lines are independent, so neither
changes a bit, only the number of numpy calls.  An x-uniform segment makes
no (lines, steps, n, n) temporary: its powers take (log2 steps, lines, n,
n), and its full sweep's temporaries are a few times one level's nodes,
no more than the frames it fills.

`march` serves the full-grid pass, which needs every node of every line of
the lambda grid, and the top edge of an x-dependent leg.  It reads the same
kept coefficients but forms no line's P_k: with the carried frames of all
L lines as the columns of F (n, L m), one step is F <- sum_j C_j lam^j F =
[C_0 ... C_d] Z, Z = [F; lam F; ...; lam^d F] stacked from F by one
elementwise product, so each step is one (n x (d+1) n)((d+1) n x L m) GEMM
whose numpy cost barely grows with L, where rk4_grid pays small products
per line.  This is not step-by-step frame marching, which formed each line's P_k and paid
one small product per line per step.  Z holds (lam / s)^j F against C_j
s^j, s the power of two above every |lam|: the same bits while in range,
and no |lam|^d F overflows on a step whose result fits.  A GEMM column's
bits depend on the width of its batch, so a line's bits here depend on the
lambda grid it is marched with; the march runs only over a problem's whole
lambda grid, so every run repeats, and never over a narrow batch.  The
nodes come in x-blocks of MARCH_NODES // L steps, shorter with rescaling
where _step_bounds asks for it (see `march`); each block's last node is
column-normalized and carried into the next, and the block's nodes are
yielded as a view of one buffer, so the caller streams them and no frame
grid is kept.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

# Backend facts for callers that report them: the numpy kernels are the only ones.
NUMBA_ENABLED = False


def backend_name() -> str:
    return "numpy"


# Bytes allowed for each (lines, steps, n, n) temporary of `rk4_grid`.
STEP_BUDGET = 1 << 18

# Nodes (lines times steps) per x-block of `march`: bounds the block's node
# buffer and what its caller makes of one block.
MARCH_NODES = 1 << 14

# Bytes allowed for the temporaries of one `omega_tables` chunk.
FORM_BUDGET = 1 << 20

# Collapse rule of `omega_tables`: a frame whose squared volume is at most
# this times the product of its squared column norms has collapsed, and its
# d is NaN.  It is the rounding floor of det(F^T F).
COLLAPSE_TOL = 2.0 ** -52


def sweep_layout(n: int, steps: int):
    """(steps per x segment, lines per chunk) of an rk4_grid sweep: a segment
    holds STEP_BUDGET bytes of one line's step matrices, a chunk of lines 4
    times that."""
    matrix_bytes = 8 * n * n
    seg = max(1, min(steps, STEP_BUDGET // matrix_bytes))
    return seg, max(1, 4 * STEP_BUDGET // (matrix_bytes * seg))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # blow-ups are caught by callers
def rk4_grid(a_half, E, lams, init, h, rescale, endpoint=False, coefficients=None):
    """Propagate initial frames over a batch of lambda values.

    a_half is the half-step table (2*steps+1, n, n) of the lambda-free part,
    shared by every line, and E the constant lambda matrix.  h is the step
    size, or one step size per step, (steps,), for a chain of runs of
    different steps.
    init is one (n, m) frame that every line starts from, or one frame per
    line, (L, n, m); each line's result does not depend on the other lines of
    the batch.  Returns (frames, scale_log) with shapes (L, steps+1, n, m)
    and (L, steps+1), or, with `endpoint`, (L, 1, n, m) and (L, 1): the last
    node alone, equal bit for bit to the last node of the full result.
    scale_log accumulates the log of the product of column rescaling
    factors, so raw-form values can be reconstructed as value * exp(scale_log).
    `coefficients` is a dict that keeps the step coefficients of this
    (a_half, E, h) for later calls, one entry (C, rho) per x segment keyed
    by its step range: C_0..C_d (one step's worth for an x-uniform segment,
    see above) and their step bounds (`_step_bounds`, None until a rescaled
    sweep chains the segment in blocks); it is filled on first use.  Only
    a call with such a dict skips the rescale of lines near the identity
    (see above), so scale_log's last bits may differ from a call without
    one; the frames do not.  A prefix of the same table and steps may pass
    the same dict: a segment (s0, s1) is served from any kept (s0, t) with
    t >= s1, sliced to its first s1 - s0 steps, so a prefix of a swept
    chain builds no coefficients.
    """
    a_half = np.ascontiguousarray(a_half, dtype=float)
    E = np.ascontiguousarray(E, dtype=float)
    lams = np.ascontiguousarray(lams, dtype=float)
    init = np.ascontiguousarray(init, dtype=float)
    steps = (a_half.shape[0] - 1) // 2
    h = np.broadcast_to(np.asarray(h, dtype=float), (steps,)).reshape(steps, 1, 1)
    n, m = init.shape[-2:]
    L = lams.shape[0]
    frames = np.empty((L, 2 if endpoint else steps + 1, n, m))
    slog = np.zeros(frames.shape[:2])
    frames[:, 0] = init
    cached = coefficients is not None
    if not cached:
        coefficients = {}
    seg, chunk = sweep_layout(n, steps)
    # Horner's step matrices and _max_abs's |entries|, one buffer each for
    # every chunk: fresh megabyte temporaries per chunk cost page faults.
    # A call with no stiff line never writes the second, so touches none
    # of its pages.  Made apart, the two cost a count-oracle pass about
    # 1,300 more minor faults (a smaller largest allocation leaves glibc's
    # dynamic mmap threshold lower, so later temporaries are mapped afresh)
    padded = max(math.prod(_blocks(k)) for k in {seg, steps - (steps - 1) // seg * seg})
    work = np.empty((2, min(chunk, L) * padded * n * n))
    for s0 in range(0, steps, seg):
        s1 = min(s0 + seg, steps)
        k = s1 - s0
        key = _kept(a_half, E, h, coefficients, s0, s1)
        C = coefficients[key][0]
        if C.shape[1] == 1 < k:  # one step stands for every step: powers by squaring
            nodes = slice(None) if endpoint else slice(s0, s1 + 1)
            _squaring(C, k, lams, frames[:, nodes], slog[:, nodes], rescale, endpoint)
        else:
            stiff = np.full(L, rescale)
            if rescale and cached:  # bounds pay off once kept: built by the first sweep
                stiff = _stiff(_kept_bounds(coefficients, key), lams)
            C = C[:, :k]
            if endpoint:
                batch = _endpoint_batch(n, k, chunk)
                for lo in range(0, L, batch):
                    lines = slice(lo, lo + batch)
                    _endpoint(C, k, lams[lines], chunk, frames[lines], slog[lines], rescale,
                              stiff[lines], work)
            else:
                for lo in range(0, L, chunk):
                    lines = slice(lo, lo + chunk)
                    _chain(_horner(C, k, lams[lines], work[0]), k, frames[lines, s0:s1 + 1],
                           slog[lines, s0:s1 + 1], rescale, stiff[lines], work[1])
        if endpoint:
            frames[:, 0], slog[:, 0] = frames[:, 1], slog[:, 1]  # the next segment's start
    return (frames[:, :1], slog[:, :1]) if endpoint else (frames, slog)


def _kept(a_half, E, h, coefficients, s0, s1):
    """The key of the kept coefficients that serve the x segment s0..s1 of
    the chain (a_half, E, h), built and kept in the dict `coefficients` on
    first use: any kept (s0, t) with t >= s1 serves it (see rk4_grid)."""
    key = next(((a, t) for a, t in coefficients if a == s0 and t >= s1), None)
    if key is None:
        table, hs = a_half[2 * s0:2 * s1 + 1], h[s0:s1]
        if _bitwise_equal(hs, hs[0]) and _bitwise_equal(table, table[0]):
            table, hs = table[:3], hs[:1]  # x-uniform: one step stands for every step
        key = s0, s1
        coefficients[key] = _trimmed(_coefficients(table, E, hs)), None
    return key


def _segment_keys(a_half, E, h, coefficients):
    """The keys of the kept coefficients of every x segment of the chain
    (a_half, E, h), h of shape (steps, 1, 1), in sweep order (see _kept)."""
    steps = len(h)
    seg = sweep_layout(a_half.shape[-1], steps)[0]
    return [_kept(a_half, E, h, coefficients, s0, min(s0 + seg, steps))
            for s0 in range(0, steps, seg)]


def uniform(a_half, E, h, coefficients):
    """Whether every x segment of the chain (a_half, E, h) is kept as one
    step, which rk4_grid chains by squaring: an x-uniform chain.  Arguments
    are as in march; the coefficients not yet kept are built and kept."""
    a_half = np.ascontiguousarray(a_half, dtype=float)
    steps = (a_half.shape[0] - 1) // 2
    h = np.broadcast_to(np.asarray(h, dtype=float), (steps,)).reshape(steps, 1, 1)
    return all(coefficients[key][0].shape[1] == 1
               for key in _segment_keys(a_half, E, h, coefficients))


def _kept_bounds(coefficients, key):
    """The step bounds of a kept segment (_step_bounds), built and kept
    beside its coefficients on first use."""
    C, rho = coefficients[key]
    if rho is None:
        rho = _step_bounds(C)
        coefficients[key] = C, rho
    return rho


def _bitwise_equal(a, b):
    """Whether every entry of a has the bits of b (b broadcast against a)."""
    return bool(np.all(a.view(np.int64) == b.view(np.int64)))


def _times(a, E, X):
    """(a + lam E) X for a polynomial matrix X, coefficients along axis 0."""
    Z = np.empty((len(X) + 1,) + X.shape[1:])
    np.matmul(a, X, out=Z[:-1])
    Z[-1] = 0.0
    Z[1:] += E @ X
    return Z


def _coefficients(table, E, h):
    """Monomial coefficients C_0..C_4 of the RK4 step matrices, P_k(lam) = sum lam^j C_j.

    table holds the lambda-free half-step values (2*steps+1, n, n), E the
    constant lambda matrix and h one step size per step, (steps, 1, 1).
    The RK4 stages are multiplied out exactly in polynomial-matrix
    arithmetic on (a + lam E); returns (5, steps, n, n).
    """
    a0, ah, a1 = table[0:-1:2], table[1::2], table[2::2]

    def stage(a, X, c):  # a + lam E + c (a + lam E) X
        K = _times(a, E, X)
        K *= c
        K[0] += a
        K[1] += E
        return K

    K1 = np.stack(np.broadcast_arrays(a0, E))
    K2 = stage(ah, K1, h / 2.0)
    K3 = stage(ah, K2, h / 2.0)
    K4 = stage(a1, K3, h)
    P = K4  # K1 + 2 K2 + 2 K3 + K4, degree by degree
    P[:4] += 2.0 * K3
    P[:3] += 2.0 * K2
    P[:2] += K1
    P *= h / 6.0
    P[0] += np.eye(table.shape[-1])
    return P


def _trimmed(C):
    """C_0..C_d, d >= 1 the degree of the last C_j that is not all zero.

    A companion-form E has E^2 = 0, so C_3 = C_4 = 0 exactly and Horner
    stops at lam^2; the dropped terms would only have added zeros.
    """
    d = len(C) - 1
    while d > 1 and not C[d].any():
        d -= 1
    return C if d == len(C) - 1 else C[:d + 1].copy()


def _step_bounds(C):
    """rho_0 = max_k |C_0[k] - I|_inf and rho_j = max_k |C_j[k]|_inf for
    j >= 1, so that |P_k(lam) - I|_inf <= sum_j |lam|^j rho_j at every
    step; NaN where C_j holds a NaN.  They bound every step of a prefix too."""
    A = np.abs(C)
    A[0] = np.abs(C[0] - np.eye(C.shape[-1]))
    return A.sum(axis=-1).max(axis=(1, 2))


def _bounds(rho, lams):
    """rho_0 + |lam| rho_1 + ... + |lam|^d rho_d at every lambda of lams: a
    bound on |P_k(lam) - I|_inf at every step (see _step_bounds)."""
    x = np.abs(lams)
    bound = np.full(len(lams), rho[-1])
    for r in rho[-2::-1]:
        bound *= x
        bound += r
    return bound


def _stiff(rho, lams):
    """The lines whose steps a rescaled sweep divides by powers of two (see
    _prefixes): every line that is not near the identity, _bounds <= 1/2
    (a NaN bound is not)."""
    return ~(_bounds(rho, lams) <= 0.5)


def _blocks(steps):
    """Block length b = ceil(sqrt(steps)) of a leg, and its number of blocks."""
    b = math.isqrt(steps - 1) + 1
    return b, -(-steps // b)


def _horner(C, steps, lams, buf=None):
    """Every line's step matrices sum_j lam^j C_j, padded with identity steps
    to whole blocks: (lines, b * blocks, n, n), see _blocks.  C holds the
    coefficients up to the polynomial's degree (at least 1, see _trimmed).

    Elementwise Horner (no BLAS call, so a line's bits do not depend on its
    batch), written straight into the padded buffer: the head of the flat
    array buf if given, else a new one.
    """
    n = C.shape[2]
    b, nb = _blocks(steps)
    shape = (len(lams), nb * b, n, n)
    out = np.empty(shape) if buf is None else buf[:math.prod(shape)].reshape(shape)
    P = out[:, :steps]
    lam = lams[:, None, None, None]
    np.multiply(C[-1], lam, out=P)
    for c in C[-2:0:-1]:
        P += c
        P *= lam
    P += C[0]
    out[:, steps:] = np.eye(n)
    return out


def _max_abs(P, buf):
    """The largest |entry| of every matrix of P (..., n, n); the |entries|
    go to the head of the flat array buf.

    One np.maximum per entry over the contiguous (..., n*n) view: exact, like
    np.max (NaN included), and several times faster than a reduction over
    rows as short as n*n.
    """
    A = np.abs(P, out=buf[:P.size].reshape(P.shape)).reshape(-1, P.shape[-1] * P.shape[-2])
    top = A[:, 0].copy()
    for c in range(1, A.shape[1]):
        np.maximum(top, A[:, c], out=top)
    return top.reshape(P.shape[:-2])


def _prefixes(P, steps, stiff, buf):
    """Every block's partial products Q_j = P_j ... P_1, in place of P.

    P is _horner's output and buf _max_abs's scratch; stiff (lines,) marks
    the lines whose steps are divided by the power of two of their largest
    |entry| (see _stiff).  Returns Q as (lines, blocks, b, n, n) and, if
    some line is stiff, the cumulative exponents (lines, blocks, b) of those
    powers of two, 0 on every other line; otherwise None, with no |entry|
    read.
    """
    lines, _, n = P.shape[:3]
    b, nb = _blocks(steps)
    Q = P.reshape(lines, nb, b, n, n)
    cum = None
    if stiff.any():
        e = np.frexp(_max_abs(P, buf).reshape(Q.shape[:3]))[1]
        e[~stiff] = 0
        np.ldexp(Q, -e[..., None, None], out=Q)
        cum = np.cumsum(e, axis=2)
    for j in range(1, b):
        np.matmul(Q[:, :, j], Q[:, :, j - 1], out=Q[:, :, j])
    return Q, cum


def _carry(totals, start, acc, m_log_s, rescale):
    """Every block's start frame and scale_log from the block totals.

    totals (lines, blocks-1, n, n) are the products of all blocks but the
    last, start (lines, n, m) and acc (lines,) the first block's start, and
    m_log_s (lines, blocks-1) the m log s at each block's end (rescale only).
    Returns starts (lines, blocks, n, m) and their scale_logs (lines, blocks).
    """
    lines, nb1 = totals.shape[:2]
    m = start.shape[-1]
    starts = np.empty((lines, nb1 + 1) + start.shape[1:])
    starts[:, 0] = start
    nrms = np.empty((lines, nb1, m))
    sq = np.empty(start.shape)
    for i in range(nb1):
        F = np.matmul(totals[:, i], starts[:, i], out=starts[:, i + 1])
        if rescale:
            nrm = nrms[:, i]
            np.add.reduce(np.multiply(F, F, out=sq), axis=-2, out=nrm)
            np.sqrt(nrm, out=nrm)
            np.divide(F, nrm[..., None, :], out=F)
    if not rescale:
        return starts, np.repeat(acc[:, None], nb1 + 1, axis=1)
    # acc_{i+1} = (acc_i + m log s) + sum log nrm, one cumsum in that order
    terms = np.empty((lines, 2 * nb1 + 1))
    terms[:, 0] = acc
    terms[:, 1::2] = m_log_s
    terms[:, 2::2] = np.sum(np.log(nrms), axis=-1)
    return starts, np.cumsum(terms, axis=1)[:, ::2]


def _expand(Q, starts):
    """The nodes Q_j F_start of blocks (..., b, n, n) from their starts
    (..., n, m): one (b n x n)(n x m) product per block, (..., b, n, m)."""
    b, n = Q.shape[-3:-1]
    lead = Q.shape[:-3]
    return (Q.reshape(lead + (b * n, n)) @ starts).reshape(lead + (b, n, starts.shape[-1]))


def _normalize(nodes, s, m_log_s):
    """Normalize the columns of nodes (..., n, m) in place; returns their
    scale_logs s + (m log s + the log of the m column norms), elementwise.

    Column c is the entries i*m + c of the (..., n*m) view (a view even of
    a non-contiguous slice of frames, whose (n, m) trailing axes are
    contiguous): its squares are added row after row and each entry is
    divided by the root, every call running along the long leading axes.
    """
    n, m = nodes.shape[-2:]
    flat = nodes.reshape(nodes.shape[:-2] + (n * m,), copy=False)
    acc, sq = np.empty((2,) + nodes.shape[:-2])
    logs = np.zeros(nodes.shape[:-2])  # 0 + log(norm) is log(norm) exactly
    for c in range(m):
        col = flat[..., c]
        np.multiply(col, col, out=acc)
        for i in range(1, n):
            col = flat[..., i * m + c]
            acc += np.multiply(col, col, out=sq)
        np.sqrt(acc, out=acc)
        for i in range(n):
            flat[..., i * m + c] /= acc
        logs += np.log(acc, out=sq)
    return s + (m_log_s + logs)


def _store(nodes, s, m_log_s, frames, slog, rescale):
    """Write expanded nodes (lines, k, n, m) and their block starts'
    scale_logs s (lines, k) into frames[:, 1:] and slog[:, 1:], column-
    normalized with rescaling, m_log_s (lines, k) being their m log s."""
    if rescale:
        s = _normalize(nodes, s, m_log_s)
    frames[:, 1:] = nodes
    slog[:, 1:] = s


def _chain(P, steps, frames, slog, rescale, stiff, buf):
    """Chain the first `steps` step matrices of P from frames[:, 0] into frames[:, 1:].

    P is _horner's padded output, (lines, b * blocks, n, n), and is
    overwritten; stiff and buf are as in _prefixes.  frames (lines,
    steps+1, n, m) and slog (lines, steps+1) are written in place;
    frames[:, 0] and slog[:, 0] hold the start.
    """
    lines, _, n = P.shape[:3]
    m = frames.shape[-1]
    b, nb = _blocks(steps)
    Q, cum = _prefixes(P, steps, stiff, buf)
    m_log_s = np.zeros((lines, nb * b))  # + 0 where no step was divided: exact
    if cum is not None:
        m_log_s = (cum * (m * math.log(2.0))).reshape(lines, nb * b)
    starts, accs = _carry(Q[:, :-1, -1], frames[:, 0], slog[:, 0],
                          m_log_s[:, b - 1:(nb - 1) * b:b], rescale)
    nodes = _expand(Q, starts).reshape(lines, nb * b, n, m)[:, :steps]
    _store(nodes, np.repeat(accs, b, axis=1)[:, :steps], m_log_s[:, :steps],
           frames, slog, rescale)


def _endpoint_batch(n, steps, chunk):
    """Lines per `_endpoint` call: whole chunks whose kept arrays, the block
    totals and the last block's prefixes, fit 4 * STEP_BUDGET bytes."""
    b, nb = _blocks(steps)
    return chunk * max(1, 4 * STEP_BUDGET // (8 * n * n * (nb - 1 + b) * chunk))


def _endpoint(C, steps, lams, chunk, frames, slog, rescale, stiff, work):
    """The last node of every line's chain from frames[:, 0] into frames[:, 1].

    C holds the segment's step coefficients (see _horner), frames
    (lines, 2, n, m) and slog (lines, 2), stiff is as in _prefixes, and
    work holds the chunks' Horner and _max_abs buffers.  Each chunk of
    lines runs Horner, the rescale of its stiff lines and the prefix
    products, and keeps the block totals, the last block's prefixes and
    the exponent sums; one block-start carry then serves every line, and
    the last block is expanded by the same product as in `_chain`, so the
    node equals the full chain's last node bit for bit.
    """
    n = C.shape[2]
    m = frames.shape[-1]
    b, nb = _blocks(steps)
    j = (steps - 1) % b  # the last node's position in the last block
    lines = len(lams)
    totals = np.empty((lines, nb - 1, n, n))
    last = np.empty((lines, b, n, n))
    exps = np.zeros((lines, nb))  # exponent sums at the block ends, then at the last node
    for lo in range(0, lines, chunk):
        part = slice(lo, lo + chunk)
        Q, cum = _prefixes(_horner(C, steps, lams[part], work[0]), steps, stiff[part], work[1])
        totals[part] = Q[:, :-1, -1]
        last[part] = Q[:, -1]
        if cum is not None:
            exps[part, :-1] = cum[:, :-1, -1]
            exps[part, -1] = cum[:, -1, j]
    m_log_s = exps * (m * math.log(2.0))
    starts, accs = _carry(totals, frames[:, 0], slog[:, 0], m_log_s[:, :-1], rescale)
    _store(_expand(last, starts[:, -1])[:, j:j + 1], accs[:, -1:], m_log_s[:, -1:],
           frames, slog, rescale)


def _powers(C, steps, lams, rescale):
    """The powers S_l = P^(2^l), l < steps.bit_length(), of every line's one
    step matrix P (C of an x-uniform segment, (d + 1, 1, n, n)): (levels,
    lines, n, n).

    Near the identity each power is squared as a I + D_l, D_0 = P - I and
    D_(l+1) = 2 a D_l + D_l D_l, so that its rounding scales with |D_l|,
    not with |S_l|, and is not doubled by every later squaring.  A line
    keeps that form while |D_l|_F <= a / 2 is certain from the bound
    |D_l|_F <= a ((1 + |D_0|_F)^(2^l) - 1), and for one level more, whose
    power is then at least a / 4 in every direction, so a I + D_l cancels
    at most about nine-fold; after it the line's powers are plain squares
    (D_l = S_l, a = 0), and a line with no certain level starts from S_0 =
    P.  Further out the form gains nothing, and a power that every mode has
    decayed through would lose its digits to the cancellation of a I + D_l.
    Without rescaling a = 1 until then; returns (S, None).  With rescaling
    each power is divided by the power of two 2^e of its largest |entry|
    (exact), so that P^(2^l) = 2^E_l S_l with E_l = 2 E_(l-1) + e, and so
    is a (a = 2^-E_l); returns (S, E), E (levels, lines).
    """
    P = _horner(C, 1, lams)[:, 0]
    lines, n = P.shape[:2]
    D = P - np.eye(n)
    S = np.empty((steps.bit_length(), lines, n, n))
    E = np.zeros(S.shape[:2], dtype=np.int64) if rescale else None
    a = np.ones((lines, 1, 1))
    # each line's last level as a I + D_l: one past the last l with 2^l <= r =
    # log 1.5 / log1p(|D_0|_F), which is frexp's exponent of r; 0 if there is
    # none (or r is NaN, or infinite: P = I)
    r = math.log(1.5) / np.log1p(np.sqrt((D * D).sum(axis=(-2, -1))))
    last = np.maximum(np.frexp(r)[1], 0)
    top, turns = last.max(), set(last.tolist())
    for l in range(len(S)):
        if l > top or not top:  # every line squares plainly
            S[l] = S[l - 1] @ S[l - 1] if l else P
        else:
            if l:
                twice = D * (2.0 * a)
                D = D @ D
                D += twice
                a = a * a
            S[l] = D
            S[l].reshape(lines, n * n)[:, ::n + 1] += a[:, 0]
            if l in turns:
                turn = last == l
                if not l:
                    S[0, turn] = P[turn]
                D[turn], a[turn] = S[l, turn], 0.0
        if rescale:
            e = np.frexp(np.abs(S[l]).max(axis=(-2, -1)))[1][:, None, None]
            np.ldexp(S[l], -e, out=S[l])
            if l < top:
                np.ldexp(D, -e, out=D)
                a = np.ldexp(a, -e)
            E[l] = 2 * E[l - 1] + e[:, 0, 0] if l else e[:, 0, 0]
    return S, E


def _squaring(C, steps, lams, frames, slog, rescale, endpoint):
    """Chain `steps` equal steps from frames[:, 0] by the powers of _powers.

    Node j is the start with S_l applied for each set bit l of j, lowest bit
    first, its columns normalized after each application (rescale only), so
    its scale_log is the start's plus, per applied power, m E_l log 2 and
    the log of the m column norms.  In full mode frames (lines, steps+1, n,
    m) and slog (lines, steps+1) are filled level by level: nodes 2^l ..
    2^(l+1) - 1 are S_l times nodes 0 .. 2^l - 1, one batched product.  With
    `endpoint`, frames (lines, 2, n, m) and slog (lines, 2) get the last node
    in frames[:, 1] by the same products of the same operands in the same
    order, so it equals the full sweep's last node bit for bit.
    """
    S, E = _powers(C, steps, lams, rescale)
    m_log = E * (frames.shape[-1] * math.log(2.0)) if rescale else None
    if endpoint:
        F, s = frames[:, 0], slog[:, 0]
        for l in range(len(S)):
            if steps >> l & 1:
                F = S[l] @ F
                if rescale:
                    s = _normalize(F, s, m_log[l])
        frames[:, 1], slog[:, 1] = F, s
        return
    for l in range(len(S)):
        lo = 1 << l
        k = min(lo, steps + 1 - lo)  # nodes made at this level
        nodes = np.matmul(S[l][:, None], frames[:, :k], out=frames[:, lo:lo + k])
        s = slog[:, :k]
        if rescale:
            s = _normalize(nodes, s, m_log[l][:, None])
        slog[:, lo:lo + k] = s


def march(a_half, E, lams, init, h, rescale, coefficients):
    """Every lambda line's nodes, step after step, all lines in one product
    per step; a generator of x-blocks.

    Arguments are as in rk4_grid, and `coefficients` is the chain's dict:
    the march reads the kept C_0..C_d of every x segment (building those not
    yet kept) and never forms a line's step matrix.  The carried frames of
    all L lines are the columns of F (n, L m); each step stacks Z = [F;
    lam F; ...; lam^d F], one elementwise product, and sets F <- [C_0 ...
    C_d] Z, one (n x (d+1) n)((d+1) n x L m) GEMM, whose numpy cost barely
    grows with L.  A GEMM column's bits depend on the width of its batch,
    so the march is meant for a problem's whole lambda grid, never for a
    narrow batch; on that grid every run repeats.
    An x-block is MARCH_NODES // L steps; with rescaling it is cut to the
    normalization interval that _step_bounds allows: at most 182 steps (the
    longest block of rk4_grid's chain, _blocks(STEP_BUDGET // 8)), and
    where the bound b on |P_k - I|_inf of the grid's largest |lam| exceeds
    1/2, at most 182 log 1.5 / log(1 + b) steps, so that a normalized
    start grows by at most 1.5^182 within a block.  The columns of each
    block's last node are normalized (rescale only) and carried into the
    next block; no scale_log is kept.  Yields (k0, nodes) per block: nodes
    (L, k + 1, n, m), the nodes k0 .. k0 + k, a view that the next block
    overwrites.
    """
    a_half = np.ascontiguousarray(a_half, dtype=float)
    lams = np.ascontiguousarray(lams, dtype=float)
    init = np.ascontiguousarray(init, dtype=float)
    steps = (a_half.shape[0] - 1) // 2
    h = np.broadcast_to(np.asarray(h, dtype=float), (steps,)).reshape(steps, 1, 1)
    n, m = init.shape[-2:]
    L = len(lams)
    seg = sweep_layout(n, steps)[0]
    keys = _segment_keys(a_half, E, h, coefficients)
    d = max(len(coefficients[key][0]) for key in keys) - 1
    b = max(1, MARCH_NODES // L)
    top = np.abs(lams).max(keepdims=True)  # the grid's largest |lam|
    if rescale:
        bound = max(float(_bounds(_kept_bounds(coefficients, key), top)[0]) for key in keys)
        near = _blocks(STEP_BUDGET // 8)[0]
        reach = near if bound <= 0.5 else near * math.log1p(0.5) / math.log1p(bound)
        b = min(b, int(reach)) if reach >= 1 else 1  # an infinite or NaN bound: one step
    # Z holds (lam / s)^j F and the product C_j s^j, s the power of two
    # just above every |lam|: exact scalings, the same bits as lam^j F and
    # C_j while they stay in range, and Z never exceeds F, so no |lam|^d F
    # overflows on a step whose result fits.  Z is one step's buffer, filled
    # by one product with the powers j = 0..d laid out (d + 1, n, L m): a
    # broadcast along the rows costs the product more than it saves.
    scale = np.ldexp(1.0, np.frexp(top[0])[1]) ** np.arange(d + 1)
    powers = np.empty((d + 1, n, L * m))
    powers[:] = (np.repeat(lams / scale[1], m) ** np.arange(d + 1)[:, None])[:, None]
    Z = np.empty((d + 1, n, L * m))
    stacked = Z.reshape((d + 1) * n, L * m)
    N = np.empty((b + 1, n, L * m))  # the block's nodes
    N[0] = np.broadcast_to(init, (L, n, m)).transpose(1, 0, 2).reshape(n, L * m)
    nodes = N.reshape(b + 1, n, L, m).transpose(2, 0, 1, 3)
    for k0 in range(0, steps, b):
        if k0:
            N[0] = N[k]  # the last block's end
        k = min(b, steps - k0)
        CS = np.zeros((k, n, d + 1, n))  # step i's [C_0 ... C_d] is CS[i] as (n, (d+1) n)
        for s0, key in zip(range(0, steps, seg), keys):
            lo, hi = max(k0, s0), min(k0 + k, s0 + seg)
            if lo < hi:
                C = coefficients[key][0]
                C = C[:, :1] if C.shape[1] == 1 else C[:, lo - s0:hi - s0]
                CS[lo - k0:hi - k0, :, :len(C)] = C.transpose(1, 2, 0, 3)
        CS *= scale[:, None]
        CS = CS.reshape(k, n, (d + 1) * n)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # callers refuse blow-ups
            for F, step, out in zip(N[:k], CS, N[1:k + 1]):
                np.multiply(F, powers, out=Z)
                np.matmul(step, stacked, out=out)
            if rescale:
                N[k] /= np.sqrt(_sum_rows(N[k] * N[k]))
        yield k0, nodes[:, :k + 1]


@functools.lru_cache(maxsize=None)
def _laplace_tables(n, k):
    """Index tables of the Laplace recursion for the k x k minors of n x k frames.

    One (rows, sub) pair per level j = 2..k, each shaped (C(n, j), j).  Row
    sets I of size j are in lexicographic order, and the minor of the first j
    columns on I expands along column j-1:

        M_j[I] = sum_t (-1)^(t+j-1) F[I_t, j-1] M_{j-1}[I minus I_t]

    with rows[I, t] = I_t and sub[I, t] the index of I minus I_t.
    """
    levels = []
    prev = {(i,): i for i in range(n)}
    for j in range(2, k + 1):
        subsets = list(itertools.combinations(range(n), j))
        sub = [[prev[s[:t] + s[t + 1:]] for t in range(j)] for s in subsets]
        levels.append((_frozen(subsets), _frozen(sub)))
        prev = {s: i for i, s in enumerate(subsets)}
    return tuple(levels)


def _frozen(rows):
    out = np.array(rows, dtype=np.intp)
    out.setflags(write=False)
    return out


def _minors(Ft):
    """The k x k minors of frames with their node axes last.

    Ft: (n, k, *nodes); returns (C(n, k), *nodes), row sets in lexicographic
    order.  Elementwise only, so a node's minors do not depend on its batch.
    """
    n, k = Ft.shape[:2]
    M = Ft[:, 0]
    for j, (rows, sub) in enumerate(_laplace_tables(n, k), start=2):
        col = Ft[:, j - 1]
        acc = col[rows[:, 0]] * M[sub[:, 0]]
        if j % 2 == 0:
            np.negative(acc, out=acc)
        for t in range(1, j):
            term = col[rows[:, t]] * M[sub[:, t]]
            if (t + j) % 2:
                acc += term
            else:
                acc -= term
        M = acc
    return M


def _sum_rows(a):
    """Sum over the first axis, one row after another, so that the rounding
    does not depend on the other axes' lengths (a reduction along a
    contiguous axis would switch to pairwise summation)."""
    acc = a[0].copy()
    for row in a[1:]:
        acc += row
    return acc


def _plucker(Ft):
    """Pluecker vector and collapse-checked volume of frames (n, k, *nodes).

    The volume is NaN where the squared volume is at most COLLAPSE_TOL times
    the product of the squared column norms.
    """
    M = _minors(Ft)
    vol2 = _sum_rows(M * M)
    norms2 = _sum_rows(Ft * Ft)
    floor = COLLAPSE_TOL * norms2[0]
    for c in range(1, Ft.shape[1]):
        floor *= norms2[c]
    return M, np.where(vol2 > floor, np.sqrt(vol2), np.nan)


def _compound_terms(n, k):
    """The derived compound D_k, term by term: (I, K, a, b, sign) per term.

    D_k(A) e_K = sum_t e_{K_1} ^ ... ^ A e_{K_t} ^ ... ^ e_{K_k}, so that
    D_k(X) xhat is the Pluecker vector summed over X's single-column
    replacements.  Its t-th term has coordinate (-1)^(p+t) A[a, K_t] on
    I = K minus K_t plus a, where p is the position of a in I; I and K
    index the k-subsets in lexicographic order.
    """
    subsets = list(itertools.combinations(range(n), k))
    index = {s: i for i, s in enumerate(subsets)}
    for col, K in enumerate(subsets):
        for t, b in enumerate(K):
            rest = K[:t] + K[t + 1:]
            for a in range(n):
                if a not in rest:
                    I = tuple(sorted(rest + (a,)))
                    yield index[I], col, a, b, (-1.0) ** (I.index(a) + t)


@functools.lru_cache(maxsize=None)
def _rate_terms(n, m):
    """The terms of ghat^T D_m(A) ghat as (I, K, a*n + b, np.add or np.subtract)."""
    return tuple((I, K, a * n + b, np.add if s > 0 else np.subtract)
                 for I, K, a, b, s in _compound_terms(n, m))


def volume_rates(F, A):
    """Column-volume ratio and volume log-derivative of frames under F' = A F.

    F: frames (..., n, m); A: coefficient matrices (..., n, n), one per node.
    Returns ratio = |ghat| / prod |f_k|, NaN where the frame collapsed, and
    rate = d/dx log |ghat| = ghat^T D_m(A) ghat / |ghat|^2, each of shape
    F.shape[:-2].  The terms are accumulated one at a time, elementwise, so
    a node's values do not depend on its batch.
    """
    F = np.asarray(F, dtype=float)
    n, m = F.shape[-2:]
    A = np.broadcast_to(np.asarray(A, dtype=float), F.shape[:-2] + (n, n))
    M, vol = _plucker(np.moveaxis(F, (-2, -1), (0, 1)))
    ratio = vol / np.prod(np.sqrt(np.sum(F * F, axis=-2)), axis=-1)
    At = np.moveaxis(A, (-2, -1), (0, 1)).reshape((n * n,) + A.shape[:-2])
    acc = np.zeros(F.shape[:-2])
    term = np.empty_like(acc)
    for I, K, ab, accumulate in _rate_terms(n, m):
        np.multiply(M[I], M[K], out=term)
        term *= At[ab]
        accumulate(acc, term, out=acc)
    return ratio, acc / (vol * vol)


@functools.lru_cache(maxsize=None)
def _form_tables(n, m):
    """Index tables of the bilinear forms omega1 = ghat^T J hhat, omega2 = ghat^T K hhat.

    J is the Hodge pairing: det([X Y]) = sum_I sign[I] xhat[I] yhat[comp[I]]
    over the m-subsets I, comp[I] indexing the complement among the
    (n-m)-subsets.  K = D_m(ATg)^T J + J D_{n-m}(ATh) sums every single-column
    replacement of [G H]; it is scattered entry by entry, K.flat[dst] +=
    coef * AT[src], from AT = the entries of ATg followed by those of ATh.
    """
    subsets = list(itertools.combinations(range(n), m))
    index = {s: i for i, s in enumerate(itertools.combinations(range(n), n - m))}
    comp = [index[tuple(sorted(set(range(n)) - set(s)))] for s in subsets]
    sign = [(-1.0) ** (sum(s) - m * (m - 1) // 2) for s in subsets]
    owner = {c: I for I, c in enumerate(comp)}  # inverse of comp
    C = len(subsets)
    dst, src, coef = [], [], []
    for I, R, a, b, s in _compound_terms(n, m):  # (D_m^T J)[R, comp[I]]
        dst.append(R * C + comp[I])
        src.append(a * n + b)
        coef.append(s * sign[I])
    for R, c, a, b, s in _compound_terms(n, n - m):  # (J D_{n-m})[owner[R], c]
        dst.append(owner[R] * C + c)
        src.append(n * n + a * n + b)
        coef.append(s * sign[owner[R]])
    return _frozen(comp), np.array(sign), _frozen(dst), _frozen(src), np.array(coef)


def _matvec(K, x):
    """K @ x for x (C, *nodes), column after column (elementwise, no BLAS)."""
    acc = K[:, 0, None] * x[0]
    for c in range(1, K.shape[1]):
        acc += K[:, c, None] * x[c]
    return acc


@np.errstate(invalid="ignore")  # NaN frames give NaN; callers refuse it
def omega_tables(G, H, ATg, ATh):
    """Evaluate omega1, omega2 and the Gram normalization along matched nodes.

    G: frames (..., n, m), one node per leading index, 0 < m < n.  H
    broadcasts against G's leading axes: one (n, n-m) frame for every node,
    one per position along G's last leading axis (S, n, n-m), or one per
    node; it is never materialized.  Returns (omega1, omega2, d), each of
    shape G.shape[:-2]; d is NaN where either frame collapsed (see
    COLLAPSE_TOL).  The H side (J hhat, K hhat and |hhat|) is computed once
    per H frame.  Nodes are processed in chunks of as many as FORM_BUDGET
    bytes of temporaries hold; a node's values do not depend on its chunk
    or batch.
    """
    G = np.asarray(G, dtype=float)
    H = np.asarray(H, dtype=float)
    ATg = np.asarray(ATg, dtype=float)
    ATh = np.asarray(ATh, dtype=float)
    lead = G.shape[:-2]
    if H.shape[:-2] not in ((), lead[-1:], lead):
        raise ValueError(f"H frames {H.shape} do not broadcast against G frames {G.shape}")
    n, m = G.shape[-2:]
    if not 0 < m < n or H.shape[-2:] != (n, n - m):
        raise ValueError(f"frames {G.shape} and {H.shape} are not complementary")
    comp, sign, dst, src, coef = _form_tables(n, m)
    K = np.zeros(len(comp) ** 2)
    np.add.at(K, dst, coef * np.concatenate((ATg.ravel(), ATh.ravel()))[src])
    K = K.reshape(len(comp), len(comp))
    chunk = max(1, FORM_BUDGET // (8 * (6 * len(comp) + n * n)))
    S = math.prod(H.shape[:-2])
    R = math.prod(lead) // S if S else 0  # G nodes per H frame
    G, H = G.reshape(R, S, n, m), H.reshape(S, n, n - m)
    cs = max(1, min(S, chunk))  # H frames per chunk
    rb = max(1, chunk // cs)  # G nodes per H frame and chunk
    w1, w2, d = np.empty((3, R, S))
    for s0 in range(0, S, cs):
        hs = slice(s0, s0 + cs)
        hhat, dh = _plucker(H[hs].transpose(1, 2, 0))
        V = np.stack((sign[:, None] * hhat[comp], _matvec(K, hhat)), axis=1)  # J hhat, K hhat
        for r0 in range(0, R, rb):
            rs = slice(r0, r0 + rb)
            ghat, dg = _plucker(G[rs, hs].transpose(2, 3, 0, 1))
            w1[rs, hs], w2[rs, hs] = _sum_rows(ghat[:, None] * V[:, :, None])
            d[rs, hs] = dg * dh
    return w1.reshape(lead), w2.reshape(lead), d.reshape(lead)
