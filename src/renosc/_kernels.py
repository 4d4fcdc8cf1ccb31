"""Hot numeric kernels: RK4 frame propagation and determinant-form tables.

Both kernels are batched numpy: `rk4_grid` propagates every lambda line of a
batch at once, `omega_tables` evaluates the forms over all nodes in chunks.
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
degree j in lambda and P_k one of degree 4, P_k(lam) = sum_j lam^j C_j.  The
coefficients C_0..C_4 of every x segment are built by exact
polynomial-matrix arithmetic on (a + lam E): three stages, each one batched
product with the a table and one with E, about 18 (steps, n, n) products in
all.  They are built once per chain: a caller that passes a dict as
`coefficients` (propagation keeps one per chain, next to its half-step
table) gets them kept, keyed by the segment's step range, and every later
call on the chain, or on a prefix of it, skips the build.  Every line's P_k
is then C_0 + lam (C_1 + lam (...)) by elementwise Horner, with no BLAS call, so a
line's bits do not depend on its batch, and no interpolation nodes, so no
lambda is an extrapolation; Horner writes into a buffer padded to whole
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
An x segment whose half-step rows and step sizes are all bitwise equal
(a constant-coefficient field in one run) has one P_k for all steps: its
coefficients are built from one step and kept as (5, 1, n, n), the length-1
step axis meaning "every step is this step".  Horner fills one block of b
steps with that step, the rescale and the prefix products run over that one
block, and `_prefixes` broadcasts its Q and exponent sums to every block, so
the carry, the expansion and the endpoint are unchanged (an endpoint chunk
holds nb times as many lines).  The bits are the full path's by
construction: every block's prefix products come from identical operands in
the same order, and the last block is read only at positions up to
(steps - 1) mod b, equal to the full block's, never at the padding.
With rescaling, each P_k is divided by a power of two s_k before the
products (an exact operation), so every partial product is the true one
divided by the scalar s = s_1 ... s_j and cannot overflow inside a block;
the expanded node is then column-normalized as if it had been normalized
after every step, and its scale_log is the block start's plus m log s plus
the log of the m column norms.  The carry loop does only the products and
the column normalizations; the logs come after it, and the block starts'
scale_logs are one cumsum over [acc, m log s, sum log norms, ...], which
adds in the order of a step-by-step loop.  The expanded nodes' column
norms and their log sums over m add rows one after another (`_sum_rows`),
not by np.sum over an axis n or m long, whose per-call cost dominates at
such lengths; below 8 terms np.sum adds in the same order, so the bits are
the same (from 8 terms on, at m = 1 with n >= 8 or at m >= 8, np.sum adds
pairwise and the last bits differ).  The block-start carry keeps np.sum:
its arrays are small, and one call costs less than 2n - 1 row adds.
Temporaries are bounded two
ways.  An x segment holds STEP_BUDGET bytes of one line's step matrices, so
a longer leg is cut into segments that depend on steps and n only (a
larger STEP_BUDGET would move them, and with them the bits of long legs).
A chunk of lines fills up to 4 * STEP_BUDGET bytes of (lines, steps, n, n)
temporaries, two buffers that every chunk of a call reuses (fresh ones per
chunk cost more in page faults than the batching saves), and an endpoint
batch as much again of kept arrays; lines are independent, so neither
changes a bit, only the number of numpy calls.
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
    (a_half, E, h) for later calls, one entry per x segment keyed by its
    step range (one step's worth for an x-uniform segment, see above); it is
    filled on first use.  A prefix of the same table and steps may pass the
    same dict: a segment (s0, s1) is served from any kept (s0, t) with
    t >= s1, sliced to its first s1 - s0 steps, so a prefix of a swept chain
    builds no coefficients.
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
    if coefficients is None:
        coefficients = {}
    seg, chunk = sweep_layout(n, steps)
    # Horner's step matrices and _max_abs's |entries|, one buffer each for
    # every chunk: fresh megabyte temporaries per chunk cost page faults
    padded = max(math.prod(_blocks(k)) for k in {seg, steps - (steps - 1) // seg * seg})
    work = np.empty((2, min(chunk, L) * padded * n * n))
    for s0 in range(0, steps, seg):
        s1 = min(s0 + seg, steps)
        k = s1 - s0
        C = next((kept[:, :k] for (a, t), kept in coefficients.items()
                  if a == s0 and t >= s1), None)
        if C is None:
            table, hs = a_half[2 * s0:2 * s1 + 1], h[s0:s1]
            if _bitwise_equal(hs, hs[0]) and _bitwise_equal(table, table[0]):
                table, hs = table[:3], hs[:1]  # x-uniform: one step stands for every step
            C = coefficients[s0, s1] = _coefficients(table, E, hs)
        if endpoint:
            batch = _endpoint_batch(n, k, chunk)
            for lo in range(0, L, batch):
                lines = slice(lo, lo + batch)
                _endpoint(C, k, lams[lines], chunk, frames[lines], slog[lines], rescale, work)
            frames[:, 0], slog[:, 0] = frames[:, 1], slog[:, 1]  # the next segment's start
            continue
        for lo in range(0, L, chunk):
            lines = slice(lo, lo + chunk)
            _chain(_horner(C, k, lams[lines], work[0]), k, frames[lines, s0:s1 + 1],
                   slog[lines, s0:s1 + 1], rescale, work[1])
    return (frames[:, :1], slog[:, :1]) if endpoint else (frames, slog)


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


def _blocks(steps):
    """Block length b = ceil(sqrt(steps)) of a leg, and its number of blocks."""
    b = math.isqrt(steps - 1) + 1
    return b, -(-steps // b)


def _horner(C, steps, lams, buf=None):
    """Every line's step matrices sum_j lam^j C_j, padded with identity steps
    to whole blocks: (lines, b * blocks, n, n), see _blocks.  C of a uniform
    segment holds one step for all `steps`: its one step is evaluated and
    fills one block, (lines, b, n, n), which stands for every block.

    Elementwise Horner (no BLAS call, so a line's bits do not depend on its
    batch), written straight into the padded buffer: the head of the flat
    array buf if given, else a new one.
    """
    k, n = C.shape[1:3]
    b, nb = _blocks(steps)
    shape = (len(lams), b if k < steps else nb * b, n, n)
    out = np.empty(shape) if buf is None else buf[:math.prod(shape)].reshape(shape)
    P = out[:, :k]
    lam = lams[:, None, None, None]
    np.multiply(C[-1], lam, out=P)
    for c in C[-2:0:-1]:
        P += c
        P *= lam
    P += C[0]
    out[:, k:] = P if k < steps else np.eye(n)
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


def _prefixes(P, steps, rescale, buf):
    """Every block's partial products Q_j = P_j ... P_1, in place of P.

    P is _horner's output, and buf _max_abs's scratch.  Returns Q as
    (lines, blocks, b, n, n) and, with rescaling, the cumulative exponents
    (lines, blocks, b) of the powers of two that each block's steps were
    divided by; otherwise None.  A uniform segment's one block is broadcast
    to every block (its last block's padding is never read).
    """
    lines, _, n = P.shape[:3]
    b, nb = _blocks(steps)
    Q = P.reshape(lines, -1, b, n, n)
    cum = None
    if rescale:
        e = np.frexp(_max_abs(P, buf).reshape(Q.shape[:3]))[1]
        np.ldexp(Q, -e[..., None, None], out=Q)
        cum = np.broadcast_to(np.cumsum(e, axis=2), (lines, nb, b))
    for j in range(1, b):
        np.matmul(Q[:, :, j], Q[:, :, j - 1], out=Q[:, :, j])
    return np.broadcast_to(Q, (lines, nb, b, n, n)), cum


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
    for i in range(nb1):
        F = np.matmul(totals[:, i], starts[:, i], out=starts[:, i + 1])
        if rescale:
            nrm = np.sqrt(np.sum(F * F, axis=-2), out=nrms[:, i])
            F /= nrm[..., None, :]
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


def _store(nodes, s, m_log_s, frames, slog, rescale):
    """Write expanded nodes (lines, k, n, m) and their block starts'
    scale_logs s (lines, k) into frames[:, 1:] and slog[:, 1:], column-
    normalized with rescaling, m_log_s (lines, k) being their m log s."""
    if rescale:
        nrm = np.sqrt(_sum_rows(np.moveaxis(nodes * nodes, -2, 0)))
        nodes /= nrm[..., None, :]
        s = s + (m_log_s + _sum_rows(np.moveaxis(np.log(nrm), -1, 0)))
    frames[:, 1:] = nodes
    slog[:, 1:] = s


def _chain(P, steps, frames, slog, rescale, buf):
    """Chain the first `steps` step matrices of P from frames[:, 0] into frames[:, 1:].

    P is _horner's padded output, (lines, b * blocks, n, n), and is
    overwritten; buf is _max_abs's scratch.  frames (lines, steps+1, n, m) and slog (lines, steps+1) are
    written in place; frames[:, 0] and slog[:, 0] hold the start.
    """
    lines, _, n = P.shape[:3]
    m = frames.shape[-1]
    b, nb = _blocks(steps)
    Q, cum = _prefixes(P, steps, rescale, buf)
    m_log_s = np.zeros((lines, nb * b))
    if rescale:
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


def _endpoint(C, steps, lams, chunk, frames, slog, rescale, work):
    """The last node of every line's chain from frames[:, 0] into frames[:, 1].

    C holds the segment's step coefficients (see _horner), frames
    (lines, 2, n, m) and slog (lines, 2), and work the chunks' Horner and
    _max_abs buffers.  Each chunk of lines runs Horner, the rescale and the
    prefix products, and keeps the block totals, the last block's prefixes
    and the exponent sums; one block-start carry then serves every line, and
    the last block is expanded by the same product as in `_chain`, so the
    node equals the full chain's last node bit for bit.
    """
    n = C.shape[2]
    m = frames.shape[-1]
    b, nb = _blocks(steps)
    j = (steps - 1) % b  # the last node's position in the last block
    if C.shape[1] < steps:  # uniform: Horner and prefix temporaries are nb times smaller
        chunk *= nb
    lines = len(lams)
    totals = np.empty((lines, nb - 1, n, n))
    last = np.empty((lines, b, n, n))
    exps = np.zeros((lines, nb))  # exponent sums at the block ends, then at the last node
    for lo in range(0, lines, chunk):
        part = slice(lo, lo + chunk)
        Q, cum = _prefixes(_horner(C, steps, lams[part], work[0]), steps, rescale, work[1])
        totals[part] = Q[:, :-1, -1]
        last[part] = Q[:, -1]
        if rescale:
            exps[part, :-1] = cum[:, :-1, -1]
            exps[part, -1] = cum[:, -1, j]
    m_log_s = exps * (m * math.log(2.0))
    starts, accs = _carry(totals, frames[:, 0], slog[:, 0], m_log_s[:, :-1], rescale)
    _store(_expand(last, starts[:, -1])[:, j:j + 1], accs[:, -1:], m_log_s[:, -1:],
           frames, slog, rescale)


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
