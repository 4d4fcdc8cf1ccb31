"""Hot numeric kernels: RK4 frame propagation and determinant-form tables.

Both kernels are batched numpy: `rk4_grid` propagates every lambda line of a
batch at once, `omega_tables` evaluates the forms over all nodes in chunks.
It is the one evaluator of omega2 and of the Gram normalization d, and
`gram_volumes` the one place the Gram volume sqrt(det(F^T F)) is taken; the
scalar functions of `multilinear` are validated one-node views of them.
Per-call timings on an example2-sized problem are part of the pipeline
benchmark (`python3 benchmarks/pipeline/run.py --trace 1`).

Coefficient matrices enter through a half-step table: ``a_half[j]`` holds the
lambda-independent part of A at x = x0 + j*h/2, and the full matrix is
``a_half[j] + lam * E``.  This is exact for companion-form problems, where
lambda enters affinely through a constant matrix E.  A field that is not
affine in lambda passes one table per lambda line, shaped (L, 2*steps+1, n, n),
with E = 0.

RK4 runs in propagator form.  For the linear ODE F' = A F one classical RK4
step is a matrix, F_{k+1} = P_k F_k, with

    K1 = A0,  K2 = Ah + (h/2) Ah K1,  K3 = Ah + (h/2) Ah K2,  K4 = A1 + h A1 K3,
    P_k = I + (h/6) (K1 + 2 K2 + 2 K3 + K4)

(A0, Ah, A1: A at the step's start, midpoint and end), so a leg is a prefix
product of step matrices.  Every P_k is built in one batched pass.  The steps
are then grouped in blocks of b = ceil(sqrt(steps)): b batched products give
every block's partial products Q_j = P_j ... P_1, the block starts are carried
one block after another, and every node is expanded as Q_j F_start.  That is
about 2 sqrt(steps) numpy-level iterations per leg instead of `steps`.  With
rescaling, each P_k is divided by a power of two s_k before the products (an
exact operation), so every partial product is the true one divided by the
scalar s = s_1 ... s_j and cannot overflow inside a block; the expanded node is
then column-normalized as if it had been normalized after every step, and its
scale_log is the block start's plus m log s plus the log of the m column norms.
Temporaries shaped (lines, steps, n, n) are held under STEP_BUDGET bytes each:
lines are processed in chunks, and a leg whose single line exceeds the budget
is cut into x segments.  The segments depend on steps and n only, so a line's
result does not depend on the lines that share its chunk.
"""

from __future__ import annotations

import math

import numpy as np

# Backend facts for callers that report them: the numpy kernels are the only ones.
NUMBA_ENABLED = False


def backend_name() -> str:
    return "numpy"


# Bytes allowed for each (lines, steps, n, n) temporary of `rk4_grid`.
STEP_BUDGET = 1 << 18


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # blow-ups are caught by callers
def rk4_grid(a_half, E, lams, init, h, rescale):
    """Propagate initial frames over a batch of lambda values.

    a_half is one half-step table (2*steps+1, n, n) shared by every line, or
    one table per line, (L, 2*steps+1, n, n).  init is one (n, m) frame that
    every line starts from, or one frame per line, (L, n, m); each line's
    result does not depend on the other lines of the batch.  Returns (frames,
    scale_log) with shapes (L, steps+1, n, m) and (L, steps+1).  scale_log
    accumulates the log of the product of column rescaling factors, so
    raw-form values can be reconstructed as value * exp(scale_log).
    """
    a_half = np.ascontiguousarray(a_half, dtype=float)
    E = np.ascontiguousarray(E, dtype=float)
    lams = np.ascontiguousarray(lams, dtype=float)
    init = np.ascontiguousarray(init, dtype=float)
    h = float(h)
    steps = (a_half.shape[-3] - 1) // 2
    shared = a_half.ndim == 3
    n, m = init.shape[-2:]
    L = lams.shape[0]
    frames = np.empty((L, steps + 1, n, m))
    slog = np.zeros((L, steps + 1))
    frames[:, 0] = init
    matrix_bytes = 8 * n * n
    seg = max(1, min(steps, STEP_BUDGET // matrix_bytes))
    chunk = max(1, STEP_BUDGET // (matrix_bytes * seg))
    for lo in range(0, L, chunk):
        lines = slice(lo, lo + chunk)
        table = a_half[None] if shared else a_half[lines]
        lam_E = lams[lines, None, None, None] * E
        for s0 in range(0, steps, seg):
            s1 = min(s0 + seg, steps)
            P = _propagators(table[:, 2 * s0:2 * s1 + 1], lam_E, h)
            _chain(P, frames[lines, s0:s1 + 1], slog[lines, s0:s1 + 1], rescale)
    return frames, slog


def _propagators(table, lam_E, h):
    """The RK4 step matrices P_k of F_{k+1} = P_k F_k, (lines, steps, n, n)."""
    A = table[:, 0::2] + lam_E  # at the nodes
    Ah = table[:, 1::2] + lam_E  # at the midpoints
    A0, A1 = A[:, :-1], A[:, 1:]
    K = Ah @ A0
    K *= h / 2.0
    K += Ah  # K2
    P = A0 + 2.0 * K
    K = Ah @ K
    K *= h / 2.0
    K += Ah  # K3
    P += 2.0 * K
    K = A1 @ K
    K *= h
    K += A1  # K4
    P += K
    P *= h / 6.0
    P += np.eye(A.shape[-1])
    return P


def _chain(P, frames, slog, rescale):
    """Chain the step matrices P from frames[:, 0] into frames[:, 1:].

    frames (lines, steps+1, n, m) and slog (lines, steps+1) are written in
    place; frames[:, 0] and slog[:, 0] hold the start.  P is overwritten.
    """
    lines, steps, n = P.shape[:3]
    m = frames.shape[-1]
    b = math.isqrt(steps - 1) + 1
    nb = -(-steps // b)
    if nb * b > steps:  # pad the last block with identity steps
        pad = np.broadcast_to(np.eye(n), (lines, nb * b - steps, n, n))
        P = np.concatenate([P, pad], axis=1)
    Q = P.reshape(lines, nb, b, n, n)
    if rescale:
        e = np.frexp(np.max(np.abs(Q), axis=(-2, -1)))[1]
        np.ldexp(Q, -e[..., None, None], out=Q)
        m_log_s = np.cumsum(e, axis=2) * (m * math.log(2.0))
    for j in range(1, b):
        np.matmul(Q[:, :, j], Q[:, :, j - 1], out=Q[:, :, j])
    F, acc = frames[:, 0], slog[:, 0]
    starts, accs = [F], [acc]
    for i in range(nb - 1):
        F = Q[:, i, -1] @ F
        if rescale:
            nrm = np.sqrt(np.sum(F * F, axis=-2))
            F = F / nrm[..., None, :]
            acc = acc + m_log_s[:, i, -1] + np.sum(np.log(nrm), axis=-1)
        starts.append(F)
        accs.append(acc)
    nodes = (Q @ np.stack(starts, axis=1)[:, :, None]).reshape(lines, nb * b, n, m)
    s = np.repeat(np.stack(accs, axis=1), b, axis=1)
    if rescale:
        nrm = np.sqrt(np.sum(nodes * nodes, axis=-2))
        nodes /= nrm[..., None, :]
        s += m_log_s.reshape(lines, nb * b) + np.sum(np.log(nrm), axis=-1)
    frames[:, 1:] = nodes[:, :steps]
    slog[:, 1:] = s[:, :steps]


@np.errstate(invalid="ignore")  # a collapsed frame gives NaN; callers refuse it
def gram_volumes(F):
    """sqrt(det(F^T F)) per node: the m-volume spanned by each frame's columns.

    F: frames (..., n, m); returns shape F.shape[:-2].
    """
    F = np.asarray(F, dtype=float)
    return np.sqrt(np.linalg.det(np.swapaxes(F, -1, -2) @ F))


@np.errstate(invalid="ignore")  # a collapsed frame gives NaN; callers refuse it
def omega_tables(G, H, ATg, ATh, chunk=65536):
    """Evaluate omega1, omega2 and the Gram normalization along matched nodes.

    G: frames (..., n, m), one node per leading index.  H broadcasts against
    G's leading axes: one (n, n-m) frame for every node, one per position
    along G's last leading axis (S, n, n-m), or one per node; it is never
    materialized beyond one chunk.  Returns (omega1, omega2, d), each of
    shape G.shape[:-2].  Nodes are processed `chunk` at a time to bound the
    temporaries; a node's values do not depend on its chunk, except that a
    one-node chunk multiplies by gemv, which rounds unlike gemm.
    """
    G = np.ascontiguousarray(G, dtype=float)
    H = np.ascontiguousarray(H, dtype=float)
    ATg = np.ascontiguousarray(ATg, dtype=float)
    ATh = np.ascontiguousarray(ATh, dtype=float)
    lead = G.shape[:-2]
    if H.shape[:-2] not in ((), lead[-1:], lead):
        raise ValueError(f"H frames {H.shape} do not broadcast against G frames {G.shape}")
    n, m, nm = G.shape[-2], G.shape[-1], H.shape[-1]
    N, S = math.prod(lead), math.prod(H.shape[:-2])
    G, H = G.reshape(N, n, m), H.reshape(S, n, nm)
    w1, w2, d = np.empty((3, N))
    for lo in range(0, N, chunk):
        hi = min(lo + chunk, N)
        Gi = G[lo:hi]
        Hi = H[lo:hi] if S == N else H[np.arange(lo, hi) % S]
        GH = np.concatenate([Gi, Hi], axis=2)
        w1[lo:hi] = np.linalg.det(GH)
        acc = np.zeros(hi - lo)
        for k in range(m):
            col = GH[:, :, k].copy()
            GH[:, :, k] = col @ ATg.T
            acc += np.linalg.det(GH)
            GH[:, :, k] = col
        for j in range(nm):
            col = GH[:, :, m + j].copy()
            GH[:, :, m + j] = col @ ATh.T
            acc += np.linalg.det(GH)
            GH[:, :, m + j] = col
        w2[lo:hi] = acc
        d[lo:hi] = gram_volumes(Gi) * gram_volumes(Hi)
    return w1.reshape(lead), w2.reshape(lead), d.reshape(lead)
