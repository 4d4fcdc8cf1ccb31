"""Hot numeric kernels: RK4 frame propagation and determinant-form tables.

Both kernels are batched numpy: `rk4_grid` steps every lambda line of a batch
at once, `omega_tables` evaluates the forms over all nodes in chunks.  It is
the one evaluator of omega2 and of the Gram normalization d, and
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
"""

from __future__ import annotations

import math

import numpy as np

# Backend facts for callers that report them: the numpy kernels are the only ones.
NUMBA_ENABLED = False


def backend_name() -> str:
    return "numpy"


@np.errstate(over="ignore", invalid="ignore")  # blow-ups are caught by callers
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
    if a_half.ndim == 4:  # one table per lambda line: put the x axis first
        a_half = np.moveaxis(a_half, 1, 0)
    n, m = init.shape[-2:]
    L = lams.shape[0]
    lam = lams[:, None, None]
    F = np.broadcast_to(init, (L, n, m)).copy()
    frames = np.empty((L, steps + 1, n, m))
    slog = np.zeros((L, steps + 1))
    frames[:, 0] = F
    acc = np.zeros(L)
    for k in range(steps):
        A0, A1, A2 = a_half[2 * k], a_half[2 * k + 1], a_half[2 * k + 2]
        k1 = A0 @ F + lam * (E @ F)
        Fs = F + (h / 2.0) * k1
        k2 = A1 @ Fs + lam * (E @ Fs)
        Fs = F + (h / 2.0) * k2
        k3 = A1 @ Fs + lam * (E @ Fs)
        Fs = F + h * k3
        k4 = A2 @ Fs + lam * (E @ Fs)
        F = F + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if rescale:
            nrm = np.sqrt(np.sum(F * F, axis=1, keepdims=True))
            F = F / nrm
            acc = acc + np.sum(np.log(nrm[:, 0, :]), axis=1)
        frames[:, k + 1] = F
        slog[:, k + 1] = acc
    return frames, slog


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
