"""The batched numpy kernels: chunking, per-line inits and the backend name.

`reference_rk4` is the sequential RK4 loop, one step of every line at a time;
`_kernels.rk4_grid` builds every step's propagator at once and chains them by
a blocked prefix product, and must agree with it.  `direct_propagators`
builds the step matrices line by line from A = a + lam E with three batched
matmuls per stage; the kernel's polynomial build must agree with it.
`frozen_rk4_grid` is a frozen copy of the kernel's sweep before its numpy
calls were batched (one carry per chunk, one product per node); the kernel
must equal it bit for bit, except on x-uniform segments, which it chains by
repeated squaring and must then be no less accurate than it against a long
double reference (`long_double_powers`).
`reference_forms` is the
definition of the forms, one node at a time: det([G H]), the
column-replacement sum of determinants and sqrt(det(F^T F));
`_kernels.omega_tables` pairs Pluecker vectors instead, and must agree with it.
`plucker_volume` is the frame volume the kernels multiply into d and divide
into the ratio, from their own minors.
`reference_volume_rates` is the Gram definition of the column-volume ratio and
the volume log-derivative, tr((F^T F)^-1 F^T A F), in long double;
`_kernels.volume_rates` takes both from the Pluecker vector instead.
"""

import itertools
import math

import numpy as np
import pytest

from renosc import Frame, RankDeficiencyError, _kernels

rng = np.random.default_rng(5)


def plucker_volume(F):
    """|Pluecker(F)| per node of (..., n, m) frames, sqrt(det(F^T F)) by
    Cauchy-Binet, with no collapse rule: the kernels' own minors and sum, so
    it equals the volume inside omega_tables' d and volume_rates' ratio bit
    for bit wherever the frame has not collapsed."""
    M = _kernels._minors(np.moveaxis(np.asarray(F, dtype=float), (-2, -1), (0, 1)))
    return np.sqrt(_kernels._sum_rows(M * M))


@np.errstate(over="ignore", invalid="ignore")  # the stiff leg overflows
def reference_rk4(a_half, E, lams, init, h, rescale):
    """Classical RK4 on F' = (a_half + lam E) F, one step at a time.

    h is the step size or one step size per step."""
    a_half = np.asarray(a_half, dtype=float)
    steps = (a_half.shape[0] - 1) // 2
    n, m = init.shape[-2:]
    L = len(lams)
    lam = np.asarray(lams, dtype=float)[:, None, None]
    F = np.broadcast_to(init, (L, n, m)).astype(float)
    frames = np.empty((L, steps + 1, n, m))
    slog = np.zeros((L, steps + 1))
    frames[:, 0] = F
    acc = np.zeros(L)
    hs = np.broadcast_to(h, steps)
    for k in range(steps):
        h = hs[k]
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


def direct_propagators(table, lam_E, h):
    """The RK4 step matrices P_k of F_{k+1} = P_k F_k, (lines, steps, n, n),
    from the matrices A = table + lam_E themselves; h is (steps, 1, 1)."""
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


def random_leg(steps, L, m, backward, n=4, per_step=False):
    """A random leg: a shared table with lambda * E; one step size, or
    (per_step) one step size per step."""
    a_half = rng.normal(size=(2 * steps + 1, n, n)) * 0.8
    E = rng.normal(size=(n, n)) * 0.5
    lams = rng.uniform(-2, 2, size=L)
    init = rng.normal(size=(n, m))
    h = (-1.0 if backward else 1.0) / steps
    if per_step:
        h = h * rng.uniform(0.5, 1.5, size=steps)
    return a_half, E, lams, init, h


def assert_rel_close(a, b, rtol=1e-12):
    assert a.shape == b.shape
    assert np.max(np.abs(a - b)) <= rtol * np.max(np.abs(b))


@pytest.mark.parametrize("steps", [1, 2, 31, 32, 33, 1000])
def test_rk4_matches_sequential_reference(steps):
    for L, m, backward, per_step in itertools.product(
            (1, 7), (1, 2), (False, True), (False, True)):
        leg = random_leg(steps, L, m, backward, per_step=per_step)
        out = {}
        for rescale in (True, False):
            frames, slog = _kernels.rk4_grid(*leg, rescale)
            ref_frames, ref_slog = reference_rk4(*leg, rescale)
            assert frames.shape == (L, steps + 1, 4, m) and slog.shape == (L, steps + 1)
            assert_rel_close(frames, ref_frames)
            assert_rel_close(slog, ref_slog)
            out[rescale] = frames, slog
        if m == 2:
            raw = plucker_volume(out[False][0])
            rescaled = plucker_volume(out[True][0]) * np.exp(out[True][1])
            assert np.allclose(raw, rescaled, rtol=1e-12, atol=0)


def count_chain_lines(monkeypatch):
    """Record the number of lines of every `_kernels._chain` call."""
    seen = []
    real = _kernels._chain

    def counted(P, *args):
        seen.append(len(P))
        return real(P, *args)

    monkeypatch.setattr(_kernels, "_chain", counted)
    return seen


@pytest.mark.parametrize("budget, L, chains", [
    pytest.param(8 * 16 * 5, 5, [4, 1] * 7, id="640"),
    pytest.param(8 * 16 * 120, 20, [14, 6], id="15360"),
])
def test_rk4_step_budget_splits_segments_and_lines(budget, L, chains, monkeypatch):
    # at n = 4 an x segment holds STEP_BUDGET bytes of one line's step
    # matrices and a chunk of lines 4 * STEP_BUDGET: 640 bytes cut 33 steps
    # into 7 segments of at most 5 steps, 4 lines sharing each chunk;
    # 15360 bytes hold all 33 steps in one segment and 14 lines in a chunk.
    # Both agree with the reference, and a line's bits do not depend on the
    # lines that share its chunk.  Per-step sizes are cut into the same
    # segments.
    monkeypatch.setattr(_kernels, "STEP_BUDGET", budget)
    seen = count_chain_lines(monkeypatch)
    inits = rng.normal(size=(L, 4, 2))
    for rescale, per_step in itertools.product((True, False), (False, True)):
        a_half, E, lams, _, h = random_leg(33, L, 2, False, per_step=per_step)
        seen.clear()
        frames, slog = _kernels.rk4_grid(a_half, E, lams, inits, h, rescale)
        assert seen == chains
        ref_frames, ref_slog = reference_rk4(a_half, E, lams, inits, h, rescale)
        assert_rel_close(frames, ref_frames)
        assert_rel_close(slog, ref_slog)
        for i in range(len(lams)):
            fi, si = _kernels.rk4_grid(a_half, E, lams[i:i + 1], inits[i], h, rescale)
            assert np.array_equal(frames[i], fi[0]) and np.array_equal(slog[i], si[0])


def test_rk4_stiff_leg_rescales_inside_blocks():
    # y' = 6e5 y on 1000 steps: each step multiplies by about 5.4e9, so the
    # 32-step prefix products of one block overflow unless rescaled.
    steps = 1000
    leg = (np.full((2 * steps + 1, 1, 1), 6e5), np.zeros((1, 1)), np.zeros(1),
           np.ones((1, 1)), 1.0 / steps)
    frames, slog = _kernels.rk4_grid(*leg, True)
    ref_frames, ref_slog = reference_rk4(*leg, True)
    assert np.array_equal(frames, ref_frames)
    assert_rel_close(slog, ref_slog)
    # without rescaling both overflow at the same node
    raw = _kernels.rk4_grid(*leg, False)[0]
    ref_raw = reference_rk4(*leg, False)[0]
    first = np.argmin(np.isfinite(raw[0, :, 0, 0]))
    assert 0 < first == np.argmin(np.isfinite(ref_raw[0, :, 0, 0]))


# -- a frozen copy of the kernel's sweep before its numpy calls were batched:
# one block-start carry per chunk of lines, and one (n x n)(n x m) product
# per expanded node.  The kernel must give its frames and scale_logs bit for bit.


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def frozen_rk4_grid(a_half, E, lams, init, h, rescale, endpoint=False):
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
    matrix_bytes = 8 * n * n
    seg = max(1, min(steps, _kernels.STEP_BUDGET // matrix_bytes))
    chunk = max(1, 4 * _kernels.STEP_BUDGET // (matrix_bytes * seg))
    for s0 in range(0, steps, seg):
        s1 = min(s0 + seg, steps)
        C = _kernels._coefficients(a_half[2 * s0:2 * s1 + 1], E, h[s0:s1])
        nodes = slice(None) if endpoint else slice(s0, s1 + 1)
        for lo in range(0, L, chunk):
            lines = slice(lo, lo + chunk)
            frozen_chain(frozen_horner(C, lams[lines]), s1 - s0, frames[lines, nodes],
                         slog[lines, nodes], rescale)
        if endpoint:
            frames[:, 0], slog[:, 0] = frames[:, 1], slog[:, 1]
    return (frames[:, :1], slog[:, :1]) if endpoint else (frames, slog)


def frozen_blocks(steps):
    b = math.isqrt(steps - 1) + 1
    return b, -(-steps // b)


def frozen_horner(C, lams):
    steps, n = C.shape[1:3]
    b, nb = frozen_blocks(steps)
    out = np.empty((len(lams), nb * b, n, n))
    out[:, steps:] = np.eye(n)
    P = out[:, :steps]
    lam = lams[:, None, None, None]
    np.multiply(C[-1], lam, out=P)
    for c in C[-2:0:-1]:
        P += c
        P *= lam
    P += C[0]
    return out


def frozen_max_abs(P):
    A = np.abs(P).reshape(-1, P.shape[-1] * P.shape[-2])
    top = A[:, 0].copy()
    for c in range(1, A.shape[1]):
        np.maximum(top, A[:, c], out=top)
    return top.reshape(P.shape[:-2])


def frozen_sum_rows(a):
    acc = a[0].copy()
    for row in a[1:]:
        acc += row
    return acc


def frozen_chain(P, steps, frames, slog, rescale):
    lines, _, n = P.shape[:3]
    m = frames.shape[-1]
    b, nb = frozen_blocks(steps)
    Q = P.reshape(lines, nb, b, n, n)
    if rescale:
        e = np.frexp(frozen_max_abs(P).reshape(lines, nb, b))[1]
        np.ldexp(Q, -e[..., None, None], out=Q)
        m_log_s = (np.cumsum(e, axis=2) * (m * math.log(2.0))).reshape(lines, nb * b)
        nrms = np.empty((lines, nb - 1, m))
    for j in range(1, b):
        np.matmul(Q[:, :, j], Q[:, :, j - 1], out=Q[:, :, j])
    starts = np.empty((lines, nb, n, m))
    starts[:, 0] = frames[:, 0]
    for i in range(nb - 1):
        F = np.matmul(Q[:, i, -1], starts[:, i], out=starts[:, i + 1])
        if rescale:
            nrm = np.sqrt(np.sum(F * F, axis=-2), out=nrms[:, i])
            F /= nrm[..., None, :]
    if rescale:
        terms = np.empty((lines, 2 * nb - 1))
        terms[:, 0] = slog[:, 0]
        terms[:, 1::2] = m_log_s[:, b - 1:(nb - 1) * b:b]
        terms[:, 2::2] = np.sum(np.log(nrms), axis=-1)
        accs = np.cumsum(terms, axis=1)[:, ::2]
    else:
        accs = np.repeat(slog[:, :1], nb, axis=1)
    if frames.shape[1] == steps + 1:
        nodes = (Q @ starts[:, :, None]).reshape(lines, nb * b, n, m)[:, :steps]
        s = np.repeat(accs, b, axis=1)[:, :steps]
        k = slice(0, steps)
    else:
        i, j = divmod(steps - 1, b)
        nodes, s = Q[:, i, j:j + 1] @ starts[:, i, None], accs[:, i, None]
        k = slice(steps - 1, steps)
    if rescale:
        nrm = np.sqrt(frozen_sum_rows(np.moveaxis(nodes * nodes, -2, 0)))
        nodes /= nrm[..., None, :]
        s = s + (m_log_s[:, k] + frozen_sum_rows(np.moveaxis(np.log(nrm), -1, 0)))
    frames[:, 1:] = nodes
    slog[:, 1:] = s


@pytest.mark.parametrize("n", range(2, 8))
def test_rk4_grid_matches_frozen_kernel(n, monkeypatch):
    # Every frame and scale_log equals the frozen sweep's bit for bit, in
    # both modes, rescaled or not, from one init or one per line.  At the
    # shrunk budget a segment holds 36 steps, so 80 steps make three x
    # segments, the last one of 8 steps in a partial block; a chunk holds 4
    # lines and an endpoint carry batch 12 (36 steps: 6 blocks of 6, whose
    # kept arrays fit 4 * STEP_BUDGET 13 lines at a time), so 30 lines make
    # several of each.
    for budget, steps, L in ((None, 200, 9), (8 * n * n * 36, 80, 30)):
        if budget:
            monkeypatch.setattr(_kernels, "STEP_BUDGET", budget)
            assert _kernels.sweep_layout(n, steps) == (36, 4)
            assert _kernels._endpoint_batch(n, 36, 4) == 12
        for m, rescale, endpoint in itertools.product(range(1, n), (True, False), (False, True)):
            a_half, E, lams, init, h = random_leg(steps, L, m, False, n=n, per_step=True)
            for start in (init, rng.normal(size=(L, n, m))):
                got = _kernels.rk4_grid(a_half, E, lams, start, h, rescale, endpoint)
                want = frozen_rk4_grid(a_half, E, lams, start, h, rescale, endpoint)
                assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def uniform_leg(n, m, steps, L=5):
    """A constant half-step table and step size: every step matrix is the same."""
    a_half = np.repeat(rng.normal(size=(1, n, n)) * 0.8, 2 * steps + 1, axis=0)
    E = rng.normal(size=(n, n)) * 0.5
    lams = rng.uniform(-2, 2, size=L)
    return a_half, E, lams, (rng.normal(size=(n, m)), rng.normal(size=(L, n, m)))


def long_double_powers(P, init, steps, rescale):
    """P^j F0 for j = 0..steps, one step after another in long double, per
    line of P (L, n, n), as rk4_grid returns it: columns normalized and
    scale_log the log of their norms with rescaling, else raw and 0."""
    F = np.broadcast_to(init, (len(P),) + init.shape[-2:]).astype(np.longdouble)
    P = P.astype(np.longdouble)
    frames = np.empty((steps + 1,) + F.shape, dtype=np.longdouble)
    frames[0] = F
    for j in range(steps):
        frames[j + 1] = P @ frames[j]
    frames = np.moveaxis(frames, 0, 1)
    slog = np.zeros(frames.shape[:2], dtype=np.longdouble)
    if rescale:
        nrm = np.sqrt(np.sum(frames[:, 1:] ** 2, axis=-2))
        frames[:, 1:] /= nrm[..., None, :]
        slog[:, 1:] = np.sum(np.log(nrm), axis=-1)
    return frames, slog


def frame_error(got, want):
    """The largest |error| of every node's frame over its largest |entry|."""
    want = want.reshape(want.shape[:2] + (-1,))
    err = np.max(np.abs(got.reshape(want.shape) - want), axis=-1) / np.max(np.abs(want), axis=-1)
    return float(np.max(err))


@pytest.mark.parametrize("steps", [1, 2, 37, 1000, 2049])
@pytest.mark.parametrize("n, m", [(2, 1), (4, 2)])
def test_rk4_grid_on_uniform_tables_matches_frozen_kernel(n, m, steps):
    # A constant half-step table and step size make every step matrix the
    # same matrix P: each x segment keeps one step of coefficients and
    # chains it by repeated squaring, so its frames and scale_logs are no
    # longer the frozen sweep's bits.  They are no less accurate: against
    # P^j F0 in long double, their error is at most twice the frozen
    # sweep's plus 1e-15, in both modes, rescaled or not, from one init or
    # one per line (2049 steps at n = 4 make two x segments).  One
    # half-step entry moved by one ulp keeps its segment's full step axis
    # and the frozen sweep's bits.
    a_half, E, lams, starts = uniform_leg(n, m, steps)
    h = 1.0 / steps
    moved = a_half.copy()
    moved[steps, 0, 0] = np.nextafter(moved[steps, 0, 0], np.inf)
    seg = _kernels.sweep_layout(n, steps)[0]
    segments = [(s0, min(s0 + seg, steps)) for s0 in range(0, steps, seg)]
    assert len(segments) == (2 if (n, steps) == (4, 2049) else 1)
    P = _kernels._horner(_kernels._coefficients(a_half[:3], E, np.full((1, 1, 1), h)), 1,
                         lams)[:, 0]
    for rescale, endpoint, start in itertools.product((True, False), (False, True), starts):
        for table in (moved, a_half):
            coefficients = {}
            got = _kernels.rk4_grid(table, E, lams, start, h, rescale, endpoint, coefficients)
            want = frozen_rk4_grid(table, E, lams, start, h, rescale, endpoint)
            assert {k: C.shape[1] for k, C in coefficients.items()} == {
                (s0, s1): s1 - s0 if table is moved and s0 <= steps // 2 < s1 else 1
                for s0, s1 in segments}
            if table is moved:
                assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        # got and want are now the uniform table's
        ref_frames, ref_slog = long_double_powers(P, start, steps, rescale)
        if endpoint:
            ref_frames, ref_slog = ref_frames[:, -1:], ref_slog[:, -1:]
        assert frame_error(got[0], ref_frames) <= 2 * frame_error(want[0], ref_frames) + 1e-15
        slog_error = [float(np.max(np.abs(s - ref_slog))) for s in (got[1], want[1])]
        assert slog_error[0] <= 2 * slog_error[1] + 1e-15


@pytest.mark.parametrize("n, m, steps", [(2, 1, 1), (2, 1, 2), (2, 1, 1023), (2, 1, 1024),
                                         (4, 2, 3), (4, 2, 37), (4, 2, 1000), (4, 2, 2049)])
def test_squaring_endpoint_is_the_last_node(n, m, steps):
    # On a uniform segment the endpoint applies the last node's powers in
    # the full sweep's order: its frame and scale_log equal the full
    # sweep's last node bit for bit, rescaled or not, from one init or one
    # per line, across the two x segments of 2049 steps at n = 4
    a_half, E, lams, starts = uniform_leg(n, m, steps)
    for rescale, start in itertools.product((True, False), starts):
        frames, slog = _kernels.rk4_grid(a_half, E, lams, start, 1.0 / steps, rescale)
        last, last_log = _kernels.rk4_grid(a_half, E, lams, start, 1.0 / steps, rescale, True)
        assert last.shape == (len(lams), 1, n, m)
        assert np.array_equal(last, frames[:, -1:]) and np.array_equal(last_log, slog[:, -1:])


@pytest.mark.parametrize("endpoint", [False, True])
def test_squaring_does_not_depend_on_the_batch(endpoint):
    # each line of a uniform segment equals a one-line call, bit for bit
    n, m, steps = 4, 2, 777
    a_half, E, lams, (init, inits) = uniform_leg(n, m, steps, L=7)
    for rescale, start in itertools.product((True, False), (init, inits)):
        f, s = _kernels.rk4_grid(a_half, E, lams, start, 1.0 / steps, rescale, endpoint)
        for i in range(len(lams)):
            one = start if start.ndim == 2 else start[i]
            fi, si = _kernels.rk4_grid(a_half, E, lams[i:i + 1], one, 1.0 / steps, rescale,
                                       endpoint)
            assert np.array_equal(f[i], fi[0]) and np.array_equal(s[i], si[0])


@pytest.mark.parametrize("W, lams, rescales, loss", [
    (-80.0, [1700.0, 1757.9, 1800.0], (True, False), 2),
    (-200.0, [10000.0, 10009.87, 10100.0], (True, False), 2),
    (-2000.0, [1000100.0, 1000400.0], (True,), 16),
])
def test_squaring_on_a_decaying_constant_system(W, lams, rescales, loss):
    # -phi'' + W phi' = lam phi with W < 0 and lam > W^2 / 4: every mode
    # decays like exp(W x / 2), so P^(2^l) falls far below the identity
    # (down to 2^-1440 at W = -2000, where a rescaled a = 2^-E_l would
    # overflow).  The powers leave the a I + D form there, and against P^j
    # F0 in long double the frames and scale_logs are within `loss` times
    # the frozen sweep's error (plus 1e-15), in both modes.  At W = -2000
    # each step decays by e^-1 and P is strongly non-normal: plain squaring
    # of it is up to 9 times less accurate than the step-by-step chain (and
    # RK4 there is 2% off exp(h A) per step).  Unscaled frames of W = -2000
    # underflow, so it runs rescaled only.
    steps = 1000
    h = 1.0 / steps
    a_half = np.repeat(np.array([[[0.0, 1.0], [0.0, W]]]), 2 * steps + 1, axis=0)
    E = np.array([[0.0, 0.0], [-1.0, 0.0]])
    lams = np.array(lams)
    init = np.array([[1.0], [0.0]])
    P = _kernels._horner(_kernels._coefficients(a_half[:3], E, np.full((1, 1, 1), h)), 1,
                         lams)[:, 0]
    for rescale, endpoint in itertools.product(rescales, (False, True)):
        got = _kernels.rk4_grid(a_half, E, lams, init, h, rescale, endpoint)
        want = frozen_rk4_grid(a_half, E, lams, init, h, rescale, endpoint)
        ref_frames, ref_slog = long_double_powers(P, init, steps, rescale)
        if endpoint:
            ref_frames, ref_slog = ref_frames[:, -1:], ref_slog[:, -1:]
        assert np.all(np.isfinite(got[0])) and np.all(np.isfinite(got[1]))
        assert frame_error(got[0], ref_frames) <= loss * frame_error(want[0], ref_frames) + 1e-15
        slog_error = [float(np.max(np.abs(s - ref_slog))) for s in (got[1], want[1])]
        assert slog_error[0] <= loss * slog_error[1] + 1e-15


def test_rk4_per_line_init_matches_separate_lines():
    a_half, E, lams, _, h = random_leg(60, 5, 2, False)
    inits = rng.normal(size=(len(lams), 4, 2))
    for rescale in (True, False):
        f, s = _kernels.rk4_grid(a_half, E, lams, inits, h, rescale)
        for i in range(len(lams)):
            fi, si = _kernels.rk4_grid(a_half, E, lams[i:i + 1], inits[i], h, rescale)
            assert np.array_equal(f[i], fi[0]) and np.array_equal(s[i], si[0])


@pytest.mark.parametrize("steps", [1, 7, 200])
def test_polynomial_build_matches_direct_build(steps):
    # P_k(lam) is a degree-4 polynomial in lam: the Horner values of its
    # monomial coefficients agree with the direct build far outside any
    # spectral interval, with per-step h; the buffer is padded to whole
    # blocks with exact identity steps
    n = 4
    table = rng.normal(size=(2 * steps + 1, n, n)) * 0.8
    E = rng.normal(size=(n, n)) * 0.5
    h = (rng.uniform(0.5, 1.5, size=steps) / max(steps, 200)).reshape(steps, 1, 1)
    lams = np.concatenate((np.linspace(-1e3, 1e3, 41), [0.0, 1e-3, -7.5]))
    ref = direct_propagators(table[None], lams[:, None, None, None] * E, h)
    got = _kernels._horner(_kernels._coefficients(table, E, h), steps, lams)
    b, nb = _kernels._blocks(steps)
    assert nb * b >= steps > (nb - 1) * b
    assert ref.shape == (len(lams), steps, n, n)
    assert got.shape == (len(lams), nb * b, n, n)
    scale = np.max(np.abs(ref), axis=(1, 2, 3), keepdims=True)
    assert np.all(np.abs(got[:, :steps] - ref) <= 1e-14 * scale)
    assert np.array_equal(got[:, steps:], np.broadcast_to(np.eye(n), got[:, steps:].shape))


@pytest.mark.parametrize("budget", [None, 8 * 16 * 5])
def test_rk4_endpoint_is_the_last_node(budget, monkeypatch):
    # the endpoint mode expands only the last node, by the same products and
    # reductions: its frame and scale_log equal the full result's last node
    # bit for bit, rescaled or not, across x segments (640 bytes hold 5
    # steps at n = 4, and a chunk 4 lines of them) and with per-line inits;
    # each line equals a one-line call
    if budget:
        monkeypatch.setattr(_kernels, "STEP_BUDGET", budget)
    for steps, m, rescale in itertools.product((1, 2, 33, 1000), (1, 2), (True, False)):
        a_half, E, lams, init, h = random_leg(steps, 5, m, False, per_step=True)
        for start in (init, rng.normal(size=(len(lams), 4, m))):
            frames, slog = _kernels.rk4_grid(a_half, E, lams, start, h, rescale)
            last, last_log = _kernels.rk4_grid(a_half, E, lams, start, h, rescale, True)
            assert last.shape == (5, 1, 4, m) and last_log.shape == (5, 1)
            assert np.array_equal(last, frames[:, -1:], equal_nan=True)
            assert np.array_equal(last_log, slog[:, -1:], equal_nan=True)
            for i in range(len(lams)):
                one = start if start.ndim == 2 else start[i]
                fi, si = _kernels.rk4_grid(a_half, E, lams[i:i + 1], one, h, rescale, True)
                assert np.array_equal(last[i], fi[0], equal_nan=True)
                assert np.array_equal(last_log[i], si[0], equal_nan=True)


def reference_forms(G, H, ATg, ATh):
    """omega1, omega2 and d at each node of (N, n, m) and (N, n, n-m) frames."""
    out = np.empty((3, len(G)))
    for i, (g, h) in enumerate(zip(G, H)):
        GH = np.hstack([g, h])
        m = g.shape[1]
        w2 = 0.0
        for k in range(GH.shape[1]):
            rep = GH.copy()
            rep[:, k] = (ATg if k < m else ATh) @ GH[:, k]
            w2 += np.linalg.det(rep)
        out[:, i] = (np.linalg.det(GH), w2,
                     np.sqrt(np.linalg.det(g.T @ g)) * np.sqrt(np.linalg.det(h.T @ h)))
    return out


@pytest.mark.parametrize("n,m", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3),
                                 (6, 3), (8, 4)])
def test_omega_tables_match_reference_forms(n, m):
    nodes = 40
    G = rng.normal(size=(nodes, n, m)) * rng.uniform(0.1, 10.0, size=(nodes, 1, m))
    H = rng.normal(size=(nodes, n, n - m)) * rng.uniform(0.1, 10.0, size=(nodes, 1, n - m))
    ATg, ATh = rng.normal(size=(2, n, n))
    ref = reference_forms(G, H, ATg, ATh)
    out = _kernels.omega_tables(G, H, ATg, ATh)
    # Hadamard scales: |omega1| <= prod |columns|, and each replacement term
    # of omega2 is bounded likewise with A g_k in place of g_k
    gn = np.linalg.norm(G, axis=1)
    hn = np.linalg.norm(H, axis=1)
    vol = np.prod(gn, axis=1) * np.prod(hn, axis=1)
    growth = (np.sum(np.linalg.norm(ATg @ G, axis=1) / gn, axis=1)
              + np.sum(np.linalg.norm(ATh @ H, axis=1) / hn, axis=1))
    for got, want, scale in zip(out, ref, (vol, vol * growth, vol)):
        assert got.shape == (nodes,)
        assert np.all(np.abs(got - want) <= 1e-12 * scale)
    assert np.array_equal(plucker_volume(G) * plucker_volume(H), out[2])


def reference_volume_rates(F, A):
    """sqrt(det(F^T F)) / prod |f_k| and tr((F^T F)^-1 F^T A F) at each node
    of (..., n, m) frames, in long double.  The Gram matrix is symmetric
    positive definite, so it is eliminated without pivoting; det(F^T F) is
    the product of its pivots."""
    F = np.asarray(F, dtype=np.longdouble)
    A = np.asarray(A, dtype=np.longdouble)
    gram = np.einsum("...ki,...kj->...ij", F, F)
    rhs = np.einsum("...ki,...kl,...lj->...ij", F, A, F)
    norms2 = np.diagonal(gram, axis1=-2, axis2=-1).copy()
    m = F.shape[-1]
    for k in range(m):
        for i in range(k + 1, m):
            f = (gram[..., i, k] / gram[..., k, k])[..., None]
            gram[..., i, :] -= f * gram[..., k, :]
            rhs[..., i, :] -= f * rhs[..., k, :]
    X = np.zeros_like(rhs)
    for i in reversed(range(m)):
        acc = rhs[..., i, :].copy()
        for j in range(i + 1, m):
            acc -= gram[..., i, j, None] * X[..., j, :]
        X[..., i, :] = acc / gram[..., i, i, None]
    pivots = np.diagonal(gram, axis1=-2, axis2=-1)
    ratio = np.sqrt(np.prod(pivots, axis=-1) / np.prod(norms2, axis=-1))
    return ratio, np.trace(X, axis1=-2, axis2=-1)


@pytest.mark.parametrize("n,m", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3),
                                 (6, 3), (8, 4)])
def test_volume_rates_match_long_double_reference(n, m):
    nodes = 40
    G = rng.normal(size=(nodes, n, m)) * rng.uniform(0.1, 10.0, size=(nodes, 1, m))
    A = rng.normal(size=(nodes, n, n))
    ratio, rate = _kernels.volume_rates(G, A)
    ref_ratio, ref_rate = reference_volume_rates(G, A)
    assert ratio.shape == rate.shape == (nodes,)
    assert np.all(np.abs(ratio - ref_ratio) <= 1e-15 * m)
    # |rate| <= m |A|_2, and the rounding of the minors is amplified by 1 / ratio^2
    scale = m * np.linalg.norm(A, ord=2, axis=(1, 2)) / ref_ratio.astype(float) ** 2
    assert np.all(np.abs(rate - ref_rate) <= 4e-15 * scale)
    # the ratio is the Gram volume over the product of the column norms, bit for bit
    norms = np.sqrt(np.sum(G * G, axis=-2))
    assert np.array_equal(ratio, plucker_volume(G) / np.prod(norms, axis=-1))


def test_volume_rates_do_not_depend_on_the_batch():
    G = rng.normal(size=(3, 5, 4, 2))
    A = rng.normal(size=(3, 5, 4, 4))
    whole = _kernels.volume_rates(G, A)
    shared = _kernels.volume_rates(G, A[0, 0])  # one A broadcast to every node
    for i, k in itertools.product(range(3), range(5)):
        for got, want in zip(_kernels.volume_rates(G[i, k], A[i, k]), whole):
            assert got.shape == () and got == want[i, k]
        for got, want in zip(_kernels.volume_rates(G[i, k], A[0, 0]), shared):
            assert got == want[i, k]


def test_collapse_rule():
    # two columns parallel to within 1e-10: the squared volume ratio, 1e-20,
    # is below the 2^-52 floor, so d is NaN; a volume ratio of 1e-3 (the
    # size of example3's c_g) is well above it.  A given frame is held to
    # the same rule.
    n = 4
    ATg, ATh = rng.normal(size=(2, n, n))
    H = rng.normal(size=(n, 2))
    g = rng.normal(size=n)
    u = rng.normal(size=n)
    u -= (u @ g) / (g @ g) * g
    u *= np.linalg.norm(g) / np.linalg.norm(u)
    for eps, collapsed in ((1e-10, True), (1e-3, False)):
        G = np.stack([g, g + eps * u], axis=1)
        ratio = plucker_volume(G) / np.prod(np.linalg.norm(G, axis=0))
        assert ratio == pytest.approx(eps, rel=1e-3)
        assert np.isnan(_kernels.volume_rates(G, ATg)[0]) == collapsed
        if collapsed:
            with pytest.raises(RankDeficiencyError, match="rank-deficient frame"):
                Frame(G)
        else:
            assert Frame(G).cols == 2
        w1, w2, d = (t[0] for t in _kernels.omega_tables(G[None], H, ATg, ATh))
        assert np.isfinite(w1) and np.isfinite(w2)
        assert np.isnan(d) == collapsed
        # the same rule on the H side
        w1, w2, d = (t[0] for t in _kernels.omega_tables(H[None], G, ATg, ATh))
        assert np.isnan(d) == collapsed
        if not collapsed:
            ref = reference_forms(G[None], H[None], ATg, ATh)[2, 0]
            assert _kernels.omega_tables(G[None], H, ATg, ATh)[2][0] == pytest.approx(ref, rel=1e-9)


def test_omega_tables_chunking(monkeypatch):
    # non-zero blocks exercise the column-replacement sum in omega2.  The
    # kernel is elementwise, so a node's bits depend on neither its chunk
    # (one node included) nor the way H is broadcast.  At n = 4, m = 2 a
    # node's temporaries take 8 * (6 * 6 + 16) = 416 bytes of FORM_BUDGET.
    L, S, n, m = 3, 8, 4, 2
    node_bytes = 416
    G = rng.normal(size=(L, S, n, m))
    H = rng.normal(size=(S, n, n - m))
    ATg = rng.normal(size=(n, n))
    ATh = rng.normal(size=(n, n))
    full = np.ascontiguousarray(np.broadcast_to(H, (L, S, n, n - m)))
    ref = _kernels.omega_tables(G.reshape(-1, n, m), full.reshape(-1, n, n - m),
                                ATg, ATh)
    for chunk in (1, 2, 3, 5, 7, 65536):
        monkeypatch.setattr(_kernels, "FORM_BUDGET", chunk * node_bytes)
        for Hb in (H, full):
            out = _kernels.omega_tables(G, Hb, ATg, ATh)
            for a, b in zip(out, ref):
                assert a.shape == (L, S)
                assert np.array_equal(a.ravel(), b)
    # one H frame shared by every node
    monkeypatch.setattr(_kernels, "FORM_BUDGET", 4 * node_bytes)
    one = _kernels.omega_tables(G, H[0], ATg, ATh)
    many = _kernels.omega_tables(G, np.broadcast_to(H[0], G.shape[:-1] + (n - m,)),
                                 ATg, ATh)
    for a, b in zip(one, many):
        assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        _kernels.omega_tables(G, H[:2], ATg, ATh)


def test_backend_name():
    assert _kernels.backend_name() == "numpy"
    assert _kernels.NUMBA_ENABLED is False
