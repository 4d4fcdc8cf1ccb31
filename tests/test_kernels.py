"""The batched numpy kernels: chunking, per-line tables and the backend name.

`reference_rk4` is the sequential RK4 loop, one step of every line at a time;
`_kernels.rk4_grid` builds every step's propagator at once and chains them by
a blocked prefix product, and must agree with it.
"""

import itertools

import numpy as np
import pytest

from renosc import _kernels

rng = np.random.default_rng(5)


@np.errstate(over="ignore", invalid="ignore")  # the stiff leg overflows
def reference_rk4(a_half, E, lams, init, h, rescale):
    """Classical RK4 on F' = (a_half + lam E) F, one step at a time."""
    a_half = np.asarray(a_half, dtype=float)
    steps = (a_half.shape[-3] - 1) // 2
    if a_half.ndim == 4:
        a_half = np.moveaxis(a_half, 1, 0)
    n, m = init.shape[-2:]
    L = len(lams)
    lam = np.asarray(lams, dtype=float)[:, None, None]
    F = np.broadcast_to(init, (L, n, m)).astype(float)
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


def random_leg(steps, L, m, per_line, backward, n=4):
    """A random leg: shared table with lambda * E, or one table per line."""
    a_half = rng.normal(size=(2 * steps + 1, n, n)) * 0.8
    E = rng.normal(size=(n, n)) * 0.5
    lams = rng.uniform(-2, 2, size=L)
    init = rng.normal(size=(n, m))
    if per_line:
        a_half = a_half[None] + lams[:, None, None, None] * E
        E, lams = np.zeros_like(E), np.zeros_like(lams)
    return a_half, E, lams, init, (-1.0 if backward else 1.0) / steps


def assert_rel_close(a, b, rtol=1e-12):
    assert a.shape == b.shape
    assert np.max(np.abs(a - b)) <= rtol * np.max(np.abs(b))


@pytest.mark.parametrize("steps", [1, 2, 31, 32, 33, 1000])
def test_rk4_matches_sequential_reference(steps):
    for L, m, per_line, backward in itertools.product((1, 7), (1, 2), (False, True),
                                                      (False, True)):
        leg = random_leg(steps, L, m, per_line, backward)
        out = {}
        for rescale in (True, False):
            frames, slog = _kernels.rk4_grid(*leg, rescale)
            ref_frames, ref_slog = reference_rk4(*leg, rescale)
            assert frames.shape == (L, steps + 1, 4, m) and slog.shape == (L, steps + 1)
            assert_rel_close(frames, ref_frames)
            assert_rel_close(slog, ref_slog)
            out[rescale] = frames, slog
        if m == 2:
            raw = _kernels.gram_volumes(out[False][0])
            rescaled = _kernels.gram_volumes(out[True][0]) * np.exp(out[True][1])
            assert np.allclose(raw, rescaled, rtol=1e-12, atol=0)


@pytest.mark.parametrize("budget", [8 * 16 * 5, 8 * 16 * 120])
def test_rk4_step_budget_splits_segments_and_lines(budget, monkeypatch):
    # at n = 4, 640 bytes hold 5 steps of one line, so 33 steps run in 7 x
    # segments; 15360 bytes hold three lines of all 33 steps, so 5 lines run
    # in chunks of 3 and 2.  Both agree with the reference, and a line's bits
    # do not depend on the lines that share its chunk.
    monkeypatch.setattr(_kernels, "STEP_BUDGET", budget)
    a_half, E, lams, _, h = random_leg(33, 5, 2, False, False)
    inits = rng.normal(size=(5, 4, 2))
    for rescale in (True, False):
        frames, slog = _kernels.rk4_grid(a_half, E, lams, inits, h, rescale)
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


def test_rk4_per_line_tables_match_affine_batch():
    # one table per lambda line, with E = 0, is the general-field path
    a_half, E, lams, init, h = random_leg(60, 5, 2, False, False)
    per_line = a_half[None] + lams[:, None, None, None] * E
    for rescale in (True, False):
        f1, s1 = _kernels.rk4_grid(a_half, E, lams, init, h, rescale)
        f2, s2 = _kernels.rk4_grid(per_line, np.zeros_like(E), np.zeros_like(lams),
                                   init, h, rescale)
        assert np.max(np.abs(f1 - f2)) < 1e-12
        assert np.max(np.abs(s1 - s2)) < 1e-12


def test_rk4_per_line_init_matches_separate_lines():
    a_half, E, lams, _, h = random_leg(60, 5, 2, False, False)
    inits = rng.normal(size=(len(lams), 4, 2))
    for rescale in (True, False):
        f, s = _kernels.rk4_grid(a_half, E, lams, inits, h, rescale)
        for i in range(len(lams)):
            fi, si = _kernels.rk4_grid(a_half, E, lams[i:i + 1], inits[i], h, rescale)
            assert np.array_equal(f[i], fi[0]) and np.array_equal(s[i], si[0])


def test_omega_tables_chunking():
    # non-zero blocks exercise the column-replacement sum in omega2.  Every
    # chunk holds at least two nodes: a one-node chunk multiplies by gemv,
    # which rounds differently from the gemm of larger chunks.
    L, S, n, m = 3, 8, 4, 2
    G = rng.normal(size=(L, S, n, m))
    H = rng.normal(size=(S, n, n - m))
    ATg = rng.normal(size=(n, n))
    ATh = rng.normal(size=(n, n))
    full = np.ascontiguousarray(np.broadcast_to(H, (L, S, n, n - m)))
    ref = _kernels.omega_tables(G.reshape(-1, n, m), full.reshape(-1, n, n - m),
                                ATg, ATh)
    for chunk in (2, 3, 5, 7, 65536):
        for Hb in (H, full):
            out = _kernels.omega_tables(G, Hb, ATg, ATh, chunk=chunk)
            for a, b in zip(out, ref):
                assert a.shape == (L, S)
                assert np.array_equal(a.ravel(), b)
    # one H frame shared by every node
    one = _kernels.omega_tables(G, H[0], ATg, ATh, chunk=4)
    many = _kernels.omega_tables(G, np.broadcast_to(H[0], G.shape[:-1] + (n - m,)),
                                 ATg, ATh)
    for a, b in zip(one, many):
        assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        _kernels.omega_tables(G, H[:2], ATg, ATh)


def test_backend_name():
    assert _kernels.backend_name() == "numpy"
    assert _kernels.NUMBA_ENABLED is False
