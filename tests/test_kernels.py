"""The batched numpy kernels: chunking, per-line tables and the backend name."""

import numpy as np
import pytest

from renosc import _kernels

rng = np.random.default_rng(5)


def random_inputs(n=4, m=2, steps=60, L=5):
    a_half = rng.normal(size=(2 * steps + 1, n, n)) * 0.8
    E = rng.normal(size=(n, n)) * 0.5
    lams = rng.uniform(-2, 2, size=L)
    init = rng.normal(size=(n, m))
    return a_half, E, lams, init, 1.0 / steps


def test_rk4_per_line_tables_match_affine_batch():
    # one table per lambda line, with E = 0, is the general-field path
    a_half, E, lams, init, h = random_inputs()
    per_line = a_half[None] + lams[:, None, None, None] * E
    for rescale in (True, False):
        f1, s1 = _kernels.rk4_grid(a_half, E, lams, init, h, rescale)
        f2, s2 = _kernels.rk4_grid(per_line, np.zeros_like(E), np.zeros_like(lams),
                                   init, h, rescale)
        assert np.max(np.abs(f1 - f2)) < 1e-12
        assert np.max(np.abs(s1 - s2)) < 1e-12


def test_rk4_per_line_init_matches_separate_lines():
    a_half, E, lams, _, h = random_inputs()
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
