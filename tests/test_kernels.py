"""The batched numpy kernels: chunking, per-line tables and the backend name."""

import numpy as np

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


def test_omega_tables_chunking():
    N, n, m = 7, 3, 1
    G = rng.normal(size=(N, n, m))
    H = rng.normal(size=(N, n, n - m))
    Z = np.zeros((n, n))
    w1a, _, _ = _kernels.omega_tables(G, H, Z, Z, chunk=3)
    w1b, _, _ = _kernels.omega_tables(G, H, Z, Z, chunk=100)
    assert np.allclose(w1a, w1b)


def test_backend_name():
    assert _kernels.backend_name() == "numpy"
    assert _kernels.NUMBA_ENABLED is False
