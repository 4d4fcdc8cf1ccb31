from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renosc import (
    Frame,
    InvalidInputError,
    RankDeficiencyError,
    _kernels,
    build_A_tilde,
    builtin_catalog,
    load_problem,
    shelf_path,
)
from renosc.maslovbox import normalized_forms
from renosc.multilinear import BlockLambdaMatrix

rng = np.random.default_rng(20240817)


def random_frames(n, m):
    while True:
        G = rng.normal(size=(n, m))
        H = rng.normal(size=(n, n - m))
        if abs(np.linalg.det(np.hstack([G, H]))) > 1e-3:
            return G, H


def random_block(n):
    a1 = rng.normal(size=(n, n))
    a2 = rng.normal(size=(n, n))
    np.fill_diagonal(a1, 0.0)
    np.fill_diagonal(a2, 0.0)
    out = np.zeros((2 * n, 2 * n))
    out[:n, :n] = a1
    out[n:, n:] = a2
    return BlockLambdaMatrix(n=n, entries=out)


# -- reference implementations used as the independent route ---------------


def stacked_frame(G, H):
    n = G.shape[0]
    m = G.shape[1]
    F = np.zeros((2 * n, n))
    F[:n, :m] = G
    F[n:, m:] = H
    return F


def delta_frame(n):
    return np.vstack([-np.eye(n), np.eye(n)])


def omega1_full(G, H):
    """Direct 2n x 2n determinant with the target frame appended."""
    n = G.shape[0]
    return np.linalg.det(np.hstack([stacked_frame(G, H), delta_frame(n)]))


def omega2_full(G, H, AT):
    """Column replacements applied to the full 2n x n stacked frame."""
    n = G.shape[0]
    F = stacked_frame(G, H)
    total = 0.0
    for k in range(n):
        Fk = F.copy()
        Fk[:, k] = AT.entries @ F[:, k]
        total += np.linalg.det(np.hstack([Fk, delta_frame(n)]))
    return total


# -- one-node form values ----------------------------------------------------


def forms(G, H, AT=None):
    """(omega1, omega2, d) of one frame pair: a one-node omega_tables call.

    Without AT the block matrix is zero (omega1 and d do not depend on it).
    """
    G = np.asarray(G, dtype=float)
    if AT is None:
        AT = BlockLambdaMatrix(n=G.shape[0], entries=np.zeros((2 * G.shape[0],) * 2))
    return tuple(float(t[0]) for t in _kernels.omega_tables(G[None], H, AT.block_g,
                                                              AT.block_h))


def psi_rho(G, H, AT):
    """(omega1, omega2, d, psi1, psi2, rho) of one frame pair, as the shelves
    normalize them: a collapsed frame raises RankDeficiencyError."""
    w1, w2, d = forms(G, H, AT)
    psi1, psi2 = (float(p) for p in normalized_forms(w1, w2, d, "one node"))
    return w1, w2, d, psi1, psi2, 0.5 * (psi1 * psi1 + psi2 * psi2)


# -- the Gram volume and the one rank rule -----------------------------------


def test_gram_volume_orthonormal():
    G, H = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [0.0], [1.0]])
    assert Frame(G).cols == 2
    assert forms(G, H)[2] == pytest.approx(1.0)


def test_gram_volume_single_column_norm():
    G = np.array([[3.0], [4.0], [0.0]])
    H = np.array([[-0.8, 0.0], [0.6, 0.0], [0.0, 1.0]])  # orthonormal columns
    assert Frame(G).cols == 1
    assert forms(G, H)[2] == pytest.approx(5.0)


def thin_frame(s):
    """Columns e1, e1 + t e2 and e1 + t e2 + s e3 with t = 2**-20.

    With s a short dyadic number the Gram matrix and its elimination are
    exact, so det(Gram) = t**2 s**2 and the column norms are 1 + O(t**2):
    s = 2**-20 gives det(Gram) over the squared norms 8.3e-25, s = 3 * 2**-21
    gives 1.9e-24, both far below COLLAPSE_TOL = 2^-52.
    """
    t = 2.0 ** -20
    return np.array([[1.0, 1.0, 1.0], [0.0, t, t], [0.0, 0.0, s]])


THIN_FRAMES = (thin_frame(2.0 ** -20), thin_frame(3 * 2.0 ** -21))


def test_gram_volume_rank_deficient():
    G = np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]])
    with pytest.raises(RankDeficiencyError):
        Frame(G)
    assert np.isnan(forms(G, np.array([[0.0], [0.0], [1.0]]))[2])
    H = np.array([[0.0], [0.0], [0.0], [1.0]])
    for G in THIN_FRAMES:
        assert np.isnan(forms(np.vstack([G, np.zeros((1, 3))]), H)[2])


def test_gram_volume_nonfinite():
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidInputError):
            Frame(np.array([[bad], [1.0]]))


def test_frame_validates():
    with pytest.raises(RankDeficiencyError):
        Frame(np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]]))
    for G in THIN_FRAMES:  # under the one rank rule, the collapse floor
        with pytest.raises(RankDeficiencyError):
            Frame(G)
    with pytest.raises(InvalidInputError):
        Frame(np.ones((2, 3)))  # wider than tall


# -- omega1 ------------------------------------------------------------------


def test_omega1_identity():
    assert forms(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]))[0] == 1.0


def test_omega1_example1_boundary_frames():
    # raw boundary frames share e1, so the stacked determinant vanishes
    P = np.array([[1.0], [0.0], [0.0]])
    Q = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    assert forms(P, Q)[0] == 0.0


def test_omega1_column_swap_negates():
    G, H = random_frames(4, 2)
    swapped = G[:, ::-1].copy()
    assert forms(swapped, H)[0] == pytest.approx(-forms(G, H)[0])


def test_omega1_dimension_mismatch():
    with pytest.raises(ValueError):
        forms(np.eye(3, 2), np.eye(3, 2))


def test_omega1_matches_full_determinant():
    for n, m in [(2, 1), (3, 1), (3, 2), (4, 2), (5, 3)]:
        G, H = random_frames(n, m)
        assert forms(G, H)[0] == pytest.approx(omega1_full(G, H), rel=1e-10)


# -- build_A_tilde -----------------------------------------------------------


class _IdentityProblem:
    class field:
        @staticmethod
        def evaluate(x, lam):
            return np.eye(3)

    lambda1, lambda2 = 0.0, 1.0


def test_a_tilde_identity_is_zero():
    AT = build_A_tilde(_IdentityProblem())
    assert np.all(AT.entries == 0.0)


def test_a_tilde_harmonic_blocks():
    problem = load_problem(replace(builtin_catalog("harmonic-dirichlet"), lam=(0.0, 1.0)))
    AT = build_A_tilde(problem)
    # worked out from the first-order form of -phi'' = lam phi
    assert np.allclose(AT.block_g, [[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(AT.block_h, [[0.0, 1.0], [-1.0, 0.0]])


def test_a_tilde_example1_entry(example1):
    AT = build_A_tilde(example1)
    # lambda1 - alpha0(0) = -1 - (-0.3)
    assert AT.block_g[2, 0] == pytest.approx(-0.7, abs=1e-12)


# -- omega2 ------------------------------------------------------------------


def test_omega2_zero_block():
    G, H = random_frames(3, 1)
    AT = BlockLambdaMatrix(n=3, entries=np.zeros((6, 6)))
    assert forms(G, H, AT)[1] == 0.0


def test_omega2_column_scaling():
    G, H = random_frames(4, 2)
    AT = random_block(4)
    base = forms(G, H, AT)[1]
    G2 = G.copy()
    G2[:, 0] *= 2.5
    assert forms(G2, H, AT)[1] == pytest.approx(2.5 * base, rel=1e-10)


def test_omega2_matches_full_reference():
    for n, m in [(2, 1), (3, 1), (3, 2), (4, 2), (6, 3)]:
        G, H = random_frames(n, m)
        AT = random_block(n)
        assert forms(G, H, AT)[1] == pytest.approx(
            omega2_full(G, H, AT), rel=1e-10
        )


def test_omega2_example1_start(example1):
    """The x=0 values of the example-1 run, with the recorded golden signs.

    Only rho is quoted externally (0.5000); the individual psi components are
    frozen from this repository's x_steps=1000 computation.  Note psi1(0) is
    not zero: it vanishes only when lambda2 is itself an eigenvalue.
    """
    H0 = example1.h_path().frames[0]
    *_, psi1, psi2, rho = psi_rho(example1.P.entries, H0, example1.a_tilde())
    assert rho == pytest.approx(0.5000, abs=1e-3)
    assert psi1 == pytest.approx(0.485482, abs=1e-4)
    assert psi2 == pytest.approx(-0.874239, abs=1e-4)


# -- psi and rho -------------------------------------------------------------


def test_psi_rho_orthonormal_case():
    G = np.array([[1.0], [0.0]])
    H = np.array([[0.0], [1.0]])
    AT = BlockLambdaMatrix(n=2, entries=np.zeros((4, 4)))
    assert psi_rho(G, H, AT) == (1.0, 0.0, 1.0, 1.0, 0.0, 0.5)


def test_psi_rho_refuses_collapsed_frame():
    # columns parallel to within 1e-10: squared volume ratio 1e-20, below
    # the collapse floor, so d is NaN and psi is refused
    G = np.array([[1.0, 1.0], [0.0, 1e-10], [0.0, 0.0], [0.0, 0.0]])
    H = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    AT = BlockLambdaMatrix(n=4, entries=np.zeros((8, 8)))
    with pytest.raises(RankDeficiencyError):
        psi_rho(G, H, AT)


def test_psi_rho_example1_rho(example1):
    # the bottom shelf holds the same one-node value on every lambda line
    H0 = example1.h_path().frames[0]
    rho = psi_rho(example1.P.entries, H0, example1.a_tilde())[5]
    assert rho == pytest.approx(0.5000, abs=1e-3)
    assert np.all(shelf_path(example1, "bottom").rho == rho)


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_basis_change_covariance(seed):
    r = np.random.default_rng(seed)
    n, m = 4, 2
    G = r.normal(size=(n, m))
    H = r.normal(size=(n, n - m))
    if abs(np.linalg.det(np.hstack([G, H]))) < 1e-6:
        return
    M = r.normal(size=(m, m))
    if abs(np.linalg.det(M)) < 1e-6:
        return
    AT = random_block(n)
    w1, w2, d, psi1, psi2, rho = psi_rho(G, H, AT)
    v1, v2, e, phi1, phi2, rho2 = psi_rho(G @ M, H, AT)
    detM = np.linalg.det(M)
    assert v1 == pytest.approx(detM * w1, rel=1e-8, abs=1e-12)
    assert v2 == pytest.approx(detM * w2, rel=1e-8, abs=1e-10)
    assert e == pytest.approx(abs(detM) * d, rel=1e-8)
    sign = 1.0 if detM > 0 else -1.0
    assert phi1 == pytest.approx(sign * psi1, rel=1e-7, abs=1e-10)
    assert phi2 == pytest.approx(sign * psi2, rel=1e-7, abs=1e-8)
    assert rho2 == pytest.approx(rho, rel=1e-7)


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_antisymmetry_and_multilinearity(seed):
    r = np.random.default_rng(seed)
    n, m = 4, 2
    G = r.normal(size=(n, m))
    H = r.normal(size=(n, n - m))
    AT = random_block(n)
    swapped = G[:, ::-1].copy()
    w1, w2, _ = forms(G, H, AT)
    s1, s2, _ = forms(swapped, H, AT)
    assert s1 == pytest.approx(-w1, rel=1e-9, abs=1e-12)
    assert s2 == pytest.approx(-w2, rel=1e-9, abs=1e-10)
    c = 1.0 + abs(r.normal())
    G2 = G.copy()
    G2[:, 1] *= c
    assert forms(G2, H, AT)[0] == pytest.approx(c * w1, rel=1e-9, abs=1e-12)


def test_rho_positive_iff_forms_nonzero():
    for _ in range(50):
        G, H = random_frames(3, 1)
        AT = random_block(3)
        w1, w2, _, _, _, rho = psi_rho(G, H, AT)
        both_zero = w1 == 0.0 and w2 == 0.0
        assert (rho == 0.0) == both_zero
        assert rho > 0.0 or both_zero
