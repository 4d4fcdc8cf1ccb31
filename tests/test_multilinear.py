import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renosc import (
    Frame,
    InvalidInputError,
    RankDeficiencyError,
    build_A_tilde,
    builtin_catalog,
    gram_volume,
    load_problem,
    omega1_eval,
    omega2_eval,
    psi_rho,
)
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


# -- gram_volume ------------------------------------------------------------


def test_gram_volume_orthonormal():
    assert gram_volume(np.eye(2)) == pytest.approx(1.0)


def test_gram_volume_single_column_norm():
    assert gram_volume(np.array([[3.0], [4.0], [0.0]])) == pytest.approx(5.0)


def near_rank_tol(s):
    """Columns e1, e1 + t e2 and e1 + t e2 + s e3 with t = 2**-20.

    With s a short dyadic number the Gram matrix and its elimination are
    exact, so det(Gram) = t**2 s**2 and the column norms are 1 + O(t**2).
    s = 2**-20 puts det(Gram) over the squared norms just below RANK_TOL
    (8.3e-25), s = 3 * 2**-21 just above it (1.9e-24).
    """
    t = 2.0 ** -20
    return np.array([[1.0, 1.0, 1.0], [0.0, t, t], [0.0, 0.0, s]])


BELOW_RANK_TOL = near_rank_tol(2.0 ** -20)
ABOVE_RANK_TOL = near_rank_tol(3 * 2.0 ** -21)


def test_gram_volume_rank_deficient():
    with pytest.raises(RankDeficiencyError):
        gram_volume(np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]]))
    with pytest.raises(RankDeficiencyError):
        gram_volume(BELOW_RANK_TOL)
    assert gram_volume(ABOVE_RANK_TOL) == pytest.approx(3 * 2.0 ** -41, rel=1e-12)


def test_gram_volume_nonfinite():
    with pytest.raises(InvalidInputError):
        gram_volume(np.array([[np.nan], [1.0]]))


def test_frame_validates():
    with pytest.raises(RankDeficiencyError):
        Frame(np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]]))
    # the same rank rule as gram_volume, on both sides of RANK_TOL
    with pytest.raises(RankDeficiencyError):
        Frame(BELOW_RANK_TOL)
    assert Frame(ABOVE_RANK_TOL).cols == 3
    with pytest.raises(InvalidInputError):
        Frame(np.ones((2, 3)))  # wider than tall


# -- omega1 ------------------------------------------------------------------


def test_omega1_identity():
    assert omega1_eval(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])) == 1.0


def test_omega1_example1_boundary_frames():
    # raw boundary frames share e1, so the stacked determinant vanishes
    P = np.array([[1.0], [0.0], [0.0]])
    Q = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    assert omega1_eval(P, Q) == 0.0


def test_omega1_column_swap_negates():
    G, H = random_frames(4, 2)
    swapped = G[:, ::-1].copy()
    assert omega1_eval(swapped, H) == pytest.approx(-omega1_eval(G, H))


def test_omega1_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        omega1_eval(np.eye(3, 2), np.eye(3, 2))


def test_omega1_matches_full_determinant():
    for n, m in [(2, 1), (3, 1), (3, 2), (4, 2), (5, 3)]:
        G, H = random_frames(n, m)
        assert omega1_eval(G, H) == pytest.approx(omega1_full(G, H), rel=1e-10)


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
    cfg = builtin_catalog("harmonic-dirichlet")
    cfg.lam = (0.0, 1.0)
    problem = load_problem(cfg)
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
    assert omega2_eval(G, H, AT) == 0.0


def test_omega2_column_scaling():
    G, H = random_frames(4, 2)
    AT = random_block(4)
    base = omega2_eval(G, H, AT)
    G2 = G.copy()
    G2[:, 0] *= 2.5
    assert omega2_eval(G2, H, AT) == pytest.approx(2.5 * base, rel=1e-10)


def test_omega2_matches_full_reference():
    for n, m in [(2, 1), (3, 1), (3, 2), (4, 2), (6, 3)]:
        G, H = random_frames(n, m)
        AT = random_block(n)
        assert omega2_eval(G, H, AT) == pytest.approx(
            omega2_full(G, H, AT), rel=1e-10
        )


def test_omega2_example1_start(example1):
    """The x=0 values of the example-1 run, with the recorded golden signs.

    Only rho is quoted externally (0.5000); the individual psi components are
    frozen from this repository's x_steps=1000 computation.  Note psi1(0) is
    not zero: it vanishes only when lambda2 is itself an eigenvalue.
    """
    H0 = example1.h_path().frames[0]
    v = psi_rho(example1.P.entries, H0, example1.a_tilde())
    assert v.rho == pytest.approx(0.5000, abs=1e-3)
    assert v.psi1 == pytest.approx(0.485482, abs=1e-4)
    assert v.psi2 == pytest.approx(-0.874239, abs=1e-4)


# -- psi_rho -----------------------------------------------------------------


def test_psi_rho_orthonormal_case():
    G = np.array([[1.0], [0.0]])
    H = np.array([[0.0], [1.0]])
    AT = BlockLambdaMatrix(n=2, entries=np.zeros((4, 4)))
    v = psi_rho(G, H, AT)
    assert (v.omega1, v.omega2, v.d) == (1.0, 0.0, 1.0)
    assert (v.psi1, v.psi2, v.rho) == (1.0, 0.0, 0.5)


def test_psi_rho_refuses_collapsed_frame():
    # columns parallel to within 1e-10 pass the RANK_TOL test (squared ratio
    # 1e-20 > 1e-24) but sit below the forms' collapse floor
    G = np.array([[1.0, 1.0], [0.0, 1e-10], [0.0, 0.0], [0.0, 0.0]])
    H = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    AT = BlockLambdaMatrix(n=4, entries=np.zeros((8, 8)))
    gram_volume(G)
    with pytest.raises(RankDeficiencyError):
        psi_rho(G, H, AT)


def test_psi_rho_example1_rho(example1):
    H0 = example1.h_path().frames[0]
    v = psi_rho(example1.P.entries, H0, example1.a_tilde())
    assert v.rho == pytest.approx(0.5000, abs=1e-3)


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
    v = psi_rho(G, H, AT)
    v2 = psi_rho(G @ M, H, AT)
    detM = np.linalg.det(M)
    assert v2.omega1 == pytest.approx(detM * v.omega1, rel=1e-8, abs=1e-12)
    assert v2.omega2 == pytest.approx(detM * v.omega2, rel=1e-8, abs=1e-10)
    assert v2.d == pytest.approx(abs(detM) * v.d, rel=1e-8)
    sign = 1.0 if detM > 0 else -1.0
    assert v2.psi1 == pytest.approx(sign * v.psi1, rel=1e-7, abs=1e-10)
    assert v2.psi2 == pytest.approx(sign * v.psi2, rel=1e-7, abs=1e-8)
    assert v2.rho == pytest.approx(v.rho, rel=1e-7)


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_antisymmetry_and_multilinearity(seed):
    r = np.random.default_rng(seed)
    n, m = 4, 2
    G = r.normal(size=(n, m))
    H = r.normal(size=(n, n - m))
    AT = random_block(n)
    swapped = G[:, ::-1].copy()
    assert omega1_eval(swapped, H) == pytest.approx(
        -omega1_eval(G, H), rel=1e-9, abs=1e-12
    )
    assert omega2_eval(swapped, H, AT) == pytest.approx(
        -omega2_eval(G, H, AT), rel=1e-9, abs=1e-10
    )
    c = 1.0 + abs(r.normal())
    G2 = G.copy()
    G2[:, 1] *= c
    assert omega1_eval(G2, H) == pytest.approx(
        c * omega1_eval(G, H), rel=1e-9, abs=1e-12
    )


def test_rho_positive_iff_forms_nonzero():
    for _ in range(50):
        G, H = random_frames(3, 1)
        AT = random_block(3)
        v = psi_rho(G, H, AT)
        both_zero = v.omega1 == 0.0 and v.omega2 == 0.0
        assert (v.rho == 0.0) == both_zero
        assert v.rho > 0.0 or both_zero
