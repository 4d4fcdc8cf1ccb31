"""Skew-symmetric determinant forms on Grassmannian frame pairs.

A subspace pair (g, h) of complementary dimensions in R^n is represented by
frames G (n x m) and H (n x (n-m)).  The two scalar forms evaluated here are

    omega1 = det([G H])
    omega2 = sum over single-column replacements of [G H] by the block
             coefficient matrix acting on that column,

together with the Gram normalization d = |g_1 ^ ... ^ g_m| |h_1 ^ ... ^ h_{n-m}|
and the scaled quantities psi_i = omega_i / d, rho = (psi1^2 + psi2^2)/2.
rho > 0 certifies that the pair of forms does not vanish simultaneously,
which is what makes the projective winding index well defined.

The evaluator is `_kernels.omega_tables`, batched over nodes, with the Gram
volume from `_kernels.gram_volumes`.  Both work on Pluecker vectors: with
ghat and hhat the vectors of maximal minors of G and H, omega1 = ghat^T J
hhat is the Hodge pairing, omega2 = ghat^T K hhat with K built from the
derived compounds of the two blocks, and d = |ghat| |hhat| (Cauchy-Binet:
|ghat|^2 = det(G^T G)).  omega_tables sets d = NaN where a frame collapsed:
its squared volume at most 2^-52 times the product of its squared column
norms (`_kernels.COLLAPSE_TOL`).

The scalar functions here are validated one-node views of them: they check
shapes, finiteness and rank (one rule for given frames, `gram_volume`'s
RANK_TOL test, which `Frame` shares) and evaluate nothing themselves, except
`omega1_eval`, which is the definition det([G H]).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import InvalidInputError, RankDeficiencyError

# Gram determinant must exceed this times the product of squared column
# norms for a frame to count as full rank.
RANK_TOL = 1e-24


@dataclass(frozen=True)
class Frame:
    """Basis of a subspace of R^n, one basis vector per column."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 2:
            raise InvalidInputError("frame must be a 2-d matrix")
        n, m = entries.shape
        if not 1 <= m <= n:
            raise InvalidInputError(f"frame must be tall: got {n}x{m}")
        gram_volume(entries)  # finite entries, independent columns
        object.__setattr__(self, "entries", entries)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class OmegaPairValue:
    """Both form values at one point of a path, raw and Gram-normalized."""

    omega1: float
    omega2: float
    d: float
    psi1: float
    psi2: float
    rho: float


@dataclass(frozen=True)
class BlockLambdaMatrix:
    """blockdiag(A~(lambda1), A~(lambda2)) where A~ is A(0; .) with zeroed diagonal.

    The first block acts on G-columns, the second on H-columns.
    """

    n: int
    entries: np.ndarray

    @property
    def block_g(self) -> np.ndarray:
        return self.entries[: self.n, : self.n]

    @property
    def block_h(self) -> np.ndarray:
        return self.entries[self.n :, self.n :]


def _as_matrix(frame) -> np.ndarray:
    if isinstance(frame, Frame):
        return frame.entries
    return np.asarray(frame, dtype=float)


def gram_volume(frame) -> float:
    """sqrt(det of the Gram matrix): the m-volume spanned by the columns.

    The one rank rule: the squared volume must exceed RANK_TOL times the
    product of squared column norms, else RankDeficiencyError.
    """
    mat = _as_matrix(frame)
    if not np.all(np.isfinite(mat)):
        raise InvalidInputError("frame has non-finite entries")
    vol = float(_kernels.gram_volumes(mat))
    if not vol * vol > RANK_TOL * float(np.prod(np.sum(mat * mat, axis=0))):
        raise RankDeficiencyError("rank-deficient frame: columns are numerically dependent")
    return vol


def omega1_eval(G, H) -> float:
    """det([G H]) for complementary frames; zero exactly at a crossing."""
    g, h = _as_matrix(G), _as_matrix(H)
    if g.shape[0] != h.shape[0] or g.shape[1] + h.shape[1] != g.shape[0]:
        raise InvalidInputError(
            f"frames {g.shape} and {h.shape} do not stack to a square matrix"
        )
    return float(np.linalg.det(np.hstack([g, h])))


def build_A_tilde(problem) -> BlockLambdaMatrix:
    """Assemble the block coefficient matrix from A(0; lambda1), A(0; lambda2).

    Accepts anything with `field.evaluate(x, lam)` plus `lambda1`/`lambda2`
    attributes (a SpectralProblem in practice).
    """
    a1 = np.array(problem.field.evaluate(0.0, problem.lambda1), dtype=float)
    a2 = np.array(problem.field.evaluate(0.0, problem.lambda2), dtype=float)
    np.fill_diagonal(a1, 0.0)
    np.fill_diagonal(a2, 0.0)
    n = a1.shape[0]
    out = np.zeros((2 * n, 2 * n))
    out[:n, :n] = a1
    out[n:, n:] = a2
    return BlockLambdaMatrix(n=n, entries=out)


def _forms_at_node(G, H, AT: BlockLambdaMatrix):
    """(omega1, omega2, d) of one frame pair: a one-node omega_tables call."""
    g, h = _as_matrix(G), _as_matrix(H)
    n = g.shape[0]
    if h.shape[0] != n or g.shape[1] + h.shape[1] != n:
        raise InvalidInputError("frame dimensions do not match")
    if AT.n != n:
        raise InvalidInputError(f"block matrix is for n={AT.n}, frames have n={n}")
    tables = _kernels.omega_tables(g[None], h[None], AT.block_g, AT.block_h)
    return tuple(float(t[0]) for t in tables)


def omega2_eval(G, H, AT: BlockLambdaMatrix) -> float:
    """Column-replacement sum defining the second form.

    Each column of the stacked frame [G H] is replaced in turn by the block
    matrix applied to it: columns from G by the first block, columns from H
    by the second.
    """
    return _forms_at_node(G, H, AT)[1]


def psi_rho(G, H, AT: BlockLambdaMatrix) -> OmegaPairValue:
    """Evaluate both forms and their Gram-normalized versions at one point.

    Both frames must pass `gram_volume`'s finiteness and rank test and the
    forms' collapse rule.
    """
    w1, w2, d = _forms_at_node(G, H, AT)
    for frame in (G, H):
        gram_volume(frame)
    if not np.isfinite(d):
        raise RankDeficiencyError("collapsed frame: volume at the rounding floor")
    psi1 = w1 / d
    psi2 = w2 / d
    return OmegaPairValue(
        omega1=w1,
        omega2=w2,
        d=d,
        psi1=psi1,
        psi2=psi2,
        rho=0.5 * (psi1 * psi1 + psi2 * psi2),
    )
