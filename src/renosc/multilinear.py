"""Frames, the block coefficient matrix, and the one rank rule.

A subspace pair (g, h) of complementary dimensions in R^n is represented by
frames G (n x m) and H (n x (n-m)).  The two determinant forms on the pair
are

    omega1 = det([G H])
    omega2 = sum over single-column replacements of [G H] by the block
             coefficient matrix acting on that column,

with the Gram normalization d = |g_1 ^ ... ^ g_m| |h_1 ^ ... ^ h_{n-m}|, the
scaled quantities psi_i = omega_i / d and rho = (psi1^2 + psi2^2)/2.
rho > 0 certifies that the pair of forms does not vanish simultaneously,
which is what makes the projective winding index well defined.

Their one evaluator is `_kernels.omega_tables`, batched over nodes in
Pluecker coordinates; this module holds its inputs: `Frame`, a validated
given frame, and `build_A_tilde`, the block matrix of omega2.  One rank rule
serves given and propagated frames alike: a frame whose squared volume is at
most `_kernels.COLLAPSE_TOL` = 2^-52 times the product of its squared column
norms has collapsed.  omega_tables sets d = NaN there, and `Frame` refuses
such a frame with RankDeficiencyError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import InvalidInputError, RankDeficiencyError


@dataclass(frozen=True)
class Frame:
    """Basis of a subspace of R^n, one basis vector per column.

    Refuses non-finite entries (InvalidInputError) and a collapsed frame
    (RankDeficiencyError), by omega_tables' collapse rule.
    """

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 2:
            raise InvalidInputError("frame must be a 2-d matrix")
        n, m = entries.shape
        if not 1 <= m <= n:
            raise InvalidInputError(f"frame must be tall: got {n}x{m}")
        if not np.all(np.isfinite(entries)):
            raise InvalidInputError("frame has non-finite entries")
        # the column-volume ratio is NaN exactly where omega_tables' d would be
        if np.isnan(_kernels.volume_rates(entries, np.zeros((n, n)))[0]):
            raise RankDeficiencyError("rank-deficient frame: columns are numerically dependent")
        object.__setattr__(self, "entries", entries)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]


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
