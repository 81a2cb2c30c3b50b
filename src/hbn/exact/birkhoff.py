"""Splitting types of vector bundles on P^1 from transition matrices.

A bundle glued over the two standard charts by a Laurent polynomial
matrix T (new frame = T * old frame) splits as a direct sum of line
bundles; diag(t^d) corresponds to the degree-d line bundle.

`TransitionMatrix` stores T densely: one int64 array `coeffs` of shape
(n, n, L) with entries in [0, p) and an exponent offset `low`, so entry
(i, j) is sum_l coeffs[i, j, l] * t^(low + l).  Construction trims the
exponent slots that are zero in every entry.  `det` evaluates T at the
nodes 0..n(L-1), takes one `batch_det_mod` over that stack and one
`interp_nodes`: det(T) is t^(n * low) times a polynomial of degree at
most n(L-1), so it needs p > n(L-1) and raises PrimeTooSmallError
otherwise.

`birkhoff_splitting` extracts the multiset of degrees by exact column
reduction on a copy of the array:

    repeat:
        m_j   = minimal exponent in column j
        BC    = matrix of coefficients of t^(m_j), column by column
        if BC is invertible over F_p: the type is sorted(m)
        else: a kernel vector of BC combines columns (using only
              nonpositive shifts t^(m_j* - m_j)) so that the valuation of
              the cheapest involved column strictly increases

Each combination is a column operation with entries in F_p[1/t] and
constant determinant, so it changes neither the bundle nor det(T) up to
a scalar.  It shifts columns only down onto m_j* >= low, so the exponent
range of T never grows.  The column minima sum is bounded by the t-power
of det(T), which forces termination; when BC is invertible, T * (ops)
factors as (matrix of t-polynomials with unit determinant) *
diag(t^(m_j)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hbn.exact.field import PrimeTooSmallError
from hbn.exact.linalg import batch_det_mod, nullspace_vector
from hbn.exact.poly import _eval_at_nodes, interp_nodes


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Square matrix of Laurent polynomials over F_p (module doc)."""

    coeffs: np.ndarray
    low: int
    p: int

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.int64)
        if c.ndim != 3 or c.shape[0] != c.shape[1] or 0 in c.shape:
            raise ValueError(f"coefficients must have shape (n, n, L) with n, L >= 1, got {c.shape}")
        c = c % self.p
        used = np.flatnonzero(c.any(axis=(0, 1)))
        first, last = (int(used[0]), int(used[-1])) if used.size else (0, 0)
        object.__setattr__(self, "coeffs", c[:, :, first : last + 1])
        object.__setattr__(self, "low", int(self.low) + first if used.size else 0)

    @property
    def size(self) -> int:
        return self.coeffs.shape[0]

    def det(self) -> "TransitionMatrix":
        """det(T) as a 1x1 matrix; needs p > n(L-1) (module doc)."""
        n, _, length = self.coeffs.shape
        nodes = n * (length - 1) + 1
        if self.p < nodes:
            raise PrimeTooSmallError(
                f"prime too small for the determinant: degree up to {nodes - 1} needs p > {nodes - 1}"
            )
        vals = _eval_at_nodes(self.coeffs, nodes, self.p)
        coef = interp_nodes(batch_det_mod(vals, self.p), self.p)
        return TransitionMatrix(coef[None, None], n * self.low, self.p)


def birkhoff_splitting(T: TransitionMatrix) -> tuple[int, ...]:
    """Weakly increasing degree tuple of the bundle glued by T.

    Raises ValueError when det(T) is not a unit times a power of the
    variable (the matrix is then not an allowed gluing).
    """
    d = T.det()
    if not d.coeffs.any():
        raise ValueError("transition matrix is singular")
    if d.coeffs.shape[2] != 1:
        raise ValueError("det must be a unit times a power of the variable")
    p = T.p
    a = T.coeffs.copy()
    n, _, length = a.shape
    while True:
        # first[j]: slot of column j's minimal exponent; det(T) != 0, so no column is zero
        first = a.any(axis=0).argmax(axis=1)
        kernel = nullspace_vector(a[:, range(n), first], p)
        if kernel is None:
            return tuple(sorted(T.low + int(f) for f in first))
        support = np.flatnonzero(kernel)
        jstar = support[first[support].argmin()]
        new = np.zeros((n, length), dtype=np.int64)
        for j in support:
            top = first[jstar] + length - first[j]
            new[:, first[jstar] : top] += kernel[j] * a[:, j, first[j] :] % p
        a[:, jstar] = new % p
