"""Resultants in v of polynomials with F_p[u] coefficients, by evaluation.

A polynomial in v is a coefficient list (index = power of v) whose
entries are univariate polys in u.  Resultants are computed through the
Sylvester matrix with the *declared* degrees of the inputs:
specialization then commutes with the determinant, so
evaluation-interpolation stays valid even when leading coefficients
vanish at individual points.
"""

from __future__ import annotations

import numpy as np

from hbn.exact.field import PrimeTooSmallError
from hbn.exact.linalg import batch_det_mod, det_mod
from hbn.exact.poly import Poly, _eval_at_nodes, _node_count, pinterp


def sylvester(f, g) -> np.ndarray:
    """Sylvester matrix using the declared degrees len(f)-1, len(g)-1.

    f and g may also be stacks of shape (n, len): the result is then the
    stack (n, size, size) of their Sylvester matrices, filled by slicing.
    """
    f = np.asarray(f, dtype=np.int64)
    g = np.asarray(g, dtype=np.int64)
    n, m = f.shape[-1] - 1, g.shape[-1] - 1
    if n < 0 or m < 0:
        raise ValueError("both polynomials must be nonempty coefficient lists")
    size = n + m
    out = np.zeros(f.shape[:-1] + (size, size), dtype=np.int64)
    for i in range(m):
        out[..., i, i : i + n + 1] = f[..., ::-1]
    for i in range(n):
        out[..., m + i, i : i + m + 1] = g[..., ::-1]
    return out


def resultant_univariate(f: Poly, g: Poly, p: int) -> int:
    """Resultant of two univariate polys (declared degrees = lengths - 1)."""
    if not f or not g:
        return 0
    if len(f) == 1 and len(g) == 1:
        return 1
    return det_mod(sylvester(f, g), p)


def resultant_v(f: list[Poly], g: list[Poly], p: int) -> Poly:
    """Res_v of polys in v with F_p[u] coefficients, via evaluation.

    f, g are coefficient lists in v (index = power of v), entries are
    univariate polys in u.  Declared v-degrees are len-1 even when the
    leading coefficient polynomial vanishes at a sample point.  All the
    Sylvester matrices at the nodes u = 0..n-1 go through one
    determinant kernel call, then one interpolation on those nodes.
    """
    if not f or not g:
        raise ValueError("resultant of the zero polynomial")
    dv_f, dv_g = len(f) - 1, len(g) - 1
    if dv_f == 0 and dv_g == 0:
        return [1]
    max_f = max((len(c) - 1 for c in f if c), default=0)
    max_g = max((len(c) - 1 for c in g if c), default=0)
    bound = dv_g * max_f + dv_f * max_g
    if p <= bound:
        raise PrimeTooSmallError(
            f"prime too small for interpolation: a resultant of degree up to {bound} "
            f"needs p > {bound}"
        )
    n = _node_count(bound + 1, p)
    mats = sylvester(_eval_at_nodes(f, n, p), _eval_at_nodes(g, n, p))
    return pinterp(range(n), batch_det_mod(mats, p), p)
