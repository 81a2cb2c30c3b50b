"""Resultants in v of polynomials with F_p[u] coefficients, by evaluation.

A polynomial in v is a coefficient list (index = power of v) whose
entries are univariate polys in u.  Resultants are computed through the
Sylvester matrix with the *declared* degrees of the inputs:
specialization then commutes with the determinant, so
evaluation-interpolation stays valid even when leading coefficients
vanish at individual points.

`resultants_v` takes a whole batch of pairs in one pass (Collins'
evaluation-interpolation scheme, run on many pairs at once).  It groups
the pairs by Sylvester shape (len f, len g), and per group evaluates
every u-coefficient at the shared nodes u = 0..n-1 in one Horner pass
(`_eval_at_nodes` on the zero-padded coefficients), fills one Sylvester
stack, makes one `batch_det_mod` call and one `interp_nodes` call.  n is
the group's largest degree bound + 1, rounded up to a multiple of 8 and
capped at p, so a few interpolation tables per prime serve every group.
"""

from __future__ import annotations

import numpy as np

from hbn.exact.field import PrimeTooSmallError
from hbn.exact.linalg import batch_det_mod
from hbn.exact.poly import Poly, _eval_at_nodes, interp_nodes, ptrim

NODE_STEP = 8


def sylvester(f, g) -> np.ndarray:
    """Sylvester matrix using the declared degrees len(f)-1, len(g)-1.

    f and g may also be stacks of shape (..., len): the result is then the
    stack (..., size, size) of their Sylvester matrices, filled by slicing.
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


def resultant_bound(f: list[Poly], g: list[Poly]) -> int:
    """Degree bound in u of Res_v(f, g) from the declared v-degrees."""
    max_f = max((len(c) - 1 for c in f if c), default=0)
    max_g = max((len(c) - 1 for c in g if c), default=0)
    return (len(g) - 1) * max_f + (len(f) - 1) * max_g


def check_resultant_prime(f: list[Poly], g: list[Poly], p: int) -> None:
    bound = resultant_bound(f, g)
    if p <= bound:
        raise PrimeTooSmallError(
            f"prime too small for interpolation: a resultant of degree up to {bound} "
            f"needs p > {bound}"
        )


def resultants_v(pairs, p: int) -> list[Poly]:
    """Res_v(f, g) for every pair (f, g), in one batched pass.

    f, g are coefficient lists in v (index = power of v), entries are
    univariate polys in u.  Declared v-degrees are len-1 even when the
    leading coefficient polynomial vanishes at a node.  A pair whose
    degree bound is p or more raises PrimeTooSmallError before any work.
    """
    pairs = list(pairs)
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (f, g) in enumerate(pairs):
        if not f or not g:
            raise ValueError("resultant of the zero polynomial")
        check_resultant_prime(f, g, p)
        groups.setdefault((len(f), len(g)), []).append(i)
    out: list[Poly] = [[1] for _ in pairs]  # v-degrees (0, 0) keep [1]
    for (len_f, len_g), members in groups.items():
        if len_f == len_g == 1:
            continue
        bound = max(resultant_bound(*pairs[i]) for i in members)
        n = min(-(-(bound + 1) // NODE_STEP) * NODE_STEP, p)
        polys = [list(c) for i in members for side in pairs[i] for c in side]
        width = max(map(len, polys))
        coeffs = np.array([c + [0] * (width - len(c)) for c in polys], dtype=np.int64)
        vals = _eval_at_nodes(coeffs, n, p).reshape(n, len(members), len_f + len_g)
        size = len_f + len_g - 2
        # the stack goes in unnamed, so the kernel frees it once copied
        dets = batch_det_mod(
            sylvester(vals[..., :len_f], vals[..., len_f:]).reshape(-1, size, size), p
        )
        coef = interp_nodes(dets.reshape(n, len(members)), p)
        for j, i in enumerate(members):
            out[i] = ptrim(coef[:, j].tolist())
    return out
