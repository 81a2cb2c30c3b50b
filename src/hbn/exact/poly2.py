"""Polynomials in v with F_p[u] coefficients: resultants by evaluation,
and gcds over a root of an irreducible q(u).

A polynomial in v is a coefficient list (index = power of v) whose
entries are univariate polys in u.  Resultants are computed through the
Sylvester matrix with the *declared* degrees of the inputs:
specialization then commutes with the determinant, so
evaluation-interpolation stays valid even when leading coefficients
vanish at individual points.

`resultant_v` is Collins' evaluation-interpolation scheme: one Horner
pass evaluates every u-coefficient of the pair at the nodes u = 0..n-1
(`_eval_at_nodes` on the zero-padded coefficients), one `batch_det_mod`
call takes the stack of n Sylvester matrices and one `interp_nodes` call
recovers the coefficients.  n is the degree bound + 1, rounded up to a
multiple of 8 and capped at p, so a few interpolation tables per prime
serve every pair.

`restrict` sends u to a root alpha of a monic irreducible q by reducing
each entry mod q, which makes the same list a polynomial over
F_p(alpha) = F_p[u]/(q), whatever the degree of q.  `gcd_mod` runs
Euclid on such lists: entries multiply by `pmul` then `pmod`, and the
leading coefficient of each divisor inverts by `pinvmod`.
"""

from __future__ import annotations

import numpy as np

from hbn.exact.field import PrimeTooSmallError
from hbn.exact.linalg import batch_det_mod
from hbn.exact.poly import Poly, _eval_at_nodes, interp_nodes, pinvmod, pmod, pmul, psub, ptrim

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


def resultant_v(f: list[Poly], g: list[Poly], p: int) -> Poly:
    """Res_v(f, g) by evaluation at the nodes u = 0..n-1 and interpolation.

    f, g are coefficient lists in v (index = power of v), entries are
    univariate polys in u.  Declared v-degrees are len-1 even when the
    leading coefficient polynomial vanishes at a node.  A pair whose
    degree bound is p or more raises PrimeTooSmallError before any work.
    """
    if not f or not g:
        raise ValueError("resultant of the zero polynomial")
    # degree bound in u from the declared v-degrees
    max_f = max((len(c) - 1 for c in f if c), default=0)
    max_g = max((len(c) - 1 for c in g if c), default=0)
    bound = (len(g) - 1) * max_f + (len(f) - 1) * max_g
    if p <= bound:
        raise PrimeTooSmallError(
            f"prime too small for interpolation: a resultant of degree up to {bound} "
            f"needs p > {bound}"
        )
    if len(f) == len(g) == 1:
        return [1]
    n = min(-(-(bound + 1) // NODE_STEP) * NODE_STEP, p)
    polys = [list(c) for c in (*f, *g)]
    width = max(map(len, polys))
    coeffs = np.array([c + [0] * (width - len(c)) for c in polys], dtype=np.int64)
    vals = _eval_at_nodes(coeffs, n, p)
    dets = batch_det_mod(sylvester(vals[:, : len(f)], vals[:, len(f) :]), p)
    return ptrim(interp_nodes(dets, p).tolist())


def restrict(fv: list[Poly], q: Poly, p: int) -> list[Poly]:
    """fv with each u-coefficient reduced mod q, zero top v-coefficients
    dropped: fv over the root of q, as a list of entries of F_p[u]/(q)."""
    out = [pmod(c, q, p) for c in fv]
    while out and not out[-1]:
        out.pop()
    return out


def gcd_mod(fvs: list[list[Poly]], q: Poly, p: int) -> list[Poly]:
    """Monic gcd in (F_p[u]/(q))[v] of the polynomials fvs, q monic
    irreducible; [] when every one restricts to zero."""
    g: list[Poly] = []
    for f in fvs:
        f = restrict(f, q, p)
        while f:
            # g := g mod f, cancelling g's top v-coefficient each step
            inv = pinvmod(f[-1], q, p)
            while len(g) >= len(f):
                c, shift = pmod(pmul(g[-1], inv, p), q, p), len(g) - len(f)
                g = restrict(g[:shift] + [psub(a, pmul(c, b, p), p) for a, b in zip(g[shift:], f)], q, p)
            g, f = f, g
    inv = pinvmod(g[-1], q, p) if g else []
    return restrict([pmul(c, inv, p) for c in g], q, p)
