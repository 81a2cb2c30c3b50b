"""Dense univariate polynomials over F_p, with factorization.

A polynomial is a python list of ints in [0, p), coefficient of t^i at
index i; the zero polynomial is [].  Leading zeros are trimmed.  Long
products go through numpy int64 convolution, which sums up to
min(len f, len g) unreduced products; `pmul` takes that path only when
the sum cannot reach 2^63 and falls back to a reduced Python loop
otherwise.  Evaluation at the nodes 0..n-1 and interpolation from them
are mirror images: `_eval_at_nodes` is one product of the coefficients
with a cached table of powers V[j, i] = i^j, and `interp_nodes`, along
the first axis of an array of values at the nodes, one product with an
inverse Vandermonde table built in closed form and cached per node
count.  Both split their int32 table into 16-bit halves, so every int64
sum is exact for p < 2^31.

Roots come from `irreducible_factors` (Cantor-Zassenhaus): the linear
factors give the F_p roots, and `quadratic_roots` the roots of a
quadratic one in F_p^2.

An element of the field F_p[u]/(q), q irreducible, is a polynomial
reduced mod q: `pmod` reduces, `pmul` then `pmod` multiplies and
`pinvmod` inverts, which is all `hbn.exact.poly2.gcd_mod` needs to run
Euclid over an extension of any degree.  F_p^2 elements appear only as
the pairs (a, b) = a + b*w, w^2 = nr, that `quadratic_roots` returns.
"""

from __future__ import annotations

import functools
import itertools
import random

import numpy as np

from hbn.exact.field import PrimeTooSmallError, inv_mod, sqrt_mod

Poly = list[int]


def ptrim(f: Poly) -> Poly:
    n = len(f)
    while n > 0 and f[n - 1] == 0:
        n -= 1
    return f[:n]


def pdeg(f: Poly) -> int:
    return len(f) - 1


def psub(f: Poly, g: Poly, p: int) -> Poly:
    out = f[:] + [0] * (len(g) - len(f))
    for i, c in enumerate(g):
        out[i] = (out[i] - c) % p
    return ptrim(out)


def pscale(f: Poly, c: int, p: int) -> Poly:
    c %= p
    if c == 0:
        return []
    return [a * c % p for a in f]


def pmul(f: Poly, g: Poly, p: int) -> Poly:
    if not f or not g:
        return []
    if len(f) + len(g) < 16 or min(len(f), len(g)) * (p - 1) ** 2 >= 2**63:
        out = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            if a:
                for j, b in enumerate(g):
                    out[i + j] = (out[i + j] + a * b) % p
        return ptrim(out)
    conv = np.convolve(np.asarray(f, dtype=np.int64), np.asarray(g, dtype=np.int64))
    return ptrim([int(c) for c in conv % p])


def pdivmod(f: Poly, g: Poly, p: int) -> tuple[Poly, Poly]:
    """Quotient and remainder of f by g; g must be nonzero."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = f[:]
    dg = pdeg(g)
    lead_inv = inv_mod(g[-1], p)
    q = [0] * max(0, len(f) - dg)
    for i in range(len(f) - 1, dg - 1, -1):
        c = f[i]
        if c == 0:
            continue
        c = c * lead_inv % p
        q[i - dg] = c
        for j, b in enumerate(g):
            f[i - dg + j] = (f[i - dg + j] - c * b) % p
    return ptrim(q), ptrim(f)


def pmod(f: Poly, g: Poly, p: int) -> Poly:
    return pdivmod(f, g, p)[1]


def pmonic(f: Poly, p: int) -> Poly:
    if not f or f[-1] == 1:
        return f[:]
    return pscale(f, inv_mod(f[-1], p), p)


def pinvmod(a: Poly, q: Poly, p: int) -> Poly:
    """Inverse of a mod q by extended Euclid, for a coprime to q (q
    irreducible and a != 0 mod q).  A Fermat power would need the
    exponent p^deg q - 2, far too large for the degrees here."""
    r0, r1 = q, pmod(a, q, p)
    if not r1:
        raise ZeroDivisionError("inverse of zero mod q")
    s0: Poly = []
    s1: Poly = [1]
    while r1:
        quo, rem = pdivmod(r0, r1, p)
        r0, r1 = r1, rem
        s0, s1 = s1, psub(s0, pmul(quo, s1, p), p)
    return pmod(pscale(s0, inv_mod(r0[-1], p), p), q, p)


def pgcd(f: Poly, g: Poly, p: int) -> Poly:
    """Monic gcd; gcd with the zero polynomial is the other argument."""
    while g:
        f, g = g, pmod(f, g, p)
    return pmonic(f, p)


def peval(f: Poly, x: int, p: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


def pderiv(f: Poly, p: int) -> Poly:
    return ptrim([i * c % p for i, c in enumerate(f)][1:])


# One interpolation table per node count and prime, one evaluation table
# (`_powers`) per node count, coefficient count and prime.  At p = 10007,
# 3,000 items of each benchmark workload read no interpolation table
# (dominance-desk), 16 (lemma-sut: n = 1..16, to build the staircase
# tables W of `hbn.determinantal._node_inverse`) or 29 (sample-certify:
# the same 16, and resultant_v's multiples of 8 up to 120), and 97, 121
# or 141 evaluation tables, which hold 8.4k, 9.1k and 35k int32 entries.
# 64 and 512 entries hold every table of a workload at two primes at once.
@functools.lru_cache(maxsize=64)
def _inverse_vandermonde(n: int, p: int) -> np.ndarray:
    """Inverse mod p of V[i, j] = i^j on the nodes 0..n-1, in closed form.

    Column i holds the coefficients of the Lagrange basis polynomial
    M(u) / ((u - i) M'(i)), where M(u) = (u - 0)(u - 1)...(u - (n-1)) and
    M'(i) = (-1)^(n-1-i) i! (n-1-i)!.  One synthetic division divides M
    by every (u - i) at once.
    """
    if n > p:
        raise ValueError("interpolation nodes must be distinct mod p")
    master = np.ones(1, dtype=np.int64)
    for j in range(n):
        master = np.convolve(master, [-j % p, 1]) % p
    inv = np.ones((n, n), dtype=np.int64)  # row t: coefficients of u^t
    for t in range(n - 1, 0, -1):
        inv[t - 1] = (master[t] + np.arange(n) * inv[t]) % p
    fact = list(itertools.accumulate(range(1, n), lambda a, i: a * i % p, initial=1))
    den = [inv_mod((-1) ** (n - 1 - i) * fact[i] * fact[n - 1 - i], p) for i in range(n)]
    inv = (inv * np.array(den, dtype=np.int64) % p).astype(np.int32)
    inv.flags.writeable = False
    return inv


def interp_nodes(vals: np.ndarray, p: int) -> np.ndarray:
    """Interpolate along the first axis of values in [0, p) taken at the
    nodes 0..n-1.

    Index j of that axis holds the values at node j on input and the
    coefficients of u^j on output; every other axis is a separate
    interpolant.  Two matrix products with the cached inverse Vandermonde
    table (int32, as p < 2^31), split into its high and low 16 bits: each
    product is below 2^47, so n <= 2^15 nodes keep every int64 sum exact.
    """
    n = vals.shape[0]
    if n > 1 << 15:
        raise ValueError(f"interpolation on {n} nodes exceeds 2^15")
    flat = vals.reshape(n, -1).astype(np.int64, copy=False)
    return _table_product(_inverse_vandermonde(n, p), flat, p).reshape(vals.shape)


def _table_product(table: np.ndarray, flat: np.ndarray, p: int) -> np.ndarray:
    """table @ flat mod p, in [0, p), for an int32 table and an int64
    matrix, both with entries in [0, p): two products, one per 16-bit half
    of the table, each exact in int64 while the inner size is <= 2^15."""
    out = ((table >> 16) @ flat % p << 16) + (table & 0xFFFF) @ flat
    return out % p


@functools.lru_cache(maxsize=512)
def _powers(n: int, length: int, p: int) -> np.ndarray:
    """V[j, i] = i^j mod p for the powers j < length and the nodes i < n."""
    table = np.ones((length, n), dtype=np.int64)
    nodes = np.arange(n, dtype=np.int64) % p
    for j in range(1, length):
        table[j] = table[j - 1] * nodes % p
    table = table.astype(np.int32)
    table.flags.writeable = False
    return table


def _eval_at_nodes(coeffs: np.ndarray, n: int, p: int) -> np.ndarray:
    """Polynomials at the nodes 0..n-1: the mirror of `interp_nodes`.

    coeffs is an int64 array (..., L) of values in [0, p), its trailing
    axis indexed by the power of the variable.  Returns shape (n, ...):
    index i of the first axis holds the values at node i.  Two matrix
    products with the cached power table, split into its high and low
    16 bits as in `interp_nodes`, so L <= 2^15 keeps every sum exact.
    """
    length = coeffs.shape[-1]
    if length > 1 << 15:
        raise ValueError(f"evaluation of {length} coefficients exceeds 2^15")
    table = _powers(n, length, p)
    flat = coeffs.reshape(-1, length)
    out = (flat @ (table >> 16) % p << 16) + flat @ (table & 0xFFFF)
    return np.moveaxis((out % p).reshape(coeffs.shape[:-1] + (n,)), -1, 0)


def ppowmod(base: Poly, e: int, mod: Poly, p: int) -> Poly:
    result: Poly = [1]
    base = pmod(base, mod, p)
    while e:
        if e & 1:
            result = pmod(pmul(result, base, p), mod, p)
        base = pmod(pmul(base, base, p), mod, p)
        e >>= 1
    return result


def squarefree_part(f: Poly, p: int) -> Poly:
    """f / gcd(f, f').  Valid since p always exceeds the degrees here."""
    if pdeg(f) < 1:
        return pmonic(f, p)
    g = pgcd(f, pderiv(f, p), p)
    return pmonic(pdivmod(f, g, p)[0], p)


def distinct_degree_factor(f: Poly, p: int) -> list[tuple[Poly, int]]:
    """Split monic squarefree f into (product of degree-d irreducibles, d)."""
    out = []
    h = [0, 1]
    v = pmonic(f, p)
    d = 0
    while pdeg(v) > 0:
        d += 1
        if 2 * d > pdeg(v):
            out.append((v, pdeg(v)))
            break
        h = ppowmod(h, p, v, p)
        g = pgcd(psub(h, [0, 1], p), v, p)
        if pdeg(g) > 0:
            out.append((g, d))
            v = pmonic(pdivmod(v, g, p)[0], p)
            h = pmod(h, v, p)
    return out


def _equal_degree_split(f: Poly, d: int, p: int, rng: random.Random) -> list[Poly]:
    # Cantor-Zassenhaus on a monic product of distinct degree-d irreducibles
    n = pdeg(f)
    if n == d:
        return [f]
    exponent = (p**d - 1) // 2
    while True:
        r = [rng.randrange(p) for _ in range(n)]
        r = ptrim(r)
        if pdeg(r) < 1:
            continue
        h = ppowmod(r, exponent, f, p)
        g = pgcd(psub(h, [1], p), f, p)
        if 0 < pdeg(g) < n:
            rest = pmonic(pdivmod(f, g, p)[0], p)
            return _equal_degree_split(g, d, p, rng) + _equal_degree_split(rest, d, p, rng)


def irreducible_factors(f: Poly, p: int) -> list[tuple[Poly, int]]:
    """Monic irreducible factors of f with multiplicities, sorted by degree.

    Requires p > deg f so the classical squarefree recursion applies.
    The Cantor-Zassenhaus draws come from a generator seeded here; the
    factors are unique and sorted, so the result does not depend on them.
    """
    f = ptrim(f)
    if pdeg(f) < 1:
        return []
    if p <= pdeg(f):
        raise PrimeTooSmallError(f"factoring a degree-{pdeg(f)} polynomial needs p > {pdeg(f)}")
    sf = squarefree_part(f, p)
    factors: list[Poly] = []
    rng = random.Random(0)
    for block, d in distinct_degree_factor(sf, p):
        factors.extend(_equal_degree_split(block, d, p, rng))
    out = []
    for q in sorted(factors, key=lambda h: (pdeg(h), h)):
        mult = 0
        while True:
            quo, rem = pdivmod(f, q, p)
            if rem:
                break
            f, mult = quo, mult + 1
        out.append((q, mult))
    return out


def quadratic_roots(f: Poly, p: int, nr: int) -> list[tuple[int, int]]:
    """Roots of a monic irreducible quadratic in F_p^2 = F_p[w]/(w^2 - nr)."""
    if pdeg(f) != 2:
        raise ValueError("expected a quadratic")
    b, c = f[1], f[0]
    disc = (b * b - 4 * c) % p
    # disc is a nonresidue, so disc/nr is a residue
    s = sqrt_mod(disc * inv_mod(nr, p) % p, p)
    assert s is not None, "quadratic was not irreducible"
    half = inv_mod(2, p)
    re = (-b) * half % p
    im = s * half % p
    return [(re, im), (re, (-im) % p)]
