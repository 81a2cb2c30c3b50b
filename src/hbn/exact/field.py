"""Prime field arithmetic: primality, inverses, square roots, nonresidues.

All elements of F_p are plain python ints in [0, p).  No classes wrap
single field elements; hot loops stay on ints and numpy arrays.  An
element of F_p^2 = F_p[w]/(w^2 - nr), nr = `quadratic_nonresidue(p)`, is
the pair (a, b) = a + b*w that `hbn.exact.poly.quadratic_roots` returns;
larger extensions F_p[u]/(q) are polynomials reduced mod q
(`hbn.exact.poly` module doc).
"""

from __future__ import annotations

DEFAULT_PRIME = 10007
# the largest supported prime: the int64 kernels need every product of
# two reduced entries below 2^62 (see hbn.exact.linalg)
MAX_PRIME = 2**31 - 1


class PrimeTooSmallError(ValueError):
    """p does not exceed a degree bound that interpolation or
    factorization over F_p needs; the message names the bound."""


# small witnesses make Miller-Rabin deterministic below 3.3 * 10^24
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for the word-sized moduli used here."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> None:
    """Raise ValueError unless p is an odd prime <= MAX_PRIME; F_p^2 =
    F_p[w]/(w^2 - nonresidue) needs p odd.  The message leaves the name of
    p to the caller, as argparse prefixes "argument --p:" itself."""
    if not is_prime(p) or p == 2:
        raise ValueError(f"must be an odd prime, got {p}")
    if p > MAX_PRIME:
        raise ValueError(f"must be at most 2^31 - 1 = {MAX_PRIME}, got {p}")


def inv_mod(a: int, p: int) -> int:
    """Inverse of a mod p.  Raises ZeroDivisionError on a = 0 mod p."""
    a %= p
    if a == 0:
        raise ZeroDivisionError(f"inverse of 0 mod {p}")
    return pow(a, -1, p)


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) in {-1, 0, 1} for odd prime p."""
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1


def sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a mod p, or None if a is a non-residue.

    Tonelli-Shanks; p must be an odd prime.  Deterministic: the needed
    non-residue is found by scanning 2, 3, 4, ...
    """
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # write p - 1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = quadratic_nonresidue(p)
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def quadratic_nonresidue(p: int) -> int:
    """Smallest quadratic non-residue mod odd prime p."""
    for z in range(2, p):
        if legendre(z, p) == -1:
            return z
    raise ValueError(f"no nonresidue mod {p}")  # unreachable for p > 2
