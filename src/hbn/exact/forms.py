"""Homogeneous binary forms over F_p.

A BinaryForm of degree d is sum(c_i * s^(d-i) * t^i).  A declared degree
with empty coefficients is the ZeroForm of that degree: it absorbs in
products and appears wherever degree bookkeeping forces an entry of a
matrix to vanish (negative degree slots).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from hbn.exact.poly import Poly, padd, peval, pmul, ptrim


@dataclass(frozen=True)
class BinaryForm:
    """Homogeneous form of declared degree in (s, t) over F_p.

    Attributes:
        degree: declared degree; may be negative only for the ZeroForm.
        coeffs: tuple (c_0, ..., c_d) for Σ c_i s^(d-i) t^i, or () for a
            ZeroForm of any declared degree.
        p: field characteristic.
    """

    degree: int
    coeffs: tuple[int, ...]
    p: int

    def __post_init__(self):
        if self.coeffs:
            if self.degree < 0 or len(self.coeffs) != self.degree + 1:
                raise ValueError("coefficient count must be degree + 1")
            object.__setattr__(self, "coeffs", tuple(c % self.p for c in self.coeffs))
            if not any(self.coeffs):
                object.__setattr__(self, "coeffs", ())

    @classmethod
    def zero(cls, degree: int, p: int) -> "BinaryForm":
        return cls(degree, (), p)

    @classmethod
    def constant(cls, c: int, p: int) -> "BinaryForm":
        return cls(0, (c % p,), p) if c % p else cls.zero(0, p)

    @classmethod
    def random(cls, degree: int, p: int, rng: random.Random) -> "BinaryForm":
        if degree < 0:
            return cls.zero(degree, p)
        return cls(degree, tuple(rng.randrange(p) for _ in range(degree + 1)), p)

    def is_zero(self) -> bool:
        return not self.coeffs

    def add(self, other: "BinaryForm") -> "BinaryForm":
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch {self.degree} vs {other.degree}")
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        out = padd(list(self.coeffs), list(other.coeffs), self.p)
        out = out + [0] * (self.degree + 1 - len(out))
        return BinaryForm(self.degree, tuple(out), self.p)

    def neg(self) -> "BinaryForm":
        return self.scale(-1)

    def scale(self, c: int) -> "BinaryForm":
        c %= self.p
        if c == 0 or self.is_zero():
            return BinaryForm.zero(self.degree, self.p)
        return BinaryForm(self.degree, tuple(a * c % self.p for a in self.coeffs), self.p)

    def mul(self, other: "BinaryForm") -> "BinaryForm":
        d = self.degree + other.degree
        if self.is_zero() or other.is_zero():
            return BinaryForm.zero(d, self.p)
        out = pmul(list(self.coeffs), list(other.coeffs), self.p)
        out = out + [0] * (d + 1 - len(out))
        return BinaryForm(d, tuple(out), self.p)

    def eval(self, s0: int, t0: int) -> int:
        """Evaluate at a point of the projective line given in coordinates."""
        if self.is_zero():
            return 0
        acc = 0
        p = self.p
        for i, c in enumerate(self.coeffs):
            acc = (acc + c * pow(s0, self.degree - i, p) * pow(t0, i, p)) % p
        return acc

    def dehomogenize_s(self) -> Poly:
        """Set s = 1: univariate poly in t, index = power of t."""
        return ptrim(list(self.coeffs))

    def dehomogenize_t(self) -> Poly:
        """Set t = 1: univariate poly in s, index = power of s."""
        return ptrim(list(reversed(self.coeffs)))

    @classmethod
    def homogenize(cls, f: Poly, degree: int, p: int) -> "BinaryForm":
        """Pad a univariate poly in t up to the declared degree."""
        f = ptrim(list(f))
        if not f:
            return cls.zero(degree, p)
        if len(f) - 1 > degree:
            raise ValueError("polynomial degree exceeds declared degree")
        return cls(degree, tuple(f + [0] * (degree + 1 - len(f))), p)
