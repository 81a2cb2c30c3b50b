"""Permutation-expansion oracles for the determinant map and its differential.

These compute det(Ax + By), its block minors and single columns of the
differential by expanding over all k! permutations in BinaryForm
arithmetic.  They share no code with the evaluation kernels of
hbn.determinantal and hbn.differential beyond the form arithmetic, which
is what makes them useful as cross-checks; they are far too slow for
anything else.
"""

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from hbn.determinantal import (
    BinaryFormCurve,
    MatrixPair,
    entry_form,
    forced_reducibility,
)
from hbn.exact.forms import BinaryForm
from hbn.splitting import HirzebruchClass


def _perm_sign(perm: tuple[int, ...]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _entry_forms(pair: MatrixPair) -> tuple[list[list[BinaryForm]], ...]:
    """A and B as nested lists of entry forms."""
    k = pair.k
    return tuple(
        [[entry_form(pair, mat, r, c) for c in range(k)] for r in range(k)] for mat in (0, 1)
    )


def det_xy(pair: MatrixPair, rows: list[int], cols: list[int]) -> list[BinaryForm]:
    """det of the submatrix of Ax + By on given rows/cols, graded by x-power.

    Returns [Q_0, ..., Q_n] with Q_i the coefficient of x^i y^(n-i).  All
    surviving permutation terms in slot i share one declared degree (the
    transversal degree sum is pairing-independent), so the sums are
    exact.  Empty slots get zero forms whose degrees follow from the
    nonempty ones, falling back to the grid when the block vanishes.
    """
    n = len(rows)
    if len(cols) != n:
        raise ValueError("block must be square")
    p = pair.p
    m = pair.grid.m
    A, B = _entry_forms(pair)
    slots: dict[int, BinaryForm] = {}
    for perm in permutations(range(n)):
        sign = _perm_sign(perm)
        acc: dict[int, BinaryForm] = {0: BinaryForm.constant(sign, p)}
        for step in range(n):
            r, c = rows[step], cols[perm[step]]
            fa, fb = A[r][c], B[r][c]
            nxt: dict[int, BinaryForm] = {}
            for i, q in acc.items():
                if not fb.is_zero():
                    _slot_add(nxt, i, q.mul(fb))
                if not fa.is_zero():
                    _slot_add(nxt, i + 1, q.mul(fa))
            acc = nxt
            if not acc:
                break
        for i, q in acc.items():
            _slot_add(slots, i, q)
    out = []
    anchor = next(iter(slots.items()), None)
    for i in range(n + 1):
        q = slots.get(i)
        if q is not None:
            out.append(q)
        elif anchor is not None:
            i0, q0 = anchor
            out.append(BinaryForm.zero(q0.degree + (i0 - i) * m, p))
        else:
            delta_sub = sum(pair.grid.a[r][c] for r, c in zip(rows, cols))
            out.append(BinaryForm.zero(delta_sub + (n - i) * m, p))
    return out


def _slot_add(d: dict, i: int, q) -> None:
    cur = d.get(i)
    d[i] = q if cur is None else cur.add(q)


def xy_mul(q1: list[BinaryForm], q2: list[BinaryForm]) -> list[BinaryForm]:
    """Product of two x-graded form vectors (convolution in the x power)."""
    n1, n2 = len(q1) - 1, len(q2) - 1
    out: list[BinaryForm] = []
    for i in range(n1 + n2 + 1):
        acc = None
        for i1 in range(max(0, i - n2), min(n1, i) + 1):
            term = q1[i1].mul(q2[i - i1])
            acc = term if acc is None else acc.add(term)
        out.append(acc)
    return out


def phi_by_permutations(pair: MatrixPair) -> BinaryFormCurve:
    """det(Ax + By) as a curve, from det_xy."""
    k = pair.k
    grid = pair.grid
    dets = det_xy(pair, list(range(k)), list(range(k)))
    cls = HirzebruchClass(m=grid.m, k=k, delta=grid.delta)
    fixed = []
    for i, form in enumerate(dets):
        want = grid.delta + (k - i) * grid.m
        if form.is_zero() and form.degree != want:
            form = BinaryForm.zero(want, pair.p)
        fixed.append(form)
    return BinaryFormCurve(cls=cls, P=tuple(fixed))


def reducibility_witness_by_permutations(pair: MatrixPair) -> bool:
    """The forced factorization of forced_reducibility, checked on det_xy
    forms slot by slot."""
    verdict = forced_reducibility(pair.grid)
    k = pair.k
    if verdict.verdict == "NONE":
        return False
    dets = det_xy(pair, list(range(k)), list(range(k)))
    if verdict.verdict == "DIVISIBLE_BY_Y":
        return dets[k].is_zero()
    i0 = min(verdict.block, key=lambda iv: iv[1])[0]
    top = det_xy(pair, list(range(i0)), list(range(k - i0, k)))
    bottom = det_xy(pair, list(range(i0, k)), list(range(k - i0)))
    sign = -1 if (i0 * (k - i0)) % 2 else 1
    prod = xy_mul(top, bottom)
    for i in range(k + 1):
        got = dets[i]
        expect = prod[i].scale(sign)
        if got.is_zero() and expect.is_zero():
            continue
        if got.is_zero() != expect.is_zero():
            return False
        if not got.add(expect.neg()).is_zero():
            return False
    return True


@dataclass(frozen=True)
class DualForm:
    """base + eps * epsilon_part with eps^2 = 0; both parts share a degree."""

    base: BinaryForm
    epsilon_part: BinaryForm

    def __post_init__(self):
        if self.base.degree != self.epsilon_part.degree:
            raise ValueError("dual parts must share a degree")
        if self.base.p != self.epsilon_part.p:
            raise ValueError("dual parts must share a field")

    @classmethod
    def lift(cls, base: BinaryForm) -> "DualForm":
        return cls(base, BinaryForm.zero(base.degree, base.p))

    def add(self, other: "DualForm") -> "DualForm":
        return DualForm(self.base.add(other.base), self.epsilon_part.add(other.epsilon_part))

    def mul(self, other: "DualForm") -> "DualForm":
        eps = self.base.mul(other.epsilon_part).add(self.epsilon_part.mul(other.base))
        return DualForm(self.base.mul(other.base), eps)


def dphi_column_dual(pair: MatrixPair, coord: tuple, include_p0: bool = False) -> np.ndarray:
    """One column of the differential: dual-number determinant with a single eps.

    Expands det((A + eps A')x + (B + eps B')y) by permutations with
    DualForm arithmetic, no cofactors anywhere, and reads off the eps
    part in the block layout of hbn.differential.dphi_matrix.
    """
    mname, r0, c0, jj = coord
    grid = pair.grid
    k = grid.k
    p = pair.p
    deg = (grid.a if mname == "A" else grid.b)[r0][c0]
    mono = BinaryForm.homogenize([0] * jj + [1], deg, p)
    blocks = range(0 if include_p0 else 1, k + 1)
    offsets = {}
    total = 0
    for blk in blocks:
        offsets[blk] = total
        total += grid.delta + (k - blk) * grid.m + 1
    vec = np.zeros(total, dtype=np.int64)
    A, B = _entry_forms(pair)
    slots: dict[int, DualForm] = {}
    for perm in permutations(range(k)):
        sign = _perm_sign(perm)
        acc = {0: DualForm.lift(BinaryForm.constant(sign, p))}
        for step in range(k):
            r, c = step, perm[step]
            fa = DualForm(
                A[r][c],
                mono if (mname, r, c) == ("A", r0, c0) else BinaryForm.zero(grid.a[r][c], p),
            )
            fb = DualForm(
                B[r][c],
                mono if (mname, r, c) == ("B", r0, c0) else BinaryForm.zero(grid.b[r][c], p),
            )
            nxt: dict[int, DualForm] = {}
            for i, q in acc.items():
                if not (fb.base.is_zero() and fb.epsilon_part.is_zero()):
                    _slot_add(nxt, i, q.mul(fb))
                if not (fa.base.is_zero() and fa.epsilon_part.is_zero()):
                    _slot_add(nxt, i + 1, q.mul(fa))
            acc = nxt
            if not acc:
                break
        for i, q in acc.items():
            _slot_add(slots, i, q)
    for i, q in slots.items():
        eps = q.epsilon_part
        if i not in offsets or eps.is_zero():
            continue
        for idx, coeff in enumerate(eps.coeffs):
            vec[offsets[i] + idx] = coeff
    return vec
