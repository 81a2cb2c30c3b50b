"""Exact linear algebra mod p on numpy int64 matrices.

Inputs are reduced into [0, p).  All pivoting is exact.  Every kernel
here assumes p <= MAX_PRIME = 2^31 - 1 (`hbn.exact.field`), which the
CLI and the sweep scripts enforce: a product of two reduced entries is
then below 2^62.  Where unreduced products are summed, a bound on the
entries (below) keeps int64 arithmetic from overflowing between
reductions.

Ranks have one engine, `matrix_rank`, a Gaussian elimination that
walks the rows of the shorter side, one pivot per row that does not
reduce to zero, and keeps no pivot rows or columns, only their count.
It reduces mod p only the values it reads.  Invariant: every entry of
the rows not yet walked has absolute value at most `bound`, a Python
int.  A pivot step reduces the pivot row and the multipliers into
[0, p) and subtracts their outer product unreduced, adding at most
(p - 1)^2 to `bound`; the rows are reduced first whenever
`bound + (p - 1)^2` would reach 2^62.  At p = 10007 that would take
over 10^10 pivots; at p = 2^31 - 1 it happens before every update but
the first.

Determinants have one engine, `batch_det_mod`: it row-reduces a whole
stack at once, with the stack's axis last, (r, r, n), so every numpy
operation runs along n contiguous entries.  Each matrix picks its own
pivot row (the first nonzero entry at or below the diagonal).  Column c
reduces only the pivot column and the pivot row; the trailing block
takes the outer product of multipliers and pivot row unreduced, under
`matrix_rank`'s bound rule.  For p <= 2^16 the multipliers are
a_ic * piv^-1, read from a table of all inverses mod p (int32, 40 KB at
p = 10007) that one `_pow_vec` builds once per prime.  The build costs
13 ms at 2^16 but 0.35 s at 2^20 (2-vCPU Xeon), which would double a
single `hbn sample` call, so above 2^16 elimination stays division
free: the block is reduced, scaled by piv and the pivot row times a_ic
subtracted, and the only inverse is one vectorised Fermat power at the
end.
"""

from __future__ import annotations

import functools

import numpy as np

from hbn.exact.field import inv_mod

_LAZY_LIMIT = 1 << 62  # matrix_rank and batch_det_mod keep |entries| below this
_TABLE_LIMIT = 1 << 16  # batch_det_mod reads an inverse table up to this p


def matrix_rank(mat, p: int) -> int:
    """Rank over F_p by Gaussian elimination on rows, reducing lazily
    (module doc).

    A tall matrix is transposed first, so the loop walks the shorter
    side.  Row i reduces into [0, p) and pivots on its largest entry, in
    column c; every row below it then subtracts the multiple that zeroes
    its column c mod p.  A row that reduces to zero lies in the span of
    the pivot rows above it.
    """
    a = np.asarray(mat, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError("expected a 2d matrix")
    a = np.remainder(a.T if a.shape[0] > a.shape[1] else a, p, order="C")
    step = (p - 1) ** 2
    bound = p - 1
    rank = 0
    for i in range(len(a)):
        row = a[i] % p
        c = int(row.argmax())
        piv = int(row[c])
        if not piv:
            continue
        rank += 1
        below = a[i + 1 :]
        if bound + step >= _LAZY_LIMIT:
            below %= p
            bound = p - 1
        below -= (below[:, c] % p * inv_mod(piv, p) % p)[:, None] * row
        bound += step
    return rank


def _pow_vec(x: np.ndarray, e: int, p: int) -> np.ndarray:
    """Elementwise x^e mod p by square and multiply over the whole vector."""
    out = np.ones_like(x)
    base = x % p
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


@functools.lru_cache(maxsize=4)
def _inverses(p: int) -> np.ndarray:
    """x^-1 mod p at index x = 0..p-1 (0 at index 0), as int32."""
    table = _pow_vec(np.arange(p, dtype=np.int64), p - 2, p).astype(np.int32)
    table.flags.writeable = False
    return table


def batch_det_mod(mats, p: int) -> np.ndarray:
    """Determinants of a stack of square matrices (n_mats, r, r) mod p.

    The stack is copied reduced into an (r, r, n_mats) array.  Column c
    swaps each matrix's first nonzero row at or below c into place
    (negating the sign), and the determinant picks up the pivot.  Every
    lower row R then becomes R - l * (pivot row), with l = a_ic * piv^-1
    from the inverse table for p <= 2^16 (module doc); a zero pivot has
    inverse 0 there, so its matrix is left as it is and its determinant
    is 0.  Above 2^16, R becomes piv * R - a_ic * (pivot row), which
    scales the determinant by piv^(r-1-c); that is divided out once at
    the end, the divisor being the running product of the prefix
    products piv_0 * ... * piv_c.
    """
    a = np.asarray(mats, dtype=np.int64)
    del mats  # a stack the caller built in the call is freed below
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError("expected a stack of square matrices")
    n, r, _ = a.shape
    b = np.empty((r, r, n), dtype=np.int64)
    np.remainder(a.transpose(1, 2, 0), p, out=b)
    del a
    inverses = _inverses(p) if p <= _TABLE_LIMIT else None
    step = (p - 1) ** 2
    bound = p - 1
    det = np.ones(n, dtype=np.int64)
    den = np.ones(n, dtype=np.int64)
    pre = np.ones(n, dtype=np.int64)
    for c in range(r):
        col = b[c:, c] % p
        if not col[0].all():
            lead = np.argmax(col != 0, axis=0)
            swap = np.flatnonzero(lead)
            lead = lead[swap]
            rows = c + lead
            top = b[c, c + 1 :, swap]
            b[c, c + 1 :, swap] = b[rows, c + 1 :, swap]
            b[rows, c + 1 :, swap] = top
            col[0, swap] = col[lead, swap]
            col[lead, swap] = 0
            det[swap] = -det[swap]
        piv = col[0]
        det = det * piv % p
        if c + 1 == r:
            break
        prow = b[c, c + 1 :] % p
        block = b[c + 1 :, c + 1 :]
        if inverses is None:
            block %= p
            block *= piv
            mult = col[1:]
            pre = pre * piv % p
            den = den * pre % p
        else:
            if bound + step >= _LAZY_LIMIT:
                block %= p
                bound = p - 1
            bound += step
            mult = col[1:] * inverses[piv] % p
        block -= mult[:, None] * prow
    if inverses is None:
        det = det * _pow_vec(den, p - 2, p) % p
    return det
