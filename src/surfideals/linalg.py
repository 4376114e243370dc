"""Fraction-free exact linear algebra.

Bareiss elimination keeps every intermediate entry an integer (each
division is exact), so there are no pivot tolerances anywhere.  The
pivots it produces are the leading principal minors, which is exactly
the certificate needed for negative definiteness.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import DomainError


class SingularMatrix(DomainError):
    pass


def _bareiss_forward(rows: list[list[int]]) -> tuple[list[list[int]], int]:
    """Eliminate below the diagonal in place; returns (rows, swaps), the
    number of row swaps.  Works on an n x m matrix with m >= n."""
    n = len(rows)
    swaps = 0
    prev = 1
    for k in range(n):
        if rows[k][k] == 0:
            for i in range(k + 1, n):
                if rows[i][k] != 0:
                    rows[k], rows[i] = rows[i], rows[k]
                    swaps += 1
                    break
            else:
                raise SingularMatrix("zero pivot column in exact elimination")
        pivot = rows[k][k]
        for i in range(k + 1, n):
            head = rows[i][k]
            for j in range(k, len(rows[i])):
                num = pivot * rows[i][j] - head * rows[k][j]
                q, r = divmod(num, prev)
                assert r == 0, "Bareiss division must be exact"
                rows[i][j] = q
        prev = pivot
    return rows, swaps


def determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix."""
    n = len(matrix)
    if n == 0:
        return 1
    rows = [list(map(int, row)) for row in matrix]
    try:
        rows, swaps = _bareiss_forward(rows)
    except SingularMatrix:
        return 0
    return (-1) ** swaps * rows[n - 1][n - 1]


def is_negative_definite(matrix: Sequence[Sequence[int]]) -> bool:
    """Sylvester test: leading minors alternate in sign starting negative.
    Read off one Bareiss pass: with no row swap, pivot k is the k-th
    leading minor; a swap or a singular matrix means a zero leading
    minor, so the matrix is not definite."""
    try:
        rows, swaps = _bareiss_forward([list(map(int, row)) for row in matrix])
    except SingularMatrix:
        return False
    return swaps == 0 and all((row[k] < 0) == (k % 2 == 0) for k, row in enumerate(rows))


def solve(matrix: Sequence[Sequence[int]], rhs: Sequence[Fraction]) -> list[Fraction]:
    """Solve M x = b exactly for integer M and rational b.

    The right-hand side is scaled to integers, eliminated fraction-free,
    and back-substituted with exact fractions.
    """
    n = len(matrix)
    if n == 0:
        return []
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    if len(rhs) != n:
        raise ValueError("rhs length mismatch")
    scale = lcm(*(Fraction(b).denominator for b in rhs)) if rhs else 1
    rows = [list(map(int, row)) + [int(Fraction(b) * scale)] for row, b in zip(matrix, rhs)]
    rows, _ = _bareiss_forward(rows)
    x: list[Fraction] = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        s = Fraction(rows[i][n])
        for j in range(i + 1, n):
            s -= rows[i][j] * x[j]
        x[i] = s / rows[i][i]
    return [xi / scale for xi in x]
