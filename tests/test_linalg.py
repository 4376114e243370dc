import random
from fractions import Fraction

import pytest

from conftest import leading_minors
from surfideals.linalg import SingularMatrix, determinant, is_negative_definite, solve


def test_minor_examples():
    assert leading_minors([[-2]]) == (-2,)
    assert leading_minors([[-2, 1], [1, -2]]) == (-2, 3)
    assert determinant([[-1, 2], [2, -1]]) == -3
    assert determinant([[0, 1], [1, 0]]) == -1


def test_negative_definite_examples():
    assert is_negative_definite([[-2]])
    assert is_negative_definite([[-2, 1], [1, -2]])
    assert not is_negative_definite([[-1, 2], [2, -1]])
    assert not is_negative_definite([[0]])
    assert not is_negative_definite([[2]])
    # nonsingular with a zero first leading minor: the elimination swaps rows
    assert not is_negative_definite([[0, 1], [1, 0]])


def test_solve_small_system():
    x = solve([[-2]], [Fraction(3)])
    assert x == [Fraction(-3, 2)]
    x = solve([[-2, 1], [1, -2]], [Fraction(1), Fraction(0)])
    assert x == [Fraction(-2, 3), Fraction(-1, 3)]


def test_solve_singular_raises():
    with pytest.raises(SingularMatrix):
        solve([[1, 1], [1, 1]], [Fraction(1), Fraction(0)])


def _naive_gauss(matrix, rhs):
    # straightforward fraction pivoting, used only as an oracle
    n = len(matrix)
    a = [[Fraction(matrix[i][j]) for j in range(n)] + [Fraction(rhs[i])] for i in range(n)]
    for k in range(n):
        piv = next(i for i in range(k, n) if a[i][k] != 0)
        a[k], a[piv] = a[piv], a[k]
        for i in range(n):
            if i != k and a[i][k] != 0:
                f = a[i][k] / a[k][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return [a[i][n] / a[i][i] for i in range(n)]


def test_solve_matches_naive_gauss_on_random_systems():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 6)
        m = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                m[j][i] = m[i][j]
            m[i][i] = -(sum(m[i]) - m[i][i] + rng.randint(1, 4))
        b = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
        assert solve(m, b) == _naive_gauss(m, b)
        assert is_negative_definite(m)


def test_solution_scales_linearly():
    m = [[-3, 1], [1, -2]]
    b = [Fraction(2), Fraction(-1)]
    x = solve(m, b)
    for t in (Fraction(2), Fraction(-7, 3), Fraction(1, 5)):
        assert solve(m, [t * bi for bi in b]) == [t * xi for xi in x]


def test_empty_system():
    assert solve([], []) == []
    assert determinant([]) == 1


def test_negative_definite_against_leading_minors():
    # one Bareiss pass against the Sylvester test on n separate minors, over
    # -B B^T (definite, or singular when B has fewer columns than rows) and
    # plain random symmetric matrices (mostly indefinite)
    rng = random.Random(29)
    seen = {"definite": 0, "singular": 0, "indefinite": 0}
    for _ in range(900):
        n = rng.randint(1, 7)
        kind = rng.choice(("gram", "gram", "random"))
        if kind == "gram":
            b = [[rng.randint(-2, 2) for _ in range(rng.randint(n - 1, n + 1))] for _ in range(n)]
            m = [[-sum(x * y for x, y in zip(bi, bj)) for bj in b] for bi in b]
        else:
            m = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    m[i][j] = m[j][i] = rng.randint(-3, 3)
        minors = leading_minors(m)
        expected = all(d != 0 and (d < 0) == (k % 2 == 0) for k, d in enumerate(minors))
        assert is_negative_definite(m) == expected, m
        if expected:
            seen["definite"] += 1
        elif determinant(m) == 0:
            seen["singular"] += 1
        else:
            seen["indefinite"] += 1
    assert min(seen.values()) >= 50, seen
