import random
from fractions import Fraction

import pytest

from conftest import dense, determinant, leading_minors
from surfideals.errors import NotNegativeDefinite
from surfideals.linalg import is_negative_definite, solve


def test_minor_examples():
    assert leading_minors([[-2]]) == (-2,)
    assert leading_minors([[-2, 1], [1, -2]]) == (-2, 3)
    assert determinant([[-1, 2], [2, -1]]) == -3
    assert determinant([[0, 1], [1, 0]]) == -1


def test_negative_definite_examples():
    assert is_negative_definite((-2,), ())
    assert is_negative_definite((-2, -2), ((0, 1, 1),))
    assert not is_negative_definite((-1, -1), ((0, 1, 2),))
    assert not is_negative_definite((0,), ())
    assert not is_negative_definite((2,), ())
    # nonsingular with a zero first leading minor: the first pivot is 0
    assert not is_negative_definite((0, 0), ((0, 1, 1),))
    # an edge of weight 0 is no edge
    assert is_negative_definite((-1, -1), ((1, 0, 0),))


def test_solve_small_system():
    x = solve((-2,), (), [Fraction(3)])
    assert x == [Fraction(-3, 2)]
    x = solve((-2, -2), ((0, 1, 1),), [Fraction(1), Fraction(0)])
    assert x == [Fraction(-2, 3), Fraction(-1, 3)]


def test_solve_singular_raises():
    # the elimination stops at the first pivot >= 0 before dividing by it,
    # so a singular (or indefinite) matrix is refused as not definite
    with pytest.raises(NotNegativeDefinite):
        solve((1, 1), ((0, 1, 1),), [Fraction(1), Fraction(0)])
    with pytest.raises(NotNegativeDefinite):
        solve((-1, -1), ((0, 1, 1),), [Fraction(1), Fraction(0)])


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


def _graph(matrix):
    """(diagonal, edges) of a symmetric matrix, each nonzero pair once, in
    either orientation, as a model file may list it."""
    n = len(matrix)
    diag = [matrix[i][i] for i in range(n)]
    edges = [(i, j, matrix[i][j]) for i in range(n) for j in range(i + 1, n) if matrix[i][j]]
    return diag, [(j, i, m) if (i + j) % 2 else (i, j, m) for i, j, m in edges]


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
        diag, edges = _graph(m)
        assert solve(diag, edges, b) == _naive_gauss(m, b)
        assert is_negative_definite(diag, edges)


def test_solution_scales_linearly():
    diag, edges = (-3, -2), ((0, 1, 1),)
    b = [Fraction(2), Fraction(-1)]
    x = solve(diag, edges, b)
    for t in (Fraction(2), Fraction(-7, 3), Fraction(1, 5)):
        assert solve(diag, edges, [t * bi for bi in b]) == [t * xi for xi in x]


def test_empty_system():
    assert solve((), (), []) == []
    assert is_negative_definite((), ())
    assert determinant([]) == 1


def _sylvester(matrix) -> bool:
    """Negative definite by the leading minors: they alternate in sign, starting negative."""
    return all(d != 0 and (d < 0) == (k % 2 == 0) for k, d in enumerate(leading_minors(matrix)))


def test_negative_definite_against_leading_minors():
    # the pivots of one elimination against the Sylvester test on n separate
    # minors, over -B B^T (definite, or singular when B has fewer columns than
    # rows) and plain random symmetric matrices (mostly indefinite)
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
        expected = _sylvester(m)
        assert is_negative_definite(*_graph(m)) == expected, m
        if expected:
            seen["definite"] += 1
        elif determinant(m) == 0:
            seen["singular"] += 1
        else:
            seen["indefinite"] += 1
    assert min(seen.values()) >= 50, seen


def _random_tree(rng, n):
    return [(rng.randrange(j), j, rng.randint(1, 2)) for j in range(1, n)]


@pytest.mark.parametrize("shape", ["tree", "tree plus a cycle", "dense"])
def test_graphs_against_the_dense_oracles(shape):
    # trees (no fill), trees with one extra edge (one cycle, so fill edges),
    # and dense graphs, with self-intersections from -1 to -5 so that some
    # are indefinite or singular: definiteness against the leading minors,
    # and every definite system against fraction Gaussian elimination
    rng = random.Random(shape)
    definite = 0
    for _ in range(300):
        n = rng.randint(1, 9)
        if shape == "dense":
            edges = [(i, j, rng.randint(0, 2)) for i in range(n) for j in range(i + 1, n)]
        else:
            edges = _random_tree(rng, n)
            if shape != "tree" and n >= 3:
                i, j = rng.sample(range(n), 2)
                if all({i, j} != {a, b} for a, b, _ in edges):
                    edges.append((i, j, 1))
        diag = [-rng.randint(1, 5) for _ in range(n)]
        matrix = dense(diag, edges)
        expected = _sylvester(matrix)
        assert is_negative_definite(diag, edges) == expected, (diag, edges)
        b = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
        if expected:
            definite += 1
            assert solve(diag, edges, b) == _naive_gauss(matrix, b), (diag, edges)
        else:
            with pytest.raises(NotNegativeDefinite):
                solve(diag, edges, b)
    assert 30 <= definite <= 270, definite


def test_a_long_chain_solves_exactly():
    # a 1,000-curve chain: its matrix has a million entries, its graph 999 edges
    n = 1000
    diag, edges = [-2] * n, [(i, i + 1, 1) for i in range(n - 1)]
    x = solve(diag, edges, [Fraction(0)] * (n - 1) + [Fraction(1)])
    # the last column of the inverse of the A_n matrix: -(i + 1) / (n + 1)
    assert x == [Fraction(-(i + 1), n + 1) for i in range(n)]
