"""Shared brute-force oracles, kept independent of the production code paths.

The production enumerator finds minimal module generators by a capped
sweep in pairing coordinates; the oracle here rakes a raw box of lattice
points and keeps the points that no other point of the box divides, so
the two only share the problem statement.  The test-ideal oracle closes a
box of monoid points under the twisted trace maps themselves, with no
corner formula and no stable-depth bound.  The determinant oracle is
dense Gaussian elimination over Fractions with row swaps, where the
production solver eliminates a sparse graph in its own order and never
forms a determinant.  The connectivity oracle searches the graph from its
first curve, where a model reads its components off its elimination.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from surfideals.toric import LEFT, RIGHT, ToricSurfaceModel, dot


def dense(diag, edges) -> list[list[int]]:
    """The symmetric matrix of a graph: `diag` on the diagonal and m at
    (i, j) and (j, i) for each edge (i, j, m)."""
    matrix = [[0] * len(diag) for _ in diag]
    for i, d in enumerate(diag):
        matrix[i][i] = d
    for i, j, m in edges:
        matrix[i][j] = matrix[j][i] = m
    return matrix


def determinant(matrix) -> int:
    """Exact determinant of a square integer matrix: Gaussian elimination
    over Fractions, swapping in a later row (and flipping the sign) at a
    zero pivot, and 0 when a column has no pivot left."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for k in range(len(rows)):
        pivot = next((i for i in range(k, len(rows)) if rows[i][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        det *= rows[k][k]
        for i in range(k + 1, len(rows)):
            f = rows[i][k] / rows[k][k]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
    return int(det)


def leading_minors(matrix) -> tuple[int, ...]:
    """Determinants of the leading principal k x k submatrices, k=1..n: the
    Sylvester oracle for `is_negative_definite`, one determinant per minor."""
    return tuple(determinant([row[: k + 1] for row in matrix[: k + 1]]) for k in range(len(matrix)))


def reached_from_first(n: int, edges) -> set[int]:
    """The vertices a search from vertex 0 reaches over the edges (i, j, m)
    with m != 0, for a graph on n vertices."""
    adjacent = [[] for _ in range(n)]
    for i, j, m in edges:
        if m:
            adjacent[i].append(j)
            adjacent[j].append(i)
    reached, todo = set(), [0][:n]
    while todo:
        if (v := todo.pop()) not in reached:
            reached.add(v)
            todo += adjacent[v]
    return reached


def _undivided(pairs: dict) -> list:
    """The values of `pairs` whose key (s, t) has no other key below it in
    both coordinates.  Sorted by (s, t), a key has one below it iff an
    earlier key has t at most its own."""
    kept, least_t = [], math.inf
    for s, t in sorted(pairs):
        if t < least_t:
            kept.append(pairs[(s, t)])
        least_t = min(least_t, t)
    return kept


def brute_module_gens(model: ToricSurfaceModel, bounds: dict[str, int]) -> list[tuple[int, int]]:
    """Minimal generators of {u : <u, v_name> >= bounds[name]} by raw search.

    The box is raked row by row: on the row of u1 each bound, and the cap
    on both boundary pairings, keeps a half-line of u2.
    """
    rays = {label.name: vec for label, vec in model.rays()}
    cap = (max(abs(c) for c in bounds.values()) + 3) * (model.r + 2) + 6
    box = 3 * cap
    vl, vr = model.v_left, model.v_right
    # <u, v> >= c for each bound, and <u, -v> >= -cap on both boundary rays
    half_planes = [(rays[name], c) for name, c in bounds.items()] + [((-v[0], -v[1]), -cap) for v in (vl, vr)]
    pts = {}
    for u1 in range(-box, box + 1):
        lo, hi = -box, box
        for (v0, v1), c in half_planes:
            rest = c - v0 * u1  # the row needs v1 * u2 >= rest
            if v1 > 0:
                lo = max(lo, -(-rest // v1))
            elif v1 < 0:
                hi = min(hi, rest // v1)
            elif rest > 0:
                hi = lo - 1
        for u2 in range(lo, hi + 1):
            u = (u1, u2)
            pts[(dot(u, vl), dot(u, vr))] = u
    return sorted(_undivided(pts))


def brute_ideal_points(model: ToricSurfaceModel, gens, box: int = 20) -> set[tuple[int, int]]:
    """All monomials of the ideal generated by `gens` within a pairing box."""
    vl, vr = model.v_left, model.v_right
    pts = set()
    for u1 in range(-box, box + 1):
        for u2 in range(-box, box + 1):
            u = (u1, u2)
            for g in gens:
                if dot(u, vl) >= dot(g, vl) and dot(u, vr) >= dot(g, vr):
                    pts.add(u)
                    break
    return pts


@lru_cache(maxsize=None)
def _brute_twists_reduced(model: ToricSurfaceModel, j: int) -> tuple[tuple[int, int], ...]:
    return tuple(brute_module_gens(model, {LEFT: 0, RIGHT: j}))


def brute_twist_gens(model: ToricSurfaceModel, b_left: int, b_right: int) -> list[tuple[int, int]]:
    """Generators of {c : <c, v_left> >= b_left, <c, v_right> >= b_right}.

    The box of `brute_module_gens` grows with the bounds, so it is called
    at the bounds reduced by a lattice point m (c -> c - m maps the module
    onto the one at the bounds b - <m, v>) and its answer is shifted back.
    Every model has v_left = (0, 1) and v_right = (r, -a), so m = (k, b_left)
    with k = floor((b_right + a b_left) / r) leaves the bounds (0, j) with
    0 <= j < r.
    """
    assert model.v_left == (0, 1) and model.v_right[0] == model.r
    k = (b_right - model.v_right[1] * b_left) // model.r
    m = (k, b_left)
    j = b_right - dot(m, model.v_right)
    return [(c[0] + m[0], c[1] + m[1]) for c in _brute_twists_reduced(model, j)]


def brute_test_ideal(model: ToricSurfaceModel, p: int, wl: Fraction, wr: Fraction, box: int) -> set[tuple[int, int]]:
    """The monomials of tau(X, W) with both pairings <= `box`, W = wl BL + wr BR.

    Start from the box points u with <u, v> >= ceil(w_v) on both rays (they
    lie in every nonzero trace-closed ideal: the lemma of
    `frobenius._seed`).  Add a box point w whenever w, or q w - c for a
    generator c of the depth-e twist module (bounds
    b_v(e) = (1 - q) + ceil((q - 1) w_v), q = p^e), is divided by a point
    already found.  The depths run up to the least e with
    p^e >= den (box + 2) + num over both coefficients num/den, past which no
    image of a box point changes.  Stop when a pass adds nothing.

    Only points reachable through the box are found, so the box must hold
    every generator of every ideal on the way; the caller picks it large
    enough.
    """
    vl, vr = model.v_left, model.v_right
    depth_cap = max(w.denominator * (box + 2) + w.numerator for w in (wl, wr))
    maps = {1: [(0, 0)]}  # q = 1, c = 0: the ideal is closed under multiples
    e = 0
    while p**e < depth_cap:
        e += 1
        q = p**e
        bounds = [(1 - q) + math.ceil((q - 1) * w) for w in (wl, wr)]
        maps[q] = [(dot(c, vl), dot(c, vr)) for c in brute_twist_gens(model, *bounds)]
    points = {}
    for u in ((u1, u2) for u1 in range(-box, box + 1) for u2 in range(-box, box + 1)):
        s, t = dot(u, vl), dot(u, vr)
        if 0 <= s <= box and 0 <= t <= box:
            points[(s, t)] = u
    found = {(s, t) for s, t in points if s >= math.ceil(wl) and t >= math.ceil(wr)}
    while True:
        gens = _undivided({pair: pair for pair in found})
        added = {
            (s, t)
            for s, t in points.keys() - found
            if any(
                q * s - cl - gl >= 0 and q * t - cr - gr >= 0
                for q, twists in maps.items()
                for cl, cr in twists
                for gl, gr in gens
            )
        }
        if not added:
            return {points[pair] for pair in found}
        found |= added
