"""Exact symmetric elimination on a weighted graph.

A symmetric integer matrix M is given as a graph: its diagonal and its
edges (i, j, m) with M[i][j] = M[j][i] = m, one per unordered pair; an
absent pair is 0.  `_eliminate` removes one vertex at a time, a vertex of
degree <= 1 whenever there is one, else one of least degree, and joins
the neighbours of each removed vertex by fill edges.  On a tree there is
always a leaf, so nothing is filled in (Parter, 1961) and a pass takes
O(n) exact steps; a graph with a cycle takes the same path through its
fill edges.

The pivots of a symmetric elimination, in any order, are the diagonal of
a matrix congruent to M (M = P L D L^T P^T).  By Sylvester's law of
inertia M is negative definite exactly when every pivot is negative, so
the pass that factors M also decides definiteness.  It stops at the first
pivot >= 0, before dividing by it; otherwise `substitute` solves M x = rhs
on its steps, for any rhs.  All arithmetic is in Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .errors import NotNegativeDefinite

Edge = tuple[int, int, int]


def _eliminate(diag: Sequence[int], edges: Sequence[Edge]) -> Optional[list[tuple[int, Fraction, dict]]]:
    """The steps (v, pivot, {u: M'[v][u]}) of the elimination, in order, with
    M' the matrix left when v is removed; None at the first pivot >= 0."""
    n = len(diag)
    d = list(map(Fraction, diag))
    adj: list[dict] = [{} for _ in range(n)]
    for i, j, m in edges:
        if m:
            adj[i][j] = adj[j][i] = m
    done = [False] * n
    low = [v for v in range(n) if len(adj[v]) <= 1]
    steps = []
    for _ in range(n):
        while low and done[low[-1]]:
            low.pop()
        v = low.pop() if low else min((u for u in range(n) if not done[u]), key=lambda u: len(adj[u]))
        pivot = d[v]
        if pivot >= 0:
            return None
        done[v] = True
        nbrs = list(adj[v].items())
        for k, (u, w) in enumerate(nbrs):
            row = adj[u]
            del row[v]
            f = w / pivot
            d[u] -= f * w
            for u2, w2 in nbrs[k + 1:]:  # each fill entry once, for both of its ends
                row[u2] = adj[u2][u] = row.get(u2, 0) - f * w2
        low += [u for u, _ in nbrs if len(adj[u]) <= 1]
        steps.append((v, pivot, adj[v]))
    return steps


def is_negative_definite(diag: Sequence[int], edges: Sequence[Edge]) -> bool:
    """Whether the graph's matrix is negative definite: every pivot < 0."""
    return _eliminate(diag, edges) is not None


def substitute(steps: Sequence[tuple[int, Fraction, dict]], rhs: Sequence[Fraction]) -> list[Fraction]:
    """The exact x with M x = rhs, given the steps of M's elimination: one
    forward pass over the steps, then one back pass in reverse order."""
    x = list(map(Fraction, rhs))
    for v, pivot, nbrs in steps:
        xv = x[v] / pivot
        for u, w in nbrs.items():
            x[u] -= w * xv
    for v, pivot, nbrs in reversed(steps):
        x[v] = (x[v] - sum(w * x[u] for u, w in nbrs.items())) / pivot
    return x


def solve(diag: Sequence[int], edges: Sequence[Edge], rhs: Sequence[Fraction]) -> list[Fraction]:
    """The exact x with M x = rhs, for M negative definite."""
    if len(rhs) != len(diag):
        raise ValueError("rhs length mismatch")
    steps = _eliminate(diag, edges)
    if steps is None:
        raise NotNegativeDefinite("intersection matrix is not negative definite")
    return substitute(steps, rhs)
