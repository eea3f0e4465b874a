"""Time quadrature on a uniform partition.

Both rules integrate over [t_i, t_j] step by step, against the Lagrange
interpolant through the (at most four) samples nearest each step inside
[t_i, t_j], never below t_i; `_stencil` alone knows which samples.
`kernel_rule` (kernel level) integrates b H with b exact at 4-point
`gauss_panels` nodes; `exponential_rules` (function level) integrates
exp(-a (tau - t_i)) exactly against the interpolant.
"""
from __future__ import annotations

import functools
import math

import numpy as np


@functools.lru_cache(maxsize=None)
def _unit_gauss(n: int):
    """n-point Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def gauss_panels(edges: np.ndarray, n: int = 4):
    """Nodes and weights of n-point Gauss-Legendre on every interval of edges.

    Rows of a 2-D edges array are separate partitions.  Both results have
    the shape of edges with its last axis one shorter, plus an axis of n.
    """
    x, w = _unit_gauss(n)
    width = np.diff(edges)[..., None]
    return edges[..., :-1, None] + width * x, width * w


def _step_table(n: int, r: int) -> np.ndarray:
    """Lagrange weights on the samples t_0..t_n (n <= 3) at the Gauss nodes
    of step r; rows are nodes, columns samples, zero-padded to 4 x 4."""
    table = np.zeros((4, 4))
    for q, x in enumerate(_unit_gauss(4)[0]):
        for s in range(n + 1):
            table[q, s] = math.prod((r + x - m) / (s - m)
                                    for m in range(n + 1) if m != s)
    return table


# Every stencil of n <= 3 steps starts at t_0.  From three steps on, a step's
# stencil depends only on whether it is the first (samples t_i..t_{i+3}), an
# inner step k (t_{k-1}..t_{k+2}) or the last (t_{j-3}..t_j).
_STENCILS = ((1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2))
_TABLES = np.stack([_step_table(n, r) for n, r in _STENCILS])
_ALONE, _FIRST_OF_TWO, _LAST_OF_TWO, _FIRST, _INNER, _LAST = range(6)


def _stencil(n, r):
    """Table and first sample (in steps after t_i) of step r of [t_i, t_{i+n}]."""
    n, r = np.broadcast_arrays(n, r)
    table = np.select([n == 1, n == 2, r == 0, r == n - 1],
                      [_ALONE, _FIRST_OF_TWO + r, _FIRST, _LAST], _INNER)
    return table, np.clip(r - 1, 0, np.maximum(n - 3, 0))


def kernel_rule(b_at, times: np.ndarray, terminals) -> dict:
    """Weights of Int_{t_i}^{t_j} b_c(tau) H(tau) dtau for every i < j.

    b_at(tau) is the drift d-vector; times are the partition t_0..t_steps.
    Entry j, for each j of terminals, is W of shape (d, j, j + 1): the
    integral from t_i is sum_l W[c, i, l] H(t_l), with W[c, i, l] = 0 for
    l < i.  W takes O(d j^2) memory, every j O(d M^3): for b constant in
    time the weights depend on j - i alone, so j = M serves every pair.
    """
    tau, weight = gauss_panels(times)
    drift = np.array([[b_at(t) for t in row] for row in tau])
    d = drift.shape[2]
    # step k with each table: sum_q weight_q b_c(node q) table[q, s]
    step = np.einsum("kq,kqc,tqs->tkcs", weight, drift, _TABLES)
    rules = {}
    for j in terminals:
        i, k = np.triu_indices(j)          # step k of the interval from t_i
        table, start = _stencil(j - i, k - i)
        first = i + start
        W = np.zeros((d, j, j + 4))        # spare columns: short stencils
        for s in range(4):
            np.add.at(W, (slice(None), i, first + s), step[table, k, :, s].T)
        rules[j] = W[..., :j + 1]
    return rules


def _moments(z) -> np.ndarray:
    """Int_0^1 exp(-z x) x^k dx for k = 0..3, shape (4,) + z.shape."""
    small = np.abs(z) < 2.0
    zs, zl = np.where(small, z, 0.0), np.where(small, 1.0, z)
    mu = np.zeros((4,) + np.shape(z), np.result_type(z, float))
    # the power series where the recurrence below would cancel
    term = np.ones_like(zs)
    for m in range(30):
        for k in range(4):
            mu[k] += term / (k + m + 1)
        term = term * -zs / (m + 1)
    e, up = np.exp(-zl), (1.0 - np.exp(-zl)) / zl
    for k in range(4):
        mu[k] = np.where(small, mu[k], up)
        up = ((k + 1) * up - e) / zl
    return mu


def exponential_tables(z, dt: float) -> np.ndarray:
    """dt Int_0^1 exp(-z x) l_s(r + x) dx for every table of `_stencil`.

    z = a dt per mode, with Re z >= 0.  Shape (6, 4) + z.shape: the exact
    exponential step weights on the samples s of each table.
    """
    # l_s(r + x) = sum_k C[table, k, s] x^k: each table is a cubic in x at
    # most, fixed by its values at the four Gauss nodes
    C = np.linalg.solve(np.vander(_unit_gauss(4)[0], 4, increasing=True), _TABLES)
    return dt * np.einsum("tks,k...->ts...", C, _moments(z))


def exponential_rules(tables: np.ndarray, z, steps: int):
    """Yield W_n, n = 0 .. steps: Int_{t_i}^{t_{i+n}} exp(-a (tau - t_i)) f(tau) dtau
    is sum_l W_n[l] f(t_{i+l}), l = 0 .. n, with tables from
    `exponential_tables(z, dt)`.  One more step changes the stencils of few
    steps (from three steps on, only the old last one's), so each W_n
    updates the one before, looking at its last three steps alone.
    """
    n, r = np.tril_indices(steps + 1, -1)
    table, start = _stencil(n, r)
    decay = np.exp(-z * np.arange(steps).reshape((-1,) + (1,) * np.ndim(z)))
    W = np.zeros((steps + 4,) + tables.shape[2:], tables.dtype)
    placed = {}                        # step -> its (table, start) in W
    for m in range(steps + 1):
        lo = m * (m - 1) // 2          # the steps of [t_i, t_{i+m}] in n, r
        for step in range(max(0, m - 3), m):
            now = table[lo + step], start[lo + step]
            if placed.get(step) != now:
                if step in placed:     # the step changed its stencil
                    t, s0 = placed[step]
                    W[s0:s0 + 4] -= decay[step] * tables[t]
                t, s0 = placed[step] = now
                W[s0:s0 + 4] += decay[step] * tables[t]
        yield W[:m + 1].copy()
