"""Time quadrature on a uniform partition.

`kernel_rule` alone knows the kernel-level rule for Int_{t_i}^{t_j} b H:
4-point `gauss_panels` nodes on every step, b exact at the nodes, and H
interpolated by `lagrange_weights` through the (at most four) samples
nearest each node inside [t_i, t_j], never below t_i.  The function-level
solver shares `lagrange_weights`; the closed-form oracle and the scaling
fit share `gauss_panels`.
"""
from __future__ import annotations

import functools

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


def lagrange_weights(taus, tau, order: int = 4):
    """Local Lagrange interpolation at tau through samples at the times taus.

    Returns (k0, w): the interpolant is sum_ii w[ii] f(taus[k0 + ii]) over
    the min(order, len(taus)) samples nearest tau.
    """
    p = min(order, len(taus))
    k = int(np.searchsorted(taus, tau)) - 1
    k0 = min(max(k - (p - 1) // 2, 0), len(taus) - p)
    ts = taus[k0:k0 + p]
    w = [1.0] * p
    for ii in range(p):
        for jj in range(p):
            if ii != jj:
                w[ii] *= (tau - ts[jj]) / (ts[ii] - ts[jj])
    return k0, w


def _step_table(n: int, r: int) -> np.ndarray:
    """Weights at the Gauss nodes of step r of n, for the samples t_0..t_3."""
    table = np.zeros((4, 4))
    for q, x in enumerate(_unit_gauss(4)[0]):
        _, w = lagrange_weights(np.arange(n + 1.0), r + x)
        table[q, :len(w)] = w
    return table


# Every stencil of n <= 3 steps starts at t_0.  From three steps on, a step's
# stencil depends only on whether it is the first (samples t_i..t_{i+3}), an
# inner step k (t_{k-1}..t_{k+2}) or the last (t_{j-3}..t_j).
_TABLES = np.stack([_step_table(n, r) for n, r in
                    ((1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2))])
_ALONE, _FIRST_OF_TWO, _LAST_OF_TWO, _FIRST, _INNER, _LAST = range(6)


def kernel_rule(b_at, times: np.ndarray) -> list:
    """Weights of Int_{t_i}^{t_j} b_c(tau) H(tau) dtau for every i < j.

    b_at(tau) is the drift d-vector; times are the partition t_0..t_steps.
    Entry j of the returned list is W of shape (d, j, j + 1): the integral
    from t_i is sum_l W[c, i, l] H(t_l), with W[c, i, l] = 0 for l < i.
    Building W takes O(j^2) memory.
    """
    tau, weight = gauss_panels(times)
    drift = np.array([[b_at(t) for t in row] for row in tau])
    steps, _, d = drift.shape
    # step k with each table: sum_q weight_q b_c(node q) table[q, s]
    step = np.einsum("kq,kqc,tqs->tkcs", weight, drift, _TABLES)
    rules = [np.zeros((d, 0, 1))]
    for j in range(1, steps + 1):
        i, k = np.triu_indices(j)          # step k of the interval from t_i
        n, r = j - i, k - i
        table = np.select([n == 1, n == 2, r == 0, r == n - 1],
                          [_ALONE, _FIRST_OF_TWO + r, _FIRST, _LAST], _INNER)
        first = i + np.clip(r - 1, 0, np.maximum(n - 3, 0))  # stencil start
        W = np.zeros((d, j, j + 4))        # spare columns: short stencils
        for s in range(4):
            np.add.at(W, (slice(None), i, first + s), step[table, k, :, s].T)
        rules.append(W[..., :j + 1])
    return rules
