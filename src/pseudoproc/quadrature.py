"""Time quadrature on a uniform partition.

Both rules integrate over [t_i, t_j] step by step, against the Lagrange
interpolant through the (at most four) samples nearest each step inside
[t_i, t_j], never below t_i; `_stencil` alone knows which samples.
`kernel_rule` (kernel level) weighs b H on each step with b exact at
4-point `gauss_panels` nodes; `exponential_tables` (function level)
integrates exp(-a (tau - t_i)) exactly against the interpolant.  From four
steps on, an integral from t_i is the one from t_{i+1}, carried, plus five
local `carry_weights`; `interval_rule` sums the shorter intervals.
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


@functools.lru_cache(maxsize=None)
def _stencil(n: int) -> tuple:
    """(table, first sample in steps after t_i) of each step of [t_i, t_{i+n}]."""
    tables = ([[], [_ALONE], [_FIRST_OF_TWO, _LAST_OF_TWO]][n] if n <= 2
              else [_FIRST] + [_INNER] * (n - 2) + [_LAST])
    return tuple(zip(tables, (min(max(r - 1, 0), max(n - 3, 0)) for r in range(n))))


def kernel_rule(b_at, times: np.ndarray) -> np.ndarray:
    """Every step's weights for Int b_c(tau) H(tau) dtau with every table:
    entry [table, s, k, c] weighs H at sample s of the table's stencil on
    step k of the partition times; b_at(tau) is the drift d-vector."""
    tau, weight = gauss_panels(times)
    drift = np.array([[b_at(t) for t in row] for row in tau])
    # step k with each table: sum_q weight_q b_c(node q) table[q, s]
    return np.einsum("kq,kqc,tqs->tskc", weight, drift, _TABLES)


def interval_rule(step_weights, n: int) -> np.ndarray:
    """Weights on the samples t_i..t_{i+n} of an interval of n steps, given
    step r's weights on its four stencil samples as step_weights(table, r)."""
    probe = step_weights(_ALONE, 0)
    W = np.zeros((n + 4,) + probe.shape[1:], probe.dtype)
    for r, (table, start) in enumerate(_stencil(n)):
        W[start:start + 4] += step_weights(table, r)
    return W[:n + 1]


def carry_weights(step, next_step, e=1.0) -> np.ndarray:
    """c_0..c_4 with S_i = e S_{i+1} + sum_l c_l f(t_{i+l}) on [t_i, t_j],
    j - i >= 4, from the tables (table, sample, ...) of steps i and i + 1:
    step i enters as first step, step i + 1 turns from first to inner."""
    first, inner, old = step[_FIRST], e * next_step[_INNER], e * next_step[_FIRST]
    pad = np.zeros_like(old[:1])
    return np.concatenate([first + inner, pad]) - np.concatenate([pad, old])


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
