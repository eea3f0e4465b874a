"""Time quadrature of the kernel-level integrals on a uniform partition.

`hybrid_rule` is the only code that knows the rule; `lagrange_weights`, its
interpolation between partition times, also serves the function-level solver.
"""
from __future__ import annotations

import functools

import numpy as np

_GL_X, _GL_W = np.polynomial.legendre.leggauss(4)
_GL_X = 0.5 * (_GL_X + 1.0)
_GL_W = 0.5 * _GL_W


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


@functools.lru_cache(maxsize=2)
def hybrid_rule(steps: int):
    """Nodes and weights of the time quadrature on a partition of `steps`.

    Interior partition times carry composite-trapezoid weights; the end
    panels [t_i, t_{i+1}] and [t_{j-1}, t_j], where no interior sample
    exists, carry 4-point Gauss-Legendre nodes at which f is interpolated
    through its four nearest samples.  An adjacent pair is one panel.

    Returns (nodes, rule).  nodes are node times in units of dt: entry 5k
    is t_k and entry 5k + 1 + q the Gauss node q of [t_k, t_{k+1}], so the
    offset tau - t_i of node n is node n - 5i.  rule[j] = (lagrange, pairs)
    with pairs[i] = (node, weight) gives Int_{t_i}^{t_j} h(tau) f(tau) dtau
    ~ dt * sum_q weight[q] h(tau_q) (lagrange[node] @ f)[q], with f the
    samples f(t_0), ..., f(t_{j-1}) followed by the limit f(t_j); h is
    evaluated exactly at the nodes.
    """
    nodes = (np.arange(steps + 1)[:, None] + np.append(0.0, _GL_X)).ravel()
    nodes = nodes[:5 * steps + 1]
    gauss = 1 + np.arange(4)
    rule = [()]
    for j in range(1, steps + 1):
        lagrange = np.zeros((5 * j + 1, j + 1))
        for n, tau in enumerate(nodes[:5 * j + 1]):
            k0, w = lagrange_weights(np.arange(j + 1.0), tau)
            lagrange[n, k0:k0 + len(w)] = w
        per_start = []
        for i in range(j):
            panels = sorted({i, j - 1})   # a single panel when j = i + 1
            inner = np.arange(i + 1, j)
            # composite trapezoid on t_{i+1}..t_{j-1}; zero for one node
            trapezoid = 0.5 * (np.minimum(inner + 1, j - 1)
                               - np.maximum(inner - 1, i + 1))
            node = np.concatenate([5 * k + gauss for k in panels] + [5 * inner])
            weight = np.concatenate([_GL_W for _ in panels] + [trapezoid])
            per_start.append((node, weight))
        rule.append((lagrange, tuple(per_start)))
    return nodes, tuple(rule)
