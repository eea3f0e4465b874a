"""Drift coefficients b(t, x) and their integrability bookkeeping.

The perturbation theory needs b in L_p over [0, T] x box with
p > (d + alpha) / (alpha - 1), p = +inf included.  The L_p norm is cached
on the current grid; constant-in-space drifts additionally unlock the exact
kernel-level solver (translation invariance survives the time dependence).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .grid import SpaceTimeGrid


class DriftError(ValueError):
    pass


def min_p_exponent(alpha: float, dim: int) -> float:
    return (dim + alpha) / (alpha - 1.0)


def series_exponent(alpha: float, beta: float, dim: int, p: float) -> float:
    """Decay exponent theta = 1 - ((d + alpha)/p + beta)/alpha of the iteration."""
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    return 1.0 - ((dim + alpha) * inv_p + beta) / alpha


@dataclass
class DriftField:
    """Perturbation coefficient with one of three kinds.

    kind "constant": `vector` holds the fixed R^d value.
    kind "time": `evaluator(t) -> (d,)` varies in time, constant in space.
    kind "space_time": `evaluator(t, *mesh) -> (d, N, ...)` full dependence.
    """

    dim: int
    kind: str = "constant"
    vector: Optional[Sequence[float]] = None
    evaluator: Optional[Callable] = None
    p_exponent: float = math.inf

    def __post_init__(self):
        if self.kind not in ("constant", "time", "space_time"):
            raise DriftError(f"unknown drift kind {self.kind!r}")
        if self.kind == "constant":
            if self.vector is None:
                raise DriftError("constant drift needs a vector")
            self.vector = np.atleast_1d(np.asarray(self.vector, dtype=float))
            if self.vector.shape != (self.dim,):
                raise DriftError(f"drift vector must have {self.dim} components")
        elif self.evaluator is None:
            raise DriftError(f"{self.kind} drift needs an evaluator")
        if self.p_exponent <= 1:
            raise DriftError("p exponent must exceed 1")

    # -- structure ----------------------------------------------------------
    @property
    def spatially_constant(self) -> bool:
        return self.kind in ("constant", "time")

    def is_zero(self) -> bool:
        return self.kind == "constant" and not np.any(self.vector)

    def at_time(self, t: float) -> np.ndarray:
        """Spatially-constant value at time t, shape (d,)."""
        if self.kind == "constant":
            return self.vector
        if self.kind == "time":
            v = np.atleast_1d(np.asarray(self.evaluator(t), dtype=float))
            if v.shape != (self.dim,):
                raise DriftError("time evaluator must return a d-vector")
            return v
        raise DriftError("drift varies in space; use sample()")

    def sample(self, t: float, grid: SpaceTimeGrid) -> np.ndarray:
        """Components on the lattice at time t, shape (d,) + grid.shape()."""
        if self.spatially_constant:
            v = self.at_time(t)
            return np.broadcast_to(
                v.reshape((self.dim,) + (1,) * grid.dim),
                (self.dim,) + grid.shape()).copy()
        vals = np.asarray(self.evaluator(t, *grid.mesh()), dtype=float)
        want = (self.dim,) + grid.shape()
        if vals.shape != want:
            raise DriftError(f"space_time evaluator returned {vals.shape}, "
                             f"expected {want}")
        return vals

    # -- admissibility -------------------------------------------------------
    def validate_exponent(self, alpha: float):
        bound = min_p_exponent(alpha, self.dim)
        if not self.p_exponent > bound:
            raise DriftError(
                f"p = {self.p_exponent:g} violates p > (d+alpha)/(alpha-1) "
                f"= {bound:g}")

    def lp_norm(self, grid: SpaceTimeGrid) -> float:
        """L_p norm of |b| over [0, T] x [-L, L]^d (sup norm for p = inf)."""
        at = _sampler((self,), grid)
        return _slab_norm(lambda t: at(self, t), self.p_exponent, grid)

    def difference_lp_norm(self, other: "DriftField", grid: SpaceTimeGrid) -> float:
        """L_p norm of |b - other| on the same slab (shared p required)."""
        if not math.isclose(self.p_exponent, other.p_exponent):
            raise DriftError("stability comparisons require a common p")
        at = _sampler((self, other), grid)
        return _slab_norm(lambda t: at(self, t) - at(other, t),
                          self.p_exponent, grid)


def _sampler(drifts, grid: SpaceTimeGrid) -> Callable:
    """(b, t) -> b at time t: the d-vector when every drift is constant in
    space (its magnitude is then the value at every lattice point), else
    the components on the lattice."""
    if all(b.spatially_constant for b in drifts):
        return lambda b, t: b.at_time(t)
    return lambda b, t: b.sample(t, grid)


def _slab_norm(sample: Callable, p: float, grid: SpaceTimeGrid) -> float:
    """L_p norm of |sample(t)| over [0, T] x [-L, L]^d (sup norm for p = inf).

    sample(t) returns the d components on the lattice, or one d-vector
    that holds at every lattice point; time is integrated by the trapezoid
    rule on 64 equal steps.
    """
    ts = np.linspace(0.0, grid.time_horizon, 65)
    mags = (np.sqrt((sample(t) ** 2).sum(axis=0)) for t in ts)
    if math.isinf(p):
        return max(float(m.max()) for m in mags)
    box = (2.0 * grid.half_extent) ** grid.dim
    slab = np.array([(m ** p).mean() * box for m in mags])
    return float(np.trapezoid(slab, ts) ** (1.0 / p))


def constant_drift(vector, p: float = math.inf) -> DriftField:
    vector = np.atleast_1d(np.asarray(vector, dtype=float))
    return DriftField(dim=vector.size, kind="constant", vector=vector,
                      p_exponent=p)


def zero_drift(dim: int) -> DriftField:
    return constant_drift(np.zeros(dim))


def mollified_time_drift(base: Callable, width: float, dim: int,
                         p: float = math.inf) -> DriftField:
    """Smooth b(t) from a rough scalar-in-time profile via top-hat averaging.

    `base(t)` may be discontinuous; given an array of n times it returns the
    d components at each, shape (d, n).  The returned drift averages it over
    [t - width/2, t + width/2] at a fixed 257 nodes so that the
    mollification scale is the only moving part in stability studies.
    """
    nodes = 257
    offs = (np.arange(nodes) / (nodes - 1) - 0.5) * width

    def smooth(t):
        values = np.atleast_2d(np.asarray(base(t + offs), dtype=float))
        if values.shape != (dim, nodes):
            raise DriftError(f"base returned {values.shape} for {nodes} "
                             f"times, expected {(dim, nodes)}")
        return values.sum(axis=1) / nodes

    return DriftField(dim=dim, kind="time", evaluator=smooth, p_exponent=p)
