"""Generator symbols and the fractional pseudo-gradient specification.

A symbol a(lam) defines the nonlocal operator through multiplication in the
Fourier domain.  Admissible symbols are positively homogeneous of degree
alpha in (1, 2) with real part bounded below on the unit sphere; the
isotropic representative is c |lam|^alpha.

The pseudo-gradient of order beta in (0, 1) is the vector operator with
symbol i lam |lam|^{beta-1}.  Its singular-integral form carries the
normalizing constant

    n_beta = 2^beta pi^{-d/2} Gamma((d + beta + 1) / 2) / Gamma((1 - beta) / 2),

pinned by requiring that the integral applied to a plane wave reproduce the
multiplier; an equivalent expression through gamma values at negative
non-integer arguments (extended via Gamma(1 + x) = x Gamma(x)) is

    n_beta = 2^{-1} pi^{-(d+1)/2} Gamma(-beta/2) Gamma((d+beta+1)/2) / Gamma(-beta).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grid import SpaceTimeGrid


class SymbolError(ValueError):
    """Raised when a symbol violates the admissibility assumptions."""


def gamma_extended(x: float) -> float:
    """Euler gamma at real non-integer x, negative arguments via recursion.

    Uses Gamma(x) = Gamma(x + 1) / x repeatedly until the argument is
    positive, then defers to ``math.gamma``.
    """
    if x > 0:
        return math.gamma(x)
    if float(x).is_integer():
        raise ValueError("gamma pole at non-positive integer")
    acc = 1.0
    while x < 0:
        acc *= x
        x += 1.0
    return math.gamma(x) / acc


def pseudo_gradient_normalizer(beta: float, dim: int) -> float:
    """Normalizing constant of the singular-integral pseudo-gradient form.

    Raises a domain error outside 0 < beta < 1; the integral representation
    requires beta < 1 and the operator family here excludes the classical
    gradient beta = 1.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    if dim < 1:
        raise ValueError("dim must be a positive integer")
    return (2.0 ** beta * math.pi ** (-dim / 2.0)
            * gamma_extended((dim + beta + 1.0) / 2.0)
            / gamma_extended((1.0 - beta) / 2.0))


def pseudo_gradient_normalizer_neg_gamma(beta: float, dim: int) -> float:
    """Same constant assembled from gamma at negative arguments (cross-check)."""
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    return (0.5 * math.pi ** (-(dim + 1) / 2.0)
            * gamma_extended(-beta / 2.0)
            * gamma_extended((dim + beta + 1.0) / 2.0)
            / gamma_extended(-beta))


@dataclass
class SymbolSpec:
    """Symbol a(lam) of the unperturbed generator.

    variant "isotropic" means a(lam) = scale_c |lam|^alpha; variant "custom"
    evaluates a user callable on arrays of frequency components, which must
    be homogeneous of degree alpha with Re a >= a0 > 0 on |lam| = 1.
    """

    alpha: float
    scale_c: float = 1.0
    variant: str = "isotropic"
    dim: int = 1
    evaluator: Optional[Callable] = None
    a0: Optional[float] = None

    def __post_init__(self):
        errors = []
        if not 1.0 < self.alpha < 2.0:
            errors.append(f"alpha must lie in (1, 2), got {self.alpha}")
        if self.variant not in ("isotropic", "custom"):
            errors.append(f"unknown variant {self.variant!r}")
        if self.variant == "isotropic":
            if self.scale_c <= 0:
                errors.append("scale_c must be positive")
            if self.a0 is None:
                self.a0 = self.scale_c
        else:
            if self.evaluator is None:
                errors.append("custom variant needs an evaluator")
            if self.a0 is None or self.a0 <= 0:
                errors.append("custom variant needs a positive lower bound a0")
        if self.dim not in (1, 2):
            errors.append("dim must be 1 or 2")
        if errors:
            raise SymbolError("; ".join(errors))

    # -- evaluation --------------------------------------------------------
    def __call__(self, *components: np.ndarray) -> np.ndarray:
        """Evaluate a(lam) on arrays of frequency components."""
        if len(components) != self.dim:
            raise SymbolError(f"symbol expects {self.dim} components")
        if self.variant == "isotropic":
            norm = np.abs(components[0]) if self.dim == 1 else np.hypot(*components)
            return self.scale_c * norm ** self.alpha
        return np.asarray(self.evaluator(*components))

    def on_grid(self, grid: SpaceTimeGrid) -> np.ndarray:
        """Symbol samples on the FFT-ordered frequency lattice (0 at lam = 0)."""
        if grid.dim != self.dim:
            raise SymbolError("grid dimension does not match symbol dimension")
        vals = np.asarray(self(*grid.freq_mesh()), dtype=complex)
        vals[grid.freq_norm() == 0] = 0.0  # homogeneity forces a(0) = 0
        return vals

    # -- admissibility checks ----------------------------------------------
    def sphere_samples(self) -> np.ndarray:
        """Points of the unit sphere: both of them in 1-D, 64 in 2-D."""
        if self.dim == 1:
            return np.array([[1.0], [-1.0]])
        th = 2 * np.pi * np.arange(64) / 64
        return np.column_stack([np.cos(th), np.sin(th)])

    def validate(self) -> dict:
        """Check the lower bound on the sphere and homogeneity on sampled rays
        to a relative defect of 1e-9.

        Returns the worst margins; raises SymbolError on violation.
        """
        pts = self.sphere_samples()
        on_sphere = self(*(pts[:, j] for j in range(self.dim)))
        re_min = float(np.min(np.real(on_sphere)))
        if re_min < self.a0 * (1.0 - 1e-12) or re_min <= 0:
            raise SymbolError(
                f"Re a on the unit sphere dips to {re_min:.6g}, below a0={self.a0}")
        worst = 0.0
        for r in (0.25, 0.5, 2.0, 7.5):
            scaled = self(*(r * pts[:, j] for j in range(self.dim)))
            expected = r ** self.alpha * on_sphere
            denom = np.maximum(np.abs(expected), 1e-300)
            worst = max(worst, float(np.max(np.abs(scaled - expected) / denom)))
        if worst > 1e-9:
            raise SymbolError(
                f"symbol is not homogeneous of degree {self.alpha}: "
                f"relative defect {worst:.3e}")
        return {"re_min_on_sphere": re_min, "homogeneity_defect": worst}


def isotropic_symbol(alpha: float, scale_c: float = 1.0, dim: int = 1) -> SymbolSpec:
    return SymbolSpec(alpha=alpha, scale_c=scale_c, variant="isotropic", dim=dim)


@dataclass
class PseudoGradientSpec:
    """Order of the pseudo-gradient and the cutoffs of its singular form.

    The operator multiplies transforms by i lam |lam|^{beta-1}
    (`multiplier`).  Its singular-integral form, evaluated pointwise by
    `spectral.singular_gradient_at` as a cross-check, is truncated to
    eps_inner <= |y| <= r_outer.
    """

    beta: float
    dim: int = 1
    eps_inner: float = 1e-8
    r_outer: float = 40.0

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")
        if self.eps_inner <= 0 or self.r_outer <= self.eps_inner:
            raise ValueError("need 0 < eps_inner < r_outer")

    @property
    def normalizer(self) -> float:
        return pseudo_gradient_normalizer(self.beta, self.dim)

    def multiplier(self, grid: SpaceTimeGrid) -> np.ndarray:
        """FFT-ordered samples of i lam |lam|^{beta-1}, shape (dim, ...).

        The lam = 0 value is the radial limit 0; Nyquist rows are zeroed so
        that real fields map to real fields on the even lattice.
        """
        if grid.dim != self.dim:
            raise ValueError("grid dimension does not match pseudo-gradient")
        norm = grid.freq_norm()
        with np.errstate(divide="ignore", invalid="ignore"):
            radial = norm ** (self.beta - 1.0)
        radial[norm == 0] = 0.0
        kill = grid.nyquist_mask()
        comps = []
        for k in grid.freq_mesh():
            m = 1j * k * radial
            m[kill] = 0.0
            comps.append(m)
        return np.stack(comps)
