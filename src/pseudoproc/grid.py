"""Uniform space-time lattices and the Fourier conventions used everywhere.

The spatial domain is the periodic box [-L, L)^d sampled at N points per
axis; the conjugate frequency lattice carries spacing pi/L.  All kernel
synthesis in this package goes through :func:`synthesize` /
:func:`analyze`, which fix one normalization of the transform pair

    f(x) = (2 pi)^{-d} Int F(lam) e^{i(lam,x)} dlam,
    F(lam) = Int f(x) e^{-i(lam,x)} dx,

discretized so that the discrete spectrum of a synthesized field equals
the sampled transform exactly (no hidden scale factors).  N is even, so
fftshift and ifftshift are one swap of the halves of each lattice axis,
done here by slicing.  No other module calls np.fft.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class GridError(ValueError):
    """Raised for inconsistent lattice parameters or mismatched grids."""


class ImaginaryResidueError(GridError):
    """A synthesized field kept an imaginary part: a numerical failure."""


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Uniform spatial lattice plus a uniform partition of [0, T].

    Parameters
    ----------
    dim : int
        Spatial dimension, 1 or 2.
    half_extent : float
        Half width L of the periodic box [-L, L)^dim.
    points_per_dim : int
        Even number N of lattice points per axis.
    time_horizon : float
        Final time T > 0.
    time_steps : int
        Number M of uniform steps, giving the partition t_i = i T / M.
    """

    dim: int
    half_extent: float
    points_per_dim: int
    time_horizon: float
    time_steps: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise GridError(f"dim must be 1 or 2, got {self.dim}")
        if self.points_per_dim % 2 != 0 or self.points_per_dim < 4:
            raise GridError("points_per_dim must be an even integer >= 4")
        if not (math.isfinite(self.half_extent) and self.half_extent > 0):
            raise GridError("half_extent must be finite and positive")
        if not (math.isfinite(self.time_horizon) and self.time_horizon > 0) \
                or self.time_steps < 1:
            raise GridError("need a finite time_horizon > 0 and time_steps >= 1")

    # -- spatial lattice -------------------------------------------------
    @property
    def dx(self) -> float:
        return 2.0 * self.half_extent / self.points_per_dim

    @property
    def cell_volume(self) -> float:
        return self.dx ** self.dim

    def axis(self) -> np.ndarray:
        """Centered coordinates (-L, ..., L - dx) along one axis."""
        N = self.points_per_dim
        return (np.arange(N) - N // 2) * self.dx

    def mesh(self):
        """Tuple of centered coordinate arrays, meshgrid'ed for dim == 2."""
        if self.dim == 1:
            return (self.axis(),)
        x = self.axis()
        return tuple(np.meshgrid(x, x, indexing="ij"))

    # -- frequency lattice -----------------------------------------------
    def freq_axis(self) -> np.ndarray:
        """FFT-ordered frequencies along one axis (spacing pi / L)."""
        return 2.0 * np.pi * np.fft.fftfreq(self.points_per_dim, d=self.dx)

    def freq_mesh(self):
        k = self.freq_axis()
        if self.dim == 1:
            return (k,)
        return tuple(np.meshgrid(k, k, indexing="ij"))

    def freq_norm(self) -> np.ndarray:
        """|lam| on the FFT-ordered frequency lattice."""
        if self.dim == 1:
            return np.abs(self.freq_axis())
        kx, ky = self.freq_mesh()
        return np.hypot(kx, ky)

    def nyquist_mask(self) -> np.ndarray:
        """Boolean mask of modes containing a Nyquist component on any axis.

        The Nyquist frequency -N/2 has no positive partner on an even
        lattice, so odd multipliers are zeroed there to keep synthesized
        fields real.
        """
        N = self.points_per_dim
        hit = np.arange(N) == N // 2  # fftfreq puts -N/2 at index N//2
        if self.dim == 1:
            return hit
        return hit[:, None] | hit[None, :]

    # -- time partition ---------------------------------------------------
    @property
    def dt(self) -> float:
        return self.time_horizon / self.time_steps

    def times(self) -> np.ndarray:
        return np.arange(self.time_steps + 1) * self.dt

    def gaps(self) -> np.ndarray:
        """Distinct positive time gaps representable on the partition."""
        return np.arange(1, self.time_steps + 1) * self.dt

    def shape(self) -> tuple:
        return (self.points_per_dim,) * self.dim


# ---------------------------------------------------------------------------
# transform helpers
# ---------------------------------------------------------------------------

_FFT, _IFFT = {1: np.fft.fft, 2: np.fft.fft2}, {1: np.fft.ifft, 2: np.fft.ifft2}


def _lattice(grid: SpaceTimeGrid, a) -> np.ndarray:
    """a as an array whose trailing grid.dim axes are the lattice."""
    a = np.asarray(a)
    if a.shape[-grid.dim:] != grid.shape():
        raise GridError(f"an array of shape {a.shape} does not end in the "
                        f"lattice shape {grid.shape()}")
    return a


def _half_swap(a: np.ndarray, dim: int) -> np.ndarray:
    """Swap the halves of each trailing lattice axis: fftshift and ifftshift."""
    h = a.shape[-1] // 2
    a = np.concatenate((a[..., h:], a[..., :h]), axis=-1)
    return a if dim == 1 else np.concatenate((a[..., h:, :], a[..., :h, :]), axis=-2)


def synthesize(grid: SpaceTimeGrid, spectrum: np.ndarray,
               require_real: bool = True, tol: float = 1e-9) -> np.ndarray:
    """Centered field samples from FFT-ordered transform samples.

    Implements f(x_j) = (2 pi)^{-d} sum_k F(lam_k) e^{i(lam_k, x_j)} dlam^d,
    which reduces to ifftn up to the factor dx^{-d}.  Only the trailing
    grid.dim axes, which must be the lattice, are transformed, so a stack
    of spectra gives the stack of fields, and with require_real every field
    passes the imaginary-residue check on its own scale.
    """
    vals = synthesize_unshifted(grid, spectrum)
    if require_real:
        vals = real_part(grid, vals, tol)
    return _half_swap(vals, grid.dim)


def synthesize_unshifted(grid: SpaceTimeGrid,
                         spectrum: np.ndarray) -> np.ndarray:
    """`synthesize` with require_real=False, its points left in FFT order:
    the complex samples without the half swap, which only permutes them,
    for reductions over the lattice such as a sup norm."""
    vals = _IFFT[grid.dim](_lattice(grid, spectrum))
    vals /= grid.cell_volume
    return vals


def real_part(grid: SpaceTimeGrid, vals, tol: float = 1e-9) -> np.ndarray:
    """Real part of synthesized fields that pass the imaginary-residue check."""
    # maxima over the lattice, which the half swap only permutes
    axes = tuple(range(-grid.dim, 0))
    resid = np.abs(vals.imag).max(axis=axes)
    bad = resid > tol * np.maximum(np.abs(vals.real).max(axis=axes), 1.0)
    if bad.any():
        raise ImaginaryResidueError(
            f"imaginary residue {resid[bad].max():.3e} above tolerance; "
            "spectrum is not Hermitian")
    return vals.real


def analyze(grid: SpaceTimeGrid, values: np.ndarray) -> np.ndarray:
    """FFT-ordered transform samples of a centered field (inverse of synthesize).

    Like `synthesize`, it transforms only the trailing grid.dim axes.
    """
    out = _FFT[grid.dim](_half_swap(_lattice(grid, values), grid.dim))
    out *= grid.cell_volume
    return out


def convolve(grid: SpaceTimeGrid, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Discrete (circular) convolution with cell-volume weight, taken like
    `synthesize` over the trailing lattice axes."""
    f, g = (_FFT[grid.dim](_half_swap(_lattice(grid, x), grid.dim)) for x in (f, g))
    out = _IFFT[grid.dim](f * g) * grid.cell_volume
    return _half_swap(out.real, grid.dim)


def interior_mask(grid: SpaceTimeGrid, margin: float = 0.1) -> np.ndarray:
    """Mask selecting points away from the outer `margin` fraction of the box.

    Periodization bias concentrates near the boundary; probe sets and bulk
    norms stay inside this mask.
    """
    x = grid.axis()
    keep = np.abs(x) <= (1.0 - margin) * grid.half_extent
    if grid.dim == 1:
        return keep
    return keep[:, None] & keep[None, :]
