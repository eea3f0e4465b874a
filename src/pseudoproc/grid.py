"""Uniform space-time lattices and the Fourier conventions used everywhere.

The spatial domain is the periodic box [-L, L)^d sampled at N points per
axis; the conjugate frequency lattice carries spacing pi/L.  All kernel
synthesis in this package goes through :func:`synthesize` /
:func:`analyze`, which fix one normalization of the transform pair

    f(x) = (2 pi)^{-d} Int F(lam) e^{i(lam,x)} dlam,
    F(lam) = Int f(x) e^{-i(lam,x)} dx,

discretized so that the discrete spectrum of a synthesized field equals
the sampled transform exactly (no hidden scale factors).

Fields are real, so spectra are Hermitian, F(-lam) = conj F(lam), and are
held as their half (`SpaceTimeGrid.spectrum_shape`): numpy's rfft / irfft in
1-D and rfft2 / irfft2 in 2-D, with the modes 0 .. N/2 of the last axis.
The symmetry is checked once, where a spectrum is made
(`SymbolSpec.on_grid`).  Nyquist rule: lam = 0 and the Nyquist mode N/2 of
the last axis are their own partners, and irfft keeps the real part of their
coefficients, as the real part of a full-lattice synthesis does; so every
Hermitian spectrum synthesizes to the field of the full complex transform,
up to round-off.  The samples are centred, x_j = (j - N/2) dx, while numpy's
transforms put the origin at index 0; N is even, so the shift multiplies
mode k of each axis by exp(i pi k) = (-1)^k, a sign on the half spectrum
that the transforms apply.  For power-of-two N this gives the bits of
ifftshift / fftshift around numpy's transforms; for N with an odd factor
it agrees to round-off.  No other module calls np.fft or knows the order
of the samples.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


class GridError(ValueError):
    """Raised for inconsistent lattice parameters or mismatched grids."""


class ImaginaryResidueError(GridError):
    """A spectrum is not Hermitian, so no real field has it: a numerical
    failure."""


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
        """FFT-ordered frequencies along one full axis (spacing pi / L)."""
        return 2.0 * np.pi * np.fft.fftfreq(self.points_per_dim, d=self.dx)

    def freq_mesh(self):
        """Frequency components on the half lattice: the last axis holds
        the modes 0 .. N/2, the first axis of a 2-D lattice all N."""
        half = 2.0 * np.pi * np.fft.rfftfreq(self.points_per_dim, d=self.dx)
        if self.dim == 1:
            return (half,)
        return tuple(np.meshgrid(self.freq_axis(), half, indexing="ij"))

    def freq_norm(self) -> np.ndarray:
        """|lam| on the half lattice."""
        if self.dim == 1:
            return self.freq_mesh()[0]
        return np.hypot(*self.freq_mesh())

    def nyquist_mask(self) -> np.ndarray:
        """Boolean mask of the half lattice's modes with a Nyquist component
        on any axis, where odd multipliers are zeroed to keep fields real."""
        N = self.points_per_dim
        hit = np.arange(N // 2 + 1) == N // 2
        if self.dim == 1:
            return hit
        return (np.arange(N) == N // 2)[:, None] | hit[None, :]

    def spectrum_shape(self) -> tuple:
        """Shape of a half spectrum: (N/2 + 1,), or (N, N/2 + 1) in 2-D."""
        return self.shape()[1:] + (self.points_per_dim // 2 + 1,)

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

_FFT, _IFFT = {1: np.fft.rfft, 2: np.fft.rfft2}, {1: np.fft.irfft, 2: np.fft.irfft2}


def _lattice(a, shape) -> np.ndarray:
    """a as an array whose trailing axes have the given lattice shape."""
    a = np.asarray(a)
    if a.shape[-len(shape):] != shape:
        raise GridError(f"an array of shape {a.shape} does not end in the "
                        f"lattice shape {shape}")
    return a


@functools.lru_cache(maxsize=None)
def _centre_phase(shape: tuple) -> np.ndarray:
    """exp(i pi k) = (-1)^k per axis, multiplied over the axes of a half
    spectrum (an FFT-ordered index has its mode's parity, as N is even):
    the phase that moves the samples' origin to the centre of the box."""
    phase = np.where(np.indices(shape).sum(axis=0) % 2, -1.0 + 0j, 1.0 + 0j)
    phase.setflags(write=False)
    return phase


def synthesize(grid: SpaceTimeGrid, spectrum: np.ndarray) -> np.ndarray:
    """Centered real field samples from half-lattice transform samples.

    Implements f(x_j) = (2 pi)^{-d} sum_k F(lam_k) e^{i(lam_k, x_j)} dlam^d
    over the Hermitian extension of the half spectrum, which reduces to
    irfftn of the centre phase times F, up to the factor dx^{-d}.  Only the
    trailing axes, which must be the half lattice, are transformed, so a
    stack of spectra gives the stack of fields.
    """
    shape = grid.spectrum_shape()
    vals = _IFFT[grid.dim](_lattice(spectrum, shape) * _centre_phase(shape))
    vals /= grid.cell_volume
    return vals


def analyze(grid: SpaceTimeGrid, values: np.ndarray) -> np.ndarray:
    """Half-lattice transform samples of a centered real field (inverse of
    synthesize).  Like `synthesize`, it transforms only the trailing
    grid.dim axes.
    """
    out = _FFT[grid.dim](_lattice(values, grid.shape()))
    out *= _centre_phase(grid.spectrum_shape()) * grid.cell_volume
    return out


def convolve(grid: SpaceTimeGrid, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Discrete (circular) convolution with cell-volume weight, taken like
    `synthesize` over the trailing lattice axes."""
    f, g = (_FFT[grid.dim](_lattice(x, grid.shape())) for x in (f, g))
    return _IFFT[grid.dim](f * g * _centre_phase(grid.spectrum_shape())) \
        * grid.cell_volume


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
