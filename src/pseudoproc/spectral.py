"""Kernel synthesis from symbols and the two pseudo-gradient evaluations.

The base kernel of the unperturbed evolution at time gap dt is

    g0(dt, w) = (2 pi)^{-d} Int exp{ i(w, lam) - a(lam) dt } dlam,

sampled here by discrete inversion on the conjugate lattice, which makes the
lattice mass sum(g0) dx^d equal one exactly (the lam = 0 sample of the
integrand's transform).  For drift constant in space the kernel multiplies
it by exp{ i dt (b_mean, lam) |lam|^{beta-1} }, b_mean the mean of b over
the gap; its sign is pinned by the perturbation identity, see tests.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .grid import SpaceTimeGrid, synthesize, analyze, interior_mask
from .quadrature import gauss_panels
from .symbols import SymbolSpec, PseudoGradientSpec
from .fields import KernelField, by_gap


class ResolutionError(RuntimeError):
    """Grid cannot represent the requested kernel within tolerance."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class UnsupportedConfiguration(ValueError):
    pass


@dataclass
class ResolutionReport:
    """Diagnostics of spectral tail and boundary mass for one (grid, dt)."""

    spectral_tail: float       # |exp(-Re a(lam_max) dt_min)| at the lattice edge
    boundary_mass: float       # |g0| mass in the outer 10% of the box
    wraparound_mass: float     # kernel mass beyond the box, continuum estimate
    dt_min: float

    @property
    def tail_ok(self) -> bool:
        return self.spectral_tail <= 1e-6

    @property
    def boundary_ok(self) -> bool:
        return self.boundary_mass <= 1e-3

    @property
    def passed(self) -> bool:
        return self.tail_ok and self.boundary_ok

    def as_dict(self) -> dict:
        return {
            "spectral_tail": self.spectral_tail,
            "boundary_mass": self.boundary_mass,
            "wraparound_mass": self.wraparound_mass,
            "dt_min": self.dt_min,
            "tail_ok": self.tail_ok,
            "boundary_ok": self.boundary_ok,
            "passed": self.passed,
        }


def check_resolution(sym: SymbolSpec, grid: SpaceTimeGrid,
                     dt_min: float) -> ResolutionReport:
    """Pure report: can this lattice hold exp(-a dt) kernels down to dt_min?

    The spectral tail measures how far the symbol has decayed at the lattice
    edge (at most 1e-6 passes, the kernels' gate); the boundary mass
    measures periodic wrap-around of the synthesized kernel at the
    fastest-spreading stored gap (dt = time horizon).
    """
    edge = np.pi / grid.dx  # per-axis Nyquist
    edge_vec = (edge,) if grid.dim == 1 else (edge / np.sqrt(2.0),) * 2
    a_edge = np.real(sym(*[np.array([v]) for v in edge_vec]))[0]
    tail = float(np.exp(-a_edge * dt_min))

    g_T = synthesize(grid, np.exp(-sym.on_grid(grid) * grid.time_horizon))
    outer = ~interior_mask(grid, margin=0.1)
    boundary = float(np.abs(g_T[outer]).sum() * grid.cell_volume)

    # continuum wrap-around estimate from the heavy-tail profile
    # g0(T, r) ~ K r^{-d-alpha}: integrate beyond the box radius
    L, alpha = grid.half_extent, sym.alpha
    peak = float(np.abs(g_T).max())
    r0 = grid.time_horizon ** (1.0 / alpha)
    tail_const = peak * r0 ** (grid.dim + alpha)
    wrap = 2.0 * grid.dim * tail_const * L ** (-alpha) / alpha

    return ResolutionReport(tail, boundary, wrap, dt_min)


def _gap_steps(grid: SpaceTimeGrid, dt: float) -> int:
    """dt / step for dt a partition gap of 1..M steps; no other dt has a pair."""
    steps = int(round(dt / grid.dt))
    if abs(steps * grid.dt - dt) < 1e-12 * max(dt, 1.0) \
            and 1 <= steps <= grid.time_steps:
        return steps
    raise UnsupportedConfiguration(
        f"dt={dt:g} is not a multiple of the time step {grid.dt:g} between "
        f"{grid.dt:g} and the horizon T={grid.time_horizon:g}")


def _gap_field(sym: SymbolSpec, grid: SpaceTimeGrid, dt: float, meaning: str,
               values: Callable[[], np.ndarray]) -> KernelField:
    """values() on the pair (0, dt / step) alone, formed once dt is positive,
    passes the resolution gate and is a partition gap, checked in turn."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    rep = check_resolution(sym, grid, dt)
    if not rep.tail_ok:
        raise ResolutionError(
            f"spectral tail {rep.spectral_tail:.3e} at dt={dt:g} exceeds "
            "1e-06; enlarge N or the time gap", rep.as_dict())
    return KernelField(grid, meaning,
                       [()] * _gap_steps(grid, dt) + [values()[None]])


def synthesize_g0(sym: SymbolSpec, grid: SpaceTimeGrid,
                  dt: float) -> KernelField:
    """Base kernel at a partition gap dt, stored on the pair (0, dt / step)."""
    return _gap_field(sym, grid, dt, "g0", lambda: g0_values(sym, grid, dt))


def g0_values(sym: SymbolSpec, grid: SpaceTimeGrid, dt: float) -> np.ndarray:
    """Raw g0 samples without field bookkeeping (no resolution gate)."""
    return synthesize(grid, np.exp(-sym.on_grid(grid) * dt))


def base_kernel_field(sym: SymbolSpec, grid: SpaceTimeGrid) -> KernelField:
    """g on every time pair of the partition (translation-invariant scope):
    the gaps M .. 1 synthesized as one stack, of which stack j views the
    last j slices, so the pairs of one gap share memory."""
    M = grid.time_steps
    gaps = grid.dt * np.arange(M, 0, -1).reshape((M,) + (1,) * grid.dim)
    top = synthesize(grid, np.exp(-sym.on_grid(grid) * gaps))
    return KernelField(grid, "g", by_gap(top))


def drift_multiplier(pg: PseudoGradientSpec, grid: SpaceTimeGrid,
                     b_vector) -> np.ndarray:
    """(b, i lam |lam|^{beta-1}) on the frequency lattice, for one drift
    vector or a stack of them (components last)."""
    b = np.atleast_1d(np.asarray(b_vector, dtype=float))
    if b.shape[-1:] != (grid.dim,):
        raise ValueError(f"drift vector must have {grid.dim} components")
    return np.tensordot(b, pg.multiplier(grid), axes=(-1, 0))


def _exact_spectrum(sym, pg, b_mean, grid, dt) -> np.ndarray:
    """exp{(-a + (b_mean, multiplier)) dt}: the kernel of a drift constant
    in space whose mean over the gap dt is b_mean; dt may be a stack."""
    dt = np.reshape(dt, np.shape(dt) + (1,) * grid.dim)
    return np.exp((-sym.on_grid(grid) + drift_multiplier(pg, grid, b_mean))
                  * dt)


def exact_spectra(sym: SymbolSpec, pg: PseudoGradientSpec, b,
                  grid: SpaceTimeGrid, pairs) -> np.ndarray:
    """Half spectra of the exact kernel of a drift b constant in space on the
    time-index pairs (i, j), stacked in their order.  b's mean over
    [t_i, t_j] is its vector, or for kind "time" Int b / (t_j - t_i), with
    Int b by 16-point Gauss-Legendre on every step."""
    i, j = np.asarray(pairs).reshape(-1, 2).T
    times = grid.times()
    dt = times[j] - times[i]
    if b.kind == "constant":
        return _exact_spectrum(sym, pg, b.vector, grid, dt)
    tau, w = gauss_panels(times, 16)
    steps = np.einsum("kq,kqc->kc", w, np.array(
        [[b.at_time(t) for t in row] for row in tau]))
    int_b = np.cumsum(np.insert(steps, 0, 0.0, axis=0), axis=0)
    return _exact_spectrum(sym, pg, (int_b[j] - int_b[i]) / dt[:, None],
                           grid, dt)


def constant_drift_kernel(sym: SymbolSpec, pg: PseudoGradientSpec,
                          b_const: Sequence[float], grid: SpaceTimeGrid,
                          dt: float) -> KernelField:
    """Exact perturbed kernel for a constant drift vector, stored on the
    pair (0, dt / step) like `synthesize_g0`.

    Synthesizes (2 pi)^{-d} Int exp{ i(w + dt b |lam|^{beta-1}, lam)
    - dt a(lam) } dlam for any symbol a.  Reduces to g0 at b = 0; the
    total lattice mass is one exactly; the values change sign for large
    enough |b| dt^{1 - beta/alpha}, which is the signed-kernel witness.
    """
    return _gap_field(sym, grid, dt, "G", lambda: constant_drift_values(
        sym, pg, b_const, grid, dt))


def constant_drift_values(sym: SymbolSpec, pg: PseudoGradientSpec,
                          b_const, grid: SpaceTimeGrid, dt: float) -> np.ndarray:
    return synthesize(grid, _exact_spectrum(sym, pg, b_const, grid, dt))


# ---------------------------------------------------------------------------
# pseudo-gradient application
# ---------------------------------------------------------------------------

def apply_pseudo_gradient(f: Union[np.ndarray, Callable],
                          pg: PseudoGradientSpec,
                          grid: SpaceTimeGrid) -> np.ndarray:
    """Spectral pseudo-gradient of f, a centered sample array on `grid` or a
    callable sampled there; returns the component-stacked array."""
    if callable(f):
        samples = f(*grid.mesh())
    else:
        samples = np.asarray(f, dtype=float)
        if samples.shape != grid.shape():
            raise ValueError("sample array does not match the grid")
    if np.any(~np.isfinite(samples)):
        raise ValueError("input contains non-finite values")
    return synthesize(grid, pg.multiplier(grid) * analyze(grid, samples))


def _panels(eps, R, per_decade, osc_scale=None):
    """16-point Gauss nodes and weights on geometric panels of [eps, R],
    capped in length once oscillation matters."""
    edges = [eps]
    grow = 10.0 ** (1.0 / per_decade)
    while edges[-1] < R:
        nxt = edges[-1] * grow
        if osc_scale is not None:
            nxt = min(nxt, edges[-1] + 8.0 * np.pi / osc_scale)
        edges.append(min(nxt, R))
    nodes, weights = gauss_panels(np.array(edges), 16)
    return nodes.ravel(), weights.ravel()


def singular_gradient_at(f: Callable, x: np.ndarray, pg: PseudoGradientSpec,
                         eps_inner: float, r_outer: float,
                         theta_nodes: int = 64) -> np.ndarray:
    """Truncated singular-integral pseudo-gradient of a callable at points x.

    Pairs y with -y so the kernel's odd part cancels the local singularity:
    the integrand becomes (f(x + y) - f(x - y)) y / |y|^{d+beta+1} over the
    half space, integrated on [eps_inner, r_outer] with Gauss panels.  x has
    shape (npts, dim); the result has shape (npts, dim).
    """
    if not 0 < eps_inner < r_outer:
        raise ValueError("need 0 < eps_inner < r_outer")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    d = pg.dim
    r, w = _panels(eps_inner, r_outer, 3)
    nb = pg.normalizer
    if d == 1:
        xs = x[:, 0]
        fwd = np.asarray(f(xs[:, None] + r[None, :]))
        bwd = np.asarray(f(xs[:, None] - r[None, :]))
        vals = ((fwd - bwd) * (r ** (-1.0 - pg.beta) * w)[None, :]).sum(axis=1)
        return (nb * vals)[:, None]
    th = (np.arange(theta_nodes) + 0.5) * (2 * np.pi / theta_nodes)
    om = np.stack([np.cos(th), np.sin(th)])              # (2, ntheta)
    probe = np.asarray(f(x[:1, 0], x[:1, 1]))
    out = np.zeros((x.shape[0], 2), dtype=np.result_type(probe.dtype, float))
    dth = 2 * np.pi / theta_nodes
    for irad, (rr, ww) in enumerate(zip(r, w)):
        pts_f = x[:, None, :] + rr * om.T[None, :, :]
        pts_b = x[:, None, :] - rr * om.T[None, :, :]
        diff = np.asarray(f(pts_f[..., 0], pts_f[..., 1])) \
            - np.asarray(f(pts_b[..., 0], pts_b[..., 1]))
        ang = diff[:, :, None] * om.T[None, :, :]        # (npts, ntheta, 2)
        out += 0.5 * ww * rr ** (-1.0 - pg.beta) * ang.sum(axis=1) * dth
    return nb * out


def _bessel_j(n: int, x) -> np.ndarray:
    """Bessel J_n(x) for n in (0, 1) and x >= 0, to about 1e-15 absolute.

    The power series for x <= 1, whose terms shrink from the first, so the
    value keeps its relative accuracy at tiny x; Bessel's integral (DLMF
    10.9.E1) by the 64-node trapezoid rule on its period for x <= 25, whose
    aliasing error is about J_64(25) < 1e-17; Hankel's expansion (DLMF
    10.17) to x^-17 beyond, its phase x - (2n + 1) pi / 4 rounded once, as
    in the Cephes j0/j1 of scipy.special, so the two agree to round-off.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    lo, hi = x <= 1.0, x > 25.0
    mid = ~(lo | hi)
    xs = x[lo]
    c = np.cumprod([1.0] + [1.0 / (k * (k + n)) for k in range(1, 11)])
    out[lo] = (0.5 * xs) ** n * np.polyval(c[::-1], -0.25 * xs * xs)
    tau = np.arange(64) * (np.pi / 32)
    out[mid] = np.cos(n * tau - x[mid][:, None] * np.sin(tau)).mean(axis=1)
    xh = x[hi]
    a = np.cumprod([1.0] + [(4 * n * n - (2 * k - 1) ** 2) / (8 * k)
                            for k in range(1, 18)])       # a_k(n) of 10.17.1
    y = -1.0 / (xh * xh)
    P, Q = np.polyval(a[16::-2], y), np.polyval(a[17::-2], y) / xh
    w = xh - (2 * n + 1) * np.pi / 4
    out[hi] = np.sqrt(2.0 / (np.pi * xh)) * (P * np.cos(w) - Q * np.sin(w))
    return out


def plane_wave_consistency(pg: PseudoGradientSpec, lam_norm: float,
                           eps: float = 1e-12, r_outer: float = 2e3,
                           panels_per_decade: int = 6) -> float:
    """Residual of the singular-integral form applied to a plane wave.

    Reduces the d-dimensional integral exactly over angles, leaving

        n_beta |lam|^beta Int_0^inf u^{-1-beta} A_d(u) du  =  |lam|^beta,

    with A_1(u) = 2 sin u and A_2(u) = 2 pi J_1(u); J_1, and the J_0 of the
    2-D tail term, come from `_bessel_j`.  The truncated radial integral is
    evaluated on oscillation-capped Gauss panels and corrected by the
    leading integration-by-parts tail term, so refinement in (eps, r_outer)
    drives the residual to zero at the |lam|^beta scale.
    """
    beta, d = pg.beta, pg.dim
    z0, z1 = eps * lam_norm, r_outer * lam_norm
    u, w = _panels(z0, z1, panels_per_decade, osc_scale=1.0)
    if d == 1:
        ang = 2.0 * np.sin(u)
        tail = 2.0 * (np.cos(z1) * z1 ** (-1 - beta)
                      + (1 + beta) * np.sin(z1) * z1 ** (-2 - beta))
    elif d == 2:
        ang = 2.0 * np.pi * _bessel_j(1, u)
        tail = 2.0 * np.pi * _bessel_j(0, z1) * z1 ** (-1 - beta)
    else:
        raise UnsupportedConfiguration("plane-wave reduction covers dim 1 and 2")
    Q = float((u ** (-1.0 - beta) * ang * w).sum()) + tail
    return lam_norm ** beta * abs(pg.normalizer * Q - 1.0)


def pseudo_gradient_g0(sym: SymbolSpec, pg: PseudoGradientSpec,
                       grid: SpaceTimeGrid, dt: float) -> np.ndarray:
    """Direct synthesis of the pseudo-gradient of g0 (component stack)."""
    return synthesize(grid, pg.multiplier(grid) * np.exp(-sym.on_grid(grid) * dt))


def chapman_defect(sym: SymbolSpec, grid: SpaceTimeGrid,
                   dt1: float, dt2: float) -> float:
    """Max-norm of g0(dt1) (*) g0(dt2) - g0(dt1 + dt2), lattice convolution."""
    from .grid import convolve
    a = sym.on_grid(grid)
    g1 = synthesize(grid, np.exp(-a * dt1))
    g2 = synthesize(grid, np.exp(-a * dt2))
    g12 = synthesize(grid, np.exp(-a * (dt1 + dt2)))
    return float(np.abs(convolve(grid, g1, g2) - g12).max())
