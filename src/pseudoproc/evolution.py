"""Two-parameter evolution operators and their verified properties.

The operator family acts on bounded continuous data by integration against
the perturbed kernel.  For spatially-constant drift the kernel itself is
available from the volterra module; for genuinely space-dependent drift the
kernel is no longer a function of the offset alone, so this module solves
the paired *function-level* system instead: the terminal-value unknown

    w(s, x) = w0(s, x) + Int_s^t dtau Int v0(s, x, tau, z) (b(tau, z), w(tau, z)) dz,
    w0(s, x) = Int v0(s, x, t, y) phi(y) dy,

followed by

    u(s, x) = Int g(s, x, t, y) phi(y) dy
            + Int_s^t dtau Int g(s, x, tau, z) (b(tau, z), w(tau, z)) dz,

both of which stay convolutional in z because g and v0 are translation
invariant.  Near tau = t the integrands inherit the (t - tau)^{-beta/alpha}
amplitude of w, so the terminal subinterval is integrated in the
substituted variable u = (t - tau)^{1 - beta/alpha} with the leading
(order-zero) part of w synthesized exactly at the sub-nodes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from .grid import SpaceTimeGrid, GridError, synthesize, analyze
from .symbols import SymbolSpec, PseudoGradientSpec
from .fields import ScalarKernelField, VectorKernelField
from .drift import DriftField, series_exponent
from .quadrature import lagrange_weights
from .volterra import ConvergenceMonitor, ConvergenceError, PerturbationProblem

_GL_X6, _GL_W6 = np.polynomial.legendre.leggauss(6)
_GL_X6 = 0.5 * (_GL_X6 + 1.0)
_GL_W6 = 0.5 * _GL_W6


@dataclass
class TestFunction:
    """Bounded continuous data for the evolution operators."""

    evaluator: Callable
    bound: float
    smoothness: str = "bounded-continuous"
    name: str = "phi"

    def __post_init__(self):
        if self.smoothness not in ("bounded-continuous", "smooth-compact"):
            raise ValueError(f"unknown smoothness tag {self.smoothness!r}")
        if self.bound <= 0:
            raise ValueError("bound must be positive")

    def sample(self, grid: SpaceTimeGrid) -> np.ndarray:
        vals = np.asarray(self.evaluator(*grid.mesh()), dtype=float)
        if vals.shape != grid.shape():
            vals = np.broadcast_to(vals, grid.shape()).copy()
        if not np.all(np.isfinite(vals)):
            raise ValueError("test function is not finite on the lattice")
        worst = float(np.abs(vals).max())
        if worst > self.bound * (1.0 + 1e-12):
            raise ValueError(
                f"|phi| reaches {worst:g}, above the declared bound {self.bound:g}")
        return vals


def constant_one(dim: int = 1) -> TestFunction:
    return TestFunction(lambda *xs: np.ones_like(xs[0]), 1.0, name="one")


def fourier_mode(freq: float, dim: int = 1) -> TestFunction:
    if dim == 1:
        ev = lambda x: np.cos(freq * x)
    else:
        ev = lambda x, y: np.cos(freq * x)
    return TestFunction(ev, 1.0, name=f"cos_{freq:g}")


def compact_bump(width: float, dim: int = 1) -> TestFunction:
    def ev(*xs):
        r2 = sum(np.asarray(x) ** 2 for x in xs) / width ** 2
        out = np.zeros_like(r2)
        inside = r2 < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
        return out
    return TestFunction(ev, 1.0, smoothness="smooth-compact",
                        name=f"bump_{width:g}")


def steep_step(scale: float, dim: int = 1) -> TestFunction:
    """tanh ramp, effectively a lattice jump for scale below the spacing."""
    if dim == 1:
        ev = lambda x: np.tanh(x / scale)
    else:
        ev = lambda x, y: np.tanh(x / scale)
    return TestFunction(ev, 1.0, name=f"step_{scale:g}")


# ---------------------------------------------------------------------------
# operator application on kernel fields
# ---------------------------------------------------------------------------

@dataclass
class EvolutionOperator:
    """One (s, t) member of the family, backed by a stored kernel slice."""

    kernel: ScalarKernelField
    pair: tuple

    def __post_init__(self):
        if self.pair not in self.kernel.values:
            raise GridError(f"kernel has no slice for the time pair {self.pair}")

    def apply(self, phi: TestFunction) -> np.ndarray:
        """u(s, x) = sum_y K(x - y) phi(y) dx^d via lattice convolution."""
        grid = self.kernel.grid
        samples = phi.sample(grid)
        K = self.kernel.spectrum(self.pair)
        return synthesize(grid, K * analyze(grid, samples),
                          require_real=True, tol=1e-6)

    def conserves_constants(self, tol: float = 5e-3) -> bool:
        one = constant_one(self.kernel.grid.dim)
        u = self.apply(one)
        return bool(np.abs(u - 1.0).max() <= tol)


def apply_operator(kernel: ScalarKernelField, pair, phi: TestFunction) -> np.ndarray:
    return EvolutionOperator(kernel, pair).apply(phi)


def operator_bound_constant(kernel: ScalarKernelField) -> float:
    """Fitted norm bound: max over pairs of the kernel's lattice L1 mass."""
    return max(float(np.abs(kernel.slice(k)).sum() * kernel.grid.cell_volume)
               for k in kernel.pairs())


@dataclass
class GeneratorAction:
    """Backward generator: action = -A + (b, pseudo-gradient).

    Sign convention: on a pure mode e^{i(lam, x)} the action multiplies by
    -a(lam) + i (b, lam) |lam|^{beta-1}, which makes the unperturbed
    evolution satisfy d/ds u + action(u) = 0 backward in s.  The drift term
    is evaluated pointwise in x, so space-dependent coefficients are fine.
    """

    sym: SymbolSpec
    pg: PseudoGradientSpec
    drift: DriftField

    def __call__(self, values: np.ndarray, t: float,
                 grid: SpaceTimeGrid) -> np.ndarray:
        F = analyze(grid, values)
        out = -synthesize(grid, self.sym.on_grid(grid) * F, require_real=True,
                          tol=1e-6)
        grads = np.stack([synthesize(grid, m * F, require_real=True, tol=1e-6)
                          for m in self.pg.multiplier(grid)])
        bvals = self.drift.sample(t, grid)
        return out + (bvals * grads).sum(axis=0)

    def mode_factor(self, lam_components: Sequence[float], t: float,
                    x: Sequence[float]) -> complex:
        """Exact multiplier on a plane wave at a point (for convention tests)."""
        lam = np.atleast_1d(np.asarray(lam_components, dtype=float))
        norm = float(np.sqrt((lam ** 2).sum()))
        a_val = complex(np.asarray(self.sym(*(np.array([c]) for c in lam))).ravel()[0])
        if self.drift.spatially_constant:
            bv = self.drift.at_time(t)
        else:
            mesh = [np.array([xx]) for xx in np.atleast_1d(x)]
            bv = np.asarray(self.drift.evaluator(t, *mesh), dtype=float).ravel()
        grad_sym = 1j * lam * norm ** (self.pg.beta - 1.0) if norm > 0 else 0.0 * lam
        return -a_val + complex(np.dot(bv, grad_sym))


# ---------------------------------------------------------------------------
# function-level terminal-value solver
# ---------------------------------------------------------------------------

class TerminalValueProblem:
    """Solve the paired (w, u) system for one terminal index and datum.

    Works for any admissible drift, including b(t, x) with genuine space
    dependence.  Slices are indexed by the partition; slice arrays live on
    the centered lattice.
    """

    def __init__(self, sym: SymbolSpec, pg: PseudoGradientSpec,
                 grid: SpaceTimeGrid, b: DriftField, phi: TestFunction,
                 terminal_index: Optional[int] = None):
        if grid.dim != sym.dim or grid.dim != pg.dim or grid.dim != b.dim:
            raise GridError("component dimensions differ")
        b.validate_exponent(sym.alpha)
        self.sym, self.pg, self.grid, self.b, self.phi = sym, pg, grid, b, phi
        self.j = grid.time_steps if terminal_index is None else terminal_index
        if not 1 <= self.j <= grid.time_steps:
            raise GridError("terminal index must lie on the partition")
        self.a = sym.on_grid(grid)
        self.mult = pg.multiplier(grid)
        self.times = grid.times()
        self.phi_hat = analyze(grid, phi.sample(grid))
        self.sigma2 = pg.beta / sym.alpha  # terminal amplitude exponent
        # vanishing rate of w - w0 at the terminal time: theta - beta/alpha
        theta = series_exponent(sym.alpha, pg.beta, grid.dim, b.p_exponent)
        self.remainder_power = max(theta - self.sigma2, 0.25)

    # exact leading objects at arbitrary times
    def w0_at(self, tau: float) -> np.ndarray:
        gap = self.times[self.j] - tau
        rows = self.mult * np.exp(-self.a * gap)[None]
        return np.stack([synthesize(self.grid, r * self.phi_hat,
                                    require_real=True, tol=1e-6) for r in rows])

    def base_apply(self, s: float) -> np.ndarray:
        gap = self.times[self.j] - s
        return synthesize(self.grid,
                          np.exp(-self.a * gap) * self.phi_hat,
                          require_real=True, tol=1e-6)

    def _conv_kernel(self, spec_row: np.ndarray, pairing: np.ndarray) -> np.ndarray:
        """IFFT[ spec_row * FFT(pairing) ]; pairing is a centered scalar field."""
        P = analyze(self.grid, pairing)
        if spec_row.ndim == self.grid.dim:   # scalar kernel
            return synthesize(self.grid, spec_row * P,
                              require_real=True, tol=1e-6)
        return np.stack([synthesize(self.grid, r * P,
                                    require_real=True, tol=1e-6)
                         for r in spec_row])

    def _pairing(self, tau: float, w_val: np.ndarray) -> np.ndarray:
        bv = self.b.sample(tau, self.grid)
        return (bv * w_val).sum(axis=0)

    def _interior_weights(self, i: int):
        """Nodes m = i+1 .. j-1 and weights for the terminal-weighted rule.

        Integrates (t - tau)^{-sigma2} times the piecewise-linear
        interpolant of H = F (t - tau)^{sigma2} exactly; end panels extend H
        by its nearest value.
        """
        t = self.times[self.j]
        ms = np.arange(i + 1, self.j)
        if len(ms) == 0:
            return ms, np.zeros(0)
        taus = self.times[ms]
        s2 = self.sigma2

        def mom(ul, uh, k):
            # Int_{ul}^{uh} u^{k - s2} du in the variable u = t - tau
            e = k - s2 + 1.0
            return (uh ** e - ul ** e) / e

        w = np.zeros(len(ms))
        for seg in range(len(ms) - 1):
            ta, tb = taus[seg], taus[seg + 1]
            ua, ub = t - tb, t - ta
            m0 = mom(ua, ub, 0.0)
            m1 = mom(ua, ub, 1.0)
            w[seg] += (m1 - ua * m0) / (ub - ua)       # weight on H(ta)
            w[seg + 1] += (ub * m0 - m1) / (ub - ua)   # weight on H(tb)
        return ms, w

    def _terminal_interval(self, i: int, kernel_hat: Callable,
                           r_anchor: np.ndarray) -> np.ndarray:
        """Integral over [t_{j-1}, t_j] (or the whole [t_i, t_j] when adjacent).

        The order-zero part of w is synthesized exactly at substituted Gauss
        nodes; the remainder is interpolated linearly to zero from its value
        at t_{j-1}.
        """
        t = self.times[self.j]
        lo = self.times[max(self.j - 1, i)]
        s = self.times[i]
        s2 = self.sigma2
        umax = (t - lo) ** (1.0 - s2)
        acc = None
        for uq, wq in zip(umax * _GL_X6, _GL_W6):
            tau = t - uq ** (1.0 / (1.0 - s2))
            tau = min(max(tau, lo), t - 1e-300)
            wval = self.w0_at(tau) + \
                r_anchor * ((t - tau) / (t - lo)) ** self.remainder_power
            F = self._conv_kernel(kernel_hat(tau - s), self._pairing(tau, wval))
            # d tau = (1/(1-s2)) u^{s2/(1-s2)} du and F carries u^{-s2/(1-s2)}
            contrib = wq * umax * (1.0 / (1.0 - s2)) * uq ** (s2 / (1.0 - s2)) * F
            acc = contrib if acc is None else acc + contrib
        return acc

    def _start_interval(self, i: int, kernel_hat: Callable,
                        w_slices: Dict[int, np.ndarray]) -> np.ndarray:
        """Gauss rule on [t_i, t_{i+1}] with w interpolated through its slices."""
        s = self.times[i]
        dt = self.grid.dt
        ms = sorted(w_slices.keys())
        taus = np.array([self.times[m] for m in ms])
        stack = [w_slices[m] for m in ms]
        acc = None
        for q, wq in zip(s + dt * np.array(_GL_X6), _GL_W6):
            k0, lw = lagrange_weights(taus, q)
            wval = sum(c * stack[k0 + ii] for ii, c in enumerate(lw))
            F = self._conv_kernel(kernel_hat(q - s), self._pairing(q, wval))
            contrib = wq * dt * F
            acc = contrib if acc is None else acc + contrib
        return acc

    def _sweep_integral(self, i: int, kernel_hat: Callable,
                        w_slices: Dict[int, np.ndarray]) -> np.ndarray:
        """Full quadrature of Int_{t_i}^{t_j} kernel(tau - t_i) (b, w(tau)) dtau."""
        t = self.times[self.j]
        r_anchor = w_slices[self.j - 1] - self.w0_at(self.times[self.j - 1])
        total = self._terminal_interval(i, kernel_hat, r_anchor)
        if self.j - i == 1:
            return total
        ms, wH = self._interior_weights(i)
        for m, wm in zip(ms, wH):
            tau = self.times[m]
            F = self._conv_kernel(kernel_hat(tau - self.times[i]),
                                  self._pairing(tau, w_slices[m]))
            H = F * (t - tau) ** self.sigma2
            total = total + wm * H
        # the interior rule covers [t_{i+1}, t_{j-1}]; add [t_i, t_{i+1}]
        total = total + self._start_interval(i, kernel_hat, w_slices)
        return total

    def _v0_hat(self, gap: float) -> np.ndarray:
        return self.mult * np.exp(-self.a * gap)[None]

    def _g_hat(self, gap: float) -> np.ndarray:
        return np.exp(-self.a * gap)

    def solve_w(self, monitor: Optional[ConvergenceMonitor] = None,
                sweeps: Optional[int] = None) -> Dict[int, np.ndarray]:
        """Picard iteration for the w slices at indices i < terminal.

        A fixed sweep count bypasses the stopping logic (the sweep map is
        linear in the terminal datum, so equal counts preserve superposition
        exactly).
        """
        if monitor is None:
            monitor = ConvergenceMonitor.for_problem(
                self.sym.alpha, self.pg.beta, self.grid.dim, self.b.p_exponent)
        self.monitor = monitor
        w = {i: self.w0_at(self.times[i]) for i in range(self.j)}
        if self.b.is_zero():
            return w
        import time as _t
        for _ in range(sweeps if sweeps is not None else monitor.max_iter):
            t0 = _t.perf_counter()
            new = {}
            for i in range(self.j):
                new[i] = self.w0_at(self.times[i]) + \
                    self._sweep_integral(i, self._v0_hat, w)
            inc = max(float(np.sqrt(((new[i] - w[i]) ** 2).sum(axis=0)).max())
                      for i in new)
            monitor.record(inc, _t.perf_counter() - t0)
            w = new
            if sweeps is None and monitor.converged:
                return w
        if sweeps is not None:
            return w
        raise ConvergenceError(
            f"terminal-value sweep failed after {monitor.max_iter} iterations",
            monitor.iterate_norms, monitor.ratio_history)

    def assemble_u(self, w: Dict[int, np.ndarray]) -> Dict[int, np.ndarray]:
        """u slices for i < terminal from converged w."""
        out = {}
        for i in range(self.j):
            u = self.base_apply(self.times[i])
            if not self.b.is_zero():
                u = u + self._sweep_integral(i, self._g_hat, w)
            out[i] = u
        return out

    def solve(self, monitor: Optional[ConvergenceMonitor] = None
              ) -> Dict[int, np.ndarray]:
        return self.assemble_u(self.solve_w(monitor))


# ---------------------------------------------------------------------------
# property checks
# ---------------------------------------------------------------------------

def check_evolution_property(G: ScalarKernelField, s: int, u: int, t: int,
                             phi: TestFunction) -> float:
    """Sup norm of T_su(T_ut phi) - T_st phi on the stored kernel."""
    if not s < u < t:
        raise GridError("need strictly increasing time indices s < u < t")
    grid = G.grid
    inner = apply_operator(G, (u, t), phi)
    mid = TestFunction(lambda *xs: inner, float(np.abs(inner).max()) + 1e-300,
                       name="composed")
    lhs = apply_operator(G, (s, u), mid)
    rhs = apply_operator(G, (s, t), phi)
    return float(np.abs(lhs - rhs).max())


@dataclass
class DecayTable:
    gaps: np.ndarray
    errors: np.ndarray

    @property
    def monotone(self) -> bool:
        # decay toward s = t: errors shrink with the gap (table is gap-ascending)
        return bool(np.all(np.diff(self.errors) >= -(1e-12 + 1e-9 * self.errors[1:])))

    def fitted_exponent(self) -> float:
        good = self.errors > 0
        return float(np.polyfit(np.log(self.gaps[good]),
                                np.log(self.errors[good]), 1)[0])


def check_identity_limit(G: ScalarKernelField, phi: TestFunction,
                         probe_mask: Optional[np.ndarray] = None) -> DecayTable:
    """Table of sup_probe |T_st phi - phi| over shrinking gaps (s -> t fixed)."""
    grid = G.grid
    t_idx = max(j for (_, j) in G.pairs())
    samples = phi.sample(grid)
    if probe_mask is None:
        from .grid import interior_mask
        probe_mask = interior_mask(grid, margin=0.2)
    gaps, errs = [], []
    for (i, j) in sorted(G.pairs(), key=lambda p: p[1] - p[0]):
        if j != t_idx:
            continue
        u = apply_operator(G, (i, j), phi)
        gaps.append(G.gap((i, j)))
        errs.append(float(np.abs(u - samples)[probe_mask].max()))
    order = np.argsort(gaps)
    return DecayTable(np.asarray(gaps)[order], np.asarray(errs)[order])


def identity_limit_floor(alpha: float, beta: float, dim: int, p: float) -> float:
    """Decay exponent of the perturbation remainder, 1 - q beta/alpha - (q-1) d/alpha."""
    q = 1.0 if math.isinf(p) else p / (p - 1.0)
    return 1.0 - q * beta / alpha - (q - 1.0) * dim / alpha


def cauchy_residual(u_slices: Dict[int, np.ndarray], gen: GeneratorAction,
                    grid: SpaceTimeGrid, bulk_margin: float = 0.2) -> float:
    """Max-norm of d/ds u + action(u) over interior slices and the bulk region.

    The s-derivative uses the central difference on the partition, so the
    first and the two last slices are excluded (the terminal slice does not
    exist as data).
    """
    from .grid import interior_mask
    idx = sorted(u_slices.keys())
    if len(idx) < 3:
        raise GridError("need at least three stored slices for the stencil")
    mask = interior_mask(grid, margin=bulk_margin)
    ds = grid.dt
    worst = 0.0
    for pos in range(1, len(idx) - 1):
        i = idx[pos]
        if idx[pos - 1] != i - 1 or idx[pos + 1] != i + 1:
            continue
        dds = (u_slices[i + 1] - u_slices[i - 1]) / (2.0 * ds)
        r = dds + gen(u_slices[i], grid.times()[i], grid)
        worst = max(worst, float(np.abs(r[mask]).max()))
    return worst


@dataclass
class StabilityRow:
    label: str
    drift_distance: float
    kernel_distance: float

    @property
    def ratio(self) -> float:
        return self.kernel_distance / self.drift_distance


def generalized_solution_stability(sym: SymbolSpec, pg: PseudoGradientSpec,
                                   grid: SpaceTimeGrid,
                                   drift_pairs, phi: TestFunction,
                                   stop_tol: float = 1e-8):
    """Stability table ||G_tilde - G_hat||_inf vs ||b_tilde - b_hat||_p.

    drift_pairs is an iterable of (label, b_tilde, b_hat); members must be
    spatially constant (the kernel-level comparison of the bound).  Raises
    with the failing index if any member does not converge.
    """
    rows = []
    for label, b1, b2 in drift_pairs:
        dist = b1.difference_lp_norm(b2, grid)
        kernels = []
        for which, bb in (("first", b1), ("second", b2)):
            try:
                prob = PerturbationProblem(sym, pg, grid, bb)
                mon = ConvergenceMonitor.for_problem(sym.alpha, pg.beta,
                                                     grid.dim, bb.p_exponent,
                                                     stop_tol=stop_tol)
                kernels.append(prob.solve_v(mon))
            except ConvergenceError as err:
                raise ConvergenceError(
                    f"member {which!r} of pair {label!r} did not converge",
                    err.norms, err.ratios, err.spectral_radius) from err
        worst = 0.0
        for k in kernels[0]:
            diff = kernels[0][k] - kernels[1][k]
            spatial = np.abs(np.fft.ifftn(diff)) / grid.cell_volume
            worst = max(worst, float(spatial.max()))
        rows.append(StabilityRow(label, dist, worst))
    return rows


@dataclass
class LipschitzReport:
    gaps: np.ndarray
    quotients: np.ndarray
    fitted_exponent: float
    predicted_exponent: float
    tolerance: float = 0.15

    @property
    def passed(self) -> bool:
        return abs(self.fitted_exponent - self.predicted_exponent) <= self.tolerance


def check_w_lipschitz(v: VectorKernelField, phi: TestFunction,
                      alpha: float, beta: float) -> LipschitzReport:
    """Fit the time-gap exponent of the Lipschitz quotient of w(s, ., t, phi).

    w is assembled from the stored vector kernel by pairing with phi; the
    quotient max_x |w(x + dx) - w(x)| / dx over the bulk is fitted against
    the gap, with predicted exponent -(beta + 1)/alpha.
    """
    grid = v.grid
    if grid.dim != 1:
        raise NotImplementedError("the quotient fit probes the 1-d lattice")
    from .grid import interior_mask, convolve
    samples = phi.sample(grid)
    mask = interior_mask(grid, margin=0.2)
    t_idx = max(j for (_, j) in v.pairs())
    gaps, quotients = [], []
    for (i, j) in sorted(v.pairs(), key=lambda p: p[1] - p[0]):
        if j != t_idx:
            continue
        w = convolve(grid, v.slice((i, j))[0], samples)
        q = np.abs(np.diff(w)) / grid.dx
        gaps.append(v.gap((i, j)))
        quotients.append(float(q[mask[:-1]].max()))
    order = np.argsort(gaps)
    gaps = np.asarray(gaps)[order]
    quotients = np.asarray(quotients)[order]
    fit = float(np.polyfit(np.log(gaps), np.log(quotients), 1)[0])
    return LipschitzReport(gaps, quotients, fit, -(beta + 1.0) / alpha)


def terminal_average_of_ones(v: VectorKernelField) -> float:
    """Sup over pairs of |sum_y v(.,y) dx^d|; vanishes for the series solution."""
    worst = 0.0
    for k in v.pairs():
        sums = v.slice(k).sum(axis=tuple(range(1, v.grid.dim + 1)))
        worst = max(worst, float(np.abs(sums).max() * v.grid.cell_volume))
    return worst
