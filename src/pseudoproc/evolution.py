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

Both integrals are summed in Fourier space: a Picard sweep analyses the
pairing P = (b, w) once per quadrature time, accumulates per start index
the scalar spectrum E_i = sum of weight * exp(-a (tau - t_i)) * P_hat(tau)
and synthesizes u(t_i) from it, and w(t_i) from the multiplier times it
(v0's spectrum is the multiplier times g's).
"""
from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Dict, Iterator, Optional, Sequence

import numpy as np

from .grid import SpaceTimeGrid, GridError, synthesize, analyze
from .symbols import SymbolSpec, PseudoGradientSpec
from .fields import ScalarKernelField, VectorKernelField
from .drift import DriftField, series_exponent
from .quadrature import gauss_panels, lagrange_weights
from .volterra import ConvergenceMonitor, ConvergenceError, PerturbationProblem


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
        # -A u and the d pseudo-gradient components in one batched synthesis
        fields = synthesize(grid, np.concatenate(
            [(self.sym.on_grid(grid) * F)[None], self.pg.multiplier(grid) * F]),
            require_real=True, tol=1e-6)
        bvals = self.drift.sample(t, grid)
        return -fields[0] + (bvals * fields[1:]).sum(axis=0)

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
    def _decay(self, gaps) -> np.ndarray:
        """exp(-a gap) for each gap, shape (len(gaps),) + grid shape."""
        gaps = np.asarray(gaps, dtype=float)
        return np.exp(-self.a * gaps.reshape((-1,) + (1,) * self.grid.dim))

    def _datum_spectra(self, taus) -> np.ndarray:
        """Spectra of u0(tau) = Int g(tau, x, t, y) phi(y) dy at each tau."""
        return self._decay(self.times[self.j] - np.asarray(taus)) * self.phi_hat

    def w0_at(self, taus) -> np.ndarray:
        """w0 slices at the times taus, shape (len(taus), d) + grid shape."""
        return synthesize(self.grid, self.mult * self._datum_spectra(taus)[:, None],
                          require_real=True, tol=1e-6)

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

    def _drift_at(self, taus) -> np.ndarray:
        """Drift samples at the times taus, shape (len(taus), d) + grid shape."""
        return np.stack([self.b.sample(tau, self.grid) for tau in taus])

    @functools.cached_property
    def _rule(self) -> SimpleNamespace:
        """What no sweep changes: nodes, weights, drift samples, exp(-a gap).

        Int_{t_i}^{t_j} has a terminal panel [t_{j-1}, t_j] (all of it when
        i = j-1; 6-point Gauss in u = (t - tau)^{1 - sigma2}, w = w0 plus the
        remainder at t_{j-1} ramped to zero), the interior [t_{i+1}, t_{j-1}]
        and a start panel [t_i, t_{i+1}] (6-point Gauss, w by Lagrange).
        The drift at the start-panel nodes is sampled per start index in
        each sweep instead: kept, it would take 6 (j-1) fields per component.
        """
        grid, j, s2 = self.grid, self.j, self.sigma2
        t, lo = self.times[j], self.times[j - 1]

        def weighted_decay(weights, gaps):
            return weights.reshape((-1,) + (1,) * grid.dim) * self._decay(gaps)

        (u,), (wu,) = gauss_panels(np.array([0.0, (t - lo) ** (1.0 - s2)]), 6)
        tau = np.clip(t - u ** (1.0 / (1.0 - s2)), lo, t - 1e-300)
        # d tau = (1/(1-s2)) u^{s2/(1-s2)} du and f carries u^{-s2/(1-s2)}
        wt = wu / (1.0 - s2) * u ** (s2 / (1.0 - s2))
        rule = SimpleNamespace(
            decay=self._decay(self.times),      # exp(-a gap) by gap index
            b_term=self._drift_at(tau), w0_term=self.w0_at(tau),
            ramp=((t - tau) / (t - lo)) ** self.remainder_power,
            w0_anchor=self.w0_at([lo])[0],
            term_weight=weighted_decay(wt, tau - lo))
        if j > 1:   # interior and start panels exist for i < j - 1
            rule.b_inner = self._drift_at(self.times[1:j])
            rule.inner_weight = np.zeros((j - 1, j - 1))
            for i in range(j - 1):
                ms, w = self._interior_weights(i)
                rule.inner_weight[i, ms - 1] = w * (t - self.times[ms]) ** s2
            nodes, ws = gauss_panels(self.times[:j], 6)
            picks = [[lagrange_weights(self.times[:j], q) for q in row]
                     for row in nodes]
            # a panel's nodes lie inside one step, so they share one stencil
            rule.start_nodes = nodes
            rule.start_k0 = [row[0][0] for row in picks]
            rule.lagrange = np.array([[w for _, w in row] for row in picks])
            rule.start_weight = weighted_decay(ws[0], nodes[0] - self.times[0])
        return rule

    def _u_spectra(self, W: np.ndarray) -> Iterator[np.ndarray]:
        """Spectra of u(t_i) for i = 0 .. j-1, given w slices W (shape (j, d) + grid).

        Spectrum i is exp(-a (t - t_i)) phi_hat plus E_i, the rule's sum of
        weight * exp(-a (tau - t_i)) * P_hat(tau) with P = (b, w).  Each
        pairing is analysed once per call.  u(t_i) is the synthesis of
        spectrum i and, since v0_hat = multiplier * g_hat, the next w(t_i) is
        the synthesis of multiplier * spectrum i.
        """
        j, grid = self.j, self.grid
        if self.b.is_zero():
            yield from self._datum_spectra(self.times[:j])
            return
        r = self._rule
        w_term = r.w0_term + np.multiply.outer(r.ramp, W[j - 1] - r.w0_anchor)
        terminal = (r.term_weight *
                    analyze(grid, (r.b_term * w_term).sum(axis=1))).sum(axis=0)
        inner = analyze(grid, (r.b_inner * W[1:]).sum(axis=1)) if j > 1 else None
        for i in range(j):
            # exp(-a (tau - t_i)) = exp(-a (t_{j-1} - t_i)) exp(-a (tau - t_{j-1}))
            E = r.decay[j - 1 - i] * terminal
            if i < j - 1:
                E = E + np.einsum("m,m...,m...->...", r.inner_weight[i, i:],
                                  r.decay[1:j - i], inner[i:])
                k0 = r.start_k0[i]
                w = np.tensordot(r.lagrange[i], W[k0:k0 + r.lagrange.shape[2]], 1)
                b = self._drift_at(r.start_nodes[i])
                start = analyze(grid, (b * w).sum(axis=1))
                E = E + (r.start_weight * start).sum(axis=0)
            yield r.decay[j - i] * self.phi_hat + E

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
        W = self.w0_at(self.times[:self.j])
        if self.b.is_zero():
            return dict(enumerate(W))
        for _ in range(sweeps if sweeps is not None else monitor.max_iter):
            t0 = time.perf_counter()
            new = np.stack([synthesize(self.grid, self.mult * S,
                                       require_real=True, tol=1e-6)
                            for S in self._u_spectra(W)])
            inc = float(np.sqrt(((new - W) ** 2).sum(axis=1)).max())
            monitor.record(inc, time.perf_counter() - t0)
            W = new
            if sweeps is None and monitor.converged:
                return dict(enumerate(W))
        if sweeps is not None:
            return dict(enumerate(W))
        raise ConvergenceError(
            f"terminal-value sweep failed after {monitor.max_iter} iterations",
            monitor.iterate_norms, monitor.ratio_history)

    def assemble_u(self, w: Dict[int, np.ndarray]) -> Dict[int, np.ndarray]:
        """u slices for i < terminal from converged w."""
        W = np.stack([w[i] for i in range(self.j)])
        return {i: synthesize(self.grid, S, require_real=True, tol=1e-6)
                for i, S in enumerate(self._u_spectra(W))}

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
    spatially constant (the kernel-level comparison of the bound).  A drift
    object that appears in several pairs is solved once.  Raises with the
    failing index if any member does not converge.
    """
    rows, solved = [], {}   # id(drift) -> (drift, G rows); the drift holds its id
    for label, b1, b2 in drift_pairs:
        dist = b1.difference_lp_norm(b2, grid)
        for which, bb in (("first", b1), ("second", b2)):
            if id(bb) in solved:
                continue
            try:
                prob = PerturbationProblem(sym, pg, grid, bb)
                mon = ConvergenceMonitor.for_problem(sym.alpha, pg.beta,
                                                     grid.dim, bb.p_exponent,
                                                     stop_tol=stop_tol)
                solved[id(bb)] = (bb, prob.solve_v(mon))
            except ConvergenceError as err:
                raise ConvergenceError(
                    f"member {which!r} of pair {label!r} did not converge",
                    err.norms, err.ratios, err.spectral_radius) from err
        worst = 0.0
        G1, G2 = solved[id(b1)][1], solved[id(b2)][1]
        for j in range(1, grid.time_steps + 1):  # one transform per j
            spatial = np.fft.ifftn(G1[j] - G2[j], axes=tuple(range(1, G1[j].ndim)))
            worst = max(worst, float((np.abs(spatial) / grid.cell_volume).max()))
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
