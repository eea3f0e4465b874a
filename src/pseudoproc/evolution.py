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
invariant.  Per Fourier mode, with P = (b, w) and a the symbol,

    u_hat(t_i) = exp(-a (t - t_i)) phi_hat + Int_{t_i}^t exp(-a (tau - t_i)) P_hat(tau) dtau,

and w(t_i) is the synthesis of the multiplier times u_hat(t_i) (v0's
spectrum is the multiplier times g's).  `quadrature` integrates the
exponential exactly against a Lagrange interpolant of P_hat whose stencils
stay inside [t_i, t], so u(t_i) depends on P at t_i and later nodes
alone: `TerminalValueProblem` marches backward from t once, one
fixed-point solve per node, and u is its own iterate: the last spectrum
at t_i, which the multiplier turns into w(t_i), is u_hat(t_i).  The four
nodes nearest t take direct weights; as exp(-a (tau - t_i)) is
exp(-a dt) exp(-a (tau - t_{i+1})), every earlier spectrum carries the
next one plus five local weights on P(t_i..t_{i+4}).  Near tau = t, w
inherits the (t - tau)^{-beta/alpha} amplitude of its leading part w0, so
the terminal step integrates (b, w0) exactly at the Gauss nodes of
u = (t - tau)^{1 - beta/alpha}, and only the remainder (b, w - w0), which
vanishes at t, is interpolated there.
"""
from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from .grid import (SpaceTimeGrid, GridError, synthesize, analyze, convolve,
                   interior_mask, real_part)
from .symbols import SymbolSpec, PseudoGradientSpec
from .fields import KernelField
from .drift import DriftField
from .quadrature import (gauss_panels, exponential_tables, interval_rule,
                         carry_weights)
from .volterra import ConvergenceMonitor, ConvergenceError, PerturbationProblem

# imaginary-residue tolerance of a synthesized function-level field (u, w, an
# operator's image); kernels keep the synthesis default
FUNCTION_RESIDUE_TOL = 1e-6


@dataclass
class TestFunction:
    """Bounded continuous data for the evolution operators."""

    evaluator: Callable
    bound: float
    name: str = "phi"

    def __post_init__(self):
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


def constant_one() -> TestFunction:
    return TestFunction(lambda *xs: np.ones_like(xs[0]), 1.0, name="one")


def fourier_mode(freq: float) -> TestFunction:
    """cos(freq x_0), in every dimension."""
    return TestFunction(lambda x, *rest: np.cos(freq * x), 1.0,
                        name=f"cos_{freq:g}")


def compact_bump(width: float) -> TestFunction:
    def ev(*xs):
        r2 = sum(np.asarray(x) ** 2 for x in xs) / width ** 2
        out = np.zeros_like(r2)
        inside = r2 < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
        return out
    return TestFunction(ev, 1.0, name=f"bump_{width:g}")


def steep_step(scale: float) -> TestFunction:
    """tanh ramp in x_0, a lattice jump for scale below the spacing."""
    return TestFunction(lambda x, *rest: np.tanh(x / scale), 1.0,
                        name=f"step_{scale:g}")


# ---------------------------------------------------------------------------
# operator application on kernel fields
# ---------------------------------------------------------------------------

@dataclass
class EvolutionOperator:
    """One (s, t) member of the family, backed by a stored kernel slice."""

    kernel: KernelField
    pair: tuple

    def __post_init__(self):
        if not self.kernel.holds(self.pair):
            raise GridError(f"kernel has no slice for the time pair {self.pair}")

    def apply(self, phi: TestFunction) -> np.ndarray:
        """u(s, x) = sum_y K(x - y) phi(y) dx^d via lattice convolution."""
        grid = self.kernel.grid
        samples = phi.sample(grid)
        K = self.kernel.spectrum(self.pair)
        return synthesize(grid, K * analyze(grid, samples),
                          require_real=True, tol=FUNCTION_RESIDUE_TOL)


def apply_operator(kernel: KernelField, pair, phi: TestFunction) -> np.ndarray:
    return EvolutionOperator(kernel, pair).apply(phi)


def operator_bound_constant(kernel: KernelField) -> float:
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
            require_real=True, tol=FUNCTION_RESIDUE_TOL)
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

# fixed-point iterations a march step may take before it counts as divergent
_STEP_ITERATIONS = 50


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
        self.a = np.real_if_close(sym.on_grid(grid))
        self.mult = pg.multiplier(grid)
        self.times = grid.times()
        self.phi_hat = analyze(grid, phi.sample(grid))
        self._spectra = None                  # u's spectra, once marched

    # exact leading objects at arbitrary times
    def _decay(self, gaps) -> np.ndarray:
        """exp(-a gap) for each gap, shape (len(gaps),) + grid shape."""
        gaps = np.asarray(gaps, dtype=float)
        return np.exp(-self.a * gaps.reshape((-1,) + (1,) * self.grid.dim))

    def w0_at(self, taus) -> np.ndarray:
        """w0 slices at the times taus, shape (len(taus), d) + grid shape."""
        u0 = self._decay(self.times[self.j] - np.asarray(taus)) * self.phi_hat
        return synthesize(self.grid, self.mult * u0[:, None],
                          require_real=True, tol=FUNCTION_RESIDUE_TOL)

    def _drift_at(self, taus) -> np.ndarray:
        """Drift samples at the times taus, shape (len(taus), d) + grid shape."""
        return np.stack([self.b.sample(tau, self.grid) for tau in taus])

    def _pairing(self, b: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Spectrum of (b, w), for one slice or a stack of them."""
        return analyze(self.grid, (b * w).sum(axis=-self.grid.dim - 1))

    @functools.cached_property
    def _rule(self) -> SimpleNamespace:
        """What every step of the march shares: the drift at t_0 .. t_{j-1}
        and at the six Gauss nodes in u = (t - tau)^{1 - s2} of [t_{j-1}, t],
        which integrate P0 = (b, w0) with w0 exact; P0 at the four nodes
        nearest t, w0 at t_{j-1}, the datum term plus that panel, weights."""
        grid, j = self.grid, self.j
        s2 = self.pg.beta / self.sym.alpha    # terminal amplitude exponent
        t, lo = self.times[j], self.times[j - 1]
        (u,), (wu,) = gauss_panels(np.array([0.0, (t - lo) ** (1.0 - s2)]), 6)
        tau = np.clip(t - u ** (1.0 / (1.0 - s2)), lo, t - 1e-300)
        # d tau = (1/(1-s2)) u^{s2/(1-s2)} du and f carries u^{-s2/(1-s2)}
        wt = wu / (1.0 - s2) * u ** (s2 / (1.0 - s2))
        panel = np.tensordot(wt, self._decay(tau - lo) * self._pairing(
            self._drift_at(tau), self.w0_at(tau)), 1)
        z, b = self.a * grid.dt, self._drift_at(self.times[:j])
        tables, e = exponential_tables(z, grid.dt), np.exp(-z)
        w0 = self.w0_at(self.times[max(j - 4, 0):j])
        return SimpleNamespace(
            b=b, e=e, P0=self._pairing(b[j - len(w0):], w0), w0_last=w0[-1],
            direct=[interval_rule(lambda table, r: np.exp(-z * r) * tables[table],
                                  n) for n in range(len(w0) + 1)],
            carry=carry_weights(tables, tables, e),
            carried=self._decay([t - lo])[0] * self.phi_hat + panel)

    def solve_w(self, monitor: Optional[ConvergenceMonitor] = None
                ) -> Dict[int, np.ndarray]:
        """March the w slices backward from i = terminal - 1 down to 0.

        Spectrum i, that of u(t_i), is what later nodes give plus a weight
        times P(t_i) = (b, w)(t_i), so w(t_i), the synthesis of multiplier *
        spectrum i, depends on itself through P(t_i) alone.  Fixed-point
        iteration solves each step to an increment (lattice sup norm) below
        monitor.stop_tol, and the accepted iterate passes the imaginary-
        residue check; the monitor records the largest final increment.
        Each node's last spectrum is kept for `assemble_u`."""
        if monitor is None:
            monitor = ConvergenceMonitor()
        self.monitor = monitor
        start = time.perf_counter()
        r, tol, j = self._rule, monitor.stop_tol, self.j
        spectra = np.empty((j,) + self.a.shape, complex)
        W = np.empty((j,) + r.w0_last.shape)
        w, worst, P = r.w0_last, 0.0, []      # w0(t_{j-1}) starts the march
        for i, n in zip(range(j - 1, -1, -1), range(1, j + 1)):
            if n > 4:                          # carry spectrum i + 1
                known, weights = r.e * spectra[i + 1], r.carry
            else:   # the datum term and the panel, P0 to t_{j-1}, P - P0 (0 at t) to t
                weights, before = r.direct[n], r.direct[n - 1]
                known = r.e ** (n - 1) * r.carried + np.einsum(
                    "l...,l...->...", before - weights[:-1], r.P0[-n:])
            for c, p in zip(weights[1:], P):   # P: (b, w) after t_i, nearest first
                known += c * p
            for _ in range(_STEP_ITERATIONS):
                p = self._pairing(r.b[i], w)
                spectra[i] = known + weights[0] * p
                field = synthesize(self.grid, self.mult * spectra[i],
                                   require_real=False)
                new = field.real
                inc = float(np.sqrt(((new - w) ** 2).sum(axis=0)).max())
                w = new
                if not inc >= tol:             # converged, or not finite
                    break
            real_part(self.grid, field, tol=FUNCTION_RESIDUE_TOL)
            worst = max(worst, inc)
            if not inc < tol:
                monitor.record(inc, time.perf_counter() - start)
                # |m|max bounds (b, multiplier) over nodes, space and modes
                m = (np.linalg.norm(r.b, axis=1).max()
                     * np.linalg.norm(self.mult, axis=0).max())
                raise ConvergenceError(
                    f"terminal-value step {i} did not contract: increment "
                    f"{inc:.3e} after at most {_STEP_ITERATIONS} iterations "
                    f"(needs < {tol:g}) at |m|max * dt = {m * self.grid.dt:.3g}:"
                    " the drift is too large for this time step",
                    monitor.iterate_norms)
            W[i], P = w, [p] + P[:3]
        monitor.record(worst, time.perf_counter() - start)
        self._spectra = spectra
        return dict(enumerate(W))

    def assemble_u(self) -> Dict[int, np.ndarray]:
        """u slices for i < terminal, synthesized from the spectra of the
        march that produced w (w is the multiplier times each of them)."""
        if self._spectra is None:
            raise RuntimeError("assemble_u needs a march: call solve_w first")
        return dict(enumerate(synthesize(self.grid, self._spectra, require_real=True,
                                         tol=FUNCTION_RESIDUE_TOL)))

    def solve(self, monitor: Optional[ConvergenceMonitor] = None
              ) -> Dict[int, np.ndarray]:
        self.solve_w(monitor)
        return self.assemble_u()


# ---------------------------------------------------------------------------
# property checks
# ---------------------------------------------------------------------------

def check_evolution_property(G: KernelField, s: int, u: int, t: int,
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


def check_identity_limit(G: KernelField, phi: TestFunction) -> DecayTable:
    """Table of sup |T_st phi - phi| over shrinking gaps (s -> t fixed),
    the sup taken over the lattice points off the outer 20% of the box."""
    grid = G.grid
    j = len(G.stacks) - 1
    samples = phi.sample(grid)
    probe_mask = interior_mask(grid, margin=0.2)
    gaps, errs = [], []
    for i in reversed(range(len(G.stacks[j]))):     # increasing gap
        u = apply_operator(G, (i, j), phi)
        gaps.append(G.gap((i, j)))
        errs.append(float(np.abs(u - samples)[probe_mask].max()))
    return DecayTable(np.asarray(gaps), np.asarray(errs))


def identity_limit_floor(alpha: float, beta: float, dim: int, p: float) -> float:
    """Decay exponent of the perturbation remainder, 1 - q beta/alpha - (q-1) d/alpha."""
    q = 1.0 if math.isinf(p) else p / (p - 1.0)
    return 1.0 - q * beta / alpha - (q - 1.0) * dim / alpha


def cauchy_residual(u_slices: Dict[int, np.ndarray], gen: GeneratorAction,
                    grid: SpaceTimeGrid) -> float:
    """Max-norm of d/ds u + action(u) over interior slices and the bulk region
    (the box without its outer 20%).

    The s-derivative uses the central difference on the partition, so the
    first and the two last slices are excluded (the terminal slice does not
    exist as data).
    """
    idx = sorted(u_slices.keys())
    if len(idx) < 3:
        raise GridError("need at least three stored slices for the stencil")
    mask = interior_mask(grid, margin=0.2)
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
                                   drift_pairs, stop_tol: float = 1e-8):
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
                mon = ConvergenceMonitor(stop_tol=stop_tol)
                solved[id(bb)] = (bb, prob.solve_v(mon))
            except ConvergenceError as err:
                raise ConvergenceError(
                    f"member {which!r} of pair {label!r} did not converge",
                    err.norms, err.spectral_radius) from err
        # _defect reads its problem's grid, and its drift only to choose the
        # j = M path, which gives the same value: any member's problem serves
        worst = prob._defect(solved[id(b1)][1], solved[id(b2)][1])
        rows.append(StabilityRow(label, dist, float(worst)))
    return rows


@dataclass
class LipschitzReport:
    gaps: np.ndarray
    quotients: np.ndarray
    fitted_exponent: float
    predicted_exponent: float

    @property
    def passed(self) -> bool:
        return abs(self.fitted_exponent - self.predicted_exponent) <= 0.15


def check_w_lipschitz(v: KernelField, phi: TestFunction,
                      alpha: float, beta: float) -> LipschitzReport:
    """Fit the time-gap exponent of the Lipschitz quotient of w(s, ., t, phi).

    w is assembled from the stored vector kernel by pairing with phi; the
    quotient max_x |w(x + dx) - w(x)| / dx over the bulk is fitted against
    the gap, with predicted exponent -(beta + 1)/alpha.
    """
    grid = v.grid
    if grid.dim != 1:
        raise NotImplementedError("the quotient fit probes the 1-d lattice")
    samples = phi.sample(grid)
    mask = interior_mask(grid, margin=0.2)
    j = len(v.stacks) - 1
    gaps, quotients = [], []
    for i in reversed(range(len(v.stacks[j]))):     # increasing gap
        w = convolve(grid, v.slice((i, j))[0], samples)
        q = np.abs(np.diff(w)) / grid.dx
        gaps.append(v.gap((i, j)))
        quotients.append(float(q[mask[:-1]].max()))
    gaps, quotients = np.asarray(gaps), np.asarray(quotients)
    fit = float(np.polyfit(np.log(gaps), np.log(quotients), 1)[0])
    return LipschitzReport(gaps, quotients, fit, -(beta + 1.0) / alpha)


def terminal_average_of_ones(v: KernelField) -> float:
    """Sup over pairs of |sum_y v(.,y) dx^d|; vanishes for the series solution."""
    worst = 0.0
    for k in v.pairs():
        sums = v.slice(k).sum(axis=tuple(range(1, v.grid.dim + 1)))
        worst = max(worst, float(np.abs(sums).max() * v.grid.cell_volume))
    return worst
