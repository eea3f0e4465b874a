"""Direct solver for the drift-perturbed kernel identity.

The perturbed kernel solves G = g + Int_s^t dtau Int g (b, v) dz, where
v = grad_beta G.  For drift constant in space (time dependence allowed)
v is the pseudo-gradient multiplier times G on each Fourier mode, so
(b, v) = m G with the scalar m = (b, multiplier): one scalar unknown per
mode, and `v_rows` forms v for output only.  With Lawson's integrating
factor, G(s, t) = exp(-a (t - s)) H(s, t), the identity becomes
H(s, t) = 1 + Int_s^t m(tau) H(tau, t) dtau, with nothing stiff left to
interpolate.  `kernel_rule` keeps its stencils inside [t_i, t_j], so per
mode and terminal index j the system (I - K_j) G_j = g_j + c_j (c_j weighs
the limit G(t_j, t_j) = 1) is upper triangular: `solve_v` back-substitutes
it, carrying row i + 1's sum to row i by exp(-a dt) plus five local
weights for j - i >= 4 (`pair_quad` gives the rest), and the spectral
radius is the largest diagonal modulus.  For b constant in time K_j is
the last j rows of K_M, so only j = M is solved, and each G_j views G_M's
tail.  Rows travel as `KernelRows`, one stack per terminal index j.
`ConvergenceError` (exit 4 of `pseudoproc perturb`) means that radius is
at least one (the message names |m|max * dt), the residual reaches
stop_tol, or the result is not finite.  `iterate_terms` builds the series.
"""
from __future__ import annotations

import functools
import math
import time as _time
from dataclasses import dataclass, field

import numpy as np

from .grid import SpaceTimeGrid, GridError, synthesize
from .symbols import SymbolSpec, PseudoGradientSpec
from .fields import KernelField, by_gap, depends_on_gap
from .drift import DriftField
from .spectral import exact_spectra
from .quadrature import gauss_panels, kernel_rule, interval_rule, carry_weights


class ConvergenceError(RuntimeError):
    """A solve did not converge; carries the monitor's record."""

    def __init__(self, message, norms, spectral_radius=math.nan):
        super().__init__(message)
        self.norms = list(norms)
        self.spectral_radius = spectral_radius


@dataclass
class ConvergenceMonitor:
    """Stopping tolerance and record of one solve.

    A solve records once: the direct kernel solve its residual and the
    spectral radius of its operators, the function-level march its largest
    final step increment.  It has converged when that norm is below
    stop_tol and the radius, where one is set, below one.  The drift's
    admissibility, p > (d + alpha)/(alpha - 1), is checked by the problem
    (`DriftField.validate_exponent`), not here.
    """

    stop_tol: float = 1e-6
    iterate_norms: list = field(default_factory=list)
    wall_times: list = field(default_factory=list)
    spectral_radius: float = math.nan

    def record(self, norm: float, wall: float):
        self.iterate_norms.append(norm)
        self.wall_times.append(wall)

    @property
    def converged(self) -> bool:
        return (bool(self.iterate_norms)
                and self.iterate_norms[-1] < self.stop_tol
                and not self.spectral_radius >= 1.0)

    def convergence_log(self):
        """Rows (k, max_norm, spectral_radius, wall_seconds) for the CSV log."""
        return [(k + 1, n, self.spectral_radius, w) for k, (n, w) in
                enumerate(zip(self.iterate_norms, self.wall_times))]


def beta_rate_factor(k: int, theta: float, q: float) -> float:
    """Euler-beta decline factor max(B((k+1)theta q, 1), B(1+k theta q, theta q))^{1/q}."""
    def euler_beta(x, y):
        return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))

    return max(euler_beta((k + 1) * theta * q, 1.0),
               euler_beta(1.0 + k * theta * q, theta * q)) ** (1.0 / q)


# ---------------------------------------------------------------------------
# mode-row engine
# ---------------------------------------------------------------------------

class KernelRows(list):
    """Kernel mode rows by terminal index: rows[j] stacks the rows (i, j), i < j.

    rows[j] has shape (j,) + the half lattice of `grid.spectrum_shape`,
    vector rows (j, d) + that shape; rows[0] is empty.  The discrete
    identity couples only the rows of one j.
    """

    def items(self):
        """Every ((i, j), row), 0 <= i < j <= M, each pair once."""
        for j, stack in enumerate(self):
            for i, row in enumerate(stack):
                yield (i, j), row


class PerturbationProblem:
    """Kernel-level perturbation solve for spatially-constant drift.

    Bundles symbol, pseudo-gradient, grid and drift, with every base kernel
    available in closed form on the frequency lattice.  Every row method
    takes and returns `KernelRows`, one stack of start indices per terminal
    index j.  Spatially-varying drift breaks translation invariance of the
    unknown kernel and is out of scope here (the evolution module solves
    the paired function-level system).
    """

    def __init__(self, sym: SymbolSpec, pg: PseudoGradientSpec,
                 grid: SpaceTimeGrid, b: DriftField):
        if grid.dim != sym.dim or grid.dim != pg.dim or grid.dim != b.dim:
            raise GridError("symbol, pseudo-gradient, drift and grid dimensions differ")
        if not b.spatially_constant:
            raise ValueError(
                "kernel-level solve needs a spatially-constant drift; "
                "use the evolution module for b(t, x)")
        b.validate_exponent(sym.alpha)
        self.sym, self.pg, self.grid, self.b = sym, pg, grid, b
        self.a = sym.on_grid(grid)                      # (modes)
        self.mult = pg.multiplier(grid)                 # (d, modes)
        self._mult = self.mult.reshape(grid.dim, -1)    # lattice flattened
        self.times = grid.times()
        self.M = grid.time_steps

    @functools.cached_property
    def _rule(self) -> np.ndarray:
        return kernel_rule(self.b.at_time, self.times)

    @functools.cached_property
    def _carry(self) -> np.ndarray:
        """c[i, l]: row i of K_j adds c[i, l] f(t_{i+l}) to row i + 1's, carried;
        for b constant in time all steps weigh alike, and one row serves."""
        rule = self._rule[:, :, :2] if self.b.kind == "constant" else self._rule
        c = np.einsum("lkc,cm->klm", carry_weights(rule[:, :, :-1], rule[:, :, 1:]),
                      self._mult)
        c *= self._gap_decay[:5]
        return np.broadcast_to(c, (self.M - 1,) + c.shape[1:])

    @functools.cached_property
    def _gap_decay(self) -> np.ndarray:
        """g at the partition gaps: row n is exp(-a n dt)."""
        return np.exp(np.outer(-self.times, self.a.ravel()))

    def _rows(self, flat) -> np.ndarray:
        """A (j, modes) array of rows (i, j) as a (j,) + half-lattice stack."""
        return np.ascontiguousarray(flat).reshape((len(flat),) + self.a.shape)

    def _per_terminal(self, stack, *inputs) -> KernelRows:
        """stack(j) for each terminal index j = 1..M, the stack of the rows
        (i, j).  When b is constant in time and every input depends on the
        gap alone, stack(M) holds every row: it runs at j = M alone, and
        stack j views its last j rows (`fields.by_gap`)."""
        if self.b.kind == "constant" and all(map(depends_on_gap, inputs)):
            return KernelRows(by_gap(stack(self.M)))
        stacks = [stack(j) for j in range(1, self.M + 1)]
        return KernelRows([stacks[-1][:0]] + stacks)

    # base kernels on the frequency lattice
    def g_rows(self) -> KernelRows:
        # row (i, j) decays over the gap j - i: rows M, ..., 1
        return KernelRows(by_gap(self._rows(self._gap_decay[self.M:0:-1])))

    def v_rows(self, G_rows: KernelRows) -> KernelRows:
        """The vector kernel v = multiplier * G, row by row (output only)."""
        return self._per_terminal(lambda j: self.mult * G_rows[j][:, None],
                                  G_rows)

    # -- the discrete operator -----------------------------------------------
    def pair_quad(self, i: int, j: int) -> np.ndarray:
        """Row i of K_j: weights of Int_{t_i}^{t_j} g(tau - t_i) m(tau) f(tau) dtau.

        Shape (j + 1 - i, modes), m = (b, multiplier): per mode, the weights
        of f(t_i), ..., f(t_{j-1}) and of the limit f(t_j), each the rule's
        weight for the smooth exp(a (t_j - tau)) f times g(t_l - t_i), summed
        over the steps: the solver's rows for j - i <= 3, and the reference."""
        W = interval_rule(lambda table, r: self._rule[table, :, i + r], j - i)
        return (W @ self._mult) * self._gap_decay[:j + 1 - i]

    def _sums(self, j: int, f: np.ndarray, g=None) -> tuple:
        """S_i = sum_l K_j[i, l] f[l], i < j, and the largest |K_j[i, i]|
        with j - i <= 3; f holds the samples at t_0 .. t_{j-1}, then the
        limit.  Given the g rows of j, f[i] is first solved as g[i] + S_i."""
        S, e, radius = np.empty((j, f.shape[1]), complex), self._gap_decay[1], 0.0
        for i in range(j - 1, -1, -1):
            if j - i <= 3:
                K = self.pair_quad(i, j)
                diag, c, known = K[0], K[1:], 0.0
                radius = max(radius, np.abs(diag).max())
            else:
                diag, c, known = self._carry[i, 0], self._carry[i, 1:], e * S[i + 1]
            known = known + (c * f[i + 1:i + 1 + len(c)]).sum(axis=0)
            if g is not None:
                f[i] = (g[i] + known) / (1.0 - diag)
            S[i] = known + diag * f[i]
        return S, radius

    def row_max_norm(self, rows: np.ndarray) -> np.ndarray:
        """Lattice sup of each synthesized scalar or vector row of a stack."""
        points = self.grid.points_per_dim ** self.grid.dim
        comps = synthesize(self.grid, rows).reshape(len(rows), -1, points)
        return np.sqrt((comps ** 2).sum(1)).max(1)

    # -- solve ---------------------------------------------------------------
    def solve_v(self, monitor: ConvergenceMonitor) -> KernelRows:
        """Solve the discrete kernel identity; returns the G rows.

        K_j is upper triangular, so each j is solved by back-substitution
        from i = j - 1 down to 0; for b constant in time that is j = M
        alone, and G_j is the view G_M[M - j:].  The monitor records the
        largest residual (lattice sup norm) and spectral radius."""
        start = _time.perf_counter()
        # the carried rows' diagonals: c[i, 0] for i <= M - 4
        radii = [np.abs(self._carry[:self.M - 3, 0]).max() if self.M > 3 else 0.0]
        residuals = [0.0]

        def solve(j):
            G = np.ones((j + 1, self.a.size), complex)  # G(t_l, t_j); limit 1
            g = self._gap_decay[j:0:-1]
            S, r = self._sums(j, G, g)
            radii.append(r)
            residuals.append(self.row_max_norm(self._rows(G[:j] - g - S)).max())
            return self._rows(G[:j])

        G_rows = self._per_terminal(solve)
        radius = max(radii)
        # np.max keeps a NaN, which fails the test below
        residual = np.max(residuals)
        monitor.spectral_radius = float(radius)
        monitor.record(float(residual), _time.perf_counter() - start)
        if not monitor.converged:
            # m = (b, multiplier) at the partition times
            m = np.array([self.b.at_time(t) for t in self.times]) @ self._mult
            m_dt = self.grid.dt * np.abs(m).max()
            raise ConvergenceError(
                f"spectral radius {radius:.3g} (needs < 1) at |m|max * dt = "
                f"{m_dt:.3g}, residual {residual:.3e} (needs < "
                f"{monitor.stop_tol:g}): the drift is too large for this time "
                "step", monitor.iterate_norms, monitor.spectral_radius)
        return G_rows

    def iterate_terms(self, count: int) -> list:
        """First `count` series terms G_0 = g, G_{k+1} = Quad[g m G_k], each
        returned as the vector mode rows v_k = multiplier * G_k."""
        terms, limit = [self.g_rows()], 1.0
        for _ in range(1, count):
            terms.append(self._quad_rows(terms[-1], limit))
            limit = 0.0  # higher terms vanish at the diagonal
        return [self.v_rows(t) for t in terms]

    # -- assembly and residuals ---------------------------------------------
    def _quad_rows(self, rows: KernelRows, limit: float) -> KernelRows:
        """Int_{t_i}^{t_j} g(tau - t_i) m(tau) f(tau, t_j) dtau, every pair.

        rows are the scalar rows of f; limit is f(t_j, t_j)."""
        def quad(j):
            # samples at t_0, ..., t_{j-1}, then the limit
            f = np.full((j + 1, self.a.size), limit, complex)
            f[:j] = rows[j].reshape(j, self.a.size)
            return self._rows(self._sums(j, f)[0])

        return self._per_terminal(quad, rows)

    def assemble_G_rows(self, G_rows: KernelRows) -> KernelRows:
        """G = g + Quad[g m G] for given G rows, m = (b, multiplier)."""
        g, q = self.g_rows(), self._quad_rows(G_rows, 1.0)
        return self._per_terminal(lambda j: g[j] + q[j], g, q)

    def _defect(self, rows: KernelRows, target: KernelRows) -> float:
        """Largest norm of rows - target, one transform per terminal index."""
        norms = self._per_terminal(
            lambda j: self.row_max_norm(rows[j] - target[j]), rows, target)
        return np.concatenate(norms).max()

    def series_residual(self, G_rows: KernelRows) -> float:
        """Defect of v = multiplier * G against v0 + Quad[v0 (b, v)]."""
        return self._defect(self.v_rows(self.assemble_G_rows(G_rows)),
                            self.v_rows(G_rows))

    def perturbation_residual(self, G_rows: KernelRows) -> float:
        """Defect of G against its own defining identity."""
        return self._defect(self.assemble_G_rows(G_rows), G_rows)

    # -- conversions ---------------------------------------------------------
    def _fill(self, meaning: str, rows: KernelRows) -> KernelField:
        """The field of the rows' synthesized slices, one `synthesize` per
        terminal index."""
        return KernelField(self.grid, meaning, self._per_terminal(
            lambda j: synthesize(self.grid, rows[j]), rows))

    def rows_to_scalar_field(self, rows: KernelRows) -> KernelField:
        return self._fill("G", rows)

    def rows_to_vector_field(self, rows: KernelRows) -> KernelField:
        return self._fill("v", rows)

    def closed_form_G_rows(self) -> KernelRows:
        """Exact rows of every pair, `spectral.exact_spectra` (oracle use)."""
        pairs = [(i, j) for j in range(1, self.M + 1) for i in range(j)]
        rows = exact_spectra(self.sym, self.pg, self.b, self.grid, pairs)
        return KernelRows(np.split(rows, np.cumsum(range(self.M + 1))[:-1]))


# ---------------------------------------------------------------------------
# two-kernel space-time convolution scaling
# ---------------------------------------------------------------------------

@dataclass
class ScalingFitReport:
    fitted_exponent: float
    predicted_exponent: float
    gaps: np.ndarray
    values: np.ndarray


# time nodes per block of the z quadrature: the block's (rows, 71, 10) node
# arrays stay near 60 kB each
_SCALING_ROWS = 10
_OFFSET, _FAR = 6.0, 420.0          # spatial separation; z range +-60 (offset + 1)
_SCALES = 2.0 ** np.arange(-3.0, 14.0)


def _z_integrals(sig, T, alpha, powers) -> np.ndarray:
    """Int dz (sig^(1/a) + |z|)^-p ((T-sig)^(1/a) + |offset - z|)^-q at
    each time node sig (a column) for each row (p, q) of powers: an array
    (bundles, nodes).  Each node's z-edges are graded around the two kernel
    centers (width scales sig^(1/a)); clipped or repeated ones add no
    weight.  The logs of the two denominators are shared by every bundle,
    whose integrand is then one exp of their linear combination."""
    w1, w2 = sig ** (1.0 / alpha), (T - sig) ** (1.0 / alpha)
    e = np.hstack([np.tile([0.0, _OFFSET, -_FAR, _FAR], (len(sig), 1)),
                   -w1 * _SCALES, w1 * _SCALES,
                   _OFFSET - w2 * _SCALES, _OFFSET + w2 * _SCALES])
    zq, wq = gauss_panels(np.sort(np.clip(e, -_FAR, _FAR), axis=1), 10)
    zq, wq = zq.reshape(len(sig), -1), wq.reshape(len(sig), -1)
    logs = np.empty((2,) + zq.shape)
    near, apart = logs
    np.add(np.abs(zq, out=near), w1, out=near)
    np.subtract(_OFFSET, zq, out=apart)
    np.add(np.abs(apart, out=apart), w2, out=apart)
    del zq
    np.log(logs, out=logs)
    z = -powers @ logs.reshape(2, -1)
    np.exp(z, out=z)
    z = z.reshape((len(powers),) + wq.shape)
    z *= wq
    return z.sum(axis=2)


def kernel_convolution_scaling(bundles, alpha: float, dim: int,
                               gaps) -> list:
    """Fit the time-gap exponent of the two-envelope space-time convolution.

    bundles is a sequence of exponent bundles (kappa, lam, k, l); one
    `ScalingFitReport` is returned per bundle, in order.  Each evaluates
    Int_0^T dsig Int dz of the product of the two power-law envelopes
    (exponents kappa, lam in time and d+k, d+l in space) at fixed spatial
    separation offset = 6 at the given gaps, which belong well below
    offset^alpha, and fits log value against log gap; the report carries the
    fitted and the predicted exponent.  The admissible range
    0 < k < alpha + kappa, 0 < l < alpha + lambda is enforced per bundle.

    The quadrature nodes depend on alpha and the gap alone, so every bundle
    shares them and the logs of the envelopes' denominators: per bundle the
    z integrand is one exp of a linear combination of those logs, built
    `_SCALING_ROWS` time nodes at a time.

    The short-gap law at fixed separation carries the exponent
    1 + (kappa + lam - max(k, l))/alpha; with k = l the two envelope terms
    share it, which is the regime the acceptance bundles probe.
    """
    if dim != 1:
        raise NotImplementedError("scaling report is implemented for dim = 1")
    bundles = np.array(bundles, dtype=float).reshape(len(bundles), 4)
    kappa, lam, k, l = bundles.T
    if not (np.all((0.0 < k) & (k < alpha + kappa))
            and np.all((0.0 < l) & (l < alpha + lam))):
        raise ValueError("exponents must satisfy 0 < k < alpha + kappa and "
                         "0 < l < alpha + lambda")
    powers = 1.0 + np.column_stack([l, k])      # of the envelopes in space
    gaps = np.asarray(gaps, dtype=float)
    vals = np.zeros((len(bundles), len(gaps)))
    for n, T in enumerate(gaps):
        edges = np.unique(np.concatenate([
            [0.0], T * 0.5 * 2.0 ** (-np.arange(18, -1, -1.0)),
            T - T * 0.5 * 2.0 ** (-np.arange(0, 19.0)), [T]]))
        tq, tw = (a.ravel() for a in gauss_panels(edges, 10))
        for lo in range(0, len(tq), _SCALING_ROWS):
            sig, w = tq[lo:lo + _SCALING_ROWS], tw[lo:lo + _SCALING_ROWS]
            # the time factors sig^(lam/a) (T-sig)^(kappa/a) weigh each node
            lead = np.exp((np.outer(lam, np.log(sig))
                           + np.outer(kappa, np.log(T - sig))) / alpha)
            z = _z_integrals(sig[:, None], T, alpha, powers)
            vals[:, n] += (w * lead * z).sum(axis=1)
    predicted = 1.0 + (kappa + lam - np.maximum(k, l)) / alpha
    return [ScalingFitReport(float(np.polyfit(np.log(gaps), np.log(v), 1)[0]),
                             float(p), gaps, v)
            for p, v in zip(predicted, vals)]
