"""Aggregated property suite: envelopes, scaling laws, oracles, stability.

Every check is named once, in `REGISTRY`, and its runner produces one or
more result rows; each row carries the provenance tag of its own expected
value, and this module alone decides whether it passes.  The library's
property functions return measurements only: this module fits every rate
(`_slope`) and states every predicted exponent beside its tolerance.  The
default selection reproduces the acceptance criteria of the build; a few
supplemental rows (golden-fixture comparisons, positivity, analytic peak
value) guard the harness itself.
Runs are deterministic: no randomness enters anywhere, so two consecutive
runs on the same fixtures produce identical reports.
"""
from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .grid import SpaceTimeGrid, synthesize, analyze
from .symbols import SymbolSpec, PseudoGradientSpec, \
    pseudo_gradient_normalizer, pseudo_gradient_normalizer_neg_gamma
from .spectral import (g0_values, base_kernel_field, constant_drift_values,
                       exact_spectra, check_resolution, apply_pseudo_gradient,
                       singular_gradient_at, plane_wave_consistency,
                       chapman_defect, pseudo_gradient_g0,
                       UnsupportedConfiguration)
from .drift import (DriftField, constant_drift, zero_drift,
                    mollified_time_drift, series_exponent)
from .volterra import (ConvergenceMonitor, PerturbationProblem,
                       beta_rate_factor, kernel_convolution_scaling)
from .evolution import (TerminalValueProblem, GeneratorAction,
                        check_evolution_property, check_identity_limit,
                        identity_limit_floor, cauchy_residual,
                        check_w_lipschitz, generalized_solution_stability,
                        terminal_average_of_ones, fourier_mode, steep_step)
from .cli import RunConfig, PHI_CHOICES


# ---------------------------------------------------------------------------
# rate and envelope fitting
# ---------------------------------------------------------------------------

def _slope(x, y) -> float:
    """Least-squares slope of log y on log x over the points with y > 0;
    x and y are arrays."""
    good = y > 0
    return float(np.polyfit(np.log(x[good]), np.log(y[good]), 1)[0])


def envelope_shape(form: str, dt, r, alpha: float, beta: float,
                   gamma: float, dim: int):
    """The two-term kernel bound with unit constant(s), exponents fixed."""
    dt = np.asarray(dt, dtype=float)
    r = np.asarray(r, dtype=float)
    core = dt ** (1.0 / alpha) + r
    if form == "base_kernel":
        return dt ** (1.0 - gamma / alpha) / core ** (dim + alpha - gamma)
    if form in ("pseudo_gradient", "series_kernel"):
        return core ** (-dim - beta) + \
            dt ** (1.0 - beta / alpha) / core ** (dim + alpha - gamma)
    if form == "perturbed_kernel":
        return dt ** (beta / alpha) / core ** (dim + beta) + \
            dt ** (1.0 - gamma / alpha) / core ** (dim + alpha - gamma)
    raise ValueError(f"unknown envelope form {form!r}")


def fit_envelope(samples: Sequence, form: str, alpha: float, beta: float,
                 gamma: float, dim: int) -> float:
    """The multiplicative constant of a fixed-exponent envelope: the
    tightest one over the probe set.

    samples are (gap, offset, value) triples; at least a handful spanning a
    genuine range of gaps is required (a probe set with a single gap cannot
    identify the time exponent and is rejected).
    """
    arr = np.asarray([(float(a), float(b), float(c)) for a, b, c in samples])
    if arr.shape[0] < 3:
        raise ValueError("probe set too small")
    gaps = arr[:, 0]
    if np.allclose(gaps, gaps[0]):
        raise ValueError("degenerate probe set: all samples share one gap")
    shape = envelope_shape(form, arr[:, 0], arr[:, 1], alpha, beta, gamma, dim)
    return float((np.abs(arr[:, 2]) / shape).max())


def self_similarity_defect(sym: SymbolSpec, grid: SpaceTimeGrid,
                           dt: float) -> float:
    """Relative max-norm defect of the exact scaling law of the base kernel.

    Compares g0(dt, x) against dt^{-d/alpha} g0(1, dt^{-1/alpha} x), the
    latter synthesized on the conjugately scaled lattice so both sides share
    one spectral truncation, where g0(1) exceeds 1e-10.
    """
    g_dt = g0_values(sym, grid, dt)
    scale = dt ** (-1.0 / sym.alpha)
    scaled = SpaceTimeGrid(grid.dim, grid.half_extent * scale,
                           grid.points_per_dim, grid.time_horizon,
                           grid.time_steps)
    g_one = g0_values(sym, scaled, 1.0)
    pred = dt ** (-grid.dim / sym.alpha) * g_one
    mask = g_one > 1e-10
    return float((np.abs(g_dt - pred)[mask] / np.abs(pred)[mask]).max())


# ---------------------------------------------------------------------------
# check bookkeeping
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    check: str
    params: str
    value: float
    threshold: float
    mode: str          # absolute | relative | exponent-fit | ratio-trend | band
    passed: bool
    provenance: str    # analytic | derived-oracle | frozen-golden | trivial
    wall_seconds: float = math.nan   # of the whole check that made the row

    def row(self):
        return (self.check, self.params, f"{self.value:.6e}",
                f"{self.threshold:.6e}", self.mode, "pass" if self.passed else "FAIL",
                self.provenance)


@dataclass
class CheckSpec:
    runner: Callable


@dataclass
class SuiteReport:
    results: List[CheckResult]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self):
        return [r for r in self.results if not r.passed]

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["check", "parameters", "value", "threshold", "mode",
                        "status", "provenance", "wall_seconds"])
            for r in self.results:
                w.writerow(r.row() + (f"{r.wall_seconds:.6f}",))

    def summary(self) -> str:
        lines = []
        for r in self.results:
            lines.append(f"{r.check}.value = {r.value:.6e}")
            lines.append(f"{r.check}.threshold = {r.threshold:.6e}")
            lines.append(f"{r.check}.status = {'pass' if r.passed else 'fail'}")
        lines.append(f"suite.passed = {str(self.passed).lower()}")
        return "\n".join(lines) + "\n"

    def table(self) -> str:
        widths = (max([34] + [len(r.check) for r in self.results]), 14, 14, 13, 6)
        head = f"{'check':<{widths[0]}} {'value':>{widths[1]}} " \
               f"{'threshold':>{widths[2]}} {'mode':<{widths[3]}} status"
        out = [head, "-" * len(head)]
        for r in self.results:
            out.append(f"{r.check:<{widths[0]}} {r.value:>{widths[1]}.4e} "
                       f"{r.threshold:>{widths[2]}.4e} {r.mode:<{widths[3]}} "
                       f"{'pass' if r.passed else 'FAIL'}")
        return "\n".join(out)


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

# Golden values recorded from the documented oracle runs (metadata inline).
GOLDEN_VALUES: Dict[str, dict] = {
    "normalizer_halforder_1d": {
        "value": 0.199471140200716,
        "rtol": 1e-12,
        "oracle": "plane-wave quadrature against the gamma closed form",
        "recorded": "2026-08-10",
        "grid": "analytic",
    },
    "resolution_tail": {
        "value": 2.902355933103384e-06,
        "rtol": 1e-9,
        "oracle": "check_resolution",
        "recorded": "2026-08-10",
        "grid": "d=1 alpha=1.5 c=1 N=1024 L=40 dt=0.05",
    },
    "resolution_boundary": {
        "value": 5.390290106083372e-04,
        "rtol": 1e-6,
        "oracle": "check_resolution",
        "recorded": "2026-08-10",
        "grid": "d=1 alpha=1.5 c=1 N=1024 L=40 dt=0.05",
    },
    "drift_kernel_min": {
        "value": -1.349815064674e-02,
        "band": (-2.0e-02, -0.9e-02),
        "oracle": "constant-drift transform synthesis",
        "recorded": "2026-08-10",
        "grid": "d=1 alpha=1.5 beta=0.5 c=1 b=1 dt=1 N=256 L=40",
    },
    "series_ratio_slope_band": {
        "value": (0.7, 2.0),
        "oracle": "nine-term sweep regression against the Euler-beta factors; "
                  "decline at least as fast as the factors, observed 1.28",
        "recorded": "2026-08-10",
        "grid": "d=1 defaults",
    },
}


@dataclass
class FixtureSet(RunConfig):
    """A run's parameters with the solves the checks share.  The checks
    read no drift, dt or datum of the run: they set their own."""

    _cache: dict = field(default_factory=dict, repr=False)

    def monitor(self) -> ConvergenceMonitor:
        return ConvergenceMonitor(stop_tol=self.stop_tol)

    def along_x(self, value):
        """value, a number or an array, times the unit d-vector along x."""
        return np.multiply.outer(np.eye(self.dim)[0], value)

    def wave_drift(self) -> DriftField:
        """b(t) = 0.75 + 0.5 cos(2 pi t) along x: constant in space, varying
        in time."""
        return DriftField(dim=self.dim, kind="time", evaluator=lambda t:
                          self.along_x(0.75 + 0.5 * np.cos(2.0 * np.pi * t)))

    def solved_problem(self, magnitude=1.0, points=None, steps=None):
        """Cached kernel-level solve for a constant drift of given size: the
        problem and its G rows."""
        key = ("solve", magnitude, points or self.points, steps or self.steps)
        if key not in self._cache:
            grid = self.grid(points, steps)
            b = constant_drift(self.along_x(magnitude))
            prob = PerturbationProblem(self.symbol(), self.pgrad(), grid, b)
            self._cache[key] = (prob, prob.solve_v(self.monitor()))
        return self._cache[key]


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------

def _result(check, params, value, threshold, mode, provenance, passed=None):
    """One report row; without `passed` it passes when value < threshold."""
    value, threshold = float(value), float(threshold)
    if passed is None:
        passed = value < threshold
    return CheckResult(check, params, value, threshold, mode, bool(passed),
                       provenance)


def check_mass_conservation(fx: FixtureSet) -> List[CheckResult]:
    """Base and perturbed kernels integrate to one on the lattice."""
    sym, grid = fx.symbol(), fx.grid()
    worst_g0 = max(abs(g0_values(sym, grid, gap).sum() * grid.cell_volume - 1.0)
                   for gap in grid.gaps())
    prob, G_rows = fx.solved_problem()
    worst_G = float(np.abs(prob.rows_to_scalar_field(G_rows).integrals()
                           - 1.0).max())
    return [
        _result("mass-conservation/base", "all gaps on the partition",
                worst_g0, 1e-6, "absolute", "trivial"),
        _result("mass-conservation/perturbed", "all stored time pairs",
                worst_G, 5e-3, "absolute", "derived-oracle"),
    ]


def check_self_similarity(fx: FixtureSet) -> List[CheckResult]:
    """The base kernel obeys the exact homogeneity scaling law."""
    sym, grid = fx.symbol(), fx.grid()
    worst = max(self_similarity_defect(sym, grid, dt)
                for dt in (grid.dt, 0.25, 1.0, 2.0))
    return [_result("self-similarity", "dt in {1/16, 1/4, 1, 2}",
                    worst, 1e-5, "relative", "trivial")]


def check_pseudo_gradient_agreement(fx: FixtureSet) -> List[CheckResult]:
    """Spectral and singular-integral modes agree; plane-wave consistency."""
    grid = fx.grid()
    gauss = (lambda x: np.exp(-0.5 * x ** 2)) if fx.dim == 1 else \
        (lambda x, y: np.exp(-0.5 * (x ** 2 + y ** 2)))
    spec = apply_pseudo_gradient(gauss, fx.pgrad(), grid)
    xs = grid.axis()
    probe = np.abs(xs) <= 8.0
    # the line x_1 = 0, lattice column N // 2 (in 1-D the axis itself)
    pts = np.zeros((probe.sum(), fx.dim))
    pts[:, 0] = xs[probe]
    line = spec[0][(probe,) + (grid.points_per_dim // 2,) * (fx.dim - 1)]
    diffs = []
    for eps_rel in (1e-2, 1e-4, 1e-6):
        sing = singular_gradient_at(gauss, pts, fx.pgrad(),
                                    eps_rel * grid.dx, 30.0)
        diffs.append(float(np.abs(sing[:, 0] - line).max()))
    monotone = all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))
    rows = [
        _result("pseudo-gradient/cross-mode", "gaussian, eps=1e-6*dx",
                diffs[-1], 1e-3, "absolute", "derived-oracle"),
        _result("pseudo-gradient/cutoff-monotone",
                "eps sweep 1e-2,1e-4,1e-6 (*dx)",
                diffs[0] / diffs[-1], 1.0, "ratio-trend", "derived-oracle",
                passed=monotone),
    ]
    for d in (1, 2):
        pg = PseudoGradientSpec(beta=fx.beta, dim=d)
        coarse = plane_wave_consistency(pg, 1.3, eps=1e-8, r_outer=200.0,
                                        panels_per_decade=4)
        fine = plane_wave_consistency(pg, 1.3, eps=1e-22, r_outer=1e4,
                                      panels_per_decade=6)
        rows.append(_result(f"pseudo-gradient/plane-wave-{d}d",
                            f"beta={fx.beta} |lam|=1.3 refined cutoffs",
                            fine, 1e-6, "absolute", "derived-oracle",
                            passed=fine < 1e-6 and fine < coarse))
    return rows


def check_constant_drift_oracle(fx: FixtureSet) -> List[CheckResult]:
    """The series solution matches the exact transform for drift constant in
    space; rows of constant drift depend on the gap alone."""
    def rel_error(prob, rows, pairs):
        """Largest masked relative error of the rows of the pairs (i, j)
        against the exact kernel."""
        gn = synthesize(prob.grid, np.stack([rows[j][i] for i, j in pairs]))
        gc = synthesize(prob.grid, exact_spectra(prob.sym, prob.pg, prob.b,
                                                 prob.grid, pairs))
        gn, gc = gn.reshape(len(pairs), -1), gc.reshape(len(pairs), -1)
        mask = np.abs(gc) > 1e-4
        # a row without a masked point reads 0, the start of the maximum
        worst = np.where(mask, np.abs(gn - gc), 0.0).max(axis=1)
        return float((worst / np.maximum(np.abs(gc).max(axis=1), 1e-4)).max())

    def phys_pairs(M):
        """The index pairs of the times (0, 1), (0, 1/2) and (1/2, 1)."""
        return [(round(s * M / fx.horizon), round(t * M / fx.horizon))
                for s, t in ((0.0, 1.0), (0.0, 0.5), (0.5, 1.0))]

    prob, G_rows = fx.solved_problem()
    every_pair = [pair for pair, _ in G_rows.items()]
    err_all = rel_error(prob, G_rows, every_pair)
    # refinement at fixed physical pairs
    coarse = rel_error(prob, G_rows, phys_pairs(fx.steps))
    fine = rel_error(*fx.solved_problem(points=2 * fx.points,
                                        steps=2 * fx.steps),
                     phys_pairs(2 * fx.steps))
    # drift varying in time; the closed form integrates b by quadrature
    prob_t = PerturbationProblem(fx.symbol(), fx.pgrad(), prob.grid,
                                 fx.wave_drift())
    err_t = rel_error(prob_t, prob_t.solve_v(fx.monitor()), every_pair)
    # constant drift: rows depend on the gap j - i alone; first[n - 1] is row
    # (0, n).  b = 1 given as a time drift solves each pair, not each gap
    b1 = DriftField(dim=fx.dim, kind="time",
                    evaluator=lambda t: fx.along_x(1.0))
    G_rows = PerturbationProblem(fx.symbol(), fx.pgrad(), prob.grid,
                                 b1).solve_v(fx.monitor())
    first = np.stack([G_rows[n][0] for n in range(1, prob.M + 1)])
    peak = prob.row_max_norm(first)
    gap = max((prob.row_max_norm(G_rows[j] - first[j - 1::-1])
               / peak[j - 1::-1]).max() for j in range(1, prob.M + 1))
    return [
        _result("constant-drift-oracle/bulk", "all pairs, |G| > 1e-4",
                err_all, 2e-2, "relative", "derived-oracle"),
        _result("constant-drift-oracle/refinement",
                "fixed physical pairs, 2x space-time",
                fine / coarse, 0.95, "ratio-trend", "derived-oracle",
                passed=fine < 0.95 * coarse),
        _result("constant-drift-oracle/time-dependent",
                "b(t) = 0.75 + 0.5 cos(2 pi t), all pairs, |G| > 1e-4",
                err_t, 1e-3, "relative", "derived-oracle"),
        _result("constant-drift-oracle/equal-gap",
                "rows of equal gap, lattice sup norm over the row's",
                gap, 1e-13, "relative", "derived-oracle"),
    ]


def check_negativity_witness(fx: FixtureSet) -> List[CheckResult]:
    """The perturbed kernel attains negative values (a signed family)."""
    sym, grid = fx.symbol(), fx.grid()
    cf = constant_drift_values(sym, fx.pgrad(), fx.along_x(1.0), grid,
                               fx.horizon)
    cf_min = float(cf.min())
    prob, G_rows = fx.solved_problem()
    solver_min = float(synthesize(prob.grid, G_rows[fx.steps][0]).min())
    golden = GOLDEN_VALUES["drift_kernel_min"]
    lo, hi = golden["band"]
    return [
        _result("negativity-witness/closed-form", "b=1, dt=1, defaults",
                cf_min, -1e-6, "absolute", "derived-oracle"),
        _result("negativity-witness/solver", "b=1, pair (0, M)",
                solver_min, -1e-6, "absolute", "derived-oracle"),
        _result("negativity-witness/golden-band",
                f"recorded fixture band ({lo:g}, {hi:g})",
                cf_min, hi, "band", "frozen-golden",
                passed=lo <= cf_min <= hi),
    ]


def check_evolution_property_suite(fx: FixtureSet) -> List[CheckResult]:
    """The two-parameter composition identity on all shipped data."""
    _quartered(fx, "evolution-property")
    M = fx.steps
    prob, G_rows = fx.solved_problem()
    Gf = prob.rows_to_scalar_field(G_rows)
    gf = base_kernel_field(fx.symbol(), fx.grid())
    triples = ((0, M // 2, M), (0, M // 4, 3 * M // 4),
               (M // 8, M // 2, 7 * M // 8))
    rows = []
    for phi in (replace(fx, phi=name).phi_function() for name in PHI_CHOICES):
        w0 = max(check_evolution_property(gf, *tr, phi) for tr in triples)
        wp = max(check_evolution_property(Gf, *tr, phi) for tr in triples)
        rows.append(_result(f"evolution-property/unperturbed-{phi.name}",
                            "three index triples", w0, 1e-5, "absolute",
                            "trivial"))
        rows.append(_result(f"evolution-property/perturbed-{phi.name}",
                            "three index triples", wp, 5e-3 * phi.bound,
                            "absolute", "derived-oracle"))
    return rows


def check_identity_limit_suite(fx: FixtureSet) -> List[CheckResult]:
    """The operators tend to the identity as the gap closes, at the known
    rate."""
    freq = 2.0 * np.pi * 1 / (2.0 * fx.half_extent)
    phi = fourier_mode(freq)
    prob, G_rows = fx.solved_problem(magnitude=0.5)
    gaps, errors = check_identity_limit(prob.rows_to_scalar_field(G_rows), phi)
    Gcf = prob.rows_to_scalar_field(prob.closed_form_G_rows())
    floor = identity_limit_floor(fx.alpha, fx.beta, fx.dim, math.inf)
    fit, ofit = _slope(gaps, errors), _slope(*check_identity_limit(Gcf, phi))
    # the errors shrink toward s = t (gap-ascending), up to rounding
    monotone = bool(np.all(np.diff(errors) >= -(1e-12 + 1e-9 * errors[1:])))
    return [
        _result("identity-limit/monotone", "lowest lattice mode, b=0.5",
                float(monotone), 1.0, "absolute", "trivial",
                passed=monotone),
        _result("identity-limit/finest-gap", "finest partition gap",
                errors[0], 1e-2 * phi.bound, "absolute",
                "derived-oracle"),
        _result("identity-limit/rate-vs-oracle",
                "fitted exponent against the exact-kernel table",
                abs(fit - ofit), 0.1, "exponent-fit", "derived-oracle",
                passed=abs(fit - ofit) <= 0.1),
        _result("identity-limit/rate-floor",
                f"proof floor {floor:.4f} minus 0.1",
                fit, floor - 0.1, "exponent-fit", "analytic",
                passed=fit >= floor - 0.1),
    ]


def check_series_residual(fx: FixtureSet) -> List[CheckResult]:
    """The converged series satisfies its own equation; its term ratios
    decline with the Euler-beta factors."""
    prob, G_rows = fx.solved_problem()
    res_v = prob.series_residual(G_rows)
    res_G = prob.perturbation_residual(G_rows)
    terms = prob.iterate_terms(10)
    # the coarsest pair (0, M), first row of the last stack
    norms = [prob.row_max_norm(t[fx.steps][:1])[0] for t in terms]
    ratios = np.array([norms[k + 1] / norms[k] for k in range(len(norms) - 1)])
    q = 1.0
    # ratio of term k+1 to term k follows the k-th Euler-beta decline factor
    # of the fixture's drift, bounded (p = inf); successive terms alternate
    # spatial parity, so geometric pair averaging removes the structural
    # sawtooth before the regression
    theta = series_exponent(fx.alpha, fx.beta, fx.dim, math.inf)
    factors = np.array([beta_rate_factor(k, theta, q)
                        for k in range(len(ratios))])
    r_bar = np.sqrt(ratios[:-1] * ratios[1:])
    f_bar = np.sqrt(factors[:-1] * factors[1:])
    slope = _slope(f_bar, r_bar)
    lo, hi = GOLDEN_VALUES["series_ratio_slope_band"]["value"]
    return [
        _result("series-residual/fixed-point", "direct solve, v = multiplier * G",
                res_v, 10 * fx.stop_tol, "absolute", "derived-oracle"),
        _result("series-residual/perturbation-identity",
                "solved kernel plugged back", res_G, 10 * fx.stop_tol,
                "absolute", "derived-oracle"),
        _result("series-residual/ratio-trend",
                f"six term ratios vs Euler-beta factors, band ({lo}, {hi})",
                slope, hi, "ratio-trend", "frozen-golden",
                passed=lo <= slope <= hi),
    ]


def check_convolution_scaling(fx: FixtureSet) -> List[CheckResult]:
    """The two-envelope space-time convolution carries the predicted
    exponent."""
    bundles = ((0.0, 0.0, 0.5, 0.5), (0.45, 0.75, 0.9, 0.9))
    gaps = 6.0 ** fx.alpha / 1000.0 * np.logspace(-1.0, 0.0, 6)
    values = kernel_convolution_scaling(bundles, fx.alpha, gaps=gaps)
    rows = []
    for nb, ((kappa, lam, k, l), v) in enumerate(zip(bundles, values)):
        # the short-gap law at fixed separation; with k = l both envelope
        # terms share it, the regime these bundles probe
        predicted = 1.0 + (kappa + lam - max(k, l)) / fx.alpha
        fitted = _slope(gaps, v)
        rows.append(_result(f"convolution-scaling/bundle-{nb}",
                            f"kappa={kappa} lambda={lam} k={k} l={l}",
                            fitted, predicted, "exponent-fit",
                            "derived-oracle",
                            passed=abs(fitted - predicted) <= 0.1))
    return rows


def _envelope_probes(values_by_gap, x, offsets):
    """(gap, offset, value) at the lattice points x nearest each offset; the
    value of a component stack is the largest component's."""
    samples = []
    for gap, arr in values_by_gap.items():
        for r in offsets:
            idx = int(np.argmin(np.abs(x - r)))
            samples.append((gap, abs(x[idx]), float(np.abs(arr[..., idx]).max()
                                                    if arr.ndim > 1 else abs(arr[idx]))))
    return samples


def _one_dimensional(fx: FixtureSet, check: str):
    """Refuse a check whose kernel solves use fixed N >= 1024 lattices."""
    if fx.dim != 1:
        raise UnsupportedConfiguration(
            f"{check} solves kernels on fixed N >= 1024 lattices, which in "
            f"{fx.dim}-D need gigabytes; it runs in one dimension only")


def _quartered(fx: FixtureSet, check: str):
    """Refuse a check that probes the partition at its quarters, M < 4."""
    if fx.steps < 4:
        raise UnsupportedConfiguration(
            f"{check} probes the time partition at its quarters and needs "
            f"at least 4 steps, not {fx.steps}")


def check_envelope_fits(fx: FixtureSet) -> List[CheckResult]:
    """The kernel families fit their two-term envelopes with constants
    that stay finite and stable under refinement."""
    _one_dimensional(fx, "envelope-fits")
    _quartered(fx, "envelope-fits")
    sym = fx.symbol()
    offsets = (0.55, 1.9, 6.6)
    rows = []
    fits = {}
    for points in (1024, 2048):
        grid = fx.grid(points)
        prob, G_rows = fx.solved_problem(points=points)
        v_rows = prob.v_rows(G_rows)
        # every family at the pairs (0, j) of one index tuple
        for form, at in (
                ("base_kernel", lambda j: g0_values(sym, grid, j * grid.dt)),
                ("pseudo_gradient", lambda j: pseudo_gradient_g0(
                    sym, fx.pgrad(), grid, j * grid.dt)),
                ("series_kernel", lambda j: synthesize(grid, v_rows[j][0])),
                ("perturbed_kernel", lambda j: synthesize(grid, G_rows[j][0]))):
            data = {j * grid.dt: at(j) for j in (1, fx.steps // 4, fx.steps)}
            fit = fit_envelope(_envelope_probes(data, grid.axis(), offsets),
                               form, fx.alpha, fx.beta, fx.gamma, fx.dim)
            fits.setdefault(form, []).append(fit)
    for form, (c1, c2) in fits.items():
        stable = max(c1, c2) / min(c1, c2)
        rows.append(_result(f"envelope/{form}",
                            "3x3 probes, refinement 1024->2048",
                            stable, 2.0, "band", "derived-oracle",
                            passed=math.isfinite(c1) and math.isfinite(c2)
                            and stable <= 2.0))
    return rows


def check_drift_stability(fx: FixtureSet) -> List[CheckResult]:
    """The kernel distance scales linearly with the drift distance."""
    sym, grid = fx.symbol(), fx.grid()
    pg = fx.pgrad()
    rows = []

    def ratio_band(pairs):
        ratios = [kernel / drift for drift, kernel in
                  generalized_solution_stability(sym, pg, grid, pairs,
                                                 stop_tol=1e-9)]
        return max(ratios) / min(ratios)

    deltas = (1e-2, 5e-3, 2.5e-3)
    # one base drift object per family: the stability table solves it once
    unit = constant_drift(fx.along_x(1.0))
    const_pairs = [(f"delta={d:g}", unit, constant_drift(fx.along_x(1.0 + d)))
                   for d in deltas]
    band_c = ratio_band(const_pairs)
    rows.append(_result("drift-stability/constant-pair",
                        "delta halved twice from 1e-2", band_c, 2.0, "band",
                        "derived-oracle", passed=band_c <= 2.0))

    square = lambda t: np.where((t * 8) % 2 < 1, 1.0, -1.0)
    base = DriftField(dim=fx.dim, kind="time",
                      evaluator=lambda t: fx.along_x(0.75), p_exponent=8.0)
    rough_pairs = []
    for d in deltas:
        bumped = mollified_time_drift(
            lambda t, dd=d: fx.along_x(0.75 + dd * square(t)), 0.05, fx.dim,
            p=8.0)
        rough_pairs.append((f"delta={d:g}", bumped, base))
    band_r = ratio_band(rough_pairs)
    rows.append(_result("drift-stability/mollified-rough-pair",
                        "mollified square profile, p=8", band_r, 2.0, "band",
                        "derived-oracle", passed=band_r <= 2.0))
    return rows


def check_cauchy_residual_suite(fx: FixtureSet) -> List[CheckResult]:
    """The backward equation's residual vanishes under refinement."""
    sym, pg = fx.symbol(), fx.pgrad()
    phi_mode = replace(fx, phi="mode8").phi_function()
    grid = fx.grid()
    b0 = zero_drift(fx.dim)
    u0 = TerminalValueProblem(sym, pg, grid, b0, phi_mode).solve()
    r0 = cauchy_residual(u0, GeneratorAction(sym, pg, b0), grid)

    def smooth_b(t, x, *rest):
        """A Gaussian bump along x, its height varying in time."""
        return fx.along_x((0.8 + 0.4 * np.cos(np.pi * t))
                          * np.exp(-0.5 * sum((c / 4.0) ** 2
                                              for c in (x, *rest))))

    # drift constant in space: u(t_i) has the closed form on every mode
    bt = fx.wave_drift()
    phi = replace(fx, phi="bump").phi_function()
    res, err = {}, {}
    for points, steps in ((fx.points, fx.steps), (2 * fx.points, 2 * fx.steps)):
        g = fx.grid(points, steps)
        bs = DriftField(dim=fx.dim, kind="space_time", evaluator=smooth_b)
        us = TerminalValueProblem(sym, pg, g, bs, phi).solve()
        res[steps] = cauchy_residual(us, GeneratorAction(sym, pg, bs), g)
        u = TerminalValueProblem(sym, pg, g, bt, phi).solve()
        exact = synthesize(g, exact_spectra(
            sym, pg, bt, g, [(i, steps) for i in range(steps)])
            * analyze(g, phi.sample(g)))
        err[steps] = max(float(np.abs(u[i] - exact[i]).max()) for i in u)
    coarse, fine = res[fx.steps], res[2 * fx.steps]
    oracle_ratio = err[2 * fx.steps] / err[fx.steps]
    return [
        _result("cauchy-residual/unperturbed-mode", "b=0, lattice mode 8",
                r0, 1e-4, "absolute", "derived-oracle"),
        _result("cauchy-residual/refinement", "smooth compact b, 2x in space-time",
                fine / coarse, 0.7, "ratio-trend", "derived-oracle"),
        _result("cauchy-residual/constant-in-space-oracle",
                "b(t) = 0.75 + 0.5 cos(2 pi t), max over slices of the sup "
                "error against the closed form",
                err[fx.steps], 2e-4, "absolute", "derived-oracle"),
        _result("cauchy-residual/oracle-refinement",
                "the closed-form error, 2x in space-time",
                oracle_ratio, 1.0 / 3.0, "ratio-trend", "derived-oracle"),
    ]


def check_terminal_average(fx: FixtureSet) -> List[CheckResult]:
    """The data-averaged kernel is Lipschitz at the predicted blow-up rate
    and kills constants."""
    _one_dimensional(fx, "terminal-average")
    prob, G_rows = fx.solved_problem(points=1024)
    vf = prob.rows_to_vector_field(prob.v_rows(G_rows))
    fitted = _slope(*check_w_lipschitz(vf, steep_step(prob.grid.dx / 4)))
    predicted = -(fx.beta + 1.0) / fx.alpha     # the blow-up of w's quotient
    ones = terminal_average_of_ones(vf)
    return [
        _result("terminal-average/lipschitz-exponent",
                f"steep step on N=1024, predicted {predicted:.3f}",
                fitted, predicted, "exponent-fit", "derived-oracle",
                passed=abs(fitted - predicted) <= 0.15),
        _result("terminal-average/constants-vanish", "phi = 1 pairing",
                ones, 5e-3, "absolute", "trivial"),
    ]


# -- supplemental harness guards ---------------------------------------------

def check_resolution_golden(fx: FixtureSet) -> List[CheckResult]:
    """The frozen resolution diagnostics reproduce exactly."""
    sym, grid = fx.symbol(), fx.grid(1024)
    rep = check_resolution(sym, grid, 0.05)
    gt = GOLDEN_VALUES["resolution_tail"]
    gb = GOLDEN_VALUES["resolution_boundary"]
    tail_ok = math.isclose(rep.spectral_tail, gt["value"], rel_tol=gt["rtol"])
    bd_ok = math.isclose(rep.boundary_mass, gb["value"], rel_tol=gb["rtol"])
    return [
        _result("resolution-golden/tail", gt["grid"], rep.spectral_tail,
                gt["value"], "band", "frozen-golden", passed=tail_ok),
        _result("resolution-golden/boundary", gb["grid"], rep.boundary_mass,
                gb["value"], "band", "frozen-golden", passed=bd_ok),
    ]


def check_normalizer_golden(fx: FixtureSet) -> List[CheckResult]:
    """The singular-integral normalizer matches its recorded value."""
    g = GOLDEN_VALUES["normalizer_halforder_1d"]
    val = pseudo_gradient_normalizer(0.5, 1)
    alt = pseudo_gradient_normalizer_neg_gamma(0.5, 1)
    ok = math.isclose(val, g["value"], rel_tol=g["rtol"]) and \
        math.isclose(val, alt, rel_tol=1e-12)
    return [_result("normalizer-golden", "beta=0.5, dim=1", val, g["value"],
                    "band", "frozen-golden", passed=ok)]


def check_kernel_positivity(fx: FixtureSet) -> List[CheckResult]:
    """Positivity, the two-gap identity and the analytic peak value of the
    base kernel."""
    sym, grid = fx.symbol(), fx.grid()
    worst = min(float(g0_values(sym, grid, dt).min()) for dt in (0.5, 1.0))
    ck = max(chapman_defect(sym, grid, 0.25, 0.5),
             chapman_defect(sym, grid, grid.dt, 1.0 - grid.dt))
    peak_grid = SpaceTimeGrid(fx.dim, 160.0, 2048, fx.horizon, fx.steps)
    peak = float(g0_values(sym, peak_grid, 1.0).max())
    d = fx.dim
    exact = (math.gamma(1.0 + d / fx.alpha) * fx.c ** (-d / fx.alpha)
             / ((4.0 * math.pi) ** (d / 2) * math.gamma(1.0 + d / 2)))
    return [
        _result("base-kernel/positivity", "resolved gaps dt in {0.5, 1}",
                worst, -1e-8, "absolute", "trivial", passed=worst >= -1e-8),
        _result("base-kernel/two-gap-identity", "lattice convolution",
                ck, 1e-5, "absolute", "trivial"),
        _result("base-kernel/peak-value", "dt=1 on N=2048, L=160 vs analytic",
                abs(peak - exact), 1e-6, "absolute", "analytic"),
    ]


# ---------------------------------------------------------------------------
# registry and runner
# ---------------------------------------------------------------------------

# every check, in report order; each runner's docstring says what it tests
REGISTRY: Dict[str, CheckSpec] = {
    "mass-conservation": CheckSpec(check_mass_conservation),
    "self-similarity": CheckSpec(check_self_similarity),
    "pseudo-gradient": CheckSpec(check_pseudo_gradient_agreement),
    "constant-drift-oracle": CheckSpec(check_constant_drift_oracle),
    "negativity-witness": CheckSpec(check_negativity_witness),
    "evolution-property": CheckSpec(check_evolution_property_suite),
    "identity-limit": CheckSpec(check_identity_limit_suite),
    "series-residual": CheckSpec(check_series_residual),
    "convolution-scaling": CheckSpec(check_convolution_scaling),
    "envelope-fits": CheckSpec(check_envelope_fits),
    "drift-stability": CheckSpec(check_drift_stability),
    "cauchy-residual": CheckSpec(check_cauchy_residual_suite),
    "terminal-average": CheckSpec(check_terminal_average),
    "resolution-golden": CheckSpec(check_resolution_golden),
    "normalizer-golden": CheckSpec(check_normalizer_golden),
    "base-kernel": CheckSpec(check_kernel_positivity),
}


def run_suite(fixtures: Optional[FixtureSet] = None,
              selection: Optional[str] = None) -> SuiteReport:
    """Execute the registered checks whose name contains `selection`.

    An empty selection string selects nothing and reports success; None
    selects everything.  An error raised inside a check propagates with its
    class kept and the check's name leading its message.
    """
    fixtures = fixtures or FixtureSet()
    if selection is None:
        names = list(REGISTRY)
    else:
        names = [n for n in REGISTRY if selection in n] if selection else []
    results: List[CheckResult] = []
    for name in names:
        start = time.perf_counter()
        try:
            rows = REGISTRY[name].runner(fixtures)
        except Exception as err:
            if err.args and isinstance(err.args[0], str) \
                    and not err.args[0].startswith(name):
                err.args = (f"{name}: {err.args[0]}",) + err.args[1:]
            raise
        wall = time.perf_counter() - start
        for r in rows:
            r.wall_seconds = wall
        results.extend(rows)
    return SuiteReport(results)
