import math

import numpy as np
import pytest

from pseudoproc import (SpaceTimeGrid, GridError, PerturbationProblem,
                        ConvergenceMonitor, TerminalValueProblem,
                        TestFunction, EvolutionOperator, GeneratorAction,
                        apply_stack, operator_bound_constant,
                        check_evolution_property, check_identity_limit,
                        identity_limit_floor, cauchy_residual,
                        check_w_lipschitz, terminal_average_of_ones,
                        constant_one, fourier_mode, compact_bump, steep_step,
                        constant_drift, zero_drift, DriftField, analyze,
                        synthesize, SymbolSpec, isotropic_symbol,
                        PseudoGradientSpec, exact_spectra)
from pseudoproc.spectral import base_kernel_field
from pseudoproc.verify import _slope


@pytest.fixture(scope="module")
def solved(sym, pg, small_grid):
    b = constant_drift([1.0])
    prob = PerturbationProblem(sym, pg, small_grid, b)
    mon = ConvergenceMonitor(stop_tol=1e-8)
    G_rows = prob.solve_v(mon)
    G = prob.rows_to_scalar_field(G_rows)
    v = prob.rows_to_vector_field(prob.v_rows(G_rows))
    return prob, G, v


def test_test_function_bound_enforced(small_grid):
    phi = TestFunction(lambda x: 2.0 * np.cos(x), 1.0)
    with pytest.raises(ValueError, match="bound"):
        phi.sample(small_grid)
    with pytest.raises(ValueError, match="bound must be positive"):
        TestFunction(lambda x: x, 0.0)


def test_apply_is_linear(solved, small_grid):
    _, G, _ = solved
    phi1 = fourier_mode(2 * np.pi * 2 / 40.0)
    phi2 = compact_bump(4.0)
    a = 3.25
    combo = TestFunction(
        lambda x: a * phi1.evaluator(x) + phi2.evaluator(x), a + 1.0)
    pair = (0, small_grid.time_steps)
    u, u1, u2 = (EvolutionOperator(G, pair).apply(f)
                 for f in (combo, phi1, phi2))
    assert np.abs(u - (a * u1 + u2)).max() < 1e-12


def test_operator_conserves_constants(solved):
    _, G, _ = solved
    u = EvolutionOperator(G, (0, 8)).apply(constant_one())
    assert np.abs(u - 1.0).max() < 5e-3


def test_operator_requires_stored_pair(solved):
    _, G, _ = solved
    with pytest.raises(GridError):
        EvolutionOperator(G, (5, 5))


def test_markov_kernel_keeps_positive_data(sym, small_grid):
    g = base_kernel_field(sym, small_grid)
    smooth_indicator = TestFunction(
        lambda x: 0.5 * (np.tanh(2.0 * (x + 3)) - np.tanh(2.0 * (x - 3))), 1.0)
    u = apply_stack(g, small_grid.time_steps, smooth_indicator)
    assert u.min() >= -1e-8


def test_signed_kernel_sends_positive_data_negative(solved, small_grid):
    # the drift-perturbed family is only a pseudo-process: positive data can
    # acquire a signed image
    _, G, _ = solved
    narrow = TestFunction(
        lambda x: np.exp(-8.0 * (x - 4.0) ** 2), 1.0)
    worst = apply_stack(G, small_grid.time_steps, narrow).min()
    assert worst < -1e-6


def test_boundedness_constant_stable_under_refinement(sym, pg):
    consts = []
    for N, M in ((64, 8), (128, 16)):
        grid = SpaceTimeGrid(1, 20.0, N, 1.0, M)
        prob = PerturbationProblem(sym, pg, grid, constant_drift([1.0]))
        mon = ConvergenceMonitor()
        G = prob.rows_to_scalar_field(prob.solve_v(mon))
        consts.append(operator_bound_constant(G))
    assert consts[0] > 1.0  # signed kernel: strictly above the mass
    assert max(consts) / min(consts) < 2.0


def test_evolution_property_requires_ordered_indices(solved):
    _, G, _ = solved
    with pytest.raises(GridError):
        check_evolution_property(G, 3, 3, 5, constant_one())


def test_evolution_property_perturbed(solved):
    _, G, _ = solved
    phi = compact_bump(4.0)
    worst = max(check_evolution_property(G, s, u, t, phi)
                for (s, u, t) in ((0, 4, 8), (0, 2, 6), (1, 4, 7)))
    assert worst < 5e-3 * phi.bound


def test_evolution_property_generic_drift_function_level(sym, pg, small_grid):
    # space-dependent drift: compose two terminal-value solves
    b = DriftField(dim=1, kind="space_time",
                   evaluator=lambda t, x: (0.8 * np.exp(-0.5 * (x / 3.0) ** 2)
                                           * (1.0 + 0.2 * t))[None, :])
    phi = compact_bump(4.0)
    full = TerminalValueProblem(sym, pg, small_grid, b, phi).solve()
    mid = small_grid.time_steps // 2
    inner = TerminalValueProblem(sym, pg, small_grid, b, phi).solve()[mid]
    psi = TestFunction(lambda x: inner, float(np.abs(inner).max()) + 1e-12)
    outer = TerminalValueProblem(sym, pg, small_grid, b, psi,
                                 terminal_index=mid).solve()
    assert np.abs(outer[0] - full[0]).max() < 5e-3 * phi.bound


def test_function_level_matches_kernel_level_for_constant_drift(
        sym, pg, small_grid, solved):
    prob, G, _ = solved
    phi = fourier_mode(2 * np.pi * 3 / 40.0)
    u_fn = TerminalValueProblem(sym, pg, small_grid, constant_drift([1.0]),
                                phi).solve()
    u = apply_stack(G, small_grid.time_steps, phi)
    worst = max(np.abs(u_fn[i] - u[i]).max() for i in u_fn)
    # two independent quadrature paths, each O(dt^2) at this coarse partition
    assert worst < 5e-3


def test_superposition_of_the_march(sym, pg, small_grid):
    # the march is linear in the datum; a tight tolerance leaves only the
    # step iterations' own increments
    b = constant_drift([1.0])
    phi1 = fourier_mode(2 * np.pi * 2 / 40.0)
    phi2 = compact_bump(4.0)
    combo = TestFunction(lambda x: phi1.evaluator(x) + phi2.evaluator(x), 2.0)
    mons = [ConvergenceMonitor(stop_tol=1e-12) for _ in range(3)]
    w1 = TerminalValueProblem(sym, pg, small_grid, b, phi1).solve_w(mons[0])
    w2 = TerminalValueProblem(sym, pg, small_grid, b, phi2).solve_w(mons[1])
    wc = TerminalValueProblem(sym, pg, small_grid, b, combo).solve_w(mons[2])
    assert all(len(m.iterate_norms) == 1 and m.converged for m in mons)
    worst = max(np.abs(wc[i] - (w1[i] + w2[i])).max() for i in wc)
    assert worst < 1e-10


def _closed_form_u(sym, pg, grid, b, phi, j):
    """Exact u(t_i), i < j, for a drift constant in space."""
    rows = exact_spectra(sym, pg, b, grid, [(i, j) for i in range(j)])
    return synthesize(grid, rows * analyze(grid, phi.sample(grid)))


def _time_drift():
    return DriftField(dim=1, kind="time", evaluator=lambda t: np.array(
        [0.75 + 0.5 * np.cos(2.0 * np.pi * t)]))


# measured 1.47e-4, 1.48e-3, 3.42e-4 and 4.91e-4
_CLOSED_FORM_BOUNDS = {1: 2e-4, 2: 2e-3, 4: 5e-4, 8: 7e-4}


@pytest.mark.parametrize("terminal_index", sorted(_CLOSED_FORM_BOUNDS))
def test_march_matches_closed_form_at_every_terminal_index(
        sym, pg, small_grid, terminal_index):
    # j - i = 1, 2 and 3 take the short stencils
    phi = compact_bump(4.0)
    u = TerminalValueProblem(sym, pg, small_grid, _time_drift(), phi,
                             terminal_index).solve()
    exact = _closed_form_u(sym, pg, small_grid, _time_drift(), phi,
                           terminal_index)
    assert sorted(u) == list(range(terminal_index))
    assert (max(np.abs(u[i] - exact[i]).max() for i in u)
            < _CLOSED_FORM_BOUNDS[terminal_index])


def test_drift_within_step_contraction_solves(sym, pg, small_grid):
    # |m|max * dt = 1.66: each step still contracts; measured 1.53e-2
    phi = compact_bump(4.0)
    mon = ConvergenceMonitor()
    u = TerminalValueProblem(sym, pg, small_grid, constant_drift([6.0]),
                             phi).solve(mon)
    assert mon.converged and len(mon.iterate_norms) == 1
    exact = _closed_form_u(sym, pg, small_grid, constant_drift([6.0]), phi,
                           small_grid.time_steps)
    assert max(np.abs(u[i] - exact[i]).max() for i in u) < 2e-2


def test_drift_beyond_step_contraction_names_its_cause(sym, pg, small_grid):
    from pseudoproc import ConvergenceError
    mon = ConvergenceMonitor()
    prob = TerminalValueProblem(sym, pg, small_grid, constant_drift([40.0]),
                                compact_bump(4.0))
    with pytest.raises(ConvergenceError, match=r"\|m\|max \* dt = 11") as err:
        prob.solve_w(mon)
    assert err.value.norms == mon.iterate_norms and not mon.converged


def _two_pass_march(prob):
    """The march as it was before u came from its own iterates, kept as
    reference: P0's integral pre-summed over a separate generator of j - 1
    steps, R = (b, w - w0), and u marched a second time from the final w.
    Returns the w and u stacks."""
    from pseudoproc.evolution import _STEP_ITERATIONS
    from pseudoproc.quadrature import gauss_panels, exponential_tables
    grid, j, times = prob.grid, prob.j, prob.times
    tol = ConvergenceMonitor().stop_tol
    s2 = prob.pg.beta / prob.sym.alpha
    t, lo = times[j], times[j - 1]
    (u,), (wu,) = gauss_panels(np.array([0.0, (t - lo) ** (1.0 - s2)]), 6)
    tau = np.clip(t - u ** (1.0 / (1.0 - s2)), lo, t - 1e-300)
    wt = wu / (1.0 - s2) * u ** (s2 / (1.0 - s2))
    panel = np.tensordot(wt, prob._decay(tau - lo) * prob._pairing(
        prob.b.sample_times(tau, grid), prob.w0_at(tau)), 1)
    z = prob.a * grid.dt
    tables = exponential_tables(z, grid.dt)
    b, w0 = prob.b.sample_times(times[:j], grid), prob.w0_at(times[:j])
    P0 = prob._pairing(b, w0)
    base = prob._decay(t - times[:j]) * prob.phi_hat
    base += prob._decay(lo - times[:j]) * panel
    for n, W in enumerate(_rules_scanning_every_step(tables, z, j - 1)):
        base[j - 1 - n] += np.einsum("l...,l...->...", W, P0[j - 1 - n:])

    def march(R):
        rules = _rules_scanning_every_step(tables, z, j)
        next(rules)
        for n, W in enumerate(rules, 1):
            i = j - n
            yield i, base[i] + np.einsum("l...,l...->...", W[1:-1],
                                         R[i + 1:]), W[0]

    R, w_all, w = np.empty((j,) + prob.a.shape, complex), np.empty_like(w0), w0[-1]
    for i, known, weight in march(R):
        for _ in range(_STEP_ITERATIONS):
            R[i] = prob._pairing(b[i], w - w0[i])
            new = synthesize(grid, prob.mult * (known + weight * R[i]))
            inc, w = float(np.sqrt(((new - w) ** 2).sum(axis=0)).max()), new
            if not inc >= tol:
                break
        w_all[i] = w
    R = prob._pairing(b, w_all - w0)
    spectra = np.empty_like(R)
    for i, known, weight in march(R):
        spectra[i] = known + weight * R[i]
    return w_all, synthesize(grid, spectra)


def _space_time_problem(dim, terminal_index=None, symbol=None):
    from pseudoproc import PseudoGradientSpec, isotropic_symbol
    bump = lambda t, *xs: np.exp(-sum(x * x for x in xs) / 32)
    b = DriftField(dim=dim, kind="space_time", evaluator=lambda t, *xs: np.stack(
        [0.8 * bump(t, *xs) * (1 + 0.3 * np.cos(np.pi * t)),
         0.3 * bump(t, *xs)][:dim]))
    grid = (SpaceTimeGrid(1, 40.0, 256, 1.0, 16) if dim == 1
            else SpaceTimeGrid(2, 20.0, 32, 1.0, 8))
    return TerminalValueProblem(symbol or isotropic_symbol(1.5, 1.0, dim),
                                PseudoGradientSpec(beta=0.5, dim=dim), grid,
                                b, compact_bump(5.0), terminal_index)


def _stack(slices):
    return np.stack([slices[i] for i in sorted(slices)])


# a complex symbol: the rule weights are complex
_SKEW = SymbolSpec(alpha=1.5, variant="custom", dim=1, a0=1.0,
                   evaluator=lambda lam: np.abs(lam) ** 1.5
                   * (1.0 + 0.2j * np.sign(lam)))


@pytest.mark.parametrize("dim, terminal_index, symbol", [
    (1, None, None), (1, 1, None), (1, 3, None), (2, None, None),
    pytest.param(1, None, _SKEW, id="1-None-skew")])
def test_one_march_matches_the_two_pass_march(dim, terminal_index, symbol):
    # R is formed from the kept P0 spectra, so w moves at round-off; u is
    # now the spectrum of the march's last iterate, within the step tolerance
    w_ref, u_ref = _two_pass_march(_space_time_problem(dim, terminal_index,
                                                       symbol))
    prob = _space_time_problem(dim, terminal_index, symbol)
    w = _stack(prob.solve_w())
    u = _stack(prob.assemble_u())
    assert w.shape == w_ref.shape and u.shape == u_ref.shape
    assert np.abs(w - w_ref).max() <= 1e-14 * np.abs(w_ref).max()
    assert np.abs(u - u_ref).max() <= 1e-6 * np.abs(u_ref).max()


@pytest.mark.parametrize("dim", [1, 2])
def test_u_is_the_march_own_iterate(dim):
    # w(t_i) is the synthesis of multiplier * u_hat(t_i), exactly
    prob = _space_time_problem(dim)
    w, u = prob.solve_w(), prob.assemble_u()
    assert sorted(w) == sorted(u) == list(range(prob.j))
    for i in w:
        back = synthesize(prob.grid, prob.mult * analyze(prob.grid, u[i]))
        assert np.abs(back - w[i]).max() <= 1e-12 * np.abs(w[i]).max()


def test_a_non_hermitian_march_raises_imaginary_residue():
    from pseudoproc import ImaginaryResidueError
    # a(-lam) = a(lam) with a complex value: no real field has exp(-a dt)
    # as its spectrum, so the problem is refused where the symbol is sampled
    tilted = SymbolSpec(alpha=1.5, variant="custom", dim=1, a0=1.0,
                        evaluator=lambda lam: np.abs(lam) ** 1.5 * (1.0 + 0.2j))
    with pytest.raises(ImaginaryResidueError, match="not Hermitian"):
        _space_time_problem(1, symbol=tilted)


def test_assemble_u_refuses_before_a_march():
    with pytest.raises(RuntimeError, match="solve_w"):
        _space_time_problem(1).assemble_u()


def test_identity_limit_monotone_and_fit(sym, pg, small_grid):
    b = constant_drift([0.5])
    prob = PerturbationProblem(sym, pg, small_grid, b)
    mon = ConvergenceMonitor()
    G = prob.rows_to_scalar_field(prob.solve_v(mon))
    phi = fourier_mode(2 * np.pi * 1 / 40.0)
    gaps, errors = check_identity_limit(G, phi)
    assert np.all(np.diff(errors) >= -(1e-12 + 1e-9 * errors[1:]))
    oracle = check_identity_limit(
        prob.rows_to_scalar_field(prob.closed_form_G_rows()), phi)
    assert abs(_slope(gaps, errors) - _slope(*oracle)) < 0.1
    assert _slope(gaps, errors) >= identity_limit_floor(1.5, 0.5, 1,
                                                        math.inf) - 0.1


def test_constant_data_decay_is_conservation_error_only(solved, small_grid):
    _, G, _ = solved
    _, errors = check_identity_limit(G, constant_one())
    assert errors.max() < 1e-12


def test_perturbation_remainder_rate_on_rough_data(sym, pg):
    # steep data exhibit the sub-linear remainder rate 1 - beta/alpha of the
    # perturbation part, invisible on smooth fixtures
    grid = SpaceTimeGrid(1, 20.0, 512, 1.0, 16)
    b = constant_drift([1.0])
    prob = PerturbationProblem(sym, pg, grid, b)
    phi = steep_step(grid.dx / 4)
    samples = phi.sample(grid)
    ph = analyze(grid, samples)
    gaps, errs = [], []
    for j in range(1, 9):
        gap = j * grid.dt
        pert = np.exp((-prob.a + np.tensordot(b.vector, prob.mult, (0, 0)))
                      * gap) - np.exp(-prob.a * gap)
        diff = synthesize(grid, pert * ph)
        gaps.append(gap)
        errs.append(np.abs(diff).max())
    slope = np.polyfit(np.log(gaps), np.log(errs), 1)[0]
    assert slope == pytest.approx(1.0 - 0.5 / 1.5, abs=0.1)


def test_generator_action_on_lattice_mode(sym, pg, small_grid):
    # cos(lam x_0) with b along x_0: -A cos = -lam^alpha cos, and the drift
    # term i b lam |lam|^(beta-1) rotates it into -b lam^beta sin
    plane = SpaceTimeGrid(2, 20.0, 16, 1.0, 8)
    lam = 2 * np.pi * 3 / 40.0
    for grid, gen in (
            (small_grid, GeneratorAction(sym, pg, constant_drift([1.0]))),
            (plane, GeneratorAction(isotropic_symbol(1.5, 1.0, 2),
                                    PseudoGradientSpec(0.5, 2),
                                    constant_drift([1.0, 0.0])))):
        x0 = grid.mesh()[0]
        [out] = gen(np.cos(lam * x0)[None], [0.0], grid)
        expected = -lam ** 1.5 * np.cos(lam * x0) - lam ** 0.5 * np.sin(lam * x0)
        assert np.abs(out - expected).max() < 1e-10


def test_cauchy_residual_needs_interior_slices(sym, pg, small_grid):
    gen = GeneratorAction(sym, pg, zero_drift(1))
    with pytest.raises(GridError):
        cauchy_residual({0: np.zeros(64), 1: np.zeros(64)}, gen, small_grid)


@pytest.mark.parametrize("dim", [1, 2])
def test_stacked_generator_action_equals_the_per_slice_action(dim):
    # a drift varying in space and time, with components that differ in 2-d:
    # each slice must meet its own time and its own points
    grid = SpaceTimeGrid(dim, 20.0, 64 if dim == 1 else 16, 1.0, 8)
    sym, pg = isotropic_symbol(1.5, 1.0, dim), PseudoGradientSpec(0.5, dim)
    b = DriftField(dim=dim, kind="space_time", evaluator=lambda t, *xs: np.stack(
        [(0.8 + 0.4 * np.cos(np.pi * t)) * np.exp(-0.5 * (xs[0] / 4.0) ** 2)
         * (k + 1.0) - 0.3 * k * xs[-1] for k in range(dim)]))
    gen = GeneratorAction(sym, pg, b)
    x, times = grid.mesh(), [0.25, 0.625]
    u = np.stack([np.exp(-0.5 * sum(xk ** 2 for xk in x)),
                  np.cos(2 * np.pi * 3 * x[-1] / 40.0)])
    stacked = gen(u, times, grid)
    for k, t in enumerate(times):
        # the action on one slice, as it was computed slice by slice
        F = analyze(grid, u[k])
        minus_a = synthesize(grid, sym.on_grid(grid) * F)
        grads = synthesize(grid, pg.multiplier(grid) * F)
        one = -minus_a + (b.sample(t, grid) * grads).sum(axis=0)
        assert np.array_equal(stacked[k], one)


@pytest.mark.parametrize("keys", [(0, 1, 3), (0, 2, 3, 4), (1, 2, 3, 5)])
def test_cauchy_residual_refuses_non_consecutive_slices(sym, pg, small_grid,
                                                        keys):
    gen = GeneratorAction(sym, pg, zero_drift(1))
    with pytest.raises(GridError, match="not consecutive"):
        cauchy_residual({i: np.zeros(64) for i in keys}, gen, small_grid)


@pytest.mark.parametrize("phi", [constant_one(), compact_bump(4.0),
                                 fourier_mode(2 * np.pi * 3 / 40.0)],
                         ids=lambda f: f.name)
def test_stack_application_rows_are_the_pair_operators(solved, phi):
    # stacks 1 .. M share one array by gap; row i of stack j is pair (i, j)
    _, G, _ = solved
    for j in (1, 5, len(G.stacks) - 1):
        u = apply_stack(G, j, phi)
        assert len(u) == j
        for i in range(j):
            assert np.array_equal(u[i], EvolutionOperator(G, (i, j)).apply(phi))


def test_stack_checks_equal_their_per_pair_loops(solved, small_grid):
    # the loops over the pairs (i, j) of the last stack that the identity
    # table and the Lipschitz quotients were computed with, as references
    from pseudoproc import convolve, interior_mask
    _, G, v = solved
    phi = compact_bump(4.0)
    samples, j = phi.sample(small_grid), small_grid.time_steps
    mask = interior_mask(small_grid, margin=0.2)
    pairs = [(i, j) for i in reversed(range(j))]           # increasing gap
    gaps, errors = check_identity_limit(G, phi)
    assert gaps.tolist() == [G.gap(k) for k in pairs]
    assert errors.tolist() == [
        np.abs(EvolutionOperator(G, k).apply(phi) - samples)[mask].max()
        for k in pairs]
    gaps, quotients = check_w_lipschitz(v, phi)
    assert gaps.tolist() == [v.gap(k) for k in pairs]
    assert quotients.tolist() == [
        (np.abs(np.diff(convolve(small_grid, v.slice(k)[0], samples)))
         / small_grid.dx)[mask[:-1]].max() for k in pairs]


def test_w_lipschitz_zero_at_coincident_points(solved, small_grid):
    _, _, v = solved
    # the quotient at x = y is identically zero; the report machinery uses
    # adjacent lattice pairs, so check the raw pairing directly
    from pseudoproc import convolve
    phi = compact_bump(4.0)
    w = convolve(small_grid, v.slice((0, 8))[0], phi.sample(small_grid))
    assert abs(w[10] - w[10]) == 0.0


def test_terminal_average_of_ones_vanishes(solved):
    _, _, v = solved
    assert terminal_average_of_ones(v) < 1e-12


def test_stability_identical_drifts_give_zero_distance(sym, pg, small_grid):
    from pseudoproc import generalized_solution_stability
    pairs = [("same", constant_drift([0.8]), constant_drift([0.8]))]
    (drift, kernel), = generalized_solution_stability(sym, pg, small_grid,
                                                      pairs)
    assert kernel == 0.0
    assert drift == 0.0


def test_mollified_sequence_is_cauchy(sym, pg, small_grid):
    # smoothing a rough time profile at halving widths: consecutive kernels
    # approach each other (the generalized-solution construction)
    from pseudoproc import (mollified_time_drift, PerturbationProblem,
                            ConvergenceMonitor)
    rough = lambda t: np.array([0.6 + 0.4 * np.sign(np.sin(11.0 * t))])
    kernels = []
    for width in (0.4, 0.2, 0.1, 0.05):
        b = mollified_time_drift(rough, width, 1)
        prob = PerturbationProblem(sym, pg, small_grid, b)
        mon = ConvergenceMonitor(stop_tol=1e-9)
        kernels.append(prob.solve_v(mon))
    gaps = []
    for a, b_ in zip(kernels, kernels[1:]):
        gaps.append(max(np.abs(synthesize(small_grid, x - y)).max()
                        for x, y in zip(a[1:], b_[1:])))
    assert gaps[0] > gaps[1] > gaps[2]


# ---------------------------------------------------------------------------
# reference for b(t, x): ETDRK4 (Cox and Matthews 2002) in sigma = t - s,
# with the phi-functions as Kassam-Trefethen contour means over the full
# circle; self-converged to 2e-9 at N=256, M=16 with 4 substeps per dt
# ---------------------------------------------------------------------------

def _etdrk4(sym, pg, grid, b, phi, substeps=4, points=32):
    """u(t_i) for every i < M of d_sigma u_hat = -a u_hat + (b, w)_hat."""
    a, mult = sym.on_grid(grid), pg.multiplier(grid)
    h, t = grid.dt / substeps, grid.times()[-1]
    z = -h * a
    zr = z[..., None] + np.exp(2j * np.pi * (np.arange(points) + 0.5) / points)
    ez = np.exp(zr)
    Q = h * ((np.exp(zr / 2) - 1) / zr).mean(axis=-1)
    f1 = h * ((-4 - zr + ez * (4 - 3 * zr + zr ** 2)) / zr ** 3).mean(axis=-1)
    f2 = h * ((2 + zr + ez * (zr - 2)) / zr ** 3).mean(axis=-1)
    f3 = h * ((-4 - 3 * zr - zr ** 2 + ez * (4 - zr)) / zr ** 3).mean(axis=-1)
    E, E2 = np.exp(z), np.exp(z / 2)

    def N(v, sigma):
        w = synthesize(grid, mult * v)
        return analyze(grid, (b.sample(t - sigma, grid) * w).sum(axis=0))

    v, sigma, out = analyze(grid, phi.sample(grid)), 0.0, {}
    for i in range(grid.time_steps - 1, -1, -1):
        for _ in range(substeps):
            Nv = N(v, sigma)
            p = E2 * v + Q * Nv
            Np = N(p, sigma + h / 2)
            q = E2 * v + Q * Np
            Nq = N(q, sigma + h / 2)
            r = E2 * p + Q * (2 * Nq - Nv)
            v = E * v + f1 * Nv + 2 * f2 * (Np + Nq) + f3 * N(r, sigma + h)
            sigma += h
        out[i] = synthesize(grid, v)
    return out


def _reference_error(sym, pg, grid, b, phi):
    u = TerminalValueProblem(sym, pg, grid, b, phi).solve()
    ref = _etdrk4(sym, pg, grid, b, phi)
    assert sorted(u) == sorted(ref)
    return max(np.abs(u[i] - ref[i]).max() for i in ref)


def test_march_matches_etdrk4_reference_under_refinement(sym, pg):
    # measured 8.25e-5 and 1.75e-5 (the Picard sweeps: 2.57e-4, 9.11e-5)
    b = DriftField(dim=1, kind="space_time", evaluator=lambda t, x: (
        (1.0 + 0.5 * np.cos(np.pi * t + 0.3)) * np.exp(-(x - 1) ** 2 / 8))[None])
    coarse, fine = (_reference_error(sym, pg, SpaceTimeGrid(1, 40.0, N, 1.0, M),
                                     b, compact_bump(3.0))
                    for N, M in ((256, 16), (512, 32)))
    assert coarse < 1e-4 and fine < 2.5e-5
    assert fine / coarse < 0.3


def test_two_dimensional_march_matches_etdrk4_reference():
    # measured 9.0e-5 (the Picard sweeps: 7.1e-4)
    from pseudoproc import PseudoGradientSpec, isotropic_symbol
    gauss = lambda t, x, y: (1.0 + 0.3 * t) * np.exp(-(x * x + 0.5 * y * y) / 8)
    b = DriftField(dim=2, kind="space_time",
                   evaluator=lambda t, x, y: np.stack([0.7 * gauss(t, x, y),
                                                       -0.4 * gauss(t, y, x)]))
    err = _reference_error(isotropic_symbol(1.5, 1.0, 2),
                           PseudoGradientSpec(beta=0.5, dim=2),
                           SpaceTimeGrid(2, 10.0, 32, 1.0, 8), b,
                           compact_bump(4.0))
    assert err < 1.2e-4


def _carried_rules(z, dt, steps):
    """W_n, n = 0 .. steps, of Int_{t_i}^{t_{i+n}} exp(-a (tau - t_i)) f(tau)
    dtau by the recursion that carries the march's spectra: direct weights
    up to three steps, then W_n = exp(-z) W_{n-1}, moved one sample on, plus
    the five carry weights."""
    from pseudoproc.quadrature import (exponential_tables, interval_rule,
                                       carry_weights)
    tables, e = exponential_tables(z, dt), np.exp(-z)
    carry = carry_weights(tables, tables, e)
    for n in range(steps + 1):
        if n <= 3:
            W = interval_rule(lambda table, r: np.exp(-z * r) * tables[table], n)
        else:
            W = np.concatenate([np.zeros_like(W[:1]), e * W])
            W[:5] += carry
        yield W


@pytest.mark.parametrize("z", [0.0, 0.3, 2.0, 5.0, 40.0, 3.0 + 4.0j])
def test_exponential_rules_integrate_cubics_exactly(z):
    # the stencils hold min(n, 3) + 1 samples: exact up to that degree
    dt, steps = 0.25, 8
    x, wx = np.polynomial.legendre.leggauss(30)
    for n, W in enumerate(_carried_rules(np.array([z]), dt, steps)):
        assert W.shape == (n + 1, 1)
        f = np.polynomial.Polynomial([0.3, -1.0, 0.5, 2.0][:min(n, 3) + 1])
        tau = dt * (np.arange(n)[:, None] + 0.5 * (x + 1.0))  # Gauss per step
        exact = 0.5 * dt * (wx * np.exp(-z * tau / dt) * f(tau)).sum()
        approx = (W[:, 0] * f(dt * np.arange(n + 1))).sum()
        assert abs(approx - exact) <= 1e-13 * max(1.0, abs(exact))


def _rules_scanning_every_step(tables, z, steps):
    """The function-level weights W_0 .. W_steps as a generator once gave
    them, scanning all m steps per yield, kept as reference."""
    from pseudoproc.quadrature import _stencil
    W = np.zeros((steps + 4,) + tables.shape[2:], tables.dtype)
    placed = {}
    for m in range(steps + 1):
        for step, now in enumerate(_stencil(m)):
            if placed.get(step) != now:
                decay = np.exp(-z * step)
                if step in placed:
                    t, s0 = placed[step]
                    W[s0:s0 + 4] -= decay * tables[t]
                t, s0 = placed[step] = now
                W[s0:s0 + 4] += decay * tables[t]
        yield W[:m + 1].copy()


@pytest.mark.parametrize("imag", [0.0, 0.7, "skew"])
def test_exponential_rules_equal_the_scan_of_every_step(imag):
    from pseudoproc.quadrature import exponential_tables
    if imag == "skew":
        grid = SpaceTimeGrid(1, 40.0, 64, 1.0, 8)
        z = _SKEW.on_grid(grid) * grid.dt
    else:
        z = np.linspace(0.0, 30.0, 17) ** 1.5 * 0.05 + 1j * imag * np.arange(17)
        z = z.real if imag == 0.0 else z
    dt, steps = 0.03, 8
    ref = list(_rules_scanning_every_step(exponential_tables(z, dt), z, steps))
    got = list(_carried_rules(z, dt, steps))
    assert len(got) == len(ref) == steps + 1
    for a, b in zip(got, ref):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert np.abs(a - b).max() <= 1e-15 * np.abs(b).max()


def test_stability_table_matches_per_pair_transforms(sym, pg, small_grid):
    from pseudoproc import generalized_solution_stability
    bt = DriftField(dim=1, kind="time", evaluator=lambda t: np.array(
        [0.75 + 0.25 * np.cos(3.0 * t)]))
    pairs = [("constant", constant_drift([1.0]), constant_drift([1.01])),
             ("time", bt, constant_drift([0.75]))]
    table = generalized_solution_stability(sym, pg, small_grid, pairs,
                                           stop_tol=1e-9)
    for (_, kernel), (_, b1, b2) in zip(table, pairs):
        kernels = [PerturbationProblem(sym, pg, small_grid, b).solve_v(
            ConvergenceMonitor(stop_tol=1e-9)) for b in (b1, b2)]
        worst = max(float((np.abs(np.fft.irfft(row - kernels[1][j][i]))
                           / small_grid.cell_volume).max())
                    for (i, j), row in kernels[0].items())
        assert kernel == pytest.approx(worst, rel=1e-14, abs=0.0)
        assert kernel > 0.0
