import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pseudoproc import (SpaceTimeGrid,
                        constant_drift, zero_drift, mollified_time_drift,
                        DriftField, DriftError, ConvergenceMonitor,
                        ConvergenceError, PerturbationProblem, KernelRows,
                        beta_rate_factor, kernel_convolution_scaling,
                        synthesize, min_p_exponent, series_exponent)
from pseudoproc.fields import depends_on_gap
from pseudoproc.spectral import constant_drift_values


@pytest.fixture(scope="module")
def small_problem(sym, pg, small_grid):
    return PerturbationProblem(sym, pg, small_grid, constant_drift([1.0]))


def test_zero_drift_collapses_exactly(sym, pg, small_grid):
    prob = PerturbationProblem(sym, pg, small_grid, zero_drift(1))
    G_rows = prob.solve_v(ConvergenceMonitor())
    vf = prob.rows_to_vector_field(prob.v_rows(G_rows))
    base = prob.rows_to_vector_field(prob.v_rows(prob.g_rows()))
    for k in vf.pairs():
        assert np.array_equal(vf.slice(k), base.slice(k))
    Gf = prob.rows_to_scalar_field(G_rows)
    from pseudoproc.spectral import base_kernel_field
    gf = base_kernel_field(sym, small_grid)
    for k in Gf.pairs():
        assert np.array_equal(Gf.slice(k), gf.slice(k))


@settings(max_examples=300, deadline=None)
@given(alpha=st.floats(1.0, 2.0, exclude_min=True, exclude_max=True),
       beta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       dim=st.sampled_from([1, 2]),
       p=st.one_of(st.just(math.inf),
                   st.floats(1.0, 1e6, exclude_min=True)))
def test_theta_floor_holds_exactly_above_the_p_bound(alpha, beta, dim, p):
    # theta > (1 - beta)/alpha is p > (d + alpha)/(alpha - 1) with beta
    # cancelled: the drift's bound makes a check on theta redundant
    bound = min_p_exponent(alpha, dim)
    assume(abs(p - bound) > 1e-9 * bound)
    theta = series_exponent(alpha, beta, dim, p)
    assert (theta > (1.0 - beta) / alpha) == (p > bound)


def test_drift_field_validation():
    with pytest.raises(DriftError):
        DriftField(dim=1, kind="constant")
    with pytest.raises(DriftError):
        DriftField(dim=1, kind="time")
    with pytest.raises(DriftError):
        constant_drift([1.0], p=0.5)
    b = constant_drift([1.0], p=3.0)
    with pytest.raises(DriftError, match="p ="):
        b.validate_exponent(1.5)
    transposed = mollified_time_drift(lambda t: np.stack([t, t], axis=1),
                                      0.1, 2)
    with pytest.raises(DriftError, match="expected"):
        transposed.at_time(0.5)


def test_mollified_drift_matches_loop_average():
    rough = lambda t: np.array([0.6 + 0.4 * np.sign(np.sin(11.0 * t))])
    b = mollified_time_drift(rough, 0.05, 1)
    offs = (np.arange(257) / 256 - 0.5) * 0.05
    for t in (0.0, 0.137, 0.5, 0.91):
        loop = sum(rough(t + o) for o in offs) / 257
        assert b.at_time(t) == pytest.approx(loop, rel=1e-14)


def test_lp_norm_constant_slab(default_grid):
    b = constant_drift([2.0], p=8.0)
    # |b| = 2 on [0,1] x [-40,40]: norm = 2 * 80^{1/8}
    assert b.lp_norm(default_grid) == pytest.approx(2.0 * 80.0 ** (1 / 8), rel=1e-6)
    bi = constant_drift([2.0])
    assert bi.lp_norm(default_grid) == pytest.approx(2.0)


def _lattice_slab_norm(sample, p, grid):
    """L_p slab norm of |sample(t)| summed over the lattice, kept as the
    reference of the lattice-free norms of drifts constant in space."""
    ts = np.linspace(0.0, grid.time_horizon, 65)
    mags = [np.sqrt((sample(t) ** 2).sum(axis=0)) for t in ts]
    if math.isinf(p):
        return max(float(m.max()) for m in mags)
    box = (2.0 * grid.half_extent) ** grid.dim
    slab = np.array([(m ** p).mean() * box for m in mags])
    return float(np.trapezoid(slab, ts) ** (1.0 / p))


def _drift_pair(family, p):
    cosine = DriftField(dim=1, kind="time", p_exponent=p, evaluator=lambda t:
                        np.array([0.75 + 0.5 * np.cos(2.0 * np.pi * t)]))
    if family == "constant":
        return constant_drift([1.0], p=p), constant_drift([1.01], p=p)
    if family == "time":
        return cosine, DriftField(dim=1, kind="time", p_exponent=p,
                                  evaluator=lambda t: np.array([0.75 + t]))
    if family == "mollified":
        square = lambda t: np.where((t * 8) % 2 < 1, 1.0, -1.0)
        return (mollified_time_drift(lambda t: 0.75 + 0.01 * square(t), 0.05,
                                     1, p=p), cosine)
    # a drift varying in space keeps the lattice path, for both members
    return (DriftField(dim=1, kind="space_time", p_exponent=p,
                       evaluator=lambda t, x: (np.exp(-x * x / 8) + t)[None]),
            constant_drift([0.5], p=p))


@pytest.mark.parametrize("p", [math.inf, 8.0])
@pytest.mark.parametrize("family", ["constant", "time", "mollified",
                                    "space_time"])
def test_drift_distances_equal_the_lattice_sum(default_grid, family, p):
    b1, b2 = _drift_pair(family, p)
    grid = default_grid
    for got, ref in [
            (b1.difference_lp_norm(b2, grid), _lattice_slab_norm(
                lambda t: b1.sample(t, grid) - b2.sample(t, grid), p, grid)),
            (b1.lp_norm(grid), _lattice_slab_norm(
                lambda t: b1.sample(t, grid), p, grid)),
            (b2.lp_norm(grid), _lattice_slab_norm(
                lambda t: b2.sample(t, grid), p, grid))]:
        assert got == pytest.approx(ref, rel=1e-14, abs=0.0)


def test_series_terms_decay_with_beta_factors(small_problem):
    terms = small_problem.iterate_terms(8)
    # the coarsest pair (0, M), first row of the last stack
    norms = [small_problem.row_max_norm(t[-1][:1])[0] for t in terms]
    assert all(n > 0 for n in norms[:6])
    ratios = np.array([norms[k + 1] / norms[k] for k in range(6)])
    factors = np.array([beta_rate_factor(k, 1.0 - 0.5 / 1.5, 1.0)
                        for k in range(6)])
    r_bar = np.sqrt(ratios[:-1] * ratios[1:])
    f_bar = np.sqrt(factors[:-1] * factors[1:])
    slope = np.polyfit(np.log(f_bar), np.log(r_bar), 1)[0]
    assert 0.6 < slope < 2.2
    # eventual monotone decline of the term norms
    assert norms[4] > norms[5] > norms[6] > norms[7]


@pytest.mark.parametrize("theta, q", [(1.0 - 0.5 / 1.5, 1.0), (0.35, 1.0),
                                      (0.9, 1.0), (0.6, 0.5)])
def test_beta_rate_factor_matches_library_beta(theta, q):
    from scipy.special import beta
    for k in range(10):
        ref = max(float(beta((k + 1) * theta * q, 1.0)),
                  float(beta(1.0 + k * theta * q, theta * q))) ** (1.0 / q)
        assert beta_rate_factor(k, theta, q) == pytest.approx(ref, rel=1e-14)


def test_solver_matches_constant_drift_transform(sym, pg, small_grid):
    b = constant_drift([1.0])
    prob = PerturbationProblem(sym, pg, small_grid, b)
    mon = ConvergenceMonitor()
    G_rows = prob.solve_v(mon)
    worst = 0.0
    for k, row in G_rows.items():
        num = synthesize(small_grid, row)
        exact = constant_drift_values(sym, pg, [1.0], small_grid,
                                      small_grid.dt * (k[1] - k[0]))
        mask = np.abs(exact) > 1e-4
        worst = max(worst, np.abs(num - exact)[mask].max() / np.abs(exact).max())
    assert worst < 2e-2


def test_zero_drift_residual_is_roundoff(sym, pg, small_grid):
    prob = PerturbationProblem(sym, pg, small_grid, zero_drift(1))
    assert prob.perturbation_residual(prob.g_rows()) < 1e-14


def test_residuals_meet_solver_contract(small_problem):
    mon = ConvergenceMonitor(stop_tol=1e-6)
    G_rows = small_problem.solve_v(mon)
    assert mon.converged
    assert small_problem.series_residual(G_rows) < 10 * mon.stop_tol
    assert small_problem.perturbation_residual(G_rows) < 10 * mon.stop_tol
    # assembling G from the solved G reproduces the solved G
    assembled = small_problem.assemble_G_rows(G_rows)
    assert max(np.abs(a - g).max()
               for a, g in zip(assembled[1:], G_rows[1:])) < 1e-12


def test_gap_only_defect_reads_the_last_terminal_index(small_problem,
                                                       monkeypatch):
    # both inputs depend on the gap alone: one transform, the value of all M
    G_rows = small_problem.solve_v(ConvergenceMonitor())
    assembled = small_problem.assemble_G_rows(G_rows)
    every_j = max(small_problem.row_max_norm(a - g).max()
                  for a, g in zip(assembled[1:], G_rows[1:]))
    calls = []
    norm = small_problem.row_max_norm
    monkeypatch.setattr(small_problem, "row_max_norm",
                        lambda rows: calls.append(len(rows)) or norm(rows))
    assert small_problem.perturbation_residual(G_rows) == every_j
    assert calls == [small_problem.M]


def test_residual_decreases_under_refinement(sym, pg):
    res = {}
    for N, M in ((64, 8), (128, 16)):
        grid = SpaceTimeGrid(1, 20.0, N, 1.0, M)
        prob = PerturbationProblem(sym, pg, grid, constant_drift([1.0]))
        mon = ConvergenceMonitor(stop_tol=1e-10)
        G_rows = prob.solve_v(mon)
        # continuum defect against the exact transform at the full horizon
        exact = constant_drift_values(sym, pg, [1.0], grid, 1.0)
        num = synthesize(grid, G_rows[M][0])
        res[(N, M)] = np.abs(num - exact).max()
    assert res[(128, 16)] < res[(64, 8)]


def test_uniqueness_probe_two_seeds(small_problem):
    # the partial sums of the series converge to the direct solution
    mon = ConvergenceMonitor(stop_tol=1e-9)
    v = small_problem.v_rows(small_problem.solve_v(mon))
    terms = small_problem.iterate_terms(14)
    partial = [np.zeros_like(stack) for stack in v]
    errors = []
    for term in terms:
        partial = [p + t for p, t in zip(partial, term)]
        errors.append(max(small_problem.row_max_norm(p - s).max()
                          for p, s in zip(partial[1:], v[1:])))
    assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))
    assert errors[-1] < mon.stop_tol


def test_nonconvergence_carries_spectral_radius(sym, pg, small_grid):
    # a drift far beyond the contraction range on this horizon: the
    # successive approximations of the discrete system diverge
    b = constant_drift([40.0])
    prob = PerturbationProblem(sym, pg, small_grid, b)
    mon = ConvergenceMonitor()
    with pytest.raises(ConvergenceError, match="spectral radius") as err:
        prob.solve_v(mon)
    assert err.value.spectral_radius > 1.0
    assert err.value.spectral_radius == mon.spectral_radius
    assert len(err.value.norms) == 1
    assert not mon.converged


def test_drift_within_contraction_range_solves(sym, pg, small_grid):
    # b = 6 needs more than 40 successive approximations at this tolerance,
    # yet the discrete system's spectral radius is below one
    prob = PerturbationProblem(sym, pg, small_grid, constant_drift([6.0]))
    mon = ConvergenceMonitor()
    G_rows = prob.solve_v(mon)
    assert mon.converged
    assert 0.5 < mon.spectral_radius < 1.0
    assert prob.perturbation_residual(G_rows) < 1e-12
    Gf = prob.rows_to_scalar_field(G_rows)
    assert max(abs(Gf.mass(k) - 1.0) for k in Gf.pairs()) < 1e-12


def _per_terminal_rule(b_at, times, terminals):
    """The kernel rule as it once was, one table per terminal index, kept as
    the per-pair reference: entry j is W of shape (d, j, j + 1), and
    Int_{t_i}^{t_j} b_c H is sum_l W[c, i, l] H(t_l), W[c, i, l] = 0 for l < i."""
    from pseudoproc.quadrature import gauss_panels, _TABLES, _stencil
    tau, weight = gauss_panels(times)
    drift = np.array([[b_at(t) for t in row] for row in tau])
    d = drift.shape[2]
    step = np.einsum("kq,kqc,tqs->tkcs", weight, drift, _TABLES)
    rules = {}
    for j in terminals:
        W = np.zeros((d, j, j + 4))        # spare columns: short stencils
        for i in range(j):
            for r, (table, start) in enumerate(_stencil(j - i)):
                W[:, i, i + start:i + start + 4] += step[table, i + r]
        rules[j] = W[..., :j + 1]
    return rules


def _reference_K(prob, j):
    """K_j from the per-terminal rule, shape (j, j + 1, modes); the last
    column weighs the limit."""
    W = _per_terminal_rule(prob.b.at_time, prob.times, [j])[j]
    K = np.zeros((j, j + 1, prob.a.size), complex)
    for i in range(j):
        K[i, i:] = (W[:, i, i:].T @ prob._mult) * prob._gap_decay[:j + 1 - i]
    return K


def test_kernel_operator_has_no_entry_below_the_diagonal(small_grid):
    b = DriftField(dim=1, kind="time",
                   evaluator=lambda t: np.array([1.0 + np.sin(3.0 * t)]))
    times = small_grid.times()
    for j, W in _per_terminal_rule(b.at_time, times, range(len(times))).items():
        assert W.shape == (1, j, j + 1)
        assert not np.any(np.tril(W[0], -1))
        assert np.all(np.diagonal(W[0]) > 0.0)


def test_reported_radius_is_the_largest_eigenvalue(sym, pg, small_grid):
    prob = PerturbationProblem(sym, pg, small_grid, constant_drift([6.0]))
    mon = ConvergenceMonitor()
    prob.solve_v(mon)
    worst = 0.0
    for j in range(1, prob.M + 1):
        K = np.zeros((prob.a.size, j, j), complex)
        for i in range(j):
            # row i of K_j, shape (j + 1 - i, modes); the last weighs the limit
            K[:, i, i:] = prob.pair_quad(i, j)[:-1].T
        worst = max(worst, np.abs(np.linalg.eigvals(K)).max())
    assert mon.spectral_radius == pytest.approx(worst, rel=1e-12)


@pytest.mark.parametrize("steps", [8, 10])
def test_constant_drift_rows_depend_on_the_gap_alone(sym, pg, steps):
    grid = SpaceTimeGrid(1, 20.0, 64, 1.0, steps)
    prob = PerturbationProblem(sym, pg, grid, constant_drift([1.0]))
    G = prob.solve_v(ConvergenceMonitor())
    assert max(np.abs(row - G[j - i][0]).max()
               for (i, j), row in G.items()) <= 1e-13


def _unit_drift_twins(sym, pg, grid):
    """b = 1 as a constant drift (rows shared by gap) and as a time drift
    (every pair solved on its own)."""
    twin = DriftField(dim=1, kind="time", evaluator=lambda t: np.array([1.0]))
    return (PerturbationProblem(sym, pg, grid, constant_drift([1.0])),
            PerturbationProblem(sym, pg, grid, twin))


@pytest.mark.parametrize("N, M, tol", [(256, 16, 0.0), (512, 32, 0.0),
                                       (1024, 64, 0.0), (256, 10, 1e-14),
                                       (256, 24, 1e-14)])
def test_gap_path_equals_the_per_pair_path(sym, pg, N, M, tol):
    # equal on dyadic partitions; elsewhere the times t_j differ at round-off
    shared, per_pair = _unit_drift_twins(sym, pg, SpaceTimeGrid(1, 40.0, N, 1.0, M))
    mon, mon_ref = ConvergenceMonitor(), ConvergenceMonitor()
    G, G_ref = shared.solve_v(mon), per_pair.solve_v(mon_ref)
    if tol == 0.0:
        assert mon.spectral_radius == mon_ref.spectral_radius
        assert mon.iterate_norms == mon_ref.iterate_norms
    pairs = [(G, G_ref), (shared.assemble_G_rows(G), per_pair.assemble_G_rows(G_ref))]
    pairs += zip(shared.iterate_terms(4), per_pair.iterate_terms(4))
    for rows, ref in pairs:
        assert len(rows) == len(ref) == M + 1
        for r, f in zip(rows[1:], ref[1:]):
            if tol == 0.0:
                assert np.array_equal(r, f)
            else:
                assert np.abs(r - f).max() <= tol * np.abs(f).max()


def test_quad_rows_shares_rows_only_when_they_depend_on_the_gap(sym, pg):
    shared, per_pair = _unit_drift_twins(sym, pg, SpaceTimeGrid(1, 40.0, 256, 1.0, 16))
    G = shared.solve_v(ConvergenceMonitor())
    out = shared._quad_rows(G, 1.0)
    assert all(np.shares_memory(out[j], out[16]) for j in range(1, 17))
    # rows that differ within a gap: every pair keeps its own input
    rng = np.random.default_rng(5)
    rows = KernelRows(rng.normal(size=(j, 256)) + 0j for j in range(17))
    for r, f in zip(shared._quad_rows(rows, 1.0), per_pair._quad_rows(rows, 1.0)):
        assert np.array_equal(r, f)


def _pairs_sharing_memory(rows):
    """Every two time pairs whose slices or rows share memory."""
    items = list(rows.items())
    return [(p, q) for n, (p, a) in enumerate(items)
            for q, b in items[n + 1:] if np.shares_memory(a, b)]


def test_gap_only_rows_are_synthesized_and_multiplied_once(sym, pg,
                                                           small_grid):
    prob = _unit_drift_twins(sym, pg, small_grid)[0]
    M = prob.M
    G = prob.solve_v(ConvergenceMonitor())
    field, v = prob.rows_to_scalar_field(G), prob.v_rows(G)
    for (i, j), row in G.items():
        # pair (i, j) holds row M - (j - i) of one stack
        gap_row = M - (j - i)
        assert np.shares_memory(field.slice((i, j)), field.slice((gap_row, M)))
        assert np.array_equal(field.slice((i, j)), synthesize(prob.grid, row))
        assert np.shares_memory(v[j][i], v[M][gap_row])
        assert np.array_equal(v[j][i], prob.mult * row)


def test_rows_of_distinct_pairs_keep_their_own_slices(sym, pg, small_grid):
    shared, twin = _unit_drift_twins(sym, pg, small_grid)
    mon = ConvergenceMonitor()
    # the time twin solves every pair on its own; the exact rows of one gap
    # differ at round-off
    for prob, G in ((twin, twin.solve_v(mon)),
                    (shared, shared.closed_form_G_rows())):
        field, v = prob.rows_to_scalar_field(G), prob.v_rows(G)
        assert _pairs_sharing_memory(
            {p: field.slice(p) for p in field.pairs()}) == []
        assert _pairs_sharing_memory(v) == []
        for (i, j), row in G.items():
            assert np.array_equal(field.slice((i, j)),
                                  synthesize(prob.grid, row))
            assert np.array_equal(v[j][i], prob.mult * row)


def test_constant_drift_solves_one_terminal_index(sym, pg, small_grid,
                                                  monkeypatch):
    terminals = set()
    pair_quad = PerturbationProblem.pair_quad

    def counted(self, i, j):
        terminals.add(j)
        return pair_quad(self, i, j)

    monkeypatch.setattr(PerturbationProblem, "pair_quad", counted)
    M = small_grid.time_steps
    for prob, solved in zip(_unit_drift_twins(sym, pg, small_grid),
                            ({M}, set(range(1, M + 1)))):
        terminals.clear()
        prob.solve_v(ConvergenceMonitor())
        assert terminals == solved


def _carry_problem(dim, drift):
    """b = 1 (in 2-D, (1, -0.5)) as a constant drift, as its time twin, or
    times 0.75 + 0.5 cos(2 pi t), in 1-D (12 steps) or 2-D (8 steps)."""
    from pseudoproc import PseudoGradientSpec, isotropic_symbol
    grid = (SpaceTimeGrid(1, 20.0, 64, 1.0, 12) if dim == 1
            else SpaceTimeGrid(2, 10.0, 16, 1.0, 8))
    unit = np.array([1.0, -0.5][:dim])
    b = {"constant": constant_drift(unit),
         "twin": DriftField(dim=dim, kind="time", evaluator=lambda t: unit),
         "time": DriftField(dim=dim, kind="time", evaluator=lambda t: unit
                            * (0.75 + 0.5 * np.cos(2.0 * np.pi * t)))}[drift]
    return PerturbationProblem(isotropic_symbol(1.5, 1.0, dim),
                               PseudoGradientSpec(0.5, dim), grid, b)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("drift", ["constant", "twin", "time"])
def test_carried_rows_equal_the_per_terminal_operator(dim, drift):
    prob = _carry_problem(dim, drift)
    M, modes = prob.M, prob.a.size
    rng = np.random.default_rng(7)
    rows = KernelRows(rng.normal(size=(j,) + prob.a.shape)
                      + 1j * rng.normal(size=(j,) + prob.a.shape)
                      for j in range(M + 1))
    quad = prob._quad_rows(rows, 0.5)
    G = prob.solve_v(ConvergenceMonitor())
    for j in range(1, M + 1):
        K = _reference_K(prob, j)
        for i in range(j):
            assert np.abs(prob.pair_quad(i, j) - K[i, i:]).max() \
                <= 1e-15 * np.abs(K).max()
        f = np.concatenate([rows[j].reshape(j, modes),
                            np.full((1, modes), 0.5)])
        ref = np.einsum("ilm,lm->im", K, f)
        assert np.abs(quad[j].reshape(j, modes) - ref).max() \
            <= 1e-13 * np.abs(ref).max()
        # back-substitution of (I - K_j) G_j = g_j + c_j with K_j's rows
        G_ref = np.ones((j + 1, modes), complex)
        for i in range(j - 1, -1, -1):
            G_ref[i] = ((prob._gap_decay[j - i] + (K[i, i + 1:] * G_ref[i + 1:])
                         .sum(axis=0)) / (1.0 - K[i, i]))
        assert np.abs(G[j].reshape(j, modes) - G_ref[:j]).max() \
            <= 1e-13 * np.abs(G_ref).max()


def test_gap_only_accepts_views_and_solves_equal_copies_per_terminal(sym, pg):
    prob = _unit_drift_twins(sym, pg, SpaceTimeGrid(1, 40.0, 256, 1.0, 16))[0]
    G = prob.solve_v(ConvergenceMonitor())
    copies = KernelRows(stack.copy() for stack in G)
    assert depends_on_gap(G) and not depends_on_gap(copies)
    for made in (prob._quad_rows, prob.assemble_G_rows, prob.v_rows):
        args = (1.0,) if made == prob._quad_rows else ()
        by_gap, per_j = made(G, *args), made(copies, *args)
        assert depends_on_gap(by_gap) and not depends_on_gap(per_j)
        # a dyadic partition: every step's weights are the same numbers
        assert all(np.array_equal(a, b) for a, b in zip(by_gap, per_j))


def test_adjacent_pair_error_falls_under_refinement(sym, pg):
    errors = []
    for N, M in ((256, 16), (512, 32)):
        grid = SpaceTimeGrid(1, 40.0, N, 1.0, M)
        prob = PerturbationProblem(sym, pg, grid, constant_drift([1.0]))
        G = prob.solve_v(ConvergenceMonitor())
        exact = prob.closed_form_G_rows()
        # the adjacent pairs (i, i + 1)
        num = np.stack([G[i + 1][i] for i in range(M)])
        ref = np.stack([exact[i + 1][i] for i in range(M)])
        errors.append((prob.row_max_norm(num - ref)
                       / prob.row_max_norm(ref)).max())
    assert errors[0] < 2e-4
    assert errors[1] < 0.5 * errors[0]


def test_large_drift_names_the_step_coupling(sym, pg, default_grid):
    prob = PerturbationProblem(sym, pg, default_grid, constant_drift([12.0]))
    mon = ConvergenceMonitor()
    with pytest.raises(ConvergenceError, match="dt") as err:
        prob.solve_v(mon)
    assert "|m|max * dt" in str(err.value)
    assert 1.0 < err.value.spectral_radius < 1.5


def test_time_dependent_drift_matches_closed_form(sym, pg, small_grid):
    prob = _time_dependent_problem(sym, pg, small_grid)
    G = prob.solve_v(ConvergenceMonitor())
    exact = prob.closed_form_G_rows()
    assert max(prob.row_max_norm(g - e).max()
               for g, e in zip(G[1:], exact[1:])) < 2e-3


def test_time_dependent_drift_solves(sym, pg, small_grid):
    b = mollified_time_drift(lambda t: np.array([0.5 + 0.5 * np.sign(np.sin(8 * t))]),
                             width=0.05, dim=1)
    prob = PerturbationProblem(sym, pg, small_grid, b)
    mon = ConvergenceMonitor()
    Gf = prob.rows_to_scalar_field(prob.solve_v(mon))
    assert max(abs(Gf.mass(k) - 1.0) for k in Gf.pairs()) < 5e-3


def test_kernel_solver_rejects_space_dependent_drift(sym, pg, small_grid):
    b = DriftField(dim=1, kind="space_time",
                   evaluator=lambda t, x: np.exp(-x ** 2)[None, :])
    with pytest.raises(ValueError, match="spatially-constant"):
        PerturbationProblem(sym, pg, small_grid, b)


def test_convergence_log_rows(small_problem):
    mon = ConvergenceMonitor()
    small_problem.solve_v(mon)
    rows = mon.convergence_log()
    # the direct solve records once: its residual and spectral radius
    assert rows == [(1, mon.iterate_norms[0], mon.spectral_radius,
                     mon.wall_times[0])]
    assert 0.0 < mon.spectral_radius < 1.0


def test_scaling_report_validates_exponents():
    gaps = [0.01, 0.1]
    with pytest.raises(ValueError):
        kernel_convolution_scaling([(0.0, 0.0, 2.0, 0.5)], 1.5, 1, gaps)
    with pytest.raises(ValueError):  # every bundle is checked
        kernel_convolution_scaling([(0.0, 0.0, 0.5, 0.5),
                                    (0.0, 0.0, 0.5, 1.6)], 1.5, 1, gaps)
    with pytest.raises(NotImplementedError):
        kernel_convolution_scaling([(0.0, 0.0, 0.5, 0.5)], 1.5, 2, gaps)


def test_scaling_equal_exponent_formula_reduction():
    # with kappa = lambda = 0 and k = l both predicted exponents coincide
    gaps = 6.0 ** 1.5 / 1000.0 * np.logspace(-1, 0, 4)
    rep, = kernel_convolution_scaling([(0.0, 0.0, 0.5, 0.5)], 1.5, 1,
                                      gaps=gaps)
    assert rep.predicted_exponent == pytest.approx(1.0 - 0.5 / 1.5)
    assert rep.passed


def test_scaling_spec_bundle_tracks_dominant_far_zone_exponent():
    # unequal spatial exponents: the short-gap law at fixed separation is
    # governed by the larger of the two
    gaps = 6.0 ** 1.5 / 1000.0 * np.logspace(-1, 0, 4)
    rep, = kernel_convolution_scaling([(0.0, 0.0, 0.5, 1.0)], 1.5, 1,
                                      gaps=gaps)
    assert rep.predicted_exponent == pytest.approx(1.0 + (0.0 - 1.0) / 1.5)
    assert abs(rep.fitted_exponent - rep.predicted_exponent) <= 0.1


def test_series_exponent_infinite_p():
    assert series_exponent(1.5, 0.5, 1, math.inf) == pytest.approx(2.0 / 3.0)
    assert series_exponent(1.5, 0.5, 1, 10.0) == pytest.approx(
        1.0 - (2.5 / 10.0 + 0.5) / 1.5)


def test_two_dimensional_solve_matches_transform():
    from pseudoproc import PseudoGradientSpec, isotropic_symbol
    grid = SpaceTimeGrid(2, 15.0, 48, 1.0, 6)
    sym2 = isotropic_symbol(1.5, 1.0, 2)
    pg2 = PseudoGradientSpec(beta=0.5, dim=2)
    b2 = constant_drift([0.6, -0.3])
    prob = PerturbationProblem(sym2, pg2, grid, b2)
    mon = ConvergenceMonitor()
    G_rows = prob.solve_v(mon)
    Gcf = prob.closed_form_G_rows()
    worst = 0.0
    for (i, j), row in G_rows.items():
        num = synthesize(grid, row)
        exact = synthesize(grid, Gcf[j][i])
        mask = np.abs(exact) > 1e-4
        if mask.any():
            worst = max(worst, np.abs(num - exact)[mask].max()
                        / np.abs(exact).max())
    assert worst < 2e-2
    Gf = prob.rows_to_scalar_field(G_rows)
    assert max(abs(Gf.mass(k) - 1.0) for k in Gf.pairs()) < 1e-12


# -- batched paths against the per-pair and per-node loops they replace ------

def _scaling_values_per_node(kappa, lam, k, l, alpha, gaps, offset=6.0):
    """The per-node quadrature of kernel_convolution_scaling, kept as reference."""
    from pseudoproc.quadrature import gauss_panels

    def env(sig, r, power_t, power_r):
        return sig ** (power_t / alpha) / ((sig ** (1.0 / alpha) + np.abs(r))
                                           ** power_r)

    def z_integral(sig, T):
        w1 = sig ** (1.0 / alpha)
        w2 = (T - sig) ** (1.0 / alpha)
        far = 60.0 * (offset + 1.0)
        e = {0.0, offset, -far, far}
        for m in range(-3, 14):
            sc = 2.0 ** m
            e.update((-w1 * sc, w1 * sc, offset - w2 * sc, offset + w2 * sc))
        zq, wq = gauss_panels(
            np.array(sorted(v for v in e if -far <= v <= far)), 10)
        return (wq * env(sig, zq, lam, 1 + l)
                * env(T - sig, offset - zq, kappa, 1 + k)).sum()

    vals = []
    for T in gaps:
        edges = np.unique(np.concatenate([
            [0.0], T * 0.5 * 2.0 ** (-np.arange(18, -1, -1.0)),
            T - T * 0.5 * 2.0 ** (-np.arange(0, 19.0)), [T]]))
        tq, tw = gauss_panels(edges, 10)
        vals.append(sum(w * z_integral(q, T)
                        for q, w in zip(tq.ravel(), tw.ravel())))
    return np.asarray(vals)


# the two acceptance bundles and one bundle with k != l
_SCALING_BUNDLES = [(0.0, 0.0, 0.5, 0.5), (0.45, 0.75, 0.9, 0.9),
                    (0.0, 0.0, 0.5, 1.0)]
_SCALING_GAPS = 6.0 ** 1.5 / 1000.0 * np.logspace(-1, 0, 3)


@functools.lru_cache(maxsize=None)
def _per_node_reference(bundle):
    return _scaling_values_per_node(*bundle, 1.5, _SCALING_GAPS)


@pytest.mark.parametrize("kappa, lam, k, l", _SCALING_BUNDLES)
def test_scaling_matches_per_node_quadrature(kappa, lam, k, l):
    rep, = kernel_convolution_scaling([(kappa, lam, k, l)], 1.5, 1,
                                      gaps=_SCALING_GAPS)
    np.testing.assert_allclose(rep.values,
                               _per_node_reference((kappa, lam, k, l)),
                               rtol=1e-13, atol=0.0)


def test_scaling_bundles_in_one_call_match_per_node_quadrature():
    # the bundles share the nodes and the logs; each keeps its own report
    reps = kernel_convolution_scaling(_SCALING_BUNDLES, 1.5, 1,
                                      gaps=_SCALING_GAPS)
    assert len(reps) == len(_SCALING_BUNDLES)
    for (kappa, lam, k, l), rep in zip(_SCALING_BUNDLES, reps):
        np.testing.assert_allclose(rep.values,
                                   _per_node_reference((kappa, lam, k, l)),
                                   rtol=1e-13, atol=0.0)
        assert rep.predicted_exponent == pytest.approx(
            1.0 + (kappa + lam - max(k, l)) / 1.5)


def _two_dimensional_problem():
    from pseudoproc import PseudoGradientSpec, isotropic_symbol
    grid = SpaceTimeGrid(2, 10.0, 16, 1.0, 4)
    return PerturbationProblem(isotropic_symbol(1.5, 1.0, 2),
                               PseudoGradientSpec(beta=0.5, dim=2), grid,
                               constant_drift([0.6, -0.3]))


@pytest.mark.parametrize("dim", [1, 2])
def test_kernel_rows_stack_each_terminal_index(dim, small_problem):
    prob = small_problem if dim == 1 else _two_dimensional_problem()
    G_rows = prob.solve_v(ConvergenceMonitor())
    v_rows = prob.v_rows(G_rows)
    made = {"g_rows": (prob.g_rows(), ()), "solve_v": (G_rows, ()),
            "v_rows": (v_rows, (dim,)),
            "closed_form_G_rows": (prob.closed_form_G_rows(), ())}
    pairs = sorted((i, j) for j in range(1, prob.M + 1) for i in range(j))
    for name, (rows, vector) in made.items():
        assert isinstance(rows, KernelRows) and len(rows) == prob.M + 1, name
        for j, stack in enumerate(rows):   # rows[0] is an empty stack
            assert stack.shape == (j,) + vector + prob.a.shape, name
        items = list(rows.items())
        assert sorted(k for k, _ in items) == pairs, name
        for (i, j), row in items:
            # numpy hands out a new view per index, so identity reads as
            # a view of the stack holding the same values
            assert np.shares_memory(row, rows[j]), name
            assert np.array_equal(row, rows[j][i]), name
    assert prob.rows_to_scalar_field(G_rows).pairs() == pairs
    assert prob.rows_to_vector_field(v_rows).pairs() == pairs


@pytest.mark.parametrize("dim", [1, 2])
def test_rows_to_fields_match_per_pair_synthesis(dim, small_problem):
    prob = small_problem if dim == 1 else _two_dimensional_problem()
    G_rows = prob.solve_v(ConvergenceMonitor())
    v_rows = prob.v_rows(G_rows)
    Gf = prob.rows_to_scalar_field(G_rows)
    vf = prob.rows_to_vector_field(v_rows)
    assert Gf.pairs() == vf.pairs() == sorted(k for k, _ in G_rows.items())
    for (i, j), row in G_rows.items():
        assert np.array_equal(Gf.slice((i, j)), synthesize(prob.grid, row))
        assert np.array_equal(vf.slice((i, j)), np.stack(
            [synthesize(prob.grid, c) for c in v_rows[j][i]]))


@pytest.mark.parametrize("dim", [1, 2])
def test_row_max_norm_of_a_stack_matches_single_rows(dim, small_problem):
    prob = small_problem if dim == 1 else _two_dimensional_problem()
    G_rows = prob.solve_v(ConvergenceMonitor())
    for rows in (G_rows[-1], prob.v_rows(G_rows)[-1]):
        norms = prob.row_max_norm(rows)
        assert norms.shape == (prob.M,)
        assert norms.tolist() == [prob.row_max_norm(r[None])[0] for r in rows]


def _swapped_row_max_norm(prob, rows):
    """row_max_norm as taken from the centered (half-swapped) samples."""
    comps = synthesize(prob.grid, rows, require_real=False)
    comps = comps.reshape((len(rows), -1, prob.a.size))
    return np.sqrt((np.abs(comps) ** 2).sum(1)).max(1)


@pytest.mark.parametrize("dim", [1, 2])
def test_row_max_norm_equals_the_half_swapped_sup(dim, sym, pg, small_grid):
    prob = (_time_dependent_problem(sym, pg, small_grid) if dim == 1
            else _two_dimensional_problem())
    G_rows = prob.solve_v(ConvergenceMonitor())
    # the rows the residuals reduce: defects of G and of v, scalar and vector
    assembled = prob.assemble_G_rows(G_rows)
    v, v_assembled = prob.v_rows(G_rows), prob.v_rows(assembled)
    for j in range(1, prob.M + 1):
        for rows in (assembled[j] - G_rows[j], v_assembled[j] - v[j], v[j]):
            assert prob.row_max_norm(rows).tobytes() == \
                _swapped_row_max_norm(prob, rows).tobytes()
    swapped = PerturbationProblem(prob.sym, prob.pg, prob.grid, prob.b)
    swapped.row_max_norm = lambda rows: _swapped_row_max_norm(swapped, rows)
    for residual in ("perturbation_residual", "series_residual"):
        assert repr(getattr(prob, residual)(G_rows)) == \
            repr(getattr(swapped, residual)(G_rows))


def _vector_quad_rows(prob, v_rows, limit):
    """The vector recursion the scalar operator replaced, kept as reference:
    Int_{t_i}^{t_j} g(tau - t_i) (b(tau), v(tau, t_j)) dtau for every pair,
    limit being v(t_j, t_j) of shape (d, modes)."""
    rule = _per_terminal_rule(prob.b.at_time, prob.times, range(1, prob.M + 1))
    decay = prob._gap_decay.T
    mult = prob.mult.reshape(prob.grid.dim, -1)
    out = KernelRows()
    for j in range(prob.M + 1):
        v = np.concatenate([v_rows[j].reshape((j,) + mult.shape), limit[None]])
        v = np.moveaxis(v, 0, -1)                      # (d, modes, j + 1)
        quad = np.zeros((j, mult.shape[1]), complex)
        for i in range(j):
            weights = rule[j][:, i, None, i:] * decay[:, :j + 1 - i]
            quad[i] = (weights * v[..., i:]).sum(axis=(0, 2))
        out.append(quad.reshape((j,) + prob.a.shape))
    return out


def _time_dependent_problem(sym, pg, grid):
    b = DriftField(dim=1, kind="time", evaluator=lambda t: np.array(
        [0.75 + 0.5 * np.cos(2.0 * np.pi * t)]))
    return PerturbationProblem(sym, pg, grid, b)


def _relative_gap(rows, ref):
    return max(np.abs(r - f).max() / np.abs(f).max()
               for r, f in zip(rows[1:], ref[1:]))


@pytest.mark.parametrize("dim", [1, 2])
def test_scalar_operator_matches_the_vector_recursion(dim, sym, pg,
                                                      small_grid):
    prob = (_time_dependent_problem(sym, pg, small_grid) if dim == 1
            else _two_dimensional_problem())
    mult = prob.mult.reshape(dim, -1)
    ref = [prob.v_rows(prob.g_rows())]
    limit = mult
    for _ in range(1, 10):
        ref.append(prob.v_rows(_vector_quad_rows(prob, ref[-1], limit)))
        limit = np.zeros_like(mult)
    for term, expected in zip(prob.iterate_terms(10), ref):
        assert _relative_gap(term, expected) <= 1e-13
    G_rows = prob.solve_v(ConvergenceMonitor())
    assembled = KernelRows(g + q for g, q in zip(
        prob.g_rows(), _vector_quad_rows(prob, prob.v_rows(G_rows), mult)))
    assert _relative_gap(prob.assemble_G_rows(G_rows), assembled) <= 1e-13


def test_time_dependent_solve_meets_its_own_identity(sym, pg, small_grid):
    prob = _time_dependent_problem(sym, pg, small_grid)
    G_rows = prob.solve_v(ConvergenceMonitor())
    assert prob.perturbation_residual(G_rows) < 1e-12


def test_nan_in_one_mode_of_one_terminal_index_fails_the_solve(small_problem):
    prob = PerturbationProblem(small_problem.sym, small_problem.pg,
                               small_problem.grid, small_problem.b)
    decay = prob._gap_decay.copy()
    # row M feeds only the pair (0, M): one mode of the last terminal index
    decay[prob.M, 5] = np.nan
    prob._gap_decay = decay
    mon = ConvergenceMonitor()
    with pytest.raises(ConvergenceError, match="residual nan"):
        prob.solve_v(mon)
    assert math.isnan(mon.iterate_norms[-1])
