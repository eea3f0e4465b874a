import math

import numpy as np
import pytest

from pseudoproc import (SpaceTimeGrid, PseudoGradientSpec,
                        SymbolSpec, synthesize_g0, g0_values,
                        constant_drift_kernel, constant_drift_values,
                        apply_pseudo_gradient, pseudo_gradient_g0,
                        singular_gradient_at, check_resolution,
                        ResolutionError, chapman_defect, base_kernel_field,
                        isotropic_symbol, synthesize, constant_drift,
                        PerturbationProblem)
from pseudoproc.spectral import _bessel_j, _panels
from pseudoproc.verify import self_similarity_defect


def test_mass_is_one_for_every_partition_gap(sym, default_grid):
    for gap in default_grid.gaps():
        vals = g0_values(sym, default_grid, gap)
        assert abs(vals.sum() * default_grid.dx - 1.0) < 1e-6


@pytest.mark.parametrize("dim", [1, 2])
def test_base_kernel_field_views_one_slice_per_gap(sym, small_grid, dim):
    grid = small_grid if dim == 1 else SpaceTimeGrid(2, 10.0, 16, 1.0, 4)
    symbol = sym if dim == 1 else isotropic_symbol(1.5, 1.0, 2)
    f = base_kernel_field(symbol, grid)
    M = grid.time_steps
    pairs = [(i, j) for j in range(1, M + 1) for i in range(j)]
    assert f.meaning == "g" and f.pairs() == sorted(pairs)
    for i, j in pairs:
        assert np.array_equal(f.slice((i, j)),
                              g0_values(symbol, grid, (j - i) * grid.dt))
        # every pair of one gap views the slice of the pair (0, gap)
        assert np.shares_memory(f.slice((i, j)), f.slice((0, j - i)))
    assert not np.shares_memory(f.slice((0, 1)), f.slice((0, 2)))


def test_peak_value_matches_analytic_integral(sym):
    # 1-d: g0(1, 0) = Gamma(1 + 1/alpha) / pi for the unit isotropic symbol
    grid = SpaceTimeGrid(1, 160.0, 2048, 1.0, 16)
    vals = g0_values(sym, grid, 1.0)
    exact = math.gamma(1.0 + 1.0 / 1.5) / math.pi
    assert vals[grid.points_per_dim // 2] == pytest.approx(exact, abs=1e-6)


def test_kernel_is_even_and_positive(sym, default_grid):
    vals = g0_values(sym, default_grid, 1.0)
    assert np.allclose(vals[1:], vals[1:][::-1], atol=1e-13)
    assert vals.min() >= -1e-8


def test_self_similarity_scaling_law(sym, default_grid):
    for dt in (default_grid.dt, 0.25, 1.0, 2.0):
        assert self_similarity_defect(sym, default_grid, dt) < 1e-5


def test_two_gap_composition_identity(sym, default_grid):
    assert chapman_defect(sym, default_grid, 0.25, 0.5) < 1e-5
    assert chapman_defect(sym, default_grid, default_grid.dt, 0.75) < 1e-5


def test_resolution_gate_names_offending_dt(sym):
    grid = SpaceTimeGrid(1, 40.0, 64, 1.0, 16)  # coarse lattice
    with pytest.raises(ResolutionError, match="dt=0.01"):
        synthesize_g0(sym, grid, 0.01)
    # report itself is pure
    rep = check_resolution(sym, grid, 0.01)
    assert not rep.tail_ok
    assert rep.spectral_tail > 1e-6
    # vanishing gap drives the tail mass to one
    assert check_resolution(sym, grid, 1e-12).spectral_tail > 0.999


def test_resolution_report_passes_on_generous_grid(sym):
    grid = SpaceTimeGrid(1, 40.0, 2048, 1.0, 16)
    rep = check_resolution(sym, grid, 0.05)
    assert rep.passed


def test_closed_form_reduces_to_base_at_zero_drift(sym, pg, default_grid):
    G = constant_drift_values(sym, pg, [0.0], default_grid, 1.0)
    g0 = g0_values(sym, default_grid, 1.0)
    assert np.array_equal(G, g0)


def test_closed_form_mass_and_negativity(sym, pg, default_grid):
    vals = constant_drift_values(sym, pg, [1.0], default_grid, 1.0)
    assert abs(vals.sum() * default_grid.dx - 1.0) < 1e-6
    assert vals.min() < -1e-6


def test_closed_form_kernel_of_a_custom_symbol_equals_the_exact_rows(
        pg, default_grid):
    # the closed form exp(-a dt + (b, multiplier) dt) holds for any symbol a
    skew = SymbolSpec(alpha=1.5, variant="custom", dim=1, a0=1.0,
                      evaluator=lambda lam: np.abs(lam) ** 1.5
                      * (1.0 + 0.2j * np.sign(lam)))
    kernel = constant_drift_kernel(skew, pg, [1.0], default_grid, 1.0)
    prob = PerturbationProblem(skew, pg, default_grid, constant_drift([1.0]))
    exact = synthesize(default_grid, prob.closed_form_pair_rows([(0, 16)]))
    assert np.abs(kernel.slice((0, 16)) - exact[0]).max() < 1e-15


def test_custom_symbol_kernel_is_real_with_unit_mass(default_grid):
    skew = SymbolSpec(alpha=1.5, variant="custom", dim=1, a0=1.0,
                      evaluator=lambda lam: np.abs(lam) ** 1.5
                      * (1.0 + 0.2j * np.sign(lam)))
    vals = g0_values(skew, default_grid, 1.0)
    assert abs(vals.sum() * default_grid.dx - 1.0) < 1e-6
    # skewness shifts the peak off the origin
    assert vals.argmax() != default_grid.points_per_dim // 2


def test_pseudo_gradient_of_field_matches_direct_synthesis(sym, pg, default_grid):
    samples = g0_values(sym, default_grid, 1.0)
    out = apply_pseudo_gradient(samples, pg, default_grid)
    direct = pseudo_gradient_g0(sym, pg, default_grid, 1.0)
    assert np.allclose(out, direct, atol=1e-13)


def test_pseudo_gradient_parity(pg, default_grid):
    out = apply_pseudo_gradient(lambda x: np.exp(-0.5 * x ** 2), pg,
                                default_grid)
    comp = out[0]
    # even input -> odd, real output
    assert np.allclose(comp[1:], -comp[1:][::-1], atol=1e-12)
    assert abs(comp[default_grid.points_per_dim // 2]) < 1e-12


def test_pseudo_gradient_rejects_nan(pg, default_grid):
    bad = np.full(default_grid.shape(), np.nan)
    with pytest.raises(ValueError, match="non-finite"):
        apply_pseudo_gradient(bad, pg, default_grid)


def test_cross_mode_agreement_improves_with_cutoff(pg, default_grid):
    gauss = lambda x: np.exp(-0.5 * x ** 2)
    spec = apply_pseudo_gradient(gauss, pg, default_grid)
    xs = default_grid.axis()
    probe = np.abs(xs) <= 8.0
    diffs = []
    for eps_rel in (1e-2, 1e-4, 1e-6):
        pgs = PseudoGradientSpec(beta=0.5, dim=1,
                                 eps_inner=eps_rel * default_grid.dx,
                                 r_outer=30.0)
        sing = singular_gradient_at(gauss, xs[probe][:, None], pgs)
        diffs.append(np.abs(sing[:, 0] - spec[0][probe]).max())
    assert diffs[0] > diffs[1] > diffs[2]
    assert diffs[2] < 1e-3


def test_singular_mode_2d_bump_against_spectral():
    grid = SpaceTimeGrid(2, 15.0, 64, 1.0, 4)
    pg2 = PseudoGradientSpec(beta=0.5, dim=2, eps_inner=1e-7, r_outer=40.0)
    f = lambda x, y: np.exp(-0.5 * (x ** 2 + y ** 2))
    spec = apply_pseudo_gradient(f, pg2, grid)
    x = grid.axis()
    idx = [(34, 31), (36, 33), (32, 34)]
    pts = np.array([[x[i], x[j]] for i, j in idx])
    sing = singular_gradient_at(f, pts, pg2, theta_nodes=96)
    for (i, j), s in zip(idx, sing):
        assert np.allclose(s, spec[:, i, j], atol=2e-3)


@pytest.mark.parametrize("n", [0, 1])
def test_bessel_j_matches_scipy(n):
    from scipy.special import j0, j1
    oracle = (j0, j1)[n]
    cutoffs = [v for c in (1.0, 25.0)
               for v in (np.nextafter(c, 0.0), c, np.nextafter(c, 2 * c))]
    x = np.concatenate([np.geomspace(1e-25, 2e4, 4000),
                        np.linspace(0.5, 40.0, 2000), cutoffs])
    got, want = _bessel_j(n, x), oracle(x)
    assert np.abs(got - want).max() <= 2e-15
    small = x <= 1.0
    assert (np.abs(got - want)[small] / np.abs(want[small])).max() <= 1e-14
    # the nodes of the fine 2-D plane-wave row
    u, _ = _panels(1.3e-22, 1.3e4, 6, osc_scale=1.0)
    assert np.abs(_bessel_j(n, u) - oracle(u)).max() <= 2e-15
