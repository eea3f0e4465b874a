import numpy as np
import pytest

from pseudoproc import (SymbolSpec, SymbolError, PseudoGradientSpec,
                        SpaceTimeGrid, ImaginaryResidueError,
                        isotropic_symbol, gamma_extended,
                        pseudo_gradient_normalizer,
                        pseudo_gradient_normalizer_neg_gamma)
from pseudoproc.spectral import plane_wave_consistency, singular_gradient_at
from pseudoproc.verify import GOLDEN_VALUES


def test_gamma_recursion_matches_library():
    from scipy.special import gamma
    for x in (0.3, 1.7, 4.2):
        assert gamma_extended(x) == pytest.approx(float(gamma(x)), rel=1e-14)
    # negative non-integers through the functional equation
    for x in (-0.25, -0.5, -1.3, -2.75):
        assert gamma_extended(x) == pytest.approx(float(gamma(x)), rel=1e-12)


def test_gamma_recursion_pole():
    with pytest.raises(ValueError):
        gamma_extended(-2.0)


def test_normalizer_twelve_digit_golden():
    golden = GOLDEN_VALUES["normalizer_halforder_1d"]["value"]
    assert pseudo_gradient_normalizer(0.5, 1) == pytest.approx(golden, rel=1e-12)


@pytest.mark.parametrize("beta", [0.15, 0.3, 0.5, 0.7, 0.9])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_normalizer_gamma_forms_agree(beta, dim):
    a = pseudo_gradient_normalizer(beta, dim)
    b = pseudo_gradient_normalizer_neg_gamma(beta, dim)
    assert a == pytest.approx(b, rel=1e-12)
    assert a > 0


@pytest.mark.parametrize("beta", [0.0, 1.0, -0.2, 1.4])
def test_normalizer_domain_errors(beta):
    with pytest.raises(ValueError):
        pseudo_gradient_normalizer(beta, 1)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("beta", [0.3, 0.5, 0.7])
def test_plane_wave_consistency_refines_below_tolerance(dim, beta):
    # the singular-integral form with this normalizer must reproduce the
    # multiplier on plane waves once the cutoffs are refined
    pgrad = PseudoGradientSpec(beta=beta, dim=dim)
    coarse = plane_wave_consistency(pgrad, 1.3, eps=1e-8, r_outer=200.0,
                                    panels_per_decade=4)
    fine = plane_wave_consistency(pgrad, 1.3, eps=1e-22, r_outer=1e4,
                                  panels_per_decade=6)
    assert fine < 1e-6
    assert fine < coarse


def test_isotropic_symbol_validates(sym):
    report = sym.validate()
    assert report["re_min_on_sphere"] >= 1.0
    assert report["homogeneity_defect"] < 1e-12


def test_symbol_rejects_bad_order():
    with pytest.raises(SymbolError):
        SymbolSpec(alpha=2.3)
    with pytest.raises(SymbolError):
        SymbolSpec(alpha=1.0)


def test_custom_symbol_asymmetric_passes_checks():
    # skewed stable-type symbol |lam|^a (1 + i theta sign lam), Re bounded below
    def ev(lam):
        return np.abs(lam) ** 1.5 * (1.0 + 0.2j * np.sign(lam))

    spec = SymbolSpec(alpha=1.5, variant="custom", dim=1, evaluator=ev, a0=1.0)
    spec.validate()


def test_custom_symbol_flags_inhomogeneity():
    # construction validates a custom symbol: no command can use one unchecked
    with pytest.raises(SymbolError, match="homogeneous"):
        SymbolSpec(alpha=1.5, variant="custom", dim=1,
                   evaluator=lambda lam: np.abs(lam) ** 1.2, a0=0.5)


def test_custom_symbol_flags_sphere_violation():
    with pytest.raises(SymbolError, match="sphere"):
        SymbolSpec(alpha=1.5, variant="custom", dim=1,
                   evaluator=lambda lam: 0.1 * np.abs(lam) ** 1.5, a0=0.5)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("tilt, hermitian", [(0.0, True), (1e-12, True),
                                             (1e-7, False), (0.2, False)])
def test_on_grid_refuses_a_custom_symbol_that_is_not_hermitian(dim, tilt,
                                                                hermitian):
    # |lam|^1.5 (1 + 0.2i sign lam_0 + i tilt): a(-lam) = conj a(lam) holds at
    # tilt 0, and to the 1e-9 relative tolerance only for a tilt below it
    def ev(*ks):
        norm = np.sqrt(sum(k * k for k in ks))
        return norm ** 1.5 * (1.0 + 0.2j * np.sign(ks[0]) + 1j * tilt)

    spec = SymbolSpec(alpha=1.5, variant="custom", dim=dim, evaluator=ev,
                      a0=1.0)
    spec.validate()               # admissible: homogeneous, Re a >= a0
    grid = SpaceTimeGrid(dim, 10.0, 16, 1.0, 4)
    if hermitian:
        assert spec.on_grid(grid).shape == grid.spectrum_shape()
        return
    with pytest.raises(ImaginaryResidueError, match="not Hermitian"):
        spec.on_grid(grid)


def test_isotropic_symbols_are_real_on_the_half_lattice():
    for dim, shape in ((1, (9,)), (2, (16, 9))):
        grid = SpaceTimeGrid(dim, 10.0, 16, 1.0, 4)
        a = isotropic_symbol(1.5, 2.0, dim).on_grid(grid)
        assert a.shape == shape == grid.spectrum_shape()
        assert np.array_equal(a.imag, np.zeros(shape))
        assert np.array_equal(a.real, 2.0 * grid.freq_norm() ** 1.5)


def test_pseudo_gradient_spec_validation():
    with pytest.raises(ValueError):
        PseudoGradientSpec(beta=1.0, dim=1)
    # the singular form's cutoffs are arguments of its evaluation
    for eps_inner, r_outer in ((2.0, 1.0), (0.0, 1.0)):
        with pytest.raises(ValueError, match="0 < eps_inner < r_outer"):
            singular_gradient_at(np.sin, [[0.0]], PseudoGradientSpec(0.5),
                                 eps_inner, r_outer)


def test_multiplier_vanishes_at_origin_and_nyquist(pg, default_grid):
    m = pg.multiplier(default_grid)
    norm = default_grid.freq_norm()
    assert m.shape == (1, 129)
    assert m[0][norm == 0] == 0
    assert m[0][default_grid.nyquist_mask()] == 0
    # odd and purely imaginary elsewhere
    (k,) = default_grid.freq_mesh()
    sel = (norm > 0) & ~default_grid.nyquist_mask()
    assert np.all(m[0][sel].real == 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = 1j * k * np.abs(k) ** (-0.5)
    assert np.allclose(expected[sel], m[0][sel])
