import numpy as np
import pytest

from pseudoproc import (SymbolSpec, SymbolError, PseudoGradientSpec,
                        isotropic_symbol, gamma_extended,
                        pseudo_gradient_normalizer,
                        pseudo_gradient_normalizer_neg_gamma)
from pseudoproc.spectral import plane_wave_consistency
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
    spec = SymbolSpec(alpha=1.5, variant="custom", dim=1,
                      evaluator=lambda lam: np.abs(lam) ** 1.2, a0=0.5)
    with pytest.raises(SymbolError, match="homogeneous"):
        spec.validate()


def test_custom_symbol_flags_sphere_violation():
    spec = SymbolSpec(alpha=1.5, variant="custom", dim=1,
                      evaluator=lambda lam: 0.1 * np.abs(lam) ** 1.5, a0=0.5)
    with pytest.raises(SymbolError, match="sphere"):
        spec.validate()


def test_pseudo_gradient_spec_validation():
    with pytest.raises(ValueError):
        PseudoGradientSpec(beta=1.0, dim=1)
    with pytest.raises(ValueError):
        PseudoGradientSpec(beta=0.5, dim=1, eps_inner=2.0, r_outer=1.0)


def test_multiplier_vanishes_at_origin_and_nyquist(pg, default_grid):
    m = pg.multiplier(default_grid)
    norm = default_grid.freq_norm()
    assert m.shape == (1, 256)
    assert m[0][norm == 0] == 0
    assert m[0][default_grid.nyquist_mask()] == 0
    # odd and purely imaginary elsewhere
    k = default_grid.freq_axis()
    sel = (norm > 0) & ~default_grid.nyquist_mask()
    assert np.all(m[0][sel].real == 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = 1j * k * np.abs(k) ** (-0.5)
    assert np.allclose(expected[sel], m[0][sel])
