import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from pseudoproc.verify import (fit_envelope, envelope_shape, FixtureSet,
                               run_suite, REGISTRY, GOLDEN_VALUES,
                               SuiteReport, CheckResult, _result,
                               check_convolution_scaling)

PARAMS = dict(alpha=1.5, beta=0.5, gamma=0.5, dim=1)


def _bound_samples(form, constant=1.0):
    gaps = (0.05, 0.2, 0.8)
    offs = (0.5, 2.0, 5.0)
    return [(dt, r, constant * envelope_shape(form, dt, r, **PARAMS))
            for dt in gaps for r in offs]


def test_fit_recovers_unit_constant_exactly():
    constant = fit_envelope(_bound_samples("base_kernel"), "base_kernel",
                            **PARAMS)
    assert constant == pytest.approx(1.0, abs=1e-6)


@settings(max_examples=25, deadline=None)
@given(scale=st.floats(min_value=1e-6, max_value=1e6,
                       allow_nan=False, allow_infinity=False))
def test_fit_equivariance_under_scaling(scale):
    base = fit_envelope(_bound_samples("perturbed_kernel"),
                        "perturbed_kernel", **PARAMS)
    scaled = fit_envelope(_bound_samples("perturbed_kernel", constant=scale),
                          "perturbed_kernel", **PARAMS)
    assert scaled == pytest.approx(scale * base, rel=1e-9)


def test_fit_rejects_degenerate_probes():
    samples = [(0.1, r, 1.0) for r in (0.5, 1.0, 2.0, 4.0)]
    with pytest.raises(ValueError, match="degenerate"):
        fit_envelope(samples, "base_kernel", **PARAMS)


def test_unknown_envelope_form():
    with pytest.raises(ValueError):
        envelope_shape("mystery", 0.1, 1.0, **PARAMS)


def test_empty_selection_reports_success():
    report = run_suite(FixtureSet(), selection="")
    assert report.results == []
    assert report.passed
    # a row without a rule of its own passes strictly below its threshold
    at = _result("edge", "at the threshold", 1e-6, 1e-6, "absolute", "trivial")
    assert not at.passed and not SuiteReport([at]).passed


def test_suite_is_deterministic():
    fx = FixtureSet()
    r1 = run_suite(fx, selection="normalizer")
    r2 = run_suite(fx, selection="normalizer")
    assert [a.row() for a in r1.results] == [b.row() for b in r2.results]


def test_corrupted_golden_fails_exactly_one_check(monkeypatch):
    tail = GOLDEN_VALUES["resolution_tail"]
    monkeypatch.setitem(GOLDEN_VALUES, "resolution_tail",
                        dict(tail, value=tail["value"] * 1.5))  # sabotage
    report = run_suite(FixtureSet(), selection="golden")
    bad = [r for r in report.failures()]
    assert len(bad) == 1
    assert bad[0].check == "resolution-golden/tail"
    assert not report.passed
    monkeypatch.undo()
    # pristine fixtures pass the same selection
    clean = run_suite(FixtureSet(), selection="golden")
    assert clean.passed


def test_report_serialization(tmp_path):
    report = run_suite(FixtureSet(), selection="normalizer")
    csv_path = tmp_path / "report.csv"
    report.to_csv(csv_path)
    text = csv_path.read_text()
    assert text.splitlines()[0] == \
        "check,parameters,value,threshold,mode,status,provenance,wall_seconds"
    assert "normalizer-golden" in text
    summary = report.summary()
    assert "suite.passed = true" in summary
    assert "normalizer-golden.status = pass" in summary
    assert "normalizer-golden" in report.table()


def test_fixture_grid_and_defaults():
    fx = FixtureSet()
    g = fx.grid()
    assert (g.dim, g.points_per_dim, g.half_extent) == (1, 256, 40.0)
    assert (g.time_horizon, g.time_steps) == (1.0, 16)
    assert fx.alpha == 1.5 and fx.beta == 0.5 and fx.gamma == 0.5


def test_report_rows_carry_their_check_wall_time(tmp_path):
    import csv
    report = run_suite(FixtureSet(), selection="golden")
    report.to_csv(tmp_path / "report.csv")
    with open(tmp_path / "report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    walls = {}
    for r in rows:
        walls.setdefault(r["check"].split("/")[0], set()).add(r["wall_seconds"])
    assert sorted(walls) == ["normalizer-golden", "resolution-golden"]
    # one timing per check, shared by all of its rows
    assert all(len(w) == 1 and float(next(iter(w))) >= 0.0
               for w in walls.values())
    assert [r.row() for r in report.results] == \
        [tuple(r[k] for k in list(r)[:-1]) for r in rows]


def test_pseudo_gradient_check_runs_in_two_dimensions():
    # the singular form is probed on the line x_1 = 0 of the 2-D lattice
    from pseudoproc.verify import check_pseudo_gradient_agreement
    rows = check_pseudo_gradient_agreement(FixtureSet(dim=2, points=128))
    assert [r.check for r in rows] == [
        "pseudo-gradient/cross-mode", "pseudo-gradient/cutoff-monotone",
        "pseudo-gradient/plane-wave-1d", "pseudo-gradient/plane-wave-2d"]
    assert all(r.passed for r in rows), [(r.check, r.value) for r in rows]


@pytest.mark.parametrize("name", ["envelope-fits", "terminal-average"])
def test_fixed_lattice_checks_refuse_two_dimensions(name):
    # they would solve kernels on 1024^2 and 2048^2 lattices
    from pseudoproc.spectral import UnsupportedConfiguration
    with pytest.raises(UnsupportedConfiguration, match=name):
        REGISTRY[name].runner(FixtureSet(dim=2))


def test_convolution_scaling_peak_memory_is_bounded():
    # the check builds its quadrature nodes ten time nodes at a time, for
    # both bundles at once: a traced peak of 0.30 MB, where one time panel
    # per bundle took 0.48 MB and a whole gap at once takes 11 MB
    fx = FixtureSet()
    check_convolution_scaling(fx)   # first-call caches
    tracemalloc.start()
    try:
        check_convolution_scaling(fx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.48e6
