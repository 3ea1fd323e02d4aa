import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

import citypulse
from citypulse import activity
from citypulse.activity import KEY_CHUNK
from citypulse.errors import DataError, SingularityError
from citypulse.stats import (DEFAULT_ALPHA, DEFAULT_NIGHT_BINS, _f_upper, _t_two_sided,
                             bivariate_slot_ols, census_correlation, fit_ols, infer_homes,
                             slot_descriptives, stepwise_fit)

from scalar_reference import coefficient, encode, intercept_only_fit, n_predictors


def normal_equations(y, X, intercept=True):
    """Independent oracle: solve (X'X) b = X'y directly."""
    design = np.column_stack([np.ones(len(y)), X]) if intercept else np.asarray(X)
    coef = np.linalg.solve(design.T @ design, design.T @ y)
    resid = y - design @ coef
    rss = float(resid @ resid)
    tss = float(np.sum((y - y.mean()) ** 2)) if intercept else float(y @ y)
    r2 = 1.0 - rss / tss
    n, p = design.shape
    adj = 1.0 - (1.0 - r2) * (n - 1) / (n - p)
    return coef, r2, adj


def test_perfect_linear_fit():
    x = np.arange(10.0)
    fit = fit_ols(2.0 * x, x.reshape(-1, 1))
    assert coefficient(fit, "intercept") == pytest.approx(0.0, abs=1e-12)
    assert coefficient(fit, "x1") == pytest.approx(2.0)
    assert fit.r2 == pytest.approx(1.0)
    assert fit.aic == -math.inf


def test_matches_normal_equations_oracle():
    rng = np.random.default_rng(23)
    X = rng.normal(size=(20, 3))
    y = X @ np.array([1.5, -2.0, 0.5]) + rng.normal(size=20)
    fit = fit_ols(y, X)
    coef, r2, adj = normal_equations(y, X)
    np.testing.assert_allclose(fit.coefficients, coef, rtol=1e-8)
    assert fit.r2 == pytest.approx(r2, rel=1e-8)
    assert fit.adj_r2 == pytest.approx(adj, rel=1e-8)


def test_constant_y_gives_zero_slope_and_r2():
    X = np.arange(12.0).reshape(-1, 1)
    fit = fit_ols(np.full(12, 3.0), X)
    assert coefficient(fit, "x1") == pytest.approx(0.0, abs=1e-12)
    assert fit.r2 == 0.0


def test_constant_nonzero_y_has_zero_r2_and_no_f():
    # the mean of 399 copies of 100000/399 is rounded, so y - mean is not all 0
    y = np.full(399, 100000 / 399)
    assert np.sum((y - y.mean()) ** 2) > 0.0
    X = np.random.default_rng(8).normal(size=(399, 2))
    fit = fit_ols(y, X)
    assert fit.r2 == 0.0
    assert math.isnan(fit.f_stat) and math.isnan(fit.f_p_value)
    bivariate = bivariate_slot_ols(X[:, 0], y)
    assert bivariate.r2 == 0.0


def test_residuals_sum_to_zero_with_intercept():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 2))
    y = rng.normal(size=30) * 40.0
    fit = fit_ols(y, X)
    assert abs(fit.residuals.sum()) < 1e-8 * np.abs(y).sum()


def test_duplicate_column_raises_naming_both():
    x = np.arange(10.0)
    with pytest.raises(SingularityError) as err:
        fit_ols(x, np.column_stack([x, x]), names=["a", "b"])
    assert err.value.columns == ["a", "b"]


def test_linear_combination_raises_naming_dependent():
    rng = np.random.default_rng(1)
    a = rng.normal(size=15)
    b = rng.normal(size=15)
    with pytest.raises(SingularityError) as err:
        fit_ols(rng.normal(size=15), np.column_stack([a, b, a + b]),
                names=["a", "b", "c"])
    assert "c" in err.value.columns


def test_all_zero_column_rejected():
    with pytest.raises(SingularityError, match="all zero"):
        fit_ols(np.arange(8.0), np.zeros((8, 1)))


def test_too_few_observations_rejected():
    with pytest.raises(DataError, match="observations"):
        fit_ols(np.arange(3.0), np.arange(6.0).reshape(3, 2))


def test_aic_matches_stated_formula():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(25, 2))
    y = X @ np.array([1.0, 2.0]) + rng.normal(size=25)
    fit = fit_ols(y, X)
    design = np.column_stack([np.ones(25), X])
    rss = float(np.sum((y - design @ np.linalg.lstsq(design, y, rcond=None)[0]) ** 2))
    assert fit.aic == pytest.approx(25 * math.log(rss / 25) + 2 * 3, rel=1e-10)


def test_vif_single_predictor_is_one():
    rng = np.random.default_rng(3)
    fit = fit_ols(rng.normal(size=20), rng.normal(size=(20, 1)))
    assert fit.vif["x1"] == 1.0


def test_vif_orthogonal_design_is_one():
    rng = np.random.default_rng(8)
    raw = rng.normal(size=(40, 4))
    centered = raw - raw.mean(axis=0)
    q, _ = np.linalg.qr(centered)
    X = q[:, :4]
    fit = fit_ols(rng.normal(size=40), X)
    for value in fit.vif.values():
        assert value == pytest.approx(1.0, abs=1e-9)


def test_vif_blows_up_for_near_duplicate():
    rng = np.random.default_rng(13)
    a = rng.normal(size=200)
    b = 0.999 * a + math.sqrt(1 - 0.999 ** 2) * rng.normal(size=200)
    fit = fit_ols(rng.normal(size=200), np.column_stack([a, b]), names=["a", "b"])
    assert fit.vif["a"] > 100
    assert fit.vif["b"] > 100


def test_vif_never_below_one():
    rng = np.random.default_rng(21)
    fit = fit_ols(rng.normal(size=30), rng.normal(size=(30, 4)))
    assert all(v >= 1.0 for v in fit.vif.values())


def aux_regression_vif(X):
    """Reference VIFs by definition: 1/(1 - R2_j) of x_j ~ other columns + intercept."""
    n, k = X.shape
    vif = []
    for j in range(k):
        y = X[:, j]
        design = np.column_stack([np.ones(n), np.delete(X, j, axis=1)])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = y - design @ coef
        r2 = 1.0 - float(resid @ resid) / float(np.sum((y - y.mean()) ** 2))
        vif.append(1.0 / (1.0 - r2))
    return np.array(vif)


@pytest.mark.parametrize("rho", [0.0, 0.9, 0.999, 0.99999, 0.9999999])
@pytest.mark.parametrize("k,n", [(2, 12), (3, 5000), (4, 25), (5, 300), (6, 40), (7, 1000),
                                 (8, 15), (9, 2500), (10, 60), (11, 4900)])
def test_vif_matches_auxiliary_regressions(k, n, rho):
    rng = np.random.default_rng([k, n, int(rho * 1e7)])
    factor = rng.normal(size=(n, 1))
    X = math.sqrt(rho) * factor + math.sqrt(1.0 - rho) * rng.normal(size=(n, k))
    X = X * 10.0 ** rng.uniform(-2, 2, size=k) + rng.uniform(-100, 100, size=k)
    fit = fit_ols(rng.normal(size=n), X)
    vif = np.array([fit.vif[name] for name in fit.names[1:]])
    reference = aux_regression_vif(X)
    assert np.all(vif >= 1.0)
    assert np.max(np.abs(vif - reference) / reference) <= 1e-12 * reference.max()


def test_strong_signal_has_tiny_p_value():
    rng = np.random.default_rng(6)
    x = rng.normal(size=50)
    y = 5.0 * x + 0.1 * rng.normal(size=50)
    fit = fit_ols(y, x.reshape(-1, 1))
    assert fit.p_value("x1") < 1e-20
    assert fit.f_p_value < 1e-20


def _noise_off_the_line(n):
    """x = 0..n-1 and seeded noise minus its least-squares line in x."""
    x = np.arange(n, dtype=float)
    e = np.random.default_rng(n).normal(size=n)
    design = np.column_stack([np.ones(n), x])
    return x, e - design @ np.linalg.lstsq(design, e, rcond=None)[0]


def _slope_cases():
    """(y, x, regime check) for t zero, tiny, large and +-inf at dof 1, 2 and large."""
    cases = [pytest.param(np.zeros(5), np.arange(5.0),
                          lambda fit: not fit.t_stats.any(), id="zero y dof 3"),
             # |t| is infinite where the residuals round to exactly zero, else huge
             pytest.param(np.array([5.0, 3.0, 1.0, -1.0]), np.arange(4.0),
                          lambda fit: (np.abs(fit.t_stats) > 1e12).all(),
                          id="exact line dof 2")]
    for dof in (1, 2, 4998):
        x, e = _noise_off_the_line(dof + 2)
        sigma = math.sqrt(e @ e / dof)
        sxx = float(np.sum((x - x.mean()) ** 2))
        # slope t about 1e-4, so F about 1e-8
        cases.append(pytest.param(
            e + 1e-4 * sigma / math.sqrt(sxx) * x, x,
            lambda fit: 0 < abs(fit.t_stats[1]) < 1e-3 and 0 < fit.f_stat < 1e-6,
            id=f"tiny t dof {dof}"))
        cases.append(pytest.param(
            x + 1e-9 * e, x, lambda fit: abs(fit.t_stats[1]) > 1e6 and fit.f_stat > 1e12,
            id=f"large t dof {dof}"))
    return cases


def _exact_t_two_sided(t, dof):
    """P(|T| >= |t|) at 50 digits for the double t: I_{dof/(dof+t^2)}(dof/2, 1/2)."""
    with mpmath.workdps(50):
        t2 = mpmath.mpf(float(t)) ** 2
        return mpmath.betainc(mpmath.mpf(dof) / 2, mpmath.mpf(1) / 2, 0, dof / (dof + t2),
                              regularized=True)


def _exact_f_upper(f, k, dof):
    """P(F >= f) at 50 digits for the double f: I_{dof/(dof+k f)}(dof/2, k/2)."""
    with mpmath.workdps(50):
        kf = k * mpmath.mpf(float(f))
        return mpmath.betainc(mpmath.mpf(dof) / 2, mpmath.mpf(k) / 2, 0, dof / (dof + kf),
                              regularized=True)


def _assert_close_to_exact(got, exact):
    """Relative error at most 1e-12 in the normal range, and exactly 0 below it."""
    if exact < np.finfo(float).tiny:
        assert got == 0.0, (got, exact)
    else:
        assert abs(mpmath.mpf(float(got)) - exact) <= 1e-12 * exact, (got, exact)


def _same_side_of_alpha(got, reference):
    got, reference = np.asarray(got), np.asarray(reference)
    return np.array_equal(got < DEFAULT_ALPHA, reference < DEFAULT_ALPHA)


@pytest.mark.parametrize("y,x,regime", _slope_cases())
def test_p_values_equal_scipy_stats_tail_probabilities(y, x, regime):
    """Within 1e-12 of the exact tails (0 below the normal range), on scipy.stats' side of alpha."""
    fit = fit_ols(y, x)
    assert regime(fit)
    dof = fit.n - len(fit.names)
    for t, p in zip(fit.t_stats, fit.p_values):
        _assert_close_to_exact(p, _exact_t_two_sided(t, dof))
    if math.isnan(fit.f_stat):
        assert math.isnan(fit.f_p_value)
    else:
        _assert_close_to_exact(fit.f_p_value,
                               _exact_f_upper(fit.f_stat, n_predictors(fit), dof))
    assert _same_side_of_alpha(fit.p_values, 2.0 * sps.t.sf(np.abs(fit.t_stats), dof))
    assert _same_side_of_alpha(fit.f_p_value, sps.f.sf(fit.f_stat, n_predictors(fit), dof))


@pytest.mark.parametrize("y,t", [
    (np.zeros(2), 0.0), (np.zeros(5), 0.0), (np.full(3, 5.0), math.inf),
    (np.array([1.0, -1.0 + 1e-12]), "tiny"), (_noise_off_the_line(5000)[1] + 1e-8, "tiny"),
    (np.array([1.0, 1.0 + 1e-9, 1.0 - 1e-9]), "large"),
    (1.0 + 1e-9 * _noise_off_the_line(5000)[1], "large"),
], ids=["zero dof 1", "zero dof 4", "inf dof 2", "tiny dof 1", "tiny dof 4999",
        "large dof 2", "large dof 4999"])
def test_intercept_only_p_value_equals_scipy_stats(y, t):
    """Within 1e-12 of the exact tail (0 below the normal range), on scipy.stats' side of alpha."""
    fit = fit_ols(y, np.empty((len(y), 0)))
    (stat,) = fit.t_stats
    if t == "tiny":
        assert 0 < abs(stat) < 1e-3
    elif t == "large":
        assert abs(stat) > 1e6
    else:
        assert stat == t
    _assert_close_to_exact(fit.p_values[0], _exact_t_two_sided(stat, len(y) - 1))
    assert _same_side_of_alpha(fit.p_values[0], 2.0 * sps.t.sf(abs(stat), len(y) - 1))


# t from 1e-9 to 300, 7.3e-9 (where scipy returns 1.0 at dof 1), and 40.9, 55.7 and
# 56.9, whose tails are subnormal at dof 4998 and 1000
SWEEP_T = np.concatenate([[0.0, 7.3e-9, 40.9, 55.7, 56.9, np.inf], np.geomspace(1e-9, 300.0, 23),
                          np.linspace(1.2, 2.6, 15)])
SWEEP_F = np.concatenate([np.geomspace(1e-9, 1e4, 14), np.linspace(0.5, 3.0, 6)])
# relative steps to either side of the symmetry switch x = (a + 1) / (a + b + 2), where
# the continued fraction's leading terms nearly cancel
NEAR_SWITCH = np.array([1 - 1e-3, 1 - 1e-5, 1 - 1e-7, 1 + 1e-7, 1 + 1e-5])


@pytest.mark.parametrize("dof", [1, 2, 3, 4, 5, 10, 30, 100, 1000, 4998, 14100, 16786,
                                 19621, 20000])
def test_t_tail_matches_exact_over_a_sweep(dof):
    ts = np.concatenate([SWEEP_T, math.sqrt(3 * dof / (dof + 2)) * NEAR_SWITCH])
    p = _t_two_sided(ts, dof)
    for t, got in zip(ts, p):
        _assert_close_to_exact(got, _exact_t_two_sided(t, dof))
    assert _same_side_of_alpha(p, 2.0 * sps.t.sf(ts, dof))


@pytest.mark.parametrize("dof", [40_000, 100_000])
def test_t_tail_next_to_the_switch_at_large_dof(dof):
    # here each 1 + d of the fraction formed from x, not from the small y, misses the bound
    ts = math.sqrt(3 * dof / (dof + 2)) * NEAR_SWITCH
    for t, got in zip(ts, _t_two_sided(ts, dof)):
        _assert_close_to_exact(got, _exact_t_two_sided(t, dof))


@pytest.mark.parametrize("k", [1, 2, 3, 5, 11, 15, 24])
def test_f_tail_matches_exact_over_a_sweep(k):
    for dof in (1, 2, 5, 30, 4890, 20000):
        fs = np.concatenate([SWEEP_F, dof * (k + 2) / (k * (dof + 2)) * NEAR_SWITCH])
        p = _f_upper(fs, k, dof)
        for f, got in zip(fs, p):
            _assert_close_to_exact(got, _exact_f_upper(f, k, dof))
        assert _same_side_of_alpha(p, sps.f.sf(fs, k, dof))


def test_tails_outside_their_domain_are_nan():
    # an F a rounding below 0 (R^2 = 0 with rss a hair above tss), as scipy.special.fdtrc
    assert np.isnan(_f_upper(-1e-16, 3, 10))
    assert np.isnan(_t_two_sided(np.array([np.nan]), 10)).all()


def test_cli_import_leaves_scipy_stats_out():
    """No scipy module at all: numpy is the only runtime dependency."""
    env = dict(os.environ, PYTHONPATH=str(Path(citypulse.__file__).parents[1]))
    code = ("import sys, citypulse.cli; "
            "print([m for m in sys.modules if m.split('.')[0].startswith('scipy')])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_run_without_scipy_matches_normal_run(small_city, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(citypulse.__file__).parents[1]))
    out = tmp_path / "out"
    code = ('import sys; sys.modules["scipy"] = None; '
            "from citypulse.cli import main; sys.exit(main(sys.argv[1:]))")
    config = small_city.config
    subprocess.run([sys.executable, "-c", code, "run", "--events", str(config.events_path),
                    "--zones", str(config.zones_path), "--out", str(out),
                    "--timezone", config.timezone, "--centre-lon", str(config.centre_lon),
                    "--centre-lat", str(config.centre_lat)],
                   env=env, capture_output=True, text=True, check=True)
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    expected = json.loads((small_city.out / "manifest.json").read_text())["outputs"]
    assert outputs == expected


def test_stepwise_drops_noise_keeps_signal():
    rng = np.random.default_rng(14)
    signal = rng.normal(size=80)
    noise = rng.normal(size=80)
    y = 3.0 * signal + rng.normal(size=80)
    fit, dropped = stepwise_fit(y, np.column_stack([signal, noise]),
                                names=["signal", "noise"])
    assert dropped == ["noise"]
    assert "signal" in fit.names
    assert "noise" not in fit.names


def test_stepwise_alpha_one_equals_full_fit():
    rng = np.random.default_rng(15)
    X = rng.normal(size=(40, 3))
    y = rng.normal(size=40)
    full = fit_ols(y, X)
    fit, dropped = stepwise_fit(y, X, alpha=1.0)
    assert dropped == []
    np.testing.assert_array_equal(fit.coefficients, full.coefficients)


def test_stepwise_uncorrelated_predictors_absent_from_final_model():
    # analog of predictors that fail significance in every model
    rng = np.random.default_rng(16)
    driver = rng.normal(size=120)
    immaterial = rng.normal(size=(120, 2))
    y = 2.0 * driver + 0.5 * rng.normal(size=120)
    fit, dropped = stepwise_fit(y, np.column_stack([driver, immaterial]),
                                names=["driver", "idle_a", "idle_b"])
    assert set(dropped) == {"idle_a", "idle_b"}
    assert set(fit.names) == {"intercept", "driver"}


def test_stepwise_all_dropped_returns_intercept_only():
    rng = np.random.default_rng(17)
    y = rng.normal(size=30)
    fit, dropped = stepwise_fit(y, rng.normal(size=(30, 2)), names=["a", "b"])
    assert set(dropped) == {"a", "b"}
    assert fit.names == ("intercept",)
    assert fit.warnings == ["all predictors dropped; intercept-only model"]
    assert coefficient(fit, "intercept") == y.mean()
    assert _printed(fit) == _printed(intercept_only_fit(y))


def _intercept_only_responses():
    """Seeded responses: constant, integer-valued and real, scales 1e0-1e6, n 3-5000."""
    rng = np.random.default_rng(25)
    for n in (3, 4, 7, 30, 399, 5000):
        yield np.full(n, 100000 / n)  # one normalized slot spread evenly
        for scale in 10.0 ** np.arange(7):
            yield np.full(n, scale * rng.normal())
            yield scale * rng.integers(-5, 6, n)
            yield scale * rng.normal(loc=rng.normal(), size=n)


def _printed(fit):
    """Every summary field and every residual of a fit as the model CSVs print it."""
    values = [*fit.coefficients, *fit.std_errors, *fit.t_stats, *fit.p_values, fit.r2,
              fit.adj_r2, fit.f_stat, fit.f_p_value, fit.aic, fit.n, *fit.residuals,
              *fit.std_residuals]
    return ["%.6g" % v for v in values]


def test_no_predictors_is_the_closed_form_intercept_only_model():
    for y in _intercept_only_responses():
        fit, reference = fit_ols(y, np.empty((len(y), 0))), intercept_only_fit(y)
        assert fit.names == ("intercept",) and fit.vif == {}
        assert fit.r2 == fit.adj_r2 == 0.0
        assert _printed(fit) == _printed(reference), y[:3]


def test_perfect_model_fit_has_zero_std_residuals():
    # the rounding noise of an exact fit is no residual to standardize
    rng = np.random.default_rng(26)
    a, b = rng.integers(0, 50, size=(2, 40)).astype(float)
    fit, dropped = stepwise_fit(3.0 * a + 2.0 * b + 7.0, np.column_stack([a, b]),
                                names=["a", "b"])
    assert dropped == [] and fit.r2 == pytest.approx(1.0)
    assert fit.residuals.any()
    assert not fit.std_residuals.any()


def test_stepwise_is_exactly_two_passes():
    # a predictor significant only after another is removed stays dropped
    rng = np.random.default_rng(18)
    a = rng.normal(size=60)
    b = a + 0.05 * rng.normal(size=60)  # near-duplicate splits the signal
    y = a + b + 4.0 * rng.normal(size=60)
    first = fit_ols(y, np.column_stack([a, b]), names=["a", "b"])
    fit, dropped = stepwise_fit(y, np.column_stack([a, b]), names=["a", "b"])
    expected_drop = [n for n in ("a", "b") if first.p_value(n) >= 0.01]
    assert dropped == expected_drop


def test_bivariate_identity():
    values = np.array([1.0, 2.0, 5.0, 9.0])
    fit = bivariate_slot_ols(values, values)
    assert fit.r2 == pytest.approx(1.0)
    np.testing.assert_allclose(fit.std_residuals, 0.0)


def test_bivariate_r2_symmetry():
    rng = np.random.default_rng(19)
    a = rng.normal(size=50)
    b = 0.6 * a + rng.normal(size=50)
    assert bivariate_slot_ols(a, b).r2 == pytest.approx(bivariate_slot_ols(b, a).r2)


def test_bivariate_r2_affine_invariance():
    rng = np.random.default_rng(20)
    a = rng.normal(size=40)
    b = 1.3 * a + rng.normal(size=40)
    base = bivariate_slot_ols(a, b).r2
    assert bivariate_slot_ols(3.0 * a - 7.0, b).r2 == pytest.approx(base)
    assert bivariate_slot_ols(a, -0.5 * b + 2.0).r2 == pytest.approx(base)


def test_bivariate_residual_sign_convention():
    a = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    b = np.array([1.0, 2.0, 3.0, 4.0, 10.0])  # last zone over-performs in b
    fit = bivariate_slot_ols(a, b)
    assert fit.std_residuals[-1] > 0


def test_bivariate_zero_variance_error():
    with pytest.raises(DataError, match="zero variance"):
        bivariate_slot_ols(np.ones(5), np.arange(5.0))


def test_bivariate_is_the_ols_fit():
    rng = np.random.default_rng(21)
    a = rng.normal(size=30)
    b = 0.4 * a + rng.normal(size=30)
    fit, ols = bivariate_slot_ols(a, b), fit_ols(b, a)
    assert fit.names == ("intercept", "x1")
    assert np.array_equal(fit.coefficients, ols.coefficients)
    assert fit.r2 == ols.r2 and np.array_equal(fit.residuals, ols.residuals)


def test_bivariate_needs_three_zones_and_a_predictor_past_rounding():
    # a slot that differs from a constant in one zone by one unit in the last place
    a = np.full(50, 0.25)
    a[3] = np.nextafter(0.25, 1.0)
    with pytest.raises(DataError, match="zero variance to rounding"):
        bivariate_slot_ols(a, np.arange(50.0))
    with pytest.raises(DataError, match="more than 2 observations"):
        bivariate_slot_ols([1.0, 2.0], [3.0, 5.0])


def test_descriptives_normalized_mean_is_total_over_zones():
    rng = np.random.default_rng(22)
    counts = rng.integers(1, 50, size=584).astype(float)
    normalized = counts / counts.sum() * 100000.0
    d = slot_descriptives(normalized, "morning")
    assert d.n_zones == 584
    assert d.mean == pytest.approx(171.2328767, abs=1e-6)
    assert d.total == pytest.approx(100000.0)


def test_descriptives_uniform_values_have_zero_std():
    d = slot_descriptives([4.0, 4.0, 4.0])
    assert d.std_dev == 0.0


def test_descriptives_hand_computed():
    d = slot_descriptives([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
    assert d.mean == pytest.approx(5.0)
    assert d.std_dev == pytest.approx(2.0)  # population, not sample
    assert d.minimum == 2.0 and d.maximum == 9.0 and d.total == 40.0


def infer_home(user_events, night_bins=DEFAULT_NIGHT_BINS, residential_zones=None):
    """Reference for infer_homes: one user's (zone_id, bin) events, walked one by one.

    The most frequent night-time zone, restricted to residential zones; ties
    break by the user's total event count in the zone (all bins), then by
    zone_id. None when the user has no qualifying night event.
    """
    night_bins = set(night_bins)
    night_counts: Counter[str] = Counter()
    total_counts: Counter[str] = Counter()
    for zone_id, b in user_events:
        total_counts[zone_id] += 1
        if b in night_bins and (residential_zones is None or zone_id in residential_zones):
            night_counts[zone_id] += 1
    if not night_counts:
        return None
    return min(night_counts, key=lambda z: (-night_counts[z], -total_counts[z], z))


def test_infer_home_modal_zone():
    events = [("A", 90), ("A", 91), ("A", 92), ("B", 90)]
    assert infer_home(events, residential_zones={"A", "B"}) == "A"


def test_infer_home_daytime_only_returns_none():
    assert infer_home([("A", 40), ("B", 50)], residential_zones={"A", "B"}) is None


def test_infer_home_tie_breaks_on_total_events():
    events = [("A", 90), ("A", 91), ("B", 90), ("B", 91), ("A", 40), ("A", 41)]
    assert infer_home(events, residential_zones={"A", "B"}) == "A"


def test_infer_home_tie_breaks_lexicographically():
    events = [("B", 90), ("A", 91)]
    assert infer_home(events, residential_zones={"A", "B"}) == "A"


def test_infer_home_event_order_invariant():
    events = [("A", 90), ("B", 91), ("A", 92), ("A", 40)]
    for perm in ([3, 1, 0, 2], [2, 0, 3, 1]):
        assert infer_home([events[i] for i in perm],
                          residential_zones={"A", "B"}) == "A"


def test_infer_home_respects_residential_set():
    events = [("mall", 90), ("mall", 91), ("home", 92)]
    assert infer_home(events, residential_zones={"home"}) == "home"


def test_infer_homes_per_user():
    events = [("u1", "A", 90), ("u1", "A", 91), ("u2", "B", 40)]
    homes = infer_homes(encode(events), residential_zones={"A", "B"})
    assert homes == {"u1": "A"}


@settings(max_examples=100, deadline=None)
@given(events=st.lists(st.tuples(st.sampled_from(["u1", "u2", "u3", "u4"]),
                                 st.sampled_from(["A", "B", "C", "D"]),
                                 st.sampled_from([0, 40, 87, 88, 90, 95])), max_size=40),
       residential=st.one_of(st.none(), st.sets(st.sampled_from(["A", "B", "C", "D"]))),
       key_chunk=st.sampled_from([1, 2, 3, KEY_CHUNK]))
def test_infer_homes_matches_per_user_reference(events, residential, key_chunk):
    # the sorted key is read in parts of `key_chunk` entries: a (zone, user)
    # run may span parts, and a user's tied pairs may lie in different parts
    with mock.patch.object(activity, "KEY_CHUNK", key_chunk):
        homes = infer_homes(encode(events), residential_zones=residential)
    expected = {}
    for user in sorted({u for u, _, _ in events}):
        home = infer_home([(z, b) for u, z, b in events if u == user],
                          residential_zones=residential)
        if home is not None:
            expected[user] = home
    assert list(homes.items()) == list(expected.items())


def _homes_by_dict_count(events, residential):
    """Reference for infer_homes over all users at once: night and total counts per (user, zone)."""
    night_bins = set(DEFAULT_NIGHT_BINS)
    night, total = Counter(), Counter()
    for user, zone, b in events:
        total[user, zone] += 1
        if b in night_bins and zone in residential:
            night[user, zone] += 1
    best = {}
    for (user, zone), count in night.items():
        rank = (-count, -total[user, zone], zone)
        best[user] = min(best.get(user, rank), rank)
    return {user: best[user][2] for user in sorted(best)}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_infer_homes_matches_dict_counts_with_ties(seed):
    # 600 users over 40 zones, each with three zones of equal night counts;
    # every other user also has equal day counts in them, so that the zone_id
    # breaks the tie, and one zone outside the residential set has more nights
    rng = np.random.default_rng(seed)
    zones = [f"z{i:02d}" for i in range(40)]
    residential = set(zones[:30])
    events = []
    for u in range(600):
        user = f"u{rng.integers(10_000):04d}"  # ids repeat: some users add more events
        tied = rng.choice(zones[:30], size=3, replace=False)
        nights = int(rng.integers(1, 4))
        days = [int(rng.integers(0, 3))] * 3 if u % 2 else rng.integers(0, 3, size=3).tolist()
        for zone, d in zip(tied, days):
            events += [(user, zone, int(rng.choice(DEFAULT_NIGHT_BINS)))] * nights
            events += [(user, zone, int(rng.integers(0, 80)))] * d
        events += [(user, zones[30 + u % 10], 90)] * (nights + 1)
    events = [events[i] for i in rng.permutation(len(events))]
    expected = list(_homes_by_dict_count(events, residential).items())
    encoded = encode(events)
    # the sorted key read in parts of one entry, of a few and whole: with
    # small parts a user's tied pairs lie in different parts
    for key_chunk in (1, 3, KEY_CHUNK):
        with mock.patch.object(activity, "KEY_CHUNK", key_chunk):
            homes = infer_homes(encoded, residential_zones=residential)
        assert list(homes.items()) == expected, key_chunk
    # the ties the ranking must break: one night count and one total count
    # in two zones, and one night count with different totals
    night = Counter((u, z) for u, z, b in events if b in DEFAULT_NIGHT_BINS and z in residential)
    total = Counter((u, z) for u, z, _ in events)
    ranks = {}
    for (user, zone), count in night.items():
        ranks.setdefault(user, []).append((count, total[user, zone]))
    top = [sorted(r, reverse=True)[:2] for r in ranks.values() if len(r) > 1]
    assert any(a == b for a, b in top)
    assert any(a[0] == b[0] and a[1] != b[1] for a, b in top)


def test_census_r2_perfect_proportionality():
    counts = np.array([1.0, 4.0, 2.0, 8.0])
    assert census_correlation(counts, 100.0 * counts) == pytest.approx(1.0)


def test_census_r2_near_zero_for_shuffled():
    rng = np.random.default_rng(24)
    counts = rng.integers(0, 60, size=584).astype(float)
    census = rng.permutation(counts)
    assert census_correlation(counts, census) < 0.1


def test_census_r2_decreases_with_noise():
    rng = np.random.default_rng(25)
    counts = rng.integers(5, 80, size=300).astype(float)
    r2s = []
    for noise in (5.0, 25.0, 120.0):
        census = 10.0 * counts + rng.normal(0, noise, size=300)
        r2s.append(census_correlation(counts, census))
    assert r2s[0] > r2s[1] > r2s[2]
    assert 0.0 < r2s[2] < 1.0


def test_census_r2_zero_variance_error():
    with pytest.raises(DataError, match="variance"):
        census_correlation(np.ones(5), np.arange(5.0))
