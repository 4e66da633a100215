"""Multinomial propensity model, balancing weights, trimming, balance."""

import warnings

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import logsumexp

from conftest import collinear_cohort, random_survival_cohort
from wcox import (
    ConvergenceError,
    PropensityFit,
    ValidationError,
    balance_table,
    bootstrap_covariance,
    compute_weights,
    fit_multinomial_logit,
    fit_weighted_mhr,
    multinomial_probs,
    parse_scheme,
    propensity_histogram,
    trim,
    validate_cohort,
)
from wcox.propensity import _unit_weights


def _independent_loglik(gamma_flat, x, z, j):
    """Multinomial log-likelihood written from scratch (reference only)."""
    n, p = x.shape
    gamma = gamma_flat.reshape(j, p + 1)
    xt = np.column_stack([np.ones(n), x])
    logits = np.column_stack([np.zeros(n), xt @ gamma.T])
    return float(np.sum(logits[np.arange(n), z] - logsumexp(logits, axis=1)))


def test_probs_uniform_at_zero_coefficients():
    x = np.random.default_rng(0).normal(size=(10, 2))
    p = multinomial_probs(np.zeros((2, 3)), x)
    np.testing.assert_allclose(p, 1.0 / 3.0)


def test_probs_rows_sum_to_one():
    rng = np.random.default_rng(1)
    p = multinomial_probs(rng.normal(size=(3, 4)), rng.normal(size=(50, 3)))
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)


def test_intercept_only_mle_equals_group_shares():
    z = np.array([0] * 5 + [1] * 10 + [2] * 5)
    co = validate_cohort(np.ones(20), np.ones(20, dtype=int), z)
    fit = fit_multinomial_logit(co)
    np.testing.assert_allclose(fit.probs, np.tile([0.25, 0.5, 0.25], (20, 1)),
                               atol=1e-9)
    assert fit.n_treatments == 2


def test_saturated_binary_design_recovers_log_odds():
    # x=0 rows: 10 in group 0, 5 in group 1; x=1 rows: 4 and 8
    x = np.concatenate([np.zeros(15), np.ones(12)])
    z = np.concatenate([np.zeros(10), np.ones(5), np.zeros(4), np.ones(8)])
    co = validate_cohort(np.ones(27), np.ones(27, dtype=int), z.astype(int), x)
    fit = fit_multinomial_logit(co)
    np.testing.assert_allclose(fit.gamma[0, 0], np.log(5 / 10), atol=1e-8)
    # slope = logit(x=1) - logit(x=0) = log(8/4) - log(5/10) = log 4
    np.testing.assert_allclose(fit.gamma[0, 1], np.log(4.0), atol=1e-8)


def test_mle_matches_derivative_free_maximization():
    # acceptance-grade oracle: 20 random designs against scipy Powell
    rng = np.random.default_rng(42)
    for k in range(20):
        n = int(rng.integers(40, 90))
        p = int(rng.integers(1, 4))
        j = int(rng.integers(1, 3))
        co = random_survival_cohort(rng, n=n, j=j, p=p)
        fit = fit_multinomial_logit(co)
        assert fit.score_norm <= 1e-8
        res = minimize(
            lambda g: -_independent_loglik(g, co.covariates, co.treatment, j),
            np.zeros(j * (p + 1)),
            method="Powell",
            options={"xtol": 1e-10, "ftol": 1e-12, "maxiter": 20000},
        )
        assert res.success
        np.testing.assert_allclose(
            fit.gamma.ravel(), res.x, atol=1e-5,
            err_msg=f"design {k}: Newton and Powell disagree",
        )
        assert fit.loglik >= -res.fun - 1e-8


def test_fitted_probs_consistent_with_gamma():
    co = random_survival_cohort(np.random.default_rng(5), n=60, j=2, p=2)
    fit = fit_multinomial_logit(co)
    np.testing.assert_allclose(
        fit.probs, multinomial_probs(fit.gamma, co.covariates), atol=1e-12
    )


def test_ridge_warning_on_collinear_covariates():
    with pytest.warns(UserWarning, match="ill-conditioned"):
        fit = fit_multinomial_logit(collinear_cohort())
    assert fit.ridged
    assert fit.score_norm <= 1e-8


@pytest.mark.parametrize(
    "call",
    [
        fit_multinomial_logit,
        lambda co: fit_weighted_mhr(co, "ipw"),
        lambda co: bootstrap_covariance(co, "ipw", 10, 0),
    ],
    ids=["fit_multinomial_logit", "fit_weighted_mhr", "bootstrap_covariance"],
)
def test_ridge_warning_names_the_caller(call):
    # the warning points at the line outside wcox that made the call, once
    # per call, however deep in the package the ridge was taken (every
    # bootstrap draw on this cohort is ridged)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call(collinear_cohort())
    ridge = [w for w in caught if "ill-conditioned" in str(w.message)]
    assert len(ridge) == 1
    assert ridge[0].filename == __file__


def test_separation_raises():
    # x perfectly predicts treatment: the MLE diverges
    x = np.concatenate([-np.abs(np.random.default_rng(0).normal(size=20)) - 0.1,
                        np.abs(np.random.default_rng(1).normal(size=20)) + 0.1])
    z = np.array([0] * 20 + [1] * 20)
    co = validate_cohort(np.ones(40), np.ones(40, dtype=int), z, x)
    with pytest.raises(ConvergenceError, match="separation"):
        fit_multinomial_logit(co)


# ------------------------------------------------------------- weights


def test_ipw_weights_inverse_propensity():
    probs = np.array([[0.5, 0.5], [0.2, 0.8], [0.8, 0.2]])
    z = np.array([0, 1, 0])
    w = compute_weights(probs, z, "ipw")
    np.testing.assert_allclose(w.weights, [2.0, 1.25, 1.25])
    np.testing.assert_array_equal(w.tilt, [1.0, 1.0, 1.0])
    assert w.scheme == "ipw"
    assert w.n == 3


def test_ow_weights_harmonic_tilt():
    # h = (sum_k 1/e_k)^-1: e=(0.5,0.5) -> w=0.5; e=(0.2,0.8) -> 0.8 / 0.2
    probs = np.array([[0.5, 0.5], [0.2, 0.8], [0.2, 0.8]])
    z = np.array([0, 0, 1])
    w = compute_weights(probs, z, "ow")
    np.testing.assert_allclose(w.tilt, [0.25, 0.16, 0.16])
    np.testing.assert_allclose(w.weights, [0.5, 0.8, 0.2])


def test_att_weights_target_group_tilt():
    probs = np.array([[0.1, 0.3, 0.6], [0.1, 0.3, 0.6], [0.1, 0.3, 0.6]])
    z = np.array([0, 1, 2])
    w = compute_weights(probs, z, "att", att_target=0)
    # target group gets weight 1; others e_0/e_own
    np.testing.assert_allclose(w.weights, [1.0, 1.0 / 3.0, 1.0 / 6.0])
    assert w.att_target == 0


def test_unit_weights_all_one():
    probs = np.array([[0.3, 0.7], [0.6, 0.4]])
    w = compute_weights(probs, np.array([1, 0]), "unit")
    np.testing.assert_array_equal(w.weights, [1.0, 1.0])
    np.testing.assert_array_equal(w.tilt, [0.7, 0.6])


def test_unit_weights_without_a_model_match_uniform_propensities():
    co = random_survival_cohort(np.random.default_rng(21), n=80, j=2, p=3)
    w = _unit_weights(co)
    ref = compute_weights(np.full((co.n, 3), 1.0 / 3.0), co.treatment, "unit")
    assert w.scheme == "unit" and w.att_target is None
    np.testing.assert_array_equal(w.weights, np.ones(co.n))
    np.testing.assert_array_equal(w.tilt, ref.tilt)


def test_ow_extreme_unit_gets_largest_weight():
    # the near-deterministic unit is down-weighted by IPW's standard but
    # has the smallest harmonic tilt; its OW weight is bounded by 1
    probs = np.array([[0.5, 0.5], [0.999, 0.001]])
    z = np.array([1, 1])
    ipw = compute_weights(probs, z, "ipw")
    ow = compute_weights(probs, z, "ow")
    assert ipw.weights[1] == pytest.approx(1000.0)
    assert ow.weights[1] < 1.0
    assert np.all(ow.weights <= 1.0 + 1e-12)


def test_compute_weights_validation():
    probs = np.array([[0.5, 0.5], [0.4, 0.6]])
    z = np.array([0, 1])
    with pytest.raises(ValidationError, match="sum to one"):
        compute_weights(probs * 1.1, z, "ipw")
    with pytest.raises(ValidationError, match="lie in"):
        compute_weights(np.array([[1.2, -0.2]]), np.array([0]), "ipw")
    with pytest.raises(ValidationError, match="align"):
        compute_weights(probs, np.array([0]), "ipw")
    with pytest.raises(ValidationError, match="outside"):
        compute_weights(probs, np.array([0, 2]), "ipw")
    with pytest.raises(ValidationError, match="zero"):
        compute_weights(np.array([[0.0, 1.0]]), np.array([0]), "ipw")
    with pytest.raises(ValidationError, match="positive"):
        compute_weights(np.array([[0.0, 1.0]]), np.array([1]), "ow")
    with pytest.raises(ValidationError, match="target"):
        compute_weights(probs, z, "att")
    with pytest.raises(ValidationError, match="unknown"):
        compute_weights(probs, z, "matching")


def test_weight_arrays_readonly():
    w = compute_weights(np.array([[0.5, 0.5]]), np.array([0]), "ipw")
    with pytest.raises(ValueError):
        w.weights[0] = 3.0


def test_parse_scheme():
    assert parse_scheme("ipw") == ("ipw", None)
    assert parse_scheme(" OW ") == ("ow", None)
    assert parse_scheme("unit") == ("unit", None)
    assert parse_scheme("att:B") == ("att", "B")
    with pytest.raises(ValidationError, match="target group"):
        parse_scheme("att:")
    with pytest.raises(ValidationError, match="unknown weighting scheme"):
        parse_scheme("ipw:2")
    with pytest.raises(ValidationError, match="unknown weighting scheme"):
        parse_scheme("matching")


# ------------------------------------------------------------- trimming


def _fake_fit(probs):
    g = probs.shape[1]
    return PropensityFit(
        gamma=np.zeros((g - 1, 1)),
        probs=probs,
        design=np.ones((probs.shape[0], 1)),
        loglik=0.0,
        iterations=0,
        score_norm=0.0,
        ridged=False,
    )


def test_trim_removes_low_min_propensity_rows():
    probs = np.array(
        [
            [0.05, 0.45, 0.5],
            [0.2, 0.3, 0.5],
            [0.4, 0.3, 0.3],
            [0.09, 0.41, 0.5],
            [0.15, 0.35, 0.5],
        ]
    )
    co = validate_cohort([1, 2, 3, 4, 5], [1, 1, 1, 1, 1], [0, 1, 2, 1, 0])
    res = trim(co, _fake_fit(probs), 0.1, refit=False)
    np.testing.assert_array_equal(res.kept, [1, 2, 4])
    np.testing.assert_array_equal(res.removed, [0, 3])
    np.testing.assert_array_equal(res.removed_by_group, [1, 1, 0])
    assert res.cohort.n == 3
    assert not res.refitted
    assert res.threshold == 0.1


def test_trim_noop_returns_same_objects():
    probs = np.full((3, 3), 1.0 / 3.0)
    co = validate_cohort([1, 2, 3], [1, 1, 1], [0, 1, 2])
    fit = _fake_fit(probs)
    res = trim(co, fit, 0.2, refit=True)
    assert res.cohort is co
    assert res.fit is fit
    assert not res.refitted
    assert res.removed.size == 0


def test_trim_threshold_validation():
    co = validate_cohort([1, 2, 3], [1, 1, 1], [0, 1, 2])
    fit = _fake_fit(np.full((3, 3), 1.0 / 3.0))
    with pytest.raises(ValidationError, match="trim threshold"):
        trim(co, fit, 1.0 / 3.0)
    with pytest.raises(ValidationError, match="trim threshold"):
        trim(co, fit, -0.01)


def test_trim_refuses_to_empty_a_group():
    probs = np.array([[0.05, 0.45, 0.5], [0.2, 0.3, 0.5], [0.3, 0.3, 0.4]])
    co = validate_cohort([1, 2, 3], [1, 1, 1], [0, 1, 2])
    with pytest.raises(ValidationError, match=r"removed every unit.*\['0'\]"):
        trim(co, _fake_fit(probs), 0.1, refit=False)


def test_trim_refit_runs_on_trimmed_cohort():
    co = random_survival_cohort(np.random.default_rng(11), n=150, j=1, p=2)
    fit = fit_multinomial_logit(co)
    res = trim(co, fit, 0.05, refit=True)
    if res.removed.size:
        assert res.refitted
        assert res.fit is not fit
        assert res.fit.probs.shape[0] == res.cohort.n
        assert res.fit.score_norm <= 1e-8
    assert res.cohort.n + res.removed.size == co.n


# ------------------------------------------------------------- balance


def test_balance_unit_weights_reproduce_unweighted_smd():
    co = random_survival_cohort(np.random.default_rng(21), n=80, j=2, p=3)
    g = co.n_treatments + 1
    w = compute_weights(np.full((co.n, g), 1.0 / g), co.treatment, "unit")
    rep = balance_table(co, w)
    np.testing.assert_array_equal(rep.smd_weighted, rep.smd_unweighted)
    assert rep.covariate_names == ("x1", "x2", "x3")
    assert rep.pairs == ((0, 1), (0, 2), (1, 2))


def test_balance_hand_computed_smd():
    # group 0: x = (0, 2) mean 1 var 2; group 1: x = (4, 6) mean 5 var 2
    co = validate_cohort([1, 2, 3, 4], [1, 1, 1, 1], [0, 0, 1, 1],
                         [[0.0], [2.0], [4.0], [6.0]])
    w = compute_weights(np.full((4, 2), 0.5), co.treatment, "unit")
    rep = balance_table(co, w, covariate_names=("age",))
    np.testing.assert_allclose(rep.smd_unweighted[0, 0], -4.0 / np.sqrt(2.0))
    assert rep.max_abs_weighted() == pytest.approx(4.0 / np.sqrt(2.0))
    rows = rep.to_rows()
    assert rows[0]["covariate"] == "age"
    assert rows[0]["group_a"] == "0" and rows[0]["group_b"] == "1"


def test_balance_constant_covariate_zero_or_nan():
    co = validate_cohort([1, 2, 3, 4], [1, 1, 1, 1], [0, 0, 1, 1],
                         [[1.0, 1.0], [1.0, 1.0], [1.0, 2.0], [1.0, 2.0]])
    w = compute_weights(np.full((4, 2), 0.5), co.treatment, "unit")
    rep = balance_table(co, w)
    assert rep.smd_weighted[0, 0] == 0.0  # equal constant means
    assert np.isnan(rep.smd_weighted[0, 1])  # different constants, zero var
    assert rep.max_abs_weighted() == 0.0  # NaN excluded


def test_balance_name_count_validation():
    co = validate_cohort([1, 2], [1, 1], [0, 1], [[1.0], [2.0]])
    w = compute_weights(np.full((2, 2), 0.5), co.treatment, "unit")
    with pytest.raises(ValidationError, match="name per column"):
        balance_table(co, w, covariate_names=("a", "b"))


def _ow_group_means(co, w):
    means = []
    for g in range(co.n_treatments + 1):
        rows = co.treatment == g
        means.append(co.covariates[rows].T @ w.weights[rows] / w.weights[rows].sum())
    return means


def test_ow_exact_mean_balance_binary():
    # with two groups the overlap tilt reduces to e0*e1 and the logistic
    # score equations force exact weighted mean balance on every modeled
    # covariate; the residual is bounded by the fit's gradient tolerance
    rng = np.random.default_rng(31)
    for n in (60, 90, 140):
        co = random_survival_cohort(rng, n=n, j=1, p=3)
        fit = fit_multinomial_logit(co)
        w = compute_weights(fit, co.treatment, "ow")
        m0, m1 = _ow_group_means(co, w)
        np.testing.assert_allclose(m1, m0, atol=1e-6)
        rep = balance_table(co, w)
        assert rep.max_abs_weighted() < 1e-5


def test_ow_multigroup_balance_is_noise_not_exact():
    # the harmonic tilt carries no exact-balance identity for 3+ groups:
    # residual imbalance is sampling noise, far below the raw gap but
    # bounded away from machine zero
    co = random_survival_cohort(np.random.default_rng(31), n=600, j=2, p=3)
    fit = fit_multinomial_logit(co)
    w = compute_weights(fit, co.treatment, "ow")
    rep = balance_table(co, w)
    raw = np.max(np.abs(rep.smd_unweighted))
    assert rep.max_abs_weighted() < max(0.25, 0.6 * raw)
    assert rep.max_abs_weighted() > 1e-6


def test_ipw_improves_balance_on_confounded_draw():
    co = random_survival_cohort(np.random.default_rng(44), n=400, j=1, p=2)
    fit = fit_multinomial_logit(co)
    w = compute_weights(fit, co.treatment, "ipw")
    rep = balance_table(co, w)
    before = np.max(np.abs(rep.smd_unweighted))
    if before > 0.15:  # only informative when the draw is confounded
        assert rep.max_abs_weighted() < before


def test_propensity_histogram_counts():
    probs = np.array([[0.05, 0.95], [0.5, 0.5], [0.95, 0.05], [0.52, 0.48]])
    z = np.array([0, 1, 0, 1])
    counts, edges = propensity_histogram(probs, z, n_bins=10)
    assert counts.shape == (2, 2, 10)
    assert edges[0] == 0.0 and edges[-1] == 1.0
    # component 0 in group 0: values 0.05 and 0.95 -> first and last bin
    np.testing.assert_array_equal(counts[0, 0], [1, 0, 0, 0, 0, 0, 0, 0, 0, 1])
    # per (component, group) totals match group sizes
    np.testing.assert_array_equal(counts.sum(axis=2), [[2, 2], [2, 2]])


def test_propensity_histogram_accepts_fit():
    co = random_survival_cohort(np.random.default_rng(8), n=60, j=1, p=2)
    fit = fit_multinomial_logit(co)
    counts, _ = propensity_histogram(fit, co.treatment, n_bins=5)
    assert counts.sum() == 2 * co.n
