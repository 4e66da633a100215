"""Multinomial propensity model, balancing weights, trimming, balance."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

from conftest import collinear_cohort, multinomial_loglik, random_survival_cohort, softmax
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
from wcox import propensity
from wcox.data_model import _one_hot
from wcox.propensity import _CHUNK, _softmax_groups, _unit_weights, multinomial_information


def test_probs_uniform_at_zero_coefficients():
    x = np.random.default_rng(0).normal(size=(10, 2))
    p = multinomial_probs(np.zeros((2, 3)), x)
    np.testing.assert_allclose(p, 1.0 / 3.0)


def test_probs_rows_sum_to_one():
    rng = np.random.default_rng(1)
    p = multinomial_probs(rng.normal(size=(3, 4)), rng.normal(size=(50, 3)))
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("groups", [2, 3, 4, 5])
@pytest.mark.parametrize("stack", [None, 3])
@pytest.mark.parametrize("n", [1, 1000, 2 * _CHUNK + 3])
def test_softmax_groups_is_the_row_softmax_bit_for_bit(groups, stack, n):
    rng = np.random.default_rng(100 * groups + n)
    m = 1 if stack is None else stack
    eta = rng.normal(0.0, 3.0, (m, n, groups - 1))
    # ties at the maximum, with the reference and between groups, and
    # logits of +-800, whose exp underflows after the shift: the second
    # unit of every fit ties its logits at 800, and a third of the others
    # take one of these values
    pick = rng.random(eta.shape) < 0.3
    eta[pick] = rng.choice([0.0, 1.5, 800.0, -800.0], size=pick.sum())
    eta[:, 1:2] = 800.0
    e = np.zeros((m, groups, n))
    e[:, 1:] = eta.transpose(0, 2, 1)
    if stack is None:
        e = e[0]
    top, total = _softmax_groups(e)
    assert top.shape == total.shape == e.shape[:-2] + (n,)
    for k in range(m):
        probs, lse = softmax(eta[k])
        at = () if stack is None else (k,)
        np.testing.assert_array_equal(e[at].T, probs)
        np.testing.assert_array_equal(np.log(total[at]) + top[at], lse)


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
            lambda g: -multinomial_loglik(g, co.covariates, co.treatment, j),
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


@pytest.fixture(scope="module")
def multi_chunk_cohort():
    # more units than one chunk of the information products
    co = random_survival_cohort(np.random.default_rng(13), n=50_000, j=2, p=2)
    assert co.n > 3 * propensity._CHUNK
    return co


def test_information_matches_per_unit_sum(multi_chunk_cohort):
    co = multi_chunk_cohort
    fit = fit_multinomial_logit(co)
    e = fit.probs[:, 1:]
    # per unit, (diag e - e e') (x) x x' in the gamma.ravel() order
    cov = np.einsum("ia,ab->iab", e, np.eye(e.shape[1])) - np.einsum("ia,ib->iab", e, e)
    xx = np.einsum("ir,ic->irc", fit.design, fit.design)
    d = fit.design.shape[1]
    expected = np.einsum("iab,irc->arbc", cov, xx).reshape(e.shape[1] * d, -1)
    np.testing.assert_allclose(
        multinomial_information(fit.probs, fit.design), expected, rtol=1e-12
    )


def test_fit_is_invariant_to_row_order(multi_chunk_cohort):
    co = multi_chunk_cohort
    perm = np.random.default_rng(14).permutation(co.n)
    shuffled = validate_cohort(
        co.time[perm], co.event[perm], co.treatment[perm], co.covariates[perm]
    )
    np.testing.assert_allclose(
        fit_multinomial_logit(shuffled).gamma,
        fit_multinomial_logit(co).gamma,
        rtol=0,
        atol=1e-10,
    )


def _reference_information(ce, e, xt):
    """`_information` as first written: fresh coefficient and outer-product
    arrays per chunk, the coefficients negated before the product."""
    m, j, n = e.shape
    d = xt.shape[1]
    diag = np.arange(j)
    blocks = np.zeros((m * j * j, d * d))
    for start in range(0, n, propensity._CHUNK):
        rows = slice(start, start + propensity._CHUNK)
        coefs = -ce[:, :, None, rows] * e[:, None, :, rows]
        coefs[:, diag, diag] += ce[:, :, rows]
        x = xt[rows]
        xx = (x[:, :, None] * x[:, None]).reshape(-1, d * d)
        blocks += coefs.reshape(m * j * j, -1) @ xx
    return blocks.reshape(m, j, j, d, d).transpose(0, 1, 3, 2, 4).reshape(m, j * d, j * d)


def _reference_count_quantities(theta, xt, onehot, counts):
    """`_count_quantities` as first written: separate logits, shifted
    exponentials and score residual."""
    m = theta.shape[0]
    n, d = xt.shape
    j = onehot.shape[0]
    logits = np.zeros((m, j + 1, n))
    logits[:, 1:] = theta.reshape(m, j, d) @ xt.T
    top = logits.max(axis=1)
    probs = np.exp(logits - top[:, None])
    total = probs.sum(axis=1)
    probs /= total[:, None]
    lse = top + np.log(total)
    loglik = np.sum(counts * ((onehot * logits[:, 1:]).sum(axis=1) - lse), axis=1)
    ce = counts[:, None] * probs[:, 1:]
    score = ((counts[:, None] * onehot - ce) @ xt).reshape(m, j * d)
    return loglik, score, _reference_information(ce, probs[:, 1:], xt), probs


@pytest.mark.parametrize("j", [1, 2, 3])
@pytest.mark.parametrize("m, n", [(1, 1), (37, 9), (1, 300), (37, 300), (1, 40_000), (37, 40_000)])
def test_count_quantities_keep_every_bit(m, n, j):
    # the in-place evaluation and the reused chunk arrays against the
    # formulas they replace, over 1 to 3 chunks and p = 0..6 covariates
    assert 2 * propensity._CHUNK < 40_000 <= 3 * propensity._CHUNK
    rng = np.random.default_rng(100 * m + 10 * j + n)
    for p in range(7):
        xt = propensity._design(rng.normal(size=(n, p)))
        # the layout of the cohort's cached one-hot, as `_fit_counts` reads it
        onehot = _one_hot(rng.integers(0, j + 1, n), j + 1)[:, 1:].T
        counts = rng.poisson(1.0, size=(m, n)).astype(np.float64)
        theta = rng.normal(scale=0.7, size=(m, j * (p + 1)))
        got = propensity._count_quantities(theta, xt, onehot, counts)
        want = _reference_count_quantities(theta, xt, onehot, counts)
        for name, a, b in zip(("loglik", "score", "info", "probs"), got, want):
            np.testing.assert_array_equal(a, b, err_msg=f"{name}, p={p}")
        # the sandwich's a_gg reads transposed probabilities
        probs = want[3][0].T
        np.testing.assert_array_equal(
            multinomial_information(probs, xt),
            _reference_information(probs[:, 1:].T[None], probs[:, 1:].T[None], xt)[0],
        )


def _cli_layout_cohort(n):
    """n units of the cohort-cli benchmark's layout: four factorial cells,
    three correlated normal and three binary covariates."""
    rng = np.random.default_rng(3)
    chol = np.linalg.cholesky(np.full((3, 3), 0.5) + 0.5 * np.eye(3))
    x = np.hstack([rng.standard_normal((n, 3)) @ chol.T, rng.integers(0, 2, (n, 3)) - 0.5])
    ub = x @ np.array([0.6, -0.4, 0.3, 0.2, -0.1, 0.15])
    uc = x @ np.array([0.4, 0.2, -0.3, 0.1, 0.1, -0.2])
    probs = np.exp(np.column_stack([np.zeros(n), ub, -ub, uc]))
    probs /= probs.sum(axis=1, keepdims=True)
    cell = (rng.random(n)[:, None] > probs.cumsum(axis=1)).sum(axis=1)
    return validate_cohort(
        rng.exponential(1.0, n) + 1e-3, (rng.random(n) < 0.75).astype(int), cell, x
    )


def test_fit_peak_memory_per_unit():
    # one fit on 2e5 units of the cohort-cli benchmark's layout; holding
    # every (1, J, n) temporary of an evaluation at once peaked at 343
    # bytes per unit
    n = 200_000
    co = _cli_layout_cohort(n)
    tracemalloc.start()
    try:
        fit = fit_multinomial_logit(co)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fit.score_norm <= 1e-8
    assert peak / n <= 320, peak / n


def test_robust_fit_peak_memory_per_unit():
    # the weights, tau and stacked sandwich of an OW fit on the same 2e5
    # units, after the cohort's propensity fit: 186.0 bytes per unit on
    # numpy 2.4 (IPW 178.0)
    n = 200_000
    co = _cli_layout_cohort(n)
    fit_multinomial_logit(co)
    tracemalloc.start()
    try:
        bundle = fit_weighted_mhr(co, "ow", variance="robust")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(bundle.estimate.se))
    assert peak / n <= 195, peak / n


def test_ridge_warning_on_collinear_covariates():
    with pytest.warns(UserWarning, match="ill-conditioned"):
        fit = fit_multinomial_logit(collinear_cohort())
    assert fit.ridged
    assert fit.score_norm <= 1e-8


def test_ridge_rule_decides_as_the_condition_number():
    # the eigenvalue ratio of `_ridge` against np.linalg.cond on random,
    # near-singular and exactly singular symmetric stacks
    rng = np.random.default_rng(21)
    d = 9
    stack = []
    for _ in range(20):
        g = rng.normal(size=(d, d + 3))
        stack.append(g @ g.T)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    for cond in (1e3, 1e9, 1e11, 1e13, 1e15, 1e18):
        stack.append((q * np.geomspace(1.0, 1.0 / cond, d)) @ q.T)
    for rank in (0, 1, d - 2, d - 1):
        g = rng.normal(size=(d, rank))
        stack.append(g @ g.T)
    info = np.array(stack)
    ridged, bad = propensity._ridge(info)
    expected = np.linalg.cond(info) > propensity._CONDITION_LIMIT
    np.testing.assert_array_equal(bad, expected)
    assert expected.sum() == 3 + 4
    np.testing.assert_array_equal(ridged[~bad], info[~bad])
    np.testing.assert_array_equal(ridged[bad], info[bad] + propensity._RIDGE * np.eye(d))


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


def test_trim_rejects_the_fit_of_another_cohort():
    co = random_survival_cohort(np.random.default_rng(22), n=400, j=2, p=3)
    sub = co.subset(np.arange(300))
    fit, sub_fit = fit_multinomial_logit(co), fit_multinomial_logit(sub)
    short_design = dataclasses.replace(fit, design=sub_fit.design)
    for cohort, bad in ((sub, fit), (co, sub_fit), (co, short_design)):
        with pytest.raises(ValidationError, match="propensity fit must align"):
            trim(cohort, bad, 0.01)


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


# ---------------------------------------------- the weights of resamples


def _softmaxed(logits):
    """The probabilities (..., n, G) of logits (..., n, G), computed by
    `_softmax_groups`, which holds the groups on axis -2."""
    e = np.swapaxes(np.array(logits, dtype=np.float64), -1, -2).copy()
    _softmax_groups(e)
    return np.ascontiguousarray(np.swapaxes(e, -1, -2))


def _materialised_weights(probs, treatment, drawn, scheme, target):
    """`compute_weights` on each row's drawn units: (weights (B, n), 0 on
    undrawn units, and failed (B,), where it raised)."""
    weights = np.zeros(drawn.shape)
    failed = np.zeros(len(drawn), dtype=bool)
    for b, row in enumerate(drawn):
        units = np.flatnonzero(row)
        try:
            weights[b, units] = compute_weights(
                probs[b, units], treatment[units], scheme, target
            ).weights
        except ValidationError:
            failed[b] = True
    return weights, failed


# the edge rows of test_count_weights_fail_where_compute_weights_raises:
# unit 4 is never drawn, and each row puts a logit of -800, an exact zero
# propensity, at (unit, group)
_TREATMENT = np.array([0, 1, 2, 1, 0])
_EDGE_ZEROS = {
    "assigned": (1, 1),
    "not-assigned": (2, 1),
    "att-target": (0, 2),
    "undrawn": (4, 0),
}
# which edge rows fail, per scheme (the att target is group 2)
_EDGE_FAILS = {
    "ipw": {"assigned"},
    "ow": {"assigned", "not-assigned", "att-target"},
    "att": {"assigned", "att-target"},
}


@pytest.mark.parametrize("scheme", ["ipw", "ow", "att"])
def test_count_weights_fail_where_compute_weights_raises(scheme):
    # the edge rows, then random rows of random draws whose logits are
    # -800 at one in ten (unit, group) pairs, the reference included
    target = 2 if scheme == "att" else None
    rng = np.random.default_rng(8)
    g, n = 3, len(_TREATMENT)
    logits = rng.normal(size=(len(_EDGE_ZEROS) + 60, n, g))
    logits[..., 0] = 0.0
    for b, (unit, group) in enumerate(_EDGE_ZEROS.values()):
        logits[b, unit, group] = -800.0
    logits[len(_EDGE_ZEROS):][rng.random((60, n, g)) < 0.1] = -800.0
    probs = _softmaxed(logits)
    drawn = rng.poisson(1.0, size=(len(logits), n)) > 0
    drawn[: len(_EDGE_ZEROS)] = np.arange(n) != 4
    drawn[:, 0] |= ~drawn.any(axis=1)
    assert np.any(probs == 0.0)

    weights, failed = propensity._count_weights(probs, _TREATMENT, drawn, scheme, target)
    want_weights, want_failed = _materialised_weights(
        probs, _TREATMENT, drawn, scheme, target
    )
    np.testing.assert_array_equal(failed, want_failed)
    np.testing.assert_array_equal(weights[~failed], want_weights[~failed])
    edge = dict(zip(_EDGE_ZEROS, failed))
    assert {name for name, bad in edge.items() if bad} == _EDGE_FAILS[scheme]
    assert 0 < failed[len(_EDGE_ZEROS):].sum() < 60


@pytest.mark.parametrize("groups", [2, 3, 4, 5])
def test_softmaxed_rows_pass_the_range_and_row_sum_checks(groups):
    # why `_count_weights` does not check them: every row of logits in
    # {-800, 0, 800} (the reference 0), ties included, and random wide ones
    grid = np.array(np.meshgrid(*[[-800.0, 0.0, 800.0]] * (groups - 1))).reshape(groups - 1, -1).T
    wide = np.random.default_rng(groups).normal(scale=400.0, size=(200, groups - 1))
    logits = np.column_stack([np.zeros(len(grid) + 200), np.vstack([grid, wide])])
    probs = _softmaxed(logits)
    assert np.all((probs >= 0.0) & (probs <= 1.0))
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-8
    compute_weights(probs, probs.argmax(axis=1), "ipw")


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
