"""Weighted marginal Cox estimation: score, fit, sandwich, bootstrap."""

import dataclasses
import itertools
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq, minimize

from conftest import (
    brute_partial_loglik,
    brute_partial_score,
    collinear_cohort,
    random_survival_cohort,
    stacked_bread_meat,
)
from wcox import (
    ConvergenceError,
    MhrEstimate,
    StudyError,
    ValidationError,
    WeightSet,
    bootstrap_covariance,
    compute_weights,
    confidence_intervals,
    evaluate_score,
    fit_mhr,
    fit_multinomial_logit,
    fit_weighted_mhr,
    sandwich_covariance,
    stacked_pieces,
    validate_cohort,
)
from wcox import marginal_cox
from wcox.propensity import _weigh


def _unit_weights(cohort):
    g = cohort.n_treatments + 1
    probs = np.full((cohort.n, g), 1.0 / g)
    return compute_weights(probs, cohort.treatment, "unit")


def _four_unit_cohort():
    # times 1..4, all events, treated units fail first and last
    return validate_cohort([1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1], [1, 0, 0, 1])


# the four-unit score is U(tau) = 1 - 2r/(r+1) - r/(r+2) with r = e^tau,
# whose root solves r^2 + r - 1 = 0, so r = (sqrt(5)-1)/2
_GOLDEN_HR = (np.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_TAU = np.log(_GOLDEN_HR)


class TestFourUnitExample:
    def test_score_at_zero_is_minus_one_third(self):
        co = _four_unit_cohort()
        res = evaluate_score(co, _unit_weights(co), [0.0])
        # 1 - 1/2 - 1/3 - 1/2
        np.testing.assert_allclose(res.score, [-1.0 / 3.0], atol=1e-15)

    def test_fit_recovers_closed_form_root(self):
        co = _four_unit_cohort()
        est = fit_mhr(co, _unit_weights(co))
        np.testing.assert_allclose(est.tau, [_GOLDEN_TAU], atol=1e-9)
        np.testing.assert_allclose(est.hr, [_GOLDEN_HR], atol=1e-9)
        assert est.score_norm <= 1e-9
        assert est.n == 4 and est.n_events == 4

    def test_root_matches_independent_bracketing(self):
        co = _four_unit_cohort()
        w = np.ones(4)

        def f(tau):
            return brute_partial_score(co.time, co.event, co.treatment, w, [tau], 1)[0]

        root = brentq(f, -2.0, 2.0, xtol=1e-13)
        assert abs(root - _GOLDEN_TAU) < 1e-11
        est = fit_mhr(co, _unit_weights(co))
        np.testing.assert_allclose(est.tau, [root], atol=1e-9)

    def test_fit_loglik_matches_brute_force(self):
        co = _four_unit_cohort()
        est = fit_mhr(co, _unit_weights(co))
        ll = brute_partial_loglik(co.time, co.event, co.treatment, np.ones(4), est.tau)
        np.testing.assert_allclose(est.loglik, ll, rtol=1e-12)


class TestRiskProcesses:
    # the at-risk mean Dbar(2) of the treatment indicator, read off the
    # residual psi = w (D - Dbar) of the control unit that fails at t = 2

    def test_hand_values_at_t2_tau0(self):
        co = _four_unit_cohort()
        psi = stacked_pieces(co, None, _unit_weights(co), [0.0]).psi
        # at-risk units {2,3,4}; only unit 4 is treated: dbar = 1/3
        np.testing.assert_allclose(psi[1], [-1.0 / 3.0], atol=1e-15)

    def test_tau_tilts_the_at_risk_average(self):
        co = _four_unit_cohort()
        tau = np.log(2.0)
        psi = stacked_pieces(co, None, _unit_weights(co), [tau]).psi
        # r = 2: s0 = 1 + 1 + 2, s1 = 2, dbar = 1/2
        np.testing.assert_allclose(psi[1], [-0.5], atol=1e-15)

class TestScoreProperties:
    def test_matches_brute_force_on_random_cohorts(self):
        rng = np.random.default_rng(7)
        for j in (1, 2, 3):
            co = random_survival_cohort(rng, n=40, j=j, p=2)
            w = _unit_weights(co)
            tau = rng.normal(scale=0.4, size=j)
            res = evaluate_score(co, w, tau)
            ll = brute_partial_loglik(co.time, co.event, co.treatment, w.weights, tau)
            sc = brute_partial_score(co.time, co.event, co.treatment, w.weights, tau, j)
            np.testing.assert_allclose(res.loglik, ll, rtol=1e-11)
            np.testing.assert_allclose(res.score, sc, atol=1e-11)

    def test_score_is_gradient_of_loglik(self):
        rng = np.random.default_rng(8)
        co = random_survival_cohort(rng, n=60, j=2, p=2)
        fit = fit_multinomial_logit(co)
        w = compute_weights(fit, co.treatment, "ipw")
        tau = np.array([0.3, -0.2])
        res = evaluate_score(co, w, tau)
        h = 1e-6
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            fd = (
                evaluate_score(co, w, tau + e).loglik
                - evaluate_score(co, w, tau - e).loglik
            ) / (2.0 * h)
            np.testing.assert_allclose(res.score[k], fd, rtol=1e-5, atol=1e-7)

    def test_info_is_negative_hessian(self):
        rng = np.random.default_rng(9)
        co = random_survival_cohort(rng, n=50, j=1, p=2)
        w = _unit_weights(co)
        tau = np.array([0.25])
        res = evaluate_score(co, w, tau)
        h = 1e-5
        fd = -(
            evaluate_score(co, w, tau + h).score[0]
            - evaluate_score(co, w, tau - h).score[0]
        ) / (2.0 * h)
        np.testing.assert_allclose(res.info[0, 0], fd, rtol=1e-6)

    def test_degree_one_weight_homogeneity(self):
        co = random_survival_cohort(np.random.default_rng(10), n=30, j=2, p=2)
        w1 = _unit_weights(co)
        w2 = compute_weights(
            np.full((co.n, 3), 1.0 / 3.0), co.treatment, "ipw"
        )  # ipw of uniform probs: all weights 3
        tau = np.array([0.1, -0.3])
        r1 = evaluate_score(co, w1, tau)
        r2 = evaluate_score(co, w2, tau)
        np.testing.assert_allclose(r2.score, 3.0 * r1.score, rtol=1e-13)
        np.testing.assert_allclose(r2.info, 3.0 * r1.info, rtol=1e-13)

    def test_tau_shape_validated(self):
        co = _four_unit_cohort()
        with pytest.raises(ValidationError, match="one component per group"):
            evaluate_score(co, _unit_weights(co), [0.0, 0.0])

    def test_weight_alignment_validated(self):
        co = _four_unit_cohort()
        other = validate_cohort([1, 2, 3], [1, 1, 1], [0, 1, 0])
        with pytest.raises(ValidationError, match="align"):
            evaluate_score(co, _unit_weights(other), [0.0])


class TestFitAgainstDerivativeFreeOracle:
    def test_thirty_random_cohorts(self):
        rng = np.random.default_rng(11)
        for trial in range(30):
            j = 1 + trial % 2
            co = random_survival_cohort(rng, n=30 + (trial % 4) * 10, j=j, p=2)
            fit = fit_multinomial_logit(co)
            scheme = ("ipw", "ow", "unit")[trial % 3]
            if scheme == "unit":
                w = _unit_weights(co)
            else:
                w = compute_weights(fit, co.treatment, scheme)
            try:
                est = fit_mhr(co, w)
            except ConvergenceError:
                continue  # rare separated draw; not the property under test

            def neg(tau):
                return -brute_partial_loglik(
                    co.time, co.event, co.treatment, w.weights, tau
                )

            opt = minimize(
                neg,
                np.zeros(j),
                method="Nelder-Mead",
                options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000},
            )
            np.testing.assert_allclose(est.tau, opt.x, atol=1e-6)
            # the engine's root beats the simplex point on the brute loglik
            assert est.loglik >= -opt.fun - 1e-9
            sc = brute_partial_score(
                co.time, co.event, co.treatment, w.weights, est.tau, j
            )
            assert np.max(np.abs(sc)) < 1e-7


class TestWeightScaleInvariance:
    def test_power_of_two_rescale_is_bitwise(self):
        co = random_survival_cohort(np.random.default_rng(12), n=50, j=2, p=2)
        fit = fit_multinomial_logit(co)
        w = compute_weights(fit, co.treatment, "ipw")
        e1 = fit_mhr(co, w)
        e2 = fit_mhr(co, _scaled(w, 4.0))
        np.testing.assert_array_equal(e2.tau, e1.tau)
        assert e2.iterations == e1.iterations
        # loglik picks up -log(c) per weighted event, scaled by c
        ev_mass = float(np.sum(w.weights * co.event))
        np.testing.assert_allclose(
            e2.loglik, 4.0 * e1.loglik - 4.0 * np.log(4.0) * ev_mass, rtol=1e-13
        )

    def test_arbitrary_rescale_matches_closely(self):
        co = random_survival_cohort(np.random.default_rng(13), n=50, j=1, p=2)
        fit = fit_multinomial_logit(co)
        w = compute_weights(fit, co.treatment, "ow")
        e1 = fit_mhr(co, w)
        e2 = fit_mhr(co, _scaled(w, 3.7))
        np.testing.assert_allclose(e2.tau, e1.tau, atol=1e-12)


def _scaled(wset, c):
    """WeightSet with every weight multiplied by c (tilt kept)."""
    import dataclasses

    w = np.array(wset.weights) * c
    w.setflags(write=False)
    return dataclasses.replace(wset, weights=w)


class TestFitFailureModes:
    def test_group_without_events_raises(self):
        co = validate_cohort([1, 2, 3, 4], [1, 0, 1, 0], [0, 1, 0, 1])
        with pytest.raises(ConvergenceError, match=r"no observed events.*\['1'\]"):
            fit_mhr(co, _unit_weights(co))

    def test_perfect_survival_ordering_raises(self):
        # every treated unit outlives every control: monotone likelihood
        co = validate_cohort(
            [1, 2, 3, 10, 11, 12], [1, 1, 1, 1, 1, 1], [0, 0, 0, 1, 1, 1]
        )
        with pytest.raises(ConvergenceError, match="monotone likelihood"):
            fit_mhr(co, _unit_weights(co))


class TestEstimateApi:
    def test_se_and_ci_need_covariance(self):
        co = _four_unit_cohort()
        est = fit_mhr(co, _unit_weights(co))
        assert np.all(np.isnan(est.se))
        assert est.variance_method == "none"
        with pytest.raises(ValidationError, match="no covariance"):
            confidence_intervals(est)

    def test_with_covariance_attaches(self):
        co = _four_unit_cohort()
        est = fit_mhr(co, _unit_weights(co)).with_covariance([[0.04]], "robust")
        np.testing.assert_allclose(est.se, [0.2])
        assert est.variance_method == "robust"

    def test_level_validation(self):
        co = _four_unit_cohort()
        est = fit_mhr(co, _unit_weights(co)).with_covariance([[0.04]], "robust")
        for bad in (0.0, 1.0, 1.5):
            with pytest.raises(ValidationError, match="confidence level"):
                confidence_intervals(est, level=bad)

    def test_hazard_ratio_presentation(self):
        # tau 0.417 with se 0.065 presents as HR 1.52 (1.34, 1.73)
        est = MhrEstimate(
            tau=np.array([0.417]),
            treatment_labels=("0", "1"),
            loglik=0.0,
            iterations=3,
            score_norm=0.0,
            n=100,
            n_events=60,
        ).with_covariance([[0.065**2]], "robust")
        hr, lo, hi = confidence_intervals(est, level=0.95)[0]
        assert round(hr, 2) == 1.52
        assert round(lo, 2) == 1.34
        assert round(hi, 2) == 1.72  # exact Wald limit 1.7237
        np.testing.assert_allclose(
            [lo, hi],
            np.exp(0.417 + np.array([-1, 1]) * 1.959963984540054 * 0.065),
            rtol=1e-12,
        )
        # the default level is 95%
        np.testing.assert_allclose(confidence_intervals(est)[0, 1:], [lo, hi])


def _brute_lin_wei_cov(cohort, weights, tau):
    """Textbook robust covariance from explicit O(n^2) residual sums."""
    n = cohort.n
    j = cohort.n_treatments
    w = weights.weights
    d = np.zeros((n, j))
    for k in range(1, j + 1):
        d[:, k - 1] = cohort.treatment == k
    eta = d @ tau
    r = w * np.exp(eta)
    psi = np.zeros((n, j))
    info = np.zeros((j, j))
    for i in range(n):
        if cohort.event[i] != 1:
            continue
        at = cohort.time >= cohort.time[i]
        s0 = np.sum(r[at])
        dbar = (r[at] @ d[at]) / s0
        psi[i] = w[i] * (d[i] - dbar)
        s2 = (r[at, None] * d[at]).T @ d[at] / s0
        info += w[i] * (s2 - np.outer(dbar, dbar))
    corr = np.zeros((n, j))
    for i in range(n):
        for e in range(n):
            if cohort.event[e] != 1 or cohort.time[e] > cohort.time[i]:
                continue
            at = cohort.time >= cohort.time[e]
            s0 = np.sum(r[at])
            dbar = (r[at] @ d[at]) / s0
            corr[i] += w[i] * np.exp(eta[i]) * w[e] / s0 * (d[i] - dbar)
    psi_c = psi - corr
    a = info / n
    b = psi_c.T @ psi_c / n
    a_inv = np.linalg.inv(a)
    cov = a_inv @ b @ a_inv.T / n
    return (cov + cov.T) / 2.0, psi, psi_c


@pytest.fixture(scope="module")
def fitted():
    co = random_survival_cohort(np.random.default_rng(21), n=80, j=2, p=3)
    fit = fit_multinomial_logit(co)
    w = compute_weights(fit, co.treatment, "ipw")
    est = fit_mhr(co, w)
    return co, fit, w, est


# (scheme, att target): ATT to the reference and to a non-reference group
_SANDWICH_SCHEMES = (("ipw", None), ("ow", None), ("att", 0), ("att", 2), ("unit", None))


@pytest.fixture(scope="module")
def tied_cohort():
    """Times on a quarter grid: ties among events and between events and
    censorings."""
    co = random_survival_cohort(np.random.default_rng(23), n=80, j=2, p=3)
    t = np.ceil(co.time * 4.0) / 4.0
    ev_t = set(t[co.event == 1])
    assert len(ev_t) < int(co.event.sum())
    assert ev_t & set(t[co.event == 0])
    return validate_cohort(t, co.event, co.treatment, co.covariates)


class TestSandwich:
    def test_residuals_sum_to_score(self, fitted):
        co, fit, w, est = fitted
        pieces = stacked_pieces(co, fit, w, est.tau)
        np.testing.assert_allclose(pieces.psi.sum(axis=0), 0.0, atol=1e-7)
        # the risk-set correction sums to zero identically
        np.testing.assert_allclose(
            pieces.psi_c.sum(axis=0), pieces.psi.sum(axis=0), atol=1e-10
        )
        # propensity score residuals sum to the (zero) logit gradient
        np.testing.assert_allclose(pieces.pi.sum(axis=0), 0.0, atol=1e-5)

    def test_fixed_weight_cov_matches_brute_force(self, fitted):
        co, fit, w, est = fitted
        res = sandwich_covariance(co, None, w, est.tau)
        brute_cov, psi, psi_c = _brute_lin_wei_cov(co, w, est.tau)
        np.testing.assert_allclose(res.cov_tau, brute_cov, rtol=1e-9, atol=1e-13)
        np.testing.assert_array_equal(res.cov_tau, res.cov_tau_fixed)
        pieces = stacked_pieces(co, fit, w, est.tau)
        np.testing.assert_allclose(pieces.psi, psi, atol=1e-11)
        np.testing.assert_allclose(pieces.psi_c, psi_c, atol=1e-10)

    def test_bread_blocks_match_finite_differences(self, fitted, tied_cohort):
        from wcox import multinomial_probs

        cohorts = {"random": fitted[0], "tied": tied_cohort}
        for (name, co), (scheme, target) in itertools.product(
            cohorts.items(), _SANDWICH_SCHEMES
        ):
            label = f"{name} cohort, {scheme} {target}"
            fit = fit_multinomial_logit(co)
            w = compute_weights(fit, co.treatment, scheme, target)
            tau = fit_mhr(co, w).tau
            pieces = stacked_pieces(co, fit, w, tau)
            n = co.n
            j = co.n_treatments
            # tau block: FD of the aggregate score
            h = 1e-5
            for k in range(j):
                e = np.zeros(j)
                e[k] = h
                fd = -(
                    evaluate_score(co, w, tau + e).score
                    - evaluate_score(co, w, tau - e).score
                ) / (2.0 * h * n)
                np.testing.assert_allclose(
                    pieces.a_tt[:, k], fd, rtol=1e-4, atol=1e-8, err_msg=label
                )
            if scheme == "unit":
                # unit weights do not depend on gamma
                np.testing.assert_array_equal(pieces.a_tg, 0.0, err_msg=label)
            # gamma cross block: FD with an independent step size
            flat = fit.gamma.ravel()
            for m in range(flat.size):
                hm = 1e-4 * max(1.0, abs(flat[m]))
                cols = []
                for sign in (1.0, -1.0):
                    g = flat.copy()
                    g[m] += sign * hm
                    probs = multinomial_probs(g.reshape(fit.gamma.shape), co.covariates)
                    wg = compute_weights(probs, co.treatment, scheme, target)
                    cols.append(evaluate_score(co, wg, tau).score)
                fd = -(cols[0] - cols[1]) / (2.0 * hm * n)
                np.testing.assert_allclose(
                    pieces.a_tg[:, m], fd, rtol=2e-4, atol=1e-8, err_msg=label
                )

    def test_cov_tau_is_the_tau_block_of_the_joint_sandwich(
        self, fitted, tied_cohort
    ):
        # oracle: invert the whole stacked bread, as the textbook form does
        cohorts = {"random": fitted[0], "tied": tied_cohort}
        for (name, co), (scheme, target) in itertools.product(
            cohorts.items(), _SANDWICH_SCHEMES
        ):
            label = f"{name} cohort, {scheme} {target}"
            fit = fit_multinomial_logit(co)
            w = compute_weights(fit, co.treatment, scheme, target)
            tau = fit_mhr(co, w).tau
            res = sandwich_covariance(co, fit, w, tau)
            a, b = stacked_bread_meat(stacked_pieces(co, fit, w, tau))
            a_inv = np.linalg.inv(a)
            j = co.n_treatments
            joint = a_inv @ b @ a_inv.T / co.n
            np.testing.assert_allclose(
                res.cov_tau, joint[:j, :j], rtol=1e-12, err_msg=label
            )
            # the result keeps only J x J covariances: no joint matrix and
            # no per-unit arrays stay alive in a FitBundle
            for field in dataclasses.fields(res):
                assert getattr(res, field.name).shape == (j, j), (label, field.name)

    def test_joint_cov_properties(self, fitted):
        co, fit, w, est = fitted
        res = sandwich_covariance(co, fit, w, est.tau)
        np.testing.assert_array_equal(res.cov_tau, res.cov_tau.T)
        eig = np.linalg.eigvalsh(res.cov_tau)
        assert eig.min() > -1e-12 * max(1.0, eig.max())
        # propagating the propensity step changes the variance
        assert not np.allclose(res.cov_tau, res.cov_tau_fixed, rtol=1e-3)

    def test_unit_weights_reduce_to_fixed(self):
        co = random_survival_cohort(np.random.default_rng(22), n=60, j=1, p=2)
        w = _unit_weights(co)
        est = fit_mhr(co, w)
        res = sandwich_covariance(co, None, w, est.tau)
        np.testing.assert_array_equal(res.cov_tau, res.cov_tau_fixed)
        brute_cov, _, _ = _brute_lin_wei_cov(co, w, est.tau)
        np.testing.assert_allclose(res.cov_tau, brute_cov, rtol=1e-9)


def _rel_diff(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def _assert_same_robust_cov(cohort, other):
    for scheme, target in _SANDWICH_SCHEMES:
        a = fit_weighted_mhr(cohort, scheme, att_target=target).estimate.cov_tau
        b = fit_weighted_mhr(other, scheme, att_target=target).estimate.cov_tau
        assert _rel_diff(b, a) <= 1e-12, (scheme, target)


class TestSandwichInvariances:
    def test_row_permutation(self, tied_cohort):
        perm = np.random.default_rng(24).permutation(tied_cohort.n)
        _assert_same_robust_cov(tied_cohort, tied_cohort.subset(perm))

    def test_monotone_time_transform(self, tied_cohort):
        # the partial likelihood and its sandwich depend on time only through ranks
        co = tied_cohort
        t = np.exp(co.time) + co.time**3
        moved = validate_cohort(t, co.event, co.treatment, co.covariates)
        _assert_same_robust_cov(co, moved)

    def test_fixed_weight_scale(self, fitted):
        co, fit, _, _ = fitted
        for scheme in ("ipw", "ow"):
            w = compute_weights(fit, co.treatment, scheme)
            cov = sandwich_covariance(co, None, w, fit_mhr(co, w).tau).cov_tau
            for c in (0.37, 3.7, 1e3):
                wc = _scaled(w, c)
                cov_c = sandwich_covariance(co, None, wc, fit_mhr(co, wc).tau).cov_tau
                assert _rel_diff(cov_c, cov) <= 1e-12, (scheme, c)


    def test_reference_relabelling(self):
        # refitting with reference r gives tau_k - tau_r and L cov L'.  The
        # solvers stop at gradient inf-norms of 1e-8 (propensity) and 1e-9
        # (Cox, mean-one weights), so each fit may sit off its exact root
        # by about that gradient over the information (of order n/10 here):
        # about 1e-10 in gamma and tau, moving weights and the sandwich
        # relatively by about as much.  atol 1e-8 on tau and rtol 1e-7 on
        # the covariance leave a margin of 100 over that bound (the
        # measured differences are rounding, below 1e-14).
        co = random_survival_cohort(np.random.default_rng(31), n=200, j=3, p=3)
        for scheme in ("ipw", "ow"):
            base = fit_weighted_mhr(co, scheme).estimate
            for r in (1, 2, 3):
                moved = validate_cohort(
                    co.time, co.event, co.treatment, co.covariates, reference=r
                )
                est = fit_weighted_mhr(moved, scheme).estimate
                # new group k is original group orig[k]; tau_0 = 0
                orig = [int(label) for label in moved.treatment_labels]
                contrast = np.zeros((3, 4))
                contrast[np.arange(3), orig[1:]] += 1.0
                contrast[:, r] -= 1.0
                contrast = contrast[:, 1:]
                np.testing.assert_allclose(
                    est.tau,
                    contrast @ base.tau,
                    rtol=0,
                    atol=1e-8,
                    err_msg=(scheme, r),
                )
                np.testing.assert_allclose(
                    est.cov_tau,
                    contrast @ base.cov_tau @ contrast.T,
                    rtol=1e-7,
                    atol=1e-7 * np.max(np.abs(base.cov_tau)),
                    err_msg=(scheme, r),
                )

    def test_aliased_covariate(self):
        # x2 = 2 x1 makes the propensity information singular, but the
        # fitted propensities, hence the weights, tau and the influence
        # terms, are those of the fit on [x1, x3].  As in
        # test_reference_relabelling, each solver may stop off its exact
        # root by its stopping gradient (1e-8 propensity, 1e-9 Cox) over
        # an information of order n/10, about 1e-10 relative; rtol 1e-7
        # leaves a margin of 100 over that (measured: below 1e-14 on this
        # cohort, at most 6e-10 over 300 random cohorts).
        co = random_survival_cohort(np.random.default_rng(32), n=200, j=2, p=2)
        x1, x3 = co.covariates.T
        aliased = validate_cohort(
            co.time, co.event, co.treatment, np.column_stack([x1, 2.0 * x1, x3])
        )
        for scheme, target in (("ipw", None), ("ow", None), ("att", 0)):
            base = fit_weighted_mhr(co, scheme, att_target=target).estimate
            with pytest.warns(UserWarning, match="ill-conditioned"):
                est = fit_weighted_mhr(aliased, scheme, att_target=target).estimate
            np.testing.assert_allclose(est.tau, base.tau, rtol=1e-7, err_msg=scheme)
            np.testing.assert_allclose(
                est.cov_tau, base.cov_tau, rtol=1e-7, err_msg=scheme
            )

    def test_duplicate_rows_versus_frequency_weights(self, fitted):
        co, fit, w, _ = fitted
        dup = np.arange(0, co.n, 7)
        twice = co.subset(np.concatenate([np.arange(co.n), dup]))
        w_twice = np.concatenate([w.weights, w.weights[dup]])
        w_freq = np.array(w.weights)
        w_freq[dup] *= 2.0
        ws_twice = WeightSet("ipw", w_twice, np.ones(twice.n))
        ws_freq = WeightSet("ipw", w_freq, np.ones(co.n))
        # the same partial likelihood: iterates agree up to rounding and
        # the Cox stopping gradient (1e-9), see test_reference_relabelling
        tau = fit_mhr(co, ws_freq).tau
        tau_twice = fit_mhr(twice, ws_twice).tau
        np.testing.assert_allclose(tau_twice, tau, rtol=0, atol=1e-8)
        p_twice = stacked_pieces(twice, None, ws_twice, tau)
        p_freq = stacked_pieces(co, None, ws_freq, tau)
        np.testing.assert_allclose(
            twice.n * p_twice.a_tt, co.n * p_freq.a_tt, rtol=1e-12
        )
        # the meat must not match: the two copies add psi_c psi_c' twice,
        # while the one row of doubled weight has residual 2 psi_c and adds
        # (2 psi_c)(2 psi_c)'.  Frequency weights therefore need their own
        # meat (a resample drawn twice is not a unit of weight 2)
        copy = p_twice.psi_c[co.n:]
        np.testing.assert_allclose(
            p_freq.psi_c[dup], 2.0 * copy, rtol=1e-10, atol=1e-14
        )
        meat_gap = (
            co.n * stacked_bread_meat(p_freq)[1]
            - twice.n * stacked_bread_meat(p_twice)[1]
        )
        np.testing.assert_allclose(
            meat_gap, 2.0 * copy.T @ copy, rtol=1e-10, atol=1e-14
        )
        assert np.min(np.diag(meat_gap)) > 0.0


@pytest.fixture(scope="module")
def boot_cohort():
    return random_survival_cohort(np.random.default_rng(30), n=70, j=1, p=2)


def _singleton_cohort():
    """A singleton treated group, which vanishes from many resamples."""
    t = np.arange(1.0, 9.0)
    d = np.ones(8, dtype=int)
    z = np.array([0, 0, 0, 1, 0, 0, 0, 0])
    return validate_cohort(t, d, z)


def _far_control_cohort():
    """One control unit at x = 1000 drives its group-2 propensity to
    ~1e-290; resamples that draw it often enough push that below the
    double range, so the overlap weights fail after the propensity fit
    converged."""
    rng = np.random.default_rng(3)
    n = 60
    x = rng.normal(size=n)
    z = np.arange(n) % 3
    t = rng.exponential(1.0, n)
    x[0], z[0] = 1000.0, 0
    x[z == 2] -= 1.0
    return validate_cohort(t, np.ones(n, dtype=int), z, x[:, None])


def _single_event_cohort():
    """Group 2 has one event, so every resample without it has a group
    with no events."""
    co = random_survival_cohort(np.random.default_rng(41), n=90, j=2, p=3)
    event = np.array(co.event)
    event[np.flatnonzero((co.treatment == 2) & (co.event == 1))[1:]] = 0
    return validate_cohort(co.time, event, co.treatment, co.covariates)


def _resample_pipeline(co, scheme, n_boot, seed, att_target=None):
    """The per-resample pipeline that bootstrap_covariance batches: each
    resample is materialised with Cohort.subset and goes through the
    weighting stage, then fit_mhr; a failure is filed under the stage that
    raised it.  Returns (draws, drop reasons)."""
    draws, reasons = [], {}
    for child in np.random.SeedSequence(seed).spawn(n_boot):
        sub = co.subset(np.random.default_rng(child).integers(0, co.n, size=co.n))
        if np.any(np.bincount(sub.treatment, minlength=co.n_treatments + 1) == 0):
            stage = "missing_group"
        else:
            try:
                _, _, w, _ = _weigh(sub, scheme, att_target)
            except (ConvergenceError, ValidationError):
                stage = "propensity"
            else:
                try:
                    draws.append(fit_mhr(sub, w).tau)
                    continue
                except (ConvergenceError, ValidationError):
                    stage = "cox"
        reasons[stage] = reasons.get(stage, 0) + 1
    return np.asarray(draws), reasons


class TestBootstrap:
    def test_deterministic_given_seed(self, boot_cohort):
        b1 = bootstrap_covariance(boot_cohort, "ipw", 25, 123)
        b2 = bootstrap_covariance(boot_cohort, "ipw", 25, 123)
        np.testing.assert_array_equal(b1.cov_tau, b2.cov_tau)
        np.testing.assert_array_equal(b1.draws, b2.draws)
        b3 = bootstrap_covariance(boot_cohort, "ipw", 25, 124)
        assert not np.array_equal(b1.cov_tau, b3.cov_tau)

    def test_shapes_and_accounting(self, boot_cohort):
        b = bootstrap_covariance(boot_cohort, "ow", 20, 7)
        assert b.cov_tau.shape == (1, 1)
        assert b.draws.shape == (20 - b.n_dropped, 1)
        assert b.n_requested == 20
        assert sum(b.drop_reasons.values()) == b.n_dropped
        assert np.isfinite(b.cov_tau).all() and b.cov_tau[0, 0] > 0

    def test_ddof_one_covariance(self, boot_cohort):
        b = bootstrap_covariance(boot_cohort, "unit", 15, 5)
        np.testing.assert_allclose(
            b.cov_tau, np.cov(b.draws.T, ddof=1).reshape(1, 1), rtol=1e-14
        )

    def test_validation(self, boot_cohort):
        with pytest.raises(ValidationError, match="at least 2"):
            bootstrap_covariance(boot_cohort, "ipw", 1, 0)
        with pytest.raises(ValidationError, match="seed"):
            bootstrap_covariance(boot_cohort, "ipw", 10, None)

    def test_missing_group_replicates_are_dropped(self):
        b = bootstrap_covariance(
            _singleton_cohort(), "unit", 40, 99, max_drop_fraction=0.95
        )
        assert b.drop_reasons.get("missing_group", 0) >= 1
        assert b.n_dropped == sum(b.drop_reasons.values())
        assert b.draws.shape[0] >= 1

    def test_weight_failures_are_filed_under_propensity(self):
        # the weights fail with messages that do not say "propensity"
        co = _far_control_cohort()
        n = co.n
        messages = []
        for child in np.random.SeedSequence(11).spawn(20):
            sub = co.subset(np.random.default_rng(child).integers(0, n, size=n))
            try:
                compute_weights(fit_multinomial_logit(sub), sub.treatment, "ow")
            except ValidationError as exc:
                messages.append(str(exc))
        assert messages
        assert not any("propensity" in m for m in messages)
        b = bootstrap_covariance(co, "ow", 20, 11, max_drop_fraction=0.95)
        assert b.drop_reasons == {"propensity": len(messages)}

    @pytest.mark.parametrize(
        "scheme, target, message",
        [
            ("matching", None, "unknown weighting scheme 'matching'"),
            ("att", None, "att scheme needs a valid target group index"),
            ("att", 2, "att scheme needs a valid target group index"),
        ],
    )
    def test_bad_scheme_is_rejected_before_resampling(
        self, boot_cohort, monkeypatch, scheme, target, message
    ):
        # every resample is drawn from np.random.default_rng(child)
        def resample(seed=None):
            raise AssertionError("resampled before the scheme was checked")

        monkeypatch.setattr(np.random, "default_rng", resample)
        with pytest.raises(ValidationError, match=message):
            bootstrap_covariance(boot_cohort, scheme, 50, 0, att_target=target)

    def test_unstable_bootstrap_raises(self):
        with pytest.raises(StudyError, match="bootstrap unstable"):
            bootstrap_covariance(
                _singleton_cohort(), "unit", 40, 99, max_drop_fraction=0.01
            )

    def test_batched_passes_split_the_draws_only(self, monkeypatch):
        # a large cohort is fitted in several batched passes; forcing
        # passes of 7 draws must give the draws and drops of one pass, up
        # to rounding
        co = _single_event_cohort()
        one = bootstrap_covariance(co, "ow", 30, 5, max_drop_fraction=0.95)
        monkeypatch.setattr(marginal_cox, "_BATCH_UNITS", 7 * co.n)
        split = bootstrap_covariance(co, "ow", 30, 5, max_drop_fraction=0.95)
        assert split.drop_reasons == one.drop_reasons
        np.testing.assert_allclose(split.draws, one.draws, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "cohort, scheme, target, stage",
        [
            ("pipeline", "ipw", None, None),
            ("pipeline", "ow", None, None),
            ("pipeline", "att", 1, None),
            ("pipeline", "unit", None, None),
            ("tied", "ipw", None, None),
            ("tied", "ow", None, None),
            ("collinear", "ipw", None, None),
            ("collinear", "ow", None, None),
            ("singleton", "ipw", None, "missing_group"),
            ("singleton", "unit", None, "missing_group"),
            ("far_control", "ow", None, "propensity"),
            ("far_control", "ipw", None, None),
            ("single_event", "ipw", None, "cox"),
            ("single_event", "ow", None, "cox"),
        ],
    )
    def test_batched_draws_are_the_resample_pipeline(
        self, request, cohort, scheme, target, stage
    ):
        co = {
            "pipeline": lambda: request.getfixturevalue("pipeline_cohort"),
            "tied": lambda: request.getfixturevalue("tied_cohort"),
            "collinear": collinear_cohort,
            "singleton": _singleton_cohort,
            "far_control": _far_control_cohort,
            "single_event": _single_event_cohort,
        }[cohort]()
        with warnings.catch_warnings():
            # every draw on the collinear cohort is ridged
            warnings.filterwarnings("ignore", "ill-conditioned", UserWarning)
            draws, reasons = _resample_pipeline(co, scheme, 30, 5, target)
            boot = bootstrap_covariance(
                co, scheme, 30, 5, att_target=target, max_drop_fraction=0.95
            )
        assert boot.drop_reasons == reasons
        if stage is not None:
            assert reasons.get(stage, 0) > 0
        # solver precision, as in
        # test_each_bootstrap_draw_is_the_pipeline_on_its_resample
        np.testing.assert_allclose(boot.draws, draws, rtol=0, atol=1e-8)


@pytest.fixture(scope="module")
def pipeline_cohort():
    return random_survival_cohort(np.random.default_rng(40), n=90, j=2, p=3)


class TestWeightedPipeline:

    def test_unit_scheme_skips_propensity_model(self, pipeline_cohort):
        bundle = fit_weighted_mhr(pipeline_cohort, "unit", variance="none")
        assert bundle.psfit is None
        assert bundle.sandwich is None and bundle.bootstrap is None
        assert np.all(bundle.weights.weights == 1.0)
        assert np.all(np.isnan(bundle.estimate.se))

    def test_unit_scheme_robust_variance_is_fixed_weight(self, pipeline_cohort):
        bundle = fit_weighted_mhr(pipeline_cohort, "unit", variance="robust")
        np.testing.assert_array_equal(
            bundle.sandwich.cov_tau, bundle.sandwich.cov_tau_fixed
        )
        assert bundle.estimate.variance_method == "robust"

    def test_ipw_robust_pipeline(self, pipeline_cohort):
        bundle = fit_weighted_mhr(pipeline_cohort, "ipw", variance="robust")
        assert bundle.psfit is not None
        np.testing.assert_array_equal(
            bundle.estimate.cov_tau, bundle.sandwich.cov_tau
        )
        _, lo, hi = confidence_intervals(bundle.estimate, 0.9).T
        np.testing.assert_allclose(
            np.log(hi / lo) / 2.0, 1.6448536269514722 * bundle.estimate.se, rtol=1e-12
        )
        direct = fit_mhr(
            pipeline_cohort, compute_weights(bundle.psfit, pipeline_cohort.treatment, "ipw")
        )
        np.testing.assert_array_equal(bundle.estimate.tau, direct.tau)

    def test_bootstrap_pipeline(self, pipeline_cohort):
        bundle = fit_weighted_mhr(
            pipeline_cohort, "ow", variance="bootstrap", n_boot=12, seed=3
        )
        assert bundle.bootstrap is not None
        assert bundle.estimate.variance_method == "bootstrap"
        np.testing.assert_array_equal(
            bundle.estimate.cov_tau, bundle.bootstrap.cov_tau
        )

    @pytest.mark.parametrize(
        "scheme, target", [("ipw", None), ("ow", None), ("att", 1), ("unit", None)]
    )
    def test_each_bootstrap_draw_is_the_pipeline_on_its_resample(
        self, pipeline_cohort, scheme, target
    ):
        co = pipeline_cohort
        boot = bootstrap_covariance(co, scheme, 6, 17, att_target=target)
        assert boot.n_dropped == 0
        expected = [
            fit_weighted_mhr(
                co.subset(np.random.default_rng(child).integers(0, co.n, size=co.n)),
                scheme,
                att_target=target,
                variance="none",
            ).estimate.tau
            for child in np.random.SeedSequence(17).spawn(6)
        ]
        # the batched fit sums the same terms as the resample fit in another
        # order, and both solvers stop at gradient inf-norms of 1e-8
        # (propensity) and 1e-9 (Cox, mean-one weights); as in
        # test_reference_relabelling, each may sit off its exact root by about
        # that gradient over the information (of order n/10 here), about
        # 1e-10.  atol 1e-8 leaves a margin of 100 over that bound (measured:
        # below 2e-15, rounding only).
        np.testing.assert_allclose(boot.draws, np.asarray(expected), rtol=0, atol=1e-8)

    def test_trim_without_refit_keeps_gamma_on_kept_rows(self, pipeline_cohort):
        bundle = fit_weighted_mhr(
            pipeline_cohort, "ipw", trim_threshold=0.05, refit_trim=False
        )
        res = bundle.trim_result
        assert res.removed.size > 0 and not res.refitted
        full = fit_multinomial_logit(pipeline_cohort)
        np.testing.assert_array_equal(bundle.psfit.gamma, full.gamma)
        np.testing.assert_array_equal(bundle.psfit.probs, full.probs[res.kept])
        np.testing.assert_array_equal(bundle.psfit.design, full.design[res.kept])
        assert bundle.weights.n == bundle.estimate.n == res.cohort.n
        assert np.all(np.isfinite(bundle.estimate.se))

    def test_trim_happens_before_fit(self, pipeline_cohort):
        bundle = fit_weighted_mhr(pipeline_cohort, "ipw", variance="none", trim_threshold=0.02)
        assert bundle.trim_result is not None
        kept = bundle.trim_result.cohort.n
        assert kept == pipeline_cohort.n - bundle.trim_result.removed.size
        assert bundle.estimate.n == kept
        assert bundle.weights.n == kept

    def test_unknown_variance_rejected(self, pipeline_cohort):
        with pytest.raises(ValidationError, match="unknown variance"):
            fit_weighted_mhr(pipeline_cohort, "ipw", variance="jackknife")
