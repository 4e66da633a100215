"""Data-generating process, calibration, estimands, and the study harness."""

import dataclasses
import importlib.util
import io
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import wcox.simulation
from conftest import softmax
from wcox import (
    EstimandResult,
    ScenarioConfig,
    StudyError,
    ValidationError,
    run_study,
    true_estimand,
)
from wcox.propensity import _CHUNK
from wcox.simulation import (
    _DESIGNS,
    _LOADINGS,
    B_COEF,
    BETA_OUTCOME,
    C_COEF,
    _covariate_blocks,
    _draw_assigned,
    _group_shares,
    _limit_blas_threads,
    _openblas_controls,
    _row_blocks,
    _worker_count,
    calibrate_censoring,
    calibrate_intercepts,
    empirical_event_rates,
    gen_covariates,
    gen_outcomes,
    gen_treatment,
    make_replicate,
    treatment_prevalences,
    true_propensities,
)


@pytest.fixture(scope="module")
def multi3_calibration():
    alpha = calibrate_intercepts("multi3", 1.0)
    lam = calibrate_censoring("multi3", 1.0, alpha, 0.25)
    return alpha, lam


class TestCovariates:
    def test_moments(self):
        x = gen_covariates(200_000, np.random.default_rng(1))
        assert x.shape == (200_000, 6)
        np.testing.assert_allclose(x.mean(axis=0), 0.0, atol=0.01)
        np.testing.assert_allclose(x[:, :3].var(axis=0), 1.0, atol=0.02)
        corr = np.corrcoef(x[:, :3].T)
        np.testing.assert_allclose(corr[np.triu_indices(3, 1)], 0.5, atol=0.01)
        assert set(np.unique(x[:, 3:])) == {-0.5, 0.5}
        # binary block independent of the normal block
        cross = np.corrcoef(x.T)[:3, 3:]
        np.testing.assert_allclose(cross, 0.0, atol=0.01)

    def test_deterministic_given_state(self):
        a = gen_covariates(100, np.random.default_rng(5))
        b = gen_covariates(100, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)


class TestPropensities:
    def test_rows_sum_to_one(self):
        x = gen_covariates(500, np.random.default_rng(2))
        for setting, alpha, g in (
            ("multi3", 0.1, 3),
            ("factorial", (0.1, -0.2, 0.05), 4),
        ):
            p = true_propensities(setting, x, 1.3, alpha)
            assert p.shape == (500, g)
            np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(p > 0)

    def test_multi3_hand_row(self):
        x = gen_covariates(3, np.random.default_rng(3))
        alpha, psi = 0.3, 1.5
        u = x @ B_COEF
        logits = np.column_stack(
            [np.zeros(3), alpha + psi * u, alpha - psi * u]
        )
        ref = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(
            true_propensities("multi3", x, psi, alpha), ref, rtol=1e-12
        )

    def test_factorial_hand_row(self):
        x = gen_covariates(3, np.random.default_rng(3))
        alpha, psi = (0.3, -0.1, 0.2), 1.5
        ub, uc = x @ B_COEF, x @ C_COEF
        logits = np.column_stack(
            [np.zeros(3), alpha[0] + psi * ub, alpha[1] - psi * ub, alpha[2] + psi * uc]
        )
        ref = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(
            true_propensities("factorial", x, psi, alpha), ref, rtol=1e-12
        )

    def test_unknown_setting(self):
        x = np.zeros((2, 6))
        with pytest.raises(ValidationError, match="unknown setting"):
            true_propensities("crossover", x, 1.0, 0.0)

    @pytest.mark.parametrize(
        "setting, alpha", [("multi3", (0.1, 0.2, 0.3)), ("factorial", 0.1),
                           ("factorial", (0.1, 0.2))]
    )
    def test_wrong_intercept_count(self, setting, alpha):
        x = np.zeros((2, 6))
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError, match="intercept"):
            gen_treatment(setting, x, 1.0, alpha, rng)
        # refused before the uniforms are drawn
        assert rng.random() == np.random.default_rng(0).random()

    def test_assignment_frequencies_match_probabilities(self):
        x = gen_covariates(120_000, np.random.default_rng(4))
        z = gen_treatment("multi3", x, 1.0, -0.2, np.random.default_rng(14))
        p = true_propensities("multi3", x, 1.0, -0.2)
        np.testing.assert_allclose(
            np.bincount(z, minlength=3) / z.size, p.mean(axis=0), atol=0.005
        )
        z4 = gen_treatment(
            "factorial", x, 1.0, (-0.2, -0.3, -0.1), np.random.default_rng(15)
        )
        p4 = true_propensities("factorial", x, 1.0, (-0.2, -0.3, -0.1))
        np.testing.assert_allclose(
            np.bincount(z4, minlength=4) / z4.size, p4.mean(axis=0), atol=0.005
        )


class TestOutcomes:
    def test_weibull_reference_survival_at_zero_covariates(self):
        x = np.zeros((150_000, 6))
        t = gen_outcomes(x, [0.35, -0.20], rng=np.random.default_rng(6))
        assert t.shape == (150_000, 3)
        # S_z(1) = exp(-exp(theta_z)) at x = 0, scale 1
        for z, theta in enumerate([0.0, 0.35, -0.20]):
            np.testing.assert_allclose(
                (t[:, z] > 1.0).mean(), np.exp(-np.exp(theta)), atol=0.005
            )

    def test_shape_and_scale_transform_quantiles(self):
        x = np.zeros((80_000, 6))
        t1 = gen_outcomes(x, [0.0], shape=1.2, scale=1.0, rng=np.random.default_rng(7))
        t2 = gen_outcomes(x, [0.0], shape=1.2, scale=2.0, rng=np.random.default_rng(7))
        np.testing.assert_allclose(t2, 2.0 * t1, rtol=1e-12)

    @pytest.mark.parametrize("theta", [[0.35, -0.20], [0.35, -0.20, 0.15]])
    @pytest.mark.parametrize("shape, scale", [(1.2, 1.0), (2.0, 3.0), (0.7, 0.5)])
    def test_draw_is_the_written_out_formula(self, theta, shape, scale):
        x = gen_covariates(20_000, np.random.default_rng(16))
        t = gen_outcomes(x, theta, shape=shape, scale=scale, rng=np.random.default_rng(17))
        u = np.random.default_rng(17).random(t.shape)
        rate = np.exp(np.concatenate([[0.0], theta])[None, :] + (x @ BETA_OUTCOME)[:, None])
        np.testing.assert_array_equal(t, scale * (-np.log(u) / rate) ** (1.0 / shape))

    def test_proportional_hazards_in_covariates(self):
        # S(t|x) = exp(-e^{beta'x} t^shape): check at one strong covariate
        x = np.zeros((200_000, 6))
        x[:, 0] = 1.0
        t = gen_outcomes(x, [], rng=np.random.default_rng(8))
        lam = np.exp(1.2)  # beta_1 = 1.2
        np.testing.assert_allclose(
            (t[:, 0] > 1.0).mean(), np.exp(-lam), atol=0.005
        )


@pytest.mark.parametrize("setting", sorted(_DESIGNS))
@pytest.mark.parametrize("n", [1, _CHUNK - 5, 3 * _CHUNK, 3 * _CHUNK + 1])
def test_group_shares_match_the_plain_expression_bit_for_bit(setting, n):
    design = _DESIGNS[setting]
    rng = np.random.default_rng(n)
    x = gen_covariates(n, rng)
    for psi in (0.5, 2.0):
        scaled = design.scaled_loadings(x, psi)
        # |alpha| up to ~40 makes a non-reference logit the row maximum
        for sd in (0.3, 5.0, 40.0):
            offsets = design.offsets(rng.normal(0.0, sd, max(design.intercepts) + 1))
            plain = softmax(offsets + np.ascontiguousarray(scaled.T))[0].mean(axis=0)
            assert np.array_equal(_group_shares(offsets, scaled), plain)


def _assignment_cases(setting, n):
    """(x, psi, alpha) draws whose logits span ordinary values and values
    near +-700, where the row maximum decides whether exp overflows."""
    design = _DESIGNS[setting]
    rng = np.random.default_rng(n + 7)
    x = gen_covariates(n, rng)
    k = max(design.intercepts) + 1
    for psi in (0.5, 2.0):
        for alpha in (rng.normal(0.0, 0.3, k), rng.normal(0.0, 40.0, k),
                      np.full(k, 700.0) - rng.random(k), -np.full(k, 700.0) + rng.random(k),
                      np.where(rng.random(k) < 0.5, 700.0, -700.0)):
            yield x, psi, alpha


def _plain_scaled(setting, x, psi):
    # sign * psi * x'v, (n, groups - 1), one product per group
    return np.column_stack(
        [sign * (psi * (x @ _LOADINGS[key])) for sign, key in _DESIGNS[setting].loadings]
    )


def _old_propensities(setting, x, psi, alpha):
    # the formula true_propensities evaluated with the groups on the last axis
    return softmax(_DESIGNS[setting].offsets(alpha) + _plain_scaled(setting, x, psi))[0]


@pytest.mark.parametrize("setting", sorted(_DESIGNS))
@pytest.mark.parametrize("n", [1, 1000, 3 * _CHUNK + 5])
def test_assignment_probs_keep_every_bit(setting, n):
    design = _DESIGNS[setting]
    for x, psi, alpha in _assignment_cases(setting, n):
        old = _old_propensities(setting, x, psi, alpha)
        np.testing.assert_array_equal(
            design.scaled_loadings(x, psi), _plain_scaled(setting, x, psi).T
        )
        probs = design.propensities(x, psi, alpha)
        assert probs.shape == (len(design.labels), n)
        np.testing.assert_array_equal(probs, old.T)
        new = true_propensities(setting, x, psi, alpha)
        assert new.flags.c_contiguous
        np.testing.assert_array_equal(new, old)


# row counts at the edges of the draws' row blocks
_BLOCK_EDGES = [0, 1, 1000, _CHUNK + 1, 2 * _CHUNK, 3 * _CHUNK + 5]


@pytest.mark.parametrize("n", [0, 1, 2, 3, _CHUNK - 1, _CHUNK, _CHUNK + 1, _CHUNK + 2,
                               2 * _CHUNK, 2 * _CHUNK + 1, 3 * _CHUNK + 5])
def test_row_blocks_cover_the_rows_in_order(n):
    blocks = list(_row_blocks(n))
    assert blocks[0].start == 0 and blocks[-1].stop == n
    assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
    sizes = [b.stop - b.start for b in blocks]
    # every block but the last has _CHUNK rows; the last has 2.._CHUNK + 1,
    # or n rows when n < 2
    assert sizes[:-1] == [_CHUNK] * (len(sizes) - 1)
    assert min(n, 2) <= sizes[-1] <= _CHUNK + 1


@pytest.mark.parametrize("setting", sorted(_DESIGNS))
@pytest.mark.parametrize("n", _BLOCK_EDGES)
def test_gen_treatment_keeps_every_draw(setting, n):
    for x, psi, alpha in _assignment_cases(setting, n):
        p = _old_propensities(setting, x, psi, alpha)
        u = np.random.default_rng(n).random(n)
        old = (u[:, None] > np.cumsum(p, axis=1)).sum(axis=1)
        z = gen_treatment(setting, x, psi, alpha, np.random.default_rng(n))
        assert z.dtype == np.int64
        np.testing.assert_array_equal(z, old)


@pytest.mark.parametrize("setting", sorted(_DESIGNS))
@pytest.mark.parametrize("n", [2, _CHUNK + 1, 3 * _CHUNK + 5])
@pytest.mark.parametrize("layout", ["fortran", "reversed"])
def test_gen_treatment_reads_any_memory_layout(setting, n, layout):
    for x, psi, alpha in _assignment_cases(setting, n):
        if layout == "fortran":
            other = np.asfortranarray(x)
            assert not other.flags.c_contiguous
        else:
            other = np.ascontiguousarray(x[::-1])[::-1]
            assert other.strides[0] < 0
        np.testing.assert_array_equal(other, x)
        rng_c, rng_other = np.random.default_rng(n), np.random.default_rng(n)
        np.testing.assert_array_equal(
            gen_treatment(setting, other, psi, alpha, rng_other),
            gen_treatment(setting, x, psi, alpha, rng_c),
        )
        np.testing.assert_array_equal(rng_other.random(4), rng_c.random(4))


# the covariate draw copies and replays the caller's generator, so it is
# checked under each of numpy's bit generators
_BIT_GENERATORS = [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64]


@pytest.mark.parametrize("n", _BLOCK_EDGES)
def test_gen_covariates_is_the_stacked_draw(n):
    chol = np.linalg.cholesky(np.full((3, 3), 0.5) + 0.5 * np.eye(3))
    for bit_generator in _BIT_GENERATORS:
        rng_new = np.random.Generator(bit_generator(n))
        x = gen_covariates(n, rng_new)
        rng = np.random.Generator(bit_generator(n))
        x_norm = rng.standard_normal((n, 3)) @ chol.T
        x_bin = rng.integers(0, 2, size=(n, 3)).astype(np.float64) - 0.5
        assert x.flags.c_contiguous
        name = bit_generator.__name__
        np.testing.assert_array_equal(x, np.hstack([x_norm, x_bin]), err_msg=name)
        np.testing.assert_array_equal(rng_new.random(8), rng.random(8), err_msg=name)


@pytest.mark.parametrize("n", _BLOCK_EDGES)
def test_covariate_blocks_move_the_generator_before_any_block_is_read(n):
    for bit_generator in _BIT_GENERATORS:
        rng_new = np.random.Generator(bit_generator(n))
        blocks = _covariate_blocks(n, rng_new)
        rng = np.random.Generator(bit_generator(n))
        x = gen_covariates(n, rng)
        # the caller's generator is past the covariates before a block is
        # read (the replicate draws its assignment uniforms there), and its
        # next draws leave the blocks as they are
        name = bit_generator.__name__
        np.testing.assert_array_equal(rng_new.random(8), rng.random(8), err_msg=name)
        got = list(blocks)
        assert [rows for rows, _ in got] == list(_row_blocks(n))
        for rows, block in got:
            np.testing.assert_array_equal(block, x[rows], err_msg=name)


@pytest.mark.parametrize("setting, alpha", [("multi3", -0.24), ("factorial", (-0.6, -0.8, -0.4))])
@pytest.mark.parametrize("n", _BLOCK_EDGES)
def test_draw_assigned_is_the_chained_draw(setting, alpha, n):
    rng_new, rng_old = np.random.default_rng(n), np.random.default_rng(n)
    x, z, t = _draw_assigned(setting, 2.0, alpha, n, rng_new)
    x_old = gen_covariates(n, rng_old)
    z_old = gen_treatment(setting, x_old, 2.0, alpha, rng_old)
    t_all = gen_outcomes(x_old, _DESIGNS[setting].theta, rng=rng_old)
    np.testing.assert_array_equal(x, x_old)
    np.testing.assert_array_equal(z, z_old)
    np.testing.assert_array_equal(t, t_all[np.arange(n), z_old])
    # the generator is left where the chained draw leaves it
    np.testing.assert_array_equal(rng_new.random(8), rng_old.random(8))


def _peak_per_row(call):
    """call() and its tracemalloc peak in bytes per calibration row."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak / wcox.simulation._CAL_N_MC


_FACTORIAL_ALPHA_2 = [float.fromhex(h) for h in
                      ("-0x1.2fcaed2677ef8p-1", "-0x1.a0d59c9f99ed4p-1", "-0x1.8827de648df36p-2")]


def test_censoring_calibration_peak_memory_per_row():
    # the calibration sample sets the peak memory of a study process; x is
    # streamed, so the sample's Bernoulli bits (3 bytes), the assignment
    # uniforms and the assigned times set it, 22.1 bytes per row
    lam, peak = _peak_per_row(
        lambda: calibrate_censoring("factorial", 2.0, _FACTORIAL_ALPHA_2, 0.25)
    )
    assert lam == 0.25
    assert peak <= 23, peak


def test_intercept_calibration_peak_memory_per_row():
    # x is streamed: the signed projections (24 bytes) next to the sample's
    # Bernoulli bits set this peak, 29.0 bytes per row
    alpha, peak = _peak_per_row(lambda: calibrate_intercepts("factorial", 2.0))
    assert alpha.shape == (3,)
    assert peak <= 30, peak


def test_treatment_prevalences_peak_memory_per_row():
    # the default sample is the intercept calibration's, streamed the same
    # way: 29.0 bytes per row
    prev, peak = _peak_per_row(
        lambda: treatment_prevalences("factorial", 2.0, _FACTORIAL_ALPHA_2)
    )
    assert prev.shape == (4,)
    assert peak <= 30, peak


class TestCalibration:
    def test_calibration_bits_are_pinned(self, multi3_calibration):
        alpha, lam = multi3_calibration
        assert alpha.hex() == "-0x1.e80838ac8ad50p-3"
        assert lam.hex() == "0x1.e000000000000p-3"
        assert [a.hex() for a in calibrate_intercepts("factorial", 1.0).tolist()] == [
            "-0x1.a906cf2c999d7p-3", "-0x1.27dd6864f4eeep-2", "-0x1.ea4efa492e3b8p-4"
        ]
        alpha2 = calibrate_intercepts("factorial", 2.0)
        assert [a.hex() for a in alpha2.tolist()] == [
            "-0x1.2fcaed2677ef8p-1", "-0x1.a0d59c9f99ed4p-1", "-0x1.8827de648df36p-2"
        ]
        assert calibrate_censoring("factorial", 2.0, alpha2, 0.25).hex() == (
            "0x1.0000000000000p-2"
        )

    def test_prevalences_are_the_mean_true_propensity(self):
        alpha = (-0.2, -0.3, -0.1)
        x = gen_covariates(50_000, np.random.default_rng(18))
        np.testing.assert_array_equal(
            treatment_prevalences("factorial", 1.5, alpha, n_mc=50_000, seed=18),
            true_propensities("factorial", x, 1.5, alpha).mean(axis=0),
        )

    def test_multi3_intercept_balances_prevalences(self, multi3_calibration):
        alpha, _ = multi3_calibration
        assert alpha == pytest.approx(-0.2383, abs=0.005)
        prev = treatment_prevalences("multi3", 1.0, alpha, n_mc=400_000)
        np.testing.assert_allclose(prev, 1.0 / 3.0, atol=0.01)

    def test_factorial_intercepts(self):
        alpha = calibrate_intercepts("factorial", 1.0)
        np.testing.assert_allclose(
            alpha, [-0.2075, -0.2889, -0.1197], atol=0.005
        )
        prev = treatment_prevalences("factorial", 1.0, alpha, n_mc=400_000)
        np.testing.assert_allclose(prev, 0.25, atol=0.01)

    def test_censoring_rate_hits_target(self, multi3_calibration):
        alpha, lam = multi3_calibration
        assert lam == pytest.approx(0.2344, abs=0.005)
        co = make_replicate(
            "multi3", 1.0, alpha, lam, 100_000, np.random.default_rng(9)
        )
        assert (1.0 - co.event.mean()) == pytest.approx(0.25, abs=0.015)

    def test_zero_censoring_target_gives_zero_rate(self, multi3_calibration):
        alpha, _ = multi3_calibration
        assert calibrate_censoring("multi3", 1.0, alpha, 0.0) == 0.0

    def test_calibration_is_deterministic(self, multi3_calibration):
        alpha, lam = multi3_calibration
        assert calibrate_intercepts("multi3", 1.0) == alpha
        assert calibrate_censoring("multi3", 1.0, alpha, 0.25) == lam


class TestEventRates:
    def test_frozen_rates_at_quarter_censoring(self, multi3_calibration):
        alpha, lam = multi3_calibration
        overall, per_group = empirical_event_rates("multi3", 1.0, alpha, lam)
        assert overall[1.0] == pytest.approx(0.5609075, abs=1e-7)
        assert overall[0.5] == pytest.approx(0.42226, abs=1e-7)
        assert overall[2.0] == pytest.approx(0.6696125, abs=1e-7)
        assert set(per_group) == {0, 1, 2}
        # calibrated prevalences are ~equal, so the pooled rate is close to
        # the plain group average; assignment tilts on the same covariates
        # that drive the hazard, so group 1 fails fastest and group 2 slowest
        rates = [per_group[g][1.0] for g in (0, 1, 2)]
        assert np.mean(rates) == pytest.approx(overall[1.0], abs=0.01)
        assert rates[1] > rates[0] > rates[2]

    def test_half_censoring_rate(self, multi3_calibration):
        alpha, _ = multi3_calibration
        lam = calibrate_censoring("multi3", 1.0, alpha, 0.50)
        overall, _ = empirical_event_rates("multi3", 1.0, alpha, lam)
        assert overall[1.0] == pytest.approx(0.4511, abs=1e-3)


class TestReplicates:
    def test_deterministic_and_well_formed(self, multi3_calibration):
        alpha, lam = multi3_calibration
        a = make_replicate("multi3", 1.0, alpha, lam, 500, np.random.default_rng(10))
        b = make_replicate("multi3", 1.0, alpha, lam, 500, np.random.default_rng(10))
        np.testing.assert_array_equal(a.time, b.time)
        np.testing.assert_array_equal(a.event, b.event)
        np.testing.assert_array_equal(a.treatment, b.treatment)
        np.testing.assert_array_equal(a.covariates, b.covariates)
        assert a.treatment_labels == ("0", "1", "2")
        assert a.n == 500 and a.covariates.shape == (500, 6)

    def test_no_censoring_when_lambda_zero(self, multi3_calibration):
        alpha, _ = multi3_calibration
        co = make_replicate("multi3", 1.0, alpha, 0.0, 300, np.random.default_rng(11))
        assert np.all(co.event == 1)

    def test_factorial_labels(self):
        alpha = calibrate_intercepts("factorial", 1.0)
        co = make_replicate(
            "factorial", 1.0, alpha, 0.0, 400, np.random.default_rng(12)
        )
        assert co.treatment_labels == ("(0,0)", "(1,0)", "(0,1)", "(1,1)")
        assert set(np.unique(co.treatment)) == {0, 1, 2, 3}


_UNKNOWN_SETTING_CALLS = {
    "gen_treatment": lambda s: gen_treatment(
        s, np.zeros((2, 6)), 1.0, 0.0, np.random.default_rng(0)
    ),
    "true_propensities": lambda s: true_propensities(s, np.zeros((2, 6)), 1.0, 0.0),
    "make_replicate": lambda s: make_replicate(
        s, 1.0, 0.0, 0.0, 20, np.random.default_rng(0)
    ),
    "calibrate_intercepts": lambda s: calibrate_intercepts(s, 1.0),
    "calibrate_censoring": lambda s: calibrate_censoring(s, 1.0, 0.0, 0.25),
    "calibrate_censoring_zero_target": lambda s: calibrate_censoring(s, 1.0, 0.0, 0.0),
    "treatment_prevalences": lambda s: treatment_prevalences(s, 1.0, 0.0, n_mc=10),
    "empirical_event_rates": lambda s: empirical_event_rates(s, 1.0, 0.0, 0.0, n=20),
    "true_estimand": lambda s: true_estimand(s, "ipw", 1.0),
    "ScenarioConfig": lambda s: ScenarioConfig(setting=s),
}


@pytest.mark.parametrize("entry", sorted(_UNKNOWN_SETTING_CALLS))
def test_unknown_setting_is_a_validation_error(entry):
    with pytest.raises(ValidationError, match="unknown setting 'crossover'"):
        _UNKNOWN_SETTING_CALLS[entry]("crossover")


def _benchmark_study_call():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "study_call.py"
    spec = importlib.util.spec_from_file_location("study_call", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.slow
@pytest.mark.parametrize("scheme", ["ipw", "ow"])
def test_benchmark_estimand_constants_are_current(scheme):
    # the study-boot benchmark passes these tau* and t0 in as fixed inputs;
    # a change to the data-generating process must not leave them stale
    bench = _benchmark_study_call()
    # the constants were pinned on 2 BLAS threads, and the summation order of
    # the stacked Cox fit over 4e6 records follows the thread count
    previous = _limit_blas_threads(2)
    try:
        res = true_estimand("factorial", scheme, 2.0, m=1_000_000, seed=0)
    finally:
        for set_threads, count in previous:
            set_threads(count)
    assert tuple(res.tau_star.tolist()) == bench.ESTIMANDS[scheme]
    assert res.t0 == bench.ESTIMAND_T0


_PSI_CALLS = {
    "calibrate_intercepts": lambda psi: calibrate_intercepts("factorial", psi),
    "ScenarioConfig": lambda psi: ScenarioConfig(psi=psi),
    "true_estimand_ipw": lambda psi: true_estimand("multi3", "ipw", psi),
    "true_estimand_ow": lambda psi: true_estimand("factorial", "ow", psi),
    "make_replicate": lambda psi: make_replicate("multi3", psi, 0.0, 0.0, 200, 1),
    "gen_treatment": lambda psi: gen_treatment("multi3", np.zeros((5, 6)), psi, 0.0, 1),
    "treatment_prevalences": lambda psi: treatment_prevalences("factorial", psi, (0, 0, 0)),
    "calibrate_censoring": lambda psi: calibrate_censoring("multi3", psi, 0.0, 0.25),
}


@pytest.mark.parametrize("psi", [float("nan"), float("inf"), 0.0, -1.0])
@pytest.mark.parametrize("entry", sorted(_PSI_CALLS))
def test_psi_must_be_positive_and_finite(monkeypatch, entry, psi):
    def draw(*args, **kwargs):
        raise AssertionError("drew a sample before checking psi")

    monkeypatch.setattr(wcox.simulation, "gen_covariates", draw)
    with pytest.raises(ValidationError, match="psi must be positive and finite"):
        _PSI_CALLS[entry](psi)


class TestEstimandValidation:
    def test_m_floor(self):
        with pytest.raises(ValidationError, match="at least 1e6"):
            true_estimand("multi3", "ipw", 1.0, m=10_000)

    def test_unknown_setting_and_scheme(self):
        with pytest.raises(ValidationError, match="unknown setting"):
            true_estimand("both", "ipw", 1.0)
        with pytest.raises(ValidationError, match="not defined for scheme"):
            true_estimand("multi3", "unit", 1.0)

    def test_att_needs_target(self):
        with pytest.raises(ValidationError, match="att estimand needs"):
            true_estimand("multi3", "att", 1.0, m=1_000_000, alpha=-0.24)

    @pytest.mark.parametrize("target", [None, 3])
    def test_att_target_is_checked_before_drawing(self, monkeypatch, target):
        def draw(*args, **kwargs):
            raise AssertionError("drew the sample before checking the target")

        monkeypatch.setattr(wcox.simulation, "gen_covariates", draw)
        with pytest.raises(ValidationError, match="att estimand needs a valid target group"):
            true_estimand("multi3", "att", 1.0, m=1_000_000, att_target=target)


class TestScenarioConfig:
    def test_defaults_are_valid(self):
        c = ScenarioConfig()
        assert c.setting == "multi3" and c.replicates == 200

    def test_bounds(self):
        with pytest.raises(ValidationError, match="setting"):
            ScenarioConfig(setting="trial")
        with pytest.raises(ValidationError, match="psi"):
            ScenarioConfig(psi=0.0)
        with pytest.raises(ValidationError, match="n must be at least 12"):
            ScenarioConfig(n=8)
        with pytest.raises(ValidationError, match="n must be at least 16"):
            ScenarioConfig(setting="factorial", n=12)
        with pytest.raises(ValidationError, match="censoring"):
            ScenarioConfig(censoring=1.0)
        with pytest.raises(ValidationError, match="bootstrap_b"):
            ScenarioConfig(bootstrap_b=1)
        with pytest.raises(ValidationError, match="estimand_m"):
            ScenarioConfig(estimand_m=1000)

    def test_from_mapping(self):
        c = ScenarioConfig.from_mapping(
            {"setting": "factorial", "psi": "2", "n": "600", "seed": "42"}
        )
        assert (c.setting, c.psi, c.n, c.seed) == ("factorial", 2.0, 600, 42)
        with pytest.raises(ValidationError, match="unknown scenario key"):
            ScenarioConfig.from_mapping({"m": 5})
        with pytest.raises(ValidationError, match="invalid value"):
            ScenarioConfig.from_mapping({"n": "many"})


def _fabricated_estimands():
    mk = lambda scheme, tau: EstimandResult(  # noqa: E731
        setting="multi3",
        scheme=scheme,
        psi=1.0,
        tau_star=np.asarray(tau),
        m=1_000_000,
        seed=0,
        t0=3.0,
        alpha=-0.2383,
    )
    return {"ipw": mk("ipw", [0.17, -0.10]), "ow": mk("ow", [0.209, -0.115])}


# the benchmark's study cell, cut to two replicates
_FACTORIAL_CELL = ScenarioConfig(
    setting="factorial", psi=2.0, n=1000, replicates=2, bootstrap_b=100, seed=1
)


def _factorial_estimands():
    return {
        scheme: EstimandResult(setting="factorial", scheme=scheme, psi=2.0,
                               tau_star=np.asarray(tau), m=1_000_000, seed=0, t0=60.0)
        for scheme, tau in (("ipw", [0.17, -0.10, 0.07]), ("ow", [0.24, -0.13, 0.10]))
    }


@pytest.fixture(scope="module")
def small_study():
    config = ScenarioConfig(
        setting="multi3", psi=1.0, n=150, replicates=6, bootstrap_b=8, seed=777
    )
    report = run_study(config, _fabricated_estimands(), max_failure_fraction=0.5)
    return config, report


class TestRunStudy:
    def test_report_structure(self, small_study):
        config, report = small_study
        assert len(report.rows) == 8  # 4 methods x 2 components
        methods = [r.method for r in report.rows]
        assert methods == sorted(
            methods, key=["ipw", "ow", "naive", "multivariable"].index
        )
        comps = {r.component for r in report.rows}
        assert comps == {"tau_1 (1 vs 0)", "tau_2 (2 vs 0)"}
        assert report.replicates_used + report.n_failed == config.replicates
        for r in report.rows:
            assert np.isfinite(r.rel_bias)
            assert 0.0 <= r.coverage <= 1.0
            assert r.mc_sd > 0
            if r.method in ("naive", "multivariable"):
                assert np.isnan(r.mean_se_bootstrap)
            else:
                assert np.isfinite(r.mean_se_bootstrap)
                assert np.isfinite(r.mean_se_robust)

    def test_targets_follow_the_scheme(self, small_study):
        _, report = small_study
        by = {(r.method, r.component): r for r in report.rows}
        assert by[("ipw", "tau_1 (1 vs 0)")].target_tau == pytest.approx(0.17)
        assert by[("naive", "tau_1 (1 vs 0)")].target_tau == pytest.approx(0.17)
        assert by[("ow", "tau_1 (1 vs 0)")].target_tau == pytest.approx(0.209)

    def test_csv_is_stable_and_complete(self, small_study):
        _, report = small_study
        buf1, buf2 = io.StringIO(), io.StringIO()
        report.to_csv(buf1)
        report.to_csv(buf2)
        assert buf1.getvalue() == buf2.getvalue()
        lines = buf1.getvalue().strip().split("\n")
        assert lines[0] == (
            "setting,psi,censoring,n,replicates,method,component,target_tau,"
            "rel_bias,coverage,se_robust_mean,se_bootstrap_mean,mc_sd,"
            "failed_replicates"
        )
        assert len(lines) == 9
        assert all(line.startswith("multi3,1.0,0.25,150,6,") for line in lines[1:])

    def test_format_table_masks_missing_bootstrap(self, small_study):
        _, report = small_study
        table = report.format_table()
        assert "naive" in table and "multivariable" in table
        assert "--" in table  # bootstrap column of the unweighted methods
        assert "tau_1 (1 vs 0)" in table

    def test_rerun_is_byte_identical(self, small_study):
        config, report = small_study
        again = run_study(config, _fabricated_estimands(), max_failure_fraction=0.5)
        b1, b2 = io.StringIO(), io.StringIO()
        report.to_csv(b1)
        again.to_csv(b2)
        assert b1.getvalue() == b2.getvalue()

    def test_worker_pool_matches_serial(self, monkeypatch):
        cells = [
            (ScenarioConfig(setting="multi3", psi=1.0, n=150, replicates=6,
                            bootstrap_b=8, seed=777), _fabricated_estimands()),
            (_FACTORIAL_CELL, _factorial_estimands()),
        ]
        for config, estimands in cells:
            csvs = []
            for workers in ("1", "2"):
                monkeypatch.setenv("WCOX_THREADS", workers)
                report = run_study(config, estimands, max_failure_fraction=0.5)
                buf = io.StringIO()
                report.to_csv(buf)
                csvs.append(buf.getvalue())
            assert csvs[0] == csvs[1]

    def test_one_replicate_has_no_mc_sd(self):
        config = ScenarioConfig(
            setting="multi3", psi=1.0, n=150, replicates=1, bootstrap_b=8, seed=777
        )
        report = run_study(config, _fabricated_estimands())
        assert report.replicates_used == 1
        for r in report.rows:
            assert np.isnan(r.mc_sd)
            assert np.isfinite(r.rel_bias) and np.isfinite(r.mean_se_robust)
        buf = io.StringIO()
        report.to_csv(buf)
        assert all(line.endswith(",nan,0") for line in buf.getvalue().split("\n")[1:-1])

    @pytest.mark.parametrize(
        "config, estimands, message",
        [
            (
                _FACTORIAL_CELL,
                _fabricated_estimands(),
                "'ipw' has (setting, psi, scheme, tau_star shape) "
                "('multi3', 1.0, 'ipw', (2,)); "
                "the cell needs ('factorial', 2.0, 'ipw', (3,))",
            ),
            (
                ScenarioConfig(setting="multi3", psi=2.0, n=150, replicates=2,
                               bootstrap_b=8, seed=777),
                _fabricated_estimands(),
                "('multi3', 1.0, 'ipw', (2,)); the cell needs ('multi3', 2.0, 'ipw', (2,))",
            ),
            (
                _FACTORIAL_CELL,
                {"ipw": _factorial_estimands()["ow"], "ow": _factorial_estimands()["ipw"]},
                "('factorial', 2.0, 'ow', (3,)); "
                "the cell needs ('factorial', 2.0, 'ipw', (3,))",
            ),
            (
                _FACTORIAL_CELL,
                {"ipw": dataclasses.replace(
                    _factorial_estimands()["ipw"], tau_star=np.array([0.17, -0.10]))},
                "('factorial', 2.0, 'ipw', (2,)); "
                "the cell needs ('factorial', 2.0, 'ipw', (3,))",
            ),
            (
                _FACTORIAL_CELL,
                {"ow": dataclasses.replace(
                    _factorial_estimands()["ow"], alpha=np.array([-0.6, -0.8]))},
                "alpha must hold 3 intercept(s), got 2",
            ),
            (
                _FACTORIAL_CELL,
                {"ow": dataclasses.replace(
                    _factorial_estimands()["ow"], alpha=np.array([-0.6, np.nan, -0.4]))},
                "the 'ow' estimand's alpha must be finite",
            ),
        ],
        ids=["setting", "psi", "scheme", "components", "alpha-size", "alpha-nan"],
    )
    def test_mismatched_estimands_are_refused_before_calibration(
        self, monkeypatch, config, estimands, message
    ):
        def calibrate(*args):
            raise AssertionError("calibration ran")

        monkeypatch.setattr(wcox.simulation, "calibrate_intercepts", calibrate)
        monkeypatch.setattr(wcox.simulation, "calibrate_censoring", calibrate)
        with pytest.raises(ValidationError, match=re.escape(message)):
            run_study(config, estimands)

    def test_a_supplied_ow_alpha_sets_the_intercepts(self, monkeypatch):
        # the OW estimand's alpha is the cell's intercepts: the study
        # does not calibrate them again and reports the same cell
        config = ScenarioConfig(
            setting="multi3", psi=1.0, n=150, replicates=3, bootstrap_b=8, seed=777
        )
        unsupplied = {
            key: dataclasses.replace(est, alpha=None)
            for key, est in _fabricated_estimands().items()
        }
        plain = run_study(config, unsupplied, max_failure_fraction=0.5)

        def calibrate(*args):
            raise AssertionError("intercept calibration ran")

        monkeypatch.setattr(wcox.simulation, "calibrate_intercepts", calibrate)
        supplied = dict(unsupplied, ow=dataclasses.replace(unsupplied["ow"], alpha=plain.alpha))
        report = run_study(config, supplied, max_failure_fraction=0.5)
        assert report.alpha == plain.alpha
        csvs = []
        for rep in (plain, report):
            buf = io.StringIO()
            rep.to_csv(buf)
            csvs.append(buf.getvalue())
        assert csvs[0] == csvs[1]

    @pytest.mark.parametrize("fraction", [-0.5, float("nan"), 1.5])
    def test_bad_failure_fraction_is_refused_before_calibration(
        self, monkeypatch, fraction
    ):
        def calibrate(*args):
            raise AssertionError("calibration ran")

        monkeypatch.setattr(wcox.simulation, "calibrate_intercepts", calibrate)
        with pytest.raises(ValidationError, match=r"max_failure_fraction must lie in \[0, 1\]"):
            run_study(_FACTORIAL_CELL, _factorial_estimands(), max_failure_fraction=fraction)

    def test_tiny_cohorts_abort_the_study(self):
        config = ScenarioConfig(
            setting="multi3", psi=1.0, n=12, replicates=4, bootstrap_b=8, seed=3
        )
        with pytest.raises(StudyError, match="study aborted"):
            run_study(config, _fabricated_estimands())

    def test_freed_heap_is_released_once_before_the_replicates(self, monkeypatch):
        calls = []

        def record(name, value=None):
            def call(*args):
                calls.append(name)
                return value
            return call

        monkeypatch.setenv("WCOX_THREADS", "1")
        monkeypatch.setattr(wcox.simulation, "calibrate_intercepts", record("intercepts", -0.2383))
        monkeypatch.setattr(wcox.simulation, "calibrate_censoring", record("censoring", 0.3))
        monkeypatch.setattr(wcox.simulation, "_release_freed_heap", record("release"))
        replicate = wcox.simulation._replicate_estimates

        def spy(*args):
            calls.append("replicate")
            return replicate(*args)

        monkeypatch.setattr(wcox.simulation, "_replicate_estimates", spy)
        config = ScenarioConfig(
            setting="multi3", psi=1.0, n=150, replicates=2, bootstrap_b=8, seed=777
        )
        estimands = {
            key: dataclasses.replace(est, alpha=None)
            for key, est in _fabricated_estimands().items()
        }
        run_study(config, estimands)
        assert calls == ["intercepts", "censoring", "release", "replicate", "replicate"]

    def test_heap_release_calls_malloc_trim_where_libc_has_it(self, monkeypatch):
        pads = []

        def malloc_trim(pad):
            pads.append(pad)
            return 1

        for libc in (SimpleNamespace(malloc_trim=malloc_trim), SimpleNamespace()):
            monkeypatch.setattr(wcox.simulation.ctypes, "CDLL", lambda name, lib=libc: lib)
            wcox.simulation._release_freed_heap()
        assert pads == [0]

        def no_library(name):
            raise OSError("no C library")

        monkeypatch.setattr(wcox.simulation.ctypes, "CDLL", no_library)
        wcox.simulation._release_freed_heap()


class TestWorkerCount:
    def test_env_validation(self, monkeypatch):
        monkeypatch.setenv("WCOX_THREADS", "abc")
        with pytest.raises(ValidationError, match="WCOX_THREADS"):
            _worker_count()
        monkeypatch.setenv("WCOX_THREADS", "0")
        with pytest.raises(ValidationError, match="at least 1"):
            _worker_count()
        monkeypatch.setenv("WCOX_THREADS", "3")
        assert _worker_count() == 3
        monkeypatch.delenv("WCOX_THREADS")
        assert _worker_count() >= 1

    def test_default_follows_affinity_set(self, monkeypatch):
        monkeypatch.delenv("WCOX_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
        assert _worker_count() == 2
        monkeypatch.delattr(os, "sched_getaffinity")
        assert _worker_count() == 64


def _blas_threads():
    return [get_threads() for _, get_threads in _openblas_controls()]


_NO_OPENBLAS = pytest.mark.skipif(
    not _openblas_controls(),
    reason="no OpenBLAS with a thread-count entry point is loaded, so the "
    "study cannot set its BLAS threads",
)


@_NO_OPENBLAS
class TestBlasThreads:
    def test_study_bits_do_not_depend_on_the_blas_threads(self):
        # the process's BLAS thread count defaults to the host's cores; the
        # replicates run on one thread whatever it is
        here = Path(__file__).resolve().parent
        src = str(Path(wcox.__file__).resolve().parent.parent)
        script = (
            f"import sys; sys.path.insert(0, {str(here)!r}); "
            "from test_simulation import _FACTORIAL_CELL, _factorial_estimands; "
            "from wcox import run_study; "
            "run_study(_FACTORIAL_CELL, _factorial_estimands()).to_csv(sys.stdout)"
        )
        csvs = [
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONPATH": src, "WCOX_THREADS": "2",
                     "OPENBLAS_NUM_THREADS": threads},
                capture_output=True, text=True, timeout=600, check=True,
            ).stdout
            for threads in ("1", "2")
        ]
        assert csvs[0].count("\n") == 13
        assert csvs[0] == csvs[1]

    def test_serial_study_restores_the_callers_blas_threads(self, monkeypatch):
        monkeypatch.setenv("WCOX_THREADS", "1")
        monkeypatch.setattr(wcox.simulation, "calibrate_intercepts", lambda *a: -0.2383)
        monkeypatch.setattr(wcox.simulation, "calibrate_censoring", lambda *a: 0.3)
        config = ScenarioConfig(
            setting="multi3", psi=1.0, n=150, replicates=2, bootstrap_b=8, seed=777
        )
        previous = _limit_blas_threads(2)
        try:
            callers = _blas_threads()
            run_study(config, _fabricated_estimands())
            assert _blas_threads() == callers

            seen = []

            def failing(*args):
                seen.append(_blas_threads())
                raise RuntimeError("replicate crashed")

            monkeypatch.setattr(wcox.simulation, "_replicate_estimates", failing)
            with pytest.raises(RuntimeError, match="replicate crashed"):
                run_study(config, _fabricated_estimands())
            assert seen == [[1] * len(callers)]
            assert _blas_threads() == callers
        finally:
            for set_threads, count in previous:
                set_threads(count)
