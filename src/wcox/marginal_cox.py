"""Weighted marginal Cox model for the log hazard ratios of a categorical
treatment, with sandwich and bootstrap inference.

The working model is lambda_z(t) = lambda_0(t) exp(sum_j tau_j 1{z = j}),
so exp(tau_j) is the marginal hazard ratio of group j versus group 0 in
the population targeted by the balancing weights.  tau solves the
weighted partial-likelihood score equation

    sum_i w_i delta_i { D_i - Dbar(Y_i; tau) } = 0,

with D_i the treatment indicator vector, risk sets {l : Y_l >= Y_i}, and
Breslow handling of ties.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.stats import norm

from ._engine import CoxProblem, _fit_risk_tables, _risk_tables, fit_cox
from .data_model import (
    Cohort,
    ConvergenceError,
    StudyError,
    ValidationError,
    _indicators,
)
from .propensity import (
    PropensityFit,
    WeightSet,
    _check_scheme,
    _count_weights,
    _fit_counts,
    _warn_ridge,
    _weigh,
    multinomial_information,
)

__all__ = [
    "ScoreResult",
    "MhrEstimate",
    "StackedPieces",
    "SandwichResult",
    "BootstrapResult",
    "FitBundle",
    "evaluate_score",
    "fit_mhr",
    "stacked_pieces",
    "sandwich_covariance",
    "bootstrap_covariance",
    "confidence_intervals",
    "fit_weighted_mhr",
]


def _check_alignment(cohort: Cohort, weights: WeightSet):
    if weights.n != cohort.n:
        raise ValidationError("weights must align with the cohort")


def _indicator_problem(cohort: Cohort, weights: WeightSet, tau):
    """The weighted Cox problem of the indicator design, and tau as floats."""
    _check_alignment(cohort, weights)
    tau = np.asarray(tau, dtype=np.float64)
    j = cohort.n_treatments
    if tau.shape != (j,):
        raise ValidationError(f"tau must have one component per group, shape ({j},)")
    prob = CoxProblem(
        cohort.time, cohort.event, _indicators(cohort.treatment, j), weights.weights
    )
    return prob, tau


@dataclass(frozen=True)
class ScoreResult:
    """Weighted partial-likelihood score, log-likelihood, and information."""

    score: np.ndarray
    loglik: float
    info: np.ndarray


def evaluate_score(cohort: Cohort, weights: WeightSet, tau) -> ScoreResult:
    """Evaluate the weighted score equation at a given tau.

    Degree-1 homogeneous in the weights: scaling all weights by c > 0
    scales the score by c and leaves the root unchanged.
    """
    prob, tau = _indicator_problem(cohort, weights, tau)
    loglik, score, info = prob.quantities(tau)
    return ScoreResult(score=score, loglik=loglik, info=info)


@dataclass(frozen=True)
class MhrEstimate:
    """Estimated log marginal hazard ratios with optional covariance.

    tau[k] is the log hazard ratio of group k+1 versus the reference;
    se is populated once a covariance is attached, and
    `confidence_intervals` gives Wald limits on the hazard-ratio scale.
    """

    tau: np.ndarray
    treatment_labels: tuple[str, ...]
    loglik: float
    iterations: int
    score_norm: float
    n: int
    n_events: int
    scheme: str | None = None
    cov_tau: np.ndarray | None = None
    variance_method: str = "none"

    @property
    def hr(self) -> np.ndarray:
        return np.exp(self.tau)

    @property
    def se(self) -> np.ndarray:
        if self.cov_tau is None:
            return np.full(self.tau.shape, np.nan)
        return np.sqrt(np.diag(self.cov_tau))

    def with_covariance(self, cov_tau, method: str) -> "MhrEstimate":
        cov_tau = np.asarray(cov_tau, dtype=np.float64)
        return replace(self, cov_tau=cov_tau, variance_method=method)


def fit_mhr(cohort: Cohort, weights: WeightSet) -> MhrEstimate:
    """Point estimate of the log marginal hazard ratios.

    Newton-Raphson from tau = 0 with step-halving (`fit_cox`); the
    gradient tolerance 1e-9 is applied on a mean-one weight scale so the
    iterate sequence is invariant to positive rescaling of the weights.

    Raises
    ------
    ConvergenceError
        When a group has no observed events (monotone likelihood) or the
        solver diverges (any |tau| > 20 with a non-vanishing gradient).
    """
    _check_alignment(cohort, weights)
    j = cohort.n_treatments
    ev_by_group = np.bincount(
        cohort.treatment[cohort.event == 1], minlength=j + 1
    )
    if np.any(ev_by_group == 0):
        empty = [
            cohort.treatment_labels[k] for k in np.flatnonzero(ev_by_group == 0)
        ]
        raise ConvergenceError(
            f"no observed events in group(s) {empty}: "
            "the marginal hazard ratio diverges (monotone likelihood)"
        )
    core = fit_cox(
        cohort.time,
        cohort.event,
        _indicators(cohort.treatment, j),
        weights.weights,
    )
    return MhrEstimate(
        tau=core.beta,
        treatment_labels=cohort.treatment_labels,
        loglik=core.loglik,
        iterations=core.iterations,
        score_norm=core.score_norm,
        n=cohort.n,
        n_events=int(np.sum(cohort.event)),
        scheme=weights.scheme,
    )


@dataclass(frozen=True)
class StackedPieces:
    """Per-unit estimating functions and bread blocks of the stacked
    M-estimation system (tau block first, then gamma in ravel order).

    psi   : (n, J)   weighted score residuals w d (D - Dbar(Y))
    psi_c : (n, J)   corrected residuals (martingale-style second term
                     removed), the meat contribution of the tau block
    pi    : (n, J(p+1)) propensity score residuals (D - e) x design
    a_tt, a_tg, a_gg : bread blocks, -1/n d(sum phi)/d(theta); a_gt = 0

    Without a propensity model the gamma blocks have zero width.
    """

    psi: np.ndarray
    psi_c: np.ndarray
    pi: np.ndarray
    a_tt: np.ndarray
    a_tg: np.ndarray
    a_gg: np.ndarray


def _log_weight_gradient(psfit: PropensityFit, weights: WeightSet, treatment) -> np.ndarray:
    """d log w_i / d gamma, shape (n, J(p+1)) in gamma.ravel() order.

    With d log e_k / d gamma_a = (1{k=a} - e_a) x, every scheme's
    derivative is c_{i,a} x_i: c = e_a - 1{Z=a} for IPW, plus
    1{target=a} - e_a for ATT and tilt/e_a - e_a for OW; 0 for UNIT.
    """
    e = psfit.probs[:, 1:]
    j = e.shape[1]
    coef = e - _indicators(treatment, j)
    if weights.scheme == "att":
        coef += (np.arange(1, j + 1) == weights.att_target) - e
    elif weights.scheme == "ow":
        coef += weights.tilt[:, None] / e - e
    elif weights.scheme == "unit":
        coef[:] = 0.0
    return (coef[:, :, None] * psfit.design[:, None, :]).reshape(e.shape[0], -1)


def stacked_pieces(
    cohort: Cohort,
    psfit: PropensityFit | None,
    weights: WeightSet,
    tau,
) -> StackedPieces:
    """Assemble the stacked estimating-equation pieces at (tau, gamma).

    All blocks are analytic.  a_tt and a_gg are the weighted
    partial-likelihood information and the multinomial Fisher information,
    each divided by n.  a_tg = -(1/n) psi_c' (d log w / d gamma), because
    the tau-score moves with each weight as dU/dw_l = psi_c_l / w_l.
    a_gt is exactly zero.  With psfit=None the weights are treated as
    known and the gamma blocks are empty.  psi, psi_c and a_tt come from
    one sorted pass (`CoxProblem.residuals`).
    """
    prob, tau = _indicator_problem(cohort, weights, tau)
    n = cohort.n
    j = cohort.n_treatments
    psi, psi_c, info = prob.residuals(tau)
    a_tt = info / n

    if psfit is None:
        return StackedPieces(
            psi=psi,
            psi_c=psi_c,
            pi=np.zeros((n, 0)),
            a_tt=a_tt,
            a_tg=np.zeros((j, 0)),
            a_gg=np.zeros((0, 0)),
        )
    onehot = _indicators(cohort.treatment, psfit.n_treatments)
    resid = onehot - psfit.probs[:, 1:]
    pi = (resid[:, :, None] * psfit.design[:, None, :]).reshape(n, -1)
    a_gg = multinomial_information(psfit.probs, psfit.design) / n
    a_tg = -(psi_c.T @ _log_weight_gradient(psfit, weights, cohort.treatment)) / n
    return StackedPieces(psi=psi, psi_c=psi_c, pi=pi, a_tt=a_tt, a_tg=a_tg, a_gg=a_gg)


@dataclass(frozen=True)
class SandwichResult:
    """Sandwich covariance of the stacked estimator.

    cov_tau propagates the propensity-estimation step; cov_tau_fixed
    treats the weights as known (gamma rows and columns deleted), which is
    the weighted robust (Lin-Wei style) variance.
    """

    cov_tau: np.ndarray
    cov_tau_fixed: np.ndarray


def _symmetrize(a: np.ndarray) -> np.ndarray:
    return (a + a.T) / 2.0


def _sandwich(bread: np.ndarray, meat: np.ndarray, n: int) -> np.ndarray:
    try:
        a_inv = np.linalg.inv(bread)
    except np.linalg.LinAlgError:
        raise ConvergenceError("singular bread matrix in the sandwich") from None
    return _symmetrize(a_inv @ meat @ a_inv.T / n)


def sandwich_covariance(
    cohort: Cohort,
    psfit: PropensityFit | None,
    weights: WeightSet,
    tau,
) -> SandwichResult:
    """Stacked M-estimation sandwich covariance of tau.

    The stacked bread is block upper-triangular (a_gt = 0), so the tau
    block of A^-1 B A^-T / n is a_tt^-1 (U'U / n) a_tt^-1 / n with the
    per-unit influence terms U = psi_c - pi a_gg^-1 a_tg' (Lunceford and
    Davidian 2004; Stefanski and Boos 2002).  a_gg^-1 a_tg' is taken as a
    least-squares solve: pi_i and the rows of a_tg lie in the range of
    a_gg, so U is well defined, and invariant to the coding, when a
    propensity covariate is aliased and a_gg is singular.

    With psfit=None, or UNIT weights (a_tg = 0), U = psi_c and cov_tau is
    the fixed-weight robust variance.  After a trim without refit, psfit
    holds the full-sample gamma with its rows cut to the kept units, and
    gamma is treated as if it had been fitted on them.
    """
    n = cohort.n
    pieces = stacked_pieces(cohort, psfit, weights, tau)
    psi_c = pieces.psi_c
    cov_fixed = _sandwich(pieces.a_tt, psi_c.T @ psi_c / n, n)
    g = np.linalg.lstsq(pieces.a_gg, pieces.a_tg.T, rcond=None)[0]
    u = psi_c - pieces.pi @ g
    return SandwichResult(
        cov_tau=_sandwich(pieces.a_tt, u.T @ u / n, n), cov_tau_fixed=cov_fixed
    )


@dataclass(frozen=True)
class BootstrapResult:
    """Nonparametric bootstrap covariance of tau."""

    cov_tau: np.ndarray
    draws: np.ndarray
    n_requested: int
    n_dropped: int
    drop_reasons: dict


# units x draws of one batched pass; bounds the (draws, n, J+1) arrays
_BATCH_UNITS = 1 << 20
_DROP_STAGES = ("missing_group", "propensity", "cox")


def _fit_resamples(cohort: Cohort, counts, scheme: str, att_target):
    """The untrimmed pipeline on resamples given as counts (B, n), each
    count a frequency weight on the original rows.

    Returns (tau (B, J), stage (B,), ridged): stage is 0 for a kept draw,
    else 1 + the index in `_DROP_STAGES` of the stage that stopped it.
    """
    j = cohort.n_treatments
    arm = (cohort.treatment[:, None] == np.arange(j + 1)).astype(np.float64)
    stage = np.where(np.any(counts @ arm == 0.0, axis=1), 1, 0)
    weights = counts.astype(np.float64)
    ridged = False
    rows = np.flatnonzero(stage == 0)
    if scheme != "unit" and rows.size:
        probs, failed, ridged_rows = _fit_counts(cohort, counts[rows])
        ridged = bool(ridged_rows.any())
        w, bad = _count_weights(
            probs, cohort.treatment, counts[rows] > 0, scheme, att_target
        )
        weights[rows] *= w
        stage[rows[failed | bad]] = 2
    no_events = np.any((counts * cohort.event) @ arm == 0.0, axis=1)
    stage[(stage == 0) & no_events] = 3
    rows = np.flatnonzero(stage == 0)
    tau = np.zeros((counts.shape[0], j))
    if rows.size:
        # fit_cox rescales each resample's weights to mean one
        w = weights[rows]
        w /= (w.sum(axis=1) / cohort.n)[:, None]
        f, r = _risk_tables(cohort.time, cohort.event, cohort.treatment, w, j + 1)
        tau[rows], failed = _fit_risk_tables(f, r)
        stage[rows[failed]] = 3
    return tau, stage, ridged


def bootstrap_covariance(
    cohort: Cohort,
    scheme: str,
    n_boot: int,
    seed,
    *,
    att_target=None,
    max_drop_fraction=0.2,
) -> BootstrapResult:
    """Resample units with replacement; refit propensities and tau each time.

    Each replicate is the untrimmed pipeline on the resample: the weighting
    stage, then `fit_mhr`.  A resample is held as the count of draws of
    each unit, used as frequency weights on the original rows, and all
    replicates are fitted in one batched Newton pass per stage; each draw
    equals the fit on its materialised resample to solver precision.
    An unknown scheme or att target raises ValidationError before any
    resample is drawn.
    Replicates where a treatment group disappears, a group loses all its
    events, or either fit fails are dropped and counted by the stage that
    stopped them: "missing_group", "propensity" (the weighting stage) or
    "cox" (the tau fit).  More than `max_drop_fraction` dropped raises
    StudyError ("bootstrap unstable").  When any replicate's propensity
    fit needed the ridge fallback, one warning is issued.
    The covariance is the empirical covariance (ddof=1) of the retained
    tau draws.  Fully deterministic given (cohort, scheme, n_boot, seed).
    """
    if n_boot < 2:
        raise ValidationError("bootstrap needs at least 2 replicates")
    if seed is None:
        raise ValidationError("bootstrap requires a seed")
    n = cohort.n
    _check_scheme(scheme, att_target, cohort.n_treatments + 1)
    children = np.random.SeedSequence(seed).spawn(n_boot)
    per_pass = max(1, _BATCH_UNITS // n)
    taus, stages, ridged = [], [], False
    for start in range(0, n_boot, per_pass):
        counts = np.array(
            [
                np.bincount(np.random.default_rng(child).integers(0, n, size=n), minlength=n)
                for child in children[start : start + per_pass]
            ]
        )
        tau, stage, pass_ridged = _fit_resamples(cohort, counts, scheme, att_target)
        taus.append(tau)
        stages.append(stage)
        ridged |= pass_ridged
    if ridged:
        _warn_ridge()
    stage = np.concatenate(stages)
    reasons: dict[str, int] = {}
    for k in stage[stage > 0]:
        name = _DROP_STAGES[k - 1]
        reasons[name] = reasons.get(name, 0) + 1
    n_dropped = int(np.count_nonzero(stage))
    if n_dropped > max_drop_fraction * n_boot:
        raise StudyError(
            f"bootstrap unstable: {n_dropped} of {n_boot} replicates dropped "
            f"({reasons})"
        )
    arr = np.concatenate(taus)[stage == 0]
    cov = np.atleast_2d(np.cov(arr.T, ddof=1))
    return BootstrapResult(
        cov_tau=cov,
        draws=arr,
        n_requested=n_boot,
        n_dropped=n_dropped,
        drop_reasons=reasons,
    )


def confidence_intervals(estimate: MhrEstimate, level: float = 0.95) -> np.ndarray:
    """Hazard-ratio point estimates and Wald limits, shape (J, 3).

    Columns are (hr, low, high) with limits exp(tau -+ z se); z is the
    standard normal quantile for the requested two-sided level.
    """
    if estimate.cov_tau is None:
        raise ValidationError("estimate has no covariance attached")
    if not (0.0 < level < 1.0):
        raise ValidationError("confidence level must lie in (0, 1)")
    z = norm.ppf(0.5 + level / 2.0)
    se = estimate.se
    return np.column_stack(
        [
            np.exp(estimate.tau),
            np.exp(estimate.tau - z * se),
            np.exp(estimate.tau + z * se),
        ]
    )


@dataclass(frozen=True)
class FitBundle:
    """Everything produced by one weighted analysis."""

    estimate: MhrEstimate
    psfit: PropensityFit | None
    weights: WeightSet
    sandwich: SandwichResult | None = None
    bootstrap: BootstrapResult | None = None
    trim_result: object | None = None


def fit_weighted_mhr(
    cohort: Cohort,
    scheme: str = "ipw",
    *,
    att_target=None,
    variance: str = "robust",
    n_boot: int = 200,
    seed=None,
    trim_threshold=None,
    refit_trim=True,
) -> FitBundle:
    """Full pipeline: propensity fit, optional trim, weights, tau, variance.

    variance is one of 'robust' (stacked sandwich, the default), 'bootstrap'
    (resampling the post-trim cohort, refitting propensities and tau each
    replicate), or 'none'.  Trimming, when requested, happens once before
    any variance estimation.
    """
    if variance not in ("robust", "bootstrap", "none"):
        raise ValidationError(f"unknown variance method {variance!r}")
    cohort, psfit, weights, trim_result = _weigh(
        cohort, scheme, att_target, trim_threshold, refit_trim
    )
    estimate = fit_mhr(cohort, weights)
    sandwich = None
    boot = None
    if variance == "robust":
        sandwich = sandwich_covariance(cohort, psfit, weights, estimate.tau)
        estimate = estimate.with_covariance(sandwich.cov_tau, "robust")
    elif variance == "bootstrap":
        boot = bootstrap_covariance(
            cohort, scheme, n_boot, seed, att_target=att_target
        )
        estimate = estimate.with_covariance(boot.cov_tau, "bootstrap")
    return FitBundle(
        estimate=estimate,
        psfit=psfit,
        weights=weights,
        sandwich=sandwich,
        bootstrap=boot,
        trim_result=trim_result,
    )
