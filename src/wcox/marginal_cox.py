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

from ._engine import CoxProblem, fit_cox
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

    def bread(self) -> np.ndarray:
        j = self.a_tt.shape[0]
        k = self.a_gg.shape[0]
        a = np.zeros((j + k, j + k))
        a[:j, :j] = self.a_tt
        a[:j, j:] = self.a_tg
        a[j:, j:] = self.a_gg
        return a

    def meat(self) -> np.ndarray:
        phi = np.hstack([self.psi_c, self.pi])
        return phi.T @ phi / phi.shape[0]


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
    cov_joint: np.ndarray | None
    bread: np.ndarray | None
    meat: np.ndarray | None
    pieces: StackedPieces | None


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
    """Stacked M-estimation sandwich covariance A^-1 B A^-T / n.

    With psfit=None (or UNIT weights, whose gamma cross block vanishes)
    the result reduces to the fixed-weight robust variance.  After a trim
    without refit, psfit holds the full-sample gamma with its rows cut to
    the kept units, and gamma is treated as if it had been fitted on them.
    """
    tau = np.asarray(tau, dtype=np.float64)
    n = cohort.n
    j = tau.shape[0]
    pieces = stacked_pieces(cohort, psfit, weights, tau)
    cov_fixed = _sandwich(pieces.a_tt, pieces.psi_c.T @ pieces.psi_c / n, n)
    if psfit is None:
        return SandwichResult(
            cov_tau=cov_fixed,
            cov_tau_fixed=cov_fixed,
            cov_joint=None,
            bread=None,
            meat=None,
            pieces=None,
        )
    bread = pieces.bread()
    meat = pieces.meat()
    cov_joint = _sandwich(bread, meat, n)
    return SandwichResult(
        cov_tau=cov_joint[:j, :j],
        cov_tau_fixed=cov_fixed,
        cov_joint=cov_joint,
        bread=bread,
        meat=meat,
        pieces=pieces,
    )


@dataclass(frozen=True)
class BootstrapResult:
    """Nonparametric bootstrap covariance of tau."""

    cov_tau: np.ndarray
    draws: np.ndarray
    n_requested: int
    n_dropped: int
    drop_reasons: dict


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
    stage, then `fit_mhr`.  An unknown scheme or att target raises
    ValidationError before any resample is drawn.
    Replicates where a treatment group disappears, a group loses all its
    events, or either fit fails are dropped and counted by the stage that
    stopped them: "missing_group", "propensity" (the weighting stage) or
    "cox" (the tau fit).  More than `max_drop_fraction` dropped raises
    StudyError ("bootstrap unstable").
    The covariance is the empirical covariance (ddof=1) of the retained
    tau draws.  Fully deterministic given (cohort, scheme, n_boot, seed).
    """
    if n_boot < 2:
        raise ValidationError("bootstrap needs at least 2 replicates")
    if seed is None:
        raise ValidationError("bootstrap requires a seed")
    j = cohort.n_treatments
    n = cohort.n
    _check_scheme(scheme, att_target, j + 1)
    children = np.random.SeedSequence(seed).spawn(n_boot)
    draws = []
    reasons: dict[str, int] = {}
    for child in children:
        rng = np.random.default_rng(child)
        idx = rng.integers(0, n, size=n)
        sub = cohort.subset(idx)
        sizes = np.bincount(sub.treatment, minlength=j + 1)
        if np.any(sizes == 0):
            reasons["missing_group"] = reasons.get("missing_group", 0) + 1
            continue
        try:
            _, _, w, _ = _weigh(sub, scheme, att_target)
        except (ConvergenceError, ValidationError):
            reasons["propensity"] = reasons.get("propensity", 0) + 1
            continue
        try:
            est = fit_mhr(sub, w)
        except (ConvergenceError, ValidationError):
            reasons["cox"] = reasons.get("cox", 0) + 1
            continue
        draws.append(est.tau)
    n_dropped = n_boot - len(draws)
    if n_dropped > max_drop_fraction * n_boot:
        raise StudyError(
            f"bootstrap unstable: {n_dropped} of {n_boot} replicates dropped "
            f"({reasons})"
        )
    arr = np.asarray(draws)
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
        sandwich = sandwich_covariance(
            cohort, None if scheme == "unit" else psfit, weights, estimate.tau
        )
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
