"""Generalized propensity scores, balancing weights, trimming, and balance
diagnostics for multiple treatment groups.

The propensity model is a multinomial logistic regression of treatment on
the covariates with group 0 as the reference category:

    e_j(x; gamma) = exp(gamma_j' xt) / (1 + sum_k exp(gamma_k' xt)),

where xt is the covariate vector with an intercept prepended and gamma is
a (J, p+1) matrix.  The flattened parameter order is gamma.ravel(), i.e.
all coefficients of group 1, then group 2, and so on.
"""

from __future__ import annotations

import os
import sys
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import logsumexp

from ._engine import _damped_newton, _NewtonLimits, _one_row
from .data_model import Cohort, ValidationError, _indicators, _readonly

__all__ = [
    "PropensityFit",
    "WeightSet",
    "TrimResult",
    "BalanceReport",
    "fit_multinomial_logit",
    "multinomial_probs",
    "multinomial_information",
    "compute_weights",
    "parse_scheme",
    "trim",
    "balance_table",
    "propensity_histogram",
]


def _design(covariates: np.ndarray) -> np.ndarray:
    """Covariate matrix with an intercept column prepended."""
    covariates = np.asarray(covariates, dtype=np.float64)
    return np.column_stack([np.ones(covariates.shape[0]), covariates])


def _softmax(offsets: np.ndarray) -> np.ndarray:
    """Probabilities of logits (0, offsets), row by row."""
    logits = np.column_stack([np.zeros(offsets.shape[0]), offsets])
    logits -= logits.max(axis=1, keepdims=True)
    num = np.exp(logits)
    return num / num.sum(axis=1, keepdims=True)


def multinomial_probs(gamma: np.ndarray, covariates: np.ndarray) -> np.ndarray:
    """Propensities e_j(x; gamma) for all groups, shape (n, J+1).

    Column 0 is the reference group; rows sum to one.
    """
    gamma = np.asarray(gamma, dtype=np.float64)
    return _softmax(_design(covariates) @ gamma.T)


@dataclass(frozen=True)
class PropensityFit:
    """Fitted multinomial propensity model.

    Attributes
    ----------
    gamma : ndarray, shape (J, p+1)
        Coefficients per non-reference group, intercept first.
    probs : ndarray, shape (n, J+1)
        Fitted propensities on the estimation sample; rows sum to one.
    design : ndarray, shape (n, p+1)
        Covariates with intercept, as used in the fit.
    loglik : float
    iterations : int
    score_norm : float
        Gradient inf-norm at the solution.
    ridged : bool
        True when the ridge fallback stabilized the Newton steps.
    """

    gamma: np.ndarray
    probs: np.ndarray
    design: np.ndarray
    loglik: float
    iterations: int
    score_norm: float
    ridged: bool

    @property
    def n_treatments(self) -> int:
        return self.gamma.shape[0]


def _multinomial_quantities(gamma, xt, onehot):
    n = xt.shape[0]
    logits = np.column_stack([np.zeros(n), xt @ gamma.T])
    lse = logsumexp(logits, axis=1)
    loglik = float(np.sum((onehot * logits[:, 1:]).sum(axis=1) - lse))
    probs = np.exp(logits - lse[:, None])
    resid = onehot - probs[:, 1:]
    score = (resid.T @ xt).ravel()
    return loglik, score, multinomial_information(probs, xt), probs


_RIDGE = 1e-8
_CONDITION_LIMIT = 1e12
_PROPENSITY_LIMITS = _NewtonLimits(
    max_iter=100,
    bound=30.0,
    singular="singular propensity information matrix",
    no_ascent="step-halving failed to improve the multinomial likelihood",
    diverged=(
        "propensity coefficients beyond |gamma| > {bound:g}: "
        "quasi-separation of treatment groups"
    ),
    stalled=(
        "propensity model did not converge within {max_iter} iterations "
        "(gradient inf-norm {gnorm:.3e})"
    ),
)


def _warn_ridge():
    """Warn that the ridge fallback was used, at the first caller outside
    the wcox package."""
    package = os.path.dirname(__file__) + os.sep
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_code.co_filename.startswith(package):
        frame, level = frame.f_back, level + 1
    warnings.warn(
        f"ill-conditioned propensity information matrix; adding ridge {_RIDGE:g}",
        stacklevel=level,
    )


def _ridge(info):
    """Add the ridge to every information matrix of the stack whose
    condition estimate exceeds the limit; returns (info, ridged rows)."""
    bad = np.linalg.cond(info) > _CONDITION_LIMIT
    if bad.any():
        info = np.where(bad[:, None, None], info + _RIDGE * np.eye(info.shape[1]), info)
    return info, bad


def fit_multinomial_logit(cohort: Cohort) -> PropensityFit:
    """Maximum-likelihood multinomial logistic propensity model.

    Newton-Raphson from gamma = 0 with step-halving; converges when the
    gradient inf-norm is at most 1e-8, within 100 iterations.  When the
    Fisher information is ill-conditioned (condition estimate beyond
    1e12) a ridge of 1e-8 is added to it and a warning is issued.

    Raises
    ------
    ConvergenceError
        On iteration exhaustion, failed step-halving, or quasi-separation
        (any coefficient beyond 30 in absolute value).
    """
    j = cohort.n_treatments
    if j < 1:
        raise ValidationError("at least two treatment groups are required")
    xt = _design(cohort.covariates)
    d = xt.shape[1]
    onehot = _indicators(cohort.treatment, j)
    ridged = False

    def regularize(info, _):
        nonlocal ridged
        info, bad = _ridge(info)
        if bad.any() and not ridged:
            ridged = True
            _warn_ridge()
        return info

    theta, values, iterations, gnorm, errors = _damped_newton(
        lambda th, _: _one_row(_multinomial_quantities(th[0].reshape(j, d), xt, onehot)),
        np.zeros((1, j * d)),
        1e-8,
        _PROPENSITY_LIMITS,
        regularize,
    )
    if errors[0] is not None:
        raise errors[0]
    probs = values[3][0].copy()
    probs.setflags(write=False)
    gamma = theta[0].reshape(j, d).copy()
    gamma.setflags(write=False)
    return PropensityFit(
        gamma=gamma,
        probs=probs,
        design=xt,
        loglik=float(values[0][0]),
        iterations=int(iterations[0]),
        score_norm=float(gnorm[0]),
        ridged=ridged,
    )


def _count_quantities(theta, xt, onehot, xx, counts):
    """`_multinomial_quantities` of a stack of fits, each weighting the
    units by one row of `counts` (frequency weights).

    theta (m, J(p+1)), counts (m, n), onehot (J, n) and xx (n, (p+1)^2)
    the row-wise outer products of the design.  The probabilities come
    back as (m, J+1, n), and the information blocks of all fits are one
    product of the coefficients c e_a (1{a=b} - e_b) with xx.
    """
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
    coefs = -ce[:, :, None] * probs[:, None, 1:]
    coefs[:, np.arange(j), np.arange(j)] += ce
    blocks = coefs.reshape(m * j * j, n) @ xx
    info = blocks.reshape(m, j, j, d, d).transpose(0, 1, 3, 2, 4).reshape(m, j * d, j * d)
    return loglik, score, info, probs


def _fit_counts(cohort: Cohort, counts):
    """Propensity fits of the cohort under each row of `counts` (B, n) as
    frequency weights, with the rules of `fit_multinomial_logit`.

    Returns (probs (B, n, J+1), failed (B,), ridged (B,)); a failed fit is
    one that `fit_multinomial_logit` on the resample would raise on.
    """
    j = cohort.n_treatments
    xt = _design(cohort.covariates)
    d = xt.shape[1]
    onehot = _indicators(cohort.treatment, j).T
    xx = (xt[:, :, None] * xt[:, None, :]).reshape(xt.shape[0], d * d)
    ridged = np.zeros(len(counts), dtype=bool)

    def regularize(info, rows):
        info, bad = _ridge(info)
        ridged[rows[bad]] = True
        return info

    _, values, _, _, errors = _damped_newton(
        lambda th, rows: _count_quantities(th, xt, onehot, xx, counts[rows]),
        np.zeros((len(counts), j * d)),
        1e-8,
        _PROPENSITY_LIMITS,
        regularize,
    )
    failed = np.array([e is not None for e in errors], dtype=bool)
    return values[3].transpose(0, 2, 1), failed, ridged


def multinomial_information(probs: np.ndarray, design: np.ndarray) -> np.ndarray:
    """Fisher information of the multinomial logit, shape (J(p+1), J(p+1)).

    Block (a, b) is design' diag(e_a (1{a=b} - e_b)) design in the
    gamma.ravel() parameter order.
    """
    probs = np.asarray(probs, dtype=np.float64)
    design = np.asarray(design, dtype=np.float64)
    j = probs.shape[1] - 1
    d = design.shape[1]
    e = probs[:, 1:]
    info = np.empty((j * d, j * d))
    for a in range(j):
        for b in range(a, j):
            c = e[:, a] * ((1.0 if a == b else 0.0) - e[:, b])
            block = design.T @ (c[:, None] * design)
            info[a * d : (a + 1) * d, b * d : (b + 1) * d] = block
            info[b * d : (b + 1) * d, a * d : (a + 1) * d] = block.T
    return info


@dataclass(frozen=True)
class WeightSet:
    """Balancing weights w_i = h(X_i) / e_{i, Z_i} for one scheme.

    `tilt` holds the per-unit numerator h(X_i): 1 for IPW, e_{i,j'} for
    ATT(j'), the harmonic-mean term (sum_k 1/e_{i,k})^-1 for OW, and
    e_{i,Z_i} for UNIT (so that UNIT weights are exactly one).
    """

    scheme: str
    weights: np.ndarray
    tilt: np.ndarray
    att_target: int | None = None

    @property
    def n(self) -> int:
        return self.weights.shape[0]


def parse_scheme(text: str) -> tuple[str, str | None]:
    """Parse a scheme string such as 'ipw', 'ow', 'unit', or 'att:<label>'.

    Returns (scheme, att_target_label); the label is resolved against the
    cohort's treatment labels by the caller.
    """
    head, _, tail = text.strip().partition(":")
    head = head.lower()
    if head == "att":
        label = tail.strip()  # group labels stay case-sensitive
        if not label:
            raise ValidationError("att scheme needs a target group, e.g. att:1")
        return "att", label
    if head not in ("ipw", "ow", "unit") or tail:
        raise ValidationError(
            f"unknown weighting scheme {text.strip()!r}; expected one of "
            "ipw, ow, unit, att:<label>"
        )
    return head, None


def _check_scheme(scheme: str, att_target, groups: int) -> None:
    """Reject an unknown scheme, and an att target outside 0..groups-1."""
    if scheme not in ("ipw", "att", "ow", "unit"):
        raise ValidationError(f"unknown weighting scheme {scheme!r}")
    if scheme == "att" and (att_target is None or not (0 <= int(att_target) < groups)):
        raise ValidationError("att scheme needs a valid target group index")


def _tilt(scheme: str, n, probs, att_target) -> np.ndarray:
    """The numerator h(X) of the weight h / e_Z for units of shape n: 1
    for ipw, e_target for att and the harmonic term (sum_k 1/e_k)^-1 for ow.

    Only att and ow read `probs`, shape n + (J+1,).  The caller has checked
    the scheme and the att target.
    """
    if scheme == "ipw":
        return np.ones(n)
    if scheme == "att":
        return probs[..., int(att_target)].copy()
    if np.any(probs == 0.0):
        raise ValidationError("overlap weights need all propensities positive")
    return 1.0 / (1.0 / probs).sum(axis=-1)


def compute_weights(fit_or_probs, treatment, scheme: str, att_target=None) -> WeightSet:
    """Balancing weights for the requested target population.

    Parameters
    ----------
    fit_or_probs : PropensityFit or ndarray, shape (n, J+1)
    treatment : ndarray of group indices in 0..J
    scheme : {'ipw', 'att', 'ow', 'unit'}
    att_target : int, required for scheme 'att'
        Index of the treated group whose population is the target.
    """
    probs = fit_or_probs.probs if isinstance(fit_or_probs, PropensityFit) else fit_or_probs
    probs = np.asarray(probs, dtype=np.float64)
    treatment = np.asarray(treatment)
    n, g = probs.shape
    if treatment.shape != (n,):
        raise ValidationError("treatment must align with the propensity rows")
    if np.any(probs < 0.0) or np.any(probs > 1.0):
        raise ValidationError("propensities must lie in [0, 1]")
    if np.max(np.abs(probs.sum(axis=1) - 1.0)) > 1e-8:
        raise ValidationError("propensity rows must sum to one")
    if treatment.min() < 0 or treatment.max() >= g:
        raise ValidationError("treatment index outside the propensity columns")

    e_assigned = probs[np.arange(n), treatment]
    if np.any(e_assigned == 0.0):
        rows = np.flatnonzero(e_assigned == 0.0)
        raise ValidationError(
            f"assigned-group propensity is zero (infinite weight); "
            f"rows {rows[:10].tolist()}"
        )

    _check_scheme(scheme, att_target, g)
    # a subnormal propensity overflows 1/e to inf; the check below
    # rejects the weights that it makes
    with np.errstate(over="ignore"):
        if scheme == "unit":
            tilt = e_assigned.copy()
        else:
            tilt = _tilt(scheme, n, probs, att_target)
        weights = tilt / e_assigned
    if not np.all(np.isfinite(weights)) or np.any(weights <= 0.0):
        raise ValidationError("weights must come out finite and positive")
    weights.setflags(write=False)
    tilt.setflags(write=False)
    return WeightSet(
        scheme=scheme,
        weights=weights,
        tilt=tilt,
        att_target=None if att_target is None else int(att_target),
    )


def _count_weights(probs, treatment, drawn, scheme: str, att_target=None):
    """`compute_weights` for a stack of fits, probs (B, n, J+1), whose
    units i count only where drawn[b, i].

    Returns (weights (B, n), failed (B,)).  Only drawn units enter the
    checks of `compute_weights`, and the others get weight 0: their
    propensities may be 0, and a zero count times an infinite weight would
    be NaN.  The caller has checked the scheme and the att target.
    """
    n, g = probs.shape[1:]
    e_assigned = probs[:, np.arange(n), treatment]
    bad = (
        np.any(probs < 0.0, axis=2)
        | np.any(probs > 1.0, axis=2)
        | (np.abs(probs.sum(axis=2) - 1.0) > 1e-8)
        | (e_assigned == 0.0)
    )
    if scheme == "ow":
        bad |= np.any(probs == 0.0, axis=2)
    failed = np.any(bad & drawn, axis=1)
    use = drawn & ~failed[:, None]
    probs = np.where(use[:, :, None], probs, 1.0 / g)
    with np.errstate(over="ignore"):
        weights = _tilt(scheme, use.shape, probs, att_target) / probs[
            :, np.arange(n), treatment
        ]
    failed |= np.any(use & ~((weights > 0.0) & np.isfinite(weights)), axis=1)
    return np.where(use, weights, 0.0), failed


def _unit_weights(cohort: Cohort) -> WeightSet:
    """UNIT weights without a propensity model: `compute_weights` on
    uniform propensities 1/(J+1), so every weight is exactly 1 and the
    tilt is 1/(J+1)."""
    g = cohort.n_treatments + 1
    return compute_weights(np.full((cohort.n, g), 1.0 / g), cohort.treatment, "unit")


@dataclass(frozen=True)
class TrimResult:
    """Outcome of propensity trimming."""

    cohort: Cohort
    fit: PropensityFit
    threshold: float
    kept: np.ndarray
    removed: np.ndarray
    removed_by_group: np.ndarray
    refitted: bool


def trim(cohort: Cohort, fit: PropensityFit, threshold: float, refit=True) -> TrimResult:
    """Remove units whose smallest propensity falls below `threshold`.

    The symmetric rule drops unit i when min_j e_{i,j} < threshold.  With
    refit=True (default) the propensity model is re-estimated on the
    trimmed cohort.  With refit=False the original gamma is kept and
    `probs` and `design` are cut to the kept rows, so later steps (the
    stacked sandwich included) treat gamma as if it had been fitted on
    the kept units; loglik, iterations and score_norm stay those of the
    fit on all units.  threshold must lie in [0, 1/(J+1)): at 1/(J+1) or
    above even perfectly uniform propensities would be removed.
    """
    g = cohort.n_treatments + 1
    if not (0.0 <= threshold < 1.0 / g):
        raise ValidationError(
            f"trim threshold must lie in [0, {1.0 / g:.4g}) for {g} groups"
        )
    keep_mask = fit.probs.min(axis=1) >= threshold
    kept = np.flatnonzero(keep_mask)
    removed = np.flatnonzero(~keep_mask)
    removed_by_group = np.bincount(cohort.treatment[removed], minlength=g)
    if removed.size == 0:
        return TrimResult(cohort, fit, float(threshold), kept, removed,
                          removed_by_group, refitted=False)
    lost = np.flatnonzero(np.bincount(cohort.treatment[kept], minlength=g) == 0)
    if lost.size:
        names = [cohort.treatment_labels[k] for k in lost]
        raise ValidationError(
            f"trimming at {threshold:g} removed every unit of group(s) {names}"
        )
    trimmed = cohort.subset(kept)
    if refit:
        new_fit = fit_multinomial_logit(trimmed)
    else:
        new_fit = replace(
            fit, probs=_readonly(fit.probs[kept]), design=fit.design[kept]
        )
    return TrimResult(trimmed, new_fit, float(threshold), kept, removed,
                      removed_by_group, refitted=bool(refit))


def _weigh(cohort: Cohort, scheme: str, att_target=None, trim_threshold=None,
           refit_trim=True):
    """The weighting stage: propensity fit, optional trim, then weights.

    The propensity model is fitted unless the scheme is unit and nothing
    is trimmed.  The scheme and the att target are checked before any fit.
    Returns (cohort after the trim, PropensityFit or None, WeightSet,
    TrimResult or None).
    """
    _check_scheme(scheme, att_target, cohort.n_treatments + 1)
    fit = trimmed = None
    if scheme != "unit" or trim_threshold is not None:
        fit = fit_multinomial_logit(cohort)
    if trim_threshold is not None:
        trimmed = trim(cohort, fit, trim_threshold, refit=refit_trim)
        cohort, fit = trimmed.cohort, trimmed.fit
    if scheme == "unit":
        weights = _unit_weights(cohort)
    else:
        weights = compute_weights(fit, cohort.treatment, scheme, att_target)
    return cohort, fit, weights, trimmed


def _weighted_moments(x, w):
    """Weighted mean and frequency-weight variance sum(w (x-m)^2)/(sum(w)-1)."""
    wsum = w.sum()
    m = (w * x).sum() / wsum
    if wsum <= 1.0:
        return m, np.nan
    return m, float((w * (x - m) ** 2).sum() / (wsum - 1.0))


def _smd(m1, v1, m2, v2):
    denom = np.sqrt((v1 + v2) / 2.0)
    if denom == 0.0 or not np.isfinite(denom):
        return 0.0 if m1 == m2 else np.nan
    return float((m1 - m2) / denom)


@dataclass(frozen=True)
class BalanceReport:
    """Standardized mean differences before and after weighting.

    smd arrays have one row per ordered group pair and one column per
    covariate; `pairs` lists the (j, j') index pairs, j < j'.
    """

    treatment_labels: tuple[str, ...]
    covariate_names: tuple[str, ...]
    pairs: tuple[tuple[int, int], ...]
    smd_unweighted: np.ndarray
    smd_weighted: np.ndarray
    means_weighted: np.ndarray
    vars_weighted: np.ndarray

    def max_abs_weighted(self) -> float:
        finite = self.smd_weighted[np.isfinite(self.smd_weighted)]
        return float(np.max(np.abs(finite))) if finite.size else 0.0

    def to_rows(self):
        """Flat rows (dicts) for CSV export, one per covariate x pair."""
        rows = []
        for r, (j, k) in enumerate(self.pairs):
            for c, name in enumerate(self.covariate_names):
                rows.append(
                    {
                        "covariate": name,
                        "group_a": self.treatment_labels[j],
                        "group_b": self.treatment_labels[k],
                        "smd_unweighted": self.smd_unweighted[r, c],
                        "smd_weighted": self.smd_weighted[r, c],
                    }
                )
        return rows


def balance_table(cohort: Cohort, weights: WeightSet, covariate_names=None) -> BalanceReport:
    """Pairwise standardized mean differences for every covariate.

    SMD(j, j') = (m_j - m_j') / sqrt((s2_j + s2_j') / 2) with weighted
    group means and frequency-weight variances sum(w (x-m)^2)/(sum(w)-1),
    so UNIT weights reproduce the unweighted sample statistics.  When both
    group variances vanish the SMD is 0 for equal means and NaN otherwise.
    """
    p = cohort.n_covariates
    g = cohort.n_treatments + 1
    if covariate_names is None:
        covariate_names = tuple(f"x{c + 1}" for c in range(p))
    covariate_names = tuple(covariate_names)
    if len(covariate_names) != p:
        raise ValidationError("one covariate name per column is required")
    if weights.n != cohort.n:
        raise ValidationError("weights must align with the cohort")

    w = weights.weights
    ones = np.ones(cohort.n)
    means_w = np.empty((g, p))
    vars_w = np.empty((g, p))
    means_u = np.empty((g, p))
    vars_u = np.empty((g, p))
    for grp in range(g):
        rows = cohort.treatment == grp
        for c in range(p):
            x = cohort.covariates[rows, c]
            means_w[grp, c], vars_w[grp, c] = _weighted_moments(x, w[rows])
            means_u[grp, c], vars_u[grp, c] = _weighted_moments(x, ones[rows])

    pairs = tuple((j, k) for j in range(g) for k in range(j + 1, g))
    smd_w = np.empty((len(pairs), p))
    smd_u = np.empty((len(pairs), p))
    for r, (j, k) in enumerate(pairs):
        for c in range(p):
            smd_w[r, c] = _smd(means_w[j, c], vars_w[j, c], means_w[k, c], vars_w[k, c])
            smd_u[r, c] = _smd(means_u[j, c], vars_u[j, c], means_u[k, c], vars_u[k, c])

    return BalanceReport(
        treatment_labels=cohort.treatment_labels,
        covariate_names=covariate_names,
        pairs=pairs,
        smd_unweighted=smd_u,
        smd_weighted=smd_w,
        means_weighted=means_w,
        vars_weighted=vars_w,
    )


def propensity_histogram(fit_or_probs, treatment, n_bins=30):
    """Binned propensity counts per (propensity component, treatment group).

    Returns (counts, edges): counts has shape (J+1, J+1, n_bins) indexed by
    [component j, group g, bin], with equal-width bins on [0, 1].
    """
    probs = fit_or_probs.probs if isinstance(fit_or_probs, PropensityFit) else fit_or_probs
    probs = np.asarray(probs, dtype=np.float64)
    treatment = np.asarray(treatment)
    g = probs.shape[1]
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    counts = np.zeros((g, g, n_bins), dtype=np.int64)
    for comp in range(g):
        for grp in range(g):
            counts[comp, grp], _ = np.histogram(
                probs[treatment == grp, comp], bins=edges
            )
    return counts, edges
