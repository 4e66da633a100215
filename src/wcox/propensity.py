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

from ._engine import _damped_newton, _NewtonLimits
from .data_model import Cohort, ConvergenceError, ValidationError, _readonly

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


def _softmax_groups(e: np.ndarray):
    """Turn the logits `e`, (G, n) or (m, G, n) with the groups on axis -2
    and the reference logits 0 in row 0, into their probabilities in place:
    shifted by the maximum, exponentiated and divided by the sum over the
    groups, added in order.  Returns (top, total), the shift and the sum,
    so the log-sum-exp of the logits is log(total) + top."""
    top = e.max(axis=-2)
    e -= top[..., None, :]
    np.exp(e, out=e)
    total = e.sum(axis=-2)
    e /= total[..., None, :]
    return top, total


def multinomial_probs(gamma: np.ndarray, covariates: np.ndarray) -> np.ndarray:
    """Propensities e_j(x; gamma) for all groups, shape (n, J+1).

    Column 0 is the reference group; rows sum to one.
    """
    eta = _design(covariates) @ np.asarray(gamma, dtype=np.float64).T
    e = np.zeros((eta.shape[1] + 1, eta.shape[0]))
    e[1:] = eta.T
    _softmax_groups(e)
    return np.ascontiguousarray(e.T)


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
    condition estimate exceeds the limit; returns (info, ridged rows).

    The matrices are symmetric positive semi-definite, so their singular
    values are the moduli of their eigenvalues and the 2-norm condition
    number is max|lambda| / min|lambda|.  A ratio that is not finite (an
    exactly singular or zero matrix) counts as beyond the limit, as it
    does for `np.linalg.cond`."""
    moduli = np.abs(np.linalg.eigvalsh(info))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = moduli.max(axis=-1) / moduli.min(axis=-1)
    bad = ~(ratio <= _CONDITION_LIMIT)
    if bad.any():
        info = np.where(bad[:, None, None], info + _RIDGE * np.eye(info.shape[1]), info)
    return info, bad


def fit_multinomial_logit(cohort: Cohort) -> PropensityFit:
    """Maximum-likelihood multinomial logistic propensity model.

    Newton-Raphson from gamma = 0 with step-halving; converges when the
    gradient inf-norm is at most 1e-8, within 100 iterations.  When the
    Fisher information is ill-conditioned (condition estimate beyond
    1e12) a ridge of 1e-8 is added to it and a warning is issued.

    The fit is made once per cohort and kept on it: every call on the
    same cohort returns the same PropensityFit, and warns or raises again
    as the first call did.  A `Cohort.subset` or `dataclasses.replace`
    copy is a new cohort and fits its own model.

    Raises
    ------
    ConvergenceError
        On iteration exhaustion, failed step-halving, or quasi-separation
        (any coefficient beyond 30 in absolute value).
    """
    if cohort.n_treatments < 1:
        raise ValidationError("at least two treatment groups are required")
    fit, ridged, error = cohort._propensity
    if ridged:
        _warn_ridge()
    if error is not None:
        # a fresh exception each call, so the kept one holds no traceback
        raise ConvergenceError(*error.args)
    return fit


def _fit_full_sample(cohort: Cohort):
    """(PropensityFit or None, ridged, ConvergenceError or None) of the
    full sample, the `_fit_counts` call with every count 1; read it from
    `Cohort._propensity`, which keeps it."""
    xt, gamma, probs, loglik, iterations, gnorm, errors, ridged = _fit_counts(
        cohort, np.ones((1, cohort.n))
    )
    if errors[0] is not None:
        return None, bool(ridged[0]), errors[0]
    fit = PropensityFit(
        gamma=_readonly(gamma[0]),
        probs=_readonly(probs[0]),
        design=_readonly(xt),
        loglik=float(loglik[0]),
        iterations=int(iterations[0]),
        score_norm=float(gnorm[0]),
        ridged=bool(ridged[0]),
    )
    return fit, fit.ridged, None


# design rows per product of the information blocks; bounds the (rows,
# (p+1)^2) array of their outer products
_CHUNK = 1 << 14


def _information(ce, e, xt):
    """Information matrices of a stack of fits, shape (m, J(p+1), J(p+1)).

    ce (m, J, n) holds the count-weighted probabilities of groups 1..J and
    e (m, J, n) the probabilities.  Block (a, b) of fit k is
    sum_i ce[k, a, i] (1{a=b} - e[k, b, i]) x_i x_i', in the gamma.ravel()
    parameter order: per chunk of `_CHUNK` units, one product of the
    coefficients of all blocks of all fits with the outer products of the
    design rows.  The chunk's coefficient and outer-product arrays are
    allocated once and refilled.
    """
    m, j, n = e.shape
    d = xt.shape[1]
    diag = np.arange(j)
    blocks = np.zeros((m * j * j, d * d))
    width = min(n, _CHUNK)
    coefs_buf = np.empty(m * j * j * width)
    xx_buf = np.empty(width * d * d)
    for start in range(0, n, _CHUNK):
        rows = slice(start, start + _CHUNK)
        x = xt[rows]
        k = x.shape[0]
        coefs = coefs_buf[: m * j * j * k].reshape(m, j, j, k)
        np.multiply(ce[:, :, None, rows], e[:, None, :, rows], out=coefs)
        np.negative(coefs, out=coefs)
        coefs[:, diag, diag] += ce[:, :, rows]
        xx = xx_buf[: k * d * d].reshape(k, d, d)
        np.multiply(x[:, :, None], x[:, None], out=xx)
        blocks += coefs.reshape(m * j * j, k) @ xx.reshape(k, d * d)
    return blocks.reshape(m, j, j, d, d).transpose(0, 1, 3, 2, 4).reshape(m, j * d, j * d)


def _count_quantities(theta, xt, onehot, counts):
    """Log-likelihood, score, information and probabilities of a stack of
    multinomial-logit fits, each weighting the units by one row of
    `counts` (frequency weights).

    theta (m, J(p+1)), counts (m, n) and onehot (J, n).  The
    probabilities come back as (m, J+1, n).  The logits become the
    probabilities in place, so while the information is summed the only
    (m, J, n) arrays held are the probabilities and their count-weighted
    copy.
    """
    m = theta.shape[0]
    n, d = xt.shape
    j = onehot.shape[0]
    probs = np.zeros((m, j + 1, n))
    np.matmul(theta.reshape(m, j, d), xt.T, out=probs[:, 1:])
    loglik = (onehot * probs[:, 1:]).sum(axis=1)
    top, total = _softmax_groups(probs)
    np.log(total, out=total)
    total += top
    loglik -= total
    loglik *= counts
    loglik = loglik.sum(axis=1)
    del top, total
    ce = counts[:, None] * probs[:, 1:]
    # numpy lays this difference out after its operands, and the layout
    # picks the BLAS routine of the product and so its last bits: formed
    # in place, the residual changes them at some shapes
    score = ((counts[:, None] * onehot - ce) @ xt).reshape(m, j * d)
    return loglik, score, _information(ce, probs[:, 1:], xt), probs


def _fit_counts(cohort: Cohort, counts, start=None):
    """Multinomial-logit fits of the cohort, one per row of `counts` (B, n)
    of frequency weights, with the rules of `fit_multinomial_logit`.
    Every row's Newton starts at `start` (J, p+1), or at 0 when it is None.

    Returns (design (n, p+1), gamma (B, J, p+1), probs (B, n, J+1),
    loglik (B,), iterations (B,), gnorm (B,), errors, ridged (B,)): errors
    holds the ConvergenceError that stopped each row, or None.
    """
    j = cohort.n_treatments
    xt = _design(cohort.covariates)
    d = xt.shape[1]
    onehot = cohort._arm_onehot[:, 1:].T
    ridged = np.zeros(len(counts), dtype=bool)

    def regularize(info, rows):
        info, bad = _ridge(info)
        ridged[rows[bad]] = True
        return info

    theta, values, iterations, gnorm, errors = _damped_newton(
        lambda th, rows: _count_quantities(th, xt, onehot, counts[rows]),
        np.broadcast_to(0.0 if start is None else np.ravel(start), (len(counts), j * d)),
        1e-8,
        _PROPENSITY_LIMITS,
        regularize,
    )
    gamma = theta.reshape(len(counts), j, d)
    probs = values[3].transpose(0, 2, 1)
    return xt, gamma, probs, values[0], iterations, gnorm, errors, ridged


def multinomial_information(probs: np.ndarray, design: np.ndarray) -> np.ndarray:
    """Fisher information of the multinomial logit, shape (J(p+1), J(p+1)).

    Block (a, b) is design' diag(e_a (1{a=b} - e_b)) design in the
    gamma.ravel() parameter order.
    """
    e = np.asarray(probs, dtype=np.float64)[:, 1:].T[None]
    return _information(e, e, np.asarray(design, dtype=np.float64))[0]


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

    Only att and ow read `probs`, shape n + (J+1,); a zero propensity gives
    the ow tilt 0.  The caller has checked the scheme and the att target.
    """
    if scheme == "ipw":
        return np.ones(n)
    if scheme == "att":
        return probs[..., int(att_target)].copy()
    with np.errstate(divide="ignore"):
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
    if scheme == "ow" and np.any(probs == 0.0):
        raise ValidationError("overlap weights need all propensities positive")
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
    """`compute_weights` for a stack of softmaxed fits, probs (B, n, J+1),
    whose units i count only where drawn[b, i]; returns (weights (B, n),
    failed (B,)).  A row fails where a drawn unit's weight is not finite
    and positive, as `compute_weights` fails on the drawn units (its range
    and row-sum checks pass every softmaxed row).  Undrawn units, whose
    propensities may be 0, get weight 0.  The caller has checked the
    scheme and the att target.
    """
    e_assigned = probs[:, np.arange(probs.shape[1]), treatment]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        weights = _tilt(scheme, drawn.shape, probs, att_target) / e_assigned
    weights = np.where(drawn, weights, 0.0)
    failed = np.any(drawn & ~((weights > 0.0) & np.isfinite(weights)), axis=1)
    return weights, failed


def _unit_weights(cohort: Cohort) -> WeightSet:
    """UNIT weights without a propensity model: every weight 1 and the
    tilt 1/(J+1), as `compute_weights` gives them on uniform propensities."""
    tilt = np.full(cohort.n, 1.0 / (cohort.n_treatments + 1))
    return WeightSet("unit", _readonly(np.ones(cohort.n)), _readonly(tilt))


def _check_fit_rows(cohort: Cohort, fit: PropensityFit | None) -> None:
    """Reject a propensity fit whose rows are not the cohort's units; None
    (no propensity model) passes."""
    if fit is not None and (fit.probs.shape[0], fit.design.shape[0]) != (cohort.n,) * 2:
        raise ValidationError("the propensity fit must align with the cohort")


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
    above even perfectly uniform propensities would be removed.  A fit
    whose rows are not the cohort's units raises ValidationError.
    """
    g = cohort.n_treatments + 1
    if not (0.0 <= threshold < 1.0 / g):
        raise ValidationError(
            f"trim threshold must lie in [0, {1.0 / g:.4g}) for {g} groups"
        )
    _check_fit_rows(cohort, fit)
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
