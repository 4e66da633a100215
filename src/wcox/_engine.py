"""Weighted Cox partial-likelihood engine shared by the fitting routines.

Conventions, used everywhere: risk set at an event time Y_i is
{l : Y_l >= Y_i} (ties included), tied event times are handled Breslow
style, and all sums accumulate in ascending-time order with at-risk
totals accumulated from the latest tie block backward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import ConvergenceError, ValidationError

__all__ = ["CoxProblem", "CoxFitCore", "fit_cox"]


_REVCUM_BLOCK = 4096


def _revcum(x: np.ndarray) -> np.ndarray:
    """revcum(x)[k] = x[k] + x[k+1] + ... accumulated from the end.

    Long inputs use a two-level blocked accumulation: per-prefix rounding
    error is then O(block + n/block) ulps instead of O(n), which matters
    for the multi-million-record stacked fits.
    """
    n = x.shape[0]
    if n <= _REVCUM_BLOCK:
        return np.cumsum(x[::-1])[::-1]
    b = _REVCUM_BLOCK
    nb = -(-n // b)
    rev = np.zeros(nb * b, dtype=np.float64)
    rev[:n] = x[::-1]
    within = np.cumsum(rev.reshape(nb, b), axis=1)
    offsets = np.concatenate([[0.0], np.cumsum(within[:-1, -1])])
    return (within + offsets[:, None]).ravel()[:n][::-1]


def _cumsum(x: np.ndarray) -> np.ndarray:
    """Forward cumulative sum with the blocked accumulation of `_revcum`."""
    return _revcum(x[::-1])[::-1]


class CoxProblem:
    """Preprocessed weighted Cox problem: sorted arrays and tie blocks."""

    def __init__(self, time, event, design, weights):
        time = np.asarray(time, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
        design = np.asarray(design, dtype=np.float64)
        if design.ndim != 2 or design.shape[0] != time.shape[0]:
            raise ValidationError("design matrix rows must match the cohort size")
        if weights.shape != time.shape:
            raise ValidationError("weights must be one per unit")
        if np.any(weights < 0) or not np.all(np.isfinite(weights)):
            raise ValidationError("weights must be finite and nonnegative")
        order = np.argsort(time, kind="stable")
        self.order = order
        self.t = time[order]
        self.d = np.asarray(event)[order].astype(bool)
        self.Q = design[order]
        self.w = weights[order]
        self.q = design.shape[1]
        self.n = time.shape[0]
        # first sorted position of each tie block: risk set of a record at
        # position k is positions starts[k]..n-1
        self.starts = np.searchsorted(self.t, self.t, side="left")
        ev = np.flatnonzero(self.d & (self.w > 0))
        self.ev = ev
        self.ev_starts = self.starts[ev]
        self.w_ev = self.w[ev]
        self.n_events = int(np.count_nonzero(self.d))

    def _risk_sums(self, eta):
        """r = w exp(eta), and at each weighted event the at-risk total s0
        and the at-risk mean design row dbar, shape (events, q)."""
        r = self.w * np.exp(eta)
        s0 = _revcum(r)[self.ev_starts]
        dbar = np.empty((self.ev.size, self.q))
        for a in range(self.q):
            dbar[:, a] = _revcum(r * self.Q[:, a])[self.ev_starts] / s0
        return r, s0, dbar

    def _information(self, r, s0, dbar):
        info = np.empty((self.q, self.q))
        for a in range(self.q):
            ra = r * self.Q[:, a]
            for b in range(a, self.q):
                s2ab = _revcum(ra * self.Q[:, b])[self.ev_starts] / s0
                info[a, b] = info[b, a] = float(
                    np.sum(self.w_ev * (s2ab - dbar[:, a] * dbar[:, b]))
                )
        return info

    def quantities(self, beta):
        """Weighted partial log-likelihood, score, and information at beta.

        The log-likelihood uses the unnormalized risk-set totals
        sum_{l in R} w_l exp(eta_l).
        """
        beta = np.asarray(beta, dtype=np.float64)
        eta = self.Q @ beta
        # shift before exponentiating; all downstream uses are ratio- or
        # log-consistent so the shift cancels exactly in score and info
        shift = np.max(eta) if eta.size else 0.0
        if not np.isfinite(shift):
            return -np.inf, np.full(self.q, np.nan), None
        # s0 can underflow to 0 for wild step-halving candidates; the
        # resulting non-finite loglik is rejected by the caller
        with np.errstate(divide="ignore", invalid="ignore"):
            r, s0, dbar = self._risk_sums(eta - shift)
            loglik = float(np.sum(self.w_ev * (eta[self.ev] - shift - np.log(s0))))
            score = self.w_ev @ (self.Q[self.ev] - dbar)
            info = self._information(r, s0, dbar)
        return loglik, score, info

    def residuals(self, beta):
        """Lin-Wei score residuals and the information at beta.

        Returns (psi, psi_c, info); psi and psi_c are (n, q) in input row
        order.  psi_i = w_i d_i (Q_i - Dbar(Y_i)) sums to the score, and
        psi_c subtracts the risk-set term
        w_i exp(eta_i) sum_{events e: Y_e <= Y_i} (w_e / S0(Y_e)) (Q_i - Dbar(Y_e)),
        which sums to zero over the units.
        """
        beta = np.asarray(beta, dtype=np.float64)
        eta = self.Q @ beta
        r, s0, dbar = self._risk_sums(eta - np.max(eta))
        psi = np.zeros((self.n, self.q))
        psi[self.ev] = self.w_ev[:, None] * (self.Q[self.ev] - dbar)
        # cumulative event terms over ascending event times; record k sees
        # the events up to the end of its tie block
        q_ev = self.w_ev / s0
        cum_q = np.zeros(self.ev.size + 1)
        cum_q[1:] = _cumsum(q_ev)
        cum_qd = np.zeros((self.ev.size + 1, self.q))
        for a in range(self.q):
            cum_qd[1:, a] = _cumsum(q_ev * dbar[:, a])
        upto = np.searchsorted(self.t[self.ev], self.t, side="right")
        psi_c = psi - r[:, None] * (self.Q * cum_q[upto][:, None] - cum_qd[upto])
        out, out_c = np.empty_like(psi), np.empty_like(psi_c)
        out[self.order] = psi
        out_c[self.order] = psi_c
        return out, out_c, self._information(r, s0, dbar)


@dataclass(frozen=True)
class CoxFitCore:
    """Converged Newton solution on the raw (unnormalized) weight scale."""

    beta: np.ndarray
    loglik: float
    score: np.ndarray
    info: np.ndarray
    iterations: int
    score_norm: float  # gradient inf-norm on the mean-one weight scale


@dataclass(frozen=True)
class _NewtonLimits:
    """Iteration limits of one damped-Newton caller and its ConvergenceError
    messages, which may use the fields {bound}, {max_iter} and {gnorm}."""

    max_iter: int
    bound: float  # largest |coefficient| allowed while the gradient is above tol
    singular: str
    no_ascent: str
    diverged: str
    stalled: str

    def error(self, message: str, gnorm: float = np.nan) -> ConvergenceError:
        return ConvergenceError(
            message.format(bound=self.bound, max_iter=self.max_iter, gnorm=gnorm)
        )


_MAX_HALVINGS = 30


def _damped_newton(evaluate, x, tol, limits, regularize=None):
    """Maximize a concave log-likelihood by Newton ascent with step-halving.

    `evaluate(x)` returns (loglik, score, info, ...) with info the negative
    Hessian; a step is accepted once the log-likelihood is finite and no
    lower than the current one (to a 1e-10 relative slack).  `regularize`,
    when given, maps info to the matrix actually solved.  Returns
    (x, values, iterations, gnorm), with values the full tuple of
    `evaluate` at the solution and gnorm its gradient inf-norm (<= tol).
    """
    values = evaluate(x)
    iterations = 0
    gnorm = float(np.max(np.abs(values[1])))
    for _ in range(limits.max_iter):
        if gnorm <= tol:
            break
        loglik, score, info = values[:3]
        if regularize is not None:
            info = regularize(info)
        try:
            step = np.linalg.solve(info, score)
        except np.linalg.LinAlgError:
            raise limits.error(limits.singular) from None
        for _h in range(_MAX_HALVINGS + 1):
            cand = x + step
            new = evaluate(cand)
            if np.isfinite(new[0]) and new[0] >= loglik - 1e-10 * (1.0 + abs(loglik)):
                break
            step = 0.5 * step
        else:
            raise limits.error(limits.no_ascent)
        x, values = cand, new
        iterations += 1
        gnorm = float(np.max(np.abs(values[1])))
        if np.max(np.abs(x)) > limits.bound and gnorm > tol:
            raise limits.error(limits.diverged)
    if not gnorm <= tol:
        raise limits.error(limits.stalled, gnorm)
    return x, values, iterations, gnorm


_COX_LIMITS = _NewtonLimits(
    max_iter=50,
    bound=20.0,
    singular="singular partial-likelihood information matrix",
    no_ascent="step-halving failed to improve the partial likelihood",
    diverged=(
        "coefficients diverged beyond |beta| > {bound:g}: monotone likelihood "
        "(separation in the survival ordering)"
    ),
    stalled=(
        "no convergence within {max_iter} Newton iterations "
        "(gradient inf-norm {gnorm:.3e})"
    ),
)


def fit_cox(time, event, design, weights) -> CoxFitCore:
    """Maximize the weighted Cox partial likelihood by damped Newton.

    Newton from beta = 0 with step-halving, to a gradient inf-norm of
    1e-9 within 50 iterations.  Weights are rescaled to mean one
    internally, which keeps the gradient tolerance meaningful across
    weight scales and makes the iterate sequence invariant to positive
    rescaling of the weights; reported loglik/score/info are transformed
    back to the raw weight scale.

    Raises
    ------
    ConvergenceError
        On a singular information matrix, failed step-halving, iteration
        exhaustion, or divergence (any |beta| beyond 20 while the gradient
        is still above tolerance), which indicates a monotone likelihood /
        separation in the survival ordering.
    """
    weights = np.asarray(weights, dtype=np.float64)
    wbar = float(weights.mean()) if weights.size else 0.0
    if not np.isfinite(wbar) or wbar <= 0.0:
        raise ValidationError("weights must have a positive, finite mean")
    prob = CoxProblem(time, event, design, weights / wbar)
    if prob.n_events == 0:
        raise ValidationError("no observed events in the data")
    if prob.ev.size == 0:
        raise ValidationError("all events carry zero weight")

    # attainable float64 accuracy of the summed score scales with the
    # weighted event mass; below this floor Newton only chases rounding
    # noise (only reachable for cohorts in the millions of records)
    w_ev_total = float(np.sum(prob.w_ev))
    tol = max(1e-9, 1024.0 * np.finfo(np.float64).eps * w_ev_total)
    beta, (loglik, score, info), iterations, gnorm = _damped_newton(
        prob.quantities, np.zeros(prob.q), tol, _COX_LIMITS
    )

    # exact raw-scale transforms: score and info are degree-1 homogeneous
    # in the weights; the loglik picks up -log(wbar) per weighted event
    return CoxFitCore(
        beta=beta,
        loglik=wbar * (loglik - np.log(wbar) * w_ev_total),
        score=wbar * score,
        info=wbar * info,
        iterations=iterations,
        score_norm=gnorm,
    )
