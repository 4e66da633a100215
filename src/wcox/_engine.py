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


def _one_row(values):
    """`evaluate` values of a single problem with the leading row axis that
    `_damped_newton` expects."""
    return [np.asarray(v)[None] for v in values]


def _solve(info, score):
    """Newton steps info^-1 score for a stack of problems, and a mask of the
    rows whose information matrix is singular (their step is left at 0)."""
    try:
        return np.linalg.solve(info, score[..., None])[..., 0], np.zeros(len(score), bool)
    except np.linalg.LinAlgError:
        pass
    step = np.zeros_like(score)
    singular = np.zeros(len(score), bool)
    for r in range(len(score)):
        try:
            step[r] = np.linalg.solve(info[r], score[r])
        except np.linalg.LinAlgError:
            singular[r] = True
    return step, singular


def _damped_newton(evaluate, x, tol, limits, regularize=None):
    """Maximize concave log-likelihoods by Newton ascent with step-halving,
    one problem per row of x, shape (B, k).

    `evaluate(x_rows, rows)` returns (loglik, score, info, ...) of problems
    `rows` at the points x_rows, each value with a leading axis over those
    rows and info the negative Hessian.  Every row keeps its own
    step-halving, limits and convergence state, and `evaluate` sees only
    the rows still iterating.  A step is accepted once the row's
    log-likelihood is finite and no lower than its current one (to a 1e-10
    relative slack).  `regularize(info, rows)`, when given, maps the
    information of those rows to the matrices actually solved.  `tol` is
    one gradient tolerance, or one per row.

    Returns (x, values, iterations, gnorm, errors): values is the tuple of
    `evaluate` at each row's last accepted point, gnorm the gradient
    inf-norms (<= tol on success) and errors one ConvergenceError or None
    per row.  A row that fails stops iterating.
    """
    x = np.array(x, dtype=np.float64)
    b = x.shape[0]
    tol = np.broadcast_to(np.asarray(tol, dtype=np.float64), (b,))
    values = [np.array(v) for v in evaluate(x, np.arange(b))]
    iterations = np.zeros(b, dtype=np.int64)
    gnorm = np.max(np.abs(values[1]), axis=1)
    errors = [None] * b

    def fail(rows, message):
        for r in rows:
            errors[r] = limits.error(message, gnorm[r])

    live = np.flatnonzero(~(gnorm <= tol))
    for _ in range(limits.max_iter):
        if live.size == 0:
            break
        info = values[2][live]
        if regularize is not None:
            info = regularize(info, live)
        step, singular = _solve(info, values[1][live])
        fail(live[singular], limits.singular)
        live, step = live[~singular], step[~singular]
        loglik = values[0][live]
        floor = loglik - 1e-10 * (1.0 + np.abs(loglik))
        pending = np.arange(live.size)
        for _h in range(_MAX_HALVINGS + 1):
            if pending.size == 0:
                break
            rows = live[pending]
            cand = x[rows] + step[pending]
            new = evaluate(cand, rows)
            ok = np.isfinite(new[0]) & (new[0] >= floor[pending])
            if ok.any():
                x[rows[ok]] = cand[ok]
                for store, value in zip(values, new):
                    store[rows[ok]] = value[ok]
            pending = pending[~ok]
            step[pending] = 0.5 * step[pending]
        fail(live[pending], limits.no_ascent)
        moved = np.delete(live, pending)
        iterations[moved] += 1
        gnorm[moved] = np.max(np.abs(values[1][moved]), axis=1)
        diverged = (np.max(np.abs(x[moved]), axis=1) > limits.bound) & (
            gnorm[moved] > tol[moved]
        )
        fail(moved[diverged], limits.diverged)
        live = moved[~diverged & ~(gnorm[moved] <= tol[moved])]
    fail(live, limits.stalled)
    return x, values, iterations, gnorm, errors


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


def _risk_tables(time, event, arm, weights, arms: int):
    """Event and at-risk tables of the indicator design, one per row of
    `weights` (B, n).

    At each distinct event time t_k, in ascending order, and arm z:
    F[b, k, z] is the weight of arm z's events at t_k and R[b, k, z] the
    weight of arm z still at risk (time >= t_k).  Returns (F, R), each of
    shape (B, T, arms).
    """
    order = np.argsort(time, kind="stable")
    t = time[order]
    d = np.asarray(event)[order].astype(bool)
    w = weights[:, order, None] * (arm[order, None] == np.arange(arms))
    times, first = np.unique(t[d], return_index=True)
    f = np.add.reduceat(w[:, d], first, axis=1)
    r = np.cumsum(w[:, ::-1], axis=1)[:, ::-1]
    return f, r[:, np.searchsorted(t, times, side="left")]


def _table_quantities(tau, f_total, f_dot, r):
    """Breslow log-likelihood, score and information of the indicator
    design at tau (m, J), from the tables of `_risk_tables`: f_total (m,
    J+1) the events per arm, f_dot (m, T) the events per time and r the
    at-risk table."""
    full = np.concatenate([np.zeros((tau.shape[0], 1)), tau], axis=1)
    full = full - np.max(full, axis=1, keepdims=True)
    s = r * np.exp(full)[:, None, :]
    # a time without events of the row may have no weight at risk, and a
    # wild step-halving candidate may underflow s0 to 0, giving a
    # non-finite loglik that the driver rejects
    s0 = np.where(f_dot > 0.0, s.sum(axis=2), 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        loglik = np.sum(f_total * full, axis=1) - np.sum(f_dot * np.log(s0), axis=1)
        dbar = s[:, :, 1:] / s0[:, :, None]
    weighted = f_dot[:, :, None] * dbar
    mean = weighted.sum(axis=1)
    info = mean[:, :, None] * np.eye(tau.shape[1]) - weighted.transpose(0, 2, 1) @ dbar
    return loglik, f_total[:, 1:] - mean, info


def _fit_risk_tables(f, r):
    """`fit_cox` of the indicator design on the tables of `_risk_tables`,
    one fit per leading row, with its rules: the weights must have mean
    one, the tolerance is max(1e-9, 1024 eps (weighted events)), at most
    50 iterations and |tau| <= 20.  Returns (tau (B, J), failed (B,))."""
    f_total = f.sum(axis=1)
    f_dot = f.sum(axis=2)
    tol = np.maximum(1e-9, 1024.0 * np.finfo(np.float64).eps * f_total.sum(axis=1))
    tau, _, _, _, errors = _damped_newton(
        lambda x, rows: _table_quantities(x, f_total[rows], f_dot[rows], r[rows]),
        np.zeros((f.shape[0], f.shape[2] - 1)),
        tol,
        _COX_LIMITS,
    )
    return tau, np.array([e is not None for e in errors], dtype=bool)


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
    beta, values, iterations, gnorm, errors = _damped_newton(
        lambda b, _: _one_row(prob.quantities(b[0])),
        np.zeros((1, prob.q)),
        tol,
        _COX_LIMITS,
    )
    if errors[0] is not None:
        raise errors[0]
    loglik, score, info = (float(values[0][0]), values[1][0], values[2][0])

    # exact raw-scale transforms: score and info are degree-1 homogeneous
    # in the weights; the loglik picks up -log(wbar) per weighted event
    return CoxFitCore(
        beta=beta[0],
        loglik=wbar * (loglik - np.log(wbar) * w_ev_total),
        score=wbar * score,
        info=wbar * info,
        iterations=int(iterations[0]),
        score_norm=float(gnorm[0]),
    )
