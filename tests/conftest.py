"""Shared generators and brute-force references for the test suite."""

import numpy as np

from wcox import validate_cohort


def random_survival_cohort(rng, n=50, j=2, p=3, censor_scale=2.0):
    """Random right-censored cohort with events in every group.

    Treatment depends on the covariates (logistic tilts) so propensity
    fits are non-trivial; resamples until each group has >= 2 events.
    """
    rng = np.random.default_rng(rng)
    for _ in range(200):
        x = rng.normal(size=(n, p)) if p else np.empty((n, 0))
        logits = np.zeros((n, j + 1))
        if p:
            coefs = rng.normal(scale=0.6, size=(j, p))
            logits[:, 1:] = x @ coefs.T
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        z = (rng.random(n)[:, None] > np.cumsum(probs, axis=1)).sum(axis=1)
        lp = 0.4 * z.astype(float) + (x @ rng.normal(scale=0.3, size=p) if p else 0.0)
        t = rng.exponential(1.0, n) / np.exp(lp)
        c = rng.exponential(censor_scale, n)
        y = np.minimum(t, c)
        d = (t <= c).astype(int)
        ok = all(
            np.sum((z == g)) >= 3 and np.sum(d[z == g]) >= 2 for g in range(j + 1)
        )
        if ok:
            return validate_cohort(y, d, z, x if p else None)
    raise RuntimeError("could not draw a usable random cohort")


def collinear_cohort():
    """Binary cohort with covariates (x1, 2 x1): the propensity information
    is singular, so every propensity fit on it takes the ridge fallback."""
    rng = np.random.default_rng(3)
    n = 120
    x1 = rng.normal(size=n)
    z = (rng.random(n) < 1.0 / (1.0 + np.exp(-0.8 * x1))).astype(int)
    return validate_cohort(
        np.ones(n), np.ones(n, dtype=int), z, np.column_stack([x1, 2.0 * x1])
    )


def brute_partial_loglik(time, event, treatment, weights, tau):
    """Direct O(n^2) weighted partial log-likelihood with Breslow ties.

    Risk set of event i is {l : Y_l >= Y_i}; eta is the treatment
    indicator contribution only (marginal structural model).
    """
    tau_full = np.concatenate([[0.0], np.asarray(tau, dtype=float)])
    eta = tau_full[np.asarray(treatment)]
    ll = 0.0
    for i in range(len(time)):
        if event[i] == 1:
            rs = time >= time[i]
            ll += weights[i] * (
                eta[i] - np.log(np.sum(weights[rs] * np.exp(eta[rs])))
            )
    return ll


def brute_partial_score(time, event, treatment, weights, tau, j):
    """Direct evaluation of the weighted score sum_i w_i d_i (D_i - Dbar)."""
    tau_full = np.concatenate([[0.0], np.asarray(tau, dtype=float)])
    treatment = np.asarray(treatment)
    eta = tau_full[treatment]
    d_ind = np.zeros((len(time), j))
    pos = treatment >= 1
    d_ind[np.flatnonzero(pos), treatment[pos] - 1] = 1.0
    score = np.zeros(j)
    for i in range(len(time)):
        if event[i] == 1:
            rs = time >= time[i]
            r = weights[rs] * np.exp(eta[rs])
            dbar = (r @ d_ind[rs]) / r.sum()
            score += weights[i] * (d_ind[i] - dbar)
    return score


def stacked_bread_meat(pieces):
    """Joint bread A and meat B of the stacked system (tau first, then
    gamma), assembled from the `stacked_pieces` blocks; a_gt = 0."""
    j = pieces.a_tt.shape[0]
    k = pieces.a_gg.shape[0]
    a = np.zeros((j + k, j + k))
    a[:j, :j] = pieces.a_tt
    a[:j, j:] = pieces.a_tg
    a[j:, j:] = pieces.a_gg
    phi = np.hstack([pieces.psi_c, pieces.pi])
    return a, phi.T @ phi / phi.shape[0]


def python_km_reference(time, event, weight):
    """Sequential product-limit reference with ascending-time accumulation."""
    order = sorted(range(len(time)), key=lambda i: time[i])
    prefix_w = [0.0]
    prefix_wd = [0.0]
    prefix_wc = [0.0]
    for i in order:
        prefix_w.append(prefix_w[-1] + weight[i])
        prefix_wd.append(prefix_wd[-1] + weight[i] * event[i])
        prefix_wc.append(prefix_wc[-1] + weight[i] * (1.0 - event[i]))
    times, at_risk, events, survivors = [], [], [], []
    k = 0
    while k < len(order):
        m = k
        while m < len(order) and time[order[m]] == time[order[k]]:
            m += 1
        d = prefix_wd[m] - prefix_wd[k]
        if d > 0.0:
            times.append(time[order[k]])
            events.append(d)
            at_risk.append(prefix_w[-1] - prefix_w[k])
            # later units plus the censored units of this block
            survivors.append(
                (prefix_w[-1] - prefix_w[m]) + (prefix_wc[m] - prefix_wc[k])
            )
        k = m
    surv = [1.0]
    for s, r in zip(survivors, at_risk):
        surv.append(surv[-1] * (s / r))
    return (
        [0.0] + times,
        surv,
        [0.0] + events,
        [prefix_w[-1]] + at_risk,
    )
