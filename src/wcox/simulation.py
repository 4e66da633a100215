"""Monte Carlo machinery: data-generating processes for a three-group and a
2x2 factorial design, intercept and censoring calibration, large-sample
computation of the weighted marginal hazard-ratio estimands, and a study
harness that compares weighted and unweighted estimators.

Covariates: (X1, X2, X3) are standard normal with pairwise correlation
0.5; (X4, X5, X6) are independent Bernoulli(0.5) - 0.5.  Treatment is
assigned by a multinomial logit whose linear predictors use the unit
vector b (and c for the factorial fourth cell) scaled by a confounding
strength psi.  Potential event times are Weibull proportional hazards
with inverse-transform sampling; censoring is exponential.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

from ._engine import fit_cox
from .data_model import (
    Cohort,
    ConvergenceError,
    StudyError,
    ValidationError,
    _indicators,
    _readonly,
    factorial_treatment_labels,
)
from .marginal_cox import bootstrap_covariance, fit_mhr, sandwich_covariance
from .propensity import _softmax, _tilt, compute_weights, fit_multinomial_logit

__all__ = [
    "B_COEF",
    "C_COEF",
    "BETA_OUTCOME",
    "THETA_MULTI3",
    "THETA_FACTORIAL",
    "WEIBULL_SHAPE",
    "WEIBULL_SCALE",
    "ScenarioConfig",
    "EstimandResult",
    "StudyReport",
    "gen_covariates",
    "true_propensities",
    "gen_treatment",
    "gen_outcomes",
    "make_replicate",
    "calibrate_intercepts",
    "treatment_prevalences",
    "calibrate_censoring",
    "empirical_event_rates",
    "true_estimand",
    "run_study",
]


def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


# confounder loadings (unit length) and outcome-model coefficients
B_COEF = _unit((0.6, -0.4, 0.3, 0.2, -0.1, 0.15))
C_COEF = _unit((0.4, 0.2, -0.3, 0.1, 0.1, -0.2))
BETA_OUTCOME = np.array([1.2, -0.9, 0.8, 0.6, -0.3, 0.4])
THETA_MULTI3 = np.array([0.35, -0.20])
THETA_FACTORIAL = np.array([0.35, -0.20, 0.15])
WEIBULL_SHAPE = 1.2
WEIBULL_SCALE = 1.0
_NORMAL_EQUICORR = 0.5
_LOADINGS = {"b": B_COEF, "c": C_COEF}


@dataclass(frozen=True)
class _Design:
    """A simulation setting: group k > 0 has the assignment logit
    alpha[intercepts[k-1]] + psi * sign * x'v with (sign, v) = loadings[k-1]."""

    labels: tuple[str, ...]
    theta: np.ndarray
    loadings: tuple[tuple[float, str], ...]
    intercepts: tuple[int, ...]

    def scaled_loadings(self, x: np.ndarray, psi: float) -> np.ndarray:
        """psi * sign * x'v, (n, groups - 1): one matrix-vector product per v,
        signed afterwards, so each column is +-psi v'x bit for bit (a
        matrix-matrix product may sum in another order)."""
        keys = {key for _, key in self.loadings}
        u = {key: psi * (x @ _LOADINGS[key]) for key in keys}
        return np.column_stack([sign * u[key] for sign, key in self.loadings])


_DESIGNS = {
    "multi3": _Design(("0", "1", "2"), THETA_MULTI3, ((1.0, "b"), (-1.0, "b")), (0, 0)),
    "factorial": _Design(factorial_treatment_labels(), THETA_FACTORIAL,
                         ((1.0, "b"), (-1.0, "b"), (1.0, "c")), (0, 1, 2)),
}

# calibration Monte Carlo settings; the fixed seeds make calibration a
# deterministic function of (setting, psi, target)
_CAL_N_MC = 1_000_000
_CAL_SEED_INTERCEPTS = 202401
_CAL_SEED_CENSORING = 202402
_CAL_INTERCEPT_TOL = 0.002
_CAL_INTERCEPT_DAMPING = 0.8
_CAL_CENSORING_TOL = 0.005
_CAL_MAX_ITER = 200


def _design(setting) -> _Design:
    try:
        return _DESIGNS[setting]
    except (KeyError, TypeError):
        raise ValidationError(
            f"unknown setting {setting!r}; expected one of {tuple(_DESIGNS)}"
        ) from None


def gen_covariates(n: int, rng) -> np.ndarray:
    """Draw the six baseline covariates, shape (n, 6).

    Columns 0-2: equicorrelated (rho = 0.5) standard normals via a
    Cholesky factor; columns 3-5: independent Bernoulli(0.5) - 0.5.
    """
    rng = np.random.default_rng(rng)
    cov = np.full((3, 3), _NORMAL_EQUICORR)
    np.fill_diagonal(cov, 1.0)
    chol = np.linalg.cholesky(cov)
    x_norm = rng.standard_normal((n, 3)) @ chol.T
    x_bin = rng.integers(0, 2, size=(n, 3)).astype(np.float64) - 0.5
    return np.hstack([x_norm, x_bin])


def true_propensities(setting: str, x: np.ndarray, psi: float, alpha) -> np.ndarray:
    """Assignment probabilities of the data-generating process, (n, groups)."""
    design = _design(setting)
    a = np.asarray(alpha, dtype=np.float64).reshape(-1)
    want = max(design.intercepts) + 1
    if a.size != want:
        raise ValidationError(f"alpha must hold {want} intercept(s), got {a.size}")
    return _softmax(a[list(design.intercepts)] + design.scaled_loadings(x, psi))


def gen_treatment(setting: str, x: np.ndarray, psi: float, alpha, rng) -> np.ndarray:
    """Draw groups from the true propensities: logits (0, a + psi b'x,
    a - psi b'x) for multi3, (0, a0 + psi b'x, a1 - psi b'x, a2 + psi c'x)
    for factorial, whose groups follow the (z1, z2) cell coding 0..3."""
    rng = np.random.default_rng(rng)
    cdf = np.cumsum(true_propensities(setting, x, psi, alpha), axis=1)
    u = rng.random(x.shape[0])
    return (u[:, None] > cdf).sum(axis=1).astype(np.int64)


def gen_outcomes(
    x: np.ndarray,
    theta,
    beta=BETA_OUTCOME,
    shape: float = WEIBULL_SHAPE,
    scale: float = WEIBULL_SCALE,
    rng=None,
) -> np.ndarray:
    """Latent potential event times for every arm, shape (n, len(theta)+1).

    Weibull proportional hazards by inverse transform:
    T(z) = scale * (-log U / exp(theta_z + beta'x))^(1/shape) with
    theta_0 = 0 for the reference arm and independent U per arm.
    """
    rng = np.random.default_rng(rng)
    theta_full = np.concatenate([[0.0], np.asarray(theta, dtype=np.float64)])
    lp = x @ np.asarray(beta, dtype=np.float64)
    u = rng.random((x.shape[0], theta_full.size))
    return scale * (-np.log(u) / np.exp(theta_full[None, :] + lp[:, None])) ** (
        1.0 / shape
    )


def _draw_assigned(setting: str, psi: float, alpha, n: int, rng):
    """Covariates, assignment and assigned potential time, drawn in that
    order from `rng`: the shared start of a replicate and of the censoring
    calibration sample."""
    x = gen_covariates(n, rng)
    z = gen_treatment(setting, x, psi, alpha, rng)
    t_all = gen_outcomes(x, _design(setting).theta, rng=rng)
    return x, z, t_all[np.arange(n), z]


def make_replicate(
    setting: str, psi: float, alpha, lambda_c: float, n: int, rng
) -> Cohort:
    """One observed-data replicate: draw X, Z, potential times, censoring.

    Draw order is fixed (covariates, assignment, outcomes, censoring) so a
    replicate is a pure function of the generator state.
    """
    design = _design(setting)
    rng = np.random.default_rng(rng)
    x, z, t_assigned = _draw_assigned(setting, psi, alpha, n, rng)
    c = rng.exponential(1.0, n) / lambda_c if lambda_c > 0 else np.full(n, np.inf)
    y = np.minimum(t_assigned, c)
    delta = (t_assigned <= c).astype(np.int64)
    return Cohort(
        time=_readonly(y),
        event=_readonly(delta),
        treatment=_readonly(z),
        covariates=_readonly(x),
        treatment_labels=design.labels,
    )


def treatment_prevalences(setting: str, psi: float, alpha, *, n_mc=_CAL_N_MC,
                          seed=_CAL_SEED_INTERCEPTS) -> np.ndarray:
    """Expected group shares E[e_j(X)] under the true assignment model."""
    x = gen_covariates(n_mc, np.random.default_rng(seed))
    return true_propensities(setting, x, psi, alpha).mean(axis=0)


def calibrate_intercepts(setting: str, psi: float):
    """Assignment intercepts hitting equal group shares.

    Targets are (1/3, 1/3, 1/3) for the three-group design (one shared
    intercept, returned as a float) and (1/4, ..., 1/4) for the factorial
    design (three intercepts).  Damped fixed point (damping 0.8) on the
    log prevalence mismatch, averaged over the groups that share an
    intercept, evaluated on one fixed sample of 1e6 covariate rows, until
    every group share is within 0.002 of its target (at most 200 steps).
    """
    design = _design(setting)
    if psi <= 0:
        raise ValidationError("psi must be positive")
    # only the projections enter the loop; dropping x keeps the peak memory
    # of calibration at that of calibrate_censoring
    x = gen_covariates(_CAL_N_MC, np.random.default_rng(_CAL_SEED_INTERCEPTS))
    scaled = design.scaled_loadings(x, psi)
    del x
    owner = np.asarray(design.intercepts)
    sharing = np.bincount(owner)
    target = 1.0 / len(design.labels)
    alpha = np.zeros(sharing.size)
    for _ in range(_CAL_MAX_ITER):
        prev = _softmax(alpha[owner] + scaled).mean(axis=0)
        if np.max(np.abs(prev - target)) <= _CAL_INTERCEPT_TOL:
            return float(alpha[0]) if alpha.size == 1 else alpha
        err = np.log(target / prev[1:])
        alpha = alpha + _CAL_INTERCEPT_DAMPING * (
            np.bincount(owner, weights=err) / sharing
        )
    raise ConvergenceError(
        f"intercept calibration did not converge within {_CAL_MAX_ITER} iterations"
    )


def calibrate_censoring(setting: str, psi: float, alpha, target: float) -> float:
    """Exponential censoring rate giving the target censored fraction.

    On 1e6 units drawn as `make_replicate` draws them, C = E / lambda_c
    with E ~ Exp(1) drawn once, so the censored fraction mean{E/T <
    lambda_c} is a monotone step function of lambda_c and bisection
    converges deterministically, to within 0.005 of the target.
    """
    _design(setting)
    if not (0.0 <= target < 1.0):
        raise ValidationError("target censoring must lie in [0, 1)")
    if target == 0.0:
        return 0.0
    rng = np.random.default_rng(_CAL_SEED_CENSORING)
    _, _, t_assigned = _draw_assigned(setting, psi, alpha, _CAL_N_MC, rng)
    ratio = rng.exponential(1.0, _CAL_N_MC) / t_assigned

    def frac(lam):
        return float(np.mean(ratio < lam))

    lo, hi = 0.0, 1.0
    for _ in range(60):
        if frac(hi) >= target:
            break
        hi *= 2.0
    else:
        raise ConvergenceError("could not bracket the censoring rate")
    for _ in range(_CAL_MAX_ITER):
        mid = 0.5 * (lo + hi)
        f = frac(mid)
        if abs(f - target) <= _CAL_CENSORING_TOL:
            return mid
        if f < target:
            lo = mid
        else:
            hi = mid
    raise ConvergenceError(
        f"censoring calibration did not converge within {_CAL_MAX_ITER} iterations"
    )


def empirical_event_rates(
    setting: str,
    psi: float,
    alpha,
    lambda_c: float,
    t_points=(0.5, 1.0, 2.0, 4.0),
    *,
    n: int = 400_000,
    seed: int = 202403,
):
    """Observed event rates P(delta = 1, Y <= t) overall and per group.

    Returns (overall, per_group): overall maps t to the rate; per_group
    maps group index to the same mapping.
    """
    cohort = make_replicate(setting, psi, alpha, lambda_c, n, np.random.default_rng(seed))
    overall = {}
    per_group: dict[int, dict] = {g: {} for g in range(cohort.n_treatments + 1)}
    for t in t_points:
        hit = (cohort.event == 1) & (cohort.time <= t)
        overall[t] = float(hit.mean())
        for g in per_group:
            rows = cohort.treatment == g
            per_group[g][t] = float(hit[rows].mean())
    return overall, per_group


@dataclass(frozen=True)
class EstimandResult:
    """Large-sample weighted marginal hazard-ratio estimand."""

    setting: str
    scheme: str
    psi: float
    tau_star: np.ndarray
    m: int
    seed: object
    t0: float
    alpha: object = None


def true_estimand(
    setting: str,
    scheme: str,
    psi: float,
    m: int = 2_000_000,
    seed: int = 0,
    *,
    alpha=None,
    att_target=None,
) -> EstimandResult:
    """Compute tau* by solving the weighted score equation on a large
    stacked sample of potential times.

    Each of the m simulated units contributes one record per arm carrying
    its tilt weight h(X) built from the true propensities (h = 1 for IPW,
    the harmonic term for OW, e_{j'} for ATT).  Records are uncensored
    except for administrative truncation at the 99.9th percentile of the
    pooled stacked times, and tau* comes from the weighted marginal Cox
    fit on that sample.
    """
    design = _design(setting)
    if m < 1_000_000:
        raise ValidationError("M too small: need at least 1e6 units")
    if scheme not in ("ipw", "ow", "att"):
        raise ValidationError(f"estimand not defined for scheme {scheme!r}")
    arms = len(design.labels)
    if scheme == "att" and (att_target is None or not (0 <= int(att_target) < arms)):
        raise ValidationError("att estimand needs a valid target group")
    rng = np.random.default_rng(seed)
    x = gen_covariates(m, rng)
    t_all = gen_outcomes(x, design.theta, rng=rng)

    probs = None
    if scheme != "ipw":
        if alpha is None:
            alpha = calibrate_intercepts(setting, psi)
        probs = true_propensities(setting, x, psi, alpha)
    h = _tilt(scheme, m, probs, att_target)

    times = np.concatenate([t_all[:, z] for z in range(arms)])
    t0 = float(np.quantile(times, 0.999))
    event = (times <= t0).astype(np.int64)
    y = np.minimum(times, t0)
    z_rec = np.repeat(np.arange(arms, dtype=np.int64), m)
    core = fit_cox(y, event, _indicators(z_rec, arms - 1), np.tile(h, arms))
    return EstimandResult(
        setting=setting,
        scheme=scheme,
        psi=float(psi),
        tau_star=core.beta,
        m=int(m),
        seed=seed,
        t0=t0,
        alpha=alpha,
    )


@dataclass(frozen=True)
class ScenarioConfig:
    """Configuration of one simulation cell."""

    setting: str = "multi3"
    psi: float = 1.0
    n: int = 1000
    censoring: float = 0.25
    replicates: int = 200
    bootstrap_b: int = 100
    seed: int = 12345
    estimand_m: int = 2_000_000

    def __post_init__(self):
        groups = len(_design(self.setting).labels)
        if not (self.psi > 0):
            raise ValidationError("psi must be positive")
        if self.n < 4 * groups:
            raise ValidationError(f"n must be at least {4 * groups}")
        if not (0.0 <= self.censoring < 1.0):
            raise ValidationError("censoring must lie in [0, 1)")
        if self.replicates < 1:
            raise ValidationError("replicates must be at least 1")
        if self.bootstrap_b < 2:
            raise ValidationError("bootstrap_b must be at least 2")
        if self.estimand_m < 1_000_000:
            raise ValidationError("estimand_m must be at least 1e6")

    @classmethod
    def from_mapping(cls, mapping) -> "ScenarioConfig":
        """Build from a flat key=value mapping (strings are coerced)."""
        kinds = {
            "setting": str,
            "psi": float,
            "n": int,
            "censoring": float,
            "replicates": int,
            "bootstrap_b": int,
            "seed": int,
            "estimand_m": int,
        }
        kwargs = {}
        for key, raw in mapping.items():
            if key not in kinds:
                raise ValidationError(f"unknown scenario key {key!r}")
            try:
                kwargs[key] = kinds[key](raw)
            except ValueError:
                raise ValidationError(
                    f"scenario key {key!r} has invalid value {raw!r}"
                ) from None
        return cls(**kwargs)


_METHODS = ("ipw", "ow", "naive", "multivariable")


@dataclass(frozen=True)
class MethodSummary:
    """Aggregated operating characteristics of one method and component."""

    method: str
    component: str
    target_tau: float
    rel_bias: float
    coverage: float
    mean_se_robust: float
    mean_se_bootstrap: float
    mc_sd: float


@dataclass(frozen=True)
class StudyReport:
    """run_study output: per-method summaries plus bookkeeping."""

    config: ScenarioConfig
    estimands: dict
    rows: tuple
    replicates_used: int
    n_failed: int
    failure_reasons: dict
    alpha: object
    lambda_c: float

    def to_csv(self, fh) -> None:
        fh.write(
            "setting,psi,censoring,n,replicates,method,component,target_tau,"
            "rel_bias,coverage,se_robust_mean,se_bootstrap_mean,mc_sd,"
            "failed_replicates\n"
        )
        c = self.config
        for r in self.rows:
            fh.write(
                f"{c.setting},{float(c.psi)!r},{float(c.censoring)!r},{c.n},"
                f"{c.replicates},{r.method},{r.component},{r.target_tau!r},"
                f"{r.rel_bias!r},{r.coverage!r},{r.mean_se_robust!r},"
                f"{r.mean_se_bootstrap!r},{r.mc_sd!r},{self.n_failed}\n"
            )

    def format_table(self) -> str:
        """Text table: methods as rows, per-component column blocks of
        Rel.Bias / Coverage / SE(ro) / SE(bs)."""
        components = []
        for r in self.rows:
            if r.component not in components:
                components.append(r.component)
        by_key = {(r.method, r.component): r for r in self.rows}
        head1 = f"{'':14s}"
        head2 = f"{'Method':14s}"
        for comp in components:
            head1 += f"| {comp:^38s} "
            head2 += f"| {'Rel.Bias':>8s} {'Coverage':>9s} {'SE(ro)':>8s} {'SE(bs)':>8s} "
        lines = [
            f"setting={self.config.setting} psi={self.config.psi:g} "
            f"censoring={self.config.censoring:g} n={self.config.n} "
            f"replicates={self.replicates_used} (failed {self.n_failed})",
            head1,
            head2,
            "-" * len(head2),
        ]
        for method in _METHODS:
            line = f"{method:14s}"
            for comp in components:
                r = by_key[(method, comp)]

                def fmt(v):
                    return f"{v:8.2f}" if np.isfinite(v) else f"{'--':>8s}"

                line += (
                    f"| {fmt(r.rel_bias)} {fmt(r.coverage):>9s} "
                    f"{fmt(r.mean_se_robust)} {fmt(r.mean_se_bootstrap)} "
                )
            lines.append(line)
        return "\n".join(lines) + "\n"


def _replicate_estimates(setting, psi, alpha, lambda_c, n, bootstrap_b, master_seed, r):
    """All four methods on one simulated replicate.

    Returns (tau dict, se dict, se_boot dict) or raises on failure; seeds
    derive from (master_seed, replicate index, purpose) so results do not
    depend on execution order.
    """
    cohort = make_replicate(
        setting, psi, alpha, lambda_c, n,
        np.random.default_rng(np.random.SeedSequence((master_seed, r, 0))),
    )
    ps = fit_multinomial_logit(cohort)
    j = cohort.n_treatments
    tau: dict[str, np.ndarray] = {}
    se: dict[str, np.ndarray] = {}
    se_boot: dict[str, np.ndarray] = {}

    for k, scheme in enumerate(("ipw", "ow")):
        w = compute_weights(ps, cohort.treatment, scheme)
        est = fit_mhr(cohort, w)
        sand = sandwich_covariance(cohort, ps, w, est.tau)
        boot = bootstrap_covariance(
            cohort, scheme, bootstrap_b, (master_seed, r, 1 + k)
        )
        tau[scheme] = est.tau
        se[scheme] = np.sqrt(np.diag(sand.cov_tau))
        se_boot[scheme] = np.sqrt(np.diag(boot.cov_tau))

    naive = fit_cox(
        cohort.time, cohort.event, _indicators(cohort.treatment, j), np.ones(cohort.n)
    )
    tau["naive"] = naive.beta
    se["naive"] = np.sqrt(np.diag(np.linalg.inv(naive.info)))

    design = np.hstack([_indicators(cohort.treatment, j), cohort.covariates])
    mv = fit_cox(cohort.time, cohort.event, design, np.ones(cohort.n))
    tau["multivariable"] = mv.beta[:j]
    se["multivariable"] = np.sqrt(np.diag(np.linalg.inv(mv.info))[:j])
    return tau, se, se_boot


def _replicate_worker(args):
    try:
        return ("ok", _replicate_estimates(*args))
    except (ConvergenceError, ValidationError, StudyError) as exc:
        return ("failed", f"{type(exc).__name__}: {exc}")


def _worker_count() -> int:
    """Worker cap: WCOX_THREADS when set, else the CPUs this process may
    run on (its affinity set, which also reflects cpuset limits)."""
    env = os.environ.get("WCOX_THREADS", "").strip()
    if env:
        try:
            cap = int(env)
        except ValueError:
            raise ValidationError(
                f"WCOX_THREADS must be an integer, got {env!r}"
            ) from None
        if cap < 1:
            raise ValidationError("WCOX_THREADS must be at least 1")
        return cap
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run_study(
    config: ScenarioConfig,
    estimands: dict | None = None,
    *,
    max_failure_fraction: float = 0.05,
) -> StudyReport:
    """Run one simulation cell and aggregate operating characteristics.

    Four estimators are compared: IPW and OW weighted fits (sandwich and
    bootstrap standard errors), the unweighted fit with model-based SEs
    ("naive"), and the covariate-adjusted Cox model ("multivariable").
    Relative bias is computed on the hazard-ratio scale against each
    method's target (the OW estimand for OW, the IPW estimand otherwise),
    coverage from 95% Wald intervals using the sandwich SE for the
    weighted methods and the model-based SE otherwise.  Estimands are
    computed on demand unless supplied (keys 'ipw' and 'ow').

    Failed replicates are dropped and counted; more than
    `max_failure_fraction` of them aborts the study with StudyError.
    Replicates may run in parallel (WCOX_THREADS caps the workers);
    results are independent of worker count and execution order.
    """
    alpha = calibrate_intercepts(config.setting, config.psi)
    lambda_c = calibrate_censoring(
        config.setting, config.psi, alpha, config.censoring
    )
    if estimands is None:
        estimands = {}
    estimands = dict(estimands)
    for k, scheme in enumerate(("ipw", "ow")):
        if scheme not in estimands:
            estimands[scheme] = true_estimand(
                config.setting,
                scheme,
                config.psi,
                config.estimand_m,
                seed=(config.seed, 9001 + k),
                alpha=alpha if scheme == "ow" else None,
            )
    targets = {
        "ipw": estimands["ipw"].tau_star,
        "ow": estimands["ow"].tau_star,
        "naive": estimands["ipw"].tau_star,
        "multivariable": estimands["ipw"].tau_star,
    }

    args = [
        (
            config.setting,
            config.psi,
            alpha,
            lambda_c,
            config.n,
            config.bootstrap_b,
            config.seed,
            r,
        )
        for r in range(config.replicates)
    ]
    workers = _worker_count()
    if workers > 1 and config.replicates > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_replicate_worker, args, chunksize=4))
    else:
        outcomes = [_replicate_worker(a) for a in args]

    oks = [payload for status, payload in outcomes if status == "ok"]
    failures: dict[str, int] = {}
    for status, payload in outcomes:
        if status == "failed":
            failures[payload] = failures.get(payload, 0) + 1
    n_failed = config.replicates - len(oks)
    if n_failed > max_failure_fraction * config.replicates:
        raise StudyError(
            f"study aborted: {n_failed} of {config.replicates} replicates "
            f"failed ({failures})"
        )
    if not oks:
        raise StudyError("study aborted: no replicate succeeded")

    j = targets["ipw"].shape[0]
    labels = _design(config.setting).labels
    z95 = norm.ppf(0.975)
    rows = []
    for method in _METHODS:
        taus = np.vstack([ok[0][method] for ok in oks])
        ses = np.vstack([ok[1][method] for ok in oks])
        boots = (
            np.vstack([ok[2][method] for ok in oks])
            if method in ("ipw", "ow")
            else np.full_like(taus, np.nan)
        )
        target = targets[method]
        for comp in range(j):
            hr_target = float(np.exp(target[comp]))
            mean_hr = float(np.mean(np.exp(taus[:, comp])))
            covered = np.abs(taus[:, comp] - target[comp]) <= z95 * ses[:, comp]
            rows.append(
                MethodSummary(
                    method=method,
                    component=f"tau_{comp + 1} ({labels[comp + 1]} vs {labels[0]})",
                    target_tau=float(target[comp]),
                    rel_bias=(mean_hr - hr_target) / hr_target,
                    coverage=float(covered.mean()),
                    mean_se_robust=float(np.mean(ses[:, comp])),
                    mean_se_bootstrap=float(np.mean(boots[:, comp])),
                    mc_sd=float(np.std(taus[:, comp], ddof=1)),
                )
            )
    return StudyReport(
        config=config,
        estimands=estimands,
        rows=tuple(rows),
        replicates_used=len(oks),
        n_failed=n_failed,
        failure_reasons=failures,
        alpha=alpha,
        lambda_c=lambda_c,
    )
