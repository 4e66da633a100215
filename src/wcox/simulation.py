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

import ctypes
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from ._engine import fit_cox
from .data_model import (
    Cohort,
    ConvergenceError,
    StudyError,
    ValidationError,
    _check_fraction,
    _one_hot,
    _readonly,
    factorial_treatment_labels,
)
from .marginal_cox import bootstrap_covariance, evaluate_score, fit_weighted_mhr
from .propensity import _CHUNK, _softmax_groups, _tilt

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

    def offsets(self, alpha) -> np.ndarray:
        """The intercept of each non-reference group, (groups - 1,)."""
        a = np.asarray(alpha, dtype=np.float64).reshape(-1)
        want = max(self.intercepts) + 1
        if a.size != want:
            raise ValidationError(f"alpha must hold {want} intercept(s), got {a.size}")
        return a[list(self.intercepts)]

    def scaled_loadings(self, x: np.ndarray, psi: float, out=None) -> np.ndarray:
        """psi * sign * x'v, (groups - 1, n), written into the rows of `out`
        when it is given: one matrix-vector product per row, so each row is
        +-psi v'x bit for bit (a matrix-matrix product may sum in another
        order)."""
        if out is None:
            out = np.empty((len(self.loadings), x.shape[0]))
        for row, (sign, key) in zip(out, self.loadings):
            np.matmul(x, _LOADINGS[key], out=row)
            row *= sign * psi
        return out

    def propensities(self, x: np.ndarray, psi: float, alpha) -> np.ndarray:
        """Assignment probabilities, (groups, n): the logits are formed in
        rows 1.. and become the probabilities in place."""
        offsets = self.offsets(alpha)
        e = np.empty((len(self.labels), x.shape[0]))
        e[0] = 0.0
        self.scaled_loadings(x, psi, out=e[1:])
        e[1:] += offsets[:, None]
        _softmax_groups(e)
        return e


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


def _check_psi(psi) -> None:
    if not (np.isfinite(psi) and psi > 0):
        raise ValidationError(f"psi must be positive and finite, got {psi!r}")


def _row_blocks(n: int):
    """Slices of at most `_CHUNK` rows covering 0..n in order (one empty
    slice when n == 0).  A last block of one row joins the block before
    it, so no block has one row unless n == 1: a one-row matrix product
    runs as a dot product, whose bits may differ from those of the same
    row in a product of several rows."""
    start = 0
    while True:
        stop = n if n - start <= _CHUNK + 1 else start + _CHUNK
        yield slice(start, stop)
        if stop == n:
            return
        start = stop


def gen_covariates(n: int, rng) -> np.ndarray:
    """Draw the six baseline covariates, shape (n, 6).

    Columns 0-2: equicorrelated (rho = 0.5) standard normals via a
    Cholesky factor; columns 3-5: independent Bernoulli(0.5) - 0.5.  All
    the normals are drawn before the Bernoullis, in row blocks that are
    written straight into the output, so the stream and the bits are
    those of one (n, 3) draw of each.
    """
    rng = np.random.default_rng(rng)
    cov = np.full((3, 3), _NORMAL_EQUICORR)
    np.fill_diagonal(cov, 1.0)
    chol = np.linalg.cholesky(cov)
    x = np.empty((n, 6))
    for rows in _row_blocks(n):
        block = x[rows, :3]
        np.matmul(rng.standard_normal(block.shape), chol.T, out=block)
    for rows in _row_blocks(n):
        block = x[rows, 3:]
        np.subtract(rng.integers(0, 2, size=block.shape), 0.5, out=block)
    return x


def true_propensities(setting: str, x: np.ndarray, psi: float, alpha) -> np.ndarray:
    """Assignment probabilities of the data-generating process, (n, groups)."""
    # C order: numpy reduces over the probabilities (the OW tilt) in the
    # order of their memory layout, so the layout fixes bits
    return np.ascontiguousarray(_design(setting).propensities(x, psi, alpha).T)


def gen_treatment(setting: str, x: np.ndarray, psi: float, alpha, rng) -> np.ndarray:
    """Draw groups from the true propensities: logits (0, a + psi b'x,
    a - psi b'x) for multi3, (0, a0 + psi b'x, a1 - psi b'x, a2 + psi c'x)
    for factorial, whose groups follow the (z1, z2) cell coding 0..3.

    A unit's group is the number of k with u > cdf_k, cdf_k = p_0 + ... +
    p_k summed in order, for one uniform u per unit, all drawn first.  The
    probabilities of each row block keep the groups on the leading axis
    and become the cumulative sums in place, so the cdf rows are bit for
    bit those of `np.cumsum(true_propensities(...), axis=1)`.
    """
    _check_psi(psi)
    design = _design(setting)
    design.offsets(alpha)  # checks alpha before anything is drawn
    rng = np.random.default_rng(rng)
    u = rng.random(x.shape[0])
    z = np.zeros(x.shape[0], dtype=np.int64)
    for rows in _row_blocks(x.shape[0]):
        cdf = design.propensities(x[rows], psi, alpha)
        np.cumsum(cdf, axis=0, out=cdf)
        for row in cdf:
            z[rows] += u[rows] > row
    return z


def _weibull_times(t: np.ndarray, rate: np.ndarray, shape: float, scale: float) -> np.ndarray:
    """scale * (-log t / exp(rate))^(1/shape), in place on the uniforms `t`
    and on `rate`."""
    np.log(t, out=t)
    np.negative(t, out=t)
    np.exp(rate, out=rate)
    t /= rate
    t **= 1.0 / shape
    t *= scale
    return t


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
    t = rng.random((x.shape[0], theta_full.size))
    # in place on the draw, with one (n, arms) temporary: the operations
    # and their order are the formula's, so the bits are too
    return _weibull_times(t, np.add(theta_full[None, :], lp[:, None]), shape, scale)


def _draw_assigned(setting: str, psi: float, alpha, n: int, rng):
    """Covariates, assignment and assigned potential time, drawn in that
    order from `rng`: the shared start of a replicate and of the censoring
    calibration sample.

    The times are bit for bit `gen_outcomes(x, theta, rng=rng)[arange(n),
    z]`: the same uniforms are drawn, a row block of (rows, arms) at a
    time, and only the assigned arm's go through the same elementwise
    steps, so no (n, arms) array of uniforms, times or rates is formed.
    The rate x'beta + theta_z is formed block by block in its output.
    """
    x = gen_covariates(n, rng)
    z = gen_treatment(setting, x, psi, alpha, rng)
    theta_full = np.concatenate([[0.0], _design(setting).theta])
    t = np.empty(n)
    rate = np.empty(n)
    for rows in _row_blocks(n):
        zr = z[rows]
        t[rows] = rng.random((zr.size, theta_full.size))[np.arange(zr.size), zr]
        np.matmul(x[rows], BETA_OUTCOME, out=rate[rows])
        rate[rows] += theta_full[zr]
    return x, z, _weibull_times(t, rate, WEIBULL_SHAPE, WEIBULL_SCALE)


def make_replicate(
    setting: str, psi: float, alpha, lambda_c: float, n: int, rng
) -> Cohort:
    """One observed-data replicate: draw X, Z, potential times, censoring.

    Draw order is fixed (covariates, assignment, outcomes, censoring) so a
    replicate is a pure function of the generator state.
    """
    design = _design(setting)
    _check_psi(psi)
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


def _group_shares(offsets: np.ndarray, scaled: np.ndarray) -> np.ndarray:
    """Mean over the units of the probabilities of the logits
    (0, offsets + scaled[:, i]), shape (groups,); `scaled` is (groups - 1, n).

    Bit for bit `true_propensities(...).mean(axis=0)`: the logits of
    blocks of `_CHUNK` units become their probabilities in one reused
    buffer.  `mean(axis=0)` of a C-contiguous array adds the rows in order,
    so the block's running total goes into its first unit and an in-place
    cumulative sum along the units carries it to the last.
    """
    k, n = scaled.shape
    buf = np.empty((k + 1, _CHUNK))
    total = np.zeros(k + 1)
    for start in range(0, n, _CHUNK):
        s = scaled[:, start:start + _CHUNK]
        e = buf[:, :s.shape[1]]
        e[0] = 0.0
        np.add(offsets[:, None], s, out=e[1:])
        _softmax_groups(e)
        e[:, 0] += total
        np.cumsum(e, axis=1, out=e)
        total = e[:, -1].copy()
    return total / n


def treatment_prevalences(setting: str, psi: float, alpha, *, n_mc=_CAL_N_MC,
                          seed=_CAL_SEED_INTERCEPTS) -> np.ndarray:
    """Expected group shares E[e_j(X)] under the true assignment model."""
    design = _design(setting)
    _check_psi(psi)
    offsets = design.offsets(alpha)
    x = gen_covariates(n_mc, np.random.default_rng(seed))
    return _group_shares(offsets, design.scaled_loadings(x, psi))


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
    _check_psi(psi)
    # only the projections enter the loop, so x is dropped before it; the
    # peak memory is reached as the projections are formed next to x
    x = gen_covariates(_CAL_N_MC, np.random.default_rng(_CAL_SEED_INTERCEPTS))
    scaled = design.scaled_loadings(x, psi)
    del x
    owner = np.asarray(design.intercepts)
    sharing = np.bincount(owner)
    target = 1.0 / len(design.labels)
    alpha = np.zeros(sharing.size)
    for _ in range(_CAL_MAX_ITER):
        prev = _group_shares(alpha[owner], scaled)
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
    _check_psi(psi)
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
    _check_psi(psi)
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
    core = fit_cox(y, event, _one_hot(z_rec - 1, arms - 1), np.tile(h, arms))
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
        _check_psi(self.psi)
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
    depend on execution order.  IPW, OW and the naive fit each run
    `fit_weighted_mhr`; the cohort keeps its propensity fit, so the
    weighted fits and both bootstraps share one.
    """
    cohort = make_replicate(
        setting, psi, alpha, lambda_c, n,
        np.random.default_rng(np.random.SeedSequence((master_seed, r, 0))),
    )
    j = cohort.n_treatments
    tau: dict[str, np.ndarray] = {}
    se: dict[str, np.ndarray] = {}
    se_boot: dict[str, np.ndarray] = {}

    for k, scheme in enumerate(("ipw", "ow")):
        est = fit_weighted_mhr(cohort, scheme).estimate
        boot = bootstrap_covariance(cohort, scheme, bootstrap_b, (master_seed, r, 1 + k))
        tau[scheme] = est.tau
        se[scheme] = est.se
        se_boot[scheme] = np.sqrt(np.diag(boot.cov_tau))

    naive = fit_weighted_mhr(cohort, "unit", variance="none")
    tau["naive"] = naive.estimate.tau
    info = evaluate_score(cohort, naive.weights, tau["naive"]).info
    se["naive"] = np.sqrt(np.diag(np.linalg.inv(info)))

    design = np.hstack([cohort._arm_onehot[:, 1:], cohort.covariates])
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


# OpenBLAS thread-count entry points as (set, get) names: numpy 2 wheels
# bundle scipy-openblas with a prefix and an ILP64 suffix, older numpy
# wheels carry the suffix alone and plain builds neither
_OPENBLAS_SYMBOLS = [
    (f"{prefix}_set_num_threads{suffix}", f"{prefix}_get_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas")
    for suffix in ("64_", "")
]


def _openblas_controls() -> list:
    """(set, get) thread-count functions of every OpenBLAS mapped into this
    process: numpy's, and scipy's once it is loaded.  Empty where none is
    found, as under MKL or Accelerate or without /proc/self/maps."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            fields = [line.rstrip("\n").split(None, 5) for line in fh]
    except OSError:
        return []
    paths = {f[5] for f in fields
             if len(f) == 6 and "openblas" in os.path.basename(f[5]).lower()}
    controls = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                set_threads, get_threads = getattr(lib, set_name), getattr(lib, get_name)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                controls.append((set_threads, get_threads))
                break
    return controls


def _limit_blas_threads(count: int) -> list:
    """Run every OpenBLAS of this process on `count` threads; returns each
    library's setter with its previous count, for the caller to restore.

    The study runs each replicate on one thread: its matrices are small,
    so with a worker per core a second thread per worker only contends
    for the cores, and a fixed count keeps the bits of the replicates
    independent of the host's cores and of the worker count."""
    previous = []
    for set_threads, get_threads in _openblas_controls():
        previous.append((set_threads, get_threads()))
        set_threads(count)
    return previous


def _release_freed_heap() -> None:
    """Return this process's freed heap to the system with glibc's
    malloc_trim(0), so workers forked later do not start with it; a no-op
    where the C library has no malloc_trim."""
    try:
        trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    except OSError:
        return
    if trim is not None:
        trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
        trim(0)


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
    computed on demand unless supplied (keys 'ipw' and 'ow').  The
    assignment intercepts are calibrated for the cell unless a supplied
    OW estimand carries them (its `alpha`): the data are then drawn under
    the intercepts that define the OW target, and the supplied alpha
    becomes the report's.

    Failed replicates are dropped and counted; more than
    `max_failure_fraction` of them aborts the study with StudyError; a
    fraction that is NaN or outside [0, 1] raises ValidationError first.
    Replicates may run in parallel (WCOX_THREADS caps the workers), each
    on one BLAS thread, so their results depend neither on the worker
    count and execution order nor on the host's BLAS thread count.
    Estimands computed here run on the host's BLAS threads.  The heap
    that they and the calibrations freed goes back to the system (glibc's
    malloc_trim) before the first replicate.  A supplied
    estimand of another setting, psi or scheme than the cell and its key,
    or with the wrong number of components, or an OW estimand whose alpha
    has the wrong size or is not finite, raises ValidationError before
    any calibration.
    """
    _check_fraction("max_failure_fraction", max_failure_fraction)
    estimands = dict(estimands or {})
    design = _design(config.setting)
    labels = design.labels
    j = len(labels) - 1
    for key, est in estimands.items():
        got = (est.setting, est.psi, est.scheme, np.shape(est.tau_star))
        want = (config.setting, config.psi, key, (j,))
        if got != want:
            raise ValidationError(
                f"estimand {key!r} has (setting, psi, scheme, tau_star shape) {got}; "
                f"the cell needs {want}"
            )
    alpha = estimands["ow"].alpha if "ow" in estimands else None
    if alpha is None:
        alpha = calibrate_intercepts(config.setting, config.psi)
    elif not np.all(np.isfinite(design.offsets(alpha))):
        raise ValidationError(f"the 'ow' estimand's alpha must be finite, got {alpha!r}")
    lambda_c = calibrate_censoring(
        config.setting, config.psi, alpha, config.censoring
    )
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
    _release_freed_heap()
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
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_limit_blas_threads, initargs=(1,)
        ) as pool:
            outcomes = list(pool.map(_replicate_worker, args, chunksize=4))
    else:
        previous = _limit_blas_threads(1)
        try:
            outcomes = [_replicate_worker(a) for a in args]
        finally:
            for set_threads, count in previous:
                set_threads(count)

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

    z95 = NormalDist().inv_cdf(0.975)
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
                    mc_sd=float(np.std(taus[:, comp], ddof=1)) if len(oks) > 1 else np.nan,
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
