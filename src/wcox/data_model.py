"""Cohort container, input validation, and factorial treatment coding."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "ValidationError",
    "ConvergenceError",
    "StudyError",
    "Cohort",
    "validate_cohort",
    "FACTORIAL_CELLS",
    "factorial_treatment_labels",
    "encode_factorial",
    "decode_factorial",
]


class ValidationError(ValueError):
    """Input data violate the cohort or configuration contract."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to converge or detected separation."""


class StudyError(RuntimeError):
    """A resampling procedure or simulation study had to abort."""


def _check_fraction(name: str, value) -> None:
    """Reject a failure fraction that is NaN or outside [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must lie in [0, 1], got {value!r}")


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _one_hot(treatment: np.ndarray, groups: int) -> np.ndarray:
    """(n, groups) 0/1 matrix: column k marks the units of group k, and a
    unit of any other group has a row of zeros."""
    d = np.zeros((treatment.shape[0], groups))
    for k in range(groups):
        d[treatment == k, k] = 1.0
    return d


@dataclass(frozen=True)
class Cohort:
    """Right-censored survival cohort with a categorical treatment.

    Attributes
    ----------
    time : ndarray, shape (n,)
        Observed follow-up times, strictly positive and finite.
    event : ndarray, shape (n,)
        1 if the failure was observed, 0 if right-censored.
    treatment : ndarray, shape (n,)
        Group index in {0, ..., n_treatments}; 0 is the reference group.
    covariates : ndarray, shape (n, p)
        Baseline covariates; p may be zero.
    treatment_labels : tuple of str
        Display labels; position k names group k.

    Arrays are read-only; derived objects hold views, never mutated copies.
    What depends only on the cohort (its time order, its arm one-hot and
    its full-sample propensity fit) is computed once, on first use, and
    kept for the cohort's lifetime; `subset` and `dataclasses.replace`
    make a new cohort, which computes its own.
    """

    time: np.ndarray
    event: np.ndarray
    treatment: np.ndarray
    covariates: np.ndarray
    treatment_labels: tuple[str, ...]

    @property
    def n(self) -> int:
        return self.time.shape[0]

    @property
    def n_treatments(self) -> int:
        """Number of non-reference groups (J)."""
        return len(self.treatment_labels) - 1

    @property
    def n_covariates(self) -> int:
        return self.covariates.shape[1]

    @cached_property
    def _time_order(self) -> np.ndarray:
        """Stable argsort of `time`, the order of every risk table and
        Kaplan-Meier curve of the cohort; computed once per cohort."""
        return np.argsort(self.time, kind="stable")

    @cached_property
    def _arm_onehot(self) -> np.ndarray:
        """(n, J+1) one-hot of `treatment`, computed once per cohort."""
        return _one_hot(self.treatment, len(self.treatment_labels))

    @cached_property
    def _propensity(self):
        """`propensity._fit_full_sample` of the cohort, computed once per cohort."""
        from .propensity import _fit_full_sample

        return _fit_full_sample(self)

    def group_sizes(self) -> np.ndarray:
        return np.bincount(self.treatment, minlength=len(self.treatment_labels))

    def subset(self, idx) -> "Cohort":
        """Row subset (or resample) keeping the treatment coding intact."""
        idx = np.asarray(idx)
        return Cohort(
            time=_readonly(self.time[idx]),
            event=_readonly(self.event[idx]),
            treatment=_readonly(self.treatment[idx]),
            covariates=_readonly(self.covariates[idx]),
            treatment_labels=self.treatment_labels,
        )


def _map_treatment(raw, reference):
    """Map raw treatment labels to dense indices 0..J, reference first."""
    values = list(raw)
    # already-dense integer coding is kept verbatim so numeric files are
    # not silently permuted; any explicit reference still wins
    if reference is None:
        try:
            as_int = np.asarray(values)
            if as_int.dtype.kind in "iu" or (
                as_int.dtype.kind == "f" and np.all(as_int == np.round(as_int))
            ):
                ints = as_int.astype(np.int64)
                levels = np.unique(ints)
                if levels.size >= 1 and np.array_equal(levels, np.arange(levels.size)):
                    labels = tuple(str(k) for k in range(levels.size))
                    return ints, labels
        except (TypeError, ValueError):
            pass

    seen: dict = {}
    order = []
    for v in values:
        if v not in seen:
            seen[v] = len(order)
            order.append(v)
    if reference is not None:
        matches = [v for v in order if v == reference or str(v) == str(reference)]
        if not matches:
            raise ValidationError(
                f"reference treatment {reference!r} not present in the data"
            )
        ref = matches[0]
        order.remove(ref)
        order.insert(0, ref)
        seen = {v: k for k, v in enumerate(order)}
    coded = np.array([seen[v] for v in values], dtype=np.int64)
    return coded, tuple(str(v) for v in order)


def validate_cohort(time, event, treatment, covariates=None, reference=None) -> Cohort:
    """Validate parsed input columns and assemble an immutable Cohort.

    Parameters
    ----------
    time, event, treatment : array-like, shape (n,)
        Follow-up time, event indicator (0/1), and treatment label per unit.
        Treatment labels may be arbitrary; they are mapped to 0..J by first
        appearance unless they already form a dense 0..J integer coding,
        and `reference` (when given) is forced to index 0.
    covariates : array-like, shape (n, p), optional
    reference : optional
        Label of the reference treatment group.

    Returns
    -------
    Cohort

    Raises
    ------
    ValidationError
        On length mismatch, nonpositive or nonfinite times, event values
        outside {0, 1}, nonfinite covariates, fewer than two treatment
        groups, or an empty treatment column.  Messages carry offending
        row indices.
    """
    time = np.asarray(time, dtype=np.float64)
    event_arr = np.asarray(event)
    n = time.shape[0]
    if time.ndim != 1:
        raise ValidationError("time must be one-dimensional")
    if n == 0:
        raise ValidationError("cohort is empty")
    treatment = np.asarray(treatment)
    if event_arr.shape != (n,) or treatment.shape != (n,):
        raise ValidationError(
            f"column lengths differ: time {n}, event {event_arr.shape}, "
            f"treatment {treatment.shape}"
        )
    if covariates is None:
        covariates = np.empty((n, 0), dtype=np.float64)
    covariates = np.asarray(covariates, dtype=np.float64)
    if covariates.ndim == 1:
        covariates = covariates[:, None]
    if covariates.shape[0] != n:
        raise ValidationError(
            f"covariates have {covariates.shape[0]} rows, expected {n}"
        )

    bad = np.flatnonzero(~np.isfinite(time) | (time <= 0.0))
    if bad.size:
        raise ValidationError(
            f"times must be positive and finite; offending rows {bad[:10].tolist()}"
        )
    try:
        event_f = event_arr.astype(np.float64)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"event column is not numeric: {exc}") from None
    bad = np.flatnonzero(~np.isin(event_f, (0.0, 1.0)))
    if bad.size:
        raise ValidationError(
            f"event values must be 0 or 1; offending rows {bad[:10].tolist()}"
        )
    bad = np.flatnonzero(~np.all(np.isfinite(covariates), axis=1))
    if bad.size:
        raise ValidationError(
            f"covariates must be finite; offending rows {bad[:10].tolist()}"
        )

    coded, labels = _map_treatment(treatment, reference)
    if len(labels) < 2:
        raise ValidationError("at least two treatment groups are required")

    return Cohort(
        time=_readonly(time),
        event=_readonly(event_f.astype(np.int64)),
        treatment=_readonly(coded),
        covariates=_readonly(covariates),
        treatment_labels=labels,
    )


# cell k of the 4-level coding is FACTORIAL_CELLS[k] = (z1, z2)
FACTORIAL_CELLS: tuple[tuple[int, int], ...] = ((0, 0), (1, 0), (0, 1), (1, 1))


def factorial_treatment_labels() -> tuple[str, ...]:
    """Display labels for the 4-level coding of a 2x2 factorial design."""
    return tuple(f"({z1},{z2})" for z1, z2 in FACTORIAL_CELLS)


def encode_factorial(z1, z2) -> np.ndarray:
    """Map two binary factors to the 4-level label of FACTORIAL_CELLS.

    (0,0) -> 0, (1,0) -> 1, (0,1) -> 2, (1,1) -> 3.
    """
    z1 = np.asarray(z1)
    z2 = np.asarray(z2)
    if z1.shape != z2.shape:
        raise ValidationError("z1 and z2 must have the same shape")
    for name, z in (("z1", z1), ("z2", z2)):
        if not np.isin(z, (0, 1)).all():
            raise ValidationError(f"{name} must contain only 0/1 values")
    return (z1.astype(np.int64) + 2 * z2.astype(np.int64))


def decode_factorial(labels):
    """Inverse of encode_factorial: label in 0..3 -> (z1, z2)."""
    labels = np.asarray(labels)
    if not np.isin(labels, (0, 1, 2, 3)).all():
        raise ValidationError("factorial labels must lie in {0, 1, 2, 3}")
    labels = labels.astype(np.int64)
    return labels % 2, labels // 2
