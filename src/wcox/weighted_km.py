"""Weighted Kaplan-Meier curves per treatment group, with CSV/SVG export.

The weighted product-limit estimator within group j is

    S_j(t) = prod_{t_l <= t} (1 - D_l / R_l),

where D_l sums w_i over events of group j at the distinct event time t_l
and R_l sums w_i over group-j units still at risk (Y_i >= t_l).  Event
and at-risk totals are differences of prefix sums accumulated in
ascending-time order (ties in input order).  Each factor 1 - D_l / R_l is
computed as (R_l - D_l) / R_l, with the surviving weight R_l - D_l summed
directly (later units plus the block's censored units) rather than
subtracted, so a curve ending in an all-event block reaches exactly 0.
This order is part of the contract so independent recomputations can
match bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import Cohort, ValidationError
from .propensity import WeightSet

__all__ = [
    "KmCurve",
    "weighted_km",
    "km_curves",
    "cumulative_risk",
    "export_km_csv",
    "export_km_svg",
]


@dataclass(frozen=True)
class KmCurve:
    """Weighted Kaplan-Meier curve of one treatment group.

    Arrays are aligned: position 0 is t = 0 with survival 1, zero events,
    and the group's total weight at risk; later positions are the group's
    distinct event times.
    """

    group: int
    label: str
    times: np.ndarray
    survival: np.ndarray
    weighted_events: np.ndarray
    weighted_at_risk: np.ndarray

    @property
    def cum_risk(self) -> np.ndarray:
        return 1.0 - self.survival


def weighted_km(cohort: Cohort, weights: WeightSet, group: int) -> KmCurve:
    """Weighted product-limit curve for one treatment group."""
    if weights.n != cohort.n:
        raise ValidationError("weights must align with the cohort")
    g = cohort.n_treatments + 1
    if not (0 <= group < g):
        raise ValidationError(f"group must lie in 0..{g - 1}")
    # the group's units in the cohort's stable time order
    order = cohort._time_order
    rows = order[cohort.treatment[order] == group]
    if rows.size == 0:
        raise ValidationError(f"group {group} has no units")
    t_s = cohort.time[rows]
    d_s = cohort.event[rows].astype(np.float64)
    w_s = weights.weights[rows]
    # the times are sorted: a tie block starts where the time changes
    seg_start = np.flatnonzero(np.diff(t_s, prepend=-np.inf))
    seg_end = np.append(seg_start[1:], t_s.shape[0])
    # one sequential prefix sum per quantity; block totals are prefix
    # differences, so the reproduction order is pinned regardless of how
    # large a tie block gets
    cw = np.concatenate([[0.0], np.cumsum(w_s)])
    cwd = np.concatenate([[0.0], np.cumsum(w_s * d_s)])
    cwc = np.concatenate([[0.0], np.cumsum(w_s * (1.0 - d_s))])
    seg_wd = cwd[seg_end] - cwd[seg_start]
    at_risk = cw[-1] - cw[seg_start]
    total_w = at_risk[0]
    survivors = (cw[-1] - cw[seg_end]) + (cwc[seg_end] - cwc[seg_start])

    ev = np.flatnonzero(seg_wd > 0.0)
    factors = survivors[ev] / at_risk[ev]
    survival = np.concatenate([[1.0], np.cumprod(factors)])
    return KmCurve(
        group=int(group),
        label=cohort.treatment_labels[group],
        times=np.concatenate([[0.0], t_s[seg_start[ev]]]),
        survival=survival,
        weighted_events=np.concatenate([[0.0], seg_wd[ev]]),
        weighted_at_risk=np.concatenate([[total_w], at_risk[ev]]),
    )


def km_curves(cohort: Cohort, weights: WeightSet) -> list[KmCurve]:
    """One weighted curve per treatment group, reference first."""
    return [
        weighted_km(cohort, weights, g) for g in range(cohort.n_treatments + 1)
    ]


def cumulative_risk(curve_or_survival) -> np.ndarray:
    """Pointwise cumulative risk 1 - S; accepts a KmCurve or survival array."""
    if isinstance(curve_or_survival, KmCurve):
        return 1.0 - curve_or_survival.survival
    s = np.asarray(curve_or_survival, dtype=np.float64)
    return 1.0 - s


def export_km_csv(curves, fh) -> None:
    """Write curves as CSV rows (group, time, survival, cum_risk,
    weighted_at_risk, weighted_events) to an open text file."""
    fh.write("group,time,survival,cum_risk,weighted_at_risk,weighted_events\n")
    for curve in curves:
        risk = curve.cum_risk
        for k in range(curve.times.shape[0]):
            fh.write(
                f"{curve.label},{float(curve.times[k])!r},"
                f"{float(curve.survival[k])!r},{float(risk[k])!r},"
                f"{float(curve.weighted_at_risk[k])!r},"
                f"{float(curve.weighted_events[k])!r}\n"
            )


_PALETTE = ("#1b6ca8", "#d1495b", "#2e933c", "#8a6fbf", "#e0a100", "#4a4a4a")


def _step_points(curve: KmCurve, t_max: float):
    """Right-continuous step path (t, S) extended to t_max."""
    pts = [(0.0, 1.0)]
    for k in range(1, curve.times.shape[0]):
        pts.append((float(curve.times[k]), float(curve.survival[k - 1])))
        pts.append((float(curve.times[k]), float(curve.survival[k])))
    pts.append((t_max, pts[-1][1]))
    return pts


def export_km_svg(curves, fh, *, width=640, height=440, cumulative=False) -> None:
    """Render the curves as a standalone SVG with one polyline per group."""
    ml, mr, mt, mb = 56, 16, 20, 44
    t_max = max(float(c.times[-1]) for c in curves)
    if t_max <= 0.0:
        t_max = 1.0

    def sx(t):
        return ml + (width - ml - mr) * t / t_max

    def sy(s):
        return mt + (height - mt - mb) * (1.0 - s)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{ml}" y1="{sy(0)}" x2="{width - mr}" y2="{sy(0)}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{ml}" y1="{sy(0)}" x2="{ml}" y2="{sy(1)}" '
        'stroke="black" stroke-width="1"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        parts.append(
            f'<text x="{ml - 6}" y="{sy(frac) + 4}" text-anchor="end" '
            f'font-size="11">{frac:g}</text>'
        )
        parts.append(
            f'<text x="{sx(frac * t_max)}" y="{sy(0) + 16}" text-anchor="middle" '
            f'font-size="11">{frac * t_max:.3g}</text>'
        )
    ylab = "cumulative risk" if cumulative else "survival"
    parts.append(
        f'<text x="{ml}" y="{mt - 6}" font-size="12">{ylab}</text>'
    )
    for k, curve in enumerate(curves):
        color = _PALETTE[k % len(_PALETTE)]
        pts = _step_points(curve, t_max)
        if cumulative:
            pts = [(t, 1.0 - s) for t, s in pts]
        coords = " ".join(f"{sx(t):.2f},{sy(s):.2f}" for t, s in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            'stroke-width="1.6"/>'
        )
        parts.append(
            f'<rect x="{width - mr - 130}" y="{mt + 16 * k}" width="12" '
            f'height="4" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{width - mr - 112}" y="{mt + 16 * k + 5}" '
            f'font-size="11">{curve.label}</text>'
        )
    parts.append("</svg>")
    fh.write("\n".join(parts) + "\n")
