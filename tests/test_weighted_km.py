"""Weighted product-limit curves and their CSV/SVG exports."""

import csv
import io
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from conftest import python_km_reference, random_survival_cohort
from wcox import (
    ValidationError,
    compute_weights,
    cumulative_risk,
    export_km_csv,
    export_km_svg,
    fit_multinomial_logit,
    km_curves,
    validate_cohort,
    weighted_km,
)


def _unit_weights(cohort):
    g = cohort.n_treatments + 1
    return compute_weights(
        np.full((cohort.n, g), 1.0 / g), cohort.treatment, "unit"
    )


def _weights_from(cohort, raw):
    """WeightSet carrying the given raw weights (probs chosen to produce them)."""
    raw = np.asarray(raw, dtype=np.float64)
    g = cohort.n_treatments + 1
    probs = np.full((cohort.n, g), 1.0 / g)
    w = compute_weights(probs, cohort.treatment, "unit")
    import dataclasses

    arr = np.array(raw)
    arr.setflags(write=False)
    return dataclasses.replace(w, weights=arr)


class TestHandCases:
    def test_three_unit_unweighted(self):
        # fourth unit only satisfies the two-group contract; it sits in
        # group 1 and never enters the group-0 curve
        co = validate_cohort([1.0, 2.0, 2.0, 9.0], [1, 1, 1, 1], [0, 0, 0, 1])
        cv = weighted_km(co, _unit_weights(co), 0)
        np.testing.assert_array_equal(cv.times, [0.0, 1.0, 2.0])
        np.testing.assert_allclose(cv.survival, [1.0, 2.0 / 3.0, 0.0])
        np.testing.assert_allclose(cv.weighted_events, [0.0, 1.0, 2.0])
        np.testing.assert_allclose(cv.weighted_at_risk, [3.0, 3.0, 2.0])

    def test_weighted_steps(self):
        co = validate_cohort([1.0, 2.0, 3.0, 9.0], [1, 1, 0, 1], [0, 0, 0, 1])
        w = _weights_from(co, [2.0, 1.0, 1.0, 1.0])
        cv = weighted_km(co, w, 0)
        # t=1: 2/4 of the risk mass fails; t=2: 1/2
        np.testing.assert_allclose(cv.survival, [1.0, 0.5, 0.25])
        np.testing.assert_array_equal(cv.times, [0.0, 1.0, 2.0])
        np.testing.assert_allclose(cv.weighted_at_risk, [4.0, 4.0, 2.0])

    def test_censoring_only_shrinks_risk_sets(self):
        co = validate_cohort([1.0, 1.5, 2.0, 9.0], [1, 0, 1, 1], [0, 0, 0, 1])
        cv = weighted_km(co, _unit_weights(co), 0)
        # censored unit at 1.5 contributes no step but leaves the t=2 risk set
        np.testing.assert_array_equal(cv.times, [0.0, 1.0, 2.0])
        np.testing.assert_allclose(cv.survival, [1.0, 2.0 / 3.0, 0.0])

    def test_censored_after_last_event_adds_no_step(self):
        co = validate_cohort([1.0, 5.0, 9.0], [1, 0, 1], [0, 0, 1])
        cv = weighted_km(co, _unit_weights(co), 0)
        np.testing.assert_array_equal(cv.times, [0.0, 1.0])
        np.testing.assert_allclose(cv.survival, [1.0, 0.5])

    def test_cum_risk_complements_survival(self):
        co = validate_cohort([1.0, 2.0, 3.0, 9.0], [1, 1, 1, 1], [0, 0, 0, 1])
        cv = weighted_km(co, _unit_weights(co), 0)
        np.testing.assert_allclose(cv.cum_risk, 1.0 - cv.survival)
        np.testing.assert_allclose(cumulative_risk(cv), cv.cum_risk)
        np.testing.assert_allclose(cumulative_risk([1.0, 0.25]), [0.0, 0.75])


class TestBitwiseReproducibility:
    def test_matches_sequential_reference_exactly(self):
        rng = np.random.default_rng(50)
        for trial in range(25):
            n = int(rng.integers(20, 120))
            # heavy ties: times drawn from a tiny grid
            t = rng.integers(1, 6, size=n) / 2.0
            d = rng.integers(0, 2, size=n)
            if d.sum() == 0:
                d[0] = 1
            # one trailing group-1 unit satisfies the two-group contract
            z = np.concatenate([np.zeros(n, dtype=int), [1]])
            t = np.concatenate([t, [9.0]])
            d = np.concatenate([d, [1]])
            co = validate_cohort(t, d, z)
            raw = np.exp(rng.normal(scale=0.7, size=n + 1))
            w = _weights_from(co, raw)
            cv = weighted_km(co, w, 0)
            ref = python_km_reference(
                list(co.time[:n]), list(co.event[:n]), list(raw[:n])
            )
            np.testing.assert_array_equal(cv.times, ref[0])
            np.testing.assert_array_equal(cv.survival, ref[1])
            np.testing.assert_array_equal(cv.weighted_events, ref[2])
            np.testing.assert_array_equal(cv.weighted_at_risk, ref[3])

    def test_interleaved_groups_match_the_reference_exactly(self):
        # three to five groups whose units alternate in the input and share
        # tied times, so each curve depends on how its group's rows are
        # taken from the cohort's time order
        rng = np.random.default_rng(52)
        for trial in range(25):
            n = int(rng.integers(30, 150))
            g = int(rng.integers(3, 6))
            t = rng.integers(1, 6, size=n) / 2.0
            d = rng.integers(0, 2, size=n)
            z = np.concatenate([np.arange(g), rng.integers(0, g, size=n - g)])
            rng.shuffle(z)
            co = validate_cohort(t, d, z)
            raw = np.exp(rng.normal(scale=0.7, size=n))
            w = _weights_from(co, raw)
            for group in range(g):
                rows = np.flatnonzero(co.treatment == group)
                cv = weighted_km(co, w, group)
                ref = python_km_reference(
                    list(co.time[rows]), list(co.event[rows]), list(raw[rows])
                )
                np.testing.assert_array_equal(cv.times, ref[0])
                np.testing.assert_array_equal(cv.survival, ref[1])
                np.testing.assert_array_equal(cv.weighted_events, ref[2])
                np.testing.assert_array_equal(cv.weighted_at_risk, ref[3])


class TestTerminalEventBlock:
    def test_curve_ending_in_events_reaches_exactly_zero(self):
        # censored units early and an all-event last block: the at-risk and
        # event totals of that block are differences of two prefix sums that
        # round differently, so 1 - D/R could leave a tiny signed residue
        rng = np.random.default_rng(53)
        for _ in range(200):
            n = int(rng.integers(5, 40))
            t = np.sort(rng.integers(1, 8, size=n) / 2.0)
            d = rng.integers(0, 2, size=n)
            d[t == t[-1]] = 1
            co = validate_cohort(
                np.append(t, 9.0), np.append(d, 1), np.append(np.zeros(n, int), 1)
            )
            w = _weights_from(co, np.exp(rng.normal(scale=0.7, size=n + 1)))
            cv = weighted_km(co, w, 0)
            assert cv.survival[-1] == 0.0
            assert np.all(cv.survival[:-1] > 0.0)


class TestValidation:
    def test_group_bounds(self):
        co = validate_cohort([1, 2], [1, 1], [0, 1])
        with pytest.raises(ValidationError, match="group must lie in 0..1"):
            weighted_km(co, _unit_weights(co), 2)
        with pytest.raises(ValidationError, match="group must lie"):
            weighted_km(co, _unit_weights(co), -1)

    def test_weight_alignment(self):
        co = validate_cohort([1, 2], [1, 1], [0, 1])
        other = validate_cohort([1, 2, 3], [1, 1, 1], [0, 1, 0])
        with pytest.raises(ValidationError, match="align"):
            weighted_km(co, _unit_weights(other), 0)


class TestCurveCollections:
    def test_reference_group_comes_first(self):
        co = random_survival_cohort(np.random.default_rng(51), n=60, j=2, p=2)
        fit = fit_multinomial_logit(co)
        w = compute_weights(fit, co.treatment, "ow")
        curves = km_curves(co, w)
        assert [c.group for c in curves] == [0, 1, 2]
        assert [c.label for c in curves] == list(co.treatment_labels)
        for c in curves:
            assert c.survival[0] == 1.0 and c.times[0] == 0.0
            assert np.all(np.diff(c.survival) <= 0)
            assert np.all(np.diff(c.times) > 0)


@pytest.fixture(scope="module")
def curves():
    co = random_survival_cohort(np.random.default_rng(52), n=50, j=1, p=2)
    return km_curves(co, _unit_weights(co))


class TestExports:
    def test_csv_round_trip(self, curves):
        buf = io.StringIO()
        export_km_csv(curves, buf)
        rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
        assert set(rows[0]) == {
            "group",
            "time",
            "survival",
            "cum_risk",
            "weighted_at_risk",
            "weighted_events",
        }
        assert len(rows) == sum(c.times.shape[0] for c in curves)
        # float repr round-trips exactly
        k = 0
        for c in curves:
            for i in range(c.times.shape[0]):
                assert float(rows[k]["survival"]) == c.survival[i]
                assert float(rows[k]["time"]) == c.times[i]
                assert rows[k]["group"] == c.label
                k += 1

    def test_svg_is_wellformed_with_one_polyline_per_group(self, curves):
        buf = io.StringIO()
        export_km_svg(curves, buf)
        root = ET.fromstring(buf.getvalue())
        assert root.tag.endswith("svg")
        polys = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(polys) == len(curves)
        texts = [e.text for e in root.iter() if e.tag.endswith("text")]
        for c in curves:
            assert c.label in texts

    def test_svg_cumulative_flips_vertical_anchor(self, curves):
        flat = io.StringIO()
        cum = io.StringIO()
        export_km_svg(curves, flat, cumulative=False)
        export_km_svg(curves, cum, cumulative=True)
        assert "cumulative risk" in cum.getvalue()
        assert "cumulative risk" not in flat.getvalue()

        def first_y(svg):
            root = ET.fromstring(svg)
            poly = next(e for e in root.iter() if e.tag.endswith("polyline"))
            return float(poly.attrib["points"].split()[0].split(",")[1])

        # survival starts at the top of the axis, risk at the bottom
        assert first_y(flat.getvalue()) < first_y(cum.getvalue())
