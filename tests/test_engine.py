"""The batched damped-Newton driver shared by every fit."""

import numpy as np

from wcox._engine import _COX_LIMITS, _damped_newton


def _problems(x, rows, seen):
    """Four one-parameter problems, one per row: 0 converges (maximum at
    3), 1 is monotone (diverges), 2 has a zero information (singular) and
    3 climbs against its score (step-halving fails)."""
    seen.append(rows.tolist())
    x = x[:, 0]
    loglik = np.select(
        [rows == 0, rows == 1, rows == 2],
        [-((x - 3.0) ** 2), -np.log1p(np.exp(-x)), np.zeros_like(x)],
        -1.0 - 100.0 * np.abs(x),
    )
    score = np.select(
        [rows == 0, rows == 1, rows == 2],
        [-2.0 * (x - 3.0), 1.0 / (1.0 + np.exp(x)), np.ones_like(x)],
        np.ones_like(x),
    )
    info = np.select(
        [rows == 0, rows == 1, rows == 2],
        [np.full_like(x, 2.0), np.exp(x) / (1.0 + np.exp(x)) ** 2, np.zeros_like(x)],
        np.full_like(x, 2.0),
    )
    return loglik, score[:, None], info[:, None, None]


def test_each_row_is_its_own_newton_run():
    seen = []
    x, values, iterations, gnorm, errors = _damped_newton(
        lambda x, rows: _problems(x, rows, seen), np.zeros((4, 1)), 1e-9, _COX_LIMITS
    )
    # every row on its own gives the same iterate, count and outcome
    for r in range(4):
        alone = _damped_newton(
            lambda x, _: _problems(x, np.array([r]), []), np.zeros((1, 1)), 1e-9,
            _COX_LIMITS,
        )
        np.testing.assert_array_equal(alone[0][0], x[r])
        assert alone[2][0] == iterations[r]
        assert str(alone[4][0]) == str(errors[r])
    assert errors[0] is None and x[0, 0] == 3.0 and gnorm[0] == 0.0
    assert "diverged" in str(errors[1])
    assert "singular" in str(errors[2])
    assert "step-halving" in str(errors[3])
    # a row that failed is never evaluated again
    for r, message in ((1, "diverged"), (2, "singular"), (3, "step-halving")):
        last = max(k for k, rows in enumerate(seen) if r in rows)
        assert all(r not in rows for rows in seen[last + 1:]), message
    assert seen[0] == [0, 1, 2, 3] and seen[1] == [0, 1, 3]


def test_per_row_tolerance_and_stall():
    # one problem twice; its information is overstated 100-fold, so each
    # step closes 1% of the gap and 50 iterations leave 0.99^50 of it.
    # Row 0 starts within its tolerance, row 1 runs out of iterations.
    def evaluate(x, rows):
        x = x[:, 0]
        return -((x - 1.0) ** 2), (-2.0 * (x - 1.0))[:, None], np.full((x.size, 1, 1), 200.0)

    x, _, iterations, gnorm, errors = _damped_newton(
        evaluate, np.zeros((2, 1)), np.array([3.0, 1e-9]), _COX_LIMITS
    )
    assert errors[0] is None and iterations[0] == 0 and x[0, 0] == 0.0
    assert iterations[1] == 50
    np.testing.assert_allclose(gnorm[1], 2.0 * 0.99**50, rtol=1e-12)
    assert "no convergence within 50 Newton iterations" in str(errors[1])
