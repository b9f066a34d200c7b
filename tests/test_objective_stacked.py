"""Properties of the stacked Diverse Density objective.

The batched objective keeps every positive and negative instance in one
matrix and slices its distance tensor per side.  These properties pin what
the training engines rely on: rows are restart-slice stable on both the
general and the unit-weight path, the unit-weight path has the bits of
``value_and_grad(t, ones)``, and the column slices land on the right bags.
Bag sets use non-dyadic (normal) draws and include sets without negative
bags and bags of one instance.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.bags.bag import Bag, BagSet
from repro.core.objective import (
    _P_EPS,
    BatchedDiverseDensityObjective,
    batched_weighted_distances,
)


@st.composite
def batched_problem(draw):
    """A bag set plus ``R`` concepts and weights."""
    n_dims = draw(st.integers(min_value=1, max_value=6))
    n_pos = draw(st.integers(min_value=1, max_value=4))
    n_neg = draw(st.integers(min_value=0, max_value=3))
    max_instances = draw(st.integers(min_value=1, max_value=5))
    batch = draw(st.integers(min_value=1, max_value=16))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    bag_set = BagSet()
    for index in range(n_pos + n_neg):
        count = int(rng.integers(1, max_instances + 1))
        bag_set.add(
            Bag(
                instances=rng.normal(0.3, 2.0, size=(count, n_dims)),
                label=index < n_pos,
                bag_id=f"b{index}",
            )
        )
    t = rng.normal(0.0, 1.5, size=(batch, n_dims))
    w = rng.uniform(0.05, 2.0, size=(batch, n_dims))
    return bag_set, t, w


@given(batched_problem())
@settings(max_examples=80, deadline=None)
def test_rows_equal_single_row_calls(problem):
    bag_set, t, w = problem
    objective = BatchedDiverseDensityObjective(bag_set)
    values, grad_t, grad_w = objective.value_and_grad(t, w)
    unit_values, unit_grad = objective.value_and_grad_unit(t)
    for row in range(t.shape[0]):
        one = slice(row, row + 1)
        row_values, row_gt, row_gw = objective.value_and_grad(t[one], w[one])
        assert row_values[0] == values[row]
        assert np.array_equal(row_gt[0], grad_t[row])
        assert np.array_equal(row_gw[0], grad_w[row])
        row_unit, row_unit_grad = objective.value_and_grad_unit(t[one])
        assert row_unit[0] == unit_values[row]
        assert np.array_equal(row_unit_grad[0], unit_grad[row])


@given(batched_problem())
@settings(max_examples=80, deadline=None)
def test_unit_path_matches_general_path_at_ones(problem):
    bag_set, t, _ = problem
    objective = BatchedDiverseDensityObjective(bag_set)
    values, grad_t, _ = objective.value_and_grad(t, np.ones_like(t))
    unit_values, unit_grad = objective.value_and_grad_unit(t)
    np.testing.assert_allclose(unit_values, values, rtol=1e-12)
    np.testing.assert_allclose(unit_grad, grad_t, rtol=1e-12)
    # Both engines and the scipy oracle rely on the stronger, bitwise form.
    assert np.array_equal(unit_values, values)
    assert np.array_equal(unit_grad, grad_t)


def per_bag_probabilities(bag_set: BagSet, t: np.ndarray, w: np.ndarray):
    """``Pr(t|B)`` bag by bag, each from its own instances.

    The loop uses the objective's distance expansion, so it checks the
    stacking, the column slices and the bag boundaries rather than the
    expansion's rounding (``test_objective.py`` checks that against the
    direct form).
    """
    pos, neg = [], []
    for bag in bag_set.bags:
        x = bag.instances
        p = np.exp(-batched_weighted_distances(x, x * x, t, w))
        log_q = np.log1p(-np.clip(p, 0.0, 1.0 - _P_EPS)).sum(axis=1)
        if bag.label:
            pos.append(-np.expm1(log_q))
        else:
            neg.append(np.exp(log_q))
    batch = t.shape[0]
    return (
        np.stack(pos, axis=1),
        np.stack(neg, axis=1) if neg else np.ones((batch, 0)),
    )


@given(batched_problem())
@settings(max_examples=80, deadline=None)
def test_bag_probabilities_match_per_bag_loop(problem):
    bag_set, t, w = problem
    objective = BatchedDiverseDensityObjective(bag_set)
    pos, neg = objective.bag_probabilities(t, w)
    want_pos, want_neg = per_bag_probabilities(bag_set, t, w)
    assert pos.shape == want_pos.shape and neg.shape == want_neg.shape
    np.testing.assert_allclose(pos, want_pos, rtol=1e-12)
    np.testing.assert_allclose(neg, want_neg, rtol=1e-12)
