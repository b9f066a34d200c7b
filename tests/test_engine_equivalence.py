"""Lockstep training: every restart has the bits of its solver run alone.

The trainer steps all restarts of a fit in lockstep, one batched objective
evaluation per step.  That is an execution strategy, not an approximation:
row by row, a lockstep run over all starts must give the bits of the same
scheme's solver run on that start alone (``scheme.optimize``, the one-row
view of the same solver), which proves that no restart leaks into another.
This suite asserts that property-based over random bag sets when
`hypothesis` is installed, plus deterministic coverage of the edge shapes
(single positive bag, stride-thinned starts, warm starts), restart pruning,
and the per-start path of schemes with no lockstep solver (SLSQP, custom).

The per-start Armijo and projected-gradient views are themselves checked
bitwise against short reference loops written out below, as `rank_by_loop`
serves ranking; `scipy.optimize.minimize(method="L-BFGS-B")` is the L-BFGS-B
oracle.
"""

import numpy as np
import pytest
from scipy import optimize as scipy_optimize

from repro.bags.bag import Bag, BagSet
from repro.core.concept import LearnedConcept
from repro.core.diverse_density import (
    DiverseDensityTrainer,
    ExtraStart,
    StartRecord,
    TrainerConfig,
    TrainingResult,
    select_restart_points,
)
from repro.core.emdd import EMDDConfig, EMDDTrainer
from repro.core.objective import BatchedDiverseDensityObjective, DiverseDensityObjective
from repro.core.optimizer import ArmijoGradientDescent, OptimizationOutcome, row_dots
from repro.core.projection import (
    ConstrainedOutcome,
    ProjectedGradientDescent,
    project_weights,
)
from repro.core.schemes import (
    AlphaHackScheme,
    IdenticalWeightsScheme,
    InequalityScheme,
    OriginalDDScheme,
    SchemeResult,
    WeightScheme,
)
from repro.errors import OptimizationError, TrainingError
from tests.conftest import make_planted_bag_set

#: The paper schemes on every backend that has a lockstep solver.
EQUIVALENT_SCHEMES = {
    "identical-armijo": lambda: IdenticalWeightsScheme(
        max_iterations=60, backend="armijo"
    ),
    "original-armijo": lambda: OriginalDDScheme(max_iterations=60, backend="armijo"),
    "alpha-hack": lambda: AlphaHackScheme(alpha=25.0, max_iterations=60),
    "inequality-projected": lambda: InequalityScheme(beta=0.5, max_iterations=60),
    "identical-lbfgs": lambda: IdenticalWeightsScheme(max_iterations=60, backend="lbfgs"),
    "original-lbfgs": lambda: OriginalDDScheme(max_iterations=60, backend="lbfgs"),
}
#: The L-BFGS-B schemes, by name, with a configurable iteration cap.
LBFGS_SCHEMES = {
    "identical": lambda cap: IdenticalWeightsScheme(max_iterations=cap, backend="lbfgs"),
    "original": lambda cap: OriginalDDScheme(max_iterations=cap, backend="lbfgs"),
}


def random_bag_set(
    seed: int, n_dims: int, n_positive: int, n_negative: int, max_instances: int
) -> BagSet:
    """An arbitrary labelled bag set (no planted structure required)."""
    rng = np.random.default_rng(seed)
    bag_set = BagSet()
    for index in range(n_positive):
        count = int(rng.integers(1, max_instances + 1))
        bag_set.add(
            Bag(
                instances=rng.normal(0.0, 2.0, size=(count, n_dims)),
                label=True,
                bag_id=f"pos-{index}",
            )
        )
    for index in range(n_negative):
        count = int(rng.integers(1, max_instances + 1))
        bag_set.add(
            Bag(
                instances=rng.normal(1.0, 2.0, size=(count, n_dims)),
                label=False,
                bag_id=f"neg-{index}",
            )
        )
    return bag_set


def train_alone(
    bag_set: BagSet,
    scheme: WeightScheme,
    stride: int = 1,
    subset: int | None = None,
    extra_starts: tuple[ExtraStart, ...] = (),
) -> TrainingResult:
    """Every start of the trainer's population through ``scheme.optimize`` alone."""
    objective = DiverseDensityObjective(bag_set)
    starts = select_restart_points(
        bag_set, subset=subset, stride=stride, seed=0, extra_starts=extra_starts
    )
    records, results = [], []
    for bag_id, instance_index, t0, w0 in starts:
        result = scheme.optimize(objective, t0, w0=w0)
        results.append(result)
        records.append(
            StartRecord(
                bag_id=bag_id,
                instance_index=instance_index,
                value=result.value,
                n_iterations=result.n_iterations,
                converged=result.converged,
            )
        )
    best = min(
        (r for r in results if np.isfinite(r.value)), key=lambda r: r.value
    )
    return TrainingResult(
        concept=LearnedConcept(t=best.t, w=best.w, nll=best.value),
        starts=tuple(records),
        n_starts=len(records),
    )


def train_both(
    bag_set: BagSet,
    scheme: WeightScheme,
    stride: int = 1,
    subset: int | None = None,
    extra_starts: tuple[ExtraStart, ...] = (),
) -> tuple[TrainingResult, TrainingResult]:
    """All starts through the trainer, and each start through its solver alone."""
    trainer = DiverseDensityTrainer(
        TrainerConfig(
            scheme=scheme, start_instance_stride=stride, start_bag_subset=subset
        )
    )
    together = trainer.train(bag_set, extra_starts=extra_starts)
    alone = train_alone(bag_set, scheme, stride, subset, extra_starts)
    return together, alone


def assert_bit_identical(together: TrainingResult, alone: TrainingResult) -> None:
    """Every observable of the two runs must match exactly."""
    assert together.n_starts == alone.n_starts
    for left, right in zip(together.starts, alone.starts):
        assert left.bag_id == right.bag_id
        assert left.instance_index == right.instance_index
        assert left.value == right.value  # bitwise, no tolerance
        assert left.n_iterations == right.n_iterations
        assert left.converged == right.converged
        assert left.pruned == right.pruned
    assert together.concept.nll == alone.concept.nll
    assert np.array_equal(together.concept.t, alone.concept.t)
    assert np.array_equal(together.concept.w, alone.concept.w)
    assert together.best_start.bag_id == alone.best_start.bag_id
    assert together.best_start.instance_index == alone.best_start.instance_index


class TestEngineEquivalence:
    @pytest.mark.parametrize("scheme_name", sorted(EQUIVALENT_SCHEMES))
    def test_planted_problem(self, scheme_name):
        bag_set, _ = make_planted_bag_set(n_dims=4, seed=31)
        together, alone = train_both(bag_set, EQUIVALENT_SCHEMES[scheme_name]())
        assert_bit_identical(together, alone)

    @pytest.mark.parametrize("scheme_name", sorted(EQUIVALENT_SCHEMES))
    def test_single_positive_bag(self, scheme_name):
        bag_set = random_bag_set(
            seed=5, n_dims=3, n_positive=1, n_negative=2, max_instances=5
        )
        together, alone = train_both(bag_set, EQUIVALENT_SCHEMES[scheme_name]())
        assert_bit_identical(together, alone)

    @pytest.mark.parametrize("scheme_name", sorted(EQUIVALENT_SCHEMES))
    def test_stride_thinned_starts(self, scheme_name):
        bag_set = random_bag_set(
            seed=6, n_dims=4, n_positive=4, n_negative=3, max_instances=7
        )
        together, alone = train_both(
            bag_set, EQUIVALENT_SCHEMES[scheme_name](), stride=3
        )
        assert_bit_identical(together, alone)

    def test_start_bag_subset(self):
        bag_set = random_bag_set(
            seed=7, n_dims=3, n_positive=5, n_negative=2, max_instances=4
        )
        together, alone = train_both(
            bag_set, InequalityScheme(beta=0.5, max_iterations=60), subset=2
        )
        assert_bit_identical(together, alone)

    def test_warm_start_extra_restart(self):
        bag_set = random_bag_set(
            seed=8, n_dims=3, n_positive=3, n_negative=2, max_instances=4
        )
        extra = (ExtraStart(t=np.zeros(3), w=np.full(3, 0.5)),)
        together, alone = train_both(
            bag_set, InequalityScheme(beta=0.5, max_iterations=60), extra_starts=extra
        )
        assert_bit_identical(together, alone)
        assert together.starts[-1].bag_id == "warm-start"
        assert together.starts[-1].instance_index == -1

    def test_no_negative_bags(self):
        bag_set = random_bag_set(
            seed=9, n_dims=3, n_positive=3, n_negative=0, max_instances=4
        )
        together, alone = train_both(
            bag_set, IdenticalWeightsScheme(max_iterations=60, backend="armijo")
        )
        assert_bit_identical(together, alone)


class TestEMDDEngineEquivalence:
    @pytest.mark.parametrize("inner_scheme", ["identical", "inequality"])
    def test_bit_identical(self, inner_scheme):
        # Each restart's EM loop, run alone, must give the bits of its row
        # in the lockstep run over all restarts.
        bag_set, _ = make_planted_bag_set(n_positive=4, seed=33)
        trainer = EMDDTrainer(EMDDConfig(inner_scheme=inner_scheme))
        together = trainer.train(bag_set)
        objective = BatchedDiverseDensityObjective(bag_set)
        starts = select_restart_points(bag_set, subset=None, stride=1, seed=0)
        assert together.n_starts == len(starts)
        best = None
        for start, record in zip(starts, together.starts):
            (alone,), concept = trainer._train_lockstep(bag_set, objective, [start])
            assert alone == record  # every field, value bitwise
            if best is None or concept[0] < best[0]:
                best = concept
        assert together.concept.nll == best[0]
        assert np.array_equal(together.concept.t, best[1])
        assert np.array_equal(together.concept.w, best[2])


class TestObjectiveSliceStability:
    def test_subset_rows_bitwise_equal(self):
        # The foundation of lockstep training: evaluating any subset of
        # restarts must reproduce the corresponding rows of the full batch.
        bag_set = random_bag_set(
            seed=11, n_dims=5, n_positive=4, n_negative=3, max_instances=6
        )
        objective = BatchedDiverseDensityObjective(bag_set)
        rng = np.random.default_rng(12)
        t = rng.normal(size=(9, 5))
        w = rng.uniform(0.1, 1.0, size=(9, 5))
        values, grad_t, grad_w = objective.value_and_grad(t, w)
        for rows in ([0], [8], [1, 4, 7], [0, 2, 3, 5, 8]):
            sel = np.asarray(rows)
            sub_values, sub_gt, sub_gw = objective.value_and_grad(t[sel], w[sel])
            assert np.array_equal(sub_values, values[sel])
            assert np.array_equal(sub_gt, grad_t[sel])
            assert np.array_equal(sub_gw, grad_w[sel])


class TestRestartPruning:
    def make_result(self, margin):
        bag_set, _ = make_planted_bag_set(n_positive=4, seed=35)
        trainer = DiverseDensityTrainer(
            TrainerConfig(
                scheme=IdenticalWeightsScheme(max_iterations=100, backend="armijo"),
                restart_prune_margin=margin,
            )
        )
        return trainer.train(bag_set)

    def test_margin_prunes_and_is_recorded(self):
        pruned = self.make_result(margin=0.0)
        if pruned.n_starts_pruned == 0:
            pytest.skip("no restart dominated on this problem")
        assert pruned.n_starts_pruned == sum(1 for r in pruned.starts if r.pruned)
        assert pruned.concept.metadata["n_starts_pruned"] == pruned.n_starts_pruned
        for record in pruned.starts:
            if record.pruned:
                assert not record.converged

    def test_best_start_never_pruned(self):
        pruned = self.make_result(margin=0.0)
        assert not pruned.best_start.pruned

    def test_huge_margin_matches_unpruned(self):
        unpruned = self.make_result(margin=None)
        slack = self.make_result(margin=1e12)
        assert slack.n_starts_pruned == 0
        assert_bit_identical(unpruned, slack)

    def test_pruning_speeds_up_iterations(self):
        unpruned = self.make_result(margin=None)
        pruned = self.make_result(margin=0.0)
        total = lambda result: sum(r.n_iterations for r in result.starts)  # noqa: E731
        assert total(pruned) <= total(unpruned)

    def test_per_start_schemes_ignore_margin(self):
        # A scheme with no lockstep solver runs one start at a time, so
        # there is no population to prune.
        bag_set, _ = make_planted_bag_set(n_positive=3, seed=36)
        for scheme in (
            InequalityScheme(beta=0.5, max_iterations=40, backend="slsqp"),
            _ShiftedIdenticalScheme(),
        ):
            config = TrainerConfig(scheme=scheme, restart_prune_margin=0.0)
            result = DiverseDensityTrainer(config).train(bag_set)
            assert result.n_starts_pruned == 0
            assert not any(record.pruned for record in result.starts)

    def test_invalid_margin_rejected(self):
        with pytest.raises(TrainingError):
            TrainerConfig(restart_prune_margin=-1.0)


class TestLBFGSRestartPruning:
    def train(self, margin, scheme="identical"):
        bag_set, _ = make_planted_bag_set(n_positive=4, seed=35)
        trainer = DiverseDensityTrainer(
            TrainerConfig(
                scheme=LBFGS_SCHEMES[scheme](100),
                restart_prune_margin=margin,
            )
        )
        return trainer.train(bag_set)

    @pytest.mark.parametrize("scheme", sorted(LBFGS_SCHEMES))
    def test_margin_prunes_and_keeps_best_concept(self, scheme):
        unpruned = self.train(None, scheme)
        pruned = self.train(1.0, scheme)
        assert unpruned.n_starts_pruned == 0
        assert pruned.n_starts_pruned > 0
        assert pruned.concept.metadata["n_starts_pruned"] == pruned.n_starts_pruned
        for record in pruned.starts:
            if record.pruned:
                assert not record.converged
                assert record.value > pruned.concept.nll
        assert not pruned.best_start.pruned
        assert pruned.concept.nll == min(record.value for record in pruned.starts)
        # Pruning may let a different restart win, but on this planted
        # problem it reaches the same optimum with fewer iterations.
        assert pruned.concept.nll == pytest.approx(unpruned.concept.nll, abs=1e-9)
        total = lambda result: sum(r.n_iterations for r in result.starts)  # noqa: E731
        assert total(pruned) < total(unpruned)

    def test_huge_margin_matches_unpruned(self):
        unpruned = self.train(None)
        slack = self.train(1e12)
        assert slack.n_starts_pruned == 0
        assert_bit_identical(unpruned, slack)


class TestNonFiniteStart:
    @pytest.mark.parametrize("scheme", sorted(EQUIVALENT_SCHEMES))
    @pytest.mark.parametrize("path", ["trainer", "alone"])
    def test_nonfinite_start_raises_optimization_error(self, scheme, path):
        # A NaN warm start poisons the objective at its starting point; the
        # trainer and a per-start solve must both refuse it with the typed
        # error, not hand the line search a NaN.
        bag_set, _ = make_planted_bag_set(n_positive=2, seed=41)
        poisoned = ExtraStart(t=np.full(bag_set.n_dims, np.nan))
        with pytest.raises(OptimizationError, match="non-finite at the starting point"):
            if path == "trainer":
                trainer = DiverseDensityTrainer(
                    TrainerConfig(scheme=EQUIVALENT_SCHEMES[scheme]())
                )
                trainer.train(bag_set, extra_starts=(poisoned,))
            else:
                EQUIVALENT_SCHEMES[scheme]().optimize(
                    DiverseDensityObjective(bag_set), poisoned.t
                )


class TestExtraStartValidation:
    @pytest.mark.parametrize(
        "extra",
        [
            ExtraStart(t=np.zeros(4), w=-np.ones(4)),
            ExtraStart(t=np.zeros(4), w=np.ones(3)),
            ExtraStart(t=np.zeros(3)),
            ExtraStart(t=np.zeros(5), w=np.ones(4)),
        ],
        ids=["negative-w", "short-w", "short-t", "long-t"],
    )
    @pytest.mark.parametrize(
        "trainer",
        [
            lambda: DiverseDensityTrainer(TrainerConfig(scheme="identical")),
            lambda: EMDDTrainer(EMDDConfig(inner_scheme="identical")),
        ],
        ids=["dd", "emdd"],
    )
    def test_malformed_extra_start_raises_training_error(self, trainer, extra):
        # Both trainers share one restart policy, and it checks every extra
        # start before any solver runs.
        bag_set, _ = make_planted_bag_set(n_dims=4, n_positive=2, seed=42)
        with pytest.raises(TrainingError, match="extra start"):
            trainer().train(bag_set, extra_starts=(extra,))


class TestTrainedConceptOwnsData:
    @pytest.mark.parametrize("scheme", sorted(EQUIVALENT_SCHEMES))
    def test_concept_does_not_pin_restart_matrices(self, scheme):
        # A concept lives on in caches and sessions; a view into the
        # (R, d) restart matrix would keep the whole matrix alive.
        bag_set, _ = make_planted_bag_set(n_positive=3, seed=40)
        concept = DiverseDensityTrainer(
            TrainerConfig(scheme=EQUIVALENT_SCHEMES[scheme]())
        ).train(bag_set).concept
        for array in (concept.t, concept.w):
            assert array.base is None
            assert array.flags.owndata
            assert array.nbytes == bag_set.n_dims * 8


class _ShiftedIdenticalScheme(WeightScheme):
    """A custom scheme: it has no lockstep solver."""

    name = "custom-shifted"

    def optimize(self, objective, t0, w0=None) -> SchemeResult:
        ones = np.ones(objective.n_dims)
        t = np.asarray(t0, dtype=np.float64).reshape(-1)
        return SchemeResult(
            t=t, w=ones, value=objective.value(t, ones), n_iterations=0, converged=True
        )


class TestCustomSchemeFallback:
    def test_batched_engine_falls_back_to_sequential(self):
        # A custom scheme runs its own optimize on one start at a time.
        bag_set, _ = make_planted_bag_set(n_positive=2, seed=37)
        together, alone = train_both(bag_set, _ShiftedIdenticalScheme())
        assert_bit_identical(together, alone)

    @pytest.mark.parametrize(
        "scheme_factory",
        [
            lambda: IdenticalWeightsScheme(max_iterations=60, backend="lbfgs"),
            lambda: OriginalDDScheme(max_iterations=60, backend="lbfgs"),
            lambda: InequalityScheme(beta=0.5, max_iterations=40, backend="slsqp"),
        ],
        ids=["identical-lbfgs", "original-lbfgs", "inequality-slsqp"],
    )
    def test_quasi_newton_backends_fall_back(self, scheme_factory):
        # L-BFGS-B runs in lockstep through the same reverse-communication
        # solver as the per-start path, so it batches without changing a
        # bit; SLSQP has no lockstep solver and keeps its per-start
        # trajectory instead of being silently swapped for another solver.
        bag_set, _ = make_planted_bag_set(n_positive=3, seed=38)
        together, alone = train_both(bag_set, scheme_factory())
        assert_bit_identical(together, alone)

    def test_armijo_backend_uses_batched_engine(self, monkeypatch):
        # Every paper scheme on a backend with a lockstep solver trains
        # without one per-start call.
        bag_set, _ = make_planted_bag_set(n_positive=2, seed=39)

        def per_start(*args, **kwargs):
            raise AssertionError("the trainer fell back to the per-start path")

        for factory in EQUIVALENT_SCHEMES.values():
            scheme = factory()
            monkeypatch.setattr(scheme, "optimize", per_start)
            result = DiverseDensityTrainer(TrainerConfig(scheme=scheme)).train(bag_set)
            assert result.n_starts == sum(
                bag.n_instances for bag in bag_set.positive_bags
            )


# --------------------------------------------------------------------- #
# Reference steps: each descent rule written out for one start           #
# --------------------------------------------------------------------- #


def reference_armijo(
    fun, x0, max_iterations=200, gtol=1e-5, step0=1.0, rho=0.5, c=1e-4, max_backtracks=40
) -> OptimizationOutcome:
    """Steepest descent with backtracking line search, one start."""
    x = np.array(x0, dtype=np.float64)
    value, grad = fun(x)
    step = step0
    for iteration in range(max_iterations):
        if np.abs(grad).max(initial=0.0) <= gtol:
            return OptimizationOutcome(x, value, iteration, converged=True)
        direction = -grad
        slope = row_dots(grad[None], direction[None])[0]
        trial = step
        for _ in range(max_backtracks):
            candidate = x + trial * direction
            cand_value, cand_grad = fun(candidate)
            if np.isfinite(cand_value) and cand_value <= value + c * trial * slope:
                break
            trial *= rho
        else:
            # No representable step improves the objective.
            return OptimizationOutcome(x, value, iteration, converged=True)
        x, value, grad = candidate, cand_value, cand_grad
        step = min(step0, trial / rho)
    return OptimizationOutcome(x, value, max_iterations, converged=False)


def reference_projected(
    fun, t0, w0, beta, max_iterations=200, gtol=1e-5, step0=0.5, rho=0.5, max_backtracks=40
) -> ConstrainedOutcome:
    """Projected gradient with backtracking on the projection arc, one start."""
    t = np.array(t0, dtype=np.float64)
    w = project_weights(w0, beta)
    value, grad_t, grad_w = fun(t, w)
    for iteration in range(max_iterations):
        step = step0
        for _ in range(max_backtracks):
            cand_t = t - step * grad_t
            cand_w = project_weights(w - step * grad_w, beta)
            move_t, move_w = cand_t - t, cand_w - w
            move_norm2 = (
                row_dots(move_t[None], move_t[None])[0]
                + row_dots(move_w[None], move_w[None])[0]
            )
            if move_norm2 <= gtol**2:
                return ConstrainedOutcome(t, w, value, iteration, converged=True)
            cand_value, cand_gt, cand_gw = fun(cand_t, cand_w)
            if np.isfinite(cand_value) and cand_value <= value - 1e-4 / step * move_norm2:
                break
            step *= rho
        else:
            return ConstrainedOutcome(t, w, value, iteration, converged=True)
        t, w, value, grad_t, grad_w = cand_t, cand_w, cand_value, cand_gt, cand_gw
    return ConstrainedOutcome(t, w, value, max_iterations, converged=False)


def armijo_rule(objective: DiverseDensityObjective, rule: str):
    """A scheme's unconstrained field and its start map, by name."""
    n = objective.n_dims
    if rule == "unit":
        return objective.value_and_grad_unit, lambda t0: t0
    alpha = 25.0 if rule == "damped" else 1.0

    def fun(z):
        value, grad_t, grad_s = objective.value_and_grad_squared(
            z[:n], z[n:], alpha=alpha
        )
        return value, np.concatenate([grad_t, grad_s])

    return fun, lambda t0: np.concatenate([t0, np.ones(n)])


def assert_same_outcome(solver, reference) -> None:
    """Two per-start outcomes agree bit for bit, field by field."""
    for field in reference.__dataclass_fields__:
        left, right = getattr(solver, field), getattr(reference, field)
        if isinstance(right, np.ndarray):
            assert np.array_equal(left, right), field
        else:
            assert left == right, field


class TestReferenceSteps:
    """The one-start views of the lockstep solvers against the rules above."""

    @pytest.mark.parametrize("rule", ["unit", "squared", "damped"])
    @pytest.mark.parametrize("cap", [1, 7, 200])
    def test_armijo_matches_reference(self, rule, cap):
        bag_set = random_bag_set(seed=50, n_dims=4, n_positive=3, n_negative=2, max_instances=5)
        objective = DiverseDensityObjective(bag_set)
        fun, start = armijo_rule(objective, rule)
        for bag in bag_set.positive_bags:
            x0 = start(bag.instances[0])
            solver = ArmijoGradientDescent(max_iterations=cap).minimize(fun, x0)
            assert_same_outcome(solver, reference_armijo(fun, x0, max_iterations=cap))

    def test_armijo_failed_line_search_matches_reference(self):
        # A curvature no trial step survives: both give up at iteration 0.
        def steep(x):
            return float(1e6 * x @ x), 2e6 * x

        x0 = np.array([1.0, -2.0])
        solver = ArmijoGradientDescent(max_backtracks=3).minimize(steep, x0)
        reference = reference_armijo(steep, x0, max_backtracks=3)
        assert_same_outcome(solver, reference)
        assert (solver.n_iterations, solver.converged) == (0, True)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("cap", [1, 7, 200])
    def test_projected_matches_reference(self, beta, cap):
        bag_set = random_bag_set(seed=51, n_dims=4, n_positive=3, n_negative=2, max_instances=5)
        objective = DiverseDensityObjective(bag_set)
        rng = np.random.default_rng(52)
        for bag in bag_set.positive_bags:
            t0, w0 = bag.instances[0], rng.uniform(0.0, 1.5, bag_set.n_dims)
            solver = ProjectedGradientDescent(beta, max_iterations=cap).minimize(
                objective.value_and_grad, t0, w0
            )
            reference = reference_projected(
                objective.value_and_grad, t0, w0, beta, max_iterations=cap
            )
            assert_same_outcome(solver, reference)


# --------------------------------------------------------------------- #
# Property-based sweep (skipped cleanly when hypothesis is absent)       #
# --------------------------------------------------------------------- #

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_dims=st.integers(min_value=1, max_value=6),
    n_positive=st.integers(min_value=1, max_value=4),
    n_negative=st.integers(min_value=0, max_value=3),
    max_instances=st.integers(min_value=1, max_value=6),
    stride=st.integers(min_value=1, max_value=3),
    scheme_name=st.sampled_from(sorted(EQUIVALENT_SCHEMES)),
)
def test_property_engines_bit_identical(
    seed, n_dims, n_positive, n_negative, max_instances, stride, scheme_name
):
    bag_set = random_bag_set(seed, n_dims, n_positive, n_negative, max_instances)
    together, alone = train_both(
        bag_set, EQUIVALENT_SCHEMES[scheme_name](), stride=stride
    )
    assert_bit_identical(together, alone)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_dims=st.integers(min_value=1, max_value=6),
    batch=st.integers(min_value=1, max_value=12),
)
def test_property_objective_slice_stable(seed, n_dims, batch):
    rng = np.random.default_rng(seed)
    bag_set = random_bag_set(seed + 1, n_dims, 3, 2, 5)
    objective = BatchedDiverseDensityObjective(bag_set)
    t = rng.normal(size=(batch, n_dims))
    w = rng.uniform(0.0, 1.5, size=(batch, n_dims))
    values, grad_t, grad_w = objective.value_and_grad(t, w)
    row = int(rng.integers(0, batch))
    sub_values, sub_gt, sub_gw = objective.value_and_grad(
        t[row : row + 1], w[row : row + 1]
    )
    assert sub_values[0] == values[row]
    assert np.array_equal(sub_gt[0], grad_t[row])
    assert np.array_equal(sub_gw[0], grad_w[row])


def scheme_fun(objective: DiverseDensityObjective, scheme: str):
    """The scalar function and start map the scheme hands its minimiser."""
    n = objective.n_dims
    if scheme == "identical":
        ones = np.ones(n)

        def fun(t):
            value, grad_t, _ = objective.value_and_grad(t, ones)
            return value, grad_t

        return fun, lambda t0: t0

    def fun(z):
        value, grad_t, grad_s = objective.value_and_grad_squared(z[:n], z[n:])
        return value, np.concatenate([grad_t, grad_s])

    return fun, lambda t0: np.concatenate([t0, np.ones(n)])


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_dims=st.integers(min_value=1, max_value=7),
    n_positive=st.integers(min_value=1, max_value=4),
    n_negative=st.integers(min_value=0, max_value=3),
    max_instances=st.integers(min_value=1, max_value=6),
    max_iterations=st.integers(min_value=1, max_value=40),
    n_extra=st.integers(min_value=0, max_value=2),
    scheme=st.sampled_from(sorted(LBFGS_SCHEMES)),
)
def test_property_lbfgs_engines_bit_identical(
    seed, n_dims, n_positive, n_negative, max_instances, max_iterations, n_extra, scheme
):
    # Non-dyadic data (normal draws): every restart of the lockstep run
    # must match its solver run alone bit for bit, and that the public
    # scipy entry point.
    bag_set = random_bag_set(seed, n_dims, n_positive, n_negative, max_instances)
    rng = np.random.default_rng(seed + 7)
    extra = tuple(
        ExtraStart(t=rng.normal(0.5, 1.5, n_dims), w=rng.uniform(0.2, 1.3, n_dims))
        for _ in range(n_extra)
    )
    together, alone = train_both(
        bag_set, LBFGS_SCHEMES[scheme](max_iterations), extra_starts=extra
    )
    assert_bit_identical(together, alone)

    objective = DiverseDensityObjective(bag_set)
    fun, start = scheme_fun(objective, scheme)
    bag = bag_set.positive_bags[0]
    x0 = start(bag.instances[0].copy())
    result = scipy_optimize.minimize(
        fun, x0, jac=True, method="L-BFGS-B",
        options={"maxiter": max_iterations, "gtol": 1e-6},
    )
    record = alone.starts[0]
    assert (record.bag_id, record.instance_index) == (bag.bag_id, 0)
    assert record.value == result.fun
    assert record.n_iterations == result.nit
    assert record.converged == (bool(result.success) or result.nit >= max_iterations)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_dims=st.integers(min_value=1, max_value=6),
    n_negative=st.integers(min_value=0, max_value=3),
    cap=st.integers(min_value=1, max_value=60),
    rule=st.sampled_from(["unit", "squared", "damped", "projected"]),
    beta=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
)
def test_property_one_start_views_match_reference(seed, n_dims, n_negative, cap, rule, beta):
    # The width-1 lockstep solvers must take the written-out rule's steps,
    # bit for bit, on non-dyadic data.
    bag_set = random_bag_set(seed, n_dims, 2, n_negative, 5)
    objective = DiverseDensityObjective(bag_set)
    rng = np.random.default_rng(seed + 3)
    t0 = rng.normal(0.0, 2.0, n_dims)
    if rule == "projected":
        w0 = rng.uniform(0.0, 1.5, n_dims)
        solver = ProjectedGradientDescent(beta, max_iterations=cap).minimize(
            objective.value_and_grad, t0, w0
        )
        reference = reference_projected(
            objective.value_and_grad, t0, w0, beta, max_iterations=cap
        )
    else:
        fun, start = armijo_rule(objective, rule)
        solver = ArmijoGradientDescent(max_iterations=cap).minimize(fun, start(t0))
        reference = reference_armijo(fun, start(t0), max_iterations=cap)
    assert_same_outcome(solver, reference)
