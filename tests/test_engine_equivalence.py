"""Batched vs sequential training-engine equivalence.

The batched engine is a pure execution-strategy change: stepping all
restarts in lockstep must return *bit-identical* best concepts and
per-start values to running the same solver one restart at a time.  This
suite asserts that — property-based over random bag sets when `hypothesis`
is installed, plus deterministic coverage of the edge shapes the issue
calls out (single positive bag, stride-thinned starts, warm starts) and of
the restart-pruning and fallback behaviours that are batched-only.

Equivalence holds on every solver backend the batched engine replicates:
`armijo` and `lbfgs` for the unconstrained schemes (L-BFGS-B runs through
one reverse-communication solver in both engines, itself checked against
the public `scipy.optimize.minimize`), `projected` for the inequality
scheme.  SLSQP has no lockstep twin and stays on the sequential path.
"""

import numpy as np
import pytest
from scipy import optimize as scipy_optimize

from repro.bags.bag import Bag, BagSet
from repro.core.diverse_density import (
    DiverseDensityTrainer,
    ExtraStart,
    TrainerConfig,
    TrainingResult,
)
from repro.core.emdd import EMDDConfig, EMDDTrainer
from repro.core.objective import BatchedDiverseDensityObjective, DiverseDensityObjective
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

#: Scheme factories whose batched solver replicates the sequential one.
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


def train_both(
    bag_set: BagSet,
    scheme: WeightScheme,
    stride: int = 1,
    subset: int | None = None,
    extra_starts: tuple[ExtraStart, ...] = (),
) -> tuple[TrainingResult, TrainingResult]:
    """The same configuration through both engines."""
    results = []
    for engine in ("batched", "sequential"):
        trainer = DiverseDensityTrainer(
            TrainerConfig(
                scheme=scheme,
                engine=engine,
                start_instance_stride=stride,
                start_bag_subset=subset,
            )
        )
        results.append(trainer.train(bag_set, extra_starts=extra_starts))
    return results[0], results[1]


def assert_bit_identical(batched: TrainingResult, sequential: TrainingResult) -> None:
    """Every observable of the two runs must match exactly."""
    assert batched.n_starts == sequential.n_starts
    for left, right in zip(batched.starts, sequential.starts):
        assert left.bag_id == right.bag_id
        assert left.instance_index == right.instance_index
        assert left.value == right.value  # bitwise, no tolerance
        assert left.n_iterations == right.n_iterations
        assert left.converged == right.converged
    assert batched.concept.nll == sequential.concept.nll
    assert np.array_equal(batched.concept.t, sequential.concept.t)
    assert np.array_equal(batched.concept.w, sequential.concept.w)
    assert batched.best_start.bag_id == sequential.best_start.bag_id
    assert batched.best_start.instance_index == sequential.best_start.instance_index


class TestEngineEquivalence:
    @pytest.mark.parametrize("scheme_name", sorted(EQUIVALENT_SCHEMES))
    def test_planted_problem(self, scheme_name):
        bag_set, _ = make_planted_bag_set(n_dims=4, seed=31)
        batched, sequential = train_both(bag_set, EQUIVALENT_SCHEMES[scheme_name]())
        assert_bit_identical(batched, sequential)

    @pytest.mark.parametrize("scheme_name", sorted(EQUIVALENT_SCHEMES))
    def test_single_positive_bag(self, scheme_name):
        bag_set = random_bag_set(
            seed=5, n_dims=3, n_positive=1, n_negative=2, max_instances=5
        )
        batched, sequential = train_both(bag_set, EQUIVALENT_SCHEMES[scheme_name]())
        assert_bit_identical(batched, sequential)

    @pytest.mark.parametrize("scheme_name", sorted(EQUIVALENT_SCHEMES))
    def test_stride_thinned_starts(self, scheme_name):
        bag_set = random_bag_set(
            seed=6, n_dims=4, n_positive=4, n_negative=3, max_instances=7
        )
        batched, sequential = train_both(
            bag_set, EQUIVALENT_SCHEMES[scheme_name](), stride=3
        )
        assert_bit_identical(batched, sequential)

    def test_start_bag_subset(self):
        bag_set = random_bag_set(
            seed=7, n_dims=3, n_positive=5, n_negative=2, max_instances=4
        )
        batched, sequential = train_both(
            bag_set, InequalityScheme(beta=0.5, max_iterations=60), subset=2
        )
        assert_bit_identical(batched, sequential)

    def test_warm_start_extra_restart(self):
        bag_set = random_bag_set(
            seed=8, n_dims=3, n_positive=3, n_negative=2, max_instances=4
        )
        extra = (ExtraStart(t=np.zeros(3), w=np.full(3, 0.5)),)
        batched, sequential = train_both(
            bag_set, InequalityScheme(beta=0.5, max_iterations=60), extra_starts=extra
        )
        assert_bit_identical(batched, sequential)
        assert batched.starts[-1].bag_id == "warm-start"
        assert batched.starts[-1].instance_index == -1

    def test_no_negative_bags(self):
        bag_set = random_bag_set(
            seed=9, n_dims=3, n_positive=3, n_negative=0, max_instances=4
        )
        batched, sequential = train_both(
            bag_set, IdenticalWeightsScheme(max_iterations=60, backend="armijo")
        )
        assert_bit_identical(batched, sequential)


class TestEMDDEngineEquivalence:
    @pytest.mark.parametrize("inner_scheme", ["identical", "inequality"])
    def test_bit_identical(self, inner_scheme):
        # The M-steps run per restart in both engines, so EM-DD equivalence
        # holds even on the default L-BFGS inner backend.
        bag_set, _ = make_planted_bag_set(n_positive=4, seed=33)
        results = []
        for engine in ("batched", "sequential"):
            trainer = EMDDTrainer(
                EMDDConfig(inner_scheme=inner_scheme, engine=engine)
            )
            results.append(trainer.train(bag_set))
        assert_bit_identical(results[0], results[1])


class TestObjectiveSliceStability:
    def test_subset_rows_bitwise_equal(self):
        # The foundation of engine equivalence: evaluating any subset of
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
                engine="batched",
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

    def test_sequential_engine_ignores_margin(self):
        bag_set, _ = make_planted_bag_set(n_positive=3, seed=36)
        config = TrainerConfig(
            scheme="identical", engine="sequential", restart_prune_margin=0.0
        )
        result = DiverseDensityTrainer(config).train(bag_set)
        assert result.n_starts_pruned == 0

    def test_invalid_margin_rejected(self):
        with pytest.raises(TrainingError):
            TrainerConfig(restart_prune_margin=-1.0)

    def test_invalid_engine_rejected(self):
        with pytest.raises(TrainingError):
            TrainerConfig(engine="warp-drive")
        with pytest.raises(TrainingError):
            EMDDConfig(engine="warp-drive")


class TestLBFGSRestartPruning:
    def train(self, margin, scheme="identical"):
        bag_set, _ = make_planted_bag_set(n_positive=4, seed=35)
        trainer = DiverseDensityTrainer(
            TrainerConfig(
                scheme=LBFGS_SCHEMES[scheme](100),
                engine="batched",
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
    @pytest.mark.parametrize("scheme", sorted(LBFGS_SCHEMES))
    @pytest.mark.parametrize("engine", ["batched", "sequential"])
    def test_nonfinite_start_raises_optimization_error(self, scheme, engine):
        # A NaN warm start poisons the objective at its starting point; both
        # engines must refuse it with the typed error, not hand the line
        # search a NaN.
        bag_set, _ = make_planted_bag_set(n_positive=2, seed=41)
        trainer = DiverseDensityTrainer(
            TrainerConfig(scheme=LBFGS_SCHEMES[scheme](30), engine=engine)
        )
        poisoned = (ExtraStart(t=np.full(bag_set.n_dims, np.nan)),)
        with pytest.raises(OptimizationError, match="non-finite at the starting point"):
            trainer.train(bag_set, extra_starts=poisoned)


class TestTrainedConceptOwnsData:
    @pytest.mark.parametrize("scheme", sorted(EQUIVALENT_SCHEMES))
    def test_concept_does_not_pin_restart_matrices(self, scheme):
        # A concept lives on in caches and sessions; a view into the
        # (R, d) restart matrix would keep the whole matrix alive.
        bag_set, _ = make_planted_bag_set(n_positive=3, seed=40)
        concept = DiverseDensityTrainer(
            TrainerConfig(scheme=EQUIVALENT_SCHEMES[scheme](), engine="batched")
        ).train(bag_set).concept
        for array in (concept.t, concept.w):
            assert array.base is None
            assert array.flags.owndata
            assert array.nbytes == bag_set.n_dims * 8


class _ShiftedIdenticalScheme(WeightScheme):
    """A custom scheme the batched engine cannot recognise."""

    name = "custom-shifted"

    def optimize(self, objective, t0, w0=None) -> SchemeResult:
        ones = np.ones(objective.n_dims)
        t = np.asarray(t0, dtype=np.float64).reshape(-1)
        return SchemeResult(
            t=t, w=ones, value=objective.value(t, ones), n_iterations=0, converged=True
        )


class TestCustomSchemeFallback:
    def test_batched_engine_falls_back_to_sequential(self):
        bag_set, _ = make_planted_bag_set(n_positive=2, seed=37)
        scheme = _ShiftedIdenticalScheme()
        batched = DiverseDensityTrainer(
            TrainerConfig(scheme=scheme, engine="batched")
        ).train(bag_set)
        sequential = DiverseDensityTrainer(
            TrainerConfig(scheme=scheme, engine="sequential")
        ).train(bag_set)
        assert_bit_identical(batched, sequential)
        assert batched.concept.metadata["engine"] == "sequential"

    @pytest.mark.parametrize(
        ("scheme_factory", "engine"),
        [
            (lambda: IdenticalWeightsScheme(max_iterations=60, backend="lbfgs"), "batched"),
            (lambda: OriginalDDScheme(max_iterations=60, backend="lbfgs"), "batched"),
            (
                lambda: InequalityScheme(beta=0.5, max_iterations=40, backend="slsqp"),
                "sequential",
            ),
        ],
        ids=["identical-lbfgs", "original-lbfgs", "inequality-slsqp"],
    )
    def test_quasi_newton_backends_fall_back(self, scheme_factory, engine):
        # L-BFGS-B runs in lockstep through the same reverse-communication
        # solver as the per-start path, so it batches without changing a
        # bit; SLSQP has no lockstep twin and keeps its sequential
        # trajectory instead of being silently swapped for another solver.
        bag_set, _ = make_planted_bag_set(n_positive=3, seed=38)
        batched, sequential = train_both(bag_set, scheme_factory())
        assert_bit_identical(batched, sequential)
        assert batched.concept.metadata["engine"] == engine

    def test_armijo_backend_uses_batched_engine(self):
        bag_set, _ = make_planted_bag_set(n_positive=2, seed=39)
        result = DiverseDensityTrainer(
            TrainerConfig(
                scheme=IdenticalWeightsScheme(max_iterations=60, backend="armijo"),
                engine="batched",
            )
        ).train(bag_set)
        assert result.concept.metadata["engine"] == "batched"


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
    batched, sequential = train_both(
        bag_set, EQUIVALENT_SCHEMES[scheme_name](), stride=stride
    )
    assert_bit_identical(batched, sequential)


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
    # Non-dyadic data (normal draws): every restart of the lockstep solver
    # must match the per-start path bit for bit, and the per-start path the
    # public scipy entry point.
    bag_set = random_bag_set(seed, n_dims, n_positive, n_negative, max_instances)
    rng = np.random.default_rng(seed + 7)
    extra = tuple(
        ExtraStart(t=rng.normal(0.5, 1.5, n_dims), w=rng.uniform(0.2, 1.3, n_dims))
        for _ in range(n_extra)
    )
    batched, sequential = train_both(
        bag_set, LBFGS_SCHEMES[scheme](max_iterations), extra_starts=extra
    )
    assert_bit_identical(batched, sequential)
    assert batched.concept.metadata["engine"] == "batched"

    objective = DiverseDensityObjective(bag_set)
    fun, start = scheme_fun(objective, scheme)
    bag = bag_set.positive_bags[0]
    x0 = start(bag.instances[0].copy())
    result = scipy_optimize.minimize(
        fun, x0, jac=True, method="L-BFGS-B",
        options={"maxiter": max_iterations, "gtol": 1e-6},
    )
    record = sequential.starts[0]
    assert (record.bag_id, record.instance_index) == (bag.bag_id, 0)
    assert record.value == result.fun
    assert record.n_iterations == result.nit
    assert record.converged == (bool(result.success) or result.nit >= max_iterations)
