"""Unit tests for the unconstrained minimisers."""

import sys
import threading

import numpy as np
import pytest
from scipy import optimize as scipy_optimize

from repro.core import optimizer as optimizer_module
from repro.core.optimizer import (
    ArmijoGradientDescent,
    LBFGSOptimizer,
    LockstepLBFGSB,
    make_minimizer,
)
from repro.core.projection import SLSQPBackend
from repro.errors import OptimizationError


def quadratic(center: np.ndarray, scales: np.ndarray):
    def fun(x: np.ndarray):
        diff = x - center
        value = float(0.5 * (scales * diff * diff).sum())
        grad = scales * diff
        return value, grad

    return fun


def rosenbrock(x: np.ndarray):
    value = float(100 * (x[1] - x[0] ** 2) ** 2 + (1 - x[0]) ** 2)
    grad = np.array(
        [
            -400 * x[0] * (x[1] - x[0] ** 2) - 2 * (1 - x[0]),
            200 * (x[1] - x[0] ** 2),
        ]
    )
    return value, grad


@pytest.mark.parametrize("backend", ["armijo", "lbfgs"])
class TestMinimizers:
    def test_quadratic_minimum(self, backend):
        center = np.array([1.0, -2.0, 0.5])
        minimizer = make_minimizer(backend, max_iterations=500)
        outcome = minimizer.minimize(quadratic(center, np.ones(3)), np.zeros(3))
        np.testing.assert_allclose(outcome.x, center, atol=1e-3)
        assert outcome.value == pytest.approx(0.0, abs=1e-6)

    def test_anisotropic_quadratic(self, backend):
        center = np.array([3.0, -1.0])
        scales = np.array([100.0, 1.0])
        minimizer = make_minimizer(backend, max_iterations=2000)
        outcome = minimizer.minimize(quadratic(center, scales), np.array([0.0, 0.0]))
        np.testing.assert_allclose(outcome.x, center, atol=1e-2)

    def test_starts_at_minimum(self, backend):
        center = np.array([1.0, 1.0])
        minimizer = make_minimizer(backend)
        outcome = minimizer.minimize(quadratic(center, np.ones(2)), center.copy())
        assert outcome.value == pytest.approx(0.0, abs=1e-12)
        assert outcome.converged

    def test_monotone_improvement(self, backend):
        fun = quadratic(np.array([2.0, 2.0]), np.ones(2))
        start_value, _ = fun(np.zeros(2))
        minimizer = make_minimizer(backend, max_iterations=50)
        outcome = minimizer.minimize(fun, np.zeros(2))
        assert outcome.value <= start_value


class TestArmijo:
    def test_rosenbrock_progress(self):
        # Full convergence on Rosenbrock takes many steps; verify solid
        # progress and finiteness.
        minimizer = ArmijoGradientDescent(max_iterations=2000, gradient_tolerance=1e-8)
        outcome = minimizer.minimize(rosenbrock, np.array([-1.2, 1.0]))
        assert outcome.value < 1.0

    def test_invalid_config_rejected(self):
        with pytest.raises(OptimizationError):
            ArmijoGradientDescent(max_iterations=0)
        with pytest.raises(OptimizationError):
            ArmijoGradientDescent(backtrack_factor=1.5)
        with pytest.raises(OptimizationError):
            ArmijoGradientDescent(armijo_c=0.0)

    def test_nonfinite_start_raises(self):
        def bad(x):
            return np.nan, np.zeros_like(x)

        with pytest.raises(OptimizationError):
            ArmijoGradientDescent().minimize(bad, np.zeros(2))

    def test_lbfgs_nonfinite_start_raises(self):
        # Both backends must reject a NaN starting objective instead of
        # handing scipy a poisoned line search.
        def bad(x):
            return np.nan, np.zeros_like(x)

        with pytest.raises(OptimizationError):
            LBFGSOptimizer().minimize(bad, np.zeros(2))

    def test_iteration_cap_respected(self):
        minimizer = ArmijoGradientDescent(max_iterations=3, gradient_tolerance=0.0)
        outcome = minimizer.minimize(rosenbrock, np.array([-1.2, 1.0]))
        assert outcome.n_iterations <= 3

    def test_works_with_nongradient_directions(self):
        # The alpha-hack feeds a damped (non-gradient) field; Armijo must
        # still make progress because it is a descent direction.
        center = np.array([1.0, 1.0, 1.0])

        def damped(x):
            value, grad = quadratic(center, np.ones(3))(x)
            grad = grad.copy()
            grad[2] /= 50.0
            return value, grad

        outcome = ArmijoGradientDescent(max_iterations=3000).minimize(
            damped, np.zeros(3)
        )
        assert outcome.value < 1e-4


def kinked(x: np.ndarray):
    """Non-smooth ``sum |x - 0.3|``: line searches fail near the kink."""
    diff = x - 0.3
    return float(np.abs(diff).sum()), np.sign(diff)


def scipy_lbfgsb(fun, x0: np.ndarray, max_iterations: int, gtol: float = 1e-6):
    """The public scipy entry point the solver must reproduce bit for bit."""
    return scipy_optimize.minimize(
        fun, x0, jac=True, method="L-BFGS-B",
        options={"maxiter": max_iterations, "gtol": gtol},
    )


def assert_matches_scipy(outcome, result, max_iterations: int) -> None:
    assert np.array_equal(outcome.x, result.x)
    assert outcome.value == result.fun  # bitwise, no tolerance
    assert outcome.n_iterations == result.nit
    assert outcome.converged == (bool(result.success) or result.nit >= max_iterations)


class TestLBFGS:
    def test_rosenbrock_converges(self):
        minimizer = LBFGSOptimizer(max_iterations=500)
        outcome = minimizer.minimize(rosenbrock, np.array([-1.2, 1.0]))
        np.testing.assert_allclose(outcome.x, [1.0, 1.0], atol=1e-4)

    def test_invalid_config_rejected(self):
        with pytest.raises(OptimizationError):
            LBFGSOptimizer(max_iterations=0)
        with pytest.raises(OptimizationError):
            LockstepLBFGSB(max_iterations=0)

    @pytest.mark.parametrize(
        ("fun", "x0", "max_iterations"),
        [
            (rosenbrock, [-1.2, 1.0], 500),
            (rosenbrock, [-1.2, 1.0], 7),  # stops on the iteration cap
            (quadratic(np.array([1.0, -2.0, 3.0]), np.array([1.0, 10.0, 100.0])),
             [0.1, 0.2, 0.3], 200),
            (kinked, [1.7, -0.4, 2.2, 0.9], 200),  # ends on a failed line search
        ],
        ids=["rosenbrock", "rosenbrock-capped", "quadratic", "kinked"],
    )
    def test_one_row_matches_scipy(self, fun, x0, max_iterations):
        x0 = np.asarray(x0, dtype=np.float64)
        outcome = LBFGSOptimizer(max_iterations).minimize(fun, x0)
        assert_matches_scipy(outcome, scipy_lbfgsb(fun, x0, max_iterations), max_iterations)

    @pytest.mark.parametrize("n_restarts", [1, 7, 45])
    def test_lockstep_rows_match_scipy(self, n_restarts):
        # More restarts than the lockstep width exercises slot reuse.
        rng = np.random.default_rng(n_restarts)
        z0 = rng.normal(0.0, 1.5, size=(n_restarts, 2))

        def batched(rows):
            pairs = [rosenbrock(row) for row in rows]
            return np.array([v for v, _ in pairs]), np.stack([g for _, g in pairs])

        z, values, masks = LockstepLBFGSB(max_iterations=60).minimize(batched, z0)
        for row in range(n_restarts):
            result = scipy_lbfgsb(rosenbrock, z0[row], 60)
            assert np.array_equal(z[row], result.x)
            assert values[row] == result.fun
            assert masks.n_iterations[row] == result.nit
            assert masks.converged[row] == (bool(result.success) or result.nit >= 60)
        assert not masks.pruned.any()
        assert optimizer_module.LBFGSB_LOCKSTEP_WIDTH < 45

    def test_lockstep_nonfinite_start_names_restart(self):
        def batched(rows):
            values = np.where(rows[:, 0] > 2.5, np.nan, (rows * rows).sum(axis=1))
            return values, 2.0 * rows

        z0 = np.arange(8, dtype=np.float64).reshape(4, 2)
        with pytest.raises(OptimizationError, match="restart 2"):
            LockstepLBFGSB().minimize(batched, z0)

    def test_prune_margin_freezes_dominated_restarts(self):
        # Rows started far from the minimum trail the incumbent at their
        # first new iterate and are frozen there, unconverged.
        def batched(rows):
            return 0.5 * (rows * rows).sum(axis=1), rows.copy()

        z0 = np.array([[0.1, 0.0], [30.0, 30.0], [0.0, 0.2], [-40.0, 10.0]])
        z, values, masks = LockstepLBFGSB().minimize(batched, z0, prune_margin=1.0)
        assert masks.pruned.tolist() == [False, True, False, True]
        assert not masks.converged[masks.pruned].any()
        assert values.argmin() in (0, 2)


@pytest.fixture
def scipy_blas():
    """scipy's bundled OpenBLAS thread-count getter, at 2 threads for the test.

    Two threads make the pin observable on a one-core runner too; the count
    found before the test is restored after it.
    """
    found = optimizer_module._find_scipy_openblas()
    if found is None:
        pytest.skip("scipy links no bundled OpenBLAS")
    set_threads, get_threads = found
    before = get_threads()
    set_threads(2)
    try:
        yield get_threads
    finally:
        set_threads(before)


def spying_quadratic(get_threads, seen: list, barrier=None):
    """Batched ``0.5 |z|^2`` that records scipy's BLAS thread count per call."""

    def batched(rows):
        if barrier is not None and not seen:
            barrier.wait(timeout=30)  # every fit is inside its solver
        seen.append(get_threads())
        return 0.5 * (rows * rows).sum(axis=1), rows.copy()

    return batched


class TestScipyBlasPin:
    def test_one_thread_inside_fit_and_restored_after(self, scipy_blas):
        get_threads = scipy_blas
        saved = get_threads()
        seen: list[int] = []
        z0 = np.arange(12, dtype=np.float64).reshape(3, 4)
        LockstepLBFGSB().minimize(spying_quadratic(get_threads, seen), z0)
        assert seen and set(seen) == {1}
        assert get_threads() == saved

    def test_slsqp_runs_pinned(self, scipy_blas):
        get_threads = scipy_blas
        saved = get_threads()
        seen: list[int] = []

        def fun(t, w):
            seen.append(get_threads())
            return float(t @ t + w @ w), 2.0 * t, 2.0 * w

        SLSQPBackend(beta=0.5, max_iterations=20).minimize(fun, np.ones(3), np.ones(3))
        # Every call scipy made; the backend's own final evaluation is outside.
        assert len(seen) > 1 and set(seen[:-1]) == {1}
        assert get_threads() == saved

    def test_concurrent_fits_restore_saved_count(self, scipy_blas):
        # More fitting threads than cores, all inside a solver at once, with
        # frequent thread switches: a lost update of the shared pin would
        # leave a fit unpinned or the count unrestored.
        get_threads = scipy_blas
        saved = get_threads()
        n_fits = 4
        barrier = threading.Barrier(n_fits)
        seen: list[list[int]] = [[] for _ in range(n_fits)]
        finished: list[int] = []

        def fit(index):
            z0 = np.full((2, 3), float(index + 1))
            LockstepLBFGSB().minimize(spying_quadratic(get_threads, seen[index], barrier), z0)
            finished.append(index)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=fit, args=(i,)) for i in range(n_fits)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(finished) == list(range(n_fits))
        assert all(calls and set(calls) == {1} for calls in seen)
        assert get_threads() == saved

    def test_fit_without_openblas_is_bitwise_the_same(self, scipy_blas, monkeypatch):
        get_threads = scipy_blas
        rng = np.random.default_rng(5)
        z0 = rng.normal(0.0, 1.5, size=(9, 2))

        def batched(rows):
            pairs = [rosenbrock(row) for row in rows]
            return np.array([v for v, _ in pairs]), np.stack([g for _, g in pairs])

        pinned = LockstepLBFGSB(max_iterations=60).minimize(batched, z0)
        monkeypatch.setattr(optimizer_module, "_find_scipy_openblas", lambda: None)
        seen: list[int] = []
        LockstepLBFGSB().minimize(spying_quadratic(get_threads, seen), z0)
        assert set(seen) == {get_threads()} != {1}  # the helper did nothing
        unpinned = LockstepLBFGSB(max_iterations=60).minimize(batched, z0)
        assert np.array_equal(pinned[0], unpinned[0])
        assert np.array_equal(pinned[1], unpinned[1])
        assert np.array_equal(pinned[2].n_iterations, unpinned[2].n_iterations)
        assert np.array_equal(pinned[2].converged, unpinned[2].converged)


class TestFactory:
    def test_unknown_backend(self):
        with pytest.raises(OptimizationError):
            make_minimizer("newton")

    def test_known_backends(self):
        assert isinstance(make_minimizer("armijo"), ArmijoGradientDescent)
        assert isinstance(make_minimizer("lbfgs"), LBFGSOptimizer)
