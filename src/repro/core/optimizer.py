"""Unconstrained minimisers used by the Diverse Density trainer.

Two interchangeable backends minimise a smooth ``f: R^n -> R`` given a
``value_and_grad`` callable:

* :class:`ArmijoGradientDescent` — the bespoke substrate: steepest descent
  with backtracking (Armijo) line search.  This mirrors the "simple
  unconstrained minimization algorithm used in the original DD method"
  (Section 3.6.3) and has no dependencies beyond numpy.
* :class:`LBFGSOptimizer` — scipy's L-BFGS-B, much faster on the ~200-dim
  problems of the paper; the default for experiments.

Both return an :class:`OptimizationOutcome` so callers never need to care
which backend ran.

Each backend is one row of a solver that steps any number of restarts in
lockstep, and that solver holds the rule's only descent loop:
:class:`BatchedArmijoDescent` for Armijo descent and :class:`LockstepLBFGSB`
for L-BFGS-B.  The trainer (:mod:`repro.core.engine`) hands them every
restart at once; the per-start classes serve EM-DD's M-steps and callers
with one start.  :class:`LockstepLBFGSB` calls scipy's reverse-communication
routine ``setulb`` directly and replays the loop of
``scipy.optimize.minimize(method="L-BFGS-B")`` step for step.

scipy's solvers call BLAS (``setulb`` calls ``dtrsm``) through scipy's own
bundled OpenBLAS, a separate library from numpy's.  That build runs even a
20x20 ``dtrsm`` on several threads whose workers then busy-wait, so an
unpinned fit burns two cores for one core of work.  Every scipy solve in
this package therefore runs under :func:`_one_blas_thread`.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import mmap
import os
import threading
from dataclasses import dataclass
from typing import Callable, Iterator, Protocol

import numpy as np
import scipy
from scipy.optimize import _lbfgsb

from repro.errors import OptimizationError

#: ``value_and_grad`` signature shared by all backends.
ValueAndGrad = Callable[[np.ndarray], tuple[float, np.ndarray]]
#: Batched ``value_and_grad`` over ``(K, m)`` row subsets of the restarts.
BatchedValueAndGrad = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

#: The L-BFGS-B settings :class:`LBFGSOptimizer` has always run with: the
#: defaults of ``scipy.optimize.minimize(method="L-BFGS-B")`` (memory size,
#: relative reduction ``ftol``, line-search steps, evaluation budget).
LBFGSB_MAXCOR = 10
LBFGSB_FTOL = 2.2204460492503131e-09
LBFGSB_MAXLS = 20
LBFGSB_MAXFUN = 15000
#: ``factr`` as ``_minimize_lbfgsb`` derives it from ``ftol``.
_FACTR = LBFGSB_FTOL / np.finfo(float).eps
#: Restarts :class:`LockstepLBFGSB` keeps in flight.  Wider batches cost
#: less Python per evaluation but hold more ``(K, n_instances)`` objective
#: temporaries and ~29 KiB of L-BFGS-B workspace per restart (d = 100), and
#: a fit's peak stays resident in the allocator arena of every serving
#: thread that ran one.  On the interactive serving benchmark (2 vCPUs,
#: 3 runs each, stacked objective, scipy's BLAS at one thread) widths
#: 10 / 14 / 20 served 13.6 / 15.1 / 17.2 ops/s at 129.6 / 130.8 /
#: 132.6 MiB peak RSS.  Peak RSS there grows with throughput, and 20 puts
#: it 8.6% over the 122.1 MiB of the unstacked, unpinned objective at
#: width 14, close to the benchmark's 10% bound; 14 keeps the margin.
LBFGSB_LOCKSTEP_WIDTH = 14

# ``setulb`` task codes (``task[0]``) and the stop reasons the solver sets
# itself (``task[1]``), as in ``scipy.optimize._lbfgsb_py``.
_START, _NEW_X, _FG, _CONVERGENCE, _STOP = 0, 1, 3, 4, 5
_MAXFUN_REACHED, _MAXITER_REACHED = 502, 504


#: ``(setter, getter)`` symbol pairs of the thread count, newest build first.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


@functools.cache
def _find_scipy_openblas() -> tuple[Callable[[int], None], Callable[[], int]] | None:
    """``(set_num_threads, get_num_threads)`` of scipy's bundled OpenBLAS.

    ``None`` when scipy links no bundled OpenBLAS (a system BLAS, another
    vendor) or it exports none of the known symbols.
    """
    package = os.path.dirname(scipy.__file__)
    paths = sorted(
        glob.glob(os.path.join(os.path.dirname(package), "scipy.libs", "*openblas*"))
        + glob.glob(os.path.join(package, ".dylibs", "*openblas*"))
    )
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for setter, getter in _OPENBLAS_THREAD_SYMBOLS:
            set_threads = getattr(library, setter, None)
            get_threads = getattr(library, getter, None)
            if set_threads is not None and get_threads is not None:
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                return set_threads, get_threads
    return None


_PIN_LOCK = threading.Lock()
#: Fits currently inside :func:`_one_blas_thread`, and the thread count the
#: first of them found.
_pin_depth = 0
_pin_saved = 1


@contextlib.contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Hold scipy's bundled OpenBLAS at one thread while a solver runs.

    OpenBLAS's thread count is process-global (its per-thread override is
    too, in pthreads builds), so concurrent fits share one pin: the first
    to enter saves the count and sets 1, the last to leave restores it.
    numpy's BLAS is untouched; without a bundled OpenBLAS this does nothing.
    """
    global _pin_depth, _pin_saved
    threads = _find_scipy_openblas()
    if threads is None:
        yield
        return
    set_threads, get_threads = threads
    with _PIN_LOCK:
        if _pin_depth == 0:
            _pin_saved = get_threads()
            set_threads(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _PIN_LOCK:
            _pin_depth -= 1
            if _pin_depth == 0:
                set_threads(_pin_saved)


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row dot products of two ``(R, m)`` matrices.

    Implemented with :func:`numpy.einsum` so every row's accumulation order
    is independent of the batch composition: a lockstep solver gives each
    restart the scalars it would get running alone.
    """
    return np.einsum("rm,rm->r", a, b)


class RestartMasks:
    """Per-restart bookkeeping shared by the lockstep solvers."""

    def __init__(self, n_restarts: int, max_iterations: int) -> None:
        self.active = np.ones(n_restarts, dtype=bool)
        self.converged = np.zeros(n_restarts, dtype=bool)
        self.pruned = np.zeros(n_restarts, dtype=bool)
        self.n_iterations = np.full(n_restarts, max_iterations, dtype=np.int64)

    def finish(self, rows: np.ndarray, iteration: int, converged: bool) -> None:
        """Retire ``rows`` at ``iteration`` with the given convergence flag."""
        self.converged[rows] = converged
        self.n_iterations[rows] = iteration
        self.active[rows] = False

    def prune(
        self,
        values: np.ndarray,
        iteration: int,
        margin: float | None,
        rows: np.ndarray | None = None,
    ) -> None:
        """Freeze active restarts dominated by the incumbent best.

        The incumbent is the best value over *all* restarts — finished ones
        included — so a restart that converged early still thins the rest
        of the population.  ``rows`` limits the candidates (default: every
        active restart), for solvers whose restarts reach iteration
        boundaries one at a time.
        """
        if margin is None or not self.active.any():
            return
        rows = np.flatnonzero(self.active) if rows is None else np.asarray(rows)
        doomed = rows[self.active[rows] & (values[rows] > values.min() + margin)]
        if doomed.size:
            self.pruned[doomed] = True
            self.finish(doomed, iteration, converged=False)


def check_start_values(values: np.ndarray, rows: np.ndarray | None = None) -> None:
    """Raise if any starting objective value is non-finite.

    Raises:
        OptimizationError: naming the first offending restart (its index
            in ``rows`` when given, else its position in ``values``).
    """
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        restart = bad if rows is None else int(rows[bad])
        raise OptimizationError(
            f"objective is non-finite at the starting point (restart {restart})"
        )


@dataclass(frozen=True)
class OptimizationOutcome:
    """Result of one local minimisation.

    Attributes:
        x: the final point.
        value: objective value at ``x``.
        n_iterations: iterations (or function evaluations for L-BFGS) used.
        converged: whether the backend's stopping criterion was met (as
            opposed to hitting the iteration cap).
    """

    x: np.ndarray
    value: float
    n_iterations: int
    converged: bool


class Minimizer(Protocol):
    """Anything that can locally minimise a smooth function from a start."""

    def minimize(self, fun: ValueAndGrad, x0: np.ndarray) -> OptimizationOutcome:
        """Run the minimisation from ``x0``."""
        ...  # pragma: no cover - protocol


def _minimize_one_row(
    solver: BatchedArmijoDescent | LockstepLBFGSB, fun: ValueAndGrad, x0: np.ndarray
) -> OptimizationOutcome:
    """Run a lockstep ``solver`` on the single start ``x0``."""

    def one_row(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        value, grad = fun(points[0])
        # A copy: the solver updates its gradient rows in place.
        grads = np.array(grad, dtype=np.float64).reshape(1, -1)
        return np.array([value], dtype=np.float64), grads

    start = np.asarray(x0, dtype=np.float64).reshape(1, -1)
    z, values, masks = solver.minimize(one_row, start)
    return OptimizationOutcome(
        x=z[0],
        value=float(values[0]),
        n_iterations=int(masks.n_iterations[0]),
        converged=bool(masks.converged[0]),
    )


class BatchedArmijoDescent:
    """Steepest descent with backtracking line search, restarts in lockstep.

    Every restart keeps its own step-size memory and runs its own acceptance
    tests; all still-searching restarts are evaluated through one batched
    objective call per backtrack level.  :class:`ArmijoGradientDescent` is
    this solver on one row.

    Args:
        max_iterations: hard cap on outer iterations.
        gradient_tolerance: stop a restart when ``||grad||_inf`` falls below
            this.
        initial_step: first step size tried at each iteration.
        backtrack_factor: multiplicative step reduction on rejection.
        armijo_c: sufficient-decrease constant in ``(0, 1)``.
        max_backtracks: line-search evaluations per iteration before a
            restart gives up on its direction (treated as convergence).
    """

    def __init__(
        self,
        max_iterations: int = 200,
        gradient_tolerance: float = 1e-5,
        initial_step: float = 1.0,
        backtrack_factor: float = 0.5,
        armijo_c: float = 1e-4,
        max_backtracks: int = 40,
    ) -> None:
        if max_iterations < 1:
            raise OptimizationError(f"max_iterations must be >= 1, got {max_iterations}")
        if not 0 < backtrack_factor < 1:
            raise OptimizationError(f"backtrack_factor must be in (0, 1), got {backtrack_factor}")
        if not 0 < armijo_c < 1:
            raise OptimizationError(f"armijo_c must be in (0, 1), got {armijo_c}")
        self._max_iterations = max_iterations
        self._gtol = gradient_tolerance
        self._step0 = initial_step
        self._rho = backtrack_factor
        self._c = armijo_c
        self._max_backtracks = max_backtracks

    def minimize(
        self,
        fun: BatchedValueAndGrad,
        z0: np.ndarray,
        prune_margin: float | None = None,
    ) -> tuple[np.ndarray, np.ndarray, RestartMasks]:
        """Minimise all rows of ``z0``; returns ``(z, values, masks)``.

        Raises:
            OptimizationError: if any restart's objective is non-finite at
                its starting point.
        """
        z = np.array(z0, dtype=np.float64)
        n_restarts = z.shape[0]
        values, grads = fun(z)
        check_start_values(values)
        step = np.full(n_restarts, self._step0)
        masks = RestartMasks(n_restarts, self._max_iterations)

        for iteration in range(self._max_iterations):
            if not masks.active.any():
                break
            masks.prune(values, iteration, prune_margin)
            rows = np.flatnonzero(masks.active)
            if rows.size == 0:
                break
            grad_norm = np.abs(grads[rows]).max(axis=1, initial=0.0)
            done = grad_norm <= self._gtol
            if done.any():
                masks.finish(rows[done], iteration, converged=True)
                rows = rows[~done]
                if rows.size == 0:
                    continue
            direction = -grads[rows]
            slope = row_dots(grads[rows], direction)  # = -||grad||^2 < 0
            trial = step[rows].copy()
            pending = np.arange(rows.size)
            for _ in range(self._max_backtracks):
                subset = rows[pending]
                candidate = z[subset] + trial[pending, None] * direction[pending]
                cand_values, cand_grads = fun(candidate)
                accept = np.isfinite(cand_values) & (
                    cand_values
                    <= values[subset] + self._c * trial[pending] * slope[pending]
                )
                if accept.any():
                    hit = subset[accept]
                    z[hit] = candidate[accept]
                    values[hit] = cand_values[accept]
                    grads[hit] = cand_grads[accept]
                    # Allow the step to grow back so a single hard iteration
                    # does not permanently shrink progress.
                    step[hit] = np.minimum(
                        self._step0, trial[pending[accept]] / self._rho
                    )
                pending = pending[~accept]
                if pending.size == 0:
                    break
                trial[pending] *= self._rho
            if pending.size:
                # No representable step improves these restarts: local optima
                # to machine precision for this method.
                masks.finish(rows[pending], iteration, converged=True)
        return z, values, masks


class ArmijoGradientDescent:
    """Steepest descent with backtracking line search on one start.

    One row of :class:`BatchedArmijoDescent`, so the per-start path and the
    lockstep trainer share one Armijo implementation.  Takes the same
    arguments.
    """

    def __init__(
        self,
        max_iterations: int = 200,
        gradient_tolerance: float = 1e-5,
        initial_step: float = 1.0,
        backtrack_factor: float = 0.5,
        armijo_c: float = 1e-4,
        max_backtracks: int = 40,
    ) -> None:
        self._lockstep = BatchedArmijoDescent(
            max_iterations, gradient_tolerance, initial_step,
            backtrack_factor, armijo_c, max_backtracks,
        )

    def minimize(self, fun: ValueAndGrad, x0: np.ndarray) -> OptimizationOutcome:
        """Minimise ``fun`` from ``x0``; see :class:`OptimizationOutcome`.

        Raises:
            OptimizationError: if the objective is non-finite at ``x0``.
        """
        return _minimize_one_row(self._lockstep, fun, x0)


class _SetulbSlots:
    """Workspaces of the restarts one :class:`LockstepLBFGSB` run has in flight.

    One slot is the state ``scipy.optimize._lbfgsb_py._minimize_lbfgsb``
    keeps for one run: the ``setulb`` arrays, the memoised last evaluation
    of its ``ScalarFunction`` (point, value, gradient), and its iteration
    and evaluation counters.  A finished restart's slot is zeroed and handed
    to the next one, so memory scales with the width, not with ``R``.
    """

    def __init__(self, width: int, n: int) -> None:
        m = LBFGSB_MAXCOR
        self.row = np.full(width, -1, dtype=np.int64)
        self.g = np.zeros((width, n))
        # The workspace (~29 KiB per slot at n = 100) gets its own anonymous
        # mapping, unmapped when the run ends.  From malloc it would stay
        # resident in the heap of every thread that ever fitted a concept.
        wa_size = 2 * m * n + 5 * n + 11 * m * m + 8 * m
        self._mapping = mmap.mmap(-1, width * wa_size * 8)
        self.wa = np.frombuffer(self._mapping, dtype=np.float64).reshape(width, wa_size)
        self.iwa = np.zeros((width, 3 * n), dtype=np.int32)
        self.task = np.zeros((width, 2), dtype=np.int32)
        self.ln_task = np.zeros((width, 2), dtype=np.int32)
        self.lsave = np.zeros((width, 4), dtype=np.int32)
        self.isave = np.zeros((width, 44), dtype=np.int32)
        self.dsave = np.zeros((width, 29))
        self.last_x = np.zeros((width, n))
        self.last_f = np.zeros(width)
        self.last_g = np.zeros((width, n))
        self.nfev = np.zeros(width, dtype=np.int64)
        self.nit = [0] * width
        #: Each slot's point (a row of the iterate matrix) and its
        #: ``setulb`` arguments after ``f`` and ``g``, built once per slot.
        self.x: list[np.ndarray | None] = [None] * width
        self.state = [
            (
                self.wa[slot], self.iwa[slot], self.task[slot], self.lsave[slot],
                self.isave[slot], self.dsave[slot], LBFGSB_MAXLS, self.ln_task[slot],
            )
            for slot in range(width)
        ]
        # Unbounded variables: every ``nbd`` is 0, the bounds are unused.
        self.bound = np.zeros(n)
        self.nbd = np.zeros(n, dtype=np.int32)

    def assign(self, slot: int, row: int, x: np.ndarray) -> None:
        """Give ``slot`` to restart ``row``, whose point is ``x``."""
        self.row[slot] = row
        self.x[slot] = x
        for array in (
            self.g, self.wa, self.iwa, self.task, self.ln_task,
            self.lsave, self.isave, self.dsave,
        ):
            array[slot] = 0
        # NaN equals nothing, so the first request is always evaluated.
        self.last_x[slot] = np.nan
        self.nfev[slot] = 0
        self.nit[slot] = 0


class LockstepLBFGSB:
    """scipy's L-BFGS-B on many restarts at once.

    ``setulb`` works by reverse communication: it returns whenever it needs
    the objective's value and gradient at a new point.  Every restart keeps
    its own ``setulb`` state, and each round answers all pending requests
    with one call to the batched ``fun``.  Row ``r`` therefore follows
    exactly the trajectory of::

        scipy.optimize.minimize(fun_r, z0[r], jac=True, method="L-BFGS-B",
                                options={"maxiter": max_iterations,
                                         "gtol": gradient_tolerance})

    whenever ``fun`` is restart-slice stable (row ``r`` of any batch has the
    bits of row ``r`` alone), as the Diverse Density objective is.  The
    solver replays that function's loop: the ``LBFGSB_*`` settings, an
    iteration counted at each new iterate with the ``maxiter`` and
    ``maxfun`` stops checked there, re-evaluation only at a point that
    differs from the last one, and the last value evaluated as the result
    (not the one ``setulb`` restores after a failed line search).

    At most :data:`LBFGSB_LOCKSTEP_WIDTH` restarts are in flight; the rest
    wait in order and start as slots free up.

    Args:
        max_iterations: per-restart iteration cap (``maxiter``).
        gradient_tolerance: projected-gradient tolerance (``gtol``).
    """

    def __init__(self, max_iterations: int = 200, gradient_tolerance: float = 1e-6) -> None:
        if max_iterations < 1:
            raise OptimizationError(f"max_iterations must be >= 1, got {max_iterations}")
        self._max_iterations = max_iterations
        self._gtol = gradient_tolerance

    def minimize(
        self,
        fun: BatchedValueAndGrad,
        z0: np.ndarray,
        prune_margin: float | None = None,
    ) -> tuple[np.ndarray, np.ndarray, RestartMasks]:
        """Minimise all rows of ``z0``; returns ``(z, values, masks)``.

        ``masks.converged`` is scipy's ``success`` or the iteration cap
        reached, as :class:`LBFGSOptimizer` has always reported it.  With
        ``prune_margin`` set, a restart is frozen at a new iterate whose
        value trails the incumbent best by more than the margin.

        Raises:
            OptimizationError: if a restart's objective is non-finite at its
                starting point, or a restart ends at a non-finite point.
        """
        z = np.array(np.atleast_2d(z0), dtype=np.float64)
        n_restarts, n = z.shape
        masks = RestartMasks(n_restarts, self._max_iterations)
        # Each restart's latest iterate value while it runs (the prune
        # incumbent), then its returned value; +inf until it starts.
        values = np.full(n_restarts, np.inf)
        if n_restarts == 0:
            return z, values, masks
        width = min(LBFGSB_LOCKSTEP_WIDTH, n_restarts)
        slots = _SetulbSlots(width, n)
        free = list(range(width - 1, -1, -1))
        waiting: list[int] = []
        next_row = 0
        with _one_blas_thread():
            while True:
                while free and next_row < n_restarts:
                    slot = free.pop()
                    slots.assign(slot, next_row, z[next_row])
                    waiting.append(slot)
                    next_row += 1
                if not waiting:
                    break
                pending = np.asarray(waiting)
                rows = slots.row[pending]
                points = z[rows]
                # Like scipy's ScalarFunction, evaluate only points that moved;
                # a new restart's start is evaluated before its routine runs.
                fresh = (points != slots.last_x[pending]).any(axis=1)
                if fresh.any():
                    moved = pending[fresh]
                    batch_values, batch_grads = fun(points[fresh])
                    starting = slots.nfev[moved] == 0
                    if starting.any():
                        check_start_values(batch_values[starting], rows[fresh][starting])
                        values[rows[fresh][starting]] = batch_values[starting]
                    slots.last_x[moved] = points[fresh]
                    slots.last_f[moved] = batch_values
                    slots.last_g[moved] = batch_grads
                    slots.nfev[moved] += 1
                # Answer the routines' requests; a new routine starts from zeros.
                asking = pending[slots.task[pending, 0] == _FG]
                slots.g[asking] = slots.last_g[asking]
                waiting = []
                for slot in pending.tolist():
                    if self._advance(slots, slot, values, masks, prune_margin):
                        waiting.append(slot)
                    else:
                        free.append(slot)
        if not np.all(np.isfinite(z)):
            raise OptimizationError("L-BFGS-B returned a non-finite point")
        return z, values, masks

    def _advance(
        self,
        slots: _SetulbSlots,
        slot: int,
        values: np.ndarray,
        masks: RestartMasks,
        prune_margin: float | None,
    ) -> bool:
        """Run one restart until it requests an evaluation (``True``) or ends.

        A pending request has already been answered into ``slots.g`` and
        ``slots.last_f``; a new restart's routine is at ``START``.
        """
        x, g, state = slots.x[slot], slots.g[slot], slots.state[slot]
        task = state[2]
        row = int(slots.row[slot])
        while True:
            f = 0.0 if task[0] == _START else float(slots.last_f[slot])
            _lbfgsb.setulb(
                LBFGSB_MAXCOR, x, slots.bound, slots.bound, slots.nbd,
                f, g, _FACTR, self._gtol, *state,
            )
            code = task[0]
            if code == _FG:
                return True
            if code != _NEW_X:
                break
            slots.nit[slot] += 1
            nit = slots.nit[slot]
            values[row] = slots.last_f[slot]
            if nit >= self._max_iterations:
                task[:] = (_STOP, _MAXITER_REACHED)
            elif slots.nfev[slot] > LBFGSB_MAXFUN:
                task[:] = (_STOP, _MAXFUN_REACHED)
            elif prune_margin is not None:
                masks.prune(values, nit, prune_margin, rows=[row])
                if masks.pruned[row]:
                    return False
        nit = slots.nit[slot]
        values[row] = slots.last_f[slot]
        masks.finish(row, nit, code == _CONVERGENCE or nit >= self._max_iterations)
        return False


class LBFGSOptimizer:
    """L-BFGS-B backend (scipy) for unconstrained minimisation.

    One row of :class:`LockstepLBFGSB`, so the per-start path and the
    trainer share one L-BFGS-B implementation.

    Args:
        max_iterations: iteration cap passed to scipy.
        gradient_tolerance: ``pgtol`` analogue; scipy's ``gtol``.
    """

    def __init__(self, max_iterations: int = 200, gradient_tolerance: float = 1e-6) -> None:
        self._lockstep = LockstepLBFGSB(max_iterations, gradient_tolerance)

    def minimize(self, fun: ValueAndGrad, x0: np.ndarray) -> OptimizationOutcome:
        """Minimise ``fun`` from ``x0``; see :class:`OptimizationOutcome`.

        Raises:
            OptimizationError: if the objective is non-finite at ``x0`` (a
                NaN objective would otherwise silently poison the line
                search) or the solver ends at a non-finite point.
        """
        return _minimize_one_row(self._lockstep, fun, x0)


def make_minimizer(
    name: str, max_iterations: int = 200, gradient_tolerance: float = 1e-6
) -> Minimizer:
    """Build a minimiser by name: ``"lbfgs"`` (default backend) or ``"armijo"``.

    Raises:
        OptimizationError: for an unknown backend name.
    """
    if name == "lbfgs":
        return LBFGSOptimizer(max_iterations, gradient_tolerance)
    if name == "armijo":
        return ArmijoGradientDescent(max_iterations, gradient_tolerance)
    raise OptimizationError(f"unknown minimiser {name!r}; known: 'lbfgs', 'armijo'")
