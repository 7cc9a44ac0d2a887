"""Client executors: how a round's local updates actually run.

The engine *primes* an executor once with the immutable per-client state
(the :class:`~repro.federated.local_problem.LocalProblem` list and the
algorithm), then per round packages each surviving client's update into a
slim :class:`LocalUpdateTask`; the executor runs the batch and returns one
:class:`LocalUpdateOutcome` per task, in task order.

* :class:`SerialExecutor` — the seed behaviour: tasks run in order in the
  calling thread, sharing the engine's model template and training RNG, so
  results are bit-identical to the pre-systems engine.
* :class:`ThreadPoolClientExecutor` — tasks run concurrently in threads.
  Each task deep-copies the model template (the NumPy substrate mutates
  parameter buffers in place, so sharing one template across threads would
  race) and draws from its own per-task seed.
* :class:`VectorizedExecutor` — same-shape tasks are grouped into cohorts
  and each cohort's local updates run as stacked NumPy operations with a
  leading client axis (see :mod:`repro.nn.batched`), eliminating the
  per-client Python dispatch that dominates the serial hot path.  Only
  algorithms that opt in (``supports_batched``) and models with batched
  kernels run stacked; everything else falls back to the serial per-task
  loop, so a vectorized run never changes *which* computation happens —
  only how it is scheduled.  RNG streams are consumed in task order,
  matching the serial executor draw for draw; histories agree with serial
  within ``atol=1e-8`` (stacked matmuls reduce in a different order).
* :class:`ProcessPoolClientExecutor` — tasks run in worker processes,
  sidestepping the GIL for compute-bound local training.  The primed
  problems and algorithm are shipped to each worker once at pool creation
  (per-task traffic is only the global parameters, server state, config,
  and an integer seed — not the datasets and model templates, which would
  otherwise dominate serialization cost).  Client state mutated in the
  worker is carried back in the outcome and merged by the engine.

Isolated executors (``isolated = True``) receive an integer seed per task
instead of a shared generator, so their results are deterministic under a
fixed engine seed *regardless of scheduling order* — thread and process
runs of the same task list produce identical models.

An executor instance belongs to one simulation at a time: priming replaces
any previously primed state.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import threading
import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.exceptions import ConfigurationError, SimulationError
from repro.federated.client import ClientState
from repro.federated.local_problem import LocalProblem
from repro.federated.messages import ClientMessage
from repro.obs.trace import SpanRecord, new_span_id
from repro.utils.rng import SeedLike, as_rng


@dataclass
class LocalUpdateTask:
    """One client's local update, relative to the executor's primed state.

    ``client_index`` selects the primed :class:`LocalProblem`; everything
    else is the round-varying state.  Kept slim on purpose: for process
    pools this is the entire per-task wire payload.  ``trace`` asks the
    executing side — possibly a worker thread or process — to record
    picklable span records describing the task; the pipeline adopts them
    into the engine's tracer on join.
    """

    client_index: int
    client: ClientState
    global_params: np.ndarray
    server_state: dict[str, np.ndarray]
    config: Any
    round_index: int
    rng: SeedLike
    trace: bool = False


@dataclass
class LocalUpdateOutcome:
    """A finished local update: the upload plus the (possibly copied) client.

    When the task ran in another process, ``client`` is a pickled copy whose
    mutated persistent variables the engine must merge back; in-process
    executors return the original object and the merge is a no-op.
    ``spans`` carries the task's trace records (empty unless the task asked
    for tracing); roots have ``parent_id=None`` so the adopting tracer can
    re-parent them under the open round span.
    """

    message: ClientMessage
    client: ClientState
    spans: tuple[SpanRecord, ...] = ()


def _task_spans(
    task: LocalUpdateTask,
    wall_start: float,
    task_duration_s: float,
    sgd_wall_start: float,
    sgd_duration_s: float,
    **extra_attrs: Any,
) -> tuple[SpanRecord, SpanRecord]:
    """A ``client_task`` root span plus its ``local_sgd`` child."""
    pid, tid = os.getpid(), threading.get_ident() & 0xFFFF
    task_id = new_span_id()
    attrs = {"client": task.client_index, "round": task.round_index, **extra_attrs}
    return (
        SpanRecord(
            name="client_task",
            span_id=task_id,
            start_s=wall_start,
            duration_s=task_duration_s,
            pid=pid,
            tid=tid,
            attrs=attrs,
        ),
        SpanRecord(
            name="local_sgd",
            span_id=new_span_id(),
            parent_id=task_id,
            start_s=sgd_wall_start,
            duration_s=sgd_duration_s,
            pid=pid,
            tid=tid,
            attrs={"client": task.client_index},
        ),
    )


def execute_task(
    task: LocalUpdateTask,
    problem: LocalProblem,
    algorithm: Any,
    isolate: bool = False,
) -> LocalUpdateOutcome:
    """Run one local update; with ``isolate`` the model template is copied."""
    wall_start = time.time()
    perf_start = time.perf_counter()
    if isolate:
        problem = LocalProblem(
            model=copy.deepcopy(problem.model),
            loss=problem.loss,
            dataset=problem.dataset,
        )
    sgd_wall_start = time.time()
    sgd_perf_start = time.perf_counter()
    message = algorithm.local_update(
        problem,
        task.client,
        task.global_params,
        task.server_state,
        task.config,
        round_index=task.round_index,
        rng=as_rng(task.rng),
    )
    if not task.trace:
        return LocalUpdateOutcome(message=message, client=task.client)
    sgd_duration = time.perf_counter() - sgd_perf_start
    spans = _task_spans(
        task,
        wall_start,
        time.perf_counter() - perf_start,
        sgd_wall_start,
        sgd_duration,
    )
    return LocalUpdateOutcome(message=message, client=task.client, spans=spans)


# Worker-process globals, set once per worker by _init_worker so that the
# problems (datasets + model templates) and algorithm cross the process
# boundary exactly once per pool instead of once per task.
_WORKER_PROBLEMS: list[LocalProblem] | None = None
_WORKER_ALGORITHM: Any = None


def _init_worker(problems: list[LocalProblem], algorithm: Any) -> None:
    global _WORKER_PROBLEMS, _WORKER_ALGORITHM
    _WORKER_PROBLEMS = problems
    _WORKER_ALGORITHM = algorithm


def _execute_in_worker(task: LocalUpdateTask) -> LocalUpdateOutcome:
    """Module-level entry point so process pools can pickle the call."""
    problem = _WORKER_PROBLEMS[task.client_index]
    if task.client.dataset is None:
        # The parent stripped the dataset from the IPC payload; the worker
        # already holds the identical data inside its primed problem.
        task.client.dataset = problem.dataset
    # No isolation needed: the primed problems are private to this process
    # and each worker runs its tasks serially, exactly like SerialExecutor.
    outcome = execute_task(task, problem, _WORKER_ALGORITHM)
    outcome.client.dataset = None  # don't ship the dataset back either
    return outcome


class ClientExecutor:
    """Interface: run a batch of local-update tasks, preserving order."""

    #: Isolated executors receive per-task integer seeds (picklable, order
    #: independent); non-isolated executors share the engine's training RNG.
    isolated = False

    def prime(self, problems: list[LocalProblem], algorithm: Any) -> None:
        """Bind the immutable per-client problems and the algorithm."""
        self._problems = problems
        self._algorithm = algorithm

    def _require_primed(self) -> None:
        if getattr(self, "_problems", None) is None:
            raise SimulationError("executor used before prime() was called")

    def run_tasks(self, tasks: list[LocalUpdateTask]) -> list[LocalUpdateOutcome]:
        """Execute every task and return outcomes in task order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any worker resources (pools are lazily recreated)."""


class SerialExecutor(ClientExecutor):
    """Run tasks one after another in the calling thread (seed behaviour)."""

    isolated = False

    def run_tasks(self, tasks: list[LocalUpdateTask]) -> list[LocalUpdateOutcome]:
        self._require_primed()
        return [
            execute_task(task, self._problems[task.client_index], self._algorithm)
            for task in tasks
        ]


class VectorizedExecutor(ClientExecutor):
    """Run same-shape cohorts of tasks as stacked NumPy operations.

    Grouping key: local dataset shape × epochs × training hyper-parameters
    × round index.  Clients whose datasets are ragged (different sample
    counts) simply land in different cohorts; a cohort of one still runs
    through the batched kernels (with a leading axis of 1).

    Seeding semantics are preserved exactly: each task's epoch shuffles are
    pre-drawn *in task order* from that task's own RNG before any cohort
    executes, so the executor consumes the same random numbers in the same
    order as :class:`SerialExecutor` — whether the plan hands every task
    the shared training stream (sync) or per-task integer seeds
    (async/semisync).  ``isolated`` stays ``False`` for the same reason:
    the sync plan must seed vectorized runs exactly like serial ones.

    Independent cohorts dispatch concurrently through a bounded thread
    pool (``max_workers``, default ``os.cpu_count()``; NumPy releases the
    GIL inside the stacked kernels).  Every per-task random draw happens
    *before* dispatch in task order, client-state mutations are disjoint
    across cohorts, and outcomes are reassembled in task order afterwards,
    so results are identical regardless of thread scheduling — the
    ``atol=1e-8`` golden-parity contract is unchanged.  A single cohort
    (or ``max_workers=1``) runs inline with no thread overhead.

    Each concurrent cohort executes on its own :class:`BatchedModel` clone
    drawn from a lock-protected pool that persists across rounds, so the
    per-cohort-shape gradient/one-hot workspaces are reused round to round
    instead of reallocated.  The raw array math inside those models routes
    through the pluggable backend selected at construction (see
    :mod:`repro.nn.backend`).
    """

    isolated = False

    def __init__(
        self,
        max_workers: int | None = None,
        backend: str | None = None,
    ):
        if max_workers is not None and max_workers <= 0:
            raise ConfigurationError(
                f"max_workers must be positive, got {max_workers}"
            )
        self.max_workers = max_workers
        self.backend = backend
        self._batched_model = None
        self._fallback_reason: str | None = None
        self._model_pool: list[Any] = []
        self._pool_lock = threading.Lock()
        self._dispatch_pool: ThreadPoolExecutor | None = None
        self._data_cache: dict[
            tuple[int, ...], tuple[np.ndarray, np.ndarray, tuple[int, ...]]
        ] = {}

    def prime(self, problems: list[LocalProblem], algorithm: Any) -> None:
        super().prime(problems, algorithm)
        from repro.nn.batched import build_batched_model
        from repro.obs.runtime import get_obs

        self._metrics = get_obs().metrics
        self._profiler = get_obs().profiler
        self._batched_model = None
        self._model_pool = []
        self._data_cache = {}
        if not getattr(algorithm, "supports_batched", False):
            self._fallback_reason = "algorithm_opt_out"
            return
        self._fallback_reason = "unbatchable_model"
        template = problems[0]
        if any(problem.dataset.features.ndim != 2 for problem in problems):
            return  # stacked kernels take flat (n, d) features only
        self._batched_model = build_batched_model(
            template.model, template.loss, backend=self.backend
        )
        if self._batched_model is not None:
            self._fallback_reason = None
            # Per-kernel profiling: the batched model times each stacked
            # op's forward/backward when a profiler is active.
            self._batched_model.profiler = self._profiler
            # Seed the reusable execution-context pool with the compiled
            # template itself; concurrent cohorts clone on demand and the
            # clones (with their warmed workspaces) live for the run.
            self._model_pool = [self._batched_model]

    @property
    def vectorizes(self) -> bool:
        """Whether primed tasks will actually run through batched kernels."""
        self._require_primed()
        return self._batched_model is not None

    @property
    def fallback_reason(self) -> str | None:
        """Why primed tasks fall back to the serial loop (``None`` if none)."""
        self._require_primed()
        return self._fallback_reason

    def _acquire_model(self):
        with self._pool_lock:
            if self._model_pool:
                return self._model_pool.pop()
        return self._batched_model.clone()

    def _release_model(self, model) -> None:
        with self._pool_lock:
            self._model_pool.append(model)

    def _stacked_data(
        self, client_indices: tuple[int, ...], problems: list[LocalProblem]
    ) -> tuple[np.ndarray, np.ndarray]:
        """The cohort's ``(C, n, d)`` feature / ``(C, n)`` label stacks.

        Client datasets are immutable for the life of a simulation, so a
        recurring cohort composition (e.g. full participation under
        fixed epochs) pays the per-round stacking cost exactly once.
        Entries are validated against the identity of the source arrays,
        so repriming on new problems can never serve stale data.
        :meth:`run_tasks` keeps only the compositions of the latest call,
        so ragged compositions (variable-epoch protocols under sampling),
        which rarely recur, are released instead of accumulating.
        """
        key = client_indices
        source_ids = tuple(id(problem.dataset.features) for problem in problems)
        with self._pool_lock:
            cached = self._data_cache.get(key)
        if cached is not None and cached[2] == source_ids:
            return cached[0], cached[1]
        features = np.stack([problem.dataset.features for problem in problems])
        labels = np.stack([problem.dataset.labels for problem in problems])
        with self._pool_lock:
            self._data_cache[key] = (features, labels, source_ids)
        return features, labels

    def _draw_epoch_orders(
        self, tasks: list[LocalUpdateTask]
    ) -> list[np.ndarray | None]:
        """Pre-draw every task's per-epoch shuffles, in task order.

        Mirrors ``iterate_minibatches``: full-batch training (or a
        non-shuffling algorithm) draws nothing; otherwise one permutation
        per epoch from the task's RNG — the exact draws, in the exact
        order, the serial executor would have made.
        """
        orders: list[np.ndarray | None] = []
        shuffles = getattr(self._algorithm, "shuffles_minibatches", True)
        for task in tasks:
            n = self._problems[task.client_index].num_samples
            batch_size = task.config.batch_size
            if not shuffles or batch_size is None or batch_size >= n:
                orders.append(None)
                continue
            rng = as_rng(task.rng)
            orders.append(
                np.stack(
                    [rng.permutation(n) for _ in range(task.config.epochs)]
                )
            )
        return orders

    def _run_cohort(
        self,
        positions: list[int],
        tasks: list[LocalUpdateTask],
        epoch_orders: list[np.ndarray | None],
        dropout_seed: int | None,
    ) -> tuple[list[ClientMessage], float, float]:
        """Execute one cohort on a pooled model clone (worker-thread safe).

        Everything stochastic (epoch shuffles, the dropout seed) was drawn
        before dispatch; client-state mutations are confined to this
        cohort's clients; ``server_state`` and the algorithm are read-only
        here — so cohorts may run on any thread in any order.
        """
        from repro.nn.batched import BatchedCohort

        cohort_tasks = [tasks[position] for position in positions]
        problems = [self._problems[task.client_index] for task in cohort_tasks]
        orders = None
        if epoch_orders[positions[0]] is not None:
            orders = np.stack(
                [epoch_orders[position] for position in positions], axis=1
            )  # (E, C, n)
        model = self._acquire_model()
        try:
            if dropout_seed is not None:
                model.reseed_dropout(dropout_seed)
            features, labels = self._stacked_data(
                tuple(task.client_index for task in cohort_tasks), problems
            )
            cohort = BatchedCohort(
                model=model,
                features=features,
                labels=labels,
                epoch_orders=orders,
            )
            lead = cohort_tasks[0]
            cohort_wall = time.time()
            cohort_perf = time.perf_counter()
            messages = self._algorithm.batched_local_update(
                cohort,
                [task.client for task in cohort_tasks],
                lead.global_params,
                lead.server_state,
                lead.config,
                round_index=lead.round_index,
            )
            cohort_duration = time.perf_counter() - cohort_perf
        finally:
            self._release_model(model)
        return messages, cohort_wall, cohort_duration

    def run_tasks(self, tasks: list[LocalUpdateTask]) -> list[LocalUpdateOutcome]:
        self._require_primed()
        if self._batched_model is None:
            # Opt-out algorithm or unbatchable model: the serial loop,
            # bit for bit.  The labelled counter and profiler entry say
            # *why*, so unexpected serial fallbacks are diagnosable from
            # `repro profile` / the metrics snapshot.
            reason = self._fallback_reason or "unbatchable_model"
            if self._metrics is not None and tasks:
                self._metrics.counter(f"executor.fallback.{reason}").inc(
                    len(tasks)
                )
            started = time.perf_counter()
            outcomes = [
                execute_task(task, self._problems[task.client_index], self._algorithm)
                for task in tasks
            ]
            if self._profiler is not None and tasks:
                self._profiler.add(
                    f"executor.fallback.{reason}",
                    time.perf_counter() - started,
                )
            return outcomes

        epoch_orders = self._draw_epoch_orders(tasks)

        cohorts: dict[tuple, list[int]] = {}
        for position, task in enumerate(tasks):
            problem = self._problems[task.client_index]
            key = (
                problem.num_samples,
                problem.dataset.features.shape[1],
                task.config.epochs,
                task.config.batch_size,
                task.config.learning_rate,
                task.round_index,
            )
            cohorts.setdefault(key, []).append(position)

        # Dropout mask seeds, when the model needs them, are drawn here —
        # before any dispatch, in deterministic cohort-grouping order —
        # so results do not depend on which thread runs which cohort.
        dropout_seeds: dict[int, int | None] = {}
        for index, positions in enumerate(cohorts.values()):
            if self._batched_model.has_dropout:
                lead = tasks[positions[0]]
                dropout_seeds[index] = int(
                    as_rng(lead.rng).integers(np.iinfo(np.int64).max)
                )
            else:
                dropout_seeds[index] = None

        position_groups = list(cohorts.values())
        compositions = {
            tuple(tasks[position].client_index for position in positions)
            for positions in position_groups
        }
        with self._pool_lock:
            self._data_cache = {
                key: entry
                for key, entry in self._data_cache.items()
                if key in compositions
            }
        workers = self.max_workers or os.cpu_count() or 1
        if len(position_groups) == 1 or workers <= 1:
            # No concurrency to exploit: run inline, zero thread overhead.
            results = [
                self._run_cohort(
                    positions, tasks, epoch_orders, dropout_seeds[index]
                )
                for index, positions in enumerate(position_groups)
            ]
        else:
            if self._dispatch_pool is None:
                self._dispatch_pool = ThreadPoolExecutor(
                    max_workers=min(workers, len(position_groups)),
                    thread_name_prefix="repro-cohort",
                )
            results = list(
                self._dispatch_pool.map(
                    lambda item: self._run_cohort(
                        item[1], tasks, epoch_orders, dropout_seeds[item[0]]
                    ),
                    enumerate(position_groups),
                )
            )

        # Reassembly — and all metrics/trace bookkeeping — happens back on
        # the calling thread, in task order.
        outcomes: list[LocalUpdateOutcome | None] = [None] * len(tasks)
        for positions, (messages, cohort_wall, cohort_duration) in zip(
            position_groups, results
        ):
            if self._metrics is not None:
                self._metrics.counter("executor.batched_tasks").inc(len(positions))
                self._metrics.histogram("executor.cohort_size").observe(
                    len(positions)
                )
            for position, message in zip(positions, messages):
                task = tasks[position]
                spans: tuple[SpanRecord, ...] = ()
                if task.trace:
                    # One client_task span per task sharing the cohort's
                    # window: the stacked kernels ran every client jointly,
                    # so per-client attribution is the cohort extent.
                    spans = _task_spans(
                        task,
                        cohort_wall,
                        cohort_duration,
                        cohort_wall,
                        cohort_duration,
                        cohort=len(positions),
                        batched=True,
                    )
                outcomes[position] = LocalUpdateOutcome(
                    message=message, client=task.client, spans=spans
                )
        return outcomes

    def close(self) -> None:
        if self._dispatch_pool is not None:
            self._dispatch_pool.shutdown(wait=True)
            self._dispatch_pool = None


class _PoolExecutor(ClientExecutor):
    """Shared lazy-pool plumbing for thread and process executors."""

    isolated = True

    def __init__(self, max_workers: int | None = None):
        if max_workers is not None and max_workers <= 0:
            raise ConfigurationError(
                f"max_workers must be positive, got {max_workers}"
            )
        self.max_workers = max_workers
        self._pool: Executor | None = None

    def prime(self, problems: list[LocalProblem], algorithm: Any) -> None:
        self.close()  # a new simulation's state must reach fresh workers
        super().prime(problems, algorithm)

    def _make_pool(self) -> Executor:
        raise NotImplementedError

    def run_tasks(self, tasks: list[LocalUpdateTask]) -> list[LocalUpdateOutcome]:
        self._require_primed()
        if self._pool is None:
            self._pool = self._make_pool()
        return list(self._pool.map(self._submit_fn, tasks))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __del__(self):  # pragma: no cover - interpreter-shutdown safety net
        try:
            self.close()
        except Exception:
            pass


class ThreadPoolClientExecutor(_PoolExecutor):
    """Run tasks concurrently in threads (NumPy releases the GIL in kernels)."""

    def _submit_fn(self, task: LocalUpdateTask) -> LocalUpdateOutcome:
        return execute_task(
            task, self._problems[task.client_index], self._algorithm, isolate=True
        )

    def _make_pool(self) -> Executor:
        return ThreadPoolExecutor(max_workers=self.max_workers)


class ProcessPoolClientExecutor(_PoolExecutor):
    """Run tasks in worker processes primed once with the per-client problems."""

    # Bound at class level so the pool pickles only a module-level reference.
    _submit_fn = staticmethod(_execute_in_worker)

    def run_tasks(self, tasks: list[LocalUpdateTask]) -> list[LocalUpdateOutcome]:
        # The worker already holds every client's dataset (primed at pool
        # creation); strip it from the per-task payload so round IPC scales
        # with the model dimension, not the local dataset size.
        slim = [
            dataclasses.replace(
                task, client=dataclasses.replace(task.client, dataset=None)
            )
            for task in tasks
        ]
        return super().run_tasks(slim)

    def _make_pool(self) -> Executor:
        return ProcessPoolExecutor(
            max_workers=self.max_workers,
            initializer=_init_worker,
            initargs=(self._problems, self._algorithm),
        )


EXECUTOR_REGISTRY: dict[str, type[ClientExecutor]] = {
    "serial": SerialExecutor,
    "thread": ThreadPoolClientExecutor,
    "process": ProcessPoolClientExecutor,
    "vectorized": VectorizedExecutor,
}


def build_executor(
    name: str,
    max_workers: int | None = None,
    backend: str | None = None,
) -> ClientExecutor:
    """Instantiate a client executor by registry name.

    ``max_workers`` bounds the worker pool of every concurrent executor
    (threads, processes, and the vectorized executor's cohort dispatch);
    ``backend`` selects the array backend for the vectorized executor's
    stacked kernels (see :mod:`repro.nn.backend`) and is ignored by the
    per-task executors, which always run the serial NumPy model code.
    """
    try:
        executor_cls = EXECUTOR_REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown executor {name!r}; available: {sorted(EXECUTOR_REGISTRY)}"
        ) from None
    if executor_cls is SerialExecutor:
        # Strictly in-order, in-thread: nothing to configure.
        return executor_cls()
    if executor_cls is VectorizedExecutor:
        return executor_cls(max_workers=max_workers, backend=backend)
    return executor_cls(max_workers=max_workers)
