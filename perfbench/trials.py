"""One trial = set up one workload on one seed, run its fixed round count.

Both runners go through the public API only:
:func:`repro.experiments.runner.build_simulation` +
:meth:`FederatedSimulation.run` in process, and
:class:`repro.serve.server.FederationServer` + :func:`repro.serve.worker.run_worker`
(as threads of this process) when served.  A trial given a
:class:`~perfbench.spans.Recorder` is traced; without one, the only
additions to the program are a clock read and a finiteness check per round
and, when served, a request counter and a readiness signal per worker.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro.serve.worker as worker_module
from repro.experiments.runner import build_simulation
from repro.serve.loadgen import expected_real_bytes
from repro.serve.server import FederationServer
from repro.serve.worker import ServerClient, WorkerEnvironment, run_worker

from perfbench import layers
from perfbench.spans import Recorder, patched, wrap_attr
from perfbench.workloads import NUM_WORKERS, POLL_INTERVAL_S, Workload

#: Generous ceilings so a hung trial fails the run instead of the clock.
SERVE_TIMEOUT_S = 150.0
JOIN_TIMEOUT_S = 10.0


@dataclass
class Trial:
    """What one trial measured and which output checks it failed."""

    seed: int
    rounds: int
    setup_s: float
    wall_s: float
    round_s: list[float]
    rounds_to_target: int
    reached_target: bool
    time_to_target_s: float
    final_accuracy: float
    upload_bytes: int
    digest: str
    ops_attempted: int
    ops_failed: int
    problems: list[str] = field(default_factory=list)
    #: Traced trials only.
    recorder: Recorder | None = None
    driver_window: tuple[float, float] = (0.0, 0.0)


class RoundClock:
    """Round start/end timestamps and the per-round finiteness check.

    Wraps ``sim.run_round`` on the instance (outside the ``plan`` span when
    traced), so it sees every round however the caller drives them.
    """

    def __init__(self, sim):
        self.sim = sim
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.attempted = 0
        self.failed = 0
        self._run_round = sim.run_round
        sim.run_round = self

    def __call__(self):
        self.attempted += 1
        self.starts.append(time.perf_counter())
        try:
            record = self._run_round()
        except BaseException:
            self.failed += 1
            raise
        self.ends.append(time.perf_counter())
        losses = [record.train_loss, record.test_loss]
        if not (
            np.isfinite(self.sim.state.params).all()
            and all(loss is None or np.isfinite(loss) for loss in losses)
        ):
            self.failed += 1
        return record


def digest(params: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(params, dtype="<f8").tobytes()).hexdigest()


def _summarise(
    workload: Workload,
    seed: int,
    target: float,
    result,
    clock: RoundClock,
    setup_s: float,
    run_start: float,
    run_end: float,
    upload_bytes: int,
) -> Trial:
    ends = clock.ends
    rounds_to_target = result.history.rounds_to_accuracy(target)
    reached = rounds_to_target is not None
    if not reached:
        # Censored: counted as one round past the budget, at the run's end.
        rounds_to_target = workload.rounds + 1
    problems = []
    if not np.isfinite(result.final_params).all():
        problems.append("final params are not finite")
    if clock.failed:
        problems.append(f"{clock.failed} round(s) raised or left non-finite values")
    if len(ends) != workload.rounds:
        problems.append(f"ran {len(ends)} of {workload.rounds} rounds")
    return Trial(
        seed=seed,
        rounds=len(ends),
        setup_s=setup_s,
        wall_s=run_end - run_start,
        # A round lasts from its start to the next round's start, so the
        # work between rounds (a served checkpoint) belongs to the round it
        # follows; the first starts when the run phase does.
        round_s=list(np.diff([run_start, *clock.starts[1:], run_end])),
        rounds_to_target=rounds_to_target,
        reached_target=reached,
        time_to_target_s=(ends[rounds_to_target - 1] if reached else run_end) - run_start,
        final_accuracy=float(result.history.records[-1].test_accuracy),
        upload_bytes=upload_bytes,
        digest=digest(result.final_params),
        ops_attempted=clock.attempted,
        ops_failed=clock.failed,
        problems=problems,
    )


# --------------------------------------------------------------------------- #
# In process
# --------------------------------------------------------------------------- #
def setup_inprocess(workload: Workload, seed: int) -> float:
    """Seconds to build one simulation (inputs, model, executor priming)."""
    started = time.perf_counter()
    sim = build_simulation(workload.config(seed), workload.algorithm)
    setup_s = time.perf_counter() - started
    sim.pipeline.close()
    return setup_s


def run_inprocess(workload: Workload, seed: int, recorder: Recorder | None = None) -> Trial:
    config = workload.config(seed)
    started = time.perf_counter()
    sim = build_simulation(config, workload.algorithm)
    setup_s = time.perf_counter() - started
    patches = patched()
    if recorder is not None:
        layers.instrument_simulation(sim, recorder)
        patches = layers.module_patches(recorder)
    clock = RoundClock(sim)
    with patches:
        run_start = time.perf_counter()
        result = sim.run(workload.rounds, target_accuracy=config.target_accuracy)
        run_end = time.perf_counter()
    trial = _summarise(
        workload, seed, config.target_accuracy, result, clock, setup_s, run_start, run_end,
        upload_bytes=int(result.ledger.upload_wire_bytes),
    )
    trial.recorder = recorder
    trial.driver_window = (run_start, run_end)
    return trial


# --------------------------------------------------------------------------- #
# Served
# --------------------------------------------------------------------------- #
class _WorkerFleet:
    """Per-trial worker instrumentation: readiness, request counts, spans."""

    def __init__(self, recorder: Recorder | None):
        self.recorder = recorder
        self.requests = 0
        self.failed = 0
        self.ready_at: list[float] = []
        self._cond = threading.Condition()

    def wait_ready(self, count: int, timeout: float) -> float:
        with self._cond:
            if not self._cond.wait_for(lambda: len(self.ready_at) >= count, timeout):
                raise TimeoutError(f"{count} workers not ready within {timeout}s")
            return max(self.ready_at)

    def _request(self, ok: bool) -> None:
        with self._cond:
            self.requests += 1
            self.failed += not ok

    def patches(self) -> patched:
        fleet, recorder = self, self.recorder

        class CountingClient(ServerClient):
            def post(self, path: str, body: bytes):
                span = None if recorder is None else recorder.open(
                    "http." + path.rsplit("/", 1)[-1]
                )
                try:
                    response = super().post(path, body)
                except BaseException:
                    if span is not None:
                        recorder.close(span, failed=True)
                        recorder.count("http.failed")
                    fleet._request(ok=False)
                    raise
                ok = 200 <= response[0] < 300
                if span is not None:
                    recorder.close(span, failed=not ok)
                    recorder.count("http.failed", not ok)
                fleet._request(ok)
                return response

        class ReadyEnvironment(WorkerEnvironment):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                if recorder is not None:
                    wrap_attr(self, "execute", recorder, "worker.execute")
                    layers.instrument_algorithm(self.algorithm, recorder)
                with fleet._cond:
                    fleet.ready_at.append(time.perf_counter())
                    fleet._cond.notify_all()

        replacements = [
            (worker_module, "ServerClient", CountingClient),
            (worker_module, "WorkerEnvironment", ReadyEnvironment),
        ]
        if recorder is not None:
            replacements.append((worker_module, "time", _TimedSleep(recorder)))
        return patched(*replacements)


class _TimedSleep:
    """Stand-in for the ``time`` module whose ``sleep`` is a ``worker.idle`` span."""

    def __init__(self, recorder: Recorder):
        self.sleep = recorder.wrap("worker.idle", time.sleep)

    def __getattr__(self, name: str):
        return getattr(time, name)


def _serve(
    workload: Workload,
    seed: int,
    rounds: int,
    scratch: Path,
    recorder: Recorder | None = None,
):
    """Build, start, and drain one server; returns its timings and state."""
    fleet = _WorkerFleet(recorder)
    store_dir = tempfile.mkdtemp(dir=scratch) if workload.store else None
    patches = patched() if recorder is None else layers.module_patches(recorder)
    try:
        with fleet.patches(), patches:
            started = time.perf_counter()
            server = FederationServer(
                workload.config(seed),
                workload.algorithm,
                num_rounds=rounds,
                store_dir=store_dir,
            )
            if recorder is not None:
                layers.instrument_server(server, recorder)
            clock = RoundClock(server.simulation)
            driver_start = time.perf_counter()
            server.start()
            threads: list[threading.Thread] = []
            try:
                for index in range(NUM_WORKERS):
                    thread = threading.Thread(
                        target=run_worker,
                        kwargs=dict(
                            url=server.url,
                            poll_interval=POLL_INTERVAL_S,
                            worker_id=f"perfbench-{index}",
                        ),
                        name=f"perfbench-worker-{index}",
                    )
                    thread.start()
                    threads.append(thread)
                ready = fleet.wait_ready(NUM_WORKERS, SERVE_TIMEOUT_S)
                result = server.wait(timeout=SERVE_TIMEOUT_S)
                done = time.perf_counter()
                # Workers exit on their own once the server reports done;
                # join them before stopping it so no request hits a closed port.
                for thread in threads:
                    thread.join(timeout=JOIN_TIMEOUT_S)
            finally:
                server.stop()
                for thread in threads:
                    thread.join(timeout=JOIN_TIMEOUT_S)
            alive = [thread.name for thread in threads if thread.is_alive()]
            if alive:
                raise RuntimeError(f"workers still running after the trial: {alive}")
    finally:
        if store_dir is not None:
            shutil.rmtree(store_dir, ignore_errors=True)
    return server, result, clock, fleet, (started, driver_start, ready, done)


def setup_served(workload: Workload, seed: int, scratch: Path) -> float:
    """Seconds from building the server to every worker holding its environment.

    A zero-round server: workers handshake, rebuild the environment, find
    the run already done, and exit.
    """
    _, _, _, _, (started, _, ready, _) = _serve(workload, seed, 0, scratch)
    return ready - started


def run_served(
    workload: Workload, seed: int, scratch: Path, recorder: Recorder | None = None
) -> Trial:
    server, result, clock, fleet, (started, driver_start, ready, done) = _serve(
        workload, seed, workload.rounds, scratch, recorder
    )
    codec = result.metadata.get("codec") or "raw"
    counters = server.metrics.snapshot()["counters"]
    real_bytes = int(counters.get(f"serve.payload_bytes.{codec}", 0))
    trial = _summarise(
        workload,
        seed,
        workload.config(seed).target_accuracy,
        result,
        clock,
        ready - started,
        ready,
        done,
        upload_bytes=real_bytes,
    )
    ledger_bytes = int(result.ledger.upload_wire_bytes)
    expected = expected_real_bytes(server)
    if not real_bytes == ledger_bytes == expected:
        trial.problems.append(
            f"upload bytes disagree: real {real_bytes}, ledger {ledger_bytes}, "
            f"expected {expected}"
        )
    if server.board.duplicates:
        trial.problems.append(f"{server.board.duplicates} duplicate submission(s)")
    # Served, an operation is an HTTP request; a lease reclaim or duplicate
    # submission also counts as a failed one.
    extra = server.board.reclaimed + server.board.duplicates
    trial.ops_attempted = fleet.requests + extra
    trial.ops_failed = fleet.failed + extra
    trial.recorder = recorder
    trial.driver_window = (driver_start, done)
    return trial
