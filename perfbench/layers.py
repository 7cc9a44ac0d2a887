"""Layer spans wrapped around the runtime's public functions, and their metrics.

Nothing under ``src/`` is edited: each wrapper replaces an attribute on a
built instance (the simulation, its pipeline, algorithm, executor,
adversary, defense, transport, server, store) or, where the caller looks a
function up through a module or class, that module or class attribute for
the length of one traced trial.

Span names are the layer names the metrics use:

==================  ===========================================================
span                wraps
==================  ===========================================================
``plan``            ``FederatedSimulation.run_round`` (federated.plans)
``sampler``         ``ClientSampler.sample`` / ``ShardSampler.sample``
``systems_model``   ``ClientWorkPipeline.simulate_systems``
``executor``        ``ClientExecutor.run_tasks`` (in-process executors)
``board``           ``RemoteExecutor.run_tasks`` (publish + wait on the board)
``local_update``    ``local_update`` / ``batched_local_update`` of the algorithm
``adversary``       ``AdversaryModel.corrupt_message``
``defense``         ``Defense.apply``
``codec``           ``ClientWorkPipeline.compress``, ``Transport.compress_message``
``aggregate``       ``aggregate``; ``accumulate``/``merge``/``finalise`` of accumulators
``evaluate``        ``evaluate_model`` as looked up by engine and serve.server
``protocol``        ``encode_task``/``decode_task``/``encode_submit``/``decode_submit``
``store``           ``ExperimentStore.save_result``
``http.<route>``    the worker's ``ServerClient.post``
``worker.execute``  ``WorkerEnvironment.execute``
``worker.idle``     the worker loop's poll sleep
``server.handler``  ``FederationServer.handle_task`` / ``handle_submit``
==================  ===========================================================
"""

from __future__ import annotations

import os
import statistics
from pathlib import Path
from typing import Any

import repro.federated.engine as engine_module
import repro.serve.protocol as protocol_module
import repro.serve.server as server_module
from repro.federated.sharding import ShardSampler
from repro.serve.server import RemoteExecutor

from perfbench.spans import Recorder, busy, driver_breakdown, patched, self_times, wrap_attr

#: Layers whose self time on the round-driving thread is reported as a share.
DRIVER_LAYERS = (
    "plan",
    "sampler",
    "systems_model",
    "executor",
    "local_update",
    "adversary",
    "defense",
    "codec",
    "aggregate",
    "evaluate",
    "protocol",
    "board",
    "store",
)

#: Every per-layer metric a traced run reports, with its unit.  A layer a
#: workload does not run reports 0.
LAYER_METRICS: dict[str, str] = {
    "sampler.self_s": "s",
    "sampler.calls": "count",
    "systems_model.self_s": "s",
    "executor.self_s": "s",
    "executor.tasks": "count",
    "executor.cohorts": "count",
    "executor.cohorts_per_round": "count/round",
    "local_update.busy_s": "s",
    "local_update.calls": "count",
    "local_update.samples": "count",
    "adversary.self_s": "s",
    "adversary.corrupted": "count",
    "defense.self_s": "s",
    "codec.self_s": "s",
    "codec.messages": "count",
    "codec.wire_bytes": "bytes",
    "aggregate.self_s": "s",
    "aggregate.updates": "count",
    "evaluate.self_s": "s",
    "evaluate.calls": "count",
    "plan.self_s": "s",
    "protocol.self_s": "s",
    "protocol.bytes": "bytes",
    "http.post_s.task": "s",
    "http.post_s.submit": "s",
    "http.requests.task": "count",
    "http.requests.submit": "count",
    "http.failed": "count",
    "worker.execute_s": "s",
    "worker.idle_s": "s",
    "server.handler_s": "s",
    "board.wait_s": "s",
    "store.save_s": "s",
    "store.saves": "count",
    "store.bytes": "bytes",
    "unattributed.share": "share",
    "trace.overhead_ratio": "ratio",
    **{f"share.{layer}": "share" for layer in DRIVER_LAYERS},
}


def _arg(args: tuple, kwargs: dict, position: int, name: str) -> Any:
    return args[position] if len(args) > position else kwargs[name]


def _local_update_counts(args, kwargs, result) -> dict[str, float]:
    problem = _arg(args, kwargs, 0, "problem")
    config = _arg(args, kwargs, 4, "config")
    return {
        "local_update.calls": 1,
        "local_update.samples": config.epochs * problem.num_samples,
    }


def _batched_update_counts(args, kwargs, result) -> dict[str, float]:
    cohort = _arg(args, kwargs, 0, "cohort")
    config = _arg(args, kwargs, 4, "config")
    clients, samples = cohort.features.shape[:2]
    return {
        "executor.cohorts": 1,
        "local_update.calls": clients,
        "local_update.samples": config.epochs * clients * samples,
    }


def _blob_bytes(args, kwargs, result) -> dict[str, float]:
    return {"protocol.bytes": sum(len(blob) for blob in _arg(args, kwargs, 1, "blobs"))}


def _frame_bytes(args, kwargs, result) -> dict[str, float]:
    return {"protocol.bytes": len(result)}


def instrument_algorithm(algorithm, recorder: Recorder) -> None:
    """Local-update spans on the algorithm instance executors call into."""
    wrap_attr(algorithm, "local_update", recorder, "local_update", _local_update_counts)
    if getattr(algorithm, "supports_batched", False):
        wrap_attr(
            algorithm, "batched_local_update", recorder, "local_update", _batched_update_counts
        )


def instrument_simulation(sim, recorder: Recorder) -> None:
    """Wrap every in-process layer of one built simulation."""
    pipeline, algorithm = sim.pipeline, sim.algorithm
    wrap_attr(sim, "run_round", recorder, "plan")
    wrap_attr(sim.sampler, "sample", recorder, "sampler")
    wrap_attr(pipeline, "simulate_systems", recorder, "systems_model")
    remote = isinstance(pipeline.executor, RemoteExecutor)
    wrap_attr(
        pipeline.executor,
        "run_tasks",
        recorder,
        "board" if remote else "executor",
        lambda args, kwargs, result: {"executor.tasks": len(args[0])},
    )
    instrument_algorithm(algorithm, recorder)
    if pipeline.adversary is not None:
        wrap_attr(pipeline.adversary, "corrupt_message", recorder, "adversary")
    if hasattr(algorithm, "defense"):
        wrap_attr(algorithm.defense, "apply", recorder, "defense")
    wrap_attr(
        pipeline,
        "compress",
        recorder,
        "codec",
        lambda args, kwargs, result: {"codec.wire_bytes": result[1]},
    )
    if pipeline.transport is not None:
        wrap_attr(
            pipeline.transport,
            "compress_message",
            recorder,
            "codec",
            lambda args, kwargs, result: {"codec.messages": 1},
        )
    # A buffering accumulator's finalise calls aggregate on updates it has
    # already counted, so only count aggregate calls that start a reduction.
    wrap_attr(
        algorithm,
        "aggregate",
        recorder,
        "aggregate",
        lambda args, kwargs, result: (
            {} if recorder.inside("aggregate") else {"aggregate.updates": len(args[2])}
        ),
    )
    make_accumulator = algorithm.make_accumulator

    def traced_accumulator(*args, **kwargs):
        accumulator = make_accumulator(*args, **kwargs)
        wrap_attr(
            accumulator,
            "accumulate",
            recorder,
            "aggregate",
            lambda args, kwargs, result: {"aggregate.updates": 1},
        )
        wrap_attr(accumulator, "merge", recorder, "aggregate")
        wrap_attr(accumulator, "finalise", recorder, "aggregate")
        return accumulator

    # Creating the accumulator is bookkeeping inside the plan's round.
    algorithm.make_accumulator = traced_accumulator


def module_patches(recorder: Recorder) -> patched:
    """Attributes looked up through a module or class, wrapped for one trial."""
    return patched(
        (engine_module, "evaluate_model",
         recorder.wrap("evaluate", engine_module.evaluate_model)),
        (server_module, "evaluate_model",
         recorder.wrap("evaluate", server_module.evaluate_model)),
        (ShardSampler, "sample", recorder.wrap("sampler", ShardSampler.sample)),
        (protocol_module, "encode_task",
         recorder.wrap("protocol", protocol_module.encode_task, _frame_bytes)),
        (protocol_module, "encode_submit",
         recorder.wrap("protocol", protocol_module.encode_submit, _frame_bytes)),
        (protocol_module, "decode_task",
         recorder.wrap("protocol", protocol_module.decode_task, _blob_bytes)),
        (protocol_module, "decode_submit",
         recorder.wrap("protocol", protocol_module.decode_submit, _blob_bytes)),
    )


def instrument_server(server, recorder: Recorder) -> None:
    """Wrap the server-side layers of a built (not yet started) server."""
    instrument_simulation(server.simulation, recorder)
    wrap_attr(server, "handle_task", recorder, "server.handler")
    wrap_attr(server, "handle_submit", recorder, "server.handler")
    store = server.store
    if store is not None:

        def written(args, kwargs, result) -> dict[str, float]:
            spec = _arg(args, kwargs, 0, "spec")
            path = Path(store.root) / store.RESULTS_DIR / f"{store.key_for(spec)}.json"
            return {"store.bytes": os.path.getsize(path)}

        wrap_attr(store, "save_result", recorder, "store", written)


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #
def layer_metrics(
    recorder: Recorder,
    driver_window: tuple[float, float],
    rounds: int,
) -> tuple[dict[str, float], float]:
    """Per-layer metrics of one traced trial, plus the layer-sum residual.

    ``trace.overhead_ratio`` is filled in by the caller, which knows the
    untraced twin of the trial.
    """
    spans = recorder.spans
    counters = recorder.counters
    selves = self_times(spans)
    plan_threads = {span.thread for span in spans if span.name == "plan"}
    if len(plan_threads) != 1:
        raise RuntimeError(f"rounds ran on {len(plan_threads)} threads, expected 1")
    breakdown = driver_breakdown(
        spans,
        plan_threads.pop(),
        driver_window,
        cross_thread={"executor": "local_update"},
    )

    def self_sum(name: str) -> float:
        return sum(selves[i] for i, span in enumerate(spans) if span.name == name)

    def calls(name: str) -> int:
        return sum(1 for span in spans if span.name == name)

    outer_sampler_calls = sum(
        1
        for span in spans
        if span.name == "sampler"
        and (span.parent is None or spans[span.parent].name != "sampler")
    )
    metrics = {
        "sampler.self_s": self_sum("sampler"),
        "sampler.calls": outer_sampler_calls,
        "systems_model.self_s": self_sum("systems_model"),
        "executor.self_s": breakdown.layers.get("executor", 0.0),
        "executor.tasks": counters["executor.tasks"],
        "executor.cohorts": counters["executor.cohorts"],
        "executor.cohorts_per_round": counters["executor.cohorts"] / rounds,
        "local_update.busy_s": busy(spans, "local_update"),
        "local_update.calls": counters["local_update.calls"],
        "local_update.samples": counters["local_update.samples"],
        "adversary.self_s": self_sum("adversary"),
        "adversary.corrupted": calls("adversary"),
        "defense.self_s": self_sum("defense"),
        "codec.self_s": self_sum("codec"),
        "codec.messages": counters["codec.messages"],
        "codec.wire_bytes": counters["codec.wire_bytes"],
        "aggregate.self_s": self_sum("aggregate"),
        "aggregate.updates": counters["aggregate.updates"],
        "evaluate.self_s": self_sum("evaluate"),
        "evaluate.calls": calls("evaluate"),
        "plan.self_s": self_sum("plan"),
        "protocol.self_s": self_sum("protocol"),
        "protocol.bytes": counters["protocol.bytes"],
        "http.post_s.task": busy(spans, "http.task"),
        "http.post_s.submit": busy(spans, "http.submit"),
        "http.requests.task": calls("http.task"),
        "http.requests.submit": calls("http.submit"),
        "http.failed": counters["http.failed"],
        "worker.execute_s": busy(spans, "worker.execute"),
        "worker.idle_s": busy(spans, "worker.idle"),
        "server.handler_s": busy(spans, "server.handler"),
        "board.wait_s": breakdown.layers.get("board", 0.0),
        "store.save_s": self_sum("store"),
        "store.saves": calls("store"),
        "store.bytes": counters["store.bytes"],
        "unattributed.share": breakdown.unattributed_s / breakdown.window_s,
    }
    for layer in DRIVER_LAYERS:
        metrics[f"share.{layer}"] = breakdown.share(layer)
    return {name: float(value) for name, value in metrics.items()}, breakdown.residual


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over the traced trials of one run."""
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}
