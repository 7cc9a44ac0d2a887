"""Output checks on the benchmark workloads at a few rounds.

These pin the equivalences the timed runs rely on: tracing changes no
result, the served run is bit-identical to the in-process one, and the
vectorized executor stays within ``atol=1e-8`` of the serial one.  No
test here asserts a wall-clock number.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.federated.engine as engine_module
import repro.serve.worker as worker_module
from repro.experiments.runner import build_simulation
from repro.federated.evaluation import evaluate_model
from repro.serve.worker import ServerClient

from perfbench.layers import LAYER_METRICS, layer_metrics
from perfbench.run import END_TO_END, trial_seed
from perfbench.spans import Recorder
from perfbench.trials import digest, run_inprocess, run_served
from perfbench.workloads import WORKLOADS

ROUNDS = 2
SEED = trial_seed(0, 0)


def short(name: str):
    return dataclasses.replace(WORKLOADS[name], rounds=ROUNDS)


def final_params(config, algorithm) -> tuple[np.ndarray, list]:
    result = build_simulation(config, algorithm).run(ROUNDS)
    return result.final_params, [r.test_accuracy for r in result.history.records]


def test_trial_seeds_depend_on_run_seed_and_index_only():
    assert trial_seed(3, 1) == trial_seed(3, 1)
    assert len({trial_seed(seed, i) for seed in range(3) for i in range(3)}) == 9


def test_vectorized_workload_within_atol_of_serial():
    workload = short("ragged_vectorized")
    config = workload.config(SEED)
    vectorized, vec_acc = final_params(config, workload.algorithm)
    serial, serial_acc = final_params(
        config.with_overrides(executor="serial"), workload.algorithm
    )
    np.testing.assert_allclose(vectorized, serial, rtol=0, atol=1e-8)
    assert vec_acc == serial_acc


def test_traced_inprocess_trial_matches_untraced_and_sums_to_wall():
    workload = short("robust_hierarchical")
    untraced = run_inprocess(workload, SEED)
    recorder = Recorder()
    traced = run_inprocess(workload, SEED, recorder)
    assert untraced.problems == [] and traced.problems == []
    assert traced.digest == untraced.digest
    assert traced.final_accuracy == untraced.final_accuracy
    assert traced.rounds_to_target == untraced.rounds_to_target
    assert engine_module.evaluate_model is evaluate_model  # patch undone

    metrics, residual = layer_metrics(recorder, traced.driver_window, traced.rounds)
    assert residual < 1e-9
    assert set(metrics) | {"trace.overhead_ratio"} == set(LAYER_METRICS)
    shares = sum(v for k, v in metrics.items() if k.startswith("share."))
    assert shares + metrics["unattributed.share"] == pytest.approx(1.0)
    # The layers this workload exists for all ran.
    assert {"defense", "codec", "aggregate", "adversary"} <= {s.name for s in recorder.spans}
    assert metrics["sampler.calls"] == 16 * ROUNDS
    assert metrics["aggregate.updates"] == metrics["local_update.calls"]
    assert metrics["codec.messages"] == metrics["executor.tasks"]
    assert metrics["protocol.bytes"] == metrics["store.saves"] == 0


def test_served_trial_is_bit_identical_to_inprocess_and_to_its_traced_twin(tmp_path):
    # The checkpointed twin runs the same code plus a store, so it must
    # also give the same bytes.
    workload = short("served_loopback")
    untraced = run_served(workload, SEED, tmp_path)
    recorder = Recorder()
    traced = run_served(short("served_checkpointed"), SEED, tmp_path, recorder)
    # run_served checks real upload bytes == ledger == expected and no
    # duplicate submissions; a mismatch lands in problems.
    assert untraced.problems == [] and traced.problems == []
    assert untraced.ops_failed == 0 and untraced.ops_attempted > 0
    assert traced.digest == untraced.digest
    assert worker_module.ServerClient is ServerClient  # patch undone

    # Served runs use per-task seeds, like any isolated in-process executor.
    config = workload.config(SEED).with_overrides(executor="thread", max_workers=1)
    params, accuracies = final_params(config, workload.algorithm)
    assert digest(params) == untraced.digest
    assert traced.final_accuracy == accuracies[-1]

    metrics, residual = layer_metrics(recorder, traced.driver_window, traced.rounds)
    assert residual < 1e-9
    assert metrics["store.saves"] == ROUNDS and metrics["store.bytes"] > 0
    assert metrics["http.requests.submit"] == metrics["executor.tasks"]
    assert metrics["protocol.bytes"] > 0
    assert {"board", "protocol", "http.task", "http.submit", "server.handler", "store"} <= {
        s.name for s in recorder.spans
    }


def test_every_workload_config_matches_its_round_budget():
    for workload in WORKLOADS.values():
        config = workload.config(SEED)
        assert config.num_rounds == workload.rounds
        assert 0 < config.target_accuracy < 1
        assert workload.trials(20) >= 1
    assert not set(END_TO_END) & set(LAYER_METRICS)


def test_run_exits_nonzero_without_the_program(tmp_path):
    """A checkout holding only the benchmark must fail without a result."""
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    probe = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "served_loopback",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert probe.returncode != 0
    assert '"correct"' not in probe.stdout


def test_benchmark_json_names_what_the_harness_reports():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: workload.why for name, workload in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS
