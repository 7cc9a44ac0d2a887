"""The four benchmark workloads: configs, targets, and why each exists.

Every config is a function of the trial seed alone, so the same seed gives
the same inputs.  Round counts and targets are fixed per workload; the
target is chosen so that every seed reaches it near the end of the run on
the steep part of the accuracy curve, where rounds-to-target moves little
from seed to seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.experiments.configs import (
    AlgorithmSpec,
    ExperimentConfig,
    serve_config,
    table3_config,
)

#: FedADMM's proximal weight.  At rho=0.01 the non-IID MNIST stand-in's
#: accuracy curve first falls and then climbs, and some seeds pass the
#: target in round 1; rho=0.1 rises monotonically enough for a stable
#: rounds-to-target.
FEDADMM = AlgorithmSpec("fedadmm", {"rho": 0.1})

#: Closed-loop served workloads: each worker polls this often when the
#: board has no task for it.
POLL_INTERVAL_S = 0.005
NUM_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_config: Callable[[int], ExperimentConfig]
    algorithm: AlgorithmSpec
    rounds: int
    #: Wall seconds one trial takes on a 2-core x86 box; sets how many
    #: trials fit in ``--seconds`` (a fixed number per seconds value, so
    #: the inputs of a run depend on its seed and length only).
    nominal_trial_s: float
    served: bool = False
    store: bool = False

    def config(self, seed: int) -> ExperimentConfig:
        return self.make_config(seed).with_overrides(num_rounds=self.rounds)

    def trials(self, seconds: float) -> int:
        return max(1, round(seconds / self.nominal_trial_s))


def _ragged(seed: int) -> ExperimentConfig:
    # Paper protocol for variable local work: FedADMM draws 1..5 epochs per
    # client per round; the vectorized executor groups equal-epoch clients
    # into ragged cohorts.
    return table3_config("mnist", num_clients=100, non_iid=True, seed=seed).with_overrides(
        n_train=6000,
        n_test=1000,
        client_fraction=0.3,
        batch_size=20,
        executor="vectorized",
        max_workers=2,
        target_accuracy=0.96,
    )


def _robust(seed: int) -> ExperimentConfig:
    return table3_config("mnist", num_clients=400, non_iid=True, seed=seed).with_overrides(
        n_train=4000,
        n_test=1000,
        model_kwargs={"input_dim": 784, "hidden_dims": (64,)},
        client_fraction=0.25,
        local_epochs=1,
        system_heterogeneity=False,
        plan="hierarchical",
        num_shards=16,
        adversary="sign_flip",
        adversary_fraction=0.2,
        defense="trimmed_mean",
        codec="float16",
        executor="serial",
        # How fast this population converges varies a lot from seed to seed
        # (plateaus from 0.95 to 0.99), so the target sits low on the steep
        # part of the curve and a run averages six trials.
        target_accuracy=0.80,
    )


def _served(seed: int) -> ExperimentConfig:
    # Full participation: with half the clients sampled per round the
    # rounds to 0.96 range over 5..8 from seed to seed; with all of them it
    # is 5 or 6, which a checkpointed run of one trial can measure steadily.
    return serve_config("mnist", seed=seed).with_overrides(
        num_clients=16,
        n_train=3200,
        n_test=1000,
        client_fraction=1.0,
        target_accuracy=0.96,
    )


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="ragged_vectorized",
            why="FedADMM with the paper's variable local work (1..5 epochs) on the "
            "vectorized executor: loads ragged cohorts in systems.executor",
            make_config=_ragged,
            algorithm=FEDADMM,
            rounds=24,
            nominal_trial_s=4.0,
        ),
        Workload(
            name="robust_hierarchical",
            why="16-shard hierarchy, 20% sign-flip adversaries, trimmed-mean "
            "defense, float16 codec, serial: loads reduction, defense and "
            "codec, bypasses vectorized cohorts",
            make_config=_robust,
            algorithm=AlgorithmSpec("fedavg"),
            rounds=12,
            nominal_trial_s=3.5,
        ),
        Workload(
            name="served_loopback",
            why="FederationServer plus 2 closed-loop HTTP workers on loopback: "
            "loads wire protocol, HTTP and the task board; no store",
            make_config=_served,
            algorithm=FEDADMM,
            rounds=12,
            nominal_trial_s=6.8,
            served=True,
        ),
        Workload(
            name="served_checkpointed",
            why="served_loopback with a checkpoint store written every round: the "
            "only workload dominated by experiments.store",
            make_config=_served,
            algorithm=FEDADMM,
            rounds=12,
            nominal_trial_s=22.0,
            served=True,
            store=True,
        ),
    )
}
