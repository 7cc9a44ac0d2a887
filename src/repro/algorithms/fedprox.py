"""FedProx (Li et al., 2020).

Identical to FedAvg except that local training minimises
``f_i(w) + (ρ/2) ‖w − θ‖²`` — i.e. the FedADMM subproblem of eq. (3) with the
dual variable pinned to zero.  The proximal coefficient ρ must be tuned per
setting for competitive performance (the paper's Table V quantifies this
sensitivity), which is exactly the burden FedADMM's duals remove.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import (
    FederatedAlgorithm,
    LocalTrainingConfig,
    run_local_sgd,
)
from repro.core.admm_server import average_aggregate
from repro.core.augmented_lagrangian import AugmentedLagrangian
from repro.exceptions import ConfigurationError
from repro.federated.client import ClientState
from repro.federated.local_problem import LocalProblem
from repro.federated.messages import ClientMessage
from repro.utils.rng import SeedLike


class FedProx(FederatedAlgorithm):
    """FedAvg plus a quadratic proximal term in the local objective."""

    name = "fedprox"
    supports_batched = True

    def __init__(self, rho: float = 0.1, weighting: str = "uniform"):
        if rho < 0:
            raise ConfigurationError(f"rho must be non-negative, got {rho}")
        if weighting not in ("uniform", "samples"):
            raise ConfigurationError(
                f"weighting must be 'uniform' or 'samples', got {weighting!r}"
            )
        self.rho = rho
        self.weighting = weighting

    def local_update(
        self,
        problem: LocalProblem,
        client: ClientState,
        global_params: np.ndarray,
        server_state: dict[str, np.ndarray],
        config: LocalTrainingConfig,
        round_index: int = 0,
        rng: SeedLike = None,
    ) -> ClientMessage:
        lagrangian = AugmentedLagrangian(self.rho)
        zero_dual = np.zeros_like(global_params)

        def extra_grad(params: np.ndarray) -> np.ndarray:
            return lagrangian.penalty_gradient(params, zero_dual, global_params)

        params, train_loss = run_local_sgd(
            problem, global_params, config, rng=rng, extra_grad=extra_grad
        )
        client.record_participation(config.epochs)
        return ClientMessage(
            client_id=client.client_id,
            payload={"params": params},
            num_samples=problem.num_samples,
            local_epochs=config.epochs,
            train_loss=train_loss,
        )

    def batched_local_update(
        self,
        cohort,
        clients: list[ClientState],
        global_params: np.ndarray,
        server_state: dict[str, np.ndarray],
        config: LocalTrainingConfig,
        round_index: int = 0,
    ) -> list[ClientMessage]:
        from repro.nn.batched import batched_run_local_sgd, penalty_grad

        start = np.broadcast_to(global_params, (len(clients), global_params.size))
        params, losses = batched_run_local_sgd(
            cohort, start, config,
            extra_grad=penalty_grad(global_params, self.rho, len(clients)),
        )
        return self.build_cohort_messages(
            clients, cohort, config.epochs, losses,
            lambda index: {"params": params[index].copy()},
        )

    def aggregate(
        self,
        global_params: np.ndarray,
        server_state: dict[str, np.ndarray],
        messages: list[ClientMessage],
        num_clients: int,
        round_index: int,
    ) -> np.ndarray:
        if not messages:
            raise ConfigurationError("FedProx.aggregate needs at least one message")
        models = [msg.payload["params"] for msg in messages]
        if self.weighting == "samples":
            weights = [msg.num_samples for msg in messages]
            return average_aggregate(models, weights=weights)
        return average_aggregate(models)
