"""FedPD (Zhang et al., 2021) — related primal-dual baseline.

FedPD also maintains primal/dual pairs at clients but, unlike FedADMM,
requires *all* clients to compute every round, and global communication
happens only with a fixed probability ``communication_probability`` (when it
does, every client participates simultaneously).  The paper excludes FedPD
from its experimental comparison for exactly this reason (unrealistic for
large federated populations); it is implemented here for completeness and for
the communication-pattern ablation.

When driven by the simulation engine, FedPD should be paired with a sampler
that selects the full population (e.g. ``UniformFractionSampler(1.0)``);
a warning is recorded in the message metadata if it is not.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import FederatedAlgorithm, LocalTrainingConfig
from repro.core.admm_client import admm_client_update
from repro.core.dual import augmented_model
from repro.exceptions import ConfigurationError
from repro.federated.client import ClientState
from repro.federated.local_problem import LocalProblem
from repro.federated.messages import ClientMessage
from repro.utils.rng import SeedLike, as_rng


class FedPD(FederatedAlgorithm):
    """Primal-dual method with full participation and probabilistic aggregation."""

    name = "fedpd"

    #: FedPD flips a per-round communication coin at the server; that
    #: protocol has no analogue in the buffered asynchronous engine.
    supports_async = False

    #: The communication coin lives in :meth:`aggregate` (server side), so
    #: local updates are pure primal-dual SGD and a cohort's duals stack
    #: along the client axis exactly like FedADMM's.
    supports_batched = True

    def __init__(self, rho: float = 0.01, communication_probability: float = 1.0):
        if rho <= 0:
            raise ConfigurationError(f"rho must be positive, got {rho}")
        if not 0 < communication_probability <= 1:
            raise ConfigurationError(
                f"communication_probability must lie in (0, 1], "
                f"got {communication_probability}"
            )
        self.rho = rho
        self.communication_probability = communication_probability
        self._comm_rng = as_rng(0)

    def init_client_state(
        self, client: ClientState, initial_params: np.ndarray
    ) -> None:
        if not client.has("w"):
            client.set("w", initial_params)
        if not client.has("y"):
            client.set("y", np.zeros_like(initial_params))

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
        self.init_client_state(client, global_params)
        result = admm_client_update(
            problem,
            w_old=client.get("w"),
            y_old=client.get("y"),
            theta=global_params,
            rho=self.rho,
            config=config,
            rng=rng,
            warm_start=True,
        )
        client.set("w", result.w_new)
        client.set("y", result.y_new)
        client.record_participation(config.epochs)
        return ClientMessage(
            client_id=client.client_id,
            payload={
                "augmented_model": augmented_model(result.w_new, result.y_new, self.rho)
            },
            num_samples=problem.num_samples,
            local_epochs=config.epochs,
            train_loss=result.train_loss,
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
        """A cohort of primal-dual updates with the duals stacked.

        Mirrors :func:`repro.core.admm_client.admm_client_update` with a
        leading client axis: warm start from each client's ``w``, augmented
        gradient ``y + rho (params − theta)``, then the dual ascent step —
        the same computation :meth:`local_update` performs per client, up
        to stacked-matmul reduction order.
        """
        from repro.nn.batched import batched_run_local_sgd, penalty_grad

        for client in clients:
            self.init_client_state(client, global_params)
        theta = global_params[None, :]
        w_old = np.stack([client.get("w") for client in clients])
        y_old = np.stack([client.get("y") for client in clients])

        w_new, losses = batched_run_local_sgd(
            cohort,
            w_old,
            config,
            extra_grad=penalty_grad(global_params, self.rho, len(clients), y_old),
        )
        y_new = y_old + self.rho * (w_new - theta)
        augmented = w_new + y_new / self.rho

        for index, client in enumerate(clients):
            client.set("w", w_new[index])
            client.set("y", y_new[index])
        return self.build_cohort_messages(
            clients,
            cohort,
            config.epochs,
            losses,
            lambda index: {"augmented_model": augmented[index].copy()},
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
            raise ConfigurationError("FedPD.aggregate needs at least one message")
        # With probability (1 - p) the round carries no communication and the
        # global model is unchanged; otherwise it is replaced by the average
        # of the clients' augmented models.
        if self._comm_rng.random() >= self.communication_probability:
            return np.array(global_params, copy=True)
        stacked = np.stack([msg.payload["augmented_model"] for msg in messages])
        return stacked.mean(axis=0)
