"""Bit-identity of the lean stacked local-SGD step to its full-work reference.

The stacked step in ``repro.nn.batched`` skips work its result does not
need: the epoch shuffle gathers whole rows, the backward pass stops at the
first parametric op (no gradient with respect to the input features), and
the SGD update consumes the gradient workspace in place while the
proximal/dual terms are written into one reused buffer.  None of that may
move a single bit.  Each test here compares against a reference written in
this file that does the full work the straightforward way — a
``take_along_axis`` gather, a backward pass through every op, and the
out-of-place ``params -= lr * (grads + extra_grad(params))`` update — and
asserts ``np.array_equal``, not a tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.nn.batched as batched_module
from repro.algorithms import build_algorithm
from repro.algorithms.base import LocalTrainingConfig
from repro.datasets.base import Dataset
from repro.federated.client import ClientState
from repro.nn.batched import (
    BatchedCohort,
    _epoch_batches,
    batched_run_local_sgd,
    build_batched_model,
    penalty_grad,
)
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import MLP, SmallCNN
from repro.obs import Profiler

COHORT, SAMPLES, FEATURES, CLASSES = 3, 10, 7, 4
ALGO_KWARGS = {"fedadmm": {"rho": 0.2}, "fedpd": {"rho": 0.2},
               "fedprox": {"rho": 0.2}}


def reference_epoch_batches(cohort, batch_size, epoch):
    """The previous gather: ``take_along_axis`` over a ``(C, n, d)`` grid."""
    n = cohort.num_samples
    if batch_size is None or batch_size >= n:
        yield cohort.features, cohort.labels
        return
    order = cohort.epoch_orders[epoch]
    shuffled_x = np.take_along_axis(cohort.features, order[:, :, None], axis=1)
    shuffled_y = np.take_along_axis(cohort.labels, order, axis=1)
    for start in range(0, n, batch_size):
        yield (
            shuffled_x[:, start:start + batch_size],
            shuffled_y[:, start:start + batch_size],
        )


def reference_loss_and_grad(model, params, features, labels):
    """Forward, then backward through *every* op, input gradients included."""
    x = features
    for op in model.ops:
        x = op.forward(params, x)
    losses, grad_output = model.loss.value_and_grad(x, labels)
    grads = np.zeros((params.shape[0], model.dim))
    for op in reversed(model.ops):
        grad_output = op.backward(grads, grad_output)
    assert grad_output is not None  # the input gradient was formed
    return losses, grads


def reference_local_sgd(cohort, start_params, config, extra_grad=None):
    """The previous SGD loop: out-of-place update, full backward pass."""
    params = np.array(start_params, dtype=np.float64, copy=True)
    loss_sum = np.zeros(cohort.num_clients)
    batches_seen = 0
    for epoch in range(config.epochs):
        for features, labels in reference_epoch_batches(
            cohort, config.batch_size, epoch
        ):
            losses, grads = reference_loss_and_grad(
                cohort.model, params, features, labels
            )
            loss_sum += losses
            batches_seen += 1
            if extra_grad is not None:
                grads = grads + extra_grad(params)
            params -= config.learning_rate * grads
    return params, loss_sum / batches_seen


def make_cohort(model, rng, epochs, n_features=FEATURES):
    batched = build_batched_model(model, CrossEntropyLoss())
    assert batched is not None
    orders = np.stack([
        np.stack([rng.permutation(SAMPLES) for _ in range(COHORT)])
        for _ in range(epochs)
    ])  # (E, C, n)
    return BatchedCohort(
        model=batched,
        features=rng.normal(size=(COHORT, SAMPLES, n_features)),
        labels=rng.integers(0, CLASSES, size=(COHORT, SAMPLES)),
        epoch_orders=orders,
    )


def make_mlp(rng):
    return MLP(input_dim=FEATURES, hidden_dims=(6, 5), num_classes=CLASSES,
               rng=rng)


def make_cnn(rng):
    # First op is the image reshape, then conv: the skip must cover a
    # parameter-free prefix and a conv as the first parametric op.
    return SmallCNN(rng=rng, channels=1, image_size=8, conv_channels=(2, 3),
                    hidden=6, num_classes=CLASSES)


class TestRowGather:
    @pytest.mark.parametrize("batch_size", [3, 4, 10, None])
    def test_batches_equal_take_along_axis(self, batch_size):
        rng = np.random.default_rng(0)
        cohort = make_cohort(make_mlp(rng), rng, epochs=2)
        for epoch in range(2):
            got = list(_epoch_batches(cohort, batch_size, epoch))
            want = list(reference_epoch_batches(cohort, batch_size, epoch))
            assert len(got) == len(want)
            for (x, y), (ref_x, ref_y) in zip(got, want):
                assert x.shape == ref_x.shape and y.dtype == ref_y.dtype
                assert np.array_equal(x, ref_x)
                assert np.array_equal(y, ref_y)


class TestBackwardStopsAtFirstParametricOp:
    @pytest.mark.parametrize(
        "make_model, n_features", [(make_mlp, FEATURES), (make_cnn, 64)]
    )
    def test_gradients_equal_full_backward(self, make_model, n_features):
        rng = np.random.default_rng(1)
        model = make_model(rng)
        cohort = make_cohort(model, rng, epochs=1, n_features=n_features)
        params = 0.3 * rng.normal(size=(COHORT, model.num_params))
        batched = cohort.model

        losses, grads = batched.loss_and_grad(
            params, cohort.features, cohort.labels
        )
        ref_losses, ref_grads = reference_loss_and_grad(
            batched, params, cohort.features, cohort.labels
        )
        assert np.array_equal(losses, ref_losses)
        assert np.array_equal(grads, ref_grads)

    def test_parameter_free_prefix_runs_no_backward(self):
        rng = np.random.default_rng(2)
        model = make_cnn(rng)
        cohort = make_cohort(model, rng, epochs=1, n_features=64)
        batched = cohort.model
        reshape, conv = batched.ops[0], batched.ops[1]
        assert not reshape.has_params and conv.has_params

        def forbidden(*args, **kwargs):
            raise AssertionError("backward ran in front of the first conv")

        reshape.backward = forbidden
        params = 0.3 * rng.normal(size=(COHORT, model.num_params))
        batched.loss_and_grad(params, cohort.features, cohort.labels)
        assert conv.backward(
            batched._grads_for(COHORT), np.ones((COHORT, SAMPLES, 2, 8, 8)),
            input_grad=False,
        ) is None

    @pytest.mark.parametrize(
        "make_model, n_features", [(make_mlp, FEATURES), (make_cnn, 64)]
    )
    def test_profiled_pass_is_the_same_program(self, make_model, n_features):
        rng = np.random.default_rng(3)
        model = make_model(rng)
        cohort = make_cohort(model, rng, epochs=1, n_features=n_features)
        params = 0.3 * rng.normal(size=(COHORT, model.num_params))
        batched = cohort.model
        _, plain = batched.loss_and_grad(params, cohort.features, cohort.labels)
        plain = plain.copy()

        batched.profiler = Profiler()
        _, profiled = batched.loss_and_grad(
            params, cohort.features, cohort.labels
        )
        assert np.array_equal(profiled, plain)
        keys = set(batched.profiler.snapshot())
        first = type(batched.ops[0]).__name__
        assert f"kernel.{first}.forward" in keys
        # The profiled run skips the same backward work as the plain one.
        if not batched.ops[0].has_params:
            assert f"kernel.{first}.backward" not in keys
        assert f"kernel.{type(batched.ops[-1]).__name__}.backward" in keys


def _extra_grad_pairs(rng, dim):
    """Per algorithm: (its previous out-of-place expression, its current
    ``extra_grad``, which may return a reused buffer)."""
    theta = rng.normal(size=dim)
    duals = rng.normal(size=(COHORT, dim))
    correction = rng.normal(size=(COHORT, dim))
    rho = 0.3
    return {
        "fedadmm": (
            lambda p: duals + rho * (p - theta[None, :]),
            penalty_grad(theta, rho, COHORT, duals),
        ),
        "fedpd": (
            lambda p: duals + rho * (p - theta[None, :]),
            penalty_grad(theta, rho, COHORT, duals),
        ),
        "fedprox": (
            lambda p: rho * (p - theta[None, :]),
            penalty_grad(theta, rho, COHORT),
        ),
        "scaffold": (lambda _: correction, lambda _: correction),
    }


class TestInPlaceUpdate:
    @pytest.mark.parametrize("name", ["fedadmm", "fedpd", "fedprox", "scaffold"])
    @pytest.mark.parametrize("batch_size", [4, None])
    def test_local_sgd_equals_out_of_place_loop(self, name, batch_size):
        rng = np.random.default_rng(4)
        model = make_mlp(rng)
        cohort = make_cohort(model, rng, epochs=3)
        start = rng.normal(size=(COHORT, model.num_params))
        old, new = _extra_grad_pairs(rng, model.num_params)[name]
        config = LocalTrainingConfig(
            epochs=3, batch_size=batch_size, learning_rate=0.05
        )

        params, losses = batched_run_local_sgd(cohort, start, config, new)
        ref_params, ref_losses = reference_local_sgd(cohort, start, config, old)
        assert np.array_equal(params, ref_params)
        assert np.array_equal(losses, ref_losses)

    @pytest.mark.parametrize(
        "name", ["fedavg", "fedadmm", "fedpd", "fedprox", "scaffold"]
    )
    def test_batched_local_update_equals_reference_loop(self, name, monkeypatch):
        def run(local_sgd):
            """Every array and loss two rounds of the algorithm produce."""
            monkeypatch.setattr(batched_module, "batched_run_local_sgd", local_sgd)
            rng = np.random.default_rng(5)
            model = make_mlp(rng)
            cohort = make_cohort(model, rng, epochs=2)
            clients = [
                ClientState(
                    client_id=index,
                    dataset=Dataset(
                        features=cohort.features[index],
                        labels=cohort.labels[index],
                    ),
                )
                for index in range(COHORT)
            ]
            algorithm = build_algorithm(name, **ALGO_KWARGS.get(name, {}))
            global_params = model.get_flat_params()
            server_state = algorithm.init_server_state(global_params, COHORT)
            config = LocalTrainingConfig(epochs=2, batch_size=4, learning_rate=0.1)
            outputs = []
            # Two rounds, so the duals/controls carried between rounds
            # feed the second round's extra gradient.
            for round_index in range(2):
                for message in algorithm.batched_local_update(
                    cohort, clients, global_params, server_state, config,
                    round_index=round_index,
                ):
                    outputs.append(message.train_loss)
                    outputs.extend(message.payload[key]
                                   for key in sorted(message.payload))
            for client in clients:
                outputs.extend(client.variables[key]
                               for key in sorted(client.variables))
            return outputs

        got, want = run(batched_run_local_sgd), run(reference_local_sgd)
        assert len(got) == len(want)
        for value, ref_value in zip(got, want):
            assert np.array_equal(value, ref_value)

    def test_penalty_grad_reuses_one_buffer(self):
        rng = np.random.default_rng(6)
        theta = rng.normal(size=5)
        duals = rng.normal(size=(COHORT, 5))
        extra = penalty_grad(theta, 0.7, COHORT, duals)
        first = extra(rng.normal(size=(COHORT, 5)))
        params = rng.normal(size=(COHORT, 5))
        second = extra(params)
        assert second is first
        assert np.array_equal(second, duals + 0.7 * (params - theta[None, :]))
