"""The pluggable array-backend seam (``repro.nn.backend``).

Covers the selection chain (explicit name > ``REPRO_BACKEND`` env var >
numpy default), registry hygiene, the import guard on optional backends,
and that a custom backend really is what the compiled batched model calls
through.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.nn.backend import (
    BACKEND_ENV_VAR,
    BACKEND_REGISTRY,
    Backend,
    NumpyBackend,
    available_backends,
    build_backend,
    get_backend,
    register_backend,
    resolve_backend_name,
)
from repro.nn.batched import build_batched_model
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import MLP


class TestSelectionChain:
    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert resolve_backend_name() == "numpy"
        assert isinstance(build_backend(), NumpyBackend)

    def test_env_var_overrides_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "torch")
        assert resolve_backend_name() == "torch"

    def test_explicit_name_beats_env_var(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "torch")
        assert resolve_backend_name("numpy") == "numpy"
        assert isinstance(build_backend("numpy"), NumpyBackend)

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            build_backend("no-such-backend")

    def test_get_backend_is_build_backend(self):
        assert type(get_backend("numpy")) is type(build_backend("numpy"))


class TestRegistry:
    def test_registry_always_lists_optional_backends(self):
        # torch is registered whether or not it is importable, so
        # `--backend torch` parses everywhere; building it without the
        # library raises the guard error instead.
        assert "numpy" in BACKEND_REGISTRY
        assert "torch" in BACKEND_REGISTRY

    def test_torch_backend_import_guard(self):
        try:
            import torch  # noqa: F401
        except ImportError:
            with pytest.raises(ConfigurationError, match="torch"):
                build_backend("torch")
        else:  # pragma: no cover - only on machines with torch
            backend = build_backend("torch")
            a = np.arange(6.0).reshape(2, 3)
            b = np.arange(12.0).reshape(3, 4)
            np.testing.assert_allclose(backend.matmul(a, b), a @ b)

    def test_available_backends_probes_factories(self):
        names = available_backends()
        assert "numpy" in names
        try:
            import torch  # noqa: F401
        except ImportError:
            assert "torch" not in names

    def test_register_backend_rejects_duplicates(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_backend("numpy", NumpyBackend)

    def test_register_backend_adds_buildable_entry(self):
        class Doubling(NumpyBackend):
            name = "doubling-test"

        register_backend("doubling-test", Doubling)
        try:
            assert isinstance(build_backend("doubling-test"), Doubling)
            assert "doubling-test" in available_backends()
        finally:
            del BACKEND_REGISTRY["doubling-test"]


class CountingBackend(NumpyBackend):
    """Numpy semantics plus call counting: proves the seam is exercised."""

    name = "counting"

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}

    def _count(self, op: str) -> None:
        self.calls[op] = self.calls.get(op, 0) + 1

    def matmul(self, a, b):
        self._count("matmul")
        return super().matmul(a, b)

    def tanh(self, x):
        self._count("tanh")
        return super().tanh(x)

    def softmax(self, logits):
        self._count("softmax")
        return super().softmax(logits)

    def log_softmax(self, logits):
        self._count("log_softmax")
        return super().log_softmax(logits)


class TestKernelsCallThroughTheSeam:
    def test_batched_model_routes_math_through_backend(self):
        backend = CountingBackend()
        model = MLP(input_dim=6, hidden_dims=(5,), num_classes=3,
                    rng=np.random.default_rng(0))
        batched = build_batched_model(model, CrossEntropyLoss(), backend=backend)
        assert batched is not None
        assert batched.backend is backend

        rng = np.random.default_rng(1)
        params = rng.normal(size=(2, model.num_params))
        features = rng.normal(size=(2, 8, 6))
        labels = rng.integers(0, 3, size=(2, 8))
        batched.loss_and_grad(params, features, labels)
        # Forward (2 linear) + backward (3: two weight-grad, one input-grad;
        # the first layer's input gradient is never formed) matmuls, plus
        # the fused softmax pair from the loss.
        assert backend.calls["matmul"] >= 4
        assert backend.calls["softmax"] == 1
        assert backend.calls["log_softmax"] == 1

    def test_counting_backend_is_bit_identical_to_numpy(self):
        model = MLP(input_dim=6, hidden_dims=(5,), num_classes=3,
                    rng=np.random.default_rng(0))
        default = build_batched_model(model, CrossEntropyLoss())
        counted = build_batched_model(
            model, CrossEntropyLoss(), backend=CountingBackend()
        )
        rng = np.random.default_rng(2)
        params = rng.normal(size=(3, model.num_params))
        features = rng.normal(size=(3, 7, 6))
        labels = rng.integers(0, 3, size=(3, 7))
        losses_a, grads_a = default.loss_and_grad(params, features, labels)
        losses_b, grads_b = counted.loss_and_grad(params, features, labels)
        np.testing.assert_array_equal(losses_a, losses_b)
        np.testing.assert_array_equal(grads_a, grads_b)


class TestBaseContract:
    def test_base_backend_reference_semantics(self):
        backend = Backend()
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 4))
        np.testing.assert_array_equal(backend.tanh(x), np.tanh(x))
        np.testing.assert_array_equal(backend.exp(x), np.exp(x))
        np.testing.assert_array_equal(
            backend.where(x > 0, x, 0.0), np.where(x > 0, x, 0.0)
        )
        np.testing.assert_array_equal(backend.multiply(x, x), x * x)
        np.testing.assert_array_equal(backend.sum(x, axis=1), x.sum(axis=1))
        np.testing.assert_array_equal(backend.mean(x, axis=1), x.mean(axis=1))
        np.testing.assert_array_equal(
            backend.einsum("cij,cjk->cik", x, rng.normal(size=(2, 4, 5))).shape,
            (2, 3, 5),
        )
        assert backend.zeros((2, 2)).dtype == np.float64
        assert backend.empty((2, 2)).shape == (2, 2)

    def test_config_rejects_unknown_backend(self):
        from repro.experiments.configs import ExperimentConfig

        with pytest.raises(ConfigurationError, match="unknown backend"):
            ExperimentConfig(name="x", backend="no-such-backend")
        config = ExperimentConfig(name="x", backend="numpy")
        assert config.backend == "numpy"
