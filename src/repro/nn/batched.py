"""Batched multi-client kernels: a cohort of clients as one stacked tensor.

The federated hot path is local training: every selected client runs a few
epochs of SGD on a small model, and the serial executor pays the full
Python dispatch cost (``set_flat_params``, layer-by-layer forward/backward,
``get_flat_grad``) once *per client per batch*.  For the models the presets
sweep — stacks of :class:`~repro.nn.layers.Linear` and elementwise
activations on flat features, and the im2col convolutions of the paper's
CNN zoo — that dispatch cost dwarfs the arithmetic.  This module removes
it by giving the whole cohort a leading client axis:

* parameters become one ``(C, dim)`` array (one flat vector per client),
* features/labels become ``(C, n, d)`` / ``(C, n)`` stacks,
* each layer's forward/backward is a single stacked ``matmul`` /
  elementwise op over all ``C`` clients at once.

All raw array math goes through a pluggable :class:`~repro.nn.backend.Backend`
(NumPy by default; see :mod:`repro.nn.backend` for the selection chain),
and every :class:`BatchedModel` owns a per-cohort-shape **workspace**: the
``(C, dim)`` gradient buffer and the cross-entropy one-hot buffer are
allocated once per distinct cohort size and reused across every step and
round.  The gradient buffer is reused *without zeroing* — this is safe
because each parametric op's backward **assigns** (never accumulates) its
full parameter slice, and :func:`build_batched_model` verifies the slices
tile the entire flat layout (``offset == model.num_params``).  A step does
no work its result does not read: the backward pass ends at the first
parametric op (the input-feature gradient is never formed), and
:func:`batched_run_local_sgd` applies the update inside the gradient
buffer, so the results are bit-identical to the full-work kernels.

:func:`build_batched_model` compiles a supported model template into a
:class:`BatchedModel`; architectures with genuinely unbatchable pieces
(custom layers, subclassed losses) return ``None`` and the caller falls
back to per-client execution.  :func:`batched_run_local_sgd` mirrors
:func:`repro.algorithms.base.run_local_sgd` step for step — same batch
schedule, same update order, same loss bookkeeping — so a batched cohort
reproduces the serial histories up to stacked-matmul reduction order
(``atol=1e-8`` on the pinned goldens, see ``docs/tutorials/fast-sweeps.md``
for the tolerance contract).  The one documented exception is
:class:`BatchedDropout`: dropout masks come from a dedicated per-model
stream (pre-seeded per cohort, drawn with a leading client axis so every
client gets its own mask), not from the serial layers' private generators,
so dropout-bearing models reproduce deterministically under the vectorized
executor but match serial only in distribution.

Nothing here knows about clients, algorithms, or executors: the module
consumes arrays and a training config, exactly like the serial kernels in
:mod:`repro.nn.layers`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.exceptions import ShapeError
from repro.nn.backend import Backend, get_backend
from repro.nn.functional import col2im, conv_output_size, im2col
from repro.nn.layers import (
    Conv2D,
    Dropout,
    Flatten,
    Linear,
    MaxPool2D,
    ReLU,
    Sequential,
    Tanh,
)
from repro.nn.losses import CrossEntropyLoss, Loss, MSELoss
from repro.nn.module import Module

#: Extra per-parameter gradient term added before each SGD step, evaluated
#: at the current stacked parameters ``(C, dim)`` (proximal/dual terms).
#: The returned array may be a buffer the callable reuses (e.g. filled with
#: ``out=``): :func:`batched_run_local_sgd` reads it once, before the next
#: call, and never writes to it.  See :func:`penalty_grad`.
ExtraGrad = Callable[[np.ndarray], np.ndarray]


def _resolve_backend(backend: Backend | str | None) -> Backend:
    if isinstance(backend, Backend):
        return backend
    return get_backend(backend)


# --------------------------------------------------------------------------- #
# Batched layer ops
# --------------------------------------------------------------------------- #
class _BatchedOp:
    """One layer of a :class:`BatchedModel`: stacked forward/backward."""

    #: Whether the op owns a slice of the flat parameter vector.
    has_params = False

    def forward(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grads: np.ndarray, grad_output: np.ndarray) -> np.ndarray:
        """Write parameter gradients into ``grads`` (``(C, dim)``) and
        return the gradient with respect to this op's input.

        Parametric ops **assign** their full slice of ``grads`` (no ``+=``):
        the model's workspace relies on this to reuse the buffer between
        steps without zeroing it.  Parametric ops (``has_params``) also
        take ``input_grad=False``: they then write their parameter
        gradients only and return ``None``.  The model asks this of its
        first parametric op, whose input gradient nobody reads.
        """
        raise NotImplementedError

    def clone(self) -> "_BatchedOp":
        """A fresh op with the same configuration and no cached state.

        Cohorts executing concurrently must not share ops: forward caches
        activations on the instance (``_input``/``_mask``/...), so each
        concurrent execution context clones the compiled pipeline.
        """
        raise NotImplementedError


class BatchedLinear(_BatchedOp):
    """``y = x @ W + b`` with a leading client axis on everything."""

    has_params = True

    def __init__(
        self,
        in_features: int,
        out_features: int,
        offset: int,
        backend: Backend | str | None = None,
    ):
        self.in_features = in_features
        self.out_features = out_features
        self.offset = offset
        self.backend = _resolve_backend(backend)
        self.weight_slice = slice(offset, offset + in_features * out_features)
        self.bias_slice = slice(
            self.weight_slice.stop, self.weight_slice.stop + out_features
        )
        self._input: np.ndarray | None = None
        self._weight: np.ndarray | None = None

    def clone(self) -> "BatchedLinear":
        return BatchedLinear(
            self.in_features, self.out_features, self.offset, self.backend
        )

    def forward(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        cohort = params.shape[0]
        if x.ndim != 3 or x.shape[2] != self.in_features:
            raise ShapeError(
                f"BatchedLinear expected input of shape (C, n, "
                f"{self.in_features}), got {x.shape}"
            )
        weight = params[:, self.weight_slice].reshape(
            cohort, self.in_features, self.out_features
        )
        bias = params[:, self.bias_slice]
        self._input = x
        self._weight = weight
        return self.backend.matmul(x, weight) + bias[:, None, :]

    def backward(
        self, grads: np.ndarray, grad_output: np.ndarray, input_grad: bool = True
    ) -> np.ndarray | None:
        if self._input is None or self._weight is None:
            raise ShapeError("backward called before forward on BatchedLinear")
        cohort = grads.shape[0]
        grads[:, self.weight_slice] = self.backend.matmul(
            self._input.transpose(0, 2, 1), grad_output
        ).reshape(cohort, -1)
        grads[:, self.bias_slice] = self.backend.sum(grad_output, axis=1)
        if not input_grad:
            return None
        return self.backend.matmul(grad_output, self._weight.transpose(0, 2, 1))


class BatchedConv2D(_BatchedOp):
    """Stacked 2-D convolution via the documented im2col path.

    im2col is weight-independent, so the client axis folds into the im2col
    batch — one patch extraction covers the whole cohort — and only the
    multiply against the per-client weights runs as a stacked matmul:

    * ``(C, n, c, h, w)`` → fold → ``(C·n, c, h, w)`` → :func:`im2col` →
      reshape → ``cols (C, n·oh·ow, c·kh·kw)``,
    * per-client weights ``(C, out_ch, c·kh·kw)`` from the flat params,
    * ``out = cols @ Wᵀ + b`` — one batched matmul for all clients.

    Row ordering matches :class:`repro.nn.layers.Conv2D` exactly, so each
    client's slice reproduces the serial layer up to reduction order.
    """

    has_params = True

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int,
        padding: int,
        offset: int,
        backend: Backend | str | None = None,
    ):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.offset = offset
        self.backend = _resolve_backend(backend)
        weight_size = out_channels * in_channels * kernel_size * kernel_size
        self.weight_slice = slice(offset, offset + weight_size)
        self.bias_slice = slice(
            self.weight_slice.stop, self.weight_slice.stop + out_channels
        )
        self._cols: np.ndarray | None = None
        self._weight: np.ndarray | None = None
        self._input_shape: tuple[int, ...] | None = None

    def clone(self) -> "BatchedConv2D":
        return BatchedConv2D(
            self.in_channels,
            self.out_channels,
            self.kernel_size,
            self.stride,
            self.padding,
            self.offset,
            self.backend,
        )

    def forward(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        if x.ndim != 5 or x.shape[2] != self.in_channels:
            raise ShapeError(
                f"BatchedConv2D expected input (C, n, {self.in_channels}, "
                f"h, w), got {x.shape}"
            )
        cohort, n, _, height, width = x.shape
        out_h = conv_output_size(height, self.kernel_size, self.stride, self.padding)
        out_w = conv_output_size(width, self.kernel_size, self.stride, self.padding)

        folded = x.reshape(cohort * n, self.in_channels, height, width)
        cols = im2col(
            folded, self.kernel_size, self.kernel_size, self.stride, self.padding
        ).reshape(cohort, n * out_h * out_w, -1)
        weight = params[:, self.weight_slice].reshape(
            cohort, self.out_channels, -1
        )
        bias = params[:, self.bias_slice]
        out = self.backend.matmul(cols, weight.transpose(0, 2, 1)) + bias[:, None, :]
        out = out.reshape(cohort, n, out_h, out_w, self.out_channels)

        self._cols = cols
        self._weight = weight
        self._input_shape = x.shape
        return out.transpose(0, 1, 4, 2, 3)

    def backward(
        self, grads: np.ndarray, grad_output: np.ndarray, input_grad: bool = True
    ) -> np.ndarray | None:
        if self._cols is None or self._weight is None or self._input_shape is None:
            raise ShapeError("backward called before forward on BatchedConv2D")
        cohort, n = self._input_shape[0], self._input_shape[1]
        # (C, n, out_ch, oh, ow) -> (C, n*oh*ow, out_ch): the serial layer's
        # row order, per client.
        grad_mat = grad_output.transpose(0, 1, 3, 4, 2).reshape(
            cohort, -1, self.out_channels
        )
        grads[:, self.weight_slice] = self.backend.matmul(
            grad_mat.transpose(0, 2, 1), self._cols
        ).reshape(cohort, -1)
        grads[:, self.bias_slice] = self.backend.sum(grad_mat, axis=1)
        if not input_grad:
            return None

        grad_cols = self.backend.matmul(grad_mat, self._weight)
        folded_shape = (cohort * n,) + self._input_shape[2:]
        grad_input = col2im(
            grad_cols.reshape(-1, grad_cols.shape[2]),
            folded_shape,
            self.kernel_size,
            self.kernel_size,
            self.stride,
            self.padding,
        )
        return grad_input.reshape(self._input_shape)


class BatchedMaxPool2D(_BatchedOp):
    """Stacked max pooling: clients *and* channels fold into the im2col batch."""

    def __init__(
        self,
        kernel_size: int,
        stride: int,
        backend: Backend | str | None = None,
    ):
        self.kernel_size = kernel_size
        self.stride = stride
        self.backend = _resolve_backend(backend)
        self._input_shape: tuple[int, ...] | None = None
        self._argmax: np.ndarray | None = None
        self._cols_grad: np.ndarray | None = None

    def clone(self) -> "BatchedMaxPool2D":
        return BatchedMaxPool2D(self.kernel_size, self.stride, self.backend)

    def forward(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        if x.ndim != 5:
            raise ShapeError(f"BatchedMaxPool2D expected 5-D input, got {x.shape}")
        cohort, n, channels, height, width = x.shape
        k, s = self.kernel_size, self.stride
        out_h = conv_output_size(height, k, s, 0)
        out_w = conv_output_size(width, k, s, 0)

        folded = x.reshape(cohort * n * channels, 1, height, width)
        cols = im2col(folded, k, k, s, 0)
        argmax = cols.argmax(axis=1)
        out = cols[np.arange(cols.shape[0]), argmax]

        self._input_shape = x.shape
        self._argmax = argmax
        return out.reshape(cohort, n, channels, out_h, out_w)

    def backward(self, grads: np.ndarray, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None or self._argmax is None:
            raise ShapeError("backward called before forward on BatchedMaxPool2D")
        cohort, n, channels, height, width = self._input_shape
        k, s = self.kernel_size, self.stride

        grad_flat = grad_output.reshape(-1)
        # Workspace: the scatter target is reused between steps (zeroed each
        # time — only the argmax positions are written).
        if self._cols_grad is None or self._cols_grad.shape[0] != grad_flat.size:
            self._cols_grad = self.backend.zeros((grad_flat.size, k * k))
        else:
            self._cols_grad.fill(0.0)
        self._cols_grad[np.arange(grad_flat.size), self._argmax] = grad_flat
        grad_input = col2im(
            self._cols_grad, (cohort * n * channels, 1, height, width), k, k, s, 0
        )
        return grad_input.reshape(self._input_shape)


class BatchedImageReshape(_BatchedOp):
    """Unflatten ``(C, n, c·h·w)`` feature stacks into ``(C, n, c, h, w)``."""

    def __init__(self, channels: int, height: int, width: int):
        self.channels = channels
        self.height = height
        self.width = width

    def clone(self) -> "BatchedImageReshape":
        return BatchedImageReshape(self.channels, self.height, self.width)

    def forward(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        expected = self.channels * self.height * self.width
        if x.ndim != 3 or x.shape[2] != expected:
            raise ShapeError(
                f"BatchedImageReshape expected input (C, n, {expected}), "
                f"got {x.shape}"
            )
        return x.reshape(
            x.shape[0], x.shape[1], self.channels, self.height, self.width
        )

    def backward(self, grads: np.ndarray, grad_output: np.ndarray) -> np.ndarray:
        return grad_output.reshape(grad_output.shape[0], grad_output.shape[1], -1)


class BatchedReLU(_BatchedOp):
    def __init__(self, backend: Backend | str | None = None) -> None:
        self.backend = _resolve_backend(backend)
        self._mask: np.ndarray | None = None

    def clone(self) -> "BatchedReLU":
        return BatchedReLU(self.backend)

    def forward(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return self.backend.where(self._mask, x, 0.0)

    def backward(self, grads: np.ndarray, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise ShapeError("backward called before forward on BatchedReLU")
        return self.backend.multiply(grad_output, self._mask)


class BatchedTanh(_BatchedOp):
    def __init__(self, backend: Backend | str | None = None) -> None:
        self.backend = _resolve_backend(backend)
        self._output: np.ndarray | None = None

    def clone(self) -> "BatchedTanh":
        return BatchedTanh(self.backend)

    def forward(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        self._output = self.backend.tanh(x)
        return self._output

    def backward(self, grads: np.ndarray, grad_output: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise ShapeError("backward called before forward on BatchedTanh")
        return self.backend.multiply(grad_output, 1.0 - self._output**2)


class BatchedFlatten(_BatchedOp):
    """Flatten everything after the sample axis (identity on flat features)."""

    def __init__(self) -> None:
        self._input_shape: tuple[int, ...] | None = None

    def clone(self) -> "BatchedFlatten":
        return BatchedFlatten()

    def forward(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        self._input_shape = x.shape
        return x.reshape(x.shape[0], x.shape[1], -1)

    def backward(self, grads: np.ndarray, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise ShapeError("backward called before forward on BatchedFlatten")
        return grad_output.reshape(self._input_shape)


class BatchedDropout(_BatchedOp):
    """Inverted dropout with per-client masks; identity in evaluation mode.

    Each training-mode forward draws one mask of the activation's full
    ``(C, n, ...)`` shape — a distinct mask per client — from the op's own
    generator.  The generator is **not** the serial layers' private stream:
    serial execution interleaves per-client draws in a way a single stacked
    forward cannot replay, so dropout-bearing models are deterministic
    under the vectorized executor (see :meth:`BatchedModel.reseed_dropout`)
    but match the serial path only in distribution.  The ``atol=1e-8``
    tolerance contract therefore applies to dropout-free models.
    """

    def __init__(self, rate: float, rng: np.random.Generator | int | None = None):
        self.rate = rate
        self.training = True
        self._rng = (
            rng if isinstance(rng, np.random.Generator)
            else np.random.default_rng(0 if rng is None else rng)
        )
        self._mask: np.ndarray | None = None

    def clone(self) -> "BatchedDropout":
        # Clones start from a fresh deterministic stream; executors reseed
        # per cohort before use (BatchedModel.reseed_dropout).
        return BatchedDropout(self.rate, 0)

    def forward(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        if not self.training or self.rate == 0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grads: np.ndarray, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_output
        return grad_output * self._mask


# --------------------------------------------------------------------------- #
# Batched losses
# --------------------------------------------------------------------------- #
class BatchedCrossEntropy:
    """Per-client softmax cross-entropy over ``(C, n, K)`` logits."""

    def __init__(self, backend: Backend | str | None = None) -> None:
        self.backend = _resolve_backend(backend)
        self._one_hot: np.ndarray | None = None

    def clone(self) -> "BatchedCrossEntropy":
        return BatchedCrossEntropy(self.backend)

    def value_and_grad(
        self, logits: np.ndarray, targets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        targets = np.asarray(targets, dtype=np.int64)
        n = logits.shape[1]
        log_probs = self.backend.log_softmax(logits)
        picked = np.take_along_axis(log_probs, targets[:, :, None], axis=2)
        losses = -picked[:, :, 0].mean(axis=1)
        # Workspace: one reusable one-hot buffer per logits shape (zeroed
        # each step — the scatter writes only the target entries).
        if self._one_hot is None or self._one_hot.shape != logits.shape:
            self._one_hot = self.backend.zeros(logits.shape)
        else:
            self._one_hot.fill(0.0)
        np.put_along_axis(self._one_hot, targets[:, :, None], 1.0, axis=2)
        grad = (self.backend.softmax(logits) - self._one_hot) / n
        return losses, grad


class BatchedMSE:
    """Per-client mean squared error over ``(C, ...)`` predictions."""

    def __init__(self, backend: Backend | str | None = None) -> None:
        self.backend = _resolve_backend(backend)

    def clone(self) -> "BatchedMSE":
        return BatchedMSE(self.backend)

    def value_and_grad(
        self, predictions: np.ndarray, targets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        targets = np.asarray(targets, dtype=np.float64)
        if predictions.shape != targets.shape:
            raise ShapeError(
                f"BatchedMSE shape mismatch: {predictions.shape} vs "
                f"{targets.shape}"
            )
        diff = predictions - targets
        per_client = diff.size // diff.shape[0]
        losses = (diff**2).reshape(diff.shape[0], -1).mean(axis=1)
        grad = 2.0 * diff / per_client
        return losses, grad


def _batched_loss_for(loss: Loss, backend: Backend):
    """The stacked counterpart of a serial loss, or ``None`` if unsupported.

    Exact type matches only: a subclass may override ``value_and_grad``
    with semantics the batched kernel would silently diverge from.
    """
    if type(loss) is CrossEntropyLoss:
        return BatchedCrossEntropy(backend)
    if type(loss) is MSELoss:
        return BatchedMSE(backend)
    return None


# --------------------------------------------------------------------------- #
# Model compilation
# --------------------------------------------------------------------------- #
class BatchedModel:
    """A model template compiled to stacked ops over a ``(C, dim)`` packing.

    The flat-parameter layout is exactly the template's
    :meth:`~repro.nn.module.Module.get_flat_params` order, so rows of the
    stacked parameter array round-trip into the serial model unchanged.

    The model owns a per-cohort-shape workspace: one ``(C, dim)`` gradient
    buffer per distinct cohort size ``C``, reused across every step, round,
    and :meth:`loss_and_grad` call.  **The returned gradient array is owned
    by this workspace and is overwritten by the next call** — consume it
    (or copy it) before calling again.  The caller may also consume it in
    place: :func:`batched_run_local_sgd` turns it into the SGD step.  A
    ``BatchedModel`` instance is not safe for concurrent use; executors
    give each concurrent cohort its own :meth:`clone`.

    No gradient with respect to the input features is computed: backward
    stops at the first parametric op, which writes its parameter gradients
    only.  The parameter gradients are bit-identical to a full backward
    pass through every op.
    """

    def __init__(
        self,
        ops: list[_BatchedOp],
        dim: int,
        loss,
        backend: Backend | str | None = None,
    ) -> None:
        self.ops = ops
        self.dim = dim
        self.loss = loss
        self.backend = _resolve_backend(backend)
        #: Optional :class:`repro.obs.Profiler`: when set, every stacked
        #: op's forward/backward is timed under a ``kernel.*`` key.  The
        #: untimed hot path pays one clock read and one ``None`` check per op.
        self.profiler = None
        self._grad_buffers: dict[int, np.ndarray] = {}
        #: Where backward stops: nothing in front of the first parametric
        #: op contributes a parameter gradient.
        self._first_parametric = next(
            (index for index, op in enumerate(ops) if op.has_params), len(ops)
        )

    def clone(self) -> "BatchedModel":
        """A fresh execution context: same compiled pipeline, own workspace."""
        cloned = BatchedModel(
            [op.clone() for op in self.ops], self.dim, self.loss.clone(),
            self.backend,
        )
        cloned.profiler = self.profiler
        return cloned

    @property
    def has_dropout(self) -> bool:
        """Whether any op draws stochastic masks during training."""
        return any(isinstance(op, BatchedDropout) for op in self.ops)

    def reseed_dropout(self, seed: int) -> None:
        """Reset every dropout op's mask stream deterministically.

        Executors call this once per cohort before training, with a seed
        pre-drawn in task order, so dropout-bearing cohorts reproduce
        regardless of which worker thread (or pooled model clone) runs them.
        """
        for index, op in enumerate(self.ops):
            if isinstance(op, BatchedDropout):
                op._rng = np.random.default_rng([seed, index])

    def train(self, training: bool = True) -> "BatchedModel":
        """Toggle training mode (dropout active) on every stochastic op."""
        for op in self.ops:
            if isinstance(op, BatchedDropout):
                op.training = training
        return self

    def eval(self) -> "BatchedModel":
        return self.train(False)

    def _grads_for(self, cohort: int) -> np.ndarray:
        """The reused ``(C, dim)`` gradient buffer for this cohort size.

        Never zeroed between uses: every parametric op's backward assigns
        its full slice, and compilation verified the slices tile the whole
        flat layout, so each backward pass overwrites every element.
        """
        buffer = self._grad_buffers.get(cohort)
        if buffer is None:
            buffer = self.backend.zeros((cohort, self.dim))
            self._grad_buffers[cohort] = buffer
        return buffer

    def loss_and_grad(
        self, params: np.ndarray, features: np.ndarray, labels: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-client mean loss ``(C,)`` and flat gradients ``(C, dim)``.

        The gradient array is the model's reused workspace buffer: it is
        valid until the next ``loss_and_grad`` call on this instance, and
        the caller may consume it in place.  The gradient with respect to
        ``features`` is never formed: the backward pass stops at the first
        parametric op, which writes its parameter gradients only, and the
        parameter-free ops in front of it run no backward at all.  When
        :attr:`profiler` is set, every op is timed under a ``kernel.*`` key.
        """
        profiler = self.profiler
        x = features
        for op in self.ops:
            started = time.perf_counter()
            x = op.forward(params, x)
            if profiler is not None:
                profiler.add(
                    f"kernel.{type(op).__name__}.forward",
                    time.perf_counter() - started,
                )
        started = time.perf_counter()
        losses, grad_output = self.loss.value_and_grad(x, labels)
        if profiler is not None:
            profiler.add(
                f"kernel.{type(self.loss).__name__}", time.perf_counter() - started
            )
        grads = self._grads_for(params.shape[0])
        first = self._first_parametric
        for index in range(len(self.ops) - 1, first - 1, -1):
            op = self.ops[index]
            started = time.perf_counter()
            if index > first:
                grad_output = op.backward(grads, grad_output)
            else:
                op.backward(grads, grad_output, input_grad=False)
            if profiler is not None:
                profiler.add(
                    f"kernel.{type(op).__name__}.backward",
                    time.perf_counter() - started,
                )
        return losses, grads

    def full_loss_and_grad(
        self,
        params: np.ndarray,
        features: np.ndarray,
        labels: np.ndarray,
        batch_size: int | None = 256,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact per-client loss/gradient over the whole stacked dataset.

        Chunked along the sample axis with the same sample-weighted
        accumulation as :meth:`LocalProblem.full_loss_and_grad`, so the
        reduction matches the serial path chunk for chunk.  Returns fresh
        arrays (not the workspace buffer).
        """
        cohort, n = features.shape[0], features.shape[1]
        step = n if batch_size is None or batch_size >= n else batch_size
        total_loss = np.zeros(cohort, dtype=np.float64)
        total_grad = np.zeros((cohort, self.dim), dtype=np.float64)
        for start in range(0, n, step):
            chunk = slice(start, min(start + step, n))
            losses, grads = self.loss_and_grad(
                params, features[:, chunk], labels[:, chunk]
            )
            weight = chunk.stop - chunk.start
            total_loss += losses * weight
            total_grad += grads * weight
        return total_loss / n, total_grad / n


def _iter_supported_layers(model: Module) -> Iterator[Module] | None:
    """Flatten nested ``Sequential`` containers, or ``None`` if unsupported."""
    if not isinstance(model, Sequential):
        return None
    flat: list[Module] = []
    for layer in model.layers:
        if isinstance(layer, Sequential):
            inner = _iter_supported_layers(layer)
            if inner is None:
                return None
            flat.extend(inner)
        else:
            flat.append(layer)
    return flat


def build_batched_model(
    model: Module, loss: Loss, backend: Backend | str | None = None
) -> BatchedModel | None:
    """Compile a model template into a :class:`BatchedModel`.

    Covers the full model zoo — Linear/activation stacks, the im2col
    convolution + pooling blocks of the paper's CNNs, and dropout.
    Returns ``None`` when the architecture or loss has no batched
    counterpart (custom layers, subclassed losses) — the caller then
    falls back to per-client execution.
    """
    from repro.nn.models import _ImageReshape

    resolved = _resolve_backend(backend)
    layers = _iter_supported_layers(model)
    batched_loss = _batched_loss_for(loss, resolved)
    if layers is None or batched_loss is None:
        return None
    ops: list[_BatchedOp] = []
    offset = 0
    for position, layer in enumerate(layers):
        if type(layer) is Linear:
            ops.append(
                BatchedLinear(
                    layer.in_features, layer.out_features, offset, resolved
                )
            )
            offset += layer.in_features * layer.out_features + layer.out_features
        elif type(layer) is Conv2D:
            ops.append(
                BatchedConv2D(
                    layer.in_channels,
                    layer.out_channels,
                    layer.kernel_size,
                    layer.stride,
                    layer.padding,
                    offset,
                    resolved,
                )
            )
            offset += (
                layer.out_channels * layer.in_channels * layer.kernel_size**2
                + layer.out_channels
            )
        elif type(layer) is MaxPool2D:
            ops.append(BatchedMaxPool2D(layer.kernel_size, layer.stride, resolved))
        elif type(layer) is _ImageReshape:
            ops.append(BatchedImageReshape(layer.channels, layer.height, layer.width))
        elif type(layer) is ReLU:
            ops.append(BatchedReLU(resolved))
        elif type(layer) is Tanh:
            ops.append(BatchedTanh(resolved))
        elif type(layer) is Flatten:
            ops.append(BatchedFlatten())
        elif type(layer) is Dropout:
            ops.append(BatchedDropout(layer.rate, position))
        else:
            return None
    if offset != model.num_params:
        # A layer carries parameters the batched packing did not account
        # for; running it stacked would silently train the wrong slices.
        return None
    return BatchedModel(ops, dim=offset, loss=batched_loss, backend=resolved)


# --------------------------------------------------------------------------- #
# Cohorts and batched local SGD
# --------------------------------------------------------------------------- #
@dataclass
class BatchedCohort:
    """A same-shape group of clients stacked along a leading axis.

    ``epoch_orders`` carries the pre-drawn per-epoch shuffles as an
    ``(E, C, n)`` index array — drawn by the caller *in task order* from
    each task's own RNG, so the cohort consumes exactly the random numbers
    the serial executor would have (see
    :meth:`repro.systems.executor.VectorizedExecutor.run_tasks`).  ``None``
    means full-batch training, which draws nothing, again like the serial
    path.
    """

    model: BatchedModel
    features: np.ndarray  # (C, n, d)
    labels: np.ndarray  # (C, n)
    epoch_orders: np.ndarray | None = None  # (E, C, n) or None

    @property
    def num_clients(self) -> int:
        return int(self.features.shape[0])

    @property
    def num_samples(self) -> int:
        """Local training-set size ``n`` (identical across the cohort)."""
        return int(self.features.shape[1])

    def full_loss_and_grad(
        self, params: np.ndarray, batch_size: int | None = 256
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every client's exact local loss/gradient at shared ``params``."""
        stacked = np.broadcast_to(
            np.asarray(params, dtype=np.float64), (self.num_clients, params.size)
        )
        return self.model.full_loss_and_grad(
            stacked, self.features, self.labels, batch_size=batch_size
        )


def _epoch_batches(
    cohort: BatchedCohort, batch_size: int | None, epoch: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield this epoch's stacked mini-batches, mirroring ``iterate_minibatches``."""
    n = cohort.num_samples
    if batch_size is None or batch_size >= n:
        yield cohort.features, cohort.labels
        return
    order = cohort.epoch_orders[epoch]  # (C, n)
    # Gather whole rows: client c's sample order[c, j] becomes row j.
    rows = np.arange(cohort.num_clients)[:, None]
    shuffled_x = cohort.features[rows, order]
    shuffled_y = cohort.labels[rows, order]
    for start in range(0, n, batch_size):
        stop = start + batch_size
        yield shuffled_x[:, start:stop], shuffled_y[:, start:stop]


def local_steps_per_round(num_samples: int, config) -> int:
    """Mini-batch steps one client takes in ``config.epochs`` local epochs.

    Mirrors ``iterate_minibatches``/:func:`_epoch_batches`: full-batch
    training is one step per epoch, otherwise ``ceil(n / batch_size)``.
    Cohorts group on ``(n, epochs, batch_size)``, so the count is shared by
    every member — SCAFFOLD's control-variate refresh divides by it.
    """
    batch_size = config.batch_size
    if batch_size is None or batch_size >= num_samples:
        per_epoch = 1
    else:
        per_epoch = -(-num_samples // batch_size)
    return config.epochs * per_epoch


def penalty_grad(
    theta: np.ndarray,
    rho: float,
    num_clients: int,
    duals: np.ndarray | None = None,
) -> ExtraGrad:
    """The augmented-Lagrangian term ``duals + rho * (params - theta)``.

    ``theta`` is the ``(dim,)`` server model shared by the cohort and
    ``duals`` the stacked ``(C, dim)`` duals (``None`` for a purely proximal
    term, as in FedProx).  Every call writes into one ``(C, dim)`` buffer
    owned by the returned callable, with the same operations as the
    out-of-place expression, so the values are bit-identical to it.
    """
    buffer = np.empty((num_clients, theta.shape[-1]), dtype=np.float64)

    def extra_grad(params: np.ndarray) -> np.ndarray:
        np.subtract(params, theta, out=buffer)
        np.multiply(buffer, rho, out=buffer)
        if duals is not None:
            np.add(buffer, duals, out=buffer)
        return buffer

    return extra_grad


def batched_run_local_sgd(
    cohort: BatchedCohort,
    start_params: np.ndarray,
    config,
    extra_grad: ExtraGrad | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked counterpart of :func:`repro.algorithms.base.run_local_sgd`.

    ``start_params`` is ``(C, dim)``; ``config`` is a
    :class:`~repro.algorithms.base.LocalTrainingConfig` shared by the whole
    cohort (cohorts group on epochs/batch size).  Returns the trained
    ``(C, dim)`` parameters and each client's mean mini-batch loss ``(C,)``
    — the unweighted mean over batches, exactly like the serial kernel.

    Each step consumes the model's gradient workspace in place
    (``grads += extra; grads *= lr; params -= grads``), the same operations
    in the same order as ``params -= lr * (grads + extra)``, so the result
    is bit-identical to the out-of-place update without its temporaries.
    ``extra_grad`` may return a buffer it reuses across calls; it is read
    before the next call.
    """
    params = np.array(start_params, dtype=np.float64, copy=True)
    loss_sum = np.zeros(cohort.num_clients, dtype=np.float64)
    batches_seen = 0
    for epoch in range(config.epochs):
        for features, labels in _epoch_batches(cohort, config.batch_size, epoch):
            losses, grads = cohort.model.loss_and_grad(params, features, labels)
            loss_sum += losses
            batches_seen += 1
            if extra_grad is not None:
                grads += extra_grad(params)
            grads *= config.learning_rate
            params -= grads
    if batches_seen:
        mean_losses = loss_sum / batches_seen
    else:
        mean_losses = np.full(cohort.num_clients, float("nan"))
    return params, mean_losses
