"""Named parameter storage and the RMSprop update rule."""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .tensor import Tensor, leaf

# RMSprop: squared-gradient decay, base learning rate, its inverse-time
# decay per step and the denominator's guard
RHO = 0.9
BASE_LR = 0.001
LR_DECAY = 1e-4
EPSILON = 1e-7


class ParameterStore:
    """Ordered collection of named parameter tensors.

    Trainable entries receive gradients and optimizer updates; state
    entries (batchnorm running statistics) are carried through checkpoints
    untouched by the optimizer.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name, array, trainable=True) -> Tensor:
        if name in self._params:
            raise ConfigurationError(f"duplicate parameter name {name!r}")
        t = leaf(array, needs_grad=trainable)
        self._params[name] = t
        return t

    def __getitem__(self, name) -> Tensor:
        return self._params[name]

    def names(self):
        return list(self._params)

    def items(self):
        return self._params.items()

    def trainable_items(self):
        return [(n, t) for n, t in self._params.items() if t.needs_grad]

    def zero_grads(self):
        for t in self._params.values():
            t.zero_grad()

    def state_arrays(self):
        """name -> raw array for every entry, in insertion order."""
        return {n: t.data for n, t in self._params.items()}

    def load_state(self, arrays):
        """Overwrite parameter values from a name -> array mapping.

        An array already of the parameter's dtype is taken as is, not copied.
        """
        missing = [n for n in self._params if n not in arrays]
        extra = [n for n in arrays if n not in self._params]
        if missing or extra:
            raise ConfigurationError(
                f"parameter set mismatch: missing {missing[:3]}, unexpected {extra[:3]}"
            )
        for n, t in self._params.items():
            src = np.asarray(arrays[n])
            if src.shape != t.data.shape:
                raise ConfigurationError(
                    f"parameter {n!r} shape {src.shape} != expected {t.data.shape}"
                )
            t.data = np.asarray(src, dtype=t.data.dtype)


class RmspropState:
    """Per-parameter squared-gradient accumulators plus the decay schedule.

    The effective learning rate at step t (0-based count of completed
    batches) is BASE_LR / (1 + LR_DECAY * t).
    """

    def __init__(self, store: ParameterStore):
        self.step_count = 0
        self.acc = {
            name: np.zeros_like(t.data) for name, t in store.trainable_items()
        }

    def learning_rate(self):
        return BASE_LR / (1.0 + LR_DECAY * self.step_count)


def rmsprop_step(store: ParameterStore, state: RmspropState):
    """One RMSprop update from the gradients currently held by the store.

    acc <- rho * acc + (1 - rho) * g^2
    p   <- p - lr_t * g / (sqrt(acc) + epsilon)
    """
    lr = state.learning_rate()
    for name, t in store.trainable_items():
        g = t.grad
        acc = state.acc[name]
        acc *= RHO
        acc += (1.0 - RHO) * (g * g)
        t.data = t.data - lr * g / (np.sqrt(acc) + EPSILON)
    state.step_count += 1
