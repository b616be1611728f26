"""RMSprop update rule and parameter store behavior."""

import numpy as np
import pytest

from arcaps.errors import ConfigurationError
from arcaps.optim import ParameterStore, RmspropState, rmsprop_step


def make_store(values):
    store = ParameterStore()
    p = store.add("p", np.asarray(values, dtype=np.float32))
    return store, p


class TestRmsprop:
    def test_zero_gradient_leaves_parameters_and_decays_accumulator(self):
        store, p = make_store([1.0, -2.0, 3.0])
        state = RmspropState(store)
        state.acc["p"][:] = 0.8
        before = p.data.copy()
        p.accumulate_grad(np.zeros(3, dtype=np.float32))
        rmsprop_step(store, state)
        assert np.array_equal(p.data, before)
        assert np.allclose(state.acc["p"], 0.8 * 0.9, atol=1e-7)
        assert state.step_count == 1

    def test_first_step_hand_computed(self):
        store, p = make_store([2.0, 2.0])
        state = RmspropState(store)
        p.accumulate_grad(np.ones(2, dtype=np.float32))
        rmsprop_step(store, state)
        assert np.allclose(state.acc["p"], 0.1, atol=1e-7)
        expected = 2.0 - 0.001 / (np.sqrt(0.1) + 1e-7)
        assert np.allclose(p.data, expected, atol=1e-6)

    def test_decay_schedule_closed_form(self):
        store, _ = make_store([0.0])
        state = RmspropState(store)
        assert state.learning_rate() == 0.001
        state.step_count = 10000
        assert abs(state.learning_rate() - 0.0005) < 1e-12
        state.step_count = 30000
        assert abs(state.learning_rate() - 0.00025) < 1e-12

    def test_accumulator_stays_nonnegative(self, rng):
        store, p = make_store(rng.standard_normal(16))
        state = RmspropState(store)
        for _ in range(50):
            p.zero_grad()
            p.accumulate_grad(rng.standard_normal(16).astype(np.float32))
            rmsprop_step(store, state)
        assert np.all(state.acc["p"] >= 0)
        assert state.step_count == 50

    def test_only_trainable_parameters_updated(self):
        store = ParameterStore()
        p = store.add("p", np.ones(2, dtype=np.float32))
        s = store.add("s", np.ones(2, dtype=np.float32), trainable=False)
        state = RmspropState(store)
        assert "s" not in state.acc
        p.accumulate_grad(np.ones(2, dtype=np.float32))
        rmsprop_step(store, state)
        assert not np.array_equal(p.data, np.ones(2))
        assert np.array_equal(s.data, np.ones(2))


class TestParameterStore:
    def test_duplicate_names_rejected(self):
        store = ParameterStore()
        store.add("x", np.zeros(2))
        with pytest.raises(ConfigurationError):
            store.add("x", np.zeros(2))

    def test_load_state_shape_and_name_checks(self):
        store = ParameterStore()
        store.add("a", np.zeros((2, 2), dtype=np.float32))
        with pytest.raises(ConfigurationError, match="mismatch"):
            store.load_state({"b": np.zeros((2, 2))})
        with pytest.raises(ConfigurationError, match="shape"):
            store.load_state({"a": np.zeros((3, 2))})
        store.load_state({"a": np.ones((2, 2))})
        assert np.array_equal(store["a"].data, np.ones((2, 2)))

    def test_load_state_takes_an_array_of_the_right_dtype_as_is(self):
        store = ParameterStore()
        store.add("a", np.zeros((2, 2), dtype=np.float32))
        src = np.ones((2, 2), dtype=np.float32)
        store.load_state({"a": src})
        assert np.shares_memory(store["a"].data, src)
        wide = np.full((2, 2), 2.0)
        store.load_state({"a": wide})
        assert store["a"].dtype == np.float32
        assert np.array_equal(store["a"].data, wide)
