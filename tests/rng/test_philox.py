"""Tests for the counter-based RNG engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.rng.philox import (
    _GOLDEN_GAMMA,
    _PHILOX_M0,
    PhiloxEngine,
    _mix64,
    philox_uniform,
    philox_uniform_premixed,
    premix_key,
)


class TestPhiloxUniform:
    def test_outputs_in_unit_interval(self):
        values = philox_uniform(42, np.arange(10_000, dtype=np.uint64))
        assert np.all(values >= 0.0)
        assert np.all(values < 1.0)

    def test_deterministic_for_same_key_and_counter(self):
        assert philox_uniform(7, 123) == philox_uniform(7, 123)

    def test_different_counters_give_different_values(self):
        values = philox_uniform(7, np.arange(1000, dtype=np.uint64))
        assert np.unique(values).size > 990

    def test_different_keys_give_different_streams(self):
        a = philox_uniform(1, np.arange(100, dtype=np.uint64))
        b = philox_uniform(2, np.arange(100, dtype=np.uint64))
        assert not np.allclose(a, b)

    def test_mean_and_variance_close_to_uniform(self):
        values = philox_uniform(99, np.arange(200_000, dtype=np.uint64))
        assert abs(values.mean() - 0.5) < 0.01
        assert abs(values.var() - 1.0 / 12.0) < 0.01


def _reference_uniform(key, counter):
    """The generator's defining formula, re-keyed on every call."""
    key_arr, counter_arr = np.broadcast_arrays(
        np.asarray(key, dtype=np.uint64), np.asarray(counter, dtype=np.uint64)
    )
    with np.errstate(over="ignore"):
        keyed = _mix64(((counter_arr + _GOLDEN_GAMMA) * _PHILOX_M0) ^ _mix64(key_arr))
    return (keyed >> np.uint64(11)).astype(np.float64) * float(2.0**-53)


class TestPremixedKeys:
    """Pools store ``premix_key(key)`` once; draws must not change a bit."""

    KEYS = np.array([0, 1, 7, 2**63 + 5, 2**64 - 1], dtype=np.uint64)
    COUNTERS = np.array([0, 1, 31, 2**40, 2**64 - 2], dtype=np.uint64)

    def test_premixed_form_equals_philox_uniform_bit_for_bit(self):
        keys = self.KEYS[:, None]
        expected = _reference_uniform(keys, self.COUNTERS)
        assert np.array_equal(philox_uniform(keys, self.COUNTERS), expected)
        assert np.array_equal(philox_uniform_premixed(premix_key(keys), self.COUNTERS),
                              expected)

    def test_scalar_and_broadcast_shapes(self):
        for key in (3, np.uint64(2**63)):
            for ctr in (0, np.uint64(2**64 - 1)):
                assert philox_uniform_premixed(premix_key(key), ctr) == \
                    _reference_uniform(key, ctr)
        keys = premix_key(self.KEYS)[:, None]
        ctr = np.broadcast_to(self.COUNTERS, (2, self.KEYS.size, self.COUNTERS.size))
        out = philox_uniform_premixed(keys, ctr)
        assert out.shape == ctr.shape
        assert np.array_equal(out[1], _reference_uniform(self.KEYS[:, None], self.COUNTERS))

    def test_input_counters_are_not_modified(self):
        ctr = self.COUNTERS.copy()
        philox_uniform_premixed(premix_key(self.KEYS), ctr)
        assert np.array_equal(ctr, self.COUNTERS)


class TestPhiloxEngine:
    def test_same_seed_reproduces_sequence(self):
        a = PhiloxEngine(5).uniform(100)
        b = PhiloxEngine(5).uniform(100)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.allclose(PhiloxEngine(1).uniform(50), PhiloxEngine(2).uniform(50))

    def test_scalar_uniform_advances_counter(self):
        engine = PhiloxEngine(3)
        first = engine.uniform()
        second = engine.uniform()
        assert first != second
        assert engine.counter == 2

    def test_vector_then_scalar_continues_stream(self):
        a = PhiloxEngine(3)
        b = PhiloxEngine(3)
        combined = list(a.uniform(5)) + [a.uniform()]
        expected = list(b.uniform(6))
        assert combined == pytest.approx(expected)

    def test_split_streams_are_independent_and_reproducible(self):
        root = PhiloxEngine(11)
        child_a = root.split(0)
        child_b = root.split(1)
        again = PhiloxEngine(11).split(0)
        assert np.array_equal(child_a.uniform(20), again.uniform(20))
        assert not np.allclose(PhiloxEngine(11).split(0).uniform(20), child_b.uniform(20))

    def test_split_does_not_disturb_parent(self):
        root = PhiloxEngine(11)
        before = root.counter
        root.split(3)
        assert root.counter == before

    def test_integers_within_range(self):
        engine = PhiloxEngine(8)
        values = engine.integers(2, 9, size=1000)
        assert values.min() >= 2
        assert values.max() < 9

    def test_integers_cover_full_range(self):
        engine = PhiloxEngine(8)
        values = engine.integers(0, 4, size=2000)
        assert set(np.unique(values)) == {0, 1, 2, 3}

    def test_integers_rejects_empty_range(self):
        with pytest.raises(ValueError):
            PhiloxEngine(1).integers(5, 5)

    def test_exponential_is_positive_with_unit_mean(self):
        values = PhiloxEngine(21).exponential(100_000)
        assert np.all(values >= 0)
        assert abs(values.mean() - 1.0) < 0.02

    def test_uniform_shape_tuple(self):
        values = PhiloxEngine(4).uniform((3, 7))
        assert values.shape == (3, 7)
