"""Unit suite of the keyed acquisition-noise helper."""

import numpy as np
import pytest

from repro.core import DeviceNoise


class TestDeviceNoise:
    def test_device_zero_is_default_rng(self):
        for seed in (0, 7, np.random.SeedSequence(3, spawn_key=(1, 2))):
            expected = np.random.default_rng(seed).standard_normal(64)
            got = DeviceNoise(seed).generator(0).standard_normal(64)
            np.testing.assert_array_equal(got, expected)

    def test_device_d_is_the_seed_jumped_d_times(self):
        for d in (1, 5, 1000):
            expected = np.random.Generator(
                np.random.PCG64(11).jumped(d)).standard_normal(32)
            got = DeviceNoise(11).generator(d).standard_normal(32)
            np.testing.assert_array_equal(got, expected)

    def test_device_states_differ_in_their_low_bits(self):
        """The jump keeps device states apart in all 128 bits (jumps by
        multiples of 2**64 would share the low 64 bits)."""
        noise = DeviceNoise(2026)
        low = set()
        for d in range(8):
            state = noise.generator(d).bit_generator.state["state"]["state"]
            low.add(state & ((1 << 64) - 1))
        assert len(low) == 8

    def test_positioning_ignores_call_order(self):
        noise = DeviceNoise(2)
        forward = [noise.generator(d).standard_normal(16) for d in range(6)]
        backward = [noise.generator(d).standard_normal(16)
                    for d in reversed(range(6))][::-1]
        np.testing.assert_array_equal(forward, backward)
        assert len({row.tobytes() for row in forward}) == 6

    def test_fill_rows_are_device_streams(self):
        noise = DeviceNoise(4)
        out = noise.fill(np.empty((3, 50)), first=10)
        for i in range(3):
            np.testing.assert_array_equal(
                out[i], DeviceNoise(4).generator(10 + i).standard_normal(50))

    def test_numpy_integer_devices(self):
        noise = DeviceNoise(9)
        a = noise.generator(np.int64(3)).standard_normal(8)
        b = noise.generator(3).standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_seeds_differ(self):
        a = DeviceNoise(1).generator(2).standard_normal(8)
        b = DeviceNoise(2).generator(2).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_generator_seed_rejected(self):
        with pytest.raises(ValueError, match="keyed"):
            DeviceNoise(np.random.default_rng(0))
