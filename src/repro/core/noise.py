"""Keyed acquisition noise: every device draws from its own stream.

In the paper's BIST each converter is tested on its own die, so a die's
verdict may depend only on its transfer curve and its own acquisition
noise — never on which other dies share its batch, shard or worker
process.  Acquisition noise is therefore keyed by device: device ``d`` of
a seed draws from substream ``d`` of one :class:`~numpy.random.PCG64`
stream, reached by resetting the bit generator to the seed's initial
state and advancing it ``d`` jumps (:meth:`numpy.random.PCG64.advance`).
That is the stream of ``PCG64(seed).jumped(d)``, without building a new
bit generator per device, so device 0 of seed ``s`` is exactly
``numpy.random.default_rng(s)``.  The jump is numpy's golden-ratio step
of ``(phi - 1) * 2**128`` draws: jumps by multiples of ``2**64`` would
leave the low 64 state bits of all devices equal, which correlates
their outputs measurably.

A device is named by its row index in the batch an engine is given; the
batch is named by its seed (one seed per test insertion).  This module is
the only code that knows the scheme: the batch engines, the scalar
population loops and the multi-converter controller all position their
generators through :class:`DeviceNoise`.
"""

from __future__ import annotations

from typing import Union

import numpy as np

__all__ = ["DeviceNoise", "NoiseSeed", "noise_seed"]

#: The :meth:`numpy.random.PCG64.jumped` step, ``(phi - 1) * 2**128``.
PCG64_JUMP = 0x9E3779B97F4A7C15F39CC0605CEDC835

#: What an entry point accepts as the seed of its acquisition noise.
NoiseSeed = Union[int, np.integer, np.random.SeedSequence, None]


def noise_seed(seed: NoiseSeed) -> Union[int, np.random.SeedSequence]:
    """Validate a noise seed and pin ``None`` to fresh OS entropy.

    A stateful :class:`~numpy.random.Generator` is refused: keyed noise
    positions one stream per device, which a shared generator cannot
    give.  ``None`` becomes one :class:`~numpy.random.SeedSequence` of
    fresh entropy, so every device of an unseeded run still draws from
    the same root, however the run is split up.
    """
    if isinstance(seed, np.random.Generator):
        raise ValueError(
            "acquisition noise takes an integer seed, a SeedSequence or "
            "None (each device draws from its own keyed stream); a shared "
            "Generator cannot be keyed by device")
    if seed is None:
        return np.random.SeedSequence()
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return int(seed)


class DeviceNoise:
    """The per-device noise generators of one seed.

    ``generator(d)`` returns one shared :class:`~numpy.random.Generator`
    positioned at the start of device ``d``'s substream; it is
    repositioned by the next call, so finish one device before asking for
    the next.
    """

    def __init__(self, seed: NoiseSeed) -> None:
        self._bit_generator = np.random.PCG64(noise_seed(seed))
        self._initial = self._bit_generator.state
        self._generator = np.random.Generator(self._bit_generator)

    def generator(self, device: int) -> np.random.Generator:
        """The generator of ``device``, at the start of its substream."""
        self._bit_generator.state = self._initial
        self._bit_generator.advance(int(device) * PCG64_JUMP)
        return self._generator

    def fill(self, out: np.ndarray, first: int = 0) -> np.ndarray:
        """Fill row ``i`` of ``out`` with the standard normals of device
        ``first + i``."""
        for offset, row in enumerate(out):
            self.generator(first + offset).standard_normal(out=row)
        return out
