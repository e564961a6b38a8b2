"""Deterministic, named random-number streams.

Every source of randomness in the simulator — clock drift draws, message
delays, packet loss, topology generation — pulls from a *named stream* owned
by an :class:`RngRegistry`.  Streams are derived from a single root seed via
``numpy``'s ``SeedSequence.spawn`` keyed by the stream name, so:

* two runs with the same root seed are bit-identical, and
* adding a new consumer of randomness (a new stream name) does not perturb
  the draws seen by existing streams — experiments stay comparable across
  code versions.
"""

from __future__ import annotations

import zlib
from typing import Dict

import numpy as np


class RngRegistry:
    """Factory and cache for named ``numpy.random.Generator`` streams.

    Example:
        >>> reg = RngRegistry(seed=42)
        >>> a1 = reg.stream("delay/S1").uniform()
        >>> reg2 = RngRegistry(seed=42)
        >>> a2 = reg2.stream("delay/S1").uniform()
        >>> a1 == a2
        True
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}
        self._key_names: Dict[int, str] = {}

    @property
    def seed(self) -> int:
        """The root seed this registry was constructed with."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The same name always maps to the same generator object within one
        registry, so consumers can hold either the name or the generator.

        Raises:
            ValueError: If ``name`` shares its 32-bit key with a stream this
                registry already made; the two would draw identical numbers.
        """
        if name not in self._streams:
            # Key the child seed on a stable hash of the stream name so that
            # stream identity does not depend on creation order.
            name_key = zlib.crc32(name.encode("utf-8"))
            other = self._key_names.setdefault(name_key, name)
            if other != name:
                raise ValueError(
                    f"stream names {other!r} and {name!r} share the crc32 key "
                    f"{name_key:#010x}"
                )
            seq = np.random.SeedSequence(entropy=self._seed, spawn_key=(name_key,))
            self._streams[name] = np.random.Generator(np.random.PCG64(seq))
        return self._streams[name]

    def fork(self, salt: str) -> "RngRegistry":
        """Return a new registry whose streams are independent of this one.

        Useful for running replicated experiments: ``registry.fork("rep3")``
        gives a full set of streams decorrelated from the parent's.
        """
        salt_key = zlib.crc32(salt.encode("utf-8"))
        return RngRegistry(seed=(self._seed * 1_000_003 + salt_key) % (2**63))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngRegistry(seed={self._seed}, streams={sorted(self._streams)})"
