"""Random number generation helpers.

Every stochastic component of the library (placement, mobility, simulation
runner) accepts a ``seed`` argument that may be ``None``, an integer, or an
already-constructed :class:`numpy.random.Generator`.  The helpers here
normalise those inputs so the rest of the code never touches global random
state, which keeps every experiment reproducible from a single integer.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    * ``None`` — a generator seeded from the OS entropy pool.
    * ``int`` — a deterministic generator (``np.random.default_rng(seed)``).
    * ``Generator`` — returned unchanged so callers can share a stream.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: SeedLike, count: int) -> List[np.random.Generator]:
    """Derive ``count`` independent generators from ``seed``.

    Uses :class:`numpy.random.SeedSequence` spawning so the derived streams
    are statistically independent; this is how the multi-iteration runner
    gives each iteration its own stream while remaining reproducible.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        # Derive children by drawing fresh seeds from the parent stream.
        seeds = seed.integers(0, 2**63 - 1, size=count)
        return [np.random.default_rng(int(s)) for s in seeds]
    sequence = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in sequence.spawn(count)]


def value_rng(
    seed: Optional[int], value: float, label: str = ""
) -> np.random.Generator:
    """A child generator keyed by a parameter *value* (order-invariant).

    Derives a deterministic stream from ``(seed, label, value)`` so that a
    per-value sweep measure draws exactly the same numbers whether its
    sweep runs serially, fans out over any process layout, or resumes at
    that single value after a kill — the independence property value-
    granular checkpointing and the campaign scheduler both require.

    The spawn key folds in a hash of ``label`` (distinct experiments
    sharing a seed must not share streams) and the IEEE-754 bit pattern of
    ``value`` (exact — two values that differ in any bit get independent
    streams, and no decimal rounding can alias them).

    ``seed=None`` draws fresh OS entropy on every call, mirroring the
    ``seed=None`` semantics of the simulation runners: the run is valid
    but not reproducible.
    """
    label_key = int.from_bytes(
        hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest(), "big"
    )
    value_key = int(np.float64(value).view(np.uint64))
    sequence = np.random.SeedSequence(
        entropy=seed, spawn_key=(label_key, value_key)
    )
    return np.random.default_rng(sequence)


class RandomSource:
    """A named, reproducible source of random number generators.

    ``RandomSource`` wraps a root seed and hands out child generators on
    demand.  Each child is identified by an integer index so that, for
    example, iteration ``i`` of a simulation always receives the same
    stream regardless of how many iterations ran before it (which makes
    parallel and sequential execution produce identical results).
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        self._sequence = np.random.SeedSequence(seed)
        self._seed = seed

    @property
    def seed(self) -> Optional[int]:
        """The root seed this source was created with (``None`` if entropy)."""
        return self._seed

    @property
    def entropy(self) -> int:
        """The resolved root entropy (always an integer).

        For an integer seed this is the seed itself; for ``seed=None`` it is
        the entropy NumPy drew from the OS pool.  Feeding it back through
        :meth:`from_entropy` reproduces exactly the same child streams,
        which is how the parallel simulation runner hands every worker
        process the same root even for entropy-seeded runs.
        """
        return self._sequence.entropy

    @classmethod
    def from_entropy(cls, entropy: int) -> "RandomSource":
        """A source whose children match those of the source ``entropy`` came from.

        ``RandomSource.from_entropy(source.entropy).child(i)`` produces the
        same stream as ``source.child(i)`` for every ``i``.
        """
        return cls(entropy)

    def child(self, index: int) -> np.random.Generator:
        """Return the generator for child ``index`` (deterministic)."""
        if index < 0:
            raise ValueError(f"index must be non-negative, got {index}")
        child_sequence = np.random.SeedSequence(
            entropy=self._sequence.entropy, spawn_key=(index,)
        )
        return np.random.default_rng(child_sequence)

    def children(self, count: int) -> List[np.random.Generator]:
        """Return the first ``count`` child generators."""
        return [self.child(i) for i in range(count)]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"RandomSource(seed={self._seed!r})"
