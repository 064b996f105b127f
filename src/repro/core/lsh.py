"""Locality-sensitive hashing for task ordering (paper §7).

The task priority queue orders inactive tasks so that tasks sharing
remote candidates sit near each other, boosting the RCV cache hit rate
(Figure 3).  Following the paper, each task's ``to_pull`` set is
reduced to a low-dimensional MinHash signature; similar sets map to
similar signatures with high probability, and ordering by signature
clusters them.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Iterable, Sequence, Tuple

#: A Mersenne prime comfortably above any vertex ID we generate.
_PRIME = (1 << 61) - 1


@lru_cache(maxsize=16)
def _coefficients(signature_size: int, seed: int) -> Tuple[Tuple[int, int], ...]:
    """The ``(a, b)`` hash coefficients, drawn once per size and seed:
    every worker of every job builds the same ones."""
    rng = random.Random(seed)
    return tuple(
        (rng.randrange(1, _PRIME), rng.randrange(0, _PRIME))
        for _ in range(signature_size)
    )


class MinHashLSH:
    """MinHash signature generator with ``k`` hash functions.

    Deterministic given ``seed``.  ``signature`` maps a vertex-ID set to
    a ``k``-tuple of minima; identical sets get identical signatures and
    highly-overlapping sets agree in most coordinates, so tuple ordering
    clusters them.
    """

    def __init__(self, signature_size: int = 4, seed: int = 12345) -> None:
        if signature_size < 1:
            raise ValueError("signature size must be >= 1")
        self.signature_size = signature_size
        self._coeffs = _coefficients(signature_size, seed)

    def signature(self, ids: Iterable[int]) -> Tuple[int, ...]:
        """MinHash signature of a set of vertex IDs.

        The empty set signs as all-zeros, ordering fully-local tasks
        together at the front of the queue (they need no pulls at all).
        """
        id_list = list(ids)
        if not id_list:
            return (0,) * self.signature_size
        out = []
        for a, b in self._coeffs:
            out.append(min((a * x + b) % _PRIME for x in id_list))
        return tuple(out)

    @staticmethod
    def similarity(sig_a: Sequence[int], sig_b: Sequence[int]) -> float:
        """Estimated Jaccard similarity: fraction of agreeing coordinates."""
        if len(sig_a) != len(sig_b):
            raise ValueError("signatures must have equal length")
        if not sig_a:
            return 0.0
        agree = sum(1 for a, b in zip(sig_a, sig_b) if a == b)
        return agree / len(sig_a)
