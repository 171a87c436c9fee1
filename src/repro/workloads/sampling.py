"""Block-at-a-time RNG sampling over string-seeded ``random.Random`` streams.

Fleet workload generation draws arrival names, batch sizes and
inter-arrival gaps as contiguous blocks of same-type draws.
:class:`BatchSampler` serves those blocks from one ``random.Random``
stream, and every block method consumes exactly the draws the equivalent
scalar calls would, so a block of ``n`` is draw-for-draw identical to
``n`` scalar calls (pinned by ``tests/test_sampling.py``).

The one stream this module must *not* replace is
:meth:`WorkloadGenerator.sequence`, whose interleaved per-arrival draw
order is pinned by the goldens.
"""

from __future__ import annotations

import random
from typing import List, Sequence


class BatchSampler:
    """Block-at-a-time sampling from one string-seeded MT19937 stream.

    Draw methods must be called in the same order (and with the same
    counts) as the scalar code they replace; each consumes exactly the
    draws the equivalent ``random.Random`` calls would.
    """

    def __init__(self, seed: str) -> None:
        if not isinstance(seed, str):
            # Streams are named by namespaced strings
            # ("fleet/<kind>/<seed>/<index>"); a bare integer would bypass
            # the namespace and alias some other seeded stream.
            raise TypeError(f"BatchSampler requires a string seed, got {seed!r}")
        self.seed = seed
        self._rng = random.Random(seed)

    def random_block(self, n: int) -> List[float]:
        """``n`` draws of ``rng.random()``."""
        rng_random = self._rng.random
        return [rng_random() for _ in range(n)]

    def uniform_block(self, lo: float, hi: float, n: int) -> List[float]:
        """``n`` draws of ``rng.uniform(lo, hi)``."""
        rng_uniform = self._rng.uniform
        return [rng_uniform(lo, hi) for _ in range(n)]

    def randbelow_block(self, bound: int, n: int) -> List[int]:
        """``n`` draws of ``rng._randbelow(bound)`` (rejection-exact)."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        randbelow = self._rng._randbelow
        return [randbelow(bound) for _ in range(n)]

    def randint_block(self, lo: int, hi: int, n: int) -> List[int]:
        """``n`` draws of ``rng.randint(lo, hi)``."""
        return [lo + v for v in self.randbelow_block(hi - lo + 1, n)]

    def choice_indices(self, n_options: int, n: int) -> List[int]:
        """``n`` draws matching ``names.index(rng.choice(names))``."""
        return self.randbelow_block(n_options, n)

    def weighted_indices(self, weights: Sequence[float], n: int) -> List[int]:
        """``n`` draws matching ``rng.choices(range(len(w)), weights=w)``."""
        # One k=n call draws exactly like n k=1 calls: both bisect
        # random() * total over the same cumulative weights.
        return self._rng.choices(range(len(weights)), weights=weights, k=n)

    def pareto_block(self, alpha: float, n: int) -> List[float]:
        """``n`` draws of ``rng.paretovariate(alpha)``."""
        pareto = self._rng.paretovariate
        return [pareto(alpha) for _ in range(n)]
