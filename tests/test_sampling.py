"""Sample-identity of the batched RNG layer.

Fleet streams are drawn in blocks, which is only admissible because every
:class:`BatchSampler` block reproduces the exact ``random.Random`` draw
stream.  These tests pin that equivalence per primitive (including
rejection sampling and block boundaries) and check the guard rails.
"""

import random

import pytest

from repro.workloads.sampling import BatchSampler

SEED = "fleet/bursty/7/0"

#: The scalar streams every block must reproduce, keyed by test id.
REFERENCES = {"python": random.Random}


# ----------------------------------------------------------------------
# Per-primitive equivalence against random.Random
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "reference", list(REFERENCES.values()), ids=list(REFERENCES)
)
class TestPrimitiveIdentity:
    def test_random_and_uniform(self, reference):
        sampler = BatchSampler(SEED)
        rng = reference(SEED)
        assert sampler.random_block(64) == [rng.random() for _ in range(64)]
        assert sampler.uniform_block(2.5, 9.0, 64) == [
            rng.uniform(2.5, 9.0) for _ in range(64)
        ]

    @pytest.mark.parametrize("bound", [1, 2, 7, 23, 33, 64, 1000])
    def test_randbelow_rejection_exact(self, reference, bound):
        """Bounds just past powers of two maximize rejection pressure."""
        sampler = BatchSampler(SEED)
        rng = reference(SEED)
        assert sampler.randbelow_block(bound, 300) == [
            rng._randbelow(bound) for _ in range(300)
        ]

    def test_randint_and_choice(self, reference):
        sampler = BatchSampler(SEED)
        rng = reference(SEED)
        assert sampler.randint_block(5, 30, 200) == [
            rng.randint(5, 30) for _ in range(200)
        ]
        options = list(range(23))
        assert sampler.choice_indices(23, 200) == [
            rng.choice(options) for _ in range(200)
        ]

    def test_weighted_indices(self, reference):
        weights = [1.0 / (rank + 1) ** 1.4 for rank in range(23)]
        sampler = BatchSampler(SEED)
        rng = reference(SEED)
        population = list(range(23))
        assert sampler.weighted_indices(weights, 300) == [
            rng.choices(population, weights=weights)[0] for _ in range(300)
        ]

    def test_pareto(self, reference):
        sampler = BatchSampler(SEED)
        rng = reference(SEED)
        assert sampler.pareto_block(1.6, 300) == [
            rng.paretovariate(1.6) for _ in range(300)
        ]

    def test_interleaved_blocks_share_one_stream(self, reference):
        """Block boundaries (and rejection leftovers in the word buffer)
        never shift the stream position."""
        sampler = BatchSampler(SEED)
        rng = reference(SEED)
        assert sampler.random_block(3) == [rng.random() for _ in range(3)]
        assert sampler.randbelow_block(33, 50) == [
            rng._randbelow(33) for _ in range(50)
        ]
        assert sampler.uniform_block(0.0, 1.0, 5) == [
            rng.uniform(0.0, 1.0) for _ in range(5)
        ]
        assert sampler.randbelow_block(5, 1) == [rng._randbelow(5)]
        assert sampler.random_block(2) == [rng.random() for _ in range(2)]

    def test_empty_blocks_consume_nothing(self, reference):
        sampler = BatchSampler(SEED)
        rng = reference(SEED)
        assert sampler.random_block(0) == []
        assert sampler.randbelow_block(7, 0) == []
        assert sampler.weighted_indices([1.0, 2.0], 0) == []
        assert sampler.pareto_block(1.6, 0) == []
        assert sampler.random_block(1) == [rng.random()]


# ----------------------------------------------------------------------
# Guard rails
# ----------------------------------------------------------------------
class TestGuards:
    def test_string_seed_required(self):
        with pytest.raises(TypeError, match="string seed"):
            BatchSampler(42)

    def test_bad_bound_rejected(self):
        with pytest.raises(ValueError, match="bound must be positive"):
            BatchSampler(SEED).randbelow_block(0, 3)
