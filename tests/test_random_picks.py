"""Random picks from one option take no draw.

``RandomPlacement``'s ``random_qpu_walk`` and ``random_mapping`` take
index 0 without calling ``rng.integers(n)`` when ``n`` is 1.  That relies on
numpy answering ``Generator.integers(1)`` with 0 and leaving the generator
as it was, also when PCG64 holds a buffered half-word from an earlier
32-bit draw; these tests pin that contract, so a numpy release that breaks
it fails here by name rather than through a result digest.
``tests/test_random_placement_equivalence.py`` checks the placement picks
against draw-every-pick reference copies.
"""

from __future__ import annotations

import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st


# ----------------------------------------------------------------------
# The numpy contract
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    bounds=st.lists(st.integers(1, 2**40), max_size=6),
)
def test_integers_of_one_is_zero_and_draws_nothing(seed, bounds):
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    for bound in bounds:
        state = copy.deepcopy(rng.bit_generator.state)
        assert rng.integers(1) == 0
        assert rng.bit_generator.state == state
        assert rng.integers(bound) == twin.integers(bound)
        assert rng.bit_generator.state == twin.bit_generator.state


def test_integers_of_one_keeps_the_buffered_half_word():
    rng, twin = np.random.default_rng(3), np.random.default_rng(3)
    seen_buffered = False
    for bound in (5, 2, 7, 3, 11, 4):
        # An int64 draw below 2**32 takes 32 bits and buffers the other half.
        assert rng.integers(bound) == twin.integers(bound)
        state = copy.deepcopy(rng.bit_generator.state)
        seen_buffered |= state["has_uint32"] == 1
        assert rng.integers(1) == 0
        assert rng.bit_generator.state == state
    assert seen_buffered
    assert rng.integers(100, size=8).tolist() == twin.integers(100, size=8).tolist()

