"""``Subspace.random_coefficients`` against CPython's ``randint(-9, 9)``.

The coefficients are drawn with ``getrandbits(5)`` and redraws from 19 up,
which mirrors how CPython's ``randint`` draws a value below 19; the sampled
directions and every seeded report depend on that.  This file needs only
numpy and pytest, so it also runs on the other supported Python versions.
"""

import random

import numpy as np
import pytest

from goverify.arith import Scaled
from goverify.lie import build_classical
from goverify.subspaces import Subspace
from oracles import randint_coefficients

ZERO_FIRST = "zero:10"    # its first randint(-9, 9) is 0


@pytest.fixture(scope="module")
def spaces():
    """Subspaces of so(10) (dimension 45) of every dimension from 0 to 40."""
    algebra = build_classical("so", 10)
    eye = np.eye(algebra.dim, dtype=np.int64)
    return [Subspace(algebra, Scaled(eye[:dim]), check=False) for dim in range(41)]


def test_random_coefficients_are_the_randint_draws(spaces):
    """For 1,000 string seeds and every dimension, the values and the final
    state of the generator are those of the ``randint`` oracle."""
    for seed in [f"draw:{n}" for n in range(1000)] + [ZERO_FIRST]:
        for space in spaces:
            got, expected = random.Random(seed), random.Random(seed)
            assert space.random_coefficients(got) == randint_coefficients(expected, space.dim)
            assert got.getstate() == expected.getstate()


def test_all_zero_coefficients_are_drawn_again(spaces):
    """A one-dimensional draw whose first value is 0 is drawn again, as the
    oracle does: the result is nonzero and the generator states agree."""
    assert random.Random(ZERO_FIRST).randint(-9, 9) == 0
    got, expected = random.Random(ZERO_FIRST), random.Random(ZERO_FIRST)
    coeffs = spaces[1].random_coefficients(got)
    assert coeffs == randint_coefficients(expected, 1) and coeffs != [0]
    assert got.getstate() == expected.getstate()
    assert spaces[0].random_coefficients(got) == [] and got.getstate() == expected.getstate()
