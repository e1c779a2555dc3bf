"""The in-package draw stream equals numpy's ``default_rng`` bit for bit."""

import math

import numpy as np
import pytest

from nlgeom.draws import Generator

# 2^32 and 2^64 + 3 take two and three entropy words; 2^130 + 5 takes five,
# one past SeedSequence's pool of four, so the late-word mixing runs too
SEEDS = [*range(300), 2**32, 2**64 + 3, 2**130 + 5]


def _draws(rng):
    """The seeded bodies' calls, interleaved, as Python ints and floats:
    halfspace-cell's integers(1, 5) and two scalar uniforms, submodularity's
    size-2 uniform pairs, and effective-kernel's size-1000 uniform.  Every
    second integers call takes the buffered high half of the last one's
    64-bit output, whatever uniform drew in between, and a range of
    3 * 2^30 rejects about one 32-bit draw in four."""
    out = []
    for _ in range(3):
        out.append(int(rng.integers(1, 5)))
        out.append(float(rng.uniform(0, 2 * math.pi)))
        out.append(float(rng.uniform(0.5, 1.0)))
        for low, high in [(-0.9, 0.4), (-0.9, 0.4), (0.2, 0.5), (0.2, 0.5)]:
            out.extend(rng.uniform(low, high, 2).tolist())
        out.append(int(rng.integers(7, 7 + 3 * 2**30)))
    out.extend(rng.uniform(0.0, 0.99 * 1.5, 1000).tolist())
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_draws_match_numpy_default_rng(seed):
    assert _draws(Generator(seed)) == _draws(np.random.default_rng(seed))


# submodularity adds two sized draws elementwise
def test_sized_uniform_is_a_float_array():
    arr = Generator(0).uniform(0.0, 1.0, 3)
    assert isinstance(arr, np.ndarray) and arr.dtype == np.float64 and arr.shape == (3,)
