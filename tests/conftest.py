import math
from itertools import islice

import numpy as np
import pytest

from covmod import make_cyclic, make_subgroup, quotient, symmetric_3


@pytest.fixture(scope="session")
def z4():
    return make_cyclic(4)


@pytest.fixture(scope="session")
def z4_evens(z4):
    return make_subgroup(z4, (0, 2))


@pytest.fixture(scope="session")
def z4_quot(z4, z4_evens):
    return quotient(z4, z4_evens)


@pytest.fixture(scope="session")
def s3():
    return symmetric_3()


@pytest.fixture(scope="session")
def a3(s3):
    return make_subgroup(s3, (0, 3, 4))


_MASK = (1 << 64) - 1

# numpy's log and math.log may differ in their last bits; the words and the
# accept test are exact arithmetic, so a larger gap is a different stream
GAUSS_ULPS = 4


def _candidates(key):
    """The reference for `draws._draws`, one polar candidate at a time, in
    Python ints mod 2^64 and `math`: the candidate's two SplitMix64 words and
    its standard complex Gaussian, or None where it is refused."""
    state = key
    while True:
        words = []
        for _ in range(2):
            state = (state + 0x9E3779B97F4A7C15) & _MASK
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
            words.append(z ^ (z >> 31))
        u, v = ((w >> 11) * 2.0**-52 - (1.0 - 2.0**-53) for w in words)
        s = u * u + v * v
        if s < 1.0:
            f = math.sqrt(-2.0 * math.log(s) / s)
            yield words, complex(u * f, v * f)
        else:
            yield words, None


@pytest.fixture(scope="session")
def gauss_candidates():
    return _candidates


@pytest.fixture(scope="session")
def assert_gauss_stream():
    """Assert that `values`, read in C order, are the first accepted
    candidates of the stream keyed by `key`, each part within `GAUSS_ULPS`."""

    def check(values, key):
        got = np.ravel(values)
        accepted = (value for _, value in _candidates(key) if value is not None)
        want = np.array(list(islice(accepted, got.size)), dtype=complex)
        got, want = got.view(np.float64), want.view(np.float64)
        ulps = np.abs(got - want) / np.spacing(np.abs(want))
        assert ulps.max(initial=0.0) <= GAUSS_ULPS, f"{ulps.max()} ulps from the reference"

    return check
