"""Seeded standard complex Gaussians in numpy integer arithmetic.

`verify`, `bench` and `random_function` draw their data here.  64 bits of a
`random.Random` key a SplitMix64 stream (Steele, Lea & Flood, OOPSLA 2014),
and Marsaglia's polar method turns its words into complex Gaussians without
trigonometry.  `numpy.random` would import `secrets`, and through `hmac` and
`hashlib` OpenSSL, which no covmod command loads on numpy 2.x; a command
that draws nothing does not load this module either.
"""

from __future__ import annotations

import random
from itertools import accumulate

import numpy as np

from .groups import FiniteGroup, GroupFunction, _count

# SplitMix64: word i of the stream keyed by k is its finalizer applied to
# k + (i + 1) * gamma mod 2^64.
_GAMMA, _MIX1, _MIX2 = (
    np.uint64(c) for c in (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
)
_S11, _S27, _S30, _S31 = (np.uint64(s) for s in (11, 27, 30, 31))


def _words(key: int, start: int, count: int) -> np.ndarray:
    """Words start .. start + count - 1 of the SplitMix64 stream keyed by
    `key`, as uint64: counter-based, so any block of the stream is one pass
    of array arithmetic, which wraps mod 2^64 as the generator does."""
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= _GAMMA
    z += np.uint64(key)
    z ^= z >> _S30
    z *= _MIX1
    z ^= z >> _S27
    z *= _MIX2
    z ^= z >> _S31
    return z


def _polar(key: int, start: int, count: int) -> np.ndarray:
    """The accepted ones among candidates start .. start + count - 1, as
    standard complex Gaussians (Marsaglia's polar method, no trigonometry).

    Candidate j reads the top 53 bits of words 2j and 2j + 1 as u and v,
    uniform over the odd multiples of 2^-53 in (-1, 1): exact, symmetric and
    never 0, so s = u^2 + v^2 > 0.  It is accepted when s < 1, and then
    gives u f + i v f with f = sqrt(-2 log(s) / s).  The accept test is
    exact arithmetic, so the pattern is the same on every platform; only
    `log` may differ in its last bits.
    """
    uv = (_words(key, 2 * start, 2 * count) >> _S11) * 2.0**-52 - (1.0 - 2.0**-53)
    sq = uv * uv
    s = sq[0::2] + sq[1::2]
    at = np.flatnonzero(s < 1.0)
    s = s.take(at)
    return uv.view(complex).take(at) * np.sqrt(-2.0 * np.log(s) / s)


def _draws(rng: random.Random, trials: int, *sizes: int) -> list[np.ndarray]:
    """One (trials, size) array of standard complex Gaussians per size.

    Takes exactly 64 bits from `rng`, even for no trials, as the key of a
    SplitMix64 stream (`_words`), and gives its accepted polar candidates
    (`_polar`) in order: trial by trial and, within a trial, size by size,
    the same values as drawing each trial's sizes in turn from that stream.
    The integer stream is the same on every numpy and Python version; the
    values differ at most in the last bits of `log`.  `trials` is read by
    `_count`, at least 0.
    """
    trials, width = _count(trials, 0, "the trial count"), sum(sizes)
    key, need = rng.getrandbits(64), trials * width
    out, got, start = np.empty(need, dtype=complex), 0, 0
    while got < need:
        # pi/4 of the candidates are accepted: 4/3 of them leaves about 5%
        # to spare, so a second block is rare
        count = (need - got) * 4 // 3 + 16
        block = _polar(key, start, count)[: need - got]
        out[got : got + len(block)] = block
        got, start = got + len(block), start + count
    values, ends = out.reshape(trials, width), list(accumulate(sizes, initial=0))
    return [values[:, a:b] for a, b in zip(ends, ends[1:])]


def random_function(group: FiniteGroup, rng: random.Random) -> GroupFunction:
    """Standard complex Gaussian values keyed by 64 bits of the supplied
    PRNG: one trial of `_draws`, the same on every numpy and Python version
    up to the last bits of `log`."""
    return GroupFunction(group, _draws(rng, 1, group.order)[0][0])
