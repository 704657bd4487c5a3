"""Deterministic samplers for the synthetic world.

The public CAF dataset that the paper characterizes in Figure 1 is
heavily skewed: a handful of states and ISPs hold most addresses and
funds, and addresses-per-census-block spans four orders of magnitude.
These helpers generate samples with those shapes from an explicit
:class:`numpy.random.Generator`, so every dataset in this repository is
reproducible from a scenario seed.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from itertools import islice
from typing import Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

__all__ = [
    "stable_rng",
    "stable_rngs",
    "stable_seed_sequences",
    "stable_uniforms",
    "seed_sequence_words",
    "SeedWords",
    "bounded_zipf_shares",
    "lognormal_sizes",
    "categorical_sample",
    "choice_cdf",
    "draw_index",
    "allocate_counts",
]

T = TypeVar("T")


def _key_digest(parts: Sequence[object]) -> bytes:
    return hashlib.blake2b(
        "\x1f".join(map(str, parts)).encode("utf-8"), digest_size=8
    ).digest()


def stable_rng(*parts: object) -> np.random.Generator:
    """Return a Generator seeded from a stable hash of ``parts``.

    Child components of the world builder derive independent streams by
    mixing the scenario seed with a component label, e.g.
    ``stable_rng(seed, "usac", state_fips)``. Using BLAKE2 rather than
    Python's ``hash`` keeps streams stable across interpreter runs.

    This is the reference definition. Its batched twins seed many keys
    at once and keep an exact equality contract with it:
    :func:`stable_rngs` yields Generators whose state and every draw
    equal ``stable_rng(*key)``'s, and :func:`stable_uniforms` returns
    values equal to ``float(stable_rng(*key).random())``.
    """
    return np.random.default_rng(int.from_bytes(_key_digest(parts), "big"))


# ----------------------------------------------------------------------
# Batched twins of stable_rng
# ----------------------------------------------------------------------
#
# ``default_rng(seed)`` spends most of its time in SeedSequence, whose
# hash constants do not depend on the entropy. For one-to-two-word
# integer entropy the whole mix is therefore a fixed sequence of uint32
# operations, which :func:`seed_sequence_words` runs over a vector of
# seeds at once (numpy's uint32 arithmetic wraps exactly like the C
# code's). Keys are processed in chunks of ``_CHUNK`` so transient
# memory stays flat however many keys a caller streams through.

_CHUNK = 512
_MASK32 = 0xFFFFFFFF
# numpy's SeedSequence constants (pool size 4, 32-bit words).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_chain(init: int, mult: int, count: int) -> np.ndarray:
    """Successive values of one hash constant, as a column."""
    chain = [init]
    for _ in range(count):
        chain.append(chain[-1] * mult & _MASK32)
    return np.array(chain, dtype=np.uint32)[:, None]


# Each hashmix XORs with the current hash constant, advances it, and
# multiplies by the advanced value: step k uses chain[k] and chain[k+1].
# The entropy mix makes 4 + 12 steps of chain A, the output 8 of chain B.
_CHAIN_A = _hash_chain(_INIT_A, _MULT_A, 16)
_CHAIN_B = _hash_chain(_INIT_B, _MULT_B, 8)
_MIX_L, _MIX_R, _SHIFT = (np.uint32(v) for v in (_MIX_MULT_L, _MIX_MULT_R, 16))
# Pool word i_src hashes into the other three words, in order.
_OTHERS = tuple(np.array([d for d in range(4) if d != s]) for s in range(4))
# generate_state cycles through the pool for its 8 uint32 outputs.
_OUTPUT_CYCLE = np.array([0, 1, 2, 3, 0, 1, 2, 3])


def _hashmix(values: np.ndarray, chain: np.ndarray, first: int,
             count: int) -> np.ndarray:
    """Steps ``first .. first+count-1`` of a chain, one per row (in place)."""
    values ^= chain[first:first + count]
    values *= chain[first + 1:first + count + 1]
    values ^= values >> _SHIFT
    return values


def seed_sequence_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` for many seeds.

    ``seeds`` is a 1-d array of uint64 seeds; the result has one row of
    four uint64 words per seed, bit-identical to numpy's scalar path.
    A seed below 2**32 enters SeedSequence as one 32-bit word and the
    pool pads with zeros, which equals entropy ``[lo, 0]``; so every
    seed mixes as ``[lo, hi, 0, 0]``, one pool word per row.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    pool = np.zeros((4, seeds.size), dtype=np.uint32)
    pool[0] = seeds & _MASK32
    pool[1] = seeds >> 32
    _hashmix(pool, _CHAIN_A, 0, 4)
    for src, dst in enumerate(_OTHERS):
        hashed = _hashmix(np.repeat(pool[src:src + 1], 3, axis=0),
                          _CHAIN_A, 4 + 3 * src, 3)
        hashed *= _MIX_R
        mixed = pool[dst]
        mixed *= _MIX_L
        mixed -= hashed
        mixed ^= mixed >> _SHIFT
        pool[dst] = mixed
    out = _hashmix(pool[_OUTPUT_CYCLE], _CHAIN_B, 0, 8)
    # Little-endian uint32 pairs are the uint64 words, as in numpy.
    return np.ascontiguousarray(out.T, dtype="<u4").view("<u8").astype(
        np.uint64, copy=False)


class SeedWords:
    """A seed sequence whose PCG64 state words were computed in a batch.

    ``np.random.PCG64(SeedWords(seed, words))`` is seeded exactly like
    ``np.random.PCG64(seed)``: it asks for ``generate_state(4, uint64)``
    and gets the precomputed ``words``. Any other request falls back to
    a real ``SeedSequence(seed)``. The class joins numpy's
    ``ISeedSequence`` ABC when :func:`stable_seed_sequences` first runs,
    so importing this module does not load ``numpy.random``.
    """

    def __init__(self, entropy: int, words: np.ndarray):
        self.entropy = entropy
        self._words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words == 4 and np.dtype(dtype) == np.uint64:
            return self._words.copy()
        return np.random.SeedSequence(self.entropy).generate_state(n_words, dtype)


def _seed_chunks(
    keys: Iterable[Sequence[object]],
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``(seeds, words)`` for successive chunks of at most ``_CHUNK`` keys."""
    keys = iter(keys)
    while chunk := list(islice(keys, _CHUNK)):
        seeds = np.frombuffer(b"".join(_key_digest(key) for key in chunk),
                              dtype=">u8").astype(np.uint64)
        yield seeds, seed_sequence_words(seeds)


def stable_seed_sequences(keys: Iterable[Sequence[object]]) -> Iterator[SeedWords]:
    """Yield, per key, the seed sequence ``stable_rng(*key)`` would use.

    ``np.random.Generator(np.random.PCG64(seq))`` then equals
    ``stable_rng(*key)``; callers that open streams later than they
    know their keys keep these and build the Generator on demand.
    """
    np.random.bit_generator.ISeedSequence.register(SeedWords)
    for seeds, words in _seed_chunks(keys):
        for seed, row in zip(seeds.tolist(), words):
            yield SeedWords(seed, row)


def stable_rngs(keys: Iterable[Sequence[object]]) -> Iterator[np.random.Generator]:
    """Yield ``stable_rng(*key)`` for each key, seeded in vector passes.

    Every yielded Generator has the same ``bit_generator.state`` and the
    same draws as the scalar reference; only its ``seed_seq`` is a
    :class:`SeedWords` instead of a ``SeedSequence``.
    """
    for seq in stable_seed_sequences(keys):
        yield np.random.Generator(np.random.PCG64(seq))


# PCG64 (numpy's XSL-RR 128/64 variant) on Python ints.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1


def stable_uniforms(keys: Iterable[Sequence[object]]) -> list[float]:
    """``float(stable_rng(*key).random())`` for each key.

    Seeds PCG64 from the batched words the way ``pcg64_set_seed`` does
    (state and increment are words 0-1 and 2-3, high word first, mixed
    in by two LCG steps), takes the one step a draw takes, and converts
    its XSL-RR output to a double the way ``Generator.random`` does, all
    without building a Generator.
    """
    values = []
    for _seeds, words in _seed_chunks(keys):
        for w0, w1, w2, w3 in words.tolist():
            inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
            state = ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _MASK128
            state = (state * _PCG_MULT + inc) & _MASK128
            xored = ((state >> 64) ^ state) & _MASK64
            rot = state >> 122
            out = (xored >> rot | xored << (-rot & 63)) & _MASK64
            values.append((out >> 11) * (1.0 / 9007199254740992.0))
    return values


def bounded_zipf_shares(n: int, exponent: float = 1.0) -> np.ndarray:
    """Return ``n`` shares following a Zipf law, normalized to sum to 1.

    ``share[k] ∝ 1 / (k+1)**exponent``. With ``exponent≈1`` the top few
    ranks dominate, matching the ISP-level concentration in Figures
    1b/1e (top-4 of 819 ISPs hold 62% of addresses).
    """
    if n <= 0:
        raise ValueError(f"need a positive number of shares, got {n}")
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    ranks = np.arange(1, n + 1, dtype=float)
    raw = ranks**-exponent
    return raw / raw.sum()


def lognormal_sizes(
    rng: np.random.Generator,
    n: int,
    median: float,
    sigma: float,
    minimum: int = 1,
    maximum: int | None = None,
) -> np.ndarray:
    """Return ``n`` integer sizes from a clipped lognormal.

    Parameterized by the distribution *median* (``exp(mu)``) because the
    paper reports medians (e.g. 64 CAF addresses per CBG). Values are
    rounded and clipped to ``[minimum, maximum]``.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if median <= 0:
        raise ValueError("median must be positive")
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    draws = rng.lognormal(mean=np.log(median), sigma=sigma, size=n)
    sizes = np.rint(draws).astype(np.int64)
    sizes = np.maximum(sizes, minimum)
    if maximum is not None:
        sizes = np.minimum(sizes, maximum)
    return sizes


def categorical_sample(
    rng: np.random.Generator, outcomes: Mapping[T, float], size: int
) -> list[T]:
    """Draw ``size`` outcomes from a categorical distribution.

    ``outcomes`` maps each outcome to a non-negative weight; weights are
    normalized internally. Iteration order of the mapping defines the
    category order, so pass an ordered mapping for reproducibility.
    """
    if size < 0:
        raise ValueError("size must be non-negative")
    if not outcomes:
        raise ValueError("outcomes must be non-empty")
    labels = list(outcomes.keys())
    weights = np.asarray([outcomes[label] for label in labels], dtype=float)
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    total = weights.sum()
    if total <= 0:
        raise ValueError("weights sum to zero")
    indices = rng.choice(len(labels), size=size, p=weights / total)
    return [labels[i] for i in indices]


def choice_cdf(p: np.ndarray) -> list[float]:
    """The table ``Generator.choice(len(p), p=p)`` searches, as floats.

    ``choice`` builds ``cdf = p.cumsum(); cdf /= cdf[-1]`` on every call
    and returns ``cdf.searchsorted(rng.random(), side="right")``. A
    caller drawing from the same ``p`` many times computes this once and
    draws with :func:`draw_index`: same index, same one double taken
    from ``rng``. ``p`` must be the exact array the caller would pass to
    ``choice`` (already normalized the same way).
    """
    cdf = np.asarray(p, dtype=float).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def draw_index(cdf: Sequence[float], rng: np.random.Generator) -> int:
    """``int(rng.choice(len(p), p=p))`` for ``cdf = choice_cdf(p)``."""
    return bisect_right(cdf, rng.random())


def allocate_counts(total: int, shares: Sequence[float]) -> np.ndarray:
    """Split ``total`` integer units across ``shares`` proportionally.

    Uses the largest-remainder method so the result sums exactly to
    ``total`` — the world builder relies on this when distributing a
    national address count across states and then ISPs.
    """
    if total < 0:
        raise ValueError("total must be non-negative")
    share_array = np.asarray(shares, dtype=float)
    if share_array.size == 0:
        raise ValueError("shares must be non-empty")
    if np.any(share_array < 0):
        raise ValueError("shares must be non-negative")
    denom = share_array.sum()
    if denom <= 0:
        raise ValueError("shares sum to zero")
    exact = share_array / denom * total
    floors = np.floor(exact).astype(np.int64)
    shortfall = total - int(floors.sum())
    if shortfall:
        remainders = exact - floors
        top_up = np.argsort(-remainders, kind="stable")[:shortfall]
        floors[top_up] += 1
    return floors
