"""Deterministic toy autoregressive token models with top-k truncation.

Logits are standard normal draws from a PCG64 generator seeded by a hash of
(model seed, condition, recent context, step), so both parties reconstruct
bit-identical next-token distributions without any trained weights. The
interval layout over [0,1) is canonical: probability descending, token id
ascending.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .bits import KeyedStream, StegoKey
from .errors import TokenOutOfRange

_CONDITION_DOMAIN = "condition"


@dataclass(frozen=True)
class Condition:
    """Integer class label (image channel) or image digest (text channel)."""

    id: int


@dataclass(frozen=True)
class ModelSpec:
    vocab_size: int
    top_k: int
    temperature: float = 1.0
    context_order: int = 3
    seed: int = 0
    num_conditions: int = 1024

    def __post_init__(self):
        if not (1 <= self.top_k <= self.vocab_size):
            raise ValueError("require 1 <= top_k <= vocab_size")
        # logits are standard normal draws, below 13 in magnitude from
        # numpy's ziggurat, so logits / temperature and their spread stay
        # far from overflow
        if not self.temperature >= 1e-300:
            raise ValueError("temperature must be >= 1e-300")
        if self.context_order < 0:
            raise ValueError("context_order must be >= 0")
        # `_logits` hashes the seed and a condition id as signed 64-bit
        # integers
        if not -2**63 <= self.seed < 2**63:
            raise ValueError(f"seed {self.seed} is outside the signed 64-bit "
                             f"range")
        if not 1 <= self.num_conditions <= 2**63:
            raise ValueError("require 1 <= num_conditions <= 2**63")


class Distribution:
    """Truncated next-token distribution with canonical interval layout.

    `cum[i]` is the upper edge of token i's half-open interval; cum[-1] is
    forced to exactly 1.0 so each r in [0,1) falls in exactly one interval.
    """

    __slots__ = ("token_ids", "probs", "cum")

    def __init__(self, token_ids: np.ndarray, probs: np.ndarray):
        probs = probs / probs.sum()
        order = np.lexsort((token_ids, -probs))
        # fancy indexing returns fresh contiguous arrays
        self.token_ids = token_ids[order]
        self.probs = probs = probs[order]
        cum = probs.cumsum()
        cum[-1] = 1.0
        self.cum = cum

    def __len__(self) -> int:
        return len(self.token_ids)

    def locate(self, r: float) -> int:
        """Token whose half-open interval holds r in [0,1)."""
        return int(self.token_ids[self.cum.searchsorted(r, side="right")])

    def locate_many(self, rs: np.ndarray) -> np.ndarray:
        return self.token_ids[self.cum.searchsorted(rs, side="right")]


class _DigestWords(ISeedSequence):
    """Hands PCG64 a hash digest's 64-bit words as its seed words.

    A blake2b digest is already uniform, so numpy's `SeedSequence` would
    only hash it again. PCG64 reads four words: the first two are its
    128-bit state seed and the last two its stream increment, each high
    word first.
    """

    __slots__ = ("words",)

    def __init__(self, digest: bytes):
        self.words = np.frombuffer(digest, "<u8").astype(np.uint64,
                                                         copy=False)

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _logits(spec: ModelSpec, condition: Condition, context: Sequence[int],
            position: int) -> np.ndarray:
    fields = struct.pack(f">{3 + len(context)}q", spec.seed, condition.id,
                         position, *context)
    digest = hashlib.blake2b(fields, digest_size=32).digest()
    # a generator per call: nothing is shared between threads
    rng = np.random.Generator(np.random.PCG64(_DigestWords(digest)))
    return rng.standard_normal(spec.vocab_size)


def next_distribution(spec: ModelSpec, condition: Condition,
                      prefix: Sequence[int], position: int) -> Distribution:
    """The top-k tokens of the scaled logits, ties at the cut going to the
    lower id, with softmax probabilities."""
    # only the context reaches the hash, so tokens before it cannot change
    # the result; each walk's tokens were in range when it appended them
    context = tuple(prefix[-spec.context_order:]) if spec.context_order else ()
    vocab, k = spec.vocab_size, spec.top_k
    for tok in context:
        if not (0 <= tok < vocab):
            raise TokenOutOfRange(f"prefix token {tok} >= {vocab}")
    z = _logits(spec, condition, context, position)
    z /= spec.temperature
    if k < vocab:
        # the k largest sit past the cut, and the value on each side of it
        # is exact, so a tie across the cut shows as two equal values
        part = z.argpartition((vocab - k - 1, vocab - k))
        ids = part[vocab - k:]
        if z[part[vocab - k - 1]] == z[ids[0]]:
            ids = (-z).argsort(kind="stable")[:k]
        z = z[ids]
    else:
        ids = np.arange(vocab)
    z -= z.max()
    return Distribution(ids, np.exp(z, out=z))


def context_before(tokens: np.ndarray, position: int,
                   spec: ModelSpec) -> list[int]:
    """The tokens before `position` that `next_distribution` reads, as the
    prefix to pass it: the last `context_order` of them."""
    return tokens[max(0, position - spec.context_order):position].tolist()


def condition_from_key(key: StegoKey, spec: ModelSpec) -> Condition:
    """Image-channel class label derived from the shared key.

    The receiver reconstructs the label without any side channel.
    """
    stream = KeyedStream(key.with_domain(_CONDITION_DOMAIN))
    return Condition(stream.next_int(spec.num_conditions))


def text_condition_from_image(image: np.ndarray, spec: ModelSpec) -> Condition:
    """Noise-coarse digest of an image, shared by sender and receiver.

    The image is reduced to per-quadrant channel means, quantized to 6 bits
    each; aggregate means move very little under small channel noise, so
    both parties land on the same condition with high probability.
    """
    h, w = image.shape[0], image.shape[1]
    digest = hashlib.blake2b(digest_size=8)
    for qi in (slice(0, h // 2), slice(h // 2, h)):
        for qj in (slice(0, w // 2), slice(w // 2, w)):
            means = image[qi, qj].reshape(-1, image.shape[2]).mean(axis=0)
            levels = np.clip(((means + 1.0) * 32.0).astype(np.int64), 0, 63)
            digest.update(levels.astype(np.uint8).tobytes())
    return Condition(int.from_bytes(digest.digest(), "big") % spec.num_conditions)
