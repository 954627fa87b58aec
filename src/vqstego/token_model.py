"""Deterministic toy autoregressive token models with top-k truncation.

Logits are a seeded hash of (model seed, condition, recent context, step),
so both parties reconstruct bit-identical next-token distributions without
any trained weights. The interval layout over [0,1) is canonical:
probability descending, token id ascending.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

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
        self.token_ids = np.ascontiguousarray(token_ids[order])
        self.probs = np.ascontiguousarray(probs[order])
        cum = np.cumsum(self.probs)
        cum[-1] = 1.0
        self.cum = cum

    def __len__(self) -> int:
        return len(self.token_ids)

    def locate(self, r: float) -> int:
        """Token whose half-open interval holds r in [0,1)."""
        return int(self.token_ids[np.searchsorted(self.cum, r, side="right")])

    def locate_many(self, rs: np.ndarray) -> np.ndarray:
        return self.token_ids[np.searchsorted(self.cum, rs, side="right")]


def _logits(spec: ModelSpec, condition: Condition, context: Sequence[int],
            position: int) -> np.ndarray:
    h = hashlib.blake2b(digest_size=16)
    h.update(struct.pack(">qqq", spec.seed, condition.id, position))
    for tok in context:
        h.update(struct.pack(">q", tok))
    rng = np.random.Generator(
        np.random.PCG64(int.from_bytes(h.digest(), "big")))
    return rng.standard_normal(spec.vocab_size)


def next_distribution(spec: ModelSpec, condition: Condition,
                      prefix: Sequence[int], position: int) -> Distribution:
    # only the context reaches the hash, so tokens before it cannot change
    # the result; each walk's tokens were in range when it appended them
    context = tuple(prefix[-spec.context_order:]) if spec.context_order else ()
    for tok in context:
        if not (0 <= tok < spec.vocab_size):
            raise TokenOutOfRange(f"prefix token {tok} >= {spec.vocab_size}")
    logits = _logits(spec, condition, context, position)
    z = logits / spec.temperature
    z -= z.max()
    p = np.exp(z)
    if spec.top_k < spec.vocab_size:
        keep = np.argpartition(-p, spec.top_k - 1)[: spec.top_k]
        # argpartition order is unstable across inputs; sort ids for a
        # reproducible pre-canonical set
        keep = np.sort(keep)
        ids, p = keep, p[keep]
    else:
        ids = np.arange(spec.vocab_size)
    return Distribution(ids, p)


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
