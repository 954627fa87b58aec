"""Distribution-copy embedding and extraction.

Each step owns a keyed uniform value r. Cyclic shifts r + i/2^k (mod 1)
index 2^k copies of the interval layout; the per-step capacity k* is the
largest k for which all 2^k shifted samples land on pairwise distinct
tokens, so the copy index -- and therefore k* message bits -- can be
recovered from the emitted token alone. k* depends only on (distribution,
r), never on the message, which is what keeps the token law equal to the
model's sampling law.

Two walks step the token model under the key. `embed_sequence` reads the
embedding walk, and `sequence_capacity` reads it over an empty message (the
pad-only path); `extract_sequence` and `copy_index_trace` read the extraction
walk. `sample_sequence` makes no capacity search and keeps its own loop.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .bits import BitString, KeyedStream, StegoKey
from .errors import TokenNotInSupport
from .token_model import Condition, Distribution, ModelSpec, next_distribution

PAD_SUFFIX = ".pad"


@dataclass(frozen=True)
class StepOutcome:
    token: int
    bits_embedded: int
    copy_index: int
    capacity: int


# n is a power of two no larger than a support, so there are few of them
@lru_cache(maxsize=64)
def _shifts(n: int) -> np.ndarray:
    """The read-only grid j/n for j < n."""
    grid = np.arange(n) / n
    grid.flags.writeable = False
    return grid


def step_capacity(dist: Distribution, r: float) -> int:
    """Largest k such that the 2^k cyclic shifts of r hit distinct tokens.

    One search locates the shifts r + j/fine (mod 1), fine = 2^floor(log2 n);
    the 2^k grid is every (fine >> k)-th of them. Those are the doubles a
    direct 2^k grid gives, since i/2^k and (i * fine/2^k)/fine are one dyadic
    value, and distinct interval indices are distinct tokens. Distinctness is
    monotone in k (each grid contains the coarser ones), so the ascending
    search stops at the first repeat.
    """
    fine = 1 << (len(dist).bit_length() - 1)
    cells = dist.cum.searchsorted((r + _shifts(fine)) % 1.0,
                                  side="right").tolist()
    k = 0
    while (1 << (k + 1)) <= fine:
        grid = cells[::fine >> (k + 1)]
        if len(set(grid)) != len(grid):
            break
        k += 1
    return k


def _shift_token(dist: Distribution, r: float, i: int, k: int) -> int:
    return dist.locate((r + i * 2.0**-k) % 1.0)


def embed_step(dist: Distribution, r: float, message: BitString,
               pad_stream: KeyedStream) -> StepOutcome:
    """Embed the first min(k*, len(message)) bits; pad the rest with keystream.

    Each pad bit takes one whole keystream byte.
    """
    k = step_capacity(dist, r)
    consumed = min(k, len(message))
    index = message[:consumed].to_int()
    for _ in range(k - consumed):
        index = (index << 1) | pad_stream.next_bits(1)[0]
    return StepOutcome(token=_shift_token(dist, r, index, k),
                       bits_embedded=consumed, copy_index=index, capacity=k)


def extract_step(dist: Distribution, r: float,
                 observed: int) -> tuple[BitString, int]:
    """Recover the copy index of the observed token as k* bits."""
    k = step_capacity(dist, r)
    tokens = dist.locate_many((r + _shifts(1 << k)) % 1.0)
    matches = (tokens == observed).nonzero()[0]
    if len(matches) == 0:
        raise TokenNotInSupport(f"token {observed} not reachable at this step")
    return BitString.from_int(int(matches[0]), k), k


def _streams(key: StegoKey, domain: str) -> tuple[KeyedStream, KeyedStream]:
    return (KeyedStream(key.with_domain(domain)),
            KeyedStream(key.with_domain(domain + PAD_SUFFIX)))


def _embed_walk(model: ModelSpec, condition: Condition, message: BitString,
                key: StegoKey, length: int,
                domain: str) -> Iterator[StepOutcome]:
    """The embedder's walk: each step's outcome, in order."""
    r_stream, pad_stream = _streams(key, domain)
    tokens: list[int] = []
    consumed = 0
    # a support has at most top_k tokens, and step_capacity at most
    # log2(len(support)) bits
    most = model.top_k.bit_length() - 1
    for t in range(length):
        dist = next_distribution(model, condition, tokens, t)
        outcome = embed_step(dist, r_stream.next_uniform(),
                             message[consumed:consumed + most], pad_stream)
        tokens.append(outcome.token)
        consumed += outcome.bits_embedded
        yield outcome


def _extract_walk(model: ModelSpec, condition: Condition,
                  tokens: Sequence[int], key: StegoKey,
                  domain: str) -> Iterator[tuple[BitString, int]]:
    """Each token's `extract_step`; TokenNotInSupport at an unreachable one."""
    r_stream, _ = _streams(key, domain)
    prefix: list[int] = []
    for t, tok in enumerate(tokens):
        dist = next_distribution(model, condition, prefix, t)
        yield extract_step(dist, r_stream.next_uniform(), int(tok))
        prefix.append(int(tok))


def embed_sequence(model: ModelSpec, condition: Condition, message: BitString,
                   key: StegoKey, length: int, domain: str,
                   ) -> tuple[np.ndarray, int, list[tuple[int, int]]]:
    """Embed message bits over `length` autoregressive steps.

    Returns the tokens, the count of message bits consumed and the per-step
    (capacity, copy_index) trace that `copy_index_trace` recovers from the
    tokens. Steps after the message runs out are keystream-padded, so the
    stego statistics match plain sampling everywhere.
    """
    steps = list(_embed_walk(model, condition, message, key, length, domain))
    return (np.array([s.token for s in steps], dtype=np.int64),
            sum(s.bits_embedded for s in steps),
            [(s.capacity, s.copy_index) for s in steps])


def extract_sequence(model: ModelSpec, condition: Condition,
                     tokens: Sequence[int], key: StegoKey,
                     domain: str) -> BitString:
    """Left-to-right extraction over the observed tokens.

    A token outside the reachable set aborts the walk; bits from earlier
    steps are returned (prefix semantics -- everything after the first
    unrecoverable token is lost).
    """
    parts: list[BitString] = []
    with suppress(TokenNotInSupport):
        for bits, _ in _extract_walk(model, condition, tokens, key, domain):
            parts.append(bits)
    return BitString.join(parts)


def sample_sequence(model: ModelSpec, condition: Condition, key: StegoKey,
                    length: int, domain: str) -> np.ndarray:
    """Plain keyed sampling (cover generation): token = locate(dist, r)."""
    r_stream, _ = _streams(key, domain)
    tokens: list[int] = []
    for t in range(length):
        dist = next_distribution(model, condition, tokens, t)
        tokens.append(dist.locate(r_stream.next_uniform()))
    return np.array(tokens, dtype=np.int64)


def sequence_capacity(model: ModelSpec, condition: Condition, key: StegoKey,
                      length: int, domain: str) -> int:
    """Total capacity of the embedding walk over an empty message."""
    return sum(s.capacity for s in _embed_walk(model, condition, BitString(),
                                               key, length, domain))


def copy_index_trace(model: ModelSpec, condition: Condition,
                     tokens: Sequence[int], key: StegoKey,
                     domain: str) -> list[tuple[int, int]]:
    """(capacity, copy_index) per step of a stego sequence, given the key.

    The security harness re-walks the biased control's tokens with it, since
    no embedder produced them. An unreachable token raises TokenNotInSupport.
    """
    walk = _extract_walk(model, condition, tokens, key, domain)
    return [(k, bits.to_int()) for bits, k in walk]
