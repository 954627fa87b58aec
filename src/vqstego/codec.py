"""Distribution-copy embedding and extraction.

Each step owns a keyed uniform value r. Cyclic shifts r + i/2^k (mod 1)
index 2^k copies of the interval layout; the per-step capacity k* is the
largest k for which all 2^k shifted samples land on pairwise distinct
tokens, so the copy index -- and therefore k* message bits -- can be
recovered from the emitted token alone. k* depends only on (distribution,
r), never on the message, which is what keeps the token law equal to the
model's sampling law.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
    cells = np.searchsorted(dist.cum, (r + np.arange(fine) / fine) % 1.0,
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
    m = 1 << k
    shifts = (r + np.arange(m) / m) % 1.0
    tokens = dist.locate_many(shifts)
    matches = np.nonzero(tokens == observed)[0]
    if len(matches) == 0:
        raise TokenNotInSupport(f"token {observed} not reachable at this step")
    return BitString.from_int(int(matches[0]), k), k


def _streams(key: StegoKey, domain: str) -> tuple[KeyedStream, KeyedStream]:
    return (KeyedStream(key.with_domain(domain)),
            KeyedStream(key.with_domain(domain + PAD_SUFFIX)))


def embed_sequence(model: ModelSpec, condition: Condition, message: BitString,
                   key: StegoKey, length: int, domain: str,
                   ) -> tuple[np.ndarray, int, list[tuple[int, int]]]:
    """Embed message bits over `length` autoregressive steps.

    Returns the token sequence, the count of message bits consumed and the
    per-step (capacity, copy_index) trace, which equals what
    `copy_index_trace` recovers from the tokens. Trailing steps after
    message exhaustion are keystream-padded, so the stego statistics match
    plain sampling everywhere.
    """
    r_stream, pad_stream = _streams(key, domain)
    tokens: list[int] = []
    trace: list[tuple[int, int]] = []
    consumed = 0
    for t in range(length):
        dist = next_distribution(model, condition, tokens, t)
        r = r_stream.next_uniform()
        outcome = embed_step(dist, r, message[consumed:], pad_stream)
        tokens.append(outcome.token)
        trace.append((outcome.capacity, outcome.copy_index))
        consumed += outcome.bits_embedded
    return np.array(tokens, dtype=np.int64), consumed, trace


def extract_sequence(model: ModelSpec, condition: Condition,
                     tokens: Sequence[int], key: StegoKey,
                     domain: str) -> BitString:
    """Left-to-right extraction over the observed tokens.

    A token outside the reachable set aborts the walk; bits from earlier
    steps are returned (prefix semantics -- everything after the first
    unrecoverable token is lost).
    """
    r_stream, _ = _streams(key, domain)
    out = BitString()
    prefix: list[int] = []
    for t, tok in enumerate(tokens):
        dist = next_distribution(model, condition, prefix, t)
        r = r_stream.next_uniform()
        try:
            bits, _ = extract_step(dist, r, int(tok))
        except TokenNotInSupport:
            break
        out += bits
        prefix.append(int(tok))
    return out


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
    """Total per-step capacity realized along the keystream-padded path."""
    r_stream, pad_stream = _streams(key, domain)
    empty = BitString()
    total = 0
    tokens: list[int] = []
    for t in range(length):
        dist = next_distribution(model, condition, tokens, t)
        outcome = embed_step(dist, r_stream.next_uniform(), empty, pad_stream)
        tokens.append(outcome.token)
        total += outcome.capacity
    return total


def copy_index_trace(model: ModelSpec, condition: Condition,
                     tokens: Sequence[int], key: StegoKey,
                     domain: str) -> list[tuple[int, int]]:
    """(capacity, copy_index) per step of a stego sequence, given the key.

    The security harness re-walks the biased control's tokens with it, since
    no embedder produced them; stego sequences carry their trace from
    `embed_sequence`.
    """
    r_stream, _ = _streams(key, domain)
    trace = []
    prefix: list[int] = []
    for t, tok in enumerate(tokens):
        dist = next_distribution(model, condition, prefix, t)
        r = r_stream.next_uniform()
        bits, k = extract_step(dist, r, int(tok))
        trace.append((k, bits.to_int()))
        prefix.append(int(tok))
    return trace
