"""Compressed cross-modal error-correction codec.

Wire format (big-endian bit order, documented as the external interface):

    first record:       L-bit absolute position, lambda2-bit proximity rank
    each later record:  lambda1-bit relative coordinate (position minus the
                        previous corrected position), lambda2-bit rank

with L = floor(log2(h*w)). Records are ordered by position ascending
(predecessor priority). The rank of the true token is its index among the
step's top-k candidates sorted by codebook-vector distance to the wrong
token's vector (vector proximity), ties by token id; both sides recompute
the ordering against the progressively corrected prefix, so the decoder
replays the encoder's walk exactly. Encoding stops entirely at the first
error whose coordinate does not fit its head, whose true token is not a
candidate, whose rank does not fit lambda2 bits, or whose record does not
fit the bit budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bits import BitString
from .errors import MalformedEcc, RankOverflow, ShapeMismatch
from .token_model import (Condition, Distribution, ModelSpec,
                          context_before, next_distribution)
from .vq import Codebook


@dataclass(frozen=True)
class EccParams:
    lambda1: int = 8
    lambda2: int = 8
    position_bits: int = 9

    def __post_init__(self):
        if self.lambda1 < 1 or self.lambda2 < 1 or self.position_bits < 1:
            raise ValueError("lambda1, lambda2 and position_bits must be >= 1")

    @classmethod
    def for_grid(cls, n_positions: int, lambda1: int = 8,
                 lambda2: int = 8) -> "EccParams":
        return cls(lambda1=lambda1, lambda2=lambda2,
                   position_bits=int(math.floor(math.log2(n_positions))))

    def record_bits(self, first: bool) -> int:
        head = self.position_bits if first else self.lambda1
        return head + self.lambda2


@dataclass
class ErrorRecordList:
    truncated_at: int | None = None
    positions: list[int] = field(default_factory=list)


@dataclass
class EccEncodeResult:
    bits: BitString
    corrected_count: int
    record_list: ErrorRecordList


def diff_tokens(true_grid: np.ndarray,
                recovered_grid: np.ndarray) -> list[tuple[int, int]]:
    """Row-major (position, true_token) pairs where the grids disagree."""
    true_grid = np.asarray(true_grid)
    recovered_grid = np.asarray(recovered_grid)
    if true_grid.shape != recovered_grid.shape:
        raise ShapeMismatch(f"{true_grid.shape} vs {recovered_grid.shape}")
    t, r = true_grid.ravel(), recovered_grid.ravel()
    return [(int(i), int(t[i])) for i in np.nonzero(t != r)[0]]


def _candidates(position: int, wrong_token: int, corrected_prefix,
                model: ModelSpec, condition: Condition,
                book: Codebook) -> tuple[np.ndarray, Distribution]:
    """The step's top-k support after the corrected prefix, nearest first to
    the wrong token's vector (ties by token id), and the step's
    distribution."""
    dist = next_distribution(model, condition, corrected_prefix, position)
    ids = dist.token_ids
    gap = np.linalg.norm(book.vectors[ids] - book.vectors[wrong_token], axis=1)
    return ids[np.lexsort((ids, gap))], dist


def ecc_encode(true_grid: np.ndarray, recovered_grid: np.ndarray,
               model: ModelSpec, condition: Condition, book: Codebook,
               params: EccParams, budget_bits: int) -> EccEncodeResult:
    """Serialize corrections front to back until something no longer fits."""
    work = np.asarray(recovered_grid).ravel().copy()
    bits = BitString()
    rl = ErrorRecordList()
    for pos, true_tok in diff_tokens(true_grid, recovered_grid):
        first = not rl.positions
        head = params.position_bits if first else params.lambda1
        coordinate = pos if first else pos - rl.positions[-1]
        ordered, _ = _candidates(pos, int(work[pos]),
                                 context_before(work, pos, model), model,
                                 condition, book)
        rank = np.flatnonzero(ordered == true_tok)
        # floor(log2(h*w)) bits cannot address a tail of the grid when h*w
        # is not a power of two, so a first error there is uncorrectable
        if (coordinate >= 1 << head or len(rank) == 0
                or rank[0] >= 1 << params.lambda2
                or len(bits) + head + params.lambda2 > budget_bits):
            rl.truncated_at = pos
            break
        bits += (BitString.from_int(coordinate, head)
                 + BitString.from_int(int(rank[0]), params.lambda2))
        rl.positions.append(pos)
        work[pos] = true_tok
    return EccEncodeResult(bits=bits, corrected_count=len(rl.positions),
                           record_list=rl)


def ecc_decode(ecc_bits: BitString, recovered_grid: np.ndarray,
               model: ModelSpec, condition: Condition, book: Codebook,
               params: EccParams) -> np.ndarray:
    """Replay the encoder's walk and substitute the corrected tokens."""
    grid = np.asarray(recovered_grid)
    work = grid.ravel().copy()
    n = work.size
    if len(ecc_bits) == 0:
        return work.reshape(grid.shape)
    if len(ecc_bits) < params.record_bits(first=True):
        raise MalformedEcc("bitstream shorter than one full record")
    prev_pos: int | None = None
    at = 0  # bits read so far
    while at < len(ecc_bits):
        first = prev_pos is None
        remaining = len(ecc_bits) - at
        if remaining < params.record_bits(first):
            raise MalformedEcc(
                f"{remaining} trailing bits do not form a record")
        head = params.position_bits if first else params.lambda1
        coordinate = ecc_bits[at:at + head].to_int()
        pos = coordinate if first else prev_pos + coordinate
        at += head
        rank = ecc_bits[at:at + params.lambda2].to_int()
        at += params.lambda2
        if pos >= n:
            raise MalformedEcc(f"corrected position {pos} outside the grid")
        ordered, _ = _candidates(pos, int(work[pos]),
                                 context_before(work, pos, model), model,
                                 condition, book)
        if rank >= len(ordered):
            raise MalformedEcc(f"rank {rank} exceeds candidate count")
        work[pos] = ordered[rank]
        prev_pos = pos
    return work.reshape(grid.shape)


def capacity_tau(params: EccParams, payload_bits: int) -> tuple[int, int]:
    """Correctable-error counts: published closed form vs this layout.

    The closed form floor(1 + (B - L + lambda2)/(lambda1 + lambda2)) credits
    a first record with L - lambda2 bits, which no serialization here can
    achieve; the layout bound solves L + lambda2 + (tau-1)(lambda1+lambda2)
    <= B instead. Both are returned.
    """
    if payload_bits < 0:
        raise ValueError("payload_bits must be >= 0")
    pair = params.lambda1 + params.lambda2
    tau_formula = math.floor(
        1 + (payload_bits - params.position_bits + params.lambda2) / pair)
    first = params.position_bits + params.lambda2
    if payload_bits < first:
        tau_layout = 0
    else:
        tau_layout = 1 + (payload_bits - first) // pair
    return tau_formula, tau_layout


def position_cost_stats(positions: list[int],
                        params: EccParams) -> dict[str, dict[str, float]]:
    """Bit cost of transmitting coordinates, absolute vs relative."""

    def stats(values: list[int]) -> dict[str, float]:
        if not values:
            return {"mean": 0.0, "std": 0.0, "max": 0.0}
        arr = np.array(values, dtype=float)
        return {"mean": float(arr.mean()), "std": float(arr.std()),
                "max": float(arr.max())}

    absolute = [max(1, p.bit_length()) for p in positions]
    relative = []
    prev = None
    for p in positions:
        value = p if prev is None else p - prev
        relative.append(max(1, value.bit_length()))
        prev = p
    return {"absolute_bits": stats(absolute), "relative_bits": stats(relative)}


def rank_comparison(error_position: int, wrong_token: int, true_token: int,
                    corrected_prefix, model: ModelSpec, condition: Condition,
                    book: Codebook) -> tuple[int, int]:
    """(proximity rank, probability-order rank) of the true token."""
    ordered, dist = _candidates(error_position, wrong_token,
                                corrected_prefix, model, condition, book)
    prox = np.flatnonzero(ordered == true_token)
    prob = np.flatnonzero(dist.token_ids == true_token)
    if len(prox) == 0 or len(prob) == 0:
        raise RankOverflow("true token not in top-k support")
    return int(prox[0]), int(prob[0])
