"""Compressed cross-modal error-correction codec.

Wire format (big-endian bit order, documented as the external interface):

    first record:       L-bit absolute position, lambda2-bit proximity rank
    each later record:  lambda1-bit relative coordinate (position minus the
                        previous corrected position), lambda2-bit rank

with L = floor(log2(h*w)). Records are ordered by position ascending
(predecessor priority); encoding stops entirely at the first relative
coordinate or rank that does not fit, or when the bit budget runs out. The
rank of the true token is its index among the step's top-k candidates
sorted by codebook-vector distance to the wrong token's vector (vector
proximity), ties by token id; both sides recompute the ordering against the
progressively corrected prefix, so the decoder replays the encoder's walk
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bits import BitString
from .errors import MalformedEcc, RankOverflow, ShapeMismatch
from .token_model import (Condition, ModelSpec, context_before,
                          next_distribution)
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


def _proximity_order(candidates: np.ndarray, wrong_token: int,
                     book: Codebook) -> np.ndarray:
    z_e = book.vectors[wrong_token]
    dist = np.linalg.norm(book.vectors[candidates] - z_e, axis=1)
    return candidates[np.lexsort((candidates, dist))]


def proximity_rank(error_position: int, wrong_token: int, true_token: int,
                   corrected_prefix, model: ModelSpec, condition: Condition,
                   book: Codebook, params: EccParams) -> int:
    """Rank of the true token among top-k candidates by distance to z_e."""
    if wrong_token == true_token:
        raise ValueError("not an error: tokens agree")
    dist = next_distribution(model, condition, corrected_prefix,
                             error_position)
    ordered = _proximity_order(dist.token_ids, wrong_token, book)
    matches = np.nonzero(ordered == true_token)[0]
    if len(matches) == 0:
        raise RankOverflow(f"true token {true_token} not in top-k support")
    rank = int(matches[0])
    if rank >= 1 << params.lambda2:
        raise RankOverflow(f"rank {rank} needs more than lambda2 bits")
    return rank


def ecc_encode(true_grid: np.ndarray, recovered_grid: np.ndarray,
               model: ModelSpec, condition: Condition, book: Codebook,
               params: EccParams, budget_bits: int) -> EccEncodeResult:
    """Serialize corrections front to back until something no longer fits."""
    errors = diff_tokens(true_grid, recovered_grid)
    work = np.asarray(recovered_grid).ravel().copy()
    bits = BitString()
    rl = ErrorRecordList()
    prev_pos: int | None = None
    for pos, true_tok in errors:
        first = prev_pos is None
        if first:
            # floor(log2(h*w)) bits cannot address a tail of the grid when
            # h*w is not a power of two; such a first error is uncorrectable
            if pos >= 1 << params.position_bits:
                rl.truncated_at = pos
                break
        else:
            delta1 = pos - prev_pos
            if delta1 >= 1 << params.lambda1:
                rl.truncated_at = pos
                break
        if len(bits) + params.record_bits(first) > budget_bits:
            rl.truncated_at = pos
            break
        try:
            rank = proximity_rank(pos, int(work[pos]), true_tok,
                                  context_before(work, pos, model), model,
                                  condition, book, params)
        except RankOverflow:
            rl.truncated_at = pos
            break
        head = (BitString.from_int(pos, params.position_bits) if first
                else BitString.from_int(delta1, params.lambda1))
        bits += head + BitString.from_int(rank, params.lambda2)
        rl.positions.append(pos)
        work[pos] = true_tok
        prev_pos = pos
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
        dist = next_distribution(model, condition,
                                 context_before(work, pos, model), pos)
        ordered = _proximity_order(dist.token_ids, int(work[pos]), book)
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
    dist = next_distribution(model, condition, corrected_prefix,
                             error_position)
    ordered = _proximity_order(dist.token_ids, wrong_token, book)
    prox = np.nonzero(ordered == true_token)[0]
    prob = np.nonzero(dist.token_ids == true_token)[0]
    if len(prox) == 0 or len(prob) == 0:
        raise RankOverflow("true token not in top-k support")
    return int(prox[0]), int(prob[0])
