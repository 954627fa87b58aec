"""Bit-level outputs pinned across versions.

Criterion 8 compares two runs of the same code; these values were frozen
once, so a refactor of the bit path that changes any embedded token, copy
index, pad bit, frame bit or correction bit fails here. Every value is an
integer computed without BLAS.
"""

import numpy as np

from vqstego.bits import KeyedStream, StegoKey, frame_message
from vqstego.codec import (copy_index_trace, embed_sequence, extract_sequence,
                           sample_sequence, sequence_capacity)
from vqstego.ecc import EccParams, ecc_encode
from vqstego.token_model import Condition, ModelSpec
from vqstego.vq import build_codebook

MODEL = ModelSpec(vocab_size=256, top_k=32, seed=1, num_conditions=1024)
COND = Condition(17)
KEY = StegoKey(bytes(range(32)))
STEPS = 24

TOKENS = [230, 235, 151, 9, 189, 233, 87, 95, 130, 5, 154, 14, 73, 89, 141,
          187, 219, 79, 63, 3, 255, 253, 102, 201]
# the 40 message bits, then 42 keystream pad bits
EXTRACTED = ("0111111001110101101111101101001100101101"
             "011101000111010100001000000001000110011111")
TRACE = [(4, 7), (4, 14), (4, 7), (3, 2), (3, 6), (3, 7), (3, 6), (4, 13),
         (3, 1), (3, 4), (2, 2), (3, 6), (4, 11), (4, 10), (4, 3), (3, 5),
         (3, 2), (3, 0), (3, 4), (4, 0), (3, 1), (4, 1), (4, 9), (4, 15)]
PADDED_PATH_CAPACITY = 80
FRAMED = ("01110101110001011010011110001101"
          "1101000100000111110100010100100101001110")
# 9-bit position 3 and its 8-bit rank, then (8-bit gap, 8-bit rank) for
# gaps 37, 1, 59, 150
ECC_BITS = ("00000001100000001"
            "0010010100000000" "0000000100000000" "0011101100000000"
            "1001011000000001")


def message():
    return KeyedStream(KEY.with_domain("pinned.message")).next_bits(40)


def test_embed_pads_past_the_message():
    tokens, consumed, trace = embed_sequence(MODEL, COND, message(), KEY,
                                             STEPS, "pinned")
    assert tokens.tolist() == TOKENS
    assert consumed == 40 < len(EXTRACTED)
    assert trace == TRACE


def test_extract_and_copy_indices():
    tokens = np.array(TOKENS)
    bits = extract_sequence(MODEL, COND, tokens, KEY, "pinned")
    assert bits.to01() == EXTRACTED
    assert EXTRACTED[:40] == message().to01()
    trace = copy_index_trace(MODEL, COND, tokens, KEY, "pinned")
    assert [tuple(step) for step in trace] == TRACE
    assert "".join(format(i, f"0{k}b") for k, i in TRACE) == EXTRACTED


def test_padded_path_capacity():
    assert sequence_capacity(MODEL, COND, KEY, STEPS,
                             "pinned") == PADDED_PATH_CAPACITY


def test_framed_bits():
    framed = frame_message(message(),
                           KeyedStream(KEY.with_domain("pinned.frame")))
    assert framed.to01() == FRAMED


def test_ecc_bitstream_on_synthetic_grid():
    book = build_codebook(7, 256, 8)
    true = sample_sequence(MODEL, COND, KEY, 576, "pinned.grid")
    recovered = true.copy()
    for pos in (3, 40, 41, 100, 250):
        # the nearest other codebook vector, a typical recovery error
        d = np.linalg.norm(book.vectors - book.vectors[true[pos]], axis=1)
        recovered[pos] = int(np.argsort(d, kind="stable")[1])
    enc = ecc_encode(true.reshape(24, 24), recovered.reshape(24, 24), MODEL,
                     COND, book, EccParams.for_grid(576), 1000)
    assert enc.bits.to01() == ECC_BITS
    assert enc.record_list.positions == [3, 40, 41, 100, 250]
