"""Second stego stream: carry the error-correction bits in toy text tokens.

The text model is conditioned on a noise-coarse digest of the received
image, so sender and receiver derive the same context from the same lossy
image without a side channel. The text channel itself is treated as
lossless in transit. Texts always run to max_tokens (the toy model has no
end-of-sequence), with keystream padding after the payload is exhausted, so
text length and trailing tokens leak nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

import numpy as np

from .bits import BitString, StegoKey
from .codec import embed_sequence, extract_sequence, sequence_capacity
from .errors import BudgetExceeded, MalformedInput
from .token_model import ModelSpec, text_condition_from_image

TEXT_DOMAIN = "text"


@dataclass
class StegoText:
    tokens: list[int]
    payload_bits: int
    capacity_bits: int


def embed_ecc(ecc_bits: BitString, received_image: np.ndarray, key: StegoKey,
              text_model: ModelSpec, max_tokens: int = 200) -> StegoText:
    condition = text_condition_from_image(received_image, text_model)
    tokens, consumed, _ = embed_sequence(text_model, condition, ecc_bits,
                                         key, max_tokens, TEXT_DOMAIN)
    if consumed < len(ecc_bits):
        raise BudgetExceeded(
            f"{len(ecc_bits)} payload bits exceed the realized text capacity "
            f"of {consumed} bits at max_tokens={max_tokens}",
            realized_bits=consumed)
    return StegoText(tokens=tokens.tolist(), payload_bits=consumed,
                     capacity_bits=text_capacity(received_image, key,
                                                 text_model, max_tokens))


def extract_ecc(tokens, received_image: np.ndarray, key: StegoKey,
                text_model: ModelSpec) -> BitString:
    condition = text_condition_from_image(received_image, text_model)
    return extract_sequence(text_model, condition, tokens, key, TEXT_DOMAIN)


def text_capacity(received_image: np.ndarray, key: StegoKey,
                  text_model: ModelSpec, max_tokens: int = 200) -> int:
    """Realized capacity of the keystream-padded text path."""
    condition = text_condition_from_image(received_image, text_model)
    return sequence_capacity(text_model, condition, key, max_tokens,
                             TEXT_DOMAIN)


_WORDS: list[str] | None = None


def word_list() -> list[str]:
    global _WORDS
    if _WORDS is None:
        text = resources.files("vqstego").joinpath(
            "data/wordlist.txt").read_text()
        _WORDS = text.split()
    return _WORDS


def render_words(tokens) -> str:
    """Canonical human-readable serialization: whitespace-joined words."""
    words = word_list()
    return " ".join(words[t % len(words)] for t in tokens)


def parse_words(text: str) -> list[int]:
    index = {w: i for i, w in enumerate(word_list())}
    try:
        return [index[w] for w in text.split()]
    except KeyError as exc:
        raise MalformedInput(f"unknown word {exc.args[0]!r}") from None
