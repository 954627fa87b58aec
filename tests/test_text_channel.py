import numpy as np
import pytest

from vqstego.bits import BitString, KeyedStream, StegoKey
from vqstego.codec import step_capacity
from vqstego.errors import BudgetExceeded, MalformedInput
from vqstego.text_channel import (TEXT_DOMAIN, embed_ecc, extract_ecc,
                                  parse_words, render_words, text_capacity,
                                  word_list)
from vqstego.token_model import (Condition, ModelSpec, next_distribution,
                                 text_condition_from_image)

TEXT_MODEL = ModelSpec(vocab_size=512, top_k=64, seed=2, num_conditions=4096)


@pytest.fixture(scope="module")
def image(tokenizer):
    rng = np.random.Generator(np.random.PCG64(0))
    return tokenizer.decode(rng.integers(0, 256, (24, 24)))


def make_key(b=1):
    return StegoKey(bytes([b]) * 32)


class TestEmbedExtract:
    def test_round_trip(self, image):
        key = make_key()
        bits = KeyedStream(key.with_domain("payload")).next_bits(120)
        st = embed_ecc(bits, image, key, TEXT_MODEL, max_tokens=100)
        assert st.payload_bits == 120
        assert st.capacity_bits == text_capacity(image, key, TEXT_MODEL, 100)
        assert len(st.tokens) == 100  # always runs to max_tokens
        out = extract_ecc(st.tokens, image, key, TEXT_MODEL)
        assert list(out)[:120] == list(bits)

    def test_empty_payload_padding_contract(self, image):
        key = make_key(2)
        st = embed_ecc(BitString(), image, key, TEXT_MODEL, max_tokens=50)
        assert st.payload_bits == 0
        assert len(st.tokens) == 50
        # deterministic and valid for extraction
        st2 = embed_ecc(BitString(), image, key, TEXT_MODEL, max_tokens=50)
        assert st.tokens == st2.tokens
        extract_ecc(st.tokens, image, key, TEXT_MODEL)

    def test_budget_exceeded_reports_realized_bits(self, image):
        key = make_key(3)
        bits = KeyedStream(key.with_domain("payload")).next_bits(5000)
        with pytest.raises(BudgetExceeded) as exc_info:
            embed_ecc(bits, image, key, TEXT_MODEL, max_tokens=50)
        realized = exc_info.value.realized_bits
        assert realized is not None
        # realized capacity is path-dependent (the payload shapes the token
        # prefix), but must be positive and clearly below the request
        assert 0 < realized < 5000

    def test_mismatched_image_garbles(self, image, tokenizer):
        key = make_key(4)
        bits = KeyedStream(key.with_domain("payload")).next_bits(100)
        st = embed_ecc(bits, image, key, TEXT_MODEL, max_tokens=100)
        rng = np.random.Generator(np.random.PCG64(99))
        other = tokenizer.decode(rng.integers(0, 256, (24, 24)))
        assert (text_condition_from_image(other, TEXT_MODEL)
                != text_condition_from_image(image, TEXT_MODEL))
        out = extract_ecc(st.tokens, other, key, TEXT_MODEL)
        assert list(out)[:100] != list(bits)

    def test_truncated_text_yields_prefix(self, image):
        key = make_key(5)
        bits = KeyedStream(key.with_domain("payload")).next_bits(200)
        st = embed_ecc(bits, image, key, TEXT_MODEL, max_tokens=100)
        full = extract_ecc(st.tokens, image, key, TEXT_MODEL)
        part = extract_ecc(st.tokens[:40], image, key, TEXT_MODEL)
        assert list(full)[:len(part)] == list(part)

    def test_capacity_monotone_in_max_tokens(self, image):
        key = make_key(6)
        caps = [text_capacity(image, key, TEXT_MODEL, n)
                for n in (50, 100, 200)]
        assert caps[0] <= caps[1] <= caps[2]

    def test_realized_capacity_near_entropy_estimate(self, image):
        # [DERIVED] Monte-Carlo estimate of mean per-step capacity from the
        # model alone, compared against the realized padded-path capacity
        # over 50 seeds: within +-20%.
        rng = np.random.Generator(np.random.PCG64(7))
        cond = text_condition_from_image(image, TEXT_MODEL)
        per_step = []
        prefix: list[int] = []
        for t in range(400):
            d = next_distribution(TEXT_MODEL, cond, prefix[-3:], t % 200)
            per_step.append(step_capacity(d, float(rng.random())))
            prefix.append(int(d.token_ids[rng.integers(0, len(d))]))
        estimate = 200 * float(np.mean(per_step))
        realized = [text_capacity(image, make_key(b), TEXT_MODEL, 200)
                    for b in range(50)]
        assert abs(np.mean(realized) - estimate) / estimate < 0.20


class TestWords:
    def test_wordlist_matches_vocab(self):
        words = word_list()
        assert len(words) == 512
        assert len(set(words)) == 512

    def test_render_parse_round_trip(self):
        tokens = [0, 17, 511, 5]
        assert parse_words(render_words(tokens)) == tokens

    def test_unknown_word_rejected(self):
        with pytest.raises(MalformedInput):
            parse_words("zzzznotaword")
