import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import two_token_dist
from vqstego import token_model
from vqstego.bits import StegoKey
from vqstego.errors import TokenOutOfRange
from vqstego.token_model import (Condition, Distribution, ModelSpec,
                                 condition_from_key, next_distribution,
                                 text_condition_from_image)

SPEC = ModelSpec(vocab_size=64, top_k=16, seed=5)
COND = Condition(3)


class TestDistribution:
    def test_canonical_ordering(self):
        d = Distribution(np.array([5, 2, 9]), np.array([0.2, 0.5, 0.3]))
        assert d.token_ids.tolist() == [2, 9, 5]
        assert d.probs.tolist() == pytest.approx([0.5, 0.3, 0.2])

    def test_tie_breaks_by_token_id(self):
        d = Distribution(np.array([9, 4]), np.array([0.5, 0.5]))
        assert d.token_ids.tolist() == [4, 9]

    def test_intervals_partition(self):
        # b -> [0, 0.6), a -> [0.6, 1.0): ids in layout order, upper edges
        d = two_token_dist()
        assert d.token_ids.tolist() == [1, 0]
        assert d.cum.tolist() == [0.6, 1.0]

    def test_locate_two_token_layout(self):
        # Canonical layout of {a: 0.4, b: 0.6} is b -> [0, 0.6), a -> [0.6, 1):
        # a value inside an interval returns its token, the left edge is
        # inclusive and the right edge exclusive.
        d = two_token_dist()  # ids: a=0 (p=0.4), b=1 (p=0.6)
        assert d.locate(0.2) == 1
        assert d.locate(0.6) == 0   # boundary belongs to the next interval
        assert d.locate(0.999) == 0
        assert d.locate(0.0) == 1


def pcg64_from_words(words):
    """PCG64 seeded as its C code seeds from four words: the first two the
    128-bit state seed, the last two the stream, each high word first."""
    mult = 0x2360ED051FC65DA44385DF649FCCF645
    mask = (1 << 128) - 1
    inc = (((words[2] << 64 | words[3]) << 1) | 1) & mask
    state = ((inc + (words[0] << 64 | words[1])) * mult + inc) & mask
    bit_generator = np.random.PCG64()
    bit_generator.state = {"bit_generator": "PCG64",
                           "state": {"state": state, "inc": inc},
                           "has_uint32": 0, "uinteger": 0}
    return bit_generator


class TestLogits:
    def test_digest_words_seed_pcg64(self):
        # the 32-byte blake2b digest of (seed, condition, position, context)
        # as big-endian signed 64-bit fields; its little-endian words seed
        # PCG64 with no SeedSequence between them
        digest = hashlib.blake2b(struct.pack(">qqqqqq", 5, 3, 9, 1, 2, 3),
                                 digest_size=32).digest()
        words = [int.from_bytes(digest[i:i + 8], "little")
                 for i in range(0, 32, 8)]
        want = np.random.Generator(pcg64_from_words(words)).standard_normal(
            SPEC.vocab_size)
        got = token_model._logits(SPEC, COND, (1, 2, 3), 9)
        assert np.array_equal(got, want)

    def test_pooled_logits_are_standard_normal(self):
        pooled = np.concatenate([
            token_model._logits(SPEC, Condition(c), (), position)
            for c in range(64) for position in range(64)])
        assert len(pooled) == 4096 * SPEC.vocab_size
        assert stats.kstest(pooled, "norm").pvalue > 1e-3

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 4), min_size=64, max_size=64),
           st.integers(1, 64))
    def test_support_is_top_k_with_ties_to_the_lower_id(self, levels, top_k):
        # few distinct logits, so ties straddle the cut
        spec = ModelSpec(vocab_size=64, top_k=top_k, seed=5)
        logits = np.array(levels, dtype=float)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(token_model, "_logits", lambda *args: logits.copy())
            d = next_distribution(spec, COND, [], 0)
        want = sorted(range(64), key=lambda i: (-logits[i], i))[:top_k]
        assert d.token_ids.tolist() == want
        assert np.array_equal(d.probs, np.sort(d.probs)[::-1])
        assert d.cum[-1] == 1.0


class TestNextDistribution:
    def test_deterministic(self):
        a = next_distribution(SPEC, COND, [1, 2, 3], 4)
        b = next_distribution(SPEC, COND, [1, 2, 3], 4)
        assert np.array_equal(a.token_ids, b.token_ids)
        assert np.array_equal(a.probs, b.probs)

    def test_top_k_one_degenerate(self):
        spec = ModelSpec(vocab_size=64, top_k=1, seed=5)
        d = next_distribution(spec, COND, [], 0)
        assert len(d) == 1
        assert d.probs[0] == 1.0
        assert d.cum.tolist() == [1.0]  # one token covers [0, 1)

    def test_high_temperature_flattens(self):
        # [DERIVED] max/min probability ratio -> 1 within 1% at T = 1e4.
        spec = ModelSpec(vocab_size=64, top_k=64, temperature=1e4, seed=5)
        d = next_distribution(spec, COND, [], 0)
        assert d.probs.max() / d.probs.min() < 1.01

    @pytest.mark.parametrize("seed, num_conditions, temperature", [
        (-2**63, 2**63, 1e-300), (2**63 - 1, 1, 1e300)])
    def test_extreme_settings_compute_quietly(self, seed, num_conditions,
                                              temperature):
        # the seed and the largest condition id hash as signed 64-bit
        # integers; the suite turns a numpy warning into an error
        spec = ModelSpec(vocab_size=64, top_k=16, temperature=temperature,
                         seed=seed, num_conditions=num_conditions)
        d = next_distribution(spec, Condition(num_conditions - 1), [1, 2],
                              4)
        assert len(d) == 16 and d.cum[-1] == 1.0

    @pytest.mark.parametrize("field, value", [
        ("seed", 2**63), ("seed", -2**63 - 1), ("num_conditions", 2**63 + 1),
        ("num_conditions", 0), ("temperature", 9.9e-301),
        ("temperature", 0.0), ("temperature", float("nan"))])
    def test_settings_the_model_cannot_compute_with(self, field, value):
        with pytest.raises(ValueError):
            ModelSpec(vocab_size=64, top_k=16, **{field: value})

    def test_prefix_token_out_of_range(self):
        with pytest.raises(TokenOutOfRange):
            next_distribution(SPEC, COND, [64], 1)

    def test_last_token_of_long_prefix_out_of_range(self):
        prefix = [t % 64 for t in range(500)] + [64]
        with pytest.raises(TokenOutOfRange):
            next_distribution(SPEC, COND, prefix, len(prefix))

    def test_sums_to_one_bulk(self):
        # [DERIVED] 10^4 random (condition, prefix) pairs sum to 1 +- 1e-12.
        rng = np.random.Generator(np.random.PCG64(0))
        for _ in range(10_000):
            cond = Condition(int(rng.integers(0, 100)))
            prefix = rng.integers(0, 64, int(rng.integers(0, 5))).tolist()
            d = next_distribution(SPEC, cond, prefix, int(rng.integers(0, 99)))
            assert abs(d.probs.sum() - 1.0) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 63), min_size=4, max_size=8),
           st.integers(0, 63))
    def test_depends_only_on_context_window(self, prefix, early):
        changed = [early] + prefix[1:]
        a = next_distribution(SPEC, COND, prefix, len(prefix))
        b = next_distribution(SPEC, COND, changed, len(prefix))
        # context_order = 3 < len(prefix): leading token is irrelevant
        assert np.array_equal(a.token_ids, b.token_ids)
        assert np.array_equal(a.probs, b.probs)

    def test_depends_on_recent_context(self):
        a = next_distribution(SPEC, COND, [1, 2, 3], 3)
        b = next_distribution(SPEC, COND, [1, 2, 4], 3)
        assert (not np.array_equal(a.token_ids, b.token_ids)
                or not np.array_equal(a.probs, b.probs))


class TestConditions:
    def test_condition_from_key_deterministic(self):
        key = StegoKey(bytes(32))
        spec = ModelSpec(vocab_size=64, top_k=16, num_conditions=1024)
        c1 = condition_from_key(key, spec)
        assert c1 == condition_from_key(key, spec)
        assert 0 <= c1.id < 1024

    def test_image_condition_identical_images(self, tokenizer):
        rng = np.random.Generator(np.random.PCG64(1))
        grid = rng.integers(0, 256, (24, 24))
        img = tokenizer.decode(grid)
        spec = ModelSpec(vocab_size=512, top_k=64, num_conditions=4096)
        assert (text_condition_from_image(img, spec)
                == text_condition_from_image(img.copy(), spec))

    def test_image_condition_noise_stability(self, tokenizer):
        # [DERIVED] Gaussian sigma = 0.001 keeps the condition in >= 95% of
        # 200 seeded trials.
        spec = ModelSpec(vocab_size=512, top_k=64, num_conditions=4096)
        rng = np.random.Generator(np.random.PCG64(2))
        grid = rng.integers(0, 256, (24, 24))
        img = tokenizer.decode(grid)
        base = text_condition_from_image(img, spec)
        same = sum(
            text_condition_from_image(
                img + 0.001 * rng.standard_normal(img.shape), spec) == base
            for _ in range(200))
        assert same >= 190

    def test_image_condition_separates_extremes(self):
        spec = ModelSpec(vocab_size=512, top_k=64, num_conditions=4096)
        zeros = np.zeros((8, 8, 3))
        ones = np.ones((8, 8, 3))
        assert (text_condition_from_image(zeros, spec)
                != text_condition_from_image(ones, spec))
