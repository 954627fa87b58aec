import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import two_token_dist, uniform_dist
from vqstego.bits import BitString, KeyedStream, StegoKey
from vqstego.codec import (copy_index_trace, embed_sequence, embed_step,
                           extract_sequence, extract_step, sample_sequence,
                           sequence_capacity, step_capacity)
from vqstego.errors import TokenNotInSupport
from vqstego.token_model import (Condition, Distribution, ModelSpec,
                                 next_distribution)

MODEL = ModelSpec(vocab_size=256, top_k=32, seed=1, num_conditions=1024)
COND = Condition(17)
A, B = 0, 1  # the two-token worked example: p(a)=0.4, p(b)=0.6


def pad_stream():
    return KeyedStream(StegoKey(bytes(32), "pad"))


class TestStepCapacity:
    def test_two_token_example(self):
        # r=0.3: k=1 shifts {0.3, 0.8} land in distinct intervals; k=2 shifts
        # {0.3, 0.55, 0.8, 0.05} collide, so k* = 1.
        d = two_token_dist()
        assert step_capacity(d, 0.3) == 1

    def test_single_token_zero_capacity(self):
        d = Distribution(np.array([5]), np.array([1.0]))
        assert step_capacity(d, 0.7) == 0

    def test_uniform_four_tokens(self):
        # r=0.1: shifts {0.1, 0.35, 0.6, 0.85} hit all four quarters.
        assert step_capacity(uniform_dist(4), 0.1) == 2

    def test_independent_shift_oracle(self):
        # [DERIVED] recompute k* by brute-force shift enumeration.
        rng = np.random.Generator(np.random.PCG64(3))
        for _ in range(300):
            d = next_distribution(MODEL, COND, [], int(rng.integers(0, 50)))
            r = float(rng.random())
            k = 0
            while True:
                m = 1 << (k + 1)
                if m > len(d):
                    break
                toks = {d.locate((r + i / m) % 1.0) for i in range(m)}
                if len(toks) != m:
                    break
                k += 1
            assert step_capacity(d, r) == k

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
           st.integers(0, 10_000))
    def test_capacity_bounded_by_max_prob(self, r, pos):
        # k* <= ceil(log2(1/p_max)): shifts finer than the widest interval
        # must collide inside it.
        d = next_distribution(MODEL, COND, [], pos)
        # probs[0] is the largest: the canonical order is probability-descending
        assert step_capacity(d, r) <= math.ceil(math.log2(1.0 / d.probs[0]))

    def test_matches_per_k_search_on_interval_edges(self):
        # [DERIVED] against a reference that builds the 2^k shifts and
        # searches them anew for every k, with r on every interval edge,
        # just below it, half a turn from it, at 0.0 and at the largest
        # double below 1.0. Each pair also round-trips a random copy index
        # through embed_step and extract_step.
        def per_k_capacity(d, r):
            k = 0
            while (1 << (k + 1)) <= len(d):
                m = 1 << (k + 1)
                if len(np.unique(d.locate_many((r + np.arange(m) / m) % 1.0))
                       ) != m:
                    break
                k += 1
            return k

        rng = np.random.Generator(np.random.PCG64(11))
        stream = pad_stream()
        pairs = 0
        for top_k in (1, 2, 3, 5, 32, 64):
            model = ModelSpec(vocab_size=256, top_k=top_k, seed=2)
            for pos in range(45):
                d = next_distribution(model, COND, [], pos)
                edges = d.cum[:-1]
                rs = np.concatenate([
                    [0.0, np.nextafter(1.0, 0.0)], edges,
                    np.nextafter(edges, 0.0), (edges + 0.5) % 1.0,
                    rng.random(4)])
                for r in rs.tolist():
                    k = step_capacity(d, r)
                    assert k == per_k_capacity(d, r), (top_k, pos, r)
                    index = int(rng.integers(0, 1 << k))
                    out = embed_step(d, r, BitString.from_int(index, k),
                                     stream)
                    bits, got_k = extract_step(d, r, out.token)
                    assert got_k == k and bits.to_int() == index
                    pairs += 1
        assert pairs >= 10_000


class TestEmbedExtractStep:
    def test_two_token_bit_selection(self):
        # r=0.3, k*=1: bit 0 keeps the token at r (= b at [0,0.6)),
        # bit 1 shifts to the other token. The worked example labels the
        # token containing r "a"; with the canonical layout r=0.3 lands in
        # the higher-probability token's interval.
        d = two_token_dist()
        out0 = embed_step(d, 0.3, BitString([0]), pad_stream())
        out1 = embed_step(d, 0.3, BitString([1]), pad_stream())
        assert out0.token == d.locate(0.3)
        assert out1.token == d.locate(0.8)
        assert out0.token != out1.token
        assert out0.bits_embedded == out1.bits_embedded == 1

    def test_zero_capacity_is_plain_sampling(self):
        d = Distribution(np.array([5]), np.array([1.0]))
        out = embed_step(d, 0.7, BitString([1, 0]), pad_stream())
        assert out.token == 5
        assert out.bits_embedded == 0 and out.capacity == 0

    def test_uniform_four_third_quarter(self):
        # bits 10 -> copy index 2 -> r + 0.5 = 0.6, the third quarter.
        d = uniform_dist(4)
        out = embed_step(d, 0.1, BitString([1, 0]), pad_stream())
        assert out.token == d.locate(0.6)
        assert out.copy_index == 2

    def test_extract_recovers_observed_copy(self):
        d = two_token_dist()
        bits, k = extract_step(d, 0.3, d.locate(0.8))
        assert k == 1 and bits.to01() == "1"

    def test_out_of_support_raises(self):
        with pytest.raises(TokenNotInSupport):
            extract_step(two_token_dist(), 0.3, 99)

    def test_step_round_trip_bulk(self):
        # [TRIVIAL spec contract, run at 10^4 steps]
        rng = np.random.Generator(np.random.PCG64(4))
        stream = pad_stream()
        for i in range(10_000):
            d = next_distribution(MODEL, COND, [], i % 128)
            r = float(rng.random())
            k = step_capacity(d, r)
            message = BitString(int(b) for b in rng.integers(0, 2, k))
            out = embed_step(d, r, message, stream)
            got, got_k = extract_step(d, r, out.token)
            assert got_k == k and got == message

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
           st.integers(0, 500), st.integers(0, 2**10 - 1))
    def test_capacity_is_message_independent(self, r, pos, payload):
        d = next_distribution(MODEL, COND, [], pos)
        k = step_capacity(d, r)
        out = embed_step(d, r, BitString.from_int(payload, 10), pad_stream())
        assert out.capacity == k

    def test_marginal_law_exact_two_token(self):
        # Exact piecewise integration over r for the two-token distribution
        # with a uniform message bit: the marginal token law is {0.4, 0.6}.
        d = two_token_dist()
        edges = sorted({0.0, 1.0} | {e % 1.0 for e in (0.6, 0.1, 0.5, 1.1)})
        mass = {A: 0.0, B: 0.0}
        for lo, hi in zip(edges, edges[1:]):
            r = (lo + hi) / 2.0
            k = step_capacity(d, r)
            for bit in (0, 1):
                tok = d.locate((r + (bit if k else 0) / 2.0) % 1.0)
                mass[tok] += (hi - lo) / 2.0
        assert mass[A] == pytest.approx(0.4, abs=1e-12)
        assert mass[B] == pytest.approx(0.6, abs=1e-12)

    def test_marginal_law_monte_carlo(self):
        # [DERIVED] >= 10^5 trials, chi-square at significance 0.001.
        d = two_token_dist()
        rng = np.random.Generator(np.random.PCG64(5))
        n = 100_000
        rs = rng.random(n)
        bits = rng.integers(0, 2, n)
        counts = {A: 0, B: 0}
        for r, bit in zip(rs, bits):
            k = step_capacity(d, float(r))
            index = bit if k >= 1 else 0
            counts[d.locate((r + (index / 2.0 if k else 0.0)) % 1.0)] += 1
        chi2, p = stats.chisquare([counts[A], counts[B]],
                                  [0.4 * n, 0.6 * n])
        assert p > 0.001


class TestSequences:
    def make_key(self, b=9):
        return StegoKey(bytes([b]) * 32)

    def test_round_trip(self):
        key = self.make_key()
        msg = KeyedStream(key.with_domain("m")).next_bits(300)
        tokens, consumed, _ = embed_sequence(MODEL, COND, msg, key, 576,
                                             "image")
        assert consumed == 300
        out = extract_sequence(MODEL, COND, tokens, key, "image")
        assert out[:300] == msg

    def test_round_trip_many_triples(self):
        # Round trip over full sequences for random (key, message, condition).
        rng = np.random.Generator(np.random.PCG64(6))
        for i in range(10):
            key = StegoKey(bytes(rng.integers(0, 256, 32).tolist()))
            cond = Condition(int(rng.integers(0, 1024)))
            msg = BitString(int(b) for b in rng.integers(0, 2, 120))
            tokens, consumed, _ = embed_sequence(MODEL, cond, msg, key, 128,
                                                 "image")
            assert consumed == 120
            out = extract_sequence(MODEL, cond, tokens, key, "image")
            assert out[:120] == msg

    def test_consumed_matches_independent_capacity_sum(self):
        # [DERIVED] recompute per-step capacities on the emitted prefix.
        key = self.make_key(2)
        msg = KeyedStream(key.with_domain("m")).next_bits(10_000)  # never ends
        tokens, consumed, _ = embed_sequence(MODEL, COND, msg, key, 100,
                                             "image")
        r_stream = KeyedStream(key.with_domain("image"))
        total = 0
        for t in range(100):
            d = next_distribution(MODEL, COND, tokens[:t].tolist(), t)
            total += step_capacity(d, r_stream.next_uniform())
        assert consumed == total

    def test_zero_length_message_pads(self):
        key = self.make_key(3)
        tokens, consumed, _ = embed_sequence(MODEL, COND, BitString(), key,
                                             50, "image")
        assert consumed == 0 and len(tokens) == 50
        # padded embedding stays extractable (garbage bits, valid walk)
        extract_sequence(MODEL, COND, tokens, key, "image")

    def test_different_keys_different_grids(self):
        msg = BitString([1, 0] * 30)
        t1, _, _ = embed_sequence(MODEL, COND, msg, self.make_key(1), 64,
                                  "image")
        t2, _, _ = embed_sequence(MODEL, COND, msg, self.make_key(2), 64,
                                  "image")
        assert not np.array_equal(t1, t2)

    def test_message_reusable(self):
        # embedding reads the message without using it up
        key = self.make_key(8)
        msg = KeyedStream(key.with_domain("m")).next_bits(200)
        t1, c1, _ = embed_sequence(MODEL, COND, msg, key, 64, "image")
        t2, c2, _ = embed_sequence(MODEL, COND, msg, key, 64, "image")
        assert np.array_equal(t1, t2) and c1 == c2 > 0
        assert msg == KeyedStream(key.with_domain("m")).next_bits(200)

    def test_corruption_prefix_semantics(self):
        key = self.make_key(4)
        msg = KeyedStream(key.with_domain("m")).next_bits(200)
        tokens, _, _ = embed_sequence(MODEL, COND, msg, key, 64, "image")
        clean = extract_sequence(MODEL, COND, tokens, key, "image")
        corrupted = tokens.copy()
        corrupted[5] = (corrupted[5] + 1) % 256
        out = extract_sequence(MODEL, COND, corrupted, key, "image")
        # bits from steps before the corruption are intact
        prefix_bits = 0
        r_stream = KeyedStream(key.with_domain("image"))
        for t in range(5):
            d = next_distribution(MODEL, COND, tokens[:t].tolist(), t)
            prefix_bits += step_capacity(d, r_stream.next_uniform())
        assert list(out)[:prefix_bits] == list(clean)[:prefix_bits]

    def test_empty_grid_empty_bits(self):
        assert len(extract_sequence(MODEL, COND, [], self.make_key(), "x")) == 0

    def test_sample_sequence_deterministic(self):
        key = self.make_key(5)
        a = sample_sequence(MODEL, COND, key, 40, "image")
        b = sample_sequence(MODEL, COND, key, 40, "image")
        assert np.array_equal(a, b)

    def test_sequence_capacity_prefix_monotone(self):
        key = self.make_key(6)
        caps = [sequence_capacity(MODEL, COND, key, n, "image")
                for n in (10, 20, 40)]
        assert caps[0] <= caps[1] <= caps[2]

    def test_copy_index_trace_matches_embedding(self):
        key = self.make_key(7)
        msg = KeyedStream(key.with_domain("m")).next_bits(500)
        tokens, consumed, _ = embed_sequence(MODEL, COND, msg, key, 64,
                                             "image")
        trace = copy_index_trace(MODEL, COND, tokens, key, "image")
        assert consumed == sum(k for k, _ in trace) <= len(msg)
        at = 0
        for k, index in trace:
            assert index == msg[at:at + k].to_int()
            at += k

    @pytest.mark.parametrize("n_bits", [0, 40, 10_000])
    def test_embedding_trace_equals_auditor_trace(self, n_bits):
        # the security battery uses the embedding walk's trace in place of
        # re-walking the tokens; 10_000 bits exceed any 64-step capacity
        for b, cond in ((1, COND), (11, Condition(3)), (12, Condition(900))):
            key = self.make_key(b)
            msg = KeyedStream(key.with_domain("m")).next_bits(n_bits)
            tokens, consumed, trace = embed_sequence(MODEL, cond, msg, key,
                                                     64, "image")
            assert trace == copy_index_trace(MODEL, cond, tokens, key,
                                             "image")
            assert consumed == min(n_bits, sum(k for k, _ in trace))

    @pytest.mark.parametrize("model", [
        MODEL,
        ModelSpec(vocab_size=512, top_k=64, seed=2, num_conditions=4096),
    ], ids=["image", "text"])
    def test_capacity_walk_equals_pad_only_embedding(self, model):
        # sequence_capacity sums the capacities of an empty-message embedding
        for b, cond, length in ((13, COND, 0), (14, Condition(3), 17),
                                (15, Condition(900), 200)):
            key = self.make_key(b)
            _, _, trace = embed_sequence(model, cond, BitString(), key, length,
                                         "text")
            assert sequence_capacity(model, cond, key, length, "text") == sum(
                k for k, _ in trace)

    def test_copy_index_trace_raises_at_unreachable_token(self):
        key = self.make_key(16)
        tokens, _, _ = embed_sequence(MODEL, COND, BitString(), key, 8,
                                      "image")
        support = next_distribution(MODEL, COND, tokens[:5].tolist(), 5)
        outside = next(t for t in range(256) if t not in support.token_ids)
        tokens[5] = outside
        with pytest.raises(TokenNotInSupport):
            copy_index_trace(MODEL, COND, tokens, key, "image")
