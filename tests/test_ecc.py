import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vqstego.bits import BitString, StegoKey
from vqstego.codec import sample_sequence
from vqstego.ecc import (EccParams, _candidates, capacity_tau,
                         diff_tokens, ecc_decode, ecc_encode,
                         position_cost_stats, rank_comparison)
from vqstego.errors import MalformedEcc, ShapeMismatch
from vqstego.token_model import Condition, ModelSpec, next_distribution
from vqstego.vq import Codebook, build_codebook

MODEL = ModelSpec(vocab_size=256, top_k=32, seed=1)
COND = Condition(5)
BOOK = build_codebook(7, 256, 8)
PARAMS = EccParams.for_grid(576)  # L = 9


def true_grid(seed=0, n=576):
    key = StegoKey(bytes([seed]) * 32)
    return sample_sequence(MODEL, COND, key, n, "ecc-test").reshape(-1)


def candidate_rank(pos, wrong, true, prefix):
    """The true token's index in the candidate order: its record's rank."""
    order, _ = _candidates(pos, wrong, prefix, MODEL, COND, BOOK)
    return int(np.flatnonzero(order == true)[0])


def corrupt(grid, positions, rng):
    """Realistic corruption: replace with a near-neighbor codebook token."""
    out = grid.copy()
    for pos in positions:
        t = out[pos]
        d = np.linalg.norm(BOOK.vectors - BOOK.vectors[t], axis=1)
        neighbors = np.argsort(d)[1:4]
        out[pos] = int(rng.choice(neighbors))
    return out


class TestDiff:
    def test_identical(self):
        g = true_grid()
        assert diff_tokens(g, g) == []

    def test_row_major_position(self):
        g = true_grid().reshape(24, 24)
        r = g.copy()
        r[0, 3] = (r[0, 3] + 1) % 256
        assert diff_tokens(g, r) == [(3, int(g[0, 3]))]

    def test_matches_brute_force(self):
        rng = np.random.Generator(np.random.PCG64(1))
        g = true_grid(1)
        r = g.copy()
        flips = rng.choice(576, 5, replace=False)
        for p in flips:
            r[p] = (r[p] + 7) % 256
        want = [(int(p), int(g[p])) for p in sorted(flips)]
        assert diff_tokens(g, r) == want

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            diff_tokens(np.zeros((2, 2)), np.zeros((3, 3)))


class TestProximityRank:
    def test_sort_oracle_three_candidates(self):
        # hand-set distances 0.1 < 0.4 < 0.9 from the wrong token's vector
        # (token 3); the support is the whole vocabulary, so the wrong token
        # comes first and the middle candidate gets rank 2.
        book = Codebook(vectors=np.array([[0.1], [0.4], [0.9], [0.0]]),
                        min_distance=0.1)
        model = ModelSpec(vocab_size=4, top_k=4, seed=1)
        order, _ = _candidates(0, 3, [], model, COND, book)
        assert order.tolist() == [3, 0, 1, 2]
        assert int(np.nonzero(order == 1)[0][0]) == 2

    def test_ties_break_by_token_id(self):
        book = Codebook(vectors=np.array([[0.0], [0.5], [-0.5]]),
                        min_distance=0.5)
        model = ModelSpec(vocab_size=3, top_k=3, seed=1)
        for pos in range(8):  # whatever the probability order of 1 and 2
            order, _ = _candidates(pos, 0, [], model, COND, book)
            assert order.tolist() == [0, 1, 2]

    def test_nearest_candidate_rank_zero(self):
        g = true_grid(2)
        pos = 10
        d = next_distribution(MODEL, COND, g[:pos].tolist(), pos)
        wrong = int(g[pos])
        dist = np.linalg.norm(BOOK.vectors[d.token_ids]
                              - BOOK.vectors[wrong], axis=1)
        nearest = int(d.token_ids[np.lexsort((d.token_ids, dist))][0])
        assert candidate_rank(pos, wrong, nearest, g[:pos].tolist()) == 0


class TestEncodeDecode:
    def test_worked_position_example(self):
        # errors at positions 24, 27, 35 serialize as absolute 24 then
        # relative differences 3 and 8.
        rng = np.random.Generator(np.random.PCG64(2))
        g = true_grid(5)
        r = corrupt(g, [24, 27, 35], rng)
        enc = ecc_encode(g, r, MODEL, COND, BOOK, PARAMS, budget_bits=1000)
        assert enc.record_list.positions == [24, 27, 35]
        assert enc.corrected_count == 3
        # each rank is taken against the corrected prefix, which is g[:pos]
        ranks = [candidate_rank(pos, int(r[pos]), int(g[pos]),
                                g[:pos].tolist())
                 for pos in (24, 27, 35)]
        fields = [(24, 9), (ranks[0], 8), (3, 8), (ranks[1], 8), (8, 8),
                  (ranks[2], 8)]
        at = 0
        for value, width in fields:
            assert enc.bits[at:at + width].to_int() == value
            at += width
        assert len(enc.bits) == at

    def test_no_errors_empty(self):
        g = true_grid(6)
        enc = ecc_encode(g, g, MODEL, COND, BOOK, PARAMS, 100)
        assert len(enc.bits) == 0 and enc.corrected_count == 0
        assert np.array_equal(
            ecc_decode(enc.bits, g, MODEL, COND, BOOK, PARAMS), g)

    def test_gap_beyond_lambda1_truncates(self):
        rng = np.random.Generator(np.random.PCG64(3))
        g = true_grid(7)
        r = corrupt(g, [10, 310], rng)  # 300 >= 2^8
        enc = ecc_encode(g, r, MODEL, COND, BOOK, PARAMS, 1000)
        assert enc.corrected_count == 1
        assert enc.record_list.truncated_at == 310

    def test_first_position_beyond_l_bits_truncates(self):
        rng = np.random.Generator(np.random.PCG64(4))
        g = true_grid(8)
        r = corrupt(g, [520], rng)  # 520 >= 2^9 on a 576-cell grid
        enc = ecc_encode(g, r, MODEL, COND, BOOK, PARAMS, 1000)
        assert enc.corrected_count == 0
        assert enc.record_list.truncated_at == 520

    def test_budget_exhaustion(self):
        rng = np.random.Generator(np.random.PCG64(5))
        g = true_grid(9)
        r = corrupt(g, [5, 10, 15, 20], rng)
        # 17 bits: first record fits (9 + 8), second (16) does not
        enc = ecc_encode(g, r, MODEL, COND, BOOK, PARAMS, 17)
        assert enc.corrected_count == 1
        assert enc.record_list.truncated_at == 10

    def assert_stops_at(self, true, recovered, params, stop, kept):
        enc = ecc_encode(true, recovered, MODEL, COND, BOOK, params, 1000)
        assert enc.record_list.truncated_at == stop
        assert enc.record_list.positions == kept
        fixed = ecc_decode(enc.bits, recovered, MODEL, COND, BOOK, params)
        assert np.flatnonzero(fixed != recovered).tolist() == kept
        assert np.array_equal(fixed[kept], true[kept])

    def test_true_token_outside_support_truncates(self):
        rng = np.random.Generator(np.random.PCG64(10))
        g = true_grid(17)
        recovered = corrupt(g, [5, 12], rng)
        # the true token at 20 is one the model cannot emit after g[:20]
        support = next_distribution(MODEL, COND, g[:20].tolist(),
                                    20).token_ids
        true = g.copy()
        true[20] = next(t for t in range(256) if t not in support)
        self.assert_stops_at(true, recovered, PARAMS, stop=20, kept=[5, 12])

    def test_rank_beyond_lambda2_truncates(self):
        # lambda2 = 1 carries ranks 0 and 1; pick wrong tokens that put the
        # true token at rank 0 or 1 at 5 and 12, and at rank >= 2 at 20
        params = EccParams(lambda1=8, lambda2=1, position_bits=9)
        g = true_grid(18)
        recovered = g.copy()
        for pos, fits in ((5, True), (12, True), (20, False)):
            recovered[pos] = next(
                w for w in range(256) if w != g[pos]
                and (candidate_rank(pos, w, int(g[pos]),
                                    g[:pos].tolist()) < 2) == fits)
        self.assert_stops_at(g, recovered, params, stop=20, kept=[5, 12])

    def test_decode_round_trip_corrects_encoded_positions(self):
        rng = np.random.Generator(np.random.PCG64(6))
        g = true_grid(10)
        r = corrupt(g, [3, 40, 41, 100, 250], rng)
        enc = ecc_encode(g, r, MODEL, COND, BOOK, PARAMS, 1000)
        fixed = ecc_decode(enc.bits, r, MODEL, COND, BOOK, PARAMS)
        for pos in enc.record_list.positions:
            assert fixed[pos] == g[pos]
        # untouched positions unchanged
        mask = np.ones(576, dtype=bool)
        mask[enc.record_list.positions] = False
        assert np.array_equal(fixed[mask], r[mask])

    def test_positions_strictly_increasing(self):
        rng = np.random.Generator(np.random.PCG64(7))
        g = true_grid(11)
        r = corrupt(g, [7, 8, 9, 60, 200], rng)
        enc = ecc_encode(g, r, MODEL, COND, BOOK, PARAMS, 1000)
        p = enc.record_list.positions
        assert all(a < b for a, b in zip(p, p[1:]))

    def test_malformed_short_bits(self):
        g = true_grid(12)
        with pytest.raises(MalformedEcc):
            ecc_decode(BitString([1] * 10), g, MODEL, COND, BOOK, PARAMS)

    def test_malformed_trailing_bits(self):
        rng = np.random.Generator(np.random.PCG64(8))
        g = true_grid(13)
        r = corrupt(g, [30], rng)
        enc = ecc_encode(g, r, MODEL, COND, BOOK, PARAMS, 1000)
        bad = enc.bits + BitString([1, 0, 1])
        with pytest.raises(MalformedEcc):
            ecc_decode(bad, r, MODEL, COND, BOOK, PARAMS)

    def test_malformed_position_outside_grid(self):
        g = true_grid(14)
        bits = (BitString.from_int(500, 9) + BitString.from_int(0, 8)
                # next position 755 >= 576
                + BitString.from_int(255, 8) + BitString.from_int(0, 8))
        with pytest.raises(MalformedEcc):
            ecc_decode(bits, g, MODEL, COND, BOOK, PARAMS)

    def test_malformed_rank_beyond_candidates(self):
        g = true_grid(15)
        # only top_k = 32 candidates exist
        bits = BitString.from_int(10, 9) + BitString.from_int(40, 8)
        with pytest.raises(MalformedEcc):
            ecc_decode(bits, g, MODEL, COND, BOOK, PARAMS)


class TestCapacityTau:
    def test_worked_values_628_bits(self):
        tau_formula, tau_layout = capacity_tau(PARAMS, 628)
        assert tau_formula == 40
        assert tau_layout == 39

    def test_zero_payload(self):
        tau_formula, tau_layout = capacity_tau(PARAMS, 0)
        assert tau_layout == 0
        assert tau_formula == 1 + (0 - 9 + 8) // 16  # formula verbatim

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            capacity_tau(PARAMS, -1)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 12),
           st.integers(0, 4096))
    def test_layout_never_beats_formula(self, lam1, lam2, L, payload):
        # sanity relation, valid whenever lambda2 <= lambda1 + L; below one
        # full record the closed form can go negative while the layout bound
        # clamps at zero, so compare only where both count something.
        if lam2 > lam1 + L:
            return
        params = EccParams(lambda1=lam1, lambda2=lam2, position_bits=L)
        tau_formula, tau_layout = capacity_tau(params, payload)
        if payload >= L + lam2:
            assert tau_layout <= tau_formula
        else:
            assert tau_layout == 0

    def test_layout_solves_inequality(self):
        for payload in range(0, 700, 13):
            _, tau = capacity_tau(PARAMS, payload)
            if tau > 0:
                assert 9 + 8 + (tau - 1) * 16 <= payload
                assert 9 + 8 + tau * 16 > payload


class TestStatistics:
    def test_relative_cheaper_on_clustered_errors(self):
        # clustered positions: relative coordinates need fewer bits
        positions = [100, 103, 105, 110, 118, 119, 140]
        stats = position_cost_stats(positions, PARAMS)
        assert (stats["relative_bits"]["mean"]
                <= stats["absolute_bits"]["mean"])

    def test_rank_comparison_returns_both_orders(self):
        rng = np.random.Generator(np.random.PCG64(9))
        g = true_grid(16)
        pos = 50
        r = corrupt(g, [pos], rng)
        prox, prob = rank_comparison(pos, int(r[pos]), int(g[pos]),
                                     g[:pos].tolist(), MODEL, COND, BOOK)
        assert 0 <= prox < 32 and 0 <= prob < 32
