import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vqstego.bits import (BitString, KeyedStream, StegoKey, frame_message,
                          unframe_lenient, unframe_message, xor_bits)
from vqstego.errors import (MalformedInput, PayloadTooLong, TruncatedFrame)


def make_stream(domain="d", seed_byte=7):
    return KeyedStream(StegoKey(bytes([seed_byte]) * 32, domain))


class TestBitString:
    def test_from_int_round_trip(self):
        b = BitString.from_int(0b1011, 4)
        assert b.to01() == "1011"
        assert b.to_int() == 11

    def test_from_int_msb_first(self):
        assert BitString.from_int(1, 8).to01() == "00000001"

    def test_from_int_overflow(self):
        with pytest.raises(ValueError):
            BitString.from_int(4, 2)

    def test_from_bytes(self):
        assert BitString.from_bytes(b"\x80\x01").to01() == "1000000000000001"

    def test_slices_read_fields(self):
        b = BitString.from01("110")
        assert b[:2].to_int() == 3
        assert b[2] == 0
        assert b[3:] == BitString()
        with pytest.raises(IndexError):
            b[3]

    def test_concatenation_leaves_operands(self):
        a, b = BitString.from01("10"), BitString.from01("011")
        assert (a + b).to01() == "10011"
        assert a.to01() == "10" and b.to01() == "011"
        with pytest.raises(TypeError):
            a[0] = 0

    def test_join_is_repeated_concatenation(self):
        parts = [BitString.from01(t) for t in ("10", "", "011", "1")]
        assert BitString.join(parts) == parts[0] + parts[1] + parts[2] + \
            parts[3]
        assert BitString.join([]) == BitString()

    def test_from_ndarray_reads_values(self):
        # bytes(ndarray) would read the int64 memory buffer: 16 bits
        assert BitString(np.array([1, 0])).to01() == "10"
        assert BitString(np.array([1, 0], dtype=np.uint8)).to01() == "10"
        with pytest.raises(ValueError):
            BitString(np.array([1, 2]))

    def test_zero_width(self):
        assert BitString.from_int(0, 0) == BitString()
        assert BitString().to_int() == 0 and BitString().to01() == ""

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            BitString([0, 2])
        with pytest.raises(MalformedInput):
            BitString.from01("10x")
        with pytest.raises(MalformedInput):
            BitString.from01("10\u00b9")

    @given(st.integers(0, 2**20 - 1))
    def test_int_round_trip_property(self, value):
        assert BitString.from_int(value, 20).to_int() == value

    @given(st.binary(max_size=40), st.integers(0, 320))
    def test_conversions_match_bit_loops(self, data, width):
        # the per-bit loops the C-level conversions replaced, as reference
        bits = [(byte >> (7 - i)) & 1 for byte in data for i in range(8)]
        assert list(BitString.from_bytes(data)) == bits
        assert BitString(bits).to01() == "".join(str(b) for b in bits)
        value = 0
        for b in bits:
            value = (value << 1) | b
        assert BitString(bits).to_int() == value
        value &= (1 << width) - 1
        assert list(BitString.from_int(value, width)) == [
            (value >> (width - 1 - i)) & 1 for i in range(width)]
        keystream = bits[::-1]
        assert list(xor_bits(BitString(bits), BitString(keystream))) == [
            a ^ b for a, b in zip(bits, keystream)]


class TestKeyedStream:
    def test_same_inputs_identical(self):
        r1 = make_stream().next_uniform()
        r2 = make_stream().next_uniform()
        assert r1 == r2

    def test_golden_values_pinned(self):
        # Determinism across processes/platforms: values frozen once.
        s = make_stream("golden", 1)
        got = [s.next_uniform() for _ in range(3)]
        assert got == pytest.approx(
            [0.3960912979980229, 0.9405958468240473, 0.6965597559979934],
            abs=0.0, rel=0.0)

    def test_domains_decorrelate(self):
        # [DERIVED] 10^4 (domain_a, domain_b) pairs, no collision.
        a = KeyedStream(StegoKey(bytes(32), "a"))
        b = KeyedStream(StegoKey(bytes(32), "b"))
        ra = [a.next_uniform() for _ in range(10_000)]
        rb = [b.next_uniform() for _ in range(10_000)]
        assert not any(x == y for x, y in zip(ra, rb))

    def test_uniform_mean(self):
        # [DERIVED] Monte-Carlo mean of 10^5 draws in 0.5 +- 0.01.
        s = make_stream("mean")
        mean = np.mean([s.next_uniform() for _ in range(100_000)])
        assert abs(mean - 0.5) < 0.01

    def test_uniform_range_and_resolution(self):
        s = make_stream("range")
        vals = [s.next_uniform() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in vals)
        assert len(set(vals)) == len(vals)

    def test_next_int_bounds(self):
        s = make_stream("int")
        vals = [s.next_int(7) for _ in range(2000)]
        assert set(vals) == set(range(7))

    def test_next_bits_length(self):
        assert len(make_stream().next_bits(13)) == 13


class TestFraming:
    def test_empty_payload_is_masked_header(self):
        framed = frame_message(BitString(), make_stream())
        keystream = make_stream().next_bits(32)
        assert len(framed) == 32
        assert xor_bits(framed, keystream).to_int() == 0

    def test_frame_length_arithmetic(self):
        payload = make_stream("p").next_bits(1000)
        assert len(frame_message(payload, make_stream())) == 1032

    def test_round_trip(self):
        payload = BitString.from01("1011001")
        framed = frame_message(payload, make_stream())
        assert unframe_message(framed, make_stream()) == payload

    def test_too_short_input(self):
        with pytest.raises(TruncatedFrame):
            unframe_message(BitString([0] * 31), make_stream())

    def test_flipped_header_bit_detected_or_resized(self):
        # [DERIVED] flipping a header bit changes the declared length; the
        # result is either TruncatedFrame or a payload of the wrong length.
        payload = make_stream("p2").next_bits(40)
        framed = frame_message(payload, make_stream())
        bits = list(framed)
        bits[5] ^= 1
        try:
            out = unframe_message(BitString(bits), make_stream())
            assert len(out) != len(payload)
        except TruncatedFrame:
            pass

    def test_payload_too_long_guard(self):
        class FakeLen(BitString):
            def __len__(self):
                return 1 << 32

        with pytest.raises(PayloadTooLong):
            frame_message(FakeLen(), make_stream())

    def test_unframe_lenient_never_raises(self):
        framed = frame_message(make_stream("p3").next_bits(50), make_stream())
        truncated = BitString(framed[i] for i in range(40))
        out = unframe_lenient(truncated, make_stream(), 50)
        assert len(out) == 8
        assert len(unframe_lenient(BitString([1] * 10), make_stream(), 5)) == 0

    @settings(max_examples=200)
    @given(st.lists(st.integers(0, 1), max_size=300), st.binary(min_size=32, max_size=32))
    def test_round_trip_property(self, bits, seed):
        payload = BitString(bits)
        key = StegoKey(seed, "prop")
        framed = frame_message(payload, KeyedStream(key))
        assert unframe_message(framed, KeyedStream(key)) == payload

    def test_keystream_monobit(self):
        # Framed all-zero payload = raw keystream; monobit test at n = 10^5.
        framed = frame_message(BitString([0] * (100_000 - 32)),
                               make_stream("monobit"))
        ones = sum(framed)
        n = len(framed)
        z = abs(ones - n / 2) / (0.5 * n**0.5)
        assert z < 4.0
