import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vqstego.errors import (DegenerateCodebook, IndexOutOfRange,
                            MalformedInput, ShapeMismatch)
from vqstego.vq import (Codebook, build_codebook, build_tokenizer,
                        export_ppm, read_image, write_image)


def small_tokenizer(bias_scale=0.0, alpha=0.08, weight_scale=1.0,
                    grid=(4, 4)):
    book = build_codebook(7, 32, 8)
    return build_tokenizer(11, book, 4, grid[0], grid[1], alpha,
                           weight_scale, bias_scale)


class TestCodebook:
    def test_deterministic(self):
        a = build_codebook(7, 256, 8)
        b = build_codebook(7, 256, 8)
        assert np.array_equal(a.vectors, b.vectors)

    def test_unit_rms_rows(self):
        book = build_codebook(7, 256, 8)
        norms = np.linalg.norm(book.vectors, axis=1)
        assert np.allclose(norms, np.sqrt(8))

    def test_min_pairwise_distance_positive(self):
        # [DERIVED] exhaustive pairwise check at N=256, d=8.
        book = build_codebook(7, 256, 8)
        diff = book.vectors[:, None, :] - book.vectors[None, :, :]
        dist = np.linalg.norm(diff, axis=2)
        np.fill_diagonal(dist, np.inf)
        assert dist.min() > 0
        assert book.min_distance == pytest.approx(dist.min())

    def test_degenerate_codebook_rejected(self):
        # d=1 rows normalize to +-1; a seed putting both rows on the same
        # sign collides exactly.
        seed = next(s for s in range(100)
                    if np.ptp(np.sign(np.random.Generator(np.random.PCG64(s))
                                      .standard_normal((2, 1)))) == 0)
        with pytest.raises(DegenerateCodebook):
            build_codebook(seed, 2, 1)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            build_codebook(0, 1, 8)


class TestDecodeEncode:
    def test_shapes_toy_config(self, tokenizer):
        grid = np.zeros((24, 24), dtype=int)
        assert tokenizer.decode(grid).shape == (96, 96, 3)

    def test_same_token_tiles_identically(self):
        tok = small_tokenizer()
        img = tok.decode(np.full((4, 4), 9))
        patch = img[:4, :4, :]
        for i in range(4):
            for j in range(4):
                assert np.array_equal(img[4*i:4*i+4, 4*j:4*j+4, :], patch)

    def test_decode_is_decode_continuous_of_the_vectors(self, tokenizer):
        rng = np.random.Generator(np.random.PCG64(3))
        for _ in range(20):
            grid = rng.integers(0, tokenizer.codebook.size, (24, 24))
            vectors = tokenizer.codebook.vectors[grid]
            want = tokenizer.decode_continuous(vectors)
            assert tokenizer.decode(grid).tobytes() == want.tobytes()

    def test_patch_table_follows_the_codebook(self):
        tok = small_tokenizer()
        grid = np.arange(16).reshape(4, 4)
        before = tok.decode(grid)
        assert not tok.patch_table.flags.writeable
        other = replace(tok, codebook=Codebook(
            vectors=tok.codebook.vectors[::-1].copy(), min_distance=0.0))
        assert np.array_equal(other.decode(grid),
                              other.decode_continuous(
                                  other.codebook.vectors[grid]))
        assert np.array_equal(other.decode(grid), tok.decode(31 - grid))
        assert np.array_equal(tok.decode(grid), before)

    def test_zero_latents_zero_bias_zero_image(self):
        tok = small_tokenizer(bias_scale=0.0)
        img = tok.decode_continuous(np.zeros((4, 4, 8)))
        assert np.all(img == 0.0)  # tanh(0) = 0

    @pytest.mark.parametrize("weight_scale, bias_scale", [
        (1e308, 0.0), (0.3, 1e308), (1e-320, 0.0), (-1e-310, 2.1)])
    def test_decoder_that_overflows_is_malformed(self, weight_scale,
                                                 bias_scale):
        # weights or bias past the largest double, or weights so small
        # that the encoder's pseudo-inverse passes it
        with pytest.raises(MalformedInput):
            small_tokenizer(bias_scale=bias_scale, weight_scale=weight_scale)

    @pytest.mark.parametrize("alpha", [1e308, -1e308])
    def test_huge_alpha_saturates_quietly(self, alpha):
        # alpha * pre overflows to +-inf, where tanh is +-1 as it is for
        # any product above 20; the suite turns a warning into an error
        tok = small_tokenizer(bias_scale=2.1, alpha=alpha)
        unit = small_tokenizer(bias_scale=2.1, alpha=1.0)
        grid = np.arange(16).reshape(4, 4)
        vectors = tok.codebook.vectors[grid]
        want = np.sign(alpha) * np.sign(unit.decode_continuous(vectors))
        assert np.array_equal(tok.decode(grid), want)
        assert np.array_equal(tok.decode_continuous(vectors), want)

    def test_index_out_of_range(self, tokenizer):
        with pytest.raises(IndexOutOfRange):
            tokenizer.decode(np.full((24, 24), 256))

    def test_shape_mismatch(self, tokenizer):
        with pytest.raises(ShapeMismatch):
            tokenizer.decode(np.zeros((3, 3), dtype=int))
        with pytest.raises(ShapeMismatch):
            tokenizer.encode(np.zeros((5, 5, 3)))

    def test_encode_inverts_decode(self, tokenizer):
        rng = np.random.Generator(np.random.PCG64(1))
        grid = rng.integers(0, 256, (24, 24))
        z = tokenizer.encode(tokenizer.decode(grid))
        true_z = tokenizer.codebook.vectors[grid]
        assert np.max(np.abs(z - true_z)) < 1e-9

    def test_lossless_round_trip_exact(self, tokenizer):
        # quantize(encode(decode(q))) == q, asserted exactly.
        rng = np.random.Generator(np.random.PCG64(2))
        for seed in range(5):
            grid = rng.integers(0, 256, (24, 24))
            assert np.array_equal(
                tokenizer.quantize(tokenizer.encode(tokenizer.decode(grid))),
                grid)

    def test_saturated_pixels_stay_finite(self, tokenizer):
        img = np.ones((96, 96, 3))
        z = tokenizer.encode(img)
        assert np.all(np.isfinite(z))

    def test_small_noise_keeps_quantization(self, tokenizer):
        # [DERIVED] noise well below the codebook separation after the
        # pseudo-inverse leaves quantization exact at a fixed seed.
        rng = np.random.Generator(np.random.PCG64(3))
        grid = rng.integers(0, 256, (24, 24))
        img = tokenizer.decode(grid)
        noisy = np.clip(img + 2e-4 * rng.standard_normal(img.shape), -1, 1)
        assert np.array_equal(tokenizer.quantize(tokenizer.encode(noisy)),
                              grid)

    def test_decode_lipschitz_bound(self, tokenizer):
        # per-cell: ||decode(z+d) - decode(z)|| <= alpha * ||W||_2 * ||d||.
        bound = tokenizer.alpha * np.linalg.norm(tokenizer.weight, 2)
        rng = np.random.Generator(np.random.PCG64(4))
        z = rng.standard_normal((24, 24, 8))
        for _ in range(20):
            d = rng.standard_normal((24, 24, 8)) * 0.1
            lhs = np.linalg.norm(tokenizer.decode_continuous(z + d)
                                 - tokenizer.decode_continuous(z))
            assert lhs <= bound * np.linalg.norm(d) + 1e-12


class TestQuantize:
    def test_exact_row_hits_index(self, tokenizer):
        z = np.tile(tokenizer.codebook.vectors[7], (24, 24, 1))
        assert np.all(tokenizer.quantize(z) == 7)

    def test_equidistant_tie_breaks_low(self):
        book = Codebook(vectors=np.array([[1.0], [-1.0]]), min_distance=2.0)
        tok = build_tokenizer(11, book, 2, 1, 1, 0.5, 0.3)
        assert tok.quantize(np.zeros((1, 1, 1)))[0, 0] == 0

    def test_matches_brute_force_oracle(self, tokenizer):
        # [DERIVED] exhaustive-scan nearest neighbor over 10^4 cells.
        rng = np.random.Generator(np.random.PCG64(5))
        book = tokenizer.codebook.vectors
        for _ in range(18):  # 18 * 576 > 10^4 cells
            z = rng.standard_normal((24, 24, 8)) * 1.5
            got = tokenizer.quantize(z)
            flat = z.reshape(-1, 8)
            want = np.array([
                int(np.argmin(((book - v) ** 2).sum(axis=1))) for v in flat
            ]).reshape(24, 24)
            assert np.array_equal(got, want)

    def test_non_finite_rejected(self, tokenizer):
        z = np.zeros((24, 24, 8))
        z[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            tokenizer.quantize(z)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_quantize_oracle_property(self, seed):
        tok = small_tokenizer(grid=(2, 2))
        rng = np.random.Generator(np.random.PCG64(seed))
        z = rng.standard_normal((2, 2, 8))
        got = tok.quantize(z)
        book = tok.codebook.vectors
        for i in range(2):
            for j in range(2):
                d2 = ((book - z[i, j]) ** 2).sum(axis=1)
                assert d2[got[i, j]] == d2.min()


@st.composite
def vqi_files(draw):
    """Bytes shaped like a .vqi file: a magic, a header and a body of
    doubles, often of the size the header says, sometimes cut or padded."""
    magic = draw(st.sampled_from([b"VQI2", b"VQI1"])
                 | st.binary(min_size=4, max_size=4))
    dims = draw(st.tuples(*[st.integers(0, 3)] * 3)
                | st.tuples(*[st.integers(0, 2**32 - 1)] * 3))
    count = int(np.prod(dims)) if max(dims) <= 3 else draw(st.integers(0, 9))
    pixels = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=count,
                                    max_size=count)), "<f8")
    if count and draw(st.booleans()):
        pixels[draw(st.integers(0, count - 1))] = draw(st.floats())
    body = pixels.tobytes()
    cut = draw(st.just(0) | st.integers(-9, 9))
    body = body[:len(body) + cut] if cut < 0 else body + bytes(cut)
    return magic + struct.pack("<III", *dims) + body


class TestImageFiles:
    def test_round_trip(self, tmp_path, tokenizer):
        rng = np.random.Generator(np.random.PCG64(6))
        img = tokenizer.decode(rng.integers(0, 256, (24, 24)))
        path = tmp_path / "x.vqi"
        write_image(path, img)
        back = read_image(path)
        assert back.dtype == np.float64 and back.flags.writeable
        assert np.array_equal(back, img)  # lossless float64 storage
        assert path.stat().st_size == 16 + 8 * img.size

    def test_corrupted_header(self, tmp_path):
        path = tmp_path / "bad.vqi"
        path.write_bytes(b"NOPE" + bytes(12))
        with pytest.raises(MalformedInput):
            read_image(path)

    def test_truncated_pixels(self, tmp_path, tokenizer):
        rng = np.random.Generator(np.random.PCG64(7))
        img = tokenizer.decode(rng.integers(0, 256, (24, 24)))
        path = tmp_path / "t.vqi"
        write_image(path, img)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(MalformedInput):
            read_image(path)

    @pytest.mark.parametrize("body", [2, 6, 16])
    def test_body_not_the_header_size(self, tmp_path, body):
        # 1x1x1 header: the body must be exactly one float64
        path = tmp_path / "odd.vqi"
        path.write_bytes(b"VQI2" + struct.pack("<III", 1, 1, 1) + bytes(body))
        with pytest.raises(MalformedInput):
            read_image(path)

    @pytest.mark.parametrize("dims", [(0, 0, 3), (0, 2**30, 2**30),
                                      (4, 4, 0)])
    def test_image_without_pixels_is_malformed(self, tmp_path, dims):
        path = tmp_path / "empty.vqi"
        path.write_bytes(b"VQI2" + struct.pack("<III", *dims))
        with pytest.raises(MalformedInput, match="no pixels"):
            read_image(path)

    def test_float32_format_is_malformed(self, tmp_path):
        # a well-formed file of the older lossy format has no reader
        path = tmp_path / "old.vqi"
        path.write_bytes(b"VQI1" + struct.pack("<III", 1, 1, 1)
                         + np.zeros(1, "<f4").tobytes())
        with pytest.raises(MalformedInput, match="VQI2"):
            read_image(path)

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=64) | vqi_files())
    def test_fuzzed_file_reads_or_is_malformed(self, tmp_path_factory, data):
        # any bytes: an (h, w, c) float64 image in [-1, 1] that writes back
        # to the same bytes, or MalformedInput
        path = tmp_path_factory.getbasetemp() / "fuzzed.vqi"
        path.write_bytes(data)
        try:
            image = read_image(path)
        except MalformedInput:
            return
        assert image.shape == struct.unpack("<III", data[4:16])
        assert image.dtype == np.float64
        assert np.all(np.abs(image) <= 1.0)
        write_image(path, image)
        assert path.read_bytes() == data

    def test_ppm_export(self, tmp_path):
        img = np.zeros((4, 6, 3))
        path = tmp_path / "x.ppm"
        export_ppm(path, img)
        data = path.read_bytes()
        assert data.startswith(b"P6\n6 4\n255\n")
        assert len(data) == len(b"P6\n6 4\n255\n") + 4 * 6 * 3
