from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vqstego import channel as chan
from vqstego.channel import (ChannelSpec, GaussianStage, QuantizeStage,
                             RescaleStage, parse_channel)
from vqstego.errors import MalformedInput

from conftest import PoisonedWorkspace


def rand_image(seed=0, scale=0.5, shape=(96, 96, 3)):
    rng = np.random.Generator(np.random.PCG64(seed))
    return scale * rng.uniform(-1, 1, shape)


def reference_soft_clip(x):
    """The soft clip's full formula, evaluated on every element."""
    m = chan._SOFT_MARGIN
    absx = np.abs(x)
    outside = absx > 1.0 - m
    decay = np.exp(-(np.maximum(absx - (1.0 - m), 0.0)) / m)
    return (np.where(outside, np.sign(x) * (1.0 - m * decay), x),
            np.where(outside, decay, 1.0))


class TestParse:
    def test_round_trip(self):
        spec = parse_channel("gaussian:0.01,quantize:32,rescale:0.5", 7)
        assert spec.stages == (GaussianStage(0.01), QuantizeStage(32),
                               RescaleStage(0.5))
        assert str(spec) == "gaussian:0.01,quantize:32,rescale:0.5"
        assert parse_channel(str(spec), 7) == spec

    def test_lossless(self):
        assert parse_channel("").stages == ()
        assert parse_channel("lossless").stages == ()
        assert str(ChannelSpec()) == "lossless"

    @pytest.mark.parametrize("text", [
        "gaussian:-1", "quantize:1", "rescale:0.3", "bogus:1", "gaussian:x",
        pytest.param("quantize:1" + "0" * 400, id="quantize:1e400"),
        pytest.param(f"quantize:{2**1024}", id="quantize:2**1024")])
    def test_rejects_bad_stages(self, text):
        with pytest.raises(MalformedInput):
            parse_channel(text)


class TestApply:
    def test_empty_identity(self):
        img = rand_image()
        assert np.array_equal(chan.apply(ChannelSpec(), img), img)

    def test_quantize_two_levels(self):
        spec = ChannelSpec((QuantizeStage(2),))
        img = np.full((2, 2, 3), 0.3)
        assert np.all(chan.apply(spec, img) == 1.0)

    def test_quantize_grid_values(self):
        spec = ChannelSpec((QuantizeStage(3),))
        out = chan.apply(spec, np.array([[[-0.9, -0.1, 0.6]]]))
        assert out.tolist() == [[[-1.0, 0.0, 1.0]]]

    @pytest.mark.parametrize("levels", [2, 3, 16, 32, 64, 255, 256])
    def test_quantize_bitwise_equals_seven_pass_form(self, levels):
        def reference(x):
            y = x + 1.0
            y /= 2.0
            y *= levels - 1
            np.round(y, out=y)
            y /= levels - 1
            y *= 2.0
            y -= 1.0
            return y

        j = np.arange(levels)
        edges = np.concatenate([2.0 * (j[:-1] + 0.5) / (levels - 1) - 1.0,
                                2.0 * j / (levels - 1) - 1.0,
                                [-1.0, 1.0, 0.0, -0.0]])
        x = np.concatenate([
            edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
            [1e300, -1e300, 1e-300, -1e-300, 5e-324, -5e-324,
             np.inf, -np.inf, np.nan],
            rand_image(levels, scale=1.5).ravel()])
        with np.errstate(over="ignore", invalid="ignore"):
            got = chan._quantize_values(x, levels)
            want = reference(x)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_gaussian_sample_std(self):
        # [DERIVED] sample std over ~10^5 pixels within 5% of sigma.
        spec = ChannelSpec((GaussianStage(0.01),), noise_seed=3)
        img = np.zeros((200, 200, 3))
        noise = chan.apply(spec, img)
        assert abs(noise.std() - 0.01) < 0.0005

    def test_gaussian_deterministic_in_seed(self):
        img = rand_image(1)
        a = chan.apply(ChannelSpec((GaussianStage(0.02),), 5), img)
        b = chan.apply(ChannelSpec((GaussianStage(0.02),), 5), img)
        c = chan.apply(ChannelSpec((GaussianStage(0.02),), 6), img)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rescale_one_identity(self):
        img = rand_image(2)
        out = chan.apply(ChannelSpec((RescaleStage(1.0),)), img)
        assert np.array_equal(out, img)

    def test_rescale_shrinks_detail(self):
        img = rand_image(3, scale=0.9)
        out = chan.apply(ChannelSpec((RescaleStage(0.5),)), img)
        assert out.shape == img.shape
        assert not np.allclose(out, img)

    def test_output_clamped(self):
        spec = ChannelSpec((GaussianStage(1.0),), noise_seed=1)
        out = chan.apply(spec, rand_image(4, scale=1.0))
        assert out.min() >= -1.0 and out.max() <= 1.0

    def test_energy_bounds_per_stage(self):
        # Distortion bounds from the stage parameters alone, checked at a
        # comfortable Monte-Carlo margin.
        img = rand_image(5, scale=0.8)
        n = img.size
        g = chan.apply(ChannelSpec((GaussianStage(0.02),), 9), img)
        assert np.linalg.norm(g - img) <= 0.02 * np.sqrt(n) * 1.1
        q = chan.apply(ChannelSpec((QuantizeStage(16),)), img)
        assert np.linalg.norm(q - img) <= np.sqrt(n) / (16 - 1)
        r = chan.apply(ChannelSpec((RescaleStage(0.5),)), img)
        ah = chan._rescale_matrix(img.shape[0], 0.5)
        aw = chan._rescale_matrix(img.shape[1], 0.5)
        bound = (np.linalg.norm(ah, 2) * np.linalg.norm(aw, 2) + 1.0)
        assert np.linalg.norm(r - img) <= bound * np.linalg.norm(img)


class TestSmoothSurrogate:
    def test_gaussian_only_equals_hard(self):
        # interior values, no clipping active: surrogate == hard channel
        spec = ChannelSpec((GaussianStage(0.01),), noise_seed=2)
        img = rand_image(6, scale=0.5)
        assert np.array_equal(chan.apply_smooth(spec, img),
                              chan.apply(spec, img))

    def test_quantize_tape_is_straight_through(self):
        # quantize then soft clip, all pixels inside the margin: both
        # Jacobians are the identity, so the gradient passes unchanged
        spec = ChannelSpec((QuantizeStage(8),))
        _, tape = chan.apply_smooth_with_tape(spec, rand_image(7))
        w = rand_image(8)
        assert tape.clip_grad is None
        assert np.array_equal(chan.backward(tape, w), w)

    def test_soft_clip_identity_inside_margin(self):
        y, dy = chan._soft_clip(np.array([0.0, 0.5, -0.98]))
        assert np.array_equal(y, [0.0, 0.5, -0.98])
        assert dy is None  # identity derivative

    @pytest.mark.parametrize("scale, inside", [(0.5, True), (3.0, False)])
    def test_soft_clip_matches_full_formula(self, scale, inside):
        # the reference evaluates exp over every pixel; the values and the
        # memory layout (which fixes a norm's summation order) must agree
        rescale, = chan.compile_channel(parse_channel("rescale:0.5"),
                                        (96, 96, 3)).ops
        x = rescale.forward(rand_image(12, scale=scale))
        assert not x.flags.c_contiguous
        y, dy = chan._soft_clip(x)
        want_y, want_dy = reference_soft_clip(x)
        assert np.array_equal(y, want_y) and y.strides == want_y.strides
        assert bool(np.all(np.abs(x) <= 0.99)) == inside
        if inside:
            assert dy is None and np.all(want_dy == 1.0)
        else:
            assert np.array_equal(dy, want_dy)
            assert dy.strides == want_dy.strides

    def test_soft_clip_far_outside_warns_nothing(self):
        # pixels near 1e307 overflow the clip's exponent to -inf, which
        # saturates them to exactly +-1; the suite turns warnings into errors
        spec = parse_channel("gaussian:1e307,rescale:0.5", 3)
        img = rand_image(4, shape=(12, 12, 3))
        x = chan.compile_channel(spec, img.shape).run(img)
        with np.errstate(over="ignore"):
            want, _ = reference_soft_clip(x)
        got = chan.apply_smooth(spec, img)
        assert np.array_equal(got, want)
        far = np.abs(x) > 1e300
        assert far.any() and np.array_equal(got[far], np.sign(x[far]))

    def test_soft_clip_bounded_and_c1(self):
        x = np.linspace(-3, 3, 10001)
        y, dy = chan._soft_clip(x)
        assert np.all(np.abs(y) <= 1.0)
        assert np.all(np.abs(y[np.abs(x) < 1.05]) < 1.0)
        fd = np.gradient(y, x)
        # no jump discontinuity in the derivative (a hard clip would show
        # an O(1) mismatch at the boundary; curvature error here is O(h))
        assert np.max(np.abs(fd - dy)) < 0.05

    @pytest.mark.parametrize("spec_text", [
        "gaussian:0.01", "rescale:0.5", "rescale:2",
        "gaussian:0.005,rescale:0.5",
    ])
    def test_backward_matches_finite_differences(self, spec_text):
        # [DERIVED] central differences h=1e-4 through the smooth channel,
        # scalar probe loss L = sum(w * out).
        spec = parse_channel(spec_text, 11)
        img = rand_image(8, scale=0.6, shape=(12, 12, 3))
        rng = np.random.Generator(np.random.PCG64(9))
        w = rng.standard_normal(img.shape)
        out, tape = chan.apply_smooth_with_tape(spec, img)
        grad = chan.backward(tape, w)
        h = 1e-4
        for _ in range(25):
            i, j, c = (int(rng.integers(0, s)) for s in img.shape)
            up, down = img.copy(), img.copy()
            up[i, j, c] += h
            down[i, j, c] -= h
            fd = (np.sum(w * chan.apply_smooth(spec, up))
                  - np.sum(w * chan.apply_smooth(spec, down))) / (2 * h)
            denom = max(abs(fd), abs(grad[i, j, c]), 1e-8)
            assert abs(fd - grad[i, j, c]) / denom < 1e-5

    def test_with_seed(self):
        spec = parse_channel("gaussian:0.1", 1)
        assert spec.with_seed(9).noise_seed == 9
        assert spec.with_seed(9).stages == spec.stages


class TestPlan:
    SPEC = "gaussian:0.01,quantize:32,rescale:0.5"
    SHAPE = (96, 96, 3)

    def test_cached_arrays_read_only(self):
        plan = chan.compile_channel(parse_channel(self.SPEC, 3), self.SHAPE)
        noise, _, rescale = plan.ops
        assert plan.pullbacks == (rescale,)
        arrays = [getattr(rescale, f.name) for f in fields(rescale)
                  if f.name != "band"]
        assert len(arrays) == 6
        for a in (noise.noise, *arrays):
            assert not a.flags.writeable
        with pytest.raises(ValueError):
            noise.noise[0, 0, 0] = 0.0

    def test_noise_drawn_from_seed(self):
        spec = parse_channel(self.SPEC, 5)
        first = chan.compile_channel(spec, self.SHAPE).ops[0].noise
        chan.compile_channel.cache_clear()
        again = chan.compile_channel(spec, self.SHAPE).ops[0].noise
        other = chan.compile_channel(spec.with_seed(6), self.SHAPE).ops[0]
        assert again is not first and np.array_equal(again, first)
        assert np.array_equal(first,
                              0.01 * chan._noise_field(spec, 0, self.SHAPE))
        assert not np.array_equal(other.noise, first)

    def test_zero_sigma_adds_nothing(self):
        plan = chan.compile_channel(parse_channel("gaussian:0"), self.SHAPE)
        assert plan.ops == ()

    def test_unit_rescale_adds_nothing(self):
        plan = chan.compile_channel(parse_channel("rescale:1"), self.SHAPE)
        assert plan.ops == () and plan.pullbacks == ()

    @pytest.mark.parametrize("spec_text, shape", [
        ("rescale:0.5", (0, 0, 3)), ("rescale:2", (0, 4, 3)),
        ("rescale:0.5", (1, 1, 3)), ("rescale:0.5", (1, 6, 3)),
    ])
    def test_image_too_small_to_rescale_is_malformed(self, spec_text, shape):
        # a side that the rescale would round to no pixels
        with pytest.raises(MalformedInput, match="too small"):
            chan.apply(parse_channel(spec_text), np.zeros(shape))

    @pytest.mark.parametrize("spec_text, shape", [
        ("rescale:0.5", (2, 2, 3)), ("rescale:2", (1, 1, 3)),
    ])
    def test_smallest_rescalable_images(self, spec_text, shape):
        out = chan.apply(parse_channel(spec_text), np.full(shape, 0.5))
        assert np.array_equal(out, np.full(shape, 0.5))

    @pytest.mark.parametrize("spec_text", ["gaussian:0.1",
                                           "gaussian:0.1,quantize:16"])
    @pytest.mark.parametrize("shape", [(0, 0, 3), (0, 5, 3)])
    def test_image_with_no_pixels_passes_without_rescale(self, spec_text,
                                                         shape):
        # as it passes a quantize stage or none
        spec = parse_channel(spec_text, 2)
        for out in (chan.apply(spec, np.zeros(shape)),
                    chan.apply_smooth(spec, np.zeros(shape))):
            assert out.shape == shape

    def test_noise_fields_summing_past_a_double_are_malformed(self):
        # each field is finite, but their sum can overflow
        spec = parse_channel("gaussian:1e307,gaussian:1e308,rescale:0.5")
        with pytest.raises(MalformedInput, match="overflows"):
            chan.compile_channel(spec, (8, 8, 3))


# channel arguments at and past the edges of what a double holds
_extreme_args = st.one_of(
    st.integers(-3, 2**64), st.integers(2**1000, 2**1100),
    st.floats(), st.floats(1e300, 1e308),
    st.sampled_from(["1e308", "-1e308", "1e307", "1e-320", "nan", "-nan",
                     "inf", "-inf", "0.5", "2", "-0"]),
).map(str)


class TestExtremeSpecs:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["gaussian", "quantize",
                                               "rescale"]), _extreme_args),
                    min_size=1, max_size=3),
           st.integers(-2**63, 2**63 - 1))
    def test_malformed_or_quiet(self, stages, noise_seed):
        # a spec either is MalformedInput, or runs on a small image without
        # a warning (the suite turns warnings into errors)
        text = ",".join(f"{name}:{arg}" for name, arg in stages)
        img = rand_image(noise_seed % 97, shape=(6, 6, 3))
        try:
            spec = parse_channel(text, noise_seed)
            chan.compile_channel(spec, img.shape)
        except MalformedInput:
            return
        hard = chan.apply(spec, img)
        smooth = chan.apply_smooth(spec, img)
        assert np.all(np.abs(hard) <= 1.0)
        assert np.all(np.abs(smooth) <= 1.0)


class TestWindows:
    SPECS = ["lossless", "gaussian:0.02", "quantize:16", "rescale:0.5",
             "rescale:2", "rescale:0.5,rescale:0.5",
             "gaussian:0.01,quantize:32,rescale:0.5"]

    def test_crop_reads_zero_outside(self):
        a = rand_image(3, shape=(10, 7, 3))
        got = chan.crop_windows(a, np.array([-2, 6]), np.array([4, -3]), 5)
        want = np.zeros((2, 5, 5, 3))
        want[0, 2:, :3] = a[:3, 4:]
        want[1, :4, 3:] = a[6:, :2]
        assert np.array_equal(got, want)

    @staticmethod
    def clamped_crop(a, top, left, size):
        """Windows gathered at clamped indices, then the pixels outside `a`
        masked to zero."""
        h, w = a.shape[:2]
        rows = top[:, None] + np.arange(size)
        cols = left[:, None] + np.arange(size)
        out = a[np.clip(rows, 0, h - 1)[:, :, None],
                np.clip(cols, 0, w - 1)[:, None, :]]
        out[(rows < 0) | (rows >= h)] = 0.0
        out.swapaxes(1, 2)[(cols < 0) | (cols >= w)] = 0.0
        return out

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 12),
           st.sampled_from([(), (3,), (2, 2)]),
           st.sampled_from(["C", "F", "strided"]), st.integers(1, 10),
           st.lists(st.tuples(st.integers(-14, 14), st.integers(-14, 14)),
                    min_size=1, max_size=6), st.integers(0, 2**32 - 1))
    def test_crop_matches_clamped_gather(self, h, w, rest, layout, size,
                                         corners, seed):
        # corners from far off each edge to far past it, so windows run off
        # every edge or lie wholly outside, on C, Fortran and strided inputs
        a = np.random.Generator(np.random.PCG64(seed)).standard_normal(
            (h, 2 * w) + rest)
        a = {"C": np.ascontiguousarray(a[:, :w]), "F": np.asfortranarray(a[:, :w]),
             "strided": a[:, ::2]}[layout]
        top, left = (np.array(c) for c in zip(*corners))
        got = chan.crop_windows(a, top, left, size)
        want = self.clamped_crop(a, top, left, size)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert got.flags.c_contiguous

    @pytest.mark.parametrize("spec_text", SPECS)
    def test_run_windows_matches_run(self, spec_text):
        # border windows included: outside the image, the output is masked
        spec = parse_channel(spec_text, 4)
        plan = chan.compile_channel(spec, (96, 96, 3))
        reach = plan.reach
        size = 7 + 2 * reach
        image = rand_image(5, scale=0.8)
        rng = np.random.Generator(np.random.PCG64(6))
        top = rng.integers(-size, 96, 40)
        left = rng.integers(-size, 96, 40)
        top[:2], left[:2] = -2 * reach, 96 - size + 2 * reach
        other = rand_image(7, scale=0.8)
        windows = np.stack([chan.crop_windows(a, top, left, size)
                            for a in (image, other)], axis=1)
        got = plan.run_windows(windows, top, left)
        assert got.shape == (40, 2, 7, 7, 3)
        ones = chan.crop_windows(np.ones((96, 96)), top + reach,
                                 left + reach, 7)[..., None]
        for v, a in enumerate((image, other)):
            want = chan.crop_windows(plan.run(a), top + reach, left + reach,
                                     7)
            assert np.max(np.abs(got[:, v] * ones - want)) < 1e-14


class TestBanded:
    # each axis length with a partner of another length: a ragged last
    # block (28, 12 against blocks of 16) and axes shorter than a block
    SHAPES = [(96, 28), (28, 12), (12, 5), (5, 96)]

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    @pytest.mark.parametrize("h, w", SHAPES)
    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("layout", ["hwc", "hcw"])
    def test_matches_dense_einsum(self, factor, h, w, transpose, layout):
        x = rand_image(13, scale=1.0, shape=(h, w, 3))
        if layout == "hcw":
            x = np.ascontiguousarray(x.transpose(0, 2, 1)).transpose(0, 2, 1)
        rescale, = chan.compile_channel(ChannelSpec((RescaleStage(factor),)),
                                        (h, w, 3)).ops
        ah = chan._rescale_matrix(h, factor)
        aw = chan._rescale_matrix(w, factor)
        if transpose:
            got, ah, aw = rescale.pullback(x), ah.T, aw.T
        else:
            got = rescale.forward(x)
        want = np.einsum("ij,jkc,lk->ilc", ah, x, aw)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-15
        # (H, C, W) memory, the layout the dense tensordot produced
        assert got.transpose(0, 2, 1).flags.c_contiguous

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    @pytest.mark.parametrize("h, w", SHAPES)
    def test_workspace_changes_nothing(self, factor, h, w):
        # forward and pullback share the workspace's pads and output; the
        # second pair of calls reuses the arrays the first made
        rescale, = chan.compile_channel(ChannelSpec((RescaleStage(factor),)),
                                        (h, w, 3)).ops
        work = PoisonedWorkspace()
        for seed in (14, 15):
            x = rand_image(seed, scale=1.0, shape=(h, w, 3))
            for run in (rescale.forward, rescale.pullback):
                want = run(x)
                got = run(x, work)
                assert np.array_equal(got, want)
                assert got.strides == want.strides

    @pytest.mark.parametrize("factor, band", [(0.5, 2), (2.0, 1)])
    def test_bandwidth(self, factor, band):
        rescale, = chan.compile_channel(ChannelSpec((RescaleStage(factor),)),
                                        (96, 96, 3)).ops
        assert rescale.band == band
        bs, n_blocks = chan._BAND_BLOCK, 96 // chan._BAND_BLOCK
        for blocks in (rescale.forward_h, rescale.pullback_h):
            assert blocks.shape == (n_blocks, bs, bs + 2 * band)
        for blocks in (rescale.forward_w, rescale.pullback_w):
            assert blocks.shape == (n_blocks, bs + 2 * band, bs)
