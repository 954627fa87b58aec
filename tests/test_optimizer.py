from dataclasses import replace

import numpy as np
import pytest

from vqstego import channel as chan
from vqstego import optimizer
from vqstego.bits import KeyedStream, StegoKey
from vqstego.channel import ChannelSpec, GaussianStage, parse_channel
from vqstego.codec import sample_sequence
from vqstego.config import default_config
from vqstego.errors import NonFiniteLoss, ShapeMismatch
from vqstego.optimizer import (OptimConfig, loss, loss_and_gradient,
                               optimize_tokens, search_tokens)
from vqstego.pipeline import Pipeline, derive_key, embed_message
from vqstego.token_model import Condition, condition_from_key
from vqstego.vq import Codebook, build_codebook, build_tokenizer

LOSSLESS = ChannelSpec()


@pytest.fixture(scope="module")
def mild_tokenizer():
    # decoder whose outputs stay inside the soft-clip identity region, so
    # the smooth surrogate and the hard channel agree exactly
    book = build_codebook(7, 256, 8)
    tok = build_tokenizer(11, book, 4, 24, 24, 0.08, 1.0, 0.0)
    assert np.max(np.abs(tok.decode(np.arange(576).reshape(24, 24) % 256))) \
        < 0.99
    return tok


def capture_losses(monkeypatch, latents=None) -> list[float]:
    """Record every value `optimize_tokens` gets from loss_and_gradient,
    and the latents it was evaluated at into `latents` if given."""
    values = []

    def recorded(*args):
        value, g = loss_and_gradient(*args)
        values.append(value)
        if latents is not None:
            latents.append(args[0].copy())
        return value, g

    monkeypatch.setattr(optimizer, "loss_and_gradient", recorded)
    return values


def true_setup(tok, seed=1):
    rng = np.random.Generator(np.random.PCG64(seed))
    grid = rng.integers(0, tok.codebook.size, (tok.grid_h, tok.grid_w))
    return grid, tok.codebook.vectors[grid], tok.decode(grid)


class TestLoss:
    def test_zero_at_truth_noiseless(self, mild_tokenizer):
        grid, z, img = true_setup(mild_tokenizer)
        assert loss(z, img, LOSSLESS, mild_tokenizer) < 1e-9

    def test_shape_mismatch(self, mild_tokenizer):
        _, z, img = true_setup(mild_tokenizer)
        with pytest.raises(ShapeMismatch):
            loss(z, img[:-4], LOSSLESS, mild_tokenizer)

    def test_invariant_under_swapping_identical_cells(self, mild_tokenizer):
        grid, z, img = true_setup(mild_tokenizer)
        z2 = z.copy()
        z2[0, 0], z2[0, 1] = z[0, 1].copy(), z[0, 0].copy()
        grid2 = grid.copy()
        grid2[0, 0], grid2[0, 1] = grid[0, 1], grid[0, 0]
        img2 = mild_tokenizer.decode(grid2)
        assert loss(z, img, LOSSLESS, mild_tokenizer) == pytest.approx(
            loss(z2, img2, LOSSLESS, mild_tokenizer), abs=1e-12)

    def test_truth_beats_random_latents(self, mild_tokenizer):
        # [DERIVED] seeded comparison: loss at truth < loss at random z.
        spec = ChannelSpec((GaussianStage(0.01),), noise_seed=4)
        rng = np.random.Generator(np.random.PCG64(2))
        for seed in range(20):
            grid, z, img = true_setup(mild_tokenizer, seed)
            received = chan.apply(spec, img)
            at_truth = loss(z, received, spec, mild_tokenizer)
            at_random = loss(rng.standard_normal(z.shape), received, spec,
                             mild_tokenizer)
            assert at_truth < at_random


class TestGradient:
    def test_zero_at_exact_optimum(self, mild_tokenizer):
        _, z, img = true_setup(mild_tokenizer)
        value, g = loss_and_gradient(z, img, LOSSLESS, mild_tokenizer)
        assert value < 1e-9
        assert np.linalg.norm(g) < 1e-7

    def test_deterministic(self, mild_tokenizer):
        spec = ChannelSpec((GaussianStage(0.02),), noise_seed=1)
        grid, z, img = true_setup(mild_tokenizer)
        received = chan.apply(spec, img)
        v1, g1 = loss_and_gradient(z, received, spec, mild_tokenizer)
        v2, g2 = loss_and_gradient(z, received, spec, mild_tokenizer)
        assert v1 == v2 and np.array_equal(g1, g2)

    @pytest.mark.parametrize("spec_text,seed", [
        ("gaussian:0.02", 1), ("gaussian:0.01,rescale:0.5", 2),
        ("rescale:2", 3), ("gaussian:0.005", 4), ("lossless", 5),
    ])
    def test_matches_central_differences(self, tokenizer, spec_text, seed):
        # [DERIVED] 50 random coordinates per instance, h=1e-4,
        # relative error < 1e-5 (the acceptance-level tolerance).
        spec = parse_channel(spec_text, seed)
        rng = np.random.Generator(np.random.PCG64(seed))
        grid, z, img = true_setup(tokenizer, seed)
        received = chan.apply(spec, img)
        z = z + 0.3 * rng.standard_normal(z.shape)  # away from the optimum
        _, g = loss_and_gradient(z, received, spec, tokenizer)
        h = 1e-4
        for _ in range(50):
            i, j, c = (int(rng.integers(0, s)) for s in z.shape)
            up, down = z.copy(), z.copy()
            up[i, j, c] += h
            down[i, j, c] -= h
            fd = (loss(up, received, spec, tokenizer)
                  - loss(down, received, spec, tokenizer)) / (2 * h)
            assert abs(fd - g[i, j, c]) / max(abs(fd), 1e-8) < 1e-5


class TestOptimize:
    def test_noiseless_returns_true_grid(self, tokenizer):
        grid, _, img = true_setup(tokenizer, 7)
        received = chan.apply(LOSSLESS, img)
        out, _ = optimize_tokens(received, LOSSLESS, tokenizer,
                                 OptimConfig(steps=50))
        assert np.count_nonzero(out != grid) == 0

    def test_improves_over_reencode(self, tokenizer):
        # [DERIVED] paired comparison on a small seeded suite.
        spec = ChannelSpec((GaussianStage(0.02),), noise_seed=3)
        for seed in range(3):
            grid, _, img = true_setup(tokenizer, 20 + seed)
            received = chan.apply(spec, img)
            reencoded = tokenizer.quantize(tokenizer.encode(received))
            out, _ = optimize_tokens(received, spec, tokenizer,
                                     OptimConfig())
            after = np.count_nonzero(out != grid)
            assert after <= np.count_nonzero(reencoded != grid)
            assert after == 0

    def test_loss_trace_descends(self, tokenizer, monkeypatch):
        spec = ChannelSpec((GaussianStage(0.02),), noise_seed=5)
        grid, _, img = true_setup(tokenizer, 9)
        received = chan.apply(spec, img)
        points = []
        values = capture_losses(monkeypatch, points)
        out, report = optimize_tokens(received, spec, tokenizer,
                                      OptimConfig())
        assert report.steps_run == len(values) >= 2
        assert all(v >= 0 for v in values)
        assert min(values) < values[0]
        # the quantized point is the best one L-BFGS evaluated
        best = points[int(np.argmin(values))]
        assert np.array_equal(out, tokenizer.quantize(best))

    def test_reused_plan_changes_nothing(self, tokenizer, monkeypatch):
        # the first call compiles the channel, the second reuses the cached
        # plan; a plan mutated by a run would change the second result
        spec = parse_channel("gaussian:0.01,quantize:32,rescale:0.5", 4)
        grid, _, img = true_setup(tokenizer, 12)
        received = chan.apply(spec, img)
        chan.compile_channel.cache_clear()
        runs = []
        for _ in range(2):
            values = capture_losses(monkeypatch)
            runs.append((*optimize_tokens(received, spec, tokenizer,
                                          OptimConfig(steps=300)), values))
        (grid_a, rep_a, values_a), (grid_b, rep_b, values_b) = runs
        assert np.array_equal(grid_a, grid_b)
        assert rep_a.steps_run == rep_b.steps_run
        assert values_a == values_b

    def test_received_layout_changes_nothing(self):
        # a rescale stage returns its image in (H, C, W) memory, a file
        # read gives C order; the loss's norm sums in memory order, and on
        # this message the two layouts took 217 and 239 evaluations apart
        cfg = replace(default_config(), ecc_enabled=False,
                      channel=parse_channel(
                          "gaussian:0.01,quantize:32,rescale:0.5", 0))
        pipe = Pipeline.from_config(cfg)
        key = derive_key(cfg, 0)
        message = KeyedStream(key.with_domain("test.message")).next_bits(128)
        received = chan.apply(cfg.channel,
                              embed_message(pipe, key, message).image)
        assert not received.flags.c_contiguous
        (grid_a, rep_a), (grid_b, rep_b) = (
            optimize_tokens(r, cfg.channel, pipe.tokenizer, cfg.optim)
            for r in (received, np.ascontiguousarray(received)))
        assert np.array_equal(grid_a, grid_b)
        assert rep_a.steps_run == rep_b.steps_run

    def test_golden_first_trace_values(self, tokenizer, monkeypatch):
        # Cross-platform determinism: values frozen from a pinned run.
        spec = ChannelSpec((GaussianStage(0.02),), noise_seed=6)
        grid, _, img = true_setup(tokenizer, 10)
        received = chan.apply(spec, img)
        values = capture_losses(monkeypatch)
        optimize_tokens(received, spec, tokenizer, OptimConfig(steps=100))
        assert values[:3] == pytest.approx(GOLDEN_TRACE, rel=0, abs=1e-12)

    @pytest.mark.parametrize("steps", [1, 5, 37, 300])
    def test_steps_cap_all_evaluations(self, tokenizer, monkeypatch, steps):
        # the cap is enforced inside the L-BFGS line search; steps_run
        # counts every evaluation, as the benchmark tracer does by patching
        # the module attribute
        spec = parse_channel("gaussian:0.01,quantize:32,rescale:0.5", 2)
        grid, _, img = true_setup(tokenizer, 13)
        received = chan.apply(spec, img)
        values = capture_losses(monkeypatch)
        _, report = optimize_tokens(received, spec, tokenizer,
                                    OptimConfig(steps=steps))
        assert report.steps_run <= steps
        assert report.steps_run == len(values)

    def test_quantize16_recovers_every_token(self, tokenizer):
        # gradient descent from the re-encoded latents stalls on this hard
        # quantize stage with wrong tokens at the cap; L-BFGS gets past it
        spec = parse_channel("quantize:16", 0)
        for seed in range(4):
            grid, _, img = true_setup(tokenizer, seed)
            received = chan.apply(spec, img)
            out, report = optimize_tokens(received, spec, tokenizer,
                                          OptimConfig())
            assert np.count_nonzero(out != grid) == 0
            assert report.steps_run < OptimConfig().steps

    def test_non_finite_loss_raises(self, tokenizer):
        # a received image whose residual norm overflows to inf
        bad = np.full((96, 96, 3), 1e308)
        with pytest.raises(NonFiniteLoss), \
                pytest.warns(RuntimeWarning, match="overflow"):
            optimize_tokens(bad, LOSSLESS, tokenizer, OptimConfig(steps=5))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimConfig(steps=0)


def hard_loss_sq(grid, received, spec, tok):
    return float(np.sum((received - chan.apply(spec, tok.decode(grid))) ** 2))


def tile_crops(sq, rows, cols, patch, reach, period):
    """The tiles of cells (rows[i], cols[i]) cut from the whole-image
    residual `sq`."""
    return chan.crop_windows(sq, rows * patch - reach, cols * patch - reach,
                             period * patch)


def class_tiles(sq, patch, reach, period, a, b):
    """The tile losses of class (a, b) as the search sums them, a
    (rows, cols) array for the cells (a + period*m, b + period*n)."""
    rows, cols = np.mgrid[a:sq.shape[0] // patch:period,
                          b:sq.shape[1] // patch:period]
    t = period * patch
    tiles = tile_crops(sq, rows.ravel(), cols.ravel(), patch, reach, period)
    return optimizer._tile_sums(tiles.reshape(*rows.shape, t, t))


def whole_image_score_class(grid, rows, cols, candidates, received, plan,
                            tokenizer, period):
    """The tile losses from one whole-image hard channel pass per candidate
    column, each putting that column's tokens in every listed cell."""
    crops = []
    trial = np.array(grid)
    for s in range(candidates.shape[1]):
        trial[rows, cols] = candidates[:, s]
        out = np.clip(plan.run(tokenizer.decode_continuous(
            tokenizer.codebook.vectors[trial])), -1.0, 1.0)
        sq = ((received - out) ** 2).sum(axis=2)
        crops.append(tile_crops(sq, rows, cols, tokenizer.patch, plan.reach,
                                period))
    # summed in the scorer's (cell, candidate) layout, one cell at a time
    crops = np.stack(crops, axis=1)
    return np.concatenate([optimizer._tile_sums(crops[c:c + 1])
                           for c in range(len(rows))])


class TestSearch:
    @pytest.mark.parametrize("spec_text,period", [
        ("lossless", 1), ("gaussian:0.02", 1), ("quantize:16", 1),
        ("rescale:0.5", 2), ("rescale:2", 2), ("rescale:0.5,rescale:0.5", 3),
    ])
    def test_class_batch_equals_one_cell_reference(self, tokenizer,
                                                   spec_text, period):
        # every cell of a class changes at once in the batch; the reference
        # changes one cell and takes the change of the whole image's loss
        spec = parse_channel(spec_text, 3)
        plan = chan.compile_channel(spec, tokenizer.image_shape)
        reach = plan.reach
        assert optimizer._period(tokenizer.patch, reach) == period
        true_grid, _, img = true_setup(tokenizer, 14)
        received = chan.apply(spec, img)
        rng = np.random.Generator(np.random.PCG64(15))
        grid = true_grid.copy()
        wrong = rng.random(grid.shape) < 0.2
        grid[wrong] = rng.integers(0, tokenizer.codebook.size, wrong.sum())
        base = hard_loss_sq(grid, received, spec, tokenizer)
        sq = optimizer._squared_residual(grid, received, spec, tokenizer)
        for a in range(period):
            for b in range(period):
                rows = np.array([a, a, 23 - (23 - a) % period, a + period])
                cols = np.array([b, 23 - (23 - b) % period, b,
                                 b + 2 * period])
                candidates = rng.integers(0, tokenizer.codebook.size,
                                          (len(rows), 3))
                candidates[0, 0] = true_grid[rows[0], cols[0]]
                candidates[1, 0] = grid[rows[1], cols[1]]
                batch = optimizer._score_class(grid, rows, cols, candidates,
                                               received, plan, tokenizer,
                                               period)
                tiles = class_tiles(sq, tokenizer.patch, reach, period, a,
                                    b)
                for c, (i, j) in enumerate(zip(rows, cols)):
                    for s, token in enumerate(candidates[c]):
                        one = grid.copy()
                        one[i, j] = token
                        delta = hard_loss_sq(one, received, spec,
                                             tokenizer) - base
                        assert batch[c, s] - tiles[i // period, j // period] \
                            == pytest.approx(delta, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("spec_text", [
        "lossless", "gaussian:0.02", "quantize:16", "rescale:0.5",
        "rescale:2", "rescale:0.5,rescale:0.5",
        "gaussian:0.01,quantize:32,rescale:0.5",
    ])
    def test_windows_match_whole_image_passes(self, pipe, monkeypatch,
                                              spec_text):
        # a uniform random start scores nearly every cell, border cells
        # included, so a class scores more than one cell
        spec = parse_channel(spec_text, 11)
        tok, model = pipe.tokenizer, pipe.cfg.image_model
        _, _, img = true_setup(tok, 19)
        received = chan.apply(spec, img)
        rng = np.random.Generator(np.random.PCG64(20))
        start = rng.integers(0, tok.codebook.size, (tok.grid_h, tok.grid_w))
        sizes = []
        score_class = optimizer._score_class

        def windowed(grid, rows, *args):
            sizes.append(len(rows))
            return score_class(grid, rows, *args)

        runs = []
        for scorer in (windowed, whole_image_score_class):
            monkeypatch.setattr(optimizer, "_score_class", scorer)
            runs.append(search_tokens(start, start, received, spec, tok,
                                      model, Condition(3)))
        (found, hard_loss), (want, want_loss) = runs
        assert np.array_equal(found, want)
        assert hard_loss == want_loss
        assert max(sizes) > 1

    def test_current_token_in_the_support_is_never_taken(self, pipe,
                                                         monkeypatch):
        # a scorer that puts every repeat of a cell's current token below
        # its first score; taking one would change no token but count as a
        # change, so the search would never end
        spec = parse_channel("gaussian:0.01,quantize:32,rescale:0.5", 12)
        tok, model = pipe.tokenizer, pipe.cfg.image_model
        key = StegoKey(bytes([21]) * 32)
        condition = condition_from_key(key, model)
        true_grid = sample_sequence(model, condition, key, tok.grid_h *
                                    tok.grid_w, "image").reshape(
            tok.grid_h, tok.grid_w)
        received = chan.apply(spec, tok.decode(true_grid))
        start = tok.quantize(tok.encode(received))
        want = search_tokens(start, start, received, spec, tok, model,
                             condition)
        score_class = optimizer._score_class
        repeats = []

        def flattering(grid, rows, cols, candidates, *args):
            assert len(repeats) < 100
            losses = score_class(grid, rows, cols, candidates, *args)
            same = candidates == grid[rows, cols][:, None]
            repeat = same & (np.cumsum(same, axis=1) > 1)
            losses[repeat] -= 1.0
            repeats.append(int(repeat.sum()))
            return losses

        monkeypatch.setattr(optimizer, "_score_class", flattering)
        found, hard_loss = search_tokens(start, start, received, spec, tok,
                                         model, condition)
        assert sum(repeats) > 0
        assert np.array_equal(found, want[0]) and hard_loss == want[1]

    @pytest.mark.parametrize("seed", range(5))
    def test_composite_recovers_every_token(self, pipe, seed):
        # grids the image model emits: with a correct prefix every true
        # token is in the support the search tries
        model = pipe.cfg.image_model
        key = StegoKey(bytes([seed]) * 32)
        condition = condition_from_key(key, model)
        tok = pipe.tokenizer
        true_grid = sample_sequence(model, condition, key, tok.grid_h *
                                    tok.grid_w, "image").reshape(
            tok.grid_h, tok.grid_w)
        spec = parse_channel("gaussian:0.01,quantize:32,rescale:0.5", seed)
        received = chan.apply(spec, tok.decode(true_grid))
        start, _ = optimize_tokens(received, spec, tok, OptimConfig())
        found, hard_loss = search_tokens(tok.quantize(tok.encode(received)),
                                         start, received, spec, tok, model,
                                         condition)
        assert np.array_equal(found, true_grid)
        assert hard_loss == hard_loss_sq(found, received, spec, tok) == 0.0

    def test_loss_never_rises_and_zero_tiles_stay(self, pipe, monkeypatch):
        # uniform random tokens are mostly outside the model's support, so
        # the search stops above zero loss after changing many cells
        spec = parse_channel("gaussian:0.01,quantize:32,rescale:0.5", 8)
        tok = pipe.tokenizer
        true_grid, _, img = true_setup(tok, 16)
        received = chan.apply(spec, img)
        start = tok.quantize(tok.encode(received))
        reach = chan.compile_channel(spec, received.shape).reach
        period = optimizer._period(tok.patch, reach)
        calls = []
        score_class = optimizer._score_class

        def recorded(grid, rows, cols, *args):
            calls.append((grid.copy(), rows, cols))
            return score_class(grid, rows, cols, *args)

        monkeypatch.setattr(optimizer, "_score_class", recorded)
        condition = Condition(3)
        found, hard_loss = search_tokens(start, start, received, spec, tok,
                                         pipe.cfg.image_model, condition)
        assert len(calls) > period * period
        grids = [g for g, _, _ in calls] + [found]
        losses = [hard_loss_sq(g, received, spec, tok) for g in grids]
        assert 0 < losses[-1] < losses[0]
        assert hard_loss == pytest.approx(np.sqrt(losses[-1]), rel=1e-12)
        assert all(b <= a for a, b in zip(losses, losses[1:]))
        for (grid, rows, cols), after in zip(calls, grids[1:]):
            sq = optimizer._squared_residual(grid, received, spec, tok)
            tiles = class_tiles(sq, tok.patch, reach, period,
                                rows[0] % period, cols[0] % period)
            scored = np.zeros(tiles.shape, dtype=bool)
            scored[rows // period, cols // period] = True
            # exactly the cells with a nonzero tile are scored ...
            assert np.array_equal(scored, tiles > 0)
            # ... and only scored cells change
            changed = np.zeros(grid.shape, dtype=bool)
            changed[rows, cols] = True
            assert not np.any((after != grid) & ~changed)

    def test_true_grid_is_a_fixed_point(self, pipe, monkeypatch):
        # under the shared noise seed the true grid has zero hard loss, so
        # the search scores nothing
        spec = parse_channel("gaussian:0.01,quantize:32,rescale:0.5", 9)
        tok = pipe.tokenizer
        true_grid, _, img = true_setup(tok, 17)
        monkeypatch.setattr(optimizer, "_score_class", None)
        found, hard_loss = search_tokens(true_grid, true_grid,
                                         chan.apply(spec, img), spec, tok,
                                         pipe.cfg.image_model, Condition(3))
        assert np.array_equal(found, true_grid)
        assert hard_loss == 0.0

    def test_start_is_the_grid_with_lower_hard_loss(self, pipe, monkeypatch):
        # a zero-loss start is a fixed point, so the search scores nothing
        # and returns whichever grid it started from; token 1 is given
        # token 0's codebook vector, so swapping one for the other in a
        # cell ties the hard loss exactly
        vectors = pipe.tokenizer.codebook.vectors.copy()
        vectors[1] = vectors[0]
        tok = replace(pipe.tokenizer,
                      codebook=Codebook(vectors=vectors, min_distance=0.0))
        spec = parse_channel("gaussian:0.01,quantize:32,rescale:0.5", 10)
        true_grid, _, _ = true_setup(tok, 18)
        true_grid[0, 0] = 0
        received = chan.apply(spec, tok.decode(true_grid))
        wrong = true_grid.copy()
        wrong[5, 5] = (wrong[5, 5] + 7) % tok.codebook.size
        twin = true_grid.copy()
        twin[0, 0] = 1
        assert hard_loss_sq(wrong, received, spec, tok) > 0.0
        assert hard_loss_sq(twin, received, spec, tok) == 0.0
        monkeypatch.setattr(optimizer, "_score_class", None)

        def search(reencoded, optimized):
            return search_tokens(reencoded, optimized, received, spec, tok,
                                 pipe.cfg.image_model, Condition(3))

        for reencoded, optimized in ((wrong, true_grid), (true_grid, wrong)):
            found, hard_loss = search(reencoded, optimized)
            assert np.array_equal(found, true_grid)
            assert hard_loss == 0.0
        # a tie keeps the re-encoded grid
        for reencoded, optimized in ((true_grid, twin), (twin, true_grid)):
            found, hard_loss = search(reencoded, optimized)
            assert np.array_equal(found, reencoded)
            assert hard_loss == 0.0


GOLDEN_TRACE = [25.814919826264283, 25.244644438479042, 22.982469647855375]
