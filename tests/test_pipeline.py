import json
from dataclasses import replace

import numpy as np
import pytest

from vqstego import channel as chan
from vqstego import pipeline
from vqstego.bits import BitString, KeyedStream, StegoKey
from vqstego.config import default_config
from vqstego.errors import CapacityExceeded, MalformedInput
from vqstego.pipeline import (Pipeline, _stage2, benchmark_run, derive_key,
                              embed_message, extract_message, run_attack,
                              run_embed, run_extract, run_sweep,
                              sweep_variants, worker_count)
from vqstego.vq import Tokenizer, read_image


@pytest.fixture(scope="module")
def fast_cfg():
    # lossless channel and no correction stream: embed skips the sender-side
    # simulation entirely, keeping file-level tests quick
    cfg = default_config()
    return replace(cfg, ecc_enabled=False,
                   optim=replace(cfg.optim, steps=150))


def make_message(key, n=200):
    return KeyedStream(key.with_domain("test.message")).next_bits(n)


class TestDeriveKey:
    def test_seed_changes_key(self, cfg):
        assert derive_key(cfg, 0).seed != derive_key(cfg, 1).seed

    def test_explicit_hex_key_respected(self, cfg):
        a = replace(cfg, key_hex="ab" * 32)
        b = replace(cfg, key_hex="cd" * 32)
        assert derive_key(a).seed != derive_key(b).seed
        assert derive_key(a).seed == derive_key(a).seed

    def test_default_deterministic(self, cfg):
        assert derive_key(cfg).seed == derive_key(cfg).seed


class TestEmbedExtract:
    def test_lossless_round_trip(self, fast_cfg, key):
        pipe = Pipeline.from_config(fast_cfg)
        message = make_message(key)
        embedded = embed_message(pipe, key, message)
        assert embedded.grid.shape == (24, 24)
        assert embedded.image.shape == (96, 96, 3)
        assert embedded.embedded_bits >= len(message) + 32
        out = extract_message(pipe, key, embedded.image)
        assert out.message == message
        assert np.array_equal(out.grid_stage2, embedded.grid)

    def test_zero_bit_message(self, fast_cfg, key):
        pipe = Pipeline.from_config(fast_cfg)
        embedded = embed_message(pipe, key, BitString())
        out = extract_message(pipe, key, embedded.image)
        assert out.message == BitString()

    def test_capacity_exceeded(self, fast_cfg, key):
        pipe = Pipeline.from_config(fast_cfg)
        with pytest.raises(CapacityExceeded):
            embed_message(pipe, key, make_message(key, 50_000))

    def test_wrong_key_garbles(self, fast_cfg, key):
        pipe = Pipeline.from_config(fast_cfg)
        message = make_message(key)
        embedded = embed_message(pipe, key, message)
        other = StegoKey(bytes([9]) * 32)
        out = extract_message(pipe, other, embedded.image)
        assert out.message != message

    def test_garbled_text_falls_back_to_stage2(self, fast_cfg, key):
        pipe = Pipeline.from_config(fast_cfg)
        message = make_message(key)
        embedded = embed_message(pipe, key, message)
        junk = list(range(100))
        out = extract_message(pipe, key, embedded.image, junk)
        assert not out.ecc_applied
        assert out.ecc_error is not None
        assert np.array_equal(out.grid_stage3, out.grid_stage2)
        assert out.message == message

    def test_final_loss_is_hard_loss_of_stage2_grid(self, fast_cfg, key):
        pipe = Pipeline.from_config(fast_cfg)
        embedded = embed_message(pipe, key, make_message(key))
        rng = np.random.Generator(np.random.PCG64(0))
        received = embedded.image + 0.05 * rng.standard_normal(
            embedded.image.shape)
        out = extract_message(pipe, key, received)
        sim = chan.apply(fast_cfg.channel,
                         pipe.tokenizer.decode(out.grid_stage2))
        assert out.final_loss > 0.0
        assert out.final_loss == pytest.approx(
            float(np.linalg.norm(received - sim)), rel=1e-12)


class TestStage2:
    def test_encodes_the_received_image_once(self, fast_cfg, key,
                                             monkeypatch):
        # the solve's quantized start point is the stage-1 grid
        pipe = Pipeline.from_config(fast_cfg)
        tok = pipe.tokenizer
        embedded = embed_message(pipe, key, make_message(key))
        received = chan.apply(chan.parse_channel("gaussian:0.05", 4),
                              embedded.image)
        want = tok.quantize(tok.encode(received))
        encode, calls = Tokenizer.encode, []

        def counted(self, image):
            calls.append(image)
            return encode(self, image)

        monkeypatch.setattr(Tokenizer, "encode", counted)
        grid1, _, _, report = _stage2(pipe, pipe.condition(key), received)
        assert len(calls) == 1
        assert np.array_equal(grid1, want)
        assert report.start is grid1


class TestBenchmarkRun:
    def test_lossless_exact(self, fast_cfg):
        m = benchmark_run(fast_cfg, seed=0, message_bits=300)
        assert m.recovered_exact
        assert m.r_q_stage1 == m.r_q_stage2 == m.r_q_stage3 == 100.0
        assert m.cap == 300
        assert m.error is None

    def test_noisy_stage_monotone(self):
        cfg = default_config()
        cfg.channel = chan.parse_channel("gaussian:0.02", 0)
        m = benchmark_run(cfg, seed=1, message_bits=300)
        assert m.r_q_stage1 <= m.r_q_stage2 <= m.r_q_stage3
        assert m.text_payload_bits is not None
        assert m.text_payload_bits <= m.text_capacity_bits
        assert m.recovered_exact

    @pytest.mark.parametrize("seed", range(3))
    def test_quantize16_final_loss_zero(self, seed):
        # stage 2 recovers every token, so the hard loss it reports is 0
        cfg = replace(default_config(),
                      channel=chan.parse_channel("quantize:16", 0))
        m = benchmark_run(cfg, seed=seed)
        assert m.r_q_stage2 == 100.0
        assert m.final_loss == 0.0

    def test_opt_stop_is_the_receiver_solve_stop(self, monkeypatch):
        cfg = replace(default_config(), channel=chan.parse_channel(
            "gaussian:0.01,quantize:32,rescale:0.5", 0))
        reports = []
        solve = pipeline.optimize_tokens

        def recorded(*args):
            grid, report = solve(*args)
            reports.append(report)
            return grid, report

        monkeypatch.setattr(pipeline, "optimize_tokens", recorded)
        m = benchmark_run(cfg, seed=2)
        # the sender's simulation solves first, then the receiver
        assert len(reports) == 2
        assert m.opt_steps == reports[-1].steps_run
        assert m.opt_stop == reports[-1].stop == "settled"

    def test_deterministic(self, fast_cfg):
        a = benchmark_run(fast_cfg, seed=3, message_bits=100)
        b = benchmark_run(fast_cfg, seed=3, message_bits=100)
        assert a == b


class TestFileRuns:
    def test_embed_extract_files(self, fast_cfg, tmp_path):
        key = derive_key(fast_cfg)
        message = make_message(key, 150)
        out = tmp_path / "run"
        manifest = run_embed(fast_cfg, message, out)
        assert (out / "stego.vqi").exists()
        assert (out / "stego.ppm").exists()
        assert (out / "manifest.json").exists()
        assert manifest["message_bits"] == 150
        got, info = run_extract(fast_cfg, out / "stego.vqi",
                                truth_path=out / "truth.json")
        assert got == message
        assert info["recovered_exact"]
        assert info["r_q_stage2"] == 100.0
        # the .vqi file holds the decoded pixels exactly
        assert info["final_loss"] == 0.0
        assert info["cap"] == 150

    def test_embed_writes_text_when_ecc_enabled(self, tmp_path):
        cfg = default_config()
        key = derive_key(cfg)
        out = tmp_path / "run"
        manifest = run_embed(cfg, make_message(key, 100), out)
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json", "stego.ppm", "stego.vqi", "stego_text.txt",
            "truth.json"]
        assert manifest["text_payload_bits"] >= 32  # at least the frame header
        got, info = run_extract(cfg, out / "stego.vqi",
                                text_path=out / "stego_text.txt",
                                truth_path=out / "truth.json")
        assert info["ecc_applied"]
        assert info["recovered_exact"]

    def test_embed_byte_identical(self, fast_cfg, tmp_path):
        key = derive_key(fast_cfg)
        message = make_message(key, 100)
        run_embed(fast_cfg, message, tmp_path / "a")
        run_embed(fast_cfg, message, tmp_path / "b")
        for name in ("stego.vqi", "stego.ppm", "manifest.json", "truth.json"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_attack_lossless_identity(self, fast_cfg, tmp_path):
        key = derive_key(fast_cfg)
        run_embed(fast_cfg, make_message(key, 50), tmp_path)
        info = run_attack(fast_cfg, tmp_path / "stego.vqi",
                          tmp_path / "attacked.vqi")
        assert info["l2_distortion"] == 0.0
        assert (tmp_path / "attacked.vqi").read_bytes() == \
            (tmp_path / "stego.vqi").read_bytes()

    @pytest.mark.parametrize("spec_text, seed", [
        ("gaussian:0.01,quantize:32,rescale:0.5", 0),
        ("gaussian:0.01,quantize:32,rescale:0.5", 1),
        ("rescale:0.5", 0),
        ("rescale:0.5", 1),
    ])
    def test_files_run_the_in_memory_receiver(self, tmp_path, monkeypatch,
                                              spec_text, seed):
        # embed -> attack -> extract through .vqi files hands the receiver
        # the pixels `chan.apply` computes, and it runs the same solve
        cfg = replace(default_config(),
                      channel=chan.parse_channel(spec_text, seed))
        key = derive_key(cfg, seed)
        message = make_message(key, 200)
        pipe = Pipeline.from_config(cfg)
        embedded = embed_message(pipe, key, message)
        received = chan.apply(cfg.channel, embedded.image)
        want = extract_message(pipe, key, received, embedded.text.tokens)

        run_embed(cfg, message, tmp_path, key)
        run_attack(cfg, tmp_path / "stego.vqi", tmp_path / "attacked.vqi")
        assert np.array_equal(read_image(tmp_path / "attacked.vqi"),
                              received)
        seen = []
        monkeypatch.setattr(pipeline, "extract_message",
                            lambda *a: seen.append(extract_message(*a))
                            or seen[-1])
        got_message, info = run_extract(cfg, tmp_path / "attacked.vqi",
                                        tmp_path / "stego_text.txt", key)
        got, = seen
        for stage in ("grid_stage1", "grid_stage2", "grid_stage3"):
            assert np.array_equal(getattr(got, stage), getattr(want, stage))
        assert got.opt_report.steps_run == want.opt_report.steps_run
        assert got.opt_report.stop == want.opt_report.stop == info["opt_stop"]
        assert got_message == want.message == message
        assert info["final_loss"] == want.final_loss == 0.0


class TestSweep:
    def test_variant_expansion(self, cfg):
        variants = sweep_variants(cfg, channels=["lossless", "gaussian:0.01"],
                                  max_tokens=[50, 100])
        assert len(variants) == 4
        assert variants[2][0] == "max_tokens=50"
        assert variants[2][1].max_tokens == 50

    def test_no_variants_means_configured_channel(self, cfg):
        variants = sweep_variants(cfg)
        assert len(variants) == 1
        assert variants[0][1] == cfg

    def test_single_lossless_row(self, fast_cfg):
        result = run_sweep(fast_cfg, channels=["lossless"], n_seeds=1,
                           message_bits=100)
        (row,) = result["rows"]
        assert row["error"] is None
        assert row["r_q_stage1"] == row["r_q_stage3"] == 100.0
        (agg,) = result["aggregates"]
        assert agg["n"] == 1 and agg["failed"] == 0
        assert agg["r_q_stage2_mean"] == 100.0
        assert "variant" in result["table"].splitlines()[0]
        # the lossless start is exact, so L-BFGS-B returns on its own
        assert row["opt_stop"] == "scipy"
        assert agg["opt_stop"] == "scipy:1"
        assert "opt_stop" in result["table"].splitlines()[0]

    def test_stop_reasons_counted_per_variant(self, fast_cfg):
        result = run_sweep(fast_cfg, channels=["gaussian:0.02"], n_seeds=2,
                           message_bits=100)
        stops = [row["opt_stop"] for row in result["rows"]]
        assert set(stops) <= {"settled", "cap", "scipy"}
        (agg,) = result["aggregates"]
        assert agg["opt_stop"] == ",".join(
            f"{stop}:{stops.count(stop)}" for stop in sorted(set(stops)))

    def test_parallel_rows_match_serial(self, fast_cfg, monkeypatch):
        # two workers even on a one-CPU machine, so the pool path runs
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        serial = run_sweep(fast_cfg, n_seeds=2, jobs=1, message_bits=100)
        parallel = run_sweep(fast_cfg, n_seeds=2, jobs=2, message_bits=100)
        assert len(parallel["rows"]) == 2
        assert parallel["rows"] == serial["rows"]

    def test_failed_row_reported(self, fast_cfg):
        # an impossible message size fails the row without killing the sweep
        result = run_sweep(fast_cfg, channels=["lossless"], n_seeds=1,
                           message_bits=50_000)
        (row,) = result["rows"]
        assert row["error"] is not None
        assert "CapacityExceeded" in row["error"]
        assert row["opt_stop"] is None
        assert result["aggregates"][0]["failed"] == 1
        assert result["aggregates"][0]["opt_stop"] == ""

    def test_worker_count_clamped(self):
        assert worker_count(1, 10, 8) == 1
        assert worker_count(4, 10, 8) == 4
        assert worker_count(10**6, 3, 8) == 3
        assert worker_count(10**6, 100, 2) == 2
        assert worker_count(4, 10, None) == 1
        assert worker_count(4, 0, 8) == 0

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, fast_cfg, jobs):
        with pytest.raises(MalformedInput):
            worker_count(jobs, 10, 8)
        with pytest.raises(MalformedInput):
            run_sweep(fast_cfg, n_seeds=1, jobs=jobs)
