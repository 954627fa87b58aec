"""Acceptance gate: one test per top-level criterion.

Each test prints a single [PASS]/[FAIL] line outside pytest capture so the
verdicts are visible in the test log. The per-module
suites cover the fine-grained behavior; these tests pin the end-to-end
guarantees at their stated tolerances and runtime budgets.
"""

import hashlib
import sys
import time
from dataclasses import replace

import numpy as np

from vqstego import channel as chan
from vqstego.bits import KeyedStream, StegoKey, frame_message, unframe_message
from vqstego.codec import embed_sequence, extract_sequence, sample_sequence
from vqstego.config import default_config
from vqstego.ecc import (EccParams, capacity_tau, ecc_decode, ecc_encode,
                         position_cost_stats, rank_comparison)
from vqstego.pipeline import (FRAME_IMAGE_DOMAIN, IMAGE_DOMAIN, Pipeline,
                              benchmark_run, derive_key, run_embed)
from vqstego.security import run_security_test
from vqstego.optimizer import loss, loss_and_gradient
from vqstego.text_channel import text_capacity
from vqstego.token_model import condition_from_key, next_distribution


def _report(capfd, num: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"[{verdict}] criterion {num}: {name}"
    if detail:
        line += f" ({detail})"
    # bypass pytest's fd-level capture so every verdict reaches the log
    with capfd.disabled():
        print(line, file=sys.stderr, flush=True)
    assert ok, line


def _key(tag: str, i: int) -> StegoKey:
    return StegoKey(hashlib.blake2b(f"accept.{tag}.{i}".encode(),
                                    digest_size=32).digest())


def _corrupt_near(grid, positions, book, rng):
    """Replace each listed token with one of its 3 nearest codebook entries."""
    out = grid.copy()
    for pos in positions:
        d = np.linalg.norm(book.vectors - book.vectors[out[pos]], axis=1)
        out[pos] = int(rng.choice(np.argsort(d)[1:4]))
    return out


def test_criterion_1_lossless_round_trip(capfd, cfg, tokenizer):
    start = time.monotonic()
    failures = 0
    for i in range(100):
        key = _key("round", i)
        rng = np.random.Generator(np.random.PCG64(i))
        n_bits = int(rng.integers(0, 1001))
        message = KeyedStream(key.with_domain("msg")).next_bits(n_bits)
        condition = condition_from_key(key, cfg.image_model)
        framed = frame_message(
            message, KeyedStream(key.with_domain(FRAME_IMAGE_DOMAIN)))
        tokens, consumed, _ = embed_sequence(cfg.image_model, condition,
                                             framed, key, cfg.n_tokens,
                                             IMAGE_DOMAIN)
        assert consumed >= len(framed)
        grid = tokens.reshape(cfg.grid_h, cfg.grid_w)
        image = tokenizer.decode(grid)
        requantized = tokenizer.quantize(tokenizer.encode(image))
        extracted = extract_sequence(cfg.image_model, condition,
                                     requantized.ravel(), key, IMAGE_DOMAIN)
        got = unframe_message(
            extracted, KeyedStream(key.with_domain(FRAME_IMAGE_DOMAIN)))
        failures += got != message
    elapsed = time.monotonic() - start
    _report(capfd, 1, "lossless round trip", failures == 0 and elapsed < 60.0,
            f"100 runs, {failures} failures, {elapsed:.1f}s < 60s")


def test_criterion_2_distribution_preservation(capfd, cfg):
    stego = run_security_test(cfg, 5000, "stego")
    biased = run_security_test(cfg, 5000, "biased")
    ok = (stego.pooled_p > 0.001 and stego.ks_p > 0.01
          and biased.combined_p < 1e-6)
    _report(capfd, 2, "distribution preservation", ok,
            f"stego pooled_p={stego.pooled_p:.3g} ks_p={stego.ks_p:.3g}, "
            f"biased combined_p={biased.combined_p:.3g}")


def test_criterion_3_gradient_correctness(capfd, tokenizer):
    specs = ["gaussian:0.02", "gaussian:0.01,rescale:0.5", "rescale:2",
             "gaussian:0.005", "lossless"]
    h = 1e-4
    worst = 0.0
    for seed, spec_text in enumerate(specs, start=1):
        spec = chan.parse_channel(spec_text, seed)
        rng = np.random.Generator(np.random.PCG64(seed))
        grid = rng.integers(0, 256, (24, 24))
        received = chan.apply(spec, tokenizer.decode(grid))
        z = tokenizer.codebook.vectors[grid] \
            + 0.3 * rng.standard_normal((24, 24, 8))
        _, g = loss_and_gradient(z, received, spec, tokenizer)
        for _ in range(50):
            i, j, c = (int(rng.integers(0, s)) for s in z.shape)
            up, down = z.copy(), z.copy()
            up[i, j, c] += h
            down[i, j, c] -= h
            fd = (loss(up, received, spec, tokenizer)
                  - loss(down, received, spec, tokenizer)) / (2 * h)
            worst = max(worst, abs(fd - g[i, j, c]) / max(abs(fd), 1e-8))
    _report(capfd, 3, "gradient correctness", worst < 1e-5,
            f"max relative error {worst:.3g} < 1e-5 over 250 coordinates")


def test_criterion_4_stage_monotonicity(capfd, cfg):
    settings = ["gaussian:0.005", "gaussian:0.01", "gaussian:0.02",
                "quantize:64", "quantize:32", "quantize:16",
                "rescale:0.5", "rescale:2"]
    start = time.monotonic()
    violations = []
    gains = {}
    for spec_text in settings:
        vcfg = replace(cfg, channel=chan.parse_channel(spec_text, 0))
        r1, r3 = [], []
        for seed in range(20):
            m = benchmark_run(vcfg, seed, message_bits=500)
            if not (m.r_q_stage1 <= m.r_q_stage2 <= m.r_q_stage3):
                violations.append((spec_text, seed))
            r1.append(m.r_q_stage1)
            r3.append(m.r_q_stage3)
        gains[spec_text] = float(np.mean(r3) - np.mean(r1))
    elapsed = time.monotonic() - start
    ok = (not violations and all(g > 0 for g in gains.values())
          and elapsed < 900.0)
    worst = min(gains, key=gains.get)
    _report(capfd, 4, "stage monotonicity", ok,
            f"160 runs, {len(violations)} ordering violations, smallest mean "
            f"gain {gains[worst]:.2f} ({worst}), {elapsed:.0f}s < 900s")


def test_criterion_5_correction_capacity_formula(capfd, cfg, pipe):
    params = pipe.ecc_params
    tau_formula, tau_layout = capacity_tau(params, 628)
    key = _key("tau", 0)
    condition = condition_from_key(key, cfg.image_model)
    true = sample_sequence(cfg.image_model, condition, key, cfg.n_tokens,
                           IMAGE_DOMAIN)
    rng = np.random.Generator(np.random.PCG64(5))
    positions = [10 + 7 * i for i in range(45)]  # spaced well under 2^8
    received = _corrupt_near(true, positions, pipe.tokenizer.codebook, rng)
    enc = ecc_encode(true, received, cfg.image_model, condition,
                     pipe.tokenizer.codebook, params, budget_bits=628)
    fixed = ecc_decode(enc.bits, received, cfg.image_model, condition,
                       pipe.tokenizer.codebook, params)
    corrected_ok = all(fixed[p] == true[p]
                       for p in enc.record_list.positions)
    ok = (tau_formula == 40 and tau_layout == 39
          and enc.corrected_count == 39 and len(enc.bits) <= 628
          and corrected_ok)
    _report(capfd, 5, "correction capacity formula", ok,
            f"tau_formula={tau_formula} tau_layout={tau_layout}, enumeration "
            f"corrected {enc.corrected_count} in {len(enc.bits)} bits")


def test_criterion_6_ecc_symmetry_and_compression(capfd, cfg, pipe):
    book = pipe.tokenizer.codebook
    params = pipe.ecc_params
    mismatches = 0
    rel_means, abs_means = [], []
    prox_ranks, prob_ranks = [], []
    for i in range(200):
        key = _key("ecc", i)
        condition = condition_from_key(key, cfg.image_model)
        true = sample_sequence(cfg.image_model, condition, key, cfg.n_tokens,
                               IMAGE_DOMAIN)
        rng = np.random.Generator(np.random.PCG64(1000 + i))
        # clustered workload: a burst of nearby errors at a random offset
        start = int(rng.integers(0, 400))
        gaps = rng.integers(1, 30, int(rng.integers(1, 8)))
        positions = [int(p) for p in np.unique(start + np.cumsum(gaps))
                     if p < cfg.n_tokens]
        received = _corrupt_near(true, positions, book, rng)
        enc = ecc_encode(true, received, cfg.image_model, condition, book,
                         params, budget_bits=10_000)
        fixed = ecc_decode(enc.bits, received, cfg.image_model, condition,
                           book, params)
        for p in enc.record_list.positions:
            mismatches += fixed[p] != true[p]
        untouched = np.ones(cfg.n_tokens, dtype=bool)
        untouched[enc.record_list.positions] = False
        mismatches += int(np.sum(fixed[untouched] != received[untouched]))
        if len(enc.record_list.positions) >= 2:
            stats = position_cost_stats(enc.record_list.positions, params)
            rel_means.append(stats["relative_bits"]["mean"])
            abs_means.append(stats["absolute_bits"]["mean"])
        pos = positions[0]
        prox, prob = rank_comparison(pos, int(received[pos]), int(true[pos]),
                                     true[:pos].tolist(), cfg.image_model,
                                     condition, book)
        prox_ranks.append(prox)
        prob_ranks.append(prob)
    rel, absolute = float(np.mean(rel_means)), float(np.mean(abs_means))
    prox_mean, prob_mean = float(np.mean(prox_ranks)), float(np.mean(prob_ranks))
    ok = (mismatches == 0 and rel <= absolute and prox_mean <= prob_mean)
    _report(capfd, 6, "correction symmetry and compression", ok,
            f"200 scenarios, {mismatches} mismatches; relative {rel:.1f} <= "
            f"absolute {absolute:.1f} bits; proximity rank {prox_mean:.2f} <= "
            f"probability rank {prob_mean:.2f}")


def test_criterion_7_text_payload_trend(capfd, cfg, tokenizer):
    violations = 0
    for seed in range(20):
        key = _key("text", seed)
        rng = np.random.Generator(np.random.PCG64(seed))
        image = tokenizer.decode(rng.integers(0, 256, (24, 24)))
        caps = [text_capacity(image, key, cfg.text_model, n)
                for n in (50, 100, 200)]
        violations += not (caps[0] <= caps[1] <= caps[2])
    _report(capfd, 7, "text payload trend", violations == 0,
            f"20 seeds x max_tokens (50, 100, 200), {violations} violations")


def test_criterion_8_determinism(capfd, tmp_path):
    cfg = default_config()
    cfg.channel = chan.parse_channel("gaussian:0.01", 3)
    key = derive_key(cfg)
    message = KeyedStream(key.with_domain("determinism")).next_bits(300)
    run_embed(cfg, message, tmp_path / "a", key)
    run_embed(cfg, message, tmp_path / "b", key)
    files = ["stego.vqi", "stego.ppm", "stego_text.txt", "manifest.json",
             "truth.json"]
    identical = [name for name in files
                 if (tmp_path / "a" / name).read_bytes()
                 == (tmp_path / "b" / name).read_bytes()]
    metrics_equal = benchmark_run(cfg, 4) == benchmark_run(cfg, 4)
    ok = len(identical) == len(files) and metrics_equal
    _report(capfd, 8, "determinism", ok,
            f"{len(identical)}/{len(files)} artifacts byte-identical, "
            f"metrics equal: {metrics_equal}")
