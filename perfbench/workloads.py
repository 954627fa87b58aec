"""The closed-loop workloads, their inputs and their correctness checks.

Every input is derived from (workload, seed, operation index), so the same
seed gives the same keys and messages. The program under test sees only
those keys, messages and configs, through vqstego's public functions. Calls
go through module attributes (``pipeline.embed_message``, not a name bound
here) so that the tracer's wrappers see them.

Workload notes (why each exists and what it stresses) are in NOTES.md.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from vqstego import channel, config, pipeline, security
from vqstego.bits import BitString, StegoKey

NOISY_CHANNEL = "gaussian:0.01,quantize:32,rescale:0.5"
NOISY_MESSAGE_BITS = 500
SECURITY_SAMPLES = 1000
# criterion 2's thresholds
STEGO_POOLED_P_MIN = 1e-3
BIASED_COMBINED_P_MAX = 1e-6
# Per-operation quality values; the traced run reports their mean.
QUALITY_UNITS = {"quality.r_q_stage2_pct": "%", "quality.r_q_stage3_pct": "%",
                 "quality.cap_bits_mean": "bits",
                 "quality.exact_recovery_share": "ratio",
                 "security.stego_ks_p": "p"}


def _digest(*parts) -> bytes:
    text = "/".join(str(p) for p in parts)
    return hashlib.blake2b(text.encode(), digest_size=32).digest()


def make_key(workload: str, seed: int, index: int) -> StegoKey:
    return StegoKey(_digest("perfbench.key", workload, seed, index))


def make_message(workload: str, seed: int, index: int,
                 n_bits: int) -> BitString:
    rng = np.random.default_rng(
        np.frombuffer(_digest("perfbench.msg", workload, seed, index),
                      dtype=np.uint32))
    return BitString(int(b) for b in rng.integers(0, 2, n_bits))


def make_int(workload: str, seed: int, index: int, bound: int) -> int:
    return int.from_bytes(_digest("perfbench.int", workload, seed, index)[:8],
                          "big") % bound


@dataclass
class OpResult:
    """One closed-loop operation: timings, comparable output and checks."""

    wall_s: float
    messages: int
    phases: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)
    output: object = None
    failures: list = field(default_factory=list)


class NoisyRoundtrip:
    """embed_message -> channel.apply -> extract_message -> score_run."""

    name = "noisy-roundtrip"
    min_ops = 2

    def __init__(self, seed: int):
        self.seed = seed
        self.base = config.default_config()

    def op(self, index: int) -> OpResult:
        noise_seed = make_int(self.name, self.seed, index, 2**31)
        cfg = replace(self.base,
                      channel=channel.parse_channel(NOISY_CHANNEL, noise_seed))
        key = make_key(self.name, self.seed, index)
        message = make_message(self.name, self.seed, index,
                               NOISY_MESSAGE_BITS)
        t0 = perf_counter()
        pipe = pipeline.Pipeline.from_config(cfg)
        embedded = pipeline.embed_message(pipe, key, message)
        t1 = perf_counter()
        received = channel.apply(cfg.channel, embedded.image)
        t2 = perf_counter()
        extracted = pipeline.extract_message(pipe, key, received,
                                             embedded.text.tokens)
        t3 = perf_counter()
        metrics = pipeline.score_run(pipe, key, embedded, extracted, message,
                                     self.seed)
        t4 = perf_counter()
        result = OpResult(wall_s=t4 - t0, messages=1,
                          phases={"embed_s": t1 - t0, "extract_s": t3 - t2},
                          output=metrics.to_dict())
        result.quality = _quality(metrics.r_q_stage2, metrics.r_q_stage3,
                                  metrics.cap, metrics.recovered_exact)
        _check_scored(result, metrics.to_dict(), len(message),
                      extracted.message == message)
        return result


class SecurityBattery:
    """run_security_test for the stego, then the biased variant."""

    name = "security-battery"
    min_ops = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.base = config.default_config()

    def op(self, index: int) -> OpResult:
        cfg = replace(self.base,
                      seed=make_int(self.name, self.seed, index, 2**62))
        t0 = perf_counter()
        stego = security.run_security_test(cfg, SECURITY_SAMPLES, "stego")
        biased = security.run_security_test(cfg, SECURITY_SAMPLES, "biased")
        t1 = perf_counter()
        # each candidate sequence of either variant carries one message
        result = OpResult(wall_s=t1 - t0, messages=2 * SECURITY_SAMPLES,
                          output=[stego.to_dict(), biased.to_dict()])
        # ks_p is informational: per-position chi-square p-values are not
        # uniform at small counts, so it fails for a correct embedder
        result.quality = {"security.stego_ks_p": stego.ks_p}
        if not stego.pooled_p > STEGO_POOLED_P_MIN:
            result.failures.append(
                f"stego pooled_p {stego.pooled_p:.3g} <= {STEGO_POOLED_P_MIN}")
        if not biased.combined_p < BIASED_COMBINED_P_MAX:
            result.failures.append(
                f"biased combined_p {biased.combined_p:.3g} >= "
                f"{BIASED_COMBINED_P_MAX}")
        return result


def _quality(r_q2: float, r_q3: float, cap: int, exact: bool) -> dict:
    return {"quality.r_q_stage2_pct": r_q2, "quality.r_q_stage3_pct": r_q3,
            "quality.cap_bits_mean": cap,
            "quality.exact_recovery_share": float(exact)}


def _check_scored(result: OpResult, scored: dict, message_bits: int,
                  exact: bool) -> None:
    """The score must describe this message and agree with a direct compare."""
    if scored["message_bits"] != message_bits:
        result.failures.append("score describes another message")
    if bool(scored["recovered_exact"]) != exact:
        result.failures.append("recovered_exact disagrees with the message")
    if not exact:
        result.failures.append("message not recovered exactly")
    for stage in ("r_q_stage1", "r_q_stage2", "r_q_stage3"):
        if not 0.0 <= scored[stage] <= 100.0:
            result.failures.append(f"{stage} outside [0, 100]")
    if exact and scored["cap"] != message_bits:
        result.failures.append("exact recovery with a short correct prefix")


WORKLOADS = {w.name: w for w in (NoisyRoundtrip, SecurityBattery)}
