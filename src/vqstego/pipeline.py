"""End-to-end pipeline orchestration, run metrics, and experiment sweeps.

A run embeds a framed message into an image-token stream, synthesizes the
image, pushes it through the channel, recovers tokens in three stages
(re-encode; optimize and search; error-correct from the companion text
stream) and extracts the message. Stages 1 and 2 are one helper, `_stage2`,
which the sender's simulation and the receiver both call: it re-encodes
once, runs the L-BFGS solve, and hands both grids to the discrete search,
whose hard loss is the run's `final_loss`. The simulation shares the
receiver's noise seed, so the sender's recovered grid — and therefore the
correction stream it writes — matches what the receiver will compute.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import channel as chan
from .bits import (HEADER_BITS, BitString, KeyedStream, StegoKey,
                   frame_message, unframe_lenient, unframe_message)
from .codec import embed_sequence, extract_sequence
from .config import PipelineConfig
from .ecc import EccEncodeResult, EccParams, ecc_decode, ecc_encode, position_cost_stats
from .errors import (BudgetExceeded, CapacityExceeded, MalformedEcc,
                     MalformedInput, TruncatedFrame)
from .optimizer import OptimReport, optimize_tokens, search_tokens
from .text_channel import StegoText, embed_ecc, extract_ecc, render_words
from .token_model import Condition, condition_from_key
from .vq import (Tokenizer, build_codebook, build_tokenizer, export_ppm,
                 read_image, write_image)

IMAGE_DOMAIN = "image"
FRAME_IMAGE_DOMAIN = "frame.image"
FRAME_TEXT_DOMAIN = "frame.text"
_KEY_PERSON = b"stego-key-derive"


def derive_key(cfg: PipelineConfig, seed: int | None = None) -> StegoKey:
    """Run key: explicit hex key if configured, else derived from the seed."""
    if cfg.key_hex:
        base = StegoKey.from_hex(cfg.key_hex).seed
    else:
        base = hashlib.blake2b(b"base", digest_size=32,
                               person=_KEY_PERSON).digest()
    s = cfg.seed if seed is None else seed
    mixed = hashlib.blake2b(base + s.to_bytes(8, "big", signed=True),
                            digest_size=32, person=_KEY_PERSON).digest()
    return StegoKey(mixed)


@dataclass(frozen=True)
class Pipeline:
    """Config plus the deterministic artifacts built from it."""

    cfg: PipelineConfig
    tokenizer: Tokenizer
    ecc_params: EccParams

    @classmethod
    def from_config(cls, cfg: PipelineConfig) -> "Pipeline":
        book = build_codebook(cfg.codebook_seed, cfg.image_model.vocab_size,
                              cfg.vec_dim)
        tok = build_tokenizer(cfg.decoder_seed, book, cfg.patch, cfg.grid_h,
                              cfg.grid_w, cfg.alpha, cfg.weight_scale,
                              cfg.bias_scale)
        params = EccParams.for_grid(cfg.n_tokens, cfg.lambda1, cfg.lambda2)
        return cls(cfg=cfg, tokenizer=tok, ecc_params=params)

    def condition(self, key: StegoKey) -> Condition:
        return condition_from_key(key, self.cfg.image_model)


@dataclass
class EmbedResult:
    grid: np.ndarray
    image: np.ndarray
    embedded_bits: int
    message_bits: int
    condition_id: int
    text: StegoText | None = None
    ecc: EccEncodeResult | None = None


def embed_message(pipe: Pipeline, key: StegoKey,
                  message: BitString) -> EmbedResult:
    """Frame and embed the message; optionally attach the correction text."""
    cfg = pipe.cfg
    condition = pipe.condition(key)
    framed = frame_message(message,
                           KeyedStream(key.with_domain(FRAME_IMAGE_DOMAIN)))
    tokens, consumed, _ = embed_sequence(cfg.image_model, condition, framed,
                                         key, cfg.n_tokens, IMAGE_DOMAIN)
    if consumed < len(framed):
        raise CapacityExceeded(
            f"framed message of {len(framed)} bits exceeds the realized "
            f"image capacity of {consumed} bits")
    grid = tokens.reshape(cfg.grid_h, cfg.grid_w)
    image = pipe.tokenizer.decode(grid)
    result = EmbedResult(grid=grid, image=image, embedded_bits=consumed,
                         message_bits=len(message),
                         condition_id=condition.id)
    if cfg.ecc_enabled:
        _attach_correction_text(pipe, key, condition, result)
    return result


def _attach_correction_text(pipe: Pipeline, key: StegoKey,
                            condition: Condition,
                            result: EmbedResult) -> None:
    """Sender-side simulation: recover tokens, encode corrections, embed them.

    The correction payload is sized by retrying against the realized text
    capacity, which depends on the payload itself (different tokens, different
    per-step capacities); each retry shrinks the budget strictly.
    """
    cfg = pipe.cfg
    received_sim = chan.apply(cfg.channel, result.image)
    _, sim_grid, _, _ = _stage2(pipe, condition, received_sim)
    record = pipe.ecc_params.record_bits(first=False)
    budget = cfg.max_tokens * 8
    while True:
        enc = ecc_encode(result.grid, sim_grid, cfg.image_model, condition,
                         pipe.tokenizer.codebook, pipe.ecc_params, budget)
        framed = frame_message(
            enc.bits, KeyedStream(key.with_domain(FRAME_TEXT_DOMAIN)))
        try:
            text = embed_ecc(framed, received_sim, key, cfg.text_model,
                             cfg.max_tokens)
        except BudgetExceeded as exc:
            if budget == 0:
                raise
            realized = exc.realized_bits or 0
            budget = max(0, min(realized - HEADER_BITS, budget - record))
            continue
        result.text = text
        result.ecc = enc
        return


def _stage2(pipe: Pipeline, condition: Condition, received: np.ndarray,
            ) -> tuple[np.ndarray, np.ndarray, float, OptimReport]:
    """Stage 1 (re-encode), then stage 2: the L-BFGS solve and the discrete
    search, which starts from the better of the two grids. Returns both
    stages' grids, the hard channel loss of the stage-2 grid and the
    solve's report."""
    cfg, tok = pipe.cfg, pipe.tokenizer
    # Stage 1 comes before the solve on purpose: freeing quantize's large
    # temporary raises glibc's malloc thresholds, so the solve's per-
    # evaluation arrays reuse heap pages instead of faulting fresh ones.
    grid1 = tok.quantize(tok.encode(received))
    grid, report = optimize_tokens(received, cfg.channel, tok, cfg.optim)
    grid2, hard_loss = search_tokens(grid1, grid, received, cfg.channel, tok,
                                     cfg.image_model, condition)
    return grid1, grid2, hard_loss, report


@dataclass
class ExtractResult:
    grid_stage1: np.ndarray
    grid_stage2: np.ndarray
    grid_stage3: np.ndarray
    message: BitString
    framed_bits: BitString
    final_loss: float       # hard channel loss of grid_stage2
    opt_report: OptimReport
    ecc_applied: bool
    ecc_error: str | None = None


def extract_message(pipe: Pipeline, key: StegoKey, received: np.ndarray,
                    text_tokens=None) -> ExtractResult:
    """Three-stage receiver: re-encode, optimize and search, apply text
    corrections."""
    cfg = pipe.cfg
    condition = pipe.condition(key)
    grid1, grid2, final_loss, report = _stage2(pipe, condition, received)
    grid3 = grid2
    ecc_applied = False
    ecc_error = None
    if text_tokens is not None:
        try:
            framed_ecc = extract_ecc(text_tokens, received, key,
                                     cfg.text_model)
            ecc_bits = unframe_message(
                framed_ecc, KeyedStream(key.with_domain(FRAME_TEXT_DOMAIN)))
            grid3 = ecc_decode(ecc_bits, grid2, cfg.image_model, condition,
                               pipe.tokenizer.codebook, pipe.ecc_params)
            ecc_applied = True
        except (MalformedEcc, TruncatedFrame) as exc:
            ecc_error = f"{type(exc).__name__}: {exc}"
    framed = extract_sequence(cfg.image_model, condition, grid3.ravel(), key,
                              IMAGE_DOMAIN)
    try:
        message = unframe_message(
            framed, KeyedStream(key.with_domain(FRAME_IMAGE_DOMAIN)))
    except TruncatedFrame:
        message = unframe_lenient(
            framed, KeyedStream(key.with_domain(FRAME_IMAGE_DOMAIN)),
            max(0, len(framed) - HEADER_BITS))
    return ExtractResult(grid_stage1=grid1, grid_stage2=grid2,
                         grid_stage3=grid3, message=message,
                         framed_bits=framed, final_loss=final_loss,
                         opt_report=report,
                         ecc_applied=ecc_applied, ecc_error=ecc_error)


@dataclass
class RunMetrics:
    channel: str
    seed: int
    message_bits: int
    embedded_bits: int
    r_q_stage1: float
    r_q_stage2: float
    r_q_stage3: float
    cap: int
    recovered_exact: bool
    final_loss: float
    opt_steps: int
    text_payload_bits: int | None = None
    text_capacity_bits: int | None = None
    ecc_corrected: int | None = None
    ecc_bits: int | None = None
    ecc_position_stats: dict | None = None
    max_tokens: int | None = None
    error: str | None = None

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def _recovery(extracted: ExtractResult, key: StegoKey,
              true_message: BitString, true_grid: np.ndarray) -> dict:
    """Per-stage token recovery (% of cells), the correct-prefix length of
    the extracted message (`cap`) and exact recovery, against the truth."""
    scores: dict = {
        f"r_q_stage{i}": 100.0 * float(np.mean(grid == true_grid))
        for i, grid in enumerate((extracted.grid_stage1,
                                  extracted.grid_stage2,
                                  extracted.grid_stage3), start=1)}
    lenient = unframe_lenient(
        extracted.framed_bits,
        KeyedStream(key.with_domain(FRAME_IMAGE_DOMAIN)), len(true_message))
    cap = 0
    for got, want in zip(lenient, true_message):
        if got != want:
            break
        cap += 1
    scores["cap"] = cap
    scores["recovered_exact"] = extracted.message == true_message
    return scores


def score_run(pipe: Pipeline, key: StegoKey, embedded: EmbedResult,
              extracted: ExtractResult, true_message: BitString,
              seed: int) -> RunMetrics:
    ecc_stats = None
    if embedded.ecc is not None:
        ecc_stats = position_cost_stats(embedded.ecc.record_list.positions,
                                        pipe.ecc_params)
    return RunMetrics(
        channel=str(pipe.cfg.channel),
        seed=seed,
        message_bits=len(true_message),
        embedded_bits=embedded.embedded_bits,
        **_recovery(extracted, key, true_message, embedded.grid),
        final_loss=extracted.final_loss,
        opt_steps=extracted.opt_report.steps_run,
        text_payload_bits=(embedded.text.payload_bits
                           if embedded.text else None),
        text_capacity_bits=(embedded.text.capacity_bits
                            if embedded.text else None),
        ecc_corrected=(embedded.ecc.corrected_count
                       if embedded.ecc else None),
        ecc_bits=len(embedded.ecc.bits) if embedded.ecc else None,
        ecc_position_stats=ecc_stats,
        max_tokens=pipe.cfg.max_tokens,
    )


def benchmark_run(cfg: PipelineConfig, seed: int,
                  message_bits: int = 500) -> RunMetrics:
    """One deterministic end-to-end run with a seed-derived key and message."""
    cfg = replace(cfg, channel=cfg.channel.with_seed(seed))
    pipe = Pipeline.from_config(cfg)
    key = derive_key(cfg, seed)
    message = KeyedStream(
        key.with_domain("benchmark.message")).next_bits(message_bits)
    embedded = embed_message(pipe, key, message)
    received = chan.apply(cfg.channel, embedded.image)
    text_tokens = embedded.text.tokens if embedded.text else None
    extracted = extract_message(pipe, key, received, text_tokens)
    return score_run(pipe, key, embedded, extracted, message, seed)


# ---------------------------------------------------------------------------
# file-based runs (CLI entry points)
# ---------------------------------------------------------------------------

def run_embed(cfg: PipelineConfig, message: BitString, out_dir,
              key: StegoKey | None = None) -> dict:
    """Embed to files: image, correction text, manifest, truth sidecar."""
    os.makedirs(out_dir, exist_ok=True)
    if key is None:
        key = derive_key(cfg)
    pipe = Pipeline.from_config(cfg)
    result = embed_message(pipe, key, message)
    image_path = os.path.join(out_dir, "stego.vqi")
    write_image(image_path, result.image)
    export_ppm(os.path.join(out_dir, "stego.ppm"), result.image)
    manifest = {
        "config_hash": cfg.config_hash(),
        "channel": str(cfg.channel),
        "embedded_bits": result.embedded_bits,
        "message_bits": result.message_bits,
        "condition_id": result.condition_id,
        "image_file": "stego.vqi",
    }
    if result.text is not None:
        text_path = os.path.join(out_dir, "stego_text.txt")
        with open(text_path, "w") as f:
            f.write(render_words(result.text.tokens) + "\n")
        with open(os.path.join(out_dir, "text_tokens.json"), "w") as f:
            json.dump(result.text.tokens, f)
        manifest.update({
            "text_file": "stego_text.txt",
            "text_payload_bits": result.text.payload_bits,
            "text_capacity_bits": result.text.capacity_bits,
            "ecc_corrected": result.ecc.corrected_count,
            "ecc_bits": len(result.ecc.bits),
        })
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    with open(os.path.join(out_dir, "truth.json"), "w") as f:
        json.dump({"message": message.to01(),
                   "grid": result.grid.ravel().tolist()}, f)
    return manifest


def _read_text_file(path, what: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedInput(
            f"cannot read {what} file {path}: {exc}") from None


def _read_truth(path, cfg: PipelineConfig) -> tuple[BitString, np.ndarray]:
    """The truth sidecar `run_embed` writes: message bits and token grid."""
    try:
        truth = json.loads(_read_text_file(path, "truth"))
        message, grid = truth["message"], np.asarray(truth["grid"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"{path}: not a truth file: {exc!r}") from None
    if (not isinstance(message, str) or grid.shape != (cfg.n_tokens,)
            or not np.issubdtype(grid.dtype, np.integer)):
        raise MalformedInput(f"{path}: truth needs a 0/1 message string and "
                             f"a grid of {cfg.n_tokens} integers")
    return BitString.from01(message), grid.reshape(cfg.grid_h, cfg.grid_w)


def run_extract(cfg: PipelineConfig, image_path, text_path=None,
                key: StegoKey | None = None,
                truth_path=None) -> tuple[BitString, dict]:
    """Extract from files; scores against the truth sidecar when present."""
    if key is None:
        key = derive_key(cfg)
    pipe = Pipeline.from_config(cfg)
    received = read_image(image_path)
    expected = pipe.tokenizer.image_shape
    if received.shape != expected:
        raise MalformedInput(f"{image_path}: image shape {received.shape} "
                             f"!= configured {expected}")
    text_tokens = None
    if text_path is not None:
        from .text_channel import parse_words
        text_tokens = parse_words(_read_text_file(text_path, "text"))
    truth = None if truth_path is None else _read_truth(truth_path, cfg)
    extracted = extract_message(pipe, key, received, text_tokens)
    info: dict = {
        "message_bits": len(extracted.message),
        "ecc_applied": extracted.ecc_applied,
        "ecc_error": extracted.ecc_error,
        "final_loss": extracted.final_loss,
        "opt_steps": extracted.opt_report.steps_run,
    }
    if truth is not None:
        info.update(_recovery(extracted, key, *truth))
    return extracted.message, info


def run_attack(cfg: PipelineConfig, image_path, out_path) -> dict:
    """Apply the configured channel to an image file."""
    image = read_image(image_path)
    attacked = chan.apply(cfg.channel, image)
    write_image(out_path, attacked)
    return {"channel": str(cfg.channel),
            "noise_seed": cfg.channel.noise_seed,
            "l2_distortion": float(np.linalg.norm(attacked - image))}


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def _sweep_worker(args) -> dict:
    label, cfg, seed, message_bits = args
    try:
        metrics = benchmark_run(cfg, seed, message_bits)
        row = metrics.to_dict()
    except Exception as exc:  # row marked failed, sweep continues
        row = RunMetrics(channel="?", seed=seed, message_bits=message_bits,
                         embedded_bits=0, r_q_stage1=0.0, r_q_stage2=0.0,
                         r_q_stage3=0.0, cap=0, recovered_exact=False,
                         final_loss=float("nan"), opt_steps=0,
                         error=f"{type(exc).__name__}: {exc}").to_dict()
    row["variant"] = label
    return row


def sweep_variants(cfg: PipelineConfig, channels=None,
                   max_tokens=None) -> list[tuple[str, PipelineConfig]]:
    """Expand a sweep over channel strings and/or max_tokens values."""
    variants: list[tuple[str, PipelineConfig]] = []
    for spec_text in channels or []:
        spec = chan.parse_channel(spec_text, cfg.channel.noise_seed)
        variants.append((str(spec), replace(cfg, channel=spec)))
    for mt in max_tokens or []:
        variants.append((f"max_tokens={mt}", replace(cfg, max_tokens=int(mt))))
    if not variants:
        variants.append((str(cfg.channel), cfg))
    return variants


def worker_count(jobs: int, n_tasks: int, cpus: int | None) -> int:
    """Sweep workers: `jobs`, clamped to the task count and the CPU count."""
    if jobs < 1:
        raise MalformedInput(f"jobs must be >= 1, got {jobs}")
    return min(jobs, n_tasks, cpus or 1)


def run_sweep(cfg: PipelineConfig, channels=None, max_tokens=None,
              n_seeds: int = 5, jobs: int = 1,
              message_bits: int = 500) -> dict:
    """One row per (variant, seed); aggregates are mean/std over seeds."""
    if n_seeds < 1:
        raise MalformedInput(f"seeds must be >= 1, got {n_seeds}")
    if message_bits < 0:
        raise MalformedInput(f"message bits must be >= 0, got {message_bits}")
    variants = sweep_variants(cfg, channels, max_tokens)
    tasks = [(label, vcfg, seed, message_bits)
             for label, vcfg in variants for seed in range(n_seeds)]
    workers = worker_count(jobs, len(tasks), os.cpu_count())
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_worker, tasks))
    else:
        rows = [_sweep_worker(t) for t in tasks]

    aggregates = []
    for label, _ in variants:
        got = [r for r in rows if r["variant"] == label and not r["error"]]
        failed = sum(1 for r in rows
                     if r["variant"] == label and r["error"])
        agg: dict = {"variant": label, "n": len(got), "failed": failed}
        for field_name in ("r_q_stage1", "r_q_stage2", "r_q_stage3", "cap",
                           "text_payload_bits"):
            values = [r[field_name] for r in got
                      if r[field_name] is not None]
            if values:
                arr = np.array(values, dtype=float)
                agg[f"{field_name}_mean"] = float(arr.mean())
                agg[f"{field_name}_std"] = float(arr.std())
        aggregates.append(agg)
    return {"rows": rows, "aggregates": aggregates,
            "table": format_table(aggregates)}


def format_table(aggregates: list[dict]) -> str:
    """Aligned plain-text view of the aggregate rows."""
    columns = ["variant", "n", "failed"]
    for agg in aggregates:
        for k in agg:
            if k not in columns:
                columns.append(k)
    cells = []
    for agg in aggregates:
        row = []
        for c in columns:
            v = agg.get(c, "")
            row.append(f"{v:.2f}" if isinstance(v, float) else str(v))
        cells.append(row)
    widths = [max(len(c), *(len(r[i]) for r in cells)) if cells else len(c)
              for i, c in enumerate(columns)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths))]
    for row in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def rows_to_jsonl(rows: list[dict]) -> str:
    return "\n".join(json.dumps(r, sort_keys=True) for r in rows) + "\n"
