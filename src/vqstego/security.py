"""Statistical indistinguishability harness.

Compares n cover token sequences (plain keyed sampling) against n stego
sequences (random encrypted messages under fresh keys) with:

  * a pooled two-sample chi-square over token frequencies,
  * per-position two-sample chi-squares whose p-values are checked for
    uniformity with a Kolmogorov-Smirnov test, and
  * a plug-in KL divergence estimate with a delta-method sampling error.

Frequency statistics cannot see an embedder that always picks copy index 0,
because that is exactly the cover sampling law; the keyed copy-index
uniformity statistic (chi-square per capacity class, Fisher-combined)
closes that gap using the keys the harness generated. Stego copy indices
come from the embedding walk itself; the biased control's are recovered
from its tokens. The cover counts (class A) depend only on the model, the
run key, the positions and n, so consecutive calls for one config build
them once.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from .bits import KeyedStream, StegoKey
from .codec import copy_index_trace, embed_sequence, sample_sequence
from .config import PipelineConfig
from .errors import MalformedInput
from .pipeline import IMAGE_DOMAIN, derive_key
from .token_model import ModelSpec, condition_from_key

_MIN_CATEGORY_COUNT = 10
_MIN_CLASS_TOTAL = 50

VARIANTS = ("stego", "cover", "biased")


@dataclass
class SecurityReport:
    variant: str
    n_samples: int
    positions: int
    pooled_chi2: float
    pooled_p: float
    position_p_values: list[float]
    ks_statistic: float
    ks_p: float
    kl_bits: float
    kl_stderr: float
    copy_index_p: float | None
    copy_index_counts: dict = field(default_factory=dict)

    @property
    def combined_p(self) -> float:
        """Bonferroni-corrected minimum over the available statistics."""
        ps = [self.pooled_p, self.ks_p]
        if self.copy_index_p is not None:
            ps.append(self.copy_index_p)
        return min(1.0, min(ps) * len(ps))

    def to_dict(self) -> dict:
        d = dict(self.__dict__)
        d["combined_p"] = self.combined_p
        return d


def _sample_key(base: bytes, label: str, index: int) -> StegoKey:
    mixed = hashlib.blake2b(base + label.encode() +
                            index.to_bytes(8, "big"), digest_size=32).digest()
    return StegoKey(mixed)


@functools.lru_cache(maxsize=1)
def _cover_counts(model: ModelSpec, base: bytes, positions: int,
                  n_samples: int) -> np.ndarray:
    """Class-A token counts per position, read-only.

    Class A depends only on these arguments, so the stego and biased calls
    of one config share it; the cache holds the last config's counts.
    """
    counts = np.zeros((positions, model.vocab_size), dtype=np.int64)
    rows = np.arange(positions)
    for i in range(n_samples):
        key = _sample_key(base, "cover", i)
        condition = condition_from_key(key, model)
        counts[rows, sample_sequence(model, condition, key, positions,
                                     IMAGE_DOMAIN)] += 1
    counts.flags.writeable = False
    return counts


def _candidate(cfg: PipelineConfig, variant: str, key: StegoKey,
               ) -> tuple[np.ndarray, list[tuple[int, int]] | None]:
    """One class-B grid and its (capacity, copy_index) trace (None for cover).

    Stego grids carry the trace of their embedding walk. The biased control
    forces copy index 0, which selects the token at r itself at every step:
    that is plain sampling, invisible to frequency tests. No embedder made
    those tokens, so their trace is recovered from them by a second walk.
    """
    model, positions = cfg.image_model, cfg.security_positions
    condition = condition_from_key(key, model)
    if variant == "stego":
        message = KeyedStream(key.with_domain("security.message")).next_bits(
            positions * 8)
        tokens, _, trace = embed_sequence(model, condition, message, key,
                                          positions, IMAGE_DOMAIN)
        return tokens, trace
    tokens = sample_sequence(model, condition, key, positions, IMAGE_DOMAIN)
    if variant == "cover":
        return tokens, None
    return tokens, copy_index_trace(model, condition, tokens, key,
                                    IMAGE_DOMAIN)


def _merge_rare(table: np.ndarray) -> np.ndarray:
    """Pool categories whose combined count is below the chi-square floor."""
    totals = table.sum(axis=0)
    keep = totals >= _MIN_CATEGORY_COUNT
    rare = table[:, ~keep].sum(axis=1, keepdims=True)
    merged = table[:, keep]
    if rare.sum() > 0:
        merged = np.hstack([merged, rare])
    return merged


def _two_sample_chi2(counts_a: np.ndarray,
                     counts_b: np.ndarray) -> tuple[float, float]:
    table = _merge_rare(np.vstack([counts_a, counts_b]))
    if table.shape[1] < 2 or table.sum() == 0:
        return 0.0, 1.0
    chi2, p, _, _ = stats.chi2_contingency(table)
    return float(chi2), float(p)


def _plugin_kl(counts_a: np.ndarray,
               counts_b: np.ndarray) -> tuple[float, float]:
    """Smoothed plug-in KL(a||b) in bits with a delta-method stderr."""
    a = counts_a + 0.5
    b = counts_b + 0.5
    p = a / a.sum()
    q = b / b.sum()
    ratio = np.log2(p / q)
    kl = float(np.sum(p * ratio))
    var = float(np.sum(p * (ratio - kl) ** 2))
    stderr = math.sqrt(max(var, 0.0) / counts_a.sum()) if counts_a.sum() else 0.0
    return kl, stderr


def _count_copy_indices(buckets: dict[int, np.ndarray],
                        trace: list[tuple[int, int]]) -> None:
    """Add a (capacity, copy_index) trace to the per-capacity counts."""
    for k, index in trace:
        if k < 1:
            continue
        if k not in buckets:
            buckets[k] = np.zeros(1 << k, dtype=np.int64)
        buckets[k][index] += 1


def _copy_index_statistic(buckets: dict[int, np.ndarray],
                          ) -> tuple[float | None, dict]:
    """Fisher-combined uniformity of copy indices over capacity classes."""
    p_values = []
    summary = {}
    for k in sorted(buckets):
        counts = buckets[k]
        total = int(counts.sum())
        summary[k] = {"total": total, "max_count": int(counts.max())}
        if total < _MIN_CLASS_TOTAL:
            continue
        _, p = stats.chisquare(counts)
        p_values.append(max(float(p), 1e-300))
        summary[k]["p"] = float(p)
    if not p_values:
        return None, summary
    fisher = -2.0 * sum(math.log(p) for p in p_values)
    combined = float(stats.chi2.sf(fisher, 2 * len(p_values)))
    return max(combined, 5e-324), summary


def run_security_test(cfg: PipelineConfig, n_samples: int,
                      variant: str = "stego") -> SecurityReport:
    """Generate both classes and run the full statistic battery.

    variant: "stego" (the real embedder), "cover" (null control — class B
    is plain sampling too), or "biased" (mutation control: copy index 0).
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if n_samples < 1:
        raise MalformedInput(f"samples must be >= 1, got {n_samples}")
    positions = cfg.security_positions
    base = derive_key(cfg, cfg.seed).seed
    counts_a = _cover_counts(cfg.image_model, base, positions, n_samples)
    counts_b = np.zeros_like(counts_a)
    rows = np.arange(positions)
    buckets: dict[int, np.ndarray] = {}
    for i in range(n_samples):
        grid_b, trace = _candidate(cfg, variant,
                                   _sample_key(base, "candidate", i))
        counts_b[rows, grid_b] += 1
        if trace is not None:
            _count_copy_indices(buckets, trace)

    pooled_chi2, pooled_p = _two_sample_chi2(counts_a.sum(axis=0),
                                             counts_b.sum(axis=0))
    position_p = [_two_sample_chi2(counts_a[t], counts_b[t])[1]
                  for t in range(positions)]
    ks_stat, ks_p = stats.kstest(position_p, "uniform")
    kl, kl_se = _plugin_kl(counts_a.sum(axis=0), counts_b.sum(axis=0))
    if variant == "cover":
        copy_p, copy_summary = None, {}
    else:
        copy_p, copy_summary = _copy_index_statistic(buckets)
    return SecurityReport(variant=variant, n_samples=n_samples,
                          positions=positions, pooled_chi2=pooled_chi2,
                          pooled_p=pooled_p, position_p_values=position_p,
                          ks_statistic=float(ks_stat), ks_p=float(ks_p),
                          kl_bits=kl, kl_stderr=kl_se, copy_index_p=copy_p,
                          copy_index_counts=copy_summary)
