import hashlib
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from vqstego import security
from vqstego.bits import KeyedStream, StegoKey
from vqstego.codec import copy_index_trace, embed_sequence, sample_sequence
from vqstego.pipeline import IMAGE_DOMAIN, derive_key
from vqstego.security import (SecurityReport, _copy_index_statistic,
                              _count_copy_indices, _merge_rare, _plugin_kl,
                              _two_sample_chi2, run_security_test)
from vqstego.token_model import condition_from_key

# The full-strength battery (n = 5000, pooled/KS/copy-index thresholds) runs
# in the acceptance suite; these are fast structural checks at small n.


class TestStatistics:
    def test_merge_rare_pools_small_columns(self):
        table = np.array([[100, 3, 2, 50], [90, 1, 0, 60]])
        merged = _merge_rare(table)
        # columns 1 and 2 (totals 4 and 2) pool into one category
        assert merged.shape == (2, 3)
        assert merged.sum() == table.sum()
        assert merged[:, -1].tolist() == [5, 1]

    def test_chi2_identical_counts_not_rejected(self):
        counts = np.array([40, 60, 80, 20])
        chi2, p = _two_sample_chi2(counts, counts)
        assert chi2 == pytest.approx(0.0, abs=1e-12)
        assert p == pytest.approx(1.0)

    def test_chi2_disjoint_counts_rejected(self):
        a = np.array([200, 0, 0, 0])
        b = np.array([0, 200, 0, 0])
        _, p = _two_sample_chi2(a, b)
        assert p < 1e-10

    def test_plugin_kl_zero_for_identical(self):
        counts = np.array([50, 150, 300])
        kl, stderr = _plugin_kl(counts, counts)
        assert kl == pytest.approx(0.0, abs=1e-12)
        assert stderr >= 0.0

    def test_plugin_kl_positive_for_shifted(self):
        kl, _ = _plugin_kl(np.array([400, 100]), np.array([100, 400]))
        assert kl > 0.5


class TestBattery:
    def test_rejects_unknown_variant(self, cfg):
        with pytest.raises(ValueError):
            run_security_test(cfg, 10, "bogus")

    def test_cover_null_control(self, cfg):
        report = run_security_test(cfg, 150, "cover")
        assert report.variant == "cover"
        assert report.copy_index_p is None
        assert report.pooled_p > 0.001
        assert len(report.position_p_values) == cfg.security_positions

    def test_stego_report_structure(self, cfg):
        report = run_security_test(cfg, 150, "stego")
        assert report.pooled_p > 0.001
        assert report.copy_index_p is not None
        assert report.copy_index_p > 1e-6
        assert 0.0 <= report.combined_p <= 1.0
        d = report.to_dict()
        assert d["combined_p"] == report.combined_p

    def test_biased_embedder_caught_by_copy_statistic(self, cfg):
        # always choosing copy index 0 reproduces the cover law exactly, so
        # frequency statistics stay quiet while the keyed statistic collapses
        report = run_security_test(cfg, 150, "biased")
        assert report.pooled_p > 0.001
        assert report.copy_index_p < 1e-6
        assert report.combined_p < 1e-6


def reference_report(cfg, n_samples, variant):
    """The battery as one per-sample loop that walks every grid anew.

    Class A is regenerated here, and every class-B grid except cover is
    re-walked with copy_index_trace to recover its copy indices.
    """
    model, positions = cfg.image_model, cfg.security_positions
    base = derive_key(cfg, cfg.seed).seed

    def sample_key(label, i):
        return StegoKey(hashlib.blake2b(base + label.encode()
                                        + i.to_bytes(8, "big"),
                                        digest_size=32).digest())

    def cover_grid(key):
        return sample_sequence(model, condition_from_key(key, model), key,
                               positions, IMAGE_DOMAIN)

    def stego_grid(key):
        message = KeyedStream(key.with_domain("security.message")).next_bits(
            positions * 8)
        return embed_sequence(model, condition_from_key(key, model), message,
                              key, positions, IMAGE_DOMAIN)[0]

    counts_a = np.zeros((positions, model.vocab_size), dtype=np.int64)
    counts_b = np.zeros_like(counts_a)
    buckets = {}
    for i in range(n_samples):
        grid_a = cover_grid(sample_key("cover", i))
        key_b = sample_key("candidate", i)
        grid_b = (stego_grid if variant == "stego" else cover_grid)(key_b)
        counts_a[np.arange(positions), grid_a] += 1
        counts_b[np.arange(positions), grid_b] += 1
        if variant != "cover":
            _count_copy_indices(buckets, copy_index_trace(
                model, condition_from_key(key_b, model), grid_b, key_b,
                IMAGE_DOMAIN))
    pooled_chi2, pooled_p = _two_sample_chi2(counts_a.sum(axis=0),
                                             counts_b.sum(axis=0))
    position_p = [_two_sample_chi2(counts_a[t], counts_b[t])[1]
                  for t in range(positions)]
    ks_stat, ks_p = stats.kstest(position_p, "uniform")
    kl, kl_se = _plugin_kl(counts_a.sum(axis=0), counts_b.sum(axis=0))
    copy_p, copy_summary = ((None, {}) if variant == "cover"
                            else _copy_index_statistic(buckets))
    return SecurityReport(variant=variant, n_samples=n_samples,
                          positions=positions, pooled_chi2=pooled_chi2,
                          pooled_p=pooled_p, position_p_values=position_p,
                          ks_statistic=float(ks_stat), ks_p=float(ks_p),
                          kl_bits=kl, kl_stderr=kl_se, copy_index_p=copy_p,
                          copy_index_counts=copy_summary)


class TestOneWalkPerSequence:
    @pytest.mark.parametrize("variant", ["stego", "biased", "cover"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_rewalking_reference(self, cfg, variant, seed):
        run_cfg = replace(cfg, seed=seed)
        want = reference_report(run_cfg, 40, variant).to_dict()
        security._cover_counts.cache_clear()
        # once building class A, once reading it from the cache
        for _ in range(2):
            assert run_security_test(run_cfg, 40, variant).to_dict() == want

    def test_class_a_built_once_per_config(self, cfg, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return sample_sequence(*args)

        monkeypatch.setattr(security, "sample_sequence", counting)
        security._cover_counts.cache_clear()
        small = replace(cfg, security_positions=6)
        n = 5

        def sample_walks(run_cfg, n_samples, variant="stego"):
            # a stego class B embeds, so a stego call samples only class A
            calls.clear()
            run_security_test(run_cfg, n_samples, variant)
            return len(calls)

        assert sample_walks(small, n) == n
        assert sample_walks(small, n) == 0
        assert sample_walks(small, n, "biased") == n  # class B only
        assert sample_walks(small, n, "cover") == n
        other_model = replace(small.image_model,
                              seed=small.image_model.seed + 1)
        for changed in (replace(small, seed=small.seed + 1),
                        replace(small, key_hex="ab" * 32),
                        replace(small, security_positions=7),
                        replace(small, image_model=other_model)):
            assert sample_walks(changed, n) == n
            assert sample_walks(changed, n) == 0
        assert sample_walks(small, n + 1) == n + 1
        assert sample_walks(small, n) == n

    def test_cached_counts_read_only(self, cfg):
        run_security_test(replace(cfg, security_positions=4), 3, "cover")
        counts = security._cover_counts(
            cfg.image_model, derive_key(cfg, cfg.seed).seed, 4, 3)
        assert not counts.flags.writeable
        assert counts.sum() == 4 * 3
