import pytest

from vqstego.channel import GaussianStage, QuantizeStage
from vqstego.config import default_config, dumps, load_config, loads
from vqstego.errors import MalformedInput


class TestConfig:
    def test_defaults_self_consistent(self):
        cfg = default_config()
        assert cfg.n_tokens == 576
        assert cfg.grid_h * cfg.patch == 96
        assert cfg.image_model.vocab_size == 256

    def test_dump_load_round_trip(self):
        cfg = default_config()
        cfg.alpha = 0.37
        cfg.bias_scale = 1.25
        cfg.max_tokens = 123
        cfg.key_hex = "ab" * 32
        back = loads(dumps(cfg))
        assert back == cfg

    def test_partial_config_fills_defaults(self):
        cfg = loads("[text]\nmax_tokens = 77\n")
        assert cfg.max_tokens == 77
        assert cfg.alpha == default_config().alpha

    def test_channel_section(self):
        cfg = loads("[channel]\nspec = gaussian:0.01,quantize:32\n"
                    "noise_seed = 9\n")
        assert cfg.channel.stages == (GaussianStage(0.01), QuantizeStage(32))
        assert cfg.channel.noise_seed == 9

    def test_config_hash_tracks_content(self):
        a = default_config()
        b = default_config()
        assert a.config_hash() == b.config_hash()
        b.max_tokens += 1
        assert a.config_hash() != b.config_hash()

    def test_malformed_config_rejected(self):
        with pytest.raises(MalformedInput):
            loads("not an ini file [")

    def test_invalid_values_rejected(self):
        with pytest.raises(MalformedInput):
            loads("[vq]\ngrid_h = 0\n")
        with pytest.raises(MalformedInput):
            loads("[channel]\nspec = gaussian:-3\n")

    def test_text_vocab_limited_to_word_list(self):
        # a larger vocabulary would alias tokens onto the same word
        assert loads("[text_model]\nvocab_size = 512\n") \
            .text_model.vocab_size == 512
        with pytest.raises(MalformedInput):
            loads("[text_model]\nvocab_size = 513\n")

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(MalformedInput):
            load_config(tmp_path / "missing.ini")

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(dumps(default_config()))
        assert load_config(path) == default_config()
