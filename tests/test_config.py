import re
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import pytest

from vqstego.channel import (ChannelSpec, GaussianStage, QuantizeStage,
                             parse_channel)
from vqstego.config import _layout, default_config, dumps, load_config, loads
from vqstego.errors import MalformedInput

# The manifest records config_hash(), so the INI text is part of the format.
DEFAULT_INI = """\
[image_model]
vocab_size = 256
top_k = 32
temperature = 1.0
context_order = 3
seed = 1
num_conditions = 1024

[text_model]
vocab_size = 512
top_k = 64
temperature = 1.0
context_order = 3
seed = 2
num_conditions = 4096

[vq]
codebook_seed = 7
vec_dim = 8
patch = 4
grid_h = 24
grid_w = 24
decoder_seed = 11
alpha = 0.5
weight_scale = 0.3
bias_scale = 2.1

[channel]
spec = lossless
noise_seed = 0

[optimizer]
steps = 2000

[ecc]
enabled = true
lambda1 = 8
lambda2 = 8

[text]
max_tokens = 200

[run]
seed = 0
security_positions = 32

"""


def _changed(value):
    """A valid value different from `value`, recursing into dataclasses."""
    if isinstance(value, ChannelSpec):
        return parse_channel("gaussian:0.01,quantize:32,rescale:0.5",
                             value.noise_seed + 3)
    if is_dataclass(value):
        return replace(value, **{f.name: _changed(getattr(value, f.name))
                                 for f in fields(value)})
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value - 1 if value > 1 else value + 1
    if isinstance(value, float):
        return value * 0.5
    if value is None:
        return "ab" * 32
    raise TypeError(f"no changed value for {value!r}")


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

    def test_default_ini_is_pinned(self):
        assert dumps(default_config()) == DEFAULT_INI
        assert default_config().config_hash() == "f38aec2da93d48ec"

    def test_every_field_round_trips(self):
        base = default_config()
        cfg = replace(base, **{f.name: _changed(getattr(base, f.name))
                               for f in fields(base)})
        for f in fields(base):
            assert getattr(cfg, f.name) != getattr(base, f.name), f.name
        assert loads(dumps(cfg)) == cfg

    @pytest.mark.parametrize("text, name", [
        ("[optimiser]\nsteps = 5\n", "[optimiser]"),
        ("[optimizer]\nstpes = 5\n", "'stpes'"),
        ("[DEFAULT]\nsteps = 5\n", "[DEFAULT]"),
    ])
    def test_unknown_names_rejected(self, text, name):
        with pytest.raises(MalformedInput, match=name.replace("[", r"\[")):
            loads(text)

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


def _readme_config_table() -> dict[str, list[str]]:
    """{section: keys} from the README "Configuration" table.

    A row names one or more sections and lists their keys in backticks; a
    parenthesised example after a key is not a key.
    """
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    table = {}
    for line in readme.splitlines():
        cells = line.split("|")
        if len(cells) != 4 or not cells[1].strip().startswith("`["):
            continue
        keys = re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", cells[2]))
        for section in re.findall(r"`\[(\w+)\]`", cells[1]):
            table[section] = keys
    return table


def test_readme_config_table_lists_every_key():
    layout = _layout(default_config())
    assert _readme_config_table() == {
        section: list(items) for section, items in layout.items()}
