"""Pipeline configuration: dataclass of all module parameters, INI persistence.

Each field of `PipelineConfig` names its INI section in its metadata, so the
section layout is declared once and `dumps`/`loads` walk it. A field holding
a `ModelSpec` or `OptimConfig` is a whole section whose keys are that
dataclass's fields; `[channel]` holds the channel spec and its noise seed.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

from .channel import ChannelSpec, parse_channel
from .errors import MalformedInput
from .optimizer import OptimConfig
from .text_channel import word_list
from .token_model import ModelSpec


def _ini(section: str, default=MISSING, *, factory=MISSING,
         key: str | None = None):
    """A field stored as `[section] key` (key defaults to the field name)."""
    return field(default=default, default_factory=factory,
                 metadata={"ini": (section, key)})


@dataclass
class PipelineConfig:
    image_model: ModelSpec = _ini("image_model", factory=lambda: ModelSpec(
        vocab_size=256, top_k=32, temperature=1.0, context_order=3,
        seed=1, num_conditions=1024))
    text_model: ModelSpec = _ini("text_model", factory=lambda: ModelSpec(
        vocab_size=512, top_k=64, temperature=1.0, context_order=3,
        seed=2, num_conditions=4096))
    # VQ tokenizer geometry; defaults give 576 tokens at 96x96 pixels
    codebook_seed: int = _ini("vq", 7)
    vec_dim: int = _ini("vq", 8)
    patch: int = _ini("vq", 4)
    grid_h: int = _ini("vq", 24)
    grid_w: int = _ini("vq", 24)
    decoder_seed: int = _ini("vq", 11)
    alpha: float = _ini("vq", 0.5)
    weight_scale: float = _ini("vq", 0.3)
    bias_scale: float = _ini("vq", 2.1)
    channel: ChannelSpec = _ini("channel", factory=ChannelSpec)
    optim: OptimConfig = _ini("optimizer", factory=OptimConfig)
    ecc_enabled: bool = _ini("ecc", True, key="enabled")
    lambda1: int = _ini("ecc", 8)
    lambda2: int = _ini("ecc", 8)
    max_tokens: int = _ini("text", 200)
    seed: int = _ini("run", 0)
    security_positions: int = _ini("run", 32)
    key_hex: str | None = _ini("run", None)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.image_model.vocab_size < 2:
            raise MalformedInput("image vocab must be >= 2")
        if self.grid_h < 1 or self.grid_w < 1 or self.patch < 1:
            raise MalformedInput("grid dimensions must be positive")
        if self.vec_dim < 1:
            raise MalformedInput("vec_dim must be >= 1")
        if self.alpha == 0:
            raise MalformedInput("alpha must be nonzero")
        if self.lambda1 < 1 or self.lambda2 < 1:
            raise MalformedInput("lambda1 and lambda2 must be >= 1")
        # a correction record addresses a cell in floor(log2(h*w)) >= 1 bits
        if self.n_tokens < 2:
            raise MalformedInput("the token grid must hold at least 2 cells")
        if self.max_tokens < 1 or self.security_positions < 1:
            raise MalformedInput(
                "max_tokens and security_positions must be >= 1")
        # both seeds are hashed as signed 64-bit integers
        for name, value in (("seed", self.seed),
                            ("noise_seed", self.channel.noise_seed)):
            if not -2**63 <= value < 2**63:
                raise MalformedInput(f"{name} {value} is outside the signed "
                                     f"64-bit range")
        # numpy's PCG64 takes only non-negative seeds
        for name in ("codebook_seed", "decoder_seed"):
            if getattr(self, name) < 0:
                raise MalformedInput(f"{name} must be >= 0")
        # each text token is rendered as one word of the word list
        if self.text_model.vocab_size > len(word_list()):
            raise MalformedInput(
                f"text vocab {self.text_model.vocab_size} exceeds the "
                f"{len(word_list())}-word list")

    @property
    def n_tokens(self) -> int:
        return self.grid_h * self.grid_w

    def config_hash(self) -> str:
        return hashlib.blake2b(dumps(self).encode(),
                               digest_size=8).hexdigest()


def default_config() -> PipelineConfig:
    return PipelineConfig()


def _layout(cfg: PipelineConfig) -> dict[str, dict[str, object]]:
    """The INI sections of `cfg` as {section: {key: value}}, in file order."""
    sections: dict[str, dict[str, object]] = {}
    for f in fields(cfg):
        section, key = f.metadata["ini"]
        value = getattr(cfg, f.name)
        if isinstance(value, ChannelSpec):
            items = {"spec": str(value), "noise_seed": value.noise_seed}
        elif is_dataclass(value):
            items = {g.name: getattr(value, g.name) for g in fields(value)}
        else:
            items = {key or f.name: value}
        sections.setdefault(section, {}).update(items)
    return sections


def _format(value) -> str:
    return str(value).lower() if isinstance(value, bool) else str(value)


def dumps(cfg: PipelineConfig) -> str:
    p = configparser.ConfigParser()
    for section, items in _layout(cfg).items():
        # an unset optional value (no key_hex) is left out
        p[section] = {k: _format(v) for k, v in items.items()
                      if v is not None and v != ""}
    buf = io.StringIO()
    p.write(buf)
    return buf.getvalue()


def _parse(s: configparser.SectionProxy, key: str, default):
    """The value of `key`, parsed as the type of its default."""
    if isinstance(default, bool):
        return s.getboolean(key)
    if isinstance(default, int):
        return s.getint(key)
    if isinstance(default, float):
        value = s.getfloat(key)
        if not math.isfinite(value):
            raise ValueError(f"{key} = {value} is not finite")
        return value
    return s.get(key)


def loads(text: str) -> PipelineConfig:
    p = configparser.ConfigParser()
    try:
        p.read_string(text)
    except configparser.Error as exc:
        raise MalformedInput(f"bad config: {exc}") from None
    base = default_config()
    values = _layout(base)
    if p.defaults():
        raise MalformedInput("unknown config section [DEFAULT]")
    try:
        for section in p.sections():
            if section not in values:
                raise MalformedInput(f"unknown config section [{section}]")
            known = values[section]
            for key in p[section]:
                if key not in known:
                    raise MalformedInput(
                        f"unknown key {key!r} in config section [{section}]")
                known[key] = _parse(p[section], key, known[key])
        return _from_layout(values, base)
    except ValueError as exc:
        raise MalformedInput(f"bad config value: {exc}") from None


def _from_layout(values: dict[str, dict[str, object]],
                 base: PipelineConfig) -> PipelineConfig:
    kwargs = {}
    for f in fields(base):
        section, key = f.metadata["ini"]
        items = values[section]
        default = getattr(base, f.name)
        if isinstance(default, ChannelSpec):
            kwargs[f.name] = parse_channel(items["spec"], items["noise_seed"])
        elif is_dataclass(default):
            kwargs[f.name] = type(default)(
                **{g.name: items[g.name] for g in fields(default)})
        else:
            kwargs[f.name] = items[key or f.name]
    return PipelineConfig(**kwargs)


def load_config(path) -> PipelineConfig:
    try:
        with open(path) as f:
            return loads(f.read())
    except OSError as exc:
        raise MalformedInput(f"cannot read config {path}: {exc}") from None
