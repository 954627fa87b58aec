"""Pipeline configuration: dataclass of all module parameters, INI persistence."""

from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import dataclass, field

from .channel import ChannelSpec, parse_channel
from .errors import MalformedInput
from .optimizer import OptimConfig
from .text_channel import word_list
from .token_model import ModelSpec


@dataclass
class PipelineConfig:
    image_model: ModelSpec = field(default_factory=lambda: ModelSpec(
        vocab_size=256, top_k=32, temperature=1.0, context_order=3,
        seed=1, num_conditions=1024))
    text_model: ModelSpec = field(default_factory=lambda: ModelSpec(
        vocab_size=512, top_k=64, temperature=1.0, context_order=3,
        seed=2, num_conditions=4096))
    # VQ tokenizer geometry; defaults give 576 tokens at 96x96 pixels
    codebook_seed: int = 7
    vec_dim: int = 8
    patch: int = 4
    grid_h: int = 24
    grid_w: int = 24
    decoder_seed: int = 11
    alpha: float = 0.5
    weight_scale: float = 0.3
    bias_scale: float = 2.1
    channel: ChannelSpec = field(default_factory=ChannelSpec)
    optim: OptimConfig = field(default_factory=OptimConfig)
    ecc_enabled: bool = True
    lambda1: int = 8
    lambda2: int = 8
    max_tokens: int = 200
    seed: int = 0
    security_positions: int = 32
    key_hex: str | None = None

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.image_model.vocab_size < 2:
            raise MalformedInput("image vocab must be >= 2")
        if self.grid_h < 1 or self.grid_w < 1 or self.patch < 1:
            raise MalformedInput("grid dimensions must be positive")
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


def dumps(cfg: PipelineConfig) -> str:
    p = configparser.ConfigParser()
    p["image_model"] = _model_section(cfg.image_model)
    p["text_model"] = _model_section(cfg.text_model)
    p["vq"] = {
        "codebook_seed": str(cfg.codebook_seed),
        "vec_dim": str(cfg.vec_dim),
        "patch": str(cfg.patch),
        "grid_h": str(cfg.grid_h),
        "grid_w": str(cfg.grid_w),
        "decoder_seed": str(cfg.decoder_seed),
        "alpha": repr(cfg.alpha),
        "weight_scale": repr(cfg.weight_scale),
        "bias_scale": repr(cfg.bias_scale),
    }
    p["channel"] = {
        "spec": str(cfg.channel),
        "noise_seed": str(cfg.channel.noise_seed),
    }
    p["optimizer"] = {
        "learning_rate": repr(cfg.optim.learning_rate),
        "steps": str(cfg.optim.steps),
        "beta1": repr(cfg.optim.beta1),
        "beta2": repr(cfg.optim.beta2),
        "eps": repr(cfg.optim.eps),
        "plateau_tol": repr(cfg.optim.plateau_tol),
        "plateau_window": str(cfg.optim.plateau_window),
        "quantize_in_loop": str(cfg.optim.quantize_in_loop).lower(),
    }
    p["ecc"] = {
        "enabled": str(cfg.ecc_enabled).lower(),
        "lambda1": str(cfg.lambda1),
        "lambda2": str(cfg.lambda2),
    }
    p["text"] = {"max_tokens": str(cfg.max_tokens)}
    run = {"seed": str(cfg.seed),
           "security_positions": str(cfg.security_positions)}
    if cfg.key_hex:
        run["key_hex"] = cfg.key_hex
    p["run"] = run
    buf = io.StringIO()
    p.write(buf)
    return buf.getvalue()


def _model_section(m: ModelSpec) -> dict[str, str]:
    return {
        "vocab_size": str(m.vocab_size),
        "top_k": str(m.top_k),
        "temperature": repr(m.temperature),
        "context_order": str(m.context_order),
        "seed": str(m.seed),
        "num_conditions": str(m.num_conditions),
    }


def _read_model(p: configparser.ConfigParser, section: str,
                base: ModelSpec) -> ModelSpec:
    if not p.has_section(section):
        return base
    s = p[section]
    return ModelSpec(
        vocab_size=s.getint("vocab_size", base.vocab_size),
        top_k=s.getint("top_k", base.top_k),
        temperature=s.getfloat("temperature", base.temperature),
        context_order=s.getint("context_order", base.context_order),
        seed=s.getint("seed", base.seed),
        num_conditions=s.getint("num_conditions", base.num_conditions),
    )


def loads(text: str) -> PipelineConfig:
    base = default_config()
    p = configparser.ConfigParser()
    try:
        p.read_string(text)
    except configparser.Error as exc:
        raise MalformedInput(f"bad config: {exc}") from None
    try:
        return _loads_sections(p, base)
    except ValueError as exc:
        raise MalformedInput(f"bad config value: {exc}") from None


def _loads_sections(p: configparser.ConfigParser,
                    base: PipelineConfig) -> PipelineConfig:
    cfg = PipelineConfig(
        image_model=_read_model(p, "image_model", base.image_model),
        text_model=_read_model(p, "text_model", base.text_model),
    )
    if p.has_section("vq"):
        s = p["vq"]
        cfg.codebook_seed = s.getint("codebook_seed", cfg.codebook_seed)
        cfg.vec_dim = s.getint("vec_dim", cfg.vec_dim)
        cfg.patch = s.getint("patch", cfg.patch)
        cfg.grid_h = s.getint("grid_h", cfg.grid_h)
        cfg.grid_w = s.getint("grid_w", cfg.grid_w)
        cfg.decoder_seed = s.getint("decoder_seed", cfg.decoder_seed)
        cfg.alpha = s.getfloat("alpha", cfg.alpha)
        cfg.weight_scale = s.getfloat("weight_scale", cfg.weight_scale)
        cfg.bias_scale = s.getfloat("bias_scale", cfg.bias_scale)
    if p.has_section("channel"):
        s = p["channel"]
        cfg.channel = parse_channel(s.get("spec", "lossless"),
                                    s.getint("noise_seed", 0))
    if p.has_section("optimizer"):
        s = p["optimizer"]
        d = OptimConfig()
        cfg.optim = OptimConfig(
            learning_rate=s.getfloat("learning_rate", d.learning_rate),
            steps=s.getint("steps", d.steps),
            beta1=s.getfloat("beta1", d.beta1),
            beta2=s.getfloat("beta2", d.beta2),
            eps=s.getfloat("eps", d.eps),
            plateau_tol=s.getfloat("plateau_tol", d.plateau_tol),
            plateau_window=s.getint("plateau_window", d.plateau_window),
            quantize_in_loop=s.getboolean("quantize_in_loop",
                                          d.quantize_in_loop),
        )
    if p.has_section("ecc"):
        s = p["ecc"]
        cfg.ecc_enabled = s.getboolean("enabled", cfg.ecc_enabled)
        cfg.lambda1 = s.getint("lambda1", cfg.lambda1)
        cfg.lambda2 = s.getint("lambda2", cfg.lambda2)
    if p.has_section("text"):
        cfg.max_tokens = p["text"].getint("max_tokens", cfg.max_tokens)
    if p.has_section("run"):
        s = p["run"]
        cfg.seed = s.getint("seed", cfg.seed)
        cfg.security_positions = s.getint("security_positions",
                                          cfg.security_positions)
        cfg.key_hex = s.get("key_hex", cfg.key_hex)
    cfg.validate()
    return cfg


def load_config(path) -> PipelineConfig:
    try:
        with open(path) as f:
            return loads(f.read())
    except OSError as exc:
        raise MalformedInput(f"cannot read config {path}: {exc}") from None
