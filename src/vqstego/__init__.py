"""Distribution-preserving token steganography with gradient-descent
recovery and a cross-modal error-correction stream, at desk scale.

The package namespace holds the end-to-end entry points; every layer stays
importable as its submodule (``vqstego.codec``, ``vqstego.ecc``, ...).
"""

from . import (bits, channel, codec, config, ecc, errors, optimizer,
               pipeline, security, text_channel, token_model, vq)
from .bits import BitString, StegoKey
from .channel import parse_channel
from .config import PipelineConfig, default_config, load_config
from .errors import StegoError
from .pipeline import (Pipeline, benchmark_run, derive_key, embed_message,
                       extract_message)
from .security import run_security_test

__version__ = "0.1.0"

__all__ = [
    "BitString", "StegoKey", "PipelineConfig", "default_config",
    "load_config", "Pipeline", "derive_key", "embed_message",
    "extract_message", "benchmark_run", "run_security_test", "parse_channel",
    "StegoError",
]
