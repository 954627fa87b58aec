"""Set-up every benchmark run pays before its first operation.

`set_up()` imports vqstego from the checkout's ``src/``, builds the default
pipeline and makes one small call into each layer, so lazy initialisation
(BLAS start-up, cached rescale operators) is not charged to the first
measured operation. Run as a script, it does the same in a fresh
interpreter; ``run.py`` times that to report ``setup_s``:

    python3 perfbench/setup_probe.py
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WARMUP_CHANNEL = "gaussian:0.01,quantize:32,rescale:0.5"
WARMUP_STEPS = 5


class MissingSource(RuntimeError):
    """The checkout holds no vqstego source to benchmark."""


def use_checkout_source() -> None:
    """Import vqstego from this checkout's src/, never an installed copy."""
    if not (SRC / "vqstego" / "__init__.py").is_file():
        raise MissingSource(f"no vqstego package under {SRC}")
    sys.path.insert(0, str(SRC))
    import vqstego
    if Path(vqstego.__file__).resolve().parent != SRC / "vqstego":
        raise MissingSource(f"imported vqstego from {vqstego.__file__}")


def set_up() -> None:
    """Build the default pipeline and make one small call into each layer."""
    from dataclasses import replace

    from vqstego import channel, config, optimizer, pipeline, security
    from vqstego.bits import BitString, StegoKey

    cfg = config.default_config()
    pipe = pipeline.Pipeline.from_config(cfg)
    spec = channel.parse_channel(WARMUP_CHANNEL, 0)
    plain = replace(pipe, cfg=replace(cfg, ecc_enabled=False))
    embedded = pipeline.embed_message(plain, StegoKey(bytes(32)),
                                      BitString([1, 0] * 8))
    received = channel.apply(spec, embedded.image)
    optimizer.optimize_tokens(received, spec, pipe.tokenizer,
                              replace(cfg.optim, steps=WARMUP_STEPS))
    security.run_security_test(replace(cfg, security_positions=4), 2,
                               "stego")


if __name__ == "__main__":
    try:
        use_checkout_source()
    except MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    set_up()
