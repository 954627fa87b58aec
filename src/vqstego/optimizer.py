"""Gradient-descent token recovery.

Starting from the encoder's continuous latents for the received lossy image,
Adam minimizes the L2 discrepancy between that image and the re-decoded
image pushed through the smooth channel surrogate; quantization back to
tokens happens once, after the loop. The channel's stochastic stage is a
frozen seeded field, so the objective is deterministic and the loss of the
true token grid under a shared noise seed is (numerically) zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import channel as chan
from .channel import ChannelSpec
from .errors import NonFiniteLoss, ShapeMismatch
from .vq import Tokenizer


@dataclass(frozen=True)
class OptimConfig:
    learning_rate: float = 0.002
    steps: int = 2000
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    plateau_tol: float = 1e-10
    plateau_window: int = 100
    quantize_in_loop: bool = False

    def __post_init__(self):
        if self.learning_rate < 0 or self.steps < 1:
            raise ValueError("require learning_rate >= 0 and steps >= 1")


@dataclass
class OptimReport:
    final_loss: float
    steps_run: int
    loss_trace: list[float] = field(default_factory=list)
    errors_before: int | None = None
    errors_after: int | None = None

    def to_dict(self) -> dict:
        return {
            "final_loss": self.final_loss,
            "steps_run": self.steps_run,
            "loss_trace": self.loss_trace,
            "errors_before": self.errors_before,
            "errors_after": self.errors_after,
        }


def _forward_latents(latents: np.ndarray, tokenizer: Tokenizer,
                     config: OptimConfig) -> np.ndarray:
    if config.quantize_in_loop:
        # straight-through: decode from snapped vectors, gradient w.r.t. raw z
        return tokenizer.codebook.vectors[tokenizer.quantize(latents)]
    return latents


def loss(latents: np.ndarray, received: np.ndarray, spec: ChannelSpec,
         tokenizer: Tokenizer,
         config: OptimConfig = OptimConfig()) -> float:
    decoded = tokenizer.decode_continuous(
        _forward_latents(latents, tokenizer, config))
    if decoded.shape != received.shape:
        raise ShapeMismatch(f"{decoded.shape} vs {received.shape}")
    return float(np.linalg.norm(received - chan.apply_smooth(spec, decoded)))


def loss_and_gradient(latents: np.ndarray, received: np.ndarray,
                      spec: ChannelSpec, tokenizer: Tokenizer,
                      config: OptimConfig = OptimConfig(),
                      ) -> tuple[float, np.ndarray]:
    """Analytic gradient via the chain rule; matches central differences."""
    decoded, cells = tokenizer.decode_continuous(
        _forward_latents(latents, tokenizer, config), with_cells=True)
    if decoded.shape != received.shape:
        raise ShapeMismatch(f"{decoded.shape} vs {received.shape}")
    out, tape = chan.apply_smooth_with_tape(spec, decoded)
    residual = received - out
    value = float(np.linalg.norm(residual))
    if value == 0.0:
        return 0.0, np.zeros_like(latents)
    grad_out = -residual / value
    grad_decoded = chan.backward(tape, grad_out)
    return value, tokenizer.grad_latents(grad_decoded, cells)


def optimize_tokens(received: np.ndarray, spec: ChannelSpec,
                    tokenizer: Tokenizer, config: OptimConfig,
                    true_grid: np.ndarray | None = None,
                    ) -> tuple[np.ndarray, OptimReport]:
    """Adam over continuous latents, then one final quantization.

    Between the initial re-encoded grid and the optimized grid, the one that
    re-simulates closer to the received image (a receiver-side quantity) is
    returned, so the result never loses to plain re-encoding on a
    deterministic channel.
    """
    z = tokenizer.encode(received)
    init_grid = tokenizer.quantize(z)

    m = np.zeros_like(z)
    v = np.zeros_like(z)
    trace: list[float] = []
    value = loss(z, received, spec, tokenizer, config)
    best_recent = value
    since_improvement = 0
    stride = max(1, config.steps // 100)
    steps_run = 0
    for t in range(1, config.steps + 1):
        value, g = loss_and_gradient(z, received, spec, tokenizer, config)
        if not np.isfinite(value):
            raise NonFiniteLoss(f"loss diverged at step {t}")
        if t % stride == 1 or stride == 1:
            trace.append(value)
        if value < best_recent - config.plateau_tol:
            best_recent = value
            since_improvement = 0
        else:
            since_improvement += 1
            if since_improvement >= config.plateau_window:
                steps_run = t
                break
        m = config.beta1 * m + (1.0 - config.beta1) * g
        v = config.beta2 * v + (1.0 - config.beta2) * g * g
        m_hat = m / (1.0 - config.beta1**t)
        v_hat = v / (1.0 - config.beta2**t)
        z = z - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.eps)
        steps_run = t

    opt_grid = tokenizer.quantize(z)

    def resim_loss(grid: np.ndarray) -> float:
        sim = chan.apply(spec, tokenizer.decode(grid))
        return float(np.linalg.norm(received - sim))

    final_grid = init_grid
    if not np.array_equal(opt_grid, init_grid):
        if resim_loss(opt_grid) < resim_loss(init_grid):
            final_grid = opt_grid

    report = OptimReport(final_loss=value, steps_run=steps_run,
                         loss_trace=trace)
    if true_grid is not None:
        report.errors_before = int(np.count_nonzero(init_grid != true_grid))
        report.errors_after = int(np.count_nonzero(final_grid != true_grid))
    return final_grid, report
