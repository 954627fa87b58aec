"""Gradient-descent token recovery.

Starting from the encoder's continuous latents for the received lossy image,
the solver minimizes the L2 discrepancy between that image and the
re-decoded image pushed through the smooth channel surrogate: L-BFGS on the
squared loss first, then Adam from the best point L-BFGS evaluated, until
Adam's plateau rule or the shared evaluation cap stops it. Quantization back
to tokens happens once, after both phases. The channel's stochastic stage is
a frozen seeded field, so the objective is deterministic and the loss of the
true token grid under a shared noise seed is (numerically) zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from . import channel as chan
from .channel import ChannelSpec
from .errors import NonFiniteLoss, ShapeMismatch
from .vq import Tokenizer


# L-BFGS-B (Liu & Nocedal 1989) history size and stopping tolerances. The
# tolerances are tight on purpose: L-BFGS runs until its line search makes
# no more progress, and Adam polishes from there.
LBFGS_MAXCOR = 10
LBFGS_FTOL = 1e-15
LBFGS_GTOL = 1e-12

# Adam's published defaults (Kingma & Ba 2015) with a fixed step size; the
# loop stops early once the loss has not improved by PLATEAU_TOL for
# PLATEAU_WINDOW steps.
LEARNING_RATE = 0.002
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
PLATEAU_TOL = 1e-10
PLATEAU_WINDOW = 100


@dataclass(frozen=True)
class OptimConfig:
    steps: int = 2000

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("require steps >= 1")


@dataclass
class OptimReport:
    final_loss: float
    steps_run: int
    loss_trace: list[float] = field(default_factory=list)


def loss(latents: np.ndarray, received: np.ndarray, spec: ChannelSpec,
         tokenizer: Tokenizer) -> float:
    decoded = tokenizer.decode_continuous(latents)
    if decoded.shape != received.shape:
        raise ShapeMismatch(f"{decoded.shape} vs {received.shape}")
    return float(np.linalg.norm(received - chan.apply_smooth(spec, decoded)))


def loss_and_gradient(latents: np.ndarray, received: np.ndarray,
                      spec: ChannelSpec, tokenizer: Tokenizer,
                      ) -> tuple[float, np.ndarray]:
    """Analytic gradient via the chain rule; matches central differences."""
    decoded, cells = tokenizer.decode_continuous(latents, with_cells=True)
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


class _BudgetSpent(Exception):
    """Raised inside the L-BFGS objective once the evaluation cap is used."""


def _adam(z: np.ndarray, evaluate, steps: int) -> np.ndarray:
    """Adam with fresh moments from `z`, for at most `steps` evaluations.

    `evaluate(z)` returns (loss, gradient).
    """
    m = np.zeros_like(z)
    v = np.zeros_like(z)
    best_recent = np.inf
    since_improvement = 0
    for t in range(1, steps + 1):
        value, g = evaluate(z)
        if value < best_recent - PLATEAU_TOL:
            best_recent = value
            since_improvement = 0
        else:
            since_improvement += 1
            if since_improvement >= PLATEAU_WINDOW:
                return z
        m = BETA1 * m + (1.0 - BETA1) * g
        v = BETA2 * v + (1.0 - BETA2) * g * g
        m_hat = m / (1.0 - BETA1**t)
        v_hat = v / (1.0 - BETA2**t)
        z = z - LEARNING_RATE * m_hat / (np.sqrt(v_hat) + EPS)
    return z


def optimize_tokens(received: np.ndarray, spec: ChannelSpec,
                    tokenizer: Tokenizer, config: OptimConfig,
                    ) -> tuple[np.ndarray, OptimReport]:
    """L-BFGS then Adam over continuous latents, then one quantization.

    `config.steps` caps the evaluations of `loss_and_gradient` summed over
    both phases. Between the initial re-encoded grid and the optimized grid,
    the one that re-simulates closer to the received image (a receiver-side
    quantity) is returned, so the result never loses to plain re-encoding on
    a deterministic channel.
    """
    z = tokenizer.encode(received)
    init_grid = tokenizer.quantize(z)

    trace: list[float] = []
    stride = max(1, config.steps // 100)
    evals = 0
    value = loss(z, received, spec, tokenizer)
    best_value, best_z = np.inf, z

    def evaluate(latents: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal evals, value
        value, g = loss_and_gradient(latents, received, spec, tokenizer)
        evals += 1
        if not np.isfinite(value):
            raise NonFiniteLoss(f"loss diverged at evaluation {evals}")
        if evals % stride == 1 or stride == 1:
            trace.append(value)
        return value, g

    def squared(x: np.ndarray) -> tuple[float, np.ndarray]:
        # scipy checks its own maxfun only between iterations, so a line
        # search could overrun the cap; stop it here instead
        nonlocal best_value, best_z
        if evals == config.steps:
            raise _BudgetSpent
        latents = x.reshape(z.shape)
        val, g = evaluate(latents)
        if val < best_value:
            best_value, best_z = val, latents.copy()
        return val * val, (2.0 * val * g).ravel()

    try:
        minimize(squared, z.ravel(), method="L-BFGS-B", jac=True,
                 options={"maxcor": LBFGS_MAXCOR, "ftol": LBFGS_FTOL,
                          "gtol": LBFGS_GTOL})
    except _BudgetSpent:
        pass
    z = _adam(best_z, evaluate, config.steps - evals)

    opt_grid = tokenizer.quantize(z)

    def resim_loss(grid: np.ndarray) -> float:
        sim = chan.apply(spec, tokenizer.decode(grid))
        return float(np.linalg.norm(received - sim))

    final_grid = init_grid
    if not np.array_equal(opt_grid, init_grid):
        if resim_loss(opt_grid) < resim_loss(init_grid):
            final_grid = opt_grid

    return final_grid, OptimReport(final_loss=value, steps_run=evals,
                                   loss_trace=trace)
