"""Stage-2 token recovery: a continuous solve, then an exact discrete search.

`optimize_tokens` starts from the encoder's continuous latents for the
received lossy image, whose quantization is the stage-1 grid, and runs
L-BFGS-B on the squared L2 discrepancy between that image and the
re-decoded image pushed through the smooth channel surrogate, then quantizes
its best point to tokens. The receiver needs tokens, not the continuous
optimum, so the solve stops once two checks in a row quantize its best point
to the same grid. `search_tokens` starts from whichever of the two grids has
the lower hard channel loss and runs iterated conditional modes on that
loss: each cell tries the image model's top-k support in its place, and
keeps the one that lowers the loss most. A candidate is scored on the
cell's own tile, on a small window around one cell at a time, not on the
whole image. The channel's stochastic stage is a frozen seeded field, so
both objectives are deterministic, and under a shared noise seed the true
token grid has a hard loss of exactly zero.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from . import channel as chan
from .channel import ChannelSpec
from .errors import NonFiniteLoss, ShapeMismatch
from .token_model import (Condition, ModelSpec, context_before,
                          next_distribution)
from .vq import Tokenizer
from .workspace import FRESH, Workspace


@dataclass(frozen=True)
class OptimConfig:
    steps: int = 2000

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("require steps >= 1")


# evaluations between two quantizations of the solve's best point. A check
# costs about 1.3 evaluations: median 0.76-0.81 ms against 0.60-0.63 ms per
# call over noisy-roundtrip operations, at one or two BLAS threads. A
# smaller value would change the evaluation counts every solve reports.
CHECK_EVERY = 10


@dataclass
class OptimReport:
    steps_run: int      # evaluations of `loss_and_gradient`
    start: np.ndarray   # the quantized start point: the stage-1 grid
    # why the solve stopped: "settled" (two checks gave the same grid),
    # "cap" (`OptimConfig.steps` evaluations) or "scipy" (L-BFGS-B returned
    # on its own, with `message`)
    stop: str
    message: str = ""


def _norm(residual: np.ndarray) -> float:
    """The residual's 2-norm. einsum, not BLAS: a BLAS dot wakes its worker
    threads on every evaluation, which costs more than the dot itself."""
    return float(np.sqrt(np.einsum("ijk,ijk->", residual, residual)))


def loss(latents: np.ndarray, received: np.ndarray, spec: ChannelSpec,
         tokenizer: Tokenizer) -> float:
    decoded = tokenizer.decode_continuous(latents)
    if decoded.shape != received.shape:
        raise ShapeMismatch(f"{decoded.shape} vs {received.shape}")
    return _norm(received - chan.apply_smooth(spec, decoded))


def loss_and_gradient(latents: np.ndarray, received: np.ndarray,
                      spec: ChannelSpec, tokenizer: Tokenizer,
                      work: Workspace = FRESH) -> tuple[float, np.ndarray]:
    """Analytic gradient via the chain rule; matches central differences.

    The image-sized temporaries are arrays of `work`, which a caller that
    evaluates many times at one shape keeps; the gradient is a new array.
    """
    decoded, cells = tokenizer.decode_continuous(latents, True, work)
    if decoded.shape != received.shape:
        raise ShapeMismatch(f"{decoded.shape} vs {received.shape}")
    out, tape = chan.apply_smooth_with_tape(spec, decoded, work)
    residual = work.call("residual", np.subtract, received, out)
    value = _norm(residual)
    if value == 0.0:
        return 0.0, np.zeros_like(latents)
    # the gradient of the norm, -residual / value, in the residual's array
    grad_out = np.negative(residual, out=residual)
    grad_out /= value
    grad_decoded = chan.backward(tape, grad_out, work)
    # a huge decoder alpha and weight can overflow the gradient of an
    # unsaturated cell; `optimize_tokens` raises on a non-finite gradient
    with np.errstate(over="ignore"):
        return value, tokenizer.grad_latents(grad_decoded, cells, work)


# The image-sized arrays of the evaluations and checks, one set per thread
# and image shape, kept between solves: a process touches their pages once,
# whatever its allocator does with freed memory.
_workspaces = threading.local()


def _workspace(shape: tuple) -> Workspace:
    if getattr(_workspaces, "shape", None) != shape:
        _workspaces.shape, _workspaces.work = shape, Workspace()
    return _workspaces.work


class _Stop(Exception):
    """Raised inside the L-BFGS objective to end the solve; its one argument
    is `OptimReport.stop`."""


def optimize_tokens(received: np.ndarray, spec: ChannelSpec,
                    tokenizer: Tokenizer, config: OptimConfig,
                    ) -> tuple[np.ndarray, OptimReport]:
    """L-BFGS-B over continuous latents from the re-encoded ones, then a
    quantization of the best point it evaluated.

    After every `CHECK_EVERY`-th evaluation the best point so far is
    quantized; the solve stops at the first check whose grid equals the
    previous check's. `config.steps` caps the evaluations of
    `loss_and_gradient`.
    """
    z = tokenizer.encode(received)
    start = tokenizer.quantize(z)
    # `_norm` sums in an order set by the memory layout, so `received` takes
    # the smooth channel output's layout, (H, C, W) after a rescale: the
    # C-order image a file read gives then runs the solve the channel's own
    # output does
    aligned = np.empty_like(
        chan.apply_smooth(spec, tokenizer.decode_continuous(z)))
    aligned[...] = received
    received = aligned
    work = _workspace(received.shape)
    evals = 0
    best_value, best_z = np.inf, z
    checked = None  # the grid of the last check

    def squared(x: np.ndarray) -> tuple[float, np.ndarray]:
        # scipy checks its own maxfun only between iterations, so a line
        # search could overrun the cap; stop it here instead
        nonlocal evals, best_value, best_z, checked
        if evals == config.steps:
            raise _Stop("cap")
        latents = x.reshape(z.shape)
        value, g = loss_and_gradient(latents, received, spec, tokenizer,
                                     work)
        evals += 1
        if not np.isfinite(value):
            raise NonFiniteLoss(f"loss diverged at evaluation {evals}")
        # a huge decoder alpha can overflow the gradient of an unsaturated
        # cell
        with np.errstate(over="ignore"):
            g = 2.0 * value * g
        if not np.isfinite(g).all():
            raise NonFiniteLoss(f"gradient diverged at evaluation {evals}")
        if value < best_value:
            best_value, best_z = value, latents.copy()
        if evals % CHECK_EVERY == 0:
            grid = tokenizer.quantize(best_z, work)
            if checked is not None and np.array_equal(grid, checked):
                raise _Stop("settled")
            checked = grid
        return value * value, g.ravel()

    try:
        result = minimize(squared, z.ravel(), method="L-BFGS-B", jac=True)
        report = OptimReport(evals, start, "scipy", str(result.message))
    except _Stop as stop:
        report = OptimReport(evals, start, stop.args[0])
    if report.stop == "settled":
        return checked, report
    return tokenizer.quantize(best_z), report


# -- discrete search ---------------------------------------------------------
#
# A cell's patch reaches the output pixels up to `reach` away from it, so
# cells (i, j) with i = a and j = b (mod period), period = 1 + ceil(2 *
# reach / patch), form a colour class whose output windows are disjoint.
# Cell (i, j)'s tile is the (period * patch)-pixel square whose corner is
# (i * patch - reach, j * patch - reach): it holds the cell's whole window,
# and the tiles of one class do not overlap. Changing a cell of a class
# therefore changes no other cell's tile, and the tile's residual depends only
# on the image within `reach` of it. `_score_class` scores each candidate on
# that (period * patch + 2 * reach)-pixel square alone; the whole image goes
# through the channel only to pick the cells to score, after a class changes,
# and for the loss the search returns.

def _period(patch: int, reach: int) -> int:
    return 1 + -(-2 * reach // patch)


def _colour_sum(x: np.ndarray) -> np.ndarray:
    """`x` summed over its last axis, one colour after the other."""
    total = x[..., 0].copy()
    for c in range(1, x.shape[-1]):
        total += x[..., c]
    return total


def _squared_residual(grid: np.ndarray, received: np.ndarray,
                      spec: ChannelSpec, tokenizer: Tokenizer) -> np.ndarray:
    """Hard-channel residual squared per pixel, summed over colour."""
    out = chan.apply(spec, tokenizer.decode(grid))
    return _colour_sum((received - out) ** 2)


def _tile_sums(sq: np.ndarray) -> np.ndarray:
    """Each t x t tile of an (n, k, t, t) batch summed, as (n, k): the
    search's one tile sum, for its zero test on the whole image and for
    every candidate's score on a window."""
    return np.ascontiguousarray(sq.transpose(0, 2, 1, 3)).sum(axis=(1, 3))


def _score_class(grid: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                 candidates: np.ndarray, received: np.ndarray,
                 plan: chan.ChannelPlan, tokenizer: Tokenizer,
                 period: int) -> np.ndarray:
    """Tile loss of cell (rows[c], cols[c]) holding candidates[c, s].

    The cells must all lie in one colour class. Each (cell, candidate) pair
    runs `plan`'s hard channel on one window only: the cell's tile and the
    `reach` pixels around it, cut from the decoded grid, with the
    candidate's patch in the cell. Pixels outside the image count for
    nothing. The windows go through the channel one cell at a time, all of
    its candidates together, so the cost grows with the number of cells
    scored, not with the image area.
    """
    reach = plan.reach
    p = tokenizer.patch
    t = period * p
    size = t + 2 * reach
    top, left = rows * p - 2 * reach, cols * p - 2 * reach
    base = chan.crop_windows(tokenizer.decode(grid), top, left, size)
    target = chan.crop_windows(received, top + reach, left + reach, t)
    inside = chan.crop_windows(np.ones(received.shape[:2]), top + reach,
                               left + reach, t)[..., None]
    cell = slice(2 * reach, 2 * reach + p)
    losses = np.empty(candidates.shape)
    for c in range(len(rows)):
        part = slice(c, c + 1)
        windows = np.repeat(base[part, None], candidates.shape[1], axis=1)
        windows[:, :, cell, cell] = tokenizer.patch_table[candidates[part]]
        out = plan.run_windows(windows, top[part], left[part])
        np.clip(out, -1.0, 1.0, out=out)
        np.subtract(target[part, None], out, out=out)
        out *= inside[part, None]
        losses[part] = _tile_sums(_colour_sum(np.square(out, out=out)))
    return losses


def search_tokens(reencoded: np.ndarray, optimized: np.ndarray,
                  received: np.ndarray, spec: ChannelSpec,
                  tokenizer: Tokenizer, model: ModelSpec,
                  condition: Condition) -> tuple[np.ndarray, float]:
    """Iterated conditional modes (Besag 1986) on the hard channel loss
    ||received - chan.apply(spec, tokenizer.decode(grid))||.

    Starts from `optimized` only if its hard loss is strictly below that of
    `reencoded`, so the result never loses to plain re-encoding. Sweeps the
    colour classes in turn. A cell whose tile residual is zero cannot
    improve and is skipped; every other cell of the class scores its top-k
    support under the current prefix and takes the candidate with the
    lowest tile loss, if that is strictly below the current token's, scored
    in the same batch. A candidate equal to the current token is never
    taken. Each change strictly lowers the hard loss, so the search ends: it
    stops after a sweep that changes nothing. Returns the grid and its hard
    loss.
    """
    grid = np.array(reencoded)
    sq = _squared_residual(grid, received, spec, tokenizer)
    if not np.array_equal(optimized, grid):
        sq_opt = _squared_residual(optimized, received, spec, tokenizer)
        if sq_opt.sum() < sq.sum():
            grid, sq = np.array(optimized), sq_opt
    patch = tokenizer.patch
    plan = chan.compile_channel(spec, received.shape)
    period = _period(patch, plan.reach)
    t = period * patch
    flat = grid.ravel()
    changed = True
    while changed:
        changed = False
        for a in range(period):
            for b in range(period):
                rows, cols = np.mgrid[a:grid.shape[0]:period,
                                      b:grid.shape[1]:period]
                tiles = chan.crop_windows(
                    sq, rows.ravel() * patch - plan.reach,
                    cols.ravel() * patch - plan.reach, t)
                m, n = np.nonzero(
                    _tile_sums(tiles.reshape(*rows.shape, t, t)))
                if len(m) == 0:
                    continue
                rows, cols = rows[m, n], cols[m, n]
                supports = np.array([
                    next_distribution(model, condition,
                                      context_before(flat, pos, model),
                                      pos).token_ids
                    for pos in (rows * grid.shape[1] + cols).tolist()])
                # column 0 is the current token, scored like the others
                current = grid[rows, cols]
                losses = _score_class(grid, rows, cols,
                                      np.column_stack([current, supports]),
                                      received, plan, tokenizer, period)
                now, losses = losses[:, 0], losses[:, 1:]
                losses[supports == current[:, None]] = np.inf
                best = losses.argmin(axis=1)
                better = losses[np.arange(len(best)), best] < now
                if better.any():
                    grid[rows[better], cols[better]] = \
                        supports[better, best[better]]
                    sq = _squared_residual(grid, received, spec, tokenizer)
                    changed = True
    return grid, float(np.sqrt(sq.sum()))
