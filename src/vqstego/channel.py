"""Channel noise simulation with a differentiability contract.

A channel is an ordered stage list over {Gaussian, Quantize, Rescale}. The
Gaussian field is a pure function of (noise_seed, stage index, image shape),
so a sender simulating the channel with the receiver's seed reproduces the
receiver's lossy image exactly. `apply` is the hard channel; `apply_smooth`
is the optimizer-facing surrogate: straight-through quantization and a soft
clip that is identity on [-1+m, 1-m]. Both run a `ChannelPlan`, compiled
once per (spec, image shape): the seeded noise fields are drawn once, and
the rescale operators and their transposes are cut once into row blocks.
`ChannelPlan.run_windows` runs the same stages on a batch of small windows
of the image, for a caller that changes one patch at a time.
"""

from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import MalformedInput

_SOFT_MARGIN = 0.01


@dataclass(frozen=True)
class GaussianStage:
    sigma: float

    def __str__(self):
        return f"gaussian:{self.sigma:g}"


@dataclass(frozen=True)
class QuantizeStage:
    levels: int

    def __str__(self):
        return f"quantize:{self.levels}"


@dataclass(frozen=True)
class RescaleStage:
    factor: float

    def __str__(self):
        return f"rescale:{self.factor:g}"


Stage = Union[GaussianStage, QuantizeStage, RescaleStage]


@dataclass(frozen=True)
class ChannelSpec:
    stages: tuple[Stage, ...] = ()
    noise_seed: int = 0

    def __str__(self):
        return ",".join(str(s) for s in self.stages) or "lossless"

    def with_seed(self, noise_seed: int) -> "ChannelSpec":
        return ChannelSpec(self.stages, noise_seed)


def parse_channel(text: str, noise_seed: int = 0) -> ChannelSpec:
    """Parse e.g. "gaussian:0.01,quantize:32,rescale:0.5"."""
    text = text.strip()
    if not text or text == "lossless":
        return ChannelSpec((), noise_seed)
    stages: list[Stage] = []
    for part in text.split(","):
        try:
            name, _, arg = part.strip().partition(":")
            if name == "gaussian":
                stage: Stage = GaussianStage(float(arg))
                if not 0 <= stage.sigma < math.inf:
                    raise ValueError
            elif name == "quantize":
                stage = QuantizeStage(int(arg))
                # the stage computes with levels - 1 as a double
                if not 2 <= stage.levels <= sys.float_info.max:
                    raise ValueError
            elif name == "rescale":
                stage = RescaleStage(float(arg))
                if stage.factor not in (0.5, 1.0, 2.0):
                    raise ValueError
            else:
                raise ValueError
        except ValueError:
            raise MalformedInput(f"bad channel stage {part!r}") from None
        stages.append(stage)
    return ChannelSpec(tuple(stages), noise_seed)


def _noise_field(spec: ChannelSpec, index: int, shape: tuple) -> np.ndarray:
    h = hashlib.blake2b(digest_size=16)
    h.update(b"channel-noise")
    h.update(spec.noise_seed.to_bytes(8, "big", signed=True))
    h.update(index.to_bytes(4, "big"))
    rng = np.random.Generator(np.random.PCG64(int.from_bytes(h.digest(), "big")))
    return rng.standard_normal(shape)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=64)
def _interp_matrix(n_out: int, n_in: int) -> np.ndarray:
    """Bilinear (half-pixel convention) 1-D interpolation matrix."""
    m = np.zeros((n_out, n_in))
    src = (np.arange(n_out) + 0.5) * n_in / n_out - 0.5
    src = np.clip(src, 0.0, n_in - 1.0)
    i0 = np.floor(src).astype(int)
    i1 = np.minimum(i0 + 1, n_in - 1)
    w1 = src - i0
    m[np.arange(n_out), i0] += 1.0 - w1
    m[np.arange(n_out), i1] += w1
    return _read_only(m)


def _rescale_matrix(n: int, factor: float) -> np.ndarray:
    """Down-then-up operator along one axis."""
    n_mid = int(round(n * factor))
    return _read_only(_interp_matrix(n, n_mid) @ _interp_matrix(n_mid, n))


# Rows per block of a banded operator, chosen by measurement on 96-pixel
# axes: 8 and 16 were fastest of 8-96, 24 and up slower. Each block product
# sums an output's terms in the dense product's order, so the result is
# bit-identical to it on OpenBLAS 0.3.31 at 8, 16, 24, 32, 48 and 96, but
# not at 20, nor at 12 for factor 0.5. That rests on the BLAS kernel, so
# re-check it when the block size or the BLAS changes.
_BAND_BLOCK = 16


def _row_blocks(a: np.ndarray, starts: np.ndarray, size: int,
                band: int) -> np.ndarray:
    """(len(starts), size, size + 2*band) blocks of square `a`: rows
    [s, s + size) over columns [s - band, s + size + band) for each start
    s, zero outside `a`."""
    return crop_windows(a, starts - band, starts - band,
                        size + 2 * band)[:, band:band + size]


def _bandwidth(a: np.ndarray) -> int:
    rows, cols = np.nonzero(a)
    return int(np.abs(rows - cols).max(initial=0))


def _image_blocks(a: np.ndarray, transposed: bool = False) -> np.ndarray:
    """`a` cut into `_BAND_BLOCK`-row blocks over its own bandwidth, for
    `_apply_banded`; the last block may run past row n. Stored C-contiguous
    and read-only, each block transposed if `transposed`."""
    bs = min(_BAND_BLOCK, len(a))
    blocks = _row_blocks(a, np.arange(0, len(a), bs), bs, _bandwidth(a))
    if transposed:
        blocks = blocks.transpose(0, 2, 1)
    return _read_only(np.ascontiguousarray(blocks))


def _windows(a: np.ndarray, axis: int, count: int, step: int,
             length: int) -> np.ndarray:
    """`count` views of 2-D `a`, `length` long and `step` apart on `axis`."""
    shape = list(a.shape)
    shape[axis] = length
    return as_strided(a, shape=(count, *shape),
                      strides=(step * a.strides[axis], *a.strides))


def _apply_banded(bh: np.ndarray, bw: np.ndarray,
                  x: np.ndarray) -> np.ndarray:
    """out[i,l,c] = ah[i,j] x[j,k,c] aw[l,k], in (H, C, W) memory, from
    bh = `_image_blocks(ah)` and bw = `_image_blocks(aw, transposed=True)`.

    H is contracted first, then W, each as one batched matmul over windows
    of a zero-padded (H, C, W) copy. The H pass multiplies the same W*C
    columns as a dense product would; OpenBLAS sums some column counts
    (e.g. W*C padded to 300) in another order. The output layout fixes the
    summation order of any norm taken over it.
    """
    h, w, c = x.shape
    n_blocks, bs, k = bh.shape
    band = (k - bs) // 2
    pad = np.zeros((n_blocks * bs + 2 * band, c, w))
    pad[band:band + h] = x.transpose(0, 2, 1)
    y = bh @ _windows(pad.reshape(len(pad), -1), 0, n_blocks, bs, k)

    n_blocks, k, bs = bw.shape
    band = (k - bs) // 2
    pad = np.zeros((h, c, n_blocks * bs + 2 * band))
    pad[:, :, band:band + w] = y.reshape(-1, c, w)[:h]
    pad = pad.reshape(h * c, -1)
    out = np.empty((h * c, n_blocks * bs))
    np.matmul(_windows(pad, 1, n_blocks, bs, k), bw,
              out=_windows(out, 1, n_blocks, bs, bs))
    out = out.reshape(h, c, -1)
    if out.shape[2] != w:
        out = np.ascontiguousarray(out[:, :, :w])
    return out.transpose(0, 2, 1)


def crop_windows(a: np.ndarray, top: np.ndarray, left: np.ndarray,
                 size: int) -> np.ndarray:
    """(n, size, size, ...) squares of `a` with corners (top[i], left[i]);
    pixels outside `a` read as zero."""
    h, w = a.shape[:2]
    rows = top[:, None] + np.arange(size)
    cols = left[:, None] + np.arange(size)
    out = a[np.minimum(np.maximum(rows, 0), h - 1)[:, :, None],
            np.minimum(np.maximum(cols, 0), w - 1)[:, None, :]]
    if top.min() < 0 or top.max() + size > h:
        out[(rows < 0) | (rows >= h)] = 0.0
    if left.min() < 0 or left.max() + size > w:
        out.swapaxes(1, 2)[(cols < 0) | (cols >= w)] = 0.0
    return out


def _quantize_values(x: np.ndarray, levels: int) -> np.ndarray:
    """round((x + 1) / 2 * (L - 1)) / (L - 1) * 2 - 1 in four passes.

    Halving and doubling are exact in binary floating point, so scaling by
    h = (L - 1) / 2 rounds to the same doubles as the two-step form.
    """
    half = (levels - 1) / 2.0
    y = x + 1.0
    y *= half
    np.round(y, out=y)
    y /= half
    y -= 1.0
    return y


def _soft_clip(x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """C1 clip: identity inside [-(1-m), 1-m], saturating to +-1 outside.

    Returns (y, dy). When no element lies outside the margin, y is x itself
    and dy is None (the identity Jacobian). Otherwise `exp` runs only on the
    elements outside, and y and dy keep x's memory layout, which fixes the
    summation order of any norm taken over them.
    """
    m = _SOFT_MARGIN
    if not (np.abs(x) > 1.0 - m).any():
        return x, None
    y = x.copy(order="K")
    dy = np.ones_like(y)
    # y and dy are dense with equal strides, so their memory-order flat
    # forms are views that index the same elements
    flat_y, flat_dy = y.ravel(order="K"), dy.ravel(order="K")
    absx = np.abs(flat_y)
    idx = np.flatnonzero(absx > 1.0 - m)
    # far outside, the exponent overflows to -inf and decay is exactly 0
    with np.errstate(over="ignore"):
        decay = np.exp(-(absx[idx] - (1.0 - m)) / m)
    flat_y[idx] = np.sign(flat_y[idx]) * (1.0 - m * decay)
    flat_dy[idx] = decay
    return y, dy


# Each op's `forward_windows(x, top, left)` takes a batch of windows
# (n, k, s, s, C): k variants of the s-pixel square whose corner is image
# pixel (top[i], left[i]). It returns the op's output on the square that
# starts `band` pixels further in, so a window shrinks by `band` per side.

@dataclass(frozen=True, eq=False)
class _AddNoise:
    noise: np.ndarray       # sigma times the frozen Gaussian field
    band = 0

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x + self.noise

    def forward_windows(self, x: np.ndarray, top: np.ndarray,
                        left: np.ndarray) -> np.ndarray:
        return x + crop_windows(self.noise, top, left, x.shape[2])[:, None]


@dataclass(frozen=True)
class _Quantize:
    levels: int
    band = 0

    def forward(self, x: np.ndarray) -> np.ndarray:
        return _quantize_values(x, self.levels)

    def forward_windows(self, x: np.ndarray, top: np.ndarray,
                        left: np.ndarray) -> np.ndarray:
        return _quantize_values(x, self.levels)


@dataclass(frozen=True, eq=False)
class _Rescale:
    """x -> dense_h @ x @ dense_w.T per colour. `forward` and `pullback`
    run it and its transpose on the whole image from `_image_blocks` of the
    operators; `forward_windows` cuts each window's block from the dense
    operators with the same `_row_blocks`."""

    dense_h: np.ndarray
    dense_w: np.ndarray
    band: int               # the larger half-bandwidth of the two
    forward_h: np.ndarray
    forward_w: np.ndarray
    pullback_h: np.ndarray
    pullback_w: np.ndarray

    def forward(self, x: np.ndarray) -> np.ndarray:
        return _apply_banded(self.forward_h, self.forward_w, x)

    def pullback(self, g: np.ndarray) -> np.ndarray:
        return _apply_banded(self.pullback_h, self.pullback_w, g)

    def forward_windows(self, x: np.ndarray, top: np.ndarray,
                        left: np.ndarray) -> np.ndarray:
        """Rows, then columns, each as one matmul per window position with
        that window's block of the dense operator; the k variants are
        stacked along the product's other axis.

        Each output sums its terms in `forward`'s order, so it equals
        `forward`'s bit for bit on OpenBLAS 0.3.31; as for `_BAND_BLOCK`,
        that rests on the BLAS kernel.
        """
        n, k, s, _, c = x.shape
        b = self.band
        out = s - 2 * b
        # the operator block that maps input [start, start + s) to output
        # [start + b, start + s - b), zero outside the image
        bh = _row_blocks(self.dense_h, top + b, out, b)
        bw = _row_blocks(self.dense_w, left + b, out, b)
        y = x.transpose(0, 1, 3, 4, 2).reshape(n, k * s * c, s)
        y = (y @ bh.transpose(0, 2, 1)).reshape(n, k, s, c, out)
        y = y.transpose(0, 1, 4, 3, 2).reshape(n, k * out * c, s)
        y = (y @ bw.transpose(0, 2, 1)).reshape(n, k, out, c, out)
        return y.transpose(0, 1, 2, 4, 3)


@lru_cache(maxsize=64)
def _rescale(h: int, w: int, factor: float) -> _Rescale:
    """The rescale stage for h x w images; read-only, so plans share it."""
    ah, aw = _rescale_matrix(h, factor), _rescale_matrix(w, factor)
    return _Rescale(ah, aw, max(_bandwidth(ah), _bandwidth(aw)),
                    _image_blocks(ah), _image_blocks(aw, True),
                    _image_blocks(ah.T), _image_blocks(aw.T, True))


@dataclass(frozen=True, eq=False)
class ChannelPlan:
    """A channel compiled for one image shape: built once, then only read.

    `ops` are the stages that change an image, in channel order. Gaussian
    and quantize stages pass gradients straight through, so the backward
    pass needs only the rescale stages, held last-first in `pullbacks`.
    """

    ops: tuple[_AddNoise | _Quantize | _Rescale, ...]
    pullbacks: tuple[_Rescale, ...]

    @property
    def reach(self) -> int:
        """How many pixels away, along either axis, an input pixel can move
        the output: the summed half-bandwidths of the rescale stages, since
        every other stage is elementwise."""
        return sum(op.band for op in self.ops)

    def run(self, image: np.ndarray) -> np.ndarray:
        x = np.asarray(image, dtype=np.float64)
        for op in self.ops:
            x = op.forward(x)
        return x

    def run_windows(self, windows: np.ndarray, top: np.ndarray,
                    left: np.ndarray) -> np.ndarray:
        """`run` on windows of an image: (n, k, s, s, C) holds k variants
        of the square whose corner is image pixel (top[i], left[i]).

        Returns (n, k, s - 2*reach, s - 2*reach, C): each output pixel of
        the square `reach` pixels further in, as `run` gives it for an
        image equal to the window inside it. Pixels outside the image carry
        no meaning on either side: an input one is never read, and an
        output one is for the caller to mask.
        """
        x = windows
        for op in self.ops:
            x = op.forward_windows(x, top, left)
            top, left = top + op.band, left + op.band
        return x

    def smooth(self,
               image: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        x = self.run(image)
        # with no stages, x may be the caller's array; never hand it back
        return _soft_clip(x if self.ops else x.copy(order="K"))


@lru_cache(maxsize=16)
def compile_channel(spec: ChannelSpec, shape: tuple) -> ChannelPlan:
    """The plan of `spec` for images of `shape`, cached per (spec, shape).

    A plan holds only constants that are pure functions of the public spec
    (noise fields, quantize levels, rescale operators), all read-only. An
    image too small to rescale and a spec whose values can overflow are
    `MalformedInput`.
    """
    ops: list = []
    # At least the largest absolute value a stage's input can take, for
    # inputs in [-1, 1]. Rescale rows are convex combinations, and a
    # quantize moves a value by at most 1 / (levels - 1), so only those and
    # the noise add.
    bound = 1.0
    for index, stage in enumerate(spec.stages):
        if isinstance(stage, GaussianStage):
            if stage.sigma > 0.0:
                with np.errstate(over="ignore"):
                    noise = stage.sigma * _noise_field(spec, index, shape)
                bound += float(np.abs(noise).max(initial=0.0))
                if not math.isfinite(bound):
                    raise MalformedInput(
                        f"channel stage {stage}: noise field overflows")
                ops.append(_AddNoise(_read_only(noise)))
        elif isinstance(stage, QuantizeStage):
            # `_quantize_values` scales x + 1 by (levels - 1) / 2
            if not math.isfinite((bound + 1.0) * (stage.levels - 1) / 2.0):
                raise MalformedInput(
                    f"channel stage {stage}: its input can reach "
                    f"{bound:g}, which overflows")
            bound += 1.0 / (stage.levels - 1)
            ops.append(_Quantize(stage.levels))
        elif isinstance(stage, RescaleStage) and stage.factor != 1.0:
            if min(round(n * stage.factor) for n in shape[:2]) < 1:
                raise MalformedInput(f"channel stage {stage}: image of "
                                     f"shape {shape} is too small")
            ops.append(_rescale(shape[0], shape[1], stage.factor))
    pullbacks = tuple(op for op in reversed(ops) if isinstance(op, _Rescale))
    return ChannelPlan(tuple(ops), pullbacks)


@dataclass(frozen=True, eq=False)
class Tape:
    """What `backward` needs from one smooth forward pass."""

    plan: ChannelPlan
    clip_grad: np.ndarray | None    # soft-clip derivative; None = identity


def _plan(spec: ChannelSpec, image: np.ndarray) -> ChannelPlan:
    return compile_channel(spec, np.shape(image))


def apply(spec: ChannelSpec, image: np.ndarray) -> np.ndarray:
    """Hard channel: stages in order, output clamped to [-1, 1]."""
    return np.clip(_plan(spec, image).run(image), -1.0, 1.0)


def apply_smooth(spec: ChannelSpec, image: np.ndarray) -> np.ndarray:
    """Differentiable surrogate used inside the optimization loop."""
    return _plan(spec, image).smooth(image)[0]


def apply_smooth_with_tape(spec: ChannelSpec,
                           image: np.ndarray) -> tuple[np.ndarray, Tape]:
    plan = _plan(spec, image)
    out, clip_grad = plan.smooth(image)
    return out, Tape(plan, clip_grad)


def backward(tape: Tape, grad_out: np.ndarray) -> np.ndarray:
    """Pull an output-space gradient back to the channel input.

    Where the channel's Jacobian is the identity, grad_out itself is
    returned.
    """
    g = grad_out if tape.clip_grad is None else grad_out * tape.clip_grad
    for op in tape.plan.pullbacks:
        g = op.pullback(g)
    return g
