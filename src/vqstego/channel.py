"""Channel noise simulation with a differentiability contract.

A channel is an ordered stage list over {Gaussian, Quantize, Rescale}. The
Gaussian field is a pure function of (noise_seed, stage index, image shape),
so a sender simulating the channel with the receiver's seed reproduces the
receiver's lossy image exactly. `apply` is the hard channel; `apply_smooth`
is the optimizer-facing surrogate: straight-through quantization and a soft
clip that is identity on [-1+m, 1-m]. Both run a `ChannelPlan`, compiled
once per (spec, image shape): the seeded noise fields are drawn once, and
the rescale operators and their transposes are built once, in banded form.
"""

from __future__ import annotations

import hashlib
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
                if stage.sigma < 0:
                    raise ValueError
            elif name == "quantize":
                stage = QuantizeStage(int(arg))
                if stage.levels < 2:
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


@lru_cache(maxsize=64)
def _rescale_matrices(n: int, factor: float) -> tuple[np.ndarray, np.ndarray]:
    """Down-then-up operator along one axis, returned as (forward, transpose)."""
    n_mid = int(round(n * factor))
    a = _read_only(_interp_matrix(n, n_mid) @ _interp_matrix(n_mid, n))
    return a, a.T


# Rows per block of a banded operator, chosen by measurement on 96-pixel
# axes: 8 and 16 were fastest of 8-96, 24 and up slower. Each block product
# sums an output's terms in the dense product's order, so the result is
# bit-identical to it on OpenBLAS 0.3.31 at 8, 16, 24, 32, 48 and 96, but
# not at 20, nor at 12 for factor 0.5. That rests on the BLAS kernel, so
# re-check it when the block size or the BLAS changes.
_BAND_BLOCK = 16


@dataclass(frozen=True, eq=False)
class _Banded:
    """An n x n operator of half-bandwidth `band`, cut into row blocks.

    Block r holds rows [r*bs, (r+1)*bs) over columns [r*bs - band,
    (r+1)*bs + band), zero outside the matrix. Block r times the matching
    window of an input zero-padded by `band` on both sides gives those rows
    of the product; the last block may run past row n.
    """

    band: int
    blocks: np.ndarray      # (n_blocks, bs, bs + 2*band), for A @ x
    blocks_t: np.ndarray    # (n_blocks, bs + 2*band, bs), for x @ A.T


def _banded(a: np.ndarray) -> _Banded:
    n = a.shape[0]
    rows, cols = np.nonzero(a)
    band = int(np.abs(rows - cols).max(initial=0))
    bs = min(_BAND_BLOCK, n)
    n_blocks = -(-n // bs)
    full = np.zeros((n_blocks * bs, n_blocks * bs + 2 * band))
    full[:n, band:band + n] = a
    blocks = np.stack([full[r * bs:(r + 1) * bs,
                            r * bs:(r + 1) * bs + 2 * band]
                       for r in range(n_blocks)])
    blocks_t = np.ascontiguousarray(blocks.transpose(0, 2, 1))
    return _Banded(band, _read_only(blocks), _read_only(blocks_t))


@lru_cache(maxsize=64)
def _rescale_banded(n: int, factor: float) -> tuple[_Banded, _Banded]:
    """`_rescale_matrices` in banded form, as (forward, transpose)."""
    a, at = _rescale_matrices(n, factor)
    return _banded(a), _banded(at)


def _windows(a: np.ndarray, axis: int, count: int, step: int,
             length: int) -> np.ndarray:
    """`count` views of 2-D `a`, `length` long and `step` apart on `axis`."""
    shape = list(a.shape)
    shape[axis] = length
    return as_strided(a, shape=(count, *shape),
                      strides=(step * a.strides[axis], *a.strides))


def _apply_banded(ah: _Banded, aw: _Banded, x: np.ndarray) -> np.ndarray:
    """out[i,l,c] = ah[i,j] x[j,k,c] aw[l,k], in (H, C, W) memory.

    H is contracted first, then W, each as one batched matmul over windows
    of a zero-padded (H, C, W) copy. The H pass multiplies the same W*C
    columns as a dense product would; OpenBLAS sums some column counts
    (e.g. W*C padded to 300) in another order. The output layout fixes the
    summation order of any norm taken over it.
    """
    h, w, c = x.shape
    n_blocks, bs, k = ah.blocks.shape
    pad = np.zeros((n_blocks * bs + 2 * ah.band, c, w))
    pad[ah.band:ah.band + h] = x.transpose(0, 2, 1)
    y = ah.blocks @ _windows(pad.reshape(len(pad), -1), 0, n_blocks, bs, k)

    n_blocks, k, bs = aw.blocks_t.shape
    pad = np.zeros((h, c, n_blocks * bs + 2 * aw.band))
    pad[:, :, aw.band:aw.band + w] = y.reshape(-1, c, w)[:h]
    pad = pad.reshape(h * c, -1)
    out = np.empty((h * c, n_blocks * bs))
    np.matmul(_windows(pad, 1, n_blocks, bs, k), aw.blocks_t,
              out=_windows(out, 1, n_blocks, bs, bs))
    out = out.reshape(h, c, -1)
    if out.shape[2] != w:
        out = np.ascontiguousarray(out[:, :, :w])
    return out.transpose(0, 2, 1)


def _quantize_values(x: np.ndarray, levels: int) -> np.ndarray:
    y = x + 1.0
    y /= 2.0
    y *= levels - 1
    np.round(y, out=y)
    y /= levels - 1
    y *= 2.0
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
    decay = np.exp(-(absx[idx] - (1.0 - m)) / m)
    flat_y[idx] = np.sign(flat_y[idx]) * (1.0 - m * decay)
    flat_dy[idx] = decay
    return y, dy


@dataclass(frozen=True, eq=False)
class _AddNoise:
    noise: np.ndarray       # sigma times the frozen Gaussian field

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x + self.noise


@dataclass(frozen=True)
class _Quantize:
    levels: int

    def forward(self, x: np.ndarray) -> np.ndarray:
        return _quantize_values(x, self.levels)


@dataclass(frozen=True, eq=False)
class _Rescale:
    ah: _Banded
    aw: _Banded
    aht: _Banded
    awt: _Banded

    def forward(self, x: np.ndarray) -> np.ndarray:
        return _apply_banded(self.ah, self.aw, x)

    def pullback(self, g: np.ndarray) -> np.ndarray:
        return _apply_banded(self.aht, self.awt, g)


@dataclass(frozen=True, eq=False)
class ChannelPlan:
    """A channel compiled for one image shape: built once, then only read.

    `ops` are the stages that change an image, in channel order. Gaussian
    and quantize stages pass gradients straight through, so the backward
    pass needs only the rescale stages, held last-first in `pullbacks`.
    """

    ops: tuple[_AddNoise | _Quantize | _Rescale, ...]
    pullbacks: tuple[_Rescale, ...]

    def run(self, image: np.ndarray) -> np.ndarray:
        x = np.asarray(image, dtype=np.float64)
        for op in self.ops:
            x = op.forward(x)
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
    (noise fields, quantize levels, rescale operators), all read-only.
    """
    ops: list = []
    for index, stage in enumerate(spec.stages):
        if isinstance(stage, GaussianStage):
            if stage.sigma > 0.0:
                noise = stage.sigma * _noise_field(spec, index, shape)
                ops.append(_AddNoise(_read_only(noise)))
        elif isinstance(stage, QuantizeStage):
            ops.append(_Quantize(stage.levels))
        elif isinstance(stage, RescaleStage) and stage.factor != 1.0:
            ah, aht = _rescale_banded(shape[0], stage.factor)
            aw, awt = _rescale_banded(shape[1], stage.factor)
            ops.append(_Rescale(ah, aw, aht, awt))
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
