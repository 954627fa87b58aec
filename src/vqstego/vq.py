"""Toy VQ tokenizer: seeded codebook, affine-tanh decoder, exact inverse encoder.

The decoder maps each cell's codebook vector through a fixed seeded affine
map to a p x p x C pixel patch, then squashes with tanh(alpha * u). The
encoder inverts it in closed form (atanh + left pseudo-inverse), so on a
noiseless channel quantize(encode(decode(q))) == q exactly and all decoder
gradients are available analytically for the optimizer.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial.distance import pdist

from .errors import (DegenerateCodebook, IndexOutOfRange, MalformedInput,
                     ShapeMismatch)

_MAGIC = b"VQI2"
_ATANH_EPS = 1e-6
_CHANNELS = 3


@dataclass(frozen=True)
class Codebook:
    """N x d matrix of pairwise-distinct rows, each rescaled to unit RMS."""

    vectors: np.ndarray
    min_distance: float

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def build_codebook(seed: int, n: int, d: int) -> Codebook:
    if n < 2 or d < 1:
        raise ValueError("need n >= 2, d >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    vectors = rng.standard_normal((n, d))
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    vectors = vectors / norms * np.sqrt(d)
    min_distance = float(pdist(vectors).min())
    if min_distance < 1e-6:
        raise DegenerateCodebook(
            f"minimum pairwise distance {min_distance} below 1e-6")
    return Codebook(vectors=vectors, min_distance=min_distance)


@dataclass(frozen=True)
class Tokenizer:
    """Codebook plus the decoder/encoder pair and grid geometry."""

    codebook: Codebook
    weight: np.ndarray      # (p*p*C, d)
    bias: np.ndarray        # (p*p*C,)
    weight_pinv: np.ndarray
    alpha: float
    patch: int
    grid_h: int
    grid_w: int

    @property
    def height(self) -> int:
        return self.grid_h * self.patch

    @property
    def width(self) -> int:
        return self.grid_w * self.patch

    @property
    def image_shape(self) -> tuple[int, int, int]:
        return (self.height, self.width, _CHANNELS)

    def _check_grid(self, grid: np.ndarray) -> np.ndarray:
        grid = np.asarray(grid)
        if grid.shape != (self.grid_h, self.grid_w):
            raise ShapeMismatch(
                f"grid {grid.shape} != {(self.grid_h, self.grid_w)}")
        if grid.min() < 0 or grid.max() >= self.codebook.size:
            raise IndexOutOfRange("token index outside the codebook")
        return grid

    def decode_continuous(self, latents: np.ndarray, with_cells: bool = False
                          ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Affine map plus tanh squashing on raw latent vectors.

        With `with_cells`, also returns the tanh output in cell layout,
        (cells, p*p*C), which `grad_latents` takes.
        """
        h, w, p = self.grid_h, self.grid_w, self.patch
        if latents.shape != (h, w, self.codebook.dim):
            raise ShapeMismatch(f"latents {latents.shape}")
        pre = latents.reshape(h * w, -1) @ self.weight.T + self.bias
        # tanh saturates to +-1 long before alpha * pre overflows to +-inf
        with np.errstate(over="ignore"):
            x = np.tanh(self.alpha * pre)
        image = (x.reshape(h, w, p, p, _CHANNELS)
                  .transpose(0, 2, 1, 3, 4)
                  .reshape(h * p, w * p, _CHANNELS))
        return (image, x) if with_cells else image

    @cached_property
    def patch_table(self) -> np.ndarray:
        """Every token's decoded patch, (tokens, p, p, C), built on first
        use: the rows `decode_continuous` computes for codebook vectors."""
        table = self.codebook.vectors @ self.weight.T
        table += self.bias
        with np.errstate(over="ignore"):
            table *= self.alpha
        np.tanh(table, out=table)
        table.flags.writeable = False
        return table.reshape(-1, self.patch, self.patch, _CHANNELS)

    def decode(self, grid: np.ndarray) -> np.ndarray:
        """`decode_continuous(codebook.vectors[grid])`, gathered from the
        patch table."""
        grid = self._check_grid(grid)
        h, w, p = self.grid_h, self.grid_w, self.patch
        return (self.patch_table[grid]
                    .transpose(0, 2, 1, 3, 4)
                    .reshape(h * p, w * p, _CHANNELS))

    def _patches(self, image: np.ndarray) -> np.ndarray:
        h, w, p = self.grid_h, self.grid_w, self.patch
        if image.shape != self.image_shape:
            raise ShapeMismatch(f"image {image.shape} != {self.image_shape}")
        return (image.reshape(h, p, w, p, _CHANNELS)
                     .transpose(0, 2, 1, 3, 4)
                     .reshape(h * w, p * p * _CHANNELS))

    def encode(self, image: np.ndarray) -> np.ndarray:
        """Closed-form inverse of decode_continuous (clamped atanh + pinv)."""
        patches = self._patches(image)
        u = np.arctanh(np.clip(patches, -1.0 + _ATANH_EPS,
                               1.0 - _ATANH_EPS)) / self.alpha
        z = (u - self.bias) @ self.weight_pinv.T
        return z.reshape(self.grid_h, self.grid_w, self.codebook.dim)

    def grad_latents(self, image_grad: np.ndarray,
                     cells: np.ndarray) -> np.ndarray:
        """Chain image-space gradient back through tanh and the affine map.

        `cells` is the decoder's cell-layout tanh output, from
        `decode_continuous(latents, with_cells=True)`.
        """
        patches_g = self._patches(image_grad)
        pre_g = patches_g * self.alpha * (1.0 - cells * cells)
        return (pre_g @ self.weight).reshape(
            self.grid_h, self.grid_w, self.codebook.dim)

    def quantize(self, latents: np.ndarray) -> np.ndarray:
        """Nearest codebook row per cell; ties resolve to the lowest index."""
        h, w = self.grid_h, self.grid_w
        if latents.shape != (h, w, self.codebook.dim):
            raise ShapeMismatch(f"latents {latents.shape}")
        if not np.all(np.isfinite(latents)):
            raise ValueError("latents must be finite")
        flat = latents.reshape(h * w, 1, -1)
        d2 = ((flat - self.codebook.vectors[None, :, :]) ** 2).sum(axis=2)
        return d2.argmin(axis=1).reshape(h, w)


def build_tokenizer(decoder_seed: int, codebook: Codebook, patch: int,
                    grid_h: int, grid_w: int, alpha: float,
                    weight_scale: float, bias_scale: float = 0.0) -> Tokenizer:
    rng = np.random.Generator(np.random.PCG64(decoder_seed))
    out_dim = patch * patch * _CHANNELS
    with np.errstate(over="ignore"):
        weight = rng.standard_normal((out_dim, codebook.dim)) * weight_scale
        bias = rng.standard_normal(out_dim) * bias_scale
    if not (np.isfinite(weight).all() and np.isfinite(bias).all()):
        raise MalformedInput(f"decoder weight_scale {weight_scale:g} or "
                             f"bias_scale {bias_scale:g} overflows")
    # a weight_scale near the smallest double has no finite pseudo-inverse
    with np.errstate(over="ignore", invalid="ignore"):
        weight_pinv = np.linalg.pinv(weight)
    if not np.isfinite(weight_pinv).all():
        raise MalformedInput(f"decoder weight_scale {weight_scale:g} has no "
                             f"finite encoder")
    return Tokenizer(codebook=codebook, weight=weight, bias=bias,
                     weight_pinv=weight_pinv, alpha=alpha,
                     patch=patch, grid_h=grid_h, grid_w=grid_w)


def write_image(path, image: np.ndarray) -> None:
    """Canonical flat binary format: 16-byte header + LE float64 row-major,
    so a file holds exactly the pixels the pipeline computed."""
    h, w, c = image.shape
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<III", h, w, c))
        f.write(image.astype("<f8").tobytes())


def read_image(path) -> np.ndarray:
    """Read a .vqi file; every pixel must be finite and in [-1, 1]."""
    try:
        return _read_image(path)
    except OSError as exc:
        raise MalformedInput(f"cannot read image {path}: {exc}") from None


def _read_image(path) -> np.ndarray:
    with open(path, "rb") as f:
        header = f.read(16)
        if len(header) != 16 or header[:4] != _MAGIC:
            raise MalformedInput(f"{path}: not a {_MAGIC!r} image file")
        h, w, c = struct.unpack("<III", header[4:])
        if 0 in (h, w, c):
            raise MalformedInput(f"{path}: a {h}x{w}x{c} image has no pixels")
        body = f.read()
    if len(body) != 8 * h * w * c:
        raise MalformedInput(f"{path}: pixel data is {len(body)} bytes, "
                             f"header says {8 * h * w * c}")
    data = np.frombuffer(body, dtype="<f8")
    if not np.all(np.isfinite(data)):
        raise MalformedInput(f"{path}: non-finite pixel values")
    if np.abs(data).max(initial=0.0) > 1.0:
        raise MalformedInput(f"{path}: pixel values outside [-1, 1]")
    return data.reshape(h, w, c).astype(np.float64)


def export_ppm(path, image: np.ndarray) -> None:
    """Lossy 8-bit export for eyeballing; the float binary is canonical."""
    h, w, _ = image.shape
    raw = np.clip((image + 1.0) * 127.5, 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode())
        f.write(raw.tobytes())
