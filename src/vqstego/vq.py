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
from .workspace import FRESH, Workspace

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

    def decode_continuous(self, latents: np.ndarray, with_cells: bool = False,
                          work: Workspace = FRESH
                          ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Affine map plus tanh squashing on raw latent vectors.

        With `with_cells`, also returns the tanh output in cell layout,
        (cells, p*p*C), which `grad_latents` takes. Both results are arrays
        of `work`.
        """
        h, w, p = self.grid_h, self.grid_w, self.patch
        if latents.shape != (h, w, self.codebook.dim):
            raise ShapeMismatch(f"latents {latents.shape}")
        pre = work.call("pre", np.matmul, latents.reshape(h * w, -1),
                        self.weight.T)
        pre += self.bias
        # tanh saturates to +-1 long before alpha * pre overflows to +-inf
        with np.errstate(over="ignore"):
            pre *= self.alpha
        x = np.tanh(pre, out=pre)
        image = work.empty("image", self.image_shape)
        image.reshape(h, p, w, p, _CHANNELS)[...] = (
            x.reshape(h, w, p, p, _CHANNELS).transpose(0, 2, 1, 3, 4))
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

    def _patches(self, image: np.ndarray,
                 work: Workspace = FRESH) -> np.ndarray:
        """`image` in cell layout, (cells, p*p*C), C-order."""
        h, w, p = self.grid_h, self.grid_w, self.patch
        if image.shape != self.image_shape:
            raise ShapeMismatch(f"image {image.shape} != {self.image_shape}")
        patches = work.empty("patches", (h * w, p * p * _CHANNELS))
        patches.reshape(h, w, p, p, _CHANNELS)[...] = (
            image.reshape(h, p, w, p, _CHANNELS).transpose(0, 2, 1, 3, 4))
        return patches

    def encode(self, image: np.ndarray) -> np.ndarray:
        """Closed-form inverse of decode_continuous (clamped atanh + pinv)."""
        patches = self._patches(image)
        u = np.arctanh(np.clip(patches, -1.0 + _ATANH_EPS,
                               1.0 - _ATANH_EPS)) / self.alpha
        z = (u - self.bias) @ self.weight_pinv.T
        return z.reshape(self.grid_h, self.grid_w, self.codebook.dim)

    def grad_latents(self, image_grad: np.ndarray, cells: np.ndarray,
                     work: Workspace = FRESH) -> np.ndarray:
        """Chain image-space gradient back through tanh and the affine map.

        `cells` is the decoder's cell-layout tanh output, from
        `decode_continuous(latents, with_cells=True)`. The temporaries are
        arrays of `work`; the result is a new array.
        """
        pre_g = self._patches(image_grad, work)
        pre_g *= self.alpha
        slope = work.call("slope", np.multiply, cells, cells)
        np.subtract(1.0, slope, out=slope)
        pre_g *= slope
        return (pre_g @ self.weight).reshape(
            self.grid_h, self.grid_w, self.codebook.dim)

    @cached_property
    def _expansion(self) -> tuple[np.ndarray, np.ndarray, float]:
        """-2 E^T, each row's squared norm and the largest row norm, for
        `quantize`'s expansion; built on first use."""
        vectors = self.codebook.vectors
        minus_two_t = np.ascontiguousarray(-2.0 * vectors.T)
        squares = np.einsum("ij,ij->i", vectors, vectors)
        minus_two_t.flags.writeable = squares.flags.writeable = False
        return minus_two_t, squares, float(np.sqrt(squares.max()))

    def quantize(self, latents: np.ndarray,
                 work: Workspace = FRESH) -> np.ndarray:
        """Nearest codebook row per cell; ties resolve to the lowest index.

        The nearest row is `argmin ((z - E)**2).sum(axis=1)`, this broadcast
        form as computed in floating point. A cheap pass first takes
        A(e) = ||e||^2 - 2 z.e for every row e with one einsum. (Not BLAS:
        a BLAS product of this size runs on two threads, and stalls when
        the second finds no free CPU.)

        A(e) + ||z||^2 differs from the exact squared distance by at most
        g_{d+1} M, and the broadcast form by at most g_{d+2} M, for any
        summation order of the product, where M = (||z|| + max ||e||)^2,
        g_n = n u / (1 - n u) and u = eps / 2. So the broadcast form's
        argmin lies among the rows whose A is within 2 g_{d+1} M +
        2 g_{d+2} M of the smallest A; the bound taken, 4 g_{d+3} M, also
        covers the rounding of the threshold. A cell with one such row
        takes it; every other cell, a near-tie or one whose bound
        overflows, takes the broadcast form's argmin over the whole
        codebook, so the result equals that form's for any d. The
        (cells x tokens) temporaries are arrays of `work`.
        """
        h, w, d = self.grid_h, self.grid_w, self.codebook.dim
        if latents.shape != (h, w, d):
            raise ShapeMismatch(f"latents {latents.shape}")
        if not np.all(np.isfinite(latents)):
            raise ValueError("latents must be finite")
        flat = latents.reshape(h * w, d)
        minus_two_t, squares, longest = self._expansion
        u = np.finfo(np.float64).eps / 2
        gamma = (d + 3) * u / (1 - (d + 3) * u)
        # huge latents overflow the bound: such cells take the exact pass
        with np.errstate(over="ignore", invalid="ignore"):
            approx = np.einsum("ij,jk->ik", flat, minus_two_t,
                               out=work.empty("approx", (h * w, len(squares))))
            approx += squares
            nearest = approx.argmin(axis=1)
            cells = np.arange(h * w)
            norms = np.sqrt(np.einsum("ij,ij->i", flat, flat))
            limit = (approx[cells, nearest]
                     + 4 * gamma * (norms + longest) ** 2)
            # a NaN limit counts no row and an infinite one every row
            near = np.count_nonzero(
                work.call("near", np.less_equal, approx, limit[:, None]),
                axis=1)
        exact = np.flatnonzero(near != 1)
        if len(exact):
            d2 = ((flat[exact, None, :] - self.codebook.vectors[None, :, :])
                  ** 2).sum(axis=2)
            nearest[exact] = d2.argmin(axis=1)
        return nearest.reshape(h, w)


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
    # for any image, `encode`'s latents are at most the pseudo-inverse's
    # largest absolute row sum times atanh(1 - eps) / |alpha| + max |bias| in
    # magnitude; they and `quantize`'s squared distances from them to the
    # codebook must stay finite, which a tiny alpha breaks
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        span = (np.abs(weight_pinv).sum(axis=1).max()
                * (np.arctanh(1.0 - _ATANH_EPS) / abs(alpha)
                   + np.abs(bias).max())
                + np.abs(codebook.vectors).max())
        finite = np.isfinite(span * span * codebook.dim)
    if not finite:
        raise MalformedInput(f"decoder alpha {alpha:g}, weight_scale "
                             f"{weight_scale:g} and bias_scale "
                             f"{bias_scale:g} give an encoder whose latents "
                             f"overflow")
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
