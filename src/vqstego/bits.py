"""Bitstream primitives, keyed deterministic random stream, message framing.

The keyed stream is a counter-mode construction over BLAKE2b: block i of the
stream is blake2b(key=seed, data=domain || 0x00 || i). Identical
(seed, domain, counter) yields identical output on every platform. Domain
labels keep the image channel, text channel and framing streams independent.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import MalformedInput, PayloadTooLong, TruncatedFrame

HEADER_BITS = 32  # width of the frame's length prefix
_BLOCK_SIZE = 32  # bytes per keyed-hash block
_TO_ASCII = bytes.maketrans(b"\x00\x01", b"01")
_FROM_ASCII = bytes.maketrans(b"01", b"\x00\x01")


class BitString:
    """Immutable sequence of {0,1}, one byte per bit.

    Slices are BitStrings and `+` concatenates; conversions run in C through
    `bytes.translate` and `int(..., 2)`.
    """

    __slots__ = ("_bits",)

    def __init__(self, bits: Iterable[int] = ()):
        # iter() keeps bytes() from reading an ndarray's raw memory buffer
        data = bits if isinstance(bits, bytes) else bytes(iter(bits))
        if data.translate(None, b"\x00\x01"):
            raise ValueError("bits must be 0 or 1")
        self._bits = data

    @classmethod
    def from_int(cls, value: int, width: int) -> "BitString":
        """MSB-first binary representation of `value` in `width` bits."""
        if value < 0 or width < 0 or value >> width:
            raise ValueError(f"{value} does not fit in {width} bits")
        # the sentinel bit 1 << width fixes the digit count, also at width 0
        return cls(bin(value | 1 << width)[3:].encode().translate(_FROM_ASCII))

    @classmethod
    def join(cls, parts: Iterable["BitString"]) -> "BitString":
        """The concatenation of `parts`, copied once."""
        return cls(b"".join(part._bits for part in parts))

    @classmethod
    def from01(cls, text: str) -> "BitString":
        data = text.encode("ascii", "replace")
        if data.translate(None, b"01"):
            raise MalformedInput(f"not a 0/1 string: {text[:32]!r}...")
        return cls(data.translate(_FROM_ASCII))

    @classmethod
    def from_bytes(cls, data: bytes) -> "BitString":
        return cls.from_int(int.from_bytes(data, "big"), 8 * len(data))

    def to01(self) -> str:
        return self._bits.translate(_TO_ASCII).decode()

    def to_int(self) -> int:
        return int(self._bits.translate(_TO_ASCII) or b"0", 2)

    def __len__(self) -> int:
        return len(self._bits)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return BitString(self._bits[i])
        return self._bits[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self._bits)

    def __add__(self, other: "BitString") -> "BitString":
        if not isinstance(other, BitString):
            return NotImplemented
        return BitString(self._bits + other._bits)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return self._bits == other._bits

    def __hash__(self):
        return hash(self._bits)

    def __repr__(self) -> str:
        head = self.to01()
        if len(head) > 64:
            head = head[:64] + "..."
        return f"BitString({head!r}, len={len(self)})"


@dataclass(frozen=True)
class StegoKey:
    """Shared 256-bit key plus a domain label separating stream uses."""

    seed: bytes
    stream_domain: str = ""

    def __post_init__(self):
        if len(self.seed) != 32:
            raise MalformedInput("key seed must be exactly 32 bytes")

    @classmethod
    def from_hex(cls, text: str, domain: str = "") -> "StegoKey":
        text = text.strip()
        if len(text) != 64:
            raise MalformedInput("key must be a 64-character hex string")
        try:
            seed = bytes.fromhex(text)
        except ValueError as exc:
            raise MalformedInput("key is not valid hex") from exc
        return cls(seed, domain)

    def with_domain(self, domain: str) -> "StegoKey":
        return StegoKey(self.seed, domain)


class KeyedStream:
    """Deterministic uniform stream keyed by (seed, domain); counter mode.

    Not thread safe: the counter is per-instance mutable state. Use one
    instance per sequence.
    """

    def __init__(self, key: StegoKey):
        self.key = key
        self.counter = 0
        self._buf = bytearray()

    def _refill(self) -> None:
        h = hashlib.blake2b(digest_size=_BLOCK_SIZE, key=self.key.seed)
        h.update(self.key.stream_domain.encode("utf-8"))
        h.update(b"\x00")
        h.update(self.counter.to_bytes(8, "big"))
        self.counter += 1
        self._buf.extend(h.digest())

    def next_bytes(self, n: int) -> bytes:
        while len(self._buf) < n:
            self._refill()
        out = bytes(self._buf[:n])
        del self._buf[:n]
        return out

    def next_uniform(self) -> float:
        """Uniform value in [0,1) with 53 bits of resolution."""
        u = int.from_bytes(self.next_bytes(8), "big") >> 11
        return u * 2.0**-53

    def next_bits(self, n: int) -> BitString:
        return BitString.from_bytes(self.next_bytes((n + 7) // 8))[:n]

    def next_int(self, bound: int) -> int:
        """Uniform integer in [0, bound) by 64-bit rejection-free reduction."""
        u = int.from_bytes(self.next_bytes(8), "big")
        return (u * bound) >> 64


def xor_bits(bits: BitString, keystream: BitString) -> BitString:
    if len(bits) != len(keystream):
        raise ValueError("keystream length mismatch")
    return BitString.from_int(bits.to_int() ^ keystream.to_int(), len(bits))


def frame_message(payload: BitString, stream: KeyedStream) -> BitString:
    """Length-prefix the payload and mask the whole frame with the keystream."""
    if len(payload) >= 1 << HEADER_BITS:
        raise PayloadTooLong(f"payload of {len(payload)} bits exceeds 2^32 - 1")
    plain = BitString.from_int(len(payload), HEADER_BITS) + payload
    return xor_bits(plain, stream.next_bits(len(plain)))


def unframe_message(framed: BitString, stream: KeyedStream) -> BitString:
    """Inverse of frame_message; raises TruncatedFrame on desynchronization."""
    if len(framed) < HEADER_BITS:
        raise TruncatedFrame("frame shorter than the 32-bit header")
    plain = xor_bits(framed, stream.next_bits(len(framed)))
    length = plain[:HEADER_BITS].to_int()
    body = plain[HEADER_BITS:]
    if length > len(body):
        raise TruncatedFrame(
            f"declared length {length} exceeds {len(body)} available bits")
    return body[:length]


def unframe_lenient(framed: BitString, stream: KeyedStream,
                    true_length: int) -> BitString:
    """Best-effort unframe for metrics: decrypt, drop the header, truncate.

    Never raises; used to score partially garbled extractions against the
    known true message.
    """
    plain = xor_bits(framed, stream.next_bits(len(framed)))
    return plain[HEADER_BITS:HEADER_BITS + true_length]
