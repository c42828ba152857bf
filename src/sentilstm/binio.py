"""The one binary container every artifact is stored in, and the atomic
write every artifact file goes through.

Embeddings, recurrent models, baselines and encoded splits are all written
by `save` and read by `load`; no other module knows the byte layout.
Integers are little-endian u32; a string is a u32 byte length, then ASCII
bytes.

    magic      b"SENTI-BIN\\x00"
    version    u32
    kind       string ("embedding", "lstm", "rnn", "naive-bayes", "logreg",
               "encoded")
    binding    32-byte SHA-256 fingerprint of what the artifact was built
               against (the vocabulary, or a model's embedding matrix)
    fields     u32 count, then per field: name string, u32 value
    tensors    u32 count, then per tensor: name string, dtype string
               ("f32", "f64" or "i32"), u32 ndim, ndim u32 dims, row-major
               payload
    crc        u32 CRC32 of every preceding byte
"""

import hashlib
import json
import math
import os
import struct
import zlib
from typing import NamedTuple

import numpy as np

from .errors import FormatError

U32 = struct.Struct("<I")

MAGIC = b"SENTI-BIN\x00"
# version 1 was a separate layout per artifact kind
VERSION = 2
DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8"), "i32": np.dtype("<i4")}


def pack_u32(value: int) -> bytes:
    return U32.pack(value)


def _pack_str(text: str) -> bytes:
    raw = text.encode("ascii")
    return pack_u32(len(raw)) + raw


class Reader:
    """Sequential reader over one file's bytes with strict length checks;
    `take` returns views into `data`, not copies."""

    def __init__(self, data: memoryview, path: str = "<bytes>"):
        self.data = data
        self.pos = 0
        self.path = path

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.data):
            raise FormatError(f"{self.path}: truncated file (wanted {n} bytes at offset {self.pos})")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return U32.unpack(self.take(4))[0]

    def text(self) -> str:
        raw = self.take(self.u32())
        try:
            return str(raw, "ascii")
        except UnicodeDecodeError:
            raise FormatError(f"{self.path}: non-ASCII name before offset {self.pos}") from None

    def tensor(self) -> np.ndarray:
        """dtype string, u32 ndim, the dims, then the row-major payload; the
        values come back as a copy, float64 for a float dtype, int32 for "i32"."""
        dtype = DTYPES.get(self.text())
        if dtype is None:
            raise FormatError(f"{self.path}: unknown tensor dtype before offset {self.pos}")
        shape = tuple(self.u32() for _ in range(self.u32()))
        raw = self.take(dtype.itemsize * math.prod(shape))
        values = np.frombuffer(raw, dtype=dtype).reshape(shape)
        return values.astype(np.float64 if dtype.kind == "f" else np.int32)

    def named(self, read_value) -> dict:
        """A u32 count, then that many (name string, value) entries."""
        out = {}
        for _ in range(self.u32()):
            name = self.text()
            if name in out:
                raise FormatError(f"{self.path}: {name} appears twice")
            out[name] = read_value()
        return out

    def expect_eof(self):
        if self.pos != len(self.data):
            raise FormatError(f"{self.path}: {len(self.data) - self.pos} unexpected trailing bytes")


def strip_crc(data: memoryview, path: str = "<bytes>") -> memoryview:
    """Validate a trailing u32 CRC32 and return the body it covers."""
    if len(data) < 4:
        raise FormatError(f"{path}: truncated file (no room for a checksum)")
    body, tail = data[:-4], data[-4:]
    if U32.unpack(tail)[0] != (zlib.crc32(body) & 0xFFFFFFFF):
        raise FormatError(f"{path}: CRC mismatch (file is corrupt)")
    return body


def append_crc(chunks: list) -> bytes:
    body = b"".join(chunks)
    return body + pack_u32(zlib.crc32(body) & 0xFFFFFFFF)


def sha256(*chunks: bytes) -> bytes:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.digest()


def read_bytes(path) -> bytes:
    with open(path, "rb") as f:
        return f.read()


# sha256_file has no caller in the package; perfbench/tracing.py wraps binio.sha256_file
def sha256_file(path) -> str:
    return hashlib.sha256(read_bytes(path)).hexdigest()


def write_atomic(path, data: bytes) -> str:
    """Replace `path` with `data` by one rename, so a crash leaves the old
    file or the new one, never part of either; returns data's SHA-256 hex."""
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return hashlib.sha256(data).hexdigest()


def write_json(path, payload):
    write_atomic(path, (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8"))


def read_json(path, fmt: str = None, version: int = None, required: dict = None):
    """The JSON value in `path`, else FormatError; with `fmt`, a manifest: an
    object whose "format" is `fmt`, "version" is `version`, and value under
    each key of `required` is one of that key's allowed values. A missing
    file raises FileNotFoundError, which each caller words for itself."""
    try:
        payload = json.loads(read_bytes(path))
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, deep nesting
        raise FormatError(f"{path}: invalid JSON ({exc})") from None
    if fmt is None:
        return payload
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: a {fmt} manifest must be a JSON object, "
                          f"got {type(payload).__name__}")
    if payload.get("format") != fmt:
        raise FormatError(f"{path}: not a {fmt} manifest")
    if payload.get("version") != version:
        raise FormatError(f"{path}: unsupported {fmt} version {payload.get('version')!r}")
    for key, allowed in (required or {}).items():
        if key not in payload:
            raise FormatError(f"{path}: {fmt} manifest has no {key!r}")
        if payload[key] not in allowed:
            raise FormatError(f"{path}: {key} {payload[key]!r} is not one of {list(allowed)}")
    return payload


class Artifact(NamedTuple):
    kind: str
    binding: bytes
    fields: dict   # name -> int
    tensors: dict  # name -> float64 array, or int32 for an "i32" tensor


def save(path, kind: str, binding: bytes, tensors: dict, dtype: str, fields: dict = None) -> str:
    """Write one container, tensors stored as `dtype` ("f32"/"f64"/"i32"); returns its SHA-256 hex."""
    if len(binding) != 32:
        raise FormatError(f"{kind} binding fingerprint must be 32 bytes, got {len(binding)}")
    fields = fields or {}
    chunks = [MAGIC, pack_u32(VERSION), _pack_str(kind), binding, pack_u32(len(fields))]
    for name, value in fields.items():
        chunks += [_pack_str(name), pack_u32(value)]
    chunks.append(pack_u32(len(tensors)))
    for name, tensor in tensors.items():
        tensor = np.asarray(tensor)
        with np.errstate(over="ignore"):  # a value past f32's range casts to inf, refused here
            stored = np.asarray(tensor, dtype=DTYPES[dtype])
        if not np.all(np.isfinite(stored)):
            raise FormatError(f"refusing to save non-finite tensor {name} of a {kind} artifact")
        if dtype == "i32" and not np.array_equal(stored, tensor):  # the cast wraps
            raise FormatError(f"refusing to save out-of-range tensor {name} of a {kind} artifact")
        chunks += [_pack_str(name), _pack_str(dtype), pack_u32(tensor.ndim)]
        chunks += [pack_u32(d) for d in tensor.shape]
        chunks.append(stored.tobytes())
    return write_atomic(path, append_crc(chunks))


def load(path, kinds, data: bytes = None) -> Artifact:
    """Read one container whose kind is in `kinds` from `data`, the bytes of
    `path` (read from disk when not given). The magic is checked first, then
    the CRC, then the layout; any mismatch raises FormatError."""
    if data is None:
        data = read_bytes(path)
    if not data.startswith(MAGIC):
        raise FormatError(f"{path}: not a senti artifact (bad magic)")
    reader = Reader(strip_crc(memoryview(data), str(path)), str(path))
    reader.take(len(MAGIC))
    version = reader.u32()
    if version != VERSION:
        raise FormatError(
            f"{path}: unsupported artifact version {version} (this build reads version {VERSION})"
        )
    kind = reader.text()
    if kind not in kinds:
        raise FormatError(f"{path}: unknown artifact kind {kind!r} (expected {' or '.join(kinds)})")
    binding = bytes(reader.take(32))
    fields = reader.named(reader.u32)
    tensors = reader.named(reader.tensor)
    reader.expect_eof()
    return Artifact(kind, binding, fields, tensors)
