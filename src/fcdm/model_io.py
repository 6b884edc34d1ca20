"""Binary model persistence.

File layout, all little-endian, in order:

    magic     4 bytes   b"FCDM"
    version   u32       currently 1
    K         u32       number of classes
    n_mesh    u32       pixels per grid axis
    n_final   u32       shared smoothing iteration
    epsilon   f64       stopping threshold used at training time
    scaler    4 x f64   min1, max1, min2, max2
    labels    K times   u32 byte length + that many UTF-8 bytes
    fields    K times   n_mesh^2 f64, row-major, class order as in labels

Round trips are bit-exact: the fields are the model's (K, n_mesh, n_mesh)
probabilities array written verbatim, and a loaded model's probabilities
are a read-only view over the bytes read, not a copy. The training-only
diagnostic, the per-class traces, is not stored; a loaded model carries
None there.
"""

import struct

import numpy as np

from .dataset import FeatureScaler
from .grid import GridSpec
from .trainer import ClassifierModel

MAGIC = b"FCDM"
VERSION = 1

_F64 = np.dtype("<f8")


class ModelFormatError(ValueError):
    """Raised when a model file is malformed, truncated, or the wrong kind."""


def model_to_bytes(model):
    """Serialize a model to its binary representation."""
    k = len(model.labels)
    header = bytearray()
    header += MAGIC
    header += struct.pack("<IIII", VERSION, k, model.grid.n_mesh, model.n_final)
    header += struct.pack("<d", model.epsilon)
    s = model.scaler
    header += struct.pack("<4d", s.min1, s.max1, s.min2, s.max2)
    for lab in model.labels:
        raw = lab.encode("utf-8")
        header += struct.pack("<I", len(raw))
        header += raw
    # one allocation: the payload is copied once, into the result
    payload = np.ascontiguousarray(model.probabilities, dtype=_F64)
    return b"".join([header, memoryview(payload).cast("B")])


def save_model(model, path):
    """Write the model to a file (see the module docstring for the layout)."""
    with open(path, "wb") as fh:
        fh.write(model_to_bytes(model))


class _Cursor:
    """Sequential reader over a byte buffer that errors on truncation."""

    def __init__(self, buf, name):
        self.buf = buf
        self.name = name
        self.pos = 0

    def skip(self, n):
        if self.pos + n > len(self.buf):
            raise ModelFormatError(
                f"{self.name}: truncated (needed {n} bytes at offset {self.pos}, "
                f"have {len(self.buf) - self.pos})"
            )
        self.pos += n
        return self.pos - n

    def take(self, n):
        return self.buf[self.skip(n):self.pos]

    def unpack(self, fmt):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def model_from_bytes(buf, name="<bytes>"):
    """Deserialize a model, validating magic, version, and exact length."""
    cur = _Cursor(buf, name)
    magic = cur.take(4)
    if magic != MAGIC:
        raise ModelFormatError(f"{name}: bad magic {magic!r}, expected {MAGIC!r}")
    (version,) = cur.unpack("<I")
    if version != VERSION:
        raise ModelFormatError(f"{name}: unsupported version {version}")
    k, n_mesh, n_final = cur.unpack("<III")
    if k < 2:
        raise ModelFormatError(f"{name}: class count {k} below 2")
    (epsilon,) = cur.unpack("<d")
    min1, max1, min2, max2 = cur.unpack("<4d")
    labels = []
    for _ in range(k):
        (length,) = cur.unpack("<I")
        raw = cur.take(length)
        try:
            labels.append(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ModelFormatError(f"{name}: label is not valid UTF-8") from exc
    try:
        grid = GridSpec(n_mesh=int(n_mesh))
        scaler = FeatureScaler(min1=min1, max1=max1, min2=min2, max2=max2)
    except ValueError as exc:
        raise ModelFormatError(f"{name}: {exc}") from exc
    offset = cur.skip(8 * k * n_mesh * n_mesh)
    if cur.pos != len(buf):
        raise ModelFormatError(
            f"{name}: {len(buf) - cur.pos} trailing bytes after the last field"
        )
    probs = np.frombuffer(buf, dtype=_F64, count=k * n_mesh * n_mesh, offset=offset)
    probs.flags.writeable = False
    try:
        return ClassifierModel(
            labels=tuple(labels),
            grid=grid,
            scaler=scaler,
            n_final=int(n_final),
            epsilon=epsilon,
            probabilities=probs.reshape(k, n_mesh, n_mesh),
        )
    except ValueError as exc:
        raise ModelFormatError(f"{name}: {exc}") from exc


def load_model(path):
    """Read a model file back; inverse of save_model, bit-exact."""
    with open(path, "rb") as fh:
        buf = fh.read()
    return model_from_bytes(buf, name=str(path))
