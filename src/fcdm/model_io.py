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

_HEADER = struct.Struct("<4s4Id4d")  # magic through scaler: 60 bytes
_LENGTH = struct.Struct("<I")
_F64 = np.dtype("<f8")


class ModelFormatError(ValueError):
    """Raised when a model file is malformed, truncated, or the wrong kind."""


def model_to_bytes(model):
    """Serialize a model to its binary representation."""
    s = model.scaler
    parts = [_HEADER.pack(MAGIC, VERSION, len(model.labels), model.grid.n_mesh,
                          model.n_final, model.epsilon, s.min1, s.max1, s.min2, s.max2)]
    for lab in model.labels:
        raw = lab.encode("utf-8")
        parts += [_LENGTH.pack(len(raw)), raw]
    # one allocation: the payload is copied once, into the result
    payload = np.ascontiguousarray(model.probabilities, dtype=_F64)
    return b"".join([*parts, memoryview(payload).cast("B")])


def save_model(model, path):
    """Write the model to a file (see the module docstring for the layout)."""
    buf = model_to_bytes(model)  # first: a failed serialization leaves an existing file whole
    with open(path, "wb") as fh:
        fh.write(buf)


def _end(buf, pos, n):
    """pos + n, once buf is known to hold n bytes from offset pos."""
    if pos + n > len(buf):
        raise ValueError(
            f"truncated (needed {n} bytes at offset {pos}, have {len(buf) - pos})"
        )
    return pos + n


def _parse(buf):
    pos = _end(buf, 0, _HEADER.size)
    magic, version, k, n_mesh, n_final, epsilon, *bounds = _HEADER.unpack_from(buf)
    if magic != MAGIC:
        raise ValueError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise ValueError(f"unsupported version {version}")
    labels = []
    for _ in range(k):
        start = _end(buf, pos, _LENGTH.size)
        (length,) = _LENGTH.unpack_from(buf, pos)
        pos = _end(buf, start, length)
        labels.append(str(buf[start:pos], "utf-8"))
    count = k * n_mesh * n_mesh
    if _end(buf, pos, 8 * count) != len(buf):
        raise ValueError(f"{len(buf) - pos - 8 * count} trailing bytes after the last field")
    probs = np.frombuffer(buf, dtype=_F64, count=count, offset=pos)
    probs.flags.writeable = False
    return ClassifierModel(
        labels=tuple(labels),
        grid=GridSpec(n_mesh),
        scaler=FeatureScaler(*bounds),
        n_final=n_final,
        epsilon=epsilon,
        probabilities=probs.reshape(k, n_mesh, n_mesh),
    )


def model_from_bytes(buf, name="<bytes>"):
    """Deserialize a model from any bytes-like buffer; a malformed one, from a
    wrong magic or length to a model ClassifierModel rejects, raises ModelFormatError."""
    try:
        return _parse(buf)
    except ValueError as exc:  # UnicodeDecodeError included
        raise ModelFormatError(f"{name}: {exc}") from exc


def load_model(path):
    """Read a model file back; inverse of save_model, bit-exact."""
    with open(path, "rb") as fh:
        buf = fh.read()
    return model_from_bytes(buf, name=str(path))
