"""JSON-friendly encoding of matrices, spaces and triples.

Complex matrices are encoded as nested lists of [re, im] pairs.
"""

from __future__ import annotations

import sys

import numpy as np

from .errors import ConfigError
from .krein import KreinSpace
from .triple import BoundaryTriple


def encode_matrix(m: np.ndarray) -> list:
    a = np.asarray(m, dtype=complex)
    if a.ndim == 1:
        a = a[:, None]
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def decode_matrix(data) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed matrix data: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise ConfigError("matrix entries must be finite")
    if arr.ndim == 3 and arr.shape[2] == 2:
        return arr[..., 0] + 1j * arr[..., 1]
    if arr.ndim == 2:
        return arr.astype(complex)
    raise ConfigError("matrix must be a nested list of [re, im] pairs")


def decode_real(data, name: str = "value") -> float:
    """A finite real number; the bound is false for NaN, Infinity and huge integers."""
    if isinstance(data, (int, float)) and not isinstance(data, bool) \
            and abs(data) <= sys.float_info.max:
        return float(data)
    raise ConfigError(f"{name} must be a finite number, got {data!r}")


def decode_int(data, name: str = "value", least: int | None = None) -> int:
    if isinstance(data, bool) or not isinstance(data, int) \
            or (least is not None and data < least):
        bound = "" if least is None else f" >= {least}"
        raise ConfigError(f"{name} must be an integer{bound}, got {data!r}")
    return data


def decode_scalar(data, name: str = "scalar") -> complex:
    if isinstance(data, (list, tuple)) and len(data) == 2:
        return complex(decode_real(data[0], name), decode_real(data[1], name))
    if isinstance(data, (int, float)):
        return complex(decode_real(data, name))
    raise ConfigError(f"{name} must be a finite number or an [re, im] pair")


def encode_space(space: KreinSpace) -> dict:
    out = {"dim": space.dim, "gram": encode_matrix(space.gram)}
    if not np.allclose(space.j, np.eye(space.dim)):
        out["J"] = encode_matrix(space.j)
    return out


def decode_space(data) -> KreinSpace:
    if not isinstance(data, dict) or "dim" not in data:
        raise ConfigError("space must be an object with a 'dim' field")
    gram = decode_matrix(data["gram"]) if "gram" in data else None
    j = decode_matrix(data["J"]) if "J" in data else None
    return KreinSpace(decode_int(data["dim"], "'dim'"), gram=gram, j=j)


def encode_triple(bt: BoundaryTriple) -> dict:
    return {
        "state": encode_space(bt.state),
        "boundary_dim": bt.boundary_dim,
        "boundary_gram": encode_matrix(bt.boundary_gram),
        "t_basis": encode_matrix(bt.t_basis),
        "G0": encode_matrix(bt.g0),
        "G1": encode_matrix(bt.g1),
    }

