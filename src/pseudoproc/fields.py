"""Sampled kernel fields and their snapshot / CSV serialization.

A scalar field stores real values over the centered offset lattice, one
array per ordered time pair (i, j), i < j, of the grid partition.  Vector
fields stack dim component arrays.  Translation invariance of the constant
symbol scope means kernel-type fields are functions of the offset x - y
only; function-type fields (meanings "u", "w") use the same layout with the
lattice coordinate read as x.

Fields are containers filled once at synthesis time and treated as immutable
afterwards; slices may be handed across threads freely.

Snapshot layout (one time slice per file, little-endian):

    int32 dim | int32 N | float64 L | float64 dt | 8 bytes meaning tag
    payload: row-major float64 values (dim * N^dim reals for vector fields)

The reader checks the header (dim 1 or 2, N even and at least 4, L and dt
finite and positive, a known meaning) and the file size it implies before
it reads the payload.
"""
from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from .grid import SpaceTimeGrid, analyze

SCALAR_MEANINGS = ("g0", "g", "G", "h", "u")
VECTOR_MEANINGS = ("v0", "v", "w0", "w")

_HEADER = struct.Struct("<ii d d 8s")
PairKey = Tuple[int, int]


class FieldError(ValueError):
    pass


def _check_pair(grid: SpaceTimeGrid, pair: PairKey):
    i, j = pair
    if not 0 <= i < j <= grid.time_steps:
        raise FieldError(
            f"time pair {pair} invalid: kernels need 0 <= i < j <= M "
            "(coincident times are the identity limit, not a stored slice)")


@dataclass
class ScalarKernelField:
    """Real scalar kernel samples per time pair."""

    grid: SpaceTimeGrid
    meaning: str
    values: Dict[PairKey, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.meaning not in SCALAR_MEANINGS:
            raise FieldError(f"unknown scalar meaning {self.meaning!r}")

    def set_slice(self, pair: PairKey, vals: np.ndarray):
        _check_pair(self.grid, pair)
        vals = np.asarray(vals, dtype=float)
        if vals.shape != self.grid.shape():
            raise FieldError(f"slice shape {vals.shape} != grid {self.grid.shape()}")
        self.values[pair] = vals

    def slice(self, pair: PairKey) -> np.ndarray:
        _check_pair(self.grid, pair)
        return self.values[pair]

    def pairs(self):
        return sorted(self.values.keys())

    def gap(self, pair: PairKey) -> float:
        return (pair[1] - pair[0]) * self.grid.dt

    def mass(self, pair: PairKey) -> float:
        """Lattice integral sum(values) * dx^d of one slice."""
        return float(self.slice(pair).sum() * self.grid.cell_volume)

    def spectrum(self, pair: PairKey) -> np.ndarray:
        return analyze(self.grid, self.slice(pair))


@dataclass
class VectorKernelField:
    """Real vector kernel samples (dim components) per time pair."""

    grid: SpaceTimeGrid
    meaning: str
    values: Dict[PairKey, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.meaning not in VECTOR_MEANINGS:
            raise FieldError(f"unknown vector meaning {self.meaning!r}")

    def set_slice(self, pair: PairKey, vals: np.ndarray):
        _check_pair(self.grid, pair)
        vals = np.asarray(vals, dtype=float)
        want = (self.grid.dim,) + self.grid.shape()
        if vals.shape != want:
            raise FieldError(f"slice shape {vals.shape} != {want}")
        self.values[pair] = vals

    def slice(self, pair: PairKey) -> np.ndarray:
        _check_pair(self.grid, pair)
        return self.values[pair]

    def pairs(self):
        return sorted(self.values.keys())

    def gap(self, pair: PairKey) -> float:
        return (pair[1] - pair[0]) * self.grid.dt


# ---------------------------------------------------------------------------
# snapshot + CSV mirror
# ---------------------------------------------------------------------------

def write_snapshot(path, grid: SpaceTimeGrid, meaning: str,
                   dt: float, values: np.ndarray):
    tag = meaning.encode("ascii").ljust(8, b"\x00")
    payload = np.ascontiguousarray(values, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(grid.dim, grid.points_per_dim,
                              grid.half_extent, dt, tag))
        fh.write(payload.tobytes())


def read_snapshot(path):
    """Returns (dim, N, L, dt, meaning, values) from a snapshot file."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _HEADER.size:
            raise FieldError(f"snapshot {path}: {size} bytes, shorter than "
                             f"its {_HEADER.size}-byte header")
        dim, N, L, dt, tag = _HEADER.unpack(fh.read(_HEADER.size))
        meaning = tag.rstrip(b"\x00").decode("ascii", errors="replace")
        problems = []
        if dim not in (1, 2):
            problems.append(f"dim={dim} is not 1 or 2")
        if N < 4 or N % 2:
            problems.append(f"N={N} is not even and >= 4")
        if not (math.isfinite(L) and L > 0):
            problems.append(f"L={L!r} is not finite and positive")
        if not (math.isfinite(dt) and dt > 0):
            problems.append(f"dt={dt!r} is not finite and positive")
        if meaning not in SCALAR_MEANINGS + VECTOR_MEANINGS:
            problems.append(f"meaning tag {tag!r} is unknown")
        if problems:
            raise FieldError(f"snapshot {path}: " + "; ".join(problems))
        shape = (N,) * dim if meaning in SCALAR_MEANINGS \
            else (dim,) + (N,) * dim
        expected = _HEADER.size + 8 * math.prod(shape)
        if size != expected:
            raise FieldError(f"snapshot {path}: {size} bytes, but a {meaning!r} "
                             f"header with dim={dim}, N={N} implies {expected}")
        values = np.fromfile(fh, dtype="<f8").reshape(shape)
    return dim, N, L, dt, meaning, values


def write_csv(path, grid: SpaceTimeGrid, values: np.ndarray):
    """Plain-text mirror: offset indices then value(s), dot decimal, C order."""
    vals = np.asarray(values)
    vector = vals.ndim == grid.dim + 1
    comps = vals if vector else vals[None, ...]
    offsets = np.indices(grid.shape()).reshape(grid.dim, -1) \
        - grid.points_per_dim // 2
    columns = offsets.tolist() \
        + comps.reshape(comps.shape[0], -1).astype(float).tolist()
    with open(path, "w", newline="") as fh:
        idx_cols = ",".join(f"i{k}" for k in range(grid.dim))
        val_cols = ",".join(f"value{k}" for k in range(comps.shape[0])) \
            if vector else "value"
        fh.write(f"{idx_cols},{val_cols}\n")
        fh.writelines(",".join(map(repr, cells)) + "\n"
                      for cells in zip(*columns))


def snapshot_field(field_obj, directory, stem: str):
    """Write every stored pair of a field as snapshot + CSV, return paths."""
    paths = []
    for (i, j) in field_obj.pairs():
        base = os.path.join(directory, f"{stem}_{i:03d}_{j:03d}")
        write_snapshot(base + ".snap", field_obj.grid, field_obj.meaning,
                       field_obj.gap((i, j)), field_obj.slice((i, j)))
        write_csv(base + ".csv", field_obj.grid, field_obj.slice((i, j)))
        paths.append(base + ".snap")
    return paths
