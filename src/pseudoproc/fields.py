"""Sampled kernel fields and their snapshot / CSV serialization.

A scalar field stores real values over the centered offset lattice, one
array per ordered time pair (i, j), i < j, of the grid partition.  Vector
fields stack dim component arrays.  Translation invariance of the constant
symbol scope means kernel-type fields are functions of the offset x - y
only; function-type fields (meanings "u", "w") use the same layout with the
lattice coordinate read as x.

Fields are containers filled once at synthesis time and treated as immutable
afterwards; slices may be handed across threads freely.  Slices may share
memory: a field synthesized from rows that depend on the gap alone holds
views of one stack.

Snapshot layout (one time slice per file, little-endian):

    int32 dim | int32 N | float64 L | float64 dt | 8 bytes meaning tag
    payload: row-major float64 values (dim * N^dim reals for vector fields)

The reader checks the header (dim 1 or 2, N even and at least 4, L and dt
finite and positive, a known meaning) and the file size it implies before
it reads the payload.

:func:`snapshot_field` writes one snapshot per pair, ``<stem>_iii_jjj.snap``,
and the whole field as one long-format CSV, ``<stem>.csv``, with columns
``i,j,i0[,i1],value``: one row per pair and lattice offset, the pairs in
sorted order and the offsets in C order.  Every value is written as its
repr, so it parses back to the snapshot's float exactly.  The CSV is
formatted in bulk, one write per pair, and the value text of each distinct
slice is formatted once: pairs whose slices hold the same bytes (for drift
constant in time, every pair of one gap) reuse it, and only their ``i,j,``
lead is written afresh.
"""
from __future__ import annotations

import math
import os
import struct
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from operator import add
from typing import Dict, List, Tuple

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
# snapshot + CSV
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


def csv_prefixes(columns) -> List[str]:
    """Leading cells of each CSV row: the repr of every column's entry, each
    followed by a comma.  `columns` holds one sequence per leading column."""
    rows = zip(*(map(repr, c) for c in columns))
    return [",".join(cells) + "," for cells in rows]


def format_rows(head: str, prefixes: List[str], columns,
                newline: str = "\n") -> str:
    """CSV text of one row per prefix: `head`, the row's prefix, then the repr
    of the row's entry in every value column, comma separated.

    Every float is written as its repr, so it parses back to the same value.
    """
    cells = map(repr, columns[0])
    for col in columns[1:]:
        cells = map("{},{}".format, cells, map(repr, col))
    return head + (newline + head).join(map(add, prefixes, cells)) + newline


def write_csv(path, grid: SpaceTimeGrid, values):
    """Plain-text table: offset indices then value(s), dot decimal, C order.

    `values` is one slice, or a mapping from time pair (i, j) to slices (a
    field's ``values``).  A mapping is written in long format: columns
    ``i, j`` lead, and the pairs follow one another in sorted order, one row
    per pair and offset.
    """
    keyed = isinstance(values, Mapping)
    blocks = sorted(values.items()) if keyed else [((), values)]
    shape = np.shape(blocks[0][1])
    vector = len(shape) == grid.dim + 1
    offsets = np.indices(grid.shape()).reshape(grid.dim, -1) \
        - grid.points_per_dim // 2
    prefixes = csv_prefixes(offsets.tolist())
    names = ["i", "j"] if keyed else []
    names += [f"i{k}" for k in range(grid.dim)]
    names += [f"value{k}" for k in range(shape[0])] if vector else ["value"]
    slices = [np.asarray(vals, dtype=float) for _, vals in blocks]
    # a slice's text is kept while a later slice may hold the same bytes
    later = Counter(hash(s.tobytes()) for s in slices)
    texts = {}
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + "\n")
        for (key, _), vals in zip(blocks, slices):
            data = vals.tobytes()
            text = texts.pop(data, None)
            if text is None:
                comps = vals if vector else vals[None, ...]
                text = format_rows("", prefixes,
                                   comps.reshape(len(comps), -1).tolist())
            later[hash(data)] -= 1
            if later[hash(data)]:
                texts[data] = text
            head = "".join(f"{k}," for k in key)
            # the lead on every row: each newline but the last gains it
            fh.write(head + text.replace("\n", "\n" + head,
                                         len(prefixes) - 1))


def snapshot_field(field_obj, directory, stem: str):
    """Write one snapshot per stored pair of a field, named
    ``<stem>_<i>_<j>.snap``, and the whole field as one long-format CSV,
    ``<stem>.csv``; return the snapshot paths."""
    paths = []
    for (i, j) in field_obj.pairs():
        path = os.path.join(directory, f"{stem}_{i:03d}_{j:03d}.snap")
        write_snapshot(path, field_obj.grid, field_obj.meaning,
                       field_obj.gap((i, j)), field_obj.slice((i, j)))
        paths.append(path)
    write_csv(os.path.join(directory, f"{stem}.csv"), field_obj.grid,
              field_obj.values)
    return paths
