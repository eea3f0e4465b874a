"""Sampled kernel fields and their snapshot / CSV serialization.

A field stores real values over the centered offset lattice for ordered
time pairs (i, j), i < j, of the grid partition, held by terminal index:
``stacks[j]`` holds the slices (i, j) for i < len(stacks[j]).  Translation
invariance of the constant symbol scope means the fields are functions of
the offset x - y only.  The meanings are "g0" (the base kernel at one gap),
"g" (the base kernel on every pair) and "G" (the drift-perturbed kernel),
whose slices have the lattice shape, and the vector "v" = grad_beta G,
whose slices stack dim components, shape (dim,) + lattice; "v" stays in
memory and is never written.

Fields are built whole and treated as immutable afterwards; slices may be
handed across threads freely.  Slices may share memory: a field
synthesized from rows that depend on the gap alone holds views of one
stack.

Snapshot layout (one time slice per file, little-endian):

    int32 dim | int32 N | float64 L | float64 dt | 8 bytes meaning tag
    payload: row-major float64 values (N^dim reals)

The writer refuses a meaning outside ``MEANINGS`` and a payload off the
lattice shape.  The reader checks the header (dim 1 or 2, N even and at
least 4, L and dt finite and positive, a known meaning) and the file size
it implies before it reads the payload.

:func:`snapshot_field` writes one snapshot per pair, ``<stem>_iii_jjj.snap``,
and the whole field as one long-format CSV, ``<stem>.csv``, with columns
``i,j,i0[,i1],value``: one row per pair and lattice offset, the pairs in
sorted (i, j) order and the offsets in C order.  Every value is written as
its repr, so it parses back to the snapshot's float exactly.  The CSV is
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
from dataclasses import dataclass
from operator import add
from typing import List, Sequence, Tuple

import numpy as np

from .grid import SpaceTimeGrid, analyze

MEANINGS = ("g0", "g", "G")    # written to files; vector "v" is in memory only

_HEADER = struct.Struct("<ii d d 8s")
PairKey = Tuple[int, int]


class FieldError(ValueError):
    pass


@dataclass
class KernelField:
    """Real kernel samples per time pair, one stack per terminal index j."""

    grid: SpaceTimeGrid
    meaning: str
    stacks: Sequence

    def __post_init__(self):
        if self.meaning not in MEANINGS + ("v",):
            raise FieldError(f"unknown meaning {self.meaning!r}")
        if len(self.stacks) > self.grid.time_steps + 1:
            raise FieldError(f"{len(self.stacks)} stacks for the terminal "
                             f"indices 0..{self.grid.time_steps}")
        lead = (self.grid.dim,) if self.meaning == "v" else ()
        want = lead + self.grid.shape()
        for j, stack in enumerate(self.stacks):
            if len(stack) > j:
                raise FieldError(
                    f"stack {j} holds {len(stack)} slices: kernels need "
                    "i < j (coincident times are the identity limit, not a "
                    "stored slice)")
            for vals in stack:
                if np.shape(vals) != want:
                    raise FieldError(f"slice shape {np.shape(vals)} != {want}")

    def holds(self, pair: PairKey) -> bool:
        i, j = pair
        return 0 <= i < j < len(self.stacks) and i < len(self.stacks[j])

    def slice(self, pair: PairKey) -> np.ndarray:
        if not self.holds(pair):
            raise FieldError(f"no slice for the time pair {pair}")
        return self.stacks[pair[1]][pair[0]]

    def pairs(self):
        return sorted((i, j) for j, stack in enumerate(self.stacks)
                      for i in range(len(stack)))

    def gap(self, pair: PairKey) -> float:
        return (pair[1] - pair[0]) * self.grid.dt

    def mass(self, pair: PairKey) -> float:
        """Lattice integral sum(values) * dx^d of one slice."""
        return float(self.slice(pair).sum() * self.grid.cell_volume)

    def spectrum(self, pair: PairKey) -> np.ndarray:
        return analyze(self.grid, self.slice(pair))


# ---------------------------------------------------------------------------
# snapshot + CSV
# ---------------------------------------------------------------------------

def write_snapshot(path, grid: SpaceTimeGrid, meaning: str,
                   dt: float, values: np.ndarray):
    if meaning not in MEANINGS:
        raise FieldError(f"snapshot {path}: meaning {meaning!r} is not one "
                         f"of {MEANINGS}")
    if np.shape(values) != grid.shape():
        raise FieldError(f"snapshot {path}: payload shape {np.shape(values)} "
                         f"!= grid {grid.shape()}")
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
        if meaning not in MEANINGS:
            problems.append(f"meaning tag {tag!r} is unknown")
        if problems:
            raise FieldError(f"snapshot {path}: " + "; ".join(problems))
        shape = (N,) * dim
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


def write_csv(path, field: KernelField):
    """A field as a plain-text table in long format, dot decimal: columns
    ``i, j``, the offset indices, then ``value``; the pairs follow one
    another in sorted (i, j) order, one row per pair and offset in C order."""
    grid = field.grid
    if field.meaning not in MEANINGS:
        raise FieldError(f"csv {path}: meaning {field.meaning!r} is not one "
                         f"of {MEANINGS}")
    offsets = np.indices(grid.shape()).reshape(grid.dim, -1) \
        - grid.points_per_dim // 2
    prefixes = csv_prefixes(offsets.tolist())
    names = ["i", "j"] + [f"i{k}" for k in range(grid.dim)] + ["value"]
    pairs = field.pairs()
    slices = [field.slice(pair) for pair in pairs]
    # a slice's text is kept while a later slice may hold the same bytes
    later = Counter(hash(s.tobytes()) for s in slices)
    texts = {}
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + "\n")
        for (i, j), vals in zip(pairs, slices):
            data = vals.tobytes()
            text = texts.pop(data, None)
            if text is None:
                text = format_rows("", prefixes, [vals.ravel().tolist()])
            later[hash(data)] -= 1
            if later[hash(data)]:
                texts[data] = text
            head = f"{i},{j},"
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
    write_csv(os.path.join(directory, f"{stem}.csv"), field_obj)
    return paths
