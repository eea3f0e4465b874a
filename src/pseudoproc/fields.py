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
handed across threads freely.  For a drift constant in space and time the
kernel depends on (s, t) only through the gap t - s: ``by_gap`` builds its
stacks as views of the last one, and ``depends_on_gap`` recognizes them.
The writers and the reader follow that rule, never the slices' content.

Snapshot layout (one time slice per file, little-endian):

    int32 dim | int32 N | float64 L | float64 dt | 8 bytes meaning tag
    payload: row-major float64 values (N^dim reals)

The writer refuses a meaning outside ``MEANINGS`` and a payload off the
lattice shape.  The reader checks the header (dim 1 or 2, N even and at
least 4, L and dt finite and positive, a known meaning) and the file size
it implies before it reads the payload.

:func:`snapshot_field` writes one snapshot per pair, ``<stem>_iii_jjj.snap``;
for a field that depends on the gap alone, the other pairs of a gap are
hard links to the file of its first pair where the directory takes links.
A name already in the directory is unlinked before it is written or
linked, so no file of an earlier run is rewritten in place; edit a
snapshot in place only after copying it.

:func:`read_snapshot_fields` reads the snapshot groups of a directory back
into fields, and :func:`write_csv` writes a field as one long-format CSV,
``<stem>.csv``, with columns ``i,j,i0[,i1],value``: one row per pair and
lattice offset, the pairs in sorted (i, j) order and the offsets in C
order.  Every value is written as its repr, so it parses back to the
snapshot's float exactly.
"""
from __future__ import annotations

import math
import os
import re
import struct
from dataclasses import dataclass
from operator import add
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .grid import SpaceTimeGrid

MEANINGS = ("g0", "g", "G")    # written to files; vector "v" is in memory only

_HEADER = struct.Struct("<ii d d 8s")
_SNAPSHOT_NAME = re.compile(r"(.+)_(\d{3,})_(\d{3,})\.snap")
PairKey = Tuple[int, int]


class FieldError(ValueError):
    """A field, snapshot or CSV off the layout; `path` names the file it
    concerns, if any, and leads the message."""

    def __init__(self, cause: str, path=None):
        super().__init__(cause if path is None else f"{path}: {cause}")
        self.path = path


@dataclass
class KernelField:
    """Real kernel samples per time pair, one stack per terminal index j.
    Stacks made by `by_gap` are written and formatted once per gap; equal
    slices that are copies are written pair by pair."""

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

    def integrals(self) -> np.ndarray:
        """sum(values) dx^d over the lattice, one reduction per stack of
        `distinct_stacks`: a row per slice, with "v"'s component axis."""
        axes = tuple(range(-self.grid.dim, 0))
        return self.grid.cell_volume * np.concatenate(
            [s.sum(axis=axes) for s in self.distinct_stacks()])

    def distinct_stacks(self) -> List[np.ndarray]:
        """The non-empty stacks as arrays: together they hold every stored
        slice.  For stacks that depend on the gap alone, the last stack
        alone, which holds each slice once."""
        if depends_on_gap(self.stacks):
            return [np.asarray(self.stacks[-1])]
        return [np.asarray(s) for s in self.stacks if len(s)]


def by_gap(top: np.ndarray) -> list:
    """Stacks that depend on the time gap alone: for M = len(top), stack j
    views top[M - j:], so the slice (i, j) is top[M - (j - i)]."""
    M = len(top)
    return [top[M - j:] for j in range(M + 1)]


def depends_on_gap(stacks) -> bool:
    """Whether each non-empty stack j views the last j slices of the last
    stack M, as `by_gap` makes them; copies of equal values do not count."""
    M = len(stacks) - 1
    last = stacks[M] if stacks else None
    return isinstance(last, np.ndarray) and all(
        isinstance(s, np.ndarray)
        and s.__array_interface__ == last[M - j:].__array_interface__
        for j, s in enumerate(stacks) if len(s))


# ---------------------------------------------------------------------------
# snapshot + CSV
# ---------------------------------------------------------------------------

def _unlink(path):
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass


def write_snapshot(path, grid: SpaceTimeGrid, meaning: str,
                   dt: float, values: np.ndarray):
    """Write one snapshot as a new file: a file already at `path` is
    unlinked, not rewritten, so the names linked to it keep their bytes."""
    if meaning not in MEANINGS:
        raise FieldError(f"snapshot meaning {meaning!r} is not one of "
                         f"{MEANINGS}", path)
    if np.shape(values) != grid.shape():
        raise FieldError(f"snapshot payload shape {np.shape(values)} != grid "
                         f"{grid.shape()}", path)
    tag = meaning.encode("ascii").ljust(8, b"\x00")
    payload = np.ascontiguousarray(values, dtype="<f8")
    _unlink(path)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(grid.dim, grid.points_per_dim, grid.half_extent,
                              dt, tag))
        fh.write(payload)


def read_snapshot(path):
    """Returns (dim, N, L, dt, meaning, values) from a snapshot file."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _HEADER.size:
            raise FieldError(f"snapshot of {size} bytes, shorter than its "
                             f"{_HEADER.size}-byte header", path)
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
            raise FieldError("snapshot header: " + "; ".join(problems), path)
        shape = (N,) * dim
        expected = _HEADER.size + 8 * math.prod(shape)
        if size != expected:
            raise FieldError(f"snapshot of {size} bytes, but a {meaning!r} "
                             f"header with dim={dim}, N={N} implies {expected}",
                             path)
        values = np.fromfile(fh, dtype="<f8").reshape(shape)
    return dim, N, L, dt, meaning, values


def csv_prefixes(columns) -> List[str]:
    """Leading cells of each CSV row: the repr of every column's entry, each
    followed by a comma.  `columns` holds one sequence per leading column."""
    rows = zip(*(map(repr, c) for c in columns))
    return [",".join(cells) + "," for cells in rows]


def format_rows(head: str, prefixes: List[str], values,
                newline: str = "\n") -> str:
    """CSV text of one row per prefix: `head`, the row's prefix, then the repr
    of the row's entry in `values`.

    Every float is written as its repr, so it parses back to the same value.
    """
    rows = map(add, prefixes, map(repr, values))
    return head + (newline + head).join(rows) + newline


def write_csv(path, field: KernelField):
    """A field as a plain-text table in long format, dot decimal: columns
    ``i, j``, the offset indices, then ``value``; the pairs follow one
    another in sorted (i, j) order, one row per pair and offset in C order.
    For a field that depends on the gap alone, each slice of the last stack
    is formatted once and its text serves every pair of its gap."""
    grid = field.grid
    if field.meaning not in MEANINGS:
        raise FieldError(f"csv meaning {field.meaning!r} is not one of "
                         f"{MEANINGS}", path)
    offsets = np.indices(grid.shape()).reshape(grid.dim, -1) \
        - grid.points_per_dim // 2
    prefixes = csv_prefixes(offsets.tolist())
    names = ["i", "j"] + [f"i{k}" for k in range(grid.dim)] + ["value"]

    def text(vals):
        return format_rows("", prefixes, vals.ravel().tolist())
    shared, M = depends_on_gap(field.stacks), len(field.stacks) - 1
    # slice k of the last stack M has the gap M - k
    gap_texts = {M - k: text(vals) for k, vals in
                 enumerate(field.stacks[M])} if shared else {}
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + "\n")
        for (i, j) in field.pairs():
            body = gap_texts[j - i] if shared else text(field.slice((i, j)))
            head = f"{i},{j},"
            # the lead on every row: each newline but the last gains it
            fh.write(head + body.replace("\n", "\n" + head,
                                         len(prefixes) - 1))


def snapshot_field(field_obj, directory, stem: str):
    """Write one snapshot per stored pair of a field, named
    ``<stem>_<i>_<j>.snap``, and return their paths.  For a field that
    depends on the gap alone, the first pair of each gap is written and every
    later pair of that gap is a hard link to its file, or a file of its own
    where the directory takes no link; any other field gets one file per
    pair."""
    grid, meaning = field_obj.grid, field_obj.meaning
    shared = depends_on_gap(field_obj.stacks)
    first, paths = {}, []
    for (i, j) in field_obj.pairs():
        path = os.path.join(directory, f"{stem}_{i:03d}_{j:03d}.snap")
        source = first.setdefault(j - i if shared else (i, j), path)
        if source == path or not _link(source, path):
            write_snapshot(path, grid, meaning, field_obj.gap((i, j)),
                           field_obj.slice((i, j)))
        paths.append(path)
    return paths


def _link(source, path) -> bool:
    """Make `path` a new name of the file `source`; False if the link fails."""
    _unlink(path)
    try:
        os.link(source, path)
    except OSError:
        return False
    return True


def read_snapshot_fields(directory) -> Dict[str, KernelField]:
    """The field of every snapshot group ``<stem>_iii_jjj.snap`` in a
    directory, by stem.  The lattice and meaning come from the headers, which
    must agree within a group, the pairs from the file names, and the grid's
    step from the headers' gaps; names of one file (hard links) are read
    once.  A group must hold the pairs (0, j) .. (n - 1, j) of each j it
    names; one that holds every pair, with each gap's names on one file,
    reads back by gap (`by_gap`)."""
    groups: Dict[str, Dict[PairKey, str]] = {}
    for name in os.listdir(directory):
        m = _SNAPSHOT_NAME.fullmatch(name)
        if m:
            groups.setdefault(m[1], {})[int(m[2]), int(m[3])] = \
                os.path.join(directory, name)
    return {stem: _read_group(stem, pairs)
            for stem, pairs in sorted(groups.items())}


def _read_group(stem: str, paths: Dict[PairKey, str]) -> KernelField:
    by_inode, slices, head = {}, {}, None
    for (i, j), path in sorted(paths.items()):
        st = os.stat(path)
        if (st.st_dev, st.st_ino) not in by_inode:
            by_inode[st.st_dev, st.st_ino] = read_snapshot(path)
        dim, N, L, dt, meaning, values = by_inode[st.st_dev, st.st_ino]
        if i >= j:
            raise FieldError(f"pair ({i}, {j}) needs i < j", path)
        if head is None:
            head, first, step = (dim, N, L, meaning), path, dt / (j - i)
        for key, want, got in zip(("dim", "N", "L", "meaning"), head,
                                  (dim, N, L, meaning)):
            if got != want:
                raise FieldError(f"headers disagree on {key}: {got!r} here, "
                                 f"{want!r} in {first}", path)
        if not math.isclose(dt, (j - i) * step, rel_tol=1e-9):
            raise FieldError(
                f"gap dt={dt!r} is not {j - i} steps of {step!r}, the step "
                f"of {first}: snapshots of runs with different time steps "
                "share the directory; use a fresh --outdir, or remove the "
                f"stale {stem}_iii_jjj.snap names", path)
        slices[i, j] = values
    M = max(j for _, j in slices)
    stacks = [[] for _ in range(M + 1)]
    for (i, j), values in sorted(slices.items()):
        if i != len(stacks[j]):
            raise FieldError(f"no snapshot of the pair ({len(stacks[j])}, "
                             f"{j}) beside that of ({i}, {j})", paths[i, j])
        stacks[j].append(values)
    # every pair, and the names of each gap one file: the gap rule on disk
    if len(slices) == M * (M + 1) // 2 and all(
            values is stacks[M][M - (j - i)]
            for (i, j), values in slices.items()):
        stacks = by_gap(np.array(stacks[M]))
    dim, N, L, meaning = head
    return KernelField(SpaceTimeGrid(dim, L, N, M * step, M), meaning, stacks)
