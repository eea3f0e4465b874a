import math
import os
import struct
from collections import Counter

import numpy as np
import pytest

from pseudoproc import (SpaceTimeGrid, GridError, KernelField, FieldError,
                        synthesize, analyze, convolve, interior_mask,
                        write_snapshot, read_snapshot, write_csv,
                        operator_bound_constant)
from pseudoproc import fields as fields_module
from pseudoproc.fields import (csv_prefixes, format_rows, snapshot_field,
                               read_snapshot_fields, by_gap, depends_on_gap)


def test_lattice_is_conjugate(default_grid):
    g = default_grid
    assert g.dx == pytest.approx(2 * g.half_extent / g.points_per_dim)
    dlam = np.diff(np.sort(g.freq_axis()))[0]
    assert dlam == pytest.approx(math.pi / g.half_extent)
    assert g.dx * dlam == pytest.approx(2 * math.pi / g.points_per_dim)


def test_grid_validation():
    with pytest.raises(GridError):
        SpaceTimeGrid(3, 10.0, 64, 1.0, 4)
    with pytest.raises(GridError):
        SpaceTimeGrid(1, 10.0, 63, 1.0, 4)
    with pytest.raises(GridError):
        SpaceTimeGrid(1, -1.0, 64, 1.0, 4)
    with pytest.raises(GridError):
        SpaceTimeGrid(1, 10.0, 64, 0.0, 4)
    with pytest.raises(GridError, match="half_extent"):
        SpaceTimeGrid(1, math.nan, 64, 1.0, 4)
    with pytest.raises(GridError, match="time_horizon"):
        SpaceTimeGrid(1, 10.0, 64, math.inf, 4)


def test_synthesize_analyze_roundtrip(default_grid):
    rng = np.random.default_rng(7)
    spec = rng.normal(size=129) + 1j * rng.normal(size=129)
    # lam = 0 and the Nyquist mode are their own partners: real for a field
    spec[[0, -1]] = spec[[0, -1]].real
    vals = synthesize(default_grid, spec)
    assert vals.shape == (256,) and vals.dtype == float
    back = analyze(default_grid, vals)
    assert np.allclose(back, spec, atol=1e-12)


@pytest.mark.parametrize("dim, points", [(1, 64), (2, 16)])
def test_transforms_of_a_stack_equal_per_slice_transforms(dim, points):
    # only the trailing grid.dim axes are transformed; leading axes index
    # a stack and give bit for bit the slice-by-slice results
    grid = SpaceTimeGrid(dim, 5.0, points, 1.0, 4)
    rng = np.random.default_rng(11)
    fields = rng.normal(size=(3, 2) + grid.shape())
    spectra = analyze(grid, fields)
    assert spectra.shape == (3, 2) + grid.spectrum_shape()
    for k in np.ndindex(3, 2):
        assert np.array_equal(spectra[k], analyze(grid, fields[k]))
    back = synthesize(grid, spectra)
    for k in np.ndindex(3, 2):
        assert np.array_equal(back[k], synthesize(grid, spectra[k]))
    assert np.allclose(back, fields, atol=1e-12)


def _hermitian_extension(grid, half):
    """The full FFT-ordered lattice of a half spectrum: mode -lam holds
    conj F(lam) wherever the half lattice lacks it."""
    N = grid.points_per_dim
    full = np.zeros(half.shape[:-1] + (N,), complex)
    full[..., :N // 2 + 1] = half
    mirror = half if grid.dim == 1 else half[..., (-np.arange(N)) % N, :]
    full[..., N // 2 + 1:] = np.conj(mirror[..., 1:N // 2][..., ::-1])
    return full


@pytest.mark.parametrize("dim, points", [(1, 64), (2, 16)])
def test_half_spectra_equal_the_full_transforms_of_their_hermitian_extension(
        dim, points):
    grid = SpaceTimeGrid(dim, 5.0, points, 1.0, 4)
    axes = tuple(range(-dim, 0))
    rng = np.random.default_rng(23)
    fields = rng.normal(size=(3,) + grid.shape())
    # analyze keeps the modes 0 .. N/2 of the last axis of the full spectrum
    full = np.fft.fftn(np.fft.ifftshift(fields, axes=axes), axes=axes)
    full *= grid.cell_volume
    spectra = analyze(grid, fields)
    assert np.allclose(spectra, full[..., :points // 2 + 1], rtol=0,
                       atol=1e-13 * np.abs(full).max())
    assert np.allclose(_hermitian_extension(grid, spectra), full, rtol=0,
                       atol=1e-13 * np.abs(full).max())
    # any half spectrum synthesizes as its Hermitian extension does; the
    # self-conjugate modes (lam = 0, Nyquist) keep their real part, as the
    # real part of the full synthesis does
    noise = rng.normal(size=(3,) + grid.spectrum_shape()) \
        + 1j * rng.normal(size=(3,) + grid.spectrum_shape())
    ref = np.fft.fftshift(np.fft.ifftn(_hermitian_extension(grid, noise),
                                       axes=axes), axes=axes) / grid.cell_volume
    got = synthesize(grid, noise)
    assert got.dtype == float
    assert np.allclose(got, ref.real, rtol=0, atol=1e-13 * np.abs(ref).max())
    nyquist = noise.copy()
    nyquist[..., [0, -1]] += 1j
    assert np.allclose(synthesize(grid, nyquist), got, rtol=0, atol=1e-14)


def test_convolution_matches_direct_sum():
    g = SpaceTimeGrid(1, 5.0, 32, 1.0, 4)
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=32), rng.normal(size=32)
    conv = convolve(g, a, b)
    # direct circular sum with the cell weight
    direct = np.empty(32)
    for i in range(32):
        direct[i] = sum(a[(i - j + 16) % 32] * b[j] for j in range(32)) * g.dx
    # offset bookkeeping: index of x=0 is N//2
    assert np.allclose(conv, direct, atol=1e-12)


def _reference_synthesize(grid, spectrum):
    """synthesize in the numpy reference form: irfftn and fftshift."""
    axes = tuple(range(-grid.dim, 0))
    vals = np.fft.fftshift(np.fft.irfftn(spectrum, s=grid.shape(), axes=axes),
                           axes=axes)
    vals /= grid.cell_volume
    return vals


def _reference_analyze(grid, values):
    """analyze in the numpy reference form: ifftshift and rfftn."""
    axes = tuple(range(-grid.dim, 0))
    out = np.fft.rfftn(np.fft.ifftshift(values, axes=axes), axes=axes)
    out *= grid.cell_volume
    return out


def _reference_convolve(grid, f, g):
    """convolve in the numpy reference form, over the lattice axes."""
    axes = tuple(range(-grid.dim, 0))
    out = np.fft.irfftn(np.fft.rfftn(np.fft.ifftshift(f, axes=axes), axes=axes) *
                        np.fft.rfftn(np.fft.ifftshift(g, axes=axes), axes=axes),
                        s=grid.shape(), axes=axes) * grid.cell_volume
    return np.fft.fftshift(out, axes=axes)


@pytest.mark.parametrize("lead", [(), (3, 2)])
@pytest.mark.parametrize("dim, points", [(1, 64), (2, 16)])
def test_transforms_equal_the_numpy_reference_bit_for_bit(dim, points, lead):
    grid = SpaceTimeGrid(dim, 5.0, points, 1.0, 4)
    rng = np.random.default_rng(21)
    fields = rng.normal(size=lead + grid.shape())
    other = rng.normal(size=lead + grid.shape())
    noise = rng.normal(size=lead + grid.spectrum_shape()) \
        + 1j * rng.normal(size=lead + grid.spectrum_shape())
    spectra = analyze(grid, fields)
    assert np.array_equal(spectra, _reference_analyze(grid, fields))
    assert np.array_equal(synthesize(grid, spectra),
                          _reference_synthesize(grid, spectra))
    assert np.array_equal(synthesize(grid, noise),
                          _reference_synthesize(grid, noise))
    assert np.array_equal(convolve(grid, fields, other),
                          _reference_convolve(grid, fields, other))


@pytest.mark.parametrize("dim, points, steps", [(1, 128, 8), (2, 16, 4)])
def test_march_equals_the_march_on_reference_transforms(dim, points, steps,
                                                        monkeypatch):
    import pseudoproc.evolution as evolution
    from pseudoproc import (DriftField, PseudoGradientSpec, TerminalValueProblem,
                            compact_bump, isotropic_symbol)
    bump = lambda t, *xs: (1.0 + 0.5 * np.cos(np.pi * t)) * np.exp(
        -sum(x * x for x in xs) / 8)
    b = DriftField(dim=dim, kind="space_time", evaluator=lambda t, *xs: np.stack(
        [(0.7 - 1.1 * c) * bump(t, *xs) for c in range(dim)]))

    def march():
        return TerminalValueProblem(
            isotropic_symbol(1.5, 1.0, dim), PseudoGradientSpec(beta=0.5, dim=dim),
            SpaceTimeGrid(dim, 10.0, points, 1.0, steps), b,
            compact_bump(4.0)).solve()

    u = march()
    monkeypatch.setattr(evolution, "synthesize", _reference_synthesize)
    monkeypatch.setattr(evolution, "analyze", _reference_analyze)
    ref = march()
    assert sorted(u) == sorted(ref) == list(range(steps))
    assert all(np.array_equal(u[i], ref[i]) for i in ref)


@pytest.mark.parametrize("dim, points, wrong", [(1, 64, 63), (1, 64, 128),
                                               (2, 16, 15), (2, 16, 32)])
def test_transforms_reject_arrays_off_the_lattice(dim, points, wrong):
    # an odd length or another N: the half swap needs the lattice's even N
    grid = SpaceTimeGrid(dim, 5.0, points, 1.0, 4)
    bad = np.ones((3,) + (wrong,) * dim)
    for transform, shape in ((synthesize, grid.spectrum_shape()),
                             (analyze, grid.shape())):
        with pytest.raises(GridError) as err:
            transform(grid, bad)
        assert str(bad.shape) in str(err.value)
        assert str(shape) in str(err.value)
    with pytest.raises(GridError):
        convolve(grid, bad, bad)


@pytest.mark.parametrize("dim, points", [(1, 64), (2, 16)])
def test_synthesize_refuses_a_full_lattice_spectrum(dim, points):
    grid = SpaceTimeGrid(dim, 5.0, points, 1.0, 4)
    full = np.ones((2,) + grid.shape(), complex)
    with pytest.raises(GridError) as err:
        synthesize(grid, full)
    assert str(grid.spectrum_shape()) in str(err.value)
    half = analyze(grid, np.ones((2,) + grid.shape()))
    assert half.shape == (2,) + grid.shape()[:-1] + (points // 2 + 1,)
    with pytest.raises(GridError):
        analyze(grid, half.real)


def test_interior_mask(default_grid):
    m = interior_mask(default_grid, margin=0.1)
    x = default_grid.axis()
    assert m[np.abs(x) <= 35.9].all()
    assert not m[np.abs(x) > 36.1].any()


def _field(grid, meaning, values):
    """The field of a mapping from time pair (i, j) to slices, whose pairs
    of each terminal index j run i = 0, 1, ..."""
    counts = Counter(j for _, j in values)
    return KernelField(grid, meaning, [
        [values[i, j] for i in range(counts[j])]
        for j in range(max(counts) + 1)])


def test_kernel_field_validation(default_grid):
    with pytest.raises(FieldError, match="unknown meaning"):
        KernelField(default_grid, "v0", [])
    with pytest.raises(FieldError, match="stack 1 holds 2"):
        KernelField(default_grid, "g0", [[], [np.zeros(256)] * 2])
    with pytest.raises(FieldError, match="slice shape"):
        KernelField(default_grid, "g0", [[], [np.zeros(128)]])
    with pytest.raises(FieldError, match="slice shape"):
        KernelField(default_grid, "v", [[], [np.zeros(256)]])
    with pytest.raises(FieldError, match="stacks"):
        KernelField(default_grid, "g0", [[]] * (default_grid.time_steps + 2))
    f = KernelField(default_grid, "g0", [[], [], [np.zeros(256)]])
    assert f.pairs() == [(0, 2)]
    for pair in ((0, 1), (1, 2), (2, 2), (2, 1), (-1, 2), (0, 3)):
        assert not f.holds(pair)
        with pytest.raises(FieldError, match="no slice"):
            f.slice(pair)


def test_snapshot_roundtrip(tmp_path, default_grid):
    vals = np.arange(256, dtype=float) / 17.0
    path = tmp_path / "k.snap"
    write_snapshot(path, default_grid, "g0", 0.25, vals)
    dim, N, L, dt, meaning, out = read_snapshot(path)
    assert (dim, N, L, dt, meaning) == (1, 256, 40.0, 0.25, "g0")
    assert np.array_equal(out, vals)


@pytest.mark.parametrize("meaning, shape, words", [
    ("v0", (256,), "meaning 'v0'"),
    ("v", (1, 256), "meaning 'v'"),
    ("g0", (1, 256), "payload shape"),
    ("G", (128,), "payload shape"),
], ids=["vector-meaning", "in-memory-meaning", "vector-payload",
        "short-payload"])
def test_snapshot_writer_refuses_what_the_reader_refuses(
        tmp_path, default_grid, meaning, shape, words):
    path = tmp_path / "bad.snap"
    with pytest.raises(FieldError, match=words):
        write_snapshot(path, default_grid, meaning, 0.25, np.zeros(shape))
    assert not path.exists()


def _snapshot_with(path, grid, dim=None, N=None, tag=None, drop=0):
    """A valid g0 snapshot of grid with header fields replaced, payload cut."""
    write_snapshot(path, grid, "g0", 0.25, np.ones(grid.shape()))
    raw = bytearray(path.read_bytes())
    hdr = list(struct.unpack_from("<ii d d 8s", raw))
    for k, v in enumerate((dim, N, None, None, tag)):
        if v is not None:
            hdr[k] = v
    struct.pack_into("<ii d d 8s", raw, 0, *hdr)
    path.write_bytes(bytes(raw[:len(raw) - drop]))
    return path


@pytest.mark.parametrize("change, words", [
    ({"drop": 8}, "implies"),
    ({"dim": 3}, "dim=3"),
    ({"N": 0}, "N=0"),
    ({"tag": b"q\x00"}, "meaning tag"),
    ({"tag": b"v0\x00"}, "meaning tag"),
], ids=["truncated-payload", "dim-3", "N-0", "unknown-tag", "v0-tag"])
def test_snapshot_header_is_validated(tmp_path, default_grid, change, words):
    path = _snapshot_with(tmp_path / "bad.snap", default_grid, **change)
    with pytest.raises(FieldError, match=words):
        read_snapshot(path)


def test_snapshot_shorter_than_header(tmp_path):
    path = tmp_path / "stub.snap"
    path.write_bytes(b"\x01\x00\x00\x00")
    with pytest.raises(FieldError, match="header"):
        read_snapshot(path)


def test_csv_mirror_locale_independent(tmp_path, default_grid):
    vals = np.linspace(-1.5, 1.5, 256)
    path = tmp_path / "k.csv"
    write_csv(path, _field(default_grid, "g0", {(0, 1): vals}))
    text = path.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "i,j,i0,value"
    assert len(lines) == 257
    # dot decimal separator, offset index range centered at zero
    assert "," in lines[1] and ";" not in text
    first_idx = int(lines[1].split(",")[2])
    assert first_idx == -128
    for cell in lines[1].split(",")[3:]:
        float(cell)  # parses with C locale semantics


def test_csv_matches_cell_by_cell_reference(tmp_path):
    g = SpaceTimeGrid(2, 10.0, 8, 1.0, 4)
    vals = np.random.default_rng(3).standard_normal((3, 8, 8)) * 1e-7
    blocks = {(0, 1): vals[0], (0, 2): vals[1], (1, 2): vals[2]}
    path = tmp_path / "g.csv"
    write_csv(path, _field(g, "G", blocks))
    rows = ["i,j,i0,i1,value"]
    for (i, j), block in sorted(blocks.items()):
        for flat in range(64):
            idx = np.unravel_index(flat, g.shape())
            cells = [str(i), str(j)] + [str(int(k) - 4) for k in idx]
            rows.append(",".join(cells + [repr(float(block[idx]))]))
    assert path.read_text() == "\n".join(rows) + "\n"


def test_csv_refuses_the_vector_meaning(tmp_path):
    g = SpaceTimeGrid(1, 10.0, 8, 1.0, 4)
    with pytest.raises(FieldError, match="meaning 'v'"):
        write_csv(tmp_path / "v.csv", _field(g, "v", {(0, 1): np.zeros((1, 8))}))


def _reference_long_csv(grid, values):
    """write_csv's text for a mapping as it was formatted before equal
    slices shared their text: every pair's block formatted on its own."""
    offsets = np.indices(grid.shape()).reshape(grid.dim, -1) \
        - grid.points_per_dim // 2
    prefixes = csv_prefixes(offsets.tolist())
    names = ["i", "j"] + [f"i{k}" for k in range(grid.dim)] + ["value"]
    text = ",".join(names) + "\n"
    for key, vals in sorted(values.items()):
        text += format_rows("".join(f"{k}," for k in key), prefixes,
                            [np.asarray(vals, dtype=float).ravel().tolist()])
    return text


def _long_csv_cases():
    rng = np.random.default_rng(11)
    g1, g2 = SpaceTimeGrid(1, 10.0, 8, 1.0, 4), SpaceTimeGrid(2, 10.0, 4, 1.0, 3)
    pairs1 = [(i, j) for j in range(1, 5) for i in range(j)]
    pairs2 = [(i, j) for j in range(1, 4) for i in range(j)]
    by_gap = rng.standard_normal((5, 8))
    signed = np.zeros((2, 8))
    signed[1, 3] = -0.0
    nan = by_gap[1].copy()
    nan[[2, 5]] = np.nan
    plane = rng.standard_normal((4, 4, 4)) * 1e-7
    return {
        # copies, so equal slices share bytes, not memory
        "repeated": (g1, {(i, j): by_gap[j - i].copy() for i, j in pairs1}),
        "distinct": (g1, {p: rng.standard_normal(8) for p in pairs1}),
        "signed-zero": (g1, {p: signed[n % 2].copy()
                             for n, p in enumerate(pairs1)}),
        "nan": (g1, {(i, j): (nan if j - i == 1 else by_gap[j - i]).copy()
                     for i, j in pairs1}),
        "scalar-2d": (g2, {(i, j): plane[j - i].copy() for i, j in pairs2}),
    }


@pytest.mark.parametrize("case", sorted(_long_csv_cases()))
def test_long_csv_equals_the_per_pair_formatting(tmp_path, case):
    grid, values = _long_csv_cases()[case]
    path = tmp_path / "f.csv"
    write_csv(path, _field(grid, "G", values))
    with open(path, newline="") as fh:
        assert fh.read() == _reference_long_csv(grid, values)


def _gap_field(grid, top):
    """A field whose stack j views the last j slices of top, by gap."""
    return KernelField(grid, "G", by_gap(top))


def test_distinct_stacks_hold_each_viewed_slice_once():
    grid = SpaceTimeGrid(1, 10.0, 8, 1.0, 4)
    top = np.random.default_rng(5).standard_normal((4, 8))
    shared = _gap_field(grid, top)
    assert depends_on_gap(shared.stacks)
    [only] = shared.distinct_stacks()
    assert only.__array_interface__ == top.__array_interface__
    # equal values in stacks of their own are all kept
    copies = KernelField(grid, "G", [s.copy() for s in shared.stacks])
    assert [len(s) for s in copies.distinct_stacks()] == [1, 2, 3, 4]
    # one copied stack: the field no longer depends on the gap alone, and
    # every non-empty stack is kept, the views among them
    one_copied = KernelField(grid, "G", shared.stacks[:2]
                             + [shared.stacks[2].copy()] + shared.stacks[3:])
    assert not depends_on_gap(one_copied.stacks)
    kept = one_copied.distinct_stacks()
    assert [len(s) for s in kept] == [1, 2, 3, 4]
    assert all(np.array_equal(s, top[4 - len(s):]) for s in kept)
    lists = _field(grid, "G", {(0, 2): top[0], (1, 2): top[1]})
    [stack] = lists.distinct_stacks()
    assert np.array_equal(stack, top[:2])


@pytest.mark.parametrize("dim", [1, 2])
def test_integrals_equal_the_per_pair_reductions(dim):
    # one reduction per distinct stack gives each pair's own sum, bit for bit
    grid = SpaceTimeGrid(dim, 10.0, 8, 1.0, 4)
    top = np.random.default_rng(7).standard_normal((4,) + grid.shape())
    shared = _gap_field(grid, top)
    copies = KernelField(grid, "G", [list(s) for s in shared.stacks])
    for field, count in ((shared, 4), (copies, 10)):
        sums = field.integrals()
        assert len(sums) == count
        assert set(sums.tolist()) == {field.mass(k) for k in field.pairs()}
        assert operator_bound_constant(field) == max(
            float(np.abs(field.slice(k)).sum() * grid.cell_volume)
            for k in field.pairs())
    # a vector field keeps its component axis
    signs = np.array([1.0] + [-1.0] * (dim - 1))
    v = KernelField(grid, "v", by_gap(top[:, None] * signs.reshape(
        (dim,) + (1,) * dim)))
    assert np.array_equal(v.integrals(), shared.integrals()[:, None] * signs)


def test_snapshot_field_links_the_pairs_of_one_gap(tmp_path):
    grid = SpaceTimeGrid(1, 10.0, 8, 1.0, 4)
    top = np.random.default_rng(7).standard_normal((4, 8))
    for sub in ("gaps", "flat"):
        (tmp_path / sub).mkdir()
    paths = snapshot_field(_gap_field(grid, top), tmp_path / "gaps", "G")
    assert len(paths) == 10 == len(os.listdir(tmp_path / "gaps"))
    names = {}
    for path in paths:
        i, j = (int(k) for k in os.path.basename(path)[2:-5].split("_"))
        names.setdefault(j - i, set()).add(os.stat(path).st_ino)
        *_, dt, meaning, values = read_snapshot(path)
        assert (dt, meaning) == ((j - i) * grid.dt, "G")
        assert np.array_equal(values, top[4 - (j - i)])
    # one file per gap, and the first pair of each gap, (0, gap), names it
    assert [len(inodes) for _, inodes in sorted(names.items())] == [1] * 4
    assert {g: os.stat(tmp_path / "gaps" / f"G_000_{g:03d}.snap").st_nlink
            for g in names} == {1: 4, 2: 3, 3: 2, 4: 1}
    # equal payloads at different gaps are different gaps: no link
    paths = snapshot_field(_gap_field(grid, np.ones((4, 8))),
                           tmp_path / "flat", "G")
    assert len({os.stat(p).st_ino for p in paths}) == 4


def test_snapshot_field_writes_copies_pair_by_pair(tmp_path):
    grid = SpaceTimeGrid(1, 10.0, 8, 1.0, 4)
    shared = _gap_field(grid, np.random.default_rng(7).standard_normal((4, 8)))
    copies = KernelField(grid, "G", [s.copy() for s in shared.stacks])
    assert not depends_on_gap(copies.stacks)
    for sub, field in (("gaps", shared), ("copies", copies)):
        (tmp_path / sub).mkdir()
        snapshot_field(field, tmp_path / sub, "G")
    # equal values that are copies share no file, and each file holds the
    # bytes of its name in the linked directory
    files = sorted((tmp_path / "copies").iterdir())
    assert len(files) == 10
    assert all(os.stat(p).st_nlink == 1 for p in files)
    assert all(p.read_bytes() == (tmp_path / "gaps" / p.name).read_bytes()
               for p in files)


def test_long_csv_formats_a_gap_field_once_per_gap(tmp_path, monkeypatch):
    grid = SpaceTimeGrid(1, 10.0, 8, 1.0, 4)
    shared = _gap_field(grid, np.random.default_rng(5).standard_normal((4, 8)))
    copies = KernelField(grid, "G", [s.copy() for s in shared.stacks])
    calls, counts = [], {}
    monkeypatch.setattr(fields_module, "format_rows",
                        lambda *a, **k: calls.append(a) or format_rows(*a, **k))
    for name, field in (("shared", shared), ("copies", copies)):
        write_csv(tmp_path / f"{name}.csv", field)
        counts[name] = len(calls)
        calls.clear()
    # one format per gap, one per pair for copies: the same text
    assert counts == {"shared": 4, "copies": 10}
    assert (tmp_path / "shared.csv").read_bytes() == \
        (tmp_path / "copies.csv").read_bytes()


def test_snapshot_groups_read_back_as_their_fields(tmp_path):
    g1 = SpaceTimeGrid(1, 10.0, 8, 1.0, 4)
    g2 = SpaceTimeGrid(2, 5.0, 4, 2.0, 2)
    rng = np.random.default_rng(9)
    fields = {"G": _gap_field(g1, rng.standard_normal((4, 8))),
              "g0": KernelField(g2, "g0",
                                [(), (), rng.standard_normal((1, 4, 4))])}
    for stem, field in fields.items():
        snapshot_field(field, tmp_path, stem)
    (tmp_path / "G.csv").write_text("not a snapshot\n")
    read = read_snapshot_fields(tmp_path)
    assert sorted(read) == ["G", "g0"]
    # all pairs, one file per gap: read back by gap; a lone pair is not
    assert [depends_on_gap(read[s].stacks) for s in ("G", "g0")] == \
        [True, False]
    for stem, field in fields.items():
        got = read[stem]
        assert (got.grid.dim, got.grid.points_per_dim, got.grid.half_extent,
                got.meaning, got.pairs()) == \
            (field.grid.dim, field.grid.points_per_dim,
             field.grid.half_extent, field.meaning, field.pairs())
        assert got.grid.dt == pytest.approx(field.grid.dt, rel=1e-12)
        for pair in field.pairs():
            assert got.slice(pair).tobytes() == field.slice(pair).tobytes()


def test_a_snapshot_group_with_a_missing_pair_is_refused(tmp_path):
    grid = SpaceTimeGrid(1, 10.0, 8, 1.0, 4)
    snapshot_field(_gap_field(grid, np.ones((4, 8))), tmp_path, "G")
    os.unlink(tmp_path / "G_000_003.snap")
    with pytest.raises(FieldError, match=r"no snapshot of the pair \(0, 3\)"):
        read_snapshot_fields(tmp_path)


def test_field_errors_lead_with_the_path(tmp_path):
    path = _snapshot_with(tmp_path / "bad.snap",
                          SpaceTimeGrid(1, 10.0, 8, 1.0, 4), tag=b"q\x00")
    with pytest.raises(FieldError) as err:
        read_snapshot(path)
    assert err.value.path == path
    assert str(err.value).startswith(f"{path}: snapshot header: meaning tag")


def test_mass_uses_cell_volume(default_grid):
    f = KernelField(default_grid, "g0", [[], [np.ones(256)]])
    assert f.mass((0, 1)) == pytest.approx(256 * default_grid.dx)
