import csv
import dataclasses
import errno
import io
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pseudoproc.cli import (RunConfig, ConfigError, main, EXIT_OK,
                            EXIT_CONFIG, EXIT_RESOLUTION,
                            EXIT_NONCONVERGENCE, EXIT_VERIFY)
from pseudoproc.evolution import apply_operator, constant_one
from pseudoproc.drift import constant_drift
from pseudoproc.fields import (KernelField, read_snapshot, write_csv,
                               write_snapshot, read_snapshot_fields,
                               depends_on_gap)
from pseudoproc.spectral import constant_drift_kernel, synthesize_g0
from pseudoproc.volterra import ConvergenceMonitor, PerturbationProblem


def test_config_round_trip(tmp_path):
    cfg = RunConfig(alpha=1.7, beta=0.3, drift="0.5,0.25", dim=2,
                    points=128, stop_tol=2.5e-7)
    path = tmp_path / "run.cfg"
    cfg.dump(path)
    again = RunConfig.from_file(path)
    assert again == cfg


@settings(max_examples=20, deadline=None)
@given(alpha=st.floats(1.05, 1.95), beta=st.floats(0.05, 0.95),
       tol=st.floats(1e-12, 1e-2))
def test_config_round_trip_generated(alpha, beta, tol):
    cfg = RunConfig(alpha=alpha, beta=beta, stop_tol=tol)
    text = {f: str(getattr(cfg, f)) for f in
            ("alpha", "beta", "stop_tol", "drift", "points")}
    assert RunConfig.from_mapping(text) == cfg


def test_config_collects_all_errors_at_once():
    cfg = RunConfig(alpha=3.0, beta=1.5, points=7, drift="1,2,3", dim=1,
                    phi="nope")
    with pytest.raises(ConfigError) as err:
        cfg.validate()
    text = "; ".join(err.value.problems)
    assert len(err.value.problems) >= 5
    for frag in ("alpha", "beta", "points", "drift", "phi"):
        assert frag in text


def test_config_file_syntax_errors(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("alpha 1.5\n")
    with pytest.raises(ConfigError, match="key = value"):
        RunConfig.from_file(p)
    p.write_text("unknown_knob = 3\n")
    with pytest.raises(ConfigError, match="unknown key"):
        RunConfig.from_file(p)
    p.write_text("alpha = banana\n")
    with pytest.raises(ConfigError, match="cannot parse"):
        RunConfig.from_file(p)


def test_config_file_comments_and_types(tmp_path):
    p = tmp_path / "ok.cfg"
    p.write_text("# a comment\nalpha = 1.6\npoints = 128\ndrift = 0.5\n")
    cfg = RunConfig.from_file(p)
    assert cfg.alpha == 1.6
    assert cfg.points == 128
    assert cfg.drift == "0.5"


def test_kernel_peak_matches_analytic(tmp_path):
    out = tmp_path / "k"
    code = main(["kernel", "--alpha", "1.5", "--c", "1", "--d", "1",
                 "--dt", "1", "--outdir", str(out)])
    assert code == EXIT_OK
    assert main(["emit", "--what", "csv", "--outdir", str(out)]) == EXIT_OK
    with open(out / "g0.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    peak = [r for r in rows if (r["i"], r["j"], r["i0"]) == ("0", "16", "0")]
    val = float(peak[0]["value"])
    assert val == pytest.approx(math.gamma(1 + 1 / 1.5) / math.pi, abs=1e-6)


def test_kernel_closed_form_reports_negative_min(tmp_path, capsys):
    out = tmp_path / "cf"
    code = main(["kernel", "--b", "1", "--dt", "1",
                 "--points", "256", "--half-extent", "40",
                 "--outdir", str(out)])
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    min_line = [l for l in printed.splitlines() if l.startswith("min")][0]
    assert float(min_line.split("=")[1]) < 0.0


@pytest.mark.parametrize("drift, stem", [("0.5", "G_closed_form"),
                                         ("0", "g0")])
def test_kernel_announces_switch_to_closed_form(tmp_path, capsys, drift,
                                                stem):
    out = tmp_path / "k"
    code = main(["kernel", "--b", drift, "--dt", "1", "--points", "256",
                 "--half-extent", "40", "--outdir", str(out)])
    assert code == EXIT_OK
    # the drift alone picks the kernel, and the report names it
    printed = capsys.readouterr().out
    assert f"wrote 1 snapshot(s) under {out}/{stem}_*" in printed
    assert [p.name for p in out.glob("*.snap")] == [f"{stem}_000_016.snap"]


_ONE_D_RUN = textwrap.dedent("""
    import contextlib, io, sys
    import numpy as np
    import pseudoproc.cli as cli
    from pseudoproc import (SpaceTimeGrid, isotropic_symbol,
                            PseudoGradientSpec, DriftField,
                            TerminalValueProblem, compact_bump)
    outdir = sys.argv[1]
    tiny = ["--points", "16", "--half-extent", "2", "--steps", "2",
            "--outdir", outdir]
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(["kernel"] + tiny),
                 cli.main(["kernel", "--b", "1"] + tiny),
                 cli.main(["perturb"] + tiny)]
    assert codes == [0, 0, 0], codes
    grid = SpaceTimeGrid(1, 40.0, 16, 1.0, 4)
    b = DriftField(dim=1, kind="space_time",
                   evaluator=lambda t, x: (np.exp(-x * x / 8) + 0 * t)[None])
    TerminalValueProblem(isotropic_symbol(1.5, 1.0, 1),
                         PseudoGradientSpec(beta=0.5, dim=1), grid, b,
                         compact_bump(5.0)).solve()
    print(sorted(m for m in ("scipy.special", "pseudoproc.verify")
                 if m in sys.modules))
    # the full registry, the 2-D plane-wave row included
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--outdir", outdir]) == 0
    print(sorted(m for m in ("scipy.special", "pseudoproc.verify")
                 if m in sys.modules))
""")


def test_no_command_loads_scipy(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    run = subprocess.run([sys.executable, "-c", _ONE_D_RUN, str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["[]", "['pseudoproc.verify']"]


def test_kernel_resolution_gate_exit(tmp_path):
    code = main(["kernel", "--points", "64", "--half-extent", "40",
                 "--dt", "0.01", "--outdir", str(tmp_path / "r")])
    assert code == EXIT_RESOLUTION


# a nonzero drift selects the closed-form kernel
@pytest.mark.parametrize("closed_form", [[], ["--b", "1"]])
@pytest.mark.parametrize("dt", ["0.3", "2"])
def test_kernel_refuses_a_gap_off_the_partition(tmp_path, capsys, closed_form,
                                                dt):
    code = main(["kernel", "--points", "512", "--half-extent", "40",
                 "--dt", dt] + closed_form + ["--outdir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("unsupported configuration:")
    assert f"dt={dt}" in err and "0.0625" in err and "T=1" in err
    assert not list(tmp_path.glob("*.snap"))


@pytest.mark.parametrize("closed_form, stem", [([], "g0"),
                                               (["--b", "1"],
                                                "G_closed_form")])
def test_kernel_stores_a_partition_gap_on_its_pair(tmp_path, closed_form,
                                                   stem):
    code = main(["kernel", "--points", "512", "--half-extent", "40",
                 "--dt", "0.5"] + closed_form + ["--outdir", str(tmp_path)])
    assert code == EXIT_OK
    assert [p.name for p in tmp_path.glob("*.snap")] == [f"{stem}_000_008.snap"]
    _, _, _, dt, _, _ = read_snapshot(tmp_path / f"{stem}_000_008.snap")
    assert dt == 0.5


def test_verify_refusal_is_an_unsupported_configuration(tmp_path, capsys):
    code = main(["verify", "--d", "2", "--only", "envelope-fits",
                 "--outdir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("unsupported configuration: envelope-fits")
    assert "config error" not in err


def test_successive_commands_share_no_parser_state(tmp_path):
    from pseudoproc.cli import build_parser
    assert build_parser() is build_parser()    # built once per process
    first, second, third = (tmp_path / n for n in ("a", "b", "c"))
    assert main(["emit", "--what", "resolution", "--points", "64",
                 "--steps", "8", "--dt", "0.5", "--outdir", str(first),
                 "--dump-config", str(tmp_path / "a.cfg")]) == EXIT_OK
    assert main(["kernel", "--outdir", str(second),
                 "--dump-config", str(tmp_path / "b.cfg")]) == EXIT_OK
    assert main(["emit", "--outdir", str(third)]) == EXIT_OK
    assert RunConfig.from_file(tmp_path / "a.cfg") == RunConfig(
        points=64, steps=8, dt=0.5, outdir=str(first))
    # the kernel command's own defaults, none of the flags before it
    assert RunConfig.from_file(tmp_path / "b.cfg") == RunConfig(
        points=2048, half_extent=160.0, outdir=str(second))
    assert os.listdir(third) == ["profiles.csv"]     # --what's default again


def test_help_texts_are_pinned(monkeypatch, capsys):
    # argparse wraps the help to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    texts = []
    for command in ("kernel", "perturb", "verify", "emit"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        texts.append(capsys.readouterr().out)
    assert "".join(texts) == (Path(__file__).parent / "cli_help.txt").read_text()


# the keys all four commands read, and those each reads besides
_SHARED_KEYS = {"alpha", "c", "dim", "points", "half_extent", "horizon",
                "steps", "outdir"}
_COMMAND_KEYS = {"kernel": {"beta", "drift", "dt"},
                 "perturb": {"beta", "drift", "phi", "stop_tol"},
                 "verify": {"beta", "gamma", "stop_tol"},
                 "emit": {"beta", "drift", "phi", "stop_tol", "dt"}}


@pytest.mark.parametrize("command", ["kernel", "perturb", "verify", "emit"])
def test_each_command_offers_exactly_its_keys_as_flags(command):
    from pseudoproc.cli import build_parser
    keys = _SHARED_KEYS | _COMMAND_KEYS[command]
    defaults = RunConfig()
    unset = vars(build_parser().parse_args([command]))
    options = {"command", "config", "dump_config", "only", "what"}
    assert set(unset) - options == keys
    for f in dataclasses.fields(RunConfig):
        flag = "--" + f.name.replace("_", "-")
        value = getattr(defaults, f.name)
        if f.name not in keys:
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args([command, flag, str(value)])
            assert exc.value.code == EXIT_CONFIG
            continue
        assert unset[f.name] is None              # leaves the field alone
        args = build_parser().parse_args([command, flag, str(value)])
        assert getattr(args, f.name) == value
        assert type(getattr(args, f.name)) is type(value)


def test_a_flag_the_command_lacks_is_no_prefix_of_one_it_has(capsys):
    # verify reads no drift: --b is refused, not taken for --beta
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--b", "5"])
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --b 5" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["perturb", "--half", "3"])
    assert exc.value.code == EXIT_CONFIG


def test_short_aliases_set_their_fields(tmp_path):
    dumped = tmp_path / "resolved.cfg"
    assert main(["emit", "--what", "resolution", "--d", "1", "--N", "64",
                 "--L", "20", "--T", "0.5", "--M", "4", "--b", "0.5",
                 "--dump-config", str(dumped),
                 "--outdir", str(tmp_path / "out")]) == EXIT_OK
    assert RunConfig.from_file(dumped) == RunConfig(
        dim=1, points=64, half_extent=20.0, horizon=0.5, steps=4,
        drift="0.5", outdir=str(tmp_path / "out"))


def test_config_error_exit():
    assert main(["kernel", "--alpha", "3.0"]) == EXIT_CONFIG


@pytest.mark.parametrize("argv, config, key", [
    (["perturb", "--stop-tol", "nan"], None, "stop_tol"),
    (["perturb", "--horizon", "nan"], None, "horizon"),
    (["emit", "--what", "resolution", "--steps", "0"], None, "steps"),
    (["perturb", "--c", "inf"], None, "c"),
    (["perturb", "--half-extent", "nan"], None, "half_extent"),
    (["kernel", "--dt", "nan"], None, "dt"),
    (["perturb", "--b", "nan"], None, "drift"),
    (["perturb", "--d", "2", "--b", "1,-inf"], None, "drift"),
    (["kernel"], "points = many\n", "points"),
])
def test_malformed_values_are_config_errors(tmp_path, capsys, argv, config,
                                            key):
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        argv = argv + ["--config", str(tmp_path / "run.cfg")]
    code = main(argv + ["--outdir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("config error") and key in err


def test_zero_drift_outputs_identical(tmp_path):
    # base synthesis and the perturbation pipeline must agree bit-for-bit
    kdir, pdir = tmp_path / "k", tmp_path / "p"
    args = ["--points", "128", "--half-extent", "20", "--steps", "8",
            "--drift", "0"]
    assert main(["kernel", "--dt", "1"] + args + ["--outdir", str(kdir)]) == EXIT_OK
    assert main(["perturb"] + args + ["--outdir", str(pdir)]) == EXIT_OK
    *_, g0 = read_snapshot(kdir / "g0_000_008.snap")
    *_, G = read_snapshot(pdir / "G_000_008.snap")
    assert np.array_equal(g0, G)


def test_perturb_writes_outputs_and_conserves(tmp_path):
    out = tmp_path / "p"
    code = main(["perturb", "--points", "128", "--half-extent", "20",
                 "--steps", "8", "--drift", "1.0", "--phi", "one",
                 "--outdir", str(out)])
    assert code == EXIT_OK
    assert (out / "convergence.csv").exists()
    with open(out / "convergence.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[-1]["max_norm"]) < 1e-6
    urows = list(csv.DictReader(open(out / "u_slices.csv")))
    vals = [float(r["u"]) for r in urows]
    assert max(abs(v - 1.0) for v in vals) < 5e-3


def _old_u_slices_text(grid, G, phi):
    """The per-row csv.writer loop that wrote u_slices.csv in 1-D, kept as
    the reference for its bytes."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(["s_index", "x", "u"])
    for i in range(grid.time_steps):
        u = apply_operator(G, (i, grid.time_steps), phi)
        for xi, ui in zip(grid.axis(), u.ravel()):
            w.writerow([i, repr(float(xi)), repr(float(ui))])
    return buf.getvalue()


def _desk_field(cfg):
    """The in-memory G field of a perturb run at cfg."""
    prob = PerturbationProblem(cfg.symbol(), cfg.pgrad(), cfg.grid(),
                               constant_drift(cfg.drift_vector()))
    monitor = ConvergenceMonitor()
    return prob.rows_to_scalar_field(prob.solve_v(monitor))


def test_perturb_output_layout_and_round_trip(tmp_path):
    out = tmp_path / "p"
    cfg = RunConfig(points=64, half_extent=20.0, steps=16, drift="1.0",
                    outdir=str(out))
    assert main(["perturb", "--points", "64", "--half-extent", "20",
                 "--steps", "16", "--outdir", str(out)]) == EXIT_OK
    grid, G = cfg.grid(), _desk_field(cfg)
    pairs = [(i, j) for j in range(1, 17) for i in range(j)]
    snaps = {f"G_{i:03d}_{j:03d}.snap": (i, j) for i, j in pairs}
    assert len(snaps) == 136
    assert sorted(os.listdir(out)) == sorted(
        list(snaps) + ["convergence.csv", "u_slices.csv"])
    # the pairs of one gap are names of one file: 16 files in all
    inodes = {}
    for name, (i, j) in snaps.items():
        inodes.setdefault(j - i, set()).add(os.stat(out / name).st_ino)
    assert all(len(ino) == 1 for ino in inodes.values())
    assert len(set.union(*inodes.values())) == 16
    stacks = [[] for _ in range(17)]
    for name, (i, j) in snaps.items():   # i ascending within each j
        _, _, _, dt, _, payload = read_snapshot(out / name)
        assert payload.tobytes() == G.slice((i, j)).tobytes()
        assert dt == G.gap((i, j))
        stacks[j].append(payload)
    assert (out / "u_slices.csv").read_bytes() == \
        _old_u_slices_text(grid, KernelField(grid, "G", stacks),
                           constant_one()).encode()
    # the long CSV comes from emit, in the documented order
    assert main(["emit", "--what", "csv", "--outdir", str(out)]) == EXIT_OK
    with open(out / "G.csv", newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader) == ["i", "j", "i0", "value"]
        rows = list(reader)
    keys = [tuple(map(int, r[:3])) for r in rows]
    # the documented order: pairs sorted by (i, j), offsets in C order
    assert keys == [(i, j, o) for i, j in sorted(pairs)
                    for o in range(-32, 32)]
    values = {}
    for (i, j, _), r in zip(keys, rows):
        values.setdefault((i, j), []).append(float(r[3]))
    for pair, vals in values.items():
        # rows of a pair run over the offsets in order: bit-for-bit the slice
        assert np.array(vals).tobytes() == G.slice(pair).tobytes()


def _snapshot_bytes_by_name(directory):
    return {p.name: p.read_bytes() for p in directory.glob("*.snap")}


def test_perturb_into_a_used_outdir_leaves_stale_files_alone(tmp_path):
    lattice = ["--points", "32", "--half-extent", "10"]
    out, fresh = tmp_path / "used", tmp_path / "fresh"
    assert main(["perturb", "--steps", "8", "--drift", "0.5"] + lattice
                + ["--outdir", str(out)]) == EXIT_OK
    before = _snapshot_bytes_by_name(out)
    run = ["perturb", "--steps", "4", "--drift", "1.0"] + lattice
    assert main(run + ["--outdir", str(out)]) == EXIT_OK
    assert main(run + ["--outdir", str(fresh)]) == EXIT_OK
    # every current name holds the new run's bytes, and every stale name
    # keeps the earlier run's, though it shared a file with a current name
    current = _snapshot_bytes_by_name(fresh)
    assert len(current) == 10
    after = _snapshot_bytes_by_name(out)
    for name, data in current.items():
        assert after[name] == data != before[name]
    stale = set(before) - set(current)
    assert len(stale) == 26
    assert all(after[name] == before[name] for name in stale)
    assert (out / "u_slices.csv").read_bytes() == \
        (fresh / "u_slices.csv").read_bytes()
    # convergence.csv: equal but for its wall time
    used, new = ([line.rsplit(",", 1)[0] for line in
                  (d / "convergence.csv").read_text().splitlines()]
                 for d in (out, fresh))
    assert used == new


def test_emit_csv_names_runs_of_another_step_in_its_outdir(tmp_path, capsys):
    lattice = ["--points", "32", "--half-extent", "10", "--outdir",
               str(tmp_path)]
    assert main(["perturb", "--steps", "8"] + lattice) == EXIT_OK
    assert main(["perturb", "--steps", "4"] + lattice) == EXIT_OK
    capsys.readouterr()
    assert main(["emit", "--what", "csv", "--outdir", str(tmp_path)]) == \
        EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"file error: {tmp_path / 'G_000_005.snap'}: "
                          "gap dt=0.625 is not 5 steps of 0.25")
    assert "snapshots of runs with different time steps share the " \
        "directory; use a fresh --outdir, or remove the stale " \
        "G_iii_jjj.snap names" in err


def test_perturb_writes_every_file_where_links_fail(tmp_path, monkeypatch):
    run = ["perturb", "--points", "64", "--half-extent", "20"]
    assert main(run + ["--outdir", str(tmp_path / "linked")]) == EXIT_OK

    def refuse(src, dst, *args, **kwargs):
        raise OSError(errno.EPERM, "links refused", dst)

    monkeypatch.setattr(os, "link", refuse)
    assert main(run + ["--outdir", str(tmp_path / "copied")]) == EXIT_OK
    copied = _snapshot_bytes_by_name(tmp_path / "copied")
    assert len(copied) == 136
    assert copied == _snapshot_bytes_by_name(tmp_path / "linked")
    assert all(os.stat(p).st_nlink == 1
               for p in (tmp_path / "copied").glob("*.snap"))
    # the links are the gap rule on disk: only the linked outdir reads back
    # by gap, and both convert to the same long CSV
    for sub, by_gap in (("linked", True), ("copied", False)):
        [G] = read_snapshot_fields(tmp_path / sub).values()
        assert depends_on_gap(G.stacks) == by_gap
        assert main(["emit", "--what", "csv", "--outdir",
                     str(tmp_path / sub)]) == EXIT_OK
    assert (tmp_path / "copied" / "G.csv").read_bytes() == \
        (tmp_path / "linked" / "G.csv").read_bytes()


def test_perturb_summary_equals_the_per_pair_reductions(tmp_path, capsys):
    cfg = RunConfig(dim=2, points=16, steps=4, drift="1.0,0.5")
    assert main(["perturb", "--d", "2", "--points", "16", "--steps", "4",
                 "--drift", "1.0,0.5", "--outdir", str(tmp_path)]) == EXIT_OK
    printed = capsys.readouterr().out.splitlines()
    G = _desk_field(cfg)
    worst = max(abs(G.mass(k) - 1.0) for k in G.pairs())
    assert printed[-2:] == [
        f"worst mass defect = {worst:.3e}",
        f"min G = {min(G.slice(k).min() for k in G.pairs()):.6e}"]


def _kernel_fields(dim):
    """(argv, in-memory field) of each command whose snapshots emit reads."""
    lattice = (["--d", "1", "--points", "64", "--half-extent", "8"] if dim == 1
               else ["--d", "2", "--points", "32", "--half-extent", "4"])
    lattice += ["--steps", "4"]
    cfg = RunConfig(dim=dim, points=64 // dim, half_extent=8.0 / dim, steps=4,
                    drift="1.0")
    sym, grid, pg = cfg.symbol(), cfg.grid(), cfg.pgrad()
    return {
        "G": (["perturb"] + lattice, _desk_field(cfg)),
        "g0": (["kernel"] + lattice, synthesize_g0(sym, grid, 1.0)),
        "G_closed_form": (["kernel", "--b", "1"] + lattice,
                          constant_drift_kernel(sym, pg, cfg.drift_vector(),
                                                grid, 1.0)),
    }


@pytest.mark.parametrize("dim", [1, 2])
def test_emit_csv_equals_the_csv_of_the_field(tmp_path, dim):
    out = tmp_path / "out"
    expected = {}
    for stem, (argv, field) in _kernel_fields(dim).items():
        assert main(argv + ["--outdir", str(out)]) == EXIT_OK
        write_csv(tmp_path / f"{stem}.csv", field)
        expected[f"{stem}.csv"] = (tmp_path / f"{stem}.csv").read_bytes()
    # kernel and perturb write no long CSV of their own
    assert sorted(p.name for p in out.glob("*.csv")) == \
        ["convergence.csv", "u_slices.csv"]
    assert main(["emit", "--what", "csv", "--outdir", str(out)]) == EXIT_OK
    for name, data in expected.items():
        assert (out / name).read_bytes() == data


def test_emit_csv_without_snapshots_is_a_file_error(tmp_path, capsys):
    assert main(["emit", "--what", "csv", "--outdir", str(tmp_path)]) == \
        EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"file error: {tmp_path}: ")


def _corrupt_group(directory, case):
    """A perturb group of three pairs with one file spoiled; its path."""
    grid = RunConfig(points=16, steps=2).grid()
    for i, j in ((0, 1), (0, 2), (1, 2)):
        write_snapshot(directory / f"G_{i:03d}_{j:03d}.snap", grid, "G",
                       (j - i) * grid.dt, np.full(16, 0.0625))
    path = directory / "G_001_002.snap"
    raw = path.read_bytes()
    if case == "truncated":
        path.write_bytes(raw[:-8])
    elif case == "unknown-tag":
        path.write_bytes(raw[:24] + b"q".ljust(8, b"\x00") + raw[32:])
    else:                                           # a lattice of N = 32
        write_snapshot(path, RunConfig(points=32, steps=2).grid(), "G",
                       grid.dt, np.full(32, 0.03125))
    return path


@pytest.mark.parametrize("case, cause", [
    ("truncated", "implies"),
    ("unknown-tag", "meaning tag"),
    ("N-disagrees", "headers disagree on N: 32 here, 16 in"),
])
def test_a_corrupt_snapshot_is_a_file_error(tmp_path, capsys, case, cause):
    path = _corrupt_group(tmp_path, case)
    assert main(["emit", "--what", "csv", "--outdir", str(tmp_path)]) == \
        EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"file error: {path}: ") and cause in err
    assert "config error" not in err and "Traceback" not in err
    assert not (tmp_path / "G.csv").exists()


@pytest.mark.parametrize("phi", ["bump", "mode8"])
def test_perturb_u_slices_equal_the_per_index_operator(tmp_path, phi):
    out = tmp_path / phi
    cfg = RunConfig(points=64, half_extent=20.0, steps=8, phi=phi)
    assert main(["perturb", "--points", "64", "--half-extent", "20",
                 "--steps", "8", "--phi", phi, "--outdir", str(out)]) == EXIT_OK
    grid = cfg.grid()
    stacks = [[] for _ in range(9)]
    for j in range(1, 9):
        stacks[j] = [read_snapshot(out / f"G_{i:03d}_{j:03d}.snap")[-1]
                     for i in range(j)]
    G = KernelField(grid, "G", stacks)
    assert (out / "u_slices.csv").read_bytes() == \
        _old_u_slices_text(grid, G, cfg.phi_function()).encode()


def test_perturb_two_dimensional_u_slices(tmp_path):
    out = tmp_path / "p2"
    assert main(["perturb", "--d", "2", "--points", "16", "--steps", "2",
                 "--outdir", str(out)]) == EXIT_OK
    with open(out / "u_slices.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["s_index", "x0", "x1", "u"]
    grid = RunConfig(dim=2, points=16, steps=2).grid()
    x0, x1 = (m.ravel() for m in grid.mesh())
    body = np.array(rows[1:], dtype=float)
    assert body.shape == (2 * 16 * 16, 4)
    assert np.array_equal(body[:, 0], np.repeat([0.0, 1.0], 256))
    assert np.array_equal(body[:, 1], np.tile(x0, 2))
    assert np.array_equal(body[:, 2], np.tile(x1, 2))
    assert np.abs(body[:, 3] - 1.0).max() < 5e-3


def test_unwritable_outdir_is_a_clean_exit(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    code = main(["perturb", "--points", "16", "--steps", "2",
                 "--outdir", str(blocker / "out")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(blocker / "out") in err and "Traceback" not in err


def test_perturb_nonconvergence_exit(tmp_path, capsys):
    code = main(["perturb", "--points", "64", "--half-extent", "20",
                 "--steps", "8", "--drift", "40.0",
                 "--outdir", str(tmp_path / "n")])
    assert code == EXIT_NONCONVERGENCE
    err = capsys.readouterr().err
    assert "spectral radius" in err and "|m|max * dt" in err
    assert (tmp_path / "n" / "convergence.csv").exists()


def test_verify_single_check_and_outputs(tmp_path):
    out = tmp_path / "v"
    code = main(["verify", "--only", "normalizer", "--outdir", str(out)])
    assert code == EXIT_OK
    report = (out / "verify_report.csv").read_text()
    assert "normalizer-golden" in report
    assert "pass" in report
    assert (out / "verify_summary.txt").read_text().strip() \
        .endswith("suite.passed = true")


def _report_rows(path):
    """The rows of a verify report, each without its wall_seconds."""
    with open(path, newline="") as fh:
        return [{k: v for k, v in row.items() if k != "wall_seconds"}
                for row in csv.DictReader(fh)]


def test_one_dimensional_verify_report_is_pinned(tmp_path, capsys):
    # every field but the wall time matches the committed 1-D report; a
    # change that moves a value rewrites verify_report_1d.csv and says why
    assert main(["verify", "--outdir", str(tmp_path)]) == EXIT_OK
    pinned = Path(__file__).resolve().parent / "verify_report_1d.csv"
    got = _report_rows(tmp_path / "verify_report.csv")
    assert len(got) == 47
    assert got == _report_rows(pinned)


@pytest.mark.parametrize("check, message", [
    ("drift-stability",
     "symbol, pseudo-gradient, drift and grid dimensions differ"),
    ("cauchy-residual", "component dimensions differ"),
])
def test_an_error_inside_a_verify_check_names_the_check(tmp_path, capsys,
                                                         check, message):
    code = main(["verify", "--d", "2", "--points", "32", "--only", check,
                 "--outdir", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {check}: {message}\n"


def test_verify_empty_selection(tmp_path):
    assert main(["verify", "--only", "", "--outdir", str(tmp_path)]) == EXIT_OK


def test_emit_profiles_and_resolution(tmp_path):
    out = tmp_path / "e"
    assert main(["emit", "--what", "profiles", "--points", "128",
                 "--half-extent", "20", "--steps", "8",
                 "--outdir", str(out)]) == EXIT_OK
    rows = list(csv.reader(open(out / "profiles.csv")))
    assert rows[0][0] == "x"
    assert len(rows) == 129
    for cell in rows[1]:
        assert "," not in cell
        float(cell)
    assert main(["emit", "--what", "resolution", "--points", "128",
                 "--half-extent", "20", "--steps", "8",
                 "--outdir", str(out)]) == EXIT_OK
    assert (out / "resolution.csv").exists()


def test_emit_decay_table(tmp_path):
    out = tmp_path / "d"
    assert main(["emit", "--what", "decay", "--points", "128",
                 "--half-extent", "20", "--steps", "8", "--drift", "0.5",
                 "--phi", "mode8", "--outdir", str(out)]) == EXIT_OK
    rows = list(csv.DictReader(open(out / "identity_decay.csv")))
    gaps = [float(r["gap"]) for r in rows]
    errs = [float(r["error"]) for r in rows]
    assert gaps == sorted(gaps)
    assert errs[0] < errs[-1]


@pytest.mark.parametrize("argv", [["kernel", "--closed-form"],
                                  ["emit", "--what", "resolution",
                                   "--tail-tol", "0.5"],
                                  ["perturb", "--p-exponent", "6"]])
def test_removed_flags_are_refused(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG


@pytest.mark.parametrize("line", ["closed_form = true", "tail_tol = 1e-3",
                                  "max_iter = 50", "p_exponent = 8"])
def test_removed_config_keys_are_refused(tmp_path, capsys, line):
    (tmp_path / "run.cfg").write_text(line + "\n")
    code = main(["kernel", "--config", str(tmp_path / "run.cfg"),
                 "--outdir", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert f"unknown key {line.split()[0]!r}" in capsys.readouterr().err


@pytest.mark.parametrize("command, produced", [
    ("perturb", "u_slices.csv"), ("kernel", "g0_000_016.snap")])
def test_config_file_keeps_the_command_defaults(tmp_path, command, produced):
    # the file sets alpha alone: perturb keeps its drift 1, kernel its
    # N=2048, L=160, so both match a run without the file
    (tmp_path / "run.cfg").write_text("alpha = 1.5\n")
    assert main([command, "--outdir", str(tmp_path / "plain")]) == EXIT_OK
    assert main([command, "--config", str(tmp_path / "run.cfg"),
                 "--outdir", str(tmp_path / "file")]) == EXIT_OK
    assert (tmp_path / "file" / produced).read_bytes() == \
        (tmp_path / "plain" / produced).read_bytes()


def test_config_file_keys_the_command_does_not_read_are_ignored(tmp_path):
    # kernel reads no gamma, phi or stop_tol: gamma = 5 is not even checked
    (tmp_path / "run.cfg").write_text(
        "gamma = 5\nphi = bump\nstop_tol = 1e-3\n")
    assert main(["kernel", "--outdir", str(tmp_path / "plain")]) == EXIT_OK
    assert main(["kernel", "--config", str(tmp_path / "run.cfg"),
                 "--outdir", str(tmp_path / "file")]) == EXIT_OK
    assert (tmp_path / "file" / "g0_000_016.snap").read_bytes() == \
        (tmp_path / "plain" / "g0_000_016.snap").read_bytes()


def test_config_file_overrides_the_command_defaults(tmp_path):
    # the file's points win over kernel's 2048, and kernel's L=160 stays
    (tmp_path / "run.cfg").write_text("points = 4096\n")
    assert main(["kernel", "--config", str(tmp_path / "run.cfg"),
                 "--outdir", str(tmp_path)]) == EXIT_OK
    _, N, L, _, _, _ = read_snapshot(tmp_path / "g0_000_016.snap")
    assert (N, L) == (4096, 160.0)


@pytest.mark.parametrize("steps, dt", [("1", "1"), ("16", "0.0625"),
                                       ("16", "0.5"), ("16", "0.125")])
def test_resolution_report_and_kernel_gate_agree(tmp_path, capsys, steps, dt):
    lattice = ["--points", "256", "--half-extent", "40", "--steps", steps,
               "--dt", dt]
    assert main(["emit", "--what", "resolution"] + lattice
                + ["--outdir", str(tmp_path)]) == EXIT_OK
    with open(tmp_path / "resolution.csv", newline="") as fh:
        report = dict(csv.reader(fh))
    capsys.readouterr()
    code = main(["kernel"] + lattice + ["--outdir", str(tmp_path / "k")])
    assert (report["tail_ok"] == "True") == (code == EXIT_OK)
    if code != EXIT_OK:
        assert code == EXIT_RESOLUTION
        assert "exceeds 1e-06" in capsys.readouterr().err


def test_dump_config_round_trip_through_cli(tmp_path):
    dumped = tmp_path / "resolved.cfg"
    out = tmp_path / "k"
    assert main(["kernel", "--alpha", "1.6", "--dt", "0.5",
                 "--points", "256", "--half-extent", "30",
                 "--dump-config", str(dumped), "--outdir", str(out)]) == EXIT_OK
    cfg = RunConfig.from_file(dumped)
    assert cfg.alpha == 1.6 and cfg.dt == 0.5
    assert cfg.points == 256 and cfg.half_extent == 30.0


def test_imaginary_residue_is_a_numerical_failure(monkeypatch, capsys):
    # a spectrum without its Hermitian partner mode: synthesize rejects it
    from pseudoproc import GridError, SpaceTimeGrid, synthesize
    import pseudoproc.cli as cli

    def unpaired_mode(args):
        grid = SpaceTimeGrid(1, 5.0, 16, 1.0, 4)
        spectrum = np.zeros(16, complex)
        spectrum[3] = 1.0
        synthesize(grid, spectrum)

    monkeypatch.setattr(cli, "cmd_kernel", unpaired_mode)
    assert main(["kernel"]) == EXIT_NONCONVERGENCE
    err = capsys.readouterr().err
    assert "numerical failure: imaginary residue" in err
    assert "config error" not in err
    # every other GridError is still a config error
    def bad_grid(args):
        raise GridError("points_per_dim must be an even integer >= 4")

    monkeypatch.setattr(cli, "cmd_kernel", bad_grid)
    assert main(["kernel"]) == EXIT_CONFIG
