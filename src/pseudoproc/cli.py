"""Command-line front end: kernel synthesis, perturbation, verification, emission.

One binary with subcommands; all numerics live in the library modules.  A
flat key-value config file can seed any run; each command has flags for, and
reads, only its own keys (`_commands`), and each `emit --what` target reads
only its own (`_EMIT_TARGETS`).  Environment variables are unused.

Exit codes: 0 success, 2 configuration error, unsupported configuration or
a file that cannot be read or written (such as an --outdir under a regular
file, or a snapshot off its layout), 3 resolution gate, 4 solver
non-convergence or another numerical failure (a symbol that is not
Hermitian, a(-lam) != conj a(lam), so that no real kernel has its
spectrum), 5 verification failure.
"""
from __future__ import annotations

import argparse
import csv
import functools
import math
import os
import sys
from dataclasses import dataclass, fields as dc_fields, replace

import numpy as np

from .grid import SpaceTimeGrid, ImaginaryResidueError
from .symbols import isotropic_symbol, PseudoGradientSpec, SymbolError
from .spectral import (synthesize_g0, g0_values, constant_drift_kernel,
                       check_resolution, ResolutionError,
                       UnsupportedConfiguration)
from .fields import (FieldError, snapshot_field, read_snapshot_fields,
                     write_csv, csv_prefixes, format_rows)
from .drift import constant_drift
from .volterra import ConvergenceMonitor, ConvergenceError, PerturbationProblem
from .evolution import (constant_one, fourier_mode, compact_bump, apply_stack,
                        check_identity_limit)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESOLUTION = 3
EXIT_NONCONVERGENCE = 4
EXIT_VERIFY = 5

PHI_CHOICES = ("one", "mode8", "bump")
_POSITIVE_KEYS = ("c", "half_extent", "horizon", "dt", "stop_tol")


class ConfigError(ValueError):
    def __init__(self, problems):
        super().__init__("; ".join(problems))
        self.problems = list(problems)


@dataclass
class RunConfig:
    """Every tunable of a run, parsed from file and/or flags."""

    alpha: float = 1.5
    beta: float = 0.5
    gamma: float = 0.5
    c: float = 1.0
    dim: int = 1
    points: int = 256
    half_extent: float = 40.0
    horizon: float = 1.0
    steps: int = 16
    drift: str = "0.0"
    dt: float = 1.0
    phi: str = "one"
    stop_tol: float = 1e-6
    outdir: str = "out"

    # -- validation: report every problem at once --------------------------
    def validate(self):
        errs = []
        if not 1.0 < self.alpha < 2.0:
            errs.append(f"alpha={self.alpha:g} outside (1, 2)")
        if not 0.0 < self.beta < 1.0:
            errs.append(f"beta={self.beta:g} outside (0, 1)")
        if not 0.0 < self.gamma < 1.0:
            errs.append(f"gamma={self.gamma:g} outside (0, 1)")
        for key in _POSITIVE_KEYS:
            value = getattr(self, key)
            if not (math.isfinite(value) and value > 0):
                errs.append(f"{key}={value:g} must be finite and positive")
        if self.dim not in (1, 2):
            errs.append(f"dim={self.dim} unsupported (need 1 or 2)")
        if self.points < 4 or self.points % 2:
            errs.append(f"points={self.points} must be even and >= 4")
        if self.steps < 1:
            errs.append("steps must be >= 1")
        if self.phi not in PHI_CHOICES:
            errs.append(f"phi={self.phi!r} not one of {PHI_CHOICES}")
        try:
            self.drift_vector()
        except ValueError as e:
            errs.append(str(e))
        if errs:
            raise ConfigError(errs)
        return self

    # -- assembly -----------------------------------------------------------
    def drift_vector(self) -> np.ndarray:
        try:
            vec = np.array([float(t) for t in str(self.drift).split(",")])
        except ValueError:
            raise ValueError(f"drift={self.drift!r} is not a comma-separated vector")
        if vec.size == 1 and self.dim > 1:
            vec = np.concatenate([vec, np.zeros(self.dim - 1)])
        if vec.size != self.dim:
            raise ValueError(f"drift needs {self.dim} components, got {vec.size}")
        if not np.all(np.isfinite(vec)):
            raise ValueError(f"drift={self.drift!r} has a non-finite component")
        return vec

    def grid(self, points=None, steps=None) -> SpaceTimeGrid:
        """The run's lattice, or one with other points or steps."""
        return SpaceTimeGrid(self.dim, self.half_extent, points or self.points,
                             self.horizon, steps or self.steps)

    def symbol(self):
        return isotropic_symbol(self.alpha, self.c, self.dim)

    def pgrad(self) -> PseudoGradientSpec:
        return PseudoGradientSpec(beta=self.beta, dim=self.dim)

    def phi_function(self):
        """The datum `phi` names; "mode8" is lattice mode 8 of the box."""
        if self.phi == "one":
            return constant_one()
        if self.phi == "mode8":
            return fourier_mode(2.0 * np.pi * 8 / (2.0 * self.half_extent))
        return compact_bump(5.0)

    # -- file round trip ------------------------------------------------------
    def dump(self, path):
        with open(path, "w") as fh:
            for f in dc_fields(self):
                fh.write(f"{f.name} = {getattr(self, f.name)}\n")

    @classmethod
    def from_file(cls, path, base=None, keys=None) -> "RunConfig":
        raw = {}
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(
                        [f"{path}:{lineno}: expected 'key = value'"])
                key, val = (t.strip() for t in line.split("=", 1))
                raw[key] = val
        return cls.from_mapping(raw, source=path, base=base, keys=keys)

    @classmethod
    def from_mapping(cls, raw: dict, source="<flags>", base=None,
                     keys=None) -> "RunConfig":
        """`base` (default: the field defaults) with the keys `raw` sets;
        of those, only `keys` (default: all) are parsed and applied."""
        kwargs, errs = {}, []
        for key, val in raw.items():
            if key not in _FIELD_TYPES:
                errs.append(f"{source}: unknown key {key!r}")
            elif keys is None or key in keys:
                try:
                    kwargs[key] = _FIELD_TYPES[key](val)
                except ValueError:
                    errs.append(f"{source}: cannot parse {key} = {val!r}")
        if errs:
            raise ConfigError(errs)
        return replace(base or cls(), **kwargs)


# a field parses as the type of its default, from a flag or a config file
_FIELD_TYPES = {f.name: type(f.default) for f in dc_fields(RunConfig)}


def _resolve_config(args, command_defaults=None) -> RunConfig:
    """Later sources win: the field defaults, the command's own defaults,
    the keys the config file sets, then flags.  The file and the flags set
    only the keys the command reads; the others keep their defaults.  A
    flag that emit offers and its target does not read is an error."""
    offered = _commands()[args.command][2]
    keys = _EMIT_TARGETS[args.what] if args.command == "emit" else offered
    unread = [key for key in offered
              if key not in keys and getattr(args, key) is not None]
    if unread:
        raise ConfigError([f"emit --what {args.what} does not read "
                           + "/".join(_flag_names(key)) for key in unread])
    cfg = RunConfig(**(command_defaults or {}))
    if args.config:
        cfg = RunConfig.from_file(args.config, base=cfg, keys=keys)
    flags = {key: getattr(args, key) for key in keys}
    cfg = replace(cfg, **{k: v for k, v in flags.items() if v is not None})
    cfg.validate()
    if getattr(args, "dump_config", None):
        cfg.dump(args.dump_config)
    return cfg


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_kernel(args) -> int:
    cfg = _resolve_config(args, command_defaults={"points": 2048,
                                                  "half_extent": 160.0})
    sym, grid, pg = cfg.symbol(), cfg.grid(), cfg.pgrad()
    bvec = cfg.drift_vector()
    if np.any(bvec):
        field = constant_drift_kernel(sym, pg, bvec, grid, cfg.dt)
        stem = "G_closed_form"
    else:
        field = synthesize_g0(sym, grid, cfg.dt)
        stem = "g0"
    paths = snapshot_field(field, _outdir(cfg), stem)
    pair = field.pairs()[0]
    vals = field.slice(pair)
    print(f"wrote {len(paths)} snapshot(s) under {cfg.outdir}/{stem}_*")
    print(f"mass = {field.mass(pair):.12f}")
    print(f"min = {vals.min():.6e}")
    print(f"max = {vals.max():.6e}")
    return EXIT_OK


def cmd_perturb(args) -> int:
    cfg = _resolve_config(args, command_defaults={"drift": "1.0"})
    sym, grid, pg = cfg.symbol(), cfg.grid(), cfg.pgrad()
    b = constant_drift(cfg.drift_vector())
    prob = PerturbationProblem(sym, pg, grid, b)
    monitor = ConvergenceMonitor(stop_tol=cfg.stop_tol)
    try:
        G_rows = prob.solve_v(monitor)
    except ConvergenceError as err:
        print(f"solver did not converge: {err}", file=sys.stderr)
        _write_convergence_log(os.path.join(_outdir(cfg), "convergence.csv"),
                               monitor)
        return EXIT_NONCONVERGENCE
    G = prob.rows_to_scalar_field(G_rows)
    paths = snapshot_field(G, _outdir(cfg), "G")
    _write_convergence_log(os.path.join(cfg.outdir, "convergence.csv"), monitor)
    phi = cfg.phi_function()
    # one row per slice and lattice point: s_index, coordinates x or x0, x1
    coords = ["x"] if grid.dim == 1 else [f"x{k}" for k in range(grid.dim)]
    prefixes = csv_prefixes([m.ravel().tolist() for m in grid.mesh()])
    u = apply_stack(G, grid.time_steps, phi)       # u(t_i) = T_{t_i t} phi
    with open(os.path.join(cfg.outdir, "u_slices.csv"), "w",
              newline="") as fh:
        fh.write(",".join(["s_index"] + coords + ["u"]) + "\r\n")
        for i, slice_ in enumerate(u):
            fh.write(format_rows(f"{i},", prefixes, slice_.ravel().tolist(),
                                 newline="\r\n"))
    print(f"wrote {len(paths)} kernel snapshots, convergence log and "
          f"u slices under {cfg.outdir}")
    print(f"residual = {monitor.iterate_norms[-1]:.3e}")
    print(f"spectral radius = {monitor.spectral_radius:.3g}")
    print(f"worst mass defect = {np.abs(G.integrals() - 1.0).max():.3e}")
    print(f"min G = {min(s.min() for s in G.distinct_stacks()):.6e}")
    return EXIT_OK


def _outdir(cfg) -> str:
    """--outdir, made at the first write: a run that fails before it writes
    leaves no directory behind."""
    os.makedirs(cfg.outdir, exist_ok=True)
    return cfg.outdir


def _write_convergence_log(path, monitor):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["iteration", "max_norm", "spectral_radius", "wall_seconds"])
        w.writerows(monitor.convergence_log())


def cmd_verify(args) -> int:
    from . import verify as verify_mod   # the registry loads only for verify
    cfg = _resolve_config(args)
    report = verify_mod.run_suite(verify_mod.FixtureSet(**vars(cfg)),
                                  selection=args.only)
    print(report.table())
    report.to_csv(os.path.join(_outdir(cfg), "verify_report.csv"))
    with open(os.path.join(cfg.outdir, "verify_summary.txt"), "w") as fh:
        fh.write(report.summary())
    if not report.passed:
        for r in report.failures():
            print(f"FAILED: {r.check} ({r.value:.4e} vs {r.threshold:.4e})",
                  file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_emit(args) -> int:
    cfg = _resolve_config(args)
    what = args.what
    if what == "csv":
        fields = read_snapshot_fields(cfg.outdir)
        if not fields:
            raise FieldError("no <stem>_iii_jjj.snap snapshots to convert",
                             cfg.outdir)
        for stem, field in fields.items():
            path = os.path.join(cfg.outdir, f"{stem}.csv")
            write_csv(path, field)
            print(f"wrote {path}")
        return EXIT_OK
    sym, grid = cfg.symbol(), cfg.grid()
    if what == "profiles":
        if cfg.dim != 1:
            raise UnsupportedConfiguration("profile emission is one-dimensional")
        path = os.path.join(_outdir(cfg), "profiles.csv")
        gaps = [grid.dt * j for j in (1, 2, 4, 8, 16) if j <= grid.time_steps]
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x"] + [f"g0_dt_{g:g}" for g in gaps])
            cols = [g0_values(sym, grid, g) for g in gaps]
            for idx, xv in enumerate(grid.axis()):
                w.writerow([repr(float(xv))] +
                           [repr(float(c[idx])) for c in cols])
        print(f"wrote {path}")
        return EXIT_OK
    if what == "decay":
        b = constant_drift(cfg.drift_vector())
        prob = PerturbationProblem(sym, cfg.pgrad(), grid, b)
        G = prob.rows_to_scalar_field(
            prob.solve_v(ConvergenceMonitor(stop_tol=cfg.stop_tol)))
        gaps, errors = check_identity_limit(G, cfg.phi_function())
        path = os.path.join(_outdir(cfg), "identity_decay.csv")
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["gap", "error"])
            for g, e in zip(gaps, errors):
                w.writerow([repr(float(g)), repr(float(e))])
        print(f"wrote {path}")
        return EXIT_OK
    rep = check_resolution(sym, grid, cfg.dt)        # what == "resolution"
    path = os.path.join(_outdir(cfg), "resolution.csv")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["quantity", "value"])
        for k, v in rep.as_dict().items():
            w.writerow([k, v])
    print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

# the paper's symbols, as short aliases of the long flags
_SHORT_FLAGS = {"dim": "--d", "points": "--N", "half_extent": "--L",
                "horizon": "--T", "steps": "--M", "drift": "--b"}


def _flag_names(key) -> list:
    """The flags of a key: --field-name, then its short alias, if any."""
    names = ["--" + key.replace("_", "-")]
    if key in _SHORT_FLAGS:
        names.append(_SHORT_FLAGS[key])
    return names


def _add_config_flags(p: argparse.ArgumentParser, keys):
    """--config, --dump-config and one flag per key the command reads,
    named --field-name; an unset flag is None and leaves the field alone."""
    p.add_argument("--config", help="flat key-value config file")
    p.add_argument("--dump-config", help="write the resolved config and continue")
    for key, cast in _FIELD_TYPES.items():
        if key not in keys:
            continue
        p.add_argument(*_flag_names(key), dest=key, type=cast,
                       choices=PHI_CHOICES if key == "phi" else None)


# the keys every command reads: the symbol, the lattice and where to write
_LATTICE = ("alpha", "c", "dim", "points", "half_extent", "horizon", "steps",
            "outdir")
# the keys each emit target reads; csv converts the snapshots in --outdir
_EMIT_TARGETS = {"profiles": _LATTICE,
                 "decay": _LATTICE + ("beta", "drift", "phi", "stop_tol"),
                 "resolution": _LATTICE + ("dt",),
                 "csv": ("outdir",)}


def _commands() -> dict:
    """subcommand -> (help, handler, the `RunConfig` keys it reads), read
    per call: the parser is built once and holds no handler."""
    return {"kernel": ("synthesize base or closed-form kernels", cmd_kernel,
                       _LATTICE + ("beta", "drift", "dt")),
            "perturb": ("solve the perturbation system", cmd_perturb,
                        _LATTICE + ("beta", "drift", "phi", "stop_tol")),
            "verify": ("run the property suite", cmd_verify,
                       _LATTICE + ("beta", "gamma", "stop_tol")),
            "emit": ("write plot-ready CSV data, or convert the snapshots "
                     "under --outdir to long-format CSV (--what csv)", cmd_emit,
                     tuple(dict.fromkeys(k for keys in _EMIT_TARGETS.values()
                                         for k in keys)))}


@functools.lru_cache(maxsize=None)      # parsing leaves the tree as it is
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pseudoproc",
        description="kernels and evolution operators of drift-perturbed "
                    "stable-type generators")
    sub = ap.add_subparsers(dest="command", required=True)
    parsers = {}
    for name, (text, _, keys) in _commands().items():
        # no prefix matching: verify --b must not pass as --beta
        parsers[name] = sub.add_parser(name, help=text, allow_abbrev=False)
        _add_config_flags(parsers[name], keys)
    parsers["verify"].add_argument(
        "--only", default=None,
        help="substring filter on check names ('' selects none)")
    parsers["emit"].add_argument(
        "--what", default="profiles",
        choices=tuple(_EMIT_TARGETS),
        help="csv: one <stem>.csv per <stem>_iii_jjj.snap group in --outdir")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _commands()[args.command][1](args)
    except ConfigError as err:
        for p in err.problems:
            print(f"config error: {p}", file=sys.stderr)
        return EXIT_CONFIG
    except ImaginaryResidueError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except FieldError as err:
        print(f"file error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except UnsupportedConfiguration as err:
        print(f"unsupported configuration: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (SymbolError, ValueError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except ResolutionError as err:
        print(f"resolution gate: {err}", file=sys.stderr)
        for k, v in (err.diagnostics or {}).items():
            print(f"  {k} = {v}", file=sys.stderr)
        return EXIT_RESOLUTION
    except ConvergenceError as err:
        print(f"non-convergence: {err}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except OSError as err:
        where = f"{err.filename}: " if err.filename else ""
        print(f"file error: {where}{err.strerror or err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
