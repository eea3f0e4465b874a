"""The three benchmark workloads: inputs, set-up, one operation, output check.

Each workload draws a small pool of inputs from the seed when it is built.
Every run covers whole cycles of the pool, each input as often as every
other, so the medians it reports do not hinge on one draw.
Draws are stratified: a pool of k values takes one value from each of k
equal slices of the range, in a seeded order.

An operation returns whatever its check needs; the check runs outside the
timed interval and returns a ``Check``.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import os
from dataclasses import dataclass, field
from typing import List

import numpy as np

ALPHA, BETA, SCALE_C = 1.5, 0.5, 1.0
HALF_EXTENT, HORIZON = 40.0, 1.0

# relative error of the solved kernel against the exact one, per pair over
# the points where the exact kernel exceeds this floor
_ERR_FLOOR = 1e-4
# the constant-drift-oracle/bulk threshold of the verify suite
DESK_ERR_BOUND = 2e-2
MASS_DEFECT_BOUND = 1e-12
# the same threshold, three times the largest single-input error seen over
# the input ranges at baseline (6.7e-3)
SPACEDRIFT_ERR_BOUND = 2e-2


@dataclass
class Check:
    """Outcome of one operation's output check."""

    error: float                      # the workload's result_err
    attempted: int = 1                # check units: operations, or verify rows
    problems: List[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return min(len(self.problems), self.attempted)


def stratified(rng, k, lo, hi):
    """k draws from [lo, hi), one in each of k equal slices, seeded order."""
    return lo + (hi - lo) * (rng.permutation(k) + rng.random(k)) / k


def masked_relative_error(values, exact):
    """max |values - exact| where |exact| > floor, over max |exact|."""
    mask = np.abs(exact) > _ERR_FLOOR
    if not mask.any():
        return 0.0
    return float(np.abs(values - exact)[mask].max() / np.abs(exact).max())


def _quiet(fn, *args):
    """Call fn with stdout and stderr captured; returns (result, text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        result = fn(*args)
    return result, buf.getvalue()


def _objects(points, steps):
    from pseudoproc import SpaceTimeGrid, PseudoGradientSpec, isotropic_symbol
    return (SpaceTimeGrid(1, HALF_EXTENT, points, HORIZON, steps),
            isotropic_symbol(ALPHA, SCALE_C, 1),
            PseudoGradientSpec(beta=BETA, dim=1))


class Workload:
    name = ""
    pool_size = 1

    def params(self) -> dict:
        raise NotImplementedError

    def setup(self, scratch):
        """Import, build every object the operations need, warm up."""
        raise NotImplementedError

    def run(self, k, outdir):
        """One operation on pool entry k (timed)."""
        raise NotImplementedError

    def check(self, k, outdir, output) -> Check:
        raise NotImplementedError


class KernelDesk(Workload):
    """``pseudoproc perturb`` at desk defaults with a constant drift."""

    name = "kernel-desk"
    pool_size = 4
    points, steps, stop_tol = 256, 16, 1e-6

    def __init__(self, rng):
        self.b = stratified(rng, self.pool_size, 0.8, 1.2)

    def params(self):
        return {"dim": 1, "alpha": ALPHA, "beta": BETA, "c": SCALE_C,
                "points": self.points, "steps": self.steps,
                "half_extent": HALF_EXTENT, "horizon": HORIZON,
                "stop_tol": self.stop_tol, "phi": "one",
                "drift": [float(b) for b in self.b]}

    def argv(self, k, outdir, points=None, steps=None):
        return ["perturb", "--alpha", repr(ALPHA), "--beta", repr(BETA),
                "--c", repr(SCALE_C), "--points", str(points or self.points),
                "--steps", str(steps or self.steps),
                "--half-extent", repr(HALF_EXTENT), "--horizon", repr(HORIZON),
                "--stop-tol", repr(self.stop_tol), "--phi", "one",
                "--b", repr(float(self.b[k])), "--outdir", outdir]

    def setup(self, scratch):
        import pseudoproc.cli
        from pseudoproc import PerturbationProblem, constant_drift
        self.grid, sym, pg = _objects(self.points, self.steps)
        self.oracles = [PerturbationProblem(sym, pg, self.grid,
                                            constant_drift([b]))
                        for b in self.b]
        _quiet(pseudoproc.cli.main,
               self.argv(0, scratch, points=16, steps=2))

    def run(self, k, outdir):
        import pseudoproc.cli
        return _quiet(pseudoproc.cli.main, self.argv(k, outdir))

    def check(self, k, outdir, output):
        from pseudoproc.fields import read_snapshot
        from pseudoproc.grid import synthesize
        code, text = output
        out = Check(error=math.nan)
        if code != 0:
            out.problems.append(f"exit code {code}: {text.strip()[-200:]}")
        exact_rows = self.oracles[k].closed_form_G_rows()
        worst_err = worst_mass = 0.0
        for (i, j), row in sorted(exact_rows.items()):
            path = os.path.join(outdir, f"G_{i:03d}_{j:03d}.snap")
            if not os.path.exists(path):
                out.problems.append(f"missing snapshot {path}")
                continue
            dim, n, half, dt, meaning, vals = read_snapshot(path)
            header = (dim, n, half, meaning, vals.shape)
            if header != (1, self.points, HALF_EXTENT, "G", (self.points,)) \
                    or not math.isclose(dt, (j - i) * self.grid.dt) \
                    or not np.all(np.isfinite(vals)):
                out.problems.append(f"snapshot {path} does not round-trip")
                continue
            worst_mass = max(worst_mass,
                             abs(vals.sum() * self.grid.cell_volume - 1.0))
            worst_err = max(worst_err, masked_relative_error(
                vals, synthesize(self.grid, row)))
        if worst_mass >= MASS_DEFECT_BOUND:
            out.problems.append(f"mass defect {worst_mass:.3e}")
        if not worst_err < DESK_ERR_BOUND:
            out.problems.append(f"result_err {worst_err:.3e}")
        out.error = worst_err
        return out


class FnSpaceDrift(Workload):
    """Function-level terminal-value solve for a drift b(t, x)."""

    name = "fn-spacedrift"
    pool_size = 20
    points, steps = 512, 32

    def __init__(self, rng):
        k = self.pool_size
        self.amp = stratified(rng, k, 0.6, 1.0)
        self.ecc = stratified(rng, k, 0.2, 0.5)
        self.phase = stratified(rng, k, 0.0, 2.0 * np.pi)
        self.center = stratified(rng, k, -4.0, 4.0)
        self.width = stratified(rng, k, 3.0, 5.0)
        self.bump = stratified(rng, k, 4.0, 6.0)

    def params(self):
        return {"dim": 1, "alpha": ALPHA, "beta": BETA, "c": SCALE_C,
                "points": self.points, "steps": self.steps,
                "half_extent": HALF_EXTENT, "horizon": HORIZON,
                "drift": "b(t, x) = A (1 + e cos(pi t + phase)) "
                         "exp(-(x - x0)^2 / (2 w^2))",
                "A": self.amp.tolist(), "e": self.ecc.tolist(),
                "phase": self.phase.tolist(), "x0": self.center.tolist(),
                "w": self.width.tolist(), "bump_width": self.bump.tolist()}

    def _drift(self, k):
        from pseudoproc import DriftField
        A, e, ph = self.amp[k], self.ecc[k], self.phase[k]
        x0, w = self.center[k], self.width[k]

        def b(t, x):
            return (A * (1.0 + e * np.cos(np.pi * t + ph))
                    * np.exp(-(x - x0) ** 2 / (2.0 * w * w)))[None, :]

        return DriftField(dim=1, kind="space_time", evaluator=b)

    def setup(self, scratch):
        from pseudoproc import TerminalValueProblem, compact_bump
        self.grid, self.sym, self.pg = _objects(self.points, self.steps)
        self.drifts = [self._drift(k) for k in range(self.pool_size)]
        self.phis = [compact_bump(w) for w in self.bump]
        tiny, _, _ = _objects(16, 4)
        TerminalValueProblem(self.sym, self.pg, tiny, self.drifts[0],
                             self.phis[0]).solve()

    def run(self, k, outdir):
        from pseudoproc import TerminalValueProblem
        return TerminalValueProblem(self.sym, self.pg, self.grid,
                                    self.drifts[k], self.phis[k]).solve()

    def check(self, k, outdir, u):
        from pseudoproc import GeneratorAction, cauchy_residual
        finite = len(u) == self.steps and all(
            np.all(np.isfinite(s)) for s in u.values())
        err = cauchy_residual(u, GeneratorAction(self.sym, self.pg,
                                                 self.drifts[k]), self.grid)
        out = Check(error=err)
        if not finite:
            out.problems.append("u slices incomplete or not finite")
        if not err <= SPACEDRIFT_ERR_BOUND:
            out.problems.append(f"result_err {err:.3e}")
        return out


class VerifySuite(Workload):
    """``pseudoproc verify`` over the full registry at the default fixture."""

    name = "verify-suite"
    # the suite's own accuracy row for the series solution
    error_row = "constant-drift-oracle/bulk"

    def __init__(self, rng):
        pass  # the goldens are frozen to the default fixture

    def params(self):
        return {"argv": ["verify"], "fixture": "default"}

    def setup(self, scratch):
        import pseudoproc.cli
        _quiet(pseudoproc.cli.main,
               ["verify", "--only", "normalizer-golden", "--outdir", scratch])

    def run(self, k, outdir):
        import pseudoproc.cli
        return _quiet(pseudoproc.cli.main, ["verify", "--outdir", outdir])

    def check(self, k, outdir, output):
        code, text = output
        path = os.path.join(outdir, "verify_report.csv")
        rows = []
        if os.path.exists(path):
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
        out = Check(error=math.nan, attempted=max(len(rows), 1))
        out.problems += [f"row {r['check']} did not pass" for r in rows
                         if r["status"] != "pass"]
        if code != 0 and not out.problems:
            out.problems.append(f"exit code {code}: {text.strip()[-200:]}")
        if not rows:
            out.problems.append("no verify_report.csv")
        for r in rows:
            if r["check"] == self.error_row:
                out.error = float(r["value"])
        if math.isnan(out.error):
            out.problems.append(f"no {self.error_row} row")
        return out


WORKLOADS = {w.name: w for w in (KernelDesk, FnSpaceDrift, VerifySuite)}
