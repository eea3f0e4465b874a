"""Spans and counters around the calls into each pseudoproc module.

The traced run wraps the public entry points of every layer from the
benchmark's own side; the package itself is not modified.  A hook replaces
a function at every name it is bound to, because modules that did
``from .grid import synthesize`` call through their own reference and
never see a patch of ``pseudoproc.grid.synthesize`` alone.  Methods are
replaced on their class.  A hook whose target no longer exists is skipped,
and a metric none of whose hooks could be installed is reported absent.

Spans are kept in memory (name, start, end, parent) and aggregated when the
run ends.  A span's self time is its duration minus the durations of its
child spans; a metric ending in ``_s`` sums the self time of the spans
feeding it, except the ``verify.<check>_s`` metrics, which take the whole
duration of each check so that the checks add up to the suite.
"""
from __future__ import annotations

import importlib
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

_COMPLEX_BYTES = 16


@dataclass
class Hook:
    """One wrapped callable and the metrics it feeds.

    target is ``module:attr`` or ``module:Class.method``.  A hook with
    ``span=False`` only counts: it marks hot inner calls whose time belongs
    to the enclosing span of the same layer.
    """

    target: str
    layer: str
    time_metric: Optional[str] = None
    calls_metric: Optional[str] = None
    extra: Optional[Callable] = None   # (args, kwargs) -> {metric: amount}
    span: bool = True
    inclusive: bool = False

    @property
    def label(self) -> str:
        return f"{self.layer}.{self.target.split(':')[1]}"

    def metrics(self) -> List[str]:
        names = [m for m in (self.time_metric, self.calls_metric) if m]
        return names + list(getattr(self.extra, "metrics", ()))


def _counts(*names):
    """Mark an extra-count function with the metric names it returns."""
    def mark(fn):
        fn.metrics = names
        return fn
    return mark


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


@_counts("grid.fft_calls", "grid.fft_bytes_computed")
def _one_transform(args, kwargs):
    data = args[1] if len(args) > 1 else \
        kwargs.get("spectrum", kwargs.get("values"))
    return {"grid.fft_calls": 1,
            "grid.fft_bytes_computed": data.size * _COMPLEX_BYTES}


@_counts("grid.fft_calls", "grid.fft_bytes_computed")
def _convolution(args, kwargs):
    # two forward transforms and one inverse
    return {"grid.fft_calls": 3,
            "grid.fft_bytes_computed":
                3 * _arg(args, kwargs, 1, "f").size * _COMPLEX_BYTES}


@_counts("volterra.sweeps")
def _kernel_sweeps(args, kwargs):
    monitor = _arg(args, kwargs, 1, "monitor")
    return {"volterra.sweeps": len(monitor.iterate_norms)}


@_counts("evolution.sweeps")
def _terminal_sweeps(args, kwargs):
    return {"evolution.sweeps": len(args[0].monitor.iterate_norms)}


@_counts("fields.files_written", "fields.bytes_written")
def _file_written(args, kwargs):
    return {"fields.files_written": 1,
            "fields.bytes_written":
                os.path.getsize(_arg(args, kwargs, 0, "path"))}


_SPECTRAL_PUBLIC = ("synthesize_g0", "g0_values", "base_kernel_field",
                    "constant_drift_kernel", "constant_drift_values",
                    "apply_pseudo_gradient", "pseudo_gradient_g0",
                    "singular_gradient_at", "plane_wave_consistency",
                    "check_resolution", "chapman_defect", "drift_multiplier")

_EVOLUTION_CHECKS = ("cauchy_residual", "check_evolution_property",
                     "check_identity_limit", "check_w_lipschitz",
                     "generalized_solution_stability",
                     "terminal_average_of_ones", "operator_bound_constant")

HOOKS: List[Hook] = [
    Hook("pseudoproc.grid:synthesize", "grid", "grid.fft_s",
         extra=_one_transform),
    Hook("pseudoproc.grid:analyze", "grid", "grid.fft_s",
         extra=_one_transform),
    Hook("pseudoproc.grid:convolve", "grid", "grid.fft_s",
         extra=_convolution),
    Hook("pseudoproc.symbols:SymbolSpec.on_grid", "symbols",
         "symbols.build_s", "symbols.build_calls"),
    Hook("pseudoproc.symbols:PseudoGradientSpec.multiplier", "symbols",
         "symbols.build_s", "symbols.build_calls"),
    *[Hook(f"pseudoproc.spectral:{name}", "spectral", "spectral.synth_s",
           "spectral.synth_calls") for name in _SPECTRAL_PUBLIC],
    Hook("pseudoproc.drift:DriftField.sample", "drift", "drift.eval_s",
         "drift.eval_calls"),
    Hook("pseudoproc.drift:DriftField.at_time", "drift", "drift.eval_s",
         "drift.eval_calls"),
    Hook("pseudoproc.drift:DriftField.lp_norm", "drift"),
    Hook("pseudoproc.drift:DriftField.difference_lp_norm", "drift"),
    Hook("pseudoproc.volterra:PerturbationProblem.solve_v", "volterra",
         "volterra.solve_s", extra=_kernel_sweeps),
    Hook("pseudoproc.volterra:PerturbationProblem.assemble_G_rows",
         "volterra", "volterra.assemble_s"),
    Hook("pseudoproc.volterra:PerturbationProblem.pair_quad", "volterra",
         calls_metric="volterra.quad_calls", span=False),
    Hook("pseudoproc.volterra:PerturbationProblem.rows_to_scalar_field",
         "volterra", "volterra.to_field_s"),
    Hook("pseudoproc.volterra:PerturbationProblem.rows_to_vector_field",
         "volterra", "volterra.to_field_s"),
    Hook("pseudoproc.volterra:PerturbationProblem.iterate_terms", "volterra"),
    Hook("pseudoproc.volterra:PerturbationProblem.series_residual",
         "volterra"),
    Hook("pseudoproc.volterra:PerturbationProblem.perturbation_residual",
         "volterra"),
    Hook("pseudoproc.volterra:PerturbationProblem.closed_form_G_rows",
         "volterra"),
    Hook("pseudoproc.volterra:kernel_convolution_scaling", "volterra",
         "volterra.scaling_s"),
    Hook("pseudoproc.evolution:TerminalValueProblem.solve_w", "evolution",
         "evolution.solve_w_s", extra=_terminal_sweeps),
    Hook("pseudoproc.evolution:TerminalValueProblem.assemble_u", "evolution",
         "evolution.assemble_u_s"),
    Hook("pseudoproc.evolution:EvolutionOperator.apply", "evolution",
         "evolution.apply_s", "evolution.apply_calls"),
    Hook("pseudoproc.evolution:GeneratorAction.__call__", "evolution"),
    *[Hook(f"pseudoproc.evolution:{name}", "evolution")
      for name in _EVOLUTION_CHECKS],
    Hook("pseudoproc.fields:write_snapshot", "fields", "fields.snapshot_s",
         extra=_file_written),
    Hook("pseudoproc.fields:write_csv", "fields", "fields.csv_s",
         extra=_file_written),
    Hook("pseudoproc.cli:main", "cli", "cli.self_s"),
]


class _Span:
    __slots__ = ("hook", "start", "end", "parent", "child_s")

    def __init__(self, hook, start, parent):
        self.hook, self.start, self.parent = hook, start, parent
        self.end = None
        self.child_s = 0.0


@dataclass
class Tracer:
    """Records spans and counts while ``active``; idle hooks pass through."""

    active: bool = False
    spans: List[_Span] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=dict)
    _stack: List[int] = field(default_factory=list)
    _undo: list = field(default_factory=list)
    installed: List[Hook] = field(default_factory=list)

    # -- installation ---------------------------------------------------------
    def install(self, hooks=HOOKS):
        """Wrap every hook target that exists; return the hooks skipped."""
        # every binding site must be loaded before functions are replaced
        for hook in hooks:
            try:
                importlib.import_module(hook.target.partition(":")[0])
            except ImportError:
                pass
        missing = []
        for hook in hooks:
            if self._install(hook):
                self.installed.append(hook)
            else:
                missing.append(hook)
        self._install_checks()
        return missing

    def _install(self, hook: Hook) -> bool:
        modname, _, path = hook.target.partition(":")
        try:
            owner = importlib.import_module(modname)
        except ImportError:
            return False
        *outer, attr = path.split(".")
        for name in outer:
            owner = getattr(owner, name, None)
        original = owner.__dict__.get(attr) if owner is not None else None
        if original is None:
            return False
        wrapper = self._wrap(hook, original)
        if outer:
            self._replace(owner, attr, original, wrapper)
            return True
        # a module-level function: replace it wherever it is bound
        for mod in [m for n, m in sys.modules.items()
                    if n == "pseudoproc" or n.startswith("pseudoproc.")]:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, name, original, wrapper)
        return True

    def _install_checks(self):
        """Time each registered verify check where run_suite looks it up."""
        try:
            verify = importlib.import_module("pseudoproc.verify")
        except ImportError:
            return
        registry = getattr(verify, "REGISTRY", None)
        if not isinstance(registry, dict):
            return
        import dataclasses
        for name, spec in list(registry.items()):
            hook = Hook(f"pseudoproc.verify:{name}", "verify",
                        f"verify.{name}_s", "verify.checks_run",
                        inclusive=True)
            registry[name] = dataclasses.replace(
                spec, runner=self._wrap(hook, spec.runner))
            self._undo.append((registry, name, spec))
            self.installed.append(hook)

    def _replace(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._undo.append((owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._undo.clear()

    # -- recording ------------------------------------------------------------
    def _wrap(self, hook: Hook, fn):
        tracer = self
        counts = self.counts

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            name = hook.calls_metric
            if name:
                counts[name] = counts.get(name, 0) + 1
            if not hook.span:
                return fn(*args, **kwargs)
            idx = tracer._open(hook)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook.extra is not None:
                for metric, amount in hook.extra(args, kwargs).items():
                    counts[metric] = counts.get(metric, 0) + amount
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def _open(self, hook) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(_Span(hook, time.perf_counter(), parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx):
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.end - span.start

    # -- aggregation ----------------------------------------------------------
    def layer_self_seconds(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for s in self.spans:
            out[s.hook.layer] = out.get(s.hook.layer, 0.0) + \
                (s.end - s.start - s.child_s)
        return out

    def metric_values(self) -> Dict[str, float]:
        """Run totals of every metric fed by at least one installed hook."""
        values = {m: 0.0 for h in self.installed for m in h.metrics()}
        values.update(self.counts)
        for s in self.spans:
            metric = s.hook.time_metric
            if metric:
                dur = s.end - s.start
                values[metric] += dur if s.hook.inclusive else dur - s.child_s
        return values

    def write_spans(self, path, origin: float):
        """One CSV line per span: id, parent, name, start and end seconds."""
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for k, s in enumerate(self.spans):
                fh.write(f"{k},{s.parent},{s.hook.label},"
                         f"{s.start - origin:.9f},{s.end - origin:.9f}\n")
