"""Outside-in tracing of chemid's layers for the traced benchmark run.

Every layer is a package module.  ``instrument`` replaces a public name at
the module where its caller looks it up (``chemid.inversion.solve_forward``,
``chemid.regselect.levenberg_marquardt``, ...) with a wrapper that records
a span, and puts the original back when the block ends, even on error.
Nothing inside ``src/`` changes.

Two hot paths get counters instead of spans, because a span per call
would cost more than the call: the private IMEX step ``chemid.pde._advance``
(counted only; a stand-in until the solver reports its own step count) and
``SensitivityFunction.__call__`` (counted and timed).

Spans stay in memory (name, start, end, parent, attributes) and are
written out once the run ends.  Self time is a span's duration minus the
time covered by its direct children; chemid runs on one thread, so the
children of a span never overlap and their durations simply add up.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

import chemid.cli
import chemid.inversion
import chemid.pde
import chemid.regselect
import chemid.synthdata
from chemid.sensitivity import SensitivityFunction


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counters of one traced pass (single-threaded use only)."""

    def __init__(self):
        self.spans: list[Span] = []
        #: counter name -> [calls, seconds] (seconds only for timed counters)
        self.counters: dict[str, list] = {}
        self._stack: list[int] = []

    def wrap_span(self, name, fn, attrs=None):
        """Wrapper recording one span per call; ``attrs(args, kwargs, result)``
        adds attributes once the call has returned (a call that raises
        keeps none)."""

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            self._stack.append(len(self.spans))
            span = Span(name, time.perf_counter(), parent)
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced

    def wrap_count(self, name, fn, timed):
        """Wrapper counting calls (and timing them if ``timed``) without
        spans; it touches only local names to stay cheap."""
        stat = self.counters.setdefault(name, [0, 0.0])
        clock = time.perf_counter
        if not timed:

            def counted(*args, **kwargs):
                stat[0] += 1
                return fn(*args, **kwargs)

            return counted

        def counted_timed(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                stat[0] += 1
                stat[1] += clock() - t0

        return counted_timed

    def counter(self, name) -> tuple:
        """(calls, seconds) of a counted name."""
        return tuple(self.counters.get(name, (0, 0.0)))

    def self_seconds(self) -> list[float]:
        """Self time of every span, in span order."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        return own


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _solve_attrs(args, kwargs, result):
    grid = _arg(args, kwargs, 4, "grid")
    return {"n_steps": grid.n_steps, "node_steps": grid.n_nodes * grid.n_steps}


def _columns_attrs(args, kwargs, result):
    return {"columns": len(args[0])}


def _lm_attrs(args, kwargs, result):
    return {"iterations": result.iterations}


def _rate_attrs(args, kwargs, result):
    return {"records": len(result.records)}


def _file_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _cli_attrs(args, kwargs, result):
    return {"command": _arg(args, kwargs, 0, "argv")[0], "exit": result}


# (module, attribute, span name, attribute recorder)
SPAN_PATCHES = (
    (chemid.inversion, "solve_forward", "pde.solve_forward", _solve_attrs),
    (chemid.synthdata, "solve_forward", "pde.solve_forward", _solve_attrs),
    (chemid.cli, "solve_forward", "pde.solve_forward", _solve_attrs),
    (chemid.synthdata, "restrict", "pde.restrict", None),
    (chemid.synthdata, "make_dataset", "synthdata.make_dataset", None),
    (chemid.cli, "make_dataset", "synthdata.make_dataset", None),
    (chemid.synthdata, "add_noise", "synthdata.add_noise", None),
    (chemid.regselect, "add_noise", "synthdata.add_noise", None),
    (chemid.inversion, "residual_vector", "inversion.residual_vector", None),
    (chemid.inversion, "jacobian_fd", "inversion.jacobian_fd", _columns_attrs),
    (chemid.inversion, "levenberg_marquardt", "inversion.levenberg_marquardt", _lm_attrs),
    (chemid.regselect, "levenberg_marquardt", "inversion.levenberg_marquardt", _lm_attrs),
    (chemid.regselect, "rate_study", "regselect.rate_study", _rate_attrs),
    (chemid.cli, "write_trajectory_csv", "pde.write_trajectory_csv", _file_attrs),
    (chemid.pde, "read_trajectory_csv", "pde.read_trajectory_csv", None),
    (chemid.cli, "write_noisy_csv", "synthdata.write_noisy_csv", _file_attrs),
    (chemid.synthdata, "read_noisy_csv", "synthdata.read_noisy_csv", None),
    (chemid.cli, "main", "cli.main", _cli_attrs),
)

# (owner, attribute, counter name, also timed)
COUNT_PATCHES = (
    (chemid.pde, "_advance", "pde.imex_steps", False),
    (SensitivityFunction, "__call__", "sensitivity.eval", True),
)


def patched_names():
    """(owner, attribute) of every name ``instrument`` replaces."""
    return [(p[0], p[1]) for p in SPAN_PATCHES + COUNT_PATCHES]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route chemid's layer entry points through ``tracer`` inside the block."""
    saved = []
    try:
        for owner, attr, name, attrs in SPAN_PATCHES:
            fn = getattr(owner, attr)
            saved.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap_span(name, fn, attrs))
        for owner, attr, name, timed in COUNT_PATCHES:
            fn = owner.__dict__[attr]
            saved.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap_count(name, fn, timed))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


#: Per-layer metrics of one traced pass: name -> (unit, better).  Metrics in
#: units other than s and us are counts or ratios of counts and must repeat
#: exactly from pass to pass.
PER_LAYER = {
    "pde.solve_forward.calls": ("count", "lower"),
    "pde.solve_forward.s": ("s", "lower"),
    "pde.solve_forward.node_steps": ("count", "lower"),
    "pde.imex_steps": ("count", "lower"),
    "pde.substeps_per_frame": ("ratio", "lower"),
    "pde.step_us": ("us", "lower"),
    "pde.restrict.s": ("s", "lower"),
    "pde.write_trajectory_csv.s": ("s", "lower"),
    "pde.write_trajectory_csv.mb": ("MB", "lower"),
    "pde.read_trajectory_csv.s": ("s", "lower"),
    "synthdata.write_noisy_csv.s": ("s", "lower"),
    "synthdata.read_noisy_csv.s": ("s", "lower"),
    "synthdata.make_dataset.s": ("s", "lower"),
    "synthdata.add_noise.s": ("s", "lower"),
    "sensitivity.eval.calls": ("count", "lower"),
    "sensitivity.eval.s": ("s", "lower"),
    "inversion.levenberg_marquardt.s": ("s", "lower"),
    "inversion.lm_iterations": ("count", "lower"),
    "inversion.lm_self_s": ("s", "lower"),
    "inversion.jacobian_fd.calls": ("count", "lower"),
    "inversion.jacobian_fd.s": ("s", "lower"),
    "inversion.jacobian_fd.columns": ("count", "lower"),
    "inversion.residual_vector.calls": ("count", "lower"),
    "inversion.residual_vector.s": ("s", "lower"),
    "inversion.trial_accept_ratio": ("ratio", "higher"),
    "regselect.rate_study.s": ("s", "lower"),
    "regselect.cells_ok_ratio": ("ratio", "higher"),
    "regselect.cell_s.p50": ("s", "lower"),
    "regselect.cell_s.max": ("s", "lower"),
    "cli.main.s": ("s", "lower"),
    "cli.forward.s": ("s", "lower"),
    "cli.make-data.s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

TIMED_UNITS = ("s", "us")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass (all but trace.overhead_s)."""
    spans = tracer.spans
    self_s = tracer.self_seconds()
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)

    def total(name):
        return sum(spans[i].seconds for i in by_name[name])

    def attr_sum(name, key):
        return sum(spans[i].attrs.get(key, 0) for i in by_name[name])

    def children(parents, name):
        return [i for i in by_name[name] if spans[i].parent in parents]

    solve_s = total("pde.solve_forward")
    imex = tracer.counter("pde.imex_steps")[0]
    eval_calls, eval_s = tracer.counter("sensitivity.eval")
    lm = set(by_name["inversion.levenberg_marquardt"])
    # the first residual of every LM call is its starting point, not a trial
    trials = len(children(lm, "inversion.residual_vector")) - len(lm)
    studies = set(by_name["regselect.rate_study"])
    cells = children(studies, "synthdata.add_noise")
    cell_s = [spans[i].seconds for i in children(studies, "inversion.levenberg_marquardt")]
    cli_s = defaultdict(float)
    for i in by_name["cli.main"]:
        cli_s[spans[i].attrs["command"]] += spans[i].seconds

    return {
        "pde.solve_forward.calls": len(by_name["pde.solve_forward"]),
        "pde.solve_forward.s": solve_s,
        "pde.solve_forward.node_steps": attr_sum("pde.solve_forward", "node_steps"),
        "pde.imex_steps": imex,
        "pde.substeps_per_frame": _ratio(imex, attr_sum("pde.solve_forward", "n_steps")),
        "pde.step_us": 1e6 * _ratio(solve_s, imex),
        "pde.restrict.s": total("pde.restrict"),
        "pde.write_trajectory_csv.s": total("pde.write_trajectory_csv"),
        "pde.write_trajectory_csv.mb": attr_sum("pde.write_trajectory_csv", "bytes") / 1e6,
        "pde.read_trajectory_csv.s": total("pde.read_trajectory_csv"),
        "synthdata.write_noisy_csv.s": total("synthdata.write_noisy_csv"),
        "synthdata.read_noisy_csv.s": total("synthdata.read_noisy_csv"),
        "synthdata.make_dataset.s": total("synthdata.make_dataset"),
        "synthdata.add_noise.s": total("synthdata.add_noise"),
        "sensitivity.eval.calls": eval_calls,
        "sensitivity.eval.s": eval_s,
        "inversion.levenberg_marquardt.s": total("inversion.levenberg_marquardt"),
        "inversion.lm_iterations": attr_sum("inversion.levenberg_marquardt", "iterations"),
        "inversion.lm_self_s": sum(self_s[i] for i in lm),
        "inversion.jacobian_fd.calls": len(by_name["inversion.jacobian_fd"]),
        "inversion.jacobian_fd.s": total("inversion.jacobian_fd"),
        "inversion.jacobian_fd.columns": attr_sum("inversion.jacobian_fd", "columns"),
        "inversion.residual_vector.calls": len(by_name["inversion.residual_vector"]),
        "inversion.residual_vector.s": total("inversion.residual_vector"),
        "inversion.trial_accept_ratio": _ratio(
            attr_sum("inversion.levenberg_marquardt", "iterations"), trials
        ),
        "regselect.rate_study.s": total("regselect.rate_study"),
        "regselect.cells_ok_ratio": _ratio(attr_sum("regselect.rate_study", "records"), len(cells)),
        "regselect.cell_s.p50": statistics.median(cell_s) if cell_s else 0.0,
        "regselect.cell_s.max": max(cell_s, default=0.0),
        "cli.main.s": total("cli.main"),
        "cli.forward.s": cli_s["forward"],
        "cli.make-data.s": cli_s["make-data"],
    }


def combine_passes(passes: list[dict]) -> tuple[dict, list[str]]:
    """Median of timings over passes; counts must agree exactly.

    Returns the combined metrics and the names of counts that differed.
    """
    combined, unsteady = {}, []
    for name in passes[0]:
        values = [p[name] for p in passes]
        if PER_LAYER[name][0] in TIMED_UNITS:
            combined[name] = statistics.median(values)
        else:
            combined[name] = values[0]
            if any(v != values[0] for v in values):
                unsteady.append(name)
    return combined, unsteady


def write_spans(path, tracers: list[Tracer]) -> None:
    """One JSON line per span, tagged with its pass, then one line with the
    pass's counters."""
    with open(path, "w", encoding="utf-8") as fh:
        for k, tracer in enumerate(tracers):
            for i, (s, own) in enumerate(zip(tracer.spans, tracer.self_seconds())):
                rec = {"pass": k, "id": i, "name": s.name, "parent": s.parent,
                       "start": s.start, "end": s.end, "self_s": own, **s.attrs}
                fh.write(json.dumps(rec) + "\n")
            fh.write(json.dumps({"pass": k, "counters": tracer.counters}) + "\n")
