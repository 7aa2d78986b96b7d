"""Outside-in span recorder for the traced benchmark run.

``install`` replaces public fiolab functions, in every fiolab module that
imported them by name, with wrappers that record a span around each call.
Library code is unchanged; the untraced runs never import this module.

A span records its name, start and end (``time.perf_counter`` seconds), the
index of its parent span, the op id, and the grid dim, N and time-node
count, inherited from the parent span where the call itself does not show
them.  Spans stay in memory until ``Recorder.dump``.  Self time is a span's
duration minus the durations of its children; children never overlap,
because the client is single-threaded.

Run as a script to print per (span name, dim, N) timings from a dump::

    python3 perfbench/spans.py .perfbench_out/spans/smoothing-3d-seed0.json
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from collections import defaultdict
from pathlib import Path


class Recorder:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.op_id = None

    def begin(self, name: str, **attrs) -> dict:
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            for key in ("dim", "N", "nodes"):
                attrs.setdefault(key, self.spans[parent]["attrs"].get(key))
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": parent, "op": self.op_id, "attrs": attrs}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: dict):
        span["end"] = time.perf_counter()
        self._stack.pop()

    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return [s["end"] - s["start"] - c for s, c in zip(self.spans, child)]

    def dump(self, path: Path, meta: dict):
        selfs = self.self_times()
        rows = [dict(s, self=t) for s, t in zip(self.spans, selfs)]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"meta": meta, "spans": rows}) + "\n")


def _grid_attrs(grid) -> dict:
    return {"dim": grid.dim, "N": grid.points_per_axis}


def _wrap(rec: Recorder, name: str, fn, attrs_of=lambda *a, **k: {}):
    def traced(*args, **kwargs):
        span = rec.begin(name, **attrs_of(*args, **kwargs))
        try:
            return fn(*args, **kwargs)
        finally:
            rec.end(span)

    return traced


def _traced_power_iteration(rec: Recorder, fn, caller: str):
    def traced(normal_apply, start, tol, max_iters):
        def timed_apply(v):
            span = rec.begin("normest.apply", caller=caller)
            try:
                return normal_apply(v)
            finally:
                rec.end(span)

        span = rec.begin("normest.power_iteration", caller=caller, **_grid_attrs(start.grid))
        try:
            est = fn(timed_apply, start, tol, max_iters)
            span["attrs"].update(iterations=est.iterations, converged=est.converged)
            return est
        finally:
            rec.end(span)

    return traced


def _traced_canonical(rec: Recorder, fn):
    def traced(m, grid, *args, **kwargs):
        direction = args[0] if args else kwargs.get("direction", "forward")
        attrs = dict(_grid_attrs(grid), direction=direction)
        span = rec.begin("operators.canonical_setup", **attrs)
        try:
            handle = fn(m, grid, *args, **kwargs)
        finally:
            rec.end(span)
        # in-box target count, known from the first apply's metadata;
        # adjoint spans read it when the dump is aggregated
        state = {"targets": None}

        def apply(u):
            span = rec.begin("operators.canonical_apply", handle=state, **attrs)
            try:
                out = handle.apply(u)
            finally:
                rec.end(span)
            state["targets"] = grid.size - out.meta["out_of_box_modes"]
            return out

        def apply_adjoint(v):
            span = rec.begin("operators.canonical_adjoint", handle=state, **attrs)
            try:
                return handle.apply_adjoint(v)
            finally:
                rec.end(span)

        return dataclasses.replace(handle, apply=apply, apply_adjoint=apply_adjoint)

    return traced


def _patch(modules, attr: str, make):
    original = getattr(modules[0], attr)
    for module in modules:
        if getattr(module, attr) is not original:
            raise RuntimeError(f"{module.__name__}.{attr} is not {modules[0].__name__}.{attr}")
    for module in modules:
        setattr(module, attr, make(original, module))


def install(rec: Recorder):
    """Wrap the public layer functions of fiolab for the rest of the process."""
    import fiolab.cli as cli
    import fiolab.dispersive as dispersive
    import fiolab.lattice as lattice
    import fiolab.normest as normest
    import fiolab.operators as operators
    import fiolab.symbols as symbols

    field_grid = lambda f, *a, **k: _grid_attrs(f.grid)  # noqa: E731
    for attr in ("forward_transform", "inverse_transform"):
        _patch([lattice, operators, dispersive], attr,
               lambda fn, _m, attr=attr: _wrap(rec, f"lattice.{attr}", fn, field_grid))
    _patch([normest, dispersive], "power_iteration",
           lambda fn, m: _traced_power_iteration(rec, fn, m.__name__.split(".")[-1]))
    _patch([operators, dispersive, cli], "canonical_transform_operator",
           lambda fn, _m: _traced_canonical(rec, fn))
    _patch([symbols, operators], "invert_map_batch",
           lambda fn, _m: _wrap(rec, "symbols.invert_map_batch", fn,
                                lambda m, eta, *a, **k: {"points": len(eta)}))
    _patch([dispersive, cli], "smoothing_constant",
           lambda fn, _m: _wrap(rec, "dispersive.smoothing_constant", fn,
                                lambda p, grid, window, *a, **k:
                                dict(_grid_attrs(grid), nodes=window.steps)))
    _patch([dispersive, cli], "egorov_residual",
           lambda fn, _m: _wrap(rec, "dispersive.egorov_residual", fn,
                                lambda p, u, *a, **k: _grid_attrs(u.grid)))
    for attr in ("run_experiment", "validate_config", "write_report"):
        _patch([cli], attr, lambda fn, _m, attr=attr: _wrap(rec, f"cli.{attr}", fn))


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

# (name, unit) of every per-layer metric, in report order
LAYER_METRICS = (
    ("dispersive.node_apply_ms", "ms"),
    ("dispersive.smoothing_constant.s", "s"),
    ("dispersive.egorov_residual.s", "s"),
    ("normest.power_iteration.calls", "count"),
    ("normest.applies", "count"),
    ("normest.apply_ms", "ms"),
    ("normest.self_s", "s"),
    ("normest.converged_ratio", "ratio"),
    ("operators.canonical_setup.calls", "count"),
    ("operators.canonical_setup.s", "s"),
    ("operators.canonical_apply.calls", "count"),
    ("operators.canonical_apply.s", "s"),
    ("operators.canonical_adjoint.calls", "count"),
    ("operators.canonical_adjoint.s", "s"),
    ("operators.trig_cmacs", "count"),
    ("operators.trig_gcmacs_per_s", "Gcmac/s"),
    ("symbols.invert_map_batch.calls", "count"),
    ("symbols.invert_map_batch.s", "s"),
    ("symbols.invert_map_batch.points", "count"),
    ("symbols.newton_us_per_point", "us"),
    ("lattice.forward_transform.calls", "count"),
    ("lattice.forward_transform.s", "s"),
    ("lattice.inverse_transform.calls", "count"),
    ("lattice.inverse_transform.s", "s"),
    ("cli.run_experiment.s", "s"),
    ("cli.self_s", "s"),
    ("cli.validate_config.s", "s"),
    ("cli.write_report.s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def _ratio(num: float, den: float) -> float:
    # a layer the workload never reaches reports 0
    return num / den if den else 0.0


def layer_metrics(rec: Recorder) -> dict:
    """Per-layer numbers of one traced op list (``trace.overhead_frac`` aside).

    ``.s`` metrics are inclusive durations summed over calls; ``self_s``
    and the two ``dispersive`` containers are self times.
    """
    selfs = rec.self_times()
    calls = defaultdict(int)
    total = defaultdict(float)
    self_total = defaultdict(float)
    for s, t in zip(rec.spans, selfs):
        calls[s["name"]] += 1
        total[s["name"]] += s["end"] - s["start"]
        self_total[s["name"]] += t

    def spans(name):
        return [s for s in rec.spans if s["name"] == name]

    power = spans("normest.power_iteration")
    dispersive_applies = [s for s in spans("normest.apply") if s["attrs"]["caller"] == "dispersive"]
    node_applies = sum(s["attrs"]["nodes"] for s in dispersive_applies)
    trig = spans("operators.canonical_apply") + spans("operators.canonical_adjoint")
    trig_time = sum(s["end"] - s["start"] for s in trig)
    cmacs = sum(
        s["attrs"]["handle"]["targets"] * s["attrs"]["N"] ** s["attrs"]["dim"] for s in trig
    )
    points = sum(s["attrs"]["points"] for s in spans("symbols.invert_map_batch"))
    m = {
        "dispersive.node_apply_ms": 1e3 * _ratio(
            sum(s["end"] - s["start"] for s in dispersive_applies), node_applies),
        "dispersive.smoothing_constant.s": self_total["dispersive.smoothing_constant"],
        "dispersive.egorov_residual.s": self_total["dispersive.egorov_residual"],
        "normest.power_iteration.calls": len(power),
        "normest.applies": sum(s["attrs"]["iterations"] for s in power),
        "normest.apply_ms": 1e3 * _ratio(total["normest.apply"], calls["normest.apply"]),
        "normest.self_s": self_total["normest.power_iteration"],
        "normest.converged_ratio": _ratio(sum(s["attrs"]["converged"] for s in power), len(power)),
        "operators.trig_cmacs": _ratio(cmacs, len(trig)),
        "operators.trig_gcmacs_per_s": 1e-9 * _ratio(cmacs, trig_time),
        "symbols.invert_map_batch.points": points,
        "symbols.newton_us_per_point": 1e6 * _ratio(total["symbols.invert_map_batch"], points),
        "cli.self_s": self_total["cli.run_experiment"],
    }
    for name in ("operators.canonical_setup", "operators.canonical_apply",
                 "operators.canonical_adjoint", "symbols.invert_map_batch",
                 "lattice.forward_transform", "lattice.inverse_transform"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.s"] = total[name]
    for name in ("cli.run_experiment", "cli.validate_config", "cli.write_report"):
        m[f"{name}.s"] = total[name]
    return m


def breakdown(spans: list) -> list:
    """Rows ``(name, dim, N, calls, mean_ms, total_s, self_s)`` of a dump.

    Canonical-transform spans are split by direction, since forward and
    inverse maps leave different numbers of targets in the box.
    """
    groups = defaultdict(lambda: [0, 0.0, 0.0])
    for s in spans:
        name = s["name"]
        if s["attrs"].get("direction"):
            name = f"{name}[{s['attrs']['direction']}]"
        key = (name, s["attrs"].get("dim"), s["attrs"].get("N"))
        g = groups[key]
        g[0] += 1
        g[1] += s["end"] - s["start"]
        g[2] += s["self"]
    return [
        (name, dim, n, c, 1e3 * t / c, t, st)
        for (name, dim, n), (c, t, st) in sorted(groups.items(), key=lambda kv: str(kv[0]))
    ]


def main(argv: list) -> int:
    for path in argv:
        dump = json.loads(Path(path).read_text())
        print(f"# {path}: {json.dumps(dump['meta'], sort_keys=True)}")
        print(f"{'span':46s} {'dim':>3s} {'N':>4s} {'calls':>6s} {'mean_ms':>10s} "
              f"{'total_s':>9s} {'self_s':>9s}")
        for name, dim, n, c, mean_ms, t, st in breakdown(dump["spans"]):
            print(f"{name:46s} {dim!s:>3s} {n!s:>4s} {c:6d} {mean_ms:10.3f} {t:9.3f} {st:9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
