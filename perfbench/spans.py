"""In-memory span tracing around convnorm's public functions.

``Tracer.install()`` replaces every public function of the ``convnorm``
package, in every ``convnorm.*`` namespace that binds it, with a wrapper that
records one span per call: name, start, end, parent span, job id and thread.
Module-level names are looked up at call time, so a wrapped
``convnorm.tensor_ops.partial_contraction`` is also what
``convnorm.hopm.hopm`` calls.  ``uninstall()`` puts the original objects
back.  The parent stack is per thread because ``convnorm table`` evaluates
its rows in pool threads; a span opened in a pool thread has no parent
there, and its job id is the job running at the time.

Nothing under ``src/`` changes: the spans sit at the boundaries between
the package's modules, as seen from outside.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
import types
from dataclasses import dataclass, field

# The package modules, one layer each; every one has public functions to wrap.
LAYERS = ("cli", "kernel_io", "bounds", "hopm", "tensor_ops", "oracle", "regularizers")

# Private functions that mark a unit of work worth a span of its own.
EXTRA = {("cli", "_eval_row"): "cli.table_row"}
# Methods wrapped on their class, by (module, class, method).
METHODS = (("oracle", "LinearOperatorHandle", "forward"), ("oracle", "LinearOperatorHandle", "adjoint"))


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: int | None
    thread: int
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _shape_info(name, args, result) -> dict:
    """Counts a span carries beyond its timing, read from arguments and result."""
    if name == "tensor_ops.partial_contraction":
        a = args[0]
        return {"hole": args[2], "nbytes": a.size * 8, "ndim": a.ndim}
    if name == "tensor_ops.multilinear_form":
        return {"value": abs(result)}
    if name == "hopm.hopm":
        return {"ndim": args[0].ndim if hasattr(args[0], "ndim") else None,
                "restarts": result.restarts_used, "converged": result.converged}
    if name == "kernel_io.read_kernel":
        return {"nbytes": result.nbytes}
    if name == "oracle.power_method":
        return {"iterations": result.iterations, "converged": result.converged}
    if name == "oracle.circular_exact_norm":
        return {"grid_points": int(args[1]) ** 2 if len(args) > 1 else None}
    return {}


class Tracer:
    """Records spans while installed; keeps them in memory until asked."""

    def __init__(self, package: str = "convnorm"):
        self.package = package
        self.spans: list[Span] = []
        self.job: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            span = Span(span_id, name, start, end, parent, tracer.job, threading.get_ident())
            try:
                span.info = _shape_info(name, args, result)
            except (AttributeError, IndexError, TypeError):
                span.info = {"info_error": True}  # an unexpected call form
            tracer.spans.append(span)
            return result

        return wrapper

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def modules(self) -> list[types.ModuleType]:
        """The package and its already-imported submodules."""
        prefix = self.package + "."
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == self.package or n.startswith(prefix))]

    def targets(self) -> list[tuple[object, str, object, str]]:
        """(namespace, attribute, original, span name) for everything wrapped."""
        prefix = self.package + "."
        out = []
        for module in self.modules():
            for attr, value in vars(module).items():
                if not isinstance(value, types.FunctionType):
                    continue
                home = getattr(value, "__module__", "") or ""
                if not home.startswith(prefix):
                    continue
                layer = home[len(prefix):]
                extra = EXTRA.get((layer, attr))
                if extra is None and attr.startswith("_"):
                    continue
                out.append((module, attr, value, extra or f"{layer}.{value.__name__}"))
        for layer, cls_name, method in METHODS:
            cls = getattr(sys.modules.get(f"{prefix}{layer}"), cls_name, None)
            if cls is not None:
                out.append((cls, method, vars(cls)[method], f"{layer}.{cls_name}.{method}"))
        return out

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        for owner, attr, original, name in self.targets():
            if id(original) not in wrappers:
                wrappers[id(original)] = self._wrap(original, name)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrappers[id(original)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# ---------------------------------------------------------------------------
# span arithmetic


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - covered(children.get(s.id, ()), s.start, s.end) for s in spans}


# ---------------------------------------------------------------------------
# per-layer metrics

PER_LAYER_UNITS = {
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.table.row_concurrency": "ratio",
    "kernel_io.read_kernel.calls": "count",
    "kernel_io.read_kernel.time_s": "s",
    "kernel_io.read_kernel.bytes": "B",
    "bounds.make_bound_report.time_s": "s",
    "bounds.f4_bound.calls": "count",
    "bounds.f4_bound.time_s": "s",
    "bounds.strided_kernel_transform.time_s": "s",
    "bounds.tn_bound_ddim.time_s": "s",
    "hopm.hopm.calls": "count",
    "hopm.hopm.time_s": "s",
    "hopm.hopm.self_s": "s",
    "hopm.sweeps": "count",
    "hopm.restarts": "count",
    "hopm.restart_sigma_spread": "ratio",
    "hopm.singular_value_gradient.time_s": "s",
    "tensor_ops.partial_contraction.calls": "count",
    "tensor_ops.partial_contraction.time_s": "s",
    "tensor_ops.partial_contraction.us_per_call": "us",
    "tensor_ops.partial_contraction.hole_imbalance": "ratio",
    "tensor_ops.partial_contraction.computed_gb": "GB",
    "tensor_ops.partial_contraction.computed_gb_per_s": "GB/s",
    "tensor_ops.as_dense_tensor.calls": "count",
    "tensor_ops.as_dense_tensor.time_s": "s",
    "tensor_ops.matrix_spectral_norm.calls": "count",
    "tensor_ops.matrix_spectral_norm.time_s": "s",
    "tensor_ops.multilinear_form.calls": "count",
    "oracle.power_method.calls": "count",
    "oracle.power_method.time_s": "s",
    "oracle.power_method.iterations": "count",
    "oracle.power_method.converged_frac": "ratio",
    "oracle.operator_apply.calls": "count",
    "oracle.operator_apply.us_per_call": "us",
    "oracle.circular_exact_norm.time_s": "s",
    "oracle.circular_exact_norm.grid_points": "count",
    "oracle.build_dense_jacobian.time_s": "s",
    "regularizers.regularizer_gradient.time_s": "s",
    "regularizers.regularizer_gradient.self_s": "s",
    "regularizers.self_gram_kernel.calls": "count",
    "regularizers.self_gram_kernel.time_s": "s",
    "regularizers.twonorm_loss.time_s": "s",
    "regularizers.ocnn_loss.time_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times of one traced pass, by metric name."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}

    def calls(name):
        return float(len(by_name.get(name, ())))

    def total(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def self_total(name):
        return sum(selfs[s.id] for s in by_name.get(name, ()))

    m: dict[str, float] = {}
    for name in ("cli.main", "kernel_io.read_kernel", "bounds.f4_bound", "hopm.hopm",
                 "tensor_ops.partial_contraction", "tensor_ops.as_dense_tensor",
                 "tensor_ops.matrix_spectral_norm", "tensor_ops.multilinear_form",
                 "oracle.power_method", "regularizers.self_gram_kernel"):
        m[f"{name}.calls"] = calls(name)
    for name in ("kernel_io.read_kernel", "bounds.make_bound_report", "bounds.f4_bound",
                 "bounds.strided_kernel_transform", "bounds.tn_bound_ddim", "hopm.hopm",
                 "hopm.singular_value_gradient", "tensor_ops.partial_contraction",
                 "tensor_ops.as_dense_tensor", "tensor_ops.matrix_spectral_norm",
                 "oracle.power_method", "oracle.circular_exact_norm",
                 "oracle.build_dense_jacobian", "regularizers.regularizer_gradient",
                 "regularizers.self_gram_kernel", "regularizers.twonorm_loss",
                 "regularizers.ocnn_loss"):
        m[f"{name}.time_s"] = total(name)
    for name in ("cli.main", "hopm.hopm", "regularizers.regularizer_gradient"):
        m[f"{name}.self_s"] = self_total(name)

    # cli: rows evaluated in pool threads against the table jobs' wall time
    table_jobs = {s.job for s in by_name.get("cli.table_row", ())}
    table_wall = sum(s.duration for s in by_name.get("cli.main", ()) if s.job in table_jobs)
    m["cli.table.row_concurrency"] = _ratio(total("cli.table_row"), table_wall)

    m["kernel_io.read_kernel.bytes"] = float(
        sum(s.info.get("nbytes", 0) for s in by_name.get("kernel_io.read_kernel", ())))

    # hopm: sweeps and restart spread seen from the calls hopm makes
    sweeps = 0.0
    spread = 0.0
    hopm_ids = {s.id for s in by_name.get("hopm.hopm", ())}
    contractions: dict[int, int] = {}
    for s in by_name.get("tensor_ops.partial_contraction", ()):
        if s.parent in hopm_ids:
            contractions[s.parent] = contractions.get(s.parent, 0) + 1
    for parent, count in contractions.items():
        sweeps += count / by_id[parent].info["ndim"]
    values: dict[int, list[float]] = {}
    for s in by_name.get("tensor_ops.multilinear_form", ()):
        if s.parent in hopm_ids:
            values.setdefault(s.parent, []).append(s.info["value"])
    for vs in values.values():
        if len(vs) > 1 and max(vs) > 0:
            spread = max(spread, (max(vs) - min(vs)) / max(vs))
    m["hopm.sweeps"] = sweeps
    m["hopm.restarts"] = float(sum(s.info.get("restarts", 0) for s in by_name.get("hopm.hopm", ())))
    m["hopm.restart_sigma_spread"] = spread

    # tensor_ops: the contraction kernel
    pc = by_name.get("tensor_ops.partial_contraction", ())
    pc_time = m["tensor_ops.partial_contraction.time_s"]
    m["tensor_ops.partial_contraction.us_per_call"] = _ratio(pc_time * 1e6, len(pc))
    per_hole: dict[int, list[float]] = {}
    for s in pc:
        per_hole.setdefault(s.info.get("hole"), []).append(s.duration)
    means = [sum(v) / len(v) for v in per_hole.values()]
    m["tensor_ops.partial_contraction.hole_imbalance"] = _ratio(max(means, default=0.0),
                                                               min(means, default=0.0))
    gb = sum(s.info.get("nbytes", 0) for s in pc) / 1e9
    m["tensor_ops.partial_contraction.computed_gb"] = gb
    m["tensor_ops.partial_contraction.computed_gb_per_s"] = _ratio(gb, pc_time)

    # oracle
    pm = by_name.get("oracle.power_method", ())
    m["oracle.power_method.iterations"] = float(sum(s.info.get("iterations", 0) for s in pm))
    m["oracle.power_method.converged_frac"] = _ratio(
        sum(bool(s.info.get("converged")) for s in pm), len(pm))
    applies = by_name.get("oracle.LinearOperatorHandle.forward", []) + by_name.get(
        "oracle.LinearOperatorHandle.adjoint", [])
    m["oracle.operator_apply.calls"] = float(len(applies))
    m["oracle.operator_apply.us_per_call"] = _ratio(
        sum(s.duration for s in applies) * 1e6, len(applies))
    m["oracle.circular_exact_norm.grid_points"] = float(
        sum(s.info.get("grid_points") or 0 for s in by_name.get("oracle.circular_exact_norm", ())))
    return {name: float(m[name]) for name in PER_LAYER_UNITS}
