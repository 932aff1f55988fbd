"""Span arithmetic and the wrappers' reach.  Run: python3 -m pytest perfbench/tests"""

import sys
import threading

import numpy as np
from pytest import approx

import convnorm
import convnorm.cli  # noqa: F401  (the CLI module is not imported by the package)
from spans import LAYERS, PER_LAYER_UNITS, Span, Tracer, covered, layer_metrics, self_times


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 4), (6, 7)], 0, 10) == 4
    assert covered([(1, 3), (1.5, 2)], 0, 10) == 2
    assert covered([(-1, 2), (9, 12)], 0, 10) == 3
    assert covered([], 0, 10) == 0


def test_self_time_on_a_tree_with_pool_thread_spans():
    # main thread: cli.main [0, 10] with a child parse [0, 1]; two pool
    # threads run overlapping rows (roots there) whose children overlap
    # nothing of the main span's children.  Row 7 has two children on
    # different threads that overlap each other.
    spans = [
        Span(0, "cli.main", 0.0, 10.0, None, 1, 100),
        Span(1, "parse", 0.0, 1.0, 0, 1, 100),
        Span(2, "cli.table_row", 1.0, 6.0, None, 1, 201),
        Span(3, "bounds.make_bound_report", 1.5, 4.0, 2, 1, 201),
        Span(4, "cli.table_row", 1.2, 8.0, None, 1, 202),
        Span(5, "oracle.power_method", 2.0, 7.0, 4, 1, 202),
        Span(6, "oracle.LinearOperatorHandle.forward", 2.0, 3.0, 5, 1, 202),
        Span(7, "cli.table_row", 0.0, 5.0, None, 2, 203),
        Span(8, "a", 1.0, 3.0, 7, 2, 203),
        Span(9, "b", 2.0, 4.0, 7, 2, 204),
    ]
    selfs = self_times(spans)
    # pool threads are not children of cli.main: its wait counts as self time
    assert selfs[0] == approx(9.0)
    assert selfs[2] == approx(2.5)
    assert selfs[4] == approx(1.8)
    assert selfs[5] == approx(4.0)
    assert selfs[6] == approx(1.0)
    assert selfs[7] == approx(2.0)  # the children cover [1, 4] once, not 4 s
    metrics = layer_metrics(spans)
    assert metrics["cli.main.self_s"] == approx(9.0)
    assert metrics["cli.main.calls"] == 1.0
    # job 1's rows (5 s + 6.8 s) over its cli.main wall (10 s); job 2 has no main span
    assert metrics["cli.table.row_concurrency"] == approx((5.0 + 6.8 + 5.0) / 10.0)


def _bindings(name):
    """Every (namespace, attribute) in convnorm that binds the function ``name``."""
    tracer = Tracer()
    return [(owner, attr) for owner, attr, _, span in tracer.targets() if span == name]


def test_wrappers_reach_every_binding_and_are_removed():
    # `convnorm.hopm` is the function (the package re-exports it), so the
    # modules come from sys.modules.
    hopm_mod, ops, cli = (sys.modules[f"convnorm.{m}"] for m in ("hopm", "tensor_ops", "cli"))
    handle = sys.modules["convnorm.oracle"].LinearOperatorHandle
    originals = {
        (hopm_mod, "partial_contraction"): hopm_mod.partial_contraction,
        (ops, "partial_contraction"): ops.partial_contraction,
        (cli, "make_bound_report"): cli.make_bound_report,
        (ops, "as_dense_tensor"): ops.as_dense_tensor,
        (convnorm, "tn_bound"): convnorm.tn_bound,
        (handle, "forward"): handle.forward,
    }
    every = {(id(owner), attr): getattr(owner, attr) for owner, attr, _, _ in Tracer().targets()}
    assert {span.split(".")[0] for _, _, _, span in Tracer().targets()} == set(LAYERS)
    bound = _bindings("tensor_ops.partial_contraction")
    assert {(m.__name__, a) for m, a in bound} >= {
        ("convnorm.hopm", "partial_contraction"), ("convnorm.tensor_ops", "partial_contraction"),
        ("convnorm", "partial_contraction")}

    tracer = Tracer()
    with tracer:
        for owner, attr in originals:
            assert getattr(owner, attr) is not originals[(owner, attr)]
        # one wrapper per function, whichever namespace binds it
        assert hopm_mod.partial_contraction is ops.partial_contraction
        kernel = np.random.default_rng(0).standard_normal((3, 3, 2, 2))
        convnorm.tn_bound(kernel, convnorm.HopmConfig(restarts=2, n_iters=3, tol=0.0))
    for owner, attr in originals:
        assert getattr(owner, attr) is originals[(owner, attr)]
    for owner, attr, _, _ in Tracer().targets():
        assert getattr(owner, attr) is every[(id(owner), attr)]

    names = [s.name for s in tracer.spans]
    assert names.count("hopm.tn_bound") == 1
    assert names.count("hopm.hopm") == 1
    # 2 restarts x 3 sweeps x 4 axes, each called from hopm's module namespace
    metrics = layer_metrics(tracer.spans)
    assert metrics["tensor_ops.partial_contraction.calls"] == 24
    assert metrics["hopm.sweeps"] == 6
    assert metrics["hopm.restarts"] == 2
    assert metrics["tensor_ops.multilinear_form.calls"] == 2
    assert set(metrics) == set(PER_LAYER_UNITS)


def test_spans_in_pool_threads_keep_their_own_parents():
    tracer = Tracer()
    kernel = np.random.default_rng(1).standard_normal((2, 2, 2, 2))
    with tracer:
        tracer.job = 5
        worker = threading.Thread(target=convnorm.f4_bound, args=(kernel,))
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        convnorm.frobenius(kernel)
    by_id = {s.id: s for s in tracer.spans}
    f4 = [s for s in tracer.spans if s.name == "bounds.f4_bound"]
    assert len(f4) == 1 and f4[0].parent is None and f4[0].job == 5
    for s in tracer.spans:
        if s.parent is not None:
            assert by_id[s.parent].thread == s.thread
    assert any(s.name == "tensor_ops.matrix_spectral_norm" and s.parent == f4[0].id
               for s in tracer.spans)
