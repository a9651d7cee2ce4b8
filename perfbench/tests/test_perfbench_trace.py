"""Span arithmetic and wrapper install / restore."""

import threading

import pytest

from perfbench import layers
from perfbench.trace import Span, Target, Tracer, self_times


def test_self_time_subtracts_nested_children():
    spans = [
        Span(0, "root", 0.0, 10.0, -1, "main"),
        Span(1, "child", 1.0, 4.0, 0, "main"),
        Span(2, "grandchild", 2.0, 3.0, 1, "main"),
        Span(3, "child", 5.0, 9.0, 0, "main"),
    ]
    own = self_times(spans)
    assert own == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_is_per_thread():
    spans = [
        Span(0, "serve.harness.submit", 0.0, 10.0, -1, "main"),
        Span(1, "serve.barrier", 2.0, 9.0, 0, "main"),
        # a shard works while the driver waits: not the driver's child
        Span(2, "core.group", 2.5, 8.5, -1, "serve-shard-0"),
        Span(3, "incremental.repair", 3.0, 5.0, 2, "serve-shard-0"),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(3.0)
    assert own[1] == pytest.approx(7.0)
    assert own[2] == pytest.approx(4.0)
    table = layers.layer_table(spans)
    assert table["_root_wall_s"] == pytest.approx(10.0)
    assert table["_self_under_roots_s"] == pytest.approx(10.0)
    assert table["serve.barrier.share"] == pytest.approx(0.7)
    # shard-thread time is busy time, never a share of the driver's wall
    assert "core.group.share" not in table
    assert layers.group_busy(spans) == {"serve-shard-0": pytest.approx(6.0)}


def test_install_rebinds_by_name_imports_and_restores():
    import repro.core.engine as engine_module
    import repro.graph.batch as batch_module

    original = batch_module.net_effects
    assert engine_module.net_effects is original
    tracer = Tracer()
    tracer.install([Target("graph.net_effects", "repro.graph.batch", "net_effects")])
    try:
        assert batch_module.net_effects is not original
        # the by-name import in repro.core.engine sees the wrapper too
        assert engine_module.net_effects is batch_module.net_effects
        from repro.graph.batch import UpdateBatch

        engine_module.net_effects(UpdateBatch(), lambda u, v: None)
    finally:
        tracer.uninstall()
    assert batch_module.net_effects is original
    assert engine_module.net_effects is original
    assert [span.name for span in tracer.spans()] == ["graph.net_effects"]


def test_install_wraps_inherited_and_class_methods_and_restores():
    from repro.core.engine import CISGraphEngine
    from repro.graph.dynamic import DynamicGraph

    assert "on_batch" not in vars(CISGraphEngine)
    raw_from_edges = vars(DynamicGraph)["from_edges"]
    with Tracer() as tracer:
        tracer.install([
            Target("core.engine", "repro.core.engine", "CISGraphEngine.on_batch"),
            Target("graph.build", "repro.graph.dynamic", "DynamicGraph.from_edges"),
        ])
        assert "on_batch" in vars(CISGraphEngine)
        graph = DynamicGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert graph.num_edges == 2
    assert "on_batch" not in vars(CISGraphEngine)
    assert vars(DynamicGraph)["from_edges"] is raw_from_edges
    assert [span.name for span in tracer.spans()] == ["graph.build"]


def test_missing_target_reads_absent_not_crash():
    tracer = Tracer()
    tracer.install([
        Target("gone.function", "repro.graph.batch", "no_such_function"),
        Target("gone.module", "repro.no_such_module", "f"),
        Target("gone.method", "repro.graph.dynamic", "DynamicGraph.no_such"),
    ])
    tracer.uninstall()
    assert tracer.absent == ["gone.function", "gone.module", "gone.method"]


def test_spans_nest_per_thread_and_keep_notes():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: 7, note=int)
    outer = tracer.wrap("outer", lambda: inner())
    worker = threading.Thread(target=inner, name="worker")
    outer()
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    spans = {(s.thread, s.name): s for s in tracer.spans()}
    main = threading.current_thread().name
    assert spans[(main, "inner")].parent == spans[(main, "outer")].id
    assert spans[("worker", "inner")].parent == -1
    assert spans[(main, "inner")].note == 7
    assert len({s.id for s in tracer.spans()}) == 3
