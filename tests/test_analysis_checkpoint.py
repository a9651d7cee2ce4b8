"""Tests for stream diagnostics and engine checkpointing."""

import math

import numpy as np
import pytest

from repro.algorithms import PPSP, PPWP, dijkstra, get_algorithm
from repro.bench.analysis import StreamDiagnostics, diagnose_stream, histogram, summarize
from repro.bench.datasets import dataset_specs, make_workload, pick_query_pairs
from repro.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from repro.core.engine import CISGraphEngine
from repro.graph.batch import UpdateBatch, add, delete
from repro.graph.dynamic import DynamicGraph
from repro.query import PairwiseQuery
from tests.conftest import random_batch, random_graph


class TestSummarize:
    def test_empty(self):
        stats = summarize([])
        assert stats["count"] == 0
        assert stats["mean"] == 0.0

    def test_basic(self):
        stats = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        assert stats["count"] == 5
        assert stats["min"] == 1.0
        assert stats["max"] == 5.0
        assert stats["median"] == 3.0
        assert stats["mean"] == 3.0
        assert stats["p90"] >= stats["median"]

    def test_single(self):
        stats = summarize([7.0])
        assert stats["median"] == stats["p90"] == 7.0


class TestHistogram:
    def test_bins_and_overflow(self):
        result = histogram([0.5, 1.5, 99.0], bins=[1.0, 2.0])
        assert result == [("[0, 1)", 1), ("[1, 2)", 1), (">= 2", 1)]

    def test_unsorted_bins_rejected(self):
        with pytest.raises(ValueError):
            histogram([1.0], bins=[2.0, 1.0])

    def test_empty_values(self):
        result = histogram([], bins=[1.0])
        assert result == [("[0, 1)", 0), (">= 1", 0)]

    def test_no_bins_single_bucket(self):
        result = histogram([1.0, 2.0], bins=[])
        assert result == [("all", 2)]


class TestDiagnostics:
    @pytest.fixture(scope="class")
    def diagnostics(self):
        import os

        os.environ["CISGRAPH_SCALE"] = "tiny"
        spec = dataset_specs("tiny")[0]
        workload = make_workload(spec, num_batches=3, seed=1)
        query = pick_query_pairs(workload.initial, count=1, seed=1)[0]
        return diagnose_stream(workload, "ppsp", query)

    def test_records_every_batch(self, diagnostics):
        assert len(diagnostics.answers) == 3
        assert len(diagnostics.keypath_lengths) == 3
        assert len(diagnostics.useless_fractions) == 3

    def test_fractions_valid(self, diagnostics):
        assert all(0.0 <= f <= 1.0 for f in diagnostics.useless_fractions)

    def test_summaries(self, diagnostics):
        ks = diagnostics.keypath_summary()
        assert ks["count"] == 3
        waves = diagnostics.wave_summary()
        assert set(waves) == {"additions", "deletions"}

    def test_answer_stability(self, diagnostics):
        assert 0.0 <= diagnostics.answer_stability <= 1.0


class TestCheckpoint:
    def make_engine(self, seed=5):
        g = random_graph(50, 300, seed=seed)
        engine = CISGraphEngine(g, PPSP(), PairwiseQuery(0, 25))
        engine.initialize()
        engine.on_batch(random_batch(engine.graph, 15, 15, seed=seed + 1))
        return engine

    def test_roundtrip(self, tmp_path):
        engine = self.make_engine()
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, engine)
        restored = load_checkpoint(path)
        assert restored.answer == engine.answer
        assert restored.state.states == engine.state.states
        assert sorted(restored.graph.edges()) == sorted(engine.graph.edges())

    def test_restored_engine_continues_correctly(self, tmp_path):
        engine = self.make_engine(seed=9)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, engine)
        restored = load_checkpoint(path)

        batch = random_batch(engine.graph, 15, 15, seed=99)
        a = engine.on_batch(batch).answer
        b = restored.on_batch(batch).answer
        assert a == b
        reference = dijkstra(engine.graph, PPSP(), 0)
        assert a == reference.states[25]

    def test_wrong_algorithm_rejected(self, tmp_path):
        engine = self.make_engine()
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, engine)
        with pytest.raises(CheckpointError, match="ppwp"):
            load_checkpoint(path, algorithm=PPWP())

    def test_corrupted_states_detected(self, tmp_path):
        engine = self.make_engine()
        engine.state.states[25] = -1.0  # corrupt before saving
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, engine)
        with pytest.raises(CheckpointError, match="convergence"):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
    def test_corrupt_weight_is_a_checkpoint_error(self, tmp_path, bad):
        engine = self.make_engine()
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, engine)
        with np.load(path) as data:
            fields = dict(data)
        fields["edges_wgt"][0] = bad
        np.savez_compressed(path, **fields)
        with pytest.raises(CheckpointError, match="corrupt: edge weights must"):
            load_checkpoint(path)

    def test_verify_can_be_skipped(self, tmp_path):
        engine = self.make_engine()
        engine.state.states[25] = -1.0
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, engine)
        restored = load_checkpoint(path, verify=False)
        assert restored.answer == -1.0
