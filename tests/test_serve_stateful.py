"""Model-based check of the read contract under random interleavings.

One Hypothesis state machine drives a thread-backed
:class:`~repro.serve.harness.ServeHarness` through register / deregister
/ submit / read / kill-shard in whatever order it likes, on an algorithm
drawn per run, and holds every step to a cold solve on the canonical
graph: standing answers are exact, a non-degraded read is exact for the
epoch it is stamped with, a degraded read is within ``max_staleness`` (and
exact for *its* stamped epoch).  The graph is small and the weights few,
so duplicate edges, cancelling add/delete pairs, re-weights and ties all
turn up.  Crash-and-resume, rescale and the process backend are ROADMAP
item 5's own machine.
"""

import shutil
import tempfile

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro.algorithms.registry import get_algorithm, list_algorithms
from repro.algorithms.solvers import dijkstra
from repro.graph.batch import add, delete
from repro.query import PairwiseQuery
from repro.resilience.chaos import ManualClock
from repro.serve import ServeHarness, SupervisorConfig
from tests.conftest import random_graph

pytestmark = pytest.mark.serve

VERTICES, EDGES = 12, 40
ANCHOR = PairwiseQuery(0, 7)
#: sources sessions may stand on (both shards), and one nobody registers
SOURCES = (1, 2, 3, 4)
UNOWNED = 9
MAX_STALENESS = 2

vertex = st.integers(0, VERTICES - 1)
update = st.tuples(st.booleans(), vertex, vertex, st.integers(1, 3)).filter(
    lambda row: row[1] != row[2]
)


class ServeReads(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="serve-stateful-")
        self.harness = None

    @initialize(name=st.sampled_from(list_algorithms()), seed=st.integers(0, 5))
    def open(self, name, seed):
        self.clock = ManualClock()
        self.harness = ServeHarness.open(
            self.directory, random_graph(VERTICES, EDGES, seed=seed),
            get_algorithm(name), ANCHOR, num_shards=2, clock=self.clock,
            registration_rate=1e6, registration_burst=1e6,
            supervision=SupervisorConfig(
                failure_threshold=2, breaker_cooldown=30.0,
                max_staleness=MAX_STALENESS,
            ),
        )
        self.sessions = {}
        self.killed = set()
        #: canonical topology per committed epoch (what a stamp refers to)
        self.graphs = {0: self.harness.engine.graph.copy()}

    def teardown(self):
        if self.harness is not None:
            self.harness.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    def solve(self, epoch, source, destination):
        algorithm = self.harness.engine.algorithm
        return dijkstra(self.graphs[epoch], algorithm, source).states[destination]

    # ------------------------------------------------------------------
    @rule(source=st.sampled_from(SOURCES), destination=vertex)
    def register(self, source, destination):
        if source != destination and (source, destination) not in self.sessions:
            self.sessions[(source, destination)] = self.harness.register(
                source, destination
            )

    @rule(data=st.data())
    def deregister(self, data):
        if self.sessions:
            pair = data.draw(st.sampled_from(sorted(self.sessions)))
            self.harness.deregister(self.sessions.pop(pair).id)

    @rule()
    def settle(self):
        """Let warm-ups finish, so later reads find their owners (a
        session queued on a killed worker warms only after the next
        commit has replaced it)."""
        if not self.killed.intersection(self.harness.engine.shards):
            self.harness.wait_all_live(timeout=10.0)

    @rule(seconds=st.sampled_from([1.0, 31.0]))
    def tick(self, seconds):
        """Past the breaker cooldown, an open circuit offers its trial."""
        self.clock.advance(seconds)

    @rule(rows=st.lists(update, min_size=1, max_size=8))
    def submit(self, rows):
        result = self.harness.submit([
            add(u, v, float(w)) if is_add else delete(u, v, float(w))
            for is_add, u, v, w in rows
        ])
        epoch = self.harness.engine.epoch
        assert result.epoch == epoch
        self.graphs[epoch] = self.harness.engine.graph.copy()
        self.graphs.pop(epoch - MAX_STALENESS - 1, None)
        assert result.answer == self.solve(epoch, ANCHOR.source, ANCHOR.destination)
        for (source, destination), value in result.answers.items():
            assert value == self.solve(epoch, source, destination)

    @rule(source=st.sampled_from(SOURCES + (ANCHOR.source, UNOWNED)),
          destination=vertex)
    def read(self, source, destination):
        if source == destination:
            return
        engine = self.harness.engine
        read = self.harness.read(source, destination)
        if read.degraded:
            assert self.harness.supervisor.breaker_open(source)
            assert 0 <= read.stale_epochs <= MAX_STALENESS
            assert read.epoch == engine.epoch - read.stale_epochs
        else:
            assert (read.epoch, read.stale_epochs) == (engine.epoch, 0)
        assert read.value == self.solve(read.epoch, source, destination)

    @rule(index=st.integers(0, 1))
    def kill_shard(self, index):
        self.killed.add(self.harness.engine.shards[index])
        self.harness.engine.shards[index].kill()


TestServeReads = ServeReads.TestCase
TestServeReads.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
