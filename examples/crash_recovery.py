"""Fault-tolerant streaming: WAL, crash, recovery, quarantine, guard.

The full resilience workflow around the CISGraph engine:

1. open a :class:`~repro.resilience.pipeline.ResilientPipeline` — every
   sealed batch is appended to a checksummed write-ahead log *before* the
   engine processes it, and the converged state is checkpointed
   periodically with its stream position;
2. feed raw (untrusted) records through the ingestion guard: malformed
   ones are quarantined to the dead-letter queue instead of killing the
   run;
3. crash the pipeline mid-stream at a deterministic injection point
   (a torn WAL write, exactly what a real mid-``write(2)`` crash leaves);
4. recover: restore the last checkpoint, replay only the WAL tail, and
   finish the stream — then cross-check against an uninterrupted run;
5. run the differential guard: corrupt the state on purpose and watch it
   detect the divergence and fall back to a cold-start recompute.

Run:  python examples/crash_recovery.py
"""

import os
import tempfile

from repro import CISGraphEngine, PairwiseQuery
from repro.algorithms import get_algorithm
from repro.bench.datasets import dataset_specs, make_workload, pick_query_pairs
from repro.resilience import DifferentialGuard, RecoveryManager, ResilientPipeline
from repro.resilience.faults import CrashPoint
from repro.resilience.wal import verify

os.environ.setdefault("CISGRAPH_SCALE", "tiny")


def main() -> None:
    spec = dataset_specs()[0]
    workload = make_workload(spec, num_batches=6, seed=11)
    query = pick_query_pairs(workload.initial, count=1, seed=11)[0]
    algorithm = get_algorithm("ppsp")
    batches = [step.batch for step in workload.replay.batches()]

    # uninterrupted reference run, for the cross-check in step 4
    reference = CISGraphEngine(workload.replay.initial_graph, algorithm, query)
    reference.initialize()
    ref_answers = [reference.on_batch(batch).answer for batch in batches]

    with tempfile.TemporaryDirectory() as tmp:
        state_dir = os.path.join(tmp, "pipeline")

        # 1 + 2: open the pipeline, feed some raw records (one malformed)
        pipeline = ResilientPipeline.open(
            state_dir,
            workload.replay.initial_graph,
            algorithm,
            query,
            checkpoint_every=2,
            guard_every=4,
            wal_sync=False,
        )
        pipeline.offer(("add", 0, 10 ** 9, 1.0))   # out-of-range: quarantined
        pipeline.offer(("add", 1, 2, float("nan")))  # NaN weight: quarantined
        print(f"dead-letter queue: {pipeline.deadletters.summary()}")

        # 3: crash mid-stream — the 4th WAL append is torn half-way
        pipeline.wal.write_hook = CrashPoint(after_records=3, tear=True)
        try:
            for batch in batches:
                pipeline.run_batch(batch)
        except Exception as exc:
            print(f"crashed as planned: {type(exc).__name__}: {exc}")
        pipeline.wal.close()

        stats = verify(os.path.join(state_dir, "wal"))
        print(
            f"wal after crash: {stats.records} committed records, "
            f"{stats.torn_tails} torn tail(s)"
        )

        # 4: recover = base checkpoint + state record (its topology rebuilt
        # from the WAL span) + WAL tail, then finish the stream
        recovered = RecoveryManager(state_dir).recover()
        assert recovered.record is not None, recovered.record_rejected
        print(
            f"recovered at snapshot {recovered.snapshot_id} "
            f"(checkpoint@{recovered.checkpoint.snapshot_id} + "
            f"state record@{recovered.record.snapshot_id} + "
            f"{len(recovered.replayed)} replayed records), "
            f"answer={recovered.answer:g}"
        )
        for index in range(recovered.snapshot_id, len(batches)):
            answer = recovered.engine.on_batch(batches[index]).answer
            assert answer == ref_answers[index], "recovery diverged!"
        print(f"finished stream: answer={recovered.engine.answer:g} "
              f"(matches uninterrupted run)")

        # 5: the differential guard catches silent corruption
        engine = recovered.engine
        engine.state.states[query.destination] /= 2  # inject silent corruption
        guard = DifferentialGuard(engine)
        report = guard.check(snapshot_id=len(batches))
        print(f"guard: diverged={report.diverged} fell_back={report.fell_back} "
              f"answer restored to {engine.answer:g}")
        assert engine.answer == ref_answers[-1]


if __name__ == "__main__":
    main()
