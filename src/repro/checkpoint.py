"""Engine checkpointing.

Long-running streaming deployments periodically checkpoint their converged
state so a restart resumes from the last snapshot instead of replaying the
whole stream.  A checkpoint captures the topology, the per-query state
array and dependence parents; restoring rebuilds a ready-to-go engine and
verifies internal consistency.

Format v2 additionally records the *stream position* — the snapshot id the
state corresponds to and the write-ahead-log sequence it covers — so
:class:`repro.resilience.recovery.RecoveryManager` can restore a checkpoint
and replay only the WAL tail.  v1 checkpoints (no position) still load, with
the position defaulting to snapshot 0.

Format v3 is a *state record*: the same position and state arrays with no
topology.  It names the base checkpoint it continues (``base_snapshot_id``)
and is exact for *that base's topology plus the WAL records in
(``base_snapshot_id``, ``snapshot_id``]* — a pipeline writes one per cadence
tick instead of re-serialising edges the WAL beside it already holds.

A base is deflated (``np.savez_compressed``): it holds the edges and is
written rarely.  A state record is stored (``np.savez``): it is written on
every tick, and deflating its 16 bytes per vertex took most of the tick's
time for a few tens of kilobytes saved.  ``np.load`` reads either encoding,
so records written deflated still load.
"""

from __future__ import annotations

import os
import zipfile
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.algorithms.base import MonotonicAlgorithm
from repro.algorithms.registry import get_algorithm
from repro.core.engine import CISGraphEngine
from repro.errors import ReproError
from repro.graph.dynamic import DynamicGraph
from repro.query import PairwiseQuery


class CheckpointError(ReproError):
    """A checkpoint could not be written or restored."""


_FORMAT_VERSION = 2
_RECORD_VERSION = 3
_SUPPORTED_VERSIONS = (1, 2, 3)


@dataclass
class CheckpointInfo:
    """Stream-position metadata of a checkpoint (without restoring it)."""

    version: int
    algorithm: str
    snapshot_id: int
    wal_sequence: int
    num_vertices: int
    num_edges: int
    #: state records (v3) only: snapshot id of the base they continue
    base_snapshot_id: Optional[int] = None


def save_checkpoint(
    path: str,
    engine: CISGraphEngine,
    snapshot_id: int = 0,
    wal_sequence: int = 0,
    base_snapshot_id: Optional[int] = None,
) -> None:
    """Write a CISGraph-O engine's full state to ``path`` (npz).

    ``snapshot_id`` is the stream snapshot the state corresponds to and
    ``wal_sequence`` the last WAL record sequence covered by the state;
    standalone callers (no WAL) can leave both at 0.

    With ``base_snapshot_id`` the archive is a v3 *state record* instead:
    no ``edges_*`` arrays, only the edge count and the snapshot id of the
    base checkpoint whose topology (plus the WAL since) the state is for.
    A base is written deflated, a record stored (see the module docstring).

    The write is atomic: the archive goes to a temporary file in the same
    directory, is fsynced, then renamed over ``path`` — a crash mid-write
    leaves the previous checkpoint intact instead of a truncated archive
    (pipelines overwrite one ``checkpoint.npz`` in place, so a torn write
    would otherwise destroy the only recovery base).
    """
    if not path.endswith(".npz"):
        path = path + ".npz"  # np.savez appends it; keep the path identical
    graph = engine.graph
    if base_snapshot_id is None:
        version, write = _FORMAT_VERSION, np.savez_compressed
        edges = list(graph.edges())
        topology = dict(
            edges_src=np.array([e[0] for e in edges], dtype=np.int64),
            edges_dst=np.array([e[1] for e in edges], dtype=np.int64),
            edges_wgt=np.array([e[2] for e in edges], dtype=np.float64),
        )
    else:  # a state record names its topology instead of holding it
        version, write = _RECORD_VERSION, np.savez
        topology = dict(
            num_edges=np.int64(graph.num_edges),
            base_snapshot_id=np.int64(base_snapshot_id),
        )
    tmp_path = path + ".tmp"
    try:
        with open(tmp_path, "wb") as handle:
            write(
                handle,
                version=np.int64(version),
                algorithm=np.str_(engine.algorithm.name),
                source=np.int64(engine.query.source),
                destination=np.int64(engine.query.destination),
                num_vertices=np.int64(graph.num_vertices),
                snapshot_id=np.int64(snapshot_id),
                wal_sequence=np.int64(wal_sequence),
                **topology,
                states=np.array(engine.state.states, dtype=np.float64),
                parents=np.array(engine.state.parents, dtype=np.int64),
            )
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    try:  # make the rename itself durable
        dir_fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


@contextmanager
def _archive(path: str):
    """An open npz, with typed errors for a missing or corrupt archive and
    for any field the body finds missing or unreadable."""
    try:
        data = np.load(path)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise CheckpointError(f"checkpoint {path!r} is not an npz archive")
        with data:
            yield data
    except FileNotFoundError as exc:
        raise CheckpointError(f"checkpoint {path!r} does not exist") from exc
    except KeyError as exc:
        raise CheckpointError(f"checkpoint {path!r} is missing field {exc}") from exc
    # zipfile raises NotImplementedError (a RuntimeError) for a damaged
    # method, version or flag field, and RuntimeError for an "encrypted" bit
    except (zipfile.BadZipFile, zlib.error, OSError, ValueError, EOFError,
            RuntimeError) as exc:
        raise CheckpointError(f"checkpoint {path!r} is corrupt: {exc}") from exc


def _info(path: str, data, num_edges: Optional[int] = None) -> CheckpointInfo:
    """Metadata of an open archive (``num_edges``: spare a second inflate)."""
    version = int(data["version"])
    if version not in _SUPPORTED_VERSIONS:
        raise CheckpointError(
            f"checkpoint {path!r} has format v{version}, "
            f"expected one of {_SUPPORTED_VERSIONS}"
        )
    record = version == _RECORD_VERSION
    if num_edges is None:
        num_edges = int(data["num_edges"]) if record else len(data["edges_src"])
    return CheckpointInfo(
        version=version,
        algorithm=str(data["algorithm"]),
        snapshot_id=int(data["snapshot_id"]) if version >= 2 else 0,
        wal_sequence=int(data["wal_sequence"]) if version >= 2 else 0,
        num_vertices=int(data["num_vertices"]),
        num_edges=num_edges,
        base_snapshot_id=int(data["base_snapshot_id"]) if record else None,
    )


def checkpoint_info(path: str) -> CheckpointInfo:
    """Read a checkpoint's (or state record's) metadata without restoring it."""
    with _archive(path) as data:
        return _info(path, data)


def install_state(engine: CISGraphEngine, states: List[float],
                  parents: List[int], verify: bool, origin: str) -> None:
    """:meth:`CISGraphEngine.adopt_state`, then with ``verify`` check that
    the installed state is a converged fixpoint of ``engine.graph``."""
    engine.adopt_state(states, parents)
    if verify:
        try:
            engine.state.check_converged()
        except AssertionError as exc:
            raise CheckpointError(
                f"{origin} failed convergence verification: {exc}"
            ) from exc


def restore_checkpoint(
    path: str,
    algorithm: Optional[MonotonicAlgorithm] = None,
    verify: bool = True,
) -> Tuple[CISGraphEngine, CheckpointInfo]:
    """Restore a CISGraph-O engine from a checkpoint, with its metadata.

    With ``verify`` (default) the restored state array is checked to be a
    converged fixpoint of the restored topology — a corrupted or mismatched
    checkpoint raises :class:`CheckpointError` instead of silently serving
    wrong answers.
    """
    with _archive(path) as data:
        if int(data["version"]) == _RECORD_VERSION:
            raise CheckpointError(
                f"{path!r} is a v3 state record for base snapshot "
                f"{int(data['base_snapshot_id'])}, not a checkpoint: "
                "RecoveryManager adopts it on top of its base"
            )
        src = data["edges_src"].tolist()
        info = _info(path, data, num_edges=len(src))
        algorithm = algorithm or get_algorithm(info.algorithm)
        if algorithm.name != info.algorithm:
            raise CheckpointError(
                f"checkpoint was taken with {info.algorithm!r}, "
                f"got algorithm {algorithm.name!r}"
            )
        graph = DynamicGraph.from_edges(
            info.num_vertices,
            zip(src, data["edges_dst"].tolist(), data["edges_wgt"].tolist()),
        )
        query = PairwiseQuery(int(data["source"]), int(data["destination"]))
        engine = CISGraphEngine(graph, algorithm, query)
        states, parents = data["states"].tolist(), data["parents"].tolist()
    install_state(engine, states, parents, verify, f"checkpoint {path!r}")
    return engine, info


def load_checkpoint(path: str, algorithm: Optional[MonotonicAlgorithm] = None,
                    verify: bool = True) -> CISGraphEngine:
    """:func:`restore_checkpoint` without the metadata."""
    return restore_checkpoint(path, algorithm=algorithm, verify=verify)[0]


def load_state_record(
    path: str, engine: CISGraphEngine, base: CheckpointInfo
) -> Tuple[CheckpointInfo, List[float], List[int]]:
    """Parse the state record at ``path`` — ``(info, states, parents)`` —
    and check that it continues ``base``, the checkpoint ``engine`` was just
    restored from.

    Every way the record can be unusable — torn, corrupt, written for
    another base, algorithm, query or graph size, or no newer than the base
    — is a :class:`CheckpointError` naming the reason.
    """
    with _archive(path) as data:
        info = _info(path, data)
        query = (int(data["source"]), int(data["destination"]))
        states, parents = data["states"].tolist(), data["parents"].tolist()
    theirs = (info.base_snapshot_id, info.algorithm, query, info.num_vertices)
    ours = (base.snapshot_id, engine.algorithm.name,
            (engine.query.source, engine.query.destination), base.num_vertices)
    if theirs != ours:
        raise CheckpointError(f"written for base {theirs}, the checkpoint is {ours}")
    if info.snapshot_id <= base.snapshot_id:
        raise CheckpointError("not newer than the checkpoint")
    if not len(states) == len(parents) == info.num_vertices:
        raise CheckpointError("state arrays do not match num_vertices")
    return info, states, parents
