"""Scripted request protocol for ``repro serve``.

A serve script is a line-oriented command stream (stdin or a file) driving
one :class:`~repro.serve.harness.ServeHarness` — the textual surface the
CLI exposes and the end-to-end tests replay.  Grammar (one command per
line, ``#`` starts a comment)::

    register S D        register standing query Q(S -> D); prints its session id
    deregister SID      close session SID
    add U V W           buffer edge addition U --W--> V
    delete U V [W]      buffer edge deletion U -> V
    commit              commit buffered updates as one batch; prints answers
    query S D           one-shot read of Q(S -> D), answered by the shard
                        that maintains S when there is one (else cached);
                        reports the ``epoch`` the value is exact for and
                        the ``degraded`` flag (with staleness) while the
                        source's circuit breaker is open
    query SID           the same read addressed through a standing
                        session id (a closed or unknown id is a typed
                        ``SessionClosedError``, not a crash)
    explain S D [EPOCH] contribution provenance of Q(S -> D) at EPOCH
                        (default: latest epoch that answered the pair)
    explain SID [EPOCH] provenance addressed through a session id
    control [ACTION]    adaptive-controller surface (``serve --adaptive``):
                        ``status`` (default), ``freeze``, ``thaw``, or
                        ``log [N]`` for the last N audit decisions
    stats               print the harness summary
    close               stop serving (implicit at end of script)

Commands never abort the script on *typed* serving errors — an admission
rejection or duplicate registration is an expected protocol outcome, so it
is reported as an ``error`` event and execution continues.  Anything else
(a genuine bug) propagates.
"""

from __future__ import annotations

import shlex
from typing import Dict, Iterable, List

from repro.errors import ControlError, ReproError
from repro.graph.batch import EdgeUpdate, add, delete
from repro.serve.harness import ServeHarness


def _is_session_id(token: str) -> bool:
    """True when a query/explain operand addresses a session, not a vertex."""
    return not token.lstrip("-").isdigit()


class ScriptError(ReproError):
    """A serve script line could not be parsed."""

    def __init__(self, lineno: int, line: str, detail: str) -> None:
        super().__init__(f"serve script line {lineno}: {detail}: {line!r}")
        self.lineno = lineno


def parse_script(lines: Iterable[str]) -> List[List[str]]:
    """Tokenize a script into commands, dropping comments and blanks."""
    commands: List[List[str]] = []
    for lineno, raw in enumerate(lines, start=1):
        tokens = shlex.split(raw, comments=True)
        if not tokens:
            continue
        commands.append([str(lineno)] + tokens)
    return commands


class ScriptRunner:
    """Execute a parsed serve script against a harness.

    Every command produces one event dict (``{"cmd": ..., "ok": ...}``
    plus command-specific fields); :attr:`events` accumulates them so the
    CLI can print as it goes and tests can assert on the whole run.
    """

    def __init__(self, harness: ServeHarness) -> None:
        self.harness = harness
        self.pending: List[EdgeUpdate] = []
        self.events: List[Dict[str, object]] = []
        self.closed = False

    # ------------------------------------------------------------------
    def run(self, lines: Iterable[str]) -> List[Dict[str, object]]:
        """Run a whole script; closes the harness at the end."""
        for command in parse_script(lines):
            self.step(command)
            if self.closed:
                break
        self.close()
        return self.events

    def step(self, command: List[str]) -> Dict[str, object]:
        """Execute one tokenized command (``[lineno, verb, *args]``)."""
        lineno = int(command[0])
        verb, args = command[1], command[2:]
        handler = getattr(self, f"_cmd_{verb.replace('-', '_')}", None)
        if handler is None:
            raise ScriptError(lineno, " ".join(command[1:]), "unknown command")
        try:
            event = handler(args)
        except ReproError as exc:
            event = {"error": type(exc).__name__, "detail": str(exc)}
        except (TypeError, ValueError, IndexError) as exc:
            raise ScriptError(
                lineno, " ".join(command[1:]), f"bad arguments ({exc})"
            ) from exc
        event = {"cmd": verb, "ok": "error" not in event, **event}
        self.events.append(event)
        return event

    # ------------------------------------------------------------------
    # verbs
    # ------------------------------------------------------------------
    def _cmd_register(self, args: List[str]) -> Dict[str, object]:
        session = self.harness.register(int(args[0]), int(args[1]))
        return {"session": session.id, "state": session.state.value}

    def _cmd_deregister(self, args: List[str]) -> Dict[str, object]:
        session = self.harness.deregister(args[0])
        return {"session": session.id, "state": session.state.value}

    def _cmd_add(self, args: List[str]) -> Dict[str, object]:
        weight = float(args[2]) if len(args) > 2 else 1.0
        self.pending.append(add(int(args[0]), int(args[1]), weight))
        return {"pending": len(self.pending)}

    def _cmd_delete(self, args: List[str]) -> Dict[str, object]:
        weight = float(args[2]) if len(args) > 2 else 1.0
        self.pending.append(delete(int(args[0]), int(args[1]), weight))
        return {"pending": len(self.pending)}

    def _cmd_commit(self, args: List[str]) -> Dict[str, object]:
        updates, self.pending = self.pending, []
        result = self.harness.submit(updates)
        return {
            "snapshot": self.harness.snapshot_id,
            "updates": len(updates),
            "answers": {
                f"{s}->{d}": value for (s, d), value in sorted(result.answers.items())
            },
            "degraded": [source for source, _ in result.degraded],
        }

    def _cmd_query(self, args: List[str]) -> Dict[str, object]:
        if _is_session_id(args[0]):
            read = self.harness.read(session_id=args[0])
        else:
            read = self.harness.read(int(args[0]), int(args[1]))
        event: Dict[str, object] = {
            "answer": read.value,
            "hit_rate": self.harness.cache.stats.hit_rate,
            "epoch": read.epoch,
            "degraded": read.degraded,
        }
        if read.degraded:
            event["stale_epochs"] = read.stale_epochs
        return event

    def _cmd_explain(self, args: List[str]) -> Dict[str, object]:
        if _is_session_id(args[0]):
            epoch = int(args[1]) if len(args) > 1 else None
            record = self.harness.explain(session_id=args[0], epoch=epoch)
        else:
            epoch = int(args[2]) if len(args) > 2 else None
            record = self.harness.explain(
                int(args[0]), int(args[1]), epoch=epoch
            )
        return {"explain": record}

    def _cmd_control(self, args: List[str]) -> Dict[str, object]:
        action = args[0] if args else "status"
        if action not in ("status", "freeze", "thaw", "log"):
            raise ValueError(f"unknown control action {action!r}")
        controller = self.harness.controller
        if controller is None:
            raise ControlError(
                "no runtime controller attached (run serve with --adaptive)"
            )
        if action == "freeze":
            reverts = controller.freeze(reason="script")
            return {"frozen": True, "reverts": len(reverts)}
        if action == "thaw":
            controller.thaw()
            return {"frozen": False}
        if action == "log":
            limit = int(args[1]) if len(args) > 1 else 0
            decisions = [decision.as_dict() for decision in controller.audit]
            if limit > 0:
                decisions = decisions[-limit:]
            return {"decisions": decisions}
        return {"control": controller.stats()}

    def _cmd_stats(self, args: List[str]) -> Dict[str, object]:
        return {"stats": self.harness.stats()}

    def _cmd_close(self, args: List[str]) -> Dict[str, object]:
        self.close()
        return {"closed": True}

    def close(self) -> None:
        """Close the harness once (idempotent; implicit at end of script)."""
        if not self.closed:
            self.harness.close()
            self.closed = True


def format_event(event: Dict[str, object]) -> str:
    """Render one runner event as a CLI output line."""
    verb = event.get("cmd", "?")
    if not event.get("ok", False):
        return f"{verb}: ERROR {event.get('error')}: {event.get('detail')}"
    parts = []
    for key, value in event.items():
        if key in ("cmd", "ok"):
            continue
        parts.append(f"{key}={value}")
    return f"{verb}: " + " ".join(parts) if parts else f"{verb}: ok"
