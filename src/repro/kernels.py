"""The per-edge loops, compiled once per algorithm class.

Every incremental loop of the engines and of the accelerator model — the
propagation scan, the relaxation of one vertex's edges, the repair set
(tag walk, reset, re-derivation) and the classification of a batch — is
written exactly once below, as a template.  :func:`compiled` splices an
algorithm class's declared expressions (``plus_expr``, ``better_expr``,
``transform_expr`` on :class:`~repro.algorithms.base.MonotonicAlgorithm`)
into the templates, compiles the result and caches it per class, so per
edge the loops evaluate ``(+)`` and ``(x)`` inline, the way the paper's
datapath does, instead of calling a method.

An expression is used only when declared by the class that defines the
method it stands for; a subclass that overrides the method without
declaring its own expression gets the call form (``self.propagate(a,
b)``).  A declared expression must return what the method returns, in
value *and type*: answer digests hash ``repr``.

Templates are ``str.format`` strings.  ``{plus:x,y}`` splices ``plus_expr``
with ``x`` for ``{a}`` and ``y`` for ``{b}``; ``{better:x,y}`` likewise;
``{weight:w}`` splices ``transform_expr`` with ``w`` for ``{w}``.  Inside an
expression ``self`` is the algorithm instance; an operand may be spliced
in more than once, and a temporary bound with ``:=`` takes a name starting
with ``_``, which no loop local does.  A line holding only the upper-case
name of a snippet is replaced by that snippet, indented to match.  The
generated source is registered with :mod:`linecache` under
``<repro.kernels:module.Class>``, so tracebacks and profilers show its
lines.

The generated loops charge :class:`~repro.metrics.OpCounts` per scanned
adjacency and add the totals once per call; the FIFO, the repair set's
insertion sequence and the re-derivation order are those of the seed
kernels, so answers, ``parents`` and every count are unchanged.  The
reference code (:mod:`repro.algorithms.solvers`,
:meth:`~repro.incremental.IncrementalState.check_converged`) keeps calling
the methods.
"""

from __future__ import annotations

import linecache
import textwrap
from collections import deque
from typing import Callable, Dict, NamedTuple

from repro.graph.batch import UpdateKind

# ----------------------------------------------------------------------
# snippets
# ----------------------------------------------------------------------
#: bindings every state loop starts from
_STATE = """\
self = state.algorithm
states = state.states
parents = state.parents
suppressed = state.suppressed
out_adj = state.graph.out_adj
queue = deque()
push = queue.append
popleft = queue.popleft
checks = pops = scanned = changes = 0
"""

#: bindings of the repair set
_REPAIR_STATE = """\
in_adj = state.graph.in_adj
source = state.source
identity = self.identity()
source_state = self.source_state()
tags = reads = rescanned = resets = derived = 0
"""

#: queue the seeds (states already written) unless the prune hook stops them
_SEEDS = """\
for seed in seeds:
    if prune is not None:
        checks += 1
        if prune(seed, states[seed]):
            suppressed.add(seed)
            continue
    push(seed)
"""

#: monotone FIFO propagation to a fixpoint: per popped vertex one state
#: read, then one scan + relaxation + read per out-edge
_SCAN = """\
while queue:
    u = popleft()
    du = states[u]
    adj = out_adj(u)
    pops += 1
    scanned += len(adj)
    for v, w in adj.items():
        candidate = {plus:du,{weight:w}}
        if {better:candidate,states[v]}:
            states[v] = candidate
            parents[v] = u
            changes += 1
            if activated is not None:
                activated.add(v)
            suppressed.discard(v)
            if prune is not None:
                checks += 1
                if prune(v, candidate):
                    suppressed.add(v)
                    continue
            push(v)
"""

#: tag the repair set of ``roots`` (supplier policy: dependence edges only;
#: reachable policy: every topology edge out of a reached vertex), reset
#: it, and re-derive each member from its in-neighbors into ``seeds``.
#: Members are tagged in breadth-first adjacency order (``tagged``, walked
#: as it grows) and re-derived in the set's iteration order, which follows
#: that insertion history; a member re-derived earlier supplies later
#: ones, so both orders are observable in ``parents`` and ``OpCounts``.
#: Reset states equal the identity, which never supplies, so in-set
#: suppliers are ignored.
_REPAIR = """\
subtree = set()
tagged = []
for root in roots:
    if root not in subtree:
        subtree.add(root)
        tagged.append(root)
for x in tagged:
    adj = out_adj(x)
    tags += len(adj)
    if follow_all:
        for y in adj:
            if y in subtree:
                continue
            reads += 1
            if self.is_reached(states[y]):
                subtree.add(y)
                tagged.append(y)
    else:
        for y in adj:
            if parents[y] == x and y not in subtree:
                subtree.add(y)
                tagged.append(y)
for x in subtree:
    states[x] = identity
    parents[x] = -1
if source in subtree:
    states[source] = source_state
seeds = []
for x in subtree:
    if x == source:
        seeds.append(x)
        continue
    best = identity
    parent = -1
    adj = in_adj(x)
    rescanned += len(adj)
    for y, w in adj.items():
        candidate = {plus:states[y],{weight:w}}
        if {better:candidate,best}:
            best = candidate
            parent = y
    if {better:best,identity}:
        states[x] = best
        parents[x] = parent
        derived += 1
        if activated is not None:
            activated.add(x)
        seeds.append(x)
resets += len(subtree)
"""

_CHARGE_SCAN = """\
ops.edges_scanned += scanned
ops.relaxations += scanned
ops.state_reads += pops + scanned
ops.state_writes += changes
ops.activations += changes
ops.bound_checks += checks
"""

_CHARGE_REPAIR = """\
ops.tag_ops += tags
ops.edges_scanned += rescanned
ops.relaxations += rescanned
ops.state_reads += reads + rescanned
ops.state_writes += resets + derived
ops.activations += derived
"""

# ----------------------------------------------------------------------
# the generated module
# ----------------------------------------------------------------------
_MODULE = """\
def propagate(state, seeds, ops, prune, activated):
    STATE
    SEEDS
    SCAN
    CHARGE_SCAN
    return changes


def additions(state, updates, ops, prune, activated):
    STATE
    relaxed = improved = 0
    for tail, head, weight in updates:
        relaxed += 1
        candidate = {plus:states[tail],{weight:weight}}
        if not {better:candidate,states[head]}:
            continue
        states[head] = candidate
        parents[head] = tail
        improved += 1
        if activated is not None:
            activated.add(head)
        seeds = (head,)
        SEEDS
        SCAN
    ops.relaxations += relaxed
    ops.state_reads += 2 * relaxed
    ops.state_writes += improved
    ops.activations += improved
    CHARGE_SCAN
    return improved


def deletions(state, pairs, ops, prune, activated, follow_all):
    STATE
    REPAIR_STATE
    repairs = 0
    for tail, head in pairs:
        tags += 1
        if not follow_all and parents[head] != tail:
            continue
        repairs += 1
        roots = (head,)
        REPAIR
        SEEDS
        SCAN
    CHARGE_REPAIR
    CHARGE_SCAN
    return repairs


def repair(state, roots, ops, follow_all, activated):
    STATE
    REPAIR_STATE
    REPAIR
    CHARGE_REPAIR
    return tagged, subtree, seeds


def relax(self, states, parents, tail, edges):
    improved = []
    du = states[tail]
    for head, w in edges:
        candidate = {plus:du,{weight:w}}
        if {better:candidate,states[head]}:
            states[head] = candidate
            parents[head] = tail
            improved.append(head)
    return improved


def classify(self, states, parents, batch, result, carries, rule, trackers):
    addition = ADD
    valuable = result.valuable_additions.append
    nondelayed = result.nondelayed_deletions.append
    delayed = result.delayed_deletions.append
    useless = result.useless.append
    for update in batch:
        candidate = {plus:states[update.u],{weight:update.weight}}
        if update.kind is addition:
            if {better:candidate,states[update.v]}:
                valuable(update)
            else:
                useless(update)
        elif candidate != states[update.v]:
            useless(update)
        elif carries(rule, trackers, parents, update):
            nondelayed(update)
        else:
            delayed(update)
"""

_SNIPPETS = {
    "STATE": _STATE,
    "REPAIR_STATE": _REPAIR_STATE,
    "SEEDS": _SEEDS,
    "SCAN": _SCAN,
    "REPAIR": _REPAIR,
    "CHARGE_SCAN": _CHARGE_SCAN,
    "CHARGE_REPAIR": _CHARGE_REPAIR,
}


class Kernels(NamedTuple):
    """The generated loops of one algorithm class.

    * ``propagate(state, seeds, ops, prune, activated) -> changes``
    * ``additions(state, updates, ops, prune, activated) -> improved``:
      relax each ``(u, v, weight)`` (edge already inserted) and propagate
      an improvement before the next one
    * ``deletions(state, pairs, ops, prune, activated, follow_all) ->
      repairs``: for each ``(u, v)`` (edge already removed) check, repair
      and propagate before the next one
    * ``repair(state, roots, ops, follow_all, activated) -> (tagged,
      members, seeds)``: the repair set alone, not propagated -- its
      members in tagging order, the set itself (re-derivation order) and
      the re-derived members
    * ``relax(algorithm, states, parents, tail, edges) -> improved``:
      relax each ``(head, weight)`` out of ``tail``, write every
      improvement, and return the improved heads in edge order
    * ``classify(algorithm, states, parents, batch, result, carries, rule,
      trackers)``: fill ``result``'s buckets
    """

    propagate: Callable
    additions: Callable
    deletions: Callable
    repair: Callable
    relax: Callable
    classify: Callable


def expressions(cls: type) -> Dict[str, str]:
    """The ``plus`` / ``better`` / ``weight`` templates the loops of
    ``cls`` evaluate: declared beside the method, else its call form."""

    def declared(method: str, attribute: str, call: str) -> str:
        owner = next(klass for klass in cls.__mro__ if method in vars(klass))
        return vars(owner).get(attribute) or call

    return {
        "plus": declared("propagate", "plus_expr", "self.propagate({a}, {b})"),
        "better": declared(
            "is_better", "better_expr", "self.is_better({a}, {b})"
        ),
        "weight": declared(
            "transform_weight", "transform_expr", "self.transform_weight({w})"
        ),
    }


class _Splice:
    """An expression as a format field: the spec lists its operands."""

    def __init__(self, expression: str, *names: str) -> None:
        self.expression = expression
        self.names = names

    def __format__(self, spec: str) -> str:
        operands = spec.split(",", len(self.names) - 1)
        return "(" + self.expression.format(**dict(zip(self.names, operands))) + ")"


def _expand(template: str) -> str:
    """Replace each snippet-name line with the snippet, indented to it."""
    lines = []
    for line in template.splitlines(keepends=True):
        snippet = _SNIPPETS.get(line.strip())
        if snippet is None:
            lines.append(line)
        else:
            lines.append(textwrap.indent(snippet, line[: line.index(line.strip())]))
    return "".join(lines)


def source(cls: type) -> str:
    """The generated module of ``cls``."""
    exprs = expressions(cls)
    return _expand(_MODULE).format(
        plus=_Splice(exprs["plus"], "a", "b"),
        better=_Splice(exprs["better"], "a", "b"),
        weight=_Splice(exprs["weight"], "w"),
    )


_COMPILED: Dict[type, Kernels] = {}


def compiled(algorithm) -> Kernels:
    """The generated loops for ``algorithm``'s class, compiled once."""
    cls = type(algorithm)
    kernels = _COMPILED.get(cls)
    if kernels is None:
        text = source(cls)
        filename = f"<repro.kernels:{cls.__module__}.{cls.__qualname__}>"
        linecache.cache[filename] = (
            len(text), None, text.splitlines(keepends=True), filename
        )
        namespace = {"deque": deque, "ADD": UpdateKind.ADD}
        exec(compile(text, filename, "exec"), namespace)
        kernels = _COMPILED.setdefault(
            cls, Kernels(*(namespace[name] for name in Kernels._fields))
        )
    return kernels
