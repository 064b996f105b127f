"""Compiling a :class:`~repro.plans.query.PatternQuery` into an
:class:`ExecutionPlan`.

The pipeline follows G²Miner's pattern-aware code generation, adapted
to G-Miner's pull-based task model:

1. **Flatten** the query to global node indices, labels, and the full
   undirected edge set (tree + extra edges).
2. **Automorphisms** — brute-force the label-, predicate- and
   edge-preserving permutations (patterns are tiny; guarded at
   ``MAX_AUTOMORPHISM_NODES``).
3. **Symmetry breaking** (``symmetry="auto"``) — the Grochow–Kellis
   scheme: repeatedly pick the smallest node in a nontrivial orbit,
   emit ``image(v) < image(u)`` for every other node ``u`` in its
   orbit, and restrict to the stabiliser; terminates with the trivial
   group, so each subgraph image is counted exactly once.
4. **Extension order** — greedy connected order from the root:
   always extend with the unplaced node with the most already-placed
   neighbours (ties: higher pattern degree, then lower index).  Every
   step therefore intersects at least one adjacency list.
5. **Per-level intersection steps** — each step records which earlier
   positions to intersect (``sources``), the order filters consuming
   symmetry constraints, the label/predicate filters, whether the step
   is the fused final *count* (no materialisation), and the static
   ``certain`` / ``probed`` split of the remaining positions that lets
   the count be arithmetic on set sizes.

The runtime half (input-aware choices) lives in the executor: sources
are intersected smallest-adjacency-first, once per distinct source
images and bounds, and the kernel backend itself comes from the job
config — compiled plans are backend-agnostic by construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.mining.patterns import PatternValidationError, TreePattern
from repro.plans.query import WILDCARD, PatternQuery

#: Brute-force automorphism guard: 8! = 40320 permutations is cheap,
#: beyond that ``symmetry="none"`` (or explicit orders) is required.
MAX_AUTOMORPHISM_NODES = 8


@dataclass(frozen=True)
class CompiledStep:
    """One extension level of the plan.

    ``node`` is the global pattern index matched at this step; every
    other field addresses *positions* in the extension order (indexes
    into the partial-embedding tuple), so the executor never maps back
    through global indices on the hot path.

    * ``sources`` — positions whose images' adjacency lists are
      intersected to form the candidate set (never empty: the
      extension order is connected);
    * ``greater_than`` / ``less_than`` — positions whose images bound
      the candidate id (consumed symmetry/order constraints);
    * ``label`` — required vertex label, or ``None`` for wildcard;
    * ``predicates`` — ``(op, value)`` attribute filters;
    * ``counting`` — final step: count candidates instead of
      materialising extended embeddings;
    * ``certain`` / ``probed`` — how a structural count
      (``|cands| − |cands ∩ partial|``) decides injectivity without a
      candidate loop: ``certain`` positions are pattern-adjacent to
      *every* source, so their images are certainly in ``∩Γ(sources)``
      and only the integer order bounds remain to compare; ``probed``
      positions are adjacent to some source at most and are looked up
      in the candidate set.  Neither lists a source (the data graph
      has no self-loops, ``v ∉ Γ(v)``, so a source image is never a
      candidate) nor a bound position (its image fails its own strict
      bound): the four groups partition the earlier positions.
      :func:`compile_pattern` derives both; a hand-built step must too.
    """

    node: int
    sources: Tuple[int, ...]
    greater_than: Tuple[int, ...] = ()
    less_than: Tuple[int, ...] = ()
    label: Optional[str] = None
    predicates: Tuple[Tuple[str, int], ...] = ()
    counting: bool = False
    certain: Tuple[int, ...] = ()
    probed: Tuple[int, ...] = ()


@dataclass(frozen=True)
class ExecutionPlan:
    """A compiled pattern: extension order plus per-level steps.

    ``order[p]`` is the global pattern node matched at position ``p``
    (``order[0]`` is always the root, node 0).  ``orders`` carries the
    full set of ``image(a) < image(b)`` constraints (derived plus
    explicit, global indices) — the oracle and ``describe()`` read
    them; the steps have already consumed them as position filters.
    """

    query: PatternQuery
    labels: Tuple[str, ...]
    edges: Tuple[Tuple[int, int], ...]
    order: Tuple[int, ...]
    steps: Tuple[CompiledStep, ...]
    orders: Tuple[Tuple[int, int], ...]
    num_automorphisms: int
    name: str = "plan"

    @property
    def num_nodes(self) -> int:
        return len(self.labels)

    @property
    def root_label(self) -> Optional[str]:
        return None if self.labels[0] == WILDCARD else self.labels[0]

    @cached_property
    def root_predicates(self) -> Tuple[Tuple[str, int], ...]:
        return tuple(
            (op, value) for node, op, value in self.query.predicates
            if node == 0
        )

    @cached_property
    def min_root_degree(self) -> int:
        """Pattern degree of the root — a data vertex with fewer
        neighbours cannot host any embedding, so seeding skips it."""
        return sum(1 for a, b in self.edges if a == 0 or b == 0)

    def describe(self) -> str:
        """Human-readable rendering of the plan (docs and debugging)."""
        lines = [
            f"plan {self.name!r}: {self.num_nodes} nodes, "
            f"|Aut| = {self.num_automorphisms}, "
            f"symmetry = {self.query.symmetry}"
        ]
        root = self.root_label or WILDCARD
        lines.append(f"  seed  p0 = v{self.order[0]} label={root}")
        for position, step in enumerate(self.steps, start=1):
            sources = " ∩ ".join(f"Γ(p{q})" for q in step.sources)
            filters = []
            for q in step.greater_than:
                filters.append(f"id > p{q}")
            for q in step.less_than:
                filters.append(f"id < p{q}")
            if step.label is not None:
                filters.append(f"label = {step.label}")
            for op, value in step.predicates:
                filters.append(f"{op} {value}")
            verb = "count" if step.counting else "extend"
            suffix = f"  [{', '.join(filters)}]" if filters else ""
            lines.append(
                f"  {verb} p{position} = v{step.node} ← {sources}{suffix}"
            )
        if self.orders:
            rendered = ", ".join(f"v{a} < v{b}" for a, b in self.orders)
            lines.append(f"  orders: {rendered}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# automorphisms and symmetry breaking
# ----------------------------------------------------------------------


def automorphisms(
    labels: Sequence[str],
    edges: Sequence[Tuple[int, int]],
    predicates: Sequence[Tuple[int, str, int]] = (),
    orders: Sequence[Tuple[int, int]] = (),
) -> List[Tuple[int, ...]]:
    """All label/predicate/edge/order-preserving permutations.

    Explicit order constraints distinguish nodes too: a permutation
    must map the constraint digraph onto itself, otherwise breaking
    symmetry on top of explicit orders would double-restrict.
    """
    k = len(labels)
    if k > MAX_AUTOMORPHISM_NODES:
        raise PatternValidationError([
            ("pattern-too-large",
             f"automatic symmetry breaking supports up to "
             f"{MAX_AUTOMORPHISM_NODES} nodes, got {k}; "
             f"use symmetry='none' or explicit order constraints")
        ])
    edge_set: FrozenSet[Tuple[int, int]] = frozenset(
        (min(a, b), max(a, b)) for a, b in edges
    )
    pred_sets: List[FrozenSet[Tuple[str, int]]] = [frozenset() for _ in range(k)]
    for node, op, value in predicates:
        pred_sets[node] = pred_sets[node] | {(op, value)}
    order_set = frozenset(tuple(o) for o in orders)
    found: List[Tuple[int, ...]] = []
    for perm in itertools.permutations(range(k)):
        if any(labels[perm[i]] != labels[i] for i in range(k)):
            continue
        if any(pred_sets[perm[i]] != pred_sets[i] for i in range(k)):
            continue
        mapped = {(min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in edge_set}
        if mapped != edge_set:
            continue
        if order_set and {(perm[a], perm[b]) for a, b in order_set} != order_set:
            continue
        found.append(perm)
    return found


def break_symmetry(perms: List[Tuple[int, ...]]) -> List[Tuple[int, int]]:
    """Grochow–Kellis symmetry-breaking constraints for an aut group.

    Returns ``(a, b)`` pairs meaning ``image(a) < image(b)``.  Exactly
    one member of each automorphism class of embeddings satisfies all
    of them, so counting constrained embeddings counts subgraph images
    once each.
    """
    constraints: List[Tuple[int, int]] = []
    group = list(perms)
    k = len(group[0]) if group else 0
    for v in range(k):
        if len(group) == 1:
            break
        orbit = {perm[v] for perm in group}
        for u in sorted(orbit - {v}):
            constraints.append((v, u))
        group = [perm for perm in group if perm[v] == v]
    return constraints


def _check_acyclic(orders: Sequence[Tuple[int, int]], k: int) -> None:
    """Reject order-constraint digraphs with cycles (unsatisfiable)."""
    succs: Dict[int, Set[int]] = {i: set() for i in range(k)}
    for a, b in orders:
        succs[a].add(b)
    state = [0] * k  # 0 unvisited, 1 on stack, 2 done
    def visit(node: int) -> bool:
        state[node] = 1
        for nxt in succs[node]:
            if state[nxt] == 1 or (state[nxt] == 0 and visit(nxt)):
                return True
        state[node] = 2
        return False
    for start in range(k):
        if state[start] == 0 and visit(start):
            raise PatternValidationError([
                ("contradictory-order",
                 f"order constraints {sorted(set(orders))!r} contain a cycle")
            ])


# ----------------------------------------------------------------------
# extension order and step construction
# ----------------------------------------------------------------------


def _extension_order(
    k: int, adjacency: Dict[int, Set[int]]
) -> Tuple[int, ...]:
    """Greedy connected extension order starting at the root."""
    order = [0]
    placed = {0}
    while len(order) < k:
        best = None
        best_key = None
        for node in range(k):
            if node in placed:
                continue
            connectivity = len(adjacency[node] & placed)
            if connectivity == 0:
                continue
            key = (connectivity, len(adjacency[node]), -node)
            if best_key is None or key > best_key:
                best, best_key = node, key
        if best is None:  # unreachable for tree-rooted queries
            raise PatternValidationError([
                ("disconnected-pattern",
                 "pattern has a node unreachable from the root")
            ])
        order.append(best)
        placed.add(best)
    return tuple(order)


def compile_pattern(
    query: "PatternQuery | TreePattern",
    *,
    name: Optional[str] = None,
) -> ExecutionPlan:
    """Compile a query (or bare tree pattern) into an execution plan.

    A bare :class:`TreePattern` gets the legacy matcher semantics
    (``symmetry="none"``, sibling permutations counted) via
    :meth:`PatternQuery.from_tree`.
    """
    if isinstance(query, TreePattern):
        query = PatternQuery.from_tree(query)
    if not isinstance(query, PatternQuery):
        raise TypeError(
            "compile_pattern() takes a PatternQuery or TreePattern, "
            f"got {type(query).__name__}"
        )
    query.validate()
    labels = query.node_labels()
    edges = query.all_edges()
    k = len(labels)
    if k < 2:
        raise PatternValidationError([
            ("pattern-too-small",
             "a mineable pattern needs at least two nodes (one edge)")
        ])
    adjacency: Dict[int, Set[int]] = {i: set() for i in range(k)}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)

    constraints: List[Tuple[int, int]] = list(query.orders)
    num_auts = 1
    if query.symmetry == "auto":
        perms = automorphisms(labels, edges, query.predicates, query.orders)
        num_auts = len(perms)
        constraints.extend(break_symmetry(perms))
    all_orders = tuple(sorted(set(constraints)))
    _check_acyclic(all_orders, k)

    order = _extension_order(k, adjacency)
    position_of = {node: position for position, node in enumerate(order)}
    node_predicates: Dict[int, List[Tuple[str, int]]] = {i: [] for i in range(k)}
    for node, op, value in query.predicates:
        node_predicates[node].append((op, value))

    steps: List[CompiledStep] = []
    for position in range(1, k):
        node = order[position]
        sources = tuple(
            sorted(position_of[other] for other in adjacency[node]
                   if position_of[other] < position)
        )
        greater_than = tuple(
            sorted(position_of[a] for a, b in all_orders
                   if b == node and position_of[a] < position)
        )
        less_than = tuple(
            sorted(position_of[b] for a, b in all_orders
                   if a == node and position_of[b] < position)
        )
        label = None if labels[node] == WILDCARD else labels[node]
        undecided = [
            q for q in range(position)
            if q not in sources and q not in greater_than and q not in less_than
        ]
        certain = tuple(
            q for q in undecided
            if all(order[s] in adjacency[order[q]] for s in sources)
        )
        steps.append(CompiledStep(
            node=node,
            sources=sources,
            greater_than=greater_than,
            less_than=less_than,
            label=label,
            predicates=tuple(node_predicates[node]),
            counting=(position == k - 1),
            certain=certain,
            probed=tuple(q for q in undecided if q not in certain),
        ))

    return ExecutionPlan(
        query=query,
        labels=labels,
        edges=edges,
        order=order,
        steps=tuple(steps),
        orders=all_orders,
        num_automorphisms=num_auts,
        name=name or query.name,
    )
