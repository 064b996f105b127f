"""Core graph structure.

A :class:`Graph` stores, per vertex: an integer ID, a sorted adjacency
tuple ``Γ(v)``, an optional label (single character/str, used by graph
matching) and an optional attribute tuple ``a(v)`` (used by community
detection and clustering).  This mirrors the paper's vertex state
``(id(v), Γ(v), a(v))`` (§4, graph notations).

Adjacency is undirected and deduplicated; self-loops are dropped at
construction.  Vertices are exposed both in bulk (for partitioners and
generators) and as :class:`VertexData` records (the unit that G-Miner
workers pull over the network), with a byte-size estimate used by the
memory and network cost models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro import kernels

#: Estimated bytes per vertex-ID / per attribute element in serialised
#: form; used uniformly by the memory gauge and the network model.
ID_BYTES = 8
LABEL_BYTES = 4
ATTR_BYTES = 8
VERTEX_OVERHEAD_BYTES = 16


@dataclass(frozen=True)
class VertexData:
    """The transferable state of one vertex: ``(id, Γ(v), label, a(v))``.

    This is what a remote pull returns and what the RCV cache stores.
    """

    vid: int
    neighbors: Tuple[int, ...]
    label: Optional[str] = None
    attributes: Tuple[int, ...] = ()

    @property
    def degree(self) -> int:
        return len(self.neighbors)

    def neighbors_array(self) -> Any:
        """Γ(v) as a kernel-backend array handle: the vertex's one
        cached handle, rebuilt only when the active backend differs.

        The handle feeds :mod:`repro.kernels` set operations directly,
        so tasks probing the same pulled vertex repeatedly (every seed
        whose neighbourhood overlaps) skip the per-call conversion.
        """
        backend = kernels.get_backend()
        cached = self.__dict__.get("_neighbors_array")
        if cached is not None and cached[0] == backend:
            return cached[1]
        arr = kernels.as_array(self.neighbors)
        object.__setattr__(self, "_neighbors_array", (backend, arr))
        return arr

    def estimate_size(self) -> int:
        """Serialised size estimate in bytes (network/memory cost model)."""
        size = VERTEX_OVERHEAD_BYTES + ID_BYTES * (1 + len(self.neighbors))
        if self.label is not None:
            size += LABEL_BYTES
        size += ATTR_BYTES * len(self.attributes)
        return size


class Graph:
    """Undirected graph with optional labels and attributes."""

    def __init__(self) -> None:
        self._adj: Dict[int, Tuple[int, ...]] = {}
        self._labels: Dict[int, str] = {}
        self._attrs: Dict[int, Tuple[int, ...]] = {}
        # one VertexData per vertex (see vertex_data); a label or
        # attribute change drops that vertex's entry
        self._vertex_data: Dict[int, VertexData] = {}

    def __getstate__(self) -> Dict[str, Any]:
        """Pickle the graph without its vertex memo, so a warm graph
        pickles to the same bytes as a cold one.  The empty
        ``_adj_views`` entry keeps the bytes of the earlier format,
        whose graphs carried a per-backend view cache under that key."""
        return {
            "_adj": self._adj,
            "_labels": self._labels,
            "_attrs": self._attrs,
            "_adj_views": {},
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self._adj = state["_adj"]
        self._labels = state["_labels"]
        self._attrs = state["_attrs"]
        self._vertex_data = {}

    # -- construction -------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[int, int]],
        vertices: Optional[Iterable[int]] = None,
    ) -> "Graph":
        """Build from an edge list (undirected, self-loops dropped)."""
        neighbor_sets: Dict[int, set] = {}
        if vertices is not None:
            for v in vertices:
                neighbor_sets.setdefault(v, set())
        for u, v in edges:
            if u == v:
                continue
            neighbor_sets.setdefault(u, set()).add(v)
            neighbor_sets.setdefault(v, set()).add(u)
        graph = cls()
        graph._adj = {v: tuple(sorted(ns)) for v, ns in neighbor_sets.items()}
        return graph

    @classmethod
    def from_adjacency(cls, adj: Dict[int, Sequence[int]]) -> "Graph":
        """Build from an adjacency mapping; symmetrised and deduplicated."""
        edges = [(u, v) for u, ns in adj.items() for v in ns]
        return cls.from_edges(edges, vertices=adj.keys())

    def set_label(self, vid: int, label: str) -> None:
        """Attach a mining label (graph matching) to a vertex."""
        self._require(vid)
        self._labels[vid] = label
        self._vertex_data.pop(vid, None)

    def set_labels(self, labels: Dict[int, str]) -> None:
        """Attach labels in bulk."""
        for vid, label in labels.items():
            self.set_label(vid, label)

    def set_attributes(self, vid: int, attributes: Sequence[int]) -> None:
        """Attach an attribute list ``a(v)`` to a vertex."""
        self._require(vid)
        self._attrs[vid] = tuple(attributes)
        self._vertex_data.pop(vid, None)

    def set_all_attributes(self, attrs: Dict[int, Sequence[int]]) -> None:
        """Attach attribute lists in bulk."""
        for vid, a in attrs.items():
            self.set_attributes(vid, a)

    def _require(self, vid: int) -> None:
        if vid not in self._adj:
            raise KeyError(f"vertex {vid} not in graph")

    # -- accessors -----------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """|V|."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """|E| (undirected edges)."""
        return sum(len(ns) for ns in self._adj.values()) // 2

    def vertices(self) -> Iterator[int]:
        """Vertex ids in ascending order."""
        return iter(sorted(self._adj))

    def has_vertex(self, vid: int) -> bool:
        """True when ``vid`` is a vertex of this graph."""
        return vid in self._adj

    def has_edge(self, u: int, v: int) -> bool:
        """True when the undirected edge (u, v) exists."""
        ns = self._adj.get(u)
        if ns is None:
            return False
        # adjacency tuples are sorted; use binary search for large lists
        import bisect

        i = bisect.bisect_left(ns, v)
        return i < len(ns) and ns[i] == v

    def neighbors(self, vid: int) -> Tuple[int, ...]:
        """Γ(v): the sorted adjacency tuple of ``vid``."""
        self._require(vid)
        return self._adj[vid]

    def degree(self, vid: int) -> int:
        """|Γ(v)|."""
        self._require(vid)
        return len(self._adj[vid])

    def max_degree(self) -> int:
        """The largest vertex degree (0 for an empty graph)."""
        if not self._adj:
            return 0
        return max(len(ns) for ns in self._adj.values())

    def avg_degree(self) -> float:
        """Mean vertex degree, 2|E|/|V|."""
        if not self._adj:
            return 0.0
        return 2.0 * self.num_edges / self.num_vertices

    def label(self, vid: int) -> Optional[str]:
        """The vertex's label, or None when unlabelled."""
        return self._labels.get(vid)

    def attributes(self, vid: int) -> Tuple[int, ...]:
        """The vertex's attribute list ``a(v)`` (empty when absent)."""
        return self._attrs.get(vid, ())

    @property
    def is_attributed(self) -> bool:
        """True when any vertex carries attributes."""
        return bool(self._attrs)

    @property
    def is_labeled(self) -> bool:
        """True when any vertex carries a label."""
        return bool(self._labels)

    def attribute_dimensions(self) -> int:
        """Number of distinct attribute values used (|Attr| in Table 2)."""
        values = set()
        for attrs in self._attrs.values():
            values.update(attrs)
        return len(values)

    def vertex_data(self, vid: int) -> VertexData:
        """A vertex's full transferable state, one record per vertex.

        Memoised for the graph's lifetime, so the record's per-backend
        ``neighbors_array()`` handle is converted once and then shared
        by every task, job and forked pool worker that reads the vertex.
        """
        data = self._vertex_data.get(vid)
        if data is None:
            self._require(vid)
            data = VertexData(
                vid=vid,
                neighbors=self._adj[vid],
                label=self._labels.get(vid),
                attributes=self._attrs.get(vid, ()),
            )
            self._vertex_data[vid] = data
        return data

    def estimate_size(self) -> int:
        """Serialised size estimate of the whole graph in bytes."""
        return sum(self.vertex_data(v).estimate_size() for v in self._adj)

    def fingerprint(self) -> str:
        """Stable content hash of the full graph state.

        Covers adjacency, labels and attributes, so any two graphs with
        the same fingerprint produce identical partition assignments
        and mining results; used as a build-cache key component.
        """
        import hashlib

        h = hashlib.sha256()
        for v in sorted(self._adj):
            h.update(str(v).encode())
            h.update(b"|")
            h.update(",".join(map(str, self._adj[v])).encode())
            label = self._labels.get(v)
            if label is not None:
                h.update(b"L" + str(label).encode())
            attrs = self._attrs.get(v)
            if attrs:
                h.update(b"A" + ",".join(map(str, attrs)).encode())
            h.update(b"\n")
        return h.hexdigest()[:24]

    # -- transformations -----------------------------------------------

    def subgraph(self, vertex_ids: Iterable[int]) -> "Graph":
        """Induced subgraph on ``vertex_ids`` (labels/attrs carried over)."""
        keep = set(vertex_ids)
        sub = Graph()
        sub._adj = {
            v: tuple(n for n in self._adj[v] if n in keep)
            for v in keep
            if v in self._adj
        }
        sub._labels = {v: l for v, l in self._labels.items() if v in keep}
        sub._attrs = {v: a for v, a in self._attrs.items() if v in keep}
        return sub

    def relabeled(self) -> Tuple["Graph", Dict[int, int]]:
        """Return a copy with vertices renumbered 0..n-1, plus the mapping."""
        mapping = {vid: i for i, vid in enumerate(sorted(self._adj))}
        out = Graph()
        out._adj = {
            mapping[v]: tuple(sorted(mapping[n] for n in ns))
            for v, ns in self._adj.items()
        }
        out._labels = {mapping[v]: l for v, l in self._labels.items()}
        out._attrs = {mapping[v]: a for v, a in self._attrs.items()}
        return out, mapping

    def __repr__(self) -> str:
        return (
            f"Graph(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"labeled={self.is_labeled}, attributed={self.is_attributed})"
        )
