"""Pluggable routing backends over snapshot graphs and CSR edge arrays.

The routing layer is split from its shortest-path kernel by a small protocol,
:class:`RoutingBackend`.  A backend answers single-source (and batched
multi-source) lowest-delay route queries against a *snapshot view* that can
supply the topology in two interchangeable forms:

* a :class:`networkx.Graph` with ``delay_ms`` edge attributes (the classic
  representation, kept for capacity allocation and ad-hoc analysis);
* :class:`EdgeArrays` -- a compressed-sparse-row (CSR) export of the same
  snapshot (``indptr``, ``indices``, ``weights`` plus a :class:`NodeIndex`
  mapping node labels to row numbers), produced zero-copy-where-possible by
  :meth:`repro.network.topology.SnapshotSequence.edge_arrays`.

Two backends ship with the library, registered by name in :data:`BACKENDS`
(mirroring :data:`repro.network.capacity.ALLOCATORS` so scenario definitions
can select them declaratively):

``networkx``
    The reference backend: :func:`networkx.single_source_dijkstra` over the
    graph view.  Result-identical to the pre-backend routing layer.

``csgraph``
    The array-native hot path: one :func:`scipy.sparse.csgraph.dijkstra` call
    covers *all* requested sources over the CSR view, and paths are
    reconstructed lazily from the predecessor matrix -- a route query for a
    destination nobody asks about costs nothing.  Produces the same
    reachability, latencies (to float round-off) and -- shortest paths being
    unique on continuous-geometry topologies -- the same paths as the
    reference backend, at a fraction of the per-step cost.

Because :class:`EdgeArrays` and :class:`SnapshotEdgeList` are plain numpy
containers they pickle cheaply (unlike :class:`networkx.Graph`), which is
what lets :meth:`repro.network.simulation.NetworkSimulator.run_scenarios`
fan a sweep out to a real :class:`concurrent.futures.ProcessPoolExecutor`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar, NamedTuple, Sequence

import networkx as nx
import numpy as np

__all__ = [
    "RouteResult",
    "NodeIndex",
    "EdgeArrays",
    "SnapshotEdgeList",
    "LinkLookup",
    "RoutingBackend",
    "NetworkXBackend",
    "CSGraphBackend",
    "BACKENDS",
    "get_backend",
    "bulk_path_rows_many",
    "edge_arrays_from_graph",
    "graph_from_edge_arrays",
]


@dataclass(frozen=True)
class RouteResult:
    """A routed path and its figures of merit."""

    path: tuple[int | str, ...]
    latency_ms: float
    hop_count: int
    reachable: bool
    #: Row-index form of ``path`` into the snapshot's array views, set by
    #: array-native backends whose reconstruction already works in rows.
    #: Downstream array consumers (the array-native capacity allocators)
    #: read it to skip the label round-trip; it never affects equality, so
    #: backends with and without it still compare route-equal.
    path_rows: tuple[int, ...] | None = field(default=None, compare=False, repr=False)

    @classmethod
    def unreachable(cls) -> "RouteResult":
        """Return the sentinel result for an unreachable destination."""
        return cls(path=(), latency_ms=float("inf"), hop_count=0, reachable=False)


@dataclass(frozen=True)
class NodeIndex:
    """Bidirectional mapping between node labels and CSR row numbers.

    Satellite nodes are integers and ground stations are ``"gs:<name>"``
    strings, exactly as in the graph view; row numbers follow the order of
    ``labels``.
    """

    labels: tuple

    @cached_property
    def _positions(self) -> dict:
        return {label: index for index, label in enumerate(self.labels)}

    def index_of(self, label) -> int | None:
        """Return the CSR row of a node label, or ``None`` if unknown."""
        return self._positions.get(label)

    def label_of(self, index: int):
        """Return the node label of a CSR row."""
        return self.labels[index]

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label) -> bool:
        return label in self._positions


class EdgeArrays(NamedTuple):
    """CSR export of one topology snapshot, weighted by ``delay_ms``.

    The canonical array form consumed by array-native backends: row ``i`` of
    the implied ``(n, n)`` sparse matrix holds the out-links of node
    ``node_index.label_of(i)``; the matrix is explicitly symmetric (both
    directions of every undirected link are stored), so consumers should
    treat it as a directed graph and skip any symmetrisation pass.
    """

    indptr: np.ndarray  # (n_nodes + 1,)
    indices: np.ndarray  # (nnz,)
    weights: np.ndarray  # (nnz,) delay_ms
    node_index: NodeIndex

    @property
    def node_count(self) -> int:
        """Number of nodes (rows) of the snapshot."""
        return len(self.node_index)

    def matrix(self):
        """Return the snapshot as a :class:`scipy.sparse.csr_matrix`."""
        csr_matrix = _require_scipy().csr_matrix
        n = self.node_count
        return csr_matrix((self.weights, self.indices, self.indptr), shape=(n, n))


def _csr_from_undirected(
    a: np.ndarray, b: np.ndarray, weights: np.ndarray, node_count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build symmetric CSR arrays from undirected edge endpoint arrays."""
    u = np.concatenate([a, b])
    v = np.concatenate([b, a])
    w = np.concatenate([weights, weights])
    order = np.argsort(u, kind="stable")
    counts = np.bincount(u, minlength=node_count)
    indptr = np.zeros(node_count + 1, dtype=np.intp)
    np.cumsum(counts, out=indptr[1:])
    return indptr, v[order], w[order]


@dataclass(frozen=True)
class SnapshotEdgeList:
    """Flat, picklable record of one snapshot's links.

    The shareable sibling of the graph view: plain numpy endpoint/attribute
    arrays plus the label table, cheap to pickle across process boundaries
    (a :class:`networkx.Graph` of the same snapshot costs an order of
    magnitude more to serialise).  ``a``/``b`` are row numbers into
    ``labels``; each undirected link appears exactly once.
    """

    labels: tuple
    a: np.ndarray  # (E,) node rows
    b: np.ndarray  # (E,) node rows
    distance_km: np.ndarray  # (E,)
    delay_ms: np.ndarray  # (E,)
    capacity_gbps: np.ndarray  # (E,)

    @cached_property
    def node_index(self) -> NodeIndex:
        """Label table shared by every array view of this snapshot."""
        return NodeIndex(self.labels)

    @property
    def nbytes(self) -> int:
        """Bytes held by the per-step edge arrays (label table excluded).

        The observability layer gauges this per step
        (``gauges["edge_list_bytes"]``), so a sweep's metrics show where
        snapshot memory goes as constellations scale.
        """
        return int(
            self.a.nbytes
            + self.b.nbytes
            + self.distance_km.nbytes
            + self.delay_ms.nbytes
            + self.capacity_gbps.nbytes
        )

    def arrays(self) -> EdgeArrays:
        """Return the CSR routing view (``delay_ms`` weighted)."""
        indptr, indices, weights = _csr_from_undirected(
            self.a, self.b, self.delay_ms, len(self.labels)
        )
        return EdgeArrays(indptr, indices, weights, self.node_index)

    def graph(self) -> nx.Graph:
        """Return the snapshot as a :class:`networkx.Graph`.

        Nodes carry no topology attributes (``plane``/``slot``/``kind`` live
        on the sequence's own graph stream); edges carry the full
        ``distance_km`` / ``delay_ms`` / ``capacity_gbps`` attribute set, so
        the graph serves both routing and capacity allocation.
        """
        graph = nx.Graph()
        graph.add_nodes_from(self.labels)
        for a, b, distance, delay, capacity in zip(
            self.a.tolist(),
            self.b.tolist(),
            self.distance_km.tolist(),
            self.delay_ms.tolist(),
            self.capacity_gbps.tolist(),
        ):
            graph.add_edge(
                self.labels[a],
                self.labels[b],
                distance_km=distance,
                delay_ms=delay,
                capacity_gbps=capacity,
            )
        return graph


class LinkLookup:
    """One snapshot's links in sorted-code order, with a node-pair lookup.

    Each undirected link is encoded as ``min(a, b) * n + max(a, b)`` over
    endpoint rows; ``codes`` holds those codes ascending and ``order[k]`` is
    the edge-list row of sorted position ``k``, so sorted positions number
    links exactly as :func:`np.unique` over their codes would.
    :meth:`positions` maps hop endpoint arrays to sorted positions through a
    CSR matrix holding ``position + 1`` at ``[min, max]``: O(E) memory per
    snapshot (never a nodes x nodes table) and one compiled search within
    a row per hop, with no sort over the hops.  A link stored twice in the
    edge list resolves to its first sorted position.
    """

    __slots__ = ("node_count", "codes", "order", "_pairs")

    def __init__(self, edge_list: "SnapshotEdgeList"):
        node_count = len(edge_list.labels)
        self.node_count = node_count
        lo = np.minimum(edge_list.a, edge_list.b).astype(np.intp)
        hi = np.maximum(edge_list.a, edge_list.b).astype(np.intp)
        codes = lo * node_count + hi
        order = np.argsort(codes)
        self.codes = codes[order]
        self.order = order
        first = np.ones(order.size, dtype=bool)
        first[1:] = self.codes[1:] != self.codes[:-1]
        stored = np.flatnonzero(first)
        row_of = lo[order[stored]]
        indptr = np.zeros(node_count + 1, dtype=np.intp)
        np.cumsum(np.bincount(row_of, minlength=node_count), out=indptr[1:])
        self._pairs = _require_scipy().csr_matrix(
            (stored + 1, hi[order[stored]], indptr), shape=(node_count, node_count)
        )

    def positions(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Sorted position of the link between rows ``u[i]`` and ``v[i]``.

        Reads ``-1`` where the snapshot has no such link, including rows
        outside ``[0, node_count)``.
        """
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        if not lo.size:
            return np.empty(0, dtype=np.intp)
        if lo.min() < 0 or hi.max() >= self.node_count:
            valid = (lo >= 0) & (hi < self.node_count)
            positions = np.full(lo.size, -1, dtype=np.intp)
            positions[valid] = self.positions(lo[valid], hi[valid])
            return positions
        return np.asarray(self._pairs[lo, hi], dtype=np.intp).reshape(-1) - 1


def edge_arrays_from_graph(graph: nx.Graph, weight: str = "delay_ms") -> EdgeArrays:
    """Export a snapshot graph to CSR edge arrays.

    Fallback for routers handed a plain graph (hand-built fixtures, external
    callers): snapshot-sequence consumers get their arrays straight from
    :meth:`repro.network.topology.SnapshotSequence.edge_arrays` without ever
    touching per-edge Python iteration.
    """
    node_index = NodeIndex(tuple(graph.nodes))
    edge_count = graph.number_of_edges()
    a = np.empty(edge_count, dtype=np.intp)
    b = np.empty(edge_count, dtype=np.intp)
    weights = np.empty(edge_count)
    for row, (u, v, value) in enumerate(graph.edges(data=weight)):
        a[row] = node_index.index_of(u)
        b[row] = node_index.index_of(v)
        weights[row] = value
    indptr, indices, data = _csr_from_undirected(a, b, weights, len(node_index))
    return EdgeArrays(indptr, indices, data, node_index)


def graph_from_edge_arrays(arrays: EdgeArrays) -> nx.Graph:
    """Build a routing-view graph (``delay_ms`` edges only) from CSR arrays."""
    labels = arrays.node_index.labels
    graph = nx.Graph()
    graph.add_nodes_from(labels)
    indptr, indices, weights = arrays.indptr, arrays.indices, arrays.weights
    for row in range(arrays.node_count):
        for position in range(int(indptr[row]), int(indptr[row + 1])):
            column = int(indices[position])
            if row < column:
                graph.add_edge(
                    labels[row], labels[column], delay_ms=float(weights[position])
                )
    return graph


def _require_scipy():
    """Import :mod:`scipy.sparse` lazily with an actionable error message."""
    try:
        import scipy.sparse as sparse
    except ImportError as error:  # pragma: no cover - scipy ships with the toolchain
        raise ImportError(
            "the 'csgraph' routing backend requires scipy; install scipy or "
            "select backend='networkx'"
        ) from error
    return sparse


class _PredecessorRoutes(Mapping):
    """Lazily reconstructed single-source routes of one Dijkstra row.

    Behaves like the dict produced by the networkx backend -- keys are the
    reachable destinations, values are :class:`RouteResult` -- but each path
    is rebuilt from the predecessor row only when first requested, so asking
    for a handful of station-to-station routes out of an N-node snapshot
    pays for exactly those paths.
    """

    def __init__(
        self,
        node_index: NodeIndex,
        distances: np.ndarray,
        predecessors: np.ndarray,
        source_row: int,
    ):
        self._node_index = node_index
        self._distances = distances
        self._predecessors = predecessors
        self._source_row = source_row
        self._reachable = np.flatnonzero(np.isfinite(distances))
        self._built: dict = {}

    @property
    def node_index(self) -> NodeIndex:
        """Label table of the snapshot this route table was solved on."""
        return self._node_index

    def bulk_path_rows(
        self, dest_rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised path export for a batch of destination rows.

        Returns ``(offsets, rows_buffer, latency_ms)``: path ``i`` occupies
        ``rows_buffer[offsets[i]:offsets[i + 1]]`` (source first, destination
        last -- identical rows to :meth:`_reconstruct`) and has latency
        ``latency_ms[i]``.  Unreachable or unknown destinations (negative
        row, non-finite distance) get an empty segment and ``inf`` latency.

        The predecessor walk runs layer-by-layer over the whole batch --
        every pending destination steps one hop per iteration -- so the
        Python-level work is O(longest path), not O(total rows).
        """
        dest_rows = np.asarray(dest_rows, dtype=np.intp)
        return bulk_path_rows_many(
            [self], np.zeros(dest_rows.size, dtype=np.intp), dest_rows
        )

    def _reconstruct(self, row: int) -> RouteResult:
        path_rows = [row]
        while path_rows[-1] != self._source_row:
            path_rows.append(int(self._predecessors[path_rows[-1]]))
        path_rows.reverse()
        label_of = self._node_index.label_of
        return RouteResult(
            path=tuple(label_of(node) for node in path_rows),
            latency_ms=float(self._distances[row]),
            hop_count=len(path_rows) - 1,
            reachable=True,
            path_rows=tuple(path_rows),
        )

    def __getitem__(self, destination) -> RouteResult:
        result = self._built.get(destination)
        if result is not None:
            return result
        row = self._node_index.index_of(destination)
        if row is None or not np.isfinite(self._distances[row]):
            raise KeyError(destination)
        result = self._reconstruct(int(row))
        self._built[destination] = result
        return result

    def __iter__(self) -> Iterator:
        label_of = self._node_index.label_of
        return (label_of(int(row)) for row in self._reachable)

    def __len__(self) -> int:
        return len(self._reachable)


def bulk_path_rows_many(
    tables: Sequence, group_of: np.ndarray, dest_rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One layer walk over many sources' predecessor rows at once.

    ``tables`` are per-source route tables solved on the *same* snapshot
    (the :class:`_PredecessorRoutes` the csgraph backend hands out); query
    ``i`` walks table ``tables[group_of[i]]`` toward row ``dest_rows[i]``.
    Negative ``group_of`` or ``dest_rows`` entries mark unknown sources or
    destinations and yield an empty segment with ``inf`` latency, exactly
    like :meth:`_PredecessorRoutes.bulk_path_rows`.

    Returns ``(offsets, rows_buffer, latency_ms)`` in query order: path
    ``i`` occupies ``rows_buffer[offsets[i]:offsets[i + 1]]`` (source
    first, destination last).  Every source's predecessor row is stacked
    into one flat ``(sources x nodes)`` successor table, so one walk
    advances *all* queries one hop per iteration and the Python-level work
    is O(longest path) across the whole batch.  The walk carries compacted
    arrays of the still-pending queries only -- each layer is one gather
    through the table and drops the queries whose source it reached -- so
    its numpy work is O(total hops), not O(queries x longest path).  Each
    recorded layer is then scattered into the buffer at a fixed distance
    from its segments' ends.
    """
    group_of = np.asarray(group_of, dtype=np.intp)
    dest_rows = np.asarray(dest_rows, dtype=np.intp)
    count = dest_rows.size
    latency = np.full(count, np.inf)
    lengths = np.zeros(count, dtype=np.intp)
    if not tables:
        return np.zeros(count + 1, dtype=np.intp), np.empty(0, dtype=np.intp), latency
    node_count = tables[0]._distances.size
    distances = np.concatenate([table._distances for table in tables])
    # Flat (sources x nodes) successor table of the walk: the flat position
    # of each node's predecessor in the same source's row, -1 at the source
    # itself (csgraph marks it with a negative predecessor).
    predecessors = np.stack([table._predecessors for table in tables]).astype(np.intp)
    row_starts = np.arange(len(tables), dtype=np.intp)[:, None] * node_count
    step = np.where(predecessors >= 0, predecessors + row_starts, -1).ravel()
    pending = np.flatnonzero((group_of >= 0) & (dest_rows >= 0))
    cursor = group_of[pending] * node_count + dest_rows[pending]
    found = distances[cursor]
    reachable = np.isfinite(found)
    pending, cursor = pending[reachable], cursor[reachable]
    latency[pending] = found[reachable]
    # Layer k records the flat position k hops before each pending query's
    # destination; a query leaves the compacted arrays once its layer held
    # its source, so lengths[i] is the number of layers that recorded it.
    layer_queries: list[np.ndarray] = []
    layer_cursors: list[np.ndarray] = []
    while pending.size:
        layer_queries.append(pending)
        layer_cursors.append(cursor)
        cursor = step[cursor]
        moving = cursor >= 0
        if not moving.all():
            lengths[pending[~moving]] = len(layer_cursors)
            pending, cursor = pending[moving], cursor[moving]
    offsets = np.zeros(count + 1, dtype=np.intp)
    np.cumsum(lengths, out=offsets[1:])
    buffer = np.empty(int(offsets[-1]), dtype=np.intp)
    # The node of layer k sits k + 1 places before its segment's end (the
    # destination last, the source first).
    ends = offsets[1:]
    for back, (queries, cursors) in enumerate(zip(layer_queries, layer_cursors), 1):
        buffer[ends[queries] - back] = cursors % node_count
    return offsets, buffer, latency


class RoutingBackend(ABC):
    """Shortest-path kernel behind :class:`repro.network.routing.SnapshotRouter`.

    A backend receives the router as its snapshot view and pulls whichever
    representation it prefers: :meth:`~repro.network.routing.SnapshotRouter.nx_graph`
    or :meth:`~repro.network.routing.SnapshotRouter.edge_arrays` (both are
    built lazily from the other form when not supplied).  Implementations
    must be stateless -- one shared instance serves every router, thread and
    worker process.
    """

    #: Registry name of the backend.
    name: ClassVar[str]
    #: Whether the backend routes on :class:`EdgeArrays` (``True``) or on the
    #: graph view (``False``); snapshot producers use this to skip building
    #: the representation nobody will read.
    uses_arrays: ClassVar[bool] = False

    @abstractmethod
    def routes_from(self, router, source) -> Mapping:
        """Return ``{destination: RouteResult}`` for every reachable node."""

    def routes_from_many(self, router, sources: Sequence) -> dict:
        """Batched :meth:`routes_from`; backends may fuse the searches."""
        return {source: self.routes_from(router, source) for source in sources}

    def route(self, router, source, destination) -> RouteResult:
        """Return the minimum-delay route between two nodes."""
        result = self.routes_from(router, source).get(destination)
        return result if result is not None else RouteResult.unreachable()


class NetworkXBackend(RoutingBackend):
    """Reference backend: pure-python Dijkstra over the graph view."""

    name = "networkx"
    uses_arrays = False

    def routes_from(self, router, source) -> dict:
        graph = router.nx_graph()
        if source not in graph:
            return {}
        distances, paths = nx.single_source_dijkstra(graph, source, weight="delay_ms")
        return {
            destination: RouteResult(
                path=tuple(path),
                latency_ms=float(distances[destination]),
                hop_count=len(path) - 1,
                reachable=True,
            )
            for destination, path in paths.items()
        }

    def route(self, router, source, destination) -> RouteResult:
        graph = router.nx_graph()
        if source not in graph or destination not in graph:
            return RouteResult.unreachable()
        try:
            path = nx.shortest_path(graph, source, destination, weight="delay_ms")
        except nx.NetworkXNoPath:
            return RouteResult.unreachable()
        latency = sum(
            graph.edges[path[index], path[index + 1]]["delay_ms"]
            for index in range(len(path) - 1)
        )
        return RouteResult(
            path=tuple(path),
            latency_ms=latency,
            hop_count=len(path) - 1,
            reachable=True,
        )


class CSGraphBackend(RoutingBackend):
    """Array-native backend: :func:`scipy.sparse.csgraph.dijkstra` over CSR.

    All requested sources of one batch are solved in a single compiled
    multi-source call, and per-destination paths are reconstructed lazily
    from the predecessor matrix.
    """

    name = "csgraph"
    uses_arrays = True

    def routes_from_many(self, router, sources: Sequence) -> dict:
        arrays = router.edge_arrays()
        node_index = arrays.node_index
        resolved = [(source, node_index.index_of(source)) for source in sources]
        rows = [row for _, row in resolved if row is not None]
        tables: dict = {}
        if rows:
            sparse = _require_scipy()
            distances, predecessors = sparse.csgraph.dijkstra(
                arrays.matrix(),
                directed=True,  # the CSR export is explicitly symmetric
                indices=rows,
                return_predecessors=True,
            )
            cursor = 0
            for source, row in resolved:
                if row is None:
                    continue
                tables[source] = _PredecessorRoutes(
                    node_index, distances[cursor], predecessors[cursor], int(row)
                )
                cursor += 1
        for source, row in resolved:
            if row is None:
                tables[source] = {}
        return tables

    def routes_from(self, router, source) -> Mapping:
        return self.routes_from_many(router, [source])[source]


#: Routing backends addressable by name (scenario definitions use these),
#: mirroring :data:`repro.network.capacity.ALLOCATORS`.
BACKENDS: dict[str, RoutingBackend] = {
    backend.name: backend for backend in (NetworkXBackend(), CSGraphBackend())
}


def get_backend(backend: "str | RoutingBackend") -> RoutingBackend:
    """Resolve a backend instance or registry name to a backend instance."""
    if isinstance(backend, RoutingBackend):
        return backend
    try:
        return BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown routing backend {backend!r}; available: {sorted(BACKENDS)}"
        ) from None
