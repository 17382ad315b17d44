"""Array-native capacity allocation over a (flow x link) incidence matrix.

The dict allocators of :mod:`repro.network.capacity` walk per-flow python
structures on every progressive-filling round, which made allocation the
dominant pure-python cost of large congested sweeps once routing went
array-native.  This module compiles a step's routed flows into the sparse
incidence form of the same problem and runs the identical fixed points as
whole-array numpy operations:

* ``demand`` -- per-flow demand vector, shape ``(F,)``;
* ``capacity`` -- per-link capacity vector, shape ``(L,)``, one entry per
  distinct undirected link any flow traverses;
* the 0/1 incidence matrix ``A`` of shape ``(F, L)`` (``A[f, l] = 1`` iff
  flow ``f`` traverses link ``l``), held in COO form as the parallel index
  arrays ``flow_ids`` / ``link_ids`` -- one entry per traversal.

Every quantity of the allocators is then a sparse matrix-vector product:
link loads are ``A.T @ rates`` (``np.bincount`` over ``link_ids`` weighted
by ``rates[flow_ids]``), per-link unfrozen-flow counts are ``A.T @ active``
(kept as integers and decremented as flows freeze), and "flows touching a
saturated link" is ``A @ saturated > 0`` (a boolean scatter).  Max-min
progressive filling becomes a waterfilling fixed point: the uniform
increment is the minimum over links of headroom over active-flow count
(and over flows of remaining demand), frozen flows are boolean masks, and
the loop runs until the active mask empties -- at least one flow freezes
per round, so no iteration cap is needed.

Two compilation paths produce identical systems:

* the **index path** engages when the capacity view exposes a
  :class:`~repro.network.backends.SnapshotEdgeList` (as the simulator's
  per-step capacity views do) and every flow carries
  :attr:`~repro.network.capacity.Flow.path_rows` -- the row-index paths an
  array-native routing backend reconstructs from its predecessor matrix.
  Each hop is matched to its link through a per-snapshot node-pair
  lookup (:class:`~repro.network.backends.LinkLookup`) and links are
  numbered by a rank over the used ones, entirely in numpy -- no sort over
  the hops, and no python tuple or string-ordered key in sight;
* the **graph path** handles any ``networkx``-style graph and label-only
  flows, walking each flow's links once (the same per-link python work the
  dict allocators' setup does) before the vectorised fixed point.

The allocators register themselves in
:data:`repro.network.capacity.ALLOCATORS` as ``"proportional_array"`` and
``"max_min_array"`` and return the same :class:`AllocationResult` structure
as the references -- rates within 1e-9 and identical (normalised) link
keys -- so they are drop-in scenario policies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .backends import LinkLookup, SnapshotEdgeList
from .capacity import ALLOCATORS, AllocationResult, Flow, _link_key

__all__ = [
    "FlowLinkSystem",
    "compile_flow_link_system",
    "compile_system_from_rows",
    "allocate_proportional_array",
    "allocate_max_min_array",
    "ARRAY_SOLVERS",
]


@dataclass(frozen=True)
class FlowLinkSystem:
    """One allocation problem in compiled (flow x link) incidence form.

    ``flow_names`` and ``link_keys`` are the label-space identities needed
    to build an :class:`AllocationResult` dict; the columnar flow engine
    compiles nameless systems (``None``) and reads the rate/utilisation
    vectors directly, so it never pays for per-flow or per-link labels.
    """

    flow_names: "tuple[str, ...] | None"
    #: Per-flow demand vector, shape ``(F,)``.
    demand: np.ndarray
    #: Per-link capacity vector, shape ``(L,)``.
    capacity: np.ndarray
    #: COO rows of the incidence matrix: flow of each traversal, ``(nnz,)``.
    flow_ids: np.ndarray
    #: COO columns of the incidence matrix: link of each traversal, ``(nnz,)``.
    link_ids: np.ndarray
    #: Normalised label-space key of every link, for :class:`AllocationResult`.
    link_keys: "tuple[tuple, ...] | None"
    #: Edge-list row of every link (``None`` on the graph compile path):
    #: ``link_rows[l]`` is the row of link ``l`` in the snapshot's
    #: :class:`SnapshotEdgeList`, letting per-link outputs scatter straight
    #: into link-index order for feedback consumers (congestion steering,
    #: link telemetry) with no label round-trip.
    link_rows: "np.ndarray | None" = field(default=None, compare=False)

    @property
    def flow_count(self) -> int:
        return len(self.demand)

    @property
    def link_count(self) -> int:
        return len(self.capacity)

    @property
    def nbytes(self) -> int:
        """Bytes held by the compiled incidence arrays (labels excluded).

        The observability layer gauges this per allocation
        (``gauges["incidence_bytes"]``): the COO traversal arrays are the
        allocation stage's dominant allocation, scaling with total path
        length rather than flow count.
        """
        total = (
            self.demand.nbytes
            + self.capacity.nbytes
            + self.flow_ids.nbytes
            + self.link_ids.nbytes
        )
        if self.link_rows is not None:
            total += self.link_rows.nbytes
        return int(total)

    def link_loads(self, rates: np.ndarray) -> np.ndarray:
        """Return per-link load ``A.T @ rates``, shape ``(L,)``."""
        return np.bincount(
            self.link_ids, weights=rates[self.flow_ids], minlength=self.link_count
        )

    def flows_touching(self, link_mask: np.ndarray) -> np.ndarray:
        """Return the boolean flow mask ``A @ link_mask > 0``, shape ``(F,)``."""
        touched = np.zeros(self.flow_count, dtype=bool)
        touched[self.flow_ids[link_mask[self.link_ids]]] = True
        return touched

    def link_utilisation_array(
        self, utilisation: np.ndarray, edge_count: int
    ) -> np.ndarray:
        """Scatter a per-system-link vector into edge-list link order.

        Links no flow traverses read 0.0.  Requires the system to have been
        compiled against a :class:`SnapshotEdgeList` (the index paths), which
        is what records :attr:`link_rows`.
        """
        if self.link_rows is None:
            raise ValueError(
                "system was compiled through the graph interface and carries "
                "no edge-list rows"
            )
        out = np.zeros(edge_count)
        out[self.link_rows] = utilisation
        return out


def _missing_link_error(flows: list[Flow], flow_ids: np.ndarray, bad: np.ndarray):
    """Mirror the reference allocators' missing-link ValueError."""
    offender = flows[int(flow_ids[int(np.flatnonzero(bad)[0])])]
    return ValueError(f"flow {offender.name!r} uses a link not present in the graph")


class _EdgeListCompileCache:
    """Per-snapshot constants of the index compile path.

    Everything that depends only on the edge list -- the sorted link table
    and its node-pair lookup (:class:`LinkLookup`), and the capacity column
    in that order -- is computed once and cached on the capacity view, so a
    sweep evaluating many scenarios over one snapshot pays it once.  Whether
    the label table is *row-ordered* (numeric labels form an ascending
    prefix), which lets link keys be emitted as plain
    ``(labels[lo], labels[hi])`` tuples without a per-link :func:`_link_key`
    call, is a per-label scan only link keys need, so it runs on first use.
    """

    __slots__ = (
        "edge_list",
        "node_count",
        "labels",
        "links",
        "sorted_capacity",
        "_label_order",
    )

    def __init__(self, edge_list: SnapshotEdgeList):
        self.edge_list = edge_list
        self.labels = edge_list.labels
        self.node_count = len(edge_list.labels)
        self.links = LinkLookup(edge_list)
        self.sorted_capacity = edge_list.capacity_gbps[self.links.order].astype(float)
        self._label_order: "tuple[int, bool] | None" = None

    def label_order(self) -> tuple[int, bool]:
        """Return ``(numeric_prefix, row_ordered)`` of the label table."""
        if self._label_order is None:
            labels = self.labels
            node_count = self.node_count
            numeric = np.fromiter(
                (
                    isinstance(label, (int, float)) and not isinstance(label, bool)
                    for label in labels
                ),
                dtype=bool,
                count=node_count,
            )
            prefix = int(np.argmin(numeric)) if not numeric.all() else node_count
            prefix_values = np.array(labels[:prefix], dtype=float) if prefix else None
            row_ordered = bool(
                not numeric[prefix:].any()
                and (prefix < 2 or bool((np.diff(prefix_values) >= 0).all()))
            )
            self._label_order = (prefix, row_ordered)
        return self._label_order


def _compile_cache(capacity_graph, edge_list: SnapshotEdgeList) -> _EdgeListCompileCache:
    cache = getattr(capacity_graph, "_alloc_compile_cache", None)
    if cache is None or cache.edge_list is not edge_list:
        cache = _EdgeListCompileCache(edge_list)
        try:
            capacity_graph._alloc_compile_cache = cache
        except AttributeError:  # slotted or otherwise frozen view
            pass
    return cache


def _match_links(
    cache: _EdgeListCompileCache, u: np.ndarray, v: np.ndarray, missing_error
) -> tuple[np.ndarray, np.ndarray]:
    """Match hop endpoint arrays to the edge list's links, without sorting hops.

    Returns ``(positions, link_ids)``: ``positions`` are the sorted-table
    positions of the distinct links the hops use, ascending, and
    ``link_ids[h]`` numbers hop ``h``'s link within them (the incidence
    columns).  Each hop is looked up through the cache's
    :class:`LinkLookup`; a used-mask over the E sorted positions and its
    cumulative-sum rank then number the used links in link-code order --
    the numbering :func:`np.unique` over the hop codes would give -- in
    O(hops + E) gather/scatter passes.  When a hop has no link, the
    exception ``missing_error(mask)`` builds from the per-hop mask of such
    hops is raised.
    Shared by both row compile paths so object-engine and columnar systems
    are built by the identical code.
    """
    hop_positions = cache.links.positions(u, v)
    missing = hop_positions < 0
    if missing.any():
        raise missing_error(missing)
    used = np.zeros(cache.links.codes.size, dtype=bool)
    used[hop_positions] = True
    rank = np.cumsum(used, dtype=np.intp) - 1
    return np.flatnonzero(used), rank[hop_positions]


def _link_keys_of(cache: _EdgeListCompileCache, positions: np.ndarray) -> tuple:
    """Emit the normalised label-space key of every matched link."""
    labels = cache.labels
    node_count = cache.node_count
    codes = cache.links.codes[positions]
    los = (codes // node_count).tolist()
    his = (codes % node_count).tolist()
    prefix, row_ordered = cache.label_order()
    if row_ordered:
        # A numeric ``lo`` endpoint means the row order already is the
        # normalised key order; only string-string links (absent from
        # satellite snapshots) need the python normalisation.
        return tuple(
            (labels[lo], labels[hi])
            if lo < prefix
            else _link_key(labels[lo], labels[hi])
            for lo, hi in zip(los, his)
        )
    return tuple(_link_key(labels[lo], labels[hi]) for lo, hi in zip(los, his))


def _compile_from_rows(
    cache: _EdgeListCompileCache, flows: list[Flow]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple, np.ndarray]:
    """Index path: compile row-index flow paths against an edge list.

    Validation is deliberately cheap: row bounds plus each flow's *endpoint*
    labels.  Interior rows are trusted to mirror ``flow.path`` -- the
    contract of :attr:`~repro.network.capacity.Flow.path_rows`, which the
    simulator guarantees by deriving routes and capacity view from the very
    same edge list; a full per-hop label check would reintroduce the
    per-node python pass this path exists to avoid.  Rows from a different
    snapshot that happen to share both endpoints and valid bounds compile
    silently against the wrong links -- callers assembling flows by hand
    should pass label paths only (the graph path validates every link).
    """
    labels = cache.labels
    node_count = cache.node_count
    rows_per_flow = [
        np.asarray(flow.path_rows, dtype=np.intp) for flow in flows
    ]
    counts = np.fromiter(
        (max(rows.size - 1, 0) for rows in rows_per_flow),
        dtype=np.intp,
        count=len(flows),
    )
    if rows_per_flow:
        all_rows = np.concatenate(rows_per_flow)
        if all_rows.size and (all_rows.min() < 0 or all_rows.max() >= node_count):
            raise ValueError("path_rows do not index this snapshot's label table")
        u = np.concatenate([rows[:-1] for rows in rows_per_flow])
        v = np.concatenate([rows[1:] for rows in rows_per_flow])
    else:
        u = v = np.empty(0, dtype=np.intp)
    for flow, rows in zip(flows, rows_per_flow):
        if rows.size and (
            labels[rows[0]] != flow.path[0] or labels[rows[-1]] != flow.path[-1]
        ):
            raise ValueError(
                f"flow {flow.name!r}: path_rows do not index this snapshot's "
                "label table"
            )
    flow_ids = np.repeat(np.arange(len(flows), dtype=np.intp), counts)
    positions, link_ids = _match_links(
        cache, u, v, lambda bad: _missing_link_error(flows, flow_ids, bad)
    )
    return (
        flow_ids,
        link_ids,
        cache.sorted_capacity[positions],
        _link_keys_of(cache, positions),
        cache.links.order[positions],
    )


def _compile_from_graph(
    graph, flows: list[Flow]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple]:
    """Graph path: compile label paths against ``has_edge``/``edges`` lookups."""
    key_ids: dict[tuple, int] = {}
    capacity: list[float] = []
    flow_ids: list[int] = []
    link_ids: list[int] = []
    for index, flow in enumerate(flows):
        for a, b in flow.links():
            if not graph.has_edge(a, b):
                raise ValueError(
                    f"flow {flow.name!r} uses a link not present in the graph"
                )
            key = _link_key(a, b)
            link = key_ids.get(key)
            if link is None:
                link = len(key_ids)
                key_ids[key] = link
                capacity.append(float(graph.edges[a, b]["capacity_gbps"]))
            flow_ids.append(index)
            link_ids.append(link)
    return (
        np.asarray(flow_ids, dtype=np.intp),
        np.asarray(link_ids, dtype=np.intp),
        np.asarray(capacity, dtype=float),
        tuple(key_ids),
    )


def compile_flow_link_system(capacity_graph, flows: list[Flow]) -> FlowLinkSystem:
    """Compile routed flows into the incidence form of their allocation.

    ``capacity_graph`` is anything the dict allocators accept -- a
    :class:`networkx.Graph` or a duck-typed capacity view.  When it exposes
    an ``edge_list`` (:class:`SnapshotEdgeList`) and every flow carries
    ``path_rows``, the compilation runs entirely over index arrays;
    otherwise each flow's links are walked once through the graph
    interface.  Flow names must be unique: the result dict is keyed by
    name, and the dict reference's behaviour under duplicates (shared rate
    entries) is an accident not worth reproducing.
    """
    names = tuple(flow.name for flow in flows)
    if len(set(names)) != len(names):
        raise ValueError("array allocators require unique flow names")
    demand = np.array([flow.demand_gbps for flow in flows], dtype=float)
    edge_list = getattr(capacity_graph, "edge_list", None)
    link_rows = None
    if isinstance(edge_list, SnapshotEdgeList) and all(
        flow.path_rows is not None for flow in flows
    ):
        flow_ids, link_ids, capacity, link_keys, link_rows = _compile_from_rows(
            _compile_cache(capacity_graph, edge_list), flows
        )
    else:
        flow_ids, link_ids, capacity, link_keys = _compile_from_graph(
            capacity_graph, flows
        )
    return FlowLinkSystem(
        flow_names=names,
        demand=demand,
        capacity=capacity,
        flow_ids=flow_ids,
        link_ids=link_ids,
        link_keys=link_keys,
        link_rows=link_rows,
    )


def compile_system_from_rows(
    capacity_graph,
    demand: np.ndarray,
    offsets: np.ndarray,
    rows: np.ndarray,
    with_keys: bool = False,
) -> FlowLinkSystem:
    """Compile ragged row-index paths straight into a nameless system.

    The columnar engine's compile path: flow ``i`` follows
    ``rows[offsets[i]:offsets[i + 1]]`` (empty segments -- unreachable or
    zero-hop flows -- contribute no traversals) and demands ``demand[i]``.
    No :class:`~repro.network.capacity.Flow` objects, names or label paths
    are ever materialised; the incidence arrays come out bit-identical to
    :func:`compile_flow_link_system` over the equivalent object flows, which
    is what makes the two engines' allocations comparable to the last bit.

    ``capacity_graph`` must expose a :class:`SnapshotEdgeList` as
    ``edge_list``; ``with_keys`` additionally emits the per-link label keys
    (skipped by default -- the columnar statistics only need the utilisation
    vector).
    """
    edge_list = getattr(capacity_graph, "edge_list", None)
    if not isinstance(edge_list, SnapshotEdgeList):
        raise ValueError(
            "compile_system_from_rows requires a capacity view exposing a "
            "SnapshotEdgeList"
        )
    cache = _compile_cache(capacity_graph, edge_list)
    demand = np.asarray(demand, dtype=float)
    offsets = np.asarray(offsets, dtype=np.intp)
    rows = np.asarray(rows, dtype=np.intp)
    if offsets.size != demand.size + 1:
        raise ValueError("offsets must have one entry more than demand")
    if rows.size and (rows.min() < 0 or rows.max() >= cache.node_count):
        raise ValueError("path rows do not index this snapshot's label table")
    lengths = np.diff(offsets)
    counts = np.maximum(lengths - 1, 0)
    # Hop endpoints: every row except each segment's last (u) / first (v),
    # selected by boolean masks so the global hop order stays flow-by-flow,
    # hop-by-hop -- the exact order the object compile path produces.
    keep_u = np.ones(rows.size, dtype=bool)
    keep_v = np.ones(rows.size, dtype=bool)
    nonempty = lengths > 0
    keep_u[offsets[1:][nonempty] - 1] = False
    keep_v[offsets[:-1][nonempty]] = False
    positions, link_ids = _match_links(
        cache,
        rows[keep_u],
        rows[keep_v],
        lambda bad: ValueError("a flow path uses a link not present in the snapshot"),
    )
    return FlowLinkSystem(
        flow_names=None,
        demand=demand,
        capacity=cache.sorted_capacity[positions],
        flow_ids=np.repeat(np.arange(demand.size, dtype=np.intp), counts),
        link_ids=link_ids,
        link_keys=_link_keys_of(cache, positions) if with_keys else None,
        link_rows=cache.links.order[positions],
    )


def _result(
    system: FlowLinkSystem, rates: np.ndarray, utilisation: np.ndarray
) -> AllocationResult:
    return AllocationResult(
        allocated_gbps={
            name: float(rate) for name, rate in zip(system.flow_names, rates)
        },
        link_utilisation={
            key: float(value) for key, value in zip(system.link_keys, utilisation)
        },
    )


def _solve_proportional(system: FlowLinkSystem) -> tuple[np.ndarray, np.ndarray]:
    """Proportional-scaling fixed point; returns ``(rates, utilisation)``."""
    demand, capacity = system.demand, system.capacity
    load = system.link_loads(demand)
    starved_links = (capacity <= 0.0) & (load > 0.0)
    starved_flows = system.flows_touching(starved_links)
    if starved_flows.any():
        load = system.link_loads(np.where(starved_flows, 0.0, demand))
    scale = 1.0
    congested = (load > capacity) & (capacity > 0.0)
    if congested.any():
        scale = min(1.0, float((capacity[congested] / load[congested]).min()))
    allocated = np.where(starved_flows, 0.0, demand * scale)
    utilisation = np.zeros(system.link_count)
    positive = capacity > 0.0
    utilisation[positive] = load[positive] * scale / capacity[positive]
    utilisation[starved_links] = 1.0
    return allocated, utilisation


def _solve_max_min(
    system: FlowLinkSystem, iterations: "int | None" = None
) -> tuple[np.ndarray, np.ndarray]:
    """Max-min waterfilling fixed point; returns ``(rates, utilisation)``.

    Each round computes each per-link quantity once.  The link loads of a
    round's final rates serve both its saturation test and the next round's
    headroom (freezing never changes rates).  The per-link active-flow
    counts are exact integers, decremented by the traversals of the flows
    each round freezes.  Rates never fall, so loads never fall and a
    saturated link stays saturated; every active flow on it froze in the
    round it saturated, so each round only scatters the links that
    saturated in it.
    """
    demand, capacity = system.demand, system.capacity
    flow_ids, link_ids = system.flow_ids, system.link_ids
    link_count = system.link_count
    rates = np.zeros(system.flow_count)
    frozen = demand == 0.0
    demand_floor = demand - 1e-9
    capacity_floor = capacity - 1e-9
    counts = np.bincount(link_ids[~frozen[flow_ids]], minlength=link_count)
    load = system.link_loads(rates)
    saturated = np.zeros(link_count, dtype=bool)
    rounds = 0
    while iterations is None or rounds < iterations:
        rounds += 1
        active = ~frozen
        if not active.any():
            break
        remaining = np.where(active, demand - rates, np.inf)
        binding_flow = int(np.argmin(remaining))
        increment = float(remaining[binding_flow])
        binding_link: int | None = None
        if link_count:
            live = counts > 0
            if live.any():
                shares = np.divide(
                    capacity - load,
                    counts,
                    out=np.full(link_count, np.inf),
                    where=live,
                )
                candidate = int(np.argmin(shares))
                if shares[candidate] < increment:
                    increment = float(shares[candidate])
                    binding_link = candidate
        if increment <= 1e-12:
            increment = 0.0
        np.add(rates, increment, out=rates, where=active)
        newly = active & (rates >= demand_floor)
        if link_count:
            load = system.link_loads(rates)
            now_saturated = load >= capacity_floor
            fresh = now_saturated > saturated
            if fresh.any():
                saturated = now_saturated
                newly |= active & system.flows_touching(fresh)
        if not newly.any():
            # No tolerance fired: freeze the binding constraint directly (its
            # headroom cannot recover) instead of spinning without progress.
            if binding_link is not None:
                newly[flow_ids[link_ids == binding_link]] = True
                newly &= active
            else:
                newly[binding_flow] = True
        frozen |= newly
        if link_count:
            counts -= np.bincount(link_ids[newly[flow_ids]], minlength=link_count)

    utilisation = np.zeros(link_count)
    if link_count:
        positive = capacity > 0.0
        utilisation[positive] = load[positive] / capacity[positive]
        # Zero-capacity links with demand trying to cross are saturated,
        # not idle -- the reference allocators' convention.
        utilisation[~positive & (system.link_loads(demand) > 0.0)] = 1.0
    return rates, utilisation


def allocate_proportional_array(capacity_graph, flows: list[Flow]) -> AllocationResult:
    """Array-native proportional scaling; see :func:`allocate_proportional`.

    One incidence compile plus three sparse matrix-vector products: loads
    from demands, the starved-flow mask from zero-capacity links, and the
    common scale from the most congested link.
    """
    system = compile_flow_link_system(capacity_graph, flows)
    return _result(system, *_solve_proportional(system))


def allocate_max_min_array(
    capacity_graph, flows: list[Flow], iterations: int | None = None
) -> AllocationResult:
    """Array-native max-min waterfilling; see :func:`allocate_max_min`.

    Each round is a handful of sparse matrix-vector products over the
    incidence arrays: the uniform increment is the minimum of remaining
    demands and per-link headroom-over-active-count shares (clamped at 0 --
    accumulated tolerance must never drive rates down), freezes are boolean
    mask updates, and when the float tolerances miss the binding constraint
    it is frozen directly, so every round retires at least one flow and the
    loop terminates without an iteration cap.
    """
    system = compile_flow_link_system(capacity_graph, flows)
    return _result(system, *_solve_max_min(system, iterations))


#: Solver cores by allocator registry name: the columnar engine compiles a
#: nameless system and calls these directly, skipping the result-dict
#: round-trip.  An allocator outside this map has no array solver, so the
#: columnar engine falls back to the object reference path for it.
ARRAY_SOLVERS = {
    "proportional_array": _solve_proportional,
    "max_min_array": _solve_max_min,
}


#: Introspection metadata mirroring ``RoutingBackend.uses_arrays``: these
#: allocators exploit an array capacity view and row-index paths when the
#: caller supplies them (the compile fast path) and fall back to the graph
#: interface otherwise.  The simulator chooses the capacity representation
#: by routing backend alone -- every allocator accepts either form.
allocate_proportional_array.uses_arrays = True
allocate_max_min_array.uses_arrays = True

ALLOCATORS["proportional_array"] = allocate_proportional_array
ALLOCATORS["max_min_array"] = allocate_max_min_array
