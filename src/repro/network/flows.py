"""Columnar flow engine: select, route and compile flows without objects.

The object pipeline of :mod:`repro.network.simulation` materialises one
:class:`~repro.network.capacity.Flow` per routed demand pair -- fine at the
default 50-flow budget, but at the 10^5-10^6 flows per step of
hypergrowth-scale traffic matrices the per-flow Python (tuple building,
list sorts, dataclass construction, generator sums) dominates every
array-native stage around it.  This module keeps the whole flow population
columnar end-to-end:

* :func:`select_flow_table` -- stage 2 as array ops: the traffic matrix's
  vectorised entry export
  (:meth:`~repro.demand.traffic_matrix.TrafficMatrix.entry_arrays`),
  an :func:`np.argpartition` top-k cut, and a deterministic
  :func:`np.lexsort` tie-break ordering identical to the object path's
  ``(-demand, src, dst)`` sort;
* :func:`route_flow_table` -- stage 3 as gather ops: one batched
  multi-source search, then *every* source's predecessor rows stacked into
  one (sources x nodes) matrix and walked in a single batched layer walk
  (:func:`~repro.network.backends.bulk_path_rows_many`) straight into one
  ragged ``(offsets, rows)`` path buffer in table order -- no per-source
  loop, no scatter pass;
* :meth:`RoutedFlowTable.compact` -- stage 4 input: the reachable slice of
  the ragged paths feeds
  :func:`repro.network.alloc_arrays.compile_system_from_rows` directly,
  producing incidence arrays bit-identical to compiling the equivalent
  ``Flow`` objects.

The object path stays the reference implementation: engines are switched
per scenario (``flow_engine="objects" | "columnar"``), and when the
columnar route export is unavailable (graph-view backends, which have no
predecessor matrix) the engine falls back to the reference stages via
:meth:`FlowTable.candidates`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..demand.traffic_matrix import TrafficMatrix
from .backends import bulk_path_rows_many

__all__ = ["FlowTable", "RoutedFlowTable", "select_flow_table", "route_flow_table"]


@dataclass(frozen=True)
class FlowTable:
    """One step's selected flows in columnar (structure-of-arrays) form.

    Row ``i`` is the flow from station ``station_names[src[i]]`` to
    ``station_names[dst[i]]`` with demand ``demand[i]`` [Gbps], rows ordered
    by the deterministic selection key ``(-demand, src name, dst name)`` --
    exactly the object path's candidate order, which is what keeps the two
    engines' downstream arrays comparable element by element.
    """

    station_names: tuple[str, ...]
    #: Source station ids (rows into ``station_names``), shape ``(F,)``.
    src: np.ndarray = field(compare=False)
    #: Destination station ids, shape ``(F,)``.
    dst: np.ndarray = field(compare=False)
    #: Per-flow demand [Gbps], shape ``(F,)``.
    demand: np.ndarray = field(compare=False)

    @property
    def flow_count(self) -> int:
        return len(self.demand)

    @property
    def nbytes(self) -> int:
        """Bytes held by the columnar flow arrays (station names excluded)."""
        return int(self.src.nbytes + self.dst.nbytes + self.demand.nbytes)

    def candidates(self) -> list[tuple[str, str, float]]:
        """Materialise the object path's candidate list, in table order.

        The bridge to the reference stages: a columnar scenario whose
        backend cannot export bulk paths routes these tuples through
        ``_route_flows`` / ``_allocate`` unchanged.
        """
        names = self.station_names
        return [
            (names[src], names[dst], demand)
            for src, dst, demand in zip(
                self.src.tolist(), self.dst.tolist(), self.demand.tolist()
            )
        ]


@dataclass(frozen=True)
class RoutedFlowTable:
    """A :class:`FlowTable` plus its routing outcome as ragged path arrays.

    Flow ``i`` of ``table`` follows the snapshot rows
    ``path_rows[path_offsets[i]:path_offsets[i + 1]]`` (source first,
    destination last); unreachable flows have an empty segment and ``inf``
    latency.
    """

    table: FlowTable
    #: Whether each flow found a route, shape ``(F,)``.
    reachable: np.ndarray = field(compare=False)
    #: Per-flow path latency [ms] (``inf`` when unreachable), shape ``(F,)``.
    latency_ms: np.ndarray = field(compare=False)
    #: Ragged path index, shape ``(F + 1,)``.
    path_offsets: np.ndarray = field(compare=False)
    #: Concatenated snapshot-row paths of every reachable flow.
    path_rows: np.ndarray = field(compare=False)

    @property
    def nbytes(self) -> int:
        """Bytes held by the table plus its ragged routing arrays."""
        return int(
            self.table.nbytes
            + self.reachable.nbytes
            + self.latency_ms.nbytes
            + self.path_offsets.nbytes
            + self.path_rows.nbytes
        )

    def compact(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(demand, offsets, rows)`` of the reachable flows only.

        Unreachable segments are empty, so the rows buffer is shared as-is;
        only the demand vector and offsets are re-indexed.  This triple is
        the direct input of
        :func:`repro.network.alloc_arrays.compile_system_from_rows`.
        """
        reachable = self.reachable
        lengths = np.diff(self.path_offsets)[reachable]
        offsets = np.zeros(lengths.size + 1, dtype=np.intp)
        np.cumsum(lengths, out=offsets[1:])
        return self.table.demand[reachable], offsets, self.path_rows


def select_flow_table(
    matrix: TrafficMatrix,
    station_names: tuple[str, ...],
    flows_per_step: "int | None",
    demand_multiplier: float = 1.0,
) -> FlowTable:
    """Columnar stage 2: filter, scale and budget one step's flows.

    ``flows_per_step=None`` selects every positive entry ("all flows" mode).
    With a budget the top-k cut runs as an :func:`np.argpartition` over
    demands, widened to include every candidate tied with the k-th value so
    the boundary is decided by the deterministic ``(-demand, src name,
    dst name)`` order -- the same order (and therefore the same budget cut)
    as the object path's fixed sort.
    """
    src, dst, demand = matrix.entry_arrays(station_names)
    if demand_multiplier != 1.0:
        demand = demand * demand_multiplier
    keep = np.arange(src.size)
    if flows_per_step is not None and 0 < flows_per_step < src.size:
        top = np.argpartition(-demand, flows_per_step - 1)[:flows_per_step]
        threshold = demand[top].min()
        # Everyone above the k-th value is in; ties *at* the value are kept
        # for the lexsort below to cut deterministically.
        keep = np.flatnonzero(demand >= threshold)
    # Rank of each station id in name order, so integer keys reproduce the
    # object path's string comparisons.
    name_rank = np.empty(len(station_names), dtype=np.intp)
    name_rank[np.argsort(np.asarray(station_names, dtype=object))] = np.arange(
        len(station_names)
    )
    order = keep[
        np.lexsort((name_rank[dst[keep]], name_rank[src[keep]], -demand[keep]))
    ]
    if flows_per_step is not None:
        order = order[:flows_per_step]
    return FlowTable(
        station_names=tuple(station_names),
        src=src[order],
        dst=dst[order],
        demand=demand[order],
    )


def route_flow_table(
    router, table: FlowTable, route_cache=None
) -> "RoutedFlowTable | None":
    """Columnar stage 3: route every flow via one batched predecessor walk.

    One batched ``routes_from_many`` call covers all distinct sources (served
    through ``route_cache`` when the sweep shares one, so object and columnar
    scenarios on the same snapshot share the same search); all sources'
    predecessor rows are then stacked and walked together by
    :func:`~repro.network.backends.bulk_path_rows_many`, whose output is
    already in table order -- one walk for the whole step instead of one per
    source.  Returns ``None`` when a routing table cannot export bulk paths
    (graph-view backends) -- the caller falls back to the reference stages.
    Sources absent from the snapshot yield unreachable flows, exactly like
    the object path's empty tables.
    """
    names = table.station_names
    count = table.flow_count
    latency = np.full(count, np.inf)
    if count == 0:
        return RoutedFlowTable(
            table=table,
            reachable=np.zeros(0, dtype=bool),
            latency_ms=latency,
            path_offsets=np.zeros(1, dtype=np.intp),
            path_rows=np.empty(0, dtype=np.intp),
        )
    # Distinct sources in station-id order, and each flow's rank among them,
    # from a presence mask over station ids (no sort over the flows).
    present = np.zeros(len(names), dtype=bool)
    present[table.src] = True
    sources = [f"gs:{names[src]}" for src in np.flatnonzero(present).tolist()]
    inverse = (np.cumsum(present, dtype=np.intp) - 1)[table.src]
    if route_cache is not None:
        tables = route_cache.routes_from_many(router, sources)
    else:
        tables = router.routes_from_many(sources)
    exporters = []
    for source in sources:
        routes = tables[source]
        if hasattr(routes, "bulk_path_rows"):
            exporters.append(routes)
        elif len(routes) == 0:
            exporters.append(None)  # unknown source: every flow unreachable
        else:
            return None  # graph-view table: no bulk export, use the fallback
    stacked = [routes for routes in exporters if routes is not None]
    if not stacked:
        # No source is even in the snapshot: nothing is reachable.
        return RoutedFlowTable(
            table=table,
            reachable=np.zeros(count, dtype=bool),
            latency_ms=latency,
            path_offsets=np.zeros(count + 1, dtype=np.intp),
            path_rows=np.empty(0, dtype=np.intp),
        )
    node_index = stacked[0].node_index
    station_rows = np.array(
        [
            -1 if (row := node_index.index_of(f"gs:{name}")) is None else row
            for name in names
        ],
        dtype=np.intp,
    )
    # Per-flow row into the stacked tables (-1 marks an unknown source, which
    # bulk_path_rows_many resolves to an unreachable empty segment).
    remap = np.full(len(exporters), -1, dtype=np.intp)
    known = [group for group, routes in enumerate(exporters) if routes is not None]
    remap[known] = np.arange(len(stacked))
    group_of = remap[inverse]
    path_offsets, path_rows, latency = bulk_path_rows_many(
        stacked, group_of, station_rows[table.dst]
    )
    return RoutedFlowTable(
        table=table,
        reachable=np.isfinite(latency),
        latency_ms=latency,
        path_offsets=path_offsets,
        path_rows=path_rows,
    )
