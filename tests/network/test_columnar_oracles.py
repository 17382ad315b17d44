"""Oracle tests of the columnar step's walk, link matching and path delays.

The production walk (:func:`~repro.network.backends.bulk_path_rows_many`)
carries compacted pending-query arrays, and the row compile paths match hops
to links through a :class:`~repro.network.backends.LinkLookup` instead of
sorting them.  Both are pure re-implementations: the earlier full-width
walk and the :func:`np.unique` matcher are kept below as test-only
references, and every output -- path buffers, whole
:class:`~repro.network.alloc_arrays.FlowLinkSystem` instances and true path
delays -- must equal theirs bit for bit, dtypes included.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.demand.traffic_matrix import GravityTrafficModel
from repro.network import flows as flows_module
from repro.network.alloc_arrays import (
    FlowLinkSystem,
    _compile_cache,
    compile_flow_link_system,
    compile_system_from_rows,
)
from repro.network.backends import SnapshotEdgeList, bulk_path_rows_many
from repro.network.capacity import Flow, _link_key
from repro.network.flows import route_flow_table, select_flow_table
from repro.network.ground_station import GroundStation
from repro.network.routing import SnapshotRouter
from repro.network.simulation import _EdgeListCapacityView
from repro.network.steering import path_delays_from_rows
from repro.network.topology import ConstellationTopology

# -- test-only references ---------------------------------------------------


def reference_walk(tables, group_of, dest_rows):
    """The full-width layer walk: boolean masks over every query per layer."""
    group_of = np.asarray(group_of, dtype=np.intp)
    dest_rows = np.asarray(dest_rows, dtype=np.intp)
    count = dest_rows.size
    latency = np.full(count, np.inf)
    lengths = np.zeros(count, dtype=np.intp)
    if not tables:
        return np.zeros(count + 1, dtype=np.intp), np.empty(0, dtype=np.intp), latency
    distances = np.stack([table._distances for table in tables])
    predecessors = np.stack([table._predecessors for table in tables])
    source_rows = np.array([table._source_row for table in tables], dtype=np.intp)
    known = (group_of >= 0) & (dest_rows >= 0)
    safe_group = np.where(known, group_of, 0)
    safe_rows = np.where(known, dest_rows, 0)
    reachable = known & np.isfinite(distances[safe_group, safe_rows])
    latency[reachable] = distances[safe_group[reachable], safe_rows[reachable]]
    source_of = source_rows[safe_group]
    cursor = safe_rows.copy()
    depth = np.zeros(count, dtype=np.intp)
    pending = reachable.copy()
    layers = []
    while True:
        pending = pending & (cursor != source_of)
        if not pending.any():
            break
        layers.append((np.flatnonzero(pending), cursor[pending].copy()))
        depth[pending] += 1
        cursor[pending] = predecessors[safe_group[pending], cursor[pending]]
    lengths[reachable] = depth[reachable] + 1
    offsets = np.zeros(count + 1, dtype=np.intp)
    np.cumsum(lengths, out=offsets[1:])
    buffer = np.empty(int(offsets[-1]), dtype=np.intp)
    buffer[offsets[:-1][reachable]] = source_of[reachable]
    for step, (where, nodes) in enumerate(layers):
        buffer[offsets[:-1][where] + depth[where] - step] = nodes
    return offsets, buffer, latency


class _SortedTable:
    """The sorted link-code table the :func:`np.unique` matcher searched."""

    def __init__(self, edge_list: SnapshotEdgeList):
        node_count = len(edge_list.labels)
        codes = (
            np.minimum(edge_list.a, edge_list.b) * node_count
            + np.maximum(edge_list.a, edge_list.b)
        )
        order = np.argsort(codes)
        self.node_count = node_count
        self.sorted_codes = codes[order]
        self.sorted_capacity = edge_list.capacity_gbps[order].astype(float)
        self.sorted_rows = order
        self.sorted_delay = edge_list.delay_ms[order]


def reference_match_links(table: _SortedTable, u, v):
    """Deduplicate hop codes with np.unique, then binary-search the table."""
    codes = np.minimum(u, v) * table.node_count + np.maximum(u, v)
    unique_codes, link_ids = np.unique(codes, return_inverse=True)
    positions = np.searchsorted(table.sorted_codes, unique_codes)
    in_range = positions < table.sorted_codes.size
    matched = np.zeros(unique_codes.size, dtype=bool)
    matched[in_range] = table.sorted_codes[positions[in_range]] == unique_codes[in_range]
    positions = np.minimum(positions, max(table.sorted_codes.size - 1, 0))
    return unique_codes, link_ids, positions, matched


def _hop_endpoints(offsets, rows):
    lengths = np.diff(offsets)
    keep_u = np.ones(rows.size, dtype=bool)
    keep_v = np.ones(rows.size, dtype=bool)
    nonempty = lengths > 0
    keep_u[offsets[1:][nonempty] - 1] = False
    keep_v[offsets[:-1][nonempty]] = False
    return rows[keep_u], rows[keep_v]


def reference_compile(edge_list, demand, offsets, rows) -> FlowLinkSystem:
    """The np.unique compile of ragged row paths, with label keys."""
    table = _SortedTable(edge_list)
    demand = np.asarray(demand, dtype=float)
    offsets = np.asarray(offsets, dtype=np.intp)
    rows = np.asarray(rows, dtype=np.intp)
    counts = np.maximum(np.diff(offsets) - 1, 0)
    unique_codes, link_ids, positions, matched = reference_match_links(
        table, *_hop_endpoints(offsets, rows)
    )
    assert matched.all()
    labels = edge_list.labels
    keys = tuple(
        _link_key(labels[code // table.node_count], labels[code % table.node_count])
        for code in unique_codes.tolist()
    )
    return FlowLinkSystem(
        flow_names=None,
        demand=demand,
        capacity=table.sorted_capacity[positions],
        flow_ids=np.repeat(np.arange(demand.size, dtype=np.intp), counts),
        link_ids=link_ids,
        link_keys=keys,
        link_rows=table.sorted_rows[positions],
    )


def reference_path_delays(edge_list, offsets, rows):
    """Per-path delay sums through the sorted delay table."""
    offsets = np.asarray(offsets, dtype=np.intp)
    rows = np.asarray(rows, dtype=np.intp)
    lengths = np.diff(offsets)
    count = lengths.size
    totals = np.full(count, np.inf)
    nonempty = lengths > 0
    if not nonempty.any():
        return totals
    table = _SortedTable(edge_list)
    u, v = _hop_endpoints(offsets, rows)
    hop_codes = np.minimum(u, v) * table.node_count + np.maximum(u, v)
    positions = np.searchsorted(table.sorted_codes, hop_codes)
    assert (table.sorted_codes[positions] == hop_codes).all()
    flow_of = np.repeat(np.arange(count, dtype=np.intp), np.maximum(lengths - 1, 0))
    totals[nonempty] = np.bincount(
        flow_of, weights=table.sorted_delay[positions], minlength=count
    )[nonempty]
    return totals


# -- helpers ------------------------------------------------------------------


def assert_identical(left, right):
    """Bitwise equality of arrays (dtype and shape included) and plain values."""
    if isinstance(left, np.ndarray):
        assert isinstance(right, np.ndarray)
        assert left.dtype == right.dtype and left.shape == right.shape
        assert np.array_equal(left, right)
    else:
        assert left == right


def assert_systems_identical(left: FlowLinkSystem, right: FlowLinkSystem):
    for name in (
        "flow_names",
        "demand",
        "capacity",
        "flow_ids",
        "link_ids",
        "link_keys",
        "link_rows",
    ):
        assert_identical(getattr(left, name), getattr(right, name))


class _Table:
    """A predecessor-row route table, as the csgraph backend hands out."""

    def __init__(self, distances, predecessors, source_row):
        self._distances = distances
        self._predecessors = predecessors
        self._source_row = source_row


def random_forest(rng, node_count: int, source_row: int) -> _Table:
    """A random shortest-path tree from ``source_row`` over part of the nodes.

    Nodes outside the tree are unreachable (``inf`` distance and csgraph's
    ``-9999`` predecessor), as is the source's own predecessor.
    """
    distances = np.full(node_count, np.inf)
    predecessors = np.full(node_count, -9999, dtype=np.int32)
    distances[source_row] = 0.0
    reached = [source_row]
    others = [row for row in rng.permutation(node_count).tolist() if row != source_row]
    for row in others[: int(rng.integers(0, node_count))]:
        parent = reached[int(rng.integers(0, len(reached)))]
        predecessors[row] = parent
        distances[row] = distances[parent] + float(rng.uniform(0.1, 5.0))
        reached.append(row)
    return _Table(distances, predecessors, source_row)


def random_edge_list(rng, node_count: int, link_count: int) -> SnapshotEdgeList:
    """Random distinct undirected links over numeric and station labels."""
    stations = node_count // 4
    labels = tuple(range(node_count - stations)) + tuple(
        f"gs:{index}" for index in range(stations)
    )
    pairs = set()
    while len(pairs) < link_count:
        a, b = (int(value) for value in rng.integers(0, node_count, size=2))
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    pairs = sorted(pairs, key=lambda pair: rng.random())
    a = np.array([pair[0] for pair in pairs], dtype=np.intp)
    b = np.array([pair[1] for pair in pairs], dtype=np.intp)
    return SnapshotEdgeList(
        labels=labels,
        a=a,
        b=b,
        distance_km=rng.uniform(500.0, 3000.0, size=link_count),
        delay_ms=rng.uniform(1.0, 10.0, size=link_count),
        capacity_gbps=rng.uniform(1.0, 20.0, size=link_count),
    )


def random_paths(rng, edge_list: SnapshotEdgeList, path_count: int):
    """Random walks along the edge list's links, as ragged ``(offsets, rows)``.

    Segments of length 0 (unreachable) and 1 (zero-hop) are mixed in, and a
    few hub links make many flows share links.
    """
    node_count = len(edge_list.labels)
    neighbours = [[] for _ in range(node_count)]
    for a, b in zip(edge_list.a.tolist(), edge_list.b.tolist()):
        neighbours[a].append(b)
        neighbours[b].append(a)
    paths = []
    for _ in range(path_count):
        length = int(rng.integers(0, 9))
        if length == 0:
            paths.append([])
            continue
        path = [int(rng.integers(0, node_count))]
        while len(path) < length and neighbours[path[-1]]:
            choices = neighbours[path[-1]]
            path.append(choices[int(rng.integers(0, len(choices)))])
        paths.append(path)
    lengths = np.array([len(path) for path in paths], dtype=np.intp)
    offsets = np.zeros(lengths.size + 1, dtype=np.intp)
    np.cumsum(lengths, out=offsets[1:])
    rows = np.array([row for path in paths for row in path], dtype=np.intp)
    return offsets, rows


# -- the walk -----------------------------------------------------------------


class TestWalkOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_forests_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        node_count = int(rng.integers(2, 60))
        sources = int(rng.integers(1, 8))
        tables = [
            random_forest(rng, node_count, int(rng.integers(0, node_count)))
            for _ in range(sources)
        ]
        count = int(rng.integers(0, 400))
        # -1 marks unknown sources / destinations; many queries hit
        # unreachable nodes and some ask for the source itself.
        group_of = rng.integers(-1, sources, size=count)
        dest_rows = rng.integers(-1, node_count, size=count)
        zero_hop = rng.random(count) < 0.1
        known = group_of >= 0
        dest_rows[zero_hop & known] = [
            tables[group]._source_row for group in group_of[zero_hop & known]
        ]
        got = bulk_path_rows_many(tables, group_of, dest_rows)
        want = reference_walk(tables, group_of, dest_rows)
        for left, right in zip(got, want):
            assert_identical(left, right)

    def test_edge_cases(self):
        # Source 3; path 3 -> 1 -> 0 -> 5; nodes 2 and 4 unreachable.
        distances = np.array([2.0, 1.0, np.inf, 0.0, np.inf, 4.5])
        predecessors = np.array([1, 3, -9999, -9999, -9999, 0], dtype=np.int32)
        table = _Table(distances, predecessors, 3)
        unreachable, reachable = 4, 5
        group_of = np.array([0, -1, 0, 0, 0], dtype=np.intp)
        dest_rows = np.array([reachable, reachable, unreachable, 3, -1], dtype=np.intp)
        offsets, rows, latency = bulk_path_rows_many([table], group_of, dest_rows)
        want = reference_walk([table], group_of, dest_rows)
        for left, right in zip((offsets, rows, latency), want):
            assert_identical(left, right)
        lengths = np.diff(offsets)
        assert lengths[1] == lengths[2] == lengths[4] == 0
        assert lengths[3] == 1 and rows[offsets[3]] == 3  # zero-hop: source only
        assert latency[3] == 0.0
        assert rows[offsets[0] : offsets[1]].tolist() == [3, 1, 0, 5]
        assert latency[0] == 4.5

    def test_empty_batches(self):
        table = random_forest(np.random.default_rng(1), 5, 0)
        empty = np.empty(0, dtype=np.intp)
        for tables in ([], [table]):
            got = bulk_path_rows_many(tables, empty, empty)
            for left, right in zip(got, reference_walk(tables, empty, empty)):
                assert_identical(left, right)
        # Queries but no tables: every segment empty.
        got = bulk_path_rows_many([], np.zeros(3, dtype=np.intp), np.zeros(3, dtype=np.intp))
        assert_identical(got[0], np.zeros(4, dtype=np.intp))
        assert np.isinf(got[2]).all()


# -- link matching and path delays --------------------------------------------


class TestLinkMatchingOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_paths_match_reference(self, seed):
        rng = np.random.default_rng(100 + seed)
        node_count = int(rng.integers(4, 40))
        edge_list = random_edge_list(
            rng, node_count, int(rng.integers(3, node_count * (node_count - 1) // 2))
        )
        offsets, rows = random_paths(rng, edge_list, int(rng.integers(1, 300)))
        demand = rng.uniform(0.0, 3.0, size=offsets.size - 1)
        view = _EdgeListCapacityView(edge_list)
        got = compile_system_from_rows(view, demand, offsets, rows, with_keys=True)
        assert_systems_identical(got, reference_compile(edge_list, demand, offsets, rows))
        assert_identical(
            path_delays_from_rows(edge_list, offsets, rows),
            reference_path_delays(edge_list, offsets, rows),
        )

    def test_object_compile_matches_columnar_compile(self):
        rng = np.random.default_rng(11)
        edge_list = random_edge_list(rng, 30, 70)
        offsets, rows = random_paths(rng, edge_list, 120)
        lengths = np.diff(offsets)
        # Object flows need a path of two nodes or more to carry demand.
        keep = np.flatnonzero(lengths >= 2)
        labels = edge_list.labels
        flows = []
        for number, flow in enumerate(keep.tolist()):
            path_rows = rows[offsets[flow] : offsets[flow + 1]].tolist()
            flows.append(
                Flow(
                    f"f{number}",
                    tuple(labels[row] for row in path_rows),
                    float(number + 1),
                    path_rows=tuple(path_rows),
                )
            )
        view = _EdgeListCapacityView(edge_list)
        by_objects = compile_flow_link_system(view, flows)
        sub_lengths = lengths[keep]
        sub_offsets = np.zeros(keep.size + 1, dtype=np.intp)
        np.cumsum(sub_lengths, out=sub_offsets[1:])
        sub_rows = np.concatenate([rows[offsets[flow] : offsets[flow + 1]] for flow in keep])
        by_rows = compile_system_from_rows(
            view, [flow.demand_gbps for flow in flows], sub_offsets, sub_rows, with_keys=True
        )
        assert_systems_identical(
            by_rows, reference_compile(edge_list, by_rows.demand, sub_offsets, sub_rows)
        )
        for name in ("demand", "capacity", "flow_ids", "link_ids", "link_keys", "link_rows"):
            assert_identical(getattr(by_objects, name), getattr(by_rows, name))

    def test_duplicate_stored_link_resolves_to_first_sorted_position(self):
        # A hand-built edge list may store one link twice; the lookup must
        # pick the row the sorted-table binary search picked.
        edge_list = SnapshotEdgeList(
            labels=(0, 1, 2, "gs:a"),
            a=np.array([1, 0, 2, 1, 3], dtype=np.intp),
            b=np.array([2, 1, 3, 0, 0], dtype=np.intp),
            distance_km=np.ones(5),
            delay_ms=np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
            capacity_gbps=np.array([10.0, 20.0, 30.0, 40.0, 50.0]),
        )
        offsets = np.array([0, 4, 6], dtype=np.intp)
        rows = np.array([3, 0, 1, 2, 1, 0], dtype=np.intp)
        view = _EdgeListCapacityView(edge_list)
        got = compile_system_from_rows(view, [1.0, 2.0], offsets, rows, with_keys=True)
        assert_systems_identical(got, reference_compile(edge_list, [1.0, 2.0], offsets, rows))
        assert_identical(
            path_delays_from_rows(edge_list, offsets, rows),
            reference_path_delays(edge_list, offsets, rows),
        )

    def test_empty_and_zero_hop_tables(self):
        edge_list = random_edge_list(np.random.default_rng(3), 8, 10)
        view = _EdgeListCapacityView(edge_list)
        cases = (
            (np.zeros(0), np.zeros(1, dtype=np.intp), np.empty(0, dtype=np.intp)),
            (np.ones(3), np.array([0, 0, 1, 2], dtype=np.intp), np.array([4, 5], dtype=np.intp)),
        )
        for demand, offsets, rows in cases:
            got = compile_system_from_rows(view, demand, offsets, rows, with_keys=True)
            assert_systems_identical(got, reference_compile(edge_list, demand, offsets, rows))
            assert got.link_count == 0 and got.flow_ids.size == 0
            assert_identical(
                path_delays_from_rows(edge_list, offsets, rows),
                reference_path_delays(edge_list, offsets, rows),
            )

    def test_errors_keep_their_messages(self):
        edge_list = SnapshotEdgeList(
            labels=(0, 1, 2),
            a=np.array([0, 1], dtype=np.intp),
            b=np.array([1, 2], dtype=np.intp),
            distance_km=np.ones(2),
            delay_ms=np.ones(2),
            capacity_gbps=np.ones(2),
        )
        view = _EdgeListCapacityView(edge_list)
        offsets = np.array([0, 2], dtype=np.intp)
        with pytest.raises(
            ValueError, match="path rows do not index this snapshot's label table"
        ):
            compile_system_from_rows(view, [1.0], offsets, np.array([0, 3]))
        with pytest.raises(
            ValueError, match="a flow path uses a link not present in the snapshot"
        ):
            compile_system_from_rows(view, [1.0], offsets, np.array([0, 2]))
        with pytest.raises(
            ValueError, match="a path uses a link not present in the edge list"
        ):
            path_delays_from_rows(edge_list, offsets, np.array([0, 2]))
        with pytest.raises(
            ValueError, match="a path uses a link not present in the edge list"
        ):
            path_delays_from_rows(edge_list, offsets, np.array([-1, 0]))
        with pytest.raises(
            ValueError, match="path_rows do not index this snapshot's label table"
        ):
            compile_flow_link_system(view, [Flow("f", (0, 1), 1.0, path_rows=(0, 5))])
        with pytest.raises(
            ValueError, match="flow 'g' uses a link not present in the graph"
        ):
            compile_flow_link_system(
                view,
                [
                    Flow("f", (0, 1, 2), 1.0, path_rows=(0, 1, 2)),
                    Flow("g", (0, 2), 1.0, path_rows=(0, 2)),
                ],
            )

    def test_label_scan_runs_on_first_key_request(self):
        edge_list = random_edge_list(np.random.default_rng(5), 10, 12)
        view = _EdgeListCapacityView(edge_list)
        offsets, rows = random_paths(np.random.default_rng(6), edge_list, 20)
        compile_system_from_rows(view, np.ones(offsets.size - 1), offsets, rows)
        cache = _compile_cache(view, edge_list)
        assert cache._label_order is None
        compile_system_from_rows(
            view, np.ones(offsets.size - 1), offsets, rows, with_keys=True
        )
        assert cache._label_order == (len(edge_list.labels) - len(edge_list.labels) // 4, True)


# -- a smoke-size flows step ----------------------------------------------------


@pytest.fixture(scope="module")
def flows_step(epoch):
    """One snapshot of a 120-satellite shell with 40 stations' gravity flows."""
    from repro.coverage.walker import WalkerDelta

    wd = WalkerDelta(
        altitude_km=560.0, inclination_deg=65.0, total_satellites=120, planes=8, phasing=1
    )
    elements = wd.satellite_elements()
    per_plane = wd.satellites_per_plane
    topology = ConstellationTopology(
        planes=[elements[i * per_plane : (i + 1) * per_plane] for i in range(wd.planes)],
        epoch=epoch,
    )
    cities = GravityTrafficModel().cities[:40]
    model = GravityTrafficModel(cities=cities, total_demand=60.0)
    stations = [GroundStation(c.name, c.latitude_deg, c.longitude_deg) for c in cities]
    edge_list = topology.snapshot_sequence([epoch], stations).edge_list(0)
    names = tuple(city.name for city in cities)
    table = select_flow_table(model.matrix_at(12.0), names, 1_000)
    router = SnapshotRouter(backend="csgraph", arrays=edge_list.arrays())
    return edge_list, router, table


class TestFlowsStepOracle:
    def test_walk_compile_and_delays_match_references(self, flows_step, monkeypatch):
        edge_list, router, table = flows_step
        routed = route_flow_table(router, table)
        # The walk is reached through the flows module global, so swapping
        # it swaps what route_flow_table runs.
        monkeypatch.setattr(flows_module, "bulk_path_rows_many", reference_walk)
        reference = route_flow_table(router, table)
        for name in ("reachable", "latency_ms", "path_offsets", "path_rows"):
            assert_identical(getattr(routed, name), getattr(reference, name))
        assert routed.reachable.any() and not routed.reachable.all()
        demand, offsets, rows = routed.compact()
        view = _EdgeListCapacityView(edge_list)
        got = compile_system_from_rows(view, demand, offsets, rows, with_keys=True)
        assert_systems_identical(got, reference_compile(edge_list, demand, offsets, rows))
        # Many flows share links: the step exercises repeated links.
        assert got.link_ids.size > 2 * got.link_count
        assert_identical(
            path_delays_from_rows(edge_list, offsets, rows),
            reference_path_delays(edge_list, offsets, rows),
        )

    def test_source_grouping_matches_unique_inverse(self, flows_step, monkeypatch):
        edge_list, router, table = flows_step
        seen = {}

        def spy(tables, group_of, dest_rows):
            seen["tables"], seen["group_of"] = tables, group_of
            return reference_walk(tables, group_of, dest_rows)

        monkeypatch.setattr(flows_module, "bulk_path_rows_many", spy)
        route_flow_table(router, table)
        unique_src, inverse = np.unique(table.src, return_inverse=True)
        node_index = edge_list.node_index
        known = [
            node_index.index_of(f"gs:{table.station_names[src]}") is not None
            for src in unique_src.tolist()
        ]
        remap = np.full(unique_src.size, -1, dtype=np.intp)
        remap[np.flatnonzero(known)] = np.arange(int(np.count_nonzero(known)))
        assert_identical(seen["group_of"], remap[inverse])
        assert [routes._source_row for routes in seen["tables"]] == [
            node_index.index_of(f"gs:{table.station_names[src]}")
            for src, present in zip(unique_src.tolist(), known)
            if present
        ]
