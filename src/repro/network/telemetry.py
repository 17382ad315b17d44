"""Streaming step telemetry: exact and sketch station-pair summaries.

At object-engine flow counts (~10^2 per step) per-flow statistics are free;
at the columnar engine's 10^5-10^6 flows per step an exact per-pair
breakdown costs O(distinct pairs) memory per step -- the same order as the
flow store itself.  This module makes that cost a policy: a
:class:`TelemetryModel` decides, per step, whether the station-pair demand
summary is collected **exactly** (consolidated key/value arrays) or
**approximately** in fixed memory (a count-min sketch with a bounded
heavy-hitter candidate set).  Models are registered by name in
:data:`TELEMETRY`, mirroring ``ALLOCATORS``/``BACKENDS``/``FAULT_MODELS``,
so scenario definitions select them declaratively
(:attr:`repro.network.simulation.Scenario.telemetry`).

Every store supports ``merge``: per-step stores fold into a per-scenario
aggregate, and -- because stores are plain numpy containers -- they pickle
cheaply, so ``executor="process"`` sweeps ship each worker's aggregates
back to the coordinator and combine them there.  Count-min addition is
commutative, which keeps merged results independent of worker scheduling.

The count-min estimate never under-counts: for non-negative values the
sketch returns ``true <= estimate <= true + eps * total`` with high
probability, where ``eps ~ e / width``.  Heavy hitters are tracked as a
bounded candidate set refreshed on every observation batch; a pair's
estimate includes all of its past contributions (the sketch remembers what
the candidate set may have evicted), so a pair that becomes heavy late
still surfaces with its full count.

Below a model's size threshold (``"auto"``) the exact store is used and the
summaries are bit-identical to brute force -- the equivalence anchor of the
sketch tests.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PairStore",
    "ExactPairStore",
    "CountMinPairStore",
    "merge_stores",
    "PairTelemetry",
    "LinkTelemetry",
    "TelemetryModel",
    "ExactTelemetry",
    "SketchTelemetry",
    "AutoTelemetry",
    "TELEMETRY",
    "get_telemetry",
]


def _as_observation(keys, values) -> tuple[np.ndarray, np.ndarray]:
    keys = np.asarray(keys, dtype=np.int64)
    values = np.asarray(values, dtype=float)
    if keys.shape != values.shape or keys.ndim != 1:
        raise ValueError("keys and values must be matching 1-D arrays")
    if values.size and values.min() < 0:
        raise ValueError("telemetry values must be non-negative")
    return keys, values


def _consolidate(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum values of duplicate keys; returns sorted unique keys."""
    unique, inverse = np.unique(keys, return_inverse=True)
    return unique, np.bincount(inverse, weights=values, minlength=unique.size)


def _merge_sorted_unique(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Union of two sorted arrays of unique keys, without re-sorting.

    Equals :func:`np.union1d` of the two.  One search into ``left`` drops
    the keys of ``right`` it already holds, and one search into the rest
    places ``left``'s keys among them -- no sort of the combined keys.
    """
    if not left.size:
        return right
    at = np.searchsorted(left, right)
    fresh = right[left[np.minimum(at, left.size - 1)] != right]
    return np.insert(fresh, np.searchsorted(fresh, left), left)


class PairStore(ABC):
    """Accumulator of non-negative values keyed by int64 pair codes."""

    @abstractmethod
    def observe(self, keys, values) -> None:
        """Add a batch of (key, value) observations (arrays of equal length)."""

    @abstractmethod
    def estimate_many(self, keys: np.ndarray) -> np.ndarray:
        """Return the (possibly approximate) accumulated value of each key."""

    @abstractmethod
    def top(self, count: int) -> tuple[tuple[int, float], ...]:
        """Largest ``count`` (key, value) pairs, ties broken by smaller key."""

    @abstractmethod
    def total(self) -> float:
        """Sum of every observed value."""

    @abstractmethod
    def memory_bytes(self) -> int:
        """Bytes held by the store's numpy state (constant for sketches)."""

    def estimate(self, key: int) -> float:
        return float(self.estimate_many(np.array([key], dtype=np.int64))[0])


def _top_of(keys: np.ndarray, values: np.ndarray, count: int) -> tuple:
    """Top ``count`` by value descending, key ascending -- deterministic."""
    if count <= 0 or not keys.size:
        return ()
    order = np.lexsort((keys, -values))[:count]
    return tuple(
        (int(key), float(value))
        for key, value in zip(keys[order], values[order])
        if value > 0.0
    )


class ExactPairStore(PairStore):
    """Exact per-pair totals as consolidated (sorted keys, values) arrays.

    Every operation is whole-array numpy; memory grows with the number of
    *distinct* pairs observed, which is what the sketch bound trades away.
    """

    def __init__(self) -> None:
        self._keys = np.empty(0, dtype=np.int64)
        self._values = np.empty(0, dtype=float)

    @property
    def distinct(self) -> int:
        return self._keys.size

    @property
    def keys(self) -> np.ndarray:
        return self._keys

    @property
    def values(self) -> np.ndarray:
        return self._values

    def observe(self, keys, values) -> None:
        keys, values = _as_observation(keys, values)
        if not keys.size:
            return
        self._keys, self._values = _consolidate(
            np.concatenate([self._keys, keys]),
            np.concatenate([self._values, values]),
        )

    def estimate_many(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.int64)
        positions = np.searchsorted(self._keys, keys)
        positions = np.minimum(positions, max(self._keys.size - 1, 0))
        found = (
            self._keys[positions] == keys
            if self._keys.size
            else np.zeros(keys.shape, dtype=bool)
        )
        return np.where(found, self._values[positions], 0.0)

    def top(self, count: int) -> tuple:
        return _top_of(self._keys, self._values, count)

    def total(self) -> float:
        return float(self._values.sum())

    def memory_bytes(self) -> int:
        return int(self._keys.nbytes + self._values.nbytes)


class CountMinPairStore(PairStore):
    """Count-min sketch plus a bounded heavy-hitter candidate set.

    ``depth`` rows of ``width`` counters (width must be a power of two:
    row hashes are multiply-shift over the full 64-bit key mix).  ``add`` is
    ``np.add.at`` per row; ``estimate`` is the minimum over rows, which for
    non-negative values never under-counts.  The candidate set keeps the
    ``top_capacity`` keys with the largest sketch estimates seen so far,
    refreshed on every batch -- fixed memory however many pairs stream by.

    Two sketches merge by elementwise table addition, valid only when their
    shapes and hash salts agree (same ``seed``/geometry -- the registry
    model guarantees this across process workers).
    """

    def __init__(
        self,
        width: int = 4096,
        depth: int = 4,
        seed: int = 0,
        top_capacity: int = 64,
    ) -> None:
        if width <= 0 or width & (width - 1):
            raise ValueError(f"sketch width must be a power of two, got {width}")
        if depth <= 0:
            raise ValueError("sketch depth must be positive")
        if top_capacity <= 0:
            raise ValueError("top_capacity must be positive")
        self._width = width
        self._depth = depth
        self._seed = seed
        self._shift = np.uint64(64 - int(width).bit_length() + 1)
        rng = np.random.default_rng(seed)
        self._salts = rng.integers(1, 2**63, size=depth, dtype=np.uint64) | np.uint64(1)
        self._table = np.zeros((depth, width), dtype=float)
        self._candidates = np.empty(0, dtype=np.int64)
        self._top_capacity = top_capacity
        self._total = 0.0

    @property
    def width(self) -> int:
        return self._width

    @property
    def depth(self) -> int:
        return self._depth

    @property
    def seed(self) -> int:
        return self._seed

    def _columns(self, keys: np.ndarray) -> np.ndarray:
        """(depth, n) table columns of each key, by multiply-shift hashing."""
        mixed = keys.astype(np.uint64)[None, :] * self._salts[:, None]
        return (mixed >> self._shift).astype(np.intp)

    def observe(self, keys, values) -> None:
        keys, values = _as_observation(keys, values)
        if not keys.size:
            return
        keys, values = _consolidate(keys, values)
        columns = self._columns(keys)
        for row in range(self._depth):
            np.add.at(self._table[row], columns[row], values)
        self._total += float(values.sum())
        self._refresh_candidates(keys)

    def _refresh_candidates(self, fresh_keys: np.ndarray) -> None:
        """Re-cut the candidate set from its union with sorted unique keys."""
        pool = _merge_sorted_unique(self._candidates, fresh_keys)
        if pool.size > self._top_capacity:
            estimates = self.estimate_many(pool)
            # Preselect with argpartition (O(pool)), widened to ties at the
            # cut so the small lexsort below returns exactly what a full
            # (value desc, key asc) sort of the pool would.
            cut = pool.size - self._top_capacity
            threshold = np.partition(estimates, cut)[cut]
            keep = np.flatnonzero(estimates >= threshold)
            order = np.lexsort((pool[keep], -estimates[keep]))[: self._top_capacity]
            pool = np.sort(pool[keep][order])
        self._candidates = pool

    def estimate_many(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.int64)
        if not keys.size:
            return np.empty(0, dtype=float)
        columns = self._columns(keys)
        rows = np.arange(self._depth)[:, None]
        return self._table[rows, columns].min(axis=0)

    def top(self, count: int) -> tuple:
        if not self._candidates.size:
            return ()
        return _top_of(self._candidates, self.estimate_many(self._candidates), count)

    def total(self) -> float:
        return self._total

    def memory_bytes(self) -> int:
        return int(
            self._table.nbytes + self._salts.nbytes + self._candidates.nbytes
        )

    def merge(self, other: "CountMinPairStore") -> None:
        if (
            self._table.shape != other._table.shape
            or not np.array_equal(self._salts, other._salts)
        ):
            raise ValueError(
                "count-min sketches merge only with identical geometry and "
                "hash salts (same telemetry model configuration)"
            )
        self._table += other._table
        self._total += other._total
        self._refresh_candidates(other._candidates)


def merge_stores(left: PairStore, right: PairStore) -> PairStore:
    """Fold ``right`` into ``left`` (or promote) and return the result.

    Exact+exact and sketch+sketch merge in place; a mixed pair promotes the
    exact side into the sketch (the sketch's history cannot be exactified),
    so an ``"auto"`` scenario whose steps straddle the threshold still
    aggregates into a single fixed-memory summary.
    """
    if isinstance(left, ExactPairStore) and isinstance(right, ExactPairStore):
        left.observe(right.keys, right.values)
        return left
    if isinstance(left, CountMinPairStore) and isinstance(right, CountMinPairStore):
        left.merge(right)
        return left
    if isinstance(left, CountMinPairStore) and isinstance(right, ExactPairStore):
        left.observe(right.keys, right.values)
        return left
    if isinstance(left, ExactPairStore) and isinstance(right, CountMinPairStore):
        right.observe(left.keys, left.values)
        return right
    raise TypeError(
        f"cannot merge {type(left).__name__} with {type(right).__name__}"
    )


@dataclass
class PairTelemetry:
    """A station-pair summary: a :class:`PairStore` plus its label space.

    Pairs are encoded as ``src_id * len(labels) + dst_id`` with ids indexing
    ``labels`` (a scenario's station subset, in simulator order).  The
    wrapper owns encoding/decoding so stores stay label-free and two
    summaries merge only when their label spaces agree.
    """

    labels: tuple[str, ...]
    store: PairStore

    def observe_pairs(self, src_ids, dst_ids, values) -> None:
        src_ids = np.asarray(src_ids, dtype=np.int64)
        dst_ids = np.asarray(dst_ids, dtype=np.int64)
        self.store.observe(src_ids * len(self.labels) + dst_ids, values)

    def merge(self, other: "PairTelemetry") -> None:
        if self.labels != other.labels:
            raise ValueError("pair telemetry merges only within one station subset")
        self.store = merge_stores(self.store, other.store)

    def top_pairs(self, count: int) -> tuple[tuple[str, str, float], ...]:
        """Largest ``count`` (src, dst, value) summaries, deterministic order."""
        size = len(self.labels)
        return tuple(
            (self.labels[key // size], self.labels[key % size], value)
            for key, value in self.store.top(count)
        )

    def estimate_pair(self, src: str, dst: str) -> float:
        size = len(self.labels)
        return self.store.estimate(
            self.labels.index(src) * size + self.labels.index(dst)
        )

    def total_gbps(self) -> float:
        return self.store.total()


@dataclass
class LinkTelemetry:
    """A per-link utilisation summary: a :class:`PairStore` keyed by links.

    The link-space sibling of :class:`PairTelemetry`, sharing one signal
    source with congestion steering: the per-link utilisation array the
    allocation stage exports in link-index order.  Links are encoded as
    ``min(row_a, row_b) * len(labels) + max(row_a, row_b)`` over the
    snapshot's node label table -- the same undirected link code steering's
    EWMA state uses -- so the summary is stable across steps of one
    scenario group (labels are fixed within a group) and merges across
    process workers like any other store.

    Each step contributes that step's utilisation per link, so the
    aggregate is *sustained heat*: a link at 0.9 utilisation for ten steps
    scores 9.0, while a link that spiked to 1.0 once scores 1.0.
    :meth:`top_links` surfaces the sustained-hot links of a simulation.
    """

    labels: tuple
    store: PairStore

    def observe_links(self, codes, utilisation) -> None:
        """Add one step's (link code, utilisation) arrays."""
        self.store.observe(codes, utilisation)

    def merge(self, other: "LinkTelemetry") -> None:
        if self.labels != other.labels:
            raise ValueError("link telemetry merges only within one snapshot group")
        self.store = merge_stores(self.store, other.store)

    def top_links(self, count: int) -> tuple[tuple[object, object, float], ...]:
        """Largest ``count`` (label_a, label_b, summed utilisation) links."""
        size = len(self.labels)
        return tuple(
            (self.labels[key // size], self.labels[key % size], value)
            for key, value in self.store.top(count)
        )

    def total(self) -> float:
        """Sum of every observed per-step link utilisation."""
        return self.store.total()


class TelemetryModel(ABC):
    """Factory of per-step :class:`PairStore` instances, registry-named."""

    name: str = ""
    #: How many (src, dst, value) pairs each step's statistics carry.
    summary_pairs: int = 5

    @abstractmethod
    def store(self, expected_pairs: int) -> PairStore:
        """Return a fresh store sized for ``expected_pairs`` candidates."""


@dataclass
class ExactTelemetry(TelemetryModel):
    """Always-exact summaries; memory grows with distinct pairs."""

    name: str = field(default="exact", init=False)

    def store(self, expected_pairs: int) -> PairStore:
        return ExactPairStore()


@dataclass
class SketchTelemetry(TelemetryModel):
    """Always-sketched summaries: fixed memory at any flow count."""

    name: str = field(default="sketch", init=False)
    width: int = 4096
    depth: int = 4
    seed: int = 0
    top_capacity: int = 64

    def store(self, expected_pairs: int) -> PairStore:
        return CountMinPairStore(
            width=self.width,
            depth=self.depth,
            seed=self.seed,
            top_capacity=self.top_capacity,
        )


@dataclass
class AutoTelemetry(SketchTelemetry):
    """Exact below ``threshold`` expected pairs, count-min sketch above.

    The default model: small steps keep bit-exact summaries (and anchor the
    sketch equivalence tests), while columnar-scale steps switch to fixed
    memory.  Mixed aggregates promote to the sketch on merge.
    """

    name: str = field(default="auto", init=False)
    threshold: int = 8192

    def store(self, expected_pairs: int) -> PairStore:
        if expected_pairs <= self.threshold:
            return ExactPairStore()
        return SketchTelemetry.store(self, expected_pairs)


#: Telemetry models addressable by name (scenario definitions use these),
#: mirroring :data:`repro.network.capacity.ALLOCATORS`.
TELEMETRY: dict[str, TelemetryModel] = {
    model.name: model
    for model in (ExactTelemetry(), SketchTelemetry(), AutoTelemetry())
}


def get_telemetry(name: str) -> TelemetryModel:
    """Return the telemetry model registered under ``name``."""
    try:
        return TELEMETRY[name]
    except KeyError:
        raise ValueError(
            f"unknown telemetry model {name!r}; available: {sorted(TELEMETRY)}"
        ) from None
