"""Tests of the station-pair telemetry stores, models and registry.

The sketch contract is probabilistic in general but deterministic here:
every stream is generated from a fixed seed, so the count-min assertions
(never under-count, ``eps * total`` over-count bound, heavy-hitter
recovery) are exact regression checks, not flaky statistics.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.network import telemetry
from repro.network.telemetry import (
    TELEMETRY,
    AutoTelemetry,
    CountMinPairStore,
    ExactPairStore,
    ExactTelemetry,
    PairStore,
    PairTelemetry,
    SketchTelemetry,
    _merge_sorted_unique,
    get_telemetry,
    merge_stores,
)


def skewed_stream(seed: int, size: int, distinct: int):
    """A deterministic zipf-ish (keys, values) stream with heavy hitters."""
    rng = np.random.default_rng(seed)
    keys = rng.zipf(1.3, size=size).astype(np.int64) % distinct
    values = rng.uniform(0.1, 2.0, size=size)
    return keys, values


class TestExactPairStore:
    def test_observe_consolidates_duplicates(self):
        store = ExactPairStore()
        store.observe([3, 1, 3, 2], [1.0, 2.0, 0.5, 4.0])
        store.observe([2, 5], [1.0, 0.25])
        assert store.distinct == 4
        assert store.estimate(3) == 1.5
        assert store.estimate(2) == 5.0
        assert store.estimate(99) == 0.0
        assert store.total() == pytest.approx(8.75)

    def test_top_orders_by_value_then_key_and_drops_zeros(self):
        store = ExactPairStore()
        store.observe([10, 7, 4, 2], [3.0, 5.0, 5.0, 0.0])
        assert store.top(10) == ((4, 5.0), (7, 5.0), (10, 3.0))
        assert store.top(1) == ((4, 5.0),)
        assert store.top(0) == ()

    def test_rejects_bad_observations(self):
        store = ExactPairStore()
        with pytest.raises(ValueError):
            store.observe([1, 2], [1.0])
        with pytest.raises(ValueError):
            store.observe([1], [-0.5])
        store.observe([], [])  # empty batch is a no-op
        assert store.distinct == 0


class TestCountMinPairStore:
    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            CountMinPairStore(width=1000)  # not a power of two
        with pytest.raises(ValueError):
            CountMinPairStore(depth=0)
        with pytest.raises(ValueError):
            CountMinPairStore(top_capacity=0)

    def test_never_undercounts_and_meets_eps_bound(self):
        keys, values = skewed_stream(seed=42, size=50_000, distinct=20_000)
        exact = ExactPairStore()
        sketch = CountMinPairStore(width=4096, depth=4, seed=0)
        for start in range(0, keys.size, 5000):
            batch = slice(start, start + 5000)
            exact.observe(keys[batch], values[batch])
            sketch.observe(keys[batch], values[batch])

        true = exact.values
        estimates = sketch.estimate_many(exact.keys)
        total = exact.total()
        assert sketch.total() == pytest.approx(total)
        # Classic count-min guarantees, deterministic under the fixed seed:
        # estimates never drop below the truth (up to float accumulation
        # noise) and overshoot by at most eps * total, eps = e / width.
        assert (estimates >= true - 1e-9 * total).all()
        assert (estimates <= true + (np.e / sketch.width) * total).all()

    def test_heavy_hitters_survive_candidate_pressure(self):
        # Far more distinct keys than candidate slots: the bounded set must
        # still surface the true heavy hitters, with their full totals.
        keys, values = skewed_stream(seed=7, size=40_000, distinct=10_000)
        exact = ExactPairStore()
        sketch = CountMinPairStore(width=4096, depth=4, seed=0, top_capacity=16)
        for start in range(0, keys.size, 2000):
            batch = slice(start, start + 2000)
            exact.observe(keys[batch], values[batch])
            sketch.observe(keys[batch], values[batch])
        top_true = [key for key, _ in exact.top(5)]
        top_sketch = dict(sketch.top(5))
        assert list(top_sketch) == top_true
        for key in top_true:
            assert top_sketch[key] >= exact.estimate(key) - 1e-9

    def test_memory_constant_in_stream_length(self):
        sketch = CountMinPairStore(width=1024, depth=4, top_capacity=32)
        empty_bytes = sketch.memory_bytes()
        rng = np.random.default_rng(3)
        for _ in range(20):
            keys = rng.integers(0, 2**40, size=5000).astype(np.int64)
            sketch.observe(keys, np.ones(keys.size))
        # Only the bounded candidate array grows, never the table.
        assert sketch.memory_bytes() <= empty_bytes + 32 * 8

    def test_merge_equals_single_stream(self):
        keys, values = skewed_stream(seed=11, size=20_000, distinct=5_000)
        whole = CountMinPairStore(width=2048, depth=4, seed=0)
        whole.observe(keys, values)
        left = CountMinPairStore(width=2048, depth=4, seed=0)
        right = CountMinPairStore(width=2048, depth=4, seed=0)
        left.observe(keys[:12_000], values[:12_000])
        right.observe(keys[12_000:], values[12_000:])
        left.merge(right)
        assert left.total() == pytest.approx(whole.total())
        probe = np.unique(keys)
        np.testing.assert_allclose(
            left.estimate_many(probe), whole.estimate_many(probe), rtol=1e-12
        )

    def test_merge_rejects_mismatched_geometry(self):
        base = CountMinPairStore(width=1024, depth=4, seed=0)
        with pytest.raises(ValueError):
            base.merge(CountMinPairStore(width=2048, depth=4, seed=0))
        with pytest.raises(ValueError):
            base.merge(CountMinPairStore(width=1024, depth=4, seed=1))

    def test_pickle_round_trip_preserves_estimates(self):
        keys, values = skewed_stream(seed=5, size=5_000, distinct=500)
        sketch = CountMinPairStore(width=1024, depth=4, seed=0)
        sketch.observe(keys, values)
        clone = pickle.loads(pickle.dumps(sketch))
        probe = np.unique(keys)
        np.testing.assert_array_equal(
            clone.estimate_many(probe), sketch.estimate_many(probe)
        )
        assert clone.top(5) == sketch.top(5)


class TestCandidateMerge:
    """The candidate refresh merges sorted unique keys without re-sorting;
    :func:`np.union1d` is its oracle."""

    @pytest.mark.parametrize("seed", range(5))
    def test_merge_equals_union1d(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            left = np.unique(rng.integers(-50, 50, size=int(rng.integers(0, 40))))
            right = np.unique(rng.integers(-50, 50, size=int(rng.integers(0, 40))))
            got = _merge_sorted_unique(left, right)
            want = np.union1d(left, right)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_disjoint_nested_and_identical_sets(self):
        keys = np.array([2, 5, 9], dtype=np.int64)
        cases = (
            (keys, keys),
            (keys, np.array([0, 1], dtype=np.int64)),
            (keys, np.array([10, 11], dtype=np.int64)),
            (keys, np.array([5], dtype=np.int64)),
            (np.empty(0, dtype=np.int64), keys),
            (keys, np.empty(0, dtype=np.int64)),
        )
        for left, right in cases:
            np.testing.assert_array_equal(
                _merge_sorted_unique(left, right), np.union1d(left, right)
            )

    def _run(self):
        keys, values = skewed_stream(seed=31, size=30_000, distinct=3_000)
        first = CountMinPairStore(width=1024, depth=4, seed=0, top_capacity=24)
        second = CountMinPairStore(width=1024, depth=4, seed=0, top_capacity=24)
        trail = []
        # Later batches land on a non-empty candidate set, and merges fold
        # one candidate set into another.
        for index, start in enumerate(range(0, keys.size, 3_000)):
            store = first if index % 2 else second
            store.observe(keys[start : start + 3_000], values[start : start + 3_000])
            trail.append((store._candidates.copy(), store.top(10)))
            if index % 3 == 2:
                first.merge(second)
                trail.append((first._candidates.copy(), first.top(24)))
        small = CountMinPairStore(width=1024, depth=4, seed=0, top_capacity=500)
        small.observe([7, 3, 7], [1.0, 2.0, 0.5])
        small.observe([4, 3], [1.0, 1.0])
        small.merge(first)
        trail.append((small._candidates.copy(), small.top(50)))
        return trail

    def test_observe_and_merge_sequence_matches_union1d_oracle(self, monkeypatch):
        got = self._run()
        monkeypatch.setattr(telemetry, "_merge_sorted_unique", np.union1d)
        want = self._run()
        assert len(got) == len(want)
        for (got_keys, got_top), (want_keys, want_top) in zip(got, want):
            assert got_keys.dtype == want_keys.dtype
            np.testing.assert_array_equal(got_keys, want_keys)
            assert got_top == want_top


class TestMergeStores:
    def _streams(self):
        keys, values = skewed_stream(seed=23, size=8_000, distinct=1_000)
        return (keys[:4_000], values[:4_000]), (keys[4_000:], values[4_000:])

    def test_exact_pair_merges_in_place(self):
        (k1, v1), (k2, v2) = self._streams()
        left, right = ExactPairStore(), ExactPairStore()
        left.observe(k1, v1)
        right.observe(k2, v2)
        merged = merge_stores(left, right)
        assert merged is left
        whole = ExactPairStore()
        whole.observe(np.concatenate([k1, k2]), np.concatenate([v1, v2]))
        np.testing.assert_allclose(merged.estimate_many(whole.keys), whole.values)

    @pytest.mark.parametrize("exact_side", ["left", "right"])
    def test_mixed_merge_promotes_to_the_sketch(self, exact_side):
        (k1, v1), (k2, v2) = self._streams()
        exact = ExactPairStore()
        exact.observe(k1, v1)
        sketch = CountMinPairStore(width=2048, depth=4, seed=0)
        sketch.observe(k2, v2)
        if exact_side == "left":
            merged = merge_stores(exact, sketch)
        else:
            merged = merge_stores(sketch, exact)
        assert isinstance(merged, CountMinPairStore)
        assert merged.total() == pytest.approx(float(v1.sum() + v2.sum()))
        # The promoted result still never under-counts either stream.
        whole = ExactPairStore()
        whole.observe(np.concatenate([k1, k2]), np.concatenate([v1, v2]))
        estimates = merged.estimate_many(whole.keys)
        assert (estimates >= whole.values - 1e-9).all()

    def test_unknown_store_type_rejected(self):
        class Odd(PairStore):
            def observe(self, keys, values):  # pragma: no cover - stub
                pass

            def estimate_many(self, keys):  # pragma: no cover - stub
                return np.zeros(0)

            def top(self, count):  # pragma: no cover - stub
                return ()

            def total(self):  # pragma: no cover - stub
                return 0.0

            def memory_bytes(self):  # pragma: no cover - stub
                return 0

        with pytest.raises(TypeError):
            merge_stores(Odd(), ExactPairStore())


class TestPairTelemetry:
    LABELS = ("London", "New York", "Tokyo")

    def test_encode_decode_round_trip(self):
        telemetry = PairTelemetry(labels=self.LABELS, store=ExactPairStore())
        telemetry.observe_pairs([0, 0, 2], [1, 2, 0], [5.0, 3.0, 2.0])
        telemetry.observe_pairs([0], [1], [1.0])
        assert telemetry.estimate_pair("London", "New York") == 6.0
        assert telemetry.estimate_pair("Tokyo", "London") == 2.0
        assert telemetry.estimate_pair("New York", "Tokyo") == 0.0
        assert telemetry.top_pairs(2) == (
            ("London", "New York", 6.0),
            ("London", "Tokyo", 3.0),
        )
        assert telemetry.total_gbps() == pytest.approx(11.0)

    def test_merge_requires_matching_labels(self):
        a = PairTelemetry(labels=self.LABELS, store=ExactPairStore())
        b = PairTelemetry(labels=("London", "Tokyo"), store=ExactPairStore())
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_accumulates(self):
        a = PairTelemetry(labels=self.LABELS, store=ExactPairStore())
        b = PairTelemetry(labels=self.LABELS, store=ExactPairStore())
        a.observe_pairs([0], [1], [2.0])
        b.observe_pairs([0, 1], [1, 2], [3.0, 7.0])
        a.merge(b)
        assert a.estimate_pair("London", "New York") == 5.0
        assert a.estimate_pair("New York", "Tokyo") == 7.0


class TestTelemetryRegistry:
    def test_registry_names_match_models(self):
        assert set(TELEMETRY) == {"exact", "sketch", "auto"}
        for name, model in TELEMETRY.items():
            assert model.name == name
            assert get_telemetry(name) is model

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown telemetry model"):
            get_telemetry("census")

    def test_model_store_types(self):
        assert isinstance(ExactTelemetry().store(10**6), ExactPairStore)
        assert isinstance(SketchTelemetry().store(10), CountMinPairStore)
        auto = AutoTelemetry()
        assert isinstance(auto.store(auto.threshold), ExactPairStore)
        assert isinstance(auto.store(auto.threshold + 1), CountMinPairStore)

    def test_auto_below_threshold_is_bit_identical_to_exact(self):
        keys, values = skewed_stream(seed=2, size=2_000, distinct=300)
        auto = AutoTelemetry().store(keys.size)
        exact = ExactTelemetry().store(keys.size)
        auto.observe(keys, values)
        exact.observe(keys, values)
        assert auto.top(10) == exact.top(10)
        assert auto.total() == exact.total()
