"""Tests for the NLJP cache -- a payload store with a prune view
attached: memo lookups, prune candidates, policies."""

import pytest

from repro.core.cache import entry_bytes, fresh_memo


def payload(*groups):
    return tuple(groups)


def put(store, view, binding, payload, unpromising):
    """What NLJP does with a binding it evaluated: the store keeps the
    payload, the view the verdict."""
    entry = store.put(binding, payload)
    view.add(entry, unpromising)
    return entry


class TestMemoPath:
    def test_miss_then_hit(self):
        store, view = fresh_memo()
        assert store.get((1, 2)) is None
        put(store, view, (1, 2), payload(((), (5,))), unpromising=False)
        entry = store.get((1, 2))
        assert entry is not None and entry.payload == (((), (5,)),)
        assert store.lookups == 2 and store.hits == 1

    def test_hit_counts_per_entry(self):
        store, view = fresh_memo()
        put(store, view, (1,), payload(), unpromising=True)
        store.get((1,))
        store.get((1,))
        assert store.get((1,)).hits == 3

    def test_rows(self):
        store, view = fresh_memo()
        put(store, view, (1,), payload(), unpromising=True)
        put(store, view, (2,), payload(), unpromising=False)
        assert store.rows == 2
        assert len(store) == 2


class TestPruneCandidates:
    def test_only_unpromising_entries(self):
        store, view = fresh_memo()
        put(store, view, (1,), payload(), unpromising=True)
        put(store, view, (2,), payload(((), (1,))), unpromising=False)
        candidates = list(view.prune_candidates((9,)))
        assert [entry.binding for entry in candidates] == [(1,)]

    def test_equality_bucket_index(self):
        store, view = fresh_memo(equality_positions=(0,), use_index=True)
        put(store, view, ("a", 1), payload(), unpromising=True)
        put(store, view, ("b", 2), payload(), unpromising=True)
        candidates = list(view.prune_candidates(("a", 9)))
        assert [e.binding for e in candidates] == [("a", 1)]

    def test_without_index_scans_all(self):
        store, view = fresh_memo(equality_positions=(0,), use_index=False)
        put(store, view, ("a", 1), payload(), unpromising=True)
        put(store, view, ("b", 2), payload(), unpromising=True)
        assert len(list(view.prune_candidates(("a", 9)))) == 2

    def test_order_index_narrows(self):
        store, view = fresh_memo(order_position=0, use_index=True)
        for value in (1, 3, 5, 7):
            put(store, view, (value,), payload(), unpromising=True)
        candidates = list(view.prune_candidates((0,), low=4))
        assert sorted(e.binding[0] for e in candidates) == [5, 7]
        candidates = list(view.prune_candidates((0,), high=3, high_strict=True))
        assert sorted(e.binding[0] for e in candidates) == [1]

    def test_order_index_unbounded_falls_back(self):
        store, view = fresh_memo(order_position=0, use_index=True)
        put(store, view, (1,), payload(), unpromising=True)
        assert len(list(view.prune_candidates((0,)))) == 1


class TestFirstPruner:
    """``first_pruner`` walks ``prune_candidates``' sequence, in its
    order, and stops at the first hit."""

    CONFIGS = [
        dict(),
        dict(equality_positions=(0,), use_index=True),
        dict(equality_positions=(0,), use_index=False),
        dict(order_position=1, use_index=True),
    ]

    @pytest.mark.parametrize("config", CONFIGS)
    def test_same_sequence_stops_at_first_hit(self, config):
        store, view = fresh_memo(**config)
        for position, value in enumerate((5, 1, 7, 3, 7, 9)):
            put(store, view, ("ab"[position % 2], value, position), payload(), unpromising=True)
        put(store, view, ("a", 4, 99), payload(((), (1,))), unpromising=False)
        binding = ("a", 4, -1)
        bounds = dict(low=3, high=7, high_strict=True)
        candidates = view.prune_candidates(binding, **bounds)
        assert len(candidates) >= 2
        seen = []

        def never(new, cached):
            seen.append(cached)
            return False

        assert view.first_pruner(binding, never, **bounds) == (len(candidates), None)
        assert seen == [entry.binding for entry in candidates]
        for stop_at, target in enumerate(candidates, start=1):
            checks, hit = view.first_pruner(
                binding,
                lambda new, cached, wanted=target.binding: cached == wanted,
                **bounds,
            )
            assert (checks, hit) == (stop_at, target)

    def test_empty_cache_checks_nothing(self):
        _, view = fresh_memo()
        assert view.first_pruner((1,), lambda new, cached: True) == (0, None)

    def test_test_receives_new_then_cached(self):
        store, view = fresh_memo()
        put(store, view, (1,), payload(), unpromising=True)
        calls = []
        view.first_pruner((2,), lambda new, cached: calls.append((new, cached)))
        assert calls == [((2,), (1,))]


class TestReplacement:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            fresh_memo(policy="fifo")
        with pytest.raises(ValueError):
            fresh_memo(policy="lru")  # needs max_entries

    def test_lru_evicts_oldest(self):
        store, view = fresh_memo(max_entries=2, policy="lru")
        put(store, view, (1,), payload(), unpromising=False)
        put(store, view, (2,), payload(), unpromising=False)
        store.get((1,))  # refresh 1
        put(store, view, (3,), payload(), unpromising=False)
        assert store.get((1,)) is not None
        assert store.get((2,)) is None
        assert store.evictions == 1

    def test_utility_evicts_least_hit(self):
        store, view = fresh_memo(max_entries=2, policy="utility")
        put(store, view, (1,), payload(), unpromising=False)
        put(store, view, (2,), payload(), unpromising=False)
        store.get((2,))
        put(store, view, (3,), payload(), unpromising=False)
        assert store.get((2,)) is not None
        assert store.get((1,)) is None

    def test_eviction_cleans_prune_structures(self):
        store, view = fresh_memo(max_entries=1, policy="lru", order_position=0)
        put(store, view, (1,), payload(), unpromising=True)
        put(store, view, (2,), payload(), unpromising=True)
        candidates = list(view.prune_candidates((0,), low=0))
        assert [e.binding for e in candidates] == [(2,)]
        assert len(view._unpromising) == 1


class TestFootprint:
    def test_bytes_grow_with_payload(self):
        small, view = fresh_memo()
        put(small, view, (1,), payload(), unpromising=True)
        big, view = fresh_memo()
        put(
            big,
            view,
            ("some-long-binding-value", 2),
            payload((("g",), (1, 2.5, (3, 4)))),
            unpromising=False,
        )
        assert big.estimated_bytes() > small.estimated_bytes()

    def test_incremental_bytes_match_per_entry_sizes(self):
        """bytes_used is exactly the sum of entry_bytes over entries."""
        store, view = fresh_memo()
        assert store.estimated_bytes() == 0
        expected = 0
        for i in range(5):
            entry = put(
                store, view, (i, f"key{i}"), payload(((i,), (i * 2, 2.5))), unpromising=i % 2 == 0
            )
            expected += entry_bytes(entry)
            assert store.estimated_bytes() == expected

    def test_overwrite_replaces_footprint(self):
        store, view = fresh_memo()
        put(store, view, (1,), payload((("x" * 50,), (1,))), unpromising=False)
        before = store.estimated_bytes()
        entry = put(store, view, (1,), payload(), unpromising=False)
        assert store.estimated_bytes() == entry_bytes(entry) < before

    def test_eviction_releases_bytes(self):
        store, view = fresh_memo(max_entries=2, policy="lru")
        put(store, view, (1,), payload((("a",), (1,))), unpromising=False)
        put(store, view, (2,), payload((("b",), (2,))), unpromising=False)
        put(store, view, (3,), payload((("c",), (3,))), unpromising=False)
        assert store.estimated_bytes() == sum(
            entry_bytes(store.get(b)) for b in ((2,), (3,))
        )

    def test_evict_until_honours_keep(self):
        store, view = fresh_memo()
        for i in range(4):
            kept = put(store, view, (i,), payload(((i,), (i,))), unpromising=True)
        evicted = store.evict_until(0, keep=kept)
        assert evicted == 3
        assert store.get((3,)) is kept
        assert store.estimated_bytes() == entry_bytes(kept)
        # The kept entry alone still exceeds the budget: no progress.
        assert store.evict_until(0, keep=kept) == 0

    def test_clear_zeroes_everything(self):
        store, view = fresh_memo(order_position=0)
        put(store, view, (1,), payload(), unpromising=True)
        put(store, view, (2,), payload(), unpromising=False)
        store.clear()
        assert len(store) == 0
        assert store.estimated_bytes() == 0
        assert list(view.prune_candidates((0,), low=0)) == []


class TestReplacedEntries:
    """``put`` over a cached binding forgets the entry it replaces: the
    pruning lists hold exactly the dict's unpromising entries."""

    def test_replaced_entries_leave_the_pruning_lists(self):
        # A pruning-only plan on a shared store re-inserts a binding
        # with a NULL attribute on every execution (p⪰ is false on
        # NULL, so it never prunes itself).
        store, view = fresh_memo(order_position=0)
        for _ in range(3):
            put(store, view, (None, 5), payload(), unpromising=True)
            put(store, view, (1, 5), payload(), unpromising=True)
        assert len(store) == 2
        assert [e.binding for e in view.prune_candidates((0, 0))] == [
            (None, 5),
            (1, 5),
        ]
        assert [e.binding for e in view.prune_candidates((0, 0), low=0)] == [(1, 5)]

    def test_replaced_then_evicted_is_no_candidate(self):
        store, view = fresh_memo(max_entries=1, policy="lru")
        put(store, view, (1, 5), payload(), unpromising=True)
        put(store, view, (1, 5), payload(), unpromising=True)
        put(store, view, (2, 5), payload(), unpromising=True)
        assert len(store) == 1
        assert [e.binding for e in view.prune_candidates((0, 0))] == [(2, 5)]

    def test_replaced_entries_leave_their_bucket(self):
        store, view = fresh_memo(equality_positions=(0,), use_index=True)
        put(store, view, ("a", 1), payload(), unpromising=True)
        replacement = put(store, view, ("a", 1), payload(), unpromising=False)
        assert store.get(("a", 1)) is replacement
        assert list(view.prune_candidates(("a", 9))) == []
