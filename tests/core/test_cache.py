"""Tests for the NLJP cache: memo lookups, prune candidates, policies."""

import pytest

from repro.core.cache import NLJPCache, entry_bytes


def payload(*groups):
    return tuple(groups)


class TestMemoPath:
    def test_miss_then_hit(self):
        cache = NLJPCache()
        assert cache.get((1, 2)) is None
        cache.put((1, 2), payload(((), (5,))), unpromising=False)
        entry = cache.get((1, 2))
        assert entry is not None and entry.payload == (((), (5,)),)
        assert cache.lookups == 2 and cache.hits == 1

    def test_hit_counts_per_entry(self):
        cache = NLJPCache()
        cache.put((1,), payload(), unpromising=True)
        cache.get((1,))
        cache.get((1,))
        assert cache.get((1,)).hits == 3

    def test_rows(self):
        cache = NLJPCache()
        cache.put((1,), payload(), unpromising=True)
        cache.put((2,), payload(), unpromising=False)
        assert cache.rows == 2
        assert len(cache) == 2


class TestPruneCandidates:
    def test_only_unpromising_entries(self):
        cache = NLJPCache()
        cache.put((1,), payload(), unpromising=True)
        cache.put((2,), payload(((), (1,))), unpromising=False)
        candidates = list(cache.prune_candidates((9,)))
        assert [entry.binding for entry in candidates] == [(1,)]

    def test_equality_bucket_index(self):
        cache = NLJPCache(equality_positions=(0,), use_index=True)
        cache.put(("a", 1), payload(), unpromising=True)
        cache.put(("b", 2), payload(), unpromising=True)
        candidates = list(cache.prune_candidates(("a", 9)))
        assert [e.binding for e in candidates] == [("a", 1)]

    def test_without_index_scans_all(self):
        cache = NLJPCache(equality_positions=(0,), use_index=False)
        cache.put(("a", 1), payload(), unpromising=True)
        cache.put(("b", 2), payload(), unpromising=True)
        assert len(list(cache.prune_candidates(("a", 9)))) == 2

    def test_order_index_narrows(self):
        cache = NLJPCache(order_position=0, use_index=True)
        for value in (1, 3, 5, 7):
            cache.put((value,), payload(), unpromising=True)
        candidates = list(cache.prune_candidates((0,), low=4))
        assert sorted(e.binding[0] for e in candidates) == [5, 7]
        candidates = list(cache.prune_candidates((0,), high=3, high_strict=True))
        assert sorted(e.binding[0] for e in candidates) == [1]

    def test_order_index_unbounded_falls_back(self):
        cache = NLJPCache(order_position=0, use_index=True)
        cache.put((1,), payload(), unpromising=True)
        assert len(list(cache.prune_candidates((0,)))) == 1


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
        cache = NLJPCache(**config)
        for position, value in enumerate((5, 1, 7, 3, 7, 9)):
            cache.put(("ab"[position % 2], value, position), payload(), unpromising=True)
        cache.put(("a", 4, 99), payload(((), (1,))), unpromising=False)
        binding = ("a", 4, -1)
        bounds = dict(low=3, high=7, high_strict=True)
        candidates = cache.prune_candidates(binding, **bounds)
        assert len(candidates) >= 2
        seen = []

        def never(new, cached):
            seen.append(cached)
            return False

        assert cache.first_pruner(binding, never, **bounds) == (len(candidates), None)
        assert seen == [entry.binding for entry in candidates]
        for stop_at, target in enumerate(candidates, start=1):
            checks, hit = cache.first_pruner(
                binding,
                lambda new, cached, wanted=target.binding: cached == wanted,
                **bounds,
            )
            assert (checks, hit) == (stop_at, target)

    def test_empty_cache_checks_nothing(self):
        assert NLJPCache().first_pruner((1,), lambda new, cached: True) == (0, None)

    def test_test_receives_new_then_cached(self):
        cache = NLJPCache()
        cache.put((1,), payload(), unpromising=True)
        calls = []
        cache.first_pruner((2,), lambda new, cached: calls.append((new, cached)))
        assert calls == [((2,), (1,))]


class TestReplacement:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            NLJPCache(policy="fifo")
        with pytest.raises(ValueError):
            NLJPCache(policy="lru")  # needs max_entries

    def test_lru_evicts_oldest(self):
        cache = NLJPCache(max_entries=2, policy="lru")
        cache.put((1,), payload(), unpromising=False)
        cache.put((2,), payload(), unpromising=False)
        cache.get((1,))  # refresh 1
        cache.put((3,), payload(), unpromising=False)
        assert cache.get((1,)) is not None
        assert cache.get((2,)) is None
        assert cache.evictions == 1

    def test_utility_evicts_least_hit(self):
        cache = NLJPCache(max_entries=2, policy="utility")
        cache.put((1,), payload(), unpromising=False)
        cache.put((2,), payload(), unpromising=False)
        cache.get((2,))
        cache.put((3,), payload(), unpromising=False)
        assert cache.get((2,)) is not None
        assert cache.get((1,)) is None

    def test_eviction_cleans_prune_structures(self):
        cache = NLJPCache(max_entries=1, policy="lru", order_position=0)
        cache.put((1,), payload(), unpromising=True)
        cache.put((2,), payload(), unpromising=True)
        candidates = list(cache.prune_candidates((0,), low=0))
        assert [e.binding for e in candidates] == [(2,)]
        assert len(cache._unpromising_all) == 1


class TestFootprint:
    def test_bytes_grow_with_payload(self):
        small = NLJPCache()
        small.put((1,), payload(), unpromising=True)
        big = NLJPCache()
        big.put(
            ("some-long-binding-value", 2),
            payload((("g",), (1, 2.5, (3, 4)))),
            unpromising=False,
        )
        assert big.estimated_bytes() > small.estimated_bytes()

    def test_incremental_bytes_match_per_entry_sizes(self):
        """bytes_used is exactly the sum of entry_bytes over entries."""
        cache = NLJPCache()
        assert cache.estimated_bytes() == 0
        expected = 0
        for i in range(5):
            entry = cache.put(
                (i, f"key{i}"), payload(((i,), (i * 2, 2.5))), unpromising=i % 2 == 0
            )
            expected += entry_bytes(entry)
            assert cache.estimated_bytes() == expected

    def test_overwrite_replaces_footprint(self):
        cache = NLJPCache()
        cache.put((1,), payload((("x" * 50,), (1,))), unpromising=False)
        before = cache.estimated_bytes()
        entry = cache.put((1,), payload(), unpromising=False)
        assert cache.estimated_bytes() == entry_bytes(entry) < before

    def test_eviction_releases_bytes(self):
        cache = NLJPCache(max_entries=2, policy="lru")
        cache.put((1,), payload((("a",), (1,))), unpromising=False)
        cache.put((2,), payload((("b",), (2,))), unpromising=False)
        cache.put((3,), payload((("c",), (3,))), unpromising=False)
        assert cache.estimated_bytes() == sum(
            entry_bytes(cache.get(b)) for b in ((2,), (3,))
        )

    def test_evict_until_honours_keep(self):
        cache = NLJPCache()
        for i in range(4):
            kept = cache.put((i,), payload(((i,), (i,))), unpromising=True)
        evicted = cache.evict_until(0, keep=kept)
        assert evicted == 3
        assert cache.get((3,)) is kept
        assert cache.estimated_bytes() == entry_bytes(kept)
        # The kept entry alone still exceeds the budget: no progress.
        assert cache.evict_until(0, keep=kept) == 0

    def test_clear_zeroes_everything(self):
        cache = NLJPCache(order_position=0)
        cache.put((1,), payload(), unpromising=True)
        cache.put((2,), payload(), unpromising=False)
        cache.clear()
        assert len(cache) == 0
        assert cache.estimated_bytes() == 0
        assert list(cache.prune_candidates((0,), low=0)) == []


class TestReplacedEntries:
    """``put`` over a cached binding forgets the entry it replaces: the
    pruning lists hold exactly the dict's unpromising entries."""

    def test_replaced_entries_leave_the_pruning_lists(self):
        # A pruning-only plan on a pinned cache re-inserts a binding
        # with a NULL attribute on every execution (p⪰ is false on
        # NULL, so it never prunes itself).
        cache = NLJPCache(order_position=0)
        for _ in range(3):
            cache.put((None, 5), payload(), unpromising=True)
            cache.put((1, 5), payload(), unpromising=True)
        assert len(cache) == 2
        assert [e.binding for e in cache.prune_candidates((0, 0))] == [
            (None, 5),
            (1, 5),
        ]
        assert [e.binding for e in cache.prune_candidates((0, 0), low=0)] == [(1, 5)]

    def test_replaced_then_evicted_is_no_candidate(self):
        cache = NLJPCache(max_entries=1, policy="lru")
        cache.put((1, 5), payload(), unpromising=True)
        cache.put((1, 5), payload(), unpromising=True)
        cache.put((2, 5), payload(), unpromising=True)
        assert len(cache) == 1
        assert [e.binding for e in cache.prune_candidates((0, 0))] == [(2, 5)]

    def test_replaced_entries_leave_their_bucket(self):
        cache = NLJPCache(equality_positions=(0,), use_index=True)
        cache.put(("a", 1), payload(), unpromising=True)
        replacement = cache.put(("a", 1), payload(), unpromising=False)
        assert cache.get(("a", 1)) is replacement
        assert list(cache.prune_candidates(("a", 9))) == []
