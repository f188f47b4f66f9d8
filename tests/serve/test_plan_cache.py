"""The shared plan cache: tokens, LRU, invalidation accounting."""

from repro.serve.plan_cache import PlanCache

import pytest

MASK = frozenset({"apriori", "memprune"})


def test_miss_store_hit():
    cache = PlanCache(max_entries=4)
    token = (1, 0, 0)
    assert cache.lookup("SELECT 1", MASK, token) is None
    entry = cache.store("SELECT 1", MASK, token, optimized="plan")
    found = cache.lookup("SELECT 1", MASK, token)
    assert found is entry
    assert found.optimized == "plan"
    assert found.hits == 1
    assert cache.stats() == {
        "entries": 1, "hits": 1, "misses": 1, "invalidations": 0, "evictions": 0,
        "flights": 0, "flight_waits": 0,
    }


def test_stale_token_invalidates_lazily():
    cache = PlanCache(max_entries=4)
    cache.store("SELECT 1", MASK, (1, 5, 2), optimized="old")
    # Data version moved (an insert happened): the entry is dropped at
    # lookup time and the caller re-optimizes.
    assert cache.lookup("SELECT 1", MASK, (1, 6, 2)) is None
    assert cache.stats()["invalidations"] == 1
    assert len(cache) == 0
    cache.store("SELECT 1", MASK, (1, 6, 2), optimized="new")
    assert cache.lookup("SELECT 1", MASK, (1, 6, 2)).optimized == "new"


def test_distinct_technique_masks_are_distinct_entries():
    cache = PlanCache(max_entries=4)
    token = (0, 0, 0)
    cache.store("SELECT 1", MASK, token, optimized="full")
    cache.store("SELECT 1", frozenset({"apriori"}), token, optimized="degraded")
    assert cache.lookup("SELECT 1", MASK, token).optimized == "full"
    assert (
        cache.lookup("SELECT 1", frozenset({"apriori"}), token).optimized
        == "degraded"
    )


def test_lru_eviction_prefers_recently_used():
    cache = PlanCache(max_entries=2)
    token = (0, 0, 0)
    cache.store("a", MASK, token, optimized=1)
    cache.store("b", MASK, token, optimized=2)
    cache.lookup("a", MASK, token)  # refresh "a"
    cache.store("c", MASK, token, optimized=3)  # evicts "b"
    assert cache.lookup("a", MASK, token) is not None
    assert cache.lookup("b", MASK, token) is None
    assert cache.stats()["evictions"] == 1


def test_discard_and_invalidate_all():
    cache = PlanCache(max_entries=4)
    token = (0, 0, 0)
    cache.store("a", MASK, token, optimized=1)
    cache.store("b", MASK, token, optimized=2)
    assert cache.discard("a", MASK)
    assert not cache.discard("a", MASK)
    assert cache.invalidate_all() == 1
    assert len(cache) == 0
    assert cache.stats()["invalidations"] == 2


def test_entries_carry_an_execution_lock():
    cache = PlanCache()
    entry = cache.store("a", MASK, (0, 0, 0), optimized=1)
    with entry.lock:  # usable as a context manager, reentrant
        with entry.lock:
            pass


def test_validation():
    with pytest.raises(ValueError, match="max_entries"):
        PlanCache(max_entries=0)


# ---------------------------------------------------------------------------
# The never-hit allowance: one-shot statements cannot flush proven plans
# ---------------------------------------------------------------------------

TOKEN = (0, 0, 0)


def _never_hit(cache):
    return [key for key, entry in cache._entries.items() if entry.hits == 0]


def test_allowance_is_an_eighth_with_a_floor_of_eight():
    assert PlanCache(max_entries=64).never_hit_allowance == 8
    assert PlanCache(max_entries=256).never_hit_allowance == 32
    assert PlanCache(max_entries=2).never_hit_allowance == 8


def test_one_shot_stores_never_evict_an_entry_that_has_been_hit():
    cache = PlanCache(max_entries=64)
    hot = [f"hot {i}" for i in range(8)]
    for sql in hot:
        cache.store(sql, MASK, TOKEN, optimized=sql)
        assert cache.lookup(sql, MASK, TOKEN) is not None
    for i in range(200):
        cache.store(f"one-shot {i}", MASK, TOKEN, optimized=i)
        assert len(_never_hit(cache)) <= cache.never_hit_allowance
        assert len(cache) <= 8 + cache.never_hit_allowance
    for sql in hot:
        assert cache.lookup(sql, MASK, TOKEN).optimized == sql
    # The survivors on probation are the newest one-shots.
    assert [sql for sql, _ in _never_hit(cache)] == [
        f"one-shot {i}" for i in range(192, 200)
    ]
    stats = cache.stats()
    assert stats["evictions"] == 192  # every one a probation eviction
    assert stats["entries"] == 16


def test_a_hit_promotes_an_entry_out_of_probation():
    cache = PlanCache(max_entries=64)
    for i in range(8):
        cache.store(f"s{i}", MASK, TOKEN, optimized=i)
    assert cache.lookup("s0", MASK, TOKEN) is not None  # s0 has proven itself
    cache.store("s8", MASK, TOKEN, optimized=8)  # 8 never-hit: within allowance
    assert cache.stats()["evictions"] == 0
    cache.store("s9", MASK, TOKEN, optimized=9)  # ninth never-hit: s1 goes
    assert cache.lookup("s1", MASK, TOKEN) is None
    assert cache.lookup("s0", MASK, TOKEN) is not None
    assert cache.stats()["evictions"] == 1


def test_hit_entries_still_leave_in_lru_order_when_the_cache_is_full():
    cache = PlanCache(max_entries=16)
    for i in range(16):
        cache.store(f"s{i}", MASK, TOKEN, optimized=i)
        cache.lookup(f"s{i}", MASK, TOKEN)
    cache.lookup("s0", MASK, TOKEN)  # refresh: s1 is now least recent
    cache.store("new", MASK, TOKEN, optimized="new")
    assert cache.lookup("s1", MASK, TOKEN) is None
    assert cache.lookup("s0", MASK, TOKEN) is not None
    assert cache.lookup("new", MASK, TOKEN) is not None


@pytest.mark.parametrize("max_entries", [1, 2, 5, 8])
def test_small_caches_keep_plain_lru_order(max_entries):
    """``max_entries <= 8`` is all allowance: the victim is always the
    least recently used entry, hit or not — a replay against an LRU
    model with a seeded mix of stores and lookups."""
    import random
    from collections import OrderedDict

    rng = random.Random(max_entries)
    cache = PlanCache(max_entries=max_entries)
    model: "OrderedDict[str, int]" = OrderedDict()
    evictions = 0
    for step in range(400):
        sql = f"s{rng.randrange(max_entries * 2)}"
        if rng.random() < 0.5:
            found = cache.lookup(sql, MASK, TOKEN)
            assert (found is not None) == (sql in model)
            if sql in model:
                model.move_to_end(sql)
        else:
            cache.store(sql, MASK, TOKEN, optimized=step)
            model[sql] = step
            model.move_to_end(sql)
            if len(model) > max_entries:
                model.popitem(last=False)
                evictions += 1
        assert [sql for sql, _ in cache._entries] == list(model)
    assert cache.stats()["evictions"] == evictions > 0
