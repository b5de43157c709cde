"""Unit tests for the direct-mapped write-through cache model."""

import random

import pytest

import repro.hw.cache as cache_mod
from repro.hw.cache import DirectMappedCache
from repro.hw.calibration import Calibration


@pytest.fixture
def cache():
    return DirectMappedCache(Calibration())


def test_cold_load_misses(cache):
    stall = cache.load(0x100, 4)
    assert stall == cache.cal.miss_penalty_cycles
    assert cache.misses == 1


def test_warm_load_hits(cache):
    cache.load(0x100, 4)
    stall = cache.load(0x104, 4)  # same 16-byte line
    assert stall == 0
    assert cache.hits == 1


def test_load_spanning_lines_charges_each_line(cache):
    stall = cache.load(0x100, 64)  # 4 lines
    assert stall == 4 * cache.cal.miss_penalty_cycles


def test_unaligned_range_touches_extra_line(cache):
    stall = cache.load(0x108, 16)  # straddles two lines
    assert stall == 2 * cache.cal.miss_penalty_cycles


def test_store_never_stalls(cache):
    assert cache.store(0x200, 4) == 0


def test_store_installs_line_for_later_load(cache):
    cache.store(0x200, 16)
    assert cache.load(0x200, 4) == 0


def test_store_install_disabled_by_calibration():
    cal = Calibration(store_installs_line=False)
    cache = DirectMappedCache(cal)
    cache.store(0x200, 16)
    assert cache.load(0x200, 4) == cal.miss_penalty_cycles


def test_flush_range_forces_remisses(cache):
    cache.load(0x1000, 4096)
    cache.flush_range(0x1000, 4096)
    stall = cache.load(0x1000, 16)
    assert stall == cache.cal.miss_penalty_cycles


def test_flush_range_leaves_other_lines(cache):
    cache.load(0x1000, 16)
    cache.load(0x2000, 16)
    cache.flush_range(0x1000, 16)
    assert not cache.contains(0x1000)
    assert cache.contains(0x2000)


def test_direct_mapped_conflict_eviction(cache):
    cal = cache.cal
    a = 0x0
    b = cal.cache_size  # maps to the same set as a
    cache.load(a, 4)
    cache.load(b, 4)
    # b evicted a: loading a again misses.
    assert cache.load(a, 4) == cal.miss_penalty_cycles


def test_miss_count_range_is_pure(cache):
    assert cache.miss_count_range(0x0, 64) == 4
    # No state was updated:
    assert cache.miss_count_range(0x0, 64) == 4
    cache.load(0x0, 64)
    assert cache.miss_count_range(0x0, 64) == 0


def test_whole_buffer_fits_4096(cache):
    # The paper's 4096-byte message is 256 lines; after one traversal all hit.
    assert cache.load(0, 4096) == 256 * cache.cal.miss_penalty_cycles
    assert cache.load(0, 4096) == 0


def test_flush_all(cache):
    cache.load(0, 4096)
    cache.flush_all()
    assert cache.miss_count_range(0, 4096) == 256


def test_zero_size_accesses_free(cache):
    assert cache.load(0x100, 0) == 0
    assert cache.store(0x100, 0) == 0
    cache.flush_range(0x100, 0)


# -- vector path vs the scalar reference walk ----------------------------------

def _apply(cache: DirectMappedCache, ops: list) -> list:
    calls = {"load": lambda a, n: cache.touch_range(a, n, is_store=False),
             "store": lambda a, n: cache.touch_range(a, n, is_store=True),
             "miss": cache.miss_count_range, "flush": cache.flush_range}
    return [calls[op](addr, size) for op, addr, size in ops]


@pytest.mark.parametrize("installs", [True, False])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_vector_path_matches_scalar_walk(monkeypatch, installs, seed):
    """Randomized loads, stores, miss counts and flushes over an address
    space four times the cache (so sets conflict), with ranges from a
    few bytes up to three times the cache (so they wrap, ``nl >
    nlines``), give the same stalls, hit/miss counters and final tag
    array whether wide ranges take the numpy path or — cutoff raised
    past any range — the scalar walk."""
    cal = Calibration(cache_size=1024, store_installs_line=installs)
    vec, ref = DirectMappedCache(cal), DirectMappedCache(cal)
    rng = random.Random(seed)
    line, nlines = vec.line, vec.nlines
    ops = [(rng.choice(("load", "store", "miss", "flush")),
            rng.randrange(4 * nlines * line),
            rng.randrange(1, rng.choice((16, 3 * nlines)) * line))
           for _ in range(400)]
    # the sequence exercises every wide branch, wrapping ones included
    for kind in ("load", "store", "miss", "flush"):
        assert any(op == kind and vec._span(a, n)[1] > nlines
                   for op, a, n in ops), kind

    got = _apply(vec, ops)
    monkeypatch.setattr(cache_mod, "_SCALAR_CUTOFF", 1 << 62)
    assert _apply(ref, ops) == got
    assert (vec.hits, vec.misses) == (ref.hits, ref.misses)
    assert list(vec._tags) == list(ref._tags)
    assert vec.hits > 0 and vec.misses > 0
