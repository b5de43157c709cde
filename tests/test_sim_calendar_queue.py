"""CalendarQueue vs HeapEventQueue: pop-order equivalence.

The engine's queue is a calendar queue (bucketed wheel + far-future
overflow heap); :class:`HeapEventQueue`, a plain binary heap, is the
reference it is checked against.  Everything above the queue assumes
pops arrive in exactly ``(at, seq)`` order — these tests pin that
equivalence under randomized schedules, including same-tick
ties, interleaved push/pop, cancellation (tombstones vs true bucket
removal), and entries far beyond the wheel window.
"""

import random

import pytest

from repro.sim.queues import CalendarQueue, HeapEventQueue


def _entry(at, seq, payload=None):
    # the engine's entry shape: [at, seq, fn, args, bucket-slot]
    return [at, seq, payload or (lambda: None), (), None]


def _drain(queue):
    order = []
    while len(queue):
        entry = queue.pop_due()
        if entry is None:
            break
        order.append((entry[0], entry[1]))
    return order


def _random_schedule(rng, n, horizon):
    seq = 0
    entries = []
    for _ in range(n):
        seq += 1
        # cluster some timestamps to force same-tick ties
        at = rng.choice([rng.randrange(horizon),
                         rng.randrange(horizon) // 1000 * 1000])
        entries.append(_entry(at, seq))
    return entries


@pytest.mark.parametrize("seed", [1, 7, 42, 1996])
def test_pop_order_matches_heap(seed):
    rng = random.Random(seed)
    entries = _random_schedule(rng, 500, horizon=CalendarQueue.WIDTH * 40)
    cal, heap = CalendarQueue(), HeapEventQueue()
    for e in entries:
        cal.push([*e[:4], None])
        heap.push([*e[:4], None])
    assert _drain(cal) == _drain(heap)


@pytest.mark.parametrize("seed", [3, 99])
def test_interleaved_push_pop_matches_heap(seed):
    """Pops interleaved with pushes of ever-later entries (the run-loop
    pattern) must agree across implementations."""
    rng = random.Random(seed)
    cal, heap = CalendarQueue(), HeapEventQueue()
    seq = 0
    now = 0
    popped_cal, popped_heap = [], []
    for step in range(300):
        for _ in range(rng.randrange(3)):
            seq += 1
            at = now + rng.randrange(CalendarQueue.WIDTH * 8)
            cal.push(_entry(at, seq))
            heap.push(_entry(at, seq))
        if rng.random() < 0.7:
            a, b = cal.pop_due(), heap.pop_due()
            assert (a is None) == (b is None)
            if a is not None:
                assert (a[0], a[1]) == (b[0], b[1])
                now = a[0]
                popped_cal.append((a[0], a[1]))
                popped_heap.append((b[0], b[1]))
    popped_cal += _drain(cal)
    popped_heap += _drain(heap)
    assert popped_cal == popped_heap


def test_same_tick_ties_pop_in_seq_order():
    cal = CalendarQueue()
    for seq in (5, 2, 9, 1):
        cal.push(_entry(1_000, seq))
    assert _drain(cal) == [(1_000, 1), (1_000, 2), (1_000, 5), (1_000, 9)]


@pytest.mark.parametrize("seed", [11, 23])
def test_cancellation_matches_heap(seed):
    """Cancelled entries never pop with a live callback, and both
    implementations deliver the identical surviving order."""
    rng = random.Random(seed)
    entries = _random_schedule(rng, 400, horizon=CalendarQueue.WIDTH * 30)
    cal, heap = CalendarQueue(), HeapEventQueue()
    cal_entries, heap_entries = [], []
    for e in entries:
        ce, he = [*e[:4], None], [*e[:4], None]
        cal.push(ce)
        heap.push(he)
        cal_entries.append(ce)
        heap_entries.append(he)
    victims = rng.sample(range(len(entries)), len(entries) // 3)
    for i in victims:
        cal.cancel(cal_entries[i])
        heap.cancel(heap_entries[i])

    def drain_live(queue):
        order = []
        while len(queue):
            entry = queue.pop_due()
            if entry is None:
                break
            if entry[2] is not None:
                order.append((entry[0], entry[1]))
        return order

    assert drain_live(cal) == drain_live(heap)
    # every heap-resident cancel tombstone was popped; wheel-resident
    # cancels were removed outright
    assert cal.tombstones == 0
    assert cal.stats()["pending"] == 0
    assert cal.cancelled_removed + cal.tombstones_popped == len(victims)


def test_pop_due_horizon():
    cal, heap = CalendarQueue(), HeapEventQueue()
    for q in (cal, heap):
        q.push(_entry(100, 1))
        q.push(_entry(200, 2))
    for q in (cal, heap):
        assert q.pop_due(until=50) is None
        assert q.pop_due(until=150)[1] == 1
        assert q.pop_due(until=150) is None
        assert q.pop_due(until=None)[1] == 2
        assert q.pop_due() is None


def test_overflow_spill_and_refill():
    """Entries beyond the wheel window go to the overflow heap and come
    back in order once the window re-bases."""
    cal = CalendarQueue(nbuckets=4, width=100)
    far = [_entry(100 * 4 * 50 + i, i + 1) for i in range(5)]
    near = _entry(50, 100)
    for e in far:
        cal.push(e)
    cal.push(near)
    assert cal.overflow_spills == len(far)
    order = _drain(cal)
    assert order[0] == (50, 100)
    assert order[1:] == [(e[0], e[1]) for e in far]
    assert cal.wheel_refills >= 1


def test_double_cancel_is_idempotent():
    cal = CalendarQueue()
    e = _entry(500, 1)
    cal.push(e)
    cal.cancel(e)
    cal.cancel(e)
    assert cal.cancelled_removed + cal.tombstones == 1
