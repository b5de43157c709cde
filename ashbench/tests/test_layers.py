"""Tests for the benchmark's generator-aware span wrappers.

Run from the repository root:  python -m pytest ashbench/tests -q
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

from layers import (  # noqa: E402
    LAYERS, UNATTRIBUTED, Installation, SpanTracer,
)


class FakeClock:
    """Integer nanoseconds that advance only when told to."""

    def __init__(self):
        self.t = 0

    def __call__(self):
        return self.t

    def tick(self, ns):
        self.t += ns


def test_suspended_generator_is_not_charged():
    clock = FakeClock()
    tr = SpanTracer(["outer", "gen"], clock=clock)

    def body():
        clock.tick(5)
        yield "event"
        clock.tick(7)
        return "done"

    wrapped = tr.wrap(body, "gen")
    g = wrapped()
    assert next(g) == "event"
    clock.tick(1000)          # suspended: the simulated event is pending
    try:
        g.send(None)
    except StopIteration as stop:
        assert stop.value == "done"
    tr.stop()
    spent = tr.self_seconds()
    assert spent["gen"] * 1e9 == 12
    assert spent[UNATTRIBUTED] * 1e9 == 1000
    assert tr.call_counts() == {"outer": 0, "gen": 1}


def test_nested_spans_give_self_time():
    clock = FakeClock()
    tr = SpanTracer(["a", "b", "c"], clock=clock)

    def leaf():
        clock.tick(3)

    def inner():
        clock.tick(10)
        yield "wait"          # b's generator suspends inside a
        leaf_w()
        clock.tick(20)

    def outer():
        clock.tick(100)
        yield from inner_w()
        clock.tick(1)

    leaf_w = tr.wrap(leaf, "c")
    inner_w = tr.wrap(inner, "b")
    outer_w = tr.wrap(outer, "a")
    g = outer_w()
    assert next(g) == "wait"
    clock.tick(50)            # nobody runs
    for _ in g:
        pass
    tr.stop()
    ns = {k: round(v * 1e9) for k, v in tr.self_seconds().items()}
    assert ns == {"a": 101, "b": 30, "c": 3, UNATTRIBUTED: 50}
    assert tr.call_counts() == {"a": 1, "b": 1, "c": 1}


def test_throw_and_close_reach_the_wrapped_generator():
    tr = SpanTracer(["g"], clock=FakeClock())
    seen = []

    def body():
        try:
            yield 1
        except KeyError:
            seen.append("caught")
        try:
            yield 2
        finally:
            seen.append("closed")

    g = tr.wrap(body, "g")()
    assert next(g) == 1
    assert g.throw(KeyError()) == 2
    g.close()
    assert seen == ["caught", "closed"]
    assert tr._stack == []


def test_exception_closes_the_span():
    clock = FakeClock()
    tr = SpanTracer(["f"], clock=clock)

    def boom():
        clock.tick(4)
        raise ValueError("x")

    f = tr.wrap(boom, "f")
    try:
        f()
    except ValueError:
        pass
    clock.tick(6)
    tr.stop()
    assert tr.self_seconds() == {"f": 4e-9, UNATTRIBUTED: 6e-9}


def test_traced_world_sums_to_wall_time_and_keeps_the_model():
    from repro.vcode import jit
    from run import build_world
    from worlds import AshRpc

    def run(traced):
        tracer = SpanTracer(LAYERS)
        installed = Installation(tracer) if traced else None
        try:
            world, _, _ = build_world(AshRpc, 3, jit)
            world.start_timed()
            start = tracer.reset()
            world.engine.run(until=world.t_start + 2_000_000_000)  # 2 ms
            wall_ns = tracer.stop() - start
            self_ns, calls = sum(tracer.self_ns), tracer.call_counts()
        finally:
            if installed is not None:
                installed.remove()
        world.finish()
        return world, self_ns, wall_ns, calls

    plain = run(False)[0]
    traced, self_ns, wall_ns, calls = run(True)
    assert self_ns == wall_ns
    # the application bodies were entered at spawn, before the reset
    for layer in ("sim", "kernel.process", "kernel", "hw.nic",
                  "hw.link", "hw.mem", "ash", "vcode"):
        assert calls[layer] > 0, layer
    assert traced.digest() == plain.digest()
    assert traced.failed == 0 and traced.completed > 0
