"""Host-time attribution by layer: generator-aware span wrappers.

The benchmark installs these wrappers around each layer's entry points
for the traced run only; no code under ``src/`` changes.  A wrapped
plain function is one span per call.  A wrapped generator function is
charged only while its generator runs: every ``send``/``throw`` into it
opens the span and every ``yield`` out of it closes the span, so time a
process spends suspended on a simulated event is not charged to the
layer that suspended it.

Self time is kept by transition accounting: at each span boundary the
host time since the previous boundary is charged to the innermost open
span (or to ``unattributed`` when none is open).  That equals span time
minus child-span time, and the self times plus the unattributed time
add up exactly to the wall time between :meth:`SpanTracer.reset` and
:meth:`SpanTracer.stop`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Callable, Iterable

#: (layer, module, names).  A class name wraps every plain, static and
#: class method the class itself defines (dunders and properties
#: excluded); ``Class.method`` wraps one method; any other name is a
#: module-level function, rebound in every ``repro`` module that
#: imported it by name.
LAYER_TARGETS: list[tuple[str, str, tuple[str, ...]]] = [
    ("sim", "repro.sim.engine", ("Engine.run",)),
    ("app", "repro.kernel.process", ("Process._wrapper",)),
    ("kernel.process", "repro.kernel.process", (
        "Process.compute", "Process.compute_us", "Process.syscall_enter",
        "Process.syscall_exit", "Process.block_on", "Process.poll")),
    ("kernel.process", "repro.hw.cpu", ("Cpu",)),
    ("kernel.process", "repro.kernel.scheduler", ("RoundRobinScheduler",)),
    ("kernel", "repro.kernel.kernel", ("Kernel",)),
    ("kernel", "repro.kernel.syscalls", ("SyscallInterface",)),
    ("kernel", "repro.kernel.dpf", ("DpfEngine",)),
    ("kernel", "repro.kernel.upcall", ("UpcallManager",)),
    ("hw.nic", "repro.hw.nic.base", ("Nic", "PacketBufPool", "PacketBuf")),
    ("hw.nic", "repro.hw.nic.an2", ("An2Nic", "VcBinding")),
    ("hw.nic", "repro.hw.nic.rss", ("RssDispatcher", "fnv1a32", "flow_key")),
    ("hw.link", "repro.hw.link", ("Link",)),
    ("hw.mem", "repro.hw.memory", ("PhysicalMemory",)),
    ("hw.mem", "repro.hw.cache", ("DirectMappedCache",)),
    ("ash", "repro.ash.system", ("AshSystem",)),
    ("ash", "repro.ash.interface", ("build_handler_env",)),
    ("sandbox", "repro.sandbox.rewriter", ("Sandboxer",)),
    ("sandbox", "repro.sandbox.verifier", ("verify", "has_loops")),
    ("sandbox", "repro.sandbox.budget", (
        "BudgetAccount", "budget_cycles", "straightline_cycle_bound")),
    ("vcode", "repro.vcode.vm", ("Vm",)),
    ("vcode", "repro.vcode.jit", (
        "get_compiled", "program_fingerprint", "_translate")),
    ("pipes", "repro.pipes.compiler", ("IntegratedPipeline", "compile_pl")),
    ("pipes", "repro.pipes.kernels", (
        "apply_pipe_at_gauge", "gather_striped", "scatter_striped")),
    ("pipes", "repro.pipes.pipelist", ("PipeList",)),
    ("net.tcp", "repro.net.tcp.tcp", ("TcpConnection",)),
    ("net.tcp", "repro.net.tcp.sack", ("SackScoreboard", "ReassemblyQueue")),
    ("net.tcp", "repro.net.tcp.segment", ("build_segment", "parse_segment")),
    ("net.tcp", "repro.net.tcp.tcb", ("Tcb",)),
    ("net.tcp", "repro.net.tcp.fastpath", (
        "setup_fastpath", "build_tcp_fastpath")),
    ("net.udp", "repro.net.udp", ("UdpSocket",)),
    ("net.checksum", "repro.net.checksum", (
        "swab16", "ones_complement_add16", "inet_checksum",
        "inet_checksum_numpy", "inet_checksum_final", "le_word_sum",
        "le_fold_final")),
    ("net", "repro.net.stack", ("NetStack",)),
    ("net", "repro.net.datapath", ("DataPath",)),
    ("net", "repro.net.headers", (
        "Ipv4Header", "UdpHeader", "TcpHeader", "pseudo_header",
        "parse_tcp_options", "sack_option")),
    ("net", "repro.net.ip", ("build_packets", "Reassembler")),
    ("telemetry", "repro.telemetry.hub", ("Telemetry",)),
    ("telemetry", "repro.telemetry.metrics", (
        "Counter", "Gauge", "Histogram", "MetricsRegistry")),
    ("telemetry", "repro.telemetry.spans", ("Span", "SpanTracker", "span_of")),
    ("telemetry", "repro.telemetry.slo", ("FlowStats", "SloTracker")),
    ("telemetry", "repro.telemetry.flightrec", ("FlightRecorder",)),
    ("telemetry", "repro.telemetry.tracecontext", (
        "attach_tx_context", "adopt_rx_context")),
    ("telemetry", "repro.sim.trace", ("Tracer",)),
    ("telemetry", "repro.hw.node", ("Node.trace",)),
]

#: every layer, in report order
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(t[0] for t in LAYER_TARGETS))

UNATTRIBUTED = "unattributed"


class SpanTracer:
    """Per-layer self time and exact call counts.

    ``clock`` returns integer nanoseconds; tests pass a fake one.
    """

    def __init__(self, layers: Iterable[str],
                 clock: Callable[[], int] = time.perf_counter_ns):
        self.layers = tuple(layers)
        self.index = {name: i for i, name in enumerate(self.layers)}
        self.clock = clock
        n = len(self.layers)
        self.self_ns = [0] * (n + 1)
        self.calls = [0] * n
        self._stack: list[int] = []
        self._cur = n
        self.reset()

    def reset(self) -> int:
        """Zero every total and restart the clock; returns the start
        time.  Call with no span open."""
        n = len(self.layers)
        # zeroed in place: the wrappers hold these lists
        self.self_ns[:] = [0] * (n + 1)   # last slot: unattributed
        self.calls[:] = [0] * n
        self.start_ns = self._last = self.clock()
        return self.start_ns

    def stop(self) -> int:
        """Charge the time since the last boundary; returns the stop
        time (the wall time covered is ``stop - start_ns``)."""
        t = self.clock()
        self.self_ns[self._cur] += t - self._last
        self._last = t
        return t

    def enter(self, i: int) -> None:
        t = self.clock()
        self.self_ns[self._cur] += t - self._last
        self._last = t
        self._stack.append(self._cur)
        self._cur = i

    def exit(self) -> None:
        t = self.clock()
        self.self_ns[self._cur] += t - self._last
        self._last = t
        self._cur = self._stack.pop()

    # -- wrappers ------------------------------------------------------------
    def wrap(self, fn: Callable, layer: str) -> Callable:
        """A span-recording stand-in for ``fn``."""
        i = self.index[layer]
        calls = self.calls
        enter, exit_ = self.enter, self.exit

        if inspect.isgeneratorfunction(fn):
            drive = self._drive

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                calls[i] += 1
                return drive(fn(*args, **kwargs), i)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[i] += 1
            enter(i)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()
        return wrapper

    def _drive(self, gen, i: int):
        """Run ``gen`` as ``yield from`` would, inside the span only
        while it executes."""
        enter, exit_ = self.enter, self.exit
        send, throw = gen.send, gen.throw
        value = None
        exc = None
        while True:
            enter(i)
            try:
                if exc is None:
                    target = send(value)
                else:
                    pending, exc = exc, None
                    target = throw(pending)
            except StopIteration as stop:
                return stop.value
            finally:
                exit_()
            try:
                value = yield target
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as e:  # forwarded into gen, as yield from
                exc = e

    # -- results -------------------------------------------------------------
    def self_seconds(self) -> dict[str, float]:
        out = {name: self.self_ns[i] / 1e9
               for i, name in enumerate(self.layers)}
        out[UNATTRIBUTED] = self.self_ns[-1] / 1e9
        return out

    def call_counts(self) -> dict[str, int]:
        return dict(zip(self.layers, self.calls))


class Installation:
    """Wrap the :data:`LAYER_TARGETS` entry points; undo with
    :meth:`remove`.  Build the traced world after installing: objects
    that stored a bound method before would bypass the wrapper."""

    def __init__(self, tracer: SpanTracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []
        for layer, modname, names in LAYER_TARGETS:
            module = importlib.import_module(modname)
            for name in names:
                self._install(layer, module, name)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _install(self, layer: str, module, name: str) -> None:
        cls_name, _, meth = name.partition(".")
        obj = getattr(module, cls_name)
        if meth:
            self._wrap_member(layer, obj, meth)
        elif inspect.isclass(obj):
            for attr, raw in list(obj.__dict__.items()):
                if not (attr.startswith("__") and attr.endswith("__")):
                    self._wrap_member(layer, obj, attr, raw)
        else:
            wrapped = self.tracer.wrap(obj, layer)
            for mod in list(sys.modules.values()):
                if (getattr(mod, "__name__", "") or "").startswith("repro") \
                        and mod.__dict__.get(name) is obj:
                    self._set(mod, name, wrapped)

    def _wrap_member(self, layer: str, cls, attr: str, raw=None) -> None:
        raw = cls.__dict__[attr] if raw is None else raw
        if isinstance(raw, staticmethod):
            new = staticmethod(self.tracer.wrap(raw.__func__, layer))
        elif isinstance(raw, classmethod):
            new = classmethod(self.tracer.wrap(raw.__func__, layer))
        elif inspect.isfunction(raw):
            new = self.tracer.wrap(raw, layer)
        else:
            return  # properties, constants, nested classes
        self._set(cls, attr, new)

    def remove(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()
