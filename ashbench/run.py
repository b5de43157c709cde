#!/usr/bin/env python3
"""The repository benchmark: one workload per process, one JSON line out.

    python3 ashbench/run.py --workload ash_rpc --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics: an untraced timed phase, then the same seed and
simulated work again with span wrappers on every layer (see
``layers.py``); the two must leave identical simulated observables.

The last stdout line is ``{"correct", "attempted", "failed",
"metrics"}``; the full record (host description, digest, per-layer
call counts) goes to ``ashbench/out/``.  Exit status is 0 when the run
completed, whether or not its outputs were correct.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

#: the benchmark measures the default engines; it never picks one
ENGINE_KNOBS = ("REPRO_SIM_SUBSTRATE", "REPRO_VCODE_ENGINE")

#: world builds per run; setup_s is their median
SETUP_REPS = 3
#: the traced run simulates this share of the untraced timed phase, so
#: untraced + traced together take about ``--seconds`` host seconds
TRACE_SHARE = 0.25
#: host CPU seconds of one :class:`Calibration` pass on the reference
#: machine (2-core Xeon VM, CPython 3.11.7)
CAL_REF_S = 0.005


def _host() -> dict:
    model = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "cpu": model}


def _pct(sorted_xs: list[int], q: float) -> float:
    """Nearest-rank percentile."""
    k = max(0, min(len(sorted_xs) - 1, int(q * len(sorted_xs) + 0.5) - 1))
    return sorted_xs[k]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def build_world(cls, seed: int, jit):
    """One cold world build: the JIT code cache is emptied first, so
    every build pays translation as a fresh process would."""
    gc.collect()
    jit.clear_code_cache()
    jit.stats.reset()
    t0 = time.process_time()
    world = cls(seed)
    world.build()
    return world, time.process_time() - t0, jit.stats.misses


class Calibration:
    """A miniature discrete-event loop written independently of the
    program: a heap of timestamped entries resuming generators, with
    dict lookups and object allocation over a 50,000-entry table.
    Calling it returns the host CPU seconds one fixed pass takes: the
    host's speed right now, for code shaped like a simulator."""

    __slots__ = ("table", "keys")

    class _Obj:
        __slots__ = ("a", "b")

        def __init__(self, a):
            self.a = a
            self.b = None

    def __init__(self):
        rng = random.Random(0)
        self.table = {i * 7919: self._Obj(i) for i in range(50_000)}
        self.keys = [rng.randrange(50_000) * 7919 for _ in range(4_000)]

    def __call__(self) -> float:
        def proc(k):
            x = 0
            while True:
                x = yield (k * 7 + x) % 97 + 1

        t0 = time.process_time()
        heap, seq = [], 0
        gens = [proc(k) for k in range(256)]
        for k, g in enumerate(gens):
            next(g)
            seq += 1
            heapq.heappush(heap, [k, seq, k])
        table, obj = self.table, self._Obj
        for key in self.keys:
            entry = heapq.heappop(heap)
            delay = gens[entry[2]].send(entry[0] & 15)
            table[key].b = obj(delay)
            seq += 1
            heapq.heappush(heap, [entry[0] + delay, seq, entry[2]])
        return time.process_time() - t0


def timed_phase(world, nslices: int, calibrate):
    """Advance ``nslices`` fixed simulated-time slices, each bracketed
    by calibration passes; returns per-slice op rates, per-slice host
    CPU seconds, per-slice calibration seconds (before, after) and
    ops."""
    gc.collect()
    world.start_timed()
    slice_ps = int(world.slice_us * 1_000_000)
    rates, times, cals = [], [], []
    cal = calibrate()
    for s in range(nslices):
        before = world.completed
        t0 = time.process_time()
        world.engine.run(until=world.t_start + (s + 1) * slice_ps)
        dt = time.process_time() - t0
        after = calibrate()
        rates.append((world.completed - before) / dt if dt > 0 else 0.0)
        times.append(dt)
        cals.append((cal, after))
        cal = after
    return rates, times, cals, world.completed


def _scaled(host_s: float, cal_before: float, cal_after: float) -> float:
    """Host CPU seconds converted to reference-host seconds."""
    return host_s * CAL_REF_S / ((cal_before + cal_after) / 2)


def end_to_end(cls, seed: int, seconds: int, jit, calibrate):
    # the measured world is the first one built, so peak RSS is that of
    # one world; further builds after it only time the set-up
    cal = calibrate()
    world, setup_s, translations = build_world(cls, seed, jit)
    setups = [_scaled(setup_s, cal, calibrate())]
    raw_setups = [setup_s]
    nslices = max(1, round(seconds * cls.slices_per_second))
    rates, times, cals, ops = timed_phase(world, nslices, calibrate)
    world.finish()
    peak_rss = _peak_rss_mb()
    digest = world.digest()
    scaled = [r * (a + b) / 2 / CAL_REF_S for r, (a, b) in zip(rates, cals)]
    rtt = sorted(world.rtt_ps)
    lag = sorted(world.lag_ps)
    sim_s = (world.t_stop - world.t_start) / 1e12
    m = {
        "setup_s": None,
        "host_ops_per_s": (statistics.median(scaled), "1/s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "sim_rtt_p50_us": (_pct(rtt, 0.50) / 1e6 if rtt else 0.0, "us"),
        "sim_rtt_p99_us": (_pct(rtt, 0.99) / 1e6 if rtt else 0.0, "us"),
        "sim_gen_lag_p99_us": (_pct(lag, 0.99) / 1e6 if lag else 0.0, "us"),
        "sim_goodput_mbps": (world.payload_bytes / sim_s / 1e6, "MB/s"),
    }
    info = {
        "sim_digest": digest,
        "attempted": world.attempted,
        "failed": world.failed,
        "error_rate": world.failed / max(1, world.attempted),
        "slices": nslices,
        "slice_sim_us": cls.slice_us,
        "timed_host_s": sum(times),
        "host_ops_per_s_unscaled": statistics.median(rates),
        "slice_rates": rates,
        "slice_cals": cals,
        "timed_ops": ops,
        "rtt_samples": len(rtt),
        "lag_samples": len(lag),
        "sim_timed_s": sim_s,
        "jit_translations": translations,
    }
    del world
    for _ in range(SETUP_REPS - 1):
        cal = calibrate()
        world, setup_s, _ = build_world(cls, seed, jit)
        setups.append(_scaled(setup_s, cal, calibrate()))
        raw_setups.append(setup_s)
        del world
    m["setup_s"] = (statistics.median(setups), "s")
    info["setup_runs_s"] = setups
    info["setup_runs_unscaled_s"] = raw_setups
    return m, info


# -- per-layer counters read from the public stats ----------------------------

def _counters(world) -> dict:
    """Cumulative model counters; the per-layer metrics use the
    timed-phase difference of two snapshots."""
    eng = world.engine.stats()
    c = {
        "now": world.engine.now,
        "fired": eng["fired"],
        "inlined": eng["inlined"],
        "cancelled": eng["cancelled"],
        "spills": eng["queue"].get("overflow_spills", 0),
        "rx_interrupts": 0, "context_switches": 0,
        "deliveries": 0, "ash_deliveries": 0, "ash_aborts": 0,
        "rx_dropped": 0, "cache_hits": 0, "cache_misses": 0,
        "busy": [], "steered": [],
        "retransmits": 0, "fastpath": 0, "library_segments": 0,
    }
    for node in world.nodes:
        ks = node.kernel.stats()
        c["rx_interrupts"] += ks["rx_interrupts"]
        c["context_switches"] += ks["context_switches"]
        c["deliveries"] += sum(ks["delivery_outcomes"].values())
        c["ash_deliveries"] += ks["delivery_outcomes"].get("ash", 0)
        for h in ks["ash"]["handlers"]:
            c["ash_aborts"] += h["voluntary_aborts"] + h["involuntary_aborts"]
        c["rx_dropped"] += sum(n["rx_dropped"] for n in ks["nics"].values())
        c["cache_hits"] += node.dcache.hits
        c["cache_misses"] += node.dcache.misses
        c["busy"] += [cpu.busy_ticks for cpu in node.cpus]
        c["steered"] += [list(nic.rss.stats()["steered"])
                         for nic in node.nics.values()]
    for conn in world.tcp_connections():
        c["retransmits"] += conn.tcb.retransmits
        c["fastpath"] += conn.fastpath_hits
        c["library_segments"] += conn.tcb.hdrpred_hits + conn.tcb.slow_segments
    return c


def _counter_metrics(a: dict, b: dict, ops: int) -> dict:
    d = {k: b[k] - a[k] for k in a if isinstance(a[k], int)}
    sim = max(1, d["now"])
    per_op = max(1, ops)
    imbalance = 1.0
    for sa, sb in zip(a["steered"], b["steered"]):
        steered = [y - x for x, y in zip(sa, sb)]
        if sum(steered):
            imbalance = max(imbalance,
                            max(steered) / (sum(steered) / len(steered)))
    segs = d["fastpath"] + d["library_segments"]
    lookups = d["cache_hits"] + d["cache_misses"]
    return {
        "sim.events_per_op": d["fired"] / per_op,
        "sim.inlined_frac": d["inlined"] / max(1, d["fired"]),
        "sim.cancelled_per_op": d["cancelled"] / per_op,
        "sim.queue.overflow_spills": d["spills"],
        "kernel.rx_interrupts_per_op": d["rx_interrupts"] / per_op,
        "kernel.context_switches_per_op": d["context_switches"] / per_op,
        "kernel.delivery.fastpath_frac":
            d["ash_deliveries"] / max(1, d["deliveries"]),
        "hw.cpu.busy_frac": max(
            (y - x) / sim for x, y in zip(a["busy"], b["busy"])),
        "hw.nic.rx_dropped": d["rx_dropped"],
        "hw.nic.rss.imbalance": imbalance,
        "hw.cache.miss_rate": d["cache_misses"] / max(1, lookups),
        "ash.aborts": d["ash_aborts"],
        "net.tcp.retransmits_per_op": d["retransmits"] / per_op,
        "net.tcp.fastpath_frac": d["fastpath"] / max(1, segs),
    }


def per_layer(cls, seed: int, seconds: int, jit,
              calibrate) -> tuple[dict, dict, bool]:
    from layers import LAYERS, UNATTRIBUTED, Installation, SpanTracer

    nslices = max(1, round(seconds * cls.slices_per_second * TRACE_SHARE))

    # untraced reference: counters and host time
    world, _, translations = build_world(cls, seed, jit)
    gc.collect()
    before = _counters(world)
    _, times, _, ops = timed_phase(world, nslices, calibrate)
    plain_s = sum(times)
    after = _counters(world)
    world.finish()
    plain_digest = world.digest()
    attempted, failed = world.attempted, world.failed
    del world

    # traced twin: same seed, same simulated work
    tracer = SpanTracer(LAYERS)
    installed = Installation(tracer)
    try:
        world, _, _ = build_world(cls, seed, jit)
        gc.collect()
        world.start_timed()
        slice_ps = int(world.slice_us * 1_000_000)
        cpu0 = time.process_time()
        start_ns = tracer.reset()
        for s in range(nslices):
            world.engine.run(until=world.t_start + (s + 1) * slice_ps)
        stop_ns = tracer.stop()
        traced_s = time.process_time() - cpu0
        traced_ops = world.completed
        # read now: the traced world keeps calling its wrappers
        self_s = tracer.self_seconds()
        self_ns_sum = sum(tracer.self_ns)
        calls = tracer.call_counts()
    finally:
        installed.remove()
    world.finish()
    same_model = world.digest() == plain_digest and traced_ops == ops

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_s[layer], "s")
        m[f"{layer}.calls_per_op"] = (calls[layer] / max(1, ops), "count")
    m["trace.unattributed_s"] = (self_s[UNATTRIBUTED], "s")
    m["trace.wall_s"] = ((stop_ns - start_ns) / 1e9, "s")
    m["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    units = {"sim.inlined_frac": "ratio", "kernel.delivery.fastpath_frac":
             "ratio", "hw.cpu.busy_frac": "ratio", "hw.nic.rss.imbalance":
             "ratio", "hw.cache.miss_rate": "ratio",
             "net.tcp.fastpath_frac": "ratio"}
    for name, value in _counter_metrics(before, after, ops).items():
        m[name] = (value, units.get(name, "count"))
    m["vcode.jit.translations"] = (translations, "count")
    info = {
        "slices": nslices,
        "timed_ops": ops,
        "calls": calls,
        "self_ns_sum": self_ns_sum,
        "wall_ns": stop_ns - start_ns,
        "sim_digest": plain_digest,
        "traced_model_identical": same_model,
        "attempted": attempted,
        "failed": failed,
    }
    conserved = self_ns_sum == stop_ns - start_ns
    return m, info, (same_model and conserved and failed == 0
                     and attempted > 0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    knobs = [k for k in ENGINE_KNOBS if os.environ.get(k)]
    if knobs:
        print(f"refusing to run: {', '.join(knobs)} selects a non-default "
              "engine", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    try:
        from repro import telemetry
        from repro.vcode import jit
        from worlds import WORKLOADS
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    cls = WORKLOADS.get(args.workload)
    if cls is None:
        print(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    calibrate = Calibration()
    session = (telemetry.session() if cls.telemetry_session
               else nullcontext())
    with session:
        if args.trace:
            metrics, info, correct = per_layer(cls, args.seed, args.seconds,
                                               jit, calibrate)
            attempted, failed = info["attempted"], info["failed"]
        else:
            metrics, info = end_to_end(cls, args.seed, args.seconds, jit,
                                       calibrate)
            attempted, failed = info["attempted"], info["failed"]
            correct = failed == 0 and attempted > 0

    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:>16.6g} {unit}")
    print(f"{'sim_digest':36s} {info['sim_digest']}")
    host = _host()
    print(f"{'host':36s} Python {host['python']}, nproc {host['nproc']}, "
          f"{host['cpu']}")
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, host=host,
                  info=info)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}.seed{args.seed}"
                                 f".trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
