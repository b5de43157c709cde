#!/usr/bin/env python3
"""Wall-clock throughput of the handler engines: interpreter vs JIT.

Unlike every other benchmark in this directory, this one measures *real*
elapsed time, not simulated cycles: it exists to track the overhead of
the reproduction itself (the thing the VCODE JIT attacks), so the repo
can process "heavy traffic, as fast as the hardware allows".  Simulated
cycle counts are asserted identical between engines on every workload —
the JIT must never change the model, only how fast we evaluate it.

Workloads:

* ``handler_invocations`` — the sandboxed ``remote_increment`` ASH,
  invoked exactly as the ASH runtime does (budget, persistent regs,
  allowed regions, trusted-call env).
* ``packets_per_sec`` — DPF classify (discrimination tree) + sandboxed
  handler invocation per packet: the paper's end-to-end receive path.
* ``checksum_1k`` — the ``inet_cksum`` loop over 1 KiB (branchy,
  load-heavy VCODE; the best case for translation).
* ``dilp_fused`` — a composed copy+cksum+xor pipe loop via ``run_vm``
  (the fused DILP loop the pipe compiler pre-translates).

Engines measured per workload: ``interp`` (JIT translation forced to
fail, so ``Vm.run`` takes its interpreter path), ``jit`` with a warm
code cache, and ``jit`` cold (code cache cleared before every run, so
the rate includes translation).  Results land in ``BENCH_jit.json`` at
the repo root; ``--quick`` shrinks iteration counts for CI smoke runs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from unittest import mock

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from repro.ash.examples import (                                 # noqa: E402
    PARAM_COUNTER,
    PARAM_REPLY_VCI,
    PARAM_SCRATCH,
    build_remote_increment,
)
from repro.hw.cache import DirectMappedCache                     # noqa: E402
from repro.hw.calibration import DEFAULT                         # noqa: E402
from repro.hw.memory import PhysicalMemory                       # noqa: E402
from repro.kernel.dpf import DpfEngine, Predicate                # noqa: E402
from repro.pipes.compiler import PIPE_WRITE, compile_pl          # noqa: E402
from repro.pipes.library import mk_cksum_pipe, mk_xor_pipe       # noqa: E402
from repro.pipes.pipelist import pipel                           # noqa: E402
from repro.sandbox.rewriter import Sandboxer                     # noqa: E402
from repro.vcode import jit                                      # noqa: E402
from repro.vcode.extensions import build_checksum                # noqa: E402
from repro.vcode.vm import Vm                                    # noqa: E402

MSG, CTX, COUNTER, SCRATCH = 0x1000, 0x2000, 0x3000, 0x3100
ALLOWED = [(MSG, 64), (CTX, 64), (COUNTER, 64), (SCRATCH, 64)]
BUDGET = 50_000


def _machine():
    mem = PhysicalMemory(1 << 16)
    mem.write(0x100, bytes(range(256)) * 16)
    mem.write(MSG, (1).to_bytes(4, "little") + bytes(60))
    mem.store_u32(CTX + PARAM_COUNTER, COUNTER)
    mem.store_u32(CTX + PARAM_REPLY_VCI, 7)
    mem.store_u32(CTX + PARAM_SCRATCH, SCRATCH)
    return mem


def _env():
    return {"ash_send": lambda ctx: (ctx.arg(1), 120)}


class Workload:
    """One benchmarkable unit: run() executes a single operation and
    returns the simulated cycles it charged."""

    def __init__(self, name: str, iters: int):
        self.name = name
        self.iters = iters


class HandlerInvocations(Workload):
    def __init__(self, iters):
        super().__init__("handler_invocations", iters)
        self.program, _ = Sandboxer().sandbox(build_remote_increment())
        self.mem = _machine()
        self.vm = Vm(self.mem, cache=DirectMappedCache(DEFAULT), cal=DEFAULT)
        self.regs = [0] * 32
        self.env = _env()

    def run(self) -> int:
        res = self.vm.run(
            self.program, args=(MSG, 4, CTX), regs=self.regs, env=self.env,
            cycle_budget=BUDGET, allowed=ALLOWED,
        )
        return res.cycles


class PacketsPerSec(Workload):
    """DPF tree classify + handler invocation, per packet."""

    def __init__(self, iters):
        super().__init__("packets_per_sec", iters)
        self.dpf = DpfEngine(DEFAULT)
        # a small protocol zoo sharing header-field prefixes
        for port in range(10):
            self.dpf.insert([
                Predicate(offset=0, size=1, value=0x45, mask=0xFF),
                Predicate(offset=9, size=1, value=17, mask=0xFF),
                Predicate(offset=22, size=2, value=5000 + port),
            ])
        self.packet = bytes([0x45]) + bytes(8) + bytes([17]) + bytes(12) \
            + (5003).to_bytes(2, "big") + bytes(16)
        self.handler = HandlerInvocations(iters)

    def run(self) -> int:
        fid, _cost = self.dpf.classify(self.packet)
        assert fid is not None
        return self.handler.run()


class Checksum1K(Workload):
    def __init__(self, iters):
        super().__init__("checksum_1k", iters)
        self.program = build_checksum(unroll=4)
        self.mem = _machine()
        self.vm = Vm(self.mem, cache=DirectMappedCache(DEFAULT), cal=DEFAULT)

    def run(self) -> int:
        return self.vm.run(self.program, args=(0x100, 0, 1024)).cycles


class DilpFused(Workload):
    def __init__(self, iters):
        super().__init__("dilp_fused", iters)
        pl = pipel()
        mk_cksum_pipe(pl)
        mk_xor_pipe(pl, 0xDEADBEEF)
        self.pipeline = compile_pl(pl, PIPE_WRITE, cal=DEFAULT)
        self.mem = _machine()

    def run(self) -> int:
        vm = Vm(self.mem, cache=DirectMappedCache(DEFAULT), cal=DEFAULT)
        return self.pipeline.run_vm(vm, 0x100, 0x800, 512).cycles


REPS = 3


def _rate(workload: Workload, engine: str, *, cold: bool = False) -> tuple[float, int]:
    """(operations per second, total simulated cycles).

    Warm runs time the whole loop (one timer pair, best of ``REPS``
    repetitions) so per-call timer overhead doesn't bias the short
    workloads.  Cold runs must exclude the harness's cache clear, so
    they time per-iteration — translation dwarfs the timer there.
    """
    # "interp" makes every translation fail (get_compiled returns None),
    # so Vm.run falls back to the reference interpreter
    with (mock.patch.object(jit, "get_compiled", lambda *a, **k: None)
          if engine == "interp" else contextlib.nullcontext()):
        if cold:
            iters = max(1, workload.iters // 10)
            cycles = 0
            elapsed = 0.0
            for _ in range(iters):
                jit.clear_code_cache()
                t0 = time.perf_counter()
                cycles += workload.run()
                elapsed += time.perf_counter() - t0
            return iters / elapsed, cycles
        workload.run()  # warm-up (and warm the code cache)
        iters = workload.iters
        best = 0.0
        for _ in range(REPS):
            cycles = 0
            t0 = time.perf_counter()
            for _ in range(iters):
                cycles += workload.run()
            elapsed = time.perf_counter() - t0
            best = max(best, iters / elapsed)
        return best, cycles


def bench(quick: bool) -> dict:
    # short per-op workloads need many iterations for a stable rate;
    # the VCODE-loop workloads run ~1 ms/op and need far fewer
    fast, slow = (50, 10) if quick else (2000, 200)
    workloads = [
        HandlerInvocations(fast),
        PacketsPerSec(fast),
        Checksum1K(slow),
        DilpFused(slow),
    ]
    out: dict = {
        "bench": "wallclock_jit",
        "quick": quick,
        "python": sys.version.split()[0],
        "workloads": {},
    }
    speedups = []
    for w in workloads:
        interp_rate, interp_cycles = _rate(w, "interp")
        warm_rate, warm_cycles = _rate(w, "jit")
        cold_rate, _ = _rate(w, "jit", cold=True)
        identical = interp_cycles == warm_cycles
        entry = {
            "interp_per_sec": round(interp_rate, 1),
            "jit_warm_per_sec": round(warm_rate, 1),
            "jit_cold_per_sec": round(cold_rate, 1),
            "speedup_warm": round(warm_rate / interp_rate, 2),
            "speedup_cold": round(cold_rate / interp_rate, 2),
            "simulated_cycles_interp": interp_cycles,
            "simulated_cycles_jit": warm_cycles,
            "cycles_identical": identical,
        }
        out["workloads"][w.name] = entry
        speedups.append(entry["speedup_warm"])
        print(f"{w.name:24s} interp {interp_rate:10.1f}/s   "
              f"jit(warm) {warm_rate:10.1f}/s   "
              f"jit(cold) {cold_rate:10.1f}/s   "
              f"speedup {entry['speedup_warm']:.2f}x"
              f"{'' if identical else '   CYCLES DIVERGE!'}")
    out["summary"] = {
        "min_speedup_warm": min(speedups),
        "max_speedup_warm": max(speedups),
        "all_cycles_identical": all(
            e["cycles_identical"] for e in out["workloads"].values()
        ),
    }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="few iterations (CI smoke run)")
    parser.add_argument("--out", default=None,
                        help="output JSON path (default: <repo>/BENCH_jit.json)")
    args = parser.parse_args(argv)
    out = bench(args.quick)
    path = args.out or os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir, "BENCH_jit.json"
    )
    with open(path, "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {os.path.normpath(path)}")
    if not out["summary"]["all_cycles_identical"]:
        print("ERROR: simulated cycles differ between engines", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
