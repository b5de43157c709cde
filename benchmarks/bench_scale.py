#!/usr/bin/env python3
"""Macro scale benchmark: N-pair, M-flow, C-core worlds on one engine.

Two kinds of numbers come out of one run:

* **Deterministic model metrics** — the simulated makespan of each
  configuration (``sim_elapsed_us``), the engine events fired per
  delivered frame (``events_per_packet``: the simulator's own cost
  proxy) and the event throughput *per simulated second*
  (``events_per_sim_s``).  These are pure functions of the model and
  are bit-stable across hosts; ``sim_elapsed_us`` and
  ``events_per_packet`` are gated by ``check_bench_trend.py``.  The
  multicore payoff is measured here: the largest configuration is
  swept across 1/2/4 cores and the per-core curve must stay
  near-linear (see ``summary.core_sweep``).
* **Wall-clock metrics** — elapsed host seconds (``wall_s``),
  events/sec and packets/sec of each world.  These track the overhead
  of the reproduction itself and are excluded from the trend gate.

The world's workload-visible observables (round-trip times, completion
time, cache hits/misses, interrupt, frame and RSS steering counts) come
from :meth:`ScaleWorld.observables`; ``tests/golden/scale.json`` pins
their digest, and the engine's dispatch ledger, for the tier-1 worlds.

The world: N independent AN2 node pairs share one simulated engine;
each pair carries M concurrent flows cycling through three kinds:

* **udp** — ping-pong stressing the copy path and cache walks,
* **tcp** — connect + ping-pong (header prediction, checksum pass,
  retransmit timers armed and cancelled on every exchange),
* **ash** — raw AN2 frames dispatched to the sandboxed
  remote-increment handler (the paper's Table V workload).

Results land in ``BENCH_scale.json`` at the repo root; ``--quick``
shrinks the sweep for CI smoke runs, and ``--nodes/--flows/--cores/
--batch`` run a single custom configuration (echoed into the JSON
under ``cli`` so sweeps are reproducible without editing this file).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from repro.ash.examples import (                                 # noqa: E402
    build_remote_increment,
    increment_state,
)
from repro.bench.testbed import make_an2_pair                    # noqa: E402
from repro.hw.link import Frame                                  # noqa: E402
from repro.net.socket_api import flow_vcis, make_stacks, tcp_pair  # noqa: E402
from repro.net.udp import UdpSocket                              # noqa: E402
from repro.sim.engine import Engine                              # noqa: E402
from repro.sim.units import CYCLE_PS                             # noqa: E402

FLOW_KINDS = ("udp", "tcp", "ash")

#: per-flow start offset step in cycles.  173 is coprime to the
#: 200-cycle charge quantum, so no two flows' quantum grids ever
#: phase-lock.  The offset is *pair-local* — flow j of pair i starts at
#: ``(j + 1 + i % 7) * 173`` cycles — so the ramp-in stays a few
#: hundred microseconds no matter how many pairs share the engine (a
#: global ramp over thousands of flows would swamp the makespan and
#: bury the multicore scaling signal under serial start-up time).
STAGGER_CYCLES = 173

#: overflow-spill budget for the largest configuration (satellite of
#: the SMP issue): with the calendar queue's bucket width auto-sized
#: from the timer horizon, TCP retransmit timers land in the wheel
#: instead of spilling to the unsorted overflow heap.  The historical
#: default-width runs spilled hundreds of times per run.
MAX_OVERFLOW_SPILLS = 50


class ScaleWorld:
    """N AN2 pairs x M flows on one engine."""

    def __init__(self, pairs: int, flows: int,
                 rounds: int, size: int, cores: int = 1,
                 batch: int | None = None,
                 mem_size: int = 16 * 1024 * 1024):
        self.engine = Engine()
        self.pairs = pairs
        self.flows = flows
        self.rounds = rounds
        self.size = size
        self.cores = cores
        self.done: list[bool] = []
        self.rt_ps: list[list[int]] = []  #: per-flow round-trip times
        #: simulated completion time of the last flow (ps)
        self.finish_ps = 0
        self.testbeds = []
        for i in range(pairs):
            tb = make_an2_pair(engine=self.engine, name_prefix=f"p{i}.",
                               mem_size=mem_size, ncores=cores,
                               rx_batch=batch)
            self.testbeds.append(tb)
            for j in range(flows):
                kind = FLOW_KINDS[(i * flows + j) % len(FLOW_KINDS)]
                self._add_flow(tb, i, j, kind)

    # -- flow builders -----------------------------------------------------
    def _track(self) -> tuple[int, list[int]]:
        idx = len(self.done)
        self.done.append(False)
        rts: list[int] = []
        self.rt_ps.append(rts)
        return idx, rts

    def _finish(self, idx: int) -> None:
        self.done[idx] = True
        self.finish_ps = max(self.finish_ps, self.engine.now)

    def _stagger_ps(self, i: int, j: int) -> int:
        return (j + 1 + i % 7) * STAGGER_CYCLES * CYCLE_PS

    def _add_flow(self, tb, i: int, j: int, kind: str) -> None:
        if kind == "udp":
            self._add_udp(tb, i, j)
        elif kind == "tcp":
            self._add_tcp(tb, i, j)
        else:
            self._add_ash(tb, i, j)

    def _add_udp(self, tb, i: int, j: int) -> None:
        idx, rts = self._track()
        cstack, sstack = make_stacks(tb, flow=j)
        c2s, s2c = flow_vcis(j)
        csock = UdpSocket(cstack, 7001 + j, rx_vci=s2c, name=f"f{j}udpc")
        ssock = UdpSocket(sstack, 7001 + j, rx_vci=c2s, name=f"f{j}udps")
        rounds, size = self.rounds, self.size
        server_ip = sstack.ip
        stagger = self._stagger_ps(i, j)

        def server(proc):
            for _ in range(rounds):
                dg = yield from ssock.recvfrom(proc)
                yield from ssock.sendto(proc, dg.payload, dg.src_ip,
                                        dg.src_port)

        def client(proc):
            yield proc.engine.sleep(stagger)
            for _ in range(rounds):
                t0 = proc.engine.now
                yield from csock.sendto(proc, bytes(size), server_ip,
                                        7001 + j)
                yield from csock.recvfrom(proc)
                rts.append(proc.engine.now - t0)
            self._finish(idx)

        tb.server_kernel.spawn_process(f"f{j}udp-server", server)
        tb.client_kernel.spawn_process(f"f{j}udp-client", client)

    def _add_tcp(self, tb, i: int, j: int) -> None:
        idx, rts = self._track()
        conn_c, conn_s = tcp_pair(*make_stacks(tb, flow=j),
                                  server_port=80 + j, client_port=5000 + j)
        rounds, size = self.rounds, self.size
        stagger = self._stagger_ps(i, j)

        def server(proc):
            yield from conn_s.accept(proc)
            for _ in range(rounds):
                data = yield from conn_s.read(proc, size)
                yield from conn_s.write(proc, data)

        def client(proc):
            yield proc.engine.sleep(stagger)
            yield from conn_c.connect(proc)
            for _ in range(rounds):
                t0 = proc.engine.now
                yield from conn_c.write(proc, bytes(size))
                yield from conn_c.read(proc, size)
                rts.append(proc.engine.now - t0)
            self._finish(idx)

        tb.server_kernel.spawn_process(f"f{j}tcp-server", server)
        tb.client_kernel.spawn_process(f"f{j}tcp-client", client)

    def _add_ash(self, tb, i: int, j: int) -> None:
        idx, rts = self._track()
        sk, ck = tb.server_kernel, tb.client_kernel
        c2s, s2c = flow_vcis(j)
        srv_ep = sk.create_endpoint_an2(tb.server_nic, c2s, name=f"f{j}ash-s")
        cli_ep = ck.create_endpoint_an2(tb.client_nic, s2c, name=f"f{j}ash-c")
        state, params = increment_state(tb.server.memory,
                                        f"f{j}.incr_state", s2c)
        ash_id = sk.ash_system.download(
            build_remote_increment(),
            allowed_regions=[(state.base, state.size)],
            user_word=params,
        )
        sk.ash_system.bind(srv_ep, ash_id)
        rounds = self.rounds
        stagger = self._stagger_ps(i, j)

        def client(proc):
            yield proc.engine.sleep(stagger)
            for _ in range(rounds):
                t0 = proc.engine.now
                yield from ck.sys_net_send(
                    proc, tb.client_nic,
                    Frame((1).to_bytes(4, "little"), vci=c2s),
                )
                desc = yield from ck.sys_recv_poll(proc, cli_ep)
                yield from ck.sys_replenish(proc, cli_ep, desc)
                rts.append(proc.engine.now - t0)
            self._finish(idx)

        cli_ep.owner = ck.spawn_process(f"f{j}ash-client", client)

    # -- run + observables ---------------------------------------------------
    def run(self) -> float:
        """Drive the world to completion; returns wall-clock seconds."""
        t0 = time.perf_counter()
        self.engine.run()
        wall = time.perf_counter() - t0
        if not all(self.done):
            raise RuntimeError(
                f"scale world stalled: {self.done.count(False)} flows "
                f"unfinished (cores={self.cores})"
            )
        return wall

    def observables(self) -> dict:
        """Every workload-visible observable of the finished world.

        Round-trip times and the completion stamp are simulated
        durations recorded inside the workloads; cache/interrupt/frame
        counters and per-core RSS steering counts are model state.  The
        engine's dispatch ledger is not a workload observable; the
        goldens pin it next to their digest.
        """
        return {
            "rt_ps": self.rt_ps,
            "finish_ps": self.finish_ps,
            "nodes": [
                {
                    "name": node.name,
                    "dcache_hits": node.dcache.hits,
                    "dcache_misses": node.dcache.misses,
                    "rx_interrupts": node.kernel.rx_interrupts,
                    "nic_rx": {n.name: n.rx_frames for n in node.nics.values()},
                    "nic_tx": {n.name: n.tx_frames for n in node.nics.values()},
                    "rss": {n.name: n.rss.stats()["steered"]
                            for n in node.nics.values() if n.rss is not None},
                }
                for tb in self.testbeds
                for node in (tb.client, tb.server)
            ],
        }


    def packets(self) -> int:
        return sum(
            nic.rx_frames
            for tb in self.testbeds
            for node in (tb.client, tb.server)
            for nic in node.nics.values()
        )


def run_config(cfg: dict) -> dict:
    """One configuration, best-of-``reps`` wall clock; simulated
    metrics are rep-invariant by construction."""
    best: dict | None = None
    for _ in range(cfg["reps"]):
        world = ScaleWorld(cfg["pairs"], cfg["flows"],
                           cfg["rounds"], cfg["size"],
                           cores=cfg["cores"], batch=cfg["batch"],
                           mem_size=cfg["mem_size"])
        wall = world.run()
        if best is None or wall < best["wall_s"]:
            stats = world.engine.stats()
            best = {
                "wall_s": wall,
                "events": stats["fired"],
                "events_per_sec": stats["fired"] / wall,
                "packets": world.packets(),
                "packets_per_sec": world.packets() / wall,
                "finish_ps": world.finish_ps,
                "queue": stats["queue"],
                "cancelled": stats["cancelled"],
            }
    return best


def _entry(cfg: dict, run: dict) -> dict:
    # the calendar queue must not accumulate dead events: every
    # tombstone created by a heap-resident cancel is popped by the
    # time the world drains (wheel-resident cancels are removed
    # outright and never become tombstones)
    leftover = run["queue"].get("tombstones", 0)
    if leftover:
        raise RuntimeError(
            f"{leftover} tombstones left in the calendar queue"
        )
    sim_s = run["finish_ps"] / 1e12
    eps = run["events"] / sim_s
    return {
        "pairs": cfg["pairs"],
        "nodes": cfg["pairs"] * 2,
        "flows": cfg["pairs"] * cfg["flows"],
        "rounds": cfg["rounds"],
        "payload_bytes": cfg["size"],
        "cores": cfg["cores"],
        "rx_batch": cfg["batch"],
        # -- deterministic model metrics (sim_elapsed_us and
        # events_per_packet are trend-gated)
        "sim_elapsed_us": round(run["finish_ps"] / 1e6, 3),
        "events": run["events"],
        "packets": run["packets"],
        "events_per_packet": round(run["events"] / run["packets"], 3),
        "cancelled": run["cancelled"],
        "queue": run["queue"],
        "events_per_sim_s": round(eps, 1),
        "events_per_sim_s_per_core": round(eps / cfg["cores"], 1),
        "overflow_spills": run["queue"].get("overflow_spills", 0),
        # -- wall-clock metrics (host-dependent, trend-exempt)
        "wall_s": run["wall_s"],
        "events_per_sec": run["events_per_sec"],
        "packets_per_sec": run["packets_per_sec"],
    }


def _configs(quick: bool) -> list[dict]:
    def cfg(pairs, flows, rounds, size, cores=1, batch=None, reps=1,
            mem_mb=16, sweep=False):
        return {"pairs": pairs, "flows": flows, "rounds": rounds,
                "size": size, "cores": cores, "batch": batch,
                "reps": reps, "mem_size": mem_mb * 1024 * 1024,
                "sweep": sweep}

    if quick:
        return [cfg(1, 3, 4, 512, cores=2, reps=1)]
    return [
        # single-core ladder: the pre-SMP envelope, kept for trend
        # continuity on the serial path
        cfg(2, 3, 8, 2048, reps=2),
        cfg(8, 3, 10, 16384, reps=2),
        cfg(10, 3, 10, 16384, reps=2),
        # mid-size SMP world with explicit batching
        cfg(10, 12, 3, 1024, cores=2, batch=8),
        # the largest world — 100 nodes / 3000 flows — swept across
        # 1/2/4 cores for the per-core scaling curve
        cfg(50, 60, 2, 256, cores=1, sweep=True),
        cfg(50, 60, 2, 256, cores=2, sweep=True),
        cfg(50, 60, 2, 256, cores=4, sweep=True),
    ]


def bench(quick: bool, cli_cfg: dict | None = None) -> dict:
    out: dict = {
        "bench": "scale",
        "quick": quick,
        "python": sys.version.split()[0],
        "configs": [],
    }
    if cli_cfg is not None:
        configs = [cli_cfg]
        out["cli"] = {"nodes": cli_cfg["pairs"] * 2,
                      "flows": cli_cfg["pairs"] * cli_cfg["flows"],
                      "cores": cli_cfg["cores"],
                      "batch": cli_cfg["batch"]}
    else:
        configs = _configs(quick)
    sweep: list[dict] = []
    for cfg in configs:
        entry = _entry(cfg, run_config(cfg))
        out["configs"].append(entry)
        if cfg.get("sweep"):
            sweep.append(entry)
        print(f"pairs={entry['pairs']} flows={entry['flows']} "
              f"rounds={entry['rounds']} size={entry['payload_bytes']}B "
              f"cores={entry['cores']}  sim {entry['sim_elapsed_us']:.0f}us  "
              f"eps {entry['events_per_sim_s']:.2e}  "
              f"ev/pkt {entry['events_per_packet']:.1f}  "
              f"wall {entry['wall_s']:.3f}s")
    out["summary"] = {}
    if sweep:
        base = sweep[0]
        curve = {
            str(e["cores"]): {
                "events_per_sim_s": e["events_per_sim_s"],
                "linear_fraction": round(
                    e["events_per_sim_s"]
                    / (base["events_per_sim_s"] * e["cores"]), 3),
            }
            for e in sweep
        }
        out["summary"]["core_sweep"] = curve
        largest = sweep[-1]
        # the multicore payoff must be real: >=0.8x of linear from
        # 1 -> 4 cores on the 100-node / 3000-flow world
        frac = curve[str(largest["cores"])]["linear_fraction"]
        print(f"core sweep 1->{largest['cores']}: "
              f"{frac * 100:.0f}% of linear")
        if frac < 0.8:
            raise RuntimeError(
                f"multicore scaling collapsed: {frac:.2f}x of linear "
                f"from 1 to {largest['cores']} cores (need >= 0.8)"
            )
        spills = largest["overflow_spills"]
        if spills > MAX_OVERFLOW_SPILLS:
            raise RuntimeError(
                f"{spills} calendar-queue overflow spills on the largest "
                f"config (budget {MAX_OVERFLOW_SPILLS}): bucket width no "
                f"longer covers the timer horizon"
            )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="one small config (CI smoke run)")
    parser.add_argument("--nodes", type=int, default=None,
                        help="custom config: total nodes (even; 2 per pair)")
    parser.add_argument("--flows", type=int, default=None,
                        help="custom config: total flows across all pairs")
    parser.add_argument("--cores", type=int, default=None,
                        help="custom config: simulated CPUs per node")
    parser.add_argument("--batch", type=int, default=None,
                        help="custom config: rx descriptors drained per kick")
    parser.add_argument("--rounds", type=int, default=2,
                        help="custom config: request/response rounds per flow")
    parser.add_argument("--size", type=int, default=256,
                        help="custom config: payload bytes (udp/tcp flows)")
    parser.add_argument("--out", default=None,
                        help="output JSON path (default: <repo>/BENCH_scale.json)")
    args = parser.parse_args(argv)

    cli_cfg = None
    if any(v is not None for v in (args.nodes, args.flows,
                                   args.cores, args.batch)):
        nodes = args.nodes if args.nodes is not None else 2
        if nodes < 2 or nodes % 2:
            parser.error("--nodes must be an even number >= 2")
        pairs = nodes // 2
        total_flows = args.flows if args.flows is not None else 3 * pairs
        per_pair = max(1, round(total_flows / pairs))
        cli_cfg = {
            "pairs": pairs, "flows": per_pair, "rounds": args.rounds,
            "size": args.size,
            "cores": args.cores if args.cores is not None else 1,
            "batch": args.batch, "reps": 1,
            "mem_size": 16 * 1024 * 1024,
        }
    out = bench(args.quick, cli_cfg)
    path = args.out or os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir,
        "BENCH_scale.json"
    )
    with open(path, "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {os.path.normpath(path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
