"""Cost-model calibration: every constant the simulator charges.

The paper's testbed was a pair of 40 MHz MIPS DECstation 5000/240s
(64 KB direct-mapped write-through caches, 25 MHz TURBOchannel) joined
by a 155 Mb/s AN2 ATM switch and a 10 Mb/s Ethernet.  This module is the
single place where that hardware — and the handful of Aegis software
path costs the paper reports — is turned into numbers.

Each constant cites the paper sentence it is anchored to.  Constants not
directly given by the paper are derived so that the *anchored* numbers
come out right (the derivations are in the comments).  Benchmarks that
perform ablations construct modified :class:`Calibration` instances
rather than mutating the default.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from ..errors import CalibrationError

__all__ = ["Calibration", "DEFAULT", "PRIO_INTERRUPT", "PRIO_KERNEL", "PRIO_USER"]

# CPU lock priorities (lower = more urgent).
PRIO_INTERRUPT = 0
PRIO_KERNEL = 5
PRIO_USER = 10


@dataclass(frozen=True)
class Calibration:
    """All tunable cost constants, in cycles/µs/bytes as noted."""

    # ------------------------------------------------------------------
    # CPU ("a pair of 40-MHz DECstation 5000/240s ... 42.9 MIPS")
    # ------------------------------------------------------------------
    cpu_mhz: float = 40.0                  #: clock; 40 cycles = 1 µs
    insn_cycles: int = 1                   #: base cost of a VCODE instruction
    exec_quantum_cycles: int = 200         #: preemption granularity (5 µs)

    # ------------------------------------------------------------------
    # Memory system ("separate direct-mapped write-through 64-kbyte
    # caches for instructions and data").  Derived so that Table III's
    # anchor holds: a single uncached 4096-byte copy runs at ~20 MB/s,
    # i.e. ~2.0 cycles/byte with an unrolled 16-byte-per-iteration copy
    # loop (11 instructions / 16 B = 0.6875 c/B) plus one line miss.
    # ------------------------------------------------------------------
    cache_size: int = 64 * 1024            #: bytes
    cache_line: int = 16                   #: bytes per line
    miss_penalty_cycles: int = 21          #: stall per loaded line miss
    #: Stores go through the write buffer and install the line without a
    #: stall (write-through, fetch-on-write hidden); loads pay misses.
    store_installs_line: bool = True

    # Cost of the specialised VCODE networking primitives, per 32-bit
    # word (Section II-B: "add-with-carry" checksum; MIPS has no bswap
    # instruction so a swap is a shift/mask sequence).
    cksum32_cycles: int = 2
    bswap32_cycles: int = 9
    bswap16_cycles: int = 4

    # ------------------------------------------------------------------
    # AN2 ATM network (Section IV-C)
    # ------------------------------------------------------------------
    #: "the hardware overhead for a round trip is approximately 96 µs".
    an2_hw_oneway_us: float = 48.0
    #: "maximum achievable per-link bandwidth is about 16.8 Mbytes/s".
    an2_rate_bytes_per_s: float = 16.8e6
    #: Largest AN2 receive buffer / segment ("3072 bytes for AN2").
    an2_mtu: int = 3072
    #: Fig 3 reaches 16.11 MB/s at 4 KB packets; raw interface allows 4 KB.
    an2_max_packet: int = 4096
    #: "the kernel software is adding only 16 µs" per round trip — split
    #: across one send and one receive on each of two hosts.
    an2_kernel_send_us: float = 4.0
    an2_kernel_recv_us: float = 4.0        #: incl. post-DMA cache flush

    # ------------------------------------------------------------------
    # Ethernet (10 Mb/s; Table I raw round trip 309 µs)
    # ------------------------------------------------------------------
    eth_rate_bytes_per_s: float = 1.25e6
    eth_mtu: int = 1500
    #: LANCE-class adapter: fixed DMA/deference latency per frame (on
    #: the wire side) and a heavyweight driver interrupt path (striping
    #: DMA ring management).  Derived so Table I's raw Ethernet round
    #: trip lands near 309 µs: 2 x (51.2 wire + 20 dma + 48 driver +
    #: ~36.5 user turnaround) ≈ 311.
    eth_dma_latency_us: float = 20.0
    eth_driver_us: float = 38.0            #: receive interrupt path
    eth_tx_us: float = 8.0                 #: transmit descriptor setup
    eth_min_frame: int = 64

    # ------------------------------------------------------------------
    # Aegis kernel paths (Section IV-C/V; Table I user-level 182 µs =
    # 96 hw + 8 kernel pkt + ~78 of user-level path: "schedule the
    # application, cross the kernel-user boundary multiple times, and
    # use the full system call interface").
    # ------------------------------------------------------------------
    syscall_us: float = 1.5                #: one crossing, in or out
    user_send_path_us: float = 16.0        #: buffer alloc + descriptors + send syscall
    user_recv_path_us: float = 16.5        #: ring poll hit + buffer return
    poll_check_us: float = 1.0             #: one spin of a user polling loop
    #: Full context switch (address space + registers + scheduler),
    #: derived from Table V: user-level suspended (247) − polling (182)
    #: ≈ 65 µs = interrupt discovery + deschedule dummy + reschedule app.
    context_switch_us: float = 25.0
    #: Simulated-interrupt wake path (Table V "Suspended"): the dummy
    #: process discovers the message and yields; derived so that
    #: user-level suspended − polling ≈ 65 µs together with the context
    #: switch.
    interrupt_wake_us: float = 40.0
    #: Ultrix is a heavyweight kernel: fixed extra cost per interrupt
    #: dispatch leg ("under Ultrix this difference would be more like
    #: 95 µs — the approximate cost of an exception plus the system call
    #: back into the kernel").
    ultrix_fixed_us: float = 95.0
    #: Run-queue scan / priority recomputation per ready process; gives
    #: Fig 4's Ultrix curve its mild growth with process count.
    sched_scan_us: float = 4.0
    #: Round-robin quantum.  Aegis ran a simple round-robin scheduler;
    #: we use a 1024 µs time slice so Fig 4's growth is visible at a
    #: handful of processes, as in the paper's figure.
    quantum_us: float = 1024.0
    tick_us: float = 1000.0                #: clock interrupt period

    # ------------------------------------------------------------------
    # ASHs (Section V)
    # ------------------------------------------------------------------
    #: Install context identifier + page-table pointer + user stack
    #: before running the handler (Section III-A).
    ash_invoke_us: float = 2.0
    #: "Setting up and clearing these timers takes approximately one
    #: microsecond each on our system."
    ash_timer_setup_us: float = 1.0
    ash_timer_clear_us: float = 1.0
    #: Abort any ASH that attempts to use two clock ticks or more.
    ash_budget_ticks: int = 2
    #: Per-load/store sandbox check (software, MIPS).  The paper's
    #: sandboxed remote increment added 76 instructions and ~5 µs
    #: (200 cycles), i.e. ~2.6 cycles per added instruction.
    sandbox_check_cycles: int = 3
    #: Per-indirect-jump runtime check.
    sandbox_jump_check_cycles: int = 3
    #: Aggregated access check performed by trusted msg-access calls
    #: ("these checks add little to the base cost").
    trusted_call_check_cycles: int = 12
    #: Posting a lightweight "data ready" notification from a handler
    #: to the owning process's ring.
    ash_notify_us: float = 1.5
    #: Receive-livelock protection (Section VI-4): "the operating
    #: system must track the number of ASHs recently executed for each
    #: process and refuse to execute any more for processes receiving
    #: more than their share" — at most this many invocations per
    #: endpoint per clock tick; excess messages take the normal (lazy)
    #: path.  Far above any benchmark's rate; 0 disables the guard.
    ash_livelock_limit: int = 500

    # ------------------------------------------------------------------
    # Upcalls (Section V; Table V upcall 191 µs vs ASH 147/152)
    # "the advantage of running an ASH ... versus an upcall in user
    # space is approximately 35 µs".
    # ------------------------------------------------------------------
    upcall_dispatch_us: float = 14.0       #: kernel → user handler entry
    upcall_return_us: float = 5.0          #: handler exit → kernel
    upcall_batch_check_us: float = 4.0     #: batching machinery per message

    # ------------------------------------------------------------------
    # User-level protocol library paths (Section IV-D).  UDP adds ~43 µs
    # over raw on AN2 ("the UDP library allocates send buffers, and
    # initializes IP and UDP fields"); TCP adds ~140 µs over UDP
    # (synchronous write, ack buffering copy, header prediction).
    # ------------------------------------------------------------------
    #: Fixed (size-independent) cost of taking the checksum code path:
    #: pseudo-header construction, fold, compare/store.  Derived from
    #: Table II: UDP latency rises 225 -> 244 µs with checksumming of a
    #: 4-byte payload — ~19 µs over four checksum operations per round
    #: trip.
    cksum_fixed_us: float = 4.5
    udp_send_build_us: float = 10.0        #: alloc + IP/UDP field init
    udp_recv_parse_us: float = 7.0         #: header parse + port check
    ip_process_us: float = 3.0             #: ident, ttl, route on send
    tcp_send_build_us: float = 16.0        #: segment build + TCB update
    tcp_recv_hdrpred_us: float = 12.0      #: header-prediction fast path
    tcp_recv_slow_us: float = 35.0         #: full receive processing
    tcp_ack_build_us: float = 10.0         #: pure-ack construction
    tcp_sync_write_us: float = 14.0        #: synchronous write return path
    tcp_read_wakeup_us: float = 10.0       #: read() buffering hand-off
    dpf_compiled_demux_us: float = 1.0     #: DPF: compiled filter match
    dpf_interpreted_demux_us: float = 11.0 #: order-of-magnitude slower

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        if self.cpu_mhz <= 0:
            raise CalibrationError("cpu_mhz must be positive")
        if self.cache_line <= 0 or self.cache_size % self.cache_line:
            raise CalibrationError("cache_size must be a multiple of cache_line")
        for name in ("an2_rate_bytes_per_s", "eth_rate_bytes_per_s"):
            if getattr(self, name) <= 0:
                raise CalibrationError(f"{name} must be positive")
        if self.ash_budget_ticks < 1:
            raise CalibrationError("ash_budget_ticks must be >= 1")

    # -- helpers ---------------------------------------------------------
    def cycles_to_us(self, cyc: float) -> float:
        return cyc / self.cpu_mhz

    def us_to_cycles(self, usec: float) -> int:
        return round(usec * self.cpu_mhz)

    def with_changes(self, **kwargs: Any) -> "Calibration":
        """A copy with selected constants replaced (for ablations)."""
        return replace(self, **kwargs)


#: The calibration every benchmark uses unless it is doing an ablation.
DEFAULT = Calibration()
