"""Tests for the ASH system: download, binding, invocation, aborts."""

import pytest

from repro.ash.examples import (
    PARAM_NSEGS,
    PARAM_REPLY_VCI,
    PARAM_TABLE,
    build_echo,
    build_remote_increment,
    build_remote_write_generic,
    build_remote_write_specific,
    increment_state,
)
from repro.ash.handler import AshBuilder
from repro.bench.testbed import (
    CLIENT_TO_SERVER_VCI,
    SERVER_TO_CLIENT_VCI,
    make_an2_pair,
)
from repro.errors import VcodeError
from repro.hw.link import Frame
from repro.pipes import PIPE_WRITE, compile_pl, pipel
from repro.sim.units import to_us


def an2_with_server_ep(**server_opts):
    tb = make_an2_pair(server_kernel_opts=server_opts)
    ep = tb.server_kernel.create_endpoint_an2(
        tb.server_nic, CLIENT_TO_SERVER_VCI
    )
    return tb, ep


def setup_increment(tb, ep, sandbox=True):
    """Install the remote-increment ASH on the server; returns
    (ash_id, counter_addr)."""
    state, params = increment_state(tb.server.memory, "incr_state",
                                    SERVER_TO_CLIENT_VCI)
    ash_id = tb.server_kernel.ash_system.download(
        build_remote_increment(),
        allowed_regions=[(state.base, state.size)],
        user_word=params,
        sandbox=sandbox,
    )
    tb.server_kernel.ash_system.bind(ep, ash_id)
    return ash_id, state.base


class TestEchoAsh:
    def test_round_trip(self):
        tb, ep = an2_with_server_ep()
        mem = tb.server.memory
        params = mem.alloc("params", 16)
        mem.store_u32(params.base + PARAM_REPLY_VCI, SERVER_TO_CLIENT_VCI)
        ash_id = tb.server_kernel.ash_system.download(
            build_echo(), [(params.base, 16)], user_word=params.base
        )
        tb.server_kernel.ash_system.bind(ep, ash_id)
        cli_ep = tb.client_kernel.create_endpoint_an2(
            tb.client_nic, SERVER_TO_CLIENT_VCI
        )
        got = []

        def client(proc):
            yield from tb.client_kernel.sys_net_send(
                proc, tb.client_nic, Frame(b"abcd", vci=CLIENT_TO_SERVER_VCI)
            )
            desc = yield from tb.client_kernel.sys_recv_poll(proc, cli_ep)
            got.append(tb.client.memory.read(desc.addr, desc.length))

        tb.client_kernel.spawn_process("client", client)
        tb.run()
        assert got == [b"abcd"]
        entry = tb.server_kernel.ash_system.entry(ash_id)
        assert entry.invocations == entry.consumed == 1


class TestRemoteIncrement:
    def test_counter_incremented_and_reply_sent(self):
        tb, ep = an2_with_server_ep()
        ash_id, counter_addr = setup_increment(tb, ep)
        cli_ep = tb.client_kernel.create_endpoint_an2(
            tb.client_nic, SERVER_TO_CLIENT_VCI
        )
        replies = []

        def client(proc):
            for i in range(3):
                yield from tb.client_kernel.sys_net_send(
                    proc, tb.client_nic,
                    Frame((5).to_bytes(4, "little"), vci=CLIENT_TO_SERVER_VCI),
                )
                desc = yield from tb.client_kernel.sys_recv_poll(proc, cli_ep)
                replies.append(int.from_bytes(
                    tb.client.memory.read(desc.addr, 4), "little"))
                yield from tb.client_kernel.sys_replenish(proc, cli_ep, desc)

        tb.client_kernel.spawn_process("client", client)
        tb.run()
        assert replies == [5, 10, 15]
        assert tb.server.memory.load_u32(counter_addr) == 15

    def test_wrong_length_is_voluntary_abort(self):
        tb, ep = an2_with_server_ep()
        ash_id, _ = setup_increment(tb, ep)
        tb.client_nic.transmit(Frame(b"toolong!", vci=CLIENT_TO_SERVER_VCI))
        tb.run()
        entry = tb.server_kernel.ash_system.entry(ash_id)
        assert entry.voluntary_aborts == 1
        # the message fell through to the normal path
        assert len(ep.ring) == 1

    def test_unsafe_ash_works_and_is_faster(self):
        times = {}
        for mode, sandbox in (("sandboxed", True), ("unsafe", False)):
            tb, ep = an2_with_server_ep()
            setup_increment(tb, ep, sandbox=sandbox)
            cli_ep = tb.client_kernel.create_endpoint_an2(
                tb.client_nic, SERVER_TO_CLIENT_VCI
            )
            rt = []

            def client(proc):
                t0 = proc.engine.now
                yield from tb.client_kernel.sys_net_send(
                    proc, tb.client_nic,
                    Frame((1).to_bytes(4, "little"), vci=CLIENT_TO_SERVER_VCI),
                )
                yield from tb.client_kernel.sys_recv_poll(proc, cli_ep)
                rt.append(to_us(proc.engine.now - t0))

            tb.client_kernel.spawn_process("client", client)
            tb.run()
            times[mode] = rt[0]
        assert times["unsafe"] < times["sandboxed"]
        # sandboxing costs only a few microseconds (paper: ~5)
        assert times["sandboxed"] - times["unsafe"] < 15.0


class TestInvoluntaryAborts:
    def test_runaway_loop_aborted_message_falls_through(self):
        tb, ep = an2_with_server_ep()
        b = AshBuilder("runaway")
        loop = b.label()
        b.mark(loop)
        b.v_j(loop)
        ash_id = tb.server_kernel.ash_system.download(b.finish(), [])
        tb.server_kernel.ash_system.bind(ep, ash_id)
        tb.client_nic.transmit(Frame(b"spin", vci=CLIENT_TO_SERVER_VCI))
        tb.run()
        entry = tb.server_kernel.ash_system.entry(ash_id)
        assert entry.involuntary_aborts == 1
        assert len(ep.ring) == 1  # normal path still got the message

    def test_runaway_burns_two_ticks_of_cpu(self):
        cal_ticks_us = 2 * 1000.0  # two 1 ms ticks
        tb, ep = an2_with_server_ep()
        b = AshBuilder("runaway")
        loop = b.label()
        b.mark(loop)
        b.v_j(loop)
        ash_id = tb.server_kernel.ash_system.download(b.finish(), [])
        tb.server_kernel.ash_system.bind(ep, ash_id)
        tb.client_nic.transmit(Frame(b"spin", vci=CLIENT_TO_SERVER_VCI))
        tb.run()
        busy_us = tb.server.cpu.cycles_charged / tb.cal.cpu_mhz
        assert busy_us >= cal_ticks_us * 0.9

    def test_wild_store_aborted_without_corruption(self):
        tb, ep = an2_with_server_ep()
        mem = tb.server.memory
        victim = mem.alloc("victim", 64)
        mem.write(victim.base, b"KERNEL")
        b = AshBuilder("wild")
        reg = b.getreg()
        b.v_li(reg, victim.base)
        b.v_st32(b.ZERO, reg, 0)
        b.v_consume()
        ash_id = tb.server_kernel.ash_system.download(b.finish(), [])
        tb.server_kernel.ash_system.bind(ep, ash_id)
        tb.client_nic.transmit(Frame(b"pwn!", vci=CLIENT_TO_SERVER_VCI))
        tb.run()
        assert mem.read(victim.base, 6) == b"KERNEL"
        entry = tb.server_kernel.ash_system.entry(ash_id)
        assert entry.involuntary_aborts == 1

    def test_ash_may_read_the_message_but_not_beyond(self):
        tb, ep = an2_with_server_ep()
        b = AshBuilder("overread")
        reg = b.getreg()
        b.v_ld32(reg, b.MSG, 8192)  # far past the message buffer
        b.v_consume()
        ash_id = tb.server_kernel.ash_system.download(b.finish(), [])
        tb.server_kernel.ash_system.bind(ep, ash_id)
        tb.client_nic.transmit(Frame(b"msg!", vci=CLIENT_TO_SERVER_VCI))
        tb.run()
        entry = tb.server_kernel.ash_system.entry(ash_id)
        assert entry.involuntary_aborts == 1


class TestRemoteWrite:
    def setup_server(self, tb, ep, specific: bool, sandbox: bool = True):
        mem = tb.server.memory
        data_region = mem.alloc("appdata", 8192)
        pl = pipel()
        pipeline = compile_pl(pl, PIPE_WRITE, cal=tb.cal)
        ilp_id = tb.server_kernel.ash_system.register_ilp(pipeline)

        if specific:
            program = build_remote_write_specific(ilp_id)
            allowed = [(data_region.base, data_region.size)]
            user_word = 0
        else:
            state = mem.alloc("rw_state", 64)
            # one segment: [base, limit]
            mem.store_u32(state.base + 0, data_region.base)
            mem.store_u32(state.base + 4, data_region.size)
            params = state.base + 32
            mem.store_u32(params + PARAM_TABLE, state.base)
            mem.store_u32(params + PARAM_NSEGS, 1)
            program = build_remote_write_generic(ilp_id)
            allowed = [(state.base, 64), (data_region.base, data_region.size)]
            user_word = params
        ash_id = tb.server_kernel.ash_system.download(
            program, allowed, user_word=user_word, sandbox=sandbox
        )
        tb.server_kernel.ash_system.bind(ep, ash_id)
        return ash_id, data_region

    def test_generic_write_lands_in_segment(self):
        tb, ep = an2_with_server_ep()
        ash_id, region = self.setup_server(tb, ep, specific=False)
        payload = bytes(range(64))
        msg = (
            (0).to_bytes(4, "little")       # segment
            + (128).to_bytes(4, "little")   # offset
            + (64).to_bytes(4, "little")    # size
            + payload
        )
        tb.client_nic.transmit(Frame(msg, vci=CLIENT_TO_SERVER_VCI))
        tb.run()
        assert tb.server.memory.read(region.base + 128, 64) == payload
        entry = tb.server_kernel.ash_system.entry(ash_id)
        assert entry.consumed == 1

    def test_generic_write_rejects_bad_segment(self):
        tb, ep = an2_with_server_ep()
        ash_id, region = self.setup_server(tb, ep, specific=False)
        msg = (
            (7).to_bytes(4, "little")      # nonexistent segment
            + (0).to_bytes(4, "little")
            + (4).to_bytes(4, "little")
            + b"\xff\xff\xff\xff"
        )
        tb.client_nic.transmit(Frame(msg, vci=CLIENT_TO_SERVER_VCI))
        tb.run()
        entry = tb.server_kernel.ash_system.entry(ash_id)
        assert entry.voluntary_aborts == 1

    def test_generic_write_rejects_overflowing_size(self):
        tb, ep = an2_with_server_ep()
        ash_id, region = self.setup_server(tb, ep, specific=False)
        msg = (
            (0).to_bytes(4, "little")
            + (region.size - 4).to_bytes(4, "little")  # offset near end
            + (64).to_bytes(4, "little")               # overflows the limit
            + bytes(64)
        )
        tb.client_nic.transmit(Frame(msg, vci=CLIENT_TO_SERVER_VCI))
        tb.run()
        entry = tb.server_kernel.ash_system.entry(ash_id)
        assert entry.voluntary_aborts == 1

    def test_specific_write_uses_raw_pointer(self):
        tb, ep = an2_with_server_ep()
        ash_id, region = self.setup_server(tb, ep, specific=True)
        payload = bytes(range(32))
        dst = region.base + 256
        msg = (
            dst.to_bytes(4, "little")
            + (32).to_bytes(4, "little")
            + payload
        )
        tb.client_nic.transmit(Frame(msg, vci=CLIENT_TO_SERVER_VCI))
        tb.run()
        assert tb.server.memory.read(dst, 32) == payload

    def test_specific_handler_is_smaller_than_generic(self):
        """The paper's Section V-D point: application-specific protocol
        beats the generic one on instruction count."""
        pl = pipel()
        pipeline = compile_pl(pl, PIPE_WRITE)
        generic = build_remote_write_generic(1)
        specific = build_remote_write_specific(1)
        assert len(specific) < len(generic)

    def test_dilp_destination_outside_allowed_aborts(self):
        tb, ep = an2_with_server_ep()
        ash_id, region = self.setup_server(tb, ep, specific=True)
        victim = tb.server.memory.alloc("victim2", 64)
        msg = (
            victim.base.to_bytes(4, "little")   # not in allowed regions
            + (16).to_bytes(4, "little")
            + bytes(16)
        )
        before = tb.server.memory.read(victim.base, 16)
        tb.client_nic.transmit(Frame(msg, vci=CLIENT_TO_SERVER_VCI))
        tb.run()
        assert tb.server.memory.read(victim.base, 16) == before
        entry = tb.server_kernel.ash_system.entry(ash_id)
        assert entry.involuntary_aborts == 1


class TestPersistentState:
    def test_persistent_registers_survive_invocations(self):
        from repro.vcode.registers import P_VAR

        tb, ep = an2_with_server_ep()
        b = AshBuilder("counter_in_reg")
        acc = b.getreg(P_VAR)
        b.v_addiu(acc, acc, 1)
        b.v_consume()
        ash_id = tb.server_kernel.ash_system.download(b.finish(), [])
        tb.server_kernel.ash_system.bind(ep, ash_id)
        for _ in range(4):
            tb.client_nic.transmit(Frame(b"m", vci=CLIENT_TO_SERVER_VCI))
        tb.run()
        entry = tb.server_kernel.ash_system.entry(ash_id)
        prog = entry.program
        assert entry.regs[prog.persistent_regs[0]] == 4


class TestAshSystemApi:
    def test_unknown_ash_id_rejected(self):
        tb, ep = an2_with_server_ep()
        with pytest.raises(VcodeError):
            tb.server_kernel.ash_system.bind(ep, 999)

    def test_unknown_ilp_id_rejected(self):
        tb, _ = an2_with_server_ep()
        with pytest.raises(VcodeError):
            tb.server_kernel.ash_system.get_ilp(42)

    def test_unbind(self):
        tb, ep = an2_with_server_ep()
        ash_id = tb.server_kernel.ash_system.download(build_echo(), [])
        tb.server_kernel.ash_system.bind(ep, ash_id)
        tb.server_kernel.ash_system.bind(ep, None)
        assert ep.ash_id is None

    def test_sandbox_report_available(self):
        tb, _ = an2_with_server_ep()
        ash_id = tb.server_kernel.ash_system.download(
            build_remote_increment(), []
        )
        entry = tb.server_kernel.ash_system.entry(ash_id)
        assert entry.report is not None
        assert entry.report.added_insns > 0
