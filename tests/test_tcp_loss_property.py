"""Randomized loss/reorder testing of TCP (seeded, deterministic).

Loss is injected through the FaultPlane link seam
(:meth:`repro.sim.faults.FaultPlane.impair_link`) rather than by
monkeypatching ``link.send`` — the drop schedule is a pure function of
the plane seed and the frame sequence, so every seed reproduces its
loss pattern exactly.
"""

import pytest

from repro.bench.workloads import tcp_bulk_transfer


def run_lossy_transfer(seed: int, loss_rate: float, nbytes: int,
                       use_ash: bool = False) -> bytes:
    """Transfer nbytes under random loss; returns what the server got
    (``tcp_bulk_transfer`` checks it byte for byte)."""
    tb, _client, _server, got, _ = tcp_bulk_transfer(
        seed, nbytes, knobs=dict(drop=loss_rate),
        mode="ash" if use_ash else None)
    assert tb.fault_plane.total("drop") > 0, "loss pattern never fired"
    return got


@pytest.mark.parametrize("seed", [1, 7, 42, 1337])
def test_library_path_survives_random_loss(seed):
    run_lossy_transfer(seed=seed, loss_rate=0.08, nbytes=48_000)


@pytest.mark.parametrize("seed", [1, 3])
def test_fastpath_survives_random_loss(seed):
    """Loss makes the ASH header-prediction miss (out-of-order seq):
    those segments fall back to the library, which must interleave
    correctly with kernel-handled ones."""
    run_lossy_transfer(seed=seed, loss_rate=0.06, nbytes=40_000,
                       use_ash=True)


def test_heavy_loss_eventually_completes():
    run_lossy_transfer(seed=5, loss_rate=0.2, nbytes=16_000)
