#!/usr/bin/env python3
"""Rebuild every committed golden record in ``tests/golden/``.

Run from the repository root after a change that moves the model on
purpose::

    PYTHONPATH=src python tests/golden/capture.py

Each golden is rebuilt with the same world builder and record function
its test imports, so the tests and this script cannot drift apart; the
regenerated ``*.json`` files then show the change as a reviewable diff.
The tests themselves only ever read these files.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [REPO_ROOT, os.path.join(REPO_ROOT, "src")]

from repro.bench.workloads import TENANT_SCENARIOS  # noqa: E402
from tests import golden, load_bench_script  # noqa: E402
from tests.test_determinism import (  # noqa: E402
    fairness_record,
    scale_record,
    scale_world,
)
from tests.test_faults import (  # noqa: E402
    CHAOS_WORLDS,
    CRASH_WORLDS,
    abort_schedule_run,
    chaos_tcp_transfer,
    crash_tcp_transfer,
    transfer_record,
)
from tests.test_liveops import canary_crash_record  # noqa: E402
from tests.test_scale_smp import smp_lossy_cc, smp_world  # noqa: E402
from tests.test_sweep_driver import sweep_smoke_records  # noqa: E402
from tests.test_tcp_sack_property import CC_IMPAIRMENTS, cc_record  # noqa: E402
from tests.test_tenancy import tenant_record  # noqa: E402


def sweep_smoke() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "smoke.json")
        if load_bench_script("sweep_driver").main(["--smoke", "--out", out]) != 0:
            raise SystemExit("sweep_driver --smoke failed")
        with open(out) as fh:
            return sweep_smoke_records(json.load(fh))


GOLDENS = {
    "scale": lambda: {
        "1core": scale_record(scale_world()),
        **{f"smp{c}": scale_record(smp_world(c)) for c in (1, 2, 4)},
    },
    "smp_lossy_cc": lambda: {
        f"cores{c}": smp_lossy_cc(c) for c in (1, 2, 4)
    },
    "faults": lambda: {
        **{k: transfer_record(chaos_tcp_transfer(**kw))
           for k, kw in CHAOS_WORLDS.items()},
        **{k: transfer_record(crash_tcp_transfer(**kw))
           for k, kw in CRASH_WORLDS.items()},
        "abort_schedule": abort_schedule_run(),
    },
    "cc_digest": lambda: {
        "_".join(impair): cc_record(impair) for impair in CC_IMPAIRMENTS
    },
    "tenancy": lambda: {s: tenant_record(s) for s in TENANT_SCENARIOS},
    "canary": lambda: {"divergent_crash": canary_crash_record()},
    "sweep_smoke": sweep_smoke,
    "fairness": lambda: {"flows8_bytes24000": fairness_record()},
}


def main() -> int:
    for name, build in GOLDENS.items():
        golden.write(name, build())
        print(f"wrote {os.path.relpath(golden.path(name), REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
