"""Committed golden digests: the simulator's determinism, pinned as data.

Each ``tests/golden/<name>.json`` maps a world key to a *record*: the
sha256 of the world's canonical observables JSON plus the few scalars a
reader needs when a comparison fails (virtual completion time,
retransmit counts, the dispatch ledger...).  Tests rebuild the world,
recompute its record with :func:`record` and compare it to the
committed one with :func:`check`.  Tests only read the goldens;
``tests/golden/capture.py`` rewrites them from the same world builders
when the model changes on purpose, so the change shows up in review as
a diff of these files.

The first records were captured while a second, heap-queue event
engine still ran every one of these worlds, with both engines
asserted to agree.
"""

from __future__ import annotations

import hashlib
import json
import os

GOLDEN_DIR = os.path.dirname(os.path.abspath(__file__))


def _encode(obj):
    """Canonical JSON for what json cannot encode natively: byte
    payloads are pinned by their sha256."""
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return hashlib.sha256(obj).hexdigest()
    raise TypeError(f"observable of type {type(obj).__name__} has no "
                    "canonical JSON form")


def canonical_json(obs) -> str:
    return json.dumps(obs, sort_keys=True, default=_encode)


def record(obs, **scalars) -> dict:
    """``{"sha256": <digest of obs>, **scalars}``, JSON-normalized (tuples
    become lists) so it compares equal to the record read back from
    disk."""
    digest = hashlib.sha256(canonical_json(obs).encode()).hexdigest()
    return json.loads(canonical_json(dict(scalars, sha256=digest)))


def path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.json")


def load(name: str) -> dict:
    with open(path(name)) as fh:
        return json.load(fh)


def check(name: str, key: str, got: dict) -> None:
    """Assert ``got`` equals the committed record ``name.json[key]``;
    the failure message lists every field that drifted."""
    want = load(name)[key]
    drift = {k: {"got": got.get(k), "golden": want.get(k)}
             for k in sorted(want.keys() | got.keys())
             if got.get(k) != want.get(k)}
    assert not drift, (
        f"{name}.json[{key!r}] drifted from its golden: {drift}")


def write(name: str, records: dict) -> None:
    with open(path(name), "w") as fh:
        json.dump(records, fh, indent=2, sort_keys=True)
        fh.write("\n")
