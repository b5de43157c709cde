"""DPF: dynamic packet filters compiled at insert time.

Section IV-A: "The Aegis implementation of the packet filter engine,
DPF, uses dynamic code generation ... eliminating interpretation
overhead by compiling packet filters to executable code when they are
installed into the kernel, and by using filter constants to aggressively
optimize this executable code.  DPF is an order of magnitude faster than
the highest performance packet filter engines in the literature."

A filter is a conjunction of masked comparisons against packet bytes.
Compiled mode (the default) merges every installed filter into a shared
**discrimination tree** on common predicate prefixes (DPF's "filters
are merged into a prefix tree" idea, also PATHFINDER's): each level
tests one ``(offset, size, mask)`` field and fans out on the field's
value, so classifying a packet is a single tree walk instead of a
linear scan over every installed filter.  Filters for the same protocol
share their header-field tests and diverge only at, say, the port
number — a hash lookup per level.  Interpreted mode — kept for the
ablation benchmark — scans every filter's predicate list instead.  The
modelled demultiplex cost is the paper's measured constant, ~1 µs
compiled vs ~11 µs interpreted (an order of magnitude); the two modes
have identical match semantics: the most specific matching filter wins,
earliest-inserted on ties.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import DemuxError
from ..hw.calibration import Calibration

__all__ = ["Predicate", "Filter", "DpfEngine"]


@dataclass(frozen=True)
class Predicate:
    """``packet[offset:offset+size] & mask == value`` (big-endian)."""

    offset: int
    size: int          #: 1, 2 or 4 bytes
    value: int
    mask: int = 0xFFFFFFFF

    def __post_init__(self) -> None:
        if self.size not in (1, 2, 4):
            raise DemuxError(f"predicate size must be 1/2/4, got {self.size}")
        if self.offset < 0:
            raise DemuxError("predicate offset must be non-negative")
        if (self.value & self.mask) >> (8 * self.size):
            # the tree keys on the field-width value, the scan compares
            # the full one: such a predicate could never match a field
            raise DemuxError(
                f"predicate value {self.value:#x} & mask {self.mask:#x} is "
                f"wider than its {self.size}-byte field"
            )

    def matches(self, packet: bytes) -> bool:
        end = self.offset + self.size
        if end > len(packet):
            return False
        field = int.from_bytes(packet[self.offset:end], "big")
        return (field & self.mask) == (self.value & self.mask)


@dataclass
class Filter:
    """An installed filter: its id and predicate conjunction."""

    filter_id: int
    predicates: tuple[Predicate, ...]

    @property
    def specificity(self) -> int:
        """Total bytes examined; more specific filters win ties."""
        return sum(p.size for p in self.predicates)


def _norm_key(q: Predicate) -> tuple[int, int, int]:
    """Canonical (offset, size, mask) edge key for one predicate."""
    width_mask = (1 << (8 * q.size)) - 1
    return (q.offset, q.size, q.mask & width_mask)


@dataclass
class _TreeNode:
    """One discrimination-tree level.

    ``edges`` maps an ``(offset, size, mask)`` field test to a value
    table: extract the masked field once, then a dict lookup picks the
    subtree.  ``terminals`` are filters whose every predicate lies on
    the path to this node.
    """

    edges: dict[tuple[int, int, int], dict[int, "_TreeNode"]] = field(
        default_factory=dict
    )
    terminals: list["Filter"] = field(default_factory=list)


class DpfEngine:
    """The kernel's packet-filter table."""

    def __init__(self, cal: Calibration, telemetry=None):
        self.cal = cal
        self.telemetry = telemetry
        self._filters: dict[int, Filter] = {}
        self._next_id = 1
        self.compiled_mode = True   #: False = interpreted (ablation)
        self._root = _TreeNode()
        self._tree_depth = 0

    def _tree_insert(self, filt: Filter) -> None:
        # Sorting predicates canonically maximizes shared prefixes:
        # two filters testing the same header fields share one path and
        # diverge only at the first differing value.
        node = self._root
        depth = 0
        for q in sorted(filt.predicates,
                        key=lambda p: (p.offset, p.size, p.mask, p.value)):
            key = _norm_key(q)
            value = q.value & key[2]
            node = node.edges.setdefault(key, {}).setdefault(value, _TreeNode())
            depth += 1
        node.terminals.append(filt)
        if depth > self._tree_depth:
            self._tree_depth = depth

    def _tree_rebuild(self) -> None:
        self._root = _TreeNode()
        self._tree_depth = 0
        for filt in self._filters.values():
            self._tree_insert(filt)

    def _tree_classify(self, packet: bytes) -> Optional[Filter]:
        """One walk over the shared tree; DFS because distinct field
        tests at a node are not mutually exclusive (overlapping masks)."""
        matches: list[Filter] = []
        plen = len(packet)
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.terminals:
                matches.extend(node.terminals)
            for (offset, size, mask), values in node.edges.items():
                end = offset + size
                if end > plen:
                    continue
                child = values.get(int.from_bytes(packet[offset:end], "big") & mask)
                if child is not None:
                    stack.append(child)
        if not matches:
            return None
        # most specific wins; earliest-inserted (lowest id) breaks ties —
        # exactly the linear scan's strict-greater-than semantics
        return min(matches, key=lambda f: (-f.specificity, f.filter_id))

    def insert(self, predicates: list[Predicate]) -> int:
        """Install a filter; returns its id."""
        preds = tuple(predicates)
        fid = self._next_id
        self._next_id += 1
        filt = Filter(fid, preds)
        self._filters[fid] = filt
        self._tree_insert(filt)
        tel = self.telemetry
        if tel is not None and tel.enabled:
            tel.counter("dpf.inserts").inc()
            tel.gauge("dpf.table_size").set(len(self._filters))
            tel.gauge("dpf.tree_depth").set(self._tree_depth)
        return fid

    def remove(self, filter_id: int) -> None:
        if filter_id not in self._filters:
            raise DemuxError(f"no filter {filter_id}")
        del self._filters[filter_id]
        self._tree_rebuild()
        tel = self.telemetry
        if tel is not None and tel.enabled:
            tel.gauge("dpf.table_size").set(len(self._filters))
            tel.gauge("dpf.tree_depth").set(self._tree_depth)

    def __len__(self) -> int:
        return len(self._filters)

    @property
    def tree_depth(self) -> int:
        """Depth of the discrimination tree (longest predicate path)."""
        return self._tree_depth

    def classify(self, packet: bytes) -> tuple[Optional[int], float]:
        """Find the matching filter.

        Returns ``(filter_id or None, demux cost in µs)``.  The most
        specific matching filter wins, as in PATHFINDER/DPF semantics.
        Compiled mode walks the shared discrimination tree; interpreted
        mode (the ablation) scans every filter's predicate list.
        """
        if self.compiled_mode:
            best = self._tree_classify(packet)
        else:
            best = None
            for filt in self._filters.values():
                hit = all(p.matches(packet) for p in filt.predicates)
                if hit and (best is None or filt.specificity > best.specificity):
                    best = filt
        cost = (
            self.cal.dpf_compiled_demux_us
            if self.compiled_mode
            else self.cal.dpf_interpreted_demux_us
        )
        tel = self.telemetry
        if tel is not None and tel.enabled:
            if best is not None:
                tel.counter("dpf.matches", filter=best.filter_id).inc()
            else:
                tel.counter("dpf.misses").inc()
        return (best.filter_id if best else None), cost
