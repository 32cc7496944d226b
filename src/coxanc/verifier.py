"""Exhaustive whole-group verification sweeps with deterministic reports.

Two properties are checked per group:

  1. every non-identity element has exactly one maximal-length involution
     prefix (the "ancestor property"), and
  2. the resulting involution length never exceeds the rank.

The per-group scan is one pass over the weak order: the longest involution
prefixes of an element follow from those of the elements one step below it,
so a level-by-level sweep in id order (ids are in length order) settles every
element at cost O(order x rank).  See `ancestor_scan`.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import weak_order
from .core import SystemSpec, parse_spec
from .engine import (
    DEFAULT_ROOT_CAP,
    GroupTable,
    build_group,
    canonical_reduced_word,
    format_word,
    multiply,
)
from .errors import AncestorAmbiguityFound, CoxeterError

PAPER_PRESET = (
    [f"A{n}" for n in range(1, 8)]
    + [f"B{n}" for n in range(2, 7)]
    + [f"D{n}" for n in range(4, 7)]
    + ["E6", "F4", "H3", "H4"]
    + [f"I2({m})" for m in range(3, 51)]
)

PRESETS = {"paper": PAPER_PRESET}


@dataclass
class AncestorScan:
    """Per-element results of the whole-group involution sweep."""

    max_prefix_length: np.ndarray  # longest involution-prefix length (-1 for the identity)
    ancestor_count: np.ndarray     # how many involution prefixes attain it
    ancestor: np.ndarray           # least such involution (id), -1 for the identity
    stripped: np.ndarray           # ancestor * w, -1 for the identity


def ancestor_scan(table: GroupTable, workers: int = 1) -> AncestorScan:
    """Longest involution prefixes of every element, one length level at a time.

    The prefixes of w are w itself together with the prefixes of ws for each
    right descent s (the lower interval of w in right weak order, Bjorner-
    Brenti, GTM 231, ch. 3).  An involution is its own unique longest
    involution prefix.  Any other w takes the top length among its children
    ws, and is ambiguous exactly when a child at that length is ambiguous or
    two of them disagree on the ancestor; otherwise it inherits that ancestor
    and stripped(w) = stripped(ws) * s.  Ids are in length order, so each
    level is a contiguous slice whose children are all already settled.

    Ambiguous elements (none in any finite group checked so far) get the exact
    count and the least witness from the per-element search
    `weak_order.ancestors`.  `workers` is accepted for compatibility and
    ignored: the pass is a few vectorized steps per level.
    """
    order = table.order
    gen_mul = table.gen_mul
    length = table.length
    best = np.full(order, -1, dtype=np.int32)
    count = np.ones(order, dtype=np.int32)
    count[0] = 0
    wit = np.full(order, -1, dtype=np.int32)
    stripped = np.full(order, -1, dtype=np.int32)
    ambiguous = np.zeros(order, dtype=bool)
    starts = np.searchsorted(length, np.arange(1, int(length[-1]) + 2))
    for lo, hi in zip(starts[:-1].tolist(), starts[1:].tolist()):
        ids = np.arange(lo, hi, dtype=np.int32)
        kids = gen_mul[lo:hi]
        kid_best = np.where(length[kids] < length[lo], best[kids], -1)
        top = kid_best.max(axis=1)
        at_top = kid_best == top[:, None]
        s = at_top.argmax(axis=1).astype(np.int32)
        first = kids[ids - lo, s]
        split = at_top & ((wit[kids] != wit[first][:, None]) | ambiguous[kids])
        invol = table.inverse[lo:hi] == ids
        best[lo:hi] = np.where(invol, length[lo], top)
        wit[lo:hi] = np.where(invol, ids, wit[first])
        stripped[lo:hi] = np.where(invol, 0, gen_mul[stripped[first], s])
        ambiguous[lo:hi] = split.any(axis=1) & ~invol
    for w in np.nonzero(ambiguous)[0].tolist():
        witnesses = weak_order.ancestors(table, w).members
        count[w] = len(witnesses)
        wit[w] = min(witnesses)
        stripped[w] = multiply(table, int(wit[w]), w)
    assert (best[1:] >= 1).all(), "every w != 1 has an involution prefix"
    return AncestorScan(best, count, wit, stripped)


def _ilen_array(table: GroupTable, scan: AncestorScan) -> np.ndarray:
    """Involution length per element via the stripped-element recursion.

    Requires the ancestor property: raises AncestorAmbiguityFound otherwise.
    Stripping strictly reduces length, and ids are assigned in length order,
    so each length level is one step from the levels below it.
    """
    bad = np.nonzero(scan.ancestor_count > 1)[0]
    if bad.size:
        raise AncestorAmbiguityFound(bad)
    length = table.length
    ilen = np.zeros(table.order, dtype=np.int32)
    starts = np.searchsorted(length, np.arange(1, int(length[-1]) + 2))
    for lo, hi in zip(starts[:-1].tolist(), starts[1:].tolist()):
        ilen[lo:hi] = ilen[scan.stripped[lo:hi]] + 1
    return ilen


def verify_ancestor_property(table: GroupTable, workers: int = 1):
    """(holds, counterexamples): counterexamples carry full witness words."""
    scan = ancestor_scan(table, workers=workers)
    return _counterexamples(table, scan)


def _counterexamples(table: GroupTable, scan: AncestorScan):
    bad = np.nonzero(scan.ancestor_count > 1)[0]
    out = []
    for w in bad:
        witnesses = weak_order.ancestors(table, int(w)).members
        out.append(
            {
                "element": format_word(canonical_reduced_word(table, int(w))),
                "witnesses": [
                    format_word(canonical_reduced_word(table, u)) for u in sorted(witnesses)
                ],
            }
        )
    return bad.size == 0, out


def verify_ilen_bound(table: GroupTable, rank: int, workers: int = 1):
    """(holds, max_ilen, histogram).  Histogram buckets the identity at 0.

    Raises AncestorAmbiguityFound if the ancestor property fails, since the
    decomposition is only well defined with unique ancestors.
    """
    scan = ancestor_scan(table, workers=workers)
    ilen = _ilen_array(table, scan)
    hist = {int(v): int(c) for v, c in enumerate(np.bincount(ilen)) if c}
    max_ilen = int(ilen.max()) if table.order > 1 else 0
    return max_ilen <= rank, max_ilen, hist


@dataclass
class ConjectureReport:
    """Per-group verification outcome; serializes to one JSON object / CSV row."""

    spec: str
    rank: int | None = None
    group_order: int | None = None
    conjecture1_holds: bool | None = None
    conjecture1_counterexamples: list = field(default_factory=list)
    conjecture2_holds: bool | None = None
    max_ilen: int | None = None
    ilen_histogram: dict = field(default_factory=dict)
    suffix_ilen_mismatches: int | None = None
    elapsed_seconds: float = 0.0
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "spec": self.spec,
            "rank": self.rank,
            "group_order": self.group_order,
            "conjecture1_holds": self.conjecture1_holds,
            "conjecture1_counterexamples": self.conjecture1_counterexamples,
            "conjecture2_holds": self.conjecture2_holds,
            "max_ilen": self.max_ilen,
            "ilen_histogram": {str(k): v for k, v in sorted(self.ilen_histogram.items())},
            "suffix_ilen_mismatches": self.suffix_ilen_mismatches,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "error": self.error,
        }

    @property
    def passed(self) -> bool:
        return self.error is None and bool(self.conjecture1_holds) and bool(self.conjecture2_holds)


def verify_group(spec: SystemSpec | str, *, workers: int = 1,
                 order_guard: int | None = None,
                 root_cap: int = DEFAULT_ROOT_CAP) -> ConjectureReport:
    """Build one group and run both verifications plus the suffix-ilen tally.

    `workers` is accepted and ignored, as in `ancestor_scan`.
    """
    if isinstance(spec, str):
        descriptor = spec
        try:
            spec = parse_spec(spec)
        except CoxeterError as exc:
            return ConjectureReport(spec=descriptor, error=f"{type(exc).__name__}: {exc}")
    report = ConjectureReport(spec=spec.descriptor, rank=spec.rank)
    start = time.perf_counter()
    try:
        table = build_group(spec, root_cap=root_cap, order_guard=order_guard)
        report.group_order = table.order
        scan = ancestor_scan(table, workers=workers)
        report.conjecture1_holds, report.conjecture1_counterexamples = _counterexamples(
            table, scan
        )
        if report.conjecture1_holds:
            ilen = _ilen_array(table, scan)
            report.max_ilen = int(ilen.max()) if table.order > 1 else 0
            report.conjecture2_holds = report.max_ilen <= spec.rank
            report.ilen_histogram = {
                int(v): int(c) for v, c in enumerate(np.bincount(ilen)) if c
            }
            # suffix ilen of w is the prefix ilen of w^-1; reported, never asserted
            report.suffix_ilen_mismatches = int((ilen != ilen[table.inverse]).sum())
    except CoxeterError as exc:
        report.error = f"{type(exc).__name__}: {exc}"
    report.elapsed_seconds = time.perf_counter() - start
    return report


def sweep(specs, *, workers: int = 1, order_guard: int | None = None,
          root_cap: int = DEFAULT_ROOT_CAP, progress=None) -> list[ConjectureReport]:
    """Verify a list of specs (descriptors or SystemSpecs), one report each.

    Per-spec failures are recorded in the report, never aborting the sweep.
    Groups are built sequentially so at most one large table is in flight.
    """
    reports = []
    for spec in specs:
        report = verify_group(
            spec, workers=workers, order_guard=order_guard, root_cap=root_cap
        )
        reports.append(report)
        if progress is not None:
            progress(report)
    return reports


def reports_to_json(reports, include_elapsed: bool = True) -> str:
    payload = []
    for r in reports:
        d = r.to_dict()
        if not include_elapsed:
            del d["elapsed_seconds"]
        payload.append(d)
    return json.dumps({"reports": payload}, indent=2, sort_keys=True)


CSV_HEADER = "spec,order,conj1,conj2,max_ilen,rank,seconds"


def reports_to_csv(reports) -> str:
    def cell(v):
        return "" if v is None else str(v)

    lines = [CSV_HEADER]
    for r in reports:
        lines.append(
            ",".join(
                [
                    r.spec,
                    cell(r.group_order),
                    cell(r.conjecture1_holds),
                    cell(r.conjecture2_holds),
                    cell(r.max_ilen),
                    cell(r.rank),
                    f"{r.elapsed_seconds:.3f}",
                ]
            )
        )
    return "\n".join(lines) + "\n"


def report_text(report: ConjectureReport) -> str:
    if report.error is not None:
        return f"{report.spec}: ERROR {report.error}"
    flags = (
        f"conjecture1 {'PASS' if report.conjecture1_holds else 'FAIL'}, "
        f"conjecture2 {'PASS' if report.conjecture2_holds else 'FAIL'}"
    )
    extra = ""
    if report.conjecture1_counterexamples:
        extra = f" counterexamples: {report.conjecture1_counterexamples}"
    return (
        f"{report.spec}: order {report.group_order}, rank {report.rank} -- {flags} "
        f"(max ilen {report.max_ilen}, suffix mismatches {report.suffix_ilen_mismatches}) "
        f"[{report.elapsed_seconds:.2f}s]{extra}"
    )
