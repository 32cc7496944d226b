"""Per-layer metrics from one traced iteration.

Times are sums of span self times, grouped by the coxanc function the span
wraps.  A metric that comes from a second call, a subtraction or array sizes
rather than from the main path says so in its note.
"""
from __future__ import annotations

import numpy as np

from tracing import self_times

# The paper-sweep groups that do almost all of its work (ROADMAP baseline).
BREAKDOWN_GROUPS = ("H4", "D6", "A7", "B6", "E6")

# span name -> metric; the metric is the sum of the spans' self times
TIMED = {
    "core.parse_spec": "core.parse_s",
    "core.build_matrix": "core.parse_s",
    "core.graph_of": "core.parse_s",
    "engine.build_root_system": "engine.root_closure_s",
    "engine.build_group_table": "engine.table_build_s",
    "engine.element_from_word": "engine.element_from_word_s",
    "verifier.ancestor_scan": "verifier.scan_s",
    "verifier.reports_to_json": "verifier.report_s",
    "verifier.reports_to_csv": "verifier.report_s",
    "weak_order.involution_prefixes": "weak_order.involution_prefixes_s",
    "weak_order.ancestors": "weak_order.ancestors_s",
    "weak_order.ancestor_decomposition": "weak_order.decomposition_s",
    "weak_order.suffix_ancestor_decomposition": "weak_order.suffix_decomposition_s",
    "coxeter_elements.ilen_spectrum": "coxeter_elements.spectrum_s",
    "coxeter_elements.coxeter_element_classes": "coxeter_elements.classes_s",
    "coxeter_elements.min_ilen_coxeter_element": "coxeter_elements.min_ilen_s",
    "graphs.chromatic_number": "graphs.chromatic_s",
    "graphs.longest_path_order": "graphs.longest_path_s",
    "universal.ug_ancestor_decomposition": "universal.decomposition_s",
    "universal.ug_involution_prefixes": "universal.prefixes_s",
    "bench.check": "bench.check_s",
}

# counter -> (unit, note)
COUNTS = {
    "engine.order": ("count", "group orders, summed over groups"),
    "engine.positive_roots": ("count", "positive roots, summed over groups"),
    "engine.table_bytes": ("bytes", "computed: nbytes of the GroupTable arrays, largest group"),
    "verifier.involutions": ("count", "computed from the table (w = w^-1 != 1), summed over groups"),
    "verifier.scan_bytes": ("bytes", "computed: nbytes of the AncestorScan arrays, largest group"),
    "weak_order.interval_size": ("count", "second call: |weak_order.prefixes(w)|, summed over queries"),
    "coxeter_elements.distinct_elements": ("count", "Coxeter element classes, summed over graphs"),
    "universal.letters": ("count", "letters of the decomposed words, summed"),
}

AUDIT_NOTE = "derived: build_group_table(audit=True) minus a second call with audit=False"
POST_SCAN_NOTE = ("derived: a second verify_group minus second calls, right after it, of "
                  "parse, root closure, table build and scan; noise-dominated, since the "
                  "parts are most of verify_group")
SECOND_CALL_NOTE = "second call, outside verify_group"
ABSENT_NOTE = "absent: no spans on this workload"
GROUP_METRICS = ("engine.root_closure_s", "engine.table_build_s", "engine.audit_s",
                 "verifier.scan_s", "verifier.post_scan_s")


def metric_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in output order."""
    units = {name: "s" for name in dict.fromkeys(TIMED.values())}
    units["engine.audit_s"] = "s"
    units["verifier.post_scan_s"] = "s"
    units.update({name: unit for name, (unit, _) in COUNTS.items()})
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    for group in BREAKDOWN_GROUPS:
        units.update({f"{name}.{group}": "s" for name in GROUP_METRICS})
    return units


def zero_counts(tr):
    for name in COUNTS:
        tr.counts[name] = 0


def _nbytes(obj) -> int:
    return sum(v.nbytes for v in vars(obj).values() if hasattr(v, "nbytes"))


def count_table(tr, table):
    tr.count("engine.order", table.order)
    tr.count("engine.positive_roots", table.num_positive_roots)
    tr.counts["engine.table_bytes"] = max(tr.counts["engine.table_bytes"], _nbytes(table))


def count_scan(tr, table, scan):
    ids = np.arange(table.order)
    tr.count("verifier.involutions", int((table.inverse == ids).sum()) - 1)
    tr.counts["verifier.scan_bytes"] = max(tr.counts["verifier.scan_bytes"], _nbytes(scan))


def per_layer(tr, traced_wall: float, untraced_median: float) -> dict[str, list]:
    """metric -> [value, unit, note] for every name in metric_units()."""
    own = self_times(tr.spans)
    by_op: dict[tuple, float] = {}  # (op, span name) -> self time
    derived_names = set()
    for s in tr.spans:
        by_op[s.op, s.name] = by_op.get((s.op, s.name), 0.0) + own[s.id]
        if s.derived:
            derived_names.add(s.name)

    def total(name, op=None):
        return sum(v for (o, n), v in by_op.items() if n == name and (op is None or o == op))

    def post_scan(op):
        parts = ("core.parse_spec", "core.build_matrix", "engine.build_root_system",
                 "engine.build_group_table", "verifier.ancestor_scan")
        return total("verifier.verify_group.again", op) - sum(total(p, op) for p in parts)

    def audit(op=None):
        if not total("engine.build_group_table.no_audit", op):
            return 0.0
        return total("engine.build_group_table", op) - total("engine.build_group_table.no_audit", op)

    units = metric_units()
    out: dict[str, list] = {name: [0.0, unit, ABSENT_NOTE] for name, unit in units.items()}
    present = {s.name for s in tr.spans}
    for span_name, metric in TIMED.items():
        if span_name in present and out[metric][2] == ABSENT_NOTE:
            out[metric][2] = ""
        out[metric][0] += total(span_name)
        if span_name in derived_names:
            out[metric][2] = SECOND_CALL_NOTE
    if "engine.build_group_table.no_audit" in present:
        out["engine.audit_s"] = [audit(), "s", AUDIT_NOTE]
    ops = sorted({o for (o, n) in by_op if n == "verifier.verify_group.again"})
    if ops:
        out["verifier.post_scan_s"] = [sum(post_scan(o) for o in ops), "s", POST_SCAN_NOTE]
    for name, (unit, note) in COUNTS.items():
        out[name] = [tr.counts[name], unit, note]
    out["trace.wall_s"] = [traced_wall, "s", "main path of the traced iteration, second calls excluded"]
    out["trace.overhead_s"] = [traced_wall - untraced_median, "s",
                               "derived: trace.wall_s minus the untraced median wall_s of this run; "
                               "noise-dominated, since the host's speed drifts by more than "
                               "the spans cost"]
    op_of = {name: op for op, name in tr.ops.items()}
    for group in BREAKDOWN_GROUPS:
        op = op_of.get(group)
        if op is None:
            continue
        values = {
            "engine.root_closure_s": total("engine.build_root_system", op),
            "engine.table_build_s": total("engine.build_group_table", op),
            "engine.audit_s": audit(op),
            "verifier.scan_s": total("verifier.ancestor_scan", op),
            "verifier.post_scan_s": post_scan(op),
        }
        for name, value in values.items():
            out[f"{name}.{group}"] = [value, "s", out[name][2]]
    return out
