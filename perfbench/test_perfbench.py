"""Tests of the benchmark's own logic: python3 -m pytest -q perfbench"""
from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from coxanc import core, engine, universal, weak_order  # noqa: E402
from coxanc.verifier import ConjectureReport  # noqa: E402
from tracing import NullTracer, Span, Tracer, covered, self_times  # noqa: E402
from workloads import Tally  # noqa: E402


@pytest.mark.parametrize("samples, expected", [
    (2, 100.0), (19, 100.0), (20, 50.0), (99, 50.0), (100, 90.0), (134, 90.0),
    (600, 90.0), (999, 90.0), (1000, 99.0), (10_000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_above(samples, expected):
    assert stats.tail_percentile(samples) == expected


def test_tail_percentile_has_ten_samples_above_it():
    for n in (20, 67, 134, 600, 1500):
        xs = list(range(n))
        p = stats.tail_percentile(n)
        assert sum(x > stats.percentile(xs, p) for x in xs) >= stats.MIN_ABOVE


def test_percentile_matches_numpy_linear():
    xs = [random.Random(3).random() for _ in range(57)]
    for p in (0, 12.5, 50, 90, 99, 100):
        assert stats.percentile(xs, p) == pytest.approx(float(np.percentile(xs, p)))


def test_covered_merges_overlaps():
    assert covered([(1, 3), (2, 5), (6, 7)]) == 5
    assert covered([(0, 10), (2, 3)]) == 10
    assert covered([]) == 0


def test_self_time_subtracts_children_once():
    spans = [
        Span(0, "root", 0.0, 10.0, None, None),
        Span(1, "a", 1.0, 3.0, 0, None),
        Span(2, "b", 2.0, 5.0, 0, None),  # overlaps a: 1..5 is covered once
        Span(3, "c", 6.0, 7.0, 0, None),
        Span(4, "leaf", 6.5, 6.75, 3, None),
    ]
    own = self_times(spans)
    assert own == {0: 5.0, 1: 2.0, 2: 3.0, 3: 0.75, 4: 0.25}


def test_tracer_nests_spans_and_inherits_op():
    tr = Tracer()
    with tr.span("outer", op=7):
        with tr.span("inner"):
            pass
        tr.record("timed", 1.0, 2.0)
    outer, inner, timed = tr.spans
    assert (inner.parent, inner.op) == (outer.id, 7)
    assert (timed.parent, timed.op) == (outer.id, 7)
    assert outer.start <= inner.start <= inner.end <= outer.end


def _paper_reports(expected):
    return [
        ConjectureReport(
            spec=spec, rank=g["rank"], group_order=g["group_order"],
            conjecture1_holds=True, conjecture2_holds=spec not in checks.RANK_BOUND_FAILS,
            max_ilen=g["max_ilen"],
        )
        for spec, g in expected["groups"].items()
    ]


def test_paper_checks_accept_the_recorded_answers():
    expected = checks.load_expected()
    assert list(expected["groups"]) == gen.PAPER_SPECS
    assert all(checks.paper_report_problems(r, expected) == [] for r in _paper_reports(expected))


def test_tampered_max_ilen_counts_as_failure():
    expected = checks.load_expected()
    reports = _paper_reports(expected)
    reports[gen.PAPER_SPECS.index("H3")].max_ilen += 1
    tally = Tally()
    for r in reports:
        tally.op(checks.paper_report_problems(r, expected))
    assert (tally.attempted, tally.failed) == (67, 1)
    assert "H3: max_ilen" in tally.problems[0]


def test_rank_bound_flag_must_match_the_paper():
    expected = checks.load_expected()
    report = _paper_reports(expected)[gen.PAPER_SPECS.index("F4")]
    report.conjecture2_holds = True
    assert checks.paper_report_problems(report, expected)


def test_digest_ignores_elapsed_seconds():
    a = json.dumps({"reports": [{"spec": "A1", "elapsed_seconds": 0.1}]})
    b = json.dumps({"reports": [{"spec": "A1", "elapsed_seconds": 2.5}]})
    c = json.dumps({"reports": [{"spec": "A2", "elapsed_seconds": 0.1}]})
    assert checks.report_digest(a) == checks.report_digest(b) != checks.report_digest(c)


def _element_answer(table, word):
    w = engine.element_from_word(table, word)
    return (w, weak_order.involution_prefixes(table, w), weak_order.ancestors(table, w),
            weak_order.ancestor_decomposition(table, w),
            weak_order.suffix_ancestor_decomposition(table, w))


def test_element_checks_catch_a_wrong_factor():
    table = engine.build_group("A4")
    w, ip, anc, dec, sdec = _element_answer(table, (1, 2, 3, 4, 1, 2, 3, 1, 2))
    assert checks.element_problems(table, w, ip, anc, dec, sdec) == []
    swapped = weak_order.AncestorDecomposition(owner=w, factors=dec.factors[::-1])
    assert checks.element_problems(table, w, ip, anc, swapped, sdec)
    assert checks.element_problems(table, w, ip, anc, dec, swapped)


def test_word_checks_catch_a_non_palindrome():
    word = gen.reduced_word(random.Random(5), 60, 3)
    dec = universal.ug_ancestor_decomposition(word)
    prefixes = universal.ug_involution_prefixes(word)
    assert checks.word_problems("w", word, dec.factors, prefixes, False) == []
    merged = (dec.factors[0] + dec.factors[1],) + dec.factors[2:]
    assert checks.word_problems("w", word, merged, prefixes, False)


def test_inputs_depend_only_on_the_seed(tmp_path):
    assert gen.d7_words(4) == gen.d7_words(4) != gen.d7_words(5)
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = gen.graph_word_inputs(4, tmp_path / "a")
    b = gen.graph_word_inputs(4, tmp_path / "b")
    assert a["words"] == b["words"]
    assert (tmp_path / "a" / "random0.cox").read_text() == (tmp_path / "b" / "random0.cox").read_text()


def test_generated_inputs_have_fixed_sizes(tmp_path):
    words = gen.d7_words(11)
    assert len(words) == gen.D7_QUERIES
    assert {len(w) for w in words} == {gen.D7_WORD_LETTERS}
    inputs = gen.graph_word_inputs(11, tmp_path)
    for name, descriptor in inputs["graphs"][len(gen.TREE_SPECS):]:
        graph = core.graph_of(core.build_matrix(core.parse_spec(descriptor)))
        assert (graph.rank, len(graph.edges)) == (gen.RANDOM_GRAPH_RANK, gen.RANDOM_GRAPH_EDGES)
    for name, word in inputs["words"]:
        assert universal.reduce_word(word) == word


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def _small_graph_word(monkeypatch, bad_word):
    """A GraphWord over A3 and two short words, whose decomposition of bad_word raises."""
    workload = object.__new__(workloads.GraphWord)
    workload.graphs = [("A3", "A3")]
    workload.words = [("w1", (1, 2, 1)), ("w2", bad_word)]
    workload.samples_per_iteration = 3
    real = universal.ug_ancestor_decomposition

    def decompose(word):
        if word == bad_word:
            raise RuntimeError("injected")
        return real(word)

    monkeypatch.setattr(workloads.universal, "ug_ancestor_decomposition", decompose)
    return workload


def test_a_raising_operation_is_a_failure_not_a_crash(monkeypatch, capsys):
    workload = _small_graph_word(monkeypatch, (1, 2, 3))
    pauses = []
    raw = workloads.measure(workload, 0.0, trace=False, pause=lambda: pauses.append(1))
    iterations = len(raw["wall_s"])
    assert len(pauses) == iterations - 1  # only between two iterations
    assert (raw["attempted"], raw["failed"]) == (3 * iterations, iterations)
    assert len(raw["latency_s"]) < raw["min_samples"]
    assert "injected" in raw["problems"][0]
    result = run.summarize("graph-word", 0, 0.0, 0, raw, [0.2, 0.3, 0.4], 2048)
    assert (result["correct"], result["failed"]) == (False, iterations)
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert result["metrics"]["setup_s"]["value"] == 0.3
    assert f"{iterations} failed / {3 * iterations} attempted" in capsys.readouterr().out


def test_a_raising_sweep_is_one_failed_operation(monkeypatch, tmp_path):
    def sweep(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(workloads.verifier, "sweep", sweep)
    tally = Tally()
    workloads.PaperSweep(0, tmp_path).iteration(NullTracer(), tally)
    assert (tally.attempted, tally.failed, tally.latencies) == (1, 1, [])


def test_post_scan_and_audit_are_differences_of_second_calls():
    tr = Tracer()
    layers.zero_counts(tr)
    tr.name_op(0, "H4")
    tr.spans = [
        Span(0, "verifier.verify_group.again", 0.0, 1.0, None, 0, True),
        Span(1, "core.parse_spec", 1.0, 1.01, None, 0, True),
        Span(2, "engine.build_root_system", 1.01, 1.05, None, 0, True),
        Span(3, "engine.build_group_table", 1.05, 1.25, None, 0, True),
        Span(4, "engine.build_group_table.no_audit", 1.25, 1.4, None, 0, True),
        Span(5, "verifier.ancestor_scan", 1.4, 2.0, None, 0, True),
    ]
    out = layers.per_layer(tr, traced_wall=3.0, untraced_median=2.5)
    assert out["verifier.post_scan_s"][0] == pytest.approx(0.15)
    assert out["verifier.post_scan_s.H4"][0] == pytest.approx(0.15)
    assert out["engine.audit_s.H4"][0] == pytest.approx(0.05)
    assert out["trace.overhead_s"][0] == pytest.approx(0.5)
    for name in ("verifier.post_scan_s", "engine.audit_s", "trace.overhead_s"):
        assert out[name][2].startswith("derived")
    assert out["verifier.scan_s"][2] == layers.SECOND_CALL_NOTE
    assert out["universal.decomposition_s"][2] == layers.ABSENT_NOTE
