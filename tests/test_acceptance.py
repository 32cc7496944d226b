"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The paper proves the ancestor property for Coxeter elements and conjectures
it for every non-identity element of a finite Coxeter group; it makes no
claim that ilen(w) <= rank.  Criteria 1 and 3 therefore pin the established
findings rather than an all-pass outcome:

* criterion 1 requires the ancestor property in all 67 groups of the paper
  preset and the rank bound in all of them except exactly E6, F4, H3 and H4.
  Each of those four failures is re-derived without the whole-group scan:
  a witness is decomposed by the per-element interval search and every strip
  is checked against a brute-force prefix set (smallest cases also pinned
  in test_weak_order and, with exact golden-field arithmetic for H3, in
  test_exact_arithmetic_oracle.py);
* criterion 3 requires the exact involution length of every universal power
  word (r1...rn)^k: nk for n >= 3, but k mod 2 for n = 1 and 2 for n = 2,
  where the word collapses or has palindromic prefixes longer than one
  letter (pinned in test_universal.py).
"""
import itertools
import json

import pytest

from coxanc import (
    Ambiguity,
    ancestor_decomposition,
    ancestor_scan,
    build_matrix,
    canonical_reduced_word,
    chromatic_number,
    coxeter_ancestor_decomposition,
    coxeter_descents,
    coxeter_element_classes,
    element_from_word,
    element_order,
    format_word,
    graph_of,
    ilen_spectrum,
    involution_length,
    is_involution,
    left_descents,
    left_multiply_generator,
    longest_path_order,
    multiply,
    orientation_of,
    parse_spec,
    path_length,
    prefixes,
    reports_to_json,
    sweep,
    ug_ancestor_decomposition,
    ug_power_word,
)
from coxanc.cli import main
from coxanc.verifier import PAPER_PRESET
from helpers import brute_longest_path, brute_prefix_set, cayley_bfs_lengths, left_tables


def outcome(number, ok, detail=""):
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}{': ' + detail if detail else ''}")


def graph_for(descriptor):
    return graph_of(build_matrix(parse_spec(descriptor)))


# Groups of the paper preset where ilen exceeds the rank.
RANK_BOUND_FAILURES = {"E6", "F4", "H3", "H4"}


def confirm_rank_bound_witness(table, rank):
    """Least element with ilen > rank, re-derived without trusting the scan.

    The scan only proposes the candidate.  Its decomposition comes from the
    per-element interval search, and each factor is checked to be the unique
    longest involution in the brute-force prefix set of the remainder.
    """
    stripped = ancestor_scan(table).stripped.tolist()
    ilen = [0] * table.order
    for v in range(1, table.order):  # ids are length-ordered, stripping shortens
        ilen[v] = ilen[stripped[v]] + 1
    w = next((v for v, k in enumerate(ilen) if k > rank), None)
    assert w is not None, "the scan proposes no element with ilen > rank"
    dec = ancestor_decomposition(table, w)
    assert not isinstance(dec, Ambiguity), w
    lgs = left_tables(table)
    rest, product = w, 0
    for f in dec.factors:
        invols = [u for u in brute_prefix_set(table, lgs, rest) if int(table.inverse[u]) == u]
        top = max(int(table.length[u]) for u in invols)
        assert [u for u in invols if int(table.length[u]) == top] == [f], (w, rest)
        rest = multiply(table, f, rest)
        product = multiply(table, product, f)
    assert rest == 0 and product == w
    assert dec.ilen == ilen[w] > rank
    return w, dec


@pytest.mark.slow
def test_criterion_1_paper_preset_sweep(group, capsys):
    """verify --preset paper: ancestor property everywhere, rank bound fails in E6, F4, H3, H4."""
    code = main(["verify", "--preset", "paper", "--format", "json", "--quiet", "--workers", "2"])
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert [r["spec"] for r in reports] == list(PAPER_PRESET)
    failures = [
        f"{r['spec']}: conj1={r['conjecture1_holds']} error={r['error']}"
        for r in reports
        if not (r["error"] is None and r["conjecture1_holds"])
    ]
    over_rank = {r["spec"] for r in reports if not r["conjecture2_holds"]}
    if over_rank != RANK_BOUND_FAILURES:
        failures.append(
            f"rank bound fails in {sorted(over_rank)}, expected {sorted(RANK_BOUND_FAILURES)}"
        )
    if code != 1:
        failures.append(f"exit code {code}, expected 1 (counterexample found)")
    witnesses = []
    if not failures:
        for spec in sorted(RANK_BOUND_FAILURES):
            table = group(spec)
            w, dec = confirm_rank_bound_witness(table, parse_spec(spec).rank)
            word = format_word(canonical_reduced_word(table, w))
            witnesses.append(f"{spec}: {word} ilen {dec.ilen}")
    total = sum(r["elapsed_seconds"] for r in reports)
    with capsys.disabled():
        outcome(
            1,
            not failures,
            f"{len(reports)} groups in {total:.1f}s"
            + (f"; {len(failures)} fail: {failures}" if failures else f"; witnesses {witnesses}"),
        )
    assert not failures, (
        "paper preset sweep disagrees with the established findings: "
        + "; ".join(failures)
        + " -- the ancestor property (the paper's conjecture) must hold in every group, "
        "and the rank bound (not claimed by the paper) fails in exactly E6, F4, H3 and H4"
    )


def test_criterion_2_a6_worked_example(capsys):
    code = main(["element", "--spec", "A6", "--word", "6,3,2,1,4,5"])
    out = capsys.readouterr().out
    ok = (
        code == 0
        and "ancestor decomposition: (r3 r6)(r2 r4)(r1 r5)" in out
        and "suffix ancestor decomposition: (r3)(r2 r4 r6)(r1 r5)" in out
        and "involution length: 3" in out
        and "suffix involution length: 3" in out
    )
    with capsys.disabled():
        outcome(2, ok, "element --spec A6 --word 6,3,2,1,4,5")
    assert ok


def expected_power_ilen(n, k):
    """ilen((r1...rn)^k) in the rank-n universal group.

    n = 1: the word reduces to r1 (k odd) or the identity (k even).
    n = 2: r1 r2 ... r1 (all but the last letter) is a palindromic prefix,
    so the decomposition is (r1 r2 ... r1)(r2) for every k.
    n >= 3: no initial segment longer than one letter is a palindrome, so
    every factor is a single letter.
    """
    if n == 1:
        return k % 2
    if n == 2:
        return 2
    return n * k


def test_criterion_3_universal_counterexample(capsys):
    """Exact ilen((r1...rn)^k) for 1 <= n <= 5, 1 <= k <= 6; rank bound fails iff n >= 3 and k >= 2."""
    failures = []
    for n in range(1, 6):
        for k in range(1, 7):
            word = ug_power_word(n, k)
            factors = ug_ancestor_decomposition(word).factors if word else ()
            ilen = len(factors)
            if ilen != expected_power_ilen(n, k):
                failures.append(f"n={n},k={k}: ilen={ilen} != {expected_power_ilen(n, k)}")
            if (ilen > n) != (n >= 3 and k >= 2):
                failures.append(f"n={n},k={k}: rank-bound violation is {ilen > n}")
            if sum(factors, ()) != word:
                failures.append(f"n={n},k={k}: factors do not concatenate to the word")
            rest = word
            for f in factors:
                # each factor is the longest palindromic initial segment of the remainder
                longest = max(i for i in range(1, len(rest) + 1) if rest[:i] == rest[:i][::-1])
                if f != rest[:longest]:
                    failures.append(f"n={n},k={k}: {f} is not the longest palindrome of {rest}")
                rest = rest[len(f) :]
    with capsys.disabled():
        outcome(3, not failures, f"{len(failures)} failing pairs" if failures else "30 pairs")
    assert not failures, (
        "universal-group power words disagree with the established involution lengths: "
        + "; ".join(failures)
        + " -- expected nk for n >= 3, k mod 2 for n = 1 and 2 for n = 2, "
        "with every factor the longest palindromic prefix of what remains"
    )


ACC4_TYPES = (
    [f"A{n}" for n in range(1, 8)]
    + [f"B{n}" for n in range(2, 8)]
    + [f"D{n}" for n in range(4, 8)]
    + ["E6", "E7", "F4", "H3", "H4", "I2(3)", "I2(7)", "I2(50)", "A1xA1", "A1xA1xA1"]
)


def test_criterion_4_coxeter_element_extremes(capsys):
    bad = []
    for descriptor in ACC4_TYPES:
        graph = graph_for(descriptor)
        spectrum = ilen_spectrum(graph)
        chi = chromatic_number(graph)[0]
        longest = longest_path_order(graph)
        assert longest == brute_longest_path(graph)  # independent enumeration oracle
        spec = parse_spec(descriptor)
        expected_chi = 1 if all(t == "A1" for t in spec.components) else 2
        if len(spec.components) == 1 and spec.components[0][0] in "ABFHI":
            assert longest == spec.rank  # these Coxeter graphs are paths
        if not (min(spectrum) == chi == expected_chi and max(spectrum) == longest):
            bad.append(descriptor)
    with capsys.disabled():
        outcome(4, not bad, f"{len(ACC4_TYPES)} types" + (f"; failing: {bad}" if bad else ""))
    assert not bad


ACC5_TYPES = (
    [f"A{n}" for n in range(1, 7)]
    + [f"B{n}" for n in range(2, 7)]
    + ["D4", "D5", "D6", "E6", "F4", "H3", "H4"]
    + ["I2(3)", "I2(4)", "I2(5)", "I2(7)", "I2(50)"]
)


@pytest.mark.slow
def test_criterion_5_cross_engine_equivalence(group, capsys):
    checked = 0
    for descriptor in ACC5_TYPES:
        graph = graph_for(descriptor)
        table = group(descriptor)
        for word in coxeter_element_classes(graph):
            o = orientation_of(graph, word)
            layers = coxeter_ancestor_decomposition(o)
            e = element_from_word(table, word.ordering)
            dec = ancestor_decomposition(table, e)
            factor_layers = [
                frozenset(canonical_reduced_word(table, f)) for f in dec.factors
            ]
            assert factor_layers == layers, (descriptor, word)
            assert involution_length(table, e) == path_length(o), (descriptor, word)
            checked += 1
    with capsys.disabled():
        outcome(5, True, f"{checked} Coxeter elements across {len(ACC5_TYPES)} types")


ACC6_GROUPS = (
    ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "D4", "F4", "H3"]
    + [f"I2({m})" for m in range(3, 9)]
    + ["A1xA1", "A1xA2", "A2xB2"]
)


@pytest.mark.slow
def test_criterion_6_oracle_equivalence(group, capsys):
    for descriptor in ACC6_GROUPS:
        table = group(descriptor)
        assert table.order <= 1152, descriptor
        # length oracle: BFS distance in the right-multiplication Cayley graph
        assert cayley_bfs_lengths(table) == table.length.tolist(), descriptor
        # prefix oracle: whole-group scan vs interval search, every element
        lgs = left_tables(table)
        for w in range(table.order):
            assert prefixes(table, w).members == brute_prefix_set(table, lgs, w), (
                descriptor,
                w,
            )
        # descent oracle: l(rw) < l(w) definition
        for w in range(table.order):
            descents = left_descents(table, w)
            for g in range(1, table.n + 1):
                shorter = int(
                    table.length[left_multiply_generator(table, g, w)]
                ) < int(table.length[w])
                assert (g in descents) == shorter, (descriptor, w, g)
    with capsys.disabled():
        outcome(6, True, f"{len(ACC6_GROUPS)} groups of order <= 1152")


ACC7_GROUPS = ["A4", "B3", "D4", "H3", "I2(7)", "A2xB2"]


@pytest.mark.slow
def test_criterion_7_invariant_suite(group, capsys):
    for descriptor in ACC7_GROUPS:
        table = group(descriptor)
        scan = ancestor_scan(table)
        # A(w) nonempty for every non-identity element
        assert (scan.ancestor_count[1:] >= 1).all(), descriptor
        for w in range(1, table.order):
            dec = ancestor_decomposition(table, w)
            # soundness: involution factors, ordered product, additive lengths
            prod = 0
            for f in dec.factors:
                assert is_involution(table, f), (descriptor, w)
                prod = multiply(table, prod, f)
            assert prod == w, (descriptor, w)
            assert sum(int(table.length[f]) for f in dec.factors) == int(
                table.length[w]
            ), (descriptor, w)
            assert dec.ilen <= int(table.length[w]), (descriptor, w)

    # descents of Coxeter elements pairwise commute, and all Coxeter elements
    # of a type share one element order
    for descriptor in ("A4", "B3", "D4", "H3", "I2(7)"):
        graph = graph_for(descriptor)
        matrix = build_matrix(parse_spec(descriptor))
        table = group(descriptor)
        orders = set()
        for word in coxeter_element_classes(graph):
            o = orientation_of(graph, word)
            descents = sorted(coxeter_descents(o))
            for i, j in itertools.combinations(descents, 2):
                assert matrix.bond(i, j) == 2, (descriptor, word)
            orders.add(element_order(table, element_from_word(table, word.ordering)))
        assert len(orders) == 1, descriptor
    with capsys.disabled():
        outcome(7, True, f"soundness on {ACC7_GROUPS}, commuting descents, shared orders")


def test_criterion_8_determinism(capsys):
    def cli_sweep(workers):
        main(["verify", "--spec", "A5", "--format", "json", "--quiet", "--workers", workers])
        data = json.loads(capsys.readouterr().out)
        for report in data["reports"]:
            report.pop("elapsed_seconds")
        return data

    serial = cli_sweep("1")
    parallel = cli_sweep("4")
    in_process = json.loads(reports_to_json(sweep(["A5"], workers=3), include_elapsed=False))
    ok = serial == parallel == in_process
    with capsys.disabled():
        outcome(8, ok, "A5 serial vs 4 workers, reports identical modulo timing")
    assert ok
