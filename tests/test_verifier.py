import dataclasses
import json

import pytest

from coxanc import (
    ancestor_scan,
    ancestors,
    element_from_word,
    involution_length,
    multiply,
    reports_to_csv,
    reports_to_json,
    sweep,
    verify_ancestor_property,
    verify_group,
    verify_ilen_bound,
)
from coxanc.errors import AncestorAmbiguityFound
from coxanc.verifier import PAPER_PRESET, _ilen_array


def test_small_sweep_passes():
    reports = sweep(["A2", "A3", "B2"])
    assert [r.spec for r in reports] == ["A2", "A3", "B2"]
    for r in reports:
        assert r.error is None
        assert r.conjecture1_holds is True
        assert r.conjecture2_holds is True
        assert r.conjecture1_counterexamples == []
        assert sum(r.ilen_histogram.values()) == r.group_order
        assert r.ilen_histogram[0] == 1


def test_verify_ancestor_property(group):
    for descriptor in ("A5", "H3", "I2(3)", "I2(12)"):
        ok, counterexamples = verify_ancestor_property(group(descriptor))
        assert ok is True and counterexamples == []


def test_verify_ilen_bound_examples(group):
    holds, max_ilen, hist = verify_ilen_bound(group("A1"), 1)
    assert (holds, max_ilen) == (True, 1)
    assert hist == {0: 1, 1: 1}

    holds, max_ilen, hist = verify_ilen_bound(group("B4"), 4)
    assert holds is True and max_ilen <= 4
    assert sum(hist.values()) == group("B4").order

    # F4 genuinely exceeds its rank (see the H3 counterexample analysis)
    holds, max_ilen, _ = verify_ilen_bound(group("F4"), 4)
    assert holds is False and max_ilen == 5


def test_scan_matches_per_element_path(group):
    for descriptor in ("B3", "H3", "D4", "I2(7)", "A2xB2"):
        table = group(descriptor)
        scan = ancestor_scan(table)
        assert (scan.max_prefix_length[0], scan.ancestor_count[0]) == (-1, 0)
        assert (scan.ancestor[0], scan.stripped[0]) == (-1, -1)
        for w in range(1, table.order):
            witnesses = sorted(ancestors(table, w).members)
            assert scan.max_prefix_length[w] == table.length[witnesses[0]], (descriptor, w)
            assert scan.ancestor_count[w] == len(witnesses), (descriptor, w)
            assert scan.ancestor[w] == witnesses[0], (descriptor, w)
            assert scan.stripped[w] == multiply(table, witnesses[0], w), (descriptor, w)
        ilen = _ilen_array(table, scan)
        for w in range(table.order):
            assert involution_length(table, w) == int(ilen[w]), (descriptor, w)


def test_scan_ambiguous_element_gets_exact_witnesses(group):
    # No group the package builds has an ambiguous element, so make one: with
    # t = r1 r2 r1 no longer counted as an involution, w = r1 r2 r1 r3 in A3
    # has the two longest involution prefixes r1 and r2.  The search for w
    # reads inverse[] only in the involution test inverse[x] == x.
    real = group("A3")
    t = element_from_word(real, (1, 2, 1))
    w = element_from_word(real, (1, 2, 1, 3))
    inverse = real.inverse.copy()
    inverse[t] = 0
    table = dataclasses.replace(real, inverse=inverse)
    r1, r2 = element_from_word(table, (1,)), element_from_word(table, (2,))
    assert ancestors(table, w).members == {r1, r2}

    scan = ancestor_scan(table)
    assert scan.max_prefix_length[w] == 1
    assert scan.ancestor_count[w] == 2
    assert scan.ancestor[w] == min(r1, r2)
    assert scan.stripped[w] == multiply(table, min(r1, r2), w)
    with pytest.raises(AncestorAmbiguityFound) as excinfo:
        _ilen_array(table, scan)
    assert w in excinfo.value.element_ids


def test_ambiguity_propagates_as_structured_failure(group):
    table = group("A2")
    scan = ancestor_scan(table)
    scan.ancestor_count[3] = 2  # fabricate an ambiguous element
    with pytest.raises(AncestorAmbiguityFound) as excinfo:
        _ilen_array(table, scan)
    assert excinfo.value.element_ids == (3,)


def test_suffix_mismatch_statistic(group):
    table = group("A3")
    report = verify_group("A3")
    expected = sum(
        1
        for w in range(table.order)
        if involution_length(table, w) != involution_length(table, int(table.inverse[w]))
    )
    assert report.suffix_ilen_mismatches == expected


def test_not_finite_recorded_without_aborting():
    reports = sweep(["U2", "A2"], root_cap=200)
    assert reports[0].error is not None and "NotFinite" in reports[0].error
    assert reports[0].conjecture1_holds is None
    assert reports[1].conjecture1_holds is True


def test_bad_descriptor_recorded():
    reports = sweep(["Q9"])
    assert reports[0].error is not None and "UnknownType" in reports[0].error


def test_product_reducibility():
    factor = verify_group("A2")
    product = verify_group("A2xA2")
    assert product.group_order == factor.group_order**2
    assert factor.conjecture1_holds and product.conjecture1_holds
    assert factor.conjecture2_holds and product.conjecture2_holds


def _strip_elapsed(payload):
    data = json.loads(payload)
    for report in data["reports"]:
        report.pop("elapsed_seconds")
    return data


def test_serial_parallel_equivalence():
    serial = sweep(["A5"], workers=1)
    parallel = sweep(["A5"], workers=4)
    assert _strip_elapsed(reports_to_json(serial)) == _strip_elapsed(reports_to_json(parallel))


def test_determinism_repeated_runs():
    a = reports_to_json(sweep(["A4", "B3"]), include_elapsed=False)
    b = reports_to_json(sweep(["A4", "B3"]), include_elapsed=False)
    assert a == b


def test_json_and_csv_shapes():
    reports = sweep(["A2"])
    data = json.loads(reports_to_json(reports))
    (entry,) = data["reports"]
    assert entry["spec"] == "A2"
    assert entry["group_order"] == 6
    assert entry["ilen_histogram"] == {"0": 1, "1": 3, "2": 2}
    assert entry["error"] is None

    csv = reports_to_csv(reports)
    lines = csv.strip().splitlines()
    assert lines[0] == "spec,order,conj1,conj2,max_ilen,rank,seconds"
    assert lines[1].startswith("A2,6,True,True,2,2,")


def _symmetric_involutions(n):
    # elements of order <= 2 in S_n: a(n) = a(n-1) + (n-1) a(n-2)
    a, b = 1, 1
    for k in range(2, n + 1):
        a, b = b, b + (k - 1) * a
    return b


def _signed_involutions(n):
    # elements of order <= 2 in the signed permutation group
    a, b = 1, 2
    for k in range(2, n + 1):
        a, b = b, 2 * b + 2 * (k - 1) * a
    return b


@pytest.mark.parametrize("descriptor,count", [
    ("A3", _symmetric_involutions(4) - 1),
    ("A5", _symmetric_involutions(6) - 1),
    ("B3", _signed_involutions(3) - 1),
    ("B4", _signed_involutions(4) - 1),
    ("H3", 31),  # icosahedral group is A5 x C2: (15 + 15) paired with +-1, plus -1 itself
])
def test_ilen_one_bucket_is_involution_count(descriptor, count):
    report = verify_group(descriptor)
    assert report.ilen_histogram[1] == count


def test_paper_preset_contents():
    assert "A7" in PAPER_PRESET and "E6" in PAPER_PRESET and "I2(50)" in PAPER_PRESET
    assert len(PAPER_PRESET) == 7 + 5 + 3 + 4 + 48
