"""Output checks.  Each returns a list of problems; an empty list means correct.

The paper-sweep checks compare against expected.json, recorded from the
seed commit by record_expected.py.  The other checks test algebraic facts
that hold for any correct answer, so they need no recorded data.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

from coxanc import engine, weak_order

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# PAPER.md: the rank bound fails in exactly these groups of the paper's sweep.
RANK_BOUND_FAILS = frozenset({"E6", "F4", "H3", "H4"})
EXIT_COUNTEREXAMPLE = 1

# A forest with E edges has 2^E acyclic orientations, hence 2^E Coxeter elements.
TREE_COXETER_ELEMENTS = {"A9": 2**8, "D9": 2**8, "E8": 2**7}


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def report_digest(json_text: str) -> str:
    """sha256 of a reports_to_json document with every elapsed_seconds removed."""
    payload = json.loads(json_text)
    for report in payload["reports"]:
        report.pop("elapsed_seconds", None)
    canonical = json.dumps(payload, indent=2, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def paper_report_problems(report, expected: dict) -> list[str]:
    want = expected["groups"].get(report.spec)
    if want is None:
        return [f"{report.spec}: not a group of the paper's sweep"]
    problems = []
    if report.error is not None:
        problems.append(f"{report.spec}: error {report.error}")
    if report.conjecture1_holds is not True:
        problems.append(f"{report.spec}: ancestor uniqueness does not hold")
    if report.conjecture2_holds is not (report.spec not in RANK_BOUND_FAILS):
        problems.append(f"{report.spec}: rank bound holds={report.conjecture2_holds}")
    for key in ("group_order", "rank", "max_ilen"):
        if getattr(report, key) != want[key]:
            problems.append(f"{report.spec}: {key} {getattr(report, key)} != {want[key]}")
    return problems


def paper_output_problems(reports, json_text: str, csv_text: str, exit_code: int,
                          expected: dict) -> list[str]:
    problems = []
    specs = [r.spec for r in reports]
    if specs != list(expected["groups"]):
        problems.append(f"{len(specs)} reports, not the {len(expected['groups'])} expected groups")
    if exit_code != EXIT_COUNTEREXAMPLE:
        problems.append(f"exit code {exit_code}, expected {EXIT_COUNTEREXAMPLE}")
    if report_digest(json_text) != expected["json_digest"]:
        problems.append("JSON report differs from the seed commit's (elapsed_seconds aside)")
    rows = csv_text.splitlines()[1:]
    want_rows = [
        f"{spec},{g['group_order']},True,{spec not in RANK_BOUND_FAILS},{g['max_ilen']},{g['rank']}"
        for spec, g in expected["groups"].items()
    ]
    if [row.rsplit(",", 1)[0] for row in rows] != want_rows:
        problems.append("CSV rows differ from the expected groups")
    return problems


def _factor_problems(table, w: int, factors, side: str) -> list[str]:
    """factors multiply to w with additive lengths, each an involution peeled from `side`."""
    length = table.length
    problems = []
    if sum(int(length[f]) for f in factors) != int(length[w]):
        problems.append(f"{side} factor lengths do not add up to l(w)")
    product = 0
    for f in factors:
        product = engine.multiply(table, product, f)
    if product != w:
        problems.append(f"{side} factors do not multiply back to w")
    rest = w
    for f in factors if side == "prefix" else reversed(factors):
        if not engine.is_involution(table, f):
            problems.append(f"{side} factor {f} is not an involution")
            break
        if side == "prefix":
            if not weak_order.is_prefix(table, f, rest):
                problems.append(f"factor {f} is not a prefix of what remains")
                break
            rest = engine.multiply(table, f, rest)
        else:
            # f is a suffix of rest iff f = f^-1 is a prefix of rest^-1
            if not weak_order.is_prefix(table, f, int(table.inverse[rest])):
                problems.append(f"factor {f} is not a suffix of what remains")
                break
            rest = engine.multiply(table, rest, f)
    return problems


def element_problems(table, w: int, inv_prefixes, ancestors, dec, sdec) -> list[str]:
    """Answers of one `coxanc element` query; the identity has none."""
    if w == 0:
        return []
    if isinstance(dec, weak_order.Ambiguity) or isinstance(sdec, weak_order.Ambiguity):
        return [f"element {w}: ambiguous ancestor"]
    problems = []
    members = inv_prefixes.members
    top = max(int(table.length[u]) for u in members)
    if set(ancestors.members) != {u for u in members if int(table.length[u]) == top}:
        problems.append(f"element {w}: ancestors are not the longest involution prefixes")
    if dec.factors[:1] != tuple(ancestors.members):
        problems.append(f"element {w}: first factor is not the ancestor")
    problems += _factor_problems(table, w, dec.factors, "prefix")
    problems += _factor_problems(table, w, sdec.factors, "suffix")
    return problems


def graph_problems(name: str, chi: int, longest: int, spectrum: dict, min_ilen: int,
                   classes) -> list[str]:
    if not spectrum:
        return [f"{name}: empty spectrum"]
    problems = []
    if not min(spectrum) == chi == min_ilen:
        problems.append(f"{name}: spectrum min {min(spectrum)}, chromatic {chi}, min ilen {min_ilen}")
    if max(spectrum) != longest:
        problems.append(f"{name}: spectrum max {max(spectrum)} != longest path {longest}")
    total = sum(spectrum.values())
    if len(classes) != total:
        problems.append(f"{name}: {len(classes)} classes != spectrum total {total}")
    if name in TREE_COXETER_ELEMENTS and total != TREE_COXETER_ELEMENTS[name]:
        problems.append(f"{name}: {total} Coxeter elements, a tree has {TREE_COXETER_ELEMENTS[name]}")
    return problems


def word_problems(name: str, word, factors, prefixes, single_letter_factors: bool) -> list[str]:
    problems = []
    if any(f != f[::-1] for f in factors):
        problems.append(f"{name}: a factor is not a palindrome")
    if tuple(x for f in factors for x in f) != tuple(word):
        problems.append(f"{name}: factors do not concatenate to w")
    if single_letter_factors and any(len(f) != 1 for f in factors):
        problems.append(f"{name}: expected single-letter factors")
    if any(p != p[::-1] or tuple(word[: len(p)]) != p for p in prefixes):
        problems.append(f"{name}: an involution prefix is not a palindromic prefix")
    if [len(p) for p in prefixes] != sorted({len(p) for p in prefixes}):
        problems.append(f"{name}: involution prefixes not in increasing length")
    if not prefixes or prefixes[-1] != factors[0]:
        problems.append(f"{name}: longest involution prefix is not the first factor")
    return problems
