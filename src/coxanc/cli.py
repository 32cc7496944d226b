"""Command-line surface.

Commands:
    verify     run conjecture sweeps over one or more groups
    element    analyze a single element given by a word
    coxelems   graph-level Coxeter element analysis (finite or infinite groups)
    universal  decompose (r_1...r_n)^k in the universal group

Exit codes: 0 all verifications pass, 1 a conjecture counterexample was
found, 2 usage or build errors.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import coxeter_elements as cox
from . import universal, verifier, weak_order
from .core import build_matrix, graph_of, parse_spec
from .engine import (
    build_group,
    canonical_reduced_word,
    element_from_word,
    format_word,
    left_descents,
)
from .errors import CoxeterError, OutputError
from .graphs import chromatic_number, is_bipartite, longest_path_order

EXIT_PASS = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_ERROR = 2


def _word_from_arg(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise CoxeterError(f"cannot parse word {text!r}: expected comma-separated integers")


def _emit(text: str, out_path: str | None):
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise OutputError(f"cannot write --out {out_path}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def cmd_verify(args) -> int:
    descriptors: list[str] = []
    if args.preset:
        descriptors.extend(verifier.PRESETS[args.preset])
    descriptors.extend(args.spec or [])
    if not descriptors:
        print("verify: no specs given (use --spec or --preset)", file=sys.stderr)
        return EXIT_ERROR

    def progress(report):
        if not args.quiet:
            print(verifier.report_text(report), file=sys.stderr)

    reports = verifier.sweep(
        descriptors,
        workers=args.workers,
        order_guard=args.order_guard,
        root_cap=args.root_cap,
        progress=progress,
    )
    if args.format == "json":
        _emit(verifier.reports_to_json(reports), args.out)
    elif args.format == "csv":
        _emit(verifier.reports_to_csv(reports), args.out)
    else:
        lines = [verifier.report_text(r) for r in reports]
        passed = sum(1 for r in reports if r.passed)
        lines.append(f"verified {len(reports)} group(s): {passed} pass, {len(reports) - passed} fail")
        _emit("\n".join(lines) + "\n", args.out)
    return exit_code_for(reports)


def exit_code_for(reports) -> int:
    if any(r.error is not None for r in reports):
        return EXIT_ERROR
    if any(not r.passed for r in reports):
        return EXIT_COUNTEREXAMPLE
    return EXIT_PASS


def cmd_element(args) -> int:
    spec = parse_spec(args.spec)
    table = build_group(spec, root_cap=args.root_cap, order_guard=args.order_guard)
    word = _word_from_arg(args.word)
    w = element_from_word(table, word)
    data: dict = {
        "spec": spec.descriptor,
        "rank": spec.rank,
        "group_order": table.order,
        "word": list(word),
        "canonical_word": list(canonical_reduced_word(table, w)),
        "length": int(table.length[w]),
        "left_descents": sorted(left_descents(table, w)),
    }
    ambiguous = False
    if w == table.id_of_identity:
        data.update(
            involution_prefix_count=0,
            ancestors=[],
            ancestor_decomposition=[],
            involution_length=0,
            suffix_ancestor_decomposition=[],
            suffix_involution_length=0,
        )
    else:
        ipref = weak_order.involution_prefixes(table, w).members
        anc = weak_order.ancestors(table, w).members
        data["involution_prefix_count"] = len(ipref)
        data["ancestors"] = [list(canonical_reduced_word(table, u)) for u in sorted(anc)]
        dec = weak_order.ancestor_decomposition(table, w)
        sdec = weak_order.suffix_ancestor_decomposition(table, w)
        ambiguous = isinstance(dec, weak_order.Ambiguity) or isinstance(
            sdec, weak_order.Ambiguity
        )
        if ambiguous:
            data["ambiguity"] = True
        else:
            data["ancestor_decomposition"] = [
                list(canonical_reduced_word(table, f)) for f in dec.factors
            ]
            data["involution_length"] = dec.ilen
            data["suffix_ancestor_decomposition"] = [
                list(canonical_reduced_word(table, f)) for f in sdec.factors
            ]
            data["suffix_involution_length"] = sdec.ilen

    if args.format == "json":
        _emit(json.dumps(data, indent=2, sort_keys=True), args.out)
        return EXIT_COUNTEREXAMPLE if ambiguous else EXIT_PASS

    lines = [
        f"group {data['spec']}: order {data['group_order']}, rank {data['rank']}",
        f"word: {format_word(word)}",
        f"canonical reduced word: {format_word(data['canonical_word'])}",
        f"length: {data['length']}",
        f"left descents: {{{', '.join(f'r{g}' for g in data['left_descents'])}}}",
        f"involution prefixes: {data['involution_prefix_count']}",
    ]
    if ambiguous:
        lines.append("ANCESTOR AMBIGUITY: " + ", ".join(
            f"({format_word(a)})" for a in data["ancestors"]
        ))
    else:
        lines += [
            "ancestors: " + ("".join(f"({format_word(a)})" for a in data["ancestors"]) or "none"),
            "ancestor decomposition: "
            + ("".join(f"({format_word(f)})" for f in data["ancestor_decomposition"]) or "e"),
            f"involution length: {data['involution_length']}",
            "suffix ancestor decomposition: "
            + ("".join(f"({format_word(f)})" for f in data["suffix_ancestor_decomposition"]) or "e"),
            f"suffix involution length: {data['suffix_involution_length']}",
        ]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_COUNTEREXAMPLE if ambiguous else EXIT_PASS


def cmd_coxelems(args) -> int:
    descriptor = f"file:{args.file}" if args.file else args.spec
    spec = parse_spec(descriptor)
    graph = graph_of(build_matrix(spec))
    chi, _ = chromatic_number(graph)
    longest = longest_path_order(graph)
    spectrum = cox.ilen_spectrum(graph)
    witness, witness_ilen = cox.min_ilen_coxeter_element(graph)
    data = {
        "spec": spec.descriptor,
        "rank": spec.rank,
        "chromatic_number": chi,
        "longest_path_order": longest,
        "bipartite": is_bipartite(graph),
        "ilen_spectrum": {str(k): v for k, v in spectrum.items()},
        "distinct_coxeter_elements": sum(spectrum.values()),
        "min_ilen_coxeter_element": list(witness.ordering),
        "min_ilen": witness_ilen,
    }
    if args.show_orderings:
        details = []
        for rep in cox.coxeter_element_classes(graph):
            o = cox.orientation_of(graph, rep)
            layers = cox.coxeter_ancestor_decomposition(o)
            details.append(
                {
                    "ordering": list(rep.ordering),
                    "layers": [sorted(layer) for layer in layers],
                    "involution_length": len(layers),
                }
            )
        data["coxeter_elements"] = details

    if args.format == "json":
        _emit(json.dumps(data, indent=2, sort_keys=True), args.out)
        return EXIT_PASS
    lines = [
        f"graph {data['spec']}: rank {data['rank']}",
        f"chromatic number: {chi}",
        f"longest path order: {longest}",
        f"bipartite: {'yes' if data['bipartite'] else 'no'}",
        f"distinct coxeter elements: {data['distinct_coxeter_elements']}",
        "involution length spectrum: "
        + ", ".join(f"{k}: {v}" for k, v in spectrum.items()),
        f"minimum-ilen coxeter element: {format_word(witness.ordering)} "
        f"(involution length {witness_ilen})",
    ]
    if args.show_orderings:
        for d in data["coxeter_elements"]:
            rendered = "".join(
                "(" + " ".join(f"r{v}" for v in layer) + ")" for layer in d["layers"]
            )
            lines.append(
                f"  {format_word(d['ordering'])}: {rendered} ilen {d['involution_length']}"
            )
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_PASS


def cmd_universal(args) -> int:
    word = universal.ug_power_word(args.n, args.k)
    if word:
        dec = universal.ug_ancestor_decomposition(word)
        factors = [list(f) for f in dec.factors]
        ilen = dec.ilen
    else:
        factors, ilen = [], 0
    violated = ilen > args.n
    data = {
        "n": args.n,
        "k": args.k,
        "word": list(word),
        "length": len(word),
        "ancestor_decomposition": factors,
        "involution_length": ilen,
        "rank_bound_violated": violated,
    }
    if args.format == "json":
        _emit(json.dumps(data, indent=2, sort_keys=True), args.out)
        return EXIT_PASS
    relation = "exceeds" if violated else ("equals" if ilen == args.n else "is below")
    lines = [
        f"universal group of rank {args.n}, word (r1...r{args.n})^{args.k}",
        f"element: {format_word(word)} (length {len(word)})",
        "ancestor decomposition: " + ("".join(f"({format_word(f)})" for f in factors) or "e"),
        f"involution length: {ilen}",
        f"involution length {relation} rank {args.n}"
        + (" -- rank bound violated" if violated else ""),
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxanc",
        description="Involution prefixes, ancestor decompositions, and conjecture sweeps "
        "for Coxeter groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("text", "json")):
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", default=None, help="write output to this path")

    p = sub.add_parser("verify", help="run conjecture sweeps")
    p.add_argument("--spec", action="append", help="group descriptor (repeatable)")
    p.add_argument("--preset", choices=sorted(verifier.PRESETS), default=None)
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                   help="accepted and ignored: the scan is a single pass")
    p.add_argument("--order-guard", type=int, default=None)
    p.add_argument("--root-cap", type=int, default=verifier.DEFAULT_ROOT_CAP)
    p.add_argument("--quiet", action="store_true", help="suppress per-group progress")
    common(p, formats=("text", "json", "csv"))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("element", help="analyze one element")
    p.add_argument("--spec", required=True)
    p.add_argument("--word", required=True, help="comma-separated 1-based letters")
    p.add_argument("--order-guard", type=int, default=None)
    p.add_argument("--root-cap", type=int, default=verifier.DEFAULT_ROOT_CAP)
    common(p)
    p.set_defaults(func=cmd_element)

    p = sub.add_parser("coxelems", help="graph-level Coxeter element analysis")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--spec")
    group.add_argument("--file", help="Coxeter matrix file")
    p.add_argument("--show-orderings", action="store_true")
    common(p)
    p.set_defaults(func=cmd_coxelems)

    p = sub.add_parser("universal", help="decompose (r1...rn)^k in the universal group")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_universal)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_PASS
    try:
        return args.func(args)
    except CoxeterError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
