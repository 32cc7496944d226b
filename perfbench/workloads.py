"""One workload in a fresh interpreter: set up, run timed iterations, check outputs.

run.py starts this file with the checkout's src/ as the only PYTHONPATH entry,
a few times with --setup-only to time set-up and once to measure.  It prints
one JSON line of raw samples, which run.py turns into metrics.

An iteration is one pass over the workload's inputs, from the first call into
coxanc until the last output has been checked.  Iterations repeat until
--seconds of measured time have passed, and at least MIN_ITERATIONS times.
Between two iterations the process prints `pause` and waits for a line on
stdin, while run.py times set-up in other processes.  With --trace 1, one
traced iteration follows the untraced ones.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import checks
import coxanc
import gen
import layers
from coxanc import cli, core, coxeter_elements, engine, graphs, universal, verifier, weak_order
from tracing import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".perfbench-runs"
MIN_ITERATIONS = 2

clock = time.perf_counter


class Tally:
    """Operations attempted and failed, and per-operation latencies."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.problems: list[str] = []

    def op(self, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:2])


def _guarded(tally: Tally, run):
    """Run one operation; an exception counts it as failed and the run goes on."""
    try:
        return run()
    except Exception:
        tally.op(["raised: " + traceback.format_exc(limit=3)])
        return None


class PaperSweep:
    """The paper's sweep of 67 groups, then its JSON and CSV reports.

    Why: the paper's own traffic.  The ancestor scan and the table build of
    H4, D6, A7, B6 and E6 do almost all the work.  One operation is one
    whole sweep with its reports, as one `coxanc verify --preset paper`; the
    per-group times (a few ms for most groups, too noisy to gate on) are in
    the trace.
    """

    name = "paper-sweep"
    samples_per_iteration = 1

    def __init__(self, seed: int, workdir: Path):
        self.specs = list(gen.PAPER_SPECS)
        self.expected = checks.load_expected()

    def iteration(self, tr, tally: Tally):
        t0 = clock()
        marks = [t0]  # marks[i] is when group i started verifying
        derived_s = 0.0

        def progress(report):
            nonlocal derived_s
            done = clock()
            op = len(marks) - 1
            tr.record("verifier.verify_group", marks[-1], done, op=op)
            if tr.enabled:
                self._second_calls(tr, op)
                derived_s += clock() - done
            marks.append(clock())

        outputs = _guarded(tally, lambda: self._sweep(tr, progress))
        if outputs is not None:
            reports, json_text, csv_text = outputs
            with tr.span("bench.check"):
                for report in reports:
                    tally.op(checks.paper_report_problems(report, self.expected))
                tally.op(checks.paper_output_problems(
                    reports, json_text, csv_text, cli.exit_code_for(reports), self.expected
                ))
        wall = clock() - t0 - derived_s
        if outputs is not None:
            tally.latencies.append(wall)
        return wall, wall

    def _sweep(self, tr, progress):
        with tr.span("verifier.sweep"):
            reports = verifier.sweep(self.specs, workers=1, progress=progress)
        with tr.span("verifier.reports_to_json"):
            json_text = verifier.reports_to_json(reports)
        with tr.span("verifier.reports_to_csv"):
            csv_text = verifier.reports_to_csv(reports)
        return reports, json_text, csv_text

    def _second_calls(self, tr, op):
        """verify_group again, then each of its layers on its own, back to back.

        verifier.post_scan_s is the second verify_group minus these layers, so
        both sides are timed under the same conditions.
        """
        descriptor = self.specs[op]
        tr.name_op(op, descriptor)
        with tr.span("verifier.verify_group.again", op=op, derived=True):
            verifier.verify_group(descriptor, workers=1)
        with tr.span("core.parse_spec", op=op, derived=True):
            spec = core.parse_spec(descriptor)
        with tr.span("core.build_matrix", op=op, derived=True):
            matrix = core.build_matrix(spec)
        with tr.span("engine.build_root_system", op=op, derived=True):
            system = engine.build_root_system(matrix)
        with tr.span("engine.build_group_table", op=op, derived=True):
            table = engine.build_group_table(system)
        with tr.span("engine.build_group_table.no_audit", op=op, derived=True):
            engine.build_group_table(system, audit=False)
        with tr.span("verifier.ancestor_scan", op=op, derived=True):
            scan = verifier.ancestor_scan(table, workers=1)
        layers.count_table(tr, table)
        layers.count_scan(tr, table, scan)


class ElementD7:
    """Build D7, then answer seeded `coxanc element` queries on 200-letter words.

    Why: the table build and the per-element weak-order search do all the
    work; the ancestor scan is never called.  One operation is one query.
    """

    name = "element-d7"
    samples_per_iteration = gen.D7_QUERIES
    descriptor = "D7"

    def __init__(self, seed: int, workdir: Path):
        self.words = gen.d7_words(seed)

    def iteration(self, tr, tally: Tally):
        t0 = clock()
        with tr.span("core.parse_spec"):
            spec = core.parse_spec(self.descriptor)
        with tr.span("core.build_matrix"):
            matrix = core.build_matrix(spec)
        with tr.span("engine.build_root_system"):
            system = engine.build_root_system(matrix)
        with tr.span("engine.build_group_table"):
            table = engine.build_group_table(system)
        first = None
        for op, word in enumerate(self.words):
            with tr.span("op", op=op):
                start = clock()
                answer = _guarded(tally, lambda: self._query(tr, table, word))
                done = clock()
                if first is None:
                    first = done - t0
                if answer is not None:
                    tally.latencies.append(done - start)
                    with tr.span("bench.check"):
                        tally.op(checks.element_problems(table, *answer))
        main_s = clock() - t0
        if tr.enabled:
            with tr.span("engine.build_group_table.no_audit", derived=True):
                engine.build_group_table(system, audit=False)
            layers.count_table(tr, table)
            for word in self.words:
                w = engine.element_from_word(table, word)
                if w != 0:
                    with tr.span("weak_order.prefixes", derived=True):
                        size = len(weak_order.prefixes(table, w).members)
                    tr.count("weak_order.interval_size", size)
        return first, main_s

    @staticmethod
    def _query(tr, table, word):
        """The calls `coxanc element` makes for one word."""
        with tr.span("engine.element_from_word"):
            w = engine.element_from_word(table, word)
        if w == 0:
            return w, None, None, None, None
        with tr.span("weak_order.involution_prefixes"):
            inv_prefixes = weak_order.involution_prefixes(table, w)
        with tr.span("weak_order.ancestors"):
            ancestors = weak_order.ancestors(table, w)
        with tr.span("weak_order.ancestor_decomposition"):
            dec = weak_order.ancestor_decomposition(table, w)
        with tr.span("weak_order.suffix_ancestor_decomposition"):
            sdec = weak_order.suffix_ancestor_decomposition(table, w)
        return w, inv_prefixes, ancestors, dec, sdec


class GraphWord:
    """`coxanc coxelems` on rank-8/9 graphs and universal decompositions of long words.

    Why: no group table is involved.  Trees and dense random graphs vary the
    number of Coxeter elements against the n! orderings tried, and power words
    against random words vary the palindrome structure.  One operation is one
    graph or one word.
    """

    name = "graph-word"

    def __init__(self, seed: int, workdir: Path):
        inputs = gen.graph_word_inputs(seed, workdir)
        self.graphs = inputs["graphs"]
        self.words = inputs["words"]
        self.samples_per_iteration = len(self.graphs) + len(self.words)

    def iteration(self, tr, tally: Tally):
        t0 = clock()
        first = None
        jobs = [(name, self._graph, self._check_graph, arg) for name, arg in self.graphs]
        jobs += [(name, self._word, self._check_word, arg) for name, arg in self.words]
        for op, (name, job, check, arg) in enumerate(jobs):
            tr.name_op(op, name)
            with tr.span("op", op=op):
                start = clock()
                answer = _guarded(tally, lambda: job(tr, arg))
                done = clock()
                if first is None:
                    first = done - t0
                if answer is not None:
                    tally.latencies.append(done - start)
                    with tr.span("bench.check"):
                        tally.op(check(name, arg, answer))
        return first, clock() - t0

    @staticmethod
    def _graph(tr, descriptor):
        """The `coxanc coxelems` analyses of one graph, with the class list."""
        with tr.span("core.parse_spec"):
            spec = core.parse_spec(descriptor)
        with tr.span("core.build_matrix"):
            matrix = core.build_matrix(spec)
        with tr.span("core.graph_of"):
            graph = core.graph_of(matrix)
        with tr.span("graphs.chromatic_number"):
            chi, _ = graphs.chromatic_number(graph)
        with tr.span("graphs.longest_path_order"):
            longest = graphs.longest_path_order(graph)
        with tr.span("coxeter_elements.ilen_spectrum"):
            spectrum = coxeter_elements.ilen_spectrum(graph)
        with tr.span("coxeter_elements.min_ilen_coxeter_element"):
            _, min_ilen = coxeter_elements.min_ilen_coxeter_element(graph)
        with tr.span("coxeter_elements.coxeter_element_classes"):
            classes = coxeter_elements.coxeter_element_classes(graph)
        tr.count("coxeter_elements.distinct_elements", len(classes))
        return chi, longest, spectrum, min_ilen, classes

    @staticmethod
    def _check_graph(name, descriptor, answer):
        return checks.graph_problems(name, *answer)

    @staticmethod
    def _word(tr, word):
        with tr.span("universal.ug_ancestor_decomposition"):
            dec = universal.ug_ancestor_decomposition(word)
        with tr.span("universal.ug_involution_prefixes"):
            prefixes = universal.ug_involution_prefixes(word)
        tr.count("universal.letters", len(word))
        return dec.factors, prefixes

    @staticmethod
    def _check_word(name, word, answer):
        return checks.word_problems(name, word, *answer, name.startswith("power"))


WORKLOADS = {w.name: w for w in (PaperSweep, ElementD7, GraphWord)}


def measure(workload, seconds: float, trace: bool, pause=lambda: None) -> dict:
    """Iterations for `seconds` of measured time; pause() runs between two of them."""
    tally = Tally()
    walls, firsts = [], []
    start = clock()
    paused = 0.0
    while len(walls) < MIN_ITERATIONS or clock() - start - paused < seconds:
        if walls:
            t = clock()
            pause()
            paused += clock() - t
        first, wall = workload.iteration(NullTracer(), tally)
        firsts.append(first)
        walls.append(wall)
    out = {
        "wall_s": walls,
        "first_result_s": firsts,
        "latency_s": tally.latencies,
        "min_samples": MIN_ITERATIONS * workload.samples_per_iteration,
    }
    if trace:
        tracer = Tracer()
        layers.zero_counts(tracer)
        traced = Tally()  # its latencies stay out of the untraced samples
        _, traced_wall = workload.iteration(tracer, traced)
        tracer.dump(RUN_DIR / f"trace-{workload.name}.json")
        out["per_layer"] = layers.per_layer(tracer, traced_wall, statistics.median(walls))
        tally.attempted += traced.attempted
        tally.failed += traced.failed
        tally.problems += traced.problems
    out.update(attempted=tally.attempted, failed=tally.failed, problems=tally.problems[:20])
    return out


def _wait_for_parent():
    """Tell run.py that an iteration has ended, and wait until it says go on."""
    print("pause", flush=True)
    sys.stdin.readline()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before it started this process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    source = Path(coxanc.__file__).resolve().parent
    if source != ROOT / "src" / "coxanc":
        print(f"coxanc was imported from {source}, not from this checkout", file=sys.stderr)
        return 2
    RUN_DIR.mkdir(exist_ok=True)
    workdir = RUN_DIR / f"inputs-{args.workload}-{args.seed}-{time.monotonic_ns()}"
    workdir.mkdir()
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        setup_s = time.monotonic() - args.spawned_at
        result = {"setup_s": setup_s}
        if not args.setup_only:
            result.update(measure(workload, args.seconds, bool(args.trace), pause=_wait_for_parent))
    finally:
        shutil.rmtree(workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
