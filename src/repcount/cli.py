"""Command line front end.

Two subcommands sharing the same options:

  repcount decide FILE -n N    FINITE / INFINITE (witness: ...) / INCONCLUSIVE
  repcount count FILE -n N     the exact number of classes, when finite

Exit codes: 0 success, 2 input/parse problems, 3 resource limit hit,
4 count requested on an infinite family, 1 anything unexpected.

JSON output (--json) has a fixed key layout so runs on the same input are
byte-identical apart from the timings block.  Dumps (--dump) go to stderr so
they never mix into the primary stdout stream.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback
from pathlib import Path

from .count import CountReport, InfiniteRepresentations, build_quotient_algebra, count_from_run
from .decide import DEFAULT_LIMITS, DecisionInput, Outcome, PipelineRun, RunOptions, run_pipeline
from .genmat import certificate_words, certificates, length_bound, trace_generators
from .groebner import ResourceLimitExceeded, ResourceLimits
from .presentation import PresentationError, parse_presentation

_DUMP_CHOICES = ("ideal", "gb", "traces", "sset", "algebra")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repcount",
        description="Decide and count n-dimensional irreducible representations "
                    "of a finitely presented rational algebra.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (("decide", "finite or infinite verdict"),
                       ("count", "exact class count when finite")):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("path", help="presentation file, or - for stdin")
        cmd.add_argument("-n", "--dimension", type=int, required=True,
                        help="representation dimension n >= 1")
        cmd.add_argument("--json", action="store_true", help="machine readable output")
        cmd.add_argument("-v", "--verbose", action="store_true")
        cmd.add_argument("--dump", action="append", choices=_DUMP_CHOICES, default=[],
                        metavar="WHAT", help="write intermediates to stderr; repeatable; "
                        "one of %s" % (", ".join(_DUMP_CHOICES)))
        cmd.add_argument("--max-seconds", type=float, default=DEFAULT_LIMITS.max_seconds,
                        help="wall clock budget (<= 0 disables; default %g)"
                        % DEFAULT_LIMITS.max_seconds)
        cmd.add_argument("--max-degree", type=int, default=DEFAULT_LIMITS.max_degree,
                        help="abort past this polynomial degree (default %d)"
                        % DEFAULT_LIMITS.max_degree)
        cmd.add_argument("--max-basis", type=int, default=DEFAULT_LIMITS.max_basis,
                        help="abort past this many basis elements (default %d)"
                        % DEFAULT_LIMITS.max_basis)
        cmd.add_argument("--order", choices=("grevlex", "lex"), default="grevlex",
                        help="monomial order for non-elimination bases")
    return parser


def _read_input(path: str) -> tuple[str, str]:
    if path == "-":
        return sys.stdin.read(), "<stdin>"
    p = Path(path)
    return p.read_text(), p.stem


def _options(args: argparse.Namespace) -> RunOptions:
    limits = ResourceLimits(
        max_seconds=None if args.max_seconds is not None and args.max_seconds <= 0
        else args.max_seconds,
        max_degree=args.max_degree,
        max_basis=args.max_basis)
    return RunOptions(order=args.order, limits=limits)


def _run(args: argparse.Namespace) -> PipelineRun:
    """Parse the input and run the pipeline."""
    text, name = _read_input(args.path)
    presentation = parse_presentation(text, name=name)
    return run_pipeline(DecisionInput(presentation, args.dimension, _options(args)))


def _json_payload(run: PipelineRun, report: CountReport | None,
                  count_overrun: ResourceLimitExceeded | None = None) -> dict:
    """The --json payload.  A run stopped by a limit, in the decision or in
    the count, has status "resource-limit" and says why and in which stage."""
    verdict = run.verdict
    if verdict.outcome is Outcome.INCONCLUSIVE:
        head = {"status": "resource-limit", "reason": verdict.inconclusive_reason,
                "stage": verdict.inconclusive_stage}
    elif count_overrun is not None:
        head = {"status": "resource-limit", "reason": str(count_overrun), "stage": "count"}
    else:
        head = {"status": "ok"}
    minimal = {word: mp.degree for word, mp in verdict.minimal_polynomials.items()}
    metrics = verdict.metrics.as_dict()
    timings = {k: int(round(v * 1000)) for k, v in sorted(verdict.metrics.timings.items())}
    return {
        **head,
        "verdict": verdict.outcome.value,
        "count": report.count if report is not None else None,
        "witness": verdict.witness.render() if verdict.witness else None,
        "minimal_polynomials": minimal,
        "metrics": metrics,
        "timings_ms": timings,
    }


def _print_json(run: PipelineRun, report: CountReport | None,
                count_overrun: ResourceLimitExceeded | None = None) -> None:
    print(json.dumps(_json_payload(run, report, count_overrun), indent=2))


def _emit_dumps(targets, run: PipelineRun, report: CountReport | None,
                count_overrun: bool = False) -> None:
    err = sys.stderr
    done = set()
    for target in targets:
        if target in done:
            continue
        done.add(target)
        if target == "ideal":
            print("# relations ideal (%d generators)" % len(run.relations.generators), file=err)
            for g in run.relations.generators:
                print(g, file=err)
        elif target == "gb":
            basis = run.locus_basis or run.relations_basis
            label = "locus" if run.locus_basis is not None else "relations"
            if basis is None:
                print("# no basis computed", file=err)
                continue
            print("# %s ideal reduced basis (%d elements)" % (label, len(basis.elements)),
                  file=err)
            for g in basis.elements:
                print(g, file=err)
        elif target == "traces":
            # the run keeps the values reduced modulo the locus; print tr(w) itself
            generators = trace_generators(run.space) if run.generators else ()
            print("# trace generators (%d)" % len(generators), file=err)
            for tg in generators:
                print("%s = %s" % (tg.render(), tg.value), file=err)
        elif target == "sset":
            _dump_certificates(run, err)
        elif target == "algebra":
            _dump_algebra(run, report, err, count_overrun)


def _dump_certificates(run: PipelineRun, err) -> None:
    """Stream the unreduced certificates on the words the pipeline uses, one
    per set of 2n - 1 words, one by one; nothing is retained."""
    n = run.input.n
    if n == 1:
        print("# certificate set for n = 1", file=err)
        print("1", file=err)
        return
    max_len = length_bound(n)
    print("# certificates tr(M0 * s_%d(...)), one per set of %d words up to length %d "
          "with no factor u^%d" % (2 * (n - 1), 2 * n - 1, max_len, n), file=err)
    emitted = 0
    for words, poly in certificates(run.space, certificate_words(run.space.s, max_len, n)):
        emitted += 1
        print("words=%r : %s" % (words, poly), file=err)
    print("# %d nonzero certificates streamed" % emitted, file=err)


def _dump_algebra(run: PipelineRun, report: CountReport | None, err,
                  count_overrun: bool) -> None:
    if run.verdict.outcome is not Outcome.FINITE or run.locus_basis is None:
        print("# no finite algebra to dump", file=err)
        return
    if run.locus_basis.is_unit:
        print("# locus ideal is the unit ideal; the algebra is zero", file=err)
        return
    if count_overrun:
        print("# trace algebra not built: count stage ran out of budget", file=err)
        return
    if report is not None:
        algebra = report.algebra
    else:
        with run.budget.stage("count"):
            algebra = build_quotient_algebra(run.locus_basis, run.generators, run.budget)
    print("# trace algebra basis (dimension %d)" % algebra.dimension, file=err)
    for b in algebra.basis:
        print(b, file=err)
    if report is not None:
        print("# gram matrix of the trace form (rank %d)" % report.rank, file=err)
        for row in report.gram:
            print("[" + ", ".join(str(c) for c in row) + "]", file=err)


def _verbose_decide(run: PipelineRun) -> None:
    verdict = run.verdict
    m = verdict.metrics
    print("variables: %d, relations: %d, relations basis: %d (max degree %d)"
          % (m.variables, m.relation_generators, m.relations_gb_size,
             m.relations_gb_max_degree))
    if m.word_length_bound is not None:
        print("certificate word length bound: %d (%d power-free words)"
              % (m.word_length_bound, m.certificate_words))
    print("certificate values kept: %d of %d candidates, multipliers: %d"
          % (m.certificate_values, m.certificate_candidates, m.multipliers))
    if m.locus_gb_size is not None:
        print("locus basis: %d elements (max degree %s)"
              % (m.locus_gb_size, m.locus_gb_max_degree))
    engines = [("engine", m.engine)]
    engines += [("engine[%s]" % stage, e) for stage, e in m.engine_by_stage.items()]
    for label, e in engines:
        print("%s: %d S-pairs reduced (%d to zero), pairs dropped: %d coprime, %d M/F, "
              "%d B; %d normal-form steps; basis coefficients up to %d bits"
              % (label, e.s_pairs, e.zero_reductions, e.dropped_coprime, e.dropped_mf,
                 e.dropped_b, e.normal_form_steps, e.max_coeff_bits))
    for word, mp in verdict.minimal_polynomials.items():
        print("tr(%s): %s" % (word, mp.render()))
    for stage, seconds in sorted(m.timings.items()):
        print("stage %-12s %.3fs" % (stage, seconds))


def _cmd_decide(args: argparse.Namespace) -> int:
    run = _run(args)
    _emit_dumps(args.dump, run, None)
    verdict = run.verdict
    if args.json:
        _print_json(run, None)
        return 3 if verdict.outcome is Outcome.INCONCLUSIVE else 0
    if verdict.outcome is Outcome.FINITE:
        print("FINITE")
        if args.verbose:
            _verbose_decide(run)
        return 0
    if verdict.outcome is Outcome.INFINITE:
        print("INFINITE (witness: %s)" % verdict.witness.render())
        if args.verbose:
            _verbose_decide(run)
        return 0
    print("INCONCLUSIVE (%s)" % verdict.inconclusive_reason, file=sys.stderr)
    return 3


def _cmd_count(args: argparse.Namespace) -> int:
    run = _run(args)
    verdict = run.verdict
    if verdict.outcome is Outcome.INCONCLUSIVE:
        _emit_dumps(args.dump, run, None)
        if args.json:
            _print_json(run, None)
        else:
            print("INCONCLUSIVE (%s)" % verdict.inconclusive_reason, file=sys.stderr)
        return 3
    if verdict.outcome is Outcome.INFINITE:
        _emit_dumps(args.dump, run, None)
        if args.json:
            _print_json(run, None)
        else:
            print("INFINITE (witness: %s)" % verdict.witness.render(), file=sys.stderr)
        return 4
    try:
        report = count_from_run(run)
    except ResourceLimitExceeded as stop:
        _emit_dumps(args.dump, run, None, count_overrun=True)
        if not args.json:
            raise
        _print_json(run, None, stop)
        return 3
    _emit_dumps(args.dump, run, report)
    if args.json:
        _print_json(run, report)
        return 0
    print(report.count)
    if args.verbose:
        print("trace algebra dimension: %d, trace form rank: %d"
              % (report.algebra_dimension, report.rank))
        _verbose_decide(run)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """`build_parser()`, built once per process: parsing leaves the parser
    unchanged, and building it is a good part of a small case's time."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "decide":
            return _cmd_decide(args)
        return _cmd_count(args)
    except PresentationError as err:
        print("parse error: %s" % err, file=sys.stderr)
        return 2
    except OSError as err:
        print("cannot read input: %s" % err, file=sys.stderr)
        return 2
    except ValueError as err:
        print("invalid input: %s" % err, file=sys.stderr)
        return 2
    except ResourceLimitExceeded as err:
        print(str(err), file=sys.stderr)
        return 3
    except InfiniteRepresentations as err:
        print(str(err), file=sys.stderr)
        return 4
    except Exception:
        traceback.print_exc()
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
