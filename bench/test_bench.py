"""Self-tests of the benchmark's oracles, generator and span arithmetic.

    python3 -m unittest discover -s bench -p 'test_*.py'

Apart from one traced one-point case they never run repcount's pipeline,
so they take well under a second.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

import tracing
import workloads
from tracing import Span, self_times

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
SRC = ROOT / "src"


class OracleTest(unittest.TestCase):
    """The oracles reproduce the answers repcount's own tests and roadmap pin."""

    def test_s3_n2_is_one(self):
        self.assertEqual(workloads.group_count("S3", 2), 1)

    def test_qplane_n2_is_infinite_with_witness(self):
        self.assertEqual(workloads.quantum_plane_answer(Fraction(-1)),
                         ("infinite", None, "tr(x1^2)"))

    def test_commuting_plane_n2_is_zero(self):
        self.assertEqual(workloads.quantum_plane_answer(Fraction(1)), ("finite", 0, None))

    def test_d4_n1_is_four(self):
        self.assertEqual(workloads.group_count("D4", 1), 4)

    def test_a4_n2_is_zero(self):
        self.assertEqual(workloads.group_count("A4", 2), 0)

    def test_character_tables_sum_to_group_order(self):
        orders = {"S3": 6, "D4": 8, "D5": 10, "Q8": 8, "A4": 12}
        for group, degrees in workloads.CHARACTER_DEGREES.items():
            self.assertEqual(sum(d * d for d in degrees), orders[group], group)

    def test_dihedral_two_dimensionals(self):
        # D_k of order 2k has floor((k - 1) / 2) irreducibles of degree 2.
        for group, k in (("S3", 3), ("D4", 4), ("D5", 5)):
            self.assertEqual(workloads.group_count(group, 2), (k - 1) // 2, group)

    def test_points_count_distinct_only(self):
        self.assertEqual(workloads.distinct_points([(1, 2), (1, 2), (0, 0)]), 2)


class CheckTest(unittest.TestCase):
    case = workloads.Case("c", "", 2, "finite", 1, None)

    def answer(self, **fields):
        out = {"verdict": "finite", "count": 1, "witness": None}
        out.update(fields)
        return json.dumps(out)

    def test_match(self):
        self.assertIsNone(workloads.check(self.case, 0, self.answer()))

    def test_wrong_count(self):
        self.assertIn("count", workloads.check(self.case, 0, self.answer(count=2)))

    def test_inconclusive_is_a_failure(self):
        self.assertIn("INCONCLUSIVE", workloads.check(self.case, 3, ""))

    def test_wrong_witness(self):
        case = workloads.Case("q", "", 2, "infinite", None, "tr(x1^2)")
        got = self.answer(verdict="infinite", count=None, witness="tr(x1)")
        self.assertIn("witness", workloads.check(case, 4, got))
        self.assertIn("exit code", workloads.check(case, 0, got))


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in workloads.WORKLOADS:
            first = workloads.generate(name, 7)
            self.assertEqual(first, workloads.generate(name, 7), name)

    def test_seeds_change_inputs_not_shape(self):
        for name in workloads.WORKLOADS:
            a, b = workloads.generate(name, 1), workloads.generate(name, 2)
            self.assertEqual(len(a), len(b))
            self.assertEqual(sorted(c.n for c in a), sorted(c.n for c in b))
        texts = {c.text for seed in range(5) for c in workloads.generate("planes_n2", seed)}
        self.assertGreater(len(texts), 3)

    def test_expand_roots(self):
        # (x - 1)^2 (x + 3) = x^3 + x^2 - 5x + 3
        self.assertEqual(workloads.expand_roots([1, 1, -3]), {3: 1, 2: 1, 1: -5, 0: 3})

    def test_relation_text(self):
        text = workloads.relation([(1, ["a", "b", "a", "b"]), (-1, [])], Fraction(-3, 2))
        self.assertEqual(text, "-3/2*a*b*a*b + 3/2")
        self.assertEqual(workloads.relation([(2, ["x", "x", "y"])]), "2*x^2*y")

    def test_triangular_points(self):
        f, g = workloads.expand_lines([1, 1, 2], [0, 0, 3])
        # f = (x-1)^2 (x-2); g = (y - x)^2 (y - x - 3)
        self.assertEqual(f, {(3, 0): 1, (2, 0): -4, (1, 0): 5, (0, 0): -2})
        for x in (1, 2):
            for y in (x, x + 3):
                value = sum(c * x ** i * y ** j for (i, j), c in g.items())
                self.assertEqual(value, 0)


class SelfTimeTest(unittest.TestCase):
    def test_nested(self):
        # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9]
        spans = [Span("root", 0, 10, -1, "t"), Span("a", 1, 4, 0, "t"),
                 Span("b", 2, 3, 1, "t"), Span("c", 5, 9, 0, "t")]
        got = self_times(spans)
        self.assertEqual(got["root"], [1, 10, 3])
        self.assertEqual(got["a"], [1, 3, 2])
        self.assertEqual(got["b"], [1, 1, 1])
        self.assertEqual(got["c"], [1, 4, 4])

    def test_overlapping_and_overhanging_children(self):
        spans = [Span("p", 0, 10, -1, "t"), Span("x", 2, 6, 0, "t"),
                 Span("x", 4, 8, 0, "t"), Span("y", 9, 12, 0, "t")]
        got = self_times(spans)
        self.assertEqual(got["p"], [1, 10, 10 - 6 - 1])
        self.assertEqual(got["x"], [2, 8, 8])

    def test_tracer_records_nesting(self):
        ticks = iter(range(100))
        tracer = tracing.Tracer(clock=lambda: next(ticks))
        inner = tracer.wrap("inner", lambda: 1)
        outer = tracer.wrap("outer", lambda: inner() + inner())
        self.assertEqual(outer(), 2)
        self.assertEqual([s.parent for s in tracer.spans], [-1, 0, 0])
        tracer.flush()
        self.assertEqual(tracer.totals["outer"], [1, 5, 3])
        self.assertEqual(tracer.totals["inner"], [2, 2, 2])
        self.assertEqual(tracer.spans, [])


@unittest.skipUnless((SRC / "repcount").is_dir(), "needs the repcount sources")
class InstallTest(unittest.TestCase):
    def setUp(self):
        sys.path.insert(0, str(SRC))
        self.addCleanup(sys.path.remove, str(SRC))
        from repcount import cli, decide, groebner, poly
        self.cli, self.decide, self.groebner, self.poly = cli, decide, groebner, poly

    def test_wraps_every_binding_and_restores(self):
        buchberger, reduce = self.groebner.buchberger, self.poly.reduce
        tracer = tracing.Tracer()
        tracer.install()
        try:
            # decide and groebner bind buchberger, groebner binds reduce as poly_reduce
            self.assertIs(self.decide.buchberger.__wrapped__, buchberger)
            self.assertIs(self.groebner.buchberger, self.decide.buchberger)
            self.assertIs(self.groebner.poly_reduce.__wrapped__, reduce)
            self.assertTrue(hasattr(self.poly.Polynomial.__mul__, "__wrapped__"))
        finally:
            tracer.uninstall()
        self.assertIs(self.decide.buchberger, buchberger)
        self.assertIs(self.groebner.poly_reduce, reduce)
        self.assertFalse(hasattr(self.poly.Polynomial.__mul__, "__wrapped__"))

    def test_small_case_is_traced(self):
        tracer = tracing.Tracer()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "idempotent.alg"
            path.write_text("generators: X\nrelation: X^2 - X\n")  # two points, 0 and 1
            tracer.install()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = self.cli.main(["count", str(path), "-n", "1", "--json"])
            finally:
                tracer.uninstall()
        self.assertEqual(code, 0)
        tracer.flush()
        metrics = tracing.per_layer_metrics(tracer, 1, 0.0)
        self.assertEqual(metrics["count.algebra_dim"][0], 2)
        self.assertEqual(tracer.totals["cli.main"][0], 1)
        self.assertGreater(metrics["stage.relations_s"][0], 0)
        self.assertGreater(metrics["poly.DivisorTable.normal_form.calls"][0], 0)


class ContractTest(unittest.TestCase):
    """BENCHMARK.json names exactly the metrics the run prints."""

    def test_per_layer_names(self):
        spec = json.loads(BENCHMARK_JSON.read_text())
        printed = tracing.per_layer_metrics(tracing.Tracer(), 1, 0.0)
        self.assertEqual({m["name"] for m in spec["per_layer"]}, set(printed))
        for m in spec["per_layer"]:
            self.assertEqual(m["unit"], printed[m["name"]][1], m["name"])

    def test_workload_names(self):
        spec = json.loads(BENCHMARK_JSON.read_text())
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
