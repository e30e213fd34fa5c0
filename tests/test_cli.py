"""Command line behavior: outputs, exit codes, JSON stability."""

import json
import os
import subprocess
import sys
import time

import pytest

from repcount.cli import build_parser, main
from repcount.decide import run_pipeline

from conftest import ALGEBRAS


def alg(name):
    return str(ALGEBRAS / (name + ".alg"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecide:
    def test_finite(self, capsys):
        code, out, err = run_cli(capsys, "decide", alg("idempotent"), "-n", "1")
        assert code == 0
        assert out.strip() == "FINITE"

    def test_infinite_with_witness(self, capsys):
        code, out, err = run_cli(capsys, "decide", alg("free2"), "-n", "1")
        assert code == 0
        assert out.strip() == "INFINITE (witness: tr(x1))"

    def test_verbose_adds_detail(self, capsys):
        code, out, err = run_cli(capsys, "decide", alg("idempotent"), "-n", "1", "-v")
        assert code == 0
        assert "tr(x1): y^2 - y" in out
        assert "stage" in out

    def test_verbose_reports_engine_counters(self, capsys):
        code, out, err = run_cli(capsys, "decide", alg("s3"), "-n", "2", "--json")
        metrics = json.loads(out)["metrics"]
        code, out, err = run_cli(capsys, "decide", alg("s3"), "-n", "2", "-v")
        assert code == 0
        lines = [line for line in out.splitlines() if line.startswith("engine")]
        assert lines == [
            "%(label)s: %(s_pairs)d S-pairs reduced (%(zero_reductions)d to zero), pairs "
            "dropped: %(dropped_coprime)d coprime, %(dropped_mf)d M/F, %(dropped_b)d B; "
            "%(normal_form_steps)d normal-form steps; basis coefficients up to "
            "%(max_coeff_bits)d bits" % dict(counters, label=label)
            for label, counters in [("engine", metrics["engine"])] + [
                ("engine[%s]" % stage, c) for stage, c in metrics["engine_by_stage"].items()]]

    def test_verbose_reports_power_free_words(self, capsys):
        code, out, err = run_cli(capsys, "decide", alg("qplane"), "-n", "2", "-v")
        assert code == 0
        assert "certificate word length bound: 4 (7 power-free words)" in out
        assert "of 147 candidates" in out

    def test_inconclusive_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "decide", alg("s3"), "-n", "2",
                                 "--max-seconds", "0.0001")
        assert code == 3
        assert "INCONCLUSIVE" in err

    def test_stdin(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("generators: X\nrelation: X^2 - X\n"))
        code, out, err = run_cli(capsys, "decide", "-", "-n", "1")
        assert code == 0
        assert out.strip() == "FINITE"


class TestCount:
    def test_count_output_is_the_number(self, capsys):
        code, out, err = run_cli(capsys, "count", alg("idempotent"), "-n", "1")
        assert code == 0
        assert out.strip() == "2"

    def test_count_zero(self, capsys):
        code, out, err = run_cli(capsys, "count", alg("weyl"), "-n", "2")
        assert code == 0
        assert out.strip() == "0"

    def test_count_on_infinite_is_exit_4(self, capsys):
        code, out, err = run_cli(capsys, "count", alg("free2"), "-n", "1")
        assert code == 4
        assert out == ""
        assert "INFINITE (witness: tr(x1))" in err

    def test_verbose_count(self, capsys):
        code, out, err = run_cli(capsys, "count", alg("s3"), "-n", "1", "-v")
        assert code == 0
        assert out.splitlines()[0] == "2"
        assert "trace algebra dimension: 2" in out

    def test_verbose_count_times_the_count_stage(self, capsys):
        code, out, err = run_cli(capsys, "count", alg("s3"), "-n", "2", "-v")
        assert code == 0
        stages = [line.split()[1] for line in out.splitlines() if line.startswith("stage ")]
        assert stages == ["algebraic", "certificates", "count", "locus", "relations"]
        code, out, err = run_cli(capsys, "decide", alg("s3"), "-n", "2", "-v")
        assert "stage count" not in out


class TestErrors:
    def test_missing_file(self, capsys):
        code, out, err = run_cli(capsys, "decide", "/nonexistent/a.alg", "-n", "1")
        assert code == 2
        assert "cannot read input" in err

    def test_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.alg"
        bad.write_text("generators: X\nrelation: X +* X\n")
        code, out, err = run_cli(capsys, "decide", str(bad), "-n", "1")
        assert code == 2
        assert "parse error" in err
        assert "line 2" in err

    def test_bad_dimension(self, capsys):
        code, out, err = run_cli(capsys, "decide", alg("idempotent"), "-n", "0")
        assert code == 2

    def test_argparse_rejects_unknown_mode(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["decide", alg("idempotent"), "-n", "1", "--order", "deglex"])
        assert info.value.code == 2
        capsys.readouterr()


class TestJson:
    def test_payload_shape(self, capsys):
        code, out, err = run_cli(capsys, "count", alg("idempotent"), "-n", "1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["status", "verdict", "count", "witness",
                                 "minimal_polynomials", "metrics", "timings_ms"]
        assert payload["status"] == "ok"
        assert payload["verdict"] == "finite"
        assert payload["count"] == 2
        assert payload["witness"] is None
        assert payload["minimal_polynomials"] == {"x1": 2}
        assert payload["metrics"]["n"] == 1
        assert payload["metrics"]["gram_rank"] == 2
        assert list(payload["metrics"]["engine"]) == [
            "s_pairs", "zero_reductions", "dropped_coprime", "dropped_mf", "dropped_b",
            "normal_form_steps", "max_coeff_bits"]
        by_stage = payload["metrics"]["engine_by_stage"]
        assert list(by_stage) == ["relations", "certificates", "locus", "algebraic", "count"]
        assert all(list(counters) == list(payload["metrics"]["engine"])
                   for counters in by_stage.values())

    @pytest.mark.parametrize("argv", [
        ("decide", "s3", "-n", "2"),
        ("count", "s3", "-n", "2"),
        ("count", "idempotent", "-n", "2"),
        ("count", "s3", "-n", "2", "--max-seconds", "0.05"),  # stopped in some stage
    ])
    def test_engine_by_stage_adds_up_to_engine(self, capsys, argv):
        command, name, *rest = argv
        payload = json.loads(run_cli(capsys, command, alg(name), *rest, "--json")[1])
        engine, by_stage = payload["metrics"]["engine"], payload["metrics"]["engine_by_stage"]
        assert by_stage
        for key, total in engine.items():
            parts = [counters[key] for counters in by_stage.values()]
            assert total == (max(parts) if key == "max_coeff_bits" else sum(parts)), key

    def test_engine_counters_cover_the_count_stage(self, capsys):
        # the counters live on the run's budget: the count's normal forms
        # come on top of the decision's
        decided = json.loads(run_cli(capsys, "decide", alg("s3"), "-n", "2", "--json")[1])
        counted = json.loads(run_cli(capsys, "count", alg("s3"), "-n", "2", "--json")[1])
        before, after = decided["metrics"]["engine"], counted["metrics"]["engine"]
        assert before["s_pairs"] > before["zero_reductions"] > 0
        assert after["normal_form_steps"] > before["normal_form_steps"]
        assert {k: v for k, v in after.items() if k != "normal_form_steps"} == \
            {k: v for k, v in before.items() if k != "normal_form_steps"}

    def test_timings_cover_the_count_stage(self, capsys):
        counted = json.loads(run_cli(capsys, "count", alg("s3"), "-n", "2", "--json")[1])
        assert list(counted["timings_ms"]) == ["algebraic", "certificates", "count", "locus",
                                               "relations"]
        decided = json.loads(run_cli(capsys, "decide", alg("s3"), "-n", "2", "--json")[1])
        assert "count" not in decided["timings_ms"]

    def test_dumped_algebra_is_timed_as_the_count_stage(self, capsys):
        # `decide --dump algebra` builds the trace algebra on the run's
        # budget: its seconds are listed with its engine counters
        payload = json.loads(run_cli(capsys, "decide", alg("s3"), "-n", "1", "--dump",
                                     "algebra", "--json")[1])
        assert "count" in payload["metrics"]["engine_by_stage"]
        assert "count" in payload["timings_ms"]

    def test_infinite_payload(self, capsys):
        code, out, err = run_cli(capsys, "decide", alg("qplane"), "-n", "2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "infinite"
        assert payload["witness"] == "tr(x1^2)"
        assert payload["count"] is None

    def test_byte_stable_up_to_timings(self, capsys):
        outs = []
        for _ in range(2):
            code, out, err = run_cli(capsys, "decide", alg("idempotent"), "-n", "1", "--json")
            assert code == 0
            outs.append(out)
        heads = [o.split('"timings_ms"')[0] for o in outs]
        assert heads[0] == heads[1]
        # and the parsed payloads agree entirely once timings are dropped
        parsed = [json.loads(o) for o in outs]
        for p in parsed:
            p.pop("timings_ms")
        assert parsed[0] == parsed[1]

    def test_inconclusive_json_status(self, capsys):
        code, out, err = run_cli(capsys, "decide", alg("s3"), "-n", "2",
                                 "--max-seconds", "0.0001", "--json")
        assert code == 3
        payload = json.loads(out)
        assert list(payload) == ["status", "reason", "stage", "verdict", "count",
                                 "witness", "minimal_polynomials", "metrics", "timings_ms"]
        assert payload["status"] == "resource-limit"
        assert payload["reason"] == "time limit exceeded"
        assert payload["stage"] == "relations"
        assert payload["verdict"] == "inconclusive"


class TestDumps:
    def test_dumps_go_to_stderr(self, capsys):
        code, out, err = run_cli(capsys, "decide", alg("idempotent"), "-n", "1",
                                 "--dump", "ideal", "--dump", "traces", "--dump", "gb")
        assert code == 0
        assert out.strip() == "FINITE"
        assert "# relations ideal" in err
        assert "# trace generators" in err
        assert "x[1,1,1]" in err

    def test_certificate_dump_streams(self, capsys):
        code, out, err = run_cli(capsys, "decide", alg("idempotent"), "-n", "1",
                                 "--dump", "sset")
        assert code == 0
        assert "certificate set for n = 1" in err

    def test_certificate_dump_dimension_two(self, capsys):
        # two power-free words, fewer than the 2n - 1 = 3 a certificate takes
        code, out, err = run_cli(capsys, "decide", alg("idempotent"), "-n", "2",
                                 "--dump", "sset")
        assert code == 0
        assert "certificates tr(M0 * s_2(...))" in err
        assert "0 nonzero certificates streamed" in err

    def test_certificate_dump_uses_power_free_words(self, capsys):
        code, out, err = run_cli(capsys, "decide", alg("free2"), "-n", "2", "--dump", "sset")
        assert code == 0
        assert "one per set of 3 words up to length 4 with no factor u^2" in err
        assert "(0, 1, 0)" in err
        assert "(0, 0)" not in err and "(1, 1)" not in err

    @pytest.mark.parametrize("name, code, out", [("free2", 3, ""), ("weyl", 0, "FINITE\n")])
    def test_certificate_dump_stops_at_the_deadline(self, name, code, out):
        # two letters have 155 power-free words at n = 3, hence C(155, 4)
        # word sets: the dump streams on the run's budget and stops with it,
        # after the decision overran it (free2) or finished (weyl), and the
        # run keeps its own output and exit code.  A fresh interpreter with
        # its own timeout fails the test instead of hanging it
        src = ALGEBRAS.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        budget = 1.0
        t0 = time.monotonic()
        result = subprocess.run(
            [sys.executable, "-m", "repcount.cli", "decide", alg(name), "-n", "3",
             "--dump", "sset", "--max-seconds", str(budget)],
            capture_output=True, text=True, env=env, timeout=60)
        elapsed = time.monotonic() - t0
        assert result.returncode == code
        assert result.stdout == out
        assert "# certificate dump stopped: time limit exceeded after " in result.stderr
        assert elapsed < budget + 2.0

    def test_algebra_dump(self, capsys):
        code, out, err = run_cli(capsys, "count", alg("idempotent"), "-n", "1",
                                 "--dump", "algebra")
        assert code == 0
        assert "trace algebra basis (dimension 2)" in err
        assert "gram matrix" in err

    def test_count_dump_reuses_the_counted_algebra(self, capsys, monkeypatch):
        def no_second_build(*args, **kwargs):
            raise AssertionError("the algebra was built a second time")

        monkeypatch.setattr("repcount.cli.build_quotient_algebra", no_second_build)
        code, out, err = run_cli(capsys, "count", alg("s3"), "-n", "1", "--dump", "algebra")
        assert code == 0
        assert "trace algebra basis (dimension 2)" in err
        assert "gram matrix of the trace form (rank 2)" in err

    def test_decide_dump_builds_the_algebra(self, capsys):
        code, out, err = run_cli(capsys, "decide", alg("idempotent"), "-n", "1",
                                 "--dump", "algebra")
        assert code == 0
        assert "trace algebra basis (dimension 2)" in err
        assert "gram matrix" not in err

    def test_duplicate_dump_emitted_once(self, capsys):
        code, out, err = run_cli(capsys, "decide", alg("idempotent"), "-n", "1",
                                 "--dump", "ideal", "--dump", "ideal")
        assert code == 0
        assert err.count("# relations ideal") == 1


# Commutative, so at n = 1 it is finite.  Deciding takes about 0.05 s on a
# 2-core Xeon (minimal polynomials of degree up to 152, hence the raised
# --max-degree); the trace algebra has dimension 2048, and counting it
# without a budget takes about 1.4 s there, well over twice the budget.
SLOW_COUNT = """generators: x, y, z, w, v
relation: x^4 - y*z - 1
relation: y^4 - x*z - 1
relation: z^4 - x*y - 1
relation: w^4 - x - 1
relation: v^8 - 1
"""


class TestBudget:
    def test_count_stage_overrun_stays_in_the_one_budget(self, capsys, tmp_path, monkeypatch):
        # one deadline covers deciding and counting: a count that overruns
        # stops at the run's budget (plus the tick overshoot), not at a
        # second full budget started after the decision.  The decision is
        # made to take 0.4 s, so a fresh 0.5 s budget for the count would
        # end the run past 0.9 s
        def slow_run_pipeline(*args):
            run = run_pipeline(*args)
            time.sleep(0.4)
            return run

        monkeypatch.setattr("repcount.cli.run_pipeline", slow_run_pipeline)
        path = tmp_path / "slow_count.alg"
        path.write_text(SLOW_COUNT)
        budget = 0.5
        t0 = time.monotonic()
        code, out, err = run_cli(capsys, "count", str(path), "-n", "1",
                                 "--max-seconds", str(budget), "--max-degree", "1000")
        elapsed = time.monotonic() - t0
        assert code == 3
        assert "time limit exceeded" in err
        assert "INCONCLUSIVE" not in err  # the decision finished; the count overran
        assert elapsed < budget + 0.3

    def test_count_stage_overrun_prints_the_json_payload(self, capsys, tmp_path):
        path = tmp_path / "slow_count.alg"
        path.write_text(SLOW_COUNT)
        code, out, err = run_cli(capsys, "count", str(path), "-n", "1", "--json",
                                 "--max-seconds", "0.5", "--max-degree", "1000")
        assert code == 3
        payload = json.loads(out)
        assert list(payload)[:4] == ["status", "reason", "stage", "verdict"]
        assert payload["status"] == "resource-limit"
        assert payload["reason"] == "time limit exceeded"
        assert payload["stage"] == "count"
        assert payload["verdict"] == "finite"
        assert payload["count"] is None
        assert err == ""
        # the overrun count stage is timed too, up to the deadline it hit
        assert 0 < payload["timings_ms"]["count"] <= 800

    def test_count_stage_overrun_keeps_the_dumps(self, capsys, tmp_path):
        path = tmp_path / "slow_count.alg"
        path.write_text(SLOW_COUNT)
        code, out, err = run_cli(capsys, "count", str(path), "-n", "1", "--max-seconds", "0.5",
                                 "--max-degree", "1000", "--dump", "gb", "--dump", "algebra")
        assert code == 3
        assert out == ""
        lines = err.splitlines()
        assert lines[0].startswith("# locus ideal reduced basis (")
        assert lines[-2:] == ["# trace algebra not built: count stage ran out of budget",
                              "time limit exceeded"]

    def test_count_stage_overrun_keeps_the_dumps_under_json(self, capsys, tmp_path):
        path = tmp_path / "slow_count.alg"
        path.write_text(SLOW_COUNT)
        code, out, err = run_cli(capsys, "count", str(path), "-n", "1", "--json",
                                 "--max-seconds", "0.5", "--max-degree", "1000",
                                 "--dump", "algebra", "--dump", "gb")
        assert code == 3
        assert json.loads(out)["stage"] == "count"
        lines = err.splitlines()
        assert lines[0] == "# trace algebra not built: count stage ran out of budget"
        assert lines[1].startswith("# locus ideal reduced basis (")


A4 = """generators: a, b
relation: a^2 - 1
relation: b^3 - 1
relation: a*b*a*b*a*b - 1
"""

# four commuting generators; at n = 1 the relations basis is quick, then the
# first trace generator needs the elimination fallback of minimal_polynomial,
# whose coefficients grow until single reduction steps take seconds
SLOW_ELIMINATION = """generators: x, y, z, w
relation: x*y - y*x
relation: x*z - z*x
relation: x*w - w*x
relation: y*z - z*y
relation: y*w - w*y
relation: z*w - w*z
relation: x^3 - y*z - 1
relation: y^3 - z*w - 1
relation: z^3 - w*x - 1
relation: w^3 - x*y - 1
"""


class TestDecideBudget:
    def test_relations_basis_overrun(self, capsys, tmp_path):
        # A4 at n = 3: the relations basis in 18 variables does not finish
        path = tmp_path / "a4.alg"
        path.write_text(A4)
        budget = 2.0
        t0 = time.monotonic()
        code, out, err = run_cli(capsys, "count", str(path), "-n", "3",
                                 "--max-seconds", str(budget))
        elapsed = time.monotonic() - t0
        assert code == 3
        assert "INCONCLUSIVE (time limit exceeded)" in err
        assert elapsed < budget + 0.3

    def test_elimination_fallback_overrun(self, capsys, tmp_path):
        path = tmp_path / "slow_elimination.alg"
        path.write_text(SLOW_ELIMINATION)
        budget = 2.0
        t0 = time.monotonic()
        code, out, err = run_cli(capsys, "decide", str(path), "-n", "1", "--json",
                                 "--max-seconds", str(budget), "--max-degree", "100000")
        elapsed = time.monotonic() - t0
        assert code == 3
        payload = json.loads(out)
        assert payload["status"] == "resource-limit"
        assert payload["reason"] == "time limit exceeded"
        assert payload["stage"] == "algebraic"
        assert "algebraic" in payload["timings_ms"]  # the overrun is past the locus stage
        assert elapsed < budget + 0.3


    def test_certificate_stage_overrun(self, capsys, tmp_path):
        # the free algebra on three generators at n = 2: an empty relations
        # basis, then 9,880 word sets (31,200 candidates) on unreduced products
        path = tmp_path / "free3.alg"
        path.write_text("generators: X, Y, Z\n")
        budget = 0.5
        t0 = time.monotonic()
        code, out, err = run_cli(capsys, "decide", str(path), "-n", "2", "--json",
                                 "--max-seconds", str(budget))
        elapsed = time.monotonic() - t0
        assert code == 3
        payload = json.loads(out)
        assert payload["reason"] == "time limit exceeded"
        assert payload["stage"] == "certificates"
        assert "locus" not in payload["timings_ms"]
        assert elapsed < budget + 0.3


class TestParser:
    def test_disable_time_limit(self, capsys):
        code, out, err = run_cli(capsys, "decide", alg("idempotent"), "-n", "1",
                                 "--max-seconds", "0")
        assert code == 0

    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        assert "decide" in out and "count" in out
