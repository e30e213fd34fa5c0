"""Minimal polynomials, locus ideals, and the decision pipeline."""

from fractions import Fraction

import pytest

from repcount import decide, groebner
from repcount.decide import (
    MinimalPolynomial,
    Outcome,
    _shrink_multipliers,
    collapsed_certificate_values,
    minimal_polynomial,
    run_pipeline,
    saturated_locus,
)
from repcount.genmat import (
    build_generic_space,
    certificate_words,
    certificates,
    length_bound,
    relations_ideal,
)
from repcount.groebner import (
    Budget,
    Ideal,
    ResourceLimits,
    buchberger,
)
from repcount.poly import MonomialOrder, PolyRing, auxiliary
from repcount.presentation import parse_presentation

from conftest import load
from oracles import all_words, equal_ideals, saturate

GREVLEX = MonomialOrder.grevlex()
R2 = PolyRing.ranked([auxiliary("t", i) for i in range(2)])
U, V = (R2.variable(v) for v in R2.variables)


def basis_of(*gens, ring=R2):
    return buchberger(list(gens), GREVLEX, ring=ring)


class TestMinimalPolynomial:
    def test_unit_ideal_convention(self):
        mp = minimal_polynomial(U, basis_of(R2.one))
        assert mp.coeffs == (Fraction(0), Fraction(1))  # just y

    def test_constant_normal_form(self):
        mp = minimal_polynomial(U * U + 3, basis_of(U))
        assert mp.coeffs == (Fraction(-3), Fraction(1))  # y - 3

    def test_idempotent(self):
        mp = minimal_polynomial(U, basis_of(U * U - U))
        assert mp.coeffs == (Fraction(0), Fraction(-1), Fraction(1))  # y^2 - y
        assert mp.render() == "y^2 - y"

    def test_shifted_nilpotent(self):
        mp = minimal_polynomial(U + 1, basis_of(U * U))
        assert mp.coeffs == (Fraction(1), Fraction(-2), Fraction(1))  # (y-1)^2

    def test_transcendental_gives_none(self):
        assert minimal_polynomial(U, basis_of(U * V - 1)) is None
        assert minimal_polynomial(U, buchberger([], GREVLEX, ring=R2)) is None

    def test_degree_is_minimal(self):
        f = (U - 1) * (U - 2) * (U - 3)
        mp = minimal_polynomial(U, basis_of(f))
        assert mp.degree == 3
        assert mp.evaluate(Fraction(1)) == 0
        assert mp.evaluate(Fraction(2)) == 0
        assert mp.evaluate(Fraction(3)) == 0

    def test_evaluation_lands_in_ideal(self):
        basis = basis_of(U * U - U, V * V - 1, U * V - U)
        for f in (U, V, U + V, U * V + 3):
            mp = minimal_polynomial(f, basis)
            assert mp is not None
            assert basis.normal_form(mp.evaluate(f)).is_zero

    def test_elimination_fallback_agrees(self, monkeypatch):
        basis = basis_of(U * U - U)
        fast = minimal_polynomial(U, basis)
        monkeypatch.setattr("repcount.decide.POWER_CAP", 0)
        slow = minimal_polynomial(U, basis)
        assert fast.coeffs == slow.coeffs

    def test_mixed_variable_element(self):
        basis = basis_of(U * U - 2, V - U)
        mp = minimal_polynomial(U * V, basis)  # u*v = u^2 = 2 mod the ideal
        assert mp.coeffs == (Fraction(-2), Fraction(1))

    def test_monic_validation(self):
        with pytest.raises(ValueError):
            MinimalPolynomial((Fraction(1), Fraction(2)))

    def test_render_and_evaluate(self):
        mp = MinimalPolynomial((Fraction(-1), Fraction(0), Fraction(1)))
        assert mp.render() == "y^2 - 1"
        assert mp.evaluate(Fraction(3)) == 8
        assert mp.evaluate(U) == U * U - 1


class TestLocusIdeal:
    def test_empty_certificates_means_unit(self):
        locus, multipliers = saturated_locus(basis_of(U), [], GREVLEX)
        assert locus.is_unit
        assert multipliers == []

    def test_certificates_inside_the_ideal_mean_unit(self):
        locus, multipliers = saturated_locus(basis_of(U), [U, U * V], GREVLEX)
        assert locus.is_unit
        assert multipliers == []

    def test_unit_relations_stay_unit(self):
        locus, multipliers = saturated_locus(basis_of(R2.one), [U], GREVLEX)
        assert locus.is_unit
        assert multipliers == []

    def test_nilpotents_are_cleared(self):
        # <u^2> saturated at u: u is nilpotent on the whole variety, so
        # certificates {u} wipe everything out
        locus, _ = saturated_locus(basis_of(U * U), [U], GREVLEX)
        assert locus.is_unit

    def test_component_selection(self):
        # <u^2 * (u - 1)>: saturating at u keeps only the u = 1 component
        locus, multipliers = saturated_locus(basis_of(U * U * (U - 1)), [U], GREVLEX)
        assert equal_ideals(locus.as_ideal(), Ideal(R2, [U - 1]))
        assert multipliers == [U]

    def test_constant_certificate_returns_the_ideal(self):
        # I : 1^infinity = I, the convention at n = 1; duplicates up to sign
        # and values inside the ideal drop out first
        relations = basis_of(U * V - 1)
        locus, multipliers = saturated_locus(relations, [U * V - 1, R2.one, -R2.one], GREVLEX)
        assert locus is relations
        assert multipliers == [R2.one]

    def test_multipliers_that_are_not_nested(self):
        # <uv> : <u, v>^infinity keeps both lines, whose primes <u> and <v>
        # do not contain <u, v>; saturating at the product uv instead would
        # give the unit ideal
        locus, multipliers = saturated_locus(basis_of(U * V), [U, V], GREVLEX)
        assert len(multipliers) == 2
        assert locus == basis_of(U * V)

    def test_multipliers_are_the_smaller_set(self):
        # <u^2 - v, uv - 1> has the 3-element basis {u^2 - v, uv - 1, v^2 - u},
        # so the two values win; three values spanning <u> shrink to {u}
        empty = basis_of()
        values = [U * U - V, U * V - 1]
        assert _shrink_multipliers(empty, values, GREVLEX, Budget()) == values
        shrunk = _shrink_multipliers(empty, [U, U * V, U + U * V], GREVLEX, Budget())
        assert shrunk == [U]
        # a single value is kept, with no basis built
        assert _shrink_multipliers(empty, [U * U - V], GREVLEX, Budget()) == [U * U - V]


D5 = """generators: a, b
relation: a^2 - 1
relation: b^5 - 1
relation: a*b*a*b - 1
"""


IDEMPOTENTS = """generators: e, f
relation: e^2 - e
relation: f^2 - f
"""


class TestLocusOracle:
    @pytest.mark.parametrize("presentation, outcome, multipliers", [
        pytest.param(load("s3"), Outcome.FINITE, 1, id="s3"),
        pytest.param(parse_presentation(D5, name="d5"), Outcome.FINITE, 2, id="D5"),
        pytest.param(load("qplane"), Outcome.INFINITE, 2, id="qplane"),
        pytest.param(parse_presentation(IDEMPOTENTS, name="idempotents"), Outcome.INFINITE, 3,
                     id="idempotents"),
    ])
    def test_locus_equals_fixpoint_saturation(self, presentation, outcome, multipliers):
        # the pipeline saturates the relations basis at all multipliers in
        # one elimination; the oracle saturate iterates colon ideals of the
        # raw relations at all certificate values until they stabilize
        run = run_pipeline(presentation, 2)
        assert run.verdict.outcome is outcome
        assert run.verdict.metrics.multipliers == multipliers
        values, _ = collapsed_certificate_values(
            run.space, run.relations_basis, length_bound(2), Budget())
        oracle = saturate(run.relations, values)
        assert buchberger(oracle, GREVLEX) == run.locus_basis


class TestOneSaturation:
    def test_one_saturation_and_no_intersection(self, monkeypatch):
        # three multipliers, saturated at once: one elimination, no meets
        calls = []
        real = decide.saturate_principal

        def counted(*args, **kwargs):
            calls.append(len(args) - 1)
            return real(*args, **kwargs)

        def unused(*args, **kwargs):
            raise AssertionError("intersect called")

        monkeypatch.setattr(decide, "saturate_principal", counted)
        monkeypatch.setattr(groebner, "intersect", unused)
        run = run_pipeline(parse_presentation(IDEMPOTENTS), 2)
        assert run.verdict.outcome is Outcome.INFINITE
        assert calls == [3]


class TestCollapsedValues:
    def test_matches_raw_reduction(self):
        # against the zero ideal the power-free collapse must generate the
        # same ideal as the raw certificate expansions over all words
        space = build_generic_space(2, 2)
        empty = buchberger([], GREVLEX, ring=space.ring)
        for max_len in (2, 3):
            values, candidates = collapsed_certificate_values(space, empty, max_len)
            raw = [value for _, value in certificates(space, all_words(2, max_len))]
            words = len(certificate_words(2, max_len, 2))
            assert candidates == words * (words * (words - 1) // 2)
            assert 0 < len(values) < len(raw)
            assert buchberger(values, GREVLEX, ring=space.ring).elements == \
                buchberger(raw, GREVLEX, ring=space.ring).elements

    def test_reduction_shrinks_the_set(self):
        # modulo the commutator relations every certificate collapses to 0
        space = build_generic_space(2, 2)
        p = parse_presentation("generators: X, Y\nrelation: X*Y - Y*X\n")
        basis = buchberger(relations_ideal(p, space), GREVLEX)
        values, _ = collapsed_certificate_values(space, basis, 2)
        assert values == []


class TestPipeline:
    def test_n1_corpus(self, pipelines):
        for name, outcome in [("idempotent", Outcome.FINITE),
                              ("imaginary_unit", Outcome.FINITE),
                              ("double_point", Outcome.FINITE),
                              ("s3", Outcome.FINITE),
                              ("free2", Outcome.INFINITE)]:
            run = pipelines(name, 1)
            assert run.verdict.outcome is outcome, name

    def test_free_one_generator_dimension_two(self):
        # one generic matrix only commutes with its own powers: no
        # irreducible pair exists, certificates vanish, verdict finite
        p = parse_presentation("generators: X\n")
        verdict = run_pipeline(p, 2).verdict
        assert verdict.outcome is Outcome.FINITE
        assert verdict.metrics.certificate_values == 0

    def test_minimal_polynomials_recorded(self, pipelines):
        run = pipelines("idempotent", 1)
        assert run.verdict.minimal_polynomials["x1"].coeffs == \
            (Fraction(0), Fraction(-1), Fraction(1))

    def test_infinite_records_witness(self, pipelines):
        run = pipelines("free2", 1)
        assert run.verdict.witness.render() == "tr(x1)"

    def test_no_generators(self):
        p = parse_presentation("generators:\n")
        v1 = run_pipeline(p, 1).verdict
        assert v1.outcome is Outcome.FINITE
        v2 = run_pipeline(p, 2).verdict
        assert v2.outcome is Outcome.FINITE

    def test_inconsistent_presentation_is_trivially_finite(self):
        p = parse_presentation("generators: X\nrelation: 1\n")
        v = run_pipeline(p, 1).verdict
        assert v.outcome is Outcome.FINITE
        assert v.metrics.locus_gb_size == 1

    def test_tiny_budget_is_inconclusive(self):
        p = parse_presentation("generators: a, b\nrelation: a^2 - 1\nrelation: b^3 - 1\n"
                               "relation: a*b*a*b - 1\n")
        verdict = run_pipeline(p, 2, limits=ResourceLimits(max_seconds=0.0)).verdict
        assert verdict.outcome is Outcome.INCONCLUSIVE
        assert "time" in verdict.inconclusive_reason

    def test_options_validation(self):
        p = parse_presentation("generators:\n")
        with pytest.raises(ValueError, match="order must be 'lex' or 'grevlex'"):
            run_pipeline(p, 1, order="deglex")
        with pytest.raises(ValueError, match="representation dimension must be at least 1"):
            run_pipeline(p, 0)

    def test_timings_cover_the_stages(self, pipelines):
        run = pipelines("idempotent", 1)
        assert set(run.verdict.metrics.timings) >= {"relations", "certificates",
                                                    "locus", "algebraic"}

    def test_power_free_words_keep_the_locus(self, pipelines, monkeypatch):
        # full enumeration, the unreduced reference, gives the same locus
        reduced = {name: pipelines(name, 2) for name in ("s3", "commuting_plane")}
        monkeypatch.setattr("repcount.decide.certificate_words",
                            lambda s, max_len, n: all_words(s, max_len))
        for name, run in reduced.items():
            full = run_pipeline(load(name), 2)
            assert full.verdict.metrics.certificate_candidates > \
                run.verdict.metrics.certificate_candidates
            assert [str(g) for g in full.locus_basis.elements] == \
                [str(g) for g in run.locus_basis.elements], name

    def test_certificate_words_metric(self, pipelines):
        metrics = pipelines("s3", 2).verdict.metrics.as_dict()
        assert metrics["certificate_words"] == 7
        assert metrics["certificate_candidates"] == 147
        assert metrics["certificate_values"] == metrics["multipliers"] == 1
        assert pipelines("s3", 1).verdict.metrics.certificate_words is None
