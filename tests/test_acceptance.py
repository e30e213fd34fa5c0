"""End-to-end acceptance checks.

One test per criterion, each finishing with an explicit PASS line (visible
under -s; under plain -v the test name itself is the pass/fail line).  Time
budgets are asserted on freshly measured wall clock, not cached runs.
"""

import random
import time
from fractions import Fraction
from functools import reduce

import sympy

from repcount.count import count_from_run
from repcount.decide import DecisionInput, Outcome, RunOptions, run_pipeline
from repcount.genmat import build_generic_space, length_bound, standard_identity, trace_generators
from repcount.groebner import (
    Ideal,
    ResourceLimits,
    buchberger,
    ideal_quotient,
    intersect,
    saturate_principal,
)
from repcount.matrices import Matrix
from repcount.poly import MonomialOrder, PolyRing, auxiliary
from repcount.presentation import parse_presentation

from conftest import load
from oracles import equal_ideals, s_polynomial, saturate

GREVLEX = MonomialOrder.grevlex()
LEX = MonomialOrder.lex()


def report(label, ok=True):
    print("ACCEPTANCE %s - %s" % ("PASS" if ok else "FAIL", label))
    assert ok, label


def fresh_run(name, n):
    options = RunOptions(limits=ResourceLimits(max_seconds=300.0, max_degree=60,
                                               max_basis=20000))
    return run_pipeline(DecisionInput(load(name), n, options))


def rational_matrix(rng, d):
    return Matrix([[Fraction(rng.randrange(-5, 6)) for _ in range(d)] for _ in range(d)])


def test_criterion_1_standard_identity_on_2x2():
    t0 = time.perf_counter()
    rng = random.Random(101)
    for _ in range(20):
        mats = [rational_matrix(rng, 2) for _ in range(4)]
        assert standard_identity(4, mats).is_zero
    # s_3 is not an identity of 2x2 matrices: exhibit a nonzero value
    e11 = Matrix([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]])
    e12 = Matrix([[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]])
    e21 = Matrix([[Fraction(0), Fraction(0)], [Fraction(1), Fraction(0)]])
    assert not standard_identity(3, [e11, e12, e21]).is_zero
    took = time.perf_counter() - t0
    assert took < 5.0
    report("standard identity: s4 vanishes on 2x2, s3 does not (%.2fs)" % took)


def test_criterion_2_certificate_length_bounds():
    assert length_bound(2) == 4
    assert length_bound(3) == 8
    report("certificate word length bounds: n=2 -> 4, n=3 -> 8")


def test_criterion_3_known_counts():
    lines = []
    for name, n, expected, budget in [
        ("idempotent", 1, 2, 1.0),
        ("imaginary_unit", 1, 2, 1.0),
        ("double_point", 1, 1, 1.0),
        ("s3", 1, 2, 1.0),
        ("s3", 2, 1, 300.0),
        ("weyl", 2, 0, 300.0),
        ("commuting_plane", 2, 0, 300.0),
    ]:
        t0 = time.perf_counter()
        run = fresh_run(name, n)
        got = count_from_run(run).count
        took = time.perf_counter() - t0
        assert got == expected, (name, n, got, expected)
        assert took < budget, (name, n, took, budget)
        lines.append("%s n=%d -> %d (%.2fs)" % (name, n, got, took))
    report("known counts: " + "; ".join(lines))


def test_criterion_4_infinite_families():
    t0 = time.perf_counter()
    qplane = fresh_run("qplane", 2).verdict
    assert qplane.outcome is Outcome.INFINITE
    assert qplane.witness.render() == "tr(x1^2)"
    free2 = fresh_run("free2", 1).verdict
    assert free2.outcome is Outcome.INFINITE
    assert free2.witness.render() == "tr(x1)"
    took = time.perf_counter() - t0
    assert took < 300.0
    report("infinite verdicts: qplane n=2 (tr(x1^2)), free algebra n=1 (tr(x1)) "
           "(%.2fs)" % took)


def _univariate_text(coeffs, name):
    """Presentation syntax for sum(coeffs[k] * name^k), highest degree first."""
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        if k == 0:
            body = str(abs(c))
        elif k == 1:
            body = "%d*%s" % (abs(c), name)
        else:
            body = "%d*%s^%d" % (abs(c), name, k)
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _distinct_root_count(polys, x):
    """Number of distinct complex roots shared by all the polynomials."""
    g = reduce(sympy.gcd, polys)
    g = sympy.Poly(g, x)
    if g.degree() <= 0:
        return 0
    return g.degree() - sympy.Poly(sympy.gcd(g, g.diff(x)), x).degree()


def _random_coeffs(rng, degree):
    coeffs = [rng.randrange(-4, 5) for _ in range(degree)] + [rng.choice([1, 2, -1, 3])]
    return coeffs


def test_criterion_5_random_zero_dimensional_oracle():
    t0 = time.perf_counter()
    rng = random.Random(20260823)
    x, y = sympy.symbols("x y")
    checked = 0
    while checked < 50:
        two_vars = rng.random() < 0.4
        fs = [_random_coeffs(rng, rng.randrange(1, 5))
              for _ in range(rng.randrange(1, 3))]
        f_polys = [sum(c * x ** k for k, c in enumerate(cs)) for cs in fs]
        expected = _distinct_root_count(f_polys, x)
        lines = ["relation: " + _univariate_text(cs, "X") for cs in fs]
        if two_vars:
            gs = [_random_coeffs(rng, rng.randrange(1, 4))]
            g_polys = [sum(c * y ** k for k, c in enumerate(cs)) for cs in gs]
            expected *= _distinct_root_count(g_polys, y)
            lines = ["generators: X, Y"] + lines
            lines += ["relation: " + _univariate_text(cs, "Y") for cs in gs]
        else:
            lines = ["generators: X"] + lines
        text = "\n".join(lines) + "\n"
        presentation = parse_presentation(text, name="random-%d" % checked)
        run = run_pipeline(DecisionInput(presentation, 1))
        assert run.verdict.outcome is Outcome.FINITE, text
        got = count_from_run(run).count
        assert got == expected, (text, got, expected)
        checked += 1
    took = time.perf_counter() - t0
    assert took < 60.0
    report("random zero-dimensional systems vs sympy root counting: "
           "%d cases (%.2fs)" % (checked, took))


def test_criterion_6_groebner_battery():
    t0 = time.perf_counter()
    ring = PolyRing.ranked([auxiliary("t", i) for i in range(3)])
    X, Y, Z = (ring.variable(v) for v in ring.variables)

    # hand-checked identities
    assert set(buchberger([X - Y, X + Y], LEX, ring=ring).elements) == {X, Y}
    assert s_polynomial(X * X - Y, X * Y - 1, LEX) == X - Y * Y
    assert equal_ideals(intersect(Ideal(ring, [X]), Ideal(ring, [Y])),
                        Ideal(ring, [X * Y]))
    assert equal_ideals(ideal_quotient(Ideal(ring, [X * Y]), X), Ideal(ring, [Y]))
    assert equal_ideals(saturate(Ideal(ring, [X * X * Y]), [X]), Ideal(ring, [Y]))

    # uniqueness under permutation and rescaling of the generators
    rng = random.Random(606)
    gens = [X * Y - Z, Y * Z - X, Z * X - Y, X * X - 1]
    reference = buchberger(gens, GREVLEX, ring=ring)
    for _ in range(10):
        shuffled = list(gens)
        rng.shuffle(shuffled)
        scaled = [g * Fraction(rng.randrange(1, 9), rng.randrange(1, 5))
                  for g in shuffled]
        assert buchberger(scaled, GREVLEX, ring=ring) == reference

    # Buchberger criterion holds on the output
    for i in range(len(reference.elements)):
        for j in range(i + 1, len(reference.elements)):
            s = s_polynomial(reference.elements[i], reference.elements[j], GREVLEX)
            assert reference.normal_form(s).is_zero

    # principal saturation agrees with the iterated form
    ideal = Ideal(ring, [X * X * Y, X * Z * Z - X * Z])
    for g in (X, Y, Z, X + Y):
        assert equal_ideals(saturate_principal(ideal, g), saturate(ideal, [g]))

    took = time.perf_counter() - t0
    assert took < 30.0
    report("groebner battery: uniqueness, S-polynomials, quotients, "
           "saturations (%.2fs)" % took)


def _invert_2x2(m):
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    assert det != 0
    return Matrix([[m[1, 1] / det, -m[0, 1] / det],
                   [-m[1, 0] / det, m[0, 0] / det]])


def _evaluate(poly, values):
    total = Fraction(0)
    for mono, c in poly.terms.items():
        term = c
        for pos, e in enumerate(mono):
            if e:
                term *= values[pos] ** e
        total += term
    return total


def _point_values(space, a, b):
    values = {}
    for v in space.ring.variables:
        l, i, j = v.key
        mat = a if l == 1 else b
        values[space.ring.position[v]] = mat[i - 1, j - 1]
    return [values[p] for p in range(space.ring.nvars())]


def test_criterion_7_s3_trace_point_is_conjugation_invariant():
    t0 = time.perf_counter()
    a = Matrix([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
    b = Matrix([[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(-1)]])
    ident = Matrix.identity(2, Fraction(1), Fraction(0))
    # the pair really is the standard 2-dimensional representation of S_3
    assert a * a == ident
    assert b * b * b == ident
    assert (a * b) * (a * b) == ident

    space = build_generic_space(2, 2)
    gens = trace_generators(space)
    assert len(gens) == 15
    base = [_evaluate(tg.value, _point_values(space, a, b)) for tg in gens]

    rng = random.Random(303)
    conjugates_checked = 0
    while conjugates_checked < 5:
        p = rational_matrix(rng, 2)
        if p[0, 0] * p[1, 1] - p[0, 1] * p[1, 0] == 0:
            continue
        pinv = _invert_2x2(p)
        a2 = p * a * pinv
        b2 = p * b * pinv
        values = [_evaluate(tg.value, _point_values(space, a2, b2)) for tg in gens]
        assert values == base
        conjugates_checked += 1

    # spot check the actual traces while we are here
    assert base[0] == 0   # tr(a)
    assert base[1] == -1  # tr(b)
    assert base[2] == 2   # tr(a^2)
    took = time.perf_counter() - t0
    assert took < 5.0
    report("S3 2-dim representation: 15 trace values invariant under 5 random "
           "conjugations (%.2fs)" % took)

