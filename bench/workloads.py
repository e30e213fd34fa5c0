"""Seeded workloads for the repcount benchmark, with answer oracles.

Every workload turns a seed into a fixed-size list of `Case`s: the text of a
`.alg` presentation, the dimension n, and the answer an oracle independent
of repcount's pipeline expects.  The seed picks the variants (generator
order, relation scaling, alternative presentations) and the rational
parameters; the number and kind of cases never depend on it, so every seed
costs about the same work.

The `.alg` grammar has no parentheses, so products such as (ab)^2 or
(x - 1)^2 (x + 3) are expanded here before they are written out.

Oracles:

- quantum planes XY = qYX at n = 2: q = -1 has a one-parameter family of
  irreducibles with witness tr(x1^2); every other nonzero rational q has
  none (the quantum plane at q not a root of unity has only 1-dimensional
  irreducibles, and -1 is the only rational root of unity besides 1, where
  the algebra is commutative);
- group algebras Q[G]: by Artin-Wedderburn over the algebraic closure, the
  count at n is the number of complex irreducible characters of degree n,
  read off the character table;
- commutative algebras at n = 1: the count is the number of distinct points
  of the variety, computed from the root lists the generator drew;
- a commutative algebra has no irreducible representation of dimension
  above 1, so its count at n >= 2 is 0.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

QPLANE_WITNESS = "tr(x1^2)"

# Degrees of the complex irreducible characters.
CHARACTER_DEGREES = {
    "S3": (1, 1, 2),
    "D4": (1, 1, 1, 1, 2),
    "D5": (1, 1, 2, 2),
    "Q8": (1, 1, 1, 1, 2),
    "A4": (1, 1, 1, 3),
}


@dataclass(frozen=True)
class Case:
    """One `repcount count FILE -n N --json` call and its expected answer."""

    label: str
    text: str
    n: int
    verdict: str  # "finite" or "infinite"
    count: int | None  # None when infinite
    witness: str | None  # checked when the oracle fixes it

    @property
    def exit_code(self) -> int:
        return 4 if self.verdict == "infinite" else 0

    def digest(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()[:16]


# -- oracles -----------------------------------------------------------------


def quantum_plane_answer(q: Fraction) -> tuple:
    """(verdict, count, witness) of XY - qYX at n = 2, for rational q != 0."""
    if q == 0:
        raise ValueError("the quantum plane needs q != 0")
    if q == -1:
        return "infinite", None, QPLANE_WITNESS
    return "finite", 0, None


def group_count(group: str, n: int) -> int:
    """Number of classes of n-dimensional irreducibles of Q[group]."""
    return sum(1 for d in CHARACTER_DEGREES[group] if d == n)


def distinct_points(points) -> int:
    return len(set(points))


def check(case: Case, exit_code: int, stdout: str) -> str | None:
    """None when the run matches the oracle, else what went wrong."""
    if exit_code == 3:
        return "INCONCLUSIVE (exit 3)"
    if exit_code != case.exit_code:
        return "exit code %d, expected %d" % (exit_code, case.exit_code)
    try:
        got = json.loads(stdout)
    except ValueError:
        return "output is not JSON"
    if got.get("verdict") != case.verdict:
        return "verdict %r, expected %r" % (got.get("verdict"), case.verdict)
    if got.get("count") != case.count:
        return "count %r, expected %r" % (got.get("count"), case.count)
    if case.witness is not None and got.get("witness") != case.witness:
        return "witness %r, expected %r" % (got.get("witness"), case.witness)
    return None


# -- writing presentations ---------------------------------------------------


def _word(letters) -> str:
    """Letters as a product, runs folded into powers: a a b -> a^2*b."""
    parts = []
    i = 0
    while i < len(letters):
        j = i
        while j < len(letters) and letters[j] == letters[i]:
            j += 1
        parts.append(letters[i] if j - i == 1 else "%s^%d" % (letters[i], j - i))
        i = j
    return "*".join(parts)


def relation(terms, scale: Fraction = Fraction(1)) -> str:
    """Render sum(c * word) scaled by `scale`; words are letter sequences."""
    chunks = []
    for coeff, letters in terms:
        c = Fraction(coeff) * scale
        if c == 0:
            continue
        mag = abs(c)
        if not letters:
            body = str(mag)
        elif mag == 1:
            body = _word(letters)
        else:
            body = "%s*%s" % (mag, _word(letters))
        if not chunks:
            chunks.append(body if c > 0 else "-" + body)
        else:
            chunks.append(("+ " if c > 0 else "- ") + body)
    if not chunks:
        raise ValueError("zero relation")
    return " ".join(chunks)


def presentation(comment: str, generators, relations) -> str:
    lines = ["# " + comment, "generators: " + ", ".join(generators)]
    lines += ["relation: " + r for r in relations]
    return "\n".join(lines) + "\n"


def expand_roots(roots) -> dict:
    """Coefficients {degree: c} of prod (x - r) over the root list."""
    coeffs = {0: Fraction(1)}
    for r in roots:
        nxt: dict = {}
        for d, c in coeffs.items():
            nxt[d + 1] = nxt.get(d + 1, 0) + c
            nxt[d] = nxt.get(d, 0) - c * r
        coeffs = nxt
    return {d: c for d, c in coeffs.items() if c}


def expand_lines(x_roots, intercepts) -> tuple:
    """(f, g): f(x) = prod (x - r) and g(x, y) = prod (y - x - s) over the
    intercepts s, as dicts {(x-degree, y-degree): c}."""
    f = {(d, 0): c for d, c in expand_roots(x_roots).items()}
    g = {(0, 0): Fraction(1)}
    for s in intercepts:
        factor = {(0, 1): Fraction(1), (1, 0): Fraction(-1), (0, 0): -Fraction(s)}
        nxt: dict = {}
        for (a, b), c in g.items():
            for (da, db), e in factor.items():
                key = (a + da, b + db)
                nxt[key] = nxt.get(key, 0) + c * e
        g = {k: c for k, c in nxt.items() if c}
    return f, g


def _commutative_terms(coeffs: dict, names) -> list:
    """Terms of a commutative polynomial, monomials written x^i*y^j."""
    out = []
    for exps in sorted(coeffs, key=lambda e: (-sum(e), tuple(-x for x in e))):
        letters = [v for v, k in zip(names, exps) for _ in range(k)]
        out.append((coeffs[exps], letters))
    return out


def _commutators(names) -> list:
    return [relation([(1, [a, b]), (-1, [b, a])])
            for i, a in enumerate(names) for b in names[i + 1:]]


def _scale(rng: random.Random) -> Fraction:
    """A nonzero rational scaling for a relation: it leaves the ideal unchanged."""
    num = rng.choice((1, 2, 3, 5, 7)) * rng.choice((1, -1))
    return Fraction(num, rng.choice((1, 2, 3)))


def _rational(rng: random.Random, exclude=()) -> Fraction:
    while True:
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        if q != 0 and q not in exclude:
            return q


# -- workloads ---------------------------------------------------------------


def planes_n2(rng: random.Random) -> list:
    """Quantum planes at q = -1 and at a generic rational q, and a scaled
    commuting plane (q = 1), each with a seeded generator order."""
    cases = []
    generic = _rational(rng, exclude=(1, -1))
    for label, q in (("qplane_q-1", Fraction(-1)), ("qplane_generic", generic),
                     ("commuting", Fraction(1))):
        gens = ["X", "Y"]
        rng.shuffle(gens)
        rel = relation([(1, ["X", "Y"]), (-q, ["Y", "X"])], _scale(rng))
        verdict, count, witness = quantum_plane_answer(q)
        text = presentation("quantum plane XY = (%s) YX" % q, gens, [rel])
        cases.append(Case("%s(q=%s)" % (label, q), text, 2, verdict, count, witness))
    return cases


# Group presentations: label and relators as letter words, on generators a, b.
GROUPS = {
    "S3": ("<a,b | a^2, b^3, (ab)^2>", [["a"] * 2, ["b"] * 3, ["a", "b"] * 2]),
    "D5": ("<a,b | a^2, b^5, (ab)^2>", [["a"] * 2, ["b"] * 5, ["a", "b"] * 2]),
}


def _group_case(group: str, gens, rng: random.Random) -> Case:
    label, relators = GROUPS[group]
    rels = [relation([(1, w), (-1, [])], _scale(rng)) for w in relators]
    text = presentation("group algebra Q[%s], %s" % (group, label), gens, rels)
    return Case("%s(gens %s)" % (group, ",".join(gens)), text, 2, "finite",
                group_count(group, 2), None)


def groups_n2(rng: random.Random) -> list:
    """Q[S3] in both generator orders and Q[D5] in a seeded one, every
    relation scaled by a seeded rational.

    The order of S3's generators changes its cost by half (2.6 s against
    4.0 s), so S3 comes in both orders and the seed cannot set the
    workload's cost; D5's cost does not depend on the order."""
    cases = [_group_case("S3", ["a", "b"], rng), _group_case("S3", ["b", "a"], rng)]
    gens = ["a", "b"]
    rng.shuffle(gens)
    cases.append(_group_case("D5", gens, rng))
    return cases


def _cyclic_product(orders, rng: random.Random) -> Case:
    names = ["x", "y", "z"][:len(orders)]
    rels = [relation([(1, [v] * k), (-1, [])], _scale(rng)) for v, k in zip(names, orders)]
    rels += _commutators(names)
    points = list(product(*[range(k) for k in orders]))
    label = "x".join("C%d" % k for k in orders)
    text = presentation("group algebra Q[%s], commutative" % label, names, rels)
    return Case(label, text, 1, "finite", distinct_points(points), None)


def _dense_roots(rng: random.Random, multiplicities, distinct: bool) -> list:
    """Nonzero integer roots, repeated by the multiplicities, whose
    polynomial has no vanishing coefficient: a sparse polynomial makes a
    cheaper case, and the seed must not set the workload's cost."""
    nonzero = (-4, -3, -2, -1, 1, 2, 3, 4)
    while True:
        picks = (rng.sample(nonzero, len(multiplicities)) if distinct
                 else [rng.choice(nonzero) for _ in multiplicities])
        roots = [Fraction(r) for r, m in zip(picks, multiplicities) for _ in range(m)]
        if len(expand_roots(roots)) == len(roots) + 1:
            return roots


def _triangular(rng: random.Random, x_shape, y_shape) -> Case:
    """f(x) = prod (x - r)^m and g = prod (y - x - s)^k; points (r, r + s).

    All lines y = x + s are parallel: the cost depends on the slopes (a flat
    line makes a case up to 15 times cheaper, crossing lines up to 1.5
    times), and the seed must not set the workload's cost.  A repeated
    intercept makes two lines coincide, so the point count still varies."""
    x_roots = _dense_roots(rng, x_shape, distinct=True)
    intercepts = _dense_roots(rng, y_shape, distinct=False)
    f, g = expand_lines(x_roots, intercepts)
    rels = [relation(_commutative_terms(f, ["x", "y"]), _scale(rng)),
            relation(_commutative_terms(g, ["x", "y"]), _scale(rng))]
    rels += _commutators(["x", "y"])
    points = [(r, r + s) for r in set(x_roots) for s in set(intercepts)]
    text = presentation("triangular system, x roots %s, lines y = x + s for s in %s"
                        % ([str(r) for r in x_roots], [str(s) for s in intercepts]),
                        ["x", "y"], rels)
    return Case("triangular(dim=%d)" % (len(x_roots) * len(intercepts)), text, 1, "finite",
                distinct_points(points), None)


def points_n1(rng: random.Random) -> list:
    """Commutative finite algebras at n = 1: products of cyclic groups of fixed
    order written with commutators, and triangular systems of fixed degrees
    with repeated roots."""
    cases = []
    for _ in range(2):
        cases.append(_cyclic_product(rng.choice(((12, 12), (9, 16), (16, 9), (8, 18), (18, 8))), rng))
    for _ in range(2):
        cases.append(_cyclic_product(rng.choice(((4, 4, 6), (4, 6, 4), (6, 4, 4), (2, 6, 8), (3, 4, 8))), rng))
    for _ in range(2):
        cases.append(_triangular(rng, (2, 1, 1, 2), (1, 2, 1)))
    rng.shuffle(cases)
    return cases


def _cubic_roots(rng: random.Random) -> list:
    """Three distinct nonzero integer roots with no vanishing coefficient."""
    while True:
        roots = rng.sample((-3, -2, -1, 1, 2, 3), 3)
        if all(expand_roots(roots).get(d) for d in range(4)):
            return roots


def monogenic_n3(rng: random.Random) -> list:
    """Q[x]/(f) at n = 3 for a seeded cubic f with three distinct rational roots."""
    roots = _cubic_roots(rng)
    terms = [(c, ["x"] * d) for d, c in sorted(expand_roots(roots).items(), reverse=True)]
    text = presentation("Q[x]/(f), f with roots %s" % roots, ["x"],
                        [relation(terms, _scale(rng))])
    return [Case("cubic%s" % roots, text, 3, "finite", 0, None)]


WORKLOADS = {
    "planes_n2": planes_n2,
    "groups_n2": groups_n2,
    "points_n1": points_n1,
    "monogenic_n3": monogenic_n3,
}


def generate(workload: str, seed: int) -> list:
    """The case list of a workload for a seed; the same seed, the same list."""
    return WORKLOADS[workload](random.Random("%s:%d" % (workload, seed)))
