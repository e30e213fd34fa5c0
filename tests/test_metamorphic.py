"""Metamorphic checks: presentations of the same algebra, and the same
presentation under another monomial order, give the same verdict and count."""

from fractions import Fraction

import pytest

from repcount import FreeElement, Outcome, Presentation, count_from_run, run_pipeline

from conftest import load

CASES = ("s3", "qplane", "commuting_plane", "weyl", "free2")


def answer(run):
    verdict = run.verdict
    assert verdict.outcome is not Outcome.INCONCLUSIVE, verdict.inconclusive_reason
    count = count_from_run(run).count if verdict.outcome is Outcome.FINITE else None
    return verdict.outcome, count


def swap_generators(p: Presentation) -> Presentation:
    """The same algebra with the generator order reversed."""
    last = p.num_generators - 1
    relations = tuple(FreeElement({tuple(last - l for l in w): c for w, c in r.terms.items()})
                      for r in p.relations)
    return Presentation(p.generators[::-1], relations, p.name)


def scale_relation(p: Presentation) -> Presentation:
    """The same algebra with its first relation multiplied by -3/7."""
    return Presentation(p.generators, (Fraction(-3, 7) * p.relations[0],) + p.relations[1:],
                        p.name)


def tietze(p: Presentation) -> Presentation:
    """The same algebra with a new generator t and the relation t - x1*x2."""
    s = p.num_generators
    t = FreeElement.generator(s)
    return Presentation(p.generators + ("t",),
                        p.relations + (t - FreeElement.word((0, 1)),), p.name)


MOVES = [pytest.param(name, n, move, id="%s-n%d-%s" % (name, n, move.__name__))
         for name in CASES for n in (1, 2)
         for move in (swap_generators, scale_relation, tietze)
         if (move is not scale_relation or load(name).relations)
         and (move is not tietze or n == 1)]


@pytest.mark.parametrize("name, n, move", MOVES)
def test_presentation_move_keeps_the_answer(pipelines, name, n, move):
    moved = run_pipeline(move(load(name)), n)
    assert answer(moved) == answer(pipelines(name, n))


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("n", (1, 2))
def test_lex_order_keeps_the_answer(pipelines, name, n):
    lex = run_pipeline(load(name), n, order="lex")
    assert answer(lex) == answer(pipelines(name, n))
