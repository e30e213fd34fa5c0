"""Reference implementations that tests compare the package against."""

from typing import Sequence

from repcount.groebner import Budget, Ideal, buchberger, ideal_quotient, intersect, unit_ideal
from repcount.poly import GREVLEX, Polynomial


def saturate(ideal: Ideal, multipliers: Sequence[Polynomial], limits=None) -> Ideal:
    """(ideal : <multipliers>^infinity), by a fixpoint of colon ideals.

    Iterates K <- intersection over g of (K : g) until the reduced basis
    stabilizes; each round multipliers are first reduced modulo K, and ones
    reducing to zero drop out (if all do, the saturation is the unit ideal).
    The package saturates with `saturate_principal`, one elimination per
    multiplier; this independent route is the oracle it is checked against.
    """
    budget = Budget.of(limits)
    if not multipliers:
        raise ValueError("empty multiplier set")
    ring = ideal.ring
    current_gb = buchberger(ideal, GREVLEX, budget)
    current = current_gb.as_ideal()
    while True:
        budget.tick()
        if current_gb.is_unit:
            return unit_ideal(ring)
        active = []
        seen = set()
        for g in multipliers:
            nf = current_gb.normal_form(g, budget)
            if nf.is_zero:
                continue
            if nf in seen or -nf in seen:
                continue
            seen.add(nf)
            active.append(nf)
        if not active:
            # every multiplier lies in the current ideal
            return unit_ideal(ring)
        step = None
        for g in active:
            q = ideal_quotient(current, g, budget)
            step = q if step is None else intersect(step, q, budget)
        step_gb = buchberger(step, GREVLEX, budget)
        if step_gb == current_gb:
            return Ideal(ring, current_gb.elements)
        current, current_gb = Ideal(ring, step_gb.elements), step_gb
