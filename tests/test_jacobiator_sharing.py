"""jacobi_check builds its Jacobiators from brackets and partial derivatives
shared across probe triples.  Each shared Jacobiator must be the very tree
jacobiator() builds, and the sampled values the very floats a plain loop
over jacobiator() gives."""

from itertools import combinations

import pytest

from jacobisigma import expr as ex
from jacobisigma import geometry as geo
from jacobisigma import jacobi as jac
from jacobisigma import sigma as sg


def _almost_poisson():
    ch, lam = sg.almost_poisson_bivector()
    return jac.JacobiPair(ch, lam, geo.mvf(ch, 1, {}))


def _dense():
    """The dense 4-dimensional pair of the sharp-map oracle test."""
    pytest.importorskip("sympy")
    from test_sharp_oracle import Dense
    return Dense().J


PAIRS = {"contact_1": lambda: sg.contact_pair(1),
         "contact_2": lambda: sg.contact_pair(2),
         "almost_poisson": _almost_poisson,
         "dense_4": _dense}


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_shared_jacobiators_are_the_jacobiator_trees(name):
    J = PAIRS[name]()
    probes = jac._jacobiator_probes(J)
    fns = dict(probes)
    got = list(jac._jacobiators(J))
    assert [t for t, _ in got] == list(combinations([n for n, _ in probes], 3))
    for (a, b, c), val in got:
        assert val == jac.jacobiator(J, fns[a], fns[b], fns[c]), (a, b, c)


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_jacobi_check_values_match_a_plain_jacobiator_loop(name):
    J = PAIRS[name]()
    trials, seed = 23, 4242
    box = J.chart.sample_box()
    want = [((a, b, c), ex.max_abs(jac.jacobiator(J, fa, fb, fc), box,
                                   trials=trials, seed=seed)[0])
            for (a, fa), (b, fb), (c, fc)
            in combinations(jac._jacobiator_probes(J), 3)]
    got = jac.jacobi_check(J, trials=trials, seed=seed).jacobiator_values
    assert [(t, m.hex()) for t, m in got] == [(t, m.hex()) for t, m in want]
