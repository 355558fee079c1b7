"""The tracer changes no result and puts every binding back."""

import hashlib

from jacobisigma import expr as ex
from jacobisigma import geometry as geo
from jacobisigma import jacobi as jac
from jacobisigma import sigma as sg

from tracer import MODULES, Tracer


def _run():
    J = sg.contact_pair(1)
    rep = jac.jacobi_check(J, seed=7)
    D = sg.sample_config(sg.contact_solution(1), sg.SurfaceGrid(17, 17))
    el = sg.el_residual(J, D, variant="homogeneous")
    at = jac.atlas_check(sg.moebius_atlas(), seed=3)
    return hashlib.sha256(repr((rep.ok, rep.max_residual, rep.jacobiator_values,
                                el.max_dev, sorted(el.norms.items()),
                                at.ok, at.overlap_checks)).encode()).hexdigest()


def test_traced_results_are_bit_identical():
    plain = _run()
    before = {m.__name__: dict(vars(m)) for m in MODULES}
    tr = Tracer()
    tr.install()
    assert jac.wedge is not geo.wedge.__wrapped__  # bindings were replaced
    tr.begin_op(0)
    try:
        traced = _run()
    finally:
        tr.end_op()
        tr.uninstall()
    assert traced == plain
    assert {m.__name__: dict(vars(m)) for m in MODULES} == before

    summary = tr.summary()
    assert summary["spans"] > 0
    assert summary["calls"]["jacobi.bracket"] > 0
    assert summary["counts"]["evaluate.array"] > 0
    assert summary["counts"]["sample.points"] > 0
    assert summary["counts"]["grid.nodes"] == 17 * 17 * 2
    assert all(v >= -1e-9 for v in summary["self_s"].values())


def test_spans_open_only_across_layers():
    tr = Tracer()
    tr.install()
    tr.begin_op(0)
    try:
        ex.differentiate(ex.parse("x*y + sin(x)^2"), "x")
    finally:
        tr.end_op()
        tr.uninstall()
    names = [tr.names[i] for i in tr.fn]
    # the top-level differentiate and parse calls open spans; the recursion
    # inside differentiate does not
    assert names.count("expr.differentiate") == 1
    assert tr.calls[tr.names.index("expr.differentiate")] > 1
