"""The chain (cocycle) checks of jacobi.atlas_check against a scalar
reference that walks the sample points with one evaluate call per
expression and point.  On random 1-D atlases (shifted, scaled and
reflected coordinate maps; closed chains, open chains over three charts,
images partly outside the second overlap's box, pairs with no point
inside) and on fixed ones (an image on a box boundary, errors on either
side of the tolerance) both give the same chain list: the same pairs,
point counts and verdicts."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from jacobisigma import expr as ex
from jacobisigma import geometry as geo
from jacobisigma import jacobi as jac
from jacobisigma import sigma as sg
from jacobisigma.geometry import Chart, SmoothMap


def _reference_chain_checks(atlas, *, tol=ex.DEFAULT_TOL,
                            trials=ex.DEFAULT_TRIALS, seed=ex.DEFAULT_SEED):
    """atlas_check's chain checks, one scalar evaluation per point."""
    chain_checks = []
    for i, o1 in enumerate(atlas.overlaps):
        for j, o2 in enumerate(atlas.overlaps):
            if o1.dst != o2.src:
                continue
            # sample src points whose image lands in o2's box
            pts = ex.halton_points(o1.src_box, trials, seed)
            checked, ok = 0, True
            for pt in pts:
                img = {n: ex.evaluate(o1.fwd.comps[n], pt)
                       for n in o1.fwd.dst.names if n in o2.src_box}
                if any(not (lo < img[n] < hi)
                       for n, (lo, hi) in o2.src_box.items()):
                    continue
                g_prod = (ex.evaluate(o2.g, img) * ex.evaluate(o1.g, pt))
                if o1.src == o2.dst:
                    # closed chain: composite must be the identity with g = 1
                    back = {n: ex.evaluate(o2.fwd.comps[n], img)
                            for n in o2.fwd.dst.names}
                    if any(abs(back[n] - pt[n]) > 10 * tol for n in back):
                        ok = False
                    if abs(g_prod - 1.0) > 10 * tol:
                        ok = False
                    checked += 1
                else:
                    # open chain: compare against a declared composite overlap
                    for o3 in atlas.overlaps:
                        if o3.src != o1.src or o3.dst != o2.dst:
                            continue
                        if any(not (lo < pt[n] < hi)
                               for n, (lo, hi) in o3.src_box.items()):
                            continue
                        comp = {n: ex.evaluate(o2.fwd.comps[n], img)
                                for n in o2.fwd.dst.names}
                        dec = {n: ex.evaluate(o3.fwd.comps[n], pt)
                               for n in o3.fwd.dst.names}
                        if any(abs(comp[n] - dec[n]) > 10 * tol for n in comp):
                            ok = False
                        if abs(ex.evaluate(o3.g, pt) - g_prod) > 10 * tol:
                            ok = False
                        checked += 1
            if checked:
                chain_checks.append({"via": f"{o1.src}->{o1.dst}->{o2.dst}"
                                            f" [{i},{j}]",
                                     "points": checked, "ok": ok})
    return chain_checks


def _exactly(checks):
    """Chain checks with the type of every value, so 3 and 3.0 or True and
    numpy's bool differ."""
    return [[(k, type(v), v) for k, v in c.items()] for c in checks]


X = ex.var("x")
CHARTS = ("A", "B", "C")
# an affine map x -> a x + b and its inverse; a < 0 reflects
SCALES = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2),
                          Fraction(-1, 2), Fraction(3, 2)])
SHIFTS = st.fractions(min_value=-2, max_value=2, max_denominator=8)
ENDS = st.fractions(min_value=-3, max_value=3, max_denominator=16)
# transition factors: constants of both signs, and a nonconstant one
FACTORS = st.sampled_from([ex.ONE, ex.num(-1), ex.num(2), ex.num("1/2"),
                           ex.add(ex.ONE, ex.mul(ex.num("1/4"),
                                                 ex.pow_(X, 2)))])


def _line_charts():
    """Charts A, B, C on the line and their pairs, with E = 0, so that
    each is Jacobi."""
    ch = {n: Chart(("x",), {"x": (-4.0, 4.0)}) for n in CHARTS}
    pairs = {n: jac.JacobiPair(c, geo.mvf(c, 2, {}), geo.mvf(c, 1, {}))
             for n, c in ch.items()}
    return ch, pairs


def _interval(a, b):
    lo, hi = sorted((a, b))
    return (float(lo), float(hi + Fraction(1, 16)))


def _overlap(ch, src, dst, a, b, g, box):
    """The overlap x -> a x + b from src to dst on the source box `box`,
    with transition factor g."""
    fwd = ex.add(ex.mul(ex.num(a), X), ex.num(b))
    back = ex.div(ex.sub(X, ex.num(b)), ex.num(a))
    image = _interval(a * Fraction(box[0]) + b, a * Fraction(box[1]) + b)
    return jac.Overlap(src, dst, SmoothMap(ch[src], ch[dst], {"x": fwd}),
                       SmoothMap(ch[dst], ch[src], {"x": back}), g,
                       {"x": box}, {"x": image})


def _boxes(draw, image=None):
    """A source box: often `image` (the box another overlap maps onto) or
    its lower half, else one drawn at random, which may cut the images or
    miss them."""
    if image is not None:
        lo, hi = image
        box = draw(st.sampled_from([image, (lo, (lo + hi) / 2), None]))
        if box is not None:
            return box
    return _interval(draw(ENDS), draw(ENDS))


@st.composite
def atlases(draw):
    """Charts A, B, C on the line and overlaps among them: a run of drawn
    ones, each usually starting where the last one ends, then the inverses
    and composites of some of them, correct or perturbed, so that chains
    close, open chains have a declared composite, and the verdicts go both
    ways."""
    ch, pairs = _line_charts()
    often = st.sampled_from([True, True, False])
    overlaps, maps, src, image = [], [], draw(st.sampled_from(CHARTS)), None
    for _ in range(draw(st.integers(1, 3))):
        dst = draw(st.sampled_from([c for c in CHARTS if c != src]))
        a, b, g = draw(SCALES), draw(SHIFTS), draw(FACTORS)
        box = _boxes(draw, image)
        ov = _overlap(ch, src, dst, a, b, g, box)
        overlaps.append(ov)
        maps.append((src, dst, a, b, g, box, ov.dst_box["x"]))
        if draw(often):
            src, image = dst, ov.dst_box["x"]
        else:
            src, image = draw(st.sampled_from(CHARTS)), None

    def errors():
        """(shift, scale): no error, or an error of the map or of the
        factor, between 10 tol and 100 tol at tol = 1e-9 or above 10 tol
        at tol = 1e-3."""
        error = draw(st.sampled_from([0, 0, Fraction(1, 20_000_000),
                                      Fraction(1, 1000)]))
        return (error, 0) if draw(st.booleans()) else (0, error)

    for src, dst, a, b, g, box, image in maps:
        if draw(st.booleans()):
            # the inverse overlap, its factor 1/g at the preimage
            shift, scale = errors()
            g_inv = ex.mul(ex.div(ex.ONE, ex.substitute(
                g, {"x": ex.div(ex.sub(X, ex.num(b)), ex.num(a))})),
                ex.num(1 + scale))
            overlaps.append(_overlap(ch, dst, src, 1 / a, -b / a + shift,
                                     g_inv, _boxes(draw, image)))
    for s1, d1, a1, b1, g1, box1, _ in maps:
        for s2, d2, a2, b2, g2, _, _ in maps:
            if d1 != s2 or s1 == d2 or not draw(often):
                continue
            # the composite s1 -> d2, its factor g2(fwd1) g1, once or twice
            for _ in range(draw(st.integers(1, 2))):
                shift, scale = errors()
                g3 = ex.mul(ex.substitute(
                    g2, {"x": ex.add(ex.mul(ex.num(a1), X), ex.num(b1))}),
                    g1, ex.num(1 + scale))
                overlaps.append(_overlap(ch, s1, d2, a2 * a1,
                                         a2 * b1 + b2 + shift, g3,
                                         _boxes(draw, box1)))
    order = draw(st.permutations(range(len(overlaps))))
    return jac.LineBundleAtlas(pairs, [overlaps[k] for k in order])


@settings(max_examples=80, deadline=None)
@given(atlases(), st.sampled_from((1e-9, 1e-3)), st.sampled_from((1, 7, 64)),
       st.integers(0, 2 ** 31))
def test_chain_checks_equal_the_scalar_loop(atlas, tol, trials, seed):
    kw = dict(tol=tol, trials=trials, seed=seed)
    got = jac.atlas_check(atlas, **kw).chain_checks
    assert _exactly(got) == _exactly(_reference_chain_checks(atlas, **kw))


def test_chain_checks_of_the_moebius_atlases():
    for flat in (False, True):
        atlas = sg.moebius_atlas(flat=flat)
        for kw in (dict(), dict(trials=16, seed=5), dict(tol=1e-3)):
            got = jac.atlas_check(atlas, **kw).chain_checks
            assert got and (_exactly(got) == _exactly(
                _reference_chain_checks(atlas, **kw)))


MOEBIUS_REPORTS = """
import sys
from jacobisigma import jacobi as jac, sigma as sg
for kw in (dict(), dict(trials=16, seed=5), dict(tol=1e-3)):
    print(repr(jac.atlas_check(sg.moebius_atlas(flat=sys.argv[1] == "flat"),
                               **kw)))
print(bool(sys.modules.get("numpy")))
"""


@pytest.mark.parametrize("flat", ["curved", "flat"])
def test_moebius_atlas_reports_equal_with_and_without_numpy(flat):
    """A one-shot command that cannot import numpy runs the chain checks on
    columns of Python floats; a process with numpy loaded, by the array
    pass.  The reports are equal, every float by its repr."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = []
    # a one-shot command (as cli.main marks it) without numpy
    for prelude in ("import sys; sys.modules['numpy'] = None\n"
                    "import jacobisigma.expr as ex; ex._one_shot = True\n",
                    "import numpy\n"):
        out.append(subprocess.run(
            [sys.executable, "-c", prelude + MOEBIUS_REPORTS, flat],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, check=True).stdout.splitlines())
    assert out[0][-1] == "False" and out[1][-1] == "True"
    assert out[0][:-1] == out[1][:-1] and len(out[0]) == 4


def test_an_image_on_the_box_boundary_is_outside():
    # o2's box starts at the image of o1's sixth sample point (o1 is the
    # identity), so that image is not strictly inside and is not checked
    ch, pairs = _line_charts()
    box = (0.25, 1.0)
    c = ex.halton_point({"x": box}, 5, ex.DEFAULT_SEED)["x"]
    o1 = _overlap(ch, "A", "B", Fraction(1), Fraction(0), ex.ONE, box)
    o2 = _overlap(ch, "B", "A", Fraction(1), Fraction(0), ex.ONE, (c, 1.0))
    atlas = jac.LineBundleAtlas(pairs, [o1, o2])
    got = jac.atlas_check(atlas).chain_checks
    want = _reference_chain_checks(atlas)
    assert _exactly(got) == _exactly(want)
    inside = sum(c < p["x"] < 1.0 for p in ex.halton_points(
        {"x": box}, ex.DEFAULT_TRIALS, ex.DEFAULT_SEED))
    assert got[0]["via"] == "A->B->A [0,1]" and got[0]["points"] == inside


@pytest.mark.parametrize("error", [0, Fraction(1, 20_000_000),
                                   Fraction(1, 1000)])
@pytest.mark.parametrize("where", ["inverse map", "inverse factor",
                                   "composite map", "composite factor"])
def test_chain_tolerance_at_its_threshold(where, error):
    # A -> B -> A closes through the inverse of A -> B; A -> B -> C is
    # compared with two declared composites A -> C, the first with the
    # error, the second exact.  An error of 5e-8 is between 10 tol and
    # 100 tol at tol = 1e-9; every error is below 10 tol at tol = 1e-3.
    ch, pairs = _line_charts()
    a1, b1 = Fraction(2), Fraction(1, 3)
    g1 = ex.add(ex.ONE, ex.mul(ex.num("1/4"), ex.pow_(X, 2)))
    a2, b2, g2 = Fraction(-1, 2), Fraction(1), ex.num(2)
    ab = _overlap(ch, "A", "B", a1, b1, g1, (0.0, 1.0))
    bc = _overlap(ch, "B", "C", a2, b2, g2, ab.dst_box["x"])

    def err(label):
        return error if where == label else 0
    g_inv = ex.mul(ex.div(ex.ONE, ex.substitute(
        g1, {"x": ex.div(ex.sub(X, ex.num(b1)), ex.num(a1))})),
        ex.num(1 + err("inverse factor")))
    ba = _overlap(ch, "B", "A", 1 / a1, -b1 / a1 + err("inverse map"), g_inv,
                  ab.dst_box["x"])
    g3 = ex.mul(ex.substitute(g2, {"x": ab.fwd.comps["x"]}), g1)
    ac = [_overlap(ch, "A", "C", a2 * a1, a2 * b1 + b2 + shift,
                   ex.mul(g3, ex.num(1 + scale)), (0.0, 1.0))
          for shift, scale in ((err("composite map"), err("composite factor")),
                               (0, 0))]
    atlas = jac.LineBundleAtlas(pairs, [ab, ba, bc, *ac])
    for tol in (1e-9, 1e-3):
        got = jac.atlas_check(atlas, tol=tol).chain_checks
        assert _exactly(got) == _exactly(_reference_chain_checks(atlas,
                                                                 tol=tol))
        chains = {c["via"].split()[0]: c["ok"] for c in got}
        broken = "A->B->A" if where.startswith("inverse") else "A->B->C"
        assert chains[broken] is (error == 0 or tol == 1e-3)
        assert all(chains.values()) is (error == 0 or tol == 1e-3)
