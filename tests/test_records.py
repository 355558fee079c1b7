"""The record classes (jacobisigma._records) keep the contract of the
dataclasses they replaced: field names and order, positional and keyword
construction, defaults and fresh default_factory values, dataclasses.replace,
FrozenInstanceError on a frozen class, no hash on a plain one.  The eight
expression nodes repr, compare and hash like a stdlib
@dataclass(frozen=True) twin.  The command line freezes the collector only
on its way out of the process."""

import dataclasses
import gc
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobisigma import algebroid as alg
from jacobisigma import cli
from jacobisigma import expr as ex
from jacobisigma import geometry as geo
from jacobisigma import jacobi as jac
from jacobisigma import sigma as sg
from jacobisigma._records import record

ROOT = Path(__file__).resolve().parents[1]

# class -> (frozen, field names in order)
CONTRACT = {
    ex.Num: (True, ("value",)),
    ex.Pi: (True, ()),
    ex.Var: (True, ("name",)),
    ex.Add: (True, ("terms",)),
    ex.Mul: (True, ("factors",)),
    ex.Pow: (True, ("base", "exponent")),
    ex.Div: (True, ("num", "den")),
    ex.Fn: (True, ("fn", "arg")),
    geo.Chart: (False, ("names", "box", "weights")),
    geo.SmoothMap: (False, ("src", "dst", "comps")),
    jac.JacobiPair: (False, ("chart", "lam", "e")),
    jac.JacobiCheckReport: (False, ("ok", "res_e_lam", "res_lam_lam",
                                    "max_residual", "jacobiator_values",
                                    "witness")),
    jac.HomogeneousPoisson: (False, ("chart", "pi", "s_name", "source")),
    jac.JetPoint: (False, ("base", "p", "z")),
    jac.DerPoint: (False, ("base", "v", "t")),
    jac.Overlap: (False, ("src", "dst", "fwd", "inv", "g", "src_box",
                          "dst_box")),
    jac.LineBundleAtlas: (False, ("charts", "overlaps")),
    jac.AtlasReport: (False, ("ok", "chart_checks", "overlap_checks",
                              "chain_checks")),
    alg.AlgebroidStructure: (True, ("base", "generators", "anchor", "c")),
    alg.VBMorphism: (True, ("src", "dst", "base_map", "fiber")),
    alg.MorphismReport: (True, ("ok", "base_residuals", "gen_residuals",
                                "max_dev", "devs")),
    alg.RxAlgebroid: (True, ("alg", "gen_weights", "poisson")),
    alg.LiftedMorphism: (True, ("phi", "param")),
    alg.JacobiMorphismReport: (True, ("ok", "morphism", "anchor_ok",
                                      "anchor_residuals", "anchor_dev")),
    sg.SurfaceGrid: (True, ("nu", "nt", "t_extent")),
    sg.FieldConfiguration: (True, ("chart", "x", "s", "pi", "z",
                                   "require_boundary")),
    sg.DiscreteFieldConfiguration: (False, ("grid", "x", "s", "pi_u", "pi_t",
                                            "z_u", "z_t",
                                            "require_boundary")),
    sg.ELReport: (False, ("mode", "variant", "ok", "max_dev", "norms",
                          "residuals")),
    sg.APath: (True, ("x", "pi", "s", "z", "n")),
    sg.APathReport: (False, ("ok", "max_defect", "defects", "n")),
    sg.Ex1Groupoid: (True, ("k", "chart", "pair_chart", "l_chart", "c_chart",
                            "alpha", "beta", "mult", "omega0", "omega",
                            "theta_c")),
    sg.GroupoidReport: (False, ("ok", "k", "checks")),
    sg.ExamplePackage: (False, ("name", "kind", "structure", "fields",
                                "params")),
}


def _valid_args():
    """Arguments for every field of the classes that check their fields;
    any object does for the others."""
    x, y = ex.var("x"), ex.var("y")
    ch = geo.Chart(("x",), {"x": (0.1, 0.9)})
    chs = geo.Chart(("x", "s"), {"x": (0.1, 0.9), "s": (0.5, 2.0)}, {"s": 1})
    ident = geo.SmoothMap(ch, ch, {"x": x})
    algebra = alg.AlgebroidStructure(ch, ("a",), {}, {})
    return {
        ex.Num: (Fraction(1, 2),), ex.Var: ("x",), ex.Add: ((x, y),),
        ex.Mul: ((x, y),), ex.Pow: (x, 3), ex.Div: (x, y),
        ex.Fn: ("sin", x),
        geo.Chart: (("x", "s"), {"x": (0.1, 0.9)}, {"s": 1}),
        geo.SmoothMap: (ch, ch, {"x": ex.mul(2, x)}),
        jac.JacobiPair: (ch, geo.mvf(ch, 2, {}), geo.mvf(ch, 1, {})),
        jac.HomogeneousPoisson: (chs, geo.mvf(chs, 2, {}), "s", None),
        jac.JetPoint: ({"x": 1}, {"x": 2}, 3),
        jac.DerPoint: ({"x": 1}, {"x": 2}, 3),
        jac.Overlap: ("O", "U", ident, ident, 2, {"x": (0.1, 0.9)},
                      {"x": (0.1, 0.9)}),
        alg.RxAlgebroid: (algebra, {"a": 1}, None),
        sg.SurfaceGrid: (5, 7, 0.5),
    }


VALID = _valid_args()


def _args(cls):
    names = CONTRACT[cls][1]
    return VALID.get(cls, tuple(object() for _ in names))


@pytest.mark.parametrize("cls", CONTRACT, ids=lambda c: c.__name__)
def test_fields_in_order(cls):
    frozen, names = CONTRACT[cls]
    assert dataclasses.is_dataclass(cls)
    assert tuple(f.name for f in dataclasses.fields(cls)) == names
    assert cls.__match_args__ == names


@pytest.mark.parametrize("cls", CONTRACT, ids=lambda c: c.__name__)
def test_positional_keyword_and_replace(cls):
    names = CONTRACT[cls][1]
    args = _args(cls)
    a = cls(*args)
    b = cls(**dict(zip(names, args)))
    c = cls(*args[:1], **dict(zip(names[1:], args[1:])))
    assert a == b == c and repr(a) == repr(b) == repr(c)
    assert list(vars(a))[:len(names)] == list(names)
    assert dataclasses.replace(a) == a
    if names:
        again = dataclasses.replace(a, **{names[-1]: getattr(a, names[-1])})
        assert again == a and again is not a
    with pytest.raises(TypeError):
        cls(*args, object())
    with pytest.raises(TypeError):
        cls(*args, no_such_field=1)
    if names:
        with pytest.raises(TypeError):
            cls(*args, **{names[0]: args[0]})


@pytest.mark.parametrize("cls", CONTRACT, ids=lambda c: c.__name__)
def test_defaults_and_fresh_factory_values(cls):
    fields = dataclasses.fields(cls)
    required = [f for f in fields if f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING]
    args = _args(cls)[:len(required)]
    if args:
        with pytest.raises(TypeError):
            cls(*args[:-1])
    a, b = cls(*args), cls(*args)
    for f in fields[len(required):]:
        if f.default_factory is not dataclasses.MISSING:
            assert getattr(a, f.name) == f.default_factory()
            assert getattr(a, f.name) is not getattr(b, f.name)
    full = [getattr(a, f.name) for f in fields]
    assert cls(*full) == a


def test_the_defaults_are_those_of_the_dataclasses():
    got = {(c.__name__, f.name): f.default for c in CONTRACT
           for f in dataclasses.fields(c) if f.default is not dataclasses.MISSING}
    assert got == {
        ("HomogeneousPoisson", "source"): None, ("JetPoint", "z"): 0,
        ("DerPoint", "t"): 0, ("RxAlgebroid", "poisson"): None,
        ("LiftedMorphism", "param"): "nu", ("SurfaceGrid", "nu"): 65,
        ("SurfaceGrid", "nt"): 65, ("SurfaceGrid", "t_extent"): 1.0,
        ("FieldConfiguration", "require_boundary"): False,
        ("DiscreteFieldConfiguration", "require_boundary"): False,
        ("APath", "s"): 1, ("APath", "z"): 0, ("APath", "n"): 257}
    factories = {(c.__name__, f.name) for c in CONTRACT
                 for f in dataclasses.fields(c)
                 if f.default_factory is not dataclasses.MISSING}
    assert factories == {("Chart", "box"), ("Chart", "weights"),
                         ("LineBundleAtlas", "overlaps"), ("APath", "pi")}


@pytest.mark.parametrize("cls", CONTRACT, ids=lambda c: c.__name__)
def test_frozen_classes_refuse_assignment_and_plain_ones_do_not_hash(cls):
    frozen, names = CONTRACT[cls]
    a = cls(*_args(cls))
    if frozen:
        assert cls.__hash__ is not None     # hashes when its fields do
        for name in names + ("not_a_field",):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(a, name, 1)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(a, name)
    else:
        assert cls.__hash__ is None
        with pytest.raises(TypeError):
            hash(a)
        if names:
            setattr(a, names[0], getattr(a, names[0]))


def test_a_method_of_the_class_body_is_kept():
    @record(frozen=True)
    class Point:
        x: int
        y: int = 2

        def __repr__(self):
            return "P"

        def __hash__(self):
            return 7

    p = Point(1)
    assert (repr(p), hash(p), p.y) == ("P", 7, 2)
    assert p == Point(x=1, y=2) and p != Point(1, 3)
    assert p.__eq__(object()) is NotImplemented

    @record
    class Hashed:
        x: int

        def __hash__(self):
            return 5

    assert hash(Hashed(1)) == 5 and Hashed(1) == Hashed(1)


# ---------------------------------------------------------- the node twins

def _twins():
    """A stdlib @dataclass(frozen=True) class per node class, with the same
    name and fields."""
    out = {}
    for cls in (ex.Num, ex.Pi, ex.Var, ex.Add, ex.Mul, ex.Pow, ex.Div, ex.Fn):
        ns = {"__annotations__": {f.name: f.type
                                  for f in dataclasses.fields(cls)},
              "__qualname__": cls.__qualname__}
        out[cls] = dataclasses.dataclass(frozen=True)(
            type(cls.__name__, (), ns))
    return out


TWINS = _twins()
BACK = {v: k for k, v in TWINS.items()}


def twin(e):
    """e rebuilt from the twin classes, children first."""
    if isinstance(e, tuple):
        return tuple(twin(t) for t in e)
    if isinstance(e, ex.Expression):
        return TWINS[type(e)](*(twin(getattr(e, f.name))
                                for f in dataclasses.fields(e)))
    return e


def twin_back(t):
    """The node tree of a twin tree, built by the node constructors."""
    if isinstance(t, tuple):
        return tuple(twin_back(u) for u in t)
    if type(t) in BACK:
        return BACK[type(t)](*(twin_back(getattr(t, f.name))
                               for f in dataclasses.fields(t)))
    return t


def trees():
    leaves = st.one_of(
        st.sampled_from(("x", "y")).map(ex.Var),
        st.fractions(max_denominator=7).map(ex.Num), st.just(ex.Pi()))

    def grow(child):
        pair = st.tuples(child, child)
        return st.one_of(
            pair.map(ex.Add), pair.map(ex.Mul),
            st.tuples(child, st.integers(-3, 3)).map(lambda t: ex.Pow(*t)),
            pair.map(lambda t: ex.Div(*t)),
            st.tuples(st.sampled_from(ex._FN_NAMES), child).map(
                lambda t: ex.Fn(*t)))
    return st.recursive(leaves, grow, max_leaves=8)


@settings(max_examples=200, deadline=None)
@given(trees(), trees())
def test_nodes_repr_compare_and_hash_like_their_dataclass_twins(a, b):
    ta, tb = twin(a), twin(b)
    assert repr(a) == repr(ta) and repr(b) == repr(tb)
    assert hash(a) == hash(ta) and hash(b) == hash(tb)
    assert (a == b) == (ta == tb) and (a != b) == (ta != tb)
    copy = twin_back(ta)
    assert copy == a and hash(copy) == hash(a) and copy is not a


def test_node_equality_across_classes_and_with_other_objects():
    x = ex.Var("x")
    assert x.__eq__(ex.Num(Fraction(1))) is NotImplemented
    assert x.__eq__("x") is NotImplemented and x != "x"
    assert ex.Pi() == ex.Pi() and hash(ex.Pi()) == hash(TWINS[ex.Pi]())
    assert ex.Num(Fraction(2, 4)) == ex.Num(Fraction(1, 2))
    # the memo keys of a node live outside its fields
    e = ex.add(ex.mul(x, x), x)
    ex.differentiate(e, "x")
    assert "_d" in vars(e) and repr(e) == repr(twin(e))


# ------------------------------------------------- the collector at exit

def test_main_in_process_does_not_freeze_the_collector(capsys):
    before = gc.get_freeze_count()
    assert cli.main(["check", str(ROOT / "structures/contact-k1.ini")]) == 0
    assert cli.main(["example", "contact-k"]) == 0
    assert gc.get_freeze_count() == before
    capsys.readouterr()


def test_the_entry_point_freezes_after_main_and_exits_with_its_code():
    calls = []
    with mock.patch.object(cli, "main", lambda: calls.append("main") or 1), \
            mock.patch.object(gc, "freeze", lambda: calls.append("freeze")), \
            mock.patch.object(sys, "argv", ["jsm"]):
        with pytest.raises(SystemExit) as stop:
            cli.cli()
    assert stop.value.code == 1 and calls == ["main", "freeze"]
