"""End-to-end tests of the command line interface, run in-process."""

import contextlib
import ctypes
import io
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from jacobisigma import algebroid as alg
from jacobisigma import expr as ex
from jacobisigma import cli
from jacobisigma import sigma as sg
from jacobisigma.cli import main, parse_structure, _algebroid_dev

ROOT = Path(__file__).resolve().parents[1]
KW = dict(tol=1e-9, trials=64, seed=0x1AC0B1)


def fixture(rel):
    return str(ROOT / rel)


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# ------------------------------------------------------------------ check


def test_check_contact_passes():
    code, out, err = run("check", fixture("structures/contact-k1.ini"))
    assert code == 0, out + err
    assert "PASS" in out
    assert "jacobi" in out


def test_check_almost_poisson_fails_with_witness():
    code, out, err = run("check", fixture("structures/almost-poisson.ini"))
    assert code == 1, out + err
    assert "FAIL" in out
    lines = [l for l in out.splitlines() if "witness" in l]
    assert lines, out


def test_check_atlas_passes():
    code, out, err = run("check", fixture("structures/moebius-atlas.ini"))
    assert code == 0, out + err


def test_check_handwritten_table_is_not_lie():
    code, out, err = run("check", fixture("structures/a10-algebroid.ini"))
    assert code == 1, out + err
    assert any("lie" in l for l in out.splitlines())


@pytest.mark.parametrize("structure, tol", [
    ("structures/contact-k1.ini", "0"), ("structures/moebius.ini", "0"),
    ("structures/moebius.ini", "1e-300")])
def test_tolerance_below_round_off_exits_2_with_one_line(structure, tol):
    """Below round-off the structural and the sampled route of jacobi_check
    disagree: one error line naming the check and the --tol, exit 2."""
    code, out, err = run("check", fixture(structure), "--tol", tol)
    assert code == 2, out + err
    assert err.startswith("error: jacobi_check: ") and not out
    assert f"--tol {float(tol):g}" in err and len(err.splitlines()) == 1
    # the default --tol is unaffected
    code, out, err = run("check", fixture(structure))
    assert code == 0 and not err, out + err
    assert "jacobi.ok = True" in out


def test_check_bad_inputs_exit_2(tmp_path):
    code, out, err = run("check", str(tmp_path / "nope.ini"))
    assert code == 2
    assert err.strip()
    empty = tmp_path / "empty.ini"
    empty.write_text("")
    code, out, err = run("check", str(empty))
    assert code == 2
    assert err.strip()


def _contact_field(field_line="", x0=None):
    """The shipped contact field file, with one more [field] line and
    another x0 map."""
    text = (ROOT / "fields/contact-k1-solution.ini").read_text()
    text = text.replace("[field]\n", f"[field]\n{field_line}\n")
    return text if x0 is None else text.replace("x0 = sin(u)*cos(t)",
                                                f"x0 = {x0}")


# the sixth sample point of overlap 1 of the shipped Moebius atlas; that
# overlap is the identity, so the point is also its image
POLE = ex.halton_point({"x": (0.55, 0.95)}, 5, KW["seed"])["x"]


def _pole_in_transition_factor():
    """The shipped Moebius atlas with a transition factor of overlap 2 that
    has a pole at POLE.  Overlap 2's own box is widened, so its own sample
    points miss the pole and only the chain check O->U->O, which evaluates
    the factor at the images of overlap 1's points, reaches it."""
    text = (ROOT / "structures/moebius-atlas.ini").read_text()
    old = ("[overlap:2]\nsrc = U\ndst = O\ng = 1\nfwd.x = x\ninv.x = x\n"
           "src_box.x = 0.55, 0.95\n")
    assert old in text
    return text.replace(old, f"[overlap:2]\nsrc = U\ndst = O\n"
                             f"g = 1/(x - {POLE!r})\nfwd.x = x\ninv.x = x\n"
                             f"src_box.x = 0.5, 0.95\n")


FAMILY1 = (ROOT / "fields/family1.ini").read_text()
BAD_INPUTS = {
    "gen_weights": ("check", "[structure]\nkind = algebroid\n\n[chart]\n"
                    "names = x\n\n[generators]\nnames = a\n\n"
                    "[gen_weights]\na = one\n"),
    "t_extent": ("verify", "[field]\nt_extent = abc\n"),
    "duplicate_chart": ("check", "[structure]\nkind = jacobi\n\n[chart]\n"
                        "names = x, x\n"),
    "poissonize_s_taken": ("derive", "[structure]\nkind = jacobi\n\n"
                           "[chart]\nnames = x, s\n"),
    "scale_interval_has_0": ("check", "[structure]\nkind = poisson\n"
                             "s_name = s\n\n[chart]\nnames = x, s\n\n"
                             "[box]\ns = -1, 1\n"),
    # sampling settings under which no check could fail; an entry's third
    # and later items are flags, and an example entry names the example
    "trials_0": ("check", (ROOT / "structures/moebius-atlas.ini").read_text(),
                 "--trials", "0"),
    "trials_0_example": ("example", "contact-k", "--trials", "0"),
    "trials_negative": ("example", "moebius", "--trials", "-5"),
    "tol_nan": ("check", (ROOT / "structures/contact-k1.ini").read_text(),
                "--tol", "nan"),
    "tol_inf": ("example", "contact-k", "--tol", "inf"),
    "tol_negative": ("example", "contact-k", "--tol=-0.5"),
    # a degenerate or reversed surface, and a field singular on a grid node
    # (the grid includes u = 0), on the grid verify and the grid action
    "t_extent_0": ("verify", _contact_field("t_extent = 0"), "--grid", "9x9"),
    "t_extent_negative": ("verify", _contact_field("t_extent = -1")),
    "t_extent_nan": ("verify", _contact_field("t_extent = nan")),
    "t_extent_inf": ("verify", _contact_field("t_extent = inf")),
    "singular_on_grid": ("verify", _contact_field(x0="log(u)/1000"),
                         "--grid", "33x33"),
    "singular_in_grid_action": ("verify", _contact_field(x0="log(u)/1000"),
                                "--variant", "constrained"),
    # a guard that trips at a sample point of a symbolic check, in a field
    # (log of u - 1/2 < 0) and in a structure (log of x < 0)
    "singular_at_sample_point": ("verify", _contact_field().replace(
        "x2 = 0", "x2 = log(u - 1/2)")),
    "singular_in_structure": ("check", (ROOT / "structures/almost-poisson.ini")
                              .read_text().replace("x, z = x", "x, z = log(x)")),
    "constant_singular_in_structure": (
        "check", (ROOT / "structures/almost-poisson.ini").read_text()
        .replace("x, z = x", "x, z = log(0 - 1)")),
    # a scale field that is exactly 0 on the grid nodes u = 1/2
    "scale_zero_on_grid": ("verify", _contact_field().replace(
        "value = exp(u/4 + t/2)", "value = u - 1/2").replace(
        "x0, u = -exp(u/4 + t/2)/4", "x0, u = -1").replace(
        "x0, t = -exp(u/4 + t/2)/2", "x0, t = 0"), "--grid", "33x33"),
    # a scale field of one sign that is 0 on those nodes only: the
    # symbolic check passes it, the grid check must not
    "scale_zero_on_grid_one_signed": ("verify", _contact_field().replace(
        "value = exp(u/4 + t/2)", "value = (u - 1/2)^2").replace(
        "x0, u = -exp(u/4 + t/2)/4", "x0, u = 1 - 2*u").replace(
        "x0, t = -exp(u/4 + t/2)/2", "x0, t = 0"), "--grid", "33x33"),
    # the same field without a grid: 0 at no sample point, but it takes
    # both signs on the surface
    "scale_changes_sign": ("verify", _contact_field().replace(
        "value = exp(u/4 + t/2)", "value = u - 1/2").replace(
        "x0, u = -exp(u/4 + t/2)/4", "x0, u = -1").replace(
        "x0, t = -exp(u/4 + t/2)/2", "x0, t = 0")),
    # a transition factor with a pole where a chain check evaluates it
    "pole_in_transition_factor": ("check", _pole_in_transition_factor()),
    # an overlap whose forward map lacks a target coordinate
    "overlap_missing_fwd": ("check", (ROOT / "structures/moebius-atlas.ini")
                            .read_text().replace("fwd.x = x\n", "", 1)),
    # a chart coordinate named after the constant pi
    "coordinate_named_pi": ("check", "[structure]\nkind = jacobi\n\n"
                            "[chart]\nnames = x, y, pi\n\n"
                            "[pi]\nx, y = 1\nx, pi = x\n"),
    # names of a morphism into the a10 algebroid that it does not have: a
    # map to an extra coordinate, a form of an extra generator, and a
    # misspelt generator
    "morphism_unknown_map": ("verify-algebroid", FAMILY1.replace(
        "[maps]\n", "[maps]\nw = u\n")),
    "morphism_unknown_fiber": ("verify-algebroid", FAMILY1.replace(
        "[fiber]\n", "[fiber]\ndw, u = 1\n")),
    "morphism_misspelt_fiber": ("verify-algebroid",
                                FAMILY1.replace("dz, ", "dq, ")),
    # a field that maps to, or gives a momentum of, a coordinate the
    # contact structure lacks
    "field_unknown_map": ("verify", _contact_field().replace(
        "[maps]\n", "[maps]\nw = u\n")),
    "field_unknown_pi": ("verify", _contact_field().replace(
        "[pi]\n", "[pi]\nw, u = 1\n")),
}


def test_constrained_action_covers_the_fields_surface(tmp_path):
    """Without --grid the action's default 65x65 grid spans the field's own
    t range, as a --grid 65x65 one does."""
    field = tmp_path / "t2.ini"
    field.write_text(_contact_field("t_extent = 2", x0="u*t"))
    values = []
    for flags in ([], ["--grid", "65x65"]):
        rep = tmp_path / "rep.json"
        code, out, err = run("verify", fixture("structures/contact-k1.ini"),
                             str(field), "--variant", "constrained", *flags,
                             "--json", str(rep))
        assert code == 0, out + err
        values.append(json.loads(rep.read_text())["checks"]["action"]["value"])
    assert values[0] == values[1]


def _bad_argv(tmp_path, case):
    cmd, text, *flags = BAD_INPUTS[case]
    if cmd == "example":
        return [cmd, text, *flags]
    bad = tmp_path / "bad.ini"
    bad.write_text(text)
    if cmd == "verify":
        return [cmd, fixture("structures/contact-k1.ini"), str(bad), *flags]
    if cmd == "verify-algebroid":
        return ["verify", fixture("structures/a10-algebroid.ini"), str(bad),
                *flags]
    if cmd == "derive":
        return [cmd, str(bad), "--what", "poissonize",
                "-o", str(tmp_path / "out.ini"), *flags]
    return [cmd, str(bad), *flags]


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_values_exit_2_with_one_line(tmp_path, case):
    code, out, err = run(*_bad_argv(tmp_path, case))
    assert code == 2, out + err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


def test_chain_check_guard_names_the_image_point(tmp_path):
    code, out, err = run(*_bad_argv(tmp_path, "pole_in_transition_factor"))
    assert code == 2, out + err
    assert err == ("error: an input cannot be evaluated: near-zero "
                   f"denominator at the sample point x = {POLE!r}\n")


def test_chain_check_guard_without_numpy_names_the_same_point(tmp_path):
    """A process that cannot import numpy walks the chain checks' points
    and raises the error of the array pass."""
    code = ("import sys\nsys.modules['numpy'] = None\n"
            "from jacobisigma.cli import main\nsys.exit(main(sys.argv[1:]))")
    out = subprocess.run([sys.executable, "-c", code,
                          *_bad_argv(tmp_path, "pole_in_transition_factor")],
                         cwd=ROOT, capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert out.returncode == 2, out.stdout + out.stderr
    assert out.stderr == ("error: an input cannot be evaluated: near-zero "
                          f"denominator at the sample point x = {POLE!r}\n")


def test_duplicate_chart_rejected_under_python_O(tmp_path):
    out = subprocess.run([sys.executable, "-O", "-m", "jacobisigma.cli",
                          *_bad_argv(tmp_path, "duplicate_chart")],
                         cwd=ROOT, capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert out.returncode == 2, out.stdout + out.stderr
    assert out.stderr.startswith("error: ") and "duplicate" in out.stderr


@pytest.mark.parametrize("case, message", [
    ("poissonize_s_taken", "already a chart coordinate"),
    ("scale_interval_has_0", "must exclude 0"),
    ("singular_at_sample_point", "at the sample point t ="),
    ("singular_in_structure", "at the sample point x ="),
    ("scale_zero_on_grid", "scale field drops below"),
    ("scale_changes_sign", "changes sign"),
    ("coordinate_named_pi", "reserved name"),
    ("overlap_missing_fwd", "[overlap:1] need every target coordinate"),
    ("morphism_unknown_map", "[maps] names unknown target coordinates ['w']"),
    ("morphism_unknown_fiber", "[fiber] names unknown generators ['dw']"),
    ("morphism_misspelt_fiber", "[fiber] names unknown generators ['dq']"),
    ("field_unknown_map", "[maps] names unknown target coordinates ['w']"),
    ("field_unknown_pi", "[pi] names unknown target coordinates ['w']")])
def test_homogeneous_poisson_input_rejected_under_python_O(tmp_path, case,
                                                            message):
    out = subprocess.run([sys.executable, "-O", "-m", "jacobisigma.cli",
                          *_bad_argv(tmp_path, case)],
                         cwd=ROOT, capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert out.returncode == 2, out.stdout + out.stderr
    assert out.stderr.startswith("error: ") and message in out.stderr


# ----------------------------------------------------------------- derive


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_algebroid_of_an_odd_chart_exits_2(tmp_path, flags):
    """almost-poisson's three coordinates have no fiber half: exit 2 with
    one line and no file written, also under python -O."""
    out = subprocess.run([sys.executable, *flags, "-m", "jacobisigma.cli",
                          "derive", fixture("structures/almost-poisson.ini"),
                          "--what", "algebroid", "-o", str(tmp_path / "a.ini")],
                         cwd=ROOT, capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert out.returncode == 2, out.stdout + out.stderr
    assert out.stderr == (f"error: {fixture('structures/almost-poisson.ini')}: "
                          "not a fiberwise-linear bivector (cannot infer the "
                          "fiber split)\n")
    assert not (tmp_path / "a.ini").exists()


def test_derive_chain_and_round_trips(tmp_path):
    cp = str(tmp_path / "contact-poisson.ini")
    rep = str(tmp_path / "derive.json")
    code, out, err = run("derive", fixture("structures/contact-k1.ini"),
                         "--what", "poissonize", "-o", cp, "--json", rep)
    assert code == 0, out + err
    data = json.loads(Path(rep).read_text())
    assert data["ok"] is True
    assert data["checks"]["round_trip"]["ok"] is True
    assert data["checks"]["poisson_bracket"]["ok"] is True
    assert data["checks"]["homogeneity_degree_-1"]["ok"] is True

    # the emitted file parses and passes its own check
    code, out, err = run("check", cp)
    assert code == 0, out + err

    cl = str(tmp_path / "contact-lift.ini")
    code, out, err = run("derive", cp, "--what", "lift", "-o", cl)
    assert code == 0, out + err

    apl = str(tmp_path / "ap-lift.ini")
    code, out, err = run("derive", fixture("structures/almost-poisson.ini"),
                         "--what", "lift", "-o", apl)
    assert code == 0, out + err

    a10 = str(tmp_path / "a10-derived.ini")
    rep2 = str(tmp_path / "alg.json")
    code, out, err = run("derive", apl, "--what", "algebroid", "-o", a10,
                         "--json", rep2)
    assert code == 0, out + err
    data2 = json.loads(Path(rep2).read_text())
    assert data2["checks"]["round_trip"]["ok"] is True
    # the extracted table is informational here: it is not a Lie algebroid
    assert data2["checks"]["lie"]["is_lie"] is False

    # derived table agrees with the handwritten fixture up to generator names
    _, A1 = parse_structure(a10)
    _, A2 = parse_structure(fixture("structures/a10-algebroid.ini"))
    ren = dict(zip(A1.generators, A2.generators))
    A1r = alg.AlgebroidStructure.build(
        A1.base, A2.generators,
        {ren[g]: row for g, row in A1.anchor.items()},
        {(ren[a], ren[b]): {ren[k]: v for k, v in row.items()}
         for (a, b), row in A1.c.items()})
    assert _algebroid_dev(A1r, A2, KW) <= 1e-12


def test_derive_rejects_wrong_kind():
    code, out, err = run("derive", fixture("structures/almost-poisson.ini"),
                         "--what", "poissonize")
    assert code == 2
    assert err.strip()
    code, out, err = run("derive", fixture("structures/contact-k1.ini"),
                         "--what", "algebroid")
    assert code == 2


# ----------------------------------------------------------------- verify


def test_verify_reduced_null_solution():
    code, out, err = run("verify", fixture("structures/moebius.ini"),
                         fixture("fields/moebius-null.ini"))
    assert code == 0, out + err
    assert "d0phi_constraint" in out


def test_verify_contact_solution():
    code, out, err = run("verify", fixture("structures/contact-k1.ini"),
                         fixture("fields/contact-k1-solution.ini"))
    assert code == 0, out + err


def test_verify_with_grid_adds_discrete_norms():
    code, out, err = run("verify", fixture("structures/contact-k1.ini"),
                         fixture("fields/contact-k1-solution.ini"),
                         "--grid", "33x33")
    assert code == 0, out + err
    assert "el_residual_grid" in out


@pytest.mark.parametrize("variant", ["homogeneous", "constrained"])
def test_a_grid_too_large_for_memory_is_one_error_line(monkeypatch, variant):
    """A grid whose node arrays cannot be allocated ends in one line that
    names the grid and exit code 2, not a traceback and exit 1 (a failed
    check).  The allocation is made to fail; no large grid is built."""
    def out_of_memory(e, grid):
        raise MemoryError(f"Unable to allocate an array for {grid}")
    monkeypatch.setattr(sg, "_grid_rows", out_of_memory)
    monkeypatch.setattr(sg, "_grid_eval", out_of_memory)
    code, out, err = run("verify", fixture("structures/contact-k1.ini"),
                         fixture("fields/contact-k1-solution.ini"),
                         "--variant", variant, "--grid", "300x200")
    assert code == 2, out + err
    assert err == "error: the 300x200 grid does not fit in memory\n"


@pytest.mark.parametrize("variant", ["homogeneous", "constrained"])
def test_a_grid_over_the_node_limit_is_refused_at_once(variant):
    """A mistyped --grid is refused before anything is allocated, with one
    line and exit 2.  The child runs under a timeout, so a grid that is
    worked through makes this test fail, not hang."""
    out = subprocess.run([sys.executable, "-m", "jacobisigma.cli", "verify",
                          fixture("structures/contact-k1.ini"),
                          fixture("fields/contact-k1-solution.ini"),
                          "--variant", variant, "--grid", "100000x100000"],
                         cwd=ROOT, capture_output=True, text=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert out.returncode == 2, out.stdout + out.stderr
    assert out.stderr == ("error: grid 100000x100000 has 10000000000 nodes, "
                          f"more than the limit of {cli.MAX_GRID_NODES}\n")


def test_the_grid_limit_admits_every_shipped_grid():
    assert cli.MAX_GRID_NODES >= 2048 * 2048
    assert cli._parse_grid("2048x2048").nu == 2048
    with pytest.raises(cli.InputError, match="more than the limit"):
        cli._parse_grid("2048x2049")
    with pytest.raises(cli.InputError, match="more than the limit"):
        cli._parse_grid("3x" + "9" * 100)


def test_verify_morphism_against_algebroid():
    code, out, err = run("verify", fixture("structures/a10-algebroid.ini"),
                         fixture("fields/family1.ini"))
    assert code == 0, out + err


def test_verify_rejections():
    code, out, err = run("verify", fixture("structures/moebius-atlas.ini"),
                         fixture("fields/moebius-null.ini"))
    assert code == 2
    code, out, err = run("verify", fixture("structures/contact-k1.ini"),
                         fixture("fields/contact-k1-solution.ini"),
                         "--grid", "bogus")
    assert code == 2


def test_verify_wrong_variant_fails():
    code, out, err = run("verify", fixture("structures/contact-k1.ini"),
                         fixture("fields/contact-k1-solution.ini"),
                         "--variant", "reduced")
    assert code == 1, out + err


# ---------------------------------------------------------------- example


@pytest.mark.parametrize("name", ["contact-k", "moebius",
                                  "almost-poisson-family1",
                                  "almost-poisson-family2", "ex1-groupoid"])
def test_examples_pass(name):
    code, out, err = run("example", name)
    assert code == 0, out + err
    assert "PASS" in out


def test_example_holonomy_demo():
    code, out, err = run("example", "contact-k")
    assert code == 0
    assert any("holonomy" in l for l in out.splitlines())


def test_example_unknown_name():
    code, out, err = run("example", "wat")
    assert code == 2
    assert err.strip()


# ------------------------------------------------------------ reports


def test_json_reports_are_deterministic(tmp_path):
    j1, j2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert run("example", "contact-k", "--json", j1, "--seed", "7")[0] == 0
    assert run("example", "contact-k", "--json", j2, "--seed", "7")[0] == 0
    b1 = Path(j1).read_bytes()
    b2 = Path(j2).read_bytes()
    assert b1 == b2
    rep = json.loads(b1)
    assert rep["ok"] is True
    assert rep["settings"]["seed"] == 7
    # timing lives in the rendered text only, never in the report
    assert "seconds" not in json.dumps(rep)


def test_json_written_even_on_failure(tmp_path):
    j = str(tmp_path / "fail.json")
    code, out, err = run("check", fixture("structures/almost-poisson.ini"),
                         "--json", j)
    assert code == 1
    rep = json.loads(Path(j).read_text())
    assert rep["ok"] is False
    assert rep["command"] == "check"


def test_text_report_carries_settings_line():
    code, out, err = run("check", fixture("structures/contact-k1.ini"),
                         "--seed", "11", "--trials", "32")
    assert code == 0
    tail = out.strip().splitlines()[-1]
    assert "seed=11" in tail and "trials=32" in tail and " s)" in tail


def test_cli_import_leaves_scipy_out():
    code = ("import sys, jacobisigma.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("argv, loads_numpy", [
    (["check", "structures/contact-k1.ini"], False),
    (["derive", "structures/almost-poisson.ini", "--what", "lift"], False),
    (["verify", "structures/a10-algebroid.ini", "fields/family1.ini"], False),
    # sin and cos are libm's, the atlas chain checks run on floats
    (["check", "structures/moebius.ini"], False),
    (["check", "structures/moebius-atlas.ini"], False),
    (["verify", "structures/moebius.ini", "fields/moebius-null.ini",
      "--variant", "reduced"], False),
    (["example", "moebius"], False),
    (["example", "almost-poisson-family1"], False),
    (["example", "almost-poisson-family2"], False),
    (["example", "ex1-groupoid"], False),
    (["example", "contact-k"], True),                  # exp: numpy's
    # sample sets of any size stay on floats
    (["check", "structures/contact-k1.ini", "--trials", "4096"], False),
    (["check", "structures/moebius-atlas.ini", "--trials", "600"], False)])
def test_a_command_on_rational_trees_leaves_numpy_out(tmp_path, argv,
                                                      loads_numpy):
    """The allocator is set, through ctypes, where the grid module sigma is
    imported; check, derive and the algebroid verify load neither."""
    if argv[0] == "derive":
        argv = argv + ["-o", str(tmp_path / "out.ini")]
    code = ("import contextlib, io, sys, jacobisigma.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = cli.main(sys.argv[1:])\n"
            "print(rc, 'numpy' in sys.modules,\n"
            "      ('ctypes' in sys.modules)\n"
            "      == ('jacobisigma.sigma' in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code, *argv], cwd=ROOT,
                         check=True, capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert out.stdout.split() == ["0", str(loads_numpy), "True"], out.stderr


def _python(code, **env):
    """Run code in a fresh interpreter that imports ./src and has no
    OPENBLAS_NUM_THREADS or glibc allocator thresholds unless given them;
    its stdout."""
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "MALLOC_MMAP_THRESHOLD_",
                         "MALLOC_TRIM_THRESHOLD_")}
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                         env=dict(base, PYTHONPATH=str(ROOT / "src"), **env),
                         capture_output=True, text=True)
    return out.stdout.strip()


def test_cli_import_pins_openblas_to_one_thread():
    code = ("import os, jacobisigma.cli; "
            "n = (len(os.listdir('/proc/self/task')) "
            "if os.path.isdir('/proc/self/task') else None); "
            "print(os.environ['OPENBLAS_NUM_THREADS'], n)")
    value, threads = _python(code).split()
    assert value == "1"
    if threads != "None":
        assert threads == "1"


def test_cli_import_keeps_the_callers_openblas_setting():
    code = "import os, jacobisigma.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _python(code, OPENBLAS_NUM_THREADS="3") == "3"


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator settings are glibc's")
def test_sigma_import_keeps_freed_grid_memory_in_the_process():
    """With only jacobisigma.sigma imported (or jacobisigma.cli), a second
    el_residual on a 513x513 grid reuses the memory the first one freed:
    under a quarter of the minor page faults it makes under glibc's static
    allocator thresholds, which a caller's MALLOC_* settings keep."""
    code = ("import resource, {module}\n"
            "from jacobisigma import sigma as sg\n"
            "J = sg.contact_pair(1)\n"
            "D = sg.sample_config(sg.contact_solution(1), "
            "sg.SurfaceGrid(513, 513))\n"
            "sg.el_residual(J, D)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "sg.el_residual(J, D)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt"
            " - before)\n")
    faults = {m: int(_python(code.format(module=m), OPENBLAS_NUM_THREADS="1"))
              for m in ("jacobisigma.sigma", "jacobisigma.cli")}
    # thresholds the caller sets win (here glibc's static defaults)
    callers = int(_python(code.format(module="jacobisigma.sigma"),
                          OPENBLAS_NUM_THREADS="1",
                          MALLOC_MMAP_THRESHOLD_="131072",
                          MALLOC_TRIM_THRESHOLD_="131072"))
    for m, n in faults.items():
        assert 4 * n < callers, (m, faults, callers)


@pytest.mark.parametrize("libc", [OSError, object])
def test_allocator_setting_is_a_no_op_without_mallopt(monkeypatch, libc):
    """No libc.so.6 (OSError), or one without mallopt (AttributeError)."""
    opened = []

    def cdll(name):
        opened.append(name)
        if libc is OSError:
            raise OSError(f"{name}: cannot open shared object file")
        return libc()
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert sg._keep_freed_memory() is None
    assert opened == ["libc.so.6"]


def test_library_import_leaves_openblas_setting_alone():
    code = ("import os, jacobisigma.sigma; "
            "print(os.environ.get('OPENBLAS_NUM_THREADS'))")
    assert _python(code) == "None"
