"""End-to-end tests of the command line interface, run in-process."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from jacobisigma import algebroid as alg
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
    if cmd == "derive":
        return [cmd, str(bad), "--what", "poissonize",
                "-o", str(tmp_path / "out.ini"), *flags]
    return [cmd, str(bad), *flags]


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_values_exit_2_with_one_line(tmp_path, case):
    code, out, err = run(*_bad_argv(tmp_path, case))
    assert code == 2, out + err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


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
    ("scale_zero_on_grid", "scale field drops below")])
def test_homogeneous_poisson_input_rejected_under_python_O(tmp_path, case,
                                                            message):
    out = subprocess.run([sys.executable, "-O", "-m", "jacobisigma.cli",
                          *_bad_argv(tmp_path, case)],
                         cwd=ROOT, capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert out.returncode == 2, out.stdout + out.stderr
    assert out.stderr.startswith("error: ") and message in out.stderr


# ----------------------------------------------------------------- derive


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


def _python(code, **env):
    """Run code in a fresh interpreter that imports ./src and has no
    OPENBLAS_NUM_THREADS unless given one; its stdout."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
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


def test_library_import_leaves_openblas_setting_alone():
    code = ("import os, jacobisigma.sigma; "
            "print(os.environ.get('OPENBLAS_NUM_THREADS'))")
    assert _python(code) == "None"
