"""Seeded input generator of the benchmark.

`generate(workload, seed, outdir)` writes `ops.jsonl` (one op per line) and,
for `cli_cold`, the structure and field files those ops read.  The output is
a pure function of (workload, seed): the same seed gives byte-identical
files.  The program under test never computes an expected answer: each op
kind has one in `known.KNOWN`, which says how the answer is known, and ops
whose answer is a number (action values) carry it, computed here.
Polynomial algebra (pushforwards, action densities, exact trapezoid
sums) uses SymPy's sparse polynomial rings and exact rationals; the
benchmark's tests confirm the answers with SymPy on small instances.

Ops are grouped into passes: one pass is the workload's fixed mix, in a
fixed order, and every op in it has fresh seeded coefficients and a fresh
sampling seed, so no two ops in a run are identical.  The fixed order keeps
heap use and the cost of a partial pass the same from seed to seed.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from sympy import QQ
from sympy.polys.rings import ring

from known import expected

WORKLOADS = ("cli_cold", "verdict_symbolic", "verdict_sampled", "grid_fd")

# Passes in a run's op pool: 12-20 times what a 15-second run of the seed
# commit uses on a 2-core Xeon (2, 5, 24 and 25 passes), so that a much
# faster program still finds fresh ops.  A run that uses up its pool fails.
POOL_PASSES = {"cli_cold": 40, "verdict_symbolic": 100,
               "verdict_sampled": 400, "grid_fd": 300}

SMALL = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
         Fraction(3, 4), Fraction(1), Fraction(5, 4), Fraction(3, 2))


def _frac(rng, lo=SMALL, sign=True):
    v = rng.choice(lo)
    return -v if sign and rng.random() < 0.5 else v


def _qq(v):
    return QQ(v.numerator, v.denominator)


def _q(v) -> str:
    """Rational constant as text in the expression grammar."""
    v = Fraction(v)
    body = f"{abs(v.numerator)}" + (f"/{v.denominator}" if v.denominator != 1 else "")
    return f"(-{body})" if v < 0 else f"({body})"


# ------------------------------------------------------------ polynomials

@lru_cache(maxsize=None)
def _ring(names):
    R, *x = ring(",".join(names), QQ)
    return R, x


def terms_text(terms, names) -> str:
    """Sum of (exponent tuple, Fraction) terms as text in the jacobisigma
    grammar, highest monomial first."""
    parts = []
    for monom, c in sorted(terms, reverse=True):
        if c == 0:
            continue
        fac = [f"{names[i]}^{e}" if e > 1 else names[i]
               for i, e in enumerate(monom) if e]
        mag = abs(c)
        coef = "" if (mag == 1 and fac) else (
            f"{mag.numerator}" + (f"/{mag.denominator}" if mag.denominator != 1 else ""))
        parts.append(("-" if c < 0 else "+", "*".join(([coef] if coef else []) + fac)))
    if not parts:
        return "0"
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def poly_text(p, names) -> str:
    """A SymPy ring element as text in the jacobisigma grammar."""
    return terms_text([(m, Fraction(int(c.numerator), int(c.denominator)))
                       for m, c in p.terms()], names)


def contact_data(k):
    n = 2 * k + 1
    names = tuple(f"x{i}" for i in range(n))
    R, x = _ring(names)
    lam = {}
    for j in range(1, k + 1):
        lam[(j, k + j)] = R(1)
        lam[(0, k + j)] = x[k + j]
    return names, R, x, lam, {0: R(1)}


_LIE = {
    # name -> (dim, {(i, j): [(coeff, k)]}) meaning {x_i, x_j} = sum c x_k
    "so3": (3, {(0, 1): [(1, 2)], (1, 2): [(1, 0)], (0, 2): [(-1, 1)]}),
    "heis5": (5, {(1, 3): [(1, 0)], (2, 4): [(1, 0)]}),
    "se3": (6, {(0, 1): [(1, 2)], (1, 2): [(1, 0)], (0, 2): [(-1, 1)],
                (0, 4): [(1, 5)], (0, 5): [(-1, 4)], (1, 5): [(1, 3)],
                (1, 3): [(-1, 5)], (2, 3): [(1, 4)], (2, 4): [(-1, 3)]}),
}


def lie_poisson_data(name):
    dim, table = _LIE[name]
    names = tuple(f"x{i}" for i in range(dim))
    R, x = _ring(names)
    lam = {key: sum((c * x[kk] for c, kk in row), R(0))
           for key, row in table.items()}
    return names, R, x, lam, {}


def almost_poisson_data():
    names = ("x0", "x1", "x2")
    R, x = _ring(names)
    return names, R, x, {(0, 1): R(1), (0, 2): x[0]}, {}


def shears(rng, x, count=2):
    """Triangular shears x_a -> x_a + c_a x_0 x_b on the last `count`
    coordinates, with b = 1 when x_1 is not itself sheared (else b = 0).
    Only the coefficients are drawn, so an op's cost does not depend on the
    seed."""
    n = len(x)
    targets = list(range(n - 1, max(n - 1 - count, 0), -1))
    b = 1 if 1 not in targets else 0
    return [(a, _qq(_frac(rng)) * x[0] * x[b]) for a in targets]


def pushforward(R, x, lam, e, shears):
    """Push (lam, e) forward along x -> phi(x) = x + sum of shears.  The
    shear sources are never sheared, so the inverse is x_a = y_a - q_a(y)."""
    n = len(x)
    phi = list(x)
    for a, q in shears:
        phi[a] = phi[a] + q
    inv = [(x[a], x[a] - q) for a, q in shears]
    jac = [[phi[a].diff(x[b]) for b in range(n)] for a in range(n)]

    def back(p):
        return p.compose(inv) if inv else p

    new_e = {}
    for a in range(n):
        v = back(sum((jac[a][b] * w for b, w in e.items()), R(0)))
        if v:
            new_e[a] = v
    full = {}
    for (i, j), w in lam.items():
        full[(i, j)] = w
        full[(j, i)] = -w
    new_lam = {}
    for a in range(n):
        for b in range(a + 1, n):
            v = R(0)
            for (c, d), w in full.items():
                if jac[a][c] and jac[b][d]:
                    v += jac[a][c] * jac[b][d] * w
            v = back(v)
            if v:
                new_lam[(a, b)] = v
    return new_lam, new_e


def pair_payload(names, lam, e, scale=1):
    return {"names": list(names),
            "lam": [[names[i], names[j], poly_text(v, names)]
                    for (i, j), v in sorted(lam.items())],
            "e": [[names[i], poly_text(v * QQ(scale.numerator, scale.denominator)
                                       if scale != 1 else v, names)]
                  for i, v in sorted(e.items())]}


# ------------------------------------------------------- verdict_symbolic

# Each in-process mix has an odd number of kinds that return a verdict, so
# that the median and the tail percentile of a run of whole passes fall in
# the middle of one kind's samples rather than on the gap between two kinds.
SYMBOLIC_MIX = (
    ("jacobi_contact", 1), ("jacobi_contact", 2), ("jacobi_contact", 3),
    ("jacobi_contact", 4),
    ("jacobi_lie_poisson", "so3"), ("jacobi_lie_poisson", "heis5"),
    ("jacobi_lie_poisson", "se3"),
    ("jacobi_contact_scaled", 1), ("jacobi_contact_scaled", 2),
    ("jacobi_almost_poisson", None),
    ("poissonize_contact", 1), ("poissonize_contact", 2),
    ("poissonize_contact", 3),
    ("poissonize_contact_scaled", 2), ("poissonize_lie_poisson", "heis5"),
)


def symbolic_op(rng, kind, param):
    if kind.endswith("lie_poisson"):
        names, R, x, lam, e = lie_poisson_data(param)
    elif kind == "jacobi_almost_poisson":
        names, R, x, lam, e = almost_poisson_data()
    else:
        names, R, x, lam, e = contact_data(param)
    lam, e = pushforward(R, x, lam, e, shears(rng, x))
    scale = Fraction(1)
    if kind.endswith("scaled"):
        scale = rng.choice((Fraction(2), Fraction(1, 2), Fraction(3),
                            Fraction(-1), Fraction(3, 2)))
    op = {"kind": kind, "dim": len(names), **pair_payload(names, lam, e, scale)}
    if scale != 1:
        op["c"] = str(scale)
    return op


# -------------------------------------------------------- verdict_sampled

SAMPLED_MIX = (
    ("el_contact", None), ("el_contact_tampered", None),
    ("atlas_moebius", None), ("atlas_moebius_flat", None),
    ("cotangent", 1), ("cotangent", 2), ("cotangent", 3),
    ("morphism_family1", None), ("morphism_family1_tampered", None),
    ("morphism_family2", None), ("morphism_family2_tampered", None),
    ("groupoid", 0), ("groupoid", 1), ("groupoid", 2),
)


def contact_profiles(rng):
    """X0 = A sin(a u) cos(b t) + B u t and s = exp(p u + q t), with their
    exact differentials."""
    A, a, b, B = _frac(rng), _frac(rng, sign=False), _frac(rng, sign=False), _frac(rng)
    p, q = _frac(rng) / 2, _frac(rng) / 2
    X0 = f"{_q(A)}*sin({_q(a)}*u)*cos({_q(b)}*t) + {_q(B)}*u*t"
    dX0_u = f"{_q(A * a)}*cos({_q(a)}*u)*cos({_q(b)}*t) + {_q(B)}*t"
    dX0_t = f"{_q(-A * b)}*sin({_q(a)}*u)*sin({_q(b)}*t) + {_q(B)}*u"
    S = f"exp({_q(p)}*u + {_q(q)}*t)"
    return {"x0": X0, "s": S, "dx0": [dX0_u, dX0_t],
            "ds": [f"{_q(p)}*{S}", f"{_q(q)}*{S}"], "dlogs": [_q(p), _q(q)]}


def family1_payload(rng, tamper):
    """g(w) = a w^3 + b w^2, h(w) = c w + d, X = p u + q t + r."""
    a, b, c, d = _frac(rng), _frac(rng), _frac(rng), _frac(rng)
    p, q, r = _frac(rng), _frac(rng), _frac(rng)
    X = f"({_q(p)}*u + {_q(q)}*t + {_q(r)})"
    g = f"({_q(a)}*{X}^3 + {_q(b)}*{X}^2)"
    gp = f"({_q(3 * a)}*{X}^2 + {_q(2 * b)}*{X})"
    gpp = f"({_q(6 * a)}*{X} + {_q(2 * b)})"
    h = f"({_q(c)}*{X} + {_q(d)})"
    dX = [_q(p), _q(q)]
    fy = 2 if tamper else 1
    return {"maps": {"x": X, "y": gp, "z": f"{X}*{gp} - {g}"},
            "fiber": {"dx": [f"{gpp}*{v}" for v in dX],
                      "dy": [f"{_q(-fy)}*(1 + {X}*{h})*{v}" for v in dX],
                      "dz": [f"{h}*{v}" for v in dX]}}


def family2_payload(rng, tamper):
    """f(w) = a w^2 + b w, Y = p u + q t + r u t, target (1, Y, Y + c)."""
    a, b, c = _frac(rng), _frac(rng), _frac(rng)
    p, q, r = _frac(rng), _frac(rng), _frac(rng)
    Y = f"({_q(p)}*u + {_q(q)}*t + {_q(r)}*u*t)"
    dY = [f"({_q(p)} + {_q(r)}*t)", f"({_q(q)} + {_q(r)}*u)"]
    fp = f"({_q(2 * a)}*{Y} + {_q(b)})"
    fx = 2 if tamper else 1
    return {"maps": {"x": "1", "y": Y, "z": f"{Y} + {_q(c)}"},
            "fiber": {"dx": [f"{_q(fx)}*{v}" for v in dY],
                      "dy": [f"{fp}*{v}" for v in dY],
                      "dz": [f"-{fp}*{v}" for v in dY]}}


def sampled_op(rng, kind, param):
    op = {"kind": kind}
    if kind.startswith("el_contact"):
        op.update(contact_profiles(rng))
    elif kind.startswith("atlas"):
        op["a"] = _q(_frac(rng))
    elif kind == "cotangent":
        names, R, x, lam, e = contact_data(param)
        lam, e = pushforward(R, x, lam, e, shears(rng, x, count=1))
        op.update(k=param, **pair_payload(names, lam, e))
    elif kind.startswith("morphism_family1"):
        op.update(family1_payload(rng, kind.endswith("tampered")))
    elif kind.startswith("morphism_family2"):
        op.update(family2_payload(rng, kind.endswith("tampered")))
    elif kind == "groupoid":
        op["k"] = param
    return op


# ---------------------------------------------------------------- grid_fd

GRID_MIX = (
    ("el_conv", ("homogeneous", 65)), ("el_conv", ("reduced", 65)),
    ("el_conv", ("homogeneous", 129)), ("el_conv", ("reduced", 129)),
    ("el_conv", ("homogeneous", 257)),
    ("action_sym", ("homogeneous", 65)), ("action_sym", ("reduced", 129)),
    ("action_sym", ("constrained", 257)), ("action_sym", ("homogeneous", 513)),
    ("action_disc", ("reduced", 65)), ("action_disc", ("constrained", 129)),
    ("action_disc", ("homogeneous", 257)), ("action_disc", ("reduced", 513)),
    ("apath", 257), ("apath_tampered", 257), ("apath", 513),
    ("holonomy", 257), ("holonomy", 1025), ("rk4", 512),
)

_UT, _U, _T = ring("u,t", QQ)


@lru_cache(maxsize=None)
def _trap_1d(n, lo, hi, a):
    """Exact composite trapezoid sum of x^a on n uniform nodes of [lo, hi]."""
    lo, hi = Fraction(lo), Fraction(hi)
    h = (hi - lo) / (n - 1)
    tot = sum((lo + i * h) ** a for i in range(n))
    return (tot - (lo ** a + hi ** a) / 2) * h


def exact_trapezoid(p, n) -> str:
    """Tensor trapezoid sum over [0, 1] x [-1, 1] on an n x n grid of the
    polynomial p in ring (u, t), from exact one-dimensional monomial sums;
    only the result is rounded to floating point."""
    tot = sum(Fraction(int(c.numerator), int(c.denominator))
              * _trap_1d(n, 0, 1, a) * _trap_1d(n, -1, 1, b)
              for (a, b), c in p.terms())
    return repr(float(tot))


def _uv(terms):
    """{(a, b): Fraction} -> the polynomial sum c u^a t^b."""
    return _UT.from_dict({m: _qq(c) for m, c in terms.items()})


def _uv_text(terms):
    return terms_text(terms.items(), ("u", "t"))


def action_fields(rng):
    """Polynomial fields for contact_pair(1): X quadratic in u and in t,
    s = 1 + a u^2 + b t^2 > 0, reduced momenta p and z linear.  Returned
    as {(a, b): coefficient} term tables."""
    def quad():
        return {m: _frac(rng) for m in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0))}

    def lin():
        return {m: _frac(rng) for m in ((0, 0), (1, 0), (0, 1))}

    X = [quad() for _ in range(3)]
    s = {(0, 0): Fraction(1), (2, 0): abs(_frac(rng)) / 2, (0, 2): abs(_frac(rng)) / 2}
    p = [(lin(), lin()) for _ in range(3)]
    z = (lin(), lin())
    return X, s, p, z


def action_density(X, s, p, z, variant):
    """du^dt coefficient of the action density for contact_pair(1)
    (L^{02} = x2, L^{12} = 1, E = d/dx0), in reduced momenta p, as a
    polynomial in ring (u, t); the homogeneous variant is fed pi = s p and
    has the same density."""
    X = [_uv(v) for v in X]
    s = _uv(s)
    p = [(_uv(a), _uv(b)) for a, b in p]
    z = (_uv(z[0]), _uv(z[1]))

    def wedge(a, b):
        return a[0] * b[1] - a[1] * b[0]

    def d(f):
        return (f.diff(_U), f.diff(_T))

    lam = [((0, 2), X[2]), ((1, 2), _UT(1))]
    pdx = sum((wedge(p[i], d(X[i])) for i in range(3)), _UT(0))
    pp = sum((v * wedge(p[i], p[j]) for (i, j), v in lam), _UT(0))
    if variant == "constrained":
        return pdx + pp - wedge(p[0], z)
    return s * pdx + wedge(z, d(s)) + s * pp + s * wedge(z, p[0])


def grid_op(rng, kind, param):
    op = {"kind": kind}
    if kind == "el_conv":
        variant, n = param
        op.update(variant=variant, n=n, **contact_profiles(rng))
    elif kind.startswith("action"):
        variant, n = param
        X, s, p, z = action_fields(rng)
        op.update(variant=variant, n=n,
                  x=[_uv_text(v) for v in X], s=_uv_text(s),
                  p=[[_uv_text(c) for c in w] for w in p],
                  z=[_uv_text(c) for c in z],
                  exact=exact_trapezoid(action_density(X, s, p, z, variant), n))
    elif kind.startswith("apath"):
        c = [_frac(rng) for _ in range(9)]
        a, b = _frac(rng) / 4, _frac(rng) / 4
        x0, x1, x2 = (f"{_q(c[3 * i])} + {_q(c[3 * i + 1])}*u + {_q(c[3 * i + 2])}*u^2"
                      for i in range(3))
        s = f"1 + {_q(a)}*u + {_q(b)}*u^2"
        ds = f"{_q(a)} + {_q(2 * b)}*u"
        dx = [f"{_q(c[3 * i + 1])} + {_q(2 * c[3 * i + 2])}*u" for i in range(3)]
        shift = Fraction(rng.randint(1, 10), 100) if kind.endswith("tampered") else 0
        op.update(n=param, x=[x0, x1, x2], s=s,
                  pi=[f"-({ds})", f"({s})*({dx[2]}) + ({x2})*({ds})",
                      f"-({s})*({dx[1]})"],
                  z=f"{dx[0]} - ({x2})*({dx[1]}) + {_q(shift)}")
    else:   # holonomy / rk4
        c = Fraction(rng.randint(-200, 200), 100)
        op.update(n=param, c=str(c), eta=f"{_q(c)}*pi/2*sin(pi*u)",
                  x=[f"{_q(_frac(rng) / 5)}*u", _q(_frac(rng) / 5), "0"])
    return op


# --------------------------------------------------------------- cli_cold

# One pass: every command once, slow and fast interleaved.  Fifteen commands
# cover check, derive (poissonize, lift, algebroid), verify with and without
# --grid and the five examples, over every shipped structure and field file
# and three seeded generated ones.
CLI_MIX = (
    ("example", "contact-k", 0),
    ("check", "@almost", 1),
    ("derive-poissonize", "structures/contact-k1.ini", 0),
    ("verify-grid", "structures/contact-k1.ini fields/contact-k1-solution.ini", 0),
    ("example", "moebius", 0),
    ("derive-lift", "structures/almost-poisson.ini", 0),
    ("check", "structures/moebius-atlas.ini", 0),
    ("example", "almost-poisson-family1", 0),
    ("derive-algebroid", "@lift", 0),
    ("verify-reduced", "structures/moebius.ini fields/moebius-null.ini", 0),
    ("example", "almost-poisson-family2", 0),
    ("verify", "structures/a10-algebroid.ini fields/family1.ini", 0),
    ("check", "structures/a10-algebroid.ini", 1),
    ("verify", "structures/a10-algebroid.ini @family1", 0),
    ("example", "ex1-groupoid", 0),
)


def _ini_pair(names, lam, e):
    lines = ["[structure]", "kind = jacobi", "", "[chart]",
             "names = " + ", ".join(names), "", "[box]"]
    lines += [f"{n} = -0.45, 0.45" for n in names]
    lines += ["", "[lambda]"] + [f"{names[i]}, {names[j]} = {poly_text(v, names)}"
                                 for (i, j), v in sorted(lam.items())]
    lines += ["", "[e]"] + [f"{names[i]} = {poly_text(v, names)}"
                            for i, v in sorted(e.items())]
    return "\n".join(lines) + "\n"


def _ini_lift(rng):
    """Tangent lift of a sheared almost-Poisson bivector (written out by
    hand from the lift formula), with its [fiber] block."""
    names, R, x, lam, e = almost_poisson_data()
    a = _qq(_frac(rng))
    lam = {(0, 1): R(1), (0, 2): x[0] + a * x[1]}
    full = ("x0", "x1", "x2", "x0_dot", "x1_dot", "x2_dot")
    R2, y = _ring(full)
    base = {key: v.set_ring(R2) for key, v in lam.items()}
    comps = {}
    for (i, j), v in base.items():
        lin = sum((y[3 + m] * v.diff(y[m]) for m in range(3)), R2(0))
        if lin:
            comps[(i + 3, j + 3)] = comps.get((i + 3, j + 3), R2(0)) + lin
        comps[(i, j + 3)] = comps.get((i, j + 3), R2(0)) + v
        comps[(j, i + 3)] = comps.get((j, i + 3), R2(0)) - v
    lines = ["[structure]", "kind = poisson", "", "[chart]",
             "names = " + ", ".join(full), "", "[pi]"]
    for (i, j), v in sorted(comps.items()):
        if i > j:
            i, j, v = j, i, -v
        lines.append(f"{full[i]}, {full[j]} = {poly_text(v, full)}")
    lines += ["", "[fiber]", "names = x0_dot, x1_dot, x2_dot"]
    return "\n".join(lines) + "\n"


def _ini_field(maps, fiber, variant):
    lines = ["[field]", f"variant = {variant}", "", "[maps]"]
    lines += [f"{k} = {v}" for k, v in maps.items()]
    lines += ["", "[fiber]"]
    for name, (cu, ct) in fiber.items():
        lines += [f"{name}, u = {cu}", f"{name}, t = {ct}"]
    return "\n".join(lines) + "\n"


def cli_files(rng, tag, gen_dir: Path, rel_dir: str) -> dict:
    """Write this pass's generated files into gen_dir; map each '@name' to
    its path under rel_dir, as the CLI will see it."""
    out = {}

    def put(name, text):
        (gen_dir / f"{name}-{tag}.ini").write_text(text)
        out["@" + name] = f"{rel_dir}/{name}-{tag}.ini"

    names, R, x, lam, e = almost_poisson_data()
    put("almost", _ini_pair(names, *pushforward(R, x, lam, e, shears(rng, x))))
    put("lift", _ini_lift(rng))
    fam = family1_payload(rng, False)
    put("family1", _ini_field(fam["maps"], fam["fiber"], "constrained"))
    return out


def cli_op(rng, cmd, target, exit_code, files, work_rel, idx):
    sseed = str(rng.randrange(1, 2 ** 31))
    paths = [files.get(p, p) for p in target.split()]
    out = f"{work_rel}/out/{idx}"
    args = {"check": ["check", *paths],
            "derive-poissonize": ["derive", *paths, "--what", "poissonize",
                                  "-o", out + ".ini"],
            "derive-lift": ["derive", *paths, "--what", "lift", "-o", out + ".ini"],
            "derive-algebroid": ["derive", *paths, "--what", "algebroid",
                                 "-o", out + ".ini"],
            "verify": ["verify", *paths],
            "verify-grid": ["verify", *paths, "--grid", "33x33"],
            "verify-reduced": ["verify", *paths, "--variant", "reduced"],
            "example": ["example", *paths]}[cmd]
    return {"kind": "cli", "cmd": cmd, "args": args + ["--seed", sseed],
            "json": out + ".json", "expect_exit": exit_code}


# ------------------------------------------------------------- generate

_MIX = {"verdict_symbolic": (SYMBOLIC_MIX, symbolic_op),
        "verdict_sampled": (SAMPLED_MIX, sampled_op),
        "grid_fd": (GRID_MIX, grid_op)}


def generate(workload: str, seed: int, outdir, work_rel: str = None) -> int:
    """Write the op pool for (workload, seed) into outdir; returns its size.

    `work_rel` is outdir relative to the directory the program runs in; CLI
    ops name their files through it."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    if workload == "cli_cold":
        work_rel = work_rel or outdir.as_posix()
        gen_dir = outdir / "gen"
        gen_dir.mkdir(exist_ok=True)
        (outdir / "out").mkdir(exist_ok=True)
        for p in range(POOL_PASSES[workload]):
            files = cli_files(rng, p, gen_dir, f"{work_rel}/gen")
            for cmd, target, code in CLI_MIX:
                ops.append(dict(cli_op(rng, cmd, target, code, files, work_rel,
                                       len(ops)), **{"pass": p}))
    else:
        mix, make = _MIX[workload]
        for p in range(POOL_PASSES[workload]):
            for kind, param in mix:
                op = make(rng, kind, param)
                op["pass"] = p
                op["sseed"] = rng.randrange(1, 2 ** 31)
                ops.append(op)
    _write(outdir / "ops.jsonl", ops)
    if workload != "cli_cold":
        # one op per kind at its smallest size, from a separate stream
        wrng = random.Random(f"{workload}:{seed}:warmup")
        mix, make = _MIX[workload]
        first = {}
        for kind, param in mix:
            first.setdefault(kind, param)
        warm = [dict(make(wrng, kind, param), sseed=wrng.randrange(1, 2 ** 31),
                     **{"pass": -1}) for kind, param in first.items()]
        _write(outdir / "warmup.jsonl", warm)
    return len(ops)


def _write(path, ops):
    with open(path, "w") as fh:
        for i, op in enumerate(ops):
            op["i"] = i
            fh.write(json.dumps(op, sort_keys=True) + "\n")


def verdict_kinds(workload: str) -> int:
    """Ops per pass that return a verdict: the mix less its known defects,
    which raise."""
    if workload == "cli_cold":
        return len(CLI_MIX)
    mix, make = _MIX[workload]
    rng = random.Random(0)
    return sum(not expected(make(rng, kind, param))[1] for kind, param in mix)
