"""Known-answer table of the benchmark's op kinds.

`KNOWN` maps each op kind to its expected answer and says how that answer
is known: by mathematical construction, never from jacobisigma.  The
workload process imports this module and not `gen`, so the generator's
polynomial algebra (SymPy) stays out of the process being measured.
"""

from __future__ import annotations

# kind -> expected answer and how it is known.  "known_defect" marks an op
# whose expected answer the program fails to reach today; it stays in the mix
# and counts as failed.
KNOWN = {
    # -- verdict_symbolic
    "jacobi_contact": dict(
        expect=True, how="contact pair of dimension 2k+1 pushed forward by a "
        "triangular polynomial diffeomorphism; the Jacobi property is natural "
        "under diffeomorphisms"),
    "jacobi_lie_poisson": dict(
        expect=True, how="Lie-Poisson bivector of so(3), heis(5) or se(3) "
        "(structure constants satisfy the Jacobi identity), E = 0, pushed "
        "forward by a triangular polynomial diffeomorphism"),
    "jacobi_contact_scaled": dict(
        expect=False, how="E scaled by c != 1 leaves [L,L] + 2cE^L = "
        "2(c-1) E^L, nonzero because E^L^k != 0 for a contact pair"),
    "jacobi_almost_poisson": dict(
        expect=False, how="L = d/dx ^ (d/dy + x d/dz) has [L,L] = "
        "-2 d/dx^d/dy^d/dz != 0; a pushforward keeps it nonzero"),
    "poissonize_contact": dict(
        expect=[True, True], how="the poissonization of a Jacobi pair is "
        "Poisson and, by its formula, homogeneous of degree -1"),
    "poissonize_contact_scaled": dict(
        expect=[False, True], how="the poissonization is Poisson iff the pair "
        "is Jacobi (it is not, see jacobi_contact_scaled); degree -1 holds by "
        "construction"),
    "poissonize_lie_poisson": dict(
        expect=[True, True], how="L/s is Poisson when L is; degree -1 by "
        "construction"),
    # -- verdict_sampled
    "el_contact": dict(
        expect=True, how="for contact_pair(1) any X0, s with pi_x0 = -ds, "
        "z = dX0 and the other X = 0 solves the homogeneous system "
        "identically"),
    "el_contact_tampered": dict(
        expect=False, how="flipping z turns the x0 equation into 2 dX0 = 0, "
        "false for the nonconstant profiles used"),
    "atlas_moebius": dict(
        expect=True, how="E = a cos(pi x) changes sign under x -> x + 1, which "
        "is what the g = -1 gluing demands"),
    "atlas_moebius_flat": dict(
        expect=False, how="a constant E = a != 0 cannot change sign across the "
        "g = -1 gluing"),
    "cotangent": dict(
        expect=True, how="the tangent lift of any bivector is fiberwise "
        "linear, so extraction succeeds and rebuilds it"),
    "morphism_family1": dict(
        expect=True, how="family 1: base map (X, g'(X), X g'(X) - g(X)), frame "
        "(g''(X) dX, -(1 + X h(X)) dX, h(X) dX) intertwines for any g, h, X"),
    "morphism_family1_tampered": dict(
        expect=False, how="doubling the dy frame form breaks the x base "
        "equation by (1 + X h(X)) dX, nonzero on the source chart"),
    "morphism_family2": dict(
        expect=True, how="family 2: base map (1, Y, Y + c), frame "
        "(dY, f'(Y) dY, -f'(Y) dY) intertwines for any f, c, Y"),
    "morphism_family2_tampered": dict(
        expect=False, how="doubling the dx frame form breaks the y base "
        "equation by dY, nonzero for the nonconstant Y used"),
    "groupoid": dict(
        expect=True, how="Example 1 scaling groupoid: the five structural "
        "identities hold by construction for every k",
        known_defect={"k": 2, "why": "halton_point caps the box at 18 "
                      "dimensions; k = 2 needs 18+ and raises AssertionError"}),
    # -- grid_fd
    "el_conv": dict(
        expect=[1.7, 2.3], how="the sampled exact contact solution leaves only "
        "the truncation error of second-order stencils, so the residual falls "
        "4x per halving of h (observed order near 2)"),
    "action_sym": dict(
        expect="exact", how="polynomial fields give a polynomial density; its "
        "trapezoid sum on the grid follows from exact monomial sums"),
    "action_disc": dict(
        expect="exact", how="as action_sym; X and s are quadratic in u and in "
        "t, where second-order differences are exact"),
    "apath": dict(
        expect=True, how="quadratic x and s with momenta and z solved from the "
        "transport equations; differences are exact on quadratics"),
    "apath_tampered": dict(
        expect=False, how="z shifted by a constant d >= 1e-2 leaves an x0 "
        "defect of d, above the 1e-4 tolerance"),
    "holonomy": dict(
        expect="exp", how="eta_x0 = c (pi/2) sin(pi u) integrates to c and "
        "E = d/dx0, so the holonomy is exp(c)"),
    "rk4": dict(
        expect="exp", how="ds/du = s E(eta) integrates to s(1) = exp(c) for "
        "the same eta"),
    # -- cli_cold
    "cli": dict(
        expect="exit", how="exit code per command: shipped files by their "
        "documented verdicts, generated files by the constructions above; "
        "reports must be byte-identical to a repeat run"),
}

VALUE_TOL = {"holonomy": 1e-8, "rk4": 1e-8, "action_sym": 1e-9,
             "action_disc": 1e-9}


def expected(op):
    """The known answer of an op, and whether it is a known defect."""
    entry = KNOWN[op["kind"]]
    defect = entry.get("known_defect")
    is_defect = bool(defect) and all(op.get(k) == v for k, v in defect.items()
                                     if k != "why")
    if op["kind"] == "cli":
        return op["expect_exit"], is_defect
    return entry["expect"], is_defect
