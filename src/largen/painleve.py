"""Painlevé hierarchy members attached to critical points.

At a one-cut critical point of order m the double-scaled string equation
collapses to a member of the Painlevé I hierarchy,

    c_m · R_m(u) - x = 0,

where R_m is the m-th Gel'fand–Dikii differential polynomial: the ζ^{-m}
coefficient of the resolvent R = Σ R_k ζ^{-k} of the Lax operator, R₀ = 1,
with ρ the critical radius.  The recursion ∂ₓ R_{k+1} = (ρ ∂ₓ³ + 4u ∂ₓ + 2uₓ) R_k
has the first integral (Gel'fand & Dikii, Russ. Math. Surveys 30:5, 1975)

    ρ (R R″ - R′²/2) + 2u R² - ζ R²/2 = -ζ/2,

whose ζ^{-k} coefficient gives R_{k+1} from R₀..R_k by algebra alone.  Each
step is certified against the recursion and for a zero constant term.  At a
two-cut merging point of order m the parity-split pair collapses instead to
a Painlevé II hierarchy member,

    2 r_c φ_m · R_m(u) + x·u = 0,

with (R_k, S_k) generated by

    R_{k+1} = -ρ ∂ₓ² R_k + 2u S_k,      2ρ ∂ₓ S_{k+1} = u ∂ₓ R_{k+1}.

The seed pair is (R₀, S₀) = (-u/(2ρ), -u²/(8ρ²)): the compatibility
condition 2ρ ∂ₓS₀ = u ∂ₓR₀ forces S₀ once R₀ is chosen, and only this R₀
(not its derivative, which also floats around in informal statements of
the recursion) makes R₁ = uₓₓ/2 - u³/(4ρ²) come out with the weights that
match the merging-point ladder.  m = 1 gives the Painlevé II equation
itself once the constants are cleared.  S_{k+1} is the ζ^{-k} coefficient
of the first integral ζ R²/2 + ρ R′²/2 - 2ρ S² + ζ S = 0, certified against
the second recursion and for a zero constant term.

Both recursions are homogeneous of degree k in (u, ρ), so
R_k(u; ρ) = ρ^k R_k(u/ρ; 1): the coefficient c of a monomial of degree d in
u at ρ = 1 is c·ρ^{k−d} at any ρ.  Each call therefore runs its recursion
from the seed, over ℚ at ρ = 1, and ρ is restored at output: at an exact r_c
as the number c·r_c^{k−d}, and with ρ kept symbolic as a ``Homogeneous``
member, which renders c·ρ^{k−d}.

``emit_critical_ode`` turns a classified critical point into the fully
numeric ODE in canonical form (integer coprime coefficients, positive
leading derivative term); ``crosscheck_via_series`` re-derives the same
relation from the double-scaled recurrence ladder — by direct readoff in
the one-cut case and by forward elimination of the even corrections in the
two-cut case — and demands exact agreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .diffpoly import DiffPoly, XRelation, own_layout
from .errors import Mismatch, certify
from .onecut import OneCutCritical, scaled_series
from .polys import Poly, RationalFunc
from .potential import Potential
from .scalars import as_fraction, is_exact, scalar_str, truncation_order
from .twocut import MergingPoint, symmetric_scaled_series

# -- the two recursions ----------------------------------------------------------


def _u_degree(mono) -> int:
    return sum(e for _, _, e in mono)


@dataclass(frozen=True)
class Homogeneous:
    """A hierarchy member with ρ symbolic: its table at ρ = 1 and its index m.

    The coefficient c of a monomial of degree d in u stands for c·ρ^{m−d}.
    """

    unit: DiffPoly
    m: int

    def at(self, rc) -> DiffPoly:
        """The member at ρ = rc, an exact rational."""
        rc = as_fraction(rc)
        return DiffPoly(
            {mono: c * rc ** (self.m - _u_degree(mono)) for mono, c in self.unit.terms.items()}
        )

    def to_json(self) -> list:
        return [
            {
                "coeff": _rho_power(c, self.m - _u_degree(mono)),
                "factors": [[n, o, e] for n, o, e in mono],
            }
            for mono, c in self.unit.sorted_terms()
        ]


def _rho_power(c, k: int) -> str:
    """c·ρ^k as a rational function of ρ renders it."""
    return RationalFunc(Poly.x() ** max(k, 0) * c, Poly.x() ** max(-k, 0)).render("rho")


def _at(unit: DiffPoly, m: int, rc):
    member = Homogeneous(unit, m)
    return member if rc is None else member.at(rc)


def _product(a: list, b: list, k: int) -> DiffPoly:
    """Σ_{i+j=k} a_i·b_j: the ζ^{-k} coefficient of the product of two series."""
    return DiffPoly.zero().sum(*(a[i] * b[k - i] for i in range(k + 1)))


def gelfand_dikii(m: int, rc=None) -> DiffPoly | Homogeneous:
    """R_m of the Painlevé I / KdV hierarchy at ρ = rc; ``rc=None`` keeps ρ
    symbolic and returns the ``Homogeneous`` member.

    Each call runs the recursion from R₀ = 1, in a jet layout of its own: each
    step reads R_{k+1} off the ζ^{-k} coefficient of the first integral at
    ρ = 1, and certifies that its derivative is the operator image of R_k and
    that it has no constant term.
    """
    if m < 0:
        raise ValueError("hierarchy index must be nonnegative")
    with own_layout():
        u, R = DiffPoly.var("u"), [DiffPoly.const(1)]
        for k in range(m):
            D1 = [r.d_dx() for r in R]
            D2 = [r.d_dx() for r in D1]
            nxt = (
                _product(R, D2, k) - _product(D1, D1, k) * Fraction(1, 2)
                + u * _product(R, R, k) * 2 - _product(R[1:], R[1:], k - 1) * Fraction(1, 2)
            )
            rhs = D2[k].d_dx() + u * D1[k] * 4 + u.d_dx() * R[k] * 2
            certify(nxt.d_dx() == rhs, f"R_{k + 1} does not integrate the recursion")
            certify(not nxt.constant_term(), f"R_{k + 1} has a constant term")
            R.append(nxt)
        return _at(R[m], m, rc)


def pii_hierarchy(m: int, rc=None) -> tuple:
    """(R_m, S_m) of the Painlevé II hierarchy at ρ = rc; ``rc=None`` keeps ρ
    symbolic and returns the pair of ``Homogeneous`` members.

    Each call runs the recursion from the seed pair, which m = 0 returns, in a
    jet layout of its own.  R_{k+1} comes from the first recursion and S_{k+1}
    from the ζ^{-k} coefficient of the first integral at ρ = 1; S_{k+1} is
    certified against the second recursion, and neither carries a constant term.
    """
    if m < 0:
        raise ValueError("hierarchy index must be nonnegative")
    with own_layout():
        u = DiffPoly.var("u")
        R, S = [u * Fraction(-1, 2)], [u * u * Fraction(-1, 8)]
        for k in range(m):
            R.append(-R[k].d_dx(2) + u * S[k] * 2)
            D1 = [r.d_dx() for r in R]
            Sn = (
                _product(S, S, k) * 2 - _product(R, R, k + 1) * Fraction(1, 2)
                - _product(D1, D1, k) * Fraction(1, 2)
            )
            certify(Sn.d_dx() * 2 == u * D1[-1],
                    f"S_{k + 1} does not integrate the second recursion")
            certify(not R[-1].constant_term(), f"R_{k + 1} has a constant term")
            certify(not Sn.constant_term(), f"S_{k + 1} has a constant term")
            S.append(Sn)
        return _at(R[m], m, rc), _at(S[m], m, rc)


# -- emission ---------------------------------------------------------------------


@dataclass(frozen=True)
class HierarchyMember:
    """A Painlevé hierarchy ODE for the scaling function u(x).

    ``equation`` is canonical: denominators cleared, overall integer content
    divided out, leading derivative term positive.  ``constant`` is c_m for the
    PI family and φ_m for PII; ``R`` (and ``S`` for PII) are the generating
    differential polynomials with ρ already evaluated at ``r_c``.
    """

    family: str  # "PI" | "PII"
    m: int
    r_c: Fraction
    constant: Fraction
    R: DiffPoly
    S: DiffPoly | None
    equation: XRelation

    def latex(self) -> str:
        return self.equation.render(latex=True)

    def to_json(self) -> dict:
        terms = [dict(t, x=False) for t in self.equation.p.to_json()]
        terms += [dict(t, x=True) for t in self.equation.q.to_json()]
        return {
            "family": self.family,
            "m": self.m,
            "rc": scalar_str(self.r_c),
            "constant": scalar_str(self.constant),
            "equation_terms": terms,
            "latex": self.latex(),
        }


def emit_critical_ode(crit) -> HierarchyMember:
    """The hierarchy member attached to a classified critical point.

    One-cut points map to PI members c_m R_m(u) = x, merging points to PII
    members 2 r_c φ_m R_m(u) + x u = 0.  The critical data must be exact
    rationals — an irrational critical radius has no exact ODE in this
    coefficient ring.
    """
    if isinstance(crit, OneCutCritical):
        if not (is_exact(crit.r_c) and is_exact(crit.c_m)):
            raise ValueError("critical point must carry exact rational data")
        rc = as_fraction(crit.r_c)
        cm = as_fraction(crit.c_m)
        R = gelfand_dikii(crit.m, rc)
        equation = XRelation(R * cm, DiffPoly.const(-1)).normalize()
        return HierarchyMember("PI", crit.m, rc, cm, R, None, equation)
    if isinstance(crit, MergingPoint):
        phim = crit.phi[crit.m - 1]
        if not (is_exact(crit.r_c) and is_exact(phim)):
            raise ValueError("merging point must carry exact rational data")
        rc = as_fraction(crit.r_c)
        phim = as_fraction(phim)
        R, S = pii_hierarchy(crit.m, rc)
        equation = XRelation(R * (2 * rc * phim), R._coerce(DiffPoly.var("u"))).normalize()
        return HierarchyMember("PII", crit.m, rc, phim, R, S, equation)
    raise TypeError(f"not a critical point: {crit!r}")


# -- cross-validation against the scaled ladders ----------------------------------


@dataclass(frozen=True)
class CrosscheckReport:
    member: HierarchyMember
    derived: XRelation
    K: int

    def matches(self) -> bool:
        return self.derived == self.member.equation


def _substitute_x_pair(P, Q, name, px, qx):
    """Substitute v = px + x·qx into P + x·Q.

    P must be linear in the jet of v and Q free of it; derivatives of v pick
    up cross terms from the explicit x, via dʲ(px + x·qx) = pxʲ + j·qxʲ⁻¹
    + x·qxʲ.
    """
    certify(name not in Q.dependent_vars(), f"x-coefficient depends on {name}")
    newP = P.substitute({name: DiffPoly.zero()})
    newQ = Q
    for j in range(P.max_order(name) + 1):
        cj = P.partial(name, j)
        if not cj:
            continue
        certify(name not in cj.dependent_vars(), f"ladder not linear in {name}")
        plain = px.d_dx(j)
        if j:
            plain = plain + qx.d_dx(j - 1) * j
        newP = newP + cj * plain
        newQ = newQ + cj * qx.d_dx(j)
    return newP, newQ


def _eliminate_two_cut(ladder, m: int) -> XRelation:
    """Forward-eliminate the even corrections from the merging-point ladder.

    Orders 2..2m fix one correction each: the k-th relation must be linear
    in an undifferentiated 𝔞_k with constant coefficient (certified, not
    assumed — this is the certificate that the elimination pattern holds),
    and only the order-2m relation carries x.  Substituting everything into
    the order-(2m+1) relation must leave 𝔞₁ alone; the result is the
    candidate PII member.
    """
    plain: dict = {}
    carrying = None  # (name, px, qx): the one x-carrying solved correction
    P = Q = DiffPoly.zero()
    for k in range(2, 2 * m + 2):
        P, Q = ladder[k].p, ladder[k].q
        if plain:
            P, Q = P.substitute(plain), Q.substitute(plain)
        if carrying is not None:
            P, Q = _substitute_x_pair(P, Q, *carrying)
        if k == 2 * m + 1:
            break
        if not P and not Q:
            continue  # odd sub-critical entries collapse once the evens are in
        certify(k % 2 == 0, f"odd ladder entry {k} did not collapse")
        name = f"a{k}"
        certify(P.max_order(name) == 0, f"{name} appears differentiated at its own order")
        c = P.partial(name, 0)
        certify(not c.dependent_vars(), f"coefficient of {name} is not constant")
        val = c.constant_term()
        certify(val != 0, f"coefficient of {name} vanishes")
        rest = P.substitute({name: DiffPoly.zero()})
        px = rest * (Fraction(-1) / val)
        qx = Q * (Fraction(-1) / val)
        if not Q:
            plain[name] = px
        else:
            certify(carrying is None and k == 2 * m, "x entered the ladder early")
            carrying = (name, px, qx)
    deps = P.dependent_vars() | Q.dependent_vars()
    certify(deps <= {"a1"}, f"elimination left {sorted(deps - {'a1'})} unresolved")
    u = DiffPoly.var("u")
    return XRelation(P.substitute({"a1": u}), Q.substitute({"a1": u})).normalize()


def crosscheck_via_series(g: Potential, crit, K: int | None = None) -> CrosscheckReport:
    """Re-derive the critical ODE from the double-scaled ladder and compare.

    The comparison is exact, canonical-form DiffPoly equality.  K defaults
    to the minimal truncation that contains the member (m for one-cut
    points, 2m+1 for merging points); a mismatch raises ``Mismatch``
    carrying the symbolic difference of the two relations.  The relation is
    derived in a jet layout of its own, from the ladder re-encoded into it,
    so the held series' layout gains no jet.
    """
    member = emit_critical_ode(crit)
    one_cut = isinstance(crit, OneCutCritical)
    kmin = crit.m if one_cut else 2 * crit.m + 1
    k = kmin if K is None else truncation_order(K, kmin, f"need K >= {kmin} to " + (
        "reach the critical order" if one_cut else "close the elimination ladder"))
    sc = (scaled_series if one_cut else symmetric_scaled_series)(g, crit, k)
    with own_layout():
        here = DiffPoly.zero()._coerce
        ladder = [XRelation(here(rel.p), here(rel.q)) for rel in sc.ladder[: kmin + 1]]
        if one_cut:
            u, rel = DiffPoly.var("u"), ladder[crit.m]
            derived = XRelation(*(q.substitute({"r1": u}) for q in (rel.p, rel.q))).normalize()
        else:
            derived = _eliminate_two_cut(ladder, crit.m)
    if derived != member.equation:
        raise Mismatch(
            "scaled-series ladder disagrees with the emitted hierarchy member",
            difference=(
                derived.p - member.equation.p,
                derived.q - member.equation.q,
            ),
        )
    return CrosscheckReport(member=member, derived=derived, K=k)
