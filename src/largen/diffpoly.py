"""Differential polynomials in x-dependent functions, with rational coefficients.

A ``DiffPoly`` is a finite sum  Σ c · Π v_i^{(k_i)}^{e_i}  where each v_i is a
named dependent variable (a function of x), k_i a derivative order, and every
coefficient c is rational.  Like ``MPoly`` it is an ``mpolys.IntTable`` of
integer numerators {monomial: int} over one denominator, in lowest terms, so
equality is structural and the ring operations run on ints alone; ``terms``
is the read-only {monomial: Fraction} view.  The double-scaled engines and the
Painlevé recursions all run over ℚ, taking no polynomial gcd: a parameter such
as the critical radius ρ enters as a number, never as a coefficient (the
symbolic-ρ hierarchies in ``painleve`` restore ρ at output).  There is no
explicit x inside a DiffPoly; relations that need a bare x carry it
structurally (see ``XRelation``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm
from typing import Iterable, Mapping

from .errors import certify
from .mpolys import IntTable, reduced
from .polys import Poly
from .scalars import is_exact
from .wring import Lattice, WElem

# a factor (name, order, exponent); a monomial is a sorted tuple of factors
Factor = tuple[str, int, int]
Monomial = tuple[Factor, ...]


def _normalize_monomial(factors: Iterable[tuple[str, int, int]]) -> Monomial:
    agg: dict[tuple[str, int], int] = {}
    for name, order, exp in factors:
        if order < 0 or exp < 0:
            raise ValueError("negative order or exponent")
        if exp:
            agg[(name, order)] = agg.get((name, order), 0) + exp
    return tuple(sorted((n, o, e) for (n, o), e in agg.items() if e))


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1 or not m2:
        return m1 or m2
    agg = {(n, o): e for n, o, e in m1}
    for n, o, e in m2:
        agg[n, o] = agg.get((n, o), 0) + e
    return tuple(sorted((n, o, e) for (n, o), e in agg.items()))


def _drop(mono: Monomial, idx: int) -> Monomial:
    """mono with one power of its idx-th factor taken away."""
    name, order, exp = mono[idx]
    low = ((name, order, exp - 1),) if exp > 1 else ()
    return mono[:idx] + low + mono[idx + 1 :]


def _coerce_coeff(c) -> Fraction:
    if is_exact(c):
        return Fraction(c)
    raise TypeError(f"bad DiffPoly coefficient: {type(c).__name__}")


class DiffPoly(IntTable):
    """Exact differential polynomial; immutable by convention."""

    __slots__ = ()

    def __init__(self, terms: Mapping[Monomial, object] | None = None):
        clean: dict = {}
        for mono, c in (terms or {}).items():
            mono, c = _normalize_monomial(mono), _coerce_coeff(c)
            clean[mono] = clean.get(mono, 0) + c
        den = lcm(*(c.denominator for c in clean.values()))
        self.den, self.nums = reduced(
            den, {m: c.numerator * (den // c.denominator) for m, c in clean.items()}
        )

    @classmethod
    def _trusted(cls, den: int, nums: dict) -> "DiffPoly":
        """The ring operations' constructor: canonical monomials, ``reduced``."""
        out = cls.__new__(cls)
        out.den, out.nums = reduced(den, nums)
        return out

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls) -> "DiffPoly":
        return cls._trusted(1, {})

    @classmethod
    def const(cls, c) -> "DiffPoly":
        c = _coerce_coeff(c)
        return cls._trusted(c.denominator, {(): c.numerator})

    @classmethod
    def var(cls, name: str, order: int = 0) -> "DiffPoly":
        return cls({((name, order, 1),): 1})

    # -- queries ----------------------------------------------------------
    def dependent_vars(self) -> set[str]:
        return {name for mono in self.nums for name, _, _ in mono}

    def max_order(self, name: str | None = None) -> int:
        orders = (o for mono in self.nums for n, o, _ in mono if name is None or n == name)
        return max(orders, default=-1)

    def total_degree(self) -> int:
        return max((sum(e for _, _, e in m) for m in self.nums), default=0)

    def constant_term(self) -> Fraction:
        return self.coefficient(())

    def coefficient(self, mono) -> Fraction:
        return Fraction(self.nums.get(_normalize_monomial(mono), 0), self.den)

    # -- ring operations -------------------------------------------------
    @staticmethod
    def _coerce(other):
        if isinstance(other, DiffPoly):
            return other
        if is_exact(other):
            return DiffPoly.const(other)
        return NotImplemented

    def __add__(self, other) -> "DiffPoly":
        # a zero operand returns the other one as it is
        if (isinstance(other, DiffPoly) or is_exact(other)) and not other:
            return self
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return DiffPoly._trusted(*self._sum(other)) if self.nums else other

    __radd__ = __add__

    def __neg__(self) -> "DiffPoly":
        return DiffPoly._trusted(self.den, {m: -n for m, n in self.nums.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other) -> "DiffPoly":
        if is_exact(other):
            k = other.numerator
            return DiffPoly._trusted(self.den * other.denominator,
                                     {m: n * k for m, n in self.nums.items()})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        den = self.den * other.den
        for c, p in ((other, self), (self, other)):  # a constant factor scales
            if len(c.nums) == 1 and () in c.nums:
                k = c.nums[()]
                return DiffPoly._trusted(den, {m: n * k for m, n in p.nums.items()})
        out: dict = {}
        get = out.get
        for m1, n1 in self.nums.items():
            for m2, n2 in other.nums.items():
                m = _mono_mul(m1, m2)
                out[m] = get(m, 0) + n1 * n2
        return DiffPoly._trusted(den, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "DiffPoly":
        if n < 0:
            raise ValueError("negative power of a DiffPoly")
        result = DiffPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- calculus ----------------------------------------------------------
    def d_dx(self, times: int = 1) -> "DiffPoly":
        """Total x-derivative; coefficients are x-independent."""
        p = self
        for _ in range(times):
            out: dict = {}
            get = out.get
            for mono, n in p.nums.items():
                for idx, (name, order, exp) in enumerate(mono):
                    m = _mono_mul(_drop(mono, idx), ((name, order + 1, 1),))
                    out[m] = get(m, 0) + n * exp
            p = DiffPoly._trusted(p.den, out)
        return p

    def partial(self, name: str, order: int) -> "DiffPoly":
        """Formal partial derivative with respect to the jet variable v^(order)."""
        out: dict = {}
        for mono, c in self.nums.items():
            for idx, (n, o, e) in enumerate(mono):
                if n == name and o == order:
                    # one factor per (name, order): no other term maps here
                    out[_drop(mono, idx)] = c * e
        return DiffPoly._trusted(self.den, out)

    # -- substitution -------------------------------------------------------
    def substitute(self, mapping: Mapping[str, "DiffPoly"]) -> "DiffPoly":
        """Replace variables by differential polynomials, v^{(k)} -> d^k(image)."""
        cache: dict[tuple[str, int], DiffPoly] = {}

        def image(name: str, order: int) -> DiffPoly:
            key = (name, order)
            if key not in cache:
                src = mapping.get(name)
                cache[key] = DiffPoly.var(name, order) if src is None else src.d_dx(order)
            return cache[key]

        out = DiffPoly.zero()
        for mono, n in self.nums.items():
            term = DiffPoly._trusted(self.den, {(): n})
            for name, order, exp in mono:
                term = term * image(name, order) ** exp
            out = out + term
        return out

    # -- rendering ----------------------------------------------------------
    @staticmethod
    def _mono_sort_key(mono: Monomial):
        orders = tuple(sorted((o for _, o, e in mono for _ in range(e)), reverse=True))
        return (orders, sum(e for _, _, e in mono), mono)

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: self._mono_sort_key(kv[0]), reverse=True)

    @staticmethod
    def _factor_text(name: str, order: int, latex: bool) -> str:
        if order == 0:
            return name
        if latex:
            sub = "x" * order if order <= 4 else None
            return f"{name}_{{{sub}}}" if sub else f"{name}^{{({order})}}"
        return name + "_" + "x" * order if order <= 4 else f"{name}^({order})"

    def render(self, latex: bool = False) -> str:
        if not self.nums:
            return "0"
        parts = []
        for mono, c in self.sorted_terms():
            factors = []
            for name, order, exp in mono:
                f = self._factor_text(name, order, latex)
                if exp > 1:
                    f = f"{f}^{{{exp}}}" if latex else f"{f}^{exp}"
                factors.append(f)
            body = (" " if latex else "*").join(factors)
            cs = str(c)
            if not body:
                parts.append(cs)
            elif cs == "1":
                parts.append(body)
            elif cs == "-1":
                parts.append(f"-{body}")
            else:
                if ("+" in cs[1:]) or ("-" in cs[1:]) or "/" in cs:
                    cs = f"({cs})"
                parts.append(f"{cs}{' ' if latex else '*'}{body}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def to_json(self) -> list:
        return [
            {"coeff": str(c), "factors": [[n, o, e] for n, o, e in mono]}
            for mono, c in self.sorted_terms()
        ]

    def __repr__(self):
        return f"DiffPoly({self.render()})"


class XRelation:
    """A relation  p(u, ...) + x·q(u, ...) = 0  between differential polynomials.

    ``normalize`` clears denominators and fixes the overall sign/scale, so
    emitted equations are canonical and byte-stable.
    """

    __slots__ = ("p", "q")

    def __init__(self, p: DiffPoly, q: DiffPoly):
        self.p = p
        self.q = q

    def __eq__(self, other):
        if not isinstance(other, XRelation):
            return NotImplemented
        return self.p == other.p and self.q == other.q

    def normalize(self) -> "XRelation":
        """Scale so all coefficients are coprime integers and the leading
        monomial of the highest-derivative part is positive."""
        p, q = self.p, self.q
        if not (p.nums or q.nums):
            return self
        den = lcm(p.den, q.den)
        scale = Fraction(den, gcd(*(n * (den // p.den) for n in p.nums.values()),
                                  *(n * (den // q.den) for n in q.nums.values())))
        lead = p if p.nums else q
        if lead.nums[max(lead.nums, key=DiffPoly._mono_sort_key)] < 0:
            scale = -scale
        return XRelation(p * scale, q * scale)

    def render(self, latex: bool = False) -> str:
        ps = self.p.render(latex=latex)
        if self.q.is_zero():
            return f"{ps} = 0"
        cq = self.q.nums[max(self.q.nums, key=DiffPoly._mono_sort_key)]
        q, sign = (-self.q, "-") if cq < 0 else (self.q, "+")
        qs = q.render(latex=latex)
        xterm = "x" if qs == "1" else (f"x \\, ({qs})" if latex else f"x*({qs})")
        if self.p.is_zero():
            return f"{xterm} = 0" if sign == "+" else f"-{xterm} = 0"
        return f"{ps} {sign} {xterm} = 0"

    def to_json(self) -> dict:
        return {"p": self.p.to_json(), "x_coefficient": self.q.to_json()}

    def __repr__(self):
        return f"XRelation({self.render()})"


_PROBE_V = Poly((1, -1, 0, 3))  # v(x) in the probe of certify_d_dx


@cache
def _at_probe_v(mono: Monomial) -> Poly:
    """A monomial evaluated at v = ``_PROBE_V``, as a polynomial in x."""
    out = Poly.const(1)
    for _, order, exp in mono:
        out = out * _PROBE_V.derivative(order) ** exp
    return out


@cache
def _probe_reference(times: int) -> Poly:
    """d^times/dx^times of v²·v′ + v″/2 at v = ``_PROBE_V``, in ``Poly`` alone."""
    v = _PROBE_V
    return (v * v * v.derivative() + v.derivative(2) * Fraction(1, 2)).derivative(times)


def certify_d_dx() -> None:
    """Certify ``DiffPoly.d_dx`` against ``Poly.derivative`` on the probe
    v²·v′ + v″/2 at v(x) = 1 - x + 3x³.  A double-scaled engine's residual holds
    for whatever derivation it is given; this is the check that sees a wrong one.

    The probe is built and differentiated on every call, so a derivation
    changed after the first call is still seen; the ``Poly`` side is computed
    once per process."""
    probe = DiffPoly.var("v") ** 2 * DiffPoly.var("v", 1) + DiffPoly.var("v", 2) * Fraction(1, 2)
    for times in (1, 2):
        image = probe.d_dx(times).terms.items()
        certify(
            sum((_at_probe_v(mono) * c for mono, c in image), Poly.zero()) == _probe_reference(times),
            "d/dx of the double-scaled engine differs from Poly.derivative",
        )


def scaled_lattice(rc: Fraction) -> tuple[Lattice, WElem]:
    """The lattice of a double-scaled engine, its curve frozen at w² = λ(λ - 4r_c)
    and its derivation d/dx (certified), with the order-0 element λ/w."""
    certify_d_dx()
    d1, d0 = DiffPoly.const(-4 * rc), DiffPoly.zero()
    lat = Lattice(d1, d0, DiffPoly.const(1), lambda c: c.d_dx(), None)
    return lat, WElem.from_poly(d1, d0, [d0, DiffPoly.const(1)], wpow=1)


def string_ladder(elems, vp, T_c, critical: int) -> list[XRelation]:
    """The string relations ∮ V_λ·elems[k] = δ_{k,0}·T_c + δ_{k,critical}·x of
    a double-scaled series, as p + x·q = 0 (``vp`` is V_λ's coefficient list).

    The order-0 entry is certified to give T_c exactly, which ties the series
    to the critical point it was built at.
    """
    ladder = []
    for k, e in enumerate(elems):
        p = DiffPoly.zero() + e.contour_pair(vp)
        q = DiffPoly.zero()
        if k == 0:
            certify(p == DiffPoly.const(T_c), "order-0 string must give T_c")
            p = p - DiffPoly.const(T_c)
        elif k == critical:
            q = DiffPoly.const(-1)
        ladder.append(XRelation(p, q))
    return ladder
