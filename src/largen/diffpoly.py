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

A key is its monomial packed into one int, as in ``MPoly``: each jet v^{(k)}
gets a ``_WIDTH``-bit exponent field the first time a ``DiffPoly`` meets it,
and a key is Σ e·2^(shift of its jet), the constants key 0.  A product of
monomials is then a sum of keys (``IntTable``'s product), and d/dx moves one
power from v^{(k)} to v^{(k+1)} by adding a difference of unit keys.
Exponents lie in [0, 2^(_WIDTH−1)): a product or derivative step that sets a
field's top bit, as given at that call, raises ``OverflowError`` rather
than alias into the next jet.  Field order is the order of first use, so
nothing reads it: ``terms``, the sort and every rendering decode a key to its
sorted factor tuple (``Monomial``).  The fields are a jet layout's, which
only grows, though no read (``coefficient``, ``==``) adds to it.  Each
DiffPoly carries its layout (``layout``, its ``IntTable`` ring), as an
``MPoly`` carries its arity: a result keeps its first table operand's, and an
operand of another layout is re-encoded into it (``_coerce``), the one place
two layouts meet; ``==`` and the hash read across layouts by monomial.  A
DiffPoly built from scratch takes the layout in force: the process's, or
one that each double-scaled solve, Painlevé recursion and crosscheck runs in
(``own_layout``), so its keys are only as wide as its own jets.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping

from .errors import certify
from .mpolys import _FIELD, _WIDTH, IntTable, reduced
from .polys import Poly
from .scalars import is_exact
from .wring import Lattice, WElem

# a factor (name, order, exponent); a monomial, as ``terms`` and every
# rendering read a key, is the sorted tuple of its factors
Factor = tuple[str, int, int]
Monomial = tuple[Factor, ...]

class _Layout:
    """(name, order) -> the shift of its field, the jets by field index, the top
    bits of all fields and the decoded monomial of each key read: all only grow."""

    __slots__ = ("shift", "jets", "top", "decoded")

    def __init__(self):
        self.shift, self.jets, self.top, self.decoded = {}, [], 0, {}

    def field(self, name: str, order: int) -> int:
        """The shift of the field of v^(order) for v = name, given on first use."""
        s = self.shift.get((name, order))
        if s is None:
            s = self.shift[name, order] = _WIDTH * len(self.jets)
            self.jets.append((name, order))
            self.top |= 1 << (s + _WIDTH - 1)
        return s

    def key(self, mono: Monomial) -> int:
        """The packed key of a normalised monomial, giving its new jets fields."""
        return sum(exp << self.field(name, order) for name, order, exp in mono)

    def decode(self, key: int) -> Monomial:
        """The sorted factors of a packed key."""
        mono = self.decoded.get(key)
        if mono is None:
            factors, rest = [], key
            while rest:
                s = (rest & -rest).bit_length() - 1
                s -= s % _WIDTH
                exp = rest >> s & _FIELD
                factors.append((*self.jets[s // _WIDTH], exp))
                rest -= exp << s
            mono = self.decoded[key] = tuple(sorted(factors))
        return mono


# the layout of the running double-scaled or Painlevé call, else the process's
_LAYOUT: ContextVar[_Layout] = ContextVar("jet layout", default=_Layout())


@contextmanager
def own_layout(layout: _Layout | None = None):
    """The jet layout ``layout``, or a new one, for the block: yields it."""
    token = _LAYOUT.set(_Layout() if layout is None else layout)
    try:
        yield _LAYOUT.get()
    finally:
        _LAYOUT.reset(token)


def _normalize_monomial(factors: Iterable[tuple[str, int, int]]) -> Monomial:
    """The sorted factors, one per jet, each exponent an int that fits a field."""
    agg: dict[tuple[str, int], int] = {}
    for name, order, exp in factors:
        if order < 0 or exp < 0:
            raise ValueError("negative order or exponent")
        if exp:
            agg[(name, order)] = agg.get((name, order), 0) + exp
    for (name, order), exp in agg.items():
        if not isinstance(exp, int) or exp >> (_WIDTH - 1):
            raise ValueError(f"exponent {exp} of {name}^({order}) is not an int "
                             f"in [0, 2^{_WIDTH - 1})")
    return tuple(sorted((n, o, e) for (n, o), e in agg.items() if e))


def _coerce_coeff(c) -> Fraction:
    if is_exact(c):
        return Fraction(c)
    raise TypeError(f"bad DiffPoly coefficient: {type(c).__name__}")


class DiffPoly(IntTable):
    """Exact differential polynomial; immutable by convention."""

    __slots__ = ("layout",)

    def __init__(self, terms: Mapping[Monomial, object] | None = None):
        self.layout = layout = _LAYOUT.get()
        clean, key = {}, layout.key
        for mono, c in (terms or {}).items():
            k, c = key(_normalize_monomial(mono)), _coerce_coeff(c)
            clean[k] = clean.get(k, 0) + c
        self._set_terms(clean)

    def _like(self, den: int, nums: dict) -> "DiffPoly":
        out = DiffPoly.__new__(DiffPoly)
        out.layout, (out.den, out.nums) = self.layout, reduced(den, nums)
        return out

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls) -> "DiffPoly":
        return cls()

    @classmethod
    def const(cls, c) -> "DiffPoly":
        return cls({(): c})

    @classmethod
    def var(cls, name: str, order: int = 0) -> "DiffPoly":
        return cls({((name, order, 1),): 1})

    def _scalar(self, c) -> "DiffPoly":
        return self._like(1, {0: 1}) * _coerce_coeff(c)

    def _coerce(self, other):  # the one place two layouts meet
        if isinstance(other, DiffPoly) and other.layout is not self.layout:
            key, decode = self.layout.key, other.layout.decode
            return self._like(other.den, {key(decode(k)): n for k, n in other.nums.items()})
        return IntTable._coerce(self, other)

    def __eq__(self, other) -> bool:
        if isinstance(other, DiffPoly) and other.layout is not self.layout:
            return self.terms == other.terms  # decoded, so neither layout grows
        return IntTable.__eq__(self, other)

    def __hash__(self):
        if self.nums.keys() <= {0}:  # zero or a constant: the same keys in every layout
            return IntTable.__hash__(self)
        return hash(frozenset(self.terms.items()))

    # -- queries ----------------------------------------------------------
    @property
    def terms(self) -> dict:
        """{sorted factor tuple: Fraction coefficient}, a fresh dict in insertion order."""
        den, decode = self.den, self.layout.decode
        return {decode(k): Fraction(n, den) for k, n in self.nums.items()}

    def dependent_vars(self) -> set[str]:
        return {name for mono in self.terms for name, _, _ in mono}

    def max_order(self, name: str | None = None) -> int:
        orders = (o for mono in self.terms for n, o, _ in mono if name is None or n == name)
        return max(orders, default=-1)

    def total_degree(self) -> int:
        return max((sum(e for _, _, e in mono) for mono in self.terms), default=0)

    def constant_term(self) -> Fraction:
        return self.coefficient(())

    def coefficient(self, mono) -> Fraction:
        """The coefficient of mono; 0, registering nothing, if a jet of it is new."""
        mono, layout = _normalize_monomial(mono), self.layout
        known = all((name, order) in layout.shift for name, order, _ in mono)
        return Fraction(self.nums.get(layout.key(mono), 0) if known else 0, self.den)

    # -- ring operations -------------------------------------------------
    def _top(self) -> int:
        return self.layout.top  # read at call time: the layout grows

    # bound here, not inherited, as in ``MPoly``
    __mul__ = __rmul__ = IntTable.__mul__
    __add__ = __radd__ = IntTable.__add__
    __sub__, __rsub__ = IntTable.__sub__, IntTable.__rsub__
    __neg__, __pow__ = IntTable.__neg__, IntTable.__pow__

    # -- calculus ----------------------------------------------------------
    def d_dx(self, times: int = 1) -> "DiffPoly":
        """Total x-derivative; coefficients are x-independent."""
        if times < 0:
            raise ValueError("negative derivative count")
        p, layout = self, self.layout
        field = layout.field
        for _ in range(times):
            out: dict = {}
            get = out.get
            for key, n in p.nums.items():
                for name, order, exp in layout.decode(key):
                    m = key + (1 << field(name, order + 1)) - (1 << field(name, order))
                    out[m] = get(m, 0) + n * exp
            p = p._like(p.den, p._checked(out, "derivative"))
        return p

    def partial(self, name: str, order: int) -> "DiffPoly":
        """Formal partial derivative with respect to the jet variable v^(order)."""
        s = self.layout.shift.get((name, order))
        return self._like(1, {}) if s is None else self._field_derivative(s)

    # -- substitution -------------------------------------------------------
    def substitute(self, mapping: Mapping[str, "DiffPoly"]) -> "DiffPoly":
        """Replace variables by differential polynomials, v^{(k)} -> d^k(image)."""
        layout, cache = self.layout, {}

        def image(name: str, order: int) -> DiffPoly:
            key = (name, order)
            if key not in cache:
                src = mapping.get(name)
                cache[key] = (self._like(1, {1 << layout.field(name, order): 1}) if src is None
                              else self._coerce(src).d_dx(order))
            return cache[key]

        terms, decode = [], layout.decode
        for key, n in self.nums.items():
            term = self._like(self.den, {0: n})
            for name, order, exp in decode(key):
                term = term * image(name, order) ** exp
            terms.append(term)
        return self._like(1, {})._sum(terms, 1)

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


DiffPoly.ring = DiffPoly.layout  # the layout's slot, under the name IntTable's operators read


@dataclass(slots=True)
class XRelation:
    """A relation  p(u, ...) + x·q(u, ...) = 0  between differential polynomials.

    ``normalize`` clears denominators and fixes the overall sign/scale, so
    emitted equations are canonical and byte-stable.
    """

    p: DiffPoly
    q: DiffPoly

    def normalize(self) -> "XRelation":
        """Scale so all coefficients are coprime integers and the leading
        monomial of the highest-derivative part is positive."""
        p, q = self.p, self.q
        if not (p.nums or q.nums):
            return self
        den = lcm(p.den, q.den)
        scale = Fraction(den, gcd(*(n * (den // p.den) for n in p.nums.values()),
                                  *(n * (den // q.den) for n in q.nums.values())))
        if (p if p.nums else q).sorted_terms()[0][1] < 0:
            scale = -scale
        return XRelation(p * scale, q * scale)

    def render(self, latex: bool = False) -> str:
        ps = self.p.render(latex=latex)
        if self.q.is_zero():
            return f"{ps} = 0"
        q, sign = (-self.q, "-") if self.q.sorted_terms()[0][1] < 0 else (self.q, "+")
        qs = q.render(latex=latex)
        xterm = "x" if qs == "1" else (f"x \\, ({qs})" if latex else f"x*({qs})")
        if self.p.is_zero():
            return f"{xterm} = 0" if sign == "+" else f"-{xterm} = 0"
        return f"{ps} {sign} {xterm} = 0"

    def to_json(self) -> dict:
        return {"p": self.p.to_json(), "x_coefficient": self.q.to_json()}

    def __repr__(self):
        return f"XRelation({self.render()})"


# The probe of ``certify_d_dx``, constants built at import: v(x) = 1 - x + 3x³
# and its derivatives (every one from the fourth on is 0), and the first two
# derivatives of v²·v′ + v″/2 at that v, in ``Poly`` alone.
_PROBE_V = tuple(Poly((1, -1, 0, 3)).derivative(k) for k in range(5))
_PROBE_REFERENCE = tuple(
    (_PROBE_V[0] ** 2 * _PROBE_V[1] + _PROBE_V[2] * Fraction(1, 2)).derivative(times)
    for times in (1, 2)
)


def certify_d_dx() -> None:
    """Certify ``DiffPoly.d_dx`` against ``Poly.derivative`` on the probe
    v²·v′ + v″/2 at v(x) = 1 - x + 3x³.  A double-scaled engine's residual holds
    for whatever derivation it is given; this is the check that sees a wrong one.

    Each call builds and differentiates the probe and evaluates every monomial
    of its images at v, so a derivation changed after an earlier call is still
    seen; only the ``Poly`` side is fixed, as module constants."""
    probe = DiffPoly.var("v") ** 2 * DiffPoly.var("v", 1) + DiffPoly.var("v", 2) * Fraction(1, 2)
    for times, reference in zip((1, 2), _PROBE_REFERENCE):
        at_v = Poly.zero()
        for mono, c in probe.d_dx(times).terms.items():
            term = Poly.const(c)
            for _, order, exp in mono:
                term = term * _PROBE_V[min(order, 4)] ** exp
            at_v = at_v + term
        certify(at_v == reference, "d/dx of the double-scaled engine differs from Poly.derivative")


def scaled_lattice(rc: Fraction) -> tuple[Lattice, WElem]:
    """The lattice of a double-scaled engine, its curve frozen at w² = λ(λ - 4r_c)
    and its derivation d/dx (certified per solve), with the order-0 element λ/w."""
    d1, d0 = DiffPoly.const(-4 * rc), DiffPoly.zero()
    lat = Lattice(d1, d0, DiffPoly.const(1), lambda c: c.d_dx(), None)
    return lat, WElem.from_poly(d1, d0, [d0, DiffPoly.const(1)], wpow=1)


def string_relation(k: int, elem: WElem, vp, T_c, critical: int) -> XRelation:
    """The string relation ∮ V_λ·elem = δ_{k,0}·T_c + δ_{k,critical}·x at order k
    of a double-scaled series, as p + x·q = 0 (``vp`` is V_λ's coefficient list).
    Order 0 is certified to give T_c exactly, which ties the series to its point."""
    p, q = elem.contour_pair(vp), DiffPoly.zero()
    if k == 0:
        certify(p == DiffPoly.const(T_c), "order-0 string must give T_c")
        p = p - DiffPoly.const(T_c)
    elif k == critical:
        q = DiffPoly.const(-1)
    return XRelation(p, q)


class HeldSolve:
    """A double-scaled solve held by its memo entry at order ``held``, below every
    K, as ``kind(*args)`` solves it; ``order(k)`` solves and certifies order k,
    and ``fork()`` copies it.  ``at(K)`` at a new K runs ``certify_d_dx``, extends
    a fork to K in the held layout (so the package is single-threaded) and builds
    ``kind.output(point, K, orders, ladder)``, so a call costs its K alone.  If the
    layout's jet count moved, a caller grew it, and the next new K starts afresh
    in a new one.  A call that raises drops the held solve."""

    __slots__ = ("kind", "args", "solve", "layout", "jets", "results")

    def __init__(self, kind, *args):
        self.kind, self.args, self.solve = kind, args, None

    def at(self, K: int):
        if self.solve is None or K not in self.results:
            try:
                if self.solve is None or len(self.layout.jets) != self.jets:
                    self.solve, self.layout, self.results = None, _Layout(), {}
                with own_layout(self.layout):
                    certify_d_dx()
                    self.solve = self.solve or self.kind(*self.args)
                    s = self.solve.fork()
                    for k in range(s.held + 1, K + 1):
                        s.order(k)
                self.jets = len(self.layout.jets)
            except BaseException:
                self.solve = self.results = None
                raise
            self.results[K] = s.output(s.point, K, tuple(s.orders), tuple(s.ladder))
        return self.results[K]
