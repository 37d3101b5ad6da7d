"""Differential polynomials in x-dependent functions, with exact coefficients.

A ``DiffPoly`` is a finite sum  Σ c · Π v_i^{(k_i)}^{e_i}  where each v_i is a
named dependent variable (a function of x), k_i a derivative order, and the
coefficients c live in ℚ(ρ) — rational functions of one parameter, so that a
whole family of expansions can be carried symbolically and evaluated at an
exact critical point later.  There is no explicit x inside a DiffPoly;
relations that need a bare x carry it structurally (see ``XRelation``).

The one nontrivial operation is ``integrate_x``: inverting d/dx on its image.
Rather than a term-rewriting loop (whose termination order is fiddly), we
enumerate candidate antiderivative monomials by predecessor closure and solve
a small exact linear system; inconsistency raises ``NotTotalDerivative``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .errors import NotTotalDerivative, certify
from .polys import Poly, RationalFunc
from .scalars import is_exact

# a factor (name, order, exponent); a monomial is a sorted tuple of factors
Factor = tuple[str, int, int]
Monomial = tuple[Factor, ...]

RHO = RationalFunc.var()


def _normalize_monomial(factors: Iterable[tuple[str, int, int]]) -> Monomial:
    agg: dict[tuple[str, int], int] = {}
    for name, order, exp in factors:
        if order < 0 or exp < 0:
            raise ValueError("negative order or exponent")
        if exp:
            agg[(name, order)] = agg.get((name, order), 0) + exp
    return tuple(sorted((n, o, e) for (n, o), e in agg.items() if e))


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    return _normalize_monomial(list(m1) + list(m2))


def _coerce_coeff(c) -> RationalFunc:
    if isinstance(c, RationalFunc):
        return c
    if isinstance(c, Poly):
        return RationalFunc(c)
    if is_exact(c):
        return RationalFunc.const(c)
    raise TypeError(f"bad DiffPoly coefficient: {type(c).__name__}")


class DiffPoly:
    """Exact differential polynomial; immutable by convention."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, object] | None = None):
        clean: dict[Monomial, RationalFunc] = {}
        if terms:
            for mono, c in terms.items():
                c = _coerce_coeff(c)
                if not c.is_zero():
                    mono = _normalize_monomial(mono)
                    prev = clean.get(mono)
                    c = c if prev is None else prev + c
                    if c.is_zero():
                        clean.pop(mono, None)
                    else:
                        clean[mono] = c
        self.terms = clean

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

    # -- queries ----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def dependent_vars(self) -> set[str]:
        return {name for mono in self.terms for name, _, _ in mono}

    def max_order(self, name: str | None = None) -> int:
        orders = [
            o
            for mono in self.terms
            for n, o, _ in mono
            if name is None or n == name
        ]
        return max(orders, default=-1)

    def total_degree(self) -> int:
        return max((sum(e for _, _, e in m) for m in self.terms), default=0)

    def constant_term(self) -> RationalFunc:
        return self.terms.get((), RationalFunc.const(0))

    def coefficient(self, mono) -> RationalFunc:
        return self.terms.get(_normalize_monomial(mono), RationalFunc.const(0))

    # -- ring operations -------------------------------------------------
    @staticmethod
    def _coerce(other):
        if isinstance(other, DiffPoly):
            return other
        if isinstance(other, (RationalFunc, Poly)) or is_exact(other):
            return DiffPoly.const(other)
        return NotImplemented

    def __add__(self, other) -> "DiffPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            prev = out.get(m)
            s = c if prev is None else prev + c
            if s.is_zero():
                out.pop(m, None)
            else:
                out[m] = s
        return DiffPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "DiffPoly":
        return DiffPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other) -> "DiffPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[Monomial, RationalFunc] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                c = c1 * c2
                prev = out.get(m)
                s = c if prev is None else prev + c
                if s.is_zero():
                    out.pop(m, None)
                else:
                    out[m] = s
        return DiffPoly(out)

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
            out: dict[Monomial, RationalFunc] = {}
            for mono, c in p.terms.items():
                for idx, (name, order, exp) in enumerate(mono):
                    bumped = list(mono)
                    bumped[idx] = (name, order, exp - 1)
                    bumped.append((name, order + 1, 1))
                    m = _normalize_monomial(bumped)
                    add = c * exp
                    prev = out.get(m)
                    s = add if prev is None else prev + add
                    if s.is_zero():
                        out.pop(m, None)
                    else:
                        out[m] = s
            p = DiffPoly(out)
        return p

    def partial(self, name: str, order: int) -> "DiffPoly":
        """Formal partial derivative with respect to the jet variable v^(order)."""
        out: dict[Monomial, RationalFunc] = {}
        for mono, c in self.terms.items():
            for idx, (n, o, e) in enumerate(mono):
                if n == name and o == order:
                    rest = list(mono)
                    rest[idx] = (n, o, e - 1)
                    m = _normalize_monomial(rest)
                    add = c * e
                    prev = out.get(m)
                    s = add if prev is None else prev + add
                    if s.is_zero():
                        out.pop(m, None)
                    else:
                        out[m] = s
        return DiffPoly(out)

    def euler(self, name: str) -> "DiffPoly":
        """Variational derivative δ/δv: Σ_k (-d/dx)^k ∂/∂v^{(k)}."""
        out = DiffPoly.zero()
        for k in range(self.max_order(name) + 1):
            piece = self.partial(name, k).d_dx(k)
            out = out + (piece if k % 2 == 0 else -piece)
        return out

    def is_total_x_derivative(self) -> bool:
        if not self.constant_term().is_zero():
            return False
        return all(self.euler(v).is_zero() for v in self.dependent_vars())

    def integrate_x(self) -> "DiffPoly":
        """The F with dF/dx = self, no constant term; exact, or raises.

        Candidate monomials of F are found by predecessor closure (lower one
        derivative order of one factor), then an exact linear system pins the
        coefficients.  Raises NotTotalDerivative when no antiderivative
        exists in the differential-polynomial ring.
        """
        if self.is_zero():
            return DiffPoly.zero()
        if not self.constant_term().is_zero():
            raise NotTotalDerivative("nonzero constant term")
        for v in self.dependent_vars():
            if not self.euler(v).is_zero():
                raise NotTotalDerivative(f"variational derivative in {v} is nonzero")

        def predecessors(mono: Monomial) -> list[Monomial]:
            preds = []
            for idx, (n, o, e) in enumerate(mono):
                if o >= 1:
                    low = list(mono)
                    low[idx] = (n, o, e - 1)
                    low.append((n, o - 1, 1))
                    preds.append(_normalize_monomial(low))
            return preds

        candidates: list[Monomial] = []
        seen: set[Monomial] = set()
        frontier = list(self.terms)
        while frontier:
            fresh = []
            for mono in frontier:
                for pm in predecessors(mono):
                    if pm and pm not in seen:
                        seen.add(pm)
                        candidates.append(pm)
                        fresh.append(pm)
            # closure: derivatives of new candidates expose sibling monomials
            frontier = []
            for pm in fresh:
                frontier.extend(DiffPoly({pm: 1}).d_dx().terms)

        d_images = [DiffPoly({m: 1}).d_dx() for m in candidates]
        eqn_monos: list[Monomial] = []
        eqn_index: dict[Monomial, int] = {}
        for img in d_images:
            for m in img.terms:
                if m not in eqn_index:
                    eqn_index[m] = len(eqn_monos)
                    eqn_monos.append(m)
        for m in self.terms:
            if m not in eqn_index:
                raise NotTotalDerivative("monomial unreachable from any antiderivative")

        zero = RationalFunc.const(0)
        rows = [[zero] * len(candidates) for _ in eqn_monos]
        for j, img in enumerate(d_images):
            for m, c in img.terms.items():
                rows[eqn_index[m]][j] = c
        rhs = [self.terms.get(m, zero) for m in eqn_monos]

        sol = _solve_exact(rows, rhs)
        if sol is None:
            raise NotTotalDerivative("no antiderivative solves the linear system")
        return DiffPoly({m: a for m, a in zip(candidates, sol) if not a.is_zero()})

    # -- substitution -------------------------------------------------------
    def substitute(self, mapping: Mapping[str, "DiffPoly"]) -> "DiffPoly":
        """Replace variables by differential polynomials, v^{(k)} -> d^k(image)."""
        cache: dict[tuple[str, int], DiffPoly] = {}

        def image(name: str, order: int) -> DiffPoly:
            key = (name, order)
            if key not in cache:
                if name in mapping:
                    cache[key] = mapping[name].d_dx(order)
                else:
                    cache[key] = DiffPoly.var(name, order)
            return cache[key]

        out = DiffPoly.zero()
        for mono, c in self.terms.items():
            term = DiffPoly.const(c)
            for name, order, exp in mono:
                term = term * image(name, order) ** exp
            out = out + term
        return out

    def eval_rho(self, value) -> "DiffPoly":
        """Evaluate the coefficient parameter ρ at an exact rational value."""
        out: dict[Monomial, RationalFunc] = {}
        for m, c in self.terms.items():
            out[m] = RationalFunc.const(c(Fraction(value)))
        return DiffPoly(out)

    # -- rendering ----------------------------------------------------------
    @staticmethod
    def _mono_sort_key(mono: Monomial):
        orders = tuple(
            sorted((o for _, o, e in mono for _ in range(e)), reverse=True)
        )
        return (orders, sum(e for _, _, e in mono), mono)

    def sorted_terms(self) -> list[tuple[Monomial, RationalFunc]]:
        return sorted(self.terms.items(), key=lambda kv: self._mono_sort_key(kv[0]), reverse=True)

    @staticmethod
    def _factor_text(name: str, order: int, latex: bool) -> str:
        if order == 0:
            return name
        if latex:
            sub = "x" * order if order <= 4 else None
            return f"{name}_{{{sub}}}" if sub else f"{name}^{{({order})}}"
        return name + "_" + "x" * order if order <= 4 else f"{name}^({order})"

    def render(self, latex: bool = False, rho: str = "rho") -> str:
        if not self.terms:
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
            cs = c.render(rho)
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
        out = []
        for mono, c in self.sorted_terms():
            entry = {
                "coeff": c.render("rho"),
                "factors": [[n, o, e] for n, o, e in mono],
            }
            out.append(entry)
        return out

    def __repr__(self):
        return f"DiffPoly({self.render()})"


def _solve_exact(rows: list[list[RationalFunc]], rhs: list[RationalFunc]):
    """Gaussian elimination over the fraction field; None if inconsistent.

    Returns a particular solution (free variables set to zero).
    """
    m = len(rows)
    n = len(rows[0]) if rows else 0
    aug = [row[:] + [b] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if not aug[i][col].is_zero()), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = RationalFunc.const(1) / aug[r][col]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(m):
            if i != r and not aug[i][col].is_zero():
                factor = aug[i][col]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if not aug[i][n].is_zero():
            return None
    sol = [RationalFunc.const(0)] * n
    for i, col in enumerate(pivots):
        sol[col] = aug[i][n]
    return sol


class XRelation:
    """A relation  p(u, ...) + x·q(u, ...) = 0  between differential polynomials.

    ``normalize`` clears denominators and fixes the overall sign/scale when
    every coefficient is rational, so emitted equations are canonical and
    byte-stable.
    """

    __slots__ = ("p", "q")

    def __init__(self, p: DiffPoly, q: DiffPoly):
        self.p = p
        self.q = q

    def __eq__(self, other):
        if not isinstance(other, XRelation):
            return NotImplemented
        return self.p == other.p and self.q == other.q

    def all_coeffs(self) -> list[RationalFunc]:
        return list(self.p.terms.values()) + list(self.q.terms.values())

    def is_numeric(self) -> bool:
        return all(c.is_constant() for c in self.all_coeffs())

    def normalize(self) -> "XRelation":
        """Scale so all coefficients are coprime integers and the leading
        monomial of the highest-derivative part is positive."""
        if not self.is_numeric():
            raise ValueError("normalize needs numeric (rho-free) coefficients")
        vals = [c.constant_value() for c in self.all_coeffs()]
        if not vals:
            return self
        from math import gcd

        den_lcm = 1
        for v in vals:
            den_lcm = den_lcm * v.denominator // gcd(den_lcm, v.denominator)
        scaled = [v * den_lcm for v in vals]
        num_gcd = 0
        for v in scaled:
            num_gcd = gcd(num_gcd, abs(v.numerator))
        scale = Fraction(den_lcm, num_gcd or 1)
        lead_poly = self.p if self.p.terms else self.q
        lead_mono = max(lead_poly.terms, key=DiffPoly._mono_sort_key)
        if lead_poly.terms[lead_mono].constant_value() * scale < 0:
            scale = -scale
        k = DiffPoly.const(scale)
        return XRelation(self.p * k, self.q * k)

    def render(self, latex: bool = False) -> str:
        ps = self.p.render(latex=latex)
        if self.q.is_zero():
            return f"{ps} = 0"
        lead = max(self.q.terms, key=DiffPoly._mono_sort_key)
        q, sign = (self.q, "+")
        cq = self.q.terms[lead]
        if cq.is_constant() and cq.constant_value() < 0:
            q, sign = -self.q, "-"
        qs = q.render(latex=latex)
        xterm = "x" if qs == "1" else (f"x \\, ({qs})" if latex else f"x*({qs})")
        if self.p.is_zero():
            return f"{xterm} = 0" if sign == "+" else f"-{xterm} = 0"
        return f"{ps} {sign} {xterm} = 0"

    def to_json(self) -> dict:
        return {"p": self.p.to_json(), "x_coefficient": self.q.to_json()}

    def __repr__(self):
        return f"XRelation({self.render()})"


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
