"""Sparse multivariate polynomials over the rationals, and the localised
ring both regular engines compute in.

An ``MPoly`` carries ρ = r₀ on one cut and the leading endpoints (a₀, b₀)
on two.  It is an ``IntTable``, as are ``polys.Poly`` and
``diffpoly.DiffPoly``: integer numerators over one positive denominator,
{key: int} / den, with gcd(den, numerators) = 1 and no zero entry, so equal
polynomials have equal tables and the arithmetic runs on ints alone.
``IntTable`` owns the algebra the three share, the product included: keys
multiply by adding.  Each adds its constant, the top bits of its exponent
fields, calculus and rendering.  Exact division (``greedy_div``) divides by
the primitive part of the divisor's numerators: by Gauss's lemma an exact
quotient then has integer coefficients, so a leading coefficient that does
not divide proves the division inexact.

An ``MPoly`` key is its monomial packed into one int (Monagan & Pearce,
CASC 2007): the exponent of x_i is a ``_WIDTH``-bit field, x₀ in the most
significant, so a product of monomials is a sum of keys, int order is lex
order, and one variable's keys are its powers, as in ``Poly``.  Exponents
lie in [0, 2^(_WIDTH−1)); the top bit of each field stays clear, and a
product or quotient step that sets one raises ``OverflowError`` rather than
alias into the next field.  ``terms`` is the read-only {exponent tuple:
Fraction} view, in the table's insertion order.

``_Loc`` is ℚ[x][1/f_1, .., 1/f_k] for fixed factors f_i, kept canonical by
trial division, filtered mod P and run only where an f_i can divide.

``Quotient`` is the one fraction field over these tables, ``==`` by
cross-multiplication; its kinds differ only in their constructor's
normalisation.  The quotient of ``Poly``s in ``polys`` is reduced with a
monic denominator, so it hashes; ``MRatFunc`` is unreduced (multivariate
gcds are expensive and no caller needs canonical forms), so no cheap hash
could agree with ``==``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from math import gcd, lcm
from operator import add, or_, sub
from struct import Struct, error as StructError
from typing import Mapping

import mpmath

from .errors import certify
from .scalars import as_fraction, is_exact, mpfs_of

_ZERO = Fraction(0)
_WIDTH = 32  # an exponent field is one big-endian unsigned 32-bit word
_FIELD = (1 << _WIDTH) - 1


@cache
def _layout(nvars: int) -> tuple[Struct, int]:
    """(the Struct of an ``nvars``-variable key's words, their top bits)."""
    return Struct(f">{nvars}I"), int.from_bytes(b"\x80\0\0\0" * nvars, "big")


def reduced(den: int, nums: dict) -> tuple[int, dict]:
    """(den, nums) in lowest terms: zero entries dropped, any factor common to
    den > 0 and all numerators divided out, insertion order kept."""
    if 0 in nums.values():
        nums = {k: n for k, n in nums.items() if n}
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {k: n // g for k, n in nums.items()}
    return den, nums


def eval_terms(terms, point, zero):
    """Σ c·Π v^k over (exponents k, c), summed in order, else ``zero``.  An mpf
    c stays on the left: Fraction.__op__(mpf) is NotImplemented."""
    acc = None
    for e, c in terms:
        for v, k in zip(point, e):
            if k:
                c = c * v**k
        acc = c if acc is None else acc + c
    return zero if acc is None else acc


class IntTable:
    """Integer numerators ``nums`` {key: int} over ``den``, as ``reduced``
    leaves them, with the algebra every such table shares: exact scalars as
    constants (``_coerce``), +, − and negation (a zero operand, scalar or
    table, gives back the other operand itself, so a sum keeps key order,
    and −0 is that zero), the n-ary ``sum``, the key-sum product ×,
    ``==`` with a hash that agrees (a constant hashes as the ``Fraction`` it
    equals), and powers.  A key is a power in ``Poly``, a packed monomial in
    ``MPoly`` and a packed jet monomial in ``DiffPoly``; ``_UNIT`` is the key
    of the constants.  A subclass supplies ``_scalar(c)``, the constant c of its
    kind, ``_top()``, the top bits of its key fields, its calculus and rendering.
    ``ring`` is what a key means beyond its class: an ``MPoly``'s arity
    (``nvars``), a ``DiffPoly``'s jet layout (``layout``), kept by their
    ``_like(den, nums)``; a ``Poly`` has none.  The operators and ``sum`` take
    an operand of the same class and ring as it is, the rest through ``_coerce``."""

    __slots__ = ("den", "nums")
    _UNIT = 0
    ring = None

    @classmethod
    def _trusted(cls, den: int, nums: dict):
        """Wrap numerators over ``den`` > 0 in lowest terms (``reduced``), in
        their insertion order."""
        out = cls.__new__(cls)
        out.den, out.nums = reduced(den, nums)
        return out

    def _like(self, den: int, nums: dict):
        return self._trusted(den, nums)

    def _set_terms(self, terms: dict) -> None:
        """Take {key: Fraction} as numerators over the lcm of the reduced
        denominators, which share no factor with it: lowest terms."""
        self.den = den = lcm(*(c.denominator for c in terms.values()))
        self.nums = {k: c.numerator * (den // c.denominator) for k, c in terms.items() if c}

    @property
    def terms(self) -> dict:
        """{key: Fraction coefficient}, a fresh dict in insertion order."""
        return {k: Fraction(n, self.den) for k, n in self.nums.items()}

    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self) -> bool:
        return bool(self.nums)

    def _coerce(self, other):
        """other as a table of self's kind, or NotImplemented."""
        if isinstance(other, type(self)):
            return other
        if is_exact(other):
            return self._scalar(other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        try:
            other = self._coerce(other)
        except ValueError:  # a table of this kind that cannot mix with self
            return False
        if other is NotImplemented:
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        if self.nums.keys() <= {self._UNIT}:  # zero or a constant
            return hash(Fraction(sum(self.nums.values()), self.den))
        return hash((self.den, frozenset(self.nums.items())))

    def __add__(self, other):
        if type(other) is not type(self) or other.ring != self.ring:
            if is_exact(other) and not other:  # no table is built for a zero scalar
                return self
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not (self.nums and other.nums):
            return other if other.nums else self
        return self._sum((other,), 1)

    __radd__ = __add__

    def sum(self, *others):
        """self + others[0] + .. in one pass (``_sum``), each operand taken as
        ``+`` takes it."""
        tables = [t if type(t) is type(self) and t.ring == self.ring else self._coerce(t)
                  for t in others]
        if any(t is NotImplemented for t in tables):
            raise TypeError(f"unsupported operand type for {type(self).__name__}.sum")
        return self._sum(tables, 1)

    def _sum(self, others, sign: int):
        """``sum`` of tables of self's class and ring, as the left fold of ``+``
        (of ``+ (−t)`` for sign −1) leaves it: the first nonzero table copied,
        a key whose sum cancels dropped, so that a later operand appends it anew."""
        if not self.nums and others:
            first = others[0] if sign == 1 else -others[0]
            return first._sum(others[1:], sign)
        den = self.den
        for t in others:
            den = lcm(den, t.den)
        m = den // self.den
        out = dict(self.nums) if m == 1 else {k: n * m for k, n in self.nums.items()}
        get = out.get
        for t in others:
            m = sign * (den // t.den)
            for k, n in t.nums.items():
                if v := get(k, 0) + n * m:
                    out[k] = v
                else:
                    del out[k]
        return self._like(den, out)

    def __neg__(self):
        if not self.nums:
            return self
        return self._like(self.den, {k: -n for k, n in self.nums.items()})

    def __sub__(self, other):
        """self + (−other) in one pass, in the order that sum leaves."""
        if type(other) is not type(self) or other.ring != self.ring:
            if is_exact(other) and not other:
                return self
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not (self.nums and other.nums):
            return -other if other.nums else self
        return self._sum((other,), -1)

    def __rsub__(self, other):
        return -(self - other)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError(f"negative power of {type(self).__name__}")
        result, base = self._scalar(1), self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:  # no square past the top bit: it would cost most, or overflow
                base = base * base
        return result

    def __mul__(self, other):
        """The key-sum convolution, outer loop over self; a constant scales."""
        if type(other) is not type(self) or other.ring != self.ring:
            if is_exact(other):
                if other == 1:
                    return self
                if not other:
                    return self._like(1, {})
                k = other.numerator
                return self._like(self.den * other.denominator,
                                  {m: n * k for m, n in self.nums.items()})
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if len(other.nums) < 2 or len(self.nums) < 2:
            for c, p in ((other, self), (self, other)):
                if not c.nums:
                    return c
                if len(c.nums) == 1 and 0 in c.nums:  # a constant factor scales
                    k = c.nums[0]
                    if k == c.den == 1:
                        return p
                    return p._like(p.den * c.den, {m: n * k for m, n in p.nums.items()})
        out: dict = {}
        get = out.get
        for m1, n1 in self.nums.items():
            for m2, n2 in other.nums.items():
                m = m1 + m2
                out[m] = get(m, 0) + n1 * n2
        return self._like(self.den * other.den, self._checked(out, "product"))

    __rmul__ = __mul__

    def _top(self) -> int:
        return 0  # the top bits of the key's exponent fields: a power has none

    def _checked(self, out: dict, what: str) -> dict:
        """out, unless one of its keys has set the top bit of a field."""
        top = self._top()
        if top and reduce(or_, out, 0) & top:
            raise OverflowError(f"an exponent of the {what} reaches 2^{_WIDTH - 1}")
        return out

    def _field_derivative(self, s: int):
        """∂/∂v for the variable v whose exponent is the key field at shift s."""
        unit, out = 1 << s, {}
        for k, n in self.nums.items():
            if e := k >> s & _FIELD:
                out[k - unit] = n * e  # one field per variable: no key is hit twice
        return self._like(self.den, out)


class Quotient:
    """num/den over a ring of ``IntTable``s, with the field arithmetic every
    such quotient shares: exact scalars and numerator-kind tables as
    quotients (``_coerce``), ``==`` by cross-multiplication, +, −, ×, ÷,
    integer powers, the quotient rule and rendering.  Each result is built as
    ``type(self)(num, den)``, so the subclass's constructor normalises it."""

    __slots__ = ("num", "den")

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.is_zero()

    def _coerce(self, other):
        """other as a quotient of self's kind, or NotImplemented."""
        if isinstance(other, type(self)):
            return other
        if isinstance(other, type(self.num)):
            return type(self)(other)
        if is_exact(other):
            return type(self)(self.num._scalar(other))
        return NotImplemented

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return type(self)(self.num + other.num, self.den)
        return type(self)(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return type(self)(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return type(self)(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError(f"division by the zero {type(self).__name__}")
        return type(self)(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return type(self)(self.den**-n, self.num**-n)
        return type(self)(self.num**n, self.den**n)

    def _quotient_rule(self, d):
        """(num/den)′ for a derivation d of the numerators' ring."""
        return type(self)(d(self.num) * self.den - self.num * d(self.den), self.den * self.den)

    def render(self, *names) -> str:
        """num, or (num)/(den), each rendered by its own ring with ``names``."""
        if self.den == 1:
            return self.num.render(*names)
        return f"({self.num.render(*names)})/({self.den.render(*names)})"

    def __repr__(self):
        return f"{type(self).__name__}({self.render()})"


class MPoly(IntTable):
    """Polynomial in ``nvars`` variables: ``nums`` {packed monomial: int} over
    ``den`` (module notes); ``terms`` reads the keys as exponent tuples."""

    __slots__ = ("nvars",)

    def __init__(self, nvars: int, terms: Mapping[tuple, object] | None = None):
        words, top = _layout(nvars)
        clean: dict[int, Fraction] = {}
        for exps, c in (terms or {}).items():
            try:
                key = int.from_bytes(words.pack(*exps), "big")
            except StructError:  # wrong arity, or not integers in [0, 2^_WIDTH)
                key = top
            if key & top:
                raise ValueError(f"exponents {exps} are not {nvars} ints in [0, 2^{_WIDTH - 1})")
            if c := as_fraction(c):
                clean[key] = clean.get(key, _ZERO) + c
        self.nvars = nvars
        self._set_terms(clean)

    @classmethod
    def _trusted(cls, nvars: int, den: int, nums: dict) -> "MPoly":
        """``IntTable._trusted`` in ``nvars`` variables (``eval`` sums in the
        insertion order it keeps)."""
        out = cls.__new__(cls)
        out.nvars = nvars
        out.den, out.nums = reduced(den, nums)
        return out

    def _like(self, den: int, nums: dict) -> "MPoly":
        return MPoly._trusted(self.nvars, den, nums)

    @classmethod
    def const(cls, nvars: int, c) -> "MPoly":
        c = as_fraction(c)
        return cls._trusted(nvars, c.denominator, {0: c.numerator})

    @classmethod
    def var(cls, nvars: int, i: int) -> "MPoly":
        return cls._trusted(nvars, 1, {1 << _WIDTH * (nvars - 1 - i): 1})

    def _scalar(self, c) -> "MPoly":
        return MPoly.const(self.nvars, c)

    def _coerce(self, other):
        if isinstance(other, MPoly) and other.nvars != self.nvars:
            raise ValueError("mixing MPolys of different arity")
        return IntTable._coerce(self, other)

    @property
    def terms(self) -> dict:
        """{exponent tuple: Fraction coefficient}, a fresh dict in insertion order."""
        words, den = _layout(self.nvars)[0], self.den
        size, unpack = words.size, words.unpack
        return {unpack(k.to_bytes(size, "big")): Fraction(n, den) for k, n in self.nums.items()}

    def _top(self) -> int:
        return _layout(self.nvars)[1]

    # bound here, not inherited: the benchmark's spans look MPoly's own
    # operations up in its __dict__
    __mul__ = __rmul__ = IntTable.__mul__
    __add__ = __radd__ = IntTable.__add__
    __sub__, __rsub__ = IntTable.__sub__, IntTable.__rsub__
    __neg__, __pow__ = IntTable.__neg__, IntTable.__pow__

    def diff(self, i: int) -> "MPoly":
        if not 0 <= i < self.nvars:
            raise ValueError(f"no variable x{i} among {self.nvars}")
        return self._field_derivative(_WIDTH * (self.nvars - 1 - i))

    def eval(self, point):
        """Evaluate at a point of exact or mpf coordinates."""
        if len(point) != self.nvars:
            raise ValueError("point has wrong arity")
        if all(is_exact(v) for v in point):
            return eval_terms(self.terms.items(), point, _ZERO)
        return eval_terms(self.lift(mpmath.mp.dps), point, mpmath.mpf(0))

    def lift(self, digits: int) -> list:
        """[(exponents, ``mpf_of(c, digits)``)] in ``eval``'s order, for
        ``eval_terms`` at many mpf points."""
        terms = self.terms
        return list(zip(terms, mpfs_of(terms.values(), digits)))

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def render(self, names=None) -> str:
        terms = self.terms
        if not terms:
            return "0"
        names = names or [f"x{i}" for i in range(self.nvars)]
        parts = []
        for e in sorted(terms, key=lambda t: (sum(t), t), reverse=True):
            c = terms[e]
            mon = "*".join(names[i] if k == 1 else f"{names[i]}^{k}" for i, k in enumerate(e) if k)
            if not mon:
                parts.append(str(c))
            elif c == 1:
                parts.append(mon)
            elif c == -1:
                parts.append(f"-{mon}")
            else:
                parts.append(f"{c}*{mon}")
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out

    def __repr__(self):
        return f"MPoly({self.render()})"


MPoly.ring = MPoly.nvars  # the arity's slot, under the name IntTable's operators read


def greedy_div(p: MPoly, d: MPoly):
    """p/d as an MPoly, or None when the division is not exact.

    Greedy leading-term division in lex order of p's numerators by the
    primitive part of d's, which for a monomial order succeeds if and only
    if d | p.  An exact quotient is then integral (Gauss's lemma), so a
    leading coefficient that does not divide ends it early.  A field of
    e − lead that borrows clears the top bit set in it first: x^lead ∤ x^e.
    """
    top = _layout(p.nvars)[1]
    content = gcd(*d.nums.values())
    dn = {e: n // content for e, n in d.nums.items()}
    lead = max(dn)
    lc = dn.pop(lead)
    rem, out = dict(p.nums), {}
    while rem:
        e = max(rem)
        q = (e | top) - lead
        if q & top != top:
            return None
        q ^= top
        c, r = divmod(rem.pop(e), lc)
        if r:
            return None
        out[q] = c
        for de, dc in dn.items():
            ke = q + de
            if ke & top:
                raise OverflowError(f"an exponent of the division reaches 2^{_WIDTH - 1}")
            nc = rem.get(ke, 0) - c * dc
            if nc:
                rem[ke] = nc
            else:
                del rem[ke]
    # p/d = (p.den·p)/d' · d.den/(p.den·content)
    return MPoly._trusted(p.nvars, p.den * content, {e: n * d.den for e, n in out.items()})


def bareiss_det(rows: list) -> MPoly:
    """Determinant of a square matrix of MPolys by fraction-free (Bareiss)
    elimination, each division by the previous pivot exact."""
    rows = [list(r) for r in rows]
    n, sign, prev = len(rows), 1, MPoly.const(rows[0][0].nvars, 1)
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if rows[i][k]), None)
        if piv is None:
            return prev * 0
        if piv != k:
            rows[k], rows[piv], sign = rows[piv], rows[k], -sign
        top = rows[k]
        for row in rows[k + 1:]:
            for j in range(k + 1, n):
                row[j] = greedy_div(top[k] * row[j] - row[k] * top[j], prev)
        prev = top[k]
    return rows[-1][-1] * sign


# The modular image φ: ℚ[x₀, x₁] → F_P[x₀], x₁ ↦ _BSTAR (ℚ[x₀] → F_P[x₀]
# in one variable), with which ``_Loc`` proves most trial divisions fail
# before dividing over ℚ.
MOD_P = 2**61 - 1
_BSTAR = 0x1C6F_3A5E_92B4_D071
_BPOW = tuple(pow(_BSTAR, k, MOD_P) for k in range(64))
_PRIMES = tuple(p for p in range(3, 84) if all(p % q for q in range(2, p)))  # for _irreducible


def mod_image(p: MPoly):
    """φ(den·p) of a uni- or bivariate p, as a coefficient list in x₀ (lowest
    first, entries not reduced), or None when P divides den.  den is a unit
    mod P otherwise, so this is φ(p) up to that unit, which divisibility ignores."""
    if not p.den % MOD_P:
        return None
    s = _WIDTH * (p.nvars - 1)
    out = [0] * ((max(p.nums, default=-1) >> s) + 1)
    if p.nvars == 1:
        for ea, n in p.nums.items():
            out[ea] += n
        return out
    for e, n in p.nums.items():
        eb = e & _FIELD
        out[e >> s] += n * (_BPOW[eb] if eb < 64 else pow(_BSTAR, eb, MOD_P))
    return out


def swap_vars(p: MPoly) -> MPoly:
    """p with its two variables exchanged."""
    return MPoly._trusted(2, p.den, {(e & _FIELD) << _WIDTH | e >> _WIDTH: n
                                     for e, n in p.nums.items()})


class MRatFunc(Quotient):
    """A ``Quotient`` of MPolys, kept unreduced: equal functions may have
    different parts, and only a zero numerator is normalised (den 1)."""

    __slots__ = ()

    def __init__(self, num: MPoly, den: MPoly | None = None):
        one = MPoly.const(num.nvars, 1)
        if den is not None and den.is_zero():
            raise ZeroDivisionError("MRatFunc with zero denominator")
        self.num, self.den = num, one if den is None or num.is_zero() else den

    @classmethod
    def const(cls, nvars: int, c) -> "MRatFunc":
        return cls(MPoly.const(nvars, c))

    # bound here, not inherited: the benchmark's spans read the class __dict__
    __add__ = __radd__ = Quotient.__add__
    __sub__, __rsub__ = Quotient.__sub__, Quotient.__rsub__
    __mul__ = __rmul__ = Quotient.__mul__
    __truediv__, __rtruediv__ = Quotient.__truediv__, Quotient.__rtruediv__
    __neg__, __pow__ = Quotient.__neg__, Quotient.__pow__

    def diff(self, i: int) -> "MRatFunc":
        return self._quotient_rule(lambda p: p.diff(i))

    def eval(self, point):
        den = self.den.eval(point)
        if den == 0:
            raise ZeroDivisionError("pole of MRatFunc at evaluation point")
        return self.num.eval(point) / den


# -- the localised ring ---------------------------------------------------------


def _monic(img: list, p: int = MOD_P) -> list:
    """img mod p as a monic list, lowest power first, trailing zeros dropped."""
    img = [v % p for v in img]
    while img and not img[-1]:
        img.pop()
    inv = pow(img[-1], -1, p) if img else 0
    return [v * inv % p for v in img]


def _monic_image(d: MPoly):
    """φ(d) made monic, or None when it cannot filter (P | den, or φ(d) constant)."""
    img = _monic(mod_image(d) or [])
    return img if len(img) > 1 else None


def _rem(f: list, g: list, p: int = MOD_P) -> list:
    """f mod the monic g in F_p[x₀], entries not reduced (f is consumed)."""
    n = len(g) - 1
    for top in range(len(f) - 1, n - 1, -1):
        c = f[top] % p
        if c:
            base = top - n
            for k in range(n):
                f[base + k] -= c * g[k]
    return f[:n]


def _image_divisible(f: list, g: list) -> bool:
    """Whether the monic g divides f in F_P[x₀] (f is consumed); a linear
    x₀ + g₀ does when f(−g₀) = 0, one Horner pass."""
    if len(g) == 2:
        root, acc = -g[0], 0
        for v in reversed(f):
            acc = (acc * root + v) % MOD_P
        return not acc
    return not any(v % MOD_P for v in _rem(f, g))


def _ben_or(f: list, p: int) -> bool:
    """Ben-Or's test that the monic f is irreducible in F_p[x]: gcd(x^(p^i) − x,
    f) = 1 for all i ≤ deg f / 2 (von zur Gathen & Gerhard, *Modern Computer Algebra*)."""
    def mul(a, b):  # a·b mod f
        out = [sum(u * b[k - i] for i, u in enumerate(a) if 0 <= k - i < len(b))
               for k in range(len(a) + len(b) - 1)]
        return [v % p for v in _rem(out, f, p)]

    for i in range(1, (len(f) - 1) // 2 + 1):
        h, x, e = [1], [0, 1], p**i
        while e:  # h = x^(p^i) mod f
            h, x, e = mul(h, x) if e & 1 else h, mul(x, x), e >> 1
        a, b = f, _monic([h[0], h[1] - 1, *h[2:]], p)
        while b:  # a = gcd(h - x, f)
            a, b = b, _monic(_rem(list(a), b, p), p)
        if len(a) > 1:
            return False
    return True


def _irreducible(f: MPoly) -> bool:
    """Whether f in one or two variables is certified irreducible over ℚ: f is
    linear, or has a pure x₀^d term (d its total degree, so f = gh gives f(x₀, c) =
    g(x₀, c)·h(x₀, c) in degrees ≥ 1) and f(x₀, c) is irreducible mod a p ∤ it."""
    d, s = f.total_degree(), _WIDTH * (f.nvars - 1)
    lead = f.nums.get(d << s, 0) if d > 1 else 0
    for c, p in enumerate(_PRIMES, 2):
        if lead % p:
            img = [0] * (d + 1)
            for e, n in f.nums.items():
                img[e >> s] += n * pow(c, e - (e >> s << s), p)
            if _ben_or(_monic(img, p), p):
                return True
    return d == 1


def _exact_div(p: MPoly, d: MPoly, d_img, img=None):
    """p/d as an MPoly, or None when d does not divide p.  ``d_img`` is
    ``_monic_image(d)``, and ``img`` is ``mod_image(p)`` when the caller has
    it (the list is consumed).  If p = q·d over ℚ and P divides neither
    denominator, Gauss's lemma over ℤ_(P) makes q P-integral, so a nonzero
    φ(p) mod φ(d) proves d ∤ p; ``greedy_div`` decides every other case."""
    if d_img is not None:
        img = mod_image(p) if img is None else img
        if img is not None and not _image_divisible(img, d_img):
            return None
    return greedy_div(p, d)


def _divide_out(num: MPoly, d: MPoly, d_img, img) -> tuple:
    """``_exact_div`` repeated while it succeeds: (quotient, times, its image).
    ``img`` is ``mod_image(num)``; it is recomputed only after a division."""
    times = 0
    while (q := _exact_div(num, d, d_img, None if img is None else list(img))) is not None:
        num, times, img = q, times + 1, mod_image(q)
    return num, times, img


def loc_factors(*factors: MPoly) -> tuple:
    """(factors, trial divisors, swap signs, product trials) of a localised
    ring, as ``_Loc`` shares them.  A trial divisor is (i, f_i,
    ``_monic_image(f_i)``, prime, coprime, moves) for each f_i of positive
    degree (``greedy_div`` by a unit never fails): prime if ``_irreducible``
    certifies f_i; coprime if f_i or all other factors are prime, no factor
    dividing another; moves[k] if prime and ∂f_i/∂x_k ≠ 0.  Product trials
    are those not prime.  A swap sign is ±1 if f_i(x₁, x₀) = ±f_i(x₀, x₁), else None."""
    trials = [(i, f, _irreducible(f)) for i, f in enumerate(factors) if f.total_degree() > 0]
    certify(all(i == j or greedy_div(g, f) is None for i, f, _ in trials for j, g, _ in trials),
            "a localising factor divides another")
    lone = sum(not prime for *_, prime in trials) <= 1
    trials = tuple((i, f, _monic_image(f), prime, prime or lone,
                    tuple(prime and bool(f.diff(k)) for k in range(f.nvars)))
                   for i, f, prime in trials)
    swaps = [swap_vars(f) if f.nvars == 2 else None for f in factors]
    signs = tuple(1 if s == f else -1 if s == -f else None for f, s in zip(factors, swaps))
    return factors, trials, signs, tuple(t for t in trials if not t[3])


class _Loc:
    """num · Π f_i^{-e_i}: the polynomial ring localised at the fixed factors
    (``loc_factors``) every denominator of a regular expansion is built from —
    the factors of W'(ρ) on one cut, the hodograph Jacobian det and b₀-a₀ on
    two.  Integer exponents keep all arithmetic on numerators (unreduced
    quotients square in size under the lattice's d/dT chains).  Values are
    canonical, no f_i dividing num: exponents can go negative and equality is
    cheap.  A new numerator is trial-divided (``_divide_out``, filtered mod P)
    only by the f_i that can divide it: in a product, the f_i not certified
    prime, as a prime divides a product only if it divides a factor; in a
    sum, the f_i at equal exponents in both operands (or not coprime to the
    rest), as else one lifted operand is divisible by f_i and the other is
    not; in ∂/∂x_k, unless f_i is prime, e_i ≠ 0 and ∂_k f_i ≠ 0, as then the
    numerator is −e_i·num·∂_k f_i·Π_{j≠i} f_j mod f_i.  A zero summand gives
    back the other; Fraction and int operands are constants.  Results keep a
    fixed operation order: an MPoly's term order fixes how ``eval`` sums it.
    """

    __slots__ = ("fs", "num", "e")

    def __init__(self, fs: tuple, num: MPoly, e: tuple | None = None, trials: tuple | None = None):
        if not num or e is None:
            e = (0,) * len(fs[0])
        trials = fs[1] if trials is None else trials
        if num and trials:
            img = mod_image(num)
            for i, f, f_img, *_ in trials:
                num, times, img = _divide_out(num, f, f_img, img)
                if times:
                    e = e[:i] + (e[i] - times,) + e[i + 1:]
        self.fs, self.num, self.e = fs, num, e

    def _lift(self, E: tuple) -> MPoly:
        """The numerator over Π f^{-E}, for E ≥ e entrywise."""
        out = self.num
        if E == self.e:
            return out
        for f, top, e in zip(self.fs[0], E, self.e):
            for _ in range(top - e):
                out = out * f
        return out

    def _coerce(self, other):
        if isinstance(other, _Loc):
            return other
        if is_exact(other):
            return _Loc(self.fs, MPoly.const(self.num.nvars, other), trials=())
        return None

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        E = tuple(map(max, self.e, o.e))
        return self._lift(E) == o._lift(E)

    def _plus(self, other, sign: int) -> "_Loc":
        """self + sign·other; for sign −1 in one pass, as self + (−other) leaves it."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.num or not self.num:
            return self if self.num else o if sign == 1 else -o
        E = tuple(map(max, self.e, o.e))
        trials = tuple(t for t in self.fs[1] if not t[4] or self.e[t[0]] == o.e[t[0]])
        a, b = self._lift(E), o._lift(E)
        return _Loc(self.fs, a + b if sign == 1 else a - b, E, trials)

    def __add__(self, other) -> "_Loc":
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "_Loc":
        return _Loc(self.fs, -self.num, self.e, ())

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if is_exact(other):
            return _Loc(self.fs, self.num * other, self.e, ())
        if not isinstance(other, _Loc):
            return NotImplemented
        return _Loc(self.fs, self.num * other.num, tuple(map(add, self.e, other.e)), self.fs[3])

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "_Loc":
        if n < 0:
            raise ValueError("negative powers only via division")
        out = _Loc(self.fs, MPoly.const(self.num.nvars, 1), trials=())
        for _ in range(n):
            out = out * self
        return out

    def __truediv__(self, other) -> "_Loc":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.num.total_degree() != 0:
            raise TypeError("division only by factor monomials in the localized ring")
        c = next(iter(o.num.terms.values()))
        return _Loc(self.fs, self.num * (1 / c), tuple(map(sub, self.e, o.e)), ())

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def diff(self, k: int) -> "_Loc":
        """∂/∂x_k: (num_k·Π f - Σ_i e_i·num·f_i,k·Π_{j≠i} f_j) · Π f^{-(e+1)}."""
        factors = self.fs[0]
        num = self.num.diff(k)
        for f in factors:
            num = num * f
        for i, e in enumerate(self.e):
            if e:
                rest = factors[i].diff(k)
                for j, f in enumerate(factors):
                    if j != i:
                        rest = rest * f
                num = num - self.num * rest * e
        trials = tuple(t for t in self.fs[1] if not (t[5][k] and self.e[t[0]]))
        return _Loc(self.fs, num, tuple(e + 1 for e in self.e), trials)

    def swapped(self) -> "_Loc":
        """The image under x₀ ↔ x₁ (a₀ ↔ b₀ on two cuts), each factor mapped
        to its own swap sign times itself."""
        negate = False
        for s, e in zip(self.fs[2], self.e):
            if e % 2:
                if s is None:
                    raise ValueError("a factor has no image under the swap")
                negate ^= s < 0
        num = swap_vars(self.num)
        return _Loc(self.fs, -num if negate else num, self.e, ())

    def to_ratfunc(self) -> MRatFunc:
        num, den = self.num, MPoly.const(self.num.nvars, 1)
        for f, e in zip(self.fs[0], self.e):
            for _ in range(abs(e)):
                if e > 0:
                    den = den * f
                else:
                    num = num * f
        return MRatFunc(num, den)

    def __repr__(self):
        return f"_Loc({self.num.render()!s}, exponents {self.e})"
