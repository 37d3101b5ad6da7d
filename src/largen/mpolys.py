"""Sparse multivariate polynomials over the rationals, and the localised
ring both regular engines compute in.

An ``MPoly`` carries ρ = r₀ on one cut and the leading endpoints (a₀, b₀)
on two.  It is an ``IntTable``, as is ``diffpoly.DiffPoly``: integer
numerators over one positive denominator, {exponent tuple: int} / den, with
gcd(den, numerators) = 1 and no zero entry, so equal polynomials have equal
tables and the arithmetic runs on ints alone; ``terms`` is the read-only
{exponents: Fraction} view, in the table's insertion order.  Exact division
(``greedy_div``) divides by the primitive part of the divisor's numerators:
by Gauss's lemma an exact quotient then has integer coefficients, so a
leading coefficient that does not divide proves the division inexact.

``_Loc`` is ℚ[x][1/f_1, .., 1/f_k] for fixed factors f_i, kept canonical
by trial division that a modular image filters.

``MRatFunc`` deliberately skips gcd reduction — multivariate gcds are
expensive and nothing downstream needs canonical forms, only exact
arithmetic and a reliable equality test, which cross-multiplication provides.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, sub
from typing import Mapping

import mpmath

from .scalars import as_fraction, is_exact, mpf_of

_ZERO = Fraction(0)


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


class IntTable:
    """Integer numerators ``nums`` {key: int} over ``den``, as ``reduced``
    leaves them; subclasses supply ``_coerce`` and the ring operations."""

    __slots__ = ("den", "nums")

    @property
    def terms(self) -> dict:
        """{key: Fraction coefficient}, a fresh dict in insertion order."""
        return {k: Fraction(n, self.den) for k, n in self.nums.items()}

    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.den, frozenset(self.nums.items())))

    def _sum(self, other: "IntTable") -> tuple[int, dict]:
        """The numerators of self + other over the lcm of the denominators."""
        den = lcm(self.den, other.den)
        m1, m2 = den // self.den, den // other.den
        out = dict(self.nums) if m1 == 1 else {k: n * m1 for k, n in self.nums.items()}
        for k, n in other.nums.items():
            out[k] = out.get(k, 0) + n * m2
        return den, out


class MPoly(IntTable):
    """Polynomial in ``nvars`` variables: ``nums`` {exponent tuple: int} over ``den``."""

    __slots__ = ("nvars",)

    def __init__(self, nvars: int, terms: Mapping[tuple, object] | None = None):
        clean: dict[tuple, Fraction] = {}
        if terms:
            for exps, c in terms.items():
                c = as_fraction(c)
                if c:
                    if len(exps) != nvars:
                        raise ValueError("exponent tuple has wrong arity")
                    clean[tuple(exps)] = clean.get(tuple(exps), _ZERO) + c
        # over the lcm of the reduced denominators, numerators share no factor with it
        den = lcm(*(c.denominator for c in clean.values()))
        self.nvars, self.den = nvars, den
        self.nums = {e: c.numerator * (den // c.denominator) for e, c in clean.items() if c}

    @classmethod
    def _trusted(cls, nvars: int, den: int, nums: dict) -> "MPoly":
        """Wrap numerators over ``den`` > 0 in lowest terms (``reduced``), in
        their insertion order (``eval`` sums in it)."""
        out = cls.__new__(cls)
        out.nvars = nvars
        out.den, out.nums = reduced(den, nums)
        return out

    @classmethod
    def const(cls, nvars: int, c) -> "MPoly":
        c = as_fraction(c)
        return cls._trusted(nvars, c.denominator, {(0,) * nvars: c.numerator})

    @classmethod
    def var(cls, nvars: int, i: int) -> "MPoly":
        e = [0] * nvars
        e[i] = 1
        return cls._trusted(nvars, 1, {tuple(e): 1})

    def _coerce(self, other):
        if isinstance(other, MPoly):
            if other.nvars != self.nvars:
                raise ValueError("mixing MPolys of different arity")
            return other
        if is_exact(other):
            return MPoly.const(self.nvars, other)
        return NotImplemented

    def __add__(self, other) -> "MPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return MPoly._trusted(self.nvars, *self._sum(other))

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return MPoly._trusted(self.nvars, self.den, {e: -n for e, n in self.nums.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other) -> "MPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[tuple, int] = {}
        get = out.get
        for e1, n1 in self.nums.items():
            for e2, n2 in other.nums.items():
                e = tuple(map(add, e1, e2))
                out[e] = get(e, 0) + n1 * n2
        return MPoly._trusted(self.nvars, self.den * other.den, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise ValueError("negative power of an MPoly")
        result = MPoly.const(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def diff(self, i: int) -> "MPoly":
        out: dict[tuple, int] = {}
        for e, n in self.nums.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                out[tuple(e2)] = n * e[i]
        return MPoly._trusted(self.nvars, self.den, out)

    def eval(self, point):
        """Evaluate at a point of exact or mpf coordinates."""
        if len(point) != self.nvars:
            raise ValueError("point has wrong arity")
        exact = all(is_exact(v) for v in point)
        acc = None
        for e, c in self.terms.items():
            # keep any mpf on the left: Fraction.__op__(mpf) is NotImplemented
            val = c if exact else mpf_of(c, mpmath.mp.dps)
            for v, k in zip(point, e):
                if k:
                    val = val * v**k
            acc = val if acc is None else acc + val
        if acc is None:
            return _ZERO if exact else mpmath.mpf(0)
        return acc

    def total_degree(self) -> int:
        return max((sum(e) for e in self.nums), default=-1)

    def render(self, names=None) -> str:
        terms = self.terms
        if not terms:
            return "0"
        names = names or [f"x{i}" for i in range(self.nvars)]
        parts = []
        for e in sorted(terms, key=lambda t: (sum(t), t), reverse=True):
            c = terms[e]
            mons = [
                names[i] if k == 1 else f"{names[i]}^{k}"
                for i, k in enumerate(e)
                if k
            ]
            mon = "*".join(mons)
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


def greedy_div(p: MPoly, d: MPoly):
    """p/d as an MPoly, or None when the division is not exact.

    Greedy leading-term division in lex order of p's numerators by the
    primitive part of d's, which for a monomial order succeeds if and only
    if d | p.  An exact quotient is then integral (Gauss's lemma), so a
    leading coefficient that does not divide ends it early.
    """
    content = gcd(*d.nums.values())
    dn = {e: n // content for e, n in d.nums.items()}
    lead = max(dn)
    lc = dn.pop(lead)
    rem, out = dict(p.nums), {}
    while rem:
        e = max(rem)
        q = tuple(a - b for a, b in zip(e, lead))
        if min(q) < 0:
            return None
        c, r = divmod(rem.pop(e), lc)
        if r:
            return None
        out[q] = c
        for de, dc in dn.items():
            ke = tuple(map(add, q, de))
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


def mod_image(p: MPoly):
    """φ(den·p) of a uni- or bivariate p, as a coefficient list in x₀ (lowest
    first, entries not reduced), or None when P divides den.  den is a unit
    mod P otherwise, so this is φ(p) up to that unit, which divisibility ignores."""
    if not p.den % MOD_P:
        return None
    out = [0] * (max((e[0] for e in p.nums), default=-1) + 1)
    if p.nvars == 1:
        for (ea,), n in p.nums.items():
            out[ea] += n
        return out
    for (ea, eb), n in p.nums.items():
        out[ea] += n * (_BPOW[eb] if eb < len(_BPOW) else pow(_BSTAR, eb, MOD_P))
    return out


def swap_vars(p: MPoly) -> MPoly:
    """p with its two variables exchanged."""
    return MPoly._trusted(2, p.den, {(e[1], e[0]): n for e, n in p.nums.items()})


class MRatFunc:
    """Quotient of MPolys, kept unreduced; equality by cross-multiplication."""

    __slots__ = ("num", "den")

    def __init__(self, num: MPoly, den: MPoly | None = None):
        if den is None:
            den = MPoly.const(num.nvars, 1)
        if den.is_zero():
            raise ZeroDivisionError("MRatFunc with zero denominator")
        if num.is_zero():
            den = MPoly.const(num.nvars, 1)
        self.num, self.den = num, den

    @classmethod
    def const(cls, nvars: int, c) -> "MRatFunc":
        return cls(MPoly.const(nvars, c))

    @classmethod
    def var(cls, nvars: int, i: int) -> "MRatFunc":
        return cls(MPoly.var(nvars, i))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.is_zero()

    def _coerce(self, other):
        if isinstance(other, MRatFunc):
            return other
        if isinstance(other, MPoly):
            return MRatFunc(other)
        if is_exact(other):
            return MRatFunc.const(self.num.nvars, other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __add__(self, other) -> "MRatFunc":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return MRatFunc(self.num + other.num, self.den)
        return MRatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "MRatFunc":
        return MRatFunc(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other) -> "MRatFunc":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return MRatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "MRatFunc":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero MRatFunc")
        return MRatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n: int) -> "MRatFunc":
        if n < 0:
            return MRatFunc(self.den**-n, self.num**-n)
        return MRatFunc(self.num**n, self.den**n)

    def diff(self, i: int) -> "MRatFunc":
        return MRatFunc(
            self.num.diff(i) * self.den - self.num * self.den.diff(i),
            self.den * self.den,
        )

    def eval(self, point):
        den = self.den.eval(point)
        if den == 0:
            raise ZeroDivisionError("pole of MRatFunc at evaluation point")
        return self.num.eval(point) / den

    def render(self, names=None) -> str:
        if self.den == MPoly.const(self.den.nvars, 1):
            return self.num.render(names)
        return f"({self.num.render(names)})/({self.den.render(names)})"

    def __repr__(self):
        return f"MRatFunc({self.render()})"


# -- the localised ring ---------------------------------------------------------


def _monic_image(d: MPoly):
    """φ(d) made monic, or None when it cannot filter: the denominator of d
    is divisible by P, or φ(d) is a constant (or zero)."""
    img = mod_image(d)
    if img is None:
        return None
    img = [v % MOD_P for v in img]
    while img and not img[-1]:
        img.pop()
    if len(img) < 2:
        return None
    inv = pow(img[-1], -1, MOD_P)
    return [v * inv % MOD_P for v in img]


def _image_divisible(f: list, g: list) -> bool:
    """Whether the monic g divides f in F_P[x₀] (f is consumed)."""
    n = len(g) - 1
    for top in range(len(f) - 1, n - 1, -1):
        c = f[top] % MOD_P
        if c:
            base = top - n
            for k in range(n):
                f[base + k] -= c * g[k]
    return not any(v % MOD_P for v in f[:n])


def _exact_div(p: MPoly, d: MPoly, d_img, img=None):
    """p/d as an MPoly, or None when d does not divide p.

    ``d_img`` is ``_monic_image(d)``, and ``img`` is ``mod_image(p)`` when
    the caller has it (the list is consumed).  φ (``mod_image``) reads the
    integer numerators of p and d directly.  If p = q·d over ℚ and neither
    denominator is divisible by P, Gauss's lemma over ℤ_(P) makes q
    P-integral, so φ(d) divides φ(p); a nonzero remainder of φ(p) mod φ(d)
    therefore proves d ∤ p.  Every other case is decided by ``greedy_div``,
    whose integer leading-coefficient test (Gauss's lemma over ℤ) can stop
    it early.
    """
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
    """The fixed factors f_i of a localised ring, as ``_Loc`` shares them:
    (factors, trial divisors, swap signs).  A trial divisor is (i, f_i,
    ``_monic_image(f_i)``) for each f_i of positive degree; a unit is never
    trial-divided, since ``greedy_div`` by a constant always succeeds.  The
    swap sign is ±1 when f_i(x₁, x₀) = ±f_i(x₀, x₁), else None."""
    trials = tuple(
        (i, f, _monic_image(f)) for i, f in enumerate(factors) if f.total_degree() > 0
    )
    swaps = [swap_vars(f) if f.nvars == 2 else None for f in factors]
    signs = tuple(1 if s == f else -1 if s == -f else None for f, s in zip(factors, swaps))
    return factors, trials, signs


class _Loc:
    """num · Π f_i^{-e_i}: the polynomial ring localised at the fixed factors
    (``loc_factors``) every denominator of a regular expansion is built from —
    W'(ρ) on one cut, the hodograph Jacobian det and b₀-a₀ on two.

    Unreduced quotients square in size under the d/dT chains the lattice
    shifts generate; tracking the known factors as integer exponents instead
    keeps all polynomial arithmetic on numerators.  Construction
    re-canonicalizes by trial division, so exponents can go negative
    (factors in the numerator) and values have one representation — cheap
    equality.  Most trial divisions fail, and ``_exact_div`` proves that from
    the image mod P of the integer numerators before dividing; a division it
    lets through runs on those integers too (``greedy_div``).  Fraction and
    int operands act as constants.  Every result is built in a fixed
    operation order, since an MPoly's term order fixes how ``eval`` sums it.
    """

    __slots__ = ("fs", "num", "e")

    def __init__(self, fs: tuple, num: MPoly, e: tuple | None = None, canonical: bool = False):
        if not num or e is None:
            e = (0,) * len(fs[0])
        if num and not canonical:
            img = mod_image(num)
            for i, f, f_img in fs[1]:
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
        if isinstance(other, (Fraction, int)):
            return _Loc(self.fs, MPoly.const(self.num.nvars, other), canonical=True)
        return None

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        E = tuple(map(max, self.e, o.e))
        return self._lift(E) == o._lift(E)

    def __add__(self, other) -> "_Loc":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        E = tuple(map(max, self.e, o.e))
        return _Loc(self.fs, self._lift(E) + o._lift(E), E)

    __radd__ = __add__

    def __neg__(self) -> "_Loc":
        return _Loc(self.fs, -self.num, self.e, canonical=True)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (Fraction, int)):
            return _Loc(self.fs, self.num * other, self.e, canonical=True)
        if not isinstance(other, _Loc):
            return NotImplemented
        return _Loc(self.fs, self.num * other.num, tuple(map(add, self.e, other.e)))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "_Loc":
        if n < 0:
            raise ValueError("negative powers only via division")
        out = _Loc(self.fs, MPoly.const(self.num.nvars, 1), canonical=True)
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
        return _Loc(self.fs, self.num * (1 / c), tuple(map(sub, self.e, o.e)), canonical=True)

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
        return _Loc(self.fs, num, tuple(e + 1 for e in self.e))

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
        return _Loc(self.fs, -num if negate else num, self.e, canonical=True)

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
