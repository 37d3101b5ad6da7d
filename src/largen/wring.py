"""Laurent elements on the spectral curve, truncated ε-series over them, and
the lattice identity every large-N engine expands.

The large-N engines manipulate quantities of the shape

    Σ_j  N_j(λ) / w^j,        w² = λ² + d1·λ + d0   (monic),

with the N_j polynomials in λ over some exact coefficient ring (Fractions,
the localised polynomial ring ``mpolys._Loc`` of the regular engines, or
differential polynomials).  ``WElem`` stores them in a normal form — deg N_j ≤ 1 for
j ≥ 2, arbitrary degree at j ∈ {0, 1} — closed under ring operations,
division by w² and by linear polynomials, and d/dT with moving branch
points.

Coefficients only need +, -, *, ** on themselves, coercion of Fraction
scalars from either side, and truthiness == nonzero.  All arithmetic is
exact; nothing here touches floating point.

``Lattice`` holds the one identity all four engines solve (one-cut and
two-cut regular, and the two double-scaled limits); each engine brings
only its coefficient ring, its derivation and its per-order solve.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .errors import certify
from .scalars import is_exact
from .structured import branch_coeff

_ZERO = Fraction(0)
_ONE = Fraction(1)
_LAMBDA = (_ZERO, _ONE)


def _trim(coeffs: list) -> list:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _padd(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        o = out[i]
        # a scalar zero entry takes the addend as it is, not through its reflected add
        out[i] = c if type(o) is Fraction and not o else o + c
    return _trim(out)


def _minus(entry, prod):
    # a scalar entry takes the product's own subtraction, negated, not its
    # reflected one: the same value, without Fraction's failed forward op
    return -(prod - entry) if type(entry) is Fraction else entry - prod


def _pmul(a: Sequence, b: Sequence) -> list:
    if not a or not b:
        return []
    # None marks a power no product reached yet: its first product is stored
    # as it is, not added to a scalar 0 through the operands' reflected add
    out: list = [None] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            if not cb:
                continue
            k, p = i + j, ca * cb
            out[k] = p if out[k] is None else out[k] + p
    return _trim([_ZERO if c is None else c for c in out])


def _pscale(a: Sequence, s) -> list:
    return _trim([c * s for c in a])


def _pshift(a: Sequence, x) -> list:
    """a(λ) → a(ν + x) by Horner's rule, in a's own coefficient ring."""
    out: list = []
    for c in reversed(a):
        out = _padd(_pmul(out, [x, _ONE]), [c])
    return out


class WElem:
    """One element Σ_j N_j/w^j of the curve's Laurent module.

    ``slots`` maps j ≥ 0 to the coefficient list of N_j (index = λ-power).
    The branch data (d1, d0) ride along on every element; binary operations
    check they agree.
    """

    __slots__ = ("d1", "d0", "slots")

    def __init__(self, d1, d0, slots: dict | None = None):
        self.d1, self.d0, self.slots = d1, d0, {}
        if slots:
            for j, coeffs in slots.items():
                cs = _trim(list(coeffs))
                if cs:
                    self.slots[j] = cs
        self._normalize()

    # -- construction ---------------------------------------------------

    @classmethod
    def zero(cls, d1, d0) -> "WElem":
        return cls(d1, d0, {})

    @classmethod
    def from_poly(cls, d1, d0, coeffs: Sequence, wpow: int = 0) -> "WElem":
        """coeffs(λ)/w^wpow."""
        return cls(d1, d0, {wpow: list(coeffs)})

    def _w2_poly(self) -> list:
        return [self.d0, self.d1, _ONE]

    def _normalize(self) -> None:
        # Reduce λ² ≡ w² - d1·λ - d0 in every slot with j ≥ 2.  The w²
        # overflow drops exactly two keys, so walking j downward one step
        # at a time also catches slots the pass itself creates.  Slots come
        # in trimmed and nonempty, so with no slot j ≥ 2 past λ¹ there is nothing to do.
        if all(len(cs) <= 2 for j, cs in self.slots.items() if j >= 2):
            return
        top, d0 = max(self.slots, default=0), self.d0
        for j in range(top, 1, -1):
            if j not in self.slots:
                continue
            cs = self.slots[j]
            # None marks a power no quotient term reached, as in ``_pmul``
            overflow: list = []
            while len(cs) > 2:
                top = cs.pop()
                k = len(cs) - 2  # λ-power of the quotient term
                if not top:
                    continue
                while len(overflow) <= k:
                    overflow.append(None)
                overflow[k] = top if overflow[k] is None else overflow[k] + top
                cs[k + 1] = _minus(cs[k + 1], top * self.d1)
                cs[k] = _minus(cs[k], top * d0 if d0 else d0)  # a zero d0 is its own product
            _trim(cs)
            if not cs:
                del self.slots[j]
            overflow = [_ZERO if c is None else c for c in overflow]
            if _trim(overflow):
                tgt = j - 2
                self.slots[tgt] = _padd(self.slots.get(tgt, []), overflow)
                if not self.slots[tgt]:
                    del self.slots[tgt]
        for j in [k for k, v in self.slots.items() if not v]:
            del self.slots[j]

    def _check_mate(self, other: "WElem") -> None:
        if (self.d1 is not other.d1 or self.d0 is not other.d0) and (
                self.d1 != other.d1 or self.d0 != other.d0):
            raise ValueError("branch data mismatch")

    # -- ring structure ---------------------------------------------------

    def __add__(self, other: "WElem") -> "WElem":
        self._check_mate(other)
        out = {j: list(cs) for j, cs in self.slots.items()}
        for j, cs in other.slots.items():
            out[j] = _padd(out.get(j, []), cs)
        return WElem(self.d1, self.d0, out)

    def __neg__(self) -> "WElem":
        return WElem(
            self.d1, self.d0, {j: [-c for c in cs] for j, cs in self.slots.items()}
        )

    def __sub__(self, other: "WElem") -> "WElem":
        return self + (-other)

    def __mul__(self, other) -> "WElem":
        if not isinstance(other, WElem):
            return self.scale(other)
        self._check_mate(other)
        out: dict = {}
        for ja, ca in self.slots.items():
            for jb, cb in other.slots.items():
                prod = _pmul(ca, cb)
                if prod:
                    j = ja + jb
                    out[j] = _padd(out.get(j, []), prod) if j in out else prod
        return WElem(self.d1, self.d0, out)

    def __rmul__(self, other) -> "WElem":
        return self.scale(other)

    def scale(self, s) -> "WElem":
        return WElem(
            self.d1, self.d0, {j: _pscale(cs, s) for j, cs in self.slots.items()}
        )

    def mul_poly(self, coeffs: Sequence) -> "WElem":
        return WElem(
            self.d1,
            self.d0,
            {j: _pmul(cs, coeffs) for j, cs in self.slots.items()},
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, WElem):
            return NotImplemented
        self._check_mate(other)
        return self.slots == other.slots

    def __bool__(self) -> bool:
        return bool(self.slots)

    def is_zero(self) -> bool:
        return not self.slots

    # -- w-moves ----------------------------------------------------------

    def mul_w(self) -> "WElem":
        out: dict = {}
        for j, cs in self.slots.items():
            if j >= 1:
                out[j - 1] = _padd(out.get(j - 1, []), cs)
            else:
                out[1] = _padd(out.get(1, []), _pmul(cs, self._w2_poly()))
        return WElem(self.d1, self.d0, out)

    def div_w(self) -> "WElem":
        return WElem(self.d1, self.d0, {j + 1: cs for j, cs in self.slots.items()})

    # -- division by linear polynomials ------------------------------------

    def div_linear_root(self, r) -> "WElem":
        """Divide by (λ - r) where r is a branch point: r² + d1·r + d0 = 0.

        Uses 1/(λ-r) = (λ + d1 + r)/w², which keeps everything polynomial.
        """
        if r * r + self.d1 * r + self.d0:
            raise ValueError("not a root of w²")
        cofactor = [self.d1 + r, _ONE]
        return WElem(
            self.d1,
            self.d0,
            {j + 2: _pmul(cs, cofactor) for j, cs in self.slots.items()},
        )

    def div_lambda(self) -> "WElem":
        """Exact division by λ.  Raises ValueError if it does not divide."""
        if not self.d0:
            return self.div_linear_root(_ZERO)
        # λ is not a branch point; solve λ·Z = self per key, descending so
        # each slot's w²-overflow (from λ² ≡ w² - d1·λ - d0) is known when
        # the two keys below it are handled.
        zslots: dict = {}
        carry: dict = {}  # overflow into lower keys, by key
        inv_d0 = None
        top = max(self.slots, default=0)
        for j in range(top, 1, -1):
            if j not in self.slots and j not in carry:
                continue
            cs = self.slots.get(j, [])
            p0 = cs[0] if len(cs) > 0 else _ZERO
            p1 = cs[1] if len(cs) > 1 else _ZERO
            if j in carry:
                p0 = p0 - carry.pop(j)
            # λ(r + sλ) = -d0·s + (r - d1·s)λ + s·w²  ⇒  s = -p0/d0, r = p1 + d1·s
            if inv_d0 is None:
                inv_d0 = _ONE / self.d0
            s = -(p0 * inv_d0)
            r = p1 + self.d1 * s
            out = _trim([r, s])
            if out:
                zslots[j] = out
            if s:
                carry[j - 2] = carry.get(j - 2, _ZERO) + s
        for j in (1, 0):
            cs = list(self.slots.get(j, []))
            if j in carry:
                c = carry.pop(j)
                if cs:
                    cs[0] = cs[0] - c
                else:
                    cs = [-c]
            _trim(cs)
            if not cs:
                continue
            if cs[0]:
                raise ValueError("element is not divisible by λ")
            zslots[j] = cs[1:]
        if carry and any(carry.values()):
            raise ValueError("element is not divisible by λ")
        return WElem(self.d1, self.d0, zslots)

    # -- calculus -----------------------------------------------------------

    def d_dT(self, derive: Callable, dw2: Sequence | None) -> "WElem":
        """Parameter derivative with coefficient derivation ``derive`` and
        d(w²)/dT = dw2[0] + dw2[1]·λ (None when the curve is frozen)."""
        out: dict = {}
        for j, cs in self.slots.items():
            dcs = _trim([derive(c) for c in cs])
            if dcs:
                out[j] = _padd(out.get(j, []), dcs)
            if dw2 is not None and j:
                tail = _pmul(cs, _pscale(dw2, -Fraction(j, 2)))
                if tail:
                    out[j + 2] = _padd(out.get(j + 2, []), tail)
        return WElem(self.d1, self.d0, out)

    def map_coeffs(self, f: Callable) -> "WElem":
        """f applied to each ring coefficient, d1 and d0 too; exact scalars stay as they are."""
        g = lambda c: c if is_exact(c) else f(c)
        return WElem(
            g(self.d1), g(self.d0), {j: [g(c) for c in cs] for j, cs in self.slots.items()}
        )

    # -- extraction -----------------------------------------------------------

    def even_numerator(self) -> tuple[list, int]:
        """(P, M) with self = P(λ)/w^{2M}, clearing denominators over this
        element's own curve; only even w-powers may occur (certified)."""
        certify(all(j % 2 == 0 for j in self.slots), "odd w-power in a rational element")
        M = max(self.slots, default=0) // 2
        w2 = self._w2_poly()
        w2_pow: list[list] = [[_ONE]]
        for _ in range(M):
            w2_pow.append(_pmul(w2_pow[-1], w2))
        P: list = []
        for m in range(M + 1):
            P = _padd(P, _pmul(self.slots.get(2 * m, []), w2_pow[M - m]))
        return P, M

    def contour_pair(self, weight: Sequence):
        """∮ weight(λ)·self · dλ/(2πi) over a cycle around both cuts.

        Equals the residue at infinity (with sign absorbed by the branch
        w ~ +λ); only odd w-powers contribute a branch cut, and the j = 0
        slot is polynomial, hence residue-free.  Even j ≥ 2 slots would be
        honest rational functions — the engines never produce them inside a
        string integrand, so they are rejected loudly.
        """
        acc = self.d1 * 0  # the ring's zero, also when no slot is odd
        for j, cs in self.slots.items():
            if j == 0:
                continue
            if j % 2 == 0:
                raise ValueError("even w-power inside a contour integrand")
            num = _pmul(cs, list(weight))
            acc = acc + branch_coeff(num, self.d1, self.d0, -j, 0, -1)
        return acc

    def __repr__(self) -> str:  # debug aid only
        bits = " + ".join(f"w^-{j}*{self.slots[j]!r}" for j in sorted(self.slots))
        return f"WElem({bits or 0})"


# -- truncated ε-series ----------------------------------------------------


class EpsSeries:
    """Σ_k c_k ε^k, truncated: coefficients are valid for k ≤ order.

    Coefficients are any ring with +, -, * among themselves; ``zero`` is an
    explicit witness used for padding.  ``shift`` implements f(x ± s) as the
    Taylor operator e^{sε·∂} given a derivation on the coefficients.
    """

    __slots__ = ("coeffs", "order", "zero")

    def __init__(self, coeffs: Sequence, order: int, zero):
        self.order = order
        self.zero = zero
        cs = list(coeffs[: order + 1])
        while len(cs) < order + 1:
            cs.append(zero)
        self.coeffs = cs

    def coefficient(self, k: int):
        if k > self.order:
            raise IndexError(f"series truncated at ε^{self.order}")
        return self.coeffs[k]

    def __add__(self, other: "EpsSeries") -> "EpsSeries":
        order = min(self.order, other.order)
        cs = [self.coeffs[k] + other.coeffs[k] for k in range(order + 1)]
        return EpsSeries(cs, order, self.zero)

    def __mul__(self, other: "EpsSeries") -> "EpsSeries":
        order = min(self.order, other.order)
        out = [self.zero for _ in range(order + 1)]
        for i in range(order + 1):
            ci = self.coeffs[i]
            if not ci:
                continue
            for j in range(order + 1 - i):
                cj = other.coeffs[j]
                if not cj:
                    continue
                out[i + j] = out[i + j] + ci * cj
        return EpsSeries(out, order, self.zero)

    def parity_flip(self) -> "EpsSeries":
        """ε → -ε."""
        flipped = [c if k % 2 == 0 else -c for k, c in enumerate(self.coeffs)]
        return EpsSeries(flipped, self.order, self.zero)

    def shift(self, steps: Sequence, derive: Callable) -> list["EpsSeries"]:
        """Taylor shifts e^{s·ε·D}, one per s in ``steps``, from one tower of
        derivatives: new c_k = Σ_i s^i/i! · D^i c_{k-i}."""
        # iterated derivatives computed lazily per source coefficient, shared by every step
        derivs = [[c] for c in self.coeffs]
        shifted = []
        for s in steps:
            out = []
            for k in range(self.order + 1):
                acc = self.coeffs[k]
                fact = Fraction(1)
                for i in range(1, k + 1):
                    fact = fact * s / i
                    row = derivs[k - i]
                    while len(row) <= i:
                        row.append(derive(row[-1]))
                    term = row[i]
                    if term:
                        acc = acc + term * fact
                out.append(acc)
            shifted.append(EpsSeries(out, self.order, self.zero))
        return shifted

    def __repr__(self) -> str:
        return f"EpsSeries({self.coeffs!r}, order={self.order})"


# -- the lattice identity ----------------------------------------------------


class Lattice:
    """The quadratic lattice identity on one curve,

        a · (x + y(T-ε)) · (x + y(T+ε)) = λ (x² - 1),

    expanded as ε-series of curve elements.  The partner ``y`` in the
    shifted slots is the only thing that tells the regimes apart: y = x for
    one cut, the other subsequence's function for two cuts, and
    x.parity_flip() at a merging point.  T → T ± ε is the Taylor shift of
    ``d_dT``, built from the coefficient derivation ``derive`` and
    d(w²)/dT = dw2[0] + dw2[1]·λ (None for a frozen curve); ``one`` is the
    unit of the coefficient ring.  The engines solve it one order at a time
    through ``Defect``; ``defect``, the whole truncated series, is its reference.
    """

    __slots__ = ("d1", "d0", "one", "derive", "dw2", "zero")

    def __init__(self, d1, d0, one, derive: Callable, dw2: Sequence | None):
        self.d1, self.d0, self.one, self.derive, self.dw2 = d1, d0, one, derive, dw2
        self.zero = WElem.zero(d1, d0)

    def embed(self, c) -> WElem:
        """The coefficient c as a λ-constant curve element."""
        return WElem.from_poly(self.d1, self.d0, [c])

    def d_dT(self, e: WElem) -> WElem:
        # slot padding is scalar
        return e.d_dT(lambda c: _ZERO if is_exact(c) else self.derive(c), self.dw2)

    def defect(self, x: EpsSeries, y: EpsSeries, a: EpsSeries) -> EpsSeries:
        """a·(x + y(T-ε))·(x + y(T+ε)) - λ(x² - 1), order by order."""
        ym, yp = y.shift((Fraction(-1), Fraction(1)), self.d_dT)
        lhs, sq = a * ((x + ym) * (x + yp)), x * x
        sq.coeffs[0] = sq.coeffs[0] - self.embed(self.one)
        out = [c - q.mul_poly(_LAMBDA) for c, q in zip(lhs.coeffs, sq.coeffs)]
        return EpsSeries(out, lhs.order, self.zero)


class Defect:
    """``Lattice.defect`` over entry lists that only grow, one ε^n at a time.

    Entry j of the element lists ``x``, ``y`` and of the coefficient list
    ``a`` stands at ε^{step·j}; the caller appends, never changes an entry,
    and ``coefficient(n)`` counts missing entries as 0.  With P, Q = x + y(T∓ε)
    it keeps the Taylor terms Dⁱy_j/i!, P_n, Q_n and (P·Q)_n once final, and
    the ε^n coefficient at n = step·L, L = len(x) = len(y), which no other
    entry reaches: once x_L, y_L are appended it gains only
    2·a₀·P₀·δ + a_L·P₀² - 2λ·x₀·x_L, δ = x_L + y_L (a_L if it was missing).
    """

    __slots__ = ("lat", "x", "y", "a", "step", "towers", "sums", "prods", "pending")

    def __init__(self, lat: Lattice, x: list, y: list, a: list, step: int):
        self.lat, self.x, self.y, self.a, self.step = lat, x, y, a, step
        self.towers, self.sums, self.prods = [], [], []  # Dⁱy_j/i!, final (P_n, Q_n), (P·Q)_n
        self.pending = None  # (n, list lengths, (P·Q)_n, ε^n coefficient) before x_L, y_L

    def _kept(self, memo: list, n: int, fresh: Callable):
        while len(memo) <= n and len(memo) < self.step * min(len(self.x), len(self.y)):
            memo.append(fresh(len(memo)))  # final: every entry reaching ε^n is known
        return memo[n] if n < len(memo) else fresh(n)

    def _sum(self, n: int) -> tuple:
        return self._kept(self.sums, n, self._shift)

    def _shift(self, n: int) -> tuple:
        s, x, zero = self.step, self.x, self.lat.zero
        # x_{n/s} plus Σ Dⁱy_j/i! over i + s·j = n, split by the parity of i
        parts = [x[n // s] if n % s == 0 and n // s < len(x) else zero, zero]
        for j in range(min(n // s + 1, len(self.y))):
            if j == len(self.towers):
                self.towers.append([self.y[j]])
            row, i = self.towers[j], n - s * j
            while len(row) <= i:
                row.append(self.lat.d_dT(row[-1]).scale(Fraction(1, len(row))))
            parts[i % 2] = parts[i % 2] + row[i]
        return parts[0] + parts[1].scale(-_ONE), parts[0] + parts[1]

    def _prod(self, n: int) -> WElem:
        def fresh(m):
            # at step 2, Q_q = (−1)^q·P_q, so at even m the terms q and m − q
            # agree; odd m, the odd-order certificates, sum every term
            half = self.step == 2 and m % 2 == 0
            out = self.lat.zero
            for q in range(m // 2 if half else m + 1):
                p, r = self._sum(q)[0], self._sum(m - q)[1]
                if p and r:
                    out = out + p * r
            if half:
                out = out.scale(2)
                p, r = self._sum(m // 2)
                if p and r:
                    out = out + p * r
            return out

        return self._kept(self.prods, n, fresh)

    def fork(self, x: list, y: list, a: list) -> "Defect":
        """This defect, grown apart over copies ``x``, ``y``, ``a`` of its entry lists."""
        out = Defect(self.lat, x, y, a, self.step)
        out.towers, out.sums, out.prods = [r[:] for r in self.towers], self.sums[:], self.prods[:]
        out.pending = self.pending
        return out

    def coefficient(self, n: int) -> WElem:
        """The ε^n coefficient of the defect on the entries given so far."""
        lat, x, y, a, s = self.lat, self.x, self.y, self.a, self.step
        lengths = (len(x), len(y), len(a))
        pend = self.pending
        if pend and pend[0] == n and min(lengths) > pend[1][0]:
            _, before, pq, value = pend
            L, self.pending = before[0], None
            cross = (self._sum(0)[0] * (x[L] + y[L])).scale(2)  # (P·Q)_n gains P₀δ + δQ₀
            if len(self.prods) == n:
                self.prods.append(pq + cross)
            value = value + lat.embed(a[0]) * cross - (x[0] * x[L]).scale(2).mul_poly(_LAMBDA)
            return value + lat.embed(a[L]) * self._prod(0) if before[2] == L else value
        pq, value, sq = self._prod(n), lat.zero, lat.zero
        for p in range(min(n // s + 1, len(a))):
            c = self._prod(n - s * p) if p else pq
            if c:
                value = value + lat.embed(a[p]) * c
        if n % s == 0:
            for p in range(max(0, n // s + 1 - len(x)), min(n // s + 1, len(x))):
                sq = sq + x[p] * x[n // s - p]
        value = value - (sq - lat.embed(lat.one) if n == 0 else sq).mul_poly(_LAMBDA)
        if n and n % s == 0 and lengths[0] == lengths[1] == n // s <= lengths[2]:
            self.pending = (n, lengths, pq, value)
        return value

    def certify(self, n: int, what: str) -> None:
        """Raise ``Mismatch`` unless the ε^n coefficient vanishes."""
        certify(self.coefficient(n).is_zero(), f"{what} at ε^{n} is nonzero")

