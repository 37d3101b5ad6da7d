"""Even polynomial potentials and their derived structural polynomials.

A potential is determined by its couplings ``gs = (g2, g4, ..., g_{2p})``
with g_{2p} > 0; in the squared variable λ = z² it reads
V(λ) = Σ_{k≥1} gs[k-1]·λ^k.  Couplings are exact rationals throughout —
floating point enters only when results are evaluated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import LargenError
from .polys import Poly
from .structured import hodograph_poly, v_poly, v_prime


class BadPotential(LargenError):
    """Malformed couplings or unparseable potential description."""


def _coerce_coupling(x) -> Fraction:
    """A Fraction, int, rational string or [num, den] pair of ints, as a
    Fraction; anything else, a bool and a zero denominator included, raises
    ``BadPotential``."""
    if isinstance(x, float):
        raise BadPotential(
            f"refusing float coupling {x!r}: pass a rational like '1/2' or [1, 2]"
        )
    pair = isinstance(x, (list, tuple)) and len(x) == 2 and all(type(v) is int for v in x)
    if pair or isinstance(x, (Fraction, str)) or type(x) is int:
        try:
            return Fraction(*x) if pair else Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise BadPotential(f"cannot read coupling {x!r}")


@dataclass(frozen=True)
class Potential:
    """Even polynomial matrix-model potential."""

    gs: tuple
    label: str = field(default="", compare=False)

    def __post_init__(self):
        gs = tuple(_coerce_coupling(g) for g in self.gs)
        if not gs:
            raise BadPotential("a potential needs at least one coupling")
        if gs[-1] <= 0:
            raise BadPotential("leading coupling must be positive for a confining well")
        object.__setattr__(self, "gs", gs)

    # -- constructors -----------------------------------------------------

    @classmethod
    def gaussian(cls) -> "Potential":
        return cls((Fraction(1),), label="gaussian")

    @classmethod
    def quartic(cls, g2, g4) -> "Potential":
        return cls((g2, g4), label="quartic")

    @classmethod
    def bmp(cls) -> "Potential":
        """The degree-six well 90λ - 15λ² + λ³ with a third-order critical point."""
        return cls((Fraction(90), Fraction(-15), Fraction(1)), label="bmp")

    # -- basic shape --------------------------------------------------------

    def v(self) -> Poly:
        """V(λ)."""
        return v_poly(self.gs)

    def v_lambda(self) -> Poly:
        """V'(λ)."""
        return v_prime(self.gs)

    def hodograph(self) -> Poly:
        """W(r) = Σ C(2k,k)·k·g_{2k}·r^k; the planar string equation is W(r0)=T."""
        return hodograph_poly(self.gs)

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        return {"g": [[g.numerator, g.denominator] for g in self.gs]}

    def describe(self) -> str:
        """The ``parse_potential`` text of this potential."""
        if self.label in ("gaussian", "bmp"):
            return self.label
        return f"{self.label or 'gs'}:" + ",".join(str(g) for g in self.gs)

    def __str__(self) -> str:
        terms = []
        for k, g in enumerate(self.gs, start=1):
            if not g:
                continue
            c = "" if g == 1 and k > 0 else f"{g}·"
            terms.append(f"{c}z^{2 * k}")
        return " + ".join(terms).replace("+ -", "- ") or "0"


_NAMED_ARITY = {"gaussian": 0, "quartic": 2, "sextic": 3, "octic": 4}


def parse_potential(text: str) -> Potential:
    """Read a potential from a CLI-style description.

    Accepted forms:
      * named:        ``gaussian``, ``bmp``, ``quartic:-2,1``, ``sextic:42,-11,1``,
                      ``octic:...``, and the generic ``gs:g2,g4,...``
      * inline JSON:  ``{"g": [[-2,1],[1,1]]}``  (couplings as [num, den] pairs)
      * a file:       ``@path/to/potential.json`` with the same schema

    Rational couplings may be written like ``-2``, ``1/2``, or ``0.25``.
    """
    text = text.strip()
    if not text:
        raise BadPotential("empty potential description")
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                return potential_from_json(json.load(fh))
        except OSError as exc:
            raise BadPotential(f"cannot read potential file {text[1:]!r}: {exc}")
        except json.JSONDecodeError as exc:
            raise BadPotential(f"bad JSON in {text[1:]!r}: {exc}")
    if text.startswith("{") or text.startswith("["):
        try:
            return potential_from_json(json.loads(text))
        except json.JSONDecodeError as exc:
            raise BadPotential(f"bad inline JSON: {exc}")
    name, _, params = text.partition(":")
    name = name.strip().lower()
    parts = [p.strip() for p in params.split(",") if p.strip()] if params else []
    if name == "bmp":
        if parts:
            raise BadPotential("bmp takes no parameters")
        return Potential.bmp()
    if name == "gaussian":
        if parts:
            raise BadPotential("gaussian takes no parameters")
        return Potential.gaussian()
    if name in _NAMED_ARITY:
        want = _NAMED_ARITY[name]
        if len(parts) != want:
            raise BadPotential(f"{name} needs {want} couplings, got {len(parts)}")
        return Potential(tuple(parts), label=name)
    if name == "gs":
        if not parts:
            raise BadPotential("gs: needs at least one coupling")
        return Potential(tuple(parts), label="")
    raise BadPotential(
        f"unknown potential {name!r} (try quartic:g2,g4 | bmp | gs:... | inline JSON | @file)"
    )


def potential_from_json(obj) -> Potential:
    if isinstance(obj, dict) and "g" in obj:
        obj = obj["g"]
    if isinstance(obj, list):
        return Potential(tuple(obj))
    raise BadPotential('potential JSON must be {"g": [[num,den],...]} or a plain list')
