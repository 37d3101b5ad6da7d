"""Large-N analysis of Hermitian matrix models with even polynomial potentials.

The package computes, exactly where possible:

* the planar (leading-order) phase structure — one-cut or two-cut support
  of the eigenvalue density, with closed forms for quartic potentials;
* large-N expansions of the orthogonal-polynomial recurrence coefficients
  in both phases, as exact rational functions of the leading-order data;
* critical points of both phases, their order, and the scaled expansions
  that hold there;
* the member of the Painlevé I or Painlevé II hierarchy satisfied by the
  scaling function at each critical point;
* a finite-N oracle (high-precision Hankel/moment computation) used to
  cross-check every expansion numerically.

Everything symbolic is exact.  Polynomials in one variable (``Poly``), in
several (``MPoly``) and differential ones (``DiffPoly``) are
``mpolys.IntTable``s: integer numerators over one positive denominator, in
lowest terms.  The base class owns their scalars, sums, products (keys
multiply by adding), equality, hash and powers, each ring the top bits of
its exponent fields, its calculus and rendering; arithmetic, gcds and
Sturm signs run on Python ints, and ``Fraction`` is the view they render
and evaluate through.  Their quotients share one fraction field,
``mpolys.Quotient``: reduced with a monic denominator in one variable,
unreduced in several (``MRatFunc``).  The regular engines compute in
``mpolys._Loc``, whose factors certified prime (Ben-Or's test) spare
products trial division.
Floating point enters only at evaluation boundaries, via mpmath at a
caller-chosen precision.

Process-global tables, each with the work that reuses it; no other
module-level table grows (``tests/test_memos.py``).  The memos are
``functools`` caches, the four large-N expansions' ``lru_cache(maxsize=32)``,
emptied by ``cache_clear()``; a call that raises stores no output.
* ``onecut._regular`` and ``twocut._two_cut``, the finished output per
  (potential, K): a temperature sweep repeats one K, and the solve does not
  depend on T.  A miss solves orders 0..K afresh and keeps no working state,
  whose towers are large at depth: a sweep has no second K to extend to.
* ``onecut._scaled``, the finished series per (potential, critical point, K),
  each solved from order 0: its cost is that of K alone, where growth in K is read.
* ``twocut._symmetric`` per (potential, merging point), a ``diffpoly.HeldSolve``:
  the solve held at order 2m, which every K repeats, and the series forked from
  it per K.  Forks grow the held layout, so the package is single-threaded.
* ``phase._branch_elimination``, the two-cut elimination (W_a, L, R) per
  potential: classification asks for it at each temperature of a sweep.
* ``oracle._standard_nodes``, the tanh-sinh node levels per (level,
  precision): every moment table at that precision reads them.
* ``mpolys._layout``, the key layout per variable count: every ``MPoly`` reads it.
* ``diffpoly._LAYOUT``, the jet layout a new ``DiffPoly`` takes: the field of
  each jet v^{(k)}, given on first use, and the factors of each key decoded,
  which d/dx, the sorts and every rendering read many times.  It is the key
  encoding, not a memo, and no output reads field order.  The double-scaled
  and Painlevé entry points each solve in a new one, which their results
  keep, so jets the process met before widen none of their keys.
"""

__version__ = "0.1.0"
