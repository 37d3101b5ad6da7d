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

Process-global caches.  Each memo is a ``functools.lru_cache(maxsize=32)``,
emptied by its ``cache_clear()``.  The four large-N expansions share one
policy: a memo keeps an entry point's finished output per (potential, K), and
a miss solves orders 0..K afresh and keeps none of the solve's working state,
so a call's cost does not depend on which calls came before it and only a
repeat of the same K is served.  ``onecut._regular`` and ``twocut._two_cut``
are keyed by the potential and K (their solve does not depend on T) and
build an engine per miss, which is dropped on return; ``onecut._scaled``,
keyed by (potential, critical point, K), and ``twocut._symmetric``, keyed by
(potential, merging point, K), solve in the memo function itself.  A call
that raises stores nothing.
``phase._branch_elimination`` keeps the two-cut elimination (W_a, L, R) per
potential, since none of it depends on T.
``oracle._standard_nodes`` keeps the tanh-sinh node levels
per (level, precision), ``diffpoly.certify_d_dx`` the ``Poly`` side of its
probe per derivative order, and ``painleve`` its two hierarchy tables, which
only grow.  ``diffpoly``'s jet registry only grows too: it gives each jet
v^{(k)} its key field on first use, and keeps the decoded factor tuple of
every key read.  No output reads field order, so none depends on which jets
a process met first.
"""

__version__ = "0.1.0"
