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

Everything symbolic runs over ``fractions.Fraction``; floating point enters
only at evaluation boundaries, via mpmath at a caller-chosen precision.

Process-global caches.  Each memo is a ``functools.lru_cache(maxsize=32)``,
emptied by its ``cache_clear()``.  The two regular engines are kept per
process and resumed order by order, so a call re-solves no order an earlier
call solved: ``onecut._regular_engine`` and ``twocut._two_cut_engine``, keyed
by the potential (their solve does not depend on T), also emptied when an
extension raises.  The double-scaled series are kept whole, per K:
``onecut._scaled`` by (potential, critical point, K) and ``twocut._symmetric``
by (potential, merging point, K); a call at a new K solves orders 0..K
afresh, so its cost does not depend on which calls came before it.
``oracle._standard_nodes`` keeps the tanh-sinh node levels
per (level, precision), ``diffpoly.certify_d_dx`` the ``Poly`` side of its
probe per derivative order, and ``painleve`` its two hierarchy tables, which
only grow.
"""

__version__ = "0.1.0"
