"""Per-layer spans, recorded by wrapping largen's functions and ring methods from outside.

``install`` replaces each target named in ``LAYERS`` with a wrapper that
opens a span around the call.  A span's self time is its duration minus
the part covered by the spans opened inside it, so each layer is charged
only for its own work; inclusive time is counted once per outermost call,
so recursion does not count twice.  Nothing in ``largen`` is edited.

Targets are written ``module:Name`` (a module-level function, replaced in
every loaded module that imported it, the benchmark's own included),
``module:Class.method`` (replaced on the class) or ``module:mpmath.quad``
(the module's ``mpmath`` reference is swapped for a proxy whose ``quad`` is
wrapped, so only that module's calls are counted).  A target that no longer exists is reported as missing, and
a layer whose targets are all missing is absent from the per-layer report.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types

_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__",
          "__pow__")
_FIELD = _ARITH + ("__truediv__", "__rtruediv__")


def _ops(target: str, names: tuple) -> tuple:
    return tuple(f"{target}.{n}" for n in names)


LAYERS = {
    "polys.gcd": ("polys:Poly.gcd",),
    "polys.divmod": ("polys:Poly.divmod",),
    "polys.ratfunc_ops": _ops("polys:RationalFunc", _FIELD + ("derivative",)),
    "twocut.loc_ops": _ops("twocut:_Loc", _FIELD + ("diff", "swapped")),
    "twocut.expand": ("twocut:expand_two_cut_regular",),
    "twocut.engine_run": ("twocut:_TwoCutRegularEngine.run",),
    "onecut.expand": ("onecut:expand_regular", "onecut:u_series_coefficients"),
    "onecut.engine_run": ("onecut:_RegularEngine.run",),
    "mpolys.mpoly_ops": _ops("mpolys:MPoly", _ARITH + ("diff",)),
    "mpolys.mratfunc_ops": _ops("mpolys:MRatFunc", _FIELD + ("diff",)),
    "wring.welem_mul": ("wring:WElem.__mul__",),
    "wring.eps_mul": ("wring:EpsSeries.__mul__",),
    "wring.shift": ("wring:EpsSeries.shift",),
    "wring.contour_pair": ("wring:WElem.contour_pair",),
    "diffpoly.ops": _ops("diffpoly:DiffPoly", _ARITH),
    "diffpoly.d_dx": ("diffpoly:DiffPoly.d_dx",),
    "diffpoly.substitute": ("diffpoly:DiffPoly.substitute",),
    "painleve.crosscheck": ("painleve:crosscheck_via_series",),
    "painleve.gelfand_dikii": ("painleve:gelfand_dikii",),
    "structured.branch_coeff": ("structured:branch_coeff",),
    "phase.solve_two_cut": ("phase:solve_two_cut",),
    "phase.solve_one_cut": ("phase:solve_one_cut",),
    "phase.classify_phase": ("phase:classify_phase",),
    "roots.real_roots": ("roots:real_roots",),
    "oracle.compute_moments": ("oracle:compute_moments",),
    "oracle.quad": ("oracle:mpmath.quad",),
    "oracle.reduction": ("oracle:recurrence_from_moments",),
}


class Recorder:
    """Aggregates nested spans into calls, inclusive and self seconds per layer."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict = {}  # layer -> [calls, incl_s, self_s]
        self._depth: dict = {}  # layer -> spans of it now open
        self._covered = [0.0]  # per open span: time taken by its child spans

    def wrap(self, layer: str, fn):
        stat = self.stats.setdefault(layer, [0, 0.0, 0.0])
        self._depth.setdefault(layer, 0)
        depth, covered, clock = self._depth, self._covered, self.clock

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stat[0] += 1
            depth[layer] += 1
            covered.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                stat[2] += took - covered.pop()
                covered[-1] += took
                depth[layer] -= 1
                if not depth[layer]:
                    stat[1] += took

        return span

    def reset(self) -> None:
        """Zero every count, e.g. after set-up, keeping the installed wrappers."""
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]


class _ModuleProxy(types.ModuleType):
    """Stands in for a module inside one largen module, overriding some names."""

    def __init__(self, module, **overrides):
        super().__init__(module.__name__)
        self.__dict__.update(overrides)
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


def install(recorder: Recorder, layers: dict = LAYERS) -> tuple[set, list]:
    """Wrap every target; returns (layers present, targets missing)."""
    present, missing = set(), []
    for layer, targets in layers.items():
        for target in targets:
            if _wrap_target(recorder, layer, target):
                present.add(layer)
            else:
                missing.append(target)
    return present, missing


def _wrap_target(recorder: Recorder, layer: str, target: str) -> bool:
    modname, _, path = target.partition(":")
    try:
        module = importlib.import_module(f"largen.{modname}")
    except ImportError:
        return False
    owner_name, _, attr = path.rpartition(".")
    if not owner_name:
        fn = getattr(module, attr, None)
        if not callable(fn):
            return False
        wrapped = recorder.wrap(layer, fn)
        for mod in list(sys.modules.values()):
            for key, value in list(getattr(mod, "__dict__", {}).items()):
                if value is fn:
                    setattr(mod, key, wrapped)
        return True
    owner = getattr(module, owner_name, None)
    if isinstance(owner, types.ModuleType):
        fn = getattr(owner, attr, None)
        if not callable(fn):
            return False
        setattr(module, owner_name, _ModuleProxy(owner, **{attr: recorder.wrap(layer, fn)}))
        return True
    fn = vars(owner).get(attr) if isinstance(owner, type) else None
    if not callable(fn):
        return False
    setattr(owner, attr, recorder.wrap(layer, fn))
    return True
