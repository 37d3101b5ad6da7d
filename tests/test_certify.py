"""Package-wide checks: certificates survive ``python -O``, the zero
tolerance lives in one place, differential polynomials stay over ℚ, and
every name the benchmark's spans wrap still exists and installs."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "largen"


def test_package_has_no_assert_statement():
    # ``python -O`` strips assert statements; certificates use errors.certify
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found


def test_zero_tolerance_is_defined_once():
    # when an mpf counts as zero is decided by scalars.tolerance alone
    found = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if "digits // 2" in path.read_text(encoding="utf-8")
    ]
    assert found == ["scalars.py"]


def test_diffpoly_never_names_rationalfunc():
    # DiffPoly coefficients are Fractions; ρ-dependent coefficients are built
    # only where a symbolic hierarchy member is rendered (painleve)
    found = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if "RationalFunc" in path.read_text(encoding="utf-8")
    ]
    assert "diffpoly.py" not in found
    assert found == ["onecut.py", "painleve.py", "polys.py"]


def test_benchmark_span_targets_resolve():
    # perfbench/spans.py wraps largen names from outside; a deleted name
    # drops its layer and leaves a traced benchmark run malformed.  Resolved
    # here by import and getattr alone, installing no wrapper.
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for targets in spans.LAYERS.values():
        for target in targets:
            modname, _, path = target.partition(":")
            obj = importlib.import_module(f"largen.{modname}")
            for name in path.split("."):
                obj = getattr(obj, name, None)
            if not callable(obj):
                missing.append(target)
    assert not missing, missing
    assert {"phase:solve_two_cut", "roots:real_roots", "structured:branch_coeff"} <= {
        t for targets in spans.LAYERS.values() for t in targets
    }


def test_benchmark_spans_install_with_no_target_missing():
    # what a traced benchmark run does first: wrap every target for real, in a
    # fresh interpreter, and report the ones it could not find
    code = ("import json, spans; present, missing = spans.install(spans.Recorder()); "
            "print(json.dumps([sorted(present), missing]))")
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    run = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=120, check=True)
    present, missing = json.loads(run.stdout.splitlines()[-1])
    assert missing == []
    assert {"mpolys.mpoly_ops", "twocut.loc_ops", "twocut.engine_run"} <= set(present)
