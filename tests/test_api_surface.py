"""Every public function, class and method of quermass has a reader
outside the tests, or a reason on KEPT_FOR_TESTS to exist without one.

A reader is any use by name in the package, the demos or the benchmark
harness: a call, an attribute, an import, or a dotted-name string such
as the benchmark's traced names and the CLI table's suite names.  The
CLI's cmd_* functions are looked up by name at call time, so they count
as read.
"""

import ast
import re
from pathlib import Path

from quermass.cli import VERIFY_CHECKS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "quermass"

# public names that only tests call, each with why it stays
KEPT_FOR_TESTS = {
    "deficits.almost_sharp_margin": "paper API: the almost-sharp deficit margin",
    "deficits.quermassintegral_ratio": "paper API: the quermassintegral ratio",
    "deficits.volume_constraint_residual": "paper API: the volume constraint",
    "cubic.cubic_term": "the cubic term itself, which the criterion tests integrate",
    "suites.conjecture_suite": "the harness of acceptance criterion 10",
    "axisym.axial_curvature": "pointwise 1-D curvature that tests hold to closed "
                              "forms and to the 2-D grid",
    "analytic.GeodesicRadialField.geodesic_distance": "reference implementation "
                                                      "that tests compare against",
    "analytic.GeodesicRadialField.gradient_at": "reference implementation that "
                                                "tests compare against",
    "analytic.GeodesicRadialField.hessian_ambient": "reference implementation that "
                                                    "tests compare against",
    "stardomain.StarDomain.rotated": "reference implementation that tests compare "
                                     "against",
    "io.save_domain": "writes the file format that load_domain reads",
}

_DOTTED = re.compile(r"[A-Za-z_][\w.]*\Z")


def _public_definitions() -> dict:
    """'module.name' or 'module.Class.method' -> the name a reader uses."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            out[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        out[f"{path.stem}.{node.name}.{sub.name}"] = sub.name
    return out


def _names_read(path: Path) -> set:
    seen = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            seen.add(node.id)
        elif isinstance(node, ast.Attribute):
            seen.add(node.attr)
        elif isinstance(node, ast.alias):
            seen.update(node.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.match(node.value)):
            seen.update(node.value.split("."))
    return seen


def _test_only() -> set:
    readers = [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"),
               *(p for p in (ROOT / "perfbench").glob("*.py")
                 if not p.name.startswith("test_"))]
    read = set().union(*map(_names_read, readers))
    read |= {check.suite for check in VERIFY_CHECKS.values()}
    return {qualified for qualified, name in _public_definitions().items()
            if name not in read and not name.startswith("cmd_")}


def test_public_api_has_a_reader_outside_the_tests():
    unread = sorted(_test_only() - set(KEPT_FOR_TESTS))
    assert not unread, (f"only tests read {unread}: give each a caller, delete it, "
                        f"or add it with its reason to KEPT_FOR_TESTS")


def test_kept_names_exist_and_are_still_test_only():
    stale = sorted(set(KEPT_FOR_TESTS) - _test_only())
    assert not stale, f"{stale} are gone or have a reader: drop them from KEPT_FOR_TESTS"
