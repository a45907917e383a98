"""Guard against library code that only the tests call.

Every public function or method of ``src/pltdual`` must have a caller in
the library, the demos or the benchmark harness, be exported from
``pltdual/__init__.py``, or be a paper result on the allowlist below,
which the tests check against the paper or against independent oracles.
A reference counts as a call: a name, an attribute, or a string equal to
the name (the benchmark tracer wraps functions by name).
"""

import ast
from pathlib import Path

import pltdual

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pltdual"
CALLER_TREES = (PACKAGE, ROOT / "demos", ROOT / "perfbench")

# paper results with no caller but the tests, each with why it stays
ALLOWLIST = {
    "su2_trace_lagrangian": "the compact model's Lagrangian in the paper's 2x2 trace form",
    "su2_dual_vector_lagrangian": "the dual compact Lagrangian in the paper's vector form",
    "su2_e_inv_closed": "the paper's closed form of E_u^-1 for su2",
    "su2_e_closed": "the paper's closed form of E_u for su2",
    "su2_dual_e_inv_closed": "the paper's closed form of the dual graph map",
    "su2_dual_e_closed": "the paper's closed form of the inverse dual graph map",
    "dual_lagrangian": "the dual sigma model's Lagrangian in operator form",
    "symplectic_form": "the loop-space symplectic form with its boundary term",
    "dressing_relation_residual": "the dressing relation s_+- s^-1 = T_u/E_u(u^-1 u_+-)",
    "poisson_matrix": "the Poisson tensor of the point phase space",
    "conjugate_description_residual": "the particle's equivalence with the loop flow",
    "riccati_h": "the closed-form Riccati reduction of the pure-qt flow",
    "pure_qt_reduced_solution": "the closed-form reduced (h, x, y) pure-qt flow",
}


def _public_definitions() -> dict:
    """Each public module-level function and method of the package, as
    name -> "file:line"."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        bodies = [tree.body] + [n.body for n in tree.body if isinstance(n, ast.ClassDef)]
        for body in bodies:
            for node in body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    found.setdefault(node.name, f"{path.name}:{node.lineno}")
    return found


class _References(ast.NodeVisitor):
    """Every name, attribute and string constant of a tree, outside its
    ``__all__`` list."""

    def __init__(self):
        self.names = set()

    def visit_Assign(self, node):
        if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            self.generic_visit(node)

    def visit_Name(self, node):
        self.names.add(node.id)

    def visit_Attribute(self, node):
        self.names.add(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str):
            self.names.add(node.value)


def _references() -> set:
    """The names used in the caller trees."""
    refs = _References()
    for root in CALLER_TREES:
        for path in root.rglob("*.py"):
            refs.visit(ast.parse(path.read_text(), filename=str(path)))
    return refs.names


def test_every_public_function_has_a_caller_outside_the_tests():
    used = _references() | set(pltdual.__all__) | set(ALLOWLIST)
    orphans = {name: where for name, where in _public_definitions().items()
               if name not in used}
    assert not orphans, f"public code that only the tests call: {orphans}"


def test_allowlist_names_existing_functions_without_other_callers():
    defined = _public_definitions()
    stale = [name for name in ALLOWLIST if name not in defined]
    assert not stale, f"allowlisted names that are not defined: {stale}"
    called = _references() | set(pltdual.__all__)
    redundant = [name for name in ALLOWLIST if name in called]
    assert not redundant, f"allowlisted names that have a caller: {redundant}"
