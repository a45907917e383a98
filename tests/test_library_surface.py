"""Guard against library code that only the tests call.

Every public function, and every public method of a public class, of
``src/pltdual`` must have a caller in the library, the demos or the
benchmark harness, be exported from ``pltdual/__init__.py``, or be a paper
result on the allowlist below, which the tests check against the paper or
against independent oracles.
A function counts as called by a name, an attribute or a string equal to
its name (the benchmark tracer wraps functions by name); a method only by
an attribute.  An attribute of a module imported from outside the package
(``np.pi``, ``math.inf``) counts as neither.
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
    "symplectic_form": "the loop-space symplectic form with its boundary term",
    "dressing_relation_residual": "the dressing relation s_+- s^-1 = T_u/E_u(u^-1 u_+-)",
    "poisson_matrix": "the Poisson tensor of the point phase space",
    "conjugate_description_residual": "the particle's equivalence with the loop flow",
    "riccati_h": "the closed-form Riccati reduction of the pure-qt flow",
    "pure_qt_reduced_solution": "the closed-form reduced (h, x, y) pure-qt flow",
    "pi": "the Poisson cocycle Pi(u) = Ad_u r - r of G",
}


def _public_definitions() -> dict:
    """Each public module-level function and public class's method of the
    package, as name -> ("file:line", whether it is a method)."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        bodies = [(tree.body, False)] + [
            (n.body, True) for n in tree.body
            if isinstance(n, ast.ClassDef) and not n.name.startswith("_")]
        for body, is_method in bodies:
            for node in body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    found.setdefault(node.name, (f"{path.name}:{node.lineno}", is_method))
    return found


class _References(ast.NodeVisitor):
    """Every name, attribute and string constant of a tree, outside its
    ``__all__`` list, leaving out attributes of modules imported from
    outside the package."""

    def __init__(self):
        self.names = set()
        self.attributes = set()
        self.foreign_modules = set()

    def visit_Import(self, node):
        for alias in node.names:
            if alias.name.split(".")[0] != "pltdual":
                self.foreign_modules.add(alias.asname or alias.name.split(".")[0])

    def visit_Assign(self, node):
        if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            self.generic_visit(node)

    def visit_Name(self, node):
        self.names.add(node.id)

    def visit_Attribute(self, node):
        if not (isinstance(node.value, ast.Name) and node.value.id in self.foreign_modules):
            self.attributes.add(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str):
            self.names.add(node.value)


def _references() -> tuple[set, set]:
    """(names, attributes) used in the caller trees: a function is called
    by either, a method by an attribute."""
    names, attributes = set(), set()
    for root in CALLER_TREES:
        for path in root.rglob("*.py"):
            refs = _References()
            refs.visit(ast.parse(path.read_text(), filename=str(path)))
            names |= refs.names
            attributes |= refs.attributes
    return names | attributes, attributes


def _called() -> set:
    """The public definitions that the caller trees or the package exports use."""
    names, attributes = _references()
    exported = set(pltdual.__all__)
    return {name for name, (_, is_method) in _public_definitions().items()
            if name in exported or name in (attributes if is_method else names)}


def test_every_public_function_has_a_caller_outside_the_tests():
    used = _called() | set(ALLOWLIST)
    orphans = {name: where for name, (where, _) in _public_definitions().items()
               if name not in used}
    assert not orphans, f"public code that only the tests call: {orphans}"


def test_allowlist_names_existing_functions_without_other_callers():
    defined = _public_definitions()
    stale = [name for name in ALLOWLIST if name not in defined]
    assert not stale, f"allowlisted names that are not defined: {stale}"
    redundant = [name for name in ALLOWLIST if name in _called()]
    assert not redundant, f"allowlisted names that have a caller: {redundant}"


def test_module_attributes_do_not_count_and_methods_need_an_attribute():
    refs = _References()
    refs.visit(ast.parse("import numpy as np\nfrom pltdual import groups\n"
                         "pi = np.pi\ngroups.expm2(kit.ad_d(u))\n"))
    assert "pi" in refs.names and "pi" not in refs.attributes
    assert {"expm2", "ad_d"} <= refs.attributes
