# The package holds what its studies run.  Every top-level function, class,
# method and module constant of src/dielscat is used in the package outside
# its own definition, imported from the package by the acceptance criteria
# (tests/test_acceptance.py), or reached by perfbench (a probe target in
# perfbench/probes.TARGETS, or a name its code uses).  An export from
# dielscat/__init__.py alone does not keep a definition.  The test oracles
# import neither the lattice operator nor the solver that they check.

import ast
import collections
import pathlib

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
ROOT = TESTS.parent
SRC = ROOT / "src" / "dielscat"
PERFBENCH = ROOT / "perfbench"


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def used_names(tree):
    """How often each identifier is read as a name or an attribute."""
    return collections.Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)))


def dunder(name):
    return name.startswith("__") and name.endswith("__")


def definitions(tree):
    """(qualified name, name, node) of every top-level function, class and
    module constant, and of every method; dunders, which the language
    reads, are left out."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node.name, node
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for name in (t.id for target in targets
                         for t in ast.walk(target)
                         if isinstance(t, ast.Name)):
                if not dunder(name):
                    yield name, name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not dunder(item.name):
                    yield "%s.%s" % (node.name, item.name), item.name, item


def acceptance_names():
    """The names the acceptance criteria import from the package."""
    tree = parse(TESTS / "test_acceptance.py")
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "dielscat"
            for alias in node.names}


def perfbench_names():
    """The attributes perfbench's probes wrap, and every name its code and
    tests read."""
    probes = parse(PERFBENCH / "probes.py")
    targets, = [ast.literal_eval(node.value) for node in probes.body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["TARGETS"]]
    names = {attr for places in targets.values() for _, attr in places}
    for path in PERFBENCH.rglob("*.py"):
        names |= set(used_names(parse(path)))
    return names


def unused_definitions(trees, allowed):
    """"module:line name" of each definition in trees (module name -> tree)
    that no module reads outside the definition itself, and that is not
    in allowed."""
    total = sum((used_names(tree) for tree in trees.values()),
                collections.Counter())
    unused = []
    for module, tree in trees.items():
        for qualified, name, node in definitions(tree):
            outside = total[name] - used_names(node)[name]
            if outside <= 0 and name not in allowed:
                unused.append("%s:%d %s" % (module, node.lineno, qualified))
    return unused


def test_every_package_definition_is_used_checked_or_probed():
    trees = {path.name: parse(path) for path in sorted(SRC.glob("*.py"))}
    unused = unused_definitions(trees, acceptance_names()
                                | perfbench_names())
    assert not unused, "defined but never used: " + ", ".join(unused)


# (modules, allowed names, what the guard names): a package of toy modules
GUARD_CASES = {
    "called by another module": (
        {"a.py": "def f():\n    pass\n",
         "b.py": "from .a import f\n\nf()\n"}, set(), []),
    "imported by a criterion": (
        {"a.py": "def f():\n    pass\n"}, {"f"}, []),
    "exported alone": (
        {"a.py": "def f():\n    pass\n",
         "__init__.py": "from .a import f\n"}, set(), ["a.py:1 f"]),
    "called by itself alone": (
        {"a.py": "def f(n):\n    return f(n - 1)\n"}, set(), ["a.py:1 f"]),
    "a method never read": (
        {"a.py": "class A:\n    def g(self):\n        pass\n\n\nA()\n"},
        set(), ["a.py:2 A.g"]),
}


@pytest.mark.parametrize("case", sorted(GUARD_CASES))
def test_the_guard_keeps_what_is_used_or_checked_and_names_the_rest(case):
    """A definition read by another module or named in allowed stands; one
    that an __init__ export or its own body alone reads is named, by
    module, line and qualified name."""
    sources, allowed, want = GUARD_CASES[case]
    trees = {module: ast.parse(text) for module, text in sources.items()}
    assert unused_definitions(trees, allowed) == want


def test_the_criteria_keep_the_formulas_they_check():
    """The acceptance criteria import the moment, P0 and Newtonian formulas
    that no study runs, and so keep them in the package."""
    assert {"ball_moment_vectors", "p0_from_moments", "newtonian_operator",
            "newtonian_operator_norm"} <= acceptance_names()


def test_oracles_import_neither_the_lattice_operator_nor_the_solver():
    tree = parse(TESTS / "oracles.py")
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported |= {alias.name for alias in node.names}
    forbidden = {name for name in imported
                 if name.split(".")[-1] in ("LatticeOperator", "linalg")
                 and name != "numpy.linalg"}
    assert not forbidden, forbidden
