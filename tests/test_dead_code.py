# The package holds what its studies run.  Every top-level function, class,
# method and module constant of src/dielscat is used in the package outside
# its own definition, exported by dielscat/__init__.py, or reached by
# perfbench (a probe target in perfbench/probes.TARGETS, or a name its code
# uses); and the test oracles import neither the lattice operator nor the
# solver that they check.

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
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


def exported_names():
    tree = parse(SRC / "__init__.py")
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


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


def test_every_package_definition_is_used_exported_or_probed():
    trees = {path.name: parse(path) for path in sorted(SRC.glob("*.py"))}
    total = sum((used_names(tree) for tree in trees.values()),
                collections.Counter())
    allowed = exported_names() | perfbench_names()
    unused = []
    for module, tree in trees.items():
        for qualified, name, node in definitions(tree):
            outside = total[name] - used_names(node)[name]
            if outside <= 0 and name not in allowed:
                unused.append("%s:%d %s" % (module, node.lineno, qualified))
    assert not unused, "defined but never used: " + ", ".join(unused)


def test_oracles_import_neither_the_lattice_operator_nor_the_solver():
    tree = parse(pathlib.Path(__file__).resolve().parent / "oracles.py")
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
