"""Hygiene of the package source, read with the standard library's `ast`.

Checks that keep a deletion from leaving dead code behind: every name a
module imports is used in that module, every module-level private function
is referenced somewhere in the package, and every module-level public
function is referenced in the package, read under `perfbench/`, or traced
by the benchmark (`TRACED` in `perfbench/tracing.py`, parsed, not imported);
an export from `__init__.py` is no caller.  The public functions no check
reaches yet are listed in `UNREACHED`, each with the ROADMAP item that will
give it a caller, and that list can only shrink.  Every public method of a module-level class is called in the package
outside its own body, called under `perfbench/`, or traced; a property or
cached property counts wherever it is read.  A function or method
only tests call belongs in `tests/conftest.py`.  Every parameter
of every function, methods and nested functions included, is read in its
body: an option the body ignores is dead code a caller can still set.
Every import sits at module level, and the package's relative imports among
its modules (`__init__.py` aside) form no cycle, so the layering is the one
the import lines show.  A certified sum's tag is `PROJECTIVE` or
`INJECTIVE`, spelled no other way, and only `reps` reads a `cert`.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "threadquiver"
MODULES = sorted(SRC.glob("*.py"))
PERFBENCH = ROOT / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _used_names(tree):
    """How often each name is read in tree: identifiers, attribute names, and
    the names inside string annotations."""
    used = Counter()

    def visit(node):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        annotations = []
        if isinstance(node, ast.arg | ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
            annotations.append(node.returns)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                visit(ast.parse(ann.value, mode="eval"))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return used


def _imported_names(tree):
    """The names every import statement of tree binds, with the statement's
    line; `from __future__` imports bind none."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, ast.Import | ast.ImportFrom):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                out.append((name, node.lineno))
    return out


def _private_functions():
    """(module, function node) for every module-level function whose name
    starts with one underscore."""
    return [(path.name, node)
            for path in MODULES
            for node in _tree(path).body
            if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef)
            and node.name.startswith("_") and not node.name.startswith("__")]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = _tree(path)
    used = _used_names(tree)
    stale = [(name, line) for name, line in _imported_names(tree) if name not in used]
    assert not stale, f"{path.name} imports names it never uses: {stale}"


def test_every_private_function_is_referenced():
    used = sum((_used_names(_tree(path)) for path in MODULES), Counter())
    functions = _private_functions()
    assert functions, "no private function found: the scan reads nothing"
    unreferenced = []
    for module, fn in functions:
        # references inside the function's own body (recursion) do not count
        if used[fn.name] == _used_names(fn)[fn.name]:
            unreferenced.append(f"{module}:{fn.name}")
    assert not unreferenced, f"private functions referenced nowhere: {unreferenced}"


def _traced(tree):
    """(module, qualified name) of every entry of the `TRACED` list."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return set(ast.literal_eval(node.value))
    raise AssertionError("no TRACED list found")


# public functions that nothing reaches yet, each with the ROADMAP item
# that will give it a caller
UNREACHED = {
    "quiver:is_strongly_locally_finite": 14,
    "reps:proj_dim": 1,
    "reps:induce": 4,
    "reps:to_triple": 6,
    "reps:from_triple": 6,
    "reps:modification_hom_dim": 6,
    "threads:perp_adjoint": 6,
    "threads:interval_adjoint": 6,
    "threads:adjunction_check": 6,
    "threads:gabriel_quiver": 7,  # perfbench traces threads.rad_irr_dims through it
}


def _unreached_public_functions(trees, outside, traced):
    """'module:function' for every module-level public function of trees
    (module name -> tree) that nothing in trees or in the trees of `outside`
    references outside its own body, and that is not traced.  An import is
    no reference, so an export from `__init__.py` does not reach a
    function."""
    used = sum((_used_names(tree) for tree in [*trees.values(), *outside]), Counter())
    return [f"{module}:{fn.name}"
            for module, tree in trees.items()
            for fn in tree.body
            if isinstance(fn, ast.FunctionDef | ast.AsyncFunctionDef)
            and not fn.name.startswith("_")
            and used[fn.name] == _used_names(fn)[fn.name]
            and (module, fn.name) not in traced]


def test_every_public_function_is_reached():
    trees = {path.stem: _tree(path) for path in MODULES}
    outside = [_tree(path) for path in sorted(PERFBENCH.rglob("*.py"))]
    traced = _traced(_tree(TRACING))
    assert outside and traced, "no perfbench file or traced name found: the scan reads nothing"
    unreached = _unreached_public_functions(trees, outside, traced)
    stale = sorted(set(UNREACHED) - set(unreached))
    assert not stale, f"allowlisted functions now reached or gone, drop them: {stale}"
    unreached = [name for name in unreached if name not in UNREACHED]
    assert not unreached, (
        f"public functions no module, benchmark or trace reaches: {unreached}; "
        "move test-only helpers to tests/conftest.py")


def test_the_reach_rule_flags_a_function_only_itself_calls():
    trees = {
        "m": ast.parse("def used():\n    pass\n"
                       "def lonely():\n    return lonely()\n"
                       "def exported():\n    pass\n"
                       "def benched():\n    pass\n"
                       "def traced():\n    pass\n"
                       "x = used()\n"),
        "__init__": ast.parse("from .m import exported\n"),
    }
    outside = [ast.parse("from threadquiver.m import benched\nbenched()\n")]
    traced = _traced(ast.parse("TRACED = [('m', 'traced'), ('m', 'C.method')]\n"))
    assert _unreached_public_functions(trees, outside, traced) == ["m:lonely", "m:exported"]
    assert _unreached_public_functions(trees, [], set()) == [
        "m:lonely", "m:exported", "m:benched", "m:traced"]


def _called_methods(tree):
    """How often each attribute name is called in tree, as in `x.m(...)`."""
    return Counter(node.func.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute))


def _is_property(fn):
    """Whether fn is decorated as a property or a cached property."""
    return any((d.id if isinstance(d, ast.Name) else getattr(d, "attr", None))
               in ("property", "cached_property") for d in fn.decorator_list)


def _unreached_public_methods(trees, outside, traced):
    """'module:Class.method' for every public method of a module-level class
    of trees (module name -> tree) that nothing in trees or in the trees of
    `outside` reaches outside its own body, and that is not traced.  A
    property or cached property is reached where its name is read; a plain
    method only where it is called, so a read of another object's attribute
    of the same name (`sys.path`) does not reach a method `path`."""
    everywhere = [*trees.values(), *outside]
    reads = sum((_used_names(tree) for tree in everywhere), Counter())
    calls = sum((_called_methods(tree) for tree in everywhere), Counter())
    out = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if (not isinstance(fn, ast.FunctionDef | ast.AsyncFunctionDef)
                        or fn.name.startswith("_")
                        or (module, f"{cls.name}.{fn.name}") in traced):
                    continue
                count, total = ((_used_names, reads) if _is_property(fn)
                                else (_called_methods, calls))
                if total[fn.name] == count(fn)[fn.name]:
                    out.append(f"{module}:{cls.name}.{fn.name}")
    return out


def test_every_public_method_is_reached():
    trees = {path.stem: _tree(path) for path in MODULES}
    outside = [_tree(path) for path in sorted(PERFBENCH.rglob("*.py"))]
    traced = _traced(_tree(TRACING))
    assert outside and traced, "no perfbench file or traced name found: the scan reads nothing"
    unreached = _unreached_public_methods(trees, outside, traced)
    assert not unreached, (
        f"public methods no module, benchmark or trace reaches: {unreached}; "
        "move test-only helpers to tests/conftest.py")


def test_the_reach_rule_flags_a_method_only_itself_calls():
    trees = {"m": ast.parse("import sys\n"
                            "from functools import cached_property\n"
                            "class C:\n"
                            "    def __init__(self):\n        pass\n"
                            "    def _private(self):\n        pass\n"
                            "    def used(self):\n        return self._private()\n"
                            "    def lonely(self):\n        return self.lonely()\n"
                            "    def benched(self):\n        pass\n"
                            "    def traced(self):\n        pass\n"
                            "    def path(self):\n        pass\n"
                            "    def unbound(self):\n        pass\n"
                            "    @property\n    def size(self):\n        return 0\n"
                            "    @cached_property\n    def key(self):\n        return 0\n"
                            "def f():\n    pass\n"
                            "x = C().used()\n"
                            "sys.path.insert(0, '.')\n"
                            "g = C().unbound\n"
                            "n = C().size + C().key\n")}
    outside = [ast.parse("C().benched()\n")]
    traced = _traced(ast.parse("TRACED = [('m', 'C.traced'), ('m', 'f')]\n"))
    assert _unreached_public_methods(trees, outside, traced) == [
        "m:C.lonely", "m:C.path", "m:C.unbound"]
    assert _unreached_public_methods(trees, [], {("m", "traced")}) == [
        "m:C.lonely", "m:C.benched", "m:C.traced", "m:C.path", "m:C.unbound"]


def test_the_checks_catch_a_stale_import_and_an_unreferenced_function():
    tree = ast.parse(
        "from .linalg import Matrix, solve\n"
        "def _helper():\n    return _helper()\n"
        "def f(m: 'Matrix'):\n    return m\n")
    used = _used_names(tree)
    assert [name for name, _ in _imported_names(tree) if name not in used] == ["solve"]
    helper = tree.body[1]
    assert _used_names(tree)["_helper"] == _used_names(helper)["_helper"] == 1


def _unread_parameters(tree):
    """'function: parameter' for every parameter of every function of tree
    that its body never reads; `self` and `cls` are exempt."""
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef | ast.AsyncFunctionDef):
            continue
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [
            p for p in (a.vararg, a.kwarg) if p is not None]
        read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        out += [f"{fn.name}: {p.arg}" for p in params
                if p.arg not in ("self", "cls") and p.arg not in read]
    return out


def test_every_parameter_is_read():
    unread = [f"{path.stem}.{entry}" for path in MODULES
              for entry in _unread_parameters(_tree(path))]
    assert not unread, f"parameters their function never reads: {unread}"


def test_the_parameter_rule_flags_an_unread_option():
    tree = ast.parse(
        "class C:\n"
        "    def m(self, used, unused=0):\n        return used\n"
        "    @classmethod\n    def k(cls, *args, **extra):\n        return args\n"
        "def f(x, *, depth=1):\n"
        "    def inner(y):\n        return x\n"
        "    return inner(depth)\n")
    assert _unread_parameters(tree) == ["m: unused", "k: extra", "inner: y"]


def _nested_imports(tree):
    """The line of every import statement of tree that is not a statement
    of the module's body."""
    top = {id(node) for node in tree.body}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Import | ast.ImportFrom) and id(node) not in top]


def _relative_imports(trees):
    """Module name -> the modules of trees it imports relatively, at any
    depth of its tree."""
    graph = {}
    for module, tree in trees.items():
        graph[module] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = [node.module] if node.module else [a.name for a in node.names]
                graph[module].update(n for n in names if n in trees)
    return graph


def _import_cycle(graph):
    """One cycle of the import graph as [m0, m1, ..., m0], or None."""
    done, path = set(), []

    def visit(module):
        if module in path:
            return path[path.index(module):] + [module]
        if module in done:
            return None
        path.append(module)
        for dep in sorted(graph[module]):
            cycle = visit(dep)
            if cycle:
                return cycle
        path.pop()
        done.add(module)
        return None

    for module in sorted(graph):
        cycle = visit(module)
        if cycle:
            return cycle
    return None


def test_every_import_is_at_module_level():
    nested = {path.name: lines for path in MODULES
              if (lines := _nested_imports(_tree(path)))}
    assert not nested, f"imports inside a function or block, by line: {nested}"


def test_the_package_imports_form_no_cycle():
    trees = {path.stem: _tree(path) for path in MODULES if path.name != "__init__.py"}
    graph = _relative_imports(trees)
    assert any(graph.values()), "no relative import found: the scan reads nothing"
    assert _import_cycle(graph) is None, f"import cycle: {_import_cycle(graph)}"


def test_the_import_rules_flag_a_nested_import_and_a_cycle():
    trees = {
        "low": ast.parse("from .errors import E\n"
                         "def f():\n    from .high import g\n    return g\n"),
        "high": ast.parse("from .low import f\nfrom . import errors\n"),
        "errors": ast.parse("import sys\nclass E(Exception):\n    pass\n"),
    }
    assert _nested_imports(trees["low"]) == [3]
    assert _nested_imports(trees["high"]) == []
    graph = _relative_imports(trees)
    assert graph == {"low": {"errors", "high"}, "high": {"low", "errors"}, "errors": set()}
    assert _import_cycle(graph) == ["high", "low", "high"]
    graph["low"].discard("high")
    assert _import_cycle(graph) is None


def _cert_reads(tree):
    """The line of every attribute named `cert` in tree."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "cert"]


def _tag_literals(tree):
    """The line of every string constant "proj" or "inj" in tree, a second
    spelling of a certified sum's kind."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value in ("proj", "inj")]


def test_only_reps_reads_a_certificate():
    # other modules read a complex's term vertices off its `YonedaPlan`
    reads = {path.name: lines for path in MODULES
             if path.name != "reps.py" and (lines := _cert_reads(_tree(path)))}
    assert _cert_reads(_tree(SRC / "reps.py")), "no cert read found: the scan reads nothing"
    assert not reads, f"certificates read outside reps, by line: {reads}"


def test_a_certified_sum_has_one_tag_vocabulary():
    literals = {path.name: lines for path in MODULES if (lines := _tag_literals(_tree(path)))}
    assert not literals, f"tags spelled other than PROJECTIVE/INJECTIVE, by line: {literals}"


def test_the_tag_rules_flag_a_cert_read_and_a_second_spelling():
    tree = ast.parse("def f(M):\n"
                     "    return M.cert[1] if M.cert[0] == 'proj' else 'inj'\n"
                     "k = 'projective'\n")
    assert _cert_reads(tree) == [2, 2]
    assert _tag_literals(tree) == [2, 2]
