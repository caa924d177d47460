"""Every function of the package runs under some CLI command: the dynamic
half of the reach rule in `test_source.py`.

A subset of `scripts/cli_digest.py`'s corpus runs in-process under
`sys.setprofile`, with `--field fp:3` cases added, and every function of
`src/` (methods and nested functions included; class bodies, lambdas and
comprehensions are not functions) must be entered.  The exceptions are
`UNENTERED`, each filed under the ROADMAP item that will give it a CLI caller
or take it out of `src/`, and that list may only shrink: an entry the subset
enters, or that no longer exists, fails the test too.

The subset enters the same functions as the whole corpus with `--field
fp:3` cases for every fixture and depth added (195 of the package's 287
functions, 104 invocations against 4,718, when the subset was chosen).  Its
first invocation goes through `cli.main`, the console entry point.
"""

import contextlib
import importlib
import importlib.util
import inspect
import io
import sys
import types
from pathlib import Path

import pytest

from threadquiver import cli
from threadquiver.dsl import parse_tq

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "threadquiver"
SUBSET_FIXTURES = ("fixtures/comm_square.tq", "fixtures/mixed.tq")

# functions the subset never enters, by ROADMAP item; item 7 holds what
# perfbench calls or traces, and the helpers only those reach
UNENTERED = {
    1: ["reps:proj_dim"],
    4: ["reps:restrict", "reps:induce", "reps:_transport_coords", "reps:Rep.act",
        "reps:Rep.act_terms", "reps:zero_rep", "reps:zero_map"],
    6: ["reps:to_triple", "reps:from_triple", "reps:TripleRep.validate",
        "reps:_window_triple_scaffold", "reps:modification_hom_dim",
        "reps:modification_hom_dim.<locals>.naturality", "reps:Rep.check_relations",
        "serre:VarietyMor.identity", "serre:VarietyMor.zero",
        "threads:perp_adjoint", "threads:interval_adjoint", "threads:adjunction_check",
        "threads:supp_adjoint", "threads:_left_perp", "threads:_right_perp",
        "threads:_evaluation", "threads:_interval_kernel_object",
        "threads:_assert_ext_orthogonal"],
    7: ["reps:hom_basis", "reps:hom_basis_generic", "reps:_naturality_rows",
        "linalg:sparse_kernel", "reps:hom_coords", "reps:hom_coords.<locals>.flatten",
        "reps:hom_dim", "reps:injective_hull", "reps:map_factor",
        "reps:kernel_with_inclusion", "reps:cokernel_with_projection",
        "reps:image_with_inclusion", "linalg:column_space_basis",
        "linalg:coords_in_basis", "reps:decompose", "reps:decompose_with_maps",
        "reps:_try_split", "reps:_char_poly", "reps:_eigen_candidates",
        "reps:_endo_power", "reps:_is_scalar_plus_nilpotent", "reps:_rational_roots",
        "reps:_rational_roots.<locals>.divisors", "reps:identity_map",
        "reps:RepMap.then", "reps:RepMap.scale", "reps:RepMap.__add__",
        "reps:RepMap.__sub__", "reps:RepMap.is_zero", "reps:RepMap.is_natural",
        "reps:_Blocks.__missing__", "linalg:hstack", "linalg:solve_matrix",
        "linalg:Matrix.__add__", "linalg:Matrix.__sub__", "linalg:Matrix.scale",
        "linalg:Matrix.__getitem__", "linalg:Matrix.__setitem__",
        "quiver:HomBasis.paths", "threads:gabriel_quiver"],
    14: ["quiver:is_strongly_locally_finite"],
    # no CLI input reaches these yet, or only input the corpus lacks (a
    # concatenated label, a malformed file)
    15: ["reps:dualize_complex", "reps:Complex.dual", "quiver:HomBasis.basis",
         "quiver:Path.then", "quiver:Path.__len__", "windows:Window.vertices",
         "orders:_namespaces_overlap", "errors:ParseError.__init__",
         "linalg:FpElement.__hash__", "linalg:FpElement.__repr__",
         "linalg:FpElement.__rsub__", "linalg:FpElement.__rtruediv__",
         "linalg:Matrix.__hash__", "linalg:Matrix.__neg__", "linalg:Matrix.__repr__",
         "linalg:PrimeField.__eq__", "linalg:PrimeField.__hash__",
         "linalg:PrimeField.__repr__", "linalg:RationalField.__eq__",
         "linalg:RationalField.__hash__", "linalg:RationalField.__repr__",
         "reps:Rep.__repr__", "reps:RepMap.__repr__", "windows:Window.__repr__"],
}


def _key(code: types.CodeType) -> tuple:
    """Where a function's code starts: (module, first line, name)."""
    return Path(code.co_filename).stem, code.co_firstlineno, code.co_name


def _functions(module: str, code: types.CodeType, prefix: str = "") -> dict:
    """'module:qualified name' of every function compiled into code, at any
    depth, by `_key`: a function's code object makes new locals, a class
    body's does not, and lambdas and comprehensions are named `<...>`."""
    out = {}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            name = prefix + const.co_name
            function = const.co_flags & inspect.CO_NEWLOCALS
            if function and not const.co_name.startswith("<"):
                out[_key(const)] = f"{module}:{name}"
            out |= _functions(module, const, name + (".<locals>." if function else "."))
    return out


def _entered(calls, directory: Path) -> set[tuple]:
    """`_key` of every code object defined under directory that the calls
    enter, each call run under `sys.setprofile`."""
    codes = set()

    def profile(frame, event, arg):
        codes.add(frame.f_code)

    for call in calls:
        sys.setprofile(profile)
        try:
            call()
        finally:
            sys.setprofile(None)
    prefix = str(directory)
    return {_key(c) for c in codes if c.co_filename.startswith(prefix)}


def _cli_digest():
    path = ROOT / "scripts" / "cli_digest.py"
    spec = importlib.util.spec_from_file_location("cli_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def subset(digest) -> list[list[str]]:
    """The corpus's invocations on `comm_square` and `mixed` at depth 0 and
    those that take no depth, the vertex pairs of `mixed` left out, then each
    window command on both again over GF(3)."""
    def keep(argv):
        fixture = next(a for a in argv if a.endswith(".tq"))
        depth = argv[argv.index("--depth") + 1] if "--depth" in argv else "0"
        pair = argv[0] in ("hom", "ext")
        return (fixture in SUBSET_FIXTURES and depth == "0"
                and not (pair and fixture != SUBSET_FIXTURES[0]))

    return [argv for argv in digest.corpus(parse_tq) if keep(argv)] + [
        cmd + [fixture, "--depth", "0", "--field", "fp:3"]
        for fixture in SUBSET_FIXTURES for cmd in digest.COMMANDS]


def _run_quietly(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            fn(*args)
        except SystemExit:
            pass


def test_every_function_runs_under_a_cli_command(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(cli, "_parser", None)  # the first call builds it
    first, *rest = subset(_cli_digest())
    monkeypatch.setattr(sys, "argv", ["threadquiver", *first])
    calls = [lambda: _run_quietly(cli.main)]
    calls += [lambda argv=argv: _run_quietly(cli.run, argv) for argv in rest]
    names = {}
    for path in sorted(SRC.glob("*.py")):
        names |= _functions(path.stem, compile(path.read_text(encoding="utf-8"),
                                               str(path), "exec"))
    entered = {names[k] for k in _entered(calls, SRC) if k in names}
    functions = set(names.values())
    allowed = [name for names in UNENTERED.values() for name in names]
    assert len(allowed) == len(set(allowed)), "an entry is listed twice"
    assert len(allowed) <= 91, "the allowlist may only shrink"
    stale = sorted(name for name in allowed if name in entered or name not in functions)
    assert not stale, f"allowlisted functions now entered or gone, drop them: {stale}"
    missing = sorted(functions - entered - set(allowed))
    assert not missing, (
        f"functions no CLI command of the corpus enters: {missing}; "
        "move test-only helpers to tests/conftest.py")


def test_the_entry_rule_sees_nested_functions_and_skips_class_bodies():
    source = ("class C:\n"
              "    def used(self):\n"
              "        def inner():\n            return [x for x in (1,)]\n"
              "        return inner() + [(lambda: 0)()]\n"
              "    def lonely(self):\n        pass\n"
              "def f():\n    return C().used()\n")
    code = compile(source, str(SRC / "toy.py"), "exec")
    names = _functions("toy", code)
    assert sorted(names.values()) == [
        "toy:C.lonely", "toy:C.used", "toy:C.used.<locals>.inner", "toy:f"]
    namespace = {}
    exec(code, namespace)
    entered = _entered([namespace["f"]], SRC)
    assert {names[k] for k in entered if k in names} == {
        "toy:C.used", "toy:C.used.<locals>.inner", "toy:f"}
    assert _entered([namespace["f"]], ROOT / "elsewhere") == set()


def test_the_entry_rule_names_functions_by_their_qualified_names():
    # the names are built while the code objects are walked, and agree with
    # the __qualname__ of every module-level function and method of src/
    checked = 0
    for path in sorted(SRC.glob("*.py")):
        names = _functions(path.stem, compile(path.read_text(encoding="utf-8"),
                                              str(path), "exec"))
        module = importlib.import_module(f"threadquiver.{path.stem}")
        for obj in list(vars(module).values()):
            members = vars(obj).values() if inspect.isclass(obj) else [obj]
            for fn in members:
                if inspect.isfunction(fn) and fn.__code__.co_filename == module.__file__:
                    assert names[_key(fn.__code__)] == f"{path.stem}:{fn.__qualname__}"
                    checked += 1
    assert checked > 150


@pytest.mark.parametrize("item", sorted(UNENTERED))
def test_every_allowlist_item_is_on_the_roadmap(item):
    assert f"\n{item}. **" in (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
