import argparse
import gc
import importlib.util
import json
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest

import threadquiver.reps as reps
from threadquiver import cli
from threadquiver.cli import build_parser, run
from threadquiver.dsl import emit_dot, parse_tq, sanitize_names, serialize_tq
from threadquiver.errors import DuplicateName, ParseError, TooLarge, UnknownVertex
from threadquiver.orders import INT, Concat, Fin, NAT, NEG_NAT
from threadquiver.threads import thread_hom_check
from threadquiver.windows import Window, expand, normalize, window_iso

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_json(argv, capsys):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


# -- parser ------------------------------------------------------------------------


def test_parse_z_thread():
    tq = parse_tq("vertex a b\nthread t: a ..> b [Z]")
    assert tq.thread_arrows[0].label == INT


def test_parse_integer_label_is_finite_chain():
    tq = parse_tq("vertex a b\nthread t: a ..> b [3]")
    assert tq.thread_arrows[0].label == Fin(3)


def test_parse_empty_label():
    tq = parse_tq("vertex a b\nthread t: a ..> b []")
    assert tq.thread_arrows[0].label == Fin(0)


def test_parse_concat_label():
    tq = parse_tq("vertex a b\nthread t: a ..> b [N . -N]")
    assert tq.thread_arrows[0].label == Concat(NAT, NEG_NAT)


def test_parse_unknown_vertex():
    with pytest.raises(UnknownVertex) as ei:
        parse_tq("thread t: a ..> b []")
    assert ei.value.line == 1


def test_parse_duplicate_name():
    with pytest.raises(DuplicateName):
        parse_tq("vertex a b\narrow f: a -> b\narrow f: a -> b")


def test_parse_error_position():
    with pytest.raises(ParseError) as ei:
        parse_tq("vertex a b\nwat f: a -> b")
    assert ei.value.line == 2


def test_parse_relation_terms():
    tq = parse_tq(
        "vertex p q r s\n"
        "arrow a: p -> q\narrow b: q -> s\narrow c: p -> r\narrow d: r -> s\n"
        "relation b*a - d*c = 0"
    )
    (rel,) = tq.relations
    assert len(rel.terms) == 2
    # b*a applies a first
    assert rel.terms[0][1].arrows == ("a", "b")


def test_parse_relation_noncomposable():
    with pytest.raises(ParseError):
        parse_tq("vertex a b c\narrow f: a -> b\narrow g: a -> c\nrelation g*f = 0")


def test_parse_relation_not_parallel():
    with pytest.raises(ParseError):
        parse_tq(
            "vertex a b c\narrow f: a -> b\narrow g: a -> c\nrelation f + g = 0"
        )


def test_roundtrip_all_fixtures():
    for path in sorted(FIXTURES.glob("*.tq")):
        text = path.read_text()
        tq = parse_tq(text)
        tq2 = parse_tq(serialize_tq(tq))
        assert tq2.vertices == tq.vertices
        assert tq2.standard_arrows == tq.standard_arrows
        assert [(t.name, t.src, t.tgt, t.label) for t in tq2.thread_arrows] == [
            (t.name, t.src, t.tgt, t.label) for t in tq.thread_arrows
        ]
        assert len(tq2.relations) == len(tq.relations)
        for r1, r2 in zip(tq.relations, tq2.relations):
            assert [(c, p.arrows) for c, p in r1.terms] == [
                (c, p.arrows) for c, p in r2.terms
            ]


# -- DOT ---------------------------------------------------------------------------


DOT_NODE = r'^\s*"[^"]+"( \[style=dotted\])?;$'
DOT_EDGE = r'^\s*"[^"]+" -> "[^"]+"( \[style=dashed, label="[^"]*"\])?;$'


def dot_is_wellformed(text):
    import re

    lines = text.strip().splitlines()
    if lines[0] != "digraph G {" or lines[-1] != "}":
        return False
    for line in lines[1:-1]:
        if not (re.match(DOT_NODE, line) or re.match(DOT_EDGE, line)):
            return False
    return True


def test_dot_z_thread():
    tq = parse_tq((FIXTURES / "z_thread.tq").read_text())
    text = emit_dot(tq)
    assert dot_is_wellformed(text)
    assert 'style=dashed, label="Z"' in text


def test_dot_a2():
    tq = parse_tq((FIXTURES / "a2.tq").read_text())
    text = emit_dot(tq)
    assert dot_is_wellformed(text)
    assert text.count("->") == 1


def test_dot_expanded_window_boundary():
    tq = parse_tq((FIXTURES / "empty_thread.tq").read_text())
    w = expand(tq, 2)
    text = emit_dot(w)
    assert dot_is_wellformed(text)
    assert text.count("style=dotted") == 2
    assert text.count("->") == len(w.quiver.arrows)


def test_dot_on_all_fixtures():
    for path in sorted(FIXTURES.glob("*.tq")):
        tq = parse_tq(path.read_text())
        assert dot_is_wellformed(emit_dot(tq))
        assert dot_is_wellformed(emit_dot(expand(tq, 1)))


# -- commands ----------------------------------------------------------------------


def schema_valid(doc):
    if set(doc) != {"check", "status", "items"}:
        return False
    if doc["status"] not in ("pass", "fail"):
        return False
    if not isinstance(doc["items"], list):
        return False
    for item in doc["items"]:
        if not {"subject", "expected", "actual"} <= set(item):
            return False
        if not all(isinstance(item[k], str) for k in ("subject", "expected", "actual")):
            return False
    return (doc["status"] == "pass") == (len(doc["items"]) == 0)


def test_serre_check_a2_passes(capsys):
    code, doc = run_json(["serre-check", str(FIXTURES / "a2.tq")], capsys)
    assert code == 0
    assert schema_valid(doc)
    assert doc["status"] == "pass"


def test_serre_check_ainf_rad2_fails_exceeds_bound(capsys):
    code, doc = run_json(
        ["serre-check", str(FIXTURES / "ainf_rad2.tq"), "--max-len", "6"], capsys
    )
    assert code == 1
    assert schema_valid(doc)
    assert any("ExceedsBound" in item["actual"] for item in doc["items"])


def test_roundtrip_empty_thread(capsys):
    code, doc = run_json(["roundtrip", str(FIXTURES / "empty_thread.tq")], capsys)
    assert code == 0
    assert schema_valid(doc)


def test_dualizing_check_a2(capsys):
    code, doc = run_json(["dualizing-check", str(FIXTURES / "a2.tq")], capsys)
    assert code == 0 and doc["status"] == "pass"


def test_hom_command(capsys):
    code, doc = run_json(
        ["hom", str(FIXTURES / "z_thread.tq"), "x", "y", "--depth", "1"], capsys
    )
    assert code == 0
    assert doc["items"][0]["actual"] == "1"


def test_ext_command(capsys):
    code, doc = run_json(
        ["ext", str(FIXTURES / "a2.tq"), "b", "a", "--degree", "1"], capsys
    )
    assert code == 0
    assert doc["items"][0]["actual"] == "1"


def test_threads_command(capsys):
    code, doc = run_json(["threads", str(FIXTURES / "mixed.tq"), "--depth", "1"], capsys)
    assert code == 0


def test_extract_command_emits_dsl(capsys):
    code = run(["extract", str(FIXTURES / "fin1_thread.tq"), "--depth", "1",
                "--min-thread-len", "1"])
    out = capsys.readouterr().out
    assert code == 0
    tq = parse_tq(out)
    assert len(tq.thread_arrows) == 1
    assert tq.thread_arrows[0].label == Fin(5)


@pytest.mark.parametrize("command", ["extract", "roundtrip"])
@pytest.mark.parametrize("name", ["comm_square", "zigzag", "ainf_rad2"])
def test_extraction_from_a_window_with_relations_is_refused(command, name, capsys):
    # no traceback and no report: the reason on stderr, exit 1
    code = run([command, str(FIXTURES / f"{name}.tq"), "--depth", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        "ThreadQuiverError: extraction expects a relation-free window\n")


def test_dot_command_expanded(capsys):
    code = run(["dot", str(FIXTURES / "empty_thread.tq"), "--expanded"])
    out = capsys.readouterr().out
    assert code == 0
    assert dot_is_wellformed(out)
    assert out.count("style=dotted") == 2  # default depth 2: two cut marks


def test_normalize_command(capsys):
    code = run(["normalize", str(FIXTURES / "z_thread.tq")])
    out = capsys.readouterr().out
    assert code == 0
    tq = parse_tq(out)
    assert len(tq.vertices) == 4
    assert len(tq.standard_arrows) == 2


def test_normalize_command_renames_a_thread_arrow_inside_a_relation(tmp_path, capsys):
    src = tmp_path / "rel_thread.tq"
    src.write_text("vertex x y z\narrow a: x -> y\nthread t: y ..> z [2]\n"
                   "arrow b: x -> z\nrelation t*a - b = 0\n")
    code = run(["normalize", str(src)])
    out = capsys.readouterr().out
    assert code == 0
    tq = parse_tq(src.read_text())
    assert window_iso(expand(parse_tq(out), 2), expand(normalize(tq), 2)) is not None


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.tq"
    bad.write_text("vertex a\nthread t: a ..> zz []")
    code = run(["check", str(bad)])
    assert code == 2


def test_a_zero_denominator_is_a_parse_error(tmp_path, capsys):
    # 2/0 is refused at the coefficient's column, before any field reads it
    text = "vertex x y\narrow a: x -> y\nrelation 2/0 a = 0\n"
    with pytest.raises(ParseError) as ei:
        parse_tq(text)
    assert (ei.value.line, ei.value.col) == (3, 9)
    bad = tmp_path / "zero.tq"
    bad.write_text(text)
    for argv in (["check", str(bad)], ["serre-check", str(bad)]):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "line 3, col 9: zero denominator in coefficient '2/0'\n"


def test_a_coefficient_with_no_value_in_the_field_is_one_error_line(tmp_path, capsys):
    # 1/7 has no value mod 7: the window refuses the relation, naming it and
    # the field, in one stderr line with exit 1; a coefficient that merely
    # vanishes mod 7 is accepted, and 1/7 is 3 mod 5
    src = tmp_path / "triangle.tq"
    head = "vertex x y z\narrow a: x -> y\narrow b: y -> z\narrow c: x -> z\n"
    src.write_text(head + "relation b*a - 1/7 c = 0\n")
    for argv in (["serre-check", str(src)], ["hom", str(src), "x", "z"]):
        assert run(argv + ["--field", "fp:7"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("ThreadQuiverError: relation 1 b*a + -1/7 c = 0 has a "
                                "coefficient with no value in fp:7\n")
    code, doc = run_json(["hom", str(src), "x", "z", "--field", "fp:5"], capsys)
    assert code == 0 and doc["items"][0]["actual"] == "1"
    src.write_text(head + "relation 7 b*a - 7 c = 0\n")
    code, doc = run_json(["hom", str(src), "x", "z", "--field", "fp:7"], capsys)
    assert code == 0 and doc["items"][0]["actual"] == "2"


@pytest.mark.parametrize("text", [
    "vertex a\narrow f: a -> a\n",
    "vertex a b\narrow f: a -> b\narrow g: b -> a\n",
], ids=["loop", "2-cycle"])
def test_check_fails_a_cyclic_quiver(text, tmp_path, capsys):
    # every command that builds a window refuses the file; check says so too
    src = tmp_path / "cyclic.tq"
    src.write_text(text)
    code, doc = run_json(["check", str(src)], capsys)
    assert code == 1 and schema_valid(doc)
    assert doc["items"] == [{"subject": "underlying quiver", "expected": "acyclic",
                             "actual": "NonAcyclic", "location": ""}]
    assert run(["expand", str(src)]) == 1
    assert capsys.readouterr().err == "NonAcyclic: underlying quiver must be acyclic\n"


def test_usage_error_exit_code():
    assert run(["no-such-command"]) == 2


def test_missing_file_exit_code(capsys):
    assert run(["check", "/nonexistent/x.tq"]) == 2


WINDOW = {"--depth", "--field"}
SUBCOMMAND_FLAGS = {
    "check": set(),
    "normalize": set(),
    "expand": WINDOW,
    "dot": WINDOW | {"--expanded"},
    "hom": WINDOW,
    "ext": WINDOW | {"--max-len", "--degree"},
    "serre-check": WINDOW | {"--max-len", "--skip-boundary", "--no-skip-boundary",
                             "--min-checked"},
    "dualizing-check": WINDOW | {"--strict-boundary", "--min-checked"},
    "threads": WINDOW | {"--min-checked"},
    "extract": WINDOW | {"--min-thread-len"},
    "roundtrip": WINDOW | {"--min-thread-len"},
}


def test_each_subcommand_takes_only_the_flags_it_reads():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags, settable = {}, 0
    for name, p in sub.choices.items():
        actions = [a for a in p._actions if a.option_strings and a.dest != "help"]
        settable += len(actions)
        flags[name] = {opt for a in actions for opt in a.option_strings}
    assert flags == SUBCOMMAND_FLAGS
    assert settable == 29  # --skip-boundary / --no-skip-boundary is one setting


@pytest.mark.parametrize("argv", [
    ["dualizing-check", "a2.tq", "--no-skip-boundary"],
    ["dualizing-check", "a2.tq", "--max-len", "3"],
    ["threads", "a2.tq", "--max-len", "3"],
    ["check", "a2.tq", "--depth", "1"],
    ["hom", "a2.tq", "a", "b", "--min-thread-len", "1"],
])
def test_flag_a_subcommand_ignores_is_a_usage_error(argv, capsys):
    argv = [argv[0], str(FIXTURES / argv[1]), *argv[2:]]
    assert run(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err



NUMERIC_FLAGS = {"--depth", "--max-len", "--degree", "--min-thread-len", "--min-checked"}
BAD_FIELDS = ("zz", "fp:4", "fp:x")


def _bad_flag_values():
    """[subcommand, flag, value] for -1 at every numeric flag a subcommand
    takes and for every bad field at --field."""
    for name, flags in SUBCOMMAND_FLAGS.items():
        for flag in sorted(flags & NUMERIC_FLAGS):
            yield [name, flag, "-1"]
        if "--field" in flags:
            for field in BAD_FIELDS:
                yield [name, "--field", field]


@pytest.mark.parametrize("argv", list(_bad_flag_values()), ids=" ".join)
def test_a_bad_flag_value_is_a_usage_error(argv, capsys):
    # argparse rejects the value before any command runs, so nothing is
    # printed; z_thread has a thread, so a negative depth would reach the cut
    name, flag, value = argv
    vertices = ["x", "y"] if name in ("hom", "ext") else []
    code = run([name, str(FIXTURES / "z_thread.tq"), *vertices, flag, value])
    assert code == 2
    assert capsys.readouterr().out == ""

@pytest.mark.parametrize("n, code", [(20, 1), (14, 0)])
def test_min_checked_fails_a_report_that_checked_fewer(n, code, capsys):
    # serre-check z_thread at depth 1 checks 14 assertions and skips 9 probes:
    # below --min-checked N it fails in one item, at N it passes unchanged
    argv = ["serre-check", str(FIXTURES / "z_thread.tq"), "--depth", "1"]
    plain = run_json(argv, capsys)
    got = run_json(argv + ["--min-checked", str(n)], capsys)
    assert plain[0] == 0 and plain[1]["items"] == []
    assert got[0] == code
    if code:
        assert got[1]["items"] == [
            {"subject": "checked", "expected": f">= {n}", "actual": "14", "location": ""}]
    else:
        assert got == plain


@pytest.mark.parametrize("command", ["dualizing-check", "threads"])
def test_min_checked_applies_to_every_check(command, capsys):
    argv = [command, str(FIXTURES / "a2.tq"), "--depth", "1"]
    plain = run_json(argv, capsys)
    assert run_json(argv + ["--min-checked", "0"], capsys) == plain
    code, doc = run_json(argv + ["--min-checked", "100000"], capsys)
    assert code == 1 and doc["items"][-1]["subject"] == "checked"
    assert doc["items"][:-1] == plain[1]["items"]


def test_cli_subprocess_entry():
    # the module is runnable end to end through the interpreter
    proc = subprocess.run(
        [sys.executable, "-m", "threadquiver.cli", "serre-check",
         str(FIXTURES / "a2.tq")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["status"] == "pass"


def test_time_checks_script_prints_one_row_per_check_and_depth():
    # scripts/time_checks.py records the Baseline timings: one JSON row per
    # (check, depth), each run in a fresh interpreter
    script = FIXTURES.parent / "scripts" / "time_checks.py"
    proc = subprocess.run(
        [sys.executable, str(script), str(FIXTURES / "z_thread.tq"),
         "--depths", "1", "--checks", "threads"],
        capture_output=True,
        text=True,
        check=True,
    )
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(rows) == 1
    assert set(rows[0]) == {"tree", "check", "depth", "exit", "wall_s", "peak_rss_mb",
                            "import_rss_mb"}
    assert 0 < rows[0]["import_rss_mb"] <= rows[0]["peak_rss_mb"]
    assert (rows[0]["tree"], rows[0]["check"], rows[0]["depth"], rows[0]["exit"]) == (
        "this", "threads", 1, 0)
    # against a second tree (here the same checkout), two rounds alternate
    # which tree runs first
    proc = subprocess.run(
        [sys.executable, str(script), str(FIXTURES / "z_thread.tq"),
         "--depths", "0", "--checks", "threads", "--against", str(FIXTURES.parent),
         "--rounds", "2"],
        capture_output=True,
        text=True,
        check=True,
    )
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(row["tree"], row["depth"], row["exit"]) for row in rows] == [
        ("this", 0, 0), ("against", 0, 0), ("against", 0, 0), ("this", 0, 0)]


def _cli_digest():
    path = FIXTURES.parent / "scripts" / "cli_digest.py"
    spec = importlib.util.spec_from_file_location("cli_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_digest_corpus_runs_every_fixture_under_every_command_and_depth():
    # scripts/cli_digest.py compares two trees' answers byte for byte: every
    # fixture under each of its commands at each depth, once through
    # normalize and check, and every vertex pair through hom and ext; every
    # subcommand is run, and every invocation parses
    digest = _cli_digest()
    corpus = digest.corpus(parse_tq)
    invocations = {tuple(argv) for argv in corpus}
    assert len(invocations) == len(corpus)
    fixtures = sorted(f"fixtures/{p.name}" for p in FIXTURES.glob("*.tq"))
    assert fixtures
    for fixture in fixtures:
        for cmd in digest.COMMANDS:
            for depth in digest.DEPTHS:
                assert (*cmd, fixture, "--depth", str(depth)) in invocations, (cmd, depth)
        assert ("normalize", fixture) in invocations
        assert ("check", fixture) in invocations
        vertices = parse_tq((FIXTURES.parent / fixture).read_text()).vertices
        for cmd in digest.PAIR_COMMANDS:
            for depth in digest.PAIR_DEPTHS:
                for x in vertices:
                    for y in vertices:
                        assert (cmd[0], fixture, x, y, *cmd[1:], "--depth",
                                str(depth)) in invocations
    assert {argv[0] for argv in invocations} == {name for name, *_ in cli._COMMANDS}
    parser = build_parser()
    for argv in corpus:
        parser.parse_args(argv)


def test_cli_digest_is_stable_and_sees_the_exit_code_and_the_output():
    digest = _cli_digest()
    argv = ["serre-check", str(FIXTURES / "a2.tq"), "--depth", "0"]
    assert digest.digest(run, argv) == digest.digest(run, argv)

    def answering(code, out, err=""):
        def fake_run(argv):
            print(out, end="")
            print(err, end="", file=sys.stderr)
            return code
        return fake_run

    digests = {digest.digest(answering(code, out, err), argv)
               for code, out, err in [(0, "{}", ""), (1, "{}", ""), (0, "{ }", ""), (0, "{}", "x")]}
    assert len(digests) == 4


def test_no_cli_check_builds_a_kernel_on_a_whole_support(monkeypatch, capsys):
    # every serre-check and dualizing-check of the digest corpus builds its
    # kernels around a map (`reps._kernel_top`), its pseudo(co)kernels
    # included: each is one resolution step
    digest = _cli_digest()
    checks = [argv for argv in digest.corpus(parse_tq)
              if argv[0] in ("serre-check", "dualizing-check")]
    real = reps._kernel_module
    whole = Counter()

    def recording(M, kbases, frees, verts=None):
        whole[verts is None] += 1
        return real(M, kbases, frees, verts)

    monkeypatch.setattr(reps, "_kernel_module", recording)
    monkeypatch.chdir(FIXTURES.parent)
    for argv in checks:
        run(argv)
    capsys.readouterr()
    assert checks and whole[False]
    assert not whole[True], f"{whole[True]} kernels built on a whole support"


def test_json_keys_sorted(capsys):
    code, _ = run_json(["serre-check", str(FIXTURES / "a2.tq")], capsys)
    # re-run to capture the raw text
    run(["serre-check", str(FIXTURES / "a2.tq")])
    raw = capsys.readouterr().out
    doc = json.loads(raw)
    assert raw == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_prime_field_backend(capsys):
    code, doc = run_json(
        ["serre-check", str(FIXTURES / "a2.tq"), "--field", "fp:5"], capsys
    )
    assert code == 0 and doc["status"] == "pass"


def test_sanitize_names_roundtrip():
    tq = parse_tq((FIXTURES / "z_thread.tq").read_text())
    w = expand(tq, 1)
    from threadquiver.threads import extract_threadquiver

    extracted = sanitize_names(extract_threadquiver(w, 1))
    text = serialize_tq(extracted)
    assert parse_tq(text).vertices == extracted.vertices


# -- one parser per process ---------------------------------------------------------


def _answer(argv, capsys):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_builds_the_parser_once(monkeypatch, capsys):
    built = []

    def counting():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "_parser", None, raising=False)
    monkeypatch.setattr(cli, "build_parser", counting)
    a2 = str(FIXTURES / "a2.tq")
    codes = [run(argv) for argv in (["check", a2], ["threads", a2, "--depth", "0"],
                                    ["no-such-command"], ["serre-check", a2, "--depth", "0"])]
    assert codes == [0, 0, 2, 0]
    assert len(built) == 1


A2 = str(FIXTURES / "a2.tq")
# each option set, then omitted: a later parse must not see an earlier value
SET_THEN_OMITTED = [
    ["serre-check", A2, "--depth", "0", "--field", "fp:7", "--max-len", "2",
     "--no-skip-boundary", "--min-checked", "1"],
    ["serre-check", A2, "--depth", "0"],
    ["serre-check", A2, "--depth", "0", "--skip-boundary"],
    ["dualizing-check", A2, "--depth", "0", "--strict-boundary", "--field", "fp:7",
     "--min-checked", "0"],
    ["dualizing-check", A2, "--depth", "0"],
    ["ext", A2, "a", "b", "--depth", "0", "--max-len", "1", "--degree", "0"],
    ["ext", A2, "a", "b", "--depth", "0"],
    ["threads", A2, "--depth", "0", "--min-checked", "3"],
    ["threads", A2, "--depth", "0"],
]


def test_the_shared_parser_parses_as_a_fresh_one(monkeypatch, capsys):
    seen = []

    def recording():
        ap = build_parser()
        parse = ap.parse_args

        def parse_args(argv):
            args = parse(argv)
            seen.append(dict(vars(args)))
            return args

        ap.parse_args = parse_args
        return ap

    monkeypatch.setattr(cli, "_parser", None, raising=False)
    monkeypatch.setattr(cli, "build_parser", recording)
    for argv in SET_THEN_OMITTED:
        assert run(argv) in (0, 1), argv
    capsys.readouterr()
    assert seen == [vars(build_parser().parse_args(argv)) for argv in SET_THEN_OMITTED]


def test_the_shared_parser_keeps_usage_errors_help_and_answers(monkeypatch, capsys):
    # the first call builds the parser; the same calls after others answer
    # in the same bytes
    monkeypatch.setattr(cli, "_parser", None, raising=False)
    argvs = [["serre-check", A2, "--depth", "0"], ["serre-check", "--help"], ["--help"],
             ["serre-check"], ["threads", A2, "--depth", "-1"], ["no-such-command"]]
    first = [_answer(argv, capsys) for argv in argvs]
    assert [code for code, _, _ in first] == [0, 0, 0, 2, 2, 2]
    assert first[1][1].startswith("usage: threadquiver serre-check")
    assert first[2][1] == build_parser().format_help()
    assert all(err.startswith("usage: ") for _, _, err in first[3:])
    for argv in SET_THEN_OMITTED:
        run(argv)
    capsys.readouterr()
    assert [_answer(argv, capsys) for argv in argvs] == first


# -- window lifetime -----------------------------------------------------------------


def _watch_windows(monkeypatch):
    """Weak references to every window `cli.run` expands and every opposite
    it builds."""
    refs = []
    expand_orig, opposite_orig = cli.expand, Window.opposite

    def expand_watched(*args, **kwargs):
        w = expand_orig(*args, **kwargs)
        refs.append(weakref.ref(w))
        return w

    def opposite_watched(self):
        op = opposite_orig(self)
        refs.append(weakref.ref(op))
        return op

    monkeypatch.setattr(cli, "expand", expand_watched)
    monkeypatch.setattr(Window, "opposite", opposite_watched)
    return refs


def _raise_after_threads(error):
    # the check runs, filling the window's hom cache, and then fails
    def check(w, runs=None):
        thread_hom_check(w, runs)
        raise error("after the check")
    return check


MIXED = str(FIXTURES / "mixed.tq")


@pytest.mark.parametrize("argv, code, patch", [
    pytest.param(["serre-check", MIXED, "--depth", "1"], 0, None, id="serre-check"),
    pytest.param(["dualizing-check", MIXED, "--depth", "1"], 0, None, id="dualizing-check"),
    pytest.param(["threads", MIXED, "--depth", "1"], 0, None, id="threads"),
    pytest.param(["hom", MIXED, "A", "E", "--depth", "1"], 0, None, id="hom"),
    pytest.param(["ext", MIXED, "A", "E", "--depth", "1"], 0, None, id="ext"),
    pytest.param(["threads", MIXED, "--depth", "1"], 1, TooLarge, id="threads-fails"),
    pytest.param(["threads", MIXED, "--depth", "1"], None, RuntimeError, id="threads-raises"),
])
def test_cli_run_frees_its_windows_without_a_collection(argv, code, patch, monkeypatch):
    refs = _watch_windows(monkeypatch)
    if patch is not None:
        monkeypatch.setattr(cli, "thread_hom_check", _raise_after_threads(patch))
    gc.collect()
    gc.disable()
    try:
        if code is None:
            with pytest.raises(RuntimeError) as excinfo:
                run(argv)
            del excinfo
        else:
            assert run(argv) == code
        assert refs
        assert all(r() is None for r in refs), sum(r() is not None for r in refs)
    finally:
        gc.enable()


def test_released_window_still_answers():
    w = expand(parse_tq((FIXTURES / "mixed.tq").read_text()), 1)
    op = w.opposite()
    dims = {(x, y): w.hom_dim(x, y) for x in w.vertices for y in w.vertices}
    columns = list(w._hom_cache.values())
    w.release()
    assert w._hom_cache == {} and w._std_cache == {} and op._hom_cache == {}
    # a basis reads the column it lies in, so the columns are emptied
    assert columns and not any(columns)
    assert op._opposite is None
    assert {(x, y): w.hom_dim(x, y) for x in w.vertices for y in w.vertices} == dims
    assert w.opposite() is not op and w.opposite().opposite() is w
