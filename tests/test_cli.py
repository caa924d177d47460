import argparse
import json
import subprocess
import sys
from pathlib import Path

import pytest

from threadquiver.cli import build_parser, run
from threadquiver.dsl import emit_dot, parse_tq, sanitize_names, serialize_tq
from threadquiver.errors import DuplicateName, ParseError, UnknownVertex
from threadquiver.orders import INT, Concat, Fin, NAT, NEG_NAT
from threadquiver.windows import expand

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


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.tq"
    bad.write_text("vertex a\nthread t: a ..> zz []")
    code = run(["check", str(bad)])
    assert code == 2


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
    "serre-check": WINDOW | {"--max-len", "--skip-boundary", "--no-skip-boundary"},
    "dualizing-check": WINDOW | {"--strict-boundary"},
    "threads": WINDOW,
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
    assert settable == 26  # --skip-boundary / --no-skip-boundary is one setting


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
