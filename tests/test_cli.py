import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from covmod import jsonio, make_cyclic
from covmod.cli import main
from covmod.jsonio import group_id, group_to_json


def run(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "covmod", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture()
def z4_file(tmp_path):
    res = run("group", "make", "cyclic", "4", "--out", str(tmp_path / "z4.json"))
    assert res.returncode == 0, res.stderr
    return tmp_path / "z4.json"


def test_group_make_and_show(z4_file):
    doc = json.loads(z4_file.read_text())
    assert doc["order"] == 4
    res = run("group", "show", str(z4_file))
    assert res.returncode == 0
    assert "order   4" in res.stdout
    assert "abelian yes" in res.stdout


def test_a_reader_that_closes_the_pipe_early_gets_no_traceback(tmp_path):
    # Z256's characters print about 2.5 kB each, far past what a pipe buffers
    doc = tmp_path / "z256.json"
    assert run("group", "make", "cyclic", "256", "--out", str(doc)).returncode == 0
    proc = subprocess.Popen(
        [sys.executable, "-m", "covmod", "chars", "list", str(doc)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert err == b""
    assert json.loads(first)["phases"] == [[0, 1]] * 256


def test_group_make_weyl_heisenberg(tmp_path):
    out = tmp_path / "wh.json"
    res = run("group", "make", "weyl-heisenberg", "2", "4", "--out", str(out))
    assert res.returncode == 0
    assert json.loads(out.read_text())["order"] == 16
    res = run("group", "make", "weyl-heisenberg", "2", "3")
    assert res.returncode == 2
    assert "error:" in res.stderr


def test_group_make_document_is_pinned(tmp_path):
    # the semidirect split is not serialized: the bytes are the table's alone
    out = tmp_path / "wh.json"
    assert main(["group", "make", "weyl-heisenberg", "4", "4", "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "c953c7708447998386738622b2054669990f0940e6283ad2acaa73265de62dc4"


def test_group_make_table_from_bare_array(tmp_path):
    t = tmp_path / "t.json"
    t.write_text(json.dumps([[0, 1], [1, 0]]))
    res = run("group", "make", "table", str(t))
    assert res.returncode == 0
    assert json.loads(res.stdout)["order"] == 2


@pytest.mark.parametrize(
    "spelled, passed_through",
    [('"\\u00e9"', True), ('"\\u00E9"', False), ('"\u00e9"', False)],
    ids=["as-written", "upper-escape", "raw"],
)
def test_group_make_table_writes_canonical_bytes(tmp_path, monkeypatch, spelled, passed_through):
    # canonical text is written as read; any other spelling of the label is
    # re-rendered, so the bytes are the same either way
    rendered = []
    group_chunks = jsonio.group_chunks
    monkeypatch.setattr(jsonio, "group_chunks", lambda g: rendered.append(g) or group_chunks(g))
    src, out = tmp_path / "in.json", tmp_path / "out.json"
    doc = '{"order":2,"mul":[[0,1],[1,0]],"labels":["e",' + spelled + "]}\n \n"
    src.write_text(doc, encoding="utf-8")
    assert main(["group", "make", "table", str(src), "--out", str(out)]) == 0
    assert out.read_bytes() == b'{"order":2,"mul":[[0,1],[1,0]],"labels":["e","\\u00e9"]}\n'
    assert bool(rendered) is not passed_through


def test_group_make_semidirect(tmp_path):
    z2 = tmp_path / "z2.json"
    z3 = tmp_path / "z3.json"
    act = tmp_path / "act.json"
    assert run("group", "make", "cyclic", "2", "--out", str(z2)).returncode == 0
    assert run("group", "make", "cyclic", "3", "--out", str(z3)).returncode == 0
    act.write_text(json.dumps([[0, 1, 2], [0, 2, 1]]))
    res = run("group", "make", "semidirect", str(z2), str(z3), str(act))
    assert res.returncode == 0
    assert json.loads(res.stdout)["order"] == 6


def test_chars_list(z4_file):
    res = run("chars", "list", str(z4_file), "--members", "0,2")
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[1])["phases"] == [[0, 1], [1, 2]]


def test_txi_conv_modact_norm_flow(tmp_path, z4_file):
    gid = group_id(make_cyclic(4))
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"group": gid, "values": [[1, 0], [0, 0], [0, 0], [0, 0]]}))
    psi = tmp_path / "psi.json"
    res = run(
        "txi", str(z4_file), str(f),
        "--members", "0,2", "--char-index", "1", "--out", str(psi),
    )
    assert res.returncode == 0, res.stderr
    doc = json.loads(psi.read_text())
    assert doc["section"] == [[1.0, 0.0], [0.0, 0.0]]

    d1 = tmp_path / "d1.json"
    d1.write_text(json.dumps({"group": gid, "values": [[0, 0], [1, 0], [0, 0], [0, 0]]}))
    res = run("conv", str(z4_file), str(d1), str(d1))
    assert res.returncode == 0
    assert json.loads(res.stdout)["values"] == [[0, 0], [0, 0], [1, 0], [0, 0]]

    res = run("modact", str(z4_file), str(d1), str(psi))
    assert res.returncode == 0
    assert json.loads(res.stdout)["section"] == [[0, 0], [1, 0]]


def test_norm_prints_seventeen_digits(tmp_path, z4_file):
    gid = group_id(make_cyclic(4))
    psi = tmp_path / "psi.json"
    psi.write_text(
        json.dumps(
            {
                "group": gid,
                "normal": [0, 2],
                "character": [[0, 1], [1, 2]],
                "section": [[1, 0], [0, 2]],
            }
        )
    )
    res = run("norm", str(z4_file), str(psi), "--p", "2")
    assert res.returncode == 0
    assert res.stdout.strip() == "2.2360679774997898"
    assert float(res.stdout) == 5.0 ** 0.5

    f = tmp_path / "f.json"
    f.write_text(json.dumps({"group": gid, "values": [[3, 0], [0, 4], [0, 0], [0, 0]]}))
    res = run("norm", str(z4_file), str(f), "--p", "2")
    assert res.stdout.strip() == "5"


@pytest.mark.parametrize(
    "values, p, expected",
    [([2, 1, 0, 0.5], 2000, 2.0), ([1.41] * 4, 2100, 1.41 * 4.0 ** (1.0 / 2100))],
)
def test_norm_at_a_large_exponent(tmp_path, z4_file, values, p, expected):
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"values": [[v, 0] for v in values]}))
    res = run("norm", str(z4_file), str(f), "--p", str(p))
    assert res.returncode == 0, res.stderr
    assert math.isclose(float(res.stdout), expected, rel_tol=1e-15)


def test_norm_exponent_must_be_finite(tmp_path, capsys, z4_file):
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"values": [[1, 0], [0, 0], [0, 0], [0, 0]]}))
    for p in ("inf", "nan"):
        assert main(["norm", str(z4_file), str(f), "--p", p]) == 2
        assert "finite" in capsys.readouterr().err


def test_verify_subset_passes(tmp_path):
    out = tmp_path / "report.json"
    res = run(
        "verify", "--trials", "2", "--corpus", "Z4/evens,S3/A3", "--out", str(out)
    )
    assert res.returncode == 0, res.stderr
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["corpus"] == ["Z4/evens", "S3/A3"]
    assert json.loads(res.stdout)["passed"] is True


def test_verify_zero_tolerance_fails():
    res = run("verify", "--trials", "1", "--tol", "0", "--corpus", "Z4/evens")
    assert res.returncode == 1
    assert json.loads(res.stdout)["passed"] is False


def test_verify_trial_count_must_not_be_negative(capsys):
    assert main(["verify", "--trials", "-3", "--corpus", "Z4/evens"]) == 2
    assert "trial count" in capsys.readouterr().err
    assert main(["verify", "--trials", "0", "--corpus", "Z4/evens"]) == 0


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_verify_refuses_a_tolerance_that_judges_nothing(capsys, tol):
    assert main(["verify", "--tol", tol, "--trials", "1", "--corpus", "Z4/evens"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"got {float(tol)!r}" in out.err


@pytest.mark.parametrize("corpus", [",", " ", ""])
def test_verify_empty_corpus_selection_is_usage_error(capsys, corpus):
    assert main(["verify", "--corpus", corpus, "--trials", "1"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "names no corpus entry" in out.err


def test_verify_corpus_names_are_stripped(capsys):
    assert main(["verify", "--corpus", "Z4/evens, S3/A3 ", "--trials", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["corpus"] == ["Z4/evens", "S3/A3"]


def test_verify_unknown_corpus_is_usage_error():
    res = run("verify", "--corpus", "nope")
    assert res.returncode == 2
    assert "unknown corpus entries" in res.stderr


def test_bench_runs_and_prints_table():
    res = run("bench", "1", "1", "--repetitions", "2")
    assert res.returncode == 0
    assert "speedup" in res.stdout
    res = run("bench", "2", "2", "--repetitions", "2", "--json")
    assert res.returncode == 0
    assert len(json.loads(res.stdout)["variants"]) == 2


def test_missing_file_is_exit_two():
    res = run("group", "show", "no-such-file.json")
    assert res.returncode == 2
    assert "error:" in res.stderr


READ_COMMANDS = {
    "txi": ["txi", "{group}", "{z4}", "--members", "0"],
    "show": ["group", "show", "{group}"],
    "table": ["group", "make", "table", "{group}"],
}


@pytest.mark.parametrize("command", READ_COMMANDS.values(), ids=READ_COMMANDS.keys())
def test_unreadable_or_invalid_group_is_exit_two(tmp_path, capsys, command):
    z4 = tmp_path / "z4.json"
    z4.write_text(json.dumps({"values": [[1, 0], [0, 0], [0, 0], [0, 0]]}))
    missing = tmp_path / "missing.json"
    assert main([arg.format(group=missing, z4=z4) for arg in command]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {missing}: ")
    undecodable = tmp_path / "undecodable.json"
    undecodable.write_bytes(b'{"order":1,"mul":[[0]],"labels":["\xff"]}')
    assert main([arg.format(group=undecodable, z4=z4) for arg in command]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {undecodable}: ")
    invalid = tmp_path / "invalid.json"
    invalid.write_text('{"order":2,"mul":[[0,1],[1,0]]')
    assert main([arg.format(group=invalid, z4=z4) for arg in command]) == 2
    assert capsys.readouterr().err == (
        f"error: {invalid} is not valid JSON: "
        "Expecting ',' delimiter: line 1 column 31 (char 30)\n"
    )


@pytest.mark.parametrize("order", [1 << 20, 1 << 40])
def test_claimed_order_beyond_the_text_is_exit_two(tmp_path, capsys, order):
    doc = tmp_path / "g.json"
    doc.write_text('{"order":%d,"mul":[[0]]}\n' % order)
    assert main(["group", "show", str(doc)]) == 2
    assert capsys.readouterr().err == (
        f"error: group document claims order {order} but has 1 table rows\n"
    )


def test_bad_usage_is_exit_two():
    res = run("group")
    assert res.returncode == 2


MALFORMED = {
    "mul-string": (["group", "show", "{doc}"], {"order": 4, "mul": "abcd"}),
    "order-bool": (["group", "show", "{doc}"], {"order": True, "mul": [[0]]}),
    "labels-int": (["group", "show", "{doc}"], {"order": 1, "mul": [[0]], "labels": 5}),
    # str() would write these back as "None" and "1"
    "labels-null": (["group", "make", "table", "{doc}"], {"order": 2, "mul": [[0, 1], [1, 0]], "labels": ["a", None]}),
    "labels-number": (["group", "make", "table", "{doc}"], {"order": 2, "mul": [[0, 1], [1, 0]], "labels": ["a", 1]}),
    "entry-huge": (["group", "show", "{doc}"], {"order": 2, "mul": [[0, 1], [1, 2**70]]}),
    "entry-huge-negative": (["group", "show", "{doc}"], {"order": 2, "mul": [[0, 1], [1, -2**70]]}),
    "table-flat": (["group", "make", "table", "{doc}"], [1, 2]),
    "function-array": (["conv", "{z4}", "{doc}", "{doc}"], [[1, 0], [0, 0], [0, 0], [0, 0]]),
    "nan-value": (["norm", "{z4}", "{doc}"], {"values": [["nan", 0], [0, 0], [0, 0], [0, 0]]}),
    # json.dumps writes these as the NaN and Infinity literals, which json.loads reads back
    "nan-literal": (["norm", "{z4}", "{doc}"], {"values": [[math.nan, 0], [0, 0], [0, 0], [0, 0]]}),
    "inf-literal": (["norm", "{z4}", "{doc}"], {"values": [[0, -math.inf], [0, 0], [0, 0], [0, 0]]}),
    "value-string-bool": (["norm", "{z4}", "{doc}"], {"values": [["1.5", True], [0, 0], [0, 0], [0, 0]]}),
    "value-huge": (["norm", "{z4}", "{doc}"], {"values": [[1, 10**400], [0, 0], [0, 0], [0, 0]]}),
    # one document serves as the function and as the character
    "phase-float": (
        ["txi", "{z4}", "{doc}", "--members", "0,2", "--char", "{doc}"],
        {"values": [[1, 0], [0, 0], [0, 0], [0, 0]], "phases": [[0, 1], [1.9, 2]]},
    ),
    "normal-string": (["norm", "{z4}", "{doc}"], {"normal": "ab", "character": [], "section": []}),
    # int() would read 2.9 as 2 and "2" as 2, and a bare 5 is not a row at all
    "action-float": (["group", "make", "semidirect", "{z2}", "{z3}", "{doc}"], [[0, 1, 2], [0, 2.9, 1]]),
    "action-string": (["group", "make", "semidirect", "{z2}", "{z3}", "{doc}"], [[0, 1, 2], [0, "2", 1]]),
    "action-row-int": (["group", "make", "semidirect", "{z2}", "{z3}", "{doc}"], [[0, 1, 2], 5]),
}


@pytest.mark.parametrize("command, doc", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_document_is_exit_two(tmp_path, capsys, command, doc):
    paths = {name: tmp_path / f"{name}.json" for name in ("doc", "z2", "z3", "z4")}
    paths["doc"].write_text(json.dumps(doc))
    for n in (2, 3, 4):
        paths[f"z{n}"].write_text(json.dumps(group_to_json(make_cyclic(n))))
    assert main([arg.format(**paths) for arg in command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


# numpy.random imports secrets, and through hmac and hashlib OpenSSL's _hashlib
_OPENSSL = ("numpy.random", "secrets", "_hashlib")

_LOADED_BY = f"""
import json, runpy, sys
import numpy
before = [name for name in {_OPENSSL!r} if name in sys.modules]
code = 0
try:
    runpy.run_module("covmod", run_name="__main__", alter_sys=True)
except SystemExit as stop:
    code = stop.code
after = [name for name in {_OPENSSL!r} if name in sys.modules]
print(json.dumps([before, after, code]), file=sys.stderr)
"""


@pytest.mark.parametrize(
    "args", [["verify", "--trials", "1", "--corpus", "Z4/evens"], ["bench", "2", "4"]]
)
def test_the_drawing_commands_load_no_openssl(args):
    """The draws are numpy integer arithmetic, not numpy.random."""
    res = subprocess.run(
        [sys.executable, "-c", _LOADED_BY, *args], capture_output=True, text=True
    )
    before, after, code = json.loads(res.stderr.splitlines()[-1])
    if before:
        pytest.skip(f"numpy {np.__version__} loads {before} itself in `import numpy`")
    assert code == 0, res.stderr
    assert after == [], f"covmod {args[0]} loaded {after}"
