"""Command line front end: build groups, average, convolve, verify, bench.

Exit codes: 0 on success, 1 when `verify` finds a failing check, 2 on bad
input (malformed files, invalid tables, unknown names, usage errors), and
141 when the reader of standard output closed it early (`| head`), the
status a shell gives a process that SIGPIPE ends.
`verify` and `bench` are imported by their own commands only, so the other
commands do not load them.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

from . import jsonio
from .characters import enumerate_characters
from .convolution import convolve, module_action
from .covariant import cov_norm, t_xi
from .errors import CovmodError
from .groups import (
    group_center,
    lp_norm,
    make_cyclic,
    make_from_table,
    make_subgroup,
)
from .semidirect import heisenberg_finite, make_product, semidirect, weyl_heisenberg_finite


def _read_json(path: str, parse=None):
    """`parse` of the file's bytes, by default `json.loads` of their text."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise CovmodError(f"cannot read {path}: {exc}") from exc
    try:
        return parse(data) if parse else json.loads(jsonio.document_text(data))
    except UnicodeDecodeError as exc:
        raise CovmodError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CovmodError(f"{path} is not valid JSON: {exc}") from exc


def _write(doc: str | Iterable[bytes], out: str | None) -> None:
    """Write a document, text or byte chunks written as they come, and a
    newline to the file `out`, or to standard output."""
    chunks = chain([doc.encode()] if isinstance(doc, str) else doc, [b"\n"])
    if not out:
        sys.stdout.flush()
        sys.stdout.buffer.writelines(chunks)
        return
    try:
        with open(out, "wb") as f:
            f.writelines(chunks)
    except OSError as exc:
        raise CovmodError(f"cannot write {out}: {exc}") from exc


def _load_group(path: str):
    return _read_json(path, jsonio.group_from_text)


_BARE_TABLE = re.compile(rb"[ \t\n\r]*\[")


def _group_or_table(data: bytes):
    """A group document through `read_group`, with the bytes to write when
    they are already the canonical document; a bare array of rows, which
    `group_from_json` refuses, through `make_from_table`."""
    if _BARE_TABLE.match(data):
        return make_from_table(json.loads(jsonio.document_text(data))), None
    return jsonio.read_group(data)


def _parse_members(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise CovmodError(
            f"bad member list {text!r}; expected comma-separated element indices"
        ) from None


def _cmd_group_make(args) -> int:
    text = None
    if args.kind == "cyclic":
        g = make_cyclic(args.order)
    elif args.kind == "product":
        g = make_product(_load_group(args.a), _load_group(args.b))
    elif args.kind == "table":
        g, text = _read_json(args.table, _group_or_table)
    elif args.kind == "heisenberg":
        g = heisenberg_finite(args.m).product
    elif args.kind == "weyl-heisenberg":
        g = weyl_heisenberg_finite(args.m, args.r).product
    else:
        action = _read_json(args.action)
        if not isinstance(action, list):
            raise CovmodError(f"{args.action} must hold a JSON array of action rows")
        g = semidirect(
            _load_group(args.h), _load_group(args.k), action
        ).product
    _write(jsonio.group_chunks(g) if text is None else (text,), args.out)
    return 0


def _cmd_group_show(args) -> int:
    g = _load_group(args.group)
    print(f"order   {g.order}")
    print(f"id      {jsonio.group_id(g)}")
    print(f"abelian {'yes' if g.is_abelian else 'no'}")
    print(f"center  {group_center(g).order}")
    return 0


def _cmd_chars(args) -> int:
    group = _load_group(args.group)
    members = (
        _parse_members(args.members) if args.members else range(group.order)
    )
    sub = make_subgroup(group, members)
    for char in enumerate_characters(sub):
        print(jsonio.dumps(jsonio.character_to_json(char)))
    return 0


def _pick_character(args, sub):
    if args.char:
        return jsonio.character_from_json(_read_json(args.char), sub)
    chars = enumerate_characters(sub)
    if not 0 <= args.char_index < len(chars):
        raise CovmodError(
            f"character index {args.char_index} out of range; "
            f"the subgroup has {len(chars)} characters"
        )
    return chars[args.char_index]


def _cmd_txi(args) -> int:
    group = _load_group(args.group)
    f = jsonio.function_from_json(_read_json(args.function), group)
    sub = make_subgroup(group, _parse_members(args.members))
    psi = t_xi(f, _pick_character(args, sub))
    _write(jsonio.dumps(jsonio.covariant_to_json(psi)), args.out)
    return 0


def _cmd_conv(args) -> int:
    group = _load_group(args.group)
    f = jsonio.function_from_json(_read_json(args.f), group)
    g = jsonio.function_from_json(_read_json(args.g), group)
    _write(jsonio.dumps(jsonio.function_to_json(convolve(f, g))), args.out)
    return 0


def _cmd_modact(args) -> int:
    group = _load_group(args.group)
    f = jsonio.function_from_json(_read_json(args.function), group)
    psi = jsonio.covariant_from_json(_read_json(args.covariant), group)
    _write(jsonio.dumps(jsonio.covariant_to_json(module_action(f, psi))), args.out)
    return 0


def _cmd_norm(args) -> int:
    group = _load_group(args.group)
    doc = _read_json(args.input)
    if isinstance(doc, dict) and "section" in doc:
        val = cov_norm(jsonio.covariant_from_json(doc, group), args.p)
    else:
        val = lp_norm(jsonio.function_from_json(doc, group), args.p)
    print(format(val, ".17g"))
    return 0


def _cmd_verify(args) -> int:
    from .verify import builtin_corpus, run_verification

    entries = builtin_corpus()
    if args.corpus is not None:
        wanted = [tok.strip() for tok in args.corpus.split(",") if tok.strip()]
        if not wanted:
            raise CovmodError(f"--corpus {args.corpus!r} names no corpus entry")
        known = {e.name for e in entries}
        unknown = [name for name in wanted if name not in known]
        if unknown:
            raise CovmodError(
                f"unknown corpus entries {unknown}; known: {sorted(known)}"
            )
        keep = set(wanted)
        entries = [e for e in entries if e.name in keep]
    report = run_verification(
        entries, seed=args.seed, trials=args.trials, tol=args.tol
    )
    text = json.dumps(report, indent=2)
    if args.out:
        _write(text, args.out)
    print(text)
    return 0 if report["passed"] else 1


def _cmd_bench(args) -> int:
    from .bench import bench_table, run_bench

    report = run_bench(args.m, args.r, repetitions=args.repetitions, seed=args.seed)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(bench_table(report))
    return 0


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write the JSON document here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covmod",
        description=(
            "Exact harmonic analysis on finite groups: covariant functions, "
            "subgroup averaging, and the convolution module structure."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_group = sub.add_parser("group", help="build or inspect group tables")
    gsub = p_group.add_subparsers(dest="group_command", required=True)

    p_make = gsub.add_parser("make", help="construct a group and emit its JSON")
    msub = p_make.add_subparsers(dest="kind", required=True)
    p = msub.add_parser("cyclic", help="cyclic group of a given order")
    p.add_argument("order", type=int)
    _add_out(p)
    p.set_defaults(func=_cmd_group_make)
    p = msub.add_parser("product", help="direct product of two group files")
    p.add_argument("a")
    p.add_argument("b")
    _add_out(p)
    p.set_defaults(func=_cmd_group_make)
    p = msub.add_parser("table", help="validate an explicit multiplication table")
    p.add_argument("table", help="JSON file: a group document or a bare table")
    _add_out(p)
    p.set_defaults(func=_cmd_group_make)
    p = msub.add_parser("heisenberg", help="discrete Heisenberg group mod m")
    p.add_argument("m", type=int)
    _add_out(p)
    p.set_defaults(func=_cmd_group_make)
    p = msub.add_parser(
        "weyl-heisenberg", help="shear group on Z_m with central Z_r, m | r"
    )
    p.add_argument("m", type=int)
    p.add_argument("r", type=int)
    _add_out(p)
    p.set_defaults(func=_cmd_group_make)
    p = msub.add_parser("semidirect", help="H acting on K through explicit rows")
    p.add_argument("h")
    p.add_argument("k")
    p.add_argument("action", help="JSON file: |H| permutation rows over K")
    _add_out(p)
    p.set_defaults(func=_cmd_group_make)

    p = gsub.add_parser("show", help="print a short summary of a group file")
    p.add_argument("group")
    p.set_defaults(func=_cmd_group_show)

    p_chars = sub.add_parser("chars", help="work with subgroup characters")
    csub = p_chars.add_subparsers(dest="chars_command", required=True)
    p = csub.add_parser("list", help="enumerate the characters of a subgroup")
    p.add_argument("group")
    p.add_argument(
        "--members",
        help="comma-separated subgroup members (default: the whole group)",
    )
    p.set_defaults(func=_cmd_chars)

    p = sub.add_parser("txi", help="average a function into a covariant section")
    p.add_argument("group")
    p.add_argument("function")
    p.add_argument("--members", required=True, help="normal subgroup members")
    p.add_argument("--char-index", type=int, default=0)
    p.add_argument("--char", help="character JSON file (overrides --char-index)")
    _add_out(p)
    p.set_defaults(func=_cmd_txi)

    p = sub.add_parser("conv", help="convolve two functions on one group")
    p.add_argument("group")
    p.add_argument("f")
    p.add_argument("g")
    _add_out(p)
    p.set_defaults(func=_cmd_conv)

    p = sub.add_parser("modact", help="convolve a function against a covariant one")
    p.add_argument("group")
    p.add_argument("function")
    p.add_argument("covariant")
    _add_out(p)
    p.set_defaults(func=_cmd_modact)

    p = sub.add_parser("norm", help="p-norm of a function or covariant document")
    p.add_argument("group")
    p.add_argument("input")
    p.add_argument("--p", type=float, default=2.0)
    p.set_defaults(func=_cmd_norm)

    p = sub.add_parser("verify", help="run the built-in theorem checks")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument(
        "--tol",
        type=float,
        default=None,
        help="override every check's tolerance with one value",
    )
    p.add_argument("--corpus", help="comma-separated entry names to restrict to")
    p.add_argument("--out", help="also write the JSON report to this file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="time convolution routes on a shear group")
    p.add_argument("m", type=int)
    p.add_argument("r", type=int)
    p.add_argument("--repetitions", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true", help="emit the raw report")
    p.set_defaults(func=_cmd_bench)

    return parser


EXIT_BROKEN_PIPE = 141


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()   # so a closed pipe shows here, not at interpreter exit
        return status
    except CovmodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Stop quietly; the interpreter's own flush at exit would fail again
        # on the closed pipe, so standard output goes to the null device.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
