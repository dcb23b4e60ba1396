"""JSON interchange for groups, subgroups, characters, and functions.

Serialization is canonical: keys appear in a fixed order, floats use the
shortest representation that round-trips the double bit-exactly, and
integers are written verbatim.  Objects that depend on a group carry a short
structural fingerprint of that group so mismatched files fail loudly instead
of silently reinterpreting indices.  Values and sections become lists only here.
"""

from __future__ import annotations

import cmath
import io
import json
import re
import warnings
from fractions import Fraction
from typing import Iterator

import numpy as np

from .covariant import CovariantFunction, from_section
from .characters import Character, make_character
from .errors import DomainMismatchError, ValidationError
from .groups import (
    FiniteGroup,
    GroupFunction,
    Subgroup,
    _block_rows,
    _check_order,
    checked_group,
    make_from_table,
    make_subgroup,
    quotient,
    table_hash,
)


def dumps(doc) -> str:
    """Serialize to a canonical single-line JSON string."""
    try:
        return json.dumps(doc, separators=(",", ":"), allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"cannot serialize document: {exc}") from exc


def group_id(group: FiniteGroup) -> str:
    """A short structural fingerprint: order and multiplication table only.

    Computed once per group object; see `FiniteGroup.fingerprint`.
    """
    return group.fingerprint


def subgroup_id(sub: Subgroup) -> str:
    """A short digest of the parent and the members, computed once per
    subgroup object; see `Subgroup.fingerprint`."""
    return sub.fingerprint


def _finite(values, what: str):
    for v in values:
        if not cmath.isfinite(v):
            raise ValidationError(f"non-finite value {v} in {what}")
    return values


def _pairs(values: np.ndarray) -> list[list[float]]:
    return [[v.real, v.imag] for v in _finite(values.tolist(), "a document to write")]


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _unpairs(doc, what: str) -> tuple[complex, ...]:
    try:
        pairs = [(re, im) for re, im in doc]
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} must be a list of [re, im] pairs") from exc
    values = []
    for i, (re, im) in enumerate(pairs):
        if not (_is_real(re) and _is_real(im)):
            raise ValidationError(f"{what} entry {i} is [{re!r}, {im!r}], not a pair of numbers")
        try:
            values.append(complex(float(re), float(im)))
        except OverflowError:
            raise ValidationError(f"{what} entry {i} is outside the float range") from None
    return _finite(tuple(values), what)


def _require_object(doc, what: str) -> None:
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} document must be a JSON object")


def group_to_json(group: FiniteGroup) -> dict:
    # Rows share one int object per element, not a fresh int per entry.
    elements = np.arange(group.order).astype(object)
    doc = {"order": group.order, "mul": [elements[row].tolist() for row in group.table]}
    if group.labels is not None:
        doc["labels"] = list(group.labels)
    return doc


def group_chunks(group: FiniteGroup) -> Iterator[bytes]:
    """`group_text(group)` as ASCII bytes, one block of the table's decimal
    rows (`FiniteGroup.decimal_blocks`) at a time."""
    joint = '{"order":%d,"mul":[[' % group.order
    for rows in group.decimal_blocks():
        yield (joint + "],[".join(rows)).encode()
        joint = "],["
    yield _closing(group).encode()


def group_text(group: FiniteGroup) -> str:
    """`dumps(group_to_json(group))`, joined from the table's decimal rows
    without building |G| lists of ints."""
    return b"".join(group_chunks(group)).decode()


def _closing(group: FiniteGroup) -> str:
    """What `group_text` writes after the last row: the labels, if any."""
    labels = "" if group.labels is None else ',"labels":' + dumps(list(group.labels))
    return f"]]{labels}}}"


def group_from_json(doc: dict) -> FiniteGroup:
    """Rebuild a group from its table, re-running the full axiom validation."""
    _require_object(doc, "group")
    try:
        order, table = doc["order"], doc["mul"]
    except KeyError as exc:
        raise ValidationError("group document needs 'order' and 'mul'") from exc
    if type(order) is not int:
        raise ValidationError(f"group order must be an integer, got {order!r}")
    group = make_from_table(table, doc.get("labels"))
    if group.order != order:
        raise ValidationError(
            f"group document claims order {order} but has {group.order} table rows"
        )
    return group


_HEAD = re.compile(rb'\{"order":([1-9][0-9]{0,9}),"mul":\[\[')
_LABELS = b']],"labels":'
_SPACE = b" \t\n\r"  # the trailing whitespace a canonical document may carry
_BAR_TO_COMMA = bytes.maketrans(b"|", b",")


def group_from_text(text: str | bytes) -> FiniteGroup:
    """`group_from_json(json.loads(text))`, reading the layout `group_text`
    writes straight from its rows' decimal text; see `read_group`."""
    return read_group(text)[0]


def read_group(text: str | bytes) -> tuple[FiniteGroup, str | memoryview | None]:
    """The group of a document, and the document with trailing whitespace
    stripped when that is `group_text` of the group byte for byte, else None:
    a str for a str, and for bytes a memoryview of them, not a copy.

    A document in `group_text`'s layout, with trailing whitespace allowed,
    builds no int object per entry: its rows are parsed and hashed for the
    fingerprint a block of rows at a time (`groups._BLOCK`), straight from the
    bytes into the int32 table; it is canonical if its labels are also
    spelled as `dumps` writes them.  Any other document (other whitespace or
    key order, a repeated key, a bare array, anything malformed) goes through
    `json.loads` of its `document_text` and `group_from_json`.  Either route
    loads the same group and fails with the same error.
    """
    data = text.encode() if isinstance(text, str) and text.isascii() else text
    read = _canonical_table(data) if isinstance(data, bytes) and data.isascii() else None
    if read is None:
        return group_from_json(json.loads(document_text(text))), None
    table, labels, digest, size, closing = read
    group = checked_group(table, labels)
    vars(group)["fingerprint"] = digest  # seeds the cached property
    if closing != _closing(group).encode():
        return group, None
    return group, text[:size] if isinstance(text, str) else memoryview(text)[:size]


def document_text(data: str | bytes) -> str:
    """The text of a document, with bytes decoded as a file is read in text
    mode: strict UTF-8 (`UnicodeDecodeError` otherwise) and universal newlines."""
    if isinstance(data, str):
        return data
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()


def _canonical_table(data: bytes):
    """The table, labels, fingerprint, the length of the document without
    its trailing whitespace and the bytes after the last row of an ASCII
    document in the exact layout of `group_text`, or None for any other."""
    head = _HEAD.match(data)
    end = -1 if head is None else data.rfind(b"]]", head.end())
    if end < 0:
        return None
    tail = data[end:].rstrip(_SPACE)
    labels = None
    if tail.startswith(_LABELS) and tail.endswith(b"}"):
        try:
            labels = json.loads(tail[len(_LABELS) : -1])
        except json.JSONDecodeError:  # a repeated key or malformed labels
            return None
    elif tail != b"]]}":
        return None

    # An n x n table has n^2 - 1 commas, one in each row separator "],[":
    # they are counted before anything of size n^2 is built.
    n, start = int(head[1]), head.end()
    if data.count(b",", start, end) != n * n - 1:
        return None
    _check_order(n)
    table = np.empty((n, n), dtype=np.int32)
    h = table_hash(n)
    step = _block_rows(n)
    seps = b"],[".join([b"," * (n - 1)] * step)   # a block's text without its digits
    for first in range(0, n, step):
        rows = min(step, n - first)
        stop = end      # the block ends at the "]]" after the last row or at a "],["
        if first + rows < n:
            stop = start - 3
            for _ in range(rows):
                stop = data.find(b"],[", stop + 3, end)
                if stop < 0:
                    return None
        block = data[start:stop]
        start = stop + 3
        if block.translate(None, b"0123456789") != seps[: rows * (n + 2) - 3]:
            return None
        # Each step drops the text before it: the rows as the fingerprint
        # hashes them, then as one list of entries for the parse.
        block = block.replace(b"],[", b"|")
        h.update(b"|")
        h.update(block)
        block = block.translate(_BAR_TO_COMMA)
        # An empty token is missed or refused by the parse, and numpy before 2.0
        # warns and returns what it read so far; the count catches both.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            try:
                values = np.fromstring(block, dtype=np.int32, sep=",")
            except ValueError:
                return None
        # Entries are in range and every token is the canonical decimal text of
        # its entry (no leading zero, nothing wrapped past int32) exactly when the
        # digits counted in the text match those of the entries.
        if (
            values.size != rows * n
            or values.min() < 0
            or values.max() >= n
            or len(block) - (rows * n - 1) != _digit_count(values)
        ):
            return None
        table[first : first + rows] = values.reshape(rows, n)
    return table, labels, h.hexdigest()[:16], end + len(tail), tail


def _digit_count(arr: np.ndarray) -> int:
    """Digits in the decimal text of the non-negative entries of `arr`."""
    count, power, top = arr.size, 10, int(arr.max())
    while power <= top:
        count += int(np.count_nonzero(arr >= power))
        power *= 10
    return count


def _check_group_id(doc: dict, group: FiniteGroup, what: str) -> None:
    _require_object(doc, what)
    gid = doc.get("group")
    if gid is not None and gid != group_id(group):
        raise DomainMismatchError(
            f"{what} was serialized for group {gid}, not {group_id(group)}"
        )


def function_to_json(f: GroupFunction) -> dict:
    return {"group": group_id(f.group), "values": _pairs(f.values)}


def function_from_json(doc: dict, group: FiniteGroup) -> GroupFunction:
    _check_group_id(doc, group, "function")
    return GroupFunction(group, _unpairs(doc.get("values", ()), "values"))


def subgroup_to_json(sub: Subgroup) -> dict:
    return {"group": group_id(sub.parent), "members": list(sub.members)}


def subgroup_from_json(doc: dict, group: FiniteGroup) -> Subgroup:
    _check_group_id(doc, group, "subgroup")
    members = doc.get("members")
    if members is None:
        raise ValidationError("subgroup document needs 'members'")
    return make_subgroup(group, members)


def _phases_from(doc, what: str) -> list[Fraction]:
    try:
        pairs = [(num, den) for num, den in doc]
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} must be [numerator, denominator] pairs") from exc
    for num, den in pairs:
        if type(num) is not int or type(den) is not int or den == 0:
            raise ValidationError(
                f"{what} must be pairs of integers with a non-zero denominator, "
                f"got [{num!r}, {den!r}]"
            )
    return [Fraction(num, den) for num, den in pairs]


def character_to_json(char: Character) -> dict:
    return {"domain": subgroup_id(char.domain), "phases": char.phase_pairs}


def character_from_json(doc: dict, domain: Subgroup) -> Character:
    _require_object(doc, "character")
    did = doc.get("domain")
    if did is not None and did != subgroup_id(domain):
        raise DomainMismatchError(
            f"character was serialized for subgroup {did}, not {subgroup_id(domain)}"
        )
    return make_character(domain, _phases_from(doc.get("phases", ()), "phases"))


def covariant_to_json(psi: CovariantFunction) -> dict:
    return {
        "group": group_id(psi.group),
        "normal": list(psi.quotient.normal.members),
        "character": psi.character.phase_pairs,
        "section": _pairs(psi.section),
    }


def covariant_from_json(doc: dict, group: FiniteGroup) -> CovariantFunction:
    _check_group_id(doc, group, "covariant function")
    members = doc.get("normal")
    if members is None:
        raise ValidationError("covariant document needs 'normal'")
    sub = make_subgroup(group, members)
    char = make_character(sub, _phases_from(doc.get("character", ()), "character"))
    quot = quotient(group, sub)
    return from_section(_unpairs(doc.get("section", ()), "section"), char, quot)
