import hashlib
import importlib.util
import json
import math
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covmod import groups, jsonio
from covmod import (
    CovmodError,
    DomainMismatchError,
    GroupFunction,
    NormalityError,
    ValidationError,
    enumerate_characters,
    heisenberg_finite,
    lift_subgroup,
    make_cyclic,
    make_from_table,
    make_product,
    make_subgroup,
    random_function,
    symmetric_3,
    t_xi,
    weyl_heisenberg_finite,
)
from covmod.verify import builtin_corpus
from covmod.jsonio import (
    character_from_json,
    character_to_json,
    covariant_from_json,
    covariant_to_json,
    dumps,
    function_from_json,
    function_to_json,
    group_from_json,
    group_from_text,
    group_id,
    group_text,
    group_to_json,
    read_group,
    subgroup_from_json,
    subgroup_id,
    subgroup_to_json,
)


def test_dumps_is_canonical():
    assert dumps({"b": 1, "a": [True, None, "x"]}) == '{"b":1,"a":[true,null,"x"]}'
    assert dumps({"x": 0.1}) == '{"x":0.1}'
    assert dumps({"x": 1 / 3}) == '{"x":0.3333333333333333}'
    assert float("0.3333333333333333") == 1 / 3


def test_dumps_rejects_non_finite():
    with pytest.raises(ValidationError):
        dumps({"x": math.inf})


def test_dumps_edge_values():
    assert dumps([5e-324, -0.0, 1e16, 1e22]) == "[5e-324,-0.0,1e+16,1e+22]"
    assert dumps({"\u00e9": "\u4e2d"}) == '{"\\u00e9":"\\u4e2d"}'


def test_dumps_rejects_unsupported_type():
    with pytest.raises(ValidationError):
        dumps({"x": Fraction(1, 3)})


def test_group_round_trip(s3):
    doc = group_to_json(s3)
    back = group_from_json(doc)
    assert back.mul == s3.mul
    assert back.labels == s3.labels
    assert group_id(back) == group_id(s3)


def test_group_id_is_stable(z4, s3):
    # Existing documents carry these fingerprints; they must not change.
    assert group_id(z4) == "4e53267e8f572239"
    assert group_id(s3) == "ce2a909c88d6ef6a"
    assert group_id(weyl_heisenberg_finite(8, 8).product) == "954ccf0a4adc971d"
    assert group_id(heisenberg_finite(3).product) == "aefd8c6b75b4b33a"


def test_semidirect_split_is_invisible_to_identity():
    # the product keeps its factors for convolution; a group read back from
    # its table has none, and is still the same group with the same document
    g = heisenberg_finite(3).product
    doc = group_to_json(g)
    back = group_from_json(doc)
    assert g.split is not None and back.split is None
    assert back == g and hash(back) == hash(g)
    assert back.fingerprint == g.fingerprint == "aefd8c6b75b4b33a"
    assert group_to_json(back) == doc


def test_group_text_is_the_canonical_document(s3):
    labelled = make_from_table([[0, 1], [1, 0]], ["e", "\u00e9"])
    groups = [make_cyclic(1), make_product(s3, labelled), labelled,
              weyl_heisenberg_finite(4, 4).product]
    for g in groups:
        assert group_text(g) == dumps(group_to_json(g))
    assert group_text(make_cyclic(1)) == '{"order":1,"mul":[[0]]}'
    assert group_text(labelled).endswith(',"labels":["e","\\u00e9"]}')


def test_group_from_json_rejects_order_mismatch(z4):
    doc = group_to_json(z4)
    doc["order"] = 5
    with pytest.raises(ValidationError):
        group_from_json(doc)


def test_function_round_trip_bit_exact(s3):
    f = random_function(s3, random.Random("json"))
    back = function_from_json(function_to_json(f), s3)
    assert back.values.tolist() == f.values.tolist()


def test_function_rejects_wrong_group(z4, s3):
    f = GroupFunction(z4, (1 + 0j, 0j, 0j, 0j))
    doc = function_to_json(f)
    with pytest.raises(DomainMismatchError):
        function_from_json(doc, s3)


def test_function_rejects_non_finite(z4):
    f = GroupFunction(z4, (complex(math.nan, 0),) + (0j,) * 3)
    with pytest.raises(ValidationError):
        function_to_json(f)


@pytest.mark.parametrize(
    "pair, named",
    [
        (["1.5", True], "entry 1 is ['1.5', True], not a pair of numbers"),
        ([1, None], "entry 1 is [1, None], not a pair of numbers"),
        ([True, 0], "entry 1 is [True, 0], not a pair of numbers"),
        ([1, 10**400], "entry 1 is outside the float range"),
        ([math.inf, 0], "non-finite value (inf+0j)"),
        ([0, math.nan], "non-finite value nanj"),
    ],
)
def test_function_values_must_be_number_pairs(z4, pair, named):
    doc = {"values": [[0, 0], pair, [0, 0], [0, 0]]}
    with pytest.raises(ValidationError, match=re.escape(named)):
        function_from_json(doc, z4)
    assert function_from_json({"values": [[0, 0], [1, 2.5]] + [[0, 0]] * 2}, z4).values[1] == 1 + 2.5j


def test_subgroup_round_trip(s3, a3):
    doc = subgroup_to_json(a3)
    back = subgroup_from_json(doc, s3)
    assert back.members == a3.members
    assert subgroup_id(back) == subgroup_id(a3)


def test_listing_characters_takes_the_subgroup_digest_once(monkeypatch):
    sd = weyl_heisenberg_finite(16, 16)
    k = lift_subgroup(sd, make_subgroup(sd.k, range(256)))
    chars = enumerate_characters(k)
    gid = group_id(sd.product)
    # the documents' digest: the tag, the group's fingerprint and the members
    members = ",".join(map(str, k.members))
    want = hashlib.sha256(f"covmod-subgroup-v1:{gid}{members}".encode())
    digests = []
    sha256 = groups.sha256
    monkeypatch.setattr(groups, "sha256", lambda *args: digests.append(args) or sha256(*args))
    docs = [character_to_json(char) for char in chars]
    assert len(docs) == 256 and len(digests) == 1
    assert {doc["domain"] for doc in docs} == {want.hexdigest()[:16]}


def test_fingerprints_are_the_sha256_of_the_v1_text():
    # hashed by CPython's built-in sha256 where it has one, which loads no
    # OpenSSL; hashlib's is the reference
    if importlib.util.find_spec("_sha2") or importlib.util.find_spec("_sha256"):
        assert groups.sha256 is not hashlib.sha256
    for entry in builtin_corpus():
        for g in (entry.group, entry.quot.table):
            got = group_id(g)   # before anything reads a product's table
            rows = "".join("|" + ",".join(map(str, row)) for row in g.table.tolist())
            want = hashlib.sha256(f"covmod-group-v1:{g.order}{rows}".encode())
            assert got == want.hexdigest()[:16]
        sub = entry.normal
        members = ",".join(map(str, sub.members))
        want = hashlib.sha256(f"covmod-subgroup-v1:{group_id(sub.parent)}{members}".encode())
        assert subgroup_id(sub) == want.hexdigest()[:16]


def test_reading_a_document_holds_little_beside_its_table():
    # a decoded copy, the rows' text split and joined again and whole-table
    # checks peaked at 4.34 MiB beside the document; the table is 1 MiB
    data = group_text(weyl_heisenberg_finite(8, 8).product).encode()
    tracemalloc.start()
    try:
        group, canonical = read_group(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert group.order == 512 and canonical == data
    assert peak < 2.5 * 2**20


def test_phase_tuples_write_the_text_of_phase_lists():
    # `phase_pairs` goes into documents as tuples, which `json` writes as arrays
    z32x32 = make_product(make_cyclic(32), make_cyclic(32))
    sd = weyl_heisenberg_finite(4, 8)
    k = lift_subgroup(sd, make_subgroup(sd.k, range(32)))
    rng = random.Random("phase-tuples")
    for domain in (make_subgroup(z32x32, range(1024)), k):
        chars = enumerate_characters(domain)
        for char in chars:
            doc = character_to_json(char)
            assert dumps(doc) == dumps({**doc, "phases": [list(p) for p in char.phase_pairs]})
        psi = t_xi(random_function(domain.parent, rng), chars[-1], quot=domain.quotient)
        doc = covariant_to_json(psi)
        assert dumps(doc) == dumps({**doc, "character": [list(p) for p in chars[-1].phase_pairs]})


def test_character_round_trip(z4, z4_evens):
    for char in enumerate_characters(z4_evens):
        back = character_from_json(character_to_json(char), z4_evens)
        assert back.phases == char.phases


def test_character_from_json_revalidates(z4, z4_evens):
    doc = character_to_json(enumerate_characters(z4_evens)[1])
    doc["phases"] = [[0, 1], [1, 3]]
    with pytest.raises(ValidationError):
        character_from_json(doc, z4_evens)


def test_covariant_round_trip(z4, z4_evens, z4_quot):
    f = random_function(z4, random.Random("cj"))
    for char in enumerate_characters(z4_evens):
        psi = t_xi(f, char, quot=z4_quot)
        back = covariant_from_json(covariant_to_json(psi), z4)
        assert back.section.tolist() == psi.section.tolist()
        assert back.character.phases == psi.character.phases
        assert back.quotient.reps.tolist() == psi.quotient.reps.tolist()


def test_covariant_rejects_non_normal_members(s3):
    sub_doc = {
        "group": group_id(s3),
        "normal": [0, 1],
        "character": [[0, 1], [0, 1]],
        "section": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
    }
    with pytest.raises(NormalityError):
        covariant_from_json(sub_doc, s3)


CANONICAL = {
    name: group_text(g)
    for name, g in [
        ("order-1", make_cyclic(1)),
        ("z4", make_cyclic(4)),
        ("s3-labelled", symmetric_3()),
        ("wh-2-4", weyl_heisenberg_finite(2, 4).product),
    ]
}


def _outcome(load, text):
    try:
        group = load(text)
    except (CovmodError, json.JSONDecodeError) as exc:
        return type(exc), str(exc)
    return group, group.labels, group.fingerprint


def _assert_routes_agree(text):
    """`group_from_text` loads what the JSON route loads, or fails as it fails;
    the fingerprint the reader seeds equals the one computed from the table."""
    fast = _outcome(group_from_text, text)
    slow = _outcome(lambda t: group_from_json(json.loads(t)), text)
    assert fast == slow


READABLE = {
    **CANONICAL,
    **{f"{name}-newline": text + "\n" for name, text in CANONICAL.items()},
    "escaped-label-whitespace": group_text(make_from_table([[0, 1], [1, 0]], ["e", "\u00e9"])) + " \r\n\t",
}


@pytest.mark.parametrize("text", READABLE.values(), ids=READABLE.keys())
def test_group_from_text_reads_the_canonical_layout_without_json(monkeypatch, text):
    expected = group_from_json(json.loads(text))
    monkeypatch.setattr(jsonio, "group_from_json", None)
    group = group_from_text(text)
    assert "fingerprint" in vars(group)  # seeded from the rows' text
    assert group == expected and group.labels == expected.labels
    assert group.fingerprint == expected.fingerprint


@pytest.mark.parametrize("text", READABLE.values(), ids=READABLE.keys())
def test_read_group_reports_the_canonical_document(text):
    group, canonical = read_group(text)
    assert canonical == text.rstrip(" \t\n\r") == group_text(group)


_PAIR = '{"order":2,"mul":[[0,1],[1,0]]'
RESPELLED = {
    "label-upper-escape": _PAIR + ',"labels":["e","\\u00E9"]}',
    "label-raw": _PAIR + ',"labels":["e","\u00e9"]}',
    "label-spaced": _PAIR + ',"labels":["e", "f"]}',
    "labels-null": _PAIR + ',"labels":null}',
    "pretty": json.dumps({"order": 2, "mul": [[0, 1], [1, 0]]}, indent=1),
}


@pytest.mark.parametrize("text", RESPELLED.values(), ids=RESPELLED.keys())
def test_read_group_reports_other_spellings_as_not_canonical(text):
    group, canonical = read_group(text)
    assert canonical is None
    expected = group_from_json(json.loads(text))
    assert group == expected and group.labels == expected.labels


_EDIT_CHARS = '0123456789,[]{}" -.e\n'


@settings(max_examples=300, deadline=None)
@given(
    text=st.sampled_from(list(CANONICAL.values())),
    op=st.sampled_from(["insert", "delete", "replace"]),
    where=st.floats(min_value=0, max_value=1, exclude_max=True),
    char=st.sampled_from(_EDIT_CHARS),
)
def test_group_from_text_agrees_with_json_after_one_edit(text, op, where, char):
    i = int(where * len(text))
    if op == "insert":
        text = text[:i] + char + text[i:]
    elif op == "delete":
        text = text[:i] + text[i + 1 :]
    else:
        text = text[:i] + char + text[i + 1 :]
    _assert_routes_agree(text)


Z2 = '{"order":2,"mul":[[0,1],[1,0]]'
FIXED = {
    "ragged-rows": '{"order":2,"mul":[[0,1,1],[0]]}',
    "leading-zero": '{"order":2,"mul":[[0,01],[1,0]]}',
    "minus-zero": '{"order":2,"mul":[[-0,1],[1,0]]}',
    "float": '{"order":2,"mul":[[0,1.0],[1,0]]}',
    "exponent": '{"order":2,"mul":[[0,1e0],[1,0]]}',
    "out-of-range": '{"order":2,"mul":[[0,1],[1,7]]}',
    "wraps-int32": '{"order":2,"mul":[[0,1],[1,4294967296]]}',
    "wraps-to-int32-max": '{"order":2,"mul":[[0,1],[1,6442450943]]}',
    "huge": '{"order":2,"mul":[[0,1],[1,%d]]}' % 2**70,
    "empty-token": '{"order":2,"mul":[[0,],[1,0,1]]}',
    "duplicate-mul": Z2 + ',"mul":[[0]]}',
    "duplicate-order": Z2 + ',"order":3}',
    "duplicate-order-after-labels": Z2 + ',"labels":["a","b"],"order":3}',
    "labels-number": Z2 + ',"labels":["a",1]}',
    "labels-short": Z2 + ',"labels":["a"]}',
    "labels-null": Z2 + ',"labels":null}',
    "labels-object": Z2 + ',"labels":{"a":"b"}}',
    "trailing-newline": Z2 + "}\n",
    "truncated": Z2,
    "order-mismatch": '{"order":3,"mul":[[0,1],[1,0]]}',
    "no-identity": '{"order":2,"mul":[[1,0],[0,1]]}',
    "no-inverse": '{"order":2,"mul":[[0,1],[1,1]]}',
    "not-associative": group_text(make_cyclic(4)).replace("[1,2,3,0]", "[1,3,2,0]", 1),
    "bare-array": "[[0,1],[1,0]]",
    "spaced": json.dumps({"order": 2, "mul": [[0, 1], [1, 0]]}),
}


@pytest.mark.parametrize("text", FIXED.values(), ids=FIXED.keys())
def test_group_from_text_agrees_with_json_on_fixed_cases(text):
    _assert_routes_agree(text)


@pytest.mark.parametrize("order", [1 << 20, 1 << 40])
def test_group_from_text_checks_the_claimed_order_before_allocating(order):
    text = '{"order":%d,"mul":[[0]]}' % order
    with pytest.raises(ValidationError) as slow:
        group_from_json(json.loads(text))
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError) as fast:
            group_from_text(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(fast.value) == str(slow.value)
    assert peak < 1 << 20
