import math
import random
import re
from fractions import Fraction

import pytest

from covmod import (
    DomainMismatchError,
    GroupFunction,
    NormalityError,
    ValidationError,
    enumerate_characters,
    heisenberg_finite,
    make_cyclic,
    make_from_table,
    make_product,
    random_function,
    t_xi,
    weyl_heisenberg_finite,
)
from covmod.jsonio import (
    character_from_json,
    character_to_json,
    covariant_from_json,
    covariant_to_json,
    dumps,
    function_from_json,
    function_to_json,
    group_from_json,
    group_id,
    group_text,
    group_to_json,
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
        assert back.quotient.reps == psi.quotient.reps


def test_covariant_rejects_non_normal_members(s3):
    sub_doc = {
        "group": group_id(s3),
        "normal": [0, 1],
        "character": [[0, 1], [0, 1]],
        "section": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
    }
    with pytest.raises(NormalityError):
        covariant_from_json(sub_doc, s3)
