import math
import random
import re

import numpy as np
import pytest

from covmod import (
    DomainMismatchError,
    ExponentError,
    IdentificationError,
    cov_norm,
    covariance_residual,
    delta_function,
    enumerate_characters,
    from_section,
    lp_norm,
    GroupFunction,
    project_trivial,
    random_function,
    t_xi,
    trivial_character,
)


@pytest.fixture(scope="module")
def sign_char(z4_evens):
    chars = enumerate_characters(z4_evens)
    assert chars[1].value(2) == -1 + 0j
    return chars[1]


def test_from_section_full_oracle(z4_quot, sign_char):
    psi = from_section((1 + 0j, 2j), sign_char, z4_quot)
    assert psi.full().values.tolist() == [1 + 0j, 2j, -1 + 0j, -2j]
    for x in range(4):
        assert psi.value_at(x) == psi.full().values[x]


@pytest.mark.parametrize("x", [-1, 4, True, 2.0], ids=["negative", "past-the-end", "bool", "float"])
def test_value_at_refuses_what_is_not_an_element_index(z4_quot, sign_char, x):
    # -1 read the value at element 3, 4 raised a bare IndexError, True a TypeError
    psi = from_section((1 + 0j, 2j), sign_char, z4_quot)
    with pytest.raises(DomainMismatchError, match=re.escape(f"element {x!r} is not an element index of 0..3")):
        psi.value_at(x)


def test_value_at_takes_numpy_integers(z4_quot, sign_char):
    psi = from_section((1 + 0j, 2j), sign_char, z4_quot)
    assert [psi.value_at(x) for x in np.arange(4)] == psi.full().values.tolist()


def test_txi_delta_oracles(z4, z4_quot, z4_evens, sign_char):
    f = delta_function(z4, 0)
    triv = trivial_character(z4_evens)
    assert t_xi(f, triv, quot=z4_quot).full().values.tolist() == [1 + 0j, 0j, 1 + 0j, 0j]
    assert t_xi(f, sign_char, quot=z4_quot).full().values.tolist() == [1 + 0j, 0j, -1 + 0j, 0j]


def test_txi_output_is_covariant(s3, a3):
    rng = random.Random("cov")
    from covmod import quotient

    q = quotient(s3, a3)
    for char in enumerate_characters(a3):
        for _ in range(10):
            psi = t_xi(random_function(s3, rng), char, quot=q)
            assert covariance_residual(psi.full(), char) <= 1e-12


def test_txi_averaging_scale(z4_quot, sign_char):
    psi = from_section((0.5 - 1j, 3 + 0.25j), sign_char, z4_quot)
    back = t_xi(psi.full(), sign_char, quot=z4_quot)
    assert back.section.tolist() == [2 * (0.5 - 1j), 2 * (3 + 0.25j)]


def test_cov_norm_oracle(z4_quot, sign_char):
    psi = from_section((1 + 0j, 2j), sign_char, z4_quot)
    assert cov_norm(psi, 1) == 3.0
    assert cov_norm(psi, 2) == 2.2360679774997896
    assert lp_norm(psi.full(), 2) == math.sqrt(10.0)
    rel = abs(cov_norm(psi, 2) - lp_norm(psi.full(), 2) / math.sqrt(2.0))
    assert rel <= 1e-12 * cov_norm(psi, 2)


@pytest.mark.parametrize("p", [1100, 2000, 2100])
def test_cov_norm_at_large_exponents(z4_quot, sign_char, p):
    for v in (0.5, 1.41):
        flat = from_section((v, v * 1j), sign_char, z4_quot)
        assert math.isclose(cov_norm(flat, p), v * 2.0 ** (1.0 / p), rel_tol=1e-15)
    assert cov_norm(from_section((2, 0.5), sign_char, z4_quot), p) == 2.0


def test_cov_norm_rejects_small_exponent(z4_quot, sign_char):
    psi = from_section((1 + 0j, 0j), sign_char, z4_quot)
    for p in (0.9, math.inf, math.nan):
        with pytest.raises(ExponentError):
            cov_norm(psi, p)


def test_covariance_residual_detects_perturbation(z4, z4_quot, sign_char):
    psi = from_section((1 + 0j, 2j), sign_char, z4_quot)
    good = psi.full()
    assert covariance_residual(good, sign_char) <= 1e-9
    values = list(good.values)
    values[2] += 1e-6
    assert covariance_residual(GroupFunction(z4, tuple(values)), sign_char) > 1e-9


def test_covariance_residual_rejects_foreign_character(s3, sign_char):
    with pytest.raises(DomainMismatchError):
        covariance_residual(GroupFunction(s3, (0j,) * 6), sign_char)


def test_covariance_residual_reports_nan(z4, sign_char):
    values = (1 + 0j, 0j, complex("nan"), 0j)
    assert not covariance_residual(GroupFunction(z4, values), sign_char) <= 1e-9


def test_project_trivial_requires_trivial(z4_quot, z4_evens, sign_char):
    triv = trivial_character(z4_evens)
    psi = from_section((1 + 0j, 2j), triv, z4_quot)
    on_quot = project_trivial(psi)
    assert on_quot.group is z4_quot.table
    assert on_quot.values.tolist() == [1 + 0j, 2j]
    with pytest.raises(IdentificationError):
        project_trivial(from_section((1 + 0j, 2j), sign_char, z4_quot))


def test_covariant_arithmetic_guards(z4_quot, z4_evens, sign_char):
    triv = trivial_character(z4_evens)
    a = from_section((1 + 0j, 0j), sign_char, z4_quot)
    b = from_section((0j, 1 + 0j), triv, z4_quot)
    with pytest.raises(DomainMismatchError):
        _ = a + b
    c = a + from_section((1 + 0j, 1 + 0j), sign_char, z4_quot)
    assert c.section.tolist() == [2 + 0j, 1 + 0j]
    assert (2.0 * a).section.tolist() == [2 + 0j, 0j]


def test_section_length_guard(z4_quot, sign_char):
    with pytest.raises(DomainMismatchError):
        from_section((1 + 0j,), sign_char, z4_quot)
