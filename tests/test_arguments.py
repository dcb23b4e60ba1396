"""Each kind of argument has one reader: counts (`groups._count`), bounded
reals (`groups._bounded`), element indices (`groups._element`), weights
(`groups._weights`) and character domains (`characters._as_subgroup`).
Every malformed value is refused with a `CovmodError` that names it, and
explicit weights are read wherever a weight family is."""

import math
import random
import re
from types import SimpleNamespace

import numpy as np
import pytest

from covmod import (
    DomainMismatchError,
    ExponentError,
    MeasureError,
    MeasureTriple,
    ValidationError,
    cov_norm,
    delta_factor,
    enumerate_characters,
    lp_norm,
    make_character,
    make_cyclic,
    make_subgroup,
    quotient_convolve,
    random_function,
    run_bench,
    run_verification,
    t_xi,
    trivial_character,
    verify_module_axioms,
    weil_residual,
    weyl_heisenberg_finite,
)


@pytest.fixture(scope="module")
def on_z4(z4, z4_evens, z4_quot):
    xi = enumerate_characters(z4_evens)[1]
    f = random_function(z4, random.Random("arguments"))
    sd = weyl_heisenberg_finite(2, 2)
    return SimpleNamespace(
        z4=z4, quot=z4_quot, xi=xi, f=f, psi=t_xi(f, xi, quot=z4_quot),
        sd=sd, k_identity=make_subgroup(sd.k, [0]),
    )


# (call, refusal, the fragment of its message that names the value by its
# repr); each call escaped as a bare Python error or a wrong result before
# the readers were shared
ESCAPES = {
    "make_cyclic(2.5)": (lambda a: make_cyclic(2.5), ValidationError, "got 2.5"),
    "make_cyclic(True)": (lambda a: make_cyclic(True), ValidationError, "got True"),
    "make_cyclic('3')": (lambda a: make_cyclic("3"), ValidationError, "got '3'"),
    "weyl_heisenberg_finite(2, 4.0)": (lambda a: weyl_heisenberg_finite(2, 4.0), ValidationError, "got 4.0"),
    "verify_module_axioms trials -1": (
        lambda a: verify_module_axioms(a.quot, a.xi, -1), ValidationError, "got -1"),
    "verify_module_axioms trials 2.5": (
        lambda a: verify_module_axioms(a.quot, a.xi, 2.5), ValidationError, "got 2.5"),
    "run_verification trials 2.5": (
        lambda a: run_verification([], trials=2.5), ValidationError, "got 2.5"),
    "run_bench repetitions 1.5": (lambda a: run_bench(2, 2, 1.5), ValidationError, "got 1.5"),
    "lp_norm(f, 'a')": (lambda a: lp_norm(a.f, "a"), ExponentError, "got 'a'"),
    "lp_norm(f, True)": (lambda a: lp_norm(a.f, True), ExponentError, "got True"),
    "cov_norm(psi, None)": (lambda a: cov_norm(a.psi, None), ExponentError, "got None"),
    "delta_factor h True": (
        lambda a: delta_factor(a.sd, a.k_identity, True), DomainMismatchError, "element True is"),
    "delta_factor h 1.5": (
        lambda a: delta_factor(a.sd, a.k_identity, 1.5), DomainMismatchError, "element 1.5 is"),
    "element_order(-1)": (lambda a: a.z4.element_order(-1), DomainMismatchError, "element -1 is"),
    "element_order(5)": (lambda a: a.z4.element_order(5), DomainMismatchError, "element 5 is"),
    "element_order(1.5)": (lambda a: a.z4.element_order(1.5), DomainMismatchError, "element 1.5 is"),
    "make_character(z4, 5)": (lambda a: make_character(a.z4, 5), ValidationError, "got 5"),
    "make_character on a quotient": (
        lambda a: make_character(a.quot, [0, 0]), DomainMismatchError, "got QuotientGroup("),
    "enumerate_characters on a quotient": (
        lambda a: enumerate_characters(a.quot), DomainMismatchError, "got QuotientGroup("),
    "trivial_character on a quotient": (
        lambda a: trivial_character(a.quot), DomainMismatchError, "got QuotientGroup("),
}


@pytest.mark.parametrize("call, refusal, naming", ESCAPES.values(), ids=ESCAPES.keys())
def test_each_reader_refuses_a_malformed_argument(on_z4, call, refusal, naming):
    with pytest.raises(refusal, match=re.escape(naming)):
        call(on_z4)


def test_the_readers_take_numpy_scalars(on_z4):
    order = make_cyclic(np.int64(5)).order
    assert order == 5 and type(order) is int
    assert weyl_heisenberg_finite(np.int64(2), np.int64(4)).product.order == 16
    assert lp_norm(on_z4.f, np.float64(2.0)) == lp_norm(on_z4.f, 2.0)
    assert cov_norm(on_z4.psi, np.float64(3.0)) == cov_norm(on_z4.psi, 3.0)
    assert on_z4.z4.element_order(np.int64(1)) == 4
    assert delta_factor(on_z4.sd, on_z4.k_identity, np.int64(1)) == 1.0
    report = verify_module_axioms(on_z4.quot, on_z4.xi, np.int64(2), tol=np.float64(1e-9))
    assert report["passed"]


def test_the_reworded_refusals(on_z4):
    with pytest.raises(MeasureError, match="^got 3 wG weights where 4 are needed$"):
        lp_norm(on_z4.f, 2, [1.0] * 3)
    with pytest.raises(ValidationError, match="^repetitions must be at least 1, got 0$"):
        run_bench(2, 2, 0)
    with pytest.raises(DomainMismatchError, match=r"^element 2 is not an element index of 0\.\.1$"):
        delta_factor(on_z4.sd, on_z4.k_identity, 2)


@pytest.fixture(scope="module")
def weighted(z4, z4_quot):
    """A compatible triple on Z4 over its evens with weights of four sizes:
    wG(r_i s_j) = wQ(i) wN(j), with reps (0, 1) and members (0, 2)."""
    wN, wQ = [1.0, 3.0], [0.5, 2.0]
    wG = [wQ[x % 2] * wN[x // 2] for x in range(4)]
    return MeasureTriple(wG, wN, wQ)


def _fsum_norm(values, weights, p):
    return math.fsum(w * abs(v) ** p for v, w in zip(values, weights)) ** (1.0 / p)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_weighted_norms_match_an_fsum_oracle(on_z4, weighted, p):
    f, psi = on_z4.f, on_z4.psi
    want = _fsum_norm(f.values.tolist(), weighted.wG.tolist(), p)
    assert math.isclose(lp_norm(f, p, weighted), want, rel_tol=1e-14)
    assert math.isclose(lp_norm(f, p, weighted.wG.tolist()), want, rel_tol=1e-14)
    want = _fsum_norm(psi.section.tolist(), weighted.wQ.tolist(), p)
    assert math.isclose(cov_norm(psi, p, weighted), want, rel_tol=1e-14)
    assert math.isclose(cov_norm(psi, p, weighted.wQ.tolist()), want, rel_tol=1e-14)


def test_explicit_weights_give_the_triple_results(on_z4, weighted):
    f, xi, quot, psi = on_z4.f, on_z4.xi, on_z4.quot, on_z4.psi
    by_triple = t_xi(f, xi, weighted, quot)
    assert np.array_equal(t_xi(f, xi, list(weighted.wN), quot).section, by_triple.section)
    assert cov_norm(psi, 2, list(weighted.wQ)) == cov_norm(psi, 2, weighted)
    q = quot.table
    phi, chi = (random_function(q, random.Random(s)) for s in ("phi", "chi"))
    assert np.array_equal(
        quotient_convolve(phi, chi, list(weighted.wQ)).values,
        quotient_convolve(phi, chi, weighted).values,
    )
    assert weil_residual(f, quot, weighted) < 1e-14


def test_the_weil_residual_needs_a_triple(on_z4):
    for measure in ([1.0] * 4, None):
        with pytest.raises(MeasureError, match="needs a MeasureTriple"):
            weil_residual(on_z4.f, on_z4.quot, measure)
    with pytest.raises(MeasureError, match="got 1 wQ weights where 2 are needed"):
        weil_residual(on_z4.f, on_z4.quot, MeasureTriple([1.0] * 4, [1.0] * 2, [1.0]))
