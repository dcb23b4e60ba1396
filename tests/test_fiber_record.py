"""The fiber record: a quotient of H x| K by an N inside the K fiber keeps
K / N as `QuotientGroup.fiber`.

The record must be what `quotient(K, N_K)` gives, down to the record that
keeps in turn when K is a product, and None off the fiber and on a group
with no split.  `quotient` decides normality in K and under
the action, never by conjugating over the whole product.  A quotient that
the module action has used pickles, with every array read-only again.
"""

import pickle
import random

import numpy as np
import pytest

from covmod import (
    GroupFunction,
    counting_measure,
    delta_factor,
    enumerate_characters,
    group_center,
    heisenberg_finite,
    is_normal,
    lift_subgroup,
    make_cyclic,
    make_from_table,
    make_product,
    make_subgroup,
    module_action,
    quotient,
    quotient_action,
    random_function,
    symmetric_3,
    t_xi,
    weyl_heisenberg_finite,
)
from covmod import groups
from covmod.errors import DomainMismatchError, NormalityError
from covmod.groups import full_subgroup, generating_set
from covmod.verify import builtin_corpus


def _subgroups_of_k(k):
    """K, the trivial group and every cyclic subgroup of K, as member tuples."""
    found = {tuple(range(k.order)), (k.identity,)}
    found |= {tuple(np.flatnonzero(generating_set(k, [x])[3]).tolist()) for x in range(k.order)}
    return sorted(found)


def _products():
    seen = []
    for entry in builtin_corpus():
        if entry.sd is not None and all(entry.sd is not sd for sd in seen):
            seen.append(entry.sd)
    return seen


def _parts(q):
    return q.normal.members, q.reps.tolist(), q.proj.tolist()


def _records(q):
    """`_parts` of q and of each `fiber` below it, outermost first."""
    return [] if q is None else [_parts(q), *_records(q.fiber)]


def _in_k(group, sd):
    """Whether `group` is K or, when K is a product, a K factor below it."""
    while sd is not None:
        if group is sd.k:
            return True
        sd = sd.k.split
    return False


def test_the_record_is_k_mod_n_on_every_corpus_product():
    checked = 0
    for sd in _products():
        g = sd.product
        plain = make_from_table(g.table.tolist())
        for members in _subgroups_of_k(sd.k):
            sub = make_subgroup(sd.k, members)
            lifted = lift_subgroup(sd, sub)
            if not is_normal(g, lifted):
                with pytest.raises(NormalityError):
                    quotient(g, lifted)
                continue
            fiber, direct = quotient(g, lifted).fiber, quotient(sd.k, sub)
            assert fiber.parent is sd.k
            assert _records(fiber) == _records(direct), members
            assert quotient(plain, make_subgroup(plain, lifted.members)).fiber is None
            checked += 1
        assert quotient(g, full_subgroup(g)).fiber is None      # H is never trivial here
    assert checked >= 10
    for entry in builtin_corpus():
        assert (entry.quot.fiber is None) == (entry.sd is None), entry.name


def test_fiber_subgroup_inverts_lift_subgroup():
    for sd in _products():
        for members in _subgroups_of_k(sd.k):
            sub = make_subgroup(sd.k, members)
            back = sd.fiber_subgroup(lift_subgroup(sd, sub))
            assert back.parent is sd.k and back.members == sub.members
            assert all(np.array_equal(a, b) for a, b in zip(back.walk, sub.walk))
        g = sd.product
        made = make_subgroup(g, lift_subgroup(sd, full_subgroup(sd.k)).members)
        assert sd.fiber_subgroup(made).walk[0].tolist() == full_subgroup(sd.k).walk[0].tolist()
        assert sd.fiber_subgroup(full_subgroup(g)) is None
        with pytest.raises(DomainMismatchError):
            sd.fiber_subgroup(full_subgroup(sd.k))


def test_a_normal_subgroup_off_the_fiber_keeps_no_record():
    z2z3 = make_product(make_cyclic(2), make_cyclic(3))
    assert quotient(z2z3, make_subgroup(z2z3, (0, 3))).fiber is None    # H x {e}
    z4 = make_cyclic(4)
    assert quotient(z4, make_subgroup(z4, (0, 2))).fiber is None        # no split


def _is_normal_groups(monkeypatch):
    """The groups `is_normal` runs in, recorded call by call."""
    seen, check = [], groups.is_normal

    def spy(group, sub):
        seen.append(group)
        return check(group, sub)

    monkeypatch.setattr(groups, "is_normal", spy)
    return seen


def test_the_fiber_path_decides_normality_in_k(monkeypatch):
    seen = _is_normal_groups(monkeypatch)
    for sd in _products():
        for members in _subgroups_of_k(sd.k):
            lifted = lift_subgroup(sd, make_subgroup(sd.k, members))
            seen.clear()
            try:
                q = quotient(sd.product, lifted)
            except NormalityError:      # by a theta_h moving N, before is_normal, or by is_normal
                assert len(seen) <= 1, members
            else:   # in the innermost K/N, unless it is one coset, which needs no check
                assert len(seen) == (len(_records(q)[-1][1]) > 1), members
            assert all(_in_k(group, sd) for group in seen), members
    z2z3 = make_product(make_cyclic(2), make_cyclic(3))
    seen.clear()
    quotient(z2z3, make_subgroup(z2z3, (0, 3)))
    assert len(seen) == 1 and seen[0] is z2z3      # off the fiber: the generic path


def test_a_fiber_subgroup_moved_by_the_action_is_refused_with_its_witness():
    sd = weyl_heisenberg_finite(2, 4)
    # {(0,0), (1,0)} is normal in the abelian K, but the shear moves (1,0) to (1,2)
    sub = make_subgroup(sd.k, (0, 4))
    with pytest.raises(NormalityError) as by_delta:
        delta_factor(sd, sub, 0)
    with pytest.raises(NormalityError, match="row 1 moves 4 to 6$") as by_quotient:
        quotient(sd.product, lift_subgroup(sd, sub))
    assert str(by_quotient.value) == str(by_delta.value)


def test_a_subgroup_not_normal_in_k_is_refused(monkeypatch):
    seen = _is_normal_groups(monkeypatch)
    g = make_product(make_cyclic(2), symmetric_3())     # the identity action on S3
    sd = g.split
    lifted = lift_subgroup(sd, make_subgroup(sd.k, (0, 1)))
    with pytest.raises(NormalityError, match="not normal"):
        quotient(g, lifted)
    assert len(seen) == 1 and seen[0] is sd.k


def _arrays(obj, path, seen):
    """Every numpy array reachable from a covmod object, with its path."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield path, obj
    elif isinstance(obj, (tuple, list)):
        for i, x in enumerate(obj):
            yield from _arrays(x, f"{path}[{i}]", seen)
    elif isinstance(obj, dict):
        for name, x in obj.items():
            yield from _arrays(x, f"{path}.{name}", seen)
    elif type(obj).__module__.startswith("covmod") and hasattr(obj, "__dict__"):
        yield from _arrays(vars(obj), path, seen)


def test_a_quotient_used_by_the_module_action_pickles():
    sd = weyl_heisenberg_finite(2, 4)
    k = lift_subgroup(sd, make_subgroup(sd.k, range(8)))
    char = enumerate_characters(k)[3]
    rng = random.Random("pickle")
    f, h = random_function(sd.product, rng), random_function(sd.product, rng)
    psi = t_xi(h, char)
    want = module_action(f, psi).section
    assert psi.quotient.fiber_action is not None
    back = pickle.loads(pickle.dumps(psi))
    assert "fiber_action" not in vars(back.quotient)
    assert back.quotient == psi.quotient and back.quotient.fiber == psi.quotient.fiber
    arrays = list(_arrays(back, "psi", set()))
    assert any(".fiber." in path for path, _ in arrays)
    paths = {path for path, _ in arrays}
    assert {f"psi.quotient{at}.{name}" for at in ("", ".fiber") for name in ("reps", "proj")} <= paths
    assert [path for path, arr in arrays if arr.flags.writeable] == []
    got = module_action(GroupFunction(back.group, f.values), back)
    assert back.quotient.fiber_action is not None
    assert np.array_equal(got.section, want)
    for obj in (f, counting_measure(psi.quotient)):
        loaded = pickle.loads(pickle.dumps(obj))
        assert [path for path, arr in _arrays(loaded, "", set()) if arr.flags.writeable] == []


@pytest.mark.parametrize("name", ["Heis2", "Heis3", "WH(2,4)"])
def test_the_record_is_the_quotient_k_builds_down_to_its_fiber_action(name):
    # K = Z_m x Z_r is itself a product, so K/N_K keeps a record of its own
    sd = {"Heis2": lambda: heisenberg_finite(2), "Heis3": lambda: heisenberg_finite(3),
          "WH(2,4)": lambda: weyl_heisenberg_finite(2, 4)}[name]()
    nested = 0
    for members in _subgroups_of_k(sd.k):
        sub = make_subgroup(sd.k, members)
        try:
            q = quotient(sd.product, lift_subgroup(sd, sub))
        except NormalityError:
            continue
        direct = quotient(sd.k, sub)
        assert _records(q.fiber) == _records(direct), members
        got, want = q.fiber.fiber_action, direct.fiber_action
        assert (got is None) == (want is None), members
        if got is not None:
            nested += 1
            for table in ("forward", "inverse", "twist", "perp"):
                assert np.array_equal(getattr(got, table), getattr(want, table)), (members, table)
    center = quotient(sd.product, group_center(sd.product))
    assert center.fiber.fiber is not None and center.fiber.fiber_action is not None
    assert nested >= 1


def test_quotient_action_reads_the_record_it_was_given():
    for sd in _products():
        for members in _subgroups_of_k(sd.k):
            try:
                q = quotient(sd.product, lift_subgroup(sd, make_subgroup(sd.k, members)))
            except NormalityError:
                continue
            assert quotient_action(sd, q.fiber.normal)[0] is q.fiber, members
