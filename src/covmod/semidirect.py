"""Semidirect products, their fiber convolution and module action.

A semidirect product is built from two finite groups H and K and an action
table theta, where theta[h] is the automorphism of K contributed by h,
given as rows or an integer array, checked like a multiplication table and
then in |H| r_K |K| + |H| r_H |K| work for r_K and r_H generators of K
and H.  The pair (h, k) is packed as index h * |K| + k.  `SemidirectGroup`
holds H, K, the action as one read-only int32 array and, weakly, the
product group, whose `split` is the `SemidirectGroup` itself; a direct
product (`make_product`) is the identity action, and takes every route
below.  The product keeps no table of its own at first: its products of
elements come from the factors (`SemidirectGroup.multiply`), and it builds
the dense |G| x |G| table (`dense_table`) on the first read of
`product.table`, which equality, Light's test and the kernels' table route
make; its fingerprint and document take their rows from `multiply`.
Every finite group is unimodular, so the modulus of each theta[h] is
identically 1; `delta_factor` still returns it, after checking that the
subgroup it measures is invariant, so the measure bookkeeping on products
and their quotients stays visible.  When K is abelian,
`SemidirectGroup.fiber_convolve` is the convolution that `convolve` runs:
an FFT along each cyclic factor of K (Cooley-Tukey, the separation of
variables of Maslen & Rockmore), one sum over H per character of K, and the
inverse FFT.  `FiberAction` runs the module action for a normal subgroup
inside K on the characters above the covariance character only: f is
projected onto those characters, along N with one matrix product and
along K / N with the table psi's transform uses, with no transform along
all of K.

One family gets a dedicated constructor: the shear groups on
Z_M x (Z_M x Z_R), where h shears the circle coordinate by (R / M) h times
the first; R = M gives the discrete step (Heisenberg) groups.  The family is
written down once: `_shear_action` builds the action, `_wh_parameters`
recognizes a shear group by comparing H, K and the action whole against
the standard ones, and `_shear_numerators` gives the stored form of the
characters of its fiber and center.  Three entry points check what
`module_action` does not, the covariance subgroup and the character, and
then call it: `conv_fast_full_k` for covariance over the whole K fiber of
any semidirect product, `conv_fast_wh_center` for the center of a shear
group, and `conv_fast_wh_full` for a named character of a shear group's K
fiber.  They take unit counting weights, as `module_action` does by default.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .characters import Character, _character, _roots_of_unity
from .convolution import module_action
from .covariant import CovariantFunction
from .errors import (
    DiscretizationError,
    DomainMismatchError,
    NormalityError,
    ValidationError,
)
from .groups import (
    FiniteGroup,
    GroupFunction,
    QuotientGroup,
    Subgroup,
    cyclic_coordinates,
    make_cyclic,
    _check_order,
    _distinct,
    _element,
    _frozen,
    _int_rows,
    _real_form,
    _Refrozen,
)


@dataclass(frozen=True, eq=False)
class SemidirectGroup(_Refrozen):
    """H acting on K: the factors, the action as a read-only int32 array,
    `action[h, k]` = theta_h(k), and the product group.  The product keeps
    this object as its `split`, so that it multiplies from the factors and
    `convolve` can work fiber by fiber when K is abelian.  `semidirect`
    validates the action; `make_product` passes the identity, unchecked."""

    h: FiniteGroup
    k: FiniteGroup
    action: np.ndarray = field(repr=False)
    _product: weakref.ref | None = field(default=None, init=False, repr=False)

    def __getstate__(self) -> dict:
        # a weak reference does not pickle: an unpickled product restores it
        return {**vars(self), "_product": None}

    def _hold(self, product: FiniteGroup) -> None:
        object.__setattr__(self, "_product", weakref.ref(product))

    def pair_index(self, h: int, k: int) -> int:
        return h * self.k.order + k

    def split_index(self, x: int) -> tuple[int, int]:
        return divmod(x, self.k.order)

    @property
    def product(self) -> FiniteGroup:
        """The group on the packed pairs: (h, k)(h', k') = (h h', k theta_h(k'))
        and (h, k)^-1 = (h^-1, theta_{h^-1}(k^-1)).  Held weakly, so no cycle
        keeps it but the subgroup <-> quotient one of `Subgroup.quotient`."""
        built = None if self._product is None else self._product()
        if built is None:
            h, k = self.h, self.k
            nk = k.order
            inv = h.inv[:, None] * nk + self.action[h.inv[:, None], k.inv]
            labels = None
            if h.labels is not None and k.labels is not None:
                labels = tuple(f"({lh},{lk})" for lh in h.labels for lk in k.labels)
            built = FiniteGroup(h.order * nk, None, inv.ravel(), h.identity * nk + k.identity, labels, self)
            self._hold(built)
        return built

    def multiply(self, x, y) -> np.ndarray:
        """The packed index of x*y for broadcastable arrays of packed indices:
        (h_x h_y, k_x theta_{h_x}(k_y)), three flat gathers from the factors."""
        nh, nk = self.h.order, self.k.order
        hx, kx = np.divmod(x, nk)
        hy, ky = np.divmod(y, nk)
        h_scaled, action, k_table = self.flat_tables
        return h_scaled.take(hx * nh + hy) + k_table.take(kx * nk + action.take(hx * nk + ky))

    @cached_property
    def flat_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """H's table times |K|, the action and K's table, each flattened, for
        `multiply`."""
        return _frozen((self.h.table * self.k.order).ravel(), self.action.ravel(), self.k.table.ravel())

    def dense_table(self) -> np.ndarray:
        """The product's |G| x |G| int32 table: k theta_a(k') copied over each b,
        then a b |K| added along whole rows, each pass from a contiguous array."""
        h, k = self.h, self.k
        nh, nk = h.order, k.order
        table = np.empty((nh, nk, nh * nk), dtype=np.int32)
        through = np.ascontiguousarray(k.table[:, self.action].swapaxes(0, 1))
        table.reshape(nh, nk, nh, nk)[...] = through[:, :, None]
        np.add(table, np.repeat(h.table * nk, nk, axis=1)[:, None], out=table)
        return table.reshape(nh * nk, nh * nk)

    @cached_property
    def steps(self) -> np.ndarray:
        """`steps[a, h]` = a^-1 h in H."""
        return _frozen(self.h.table[self.h.inv].astype(np.intp))[0]

    @cached_property
    def shear_parameters(self) -> tuple[int, int]:
        """`_wh_parameters` of this group, validated on first use only."""
        return _wh_parameters(self)

    @cached_property
    def dual_grid(self) -> tuple:
        """K on a grid of cyclic axes and H acting on K's characters, for an
        abelian K; built on first use, in integer arithmetic.

        K is laid out on the grid Z_d1 x ... x Z_dr of `cyclic_coordinates`:
        `coords[k]` is the grid point of k, `elem[c]` the element at flat
        (row-major) grid index c and `pos[k]` the flat grid index of k.  The
        character omega of K is chi_omega(c) = e(sum over i of omega_i c_i / d_i),
        indexed by flat grid index like the elements.  With E the exponent of
        K, `dual[omega]` holds the omega_i E / d_i, so chi_omega(k) is the
        E-th root of unity `dual[omega] @ coords[k]` mod E.  `pulled[a, omega]`
        is the index of chi_omega o theta_a, read off its phases on the unit
        vectors.  Returns (d, coords, elem, pos, dual, E, pulled).
        """
        k = self.k
        d, coords = cyclic_coordinates(k)
        radix = np.prod(d) // np.cumprod(d)          # row-major strides of the grid
        pos = coords @ radix
        elem = np.empty(k.order, dtype=np.intp)
        elem[pos] = np.arange(k.order)
        exponent = math.lcm(*d.tolist())
        unit = exponent // d
        dual = coords[elem] * unit
        image = coords[self.action[:, elem[radix]]]  # image[a, j] = coords of theta_a(unit vector j)
        phases = np.einsum("wi,aji->awj", dual, image) % exponent
        pulled = phases // unit @ radix              # pulled[a, omega]
        return (d.tolist(), *_frozen(coords, elem, pos, dual), exponent, *_frozen(pulled))

    def transform(self, grid: np.ndarray, fft=np.fft.fft) -> np.ndarray:
        """`fft` (or `numpy.fft.ifft`) along each cyclic axis of K, over the
        last axis of a (..., |K|) array in flat grid order.

        Each transform runs along the last axis of a contiguous array, and
        its output is copied with that axis moved in front of the others, so
        r transforms leave the grid in its own order: numpy's transform is
        several times slower along an inner or strided axis of many short
        lines.
        """
        rows, nk = math.prod(grid.shape[:-1]), grid.shape[-1]
        out = grid
        for size in reversed(self.dual_grid[0]):
            out = np.ascontiguousarray(fft(out.reshape(rows, nk // size, size)).swapaxes(1, 2))
        return out.reshape(grid.shape)

    def fiber_convolve(self, wf: np.ndarray, v: np.ndarray) -> np.ndarray:
        """sum over y of wf(y) * v(y^-1 x) at every x of the product, for an
        abelian K, along the last axis of two (..., |H| |K|) arrays.

        With f^(a, omega) = sum over k of f(a, k) conj(chi_omega(k)), the
        transform along K that `numpy.fft` takes one cyclic axis at a time,
        the convolution becomes one sum over H per character:
        (f * v)^(h, omega) = sum over a of f^(a, omega) * v^(a^-1 h, chi_omega o theta_a),
        and the inverse transform returns f * v on the grid.  The sum runs one
        pass per a in H, reading v^ by `steps[a]` along H and by
        `dual_grid`'s `pulled[a]` along the characters, so it holds O(|H| |K|)
        per leading index.  Cost: |H|^2 |K| for the sum plus
        O(|H| |K| log |K|) for the transforms, which run once per axis for
        every leading index together.
        """
        _, _, elem, pos, _, _, pulled = self.dual_grid
        nh, nk = self.h.order, self.k.order
        lead = wf.shape[:-1]
        grid = np.stack((wf, v)).reshape(2, *lead, nh, nk).take(elem, axis=-1)
        f_hat, v_hat = self.transform(grid)
        out = np.zeros_like(f_hat)
        for a, (step, pull) in enumerate(zip(self.steps, pulled)):
            term = v_hat.take(step, axis=-2).take(pull, axis=-1)
            term *= f_hat[..., a, None, :]
            out += term
        out = self.transform(out, np.fft.ifft)
        return out.take(pos, axis=-1).reshape(*lead, nh * nk)

    def fiber_subgroup(self, sub: Subgroup) -> Subgroup | None:
        """The subgroup of K that `lift_subgroup` lifts to `sub`, a subgroup of
        the product, or None when `sub` does not lie in the K fiber."""
        if sub.parent.split is not self:
            raise DomainMismatchError("subgroup belongs to a different group")
        base, members = self.h.identity * self.k.order, sub.members
        if not base <= members[0] <= members[-1] < base + self.k.order:
            return None
        return _shifted(self.k, sub, -base)

    def _require_invariant(self, sub: Subgroup) -> None:
        """Raise `NormalityError` naming the first member of `sub` in K that a theta_h moves."""
        members = np.array(sub.members)
        inside = np.zeros(self.k.order, dtype=bool)
        inside[members] = True
        moved = ~inside[self.action[:, members]]
        if moved.any():
            h, j = np.argwhere(moved)[0]
            s = int(members[j])
            raise NormalityError(
                f"subgroup is not preserved by the action: row {h} moves "
                f"{s} to {self.action[h, s]}"
            )

    def fiber_quotient(self, sub: Subgroup) -> QuotientGroup | None:
        """`quotient(product, sub)` for `sub` in the K fiber, as N_K in K
        (`fiber_subgroup`), else None.  N is normal when no theta_h moves N_K
        and N_K is normal in K, and the coset (h, k)N is (h, kN), whose least
        member is h |K| plus kN's: h by h, reps = h |K| + reps_K and proj =
        h |K/N| + proj_K, read off K/N = `quotient(K, N_K)`, kept as `fiber`."""
        in_k = self.fiber_subgroup(sub)
        if in_k is None:
            return None
        self._require_invariant(in_k)
        fiber = in_k.quotient
        h = np.arange(self.h.order)[:, None]
        reps, proj = (h * self.k.order + fiber.reps).ravel(), (h * fiber.order + fiber.proj).ravel()
        return QuotientGroup(sub.parent, sub, *_frozen(reps, proj), fiber)

    def fiber_action(self, quot: QuotientGroup) -> FiberAction | None:
        """The module action's tables over `quot`, a quotient of this product,
        when K is abelian and `quot` keeps K / N (`fiber`); otherwise None.
        `QuotientGroup.fiber_action` keeps the result."""
        if quot.fiber is None or not self.k.is_abelian:
            return None
        return FiberAction(self, quot.fiber)


class FiberAction:
    """The module action of L^1(G) on xi-covariant functions, G = H x| K
    with K abelian and N inside K, through the characters of K: the tables
    for one quotient G / N, and for each character as it is first used.

    Since (h, k)(e, s) = (h, k theta_h(s)), a xi-covariant psi has
    psi(h, .) covariant on K for xi o theta_h^-1 (Mackey's analysis of group
    extensions).  Its transform along K, psi^(h, omega) = sum over k of
    psi(h, k) conj(chi_omega(k)), vanishes except on the |K/N| characters
    S_h = (chi_omega0 o theta_h^-1) N^perp, omega0 any one extension of xi
    and N^perp the characters trivial on N, where it is
    psi^(h, omega) = |N| sum over r of psi(h, r) conj(chi_omega(r)) over the
    representatives r of K / N.  So is the transform of f * psi, which the
    sum of `SemidirectGroup.fiber_convolve` gives on S_h alone, in
    |H|^2 |K/N| work; the inverse transform is taken at the representatives
    only.  Writing omega in S_h as sigma_h nu with nu in N^perp splits every
    character table into an |H| x |K/N| part for xi and an |K/N| x |K/N|
    part for N, and chi_omega o theta_a keeps the nu part's slot up to a
    permutation of N^perp that depends on a alone.

    f^ is read on U, the union of the S_h, alone: w N^perp for w one
    extension of each of the o restrictions xi o theta_h^-1 (the H-orbit of
    xi).  With k = r n, f^(a, w nu) = sum over r of conj(chi_w(r) chi_nu(r))
    sum over n of f(a, r n) conj(chi_w(n)): one product along N, |H| |K| o
    work, then `forward` along K / N, |H| o |K/N|^2, and no transform along
    all of K.  Those tables of the w are kept once per orbit, for the
    quotient.  Every table is built in integer arithmetic, then read off
    exact roots of unity.

    The sum over H runs as one batched `matmul`, grouped by the slot u in U
    that each output point (h, omega) reads f^ at: |H| / o points share a u,
    and their psi^ terms form an (|H| / o) x |H| matrix against the vector
    f^(., u), so the work stays |H|^2 |K/N|.  One gather back puts the sums
    in (h, omega) order.  N, the r and K in coset order, r n at [r, n], come
    from `fiber`, the K / N that `quotient` keeps.
    """

    def __init__(self, sd: SemidirectGroup, fiber: QuotientGroup) -> None:
        _, coords, elem, pos, dual, exponent, pulled = sd.dual_grid
        members, reps, gens = np.array(fiber.normal.members), fiber.reps, fiber.normal.walk[0]
        nh, nkn = sd.h.order, reps.size
        roots = _roots_of_unity(exponent)
        on_gens = dual @ coords[gens].T % exponent     # phases of each chi_omega on N's generators
        perp = np.flatnonzero(~on_gens.any(axis=1))
        table = dual[perp] @ coords[reps].T            # chi_nu(r) for nu in N^perp, over E
        perm = np.searchsorted(perp, pulled[:, perp])  # chi_nu o theta_a = the perm[a, nu]-th of N^perp
        self.sd, self.fiber, self.roots, self.elem = sd, fiber, roots, elem
        self.gen_slots = np.searchsorted(members, gens).tolist()
        self.on_gens, self.perp, self.member_coords, self.rep_coords = _frozen(
            on_gens, perp, coords[members].T, coords[reps].T
        )
        # twist[(h, nu), a]: the flat index in psi^ of (a^-1 h, perm[a, nu])
        self.forward, self.inverse, self.twist = _frozen(
            members.size * roots[-table % exponent].T,
            roots[table % exponent] / sd.k.order,
            (sd.steps.T[:, None, :] * nkn + perm.T).reshape(nh * nkn, nh),
        )
        self._by_character: dict[int, tuple[weakref.ref, tuple]] = {}
        self._by_orbit: dict[int, tuple] = {}

    def tables(self, char: Character) -> tuple:
        """The tables for `char`, built on its first use with this quotient:
        `spread`, the index of psi^ at [u, j, a] for the j-th output point
        (h, omega in S_h) that reads f^ at u, the position of each (h, omega)
        among those points, conj(chi_sigma_h(r)) with its conjugate, and its
        H-orbit's `_orbit_tables`, which stay with the quotient.  The rest
        are kept by the character's identity until the character or quotient
        goes."""
        key = id(char)
        entry = self._by_character.get(key)
        if entry is None or entry[0]() is not char:
            cache = self._by_character
            alive = weakref.ref(char, lambda _: cache.pop(key, None))
            entry = cache[key] = (alive, self._character_tables(char))
        return entry[1]

    def _character_tables(self, char: Character) -> tuple:
        # Every character of N extends to K, and extensions are the chi_omega
        # that agree with it on N's generators: over the exponent, the phase
        # of a generator of order m is exact, as m divides the exponent.
        sd = self.sd
        _, _, _, _, dual, exponent, pulled = sd.dual_grid
        target = char.numerators[self.gen_slots] * exponent // char.denominator
        found = np.flatnonzero((self.on_gens == target).all(axis=1))
        sigma = pulled[sd.h.inv, found[0]]              # sigma[h] = chi_omega0 o theta_h^-1
        support = self._cosets_of(sigma)                # grid index of sigma_h nu at [h, nu]
        first = _distinct(sd.k.order, support.min(axis=1))  # w: the least character of each S_h
        key = int(first[0])                             # U's least character names the H-orbit
        if key not in self._by_orbit:
            self._by_orbit[key] = self._orbit_tables(first)
        labels = self._cosets_of(first).ravel()         # U in the order of the projection
        order = np.argsort(labels)
        slot = order[np.searchsorted(labels, support.ravel(), sorter=order)]
        points = np.argsort(slot, kind="stable")        # the (h, nu) reading each u, u by u
        back = np.empty_like(points)
        back[points] = np.arange(points.size)
        spread = self.twist[points.reshape(labels.size, -1)]
        phase = self.roots[-(dual[sigma] @ self.rep_coords) % exponent]
        return (*_frozen(spread, back, phase, phase.conj()), self._by_orbit[key])

    def _cosets_of(self, omega: np.ndarray) -> np.ndarray:
        """The grid index of chi_omega nu at [i, nu] for each omega[i]."""
        _, _, _, pos, *_ = self.sd.dual_grid
        return pos[self.sd.k.multiply(self.elem[omega][:, None], self.elem[self.perp])]

    def _orbit_tables(self, first: np.ndarray) -> tuple:
        """The projection onto U = w N^perp, w in `first`: conj(chi_w(n)) / |N|
        at [n, w] in `_real_form`, and conj(chi_w(r)) at [w, r]."""
        _, _, _, _, dual, exponent, _ = self.sd.dual_grid
        on_n = self.roots[-(dual[first] @ self.member_coords) % exponent]
        on_r = self.roots[-(dual[first] @ self.rep_coords) % exponent]
        return _frozen(_real_form(on_n.T / on_n.shape[1]), on_r)

    def act(self, wf: np.ndarray, section: np.ndarray, tables: tuple) -> np.ndarray:
        """The module action's sections along the last axis of a (..., |G|)
        array of weighted values and a (..., |G/N|) array of sections."""
        spread, back, phase, unphase, (along_n, on_r) = tables
        sd = self.sd
        nh, nk, nkn = sd.h.order, sd.k.order, self.perp.size
        rows = np.ascontiguousarray(self.fiber.on_grid(wf.reshape(-1, nk)), dtype=complex)
        on_n = (rows.view(np.float64).reshape(-1, along_n.shape[0]) @ along_n).view(complex)
        on_w = (on_n.reshape(-1, nkn, on_r.shape[0]).swapaxes(1, 2) * on_r).reshape(-1, nkn)
        on_u = (on_w @ self.forward).reshape(*wf.shape[:-1], nh, on_r.size)   # f^(a, u)
        on_cosets = (section.reshape(-1, nh, nkn) * phase).reshape(-1, nkn)
        psi_hat = (on_cosets @ self.forward).reshape(section.shape)
        by_u = np.matmul(psi_hat.take(spread, axis=-1), on_u.swapaxes(-1, -2)[..., None])
        out_hat = by_u.reshape(*by_u.shape[:-3], back.size).take(back, axis=-1)
        out = out_hat.reshape(-1, nkn) @ self.inverse
        return (out.reshape(-1, nh, nkn) * unphase).reshape(*out_hat.shape)


def semidirect(
    h_group: FiniteGroup,
    k_group: FiniteGroup,
    action: Sequence[Sequence[int]] | np.ndarray,
) -> SemidirectGroup:
    """Build H acting on K after validating the action table.

    `action` is a list of |H| rows of |K| int entries, or an integer
    ndarray of that shape.  It is checked the way a multiplication table
    is: the list's entry types in one pass (`_int_rows`), then shape, range
    and bijection on the array, |H| |K| log |K| work for the row-wise sort;
    only a failed check walks the rows in Python, to name the first bad row
    or entry.  Each row must be an automorphism of K, the row of H's
    identity must be the identity map, and rows must compose like H does:
    action[h * h'] = action[h] after action[h'].  Both laws are checked on
    the edges of `Subgroup.walk`, |H| r_K |K| + |H| r_H |K| work, naming the
    first failing row and edge.  The product keeps the factors; its dense
    table is built on its first read.
    """
    nh, nk = h_group.order, k_group.order
    _check_order(nh * nk)
    if isinstance(action, np.ndarray):
        if action.dtype.kind not in "iu":
            raise ValidationError(f"an action array must have integer entries, not {action.dtype}")
        arr = action
    else:
        arr = _int_rows(action, nh, nk, lambda: _action_error(action, nh, nk))
    if (
        arr.shape != (nh, nk)
        or arr.min() < 0
        or arr.max() >= nk
        or not (np.sort(arr, axis=1) == np.arange(nk)).all()
    ):
        raise _action_error(action, nh, nk)
    arr = arr.astype(np.int32)
    if not np.array_equal(arr[h_group.identity], np.arange(nk)):
        raise ValidationError("the identity of H must act as the identity map on K")

    gens = k_group.walk[0]
    at = k_group.multiply(gens[:, None], np.arange(nk))
    # theta_h(g_j k) against theta_h(g_j) theta_h(k) at [h, j, k], for K's generators
    bad = arr[:, at] != k_group.table[arr[:, gens, None], arr[:, None]]
    if bad.any():
        h, j, k = np.argwhere(bad)[0]
        raise ValidationError(f"action row {h} is not multiplicative at pair ({gens[j]}, {k})")
    gens = h_group.walk[0]
    at = h_group.multiply(gens[:, None], np.arange(nh))
    # theta_{g_j h} against theta_{g_j} after theta_h at [j, h], for H's generators
    bad = (arr[at] != arr[gens][:, arr]).any(axis=2)
    if bad.any():
        j, h = np.argwhere(bad)[0]
        raise ValidationError(f"action rows do not compose like H at pair ({gens[j]}, {h})")

    return SemidirectGroup(h_group, k_group, *_frozen(arr))


def _action_error(action, nh: int, nk: int) -> ValidationError:
    """The first malformed row or entry of an action, or the first row that
    is not a bijection, in the order a row-by-row scan meets it; an array
    is read as its rows."""
    if isinstance(action, np.ndarray):
        action = action.tolist()
    if not isinstance(action, (list, tuple)):
        return ValidationError("the action must be a list of rows")
    if len(action) != nh:
        return ValidationError(f"action has {len(action)} rows for |H| = {nh}")
    for h, row in enumerate(action):
        if not isinstance(row, (list, tuple)):
            return ValidationError(f"action row {h} is not a list of K indices")
        if len(row) != nk:
            return ValidationError(f"action row {h} has length {len(row)}, expected {nk}")
        for j, v in enumerate(row):
            if type(v) is not int or not 0 <= v < nk:
                return ValidationError(
                    f"action entry ({h},{j}) = {v!r} is not an element of 0..{nk-1}"
                )
        if sorted(row) != list(range(nk)):
            return ValidationError(f"action row {h} is not a bijection of K")
    raise AssertionError("no malformed row or entry to report")


def delta_factor(sd: SemidirectGroup, sub: Subgroup, h: int) -> float:
    """Modulus of the action of h on an invariant subgroup of K; always 1.0.

    Finite groups carry counting measure, so automorphisms cannot rescale it;
    the call still validates that the subgroup is preserved by every row of
    the action, which is what makes restriction and quotient constructions
    measure-compatible.
    """
    if sub.parent is not sd.k:
        raise DomainMismatchError("subgroup does not live in the K factor")
    _element(sd.h, h)
    sd._require_invariant(sub)
    return 1.0


def lift_subgroup(sd: SemidirectGroup, sub: Subgroup) -> Subgroup:
    """View a subgroup of K as a subgroup of the product, via k -> (e_H, k),
    with K's walk (`_shifted`), which has already checked closure in K."""
    if sub.parent is not sd.k:
        raise DomainMismatchError("subgroup does not live in the K factor")
    return _shifted(sd.product, sub, sd.h.identity * sd.k.order)


def _shifted(parent: FiniteGroup, sub: Subgroup, by: int) -> Subgroup:
    """`sub` moved by `by` into `parent`, between K and the K fiber, with its
    walk: e_H acts as the identity (`semidirect`), so k -> e_H |K| + k is a
    homomorphism that keeps the order of indices, and `generating_set` on
    either side picks the same generators, moved, words, relations and `at`."""
    gens, words, relations, at = sub.walk
    moved = Subgroup(parent, tuple((np.array(sub.members) + by).tolist()))
    vars(moved)["walk"] = (*_frozen(gens + by), words, relations, at)   # seeds the cached property
    return moved


def lift_character(sd: SemidirectGroup, char: Character) -> Character:
    """Transport a character on a subgroup of K to the lifted subgroup."""
    lifted = lift_subgroup(sd, char.domain)
    return _character(lifted, char.numerators)


def quotient_action(sd: SemidirectGroup, sub: Subgroup) -> tuple[QuotientGroup, np.ndarray]:
    """The induced action of H on K / N for an action-invariant normal N:
    K / N, the subgroup's kept `quotient`, and a read-only int array whose
    [h, c] entry is the coset of theta_h(reps[c])."""
    delta_factor(sd, sub, sd.h.identity)  # validates invariance
    qk = sub.quotient
    return qk, _frozen(qk.proj[sd.action[:, qk.reps]])[0]


def induced_semidirect(sd: SemidirectGroup, sub: Subgroup) -> SemidirectGroup:
    """H acting on K / N; its product realizes the quotient of the product by N."""
    qk, act = quotient_action(sd, sub)
    return semidirect(sd.h, qk.table, act)


def make_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """The direct product A x B, (x, y) at index x |B| + y: the semidirect
    product under the identity action.  Its table is read at once, as the
    K of a semidirect product multiplies by gathers from K's table."""
    _check_order(a.order * b.order)
    identity = np.broadcast_to(np.arange(b.order, dtype=np.int32), (a.order, b.order))
    product = SemidirectGroup(a, b, identity).product
    product.table
    return product


def heisenberg_finite(m: int) -> SemidirectGroup:
    """Z_m acting on Z_m x Z_m by shearing: x sends (y, s) to (y, s + x*y).

    The packed triple (x, y, s) multiplies as
    (x, y, s) * (x', y', s') = (x + x', y + y', s + s' + x*y'), all mod m.
    """
    return weyl_heisenberg_finite(m, m)


def weyl_heisenberg_finite(m: int, r: int) -> SemidirectGroup:
    """Z_m acting on Z_m x Z_r by the shear of step r/m; requires m to divide r.

    The Z_r factor discretizes the circle: t stands for the phase t/r, and
    h = x shears (l, t) along the circle by (r/m) x l steps, as
    `_shear_action` writes out.  With r = m this is exactly the plain
    step-1 shear group.
    """
    m, r = _check_order(m), _check_order(r)
    if r % m != 0:
        raise DiscretizationError(
            f"the circle resolution {r} must be a multiple of the base order {m}"
        )
    k = make_product(make_cyclic(m), make_cyclic(r))
    return semidirect(make_cyclic(m), k, _shear_action(m, r))


def _shear_action(m: int, r: int) -> np.ndarray:
    """The shear of step r/m as an (m, m r) array:
    action[x, l r + t] = l r + (t + (r/m) x l) mod r."""
    x, l, t = np.ogrid[:m, :m, :r]
    return (l * r + (t + (r // m) * x * l) % r).reshape(m, m * r)


def _wh_parameters(sd: SemidirectGroup) -> tuple[int, int]:
    """Recover (m, r) from a shear group, refusing any other product.

    H, K and the action must equal those of `weyl_heisenberg_finite(m, r)`
    entry for entry; labels are not compared.
    """
    m = sd.h.order
    if sd.k.order % m != 0:
        raise DomainMismatchError("K does not factor as Z_m x Z_r")
    r = sd.k.order // m
    if r % m != 0:
        raise DomainMismatchError(f"K's circle resolution {r} is not a multiple of {m}")
    k = make_product(make_cyclic(m), make_cyclic(r))
    for part, got, want in (
        ("H", sd.h.table, make_cyclic(m).table),
        ("K", sd.k.table, k.table),
        ("the action", sd.action, _shear_action(m, r)),
    ):
        differs = got != want
        if differs.any():
            at = tuple(np.argwhere(differs)[0].tolist())
            raise DomainMismatchError(
                f"{part} differs from the shear group's at entry {at}: "
                f"{got[at]} where {want[at]} is expected"
            )
    return m, r


@lru_cache(maxsize=None)
def _shear_numerators(m: int, r: int, y: int, n: int) -> np.ndarray:
    """Phases of the (y, n) character of the Z_m x Z_r fiber as numerators
    over m r, its order, read-only: (y l / m + n t / r) mod 1 =
    ((y l r/m + n t) mod r) m / (m r) at index l r + t, the character's
    stored form.  The center's n-th character is the row l = 0 at y = 0,
    all of `_shear_numerators(1, r, 0, n)`."""
    l, t = np.ogrid[:m, :r]
    return _frozen(((y * (r // m) * l + n * t) % r * m).ravel())[0]


def _require_phases(psi: CovariantFunction, expected: np.ndarray, what: str) -> None:
    # exact: both sides are stored forms, integer numerators over |N|
    if not np.array_equal(psi.character.numerators, expected):
        raise DomainMismatchError(f"character does not match the requested {what}")


def _require_fiber(sd: SemidirectGroup, psi: CovariantFunction, size: int, what: str) -> None:
    """Require psi on the product, covariant over the first `size` elements
    of K.  The order and largest member in K of the quotient's `fiber`
    settle that exactly: a `Subgroup` keeps its members sorted and
    distinct, as `Subgroup.walk`, `make_character` and `pullback` rely on
    through `searchsorted`, and `size` distinct integers up to `size - 1`
    are all of them."""
    if psi.group is not sd.product:
        raise DomainMismatchError("covariant function does not live on the product group")
    fiber = psi.quotient.fiber
    if fiber is None or (fiber.normal.order, fiber.normal.members[-1]) != (size, size - 1):
        raise DomainMismatchError(f"covariant function is not covariant over {what}")


def conv_fast_full_k(
    sd: SemidirectGroup, f: GroupFunction, psi: CovariantFunction
) -> CovariantFunction:
    """`module_action` when the covariance subgroup is all of K, behind a
    check that it is.

    With K abelian f is projected onto the H-orbit of psi's character, at
    most |H|^2 |K| work against the |G|^2 of the structure-blind path; any
    other K takes the table route, |H|^2 |K| as well.
    """
    _require_fiber(sd, psi, sd.k.order, "the full K fiber")
    return module_action(f, psi)


def conv_fast_wh_center(
    sd: SemidirectGroup, f: GroupFunction, psi: CovariantFunction, n: int
) -> CovariantFunction:
    """`module_action` over the central fiber of a shear group, behind a
    check of the group's shape, the covariance subgroup and the character.

    The covariance character must be the n-th character of the center
    {(0, 0, t)}.  H fixes it, so the route takes m^2 r + m^3 work to project
    f onto the m characters of K above it and m^3 for the sum, where the
    structure-blind path takes |G|^2 = m^4 r^2.
    """
    _, r = sd.shear_parameters
    _require_fiber(sd, psi, r, "the central fiber")
    _require_phases(psi, _shear_numerators(1, r, 0, n % r), "central character index")
    return module_action(f, psi)


def conv_fast_wh_full(
    sd: SemidirectGroup,
    f: GroupFunction,
    psi: CovariantFunction,
    y: int,
    n: int,
) -> CovariantFunction:
    """`module_action` over the whole Z_m x Z_r fiber of a shear group.

    The covariance character must be the (y, n) character of the fiber, the
    one `_shear_numerators` gives.  Past the shape and phase checks this is
    `conv_fast_full_k`.
    """
    m, r = sd.shear_parameters
    _require_phases(psi, _shear_numerators(m, r, y % m, n % r), "(y, n) character indices")
    return conv_fast_full_k(sd, f, psi)
