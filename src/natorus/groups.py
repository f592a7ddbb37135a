"""Finite abelian groups, their duals, and the finite Fourier transform.

A group is a product of cyclic factors Z/n_1 x ... x Z/n_k given by its factor
list. Elements are coordinate tuples reduced mod the factors. The enumeration
order is lexicographic in the coordinates (identity first) and is part of the
public contract: every table in this package is indexed by it.

The dual group is modeled by the same factor list; the pairing
<chi, g> = sum_i chi_i g_i / n_i (mod 1) identifies characters with elements.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import lcm, prod
from typing import Iterable, Sequence

import numpy as np

from .errors import IncompatibleGroupsError, InvalidGroupError, require_int
from .phases import Phase, exp_phases


class FiniteAbelianGroup:
    """Z/n_1 x ... x Z/n_k with lexicographic element enumeration."""

    def __init__(self, factors: Sequence[int]):
        factors = tuple(require_int(n, "factor", 2, InvalidGroupError) for n in factors)
        if len(factors) == 0:
            raise InvalidGroupError("factor list must be nonempty")
        self.factors = factors
        self.rank = len(factors)
        self.order = prod(factors)
        self.exponent = lcm(*factors)

    # ------------------------------------------------------------ structure

    @cached_property
    def coords(self) -> np.ndarray:
        """(order, rank) int array of all coordinate tuples in enumeration order."""
        return np.array(
            list(itertools.product(*[range(n) for n in self.factors])),
            dtype=np.int64,
        )

    @cached_property
    def _index_weights(self) -> tuple[int, ...]:
        # mixed-radix weights: index = sum_i coords[i] * prod(factors[i+1:])
        w = []
        acc = 1
        for n in reversed(self.factors):
            w.append(acc)
            acc *= n
        return tuple(reversed(w))

    def index(self, element: "GroupElement") -> int:
        self._require_same(element.group)
        return sum(c * w for c, w in zip(element.coords, self._index_weights))

    def element(self, spec) -> "GroupElement":
        """Build an element from an index, a coordinate sequence, or pass one through."""
        if isinstance(spec, GroupElement):
            self._require_same(spec.group)
            return spec
        if isinstance(spec, (int, np.integer)):
            if not 0 <= spec < self.order:
                raise IndexError(f"element index {spec} out of range for order {self.order}")
            return GroupElement(tuple(int(c) for c in self.coords[spec]), self)
        coords = tuple(int(c) % n for c, n in zip(spec, self.factors))
        if len(tuple(spec)) != self.rank:
            raise InvalidGroupError(
                f"coordinate tuple {tuple(spec)} does not match rank {self.rank}"
            )
        return GroupElement(coords, self)

    @cached_property
    def elements(self) -> tuple["GroupElement", ...]:
        return tuple(GroupElement(tuple(int(c) for c in row), self) for row in self.coords)

    @property
    def identity(self) -> "GroupElement":
        return self.elements[0]

    @cached_property
    def add_table(self) -> np.ndarray:
        """(order, order) int32 table of index(x + y)."""
        n = self.order
        c = self.coords
        s = (c[:, None, :] + c[None, :, :]) % np.array(self.factors)
        w = np.array(self._index_weights, dtype=np.int64)
        return (s @ w).astype(np.int32)

    @cached_property
    def neg_table(self) -> np.ndarray:
        w = np.array(self._index_weights, dtype=np.int64)
        return (((-self.coords) % np.array(self.factors)) @ w).astype(np.int32)

    @cached_property
    def sub_table(self) -> np.ndarray:
        """(order, order) table of index(x - y)."""
        return self.add_table[:, self.neg_table]

    @cached_property
    def dual(self) -> "FiniteAbelianGroup":
        """The Pontryagin dual, presented on the same factor list."""
        return FiniteAbelianGroup(self.factors)

    def _require_same(self, other: "FiniteAbelianGroup") -> None:
        if self.factors != other.factors:
            raise IncompatibleGroupsError(
                f"group factors {other.factors} do not match {self.factors}"
            )

    # ------------------------------------------------------------- pairing

    @cached_property
    def pairing_numerators(self) -> np.ndarray:
        """(order, order) table N with <chi, g> = N[chi, g] / exponent."""
        m = self.exponent
        scale = np.array([m // n for n in self.factors], dtype=np.int64)
        return (self.coords * scale) @ self.coords.T % m

    @cached_property
    def character_matrix(self) -> np.ndarray:
        """Complex (order, order) matrix exp(2 pi i <chi, g>), by exp_phases."""
        return exp_phases(self.pairing_numerators, self.exponent)

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteAbelianGroup) and self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        return f"FiniteAbelianGroup{self.factors}"


@dataclass(frozen=True)
class GroupElement:
    coords: tuple
    group: FiniteAbelianGroup

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self.group._require_same(other.group)
        return GroupElement(
            tuple((a + b) % n for a, b, n in zip(self.coords, other.coords, self.group.factors)),
            self.group,
        )

    def __neg__(self) -> "GroupElement":
        return GroupElement(
            tuple((-a) % n for a, n in zip(self.coords, self.group.factors)), self.group
        )

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def __mul__(self, k: int) -> "GroupElement":
        return GroupElement(
            tuple((a * k) % n for a, n in zip(self.coords, self.group.factors)), self.group
        )

    __rmul__ = __mul__

    @property
    def index(self) -> int:
        return self.group.index(self)

    def is_identity(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __repr__(self) -> str:
        return f"g{self.coords}"


def make_group(factors: Sequence[int]) -> FiniteAbelianGroup:
    return FiniteAbelianGroup(factors)


def pairing(chi: GroupElement, g: GroupElement) -> Phase:
    """<chi, g> = sum_i chi_i g_i / n_i as an exact Phase.

    chi lives in the dual group, g in the group; both share the factor list,
    and mixing different factor lists raises IncompatibleGroupsError.
    """
    if chi.group.factors != g.group.factors:
        raise IncompatibleGroupsError(
            f"pairing between factors {chi.group.factors} and {g.group.factors}"
        )
    total = Phase(0)
    for c, x, n in zip(chi.coords, g.coords, g.group.factors):
        total = total + Phase(c * x, n)
    return total


def fourier(group: FiniteAbelianGroup, values: Iterable[complex]) -> np.ndarray:
    """fhat(chi) = sum_g f(g) exp(2 pi i <chi, g>), indexed by enumeration order."""
    f = np.asarray(list(values) if not isinstance(values, np.ndarray) else values)
    if f.shape[0] != group.order:
        raise InvalidGroupError(
            f"function has {f.shape[0]} values, group has order {group.order}"
        )
    return group.character_matrix @ f


def subgroup_elements(group: FiniteAbelianGroup, generators) -> tuple[GroupElement, ...]:
    """Closure of the generators under addition, in enumeration order."""
    gens = [group.element(g) for g in generators]
    seen = {group.identity.index}
    frontier = [group.identity]
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                s = h + g
                if s.index not in seen:
                    seen.add(s.index)
                    nxt.append(s)
        frontier = nxt
    return tuple(group.element(i) for i in sorted(seen))
