"""Hypercubic bipartite lattices and their nearest-neighbor bond lists."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import product


class DegenerateLatticeWarning(UserWarning):
    """Periodic wrapping collapsed distinct bonds (happens only for L = 2)."""


@dataclass(frozen=True)
class LatticeSpec:
    """Hypercubic lattice of linear size L in d dimensions."""

    dimension: int
    linear_size: int
    periodic: bool = True

    def __post_init__(self) -> None:
        if self.dimension not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.dimension}")
        if self.linear_size < 2:
            raise ValueError(f"linear_size must be >= 2, got {self.linear_size}")
        if self.periodic and self.linear_size % 2:
            # odd rings frustrate the two-sublattice structure
            raise ValueError("periodic lattices need even linear_size to stay bipartite")

    @property
    def n_sites(self) -> int:
        return self.linear_size**self.dimension


@dataclass(frozen=True)
class Bond:
    """Unordered nearest-neighbor pair, stored with i < j."""

    i: int
    j: int

    def __post_init__(self) -> None:
        if not 0 <= self.i < self.j:
            raise ValueError(f"bond requires 0 <= i < j, got ({self.i}, {self.j})")


@dataclass(frozen=True)
class Lattice:
    """Bond list and sublattice labels for a LatticeSpec."""

    spec: LatticeSpec
    bonds: tuple[Bond, ...]
    sublattice: tuple[int, ...]

    @property
    def n_sites(self) -> int:
        return self.spec.n_sites

    @property
    def n_bonds(self) -> int:
        return len(self.bonds)


def site_index(coords: tuple[int, ...], linear_size: int) -> int:
    """Row-major site index of a coordinate tuple."""
    idx = 0
    for c in coords:
        idx = idx * linear_size + c
    return idx


def build_lattice(spec: LatticeSpec) -> Lattice:
    """Enumerate forward bonds in canonical site/axis order.

    Each site emits one bond per axis toward coordinate +1 (wrapping when
    periodic, skipped at open edges). For L = 2 the two wrap directions meet:
    the duplicate is dropped and a DegenerateLatticeWarning is emitted.
    """
    L, d = spec.linear_size, spec.dimension
    sublattice = []
    bonds: list[Bond] = []
    seen: set[tuple[int, int]] = set()
    duplicates = 0
    for coords in product(range(L), repeat=d):
        i = site_index(coords, L)
        sublattice.append(sum(coords) % 2)
        for axis in range(d):
            c = coords[axis]
            if c + 1 < L:
                jc = c + 1
            elif spec.periodic:
                jc = 0
            else:
                continue
            neighbor = coords[:axis] + (jc,) + coords[axis + 1 :]
            j = site_index(neighbor, L)
            pair = (min(i, j), max(i, j))
            if pair in seen:
                duplicates += 1
                continue
            seen.add(pair)
            bonds.append(Bond(*pair))
    if duplicates:
        warnings.warn(
            f"L={L} periodic wrapping produced {duplicates} duplicate bond(s); deduplicated",
            DegenerateLatticeWarning,
            stacklevel=2,
        )
    return Lattice(spec=spec, bonds=tuple(bonds), sublattice=tuple(sublattice))
