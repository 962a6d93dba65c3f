"""Lattice Fock spaces and smeared density quantity sets.

Identical particles are reduced by sharpening the particle density
around each point rather than any per-particle position, which respects
indistinguishability; several species sharpen the mass density with a
single stochastic field. On a one-dimensional lattice the smeared
density at site j counts particles through a Gaussian window of linear
size 1/sqrt(alpha), and all such operators are diagonal in the
occupation basis, so they form an exactly commuting quantity set that
the generic engines consume unchanged. The set is built from its
(dim, sites) table of diagonals; no dim x dim matrix is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .hilbert import StateVector

DIMENSION_CAP = 5000

__all__ = [
    "Species",
    "FockLattice",
    "build_fock_lattice",
    "smearing_kernel",
    "build_number_density",
    "build_mass_density",
]


@dataclass(frozen=True)
class Species:
    """One particle kind on the lattice, with a fixed total count."""

    name: str
    mass: float = 1.0
    statistics: str = "boson"
    count: int = 1
    max_occupation: int | None = None

    def __post_init__(self):
        if self.statistics not in ("boson", "fermion"):
            raise ValueError("statistics must be 'boson' or 'fermion'")
        if self.mass <= 0:
            raise ValueError("mass must be > 0")
        if self.count < 0:
            raise ValueError("count must be >= 0")
        cap = self.max_occupation
        if self.statistics == "fermion":
            if cap is not None and cap > 1:
                raise ValueError("fermionic occupations cannot exceed 1")
            cap = 1
        elif cap is None:
            cap = self.count
        object.__setattr__(self, "max_occupation", cap)


def _occupation_vectors(total: int, sites: int, cap: int) -> np.ndarray:
    """(count, sites) site occupations with the given total, lexicographically descending.

    Built one site at a time, without recursion: every prefix that can
    still be completed branches into each occupation of the next site,
    largest first, that leaves a remainder the later sites can hold.
    Each level keeps only its occupations and parent rows, and the rows
    are read back from the last site, so the work is O(count * sites).
    """
    remaining = np.array([total], dtype=np.int64)
    levels = []
    for later in range(sites - 1, -1, -1):
        high = np.minimum(remaining, cap)
        width = np.maximum(high - np.maximum(remaining - cap * later, 0) + 1, 0)
        parent = np.repeat(np.arange(remaining.size), width)
        first_child = np.repeat(np.cumsum(width) - width, width)
        occupation = high[parent] - (np.arange(parent.size) - first_child)
        remaining = remaining[parent] - occupation
        levels.append((occupation, parent))
    vectors = np.empty((sites, remaining.size), dtype=np.int64)
    rows = np.arange(remaining.size)
    for site in range(sites - 1, -1, -1):
        occupation, parent = levels.pop()
        vectors[site] = occupation[rows]
        rows = parent[rows]
    return np.ascontiguousarray(vectors.T)


def _count_occupation_vectors(total: int, sites: int, cap: int) -> int:
    """len(_occupation_vectors(total, sites, cap)), in closed form.

    Bounded compositions by inclusion-exclusion over the sites forced
    above ``cap``: sum_j (-1)^j C(sites, j) C(total - j(cap+1) + sites-1, sites-1).
    Holes and particles are symmetric (occupation n <-> cap - n), so the
    sum runs over the smaller of total and sites * cap - total: near full
    filling it then has a few terms, not thousands of huge ones.
    """
    full = sites * cap
    if total > full:
        return 0
    total = min(total, full - total)
    return sum(
        (-1) ** j
        * math.comb(sites, j)
        * math.comb(total - j * (cap + 1) + sites - 1, sites - 1)
        for j in range(min(sites, total // (cap + 1)) + 1)
    )


# Cephes ndtr.c (S. L. Moshier, Methods and Programs for Mathematical
# Functions, 1989), the rational approximations SciPy's erf compiles
# for real doubles: erf = x T(x^2) / U(x^2) for |x| <= 1, and
# erfc = exp(-x^2) P(x) / Q(x) for 1 < x < 8. The leading 1 of U and Q
# turns Cephes' p1evl into polevl with the same bits, as 1 * x is exact.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
          2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4,
          4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
           7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
# From |x| = 6 on, Cephes' erfc is below 2**-54 (erfc(6) = 2.2e-17), so
# 1 - erfc rounds to exactly 1, and erf needs neither exp nor the x >= 8
# branch of erfc.
_ERF_SATURATION = 6.0


def _polevl(x: np.ndarray, coefs) -> np.ndarray:
    """Cephes polevl: Horner's rule, one rounded multiply and add per step."""
    ans = np.full_like(x, coefs[0])
    for c in coefs[1:]:
        ans = ans * x + c
    return ans


def _erf(x: np.ndarray) -> np.ndarray:
    """Cephes erf, elementwise, bit for bit equal to SciPy's ``special.erf``.

    numpy never fuses a multiply and an add, so each Horner step rounds
    as the compiled C does; the exponential is libm's ``math.exp``, for
    the reason ``smearing_kernel`` gives.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.abs(x)
    inner = y <= 1.0
    band = (y > 1.0) & (y < _ERF_SATURATION)
    s = y[inner]
    z = s * s
    y[inner] = s * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)
    s = y[band]
    e = np.fromiter(map(math.exp, memoryview(-s * s)), np.float64, count=s.size)
    y[band] = 1.0 - e * _polevl(s, _ERFC_P) / _polevl(s, _ERFC_Q)
    y[y >= _ERF_SATURATION] = 1.0
    np.copysign(y, x, out=y)
    y[np.isnan(x)] = np.nan
    return y


class FockLattice:
    """Occupation-number basis for one or more species on a 1D lattice.

    Sites are cell-centred: x_j = (j + 1/2) dx, so halving dx while
    doubling the site count tiles the same physical region. The basis
    enumerates, per species, every way to place its fixed particle count
    (fermions at most one per site), and takes the product across
    species; ``configs[i, k, j]`` is the occupation of site j by species
    k in basis state i.
    """

    __slots__ = ("positions", "dx", "species", "configs", "_index")

    def __init__(self, positions: np.ndarray, dx: float, species: tuple[Species, ...],
                 configs: np.ndarray):
        positions = np.asarray(positions, dtype=float)
        configs = np.asarray(configs, dtype=np.int64)
        positions.flags.writeable = False
        configs.flags.writeable = False
        self.positions = positions
        self.dx = float(dx)
        self.species = tuple(species)
        self.configs = configs
        self._index = {row.tobytes(): i for i, row in enumerate(configs)}

    @property
    def num_sites(self) -> int:
        return self.positions.size

    @property
    def dim(self) -> int:
        return self.configs.shape[0]

    def index_of(self, occupations) -> int:
        """Basis index of an occupation configuration (species, site)."""
        arr = np.asarray(occupations, dtype=np.int64)
        if arr.ndim == 1:
            arr = arr[np.newaxis, :]
        if arr.shape != (len(self.species), self.num_sites):
            raise DimensionMismatchError(
                f"occupations must have shape ({len(self.species)}, {self.num_sites})"
            )
        try:
            return self._index[arr.tobytes()]
        except KeyError:
            raise KeyError(f"no basis state with occupations {occupations}") from None

    def state_from_amplitudes(self, entries) -> StateVector:
        """Build a state from (occupations, complex amplitude) pairs."""
        amps = np.zeros(self.dim, dtype=np.complex128)
        for occupations, amplitude in entries:
            amps[self.index_of(occupations)] += amplitude
        return StateVector(amps, normalize=True)

    def site_numbers(self, species_index: int) -> np.ndarray:
        """(dim, sites) on-site occupation eigenvalues for one species."""
        return self.configs[:, species_index, :].astype(float)

    def __repr__(self) -> str:
        return (
            f"FockLattice(sites={self.num_sites}, species={len(self.species)}, "
            f"dim={self.dim})"
        )


def build_fock_lattice(n_sites: int, dx: float, species) -> FockLattice:
    """Enumerate the occupation basis; errors out above ``DIMENSION_CAP``."""
    if n_sites < 2:
        raise DimensionMismatchError("lattice needs at least 2 sites")
    if dx <= 0:
        raise ValueError("dx must be > 0")
    species = tuple(species)
    if not species:
        raise ValueError("need at least one species")
    dim = 1
    for sp in species:
        count = _count_occupation_vectors(sp.count, n_sites, sp.max_occupation)
        if count == 0:
            raise ValueError(
                f"species {sp.name!r} cannot place {sp.count} particles on "
                f"{n_sites} sites with max occupation {sp.max_occupation}"
            )
        dim *= count
    if dim > DIMENSION_CAP:
        raise ValueError(
            f"Fock dimension {dim} exceeds the cap {DIMENSION_CAP}; "
            "shrink the lattice or the particle counts"
        )
    per_species = [_occupation_vectors(sp.count, n_sites, sp.max_occupation) for sp in species]
    # the product across species, the last species varying fastest
    picks = np.indices([len(v) for v in per_species]).reshape(len(species), -1)
    configs = np.stack([v[pick] for v, pick in zip(per_species, picks)], axis=1)
    positions = (np.arange(n_sites) + 0.5) * dx
    return FockLattice(positions, dx, species, configs)


def smearing_kernel(positions: np.ndarray, dx: float, alpha: float) -> np.ndarray:
    """Weights of the Gaussian counting window, integrated over site cells.

    ``kernel[j, jp]`` is the probability mass the window centred at site j
    (variance 1/alpha) assigns to the cell of site jp; ``positions`` are
    the ascending cell centres, ``dx`` apart. Exact cell integration
    keeps every row summing to at most 1: for alpha * dx^2 << 1 it
    reduces to the midpoint form
    (alpha/2pi)^(1/2) exp(-alpha (x_j - x_jp)^2 / 2) dx, and for
    alpha -> infinity it concentrates to the identity, making the smeared
    density the on-site number operator.

    The erf is ``_erf``, a port of the Cephes rational approximation
    that gives the same bits as SciPy's ``special.erf``, so importing this
    module loads no SciPy. Its exponential is libm's ``exp`` per element
    rather than ``np.exp``, whose vectorized path can round differently
    in the last bit; only the |x| < 6 band around each site needs one.

    Where both cell edges lie 6 / sqrt(alpha / 2) or more from the
    window's centre, both erfs are exactly +-1 and the entry is exactly 0.
    So only the diagonals within that reach, plus two sites of margin,
    are evaluated, each entry as the dense formula would; the rest of the
    kernel is left 0.
    """
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    x = np.asarray(positions, dtype=float)
    n = x.size
    scaled = math.sqrt(alpha / 2.0)
    reach = min(n - 1, math.ceil((_ERF_SATURATION / scaled + dx / 2.0) / dx) + 2)
    kernel = np.zeros((n, n))
    flat = kernel.reshape(-1)
    for offset in range(-reach, reach + 1):
        # the entries (j, j + offset) for j in [lo, hi): a strided view of the kernel
        lo, hi = max(0, -offset), n - max(0, offset)
        diff = x[lo + offset : hi + offset] - x[lo:hi]
        upper = _erf(scaled * (diff + dx / 2.0))
        lower = _erf(scaled * (diff - dx / 2.0))
        flat[lo * (n + 1) + offset :: n + 1][: hi - lo] = 0.5 * (upper - lower)
    return kernel


def build_number_density(
    lattice: FockLattice, species_index: int, alpha: float
) -> np.ndarray:
    """Smeared number densities, as their (dim, sites) table of diagonals.

    The operators are diagonal in the occupation basis (hence exactly
    commuting): N(x_j) = sum_jp kernel[j, jp] * n_{jp} with n the on-site
    number operator of the chosen species, so column j holds the
    eigenvalues of N(x_j) on the basis states.
    """
    kernel = smearing_kernel(lattice.positions, lattice.dx, alpha)
    return lattice.site_numbers(species_index) @ kernel.T


def build_mass_density(lattice: FockLattice, alpha: float) -> np.ndarray:
    """Mass densities M(x_j) = sum_k m_k N_k(x_j), as a (dim, sites) table."""
    kernel = smearing_kernel(lattice.positions, lattice.dx, alpha)
    total = np.zeros((lattice.dim, lattice.num_sites))
    for k, sp in enumerate(lattice.species):
        total += sp.mass * (lattice.site_numbers(k) @ kernel.T)
    return total
