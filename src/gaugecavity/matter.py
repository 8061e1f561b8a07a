"""Catalog of finite matter models and their coupling operators.

Each model owns a bare Hamiltonian ``h_m``, total-dipole operators, and
providers for the Fourier components of the paramagnetic current and the
multipolar transverse polarisation.  Above DENSE_MAX_DIM states the
builders emit sparse CSR operators: diagonal, banded, or Kronecker
products of single-axis matrices.  Gauge weighting of those operators is
applied elsewhere; models only expose the raw material objects.

The ground state of a (possibly gauge-dressed) matter Hamiltonian and
its reduced resolvent come from one of two backends, which
`ground_resolvent` picks.  Up to DENSE_MAX_DIM states it is the full
eigendecomposition `MatterSpectrum`.  Above it, `lowest_by_sector` finds
the two lowest eigenvalues and the ground vector sector by sector, the
sectors being the connected components of the nonzero entries (such as
the per-axis parity sectors of the 3-axis dipole or the single states of
the diagonal Dicke h_m): a single state off the diagonal, every other
sector cut alone and sliced by Cholesky tests, dense up to DENSE_MAX_DIM
states and above by the one sparse eigensolver of the package,
`shift_invert_lowest`, which runs Lanczos on a banded Cholesky
factorisation of H - sigma I below the spectrum.  A sector whose
entries are all real, as every Hamiltonian the builders make is, is
solved in real arithmetic, any other in complex.  The same routine
solves the blocks of the oracle Hamiltonian, which
`oracle.lowest_eigenpairs` first makes real by a photon phase.  The
resolvent is then `SectorResolvent`, one solve per touched sector in the
Gram matrix: a dense Cholesky solve up to DENSE_MAX_DIM states, and
above a banded Cholesky factorisation of H_s - E_0 on the band the
sector's plan lays out, or in the ground sector (the ring's one sector,
say) of H_s - E_0 just below the ground gap, with iterative refinement
on Q space.  Both backends are deterministic for a fixed Hamiltonian,
and both refuse a ground gap of at most DEGENERACY_ATOL when built.

A sweep repeats most of this, so the module keeps what it has solved,
each cache bounded by its entry count and each kept entry giving the
bits a fresh solve gives:
  * `lowest_by_sector` keeps a `_SectorPlan` for each of the last
    SECTOR_PLANS patterns of nonzero entries (with the tensor shape of an
    oracle Hamiltonian): the sectors, their partition, each dense
    sector's entry positions and flat offsets, and each large sector's
    entries and band layout, which `SectorResolvent.gram` reads too;
  * `ground_resolvent` keeps the backends of the last RESOLVENTS
    Hamiltonians by `Operator.digest`, without their model, and
    `ring_ground_state` as many dense ring ground vectors beside them;
  * the ensemble and dipole builders keep the operators the swept keys
    leave unchanged for BUILDS sets of the other keys, so a sweep's
    points share one h_m, whose digest is taken once.
The caches take no lock: a process solves from one thread at a time.

Conventions (natural units):
  * electrons have charge -e with e > 0,
  * total dipole  d_i = -e * sum_mu r_mu_i,
  * paramagnetic current at q -> 0 is  j^p = -(e / (m V)) * total momentum,
    realised model-independently as  j^p_i = -i [d_i, h_m] / V,
  * multipolar transverse polarisation in the long-wavelength limit is the
    transverse projection of d / V.

The two-level ensemble works in the symmetric collective-spin sector and
its effective diamagnetic strength e^2 N / m is fixed by the oscillator
strength sum of the truncated dipole (2 |d|^2 omega0 per dipole), so the
Coulomb-gauge sum-rule cancellation is exact for it by construction.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
import scipy.sparse
import scipy.linalg
from scipy.linalg.lapack import dpbtrf, dpbtrs, dposv, dpotrf, zpbtrf, zpbtrs, zposv, zpotrf
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigsh

from .errors import (ArgumentError, DegenerateGroundStateError, NumericError, ResourceLimitError,
                     UnsupportedError)
from .operators import DENSE_MAX_DIM, Operator, _digest, _fix_phases, boson_ladder, eigh, zero

MAX_ENSEMBLE_SIZE = 4000
# `ring_ground_state` still diagonalises the L x L ring densely
MAX_RING_SITES = 4000
MAX_ANHARMONIC_DIM = 20000  # levels ** 3 for the 3-axis dipole
DEGENERACY_ATOL = 1e-10  # energies closer than this count as degenerate
LANCZOS_SEED = 2207  # seeds the real Gaussian Lanczos start vector
# `shift_invert_lowest` factors this far below a certified floor of the
# spectrum, relative to max(1, |floor|); the floor can lie very close to
# E_0, so some margin must stay
FLOOR_MARGIN = 1e-2
# `lowest_by_sector` keeps the `_SectorPlan`s of this many sparsity
# patterns in _PLANS, by `_pattern_key`; a README sweep meets 2
SECTOR_PLANS = 16
_PLANS: dict = {}
# `ground_resolvent` keeps the backends of this many distinct Hamiltonians
# in _RESOLVENTS, and `ring_ground_state` as many dense ring ground vectors
RESOLVENTS = 8
_RESOLVENTS: dict = {}
# each builder keeps the operators its swept arguments leave unchanged for
# this many sets of the other arguments
BUILDS = 4

X_AXIS = np.array([1.0, 0.0, 0.0])
Y_AXIS = np.array([0.0, 1.0, 0.0])
Z_AXIS = np.array([0.0, 0.0, 1.0])


def along_op(eps, ops) -> Operator:
    """sum_i eps_i O_i for a Cartesian operator triple; zero weights are
    skipped.  The sum is sparse when the operators it adds are."""
    terms = [ops[i] * eps[i] for i in range(3) if abs(eps[i]) > 1e-15]
    return sum(terms[1:], terms[0]) if terms else zero(ops[0].dim)


class ModelKind(enum.Enum):
    TWO_LEVEL_ENSEMBLE = "two_level_ensemble"
    ANHARMONIC_DIPOLE = "anharmonic_dipole"
    RING_LATTICE = "ring_lattice"


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters shared by the response and criterion machinery."""

    n_charges: int
    mass: float
    charge: float
    volume: float
    e2n_over_m: float  # diamagnetic strength e^2 N / m
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class MatterModel:
    kind: ModelKind
    h_m: Operator
    dipole_ops: tuple[Operator, Operator, Operator]
    params: ModelParams
    # unit vectors along which the model's charges can move; fixes the
    # geometry of the diamagnetic matrix in velocity gauges
    axes: tuple[np.ndarray, ...]
    # canonical momentum components (same order as axes); None when the
    # model has no p^2/2m structure (two-level, ring)
    momentum_ops: tuple[Operator, ...] | None = None
    # single-particle models add the retained-mode polarisation self-energy
    # in electric gauges; ensembles of disjoint dipoles must not
    self_energy_in_electric_gauges: bool = False

    @property
    def dim(self) -> int:
        return self.h_m.dim

    # -- coupling-operator providers -------------------------------------

    def para_current(self, q_phase: float = 0.0) -> tuple[Operator, Operator, Operator]:
        """Cartesian components of j^p_q.

        ``q_phase`` is the scalar quasi-momentum entering the phase factors
        e^{-i q x}; 0 selects the long-wavelength limit.  Finite q is
        supported on the ring only, the one model `gauge.ring_mode` builds
        finite-q modes for.
        """
        if q_phase == 0.0:
            return tuple(self.current_along(ax) for ax in (X_AXIS, Y_AXIS, Z_AXIS))
        if self.kind is ModelKind.RING_LATTICE:
            return self._ring_bond_current(q_phase)
        raise UnsupportedError(f"{self.kind.value} supports only long-wavelength currents")

    def current_along(self, eps, q_phase: float = 0.0) -> Operator:
        """eps . j^p_q; at q_phase = 0 the single commutator -i [eps . d, h_m] / V,
        sparse when the model's operators are."""
        if q_phase != 0.0:
            return along_op(eps, self.para_current(q_phase))
        d = along_op(eps, self.dipole_ops)
        return Operator(-1j * (d @ self.h_m - self.h_m @ d).matrix / self.params.volume)

    def pol_transverse_mult(self, q_hat: np.ndarray, q_phase: float = 0.0
                            ) -> tuple[Operator, Operator, Operator]:
        """Multipolar P_Tq: transverse projection of d/V in the LWL, or the
        discretised bond-string polarisation for the ring at finite q."""
        if self.kind is ModelKind.RING_LATTICE and q_phase != 0.0:
            return self._ring_string_polarisation(q_phase)
        proj = np.eye(3) - np.outer(q_hat, q_hat)
        return tuple(Operator(along_op(row, self.dipole_ops).matrix / self.params.volume)
                     for row in proj)

    # -- ring-specific machinery ------------------------------------------

    def _require_ring(self):
        if self.kind is not ModelKind.RING_LATTICE:
            raise ArgumentError(f"operation requires a ring lattice, got {self.kind.value}")

    def _ring_bond_current(self, q_scalar: float) -> tuple[Operator, Operator, Operator]:
        """Lattice paramagnetic current with phase e^{-i q x} on bond centres.

        Bond hoppings are read back from h_m so disordered rings keep a
        continuity-consistent current.  Bond j = (j, j + 1) fills the
        diagonals at offsets -1 and +1, and the closing bond (L - 1, 0)
        those at -(L - 1) and L - 1.  The ring coordinate is abstract;
        the current lies along x, the ring's one axis.
        """
        e = self.params.charge
        v = self.params.volume
        L = self.dim
        h = self.h_m.matrix
        t = -np.append(h.diagonal(1), h.diagonal(1 - L)).real  # t_j on bond (j, j + 1)
        # bond j is -e i t_j (|j+1><j| - |j><j+1|) e^{-i q (j + 1/2)} / V
        lower = -e * 1j * t * np.exp(-1j * q_scalar * (np.arange(L) + 0.5)) / v
        op = Operator(_banded(L, {-1: lower[:-1], 1: -lower[:-1],
                                  L - 1: lower[-1:], 1 - L: -lower[-1:]}))
        return op, zero(L), zero(L)

    def _ring_string_polarisation(self, q_scalar: float) -> tuple[Operator, Operator, Operator]:
        """Line-integral polarisation discretised along ring bonds from site 0.

        Each site k is connected to the origin by the forward string over
        bonds 0..k-1; the uniform background enters as a c-number.  The
        operator is diagonal, along x: site k carries the phase sum of its
        string, less the background's N/L share of all strings.
        """
        e = self.params.charge
        v = self.params.volume
        L = self.dim
        n = self.params.n_charges
        phases = np.exp(-1j * q_scalar * (np.arange(L - 1) + 0.5))
        string = np.concatenate([[0.0], np.cumsum(phases)])  # bonds 0..k-1 of site k
        op = Operator(_banded(L, {0: -e * (string - (n / L) * string.sum()) / v}))
        return op, zero(L), zero(L)


@dataclass(frozen=True)
class MatterSpectrum:
    """Eigen-data of a matter Hamiltonian with a unique ground state."""

    model: MatterModel
    h_m_used: Operator
    energies: np.ndarray  # ascending, with the eigenvectors as columns of ``vectors``
    vectors: np.ndarray

    def __post_init__(self):
        check_unique_ground(self)

    def table(self, op: Operator) -> np.ndarray:
        """<n|O|n'> in the eigenbasis."""
        u = self.vectors
        return u.conj().T @ op.matrix @ u

    def couplings_from_ground(self, op: Operator) -> np.ndarray:
        """<0|O|n> for all n, as (<0|O) U: one vector-matrix product each."""
        u = self.vectors
        return (u[:, 0].conj() @ op.matrix) @ u

    def gram(self, cols: np.ndarray) -> np.ndarray:
        """M = C^dag Q (H - E_0)^-1 Q C for the columns of ``cols``, as
        (U^dag C)^dag D^+ (U^dag C) summed over the excited states."""
        de = self.energies[1:] - self.energies[0]
        y = self.vectors[:, 1:].conj().T @ cols  # <n|c>
        return y.conj().T @ (y / de[:, None])

    @property
    def ground_gap(self) -> float:
        return float(self.energies[1] - self.energies[0]) if len(self.energies) > 1 else np.inf

    def ground_energy(self) -> float:
        return float(self.energies[0])

    def ground_state_vector(self) -> np.ndarray:
        return self.vectors[:, 0]


def matter_spectrum(model: MatterModel, h_m: Operator | None = None) -> MatterSpectrum:
    """Diagonalise the (possibly gauge-dressed) matter Hamiltonian."""
    h = model.h_m if h_m is None else h_m
    es = eigh(h)
    return MatterSpectrum(model=model, h_m_used=h, energies=es.values, vectors=es.vectors)


@dataclass(frozen=True)
class SectorResolvent:
    """Ground state and reduced resolvent of a Hamiltonian above
    DENSE_MAX_DIM states, solved sector by sector.

    ``lowest`` holds the two lowest eigenvalues over all sectors, so the
    unique-ground check of construction is exact across sectors, and
    ``vector`` the ground vector.  ``sector_of`` numbers each state's
    sector, as `lowest_by_sector` does; a sector's block is cut from
    ``h_m_used`` by its sector plan when it is needed, so only O(d)
    numbers are kept.
    """

    model: MatterModel
    h_m_used: Operator
    lowest: np.ndarray
    vector: np.ndarray
    sector_of: np.ndarray

    def __post_init__(self):
        check_unique_ground(self)

    @property
    def ground_gap(self) -> float:
        return float(self.lowest[1] - self.lowest[0])

    def ground_energy(self) -> float:
        return float(self.lowest[0])

    def ground_state_vector(self) -> np.ndarray:
        return self.vector

    def gram(self, cols: np.ndarray) -> np.ndarray:
        """M = C^dag Q (H - E_0)^-1 Q C for the columns of ``cols``, summed
        over the sectors the columns touch, with one solve of
        (H_k - E_0) X_k = C_k per touched sector, in ascending order of
        (size, sector).  In the ground sector the columns are projected by
        Q, and the sector is skipped where that leaves them zero.  Each
        block is cut from the pattern's `_SectorPlan`.  A sector of at most
        DENSE_MAX_DIM states is cut dense (`_dense_block`) and solved by
        `_positive_solve`, the ground sector's block being
        H_k - E_0 + |0><0|, which equals H_k - E_0 on Q space, so every
        block is positive definite.  A larger sector is solved on its band
        (`_band_gram`).  A block that is not positive definite raises
        NumericError."""
        mat, cols = scipy.sparse.csr_matrix(self.h_m_used.matrix), np.asarray(cols, dtype=complex)
        dtype, e0, k = _block_dtype(mat), self.lowest[0], cols.shape[1]
        plan, _, nonzero_cols, data = _plan_of(mat)
        sizes, order, first, _ = plan.partition
        # the ground vector is zero outside its sector
        ground = self.sector_of[np.argmax(np.abs(self.vector))]
        touched = np.unique(self.sector_of[cols.any(axis=1)])
        m = np.zeros((k, k), dtype=complex)
        for b in touched[np.argsort(sizes[touched], kind="stable")]:
            states = order[first[b]:first[b] + sizes[b]]
            c, g = cols[states], None
            if b == ground:
                g = self.vector[states]
                c -= np.outer(g, g.conj() @ c)
                if not c.any():
                    continue
            if sizes[b] > DENSE_MAX_DIM:
                block, layout = _plan_block(plan, b, nonzero_cols, data, dtype)
                m += _band_gram(block, layout, e0, c, g, self.ground_gap)
                continue
            a = _dense_block(plan, b, nonzero_cols, data, dtype)
            a[np.diag_indices(sizes[b])] -= e0
            if g is not None:
                g = g if dtype is complex else g.real  # real up to the fixed sign
                a += np.outer(g, g.conj())
            m += c.conj().T @ _positive_solve(a, c)
        return m


def _band_gram(block, layout, e0: float, c: np.ndarray, g: np.ndarray | None,
               gap: float) -> np.ndarray:
    """c^dag (H_s - E_0)^-1 c for the complex columns c of the CSR sector
    block H_s, whose band ``layout`` its `_SectorPlan` keeps, by one banded
    Cholesky factorisation (`_band_cholesky`); a real block takes the real
    and imaginary parts of c as one right-hand side (`_split_solve`).
    Outside the ground sector (``g`` None) H_s - E_0 is positive definite,
    since the ground ``gap`` exceeds DEGENERACY_ATOL, and it is factored as
    it is.  The ground sector, with its ground vector ``g`` and Q c for c,
    is factored just below E_0 and solved by `_refined`.  A factorisation
    that fails raises NumericError."""
    real = not np.iscomplexobj(block.data)
    delta = 0.0 if g is None else min(1e-9 * max(1.0, abs(e0)), 1e-2 * gap)
    factored = _band_cholesky(block, e0 - delta, layout)
    if factored is None:
        raise NumericError("a resolvent block is not positive definite (LAPACK pbtrf)")
    perm, solve = factored
    if perm is not None:  # c^dag x is the same in the band's order
        c, g = c[perm], None if g is None else g[perm]
    if g is not None:
        solve = _refined(solve, g.real if real else g, delta, gap)  # g real up to its sign
    return c.conj().T @ _split_solve(solve, c, real)


def _refined(solve: Callable, g: np.ndarray, delta: float, gap: float) -> Callable:
    """The solve x = Q (H_s - E_0)^-1 b for b on Q space, Q = 1 - g g^dag,
    from the ``solve`` of H_s - E_0 + delta I, with 0 < delta <= gap / 100:
    iterative refinement x <- Q (H_s - E_0 + delta I)^-1 (b + delta x) from
    x = 0, until an update is below 1e-15 of |x|.  Its fixed point is the
    solution, and on Q space each step contracts the error by
    rate = delta / (gap + delta) <= 1/101.  The bound is twice the steps
    that take rate^n below 1e-15: the first half brings the iterate there,
    and the second lets the rounding of each solve, which the same rate
    damps, settle.  A refinement that does not converge within it raises
    NumericError; a delta that did not shrink with the gap would not
    converge once the gap nears it."""
    steps = 2 * math.ceil(math.log(1e-15) / math.log(delta / (gap + delta)))

    def refined(b):
        x = 0.0
        for _ in range(steps):
            new = solve(b + delta * x)
            new -= np.outer(g, g.conj() @ new)
            if np.linalg.norm(new - x) <= 1e-15 * np.linalg.norm(new):
                return new
            x = new
        raise NumericError(f"the ground-sector resolvent did not converge in {steps} "
                           "refinement steps")
    return refined


def _block_dtype(mat):
    """float for a CSR matrix whose entries are all real, else complex."""
    return complex if mat.data.imag.any() else float


def _split_solve(solve: Callable, c: np.ndarray, real: bool) -> np.ndarray:
    """solve(c) for the complex columns c; where ``real``, ``solve`` is a
    real solve, which takes the real and the imaginary parts of c as one
    real right-hand side, so no complex copy of its matrix is made."""
    if not real:
        return solve(c)
    k = c.shape[-1]
    x = solve(np.concatenate([c.real, c.imag], axis=-1))
    return x[:, :k] + 1j * x[:, k:]


def _positive_solve(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """a^-1 c for the Hermitian positive definite ``a`` and complex
    columns c, by Cholesky (LAPACK `dposv`/`zposv`, which may overwrite
    ``a``), a real ``a`` by `_split_solve`.  An ``a`` that is not positive
    definite raises NumericError."""
    posv = zposv if np.iscomplexobj(a) else dposv

    def solve(rhs):
        _, x, info = posv(a, rhs, lower=True, overwrite_a=True, overwrite_b=posv is dposv)
        if info != 0:
            raise NumericError(f"a resolvent block is not positive definite (LAPACK info {info})")
        return x
    return _split_solve(solve, c, posv is dposv)


def _above(block: np.ndarray, t: float) -> bool:
    """Whether every eigenvalue of the Hermitian ``block`` lies above t:
    whether block - t I has a Cholesky factorisation, which by Sylvester's
    law of inertia holds exactly when it is positive definite (spectrum
    slicing, Grimes, Lewis & Simon, SIAM J. Matrix Anal. Appl. 15, 228,
    1994).  LAPACK `dpotrf`/`zpotrf` factors a shifted copy in place, in
    the column order and lower triangle `np.linalg.cholesky` uses, and
    its ``info`` is 0 exactly when the factorisation succeeds."""
    shifted = np.array(block, order="F")
    diag = np.arange(len(block))
    shifted[diag, diag] -= t
    potrf = zpotrf if np.iscomplexobj(block) else dpotrf
    return potrf(shifted, lower=True, clean=False, overwrite_a=True)[1] == 0


def _lowest_pairs(block: np.ndarray, m: int, vectors: bool):
    """The m lowest eigenvalues of the Hermitian ``block``, ascending, and
    with ``vectors`` their eigenvectors, as (values, vectors): LAPACK's
    MRRR driver (`dsyevr`/`zheevr`; Dhillon & Parlett, Linear Algebra
    Appl. 387, 1, 2004) on the index range 0 to m - 1, which forms no
    other eigenvector."""
    return scipy.linalg.eigh(block, subset_by_index=[0, m - 1], driver="evr",
                             eigvals_only=not vectors, check_finite=False)


def _partition(sector_of: np.ndarray):
    """(sizes, order, first, place) of the sectors numbered by ``sector_of``:
    each sector's size, the states sector by sector and ascending within
    one, where each sector starts in ``order``, and each state's index
    within its sector."""
    sizes = np.bincount(sector_of)
    order = np.argsort(sector_of, kind="stable")
    first = np.cumsum(sizes) - sizes
    place = np.empty(len(order), dtype=np.intp)
    place[order] = np.arange(len(order)) - np.repeat(first, sizes)
    return sizes, order, first, place


def _ranges(start: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges start[i], ..., start[i] + counts[i] - 1, one after another."""
    return np.arange(counts.sum()) + np.repeat(start - (np.cumsum(counts) - counts), counts)


def _hooking_rounds(rows: np.ndarray, cols: np.ndarray, dim: int) -> np.ndarray:
    """The lowest state of each state's sector for the nonzero entries
    (rows, cols) of a Hermitian matrix on ``dim`` states: the connected
    component of the graph with an edge from each row index to its column
    index, found by growing a spanning forest.

    The forest grows by hooking, as in the connected-components algorithm
    of Shiloach and Vishkin.  Each tree keeps its lowest state as root.  In
    each round every root with an edge to a tree of a lower root hooks
    under the lowest such root; pointer jumping then carries every state to
    its new root.  Rounds repeat until no edge joins two trees: two on the
    README oracle Hamiltonian.
    """
    root = np.arange(dim)
    while True:
        hook = np.flatnonzero(root[cols] < root[rows])
        if not hook.size:
            return root
        # per root a, the lowest root b it meets
        up = np.arange(dim)
        np.minimum.at(up, root[rows[hook]], root[cols[hook]])
        while not np.array_equal(up[up], up):
            up = up[up]
        root = up[root]


def _gershgorin_floor(mat) -> float:
    """A Gershgorin lower bound on the spectrum of ``mat``, minus 1."""
    diag = mat.diagonal().real
    return float(np.min(2.0 * diag - np.asarray(abs(mat).sum(axis=1)).ravel())) - 1.0


def _level_order(indptr: np.ndarray, indices: np.ndarray, dim: int) -> np.ndarray:
    """A Cuthill-McKee order of the graph with an edge from each row of a
    CSR pattern to each of its column indices, as the states in their new
    order.

    Breadth-first search by whole level sets: each component starts at its
    unvisited state of least degree (stored entries in its row, the lowest
    index among equals), and each level is the unvisited neighbours of the
    last, sorted by the position of their first neighbour there, then by
    degree, then by index, as `scipy.sparse.csgraph.reverse_cuthill_mckee`
    orders them before it reverses its order."""
    degree = np.diff(indptr)
    rank = np.full(dim, -1)
    order = np.empty(dim, dtype=np.intp)
    done = 0
    while done < dim:
        unvisited = np.flatnonzero(rank < 0)
        level = unvisited[[np.argmin(degree[unvisited])]]
        while level.size:
            rank[level] = done + np.arange(level.size)
            order[done:done + level.size] = level
            done += level.size
            start = indptr[level]
            counts = indptr[level + 1] - start
            child, parent = indices[_ranges(start, counts)], np.repeat(rank[level], counts)
            new = rank[child] < 0
            # the level is in rank order, so a child's first entry holds its first parent
            child, first = np.unique(child[new], return_index=True)
            parent = parent[new][first]
            level = child[np.lexsort((child, degree[child], parent))]
    return order


def _band_layout(indptr: np.ndarray, indices: np.ndarray, dim: int, orders=()):
    """(perm, width, upper, at) for a CSR pattern: the order of the band's
    states, or None for their own order, its half-bandwidth, and for the
    stored entries ``upper`` on or above the diagonal in that order, their
    flat positions ``at`` in the band of `_band`.  The band takes the
    narrowest of the natural order, a Cuthill-McKee order (`_level_order`)
    and the ``orders`` given, the first of them among equals: a ring's
    natural order wraps around and leaves the full width, its level order
    a width of 2, and an oracle block is narrowest photon-major."""
    rows, cols = np.repeat(np.arange(dim), np.diff(indptr)), indices
    perm, width = None, np.max(np.abs(rows - cols), initial=0)
    place = np.empty(dim, dtype=np.intp)
    for order in (_level_order(indptr, cols, dim), *orders):
        place[order] = np.arange(dim)
        narrower = np.max(np.abs(place[rows] - place[cols]), initial=0)
        if narrower < width:
            perm, width = order, narrower
    if perm is not None:
        place[perm] = np.arange(dim)
        rows, cols = place[rows], place[cols]
    upper = np.flatnonzero(rows <= cols)
    offset = cols[upper] - rows[upper]
    width = int(np.max(offset, initial=0))
    return perm, width, upper, cols[upper] * (width + 1) + width - offset


def _band(mat, layout=None) -> tuple[np.ndarray | None, np.ndarray]:
    """(perm, band): the canonical CSR matrix ``mat`` in LAPACK's upper band
    storage, on which OpenBLAS solves faster than on the lower one, as a
    (width + 1, dim) array in Fortran order whose last row is the diagonal,
    with its states in the order ``perm`` of ``layout``, or None for their
    own order.  ``layout`` is `_band_layout`'s for the pattern of ``mat``,
    which a `_SectorPlan` keeps; without one it is found here."""
    dim = mat.shape[0]
    perm, width, upper, at = layout or _band_layout(mat.indptr, mat.indices, dim)
    band = np.zeros((width + 1) * dim, dtype=np.result_type(mat.dtype, float))
    band[at] = mat.data[upper]
    return perm, band.reshape(width + 1, dim, order="F")


def _band_cholesky(mat, sigma: float, layout=None
                   ) -> tuple[np.ndarray | None, Callable] | None:
    """(perm, solve) for x = (mat - sigma I)^-1 b, with x and b in the order
    ``perm`` of the band of `_band`, from LAPACK's banded Cholesky
    factorisation pbtrf and its solve pbtrs (the complex Hermitian
    routines for a complex matrix), or None where pbtrf fails, which
    happens exactly when mat - sigma I is not positive definite.  Fill in
    the factor below the smallest normal float is set to zero: a ring's
    factor decays along the band into subnormal numbers, which slow every
    solve down."""
    perm, band = _band(mat, layout)
    band[-1] -= sigma
    trf, trs = (zpbtrf, zpbtrs) if np.iscomplexobj(band) else (dpbtrf, dpbtrs)
    factor, info = trf(band, overwrite_ab=1)
    if info:
        return None
    for part in (factor.real, factor.imag) if np.iscomplexobj(factor) else (factor,):
        tiny = np.finfo(part.dtype).tiny
        part[(part > -tiny) & (part < tiny)] = 0.0
    return perm, lambda rhs: trs(factor, rhs)[0]


def _factor_below(mat, floor: float, layout=None
                  ) -> tuple[float, np.ndarray | None, Callable]:
    """(sigma, perm, solve) of `_band_cholesky`, at sigma = floor - margin,
    the margin FLOOR_MARGIN times max(1, |floor|), where a floor is given.

    sigma is meant to lie below the whole spectrum, so the matrix is
    positive definite, and its Cholesky factorisation succeeds exactly
    then: that success certifies the floor.  Without a floor, or where its
    factorisation fails, so that it is no lower bound after all, the
    matrix is factored at the Gershgorin shift, where it cannot fail for a
    Hermitian matrix."""
    if floor > -np.inf:
        sigma = floor - FLOOR_MARGIN * max(1.0, abs(floor))
        factored = _band_cholesky(mat, sigma, layout)
        if factored is not None:
            return sigma, *factored
    shift = _gershgorin_floor(mat)
    factored = _band_cholesky(mat, shift, layout)
    if factored is None:
        raise NumericError("the matrix is not positive definite above its Gershgorin shift, "
                           "so it is not Hermitian")
    return shift, *factored


def shift_invert_lowest(mat, k: int, floor: float = -np.inf, layout=None
                        ) -> tuple[np.ndarray, np.ndarray]:
    """k lowest eigenpairs of a sparse Hermitian matrix, ascending, by
    shift-invert Lanczos (Ericsson & Ruhe, Math. Comp. 35, 1251, 1980).

    This is the package's one sparse eigensolver.  A sector too large for
    a dense solve that no Cholesky test rules out comes here, from
    `lowest_by_sector`, with the band ``layout`` its plan keeps: an oracle
    block above `oracle.DENSE_LIMIT` states and a matter sector above
    DENSE_MAX_DIM states, with ``floor`` the oracle's certified
    `FullSystem.floor`, none, or a level of another sector that a test
    certifies.  `SectorResolvent.gram` factors such a sector again, on the
    same band, at or just below E_0 for the reduced resolvent.

    H - sigma I is factored once by a banded Cholesky factorisation
    (`_band_cholesky`), with sigma just below ``floor``, or at the
    Gershgorin shift, a Gershgorin lower bound on the spectrum minus 1,
    where no floor is given or the factorisation at the floor fails, which
    makes it no lower bound (`_factor_below`).  ARPACK then runs on
    (H - sigma I)^-1, in the order of the band's states, whose largest
    eigenvalues belong to the lowest of H, so an eigenvalue that is exactly
    zero, as the bare two-level ground energy is, is found like any other.
    A real matrix runs through ARPACK's real symmetric routine.  The start
    vector is a fixed Gaussian draw seeded with LANCZOS_SEED, put in the
    band's order with the states: it has weight in every symmetry sector,
    and unlike the uniform vector it is no eigenvector of a matrix whose
    rows share one sum.  Convergence goes with the ratios
    (E_0 - sigma) / (E_j - sigma), so a sigma near E_0 needs few solves,
    and the Gershgorin shift can lie far below E_0.  ARPACK's failures
    become NumericError.
    """
    mat = scipy.sparse.csr_matrix(mat)
    if not mat.has_canonical_format:
        mat, layout = mat.copy(), None
        mat.sum_duplicates()
    dim = mat.shape[0]
    sigma, perm, solve = _factor_below(mat, floor, layout)
    v0 = np.random.default_rng(LANCZOS_SEED).standard_normal(dim)
    try:
        vals, vecs = eigsh(mat, k=k, sigma=sigma, which="LM",
                           OPinv=LinearOperator(mat.shape, matvec=solve, dtype=mat.dtype),
                           v0=v0 if perm is None else v0[perm])
    except ArpackNoConvergence as exc:
        raise NumericError(f"shift-invert Lanczos failed to converge: {exc}") from exc
    except ArpackError as exc:
        raise NumericError(f"shift-invert Lanczos failed: {exc}") from exc
    if perm is not None:
        vecs[perm] = vecs.copy()
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def _recall(cache: dict, bound: int, key, make: Callable):
    """cache[key], from make() where it is missing; the cache keeps the
    ``bound`` entries used last, the one used last at its end."""
    value = cache.pop(key, None)
    if value is None:
        value = make()
    cache[key] = value
    while len(cache) > bound:
        del cache[next(iter(cache))]
    return value


@dataclass
class _SectorPlan:
    """What `lowest_by_sector` derives from a pattern of nonzero entries:
    ``indptr`` of the nonzero entries row by row, the sectors, numbered by
    ``sector_of`` (one sector in all when an entry's mirror is missing),
    their `_partition`, and per sector ``blocks``: keyed ("dense", b),
    what `_dense_block` scatters sector b from, and keyed b, what
    `_plan_block` keeps of a sector solved sparse."""

    indptr: np.ndarray
    sector_of: np.ndarray
    partition: tuple
    blocks: dict = field(default_factory=dict)


def _sector_plan(rows: np.ndarray, cols: np.ndarray, dim: int) -> _SectorPlan:
    """The plan of the nonzero entries (rows, cols) on ``dim`` states; its
    blocks come later."""
    sector_of = np.unique(_hooking_rounds(rows, cols, dim), return_inverse=True)[1]
    if np.any(sector_of[rows] != sector_of[cols]):
        sector_of = np.zeros(dim, dtype=np.intp)
    return _SectorPlan(indptr=np.r_[0, np.cumsum(np.bincount(rows, minlength=dim))],
                       sector_of=sector_of, partition=_partition(sector_of))


def _plan_entries(plan: _SectorPlan, b: int, cols: np.ndarray):
    """(states, at, counts, col) of sector ``b``: its states, the positions
    of its entries among the nonzero ones (whose columns are ``cols``),
    row by row, each row's count of them, and their columns in the
    sector."""
    sizes, order, first, place = plan.partition
    states = order[first[b]:first[b] + sizes[b]]
    start = plan.indptr[states]
    counts = plan.indptr[states + 1] - start
    at = _ranges(start, counts)
    return states, at, counts, place[cols[at]]


def _plan_block(plan: _SectorPlan, b: int, cols: np.ndarray, data: np.ndarray, dtype,
                shape=None):
    """(block, layout): sector ``b`` as a CSR matrix of ``dtype``, from the
    values ``data`` of the nonzero entries (whose columns are ``cols``), and
    its band layout.  ``plan`` keeps, made on first use, the positions of
    the sector's entries among the nonzero ones, row by row, their columns
    in the sector, its CSR ``indptr`` and its band layout, which tries the
    photon-major order too where ``shape``, the tensor shape (matter,
    photon slots...) of the states, has photon slots."""
    if b not in plan.blocks:
        states, at, counts, col = _plan_entries(plan, b, cols)
        indptr = np.r_[0, np.cumsum(counts)]
        orders = ()
        if shape is not None and len(shape) > 1:
            photons = math.prod(shape[1:])
            orders = (np.argsort(states % photons * shape[0] + states // photons, kind="stable"),)
        perm, width, upper, band_at = _band_layout(indptr, col, len(states), orders)
        # kept as 32-bit indices, which halve a large plan
        plan.blocks[b] = (_index32(at), _index32(col), indptr,
                          (perm, width, _index32(upper), _index32(band_at)))
    at, col, indptr, layout = plan.blocks[b]
    size = len(indptr) - 1
    return scipy.sparse.csr_matrix((data[at] if dtype is complex else data[at].real, col, indptr),
                                   shape=(size, size)), layout


def _dense_block(plan: _SectorPlan, b: int, cols: np.ndarray, data: np.ndarray,
                 dtype) -> np.ndarray:
    """The dense block of sector ``b`` as ``dtype``, from the values
    ``data`` of the nonzero entries (whose columns are ``cols``),
    symmetrised as `operators.eigh` does: entry (r, c) puts half of h_rc at
    (r, c), and half of its conjugate is added at (c, r).  ``plan`` keeps the
    positions of the sector's entries and their flat offsets (r, c) and
    (c, r), made on first use, so a later block of the pattern is one
    `np.zeros` and two scatters."""
    key = ("dense", b)
    if key not in plan.blocks:
        states, at, counts, col = _plan_entries(plan, b, cols)
        size = len(states)
        row = np.repeat(np.arange(size), counts)
        plan.blocks[key] = tuple(_index32(x) for x in (at, row * size + col, col * size + row))
    at, flat, mirror = plan.blocks[key]
    size = plan.partition[0][b]
    block = np.zeros(size * size, dtype=dtype)
    half = 0.5 * (data[at] if dtype is complex else data[at].real)
    block[flat] = half
    block[mirror] += half.conj()
    return block.reshape(size, size)


def _index32(index: np.ndarray) -> np.ndarray:
    """``index`` as 32-bit integers where its values fit."""
    return index.astype(np.int32) if np.max(index, initial=0) < 2 ** 31 else index


def _pattern_key(mat, keep: np.ndarray | None, shape) -> bytes:
    """A digest of the pattern of the nonzero entries of the CSR matrix
    ``mat``: its index arrays, the stored entries ``keep`` that are nonzero
    (all where None), and ``shape``."""
    return _digest(mat.indptr, mat.indices, *(() if keep is None else (keep,)),
                   (mat.shape, mat.indptr.dtype.str, mat.indices.dtype.str, shape))


def _plan_of(mat, shape=None):
    """(plan, rows, cols, data): the `_SectorPlan` of the pattern of the
    nonzero entries of the CSR matrix ``mat`` and of ``shape``, recalled
    from _PLANS or made, and the rows, columns and values of those
    entries."""
    dim = mat.shape[0]
    keep = mat.data != 0
    keep = None if keep.all() else keep
    rows = np.repeat(np.arange(dim), np.diff(mat.indptr))
    rows, cols, data = (rows, mat.indices, mat.data) if keep is None else \
        (rows[keep], mat.indices[keep], mat.data[keep])
    plan = _recall(_PLANS, SECTOR_PLANS, _pattern_key(mat, keep, shape),
                   lambda: _sector_plan(rows, cols, dim))
    return plan, rows, cols, data


def lowest_by_sector(mat, k: int, dense_limit: int, floor: float = -np.inf,
                     n_vectors: int | None = None, shape=None
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The k lowest eigenvalues of a Hermitian matrix, ascending, solved
    sector by sector, the eigenvectors of the first ``n_vectors`` of them
    (all k by default), and each state's sector.

    One pass over the nonzero entries (`_hooking_rounds`) numbers the
    sectors, the connected components of the nonzero entries, by their
    lowest states.  A sector is solved in complex arithmetic exactly when
    one of its entries has a nonzero imaginary part, and in real
    arithmetic otherwise; a caller that knows a phase change making its
    matrix real, as `oracle.lowest_eigenpairs` does, applies it first.  An
    entry whose mirror is not stored joins two sectors in one direction
    only, and then the whole matrix is one sector.

    A one-state sector gives its eigenpair off the diagonal.  Every other
    sector is cut alone, dense up to ``dense_limit`` states
    (`_dense_block`) and to CSR on its band above (`_plan_block`), and
    sliced (Grimes, Lewis & Simon, SIAM J. Matrix Anal. Appl. 15, 228,
    1994):
      * they are visited once each by their lowest diagonal entry,
        ascending, by a stable sort, so a tie keeps the lower sector first;
      * once k values are known, with t the k-th lowest of them, a
        sector is skipped when H_s - t I has a Cholesky factorisation
        (LAPACK `dpotrf`/`zpotrf` by `_above`, or banded `dpbtrf`/`zpbtrf`
        by `_band_cholesky`), since then every eigenvalue lies above t;
      * an eigenvalue equal to t leaves H_s - t I singular, so in exact
        arithmetic such a sector fails the test and is solved; an
        eigenvalue within rounding of t lets rounding decide, and a
        skipped tie leaves the k-th value with the sector visited first;
      * a dense sector that is not skipped gives only its min(k, size)
        lowest values (`_lowest_pairs`, LAPACK's MRRR driver
        `dsyevr`/`zheevr`), with their eigenvectors while fewer than
        ``n_vectors`` sectors have eigenvectors and without them after;
      * a large sector that fails is tested at the lower known values
        from the top down: where H_s - low[j] I factors it holds at most
        k - j - 1 of the k lowest, which `shift_invert_lowest` finds from
        max(``floor``, low[j]), and where none does, k from ``floor``.
    The k lowest of all the values found are picked, equal eigenvalues
    going to the lower sector.  `_lowest_pairs` then solves the sectors
    that hold one of the eigenvectors asked for and have none yet, and a
    pick in a sector with eigenvectors takes its value from there.
    Eigenvectors are embedded in the full space and phase-fixed as
    `operators.eigh` does, so each one lies in one sector.  These LAPACK
    calls run in scipy's OpenBLAS, which `cli` pins to one thread.

    All of that but the values depends on the pattern of the nonzero
    entries alone, which a sweep repeats, so it is kept, per pattern and
    ``shape``, as a `_SectorPlan` for the last SECTOR_PLANS patterns: a
    repeated pattern scatters each dense sector into its block
    and each large sector into its band, with the same bits as a new
    plan.  ``shape``, the tensor shape (matter, photon slots...) of an
    oracle Hamiltonian's states, adds the photon-major order to the band
    orders a large sector tries.
    """
    mat = scipy.sparse.csr_matrix(mat)
    dim = mat.shape[0]
    plan, rows, cols, data = _plan_of(mat, shape)
    sector_of = plan.sector_of
    sizes, order, first, _ = plan.partition
    is_complex = np.zeros(len(sizes), dtype=bool)
    is_complex[sector_of[rows[data.imag != 0]]] = True

    def dtype(b):
        return complex if is_complex[b] else float

    def states_of(b):
        return order[first[b]:first[b] + sizes[b]]

    values, sectors, levels, solved = [], [], [], {}

    def add(ids, vals):
        values.append(vals.ravel())
        sectors.append(np.repeat(ids, vals.shape[1]))
        levels.append(np.tile(np.arange(vals.shape[1]), len(ids)))

    diagonal = mat.diagonal().real
    single = np.flatnonzero(sizes == 1)
    add(single, diagonal[order[first[single]]][:, None])
    # every other sector, cut one at a time, by its lowest diagonal entry
    multi = np.flatnonzero(sizes > 1)
    bottom = np.minimum.reduceat(diagonal[order], first)[multi]
    low = np.sort(np.concatenate(values))[:k]
    n_vectors = k if n_vectors is None else n_vectors
    for b in multi[np.argsort(bottom, kind="stable")]:
        if sizes[b] > dense_limit and sizes[b] > k + 1:
            block, layout = _plan_block(plan, b, cols, data, dtype(b), shape)
            # above low[j], H_s holds at most k - j - 1 of the k lowest
            j = next((j for j in reversed(range(len(low)))
                      if _band_cholesky(block, low[j], layout) is not None), -1)
            if j == k - 1:
                continue
            solved[b] = shift_invert_lowest(block, k - j - 1, floor if j < 0 else
                                            max(floor, low[j]), layout=layout)
            vals = solved[b][0]
        else:
            block = _dense_block(plan, b, cols, data, dtype(b))
            if len(low) == k and _above(block, low[-1]):
                continue
            if len(solved) < n_vectors:
                solved[b] = _lowest_pairs(block, min(k, sizes[b]), vectors=True)
                vals = solved[b][0]
            else:
                vals = _lowest_pairs(block, min(k, sizes[b]), vectors=False)
        low = np.sort(np.concatenate([low, vals]))[:k]
        add([b], vals[None])
    values, sectors, levels = (np.concatenate(x) for x in (values, sectors, levels))
    pick = np.lexsort((levels, sectors, values))[:k]
    vectors = np.zeros((dim, len(pick)), dtype=complex)
    for col, (b, j) in enumerate(zip(sectors[pick], levels[pick])):
        states = states_of(b)
        if sizes[b] == 1:
            vectors[states, col] = 1.0
        elif col < n_vectors or b in solved:
            if b not in solved:
                solved[b] = _lowest_pairs(_dense_block(plan, b, cols, data, dtype(b)),
                                          min(k, sizes[b]), vectors=True)
            values[pick[col]] = solved[b][0][j]
            vectors[states, col] = solved[b][1][:, j]
    # a vector solve may move a pick from its earlier value by rounding
    ascending = np.argsort(values[pick], kind="stable")
    return values[pick][ascending], _fix_phases(vectors[:, ascending[:n_vectors]]), sector_of


def _solve_ground(model: MatterModel, h: Operator):
    """The ground-resolvent backend of `ground_resolvent`, solved afresh."""
    if model.dim <= DENSE_MAX_DIM:
        return matter_spectrum(model, h)
    lowest, vectors, sector_of = lowest_by_sector(h.matrix, 2, DENSE_MAX_DIM, n_vectors=1)
    return SectorResolvent(model=model, h_m_used=h, sector_of=sector_of, lowest=lowest,
                           vector=vectors[:, 0])


def ground_resolvent(model: MatterModel, h_m: Operator | None = None):
    """The ground-resolvent backend for this Hamiltonian: the full
    `matter_spectrum` up to DENSE_MAX_DIM states, and above the two lowest
    eigenpairs of `lowest_by_sector` in a `SectorResolvent`, which solves
    its sectors of at most DENSE_MAX_DIM states dense and the larger ones
    on their band.

    The backends of the last RESOLVENTS Hamiltonians are kept by
    `Operator.digest`, without their model, and a Hamiltonian stored as
    one of them gets that backend rebound to its model: the
    eigen-data depend on the stored form alone, so that is what a fresh
    solve gives, and the criterion, the invariant check and the oracle of
    one process share one solve per distinct Hamiltonian."""
    h = model.h_m if h_m is None else h_m
    ground = _recall(_RESOLVENTS, RESOLVENTS, ("resolvent", h.digest),
                     lambda: replace(_solve_ground(model, h), model=None, h_m_used=None))
    return replace(ground, model=model, h_m_used=h)


def check_unique_ground(ground):
    gap = ground.ground_gap
    if gap <= DEGENERACY_ATOL:
        raise DegenerateGroundStateError(
            f"ground state is degenerate (eps_1 - eps_0 = {gap:.3g} <= {DEGENERACY_ATOL}); "
            "ground-state responses need a unique ground state")


def require_full_spectrum(ground, what: str):
    if not isinstance(ground, MatterSpectrum):
        raise ArgumentError(f"{what} needs a full MatterSpectrum, not a {type(ground).__name__}")


# ---------------------------------------------------------------------------
# builders


def _banded(dim: int, diagonals: dict):
    """Complex matrix with the given {offset: values} diagonals: CSR above
    DENSE_MAX_DIM, where Operator stores it sparse, and built dense below,
    where scipy's fixed cost per call would dominate."""
    if dim > DENSE_MAX_DIM:
        return scipy.sparse.diags([np.asarray(v, dtype=complex) for v in diagonals.values()],
                                  list(diagonals), shape=(dim, dim), format="csr")
    out = np.zeros((dim, dim), dtype=complex)
    for offset, values in diagonals.items():
        out += np.diag(np.asarray(values, dtype=complex), offset)
    return out


def _axis_kron(factors: dict, levels: int, axes: int):
    """Kronecker product over ``axes`` oscillator axes of factors[i] on axis
    i and the levels x levels identity elsewhere: CSR above DENSE_MAX_DIM,
    where Operator stores it sparse, and dense below.

    The sparse product is one COO computation: each entry's row, column
    and value extend those of the axes before it, axis 0 the most
    significant, so each value is multiplied in the order of chained
    `scipy.sparse.kron` calls and the matrix is bit for bit theirs.
    """
    mats = [factors.get(i, np.eye(levels, dtype=complex)) for i in range(axes)]
    dim = levels ** axes
    if dim <= DENSE_MAX_DIM:
        return functools.reduce(np.kron, mats)
    row, col, val = np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp), np.ones(1, complex)
    for m in mats:
        r, c = np.nonzero(m)
        row = (row[:, None] * levels + r).ravel()
        col = (col[:, None] * levels + c).ravel()
        val = (val[:, None] * m[r, c]).ravel()
    return scipy.sparse.csr_matrix((val, (row, col)), shape=(dim, dim))


@functools.lru_cache(maxsize=BUILDS)
def _ensemble_operators(count: int, gap: float):
    """(h_m, S_x, zero) in the S = N/2 Dicke sector, m ascending: S_z is
    diagonal and S_x tridiagonal, each checked Hermitian here once.  One
    set serves every dipole moment and volume, so a sweep of either shares
    one h_m, whose digest is taken once, and one zero dipole component."""
    s = count / 2.0
    m = np.arange(count + 1) - s
    half_sp = 0.5 * np.sqrt(s * (s + 1) - m[:-1] * (m[:-1] + 1))
    sx = Operator(_banded(count + 1, {-1: half_sp, 1: half_sp}), hermitian=True)
    return (Operator(_banded(count + 1, {0: gap * (m + s)}), hermitian=True), sx,
            zero(count + 1))


def build_two_level_ensemble(count: int, gap: float, dipole_moment,
                             volume: float) -> MatterModel:
    """N identical two-level dipoles in the symmetric collective-spin sector.

    H_m = gap * (S_z + N/2); total dipole d = 2 * dipole_moment * S_x; the
    diamagnetic strength is the sum-rule value 2 N |d|^2 gap.
    """
    if count < 1:
        raise ArgumentError(f"ensemble size must be >= 1, got {count}")
    if count > MAX_ENSEMBLE_SIZE:
        raise ResourceLimitError(f"ensemble size {count} exceeds {MAX_ENSEMBLE_SIZE}")
    if gap <= 0:
        raise ArgumentError(f"two-level gap must be positive, got {gap}")
    d = np.asarray(dipole_moment, dtype=float)
    if d.shape != (3,):
        raise ArgumentError("dipole_moment must be a 3-vector")
    h_m, sx, none = _ensemble_operators(count, gap)
    dip = tuple(sx.real_multiple(2.0 * d[i]) if d[i] else none for i in range(3))
    dnorm = float(np.linalg.norm(d))
    axis = d / dnorm if dnorm > 0 else X_AXIS
    params = ModelParams(n_charges=count, mass=1.0, charge=1.0, volume=float(volume),
                         e2n_over_m=2.0 * count * dnorm ** 2 * gap,
                         detail={"gap": gap, "dipole_moment": d.tolist()})
    return MatterModel(kind=ModelKind.TWO_LEVEL_ENSEMBLE, h_m=h_m, dipole_ops=dip,
                       params=params, axes=(axis,),
                       self_energy_in_electric_gauges=False)


def _single_axis_oscillator(levels: int, mass: float, omega: float):
    """(x, p, h_harmonic) on a truncated oscillator basis.

    The harmonic part is the exact diagonal omega (n + 1/2): assembling it
    from truncated x, p matrices would corrupt the top level (the a a^dag
    truncation defect) and poison commutator-derived currents.
    """
    a, adag = boson_ladder(levels)
    x = (a.entries + adag.entries) / np.sqrt(2.0 * mass * omega)
    p = 1j * np.sqrt(mass * omega / 2.0) * (adag.entries - a.entries)
    h = omega * np.diag(np.arange(levels) + 0.5).astype(complex)
    return x, p, h


@functools.lru_cache(maxsize=BUILDS)
def _dipole_operators(levels: int, mass: float, frequency: float, quartic: float, axes: int):
    """(h_m, positions, momenta, zero) of `build_anharmonic_dipole`, each
    checked Hermitian here once: none depends on the charge or the volume,
    so a sweep of either shares one h_m, whose digest is taken once, and
    one zero for the dipole components off the axes."""
    x1, p1, h1 = _single_axis_oscillator(levels, mass, frequency)
    x2 = x1 @ x1
    h_axis = h1 + quartic * (x2 @ x2)

    def embed(factors):
        return _axis_kron(factors, levels, axes)

    # the 1-axis model lies along x; (r.r)^2 = sum_i x_i^4 + 2 sum_{i<j}
    # x_i^2 x_j^2, each term one Kronecker product of single-axis matrices
    h = sum((embed({i: h_axis}) for i in range(1, axes)), embed({0: h_axis}))
    if axes == 3:
        for i, j in ((0, 1), (0, 2), (1, 2)):
            h = h + 2.0 * quartic * embed({i: x2, j: x2})
    return (Operator(h, hermitian=True),
            tuple(Operator(embed({i: x1}), hermitian=True) for i in range(axes)),
            tuple(Operator(embed({i: p1}), hermitian=True) for i in range(axes)),
            zero(levels ** axes))


def build_anharmonic_dipole(levels: int, mass: float, frequency: float,
                            quartic: float, charge: float, volume: float,
                            axes: int = 1) -> MatterModel:
    """Single charged particle, H_m = p^2/2m + m w^2 r^2 / 2 + kappa (r.r)^2.

    Represented on `levels` harmonic-oscillator states per Cartesian axis
    (1 axis along x, or 3 axes).  Truncation-converged surrogate whose
    canonical kinetic term keeps the momentum sum rule and gauge
    invariance accessible.
    """
    if levels < 4:
        raise ArgumentError(f"need at least 4 oscillator levels, got {levels}")
    if frequency <= 0 or mass <= 0:
        raise ArgumentError("mass and frequency must be positive")
    if quartic < 0:
        raise ArgumentError("quartic coefficient must be non-negative")
    if axes not in (1, 3):
        raise ArgumentError("axes must be 1 or 3")

    dim = levels ** axes
    if axes == 3 and dim > MAX_ANHARMONIC_DIM:
        raise ResourceLimitError(f"3-axis dimension {dim} exceeds {MAX_ANHARMONIC_DIM}")

    h_m, positions, mom, none = _dipole_operators(levels, mass, frequency, quartic, axes)
    dip = [positions[i].real_multiple(-charge) if i < axes else none for i in range(3)]
    params = ModelParams(n_charges=1, mass=mass, charge=charge, volume=float(volume),
                         e2n_over_m=charge ** 2 / mass,
                         detail={"levels": levels, "frequency": frequency,
                                 "quartic": quartic, "axes": axes})
    return MatterModel(kind=ModelKind.ANHARMONIC_DIPOLE, h_m=h_m,
                       dipole_ops=tuple(dip), params=params,
                       axes=(X_AXIS, Y_AXIS, Z_AXIS)[:axes],
                       momentum_ops=mom,
                       self_energy_in_electric_gauges=True)


def build_ring_lattice(sites: int, hopping: float, charge: float,
                       volume: float | None = None,
                       bond_scale: dict | None = None) -> MatterModel:
    """Single particle on an L-site tight-binding ring (lattice constant 1).

    ``bond_scale`` maps bond index -> multiplicative hopping factor and is
    used by the disorder-sensitivity checks; a clean ring omits it.
    The current direction is mapped onto the x axis, transverse to the
    conventional z-directed mode wavevector.
    """
    if sites < 4:
        raise ArgumentError(f"ring needs at least 4 sites, got {sites}")
    if sites > MAX_RING_SITES:
        raise ResourceLimitError(f"ring of {sites} sites exceeds {MAX_RING_SITES}")
    if hopping <= 0:
        raise ArgumentError("hopping must be positive")
    L = sites
    t = -hopping * np.array([bond_scale.get(j, 1.0) if bond_scale else 1.0 for j in range(L)])
    # nearest-neighbour hopping on bond (j, j + 1), the last bond closing the ring
    h = _banded(L, {1: t[:-1], -1: t[:-1], L - 1: t[-1:], 1 - L: t[-1:]})
    # dipole along the mapped axis from site positions relative to the
    # ring centroid; only used for LWL bookkeeping on the ring
    pos = np.arange(L, dtype=float)
    xrel = pos - pos.mean()
    dip_x = Operator(_banded(L, {0: -charge * xrel}), hermitian=True)
    m_eff = 1.0 / (2.0 * hopping)
    v = float(volume) if volume is not None else float(L)
    params = ModelParams(n_charges=1, mass=m_eff, charge=charge, volume=v,
                         e2n_over_m=charge ** 2 / m_eff,
                         detail={"sites": L, "hopping": hopping,
                                 "disordered": bool(bond_scale)})
    return MatterModel(kind=ModelKind.RING_LATTICE,
                       h_m=Operator(h, hermitian=True),
                       dipole_ops=(dip_x, zero(L), zero(L)),
                       params=params, axes=(X_AXIS,))


def ring_quasi_momentum(model: MatterModel, n: int) -> float:
    model._require_ring()
    L = model.dim
    return 2.0 * np.pi * n / L


# ---------------------------------------------------------------------------
# diagnostics


def ring_ground_state(model: MatterModel) -> np.ndarray:
    """The bare ring's ground vector, which the density check, the multipolar
    D and the wavevector-decoupling check read.  It comes from the dense
    spectrum: the site density of the shift-invert ground vector
    deviates from 1/L by 8.1e-13 at L = 1500 but by 7.9e-12 at 3000 and
    1.1e-11 at 4000, which fail a 1e-12 check.  Up to DENSE_MAX_DIM sites
    that spectrum is `ground_resolvent`'s; above, the vector alone is kept
    beside the resolvents, by digest of h_m, so a sweep diagonalises each
    distinct bare ring once."""
    model._require_ring()
    if model.dim <= DENSE_MAX_DIM:
        return ground_resolvent(model).ground_state_vector()

    def solve():
        vector = matter_spectrum(model).ground_state_vector().copy()  # not the whole spectrum
        vector.setflags(write=False)
        return vector
    return _recall(_RESOLVENTS, RESOLVENTS, ("dense ground", model.h_m.digest), solve)


def check_uniform_density(model: MatterModel) -> float:
    """max_j |<0|n_j|0> - N/L| for the ring's ground state.

    A clean ring's ground state is the k = 0 Bloch state, so its site
    density is uniform; a degenerate one (flux pi, say) has no unique
    density, and the dense spectrum refuses it.
    """
    dens = np.abs(ring_ground_state(model)) ** 2  # site densities for a single particle
    return float(np.max(np.abs(dens - model.params.n_charges / model.dim)))


def trk_sum(spectrum, axis: int, reference_level: int = 0) -> float:
    """sum_{n != n'} |<n|P_i|n'>|^2 / (eps_n - eps_n') for total momentum P.

    Converges to m N / 2 for models with a canonical kinetic term.  For the
    ground state (n' = 0) the sum is <0|P Q (H - E_0)^-1 Q P|0>, one
    resolvent column, so ``spectrum`` may be any backend of
    `ground_resolvent`; other reference levels need a full
    `MatterSpectrum`.
    """
    model = spectrum.model
    if not 0 <= reference_level < model.dim:
        raise ArgumentError(f"reference level {reference_level} is outside 0..{model.dim - 1}")
    if model.momentum_ops is None:
        raise UnsupportedError(f"{model.kind.value} has no canonical momentum representation")
    labels = ["xyz"[int(np.argmax(np.abs(ax)))] for ax in model.axes]
    lab = "xyz"[axis]
    if lab not in labels:
        raise ArgumentError(f"model has no {lab} axis")
    p_op = model.momentum_ops[labels.index(lab)].matrix
    if reference_level == 0:
        col = p_op @ spectrum.ground_state_vector()
        return float(spectrum.gram(col[:, None])[0, 0].real)
    require_full_spectrum(spectrum, "trk_sum above the ground level")
    u = spectrum.vectors
    # the one column <n|P_i|n'> of the momentum table the sum reads
    p = u.conj().T @ (p_op @ u[:, reference_level])
    # P has no matrix element between degenerate levels, so they are skipped
    de = spectrum.energies - spectrum.energies[reference_level]
    others = np.abs(de) > DEGENERACY_ATOL
    return float(np.sum(np.abs(p[others]) ** 2 / de[others]))
