"""Brute-force ground truth: full light-matter diagonalization.

The long-wavelength Hamiltonian is assembled exactly in the Bogoliubov
branch basis: the photon quadratic part (bare + diamagnetic) becomes
sum_tau nu_tau (c+ c + 1/2) at operator level, and the linear coupling
becomes  A_q [G_tau^dag c_tau + G_tau c_tau^dag]  with the exact branch
coupling

    G_tau = sum_sigma (w_{tau sigma} f_sigma - y_{tau sigma} f_sigma^dag),

which reduces to the usual h-weighted combination for Hermitian f or for
unsqueezed branches.  Branches that never couple are carried analytically
through their vacuum energy nu_tau / 2 and their virtual population.

The Hamiltonian is assembled in one pass of index arithmetic over the
tensor space (`_assemble`), and is the only full-space (sparse) matrix.
The photon observables act on the state in its tensor shape (matter,
slot 0, slot 1, ...) of `FullSystem.slot_dims()`, the polarisation on its
matter axis.  Completing the square in every retained branch bounds the
spectrum from below by the lowest eigenvalue of a matter-space matrix
(`_spectral_floor`), which `FullSystem.floor` keeps.

`lowest_eigenpairs` multiplies each Fock state |n> by i^n, which makes
the Hamiltonian of real matter exactly real (`_photon_phase`), splits it
into the blocks that do not couple to each other (the two sectors of the
Dicke Z2 parity, or single states where nothing couples them) and solves
each one with the routine that also solves the matter ground states,
`matter.lowest_by_sector`: in real arithmetic where every entry of the
block is real, a single state off the diagonal, a block of up to
DENSE_LIMIT states dense, and a larger one by the package's sparse
eigensolver, `matter.shift_invert_lowest`: shift-invert Lanczos on a
banded Cholesky factorisation of the block just below the floor, whose
success certifies that shift (where it fails, the block is factored at
its Gershgorin shift).  A block that a Cholesky test puts above the
levels found is skipped.  Each returned eigenvector lies in one block,
so the ground vector is a parity eigenstate, and the parity-odd
observables, the photon coherence <a> and the transverse field, read
exactly 0 in it, also inside the superradiant doublet, where the photon
occupation carries the signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .bogoliubov import (BogoliubovBlock, adapt_degenerate_branches, diagonalize_block,
                         exact_branch_coupling)
from .errors import NumericError, ResourceLimitError, UnsupportedError
from .gauge import (GaugeSpec, ModeSpec, check_pairing, coupling_f, diamagnetic_D,
                    dressed_matter_hamiltonian)
from .matter import MatterModel, MatterSpectrum, along_op, ground_resolvent, lowest_by_sector
from .operators import DENSE_MAX_DIM, Operator, Statevector, _fix_phases, eigh
from .response import lehmann_sum

MAX_FULL_DIM = 20000
# blocks up to this many states are solved dense: on README-type
# one-slot blocks shift-invert from the floor overtakes it near 250 states
DENSE_LIMIT = 300
COUPLING_ATOL = 1e-14


@dataclass(frozen=True)
class BranchSlot:
    """One retained photon branch in the tensor ordering."""

    mode_index: int
    tau_index: int
    nu: float
    g_op: Operator  # exact branch coupling on the matter space


@dataclass(frozen=True)
class FullSystem:
    model: MatterModel
    gauge: GaugeSpec
    modes: tuple[ModeSpec, ...]
    blocks: tuple[BogoliubovBlock, ...]
    slots: tuple[BranchSlot, ...]
    cutoff: int  # Fock cutoff of every retained branch
    h: scipy.sparse.csr_matrix
    constant_energy: float  # vacuum energy of branches not carried explicitly
    excluded: tuple  # ((mode_index, tau_index, nu_tau), ...)
    floor: float  # a certified lower bound on the spectrum of h, or -inf

    @property
    def dim(self) -> int:
        return self.h.shape[0]

    @property
    def matter_dim(self) -> int:
        return self.model.dim

    def slot_dims(self) -> list[int]:
        return [self.matter_dim] + [self.cutoff] * len(self.slots)


def _nonzeros(mat) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, values) of the nonzero entries of a dense or CSR matrix,
    row by row."""
    coo = scipy.sparse.coo_matrix(mat)
    coo.eliminate_zeros()
    return coo.row, coo.col, coo.data


def _assemble(h_matter, slots, amplitudes, cutoff: int, constant: float
              ) -> scipy.sparse.csr_matrix:
    """h_m (x) 1 + sum_k [nu_k (n_k + 1/2) + A_k (G_k^dag c_k + G_k c_k^dag)]
    + constant on the tensor space (matter, slot 0, slot 1, ...), in one
    COO pass.

    A state is m P + p, with P photon states and slot 0 the most
    significant digit of p.  h_m enters as (h_m + h_m^dag) / 2, whose
    diagonal is real; the couplings sit where one slot's photon number
    differs by one, so no two terms share an off-diagonal position, and
    each entry below the diagonal is the conjugate of its mirror.  So ``h``
    is Hermitian entry by entry and equals, bit for bit, the Kronecker
    products of the terms summed in this order and symmetrised, with no
    stored zeros.
    """
    photons = cutoff ** len(slots)
    strides = cutoff ** np.arange(len(slots))[::-1]
    occupation = np.arange(photons)[:, None] // strides % cutoff  # (P, slots)
    sqrt_n = np.sqrt(np.arange(cutoff))
    hs = 0.5 * (h_matter + h_matter.conj().T)
    r, c, v = _nonzeros(hs)
    diag = np.asarray(hs.diagonal()).real[:, None] + np.zeros(photons)
    for k, slot in enumerate(slots):
        # sqrt(n)^2 as in c^dag c, not n: the Kronecker sum's rounding
        diag = diag + slot.nu * (sqrt_n[occupation[:, k]] ** 2 + 0.5)
    diag = (diag + constant).ravel()
    off = r != c
    p = np.arange(photons)
    rows = [np.flatnonzero(diag), (r[off, None] * photons + p).ravel()]
    cols = [rows[0], (c[off, None] * photons + p).ravel()]
    vals = [diag[rows[0]], np.repeat(v[off], photons)]
    for k, (slot, amp) in enumerate(zip(slots, amplitudes)):
        # G^dag (x) c: <n| c |n + 1> = sqrt(n + 1) on slot k
        gr, gc, gv = _nonzeros(slot.g_op.matrix)
        low = p[occupation[:, k] < cutoff - 1]
        up_r = (gc[:, None] * photons + low).ravel()
        up_c = (gr[:, None] * photons + low + strides[k]).ravel()
        up_v = (amp * (gv.conj()[:, None] * sqrt_n[occupation[low, k] + 1])).ravel()
        rows += [up_r, up_c]
        cols += [up_c, up_r]
        vals += [up_v, up_v.conj()]
    dim = h_matter.shape[0] * photons
    return scipy.sparse.csr_matrix((np.concatenate(vals),
                                    (np.concatenate(rows), np.concatenate(cols))),
                                   shape=(dim, dim))


def _spectral_floor(h_matter, slots, amplitudes, constant: float) -> float:
    """A lower bound on the spectrum of `_assemble`'s Hamiltonian.

    With X_k = A_k G_k^dag / nu_k, completing the square gives
        H = h_m - sum_k (A_k^2 / nu_k) G_k^dag G_k
            + sum_k nu_k (c_k^dag + X_k)(c_k + X_k^dag) + sum_k nu_k / 2 + constant,
    and each middle term is positive semidefinite when nu_k > 0.  The Fock
    truncation is the compression P H P of the untruncated Hamiltonian, so
    the lowest eigenvalue of the first line, plus the vacuum energies, bounds
    the truncated spectrum from below too.  That eigenvalue comes from a
    dense `eigvalsh`, so the bound is -inf for a matter space above
    DENSE_MAX_DIM states, and also where some nu_k <= 0.
    """
    if h_matter.shape[0] > DENSE_MAX_DIM or any(s.nu <= 0 for s in slots):
        return -math.inf
    m = 0.5 * (h_matter + h_matter.conj().T)
    for slot, amp in zip(slots, amplitudes):
        g = slot.g_op.matrix
        m = m - (amp ** 2 / slot.nu) * (g.conj().T @ g)
    return float(np.linalg.eigvalsh(m)[0]) + sum(0.5 * s.nu for s in slots) + constant


def full_hamiltonian(model: MatterModel, gauge: GaugeSpec, modes,
                     cutoff: int, include_uncoupled: bool = False) -> FullSystem:
    """Assemble the full light-matter Hamiltonian on truncated Fock spaces.

    ``cutoff`` is the Fock cutoff of every retained branch.  Each mode must
    pair with the model and gauge (`gauge.check_pairing`) and be a uniform
    field.  Vacuum energy of every branch is included (explicitly or
    through the analytic constant).  The same matter Hamiltonian, slots
    and amplitudes give the certified lower bound ``floor`` on the
    spectrum (`_spectral_floor`).
    """
    modes = tuple(modes)
    for mode in modes:
        check_pairing(model, gauge, mode)
    if any(mode.q_phase != 0.0 for mode in modes):
        raise UnsupportedError(
            "full diagonalization supports uniform-field modes; finite-q "
            "diamagnetic assembly on a lattice is outside the oracle's scope")
    h_matter = dressed_matter_hamiltonian(model, gauge, list(modes))
    ground = ground_resolvent(model, h_matter)
    slots: list[BranchSlot] = []
    blocks: list[BogoliubovBlock] = []
    excluded = []
    for i, mode in enumerate(modes):
        block = diagonalize_block(diamagnetic_D(model, gauge, mode), mode.nu)
        f_sigma = tuple(coupling_f(model, gauge, mode, s) for s in (1, 2))
        x_ff = lehmann_sum(ground, f_sigma)
        block = adapt_degenerate_branches(block, x_ff)
        blocks.append(block)
        g_exact = exact_branch_coupling(block, f_sigma)
        for t in range(2):
            nu_t = float(block.nu_tau[t])
            if g_exact[t].norm_max() > COUPLING_ATOL or include_uncoupled:
                slots.append(BranchSlot(mode_index=i, tau_index=t, nu=nu_t, g_op=g_exact[t]))
            else:
                excluded.append((i, t, nu_t))
    cutoff = int(cutoff)
    dim = model.dim * cutoff ** len(slots)
    if dim > MAX_FULL_DIM:
        raise ResourceLimitError(f"full dimension {dim} exceeds limit {MAX_FULL_DIM}")

    constant = float(sum(e[2] for e in excluded)) / 2.0
    amplitudes = [modes[s.mode_index].amplitude for s in slots]
    return FullSystem(model=model, gauge=gauge, modes=modes, blocks=tuple(blocks),
                      slots=tuple(slots), cutoff=cutoff,
                      h=_assemble(h_matter.matrix, slots, amplitudes, cutoff, constant),
                      constant_energy=constant, excluded=tuple(excluded),
                      floor=_spectral_floor(h_matter.matrix, slots, amplitudes, constant))


def _photon_phase(system: FullSystem) -> np.ndarray:
    """z = i^(n_0 + n_1 + ...) per state, from the photon numbers of the
    slots, taken exactly from the table [1, i, -1, -i] and the same for
    every matter state."""
    total = np.indices(system.slot_dims()[1:]).sum(axis=0).ravel()
    return np.tile(np.array([1.0, 1j, -1.0, -1j])[total % 4], system.matter_dim)


def lowest_eigenpairs(system: FullSystem, k: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """The k lowest eigenpairs of ``system.h``, ascending, solved block by
    block by `matter.lowest_by_sector` in the photon phase z of
    `_photon_phase`: blocks above DENSE_LIMIT states are factored by
    banded Cholesky just below the certified ``system.floor`` (or a level
    of another block a test certifies), in the narrowest band order, which
    the tensor shape lets include the photon-major one.

    For real matter every coupling of the gauge family is i times a real
    matrix: the paramagnetic part i w [eps.d, h_m] and the electric part
    i V nu w eps.d / V, so each branch coupling G_tau, a real combination
    of them and their adjoints, is purely imaginary.  A coupling entry
    joins |n> and |n + 1> of one slot, so conj(z) h z multiplies it by
    exactly i or -i and leaves every other entry as it is: the blocks are
    real and solved in real arithmetic.  Where some entry stays complex (complex matter, say) its
    block is solved in complex arithmetic.  The eigenvectors of h are z
    times those of conj(z) h z, phase-fixed as `operators.eigh` does."""
    h = system.h
    z = _photon_phase(system)
    rows = np.repeat(np.arange(system.dim), np.diff(h.indptr))
    turned = scipy.sparse.csr_matrix((np.conj(z[rows]) * z[h.indices] * h.data, h.indices,
                                      h.indptr), shape=h.shape)
    vals, vecs, _ = lowest_by_sector(turned, k, DENSE_LIMIT, system.floor,
                                     shape=tuple(system.slot_dims()))
    return vals, _fix_phases(z[:, None] * vecs)


def ground_state(system: FullSystem) -> tuple[float, Statevector]:
    vals, vecs = lowest_eigenpairs(system, k=1)
    return float(vals[0]), Statevector(vecs[:, 0] / np.linalg.norm(vecs[:, 0]))


def parity_gap(system: FullSystem) -> float:
    vals, _ = lowest_eigenpairs(system, k=2)
    return float(vals[1] - vals[0])


def _ladder(psi: np.ndarray, k: int, scale: float, raise_: bool = False) -> np.ndarray:
    """scale c_k |psi>, or scale c_k^dag |psi> with ``raise_``, on ``psi`` in
    its tensor shape (matter, slot 0, slot 1, ...): slot k is axis k + 1.
    ``scale`` multiplies sqrt(n) first, as in the matrix entries of scale c."""
    moved = np.moveaxis(psi, k + 1, 0)
    root = (scale * np.sqrt(np.arange(1, moved.shape[0]))).reshape((-1,) + (1,) * (psi.ndim - 1))
    out = np.zeros_like(moved)
    if raise_:
        out[1:] = root * moved[:-1]
    else:
        out[:-1] = root * moved[1:]
    return np.moveaxis(out, 0, k + 1)


def _a_psi(system: FullSystem, psi: np.ndarray, mode_index: int, sigma: int) -> np.ndarray:
    """a_{q sigma}|psi> = sum_tau (w_{tau sigma} c_tau - y_{tau sigma} c_tau^dag)|psi>
    over the explicitly retained branches, as a flat vector."""
    block = system.blocks[mode_index]
    tensor = psi.reshape(system.slot_dims())
    out = np.zeros_like(tensor)
    for k, slot in enumerate(system.slots):
        if slot.mode_index == mode_index:
            w, y = block.coeffs[slot.tau_index, [sigma - 1, sigma + 1]]
            out += _ladder(tensor, k, w) - _ladder(tensor, k, y, raise_=True)
    return out.ravel()


def photon_coherence(state: Statevector, system: FullSystem, mode_index: int,
                     sigma: int) -> tuple[complex, float]:
    """(<a_{q sigma}>, <a+ a>) in the original polarisation basis.

    Branches carried analytically contribute their Bogoliubov-vacuum
    virtual population y^2 to the occupation and nothing to the coherence.
    """
    psi = state.amplitudes
    a_psi = _a_psi(system, psi, mode_index, sigma)
    coh = complex(np.vdot(psi, a_psi))
    occ = float(np.real(np.vdot(a_psi, a_psi)))
    block = system.blocks[mode_index]
    for (mi, t, _nu) in system.excluded:
        if mi == mode_index:
            occ += block.coeffs[t, 2 + sigma - 1] ** 2
    return coh, occ


def transverse_field_expectation(state: Statevector, system: FullSystem
                                 ) -> np.ndarray:
    """<eps_sigma . E_T> per (mode, sigma); zero for any exact eigenstate.

    E_T = -Pi - P_T with Pi the photonic momentum amplitude
    -i nu A (a - a+) and P_T the gauge-weighted matter polarisation, read
    on the state's (matter, photons) reshape.
    """
    psi = state.amplitudes
    rows = psi.reshape(system.matter_dim, -1)
    ew = system.gauge.electric_weight
    out = np.zeros((len(system.modes), 2))
    for i, mode in enumerate(system.modes):
        pol = system.model.pol_transverse_mult(mode.q_hat, 0.0)
        for sigma in (1, 2):
            a_mean = np.vdot(psi, _a_psi(system, psi, i, sigma))
            pi_mean = -1j * mode.nu * mode.amplitude * (a_mean - np.conj(a_mean))
            p_mean = np.vdot(rows, (along_op(mode.eps(sigma), pol) * ew).matrix @ rows) \
                if ew != 0 else 0.0
            et = -pi_mean - p_mean
            if abs(complex(et).imag) > 1e-9:
                raise NumericError(f"transverse field acquired imaginary part {et}")
            out[i, sigma - 1] = complex(et).real
    return out


def variational_scan(system: FullSystem, psi_m: np.ndarray, slot_index: int,
                     beta_grid) -> dict:
    """Energy of |psi_m> x |coherent(beta)> over a displacement grid.

    The matter state is frozen; remaining branches stay in vacuum.  Returns
    the grid minimum and the zero-displacement energy.
    """
    from .operators import coherent_state, vacuum

    energies = []
    for beta in beta_grid:
        full = psi_m
        for k in range(len(system.slots)):
            photon = (coherent_state(complex(beta), system.cutoff) if k == slot_index
                      else vacuum(system.cutoff))
            full = np.kron(full, photon.amplitudes)
        energies.append(float(np.vdot(full, system.h @ full).real))
    energies = np.asarray(energies)
    i_min = int(np.argmin(energies))
    i_zero = int(np.argmin(np.abs(np.asarray(beta_grid, dtype=complex))))
    return {"beta_star": complex(beta_grid[i_min]), "energy_star": energies[i_min],
            "energy_zero": energies[i_zero], "energies": energies}


@dataclass(frozen=True)
class ConstrainedMinResult:
    energy: float
    lagrange_field: float
    constraint_residual: float


def constrained_min(spectrum: MatterSpectrum, g_op: Operator, mode: ModeSpec,
                    block: BogoliubovBlock, tau: str, dbeta: complex,
                    tol: float = 1e-10) -> ConstrainedMinResult:
    """Min <H_m> subject to <beta_hat_tau> - beta_0 = dbeta, by root-finding.

    Both quadratures of the displacement are pinned: the auxiliary
    Hamiltonian H + V (F_r G_r + F_i G_i) couples the Hermitian parts of
    the constraining operator along and transverse to the requested phase,
    and a Newton solve with a finite-difference Jacobian drives the
    complex displacement onto the target within ``tol``.
    """
    t = BogoliubovBlock.TAUS.index(tau)
    beta_op = -(mode.amplitude / block.nu_tau[t]) * g_op.entries
    h0 = spectrum.h_m_used.entries
    psi0 = spectrum.ground_state_vector()
    beta0 = complex(psi0.conj() @ (beta_op @ psi0))
    target = complex(dbeta)
    if abs(target) == 0:
        return ConstrainedMinResult(energy=spectrum.ground_energy(),
                                    lagrange_field=0.0, constraint_residual=0.0)
    phase = target / abs(target)
    dirs = [0.5 * (np.conj(phase) * beta_op + phase * beta_op.conj().T),
            0.5 * (-1j * np.conj(phase) * beta_op + 1j * phase * beta_op.conj().T)]
    # pure-phase operators leave one quadrature with no generator at all;
    # solve in the responsive subspace only
    active = [k for k in range(2) if np.max(np.abs(dirs[k])) > 1e-14]
    if not active:
        raise NumericError("constraining operator vanishes")
    volume = spectrum.model.params.volume
    goal = np.array([abs(target), 0.0])

    def displacement(fields) -> tuple[np.ndarray, np.ndarray]:
        h = h0.copy()
        for k, fk in zip(active, fields):
            h = h + volume * fk * dirs[k]
        es = eigh(Operator(h, hermitian=False))
        psi = es.vectors[:, 0]
        db = complex(psi.conj() @ (beta_op @ psi)) - beta0
        rot = np.conj(phase) * db
        return np.array([rot.real, rot.imag]), psi

    base = spectrum.ground_gap / (volume * max(np.max(np.abs(beta_op)), 1e-300))
    fields = np.zeros(len(active))
    step = 1e-7 * base
    converged = False
    for _ in range(200):
        val, psi = displacement(fields)
        err = val[active] - goal[active]
        if np.linalg.norm(val - goal) <= 0.1 * tol:
            converged = True
            break
        jac = np.zeros((len(active), len(active)))
        for k in range(len(active)):
            probe = fields.copy()
            probe[k] += step
            val_k, _ = displacement(probe)
            jac[:, k] = (val_k - val)[active] / step
        try:
            delta = np.linalg.solve(jac, -err)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"singular constraint Jacobian: {exc}") from exc
        # damp very large first steps to stay in the linear-response regime
        norm = np.linalg.norm(delta)
        if norm > 1e3 * base:
            delta *= 1e3 * base / norm
        fields = fields + delta
    val, psi = displacement(fields)
    residual = float(np.linalg.norm(val - goal))
    if not converged and residual > tol:
        raise NumericError(f"constraint residual {residual:.2e} exceeds {tol}")
    energy = float(np.real(psi.conj() @ (h0 @ psi)))
    return ConstrainedMinResult(energy=energy,
                                lagrange_field=float(np.linalg.norm(fields)),
                                constraint_residual=residual)


@dataclass(frozen=True)
class GaugeInvarianceReport:
    rows: tuple  # (matter_levels, fock_cutoff, e_coulomb, e_dipole)
    energy_difference: float
    relative_difference: float
    et_norm_coulomb: float
    et_norm_dipole: float


def gauge_invariance_report(build_model, mode: ModeSpec, matter_levels,
                            fock_cutoffs) -> GaugeInvarianceReport:
    """Coulomb vs dipole ground energies over a convergence schedule.

    ``build_model`` maps a level count to a fresh canonical matter model.
    The last schedule entry provides the headline difference and the
    transverse-field check on both ground states.
    """
    from .gauge import make_gauge

    rows = []
    last = {}
    for d_levels, n_fock in zip(matter_levels, fock_cutoffs):
        model = build_model(int(d_levels))
        entry = {}
        for label in ("coulomb", "dipole"):
            gauge = make_gauge(label)
            system = full_hamiltonian(model, gauge, [mode], int(n_fock))
            energy, state = ground_state(system)
            entry[label] = (energy, state, system)
        rows.append((int(d_levels), int(n_fock),
                     entry["coulomb"][0], entry["dipole"][0]))
        last = entry
    e_c, e_d = rows[-1][2], rows[-1][3]
    et_c = float(np.max(np.abs(transverse_field_expectation(last["coulomb"][1],
                                                            last["coulomb"][2]))))
    et_d = float(np.max(np.abs(transverse_field_expectation(last["dipole"][1],
                                                            last["dipole"][2]))))
    return GaugeInvarianceReport(rows=tuple(rows),
                                 energy_difference=float(e_d - e_c),
                                 relative_difference=float(abs(e_d - e_c) / max(abs(e_c), 1e-300)),
                                 et_norm_coulomb=et_c, et_norm_dipole=et_d)
