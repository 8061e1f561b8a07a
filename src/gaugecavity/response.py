"""Static linear response of the matter ground state.

All response functions are the dimensionless tilde-normalised objects

    chi^{OC}_{q i, -q' j} = -2 V sum_{n != 0} <0|O_qi|n><n|C_{-q'j}|0> / (eps_n - eps_0)
                          = -2 V <0|O_qi Q (H - E_0)^-1 Q C_{-q'j}|0>,

with Q = 1 - |0><0| (no truncation inside a built model; convergence is
studied by rebuilding at larger level counts).  Hermitian-field Fourier
components obey O_{-q} = O_q^dag, so the conjugate-momentum operator
defaults to the adjoint of the forward one.

Two backends give the reduced resolvent, behind one interface
(`ground_state_vector`, `ground_energy`, `ground_gap`, and
`gram(C) = C^dag Q (H - E_0)^-1 Q C`); `ground_resolvent` picks one by
matter dimension, and `lehmann_sum` and everything built on it run on
either.  Up to DENSE_MAX_DIM it is the full eigendecomposition
`matter.MatterSpectrum`; only `polarizability`, whose finite-frequency
form needs every transition energy, requires it.  Above it,
`SparseResolvent` takes the two lowest eigenpairs from Lanczos and solves
(H - E_0 + |0><0|) x = Q c by conjugate gradients, which on Q space is
the resolvent: the Sternheimer route of density-functional perturbation
theory, with no full spectrum.  Both are deterministic for a fixed
Hamiltonian; the Lanczos start vector is seeded with LANCZOS_SEED.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, cg, eigsh

from .errors import ArgumentError, DegenerateGroundStateError, NumericError
from .gauge import ModeSpec
from .matter import DEGENERACY_ATOL, MatterModel, MatterSpectrum, matter_spectrum
from .operators import DENSE_MAX_DIM, Operator

LANCZOS_SEED = 2207  # seeds the real Gaussian Lanczos start vector
CG_RTOL = 1e-13


@dataclass(frozen=True)
class SparseResolvent:
    """Ground state of a large sparse Hamiltonian and its reduced resolvent.

    ``lowest`` holds the two lowest eigenvalues from one Lanczos run, so
    `ground_gap` is the unique-ground check; `gram` solves for each
    nonzero column c the system (H - E_0 + |0><0|) x = Q c, which is
    positive definite when the ground state is unique, by conjugate
    gradients.
    """

    model: MatterModel
    h_m_used: Operator
    lowest: np.ndarray
    vector: np.ndarray

    @property
    def ground_gap(self) -> float:
        return float(self.lowest[1] - self.lowest[0])

    def ground_energy(self) -> float:
        return float(self.lowest[0])

    def ground_state_vector(self) -> np.ndarray:
        return self.vector

    def gram(self, cols: np.ndarray) -> np.ndarray:
        """M = C^dag Q (H - E_0)^-1 Q C for the columns of ``cols``."""
        g, e0, h = self.vector, self.ground_energy(), self.h_m_used.matrix
        q_cols = cols - np.outer(g, g.conj() @ cols)
        shifted = LinearOperator(h.shape, dtype=complex,
                                 matvec=lambda v: h @ v - e0 * v + g * (g.conj() @ v))
        solved = np.zeros_like(q_cols)
        for k in range(q_cols.shape[1]):
            if q_cols[:, k].any():
                solved[:, k], info = cg(shifted, q_cols[:, k], rtol=CG_RTOL, atol=0.0)
                if info != 0:
                    raise NumericError(f"conjugate gradients stopped with info {info} "
                                       f"before the relative residual reached {CG_RTOL}")
        return q_cols.conj().T @ solved


def lanczos_lowest(mat, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k lowest eigenpairs of a sparse Hermitian matrix, ascending, by Lanczos.

    A real matrix runs through ARPACK's real symmetric routine.  ARPACK
    misses an eigenvalue that is exactly zero, as the bare two-level ground
    energy is, so the matrix is shifted by a Gershgorin lower bound, which
    puts the whole spectrum at or above 1.  The start vector is a fixed
    Gaussian draw seeded with LANCZOS_SEED: it has weight in every symmetry
    sector, and unlike the uniform vector it is no eigenvector of a matrix
    whose rows share one sum.
    """
    dim = mat.shape[0]
    diag = mat.diagonal().real
    shift = float(np.min(2.0 * diag - np.asarray(abs(mat).sum(axis=1)).ravel())) - 1.0
    v0 = np.random.default_rng(LANCZOS_SEED).standard_normal(dim)
    try:
        vals, vecs = eigsh(mat - shift * scipy.sparse.identity(dim), k=k, which="SA", v0=v0)
    except ArpackNoConvergence as exc:
        raise NumericError(f"Lanczos ground state failed to converge: {exc}") from exc
    except ArpackError as exc:
        raise NumericError(f"Lanczos ground state failed: {exc}") from exc
    order = np.argsort(vals)
    return vals[order] + shift, vecs[:, order]


def sparse_resolvent(model: MatterModel, h_m: Operator | None = None) -> SparseResolvent:
    """Lanczos ground state of the (possibly gauge-dressed) matter Hamiltonian.

    A real Hamiltonian runs through the real symmetric Lanczos routine.
    """
    h = model.h_m if h_m is None else h_m
    mat = scipy.sparse.csr_matrix(h.matrix)
    if mat.imag.count_nonzero() == 0:
        mat = mat.real
    vals, vecs = lanczos_lowest(mat, 2)
    g = vecs[:, 0].astype(complex)
    return SparseResolvent(model=model, h_m_used=h, lowest=vals,
                           vector=g / np.linalg.norm(g))


def ground_resolvent(model: MatterModel, h_m: Operator | None = None):
    """The ground-resolvent backend for this matter dimension: the full
    `matter_spectrum` up to DENSE_MAX_DIM, `sparse_resolvent` above."""
    if model.dim <= DENSE_MAX_DIM:
        return matter_spectrum(model, h_m)
    return sparse_resolvent(model, h_m)


def check_unique_ground(ground):
    gap = ground.ground_gap
    if gap <= DEGENERACY_ATOL:
        raise DegenerateGroundStateError(
            f"ground state is degenerate (eps_1 - eps_0 = {gap:.3g} <= {DEGENERACY_ATOL}); "
            "ground-state responses need a unique ground state")


def lehmann_sum(ground, o_ops, c_ops=None) -> np.ndarray:
    """Matrix chi[k, l] = -2V <0|O_k Q (H - E_0)^-1 Q C_l|0>.

    It is read from ``ground.gram`` of the columns O_k^dag|0>, followed
    by C_l|0> when ``c_ops`` is given, so ``ground`` may be either backend
    of `ground_resolvent`.  ``c_ops`` defaults to the adjoints of
    ``o_ops`` (conjugate momentum components of Hermitian fields), for
    which the O_k^dag|0> columns alone give the whole matrix.
    """
    check_unique_ground(ground)
    g = ground.ground_state_vector()
    cols = [op.matrix.conj().T @ g for op in o_ops]
    if c_ops is not None:
        cols += [op.matrix @ g for op in c_ops]
    m = ground.gram(np.stack(cols, axis=1))
    k = len(o_ops)
    return -2.0 * ground.model.params.volume * (m if c_ops is None else m[:k, k:])


@dataclass(frozen=True)
class SlrfTensor:
    """3x3 Cartesian chi tensor at one mode; `transverse_project` reduces it."""

    chi: np.ndarray
    mode: ModeSpec


@dataclass(frozen=True)
class TransverseProjection:
    scalar_sigma1: float
    scalar_sigma2: float
    off_diag: float

    def reduction_valid(self, atol: float = 1e-10) -> bool:
        return (self.off_diag <= atol
                and abs(self.scalar_sigma1 - self.scalar_sigma2) <= atol)


def slrf(spectrum, o_ops, c_ops=None, mode: ModeSpec | None = None) -> SlrfTensor:
    """Full 3x3 SLRF tensor for Cartesian operator triples."""
    if len(o_ops) != 3 or (c_ops is not None and len(c_ops) != 3):
        raise ArgumentError("slrf expects Cartesian triples of operators")
    chi = lehmann_sum(spectrum, o_ops, c_ops)
    return SlrfTensor(chi=chi, mode=mode)


def transverse_project(tensor: SlrfTensor, mode: ModeSpec) -> TransverseProjection:
    """Polarisation-frame reduction of a 3x3 tensor at a single mode.

    Returns both diagonal transverse scalars and the largest off-diagonal
    magnitude; callers decide whether the rotational reduction applies.
    """
    chi = tensor.chi
    e1, e2 = mode.eps1, mode.eps2
    s1 = complex(e1 @ chi @ e1)
    s2 = complex(e2 @ chi @ e2)
    off = max(abs(complex(e1 @ chi @ e2)), abs(complex(e2 @ chi @ e1)))
    for name, s in (("sigma1", s1), ("sigma2", s2)):
        if abs(s.imag) > 1e-9 * max(1.0, abs(s)):
            raise ArgumentError(f"transverse scalar {name} is not real: {s}")
    return TransverseProjection(scalar_sigma1=s1.real, scalar_sigma2=s2.real,
                                off_diag=off)


def chi_md(charge: float, mass: float, n_charges: int, volume: float,
           nu: float) -> float:
    """Closed-form diamagnetic response -e^2 N / (m V nu^2)."""
    if nu == 0:
        raise ArgumentError("diamagnetic response diverges at nu = 0")
    return -(charge ** 2) * n_charges / (mass * volume * nu ** 2)


def chi_md_from_model(spectrum_or_model, nu: float) -> float:
    params = getattr(spectrum_or_model, "params", None)
    if params is None:
        params = spectrum_or_model.model.params
    if nu == 0:
        raise ArgumentError("diamagnetic response diverges at nu = 0")
    return -params.e2n_over_m / (params.volume * nu ** 2)


def polarizability(spectrum: MatterSpectrum, omega: float = 0.0) -> np.ndarray:
    """Ground-state polarisability tensor alpha_ij(omega) by exact Lehmann sum."""
    check_unique_ground(spectrum)
    dips = spectrum.model.dipole_ops
    de = spectrum.energies - spectrum.energies[0]
    keep = de > DEGENERACY_ATOL
    gaps = de[keep]
    nearest = np.min(np.abs(np.concatenate([gaps - omega, gaps + omega])))
    if nearest < 1e-9:
        raise ArgumentError(
            f"omega = {omega} is within {nearest:.2e} of a transition energy")
    rows = np.stack([spectrum.couplings_from_ground(d) for d in dips])[:, keep]  # d_i^{0n}
    alpha = np.zeros((3, 3), dtype=complex)
    for i in range(3):
        for j in range(3):
            alpha[i, j] = np.sum(rows[i] * rows[j].conj() / (gaps - omega)
                                 + rows[j] * rows[i].conj() / (gaps + omega))
    if omega == 0.0:
        if np.max(np.abs(alpha.imag)) > 1e-10 * max(1.0, np.max(np.abs(alpha))):
            raise ArgumentError("static polarisability acquired an imaginary part")
        return alpha.real
    return alpha


def check_translational_invariance(spectrum, q_a: float, q_b: float) -> float:
    """Largest cross-momentum SLRF entry for ring quasi-momenta q_a != q_b.

    Translation symmetry forces chi^{ff}_{q, -q'} to vanish unless q = q';
    the residual is reported for the paramagnetic current components.
    Equal momenta return the magnitude of the ordinary response.
    """
    model = spectrum.model
    o_ops = model.para_current(q_a)
    c_ops = [op.dag() for op in model.para_current(q_b)]
    chi = lehmann_sum(spectrum, o_ops, c_ops)
    return float(np.max(np.abs(chi)))
