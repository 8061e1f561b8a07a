"""Static linear response by exact Lehmann sums over finite spectra.

All response functions are the dimensionless tilde-normalised objects

    chi^{OC}_{q i, -q' j} = -2 V sum_{n != 0} <0|O_qi|n><n|C_{-q'j}|0> / (eps_n - eps_0),

evaluated over the full spectrum of the matter Hamiltonian actually used
(no truncation inside a built model; convergence is studied by rebuilding
at larger level counts).  Hermitian-field Fourier components obey
O_{-q} = O_q^dag, so the conjugate-momentum operator defaults to the
adjoint of the forward one.  Sums use numpy pairwise reduction, which is
deterministic for a fixed spectrum ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DegenerateGroundStateError
from .gauge import ModeSpec
from .matter import DEGENERACY_ATOL, MatterSpectrum


def _check_unique_ground(spectrum: MatterSpectrum):
    if spectrum.ground_degeneracy != 1:
        e = spectrum.energies
        raise DegenerateGroundStateError(
            f"ground state is {spectrum.ground_degeneracy}-fold degenerate "
            f"(eps_0 = {e[0]:.6g}, eps_1 = {e[1]:.6g}); Lehmann sums need a unique ground state"
        )


def _lehmann_rows(spectrum: MatterSpectrum, ops) -> np.ndarray:
    """Stack of <0|O_k|n> rows for an iterable of operators."""
    return np.stack([spectrum.couplings_from_ground(op) for op in ops])


def chi_from_rows(spectrum: MatterSpectrum, bra_rows: np.ndarray,
                  ket_rows: np.ndarray, volume: float) -> np.ndarray:
    """chi[k, l] = -2V sum_{n != 0} bra[k, n] ket[l, n] / de_n.

    ``bra_rows`` holds <0|O_k|n> and ``ket_rows`` holds <n|C_l|0>, both
    over the full spectrum; excitations within DEGENERACY_ATOL of the
    ground energy are left out.
    """
    _check_unique_ground(spectrum)
    de = spectrum.energies - spectrum.energies[0]
    keep = de > DEGENERACY_ATOL
    return -2.0 * volume * np.einsum("kn,ln,n->kl", bra_rows[:, keep],
                                     ket_rows[:, keep], 1.0 / de[keep])


def lehmann_sum(spectrum: MatterSpectrum, o_ops, c_ops=None) -> np.ndarray:
    """Matrix chi[k, l] = -2V sum_{n != 0} <0|O_k|n><n|C_l|0> / de_n.

    ``c_ops`` defaults to the adjoints of ``o_ops`` (conjugate momentum
    components of Hermitian fields).
    """
    bra_rows = _lehmann_rows(spectrum, o_ops)
    # <n|C|0> = conj(<0|C^dag|n>), which is conj(<0|O|n>) for C = O^dag
    ket_rows = (bra_rows if c_ops is None
                else _lehmann_rows(spectrum, [op.dag() for op in c_ops])).conj()
    return chi_from_rows(spectrum, bra_rows, ket_rows, spectrum.model.params.volume)


@dataclass(frozen=True)
class SlrfTensor:
    """3x3 Cartesian chi tensor at one mode, plus its transverse reduction."""

    chi: np.ndarray
    mode: ModeSpec

    def transverse(self) -> "TransverseProjection":
        return transverse_project(self, self.mode)


@dataclass(frozen=True)
class TransverseProjection:
    scalar_sigma1: float
    scalar_sigma2: float
    off_diag: float

    @property
    def scalar(self) -> float:
        return self.scalar_sigma1

    def reduction_valid(self, atol: float = 1e-10) -> bool:
        return (self.off_diag <= atol
                and abs(self.scalar_sigma1 - self.scalar_sigma2) <= atol)


def slrf(spectrum: MatterSpectrum, o_ops, c_ops=None, mode: ModeSpec | None = None) -> SlrfTensor:
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
    _check_unique_ground(spectrum)
    dips = spectrum.model.dipole_ops
    de = spectrum.energies - spectrum.energies[0]
    keep = de > DEGENERACY_ATOL
    gaps = de[keep]
    nearest = np.min(np.abs(np.concatenate([gaps - omega, gaps + omega])))
    if nearest < 1e-9:
        raise ArgumentError(
            f"omega = {omega} is within {nearest:.2e} of a transition energy")
    rows = _lehmann_rows(spectrum, dips)[:, keep]  # d_i^{0n}
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


def check_translational_invariance(spectrum: MatterSpectrum, q_a: float,
                                   q_b: float) -> float:
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
