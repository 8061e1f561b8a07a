"""Static linear response of the matter ground state.

All response functions are the dimensionless tilde-normalised objects

    chi^{OC}_{q i, -q' j} = -2 V sum_{n != 0} <0|O_qi|n><n|C_{-q'j}|0> / (eps_n - eps_0)
                          = -2 V <0|O_qi Q (H - E_0)^-1 Q C_{-q'j}|0>,

with Q = 1 - |0><0| (no truncation inside a built model; convergence is
studied by rebuilding at larger level counts).  Hermitian-field Fourier
components obey O_{-q} = O_q^dag, so the conjugate-momentum operator
defaults to the adjoint of the forward one.

The reduced resolvent comes from any ground backend of
`matter.ground_resolvent` (the full spectrum, or the ground state of
`matter.lowest_by_sector`, dense per sector or by shift-invert Lanczos on
a banded Cholesky factorisation, with a dense or banded Cholesky solve
per sector), behind one interface (`ground_state_vector`,
`ground_energy`, `ground_gap`, and `gram(C) = C^dag Q (H - E_0)^-1 Q C`),
so `lehmann_sum` and everything built on it run on each; both refuse a
degenerate ground state.  Only `polarizability`, whose finite-frequency
form needs every transition energy, requires `matter.MatterSpectrum`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError
from .gauge import ModeSpec
from .matter import MatterSpectrum, require_full_spectrum

def lehmann_sum(ground, o_ops, c_ops=None) -> np.ndarray:
    """Matrix chi[k, l] = -2V <0|O_k Q (H - E_0)^-1 Q C_l|0>.

    It is read from ``ground.gram`` of the columns O_k^dag|0>, followed
    by C_l|0> when ``c_ops`` is given, so ``ground`` may be any backend
    of `matter.ground_resolvent`.  ``c_ops`` defaults to the adjoints of
    ``o_ops`` (conjugate momentum components of Hermitian fields), for
    which the O_k^dag|0> columns alone give the whole matrix.
    """
    g = ground.ground_state_vector()
    cols = [op.matrix.conj().T @ g for op in o_ops]
    if c_ops is not None:
        cols += [op.matrix @ g for op in c_ops]
    m = ground.gram(np.stack(cols, axis=1))
    k = len(o_ops)
    return -2.0 * ground.model.params.volume * (m if c_ops is None else m[:k, k:])


@dataclass(frozen=True)
class TransverseProjection:
    scalar_sigma1: float
    scalar_sigma2: float
    off_diag: float

    def reduction_valid(self, atol: float = 1e-10) -> bool:
        return (self.off_diag <= atol
                and abs(self.scalar_sigma1 - self.scalar_sigma2) <= atol)


def slrf(spectrum, o_ops, c_ops=None) -> np.ndarray:
    """Full 3x3 SLRF tensor chi[i, j] for Cartesian operator triples."""
    if len(o_ops) != 3 or (c_ops is not None and len(c_ops) != 3):
        raise ArgumentError("slrf expects Cartesian triples of operators")
    return lehmann_sum(spectrum, o_ops, c_ops)


def transverse_project(chi: np.ndarray, mode: ModeSpec) -> TransverseProjection:
    """Polarisation-frame reduction of a 3x3 tensor at a single mode.

    Returns both diagonal transverse scalars and the largest off-diagonal
    magnitude; callers decide whether the rotational reduction applies.
    """
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
    require_full_spectrum(spectrum, "polarizability")
    dips = spectrum.model.dipole_ops
    gaps = spectrum.energies[1:] - spectrum.energies[0]
    nearest = np.min(np.abs(np.concatenate([gaps - omega, gaps + omega])))
    if nearest < 1e-9:
        raise ArgumentError(
            f"omega = {omega} is within {nearest:.2e} of a transition energy")
    rows = np.stack([spectrum.couplings_from_ground(d) for d in dips])[:, 1:]  # d_i^{0n}
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
