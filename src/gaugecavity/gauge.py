"""Gauge presets and per-mode coupling data.

A gauge enters the pipeline through three numbers/objects per mode:
the paramagnetic coupling weight, the electric (polarisation) coupling
weight, and the diamagnetic matrix D with its strength Delta_q.  The
one-parameter family interpolates the transverse gauge freedom linearly
in the long-wavelength limit: polarisation weight alpha, paramagnetic
weight (1 - alpha), diamagnetic (1 - alpha)^2, so alpha = 0 is the
Coulomb gauge and alpha = 1 the dipole gauge.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, UnsupportedError
from .matter import (X_AXIS, Y_AXIS, Z_AXIS, MatterModel, MatterSpectrum, ModelKind, along_op,
                     matter_spectrum, ring_ground_state, ring_quasi_momentum)
from .operators import Operator, zero


class GaugePreset(enum.Enum):
    COULOMB = "coulomb"
    DIPOLE = "dipole"
    ALPHA_LWL = "alpha_lwl"
    MULTIPOLAR_RING = "multipolar_ring"


@dataclass(frozen=True)
class GaugeSpec:
    """A gauge of the alpha family (`make_gauge` sets alpha = 0 for Coulomb
    and 1 for dipole), or the multipolar ring gauge, which keeps both
    couplings at full weight.  The mode's `q_phase`, not the gauge, selects
    uniform-field or finite-q couplings (see `pairing_problem`)."""

    preset: GaugePreset
    alpha: float = 0.0

    @property
    def paramagnetic_weight(self) -> float:
        return 1.0 if self.preset is GaugePreset.MULTIPOLAR_RING else 1.0 - self.alpha

    @property
    def electric_weight(self) -> float:
        return 1.0 if self.preset is GaugePreset.MULTIPOLAR_RING else self.alpha


def make_gauge(preset: GaugePreset | str, alpha: float | None = None) -> GaugeSpec:
    """The gauge of a preset; ``alpha`` is for `alpha_lwl`, which needs it."""
    if isinstance(preset, str):
        try:
            preset = GaugePreset(preset)
        except ValueError as exc:
            raise ArgumentError(f"unknown gauge preset {preset!r}") from exc
    if preset is GaugePreset.ALPHA_LWL:
        if alpha is None:
            raise ArgumentError("alpha_lwl preset requires alpha")
        if not 0.0 <= alpha <= 1.0:
            raise ArgumentError(f"alpha must lie in [0, 1], got {alpha}")
        return GaugeSpec(preset=preset, alpha=float(alpha))
    if alpha is not None:
        raise ArgumentError("alpha only applies to the alpha_lwl preset")
    return GaugeSpec(preset=preset, alpha=1.0 if preset is GaugePreset.DIPOLE else 0.0)


def _polarisation_pair(q_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic right-handed transverse basis; q || z gives (x, y)."""
    for trial in (X_AXIS, Y_AXIS, Z_AXIS):
        perp = trial - np.dot(trial, q_hat) * q_hat
        if np.linalg.norm(perp) > 1e-8:
            eps1 = perp / np.linalg.norm(perp)
            break
    eps2 = np.cross(q_hat, eps1)
    return eps1, eps2


@dataclass(frozen=True)
class ModeSpec:
    """One field mode: frequency nu, volume V, wavevector direction q_hat
    (stored normalised) and the scalar quasi-momentum q_phase of the matter
    phase factors (0: uniform field).  The polarisation frame eps1, eps2
    depends on q_hat alone and is set once, from `_polarisation_pair`."""

    nu: float
    volume: float
    q_hat: np.ndarray = field(default_factory=Z_AXIS.copy)  # z for lwl and ring modes
    q_phase: float = 0.0
    eps1: np.ndarray = field(init=False, repr=False)
    eps2: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.nu <= 0:
            raise ArgumentError(f"mode frequency must be positive, got {self.nu}")
        if self.volume <= 0:
            raise ArgumentError(f"mode volume must be positive, got {self.volume}")
        q = np.asarray(self.q_hat, dtype=float)
        n = np.linalg.norm(q)
        if not n > 0:
            raise ArgumentError("mode direction q_hat must be nonzero")
        q_hat = q / n
        for name, v in zip(("q_hat", "eps1", "eps2"), (q_hat, *_polarisation_pair(q_hat))):
            v.setflags(write=False)
            object.__setattr__(self, name, v)

    @property
    def amplitude(self) -> float:
        """A_q with A_q^2 = 1 / (2 nu V)."""
        return 1.0 / np.sqrt(2.0 * self.nu * self.volume)

    def eps(self, sigma: int) -> np.ndarray:
        if sigma not in (1, 2):
            raise ArgumentError(f"polarisation index must be 1 or 2, got {sigma}")
        return self.eps1 if sigma == 1 else self.eps2


def mode_from_q(q, volume: float) -> ModeSpec:
    qv = np.asarray(q, dtype=float)
    nu = float(np.linalg.norm(qv))
    if nu == 0:
        raise ArgumentError("q must be nonzero; use lwl_mode for the uniform-field limit")
    return ModeSpec(nu=nu, volume=float(volume), q_hat=qv)


def lwl_mode(nu: float, volume: float) -> ModeSpec:
    """Uniform-field mode: frequency nu, conventional wavevector along z."""
    return ModeSpec(nu=float(nu), volume=float(volume))


def ring_mode(model: MatterModel, n: int, nu: float | None = None) -> ModeSpec:
    """Mode matched to ring quasi-momentum 2 pi n / L, in the model's volume.

    The wavevector direction is conventional (z); the scalar quasi-momentum
    drives the matter phase factors.
    """
    q_n = ring_quasi_momentum(model, n)  # refuses a model that is not a ring
    if n % model.dim == 0:
        raise ArgumentError("ring mode index must not be 0 mod L")
    freq = float(nu) if nu is not None else abs(q_n)
    return ModeSpec(nu=freq, volume=model.params.volume, q_phase=q_n)


def pairing_problem(kind: ModelKind, preset: GaugePreset, ring: bool) -> str | None:
    """Why a model kind, gauge preset and mode (``ring``: a ring mode, else a
    uniform field) do not go together, or None.  A ring's site dipole jumps
    across the closing bond, so a ring has no uniform-field coupling.
    `check_pairing` and `cli.validate_config` apply this one rule."""
    if kind is ModelKind.RING_LATTICE and not ring:
        return "a ring lattice couples only through ring modes"
    if ring and preset in (GaugePreset.DIPOLE, GaugePreset.ALPHA_LWL):
        return f"a ring mode needs the coulomb or multipolar_ring gauge, not {preset.value}"
    if preset is GaugePreset.MULTIPOLAR_RING and not ring:
        return "the multipolar_ring gauge needs a ring mode"
    return None


def check_pairing(model: MatterModel, gauge: GaugeSpec, mode: ModeSpec) -> None:
    """Raise ArgumentError unless model, gauge and mode obey `pairing_problem`
    and the mode volume is the model's."""
    problem = pairing_problem(model.kind, gauge.preset, mode.q_phase != 0.0)
    v = model.params.volume
    if problem is None and abs(mode.volume - v) > 1e-12 * max(1.0, abs(v)):
        problem = f"mode volume {mode.volume} differs from model volume {v}"
    if problem is not None:
        raise ArgumentError(problem)


@dataclass(frozen=True)
class DiamagneticMatrix:
    """2x2 symmetric D_{q sigma sigma'} and the strength Delta_q, or a stack
    of them: D of shape (..., 2, 2) and Delta_q of the leading shape."""

    d: np.ndarray
    delta_q: float

    def __post_init__(self):
        m = np.asarray(self.d, dtype=float)
        if m.shape[-2:] != (2, 2):
            raise ArgumentError("D must be 2x2")
        if np.any(np.abs(m[..., 0, 1] - m[..., 1, 0]) > 1e-12):
            raise ArgumentError("D must be symmetric")
        delta = np.asarray(self.delta_q, dtype=float)
        if np.any(delta < 0):
            raise ArgumentError("Delta_q must be non-negative")
        lowest = np.linalg.eigvalsh(0.5 * (m + np.swapaxes(m, -1, -2)))[..., 0].min()
        if lowest < -1e-12:
            raise ArgumentError(f"D has negative eigenvalue {lowest:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "d", m)
        object.__setattr__(self, "delta_q", delta if delta.ndim else float(delta))


def _axis_gram(model: MatterModel, mode: ModeSpec) -> np.ndarray:
    """Polarisation Gram matrix restricted to the model's motion axes.

    Isotropic (3-axis) matter gives the identity; reduced models project
    out polarisations they cannot screen.
    """
    g = np.zeros((2, 2))
    for ax in model.axes:
        pr = np.array([np.dot(mode.eps1, ax), np.dot(mode.eps2, ax)])
        g += np.outer(pr, pr)
    return g


def diamagnetic_delta(model: MatterModel, mode: ModeSpec) -> float:
    """Delta_q = e^2 N A_q^2 / (2 m), from the model's effective e^2 N / m."""
    return model.params.e2n_over_m * mode.amplitude ** 2 / 2.0


def diamagnetic_D(model: MatterModel, gauge: GaugeSpec, mode: ModeSpec) -> DiamagneticMatrix:
    """Assemble D_{q sigma sigma'} and Delta_q: (1 - alpha)^2 times the
    axis Gram matrix, or the ring's dressed-profile overlap."""
    d, delta = diamagnetic_parts(model, gauge, mode)
    return DiamagneticMatrix(d=d, delta_q=delta)


def diamagnetic_parts(model: MatterModel, gauge: GaugeSpec, mode: ModeSpec
                      ) -> tuple[np.ndarray, float]:
    """The D and Delta_q of `diamagnetic_D`, unchecked, for a caller that
    stacks them into one `DiamagneticMatrix`."""
    delta = diamagnetic_delta(model, mode)
    if gauge.preset is GaugePreset.MULTIPOLAR_RING:
        return _multipolar_ring_D(model, mode), delta
    return (1.0 - gauge.alpha) ** 2 * _axis_gram(model, mode), delta


def _multipolar_ring_D(model: MatterModel, mode: ModeSpec) -> np.ndarray:
    """Numeric dressed-profile overlap for the discretised ring gauge.

    On the lattice, the discrete gradient of the bond string cancels the
    bare phase e^{-i q x} on every string-covered bond, and the closing
    bond inherits the full loop sum, which vanishes at commensurate
    quasi-momenta.  The overlap is evaluated on the ring ground state
    with bond occupations averaged from the adjacent sites.
    """
    dens = np.abs(ring_ground_state(model)) ** 2
    L = model.dim
    q = mode.q_phase
    bare = np.exp(-1j * q * (np.arange(L) + 0.5))
    grad = bare.copy()
    grad[L - 1] = -np.sum(bare[:L - 1])  # string wraps only at the closing bond
    profile = bare - grad
    bond_occ = 0.5 * (dens + np.roll(dens, -1))
    weight = float(np.real(np.sum(np.abs(profile) ** 2 * bond_occ))) / model.params.n_charges
    return weight * _axis_gram(model, mode)


def coupling_f(model: MatterModel, gauge: GaugeSpec, mode: ModeSpec,
               sigma: int) -> Operator:
    """eps_sigma . f_q as an operator on the matter space: the sum of the
    parts whose gauge weight is nonzero, so the dipole and Coulomb gauges
    build one part each."""
    parts = [part(model, gauge, mode, sigma) for part, weight in
             ((coupling_f_magnetic, gauge.paramagnetic_weight),
              (coupling_f_electric, gauge.electric_weight)) if weight != 0.0]
    return sum(parts[1:], parts[0]) if parts else zero(model.dim)


def coupling_f_magnetic(model: MatterModel, gauge: GaugeSpec, mode: ModeSpec,
                        sigma: int) -> Operator:
    """Paramagnetic component, magnitude V eps.j^p_q (transverse current).

    The overall sign is fixed so that the assembled interaction expands the
    velocity-gauge kinetic term (p + e A)^2 / 2m with the same photon-phase
    convention the electric component uses; mixed-weight gauges are then
    exactly unitarily equivalent, which the spectra confirm.  Response
    functions are quadratic in this component, so they are unaffected.
    """
    w = gauge.paramagnetic_weight
    if w == 0.0:
        return zero(model.dim)
    return Operator(-w * mode.volume * model.current_along(mode.eps(sigma), mode.q_phase).matrix)


def coupling_f_electric(model: MatterModel, gauge: GaugeSpec, mode: ModeSpec,
                        sigma: int) -> Operator:
    """Electric part: i V nu eps.P_Tq with the multipolar polarisation."""
    w = gauge.electric_weight
    if w == 0.0:
        return zero(model.dim)
    pops = model.pol_transverse_mult(mode.q_hat, mode.q_phase)
    return along_op(mode.eps(sigma), pops) * (1j * mode.volume * mode.nu * w)


def _along_vectors(eps, vecs: dict, dim: int) -> np.ndarray:
    """sum_i eps_i v_i over the Cartesian components i that ``vecs`` holds,
    skipping zero weights as `along_op` does; zeros when no term is left."""
    terms = [eps[i] * v for i, v in vecs.items() if abs(eps[i]) > 1e-15]
    return sum(terms) if terms else np.zeros(dim, dtype=complex)


def coupling_rows(model: MatterModel, gauge: GaugeSpec, mode: ModeSpec,
                  g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Model-basis vectors <0|f and f|0> of the four coupling components.

    Rows run magnetic sigma = 1, 2, then electric sigma = 1, 2, for the
    operators of `coupling_f_magnetic` and `coupling_f_electric`; ``g`` is
    |0>.  In the long-wavelength limit no d x d operator is formed: with
    f = i w [eps.d, h_m],

        <0|f = i w ((<0|eps.d) h_m - (<0|h_m) eps.d),
        f|0> = i w (eps.d (h_m|0>) - h_m (eps.d|0>)),

    and the electric part i V nu w eps.d / V (eps is transverse to q, so
    it needs no projection) only <0|d_i and d_i|0>.  Every step is a
    vector-matrix product: O(d^2) for dense operators, O(nnz) for the
    sparse ones the builders emit, and none is formed for a dipole
    component that is identically zero, as two are on a two-level
    ensemble.  At finite q the operators are applied to g.
    """
    if mode.q_phase != 0.0:
        ops = [coupling(model, gauge, mode, s)
               for coupling in (coupling_f_magnetic, coupling_f_electric) for s in (1, 2)]
        return (np.stack([g.conj() @ op.matrix for op in ops]),
                np.stack([op.matrix @ g for op in ops]))
    bras = np.zeros((4, model.dim), dtype=complex)
    kets = np.zeros((4, model.dim), dtype=complex)
    h, dim = model.h_m.matrix, model.dim
    dips = {i: op.matrix for i, op in enumerate(model.dipole_ops)
            if (op.matrix.data if op.sparse else op.matrix).any()}
    bra_d = {i: g.conj() @ d for i, d in dips.items()}        # <0|d_i
    ket_d = {i: d @ g for i, d in dips.items()}               # d_i|0>
    w = gauge.paramagnetic_weight
    if w != 0.0:
        bra_h, ket_h = g.conj() @ h, h @ g
        bra_h_d = {i: bra_h @ d for i, d in dips.items()}     # <0|h_m d_i
        d_ket_h = {i: d @ ket_h for i, d in dips.items()}     # d_i h_m|0>
        for s in (1, 2):
            eps = mode.eps(s)
            bras[s - 1] = 1j * w * (_along_vectors(eps, bra_d, dim) @ h
                                    - _along_vectors(eps, bra_h_d, dim))
            kets[s - 1] = 1j * w * (_along_vectors(eps, d_ket_h, dim)
                                    - h @ _along_vectors(eps, ket_d, dim))
    w = gauge.electric_weight
    if w != 0.0:
        scale = 1j * mode.volume * mode.nu * w / model.params.volume
        for s in (1, 2):
            bras[1 + s] = scale * _along_vectors(mode.eps(s), bra_d, dim)
            kets[1 + s] = scale * _along_vectors(mode.eps(s), ket_d, dim)
    return bras, kets


def check_wavevector_decoupling(model: MatterModel, mode_a: ModeSpec,
                                mode_b: ModeSpec) -> float:
    """Magnitude of the neglected cross-momentum diamagnetic coupling.

    Returns |<psi0| sum_mu eps'_{q sigma}(r_mu) . eps'_{q' sigma'}(r_mu)
    |psi0>| / N maximised over polarisations, for q' != -q.  Two uniform
    modes (`q_phase` 0) give exactly zero by construction.
    """
    if mode_a.q_phase == 0.0 and mode_b.q_phase == 0.0:
        return 0.0
    qa, qb = mode_a.q_phase, mode_b.q_phase
    if abs(qa + qb) < 1e-12:
        raise ArgumentError("cross check requires q' != -q")
    if model.kind is not ModelKind.RING_LATTICE:
        raise UnsupportedError("finite-q dressed profiles implemented for the ring only")
    psi0 = ring_ground_state(model)
    L = model.dim
    phases = np.exp(-1j * (qa + qb) * np.arange(L))
    overlap = np.vdot(psi0, phases * psi0)
    gram = _axis_gram(model, mode_a)
    return float(np.max(np.abs(gram)) * abs(overlap) / model.params.n_charges)


def dressed_matter_hamiltonian(model: MatterModel, gauge: GaugeSpec,
                               modes: list[ModeSpec]) -> Operator:
    """Matter Hamiltonian including the retained-mode polarisation self-energy.

    Electric gauges add sum_sigma (eps.P V)^2 / (2 V) per retained mode for
    single-particle models; ensembles of disjoint dipoles absorb their
    self-energy into the model parameters and are returned unchanged.  The
    terms are products of the model's dipole operators, so a sparse h_m
    stays sparse.
    """
    w = gauge.electric_weight
    if w == 0.0 or not model.self_energy_in_electric_gauges:
        return model.h_m
    h = model.h_m
    for mode in modes:
        pops = model.pol_transverse_mult(mode.q_hat, mode.q_phase)
        for sigma in (1, 2):
            # (w V P_sigma)^2 / (2 V) with P already carrying 1/V
            pv = (along_op(mode.eps(sigma), pops) * (w * mode.volume)).matrix
            h = h + Operator((pv.conj().T @ pv) / (2.0 * mode.volume))
    return Operator(h.matrix, hermitian=True)


def gauge_spectrum(model: MatterModel, gauge: GaugeSpec,
                   modes: list[ModeSpec]) -> MatterSpectrum:
    """Spectrum of the gauge-dressed matter Hamiltonian."""
    return matter_spectrum(model, h_m=dressed_matter_hamiltonian(model, gauge, modes))
