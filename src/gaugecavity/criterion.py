"""Per-mode photon-condensation criterion and its gauge specialisations.

For each renormalised photon branch tau the verdict compares

    lhs_tau  >  lambda_tau^2 = rhs_tau,

where lhs_tau is the (negated) static response of the full coupling f,
paramagnetic plus electric component, projected onto the branch mixing
direction u_tau, and the reported magnetic_part_tau and electric_part_tau
are the same response of each component alone.  Same-field responses
pair an operator with its adjoint (C_{-q} = O_q^dag), which keeps every
part non-negative.  In the Coulomb and dipole gauges one component
vanishes and lhs_tau is the other part.  In the alpha gauges lhs_tau,
the response of the full f, equals the larger part to 5e-16 relative on
the ensembles and anharmonic dipoles tried: lhs = max(magnetic_part,
electric_part).  The finite-size oracle agrees (README): its thresholds
at alpha 1, 0.8, 0.5, 0.3 are 1.0054, 1.2575, 2.0155, 3.3719 d_c(N)
against 1.0000, 1.2500, 2.0000, 3.3330, and the sum would give 1.572 at
0.5.  It keeps the two-level truncation, which breaks gauge equivalence
(Di Stefano et al., Nat. Phys. 15, 803, 2019): it checks the algebra.

Under full rotational invariance about q the projection is immaterial and
the inequality is the scalar transverse criterion; for axis-aligned
anisotropic matter the u_tau projection pairs each response with the
branch whose frequency it actually renormalises, which is what the
brute-force oracle confirms.

The criterion runs in two steps.  `matter_point` reads what it needs of
one model, gauge and mode: an 8 x 8 resolvent Gram matrix, <0|f_sigma|0>
and the unchecked D and Delta_q.  `verdicts` forms the verdicts of a
stack of such points as array products, one Bogoliubov block per point.
`evaluate` is the two on one point, and a sweep runs `verdicts` once per
gauge and mode over all its points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bogoliubov import (BogoliubovBlock, adapt_degenerate_branches, branch_combination,
                         diagonalize_block)
from .errors import ArgumentError, SingularConstraintError, UnsupportedError
from .gauge import (DiamagneticMatrix, GaugePreset, GaugeSpec, ModeSpec, check_pairing,
                    coupling_f_electric, coupling_rows, diamagnetic_D, diamagnetic_parts,
                    dressed_matter_hamiltonian, gauge_spectrum)
from .matter import MatterModel, MatterSpectrum, ground_resolvent
from .operators import Operator
from .response import chi_md_from_model, lehmann_sum, polarizability

CONDENSED_MARGIN = 1e-9
REDUCTION_ATOL = 1e-8


@dataclass(frozen=True)
class CriterionReport:
    """Condensation verdict for one (mode, tau) pair."""

    tau: str
    lhs: float
    rhs: float
    electric_part: float
    magnetic_part: float
    beta0: complex
    margin: float = field(init=False)
    condensed: bool = field(init=False)

    def __post_init__(self):
        margin = self.lhs - self.rhs
        object.__setattr__(self, "margin", margin)
        object.__setattr__(self, "condensed", margin > CONDENSED_MARGIN)


# The 8 Gram columns are conj(<0|f_k) = f_k^dag|0> (slots 0-3) and f_k|0>
# (slots 4-7), k = magnetic sigma 1, 2, then electric sigma 1, 2.  Row
# sigma of _BRA[part] selects the f_sigma^dag|0> of that part of f; the
# same row of _KET[part], rolled by 4, selects f_sigma|0>.
_BRA = {"magnetic": np.eye(8)[[0, 1]], "electric": np.eye(8)[[2, 3]]}
_BRA["full"] = _BRA["magnetic"] + _BRA["electric"]
_KET = {part: np.roll(bra, 4, axis=1) for part, bra in _BRA.items()}


def evaluate(model: MatterModel, gauge: GaugeSpec, mode: ModeSpec,
             spectrum=None) -> tuple[CriterionReport, CriterionReport]:
    """Both-branch condensation verdicts at one mode: `verdicts` on the one
    `matter_point` of the model, gauge and mode.

    ``spectrum`` is a backend of `matter.ground_resolvent` for the
    gauge's dressed matter Hamiltonian, by default built here.
    """
    return verdicts([matter_point(model, gauge, mode, spectrum)])[0]


@dataclass(frozen=True)
class MatterPoint:
    """What the criterion reads of one model, gauge and mode, with no model:
    the 8 x 8 resolvent Gram matrix, f0 = <0|f_sigma|0>, D and Delta_q as
    `gauge.diamagnetic_parts` gives them (`verdicts` checks them), the
    model's volume and the mode."""

    gram: np.ndarray
    f0: np.ndarray
    d: np.ndarray
    delta_q: float
    volume: float
    mode: ModeSpec


def matter_point(model: MatterModel, gauge: GaugeSpec, mode: ModeSpec,
                 spectrum=None) -> MatterPoint:
    """The matter step of the criterion: one Gram matrix
    M = C^dag Q (H - E_0)^-1 Q C, whose columns C are f_k^dag|0> and f_k|0>
    for the four coupling components (`coupling_rows`), and <0|f_sigma|0>.
    ``spectrum`` is as for `evaluate`."""
    check_pairing(model, gauge, mode)
    if spectrum is None:
        spectrum = ground_resolvent(model, dressed_matter_hamiltonian(model, gauge, [mode]))
    g = spectrum.ground_state_vector()
    bras, kets = coupling_rows(model, gauge, mode, g)
    d, delta = diamagnetic_parts(model, gauge, mode)
    return MatterPoint(gram=spectrum.gram(np.concatenate([bras.conj(), kets]).T),
                       f0=(bras[:2] + bras[2:]) @ g, d=d, delta_q=delta,
                       volume=model.params.volume, mode=mode)


def _vec(rows: np.ndarray) -> np.ndarray:
    """Rows as a stack of 1 x n matrices, so that `@` takes them one at a time."""
    return rows[..., None, :]


def _col(rows: np.ndarray) -> np.ndarray:
    """Rows as a stack of n x 1 matrices."""
    return rows[..., :, None]


def verdicts(points: list[MatterPoint]) -> list[tuple[CriterionReport, CriterionReport]]:
    """Both-branch condensation verdicts at each of a stack of points of one
    mode frequency, formed as array products over the stack.

    One `DiamagneticMatrix` checks every point's D and one
    `diagonalize_block` diagonalises them.  With the branch coupling
    G_tau = sum_sigma (w f_sigma - y f_sigma^dag), the rows <0|G|n> and
    <n|G|0> are conj(<n|C p>) and <n|C q> for the coefficient vectors
    p = branch_combination(bra, ket), q = branch_combination(ket, bra), so
    the Eq.-(22)-normalised instability strength

        X = sum_n (|<0|G|n>|^2 + |<n|G|0>|^2) / de_n = p.M.p + q.M.q,
        W = 2 sum_n <0|G|n><n|G|0> / de_n = 2 p.M.q,
        lhs = lambda (X + |W|) / (2 nu^2 V)  against  rhs = lambda^2,

    and chi_ff is the bra-bra block.  For purely Hermitian or purely
    anti-Hermitian G the pair collapses to the transverse response sum of
    the underlying fields.  beta_0 = -(A_q / nu_tau) sum_sigma
    h_{sigma tau} <0|f_sigma|0>, which does not depend on the phase of |0>.

    Each product takes one point at a time, as `@` does on a single
    point, so a point's verdicts do not depend on the stack it is in;
    squares and moduli use libm's pow and hypot, which round as Python's
    float ** and abs do on a scalar.
    """
    nu = points[0].mode.nu
    if any(pt.mode.nu != nu for pt in points):
        raise ArgumentError("the points of a stack must share one mode frequency")
    m = np.stack([pt.gram for pt in points])
    volume = np.array([pt.volume for pt in points])
    mode_volume = np.array([pt.mode.volume for pt in points])
    amplitude = np.array([pt.mode.amplitude for pt in points])
    block = diagonalize_block(DiamagneticMatrix(
        d=np.stack([pt.d for pt in points]), delta_q=np.array([pt.delta_q for pt in points])), nu)
    full = _BRA["full"]
    x_ff = (-2.0 * volume)[:, None, None] * (full @ m @ full.T) \
        / np.float_power(mode_volume * nu, 2)[:, None, None]
    block = adapt_degenerate_branches(block, x_ff)
    off = float(np.max(np.abs(_vec(block.u[:, 0]) @ x_ff @ _col(block.u[:, 1]))))
    if off > REDUCTION_ATOL:
        raise UnsupportedError(
            f"branch decoupling fails: |u+ . chi_ff . u-| = {off:.3e} > {REDUCTION_ATOL}; "
            "the per-branch criterion requires rotational symmetry about q or "
            "axis-aligned matter")
    coeffs = np.moveaxis(block.coeffs, -1, 0)[..., None]  # coeffs[k][point, tau, None]
    m = m[:, None]  # one Gram matrix per point, for both branches
    lam = block.lambdas
    scale = 2.0 * np.float_power(nu, 2) * mode_volume[:, None]
    value = {}
    for part, bra in _BRA.items():
        p = branch_combination(coeffs, bra, _KET[part])
        q = branch_combination(coeffs, _KET[part], bra)
        pm = _vec(p) @ m
        x_sum = (pm @ _col(p) + _vec(q) @ m @ _col(q)).real[..., 0, 0]
        w_sum = 2.0 * (pm @ _col(q))[..., 0, 0]
        value[part] = lam * (x_sum + np.hypot(w_sum.real, w_sum.imag)) / scale
    f0 = np.stack([pt.f0 for pt in points])[:, None]  # <0|f_sigma|0>, for both branches
    h_f0 = (_vec(np.swapaxes(block.h, -1, -2)) @ _col(f0))[..., 0, 0]
    columns = [a.tolist() for a in (value["full"], np.float_power(lam, 2), value["electric"],
                                    value["magnetic"], -amplitude[:, None] / block.nu_tau * h_f0)]
    return [tuple(CriterionReport(tau, *(c[i][t] for c in columns))
                  for t, tau in enumerate(BogoliubovBlock.TAUS)) for i in range(len(points))]


@dataclass(frozen=True)
class SpecializedReport:
    lhs: float
    rhs: float
    condensed: bool
    cross_check_residual: float


def coulomb_specialized(model: MatterModel, gauge: GaugeSpec, mode: ModeSpec,
                        spectrum=None) -> SpecializedReport:
    """Coulomb-gauge composition -chi^{MM}_Tq > 1.

    chi^{MM} = chi^{MpMp} - chi^{Md}; the residual field reports agreement
    with the general criterion margin, |(-chi^{MM}) - (lhs - rhs + 1)|,
    which is an algebraic identity through lambda^2 = 1 - chi^{Md}.
    ``spectrum`` is a backend of `matter.ground_resolvent`, as for
    `evaluate`.
    """
    if gauge.preset is not GaugePreset.COULOMB:
        raise ArgumentError("coulomb_specialized requires the Coulomb gauge")
    if spectrum is None:
        spectrum = ground_resolvent(model, dressed_matter_hamiltonian(model, gauge, [mode]))
    reports = evaluate(model, gauge, mode, spectrum=spectrum)
    block = diagonalize_block(diamagnetic_D(model, gauge, mode), mode.nu)
    chi_d = chi_md_from_model(spectrum, mode.nu)
    # the physically coupled branch is the one whose lambda is renormalised
    idx = int(np.argmax(np.abs(block.lambdas - 1.0)))
    rep = reports[idx]
    lhs = rep.magnetic_part + chi_d
    residual = abs(lhs - (rep.margin + 1.0))
    return SpecializedReport(lhs=float(lhs), rhs=1.0,
                             condensed=bool(lhs - 1.0 > CONDENSED_MARGIN),
                             cross_check_residual=float(residual))


def dipole_specialized(model: MatterModel, gauge: GaugeSpec, mode: ModeSpec,
                       spectrum: MatterSpectrum | None = None) -> SpecializedReport:
    """Dipole-gauge criterion -chi^{P_T P_T}_Tq > 1 with polarisability check.

    The residual reports max_sigma |(-V chi^{PP}_{sigma sigma}) - eps.alpha(0).eps|,
    an exact identity when both sides use the same spectrum.
    """
    if gauge.preset is not GaugePreset.DIPOLE:
        raise ArgumentError("dipole_specialized requires the dipole gauge")
    if spectrum is None:
        spectrum = gauge_spectrum(model, gauge, [mode])
    reports = evaluate(model, gauge, mode, spectrum=spectrum)
    lhs = max(r.electric_part for r in reports)
    fe = tuple(coupling_f_electric(model, gauge, mode, s) for s in (1, 2))
    scale = (mode.volume * mode.nu) ** 2
    x_pp = lehmann_sum(spectrum, fe) / scale
    alpha = polarizability(spectrum, 0.0)
    residual = 0.0
    for s, eps in ((0, mode.eps1), (1, mode.eps2)):
        lhs_id = -mode.volume * x_pp[s, s].real
        rhs_id = float(eps @ alpha @ eps)
        residual = max(residual, abs(lhs_id - rhs_id))
    return SpecializedReport(lhs=float(lhs), rhs=1.0,
                             condensed=bool(lhs - 1.0 > CONDENSED_MARGIN),
                             cross_check_residual=float(residual))


def order_parameter(psi: np.ndarray, block: BogoliubovBlock, g_op: Operator,
                    mode: ModeSpec, t: int) -> complex:
    """beta_{q tau} = -(A_q / nu_tau) <psi| g_tau |psi> for branch index t."""
    g = complex(psi.conj() @ (g_op.matrix @ psi))
    return -mode.amplitude / block.nu_tau[t] * g


def displaced_energy(h_m_expectation: float, block_or_nu,
                     betas, occupations) -> float:
    """E = H_m + sum_tau nu_tau (n_tau + 1/2 - |beta_tau|^2).

    ``block_or_nu`` is a BogoliubovBlock (both branches) or an explicit
    array of branch frequencies matching the beta/occupation arrays.
    """
    nu = (block_or_nu.nu_tau if isinstance(block_or_nu, BogoliubovBlock)
          else np.asarray(block_or_nu, dtype=float))
    betas = np.asarray(betas, dtype=complex)
    occ = np.asarray(occupations, dtype=float)
    if not (betas.shape == occ.shape == nu.shape):
        raise ArgumentError("betas and occupations must have one entry per branch")
    if np.any(occ < 0) or np.any(occ != np.round(occ)):
        raise ArgumentError("occupations must be non-negative integers")
    return float(h_m_expectation + np.sum(nu * (occ + 0.5 - np.abs(betas) ** 2)))


@dataclass(frozen=True)
class StiffnessResult:
    energy: float
    energy_increase: float
    lagrange_fields: tuple  # F_{-q tau} diagnostic per branch
    chi_ff_branch: tuple


def stiffness_energy(spectrum, mode: ModeSpec,
                     block: BogoliubovBlock, dbeta, f_ops) -> StiffnessResult:
    """Quadratic constrained-minimum energy for branch displacements dbeta.

    E(dbeta) = E(0) - (V/2) sum_{+/-q, tau} [nu_tau^2 lambda_tau /
    (A_q^2 chi^{ff}_tau)] |dbeta_tau|^2, with chi^{ff}_tau the
    u_tau-projected coupling response (negative), so the energy increase
    is non-negative.  A finite-q mode displaces its Hermitian conjugate
    partner at -q along with it, which doubles the matter cost; a
    self-conjugate mode (uniform field, or the zone-boundary momentum)
    has no partner.  ``spectrum`` is any backend of
    `matter.ground_resolvent`.
    """
    dbeta = np.asarray(dbeta, dtype=complex)
    if dbeta.shape != (2,):
        raise ArgumentError("dbeta must have one entry per branch")
    chi = lehmann_sum(spectrum, f_ops)
    block = adapt_degenerate_branches(block, chi)
    u = block.u
    e0 = spectrum.ground_energy()
    v = spectrum.model.params.volume
    a2 = mode.amplitude ** 2
    q_mod = abs(mode.q_phase) % (2.0 * np.pi)
    self_conjugate = min(q_mod, abs(q_mod - np.pi), abs(q_mod - 2 * np.pi)) < 1e-12
    pair_weight = 1.0 if self_conjugate else 2.0
    increase = 0.0
    fields = []
    chis = []
    for t in range(2):
        chi_t = float((u[t] @ chi @ u[t]).real)
        chis.append(chi_t)
        if abs(dbeta[t]) == 0:
            fields.append(0.0 + 0.0j)
            continue
        if abs(chi_t) < 1e-30:
            raise SingularConstraintError(
                f"chi^ff for branch {BogoliubovBlock.TAUS[t]} vanishes; "
                "no matter state realises the requested displacement")
        nu_t = block.nu_tau[t]
        lam_t = block.lambdas[t]
        f_field = np.conj(dbeta[t]) * nu_t ** 2 * lam_t / (a2 * chi_t)
        fields.append(complex(f_field))
        increase += -0.5 * pair_weight * v \
            * (nu_t ** 2 * lam_t / (a2 * chi_t)) * abs(dbeta[t]) ** 2
    return StiffnessResult(energy=e0 + increase, energy_increase=increase,
                           lagrange_fields=tuple(fields), chi_ff_branch=tuple(chis))
