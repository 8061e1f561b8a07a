"""Gauge-relative photon-condensation criterion for finite cavity models.

Pipeline: build a matter model, pick a gauge and a field mode, Bogoliubov-
diagonalize the photon block, evaluate the per-branch condensation
criterion from ground-state resolvent responses, and cross-check against
full light-matter diagonalization.
"""

from .bogoliubov import (
    BogoliubovBlock,
    adapt_degenerate_branches,
    coupling_g,
    diagonalize_block,
    numeric_block_eigen,
    verify_symplectic,
)
from .criterion import (
    CriterionReport,
    coulomb_specialized,
    dipole_specialized,
    displaced_energy,
    evaluate,
    order_parameter,
    stiffness_energy,
)
from .errors import (
    ArgumentError,
    ConfigError,
    DegenerateGroundStateError,
    GaugecavityError,
    NumericError,
    ResourceLimitError,
    SingularConstraintError,
    UnsupportedError,
)
from .gauge import (
    DiamagneticMatrix,
    GaugePreset,
    GaugeSpec,
    ModeSpec,
    check_wavevector_decoupling,
    coupling_f,
    diamagnetic_D,
    dressed_matter_hamiltonian,
    gauge_spectrum,
    lwl_mode,
    make_gauge,
    mode_from_q,
    ring_mode,
)
from .matter import (
    MatterModel,
    MatterSpectrum,
    ModelKind,
    ModelParams,
    build_anharmonic_dipole,
    build_ring_lattice,
    build_two_level_ensemble,
    check_uniform_density,
    matter_spectrum,
    ring_quasi_momentum,
    trk_sum,
)
from .operators import (
    EigenSystem,
    Operator,
    Statevector,
    boson_ladder,
    coherent_state,
    displacement,
    eigh,
    expectation,
    identity,
    tensor,
    vacuum,
    zero,
)
from .oracle import (
    FullSystem,
    constrained_min,
    full_hamiltonian,
    gauge_invariance_report,
    ground_state,
    parity_gap,
    photon_coherence,
    transverse_field_expectation,
    variational_scan,
)
from .response import (
    check_translational_invariance,
    chi_md,
    chi_md_from_model,
    lehmann_sum,
    polarizability,
    slrf,
    transverse_project,
)

__version__ = "0.1.0"
