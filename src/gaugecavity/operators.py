"""Dense operator algebra on finite Hilbert spaces.

Everything is dimensionless in natural units (hbar = c = eps0 = 1).
Operators are immutable dense complex matrices; all functions here are
pure, so concurrent use from several threads is safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ArgumentError, NumericError, ResourceLimitError

HERMITICITY_ATOL = 1e-12
UNITARITY_ATOL = 1e-10
MAX_TENSOR_DIM = 20000


def _as_matrix(entries) -> np.ndarray:
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ArgumentError(f"operator entries must be square, got shape {m.shape}")
    return m


@dataclass(frozen=True)
class Operator:
    """Dense complex matrix with a Hermiticity hint."""

    entries: np.ndarray
    hermitian: bool = False

    def __post_init__(self):
        m = _as_matrix(self.entries)
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)
        if self.hermitian:
            dev = np.max(np.abs(m - m.conj().T)) if m.size else 0.0
            if dev > HERMITICITY_ATOL:
                raise ArgumentError(
                    f"operator flagged hermitian deviates by {dev:.3e} > {HERMITICITY_ATOL}"
                )

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def dag(self) -> "Operator":
        return Operator(self.entries.conj().T, hermitian=self.hermitian)

    def is_hermitian(self, atol: float = 1e-10) -> bool:
        return bool(np.max(np.abs(self.entries - self.entries.conj().T)) <= atol)

    def __add__(self, other: "Operator") -> "Operator":
        _check_same_dim(self, other)
        return Operator(self.entries + other.entries)

    def __sub__(self, other: "Operator") -> "Operator":
        _check_same_dim(self, other)
        return Operator(self.entries - other.entries)

    def __matmul__(self, other: "Operator") -> "Operator":
        _check_same_dim(self, other)
        return Operator(self.entries @ other.entries)

    def __mul__(self, scalar) -> "Operator":
        return Operator(self.entries * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "Operator":
        return Operator(-self.entries)

    def norm_max(self) -> float:
        return float(np.max(np.abs(self.entries))) if self.entries.size else 0.0


def _check_same_dim(a: Operator, b: Operator):
    if a.dim != b.dim:
        raise ArgumentError(f"dimension mismatch: {a.dim} vs {b.dim}")


@dataclass(frozen=True)
class Statevector:
    """Normalised state on a finite Hilbert space."""

    amplitudes: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        nrm = np.linalg.norm(v)
        if abs(nrm - 1.0) > 1e-12:
            raise ArgumentError(f"state norm {nrm} differs from 1 beyond 1e-12")
        v.setflags(write=False)
        object.__setattr__(self, "amplitudes", v)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues and unitary column eigenvectors of a Hermitian matrix."""

    values: np.ndarray
    vectors: np.ndarray

    dim: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "dim", self.values.shape[0])
        self.values.setflags(write=False)
        self.vectors.setflags(write=False)


def identity(dim: int) -> Operator:
    return Operator(np.eye(dim, dtype=complex), hermitian=True)


def zero(dim: int) -> Operator:
    return Operator(np.zeros((dim, dim), dtype=complex), hermitian=True)


def tensor(a: Operator, b: Operator, max_dim: int = MAX_TENSOR_DIM) -> Operator:
    """Kronecker product a (x) b."""
    total = a.dim * b.dim
    if total > max_dim:
        raise ResourceLimitError(f"tensor dimension {total} exceeds limit {max_dim}")
    return Operator(np.kron(a.entries, b.entries), hermitian=a.hermitian and b.hermitian)


def boson_ladder(cutoff: int) -> tuple[Operator, Operator]:
    """Annihilator and creator on a Fock space truncated at `cutoff` levels."""
    if cutoff < 2:
        raise ArgumentError(f"boson cutoff must be >= 2, got {cutoff}")
    a = np.zeros((cutoff, cutoff), dtype=complex)
    n = np.arange(1, cutoff)
    a[n - 1, n] = np.sqrt(n)
    return Operator(a), Operator(a.conj().T)


def number_operator(cutoff: int) -> Operator:
    return Operator(np.diag(np.arange(cutoff, dtype=float)).astype(complex), hermitian=True)


def _fix_phases(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Rotate each eigenvector so its largest-magnitude entry is real positive.

    Ties within 1e-12 of the maximum resolve to the lowest index, which
    pins the output bit-for-bit across repeats on the same platform.
    """
    out = vectors.copy()
    mags = np.abs(out)
    for k in range(out.shape[1]):
        col = mags[:, k]
        top = col.max()
        idx = int(np.flatnonzero(col >= top - 1e-12)[0])
        pivot = out[idx, k]
        if abs(pivot) > 0:
            out[:, k] *= np.conj(pivot) / abs(pivot)
    return out


def eigh(h: Operator) -> EigenSystem:
    """Full Hermitian eigendecomposition with a deterministic phase convention."""
    dev = np.max(np.abs(h.entries - h.entries.conj().T)) if h.entries.size else 0.0
    if dev > 1e-10:
        raise ArgumentError(f"eigh input deviates from Hermitian by {dev:.3e}")
    sym = 0.5 * (h.entries + h.entries.conj().T)
    try:
        values, vectors = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericError(f"eigh failed to converge: {exc}") from exc
    vectors = _fix_phases(values, vectors)
    return EigenSystem(values=values, vectors=vectors)


def displacement(beta: complex, cutoff: int) -> Operator:
    """exp(beta c^dag - beta* c) on a truncated Fock space."""
    c, cdag = boson_ladder(cutoff)
    gen = beta * cdag.entries - np.conj(beta) * c.entries
    return Operator(scipy.linalg.expm(gen))


def vacuum(cutoff: int) -> Statevector:
    v = np.zeros(cutoff, dtype=complex)
    v[0] = 1.0
    return Statevector(v)


def basis_state(dim: int, index: int) -> Statevector:
    if not 0 <= index < dim:
        raise ArgumentError(f"basis index {index} outside [0, {dim})")
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return Statevector(v)


def coherent_state(beta: complex, cutoff: int) -> Statevector:
    amp = displacement(beta, cutoff).entries[:, 0]
    return Statevector(amp / np.linalg.norm(amp))


def expectation(state: Statevector, op: Operator) -> complex:
    """<psi|O|psi>."""
    if state.dim != op.dim:
        raise ArgumentError(f"state dim {state.dim} does not match operator dim {op.dim}")
    return complex(np.vdot(state.amplitudes, op.entries @ state.amplitudes))


def apply(op: Operator, state: Statevector) -> Statevector:
    out = op.entries @ state.amplitudes
    return Statevector(out / np.linalg.norm(out))
