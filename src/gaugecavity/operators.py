"""Operator algebra on finite Hilbert spaces.

Everything is dimensionless in natural units (hbar = c = eps0 = 1).
An operator is an immutable complex matrix, stored dense or, for the
banded matrices the matter builders assemble on more than DENSE_MAX_DIM
states, as a sparse CSR matrix; sums and products of two sparse operators
stay sparse.  Only the dense algorithms (full eigendecompositions, matrix
exponentials) ask for a dense view of a sparse operator, which is not
kept.  All functions here are pure, so concurrent use from several
threads is safe.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import ArgumentError, NumericError, ResourceLimitError

HERMITICITY_ATOL = 1e-12
MAX_TENSOR_DIM = 20000
# sparse input of at most this dimension is stored dense: there dense
# products are faster, and matter.ground_resolvent diagonalises fully.
# On a 2-core machine the dense and sparse criterion cost about the same
# near d = 200 (a two-level ensemble at d = 201 is faster dense, a 3-axis
# dipole at d = 216 faster sparse).
DENSE_MAX_DIM = 200


def _as_matrix(entries):
    """A square complex CSR matrix for sparse input above DENSE_MAX_DIM,
    else a dense array; either way its arrays are read-only."""
    if scipy.sparse.issparse(entries) and entries.shape[0] <= DENSE_MAX_DIM:
        entries = entries.toarray()
    if scipy.sparse.issparse(entries):
        m = scipy.sparse.csr_matrix(entries, dtype=complex)
        m.sum_duplicates()
    else:
        m = np.asarray(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ArgumentError(f"operator entries must be square, got shape {m.shape}")
    for part in (m.data, m.indices, m.indptr) if scipy.sparse.issparse(m) else (m,):
        part.setflags(write=False)
    return m


def _digest(*parts) -> bytes:
    """A 16-byte blake2b digest of the bytes of each array in ``parts`` and
    of the repr of anything else."""
    digest = hashlib.blake2b(digest_size=16)
    for part in parts:
        digest.update(np.ascontiguousarray(part).data if isinstance(part, np.ndarray)
                      else repr(part).encode())
    return digest.digest()


def _hermiticity_deviation(m) -> float:
    if scipy.sparse.issparse(m):
        return float(abs(m - m.conj().T).max()) if m.nnz else 0.0
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


@dataclass(frozen=True)
class Operator:
    """Complex square matrix with a Hermiticity hint.

    ``matrix`` is the stored form, a dense array or a CSR matrix; both
    multiply vectors from either side, and neither can be written to.
    ``entries`` is always dense: the stored array itself, or for a sparse
    operator a read-only copy made on each call and not kept.  ``digest``
    names the stored form and is computed once.  An operator flagged
    Hermitian is checked when it is made, unless it is a `real_multiple`
    of one the check found exactly Hermitian.
    """

    matrix: object
    hermitian: bool = False

    def __post_init__(self):
        m = _as_matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        dev = _hermiticity_deviation(m) if self.hermitian else None
        if dev is not None and dev > HERMITICITY_ATOL:
            raise ArgumentError(
                f"operator flagged hermitian deviates by {dev:.3e} > {HERMITICITY_ATOL}"
            )
        object.__setattr__(self, "_exact", dev == 0)

    def real_multiple(self, c: float) -> "Operator":
        """c times this operator for a real c, stored as ``c * self.matrix``.
        A real multiple of an exactly Hermitian matrix is exactly Hermitian,
        so where this operator's check found deviation 0 the multiple keeps
        the flag with no new check; any other multiple is made as usual."""
        c = float(c)
        if not self._exact:
            return Operator(c * self.matrix, hermitian=self.hermitian)
        out = Operator(c * self.matrix)
        object.__setattr__(out, "hermitian", True)
        object.__setattr__(out, "_exact", True)
        return out

    @functools.cached_property
    def digest(self) -> bytes:
        """A digest of the stored form: the dense array, or the CSR index
        arrays and values, with type, shape and dtype."""
        m = self.matrix
        arrays = (m,) if isinstance(m, np.ndarray) else (m.indptr, m.indices, m.data)
        return _digest(*arrays, (type(m).__name__, m.shape, m.dtype.str))

    @property
    def sparse(self) -> bool:
        return scipy.sparse.issparse(self.matrix)

    @property
    def entries(self) -> np.ndarray:
        if not self.sparse:
            return self.matrix
        dense = self.matrix.toarray()
        dense.setflags(write=False)
        return dense

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def dag(self) -> "Operator":
        return Operator(self.matrix.conj().T, hermitian=self.hermitian)

    def is_hermitian(self, atol: float = 1e-10) -> bool:
        return _hermiticity_deviation(self.matrix) <= atol

    def _combine(self, other: "Operator", fn) -> "Operator":
        """fn on the stored forms: sparse when both are, dense otherwise."""
        _check_same_dim(self, other)
        return Operator(fn(self.matrix, other.matrix))

    def __add__(self, other: "Operator") -> "Operator":
        return self._combine(other, lambda a, b: a + b)

    def __sub__(self, other: "Operator") -> "Operator":
        return self._combine(other, lambda a, b: a - b)

    def __matmul__(self, other: "Operator") -> "Operator":
        return self._combine(other, lambda a, b: a @ b)

    def __mul__(self, scalar) -> "Operator":
        return Operator(self.matrix * complex(scalar))

    __rmul__ = __mul__

    def norm_max(self) -> float:
        m = abs(self.matrix)
        return float(m.max()) if m.size else 0.0  # a sparse size counts stored entries


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
    return Operator(scipy.sparse.csr_matrix((dim, dim), dtype=complex), hermitian=True)


def tensor(a: Operator, b: Operator) -> Operator:
    """Kronecker product a (x) b, built sparse, so stored as CSR above
    DENSE_MAX_DIM states."""
    total = a.dim * b.dim
    if total > MAX_TENSOR_DIM:
        raise ResourceLimitError(f"tensor dimension {total} exceeds limit {MAX_TENSOR_DIM}")
    return Operator(scipy.sparse.kron(a.matrix, b.matrix, format="csr"),
                    hermitian=a.hermitian and b.hermitian)


def boson_ladder(cutoff: int) -> tuple[Operator, Operator]:
    """Annihilator and creator on a Fock space truncated at `cutoff` levels."""
    if cutoff < 2:
        raise ArgumentError(f"boson cutoff must be >= 2, got {cutoff}")
    a = np.zeros((cutoff, cutoff), dtype=complex)
    n = np.arange(1, cutoff)
    a[n - 1, n] = np.sqrt(n)
    return Operator(a), Operator(a.conj().T)


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each eigenvector so its largest-magnitude entry is real positive.

    Ties within 1e-12 of the maximum resolve to the lowest index, which
    pins the output bit-for-bit across repeats on the same platform.  A
    zero column is left as it is.
    """
    out = vectors.copy()
    if not out.size:
        return out
    mags = np.abs(out)
    pivot = out[np.argmax(mags >= mags.max(axis=0) - 1e-12, axis=0), np.arange(out.shape[1])]
    size = np.hypot(pivot.real, pivot.imag)  # libm's hypot, as abs() of one number
    turn = size > 0
    # each column times its own number in a loop of its own length, as
    # `out[:, k] *= c_k` multiplies it: numpy's vector loops round a
    # number differently in their tail, so a one-state column stays alone
    c = np.conj(pivot[turn]) / size[turn]
    if out.shape[0] > 1:
        out.T[turn] *= c[:, None]
    else:
        for k, ck in zip(np.flatnonzero(turn), c):
            out[:, k] *= ck
    return out


def eigh(h: Operator) -> EigenSystem:
    """Full Hermitian eigendecomposition with a deterministic phase convention."""
    m = h.entries
    dev = _hermiticity_deviation(m)
    if dev > 1e-10:
        raise ArgumentError(f"eigh input deviates from Hermitian by {dev:.3e}")
    sym = 0.5 * (m + m.conj().T)
    try:
        values, vectors = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericError(f"eigh failed to converge: {exc}") from exc
    vectors = _fix_phases(vectors)
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
    return complex(np.vdot(state.amplitudes, op.matrix @ state.amplitudes))
