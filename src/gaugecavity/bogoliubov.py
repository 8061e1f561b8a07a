"""Two-polarisation Bogoliubov diagonalisation of the diamagnetic photon block.

The quadratic photon Hamiltonian per mode,

    nu (a1+ a1 + a2+ a2 + 1) + Delta sum_{ss'} D_{ss'} (a_s + a_s+)(a_s' + a_s'+),

is absorbed by new bosons c_tau = w a1 + x a2 + y a1+ + z a2+ with
renormalised frequencies nu_tau = nu * lambda_tau,

    lambda_{+/-} = sqrt(1 + (2 Delta / nu) [D11 + D22 +/- sqrt((D11-D22)^2 + 4 D12^2)]).

The mixing directions are the eigenvectors u_tau of D (u_+ for the larger
eigenvalue), and along each direction the problem is a single-mode
squeeze:

    (w, x) = -u_tau (lambda+1) / (2 sqrt(lambda)),
    (y, z) = -u_tau (lambda-1) / (2 sqrt(lambda)),

which reproduces the closed forms quoted for D12 = 0 limits, stays finite
at lambda = 1, and satisfies the symplectic normalisation
w^2 + x^2 - y^2 - z^2 = 1 identically.  Degenerate D uses the fixed
convention u_tau = (tau, 1)/sqrt(2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ArgumentError, NumericError
from .gauge import DiamagneticMatrix
from .operators import Operator

DEGENERATE_ATOL = 1e-13


@dataclass(frozen=True)
class BogoliubovBlock:
    """Per-mode record of the transformation; tau index 0 = '+', 1 = '-'."""

    nu_q: float
    delta_q: float
    lambdas: np.ndarray        # (lambda_plus, lambda_minus)
    coeffs: np.ndarray         # rows tau, columns (w, x, y, z)
    u: np.ndarray              # rows tau: mixing direction in polarisation space
    d_q: float                 # (D11 - D22) / (2 D12); inf when singular

    TAUS = ("+", "-")

    @property
    def lambda_plus(self) -> float:
        return float(self.lambdas[0])

    @property
    def lambda_minus(self) -> float:
        return float(self.lambdas[1])

    @property
    def nu_tau(self) -> np.ndarray:
        return self.nu_q * self.lambdas

    @property
    def h(self) -> np.ndarray:
        """h[sigma, tau] with h_{1 tau} = w - y, h_{2 tau} = x - z."""
        w, x, y, z = (self.coeffs[:, k] for k in range(4))
        return np.stack([w - y, x - z], axis=0)

    def mixing_matrix(self) -> np.ndarray:
        """4x4 M with (c+, c-, c+^dag, c-^dag) = M (a1, a2, a1+, a2+)."""
        u = self.coeffs[:, :2]
        v = self.coeffs[:, 2:]
        return np.block([[u, v], [v.conj(), u.conj()]])


def _lambda_closed_form(d: np.ndarray, delta: float, nu: float) -> np.ndarray:
    tr = d[0, 0] + d[1, 1]
    rad = np.sqrt((d[0, 0] - d[1, 1]) ** 2 + 4.0 * d[0, 1] ** 2)
    vals = 1.0 + (2.0 * delta / nu) * np.array([tr + rad, tr - rad])
    if vals.min() <= 0:
        raise ArgumentError(f"unphysical block: lambda^2 = {vals.min():.3e} <= 0")
    return np.sqrt(vals)


def _orient(u: np.ndarray) -> np.ndarray:
    """Rows of u with the sign convention: second component positive, or the
    first when the second vanishes."""
    out = u.copy()
    for k in range(2):
        pivot = out[k, 1] if abs(out[k, 1]) > 1e-12 else out[k, 0]
        if pivot < 0:
            out[k] = -out[k]
    return out


def _squeeze_coeffs(u: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Rows (w, x, y, z) of the single-mode squeeze along each direction u_tau."""
    coeffs = np.zeros((2, 4))
    for t in range(2):
        lt = lam[t]
        coeffs[t, 0:2] = -(lt + 1.0) / (2.0 * np.sqrt(lt)) * u[t]
        coeffs[t, 2:4] = -(lt - 1.0) / (2.0 * np.sqrt(lt)) * u[t]
    return coeffs


def _mixing_directions(d: np.ndarray) -> np.ndarray:
    """Eigenvectors of D as rows (larger eigenvalue first), deterministic signs."""
    if abs(d[0, 0] - d[1, 1]) <= DEGENERATE_ATOL and abs(d[0, 1]) <= DEGENERATE_ATOL:
        return np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0)
    _, vecs = np.linalg.eigh(0.5 * (d + d.T))
    return _orient(vecs[:, ::-1].T)  # descending eigenvalue order


def diagonalize_block(dmat: DiamagneticMatrix, nu_q: float) -> BogoliubovBlock:
    """Closed-form Bogoliubov block for a symmetric PSD diamagnetic matrix."""
    if nu_q <= 0:
        raise ArgumentError(f"mode frequency must be positive, got {nu_q}")
    d = np.asarray(dmat.d, dtype=float)
    lam = _lambda_closed_form(d, dmat.delta_q, nu_q)
    u = _mixing_directions(d)
    if abs(d[0, 1]) > DEGENERATE_ATOL:
        d_q = (d[0, 0] - d[1, 1]) / (2.0 * d[0, 1])
    elif abs(d[0, 0] - d[1, 1]) <= DEGENERATE_ATOL:
        d_q = 0.0
    else:
        d_q = np.inf
    return BogoliubovBlock(nu_q=float(nu_q), delta_q=float(dmat.delta_q), lambdas=lam,
                           coeffs=_squeeze_coeffs(u, lam), u=u, d_q=float(d_q))


def numeric_block_eigen(dmat: DiamagneticMatrix, nu_q: float
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Pseudo-eigenvalues of the 4x4 block [[zeta, -eta], [eta, -zeta]].

    Returns the positive eigenvalue pair as lambdas (descending) and the
    eigenvector matrix; the spectrum is {+nu_tau/2, -nu_tau/2}.
    """
    d = np.asarray(dmat.d, dtype=float)
    a = 2.0 * dmat.delta_q * d[0, 0]
    b = 2.0 * dmat.delta_q * d[1, 1]
    g = 2.0 * dmat.delta_q * d[0, 1]
    zeta = 0.5 * np.array([[nu_q + a, g], [g, nu_q + b]])
    eta = 0.5 * np.array([[a, g], [g, b]])
    block = np.block([[zeta, -eta], [eta, -zeta]])
    vals, vecs = np.linalg.eig(block)
    if np.max(np.abs(vals.imag)) > 1e-9 * max(nu_q, 1.0):
        raise NumericError("pseudo-eigenproblem returned complex frequencies")
    vals = vals.real
    pos = np.sort(vals[vals > 0])[::-1]
    if pos.shape[0] != 2:
        raise NumericError(f"expected two positive pseudo-eigenvalues, got {pos.shape[0]}")
    lam = 2.0 * pos / nu_q
    return lam, vecs


def adapt_degenerate_branches(block: BogoliubovBlock, x_ff: np.ndarray
                              ) -> BogoliubovBlock:
    """Align branch directions with the coupling response when lambdas coincide.

    Inside a degenerate block every Bogoliubov rotation of the pair is
    equally valid; the displacement optimisation selects the eigenframe of
    the projected response, most unstable direction (most negative chi)
    on the '+' branch.  Non-degenerate blocks are returned unchanged.
    """
    if abs(block.lambdas[0] - block.lambdas[1]) > 1e-12 * max(1.0, block.lambdas[0]):
        return block
    sym = 0.5 * (x_ff + x_ff.conj().T).real
    _, vecs = np.linalg.eigh(sym)
    u = _orient(vecs.T)  # ascending eigenvalue: most unstable first -> '+'
    return replace(block, coeffs=_squeeze_coeffs(u, block.lambdas), u=u)


def verify_symplectic(block: BogoliubovBlock) -> float:
    """max-norm deviation of M K M^dag from K, K = diag(1, 1, -1, -1)."""
    m = block.mixing_matrix()
    k = np.diag([1.0, 1.0, -1.0, -1.0])
    return float(np.max(np.abs(m @ k @ m.conj().T - k)))


def branch_combination(block: BogoliubovBlock, t: int, a, b):
    """sum_sigma (w_{tau sigma} a_sigma - y_{tau sigma} b_sigma) for branch t.

    With a = f and b = f^dag this is G_tau, the operator multiplying
    c_tau^dag once the inverse Bogoliubov transformation is substituted into
    the bare interaction; a and b may be dense or sparse matrices or
    ground-state matrix-element rows.
    """
    out = 0.0
    for s in range(2):
        out = out + block.coeffs[t, s] * a[s] - block.coeffs[t, 2 + s] * b[s]
    return out


def _branch_operators(block: BogoliubovBlock, f_sigma: tuple[Operator, Operator],
                      adjoint: bool) -> tuple[Operator, Operator]:
    """`branch_combination` of f with b = f^dag (``adjoint``) or b = f, as
    operators for tau = +, -, sparse when both components are."""
    if f_sigma[0].dim != f_sigma[1].dim:
        raise ArgumentError("polarisation components act on different spaces")
    f = [op.matrix for op in f_sigma]
    b = [m.conj().T for m in f] if adjoint else f
    return tuple(Operator(branch_combination(block, t, f, b)) for t in range(2))


def exact_branch_coupling(block: BogoliubovBlock,
                          f_sigma: tuple[Operator, Operator]
                          ) -> tuple[Operator, Operator]:
    """G_tau = sum_sigma (w_{tau sigma} f_sigma - y_{tau sigma} f_sigma^dag)."""
    return _branch_operators(block, f_sigma, adjoint=True)


def coupling_g(block: BogoliubovBlock, f_sigma: tuple[Operator, Operator]
               ) -> tuple[Operator, Operator]:
    """g_tau = sum_sigma h_{sigma tau} (eps_sigma . f_q), h = w - y: the
    `branch_combination` with b = f, equal to G_tau for Hermitian f or
    unsqueezed branches."""
    return _branch_operators(block, f_sigma, adjoint=False)
