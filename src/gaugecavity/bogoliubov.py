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
convention u_tau = (tau, 1)/sqrt(2).  A stack of D matrices is
diagonalised, and checked, in one pass.
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
    """Per-mode record of the transformation; tau index 0 = '+', 1 = '-'.

    Built from a stack of D matrices, every field but ``nu_q`` carries the
    stack's leading axes, which `nu_tau`, `h`, `mixing_matrix`,
    `adapt_degenerate_branches` and `verify_symplectic` keep;
    `lambda_plus`, `lambda_minus` and the branch operators take a single
    block.
    """

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
        """h[..., sigma, tau] with h_{1 tau} = w - y, h_{2 tau} = x - z."""
        w, x, y, z = np.moveaxis(self.coeffs, -1, 0)
        return np.stack([w - y, x - z], axis=-2)

    def mixing_matrix(self) -> np.ndarray:
        """4x4 M with (c+, c-, c+^dag, c-^dag) = M (a1, a2, a1+, a2+), per
        block of a stack."""
        u = self.coeffs[..., :2]
        v = self.coeffs[..., 2:]
        return np.concatenate([np.concatenate([u, v], axis=-1),
                               np.concatenate([v.conj(), u.conj()], axis=-1)], axis=-2)


# The helpers below act on the trailing axes of D (..., 2, 2), of the
# directions u and the coefficient rows, and broadcast over any leading
# ones: a stack of blocks is diagonalised in one pass, and a single block
# is the stack of shape ().


def _lambda_closed_form(d: np.ndarray, delta, nu: float) -> np.ndarray:
    tr = d[..., 0, 0] + d[..., 1, 1]
    rad = np.sqrt((d[..., 0, 0] - d[..., 1, 1]) ** 2 + 4.0 * d[..., 0, 1] ** 2)
    vals = 1.0 + (2.0 * np.asarray(delta) / nu)[..., None] * np.stack([tr + rad, tr - rad], -1)
    if vals.min() <= 0:
        raise ArgumentError(f"unphysical block: lambda^2 = {vals.min():.3e} <= 0")
    return np.sqrt(vals)


def _orient(u: np.ndarray) -> np.ndarray:
    """Rows of u with the sign convention: second component positive, or the
    first when the second vanishes."""
    pivot = np.where(np.abs(u[..., 1]) > 1e-12, u[..., 1], u[..., 0])
    return np.where(pivot[..., None] < 0, -u, u)


def _squeeze_coeffs(u: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Rows (w, x, y, z) of the single-mode squeeze along each direction u_tau."""
    lt = lam[..., None]
    root = 2.0 * np.sqrt(lt)
    return np.concatenate([-(lt + 1.0) / root * u, -(lt - 1.0) / root * u], axis=-1)


def _mixing_directions(d: np.ndarray) -> np.ndarray:
    """Eigenvectors of D as rows (larger eigenvalue first), deterministic
    signs, and the fixed convention for a degenerate D."""
    _, vecs = np.linalg.eigh(0.5 * (d + np.swapaxes(d, -1, -2)))
    u = _orient(np.swapaxes(vecs[..., ::-1], -1, -2))  # descending eigenvalue order
    degenerate = (np.abs(d[..., 0, 0] - d[..., 1, 1]) <= DEGENERATE_ATOL) & \
        (np.abs(d[..., 0, 1]) <= DEGENERATE_ATOL)
    return np.where(degenerate[..., None, None],
                    np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0), u)


def diagonalize_block(dmat: DiamagneticMatrix, nu_q: float) -> BogoliubovBlock:
    """Closed-form Bogoliubov block for a symmetric PSD diamagnetic matrix,
    or for each of a stack of them."""
    if nu_q <= 0:
        raise ArgumentError(f"mode frequency must be positive, got {nu_q}")
    d = dmat.d
    lam = _lambda_closed_form(d, dmat.delta_q, nu_q)
    u = _mixing_directions(d)
    d12, split = d[..., 0, 1], d[..., 0, 0] - d[..., 1, 1]
    coupled = np.abs(d12) > DEGENERATE_ATOL
    d_q = np.where(coupled, split / (2.0 * np.where(coupled, d12, 1.0)),
                   np.where(np.abs(split) <= DEGENERATE_ATOL, 0.0, np.inf))
    return BogoliubovBlock(nu_q=float(nu_q), delta_q=dmat.delta_q, lambdas=lam,
                           coeffs=_squeeze_coeffs(u, lam), u=u,
                           d_q=d_q if d_q.ndim else float(d_q))


def numeric_block_eigen(dmat: DiamagneticMatrix, nu_q: float
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Pseudo-eigenvalues of the 4x4 block [[zeta, -eta], [eta, -zeta]].

    Returns the positive eigenvalue pair as lambdas (descending) and the
    eigenvector matrix; the spectrum is {+nu_tau/2, -nu_tau/2}.  A stack
    of D gives a stack of each.
    """
    d = dmat.d
    two_delta = 2.0 * np.asarray(dmat.delta_q)
    a = two_delta * d[..., 0, 0]
    b = two_delta * d[..., 1, 1]
    g = two_delta * d[..., 0, 1]

    def sym(p, r, s):  # [[p, r], [r, s]] over the stack
        return np.stack([np.stack([p, r], -1), np.stack([r, s], -1)], -2)

    zeta = 0.5 * sym(nu_q + a, g, nu_q + b)
    eta = 0.5 * sym(a, g, b)
    block = np.concatenate([np.concatenate([zeta, -eta], -1),
                            np.concatenate([eta, -zeta], -1)], -2)
    vals, vecs = np.linalg.eig(block)
    if np.max(np.abs(vals.imag)) > 1e-9 * max(nu_q, 1.0):
        raise NumericError("pseudo-eigenproblem returned complex frequencies")
    vals = vals.real
    count = np.count_nonzero(vals > 0, axis=-1)
    if np.any(count != 2):
        raise NumericError("expected two positive pseudo-eigenvalues, got "
                           f"{count[count != 2].flat[0]}")
    lam = 2.0 * np.sort(vals, axis=-1)[..., :1:-1] / nu_q
    return lam, vecs


def adapt_degenerate_branches(block: BogoliubovBlock, x_ff: np.ndarray
                              ) -> BogoliubovBlock:
    """Align branch directions with the coupling response when lambdas coincide.

    Inside a degenerate block every Bogoliubov rotation of the pair is
    equally valid; the displacement optimisation selects the eigenframe of
    the projected response, most unstable direction (most negative chi)
    on the '+' branch.  Non-degenerate blocks are left unchanged; for a
    stack, x_ff is (..., 2, 2) and each block is aligned with its own.
    """
    lam = block.lambdas
    degenerate = np.abs(lam[..., 0] - lam[..., 1]) <= 1e-12 * np.maximum(1.0, lam[..., 0])
    if not degenerate.any():
        return block
    # the mask takes the degenerate blocks of a stack, and a single block as a stack of one
    sym = 0.5 * (x_ff + np.swapaxes(x_ff.conj(), -1, -2)).real
    _, vecs = np.linalg.eigh(sym[degenerate])
    u = block.u.copy()
    u[degenerate] = _orient(np.swapaxes(vecs, -1, -2))  # most unstable first -> '+'
    return replace(block, coeffs=_squeeze_coeffs(u, lam), u=u)


def verify_symplectic(block: BogoliubovBlock) -> float:
    """max-norm deviation of M K M^dag from K, K = diag(1, 1, -1, -1), the
    largest over a stack of blocks."""
    m = block.mixing_matrix()
    k = np.diag([1.0, 1.0, -1.0, -1.0])
    return float(np.max(np.abs(m @ k @ np.swapaxes(m.conj(), -1, -2) - k)))


def branch_combination(coeffs, a, b):
    """sum_sigma (w_sigma a_sigma - y_sigma b_sigma) for the squeeze
    coefficients (w, x, y, z) = coeffs[0], ..., coeffs[3] of a branch.

    With a = f and b = f^dag this is G_tau, the operator multiplying
    c_tau^dag once the inverse Bogoliubov transformation is substituted into
    the bare interaction; a and b may be dense or sparse matrices or
    ground-state matrix-element rows.  Each coeffs[k] is a number, or an
    array that broadcasts against a[sigma] to combine a stack of branches.
    """
    out = 0.0
    for s in range(2):
        out = out + coeffs[s] * a[s] - coeffs[2 + s] * b[s]
    return out


def _branch_operators(block: BogoliubovBlock, f_sigma: tuple[Operator, Operator],
                      adjoint: bool) -> tuple[Operator, Operator]:
    """`branch_combination` of f with b = f^dag (``adjoint``) or b = f, as
    operators for tau = +, -, sparse when both components are."""
    if f_sigma[0].dim != f_sigma[1].dim:
        raise ArgumentError("polarisation components act on different spaces")
    f = [op.matrix for op in f_sigma]
    b = [m.conj().T for m in f] if adjoint else f
    return tuple(Operator(branch_combination(block.coeffs[t], f, b)) for t in range(2))


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
