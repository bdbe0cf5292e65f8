"""Elementary symmetric function calculus on the admissibility cone.

Values, deleted-entry minors, the quotient operator
G = (sigma_k / sigma_l)^(1/(k-l)), its diagonal first derivatives, the
complementary coefficients F^ii = sum_{j != i} G^jj, and finite-difference
probes of the off-diagonal second-derivative identity and of concavity.
Every sigma value comes from the one recurrence in elementary_batch.

Everything here is written for general dimension n.  The solver's residual
does not call it: at n = 2, sigma_1(mu) = H and sigma_2(mu) = K come straight
from the geometry, and these functions (with quotient_ratio_batch over
GraphGeometry.mu_stack) are the eigenvalue oracle the tests check that against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConeViolation, DegeneratePair

# FD steps: first derivatives scale with 1e-6, second with 1e-4 (truncation
# vs roundoff balance at double precision).
GRAD_STEP = 1e-6
HESS_STEP = 1e-4
TIE_TOL = 1e-8


@dataclass(frozen=True)
class QuotientOrder:
    """Orders (k, l) of the curvature quotient sigma_k / sigma_l."""

    k: int
    l: int

    def __post_init__(self):
        if not (self.k >= 2 and 0 <= self.l <= self.k - 2):
            raise ValueError(f"k and l must satisfy 2 <= k, 0 <= l <= k-2: got ({self.k},{self.l})")


def _values(mu) -> np.ndarray:
    """mu as a flat float array of at least 2 eigenvalues."""
    arr = np.asarray(mu, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("need a flat tuple of at least 2 eigenvalues")
    return arr


def sigma(mu, k: int) -> float:
    """k-th elementary symmetric polynomial, 0 <= k <= n; sigma_0 = 1 (empty product)."""
    return float(elementary_batch(_values(mu), k)[k])


def sigma_minor(mu, k: int, i: int) -> float:
    """sigma_k of mu with entry i (0-based) deleted, -1 <= k <= n-1; sigma_{-1} = 0."""
    mu = _values(mu)
    if not (0 <= i < mu.size):
        raise ValueError(f"entry index {i} out of range for n={mu.size}")
    if k == -1:
        return 0.0
    return float(elementary_batch(np.delete(mu, i), k)[k])


def in_gamma_k(mu, k: int) -> bool:
    """True iff sigma_j(mu) > 0 for all 1 <= j <= k."""
    mu = _values(mu)
    if not (1 <= k <= mu.size):
        raise ValueError(f"cone order {k} out of range for n={mu.size}")
    return bool(np.all(elementary_batch(mu, k)[1:] > 0.0))


def _require_cone(mu, k: int):
    if not in_gamma_k(mu, k):
        raise ConeViolation(f"eigenvalues {tuple(np.asarray(mu).tolist())} outside Gamma_{k}")


def quotient_value(mu, q: QuotientOrder) -> float:
    """G = (sigma_k / sigma_l)^(1/(k-l)); requires mu in Gamma_k."""
    mu = _values(mu)
    _require_cone(mu, q.k)
    ratio = sigma(mu, q.k) / sigma(mu, q.l)
    return float(ratio ** (1.0 / (q.k - q.l)))


def quotient_gradient_diag(mu, q: QuotientOrder):
    """Diagonal derivative G^ii of G at a diagonal matrix.

    G^ii = (1/(k-l)) (s_k/s_l)^(1/(k-l)-1)
           (s_{k-1}(mu|i) s_l - s_k s_{l-1}(mu|i)) / s_l^2
    """
    mu = _values(mu)
    _require_cone(mu, q.k)
    k, l = q.k, q.l
    sk = sigma(mu, k)
    sl = sigma(mu, l)
    pref = (sk / sl) ** (1.0 / (k - l) - 1.0) / (k - l)
    out = []
    for i in range(mu.size):
        num = sigma_minor(mu, k - 1, i) * sl - sk * sigma_minor(mu, l - 1, i)
        out.append(pref * num / (sl * sl))
    return out


def f_coeffs(g_diag):
    """F^ii = (sum_j G^jj) - G^ii."""
    g = np.asarray(g_diag, dtype=float)
    return list(g.sum() - g)


def cone_lower_bound(n: int, q: QuotientOrder) -> float:
    """(C_n^k / C_n^l)^(1/(k-l)), the proven floor of sum_i G^ii."""
    return (math.comb(n, q.k) / math.comb(n, q.l)) ** (1.0 / (q.k - q.l))


def _eig_pair(a: float, d: float, s: float):
    """Eigenvalues of the symmetric 2x2 block [[a, s], [s, d]]."""
    mean = 0.5 * (a + d)
    root = math.hypot(0.5 * (a - d), s)
    return mean - root, mean + root


def offdiag_identity_residual(eta, q: QuotientOrder, i: int, step: float = None) -> float:
    """FD residual of -G^{1i,i1} = (G^11 - G^ii) / (eta_ii - eta_11).

    `eta` holds the diagonal entries of a diagonal matrix with eigenvalues in
    Gamma_k; `i` is the 0-based partner index (>= 1) paired with entry 0.
    The off-diagonal second derivative is estimated by symmetrically
    perturbing the (0,i)/(i,0) entries and re-diagonalizing the 2x2 block
    analytically.  Requires k >= 3 (the identity is stated there only).
    """
    vals = [float(x) for x in np.asarray(eta, dtype=float)]
    n = len(vals)
    if q.k < 3:
        raise ValueError("off-diagonal identity check requires k >= 3")
    if not (1 <= i < n):
        raise ValueError(f"partner index {i} out of range")
    _require_cone(vals, q.k)
    gap = vals[i] - vals[0]
    if abs(gap) < TIE_TOL:
        raise DegeneratePair(f"eta[{i}] - eta[0] = {gap:.3e} below tie tolerance")
    if step is None:
        step = HESS_STEP * (1.0 + max(abs(v) for v in vals))

    def g_of(s: float) -> float:
        lo, hi = _eig_pair(vals[0], vals[i], s)
        pert = list(vals)
        pert[0], pert[i] = lo, hi
        return quotient_value(pert, q)

    g0 = quotient_value(vals, q)
    # even in s, so the centered second difference collapses to 2(g(s)-g(0))/s^2
    second = (g_of(step) - 2.0 * g0 + g_of(-step)) / (step * step)
    fd_off = 0.5 * second  # = G^{1i,i1}

    grads = quotient_gradient_diag(vals, q)
    rhs = (grads[0] - grads[i]) / gap
    return abs(-fd_off - rhs)


def concavity_probe(mu, q: QuotientOrder, trials: int = 32, rng=None, step: float = None) -> float:
    """Max FD second directional derivative of G over random diagonal directions.

    Should be <= a small positive tolerance for concave G.  Shrinks the step
    when the stencil would leave the cone; raises ConeViolation if it cannot
    stay inside.
    """
    base = _values(mu)
    _require_cone(base, q.k)
    if rng is None:
        rng = np.random.default_rng(0)
    if step is None:
        step = HESS_STEP * (1.0 + float(np.max(np.abs(base))))
    g0 = quotient_value(base, q)
    worst = -np.inf
    for _ in range(trials):
        d = rng.standard_normal(base.size)
        d /= np.linalg.norm(d)
        h = step
        for _ in range(40):
            if in_gamma_k(base + h * d, q.k) and in_gamma_k(base - h * d, q.k):
                break
            h *= 0.5
        else:
            raise ConeViolation("FD stencil cannot stay inside the cone")
        second = (quotient_value(base + h * d, q) - 2.0 * g0 + quotient_value(base - h * d, q)) / (h * h)
        worst = max(worst, second)
    return float(worst)


# -- vectorized over points: the one sigma recurrence -----------------------

def elementary_batch(mu: np.ndarray, kmax: int) -> np.ndarray:
    """sigma_0..sigma_kmax over the last axis of mu; output shape (kmax+1, ...)."""
    mu = np.asarray(mu, dtype=float)
    n = mu.shape[-1]
    if not (0 <= kmax <= n):
        raise ValueError(f"kmax {kmax} out of range for n={n}")
    e = np.zeros((kmax + 1,) + mu.shape[:-1])
    e[0] = 1.0
    for i in range(n):
        x = mu[..., i]
        top = min(kmax, i + 1)
        for j in range(top, 0, -1):
            e[j] = e[j] + x * e[j - 1]
    return e


def quotient_ratio_batch(mu: np.ndarray, q: QuotientOrder):
    """(sigma_k/sigma_l per point, in-cone mask) over the last axis of mu."""
    e = elementary_batch(mu, q.k)
    ok = np.all(e[1:] > 0.0, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = e[q.k] / e[q.l]
    return ratio, ok
