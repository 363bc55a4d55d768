"""Integration over the unit sphere S^(m-1): an exact monomial rule, and
one node-and-weight type ``NodeRule`` for the numeric rules, a product
Gauss rule and Monte Carlo for independent validation.  Every numeric
plane-wave route reduces through ``plane_wave_mean``: it hands the route's
``split`` the nodes' signed radii t = <x,w>, and sums the slice values
alpha + w beta of the split's closed form, in reals on real data, by the
weighted sums of ``NodeRule`` or one blocked reduction for Monte Carlo.
The product rule stores [H; -H], H one node of each antipodal pair; alpha
being even in t and beta odd, its plane-wave mean sums H with doubled weights.

The package loads this numeric module, and numpy, on first use.  Weighted
sums run in ``np.einsum``'s own loops, not BLAS, so no thread count changes
the order in which the nodes are added.

Monte Carlo keeps its nodes component-major and reduces them in blocks of
2^14 that stay in cache, merged pairwise by the update of Chan, Golub and
LeVeque ("Algorithms for computing the sample variance", Amer. Statist. 37,
1983); beyond its n m coordinates its working memory is bounded by a 2^16-row chunk.
A plane wave's block reduces alpha in two passes but never forms w beta:
its sums S1 and sums of squares S2 are einsum products of the nodes with
beta and |beta|^2, and M2 = S2 - S1 mean, clamped at 0, errs relative to M2
by about eps (1 + mean^2/variance), small as w_i beta(<x,w>) varies with
w_i, whose mean is 0, so that its mean^2 is not >> its variance.

The product rule's Gauss-Gegenbauer nodes are the eigenvalues of the Jacobi
matrix (Golub and Welsch, "Calculation of Gauss quadrature rules", Math.
Comp. 23, 1969), polished by two Newton steps on the three-term recurrence
of the orthonormal polynomials p_k; the weights are the Christoffel numbers
1/sum_k p_k(t_j)^2.

The monomial rule uses the classical closed form

    int_{S^(m-1)} w^a dS = 2 prod_i Gamma((a_i+1)/2) / Gamma((|a|+m)/2)

for all-even multi-indices (zero otherwise), carried exactly with the pi
powers symbolic; it is validated against Monte Carlo in the test suite
before anything downstream relies on it.

Divided by sigma_m = |S^(m-1)| the pi powers cancel, and the normalized
moment is the plain rational

    (1/sigma_m) int_{S^(m-1)} w^a dS = prod_i (a_i-1)!! / prod_{j<|a|/2} (m+2j)

(Folland, "How to integrate a polynomial over a sphere", Amer. Math.
Monthly 108, 2001).  ``scalars.sphere_moment`` computes it over Q without
numpy, and the tests tie it to the validated rule exactly; the dual Radon
transform builds the same numerators one coordinate at a time, and the tests
tie it to ``sphere_moment``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .constants import sphere_area
from .scalars import PiScalar, _check_exponents, _compositions, _multinomial, gamma_half


def monomial_sphere_integral(m: int, exps: tuple[int, ...]) -> PiScalar:
    """Exact integral of prod_i w_i^(a_i) over S^(m-1); zero unless all even."""
    _check_exponents(m, exps)
    if any(e % 2 for e in exps):
        return PiScalar()
    num = PiScalar.of(2)
    for e in exps:
        num = num * gamma_half(e + 1)
    return num / gamma_half(sum(exps) + m)


@dataclass(frozen=True)
class ExactMonomialRule:
    m: int
    kind: str = "exact"

    def integrate_monomial(self, exps: tuple[int, ...]) -> PiScalar:
        return monomial_sphere_integral(self.m, exps)


class NodeRule:
    """A numeric rule on S^(m-1): nodes (n, m), weights (n,) standing for
    sigma_m (their sum unless given), a report ``label`` and a ``kind`` set
    by each subclass.  Monte Carlo overrides ``estimate``,
    ``integrate_monomial`` and ``plane_wave_mean`` with its blocked
    reduction and spread.  The nodes are kept component-major (``nodes.T``
    is C-contiguous), so each weighted sum is a contiguous dot product."""

    antipodal = False   # True for nodes [H; -H] with weights [wH; wH]

    def __init__(self, m: int, nodes: np.ndarray, weights: np.ndarray, label: str,
                 sigma: float | None = None):
        self.m = m
        self.nodes = np.ascontiguousarray(nodes.T).T
        self.weights = weights
        self.label = label
        self._sigma = float(weights.sum()) if sigma is None else sigma

    def sigma(self) -> float:
        return self._sigma

    def estimate(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """(integral, standard error or None) of samples of shape (n,) or
        (n, k), one row per node."""
        return _node_sum("...n,n->...", np.moveaxis(values, 0, -1), self.weights), None

    def integrate_monomial(self, exps: tuple[int, ...]) -> tuple[float, float | None]:
        _check_exponents(self.m, exps)
        # only the columns with a nonzero exponent enter the product
        vals = np.ones(len(self.nodes))
        for j, e in enumerate(exps):
            if e:
                vals *= self.nodes[:, j] ** e
        est, se = self.estimate(vals)
        return float(est), None if se is None else float(se)

    def plane_wave_mean(self, xv, split) -> tuple[np.ndarray, np.ndarray, float | None]:
        """Sphere mean of the slice values alpha + w beta along x0 + <x,w> w.

        ``split(t)`` gives (alpha, beta), each (n, k) for k channels, on the
        column t = <x,w> of the nodes' signed radii; the split holds x0.
        As for every slice function, alpha must be even in t and beta odd:
        a rule may then sum one node of each antipodal pair for both.  A
        split's results are valid until its next call, so it may write them
        into buffers it reuses; a rule reduces them before it splits again.
        Returns the means of alpha, (k,), and of w beta, (k, m), and the
        largest standard error, None for a weighted-sum rule.
        """
        cols, weights = self.nodes.T, self.weights
        if self.antipodal:   # nodes [H; -H]: H alone, its weights doubled
            h = len(weights) // 2
            cols, weights = cols[:, :h], 2.0 * weights[:h]
        alpha, beta = split(np.einsum("jn,j->n", cols, np.asarray(xv, dtype=float))[:, None])
        sig = self.sigma()
        return (_node_sum("kn,n->k", alpha.T, weights) / sig,
                _node_sum("kn,jn->kj", beta.T * weights, cols) / sig, None)


def _node_sum(spec: str, rows: np.ndarray, *others: np.ndarray) -> np.ndarray:
    """``np.einsum(spec, rows, *others)`` summed over the node axis, last in
    all, with ``rows`` made C-contiguous: einsum's own dot products, never
    BLAS.  Complex rows are summed part by part, so ``others`` are never cast."""
    if np.iscomplexobj(rows):
        return _node_sum(spec, rows.real, *others) + 1j * _node_sum(spec, rows.imag, *others)
    return np.einsum(spec, np.ascontiguousarray(rows), *others)


class ProductGaussRule(NodeRule):
    """Product quadrature on S^(m-1), exact for polynomials of degree
    <= 2*level-1 in the sphere variables.

    Built recursively: Gauss-Jacobi nodes in each polar cosine with weight
    (1-u^2)^((d-3)/2), equally spaced points on the base circle, two points
    for S^0.  Only one node of each antipodal pair is built, the half H:
    the nodes are [H; -H] and the weights [wH; wH], so every antipode is
    exact and odd monomials cancel to rounding.
    """

    kind, antipodal = "gauss", True

    def __init__(self, m: int, level: int = 16):
        half, w = _half_product_rule(m, level)
        super().__init__(m, np.concatenate([half, -half]), np.concatenate([w, w]), f"gauss:{level}")


def product_rule_size(m: int, level: int) -> int:
    """Node count of ``ProductGaussRule(m, level)``, known before any node is built."""
    return 2 if m == 1 else max(2 * level, 4) * level ** (m - 2)


def _half_product_rule(m: int, level: int) -> tuple[np.ndarray, np.ndarray]:
    """One node of each antipodal pair of the product rule, and its weight:
    the circle's angles in [0, pi); above, the polar cosines u < 0 over the
    whole sub-rule, and u = 0 (an odd level) over the sub-rule's half."""
    if m == 1:
        return np.array([[1.0]]), np.array([1.0])
    if m == 2:
        n = product_rule_size(2, level)
        theta = 2.0 * np.pi * np.arange(n // 2) / n
        return np.stack([np.cos(theta), np.sin(theta)], axis=1), np.full(n // 2, 2.0 * np.pi / n)
    sub_half, sub_w = _half_product_rule(m - 1, level)
    sub_nodes, sub_weights = np.concatenate([sub_half, -sub_half]), np.concatenate([sub_w, sub_w])
    u, wu = _gauss_gegenbauer(level, (m - 3) / 2.0)
    s = np.sqrt(1.0 - u**2)
    blocks = [(u[i], s[i] * sub_nodes, wu[i] * sub_weights) for i in range(level // 2)]
    if level % 2:   # the middle node is 0 exactly, its sine 1
        blocks.append((0.0, sub_half, wu[level // 2] * sub_w))
    nodes = np.concatenate([np.column_stack([np.full(len(x), ui), x]) for ui, x, _ in blocks])
    return nodes, np.concatenate([w for *_, w in blocks])


def _gauss_gegenbauer(n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule of n nodes for the weight (1-t^2)^alpha on [-1, 1], alpha >= 0:
    ascending nodes, exactly antisymmetric, and exactly symmetric weights."""
    k = np.arange(1, n + 1)
    b = np.sqrt(k * (k + 2 * alpha) / ((2 * k + 2 * alpha) ** 2 - 1))  # b[k-1] = b_k
    t = np.linalg.eigvalsh(np.diag(b[:-1], -1))
    for _ in range(2):
        # p_k = sqrt(mu0) p^_k and p'_k by b_(k+1) p_(k+1) = t p_k - b_k p_(k-1)
        p_prev, p, d_prev, d, ssq = 0.0, np.ones(n), 0.0, np.zeros(n), np.zeros(n)
        for j in range(n):
            ssq += p * p
            bj = b[j - 1] if j else 0.0
            p_prev, p, d_prev, d = p, (t * p - bj * p_prev) / b[j], d, (p + t * d - bj * d_prev) / b[j]
        t = t - p / d
    mu0 = 2.0 ** (2 * alpha + 1) * math.gamma(alpha + 1) ** 2 / math.gamma(2 * alpha + 2)
    w = mu0 / ssq
    return (t - t[::-1]) / 2, (w + w[::-1]) / 2


# nodes per block of the Monte Carlo reduction: the few rows of one block
# stay in a core's cache between its two passes
_MC_BLOCK = 1 << 14
# rows per chunk of the Monte Carlo draw, four blocks: at most 4 MB at m <= 8
_MC_DRAW = 4 * _MC_BLOCK


def _node_moments(blocks) -> tuple[np.ndarray, np.ndarray]:
    """(mean, M2) of each row over the nodes of a stream of (c, b) blocks, each
    reduced by ``_two_pass`` into one workspace, so a block may be overwritten
    once the next is asked for, and merged by ``_pairwise``."""
    work: dict = {}
    return _pairwise([_two_pass(rows, work) for rows in blocks])


def _two_pass(rows, work: dict) -> tuple[int, np.ndarray, np.ndarray]:
    """(b, mean, M2) of each row of one (c, b) block in two passes: the mean,
    then the squared deviations (complex ones by modulus) in ``work``, laid
    out as the first block.  Constant rows give M2 = 0 if the mean is exact."""
    b = rows.shape[-1]
    if not work:
        work["dev"] = np.empty_like(rows)
        work["modulus"] = np.empty_like(rows, dtype=float) if np.iscomplexobj(rows) else None
    mean = rows.sum(axis=-1) / b   # the bits of rows.mean, without its wrapper
    dev = np.subtract(rows, mean[:, None], out=work["dev"][:, :b])
    if work["modulus"] is not None:
        dev = np.abs(dev, out=work["modulus"][:, :b])
    np.multiply(dev, dev, out=dev)
    return b, mean, dev.sum(axis=-1)


def _pairwise(parts) -> tuple[np.ndarray, np.ndarray]:
    """(mean, M2) of a list of block moments (b, mean, M2), merged pairwise,
    as in pairwise summation, by the update of Chan, Golub and LeVeque: with
    d = mean_b - mean_a and n = n_a + n_b,
        mean = mean_a + d n_b / n,   M2 = M2_a + M2_b + |d|^2 n_a n_b / n."""
    while len(parts) > 1:
        pairs = [_chan_merge(a, b) for a, b in zip(parts[::2], parts[1::2])]
        parts = pairs + parts[2 * len(pairs):]
    _, mean, m2 = parts[0]
    return mean, m2


def _chan_merge(a, b):
    (na, mean_a, m2_a), (nb, mean_b, m2_b) = a, b
    n = na + nb
    d = mean_b - mean_a
    return n, mean_a + d * (nb / n), m2_a + m2_b + np.abs(d) ** 2 * (na * nb / n)


class MonteCarloRule(NodeRule):
    """Uniform Monte Carlo on S^(m-1) from a seeded generator; the equal
    weights sigma_m/n are one read-only broadcast value.

    The nodes are stored component-major: one C-contiguous (m, n) array,
    written once from the normalized Gaussian samples (the same values as
    the row-major draw), with ``nodes`` its (n, m) transposed view.  No
    row-major draw of all n nodes is held: the generator fills one buffer
    of ``_MC_DRAW`` rows at a time, at most 4 MB at m <= 8, which is
    transposed and normalized into the store one block at a time.  The
    chunk is four blocks rather than one for glibc's allocator: freeing
    the chunk raises its dynamic mmap threshold to the chunk's size and
    its trim threshold to twice that, so the temporaries of later numpy
    calls, a block or a few hundred KiB each, are reused from the heap;
    after a one-block chunk many are mapped and page-faulted afresh on
    every call.

    ``estimate`` and ``integrate_monomial`` reduce through ``_node_moments``,
    ``plane_wave_mean`` through ``_wave_moments``, in blocks of 2^14 nodes,
    each call writing its blocks into one workspace of a block's size.
    """

    kind = "mc"

    def __init__(self, m: int, n: int, seed: int):
        if n < 2:
            raise ValueError("Monte Carlo needs n >= 2 samples for a standard error")
        self.n = n
        rng = np.random.default_rng(seed)
        cols = np.empty((m, n))
        draw = np.empty((min(n, _MC_DRAW), m))
        norm, square = np.empty((2, min(n, _MC_BLOCK)))
        for c in range(0, n, _MC_DRAW):
            v = rng.standard_normal(out=draw[:n - c])
            # transposed and normalized block by block, so each block of v is
            # read from cache; squares summed row by row, np.linalg.norm's
            # order for m <= 7 (at m = 8 it sums pairwise, and a node may
            # differ from its quotient by up to 1.5 eps, 3.3e-16)
            for s in range(0, len(v), _MC_BLOCK):
                block = cols[:, c + s:c + s + _MC_BLOCK]
                block[...] = v[s:s + _MC_BLOCK].T
                nb, sq = norm[:block.shape[1]], square[:block.shape[1]]
                np.multiply(block[0], block[0], out=nb)
                for row in block[1:]:
                    nb += np.multiply(row, row, out=sq)
                block /= np.sqrt(nb, out=nb)
        sig = float(sphere_area(m))
        super().__init__(m, cols.T, np.broadcast_to(sig / n, (n,)), f"mc:{n}:{seed}", sig)

    def _spread(self, m2: np.ndarray) -> np.ndarray:
        """Standard error of the mean from M2: the sample variance with one
        degree of freedom taken off, as ``np.std(ddof=1)``, over n."""
        return np.sqrt(m2 / (self.n - 1)) / math.sqrt(self.n)

    def estimate(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(integral estimate, standard error) of pointwise sample values.

        ``values`` has any shape (n, ...), one row per node, and is only
        read: the channels of each block of nodes form the rows reduced by
        ``_node_moments``.  Constant samples give zero spread.
        """
        values = np.asarray(values)
        flat = values.reshape(len(values), -1)
        mean, m2 = _node_moments(flat[s:s + _MC_BLOCK].T for s in range(0, len(flat), _MC_BLOCK))
        shape = values.shape[1:]
        return (self._sigma * mean.reshape(shape),
                self._sigma * self._spread(m2).reshape(shape))

    def integrate_monomial(self, exps: tuple[int, ...]) -> tuple[float, float]:
        """``NodeRule.integrate_monomial`` one block of nodes at a time: the
        product of the powers is formed in one block-sized row and reduced
        before the next block."""
        _check_exponents(self.m, exps)
        cols = self.nodes.T

        def blocks():
            vals = np.empty((1, min(self.n, _MC_BLOCK)))
            for s in range(0, self.n, _MC_BLOCK):
                v = vals[:, :min(_MC_BLOCK, self.n - s)]
                v.fill(1.0)
                for j, e in enumerate(exps):
                    if e:
                        v *= cols[j, s:s + _MC_BLOCK] ** e
                yield v

        mean, m2 = _node_moments(blocks())
        return float(self._sigma * mean[0]), float(self._sigma * self._spread(m2)[0])

    def plane_wave_mean(self, xv, split) -> tuple[np.ndarray, np.ndarray, float]:
        """``NodeRule.plane_wave_mean`` one block of nodes at a time, each
        split and reduced by ``_wave_moments`` before the next; returns the
        largest standard error of the means."""
        xv = np.asarray(xv, dtype=float)
        cols, t, work = self.nodes.T, np.empty(min(self.n, _MC_BLOCK)), {}
        parts = []
        for s in range(0, self.n, _MC_BLOCK):
            w = cols[:, s:s + _MC_BLOCK]
            alpha, beta = split(np.matmul(xv, w, out=t[:w.shape[1]])[:, None])
            parts.append(_wave_moments(w, alpha, beta, work))
        mean, m2 = _pairwise(parts)
        k = len(mean) // (self.m + 1)
        return mean[:k], mean[k:].reshape(k, self.m), float(self._spread(m2).max())


def _wave_moments(w, alpha, beta, work: dict) -> tuple[int, np.ndarray, np.ndarray]:
    """(b, mean, M2) over one block, w (m, b) and alpha, beta (b, k) taken as
    one contiguous row per channel, of the k rows of alpha by ``_two_pass``,
    then of the k m rows of w beta, unformed, by S1 and S2 from einsum
    products, M2 = S2 - S1 mean clamped at 0."""
    b = w.shape[1]
    alpha, beta = np.ascontiguousarray(alpha.T), np.ascontiguousarray(beta.T)
    _, mean_a, m2_a = _two_pass(alpha, work)
    s1 = _node_sum("kb,mb->km", beta, w)
    mean = s1 / b
    square = np.square(abs(beta) if np.iscomplexobj(beta) else beta)
    m2 = np.maximum(_node_sum("kb,mb,mb->km", square, w, w) - (s1 * mean.conj()).real, 0.0)
    return b, np.concatenate([mean_a, mean.ravel()]), np.concatenate([m2_a, m2.ravel()])


@functools.lru_cache(maxsize=None)
def _pascal(n: int) -> tuple[np.ndarray, np.ndarray]:
    """C(j, k) and max(j - k, 0) at [k, j] for j, k < n, shared and read-only."""
    j = np.arange(n)
    binom = np.array([[math.comb(c, k) for c in range(n)] for k in range(n)], dtype=float)
    gap = np.maximum(j - j[:, None], 0)
    binom.flags.writeable = gap.flags.writeable = False
    return binom, gap


def _shift_matrix(n: int, x0) -> np.ndarray:
    """S[k, j] = C(j, k) x0^(j-k), which takes the n coefficients of p to
    those of p(x0 + s); stacked as (*x0.shape, n, n) for an array x0."""
    binom, gap = _pascal(n)
    return binom * np.power.outer(x0, gap)


def _even_odd(q, t, work: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(E, O) with q(it) = E + iO for coefficients q_k along q's first axis:
    E = sum_j (-1)^j q_2j v^j and O = t sum_j (-1)^j q_(2j+1) v^j, v = t^2, by
    Horner from the top coefficient of each half (an empty half is zero), the
    bits of Horner in -t^2 as negation is exact.  Given a dict ``work``, v, E
    and O go into its buffers, valid until the next call with it."""
    signed = np.array(q)
    for part in (signed[2::4], signed[3::4]):
        np.negative(part, out=part)
    v = np.square(t, out=None if work is None else _buffer(work, "v", t.shape, t.dtype))
    shape, dtype = np.broadcast(v, q[0]).shape, np.result_type(v, q)
    even, odd = (_buffer(work, name, shape, dtype) for name in "EO")
    for acc, half in ((even, signed[0::2]), (odd, signed[1::2])):
        if len(half) > 1:   # the first step writes acc, with no fill before it
            np.add(np.multiply(v, half[-1], out=acc), half[-2], out=acc)
        else:
            acc[...] = half[-1] if len(half) else 0
        for c in half[-3::-1]:
            acc *= v
            acc += c
    odd *= t
    return even, odd


def _buffer(work: dict | None, name: str, shape: tuple, dtype) -> np.ndarray:
    """The first shape[0] rows of ``work[name]``, made anew when missing, too
    short, or of another row shape or dtype; without work, a fresh array."""
    if work is None:
        return np.empty(shape, dtype)
    buf = work.get(name)
    if buf is None or len(buf) < shape[0] or buf.shape[1:] != shape[1:] or buf.dtype != dtype:
        buf = work[name] = np.empty(shape, dtype)
    return buf[:shape[0]]


def funk_hecke_constants(m: int, j: int) -> tuple[PiScalar, PiScalar]:
    """(C0, C1) with int <x,w>^j dS = C0 |x|^j (j even, else 0) and
    int <x,w>^j w dS = C1 |x|^(j-1) x (j odd, else 0).

    Computed by expanding <x,w>^j against the exact monomial rule with the
    x components symbolic, and checking that the resulting polynomial in x
    really is the stated multiple of the appropriate power of |x|^2.
    """
    if j < 0:
        raise ValueError("j must be >= 0")
    zero = PiScalar()
    c0 = _radialized(m, j, with_omega=False) if j % 2 == 0 else zero
    c1 = _radialized(m, j, with_omega=True) if j % 2 == 1 else zero
    return c0, c1


def _radialized(m: int, j: int, with_omega: bool) -> PiScalar:
    # <x,w>^j = sum over |a| = j of multinomial(j; a) x^a w^a: integrate each
    # term (optionally times w_1) and collect on the x-monomials x^a
    poly: dict[tuple[int, ...], PiScalar] = {}
    for a in _compositions(j, m):
        w_exp = (a[0] + 1, *a[1:]) if with_omega else a
        val = monomial_sphere_integral(m, w_exp)
        if not val.is_zero():
            poly[a] = val * _multinomial(a)
    if not poly:
        return PiScalar()
    # expected shape: C * (sum_i x_i^2)^t  or  C * (sum_i x_i^2)^t * x_1,
    # t = j // 2 either way since j is odd in the second case
    c = poly[(j, *(0,) * (m - 1))]
    expected: dict[tuple[int, ...], PiScalar] = {}
    for b in _compositions(j // 2, m):
        key = tuple(2 * e for e in b)
        if with_omega:
            key = (key[0] + 1, *key[1:])
        expected[key] = c * _multinomial(b)
    if expected != poly:
        raise AssertionError("radialization failed: integral is not radial")
    return c

