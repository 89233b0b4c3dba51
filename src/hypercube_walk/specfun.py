"""Special functions and closed-form bound expressions.

Chebyshev polynomials; numpy-only seeds from Hankel's expansion, one table
and one Horner kernel from |z| = 40 on: _j01, J_0 and J_1 on the real axis,
and _hankel01e, hankel1e at orders 0 and 1 on a ray; Bessel J at integer
order (the _j01 seeds, upward and Miller recurrences, one table of many
orders on blocks of nodes per call); the one upward-recurrence kernel
_upward, which steps J on real nodes and H1 on complex ones; _hankel_ray,
the one evaluation of H1 on vertical rays (one _hankel01e call stepped up
by _upward) that spectral's rays and the identity share; the auxiliary
function g (scalar or array, principal branches) and g_ray_maximizer, the
one critical point of Im g on the ray Re z = 1, where the appendix suite
takes its supremum; the uniform-regime error budget (variation bound, eta);
the beta ray integrals, one of which scales spectral's segment tail bound;
and the T_t integral identity as a bulk plus one Hankel ray.  Everything
here is a pure function of its arguments.  Fixed tables are built on first
use and read-only: the seeds' Taylor table of J_0 and J_1 (0.72 MB, about
5 ms), and the identity's bulk edges, J_t/x at the bulk's nodes, and y and
the H1 factor at the ray's, built once per degree after its checks, in a
cache of at most IDENTITY_TABLES degrees (about 34 kB each, 0.34 MB for the
ten even degrees 2..20); a cached table gives the bits a fresh one would.
Importing this module builds none of them, and nothing here uses scipy.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, chain, islice
from math import ceil, factorial, pi, sqrt

import numpy as np

from ._quadrature import NODES, REFINED_NODES, _grid, panel_quad_with_error

__all__ = [
    "MAX_ORDER",
    "MAX_ARGUMENT",
    "IDENTITY_TABLES",
    "chebyshev_T",
    "bessel_J",
    "bessel_table",
    "g_function",
    "g_ray_maximizer",
    "variation_bound",
    "eta_bound",
    "beta_half_integrals",
    "chebyshev_from_bessel_integral",
]

MAX_ORDER = 250
MAX_ARGUMENT = 2.0e5
# Degrees whose tables the integral identity keeps; see _identity_table
IDENTITY_TABLES = 16

# B(1/2, 1/4) and B(1/2, 3/4) as float literals, bit-equal to
# scipy.special.beta's values
BETA_HALF_QUARTER = 5.244115108584239
BETA_HALF_3QUARTER = 2.3962804694711837


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


# ---------------------------------------------------------------------------
# Chebyshev polynomials
# ---------------------------------------------------------------------------

def chebyshev_T(t, z):
    """T_t(z) = cos(t arccos z) on [-1, 1]; exactly +-1 at the endpoints.

    t and z broadcast together, and each value is a function of its own
    (t, z) alone; two scalars give a float.  Arguments within 1e-15 outside
    [-1, 1] are clamped (roundoff slack); anything beyond, NaN, and a
    negative or fractional degree raise, naming the first bad entry.
    """
    t, z = np.asarray(t), np.asarray(z, dtype=float)
    bad = (t < 0) | (t % 1 != 0)
    if bad.any():
        raise ValueError(f"degree must be a nonnegative integer, got {t[bad][0]}")
    bad = ~(np.abs(z) <= 1.0 + 1e-15)
    if bad.any():
        raise ValueError(f"argument {z[bad][0]} outside [-1, 1]")
    z = np.clip(z, -1.0, 1.0)
    value = np.asarray(t * np.arccos(z))  # arccos(1) = 0, so T_t(1) = 1 exactly
    np.cos(value, out=value)
    np.copyto(value, 1.0 - 2.0 * (t % 2), where=z == -1.0)
    return float(value) if value.ndim == 0 else value


# ---------------------------------------------------------------------------
# Seeds: J_0, J_1 on the real axis and H1_0, H1_1 on a ray, numpy only
# ---------------------------------------------------------------------------
#
# Both start from Hankel's expansion (Watson, Treatise on Bessel Functions,
# 7.2; DLMF 10.17.1): hankel1e(nu, z) = H1_nu(z) e^(-iz) is
# sqrt(2/(pi z)) e^(-i(nu pi/2 + pi/4)) sum_k a_k(nu) w^k, w = i/z, and for
# 0 <= arg z <= pi/2 the remainder after K terms is at most 2 e^(3/(4|z|))
# times the first term left out (DLMF 10.17.14-15, nu = 0, 1); on the real
# axis J_nu = Re H1_nu, and there the first term left out bounds it.  The
# sum is E_nu(w^2) + w O_nu(w^2), its even and odd parts, summed one way:
# _HANKEL_TERMS terms from one table, _hankel_rows, and one Horner kernel,
# _hankel_horner, at w^2 = -1/x^2 on the real axis and at complex w^2 on a
# ray.  Both seeds take it from |z| = _HANKEL_START on, where its remainder
# is below 3.2e-19.  Each seed is an elementwise function of its node: the
# band its argument falls in fixes the work done on it, so a value never
# depends on its batch.
#
# _j01(x) reads J_0 + i J_1 below _TAYLOR_END from a Taylor table about the
# grid x_j = j/4: _TAYLOR_TERMS coefficients in d = 4x - j, |d| <= 1/2,
# gathered once per node, and no cos or sin.  The table is built on first
# use from J_0(x_j) and J_1(x_j): below _HANKEL_START their power series
# summed in integers and rounded once, above it the expansion with
# 1/sqrt(pi x) in twice working precision; Bessel's equation
# x y'' + y' + x y = 0 gives the other coefficients.  From _TAYLOR_END on
# the expansion gives J_nu = sqrt(2/(pi x)) (P_nu cos w - Q_nu sin w), w =
# x - nu pi/2 - pi/4, from one cos and one sin of x that both orders share.
# Against mpmath both bands stay within 3 u of the envelope sqrt(2/(pi x)),
# u = 2^-53.
#
# _hankel01e(z) sums the expansion from _HANKEL_START on.  Nearer the origin
# it integrates the Laplace form behind the expansion,
# hankel1e(nu, z) = sqrt(2/(pi z)) e^(-i(nu pi/2 + pi/4)) / Gamma(nu + 1/2)
# int_0^inf e^(-t) t^(nu - 1/2) (1 + it/(2z))^(nu - 1/2) dt, with t = s^2,
# by the trapezoidal rule on _LAPLACE_NODES nodes s = 0, h, 2h, ...  The
# integrand's branch points s = +-sqrt(2iz) lie at least sqrt|z| >= 1.7 off
# the real axis for |z| >= 3 and 0 <= arg z <= pi/2, so the rule's error
# falls like e^(-2 pi sqrt|z| / h).

_TAYLOR_END = 1024
_TAYLOR_TERMS = 11
_HANKEL_START = 40
_HANKEL_TERMS = 16
_LAPLACE_STEP = 0.2
_LAPLACE_NODES = 36
_PI_LOW = 1.2246467991473532e-16  # pi - float(pi)


def _by_band(x: np.ndarray, key: np.ndarray, edge: float, near, far):
    # near on the nodes whose key is below edge and far on the rest, each on
    # its own nodes, scattered back into two arrays of the bands' result
    # dtype, so a real x keeps complex values
    below = key < edge
    if below.all():
        return near(x)
    if not below.any():
        return far(x)
    inner, outer = near(x[below]), far(x[~below])
    out = np.empty((2,) + x.shape, dtype=np.result_type(*inner, *outer))
    out[:, below] = inner
    out[:, ~below] = outer
    return out[0], out[1]


@lru_cache(maxsize=1)
def _hankel_rows() -> np.ndarray:
    # rows E_0, E_1, O_0, O_1: the even and the odd a_k(nu), k <
    # _HANKEL_TERMS, as polynomials in w^2, where a_k(nu) = prod_(j <= k)
    # (4 nu^2 - (2j - 1)^2) / (8j), each rounded once from its exact integer
    # ratio
    rows = []
    for nu in (0, 1):
        num, den, row = 1, 1, [1.0]
        for j in range(1, _HANKEL_TERMS):
            num, den = num * (4 * nu * nu - (2 * j - 1) ** 2), den * 8 * j
            row.append(num / den)
        rows.append(row)
    a = np.array(rows)
    return _frozen(np.concatenate([a[:, 0::2], a[:, 1::2]]))


def _hankel_horner(s: np.ndarray) -> np.ndarray:
    # the four rows of _hankel_rows at s, each less its constant term, in one
    # Horner pass on the stack; every product is formed out of place, because
    # numpy rounds an in-place complex one of a one-element array without the
    # fused multiply-add it uses everywhere else
    rows = _hankel_rows()
    acc = np.multiply.outer(rows[:, -1], s)
    for column in rows[:, -2:0:-1].T:
        acc = (acc + column[:, None]) * s
    return acc


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Dekker's split of a into two halves of at most 26 bits each
    t = a * 134217729.0
    high = t - (t - a)
    return high, a - high


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # a b exactly as a pair (Dekker's product)
    product = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return product, ((ah * bh - product) + ah * bl + al * bh) + al * bl


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # a + b exactly as a pair (Knuth's sum)
    total = a + b
    v = total - a
    return total, (a - (total - v)) + (b - v)


def _j01_expansion(x: np.ndarray, r, r_low) -> tuple[np.ndarray, np.ndarray]:
    # J_0 = r ((1 + P~_0)(c + s) + Q_0 (c - s)) and J_1 = r (Q_1 (c + s) -
    # (1 + P~_1)(c - s)) with c = cos x, s = sin x and r + r_low =
    # 1/sqrt(pi x), where P~_nu = E_nu(-1/x^2) - 1 and Q_nu = O_nu(-1/x^2)/x
    # are below 1/(8x) in size: c +- s and r (c +- s) as exact pairs, the
    # small rest in plain arithmetic, and one rounding at the end
    inv = 1.0 / x
    rest = _hankel_horner(-(inv * inv))
    p0, p1 = rest[:2]
    q0, q1 = (rest[2:] + _hankel_rows()[2:, :1]) * inv
    c, s = np.cos(x), np.sin(x)
    plus, plus_low = _two_sum(c, s)
    minus, minus_low = _two_sum(c, -s)
    out = []
    for big, small in ((plus, plus_low + p0 * plus + q0 * minus),
                       (-minus, q1 * plus - minus_low - p1 * minus)):
        product, error = _two_product(r, big)
        out.append(product + (error + r * small + r_low * big))
    return out[0], out[1]


def _j01_far(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return _j01_expansion(x, np.sqrt((1.0 / pi) / x), 0.0)


def _j01_grid(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # J_0 and J_1 at grid nodes x = j/4 >= _HANKEL_START from the expansion,
    # with 1/sqrt(pi x) in twice working precision: pi x is an exact pair,
    # since x has at most 13 bits, and one Newton step on r0 = 1/sqrt(pi x)
    # takes the residual 1 - pi x r0^2 from exact products
    ph, pl = _split(np.float64(pi))
    yh, yl = _two_sum(ph * x, pl * x)
    yl = yl + _PI_LOW * x
    r0 = 1.0 / np.sqrt(yh)
    q, ql = _two_product(r0, r0)
    t, tl = _two_product(yh, q)
    residual = ((1.0 - t) - tl) - yh * ql - yl * q
    return _j01_expansion(x, r0, 0.5 * r0 * residual)


def _j01_series(j: int, one: int) -> tuple[int, int]:
    # J_0 and J_1 at x = j/4 from their power series, in integers scaled by
    # one = 2^100; below x = 40 no term exceeds 2^51
    j0 = j1 = 0
    term, k = one, 0
    while term:
        signed = -term if k % 2 else term
        j0 += signed
        j1 += signed * j // (8 * (k + 1))  # times (x/2)/(k + 1)
        k += 1
        term = term * j * j // (64 * k * k)  # times (x/2)^2/k^2
    return j0, j1


@lru_cache(maxsize=1)
def _j01_table() -> np.ndarray:
    # row k, column j: the coefficient of d^k, d = 4x - j, of J_0 (real part)
    # and J_1 (imaginary part) about x_j = j/4
    one = 1 << 100
    grid = np.arange(4 * _TAYLOR_END + 1) / 4.0
    split = 4 * _HANKEL_START
    j0, j1 = np.empty((2, grid.size))
    for j in range(split):
        j0[j], j1[j] = (v / one for v in _j01_series(j, one))
    j0[split:], j1[split:] = _j01_grid(grid[split:])
    # a[k] is the coefficient of (x - x_j)^k of J_0: the Maclaurin series at
    # x_j = 0, elsewhere the recurrence of Bessel's equation,
    # x_j (k+2)(k+1) a_(k+2) + (k+1)^2 a_(k+1) + x_j a_k + a_(k-1) = 0
    a = np.zeros((_TAYLOR_TERMS + 1, grid.size))
    a[0], a[1] = j0, -j1
    x = grid[1:]
    for k in range(_TAYLOR_TERMS - 1):
        below = a[k - 1, 1:] if k else 0.0
        a[k + 2, 1:] = -((k + 1) ** 2 * a[k + 1, 1:] + x * a[k, 1:] + below) / (x * (k + 2) * (k + 1))
    a[0::2, 0] = [(-0.25) ** i / factorial(i) ** 2 for i in range(_TAYLOR_TERMS // 2 + 1)]
    a *= 0.25 ** np.arange(_TAYLOR_TERMS + 1)[:, None]  # in powers of d
    k = np.arange(1, _TAYLOR_TERMS + 1)[:, None]
    return _frozen(a[:-1] - 4j * k * a[1:])  # J_1 = -dJ_0/dx = -4 dJ_0/dd


def _j01_near(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Horner in d on the gathered coefficients; d is real, so the complex
    # products round as real ones whichever loop numpy picks
    y = 4.0 * x
    j = np.rint(y)
    d = (y - j).astype(complex)  # y - j is exact
    c = np.take(_j01_table(), j.astype(np.intp), axis=1)
    acc = c[-1] * d
    for row in c[-2:0:-1]:
        acc += row
        acc *= d
    acc += c[0]
    return acc.real, acc.imag


def _j01(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J_0(x) and J_1(x) for x in [0, MAX_ARGUMENT], elementwise."""
    return _by_band(x, x, _TAYLOR_END, _j01_near, _j01_far)


@lru_cache(maxsize=1)
def _laplace_rule() -> tuple[list[float], list[float], list[float]]:
    # nodes s^2 and the trapezoidal weights of both orders' integrands on
    # s = 0, h, 2h, ...; s = 0 takes half a weight
    s2 = (_LAPLACE_STEP * np.arange(_LAPLACE_NODES)) ** 2
    w = _LAPLACE_STEP * np.exp(-s2)
    w[0] /= 2
    return s2.tolist(), w.tolist(), (w * s2).tolist()


def _hankel01e_near(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Gamma(1/2) = sqrt(pi) and Gamma(3/2) = sqrt(pi)/2; each order adds its
    # rows in node order into one accumulator
    step = 0.5j / z
    i0 = i1 = 0.0
    for s2, w0, w1 in zip(*_laplace_rule()):
        root = np.sqrt(1.0 + s2 * step)
        i0 += w0 / root
        i1 += w1 * root
    q = np.sqrt(1.0 / (pi * z))
    return q * ((1 - 1j) * (2.0 / sqrt(pi))) * i0, q * ((-1 - 1j) * (4.0 / sqrt(pi))) * i1


def _hankel_series(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # sum_k a_k(nu) w^k = E_nu(w^2) + w O_nu(w^2), w = i/z, for both orders
    w = 1j / z
    acc = _hankel_horner(w * w) + _hankel_rows()[:, :1]
    total = acc[:2] + acc[2:] * w
    q = np.sqrt(1.0 / (pi * z))
    return q * (1 - 1j) * total[0], q * (-1 - 1j) * total[1]


def _hankel01e(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hankel1e(0, z) and hankel1e(1, z) for |z| >= 3 and 0 <= arg z <= pi/2, elementwise."""
    return _by_band(z, np.abs(z), _HANKEL_START, _hankel01e_near, _hankel_series)


# ---------------------------------------------------------------------------
# Bessel J at integer order
# ---------------------------------------------------------------------------
#
# bessel_table fills a table of orders x nodes for blocks of nodes: the upward
# recurrence where x >= nu (stable there), in one pass of _upward, the one
# upward kernel, for every block, from the numpy-only seeds _j01 below;
# Miller's normalized backward recurrence where 1e-50 <= x < nu, in one
# sweep that each node joins at its start, a function of the node and its
# block's top (_miller_starts), and that captures every order asked for
# there; the leading series term below 1e-50, where Miller's first step
# would overflow.  The sweep carries a scalar bound on its values, grown by
# each step's largest factor 2k/x, and scans its nodes for values past
# 1e250, to rescale them, only at the steps where that bound passes 1e250:
# the nodes it rescales are the ones a scan after every step would rescale,
# at the same steps.  Every step is elementwise, so a value depends on its
# order, its node and its block's top alone.
#
# The start.  From a start N, Miller's values at order nu < N carry the
# relative error J_(N+1) Y_nu / (Y_(N+1) J_nu) (Gautschi, SIAM Review 9,
# 1967), the product over k = nu..N of J_(k+1)/J_k and |Y_k/Y_(k+1)|.  At
# k > x both ratios are below 1; at k >= top, with q = x/top, they are at
# most q/(1 + sqrt(1 - q^2)) and q/(2 - q).  So a pad p = N - top leaves at
# most phi(q)^(p+1), phi(q) their product, and each tier of _MILLER_TIERS
# takes the least p with phi^(p+1) <= 2^-56 at its edge: phi(1/2) = 0.0893
# gives p = 16 and phi(0.7) = 0.220 gives p = 25.  Above 0.7 top the decay
# is only Airy-like near the turning point, hence the sqrt pad there.


def _checked(orders, x: np.ndarray | None = None) -> np.ndarray:
    """The orders as an int64 array, once each is an integer in [0, MAX_ORDER].

    Arguments lie in [0, MAX_ARGUMENT].  NaN fails both.
    """
    given = np.asarray(orders, dtype=float)
    whole = np.floor(given) == np.minimum(np.maximum(given, 0.0), MAX_ORDER)
    if not whole.all():
        raise ValueError(f"Bessel orders must be integers in [0, {MAX_ORDER}], "
                         f"got {given[~whole][0]:g}")
    if x is not None and x.size and not (x.min() >= 0 and x.max() <= MAX_ARGUMENT):
        got = x[~((x >= 0) & (x <= MAX_ARGUMENT))][0]
        raise ValueError(f"Bessel arguments must lie in [0, {MAX_ARGUMENT:g}], got {got:g}")
    return given.astype(np.int64)


def _upward(x: np.ndarray, seeds, captures) -> None:
    # seeds(x) gives orders 0 and 1 of J (real x) or H1 (complex x) at x; a
    # capture (order, index, dest) sets dest to its order's values at
    # x[index].  With the nodes in decreasing need, each step covers a prefix
    captures = sorted(captures, key=lambda c: c[0])
    need = np.full(x.size, -1, dtype=np.int16)
    for nu, index, _ in captures:
        need[index] = nu
    order = np.argsort(-need, kind="stable")
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    falls = -need[order]
    top, *ends = falls.searchsorted([0] + [-nu for nu, _, _ in captures], side="right").tolist()
    x = x[order[:top]]
    prev, cur = seeds(x)
    spare = np.empty_like(cur)
    at = 1  # cur holds order at
    for (nu, index, dest), hi in zip(captures, ends):
        x, prev, cur, spare = x[:hi], prev[:hi], cur[:hi], spare[:hi]
        for k in range(at, nu):  # C_(k+1) = (2k/x) C_k - C_(k-1)
            np.divide(2.0 * k, x, out=spare)
            spare *= cur
            spare -= prev
            prev, cur, spare = cur, spare, prev
        at = max(at, nu)
        dest[...] = (prev if nu == 0 else cur)[position[index]]


def _hankel_ray(bases, scales, u: np.ndarray, orders: list[tuple[int, int]]):
    # The vertical rays w = bases[j] + iy, y = scales[j] u^2/(1 - u)^2 for u
    # in [0, 1): (y, dy/du, w, rows), one row of y, dy/du and w per ray, and
    # rows[r] = hankel1e(nu, w[j]) for the r-th (j, nu) of orders
    bases, scales = (np.asarray(v, dtype=float)[:, None] for v in (bases, scales))
    y = scales * u * u / (1.0 - u) ** 2
    dy_du = 2.0 * scales * u / (1.0 - u) ** 3
    w = bases + 1j * y
    rows = np.empty((len(orders), u.size), dtype=complex)
    _upward(w.ravel(), _hankel01e, [(nu, slice(j * u.size, (j + 1) * u.size), row)
                                    for (j, nu), row in zip(orders, rows)])
    return y, dy_du, w, rows


# (q, pad): a Miller node at x < q top starts pad orders above its top
_MILLER_TIERS = ((0.5, 16), (0.7, 25))


def _miller_starts(top: int) -> tuple[list[float], list[int]]:
    # the tiers' edges q top, and the starts, rounded up to even, of the
    # nodes below each edge and of those above the last
    pads = [pad for _, pad in _MILLER_TIERS] + [max(30, int(np.sqrt(60.0 * max(top, 1))) + 10)]
    return [q * top for q, _ in _MILLER_TIERS], [top + pad + (top + pad) % 2 for pad in pads]


def _miller_sweep(xt: np.ndarray, joins: list, captures: dict, table: np.ndarray) -> None:
    # joins lists (start, lo, hi) in non-increasing start: xt[lo:hi] joins x,
    # the stepping prefix, at that start.  A capture (row, lo, hi, col) in
    # captures[nu] sets table[row, col:col + hi - lo] to order nu at x[lo:hi].
    # The recurrence rotates three buffers and their prefix views.  bound_c
    # and bound_a bound |cur| and |above| on the prefix: a step multiplies by
    # at most 2k/x_min, x_min its smallest node, and the slack covers its
    # three roundings.  Only a bound past 1e250 scans the prefix for
    # overflow, and a scan resets bound_c to the exact max (inf if not finite)
    columns = np.concatenate([np.arange(lo, hi) for _, lo, hi in joins])
    x = xt[columns]
    stops = dict(zip([start for start, _, _ in joins], accumulate(hi - lo for _, lo, hi in joins)))
    above, cur, spare = np.empty_like(x), np.empty_like(x), np.empty_like(x)
    even_sum = np.zeros_like(x)
    end, bound_c, bound_a = 0, 0.0, 0.0
    for k in range(joins[0][0], 0, -1):
        if k in stops:  # the nodes up to stops[k] join the prefix
            cur[end:stops[k]] = 1e-300
            above[end:stops[k]] = 0.0
            end = stops[k]
            a, c, s, xs, e = above[:end], cur[:end], spare[:end], x[:end], even_sum[:end]
            x_min, bound_c = float(xs.min()), max(bound_c, 1e-300)
        if k % 2 == 0:
            e += np.multiply(2.0, c, out=s)
        np.divide(2.0 * k, xs, out=s)
        s *= c
        s -= a
        above, cur, spare = cur, spare, above
        a, c, s = c, s, a
        bound_c, bound_a = (2.0 * k / x_min * bound_c + bound_a) * (1.0 + 1e-12), bound_c
        for row, lo, hi, col in captures.get(k - 1, ()):
            table[row, col:col + hi - lo] = cur[lo:hi]
        if not bound_c <= 1e250:
            top, bottom = c.max(), c.min()
            if top > 1e250 or bottom < -1e250:
                overflow = np.abs(c) > 1e250
                for arr in (c, a, e):
                    arr[overflow] *= 1e-250
                table[:, columns[:end][overflow]] *= 1e-250
                top, bottom = c.max(), c.min()
            bound_c = max(float(top), -float(bottom))
            if not np.isfinite(bound_c):
                bound_c = np.inf
    even_sum += cur  # J_0 term closes the normalization sum
    for row, lo, hi, col in chain.from_iterable(captures.values()):
        table[row, col:col + hi - lo] /= even_sum[lo:hi]


def bessel_table(x, blocks) -> np.ndarray:
    """J at the orders of consecutive blocks of nodes: one row per order, one column per node.

    blocks lists (size, orders, top) for consecutive runs of the flat nodes
    x; row r holds J_orders[r] on a block's columns, zeros past its orders.
    Orders are integers in [0, MAX_ORDER], top one in [max(orders),
    MAX_ORDER] and arguments lie in [0, MAX_ARGUMENT], or ValueError.  A
    Miller node starts at a function of its node and its block's top.  A
    block whose nodes decrease anywhere costs a sort of its nodes and a copy
    of the table; blocks in non-decreasing order cost neither.
    """
    x = np.asarray(x, dtype=float)
    ends = list(accumulate((size for size, _, _ in blocks), initial=0))
    if ends[-1] != x.size:
        raise ValueError(f"block sizes must sum to the {x.size} nodes, got {ends[-1]}")
    flat = iter(_checked([nu for _, given, _ in blocks for nu in given], x).tolist())
    orders = [list(islice(flat, len(given))) for _, given, _ in blocks]
    for low, (_, _, top) in zip((max(given, default=0) for given in orders), blocks):
        if not (float(top).is_integer() and low <= top <= MAX_ORDER):
            raise ValueError(f"top must be an integer in [{low}, {MAX_ORDER}], got {top}")
    # each block's nodes in increasing x, so that an order's upward nodes and
    # its Miller nodes are runs of the block's columns
    perm = None
    if not set((np.flatnonzero(x[1:] < x[:-1]) + 1).tolist()) <= set(ends):
        perm = np.concatenate([lo + np.argsort(x[lo:hi], kind="stable")
                               for lo, hi in zip(ends, ends[1:])])
    xt = x if perm is None else x[perm]
    table = np.zeros((max(map(len, orders), default=0), x.size))
    upward, runs = [], []
    for given, lo, hi, (_, _, top) in zip(orders, ends, ends[1:], blocks):
        cuts, starts = _miller_starts(int(top))
        # the first column at or above each order, at or above 1e-50 and above 0
        *below, tiny, zeros = np.searchsorted(xt[lo:hi], given + [1e-50, 5e-324]) + lo
        last = max(below + [tiny])  # past the last Miller node
        # the Miller columns cut at the tiers' edges: each run joins at its start
        edges = [tiny, *np.clip(np.searchsorted(xt[lo:hi], cuts) + lo, tiny, last).tolist(), last]
        runs += [(start, a, z, given, below)
                 for start, a, z in zip(starts, edges, edges[1:]) if z > a]
        for row, (nu, col) in enumerate(zip(given, below)):
            if col < hi:
                upward.append((nu, slice(col, hi), table[row, col:hi]))
            if 1 <= nu <= 170 and zeros < tiny:
                # (x/2)^nu / nu! is J_nu(x) to 1e-100 relative below 1e-50; nu!
                # overflows past nu = 170, where the table keeps its zeros
                table[row, zeros:tiny] = (xt[zeros:tiny] / 2) ** nu / float(factorial(nu))
    # the runs in falling start; an order's Miller columns [tiny, col) are
    # captured run by run, each at the run's offset in the sweep
    joins, captures, m = [], {}, 0
    for start, a, z, given, below in sorted(runs, key=lambda run: -run[0]):
        joins.append((start, a, z))
        for row, (nu, col) in enumerate(zip(given, below)):
            if col > a:
                captures.setdefault(nu, []).append((row, m, m + min(col, z) - a, a))
        m += z - a
    if joins:
        _miller_sweep(xt, joins, captures, table)
    if upward:
        _upward(xt, _j01, upward)
    if perm is not None:
        table[:, perm] = table.copy()
    return table


def bessel_J(nu: int, x) -> np.ndarray | float:
    """Bessel function of the first kind at nonnegative integer order.

    The bessel_table call with one order and top = nu, on scalars or arrays;
    orders up to MAX_ORDER = 250 and arguments up to MAX_ARGUMENT = 2e5.
    """
    arr = np.asarray(x, dtype=float)
    out = bessel_table(arr.ravel(), [(arr.size, [nu], nu)])[0].reshape(arr.shape)
    return float(out) if arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# g
# ---------------------------------------------------------------------------

def g_function(z):
    """g(z) = z - sqrt(z^2 - 1) + arccos(1/z) on Re z >= 1, Im z >= 0.

    Accepts a scalar (returns complex) or an array (returns an array).
    Principal branches throughout; on the real axis z >= 1 numpy's complex
    sqrt and arccos give an imaginary part of exactly zero.
    """
    arr = np.asarray(z, dtype=complex)
    if arr.size and (arr.real.min() < 1.0 or arr.imag.min() < 0.0):
        raise ValueError(f"z={z} outside the domain Re z >= 1, Im z >= 0")
    value = arr - np.sqrt(arr * arr - 1.0) + np.arccos(1.0 / arr)
    return complex(value) if arr.ndim == 0 else value


def g_ray_maximizer() -> float:
    """y0 = sqrt(s0) = 0.86884 with s0^3 + s0^2 = 1: where Im g(1 + iy) peaks.

    d/dy Im g(1 + iy) = Re g'(z) = 1 - Re(sqrt(z^2 - 1)/z) vanishes only where
    y^2 solves s^3 + s^2 = 1; it is > 0 below y0 and < 0 above, and Im g -> 0
    at both ends of the ray, so Im g(1 + iy0) is the supremum over all y > 0.
    Newton from s = 1 descends onto s0: the cubic is increasing and convex.
    """
    s = 1.0
    while (nxt := s - (s * s * s + s * s - 1.0) / (3.0 * s * s + 2.0 * s)) < s:
        s = nxt
    return sqrt(s)


# ---------------------------------------------------------------------------
# Uniform-regime error budget
# ---------------------------------------------------------------------------

def variation_bound(c: float) -> float:
    """Bound on the total variation along the bent path, decreasing in c > 1.

    1/12 + 1/(6 sqrt 5) + (4/27)^(1/4) + c^2(c^2+2) / (sqrt 8 (c^2-1)^2.5).
    """
    if c <= 1.0:
        raise ValueError(f"variation bound requires c > 1, got {c}")
    c2 = c * c
    return (
        1.0 / 12.0
        + 1.0 / (6.0 * np.sqrt(5.0))
        + (4.0 / 27.0) ** 0.25
        + c2 * (c2 + 2.0) / (np.sqrt(8.0) * (c2 - 1.0) ** 2.5)
    )


def eta_bound(nu: float, c: float) -> float:
    """|eta| <= exp(2V/nu) * 2V/nu with V the variation bound at c."""
    if nu <= 0:
        raise ValueError("order must be positive")
    v = variation_bound(c)
    return float(np.exp(2.0 * v / nu) * (2.0 * v / nu))


# ---------------------------------------------------------------------------
# Beta-function ray integrals
# ---------------------------------------------------------------------------

def beta_half_integrals(a: float) -> tuple[float, float]:
    """Closed forms of the two ray integrals controlling the contour pieces.

    int_0^inf (a^2+y^2)^(-3/4) dy = B(1/2, 1/4) / (2 sqrt a)  and
    int_0^inf (a^2+y^2)^(-5/4) dy = B(1/2, 3/4) / (2 sqrt a^3).
    """
    if a <= 0:
        raise ValueError(f"scale must be positive, got {a}")
    return (
        float(BETA_HALF_QUARTER / (2.0 * np.sqrt(a))),
        float(BETA_HALF_3QUARTER / (2.0 * np.sqrt(a**3))),
    )


# ---------------------------------------------------------------------------
# The Chebyshev / Bessel integral identity
# ---------------------------------------------------------------------------
#
# T_t(z) = (-1)^(t/2) t int_0^inf x^-1 J_t(x) cos(xz) dx for even t and
# |z| <= 1.  The bulk integrates over [0, a] on panels of width pi, with
# a = pi ceil((t + 4 t^(1/3) + 10)/pi) past the turning point of J_t.  The
# rest turns onto the vertical ray w = a + iy (Watson, Treatise on Bessel
# Functions, 7.2; DLMF 10.17): J = (H1 + H2)/2 on the real axis, the H1 part
# turns up and the H2 part down, and the two rays are complex conjugates, so
# int_a^inf J_t(x) cos(xz)/x dx = Re int_0^inf H1_t(w) cos(wz)/w i dy.  With
# H1_t(w) = hankel1e(t, w) e^(iw), H1_t(w) cos(wz) is hankel1e(t, w) times
# (e^(ia(1+z)) e^(-y(1+z)) + e^(ia(1-z)) e^(-y(1-z)))/2, which cannot
# overflow and decays at least like |w|^(-1/2), also at z = +-1.  y =
# a u^2/(1 - u)^2 maps the ray onto u in [0, 1) with an integrand that stays
# finite at u = 1, integrated on _IDENTITY_RAY_PANELS uniform panels.  The
# certificate is t times the two quadrature error estimates; nothing is
# truncated.
#
# Only cos(xz) and the two exponentials depend on z.  _identity_table builds
# the rest once per t, after the checks, on the grids _quadrature._grid keeps
# for panel_quad_with_error's one integrand call (all interior: bulk x > 0,
# ray u < 1): J_t(x)/x at the bulk's nodes by one bessel_J call, y and
# h = hankel1e(t, w) (i dy/du)/w at the ray's by one _hankel_ray call.  It
# keeps at most IDENTITY_TABLES degrees, least recently used out first: about
# 34 kB per degree, 0.34 MB for the even degrees 2..20.  Each call forms the
# z part in the same elementwise order, so a value and its certificate do
# not depend on which calls came before.  T_t is even, so a call reads |z|
# alone: +-z give the same bits.


# The ray's panel edges in u: 32 uniform panels.  16 leave t = 16 and 18 at
# z = +-(1 - 1e-8) outside their certificates (1.7e-11 against 1.1e-11)
_IDENTITY_RAY_PANELS = 32
_IDENTITY_RAY_EDGES = _frozen(np.linspace(0.0, 1.0, _IDENTITY_RAY_PANELS + 1))


@lru_cache(maxsize=IDENTITY_TABLES)
def _identity_table(t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    # the bulk's edges on [0, a], J_t(x)/x at the bulk's nodes, and y and h
    # at the ray's, all read-only
    panels = ceil((t + 4.0 * t ** (1.0 / 3.0) + 10.0) / pi)
    edges = _frozen(np.linspace(0.0, pi * panels, panels + 1))
    a = float(edges[-1])
    x = _grid(edges.tobytes(), NODES, REFINED_NODES)[0].ravel()
    u = _grid(_IDENTITY_RAY_EDGES.tobytes(), NODES, REFINED_NODES)[0].ravel()
    (y,), (dy_du,), (w,), (row,) = _hankel_ray([a], [a], u, [(0, t)])
    return edges, _frozen(bessel_J(t, x) / x), _frozen(y), _frozen(row * (1j * dy_du) / w)


def chebyshev_from_bessel_integral(t: int, z: float) -> tuple[float, float]:
    """Recover T_t(z) from the Bessel integral as a bulk plus one Hankel ray.

    Returns (value, certificate): |value - T_t(z)| <= certificate, the
    certificate being t times the bulk's and the ray's quadrature error
    estimates.  An odd or nonpositive degree, one above MAX_ORDER, or an
    argument that is not a real number in [-1, 1] (NaN, or a nonzero
    imaginary part) raises ValueError before any table is built.
    """
    if t < 2 or t % 2 != 0:
        raise ValueError(f"the identity holds for positive even degree, got t={t}")
    if t > MAX_ORDER:
        _checked([t])  # raises, naming the Bessel order domain
    if z.imag or not abs(z) <= 1.0:
        raise ValueError(f"argument {z} is not a real number in [-1, 1]")
    z = float(abs(z))
    edges, bulk, y, h = _identity_table(int(t))
    a = float(edges[-1])
    up, down = 1.0 + z, 1.0 - z
    finite, bulk_err = panel_quad_with_error(lambda x: bulk * np.cos(x * z), edges)
    tail, ray_err = panel_quad_with_error(
        lambda u: 0.5 * (np.exp(-y * up) * (h * np.exp(1j * a * up)).real
                         + np.exp(-y * down) * (h * np.exp(1j * a * down)).real),
        _IDENTITY_RAY_EDGES)
    sign = -1.0 if (t // 2) % 2 else 1.0
    return float(sign * t * (finite + tail)), float(t * (bulk_err + ray_err))
