"""Linear operators on symmetric polynomials: q-shifts, Dunkl operators,
Vandermonde-kernel operators and Macdonald operators.

Every operator has one shape, a ``LinearOperator``: a column function of
lam, column(lam) being the image of m_lam as m-coordinates
{mu: ring scalar}.  Applying it to f reads f's m-coordinates once and
sums the columns (a non-symmetric f is refused, naming the operator),
and ``OperatorMatrix.from_operator`` (``operator_matrix``) reads a
matrix off the columns of a window, so no image is expanded into
monomials only to be collapsed again.

Every division by x_i - x_j on an operator path is the divided
difference d_ij f = (1 - K_ij) f / (x_i - x_j), evaluated term by term
as a geometric sum of monomials, never by forming a numerator and
dividing it.  The Dunkl operator is d_i = x_i d_i + b A_i with
A_i = x_i sum_(j != i) d_ij.  A sum over the r-subsets I of {1..k} of
the relabelings of g / prod_(i <= r < j <= k) (x_i - x_j), with g
symmetric inside {1..r} and inside {r+1..k} (checked), is one block
divided difference: r (k - r) steps d_(j,j+1) along a reduced word
(``_block_divided_difference``).  One column function,
``_kernel_column``, forms every kernel sum: for a rational numerator num
in x_1..x_k, the block (r, k - r) of num (E_1 + ... + E_r)^l m_lam,
summed over the k-subsets.  B_{k,l} passes x_1^(k-1) with r = 1;
``verify.typesums`` passes each type's q with r = l = 1 (the raw
support sums) and the numerators of the closed units with r = 3 and
r = 2 on four variables.  The scalar part of the Macdonald operator is
the block (r, n - r) of prod_(i <= r < j)(t x_i - x_j) with t symbolic.

The power sum H_k = sum_i d_i^k, the pair-ratio sum and the reflection
square each symmetrize one chain in x_1: d_1^k f, A_1 (x_1 d_1 f) (the
pair-ratio sum is sum_i A_i (x_i d_i f)) and A_1 A_1 (x_1 d_1 f).  d_1
and A_1 commute with the permutations of x_2..x_n, so every
intermediate is symmetric in x_2..x_n and is held as its S_1 x S_(n-1)
orbit representatives {(x_1 exponent, rest sorted decreasing, aux): G},
G the coefficient summed over the orbit of rest, starting from those of
m_lam, written down from lam (``_msym_representatives``).  One step
pushes a representative through d_1j once per distinct value of rest,
weighted by its multiplicity, with the geometric-sum rule of the
divided difference (``_push``); the m_lam coordinate of the sum over i
is then n sum G / |S_n orbit of lam|.  No polynomial is formed
along the chain; ``dunkl_apply`` is left to the public API and the
literal H_k.  On a symmetric argument each sum over indices i (or
subsets S) symmetrizes one term.

Macdonald operators use the alternant formula (Macdonald, Symmetric
Functions and Hall Polynomials, ch. VI 3), with delta = (n-1, ..., 0)
and a_e the alternant of x^e: D(n, r) m_lam = sum over the
rearrangements alpha of lam of e_r(q^alpha_1 t^(n-1), ..., q^alpha_n t^0)
a_(alpha+delta) / a_delta.  So every coordinate of D(n, r) m_lam is an
integer polynomial sum N q^a t^b.  It is computed once per (n, r, lam),
in integers only, and cached as the column {mu: {(a, b): N}}: the
r-subsets I of each alpha are counted by (a, b) = (sum_I alpha_i,
sum_I delta_i), and the Schur read-off and the Kostka step run over
those counts.  No m_lam is expanded.  Each coordinate is read by one of
the two readers of {(a, b): N} tables in ``rings``: its h^k coefficient
under q = exp(h), t = exp(b h) (``exp_sum_slice``, one b-polynomial per
h order), or its value at a rational (q, t) (``rational_value``).  The
slice D_k(n, r), the h^k coefficient, is one more primitive operator
(``slice_op``); ``macdonald_specialized`` is D(n, r) at a rational
(q, t), and ``macdonald_apply`` takes either reader.

The Macdonald formula reads a_e / a_delta off in the Schur basis
(a_(lam+delta) = a_delta s_lam) and turns it into monomial coordinates
by a Kostka table, never dividing by the n!-term product
(``_readoff_coords``, called by ``_macdonald_column`` alone).

Subset sums exploit symmetry: for a symmetric argument f the term of
the subset S is the order-preserving relabeling of the term of {1..k},
so each operator evaluates one canonical term and symmetrizes it once,
straight into m-coordinates (``_subset_sum_coords``).  The kernel
columns form m_lam and run that on it; m_lam is symmetric by
construction, so no entry check runs, while the block symmetry of each
canonical term is still checked exactly.  The diagonal operators L_k
and M11 have the column {lam: weight(lam)} (L_k m_lam = p_k(lam) m_lam,
M11 m_lam = e_2(lam) m_lam).  Literal evaluations are kept (functions
with a ``_literal`` suffix: per subset, per Dunkl chain, entry by entry,
or by exact division, the only callers of ``exact_div`` here) and the
tests compare each with its fast path.

Every loop over exponent keys is in ``multipoly``, which alone knows the
packed key format: the divided difference, the exchange check
(``MultiPoly.asymmetric_exchange``), the q-shift scaling
(``MultiPoly.scale_by``), the orbit sums of a subset sum, the lift of a
kernel numerator into n variables and the polynomial of m-coordinates
(``from_msym_coords``).  This module reads no ``.terms`` and calls no
``MultiPoly`` constructor.

Matrix products and commutators of rational and b-polynomial matrices
run in integers: each operand is scaled once by the lcm of its entry
denominators, and only the nonzero entries of the result are turned
back into scalars, so a commuting pair builds none.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache, lru_cache, partial
from itertools import combinations
from math import lcm

from .errors import DomainError, InexactDivisionError, NonSymmetricError
from .multipoly import (
    MultiPoly,
    Ring,
    _distinct_permutations,
    _orbit_size,
    _require_partition,
    exact_div,
    from_msym_coords,
    kostka_table,
    monomial_symmetric,
    partitions_of,
    partitions_upto,
    to_msym_coords,
    vandermonde,
)
from .rings import BetaPoly, HJet, binom, exp_sum_slice, qnorm, rational_value, render_scalar


# -- operators ----------------------------------------------------------


class LinearOperator:
    """A linear operator on the symmetric polynomials in n variables over a
    ring, given by its columns: column(lam) is the image of m_lam as
    m-coordinates {mu: ring scalar}.  Applying it to f reads f's
    m-coordinates once and sums the columns (a non-symmetric f is
    refused, naming the operator); ``OperatorMatrix.from_operator`` reads
    its matrix off the columns of a window."""

    __slots__ = ("n", "ring", "column", "name")

    def __init__(self, n: int, ring: Ring, column, name: str):
        self.n = n
        self.ring = ring
        self.column = column
        self.name = name

    def __call__(self, f: MultiPoly) -> MultiPoly:
        if f.n != self.n or f.ring != self.ring:
            raise DomainError("operator got a polynomial over a different space")
        image = {}
        for lam, c in _require_symmetric(f, self.name).items():
            for mu, v in self.column(lam).items():
                v = v * c
                image[mu] = image[mu] + v if mu in image else v
        return from_msym_coords(image, self.n, self.ring)


# -- subset sums ----------------------------------------------------------


def _subset_sign(subset, n: int) -> int:
    """Sign of the order-preserving relabeling of {1..k} onto the subset:
    the parity of the pairs v > w with v in the subset and w outside it."""
    inv = 0
    sset = set(subset)
    for i in subset:
        inv += sum(1 for j in range(1, i) if j not in sset)
    return -1 if inv % 2 else 1


def _subset_sum_coords(unit: MultiPoly, k: int) -> dict:
    """The m-coordinates {mu: ring scalar}, no zero scalar, of the sum over
    the k-subsets S of {1..n} of sigma_S u (u = unit), sigma_S the
    order-preserving relabeling of {1..k} onto S and of {k+1..n} onto its
    complement.  u must be symmetric inside {1..k} and inside {k+1..n}
    (else InexactDivisionError carrying u), so sigma_S u is the mean of u's
    relabelings over the coset sigma_S (S_k x S_(n-k)), and
    sum_S sigma_S u = binom(n, k) Sym(u), Sym(u) the mean over S_n.  The
    m_lam coordinate of Sym(u) is the mean of u's coefficients over the
    S_n orbit of lam: one pass sums them per orbit and aux slots."""
    n = unit.n
    if k > n:
        return {}
    _require_block_symmetric(unit, [*range(k - 1), *range(k, n - 1)], "subset-sum unit")
    return _orbit_means(unit.orbit_sums(), n, binom(n, k), unit.ring)


def _orbit_means(sums, n: int, count, ring: Ring) -> dict:
    """count Sym(u) in m-coordinates {mu: ring scalar}, no zero scalar,
    from the sums {lam: {aux: s}} of u's coefficients per S_n orbit lam
    (padded to n parts) and aux slots: the m_lam coordinate is count s
    over the size of the orbit, since Sym(u) is u's mean over S_n."""
    coords = {}
    for lam, row in sums.items():
        size = _orbit_size(lam)
        by_aux = [(aux, Fraction(c * count, size)) for aux, c in row.items() if c]
        if by_aux:
            coords[lam[: n - lam.count(0)]] = ring.scalar_from_aux(by_aux)
    return coords


def _require_block_symmetric(f: MultiPoly, positions, name: str):
    """Exchanging x_(a+1) and x_(a+2), for each a in positions, must leave
    f unchanged; else InexactDivisionError carrying f."""
    a = f.asymmetric_exchange(positions)
    if a is not None:
        raise InexactDivisionError(
            f"{name} is not symmetric under exchanging x{a + 1} and x{a + 2}", f
        )


def _readoff_coords(alternants, n: int):
    """sum c a_e / a_delta over the (e, {aux: c}) pairs, e an x exponent
    and aux a tuple of extra slots, in monomial coordinates
    {mu: {aux: c}} with no zero c.  a_e / a_delta is 0 when e repeats an
    entry, else s_(sort(e) - delta) times the sign of the permutation that
    sorts e, and s_lam = sum_mu K_lam_mu m_mu."""
    schur = {}
    for e, by_aux in alternants:
        if len(set(e)) < n:
            continue
        odd = sum(1 for i in range(n) for j in range(i + 1, n) if e[i] < e[j]) % 2
        alpha = sorted(e, reverse=True)
        lam = tuple(p - (n - 1 - i) for i, p in enumerate(alpha) if p > n - 1 - i)
        row = schur.setdefault(lam, {})
        for aux, c in by_aux.items():
            row[aux] = row.get(aux, 0) + (-c if odd else c)
    mcoords = {}
    for lam, by_aux in schur.items():
        by_aux = [(aux, c) for aux, c in by_aux.items() if c]
        if not by_aux:
            continue
        for mu, kk in kostka_table(sum(lam), n)[lam]:
            row = mcoords.setdefault(mu, {})
            for aux, c in by_aux:
                row[aux] = row.get(aux, 0) + c * kk
    out = {}
    for mu, by_aux in mcoords.items():
        nonzero = {aux: c for aux, c in by_aux.items() if c}
        if nonzero:
            out[mu] = nonzero
    return out


def _require_symmetric(f: MultiPoly, opname: str) -> dict:
    """The m-coordinates {lam: ring scalar} of symmetric f
    (``to_msym_coords``); NonSymmetricError naming the operator and a
    transposition when f is not symmetric."""
    try:
        return to_msym_coords(f)
    except NonSymmetricError as err:
        i, j = err.transposition
        raise NonSymmetricError(
            f"{opname} requires a symmetric argument; exchanging x{i} and x{j} changes the input",
            err.transposition,
        ) from None


# -- diagonal operators (monomial-exponent weights) ---------------------


def _diagonal_op(n: int, ring: Ring, weight, name: str) -> LinearOperator:
    """The operator scaling each monomial by weight(e), e its x exponent.
    weight is symmetric, so m_lam is an eigenvector with eigenvalue
    weight(lam), lam padded to n parts."""
    aux0 = (0,) * ring.aux_slots

    def column(lam):
        w = weight(lam + (0,) * (n - len(lam)))
        return {lam: ring.scalar_from_aux([(aux0, w)])} if w else {}

    return LinearOperator(n, ring, column, name)


def l_op(k: int, n: int, ring: Ring) -> LinearOperator:
    """Power sum of the Euler operators: sum_i (x_i d_i)^k, with
    L_k m_lam = p_k(lam) m_lam."""
    if k < 0:
        raise DomainError("l_op needs k >= 0")
    return _diagonal_op(n, ring, lambda e: sum(v**k for v in e), f"L[{k}]")


def m11_op(n: int, ring: Ring) -> LinearOperator:
    """sum_(i<j) (x_i d_i)(x_j d_j), with M11 m_lam = e_2(lam) m_lam."""

    def w(e):
        s1 = sum(e)
        s2 = sum(v * v for v in e)
        return (s1 * s1 - s2) // 2

    return _diagonal_op(n, ring, w, "M[1,1]")


# -- q-shift ------------------------------------------------------------


def qshift_apply(i: int, qval, f: MultiPoly) -> MultiPoly:
    """Substitute x_i -> q x_i at a rational q: scale each monomial by
    qval^(x_i exponent)."""
    if not 1 <= i <= f.n:
        raise DomainError("shift index out of range")
    return f.scale_by((i,), partial(_rational_power, qval))


def qshift_slice(i: int, k: int, f: MultiPoly) -> MultiPoly:
    """The h^k coefficient of f with x_i -> q x_i at q = exp(h): each
    monomial scaled by the h^k coefficient of exp(e h), e its x_i
    exponent.  f must have b-polynomial coefficients."""
    if not 1 <= i <= f.n:
        raise DomainError("shift index out of range")
    return f.scale_by((i,), lambda e: exp_sum_slice({(e, 0): 1}, k))


def _rational_power(val, e: int):
    return qnorm(Fraction(val) ** e)


# -- divided differences -------------------------------------------------


def _block_divided_difference(g: MultiPoly, r: int, k: int) -> MultiPoly:
    """sum over the r-subsets I of {1..k} of the relabeling of
    g / prod_(i <= r < j <= k) (x_i - x_j) that sends {1..r} onto I and
    {r+1..k} onto its complement, both order-preserving.  g must be
    symmetric inside {1..r} and inside {r+1..k} (else InexactDivisionError
    carrying g); then the sum is the product of r (k - r) divided
    differences d_(j,j+1) along a reduced word (Macdonald, Notes on
    Schubert Polynomials, ch. II): for top = r, ..., 1, the steps
    j = top, ..., top + k - r - 1 carry x_top to x_(top+k-r).  Variables
    above k pass through."""
    _require_block_symmetric(g, [*range(r - 1), *range(r, k - 1)], "block numerator")
    for top in range(r, 0, -1):
        for j in range(top, top + k - r):
            g = g.divided_difference(j, j + 1)
    return g


def _divided_difference_literal(f: MultiPoly, i: int, j: int) -> MultiPoly:
    """``MultiPoly.divided_difference`` by dividing (1 - K_ij) f exactly by
    x_i - x_j."""
    return exact_div(
        f - f.swap(i, j), MultiPoly.variable(i, f.n, f.ring) - MultiPoly.variable(j, f.n, f.ring)
    )


def _reflection_sum(i: int, f: MultiPoly) -> MultiPoly:
    """A_i f = x_i sum_{j != i} d_ij f = sum_{j != i} x_i/(x_i-x_j)(1-K_ij) f."""
    acc = MultiPoly.zero(f.n, f.ring)
    for j in range(1, f.n + 1):
        if j != i:
            acc = acc + f.divided_difference(i, j)
    return acc * MultiPoly.variable(i, f.n, f.ring)


# -- orbit representatives under S_1 x S_(n-1) ------------------------------


def _msym_representatives(lam, n: int, ring: Ring) -> dict:
    """m_lam over the ring as {(u, rest, aux): G}: u an x_1 exponent, rest
    the other x exponents sorted decreasing, aux the ring's zero aux slots,
    and G the sum of the coefficients over the S_(n-1) orbit of rest.
    With x = lam padded to n parts, each distinct entry u of x gives one
    key, rest being x with one u removed and G = |S_(n-1) orbit of rest|."""
    x = lam + (0,) * (n - len(lam))
    aux = (0,) * ring.aux_slots
    reps = {}
    for i, u in enumerate(x):
        if not i or x[i - 1] != u:
            rest = x[:i] + x[i + 1:]
            reps[(u, rest, aux)] = _orbit_size(rest)
    return reps


def _euler_reps(reps) -> dict:
    """x_1 d_1 on representatives: G times u."""
    return {(u, rest, aux): G * u for (u, rest, aux), G in reps.items() if u}


def _push(reps, bump: int = 0, out=None) -> dict:
    """b^bump A_1 g = b^bump x_1 sum_(j != 1) d_1j g on representatives of
    g, added into out.  d_1j sends x_1^u x_j^v to the geometric sum of
    ``MultiPoly.divided_difference``; over the S_(n-1) orbit of rest the pairs
    (monomial, j) with x_j exponent v number |orbit| m_v, m_v the
    multiplicity of v in rest, so each representative is pushed once per
    distinct value v of rest, with weight m_v G."""
    out = {} if out is None else out
    for (u, rest, aux), G in reps.items():
        if bump:
            aux = (aux[0] + bump,)
        i, size = 0, len(rest)
        while i < size:
            v, start = rest[i], i
            while i < size and rest[i] == v:
                i += 1
            if v == u:
                continue
            others = rest[:start] + rest[start + 1:]
            c = (i - start) * G
            if u > v:
                lo, hi = v, u
            else:
                lo, hi, c = u, v, -c
            for p in range(hi - lo):
                key = (lo + p + 1, tuple(sorted(others + (hi - 1 - p,), reverse=True)), aux)
                out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def _rep_coords(reps, n: int, ring: Ring) -> dict:
    """sum_i K_1i g = n Sym(g) in m-coordinates, g given by its
    representatives."""
    sums = {}
    for (u, rest, aux), G in reps.items():
        row = sums.setdefault(tuple(sorted((u, *rest), reverse=True)), {})
        row[aux] = row.get(aux, 0) + G
    return _orbit_means(sums, n, n, ring)


# -- Dunkl operators ----------------------------------------------------


def _require_beta_ring(ring: Ring):
    if ring.kind == "q":
        raise DomainError("Dunkl operators need a coefficient ring containing b")


def dunkl_apply(i: int, f: MultiPoly) -> MultiPoly:
    """Dunkl operator d_i = x_i d_i + b A_i."""
    _require_beta_ring(f.ring)
    return f.euler(i) + _reflection_sum(i, f).scale(BetaPoly.var())


def h_op(k: int, n: int, ring: Ring) -> LinearOperator:
    """H_k = sum_i d_i^k on symmetric polynomials.  d_i = K_1i d_1 K_1i
    and K_1i f = f, so d_i^k f = K_1i d_1^k f: the column of m_lam is one
    chain of d_1 = x_1 d_1 + b A_1 on the representatives of m_lam (d_1
    commutes with the permutations of x_2..x_n), symmetrized once."""
    if k < 1:
        raise DomainError("h_op needs k >= 1")
    _require_beta_ring(ring)

    def column(lam):
        reps = _msym_representatives(lam, n, ring)
        for _ in range(k):
            reps = _push(reps, 1, _euler_reps(reps))
        return _rep_coords(reps, n, ring)

    return LinearOperator(n, ring, column, f"H[{k}]")


def h_op_apply(k: int, f: MultiPoly) -> MultiPoly:
    """H_k f on symmetric f."""
    return h_op(k, f.n, f.ring)(f)


def h_op_apply_literal(k: int, f: MultiPoly) -> MultiPoly:
    """H_k = sum_i d_i^k applied to any f, one chain per i."""
    if k < 1:
        raise DomainError("h_op needs k >= 1")
    out = MultiPoly.zero(f.n, f.ring)
    for i in range(1, f.n + 1):
        g = f
        for _ in range(k):
            g = dunkl_apply(i, g)
        out = out + g
    return out


# -- Vandermonde-kernel family ------------------------------------------


def _kernel_column(num: MultiPoly, r: int, l: int, n: int, ring: Ring, lam) -> dict:
    """The kernel sum of num on f = m_lam, in m-coordinates: for num in
    x_1..x_k (k = num.n, lifted into n variables over the ring), the block
    (r, k - r) of num (E_1 + ... + E_r)^l f summed over the k-subsets of
    {1..n}, one symmetrization."""
    k = num.n
    if k > n:
        return {}
    f = monomial_symmetric(lam, n, ring)
    for _ in range(l):
        f = sum((f.euler(i) for i in range(2, r + 1)), f.euler(1))
    g = num.lift(n, ring) * f
    return _subset_sum_coords(_block_divided_difference(g, r, k), k)


def _kernel_op(num: MultiPoly, r: int, l: int, n: int, ring: Ring, name: str) -> LinearOperator:
    """The kernel sum of num (``_kernel_column``) as an operator."""
    return LinearOperator(n, ring, partial(_kernel_column, num, r, l, n, ring), name)


def b_op_apply_literal(k: int, l: int, f: MultiPoly) -> MultiPoly:
    """Per-subset evaluation of B_{k,l}: each subset's numerator over its
    Vandermonde product, resolved by exact division."""
    n, ring = f.n, f.ring
    if k > n:
        return MultiPoly.zero(n, ring)
    out = MultiPoly.zero(n, ring)
    for subset in combinations(range(1, n + 1), k):
        num = MultiPoly.zero(n, ring)
        for pos, s in enumerate(subset):
            g = f
            for _ in range(l):
                g = g.euler(s)
            g = g * MultiPoly.variable(s, n, ring) ** (k - 1)
            term = g * vandermonde(n, ring, [t for t in subset if t != s])
            num = num + (term if pos % 2 == 0 else -term)
        out = out + exact_div(num, vandermonde(n, ring, subset))
    return out


def b_op(k: int, l: int, n: int, ring: Ring) -> LinearOperator:
    """B_{k,l} = sum over k-subsets S of sum_(s in S) x_s^(k-1) (x_s d_s)^l
    / prod_(t in S, t != s)(x_s - x_t), the kernel sum of x_1^(k-1) with
    r = 1, since (x_s d_s)^l f = K_1s (x_1 d_1)^l f on symmetric f."""
    if k < 1 or l < 0:
        raise DomainError("b_op needs k >= 1 and l >= 0")
    num = MultiPoly.monomial((k - 1,) + (0,) * (k - 1), k)
    return _kernel_op(num, 1, l, n, ring, f"B[{k},{l}]")


def pair_ratio_op(n: int, ring: Ring) -> LinearOperator:
    """sum_{i<j} (x_i+x_j)/(x_i-x_j) (x_i d_i - x_j d_j) on symmetric
    polynomials.  x_j d_j f = K_ij x_i d_i f, so the pair {i, j}
    contributes (x_i + x_j) d_ij (x_i d_i f), and d_ij (x_i d_i f) is
    symmetric in i and j: exchanging the names in the x_j half of the sum
    over ordered pairs turns it into the x_i half, so the sum is
    sum_(i != j) x_i d_ij (x_i d_i f) = sum_i A_i (x_i d_i f), one push of
    the representatives of x_1 d_1 m_lam, symmetrized."""

    def column(lam):
        return _rep_coords(_push(_euler_reps(_msym_representatives(lam, n, ring))), n, ring)

    return LinearOperator(n, ring, column, "pair ratio sum")


def reflection_square_op(n: int, ring: Ring) -> LinearOperator:
    """The operator sum_i A_i C_i on symmetric polynomials, where
    A_i = sum_{j != i} x_i/(x_i-x_j)(1-K_ij) and
    C_i = sum_{j != i} x_i/(x_i-x_j)(x_i d_i - x_j d_j).  K_1j (x_1 d_1) f
    = x_j d_j f on symmetric f, so C_1 f = A_1 (x_1 d_1 f)."""

    def column(lam):
        reps = _euler_reps(_msym_representatives(lam, n, ring))
        for _ in range(2):
            reps = _push(reps)
        return _rep_coords(reps, n, ring)

    return LinearOperator(n, ring, column, "reflection square")


# -- Macdonald operators -------------------------------------------------


def _cross_product(n: int, ring: Ring, subset, tval) -> MultiPoly:
    """prod over i in subset, j outside of (t x_i - x_j)."""
    out = MultiPoly.const(n, 1, ring)
    comp = [j for j in range(1, n + 1) if j not in subset]
    for i in subset:
        txi = MultiPoly.variable(i, n, ring).scale(tval)
        for j in comp:
            out = out * (txi - MultiPoly.variable(j, n, ring))
    return out


def _require_rank(n: int, **ranks):
    for name, v in ranks.items():
        if not 1 <= v <= n:
            raise DomainError(f"need 1 <= {name} <= n, got {name}={v}, n={n}")


@cache
def _macdonald_column(n: int, r: int, lam) -> dict:
    """D(n, r) m_lam as {mu: {(a, b): N}}: the coordinate of m_mu is the
    integer polynomial sum N q^a t^b.  By the alternant formula of the
    module docstring, each rearrangement alpha of lam with no repeated
    entry in alpha + delta contributes e_r(q^alpha_i t^(n-i)) a_(alpha+delta);
    the r-subsets I are counted by (a, b) = (sum_I alpha_i, sum_I delta_i)
    and the counts are read off in the Schur basis.  Cached per
    (n, r, lam); callers must not mutate it."""
    _require_rank(n, r=r)
    _require_partition(lam, n)
    delta = tuple(range(n - 1, -1, -1))
    subsets = [(I, sum(delta[i] for i in I)) for I in combinations(range(n), r)]
    alternants = []
    for alpha in _distinct_permutations(lam + (0,) * (n - len(lam))):
        e = tuple(a + d for a, d in zip(alpha, delta))
        if len(set(e)) == n:
            alternants.append((e, Counter((sum(alpha[i] for i in I), b) for I, b in subsets)))
    return _readoff_coords(alternants, n)


def _macdonald_op(n: int, r: int, ring: Ring, value) -> LinearOperator:
    """D(n, r) over the ring: each coefficient {(a, b): N} of its cached
    columns read by value as a ring scalar (``exp_sum_slice`` at one h
    order over b-polynomials, or ``rational_value`` at a rational
    (q, t))."""
    _require_rank(n, r=r)

    def column(lam):
        return {mu: value(poly) for mu, poly in _macdonald_column(n, r, lam).items()}

    return LinearOperator(n, ring, column, f"D({n},{r})")


def macdonald_apply(n: int, r: int, value, f: MultiPoly) -> MultiPoly:
    """Macdonald operator D(n, r) on symmetric f, its coefficients read by
    value (``_macdonald_op``)."""
    return _macdonald_op(n, r, f.ring, value)(f)


def macdonald_apply_literal(n: int, r: int, qval, tval, f: MultiPoly) -> MultiPoly:
    """Per-subset evaluation of the Macdonald operator, no relabeling."""
    ring = f.ring
    total = MultiPoly.zero(n, ring)
    for subset in combinations(range(1, n + 1), r):
        comp = tuple(j for j in range(1, n + 1) if j not in subset)
        piece = (
            _cross_product(n, ring, subset, tval)
            * vandermonde(n, ring, subset)
            * vandermonde(n, ring, comp)
            * f.scale_by(subset, partial(_rational_power, qval))
        )
        total = total + (piece if _subset_sign(subset, n) == 1 else -piece)
    quot = exact_div(total, vandermonde(n, ring))
    return quot.scale(_rational_power(tval, r * (r - 1) // 2))


def macdonald_specialized(n: int, r: int, q, t) -> LinearOperator:
    return _macdonald_op(n, r, Ring.q(), partial(rational_value, Fraction(q), Fraction(t)))


def slice_op(r: int, k: int, n: int, ring: Ring) -> LinearOperator:
    """D_k(n, r), the h^k coefficient of D(n, r) under q = exp(h),
    t = exp(b h): its cached columns read by ``exp_sum_slice`` at order k,
    so the ring must hold b-polynomials.  A primitive like H_k, named
    (slice_op, r, k) in a term table."""
    return _macdonald_op(n, r, ring, partial(exp_sum_slice, k=k))


# -- scalar part of the Macdonald operator --------------------------------


def macdonald_scalar_part(n: int, r: int) -> MultiPoly:
    """The subset sum with all shifts removed, applied to 1, over the
    t-polynomial ring: the block divided difference (r, n - r) of the
    cross product prod_(i <= r < j)(t x_i - x_j), t symbolic.  A constant
    polynomial when the kernel sums telescope; compared against the
    t-binomial by the verifier.  It stays on the kernel-sum path because
    the alternant formula gives it as e_r(t^(n-1), ..., 1) t^(-r(r-1)/2),
    which is the t-binomial by the q-binomial theorem, so the check would
    verify nothing."""
    cross = _cross_product(n, Ring.uni("t"), range(1, r + 1), BetaPoly.var())
    return _block_divided_difference(cross, r, n)


# -- matrices -------------------------------------------------------------


class OperatorMatrix:
    """Exact matrix of a degree-preserving operator on an m-basis window.

    ``entries[(mu, lam)]`` is the coordinate of m_mu in the image of
    m_lam; zero entries are omitted.
    """

    __slots__ = ("n", "ring", "basis", "entries")

    def __init__(self, n: int, ring: Ring, basis: tuple, entries: dict):
        self.n = n
        self.ring = ring
        self.basis = basis
        self.entries = entries

    @staticmethod
    def from_operator(op: LinearOperator, basis) -> "OperatorMatrix":
        """The matrix of op on an m-basis window, its column lam read off
        op.column(lam): no image is expanded or collapsed.  Every window
        entry must be a partition with at most n parts, the window closed
        under weight, and every image inside the window (else
        DomainError)."""
        n = op.n
        basis = tuple(tuple(lam) for lam in basis)
        for lam in basis:
            _require_partition(lam, n)
        _check_basis_closure(basis, n)
        bset = set(basis)
        entries = {}
        for lam in basis:
            for mu, c in op.column(lam).items():
                if not c:
                    continue
                if mu not in bset:
                    raise DomainError(
                        f"operator image leaves the basis window: m{list(mu)} "
                        f"appears in the image of m{list(lam)}"
                    )
                entries[(mu, lam)] = c
        return OperatorMatrix(n, op.ring, basis, entries)

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._compat(other)
        out = dict(self.entries)
        for k, c in other.entries.items():
            s = out[k] + c if k in out else c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return OperatorMatrix(self.n, self.ring, self.basis, out)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self + other.scale(-1)

    def scale(self, c) -> "OperatorMatrix":
        if not c:
            return OperatorMatrix(self.n, self.ring, self.basis, {})
        return OperatorMatrix(
            self.n, self.ring, self.basis, {k: v * c for k, v in self.entries.items()}
        )

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._compat(other)
        da, a = _integer_columns(self)
        db, b = _integer_columns(other)
        out = {}
        _add_integer_product(out, a, b)
        return self._from_integer_cells(out, da * db)

    def commutator_with(self, other: "OperatorMatrix") -> "OperatorMatrix":
        """self @ other - other @ self, both products accumulated in one
        integer table, so a commuting pair builds no scalar at all."""
        self._compat(other)
        da, a = _integer_columns(self)
        db, b = _integer_columns(other)
        out = {}
        _add_integer_product(out, a, b)
        negated = {
            lam: [(mu, [(e, -c) for e, c in cell]) for mu, cell in col]
            for lam, col in a.items()
        }
        _add_integer_product(out, b, negated)
        return self._from_integer_cells(out, da * db)

    def _from_integer_cells(self, cells, denom: int) -> "OperatorMatrix":
        """The matrix over this window and ring whose entry at each key of
        cells is sum_e c/denom b^e over the {e: c} table there, zero
        entries omitted; a quotient that is exact stays an int."""
        uni = self.ring.kind == "uni"
        out = {}
        for key, cell in cells.items():
            coeffs = {
                e: Fraction(c, denom) if c % denom else c // denom
                for e, c in cell.items() if c
            }
            if coeffs:
                out[key] = BetaPoly(coeffs) if uni else coeffs[0]
        return OperatorMatrix(self.n, self.ring, self.basis, out)

    def _compat(self, other: "OperatorMatrix"):
        if self.basis != other.basis or self.n != other.n or self.ring != other.ring:
            raise DomainError("matrices over different windows cannot be combined")

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        if not isinstance(other, OperatorMatrix):
            return NotImplemented
        return (
            self.n == other.n
            and self.ring == other.ring
            and self.basis == other.basis
            and (self - other).is_zero()
        )

    def beta_slice(self, j: int) -> "OperatorMatrix":
        """Coefficient of b^j entrywise; entries become rationals."""
        if self.ring.kind != "uni":
            raise DomainError("beta_slice needs a b-polynomial matrix")
        out = {}
        for k, v in self.entries.items():
            c = v.coeff(j)
            if c:
                out[k] = c
        return OperatorMatrix(self.n, Ring.q(), self.basis, out)

    def nonzero_cells(self):
        """Deterministically ordered (row, col, value) triples."""
        def key(cell):
            (mu, lam) = cell
            return (sum(lam), lam, sum(mu), mu)

        return [(mu, lam, self.entries[(mu, lam)]) for (mu, lam) in sorted(self.entries, key=key)]

    def render_cells(self):
        return [
            (_pname(mu), _pname(lam), render_scalar(v, self.ring.var))
            for mu, lam, v in self.nonzero_cells()
        ]


def _integer_columns(mat: OperatorMatrix):
    """(d, {lam: [(mu, [(e, c), ...]), ...]}): the entries of a rational or
    b-polynomial matrix times d, the lcm of their denominators, as integer
    coefficients c of b^e (e = 0 for a rational), grouped by column.  At
    d = 1 the entries' own (e, c) pairs are used as they are."""
    kind = mat.ring.kind
    coeffs = [
        (key, v.coeffs.items() if kind == "uni" else ((0, v),))
        for key, v in mat.entries.items()
    ]
    d = lcm(*{c.denominator for _, cell in coeffs for _, c in cell})
    cols = {}
    for (mu, lam), cell in coeffs:
        if d != 1:
            cell = [(e, c.numerator * (d // c.denominator)) for e, c in cell]
        cols.setdefault(lam, []).append((mu, cell))
    return d, cols


def _add_integer_product(out, left, right):
    """Add the product of two ``_integer_columns`` tables into out,
    {(mu, lam): {e: c}}; zero sums are left in place."""
    for lam, col in right.items():
        for nu, c1 in col:
            for mu, c2 in left.get(nu, ()):
                key = (mu, lam)
                cell = out.get(key)
                if cell is None:
                    cell = out[key] = {}
                for e2, n2 in c2:
                    for e1, n1 in c1:
                        e = e1 + e2
                        cell[e] = cell.get(e, 0) + n1 * n2


def _matrix_product_literal(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """a @ b entry by entry in the ring's own scalars."""
    a._compat(b)
    cols = {}
    for (mu, lam), c in b.entries.items():
        cols.setdefault(lam, []).append((mu, c))
    rows = {}
    for (mu, nu), c in a.entries.items():
        rows.setdefault(nu, []).append((mu, c))
    out = {}
    for lam, col in cols.items():
        for nu, c1 in col:
            for mu, c2 in rows.get(nu, ()):
                key = (mu, lam)
                s = out[key] + c2 * c1 if key in out else c2 * c1
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
    return OperatorMatrix(a.n, a.ring, a.basis, out)


def _pname(lam) -> str:
    return "m[" + ",".join(str(p) for p in lam) + "]"


def _check_basis_closure(basis, n: int):
    weights = {sum(lam) for lam in basis}
    bset = set(basis)
    for w in weights:
        for lam in partitions_of(w, n):
            if lam not in bset:
                raise DomainError(
                    f"basis window is not closed: weight {w} needs m{list(lam)}"
                )


def operator_matrix(op: LinearOperator, basis) -> OperatorMatrix:
    return OperatorMatrix.from_operator(op, basis)


# -- cached matrices --------------------------------------------------------


@cache
def window(degree: int, n: int) -> tuple:
    """The m-basis window of weights 1..degree in n variables, a tuple of
    partitions built once per (degree, n).  n < 1 and an empty window are
    refused: on the empty window every matrix is zero, so every matrix
    check would pass."""
    if n < 1:
        raise DomainError("n must be at least 1")
    if degree < 1:
        raise DomainError("degree must be at least 1")
    return tuple(partitions_upto(degree, n))


@lru_cache(maxsize=None)
def primitive_matrix(factor, n: int, basis) -> OperatorMatrix:
    """Matrix over b-polynomials of the operator
    factor[0](*factor[1:], n, Ring.uni("b")), e.g. (h_op, 2) for H_2,
    (b_op, 3, 1) for B_{3,1} or (slice_op, r, k) for D_k(n, r), on an
    m-basis window (a tuple of partitions); built once per
    (factor, n, basis), callers must not mutate it."""
    factory, *args = factor
    return operator_matrix(factory(*args, n, Ring.uni("b")), basis)


def extract_order(n: int, r: int, k: int, degree: int = 4, order: int = 4) -> OperatorMatrix:
    """The h^k coefficient of D(n, r) under q = exp(h), t = exp(b h), as an
    exact matrix over b-polynomials on the m-basis window of weights
    1..degree: the ``primitive_matrix`` of (slice_op, r, k) on
    ``window(degree, n)``.  No slice depends on the jet order, which only
    bounds k; callers must not mutate it."""
    if not 0 <= k <= order:
        raise DomainError("h order outside the jet order")
    return primitive_matrix((slice_op, r, k), n, window(degree, n))


@lru_cache(maxsize=None)
def jet_matrix(n: int, r: int, order: int, degree: int) -> OperatorMatrix:
    """The slices h^0..h^order of ``extract_order`` stacked into one
    ``HJet`` per entry.  Nothing in src/ reads it: it stays for the
    benchmark's independent checks, which read whole jets."""
    if order < 0:
        raise DomainError("jet order must be non-negative")
    slices = [extract_order(n, r, k, degree, order) for k in range(order + 1)]
    keys = dict.fromkeys(key for s in slices for key in s.entries)
    entries = {
        key: HJet(order, [s.entries.get(key, BetaPoly.zero()) for s in slices]) for key in keys
    }
    return OperatorMatrix(n, Ring.uni("b"), slices[0].basis, entries)
