"""Linear operators on symmetric polynomials: q-shifts, Dunkl operators,
Vandermonde-kernel operators and Macdonald operators.

All rational-prefactor operators are evaluated without rational-function
arithmetic: each subset term is put over the subset's Vandermonde product
and resolved by one exact division, whose post-check turns any contract
violation into a loud error.

Subset sums exploit symmetry: for a symmetric argument f and an
order-preserving variable relabeling s, the term attached to subset S
equals the relabeling under s of the term attached to the canonical
subset {1..k}.  Each operator therefore evaluates one canonical term and
replicates it across subsets.  Literal per-subset evaluations are kept
(functions with a ``_literal`` suffix) and the tests compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .errors import DomainError, NonSymmetricError
from .multipoly import (
    MultiPoly,
    Ring,
    exact_div,
    monomial_symmetric,
    partitions_of,
    symmetry_violation,
    to_msym_coords,
    vandermonde,
)
from .rings import BetaPoly, HJet, jet_q, jet_t, qnorm


# -- operator algebra --------------------------------------------------


class LinearOperator:
    """A composable linear map on MultiPoly over a fixed (n, ring) space."""

    __slots__ = ("n", "ring", "fn", "name")

    def __init__(self, n: int, ring: Ring, fn, name: str = "op"):
        self.n = n
        self.ring = ring
        self.fn = fn
        self.name = name

    def __call__(self, f: MultiPoly) -> MultiPoly:
        if f.n != self.n or f.ring != self.ring:
            raise DomainError(f"operator {self.name} got a polynomial over a different space")
        return self.fn(f)

    def _compat(self, other: "LinearOperator"):
        if self.n != other.n or self.ring != other.ring:
            raise DomainError("operators over different spaces cannot be combined")

    def __add__(self, other: "LinearOperator") -> "LinearOperator":
        self._compat(other)
        return LinearOperator(
            self.n, self.ring, lambda f: self(f) + other(f), f"({self.name} + {other.name})"
        )

    def __sub__(self, other: "LinearOperator") -> "LinearOperator":
        self._compat(other)
        return LinearOperator(
            self.n, self.ring, lambda f: self(f) - other(f), f"({self.name} - {other.name})"
        )

    def scale(self, c) -> "LinearOperator":
        return LinearOperator(self.n, self.ring, lambda f: self(f).scale(c), f"(c*{self.name})")

    def compose(self, other: "LinearOperator") -> "LinearOperator":
        """self after other: (self @ other)(f) = self(other(f))."""
        self._compat(other)
        return LinearOperator(
            self.n, self.ring, lambda f: self(other(f)), f"({self.name} . {other.name})"
        )

    def __matmul__(self, other: "LinearOperator") -> "LinearOperator":
        return self.compose(other)

    def __repr__(self):
        return f"LinearOperator({self.name}, n={self.n})"


def commutator(a: LinearOperator, b: LinearOperator) -> LinearOperator:
    a._compat(b)
    return LinearOperator(
        a.n, a.ring, lambda f: a(b(f)) - b(a(f)), f"[{a.name}, {b.name}]"
    )


def identity_op(n: int, ring: Ring) -> LinearOperator:
    return LinearOperator(n, ring, lambda f: f, "id")


def scalar_op(c, n: int, ring: Ring) -> LinearOperator:
    return LinearOperator(n, ring, lambda f: f.scale(c), "scalar")


def beta_scalar(ring: Ring):
    """The coupling symbol as a ring scalar."""
    if ring.kind == "uni":
        return BetaPoly.var()
    if ring.kind == "jet":
        return HJet.const(BetaPoly.var(), ring.order)
    raise DomainError("this ring has no coupling symbol")


# -- relabeling helpers ------------------------------------------------


def _subset_perm(subset, n: int):
    """Permutation sending 1..k onto the subset and the rest onto its
    complement, both order-preserving.  Entry p[i] is the 0-based new
    position of old variable i+1."""
    comp = [v for v in range(1, n + 1) if v not in subset]
    perm = [0] * n
    for i, v in enumerate(subset):
        perm[i] = v - 1
    for i, v in enumerate(comp):
        perm[len(subset) + i] = v - 1
    return tuple(perm)


def _subset_sign(subset, n: int) -> int:
    """Sign of ``_subset_perm(subset, n)``: the parity of the pairs v > w
    with v in the subset and w outside it."""
    inv = 0
    sset = set(subset)
    for i in subset:
        inv += sum(1 for j in range(1, i) if j not in sset)
    return -1 if inv % 2 else 1


def _alternate_over_subsets(base: MultiPoly, k: int) -> MultiPoly:
    """Sum of the signed relabelings of base over all k-subsets, divided by
    the full Vandermonde product in one exact division.

    base is the numerator of the canonical subset {1..k} over the
    Vandermonde product; the sign relating each subset's relabeling to the
    full product is the sign of the relabeling permutation.
    """
    n = base.n
    total = MultiPoly.zero(n, base.ring)
    for subset in combinations(range(1, n + 1), k):
        piece = base.permute_vars(_subset_perm(subset, n))
        total = total + (piece if _subset_sign(subset, n) == 1 else -piece)
    return exact_div(total, vandermonde(n, base.ring))


def _require_symmetric(f: MultiPoly, opname: str):
    bad = symmetry_violation(f)
    if bad is not None:
        raise NonSymmetricError(
            f"{opname} requires a symmetric argument; exchanging x{bad[0]} and "
            f"x{bad[1]} changes the input",
            bad,
        )


# -- diagonal operators (monomial-exponent weights) ---------------------


def _exponent_weighted(f: MultiPoly, weight) -> MultiPoly:
    n = f.n
    out = {}
    for k, c in f.terms.items():
        w = weight(k[:n])
        if w:
            s = out.get(k, 0) + c * w
            if s:
                out[k] = s
            else:
                del out[k]
    return MultiPoly(f.n, f.ring, out)


def euler_op(i: int, n: int, ring: Ring) -> LinearOperator:
    """x_i d/dx_i."""
    return LinearOperator(n, ring, lambda f: f.euler(i), f"x{i}d{i}")


def l_op(k: int, n: int, ring: Ring) -> LinearOperator:
    """Power sum of the Euler operators: sum_i (x_i d_i)^k."""
    if k < 0:
        raise DomainError("l_op needs k >= 0")
    return LinearOperator(
        n, ring, lambda f: _exponent_weighted(f, lambda e: sum(v**k for v in e)), f"L{k}"
    )


def m11_op(n: int, ring: Ring) -> LinearOperator:
    def w(e):
        s1 = sum(e)
        s2 = sum(v * v for v in e)
        return (s1 * s1 - s2) // 2

    return LinearOperator(n, ring, lambda f: _exponent_weighted(f, w), "m[1,1]")


def m21_op(n: int, ring: Ring) -> LinearOperator:
    def w(e):
        s1 = sum(e)
        s2 = sum(v * v for v in e)
        s3 = sum(v**3 for v in e)
        # sum_{i != j} e_i^2 e_j
        return s2 * s1 - s3

    return LinearOperator(n, ring, lambda f: _exponent_weighted(f, w), "m[2,1]")


def m111_op(n: int, ring: Ring) -> LinearOperator:
    def w(e):
        s1 = sum(e)
        s2 = sum(v * v for v in e)
        s3 = sum(v**3 for v in e)
        return (s1**3 - 3 * s1 * s2 + 2 * s3) // 6

    return LinearOperator(n, ring, lambda f: _exponent_weighted(f, w), "m[1,1,1]")


# -- q-shift ------------------------------------------------------------


def qshift_apply(i: int, qval, f: MultiPoly) -> MultiPoly:
    """Substitute x_i -> q x_i: scale each monomial by qval^(x_i exponent)."""
    if not 1 <= i <= f.n:
        raise DomainError("shift index out of range")
    return _shift_subset(f, (i,), qval)


def _shift_subset(f: MultiPoly, subset, qval) -> MultiPoly:
    """Apply the q-shift in every variable of the subset."""
    n, ring = f.n, f.ring
    powers = {}
    idx = [i - 1 for i in subset]
    for k, c in f.terms.items():
        e = sum(k[i] for i in idx)
        powers.setdefault(e, {})[k] = c
    acc = MultiPoly.zero(n, ring)
    for e, terms in sorted(powers.items()):
        piece = MultiPoly(n, ring, terms)
        acc = acc + (piece if e == 0 else piece.scale(_ring_power(qval, e, ring)))
    return acc


def _ring_power(val, e: int, ring: Ring):
    if isinstance(val, (int, Fraction)):
        return qnorm(Fraction(val) ** e)
    return val**e


# -- Dunkl operators ----------------------------------------------------


def _dd_swap(f: MultiPoly, i: int, j: int) -> MultiPoly:
    """x_i/(x_i - x_j) (1 - K_ij) applied to f; always a polynomial."""
    g = f - f.swap(i, j)
    if not g:
        return g
    num = MultiPoly.variable(i, f.n, f.ring) * g
    return exact_div(num, MultiPoly.variable(i, f.n, f.ring) - MultiPoly.variable(j, f.n, f.ring))


def dunkl_apply(i: int, f: MultiPoly) -> MultiPoly:
    """Dunkl operator d_i = x_i d_i + b sum_{j != i} x_i/(x_i-x_j)(1-K_ij)."""
    if f.ring.kind == "q":
        raise DomainError("Dunkl operators need a coefficient ring containing b")
    out = f.euler(i)
    acc = MultiPoly.zero(f.n, f.ring)
    for j in range(1, f.n + 1):
        if j != i:
            acc = acc + _dd_swap(f, i, j)
    return out + acc.scale(beta_scalar(f.ring))


def h_op_apply(k: int, f: MultiPoly) -> MultiPoly:
    """H_k = sum_i d_i^k applied to f."""
    if k < 1:
        raise DomainError("h_op needs k >= 1")
    out = MultiPoly.zero(f.n, f.ring)
    for i in range(1, f.n + 1):
        g = f
        for _ in range(k):
            g = dunkl_apply(i, g)
        out = out + g
    return out


def h_op(k: int, n: int, ring: Ring) -> LinearOperator:
    return LinearOperator(n, ring, lambda f: h_op_apply(k, f), f"H{k}")


# -- Vandermonde-kernel family ------------------------------------------


def _b_unit_canonical(k: int, l: int, f: MultiPoly) -> MultiPoly:
    """The subset term of B_{k,l} for the canonical subset {1..k}:
    sum_s x_s^{k-1} (x_s d_s)^l f / prod_{t != s}(x_s - x_t), resolved over
    the subset Vandermonde by one exact division."""
    n, ring = f.n, f.ring
    subset = list(range(1, k + 1))
    num = MultiPoly.zero(n, ring)
    for pos, s in enumerate(subset):
        g = f
        for _ in range(l):
            g = g.euler(s)
        g = g * MultiPoly.variable(s, n, ring) ** (k - 1)
        rest = vandermonde(n, ring, [t for t in subset if t != s])
        term = g * rest
        num = num + (term if pos % 2 == 0 else -term)
    return exact_div(num, vandermonde(n, ring, subset))


def b_op_apply(k: int, l: int, f: MultiPoly) -> MultiPoly:
    """B_{k,l} on a symmetric polynomial: canonical unit replicated over
    all k-subsets by relabeling."""
    if k < 1 or l < 0:
        raise DomainError("b_op needs k >= 1 and l >= 0")
    n = f.n
    if k > n:
        return MultiPoly.zero(n, f.ring)
    if not f:
        return f
    _require_symmetric(f, f"B[{k},{l}]")
    unit = _b_unit_canonical(k, l, f)
    out = MultiPoly.zero(n, f.ring)
    for subset in combinations(range(1, n + 1), k):
        out = out + unit.permute_vars(_subset_perm(subset, n))
    return out


def b_op_apply_literal(k: int, l: int, f: MultiPoly) -> MultiPoly:
    """Per-subset evaluation of B_{k,l}, no relabeling shortcut."""
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
    return LinearOperator(n, ring, lambda f: b_op_apply(k, l, f), f"B[{k},{l}]")


def pair_ratio_apply(f: MultiPoly) -> MultiPoly:
    """sum_{i<j} (x_i+x_j)/(x_i-x_j) (x_i d_i - x_j d_j) on symmetric f."""
    n, ring = f.n, f.ring
    if n < 2 or not f:
        return MultiPoly.zero(n, ring)
    _require_symmetric(f, "pair ratio sum")
    g = f.euler(1) - f.euler(2)
    num = (MultiPoly.variable(1, n, ring) + MultiPoly.variable(2, n, ring)) * g
    unit = exact_div(
        num, MultiPoly.variable(1, n, ring) - MultiPoly.variable(2, n, ring)
    )
    out = MultiPoly.zero(n, ring)
    for i, j in combinations(range(1, n + 1), 2):
        out = out + unit.permute_vars(_subset_perm((i, j), n))
    return out


def pair_ratio_op(n: int, ring: Ring) -> LinearOperator:
    return LinearOperator(n, ring, pair_ratio_apply, "S[(xi+xj)/(xi-xj)]")


def reflection_square_apply(f: MultiPoly) -> MultiPoly:
    """The operator sum_i A_i C_i on symmetric f, where
    A_i = sum_{j != i} x_i/(x_i-x_j)(1-K_ij) and
    C_i = sum_{j != i} x_i/(x_i-x_j)(x_i d_i - x_j d_j)."""
    n, ring = f.n, f.ring
    if not f:
        return f
    _require_symmetric(f, "reflection square")
    xi = MultiPoly.variable(1, n, ring)
    g = MultiPoly.zero(n, ring)
    for j in range(2, n + 1):
        num = xi * (f.euler(1) - f.euler(j))
        g = g + exact_div(num, xi - MultiPoly.variable(j, n, ring))
    term1 = MultiPoly.zero(n, ring)
    for j in range(2, n + 1):
        term1 = term1 + _dd_swap(g, 1, j)
    out = term1
    for i in range(2, n + 1):
        out = out + term1.swap(1, i)
    return out


def reflection_square_op(n: int, ring: Ring) -> LinearOperator:
    return LinearOperator(n, ring, reflection_square_apply, "sum_i A_i C_i")


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


def macdonald_apply(n: int, r: int, qval, tval, f: MultiPoly) -> MultiPoly:
    """Macdonald operator for subset size r, exact common-denominator route.

    The canonical-subset numerator is relabeled across all r-subsets with
    the sign that relates each subset's cross-difference product to the
    full Vandermonde product; a single exact division finishes the job.
    """
    if not 1 <= r <= n:
        raise DomainError(f"need 1 <= r <= n, got r={r}, n={n}")
    ring = f.ring
    if not f:
        return f
    _require_symmetric(f, "Macdonald operator")
    subset0 = tuple(range(1, r + 1))
    comp0 = tuple(range(r + 1, n + 1))
    base = (
        _cross_product(n, ring, subset0, tval)
        * vandermonde(n, ring, subset0)
        * vandermonde(n, ring, comp0)
        * _shift_subset(f, subset0, qval)
    )
    return _alternate_over_subsets(base, r).scale(_ring_power(tval, r * (r - 1) // 2, ring))


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
            * _shift_subset(f, subset, qval)
        )
        total = total + (piece if _subset_sign(subset, n) == 1 else -piece)
    quot = exact_div(total, vandermonde(n, ring))
    return quot.scale(_ring_power(tval, r * (r - 1) // 2, ring))


def macdonald_specialized(n: int, r: int, q, t) -> LinearOperator:
    q, t = Fraction(q), Fraction(t)
    return LinearOperator(
        n, Ring.q(), lambda f: macdonald_apply(n, r, q, t, f), f"D[{n},{r}](q,t)"
    )


def macdonald_jet(n: int, r: int, order: int = 4) -> LinearOperator:
    ring = Ring.jet(order)
    q = jet_q(order)
    t = jet_t(order)
    return LinearOperator(
        n, ring, lambda f: macdonald_apply(n, r, q, t, f), f"D[{n},{r}](jet{order})"
    )


# -- scalar part of the Macdonald operator --------------------------------


def macdonald_scalar_part(n: int, r: int) -> MultiPoly:
    """The subset sum with all shifts removed, applied to 1, over the
    t-polynomial ring.  A constant polynomial when the kernel sums
    telescope; compared against the t-binomial by the verifier."""
    ring = Ring.uni("t")
    tval = BetaPoly.var()
    subset0 = tuple(range(1, r + 1))
    comp0 = tuple(range(r + 1, n + 1))
    base = (
        _cross_product(n, ring, subset0, tval)
        * vandermonde(n, ring, subset0)
        * vandermonde(n, ring, comp0)
    )
    return _alternate_over_subsets(base, r)


# -- matrices -------------------------------------------------------------


@dataclass
class OperatorMatrix:
    """Exact matrix of a degree-preserving operator on an m-basis window.

    ``entries[(mu, lam)]`` is the coordinate of m_mu in the image of
    m_lam; zero entries are omitted.
    """

    n: int
    ring: Ring
    basis: tuple
    entries: dict

    @staticmethod
    def from_operator(op: LinearOperator, basis, n: int, ring: Ring) -> "OperatorMatrix":
        basis = tuple(tuple(lam) for lam in basis)
        _check_basis_closure(basis, n)
        bset = set(basis)
        entries = {}
        for lam in basis:
            image = op(monomial_symmetric(lam, n, ring))
            for mu, c in to_msym_coords(image).items():
                if not c:
                    continue
                if mu not in bset:
                    raise DomainError(
                        f"operator image leaves the basis window: m{list(mu)} "
                        f"appears in the image of m{list(lam)}"
                    )
                entries[(mu, lam)] = c
        return OperatorMatrix(n, ring, basis, entries)

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._compat(other)
        out = dict(self.entries)
        for k, c in other.entries.items():
            s = out.get(k, self._zero()) + c
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
        cols = {}
        for (mu, lam), c in other.entries.items():
            cols.setdefault(lam, []).append((mu, c))
        rows = {}
        for (mu, nu), c in self.entries.items():
            rows.setdefault(nu, []).append((mu, c))
        out = {}
        for lam, col in cols.items():
            for nu, c1 in col:
                for mu, c2 in rows.get(nu, ()):
                    key = (mu, lam)
                    s = out.get(key, self._zero()) + c2 * c1
                    if s:
                        out[key] = s
                    else:
                        out.pop(key, None)
        return OperatorMatrix(self.n, self.ring, self.basis, out)

    def commutator_with(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return (self @ other) - (other @ self)

    def _zero(self):
        return self.ring.zero_scalar()

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

    def h_slice(self, k: int) -> "OperatorMatrix":
        """Coefficient of h^k entrywise; entries become b-polynomials."""
        if self.ring.kind != "jet":
            raise DomainError("h_slice needs a jet matrix")
        out = {}
        for key, v in self.entries.items():
            c = v.coeff(k)
            if c:
                out[key] = c
        return OperatorMatrix(self.n, Ring.uni(self.ring.var), self.basis, out)

    def nonzero_cells(self):
        """Deterministically ordered (row, col, value) triples."""
        def key(cell):
            (mu, lam) = cell
            return (sum(lam), lam, sum(mu), mu)

        return [(mu, lam, self.entries[(mu, lam)]) for (mu, lam) in sorted(self.entries, key=key)]

    def render_cells(self):
        out = []
        for mu, lam, v in self.nonzero_cells():
            if isinstance(v, (int, Fraction)):
                s = str(v)
            elif isinstance(v, BetaPoly):
                s = v.render(self.ring.var)
            else:
                s = v.render("h", self.ring.var)
            out.append((_pname(mu), _pname(lam), s))
        return out


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
    return OperatorMatrix.from_operator(op, basis, op.n, op.ring)


# -- cached jet expansion matrices ----------------------------------------


@lru_cache(maxsize=None)
def jet_matrix(n: int, r: int, order: int, degree: int) -> OperatorMatrix:
    """Matrix of the jet-mode Macdonald operator on the m-basis window of
    weights 1..degree (partitions with at most n parts)."""
    from .multipoly import partitions_upto

    basis = tuple(partitions_upto(degree, n))
    return OperatorMatrix.from_operator(
        macdonald_jet(n, r, order), basis, n, Ring.jet(order)
    )


def extract_order(n: int, r: int, k: int, degree: int = 4, order: int = 4) -> OperatorMatrix:
    """The h^k coefficient of the jet-mode Macdonald operator as an exact
    matrix over b-polynomials."""
    if not 0 <= k <= order:
        raise DomainError("h order outside the jet order")
    return jet_matrix(n, r, order, degree).h_slice(k)
