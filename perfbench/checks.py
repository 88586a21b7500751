"""Independent reference values for the benchmark's correctness checks.

Everything here is plain ``fractions.Fraction`` arithmetic written from the
mathematical definitions; nothing imports macdunkl.  Each ``check_*``
function takes plain data read off the program's output (dicts of
rationals keyed by partitions or exponents) and returns a list of problem
strings, empty when the output is right.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial


def dominates(lam, mu) -> bool:
    """Dominance order on partitions of equal weight: lam >= mu."""
    if sum(lam) != sum(mu):
        return False
    acc_l = acc_m = 0
    for i in range(max(len(lam), len(mu))):
        acc_l += lam[i] if i < len(lam) else 0
        acc_m += mu[i] if i < len(mu) else 0
        if acc_l < acc_m:
            return False
    return True


def _pad(lam, n):
    return tuple(lam) + (0,) * (n - len(lam))


def _clean(d):
    return {k: v for k, v in d.items() if v}


def _triangularity_problems(label, cells):
    return [
        f"{label}: entry m{list(mu)} <- m{list(lam)} lies outside dominance order"
        for (mu, lam) in cells
        if not dominates(lam, mu)
    ]


# -- jet-mode Macdonald operator -------------------------------------------


def jet_eigenvalue(lam, n: int, r: int, order: int):
    """h-jet through h^order of e_r(exp(h(lam_i + b(n-i)))), i = 1..n, as
    {(h power, b power): rational}."""
    lam = _pad(lam, n)
    out = {}
    for subset in combinations(range(n), r):
        a = sum(lam[i] for i in subset)
        c = sum(n - 1 - i for i in subset)
        # exp(h (a + b c)) = sum_k h^k (a + b c)^k / k!
        for k in range(order + 1):
            for j in range(k + 1):
                term = Fraction(comb(k, j) * a ** (k - j) * c**j, factorial(k))
                out[(k, j)] = out.get((k, j), 0) + term
    return _clean(out)


def check_jet_matrix(n: int, r: int, order: int, basis, cells):
    """cells: {(mu, lam): {(h power, b power): rational}}, zero cells omitted.

    The matrix must be triangular in dominance order with the Macdonald
    eigenvalue on its diagonal."""
    label = f"jet_matrix({n},{r},{order})"
    problems = _triangularity_problems(label, cells)
    for lam in basis:
        got = _clean(cells.get((lam, lam), {}))
        want = jet_eigenvalue(lam, n, r, order)
        if got != want:
            problems.append(f"{label}: diagonal at m{list(lam)} is {got}, expected {want}")
    return problems


# -- Macdonald operator at rational (q, t) --------------------------------


def macdonald_eigenvalue(lam, n: int, r: int, q: Fraction, t: Fraction) -> Fraction:
    """e_r(q^lam_1 t^(n-1), ..., q^lam_n t^0)."""
    lam = _pad(lam, n)
    ys = [q ** lam[i] * t ** (n - 1 - i) for i in range(n)]
    total = Fraction(0)
    for subset in combinations(ys, r):
        prod = Fraction(1)
        for y in subset:
            prod *= y
        total += prod
    return total


def check_macdonald_matrix(n: int, r: int, q, t, basis, cells):
    """cells: {(mu, lam): rational}; triangular with e_r(q^lam t^delta) on
    the diagonal."""
    q, t = Fraction(q), Fraction(t)
    label = f"D({n},{r}) at q={q}, t={t}"
    problems = _triangularity_problems(label, cells)
    for lam in basis:
        got = cells.get((lam, lam), 0)
        want = macdonald_eigenvalue(lam, n, r, q, t)
        if got != want:
            problems.append(f"{label}: diagonal at m{list(lam)} is {got}, expected {want}")
    return problems


# -- Dunkl power sum H_2 -----------------------------------------------------


def h2_eigenvalue(lam, n: int):
    """sum lam_i^2 + b sum (n + 1 - 2i) lam_i, as {b power: rational}."""
    lam = _pad(lam, n)
    return _clean(
        {
            0: sum(p * p for p in lam),
            1: sum((n + 1 - 2 * i) * lam[i - 1] for i in range(1, n + 1)),
        }
    )


def check_h2_matrix(n: int, basis, cells):
    """cells: {(mu, lam): {b power: rational}}."""
    label = f"H_2 (n={n})"
    problems = _triangularity_problems(label, cells)
    for lam in basis:
        got = _clean(cells.get((lam, lam), {}))
        want = h2_eigenvalue(lam, n)
        if got != want:
            problems.append(f"{label}: diagonal at m{list(lam)} is {got}, expected {want}")
    return problems


# -- t-binomials -------------------------------------------------------------


def t_binomial_value(n: int, r: int, t: Fraction) -> Fraction:
    """prod_{i=0}^{r-1} (1 - t^(n-i)) / (1 - t^(i+1)) at t != 1."""
    val = Fraction(1)
    for i in range(r):
        val *= (1 - t ** (n - i)) / (1 - t ** (i + 1))
    return val


def check_t_binomial(n: int, r: int, coeffs, points):
    """coeffs[k] is the coefficient of t^k; points are rationals other than
    0 and +-1."""
    problems = []
    for t in points:
        t = Fraction(t)
        got = sum(Fraction(c) * t**k for k, c in enumerate(coeffs))
        want = t_binomial_value(n, r, t)
        if got != want:
            problems.append(f"[{n} {r}] at t={t} is {got}, expected {want}")
    return problems


# -- triple-kernel type families ---------------------------------------------
#
# Each family is a sum over r-subsets I and index patterns with some
# indices inside I and some outside: a monomial over a product of three
# differences (x_i - x_p), i inside, p outside, times the subset Euler sum
# sum_{u in I} x_u d/dx_u applied to the argument.  The generators below
# enumerate the patterns of one subset as (monomial exponents, pairs).


def _type1(ins, outs):
    for i in ins:
        for p, q, s in combinations(outs, 3):
            yield {i: 3}, ((i, p), (i, q), (i, s))


def _type2(ins, outs):
    for i, j, k in combinations(ins, 3):
        for p in outs:
            yield {i: 1, j: 1, k: 1}, ((i, p), (j, p), (k, p))


def _type3(ins, outs):
    for i, j in permutations(ins, 2):
        for p, q in combinations(outs, 2):
            for s in outs:
                if s not in (p, q):
                    yield {i: 2, j: 1}, ((i, p), (i, q), (j, s))


def _type4(ins, outs):
    for i, j in combinations(ins, 2):
        for k in ins:
            if k in (i, j):
                continue
            for p, q in permutations(outs, 2):
                yield {i: 1, j: 1, k: 1}, ((i, p), (j, p), (k, q))


def _type5(ins, outs):
    for trio in combinations(ins, 3):
        for image in permutations(outs, 3):
            yield {v: 1 for v in trio}, tuple(zip(trio, image))


def _type6(ins, outs):
    for i, j in permutations(ins, 2):
        for p, q in permutations(outs, 2):
            yield {i: 2, j: 1}, ((i, p), (i, q), (j, p))


TYPE_PATTERNS = {1: _type1, 2: _type2, 3: _type3, 4: _type4, 5: _type5, 6: _type6}


def _distinct_permutations(lam, n):
    return sorted(set(permutations(_pad(lam, n))))


def type_sum_value(n: int, r: int, tid: int, lam, point) -> Fraction:
    """The type-tid sum applied to m_lam, evaluated at the point
    (distinct rationals x_1..x_n), from the subset-and-pattern definition."""
    x = [Fraction(v) for v in point]
    monos = []
    for alpha in _distinct_permutations(lam, n):
        val = Fraction(1)
        for i, e in enumerate(alpha):
            val *= x[i] ** e
        monos.append((alpha, val))
    total = Fraction(0)
    for subset in combinations(range(n), r):
        euler = sum(sum(alpha[u] for u in subset) * val for alpha, val in monos)
        if not euler:
            continue
        outs = [v for v in range(n) if v not in subset]
        for exps, pairs in TYPE_PATTERNS[tid](subset, outs):
            num = Fraction(1)
            for v, e in exps.items():
                num *= x[v] ** e
            den = Fraction(1)
            for i, p in pairs:
                den *= x[i] - x[p]
            total += num / den * euler
    return total


def check_type_column(n: int, r: int, tid: int, lam, point, raw_value, closed_value):
    """Compare the program's raw and closed images of m_lam, evaluated at the
    point, against the definition."""
    want = type_sum_value(n, r, tid, lam, point)
    label = f"type{tid} (n={n}, r={r}) on m{list(lam)} at x={[str(v) for v in point]}"
    problems = []
    if raw_value != want:
        problems.append(f"{label}: raw image gives {raw_value}, definition gives {want}")
    if closed_value != want:
        problems.append(f"{label}: closed image gives {closed_value}, definition gives {want}")
    return problems


def evaluate_terms(terms, n: int, point) -> Fraction:
    """Value at the point of a polynomial given as {exponent tuple: rational};
    only the first n exponent slots are read."""
    x = [Fraction(v) for v in point]
    total = Fraction(0)
    for key, c in terms.items():
        val = Fraction(c)
        for i in range(n):
            if key[i]:
                val *= x[i] ** key[i]
        total += val
    return total
