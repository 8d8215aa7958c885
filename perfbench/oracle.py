"""Expected outputs, derived without the program's Weyl layer.

Roots come from the reflection orbit of the simple roots over a Cartan
matrix written here from the Bourbaki diagrams (not from the program's
root-string closure), and every count is checked against the per-family
closed forms. Betas use w_{0,P}(rho) = rho - 2 rho_P, so

    beta_alpha = 1 - sum_{gamma in R_P^+} <gamma, alpha^vee>,

and Weyl group orders use Kostant's rule: the heights of a positive system
form the partition dual to its exponents, so |W| = prod (e_i + 1) and the
Poincare polynomial of W is prod [e_i + 1]_q. The program's `special`
module supplies the closed-form verdict laws (Grassmannian, cominuscule,
full flag) as a second derivation where they apply.
"""

from functools import lru_cache
from math import factorial

RANKS = {"A": (1, 16), "B": (2, 16), "C": (2, 16), "D": (4, 16),
         "E": (6, 8), "F": (4, 4), "G": (2, 2)}
TYPES = tuple((f, r) for f, (lo, hi) in RANKS.items() for r in range(lo, hi + 1))

_E_POS = {6: 36, 7: 63, 8: 120}
_E_ORDER = {6: 51840, 7: 2903040, 8: 696729600}


def n_positive(fam, n):
    """|R^+| by the per-family formula."""
    return {"A": n * (n + 1) // 2, "B": n * n, "C": n * n, "D": n * (n - 1),
            "E": _E_POS.get(n), "F": 24, "G": 6}[fam]


def weyl_order(fam, n):
    """|W| by the per-family formula."""
    return {"A": factorial(n + 1), "B": 2 ** n * factorial(n),
            "C": 2 ** n * factorial(n), "D": 2 ** (n - 1) * factorial(n),
            "E": _E_ORDER.get(n), "F": 1152, "G": 12}[fam]


def cartan(fam, n):
    """C[i][j] = <alpha_j, alpha_i^vee>, 0-based, Bourbaki numbering."""
    C = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def simple(i, j):
        C[i][j] = C[j][i] = -1

    def multiple(long, short, m):
        C[short][long] = -m
        C[long][short] = -1

    if fam in "ABC":
        for i in range(n - 1):
            simple(i, i + 1)
        if fam == "B":
            multiple(n - 2, n - 1, 2)
        elif fam == "C":
            multiple(n - 1, n - 2, 2)
    elif fam == "D":
        for i in range(n - 2):
            simple(i, i + 1)
        simple(n - 3, n - 1)
    elif fam == "E":
        simple(0, 2)
        simple(1, 3)
        for i in range(2, n - 1):
            simple(i, i + 1)
    elif fam == "F":
        simple(0, 1)
        multiple(1, 2, 2)
        simple(2, 3)
    elif fam == "G":
        multiple(1, 0, 3)
    return C


@lru_cache(maxsize=None)
def system(fam, n):
    """(Cartan matrix, positive roots as coefficient tuples)."""
    C = cartan(fam, n)
    simple = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    roots, frontier = set(simple), list(simple)
    while frontier:
        nxt = []
        for b in frontier:
            for i in range(n):
                p = sum(C[i][j] * b[j] for j in range(n))
                if p:
                    r = b[:i] + (b[i] - p,) + b[i + 1:]
                    if r not in roots:
                        roots.add(r)
                        nxt.append(r)
        frontier = nxt
    pos = tuple(sorted(r for r in roots if sum(r) > 0))
    if len(pos) != n_positive(fam, n) or len(roots) != 2 * len(pos):
        raise AssertionError("oracle root count wrong for %s%d" % (fam, n))
    if _order_from_heights(pos) != weyl_order(fam, n):
        raise AssertionError("oracle Weyl order wrong for %s%d" % (fam, n))
    return C, pos


def levi_roots(fam, n, members):
    """R_P^+: the positive roots supported on S_P."""
    out = frozenset(range(1, n + 1)) - frozenset(members)
    return [r for r in system(fam, n)[1] if not any(r[a - 1] for a in out)]


def _exponents(pos):
    heights = [0] * (max((sum(r) for r in pos), default=0) + 2)
    for r in pos:
        heights[sum(r)] += 1
    return [k for k in range(1, len(heights) - 1)
            for _ in range(heights[k] - heights[k + 1])]


def _order_from_heights(pos):
    out = 1
    for e in _exponents(pos):
        out *= e + 1
    return out


def _poincare(pos):
    poly = [1]
    for e in _exponents(pos):
        nxt = [0] * (len(poly) + e)
        for i, a in enumerate(poly):
            for k in range(e + 1):
                nxt[i + k] += a
        poly = nxt
    return poly


def _divide(num, den):
    quo = [0] * (len(num) - len(den) + 1)
    num = list(num)
    for i in range(len(quo) - 1, -1, -1):
        quo[i] = num[i + len(den) - 1] // den[-1]
        for j, d in enumerate(den):
            num[i + j] -= quo[i] * d
    if any(num):
        raise AssertionError("W_P(q) does not divide W(q)")
    return quo


@lru_cache(maxsize=None)
def flag(fam, n, members):
    """dim G/P and {alpha: beta_alpha} for S_P = members (a sorted tuple)."""
    C, pos = system(fam, n)
    lev = levi_roots(fam, n, members)
    basis = [a for a in range(1, n + 1) if a not in members]
    betas = {a: 1 - sum(C[a - 1][j] * g[j] for g in lev for j in range(n))
             for a in basis}
    return len(pos) - len(lev), betas


@lru_cache(maxsize=None)
def coset_poincare(fam, n, members):
    """Coefficients of sum_{w in W^P} q^{l(w)} = W(q) / W_P(q), and |W^P|
    from the family order formula."""
    lev = levi_roots(fam, n, members)
    poly = _divide(_poincare(system(fam, n)[1]), _poincare(lev))
    count = weyl_order(fam, n) // _order_from_heights(lev)
    if sum(poly) != count:
        raise AssertionError("Poincare polynomial disagrees with |W|/|W_P|")
    return tuple(poly)


def verdict(margins):
    if all(m > 0 for m in margins):
        return "FANO"
    if all(m >= 0 for m in margins):
        return "WEAK_FANO_NOT_FANO"
    return "NOT_WEAK_FANO"


def cost_ms(fam, n, members):
    """Modelled milliseconds (root system, w_{0,P}) of one API query at the
    commit that added the benchmark: the root closure grows like
    |R^+| * rank, the w_{0,P} search like |R_P^+|^2 * rank. The first term is
    within about 20%; the second varies up to 2x with the shape of S_P. Used
    only to place generated queries in cost bands."""
    lev = len(levi_roots(fam, n, members))
    return 5.2e-3 * n_positive(fam, n) * n, 7.9e-4 * lev * lev * n


class Special:
    """Closed-form verdict laws from the program's `special` module."""

    def __init__(self, sb):
        self.sb = sb
        self._rs = {}

    def _system(self, fam, n):
        if (fam, n) not in self._rs:
            self._rs[fam, n] = self.sb.build_root_system(self.sb.TypeSpec(fam, n))
        return self._rs[fam, n]

    def verdicts(self, fam, n, members, c):
        """Verdicts of every law that applies to (type, S_P, c)."""
        special = self.sb.special
        out = []
        if not members:
            out.append(special.full_flag_classify(self._system(fam, n), c))
        elif len(members) == n - 1:
            node = next(a for a in range(1, n + 1) if a not in members)
            if fam == "A":
                out.append(special.grassmannian_classify(node, n + 1, c))
            rs = self._system(fam, n)
            if node in special.cominuscule_nodes(rs):
                out.append(special.cominuscule_classify(rs, node, c))
        return [v.value for v in out]


class Checker:
    """Compares one op's outputs with the expected ones; returns a list of
    problems, empty when the op is correct."""

    def __init__(self, sb):
        self.special = Special(sb)

    def classify(self, fam, n, members, c, betas, margins, verdict_value):
        members = tuple(sorted(members))
        dim, exp = flag(fam, n, members)
        problems = []
        if betas != exp:
            problems.append("betas %r, expected %r" % (betas, exp))
        want_m = {a: b - c + 2 for a, b in exp.items()}
        if margins != want_m:
            problems.append("margins %r, expected %r" % (margins, want_m))
        want_v = verdict(want_m.values())
        if verdict_value != want_v:
            problems.append("verdict %s, expected %s" % (verdict_value, want_v))
        for law in self.special.verdicts(fam, n, members, c):
            if law != want_v:
                problems.append("special law gives %s, expected %s" % (law, want_v))
        return problems

    def anticanonical(self, fam, n, members, c, basis1, exceptional, basis2, h_minus_e):
        _, exp = flag(fam, n, tuple(sorted(members)))
        want1 = [1 + exp[a] for a in sorted(exp)]
        want2 = [exp[a] + 2 - c for a in sorted(exp)]
        got = (list(basis1), exceptional, list(basis2), h_minus_e)
        want = (want1, -(c - 1), want2, c - 1)
        return [] if got == want else ["-K %r, expected %r" % (got, want)]

    def cones(self, fam, n, members, nef, mori, matrix):
        k = n - len(members)
        unit = [[int(i == j) for j in range(k)] for i in range(k)]
        want_nef = [[u, 0] for u in unit] + [[[1] * k, -1]]
        want_mori = [[u, 0] for u in unit] + [[[0] * k, 1]]
        ident = [[int(i == j) for j in range(k + 1)] for i in range(k + 1)]
        problems = []
        if nef != want_nef:
            problems.append("nef generators %r, expected %r" % (nef, want_nef))
        if mori != want_mori:
            problems.append("Mori generators %r, expected %r" % (mori, want_mori))
        if matrix != ident:
            problems.append("intersection matrix %r is not the identity" % (matrix,))
        return problems

    def census(self, fam, n, members, cells):
        """cells: [letters, dim, codim, verdict or None] for each of W^P."""
        members = tuple(sorted(members))
        dim, betas = flag(fam, n, members)
        poly = coset_poincare(fam, n, members)
        problems = []
        lengths = [0] * len(poly)
        for letters, d, codim, v in cells:
            if len(letters) != d or d + codim != dim or not 0 <= d < len(poly):
                problems.append("cell %r: dim %d codim %d, dim G/P %d"
                                % (letters, d, codim, dim))
                continue
            lengths[d] += 1
            want = verdict([b - codim + 2 for b in betas.values()]) if codim >= 2 else None
            laws = self.special.verdicts(fam, n, members, codim) if codim >= 2 else []
            if v != want or any(law != want for law in laws):
                problems.append("cell %r at codim %d: verdict %s, special laws %s, expected %s"
                                % (letters, codim, v, laws, want))
        if len({tuple(c[0]) for c in cells}) != len(cells):
            problems.append("repeated coset representatives")
        if lengths != list(poly):
            problems.append("cells per length %r, expected %r" % (lengths, list(poly)))
        return problems
