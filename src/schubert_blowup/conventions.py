"""Fixed conventions used throughout the package.

Node numbering
--------------
All simple roots are numbered 1..rank following Bourbaki (Plates I-IX).
_diagram writes each Dynkin diagram once, as its chain of nodes, the node
off the chain with its hub, and the multiple bond with its long and short
ends; the Cartan columns, the Levi split of simple_factors and
reference._symmetrizers are derived from it.

Cartan matrix orientation
-------------------------
C[i][j] = <alpha_j, alpha_i^vee>, so column j of C is the simple root
alpha_j written in fundamental-weight coordinates, and pairing a weight
against a coroot is a plain dot product of coordinate vectors.
cartan_columns gives only the nonzero entries of each column, once per type.

Closed forms
------------
positive_root_count gives |R^+| and two_rho gives 2 rho over the simple
roots of each simple type. simple_factors splits a set of nodes into the
simple factors of its subsystem, read off _diagram, so that the flag
invariants take |R_P^+| and 2 rho_P of a Levi from these closed forms,
with no root closure.
"""

from functools import cache

from .errors import EngineError

RANK_CAP = 16

# (min rank, max rank) per family; E is the exceptional list {6,7,8}. Its
# keys, in this order, are the one list of families.
RANK_BOUNDS = {
    "A": (1, RANK_CAP),
    "B": (2, RANK_CAP),
    "C": (2, RANK_CAP),
    "D": (4, RANK_CAP),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


# the Coxeter number h = a * rank + b as (a, b) by family, E_n's by (family, rank)
_COXETER = {"A": (1, 1), "B": (2, 0), "C": (2, 0), "D": (2, -2), "F": (0, 12), "G": (0, 6),
            ("E", 6): (0, 12), ("E", 7): (0, 18), ("E", 8): (0, 30)}


def positive_root_count(family, rank):
    """|R^+| = rank * h / 2 for the Coxeter number h (Humphreys, Reflection
    Groups and Coxeter Groups, 3.18; Bourbaki, Plates I-IX): n(n+1)/2 for
    A_n, n^2 for B_n and C_n, n(n-1) for D_n, 36, 63 and 120 for E_6, E_7
    and E_8, 24 for F_4 and 6 for G_2 (TypeSpec checks the type)."""
    a, b = _COXETER[(family, rank) if family == "E" else family]
    return rank * (a * rank + b) // 2


# 2 rho over the simple roots of the exceptional types (Bourbaki, Plates V-IX)
_TWO_RHO = {
    ("E", 6): (16, 22, 30, 42, 30, 16),
    ("E", 7): (34, 49, 66, 96, 75, 52, 27),
    ("E", 8): (92, 136, 182, 270, 220, 168, 114, 58),
    ("F", 4): (16, 30, 42, 22),
    ("G", 2): (10, 6),
}


@cache  # per simple type: a sweep asks for the same few Levi factors again and again
def two_rho(family, rank):
    """2 rho of a simple type over its simple roots, in Bourbaki order
    (Plates I-IX): j(m+1-j) on A_m; j(2m-j) on B_m; j(2m-j+1), and
    m(m+1)/2 on node m, on C_m; j(2m-j-1), and m(m-1)/2 on both fork
    nodes, on D_m (m >= 3, D_3 = A_3); a table for E, F and G."""
    m = rank
    if family == "A":
        return tuple(j * (m + 1 - j) for j in range(1, m + 1))
    if family == "B":
        return tuple(j * (2 * m - j) for j in range(1, m + 1))
    if family == "C":
        return tuple(j * (2 * m - j + 1) for j in range(1, m)) + (m * (m + 1) // 2,)
    if family == "D":
        return tuple(j * (2 * m - j - 1) for j in range(1, m - 1)) + (m * (m - 1) // 2,) * 2
    return _TWO_RHO[family, rank]


def _diagram(family, rank):
    """The Dynkin diagram of a simple type (Bourbaki, Plates I-IX), the one
    source of the Cartan columns, the symmetrizers and the Levi split:
    (chain, extra, hub, bond). chain is the path of nodes, 1..n except in
    E_n (1, 3, 4, ..., n); extra is the node off the chain (n in D_n, 2 in
    E_n, else None) and hub its neighbour on the chain; bond is the multiple
    bond as (long end, short end, multiplicity), else None."""
    n = rank
    chain, extra, hub, bond = range(1, n + 1), None, None, None
    if family == "B":
        bond = (n - 1, n, 2)
    elif family == "C":
        bond = (n, n - 1, 2)
    elif family == "D":
        chain, extra, hub = range(1, n), n, n - 2
    elif family == "E":
        chain, extra, hub = (1, *range(3, n + 1)), 2, 4
    elif family == "F":
        bond = (2, 3, 2)
    elif family == "G":
        bond = (2, 1, 3)
    return chain, extra, hub, bond


def simple_factors(family, rank, members):
    """The simple factors of the subsystem on the 1-based nodes `members`
    of a simple type, the Levi of S_P: a list of (family, rank, nodes), the
    nodes of each factor in its own Bourbaki order.

    A run of `members` along the chain of _diagram is one factor, and the
    extra node joins the run through its hub.
    - A run alone is A_m unless it holds both ends of the multiple bond.
      Then it is turned so that the bond is at its end (a two-node run keeps
      the chain's order), and it is B_m if it ends at the short node, else
      C_m: F_4's {2,3,4} is C_3, read from node 4.
    - In D_n, the run through n-2 with node n is D_m if it holds n-1
      (D_3 = A_3), else a chain A_m.
    - In E_n, the run through 4 with node 2 has an arm of at most 2 nodes
      to the left (3, then 1) and one of k nodes to the right: a chain A_m
      if either is empty, else D_{k+3} (left arm 1), D_5 (left arm 2,
      k = 1) or E_{k+4} (left arm 2, k >= 2).
    """
    if not members:  # the full flag: a trivial Levi
        return []
    n = rank
    if len(members) == n:  # all of S: the type itself
        return [(family, n, tuple(range(1, n + 1)))]
    chain, extra, hub, bond = _diagram(family, n)
    runs, run = [], []
    for i in (*chain, None):  # None ends the last run
        if i in members:
            run.append(i)
        elif run:
            runs.append(run)
            run = []
    if extra in members and hub not in members:
        runs.append([extra])
    factors = []
    for run in runs:
        fam = "A"
        if hub in run and extra in members:
            if family == "D":
                fam = "D" if run[-1] == n - 1 else "A"
                run = run + [n]
            else:
                k = run.index(4)
                left, right = run[:k], run[k + 1:]
                if not (left and right):
                    run = run + [2] if left else [2] + run
                elif len(left) == 1:
                    fam, run = "D", right[::-1] + [4, 3, 2]
                elif len(right) == 1:
                    fam, run = "D", run + [2]
                else:
                    fam, run = "E", [1, 2] + run[1:]
        elif bond and bond[0] in run and bond[1] in run:
            if run[-1] not in bond:
                run = run[::-1]
            fam = "B" if run[-1] == bond[1] else "C"
        factors.append((fam, len(run), tuple(run)))
    return factors


def rank_bounds(family):
    try:
        return RANK_BOUNDS[family]
    except (KeyError, TypeError):  # no family, or unhashable, as a list is
        raise EngineError("unknown family %r" % (family,)) from None


def check_type(family, rank):
    lo, hi = rank_bounds(family)
    if not (isinstance(rank, int) and lo <= rank <= hi):
        raise EngineError(
            "rank %r not admissible for family %s (allowed %d..%d)"
            % (rank, family, lo, hi)
        )


@cache  # per simple type, as two_rho: every RootSystem of a type shares one tuple
def cartan_columns(family, rank):
    """Per node j (0-based), the nonzero (row, entry) pairs of Cartan column
    j, rows ascending, built from the edges of the diagram in O(rank): 2 on
    the diagonal, -1 at each edge, and <alpha_long, alpha_short^vee> = -m in
    the long end's column at the short end's row of the m-fold bond
    (TypeSpec checks the type)."""
    chain, extra, hub, bond = _diagram(family, rank)
    cols = [{j: 2} for j in range(rank)]
    edges = list(zip(chain, chain[1:]))
    if extra:
        edges.append((hub, extra))
    for i, j in edges:
        cols[i - 1][j - 1] = cols[j - 1][i - 1] = -1
    if bond:
        long, short, m = bond
        cols[long - 1][short - 1] = -m
    return tuple(tuple(sorted(col.items())) for col in cols)

