"""Fixed conventions used throughout the package.

Node numbering
--------------
All simple roots are numbered 1..rank following Bourbaki (Plates I-IX):

* A_n : chain 1 - 2 - ... - n.
* B_n : chain 1 - ... - n, node n is the short root.
* C_n : chain 1 - ... - n, node n is the long root.
* D_n : chain 1 - ... - (n-2), with both (n-1) and n attached to (n-2).
* E_n : chain 1 - 3 - 4 - 5 - ... - n, node 2 attached to node 4.
* F_4 : chain 1 - 2 - 3 - 4; nodes 1, 2 long, nodes 3, 4 short.
* G_2 : node 1 short, node 2 long (highest root 3*a1 + 2*a2).

Cartan matrix orientation
-------------------------
C[i][j] = <alpha_j, alpha_i^vee>, so column j of C is the simple root
alpha_j written in fundamental-weight coordinates, and pairing a weight
against a coroot is a plain dot product of coordinate vectors.

Symmetrizers
------------
d = (d_1, ..., d_l) are the smallest positive integers making diag(d) @ C
symmetric; (alpha_i, alpha_j) = d_i * C[i][j] defines the invariant form,
so (alpha_i, alpha_i) = 2 * d_i.

Closed forms
------------
positive_root_count gives |R^+| and two_rho gives 2 rho over the simple
roots of each simple type. simple_factors splits a set of nodes into the
simple factors of its subsystem, read off the same diagrams as
cartan_entries, so that the flag invariants take |R_P^+| and 2 rho_P of
a Levi from these closed forms, with no root closure.
"""

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


def positive_root_count(family, rank):
    """|R^+| = rank * h / 2 for the Coxeter number h (Humphreys, Reflection
    Groups and Coxeter Groups, 3.18; Bourbaki, Plates I-IX): n(n+1)/2 for
    A_n, n^2 for B_n and C_n, n(n-1) for D_n, 36, 63 and 120 for E_6, E_7
    and E_8, 24 for F_4 and 6 for G_2 (TypeSpec checks the type)."""
    if family == "E":
        h = {6: 12, 7: 18, 8: 30}[rank]
    else:
        h = {"A": rank + 1, "B": 2 * rank, "C": 2 * rank, "D": 2 * rank - 2,
             "F": 12, "G": 6}[family]
    return rank * h // 2


# 2 rho over the simple roots of the exceptional types (Bourbaki, Plates V-IX)
_TWO_RHO = {
    ("E", 6): (16, 22, 30, 42, 30, 16),
    ("E", 7): (34, 49, 66, 96, 75, 52, 27),
    ("E", 8): (92, 136, 182, 270, 220, 168, 114, 58),
    ("F", 4): (16, 30, 42, 22),
    ("G", 2): (10, 6),
}


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


def simple_factors(family, rank, members):
    """The simple factors of the subsystem on the 1-based nodes `members`
    of a simple type, the Levi of S_P: a list of (family, rank, nodes), the
    nodes of each factor in its own Bourbaki order.

    Each diagram is a chain with at most one extra node: node n of D_n
    hangs on node n-2, and node 2 of E_n on node 4. A run of `members`
    along the chain is one factor, and the extra node joins the run
    through its hub.
    - A run alone is A_m unless a double bond lies inside it: ending at
      node n of B_n or C_n (m >= 2), it is B_m or C_m; in F_4, {2,3} is
      B_2, {1,2,3} is B_3 and {2,3,4} is C_3, read from node 4.
    - In D_n, the run through n-2 with node n is D_m if it holds n-1
      (D_3 = A_3), else a chain A_m.
    - In E_n, the run through 4 with node 2 has an arm of at most 2 nodes
      to the left (3, then 1) and one of k nodes to the right: a chain A_m
      if either is empty, else D_{k+3} (left arm 1), D_5 (left arm 2,
      k = 1) or E_{k+4} (left arm 2, k >= 2).
    """
    n = rank
    if len(members) == n:  # all of S: the type itself
        return [(family, n, tuple(range(1, n + 1)))]
    if family == "D":
        chain, extra, hub = range(1, n), n, n - 2
    elif family == "E":
        chain, extra, hub = (1, *range(3, n + 1)), 2, 4
    else:
        chain, extra, hub = range(1, n + 1), None, None
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
        elif family in "BC" and run[-1] == n and len(run) > 1:
            fam = family
        elif family == "F" and 2 in run and 3 in run:
            fam, run = ("C", run[::-1]) if 4 in run else ("B", run)
        factors.append((fam, len(run), tuple(run)))
    return factors


def rank_bounds(family):
    if family not in RANK_BOUNDS:
        raise EngineError("unknown family %r" % (family,))
    return RANK_BOUNDS[family]


def check_type(family, rank):
    lo, hi = rank_bounds(family)
    if not (isinstance(rank, int) and lo <= rank <= hi):
        raise EngineError(
            "rank %r not admissible for family %s (allowed %d..%d)"
            % (rank, family, lo, hi)
        )


def cartan_entries(family, rank):
    """rank x rank Cartan matrix as a tuple of row tuples (TypeSpec checks the type)."""
    n = rank
    C = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i, j, cij=-1, cji=-1):
        # 0-based node indices
        C[i][j] = cij
        C[j][i] = cji

    if family == "A":
        for i in range(n - 1):
            bond(i, i + 1)
    elif family == "B":
        for i in range(n - 2):
            bond(i, i + 1)
        # node n short: <alpha_{n-1}, alpha_n^vee> = -2
        bond(n - 2, n - 1, -1, -2)
    elif family == "C":
        for i in range(n - 2):
            bond(i, i + 1)
        # node n long: <alpha_n, alpha_{n-1}^vee> = -2
        bond(n - 2, n - 1, -2, -1)
    elif family == "D":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 3, n - 1)
    elif family == "E":
        bond(0, 2)
        bond(1, 3)
        for i in range(2, n - 1):
            bond(i, i + 1)
    elif family == "F":
        bond(0, 1)
        # nodes 1,2 long, nodes 3,4 short: <alpha_2, alpha_3^vee> = -2
        bond(1, 2, -1, -2)
        bond(2, 3)
    elif family == "G":
        # node 1 short: <alpha_2, alpha_1^vee> = -3
        bond(0, 1, -3, -1)
    return tuple(tuple(row) for row in C)


def symmetrizer(family, rank):
    """Diagonal d with diag(d) @ C symmetric, minimal positive integers."""
    n = rank
    if family == "B":
        return tuple([2] * (n - 1) + [1])
    if family == "C":
        return tuple([1] * (n - 1) + [2])
    if family == "F":
        return (2, 2, 1, 1)
    if family == "G":
        return (1, 3)
    return tuple([1] * n)
