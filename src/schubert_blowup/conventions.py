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
