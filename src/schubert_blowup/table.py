"""The `table` command: the beta values and Fano boundaries of the maximal
parabolics, or of the full flag, of every type up to a rank.

cli.cmd_table imports this module when `table` runs, as cmd_check imports
selfcheck, so a classify or cones call never compiles it. It does not
import cli: `python -m schubert_blowup.cli` runs cli as __main__, and an
import of schubert_blowup.cli would compile and run it a second time. So
cmd_table hands run its JSON writer.
"""

from . import flag
from .conventions import RANK_BOUNDS, RANK_CAP, rank_bounds
from .errors import EngineError
from .rootsys import TypeSpec, build_root_system
from .weyl import ParabolicSubset


def all_types(max_rank, families=RANK_BOUNDS):
    """Every TypeSpec of rank at most max_rank, family by family in the
    order of `families`, each by ascending rank. Families that are not
    iterable or are empty, a max_rank that is not an int in 1..RANK_CAP and
    a family given twice are errors."""
    try:
        families = tuple(families)
    except TypeError:
        raise EngineError("families %r are not a sequence of family names" % (families,)) from None
    if not families:
        raise EngineError("empty family list")
    if not isinstance(max_rank, int) or max_rank < 1:
        raise EngineError("max rank must be at least 1, got %r" % (max_rank,))
    if max_rank > RANK_CAP:
        raise EngineError("max rank capped at %d for sweeps" % RANK_CAP)
    out, seen = [], set()
    for fam in families:
        lo, hi = rank_bounds(fam)
        if fam in seen:
            raise EngineError("family %r given more than once" % (fam,))
        seen.add(fam)
        for r in range(lo, min(hi, max_rank) + 1):
            out.append(TypeSpec(fam, r))
    return out


def rows(families, max_rank, policy):
    """One row per variety of the table: its type, crossed nodes, dimension,
    betas and the two Fano boundaries."""
    out = []
    for spec in all_types(max_rank, families):
        rs = build_root_system(spec)
        nodes = range(1, rs.rank + 1)
        if policy == "full-flag":
            pars = [ParabolicSubset(())]
        else:
            pars = [ParabolicSubset(set(nodes) - {node}) for node in nodes]
        for par in pars:
            fv = flag.FlagVariety(rs, par)
            betas = flag.beta_values(fv)
            basis = flag.picard_basis(fv)
            bmin = flag.least_beta(fv)
            out.append({
                "type": str(spec),
                "crossed_nodes": list(basis),
                "dim": flag.dimension(fv),
                "betas": {str(a): betas[a] for a in basis},
                "fano_max_c": bmin + 1,
                "weak_fano_boundary_c": bmin + 2,
            })
    return out


def run(args, to_json):
    """Print the table for cli's {name: value} args, as JSON through
    `to_json` or as text; the exit code."""
    families = [f.strip() for f in args["families"].split(",") if f.strip()]
    policy = "full-flag" if args["full-flag"] else "maximal-parabolics"
    table = rows(families, args["max-rank"], policy)
    if args["format"] == "json":
        print(to_json({"policy": policy, "rows": table}))
        return 0
    print("%-5s %-14s %5s %-20s %-28s" % ("type", "crossed", "dimX", "betas", "Fano range"))
    for r in table:
        betas = ",".join("%s:%d" % kv for kv in r["betas"].items())
        print("%-5s %-14s %5d %-20s Fano for 2<=c<=%d, boundary c=%d" % (
            r["type"], ",".join(map(str, r["crossed_nodes"])), r["dim"], betas,
            r["fano_max_c"], r["weak_fano_boundary_c"],
        ))
    return 0
