"""Command-line front end.

Subcommands: classify, cones, table, check. Exit codes: 0 success,
1 self-check failure, 2 usage/validation error (one stderr line), 3 a
self-check crashed (an ERROR line, which takes precedence over FAIL). All
numeric output is exact integers; --format json emits a machine-readable
report. The CLI only parses: the library validates what it is given.
"""

import argparse
import sys

from . import blowup, flag
from .conventions import RANK_BOUNDS
from .errors import EngineError
from .rootsys import TypeSpec, all_types, build_root_system
from .weyl import ParabolicSubset


class _Parser(argparse.ArgumentParser):
    """Usage errors raise EngineError, so that main reports them as one
    line with exit 2; the subparsers inherit this class."""

    def error(self, message):
        # argparse echoes unrecognized arguments verbatim
        raise EngineError(" ".join(message.splitlines()))


def _parse_parabolic(text):
    try:
        return ParabolicSubset.of(int(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise EngineError("parabolic list must be comma-separated integers: %r"
                          % text.strip())


def _flag_variety(args):
    rs = build_root_system(TypeSpec(args.type, args.rank))
    return flag.FlagVariety(rs, _parse_parabolic(args.parabolic))


def _dump_json(obj):
    import json  # here: only --format json needs it, and text calls start faster
    print(json.dumps(obj, indent=2, sort_keys=True))


def _input(fv, c):
    """The `input` block of the classify and cones JSON reports."""
    return {"type": str(fv.rs.spec), "parabolic": sorted(fv.par.members),
            "picard_basis": list(flag.picard_basis(fv)), "codim": c}


def _classify_payload(fv, c):
    rep = blowup.classify(fv, c)
    dc, basis2 = blowup.anticanonical_class(fv, c)
    basis = flag.picard_basis(fv)
    return rep, {
        "input": _input(fv, c),
        "betas": {str(a): rep.betas[a] for a in basis},
        "margins": {str(a): rep.margins[a] for a in basis},
        "verdict": rep.verdict.value,
        "anticanonical": {
            "basis1": {
                "pullback": list(dc.pullback_coeffs),
                "exceptional": dc.exceptional_coeff,
            },
            "basis2": {
                "pullback": list(basis2[:-1]),
                "h_minus_e": basis2[-1],
            },
        },
        # -K is big whenever it is nef; beyond that, bigness is not decided
        "anticanonical_big": (
            "unknown" if rep.verdict == blowup.Verdict.NOT_WEAK_FANO else "true"),
    }


def cmd_classify(args):
    fv = _flag_variety(args)
    rep, payload = _classify_payload(fv, args.codim)
    if args.format == "json":
        _dump_json(payload)
        return 0
    basis = flag.picard_basis(fv)
    print("type        : %s" % payload["input"]["type"])
    print("S_P         : %s" % (sorted(fv.par.members) or "{}"))
    print("S \\ S_P     : %s" % list(basis))
    print("dim X       : %d" % flag.dimension(fv))
    print("codim c     : %d" % args.codim)
    for a in basis:
        print("beta_%-2d     : %d   margin beta-c+2 = %d" % (a, rep.betas[a], rep.margins[a]))
    b1 = payload["anticanonical"]["basis1"]
    b2 = payload["anticanonical"]["basis2"]
    print("-K (Bl*D, E): %s, E coeff %d" % (b1["pullback"], b1["exceptional"]))
    print("-K (Bl*D, H-E): %s, H-E coeff %d" % (b2["pullback"], b2["h_minus_e"]))
    print("-K big      : %s" % payload["anticanonical_big"])
    print("verdict     : %s" % rep.verdict.value)
    return 0


def cmd_cones(args):
    fv = _flag_variety(args)
    nef = blowup.nef_generators(fv, args.codim)
    mori = blowup.mori_generators(fv, args.codim)
    matrix = [[blowup.intersect(d, k) for k in mori] for d in nef]
    if args.format == "json":
        _dump_json({
            "input": _input(fv, args.codim),
            "nef_generators": [
                {"pullback": list(d.pullback_coeffs), "exceptional": d.exceptional_coeff}
                for d in nef
            ],
            "mori_generators": [
                {"tilde": list(k.tilde_coeffs), "e": k.e_coeff} for k in mori
            ],
            "intersection_matrix": matrix,
        })
        return 0
    basis = flag.picard_basis(fv)
    labels = ["Bl*D_%d" % a for a in basis] + ["H-E_Z"]
    clabels = ["C~_%d" % a for a in basis] + ["e"]
    print("type %s, S_P %s, codim %d" % (fv.rs.spec, sorted(fv.par.members) or "{}", args.codim))
    print("nef generators : " + ", ".join(labels))
    print("Mori generators: " + ", ".join(clabels))
    print("intersection matrix:")
    for lab, row in zip(labels, matrix):
        print("  %-10s %s" % (lab, " ".join("%2d" % v for v in row)))
    return 0


def _table_rows(families, max_rank, policy):
    rows = []
    for spec in all_types(max_rank, families):
        rs = build_root_system(spec)
        nodes = range(1, rs.rank + 1)
        if policy == "full-flag":
            pars = [ParabolicSubset.of(())]
        else:
            pars = [ParabolicSubset.of(set(nodes) - {node}) for node in nodes]
        for par in pars:
            fv = flag.FlagVariety(rs, par)
            betas = flag.beta_values(fv)
            basis = flag.picard_basis(fv)
            bmin = min(betas[a] for a in basis)
            rows.append({
                "type": str(spec),
                "crossed_nodes": list(basis),
                "dim": flag.dimension(fv),
                "betas": {str(a): betas[a] for a in basis},
                "fano_max_c": bmin + 1,
                "weak_fano_boundary_c": bmin + 2,
            })
    return rows


def cmd_table(args):
    families = [f.strip() for f in args.families.split(",") if f.strip()]
    policy = "full-flag" if args.full_flag else "maximal-parabolics"
    rows = _table_rows(families, args.max_rank, policy)
    if args.format == "json":
        _dump_json({"policy": policy, "rows": rows})
        return 0
    print("%-5s %-14s %5s %-20s %-28s" % ("type", "crossed", "dimX", "betas", "Fano range"))
    for r in rows:
        betas = ",".join("%s:%d" % kv for kv in r["betas"].items())
        print("%-5s %-14s %5d %-20s Fano for 2<=c<=%d, boundary c=%d" % (
            r["type"], ",".join(map(str, r["crossed_nodes"])), r["dim"], betas,
            r["fano_max_c"], r["weak_fano_boundary_c"],
        ))
    return 0


def cmd_check(args):
    # imported here: only `check` needs it, and it slows every other call's start-up
    from . import selfcheck

    results = selfcheck.run_all()
    for name, status, error in results:
        print("%s %s%s" % (status, name, ": " + error if error else ""))
    statuses = [status for _, status, _ in results]
    print("%d/%d checks passed" % (statuses.count("PASS"), len(results)))
    return 3 if "ERROR" in statuses else 1 if "FAIL" in statuses else 0


def build_parser():
    p = _Parser(
        prog="schubert-blowup",
        description="Fano / weak-Fano classification of blow-ups of flag "
                    "varieties along smooth Schubert varieties",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--type", required=True, choices=list(RANK_BOUNDS))
        sp.add_argument("--rank", required=True, type=int)
        sp.add_argument("--parabolic", default="",
                        help="comma-separated S_P node indices (what P contains)")
        sp.add_argument("--codim", required=True, type=int)
        sp.add_argument("--format", default="text", choices=["text", "json"])

    sp = sub.add_parser("classify", help="Fano report for Bl_Z(G/P)")
    common(sp)
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("cones", help="nef/Mori cone generators and pairing")
    common(sp)
    sp.set_defaults(fn=cmd_cones)

    sp = sub.add_parser("table", help="sweep table of beta values and boundaries")
    sp.add_argument("--families", required=True, help="comma-separated, e.g. A,B,G")
    sp.add_argument("--max-rank", type=int, default=4)
    sp.add_argument("--full-flag", action="store_true")
    sp.add_argument("--format", default="text", choices=["text", "json"])
    sp.set_defaults(fn=cmd_table)

    sp = sub.add_parser("check", help="run the invariant self-check suites")
    sp.set_defaults(fn=cmd_check)

    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except EngineError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
