"""Command-line front end.

Subcommands: classify, cones, table, check. Exit codes: 0 success,
1 self-check failure, 2 usage/validation error (one stderr line), 3 a
self-check crashed (an ERROR line, which takes precedence over FAIL),
141 stdout closed by its reader before the output was written, as by
`| head` (the code of a process that SIGPIPE ends; stderr stays empty). All
numeric output is exact integers; --format json emits a machine-readable
report. The CLI only parses: the library validates what it is given.

`COMMANDS` is the one table of commands and their options, and `parse` the
one loop that reads argv against it, by this grammar alone:
- words from the first `--` on are never options;
- `-h`, or `--` and a prefix of `help`, asks for help: `main` prints
  `USAGE` to stdout and exits 0;
- an option is `--name`, `--name=value` or a unique prefix of a name of
  the command; an ambiguous prefix fails where it stands, and the last of
  a repeated option wins;
- a value option without `=` takes the next word, unless there is none
  or it is `-h` or starts with `--`;
- before the command, the first word that does not start with `-` is the
  command; every other word that is not an option is unrecognized.
`_json` writes the JSON reports with the bytes of
`json.dumps(report, indent=2, sort_keys=True)`. So a call imports neither
argparse (with gettext and locale) nor json: in a fresh interpreter they
cost more start-up than the query itself. For the same reason `table` and
`check` import their modules, table and selfcheck, only when they run,
and those modules print the command's output: a classify or cones call
compiles neither.
"""

import os
import sys

from . import blowup, flag
from .conventions import RANK_BOUNDS
from .errors import EngineError, InvariantViolation
from .rootsys import TypeSpec, build_root_system
from .weyl import ParabolicSubset


def _parse_parabolic(text):
    try:
        return ParabolicSubset(int(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise EngineError("parabolic list must be comma-separated integers: %r"
                          % text.strip())


def _flag_variety(args):
    rs = build_root_system(TypeSpec(args["type"], args["rank"]))
    return flag.FlagVariety(rs, _parse_parabolic(args["parabolic"]))


def _json(obj, indent="\n"):
    """`json.dumps(obj, indent=2, sort_keys=True)` for a report: dicts with
    str keys, lists, ints and strs that JSON spells without an escape. Any
    other value raises InvariantViolation, so no invalid JSON is printed."""
    if type(obj) is int:  # not a bool, which JSON spells true/false
        return repr(obj)
    if type(obj) is str and obj.isascii() and obj.isprintable() and not ('"' in obj or "\\" in obj):
        return '"%s"' % obj
    inner = indent + "  "
    if type(obj) is list:
        brackets, parts = "[]", [_json(v, inner) for v in obj]
    elif type(obj) is dict and all(type(k) is str for k in obj):
        brackets = "{}"
        parts = ["%s: %s" % (_json(k, inner), _json(obj[k], inner)) for k in sorted(obj)]
    else:
        raise InvariantViolation("the JSON report writer cannot spell %r" % (obj,))
    if not parts:
        return brackets
    return brackets[0] + inner + ("," + inner).join(parts) + indent + brackets[1]


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
        # assumed, not computed: -K is big whenever it is nef; else undecided
        "anticanonical_big": (
            "unknown" if rep.verdict == blowup.Verdict.NOT_WEAK_FANO else "true"),
    }


def cmd_classify(args):
    fv = _flag_variety(args)
    rep, payload = _classify_payload(fv, args["codim"])
    if args["format"] == "json":
        print(_json(payload))
        return 0
    basis = flag.picard_basis(fv)
    print("type        : %s" % payload["input"]["type"])
    print("S_P         : %s" % (sorted(fv.par.members) or "{}"))
    print("S \\ S_P     : %s" % list(basis))
    print("dim X       : %d" % flag.dimension(fv))
    print("codim c     : %d" % args["codim"])
    for a in basis:
        print("beta_%-2d     : %d   margin beta-c+2 = %d" % (a, rep.betas[a], rep.margins[a]))
    b1 = payload["anticanonical"]["basis1"]
    b2 = payload["anticanonical"]["basis2"]
    print("-K (Bl*D, E): %s, E coeff %d" % (b1["pullback"], b1["exceptional"]))
    print("-K (Bl*D, H-E): %s, H-E coeff %d" % (b2["pullback"], b2["h_minus_e"]))
    print("-K big      : %s" % payload["anticanonical_big"])
    print("verdict     : %s" % rep.verdict.value)
    return 0


def _cones_payload(fv, c):
    nef = blowup.nef_generators(fv, c)
    mori = blowup.mori_generators(fv, c)
    return {
        "input": _input(fv, c),
        "nef_generators": [
            {"pullback": list(d.pullback_coeffs), "exceptional": d.exceptional_coeff}
            for d in nef
        ],
        "mori_generators": [{"tilde": list(k.tilde_coeffs), "e": k.e_coeff} for k in mori],
        "intersection_matrix": [[blowup.intersect(d, k) for k in mori] for d in nef],
    }


def cmd_cones(args):
    fv = _flag_variety(args)
    payload = _cones_payload(fv, args["codim"])
    if args["format"] == "json":
        print(_json(payload))
        return 0
    basis = flag.picard_basis(fv)
    labels = ["Bl*D_%d" % a for a in basis] + ["H-E_Z"]
    clabels = ["C~_%d" % a for a in basis] + ["e"]
    print("type %s, S_P %s, codim %d" % (fv.rs.spec, sorted(fv.par.members) or "{}", args["codim"]))
    print("nef generators : " + ", ".join(labels))
    print("Mori generators: " + ", ".join(clabels))
    print("intersection matrix:")
    for lab, row in zip(labels, payload["intersection_matrix"]):
        print("  %-10s %s" % (lab, " ".join("%2d" % v for v in row)))
    return 0


def cmd_table(args):
    # imported here, as selfcheck in cmd_check: only `table` runs it
    from . import table

    return table.run(args, _json)


def cmd_check(args):
    from . import selfcheck

    return selfcheck.run()


_FORMAT = ("format", ("text", "json"), "text")
_QUERY = (("type", tuple(RANK_BOUNDS), None), ("rank", int, None), ("parabolic", str, ""),
          ("codim", int, None), _FORMAT)

# command -> (function, options); an option is (name, kind, default): kind is
# int, str, a tuple of choices or bool for a flag, and a default of None
# makes the option required. A function takes {name: value}.
COMMANDS = {
    "classify": (cmd_classify, _QUERY),
    "cones": (cmd_cones, _QUERY),
    "table": (cmd_table, (("families", str, None), ("max-rank", int, 4),
                          ("full-flag", bool, False), _FORMAT)),
    "check": (cmd_check, ()),
}

USAGE = """\
usage: schubert-blowup COMMAND [OPTIONS]

Fano / weak-Fano classification of blow-ups of flag varieties along
smooth Schubert varieties.

  classify --type {A,B,C,D,E,F,G} --rank RANK [--parabolic S_P] --codim C
           [--format {text,json}]
      the Fano report of Bl_Z(G/P), Z of codimension C
  cones    with the options of classify
      nef and Mori cone generators and their intersection matrix
  table    --families FAMILIES [--max-rank RANK] [--full-flag]
           [--format {text,json}]
      beta values and Fano boundaries of the maximal parabolics, or of
      the full flag, of every type to RANK (1 to 16, default 4)
  check
      run the invariant self-checks

--parabolic lists the nodes of S_P (what P contains), comma-separated,
and --families the families, e.g. A,B,G. An option is --name value or
--name=value, and may be shortened to a unique prefix of its name; the
last of a repeated option wins. Exit codes: 0 success, 1 a self-check
failed, 2 bad input, 3 a self-check crashed, 141 stdout closed early."""


def parse(argv):
    """(function, {name: value}) for argv, read by the grammar in the module
    docstring, or (None, None) when argv asks for help. A bad argv raises
    EngineError."""
    argv = list(argv)
    end = argv.index("--") if "--" in argv else len(argv)  # no option from -- on
    fn, kinds, values, extras, i = None, {}, {}, [], 0
    while i < len(argv):
        word, i = argv[i], i + 1
        option = i <= end and word[:2] == "--"
        if i <= end and (word == "-h" or word[2:] and "--help".startswith(word)):
            return None, None
        key, eq, value = word[2:].partition("=")
        hits = [name for name in kinds if name.startswith(key)] if option else []
        if len(hits) > 1:
            raise EngineError("ambiguous option: %s could match %s"
                              % (word, ", ".join("--" + name for name in hits)))
        if hits:
            name = hits[0]
            kind = kinds[name]
            if kind is bool:
                if eq:
                    raise EngineError("argument --%s: ignored explicit argument %r" % (name, value))
                value = True
            elif not eq:
                if i == len(argv) or argv[i] == "-h" or argv[i][:2] == "--":
                    raise EngineError("argument --%s: expected one argument" % name)
                value, i = argv[i], i + 1
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    raise EngineError("argument --%s: invalid int value: %r"
                                      % (name, value)) from None
            elif type(kind) is tuple and value not in kind:
                raise EngineError("argument --%s: invalid choice: %r (choose from %s)"
                                  % (name, value, ", ".join(map(repr, kind))))
            values[name] = value
        elif fn or word[:1] == "-":
            extras.append(word)
        elif word in COMMANDS:
            fn, options = COMMANDS[word]
            kinds = {name: kind for name, kind, _ in options}
            values = {name: default for name, _, default in options}
        else:
            raise EngineError("argument command: invalid choice: %r (choose from %s)"
                              % (word, ", ".join(map(repr, COMMANDS))))
    missing = ["--" + name for name, value in values.items() if value is None]
    if fn is None or missing:
        raise EngineError("the following arguments are required: "
                          + (", ".join(missing) if fn else "command"))
    if extras:
        # a word that is empty or holds whitespace is quoted, so the message shows it
        raise EngineError("unrecognized arguments: "
                          + " ".join(w if w.split() == [w] else repr(w) for w in extras))
    return fn, values


def main(argv=None):
    try:
        fn, arg = parse(sys.argv[1:] if argv is None else argv)
        if fn is None:  # argv asks for help
            print(USAGE)
            code = 0
        else:
            code = fn(arg)
        sys.stdout.flush()  # a closed pipe shows here, not in the flush at exit
        return code
    except EngineError as exc:
        # one line, whatever argv or the message holds
        print("error: %s" % " ".join(str(exc).splitlines()), file=sys.stderr)
        return 2
    except BrokenPipeError:
        # what is still buffered goes to devnull, so the flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
