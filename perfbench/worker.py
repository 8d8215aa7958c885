"""Child process that runs one job of benchmark ops through the program's
public API, in a fresh interpreter.

Reads a JSON job {"kind", "ops", "spans"} on stdin and writes one JSON
object on stdout:

- "outs": each op's outputs, summarised outside the timed regions;
- "lat": each op's reference seconds (clock.py);
- "extra": reference seconds of timed work that belongs to no single op
  (root systems, flag varieties and W^P enumerations shared by several ops);
- "slowdown": the host's slowdown against the quiet host the reference
  seconds are scaled to;
- "rss_kb": peak resident set right after the timed work;
- "trace": the layer summary, when "spans" names a file (the spans
  themselves are appended to that file at exit).

Only calls into the program are inside the timed regions.
"""

import io
import json
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import schubert_blowup as sb
from schubert_blowup import cli

from clock import Clock
from tracing import Tracer

clock = Clock(sampling=True)


def _fv(fam, n, members, rs=None):
    rs = rs or sb.build_root_system(sb.TypeSpec(fam, n))
    return sb.FlagVariety(rs, sb.ParabolicSubset.of(members))


def _report(rep):
    return {"verdict": rep.verdict.value,
            "betas": [(a, rep.betas[a]) for a in sorted(rep.margins)],
            "margins": sorted(rep.margins.items())}


def peak_rss_kb():
    """Peak resident set of this process image (VmHWM). Unlike ru_maxrss it
    does not include the RSS of the parent at fork time."""
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))


def api(cycle, tracer):
    """Each query is built from scratch: TypeSpec, root system, flag variety,
    classify, -K, cones and their intersection matrix."""
    found, lat = [], []
    for fam, n, members, c in cycle:
        t0 = perf_counter()
        try:
            fv = _fv(fam, n, members)
            rep = sb.classify(fv, c)
            k1, k2 = sb.anticanonical_class(fv, c)
            nef, mori = sb.nef_generators(fv, c), sb.mori_generators(fv, c)
            matrix = [[sb.intersect(d, k) for k in mori] for d in nef]
            found.append((rep, k1, k2, nef, mori, matrix))
        except Exception:  # reported as a failed op, with its traceback
            found.append(traceback.format_exc())
        lat.append(clock.seg(t0))
    return found, lat, []


def api_outs(found):
    return [{"error": f} if isinstance(f, str) else dict(
        _report(f[0]),
        k=[list(f[1].pullback_coeffs), f[1].exceptional_coeff, list(f[2][:-1]), f[2][-1]],
        nef=[[list(d.pullback_coeffs), d.exceptional_coeff] for d in f[3]],
        mori=[[list(k.tilde_coeffs), k.e_coeff] for k in f[4]],
        matrix=f[5]) for f in found]


def sweep(groups, tracer):
    """One pass; each RootSystem and FlagVariety is reused across its c."""
    found, lat, extra = [], [], []
    for fam, n, pars in groups:
        t0 = perf_counter()
        rs = sb.build_root_system(sb.TypeSpec(fam, n))
        extra.append(clock.seg(t0))
        for members, cs in pars:
            t0 = perf_counter()
            fv = _fv(fam, n, members, rs)
            extra.append(clock.seg(t0))
            for c in cs:
                t0 = perf_counter()
                try:
                    rep = sb.classify(fv, c)
                except Exception:  # reported as a failed op, with its traceback
                    rep = traceback.format_exc()
                lat.append(clock.seg(t0))
                found.append(rep if isinstance(rep, str) else _report(rep))
    return found, lat, extra


def census(pairs, tracer):
    """One pass: all of W^P, the codimension of every cell, and the verdict
    at every codimension >= 2."""
    found, lat, extra = [], [], []
    for fam, n, members in pairs:
        cells = []
        try:
            t0 = perf_counter()
            fv = _fv(fam, n, members)
            words = sb.enumerate_coset_reps(fv.par, fv.rs, sb.dimension(fv))
            extra.append(clock.seg(t0))
            for w in words:
                t0 = perf_counter()
                datum = sb.schubert_codim(fv, w)
                rep = sb.classify(fv, datum.codim) if datum.codim >= 2 else None
                lat.append(clock.seg(t0))
                cells.append((w.letters, datum.dim, datum.codim, rep and rep.verdict.value))
        except Exception:  # reported as a failed pair, with its traceback
            cells = traceback.format_exc()
        found.append(cells)
    return found, lat, extra


def cli_replay(argvs, tracer):
    """`cli.main(argv)` in process; each call is its own session, as each
    call of the real CLI is its own process."""
    found, lat = [], []
    for argv in argvs:
        if tracer:
            tracer.new_session()
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # reported as a failed op, with its traceback
            code, err = None, io.StringIO(traceback.format_exc())
        lat.append(clock.seg(t0))
        found.append([code, out.getvalue(), err.getvalue()])
    return found, lat, []


KINDS = {"api": (api, api_outs), "sweep": (sweep, list), "census": (census, list),
         "cli": (cli_replay, list)}


def main():
    job = json.load(sys.stdin)
    tracer = None
    if job.get("spans"):
        tracer = Tracer()
        tracer.install()
    run, summarise = KINDS[job["kind"]]
    found, lat, extra = run(job["ops"], tracer)
    clock.stop()
    result = {"lat": clock.scale(lat), "extra": clock.scale(extra),
              "slowdown": clock.slowdown(), "rss_kb": peak_rss_kb(),
              "outs": summarise(found)}
    if tracer:
        result["trace"] = tracer.summary()
        tracer.write(job["spans"])
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
