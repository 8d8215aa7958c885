#!/usr/bin/env python3
"""The repository benchmark: end-to-end and per-layer metrics of the
schubert_blowup engine on four seeded workloads.

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 16 --trace 0

Run it from the root of a checkout; the program is imported from ./src and
nothing is installed. Every run starts a fresh interpreter and executes one
op at a time with at most one child process alive (a closed loop with one
client). --trace 0 prints the end-to-end metrics; --trace 1 repeats one
unit of the same inputs in process, alternating workers with and without
spans around the public functions of rootsys, weyl, flag, blowup and cli,
and prints the per-layer metrics. Every op's output is checked against
oracle.py outside the timed regions. Times are in reference seconds
(clock.py), which the drifting speed of a shared host does not move. The
whole run is pinned to one CPU. The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}. See README.md.
"""

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
from collections import namedtuple
from pathlib import Path
from time import perf_counter

import inputs
import oracle
from clock import Clock

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"
SETUP_PROBES = 16
# Wall seconds of a bare interpreter launch (`python -c pass`) on the quiet
# host of clock.py; setup_s is in these units (setup_launch).
BARE_S = 0.034
CHILD_TIMEOUT_S = 150


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(argv, stdin=None, pass_fds=()):
    """Run a child on this process's CPU, which main() pins: the reference
    timings that scale the child's times run on the same CPU."""
    return subprocess.run([sys.executable] + argv, input=stdin, capture_output=True,
                          text=True, env=child_env(), timeout=CHILD_TIMEOUT_S,
                          pass_fds=pass_fds)


def worker(kind, ops, spans=None):
    job = json.dumps({"kind": kind, "ops": ops, "spans": spans and str(spans)})
    p = run_child([str(HERE / "worker.py")], job)
    if p.returncode != 0:
        sys.exit("perfbench: worker failed:\n" + p.stderr)
    return json.loads(p.stdout)


def setup_launch():
    """Seconds of one fresh interpreter that imports schubert_blowup, scaled
    by a bare interpreter launched right after it: bare seconds on the
    quiet host (BARE_S) over this one's. Process creation and interpreter
    start-up follow the host's drift more closely than clock.py's loop does:
    over 80 s of pairs, the medians of groups of 20 stayed within 0.97 and
    1.02 of the overall median in this ratio, and within 0.90 and 1.17 in
    the ratio to the loop. The program does not run in the bare launch, so
    a change to its import shows in full."""
    t0 = perf_counter()
    p = run_child(["-c", "import schubert_blowup"])
    t1 = perf_counter()
    if p.returncode != 0:
        sys.exit("perfbench: cannot import schubert_blowup:\n" + p.stderr)
    run_child(["-c", "pass"])
    return (t1 - t0) * BARE_S / (perf_counter() - t1)


# --- checking outputs ---------------------------------------------------------

def _int_keys(d):
    return {int(k): v for k, v in d.items()}


def _pairs(items):
    return {a: b for a, b in items}


def check_cli(checker, op, code, out, err):
    if op["expect"] == "exit2":
        lines = err.splitlines()
        if code == 2 and not out and len(lines) == 1 and lines[0].startswith("error: ") \
                and "Traceback" not in err:
            return []
        return ["want exit 2 and one stderr line, got exit %r, stderr %r" % (code, err[-300:])]
    cmd, fmt, fam, n, members, c = op["expect"]
    if code != 0 or err:
        return ["exit %r, stderr %r" % (code, err[-300:])]
    basis = [a for a in range(1, n + 1) if a not in members]
    if fmt == "json":
        d = json.loads(out)
        want = {"type": "%s%d" % (fam, n), "parabolic": members, "picard_basis": basis, "codim": c}
        problems = [] if d["input"] == want else ["input %r, expected %r" % (d["input"], want)]
        if cmd == "cones":
            return problems + checker.cones(
                fam, n, members,
                [[g["pullback"], g["exceptional"]] for g in d["nef_generators"]],
                [[g["tilde"], g["e"]] for g in d["mori_generators"]],
                d["intersection_matrix"])
        k1, k2 = d["anticanonical"]["basis1"], d["anticanonical"]["basis2"]
        return problems + checker.classify(
            fam, n, members, c, _int_keys(d["betas"]), _int_keys(d["margins"]), d["verdict"]
        ) + checker.anticanonical(fam, n, members, c, k1["pullback"], k1["exceptional"],
                                  k2["pullback"], k2["h_minus_e"])
    lines = out.splitlines()
    if cmd == "cones":
        labels = ", ".join(["Bl*D_%d" % a for a in basis] + ["H-E_Z"])
        rows = lines[lines.index("intersection matrix:") + 1:]
        matrix = [[int(v) for v in row.split()[1:]] for row in rows]
        problems = [] if "nef generators : " + labels in lines else ["nef labels"]
        k = len(basis)
        unit = [[int(i == j) for j in range(k)] for i in range(k)]
        return problems + checker.cones(fam, n, members, [[u, 0] for u in unit] + [[[1] * k, -1]],
                                        [[u, 0] for u in unit] + [[[0] * k, 1]], matrix)
    text = "\n".join(lines)
    betas = {int(a): int(b) for a, b in re.findall(r"^beta_(\d+)\s*: (-?\d+)\s+margin", text, re.M)}
    margins = {int(a): int(m) for a, m in re.findall(r"^beta_(\d+)\s*: -?\d+\s+margin beta-c\+2 = (-?\d+)$", text, re.M)}
    verdict = re.search(r"^verdict\s*: (\w+)$", text, re.M)
    dim = re.search(r"^dim X\s*: (\d+)$", text, re.M)
    k1 = re.search(r"^-K \(Bl\*D, E\): (\[.*\]), E coeff (-?\d+)$", text, re.M)
    k2 = re.search(r"^-K \(Bl\*D, H-E\): (\[.*\]), H-E coeff (-?\d+)$", text, re.M)
    if not (verdict and dim and k1 and k2):
        return ["unparsable text report %r" % out[-300:]]
    want_dim = oracle.flag(fam, n, tuple(members))[0]
    problems = [] if int(dim[1]) == want_dim else ["dim %s, expected %d" % (dim[1], want_dim)]
    return problems + checker.classify(fam, n, members, c, betas, margins, verdict[1]) + \
        checker.anticanonical(fam, n, members, c, json.loads(k1[1]), int(k1[2]),
                              json.loads(k2[1]), int(k2[2]))


def check_api(checker, op, out):
    if "error" in out:
        return [out["error"]]
    fam, n, members, c = op
    return (checker.classify(fam, n, members, c, _pairs(out["betas"]), _pairs(out["margins"]),
                             out["verdict"])
            + checker.anticanonical(fam, n, members, c, *out["k"])
            + checker.cones(fam, n, members, out["nef"], out["mori"], out["matrix"]))


def sweep_cases(groups):
    return [(fam, n, members, c) for fam, n, pars in groups for members, cs in pars for c in cs]


def check_sweep(checker, case, out):
    if isinstance(out, str):
        return [out]
    return checker.classify(*case, _pairs(out["betas"]), _pairs(out["margins"]), out["verdict"])


def census_cells(pair):
    fam, n, members = pair
    return sum(oracle.coset_poincare(fam, n, tuple(members)))


def check_census(checker, pair, out):
    return [out] if isinstance(out, str) else checker.census(*pair, out)


# --- workloads ----------------------------------------------------------------
#
# api-repeat, sweep and census repeat a fixed unit of work, one cycle of
# queries or one pass, in a fresh worker process per round; cli-cold repeats
# its calls, each in its own subprocess. The number of rounds is fixed by
# --seconds (rounds_for). Timing metrics take each timed segment, in
# reference seconds, at its mean over the rounds without the fastest and
# the slowest.

# kind: the worker's job kind; unit(ops): the job's ops; cases(ops): what the
# outputs answer, one each; weight(case): ops per case; check(checker, case,
# output): problems found.
Workload = namedtuple("Workload", "kind unit cases weight check")

WORKLOADS = {
    "cli-cold": Workload("cli", lambda ops: [op["argv"] for op in ops], lambda ops: ops,
                         lambda op: 1, lambda checker, op, out: check_cli(checker, op, *out)),
    "api-repeat": Workload("api", lambda ops: ops, lambda ops: ops, lambda op: 1, check_api),
    "sweep": Workload("sweep", lambda ops: ops, sweep_cases, lambda case: 1, check_sweep),
    "census": Workload("census", lambda ops: ops, lambda ops: ops, census_cells, check_census),
}

# Wall seconds of one round at the seed commit (2-vCPU Xeon, 2.1 GHz): a
# run makes round(--seconds / this) rounds, at least two, whatever the
# speed of the program, so two commits are measured on the same inputs with
# the same number of samples. A traced run makes half as many pairs of a
# traced and an untraced round, at least one.
ROUND_S = {"cli-cold": 12.5, "api-repeat": 2.2, "sweep": 4.0, "census": 3.5}
# Rounds stop early only once this many seconds have passed, so that a
# program several times slower than the seed still prints a result in time.
MAX_RUN_S = 120.0


def rounds_for(workload, seconds):
    return max(2, round(seconds / ROUND_S[workload]))


def trimmed_mean(values):
    values = sorted(values)
    return statistics.mean(values[1:-1] if len(values) > 2 else values)


class Run:
    """Op outcomes of one run. A round is (op seconds, seconds of shared
    work that belongs to no single op, ops in the round)."""

    def __init__(self, checker, setup):
        self.checker, self.clock = checker, Clock(sampling=False)
        self.rounds, self.attempted, self.failures, self.rss_kb = [], 0, [], 0
        self.setup = [] if setup else None
        self.slowdowns = []

    def probe_setup(self, share):
        """Time set-up launches until SETUP_PROBES * share of them are done.
        Callers pass the share of the run's work done so far, so the
        launches spread over the whole run."""
        while self.setup is not None and len(self.setup) < SETUP_PROBES * share:
            self.setup.append(setup_launch())

    def record(self, label, weight, problems):
        self.attempted += weight
        if problems:
            self.failures.append((label, weight, problems))

    @property
    def failed(self):
        return sum(w for _, w, _ in self.failures)

    def check(self, wl, ops, res, first):
        """Check a worker's outputs; a repeat whose outputs equal the first
        round's, which were checked in full, counts as that many more ops."""
        cases = wl.cases(ops)
        if first is not None and res["outs"] == first["outs"]:
            self.attempted += sum(wl.weight(case) for case in cases)
            return
        for case, out in zip(cases, res["outs"]):
            self.record(case, wl.weight(case), wl.check(self.checker, case, out))
        missing = cases[len(res["outs"]):]
        if missing:
            self.record("missing", sum(map(wl.weight, missing)), ["%d outputs missing" % len(missing)])

    def typical(self, part):
        """Each segment's mean over the rounds without its fastest and its
        slowest (with three rounds or more)."""
        n = min(len(r[part]) for r in self.rounds)
        return [trimmed_mean([r[part][i] for r in self.rounds]) for i in range(n)]


# `python -m schubert_blowup.cli ARGS`, which also writes to the file
# descriptor given as the first argument its peak RSS (VmHWM; ru_maxrss of
# a child would include the benchmark's own RSS at fork time), the seconds
# it spent importing and starting a sampling Clock other than in samples,
# and the reference samples that Clock took. The second argument is the
# directory of clock.py.
CLI_SHIM = """import os, runpy, sys, time
t0 = time.perf_counter()
fd = int(sys.argv.pop(1))
sys.path.insert(0, sys.argv.pop(1))
from clock import Clock
clock = Clock(sampling=True)
other = time.perf_counter() - t0 - clock.refs[0]
try:
    runpy.run_module("schubert_blowup.cli", run_name="__main__", alter_sys=True)
finally:
    clock.stop()
    with open("/proc/self/status") as f:
        hwm = next(l for l in f if l.startswith("VmHWM:")).split()[1]
    os.write(fd, " ".join([hwm, repr(other)] + [repr(r) for r in clock.refs]).encode())
"""


def read_all(fd):
    chunks = []
    while True:
        chunk = os.read(fd, 65536)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def cli_calls(run, ops, rounds):
    """Rounds of one subprocess per call; every round makes all the calls."""
    start = perf_counter()
    for r in range(rounds):
        if r >= 2 and perf_counter() - start > MAX_RUN_S:
            break
        lat = []
        for op in ops:
            fd_r, fd_w = os.pipe()
            try:
                t0 = perf_counter()
                try:
                    p = run_child(["-c", CLI_SHIM, str(fd_w), str(HERE)] + op["argv"],
                                  pass_fds=(fd_w,))
                finally:
                    os.close(fd_w)
                hwm, other, *refs = read_all(fd_r).split()
                lat.append(run.clock.seg(t0, [float(x) for x in refs], float(other)))
                run.rss_kb = max(run.rss_kb, int(hwm))
            finally:
                os.close(fd_r)
            run.record(op["argv"], 1, check_cli(run.checker, op, p.returncode, p.stdout, p.stderr))
            run.probe_setup((r * len(ops) + len(lat)) / (rounds * len(ops)))
        run.rounds.append((run.clock.scale(lat), [], len(lat)))
    run.probe_setup(1)


def worker_rounds(run, wl, ops, rounds, spans=None):
    """Fresh workers on the unit of work; with spans, pairs of a traced and
    an untraced worker."""
    unit, per_round = wl.unit(ops), sum(map(wl.weight, wl.cases(ops)))
    traced, plain = [], []
    start = perf_counter()
    for i in range(rounds):
        if i >= 2 and perf_counter() - start > MAX_RUN_S:
            break
        for j, out in enumerate(((traced,) if spans else ()) + (plain,)):
            res = worker(wl.kind, unit, spans if out is traced else None)
            run.check(wl, ops, res, (traced + plain)[0] if traced or plain else None)
            out.append(res)
        run.probe_setup((i + 1) / rounds)
    run.probe_setup(1)
    run.rounds = [(res["lat"], res["extra"], per_round) for res in plain]
    run.rss_kb = max(res["rss_kb"] for res in plain)
    run.slowdowns += [res["slowdown"] for res in traced + plain]
    return traced


# --- metrics ------------------------------------------------------------------

def end_to_end(run):
    lat = run.typical(0)
    q = statistics.quantiles(lat, n=100, method="inclusive")
    return {
        "setup_s": (statistics.median(run.setup), "s"),
        "ops_per_s": (run.rounds[0][2] / (sum(lat) + sum(run.typical(1))), "1/s"),
        "op_p50_ms": (q[49] * 1e3, "ms"),
        "op_p90_ms": (q[89] * 1e3, "ms"),
        "peak_rss_mb": (run.rss_kb / 1024.0, "MB"),
        "ok_ratio": (1.0 - run.failed / run.attempted, "ratio"),
    }


def per_layer(run, traced):
    """Layer totals per unit of work, averaged over the traced workers.
    trace.overhead_ratio is the traced over the untraced seconds of the same
    unit, each segment taken at its trimmed mean over the workers."""
    spans, counts = {}, {}
    for res in traced:
        for name, s in res["trace"]["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "self_s": 0.0, "repeats": 0})
            for k in acc:
                acc[k] += s[k]
        for k, v in res["trace"]["counts"].items():
            counts[k] = counts.get(k, 0) + v
    k = len(traced)

    def calls(name):
        return spans.get(name, {}).get("calls", 0) // k

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0) / k

    def count(name):
        return counts.get(name, 0) // k

    def repeat_share(name):
        return spans[name]["repeats"] / spans[name]["calls"] if name in spans else 0.0

    def busy(rounds):
        return sum(trimmed_mean(r) for r in zip(*rounds))

    overhead = busy([r["lat"] + r["extra"] for r in traced]) / busy(
        [lat + extra for lat, extra, _ in run.rounds])
    m = {
        "rootsys.build_calls": (calls("rootsys.build"), "count"),
        "rootsys.build_s": (self_s("rootsys.build"), "s"),
        "rootsys.roots_built": (count("rootsys.roots_built"), "count"),
        "rootsys.build_repeat_share": (repeat_share("rootsys.build"), "ratio"),
        "weyl.longest_element_calls": (calls("weyl.longest_element"), "count"),
        "weyl.longest_element_s": (self_s("weyl.longest_element"), "s"),
        "weyl.longest_element_letters": (count("weyl.longest_element_letters"), "count"),
        "weyl.longest_element_repeat_share": (repeat_share("weyl.longest_element"), "ratio"),
        "weyl.coset_reps_calls": (calls("weyl.coset_reps"), "count"),
        "weyl.coset_reps_s": (self_s("weyl.coset_reps"), "s"),
        "weyl.coset_reps_out": (count("weyl.coset_reps_out"), "count"),
        "weyl.length_calls": (calls("weyl.length"), "count"),
        "weyl.length_s": (self_s("weyl.length"), "s"),
        "flag.beta_calls": (calls("flag.beta"), "count"),
        "flag.beta_s": (self_s("flag.beta"), "s"),
        "flag.dimension_s": (self_s("flag.dimension"), "s"),
        "flag.schubert_codim_s": (self_s("flag.schubert_codim"), "s"),
        "blowup.classify_calls": (calls("blowup.classify"), "count"),
        "blowup.classify_s": (self_s("blowup.classify"), "s"),
        "blowup.anticanonical_s": (self_s("blowup.anticanonical"), "s"),
        "blowup.cones_s": (self_s("blowup.cones"), "s"),
        "blowup.intersect_calls": (count("blowup.intersect.calls"), "count"),
        "cli.main_calls": (calls("cli.main"), "count"),
        "cli.self_s": (self_s("cli.main"), "s"),
        "cli.exit2": (count("cli.exit2"), "count"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
    for v in ("FANO", "WEAK_FANO_NOT_FANO", "NOT_WEAK_FANO"):
        m["blowup.verdict." + v] = (count("blowup.verdict." + v), "count")
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "schubert_blowup" / "__init__.py").is_file():
        sys.exit("perfbench: no src/schubert_blowup under %s; run from a checkout's root" % ROOT)
    sys.path.insert(0, str(SRC))
    import schubert_blowup as sb
    if Path(sb.__file__).resolve().parent != SRC / "schubert_blowup":
        sys.exit("perfbench: imported schubert_blowup from %s, not from ./src" % sb.__file__)

    ops = inputs.generate(args.workload, args.seed)
    digest = hashlib.sha256(json.dumps(ops, sort_keys=True).encode()).hexdigest()
    print("inputs: workload=%s seed=%d sha256=%s" % (args.workload, args.seed, digest))

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = Run(oracle.Checker(sb), setup=not args.trace)
    wl = WORKLOADS[args.workload]
    rounds = rounds_for(args.workload, args.seconds)
    if args.trace:
        TRACE_DIR.mkdir(exist_ok=True)
        spans = TRACE_DIR / ("spans-%s-seed%d.jsonl" % (args.workload, args.seed))
        spans.unlink(missing_ok=True)
        metrics = per_layer(run, worker_rounds(run, wl, ops, max(1, rounds // 2), spans))
        print("spans: %s" % spans.relative_to(ROOT))
    else:
        if args.workload == "cli-cold":
            cli_calls(run, ops, rounds)
        else:
            worker_rounds(run, wl, ops, rounds)
        metrics = end_to_end(run)
    print("rounds: %d" % len(run.rounds))
    print("host slowdown against the reference: %.3f" % statistics.median(
        run.slowdowns + [run.clock.slowdown()]))

    print("ops: attempted=%d failed=%d failed_ratio=%.6g" % (run.attempted, run.failed,
                                                         run.failed / run.attempted))
    for label, weight, problems in run.failures[:50]:
        print("FAILED op %r (%d): %s" % (label, weight, "; ".join(problems)[:500]))
    for name, (value, unit) in sorted(metrics.items()):
        print("%-36s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
