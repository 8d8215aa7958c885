"""Seeded inputs for the four workloads.

Every draw comes from random.Random("<workload>:<seed>"), so one seed always
gives the same inputs. Cost-sensitive draws are placed in bands of
oracle.cost_ms and fill fixed per-cycle counts, so that the mix of cheap
and expensive ops, and with it every timing metric, is the same from seed
to seed while the concrete types, parabolics and codimensions change.
"""

import random

import oracle

SWEEP_MAX_RANK = 10  # past the CLI table cap of 8; a pass times about 2.5 s of work at the seed

CENSUS_PAIRS = (  # (family, rank, crossed node); node 0 is the full flag
    ("A", 4, 0), ("A", 5, 3), ("A", 6, 3), ("B", 3, 0), ("B", 4, 1), ("C", 4, 4),
    ("D", 4, 2), ("D", 5, 1), ("D", 6, 1), ("E", 6, 1), ("F", 4, 1), ("F", 4, 4),
    ("G", 2, 1),
)

# cli-cold, per cycle of 20 calls: (band, count), and per band the modelled
# milliseconds and the w_{0,P} search's share of them. The p50 falls among
# the cheap calls, which start-up dominates; the p90 among the medium ones,
# which the w_{0,P} search dominates.
CLI_CYCLE = (("malformed", 2), ("cheap", 11), ("medium", 6), ("heavy", 1))
CLI_BANDS = {"cheap": ((0.0, 15.0), (0.0, 1.0)), "medium": ((30.0, 60.0), (0.5, 1.0)),
             "heavy": ((150.0, 300.0), (0.5, 1.0))}
CLI_CYCLES = 5  # 100 calls, every one of them run in each round
# Bands whose draws are stratified, so that every seed has the same spread
# of modelled costs where the p90 and the tail fall: a band drawn k > 1
# times per cycle takes one draw from each of k equal slices of it in every
# cycle; a band drawn once per cycle takes the r-th of CLI_CYCLES slices in
# cycle r. (Finer slices hold few pairs, and drawing them is slow.)
CLI_STRATIFIED = ("medium", "heavy")

# api-repeat, per 24 queries: two hot pairs repeated 6 and 2 times (band L),
# eight pairs once each (M) and six once each (H), all repeated in every
# 24 queries, and two pairs that occur once per cycle (W). M and H are
# dominated by the root closure, whose modelled cost is accurate, so the
# p50 (in M) and p90 (in H) do not move from seed to seed; W is dominated by
# the w_{0,P} search and, averaged over ten pairs a cycle, sets the tail.
API_SLOTS = ((6, "L"), (2, "L")) + ((1, "M"),) * 8 + ((1, "H"),) * 6
API_BANDS = {"L": ((1.9, 2.1), (0.0, 1.0)), "M": ((7.5, 8.5), (0.0, 0.2)),
             "H": ((18.0, 22.0), (0.0, 0.2)), "W": ((30.0, 40.0), (0.8, 1.0))}
API_COLD = 2
API_SUBCYCLES = 5


def _all_but(n, node):
    return tuple(a for a in range(1, n + 1) if a != node)


def _parabolic(rng, n, kind):
    if kind == "empty":
        return ()
    if kind == "maximal":
        return _all_but(n, rng.randint(1, n))
    return tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n - 1))))


def draw_pair(rng, band, weyl_share=(0.0, 1.0)):
    """A random (family, rank, S_P) of dimension >= 2 whose modelled cost
    lies in band, with the w_{0,P} search's share of it in weyl_share."""
    while True:
        fam, n = rng.choice(oracle.TYPES)
        kind = rng.choice(("maximal", "subset", "empty"))
        if kind == "subset" and n < 2:
            continue
        members = _parabolic(rng, n, kind)
        build, weyl = oracle.cost_ms(fam, n, members)
        if (oracle.flag(fam, n, members)[0] >= 2 and band[0] <= build + weyl <= band[1]
                and weyl_share[0] <= weyl / (build + weyl) <= weyl_share[1]):
            return fam, n, members


def _codim(rng, fam, n, members):
    return rng.randint(2, oracle.flag(fam, n, members)[0])


def _argv(cmd, fam, n, members, c, fmt):
    argv = [cmd, "--type", fam, "--rank", str(n)]
    if members:
        argv += ["--parabolic", ",".join(map(str, members))]
    argv += ["--codim", str(c)]
    return argv + (["--format", "json"] if fmt == "json" else [])


def _malformed(rng):
    fam, n, members = draw_pair(rng, *CLI_BANDS["cheap"])
    kind = rng.choice(("rank", "codim", "full", "nonint"))
    dim = oracle.flag(fam, n, members)[0]
    c = _codim(rng, fam, n, members)
    if kind == "rank":
        lo, hi = oracle.RANKS[fam]
        n = rng.choice((lo - 1, hi + 1))
    elif kind == "codim":
        c = rng.choice((1, dim + 1))
    elif kind == "full":
        members = tuple(range(1, n + 1))
    argv = _argv(rng.choice(("classify", "cones")), fam, n, members, c,
                 rng.choice(("json", "text")))
    if kind == "nonint":
        i = argv.index("--codim")
        argv[i:i] = ["--parabolic", rng.choice(("1,x", "2.5", "a", "1;2"))]
    return {"argv": argv, "expect": "exit2"}


def _slice(band, j, of):
    lo, hi = band
    return lo + (hi - lo) * j / of, lo + (hi - lo) * (j + 1) / of


def _cli_op(rng, band, j, of):
    if band == "malformed":
        return _malformed(rng)
    cost, weyl_share = CLI_BANDS[band]
    if band in CLI_STRATIFIED:
        cost = _slice(cost, j, of)
    fam, n, members = draw_pair(rng, cost, weyl_share)
    cmd = "cones" if band == "cheap" and rng.random() < 0.4 else "classify"
    fmt = "json" if rng.random() < 0.8 else "text"
    c = _codim(rng, fam, n, members)
    return {"argv": _argv(cmd, fam, n, members, c, fmt),
            "expect": [cmd, fmt, fam, n, list(members), c]}


def cli_cold(rng):
    ops = []
    for r in range(CLI_CYCLES):
        cycle = [(band, i, k) if k > 1 else (band, r, CLI_CYCLES) for band, k in CLI_CYCLE
                 for i in range(k)]
        rng.shuffle(cycle)
        ops += [_cli_op(rng, *slot) for slot in cycle]
    return ops


def api_repeat(rng):
    """One cycle of API_SUBCYCLES * 24 queries; the benchmark repeats the
    cycle in a fresh process per round."""
    pairs = [draw_pair(rng, *API_BANDS[band]) for _, band in API_SLOTS]
    ops = []
    for _ in range(API_SUBCYCLES):
        sub = [pairs[i] for i, (k, _) in enumerate(API_SLOTS) for _ in range(k)]
        sub += [draw_pair(rng, *API_BANDS["W"]) for _ in range(API_COLD)]
        rng.shuffle(sub)
        ops += [[fam, n, list(members), _codim(rng, fam, n, members)] for fam, n, members in sub]
    return ops


def sweep(rng):
    """One pass: [family, rank, [[S_P, [c, ...]], ...]] per type."""
    groups = []
    for fam, n in oracle.TYPES:
        if n > SWEEP_MAX_RANK:
            continue
        pars = []
        for members in sorted({_all_but(n, k) for k in range(1, n + 1)} | {()}):
            dim = oracle.flag(fam, n, members)[0]
            cs = list(range(2, dim + 1))
            rng.shuffle(cs)
            if cs:
                pars.append([list(members), cs])
        rng.shuffle(pars)
        if pars:
            groups.append([fam, n, pars])
    rng.shuffle(groups)
    return groups


def census(rng):
    """One pass: [family, rank, S_P] per pair."""
    pairs = [[fam, n, list(_all_but(n, node)) if node else []]
             for fam, n, node in CENSUS_PAIRS]
    rng.shuffle(pairs)
    return pairs


WORKLOADS = {"cli-cold": cli_cold, "api-repeat": api_repeat, "sweep": sweep, "census": census}


def generate(workload, seed):
    return WORKLOADS[workload](random.Random("%s:%d" % (workload, seed)))
