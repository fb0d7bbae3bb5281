"""Seeded input generator: conflict-graph specs, the barrier spec and
the request mixes of the three workloads.

Everything here is a pure function of the seed, so two runs with the
same seed send the daemon byte-identical request lines.
"""

import itertools
import json
import random

NPROC = 4
# Every edge of the complete graph on four processes (0-based).
ALL_EDGES = list(itertools.combinations(range(NPROC), 2))


def all_graphs():
    """All 64 labelled conflict graphs on four processes, as sorted
    edge tuples."""
    out = []
    for mask in range(1 << len(ALL_EDGES)):
        out.append(tuple(e for k, e in enumerate(ALL_EDGES) if mask >> k & 1))
    return out


def graph_tag(edges):
    """A short stable name for a graph: its edges as digit pairs."""
    return "g" + ("-".join(f"{i + 1}{j + 1}" for i, j in edges) or "0")


def _process_lines(i):
    """Clauses 2-7 of Section 2.2 for process `i` (0-based)."""
    p = i + 1
    lines = [
        f"global: N{p} -> (AX{p} T{p} & EX{p} T{p})",
        f"global: T{p} -> AX{p} C{p}",
        f"global: C{p} -> (AX{p} N{p} & EX{p} N{p})",
        f"global: (N{p} -> ~(T{p} | C{p})) & (T{p} -> ~(N{p} | C{p})) & (C{p} -> ~(N{p} | T{p}))",
    ]
    for q in range(1, NPROC + 1):
        if q != p:
            lines.append(f"global: (N{p} -> AX{q} N{p}) & (T{p} -> AX{q} T{p}) & (C{p} -> AX{q} C{p})")
    lines.append(f"global: T{p} -> AF C{p}")
    return lines


def conflict_spec(edges, failstop):
    """Spec-file text of mutual exclusion on the conflict graph `edges`
    (clause 8 only along the edges), fault-free or under fail-stop
    failures with repair. Repair into C is guarded on the graph
    neighbours only, as in specs/mutex_failstop.ftsyn."""
    kind = "fail-stop/repair" if failstop else "fault-free"
    procs = range(1, NPROC + 1)
    out = [f"# {NPROC}-process conflict graph {graph_tag(edges)}, {kind}.", f"processes {NPROC}", ""]
    for p in procs:
        out.append(f"props P{p}: N{p} T{p} C{p}")
        if failstop:
            out.append(f"aux   P{p}: D{p}")
    out += ["", "init: " + " & ".join(f"N{p}" for p in procs)]
    for i in range(NPROC):
        out += _process_lines(i)
    out += [f"global: ~(C{i + 1} & C{j + 1})" for i, j in edges]
    out.append("global: EX true")
    if failstop:
        for p in procs:
            out.append(f"coupling: D{p} <-> ~(N{p} | T{p} | C{p})")
            out.append(f"coupling: D{p} -> EG D{p}")
            out += [f"coupling: D{p} -> AX{q} D{p}" for q in procs if q != p]
        for p in procs:
            nbrs = sorted({b + 1 for a, b in edges if a + 1 == p} | {a + 1 for a, b in edges if b + 1 == p})
            out.append(f"fault fail-P{p}: ~D{p} -> D{p} := true, N{p} := false, T{p} := false, C{p} := false")
            for reg in "NTC":
                rest = ", ".join(f"{r}{p} := false" for r in "NTC" if r != reg)
                guard = " & ".join([f"D{p}"] + [f"~C{q}" for q in nbrs] if reg == "C" else [f"D{p}"])
                out.append(f"fault repair-P{p}-{reg}: {guard} -> D{p} := false, {reg}{p} := true, {rest}")
    out += ["", "tolerance masking", "mode fault-free", ""]
    return "\n".join(out)


def barrier_failstop_spec():
    """Spec-file text of two-process barrier synchronization under
    fail-stop failures with nonmasking tolerance (the impossibility
    setting of Section 6.3): a process may stay down forever, so no
    program re-establishes the global specification and the answer is
    `impossible`."""
    n = 2
    ph = ["SA", "EA", "SB", "EB"]
    procs = range(1, n + 1)
    out = [f"# {n}-process barrier under fail-stop failures (Section 6.3).", f"processes {n}", ""]
    for p in procs:
        out.append(f"props P{p}: " + " ".join(f"{x}{p}" for x in ph))
        out.append(f"aux   P{p}: D{p}")
    out += ["", "init: " + " & ".join(f"SA{p}" for p in procs)]
    for p in procs:
        for q in procs:
            if p != q:
                out.append(f"global: ~(SA{p} & SB{q})")
                out.append(f"global: ~(EA{p} & EB{q})")
    out.append("global: EX true")

    def computation(strict):
        # Phase order, exactly one phase (at most one when a process
        # can be down), and interleaving.
        lines = []
        for p in procs:
            lines += [f"{ph[k]}{p} -> AX{p} {ph[(k + 1) % 4]}{p}" for k in range(4)]
            for k in range(4):
                others = " | ".join(f"{ph[m]}{p}" for m in range(4) if m != k)
                lines.append(f"{ph[k]}{p} {'<->' if strict else '->'} ~({others})")
            lines += [f"{x}{p} -> AX{q} {x}{p}" for q in procs if q != p for x in ph]
        return lines

    out += [f"global: {c}" for c in computation(True)]
    out += [f"coupling: {c}" for c in computation(False)]
    for p in procs:
        out.append(f"coupling: D{p} <-> ~(" + " | ".join(f"{x}{p}" for x in ph) + ")")
        out.append(f"coupling: D{p} -> EG D{p}")
        out += [f"coupling: D{p} -> AX{q} D{p}" for q in procs if q != p]
    for p in procs:
        down = ", ".join(f"{x}{p} := false" for x in ph)
        out.append(f"fault fail-P{p}: ~D{p} -> D{p} := true, {down}")
        up = ", ".join(f"{x}{p} := false" for x in ph[1:])
        out.append(f"fault repair-P{p}-SA: D{p} -> D{p} := false, SA{p} := true, {up}")
    out += ["", "tolerance nonmasking", "mode fault-free", ""]
    return "\n".join(out)


# --- Requests and workload plans -------------------------------------

# Fail-stop graphs of `failstop4-cold`: mutual exclusion with one
# conflict removed (the six labelled copies of K4 minus an edge), the
# family closest to the golden mutex4 instance.
FAILSTOP_FAMILY = [g for g in all_graphs() if len(g) == len(ALL_EDGES) - 1]

WARM_TABLEAU = [
    # (corpus name, copies per deck)
    ("mutex2-failstop-masking", 3),
    ("barrier2-nonmasking", 3),
    ("readers-writers-1R-writer-failstop", 3),
    ("philosophers3-fault-free", 3),
    ("mutex3-failstop-masking", 1),
    ("multitolerance-mutex3-P1-nonmasking", 1),
]
WARM_CEGIS = [
    "mutex2-failstop-masking",
    "readers-writers-1R-writer-failstop",
    "philosophers3-fault-free",
    "mutex3-failstop-masking",
]
# A build aborted by its node budget and then resumed.
WARM_ABORT = ("mutex3-failstop-masking", 400)


def request(rid, expect, **fields):
    """One request: its id, its answer key and its protocol line."""
    body = {"id": rid, "op": fields.pop("op", "synthesize")}
    body.update(fields)
    return {"id": rid, "expect": expect, "line": json.dumps(body, separators=(",", ":"))}


def _barrier_text(rng):
    """The Section 6.3 spec with its clause lines in a seeded order
    (the same specification, so the same answer)."""
    lines = barrier_failstop_spec().split("\n")
    head = [l for l in lines if not l.startswith(("global:", "coupling:"))]
    body = [l for l in lines if l.startswith(("global:", "coupling:"))]
    rng.shuffle(body)
    cut = head.index("tolerance nonmasking")
    return "\n".join(head[:cut - 1] + body + head[cut - 1:])


def plan_failstop4_cold(seed):
    """The golden mutex4 instance, then every graph of the fail-stop
    family once in a seeded order; one request in flight, `threads = 1`."""
    graphs = list(FAILSTOP_FAMILY)
    random.Random(seed).shuffle(graphs)
    return [], [
        [request("f0", "corpus:mutex4-failstop-masking", problem="mutex4-failstop-masking", threads=1)]
    ] + [
        [request(f"f{k + 1}-{graph_tag(g)}", "fs:" + graph_tag(g), spec=conflict_spec(g, True), threads=1)]
        for k, g in enumerate(graphs)
    ]


def plan_conflict4_minimize(seed):
    """Every fault-free conflict graph on four processes once, in a
    seeded order, one request in flight, `threads = 1`."""
    graphs = all_graphs()
    random.Random(seed).shuffle(graphs)
    return [], [
        [request(f"m{k}-{graph_tag(g)}", "ff:" + graph_tag(g), spec=conflict_spec(g, False), threads=1)]
        for k, g in enumerate(graphs)
    ]


def _warm_inputs(rng):
    """The distinct inputs of `repeat-mix-warm`, as request factories
    `f(rid) -> chain`, one per deck slot."""
    barrier = _barrier_text(rng)
    name, cap = WARM_ABORT
    slots = []
    for corpus, copies in WARM_TABLEAU:
        slots += [lambda rid, c=corpus: [request(rid, "corpus:" + c, problem=c, threads=1)]] * copies
    for corpus in WARM_CEGIS:
        slots.append(lambda rid, c=corpus: [request(rid, "cegis:" + c, problem=c, engine="cegis", threads=1)])
    slots.append(lambda rid: [
        request(rid, f"abort:{name}:{cap}", problem=name, threads=1, budget={"max_states": cap}),
        request(rid + "r", "corpus:" + name, op="resume", **{"from": rid}, threads=1),
    ])
    slots.append(lambda rid: [request(rid, "barrier-failstop", spec=barrier, threads=1)])
    return slots


def plan_repeat_mix_warm(seed, decks=400):
    """A priming pass sending each input once, then seeded decks: each
    deck holds every input in fixed proportions, shuffled."""
    rng = random.Random(seed)
    slots = _warm_inputs(rng)
    distinct = []
    for s in slots:
        if s not in distinct:
            distinct.append(s)
    prime = [s(f"p{k}") for k, s in enumerate(distinct)]
    timed = []
    for _ in range(decks):
        deck = list(slots)
        rng.shuffle(deck)
        timed += [s(f"w{len(timed) + k}") for k, s in enumerate(deck)]
    return prime, timed


WORKLOADS = {
    "failstop4-cold": plan_failstop4_cold,
    "conflict4-minimize": plan_conflict4_minimize,
    "repeat-mix-warm": plan_repeat_mix_warm,
}
