#!/usr/bin/env python3
"""Regenerates perfbench/answers.json, the known answer of every input
the workloads can draw, from the `ftsyn serve` binary given as the only
argument:

    python3 perfbench/record_answers.py .bench_build/release/ftsyn

Run it only when the program's output is meant to change; the benchmark
fails every reply that differs from the recorded answer. Each answer is
checked for its expected verdict before it is written."""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import gen  # noqa: E402
from daemon import Daemon, closed_loop  # noqa: E402


def inputs():
    """(answer key, request chain, expected statuses) for every input."""
    out = []
    for g in gen.all_graphs():
        tag = gen.graph_tag(g)
        out.append(("ff:" + tag, [gen.request(tag, "", spec=gen.conflict_spec(g, False), threads=1)], ["solved"]))
    for g in gen.FAILSTOP_FAMILY:
        tag = gen.graph_tag(g)
        out.append(("fs:" + tag, [gen.request("fs" + tag, "", spec=gen.conflict_spec(g, True))], ["solved"]))
    names = ["mutex4-failstop-masking"] + [n for n, _ in gen.WARM_TABLEAU]
    for n in names:
        out.append(("corpus:" + n, [gen.request("t-" + n, "", problem=n)], ["solved"]))
    for n in gen.WARM_CEGIS:
        out.append(("cegis:" + n, [gen.request("c-" + n, "", problem=n, engine="cegis")], ["solved"]))
    name, cap = gen.WARM_ABORT
    out.append((f"abort:{name}:{cap}", [gen.request("a", "", problem=name, budget={"max_states": cap})], ["aborted"]))
    spec = gen.barrier_failstop_spec()
    out.append(("barrier-failstop", [gen.request("b", "", spec=spec, threads=1)], ["impossible"]))
    return out


def main():
    d = Daemon(sys.argv[1])
    answers = {"probe": {"status": "checkpoints"}}
    for key, chain, statuses in inputs():
        got = []
        closed_loop(d, [chain], 1, float("inf"), time.perf_counter() + 600,
                    lambda req, sent, arrived, line: got.append(line))
        reply = json.loads(got[0])
        ans = gate.answer_of(reply)
        if ans["status"] not in statuses or (ans["status"] == "solved" and not ans["verified"]):
            raise SystemExit(f"{key}: unexpected answer {ans}")
        if ans["status"] == "aborted" and not ans["resumable"]:
            raise SystemExit(f"{key}: abort is not resumable")
        golden = gate.golden_program(HERE.parent, key)
        if golden is not None and reply["program"].rstrip("\n") != golden.rstrip("\n"):
            raise SystemExit(f"{key}: program differs from its conformance golden")
        answers[key] = ans
        print(key, ans["status"], file=sys.stderr, flush=True)
    if d.close() != 0:
        raise SystemExit("daemon exited non-zero")
    with open(HERE / "answers.json", "w") as f:
        json.dump(answers, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
