#!/usr/bin/env python3
"""Daemon-level benchmark of ftsyn.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. Builds `ftsyn` (and, with
`--trace 1`, the in-process tracer in perfbench/tracer) with cargo into
`$CARGO_TARGET_DIR` (default `.bench_build`), drives `ftsyn serve` from
this one process with the seeded requests of the workload, checks every
reply against its known answer, and prints the metrics. The last line of
standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`, holding the end-to-end
metrics with `--trace 0` and the per-layer metrics with `--trace 1`.
Any failed check makes the exit code non-zero. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import gen  # noqa: E402
from daemon import Daemon, closed_loop  # noqa: E402

ROOT = Path.cwd()
# Seconds a run may take after its build, whatever the workload does.
RUN_CAP_S = 160.0
# Daemon start-ups per run; `setup_s` is their median.
SETUPS = {"failstop4-cold": 15, "conflict4-minimize": 15, "repeat-mix-warm": 3}
# Requests in flight.
CLIENTS = {"failstop4-cold": 1, "conflict4-minimize": 1, "repeat-mix-warm": 2}
# Workloads served with a durable checkpoint store.
DURABLE = {"repeat-mix-warm"}
# The workload whose timed phase lasts `--seconds`; the cold workloads
# always send their whole fixed set of inputs, so that a slow host
# changes their timings but not what they measure.
TIMED = {"repeat-mix-warm"}
# Layer times that read 0 on every run of a workload that never reaches
# the layer (CEGIS and the checkpoint store run on repeat-mix-warm only):
# printed and kept in the run record, but not in the result line, whose
# times must vary from run to run.
WARM_ONLY_TIMES = {"cegis.ms", "checkpoint.encode_ms", "checkpoint.decode_ms",
                   "store.persist_ms", "self_ms.core.cegis"}
LAYERS = ["service", "cli", "ctl", "tableau", "core.unravel", "core.verify",
          "core.minimize", "core.extract", "core.cegis", "residual"]


def cargo(args, target):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    res = subprocess.run(["cargo", "build", "--release", "--offline", *args],
                         cwd=ROOT, env=env, stdout=sys.stderr)
    if res.returncode != 0:
        raise SystemExit(f"cargo build {' '.join(args)} failed with code {res.returncode}")


def build(trace):
    """Builds the daemon (and the tracer); returns their paths."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        raise SystemExit(f"{ROOT} is not an ftsyn source checkout")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    target = target if target.is_absolute() else ROOT / target
    cargo(["-p", "ftsyn-cli", "--bin", "ftsyn"], target)
    tracer = None
    if trace:
        cargo(["--manifest-path", str(HERE / "tracer/Cargo.toml")], target)
        tracer = target / "release/ftsyn-trace"
    return target / "release/ftsyn", tracer


def metadata(args):
    def out(cmd):
        try:
            return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=30).stdout.strip() or "unknown"
        except OSError:
            return "unknown"
    # A checkout that is not a git repository has no rev (and may sit
    # inside another repository); the source digest identifies it.
    in_git = out(["git", "rev-parse", "--show-toplevel"]) == str(ROOT)
    sources = hashlib.sha256()
    for path in sorted([*ROOT.glob("crates/*/src/**/*.rs"), ROOT / "Cargo.toml", ROOT / "Cargo.lock"]):
        sources.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "rustc": out(["rustc", "-V"]),
        "git_rev": out(["git", "rev-parse", "HEAD"]) if in_git else "unknown",
        "source_sha256": sources.hexdigest(),
        "profile": "release",
        "threads_per_request": 1,
        "in_flight": CLIENTS[args.workload],
    }


class Tally:
    """Every request's gate verdict, plus the timed phase's samples."""

    def __init__(self, answers, goldens):
        self.answers, self.goldens = answers, goldens
        self.attempted = self.failed = 0
        self.problems = []
        self.latencies = []
        self.verdicts = 0
        self.replies = {}
        self.timing = False

    def fail(self, problems):
        self.failed += 1
        self.problems += problems

    def __call__(self, req, sent, arrived, line):
        self.attempted += 1
        problems = gate.check(req["id"], req["expect"], line, self.answers, self.goldens)
        if problems:
            self.fail(problems)
        if self.timing and line is not None:
            self.latencies.append((arrived - sent) * 1000.0)
            self.replies[req["id"]] = line
            if not problems:
                self.verdicts += 1


def start_daemon(binary, store, prime, tally, deadline):
    """Spawns a daemon (with a durable checkpoint store in `store`, when
    given), waits for its first reply (a list-checkpoints probe) and
    sends the priming pass. Returns the daemon, the set-up time and the
    priming lines sent."""
    d = Daemon(binary, ["--checkpoint-dir", str(store)] if store else [])
    probe = gen.request("probe", "probe", op="list-checkpoints")
    sent = d.send(probe["line"])
    arrived, line = d.recv(deadline)
    tally(probe, sent, arrived, line)
    lines = closed_loop(d, prime, 1, float("inf"), deadline, tally)
    return d, time.perf_counter() - d.spawned, lines


def percentile_tail(samples):
    """The highest percentile with at least ten samples beyond it:
    `(value, percentile, n)`, or None below eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    s = sorted(samples)
    return s[n - 11], 100.0 * (n - 10) / n, n


def run_daemon(args, binary, workdir, deadline, tally):
    prime, timed = gen.WORKLOADS[args.workload](args.seed)
    setups = []
    for k in range(SETUPS[args.workload]):
        store = workdir / f"store{k}" if args.workload in DURABLE else None
        d, setup, prime_lines = start_daemon(binary, store, prime, tally, deadline)
        setups.append(setup)
        if k + 1 < SETUPS[args.workload]:
            if d.close() != 0:
                tally.fail(["daemon exited non-zero after set-up"])
    tally.timing = True
    cpu0, t0 = d.cpu_seconds(), time.perf_counter()
    stop_at = t0 + args.seconds if args.workload in TIMED else float("inf")
    sent = closed_loop(d, timed, CLIENTS[args.workload], stop_at, deadline, tally)
    wall = time.perf_counter() - t0
    cpu = d.cpu_seconds() - cpu0
    rss = d.peak_rss_mb()
    tally.timing = False
    code = d.close()
    if code != 0:
        tally.fail([f"daemon exited with code {code}"])
    lat = tally.latencies
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "throughput_rps": (tally.verdicts / wall, "1/s", tally.verdicts),
        "verdict_p50_ms": (statistics.median(lat) if lat else 0.0, "ms", len(lat)),
        "cpu_ms_per_verdict": (cpu * 1000.0 / max(tally.verdicts, 1), "ms", tally.verdicts),
        "peak_rss_mb": (rss, "MB", 1),
    }
    tail = percentile_tail(lat)
    return metrics, setups, tail, prime_lines, sent, wall


def run_tracer(tracer, workdir, prime_lines, sent, deadline):
    path = workdir / "requests.jsonl"
    path.write_text("".join(line + "\n" for line in prime_lines + sent))
    res = subprocess.run(
        [str(tracer), "--store", str(workdir / "trace-store"), "--prime",
         str(len(prime_lines)), str(path)],
        capture_output=True, text=True, timeout=max(1.0, deadline - time.perf_counter()))
    if res.returncode != 0:
        raise SystemExit(f"tracer failed: {res.stderr.strip()}")
    rows = [json.loads(l) for l in res.stdout.splitlines()]
    return rows[:-1], rows[-1]["wall_ns"] / 1e9


def layer_metrics(records, overhead):
    """The per-layer metrics of the timed phase's traced records."""
    def spans(rec, layer, name=None):
        return sum(e - s for l, n, s, e in rec["spans"]
                   if l == layer and (name is None or n == name)) / 1e6

    def med_span(layer, name=None, scale=1.0):
        vals = [spans(r, layer, name) * scale for r in records
                if any(l == layer and (name is None or n == name) for l, n, _, _ in r["spans"])]
        return statistics.median(vals) if vals else 0.0

    def counter(key):
        return [r["counters"][key] for r in records if key in r["counters"]]

    def med(key, scale=1.0):
        vals = counter(key)
        return statistics.median(vals) * scale if vals else 0.0

    def ratio(num, den, where=None):
        rows = [r["counters"] for r in records if where is None or where in r["counters"]]
        d = sum(c.get(den, 0) for c in rows)
        return sum(c.get(num, 0) for c in rows) / d if d else 0.0

    hits = sum(r["counters"].get("cache_hits", 0) for r in records)
    looks = hits + sum(r["counters"].get("cache_misses", 0) for r in records)
    rounds = counter("refine_rounds")
    m = {
        "tableau.build_ms": (med_span("tableau", "build"), "ms"),
        "tableau.nodes": (med("tableau_nodes"), "count"),
        "tableau.alive_ratio": (ratio("tableau_alive", "tableau_nodes", "tableau_alive"), "ratio"),
        "tableau.delete_ms": (med_span("tableau", "delete"), "ms"),
        "tableau.cache_hit_ratio": (hits / looks if looks else 0.0, "ratio"),
        "minimize.ms": (med_span("core.minimize"), "ms"),
        "minimize.attempts": (med("minimize_attempts"), "count"),
        "minimize.accept_ratio": (ratio("minimize_merges", "minimize_attempts"), "ratio"),
        "extract.ms": (med_span("core.extract"), "ms"),
        "extract.explore_ms": (med_span("core.extract", "explore"), "ms"),
        "extract.explored_states": (med("explored_states"), "count"),
        "extract.on_model_ratio": (ratio("on_model_states", "explored_states"), "ratio"),
        "extract.refine_rounds": (statistics.mean(rounds) if rounds else 0.0, "count"),
        "unravel.ms": (med_span("core.unravel"), "ms"),
        "verify.ms": (med_span("core.verify"), "ms"),
        "ctl.closure_ms": (med_span("ctl", "closure"), "ms"),
        "ctl.closure_size": (med("closure_size"), "count"),
        "service.parse_op_us": (med_span("service", "parse_op", 1000.0), "us"),
        "service.to_line_us": (med_span("service", "to_line", 1000.0), "us"),
        "service.reply_kb": (med("reply_bytes", 1e-3), "kB"),
        "cli.parse_problem_ms": (med_span("cli", "parse_problem"), "ms"),
        "cegis.ms": (med_span("core.cegis"), "ms"),
        "cegis.candidates": (med("cegis_candidates"), "count"),
        "checkpoint.encode_ms": (med_span("tableau", "checkpoint.encode"), "ms"),
        "checkpoint.decode_ms": (med_span("tableau", "checkpoint.decode"), "ms"),
        "checkpoint.kb": (med("checkpoint_bytes", 1e-3), "kB"),
        "store.persist_ms": (med_span("service", "store.persist"), "ms"),
        "trace.overhead_frac": (overhead, "ratio"),
    }
    total = sum(r["total_ns"] for r in records) / 1e6
    for layer in LAYERS:
        if layer == "residual":
            self_ms = sum(r["residual_ns"] for r in records) / 1e6
        else:
            self_ms = sum(spans(r, layer) for r in records)
        m[f"self_ms.{layer}"] = (self_ms, "ms")
        m[f"self_share.{layer}"] = (self_ms / total if total else 0.0, "ratio")
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary, tracer = build(args.trace)
    deadline = time.perf_counter() + RUN_CAP_S
    answers = gate.load_answers()
    goldens = {k: g for k in answers if (g := gate.golden_program(ROOT, k)) is not None}
    workdir = ROOT / ".perfbench_tmp" / str(os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        tally = Tally(answers, goldens)
        e2e, setups, tail, prime_lines, sent, wall = run_daemon(args, binary, workdir, deadline, tally)
        record = {"meta": metadata(args), "setups_s": setups}
        if args.trace:
            records, traced_wall = run_tracer(tracer, workdir, prime_lines, sent, deadline)
            for rec in records:
                problems = gate.check_ledger(rec)
                daemon_line = tally.replies.get(rec["id"])
                replay = json.loads(rec["reply"])
                if daemon_line is None or gate.answer_of(json.loads(daemon_line)) != gate.answer_of(replay):
                    problems = problems + [f"{rec['id']}: replayed reply differs from the daemon's"]
                if problems:
                    tally.fail(problems)
            missing = set(tally.replies) - {rec["id"] for rec in records}
            if missing:
                tally.fail([f"{rid}: no traced record" for rid in sorted(missing)])
            layers = layer_metrics(records, (traced_wall - wall) / wall)
            metrics = {k: v for k, v in layers.items() if k not in WARM_ONLY_TIMES}
            record["warm_only_layer_times"] = {k: layers[k][0] for k in sorted(WARM_ONLY_TIMES)}
            record["traced_requests"] = len(records)
            record["untraced_wall_s"], record["traced_wall_s"] = wall, traced_wall
        else:
            metrics = {k: v[:2] for k, v in e2e.items()}
    finally:
        Daemon.kill_all()
        shutil.rmtree(workdir, ignore_errors=True)

    e2e["failed_frac"] = (tally.failed / max(tally.attempted, 1), "1", tally.attempted)
    for name, (value, unit, n) in e2e.items():
        print(f"{name:>22} = {value:.6g} {unit}  (n={n})")
    if tail is None:
        print(f"{'verdict_tail_ms':>22}   absent: {len(tally.latencies)} requests, fewer than 11")
    else:
        value, pct, n = tail
        print(f"{'verdict_tail_ms':>22} = {value:.6g} ms  (p{pct:.2f}, n={n})")
        record["verdict_tail"] = {"value_ms": value, "percentile": pct, "samples": n}
    record["samples"] = {k: v[2] for k, v in e2e.items()}
    if args.trace:
        for name, (value, unit) in layers.items():
            print(f"{name:>26} = {value:.6g} {unit}")
    for p in tally.problems[:20]:
        print(f"FAILED: {p}")
    print(json.dumps(record))
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
