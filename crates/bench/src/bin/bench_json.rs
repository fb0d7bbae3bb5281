//! Machine-readable benchmark trajectory: runs the five built-in
//! problem families (mutex, barrier, handshake, readers-writers, wire)
//! at scaled process counts and emits `BENCH_synthesis.json` at the
//! repository root.
//!
//! The JSON is hand-rolled (no serde — the offline build has no
//! external dependencies) and contains, per problem, the size and
//! per-phase timing statistics of one synthesis run plus the worklist,
//! scheduler, and minimization counters; head-to-head timings of the
//! full tableau pipeline against the CEGIS bounded-synthesis backend
//! end to end; and daemon throughput (requests/sec) with a cold
//! expansion cache against a warmed shared one through
//! `ftsyn-service`. The oracles (naive build kernels, sweep deletion,
//! greedy reference minimizer) are not compiled in: their identity
//! with the production engines is asserted by the `slow-reference`
//! test suites, not re-timed here.
//!
//! ```text
//! cargo run --release -p ftsyn-bench --bin bench_json
//! ```

use ftsyn::guarded::interp::explore;
use ftsyn::guarded::sim::{simulate, SimConfig};
use ftsyn::problems::{barrier, handshake, mutex, readers_writers, wire};
use ftsyn::{
    synthesize, synthesize_with_engine, Budget, Engine, Governor, SynthesisOutcome,
    SynthesisProblem, SynthesisStats, ThreadPlan, Tolerance, Verification,
};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Escapes a string for a JSON literal (ASCII control, quote, backslash).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A hand-rolled JSON object/array builder: fields are appended in call
/// order, nesting is by string composition.
#[derive(Default)]
struct Obj {
    body: String,
}

impl Obj {
    fn raw(mut self, key: &str, value: &str) -> Obj {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        let _ = write!(self.body, "\"{}\":{}", esc(key), value);
        self
    }

    fn str(self, key: &str, value: &str) -> Obj {
        let v = format!("\"{}\"", esc(value));
        self.raw(key, &v)
    }

    fn num(self, key: &str, value: usize) -> Obj {
        let v = value.to_string();
        self.raw(key, &v)
    }

    fn float(self, key: &str, value: f64) -> Obj {
        let v = if value.is_finite() {
            format!("{value:.3}")
        } else {
            "null".to_owned()
        };
        self.raw(key, &v)
    }

    fn bool(self, key: &str, value: bool) -> Obj {
        self.raw(key, if value { "true" } else { "false" })
    }

    fn ns(self, key: &str, d: Duration) -> Obj {
        let v = d.as_nanos().to_string();
        self.raw(key, &v)
    }

    fn build(self) -> String {
        format!("{{{}}}", self.body)
    }
}

fn arr(items: Vec<String>) -> String {
    format!("[{}]", items.join(","))
}

/// Serializes the statistics of one synthesis run.
fn stats_json(stats: &SynthesisStats, solved: bool) -> String {
    let bp = &stats.build_profile;
    let dp = &stats.deletion_profile;
    Obj::default()
        .bool("solved", solved)
        .num("spec_length", stats.spec_length)
        .num("fault_size", stats.fault_size)
        .num("closure_size", stats.closure_size)
        .num("tableau_nodes", stats.tableau_nodes)
        .num("alive_and", stats.alive_and)
        .num("alive_or", stats.alive_or)
        .raw(
            "deletions",
            &Obj::default()
                .num("prop_inconsistent", stats.deletion.prop_inconsistent)
                .num("or_without_children", stats.deletion.or_without_children)
                .num("and_missing_successor", stats.deletion.and_missing_successor)
                .num("au_unfulfilled", stats.deletion.au_unfulfilled)
                .num("eu_unfulfilled", stats.deletion.eu_unfulfilled)
                .num("unreachable", stats.deletion.unreachable)
                .build(),
        )
        .num("model_states", stats.model_states)
        .num("program_transitions", stats.program_transitions)
        .num("fault_transitions", stats.fault_transitions)
        .raw(
            "phase_ns",
            &Obj::default()
                .ns("build", stats.build_time)
                .ns("deletion", stats.deletion_time)
                .ns("unravel", stats.unravel_time)
                .ns("minimize", stats.minimize_time)
                .ns("extract", stats.extract_time)
                .ns("verify", stats.verify_time)
                .ns("residual", stats.residual_time)
                .ns("elapsed", stats.elapsed)
                .build(),
        )
        .raw(
            "build_profile",
            &Obj::default()
                .num("levels", bp.levels)
                .num("max_frontier", bp.max_frontier)
                .num("threads", bp.threads)
                .num("batches", bp.batches)
                .num("steals", bp.steals)
                .raw(
                    "worker_batches",
                    &arr(bp.worker_batches.iter().map(|n| n.to_string()).collect()),
                )
                .raw(
                    "worker_idle_ns",
                    &arr(bp
                        .worker_idle
                        .iter()
                        .map(|d| d.as_nanos().to_string())
                        .collect()),
                )
                .ns("expand_ns", bp.expand_time)
                .ns("apply_ns", bp.apply_time)
                .ns("intern_ns", bp.intern_time)
                .num("intern_probes", bp.intern_probes)
                .num("cache_hits", bp.cache_hits)
                .num("cache_misses", bp.cache_misses)
                .build(),
        )
        .raw(
            "minimize_profile",
            &Obj::default()
                .num("attempts", stats.minimize_profile.attempts)
                .num("merges", stats.minimize_profile.merges)
                .num("base_labelings", stats.minimize_profile.base_labelings)
                .num("full_checks", stats.minimize_profile.full_checks)
                .num("carried", stats.minimize_profile.carried)
                .num("site_carried", stats.minimize_profile.site_carried)
                .num("parallel_batches", stats.minimize_profile.parallel_batches)
                .num("parallel_steals", stats.minimize_profile.parallel_steals)
                .num("speculative_attempts", stats.minimize_profile.speculative_attempts)
                .num("threads", stats.minimize_profile.threads)
                .build(),
        )
        .raw(
            "extract_profile",
            &Obj::default()
                .num("model_states", stats.extract_profile.model_states)
                .num("shared_vars", stats.extract_profile.shared_vars)
                .num("explored_states", stats.extract_profile.explored_states)
                .num("off_model_states", stats.extract_profile.off_model_states)
                .num("refined_arcs", stats.extract_profile.refined_arcs)
                .num("refinement_rounds", stats.extract_profile.refinement_rounds)
                .bool("verified", stats.extract_profile.verified)
                .build(),
        )
        .raw(
            "deletion_profile",
            &Obj::default()
                .num("rounds", dp.rounds)
                .num("worklist_pops", dp.worklist_pops)
                .num("cert_builds", dp.cert_builds)
                .num("cert_reuses", dp.cert_reuses)
                .num("eventualities", dp.eventualities)
                .ns("delete_p_ns", dp.delete_p_time)
                .ns("structural_ns", dp.structural_time)
                .ns("eventuality_ns", dp.eventuality_time)
                .ns("reachability_ns", dp.reachability_time)
                .build(),
        )
        .build()
}

/// Serializes a verification outcome: overall verdict plus the failure
/// counts aggregated by [`ftsyn::FailureKind`].
fn verification_json(v: &Verification) -> String {
    let mut by_kind = Obj::default();
    for (kind, count) in v.failures_by_kind() {
        by_kind = by_kind.num(kind.name(), count);
    }
    Obj::default()
        .bool("ok", v.ok())
        .raw("failures_by_kind", &by_kind.build())
        .str("failure_summary", &v.failure_summary())
        .build()
}

/// Serializes an abort: the phase + structured reason, so the perf
/// trajectory distinguishes "slow" from "killed".
fn aborted_json(a: &ftsyn::AbortedSynthesis) -> String {
    Obj::default()
        .str("phase", a.phase.name())
        .str("reason", &a.reason.to_string())
        .str(
            "failures",
            &a.failures
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("; "),
        )
        .build()
}

/// Runs synthesis on one named problem and serializes the result. Every
/// row carries an `"aborted"` block: `null` for completed runs, the
/// phase/reason for governed runs that hit a budget.
fn run_problem(name: &str, procs: usize, mut problem: SynthesisProblem) -> String {
    eprintln!("synthesizing {name} ...");
    let (stats, solved, verification, aborted) = match synthesize(&mut problem) {
        SynthesisOutcome::Solved(s) => (s.stats.clone(), true, Some(s.verification.clone()), None),
        SynthesisOutcome::Impossible(imp) => (imp.stats, false, None, None),
        SynthesisOutcome::Aborted(a) => (a.stats.clone(), false, None, Some(a)),
    };
    let mut obj = Obj::default()
        .str("name", name)
        .num("procs", procs)
        .raw("stats", &stats_json(&stats, solved));
    if let Some(v) = verification {
        obj = obj.raw("verification", &verification_json(&v));
    }
    obj = match &aborted {
        Some(a) => obj.raw("aborted", &aborted_json(a)),
        None => obj.raw("aborted", "null"),
    };
    obj.build()
}

/// Runs one problem under an aggressive budget and serializes the
/// structured abort — a demonstration row showing what a budget-killed
/// run looks like in the trajectory (deterministic caps only, so the
/// row is stable across machines and thread counts).
fn run_budgeted(name: &str, procs: usize, mut problem: SynthesisProblem, budget: Budget) -> String {
    eprintln!("synthesizing {name} under a budget ...");
    let gov = Governor::with_budget(budget);
    let outcome = ftsyn::synthesize_governed(&mut problem, ftsyn::default_threads(), &gov);
    let (stats, solved, aborted) = match outcome {
        SynthesisOutcome::Solved(s) => (s.stats.clone(), true, None),
        SynthesisOutcome::Impossible(imp) => (imp.stats, false, None),
        SynthesisOutcome::Aborted(a) => (a.stats.clone(), false, Some(a)),
    };
    let mut obj = Obj::default()
        .str("name", name)
        .num("procs", procs)
        .raw("stats", &stats_json(&stats, solved));
    obj = match &aborted {
        Some(a) => obj.raw("aborted", &aborted_json(a)),
        None => obj.raw("aborted", "null"),
    };
    obj.build()
}

/// Backend head-to-head: the full tableau pipeline against the CEGIS
/// bounded-synthesis engine on the same problem, end to end (problem
/// to verified program), best of `runs`. Outcome agreement is asserted
/// — a backend disagreement is a bug, not a data point.
fn compare_backends(
    name: &str,
    procs: usize,
    problem: impl Fn() -> SynthesisProblem,
    runs: usize,
) -> String {
    eprintln!("comparing synthesis backends on {name} ...");
    let mut tableau_best = Duration::MAX;
    let mut tableau_solved = false;
    let mut tableau_states = 0;
    for _ in 0..runs {
        let mut p = problem();
        let tick = Instant::now();
        let outcome = synthesize(&mut p);
        tableau_best = tableau_best.min(tick.elapsed());
        match &outcome {
            SynthesisOutcome::Solved(s) => {
                assert!(s.verification.ok(), "{name}: tableau verification failed");
                tableau_solved = true;
                tableau_states = s.stats.model_states;
            }
            SynthesisOutcome::Impossible(_) => tableau_solved = false,
            SynthesisOutcome::Aborted(a) => {
                panic!("{name}: ungoverned tableau run aborted: {}", a.reason)
            }
        }
    }
    let mut cegis_best = Duration::MAX;
    let mut cegis_solved = false;
    let mut cegis_states = 0;
    let mut candidates = 0;
    let mut solved_at_bound = None;
    for _ in 0..runs {
        let mut p = problem();
        let tick = Instant::now();
        let outcome = synthesize_with_engine(&mut p, Engine::Cegis, ThreadPlan::uniform(1), None);
        cegis_best = cegis_best.min(tick.elapsed());
        match &outcome {
            SynthesisOutcome::Solved(s) => {
                assert!(s.verification.ok(), "{name}: CEGIS verification failed");
                cegis_solved = true;
                cegis_states = s.stats.model_states;
                candidates = s.stats.cegis_profile.candidates;
                solved_at_bound = s.stats.cegis_profile.solved_at_bound;
            }
            SynthesisOutcome::Impossible(_) => cegis_solved = false,
            SynthesisOutcome::Aborted(a) => {
                panic!("{name}: ungoverned CEGIS run aborted: {}", a.reason)
            }
        }
    }
    assert_eq!(
        tableau_solved, cegis_solved,
        "{name}: the backends disagree on solvability"
    );
    let speedup = tableau_best.as_secs_f64() / cegis_best.as_secs_f64();
    eprintln!(
        "  {name}: tableau {tableau_best:.2?}, cegis {cegis_best:.2?} \
         ({candidates} candidates), speedup {speedup:.2}x"
    );
    Obj::default()
        .str("name", name)
        .num("procs", procs)
        .num("runs", runs)
        .bool("solved", tableau_solved)
        .ns("tableau_ns", tableau_best)
        .ns("cegis_ns", cegis_best)
        .num("tableau_states", tableau_states)
        .num("cegis_states", cegis_states)
        .num("cegis_candidates", candidates)
        .raw(
            "cegis_solved_at_bound",
            &solved_at_bound.map_or("null".to_owned(), |b| b.to_string()),
        )
        .float("speedup", speedup)
        .build()
}

/// Daemon throughput on one corpus problem: requests per second with a
/// cold cache (every request hits a fresh [`Service`], nothing
/// memoized) against a warm one (a shared service primed by one
/// untimed request, so every timed request is served entirely from the
/// `Blocks`/`Tiles` memo). The replies are checked — warm requests
/// must report nonzero hits, zero misses, and solve — so the row
/// cannot silently measure error paths.
///
/// [`Service`]: ftsyn_service::Service
fn service_throughput(corpus_name: &str, requests: usize, threads: usize) -> String {
    use ftsyn_service::{Reply, Request, Service};
    eprintln!("measuring service throughput on {corpus_name} ...");

    let tick = Instant::now();
    for i in 0..requests {
        let svc = Service::new();
        let reply = svc.submit(Request::corpus(&format!("cold-{i}"), corpus_name, threads));
        assert!(
            matches!(reply, Reply::Solved { verified: true, .. }),
            "{corpus_name}: cold request failed: {reply:?}"
        );
    }
    let cold = tick.elapsed();

    let svc = Service::new();
    let prime = svc.submit(Request::corpus("prime", corpus_name, threads));
    assert!(matches!(prime, Reply::Solved { .. }));
    let tick = Instant::now();
    for i in 0..requests {
        let reply = svc.submit(Request::corpus(&format!("warm-{i}"), corpus_name, threads));
        let Reply::Solved {
            verified: true,
            cache_hits,
            cache_misses,
            ..
        } = reply
        else {
            panic!("{corpus_name}: warm request failed: {reply:?}")
        };
        assert!(cache_hits > 0, "{corpus_name}: warm request did not hit");
        assert_eq!(cache_misses, 0, "{corpus_name}: warm request missed");
    }
    let warm = tick.elapsed();

    let (cache_entries, cache_bytes, _, _) = svc.cache_stats();
    let (admitted, shed, _, _) = svc.admission_counters();

    // The same warm workload under a tight partition cap, so the
    // eviction path (satellite of the admission governor work) is
    // itself measured: entries are admitted, evicted in admission
    // order, and recomputed — replies must still solve identically.
    let capped_svc = Service::new().with_cache_limits(ftsyn::CacheLimits {
        max_entries: Some(32),
        max_bytes: None,
    });
    let prime = capped_svc.submit(Request::corpus("prime", corpus_name, threads));
    assert!(matches!(prime, Reply::Solved { .. }));
    let tick = Instant::now();
    for i in 0..requests {
        let reply = capped_svc.submit(Request::corpus(&format!("capped-{i}"), corpus_name, threads));
        assert!(
            matches!(reply, Reply::Solved { verified: true, .. }),
            "{corpus_name}: capped request failed: {reply:?}"
        );
    }
    let capped = tick.elapsed();
    let (_, _, evicted_entries, evicted_bytes) = capped_svc.cache_stats();

    let cold_rps = requests as f64 / cold.as_secs_f64();
    let warm_rps = requests as f64 / warm.as_secs_f64();
    let capped_rps = requests as f64 / capped.as_secs_f64();
    let speedup = warm_rps / cold_rps;
    eprintln!(
        "  {corpus_name}: cold {cold_rps:.2} req/s, warm {warm_rps:.2} req/s \
         ({speedup:.2}x), capped {capped_rps:.2} req/s \
         ({evicted_entries} evictions, {requests} requests, {threads} threads)"
    );
    Obj::default()
        .str("name", corpus_name)
        .num("requests", requests)
        .num("threads", threads)
        .ns("cold_ns", cold)
        .ns("warm_ns", warm)
        .ns("capped_ns", capped)
        .float("cold_requests_per_sec", cold_rps)
        .float("warm_requests_per_sec", warm_rps)
        .float("capped_requests_per_sec", capped_rps)
        .float("warm_speedup", speedup)
        .num("cache_entries", cache_entries)
        .num("cache_bytes", cache_bytes)
        .num("capped_evicted_entries", evicted_entries)
        .num("capped_evicted_bytes", evicted_bytes)
        .num("admitted", admitted)
        .num("shed", shed)
        .build()
}

/// Explores and simulates the (non-synthesis) wire system of
/// Section 2.3 — state-space size plus a deterministic fault-injection
/// trace summary.
fn run_wire(name: &str, bounded: Option<usize>) -> String {
    eprintln!("exploring {name} ...");
    let w = wire::build(bounded);
    let tick = Instant::now();
    let ex = explore(&w.program, &w.faults, &w.props).expect("wire explores");
    let explore_time = tick.elapsed();
    let trace = simulate(&w.program, &w.faults, &w.props, &SimConfig::default());
    Obj::default()
        .str("name", name)
        .num("procs", 2)
        .num("states", ex.kripke.len())
        .num("edges", ex.kripke.edge_count())
        .num("fault_edges", ex.kripke.fault_edge_count())
        .ns("explore_ns", explore_time)
        .num("sim_steps", trace.steps.len())
        .num("sim_faults", trace.fault_count())
        .build()
}

fn main() {
    let mut problems = Vec::new();

    // Mutual exclusion (Section 2.1 / E1–E2), fault-free and fail-stop.
    for n in 2..=4 {
        problems.push(run_problem(
            &format!("mutex{n}-fault-free"),
            n,
            mutex::fault_free(n),
        ));
    }
    // mutex4-failstop is the build-phase stress case: ~26k tableau
    // nodes. It entered the trajectory once incremental minimization
    // brought the end-to-end run down from ~35 s to seconds.
    for n in 2..=4 {
        problems.push(run_problem(
            &format!("mutex{n}-failstop-masking"),
            n,
            mutex::with_fail_stop(n, Tolerance::Masking),
        ));
    }

    // Multitolerance at three and four processes (Section 8.2 scaled
    // up): P1's fail-stop/repair actions only need nonmasking
    // tolerance, the other processes' faults stay masking. The
    // four-process row — formerly blocked by the extraction gap — runs
    // under deterministic governor caps and exercises the guard
    // refinement loop (see `extract_profile.refined_arcs`).
    problems.push(run_problem(
        "mutex3-failstop-multitolerance",
        3,
        mutex::with_fail_stop_multitolerance(3, |f| {
            if f.name().contains("P1") {
                Tolerance::Nonmasking
            } else {
                Tolerance::Masking
            }
        }),
    ));
    problems.push(run_budgeted(
        "mutex4-failstop-multitolerance",
        4,
        mutex::with_fail_stop_multitolerance(4, |f| {
            if f.name().contains("P1") {
                Tolerance::Nonmasking
            } else {
                Tolerance::Masking
            }
        }),
        Budget {
            max_states: Some(60_000),
            max_extract_refine_rounds: Some(4),
            ..Budget::default()
        },
    ));

    // Dining philosophers (fault-free), scaled to five processes. The
    // five-philosopher run is the pipeline's semantic-minimization
    // stress case: the build is milliseconds while minimization
    // dominates the wall-clock (see `minimize_profile.attempts`).
    for n in [3, 5] {
        problems.push(run_problem(
            &format!("philosophers{n}-fault-free"),
            n,
            mutex::dining_philosophers(n),
        ));
    }

    // Barrier synchronization with general state faults.
    for n in 2..=3 {
        problems.push(run_problem(
            &format!("barrier{n}-fault-free"),
            n,
            barrier::fault_free(n),
        ));
        problems.push(run_problem(
            &format!("barrier{n}-state-faults-nonmasking"),
            n,
            barrier::with_general_state_faults(n),
        ));
    }

    // Readers-writers with writer fail-stop.
    for readers in 1..=2 {
        problems.push(run_problem(
            &format!("readers-writers-{readers}R-writer-failstop"),
            readers + 1,
            readers_writers::with_writer_fail_stop(readers, Tolerance::Masking),
        ));
    }

    // Message-passing handshake under buffer faults.
    for (tag, fault) in [
        ("none", handshake::BufferFault::None),
        ("omission", handshake::BufferFault::Omission),
        ("timing", handshake::BufferFault::Timing),
    ] {
        problems.push(run_problem(
            &format!("handshake-{tag}-failsafe"),
            2,
            handshake::build(fault, Tolerance::FailSafe),
        ));
    }

    // Governed demonstration rows: the same problems killed by an
    // aggressive deterministic budget, so the trajectory shows what a
    // structured abort looks like (phase + counter-carrying reason).
    let budgeted = vec![
        run_budgeted(
            "mutex3-failstop-masking-state-cap",
            3,
            mutex::with_fail_stop(3, Tolerance::Masking),
            Budget {
                max_states: Some(2_000),
                ..Budget::default()
            },
        ),
        run_budgeted(
            "philosophers3-minimize-cap",
            3,
            mutex::dining_philosophers(3),
            Budget {
                max_minimize_attempts: Some(50),
                ..Budget::default()
            },
        ),
    ];

    // Daemon throughput: requests/sec against a cold vs a warmed
    // shared cache on the mutex family (the service's partitioned
    // memo serves repeat same-problem requests entirely from cache).
    let service_rows = vec![
        service_throughput("mutex2-failstop-masking", 10, 2),
        service_throughput("mutex3-failstop-masking", 5, 2),
    ];

    // The wire of Section 2.3 (interpreter + simulator, not synthesis).
    let wires = vec![
        run_wire("wire-unbounded", None),
        run_wire("wire-bounded-2", Some(2)),
    ];

    // Backend head-to-head (Section 6 of DESIGN.md §13): the tableau
    // pipeline against the CEGIS bounded-synthesis engine, end to end.
    // mutex4-failstop is the headline row (the tableau's ~26k-node
    // build against a few hundred CEGIS candidates); philosophers4 is
    // the bound-wins case — a small deterministic solution the CEGIS
    // engine finds without ever building the conjoined-conflict
    // tableau.
    let backend_comparisons = vec![
        compare_backends(
            "mutex2-failstop-masking",
            2,
            || mutex::with_fail_stop(2, Tolerance::Masking),
            5,
        ),
        compare_backends(
            "mutex3-failstop-masking",
            3,
            || mutex::with_fail_stop(3, Tolerance::Masking),
            3,
        ),
        compare_backends(
            "mutex4-failstop-masking",
            4,
            || mutex::with_fail_stop(4, Tolerance::Masking),
            1,
        ),
        compare_backends(
            "barrier2-state-faults-nonmasking",
            2,
            || barrier::with_general_state_faults(2),
            5,
        ),
        compare_backends("philosophers3-fault-free", 3, || {
            mutex::dining_philosophers(3)
        }, 3),
        compare_backends("philosophers4-fault-free", 4, || {
            mutex::dining_philosophers(4)
        }, 3),
        compare_backends(
            "barrier2-failstop-impossible",
            2,
            || barrier::with_fail_stop_impossible(2),
            3,
        ),
    ];

    let doc = Obj::default()
        .str(
            "generated_by",
            "cargo run --release -p ftsyn-bench --bin bench_json",
        )
        .str("schema_version", "13")
        .raw("problems", &arr(problems))
        .raw("budgeted", &arr(budgeted))
        .raw("service_throughput", &arr(service_rows))
        .raw("wire", &arr(wires))
        .raw("backend_comparison", &arr(backend_comparisons))
        .build();

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_synthesis.json");
    std::fs::write(path, pretty(&doc)).expect("write BENCH_synthesis.json");
    eprintln!("wrote {path}");
}

/// Minimal pretty-printer for the emitted JSON (two-space indent) so
/// the committed file diffs readably. Operates on known-valid output of
/// [`Obj`]; strings are re-scanned for quotes/escapes only.
fn pretty(json: &str) -> String {
    let mut out = String::with_capacity(json.len() * 2);
    let mut indent = 0usize;
    let mut in_str = false;
    let mut escape = false;
    for c in json.chars() {
        if in_str {
            out.push(c);
            if escape {
                escape = false;
            } else if c == '\\' {
                escape = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => {
                in_str = true;
                out.push(c);
            }
            '{' | '[' => {
                indent += 1;
                out.push(c);
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
            }
            '}' | ']' => {
                indent = indent.saturating_sub(1);
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(c);
            }
            ',' => {
                out.push(c);
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
            }
            ':' => {
                out.push(c);
                out.push(' ');
            }
            c => out.push(c),
        }
    }
    out.push('\n');
    out
}
