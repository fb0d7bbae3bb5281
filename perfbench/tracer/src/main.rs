//! Traced in-process replay of benchmark request lines.
//!
//! ```text
//! ftsyn-trace --store <dir> --prime <n> <requests.jsonl>
//! ```
//!
//! Reads one daemon request line per input line and replays it through
//! the pipeline's public functions, in the order `ftsyn serve` calls
//! them, timing each call as a span named after its layer. The first
//! `<n>` lines are the priming pass: they run (warming the per-source
//! expansion caches exactly as the daemon's partitions are warmed) but
//! print nothing. Every later line prints one JSON record: the reply
//! line the daemon would send, the request span, the layer spans, an
//! explicit residual (request span minus the spans), and the work
//! counters the layers return. Checkpoints of budget aborts are
//! encoded, persisted in a durable store under `<dir>` and decoded by
//! the matching `resume`, as in `ftsyn serve --checkpoint-dir`.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{BufWriter, Write};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use ftsyn::ctl::Closure;
use ftsyn::guarded::interp::explore;
use ftsyn::kripke::{bisimulation_quotient, State};
use ftsyn::tableau::{
    apply_deletion_rules_profiled, build_resume_governed, build_shared_cache_governed,
    build_with_cache, spec_fingerprint, BuildAbort, BuildProfile, FaultSpec, Tableau,
};
use ftsyn::{
    cegis_synthesize, extract_program, introduce_shared_variables, refine_guards,
    semantic_minimize_with_threads, unravel_mode, verify, verify_semantic, verify_semantic_ok,
    Budget, Checkpoint, ExpansionCache, Governor, Phase, SynthesisOutcome, SynthesisProblem,
    ThreadPlan, Unraveled, DEFAULT_EXTRACT_REFINE_ROUNDS,
};
use ftsyn_service::json::escape;
use ftsyn_service::store::CheckpointStore;
use ftsyn_service::{corpus, parse_op, Op, ProblemSource, Reply};

/// One request's spans, in call order, relative to the request start.
struct Trace {
    t0: Instant,
    spans: Vec<(&'static str, &'static str, u64, u64)>,
    counters: BTreeMap<&'static str, u64>,
}

impl Trace {
    fn new() -> Trace {
        Trace {
            t0: Instant::now(),
            spans: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).expect("a request span fits in u64 ns")
    }

    /// Times `f` as one span of `layer`.
    fn span<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = std::hint::black_box(f());
        let end = self.now();
        self.spans.push((layer, name, start, end));
        out
    }

    fn count(&mut self, key: &'static str, value: usize) {
        *self.counters.entry(key).or_default() += value as u64;
    }

    /// The JSON record: spans plus the residual sum exactly to `total`.
    fn record(&self, id: &str, reply: &str, total: u64) -> String {
        let covered: u64 = self.spans.iter().map(|s| s.3 - s.2).sum();
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|(layer, name, s, e)| format!("[\"{layer}\",\"{name}\",{s},{e}]"))
            .collect();
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        format!(
            "{{\"id\":\"{}\",\"reply\":\"{}\",\"total_ns\":{total},\"residual_ns\":{},\
             \"spans\":[{}],\"counters\":{{{}}}}}",
            escape(id),
            escape(reply),
            total - covered,
            spans.join(","),
            counters.join(",")
        )
    }
}

/// How a tableau request starts its build.
enum Start {
    Fresh(Option<Budget>),
    Resume(Checkpoint),
}

/// What a tableau run leaves besides its reply: the checkpoint of a
/// build-phase abort, to be parked.
type Parked = Option<Box<Checkpoint>>;

/// The per-source expansion caches (the daemon's partitions) and the
/// durable checkpoint store with its in-memory view.
struct Replay {
    caches: HashMap<ProblemSource, ExpansionCache>,
    store: CheckpointStore,
    parked: HashMap<String, (Vec<u8>, ProblemSource)>,
}

impl Replay {
    fn problem(&self, tr: &mut Trace, source: &ProblemSource) -> Result<SynthesisProblem, String> {
        match source {
            ProblemSource::Corpus(name) => tr
                .span("service", "corpus", || corpus::problem(name))
                .ok_or_else(|| format!("unknown corpus problem \"{name}\"")),
            ProblemSource::Spec(text) => tr
                .span("cli", "parse_problem", || ftsyn_cli::parse_problem(text))
                .map_err(|e| e.to_string()),
        }
    }

    /// Replays one request line; returns `(id, reply line)`.
    fn line(&mut self, tr: &mut Trace, line: &str) -> Result<(String, String), String> {
        let op = tr
            .span("service", "parse_op", || parse_op(line))
            .map_err(|(_, m)| m)?;
        let (id, reply) = match op {
            Op::Synthesize(req) => {
                let mut problem = self.problem(tr, &req.source)?;
                let reply = if req.engine == ftsyn::Engine::Cegis {
                    cegis(tr, &mut problem, req.threads)
                } else {
                    let (reply, parked) = self.tableau(
                        tr,
                        &req.source,
                        &mut problem,
                        req.threads,
                        Start::Fresh(req.budget),
                    )?;
                    if let Some(ck) = parked {
                        self.park(tr, &req.id, &req.source, &ck)?;
                    }
                    reply
                };
                (req.id, reply)
            }
            Op::Resume {
                id, from, threads, ..
            } => {
                let (blob, source) = self
                    .parked
                    .remove(&from)
                    .ok_or_else(|| format!("no checkpoint parked for \"{from}\""))?;
                tr.span("service", "store.remove", || self.store.remove(&from))
                    .map_err(|e| e.to_string())?;
                let ck = tr
                    .span("tableau", "checkpoint.decode", || Checkpoint::decode(&blob))
                    .map_err(|e| e.to_string())?;
                tr.count("checkpoint_bytes", blob.len());
                let mut problem = self.problem(tr, &source)?;
                let (reply, parked) =
                    self.tableau(tr, &source, &mut problem, threads, Start::Resume(ck))?;
                if parked.is_some() {
                    return Err(format!("resume \"{id}\" aborted again"));
                }
                (id, reply)
            }
            other => return Err(format!("op \"{}\" is not replayed", other.id())),
        };
        let line = tr.span("service", "to_line", || reply.to_line(&id));
        tr.count("reply_bytes", line.len());
        Ok((id, line))
    }

    /// The daemon's checkpoint sink: encode, then persist durably.
    fn park(
        &mut self,
        tr: &mut Trace,
        id: &str,
        source: &ProblemSource,
        ck: &Checkpoint,
    ) -> Result<(), String> {
        let blob = tr.span("tableau", "checkpoint.encode", || ck.encode());
        tr.count("checkpoint_bytes", blob.len());
        tr.span("service", "store.persist", || {
            self.store.persist(id, source, &blob)
        })
        .map_err(|e| e.to_string())?;
        self.parked.insert(id.to_owned(), (blob, source.clone()));
        Ok(())
    }

    /// Steps 0–5 of the tableau pipeline, one span per public call, in
    /// the order of `synthesize_session`.
    fn tableau(
        &mut self,
        tr: &mut Trace,
        source: &ProblemSource,
        problem: &mut SynthesisProblem,
        threads: usize,
        start: Start,
    ) -> Result<(Reply, Parked), String> {
        let (closure, fault_spec, root_label) = tr.span("ctl", "closure", || {
            let roots = problem.closure_roots();
            let closure = Closure::build(&mut problem.arena, &problem.props, &roots);
            let fault_spec = FaultSpec {
                actions: problem.faults.clone(),
                tolerance_labels: problem.tolerance_label_sets(&closure),
            };
            let mut root_label = closure.empty_label();
            root_label.insert(closure.index_of(roots[0]).expect("spec is a closure root"));
            (closure, fault_spec, root_label)
        });
        tr.count("closure_size", closure.len());
        let cache = self.caches.entry(source.clone()).or_default();
        let threads = threads.max(1);
        let built: Result<(Tableau, BuildProfile), Box<BuildAbort>> = match start {
            Start::Fresh(None) => Ok(tr.span("tableau", "build", || {
                build_with_cache(
                    &closure,
                    &problem.props,
                    root_label,
                    &fault_spec,
                    threads,
                    cache,
                )
            })),
            Start::Fresh(Some(budget)) => {
                let gov = Governor::with_budget(budget);
                gov.enter_phase(Phase::Build);
                tr.span("tableau", "build", || {
                    build_shared_cache_governed(
                        &closure,
                        &problem.props,
                        root_label,
                        &fault_spec,
                        threads,
                        Some(&*cache),
                        Some(&gov),
                    )
                    .map(|(t, p, fills)| {
                        fills.into_iter().for_each(|f| cache.apply_fill(f));
                        (t, p)
                    })
                })
            }
            Start::Resume(ck) => {
                let fingerprint = tr.span("tableau", "checkpoint.validate", || {
                    spec_fingerprint(&closure, &problem.props, &root_label, &fault_spec)
                });
                ck.validate(fingerprint, closure.len(), root_label.words().len())
                    .map_err(|e| e.to_string())?;
                tr.span("tableau", "build", || {
                    build_resume_governed(
                        &closure,
                        &problem.props,
                        &fault_spec,
                        threads,
                        Some(&*cache),
                        None,
                        ck,
                    )
                    .map(|(t, p, fills)| {
                        fills.into_iter().for_each(|f| cache.apply_fill(f));
                        (t, p)
                    })
                })
            }
        };
        let (mut tableau, profile) = match built {
            Ok(ok) => ok,
            Err(a) => {
                let BuildAbort {
                    reason,
                    nodes,
                    checkpoint,
                    fills,
                    ..
                } = *a;
                fills.into_iter().for_each(|f| cache.apply_fill(f));
                tr.count("tableau_nodes", nodes);
                let reply = Reply::Aborted {
                    phase: Phase::Build.name().to_owned(),
                    reason: reason.to_string(),
                    resumable: checkpoint.is_some(),
                };
                return Ok((reply, checkpoint));
            }
        };
        tr.count("tableau_nodes", tableau.len());
        tr.count("cache_hits", profile.cache_hits);
        tr.count("cache_misses", profile.cache_misses);

        tr.span("tableau", "delete", || {
            apply_deletion_rules_profiled(&mut tableau, &closure, problem.mode)
        });
        let (alive_and, alive_or) = tableau.alive_counts();
        tr.count("tableau_alive", alive_and + alive_or);
        if !tableau.alive(tableau.root()) {
            return Ok((Reply::Impossible, None));
        }

        let c0 = tableau
            .alive_succ(tableau.root(), |_| true)
            .map(|(_, c)| c)
            .next()
            .expect("alive root has an alive AND child (DeleteOR)");
        let pre = tr.span("core.unravel", "unravel+quotient", || {
            let unraveled = unravel_mode(&tableau, &closure, &problem.props, c0, problem.mode);
            let q = bisimulation_quotient(&unraveled.model);
            let state_tableau = q
                .representative
                .iter()
                .map(|&r| unraveled.state_tableau[r.index()])
                .collect();
            Unraveled {
                model: q.model,
                state_tableau,
            }
        });
        let full = tr.span("core.verify", "verify", || {
            verify(problem, &closure, &tableau, &pre)
        });
        let (mut model, _, min) = tr.span("core.minimize", "semantic_minimize", || {
            semantic_minimize_with_threads(problem, pre.model, threads)
        });
        tr.count("minimize_attempts", min.attempts);
        tr.count("minimize_merges", min.merges);
        let states = model.len();
        let transitions = model.edge_count() - model.fault_edge_count();

        let intro = tr.span("core.extract", "shared_variables", || {
            introduce_shared_variables(&mut model)
        });
        let mut program = tr.span("core.extract", "extract_program", || {
            extract_program(&model, &problem.props, problem.arena.num_procs(), &intro)
        });
        let model_contents: HashSet<&State> = tr.span("core.extract", "model_index", || {
            model.state_ids().map(|s| model.state(s)).collect()
        });
        let mut extraction_ok = false;
        let mut rounds = 0;
        // The re-check/refine loop; like the daemon's, each round also
        // sorts the explored states into on- and off-model ones.
        while let Ok(ex) = tr.span("core.extract", "explore", || {
            explore(&program, &problem.faults, &problem.props)
        }) {
            let on_model = tr.span("core.extract", "on_model", || {
                ex.kripke
                    .state_ids()
                    .filter(|&s| model_contents.contains(ex.kripke.state(s)))
                    .count()
            });
            tr.count("explored_states", ex.kripke.len());
            tr.count("on_model_states", on_model);
            if tr.span("core.extract", "recheck", || {
                verify_semantic_ok(problem, &ex.kripke)
            }) {
                extraction_ok = true;
                break;
            }
            if rounds >= DEFAULT_EXTRACT_REFINE_ROUNDS {
                break;
            }
            let changed = tr.span("core.extract", "refine_guards", || {
                refine_guards(problem, &model, &intro, &mut program)
            });
            rounds += 1;
            if changed == 0 {
                break;
            }
        }
        drop(model_contents);
        tr.count("refine_rounds", rounds);
        tr.count("model_states", states);

        let verified = tr.span("core.verify", "verify_semantic", || {
            let mut v = verify_semantic(problem, &model);
            v.merge_pre_minimization(full);
            v.ok() && extraction_ok
        });
        let program = tr.span("service", "render_program", || {
            program.display(&problem.props).to_string()
        });
        Ok((
            Reply::Solved {
                states,
                transitions,
                verified,
                cache_hits: profile.cache_hits,
                cache_misses: profile.cache_misses,
                program,
            },
            None,
        ))
    }
}

/// The CEGIS engine: one public call, as the daemon makes it.
fn cegis(tr: &mut Trace, problem: &mut SynthesisProblem, threads: usize) -> Reply {
    let outcome = tr.span("core.cegis", "cegis_synthesize", || {
        cegis_synthesize(problem, ThreadPlan::uniform(threads), None)
    });
    match outcome {
        SynthesisOutcome::Solved(s) => {
            tr.count("cegis_candidates", s.stats.cegis_profile.candidates);
            let program = tr.span("service", "render_program", || {
                s.program.display(&problem.props).to_string()
            });
            Reply::Solved {
                states: s.stats.model_states,
                transitions: s.stats.program_transitions,
                verified: s.verification.ok(),
                cache_hits: 0,
                cache_misses: 0,
                program,
            }
        }
        SynthesisOutcome::Impossible(i) => {
            tr.count("cegis_candidates", i.stats.cegis_profile.candidates);
            Reply::Impossible
        }
        SynthesisOutcome::Aborted(a) => Reply::Aborted {
            phase: a.phase.name().to_owned(),
            reason: a.reason.to_string(),
            resumable: false,
        },
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let usage = "usage: ftsyn-trace --store <dir> --prime <n> <requests.jsonl>";
    let (store_dir, prime, input) = match args {
        [s, dir, p, n, input] if s == "--store" && p == "--prime" => (
            dir,
            n.parse::<usize>().map_err(|_| usage.to_owned())?,
            input,
        ),
        _ => return Err(usage.to_owned()),
    };
    let text = std::fs::read_to_string(input).map_err(|e| format!("{input}: {e}"))?;
    let (store, _) = CheckpointStore::open(Path::new(store_dir)).map_err(|e| e.to_string())?;
    let mut replay = Replay {
        caches: HashMap::new(),
        store,
        parked: HashMap::new(),
    };
    let stdout = std::io::stdout();
    let mut out = BufWriter::new(stdout.lock());
    let mut timed_start = None;
    for (k, line) in text.lines().filter(|l| !l.trim().is_empty()).enumerate() {
        if k == prime {
            timed_start = Some(Instant::now());
        }
        let mut tr = Trace::new();
        let (id, reply) = replay.line(&mut tr, line)?;
        let total = tr.now();
        if k >= prime {
            writeln!(out, "{}", tr.record(&id, &reply, total)).map_err(|e| e.to_string())?;
        }
    }
    // The traced wall time of the timed phase (the priming pass is
    // excluded, as in the untraced run).
    let wall = timed_start.map_or(0, |t| t.elapsed().as_nanos());
    writeln!(out, "{{\"wall_ns\":{wall}}}").map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ftsyn-trace: {e}");
            ExitCode::FAILURE
        }
    }
}
