//! Semantic model minimization.
//!
//! The bisimulation quotient (crate `ftsyn-kripke`) collapses copies
//! with *identical* behavior, but the unraveling also produces copies
//! of a valuation whose behaviors differ in ways the specification does
//! not care about (e.g. a recovery copy whose label carries `AF AG
//! global` instead of the full normal label). This pass greedily merges
//! pairs of states with the same valuation and keeps a merge exactly
//! when the resulting model still satisfies the requirements of the
//! synthesis problem statement (Section 3). The result is a smaller
//! correct model, typically with far fewer disambiguating shared
//! variables, matching the paper's hand-drawn figures much more
//! closely.
//!
//! # Engine
//!
//! The naive engine (kept as [`semantic_minimize_reference`] behind the
//! `slow-reference` feature) re-labels the *entire* candidate model for
//! every candidate merge — a full CTL fixpoint pass over every formula
//! of the requirement closure, tens of thousands of times. That made
//! minimization ~90% of end-to-end synthesis wall-clock. This engine
//! commits the **same merge sequence** (verified bit-for-bit by the
//! conformance layer) through three levers:
//!
//! 1. **Incremental re-verification.** Each greedy round labels the
//!    accepted base model once ([`RoundCtx`]) and keeps the per-state
//!    satisfaction vectors. Per candidate, a *transfer calculus*
//!    ([`Transfer`]) proves most requirement conjuncts on the candidate
//!    directly from the base labeling (merging only redirects edges
//!    into the surviving state, so truths whose witnessing structure is
//!    preserved carry over). Only the leftovers pay for exact
//!    evaluation on the candidate — restricted to the few "dirty"
//!    conjuncts, not the whole closure.
//! 2. **Parallel candidate verification.** Candidates of a round are
//!    independent, so they fan out over
//!    [`ftsyn_tableau::earliest_success`], which commits the
//!    lowest-index success at every thread count — the exact candidate
//!    the sequential greedy scan would take.
//! 3. **Carried rejections.** A candidate rejected because a universal
//!    `AG` part of a requirement fails at an obligation site stays
//!    rejected after every later merge while that site still carries
//!    the obligation ([`Carried`]), so later rounds reject it without
//!    building the candidate. A spec part failing at the initial state
//!    carries unconditionally; a tolerance part failing at a perturbed
//!    site other than the merged state carries as long as the site's
//!    image stays perturbed and the pair's reachability agrees.
//!
//! Transfers only ever prove *satisfaction*; every rejection comes from
//! an exact evaluation on the candidate, or from a carried exact
//! evaluation on a model the candidate is a quotient of. Hence the
//! accept/reject verdict per candidate — and with it the greedy merge
//! sequence and the final model — is identical to the reference
//! engine's.

use crate::problem::SynthesisProblem;
use crate::verify::semantics_of;
use ftsyn_ctl::{Formula, FormulaArena, FormulaId};
use ftsyn_guarded::FaultAction;
use ftsyn_kripke::{
    Checker, FtKripke, LabelCache, PropSet, Semantics, StateId, StateRole, TransKind,
};
use ftsyn_tableau::{earliest_success, AbortReason, Governor};
use std::collections::{HashMap, HashSet};

/// Work counters of one [`semantic_minimize`] run. Minimization
/// dominates the pipeline on the larger instances, so the counters
/// that explain the wall-clock — how many candidates were tried, how
/// each was decided, how many survived — are first-class measurements,
/// surfaced in `SynthesisStats` and the bench JSON.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MinimizeProfile {
    /// Candidate merges decided (accepted or rejected). The greedy scan
    /// order is fixed, so this count is identical at every thread count.
    pub attempts: usize,
    /// Candidate merges accepted. Each accepted merge removes one state
    /// and restarts the greedy scan.
    pub merges: usize,
    /// Full labelings of an accepted base model (one per greedy round).
    /// The reference engine instead pays one full labeling per attempt.
    pub base_labelings: usize,
    /// Attempts decided on a built candidate model: transfers from the
    /// base labeling plus exact evaluation of the open conjuncts.
    pub full_checks: usize,
    /// Attempts rejected by a rejection carried over from an earlier
    /// round, without building the candidate. `full_checks + carried ==
    /// attempts`.
    pub carried: usize,
    /// The subset of `carried` decided by the perturbed-site rule: a
    /// universal tolerance part that failed at a perturbed site whose
    /// image is still perturbed (see [`Carried`]).
    pub site_carried: usize,
    /// Work chunks claimed by parallel candidate scans (zero when the
    /// scan runs on one thread). Not deterministic across thread counts.
    pub parallel_batches: usize,
    /// Chunks executed off their round-robin home worker — the scan
    /// analogue of a work steal. Not deterministic across thread counts.
    pub parallel_steals: usize,
    /// Candidates tested beyond the committed one by speculating
    /// parallel workers. Their verdicts carry no decision weight and
    /// are excluded from every deterministic counter.
    pub speculative_attempts: usize,
    /// Thread count the run was configured with.
    pub threads: usize,
}

impl MinimizeProfile {
    /// The counters guaranteed to be bit-identical across thread counts
    /// (in declaration order: attempts, merges, base labelings, full
    /// checks, carried rejections, site-carried rejections). The
    /// conformance thread-matrix tests compare exactly this slice.
    pub fn deterministic_counters(&self) -> [usize; 6] {
        [
            self.attempts,
            self.merges,
            self.base_labelings,
            self.full_checks,
            self.carried,
            self.site_carried,
        ]
    }

    fn count(&mut self, kind: Kind) {
        match kind {
            Kind::Full => self.full_checks += 1,
            Kind::Carried => self.carried += 1,
            Kind::SiteCarried => {
                self.carried += 1;
                self.site_carried += 1;
            }
        }
    }
}

/// Returns a copy of `m` with state `from` merged into state `into`
/// (edges redirected, `from` removed), plus the old→new state mapping.
///
/// State ids are dense, so the mapping is pure arithmetic: states above
/// `from` shift down by one, `from` maps to `into`'s image. Output
/// states, edges, and initial states are emitted in the same order as
/// the reference engine's map-based construction, so the produced
/// structure is byte-identical to its output.
fn merged(m: &FtKripke, from: StateId, into: StateId) -> (FtKripke, Vec<StateId>) {
    m.merged(from, into)
}

/// The base-model preimage of candidate state `c` when `c` is not the
/// merged state (whose preimages are `from` *and* `into`).
fn preimage(c: StateId, from: StateId) -> StateId {
    if c.0 < from.0 {
        c
    } else {
        StateId(c.0 + 1)
    }
}

/// One conjunct of the synthesis requirements, pre-analyzed for the
/// candidate decision procedure.
enum Req {
    /// `AG h` (encoded `A[false W h]`). `AG` distributes over `∧`, so
    /// the conjuncts of `h` are checked individually: conjuncts the
    /// transfer calculus proves to hold everywhere on the candidate
    /// need no evaluation at all.
    Ag {
        /// The `A[false W h]` formula itself (cached on the base model).
        whole: FormulaId,
        /// The conjuncts of `h`.
        parts: Vec<FormulaId>,
    },
    /// Any other requirement — checked as one formula.
    Plain {
        /// The requirement formula.
        whole: FormulaId,
    },
}

impl Req {
    fn of(arena: &FormulaArena, f: FormulaId) -> Req {
        if let Formula::Aw(g, h) = arena.get(f) {
            if arena.get(g) == Formula::False {
                return Req::Ag {
                    whole: f,
                    parts: arena.conjuncts(h),
                };
            }
        }
        Req::Plain { whole: f }
    }
}

/// The requirements of the synthesis problem statement, decomposed once
/// per run. Building this performs every formula-arena mutation up
/// front, so the arena is immutable (and thread-shareable) for the rest
/// of the run.
struct Requirements {
    semantics: Semantics,
    /// Conjuncts of the temporal specification, checked at the initial
    /// state.
    spec: Vec<Req>,
    /// Requirements of each distinct tolerance, checked at perturbed
    /// states.
    tol_reqs: Vec<Vec<Req>>,
    /// Fault action index → index into `tol_reqs`.
    tol_of_action: Vec<usize>,
    /// All whole requirement formulae, labeled on each accepted model.
    roots: Vec<FormulaId>,
    /// Dense by formula id: the universal conjuncts `p` of `h` for the
    /// spec's `AG h` conjuncts — the parts whose failure at the initial
    /// state is carried across rounds (see [`Carried`]).
    carriable: Vec<bool>,
    /// Dense by formula id: the universal conjuncts `p` of `h` for any
    /// requirement `AG h`, spec or tolerance — the parts whose failure
    /// at a perturbed site is carried (see [`Carried`]).
    universal: Vec<bool>,
    num_props: usize,
}

/// Whether `f` is universal: built from literals, `∧`, `∨`, `AXᵢ`, `AU`
/// and `AW` only. A violation of a universal formula maps to a
/// violation under every quotient of a dead-end-free model.
fn is_universal(arena: &FormulaArena, f: FormulaId) -> bool {
    match arena.get(f) {
        Formula::True | Formula::False | Formula::Prop(_) | Formula::NegProp(_) => true,
        Formula::And(a, b) | Formula::Or(a, b) | Formula::Au(a, b) | Formula::Aw(a, b) => {
            is_universal(arena, a) && is_universal(arena, b)
        }
        Formula::Ax(_, g) => is_universal(arena, g),
        Formula::Ex(..) | Formula::Eu(..) | Formula::Ew(..) => false,
    }
}

impl Requirements {
    fn new(problem: &mut SynthesisProblem) -> Requirements {
        let semantics = semantics_of(problem.mode);
        let spec_formula = problem.spec.formula(&mut problem.arena);
        let distinct = problem.tolerance.distinct();
        let mut roots = vec![spec_formula];
        let mut tol_reqs: Vec<Vec<Req>> = Vec::new();
        for &tol in &distinct {
            let fs = problem.label_tol_formulas(tol);
            roots.extend(fs.iter().copied());
            tol_reqs.push(fs.iter().map(|&f| Req::of(&problem.arena, f)).collect());
        }
        let tol_of_action = (0..problem.faults.len())
            .map(|i| {
                let t = problem.tolerance.of(i);
                distinct.iter().position(|&d| d == t).expect("distinct() covers every action")
            })
            .collect();
        let spec: Vec<Req> = problem
            .arena
            .conjuncts(spec_formula)
            .into_iter()
            .map(|c| Req::of(&problem.arena, c))
            .collect();
        let mut carriable = vec![false; problem.arena.len()];
        for r in &spec {
            if let Req::Ag { parts, .. } = r {
                for &p in parts {
                    carriable[p.index()] = is_universal(&problem.arena, p);
                }
            }
        }
        let mut universal = carriable.clone();
        for r in tol_reqs.iter().flatten() {
            if let Req::Ag { parts, .. } = r {
                for &p in parts {
                    universal[p.index()] = is_universal(&problem.arena, p);
                }
            }
        }
        Requirements {
            semantics,
            spec,
            tol_reqs,
            tol_of_action,
            roots,
            carriable,
            universal,
            num_props: problem.props.len(),
        }
    }
}

/// Shared read-only inputs of one minimization run.
struct Env<'a> {
    arena: &'a FormulaArena,
    faults: &'a [FaultAction],
    reqs: &'a Requirements,
}

/// Per-round context: the full CTL labeling of the current accepted
/// model plus derived facts the per-candidate decision procedure reads.
struct RoundCtx {
    /// Satisfaction vectors of every requirement formula and all of its
    /// subformulae on the base model.
    cache: LabelCache,
    /// Dense by formula id: whether the cached vector is all-true.
    all_true: Vec<bool>,
    /// Whether every base state has a path successor (merging never
    /// removes successors, so this carries to every candidate).
    no_dead_ends: bool,
    /// Whether the base is fault closed. Merging unions successor sets
    /// and keeps every valuation, so then every candidate is fault
    /// closed too and needs no closure check.
    fault_closed: bool,
    /// Dense by base state: reachability including fault transitions.
    /// When a candidate merges two states of equal reachability, the
    /// reachable set — and with it every state's role — carries over to
    /// the candidate verbatim (see [`decide_on`]).
    reach: Vec<bool>,
    /// The perturbed base states with the distinct tolerance indices of
    /// the fault actions reaching each — the obligation sites every
    /// candidate inherits, computed once per round instead of
    /// re-classifying every candidate.
    perturbed: Vec<(StateId, Vec<usize>)>,
    /// Dense by base state: whether it is perturbed (the role check of
    /// a site-carried rejection).
    is_perturbed: Vec<bool>,
}

/// The fault-closure predicate of `verify_semantic`: every enabled
/// fault action is represented, outcome by outcome, at every state.
fn is_fault_closed(faults: &[FaultAction], num_props: usize, model: &FtKripke) -> bool {
    model.state_ids().all(|s| {
        let valuation = &model.state(s).props;
        faults.iter().enumerate().all(|(ai, action)| {
            !action.enabled(valuation)
                || action.outcomes(valuation, num_props).iter().all(|phi| {
                    model.succ(s).iter().any(|e| {
                        e.kind == TransKind::Fault(ai) && model.state(e.to).props == *phi
                    })
                })
        })
    })
}

/// Reachability over all transitions, faults included — the same set
/// [`FtKripke::classify`] computes internally.
fn reachable_with_faults(model: &FtKripke) -> Vec<bool> {
    let mut seen = vec![false; model.len()];
    let mut stack: Vec<StateId> = Vec::new();
    for &i in model.init_states() {
        if !seen[i.index()] {
            seen[i.index()] = true;
            stack.push(i);
        }
    }
    while let Some(s) = stack.pop() {
        for e in model.succ(s) {
            if !seen[e.to.index()] {
                seen[e.to.index()] = true;
                stack.push(e.to);
            }
        }
    }
    seen
}

fn round_ctx(env: &Env<'_>, model: &FtKripke, roles: &[StateRole]) -> RoundCtx {
    let mut ck = Checker::new(model, env.reqs.semantics);
    for &r in &env.reqs.roots {
        ck.eval(env.arena, r);
    }
    let no_dead_ends = ck.dead_end_free();
    let cache = ck.into_cache();
    let mut all_true = vec![false; env.arena.len()];
    for f in cache.formulas() {
        all_true[f.index()] = cache.all_true(f);
    }
    let mut perturbed = Vec::new();
    for s in model.state_ids() {
        if roles[s.index()] != StateRole::Perturbed {
            continue;
        }
        let mut tols: Vec<usize> = Vec::new();
        for e in model.pred(s) {
            if let TransKind::Fault(a) = e.kind {
                let t = env.reqs.tol_of_action[a];
                if !tols.contains(&t) {
                    tols.push(t);
                }
            }
        }
        perturbed.push((s, tols));
    }
    RoundCtx {
        cache,
        all_true,
        no_dead_ends,
        fault_closed: is_fault_closed(env.faults, env.reqs.num_props, model),
        reach: reachable_with_faults(model),
        perturbed,
        is_perturbed: roles.iter().map(|&r| r == StateRole::Perturbed).collect(),
    }
}

/// The transfer calculus: sound per-formula proofs that base-model
/// truths survive the merge `q : base → cand` (where `q` collapses
/// `from`/`into` and is the identity elsewhere).
///
/// * `pt(f)` — *pointwise transfer*: `base, s ⊨ f` implies
///   `cand, q(s) ⊨ f` for **every** state `s`. Sound because every base
///   transition maps to a candidate transition of the same kind with
///   valuation-identical endpoints; only universal path/next operators
///   can be invalidated (the merged state may gain successors), so
///   `AU`/`AW` never transfer pointwise and `AXᵢ` transfers only when
///   `from` and `into` agree on it (then the merged state's obligation
///   set is the union of two sets that both satisfied it).
/// * `skip(f)` — `cand, c ⊨ f` for **every** candidate state `c`.
///   Every candidate state is the image of a base state with the same
///   valuation, so base-wide truths (`all_true`) combine with `pt` of
///   the subformulae; `h`-everywhere makes any until/unless of `h`
///   hold everywhere outright.
///
/// Both memoize densely by formula id; hash-consing guarantees children
/// have smaller ids, so recursion terminates and `skip(f)` never
/// re-enters `pt(f)` on the same id.
///
/// Neither direction can *refute*: a `false` answer means "not proven",
/// and the caller falls through to an exact check. `E[gWh]`
/// additionally needs the base to be dead-end free: its witness may be
/// a finite maximal path whose image could become extendable, but on a
/// dead-end-free base every witness fullpath is infinite and maps to an
/// infinite candidate fullpath.
struct Transfer<'a> {
    arena: &'a FormulaArena,
    round: &'a RoundCtx,
    from: StateId,
    into: StateId,
    pt_memo: Vec<i8>,
    skip_memo: Vec<i8>,
}

impl<'a> Transfer<'a> {
    fn new(arena: &'a FormulaArena, round: &'a RoundCtx, from: StateId, into: StateId) -> Self {
        Transfer {
            arena,
            round,
            from,
            into,
            pt_memo: vec![-1; arena.len()],
            skip_memo: vec![-1; arena.len()],
        }
    }

    fn all_true(&self, f: FormulaId) -> bool {
        self.round.all_true[f.index()]
    }

    fn pt(&mut self, f: FormulaId) -> bool {
        let m = self.pt_memo[f.index()];
        if m >= 0 {
            return m == 1;
        }
        let structural = match self.arena.get(f) {
            Formula::True | Formula::False | Formula::Prop(_) | Formula::NegProp(_) => true,
            Formula::And(a, b) | Formula::Or(a, b) => self.pt(a) && self.pt(b),
            Formula::Ex(_, g) => self.pt(g),
            Formula::Ax(_, g) => {
                // The merged state's AXᵢ obligations are the union of
                // from's and into's; transfer needs both to agree.
                let bf = self.round.cache.holds(f, self.from);
                let bi = self.round.cache.holds(f, self.into);
                bf.is_some() && bf == bi && self.pt(g)
            }
            Formula::Eu(g, h) => self.pt(g) && self.pt(h),
            Formula::Ew(g, h) => self.round.no_dead_ends && self.pt(g) && self.pt(h),
            Formula::Au(_, _) | Formula::Aw(_, _) => false,
        };
        let v = structural || self.skip(f);
        self.pt_memo[f.index()] = i8::from(v);
        v
    }

    fn skip(&mut self, f: FormulaId) -> bool {
        let m = self.skip_memo[f.index()];
        if m >= 0 {
            return m == 1;
        }
        let v = match self.arena.get(f) {
            Formula::True => true,
            Formula::False => false,
            Formula::Prop(_) | Formula::NegProp(_) => self.all_true(f),
            Formula::And(a, b) => {
                (self.skip(a) && self.skip(b))
                    || (self.all_true(f) && self.pt(a) && self.pt(b))
            }
            Formula::Or(a, b) => {
                self.skip(a)
                    || self.skip(b)
                    || (self.all_true(f) && self.pt(a) && self.pt(b))
            }
            Formula::Ax(_, g) | Formula::Ex(_, g) => {
                self.all_true(f) && (self.skip(g) || self.pt(g))
            }
            Formula::Au(_, h) | Formula::Aw(_, h) => self.skip(h),
            Formula::Eu(g, h) => {
                self.skip(h) || (self.all_true(f) && self.pt(g) && self.pt(h))
            }
            Formula::Ew(g, h) => {
                self.skip(h)
                    || (self.all_true(f)
                        && self.round.no_dead_ends
                        && self.pt(g)
                        && self.pt(h))
            }
        };
        self.skip_memo[f.index()] = i8::from(v);
        v
    }

}

/// How a candidate's verdict was reached (profiled per attempt).
#[derive(Clone, Copy, Debug)]
enum Kind {
    /// Decided on the built candidate model.
    Full,
    /// Rejected by a rejection carried over from an earlier round.
    Carried,
    /// [`Kind::Carried`] by the perturbed-site rule.
    SiteCarried,
}

/// Whether, and how, a rejection carries into later rounds.
#[derive(Clone, Copy, Debug)]
enum Carry {
    /// Not carried.
    No,
    /// Carried unconditionally (violation at the initial state).
    Pair,
    /// Carried while this base state's image stays perturbed.
    Site(StateId),
}

/// Per-candidate verdict plus its cost class. Deliberately tiny: the
/// parallel scan retains one per tested candidate, and the winning
/// candidate's model is rebuilt (cheaply) after the scan commits.
#[derive(Clone, Copy, Debug)]
struct Decision {
    ok: bool,
    kind: Kind,
    /// Whether the rejection survives later merges (see [`Carried`]).
    carry: Carry,
    /// The `AG` part that refuted the candidate, if one did.
    killer: Option<FormulaId>,
}

impl Decision {
    fn carried(kind: Kind) -> Decision {
        Decision {
            ok: false,
            kind,
            carry: Carry::No,
            killer: None,
        }
    }

    fn full(ok: bool) -> Decision {
        Decision {
            ok,
            kind: Kind::Full,
            carry: Carry::No,
            killer: None,
        }
    }
}

/// Rejections carried across rounds, keyed by unordered state pair.
///
/// A later candidate `M_{k+1}/(a~b)` is a further quotient of the
/// rejected candidate `M_k/(a~b)`: `M_{k+1}` is itself a quotient of
/// `M_k`. The quotient map keeps valuations, transition kinds and the
/// initial state, so every path of the rejected candidate maps to a
/// path of the later one, and by induction on the formula every
/// violation witness of a universal formula ([`is_universal`]) maps to
/// a violation witness (ACTL is preserved by simulation). Hence a
/// rejection carries when
///
/// 1. the refuting formula is a universal conjunct `p` of `h` for a
///    requirement `AG h`, spec or tolerance (an existential witness
///    need not survive a merge);
/// 2. the base was dead-end free under the semantics in force
///    ([`RoundCtx::no_dead_ends`]) — otherwise a finite maximal path
///    may become extendable after a merge, which can make `A[gUh]`
///    true; merging never removes successors, so every later quotient
///    stays dead-end free;
/// 3. the obligation still applies at the violation's image. Either
///    `p` belongs to the spec and the violation is at the initial
///    state, where the spec always applies (`pairs`); or it is a
///    violation at a perturbed site other than the merged state, found
///    on a pair of equal reachability (`sites`, keyed to the site in
///    base ids). Fault edges map forward, so the site's image is hit by
///    every fault action that hit the site and its tolerance
///    obligations only grow; the one way to lose the obligation is for
///    the image to stop being perturbed. A later round therefore
///    applies a site entry only when the site's image is perturbed in
///    its base and the pair's reachability still agrees — then the
///    candidate keeps the base's roles (see [`decide_on`]) and the
///    image is an obligation site of the candidate, merged state or
///    not.
///
/// Only committed verdicts (scan indices below the accepted merge) are
/// recorded, never speculative ones, and each accepted merge maps every
/// pair and site forward through its step map; pairs it collapses are
/// dropped. Pairs that collide keep the least site id, so the entry is
/// the same whatever order the map is walked in.
#[derive(Default)]
struct Carried {
    pairs: HashSet<(StateId, StateId)>,
    sites: HashMap<(StateId, StateId), StateId>,
}

impl Carried {
    fn key(a: StateId, b: StateId) -> (StateId, StateId) {
        (a.min(b), a.max(b))
    }

    /// The carried rejection of candidate `from → into` in `round`, if
    /// one applies.
    fn rejects(&self, round: &RoundCtx, from: StateId, into: StateId) -> Option<Kind> {
        let key = Carried::key(from, into);
        if self.pairs.contains(&key) {
            return Some(Kind::Carried);
        }
        let site = *self.sites.get(&key)?;
        (round.reach[from.index()] == round.reach[into.index()]
            && round.is_perturbed[site.index()])
        .then_some(Kind::SiteCarried)
    }

    fn record(&mut self, a: StateId, b: StateId, carry: Carry) {
        match carry {
            Carry::No => {}
            Carry::Pair => {
                self.pairs.insert(Carried::key(a, b));
            }
            Carry::Site(s) => {
                self.sites.insert(Carried::key(a, b), s);
            }
        }
    }

    /// Maps every pair and site through an accepted merge's step map.
    fn step(&mut self, step_map: &[StateId]) {
        let map = |a: StateId, b: StateId| {
            let (a, b) = (step_map[a.index()], step_map[b.index()]);
            (a != b).then(|| Carried::key(a, b))
        };
        self.pairs = self.pairs.iter().filter_map(|&(a, b)| map(a, b)).collect();
        let mut sites = HashMap::with_capacity(self.sites.len());
        for (&(a, b), &s) in &self.sites {
            if let Some(key) = map(a, b) {
                let s = step_map[s.index()];
                sites
                    .entry(key)
                    .and_modify(|t: &mut StateId| *t = (*t).min(s))
                    .or_insert(s);
            }
        }
        self.sites = sites;
    }
}

/// Decides one candidate merge: the exact `verify_semantic` verdict on
/// `merged(model, from, into)`.
fn decide(
    env: &Env<'_>,
    model: &FtKripke,
    round: &RoundCtx,
    kills: &HashMap<FormulaId, u32>,
    from: StateId,
    into: StateId,
) -> Decision {
    // The candidate structure is needed for role classification (which
    // states are perturbed) and for any exact evaluation. It is built
    // into a per-worker scratch buffer: candidate construction runs
    // once per attempt, so it must not pay per-state allocations.
    thread_local! {
        static SCRATCH: std::cell::RefCell<(FtKripke, Vec<StateId>)> =
            std::cell::RefCell::new((FtKripke::new(), Vec::new()));
    }
    SCRATCH.with(|scratch| {
        let mut guard = scratch.borrow_mut();
        let (cand, step_map) = &mut *guard;
        model.merge_into(from, into, cand, step_map);
        if !round.fault_closed && !is_fault_closed(env.faults, env.reqs.num_props, cand) {
            return Decision::full(false);
        }
        decide_on(env, round, kills, from, into, cand)
    })
}

/// State-independent resolution of one requirement against one
/// candidate, computed once per distinct requirement formula per
/// candidate (the same requirement recurs at every perturbed state).
enum ReqRes {
    /// The transfer calculus proves the requirement on every candidate
    /// state — no obligation anywhere.
    Discharged,
    /// Transfers pointwise: discharged wherever the base labeling holds
    /// at the obligation state's preimage(s).
    Pt,
    /// Needs exact evaluation at each obligation state.
    OpenPlain,
    /// `AG` requirement with undischarged conjuncts: index into the
    /// candidate's open-`AG` groups.
    OpenAg(usize),
}

fn decide_on(
    env: &Env<'_>,
    round: &RoundCtx,
    kills: &HashMap<FormulaId, u32>,
    from: StateId,
    into: StateId,
    cand: &FtKripke,
) -> Decision {
    let merged_state = StateId(into.0 - u32::from(into.0 > from.0));
    let init_c = cand.init_states()[0];
    let mut tr = Transfer::new(env.arena, round, from, into);

    // Requirement obligations: spec conjuncts at the initial state,
    // tolerance labels at each perturbed state (per the tolerances of
    // the fault actions reaching it) — exactly `verify_semantic`'s
    // predicate set. The transfer calculus discharges most of them; the
    // rest stay open, grouped by requirement so the state-independent
    // work (skip/pt proofs, the dirty-conjunct split) runs once per
    // requirement instead of once per obligation.
    let mut open_plain: Vec<(FormulaId, StateId)> = Vec::new();
    // Open `AG` groups: (dirty conjuncts, obligation states).
    let mut ag_open: Vec<(Vec<FormulaId>, Vec<StateId>)> = Vec::new();
    let mut res_memo: HashMap<FormulaId, ReqRes> = HashMap::new();
    let mut add = |tr: &mut Transfer<'_>,
                   open_plain: &mut Vec<(FormulaId, StateId)>,
                   ag_open: &mut Vec<(Vec<FormulaId>, Vec<StateId>)>,
                   r: &Req,
                   c: StateId| {
        let whole = match r {
            Req::Plain { whole } | Req::Ag { whole, .. } => *whole,
        };
        let res = res_memo.entry(whole).or_insert_with(|| match r {
            Req::Plain { whole } => {
                if tr.skip(*whole) {
                    ReqRes::Discharged
                } else if tr.pt(*whole) {
                    ReqRes::Pt
                } else {
                    ReqRes::OpenPlain
                }
            }
            Req::Ag { whole, parts } => {
                // `pt(A[false W h]) = skip(A[false W h])` (no structural
                // rule), so `skip` is the whole transfer story here.
                if tr.skip(*whole) {
                    ReqRes::Discharged
                } else {
                    // AG distributes over ∧: conjuncts that hold
                    // everywhere on the candidate are discharged; the
                    // rest are dirty.
                    let dirty: Vec<FormulaId> =
                        parts.iter().copied().filter(|&p| !tr.skip(p)).collect();
                    if dirty.is_empty() {
                        ReqRes::Discharged
                    } else {
                        ag_open.push((dirty, Vec::new()));
                        ReqRes::OpenAg(ag_open.len() - 1)
                    }
                }
            }
        });
        match res {
            ReqRes::Discharged => {}
            ReqRes::Pt => {
                let proven = if c == merged_state {
                    round.cache.holds(whole, from) == Some(true)
                        || round.cache.holds(whole, into) == Some(true)
                } else {
                    round.cache.holds(whole, preimage(c, from)) == Some(true)
                };
                if !proven {
                    open_plain.push((whole, c));
                }
            }
            ReqRes::OpenPlain => open_plain.push((whole, c)),
            ReqRes::OpenAg(i) => ag_open[*i].1.push(c),
        }
    };
    for r in &env.reqs.spec {
        add(&mut tr, &mut open_plain, &mut ag_open, r, init_c);
    }
    // Obligation sites. When `from` and `into` have equal reachability,
    // merging preserves the reachable set exactly (a candidate path
    // lifts to a base path segment-wise; crossing the merged state
    // lands on `from` or `into`, and equal reachability lets the lift
    // continue from either), and — since candidates merge within a
    // (valuation, normality) class — the fault-free-reachable set too.
    // Fault predecessors map through the quotient with their sources'
    // reachability intact, so every non-merged state keeps its role
    // verbatim and the merged state is perturbed iff either preimage
    // is, with the union of their tolerance obligations. The round's
    // precomputed site list therefore *is* the candidate's. Unequal
    // reachability (rare: the pair's class spans reachable and
    // unreachable states) falls back to classifying the candidate.
    let same_roles = round.reach[from.index()] == round.reach[into.index()];
    if same_roles {
        let mut merged_tols: Vec<usize> = Vec::new();
        for (s, tols) in &round.perturbed {
            if *s == from || *s == into {
                for &t in tols {
                    if !merged_tols.contains(&t) {
                        merged_tols.push(t);
                    }
                }
                continue;
            }
            let c = StateId(s.0 - u32::from(s.0 > from.0));
            for &t in tols {
                for r in &env.reqs.tol_reqs[t] {
                    add(&mut tr, &mut open_plain, &mut ag_open, r, c);
                }
            }
        }
        for &t in &merged_tols {
            for r in &env.reqs.tol_reqs[t] {
                add(&mut tr, &mut open_plain, &mut ag_open, r, merged_state);
            }
        }
    } else {
        let roles = cand.classify();
        for s in cand.state_ids() {
            if roles[s.index()] != StateRole::Perturbed {
                continue;
            }
            let mut tols: Vec<usize> = Vec::new();
            for e in cand.pred(s) {
                if let TransKind::Fault(a) = e.kind {
                    let t = env.reqs.tol_of_action[a];
                    if !tols.contains(&t) {
                        tols.push(t);
                    }
                }
            }
            for t in tols {
                for r in &env.reqs.tol_reqs[t] {
                    add(&mut tr, &mut open_plain, &mut ag_open, r, s);
                }
            }
        }
    }
    // Exact evaluation on the candidate, restricted to the open
    // obligations. Dirty AG conjuncts share one `AG part` vector across
    // requirements and obligation states, and are tried killers-first:
    // conjuncts that rejected earlier committed candidates are
    // evaluated before ones that always pass. The scores change only
    // between rounds, so the first failing conjunct — and with it
    // whether the rejection carries — is a function of the candidate
    // and the committed history, identical at every thread count.
    let mut ck = Checker::new(cand, env.reqs.semantics);
    let mut ag_memo: HashMap<FormulaId, Vec<bool>> = HashMap::new();
    for (parts, sites) in &mut ag_open {
        parts.sort_by_key(|p| {
            (std::cmp::Reverse(kills.get(p).copied().unwrap_or(0)), p.index())
        });
        for &p in parts.iter() {
            let ag = ag_memo.entry(p).or_insert_with(|| {
                let vp = ck.eval(env.arena, p).clone();
                ck.ag_of(&vp)
            });
            if sites.iter().any(|&c| !ag[c.index()]) {
                let carry = if !round.no_dead_ends {
                    Carry::No
                } else if env.reqs.carriable[p.index()] && !ag[init_c.index()] {
                    Carry::Pair
                } else if same_roles && env.reqs.universal[p.index()] {
                    // Every site but the initial state is perturbed here.
                    sites
                        .iter()
                        .find(|&&c| !ag[c.index()] && c != init_c && c != merged_state)
                        .map_or(Carry::No, |&c| Carry::Site(preimage(c, from)))
                } else {
                    Carry::No
                };
                return Decision {
                    ok: false,
                    kind: Kind::Full,
                    carry,
                    killer: Some(p),
                };
            }
        }
    }
    Decision::full(open_plain.iter().all(|&(whole, c)| ck.holds(env.arena, whole, c)))
}

/// Greedily merges same-valuation states while the model keeps passing
/// the semantic verification. Returns the minimized model together with
/// the mapping from the input model's state ids to the output's.
pub fn semantic_minimize(
    problem: &mut SynthesisProblem,
    model: FtKripke,
) -> (FtKripke, Vec<StateId>) {
    let (model, map, _) = semantic_minimize_profiled(problem, model);
    (model, map)
}

/// [`semantic_minimize`] plus the [`MinimizeProfile`] work counters of
/// the run (same model, same mapping — the profile is observational).
pub fn semantic_minimize_profiled(
    problem: &mut SynthesisProblem,
    model: FtKripke,
) -> (FtKripke, Vec<StateId>, MinimizeProfile) {
    semantic_minimize_with_threads(problem, model, 1)
}

/// [`semantic_minimize_profiled`] with candidate verification fanned
/// out over `threads` worker threads. The committed merge sequence —
/// and therefore the minimized model, the mapping, and every
/// deterministic profile counter — is bit-identical at every thread
/// count (see [`MinimizeProfile::deterministic_counters`]).
pub fn semantic_minimize_with_threads(
    problem: &mut SynthesisProblem,
    model: FtKripke,
    threads: usize,
) -> (FtKripke, Vec<StateId>, MinimizeProfile) {
    minimize_core(problem, model, threads, None)
        .unwrap_or_else(|a| panic!("ungoverned minimize aborted: {}", a.reason))
}

/// Partial results of a governed minimization that exceeded its budget.
#[derive(Clone, Debug)]
pub struct MinimizeAbort {
    /// Which limit tripped.
    pub reason: AbortReason,
    /// Attempts/merges performed up to the abort point.
    pub profile: MinimizeProfile,
}

/// [`semantic_minimize_with_threads`] under a [`Governor`]: the attempt
/// cap bounds each round's candidate scan so that exactly `cap`
/// candidates are decided in scan order before the abort — bit-identical
/// counters at every thread count — and the deadline/cancel flag is
/// polled before every candidate verification.
/// `max_minimize_attempts: Some(n)` performs exactly `n` attempts.
pub fn semantic_minimize_governed(
    problem: &mut SynthesisProblem,
    model: FtKripke,
    threads: usize,
    gov: &Governor,
) -> Result<(FtKripke, Vec<StateId>, MinimizeProfile), MinimizeAbort> {
    minimize_core(problem, model, threads, Some(gov))
}

fn minimize_core(
    problem: &mut SynthesisProblem,
    model: FtKripke,
    threads: usize,
    gov: Option<&Governor>,
) -> Result<(FtKripke, Vec<StateId>, MinimizeProfile), MinimizeAbort> {
    let threads = threads.max(1);
    let mut profile = MinimizeProfile {
        threads,
        ..MinimizeProfile::default()
    };
    // All arena mutations happen here; afterwards the problem is only
    // read, so candidate workers can share it.
    let reqs = Requirements::new(problem);
    let env = Env {
        arena: &problem.arena,
        faults: &problem.faults,
        reqs: &reqs,
    };
    let mut model = model;
    let mut total_map: Vec<StateId> = model.state_ids().collect();
    let mut carried = Carried::default();
    // How often each `AG` part refuted a committed candidate.
    let mut kills: HashMap<FormulaId, u32> = HashMap::new();
    'outer: loop {
        // Group state ids by (valuation, normality). Merging a normal
        // with a non-normal copy would enlarge the fault-free reachable
        // region — correct, but it would lose the paper's Section 6.2
        // observation that recovery transitions generate no new states
        // under normal operation — so merges stay within a class.
        // Groups are kept in first-occurrence (state-id) order: iterating
        // a `HashMap<(PropSet, bool), _>` here was the pipeline's last
        // source of run-to-run nondeterminism (the greedy merge order
        // changed, and with it the final state count — 85 vs 86 on
        // mutex3-failstop).
        let roles = model.classify();
        let mut group_index: HashMap<(PropSet, bool), usize> = HashMap::new();
        let mut groups: Vec<Vec<StateId>> = Vec::new();
        for s in model.state_ids() {
            let normal = roles[s.index()] == StateRole::Normal;
            let key = (model.state(s).props.clone(), normal);
            let gi = *group_index.entry(key).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[gi].push(s);
        }
        let mut candidates: Vec<(StateId, StateId)> = Vec::new();
        for members in &groups {
            for (i, &a) in members.iter().enumerate() {
                for &b in &members[i + 1..] {
                    candidates.push((b, a)); // merge later copy into earlier
                }
            }
        }
        if candidates.is_empty() {
            break;
        }
        if let Some(g) = gov {
            if let Err(reason) = g.check_minimize_attempts(profile.attempts) {
                return Err(MinimizeAbort { reason, profile });
            }
        }
        // One labeling of the accepted model serves the whole round;
        // the grouping's role vector doubles as its obligation map.
        let round = round_ctx(&env, &model, &roles);
        profile.base_labelings += 1;
        // The attempt cap bounds the scan length, so the round decides
        // exactly the candidates the cap admits, in scan order.
        let allowance = gov
            .and_then(|g| g.budget().max_minimize_attempts)
            .map_or(usize::MAX, |cap| cap - profile.attempts);
        let n_scan = candidates.len().min(allowance);
        // Lever 2: fan the candidate verdicts out; the committed index
        // is the lowest passing one at every thread count.
        let scan = earliest_success(n_scan, threads, |i| {
            if let Some(g) = gov {
                g.check_realtime()?;
            }
            let (from, into) = candidates[i];
            if let Some(kind) = carried.rejects(&round, from, into) {
                // The soundness oracle: a carried rejection must agree
                // with a full decision on the candidate.
                #[cfg(any(test, feature = "slow-reference"))]
                assert!(
                    !decide(&env, &model, &round, &kills, from, into).ok,
                    "{kind:?} rejection of {from:?}->{into:?} passes a full decision"
                );
                return Ok((false, Decision::carried(kind)));
            }
            let d = decide(&env, &model, &round, &kills, from, into);
            Ok((d.ok, d))
        });
        let (found, outcomes, stats) = match scan {
            Ok(r) => r,
            Err(reason) => return Err(MinimizeAbort { reason, profile }),
        };
        if threads > 1 {
            profile.parallel_batches += stats.batches;
            profile.parallel_steals += stats.steals;
        }
        match found {
            Some(j) => {
                // Deterministic accounting: only the committed prefix
                // counts; speculative verdicts are tallied separately.
                profile.attempts += j + 1;
                profile.speculative_attempts += stats.tested - (j + 1);
                for (d, &(a, b)) in outcomes.iter().take(j + 1).zip(&candidates) {
                    let d = d.expect("the committed prefix is decided");
                    profile.count(d.kind);
                    carried.record(a, b, d.carry);
                    if let Some(p) = d.killer {
                        *kills.entry(p).or_insert(0) += 1;
                    }
                }
                profile.merges += 1;
                let (from, into) = candidates[j];
                let (next, step_map) = merged(&model, from, into);
                model = next;
                for t in total_map.iter_mut() {
                    *t = step_map[t.index()];
                }
                carried.step(&step_map);
                continue 'outer;
            }
            None => {
                profile.attempts += n_scan;
                for d in outcomes.iter().flatten() {
                    profile.count(d.kind);
                }
                if n_scan < candidates.len() {
                    // The cap cut the scan short with candidates left:
                    // the reference engine aborts here too, with the
                    // same attempt count.
                    let cap = gov
                        .and_then(|g| g.budget().max_minimize_attempts)
                        .expect("scan only shortened by the attempt cap");
                    return Err(MinimizeAbort {
                        reason: AbortReason::MinimizeAttemptCapExceeded {
                            cap,
                            reached: profile.attempts,
                        },
                        profile,
                    });
                }
                break;
            }
        }
    }
    Ok((model, total_map, profile))
}

/// The pre-optimization greedy engine, kept verbatim as the oracle the
/// fast engine is byte-compared against (conformance `minimize` suite;
/// enabled for tests and under the `slow-reference` feature). One full
/// semantic verification per candidate merge.
#[cfg(any(test, feature = "slow-reference"))]
mod reference {
    use super::{MinimizeAbort, MinimizeProfile};
    use crate::problem::SynthesisProblem;
    use crate::verify::verify_semantic_ok;
    use ftsyn_kripke::{FtKripke, PropSet, StateId};
    use ftsyn_tableau::Governor;
    use std::collections::HashMap;

    pub(super) fn merged(
        m: &FtKripke,
        from: StateId,
        into: StateId,
    ) -> (FtKripke, Vec<StateId>) {
        let mut out = FtKripke::new();
        // Old id -> new id (from maps to into's new id).
        let mut map: HashMap<StateId, StateId> = HashMap::new();
        for s in m.state_ids() {
            if s == from {
                continue;
            }
            let n = out.push_state(m.state(s).clone());
            map.insert(s, n);
        }
        map.insert(from, map[&into]);
        for s in m.state_ids() {
            let ns = map[&s];
            for e in m.succ(s) {
                out.add_edge(ns, e.kind, map[&e.to]);
            }
        }
        for &i in m.init_states() {
            out.add_init(map[&i]);
        }
        let mapping = m.state_ids().map(|s| map[&s]).collect();
        (out, mapping)
    }

    /// Reference form of [`super::semantic_minimize_profiled`]: same
    /// model, same mapping, same attempts/merges counters, one full
    /// candidate verification per attempt.
    pub fn semantic_minimize_reference(
        problem: &mut SynthesisProblem,
        model: FtKripke,
    ) -> (FtKripke, Vec<StateId>, MinimizeProfile) {
        minimize_core(problem, model, None)
            .unwrap_or_else(|a| panic!("ungoverned minimize aborted: {}", a.reason))
    }

    /// Reference form of [`super::semantic_minimize_governed`]
    /// (single-threaded; the attempt cap and the deadline/cancel flag
    /// are polled before every candidate verification).
    pub fn semantic_minimize_reference_governed(
        problem: &mut SynthesisProblem,
        model: FtKripke,
        gov: &Governor,
    ) -> Result<(FtKripke, Vec<StateId>, MinimizeProfile), MinimizeAbort> {
        minimize_core(problem, model, Some(gov))
    }

    fn minimize_core(
        problem: &mut SynthesisProblem,
        model: FtKripke,
        gov: Option<&Governor>,
    ) -> Result<(FtKripke, Vec<StateId>, MinimizeProfile), MinimizeAbort> {
        let mut profile = MinimizeProfile {
            threads: 1,
            ..MinimizeProfile::default()
        };
        let mut model = model;
        let mut total_map: Vec<StateId> = model.state_ids().collect();
        'outer: loop {
            let roles = model.classify();
            let mut group_index: HashMap<(PropSet, bool), usize> = HashMap::new();
            let mut groups: Vec<Vec<StateId>> = Vec::new();
            for s in model.state_ids() {
                let normal = roles[s.index()] == ftsyn_kripke::StateRole::Normal;
                let key = (model.state(s).props.clone(), normal);
                let gi = *group_index.entry(key).or_insert_with(|| {
                    groups.push(Vec::new());
                    groups.len() - 1
                });
                groups[gi].push(s);
            }
            let mut candidates: Vec<(StateId, StateId)> = Vec::new();
            for members in &groups {
                for (i, &a) in members.iter().enumerate() {
                    for &b in &members[i + 1..] {
                        candidates.push((b, a)); // merge later copy into earlier
                    }
                }
            }
            for (from, into) in candidates {
                if let Some(g) = gov {
                    if let Err(reason) = g
                        .check_minimize_attempts(profile.attempts)
                        .and_then(|()| g.check_realtime())
                    {
                        return Err(MinimizeAbort { reason, profile });
                    }
                }
                let (cand, step_map) = merged(&model, from, into);
                profile.attempts += 1;
                // Early-exit verdict: same predicates as `verify_semantic`,
                // but a rejected candidate stops at its first violation.
                if verify_semantic_ok(problem, &cand) {
                    profile.merges += 1;
                    model = cand;
                    for t in total_map.iter_mut() {
                        *t = step_map[t.index()];
                    }
                    continue 'outer;
                }
            }
            break;
        }
        Ok((model, total_map, profile))
    }
}

#[cfg(any(test, feature = "slow-reference"))]
pub use reference::{semantic_minimize_reference, semantic_minimize_reference_governed};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::mutex;
    use crate::synthesize;
    use crate::unravel::unravel_mode;
    use crate::verify::verify_semantic;
    use ftsyn_ctl::Closure;
    use ftsyn_kripke::TransKind;
    use ftsyn_tableau::{apply_deletion_rules_mode, build, Budget, FaultSpec};

    /// Structural identity of two models, id-for-id: states (valuations
    /// and shared variables), edges in insertion order, and initial
    /// states. `FtKripke` has no `PartialEq`; the Debug rendering of
    /// these components is a faithful fingerprint.
    fn fingerprint(m: &FtKripke) -> String {
        let states: Vec<_> = m.state_ids().map(|s| m.state(s)).collect();
        let succ: Vec<_> = m.state_ids().map(|s| m.succ(s)).collect();
        format!("{:?}|{states:?}|{succ:?}", m.init_states())
    }

    /// Replicates the pipeline up to the pre-minimization model (the
    /// input `semantic_minimize` sees during synthesis).
    fn pre_minimization_model(problem: &mut SynthesisProblem) -> FtKripke {
        let roots = problem.closure_roots();
        let spec_formula = roots[0];
        let closure = Closure::build(&mut problem.arena, &problem.props, &roots);
        let fault_spec = FaultSpec {
            actions: problem.faults.clone(),
            tolerance_labels: problem.tolerance_label_sets(&closure),
        };
        let mut root_label = closure.empty_label();
        root_label.insert(closure.index_of(spec_formula).unwrap());
        let mut tableau = build(&closure, &problem.props, root_label, &fault_spec);
        apply_deletion_rules_mode(&mut tableau, &closure, problem.mode);
        assert!(tableau.alive(tableau.root()), "problem is synthesizable");
        let c0 = tableau
            .alive_succ(tableau.root(), |_| true)
            .map(|(_, c)| c)
            .next()
            .expect("alive root has an alive AND child");
        unravel_mode(&tableau, &closure, &problem.props, c0, problem.mode).model
    }

    /// Three-process mutex whose P1 faults are tolerated nonmasking and
    /// all others masking: its tolerance requirements are universal
    /// `AG` parts checked at perturbed sites.
    fn multitolerance_mutex3() -> SynthesisProblem {
        mutex::with_fail_stop_multitolerance(3, |f| {
            if f.name().contains("P1") {
                crate::Tolerance::Nonmasking
            } else {
                crate::Tolerance::Masking
            }
        })
    }

    #[test]
    fn merged_redirects_edges() {
        use ftsyn_kripke::State;
        let mut m = FtKripke::new();
        let mk = |bits: &[u32]| {
            State::new(PropSet::from_iter_with_capacity(
                4,
                bits.iter().map(|&b| ftsyn_ctl::PropId(b)),
            ))
        };
        let a = m.push_state(mk(&[0]));
        let b1 = m.push_state(mk(&[1]));
        let b2 = m.push_state(mk(&[1]));
        m.add_init(a);
        m.add_edge(a, TransKind::Proc(0), b1);
        m.add_edge(b1, TransKind::Proc(0), b2);
        m.add_edge(b2, TransKind::Proc(0), a);
        let (out, mapping) = merged(&m, b2, b1);
        assert_eq!(out.len(), 2);
        assert_eq!(mapping.len(), 3);
        assert_eq!(mapping[1], mapping[2], "b2 merged into b1");
        // b1 now has a self-loop (the b1→b2 edge redirected).
        let nb1 = out
            .state_ids()
            .find(|&s| out.state(s).props.contains(ftsyn_ctl::PropId(1)))
            .unwrap();
        assert!(out.succ(nb1).iter().any(|e| e.to == nb1));
    }

    /// The arithmetic `merged` must be byte-identical to the reference
    /// engine's map-based construction — on every candidate pair of a
    /// real pipeline model, not just a toy.
    #[test]
    fn fast_merged_is_byte_identical_to_reference_merged() {
        let mut problem = mutex::with_fail_stop(2, crate::Tolerance::Masking);
        let model = pre_minimization_model(&mut problem);
        let ids: Vec<StateId> = model.state_ids().collect();
        let mut pairs = 0;
        for (i, &a) in ids.iter().enumerate() {
            for &b in ids.iter().skip(i + 1).take(3) {
                let (fast, fast_map) = merged(&model, b, a);
                let (slow, slow_map) = reference::merged(&model, b, a);
                assert_eq!(fingerprint(&fast), fingerprint(&slow), "{b:?}->{a:?}");
                assert_eq!(fast_map, slow_map, "{b:?}->{a:?}");
                pairs += 1;
            }
        }
        assert!(pairs > 10, "enough pairs exercised: {pairs}");
    }

    #[test]
    fn minimization_keeps_the_model_correct_and_small() {
        let mut problem = mutex::with_fail_stop(2, crate::Tolerance::Masking);
        let solved = synthesize(&mut problem).unwrap_solved();
        // synthesize already minimizes; minimizing again is a fixpoint.
        let before = solved.model.len();
        let (again, mapping, profile) =
            semantic_minimize_profiled(&mut problem, solved.model.clone());
        assert_eq!(again.len(), before, "minimization is a fixpoint");
        assert_eq!(mapping.len(), before);
        assert!(verify_semantic(&mut problem, &again).ok());
        // On a fixpoint every candidate is tried once and rejected.
        assert_eq!(profile.merges, 0, "no merge survives on a fixpoint");
        assert!(profile.attempts > 0, "candidates were actually tried");
        // Every attempt is classified by exactly one decision path.
        assert_eq!(
            profile.full_checks + profile.carried,
            profile.attempts,
            "decision-path counters partition the attempts: {profile:?}"
        );
    }

    /// Minimization stays verification-guarded: the synthesized model is
    /// a greedy fixpoint, so *every* remaining same-(valuation, role)
    /// merge candidate must fail the semantic verification — none was
    /// left unmerged for any reason other than the guard rejecting it.
    /// Vacuity is ruled out by requiring that such candidates exist: the
    /// guard is load-bearing, not idle.
    #[test]
    fn every_remaining_merge_candidate_is_semantically_invalid() {
        let mut problem = mutex::with_fail_stop(2, crate::Tolerance::Masking);
        let solved = synthesize(&mut problem).unwrap_solved();
        let model = &solved.model;
        let roles = model.classify();
        let ids: Vec<_> = model.state_ids().collect();
        let mut candidates = 0;
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                // Same candidate classes as the minimizer: valuation
                // plus the Normal/non-Normal split.
                let normal =
                    |s: StateId| roles[s.index()] == ftsyn_kripke::StateRole::Normal;
                if model.state(a).props != model.state(b).props || normal(a) != normal(b) {
                    continue;
                }
                candidates += 1;
                let (cand, _) = merged(model, b, a);
                assert!(
                    !verify_semantic(&mut problem, &cand).ok(),
                    "merging {b:?} into {a:?} passes verification, so \
                     minimization should have taken it"
                );
            }
        }
        assert!(
            candidates > 0,
            "no same-valuation candidate pairs left — the guard was never exercised"
        );
    }

    /// The heart of the PR's correctness claim: on real pipeline models
    /// the fast engine commits the same merge sequence as the reference
    /// engine — byte-identical minimized model, identical mapping,
    /// identical attempt/merge counts — at 1, 2, and 8 threads.
    #[test]
    fn engine_matches_reference_on_pipeline_models() {
        type ProblemMaker = fn() -> SynthesisProblem;
        let problems: Vec<(&str, ProblemMaker)> = vec![
            ("mutex2-failstop", || {
                mutex::with_fail_stop(2, crate::Tolerance::Masking)
            }),
            ("mutex2-nonmasking", || {
                mutex::with_fail_stop(2, crate::Tolerance::Nonmasking)
            }),
            ("phil3", || mutex::dining_philosophers(3)),
            ("multitolerance-mutex3-P1-nonmasking", multitolerance_mutex3),
        ];
        for (name, mk) in problems {
            let mut problem = mk();
            let pre = pre_minimization_model(&mut problem);
            let (ref_model, ref_map, ref_profile) =
                semantic_minimize_reference(&mut problem, pre.clone());
            let ref_fp = fingerprint(&ref_model);
            for threads in [1, 2, 8] {
                let mut problem = mk();
                // Re-derive the same formulas on the fresh problem.
                let _ = pre_minimization_model(&mut problem);
                let (model, map, profile) =
                    semantic_minimize_with_threads(&mut problem, pre.clone(), threads);
                assert_eq!(
                    fingerprint(&model),
                    ref_fp,
                    "{name}: model diverges at {threads} threads"
                );
                assert_eq!(map, ref_map, "{name}: mapping diverges at {threads} threads");
                assert_eq!(
                    profile.attempts, ref_profile.attempts,
                    "{name}: attempts diverge at {threads} threads"
                );
                assert_eq!(
                    profile.merges, ref_profile.merges,
                    "{name}: merges diverge at {threads} threads"
                );
                assert_eq!(
                    profile.full_checks + profile.carried,
                    profile.attempts,
                    "{name}: decision-path counters partition the attempts"
                );
                if name == "phil3" {
                    assert!(
                        profile.carried > 0,
                        "{name}: no rejection carried across rounds: {profile:?}"
                    );
                }
                if name == "multitolerance-mutex3-P1-nonmasking" {
                    assert!(
                        profile.site_carried > 0,
                        "{name}: no rejection carried at a perturbed site: {profile:?}"
                    );
                }
            }
        }
    }

    /// Deterministic counters must not depend on the thread count even
    /// though speculation does: pin the exact slice the conformance
    /// layer compares.
    #[test]
    fn deterministic_counters_agree_across_thread_counts() {
        type ProblemMaker = fn() -> SynthesisProblem;
        let problems: Vec<(&str, ProblemMaker)> = vec![
            ("mutex2-failstop", || {
                mutex::with_fail_stop(2, crate::Tolerance::Masking)
            }),
            ("phil3", || mutex::dining_philosophers(3)),
            ("multitolerance-mutex3-P1-nonmasking", multitolerance_mutex3),
        ];
        for (name, mk) in problems {
            let mut problem = mk();
            let pre = pre_minimization_model(&mut problem);
            let (_, _, base) = semantic_minimize_with_threads(&mut problem, pre.clone(), 1);
            for threads in [2, 8] {
                let mut problem = mk();
                let _ = pre_minimization_model(&mut problem);
                let (_, _, p) =
                    semantic_minimize_with_threads(&mut problem, pre.clone(), threads);
                assert_eq!(
                    p.deterministic_counters(),
                    base.deterministic_counters(),
                    "{name}: threads={threads}"
                );
                assert_eq!(p.threads, threads);
            }
            assert_eq!(base.parallel_batches, 0, "sequential scans claim no chunks");
            assert_eq!(base.speculative_attempts, 0, "sequential scans never speculate");
        }
    }

    /// Governed runs abort at the same point as the reference engine:
    /// same partial merge count, exactly `cap` attempts, at every
    /// thread count (the governor determinism contract).
    #[test]
    fn governed_cap_abort_matches_reference() {
        let mk = || mutex::with_fail_stop(2, crate::Tolerance::Masking);
        let mut problem = mk();
        let pre = pre_minimization_model(&mut problem);
        // Uncapped attempt count, to pick caps on both sides of rounds.
        let (_, _, full) = semantic_minimize_reference(&mut mk(), pre.clone());
        assert!(full.attempts > 4, "fixture large enough: {full:?}");
        for cap in [1, 3, full.attempts - 1] {
            let gov = ftsyn_tableau::Governor::with_budget(Budget {
                max_minimize_attempts: Some(cap),
                ..Budget::default()
            });
            let ref_abort = semantic_minimize_reference_governed(&mut mk(), pre.clone(), &gov)
                .expect_err("cap below total attempts must abort");
            for threads in [1, 2, 8] {
                let gov = ftsyn_tableau::Governor::with_budget(Budget {
                    max_minimize_attempts: Some(cap),
                    ..Budget::default()
                });
                let abort =
                    semantic_minimize_governed(&mut mk(), pre.clone(), threads, &gov)
                        .expect_err("cap below total attempts must abort");
                assert_eq!(
                    format!("{}", abort.reason),
                    format!("{}", ref_abort.reason),
                    "cap={cap} threads={threads}"
                );
                assert_eq!(
                    abort.profile.attempts, ref_abort.profile.attempts,
                    "cap={cap} threads={threads}"
                );
                assert_eq!(abort.profile.attempts, cap, "cap is exact");
                assert_eq!(
                    abort.profile.merges, ref_abort.profile.merges,
                    "cap={cap} threads={threads}"
                );
            }
        }
        // A cap at or above the total attempt count never trips.
        let gov = ftsyn_tableau::Governor::with_budget(Budget {
            max_minimize_attempts: Some(full.attempts),
            ..Budget::default()
        });
        let (_, _, p) = semantic_minimize_governed(&mut mk(), pre, 2, &gov)
            .expect("exact cap admits the full run");
        assert_eq!(p.attempts, full.attempts);
        assert_eq!(p.merges, full.merges);
    }
}
