//! An interleaving interpreter: regenerates the global-state transition
//! structure of a program, optionally together with the fault
//! transitions of a fault specification.
//!
//! This inverts the extraction step of the synthesis method: integration
//! tests run the interpreter on an extracted program and compare the
//! resulting structure with the synthesized model (the argument of
//! Corollary 7.1 that "execution of the extracted program P does indeed
//! generate M_F").

use crate::action::{FaultAction, SharedCorruption};
use crate::expr::BoolExpr;
use crate::program::Program;
use ftsyn_ctl::{Owner, PropTable};
use ftsyn_kripke::{FtKripke, PropSet, State, StateId, TransKind};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::rc::Rc;

#[cfg(any(test, feature = "slow-reference"))]
pub mod reference;

/// A runtime configuration: local-state indices plus shared values.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Config {
    /// Current local-state index of each process.
    pub locals: Vec<usize>,
    /// Current shared-variable values.
    pub shared: Vec<u32>,
}

/// Errors during exploration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExploreError {
    /// A fault produced a valuation that does not correspond to any local
    /// state of some process (fault-closure violation).
    UnmappableFaultOutcome {
        /// The offending fault action name.
        action: String,
        /// Index of the process whose local state could not be resolved.
        process: usize,
    },
    /// Two distinct configurations produced the same labeled state: the
    /// program lacks shared variables to disambiguate them.
    AmbiguousState,
    /// The state-space exceeded the exploration bound.
    StateSpaceTooLarge(usize),
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::UnmappableFaultOutcome { action, process } => write!(
                f,
                "fault `{action}` perturbed process {process} into a valuation matching no local state"
            ),
            ExploreError::AmbiguousState => {
                write!(f, "two configurations share one labeled state")
            }
            ExploreError::StateSpaceTooLarge(n) => {
                write!(f, "state space exceeded the bound of {n} states")
            }
        }
    }
}

impl std::error::Error for ExploreError {}

/// Upper bound on explored states (defensive; the synthesized systems in
/// this repository are far smaller).
const MAX_STATES: usize = 1_000_000;

/// Result of exploring a program: the generated structure plus the
/// configuration of every state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Exploration {
    /// The generated fault-tolerant Kripke structure.
    pub kripke: FtKripke,
    /// Configuration corresponding to each state id.
    pub configs: Vec<Config>,
}

/// Explores the reachable global-state space of `program` under
/// nondeterministic interleaving, adding fault transitions for every
/// enabled action in `faults`.
///
/// `props` supplies the proposition partition: after a fault perturbs the
/// valuation, each process's new local state is resolved by matching the
/// perturbed valuation restricted to that process's propositions.
///
/// A configuration is handled as a pair of dense ids, one for its locals
/// tuple and one for its shared vector, each interned once. Everything
/// that depends on the locals alone — the valuation, the arcs leaving
/// each local state with their guards specialized to that valuation, and
/// each fault action's enabledness and resolved outcome locals — is
/// computed once per distinct locals tuple; shared-vector assignments
/// and corruptions are memoized per (arc or action, shared id). The
/// result is the one the configuration-at-a-time exploration produces:
/// the same states in the same order, the same edges in the same order,
/// and the same error at the same point (see DESIGN.md §11).
///
/// # Errors
///
/// See [`ExploreError`].
pub fn explore(
    program: &Program,
    faults: &[FaultAction],
    props: &PropTable,
) -> Result<Exploration, ExploreError> {
    let mut tables = Tables::new(program, faults, props);
    let mut graph = Graph::default();

    let init_l = tables.intern_locals(&program.init_locals);
    let init_s = tables.intern_shared(&program.init_shared);
    let (init_id, _) = graph.state(&tables, init_l, init_s)?;
    graph.kripke.add_init(init_id);
    let mut work = vec![init_id];

    while let Some(sid) = work.pop() {
        let (l, s) = graph.key[sid.index()];
        let moves = tables.moves(l);

        // Program transitions: any enabled arc of any process.
        for m in &moves.arcs {
            if let Some(guard) = &m.guard {
                if !guard.eval(&moves.valuation, &tables.shared[s as usize]) {
                    continue;
                }
            }
            let next = tables.assign(m.process, m.arc, s);
            let (tid, fresh) = graph.state(&tables, m.to, next)?;
            if fresh {
                work.push(tid);
            }
            graph.kripke.add_edge(sid, TransKind::Proc(m.process), tid);
        }

        // Fault transitions, with the shared-variable corruption
        // branches of Section 5.3.
        for f in &moves.faults {
            let mut branches = None;
            for outcome in &f.outcomes {
                let locals = match *outcome {
                    Ok(locals) => locals,
                    Err(process) => {
                        return Err(ExploreError::UnmappableFaultOutcome {
                            action: faults[f.action].name().to_owned(),
                            process,
                        })
                    }
                };
                let b = *branches.get_or_insert_with(|| tables.corrupt(f.action, s));
                for &next in &tables.branches[b] {
                    let (tid, fresh) = graph.state(&tables, locals, next)?;
                    if fresh {
                        work.push(tid);
                    }
                    graph.kripke.add_edge(sid, TransKind::Fault(f.action), tid);
                }
            }
        }
    }

    graph.kripke.reindex();
    Ok(Exploration {
        kripke: graph.kripke,
        configs: graph.configs,
    })
}

/// The next dense id of a table holding `n` entries.
fn dense(n: usize) -> u32 {
    u32::try_from(n).expect("interned ids fit in u32")
}

/// An arc leaving one of the locals tuple's local states.
struct ArcMove {
    process: usize,
    /// Index of the arc within its process.
    arc: usize,
    /// Locals id after the move.
    to: u32,
    /// The guard specialized to the tuple's valuation; `None` when it is
    /// true outright (arcs whose guard is false there are dropped).
    guard: Option<BoolExpr>,
}

/// A fault action enabled in the locals tuple's valuation.
struct FaultMove {
    action: usize,
    /// Per outcome, in `FaultAction::outcomes` order: the resolved locals
    /// id, or the first process whose local state it cannot resolve (the
    /// list ends there, as exploration stops at that outcome).
    outcomes: Vec<Result<u32, usize>>,
}

/// Everything that depends on a locals tuple alone.
struct Moves {
    valuation: PropSet,
    arcs: Vec<ArcMove>,
    faults: Vec<FaultMove>,
}

/// The interned locals tuples, valuations and shared vectors, the move
/// table and the shared-vector memos.
struct Tables<'a> {
    program: &'a Program,
    faults: &'a [FaultAction],
    num_props: usize,
    /// Per-process proposition masks for fault-outcome mapping.
    proc_masks: Vec<PropSet>,
    locals: Vec<Vec<usize>>,
    locals_ids: HashMap<Vec<usize>, u32>,
    /// Valuation id of each locals id.
    valuation_of: Vec<u32>,
    valuations: Vec<PropSet>,
    valuation_ids: HashMap<PropSet, u32>,
    shared: Vec<Vec<u32>>,
    shared_ids: HashMap<Vec<u32>, u32>,
    /// Move table by locals id, filled when a state with that tuple is
    /// first expanded.
    moves: Vec<Option<Rc<Moves>>>,
    /// (process, arc, shared id) → shared id after the arc's assignment.
    assigned: HashMap<(usize, usize, u32), u32>,
    /// (action, shared id) → index into `branches`.
    corrupted: HashMap<(usize, u32), usize>,
    /// Corruption branch lists, as shared ids.
    branches: Vec<Vec<u32>>,
}

impl<'a> Tables<'a> {
    fn new(program: &'a Program, faults: &'a [FaultAction], props: &PropTable) -> Tables<'a> {
        let proc_masks = (0..program.processes.len())
            .map(|i| {
                PropSet::from_iter_with_capacity(
                    props.len(),
                    props
                        .iter()
                        .filter(|&p| props.owner(p) == Owner::Process(i)),
                )
            })
            .collect();
        Tables {
            program,
            faults,
            num_props: props.len(),
            proc_masks,
            locals: Vec::new(),
            locals_ids: HashMap::new(),
            valuation_of: Vec::new(),
            valuations: Vec::new(),
            valuation_ids: HashMap::new(),
            shared: Vec::new(),
            shared_ids: HashMap::new(),
            moves: Vec::new(),
            assigned: HashMap::new(),
            corrupted: HashMap::new(),
            branches: Vec::new(),
        }
    }

    fn intern_locals(&mut self, locals: &[usize]) -> u32 {
        if let Some(&id) = self.locals_ids.get(locals) {
            return id;
        }
        let valuation = self.program.valuation(locals);
        let v = match self.valuation_ids.get(&valuation) {
            Some(&v) => v,
            None => {
                let v = dense(self.valuations.len());
                self.valuation_ids.insert(valuation.clone(), v);
                self.valuations.push(valuation);
                v
            }
        };
        let id = dense(self.locals.len());
        self.locals_ids.insert(locals.to_vec(), id);
        self.locals.push(locals.to_vec());
        self.valuation_of.push(v);
        self.moves.push(None);
        id
    }

    fn intern_shared(&mut self, shared: &[u32]) -> u32 {
        if let Some(&id) = self.shared_ids.get(shared) {
            return id;
        }
        let id = dense(self.shared.len());
        self.shared_ids.insert(shared.to_vec(), id);
        self.shared.push(shared.to_vec());
        id
    }

    /// The move table of locals id `l`, built on first use.
    fn moves(&mut self, l: u32) -> Rc<Moves> {
        if let Some(m) = &self.moves[l as usize] {
            return Rc::clone(m);
        }
        let program = self.program;
        let locals = self.locals[l as usize].clone();
        let valuation = self.valuations[self.valuation_of[l as usize] as usize].clone();
        let mut arcs = Vec::new();
        for (pi, proc) in program.processes.iter().enumerate() {
            for (ai, arc) in proc.arcs.iter().enumerate() {
                if arc.from != locals[pi] {
                    continue;
                }
                let guard = match arc.guard.specialize(&valuation) {
                    BoolExpr::Const(false) => continue,
                    BoolExpr::Const(true) => None,
                    residual => Some(residual),
                };
                let mut next = locals.clone();
                next[pi] = arc.to;
                arcs.push(ArcMove {
                    process: pi,
                    arc: ai,
                    to: self.intern_locals(&next),
                    guard,
                });
            }
        }
        let mut faults = Vec::new();
        for (fi, action) in self.faults.iter().enumerate() {
            if !action.enabled(&valuation) {
                continue;
            }
            let mut outcomes = Vec::new();
            'outcomes: for outcome in action.outcomes(&valuation, self.num_props) {
                // Resolve each process's new local state.
                let mut next = Vec::with_capacity(program.processes.len());
                for (pi, proc) in program.processes.iter().enumerate() {
                    match proc.state_by_props(&outcome.intersect(&self.proc_masks[pi])) {
                        Some(li) => next.push(li),
                        None => {
                            outcomes.push(Err(pi));
                            break 'outcomes;
                        }
                    }
                }
                outcomes.push(Ok(self.intern_locals(&next)));
            }
            faults.push(FaultMove {
                action: fi,
                outcomes,
            });
        }
        let m = Rc::new(Moves {
            valuation,
            arcs,
            faults,
        });
        self.moves[l as usize] = Some(Rc::clone(&m));
        m
    }

    /// The shared id after arc `arc` of process `pi` fires from shared
    /// id `s`.
    fn assign(&mut self, pi: usize, arc: usize, s: u32) -> u32 {
        let key = (pi, arc, s);
        if let Some(&next) = self.assigned.get(&key) {
            return next;
        }
        let mut next = self.shared[s as usize].clone();
        for &(v, k) in &self.program.processes[pi].arcs[arc].assigns {
            if v < next.len() {
                next[v] = k;
            }
        }
        let next = self.intern_shared(&next);
        self.assigned.insert(key, next);
        next
    }

    /// Index into `branches` of fault action `action`'s corruption
    /// branches from shared id `s` ([`corrupt_branches`], interned).
    fn corrupt(&mut self, action: usize, s: u32) -> usize {
        let key = (action, s);
        if let Some(&b) = self.corrupted.get(&key) {
            return b;
        }
        let ids = corrupt_branches(self.program, &self.shared[s as usize], &self.faults[action])
            .iter()
            .map(|branch| self.intern_shared(branch))
            .collect();
        let b = self.branches.len();
        self.branches.push(ids);
        self.corrupted.insert(key, b);
        b
    }
}

/// The structure under construction, with the configuration and state
/// indexes of the explored pairs.
#[derive(Default)]
struct Graph {
    kripke: FtKripke,
    configs: Vec<Config>,
    /// (locals id, shared id) of each state id.
    key: Vec<(u32, u32)>,
    /// (locals id, shared id) → state id.
    by_config: HashMap<(u32, u32), StateId>,
    /// (valuation id, shared id) of every state: the labeled states.
    labeled: HashSet<(u32, u32)>,
}

impl Graph {
    /// The state of configuration `(l, s)`, created if new (then `true`).
    fn state(&mut self, t: &Tables<'_>, l: u32, s: u32) -> Result<(StateId, bool), ExploreError> {
        if let Some(&id) = self.by_config.get(&(l, s)) {
            return Ok((id, false));
        }
        let v = t.valuation_of[l as usize];
        if !self.labeled.insert((v, s)) {
            return Err(ExploreError::AmbiguousState);
        }
        let shared = &t.shared[s as usize];
        // Distinct by the `labeled` test; the index is built at the end.
        let id = self.kripke.push_state(State {
            props: t.valuations[v as usize].clone(),
            shared: shared.clone(),
        });
        self.by_config.insert((l, s), id);
        self.key.push((l, s));
        self.configs.push(Config {
            locals: t.locals[l as usize].clone(),
            shared: shared.clone(),
        });
        if self.configs.len() > MAX_STATES {
            return Err(ExploreError::StateSpaceTooLarge(MAX_STATES));
        }
        Ok((id, true))
    }
}

/// All shared-value vectors resulting from an action's corruption list,
/// with out-of-domain writes reinterpreted as the default value `1`.
///
/// Public because extraction's displacement analysis (core
/// `extract::refine_guards`) must predict exactly the shared vectors
/// this interpreter can produce under faults.
pub fn corrupt_branches(program: &Program, shared: &[u32], action: &FaultAction) -> Vec<Vec<u32>> {
    let mut branches = vec![shared.to_vec()];
    for &(var, ref how) in action.corrupt_shared() {
        if var >= shared.len() {
            continue;
        }
        match how {
            SharedCorruption::Value(k) => {
                for b in &mut branches {
                    b[var] = program.clamp_shared(var, *k);
                }
            }
            SharedCorruption::Arbitrary => {
                let dom = program.shared[var].domain;
                let mut next = Vec::with_capacity(branches.len() * dom as usize);
                for b in &branches {
                    for k in 1..=dom {
                        let mut nb = b.clone();
                        nb[var] = k;
                        next.push(nb);
                    }
                }
                branches = next;
            }
        }
    }
    branches.dedup();
    branches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::PropAssign;
    use crate::expr::BoolExpr;
    use crate::program::{LocalState, ProcArc, Process, SharedVar};
    use ftsyn_ctl::PropId;

    /// A 2-process token ring: each process alternates a/b; P2 may move
    /// only when P1 is in b (guard), demonstrating guards.
    fn ring() -> (Program, PropTable) {
        let mut t = PropTable::new();
        let a1 = t.add("a1", Owner::Process(0)).unwrap();
        let b1 = t.add("b1", Owner::Process(0)).unwrap();
        let a2 = t.add("a2", Owner::Process(1)).unwrap();
        let b2 = t.add("b2", Owner::Process(1)).unwrap();
        let mk = |p: PropId| PropSet::from_iter_with_capacity(4, [p]);
        let p1 = Process {
            index: 0,
            states: vec![
                LocalState { name: "a1".into(), props: mk(a1) },
                LocalState { name: "b1".into(), props: mk(b1) },
            ],
            arcs: vec![
                ProcArc { from: 0, to: 1, guard: BoolExpr::tru(), assigns: vec![] },
                ProcArc { from: 1, to: 0, guard: BoolExpr::tru(), assigns: vec![] },
            ],
        };
        let p2 = Process {
            index: 1,
            states: vec![
                LocalState { name: "a2".into(), props: mk(a2) },
                LocalState { name: "b2".into(), props: mk(b2) },
            ],
            arcs: vec![ProcArc {
                from: 0,
                to: 1,
                guard: BoolExpr::Prop(b1),
                assigns: vec![],
            }],
        };
        let prog = Program {
            processes: vec![p1, p2],
            shared: vec![],
            init_locals: vec![0, 0],
            init_shared: vec![],
            num_props: 4,
        };
        (prog, t)
    }

    #[test]
    fn explores_reachable_states_only() {
        let (prog, t) = ring();
        let ex = explore(&prog, &[], &t).unwrap();
        // Reachable: (a1,a2),(b1,a2),(b1,b2),(a1,b2) = 4.
        assert_eq!(ex.kripke.len(), 4);
        assert_eq!(ex.kripke.fault_edge_count(), 0);
    }

    #[test]
    fn guards_are_respected() {
        let (prog, t) = ring();
        let ex = explore(&prog, &[], &t).unwrap();
        // In the initial state (a1,a2), P2 must not be able to move.
        let init = ex.kripke.init_states()[0];
        let p2_moves: Vec<_> = ex
            .kripke
            .succ(init)
            .iter()
            .filter(|e| e.kind == TransKind::Proc(1))
            .collect();
        assert!(p2_moves.is_empty());
    }

    #[test]
    fn fault_transitions_added_and_mapped() {
        let (prog, t) = ring();
        let b1 = t.id("b1").unwrap();
        let a1 = t.id("a1").unwrap();
        // Fault: reset P1 to local state a1.
        let f = FaultAction::new(
            "reset-P1",
            BoolExpr::Prop(b1),
            vec![(b1, PropAssign::False), (a1, PropAssign::True)],
        )
        .unwrap();
        let ex = explore(&prog, &[f], &t).unwrap();
        assert!(ex.kripke.fault_edge_count() > 0);
        // Every fault edge's target is a valid state (mapped).
        for s in ex.kripke.state_ids() {
            for e in ex.kripke.succ(s) {
                assert!(e.to.index() < ex.kripke.len());
            }
        }
    }

    #[test]
    fn unmappable_fault_is_an_error() {
        let (prog, t) = ring();
        let a1 = t.id("a1").unwrap();
        let b1 = t.id("b1").unwrap();
        // Fault that sets both a1 and b1: no local state matches.
        let f = FaultAction::new(
            "both",
            BoolExpr::tru(),
            vec![(a1, PropAssign::True), (b1, PropAssign::True)],
        )
        .unwrap();
        let err = explore(&prog, &[f], &t).unwrap_err();
        assert!(matches!(err, ExploreError::UnmappableFaultOutcome { .. }));
    }

    #[test]
    fn shared_corruption_branches_within_domain() {
        let (mut prog, t) = ring();
        prog.shared.push(SharedVar { name: "x".into(), domain: 3 });
        prog.init_shared.push(1);
        let a1 = t.id("a1").unwrap();
        let f = FaultAction::new("corrupt-x", BoolExpr::Prop(a1), vec![])
            .unwrap()
            .with_shared_corruption(vec![(0, SharedCorruption::Arbitrary)]);
        let ex = explore(&prog, &[f], &t).unwrap();
        // From the initial state the fault yields x ∈ {1,2,3}.
        let init = ex.kripke.init_states()[0];
        let fault_targets: Vec<u32> = ex
            .kripke
            .succ(init)
            .iter()
            .filter(|e| e.kind.is_fault())
            .map(|e| ex.kripke.state(e.to).shared[0])
            .collect();
        let mut sorted = fault_targets.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, vec![1, 2, 3]);
    }

    #[test]
    fn out_of_domain_write_defaults_to_one() {
        let (mut prog, t) = ring();
        prog.shared.push(SharedVar { name: "x".into(), domain: 2 });
        prog.init_shared.push(2);
        let f = FaultAction::new("smash-x", BoolExpr::tru(), vec![])
            .unwrap()
            .with_shared_corruption(vec![(0, SharedCorruption::Value(77))]);
        let ex = explore(&prog, &[f], &t).unwrap();
        let init = ex.kripke.init_states()[0];
        let target = ex
            .kripke
            .succ(init)
            .iter()
            .find(|e| e.kind.is_fault())
            .unwrap()
            .to;
        assert_eq!(ex.kripke.state(target).shared[0], 1);
    }
}

/// The interned explorer against the configuration-keyed one
/// ([`reference::explore`]) on seeded random programs: shared variables
/// with out-of-range reads and writes, `Value`/`Arbitrary` corruption
/// (out-of-domain values included), nondeterministic fault outcomes,
/// outcomes no local state matches, and local states with equal
/// valuations (ambiguous states).
#[cfg(test)]
mod differential {
    use super::*;
    use crate::action::PropAssign;
    use crate::program::{LocalState, ProcArc, Process, SharedVar};
    use ftsyn_ctl::PropId;
    use ftsyn_prng::XorShift64;

    /// A random guard; `shared = None` draws no shared-variable tests.
    fn guard(
        rng: &mut XorShift64,
        props: &[PropId],
        shared: Option<usize>,
        depth: usize,
    ) -> BoolExpr {
        let kind = if depth == 0 {
            rng.below(3)
        } else {
            rng.below(6)
        };
        match (kind, shared) {
            (0, _) => BoolExpr::Const(rng.chance(0.8)),
            (2, Some(vars)) => BoolExpr::VarEq(rng.below(vars + 1), rng.below(4) as u32),
            (1 | 2, _) => BoolExpr::Prop(*rng.choose(props).expect("props")),
            (3, _) => BoolExpr::Not(Box::new(guard(rng, props, shared, depth - 1))),
            _ => {
                let es = (0..rng.below(3))
                    .map(|_| guard(rng, props, shared, depth - 1))
                    .collect();
                if kind == 4 {
                    BoolExpr::And(es)
                } else {
                    BoolExpr::Or(es)
                }
            }
        }
    }

    fn random_case(rng: &mut XorShift64) -> (Program, Vec<FaultAction>, PropTable) {
        let mut table = PropTable::new();
        let owned: Vec<Vec<PropId>> = (0..rng.range(1, 4))
            .map(|i| {
                (0..rng.range(2, 4))
                    .map(|j| table.add(format!("p{i}_{j}"), Owner::Process(i)).unwrap())
                    .collect()
            })
            .collect();
        let all: Vec<PropId> = owned.iter().flatten().copied().collect();
        let n = table.len();
        let shared: Vec<SharedVar> = (0..rng.below(3))
            .map(|v| SharedVar {
                name: format!("x{v}"),
                domain: rng.range(1, 4) as u32,
            })
            .collect();
        let vars = shared.len();
        let processes: Vec<Process> = owned
            .iter()
            .enumerate()
            .map(|(i, mine)| {
                // Random valuations, so two local states may share one.
                let states: Vec<LocalState> = (0..rng.range(2, 5))
                    .map(|k| LocalState {
                        name: format!("s{i}_{k}"),
                        props: PropSet::from_iter_with_capacity(
                            n,
                            mine.iter().copied().filter(|_| rng.chance(0.5)),
                        ),
                    })
                    .collect();
                let arcs = (0..rng.below(2 * states.len() + 1))
                    .map(|_| ProcArc {
                        from: rng.below(states.len()),
                        to: rng.below(states.len()),
                        guard: guard(rng, &all, Some(vars), 3),
                        assigns: (0..rng.below(3))
                            .map(|_| (rng.below(vars + 1), rng.range(1, 4) as u32))
                            .collect(),
                    })
                    .collect();
                Process {
                    index: i,
                    states,
                    arcs,
                }
            })
            .collect();
        let faults = (0..rng.below(4))
            .map(|a| {
                let victim = rng.below(owned.len());
                let mut assigns: Vec<(PropId, PropAssign)> = Vec::new();
                if rng.chance(0.5) {
                    // Move the victim to one of its local states: always
                    // mappable.
                    let states = &processes[victim].states;
                    let target = &states[rng.below(states.len())].props;
                    for &p in &owned[victim] {
                        let how = if target.contains(p) {
                            PropAssign::True
                        } else {
                            PropAssign::False
                        };
                        assigns.push((p, how));
                    }
                } else {
                    for &p in &owned[victim] {
                        if rng.chance(0.6) {
                            let how = [PropAssign::True, PropAssign::False, PropAssign::NonDet];
                            assigns.push((p, *rng.choose(&how).expect("nonempty")));
                        }
                    }
                }
                let corrupt = (0..rng.below(3))
                    .map(|_| {
                        let how = if rng.chance(0.5) {
                            SharedCorruption::Arbitrary
                        } else {
                            SharedCorruption::Value(rng.below(5) as u32)
                        };
                        (rng.below(vars + 1), how)
                    })
                    .collect();
                FaultAction::new(format!("f{a}"), guard(rng, &all, None, 2), assigns)
                    .unwrap()
                    .with_shared_corruption(corrupt)
            })
            .collect();
        let program = Program {
            init_locals: processes
                .iter()
                .map(|p| rng.below(p.states.len()))
                .collect(),
            init_shared: shared
                .iter()
                .map(|v| rng.range(1, v.domain as usize + 1) as u32)
                .collect(),
            processes,
            shared,
            num_props: n,
        };
        (program, faults, table)
    }

    #[test]
    fn explore_matches_the_reference_explorer() {
        let mut rng = XorShift64::new(0xE4B_0001);
        let (mut ok, mut unmappable, mut ambiguous, mut fault_edges) = (0, 0, 0, 0);
        for case in 0..600 {
            let (program, faults, table) = random_case(&mut rng);
            let fast = explore(&program, &faults, &table);
            assert_eq!(
                fast,
                reference::explore(&program, &faults, &table),
                "case {case}"
            );
            match fast {
                Ok(ex) => {
                    ok += 1;
                    fault_edges += ex.kripke.fault_edge_count();
                }
                Err(ExploreError::UnmappableFaultOutcome { .. }) => unmappable += 1,
                Err(ExploreError::AmbiguousState) => ambiguous += 1,
                Err(ExploreError::StateSpaceTooLarge(_)) => unreachable!("small programs"),
            }
        }
        assert!(
            ok >= 50 && unmappable >= 50 && ambiguous >= 50,
            "{ok} ok, {unmappable} unmappable, {ambiguous} ambiguous"
        );
        assert!(fault_edges >= 300, "{fault_edges} fault edges");
    }
}
