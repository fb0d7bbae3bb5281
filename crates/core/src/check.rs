//! Model checking a *given* program against a fault-tolerance
//! specification.
//!
//! Section 2 of the paper: "One of the contributions of this paper is
//! the definition of a formal model of faults within the model-theoretic
//! setting, which enables mechanical reasoning about programs,
//! specifically, synthesis of a program from a specification (our topic
//! in this paper) and **model-checking a program against a
//! specification** (a topic we leave to another occasion, but certainly
//! one that our framework can address)." This module addresses it: a
//! hand-written (or externally synthesized) guarded-command program is
//! executed by the interpreter under the fault actions, and the
//! resulting fault-tolerant structure is checked against the
//! requirements of Section 3 — exactly the conditions the synthesizer
//! guarantees by construction.

use crate::problem::SynthesisProblem;
use crate::verify::{verify_semantic, Verification};
use ftsyn_guarded::interp::{explore, ExploreError};
use ftsyn_guarded::Program;
use ftsyn_kripke::FtKripke;
use std::fmt;

/// The result of checking a program: the generated structure plus the
/// verification verdicts.
#[derive(Debug)]
pub struct CheckReport {
    /// The global-state structure the program generates (with fault
    /// transitions).
    pub model: FtKripke,
    /// Verdicts: spec at the initial state under the problem's
    /// satisfaction relation, tolerance labels at perturbed states,
    /// fault closure.
    pub verification: Verification,
}

impl CheckReport {
    /// Whether the program is `TOL`-tolerant for the specification
    /// (all three requirements of Section 3 hold).
    pub fn tolerant(&self) -> bool {
        self.verification.ok()
    }
}

/// Errors while checking a program.
#[derive(Debug)]
pub enum CheckError {
    /// The interpreter could not execute the program (e.g. a fault
    /// produced a valuation matching no local state — the program does
    /// not even represent the fault class).
    Exploration(ExploreError),
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Exploration(e) => write!(f, "cannot execute the program: {e}"),
        }
    }
}

impl std::error::Error for CheckError {}

/// Model-checks `program` against `problem`'s specification, fault
/// actions and tolerance requirement.
///
/// The program's propositions must be those of `problem.props` (the
/// usual setup: build the problem, then write — or synthesize — the
/// program over the same table).
///
/// # Errors
///
/// Returns [`CheckError::Exploration`] when the program cannot even be
/// executed under the fault actions.
pub fn check_program(
    problem: &mut SynthesisProblem,
    program: &Program,
) -> Result<CheckReport, CheckError> {
    let ex = explore(program, &problem.faults, &problem.props)
        .map_err(CheckError::Exploration)?;
    let verification = verify_semantic(problem, &ex.kripke);
    Ok(CheckReport {
        model: ex.kripke,
        verification,
    })
}

/// Cross-checks the production explorer and CTL checker against their
/// reference oracles on `program`: both explorers must return the same
/// `Result` ([`same_exploration`]), and on the explored structure both
/// checkers must compute the same satisfaction vector for every
/// subformula of the specification and of every tolerance label in use,
/// under the problem's semantics. Returns the number of explored states
/// (0 when exploration failed, identically, in both).
///
/// # Errors
///
/// Describes the first difference found.
#[cfg(feature = "slow-reference")]
pub fn cross_check_kernels(
    problem: &mut SynthesisProblem,
    program: &Program,
) -> Result<usize, String> {
    use ftsyn_ctl::Formula;
    use ftsyn_kripke::{reference, Checker};

    let Ok(ex) = same_exploration(program, &problem.faults, &problem.props)? else {
        return Ok(0);
    };
    let mut roots = vec![problem.spec.formula(&mut problem.arena)];
    for tol in problem.tolerance.distinct() {
        roots.extend(problem.label_tol_formulas(tol));
    }
    let arena = &problem.arena;
    // Every subformula once, children first.
    let mut seen = vec![false; arena.len()];
    let mut order = Vec::new();
    let mut stack: Vec<(ftsyn_ctl::FormulaId, bool)> = roots.iter().map(|&f| (f, false)).collect();
    while let Some((f, expanded)) = stack.pop() {
        if expanded {
            order.push(f);
            continue;
        }
        if std::mem::replace(&mut seen[f.index()], true) {
            continue;
        }
        stack.push((f, true));
        match arena.get(f) {
            Formula::True | Formula::False | Formula::Prop(_) | Formula::NegProp(_) => {}
            Formula::Ax(_, g) | Formula::Ex(_, g) => stack.push((g, false)),
            Formula::And(a, b)
            | Formula::Or(a, b)
            | Formula::Au(a, b)
            | Formula::Eu(a, b)
            | Formula::Aw(a, b)
            | Formula::Ew(a, b) => stack.extend([(a, false), (b, false)]),
        }
    }
    let semantics = crate::verify::semantics_of(problem.mode);
    let mut ck = Checker::new(&ex.kripke, semantics);
    let mut rk = reference::Checker::new(&ex.kripke, semantics);
    for f in order {
        if ck.eval(arena, f) != rk.eval(arena, f) {
            return Err(format!(
                "checkers disagree on `{}` over {} explored states",
                ftsyn_ctl::print::render(arena, &problem.props, f),
                ex.kripke.len()
            ));
        }
    }
    if ck.dead_end_free() != rk.dead_end_free() {
        return Err("checkers disagree on dead-end freedom".into());
    }
    Ok(ex.kripke.len())
}

/// Explores `program` with both the production explorer and the
/// reference one and returns their common result.
///
/// # Errors
///
/// Describes the first difference: a state count, the initial states, or
/// the first state whose configuration, content, successor list or
/// predecessor list differs, else the error or the interning index.
#[cfg(feature = "slow-reference")]
pub fn same_exploration(
    program: &Program,
    faults: &[ftsyn_guarded::FaultAction],
    props: &ftsyn_ctl::PropTable,
) -> Result<Result<ftsyn_guarded::interp::Exploration, ExploreError>, String> {
    let fast = explore(program, faults, props);
    let slow = ftsyn_guarded::interp::reference::explore(program, faults, props);
    if let (Ok(a), Ok(b)) = (&fast, &slow) {
        let (ka, kb) = (&a.kripke, &b.kripke);
        if ka.len() != kb.len() {
            return Err(format!(
                "explorers disagree: {} vs {} states",
                ka.len(),
                kb.len()
            ));
        }
        if ka.init_states() != kb.init_states() {
            return Err("explorers disagree on the initial states".into());
        }
        for s in ka.state_ids() {
            let what = if a.configs[s.index()] != b.configs[s.index()] {
                "configuration"
            } else if ka.state(s) != kb.state(s) {
                "labeled state"
            } else if ka.succ(s) != kb.succ(s) {
                "successors"
            } else if ka.pred(s) != kb.pred(s) {
                "predecessors"
            } else {
                continue;
            };
            return Err(format!("explorers disagree on the {what} of state {s:?}"));
        }
    }
    match (&fast, &slow) {
        (Ok(a), Ok(b)) if a != b => Err("explorers disagree on the interning index".into()),
        (Err(a), Err(b)) if a != b => Err(format!("explorers disagree: `{a}` vs `{b}`")),
        (Ok(_), Err(e)) | (Err(e), Ok(_)) => Err(format!("only one explorer failed: `{e}`")),
        _ => Ok(fast),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::mutex;
    use crate::synthesize;
    use crate::Tolerance;
    use ftsyn_guarded::{BoolExpr, LocalState, ProcArc, Process};
    use ftsyn_kripke::PropSet;

    #[test]
    fn synthesized_program_checks_out() {
        let mut problem = mutex::with_fail_stop(2, Tolerance::Masking);
        let s = synthesize(&mut problem).unwrap_solved();
        let report = check_program(&mut problem, &s.program).expect("executable");
        assert!(report.tolerant(), "{:?}", report.verification.failures);
    }

    /// A hand-written "mutex" that ignores the other process entirely:
    /// the checker must reject it (mutual exclusion is violated).
    #[test]
    fn broken_hand_written_program_is_rejected() {
        let mut problem = mutex::fault_free(2);
        let n = problem.props.len();
        let mk_proc = |i: usize, names: [&str; 3], props: &ftsyn_ctl::PropTable| {
            let ids: Vec<_> = names
                .iter()
                .map(|nm| props.id(nm).unwrap())
                .collect();
            Process {
                index: i,
                states: ids
                    .iter()
                    .zip(names.iter())
                    .map(|(&p, nm)| LocalState {
                        name: (*nm).to_owned(),
                        props: PropSet::from_iter_with_capacity(n, [p]),
                    })
                    .collect(),
                arcs: (0..3)
                    .map(|k| ProcArc {
                        from: k,
                        to: (k + 1) % 3,
                        guard: BoolExpr::Const(true), // no coordination!
                        assigns: vec![],
                    })
                    .collect(),
            }
        };
        let p1 = mk_proc(0, ["N1", "T1", "C1"], &problem.props);
        let p2 = mk_proc(1, ["N2", "T2", "C2"], &problem.props);
        let program = Program {
            processes: vec![p1, p2],
            shared: vec![],
            init_locals: vec![0, 0],
            init_shared: vec![],
            num_props: n,
        };
        let report = check_program(&mut problem, &program).expect("executable");
        assert!(!report.tolerant(), "unguarded entry must violate mutex");
        assert!(report
            .verification
            .failures
            .iter()
            .any(|f| f.message.contains("~C1 | ~C2") || f.message.contains("violates")));
    }

    /// A fault-intolerant program (correct without faults) fails the
    /// check once fail-stop faults are in the problem: its local states
    /// cannot even represent the down state.
    #[test]
    fn fault_intolerant_program_cannot_represent_the_faults() {
        // Synthesize the fault-free program…
        let mut plain = mutex::fault_free(2);
        let s = synthesize(&mut plain).unwrap_solved();
        // …then check it against the fail-stop problem. The proposition
        // tables differ (D1/D2 exist only in the fail-stop problem), so
        // rebuild the program's valuations is not even possible — the
        // exploration fails to map the fault outcome.
        let mut failstop = mutex::with_fail_stop(2, Tolerance::Masking);
        let err = check_program(&mut failstop, &s.program);
        assert!(
            matches!(err, Err(CheckError::Exploration(_))),
            "a program without down states cannot represent fail-stops"
        );
    }
}
