//! The original configuration-keyed explorer, kept verbatim as the
//! equivalence oracle of [`super::explore`]: every configuration is a
//! cloned `(locals, shared)` pair hashed in full, and every guard, fault
//! outcome and corruption is re-evaluated at every state. The interned
//! explorer must return the identical `Result` — state ids, configs,
//! successor and predecessor order, and the same error at the same
//! point.

use super::{corrupt_branches, Config, Exploration, ExploreError, MAX_STATES};
use crate::action::FaultAction;
use crate::program::Program;
use ftsyn_ctl::{Owner, PropTable};
use ftsyn_kripke::{FtKripke, PropSet, State, StateId, TransKind};
use std::collections::HashMap;

/// Explores the reachable global-state space of `program` under
/// nondeterministic interleaving, adding fault transitions for every
/// enabled action in `faults`.
///
/// `props` supplies the proposition partition: after a fault perturbs the
/// valuation, each process's new local state is resolved by matching the
/// perturbed valuation restricted to that process's propositions.
///
/// # Errors
///
/// See [`ExploreError`].
pub fn explore(
    program: &Program,
    faults: &[FaultAction],
    props: &PropTable,
) -> Result<Exploration, ExploreError> {
    let mut kripke = FtKripke::new();
    let mut configs: Vec<Config> = Vec::new();
    let mut by_config: HashMap<Config, StateId> = HashMap::new();

    // Per-process proposition masks for fault-outcome mapping.
    let proc_masks: Vec<PropSet> = (0..program.processes.len())
        .map(|i| {
            PropSet::from_iter_with_capacity(
                props.len(),
                props
                    .iter()
                    .filter(|&p| props.owner(p) == Owner::Process(i)),
            )
        })
        .collect();

    let init = Config {
        locals: program.init_locals.clone(),
        shared: program.init_shared.clone(),
    };
    let intern = |cfg: Config,
                  kripke: &mut FtKripke,
                  configs: &mut Vec<Config>,
                  by_config: &mut HashMap<Config, StateId>|
     -> Result<StateId, ExploreError> {
        if let Some(&id) = by_config.get(&cfg) {
            return Ok(id);
        }
        let st = State {
            props: program.valuation(&cfg.locals),
            shared: cfg.shared.clone(),
        };
        if kripke.find_state(&st).is_some() {
            return Err(ExploreError::AmbiguousState);
        }
        let id = kripke.intern_state(st);
        by_config.insert(cfg.clone(), id);
        configs.push(cfg);
        if configs.len() > MAX_STATES {
            return Err(ExploreError::StateSpaceTooLarge(MAX_STATES));
        }
        Ok(id)
    };

    let init_id = intern(init, &mut kripke, &mut configs, &mut by_config)?;
    kripke.add_init(init_id);
    let mut work = vec![init_id];

    while let Some(sid) = work.pop() {
        let cfg = configs[sid.index()].clone();
        let valuation = program.valuation(&cfg.locals);

        // Program transitions: any enabled arc of any process.
        for (pi, proc) in program.processes.iter().enumerate() {
            for arc in &proc.arcs {
                if arc.from != cfg.locals[pi] || !arc.guard.eval(&valuation, &cfg.shared) {
                    continue;
                }
                let mut next = cfg.clone();
                next.locals[pi] = arc.to;
                for &(v, k) in &arc.assigns {
                    if v < next.shared.len() {
                        next.shared[v] = k;
                    }
                }
                let before = configs.len();
                let tid = intern(next, &mut kripke, &mut configs, &mut by_config)?;
                if configs.len() > before {
                    work.push(tid);
                }
                kripke.add_edge(sid, TransKind::Proc(pi), tid);
            }
        }

        // Fault transitions.
        for (fi, action) in faults.iter().enumerate() {
            if !action.enabled(&valuation) {
                continue;
            }
            for outcome in action.outcomes(&valuation, props.len()) {
                // Resolve each process's new local state.
                let mut locals = Vec::with_capacity(program.processes.len());
                for (pi, proc) in program.processes.iter().enumerate() {
                    let local_val = outcome.intersect(&proc_masks[pi]);
                    match proc.state_by_props(&local_val) {
                        Some(li) => locals.push(li),
                        None => {
                            return Err(ExploreError::UnmappableFaultOutcome {
                                action: action.name().to_owned(),
                                process: pi,
                            })
                        }
                    }
                }
                // Shared-variable corruption branches (Section 5.3).
                let shared_branches = corrupt_branches(program, &cfg.shared, action);
                for shared in shared_branches {
                    let next = Config {
                        locals: locals.clone(),
                        shared,
                    };
                    let before = configs.len();
                    let tid = intern(next, &mut kripke, &mut configs, &mut by_config)?;
                    if configs.len() > before {
                        work.push(tid);
                    }
                    kripke.add_edge(sid, TransKind::Fault(fi), tid);
                }
            }
        }
    }

    Ok(Exploration { kripke, configs })
}
