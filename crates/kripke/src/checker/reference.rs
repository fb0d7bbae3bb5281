//! The original CTL checker, kept verbatim as the equivalence oracle of
//! [`super::Checker`]: a `HashMap` memo, child vectors cloned before
//! use, and every fixpoint re-scanning the edge lists of the structure.
//! The production checker must compute the identical satisfaction
//! vector for every formula under both semantics.
//!
//! Only [`super::Checker::into_cache`] is left out: a [`crate::LabelCache`] is
//! the production checker's output type.

use super::Semantics;
use crate::structure::{FtKripke, StateId};
use ftsyn_ctl::{Formula, FormulaArena, FormulaId};
use std::collections::HashMap;

/// A memoizing model checker for one structure and one semantics.
pub struct Checker<'m> {
    model: &'m FtKripke,
    semantics: Semantics,
    memo: HashMap<FormulaId, Vec<bool>>,
}

impl<'m> Checker<'m> {
    /// Creates a checker for `model` under the given semantics.
    pub fn new(model: &'m FtKripke, semantics: Semantics) -> Checker<'m> {
        Checker {
            model,
            semantics,
            memo: HashMap::new(),
        }
    }

    /// The structure being checked.
    pub fn model(&self) -> &'m FtKripke {
        self.model
    }

    /// The semantics in force.
    pub fn semantics(&self) -> Semantics {
        self.semantics
    }

    /// Whether `f` holds at state `s`.
    pub fn holds(&mut self, arena: &FormulaArena, f: FormulaId, s: StateId) -> bool {
        self.eval(arena, f)[s.index()]
    }

    /// Whether `f` holds at every state in `states`.
    pub fn holds_at_all(
        &mut self,
        arena: &FormulaArena,
        f: FormulaId,
        states: impl IntoIterator<Item = StateId>,
    ) -> bool {
        let v = self.eval(arena, f).clone();
        states.into_iter().all(|s| v[s.index()])
    }

    /// The set of states (as a bool-per-state vector) satisfying `f`.
    pub fn eval(&mut self, arena: &FormulaArena, f: FormulaId) -> &Vec<bool> {
        if !self.memo.contains_key(&f) {
            let v = self.compute(arena, f);
            self.memo.insert(f, v);
        }
        &self.memo[&f]
    }

    fn compute(&mut self, arena: &FormulaArena, f: FormulaId) -> Vec<bool> {
        let n = self.model.len();
        match arena.get(f) {
            Formula::True => vec![true; n],
            Formula::False => vec![false; n],
            Formula::Prop(p) => self
                .model
                .state_ids()
                .map(|s| self.model.state(s).props.contains(p))
                .collect(),
            Formula::NegProp(p) => self
                .model
                .state_ids()
                .map(|s| !self.model.state(s).props.contains(p))
                .collect(),
            Formula::And(a, b) => {
                let va = self.eval(arena, a).clone();
                let vb = self.eval(arena, b);
                va.iter().zip(vb.iter()).map(|(x, y)| *x && *y).collect()
            }
            Formula::Or(a, b) => {
                let va = self.eval(arena, a).clone();
                let vb = self.eval(arena, b);
                va.iter().zip(vb.iter()).map(|(x, y)| *x || *y).collect()
            }
            Formula::Ax(i, g) => {
                let vg = self.eval(arena, g).clone();
                self.model
                    .state_ids()
                    .map(|s| {
                        self.model
                            .succ(s)
                            .iter()
                            .filter(|e| e.kind == crate::structure::TransKind::Proc(i))
                            .all(|e| vg[e.to.index()])
                    })
                    .collect()
            }
            Formula::Ex(i, g) => {
                let vg = self.eval(arena, g).clone();
                self.model
                    .state_ids()
                    .map(|s| {
                        self.model
                            .succ(s)
                            .iter()
                            .filter(|e| e.kind == crate::structure::TransKind::Proc(i))
                            .any(|e| vg[e.to.index()])
                    })
                    .collect()
            }
            Formula::Au(g, h) => {
                let vg = self.eval(arena, g).clone();
                let vh = self.eval(arena, h).clone();
                self.au_set(&vg, &vh)
            }
            Formula::Eu(g, h) => {
                let vg = self.eval(arena, g).clone();
                let vh = self.eval(arena, h).clone();
                self.eu_set(&vg, &vh)
            }
            Formula::Aw(g, h) => {
                // A[gWh] = ¬E[¬g U ¬h]
                let vg = self.eval(arena, g).clone();
                let vh = self.eval(arena, h).clone();
                let ng: Vec<bool> = vg.iter().map(|x| !x).collect();
                let nh: Vec<bool> = vh.iter().map(|x| !x).collect();
                self.eu_set(&ng, &nh).iter().map(|x| !x).collect()
            }
            Formula::Ew(g, h) => {
                // E[gWh] = ¬A[¬g U ¬h]
                let vg = self.eval(arena, g).clone();
                let vh = self.eval(arena, h).clone();
                let ng: Vec<bool> = vg.iter().map(|x| !x).collect();
                let nh: Vec<bool> = vh.iter().map(|x| !x).collect();
                self.au_set(&ng, &nh).iter().map(|x| !x).collect()
            }
        }
    }

    /// Whether every state has at least one path-successor under this
    /// checker's semantics (i.e. the structure has no dead ends, so
    /// every fullpath is infinite).
    pub fn dead_end_free(&self) -> bool {
        self.model
            .state_ids()
            .all(|s| self.path_succ(s).next().is_some())
    }

    /// `E[gUh]` over explicit satisfaction vectors (no arena needed):
    /// the least-fixpoint machinery of [`Checker::eval`], exposed so
    /// callers holding precomputed vectors can run one modality without
    /// mutating a formula arena.
    pub fn eu_of(&self, g: &[bool], h: &[bool]) -> Vec<bool> {
        self.eu_set(g, h)
    }

    /// `A[gUh]` over explicit satisfaction vectors.
    pub fn au_of(&self, g: &[bool], h: &[bool]) -> Vec<bool> {
        self.au_set(g, h)
    }

    /// `EF h` over an explicit satisfaction vector.
    pub fn ef_of(&self, h: &[bool]) -> Vec<bool> {
        self.eu_set(&vec![true; self.model.len()], h)
    }

    /// `AF h` over an explicit satisfaction vector.
    pub fn af_of(&self, h: &[bool]) -> Vec<bool> {
        self.au_set(&vec![true; self.model.len()], h)
    }

    /// `AG h` over an explicit satisfaction vector (`¬EF¬h`).
    pub fn ag_of(&self, h: &[bool]) -> Vec<bool> {
        let nh: Vec<bool> = h.iter().map(|x| !x).collect();
        self.ef_of(&nh).iter().map(|x| !x).collect()
    }

    fn path_succ(&self, s: StateId) -> impl Iterator<Item = StateId> + '_ {
        let include_faults = self.semantics == Semantics::IncludeFaults;
        self.model
            .succ(s)
            .iter()
            .filter(move |e| include_faults || !e.kind.is_fault())
            .map(|e| e.to)
    }

    /// Least fixpoint for `E[gUh]`:
    /// `X = h ∪ (g ∩ pre∃(X))`.
    fn eu_set(&self, g: &[bool], h: &[bool]) -> Vec<bool> {
        let n = self.model.len();
        let mut x: Vec<bool> = h.to_vec();
        // Worklist over predecessors.
        let mut work: Vec<StateId> = (0..n as u32)
            .map(StateId)
            .filter(|s| x[s.index()])
            .collect();
        let include_faults = self.semantics == Semantics::IncludeFaults;
        while let Some(t) = work.pop() {
            for e in self.model.pred(t) {
                if !include_faults && e.kind.is_fault() {
                    continue;
                }
                let s = e.to; // source
                if !x[s.index()] && g[s.index()] {
                    x[s.index()] = true;
                    work.push(s);
                }
            }
        }
        x
    }

    /// Least fixpoint for `A[gUh]`:
    /// `X = h ∪ (g ∩ {s : succ(s) ≠ ∅ ∧ succ(s) ⊆ X})`.
    ///
    /// Dead-end states satisfy `A[gUh]` iff `h` holds there (the only
    /// fullpath is the single-state path).
    fn au_set(&self, g: &[bool], h: &[bool]) -> Vec<bool> {
        let n = self.model.len();
        let mut x: Vec<bool> = h.to_vec();
        // remaining[s] = number of path-successors of s not yet in X.
        let mut remaining: Vec<usize> = (0..n as u32)
            .map(StateId)
            .map(|s| self.path_succ(s).count())
            .collect();
        let has_succ: Vec<bool> = remaining.iter().map(|&c| c > 0).collect();
        let include_faults = self.semantics == Semantics::IncludeFaults;
        let mut work: Vec<StateId> = (0..n as u32)
            .map(StateId)
            .filter(|s| x[s.index()])
            .collect();
        while let Some(t) = work.pop() {
            for e in self.model.pred(t) {
                if !include_faults && e.kind.is_fault() {
                    continue;
                }
                let s = e.to; // source
                remaining[s.index()] = remaining[s.index()].saturating_sub(1);
                if !x[s.index()] && g[s.index()] && has_succ[s.index()] && remaining[s.index()] == 0
                {
                    x[s.index()] = true;
                    work.push(s);
                }
            }
        }
        x
    }
}
