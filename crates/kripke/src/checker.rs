//! A CTL model checker over fault-tolerant Kripke structures.
//!
//! Two satisfaction relations are provided (Section 2.4 of the paper):
//!
//! * [`Semantics::FaultFree`] — the paper's `⊨ₙ`, where the path
//!   quantifiers of `AU`/`EU`/`AW`/`EW` range over *fault-free* fullpaths
//!   only (fault transitions are ignored when following paths);
//! * [`Semantics::IncludeFaults`] — path quantifiers range over all
//!   fullpaths, including those that take fault transitions (the
//!   semantics needed by the alternative method of Section 8.3).
//!
//! In both relations the indexed nexttime modalities `AXᵢ`/`EXᵢ` range
//! over the program transitions of process `i` only — fault transitions
//! are never process transitions (`A` and `A_F` are disjoint).
//!
//! Fullpaths may be finite (a maximal path ending in a state with no
//! outgoing transitions). Following the paper's indexing
//! `i ∈ [0 : |π|]`, on a dead-end state `A[gUh]` and `E[gUh]` hold iff
//! `h` holds there, `EXᵢf` is false, and `AXᵢf` is vacuously true.
//!
//! (The paper's displayed path clause reads `j ∈ [1 : (i−1)]`, which
//! would exempt the first state from the `g` obligation; this conflicts
//! with the fixpoint characterization `E[gUh] ≡ h ∨ (g ∧ EX E[gUh])`
//! used by the decision procedure, so we implement the standard
//! `j ∈ [0 : (i−1)]` reading.)

use crate::structure::{FtKripke, StateId, TransKind};
use ftsyn_ctl::{Formula, FormulaArena, FormulaId, PropId};
use std::cell::OnceCell;

#[cfg(any(test, feature = "slow-reference"))]
pub mod reference;

/// Which fullpaths the path quantifiers range over.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Semantics {
    /// The paper's `⊨ₙ`: fault-free fullpaths only.
    FaultFree,
    /// All fullpaths, including fault transitions.
    IncludeFaults,
}

/// A memoizing model checker for one structure and one semantics.
///
/// Satisfaction vectors are memoized densely by formula id. What the
/// operators read is built on first use, at most once per checker: a
/// flat valuation matrix for literals, one successor CSR per process
/// for `AXᵢ`/`EXᵢ`, and one path-predecessor CSR with successor counts
/// for the until/unless fixpoints (DESIGN.md §11).
///
/// # Examples
///
/// ```
/// use ftsyn_ctl::{FormulaArena, PropTable, Owner};
/// use ftsyn_kripke::{FtKripke, State, PropSet, TransKind, Checker, Semantics};
///
/// let mut props = PropTable::new();
/// let p = props.add("p", Owner::Process(0)).unwrap();
/// let mut arena = FormulaArena::new(1);
///
/// let mut m = FtKripke::new();
/// let s0 = m.intern_state(State::new(PropSet::with_capacity(1)));
/// let s1 = m.intern_state(State::new(PropSet::from_iter_with_capacity(1, [p])));
/// m.add_init(s0);
/// m.add_edge(s0, TransKind::Proc(0), s1);
/// m.add_edge(s1, TransKind::Proc(0), s1);
///
/// let fp = arena.prop(p);
/// let af = arena.af(fp);
/// let mut ck = Checker::new(&m, Semantics::FaultFree);
/// assert!(ck.holds(&arena, af, s0));
/// ```
pub struct Checker<'m> {
    model: &'m FtKripke,
    semantics: Semantics,
    /// Satisfaction vectors, dense by formula id.
    memo: Vec<Option<Vec<bool>>>,
    /// Every state's valuation words, `stride` per state.
    valuations: OnceCell<Valuations>,
    /// Program successors of every state, one CSR per process.
    proc_succ: OnceCell<Vec<Csr>>,
    /// Path predecessors under the semantics, with successor counts.
    path: OnceCell<PathPred>,
}

/// The valuations of all states as one flat bit matrix (rows padded with
/// zero words, which reads out-of-capacity propositions as absent, as
/// [`crate::PropSet::contains`] does).
struct Valuations {
    stride: usize,
    words: Vec<u64>,
}

/// A compressed sparse row adjacency: row `s` is
/// `targets[offsets[s]..offsets[s + 1]]`.
struct Csr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Csr {
    #[inline]
    fn row(&self, s: usize) -> &[u32] {
        &self.targets[self.offsets[s] as usize..self.offsets[s + 1] as usize]
    }
}

/// The fixpoint adjacency of one semantics: the sources of each state's
/// path-predecessor edges, and how many path-successor edges each state
/// has (edges counted with multiplicity, as both lists hold them).
struct PathPred {
    pred: Csr,
    succ_count: Vec<u32>,
}

impl<'m> Checker<'m> {
    /// Creates a checker for `model` under the given semantics.
    pub fn new(model: &'m FtKripke, semantics: Semantics) -> Checker<'m> {
        Checker {
            model,
            semantics,
            memo: Vec::new(),
            valuations: OnceCell::new(),
            proc_succ: OnceCell::new(),
            path: OnceCell::new(),
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
        let v = self.eval(arena, f);
        states.into_iter().all(|s| v[s.index()])
    }

    /// The set of states (as a bool-per-state vector) satisfying `f`.
    pub fn eval(&mut self, arena: &FormulaArena, f: FormulaId) -> &Vec<bool> {
        self.ensure(arena, f);
        self.memo[f.index()].as_ref().expect("ensured above")
    }

    /// Evaluates `f` and, first, its unevaluated subformulae.
    fn ensure(&mut self, arena: &FormulaArena, f: FormulaId) {
        if self.memo.len() <= f.index() {
            self.memo.resize(arena.len().max(f.index() + 1), None);
        }
        if self.memo[f.index()].is_some() {
            return;
        }
        let node = arena.get(f);
        match node {
            Formula::True | Formula::False | Formula::Prop(_) | Formula::NegProp(_) => {}
            Formula::Ax(_, g) | Formula::Ex(_, g) => self.ensure(arena, g),
            Formula::And(a, b)
            | Formula::Or(a, b)
            | Formula::Au(a, b)
            | Formula::Eu(a, b)
            | Formula::Aw(a, b)
            | Formula::Ew(a, b) => {
                self.ensure(arena, a);
                self.ensure(arena, b);
            }
        }
        let v = self.compute(node);
        self.memo[f.index()] = Some(v);
    }

    /// The memoized vector of an evaluated formula.
    fn get(&self, f: FormulaId) -> &[bool] {
        self.memo[f.index()]
            .as_deref()
            .expect("children are evaluated first")
    }

    fn compute(&self, node: Formula) -> Vec<bool> {
        let n = self.model.len();
        match node {
            Formula::True => vec![true; n],
            Formula::False => vec![false; n],
            Formula::Prop(p) => self.prop(p, true),
            Formula::NegProp(p) => self.prop(p, false),
            Formula::And(a, b) => {
                let (va, vb) = (self.get(a), self.get(b));
                va.iter().zip(vb).map(|(x, y)| *x && *y).collect()
            }
            Formula::Or(a, b) => {
                let (va, vb) = (self.get(a), self.get(b));
                va.iter().zip(vb).map(|(x, y)| *x || *y).collect()
            }
            Formula::Ax(i, g) => {
                let vg = self.get(g);
                match self.proc_succ().get(i) {
                    Some(csr) => (0..n)
                        .map(|s| csr.row(s).iter().all(|&t| vg[t as usize]))
                        .collect(),
                    None => vec![true; n],
                }
            }
            Formula::Ex(i, g) => {
                let vg = self.get(g);
                match self.proc_succ().get(i) {
                    Some(csr) => (0..n)
                        .map(|s| csr.row(s).iter().any(|&t| vg[t as usize]))
                        .collect(),
                    None => vec![false; n],
                }
            }
            Formula::Au(g, h) => self.au_set(self.get(g), self.get(h)),
            Formula::Eu(g, h) => self.eu_set(self.get(g), self.get(h)),
            Formula::Aw(g, h) => {
                // A[gWh] = ¬E[¬g U ¬h]
                let ng = negated(self.get(g));
                let nh = negated(self.get(h));
                negated(&self.eu_set(&ng, &nh))
            }
            Formula::Ew(g, h) => {
                // E[gWh] = ¬A[¬g U ¬h]
                let ng = negated(self.get(g));
                let nh = negated(self.get(h));
                negated(&self.au_set(&ng, &nh))
            }
        }
    }

    /// Consumes the checker and returns its accumulated per-state
    /// labeling as a [`LabelCache`]. Evaluate every formula of interest
    /// with [`Checker::eval`] first; the cache then holds the exact
    /// satisfaction vector of each evaluated formula *and all of its
    /// subformulae* (evaluation is bottom-up and memoized).
    pub fn into_cache(self) -> LabelCache {
        LabelCache { labels: self.memo }
    }

    /// Whether every state has at least one path-successor under this
    /// checker's semantics (i.e. the structure has no dead ends, so
    /// every fullpath is infinite).
    pub fn dead_end_free(&self) -> bool {
        self.path().succ_count.iter().all(|&c| c > 0)
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
        negated(&self.ef_of(&negated(h)))
    }

    /// Per state: whether proposition `p` is `value` there.
    fn prop(&self, p: PropId, value: bool) -> Vec<bool> {
        let vals = self.valuations.get_or_init(|| {
            let m = self.model;
            let stride = m
                .state_ids()
                .map(|s| m.state(s).props.words().len())
                .max()
                .unwrap_or(0);
            let mut words = vec![0; m.len() * stride];
            for (s, row) in m.state_ids().zip(words.chunks_mut(stride.max(1))) {
                let w = m.state(s).props.words();
                row[..w.len()].copy_from_slice(w);
            }
            Valuations { stride, words }
        });
        let (w, mask) = (p.index() / 64, 1u64 << (p.index() % 64));
        if w >= vals.stride {
            return vec![!value; self.model.len()];
        }
        vals.words
            .iter()
            .skip(w)
            .step_by(vals.stride)
            .map(|word| (word & mask != 0) == value)
            .collect()
    }

    /// The per-process program-successor CSRs, built on first use in one
    /// pass over the successor lists.
    fn proc_succ(&self) -> &[Csr] {
        self.proc_succ.get_or_init(|| {
            let mut csrs: Vec<Csr> = Vec::new();
            for s in self.model.state_ids() {
                for e in self.model.succ(s) {
                    if let TransKind::Proc(i) = e.kind {
                        while csrs.len() <= i {
                            csrs.push(Csr {
                                offsets: vec![0; s.index() + 1],
                                targets: Vec::new(),
                            });
                        }
                        csrs[i].targets.push(e.to.0);
                    }
                }
                for csr in &mut csrs {
                    csr.offsets.push(row_end(&csr.targets));
                }
            }
            csrs
        })
    }

    /// The path-predecessor CSR and successor counts, built on first use
    /// in one pass over the predecessor lists. Every transition is in
    /// both its source's successor list and its target's predecessor
    /// list ([`FtKripke`] adds them together), so counting path edges
    /// by source over the predecessor lists gives the successor counts.
    fn path(&self) -> &PathPred {
        self.path.get_or_init(|| {
            let m = self.model;
            let include_faults = self.semantics == Semantics::IncludeFaults;
            let mut succ_count = vec![0u32; m.len()];
            let mut offsets = Vec::with_capacity(m.len() + 1);
            let mut targets = Vec::new();
            offsets.push(0);
            for t in m.state_ids() {
                for e in m.pred(t) {
                    if include_faults || !e.kind.is_fault() {
                        targets.push(e.to.0);
                        succ_count[e.to.index()] += 1;
                    }
                }
                offsets.push(row_end(&targets));
            }
            PathPred {
                pred: Csr { offsets, targets },
                succ_count,
            }
        })
    }

    /// Least fixpoint for `E[gUh]`:
    /// `X = h ∪ (g ∩ pre∃(X))`.
    fn eu_set(&self, g: &[bool], h: &[bool]) -> Vec<bool> {
        let pred = &self.path().pred;
        let mut x: Vec<bool> = h.to_vec();
        let mut work: Vec<u32> = (0..x.len() as u32).filter(|&s| x[s as usize]).collect();
        while let Some(t) = work.pop() {
            for &s in pred.row(t as usize) {
                let i = s as usize;
                if !x[i] && g[i] {
                    x[i] = true;
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
        let path = self.path();
        let mut x: Vec<bool> = h.to_vec();
        // remaining[s] = number of path-successors of s not yet in X.
        let mut remaining = path.succ_count.clone();
        let mut work: Vec<u32> = (0..x.len() as u32).filter(|&s| x[s as usize]).collect();
        while let Some(t) = work.pop() {
            for &s in path.pred.row(t as usize) {
                let i = s as usize;
                remaining[i] = remaining[i].saturating_sub(1);
                if !x[i] && g[i] && path.succ_count[i] > 0 && remaining[i] == 0 {
                    x[i] = true;
                    work.push(s);
                }
            }
        }
        x
    }
}

/// The offset ending the CSR row just filled.
fn row_end(targets: &[u32]) -> u32 {
    u32::try_from(targets.len()).expect("a structure has fewer than 2^32 edges")
}

fn negated(v: &[bool]) -> Vec<bool> {
    v.iter().map(|x| !x).collect()
}

/// A frozen per-state CTL labeling captured from a [`Checker`] run:
/// formula id → satisfaction vector over the model the checker was
/// built on. The cache owns plain data (no borrow of the model), so it
/// can outlive the checker and be shared across worker threads; the
/// semantic minimizer uses one cache per accepted model to transfer
/// base-model truths onto merge candidates instead of re-checking them.
#[derive(Clone, Debug, Default)]
pub struct LabelCache {
    /// Dense by formula id; `None` for formulae never evaluated.
    labels: Vec<Option<Vec<bool>>>,
}

impl LabelCache {
    /// The satisfaction vector of `f`, if `f` was evaluated (directly
    /// or as a subformula) before the cache was captured.
    pub fn get(&self, f: FormulaId) -> Option<&[bool]> {
        self.labels.get(f.index()).and_then(Option::as_deref)
    }

    /// Whether `f` holds at `s`, if `f` is cached.
    pub fn holds(&self, f: FormulaId, s: StateId) -> Option<bool> {
        self.get(f).map(|v| v[s.index()])
    }

    /// Whether `f` is cached and holds at *every* state of the model.
    pub fn all_true(&self, f: FormulaId) -> bool {
        self.get(f).is_some_and(|v| v.iter().all(|&x| x))
    }

    /// Ids of all cached formulae, in increasing id order.
    pub fn formulas(&self) -> impl Iterator<Item = FormulaId> + '_ {
        self.labels
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_some())
            .map(|(i, _)| FormulaId(i as u32))
    }

    /// Number of cached formulae.
    pub fn len(&self) -> usize {
        self.labels.iter().filter(|v| v.is_some()).count()
    }

    /// Whether nothing was cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{PropSet, State};
    use crate::structure::TransKind;
    use ftsyn_ctl::{Owner, PropId, PropTable};

    struct Fixture {
        arena: FormulaArena,
        props: PropTable,
        m: FtKripke,
        ids: Vec<StateId>,
    }

    /// Builds the classic mutex-like ring:
    /// s0{n} → s1{t} → s2{c} → s0, with a fault edge s0 -F-> s3{bad},
    /// s3 → s3 (self loop) and s3 → s0 recovery.
    fn fixture() -> Fixture {
        let mut props = PropTable::new();
        let pn = props.add("n", Owner::Process(0)).unwrap();
        let pt = props.add("t", Owner::Process(0)).unwrap();
        let pc = props.add("c", Owner::Process(0)).unwrap();
        let pbad = props.add("bad", Owner::Process(0)).unwrap();
        let arena = FormulaArena::new(2);
        let mut m = FtKripke::new();
        let mk = |ps: &[PropId]| State::new(PropSet::from_iter_with_capacity(4, ps.iter().copied()));
        let s0 = m.intern_state(mk(&[pn]));
        let s1 = m.intern_state(mk(&[pt]));
        let s2 = m.intern_state(mk(&[pc]));
        let s3 = m.intern_state(mk(&[pbad]));
        m.add_init(s0);
        m.add_edge(s0, TransKind::Proc(0), s1);
        m.add_edge(s1, TransKind::Proc(0), s2);
        m.add_edge(s2, TransKind::Proc(0), s0);
        m.add_edge(s0, TransKind::Fault(0), s3);
        m.add_edge(s3, TransKind::Proc(1), s0);
        Fixture {
            arena,
            props,
            m,
            ids: vec![s0, s1, s2, s3],
        }
    }

    fn prop(fx: &mut Fixture, name: &str) -> FormulaId {
        let p = fx.props.id(name).unwrap();
        fx.arena.prop(p)
    }

    #[test]
    fn af_holds_on_cycle_reaching_goal() {
        let mut fx = fixture();
        let c = prop(&mut fx, "c");
        let af = fx.arena.af(c);
        let mut ck = Checker::new(&fx.m, Semantics::FaultFree);
        // Fault-free from s0 the only path is the ring, so AF c holds.
        assert!(ck.holds(&fx.arena, af, fx.ids[0]));
        assert!(ck.holds(&fx.arena, af, fx.ids[1]));
    }

    #[test]
    fn fault_free_vs_include_faults() {
        let mut fx = fixture();
        let bad = prop(&mut fx, "bad");
        let nbad = fx.arena.not(bad);
        let ag = fx.arena.ag(nbad);
        // Under |=n the fault edge is invisible: AG ~bad holds at s0.
        let mut ckn = Checker::new(&fx.m, Semantics::FaultFree);
        assert!(ckn.holds(&fx.arena, ag, fx.ids[0]));
        // Under |= with faults, the path through the fault reaches bad.
        let mut ckf = Checker::new(&fx.m, Semantics::IncludeFaults);
        assert!(!ckf.holds(&fx.arena, ag, fx.ids[0]));
    }

    #[test]
    fn ex_ax_are_per_process_and_ignore_faults() {
        let mut fx = fixture();
        let t = prop(&mut fx, "t");
        let ex0 = fx.arena.ex(0, t);
        let ex1 = fx.arena.ex(1, t);
        // s0's fault successor s3 is not an EX-successor of any process.
        let bad = prop(&mut fx, "bad");
        let exb0 = fx.arena.ex(0, bad);
        let exb1 = fx.arena.ex(1, bad);
        let mut ck = Checker::new(&fx.m, Semantics::FaultFree);
        assert!(ck.holds(&fx.arena, ex0, fx.ids[0]));
        assert!(!ck.holds(&fx.arena, ex1, fx.ids[0]));
        assert!(!ck.holds(&fx.arena, exb0, fx.ids[0]));
        assert!(!ck.holds(&fx.arena, exb1, fx.ids[0]));
    }

    #[test]
    fn dead_end_semantics() {
        let mut props = PropTable::new();
        let p = props.add("p", Owner::Process(0)).unwrap();
        let mut arena = FormulaArena::new(1);
        let mut m = FtKripke::new();
        let dead_p = m.intern_state(State::new(PropSet::from_iter_with_capacity(1, [p])));
        let dead_np = m.intern_state(State::new(PropSet::with_capacity(1)));
        m.add_init(dead_p);
        m.add_init(dead_np);
        let fp = arena.prop(p);
        let af = arena.af(fp);
        let ef = arena.ef(fp);
        let ax = arena.ax(0, fp);
        let ex = arena.ex(0, fp);
        let mut ck = Checker::new(&m, Semantics::FaultFree);
        // Dead end with p: the single-state fullpath fulfills AF/EF.
        assert!(ck.holds(&arena, af, dead_p));
        assert!(ck.holds(&arena, ef, dead_p));
        // Dead end without p: unfulfillable.
        assert!(!ck.holds(&arena, af, dead_np));
        assert!(!ck.holds(&arena, ef, dead_np));
        // AX vacuous, EX false on dead ends.
        assert!(ck.holds(&arena, ax, dead_np));
        assert!(!ck.holds(&arena, ex, dead_p));
    }

    #[test]
    fn weak_until_duality() {
        let mut fx = fixture();
        let n = prop(&mut fx, "n");
        let c = prop(&mut fx, "c");
        // E[c W n]: exists a path where n holds until c∧n releases — on
        // the ring, n holds at s0 and the next state has ¬n, so the
        // release c∧n never fires but n doesn't hold forever either.
        let ew = fx.arena.ew(c, n);
        let mut ck = Checker::new(&fx.m, Semantics::FaultFree);
        assert!(!ck.holds(&fx.arena, ew, fx.ids[0]));
        // A[false W n] = AG n fails at s0 (t is reached).
        let ag = fx.arena.ag(n);
        assert!(!ck.holds(&fx.arena, ag, fx.ids[0]));
        // EG true holds everywhere (infinite ring).
        let t = fx.arena.tru();
        let eg = fx.arena.eg(t);
        assert!(ck.holds(&fx.arena, eg, fx.ids[0]));
    }

    #[test]
    fn vector_fixpoints_match_formula_evaluation() {
        let mut fx = fixture();
        let n = prop(&mut fx, "n");
        let c = prop(&mut fx, "c");
        for semantics in [Semantics::FaultFree, Semantics::IncludeFaults] {
            let mut ck = Checker::new(&fx.m, semantics);
            let vn = ck.eval(&fx.arena, n).clone();
            let vc = ck.eval(&fx.arena, c).clone();
            let ef = fx.arena.ef(c);
            let af = fx.arena.af(c);
            let ag = fx.arena.ag(n);
            let eu = fx.arena.eu(n, c);
            let au = fx.arena.au(n, c);
            assert_eq!(&ck.ef_of(&vc), ck.eval(&fx.arena, ef));
            assert_eq!(&ck.af_of(&vc), ck.eval(&fx.arena, af));
            assert_eq!(&ck.ag_of(&vn), ck.eval(&fx.arena, ag));
            assert_eq!(&ck.eu_of(&vn, &vc), ck.eval(&fx.arena, eu));
            assert_eq!(&ck.au_of(&vn, &vc), ck.eval(&fx.arena, au));
        }
    }

    #[test]
    fn label_cache_captures_subformulae_and_all_true() {
        let mut fx = fixture();
        let n = prop(&mut fx, "n");
        let c = prop(&mut fx, "c");
        let nc = fx.arena.or(n, c);
        let ef = fx.arena.ef(nc);
        let mut ck = Checker::new(&fx.m, Semantics::FaultFree);
        ck.eval(&fx.arena, ef);
        let cache = ck.into_cache();
        // The root and its subformulae are all cached.
        assert!(cache.get(ef).is_some());
        assert!(cache.get(nc).is_some());
        assert_eq!(cache.holds(n, fx.ids[0]), Some(true));
        assert_eq!(cache.holds(n, fx.ids[1]), Some(false));
        // EF(n|c) holds everywhere except the dead-end-free ring… it
        // holds at every state of this fixture.
        assert!(cache.all_true(ef));
        assert!(!cache.all_true(n));
        // Unevaluated formulae are absent, and absent means not all-true.
        let bad = prop(&mut fx, "bad");
        assert!(cache.get(bad).is_none());
        assert!(!cache.all_true(bad));
        assert!(!cache.is_empty());
        assert!(cache.len() >= 4);
    }

    #[test]
    fn dead_end_detection_respects_semantics() {
        let fx = fixture();
        // Every state of the fixture has a successor under both
        // semantics (s3 has a Proc edge back to s0).
        assert!(Checker::new(&fx.m, Semantics::FaultFree).dead_end_free());
        assert!(Checker::new(&fx.m, Semantics::IncludeFaults).dead_end_free());
        // A state whose only successor is a fault edge is a dead end
        // under fault-free semantics but not under include-faults.
        let mut m = fx.m.clone();
        let lone = m.push_state(State::new(PropSet::with_capacity(4)));
        m.add_edge(lone, TransKind::Fault(0), fx.ids[0]);
        assert!(!Checker::new(&m, Semantics::FaultFree).dead_end_free());
        assert!(Checker::new(&m, Semantics::IncludeFaults).dead_end_free());
    }

    #[test]
    fn au_requires_g_along_the_way() {
        let mut fx = fixture();
        let n = prop(&mut fx, "n");
        let t = prop(&mut fx, "t");
        let c = prop(&mut fx, "c");
        // A[(n|t) U c] holds at s0 along the ring.
        let nt = fx.arena.or(n, t);
        let au = fx.arena.au(nt, c);
        let mut ck = Checker::new(&fx.m, Semantics::FaultFree);
        assert!(ck.holds(&fx.arena, au, fx.ids[0]));
        // A[n U c] fails: t-state breaks the g-chain.
        let au2 = fx.arena.au(n, c);
        assert!(!ck.holds(&fx.arena, au2, fx.ids[0]));
    }
}

/// The production checker against the original one ([`reference`]) on
/// seeded random structures: both semantics, dead ends, fault edges,
/// parallel edges of different kinds, process indices with no edges,
/// and valuations of different widths.
#[cfg(test)]
mod differential {
    use super::*;
    use crate::state::{PropSet, State};
    use ftsyn_ctl::PropId;
    use ftsyn_prng::XorShift64;

    const PROCS: usize = 3;
    const PROPS: u32 = 4;

    fn random_structure(rng: &mut XorShift64) -> FtKripke {
        let n = rng.range(1, 30);
        let mut m = FtKripke::new();
        for i in 0..n {
            // Mixed widths: a 1-word and a 3-word valuation agree on
            // every proposition below 64 and read the rest as absent.
            let width = if rng.chance(0.3) { 130 } else { PROPS as usize };
            let mut props = PropSet::with_capacity(width);
            for p in 0..PROPS {
                if rng.chance(0.4) {
                    props.insert(PropId(p));
                }
            }
            if width > 64 && rng.chance(0.5) {
                props.insert(PropId(100));
            }
            let mut st = State::new(props);
            st.shared.push(i as u32);
            m.push_state(st);
        }
        for _ in 0..rng.below(3 * n + 1) {
            let (from, to) = (StateId(rng.below(n) as u32), StateId(rng.below(n) as u32));
            let kind = if rng.chance(0.3) {
                TransKind::Fault(rng.below(2))
            } else {
                TransKind::Proc(rng.below(PROCS))
            };
            m.add_edge(from, kind, to);
        }
        m.add_init(StateId(0));
        m
    }

    fn random_formula(rng: &mut XorShift64, arena: &mut FormulaArena, depth: usize) -> FormulaId {
        let prop = |rng: &mut XorShift64| {
            PropId(if rng.chance(0.1) {
                100
            } else {
                rng.below(PROPS as usize) as u32
            })
        };
        let kind = if depth == 0 {
            rng.below(4)
        } else {
            rng.below(12)
        };
        let sub =
            |rng: &mut XorShift64, arena: &mut FormulaArena| random_formula(rng, arena, depth - 1);
        match kind {
            0 => arena.tru(),
            1 => arena.fls(),
            2 => arena.prop(prop(rng)),
            3 => arena.neg_prop(prop(rng)),
            4 | 5 => {
                let (a, b) = (sub(rng, arena), sub(rng, arena));
                if kind == 4 {
                    arena.and(a, b)
                } else {
                    arena.or(a, b)
                }
            }
            6 | 7 => {
                // Index PROCS has no edges at all.
                let (i, g) = (rng.below(PROCS + 1), sub(rng, arena));
                if kind == 6 {
                    arena.ax(i, g)
                } else {
                    arena.ex(i, g)
                }
            }
            _ => {
                let (g, h) = (sub(rng, arena), sub(rng, arena));
                match kind {
                    8 => arena.au(g, h),
                    9 => arena.eu(g, h),
                    10 => arena.aw(g, h),
                    _ => arena.ew(g, h),
                }
            }
        }
    }

    /// `f` and all of its subformulae, children first.
    fn subformulae(arena: &FormulaArena, f: FormulaId, out: &mut Vec<FormulaId>) {
        if out.contains(&f) {
            return;
        }
        match arena.get(f) {
            Formula::True | Formula::False | Formula::Prop(_) | Formula::NegProp(_) => {}
            Formula::Ax(_, g) | Formula::Ex(_, g) => subformulae(arena, g, out),
            Formula::And(a, b)
            | Formula::Or(a, b)
            | Formula::Au(a, b)
            | Formula::Eu(a, b)
            | Formula::Aw(a, b)
            | Formula::Ew(a, b) => {
                subformulae(arena, a, out);
                subformulae(arena, b, out);
            }
        }
        out.push(f);
    }

    fn random_vector(rng: &mut XorShift64, n: usize) -> Vec<bool> {
        (0..n).map(|_| rng.chance(0.5)).collect()
    }

    #[test]
    fn every_subformula_matches_the_reference_checker() {
        let mut rng = XorShift64::new(0xC5A_0001);
        let mut compared = 0;
        for case in 0..300 {
            let m = random_structure(&mut rng);
            for semantics in [Semantics::FaultFree, Semantics::IncludeFaults] {
                let mut arena = FormulaArena::new(PROCS + 1);
                let mut ck = Checker::new(&m, semantics);
                let mut rk = reference::Checker::new(&m, semantics);
                let mut seen = Vec::new();
                // The arena grows between evaluations, as callers' do.
                for _ in 0..4 {
                    let f = random_formula(&mut rng, &mut arena, 4);
                    assert_eq!(ck.eval(&arena, f), rk.eval(&arena, f), "case {case}");
                    subformulae(&arena, f, &mut seen);
                }
                for &f in &seen {
                    assert_eq!(ck.eval(&arena, f), rk.eval(&arena, f), "case {case}: {f:?}");
                    compared += 1;
                }
                assert_eq!(ck.dead_end_free(), rk.dead_end_free(), "case {case}");
                let (g, h) = (
                    random_vector(&mut rng, m.len()),
                    random_vector(&mut rng, m.len()),
                );
                assert_eq!(ck.eu_of(&g, &h), rk.eu_of(&g, &h), "case {case}");
                assert_eq!(ck.au_of(&g, &h), rk.au_of(&g, &h), "case {case}");
                assert_eq!(ck.ef_of(&h), rk.ef_of(&h), "case {case}");
                assert_eq!(ck.af_of(&h), rk.af_of(&h), "case {case}");
                assert_eq!(ck.ag_of(&h), rk.ag_of(&h), "case {case}");
                let cache = ck.into_cache();
                assert_eq!(cache.len(), seen.len(), "case {case}");
                assert!(cache.formulas().all(|f| seen.contains(&f)), "case {case}");
                for &f in &seen {
                    assert_eq!(
                        cache.get(f),
                        Some(rk.eval(&arena, f).as_slice()),
                        "case {case}"
                    );
                }
            }
        }
        assert!(
            compared > 10_000,
            "only {compared} subformula vectors compared"
        );
    }
}
