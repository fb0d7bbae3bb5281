//! Equivalence regressions between the production tableau engines and
//! their sequential oracles (compiled via the `slow-reference`
//! feature):
//!
//! * deletion: the worklist implementation
//!   ([`apply_deletion_rules_mode`]) and the sweep-based reference
//!   ([`apply_deletion_rules_naive_mode`]) must produce identical
//!   alive-node sets and identical per-rule
//!   [`DeletionStats`](ftsyn::tableau::DeletionStats) on every problem,
//!   for both certificate modes;
//! * build: the work-stealing engine, cold and warm through an
//!   [`ExpansionCache`], must produce the tableau of the sequential
//!   [`build_reference`] node for node, before and after deletion.

use ftsyn::ctl::{Closure, LabelSet};
use ftsyn::problems::{barrier, mutex, readers_writers};
use ftsyn::tableau::{
    apply_deletion_rules_mode, apply_deletion_rules_naive_mode, build, build_reference,
    build_with_cache, CertMode, ExpansionCache, FaultSpec, Tableau,
};
use ftsyn::{SynthesisProblem, Tolerance};

/// The closure, fault spec and root label of a problem's tableau,
/// exactly as the synthesis pipeline builds them.
fn tableau_inputs(problem: &mut SynthesisProblem) -> (Closure, FaultSpec, LabelSet) {
    let roots = problem.closure_roots();
    let spec = roots[0];
    let closure = Closure::build(&mut problem.arena, &problem.props, &roots);
    let tolerance_labels = problem.tolerance_label_sets(&closure);
    let fault_spec = FaultSpec {
        actions: problem.faults.clone(),
        tolerance_labels,
    };
    let mut root = closure.empty_label();
    root.insert(closure.index_of(spec).expect("spec is a closure root"));
    (closure, fault_spec, root)
}

fn assert_engines_agree(name: &str, mut problem: SynthesisProblem) {
    let (closure, fault_spec, root) = tableau_inputs(&mut problem);
    let t0 = build(&closure, &problem.props, root, &fault_spec);
    for mode in [CertMode::FaultFree, CertMode::FaultProne] {
        let mut t_worklist = t0.clone();
        let mut t_reference = t0.clone();
        let fast = apply_deletion_rules_mode(&mut t_worklist, &closure, mode);
        let slow = apply_deletion_rules_naive_mode(&mut t_reference, &closure, mode);
        assert_eq!(fast, slow, "{name} ({mode:?}): per-rule stats differ");
        for id in t_worklist.node_ids() {
            assert_eq!(
                t_worklist.alive(id),
                t_reference.alive(id),
                "{name} ({mode:?}): engines disagree on node {id:?}"
            );
        }
    }
}

#[test]
fn mutex_fail_stop_masking() {
    for n in 2..=4 {
        assert_engines_agree(
            &format!("mutex{n}+fail-stop/masking"),
            mutex::with_fail_stop(n, Tolerance::Masking),
        );
    }
}

#[test]
fn mutex_fail_stop_nonmasking() {
    for n in 2..=3 {
        assert_engines_agree(
            &format!("mutex{n}+fail-stop/nonmasking"),
            mutex::with_fail_stop(n, Tolerance::Nonmasking),
        );
    }
}

#[test]
fn mutex_fault_free() {
    assert_engines_agree("mutex/fault-free", mutex::fault_free(2));
}

#[test]
fn barrier_general_state_faults() {
    for n in 2..=3 {
        assert_engines_agree(
            &format!("barrier{n}+state-faults"),
            barrier::with_general_state_faults(n),
        );
    }
}

#[test]
fn barrier_impossible_instance() {
    // The root dies here, exercising full-graph cascades in both
    // engines.
    for n in 2..=3 {
        assert_engines_agree(
            &format!("barrier{n}+fail-stop/impossible"),
            barrier::with_fail_stop_impossible(n),
        );
    }
}

#[test]
fn readers_writers_writer_fail_stop() {
    assert_engines_agree(
        "readers-writers+fail-stop",
        readers_writers::with_writer_fail_stop(2, Tolerance::FailSafe),
    );
}

/// Panics unless the two tableaux are bit-identical: node count and,
/// per node, label, kind, successor and predecessor lists (edge order
/// included) and alive flag.
fn assert_same_tableau(what: &str, a: &Tableau, b: &Tableau) {
    assert_eq!(a.len(), b.len(), "{what}: node count diverged");
    for id in a.node_ids() {
        let (x, y) = (a.node(id), b.node(id));
        assert_eq!(x.label, y.label, "{what}: label at {id:?}");
        assert_eq!(x.kind, y.kind, "{what}: kind at {id:?}");
        assert_eq!(x.succ, y.succ, "{what}: edges at {id:?}");
        assert_eq!(x.pred, y.pred, "{what}: in-edges at {id:?}");
        assert_eq!(a.alive(id), b.alive(id), "{what}: alive flag at {id:?}");
    }
}

/// The work-stealing engine at 1 and 2 threads, cold and then warm
/// through one [`ExpansionCache`], builds the tableau of the sequential
/// [`build_reference`] oracle, with the same `Blocks` work counters;
/// after the deletion phase the alive sets agree too.
#[test]
fn build_matches_the_sequential_reference() {
    let problems = [
        ("mutex2-failstop-masking", mutex::with_fail_stop(2, Tolerance::Masking)),
        ("mutex3-failstop-masking", mutex::with_fail_stop(3, Tolerance::Masking)),
        ("barrier3-state-faults", barrier::with_general_state_faults(3)),
    ];
    for (name, mut problem) in problems {
        let (closure, fault_spec, root) = tableau_inputs(&mut problem);
        let (reference, ref_prof) =
            build_reference(&closure, &problem.props, root.clone(), &fault_spec);
        let mut deleted_reference = reference.clone();
        apply_deletion_rules_mode(&mut deleted_reference, &closure, problem.mode);
        for threads in [1, 2] {
            let mut cache = ExpansionCache::new();
            for warmth in ["cold", "warm"] {
                let what = format!("{name} {warmth}@{threads}");
                let (mut t, prof) = build_with_cache(
                    &closure,
                    &problem.props,
                    root.clone(),
                    &fault_spec,
                    threads,
                    &mut cache,
                );
                assert_same_tableau(&what, &reference, &t);
                if warmth == "cold" {
                    assert_eq!(prof.cache_hits, 0, "{what}");
                    assert_eq!(prof.blocks_candidates, ref_prof.blocks_candidates, "{what}");
                    assert_eq!(prof.blocks_minimal, ref_prof.blocks_minimal, "{what}");
                } else {
                    assert_eq!(prof.cache_misses, 0, "{what}");
                }
                apply_deletion_rules_mode(&mut t, &closure, problem.mode);
                assert_same_tableau(&format!("{what} after deletion"), &deleted_reference, &t);
            }
        }
    }
}
