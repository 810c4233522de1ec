//! Allocation audit for batched evaluation's duplicate handling.
//!
//! `evaluate_batch` coalesces identical in-flight queries to one evaluation
//! and returns duplicates as slot indices into the unique results — it used
//! to deep-clone the result vector once per duplicate, so a 1000-way
//! coalesced burst paid 1000 copies of every ranked hit. This binary
//! installs a counting global allocator and pins the fix: growing a burst
//! by duplicates only must cost O(1) small allocations per duplicate (the
//! coalescing key), nothing proportional to the hit vectors.
//!
//! One `#[test]` because the counter is process-global and the libtest
//! harness runs separate tests on concurrent threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sds_protocol::{
    Advertisement, Description, QueryId, QueryMessage, QueryPayload, Uuid,
};
use sds_registry::{
    LeasePolicy, SemanticEvaluator, ShardedEngine, TemplateEvaluator, UriEvaluator,
};
use sds_semantic::{Ontology, ServiceProfile, ServiceRequest, SubsumptionIndex};
use sds_simnet::NodeId;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// A small taxonomy with one category whose services all match a
/// `for_category` request — enough hits that a per-duplicate deep clone
/// would be loud in the allocation count.
fn engine_with_hits(hits: usize) -> (ShardedEngine, QueryPayload) {
    let mut ont = Ontology::new();
    let root = ont.class("Root", &[]);
    let cat = ont.class("Cat", &[root]);
    let leaf = ont.class("Leaf", &[cat]);
    let idx = Arc::new(SubsumptionIndex::build(&ont));
    let mut e = ShardedEngine::new(LeasePolicy::default(), 4, Some(&idx));
    e.register_evaluator(Box::new(UriEvaluator));
    e.register_evaluator(Box::new(TemplateEvaluator));
    e.register_evaluator(Box::new(SemanticEvaluator::new(idx.clone())));
    for i in 0..hits {
        let advert = Advertisement {
            id: Uuid(i as u128 + 1),
            provider: NodeId(i as u32),
            description: Description::Semantic(
                ServiceProfile::new(format!("svc{i}"), leaf).with_outputs(&[leaf]).into(),
            ),
            version: 1,
        };
        e.publish(advert, NodeId(0), 0, 1_000_000);
    }
    (e, QueryPayload::Semantic(ServiceRequest::for_category(cat).into()))
}

fn burst(payload: &QueryPayload, copies: usize) -> Vec<QueryMessage> {
    (0..copies)
        .map(|seq| QueryMessage {
            id: QueryId { origin: NodeId(9), seq: seq as u64 },
            payload: payload.clone(),
            max_responses: None,
            ttl: 0,
            reply_to: None,
        })
        .collect()
}

#[test]
fn coalesced_duplicates_do_not_clone_result_vectors() {
    const HITS: usize = 64;
    const SMALL: usize = 100;
    const BIG: usize = 1_000;

    let (engine, payload) = engine_with_hits(HITS);
    let small_burst = burst(&payload, SMALL);
    let big_burst = burst(&payload, BIG);

    // Warm up: hash-map capacities, memo vectors, and the result path all
    // reach steady state before anything is measured.
    let warm = engine.evaluate_batch(&big_burst, 1);
    assert_eq!(warm.len(), BIG);
    assert_eq!(warm.unique_evaluations(), 1, "identical copies must coalesce to one");
    assert_eq!(warm.hits(0).len(), HITS);
    // Structural sharing: the first and last duplicate borrow the *same*
    // unique vector, not equal copies.
    assert!(
        std::ptr::eq(warm.hits(0), warm.hits(BIG - 1)),
        "duplicates must share their unique slot's storage"
    );

    let before_small = allocations();
    let small_out = engine.evaluate_batch(&small_burst, 1);
    let small_allocs = allocations() - before_small;

    let before_big = allocations();
    let big_out = engine.evaluate_batch(&big_burst, 1);
    let big_allocs = allocations() - before_big;

    assert_eq!(small_out.unique_evaluations(), 1);
    assert_eq!(big_out.unique_evaluations(), 1);
    assert_eq!(small_out.hits(SMALL - 1), big_out.hits(BIG - 1));

    // The two bursts differ only in duplicate count: same unique query, same
    // hits. Each extra duplicate may cost the coalescing key encoding (one
    // Vec<u8>) and amortized table growth — call it 4 small allocations of
    // slack — but must NOT re-clone the 64-hit result vector, whose semantic
    // profiles alone would dwarf that budget (each hit clones a name String
    // plus output/input vectors, ~4+ allocations per hit).
    let extra = (BIG - SMALL) as u64;
    let per_duplicate_budget = 4 * extra;
    assert!(
        big_allocs <= small_allocs + per_duplicate_budget,
        "duplicate growth allocated too much: {SMALL}-burst cost {small_allocs}, \
         {BIG}-burst cost {big_allocs}, budget {per_duplicate_budget} over the small burst \
         (a per-duplicate deep clone would cost ~{} allocations)",
        extra * (HITS as u64) * 4
    );
}
