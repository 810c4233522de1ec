//! Allocation audit for shared discovery payloads.
//!
//! Service descriptions and query payloads are immutable shared values
//! (`Arc`), so the copies the protocol makes on every cache hit, federation
//! forward and multicast delivery are reference-count bumps. Before, every
//! `Advertisement`/`ResponseHit`/`QueryMessage` clone deep-copied a profile:
//! a name `String` plus its input, output and QoS vectors. This binary
//! installs a counting global allocator and pins the win:
//!
//! * cloning an advert, a hit or a query allocates nothing, for each of the
//!   three description models;
//! * answering a repeated query from a warm [`QueryCache`] costs a constant
//!   number of allocations, the same for 1 hit as for 64.
//!
//! One `#[test]` because the counter is process-global and the libtest
//! harness runs separate tests on concurrent threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use sds_protocol::{
    Advertisement, Description, DescriptionTemplate, QueryId, QueryMessage, QueryPayload,
    ResponseHit, Uuid,
};
use sds_registry::{cache_key, QueryCache};
use sds_semantic::{ClassId, Degree, QosKey, ServiceProfile, ServiceRequest};
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

/// Allocations made by `f`, excluding dropping its result.
fn allocs_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = allocations();
    let out = black_box(f());
    (allocations() - before, out)
}

/// One description and one matching query per model, each as heavy as the
/// model allows (names, attributes, several concepts and QoS terms), so a
/// deep copy would be loud.
fn models() -> Vec<(&'static str, Description, QueryPayload)> {
    let template = DescriptionTemplate {
        name: Some("blueforce-tracker".into()),
        type_uri: Some("urn:svc:tracking".into()),
        attrs: vec![("area".into(), "north".into()), ("rate".into(), "1hz".into())],
    };
    let profile = ServiceProfile::new("radar-feed", ClassId(3))
        .with_inputs(&[ClassId(1), ClassId(2)])
        .with_outputs(&[ClassId(4), ClassId(5)])
        .with_qos(QosKey::Accuracy, 0.9);
    let request = ServiceRequest::for_category(ClassId(3))
        .with_outputs(&[ClassId(4)])
        .with_provided_inputs(&[ClassId(1), ClassId(2)])
        .with_qos(QosKey::LatencyMs, 100.0);
    vec![
        (
            "uri",
            Description::Uri("urn:svc:tracking".into()),
            QueryPayload::Uri("urn:svc:tracking".into()),
        ),
        (
            "template",
            Description::Template(template.clone().into()),
            QueryPayload::Template(DescriptionTemplate { attrs: Vec::new(), ..template }.into()),
        ),
        ("semantic", Description::Semantic(profile.into()), QueryPayload::Semantic(request.into())),
    ]
}

fn hit(i: usize, description: &Description) -> ResponseHit {
    ResponseHit {
        advert: Advertisement {
            id: Uuid(i as u128 + 1),
            provider: NodeId(i as u32),
            description: description.clone(),
            version: 1,
        },
        degree: Degree::Exact,
        distance: 0,
    }
}

fn query(payload: &QueryPayload) -> QueryMessage {
    QueryMessage {
        id: QueryId { origin: NodeId(9), seq: 1 },
        payload: payload.clone(),
        max_responses: Some(64),
        ttl: 3,
        reply_to: Some(NodeId(1)),
    }
}

/// Allocations to answer `payload` from a cache already holding its
/// `hits`-long result: build the key, look it up, copy the hits out (the
/// registry's `cached_evaluate` path on a warm entry).
fn warm_answer_allocs(payload: &QueryPayload, description: &Description, hits: usize) -> u64 {
    let mut cache = QueryCache::new(16);
    let result: Vec<ResponseHit> = (0..hits).map(|i| hit(i, description)).collect();
    cache.insert(cache_key(payload, Some(64)), payload, result, 1_000, 0);
    // One untimed answer so lazily sized state is in place.
    let key = cache_key(payload, Some(64));
    assert_eq!(cache.get(&key, 1).map(<[_]>::len), Some(hits));
    let (allocs, answer) = allocs_of(|| {
        let key = cache_key(payload, Some(64));
        cache.get(&key, 2).map(<[ResponseHit]>::to_vec)
    });
    assert_eq!(answer.map(|a| a.len()), Some(hits), "the warm entry must answer");
    allocs
}

#[test]
fn shared_payload_clones_and_warm_cache_answers_do_not_scale_with_content() {
    for (model, description, payload) in models() {
        let advert = hit(0, &description).advert;
        let (n, _) = allocs_of(|| advert.clone());
        assert_eq!(n, 0, "{model}: cloning an Advertisement allocated {n} times");

        let h = hit(0, &description);
        let (n, _) = allocs_of(|| h.clone());
        assert_eq!(n, 0, "{model}: cloning a ResponseHit allocated {n} times");

        let q = query(&payload);
        let (n, _) = allocs_of(|| q.clone());
        assert_eq!(n, 0, "{model}: cloning a QueryMessage allocated {n} times");

        let one = warm_answer_allocs(&payload, &description, 1);
        let many = warm_answer_allocs(&payload, &description, 64);
        assert_eq!(
            one, many,
            "{model}: a warm cache answer must cost the same for 1 hit ({one} allocations) \
             as for 64 ({many})"
        );
        // The key's encoding buffer plus the copied-out hit vector.
        assert!(one <= 2, "{model}: a warm cache answer allocated {one} times");
    }
}
