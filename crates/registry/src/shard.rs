//! Semantic partitioning and query routing for the sharded data plane.
//!
//! The advert space is split across registry worker shards so query
//! evaluation touches one shard in the common case. The partition key is
//! *relatedness*: the [`SubsumptionIndex`] closure bitsets induce an
//! undirected relatedness graph over classes (x — y when one subsumes the
//! other), and its weakly-connected components are the finest grouping with
//! the property that two related concepts always land in the same group.
//! Everything the built-in matchmaker does — category subsumption, output
//! coverage, candidate generation over `related_concepts` — stays inside one
//! component, so routing a query to its requested concept's component shard
//! can never lose a match (the soundness argument lives on
//! [`ShardRouter::route`] and DESIGN §12).
//!
//! URI and typed-template descriptions match on exact string equality, so
//! they shard by a deterministic string hash instead; the FNV-1a below is
//! fixed (the std hasher is randomly seeded per process and would make shard
//! assignment — and therefore anything derived from it — nondeterministic).
//!
//! Everything here is immutable after construction (plain vectors, no
//! interior mutability), which is what lets the parallel data plane consult
//! the router from scoped worker threads through a shared `&ShardRouter`
//! with no synchronization (see DESIGN §16).

use sds_protocol::{Advertisement, Description, QueryPayload};
use sds_semantic::{ClassId, SubsumptionIndex};

/// Home masks are `u64` bitmaps, one bit per shard.
pub const MAX_SHARDS: usize = 64;

/// Weakly-connected components of the taxonomy's relatedness graph, computed
/// once per ontology with a union-find over each class's ancestor set
/// (uniting a class with its ancestors also covers the descendant direction,
/// since the graph is undirected).
#[derive(Debug)]
pub struct SemanticPartitions {
    /// Per class: the root class index of its component.
    component: Vec<u32>,
}

impl SemanticPartitions {
    pub fn build(idx: &SubsumptionIndex) -> Self {
        let n = idx.len();
        let mut parent: Vec<u32> = (0..n as u32).collect();
        fn find(parent: &mut [u32], mut i: u32) -> u32 {
            while parent[i as usize] != i {
                parent[i as usize] = parent[parent[i as usize] as usize]; // path halving
                i = parent[i as usize];
            }
            i
        }
        for i in 0..n {
            for a in idx.ancestors(ClassId(i as u32)) {
                let (ra, rb) = (find(&mut parent, i as u32), find(&mut parent, a.0));
                // Union by smaller root index keeps component ids stable
                // regardless of visit order.
                if ra != rb {
                    let (lo, hi) = (ra.min(rb), ra.max(rb));
                    parent[hi as usize] = lo;
                }
            }
        }
        let component = (0..n as u32).map(|i| find(&mut parent, i)).collect();
        Self { component }
    }

    /// The component id of `c`. Out-of-ontology ("ghost") class ids arrive
    /// from the wire and relate only to themselves, so each is its own
    /// singleton component, derived from the raw id.
    pub fn component_of(&self, c: ClassId) -> u32 {
        match self.component.get(c.index()) {
            Some(&root) => root,
            None => (self.component.len() as u32).wrapping_add(c.0),
        }
    }

    /// Number of distinct components among in-ontology classes.
    pub fn component_count(&self) -> usize {
        let mut roots: Vec<u32> = self.component.clone();
        roots.sort_unstable();
        roots.dedup();
        roots.len()
    }
}

/// Where one query's matches can live.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Route {
    /// Every possible match is homed at this shard.
    One(usize),
    /// The query constrains nothing the partitioning covers; all shards hold
    /// potential matches.
    Broadcast,
}

/// Maps adverts to their home shard set and queries to the shards that must
/// evaluate them. Routing and homing share every decision, which is what the
/// soundness argument reduces to: a matching advert's home mask always
/// contains the shard its query routes to.
#[derive(Debug)]
pub struct ShardRouter {
    partitions: Option<SemanticPartitions>,
    shards: usize,
}

impl ShardRouter {
    /// A router over `shards` workers (clamped to 1..=[`MAX_SHARDS`]).
    /// Without a subsumption index, semantic descriptions cannot be
    /// partitioned by concept; they all home at shard 0 and semantic queries
    /// route there, which keeps the scheme sound (if unselective) for
    /// registries running without the semantic model.
    pub fn new(shards: usize, idx: Option<&SubsumptionIndex>) -> Self {
        Self {
            partitions: idx.map(SemanticPartitions::build),
            shards: shards.clamp(1, MAX_SHARDS),
        }
    }

    pub fn shard_count(&self) -> usize {
        self.shards
    }

    fn hash_shard(&self, s: &str) -> usize {
        (fnv1a(s.as_bytes()) % self.shards as u64) as usize
    }

    fn semantic_shard(&self, c: ClassId) -> usize {
        match &self.partitions {
            Some(p) => {
                // Components are root class indices; hash them so adjacent
                // roots do not all pile onto neighbouring shards.
                (fnv1a(&p.component_of(c).to_le_bytes()) % self.shards as u64) as usize
            }
            None => 0,
        }
    }

    /// The set of shards that must store `advert`, as a bitmask. Semantic
    /// adverts home at the component shard of their category *and* of every
    /// output, because a query may constrain on either; URI and typed
    /// templates hash their exact-match string; untyped templates (matched
    /// only by unconstrained template queries, which broadcast) sit at a
    /// fixed shard.
    pub fn home_mask(&self, advert: &Advertisement) -> u64 {
        match &advert.description {
            Description::Uri(u) => 1u64 << self.hash_shard(u),
            Description::Template(t) => match &t.type_uri {
                Some(ty) => 1u64 << self.hash_shard(ty),
                None => 1u64,
            },
            Description::Semantic(p) => {
                let mut mask = 1u64 << self.semantic_shard(p.category);
                for &out in &p.outputs {
                    mask |= 1u64 << self.semantic_shard(out);
                }
                mask
            }
        }
    }

    /// The shard(s) that must evaluate `payload`. Soundness case by case:
    ///
    /// - URI: matches need string equality with the advertised URI, and both
    ///   sides hash the same string.
    /// - Typed template: matches need the advert to carry exactly this
    ///   `type_uri` (an untyped advert can never satisfy a typed query), and
    ///   typed adverts hash that same string.
    /// - Untyped template: may match any template advert → broadcast.
    /// - Semantic with a category: the evaluator requires the requested
    ///   category to be *related* to the advertised one; related concepts
    ///   share a component, and every semantic advert homes at its category's
    ///   component shard.
    /// - Semantic with outputs only: the evaluator requires each requested
    ///   output to be related to some advertised output; in particular the
    ///   first requested output is related to an advertised output `o`, they
    ///   share a component, and the advert homes at `o`'s component shard —
    ///   which is the shard routed to.
    /// - Unconstrained semantic (inputs/QoS only): nothing partitionable →
    ///   broadcast.
    pub fn route(&self, payload: &QueryPayload) -> Route {
        match payload {
            QueryPayload::Uri(u) => Route::One(self.hash_shard(u)),
            QueryPayload::Template(t) => match &t.type_uri {
                Some(ty) => Route::One(self.hash_shard(ty)),
                None => Route::Broadcast,
            },
            QueryPayload::Semantic(req) => {
                if let Some(cat) = req.category {
                    Route::One(self.semantic_shard(cat))
                } else if let Some(&out) = req.outputs.first() {
                    Route::One(self.semantic_shard(out))
                } else {
                    Route::Broadcast
                }
            }
        }
    }
}

/// 64-bit FNV-1a. In-crate because the std hasher is per-process seeded and
/// shard assignment must be deterministic across runs and processes.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use sds_protocol::{DescriptionTemplate, Uuid};
    use sds_semantic::{Ontology, ServiceProfile, ServiceRequest};
    use sds_simnet::NodeId;

    fn two_trees() -> (Ontology, [ClassId; 6]) {
        // Two disconnected trees: {Thing, Sensor, Radar} and {Act, Move, Fly}.
        let mut o = Ontology::new();
        let thing = o.class("Thing", &[]);
        let sensor = o.class("Sensor", &[thing]);
        let radar = o.class("Radar", &[sensor]);
        let act = o.class("Act", &[]);
        let mv = o.class("Move", &[act]);
        let fly = o.class("Fly", &[mv]);
        (o, [thing, sensor, radar, act, mv, fly])
    }

    #[test]
    fn related_classes_share_a_component() {
        let (o, [thing, sensor, radar, act, mv, fly]) = two_trees();
        let idx = SubsumptionIndex::build(&o);
        let p = SemanticPartitions::build(&idx);
        assert_eq!(p.component_of(thing), p.component_of(radar));
        assert_eq!(p.component_of(sensor), p.component_of(radar));
        assert_eq!(p.component_of(act), p.component_of(fly));
        assert_ne!(p.component_of(thing), p.component_of(mv), "trees are disjoint");
        assert_eq!(p.component_count(), 2);
        // Ghosts are singleton components, distinct from in-ontology ones.
        let ghost = ClassId(o.len() as u32 + 5);
        assert_eq!(p.component_of(ghost), p.component_of(ghost));
    }

    #[test]
    fn diamond_collapses_to_one_component() {
        let mut o = Ontology::new();
        let thing = o.class("Thing", &[]);
        let a = o.class("A", &[thing]);
        let b = o.class("B", &[thing]);
        let idx = SubsumptionIndex::build(&o);
        let p = SemanticPartitions::build(&idx);
        assert_eq!(p.component_of(a), p.component_of(b), "siblings relate via the root");
        assert_eq!(p.component_count(), 1);
    }

    fn sem_advert(category: ClassId, outputs: &[ClassId]) -> Advertisement {
        Advertisement {
            id: Uuid(1),
            provider: NodeId(1),
            description: Description::Semantic(
                ServiceProfile::new("s", category).with_outputs(outputs).into(),
            ),
            version: 1,
        }
    }

    /// The property every route decision must satisfy: a query's route shard
    /// is contained in the home mask of any advert it could match.
    #[test]
    fn routed_shard_is_always_a_home_shard_of_matching_adverts() {
        let (o, [_, sensor, radar, _, mv, fly]) = two_trees();
        let idx = SubsumptionIndex::build(&o);
        for shards in [1usize, 2, 4, 8] {
            let r = ShardRouter::new(shards, Some(&idx));
            // Category query vs related-category advert.
            let q = QueryPayload::Semantic(ServiceRequest::for_category(sensor).into());
            let Route::One(s) = r.route(&q) else { panic!("category query routes to one") };
            assert_ne!(r.home_mask(&sem_advert(radar, &[])) & (1 << s), 0);
            // Output-only query vs advert producing a related output.
            let q = QueryPayload::Semantic(ServiceRequest::default().with_outputs(&[fly]).into());
            let Route::One(s) = r.route(&q) else { panic!("output query routes to one") };
            assert_ne!(r.home_mask(&sem_advert(sensor, &[mv])) & (1 << s), 0);
            // URI equality.
            let a = Advertisement {
                id: Uuid(2),
                provider: NodeId(1),
                description: Description::Uri("urn:x".into()),
                version: 1,
            };
            let Route::One(s) = r.route(&QueryPayload::Uri("urn:x".into())) else {
                panic!("uri query routes to one")
            };
            assert_eq!(r.home_mask(&a), 1 << s);
            // Typed template equality.
            let t = Advertisement {
                id: Uuid(3),
                provider: NodeId(1),
                description: Description::Template(Arc::new(DescriptionTemplate {
                    type_uri: Some("urn:t".into()),
                    ..Default::default()
                })),
                version: 1,
            };
            let tq = QueryPayload::Template(Arc::new(DescriptionTemplate {
                type_uri: Some("urn:t".into()),
                ..Default::default()
            }));
            let Route::One(s) = r.route(&tq) else { panic!("typed template routes to one") };
            assert_eq!(r.home_mask(&t), 1 << s);
        }
    }

    #[test]
    fn unconstrained_queries_broadcast() {
        let (o, _) = two_trees();
        let idx = SubsumptionIndex::build(&o);
        let r = ShardRouter::new(4, Some(&idx));
        let open_template = QueryPayload::Template(DescriptionTemplate::default().into());
        assert_eq!(r.route(&open_template), Route::Broadcast);
        let open_semantic = QueryPayload::Semantic(ServiceRequest::default().into());
        assert_eq!(r.route(&open_semantic), Route::Broadcast);
    }

    #[test]
    fn router_without_index_pins_semantics_to_shard_zero() {
        let r = ShardRouter::new(8, None);
        let a = sem_advert(ClassId(3), &[ClassId(9)]);
        assert_eq!(r.home_mask(&a), 1);
        let q = QueryPayload::Semantic(ServiceRequest::for_category(ClassId(7)).into());
        assert_eq!(r.route(&q), Route::One(0));
    }

    #[test]
    fn shard_counts_clamp_to_mask_width() {
        assert_eq!(ShardRouter::new(0, None).shard_count(), 1);
        assert_eq!(ShardRouter::new(1000, None).shard_count(), MAX_SHARDS);
    }
}
