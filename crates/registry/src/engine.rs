//! The registry engine: store + evaluators + response control + artifacts.

use std::collections::HashMap;

use sds_protocol::{Advertisement, AdvertId, ModelId, QueryMessage, QueryPayload, ResponseHit};
use sds_semantic::{Artifact, ArtifactRepository};
use sds_simnet::{NodeId, SimTime};

use crate::evaluate::ModelEvaluator;
use crate::store::{LeasePolicy, PublishOutcome, RegistryStore};

/// Summary information a registry shares with peers ("send out summary
/// information about the advertisements present in a registry").
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RegistrySummary {
    pub advert_count: u32,
    /// Which description models are present, ascending by wire tag.
    pub models: Vec<ModelId>,
}

/// One registry's complete local state and query-evaluation logic, with no
/// networking: `sds-core` drives it from a node handler, baselines from
/// their own policies.
pub struct RegistryEngine {
    store: RegistryStore,
    lease_policy: LeasePolicy,
    evaluators: HashMap<ModelId, Box<dyn ModelEvaluator>>,
    artifacts: ArtifactRepository,
}

impl RegistryEngine {
    pub fn new(lease_policy: LeasePolicy) -> Self {
        Self {
            store: RegistryStore::new(),
            lease_policy,
            evaluators: HashMap::new(),
            artifacts: ArtifactRepository::new(),
        }
    }

    /// Registers an evaluator plug-in; replaces any previous evaluator for
    /// the same model.
    pub fn register_evaluator(&mut self, evaluator: Box<dyn ModelEvaluator>) {
        self.evaluators.insert(evaluator.model(), evaluator);
    }

    /// Whether this registry can evaluate the given model.
    pub fn supports(&self, model: ModelId) -> bool {
        self.evaluators.contains_key(&model)
    }

    pub fn lease_policy(&self) -> LeasePolicy {
        self.lease_policy
    }

    pub fn store(&self) -> &RegistryStore {
        &self.store
    }

    pub fn store_mut(&mut self) -> &mut RegistryStore {
        &mut self.store
    }

    pub fn artifacts(&self) -> &ArtifactRepository {
        &self.artifacts
    }

    /// Hosts an artifact for in-band distribution.
    pub fn host_artifact(&mut self, artifact: Artifact) {
        self.artifacts.put(artifact);
    }

    /// Handles a publish/update: grants a lease per policy and stores the
    /// advert. Returns the outcome and the granted expiry.
    pub fn publish(
        &mut self,
        advert: Advertisement,
        source: NodeId,
        now: SimTime,
        requested_lease_ms: u64,
    ) -> (PublishOutcome, SimTime) {
        let lease_until = self.lease_policy.grant(now, requested_lease_ms);
        let outcome = self.store.publish(advert, source, now, lease_until, requested_lease_ms);
        (outcome, lease_until)
    }

    /// Handles a lease renewal, re-granting the originally requested
    /// duration. Returns `(known, new_expiry)`.
    pub fn renew(&mut self, id: AdvertId, now: SimTime) -> (bool, SimTime) {
        let requested = self.store.get(&id).map_or(0, |a| a.requested_lease_ms);
        let lease_until = self.lease_policy.grant(now, requested);
        (self.store.renew(id, lease_until), lease_until)
    }

    /// Handles explicit removal.
    pub fn remove(&mut self, id: AdvertId) -> bool {
        self.store.remove(id)
    }

    /// Purges expired adverts; returns purged ids.
    pub fn purge(&mut self, now: SimTime) -> Vec<AdvertId> {
        self.store.purge_expired(now)
    }

    /// Evaluates a query against the live adverts: dispatches on the
    /// payload's model (silently returning nothing for unsupported models),
    /// ranks hits best-first, and truncates to the query's `max_responses` —
    /// the query response control the paper requires of registries.
    ///
    /// Sublinear path: the store's secondary indexes produce a candidate set
    /// (a sound over-approximation — see [`RegistryStore::candidates`]), the
    /// evaluator confirms each candidate over *borrowed* adverts, and only
    /// the final top-k hits are cloned. The ranking order `(degree desc,
    /// distance asc, id asc)` is total over unique advert ids, so the result
    /// is identical to [`RegistryEngine::naive_evaluate`] regardless of
    /// candidate enumeration order.
    pub fn evaluate(&self, query: &QueryMessage, now: SimTime) -> Vec<ResponseHit> {
        let Some(evaluator) = self.evaluators.get(&query.payload.model()) else {
            return Vec::new(); // "silently discard messages they cannot understand"
        };
        let candidates = self.store.candidates(&query.payload, evaluator.subsumption_index());
        let confirmed = candidates.iter().filter_map(|id| {
            let stored = self.store.get(&id)?;
            if !stored.is_live(now) {
                return None;
            }
            evaluator
                .evaluate(&query.payload, &stored.advert)
                .map(|(degree, distance)| RankedRef { degree, distance, stored })
        });
        select_ranked(confirmed, query.max_responses)
            .into_iter()
            .map(RankedRef::into_hit)
            .collect()
    }

    /// The pre-index full-scan evaluation, kept verbatim as the reference
    /// implementation for equivalence properties and the `q1_query_scaling`
    /// comparison bench. Not part of the public API surface.
    #[doc(hidden)]
    pub fn naive_evaluate(&self, query: &QueryMessage, now: SimTime) -> Vec<ResponseHit> {
        let Some(evaluator) = self.evaluators.get(&query.payload.model()) else {
            return Vec::new();
        };
        let mut hits: Vec<ResponseHit> = self
            .store
            .live(now)
            .filter_map(|stored| {
                evaluator
                    .evaluate(&query.payload, &stored.advert)
                    .map(|(degree, distance)| ResponseHit {
                        advert: stored.advert.clone(),
                        degree,
                        distance,
                    })
            })
            .collect();
        rank_hits(&mut hits);
        if let Some(k) = query.max_responses {
            hits.truncate(k as usize);
        }
        hits
    }

    /// Plans a service chain (paper §4.3 composition support) over the live
    /// *semantic* advertisements. Returns the chain's advertisements in
    /// execution order, or `None` when no chain exists or the semantic
    /// model is unsupported.
    pub fn compose(
        &self,
        request: &sds_semantic::ServiceRequest,
        now: SimTime,
        max_depth: usize,
    ) -> Option<Vec<Advertisement>> {
        let evaluator = self.evaluators.get(&ModelId::Semantic)?;
        let index = evaluator.subsumption_index()?;
        let live: Vec<&Advertisement> = self
            .store
            .live(now)
            .map(|s| &s.advert)
            .filter(|a| matches!(a.description, sds_protocol::Description::Semantic(_)))
            .collect();
        let profiles: Vec<&sds_semantic::ServiceProfile> = live
            .iter()
            .map(|a| match &a.description {
                sds_protocol::Description::Semantic(p) => &**p,
                _ => unreachable!("filtered above"),
            })
            .collect();
        let plan = sds_semantic::compose(index, request, &profiles, max_depth)?;
        Some(plan.steps.iter().map(|&i| live[i].clone()).collect())
    }

    /// Evaluates a single payload against a single advertisement — used for
    /// subscription matching on publish. `None` for unsupported models and
    /// non-matches alike.
    pub fn evaluate_single(
        &self,
        payload: &QueryPayload,
        advert: &Advertisement,
    ) -> Option<(sds_semantic::Degree, u32)> {
        self.evaluators.get(&payload.model())?.evaluate(payload, advert)
    }

    /// Current summary for registry signaling. Models come out ascending by
    /// wire tag by construction; when nothing is expired-but-unpurged the
    /// model buckets answer directly without scanning the table. `&mut`
    /// because deciding "nothing expired" pops stale expiry-heap entries —
    /// without that, every renewal would knock the summary onto full scans
    /// until the superseded expiry passed.
    pub fn summary(&mut self, now: SimTime) -> RegistrySummary {
        let counts: [usize; 3] = if self.store.none_expired(now) {
            self.store.model_counts()
        } else {
            let mut counts = [0usize; 3];
            for a in self.store.live(now) {
                counts[a.advert.description.model().wire_tag() as usize] += 1;
            }
            counts
        };
        let models: Vec<ModelId> = ModelId::ALL
            .into_iter()
            .filter(|m| counts[m.wire_tag() as usize] > 0)
            .collect();
        RegistrySummary {
            advert_count: counts.iter().sum::<usize>() as u32,
            models,
        }
    }
}

/// A confirmed hit over a borrowed advert, ordered best-first: degree desc,
/// distance asc, advert id asc — the same total order as [`rank_hits`], so
/// "greatest" means "worst" and a max-heap of size k retains the top k.
/// Crate-visible so the sharded data plane shares the exact selection logic
/// (the total order over unique advert ids is what makes sharded evaluation
/// byte-identical to this engine's, whatever order shards enumerate in).
pub(crate) struct RankedRef<'a> {
    pub(crate) degree: sds_semantic::Degree,
    pub(crate) distance: u32,
    pub(crate) stored: &'a crate::store::StoredAdvert,
}

impl RankedRef<'_> {
    fn key(&self) -> (std::cmp::Reverse<sds_semantic::Degree>, u32, AdvertId) {
        (std::cmp::Reverse(self.degree), self.distance, self.stored.advert.id)
    }

    pub(crate) fn into_hit(self) -> ResponseHit {
        ResponseHit {
            advert: self.stored.advert.clone(),
            degree: self.degree,
            distance: self.distance,
        }
    }
}

/// Selects the best `max` hits (all of them when unbounded) in rank order
/// from an arbitrarily-ordered stream of confirmed hits. Bounded selection
/// keeps a max-heap of the k best seen so far, worst on top: O(n · log k)
/// and never more than k+1 entries resident.
///
/// Because the ranking key is a *total* order over unique advert ids,
/// selection is also composable: `select_ranked(concat(streams), k)` equals
/// `select_ranked(concat(per-stream select_ranked(stream, k)), k)` — any
/// global top-k member survives its own stream's top-k. The parallel
/// sharded plane leans on exactly this to merge per-shard selections
/// deterministically (DESIGN §16).
pub(crate) fn select_ranked<'a>(
    confirmed: impl Iterator<Item = RankedRef<'a>>,
    max: Option<u16>,
) -> Vec<RankedRef<'a>> {
    match max {
        Some(k) => {
            let k = k as usize;
            let mut top = std::collections::BinaryHeap::with_capacity(k + 1);
            for hit in confirmed {
                if k == 0 {
                    break;
                }
                top.push(hit);
                if top.len() > k {
                    top.pop();
                }
            }
            let mut v = top.into_vec();
            v.sort_unstable();
            v
        }
        None => {
            let mut v: Vec<RankedRef<'a>> = confirmed.collect();
            v.sort_unstable();
            v
        }
    }
}

impl PartialEq for RankedRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for RankedRef<'_> {}
impl PartialOrd for RankedRef<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for RankedRef<'_> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// Ranks hits best-first: degree desc, distance asc, advert id for
/// determinism. Shared with federation-side aggregation.
pub fn rank_hits(hits: &mut [ResponseHit]) {
    hits.sort_by(|a, b| {
        b.degree
            .cmp(&a.degree)
            .then(a.distance.cmp(&b.distance))
            .then(a.advert.id.cmp(&b.advert.id))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::{SemanticEvaluator, TemplateEvaluator, UriEvaluator};
    use sds_protocol::{Description, QueryId, QueryPayload, Uuid};
    use sds_semantic::{
        ArtifactId, ArtifactKind, Degree, Ontology, ServiceProfile, ServiceRequest,
        SubsumptionIndex,
    };
    use std::sync::Arc;

    fn uri_advert(id: u128, uri: &str) -> Advertisement {
        Advertisement {
            id: Uuid(id),
            provider: NodeId(1),
            description: Description::Uri(uri.into()),
            version: 1,
        }
    }

    fn query(payload: QueryPayload, max: Option<u16>) -> QueryMessage {
        QueryMessage {
            id: QueryId { origin: NodeId(9), seq: 1 },
            payload,
            max_responses: max,
            ttl: 0,
            reply_to: None,
        }
    }

    fn engine_with_uri() -> RegistryEngine {
        let mut e = RegistryEngine::new(LeasePolicy::default());
        e.register_evaluator(Box::new(UriEvaluator));
        e
    }

    #[test]
    fn publish_evaluate_and_lease_expiry() {
        let mut e = engine_with_uri();
        let (outcome, lease) = e.publish(uri_advert(1, "urn:a"), NodeId(1), 0, 10_000);
        assert_eq!(outcome, PublishOutcome::New);
        assert_eq!(lease, 10_000);
        let q = query(QueryPayload::Uri("urn:a".into()), None);
        assert_eq!(e.evaluate(&q, 5_000).len(), 1);
        // After expiry the advert no longer matches even before purge runs.
        assert_eq!(e.evaluate(&q, 10_000).len(), 0);
        assert_eq!(e.purge(10_000), vec![Uuid(1)]);
    }

    #[test]
    fn unsupported_model_silently_discarded() {
        let mut e = engine_with_uri();
        e.publish(uri_advert(1, "urn:a"), NodeId(1), 0, 10_000);
        let sem = query(QueryPayload::Semantic(ServiceRequest::default().into()), None);
        assert!(e.evaluate(&sem, 0).is_empty());
        assert!(!e.supports(ModelId::Semantic));
        assert!(e.supports(ModelId::Uri));
    }

    #[test]
    fn response_control_truncates_after_ranking() {
        let mut o = Ontology::new();
        let thing = o.class("Thing", &[]);
        let track = o.class("Track", &[thing]);
        let air = o.class("AirTrack", &[track]);
        let svc = o.class("Svc", &[thing]);
        let idx = Arc::new(SubsumptionIndex::build(&o));

        let mut e = RegistryEngine::new(LeasePolicy::default());
        e.register_evaluator(Box::new(SemanticEvaluator::new(idx)));
        for (i, out) in [air, track, air, track].iter().enumerate() {
            let advert = Advertisement {
                id: Uuid(i as u128 + 1),
                provider: NodeId(1),
                description: Description::Semantic(
                    ServiceProfile::new(format!("s{i}"), svc).with_outputs(&[*out]).into(),
                ),
                version: 1,
            };
            e.publish(advert, NodeId(1), 0, 60_000);
        }
        let q = query(
            QueryPayload::Semantic(ServiceRequest::default().with_outputs(&[air]).into()),
            Some(2),
        );
        let hits = e.evaluate(&q, 1_000);
        assert_eq!(hits.len(), 2, "truncated to max_responses");
        assert!(hits.iter().all(|h| h.degree == Degree::Exact), "best hits kept: {hits:?}");
    }

    #[test]
    fn renew_unknown_tells_provider_to_republish() {
        let mut e = engine_with_uri();
        let (known, _) = e.renew(Uuid(7), 0);
        assert!(!known);
        e.publish(uri_advert(7, "urn:a"), NodeId(1), 0, 1_000);
        let (known, lease) = e.renew(Uuid(7), 500);
        assert!(known);
        assert_eq!(lease, 1_500, "renewal re-grants the requested 1s lease");
    }

    #[test]
    fn summary_reflects_live_adverts_and_models() {
        let mut e = engine_with_uri();
        e.register_evaluator(Box::new(TemplateEvaluator));
        e.publish(uri_advert(1, "urn:a"), NodeId(1), 0, 1_000);
        e.publish(uri_advert(2, "urn:b"), NodeId(1), 0, 10_000);
        let s = e.summary(500);
        assert_eq!(s, RegistrySummary { advert_count: 2, models: vec![ModelId::Uri] });
        let s_late = e.summary(5_000);
        assert_eq!(s_late.advert_count, 1, "expired advert excluded from summary");
    }

    #[test]
    fn renewed_store_regains_summary_fast_path() {
        // Regression: after a renewal the superseded heap entry used to pin
        // the raw minimum, so `none_expired` stayed false and `summary` fell
        // off its O(1) fast path for the whole old-lease window.
        let mut e = engine_with_uri();
        e.publish(uri_advert(1, "urn:a"), NodeId(1), 0, 1_000);
        let (known, lease) = e.renew(Uuid(1), 500);
        assert!(known);
        assert_eq!(lease, 1_500);
        // Between the old expiry (1 000) and the new one (1 500) the store
        // must report none-expired, which is exactly the fast-path gate.
        assert!(e.store_mut().none_expired(1_200), "fast path regained after renewal");
        let s = e.summary(1_200);
        assert_eq!(s, RegistrySummary { advert_count: 1, models: vec![ModelId::Uri] });
        assert!(!e.store_mut().none_expired(1_500), "renewed expiry still honoured");
        assert_eq!(e.summary(1_500).advert_count, 0);
    }

    #[test]
    fn artifact_hosting_round_trip() {
        let mut e = engine_with_uri();
        e.host_artifact(Artifact {
            id: ArtifactId::new("nato-sensors", 1),
            kind: ArtifactKind::Ontology,
            body: vec![0; 2_048],
        });
        assert_eq!(e.artifacts().get_latest("nato-sensors").unwrap().body.len(), 2_048);
        assert!(e.artifacts().get_latest("missing").is_none());
    }

    #[test]
    fn rank_hits_orders_deterministically() {
        let mk = |id: u128, degree: Degree, distance: u32| ResponseHit {
            advert: uri_advert(id, "urn:x"),
            degree,
            distance,
        };
        let mut hits = vec![
            mk(3, Degree::Subsumes, 1),
            mk(2, Degree::Exact, 0),
            mk(1, Degree::Exact, 0),
            mk(4, Degree::PlugIn, 2),
            mk(5, Degree::PlugIn, 1),
        ];
        rank_hits(&mut hits);
        let ids: Vec<u128> = hits.iter().map(|h| h.advert.id.0).collect();
        assert_eq!(ids, vec![1, 2, 5, 4, 3]);
    }
}
