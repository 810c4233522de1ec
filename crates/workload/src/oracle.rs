//! Registry-free ground truth for recall and staleness measurements.
//!
//! Uses the very same evaluator plug-ins the registries use, so "expected"
//! is defined by the system's own matching semantics, evaluated over the
//! true world state instead of any registry's (possibly stale) copy.

use std::sync::Arc;

use sds_protocol::{Advertisement, Description, QueryPayload, Uuid};
use sds_registry::{ModelEvaluator, SemanticEvaluator, TemplateEvaluator, UriEvaluator};
use sds_semantic::SubsumptionIndex;
use sds_simnet::NodeId;

/// Ground-truth matcher over the shared ontology.
pub struct Oracle {
    evaluators: Vec<Box<dyn ModelEvaluator>>,
}

impl Oracle {
    pub fn new(idx: Arc<SubsumptionIndex>) -> Self {
        Self {
            evaluators: vec![
                Box::new(UriEvaluator),
                Box::new(TemplateEvaluator),
                Box::new(SemanticEvaluator::new(idx)),
            ],
        }
    }

    /// Whether `payload` matches `description` under the system's own
    /// matching semantics.
    pub fn matches(&self, payload: &QueryPayload, description: &Description) -> bool {
        let advert = Advertisement {
            id: Uuid::NIL,
            provider: NodeId(0),
            description: description.clone(),
            version: 1,
        };
        self.evaluators
            .iter()
            .filter(|e| e.model() == payload.model())
            .any(|e| e.evaluate(payload, &advert).is_some())
    }

    /// The providers among `services` that should answer `payload`,
    /// restricted by a liveness predicate (pass `|_| true` for "ever").
    pub fn expected_providers(
        &self,
        payload: &QueryPayload,
        services: &[(NodeId, Description)],
        alive: impl Fn(NodeId) -> bool,
    ) -> Vec<NodeId> {
        services
            .iter()
            .filter(|(node, desc)| alive(*node) && self.matches(payload, desc))
            .map(|(node, _)| *node)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taxonomy::battlefield;
    use sds_semantic::{ServiceProfile, ServiceRequest};

    #[test]
    fn oracle_applies_subsumption() {
        let (ont, c) = battlefield();
        let oracle = Oracle::new(Arc::new(SubsumptionIndex::build(&ont)));
        let radar = Description::Semantic(ServiceProfile::new("r", c.radar_service).into());
        let chat = Description::Semantic(ServiceProfile::new("c", c.chat).into());
        let want_surveillance =
            QueryPayload::Semantic(ServiceRequest::for_category(c.surveillance).into());
        assert!(oracle.matches(&want_surveillance, &radar));
        assert!(!oracle.matches(&want_surveillance, &chat));
        // Cross-model payloads never match.
        assert!(!oracle.matches(&QueryPayload::Uri("urn:svc:RadarService".into()), &radar));
    }

    #[test]
    fn expected_providers_respects_liveness() {
        let (ont, c) = battlefield();
        let oracle = Oracle::new(Arc::new(SubsumptionIndex::build(&ont)));
        let services = vec![
            (NodeId(1), Description::Uri("urn:a".into())),
            (NodeId(2), Description::Uri("urn:a".into())),
            (NodeId(3), Description::Uri("urn:b".into())),
        ];
        let q = QueryPayload::Uri("urn:a".into());
        assert_eq!(oracle.expected_providers(&q, &services, |_| true), vec![NodeId(1), NodeId(2)]);
        assert_eq!(
            oracle.expected_providers(&q, &services, |n| n != NodeId(1)),
            vec![NodeId(2)]
        );
        let _ = c;
    }
}
