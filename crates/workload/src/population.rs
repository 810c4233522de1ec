//! Service populations and query workloads over the battlefield taxonomy.

use std::sync::Arc;

use sds_rand::{Rng, Seed};

use sds_protocol::{Description, DescriptionTemplate, ModelId, QueryPayload};
use sds_semantic::{ClassId, Ontology, QosKey, ServiceProfile, ServiceRequest};

use crate::taxonomy::BattlefieldClasses;

/// One archetype of deployable service: category, outputs, required inputs.
#[derive(Clone, Debug)]
struct Archetype {
    category: ClassId,
    outputs: Vec<ClassId>,
    inputs: Vec<ClassId>,
}

fn archetypes(c: &BattlefieldClasses) -> Vec<Archetype> {
    vec![
        Archetype {
            category: c.radar_service,
            outputs: vec![c.radar_data, c.air_track],
            inputs: vec![c.area_of_interest],
        },
        Archetype {
            category: c.sonar_service,
            outputs: vec![c.sonar_data, c.surface_track],
            inputs: vec![c.area_of_interest],
        },
        Archetype {
            category: c.blueforce_tracking,
            outputs: vec![c.position_report],
            inputs: vec![c.unit_id],
        },
        Archetype { category: c.chat, outputs: vec![], inputs: vec![] },
        Archetype {
            category: c.resupply,
            outputs: vec![c.position_report],
            inputs: vec![c.unit_id],
        },
        Archetype { category: c.medevac, outputs: vec![c.position_report], inputs: vec![c.unit_id] },
    ]
}

/// Parameters of a generated workload.
#[derive(Clone, Debug)]
pub struct PopulationSpec {
    /// Description model for services AND queries.
    pub model: ModelId,
    /// Number of service descriptions.
    pub services: usize,
    /// Number of query payloads.
    pub queries: usize,
    /// For the semantic model: probability that a query asks for a *parent*
    /// concept (requiring subsumption to answer); 0.0 makes every query an
    /// exact leaf-category query. Ignored by the other models.
    pub generalization_rate: f64,
    pub seed: u64,
}

impl Default for PopulationSpec {
    fn default() -> Self {
        Self {
            model: ModelId::Semantic,
            services: 40,
            queries: 50,
            generalization_rate: 0.5,
            seed: 0,
        }
    }
}

/// A generated workload: descriptions to deploy and queries to run.
#[derive(Clone, Debug)]
pub struct Workload {
    pub descriptions: Vec<Description>,
    pub queries: Vec<QueryPayload>,
}

/// A single query template helper (exported for hand-built experiments).
#[derive(Clone, Debug)]
pub struct QuerySpec {
    pub payload: QueryPayload,
    /// True when answering requires subsumption reasoning (the paper's
    /// semantic-advantage case).
    pub needs_subsumption: bool,
}

impl Workload {
    /// Generates a population and query set over the battlefield taxonomy.
    pub fn generate(ont: &Ontology, classes: &BattlefieldClasses, spec: &PopulationSpec) -> Self {
        let mut rng = Seed(spec.seed).derive("workload.population").rng();
        let pool = archetypes(classes);

        let descriptions: Vec<Description> = (0..spec.services)
            .map(|i| {
                let a = &pool[rng.gen_range(0..pool.len())];
                match spec.model {
                    ModelId::Uri => Description::Uri(type_uri(ont, a.category).into()),
                    ModelId::Template => Description::Template(Arc::new(DescriptionTemplate {
                        name: Some(format!("svc-{i}")),
                        type_uri: Some(type_uri(ont, a.category)),
                        attrs: vec![("area".into(), format!("sector-{}", rng.gen_range(0..4u32)))],
                    })),
                    ModelId::Semantic => Description::Semantic(
                        ServiceProfile::new(format!("svc-{i}"), a.category)
                            .with_outputs(&a.outputs)
                            .with_inputs(&a.inputs)
                            .with_qos(QosKey::Accuracy, 0.5 + 0.5 * rng.gen_f64())
                            .into(),
                    ),
                }
            })
            .collect();

        let queries: Vec<QueryPayload> =
            (0..spec.queries).map(|_| Self::gen_query(ont, classes, spec, &pool, &mut rng)).collect();

        Self { descriptions, queries }
    }

    fn gen_query(
        ont: &Ontology,
        classes: &BattlefieldClasses,
        spec: &PopulationSpec,
        pool: &[Archetype],
        rng: &mut Rng,
    ) -> QueryPayload {
        let a = &pool[rng.gen_range(0..pool.len())];
        match spec.model {
            ModelId::Uri => QueryPayload::Uri(type_uri(ont, a.category).into()),
            ModelId::Template => QueryPayload::Template(Arc::new(DescriptionTemplate {
                type_uri: Some(type_uri(ont, a.category)),
                ..Default::default()
            })),
            ModelId::Semantic => {
                let generalize = rng.gen_bool(spec.generalization_rate);
                let category = if generalize {
                    // Ask for the direct parent (e.g. SurveillanceService
                    // instead of RadarService): only subsumption finds it.
                    ont.parents(a.category).first().copied().unwrap_or(a.category)
                } else {
                    a.category
                };
                QueryPayload::Semantic(Arc::new(
                    ServiceRequest::for_category(category).with_provided_inputs(&[
                        classes.area_of_interest,
                        classes.unit_id,
                    ]),
                ))
            }
        }
    }
}

/// The pre-agreed service-type URI of a category class.
pub fn type_uri(ont: &Ontology, category: ClassId) -> String {
    format!("urn:svc:{}", ont.name(category))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taxonomy::battlefield;

    #[test]
    fn generates_requested_counts_in_each_model() {
        let (ont, classes) = battlefield();
        for model in [ModelId::Uri, ModelId::Template, ModelId::Semantic] {
            let w = Workload::generate(
                &ont,
                &classes,
                &PopulationSpec { model, services: 12, queries: 7, ..Default::default() },
            );
            assert_eq!(w.descriptions.len(), 12);
            assert_eq!(w.queries.len(), 7);
            assert!(w.descriptions.iter().all(|d| d.model() == model));
            assert!(w.queries.iter().all(|q| q.model() == model));
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let (ont, classes) = battlefield();
        let spec = PopulationSpec { seed: 42, ..Default::default() };
        let a = Workload::generate(&ont, &classes, &spec);
        let b = Workload::generate(&ont, &classes, &spec);
        assert_eq!(a.descriptions, b.descriptions);
        assert_eq!(a.queries, b.queries);
    }

    #[test]
    fn generalization_rate_controls_parent_queries() {
        let (ont, classes) = battlefield();
        let exact = Workload::generate(
            &ont,
            &classes,
            &PopulationSpec { generalization_rate: 0.0, queries: 30, seed: 1, ..Default::default() },
        );
        // With rate 0, every semantic query names a leaf archetype category.
        for q in &exact.queries {
            let QueryPayload::Semantic(r) = q else { panic!("semantic") };
            let cat = r.category.unwrap();
            assert!(
                ![classes.surveillance, classes.tracking, classes.service, classes.messaging,
                  classes.logistics]
                    .contains(&cat),
                "unexpected parent category {}",
                ont.name(cat)
            );
        }
        let general = Workload::generate(
            &ont,
            &classes,
            &PopulationSpec { generalization_rate: 1.0, queries: 30, seed: 1, ..Default::default() },
        );
        let parents = general
            .queries
            .iter()
            .filter(|q| {
                let QueryPayload::Semantic(r) = q else { return false };
                let cat = r.category.unwrap();
                [classes.surveillance, classes.tracking, classes.service, classes.messaging,
                 classes.logistics]
                    .contains(&cat)
            })
            .count();
        assert!(parents >= 25, "most queries generalized, got {parents}/30");
    }
}
