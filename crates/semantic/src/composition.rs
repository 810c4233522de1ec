//! Service composition planning.
//!
//! "To reduce the load on limited devices, service selection, mediator
//! selection, **composition** and reasoning support in registries may be
//! needed" (paper §4.3). When no single service satisfies a request, a
//! registry can propose a *chain*: service A's outputs feed service B's
//! inputs until the requested outputs are producible.
//!
//! The planner is forward chaining over the subsumption index (a relaxed
//! planning-graph reachability pass) followed by a backward extraction of
//! the steps actually needed. Concept satisfaction is deliverability: an
//! available concept `A` satisfies a needed concept `N` when `A ⊑ N`
//! (what you hold *is a* N).

use std::borrow::Borrow;

use crate::matchmaker::Degree;
use crate::ontology::ClassId;
use crate::profile::{QosConstraint, ServiceProfile, ServiceRequest};
use crate::reasoner::SubsumptionIndex;

/// A proposed chain of services, in execution order, with the level at
/// which each became applicable.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CompositionPlan {
    /// Indices into the candidate profile slice, in execution order.
    pub steps: Vec<usize>,
}

impl CompositionPlan {
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

fn satisfies(idx: &SubsumptionIndex, available: &[ClassId], needed: ClassId) -> bool {
    available.iter().any(|&a| idx.is_subclass(a, needed))
}

fn qos_ok(profile: &ServiceProfile, constraints: &[QosConstraint]) -> bool {
    constraints.iter().all(|c| profile.qos_value(c.key).is_some_and(|v| c.accepts(v)))
}

/// Finds a service chain answering `request` from `profiles`, or `None`.
///
/// Semantics:
/// * the chain may use each profile at most once and at most `max_depth`
///   chaining levels;
/// * a profile is applicable at a level when all its inputs are satisfied by
///   the request's `provided_inputs` plus outputs of earlier levels;
/// * the goal is reached when every requested output is satisfied;
/// * the request's category (if any) must subsume the category of at least
///   one step — the chain as a whole must "be" the kind of service asked
///   for;
/// * QoS constraints apply to every step (weakest-link, like matching).
///
/// A single-service plan is returned when one profile suffices, so this
/// strictly generalizes plain matching on the I/O level. `profiles` may hold
/// owned profiles or any shared handle to them (`&ServiceProfile`,
/// `Arc<ServiceProfile>`), so callers never copy descriptions to plan.
///
/// ```
/// use sds_semantic::{compose, Ontology, ServiceProfile, ServiceRequest, SubsumptionIndex};
///
/// let mut o = Ontology::new();
/// let aoi = o.class("AreaOfInterest", &[]);
/// let raw = o.class("RawData", &[]);
/// let track = o.class("Track", &[]);
/// let svc = o.class("Service", &[]);
/// let idx = SubsumptionIndex::build(&o);
///
/// let profiles = vec![
///     ServiceProfile::new("sensor", svc).with_inputs(&[aoi]).with_outputs(&[raw]),
///     ServiceProfile::new("fusion", svc).with_inputs(&[raw]).with_outputs(&[track]),
/// ];
/// let req = ServiceRequest::default().with_outputs(&[track]).with_provided_inputs(&[aoi]);
/// let plan = compose(&idx, &req, &profiles, 4).expect("two-step chain");
/// assert_eq!(plan.steps, vec![0, 1]);
/// ```
pub fn compose<P: Borrow<ServiceProfile>>(
    idx: &SubsumptionIndex,
    request: &ServiceRequest,
    profiles: &[P],
    max_depth: usize,
) -> Option<CompositionPlan> {
    let profiles: Vec<&ServiceProfile> = profiles.iter().map(Borrow::borrow).collect();
    // Forward reachability: which profiles fire, at which level, and what
    // concepts become available.
    let mut available: Vec<ClassId> = request.provided_inputs.clone();
    let mut fired: Vec<Option<usize>> = vec![None; profiles.len()]; // level fired
    let mut level = 0usize;
    loop {
        if request.outputs.iter().all(|&o| satisfies(idx, &available, o)) && level > 0 {
            break;
        }
        if level >= max_depth {
            // Also allow goal-check before any firing for output-less
            // requests (handled below).
            break;
        }
        let mut fired_any = false;
        for (i, p) in profiles.iter().enumerate() {
            if fired[i].is_some() || !qos_ok(p, &request.qos) {
                continue;
            }
            let applicable = p.inputs.iter().all(|&inp| satisfies(idx, &available, inp));
            if applicable {
                fired[i] = Some(level);
                fired_any = true;
            }
        }
        if !fired_any {
            break;
        }
        for (i, p) in profiles.iter().enumerate() {
            if fired[i] == Some(level) {
                available.extend_from_slice(&p.outputs);
            }
        }
        level += 1;
    }

    // Goal reachable?
    if !request.outputs.iter().all(|&o| satisfies(idx, &available, o)) {
        return None;
    }

    // Backward extraction: start from the concepts needed for the goal and
    // pull in producers level by level.
    let mut needed: Vec<ClassId> = request.outputs.clone();
    let mut chosen: Vec<usize> = Vec::new();
    let provided = &request.provided_inputs;
    for lvl in (0..level).rev() {
        // Which needed concepts are not already satisfied by raw inputs or
        // by outputs of strictly earlier levels?
        let earlier_available: Vec<ClassId> = provided
            .iter()
            .copied()
            .chain(
                profiles
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| fired[*i].is_some_and(|l| l < lvl))
                    .flat_map(|(_, p)| p.outputs.iter().copied()),
            )
            .collect();
        let missing: Vec<ClassId> = needed
            .iter()
            .copied()
            .filter(|&n| !satisfies(idx, &earlier_available, n))
            .collect();
        if missing.is_empty() {
            continue;
        }
        // Choose level-`lvl` producers covering the missing concepts.
        for &m in &missing {
            let producer = profiles.iter().enumerate().find(|(i, p)| {
                fired[*i] == Some(lvl)
                    && !chosen.contains(i)
                    && p.outputs.iter().any(|&o| idx.is_subclass(o, m))
            });
            if let Some((i, p)) = producer {
                chosen.push(i);
                needed.extend_from_slice(&p.inputs);
            } else if !chosen.iter().any(|&c| {
                fired[c] == Some(lvl) && profiles[c].outputs.iter().any(|&o| idx.is_subclass(o, m))
            }) {
                // No producer at this level; an earlier level covers it.
                continue;
            }
        }
    }
    chosen.sort_by_key(|&i| fired[i]);

    // Category constraint: some step must be of the requested kind.
    if let Some(cat) = request.category {
        let is_kind =
            |i: usize| crate::matchmaker::match_concept(idx, cat, profiles[i].category) != Degree::Fail;
        if chosen.is_empty() {
            // Category-only request (or outputs already in hand): pick one
            // applicable profile of the right kind.
            let i = (0..profiles.len()).find(|&i| fired[i].is_some() && is_kind(i))?;
            chosen.push(i);
        } else if !chosen.iter().any(|&i| is_kind(i)) {
            return None;
        }
    }

    if chosen.is_empty() && !request.outputs.is_empty() {
        // Outputs were satisfiable directly from provided inputs — an empty
        // plan; report it as such.
        return Some(CompositionPlan { steps: Vec::new() });
    }
    Some(CompositionPlan { steps: chosen })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ontology::Ontology;
    use crate::profile::QosKey;

    struct World {
        idx: SubsumptionIndex,
        aoi: ClassId,
        raw: ClassId,
        radar_raw: ClassId,
        track: ClassId,
        threat: ClassId,
        svc: ClassId,
        sensor_svc: ClassId,
        fusion_svc: ClassId,
        assess_svc: ClassId,
    }

    fn world() -> World {
        let mut o = Ontology::new();
        let thing = o.class("Thing", &[]);
        let aoi = o.class("AreaOfInterest", &[thing]);
        let raw = o.class("RawSensorData", &[thing]);
        let radar_raw = o.class("RadarRaw", &[raw]);
        let track = o.class("Track", &[thing]);
        let threat = o.class("ThreatAssessment", &[thing]);
        let svc = o.class("Service", &[thing]);
        let sensor_svc = o.class("SensorService", &[svc]);
        let fusion_svc = o.class("FusionService", &[svc]);
        let assess_svc = o.class("AssessmentService", &[svc]);
        World {
            idx: SubsumptionIndex::build(&o),
            aoi,
            raw,
            radar_raw,
            track,
            threat,
            svc,
            sensor_svc,
            fusion_svc,
            assess_svc,
        }
    }

    fn chainable_profiles(w: &World) -> Vec<ServiceProfile> {
        vec![
            // 0: radar produces RadarRaw from an AOI.
            ServiceProfile::new("radar", w.sensor_svc)
                .with_inputs(&[w.aoi])
                .with_outputs(&[w.radar_raw]),
            // 1: fusion turns raw sensor data into tracks.
            ServiceProfile::new("fusion", w.fusion_svc)
                .with_inputs(&[w.raw])
                .with_outputs(&[w.track]),
            // 2: assessment turns tracks into threat assessments.
            ServiceProfile::new("assess", w.assess_svc)
                .with_inputs(&[w.track])
                .with_outputs(&[w.threat]),
            // 3: unrelated chat service.
            ServiceProfile::new("chat", w.svc),
        ]
    }

    #[test]
    fn three_step_chain_is_found_in_order() {
        let w = world();
        let profiles = chainable_profiles(&w);
        // Client holds only an AOI and wants a ThreatAssessment — no single
        // service does that.
        let req = ServiceRequest::default()
            .with_outputs(&[w.threat])
            .with_provided_inputs(&[w.aoi]);
        let plan = compose(&w.idx, &req, &profiles, 5).expect("chain exists");
        assert_eq!(plan.steps, vec![0, 1, 2], "radar → fusion → assess");
    }

    #[test]
    fn chaining_uses_subsumption_between_steps() {
        // fusion needs RawSensorData; radar supplies RadarRaw ⊑ RawSensorData.
        let w = world();
        let profiles = chainable_profiles(&w);
        let req = ServiceRequest::default()
            .with_outputs(&[w.track])
            .with_provided_inputs(&[w.aoi]);
        let plan = compose(&w.idx, &req, &profiles, 5).unwrap();
        assert_eq!(plan.steps, vec![0, 1]);
    }

    #[test]
    fn single_service_plan_when_one_suffices() {
        let w = world();
        let profiles = chainable_profiles(&w);
        let req = ServiceRequest::default()
            .with_outputs(&[w.track])
            .with_provided_inputs(&[w.radar_raw]);
        let plan = compose(&w.idx, &req, &profiles, 5).unwrap();
        assert_eq!(plan.steps, vec![1], "fusion alone");
    }

    #[test]
    fn unreachable_goal_returns_none() {
        let w = world();
        let profiles = chainable_profiles(&w);
        // No AOI provided: the radar can never fire.
        let req = ServiceRequest::default().with_outputs(&[w.threat]);
        assert_eq!(compose(&w.idx, &req, &profiles, 5), None);
    }

    #[test]
    fn depth_limit_is_respected() {
        let w = world();
        let profiles = chainable_profiles(&w);
        let req = ServiceRequest::default()
            .with_outputs(&[w.threat])
            .with_provided_inputs(&[w.aoi]);
        assert_eq!(compose(&w.idx, &req, &profiles, 2), None, "needs 3 levels");
        assert!(compose(&w.idx, &req, &profiles, 3).is_some());
    }

    #[test]
    fn category_constraint_applies_to_the_chain() {
        let w = world();
        let profiles = chainable_profiles(&w);
        let req = ServiceRequest::for_category(w.assess_svc)
            .with_outputs(&[w.threat])
            .with_provided_inputs(&[w.aoi]);
        assert!(compose(&w.idx, &req, &profiles, 5).is_some());
        // Asking for a SensorService that produces threats: no step chain
        // can claim that category AND the goal is produced by assess — the
        // chain still contains the radar (a SensorService), so it passes;
        // but a category absent from every fired profile fails.
        let mut o2 = Ontology::new();
        let alien = o2.class("Alien", &[]);
        let _ = alien;
        let req_bad = ServiceRequest::for_category(ClassId(9_999));
        // Out-of-range category would panic in is_subclass; use an unrelated
        // in-range one instead: Track is not a service category.
        let req_bad = ServiceRequest { category: Some(w.track), ..req_bad };
        let req_bad = ServiceRequest {
            outputs: vec![w.threat],
            provided_inputs: vec![w.aoi],
            ..req_bad
        };
        assert_eq!(compose(&w.idx, &req_bad, &profiles, 5), None);
    }

    #[test]
    fn qos_constraints_filter_steps() {
        let w = world();
        let mut profiles = chainable_profiles(&w);
        profiles[1] = profiles[1].clone().with_qos(QosKey::Accuracy, 0.6);
        let req = ServiceRequest::default()
            .with_outputs(&[w.track])
            .with_provided_inputs(&[w.aoi])
            .with_qos(QosKey::Accuracy, 0.9);
        // Fusion declares 0.6 < 0.9 and radar declares nothing: both fail
        // the QoS floor, so no chain.
        assert_eq!(compose(&w.idx, &req, &profiles, 5), None);
        // Relax the floor below fusion's declared accuracy, and declare
        // accuracy on the radar too.
        profiles[0] = profiles[0].clone().with_qos(QosKey::Accuracy, 0.7);
        let req_ok = ServiceRequest::default()
            .with_outputs(&[w.track])
            .with_provided_inputs(&[w.aoi])
            .with_qos(QosKey::Accuracy, 0.5);
        assert!(compose(&w.idx, &req_ok, &profiles, 5).is_some());
    }

    #[test]
    fn goal_satisfied_by_inputs_gives_empty_plan() {
        let w = world();
        let profiles = chainable_profiles(&w);
        let req = ServiceRequest::default()
            .with_outputs(&[w.raw])
            .with_provided_inputs(&[w.radar_raw]);
        let plan = compose(&w.idx, &req, &profiles, 5).unwrap();
        assert!(plan.is_empty(), "RadarRaw ⊑ RawSensorData already in hand");
    }
}
