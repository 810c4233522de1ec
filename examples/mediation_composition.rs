//! Registry support services (paper §4.3): vocabulary mediation and service
//! composition.
//!
//! "To reduce the load on limited devices, service selection, mediator
//! selection, composition and reasoning support in registries may be
//! needed."
//!
//! Part 1 — composition: the client wants a `ThreatAssessment` from an
//! `AreaOfInterest`, which no single service provides; the registry plans a
//! radar → fusion → assessment chain over the protocol.
//!
//! Part 2 — mediation: two coalition partners model the same domain with
//! different ontologies; a `ClassMapping` (the kind of ontology-mapping
//! artifact registries host, §4.6) lets partner A's request match partner
//! B's profiles.
//!
//! Run with: `cargo run -p semdisc-examples --bin mediation_composition`

use std::sync::Arc;

use sds_core::{ClientConfig, ClientNode, RegistryConfig, RegistryNode, ServiceConfig, ServiceNode};
use sds_protocol::{Description, DiscoveryMessage};
use sds_semantic::{
    ClassMapping, Degree, Mediator, Ontology, ServiceProfile, ServiceRequest, SubsumptionIndex,
};
use sds_simnet::{secs, Sim, SimConfig, Topology};

fn composition_demo() {
    println!("== composition: planning a service chain at the registry ==");
    let mut o = Ontology::new();
    let thing = o.class("Thing", &[]);
    let aoi = o.class("AreaOfInterest", &[thing]);
    let raw = o.class("RawSensorData", &[thing]);
    let radar_raw = o.class("RadarRaw", &[raw]);
    let track = o.class("Track", &[thing]);
    let threat = o.class("ThreatAssessment", &[thing]);
    let svc = o.class("Service", &[thing]);
    let idx = Arc::new(SubsumptionIndex::build(&o));

    let mut topo = Topology::new();
    let lan = topo.add_lan();
    let mut sim: Sim<DiscoveryMessage> = Sim::new(SimConfig::default(), topo, 3);
    sim.add_node(lan, Box::new(RegistryNode::new(RegistryConfig::default(), Some(idx.clone()))));
    let chain_specs: [(&str, &[_], &[_]); 3] = [
        ("radar", &[aoi][..], &[radar_raw][..]),
        ("fusion", &[raw][..], &[track][..]),
        ("assessment", &[track][..], &[threat][..]),
    ];
    for (name, inputs, outputs) in chain_specs {
        sim.add_node(
            lan,
            Box::new(ServiceNode::new(
                ServiceConfig::default(),
                vec![Description::Semantic(
                    ServiceProfile::new(name, svc).with_inputs(inputs).with_outputs(outputs).into(),
                )],
                Some(idx.clone()),
            )),
        );
    }
    let client = sim.add_node(lan, Box::new(ClientNode::new(ClientConfig::default())));
    sim.run_until(secs(1));
    sim.with_node::<ClientNode>(client, |c, ctx| {
        c.request_composition(
            ctx,
            ServiceRequest::default().with_outputs(&[threat]).with_provided_inputs(&[aoi]),
            5,
        );
    });
    sim.run_until(secs(3));
    let plan = &sim.handler::<ClientNode>(client).unwrap().compositions[0];
    assert!(plan.found);
    println!("requested: ThreatAssessment, holding only an AreaOfInterest");
    println!("planned chain ({} steps):", plan.chain.len());
    for (i, advert) in plan.chain.iter().enumerate() {
        let Description::Semantic(p) = &advert.description else { unreachable!() };
        println!("  {}. {} (provider {})", i + 1, p.name, advert.provider);
    }
}

fn mediation_demo() {
    println!("\n== mediation: matching across coalition vocabularies ==");
    // Partner A: "UAV" vocabulary.
    let mut a = Ontology::new();
    let a_thing = a.class("A:Thing", &[]);
    let a_uav = a.class("A:UAVService", &[a_thing]);
    let a_recon = a.class("A:ReconUAV", &[a_uav]);
    let a_imagery = a.class("A:Imagery", &[a_thing]);

    // Partner B: "Drone" vocabulary, organized differently.
    let mut b = Ontology::new();
    let b_thing = b.class("B:Thing", &[]);
    let b_svc = b.class("B:Service", &[b_thing]);
    let b_drone = b.class("B:DroneService", &[b_svc]);
    let b_survey = b.class("B:SurveyDrone", &[b_drone]);
    let b_photo = b.class("B:Photo", &[b_thing]);

    // The alignment artifact both sides agreed on.
    let mapping = ClassMapping::new()
        .with(a_uav, b_drone)
        .with(a_recon, b_survey)
        .with(a_imagery, b_photo);

    let idx_b = SubsumptionIndex::build(&b);
    let mediator = Mediator::new(&mapping, &idx_b);

    // B's local profile, A's request in A's own words.
    let profile = ServiceProfile::new("survey-drone-7", b_survey).with_outputs(&[b_photo]);
    let request = ServiceRequest::for_category(a_uav).with_outputs(&[a_imagery]);

    let verdict = mediator.mediated_match(&request, &profile).expect("fully aligned");
    println!("A asks (A-vocabulary): any A:UAVService producing A:Imagery");
    println!("B offers (B-vocabulary): survey-drone-7 — B:SurveyDrone producing B:Photo");
    println!("mediated verdict: {:?} (distance {})", verdict.degree, verdict.distance);
    assert_eq!(verdict.degree, Degree::PlugIn);

    // An unmapped concept is a mediation *miss*, reported as such — the
    // "additional translation or mediation service may be needed" signal.
    let unmapped = ServiceRequest::for_category(a_thing);
    assert!(mediator.mediated_match(&unmapped, &profile).is_none());
    println!("request using the unmapped concept A:Thing → mediation reports a gap (None)");
}

fn main() {
    composition_demo();
    mediation_demo();
}
