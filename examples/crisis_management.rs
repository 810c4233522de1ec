//! The paper's §1 motivating scenario: crisis management.
//!
//! "An example of a dynamic environment could be a crisis management
//! scenario where members from several agencies, potentially at different
//! locations, have to cooperate … These members carry with them various
//! devices that spontaneously form a network where application layer
//! services are offered."
//!
//! Three agency LANs (medical, fire, police) federate their registries; a
//! police commander discovers *any medical service* semantically across
//! agency boundaries, fetches the shared ontology in-band (no Internet
//! assumed), and the system keeps working when the fire agency's registry
//! vehicle is destroyed mid-operation.
//!
//! Run with: `cargo run -p semdisc-examples --bin crisis_management`

use std::sync::Arc;

use sds_core::{ClientConfig, ClientNode, QueryOptions, RegistryConfig, RegistryNode, ServiceConfig, ServiceNode};
use sds_protocol::{Description, DiscoveryMessage, QueryPayload};
use sds_semantic::{Artifact, ArtifactId, ArtifactKind, ServiceProfile, ServiceRequest, SubsumptionIndex};
use sds_simnet::{secs, Sim, SimConfig, Topology};
use sds_workload::crisis;

fn main() {
    let (ontology, c) = crisis();
    let index = Arc::new(SubsumptionIndex::build(&ontology));

    // Three agency LANs joined over a tactical WAN.
    let mut topology = Topology::new();
    let medical_lan = topology.add_lan();
    let fire_lan = topology.add_lan();
    let police_lan = topology.add_lan();
    let mut sim: Sim<DiscoveryMessage> = Sim::new(SimConfig::default(), topology, 7);

    // One registry per agency; the medical registry seeds the federation and
    // hosts the shared crisis ontology for disconnected clients.
    let ontology_artifact = Artifact {
        id: ArtifactId::new("crisis-ontology", 1),
        kind: ArtifactKind::Ontology,
        body: vec![0; 6_000],
    };
    let medical_reg = sim.add_node(
        medical_lan,
        Box::new(
            RegistryNode::new(RegistryConfig::default(), Some(index.clone()))
                .with_artifact(ontology_artifact.clone()),
        ),
    );
    // Every agency registry hosts the shared ontology (distributed with the
    // deployment, like the paper's standardized upper-level ontologies).
    let fire_reg = sim.add_node(
        fire_lan,
        Box::new(
            RegistryNode::new(
                RegistryConfig { seeds: vec![medical_reg], ..Default::default() },
                Some(index.clone()),
            )
            .with_artifact(ontology_artifact.clone()),
        ),
    );
    let _police_reg = sim.add_node(
        police_lan,
        Box::new(
            RegistryNode::new(
                RegistryConfig { seeds: vec![medical_reg], ..Default::default() },
                Some(index.clone()),
            )
            .with_artifact(ontology_artifact),
        ),
    );

    // Agency services.
    let mut add_service = |lan, name: &str, category, outputs: &[_]| {
        let profile = ServiceProfile::new(name, category).with_outputs(outputs);
        sim.add_node(
            lan,
            Box::new(ServiceNode::new(
                ServiceConfig::default(),
                vec![Description::Semantic(profile.into())],
                Some(index.clone()),
            )),
        )
    };
    add_service(medical_lan, "field-triage", c.triage, &[c.triage_report]);
    add_service(medical_lan, "ambulance-dispatch", c.ambulance_dispatch, &[]);
    add_service(fire_lan, "hazmat-team", c.hazmat, &[c.hazard_map]);
    add_service(fire_lan, "sar-drone", c.search_and_rescue, &[c.victim_location]);
    add_service(police_lan, "perimeter", c.perimeter_control, &[]);

    // The police commander's device.
    let commander = sim.add_node(police_lan, Box::new(ClientNode::new(ClientConfig::default())));
    sim.run_until(secs(3));

    // 1. In-band ontology fetch (no WWW/DNS in the field).
    sim.with_node::<ClientNode>(commander, |cl, ctx| {
        cl.fetch_artifact(ctx, "crisis-ontology");
    });

    // 2. "Get me any medical service" — subsumption finds triage AND
    //    ambulance dispatch, across agency LANs.
    sim.with_node::<ClientNode>(commander, |cl, ctx| {
        cl.issue_query(
            ctx,
            QueryPayload::Semantic(ServiceRequest::for_category(c.medical).into()),
            QueryOptions::default(),
        );
    });
    sim.run_until(secs(8));

    let client = sim.handler::<ClientNode>(commander).unwrap();
    let fetched = &client.artifacts[0];
    assert!(fetched.found, "police registry hosts the shared ontology");
    println!("ontology fetched in-band: {} ({} bytes)", fetched.name, fetched.size);
    let medical_hits = &client.completed[0];
    println!("medical services discovered across agencies:");
    for hit in &medical_hits.hits {
        let Description::Semantic(p) = &hit.advert.description else { unreachable!() };
        println!("  {} ({:?} match) from {}", p.name, hit.degree, hit.advert.provider);
    }
    assert_eq!(medical_hits.hits.len(), 2);

    // 3. The fire registry vehicle is destroyed; its SAR drone must find a
    //    new connection point (over the WAN) and stay discoverable.
    println!("\n-- fire registry destroyed at t=8s --");
    sim.crash_node(fire_reg);
    sim.run_until(secs(60));
    sim.with_node::<ClientNode>(commander, |cl, ctx| {
        cl.issue_query(
            ctx,
            QueryPayload::Semantic(ServiceRequest::for_category(c.search_and_rescue).into()),
            QueryOptions::default(),
        );
    });
    sim.run_until(secs(66));
    let client = sim.handler::<ClientNode>(commander).unwrap();
    let sar = &client.completed[1];
    println!("search-and-rescue still discoverable: {} hit(s)", sar.hits.len());
    assert_eq!(sar.hits.len(), 1, "SAR drone failed over to a surviving registry");
}
