//! Quickstart: one LAN, one registry, one semantic service, one client.
//!
//! Shows the whole public API surface in ~80 lines: build an ontology and
//! its subsumption index, stand up a simulated LAN, run a registry node,
//! publish an OWL-S-style profile from a service node, and discover it from
//! a client with a subsumption query ("any Sensor data will do").
//!
//! Run with: `cargo run -p semdisc-examples --bin quickstart`

use std::sync::Arc;

use sds_core::{ClientConfig, ClientNode, QueryOptions, RegistryConfig, RegistryNode, ServiceConfig, ServiceNode};
use sds_protocol::{Description, DiscoveryMessage, QueryPayload};
use sds_semantic::{Ontology, ServiceProfile, ServiceRequest, SubsumptionIndex};
use sds_simnet::{secs, Sim, SimConfig, Topology};

fn main() {
    // 1. The shared semantic model: a tiny sensor taxonomy.
    let mut ontology = Ontology::new();
    let thing = ontology.class("Thing", &[]);
    let sensor_data = ontology.class("SensorData", &[thing]);
    let radar_data = ontology.class("RadarData", &[sensor_data]);
    let service = ontology.class("Service", &[thing]);
    let index = Arc::new(SubsumptionIndex::build(&ontology));

    // 2. A simulated world: one LAN.
    let mut topology = Topology::new();
    let lan = topology.add_lan();
    let mut sim: Sim<DiscoveryMessage> = Sim::new(SimConfig::default(), topology, 42);

    // 3. The three roles of the architecture.
    let _registry = sim.add_node(
        lan,
        Box::new(RegistryNode::new(RegistryConfig::default(), Some(index.clone()))),
    );
    let radar_profile = ServiceProfile::new("radar-feed", service).with_outputs(&[radar_data]);
    let _service = sim.add_node(
        lan,
        Box::new(ServiceNode::new(
            ServiceConfig::default(),
            vec![Description::Semantic(radar_profile.into())],
            Some(index.clone()),
        )),
    );
    let client = sim.add_node(lan, Box::new(ClientNode::new(ClientConfig::default())));

    // 4. Let discovery and publishing happen (multicast probe, beacon,
    //    publish + lease), then query for the *parent* concept.
    sim.run_until(secs(1));
    sim.with_node::<ClientNode>(client, |c, ctx| {
        let request = ServiceRequest::default().with_outputs(&[sensor_data]);
        c.issue_query(ctx, QueryPayload::Semantic(request.into()), QueryOptions::default());
    });
    sim.run_until(secs(5));

    // 5. Read the result: the RadarData producer matched by subsumption.
    let completed = &sim.handler::<ClientNode>(client).unwrap().completed[0];
    println!("query finished after {} ms (simulated)", completed.finished_at - completed.sent_at);
    for hit in &completed.hits {
        let Description::Semantic(profile) = &hit.advert.description else { unreachable!() };
        println!(
            "  hit: {:?} from provider {} — degree {:?} (asked for SensorData, got {})",
            profile.name,
            hit.advert.provider,
            hit.degree,
            ontology.name(profile.outputs[0]),
        );
    }
    assert_eq!(completed.hits.len(), 1, "the radar feed should be discovered");
    println!(
        "total traffic: {} messages, {} bytes",
        sim.stats().total_messages(),
        sim.stats().total_bytes()
    );
}
