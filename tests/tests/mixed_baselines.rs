//! Integration tests pitting the architecture against the baselines on the
//! same simulated worlds — the comparisons the paper makes qualitatively.

use std::sync::Arc;

use sds_baselines::{presets, ClusterRegistryNode, DhtConfig, DhtNode, WsProxyNode, WsServiceNode};
use sds_baselines::cluster::ClusterConfig;
use sds_core::{ClientConfig, ClientNode, QueryMode, QueryOptions, ServiceConfig, ServiceNode};
use sds_protocol::{Codec, Description, DiscoveryMessage, QueryPayload};
use sds_semantic::{ServiceProfile, ServiceRequest, SubsumptionIndex};
use sds_simnet::{secs, NodeId, Sim, SimConfig, Topology};
use sds_workload::battlefield;

#[test]
fn uddi_cluster_survives_replica_loss_but_serves_stale_data() {
    let mut topo = Topology::new();
    let lan = topo.add_lan();
    let mut sim: Sim<DiscoveryMessage> = Sim::new(SimConfig::default(), topo, 3);
    let r0 = sim.add_node(
        lan,
        Box::new(ClusterRegistryNode::new(
            ClusterConfig { replicas: vec![NodeId(1)], ..Default::default() },
            None,
        )),
    );
    let r1 = sim.add_node(
        lan,
        Box::new(ClusterRegistryNode::new(
            ClusterConfig { replicas: vec![NodeId(0)], ..Default::default() },
            None,
        )),
    );
    let svc = sim.add_node(
        lan,
        Box::new(ServiceNode::new(
            presets::uddi_service(r0),
            vec![Description::Uri("urn:svc:x".into())],
            None,
        )),
    );
    // The client is bound to replica r1 (load spreading).
    let client = sim.add_node(lan, Box::new(ClientNode::new(presets::centralized_client(r1))));
    sim.run_until(secs(2));

    // Replica r0 (the publish target) dies; r1 still answers from the
    // replicated copy — the cluster's strength.
    sim.crash_node(r0);
    sim.with_node::<ClientNode>(client, |c, ctx| {
        c.issue_query(ctx, QueryPayload::Uri("urn:svc:x".into()), QueryOptions::default());
    });
    sim.run_until(secs(8));
    assert_eq!(
        sim.handler::<ClientNode>(client).unwrap().completed[0].hits.len(),
        1,
        "replication survives replica loss"
    );

    // But when the SERVICE dies, the cluster serves it forever — the
    // lease-less weakness.
    sim.crash_node(svc);
    sim.run_until(secs(200));
    sim.with_node::<ClientNode>(client, |c, ctx| {
        c.issue_query(ctx, QueryPayload::Uri("urn:svc:x".into()), QueryOptions::default());
    });
    sim.run_until(secs(206));
    let done = &sim.handler::<ClientNode>(client).unwrap().completed;
    assert_eq!(done[1].hits.len(), 1, "stale advert still served 3 minutes after crash");
}

#[test]
fn wsdiscovery_proxy_and_core_client_interoperate() {
    // The WS-Discovery baseline reuses the generic protocol, so an
    // unmodified sds-core client can discover through the proxy — the
    // paper's "layered, coherent stack" argument in action.
    let mut topo = Topology::new();
    let lan = topo.add_lan();
    let mut sim: Sim<DiscoveryMessage> = Sim::new(SimConfig::default(), topo, 5);
    let _proxy = sim.add_node(lan, Box::new(WsProxyNode::new(None, secs(5), Codec::default())));
    let _svc = sim.add_node(
        lan,
        Box::new(WsServiceNode::new(
            vec![Description::Uri("urn:svc:printer".into())],
            None,
            Codec::default(),
        )),
    );
    let client = sim.add_node(lan, Box::new(ClientNode::new(ClientConfig::default())));
    sim.run_until(secs(1));
    sim.with_node::<ClientNode>(client, |c, ctx| {
        c.issue_query(ctx, QueryPayload::Uri("urn:svc:printer".into()), QueryOptions::default());
    });
    sim.run_until(secs(6));
    assert_eq!(sim.handler::<ClientNode>(client).unwrap().completed[0].hits.len(), 1);
}

#[test]
fn dht_and_core_service_nodes_interoperate_for_exact_keys() {
    let (ont, classes) = battlefield();
    let idx = Arc::new(SubsumptionIndex::build(&ont));
    let mut topo = Topology::new();
    let lans: Vec<_> = (0..3).map(|_| topo.add_lan()).collect();
    let mut sim: Sim<DiscoveryMessage> = Sim::new(SimConfig::default(), topo, 6);
    let members: Vec<NodeId> = (0..3u32).map(NodeId).collect();
    for &lan in &lans {
        sim.add_node(
            lan,
            Box::new(DhtNode::new(DhtConfig {
                members: members.clone(),
                beacon_interval: secs(5),
                codec: Codec::default(),
            })),
        );
    }
    // A core service node publishes a semantic profile through the DHT.
    sim.add_node(
        lans[0],
        Box::new(ServiceNode::new(
            ServiceConfig::default(),
            vec![Description::Semantic(ServiceProfile::new("radar", classes.radar_service).into())],
            Some(idx.clone()),
        )),
    );
    let client = sim.add_node(lans[2], Box::new(ClientNode::new(ClientConfig::default())));
    sim.run_until(secs(2));

    // Exact category key: resolvable. Parent category: not.
    sim.with_node::<ClientNode>(client, |c, ctx| {
        c.issue_query(
            ctx,
            QueryPayload::Semantic(ServiceRequest::for_category(classes.radar_service).into()),
            QueryOptions::default(),
        );
        c.issue_query(
            ctx,
            QueryPayload::Semantic(ServiceRequest::for_category(classes.surveillance).into()),
            QueryOptions::default(),
        );
    });
    sim.run_until(secs(8));
    let done = &sim.handler::<ClientNode>(client).unwrap().completed;
    let exact = done.iter().find(|q| q.seq == 0).unwrap();
    let parent = done.iter().find(|q| q.seq == 1).unwrap();
    assert_eq!(exact.hits.len(), 1);
    assert_eq!(parent.hits.len(), 0, "hash index cannot subsume");
}

#[test]
fn multicast_query_mode_shows_implosion_without_registry() {
    // 12 identical providers, no registry: a multicast query triggers one
    // response per provider at the client.
    let mut topo = Topology::new();
    let lan = topo.add_lan();
    let mut sim: Sim<DiscoveryMessage> = Sim::new(SimConfig::default(), topo, 8);
    for _ in 0..12 {
        sim.add_node(
            lan,
            Box::new(ServiceNode::new(
                presets::decentralized_service(),
                vec![Description::Uri("urn:svc:chat".into())],
                None,
            )),
        );
    }
    let client =
        sim.add_node(lan, Box::new(ClientNode::new(presets::decentralized_client())));
    sim.run_until(secs(1));
    sim.with_node::<ClientNode>(client, |c, ctx| {
        c.issue_query(
            ctx,
            QueryPayload::Uri("urn:svc:chat".into()),
            QueryOptions { mode: QueryMode::MulticastLan, ..Default::default() },
        );
    });
    sim.run_until(secs(6));
    let q = &sim.handler::<ClientNode>(client).unwrap().completed[0];
    assert_eq!(q.responses_received, 12, "response implosion");
    assert_eq!(q.hits.len(), 12);
}
