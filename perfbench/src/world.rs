//! The four worlds and their two assemblies.
//!
//! The untraced world is `Scenario::build` itself. The traced world is the
//! same assembly step for step — same node order, hence the same node ids,
//! the same seeds and the same role configurations — with every role
//! wrapped in [`Traced`]. The outcome digest compared between the two runs
//! proves the assemblies match.

use std::sync::Arc;

use sds_core::{
    AttachConfig, Bootstrap, ClientConfig, ClientNode, ForwardStrategy, OverloadPolicy, QueryMode,
    QueryOptions, RegistryNode, RetryPolicy, ServiceConfig, ServiceNode,
};
use sds_protocol::{DiscoveryMessage, ModelId, QueryPayload};
use sds_semantic::SubsumptionIndex;
use sds_simnet::{secs, LanId, NodeCapacity, NodeHandler, NodeId, Sim, SimTime, Topology};
use sds_workload::{
    battlefield, ChurnPlan, Deployment, Oracle, PopulationSpec, Scenario, ScenarioConfig, Workload,
};

use crate::schedule::{FlashShape, Schedule};
use crate::trace::{Traced, TracedRole};

pub const WORKLOADS: [&str; 4] = ["metro_query", "churn_sync", "lan_fallback", "flash_crowd"];

/// Seed of every world's service population and query templates. The
/// deployed world is part of a workload's definition; `--seed` draws the
/// traffic on it (who asks what, when), the churn and flash-crowd plans
/// and the simulator's link randomness. A population drawn per run seed
/// would move bytes and work per discovery by 10-40% between seeds
/// (64 query templates are too few to average out), which would mask the
/// changes the benchmark exists to detect.
const POPULATION_SEED: u64 = 0;

/// How the world's discoveries arrive.
#[derive(Clone, Debug)]
pub enum Traffic {
    /// A steady stream: `discoveries` evenly spread over every `span` of
    /// sim time.
    Steady { discoveries: u64, span: SimTime },
    /// Repeated flash-crowd cycles; one cycle is one measurement window.
    Flash(FlashShape),
}

/// Exponential provider churn.
#[derive(Clone, Copy, Debug)]
pub struct Churn {
    pub mean_up_ms: f64,
    pub mean_down_ms: f64,
}

/// Output checks beyond the ones every world gets.
#[derive(Clone, Copy, Debug, Default)]
pub struct Gates {
    /// Every discovery returns every live matching provider.
    pub full_recall: bool,
    /// Every hit comes from the client's own LAN.
    pub same_lan: bool,
    /// O1's invariants: no advert is purged by lease expiry through the
    /// first storm (O1's one storm on a calm, converged world), and every
    /// recovery probe has full recall.
    pub overload_invariants: bool,
}

/// One workload: a world, its traffic, its phases and its checks.
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub cfg: ScenarioConfig,
    /// Quiet start-up (attachment, publishing, federation) before traffic.
    pub attach: SimTime,
    /// Installed on every registry when the quiet start-up ends.
    pub capacity: Option<NodeCapacity>,
    pub churn: Option<Churn>,
    pub traffic: Traffic,
    pub demand: QueryOptions,
    pub probe: QueryOptions,
    /// Sim length of one measurement window.
    pub window: SimTime,
    /// Windows of traffic before timing starts.
    pub warmup_windows: u64,
    /// The leading measured windows that deterministic metrics score.
    pub scored_windows: u64,
    /// Hard cap on measured windows (bounds the churn plan's horizon).
    pub max_windows: u64,
    /// Clients issue only queries that some provider on their own LAN
    /// answers (registry-less worlds: multicast reach is the LAN).
    pub lan_reach: bool,
    pub gates: Gates,
}

/// One discovery per client per query deadline: on average each client has
/// at most one discovery in flight, the pacing every experiment in the
/// repository uses (`run_query_phase` spaces a client's queries by more
/// than their timeout). It is also O1's baseline demand of 20 discoveries
/// per second over a LAN's 40 clients, one per client per 2 s. With the
/// default 3 s deadline that the steady worlds use, 48 clients ask 16
/// discoveries per second.
fn one_per_client_per_deadline(clients: usize) -> Traffic {
    Traffic::Steady {
        discoveries: clients as u64,
        span: QueryOptions::default().timeout,
    }
}

impl Spec {
    pub fn new(name: &str, seed: u64) -> Option<Spec> {
        let population = |lans: usize, per_lan: usize| PopulationSpec {
            model: ModelId::Semantic,
            services: lans * per_lan,
            queries: 64,
            generalization_rate: 0.5,
            seed: POPULATION_SEED,
        };
        let base = |lans: usize, clients_per_lan: usize, per_lan: usize| ScenarioConfig {
            lans,
            clients_per_lan,
            deployment: Deployment::Federated {
                registries_per_lan: 1,
            },
            population: population(lans, per_lan),
            seed,
            ..ScenarioConfig::default()
        };
        let spec = match name {
            // The read path on the default production configuration.
            "metro_query" => Spec {
                name: "metro_query",
                cfg: base(12, 4, 10),
                attach: secs(10),
                capacity: None,
                churn: None,
                traffic: one_per_client_per_deadline(12 * 4),
                demand: QueryOptions::default(),
                probe: QueryOptions::default(),
                window: secs(10),
                // Registry state (seen query ids, cached answers) fills
                // within the 30 s seen-id retention; seven windows cover it
                // twice over.
                warmup_windows: 7,
                scored_windows: 90,
                max_windows: 5_000,
                lan_reach: false,
                gates: Gates {
                    full_recall: true,
                    ..Gates::default()
                },
            },
            // The write path: the same federation under heavy churn with
            // short leases and a trickle of queries.
            "churn_sync" => {
                let mut cfg = base(12, 2, 20);
                cfg.service.lease_ms = 6_000;
                cfg.service.renew_interval = secs(2);
                Spec {
                    name: "churn_sync",
                    cfg,
                    attach: secs(10),
                    capacity: None,
                    churn: Some(Churn {
                        mean_up_ms: 20_000.0,
                        mean_down_ms: 10_000.0,
                    }),
                    // Sized in the traced run: at 2 discoveries per second,
                    // publish, renew, purge and sync handlers take most of
                    // the registries' handler time.
                    traffic: Traffic::Steady {
                        discoveries: 2,
                        span: secs(1),
                    },
                    demand: QueryOptions::default(),
                    probe: QueryOptions::default(),
                    window: secs(10),
                    warmup_windows: 4,
                    scored_windows: 60,
                    max_windows: 1_000,
                    lan_reach: false,
                    gates: Gates::default(),
                }
            }
            // Registry-less LANs: clients multicast, providers answer.
            "lan_fallback" => Spec {
                name: "lan_fallback",
                cfg: ScenarioConfig {
                    deployment: Deployment::Decentralized,
                    ..base(8, 4, 20)
                },
                attach: secs(2),
                capacity: None,
                churn: None,
                traffic: one_per_client_per_deadline(8 * 4),
                demand: QueryOptions::default(),
                probe: QueryOptions::default(),
                window: secs(10),
                warmup_windows: 10,
                scored_windows: 60,
                max_windows: 50_000,
                lan_reach: true,
                gates: Gates {
                    same_lan: true,
                    ..Gates::default()
                },
            },
            // O1's layered world at quick scale under a 10x flash crowd.
            "flash_crowd" => flash_crowd(seed),
            _ => return None,
        };
        Some(spec)
    }

    /// The discovery schedule of a world built from this spec.
    pub fn schedule(&self, s: &Scenario) -> Schedule {
        let start = self.attach;
        match &self.traffic {
            Traffic::Steady { discoveries, span } => {
                let pairs = eligible_pairs(s, self.lan_reach);
                Schedule::steady(start, *discoveries, *span, pairs, self.cfg.seed)
            }
            Traffic::Flash(shape) => {
                Schedule::flash(start, shape.clone(), s.queries.len(), self.cfg.seed)
            }
        }
    }

    pub fn options(&self, probe: bool) -> &QueryOptions {
        if probe {
            &self.probe
        } else {
            &self.demand
        }
    }

    /// Last sim instant the churn plan must cover.
    fn horizon(&self) -> SimTime {
        self.attach + (self.warmup_windows + self.max_windows + 2) * self.window
    }
}

/// O1's quick shape, repeated: 20 baseline discoveries per LAN per demand
/// event (200 in the storm) against a ladder budget of 40 operations per
/// 200 ms. About a third of the discoveries miss their 4 s deadline; they
/// count as failed and lower `goodput`.
fn flash_crowd(seed: u64) -> Spec {
    const LANS: usize = 12;
    const CLIENTS_PER_LAN: usize = 40;
    let shape = FlashShape {
        lans: LANS,
        clients_per_lan: CLIENTS_PER_LAN,
        base_per_lan: 20,
        surge: 10,
        interval: 997,
        storm_start: secs(10),
        storm_end: secs(20),
        demand_horizon: secs(30),
        recovery_bound: secs(30),
        probes: 64,
        probe_spacing: 250,
        cycle: secs(70),
    };
    let registry = sds_core::RegistryConfig {
        overload: OverloadPolicy {
            busy_renewal_pct: 1_000,
            retry_jitter: 380,
            ..OverloadPolicy::standard(40)
        },
        ..Default::default()
    };
    let mut cfg = ScenarioConfig {
        lans: LANS,
        clients_per_lan: CLIENTS_PER_LAN,
        deployment: Deployment::Federated {
            registries_per_lan: 1,
        },
        population: PopulationSpec {
            model: ModelId::Semantic,
            services: LANS * 10,
            queries: 96,
            generalization_rate: 0.3,
            seed: POPULATION_SEED,
        },
        seed,
        registry,
        retry: Some(RetryPolicy {
            jitter: 400,
            ..RetryPolicy::standard()
        }),
        ..Default::default()
    };
    cfg.client.attach.ping_interval = 0;
    cfg.service.attach.ping_interval = 0;
    cfg.client.hedge_after_busy = 2;
    Spec {
        name: "flash_crowd",
        cfg,
        attach: 15_250,
        capacity: Some(NodeCapacity {
            ops_per_tick: 1,
            queue_limit: 32,
        }),
        churn: None,
        window: shape.cycle,
        traffic: Traffic::Flash(shape),
        demand: QueryOptions {
            max_responses: Some(8),
            ttl: 0,
            timeout: secs(4),
            mode: QueryMode::Unicast,
        },
        probe: QueryOptions {
            max_responses: None,
            ttl: 0,
            timeout: secs(4),
            mode: QueryMode::Unicast,
        },
        warmup_windows: 1,
        scored_windows: 20,
        max_windows: 400,
        lan_reach: false,
        gates: Gates {
            overload_invariants: true,
            ..Gates::default()
        },
    }
}

/// (client, query) pairs a world's schedule draws from. With `lan_reach`,
/// only pairs where a provider on the client's LAN matches the query.
fn eligible_pairs(s: &Scenario, lan_reach: bool) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    for (ci, &client) in s.clients.iter().enumerate() {
        let lan = s.sim.topology().lan_of(client);
        for (qi, q) in s.queries.iter().enumerate() {
            let reachable = !lan_reach
                || s.services.iter().any(|(node, desc)| {
                    s.sim.topology().lan_of(*node) == lan && s.oracle.matches(q, desc)
                });
            if reachable {
                pairs.push((ci, qi));
            }
        }
    }
    pairs
}

/// Builds a world and schedules its churn. `traced` selects the wrapped
/// assembly.
pub fn build(spec: &Spec, traced: bool) -> Scenario {
    let mut s = if traced {
        build_traced(spec.cfg.clone())
    } else {
        Scenario::build(spec.cfg.clone())
    };
    if let Some(c) = spec.churn {
        let providers: Vec<NodeId> = s.services.iter().map(|(n, _)| *n).collect();
        ChurnPlan::exponential(
            &providers,
            c.mean_up_ms,
            c.mean_down_ms,
            spec.horizon(),
            spec.cfg.seed,
        )
        .apply(&mut s.sim);
    }
    s
}

/// `Scenario::build` with every role wrapped in [`Traced`].
fn build_traced(cfg: ScenarioConfig) -> Scenario {
    let (ontology, classes) = battlefield();
    let idx = Arc::new(SubsumptionIndex::build(&ontology));
    let oracle = Oracle::new(idx.clone());
    let workload = Workload::generate(&ontology, &classes, &cfg.population);

    let mut topo = Topology::new();
    let lans: Vec<LanId> = (0..cfg.lans).map(|_| topo.add_lan()).collect();
    let mut sim: Sim<DiscoveryMessage> =
        Sim::new_partitioned(cfg.net.clone(), topo, cfg.seed, cfg.partition);
    sim.set_workers(cfg.workers);

    let mut registries = Vec::new();
    match &cfg.deployment {
        Deployment::Centralized => {
            let mut rc = cfg.registry.clone();
            rc.strategy = ForwardStrategy::None;
            rc.seeds = Vec::new();
            registries.push(sim.add_node(lans[0], wrap(RegistryNode::new(rc, Some(idx.clone())))));
        }
        Deployment::Decentralized => {}
        Deployment::Federated { registries_per_lan } => {
            for (li, &lan) in lans.iter().enumerate() {
                for ri in 0..*registries_per_lan {
                    let mut rc = cfg.registry.clone();
                    rc.seeds = if li == 0 && ri == 0 {
                        Vec::new()
                    } else {
                        vec![registries[0]]
                    };
                    registries
                        .push(sim.add_node(lan, wrap(RegistryNode::new(rc, Some(idx.clone())))));
                }
            }
        }
    }
    if let Some(cap) = cfg.registry_capacity {
        for &r in &registries {
            sim.set_node_capacity(r, Some(cap));
        }
    }

    let (service_cfg, client_cfg) = role_configs(&cfg, registries.first().copied());
    let mut services = Vec::new();
    for (i, description) in workload.descriptions.iter().enumerate() {
        let lan = lans[i % lans.len()];
        let node = sim.add_node(
            lan,
            wrap(ServiceNode::new(
                service_cfg.clone(),
                vec![description.clone()],
                Some(idx.clone()),
            )),
        );
        services.push((node, description.clone()));
    }
    let mut clients = Vec::new();
    for &lan in &lans {
        for _ in 0..cfg.clients_per_lan {
            clients.push(sim.add_node(lan, wrap(ClientNode::new(client_cfg.clone()))));
        }
    }

    Scenario {
        sim,
        ontology,
        classes,
        idx,
        oracle,
        lans,
        registries,
        clients,
        services,
        queries: workload.queries,
    }
}

fn wrap<H: TracedRole>(h: H) -> Box<dyn NodeHandler<DiscoveryMessage>> {
    Box::new(Traced::new(h))
}

/// The role templates `Scenario::build` derives from a config.
fn role_configs(
    cfg: &ScenarioConfig,
    first_registry: Option<NodeId>,
) -> (ServiceConfig, ClientConfig) {
    let mut service = cfg.service.clone();
    let mut client = cfg.client.clone();
    if let Some(policy) = cfg.retry {
        service.retry = policy;
        service.attach.retry = policy;
        client.retry = policy;
        client.attach.retry = policy;
    }
    match &cfg.deployment {
        Deployment::Centralized => {
            let r = first_registry.expect("centralized deployment has a registry");
            service.attach = AttachConfig {
                bootstrap: Bootstrap::Static(r),
                ..service.attach.clone()
            };
            service.fallback_responder = false;
            client.attach = AttachConfig {
                bootstrap: Bootstrap::Static(r),
                ..client.attach.clone()
            };
            client.fallback_query = false;
        }
        Deployment::Decentralized => {
            service.fallback_responder = true;
            service.attach = AttachConfig {
                bootstrap: Bootstrap::PassiveOnly,
                ping_interval: 0,
                ..service.attach.clone()
            };
            client.fallback_query = true;
            client.attach = AttachConfig {
                bootstrap: Bootstrap::PassiveOnly,
                ping_interval: 0,
                ..client.attach.clone()
            };
        }
        Deployment::Federated { .. } => {}
    }
    (service, client)
}

/// A role's handler, whichever assembly built the world.
pub fn role<T: 'static>(sim: &Sim<DiscoveryMessage>, node: NodeId) -> &T {
    sim.handler::<T>(node)
        .or_else(|| sim.handler::<Traced<T>>(node).map(|t| &t.inner))
        .expect("node plays the requested role")
}

/// Mutable variant of [`role`].
pub fn role_mut<T: 'static>(sim: &mut Sim<DiscoveryMessage>, node: NodeId) -> &mut T {
    if sim.handler::<T>(node).is_some() {
        sim.handler_mut::<T>(node).expect("checked above")
    } else {
        &mut sim
            .handler_mut::<Traced<T>>(node)
            .expect("node plays the requested role")
            .inner
    }
}

/// Has `client` issue a discovery now; returns its sequence number, or
/// `None` when the client is down.
pub fn issue(
    sim: &mut Sim<DiscoveryMessage>,
    client: NodeId,
    payload: QueryPayload,
    options: QueryOptions,
) -> Option<u64> {
    let mut seq = None;
    if sim.handler::<ClientNode>(client).is_some() {
        sim.with_node::<ClientNode>(client, |c, ctx| {
            seq = Some(c.issue_query(ctx, payload, options));
        });
    } else {
        sim.with_node::<Traced<ClientNode>>(client, |c, ctx| {
            seq = Some(c.inner.issue_query(ctx, payload, options));
        });
    }
    seq
}

#[cfg(test)]
mod tests {
    use super::*;
    use sds_simnet::PartitionPlan;

    #[test]
    fn every_workload_has_a_spec_on_the_sequential_engine() {
        for name in WORKLOADS {
            let spec = Spec::new(name, 1).expect("known workload");
            assert_eq!(spec.name, name);
            // One engine thread: handler spans never overlap, so the traced
            // run accounts for all of `run_until`'s wall time.
            assert_eq!(spec.cfg.partition, PartitionPlan::Single);
            assert!(spec.scored_windows >= 1 && spec.scored_windows <= spec.max_windows);
        }
        assert!(Spec::new("nope", 1).is_none());
    }

    #[test]
    fn traced_assembly_matches_scenario_build() {
        let mut spec = Spec::new("metro_query", 5).expect("known workload");
        spec.cfg.lans = 3;
        spec.cfg.population.services = 9;
        let a = build(&spec, false);
        let b = build(&spec, true);
        assert_eq!(a.registries, b.registries);
        assert_eq!(a.clients, b.clients);
        assert_eq!(a.services, b.services);
        assert_eq!(a.queries, b.queries);
        assert!(b.sim.handler::<Traced<ClientNode>>(b.clients[0]).is_some());
        let _: &ClientNode = role(&b.sim, b.clients[0]);
        let _: &RegistryNode = role(&a.sim, a.registries[0]);
    }
}
