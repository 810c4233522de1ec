//! Drives one world through its phases: set-up, warm-up, the measured
//! windows and a final drain, with every output check run outside the
//! timed `run_until` calls.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use sds_core::{ClientNode, RegistryNode, RegistryNodeStats};
use sds_simnet::{KindStats, LanId, NetStats, NodeId, SimTime};
use sds_workload::Scenario;

use crate::gate::Check;
use crate::schedule::{Issue, Schedule};
use crate::speed;
use crate::stats::{capped_expected, Digest, Score};
use crate::trace::{self, Book};
use crate::world::{self, Spec};

/// Sim length of one tick: the benchmark's smallest `run_until` step, and the
/// unit of the window wall-time distribution.
pub const TICK: SimTime = 50;

/// When the measured phase ends.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// Whole windows until this much wall time has passed (and at least
    /// the scored windows have run).
    After(Duration),
    /// Exactly this many windows (the traced replay of an untraced run).
    Windows(u64),
}

/// Wall clock of one measured window.
#[derive(Clone, Copy, Debug, Default)]
pub struct WindowWall {
    pub issued: u64,
    pub run_until: Duration,
    /// `run_until` wall time at reference machine speed, in seconds.
    pub at_reference: f64,
    /// Mean machine-speed probe time over the window.
    pub probe: Duration,
}

/// Registry-side counters summed over every registry.
#[derive(Clone, Copy, Debug, Default)]
pub struct RegistryTotals {
    pub stats: RegistryNodeStats,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_invalidated: u64,
}

impl RegistryTotals {
    fn read(s: &Scenario) -> Self {
        let mut t = RegistryTotals::default();
        for &r in &s.registries {
            let node: &RegistryNode = world::role(&s.sim, r);
            let st = node.stats;
            let a = &mut t.stats;
            a.queries_received += st.queries_received;
            a.duplicate_queries_dropped += st.duplicate_queries_dropped;
            a.forwards_sent += st.forwards_sent;
            a.busy_nacks += st.busy_nacks;
            a.stale_served += st.stale_served;
            a.responses_capped += st.responses_capped;
            a.sync_rounds += st.sync_rounds;
            a.deltas_sent += st.deltas_sent;
            a.adverts_purged += st.adverts_purged;
            let c = node.cache_stats();
            t.cache_hits += c.hits;
            t.cache_misses += c.misses;
            t.cache_invalidated += c.invalidated;
        }
        t
    }

    /// Counter growth from `earlier` to `self`.
    pub fn since(&self, earlier: &RegistryTotals) -> RegistryTotals {
        let (a, b) = (&self.stats, &earlier.stats);
        RegistryTotals {
            stats: RegistryNodeStats {
                queries_received: a.queries_received - b.queries_received,
                duplicate_queries_dropped: a.duplicate_queries_dropped
                    - b.duplicate_queries_dropped,
                forwards_sent: a.forwards_sent - b.forwards_sent,
                busy_nacks: a.busy_nacks - b.busy_nacks,
                stale_served: a.stale_served - b.stale_served,
                responses_capped: a.responses_capped - b.responses_capped,
                sync_rounds: a.sync_rounds - b.sync_rounds,
                deltas_sent: a.deltas_sent - b.deltas_sent,
                adverts_purged: a.adverts_purged - b.adverts_purged,
                ..RegistryNodeStats::default()
            },
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            cache_invalidated: self.cache_invalidated - earlier.cache_invalidated,
        }
    }
}

/// Growth of the network counters between two snapshots.
#[derive(Clone, Debug, Default)]
pub struct NetDelta {
    pub lan_bytes: u64,
    pub wan_bytes: u64,
    pub delivered: u64,
    pub dropped: u64,
    pub multicast: u64,
    pub capacity_deferred: u64,
    pub kinds: BTreeMap<&'static str, KindStats>,
    pub capacity_dropped: BTreeMap<&'static str, u64>,
}

impl NetDelta {
    pub fn between(earlier: &NetStats, later: &NetStats) -> Self {
        NetDelta {
            lan_bytes: later.lan_bytes - earlier.lan_bytes,
            wan_bytes: later.wan_bytes - earlier.wan_bytes,
            delivered: later.delivered_messages - earlier.delivered_messages,
            dropped: later.dropped_messages - earlier.dropped_messages,
            multicast: later.multicast_transmissions - earlier.multicast_transmissions,
            capacity_deferred: later.capacity_deferred_messages
                - earlier.capacity_deferred_messages,
            kinds: later
                .kinds()
                .map(|(k, v)| {
                    let b = earlier.kind(k);
                    (
                        k,
                        KindStats {
                            messages: v.messages - b.messages,
                            bytes: v.bytes - b.bytes,
                        },
                    )
                })
                .collect(),
            capacity_dropped: later
                .capacity_drops_by_kind()
                .map(|(k, n)| (k, n - earlier.capacity_dropped(k)))
                .collect(),
        }
    }

    pub fn kind(&self, kind: &str) -> KindStats {
        self.kinds.get(kind).copied().unwrap_or_default()
    }

    pub fn capacity_dropped(&self, kind: &str) -> u64 {
        self.capacity_dropped.get(kind).copied().unwrap_or_default()
    }
}

/// A discovery issued in the measured phase, waiting for its outcome.
struct Pending {
    index: u64,
    window: u64,
    query: usize,
    client_lan: LanId,
    expected: Vec<NodeId>,
    probe: bool,
}

/// What the measured phase saw.
#[derive(Default)]
pub struct Outcome {
    pub windows: Vec<WindowWall>,
    pub tick_walls: Vec<Duration>,
    pub run_until: Duration,
    /// Wall time of the benchmark's own work from set-up on: the schedule,
    /// issuing, oracle lookups and output checks, all outside the timed
    /// `run_until` calls.
    pub bench_loop: Duration,
    pub drain: Duration,
    /// Discoveries issued in the scored windows.
    pub scored: Score,
    /// Every measured discovery.
    pub all: Score,
    /// Outcome digest over every measured discovery.
    pub digest: Digest,
    /// First-response latencies of the scored discoveries, in ms.
    pub latencies_ms: Vec<u64>,
    pub failed: u64,
    pub violations: Vec<String>,
    /// Network traffic during the scored windows, and during all windows.
    pub net_scored: NetDelta,
    pub net_all: NetDelta,
    pub events: u64,
    pub registry: RegistryTotals,
    /// Peak resident memory through set-up and the scored windows.
    pub peak_rss_mb: Option<f64>,
    /// Allocations inside `run_until` (traced run only).
    pub run_until_allocs: u64,
    /// `query-retry`s that reached a registry other than the sender's home.
    pub hedges: u64,
    pub book: Book,
}

/// One built and warmed-up world, ready to measure.
pub struct Runner<'a> {
    spec: &'a Spec,
    pub s: Scenario,
    schedule: Schedule,
    /// Per workload query: indices into `s.services` of matching providers.
    matching: &'a [Vec<usize>],
    provider_index: HashMap<NodeId, usize>,
    traced: bool,
    pending: HashMap<(NodeId, u64), Pending>,
    issued: u64,
    /// Outcome digest, folded in harvest order (deterministic: the same
    /// simulation completes the same discoveries in the same order).
    digest: Digest,
    /// First-response latencies of the scored discoveries, in ms.
    latencies_ms: Vec<u64>,
    window_run_until: Duration,
    tick_run_until: Duration,
    /// All `run_until` wall time since the world was built.
    run_until_total: Duration,
    meter: speed::Meter,
    run_until_allocs: u64,
    bench_loop: Duration,
    /// `run_until` wall time of each warm-up window, to show it levelled
    /// off before measuring.
    pub warmup_walls: Vec<WindowWall>,
    setup_violations: Vec<String>,
}

/// Wall time of the two set-up steps.
#[derive(Clone, Copy, Debug)]
pub struct SetupTime {
    /// `Scenario::build` (or the traced assembly) and the churn plan.
    pub build: Duration,
    /// The `run_until` calls of the quiet start-up and the warm-up windows.
    pub warmup: Duration,
    /// Both, in seconds at reference machine speed.
    pub at_reference: f64,
}

/// Per workload query, the indices of the services whose description the
/// oracle matches. Descriptions never change, so this is computed once.
pub fn matching_table(s: &Scenario) -> Vec<Vec<usize>> {
    s.queries
        .iter()
        .map(|q| {
            s.services
                .iter()
                .enumerate()
                .filter(|(_, (_, d))| s.oracle.matches(q, d))
                .map(|(i, _)| i)
                .collect()
        })
        .collect()
}

impl<'a> Runner<'a> {
    /// Builds the world, runs the quiet start-up and the warm-up windows.
    pub fn setup(spec: &'a Spec, traced: bool, matching: &'a [Vec<usize>]) -> (Self, SetupTime) {
        let t0 = Instant::now();
        let s = world::build(spec, traced);
        let build = t0.elapsed();
        // The benchmark's own work: counted in `bench_loop`, not in the
        // set-up time.
        let t1 = Instant::now();
        let schedule = spec.schedule(&s);
        let provider_index = s
            .services
            .iter()
            .enumerate()
            .map(|(i, (n, _))| (*n, i))
            .collect();
        let mut d = Runner {
            spec,
            s,
            schedule,
            matching,
            provider_index,
            traced,
            pending: HashMap::new(),
            issued: 0,
            digest: Digest::default(),
            latencies_ms: Vec::new(),
            window_run_until: Duration::ZERO,
            tick_run_until: Duration::ZERO,
            run_until_total: Duration::ZERO,
            meter: speed::Meter::default(),
            run_until_allocs: 0,
            bench_loop: Duration::ZERO,
            warmup_walls: Vec::new(),
            setup_violations: Vec::new(),
        };
        d.bench_loop += t1.elapsed();
        // Scaled by the probe that follows it, like every measured stretch.
        d.meter.add(build);
        d.advance(spec.attach);
        if let Some(cap) = spec.capacity {
            for &r in &d.s.registries {
                d.s.sim.set_node_capacity(r, Some(cap));
            }
        }
        for w in 0..spec.warmup_windows {
            let wall = d.window(w, None);
            d.warmup_walls.push(wall);
        }
        // O1's lease invariant covers one storm on a calm, converged
        // world: the warm-up's. Later storms' purges are counted.
        if spec.gates.overload_invariants {
            let purged = RegistryTotals::read(&d.s).stats.adverts_purged;
            if purged > 0 {
                d.setup_violations.push(format!(
                    "{purged} adverts purged by lease expiry in the first storm"
                ));
            }
        }
        d.harvest(
            &mut Score::default(),
            &mut Score::default(),
            &mut Vec::new(),
            &mut 0,
        );
        // Warm-up is its `run_until` calls only: issuing, harvesting and
        // speed probes in between are the benchmark's own work.
        let time = SetupTime {
            build,
            warmup: d.run_until_total,
            at_reference: d.warmup_walls.iter().map(|w| w.at_reference).sum(),
        };
        (d, time)
    }

    /// One timed `run_until`.
    fn advance(&mut self, to: SimTime) {
        let a0 = trace::allocs();
        let t0 = Instant::now();
        self.s.sim.run_until(to);
        let dt = t0.elapsed();
        self.run_until_allocs += trace::allocs() - a0;
        self.window_run_until += dt;
        self.tick_run_until += dt;
        self.run_until_total += dt;
        self.meter.add(dt);
    }

    /// Runs one window of ticks, issuing scheduled discoveries at their
    /// instants. A measured window passes its tick-wall sink in `ticks`
    /// and registers its discoveries for checking; warm-up windows pass
    /// `None`.
    fn window(&mut self, index: u64, mut ticks: Option<&mut Vec<Duration>>) -> WindowWall {
        self.window_run_until = Duration::ZERO;
        let start = self.s.sim.now();
        let end = start + self.spec.window;
        let issued_before = self.issued;
        let mut t = start;
        while t < end {
            self.tick_run_until = Duration::ZERO;
            let tick_end = t + TICK;
            for issue in self.schedule.until(tick_end) {
                if issue.at > self.s.sim.now() {
                    self.advance(issue.at);
                }
                self.issue(issue, ticks.is_some().then_some(index));
            }
            self.advance(tick_end);
            if let Some(sink) = ticks.as_deref_mut() {
                sink.push(self.tick_run_until);
            }
            t = tick_end;
        }
        let (at_reference, probe) = self.meter.take();
        WindowWall {
            issued: self.issued - issued_before,
            run_until: self.window_run_until,
            at_reference,
            probe,
        }
    }

    fn issue(&mut self, issue: Issue, window: Option<u64>) {
        let t0 = Instant::now();
        let client = self.s.clients[issue.client];
        let payload = self.s.queries[issue.query].clone();
        let options = self.spec.options(issue.probe).clone();
        let client_lan = self.s.sim.topology().lan_of(client);
        let expected = window.map(|_| self.expected(issue.query, client_lan));
        if let Some(seq) = world::issue(&mut self.s.sim, client, payload, options) {
            if let (Some(window), Some(expected)) = (window, expected) {
                self.pending.insert(
                    (client, seq),
                    Pending {
                        index: self.issued,
                        window,
                        query: issue.query,
                        client_lan,
                        expected,
                        probe: issue.probe,
                    },
                );
                self.issued += 1;
            }
        }
        self.bench_loop += t0.elapsed();
    }

    /// Live providers the oracle expects to answer `query` right now,
    /// limited to the client's LAN in registry-less worlds.
    fn expected(&self, query: usize, client_lan: LanId) -> Vec<NodeId> {
        let topo = self.s.sim.topology();
        self.matching[query]
            .iter()
            .map(|&i| self.s.services[i].0)
            .filter(|&n| self.s.sim.is_alive(n))
            .filter(|&n| !self.spec.lan_reach || topo.lan_of(n) == client_lan)
            .collect()
    }

    /// Collects finished discoveries from every client and checks them.
    fn harvest(
        &mut self,
        scored: &mut Score,
        all: &mut Score,
        violations: &mut Vec<String>,
        failed: &mut u64,
    ) {
        let t0 = Instant::now();
        for ci in 0..self.s.clients.len() {
            let client = self.s.clients[ci];
            let done: Vec<_> = world::role_mut::<ClientNode>(&mut self.s.sim, client)
                .completed
                .drain(..)
                .collect();
            for cq in done {
                let Some(p) = self.pending.remove(&(client, cq.seq)) else {
                    continue; // a warm-up discovery
                };
                let options = self.spec.options(p.probe);
                let lan_of = |n: NodeId| self.s.sim.topology().lan_of(n);
                let check = Check {
                    matching: &self.matching[p.query],
                    providers: &self.provider_index,
                    lan: self
                        .spec
                        .gates
                        .same_lan
                        .then_some((p.client_lan, &lan_of as _)),
                    full_recall: self.spec.gates.full_recall
                        || (self.spec.gates.overload_invariants && p.probe),
                };
                let bad = check.run(&cq, &p.expected);
                let expected = capped_expected(&p.expected, &cq, options.max_responses);
                let missed = all.add(&cq, &expected, options.timeout).is_none();
                if p.window < self.spec.scored_windows {
                    if let Some(l) = scored.add(&cq, &expected, options.timeout) {
                        self.latencies_ms.push(l);
                    }
                }
                if missed || !bad.is_empty() {
                    *failed += 1;
                }
                for b in bad {
                    if violations.len() < 20 {
                        violations.push(format!("discovery {} (client {client:?}): {b}", p.index));
                    }
                }
                self.digest.discovery(client, &cq);
            }
        }
        self.bench_loop += t0.elapsed();
    }

    /// Counts `query-retry`s the book saw arrive at a registry other than
    /// the sender's current home registry.
    fn resolve_hedges(&mut self) -> u64 {
        let seen = trace::with_book(|b| std::mem::take(&mut b.retries_seen));
        seen.iter()
            .filter(|(client, registry)| {
                world::role::<ClientNode>(&self.s.sim, *client).home_registry() != Some(*registry)
            })
            .count() as u64
    }

    /// Runs the measured phase, then drains every outstanding discovery.
    pub fn measure(mut self, stop: Stop) -> Outcome {
        let spec = self.spec;
        trace::take_book();
        if self.traced {
            trace::set_counting(true);
        }
        self.run_until_allocs = 0;
        let net0 = self.s.sim.stats().clone();
        let events0 = self.s.sim.events_processed();
        let reg0 = RegistryTotals::read(&self.s);
        let mut net_scored = None;
        let mut peak_rss_mb = None;
        let (mut scored, mut all) = (Score::default(), Score::default());
        let mut violations = std::mem::take(&mut self.setup_violations);
        let (mut failed, mut hedges) = (0u64, 0u64);
        let mut windows = Vec::new();
        let mut tick_walls = Vec::new();
        let started = Instant::now();
        loop {
            let w = windows.len() as u64;
            windows.push(self.window(w, Some(&mut tick_walls)));
            if w + 1 == spec.scored_windows {
                net_scored = Some(NetDelta::between(&net0, self.s.sim.stats()));
                // Read after a fixed amount of work, so that how many more
                // windows a machine fits in the run cannot move it.
                peak_rss_mb = peak_rss_mb_now();
            }
            self.harvest(&mut scored, &mut all, &mut violations, &mut failed);
            if self.traced {
                hedges += self.resolve_hedges();
            }
            let n = windows.len() as u64;
            let done = match stop {
                Stop::Windows(k) => n >= k,
                Stop::After(d) => {
                    n >= spec.scored_windows && (started.elapsed() >= d || n >= spec.max_windows)
                }
            };
            if done {
                break;
            }
        }
        if self.traced {
            trace::set_counting(false);
        }
        let book = trace::take_book();
        let net_all = NetDelta::between(&net0, self.s.sim.stats());
        let events = self.s.sim.events_processed() - events0;
        let registry_end = RegistryTotals::read(&self.s);

        // Drain: every discovery reaches its deadline. Not timed.
        let t0 = Instant::now();
        let longest = spec.demand.timeout.max(spec.probe.timeout);
        let now = self.s.sim.now();
        self.s.sim.run_until(now + longest + 1_000);
        let drain = t0.elapsed();
        self.harvest(&mut scored, &mut all, &mut violations, &mut failed);
        if !self.pending.is_empty() {
            failed += self.pending.len() as u64;
            violations.push(format!(
                "{} discoveries never completed",
                self.pending.len()
            ));
        }
        let run_until = windows.iter().map(|w| w.run_until).sum();
        Outcome {
            windows,
            tick_walls,
            run_until,
            bench_loop: self.bench_loop,
            drain,
            scored,
            all,
            digest: self.digest,
            latencies_ms: self.latencies_ms,
            failed,
            violations,
            net_scored: net_scored.expect("scored windows ran"),
            net_all,
            events,
            registry: registry_end.since(&reg0),
            peak_rss_mb,
            run_until_allocs: self.run_until_allocs,
            hedges,
            book,
        }
    }
}

/// Peak resident memory of this process so far, in MB (10^6 bytes).
fn peak_rss_mb_now() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::Spec;

    /// A metro world small enough for a debug build.
    fn small_metro(seed: u64) -> Spec {
        let mut spec = Spec::new("metro_query", seed).expect("known workload");
        spec.cfg.lans = 3;
        spec.cfg.clients_per_lan = 2;
        spec.cfg.population.services = 9;
        spec.warmup_windows = 1;
        spec.scored_windows = 1;
        spec
    }

    fn run(spec: &Spec, traced: bool, windows: u64) -> Outcome {
        let matching = matching_table(&Scenario::build(spec.cfg.clone()));
        let (d, _) = Runner::setup(spec, traced, &matching);
        d.measure(Stop::Windows(windows))
    }

    #[test]
    fn tracing_is_unobservable() {
        let spec = small_metro(3);
        let plain = run(&spec, false, 2);
        let traced = run(&spec, true, 2);
        assert!(plain.violations.is_empty(), "{:?}", plain.violations);
        assert_eq!(plain.failed, 0);
        assert_eq!(
            plain.all.offered,
            320,
            "metro's 48 discoveries per 3 s over two 10 s windows"
        );
        assert_eq!(plain.digest, traced.digest);
        assert_eq!(plain.events, traced.events);
        assert_eq!(plain.net_all.kinds, traced.net_all.kinds);
        assert_eq!(plain.all.goodput(), 1.0);
        // The replay booked spans; the plain run did not.
        assert!(traced.book.role_total(crate::trace::Role::Registry).calls > 0);
        assert_eq!(plain.book.role_total(crate::trace::Role::Registry).calls, 0);
        // The counting allocator ran in the replay only.
        assert!(traced.run_until_allocs > 0);
        assert_eq!(plain.run_until_allocs, 0);
        let spans: u64 = crate::trace::Role::ALL
            .iter()
            .map(|r| traced.book.role_total(*r).nanos)
            .sum();
        assert!(spans as f64 * 1e-9 <= traced.run_until.as_secs_f64());
    }

    #[test]
    fn outcomes_are_a_function_of_the_seed() {
        let a = run(&small_metro(3), false, 1);
        let b = run(&small_metro(3), false, 1);
        let c = run(&small_metro(4), false, 1);
        assert_eq!(a.digest, b.digest);
        assert_ne!(a.digest, c.digest);
    }
}
