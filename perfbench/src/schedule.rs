//! Open-loop discovery schedules. Every discovery has a fixed sim-time send
//! instant drawn from the run's seed, whatever the program does: a stall
//! never delays later sends, and latency is measured from the scheduled
//! instant.

use std::collections::VecDeque;

use sds_rand::{Rng, Seed};
use sds_simnet::SimTime;
use sds_workload::OverloadPlan;

/// One scheduled discovery: client and workload-query indices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Issue {
    pub at: SimTime,
    pub client: usize,
    pub query: usize,
    /// A recovery probe (flash crowd) rather than ordinary demand.
    pub probe: bool,
}

/// The flash-crowd cycle: O1's demand plan, then a recall probe one
/// recovery bound after the storm, repeated back to back.
#[derive(Clone, Debug)]
pub struct FlashShape {
    pub lans: usize,
    pub clients_per_lan: usize,
    /// Baseline queries per LAN per demand event; the storm multiplies it.
    pub base_per_lan: u32,
    pub surge: u32,
    pub interval: SimTime,
    pub storm_start: SimTime,
    pub storm_end: SimTime,
    pub demand_horizon: SimTime,
    pub recovery_bound: SimTime,
    pub probes: usize,
    pub probe_spacing: SimTime,
    pub cycle: SimTime,
}

pub enum Schedule {
    /// A steady stream: `discoveries` evenly spread over every `span` ms,
    /// each a seeded draw from the eligible (client, query) pairs.
    Steady {
        start: SimTime,
        sent: u64,
        discoveries: u64,
        span: SimTime,
        pairs: Vec<(usize, usize)>,
        rng: Rng,
    },
    /// Repeated flash-crowd cycles.
    Flash {
        shape: FlashShape,
        queries: usize,
        seed: u64,
        origin: SimTime,
        cycle: u64,
        cursor: usize,
        next_query: usize,
        pending: VecDeque<Issue>,
    },
}

impl Schedule {
    pub fn steady(
        start: SimTime,
        discoveries: u64,
        span: SimTime,
        pairs: Vec<(usize, usize)>,
        seed: u64,
    ) -> Self {
        assert!(
            !pairs.is_empty(),
            "a schedule needs at least one eligible pair"
        );
        assert!(discoveries > 0 && span > 0, "a rate needs sends and time");
        Schedule::Steady {
            start,
            sent: 0,
            discoveries,
            span,
            pairs,
            rng: Seed(seed).derive("perfbench.schedule").rng(),
        }
    }

    pub fn flash(origin: SimTime, shape: FlashShape, queries: usize, seed: u64) -> Self {
        Schedule::Flash {
            shape,
            queries,
            seed,
            origin,
            cycle: 0,
            cursor: 0,
            next_query: 0,
            pending: VecDeque::new(),
        }
    }

    /// Removes and returns every discovery scheduled before `end`, in
    /// send order.
    pub fn until(&mut self, end: SimTime) -> Vec<Issue> {
        let mut out = Vec::new();
        match self {
            Schedule::Steady {
                start,
                sent,
                discoveries,
                span,
                pairs,
                rng,
            } => loop {
                // Exact instants, so a span that the count does not divide
                // keeps its rate.
                let at = *start + *sent * *span / *discoveries;
                if at >= end {
                    break;
                }
                let (client, query) = pairs[rng.gen_index(pairs.len())];
                out.push(Issue {
                    at,
                    client,
                    query,
                    probe: false,
                });
                *sent += 1;
            },
            Schedule::Flash {
                shape,
                queries,
                seed,
                origin,
                cycle,
                cursor,
                next_query,
                pending,
            } => {
                loop {
                    while pending.front().is_some_and(|i| i.at < end) {
                        out.push(pending.pop_front().expect("front exists"));
                    }
                    let cycle_start = *origin + *cycle * shape.cycle;
                    if !pending.is_empty() || cycle_start >= end {
                        return out;
                    }
                    let k = *cycle;
                    *cycle += 1;
                    let cycle_seed = Seed(*seed).derive_idx("perfbench.flash", k).0;
                    let plan = OverloadPlan::flash_crowd(
                        shape.base_per_lan * shape.lans as u32,
                        shape.surge,
                        shape.interval,
                        shape.storm_start,
                        shape.storm_end,
                        shape.demand_horizon,
                        cycle_seed,
                    );
                    // O1's interleave: consecutive sends rotate across LANs
                    // first, so each burst spreads over the whole metro.
                    for ev in &plan.events {
                        for _ in 0..ev.queries {
                            let (l, c) = (*cursor % shape.lans, *cursor / shape.lans);
                            pending.push_back(Issue {
                                at: cycle_start + ev.at,
                                client: l * shape.clients_per_lan + c % shape.clients_per_lan,
                                query: *next_query % *queries,
                                probe: false,
                            });
                            *cursor += 1;
                            *next_query += 1;
                        }
                    }
                    let probe_at = cycle_start + shape.storm_end + shape.recovery_bound;
                    for p in 0..shape.probes {
                        pending.push_back(Issue {
                            at: probe_at + p as SimTime * shape.probe_spacing,
                            client: (p % shape.lans) * shape.clients_per_lan + p / shape.lans,
                            query: (k as usize * shape.probes + p) % *queries,
                            probe: true,
                        });
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> FlashShape {
        FlashShape {
            lans: 3,
            clients_per_lan: 4,
            base_per_lan: 2,
            surge: 10,
            interval: 997,
            storm_start: 5_000,
            storm_end: 10_000,
            demand_horizon: 15_000,
            recovery_bound: 5_000,
            probes: 6,
            probe_spacing: 250,
            cycle: 25_000,
        }
    }

    fn drain(mut s: Schedule, end: SimTime, step: SimTime) -> Vec<Issue> {
        let mut out = Vec::new();
        let mut t = step;
        while t <= end {
            out.extend(s.until(t));
            t += step;
        }
        out
    }

    #[test]
    fn steady_schedule_is_a_function_of_the_seed() {
        let pairs: Vec<(usize, usize)> = (0..4).flat_map(|c| (0..5).map(move |q| (c, q))).collect();
        let a = drain(Schedule::steady(1_000, 50, 1_000, pairs.clone(), 7), 5_000, 100);
        let b = drain(Schedule::steady(1_000, 50, 1_000, pairs.clone(), 7), 5_000, 333);
        let c = drain(Schedule::steady(1_000, 50, 1_000, pairs.clone(), 8), 5_000, 100);
        assert_eq!(a, b, "same seed, same schedule, however it is read");
        assert_ne!(a, c, "another seed draws other pairs");
        assert_eq!(a.len(), 200);
        assert!(
            a.windows(2).all(|w| w[1].at - w[0].at == 20),
            "fixed open-loop gap"
        );
        // 32 sends per 3 s: gaps of 93 and 94 ms that keep the exact rate.
        let d = drain(Schedule::steady(0, 32, 3_000, pairs, 7), 6_000, 100);
        assert_eq!(d.len(), 64);
        assert!(d.windows(2).all(|w| (93..=94).contains(&(w[1].at - w[0].at))));
        assert_eq!(d[32].at, 3_000);
    }

    #[test]
    fn flash_schedule_is_a_function_of_the_seed() {
        let a = drain(Schedule::flash(2_000, shape(), 16, 3), 80_000, 100);
        let b = drain(Schedule::flash(2_000, shape(), 16, 3), 80_000, 1_000);
        let c = drain(Schedule::flash(2_000, shape(), 16, 4), 80_000, 100);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at), "send order");
        // Three whole cycles, each with its probes one recovery bound after
        // the storm, and a storm that dwarfs the calm.
        let probes: Vec<&Issue> = a.iter().filter(|i| i.probe).collect();
        assert_eq!(probes.len(), 18);
        assert_eq!(probes[0].at, 2_000 + 10_000 + 5_000);
        let calm = a
            .iter()
            .filter(|i| !i.probe && i.at < 2_000 + 5_000)
            .count();
        let storm = a
            .iter()
            .filter(|i| !i.probe && (7_000..12_000).contains(&i.at))
            .count();
        assert!(storm >= 5 * calm, "calm {calm} storm {storm}");
        assert!(a.iter().all(|i| i.client < 12 && i.query < 16));
    }
}
