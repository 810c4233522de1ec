//! Turns measured phases into named metrics and the run record.

use std::time::Duration;

use crate::json::Json;
use crate::runner::{Outcome, SetupTime, WindowWall};
use crate::stats::{grouped_percentile, highest_percentile, median, quartiles, ratio};
use crate::trace::{Book, Role};

/// End-to-end metrics, printed by every untraced run, with their units.
pub const END_TO_END: [(&str, &str); 10] = [
    ("discoveries_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("goodput", "ratio"),
    ("recall", "ratio"),
    ("fresh_hit_fraction", "ratio"),
    ("first_response_ms_p50", "ms"),
    ("first_response_ms_p99", "ms"),
    ("bytes_per_discovery", "bytes"),
    ("lan_bytes_per_discovery", "bytes"),
];

/// Registry handler entry points broken out by message kind.
const REGISTRY_KINDS: [&str; 7] = [
    "query",
    "query-response",
    "sync-digest",
    "sync-delta",
    "publish",
    "renew",
    "timer",
];
/// Message kinds whose traffic is broken out per discovery.
const PROTOCOL_KINDS: [&str; 6] = [
    "query",
    "query-response",
    "sync-digest",
    "sync-delta",
    "publish",
    "renew",
];

/// A named value with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn m(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Per-window discovery rates at reference machine speed.
pub fn window_rates(o: &Outcome) -> Vec<f64> {
    o.windows
        .iter()
        .map(|w| w.issued as f64 / w.at_reference)
        .collect()
}

/// `run_until` wall time of all measured windows at reference machine
/// speed, in seconds.
fn run_until_at_reference(o: &Outcome) -> f64 {
    o.windows.iter().map(|w| w.at_reference).sum()
}

/// Discoveries issued in the measured windows per second of their
/// `run_until` wall time at reference machine speed. Every one of them
/// completes (the drain checks it), so in the open loop's steady state
/// this is the completion rate.
fn discoveries_per_s(o: &Outcome) -> f64 {
    o.windows.iter().map(|w| w.issued).sum::<u64>() as f64 / run_until_at_reference(o)
}

/// Set-up wall times at reference machine speed.
fn setup_samples(setups: &[SetupTime]) -> Vec<f64> {
    setups
        .iter()
        .map(|t| t.at_reference)
        .collect()
}

/// First-response latency percentile of the scored discoveries, or an
/// error when the sample is too small for the percentile rule.
fn latency_percentile(o: &Outcome, p: f64) -> Result<f64, String> {
    let mut lat = o.latencies_ms.clone();
    lat.sort_unstable();
    match highest_percentile(lat.len()) {
        Some(top) if top >= p => Ok(grouped_percentile(&lat, p)),
        _ => Err(format!(
            "{} answered discoveries are too few for a p{p} latency",
            lat.len()
        )),
    }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(
    o: &Outcome,
    setups: &[SetupTime],
    peak_rss_mb: f64,
) -> Result<Vec<Metric>, String> {
    let n = o.scored.offered;
    let bytes = o.net_scored.lan_bytes + o.net_scored.wan_bytes;
    let v = vec![
        m("discoveries_per_s", discoveries_per_s(o), "1/s"),
        m("setup_s", median(&setup_samples(setups)), "s"),
        m("peak_rss_mb", peak_rss_mb, "MB"),
        m("goodput", o.scored.goodput(), "ratio"),
        m("recall", o.scored.recall(), "ratio"),
        m(
            "fresh_hit_fraction",
            1.0 - o.scored.stale_hit_fraction(),
            "ratio",
        ),
        m("first_response_ms_p50", latency_percentile(o, 50.0)?, "ms"),
        m("first_response_ms_p99", latency_percentile(o, 99.0)?, "ms"),
        m("bytes_per_discovery", ratio(bytes, n), "bytes"),
        m(
            "lan_bytes_per_discovery",
            ratio(o.net_scored.lan_bytes, n),
            "bytes",
        ),
    ];
    debug_assert!(v
        .iter()
        .map(|x| x.name.as_str())
        .eq(END_TO_END.iter().map(|x| x.0)));
    Ok(v)
}

/// Wall time per tick, in ms, at percentile `p` (nearest rank).
fn tick_ms(o: &Outcome, p: f64) -> Result<f64, String> {
    let mut t: Vec<f64> = o.tick_walls.iter().map(|d| secs(*d) * 1e3).collect();
    t.sort_by(f64::total_cmp);
    match highest_percentile(t.len()) {
        Some(top) if top >= p => {
            let rank = ((p / 100.0 * t.len() as f64).ceil() as usize).max(1);
            Ok(t[rank - 1])
        }
        _ => Err(format!(
            "{} ticks are too few for a p{p} window wall",
            t.len()
        )),
    }
}

/// `run_until` wall time (at reference machine speed) of the last quarter
/// of the measured windows over the first quarter: above 1 when state keeps
/// growing after the warm-up.
fn drift(o: &Outcome) -> f64 {
    let q = (o.windows.len() / 4).max(1);
    let sum = |ws: &[WindowWall]| ws.iter().map(|w| w.at_reference).sum::<f64>();
    sum(&o.windows[o.windows.len() - q..]) / sum(&o.windows[..q])
}

/// The per-layer metrics of a traced run. `untraced` is the run it
/// replays, for the tracing overhead.
pub fn per_layer(
    traced: &Outcome,
    untraced: &Outcome,
    setups: &[SetupTime],
) -> Result<Vec<Metric>, String> {
    let o = traced;
    let book = &o.book;
    let n = o.all.offered.max(1) as f64;
    let handler_ns: u64 = Role::ALL.iter().map(|r| book.role_total(*r).nanos).sum();
    let handler_allocs: u64 = Role::ALL.iter().map(|r| book.role_total(*r).allocs).sum();
    let run_until = secs(o.run_until);
    let simnet_self = run_until - handler_ns as f64 * 1e-9;
    if simnet_self < 0.0 {
        return Err(format!(
            "handler spans ({handler_ns} ns) exceed run_until ({run_until} s)"
        ));
    }
    let net = &o.net_all;
    let reg = &o.registry.stats;
    let mut v = vec![
        m("simnet.events", o.events as f64, "count"),
        m("simnet.events_per_s", o.events as f64 / run_until, "1/s"),
        m("simnet.run_until_s", run_until, "s"),
        m("simnet.self_s", simnet_self, "s"),
        m("simnet.deliveries", net.delivered as f64, "count"),
        m(
            "simnet.multicast_transmissions",
            net.multicast as f64,
            "count",
        ),
        m("simnet.dropped", net.dropped as f64, "count"),
        m(
            "simnet.capacity_deferred",
            net.capacity_deferred as f64,
            "count",
        ),
        m(
            "simnet.capacity_dropped.query",
            net.capacity_dropped("query") as f64,
            "count",
        ),
        m(
            "simnet.capacity_dropped.query-retry",
            net.capacity_dropped("query-retry") as f64,
            "count",
        ),
        m(
            "simnet.allocs_per_event",
            ratio(o.run_until_allocs - handler_allocs, o.events),
            "count",
        ),
        m("simnet.window_wall_ms.p50", tick_ms(o, 50.0)?, "ms"),
        m("simnet.window_wall_ms.p99", tick_ms(o, 99.0)?, "ms"),
        m("simnet.window_drift", drift(o), "ratio"),
    ];
    for role in Role::ALL {
        let t = book.role_total(role);
        v.push(m(
            format!("{}.self_s", role.layer()),
            t.nanos as f64 * 1e-9,
            "s",
        ));
        v.push(m(
            format!("{}.calls", role.layer()),
            t.calls as f64,
            "count",
        ));
    }
    let kinds: &[(Role, &[&str])] = &[
        (Role::Registry, &REGISTRY_KINDS),
        (Role::Client, &["query-response", "timer"]),
        (Role::Service, &["query", "timer"]),
    ];
    for (role, kinds) in kinds {
        for kind in *kinds {
            let t = book.get(*role, kind);
            let base = format!("{}.{kind}", role.layer());
            v.push(m(format!("{base}.self_s"), t.nanos as f64 * 1e-9, "s"));
            v.push(m(format!("{base}.calls"), t.calls as f64, "count"));
            v.push(m(format!("{base}.allocs"), t.allocs as f64, "count"));
        }
    }
    let r = "core.registry_node";
    v.extend([
        m(
            format!("{r}.queries_received"),
            reg.queries_received as f64,
            "count",
        ),
        m(
            format!("{r}.duplicate_queries_dropped"),
            reg.duplicate_queries_dropped as f64,
            "count",
        ),
        m(
            format!("{r}.flood_waste"),
            ratio(reg.duplicate_queries_dropped, reg.queries_received),
            "ratio",
        ),
        m(
            format!("{r}.forwards_sent"),
            reg.forwards_sent as f64,
            "count",
        ),
        m(format!("{r}.busy_nacks"), reg.busy_nacks as f64, "count"),
        m(
            format!("{r}.stale_served"),
            reg.stale_served as f64,
            "count",
        ),
        m(
            format!("{r}.responses_capped"),
            reg.responses_capped as f64,
            "count",
        ),
        m(format!("{r}.sync_rounds"), reg.sync_rounds as f64, "count"),
        m(format!("{r}.deltas_sent"), reg.deltas_sent as f64, "count"),
        m(
            format!("{r}.adverts_purged"),
            reg.adverts_purged as f64,
            "count",
        ),
    ]);
    let c = "core.client_node";
    v.extend([
        m(format!("{c}.retries"), o.all.retries as f64, "count"),
        m(format!("{c}.busy_nacks"), o.all.busy_nacks as f64, "count"),
        m(format!("{c}.hedges"), o.hedges as f64, "count"),
        m(
            format!("{c}.responses_per_discovery"),
            o.all.responses as f64 / n,
            "count",
        ),
        m(
            format!("{c}.duplicate_provider_lists"),
            o.all.duplicate_provider_lists as f64,
            "count",
        ),
    ]);
    let lookups = o.registry.cache_hits + o.registry.cache_misses;
    v.extend([
        m(
            "registry.cache_hit_ratio",
            ratio(o.registry.cache_hits, lookups),
            "ratio",
        ),
        m("registry.cache_lookups", lookups as f64, "count"),
        m(
            "registry.cache_invalidations",
            o.registry.cache_invalidated as f64,
            "count",
        ),
    ]);
    for kind in PROTOCOL_KINDS {
        let k = net.kind(kind);
        v.push(m(
            format!("protocol.msgs.{kind}"),
            k.messages as f64 / n,
            "count",
        ));
        v.push(m(
            format!("protocol.bytes.{kind}"),
            k.bytes as f64 / n,
            "bytes",
        ));
    }
    v.extend([
        m(
            "protocol.lan_bytes_per_discovery",
            net.lan_bytes as f64 / n,
            "bytes",
        ),
        m(
            "protocol.wan_bytes_per_discovery",
            net.wan_bytes as f64 / n,
            "bytes",
        ),
        m(
            "workload.build_s",
            median(&setups.iter().map(|t| secs(t.build)).collect::<Vec<_>>()),
            "s",
        ),
        m(
            "workload.warmup_s",
            median(&setups.iter().map(|t| secs(t.warmup)).collect::<Vec<_>>()),
            "s",
        ),
        m("bench.driver_s", secs(o.bench_loop), "s"),
        m("bench.probe_ms", median(&probe_ms(o)), "ms"),
        m(
            "trace.overhead",
            run_until_at_reference(o) / run_until_at_reference(untraced),
            "ratio",
        ),
        m(
            "trace.handler_share",
            handler_ns as f64 * 1e-9 / run_until,
            "ratio",
        ),
    ]);
    Ok(v)
}

/// The `metrics` object of the result line.
pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|x| {
        (
            x.name.clone(),
            Json::obj([("value", Json::Num(x.value)), ("unit", Json::str(x.unit))]),
        )
    }))
}

/// Median and quartiles of a wall-clock sample set, with its unit.
pub fn spread(samples: &[f64], unit: &str) -> Json {
    let [q1, med, q3] = quartiles(samples);
    Json::obj([
        ("unit", Json::str(unit)),
        ("samples", Json::from(samples.len() as u64)),
        ("q1", Json::Num(q1)),
        ("median", Json::Num(med)),
        ("q3", Json::Num(q3)),
    ])
}

fn probe_ms(o: &Outcome) -> Vec<f64> {
    o.windows.iter().map(|w| secs(w.probe) * 1e3).collect()
}

/// The wall-clock sample sets of one run, each with its spread. Rates and
/// set-up times are given at reference machine speed and raw.
pub fn wall_clock(o: &Outcome, setups: &[SetupTime]) -> Json {
    let ticks: Vec<f64> = o.tick_walls.iter().map(|d| secs(*d) * 1e3).collect();
    let raw_rates: Vec<f64> = o
        .windows
        .iter()
        .map(|w| w.issued as f64 / secs(w.run_until))
        .collect();
    let mut fields = vec![
        ("discoveries_per_s", spread(&window_rates(o), "1/s")),
        ("raw_discoveries_per_s", spread(&raw_rates, "1/s")),
        ("probe_ms", spread(&probe_ms(o), "ms")),
        ("window_wall_ms", spread(&ticks, "ms")),
        (
            "window_run_until_ms",
            Json::Arr(
                o.windows
                    .iter()
                    .map(|w| Json::Num(secs(w.run_until) * 1e3))
                    .collect(),
            ),
        ),
        ("run_until_s", Json::Num(secs(o.run_until))),
        ("bench_loop_s", Json::Num(secs(o.bench_loop))),
        ("drain_s", Json::Num(secs(o.drain))),
    ];
    if !setups.is_empty() {
        let raw: Vec<f64> = setups.iter().map(|t| secs(t.build + t.warmup)).collect();
        fields.push(("setup_s", spread(&setup_samples(setups), "s")));
        fields.push(("raw_setup_s", spread(&raw, "s")));
    }
    Json::obj(fields)
}

/// The traced run's span totals per role and kind.
pub fn spans_json(book: &Book) -> Json {
    Json::Arr(
        book.spans()
            .into_iter()
            .map(|(role, kind, t)| {
                Json::obj([
                    ("layer", Json::str(role.layer())),
                    ("kind", Json::str(kind)),
                    ("calls", Json::from(t.calls)),
                    ("self_s", Json::Num(t.nanos as f64 * 1e-9)),
                    ("allocs", Json::from(t.allocs)),
                ])
            })
            .collect(),
    )
}

/// The exact (deterministic) outcome of the scored windows.
pub fn exact(o: &Outcome) -> Json {
    let s = &o.scored;
    Json::obj([
        ("scored_discoveries", Json::from(s.offered)),
        ("answered", Json::from(s.answered)),
        ("latency_samples", Json::from(o.latencies_ms.len() as u64)),
        ("goodput", Json::Num(s.goodput())),
        ("recall", Json::Num(s.recall())),
        ("stale_hit_fraction", Json::Num(s.stale_hit_fraction())),
        ("hits", Json::from(s.hits)),
        (
            "duplicate_provider_lists",
            Json::from(s.duplicate_provider_lists),
        ),
        ("lan_bytes", Json::from(o.net_scored.lan_bytes)),
        ("wan_bytes", Json::from(o.net_scored.wan_bytes)),
        ("measured_discoveries", Json::from(o.all.offered)),
        (
            "measured_adverts_purged",
            Json::from(o.registry.stats.adverts_purged),
        ),
        ("events", Json::from(o.events)),
        ("outcome_digest", Json::str(format!("{:016x}", o.digest.0))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Score;

    /// A measured phase with just enough samples for every metric.
    fn outcome() -> Outcome {
        let ms = Duration::from_millis(1);
        Outcome {
            windows: vec![
                WindowWall {
                    issued: 10,
                    run_until: ms,
                    at_reference: 1e-3,
                    probe: ms
                };
                3
            ],
            tick_walls: vec![ms; 1_000],
            run_until: 3 * ms,
            scored: Score {
                offered: 1_000,
                answered: 1_000,
                ..Score::default()
            },
            latencies_ms: vec![5; 1_000],
            ..Outcome::default()
        }
    }

    /// The `key` values of one list in BENCHMARK.json, in file order. The
    /// file has one field per line, so a line scan reads it.
    fn field(bench: &str, section: &str, key: &str) -> Vec<String> {
        let header = format!("\"{section}\": [");
        let prefix = format!("\"{key}\": \"");
        bench
            .lines()
            .skip_while(|l| l.trim() != header)
            .skip(1)
            .take_while(|l| !l.trim().starts_with(']'))
            .filter_map(|l| {
                let rest = l.trim().strip_prefix(prefix.as_str())?;
                Some(rest[..rest.find('"')?].to_string())
            })
            .collect()
    }

    fn declared(bench: &str, section: &str) -> Vec<(String, String)> {
        let names = field(bench, section, "name");
        let units = field(bench, section, "unit");
        assert_eq!(names.len(), units.len(), "{section}: a unit per name");
        let mut v: Vec<_> = names.into_iter().zip(units).collect();
        v.sort();
        v
    }

    fn printed(metrics: &[Metric]) -> Vec<(String, String)> {
        let mut v: Vec<(String, String)> = metrics
            .iter()
            .map(|x| (x.name.clone(), x.unit.to_string()))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn benchmark_json_declares_exactly_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let bench = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let o = outcome();
        let setups = [SetupTime {
            build: Duration::from_millis(2),
            warmup: Duration::from_millis(3),
            at_reference: 5e-3,
        }];
        let e2e = end_to_end(&o, &setups, 10.0).expect("enough samples");
        assert_eq!(declared(&bench, "end_to_end"), printed(&e2e));
        let layers = per_layer(&o, &o, &setups).expect("enough samples");
        assert_eq!(declared(&bench, "per_layer"), printed(&layers));
        let mut names: Vec<&str> = layers.iter().map(|x| x.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), layers.len(), "per-layer names are unique");

        assert_eq!(
            field(&bench, "workloads", "name"),
            crate::world::WORKLOADS
        );
    }

    #[test]
    fn too_few_samples_for_p99_is_an_error() {
        let mut o = outcome();
        o.latencies_ms.truncate(999);
        assert!(end_to_end(
            &o,
            &[SetupTime {
                build: Duration::ZERO,
                warmup: Duration::ZERO,
                at_reference: 5e-3,
            }],
            1.0
        )
        .is_err());
        let mut o = outcome();
        o.tick_walls.truncate(500);
        assert!(per_layer(&o, &o, &[]).is_err());
    }
}
