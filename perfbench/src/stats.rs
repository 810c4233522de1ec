//! The benchmark's arithmetic: percentiles, quartiles, per-discovery
//! scoring and the outcome digest. Pure functions over plain data, so the
//! tests below can drive them with hand-built inputs.

use sds_core::CompletedQuery;
use sds_simnet::{NodeId, SimTime};

/// Percentiles the benchmark may report, lowest first, in hundredths of a
/// percent (exact integer rank arithmetic).
const LADDER: [u64; 5] = [5_000, 9_000, 9_900, 9_990, 9_999];

/// The highest percentile of [`LADDER`] that has at least ten of `n`
/// samples beyond it, or `None` when not even the median has.
pub fn highest_percentile(n: usize) -> Option<f64> {
    let n = n as u64;
    LADDER
        .iter()
        .rev()
        .find(|&&p| n - (p * n).div_ceil(10_000) >= 10)
        .map(|&p| p as f64 / 100.0)
}

/// The `p`-th percentile of whole-millisecond samples, read as grouped
/// data: a sample `v` stands for the interval `[v - 0.5, v + 0.5)` and the
/// percentile is interpolated inside the interval that holds its rank.
/// Sim time is kept in whole milliseconds, so this recovers the position
/// inside a bin that a plain nearest-rank percentile would round away.
pub fn grouped_percentile(sorted: &[u64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "samples must be sorted"
    );
    let target = p / 100.0 * sorted.len() as f64;
    let mut below = 0usize;
    let mut i = 0;
    while i < sorted.len() {
        let v = sorted[i];
        let run = sorted[i..].iter().take_while(|&&x| x == v).count();
        if (below + run) as f64 >= target {
            return v as f64 - 0.5 + (target - below as f64) / run as f64;
        }
        below += run;
        i += run;
    }
    *sorted.last().expect("non-empty") as f64 + 0.5
}

/// First quartile, median and third quartile, by the same rule as Python's
/// `statistics.quantiles(data, n=4)` (the "exclusive" method). One sample
/// gives itself three times.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let mut d = samples.to_vec();
    d.sort_by(f64::total_cmp);
    match d.len() {
        0 => panic!("quartiles of no samples"),
        1 => [d[0]; 3],
        n => {
            let m = n + 1;
            let mut out = [0.0; 3];
            for (k, slot) in out.iter_mut().enumerate() {
                let i = k + 1;
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                *slot = (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0;
            }
            out
        }
    }
}

pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples)[1]
}

/// Running totals over scored discoveries.
#[derive(Clone, Debug, Default)]
pub struct Score {
    pub offered: u64,
    /// First response arrived within the discovery's deadline.
    pub answered: u64,
    pub recall_sum: f64,
    pub hits: u64,
    /// Hits whose provider was not live and matching at issue time.
    pub stale_hits: u64,
    /// Discoveries whose hit list names one provider more than once.
    pub duplicate_provider_lists: u64,
    pub responses: u64,
    pub retries: u64,
    pub busy_nacks: u64,
}

impl Score {
    /// Scores one finished discovery against the providers the oracle
    /// expected (live and matching) when it was issued. `timeout` is the
    /// discovery's deadline relative to its send. Returns the sim-time
    /// first-response latency in ms when the discovery was answered in
    /// time, `None` for a miss.
    pub fn add(
        &mut self,
        cq: &CompletedQuery,
        expected: &[NodeId],
        timeout: SimTime,
    ) -> Option<u64> {
        self.offered += 1;
        let latency = cq
            .first_response_at
            .map(|t| t.saturating_sub(cq.sent_at))
            .filter(|&l| cq.dispatched && l <= timeout);
        if latency.is_some() {
            self.answered += 1;
        }
        self.recall_sum += recall(expected, cq);
        self.hits += cq.hits.len() as u64;
        self.stale_hits += cq
            .hits
            .iter()
            .filter(|h| !expected.contains(&h.advert.provider))
            .count() as u64;
        if has_duplicate_provider(cq) {
            self.duplicate_provider_lists += 1;
        }
        self.responses += u64::from(cq.responses_received);
        self.retries += u64::from(cq.retries);
        self.busy_nacks += u64::from(cq.busy_nacks);
        latency
    }

    /// Share of offered discoveries answered before their deadline.
    pub fn goodput(&self) -> f64 {
        ratio(self.answered, self.offered)
    }

    /// Mean per-discovery recall.
    pub fn recall(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.recall_sum / self.offered as f64
        }
    }

    /// Share of returned hits whose provider was dead at issue time.
    pub fn stale_hit_fraction(&self) -> f64 {
        ratio(self.stale_hits, self.hits)
    }
}

/// Share of the expected providers that the discovery returned; 1 when the
/// oracle expected none.
pub fn recall(expected: &[NodeId], cq: &CompletedQuery) -> f64 {
    if expected.is_empty() {
        return 1.0;
    }
    let found = expected
        .iter()
        .filter(|e| cq.hits.iter().any(|h| h.advert.provider == **e))
        .count();
    found as f64 / expected.len() as f64
}

/// The expected providers a discovery with response cap `cap` is scored
/// against. A capped discovery can hold at most `cap` of them, so the set
/// is the expected providers it returned, topped up with the others (in
/// oracle order) until the cap is reached.
pub fn capped_expected(expected: &[NodeId], cq: &CompletedQuery, cap: Option<u16>) -> Vec<NodeId> {
    let k = match cap {
        Some(k) if expected.len() > usize::from(k) => usize::from(k),
        _ => return expected.to_vec(),
    };
    let returned = |n: &NodeId| cq.hits.iter().any(|h| h.advert.provider == *n);
    let mut e: Vec<NodeId> = expected.iter().copied().filter(returned).collect();
    for n in expected.iter().filter(|n| !returned(n)) {
        if e.len() >= k {
            break;
        }
        e.push(*n);
    }
    e
}

pub fn has_duplicate_provider(cq: &CompletedQuery) -> bool {
    let mut providers: Vec<NodeId> = cq.hits.iter().map(|h| h.advert.provider).collect();
    providers.sort_unstable();
    providers.windows(2).any(|w| w[0] == w[1])
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// FNV-1a over the observable outcome of discoveries, in the order they
/// are folded in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds in one discovery: who asked, when it was answered, how many
    /// responses came, and the ranked hits.
    pub fn discovery(&mut self, client: NodeId, cq: &CompletedQuery) {
        self.u64(u64::from(client.0));
        self.u64(cq.seq);
        self.u64(cq.sent_at);
        self.u64(cq.first_response_at.map_or(u64::MAX, |t| t));
        self.u64(u64::from(cq.responses_received));
        self.u64(cq.hits.len() as u64);
        for h in &cq.hits {
            self.u64(u64::from(h.advert.provider.0));
            self.bytes(&h.advert.id.0.to_le_bytes());
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use sds_protocol::{Advertisement, Description, ResponseHit, Uuid};
    use sds_semantic::Degree;

    pub(crate) fn hit(provider: u32, id: u128) -> ResponseHit {
        ResponseHit {
            advert: Advertisement {
                id: Uuid(id),
                provider: NodeId(provider),
                description: Description::Uri("urn:svc:x".into()),
                version: 1,
            },
            degree: Degree::Exact,
            distance: 0,
        }
    }

    pub(crate) fn completed(
        sent_at: SimTime,
        first: Option<SimTime>,
        hits: Vec<ResponseHit>,
    ) -> CompletedQuery {
        CompletedQuery {
            seq: 0,
            sent_at,
            finished_at: sent_at + 3_000,
            hits,
            responses_received: u32::from(first.is_some()),
            dispatched: true,
            first_response_at: first,
            busy_nacks: 0,
            retries: 0,
        }
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_percentile(10), None);
        assert_eq!(highest_percentile(20), Some(50.0));
        assert_eq!(highest_percentile(99), Some(50.0));
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(999), Some(90.0));
        assert_eq!(highest_percentile(1_000), Some(99.0));
        assert_eq!(highest_percentile(9_999), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
        assert_eq!(highest_percentile(100_000), Some(99.99));
    }

    #[test]
    fn grouped_percentile_interpolates_inside_the_bin() {
        assert_eq!(grouped_percentile(&[7; 9], 50.0), 7.0);
        // Half the samples at 1 ms and half at 3 ms: the median sits at
        // the top of the 1 ms bin.
        assert_eq!(grouped_percentile(&[1, 1, 3, 3], 50.0), 1.5);
        // Rank 2.5 of [1, 2, 2, 2, 9]: the 2 ms bin holds ranks 1..4.
        let p = grouped_percentile(&[1, 2, 2, 2, 9], 50.0);
        assert!((p - 2.0).abs() < 1e-12, "{p}");
        assert_eq!(grouped_percentile(&[1, 2, 3, 4, 100], 100.0), 100.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let d: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&d), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
    }

    #[test]
    fn recall_goodput_and_stale_hits_on_hand_built_discoveries() {
        let (a, b, c) = (NodeId(1), NodeId(2), NodeId(3));
        let mut s = Score::default();
        let latencies = [
            // Answered at 40 ms, found both expected providers.
            s.add(
                &completed(0, Some(40), vec![hit(1, 1), hit(2, 2)]),
                &[a, b],
                3_000,
            ),
            // Answered, found one of two, plus one hit for a provider that
            // was dead at issue time.
            s.add(
                &completed(0, Some(60), vec![hit(1, 3), hit(3, 4)]),
                &[a, b],
                3_000,
            ),
            // Never answered: a miss with recall 0.
            s.add(&completed(0, None, vec![]), &[c], 3_000),
            // Nothing expected and nothing returned: recall 1.
            s.add(&completed(0, Some(10), vec![]), &[], 3_000),
        ];
        assert_eq!(s.offered, 4);
        assert_eq!(s.answered, 3);
        assert_eq!(s.goodput(), 0.75);
        assert!((s.recall() - (1.0 + 0.5 + 0.0 + 1.0) / 4.0).abs() < 1e-12);
        assert_eq!(s.hits, 4);
        assert_eq!(s.stale_hits, 1);
        assert_eq!(s.stale_hit_fraction(), 0.25);
        assert_eq!(latencies, [Some(40), Some(60), None, Some(10)]);
    }

    #[test]
    fn undispatched_and_late_discoveries_are_misses() {
        let mut s = Score::default();
        let mut q = completed(0, Some(5), vec![]);
        q.dispatched = false;
        assert_eq!(s.add(&q, &[], 3_000), None);
        assert_eq!(
            s.add(&completed(100, Some(3_200), vec![]), &[], 3_000),
            None
        );
        assert_eq!(s.answered, 0);
        assert_eq!(s.goodput(), 0.0);
    }

    #[test]
    fn capped_discoveries_are_scored_against_what_fits() {
        let expected: Vec<NodeId> = (1..=5).map(NodeId).collect();
        let cq = completed(0, Some(1), vec![hit(4, 1), hit(2, 2)]);
        assert_eq!(capped_expected(&expected, &cq, None), expected);
        assert_eq!(capped_expected(&expected, &cq, Some(8)), expected);
        assert_eq!(
            capped_expected(&expected, &cq, Some(2)),
            vec![NodeId(2), NodeId(4)]
        );
        assert_eq!(
            capped_expected(&expected, &cq, Some(3)),
            vec![NodeId(2), NodeId(4), NodeId(1)]
        );
        assert_eq!(recall(&capped_expected(&expected, &cq, Some(2)), &cq), 1.0);
    }

    #[test]
    fn duplicate_providers_are_counted() {
        let mut s = Score::default();
        s.add(
            &completed(0, Some(1), vec![hit(1, 1), hit(1, 2)]),
            &[NodeId(1)],
            3_000,
        );
        s.add(
            &completed(0, Some(1), vec![hit(1, 1), hit(2, 2)]),
            &[NodeId(1)],
            3_000,
        );
        assert_eq!(s.duplicate_provider_lists, 1);
    }

    #[test]
    fn digest_sees_every_outcome_field() {
        let base = completed(0, Some(40), vec![hit(1, 1)]);
        let digest = |cq: &CompletedQuery| {
            let mut d = Digest::default();
            d.discovery(NodeId(9), cq);
            d
        };
        let d0 = digest(&base);
        assert_eq!(d0, digest(&base.clone()));
        let mut later = base.clone();
        later.first_response_at = Some(41);
        let mut more = base.clone();
        more.responses_received += 1;
        let mut other = base.clone();
        other.hits = vec![hit(2, 1)];
        for changed in [later, more, other] {
            assert_ne!(d0, digest(&changed));
        }
    }
}
