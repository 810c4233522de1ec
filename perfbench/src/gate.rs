//! The output checks every measured discovery must pass.

use std::collections::HashMap;

use sds_core::CompletedQuery;
use sds_simnet::{LanId, NodeId};

use crate::stats::recall;

/// What one discovery is checked against.
pub struct Check<'a> {
    /// Indices (into the deployed services) of the providers whose
    /// description the oracle matches against the discovery's query.
    pub matching: &'a [usize],
    /// Deployed provider node → service index.
    pub providers: &'a HashMap<NodeId, usize>,
    /// When set, every hit must come from this LAN.
    pub lan: Option<(LanId, &'a dyn Fn(NodeId) -> LanId)>,
    /// Every live matching provider expected at issue time must be returned.
    pub full_recall: bool,
}

impl Check<'_> {
    /// The violations of one finished discovery (empty when it passes).
    pub fn run(&self, cq: &CompletedQuery, expected: &[NodeId]) -> Vec<String> {
        let mut bad = Vec::new();
        for h in &cq.hits {
            let p = h.advert.provider;
            match self.providers.get(&p) {
                Some(i) if self.matching.contains(i) => {}
                Some(_) => bad.push(format!("hit {p:?} does not match the query")),
                None => bad.push(format!("hit {p:?} is not a deployed provider")),
            }
            if let Some((lan, lan_of)) = self.lan {
                if lan_of(p) != lan {
                    bad.push(format!("hit {p:?} is off the client's LAN"));
                }
            }
        }
        if self.full_recall {
            let r = recall(expected, cq);
            if r < 1.0 {
                bad.push(format!("recall {r} < 1"));
            }
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::tests::{completed, hit};

    #[test]
    fn a_corrupted_result_fails_the_gate() {
        // Providers 10, 11 (LAN 0) and 20 (LAN 1) are deployed; the query
        // matches 10 and 20.
        let providers: HashMap<NodeId, usize> = [(NodeId(10), 0), (NodeId(11), 1), (NodeId(20), 2)]
            .into_iter()
            .collect();
        let lan_of = |n: NodeId| LanId(if n.0 < 20 { 0 } else { 1 });
        let check = Check {
            matching: &[0, 2],
            providers: &providers,
            lan: None,
            full_recall: true,
        };
        let expected = [NodeId(10), NodeId(20)];
        let good = completed(0, Some(5), vec![hit(10, 1), hit(20, 2)]);
        assert!(check.run(&good, &expected).is_empty());

        // Each corruption of the good result is caught.
        let mut foreign = good.clone();
        foreign.hits[0].advert.provider = NodeId(99);
        let mut wrong = good.clone();
        wrong.hits[0].advert.provider = NodeId(11);
        let mut short = good.clone();
        short.hits.pop();
        for corrupted in [&foreign, &wrong, &short] {
            assert!(!check.run(corrupted, &expected).is_empty(), "{corrupted:?}");
        }

        // With a LAN restriction, a hit from another LAN fails too.
        let lan_check = Check {
            lan: Some((LanId(0), &lan_of)),
            full_recall: false,
            ..check
        };
        assert!(lan_check
            .run(&completed(0, Some(5), vec![hit(10, 1)]), &[])
            .is_empty());
        assert_eq!(lan_check.run(&good, &expected).len(), 1);
    }
}
