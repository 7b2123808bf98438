//! Deterministic cross-shard merging of shard answers.
//!
//! Every function here is pure — parsed shard responses in, merged
//! values out — so the merge contract the coordinator relies on is unit
//! testable without sockets:
//!
//! * **Threshold answers** merge by the canonical `(seq, start, len)`
//!   occurrence order, the same order `encode_matches` imposes inside
//!   one server. Shards own disjoint global sequence ranges, so after
//!   remapping the union is duplicate-free and the sort is a pure
//!   interleave — byte-identical to the monolithic answer.
//! * **Ranked (k-NN) answers** merge by `(distance, occurrence)` —
//!   exactly the final ordering of the in-process k-NN engine — then
//!   truncate to `k`. Each shard's local top-k contains every
//!   global-top-k member that shard holds (the ε-expansion schedule is
//!   query-derived and identical everywhere, and overlap filtering
//!   only compares same-sequence matches, which sharding co-locates),
//!   so the truncated merge is the exact global top-k.
//! * **Funnel stats** sum field-wise (`SearchStats::merge`): shards
//!   partition the sequences, candidate work is per-suffix, so
//!   per-shard counters add exactly.
//! * **Coverage** sums the five accounting fields across shards: a
//!   shard that answered contributes its totals as answered (a shard
//!   always answers completely — a damaged index of its own answers by
//!   sequential scan), a down shard contributes totals with zero
//!   answered.

use warptree_core::search::{Match, SearchStats};
use warptree_core::sequence::{Occurrence, SeqId};
use warptree_obs::json::num;
use warptree_server::json::Json;

/// Coverage accounting for a merged answer with a shard down: how many
/// segments answered, how many are quarantined, and what fraction of
/// stored suffixes the answer covers. Attached to the response as
/// `"partial":true,"coverage":{…}`, so a client can never mistake an
/// incomplete answer for a complete one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Coverage {
    /// Segments the shards hold in total (base trees included).
    pub segments_total: usize,
    /// Segments that actually contributed to this answer.
    pub segments_answered: usize,
    /// Segments the down shards had quarantined (tombstoned in their
    /// manifests after a failed check).
    pub segments_quarantined: usize,
    /// Suffixes indexed across the whole corpus.
    pub suffixes_total: u64,
    /// Suffixes inside the segments that answered.
    pub suffixes_answered: u64,
}

impl Coverage {
    /// Fraction of stored suffixes covered by the answer, in `[0, 1]`.
    /// An empty index counts as fully covered.
    pub fn fraction(&self) -> f64 {
        if self.suffixes_total == 0 {
            1.0
        } else {
            self.suffixes_answered as f64 / self.suffixes_total as f64
        }
    }

    /// `true` when at least one segment did not answer.
    pub fn is_partial(&self) -> bool {
        self.segments_answered < self.segments_total
    }
}

/// Serializes [`Coverage`] accounting as a response fragment:
/// `"partial":true,"coverage":{…}`. The fraction is rendered with the
/// shared canonical number formatter so degraded responses stay
/// byte-comparable.
pub fn encode_coverage(c: &Coverage) -> String {
    format!(
        "\"partial\":{},\"coverage\":{{\"segments_total\":{},\"segments_answered\":{},\
         \"segments_quarantined\":{},\"suffixes_total\":{},\"suffixes_answered\":{},\
         \"fraction\":{}}}",
        c.is_partial(),
        c.segments_total,
        c.segments_answered,
        c.segments_quarantined,
        c.suffixes_total,
        c.suffixes_answered,
        num(c.fraction())
    )
}

/// Parses a response's `"matches"` array into core [`Match`]es,
/// remapping shard-local sequence ids to global ones by `start_seq`.
pub fn parse_matches(arr: &Json, start_seq: u32) -> Result<Vec<Match>, String> {
    let arr = arr.as_arr().ok_or("\"matches\" is not an array")?;
    let mut out = Vec::with_capacity(arr.len());
    for m in arr {
        let field = |k: &str| {
            m.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("match missing \"{k}\""))
        };
        let seq = field("seq")? as u32;
        let global = seq
            .checked_add(start_seq)
            .ok_or("sequence id overflows after shard remap")?;
        out.push(Match {
            occ: Occurrence::new(SeqId(global), field("start")? as u32, field("len")? as u32),
            dist: m
                .get("dist")
                .and_then(Json::as_f64)
                .ok_or("match missing \"dist\"")?,
        });
    }
    Ok(out)
}

/// Merges per-shard threshold answers into canonical occurrence order
/// (`(seq, start, len)` — what [`warptree_server::proto::encode_matches`]
/// would impose on the union).
pub fn merge_threshold(per_shard: Vec<Vec<Match>>) -> Vec<Match> {
    let mut all: Vec<Match> = per_shard.into_iter().flatten().collect();
    all.sort_by_key(|m| m.occ);
    all
}

/// Merges per-shard ranked k-NN answers: global order by
/// `(distance, occurrence)` — ties at equal distance break on the
/// occurrence, so equal-distance matches at the same shard-local
/// `(seq, start)` on different shards order by their *global* sequence
/// id, deterministically — then keeps the `k` nearest.
pub fn merge_ranked(per_shard: Vec<Vec<Match>>, k: usize) -> Vec<Match> {
    let mut all: Vec<Match> = per_shard.into_iter().flatten().collect();
    all.sort_by(|a, b| {
        a.dist
            .partial_cmp(&b.dist)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.occ.cmp(&b.occ))
    });
    all.truncate(k);
    all
}

/// Parses the 16-field `"stats"` object of an `explain` response.
pub fn parse_stats(v: &Json) -> Result<SearchStats, String> {
    let mut stats = SearchStats::default();
    for (name, field) in stats.fields_mut() {
        *field = v
            .get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("stats missing \"{name}\""))?;
    }
    Ok(stats)
}

/// What one shard contributed to a query, coverage-wise.
#[derive(Debug, Clone)]
pub enum ShardCoverage {
    /// The shard answered: everything it holds answered, since a
    /// shard answers over a damaged index of its own by sequential
    /// scan.
    Full {
        /// The shard's live segment count (base + live tails — the
        /// `segments` field of its `info` response).
        segments: u64,
        /// Values (suffix positions) the shard holds.
        suffixes: u64,
    },
    /// The shard did not answer; its totals (from the coordinator's
    /// cached view or the shard manifest) count as unanswered.
    Down {
        /// Last known live segment count.
        segments: u64,
        /// Last known quarantined count (part of the segment total,
        /// never of the answered count).
        quarantined: u64,
        /// Last known values.
        suffixes: u64,
    },
}

/// Sums shard coverage into the corpus-wide [`Coverage`] block.
/// Returns `None` when every shard answered fully — the merged
/// response then omits the block, byte-identical to a clean monolithic
/// response.
pub fn aggregate_coverage(shards: &[ShardCoverage]) -> Option<Coverage> {
    let mut agg = Coverage {
        segments_total: 0,
        segments_answered: 0,
        segments_quarantined: 0,
        suffixes_total: 0,
        suffixes_answered: 0,
    };
    let mut any_partial = false;
    for s in shards {
        match s {
            ShardCoverage::Full { segments, suffixes } => {
                agg.segments_total += *segments as usize;
                agg.segments_answered += *segments as usize;
                agg.suffixes_total += *suffixes;
                agg.suffixes_answered += *suffixes;
            }
            ShardCoverage::Down {
                segments,
                quarantined,
                suffixes,
            } => {
                agg.segments_total += (*segments + *quarantined) as usize;
                agg.segments_quarantined += *quarantined as usize;
                agg.suffixes_total += *suffixes;
                any_partial = true;
            }
        }
    }
    if any_partial {
        Some(agg)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warptree_server::json;

    fn m(seq: u32, start: u32, len: u32, dist: f64) -> Match {
        Match {
            occ: Occurrence::new(SeqId(seq), start, len),
            dist,
        }
    }

    #[test]
    fn matches_parse_and_remap() {
        let v = json::parse(
            r#"[{"seq":0,"start":5,"len":3,"dist":1.5},{"seq":1,"start":0,"len":2,"dist":0.25}]"#,
        )
        .unwrap();
        let parsed = parse_matches(&v, 10).unwrap();
        assert_eq!(parsed, vec![m(10, 5, 3, 1.5), m(11, 0, 2, 0.25)]);
        assert!(parse_matches(&json::parse(r#"[{"seq":0}]"#).unwrap(), 0).is_err());
    }

    #[test]
    fn threshold_merge_interleaves_canonically() {
        let a = vec![m(0, 3, 2, 1.0), m(2, 0, 4, 2.0)];
        let b = vec![m(1, 0, 2, 0.5), m(2, 0, 3, 0.5)];
        let merged = merge_threshold(vec![a, b]);
        let occs: Vec<(u32, u32, u32)> = merged
            .iter()
            .map(|x| (x.occ.seq.0, x.occ.start, x.occ.len))
            .collect();
        assert_eq!(occs, vec![(0, 3, 2), (1, 0, 2), (2, 0, 3), (2, 0, 4)]);
    }

    #[test]
    fn ranked_merge_breaks_equal_distance_ties_by_occurrence() {
        // Two shards report the *same shard-local* (seq=0, start=5) at
        // the same distance; after remapping they are global seqs 0 and
        // 7, and the merge must order them by global id, every time.
        let shard_a = vec![m(0, 5, 3, 1.25), m(0, 9, 3, 2.0)];
        let shard_b = vec![m(7, 5, 3, 1.25), m(7, 1, 3, 1.25)];
        let merged = merge_ranked(vec![shard_a.clone(), shard_b.clone()], 3);
        let expect = vec![m(0, 5, 3, 1.25), m(7, 1, 3, 1.25), m(7, 5, 3, 1.25)];
        assert_eq!(merged, expect);
        // Shard arrival order must not matter.
        assert_eq!(merge_ranked(vec![shard_b, shard_a], 3), expect);
    }

    /// Every field a different value, `i + 1`: a swapped pair of names
    /// anywhere on the way shows.
    fn distinct_stats() -> SearchStats {
        let mut s = SearchStats::default();
        for (i, (_, v)) in s.fields_mut().into_iter().enumerate() {
            *v = i as u64 + 1;
        }
        s
    }

    #[test]
    fn stats_sum_fieldwise() {
        let one = distinct_stats();
        let mut total = SearchStats::default();
        for shard in [one, one] {
            total.merge(&shard);
        }
        for ((name, sum), (_, v)) in total.fields().into_iter().zip(one.fields()) {
            assert_eq!(sum, 2 * v, "{name}");
        }
        assert_eq!(total.since(&one), one);
    }

    /// The one list of funnel counters: its names in wire order, the
    /// registry names `SearchMetrics` makes of them, and the wire's
    /// `"stats"` object, which must carry every field under its own
    /// name.
    #[test]
    fn funnel_counters_are_one_list() {
        let names: Vec<&str> = SearchStats::default()
            .fields()
            .iter()
            .map(|f| f.0)
            .collect();
        assert_eq!(
            names,
            [
                "filter_cells",
                "nodes_visited",
                "nodes_expanded",
                "rows_pushed",
                "rows_unshared",
                "branches_pruned",
                "candidates",
                "stored_candidates",
                "lb2_candidates",
                "postprocessed",
                "postprocess_cells",
                "false_alarms",
                "answers",
                "cascade_lb_keogh_kills",
                "cascade_lb_improved_kills",
                "cascade_abandon_kills",
            ]
        );
        let reg = warptree_obs::MetricsRegistry::new();
        let metrics = warptree_core::search::SearchMetrics::register(&reg);
        let s = distinct_stats();
        metrics.add(&s);
        let counters = reg.snapshot().counters;
        let registered: Vec<(String, u64)> = counters.into_iter().collect();
        let mut want: Vec<(String, u64)> = s
            .fields()
            .iter()
            .map(|&(n, v)| (format!("search.{n}"), v))
            .collect();
        want.sort();
        assert_eq!(registered, want);
        let wire = json::parse(&warptree_server::proto::encode_stats(&s)).unwrap();
        assert_eq!(parse_stats(&wire).unwrap(), s);
    }

    #[test]
    fn coverage_parses_the_wire_shape() {
        for c in [
            Coverage {
                segments_total: 7,
                segments_answered: 4,
                segments_quarantined: 2,
                suffixes_total: 3000,
                suffixes_answered: 1000,
            },
            Coverage {
                segments_total: 2,
                segments_answered: 2,
                segments_quarantined: 0,
                suffixes_total: 0,
                suffixes_answered: 0,
            },
        ] {
            let v = json::parse(&format!("{{{}}}", encode_coverage(&c))).unwrap();
            assert_eq!(
                v.get("partial").and_then(Json::as_bool),
                Some(c.is_partial())
            );
            let cov = v.get("coverage").unwrap();
            let field = |k: &str| cov.get(k).and_then(Json::as_u64).unwrap();
            let back = Coverage {
                segments_total: field("segments_total") as usize,
                segments_answered: field("segments_answered") as usize,
                segments_quarantined: field("segments_quarantined") as usize,
                suffixes_total: field("suffixes_total"),
                suffixes_answered: field("suffixes_answered"),
            };
            assert_eq!(back, c);
            let fraction = cov.get("fraction").and_then(Json::as_f64).unwrap();
            assert!((fraction - c.fraction()).abs() < 1e-12);
        }
    }

    #[test]
    fn coverage_fragment_is_stable_and_parseable() {
        let c = Coverage {
            segments_total: 3,
            segments_answered: 2,
            segments_quarantined: 1,
            suffixes_total: 100,
            suffixes_answered: 75,
        };
        let frag = encode_coverage(&c);
        assert_eq!(
            frag,
            r#""partial":true,"coverage":{"segments_total":3,"segments_answered":2,"segments_quarantined":1,"suffixes_total":100,"suffixes_answered":75,"fraction":0.75}"#
        );
        let resp = warptree_server::proto::ok_response("search", &format!("\"matches\":[],{frag}"));
        let parsed = json::parse(&resp).unwrap();
        assert_eq!(parsed.get("partial").and_then(Json::as_bool), Some(true));
        let cov = parsed.get("coverage").unwrap();
        assert_eq!(
            cov.get("segments_quarantined").and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(cov.get("fraction").and_then(Json::as_f64), Some(0.75));
    }

    #[test]
    fn coverage_fraction_and_partial_flag() {
        let full = Coverage {
            segments_total: 3,
            segments_answered: 3,
            segments_quarantined: 0,
            suffixes_total: 100,
            suffixes_answered: 100,
        };
        assert!(!full.is_partial());
        assert_eq!(full.fraction(), 1.0);
        let degraded = Coverage {
            segments_total: 3,
            segments_answered: 2,
            segments_quarantined: 1,
            suffixes_total: 100,
            suffixes_answered: 75,
        };
        assert!(degraded.is_partial());
        assert_eq!(degraded.fraction(), 0.75);
        // An empty index is trivially fully covered.
        let empty = Coverage {
            segments_total: 0,
            segments_answered: 0,
            segments_quarantined: 0,
            suffixes_total: 0,
            suffixes_answered: 0,
        };
        assert_eq!(empty.fraction(), 1.0);
        assert!(!empty.is_partial());
    }

    #[test]
    fn coverage_aggregates_honestly() {
        // All full → no block at all.
        let clean = vec![
            ShardCoverage::Full {
                segments: 2,
                suffixes: 100,
            },
            ShardCoverage::Full {
                segments: 1,
                suffixes: 50,
            },
        ];
        assert!(aggregate_coverage(&clean).is_none());
        // One shard down: its totals count, its answers do not.
        let one_down = vec![
            ShardCoverage::Full {
                segments: 2,
                suffixes: 100,
            },
            ShardCoverage::Down {
                segments: 1,
                quarantined: 0,
                suffixes: 50,
            },
        ];
        let c = aggregate_coverage(&one_down).unwrap();
        assert!(c.is_partial());
        assert_eq!(c.segments_total, 3);
        assert_eq!(c.segments_answered, 2);
        assert_eq!(c.suffixes_total, 150);
        assert_eq!(c.suffixes_answered, 100);
        // A down shard's quarantined segments count toward its total.
        let down_degraded = vec![ShardCoverage::Down {
            segments: 2,
            quarantined: 1,
            suffixes: 40,
        }];
        let c = aggregate_coverage(&down_degraded).unwrap();
        assert_eq!(c.segments_total, 3);
        assert_eq!(c.segments_quarantined, 1);
        assert_eq!(c.segments_answered, 0);
    }
}
