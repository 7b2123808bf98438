//! Search EXPLAIN reports: one metered query run, rendered as the
//! paper's filter-and-refine funnel.
//!
//! A report answers "where did the work go?" for a single similarity
//! search: how many stored suffixes the index holds, how much of the
//! tree the filter walked vs pruned under Theorem 1, how many candidates
//! it emitted (for stored suffixes, and on a sparse tree for the shifted
//! starts inside their leading runs), and how many survived exact
//! post-processing.

use warptree_core::error::CoreError;
use warptree_core::search::{
    AnswerSet, IndexBackend, QueryRequest, SearchMetrics, SearchParams, SearchStats,
};
use warptree_core::sequence::Value;
use warptree_obs::json::num;
use warptree_obs::HistogramSnapshot;

use warptree_disk::DirSnapshot;

use crate::Index;

/// The full account of one similarity search: funnel counters, table
/// work and phase wall times.
#[derive(Debug, Clone)]
pub struct ExplainReport {
    /// `"sparse"` (SST_C) or `"full"` (ST_C / ST).
    pub kind: &'static str,
    /// Which [`IndexBackend`](warptree_core::search::IndexBackend)
    /// served the query: `"tree"` or `"esa"`.
    pub backend: &'static str,
    /// Query length in elements.
    pub query_len: usize,
    /// Search threshold ε.
    pub epsilon: f64,
    /// Stored suffixes in the index — the funnel's entry width.
    pub suffixes: u64,
    /// All search counters of the run.
    pub stats: SearchStats,
    /// Filter-phase wall time (one sample).
    pub filter: HistogramSnapshot,
    /// Post-processing wall time (one sample).
    pub postprocess: HistogramSnapshot,
    /// How the query was answered: `"index"`, or `"scan"` — the
    /// sequential scan a directory with a damaged index answers by
    /// (see [`DirSnapshot::query_with`]).
    pub plan: &'static str,
}

impl ExplainReport {
    /// Runs a checked search against an in-memory [`Index`] and explains
    /// it.
    pub fn for_index(
        index: &Index,
        query: &[Value],
        params: &SearchParams,
    ) -> Result<(AnswerSet, ExplainReport), CoreError> {
        let metrics = SearchMetrics::new();
        let answers = index
            .query_with(
                &QueryRequest::threshold_params(query, params.clone()),
                &metrics,
            )?
            .into_answer_set();
        let tree = index.tree();
        let report = Self::assemble(
            tree.is_sparse(),
            tree.backend_kind().as_str(),
            query.len(),
            params.epsilon,
            tree.suffix_count(),
            &metrics,
        );
        Ok((answers, report))
    }

    /// Runs a checked search against a disk-backed index directory and
    /// explains it. Multi-segment directories fan the query out and
    /// report suffix counts summed over the base tree and every tail
    /// segment.
    pub fn for_dir(
        dir: &DirSnapshot,
        query: &[Value],
        params: &SearchParams,
    ) -> Result<(AnswerSet, ExplainReport), CoreError> {
        let metrics = SearchMetrics::new();
        let out = dir.query_with(
            &QueryRequest::threshold_params(query, params.clone()),
            &metrics,
        )?;
        let plan = if dir.is_damaged() { "scan" } else { "index" };
        let answers = out.into_answer_set();
        let suffixes = dir.live_trees().map(IndexBackend::suffix_count).sum();
        let report = Self::assemble(
            dir.tree.is_sparse(),
            dir.tree.kind().as_str(),
            query.len(),
            params.epsilon,
            suffixes,
            &metrics,
        );
        Ok((answers, ExplainReport { plan, ..report }))
    }

    fn assemble(
        sparse: bool,
        backend: &'static str,
        query_len: usize,
        epsilon: f64,
        suffixes: u64,
        metrics: &SearchMetrics,
    ) -> ExplainReport {
        ExplainReport {
            kind: if sparse { "sparse" } else { "full" },
            backend,
            query_len,
            epsilon,
            suffixes,
            stats: metrics.snapshot(),
            filter: metrics.filter_ns.snapshot(),
            postprocess: metrics.postprocess_ns.snapshot(),
            plan: "index",
        }
    }

    /// Fraction of verified candidates that failed exact DTW —
    /// the paper's false-alarm rate.
    pub fn false_alarm_ratio(&self) -> f64 {
        if self.stats.postprocessed == 0 {
            0.0
        } else {
            self.stats.false_alarms as f64 / self.stats.postprocessed as f64
        }
    }

    /// Fraction of visited tree nodes whose subtrees Theorem 1 cut off.
    pub fn prune_ratio(&self) -> f64 {
        if self.stats.nodes_visited == 0 {
            0.0
        } else {
            self.stats.branches_pruned as f64 / self.stats.nodes_visited as f64
        }
    }

    /// Candidate lists emitted per stored suffix — the filter's
    /// selectivity against the index size.
    pub fn candidate_ratio(&self) -> f64 {
        if self.suffixes == 0 {
            0.0
        } else {
            self.stats.candidates as f64 / self.suffixes as f64
        }
    }

    /// Table rows an unshared (per-suffix) evaluation would have
    /// computed per row actually pushed — the paper's `R_d` sharing
    /// factor. `1.0` when the index cannot report subtree weights.
    pub fn sharing_factor(&self) -> f64 {
        if self.stats.rows_pushed == 0 || self.stats.rows_unshared == 0 {
            1.0
        } else {
            self.stats.rows_unshared as f64 / self.stats.rows_pushed as f64
        }
    }

    /// Serializes the report as one JSON object (stable keys).
    pub fn to_json(&self) -> String {
        let s = &self.stats;
        format!(
            concat!(
                "{{\"kind\":\"{}\",\"backend\":\"{}\",",
                "\"query_len\":{},\"epsilon\":{},",
                "\"funnel\":{{\"suffixes\":{},\"nodes_visited\":{},",
                "\"nodes_expanded\":{},\"branches_pruned\":{},",
                "\"stored_candidates\":{},\"lb2_candidates\":{},",
                "\"candidates\":{},\"postprocessed\":{},",
                "\"false_alarms\":{},\"answers\":{}}},",
                "\"cascade\":{{\"lb_keogh_kills\":{},",
                "\"lb_improved_kills\":{},\"abandon_kills\":{}}},",
                "\"ratios\":{{\"false_alarm\":{},\"pruned\":{},",
                "\"candidate\":{},\"sharing\":{}}},",
                "\"cells\":{{\"filter\":{},\"postprocess\":{},",
                "\"rows_pushed\":{},\"rows_unshared\":{}}},",
                "\"time_ms\":{{\"filter\":{},\"postprocess\":{}}},",
                "\"plan\":\"{}\"}}"
            ),
            self.kind,
            self.backend,
            self.query_len,
            num(self.epsilon),
            self.suffixes,
            s.nodes_visited,
            s.nodes_expanded,
            s.branches_pruned,
            s.stored_candidates,
            s.lb2_candidates,
            s.candidates,
            s.postprocessed,
            s.false_alarms,
            s.answers,
            s.cascade_lb_keogh_kills,
            s.cascade_lb_improved_kills,
            s.cascade_abandon_kills,
            num(self.false_alarm_ratio()),
            num(self.prune_ratio()),
            num(self.candidate_ratio()),
            num(self.sharing_factor()),
            s.filter_cells,
            s.postprocess_cells,
            s.rows_pushed,
            s.rows_unshared,
            num(self.filter.sum as f64 / 1e6),
            num(self.postprocess.sum as f64 / 1e6),
            self.plan,
        )
    }
}

impl std::fmt::Display for ExplainReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = &self.stats;
        writeln!(f, "query:  {} values, ε = {}", self.query_len, self.epsilon)?;
        writeln!(
            f,
            "index:  {} {}, {} stored suffixes",
            self.kind, self.backend, self.suffixes
        )?;
        writeln!(f, "plan:   {}", self.plan)?;
        writeln!(f, "filter funnel:")?;
        writeln!(
            f,
            "  nodes visited     {:>10}  ({} expanded, {} subtrees pruned, {:.1}%)",
            s.nodes_visited,
            s.nodes_expanded,
            s.branches_pruned,
            100.0 * self.prune_ratio()
        )?;
        writeln!(
            f,
            "  candidate lists   {:>10}  ({} stored-suffix, {} shifted starts)",
            s.candidates, s.stored_candidates, s.lb2_candidates
        )?;
        writeln!(f, "  exact DTW checks  {:>10}", s.postprocessed)?;
        let kills =
            s.cascade_lb_keogh_kills + s.cascade_lb_improved_kills + s.cascade_abandon_kills;
        if kills > 0 {
            let rate = |k: u64| {
                if s.postprocessed == 0 {
                    0.0
                } else {
                    100.0 * k as f64 / s.postprocessed as f64
                }
            };
            writeln!(
                f,
                "  cascade kills     {:>10}  (LB_Keogh {} = {:.1}%, abandon {} = {:.1}%)",
                kills,
                s.cascade_lb_keogh_kills,
                rate(s.cascade_lb_keogh_kills),
                s.cascade_abandon_kills,
                rate(s.cascade_abandon_kills),
            )?;
        }
        writeln!(
            f,
            "  answers           {:>10}  ({} false alarms, {:.1}% rate)",
            s.answers,
            s.false_alarms,
            100.0 * self.false_alarm_ratio()
        )?;
        writeln!(f, "tables:")?;
        writeln!(f, "  filter cells      {:>10}", s.filter_cells)?;
        if s.rows_unshared > 0 {
            writeln!(
                f,
                "  rows pushed       {:>10}  (vs {} unshared — R_d sharing ×{:.2})",
                s.rows_pushed,
                s.rows_unshared,
                self.sharing_factor()
            )?;
        } else {
            writeln!(f, "  rows pushed       {:>10}", s.rows_pushed)?;
        }
        writeln!(f, "  postprocess cells {:>10}", s.postprocess_cells)?;
        writeln!(f, "time:")?;
        writeln!(
            f,
            "  filter       {:>10.3} ms",
            self.filter.sum as f64 / 1e6
        )?;
        write!(
            f,
            "  postprocess  {:>10.3} ms",
            self.postprocess.sum as f64 / 1e6
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use crate::Categorization;

    fn sample_store() -> SequenceStore {
        stock_corpus(&StockConfig {
            sequences: 12,
            mean_len: 40,
            ..Default::default()
        })
    }

    #[test]
    fn report_matches_checked_search() {
        let store = sample_store();
        let index = Index::sparse(&store, Categorization::MaxEntropy(8)).unwrap();
        let q = store.get(SeqId(2)).subseq(4, 8).to_vec();
        let params = SearchParams::with_epsilon(2.0);
        let (answers, report) = ExplainReport::for_index(&index, &q, &params).unwrap();
        let (out, stats) = index
            .query(&QueryRequest::threshold_params(&q, params.clone()))
            .unwrap();
        let checked = out.into_answer_set();
        assert_eq!(answers.occurrence_set(), checked.occurrence_set());
        assert_eq!(report.stats, stats);
        assert_eq!(report.kind, "sparse");
        assert_eq!(report.filter.count, 1);
        assert_eq!(report.postprocess.count, 1);
    }

    #[test]
    fn funnel_invariants_hold() {
        let store = sample_store();
        for sparse in [false, true] {
            let index = if sparse {
                Index::sparse(&store, Categorization::MaxEntropy(8)).unwrap()
            } else {
                Index::full(&store, Categorization::MaxEntropy(8)).unwrap()
            };
            let q = store.get(SeqId(0)).subseq(2, 6).to_vec();
            let params = SearchParams::with_epsilon(3.0);
            let (_, r) = ExplainReport::for_index(&index, &q, &params).unwrap();
            let s = &r.stats;
            assert_eq!(s.nodes_visited, s.nodes_expanded + s.branches_pruned);
            assert_eq!(s.candidates, s.stored_candidates + s.lb2_candidates);
            assert_eq!(s.postprocessed, s.answers + s.false_alarms);
            // Cascade kills are a subset of the false alarms.
            let kills =
                s.cascade_lb_keogh_kills + s.cascade_lb_improved_kills + s.cascade_abandon_kills;
            assert!(kills <= s.false_alarms);
            assert!(s.rows_unshared >= s.rows_pushed);
            if !sparse {
                assert_eq!(s.lb2_candidates, 0);
            }
        }
    }

    #[test]
    fn json_and_display_render() {
        let store = sample_store();
        let index = Index::full(&store, Categorization::EqualLength(6)).unwrap();
        let q = store.get(SeqId(1)).subseq(0, 5).to_vec();
        let (_, r) =
            ExplainReport::for_index(&index, &q, &SearchParams::with_epsilon(1.0)).unwrap();
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"funnel\""));
        assert!(j.contains("\"cascade\""));
        assert!(j.contains("\"lb_keogh_kills\""));
        assert!(j.ends_with(",\"plan\":\"index\"}"));
        let text = r.to_string();
        assert!(text.contains("filter funnel"));
        assert!(text.contains("exact DTW checks"));
    }
}
