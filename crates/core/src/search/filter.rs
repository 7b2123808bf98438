//! The unified suffix-tree filter (`Filter-ST` / `Filter-ST_C` /
//! `Filter-SST_C`, paper Algorithms 2, 3 and §6.3).
//!
//! One traversal serves all three indexes:
//!
//! * With a **singleton alphabet**, `D_base-lb` is the exact city-block
//!   distance, so the filter computes exact `D_tw` — the paper's
//!   `Filter-ST` over the plain suffix tree.
//! * With a real categorization, the filter computes `D_tw-lb`
//!   (Definition 3) — `Filter-ST_C`.
//! * When the index reports itself sparse, the filter also emits
//!   candidates for the *non-stored* suffixes, the shifted starts inside
//!   a stored suffix's leading run — `Filter-SST_C`. It walks the path's
//!   leading run as **one table row**: a repeat of the run's symbol
//!   pushes none. Over a run of one category `c`, a fresh table's row
//!   `m` is `R_m(x) = S(x) + (m − x)⁺·M(x)`, with `S` the prefix sum and
//!   `M` the prefix minimum of `c`'s base row, so `R_m` does not fall as
//!   `m` grows — cell by cell in `f64` too, since `fl(b + ·)` is
//!   monotone — and neither does anything the DTW recurrence builds on
//!   it. The collapsed table is therefore, at every later row, at most
//!   the own `D_tw-lb` table of the stored suffix and of every shift
//!   into its run: one distance within ε emits them all, and one row
//!   minimum over ε prunes them all (plain Theorem 1). The paper's
//!   `D_tw-lb2` (Definition 4) and Theorem-3 relaxation assume the worst
//!   case at every column instead; [`crate::bounds::dtw_lb2`] keeps them
//!   as a reference.
//!
//! The traversal shares one incrementally grown [`WarpTable`] across all
//! suffixes with a common prefix (the paper's `R_d` saving) and prunes
//! subtrees by Theorem 1 (the `R_p` saving).
//!
//! Emission shares the same way. A qualifying row emits nothing on the
//! spot: it joins a stack of the path's *emitting rows*, kept beside the
//! table and truncated with it on backtrack. Only where the traversal
//! stops above a stored suffix — below a child it prunes, or at a node
//! it continues under, for the suffixes attached there — does the stack
//! become candidates. Every suffix there shares the whole path, so per
//! shift `k` the path yields one ascending length list for all of them,
//! stored once; each suffix then adds one [`CandidateGroups`] header per
//! non-empty list. Each stored suffix is enumerated once per query, and
//! each `(seq, start)` gets one complete, sorted group.

use crate::categorize::{Alphabet, Symbol};
use crate::dtw::{WarpTable, BLOCK_ROWS};
use crate::search::answers::{CandidateGroups, Group, SearchParams, SearchStats};
use crate::search::backend::{IndexBackend, NodeVisit};
use crate::search::metrics::{attach, SearchMetrics};
use crate::sequence::{SeqId, Value};

/// State carried down the traversal that must be restored on backtrack —
/// cheap to copy, so recursion restores it for free. The leading run
/// (`lead`, `in_run`) is tracked on a sparse tree only: a dense one
/// shifts nothing.
#[derive(Clone, Copy)]
struct PathState {
    /// Length of the path.
    depth: u32,
    /// Rows in the table: the path's length less, on a sparse tree, the
    /// repeats of its leading run, which push none.
    rows: u32,
    /// First symbol of the path (valid when `depth > 0`).
    first: Symbol,
    /// Length of the leading run of the path label.
    lead: u32,
    /// `true` while the whole path is still one run (`lead == depth`).
    in_run: bool,
}

/// The per-query table of base rows: `row(sym)[x] = base(Q[x], sym)`,
/// filled the first time the traversal meets `sym`. A traversal meets
/// the same few symbols at every depth (and in runs along an edge), so
/// the base distance — a closure call and, for a real alphabet, two
/// compares — is paid `|Q|` times per *symbol*, and a block of table rows
/// becomes one pass over contiguous slices.
///
/// Nothing is sized by the alphabet: rows are appended as symbols turn
/// up, and the symbol → row map grows to the largest symbol met, so the
/// large grid alphabets of the multivariate search and arbitrary `base`
/// closures cost what they use.
struct BaseRows {
    /// `1 +` the symbol's row number in `rows`; `0` while unmet.
    slot: Vec<u32>,
    /// The filled rows back to back, `|Q|` values each.
    rows: Vec<f64>,
}

impl BaseRows {
    fn new() -> Self {
        Self {
            slot: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Where `sym`'s row starts in `rows`, filling it first if unmet.
    fn at<B: Fn(Value, Symbol) -> f64>(&mut self, sym: Symbol, query: &[Value], base: &B) -> usize {
        let (s, n) = (sym as usize, query.len());
        if s >= self.slot.len() {
            self.slot.resize(s + 1, 0);
        }
        if self.slot[s] == 0 {
            self.rows.extend(query.iter().map(|&q| base(q, sym)));
            self.slot[s] = (self.rows.len() / n) as u32;
        }
        (self.slot[s] as usize - 1) * n
    }
}

/// A row of the current path whose table distance is within ε: its
/// depth, whether the stored suffixes below are candidates there, and
/// the shifts `lo..=hi` into their leading run that are (`lo > hi` for
/// none). Every answer length it stands for is inside the length range.
#[derive(Debug, Clone, Copy)]
struct Emitting {
    row: u32,
    stored: bool,
    shifts: (u32, u32),
}

/// Where a frontier's suffixes hang: attached at its node, or anywhere
/// below it.
#[derive(Clone, Copy)]
enum Frontier {
    At,
    Below,
}

struct FilterCtx<'a, T: IndexBackend, B: Fn(Value, Symbol) -> f64> {
    tree: &'a T,
    /// Base lower-bound distance between a query element (as stored in
    /// the table's query row) and a data symbol.
    base: &'a B,
    params: &'a SearchParams,
    sparse: bool,
    max_len: Option<u32>,
    min_len: u32,
    table: WarpTable,
    rows: BaseRows,
    /// The children of every node on the current path, innermost last:
    /// the one buffer [`IndexBackend::visit`] appends to, truncated on
    /// backtrack like the table.
    kids: Vec<T::Node>,
    /// The emitting rows of the current path, shallowest first,
    /// truncated on backtrack like the table.
    path: Vec<Emitting>,
    /// A frontier's `(k, lens range)` per non-empty shift list.
    shift_lens: Vec<(u32, (u32, u32))>,
    /// A frontier's per-shift list sizes, then write cursors.
    shift_next: Vec<u32>,
    out: CandidateGroups,
    /// What this traversal counted, cells aside: a row push is a few
    /// nanoseconds, so its bookkeeping is an `add` on a local, and the
    /// shared metrics hear of it once, in [`finish`](Self::finish).
    tallies: SearchStats,
    metrics: &'a SearchMetrics,
    /// The per-row emitter the frontier emission replaced, run beside it.
    #[cfg(test)]
    oracle: Option<tests::Oracle>,
}

impl<'a, T: IndexBackend, B: Fn(Value, Symbol) -> f64> FilterCtx<'a, T, B> {
    /// A context over `table` and its emitting rows `path` with nothing
    /// emitted yet — the caller's, or a parallel fork's over its copy of
    /// the shared prefix.
    fn new(
        tree: &'a T,
        base: &'a B,
        params: &'a SearchParams,
        table: WarpTable,
        path: Vec<Emitting>,
        metrics: &'a SearchMetrics,
    ) -> Self {
        let query_len = table.query().len();
        FilterCtx {
            tree,
            base,
            params,
            sparse: tree.is_sparse(),
            max_len: params.effective_max_len(query_len),
            min_len: params.effective_min_len(query_len),
            table,
            rows: BaseRows::new(),
            kids: Vec::new(),
            path,
            shift_lens: Vec::new(),
            shift_next: Vec::new(),
            out: CandidateGroups::default(),
            tallies: SearchStats::default(),
            metrics,
            #[cfg(test)]
            oracle: None,
        }
    }

    /// Everything this traversal has counted so far, its cells included.
    fn counted(&self) -> SearchStats {
        SearchStats {
            filter_cells: self.table.cells_computed(),
            ..self.tallies
        }
    }

    /// Adds this traversal's counts to its metrics and hands back what
    /// it emitted.
    fn finish(self) -> CandidateGroups {
        self.metrics.add(&self.counted());
        self.out
    }
}

/// Runs the lower-bound filter over the index, returning every candidate
/// occurrence whose lower-bound distance to `query` is `≤ ε`, grouped by
/// start offset.
///
/// Candidates must be verified by
/// [`postprocess`](crate::search::postprocess::postprocess) unless the
/// alphabet is singleton (exact).
///
/// # Panics
/// Panics if the query is empty or ε is invalid (use
/// [`SearchParams::validate`] to pre-check).
pub fn filter_tree<T: IndexBackend + Sync>(
    tree: &T,
    alphabet: &Alphabet,
    query: &[Value],
    params: &SearchParams,
    metrics: &SearchMetrics,
) -> CandidateGroups {
    filter_tree_with(
        tree,
        &|q, sym| alphabet.base_lb(q, sym),
        query,
        params,
        metrics,
    )
}

/// Generalized filter: like [`filter_tree`] but with an arbitrary base
/// lower-bound function over `(query element, symbol)` pairs.
///
/// This is the hook the multivariate extension uses: its "query" is a
/// sequence of point *indices* and `base` resolves them against grid
/// cells. Any `base` that lower-bounds the true base distance yields a
/// filter with no false dismissals (Theorem 2's argument is agnostic to
/// where the bound comes from) — as long as it is never negative, which
/// Theorem-1 pruning and the shift emission both build on.
///
/// With `params.threads > 1` the traversal forks at the root's (and,
/// when the root is narrow, the depth-2) subtrees across worker threads;
/// each fork clones the shared cumulative-table prefix and its emitting
/// rows, so Theorem-1 pruning and `R_d` sharing are preserved per
/// branch, and groups join in depth-first order — the result (and every
/// counter total) is byte-identical to the sequential traversal.
pub fn filter_tree_with<T: IndexBackend + Sync, B: Fn(Value, Symbol) -> f64 + Sync>(
    tree: &T,
    base: &B,
    query: &[Value],
    params: &SearchParams,
    metrics: &SearchMetrics,
) -> CandidateGroups {
    let mut ctx = start(tree, base, query, params, metrics);
    traverse(&mut ctx);
    ctx.finish()
}

/// Checks the query against the index and sets up its traversal.
fn start<'a, T: IndexBackend, B: Fn(Value, Symbol) -> f64>(
    tree: &'a T,
    base: &'a B,
    query: &[Value],
    params: &'a SearchParams,
    metrics: &'a SearchMetrics,
) -> FilterCtx<'a, T, B> {
    params
        .validate(query.len())
        .expect("invalid search parameters");
    if let Some(limit) = tree.depth_limit() {
        // A truncated index (paper §8) only holds suffix prefixes: the
        // query must bound its answer length within the stored depth.
        let max = params
            .effective_max_len(query.len())
            .expect("truncated index requires a bounded answer length");
        assert!(
            max <= limit,
            "answer-length bound {max} exceeds the index's depth limit {limit}"
        );
    }
    // Sparse trees traverse with an *unwindowed* table even when a
    // warping window is requested: the shifted (non-stored) suffixes of
    // Definition 4 live at table rows beyond |Q| + w, where a windowed
    // table is all-infinite. The unconstrained lower bound remains valid
    // (banding a table can only raise distances), and the window is
    // enforced exactly during post-processing.
    let table_window = if tree.is_sparse() {
        None
    } else {
        params.window
    };
    let table = WarpTable::new(query, table_window);
    FilterCtx::new(tree, base, params, table, Vec::new(), metrics)
}

/// Walks the whole index from its root, forking across threads when the
/// parameters ask for them.
fn traverse<T: IndexBackend + Sync, B: Fn(Value, Symbol) -> f64 + Sync>(
    ctx: &mut FilterCtx<'_, T, B>,
) {
    let root = ctx.tree.root();
    let state = PathState {
        depth: 0,
        rows: 0,
        first: 0,
        lead: 0,
        in_run: true,
    };
    let threads = ctx.params.threads.max(1) as usize;
    if threads > 1 {
        descend_parallel(ctx, root, state, threads);
    } else {
        ctx.tree.visit(root, &mut ctx.kids);
        let root_children = 0..ctx.kids.len();
        if ctx.metrics.trace.is_active() {
            descend_root_traced(ctx, root_children, state);
        } else {
            descend(ctx, root_children, state);
        }
    }
}

/// Enters `child`: visits it, appending its children to the buffer, and
/// walks its edge. Where the walk prunes, the suffixes below `child` are
/// emitted and `None` comes back; otherwise its attached suffixes are,
/// and the state to descend with.
fn enter<T: IndexBackend, B: Fn(Value, Symbol) -> f64>(
    ctx: &mut FilterCtx<'_, T, B>,
    child: T::Node,
    state: PathState,
) -> Option<PathState> {
    ctx.tallies.nodes_visited += 1;
    let visit = ctx.tree.visit(child, &mut ctx.kids);
    let next = walk_edge(ctx, state, &visit);
    #[cfg(test)]
    if let Some(oracle) = ctx.oracle.as_mut() {
        let lens = (ctx.min_len, ctx.max_len);
        oracle.emit_edge(ctx.tree, child, ctx.sparse, ctx.params.epsilon, lens);
    }
    match next {
        Some(_) => {
            ctx.tallies.nodes_expanded += 1;
            if visit.attached > 0 {
                emit(ctx, child, Frontier::At);
            }
        }
        None => emit(ctx, child, Frontier::Below),
    }
    next
}

/// One iteration of [`descend`]'s child loop, without the backtracking
/// truncates: the unit of work a parallel fork executes for its subtree
/// root (the fork's table and buffers are discarded afterwards, so
/// nothing needs restoring).
fn visit_child<T: IndexBackend, B: Fn(Value, Symbol) -> f64>(
    ctx: &mut FilterCtx<'_, T, B>,
    child: T::Node,
    state: PathState,
) {
    let below = ctx.kids.len();
    if let Some(next) = enter(ctx, child, state) {
        descend(ctx, below..ctx.kids.len(), next);
    }
}

/// Parallel traversal: forks the tree at root-level subtrees — or, when
/// the root has fewer children than workers, walks each root edge on
/// the caller's table and forks at the depth-2 subtrees instead — and
/// runs the forks through [`parallel_map_with`](crate::parallel::parallel_map_with).
///
/// Each fork gets a [`WarpTable::fork`] of the shared prefix and a copy
/// of its emitting rows (so Theorem-1 pruning, row sharing and emission
/// behave exactly as in the sequential traversal) and its own tallies,
/// added to the metrics when it ends. Groups are re-assembled in
/// depth-first order: for each root child, the groups its edge emitted
/// during fork discovery, then its forks' groups in child order.
fn descend_parallel<T: IndexBackend + Sync, B: Fn(Value, Symbol) -> f64 + Sync>(
    ctx: &mut FilterCtx<'_, T, B>,
    root: T::Node,
    state: PathState,
    threads: usize,
) {
    let mut children = Vec::new();
    ctx.tree.visit(root, &mut children);
    let expand = children.len() < threads;
    // The forked tasks, and per root child the (group end, length end,
    // task end) watermarks used to stitch the output back together.
    let mut tasks: Vec<(T::Node, PathState, WarpTable, Vec<Emitting>)> = Vec::new();
    let mut segments: Vec<(usize, usize, usize)> = Vec::with_capacity(children.len());
    for child in children {
        if expand {
            if let Some(next) = enter(ctx, child, state) {
                for &g in &ctx.kids {
                    tasks.push((g, next, ctx.table.fork(), ctx.path.clone()));
                }
            }
            // Back at the root, whose path is empty.
            ctx.kids.clear();
            ctx.table.truncate(state.rows);
            ctx.path.clear();
        } else {
            tasks.push((child, state, ctx.table.fork(), Vec::new()));
        }
        segments.push((ctx.out.groups.len(), ctx.out.lens.len(), tasks.len()));
    }
    let (tree, base, params, metrics) = (ctx.tree, ctx.base, ctx.params, ctx.metrics);
    let results =
        crate::parallel::parallel_map(threads, tasks, |_i, (node, state, table, path)| {
            // Under an active trace each fork gets its own span (noop
            // otherwise — one inlined branch, per the obs contract);
            // forks run concurrently, so spans overlap rather than
            // partition the filter's wall time.
            let span = metrics.trace_span("filter.task");
            let mut fork_ctx = FilterCtx::new(tree, base, params, table, path, metrics);
            visit_child(&mut fork_ctx, node, state);
            if span.is_active() {
                if let Some(seg) = tree.segment_hint(node) {
                    span.attr_u64("segment", seg as u64);
                }
                // A fork starts from zero, so its counts are its own.
                attach(&span, &fork_ctx.counted());
            }
            // A fork's counts reach the shared counters here, once.
            fork_ctx.finish()
        });
    // Stitch: per root child, what its own edge emitted, then its forks'.
    let prefix = std::mem::take(&mut ctx.out);
    let (mut prev_group, mut prev_len, mut prev_task) = (0usize, 0usize, 0usize);
    for (group_end, len_end, task_end) in segments {
        ctx.out
            .append(&prefix, prev_group..group_end, prev_len..len_end);
        for fork in &results[prev_task..task_end] {
            ctx.out
                .append(fork, 0..fork.groups.len(), 0..fork.lens.len());
        }
        (prev_group, prev_len, prev_task) = (group_end, len_end, task_end);
    }
}

impl CandidateGroups {
    /// Appends `other.groups[groups]`, whose lengths all lie in
    /// `other.lens[lens]`, rebased onto a copy of those lengths, with
    /// the marks of the families they form (a family is emitted whole,
    /// so `groups` starts one and ends one).
    fn append(
        &mut self,
        other: &CandidateGroups,
        groups: std::ops::Range<usize>,
        lens: std::ops::Range<usize>,
    ) {
        let (from, to) = (lens.start as u32, self.lens.len() as u32);
        self.lens.extend_from_slice(&other.lens[lens]);
        u32::try_from(self.lens.len()).expect("candidate lengths fit u32");
        let (first, at) = (groups.start as u32, self.groups.len() as u32);
        let families = &other.families;
        let marks = families.partition_point(|&g| g < first)
            ..families.partition_point(|&g| (g as usize) < groups.end);
        debug_assert!(groups.is_empty() || families.get(marks.start) == Some(&first));
        self.families
            .extend(families[marks].iter().map(|&g| g - first + at));
        self.groups
            .extend(other.groups[groups].iter().map(|g| Group {
                lens: (g.lens.0 - from + to, g.lens.1 - from + to),
                ..*g
            }));
    }
}

/// Sequential root traversal under an active trace: identical work (and
/// work *order*) to [`descend`] over the root's children
/// `ctx.kids[children]`, but with runs of root children sharing a
/// [`segment_hint`](IndexBackend::segment_hint) grouped under a
/// `filter.segment` span carrying that run's counter deltas. Over a
/// single-segment index the whole root becomes one anonymous
/// `filter.segment` span.
fn descend_root_traced<T: IndexBackend, B: Fn(Value, Symbol) -> f64>(
    ctx: &mut FilterCtx<'_, T, B>,
    children: std::ops::Range<usize>,
    state: PathState,
) {
    let (mut i, end) = (children.start, children.end);
    while i < end {
        let seg = ctx.tree.segment_hint(ctx.kids[i]);
        let mut j = i + 1;
        while j < end && ctx.tree.segment_hint(ctx.kids[j]) == seg {
            j += 1;
        }
        let span = ctx.metrics.trace_span("filter.segment");
        if let Some(s) = seg {
            span.attr_u64("segment", s as u64);
        }
        let before = ctx.counted();
        descend(ctx, i..j, state);
        span.attr_u64("root_children", (j - i) as u64);
        attach(&span, &ctx.counted().since(&before));
        i = j;
    }
}

/// Walks the subtrees under the siblings `ctx.kids[siblings]` — the
/// children of the node the traversal stands on, or a run of them.
/// Everything past them in the buffers belongs to the subtree being
/// walked and is dropped on the way back up.
fn descend<T: IndexBackend, B: Fn(Value, Symbol) -> f64>(
    ctx: &mut FilterCtx<'_, T, B>,
    siblings: std::ops::Range<usize>,
    state: PathState,
) {
    let (end, path) = (ctx.kids.len(), ctx.path.len());
    for i in siblings {
        let child = ctx.kids[i];
        visit_child(ctx, child, state);
        // Backtrack: drop this edge's rows, emitting rows and the
        // subtree's children.
        ctx.kids.truncate(end);
        ctx.table.truncate(state.rows);
        ctx.path.truncate(path);
    }
}

/// Consumes the edge label of a visited node, noting each row within ε
/// among the path's emitting rows and applying Theorem-1 pruning.
/// Returns the state at the node when traversal should continue below
/// it, `None` when pruned.
///
/// On a sparse tree a repeat of the path's leading run pushes no row:
/// the table keeps the run's one row (module docs), whose minimum was
/// judged when it was pushed, so the run's rows only emit.
///
/// The table grows a block of up to [`BLOCK_ROWS`] rows at a time. A
/// block stops at the label's end and at the depth cap, so only Theorem
/// 1 can cut it: the rows are then judged in order, and those past a
/// pruning row are retracted, uncounted, as if never pushed.
fn walk_edge<T: IndexBackend, B: Fn(Value, Symbol) -> f64>(
    ctx: &mut FilterCtx<'_, T, B>,
    mut state: PathState,
    visit: &NodeVisit<'_>,
) -> Option<PathState> {
    // A sparse tree may usefully descend past the answer-length cap: a
    // row at depth r still yields shifted candidates of length r − k,
    // for k up to the longest stored-suffix leading run below, less one.
    let depth_allowance = if ctx.sparse {
        visit.max_lead_run.saturating_sub(1)
    } else {
        0
    };
    // The deepest row worth pushing: past it no row yields an in-range
    // answer length. It is the band's end too: only a dense tree walks a
    // banded table, and its `max_len` already stops at |Q| + w.
    let last_row = ctx
        .max_len
        .map_or(u64::MAX, |m| m as u64 + depth_allowance as u64);
    // Weight of each row pushed along this edge in the `R_d` metric:
    // the number of stored suffixes sharing it, when the index knows.
    let unshared_weight = visit.suffix_count.unwrap_or(0);
    let n = ctx.table.query().len();
    let mut label = visit.label;
    while !label.is_empty() {
        let room = last_row.saturating_sub(state.depth as u64);
        if room == 0 {
            ctx.tallies.branches_pruned += 1;
            return None;
        }
        let room = usize::try_from(room).unwrap_or(usize::MAX);
        if ctx.sparse && state.in_run && state.depth > 0 {
            // The run goes on: each repeat emits at the run's one row.
            let repeats = label
                .iter()
                .take(room)
                .take_while(|&&sym| sym == state.first)
                .count();
            let dist = ctx.table.row_stat(state.rows).dist;
            for _ in 0..repeats {
                state.depth += 1;
                state.lead += 1;
                note_row(ctx, state, dist);
            }
            label = &label[repeats..];
            state.in_run = repeats > 0;
            continue;
        }
        // A sparse path's first symbol goes alone: its repeats push none.
        let fits = if ctx.sparse && state.depth == 0 {
            1
        } else {
            room.min(BLOCK_ROWS)
        };
        let (block, rest) = label.split_at(label.len().min(fits));
        label = rest;
        let mut at = [0; BLOCK_ROWS];
        for (at, &sym) in at.iter_mut().zip(block) {
            *at = ctx.rows.at(sym, ctx.table.query(), ctx.base);
        }
        // Entries past the block point at the first base row and go unused.
        let bases: [&[f64]; BLOCK_ROWS] = std::array::from_fn(|i| &ctx.rows.rows[at[i]..at[i] + n]);
        ctx.table.push_base_rows(&bases[..block.len()]);
        for &sym in block {
            if state.depth == 0 {
                state.first = sym;
                state.lead = 1;
                state.in_run = true;
            }
            state.depth += 1;
            state.rows += 1;
            ctx.tallies.rows_pushed += 1;
            ctx.tallies.rows_unshared += unshared_weight;
            #[cfg(test)]
            if let Some(oracle) = ctx.oracle.as_mut() {
                oracle.pushed(state.rows);
            }
            let stat = ctx.table.row_stat(state.rows);
            note_row(ctx, state, stat.dist);
            if stat.prunes(ctx.params.epsilon) {
                ctx.tallies.branches_pruned += 1;
                ctx.table.retract(state.rows);
                return None;
            }
        }
    }
    Some(state)
}

/// Notes path row `state.depth`, whose table distance is `dist`, among
/// the path's emitting rows when that distance is within ε: the stored
/// suffixes below are candidates there, and on a sparse tree so is every
/// shift into their leading run, each where its answer length lies in
/// the length range.
fn note_row<T: IndexBackend, B: Fn(Value, Symbol) -> f64>(
    ctx: &mut FilterCtx<'_, T, B>,
    state: PathState,
    dist: f64,
) {
    let r = state.depth;
    let max_k = if ctx.sparse { state.lead - 1 } else { 0 };
    #[cfg(test)]
    if let Some(oracle) = ctx.oracle.as_mut() {
        oracle.row(r, dist, max_k);
    }
    if dist > ctx.params.epsilon {
        return;
    }
    let (min_len, max_len) = (ctx.min_len, ctx.max_len);
    let stored = r >= min_len && max_len.is_none_or(|m| r <= m);
    let shifts = in_range_shifts(max_k, r, min_len, max_len).into_inner();
    if stored || shifts.0 <= shifts.1 {
        ctx.path.push(Emitting {
            row: r,
            stored,
            shifts,
        });
    }
}

/// The shifts `k` of `1..=max_k` whose answer length `r − k` at path row
/// `r` lies in `[min_len, max_len]`; `min_len` is at least 1, so every
/// one leaves a length.
fn in_range_shifts(
    max_k: u32,
    r: u32,
    min_len: u32,
    max_len: Option<u32>,
) -> std::ops::RangeInclusive<u32> {
    debug_assert!(min_len >= 1 && max_k < r);
    let lo = r.saturating_sub(max_len.unwrap_or(u32::MAX)).max(1);
    lo..=max_k.min(r.saturating_sub(min_len))
}

/// Turns the path's emitting rows into candidate groups for the stored
/// suffixes at (or below) `node`, where the traversal stops above them.
///
/// Every one of them shares the whole path, so per shift `k` the rows
/// yield one ascending list of answer lengths `row − k` for all of them,
/// appended to the shared buffer once; each suffix then gets one header
/// per non-empty list. A shift stays inside the leading run of every
/// suffix below the rows it comes from (`k < run`, DESIGN.md §5), so a
/// start `start + k` belongs to this suffix alone.
///
/// The lists are built by count and scatter, in time linear in the path,
/// the largest shift and the lengths written: each list's size is
/// counted (the stored rows for `k = 0`, each row's shift range added to
/// a difference array), prefix offsets place the lists back to back, and
/// one pass in path order — rows ascending — writes every `row − k`.
fn emit<T: IndexBackend, B: Fn(Value, Symbol) -> f64>(
    ctx: &mut FilterCtx<'_, T, B>,
    node: T::Node,
    frontier: Frontier,
) {
    if ctx.path.is_empty() {
        return;
    }
    let max_k = ctx.path.iter().map(|e| e.shifts.1).max().unwrap_or(0) as usize;
    // `next[k]`: first the size of list `k` (for `k ≥ 1` as differences,
    // which wrap below zero until summed), then its write cursor.
    let (next, path) = (&mut ctx.shift_next, &ctx.path);
    next.clear();
    next.resize(max_k + 2, 0);
    for e in path {
        next[0] += u32::from(e.stored);
        let (lo, hi) = e.shifts;
        if lo <= hi {
            next[lo as usize] = next[lo as usize].wrapping_add(1);
            next[hi as usize + 1] = next[hi as usize + 1].wrapping_sub(1);
        }
    }
    ctx.shift_lens.clear();
    let lens = &mut ctx.out.lens;
    let (mut end, mut open) = (lens.len(), 0u32);
    for (k, next) in next[..=max_k].iter_mut().enumerate() {
        let size = if k == 0 {
            *next
        } else {
            open = open.wrapping_add(*next);
            open
        };
        let at = u32::try_from(end).expect("candidate lengths fit u32");
        end += size as usize;
        if size > 0 {
            let hi = u32::try_from(end).expect("candidate lengths fit u32");
            ctx.shift_lens.push((k as u32, (at, hi)));
        }
        *next = at;
    }
    lens.resize(end, 0);
    for e in path {
        if e.stored {
            lens[next[0] as usize] = e.row;
            next[0] += 1;
        }
        for k in e.shifts.0..=e.shifts.1 {
            lens[next[k as usize] as usize] = e.row - k;
            next[k as usize] += 1;
        }
    }
    let (out, shift_lens) = (&mut ctx.out, &ctx.shift_lens);
    let (groups, families) = (&mut out.groups, &mut out.families);
    let mut suffixes = 0u64;
    // Each suffix's groups are one family: `start + k`, `k` ascending.
    let mut push = |seq: SeqId, start: u32, run: u32| {
        suffixes += 1;
        families.push(u32::try_from(groups.len()).expect("candidate groups fit u32"));
        for &(k, lens) in shift_lens {
            debug_assert!(k == 0 || k < run);
            let _ = run;
            groups.push(Group {
                seq,
                start: start + k,
                lens,
            });
        }
    };
    match frontier {
        Frontier::At => ctx.tree.for_each_suffix_at(node, &mut push),
        Frontier::Below => ctx.tree.for_each_suffix_below(node, &mut push),
    }
    // Funnel accounting: stored-suffix vs shifted-start (sparse only)
    // emissions, one per emitting row and suffix.
    let width = |(_, (lo, hi)): &(u32, (u32, u32))| u64::from(hi - lo);
    let stored = shift_lens.first().filter(|s| s.0 == 0).map_or(0, width);
    let all: u64 = shift_lens.iter().map(width).sum();
    ctx.tallies.stored_candidates += stored * suffixes;
    ctx.tallies.lb2_candidates += (all - stored) * suffixes;
    ctx.tallies.candidates += all * suffixes;
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::categorize::CatStore;
    use crate::sequence::Occurrence;

    /// A tiny hand-built tree for unit-testing the filter without the
    /// index crates (which depend on this one).
    type ToyNode = (Vec<Symbol>, Vec<usize>, Vec<(SeqId, u32, u32)>);

    pub(crate) struct ToyTree {
        /// node -> (edge label, children, suffix labels (seq, start, run))
        nodes: Vec<ToyNode>,
        sparse: bool,
    }

    impl ToyTree {
        /// Builds a naive tree holding the given suffixes of `cs`.
        fn build(cs: &CatStore, suffixes: &[(u32, u32)], sparse: bool) -> Self {
            let mut t = ToyTree {
                nodes: vec![(Vec::new(), Vec::new(), Vec::new())],
                sparse,
            };
            for &(seq, start) in suffixes {
                let id = SeqId(seq);
                let symbols: Vec<Symbol> = cs.seq(id)[start as usize..].to_vec();
                let run = cs.run_len(id, start);
                t.insert(&symbols, (id, start, run));
            }
            t.compact();
            t
        }

        /// Merges each chain of single-child nodes that hold no suffix
        /// into one edge, as a suffix tree's edges are, so a walk meets
        /// labels longer than a row block. The merged-away nodes stay in
        /// `nodes`, unreachable.
        fn compact(&mut self) {
            // Children come after their parents, so a chain is merged
            // from its top.
            for n in 1..self.nodes.len() {
                while let ([c], []) = (&self.nodes[n].1[..], &self.nodes[n].2[..]) {
                    let c = *c;
                    let (label, children, suffixes) = std::mem::take(&mut self.nodes[c]);
                    self.nodes[n].0.extend(label);
                    self.nodes[n].1 = children;
                    self.nodes[n].2 = suffixes;
                }
            }
        }

        /// A tree over every suffix of `cs` — or, sparse, over the §6.1
        /// subset.
        pub(crate) fn over(cs: &CatStore, sparse: bool) -> Self {
            let mut suffixes = Vec::new();
            for (id, s) in cs.seqs().iter().enumerate() {
                for p in 0..s.len() as u32 {
                    if !sparse || cs.is_stored_suffix(SeqId(id as u32), p) {
                        suffixes.push((id as u32, p));
                    }
                }
            }
            Self::build(cs, &suffixes, sparse)
        }

        /// Inserts one suffix, creating single-symbol edges (a trie, until
        /// [`compact`](Self::compact) merges its chains).
        fn insert(&mut self, symbols: &[Symbol], label: (SeqId, u32, u32)) {
            let mut node = 0usize;
            for &s in symbols {
                let found = self.nodes[node]
                    .1
                    .iter()
                    .copied()
                    .find(|&c| self.nodes[c].0 == [s]);
                node = match found {
                    Some(c) => c,
                    None => {
                        let c = self.nodes.len();
                        self.nodes.push((vec![s], Vec::new(), Vec::new()));
                        self.nodes[node].1.push(c);
                        c
                    }
                };
            }
            self.nodes[node].2.push(label);
        }
    }

    impl IndexBackend for ToyTree {
        type Node = usize;
        fn root(&self) -> usize {
            0
        }
        fn visit(&self, n: usize, children: &mut impl Extend<usize>) -> NodeVisit<'_> {
            children.extend(self.nodes[n].1.iter().copied());
            let mut max_lead_run = 0;
            self.for_each_suffix_below(n, &mut |_, _, r| max_lead_run = max_lead_run.max(r));
            NodeVisit {
                label: &self.nodes[n].0,
                max_lead_run,
                suffix_count: None,
                attached: self.nodes[n].2.len() as u32,
            }
        }
        fn for_each_suffix_below(&self, n: usize, f: &mut dyn FnMut(SeqId, u32, u32)) {
            self.for_each_suffix_at(n, f);
            for &c in &self.nodes[n].1 {
                self.for_each_suffix_below(c, f);
            }
        }
        fn for_each_suffix_at(&self, n: usize, f: &mut dyn FnMut(SeqId, u32, u32)) {
            for &(s, p, r) in &self.nodes[n].2 {
                f(s, p, r);
            }
        }
        fn is_sparse(&self) -> bool {
            self.sparse
        }
        fn suffix_count(&self) -> u64 {
            let mut n = 0;
            self.for_each_suffix_below(0, &mut |_, _, _| n += 1);
            n
        }
    }

    /// What frontier emission replaced, kept as its oracle: each row
    /// within ε emits one candidate per stored suffix below the edge it
    /// lies on, for itself and for each shift into the path's leading
    /// run, with the row's distance as its bound. It also counts the
    /// rows the traversal committed to the table and the cells each costs
    /// alone, in a table of `query_len` columns banded by `window`.
    pub(super) struct Oracle {
        query_len: usize,
        window: Option<u32>,
        /// The rows of the edge being walked: `(depth, dist, max_k)`.
        rows: Vec<(u32, f64, u32)>,
        /// Every candidate emitted, with its lower bound.
        emitted: Vec<(Occurrence, f64)>,
        stored: u64,
        shifted: u64,
        /// Every row distance met, to plant ε on.
        dists: Vec<f64>,
        pushed: u64,
        cells: u64,
    }

    impl Oracle {
        fn new(query_len: usize, window: Option<u32>) -> Self {
            Oracle {
                query_len,
                window,
                rows: Vec::new(),
                emitted: Vec::new(),
                stored: 0,
                shifted: 0,
                dists: Vec::new(),
                pushed: 0,
                cells: 0,
            }
        }

        pub(super) fn row(&mut self, r: u32, dist: f64, max_k: u32) {
            self.rows.push((r, dist, max_k));
            self.dists.push(dist);
        }

        /// Counts table row `y`, just pushed.
        pub(super) fn pushed(&mut self, y: u32) {
            self.pushed += 1;
            let (y, n) = (y as usize, self.query_len);
            self.cells += match self.window.map(|w| w as usize) {
                None => n as u64,
                Some(w) => {
                    assert!(y <= n + w, "row {y} pushed past the band's end");
                    ((y + w).min(n) + 1).saturating_sub(y.saturating_sub(w).max(1)) as u64
                }
            };
        }

        /// Emits for the rows of the edge just walked into `child`.
        pub(super) fn emit_edge<T: IndexBackend>(
            &mut self,
            tree: &T,
            child: T::Node,
            sparse: bool,
            epsilon: f64,
            (min_len, max_len): (u32, Option<u32>),
        ) {
            let mut below = Vec::new();
            tree.for_each_suffix_below(child, &mut |seq, start, run| below.push((seq, start, run)));
            // A sparse tree may walk rows up to its longest run − 1 past
            // the answer-length cap, for the shifted suffixes; no deeper.
            let run = tree.visit(child, &mut Vec::new()).max_lead_run;
            let allowance = if sparse { run.saturating_sub(1) } else { 0 };
            let cap = max_len.map(|m| m + allowance);
            for (r, dist, max_k) in self.rows.drain(..) {
                assert!(cap.is_none_or(|c| r <= c), "row {r} walked past {cap:?}");
                assert!(sparse || max_k == 0, "a dense row {r} shifts");
                if dist <= epsilon && r >= min_len && max_len.is_none_or(|m| r <= m) {
                    self.stored += below.len() as u64;
                    for &(seq, start, _) in &below {
                        self.emitted.push((Occurrence::new(seq, start, r), dist));
                    }
                }
                for k in brute_shifts((dist, epsilon), max_k, r, (min_len, max_len)) {
                    self.shifted += below.len() as u64;
                    for &(seq, start, run) in &below {
                        assert!(k < run, "shift {k} leaves the run of ({}, {start})", seq.0);
                        let occ = Occurrence::new(seq, start + k, r - k);
                        self.emitted.push((occ, dist));
                    }
                }
            }
        }
    }

    /// One sequential filter pass with the oracle riding along.
    fn with_oracle(
        tree: &ToyTree,
        a: &Alphabet,
        q: &[f64],
        params: &SearchParams,
    ) -> (CandidateGroups, Oracle, SearchStats) {
        let m = SearchMetrics::new();
        let base = |q, sym| a.base_lb(q, sym);
        let mut ctx = start(tree, &base, q, params, &m);
        let table_window = params.window.filter(|_| !tree.sparse);
        ctx.oracle = Some(Oracle::new(q.len(), table_window));
        traverse(&mut ctx);
        let oracle = ctx.oracle.take().expect("attached above");
        (ctx.finish(), oracle, m.snapshot())
    }

    /// The groups are the oracle's candidates: the same occurrences
    /// (which never repeat), one group per start with its lengths
    /// ascending, every bound under ε, and the same funnel counts — and
    /// the rows and cells counted are those of the rows committed, none
    /// pushed ahead of a prune.
    fn assert_groups_are_the_oracle(
        groups: &CandidateGroups,
        oracle: &Oracle,
        stats: &SearchStats,
        epsilon: f64,
        ctx: &str,
    ) {
        let mut got: Vec<Occurrence> = groups.occurrences().collect();
        let mut want: Vec<Occurrence> = oracle.emitted.iter().map(|e| e.0).collect();
        got.sort();
        want.sort();
        assert_eq!(got, want, "{ctx}");
        want.dedup();
        assert_eq!(got.len(), want.len(), "{ctx}: an occurrence emitted twice");
        let mut starts = Vec::new();
        for (key, lens) in groups.iter() {
            assert!(!lens.is_empty(), "{ctx}");
            assert!(lens.windows(2).all(|w| w[0] < w[1]), "{ctx}: {lens:?}");
            starts.push(key);
        }
        starts.sort();
        starts.dedup();
        assert_eq!(starts.len(), groups.len(), "{ctx}: a start in two groups");
        for (occ, lb) in &oracle.emitted {
            assert!(*lb <= epsilon, "{ctx}: {occ} at {lb} > {epsilon}");
        }
        assert_eq!(stats.stored_candidates, oracle.stored, "{ctx}");
        assert_eq!(stats.lb2_candidates, oracle.shifted, "{ctx}");
        assert_eq!(stats.candidates, groups.candidates(), "{ctx}");
        assert_eq!(stats.rows_pushed, oracle.pushed, "{ctx}");
        assert_eq!(stats.filter_cells, oracle.cells, "{ctx}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(384))]

        /// Frontier emission is the per-row emitter, over dense and
        /// sparse trees, with and without a window, under length ranges,
        /// and with ε planted exactly on a row distance the first pass
        /// met. The trees' edges are compacted, so rows go in blocks
        /// that Theorem 1 cuts part-way, and a sparse path walks its
        /// leading run on one row.
        #[test]
        fn frontier_groups_are_the_brute_emission(
            db in proptest::collection::vec(proptest::collection::vec(0u32..8, 1..14), 1..4),
            q in proptest::collection::vec(0u32..8, 1..5),
            (sparse, categories) in (proptest::prelude::any::<bool>(), 1usize..4),
            (window, min_len, max_len) in (0u32..5, 0u32..4, 0u32..9),
            (eps_q, plant) in (0u32..12, 0usize..64),
        ) {
            let half = |v: &u32| *v as f64 * 0.5;
            let store = crate::sequence::SequenceStore::from_values(
                db.iter().map(|s| s.iter().map(half).collect::<Vec<f64>>()),
            );
            let a = if categories == 1 {
                Alphabet::singleton(&store)
            } else {
                Alphabet::equal_length(&store, categories)
            }
            .unwrap();
            let tree = ToyTree::over(&a.encode_store(&store), sparse);
            let q: Vec<f64> = q.iter().map(half).collect();
            let mut params = SearchParams::with_epsilon(eps_q as f64 * 0.5);
            params.window = window.checked_sub(1);
            params.min_len = min_len.max(1);
            params.max_len = (max_len > 0).then_some(max_len);
            let (groups, oracle, stats) = with_oracle(&tree, &a, &q, &params);
            let ctx = format!("sparse={sparse} {params:?}");
            assert_groups_are_the_oracle(&groups, &oracle, &stats, params.epsilon, &ctx);
            let met: Vec<f64> = oracle.dists.iter().copied().filter(|d| d.is_finite()).collect();
            if !met.is_empty() {
                params.epsilon = met[plant % met.len()];
                let (groups, oracle, stats) = with_oracle(&tree, &a, &q, &params);
                let ctx = format!("planted: {ctx} eps={}", params.epsilon);
                assert_groups_are_the_oracle(&groups, &oracle, &stats, params.epsilon, &ctx);
            }
        }
    }

    /// Every occurrence of `cs` with its own `D_tw-lb` to `q`: one fresh
    /// table per start, banded by `window` as a dense tree's table is.
    fn own_bounds(
        cs: &CatStore,
        a: &Alphabet,
        q: &[f64],
        window: Option<u32>,
    ) -> Vec<(Occurrence, f64)> {
        let mut out = Vec::new();
        for (id, s) in cs.seqs().iter().enumerate() {
            for start in 0..s.len() {
                let mut table = WarpTable::new(q, window);
                for (len, &sym) in (1..).zip(&s[start..]) {
                    let dist = table.push_row_with(|qv| a.base_lb(qv, sym)).dist;
                    out.push((Occurrence::new(SeqId(id as u32), start as u32, len), dist));
                }
            }
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2048))]

        /// No false dismissals, by no formula of the filter's own: every
        /// occurrence whose length is in range and whose own `D_tw-lb`
        /// is within ε is a candidate, over dense and sparse trees, with
        /// and without a window, under length ranges, with ε planted on
        /// an occurrence's bound. The first sequence may open on a run of
        /// one low value, which `match_rest` makes the rest of the query:
        /// with `Q[1]` drawn from twice the corpus's range, and ε half the
        /// time a bound under the run's `d₁`, that run's category often
        /// lies more than ε from `Q[1]` while its later cells cost
        /// nothing — the paths the run's one table row decides. The run
        /// may outlast three row blocks, and `max_len` often caps the
        /// answers below its length.
        #[test]
        fn filter_dismisses_no_occurrence_within_epsilon(
            db in proptest::collection::vec(proptest::collection::vec(0u32..8, 1..10), 1..4),
            (run_v, run_n) in (0u32..3, 0usize..3 * BLOCK_ROWS + 2),
            (q_first, q_rest, match_rest) in (
                0u32..16,
                proptest::collection::vec(0u32..8, 0..4),
                proptest::prelude::any::<bool>(),
            ),
            (sparse, categories) in (proptest::prelude::any::<bool>(), 1usize..4),
            (window, min_len, max_len) in (0u32..5, 0u32..4, 0u32..9),
            (plant, under_run) in (0usize..256, proptest::prelude::any::<bool>()),
        ) {
            let half = |v: &u32| *v as f64 * 0.5;
            let mut db = db;
            db[0].splice(0..0, std::iter::repeat_n(run_v, run_n));
            let store = crate::sequence::SequenceStore::from_values(
                db.iter().map(|s| s.iter().map(half).collect::<Vec<f64>>()),
            );
            let a = if categories == 1 {
                Alphabet::singleton(&store)
            } else {
                Alphabet::equal_length(&store, categories)
            }
            .unwrap();
            let cs = a.encode_store(&store);
            let tree = ToyTree::over(&cs, sparse);
            let rest = if match_rest { vec![run_v; q_rest.len()] } else { q_rest };
            let q: Vec<f64> = std::iter::once(&q_first).chain(&rest).map(half).collect();
            let mut params = SearchParams::with_epsilon(0.0);
            params.window = window.checked_sub(1);
            params.min_len = min_len.max(1);
            params.max_len = (max_len > 0).then_some(max_len);
            let (lo, hi) = (params.effective_min_len(q.len()), params.effective_max_len(q.len()));
            let mut own: Vec<(Occurrence, f64)> = own_bounds(&cs, &a, &q, params.window)
                .into_iter()
                .filter(|(o, lb)| lb.is_finite() && o.len >= lo && hi.is_none_or(|m| o.len <= m))
                .collect();
            if own.is_empty() {
                return Ok(());
            }
            // Half the time ε is a bound under the first run's d₁, when
            // one is.
            let d1 = a.base_lb(q[0], cs.seq(SeqId(0))[0]);
            let under = own.iter().filter(|(_, lb)| *lb < d1).count();
            own.sort_by(|x, y| x.1.total_cmp(&y.1));
            let among = if under_run && under > 0 { under } else { own.len() };
            params.epsilon = own[plant % among].1;
            let m = SearchMetrics::new();
            let cands: std::collections::HashSet<Occurrence> =
                filter_tree(&tree, &a, &q, &params, &m).occurrences().collect();
            for (occ, lb) in &own {
                proptest::prop_assert!(
                    *lb > params.epsilon || cands.contains(occ),
                    "{occ} at {lb} dismissed: sparse={sparse} q={q:?} {params:?}"
                );
            }
        }
    }

    fn singleton_setup(
        values: Vec<Vec<f64>>,
    ) -> (crate::sequence::SequenceStore, Alphabet, CatStore) {
        let store = crate::sequence::SequenceStore::from_values(values);
        let a = Alphabet::singleton(&store).unwrap();
        let cs = a.encode_store(&store);
        (store, a, cs)
    }

    #[test]
    fn exact_filter_finds_exact_matches() {
        let (_store, a, cs) = singleton_setup(vec![vec![1.0, 2.0, 3.0, 2.0]]);
        let tree = ToyTree::over(&cs, false);
        assert_eq!(tree.suffix_count(), 4);
        let params = SearchParams::with_epsilon(0.0);
        let q = [2.0, 3.0];
        let (cands, oracle, _) = with_oracle(&tree, &a, &q, &params);
        // With ε = 0 and exact base distances, only true warped matches
        // survive: S[2:3] = <2,3> and its warped extensions <2,3,?>... none
        // here; prefix matches: <2>, no (dist 1 > 0). Expect the exact
        // occurrence (0, 1, 2) plus any zero-distance warpings.
        let occs: Vec<Occurrence> = cands.occurrences().collect();
        assert!(occs.contains(&Occurrence::new(SeqId(0), 1, 2)));
        for (_, lb) in &oracle.emitted {
            assert_eq!(*lb, 0.0);
        }
    }

    #[test]
    fn pruning_reduces_rows() {
        let (_store, a, cs) = singleton_setup(vec![vec![1.0, 100.0, 100.0, 100.0, 100.0]]);
        let tree = ToyTree::over(&cs, false);
        let m = SearchMetrics::new();
        let params = SearchParams::with_epsilon(0.5);
        let q = [1.0, 1.0];
        let _ = filter_tree(&tree, &a, &q, &params, &m);
        // The 100-branches must be cut immediately (first row min = 99).
        assert!(m.snapshot().branches_pruned >= 1);
        assert!(m.snapshot().rows_pushed < 5 + 4 + 3 + 2 + 1);
    }

    #[test]
    fn max_len_caps_depth() {
        let (_store, a, cs) = singleton_setup(vec![vec![5.0; 10]]);
        let tree = ToyTree::over(&cs, false);
        let m = SearchMetrics::new();
        let params = SearchParams::with_epsilon(1e9).length_range(1, 3);
        let q = [5.0, 5.0];
        let cands = filter_tree(&tree, &a, &q, &params, &m);
        assert!(cands.occurrences().all(|o| o.len <= 3));
        assert!(!cands.is_empty());
    }

    #[test]
    fn min_len_skips_short_answers() {
        let (_store, a, cs) = singleton_setup(vec![vec![5.0; 6]]);
        let tree = ToyTree::over(&cs, false);
        let m = SearchMetrics::new();
        let mut params = SearchParams::with_epsilon(1e9);
        params.min_len = 4;
        let q = [5.0, 5.0];
        let cands = filter_tree(&tree, &a, &q, &params, &m);
        assert!(cands.occurrences().all(|o| o.len >= 4));
        assert!(!cands.is_empty());
    }

    #[test]
    fn sparse_filter_reaches_non_stored_suffixes() {
        // One sequence of five equal values: the sparse tree stores only
        // the first suffix, yet all shifted subsequences must surface.
        let (_store, a, cs) = singleton_setup(vec![vec![7.0; 5]]);
        let tree = ToyTree::over(&cs, true);
        assert_eq!(tree.suffix_count(), 1);
        let m = SearchMetrics::new();
        let params = SearchParams::with_epsilon(0.0);
        let q = [7.0, 7.0];
        let cands = filter_tree(&tree, &a, &q, &params, &m);
        // Every subsequence of <7,7,7,7,7> warps onto <7,7> at distance 0:
        // 5 + 4 + 3 + 2 + 1 = 15 occurrences, one group per start.
        assert_eq!(cands.len(), 5);
        assert_eq!(cands.candidates(), 15);
        let occs: Vec<Occurrence> = cands.occurrences().collect();
        assert!(occs.contains(&Occurrence::new(SeqId(0), 3, 2)));
        assert!(occs.contains(&Occurrence::new(SeqId(0), 4, 1)));
    }

    #[test]
    fn sparse_shift_uses_lb2_slack() {
        // A shifted start can be a candidate where its stored suffix is
        // not. Singleton alphabet over <0, 0, 0, 3>: the sparse tree
        // stores (0, 0) and (0, 3). Against Q = <1, 3> the run's own rows
        // are R₁ = [1, 4], R₂ = [2, 4], R₃ = [3, 4]; the 3 after the run
        // turns R₃ into [5, 3], so the stored prefix of length 4 is 3
        // from Q, over ε = 1. The path keeps the run as R₁ alone, which
        // the 3 turns into [3, 1]: within ε, so the shifts (0, 1, 3) and
        // (0, 2, 2) become candidates beside it — and <0, 3> is 1 from Q.
        // The run's rows, at 4 > ε, emit nothing.
        let (_store, a, cs) = singleton_setup(vec![vec![0.0, 0.0, 0.0, 3.0]]);
        let tree = ToyTree::over(&cs, true);
        assert_eq!(tree.suffix_count(), 2);
        let params = SearchParams::with_epsilon(1.0);
        let (cands, oracle, stats) = with_oracle(&tree, &a, &[1.0, 3.0], &params);
        let mut occs: Vec<Occurrence> = cands.occurrences().collect();
        occs.sort();
        let want =
            [(0, 4), (1, 3), (2, 2)].map(|(start, len)| Occurrence::new(SeqId(0), start, len));
        assert_eq!(occs, want);
        assert_eq!((stats.stored_candidates, stats.lb2_candidates), (1, 2));
        assert!(oracle.emitted.iter().all(|e| e.1 == 1.0));
        // Two rows for the run and the 3 after it, one for the lone 3.
        assert_eq!(stats.rows_pushed, 3);
    }

    #[test]
    fn a_shift_over_epsilon_at_its_first_cell_is_never_reached() {
        // Singleton alphabet over <0, 0, 0>, Q = <3, 0>, ε = 1: the run's
        // one row is [3, 3], since every cell holds cell (1,1) at
        // d₁ = 3 > ε. Its minimum prunes the run at once, so no suffix
        // starting in it becomes a candidate.
        let (_store, a, cs) = singleton_setup(vec![vec![0.0; 3]]);
        let tree = ToyTree::over(&cs, true);
        let m = SearchMetrics::new();
        let cands = filter_tree(&tree, &a, &[3.0, 0.0], &SearchParams::with_epsilon(1.0), &m);
        assert!(cands.is_empty());
        let stats = m.snapshot();
        assert_eq!(stats.lb2_candidates, 0);
        assert_eq!(stats.rows_pushed, 1);
    }

    /// What `in_range_shifts` replaced, kept as its oracle: every `k` of
    /// `1..=max_k` tested, emitted when the row's distance is within ε
    /// and its length `r − k` in range.
    fn brute_shifts(
        (dist, epsilon): (f64, f64),
        max_k: u32,
        r: u32,
        (min_len, max_len): (u32, Option<u32>),
    ) -> Vec<u32> {
        let len_ok = |len: u32| len >= min_len && max_len.is_none_or(|m| len <= m);
        (1..=max_k)
            .filter(|&k| dist <= epsilon && len_ok(r - k))
            .collect()
    }

    fn ranged_shifts(max_k: u32, r: u32, min_len: u32, max_len: Option<u32>) -> Vec<u32> {
        in_range_shifts(max_k, r, min_len, max_len).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4096))]

        /// Emission by range is the brute `k` loop: the same shifts for
        /// every run and row, under no cap, a free one, and one within a
        /// few rows of the row.
        #[test]
        fn emission_by_range_is_the_brute_loop(
            (lead, r) in (1u32..48, 1u32..64),
            (min_len, max_pick, max_free) in (1u32..12, 0usize..3, 1u32..64),
        ) {
            let max_k = lead.min(r) - 1;
            let max_len = [None, Some(max_free), Some(r.saturating_sub(max_free / 8).max(1))][max_pick];
            proptest::prop_assert_eq!(
                ranged_shifts(max_k, r, min_len, max_len),
                brute_shifts((0.0, 0.0), max_k, r, (min_len, max_len)),
                "max_k={} r={} lens={:?}", max_k, r, (min_len, max_len)
            );
        }
    }

    #[test]
    fn emission_by_range_handles_the_degenerate_rows() {
        // No run to shift into.
        assert_eq!(ranged_shifts(0, 9, 1, None), vec![]);
        // Every shift of the run, each leaving at least one value.
        assert_eq!(ranged_shifts(8, 9, 1, None), (1..=8).collect::<Vec<_>>());
        // The length range cuts both ends: lengths 9 − k in [4, 6].
        assert_eq!(ranged_shifts(8, 9, 4, Some(6)), vec![3, 4, 5]);
        // One length allowed: one shift.
        assert_eq!(ranged_shifts(8, 9, 7, Some(7)), vec![2]);
        // A row shorter than `min_len` less nothing.
        assert_eq!(ranged_shifts(2, 3, 3, None), vec![]);
        // A row past the cap by more than its run.
        assert_eq!(ranged_shifts(2, 9, 1, Some(5)), vec![]);
        // The widest cap a length can have.
        assert_eq!(ranged_shifts(3, 4, 1, Some(u32::MAX)), vec![1, 2, 3]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1024))]

        /// The rule the sparse filter prunes and emits by: over `lead`
        /// rows of one base row and then any rows, the table that keeps
        /// the run as its first row alone is, cell by cell and with no
        /// slack, at most the own table of the stored suffix (`k = 0`)
        /// and of every shift `k < lead` — at each of the shift's run
        /// rows against the run's one row, and at every row after the
        /// run. Base distances are tenths, which `f64` holds inexactly,
        /// so the sums round.
        #[test]
        fn collapsed_run_row_lower_bounds_every_shift(
            (lead, n) in (1usize..12, 1usize..7),
            run in proptest::collection::vec(0u32..40, 6),
            after in proptest::collection::vec(proptest::collection::vec(0u32..40, 6), 0..6),
        ) {
            let tenths = |row: &[u32]| row[..n].iter().map(|&v| v as f64 * 0.1).collect::<Vec<f64>>();
            let (run, after) = (tenths(&run), after.iter().map(|r| tenths(r)).collect::<Vec<_>>());
            // The table reads its query only for the number of columns.
            let q = vec![0.0; n];
            let table = |run_rows: usize| {
                let mut t = WarpTable::new(&q, None);
                for row in std::iter::repeat_n(&run, run_rows).chain(&after) {
                    t.push_base_rows(&[row.as_slice()]);
                }
                t
            };
            let collapsed = table(1);
            for k in 0..lead {
                let (own, own_run) = (table(lead - k), (lead - k) as u32);
                let pairs = (1..=own_run)
                    .map(|y| (y, 1))
                    .chain((1..=after.len() as u32).map(|i| (own_run + i, 1 + i)));
                for (y, c) in pairs {
                    let (own_row, low) = (own.row_cells(y), collapsed.row_cells(c));
                    for (x, (o, l)) in own_row.iter().zip(low).enumerate() {
                        proptest::prop_assert!(
                            o >= l,
                            "shift {k} of {lead}: row {y} column {} holds {o} < {l}", x + 1
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_filter_is_byte_identical_to_sequential() {
        // Dense and sparse trees, narrow and bushy roots: groups (values
        // AND order), the family marks and every counter must match
        // sequential for every thread count — with and without a trace
        // attached, whose root walk reads the traversal's own tallies.
        let values = vec![
            vec![1.0, 2.0, 3.0, 2.0, 2.0, 2.0, 7.0],
            vec![2.0, 2.0, 5.0, 5.0, 5.0, 1.0],
            vec![9.0, 9.0, 9.0, 9.0],
        ];
        let store = crate::sequence::SequenceStore::from_values(values);
        let a = Alphabet::equal_length(&store, 3).unwrap();
        let cs = a.encode_store(&store);
        for sparse in [false, true] {
            let tree = ToyTree::over(&cs, sparse);
            let q = [2.0, 2.0, 5.0];
            for eps in [0.0, 2.0, 10.0] {
                let m1 = SearchMetrics::new();
                let base = SearchParams::with_epsilon(eps);
                let seq_cands = filter_tree(&tree, &a, &q, &base, &m1);
                // One family per stored suffix emitted: a lone group on
                // the dense tree; on the sparse one, at the widest ε, some
                // suffix also carries its shifts.
                let families: Vec<usize> = (0..seq_cands.family_count())
                    .map(|f| seq_cands.family(f).len())
                    .collect();
                assert_eq!(families.iter().sum::<usize>(), seq_cands.len());
                assert!(families.iter().all(|&g| g > 0));
                let shifted = families.iter().any(|&g| g > 1);
                assert!(sparse || !shifted, "eps={eps}: {families:?}");
                assert!(!sparse || eps < 10.0 || shifted, "eps={eps}");
                for (threads, traced) in
                    [(1u32, true), (2, false), (3, true), (8, false), (8, true)]
                {
                    let mut mp = SearchMetrics::new();
                    if traced {
                        mp = mp.with_trace(warptree_obs::Trace::active("t"));
                    }
                    let par_cands =
                        filter_tree(&tree, &a, &q, &base.clone().parallel(threads), &mp);
                    assert_eq!(
                        seq_cands.families, par_cands.families,
                        "sparse={sparse} eps={eps} t={threads}"
                    );
                    assert_eq!(
                        seq_cands, par_cands,
                        "sparse={sparse} eps={eps} t={threads}"
                    );
                    assert_eq!(
                        m1.snapshot(),
                        mp.snapshot(),
                        "sparse={sparse} eps={eps} t={threads} traced={traced}"
                    );
                    let Some(trace) = mp.trace.finish() else {
                        continue;
                    };
                    // Sequential: the `filter.segment` spans partition the
                    // root, so their deltas sum to the totals.
                    let sum = |attr: &str| -> u64 {
                        let spans = trace.spans.iter().filter(|s| s.name == "filter.segment");
                        let attrs = spans.flat_map(|s| &s.attrs).filter(|(k, _)| k == attr);
                        attrs
                            .map(|(_, v)| match v {
                                warptree_obs::AttrValue::U64(v) => *v,
                                other => panic!("{attr} = {other:?}"),
                            })
                            .sum()
                    };
                    if threads == 1 {
                        let s = m1.snapshot();
                        assert_eq!(sum("nodes_visited"), s.nodes_visited);
                        assert_eq!(sum("branches_pruned"), s.branches_pruned);
                        assert_eq!(sum("rows_pushed"), s.rows_pushed);
                        assert_eq!(sum("candidates"), s.candidates);
                        assert_eq!(sum("filter_cells"), s.filter_cells);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid search parameters")]
    fn invalid_params_panic() {
        let (_store, a, cs) = singleton_setup(vec![vec![1.0]]);
        let tree = ToyTree::over(&cs, false);
        let m = SearchMetrics::new();
        let params = SearchParams::with_epsilon(-1.0);
        let _ = filter_tree(&tree, &a, &[1.0], &params, &m);
    }
}
