//! Per-span candidate generation and verification (paper §3.2–§3.4,
//! Algorithm 1 lines 5–14).
//!
//! For one time span `I_i`, the executor holds the overlapping chunks
//! `ℂ''` and iterates *generate candidate from metadata → verify →
//! lazily load on refutation* independently for each of the four
//! representation functions:
//!
//! * **FP/LP** ([`SpanExecutor::solve_edge`]): candidates carry either
//!   an exact metadata point or a delete-clipped *bound* on where the
//!   chunk's first/last live point can be. A chunk is loaded only when
//!   its bound is the most extreme remaining (the paper's "the load of
//!   C happens in the next iteration"). Correctness rests on
//!   Proposition 3.1: an exact candidate at the extreme time with the
//!   largest version among ties cannot be overwritten.
//! * **BP/TP** ([`SpanExecutor::solve_extreme`]): metadata candidates
//!   must additionally survive overwrite probes against later-versioned
//!   overlapping chunks (Proposition 3.3), performed as timestamp-only
//!   partial reads through the chunk cache. Refuted metadata candidates
//!   mark their chunk *dirty*; dirty chunks are loaded in a batch only
//!   when no candidate survives (the paper's §3.4 lazy load).
//!
//! Chunks split by a span boundary cannot contribute metadata
//! candidates (their in-span extremes are unknowable from whole-chunk
//! statistics), so they must be loaded — the cost driver behind the
//! paper's Figure 10 (larger `w` → more split chunks → more loads).
//! The operator pays that load *chunk-major*: before any span runs,
//! [`summarize`] walks each split fragment once, in time order, and
//! records the exact live [`SpanRepr`] of every span it crosses. The
//! executor takes a split fragment's FP/LP and its BP/TP candidate
//! straight from that summary; only a Proposition 3.3 refutation of a
//! split fragment's extreme materializes its in-span live points.
//!
//! [`combine_disjoint`] answers a span with no executor at all when
//! its fragments are pairwise time-disjoint and no applicable delete
//! overlaps a whole (statistics-described) fragment. An overwrite
//! needs two points at one timestamp in two chunks, and disjoint
//! intervals share no timestamp, so every Proposition 3.3 probe would
//! miss; without deletes a whole fragment's statistics are exact. Each
//! function's first candidate then verifies, and the span's answer is
//! a plain combination of the fragments' representations.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use tsfile::statistics::ChunkStatistics;
use tsfile::types::{Point, TimeRange, Timestamp, Version};
use tsfile::ModEntry;
use tskv::delete::DeleteSweep;
use tskv::ChunkHandle;

use crate::lsm::cache::{ChunkCache, PageKeyedPoints};
use crate::lsm::M4LsmConfig;
use crate::query::M4Query;
use crate::repr::SpanRepr;
use crate::{M4Error, Result};

/// One chunk — or one page of a paged chunk — as seen by one span.
///
/// Paged chunks enter span assignment *per page*: each overlapping
/// page becomes its own fragment with its own statistics, so a span
/// covering only part of a large chunk works at page granularity
/// (metadata candidates from page statistics, loads of single pages).
#[derive(Debug, Clone)]
pub(crate) struct SpanChunk {
    /// Index into the snapshot's chunk list (cache key).
    pub idx: usize,
    /// Page number within the chunk when this entry is a page fragment
    /// of a paged chunk; `None` for in-memory, v1 and single-page
    /// chunks, which are handled whole.
    pub frag: Option<u32>,
    /// `None` when the fragment's time interval lies entirely inside
    /// the span (only then do its statistics describe the
    /// subsequence); otherwise the fragment is split by a span
    /// boundary and this indexes its [`Summary`].
    pub split: Option<usize>,
}

impl SpanChunk {
    fn whole(&self) -> bool {
        self.split.is_none()
    }
}

/// A fragment split by at least one span boundary, with the spans it
/// is assigned to (`first_span..=last_span`, possibly skipping spans
/// that are empty because `w` exceeds the range length).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SplitFragment {
    pub idx: usize,
    pub frag: Option<u32>,
    pub first_span: usize,
    pub last_span: usize,
}

/// The summary pass's output for one split fragment: its exact live
/// representation within each span it crosses (`None` when no live
/// point of the fragment falls in that span).
#[derive(Debug)]
pub(crate) struct Summary {
    first_span: usize,
    reprs: Vec<Option<SpanRepr>>,
}

impl Summary {
    fn get(&self, span: usize) -> Option<SpanRepr> {
        span.checked_sub(self.first_span)
            .and_then(|i| self.reprs.get(i).copied().flatten())
    }
}

/// Everything the per-span work shares within one query.
pub(crate) struct QueryCtx<'a> {
    pub handles: &'a [ChunkHandle],
    pub deletes: &'a [ModEntry],
    pub cache: &'a ChunkCache<'a>,
    pub cfg: &'a M4LsmConfig,
    pub summaries: &'a [Summary],
}

/// The fragment's statistics: page statistics for page fragments,
/// whole-chunk statistics otherwise.
fn fragment_stats(h: &ChunkHandle, frag: Option<u32>) -> &ChunkStatistics {
    match frag.and_then(|f| h.paged().and_then(|i| i.pages.get(f as usize))) {
        Some(pm) => &pm.stats,
        None => &h.stats,
    }
}

/// Load a fragment's raw points (unfiltered) through the query cache.
fn fragment_points(
    cache: &ChunkCache<'_>,
    h: &ChunkHandle,
    idx: usize,
    frag: Option<u32>,
) -> Result<Arc<Vec<Point>>> {
    match frag {
        Some(f) => cache.points_page(idx, f, h),
        None => cache.points(idx, h),
    }
}

/// The summary pass for one split fragment: load it once and walk it
/// in one sequential pass, advancing across span boundaries with
/// [`M4Query::span_range`]. Deletes are swept once per fragment, and
/// only when some applicable delete overlaps it at all.
pub(crate) fn summarize(
    ctx: &QueryCtx<'_>,
    query: &M4Query,
    sf: &SplitFragment,
) -> Result<Summary> {
    let h = &ctx.handles[sf.idx];
    let raw = fragment_points(ctx.cache, h, sf.idx, sf.frag)?;
    let version = h.version;
    let range = fragment_stats(h, sf.frag).time_range();
    let applicable: Vec<ModEntry> = ctx
        .deletes
        .iter()
        .filter(|d| d.applies_to(version) && d.range.overlaps(&range))
        .copied()
        .collect();
    let mut sweep = (!applicable.is_empty()).then(|| DeleteSweep::new(&applicable));

    let mut reprs = Vec::with_capacity(sf.last_span - sf.first_span + 1);
    let start = raw.partition_point(|p| p.t < query.span_range(sf.first_span).start);
    let mut rest = raw.get(start..).unwrap_or_default();
    let mut buf: Vec<Point> = Vec::new();
    for s in sf.first_span..=sf.last_span {
        // Spans tile the query range: each span's points start right
        // after the previous span's.
        let end = query.span_range(s).end;
        let (seg, tail) = rest.split_at(rest.partition_point(|p| p.t <= end));
        rest = tail;
        reprs.push(match sweep.as_mut() {
            None => SpanRepr::from_sorted_points(seg),
            Some(sw) => {
                buf.clear();
                buf.extend(seg.iter().filter(|p| !sw.is_deleted(p.t, version)));
                SpanRepr::from_sorted_points(&buf)
            }
        });
    }
    Ok(Summary {
        first_span: sf.first_span,
        reprs,
    })
}

/// A fragment's contribution to a disjoint span: its representation
/// and whether that came from page statistics rather than data.
#[derive(Clone, Copy)]
struct Contribution {
    repr: SpanRepr,
    version: Version,
    page_stat: bool,
}

/// Whether value candidate `p` (version `pv`) beats `best` (version
/// `bv`) for TP (`top`) or BP: the more extreme value, then the larger
/// version — the candidate order of [`SpanExecutor::solve_extreme`].
fn beats(p: Point, pv: Version, best: Point, bv: Version, top: bool) -> bool {
    match p.v.total_cmp(&best.v) {
        std::cmp::Ordering::Greater => top,
        std::cmp::Ordering::Less => !top,
        std::cmp::Ordering::Equal => pv > bv,
    }
}

/// The span fast path: combine span `span_idx` straight from summaries
/// and statistics when its fragments are pairwise time-disjoint and no
/// whole (metadata-described) fragment has an applicable delete
/// overlapping it. Disjoint fragments share no timestamp, so no point
/// can overwrite another: every Proposition 3.3 probe would miss and
/// each function's first candidate verifies, exactly as in the
/// executor. Returns `None` when the span needs the executor.
pub(crate) fn combine_disjoint(
    ctx: &QueryCtx<'_>,
    chunks: &[SpanChunk],
    span_idx: usize,
) -> Option<Option<SpanRepr>> {
    let range = |sc: &SpanChunk| fragment_stats(&ctx.handles[sc.idx], sc.frag).time_range();
    let ascending = chunks
        .windows(2)
        .all(|w| range(&w[0]).end < range(&w[1]).start);
    if !ascending {
        let mut ranges: Vec<TimeRange> = chunks.iter().map(range).collect();
        ranges.sort_unstable_by_key(|r| r.start);
        if ranges.windows(2).any(|w| w[0].end >= w[1].start) {
            return None;
        }
    }
    // Best contribution per function: first, last, bottom, top.
    let mut best: Option<[Contribution; 4]> = None;
    for sc in chunks {
        let h = &ctx.handles[sc.idx];
        let repr = match sc.split {
            Some(j) => ctx.summaries.get(j)?.get(span_idx),
            None => {
                let r = range(sc);
                if ctx
                    .deletes
                    .iter()
                    .any(|d| d.applies_to(h.version) && d.range.overlaps(&r))
                {
                    return None;
                }
                let s = fragment_stats(h, sc.frag);
                Some(SpanRepr {
                    first: s.first,
                    last: s.last,
                    bottom: s.bottom,
                    top: s.top,
                })
            }
        };
        let Some(repr) = repr else { continue };
        let c = Contribution {
            repr,
            version: h.version,
            page_stat: sc.whole() && sc.frag.is_some(),
        };
        let Some([first, last, bottom, top]) = best.as_mut() else {
            best = Some([c; 4]);
            continue;
        };
        if c.repr.first.t < first.repr.first.t {
            *first = c;
        }
        if c.repr.last.t > last.repr.last.t {
            *last = c;
        }
        if beats(
            c.repr.bottom,
            c.version,
            bottom.repr.bottom,
            bottom.version,
            false,
        ) {
            *bottom = c;
        }
        if beats(c.repr.top, c.version, top.repr.top, top.version, true) {
            *top = c;
        }
    }
    let Some(best) = best else {
        return Some(None);
    };
    // Answers from page statistics count as the executor counts them.
    for c in &best {
        if c.page_stat {
            ctx.cache.note_page_stat_answered();
        }
    }
    let [first, last, bottom, top] = best;
    Some(Some(SpanRepr {
        first: first.repr.first,
        last: last.repr.last,
        bottom: bottom.repr.bottom,
        top: top.repr.top,
    }))
}

/// Executor for one span.
pub(crate) struct SpanExecutor<'a> {
    ctx: &'a QueryCtx<'a>,
    chunks: &'a [SpanChunk],
    /// The span's index within the query (summary lookups).
    span_idx: usize,
    span: TimeRange,
    /// Per-span live point sets of materialized fragments (in-span,
    /// non-deleted), keyed `(chunk idx, page-or-sentinel)`.
    live: RefCell<PageKeyedPoints>,
}

/// FP/LP solver state for one chunk.
#[derive(Debug, Clone, Copy)]
enum EdgeState {
    /// Known candidate point (metadata or loaded), not yet verified.
    Exact(Point),
    /// Delete-clipped bound: the chunk's edge live point is no more
    /// extreme than this time; resolving requires a load.
    Bound(Timestamp),
    /// No live in-span points remain.
    Dead,
}

/// BP/TP solver state for one chunk.
#[derive(Debug)]
enum ExtremeState {
    /// Unloaded; metadata extreme is the candidate.
    Meta(Point),
    /// Unloaded and metadata extreme refuted. The chunk's live extreme
    /// can still be anywhere up to the refuted metadata value (it is an
    /// upper bound for TP / lower bound for BP over the raw points), so
    /// the value is kept as a bound: the chunk must be loaded before
    /// any weaker candidate may be answered.
    Dirty(f64),
    /// Loaded; candidates come from the live set (or, for split
    /// fragments with nothing excluded, the summary) minus exclusions.
    Loaded,
}

impl<'a> SpanExecutor<'a> {
    pub fn new(
        ctx: &'a QueryCtx<'a>,
        chunks: &'a [SpanChunk],
        span_idx: usize,
        span: TimeRange,
    ) -> Self {
        SpanExecutor {
            ctx,
            chunks,
            span_idx,
            span,
            live: RefCell::new(HashMap::new()),
        }
    }

    fn handle(&self, sc: &SpanChunk) -> &'a ChunkHandle {
        &self.ctx.handles[sc.idx]
    }

    fn stats(&self, sc: &SpanChunk) -> &'a ChunkStatistics {
        fragment_stats(self.handle(sc), sc.frag)
    }

    fn version(&self, sc: &SpanChunk) -> Version {
        self.handle(sc).version
    }

    /// Cache key of the fragment's live set within this span.
    fn key(sc: &SpanChunk) -> (usize, u32) {
        (sc.idx, sc.frag.unwrap_or(u32::MAX))
    }

    /// Whether the fragment's raw points are already decoded in the
    /// query cache (its own page, or a whole-chunk load covering it).
    /// Always true for split fragments after the summary pass.
    fn paid(&self, sc: &SpanChunk) -> bool {
        match sc.frag {
            Some(f) => self.ctx.cache.is_loaded_page(sc.idx, f),
            None => self.ctx.cache.is_loaded(sc.idx),
        }
    }

    /// The summary pass's live representation of a split fragment in
    /// this span; `None` for whole fragments and for split fragments
    /// with no live point here.
    fn summary(&self, sc: &SpanChunk) -> Option<SpanRepr> {
        let j = sc.split?;
        self.ctx.summaries.get(j)?.get(self.span_idx)
    }

    /// Materialize a fragment's live point set for this span: in-span
    /// (sliced by binary search on the span bounds) and not deleted.
    /// Cached per span so FP/LP/BP/TP share the work.
    fn live(&self, sc: &SpanChunk) -> Result<Arc<Vec<Point>>> {
        if let Some(l) = self.live.borrow().get(&Self::key(sc)) {
            return Ok(Arc::clone(l));
        }
        let raw = fragment_points(self.ctx.cache, self.handle(sc), sc.idx, sc.frag)?;
        let lo = raw.partition_point(|p| p.t < self.span.start);
        let hi = raw.partition_point(|p| p.t <= self.span.end).max(lo);
        let version = self.version(sc);
        let mut sweep = DeleteSweep::new(self.ctx.deletes);
        let live: Vec<Point> = raw[lo..hi]
            .iter()
            .filter(|p| !sweep.is_deleted(p.t, version))
            .copied()
            .collect();
        let live = Arc::new(live);
        self.live
            .borrow_mut()
            .insert(Self::key(sc), Arc::clone(&live));
        Ok(live)
    }

    /// Compute the span's full representation, or `None` if the span
    /// holds no live points.
    pub fn compute(&self) -> Result<Option<SpanRepr>> {
        let Some(first) = self.solve_edge(true)? else {
            return Ok(None);
        };
        // FP exists, so the span holds live points and the other three
        // solvers must find one too.
        let (Some(last), Some(bottom), Some(top)) = (
            self.solve_edge(false)?,
            self.solve_extreme(false)?,
            self.solve_extreme(true)?,
        ) else {
            return Err(M4Error::Internal("span with an FP yielded no LP/BP/TP"));
        };
        Ok(Some(SpanRepr {
            first,
            last,
            bottom,
            top,
        }))
    }

    /// Deletes with a version above `v` that cover `t`.
    fn covering_deletes(&self, t: Timestamp, v: Version) -> impl Iterator<Item = &'a ModEntry> {
        let deletes = self.ctx.deletes;
        deletes
            .iter()
            .filter(move |d| d.applies_to(v) && d.covers(t))
    }

    // ------------------------------------------------------------------
    // FP / LP (§3.3)
    // ------------------------------------------------------------------

    /// Solve FP (`first = true`) or LP (`first = false`).
    fn solve_edge(&self, first: bool) -> Result<Option<Point>> {
        // Initialize per-chunk state.
        let mut states: Vec<EdgeState> = Vec::with_capacity(self.chunks.len());
        for sc in self.chunks {
            let st = if sc.whole() && !self.paid(sc) {
                let s = self.stats(sc);
                EdgeState::Exact(if first { s.first } else { s.last })
            } else {
                // Split by the span boundary (or already paid for):
                // resolve from data immediately.
                self.edge_from_live(sc, first)?
            };
            states.push(st);
        }

        loop {
            // Candidate selection: most extreme key; a Bound at the
            // extreme must be resolved before any Exact at the same key
            // can be trusted (the bound's chunk may hide an overwrite).
            let mut best: Option<(Timestamp, bool, usize)> = None; // (key, is_bound, pos)
            for (pos, st) in states.iter().enumerate() {
                let (key, is_bound) = match st {
                    EdgeState::Exact(p) => (p.t, false),
                    EdgeState::Bound(t) => (*t, true),
                    EdgeState::Dead => continue,
                };
                let better = match &best {
                    None => true,
                    Some((bk, b_bound, bpos)) => {
                        let cmp = if first { key.cmp(bk) } else { bk.cmp(&key) };
                        match cmp {
                            std::cmp::Ordering::Less => true,
                            std::cmp::Ordering::Greater => false,
                            std::cmp::Ordering::Equal => {
                                // Prefer bounds (must resolve), then the
                                // largest version among exacts.
                                if is_bound != *b_bound {
                                    is_bound
                                } else {
                                    self.version(&self.chunks[pos])
                                        > self.version(&self.chunks[*bpos])
                                }
                            }
                        }
                    }
                };
                if better {
                    best = Some((key, is_bound, pos));
                }
            }
            let Some((_, is_bound, pos)) = best else {
                return Ok(None); // all chunks dead: empty span
            };
            let sc = &self.chunks[pos];

            if is_bound {
                // Lazy load fires now: no other chunk can beat this one
                // from metadata alone.
                states[pos] = self.edge_from_live(sc, first)?;
                continue;
            }

            let EdgeState::Exact(p) = states[pos] else {
                return Err(M4Error::Internal(
                    "selected edge candidate is neither bound nor exact",
                ));
            };
            if !sc.whole() || self.paid(sc) || self.live.borrow().contains_key(&Self::key(sc)) {
                // Summaries and live sets are delete-filtered already;
                // Proposition 3.1 rules out overwrites for the
                // extreme-time candidate.
                return Ok(Some(p));
            }
            // Unloaded metadata candidate: verify against deletes.
            let version = self.version(sc);
            let clip: Option<Timestamp> = if first {
                self.covering_deletes(p.t, version)
                    .map(|d| d.range.end)
                    .max()
            } else {
                self.covering_deletes(p.t, version)
                    .map(|d| d.range.start)
                    .min()
            };
            match clip {
                None => {
                    // Latest (Proposition 3.1). A page fragment answered
                    // here never read its body: page statistics alone.
                    if sc.frag.is_some() {
                        self.ctx.cache.note_page_stat_answered();
                    }
                    return Ok(Some(p));
                }
                Some(edge) => {
                    if !self.ctx.cfg.lazy_load {
                        // Ablation: eager load on first refutation.
                        states[pos] = self.edge_from_live(sc, first)?;
                        continue;
                    }
                    // §3.3: shift the effective interval past the
                    // delete; the chunk is only loaded if it remains
                    // the most extreme.
                    let s = self.stats(sc);
                    let bound = if first {
                        edge.saturating_add(1)
                    } else {
                        edge.saturating_sub(1)
                    };
                    let dead = if first {
                        bound > s.last.t || bound > self.span.end
                    } else {
                        bound < s.first.t || bound < self.span.start
                    };
                    states[pos] = if dead {
                        EdgeState::Dead
                    } else {
                        EdgeState::Bound(bound)
                    };
                }
            }
        }
    }

    /// Resolve a chunk's FP/LP for this span from its live data: the
    /// summary for split fragments, the materialized live set otherwise.
    fn edge_from_live(&self, sc: &SpanChunk, first: bool) -> Result<EdgeState> {
        let p = if sc.whole() {
            let live = self.live(sc)?;
            if first { live.first() } else { live.last() }.copied()
        } else {
            self.summary(sc)
                .map(|r| if first { r.first } else { r.last })
        };
        Ok(match p {
            Some(p) => EdgeState::Exact(p),
            None => EdgeState::Dead,
        })
    }

    // ------------------------------------------------------------------
    // BP / TP (§3.4)
    // ------------------------------------------------------------------

    /// Solve TP (`top = true`) or BP (`top = false`).
    fn solve_extreme(&self, top: bool) -> Result<Option<Point>> {
        let mut states: Vec<ExtremeState> = Vec::with_capacity(self.chunks.len());
        // Timestamps known to be overwritten, per chunk.
        let mut excluded: Vec<HashSet<Timestamp>> = vec![HashSet::new(); self.chunks.len()];
        for sc in self.chunks {
            let st = if !sc.whole() {
                // Split fragments are summarized: nothing to materialize
                // until a candidate of theirs is refuted.
                ExtremeState::Loaded
            } else if self.paid(sc) {
                // Pay the (already paid) load.
                self.live(sc)?;
                ExtremeState::Loaded
            } else {
                let s = self.stats(sc);
                ExtremeState::Meta(if top { s.top } else { s.bottom })
            };
            states.push(st);
        }

        loop {
            // Candidate generation (§3.2): extreme value, then largest
            // version.
            let mut best: Option<(Point, usize)> = None;
            for (pos, st) in states.iter().enumerate() {
                let cand = match st {
                    ExtremeState::Meta(p) => Some(*p),
                    ExtremeState::Loaded => {
                        self.extreme_live(&self.chunks[pos], top, &excluded[pos])?
                    }
                    ExtremeState::Dirty(_) => None,
                };
                let Some(p) = cand else { continue };
                let better = match &best {
                    None => true,
                    Some((bp, bpos)) => match p.v.total_cmp(&bp.v) {
                        std::cmp::Ordering::Greater => top,
                        std::cmp::Ordering::Less => !top,
                        std::cmp::Ordering::Equal => {
                            self.version(&self.chunks[pos]) > self.version(&self.chunks[*bpos])
                        }
                    },
                };
                if better {
                    best = Some((p, pos));
                }
            }

            // A dirty chunk whose bound is strictly better than the best
            // candidate could still hide the true extreme: load every
            // such chunk before trusting any candidate (§3.4 "loads all
            // the corresponding chunks ... and recalculates").
            let must_load: Vec<usize> = states
                .iter()
                .enumerate()
                .filter_map(|(i, st)| match st {
                    ExtremeState::Dirty(bound) => {
                        let beats = match &best {
                            None => true,
                            Some((bp, _)) => match bound.total_cmp(&bp.v) {
                                std::cmp::Ordering::Greater => top,
                                std::cmp::Ordering::Less => !top,
                                std::cmp::Ordering::Equal => false,
                            },
                        };
                        beats.then_some(i)
                    }
                    _ => None,
                })
                .collect();
            if !must_load.is_empty() {
                for pos in must_load {
                    self.live(&self.chunks[pos])?;
                    states[pos] = ExtremeState::Loaded;
                }
                continue;
            }

            let Some((p_g, pos)) = best else {
                return Ok(None); // nothing live in this span
            };
            let sc = &self.chunks[pos];
            let version = self.version(sc);

            // Verification (Proposition 3.3).
            // (a) deletes — only metadata candidates can still be
            // covered (live sets are delete-filtered).
            let deleted = matches!(states[pos], ExtremeState::Meta(_))
                && self.covering_deletes(p_g.t, version).next().is_some();
            let overwritten = if deleted {
                false
            } else {
                self.is_overwritten(p_g.t, version)?
            };
            if !deleted && !overwritten {
                // A page fragment whose metadata extreme survives
                // verification was answered from page statistics alone.
                if sc.frag.is_some() && matches!(states[pos], ExtremeState::Meta(_)) {
                    self.ctx.cache.note_page_stat_answered();
                }
                return Ok(Some(p_g));
            }
            // Refuted: lazy-load bookkeeping.
            if overwritten {
                excluded[pos].insert(p_g.t);
            }
            match states[pos] {
                ExtremeState::Meta(p) => {
                    states[pos] = if self.ctx.cfg.lazy_load {
                        ExtremeState::Dirty(p.v)
                    } else {
                        self.live(sc)?;
                        ExtremeState::Loaded
                    };
                }
                ExtremeState::Loaded => { /* exclusion recorded above */ }
                ExtremeState::Dirty(_) => {
                    return Err(M4Error::Internal("dirty chunk produced a candidate"));
                }
            }
        }
    }

    /// Current extreme of a loaded chunk's live set, skipping excluded
    /// (known-overwritten) timestamps. Ties resolve to the earliest
    /// point, matching the scan-based oracle. A split fragment with
    /// nothing excluded answers from its summary.
    fn extreme_live(
        &self,
        sc: &SpanChunk,
        top: bool,
        excluded: &HashSet<Timestamp>,
    ) -> Result<Option<Point>> {
        if !sc.whole() && excluded.is_empty() {
            return Ok(self.summary(sc).map(|r| if top { r.top } else { r.bottom }));
        }
        let live = self.live(sc)?;
        let mut best: Option<Point> = None;
        for p in live.iter() {
            if excluded.contains(&p.t) {
                continue;
            }
            let better = match &best {
                None => true,
                Some(b) => {
                    if top {
                        p.v.total_cmp(&b.v).is_gt()
                    } else {
                        p.v.total_cmp(&b.v).is_lt()
                    }
                }
            };
            if better {
                best = Some(*p);
            }
        }
        Ok(best)
    }

    /// Proposition 3.3 overwrite check: does any chunk with a larger
    /// version contain a point at exactly `t`? Interval checks are
    /// metadata-only; a data probe (timestamp-only partial read) fires
    /// only for chunks whose interval contains `t`.
    fn is_overwritten(&self, t: Timestamp, version: Version) -> Result<bool> {
        for other in self.chunks {
            let h = self.handle(other);
            // Fragment statistics make this interval check page-tight:
            // a `t` falling between two pages of a later chunk is ruled
            // out here without any probe.
            if h.version <= version || !self.stats(other).time_range().contains(t) {
                continue;
            }
            let hit = match other.frag {
                Some(f) => self.ctx.cache.contains_timestamp_page(
                    other.idx,
                    f,
                    h,
                    t,
                    self.ctx.cfg.use_step_index,
                )?,
                None => self.ctx.cache.contains_timestamp(
                    other.idx,
                    h,
                    t,
                    self.ctx.cfg.use_step_index,
                )?,
            };
            if hit {
                return Ok(true);
            }
        }
        Ok(false)
    }
}
