//! M4-LSM: the chunk-merge-free M4 operator (paper §3, Algorithm 1).
//!
//! Execution per query:
//!
//! 1. Read all chunk metadata and deletes for the query range —
//!    in-memory only ([`tskv::readers::MetadataReader`] territory).
//! 2. Assign chunks to the spans their intervals overlap (Algorithm 1
//!    line 5); the span boundaries act as the paper's §3.1 *virtual
//!    deletes*, realized here as interval clipping. Paged chunks are
//!    assigned per *page*, so candidate generation, verification and
//!    lazy loading all work at page granularity (sub-chunk statistics,
//!    single-page loads).
//! 3. **Summary pass** (chunk-major): every fragment split by a span
//!    boundary must be loaded (Algorithm 1 lines 5–14). Each is loaded
//!    once and walked once in time order, yielding its exact live
//!    first/last/bottom/top in every span it crosses
//!    (`span::summarize`), instead of being re-filtered once per span.
//! 4. Per span: when the span's fragments are pairwise time-disjoint
//!    and no unapplied delete touches a metadata-described fragment,
//!    combine summaries and statistics directly
//!    (`span::combine_disjoint`) — disjoint fragments share no
//!    timestamp, so no overwrite is possible. Otherwise run candidate
//!    generation + verification + lazy loading (`span::SpanExecutor`)
//!    for each of FP/LP/BP/TP, reading split fragments' candidates from
//!    their summaries.
//!
//! Chunk bodies are loaded at most once per query (shared
//! `cache::ChunkCache`); timestamp probes decode partial prefixes
//! only. The configuration toggles the paper's two accelerators for
//! ablation benchmarks: lazy loading (§3.3/3.4) and the
//! step-regression chunk index (§3.5).
//!
//! Fragments and spans are independent (each span holds its own
//! candidate state and the shared `ChunkCache` is `Sync`), so steps 3
//! and 4 each fan out across the engine-configured worker pool
//! ([`crate::pool`]); results keep fragment and span order.

mod cache;
mod span;

use tskv::SeriesSnapshot;

use crate::pool;
use crate::query::M4Query;
use crate::repr::M4Result;
use crate::{M4Error, Result};
use cache::ChunkCache;
use span::{QueryCtx, SpanChunk, SpanExecutor, SplitFragment};

/// Tunables of the M4-LSM operator (all on by default; disabling is
/// only for ablation experiments).
#[derive(Debug, Clone, Copy)]
pub struct M4LsmConfig {
    /// Defer chunk loads until a refuted candidate is still the most
    /// extreme remaining (§3.3/§3.4). Off = load eagerly on first
    /// refutation.
    pub lazy_load: bool,
    /// Use the step-regression chunk index for timestamp probes (§3.5).
    /// Off = plain binary search over the decoded prefix.
    pub use_step_index: bool,
}

impl Default for M4LsmConfig {
    fn default() -> Self {
        M4LsmConfig {
            lazy_load: true,
            use_step_index: true,
        }
    }
}

/// The merge-free M4 operator.
#[derive(Debug, Clone, Copy, Default)]
pub struct M4Lsm {
    cfg: M4LsmConfig,
}

impl M4Lsm {
    /// Operator with default configuration.
    pub fn new() -> Self {
        M4Lsm {
            cfg: M4LsmConfig::default(),
        }
    }

    /// Operator with explicit configuration (ablations).
    pub fn with_config(cfg: M4LsmConfig) -> Self {
        M4Lsm { cfg }
    }

    /// Execute an M4 query over a storage snapshot.
    pub fn execute(&self, snapshot: &SeriesSnapshot, query: &M4Query) -> Result<M4Result> {
        let handles = snapshot.chunks();
        let deletes = snapshot.deletes();
        let cache = ChunkCache::new(snapshot);
        let threads = snapshot.pool_threads();

        // Assign chunks to spans. A fragment whose interval covers
        // several spans appears in each and is *split*; a fragment the
        // span fully contains is *whole* (its statistics describe the
        // whole subsequence). Paged chunks are assigned *per page*:
        // each page carries its own statistics, so spans see page-sized
        // fragments instead of the whole chunk — pages outside every
        // span are never touched, and far more fragments are whole.
        let mut per_span: Vec<Vec<SpanChunk>> = vec![Vec::new(); query.w];
        let mut split: Vec<SplitFragment> = Vec::new();
        for (idx, h) in handles.iter().enumerate() {
            match h.paged().filter(|info| info.pages.len() > 1) {
                Some(info) => {
                    for (f, pm) in info.pages.iter().enumerate() {
                        let frag = u32::try_from(f)
                            .map_err(|_| M4Error::Internal("page number exceeds u32 range"))?;
                        let r = pm.stats.time_range();
                        assign(&mut per_span, &mut split, query, idx, Some(frag), r)?;
                    }
                }
                None => assign(&mut per_span, &mut split, query, idx, None, h.time_range())?,
            }
        }

        // Summary pass: load and walk each split fragment once.
        let mut ctx = QueryCtx {
            handles,
            deletes,
            cache: &cache,
            cfg: &self.cfg,
            summaries: &[],
        };
        let summaries = pool::run_indexed(threads, split.len(), |j| {
            span::summarize(&ctx, query, &split[j])
        })?;
        ctx.summaries = &summaries;

        // Combine the spans the fast path can answer; solve the rest on
        // the worker pool. Each executor is private to its job; only the
        // chunk cache (Sync, short guards) and the read-only summaries
        // are shared. `run_indexed` keeps span order.
        let ctx = &ctx;
        let fragments = |i: usize| per_span.get(i).map_or(&[][..], Vec::as_slice);
        let mut spans = Vec::with_capacity(query.w);
        let mut pending = Vec::new();
        for i in 0..query.w {
            let chunks = fragments(i);
            let fast = if chunks.is_empty() {
                Some(None)
            } else {
                span::combine_disjoint(ctx, chunks, i)
            };
            if fast.is_none() {
                pending.push(i);
            }
            spans.push(fast.flatten());
        }
        let solved = pool::run_indexed(threads, pending.len(), |j| {
            let i = pending[j];
            SpanExecutor::new(ctx, fragments(i), i, query.span_range(i)).compute()
        })?;
        for (i, repr) in pending.into_iter().zip(solved) {
            spans[i] = repr;
        }
        Ok(M4Result { spans })
    }
}

/// Register one fragment (a whole chunk or one page of a paged chunk)
/// with every span its time interval overlaps. A fragment is either
/// whole in its single span or split in every span it touches; split
/// fragments are recorded for the summary pass.
fn assign(
    per_span: &mut [Vec<SpanChunk>],
    split: &mut Vec<SplitFragment>,
    query: &M4Query,
    idx: usize,
    frag: Option<u32>,
    r: tsfile::types::TimeRange,
) -> Result<()> {
    let clipped = r.intersect(&query.full_range());
    if clipped.is_empty() {
        return Ok(());
    }
    let lo = query.span_of(clipped.start).ok_or(M4Error::Internal(
        "clipped interval start left the query range",
    ))?;
    let hi = query.span_of(clipped.end).ok_or(M4Error::Internal(
        "clipped interval end left the query range",
    ))?;
    let lo_range = query.span_range(lo);
    let whole = lo == hi && lo_range.start <= r.start && r.end <= lo_range.end;
    let id = (!whole).then(|| {
        split.push(SplitFragment {
            idx,
            frag,
            first_span: lo,
            last_span: hi,
        });
        split.len() - 1
    });
    for (s, chunks) in per_span.iter_mut().enumerate().take(hi + 1).skip(lo) {
        if query.span_range(s).overlaps(&r) {
            chunks.push(SpanChunk {
                idx,
                frag,
                split: id,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    // Tests assert by panicking; the workspace deny-set targets library code.
    #![allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )]

    use super::*;
    use tsfile::testing::TempDir;
    use tsfile::types::Point;
    use tskv::config::EngineConfig;
    use tskv::TsKv;

    use crate::udf::M4Udf;

    fn fresh(name: &str, chunk: usize) -> (TempDir, TsKv) {
        let dir = TempDir::new(&format!("m4-lsm-{name}")).unwrap();
        let kv = TsKv::open(
            &dir,
            EngineConfig {
                points_per_chunk: chunk,
                memtable_threshold: chunk * 4,
                ..Default::default()
            },
        )
        .unwrap();
        (dir, kv)
    }

    fn assert_matches_udf(kv: &TsKv, series: &str, q: &M4Query) {
        let snap = kv.snapshot(series).unwrap();
        let udf = M4Udf::new().execute(&snap, q).unwrap();
        for cfg in [
            M4LsmConfig {
                lazy_load: true,
                use_step_index: true,
            },
            M4LsmConfig {
                lazy_load: false,
                use_step_index: true,
            },
            M4LsmConfig {
                lazy_load: true,
                use_step_index: false,
            },
        ] {
            let lsm = M4Lsm::with_config(cfg).execute(&snap, q).unwrap();
            assert!(
                lsm.equivalent(&udf),
                "cfg {cfg:?}\nlsm: {lsm:?}\nudf: {udf:?}"
            );
        }
    }

    #[test]
    fn clean_sequential_data() {
        let (_dir, kv) = fresh("clean", 100);
        for t in 0..2000i64 {
            kv.insert("s", Point::new(t, ((t * 37) % 101) as f64))
                .unwrap();
        }
        kv.flush_all().unwrap();
        assert_matches_udf(&kv, "s", &M4Query::new(0, 2000, 7).unwrap());
        assert_matches_udf(&kv, "s", &M4Query::new(0, 2000, 1).unwrap());
        assert_matches_udf(&kv, "s", &M4Query::new(0, 2000, 400).unwrap());
    }

    #[test]
    fn pure_metadata_path_loads_nothing() {
        let (_dir, kv) = fresh("meta-only", 100);
        for t in 0..1000i64 {
            kv.insert("s", Point::new(t, (t % 13) as f64)).unwrap();
        }
        kv.flush_all().unwrap();
        let snap = kv.snapshot("s").unwrap();
        // One span covering everything: all chunks whole, no deletes,
        // no overlap → zero chunk loads.
        let before = snap.io().snapshot();
        let q = M4Query::new(0, 1000, 1).unwrap();
        let r = M4Lsm::new().execute(&snap, &q).unwrap();
        let delta = snap.io().snapshot() - before;
        assert_eq!(
            delta.chunks_loaded, 0,
            "merge-free path must not load chunks"
        );
        let s = r.spans[0].unwrap();
        assert_eq!(s.first, Point::new(0, 0.0));
        assert_eq!(s.last.t, 999);
        assert_eq!(s.top.v, 12.0);
        assert_eq!(s.bottom.v, 0.0);
    }

    #[test]
    fn overlapping_chunks_with_overwrites() {
        let (_dir, kv) = fresh("overwrite", 50);
        for t in 0..1000i64 {
            kv.insert("s", Point::new(t, (t % 29) as f64)).unwrap();
        }
        kv.flush_all().unwrap();
        // Overwrite scattered ranges with extreme values.
        for t in (200..400).step_by(3) {
            kv.insert("s", Point::new(t, 1000.0)).unwrap();
        }
        kv.flush_all().unwrap();
        for t in (600..700).step_by(2) {
            kv.insert("s", Point::new(t, -1000.0)).unwrap();
        }
        kv.flush_all().unwrap();
        for w in [1, 3, 10, 100] {
            assert_matches_udf(&kv, "s", &M4Query::new(0, 1000, w).unwrap());
        }
    }

    #[test]
    fn deletes_at_edges_and_extremes() {
        let (_dir, kv) = fresh("deletes", 50);
        for t in 0..1000i64 {
            kv.insert("s", Point::new(t, (t % 29) as f64)).unwrap();
        }
        kv.flush_all().unwrap();
        kv.delete("s", 0, 99).unwrap(); // kills the first chunk span
        kv.delete("s", 950, 2000).unwrap(); // clips the tail
        kv.delete("s", 500, 504).unwrap(); // interior nibble
        for w in [1, 4, 20] {
            assert_matches_udf(&kv, "s", &M4Query::new(0, 1000, w).unwrap());
        }
    }

    #[test]
    fn delete_then_overwrite_then_delete() {
        let (_dir, kv) = fresh("interleaved", 25);
        for t in 0..500i64 {
            kv.insert("s", Point::new(t, 1.0)).unwrap();
        }
        kv.flush_all().unwrap();
        kv.delete("s", 100, 199).unwrap();
        for t in 150..250i64 {
            kv.insert("s", Point::new(t, 2.0)).unwrap();
        }
        kv.flush_all().unwrap();
        kv.delete("s", 220, 300).unwrap();
        for w in [1, 2, 5, 50] {
            assert_matches_udf(&kv, "s", &M4Query::new(0, 500, w).unwrap());
        }
    }

    #[test]
    fn query_subrange_and_misaligned_spans() {
        let (_dir, kv) = fresh("subrange", 30);
        for t in 0..900i64 {
            kv.insert("s", Point::new(t * 7, ((t * 13) % 97) as f64))
                .unwrap();
        }
        kv.flush_all().unwrap();
        assert_matches_udf(&kv, "s", &M4Query::new(500, 5000, 13).unwrap());
        assert_matches_udf(&kv, "s", &M4Query::new(1, 6300, 9).unwrap());
        assert_matches_udf(&kv, "s", &M4Query::new(6299, 6301, 2).unwrap());
    }

    #[test]
    fn empty_series_and_empty_range() {
        let (_dir, kv) = fresh("empty", 10);
        kv.create_series("s").unwrap();
        let snap = kv.snapshot("s").unwrap();
        let q = M4Query::new(0, 100, 4).unwrap();
        let r = M4Lsm::new().execute(&snap, &q).unwrap();
        assert_eq!(r.non_empty(), 0);
    }

    #[test]
    fn fp_bound_ties_exact_candidate() {
        // The subtle FP selection rule: a delete-clipped bound that
        // lands exactly on another chunk's first point time must be
        // resolved (loaded) before that exact candidate is answered,
        // because the bounded chunk may hold a later-versioned point at
        // the same timestamp.
        let (_dir, kv) = fresh("bound-tie", 10);
        // C¹: points at 100..190 step 10, value 1.
        let c1: Vec<Point> = (0..10).map(|t| Point::new(100 + t * 10, 1.0)).collect();
        kv.insert_batch("s", &c1).unwrap();
        kv.flush("s").unwrap();
        // D²: delete [0, 129] — clips C¹'s effective start to 130.
        kv.delete("s", 0, 129).unwrap();
        // C³: first point exactly at 130 — and C¹ ALSO has a live point
        // at 130 (survived the delete? no: 130 > 129, so C¹'s 130 is
        // live). C³'s 130 has the higher version and must win FP.
        let c3 = vec![Point::new(130, 9.0), Point::new(200, 9.0)];
        kv.insert_batch("s", &c3).unwrap();
        kv.flush("s").unwrap();

        let q = M4Query::new(0, 1_000, 1).unwrap();
        assert_matches_udf(&kv, "s", &q);
        let snap = kv.snapshot("s").unwrap();
        let r = M4Lsm::new().execute(&snap, &q).unwrap();
        assert_eq!(r.spans[0].unwrap().first, Point::new(130, 9.0));
    }

    #[test]
    fn lp_mirror_of_bound_tie() {
        let (_dir, kv) = fresh("lp-bound-tie", 10);
        let c1: Vec<Point> = (0..10).map(|t| Point::new(100 + t * 10, 1.0)).collect();
        kv.insert_batch("s", &c1).unwrap();
        kv.flush("s").unwrap();
        // Delete the tail: LP bound becomes 159.
        kv.delete("s", 160, 500).unwrap();
        // New chunk whose last point is exactly 159 with higher version.
        let c3 = vec![Point::new(50, 9.0), Point::new(159, 9.0)];
        kv.insert_batch("s", &c3).unwrap();
        kv.flush("s").unwrap();

        let q = M4Query::new(0, 1_000, 1).unwrap();
        assert_matches_udf(&kv, "s", &q);
        let snap = kv.snapshot("s").unwrap();
        let r = M4Lsm::new().execute(&snap, &q).unwrap();
        assert_eq!(r.spans[0].unwrap().last, Point::new(159, 9.0));
    }

    #[test]
    fn all_candidates_dirty_forces_batch_load() {
        // Every chunk's metadata top is overwritten by a later chunk,
        // so BP/TP must batch-load the dirty chunks and recompute.
        let (_dir, kv) = fresh("all-dirty", 10);
        let mut c1: Vec<Point> = (0..10).map(|t| Point::new(t * 10, 1.0)).collect();
        c1[5].v = 100.0; // top of C¹ at t=50
        kv.insert_batch("s", &c1).unwrap();
        kv.flush("s").unwrap();
        let mut c2: Vec<Point> = (0..10).map(|t| Point::new(200 + t * 10, 1.0)).collect();
        c2[3].v = 90.0; // top of C² at t=230
        kv.insert_batch("s", &c2).unwrap();
        kv.flush("s").unwrap();
        // C³ overwrites both tops with low values.
        kv.insert_batch("s", &[Point::new(50, 0.0), Point::new(230, 0.0)])
            .unwrap();
        kv.flush("s").unwrap();

        let q = M4Query::new(0, 1_000, 1).unwrap();
        assert_matches_udf(&kv, "s", &q);
        let snap = kv.snapshot("s").unwrap();
        let r = M4Lsm::new().execute(&snap, &q).unwrap();
        // True top is now 1.0 (all 100/90 overwritten).
        assert_eq!(r.spans[0].unwrap().top.v, 1.0);
    }

    #[test]
    fn unflushed_memtable_visible() {
        let (_dir, kv) = fresh("memtable", 40);
        for t in 0..100i64 {
            kv.insert("s", Point::new(t, 1.0)).unwrap();
        }
        kv.flush_all().unwrap();
        for t in 50..150i64 {
            kv.insert("s", Point::new(t, 5.0)).unwrap();
        }
        // No flush: memtable chunk must serve the query.
        assert_matches_udf(&kv, "s", &M4Query::new(0, 150, 6).unwrap());
    }

    #[test]
    fn paged_chunks_match_udf_and_decode_fewer_points() {
        // Multi-page chunks (1000 points, 50-point pages) exercise the
        // fragment path: per-page span assignment, page-stat candidates
        // and selective page decode.
        let dir = TempDir::new("m4-lsm-paged").unwrap();
        let kv = TsKv::open(
            &dir,
            EngineConfig {
                points_per_chunk: 1000,
                memtable_threshold: 2000,
                page_points: 50,
                enable_read_cache: false,
                ..Default::default()
            },
        )
        .unwrap();
        for t in 0..4000i64 {
            kv.insert("s", Point::new(t, ((t * 37) % 101) as f64))
                .unwrap();
        }
        kv.flush_all().unwrap();
        // Overwrites landing mid-chunk, plus a range delete, so
        // verification probes cross page boundaries.
        for t in (1000..1200).step_by(3) {
            kv.insert("s", Point::new(t, 1000.0)).unwrap();
        }
        kv.flush_all().unwrap();
        kv.delete("s", 2500, 2600).unwrap();

        for w in [1usize, 7, 40] {
            assert_matches_udf(&kv, "s", &M4Query::new(0, 4000, w).unwrap());
        }

        // A narrow span touches a handful of 50-point pages; the
        // merge-free path must decode far fewer points than the two
        // whole 1000-point chunks overlapping it.
        let snap = kv.snapshot("s").unwrap();
        let before = snap.io().snapshot();
        let q = M4Query::new(100, 180, 2).unwrap();
        let r = M4Lsm::new().execute(&snap, &q).unwrap();
        let delta = snap.io().snapshot() - before;
        assert!(r.spans.iter().all(|s| s.is_some()));
        assert!(
            delta.points_decoded < 1000,
            "narrow span should decode pages, not whole chunks: {} points",
            delta.points_decoded
        );
    }
}
