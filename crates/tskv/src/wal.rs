//! Per-series write-ahead log.
//!
//! The paper's experimental setup flushes everything before querying,
//! so IoTDB's WAL never features in its measurements — but a storage
//! engine that silently drops buffered points on restart is not usable.
//! This WAL makes the memtable durable: every insert batch and delete
//! is appended (CRC-framed, torn tails dropped) before it is applied.
//!
//! ## Segments and flush rotation
//!
//! The log is two files: the **active** segment (`series.wal`) covering
//! the current memtable, and an optional **sealed** segment
//! (`series.wal.old`) covering points currently being flushed. When a
//! flush begins, [`Wal::rotate_for_flush`] diverts the log: the active
//! segment becomes the sealed one and a fresh active segment opens.
//! Once the flush's TsFile is durable, [`Wal::discard_sealed`] drops
//! the sealed segment. This keeps the heavy TsFile write outside the
//! engine's series lock (xtask lint L2) without a window where a crash
//! could lose acknowledged writes:
//!
//! * crash mid-flush → the sealed segment still covers the in-flight
//!   points and [`Wal::replay`] reads it before the active segment;
//! * flush failure → the sealed segment survives, and the *next*
//!   rotation folds the active segment onto it so replay order (old
//!   records first) is preserved;
//! * crash after the TsFile is durable but before the discard → the
//!   sealed segment replays points that also exist in the new file;
//!   the merge path dedups same-timestamp points, so reads stay
//!   correct at the cost of a transiently larger memtable.
//!
//! ## Group commit
//!
//! [`Wal::open`] is write-through: every append reaches the OS in one
//! `write_all` syscall, which is what the unit tests and simple callers
//! expect. [`Wal::open_grouped`] buffers framed records in memory up to
//! `batch_bytes` and drains them in a single `write_all` — either when
//! the buffer crosses the threshold or when the engine calls
//! [`Wal::commit`] at the end of a write call, before releasing the
//! shard lock. Because the engine never returns (never *acknowledges*
//! a write) without committing, the durability contract is unchanged:
//! a crash can only lose writes that were never acknowledged.
//! [`Wal::commit`] returns the bytes written through since the last
//! commit so the engine can feed its group-commit counters, and
//! optionally fsyncs per [`crate::config::FsyncPolicy`].
//!
//! Durability level: records are written to the OS on every append
//! (write-through mode) or on every commit (grouped mode) and fsynced
//! when [`Wal::sync`] is called or `commit(true)` runs (the engine
//! syncs on flush and on delete, plus per the configured fsync
//! policy). A mid-append crash loses at most the torn tail record,
//! never previously acknowledged state.
//!
//! Record layout: `u8 kind` then fields, then `u32 crc` of everything
//! before it.
//!
//! * kind 0 — insert run: `varint n`, then `n × (varint_i t, f64 v)`.
//! * kind 1 — delete: `varint κ`, `varint_i t_ds`, `varint_i t_de`.
//!   The version κ lets recovery re-attach the tombstone to sealed
//!   files whose mods log missed it (crash between WAL append and the
//!   mods append).

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use tsfile::checksum::crc32;
use tsfile::types::{Point, TimeRange, Timestamp, Version};
use tsfile::varint;

use crate::Result;

/// A replayed WAL operation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    Insert(Vec<Point>),
    Delete { version: Version, range: TimeRange },
}

/// Append-only, rotatable per-series log.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: File,
    /// Group-commit threshold: frames buffer in `buf` until it holds at
    /// least this many bytes. `0` = write-through (flush every frame).
    batch_bytes: usize,
    /// Framed records not yet written to the OS.
    buf: Vec<u8>,
    /// Bytes written through since the last [`Wal::commit`]; lets the
    /// commit path report batch sizes even when a large append drained
    /// the buffer early.
    written_since_commit: u64,
}

impl Wal {
    /// Open (creating if absent) the WAL at `path` in write-through
    /// mode: every append reaches the OS immediately.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        Self::open_grouped(path, 0)
    }

    /// Open (creating if absent) the WAL at `path` in group-commit
    /// mode: appends buffer in memory up to `batch_bytes` and are
    /// drained in one syscall by [`Wal::commit`] (or when the buffer
    /// crosses the threshold). `batch_bytes == 0` is write-through.
    pub fn open_grouped<P: AsRef<Path>>(path: P, batch_bytes: usize) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Wal {
            path,
            file,
            batch_bytes,
            buf: Vec::new(),
            written_since_commit: 0,
        })
    }

    /// Append one insert run.
    pub fn append_inserts(&mut self, points: &[Point]) -> Result<()> {
        if points.is_empty() {
            return Ok(());
        }
        let mut body = Vec::with_capacity(10 + points.len() * 12);
        body.push(0u8);
        varint::write_u64(&mut body, points.len() as u64);
        for p in points {
            varint::write_i64(&mut body, p.t);
            body.extend_from_slice(&p.v.to_le_bytes());
        }
        self.append_framed(body)
    }

    /// Append one delete with its global version `κ`.
    pub fn append_delete(&mut self, version: Version, range: TimeRange) -> Result<()> {
        let mut body = Vec::with_capacity(32);
        body.push(1u8);
        varint::write_u64(&mut body, version.0);
        varint::write_i64(&mut body, range.start);
        varint::write_i64(&mut body, range.end);
        self.append_framed(body)
    }

    fn append_framed(&mut self, body: Vec<u8>) -> Result<()> {
        let crc = crc32(&body);
        self.buf.extend_from_slice(&body);
        self.buf.extend_from_slice(&crc.to_le_bytes());
        if self.buf.len() >= self.batch_bytes {
            self.flush_buf()?;
        }
        Ok(())
    }

    /// Drain buffered frames to the OS in one `write_all`.
    fn flush_buf(&mut self) -> Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.file.write_all(&self.buf)?;
        self.written_since_commit += self.buf.len() as u64;
        self.buf.clear();
        Ok(())
    }

    /// End a group commit: drain any buffered frames, optionally fsync,
    /// and return the bytes written through since the previous commit
    /// (0 means the batch was empty). The engine calls this before
    /// releasing the shard lock, so acknowledged writes are always in
    /// the OS before the caller sees `Ok`.
    pub fn commit(&mut self, sync: bool) -> Result<u64> {
        self.flush_buf()?;
        let bytes = self.written_since_commit;
        self.written_since_commit = 0;
        if sync && bytes > 0 {
            self.file.sync_data()?;
        }
        Ok(bytes)
    }

    /// Force written records to stable storage (draining the buffer
    /// first in grouped mode).
    pub fn sync(&mut self) -> Result<()> {
        self.flush_buf()?;
        self.file.sync_data()?;
        Ok(())
    }

    /// Begin a flush: divert the log so records covering the points
    /// being flushed are kept apart from records for new writes. The
    /// active segment's contents move to the sealed segment and a fresh
    /// active segment opens. If a sealed segment already exists (a
    /// previous flush failed after rotating), the active segment is
    /// folded onto it instead, preserving append order on replay.
    ///
    /// Must be called under the same lock that serializes appends.
    pub fn rotate_for_flush(&mut self) -> Result<()> {
        // Buffered frames belong to the memtable being flushed; they
        // must land in the segment that rotates out.
        self.flush_buf()?;
        let sealed = Self::sealed_path(&self.path);
        if sealed.exists() {
            let mut dst = OpenOptions::new().append(true).open(&sealed)?;
            let mut src = File::open(&self.path)?;
            std::io::copy(&mut src, &mut dst)?;
            dst.sync_data()?;
            self.reset()
        } else {
            std::fs::rename(&self.path, &sealed)?;
            self.file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(&self.path)?;
            Ok(())
        }
    }

    /// End a flush: the sealed TsFile now covers the sealed segment's
    /// records, so the segment can go. No-op if none exists.
    pub fn discard_sealed(&mut self) -> Result<()> {
        match std::fs::remove_file(Self::sealed_path(&self.path)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// Discard all active-segment records (their effects are durable
    /// elsewhere, or the caller is tearing the series down).
    pub fn reset(&mut self) -> Result<()> {
        // Buffered frames cover the same records being discarded.
        self.buf.clear();
        // Recreate rather than truncate-in-place: O_APPEND offsets reset
        // with the new file handle on every platform.
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&self.path)?;
        file.sync_data()?;
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        Ok(())
    }

    /// Replay the log at `path` (no-op if absent): first the sealed
    /// segment left by an interrupted flush, then the active segment,
    /// so records come back in append order. A torn or corrupt tail
    /// record ends that segment's replay silently; everything before it
    /// is returned.
    pub fn replay<P: AsRef<Path>>(path: P) -> Result<Vec<WalRecord>> {
        let path = path.as_ref();
        let mut out = Vec::new();
        for segment in [Self::sealed_path(path), path.to_path_buf()] {
            if !segment.exists() {
                continue;
            }
            let mut buf = Vec::new();
            File::open(&segment)?.read_to_end(&mut buf)?;
            let mut pos = 0usize;
            while pos < buf.len() {
                match decode_record(&buf, pos) {
                    Some((record, next)) => {
                        out.push(record);
                        pos = next;
                    }
                    None => break,
                }
            }
        }
        Ok(out)
    }

    /// Logical size of the active segment in bytes, counting buffered
    /// (not-yet-written) frames so threshold checks see every append.
    pub fn len_bytes(&self) -> Result<u64> {
        Ok(self.file.metadata()?.len() + self.buf.len() as u64)
    }

    /// Path of the sealed segment belonging to the WAL at `path`.
    pub fn sealed_path(path: &Path) -> PathBuf {
        let mut p = path.as_os_str().to_os_string();
        p.push(".old");
        PathBuf::from(p)
    }
}

/// Decode one framed record at `pos`; `None` on torn/corrupt data.
fn decode_record(buf: &[u8], start: usize) -> Option<(WalRecord, usize)> {
    let mut pos = start;
    let kind = *buf.get(pos)?;
    pos += 1;
    let record = match kind {
        0 => {
            let n = varint::read_u64(buf, &mut pos).ok()? as usize;
            // A record cannot hold more points than bytes remaining.
            if n > buf.len().saturating_sub(pos) {
                return None;
            }
            let mut points = Vec::with_capacity(n);
            for _ in 0..n {
                let t: Timestamp = varint::read_i64(buf, &mut pos).ok()?;
                let v_bytes = buf.get(pos..pos.checked_add(8)?)?;
                pos += 8;
                points.push(Point::new(t, f64::from_le_bytes(v_bytes.try_into().ok()?)));
            }
            WalRecord::Insert(points)
        }
        1 => {
            let version = Version(varint::read_u64(buf, &mut pos).ok()?);
            let s = varint::read_i64(buf, &mut pos).ok()?;
            let e = varint::read_i64(buf, &mut pos).ok()?;
            WalRecord::Delete {
                version,
                range: TimeRange::new(s, e),
            }
        }
        _ => return None,
    };
    let crc_bytes = buf.get(pos..pos.checked_add(4)?)?;
    let expected = u32::from_le_bytes(crc_bytes.try_into().ok()?);
    if crc32(buf.get(start..pos)?) != expected {
        return None;
    }
    Some((record, pos + 4))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsfile::testing::TempDir;

    type TestResult = std::result::Result<(), Box<dyn std::error::Error>>;

    /// A fresh log path in a scratch directory private to the test.
    fn tmp(name: &str) -> std::io::Result<(TempDir, PathBuf)> {
        let dir = TempDir::new("tskv-wal-tests")?;
        let p = dir.join(name);
        Ok((dir, p))
    }

    fn pts(raw: &[(i64, f64)]) -> Vec<Point> {
        raw.iter().map(|&(t, v)| Point::new(t, v)).collect()
    }

    #[test]
    fn append_replay_roundtrip() -> TestResult {
        let (_dir, p) = tmp("roundtrip.wal")?;
        let mut w = Wal::open(&p)?;
        w.append_inserts(&pts(&[(1, 1.0), (2, 2.0)]))?;
        w.append_delete(Version(7), TimeRange::new(0, 10))?;
        w.append_inserts(&pts(&[(5, 5.0)]))?;
        w.sync()?;
        drop(w);
        let records = Wal::replay(&p)?;
        assert_eq!(
            records,
            vec![
                WalRecord::Insert(pts(&[(1, 1.0), (2, 2.0)])),
                WalRecord::Delete {
                    version: Version(7),
                    range: TimeRange::new(0, 10)
                },
                WalRecord::Insert(pts(&[(5, 5.0)])),
            ]
        );
        Ok(())
    }

    #[test]
    fn missing_file_replays_empty() -> TestResult {
        let (_dir, p) = tmp("missing.wal")?;
        assert!(Wal::replay(&p)?.is_empty());
        Ok(())
    }

    #[test]
    fn reset_clears_log() -> TestResult {
        let (_dir, p) = tmp("reset.wal")?;
        let mut w = Wal::open(&p)?;
        w.append_inserts(&pts(&[(1, 1.0)]))?;
        assert!(w.len_bytes()? > 0);
        w.reset()?;
        assert_eq!(w.len_bytes()?, 0);
        assert!(Wal::replay(&p)?.is_empty());
        // Appending after a reset works (fresh handle).
        w.append_delete(Version(1), TimeRange::new(1, 2))?;
        assert_eq!(Wal::replay(&p)?.len(), 1);
        Ok(())
    }

    #[test]
    fn rotation_diverts_then_discard_drops() -> TestResult {
        let (_dir, p) = tmp("rotate.wal")?;
        let mut w = Wal::open(&p)?;
        w.append_inserts(&pts(&[(1, 1.0)]))?;
        w.rotate_for_flush()?;
        assert_eq!(w.len_bytes()?, 0, "active segment is fresh after rotation");
        w.append_inserts(&pts(&[(2, 2.0)]))?;
        // Replay sees sealed-segment records first.
        let records = Wal::replay(&p)?;
        assert_eq!(
            records,
            vec![
                WalRecord::Insert(pts(&[(1, 1.0)])),
                WalRecord::Insert(pts(&[(2, 2.0)])),
            ]
        );
        w.discard_sealed()?;
        assert!(!Wal::sealed_path(&p).exists());
        assert_eq!(Wal::replay(&p)?, vec![WalRecord::Insert(pts(&[(2, 2.0)]))]);
        Ok(())
    }

    #[test]
    fn second_rotation_folds_active_onto_surviving_sealed_segment() -> TestResult {
        let (_dir, p) = tmp("fold.wal")?;
        let mut w = Wal::open(&p)?;
        w.append_inserts(&pts(&[(1, 1.0)]))?;
        w.rotate_for_flush()?; // flush #1 starts…
        w.append_inserts(&pts(&[(2, 2.0)]))?;
        w.rotate_for_flush()?; // …fails; flush #2 rotates with .old present
        w.append_inserts(&pts(&[(3, 3.0)]))?;
        // Append order must survive both rotations.
        let records = Wal::replay(&p)?;
        assert_eq!(
            records,
            vec![
                WalRecord::Insert(pts(&[(1, 1.0)])),
                WalRecord::Insert(pts(&[(2, 2.0)])),
                WalRecord::Insert(pts(&[(3, 3.0)])),
            ]
        );
        Ok(())
    }

    #[test]
    fn discard_without_sealed_segment_is_noop() -> TestResult {
        let (_dir, p) = tmp("nodiscard.wal")?;
        let mut w = Wal::open(&p)?;
        w.discard_sealed()?;
        Ok(())
    }

    #[test]
    fn torn_tail_dropped() -> TestResult {
        let (_dir, p) = tmp("torn.wal")?;
        let mut w = Wal::open(&p)?;
        w.append_inserts(&pts(&[(1, 1.0)]))?;
        w.append_inserts(&pts(&[(2, 2.0), (3, 3.0)]))?;
        drop(w);
        let data = std::fs::read(&p)?;
        let keep = data.len() - 5;
        std::fs::write(&p, data.get(..keep).ok_or("short wal")?)?;
        let records = Wal::replay(&p)?;
        assert_eq!(records, vec![WalRecord::Insert(pts(&[(1, 1.0)]))]);
        Ok(())
    }

    #[test]
    fn corrupt_record_ends_replay() -> TestResult {
        let (_dir, p) = tmp("corrupt.wal")?;
        let mut w = Wal::open(&p)?;
        w.append_inserts(&pts(&[(1, 1.0)]))?;
        w.append_inserts(&pts(&[(2, 2.0)]))?;
        drop(w);
        let mut data = std::fs::read(&p)?;
        let n = data.len();
        let byte = data.get_mut(n - 6).ok_or("short wal")?;
        *byte ^= 0xFF; // flip a bit in the second record's body
        std::fs::write(&p, &data)?;
        assert_eq!(Wal::replay(&p)?.len(), 1);
        Ok(())
    }

    #[test]
    fn absurd_count_rejected() -> TestResult {
        let (_dir, p) = tmp("absurd.wal")?;
        // Hand-craft a record claiming u64::MAX points.
        let mut body = vec![0u8];
        varint::write_u64(&mut body, u64::MAX);
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        std::fs::write(&p, &body)?;
        assert!(Wal::replay(&p)?.is_empty());
        Ok(())
    }

    #[test]
    fn empty_insert_is_noop() -> TestResult {
        let (_dir, p) = tmp("empty.wal")?;
        let mut w = Wal::open(&p)?;
        w.append_inserts(&[])?;
        assert_eq!(w.len_bytes()?, 0);
        Ok(())
    }

    #[test]
    fn grouped_mode_buffers_until_commit() -> TestResult {
        let (_dir, p) = tmp("grouped.wal")?;
        let mut w = Wal::open_grouped(&p, 1 << 20)?;
        w.append_inserts(&pts(&[(1, 1.0), (2, 2.0)]))?;
        w.append_delete(Version(3), TimeRange::new(0, 5))?;
        // Nothing has reached the OS yet…
        assert_eq!(std::fs::metadata(&p)?.len(), 0);
        // …but the logical length counts the buffered frames.
        assert!(w.len_bytes()? > 0);
        assert!(Wal::replay(&p)?.is_empty());
        let bytes = w.commit(false)?;
        assert!(bytes > 0);
        assert_eq!(std::fs::metadata(&p)?.len(), bytes);
        assert_eq!(
            Wal::replay(&p)?,
            vec![
                WalRecord::Insert(pts(&[(1, 1.0), (2, 2.0)])),
                WalRecord::Delete {
                    version: Version(3),
                    range: TimeRange::new(0, 5)
                },
            ]
        );
        // A second commit with nothing new reports an empty batch.
        assert_eq!(w.commit(true)?, 0);
        Ok(())
    }

    #[test]
    fn grouped_mode_writes_through_past_threshold() -> TestResult {
        let (_dir, p) = tmp("grouped_threshold.wal")?;
        let mut w = Wal::open_grouped(&p, 16)?;
        // One record larger than the threshold drains immediately.
        w.append_inserts(&pts(&[(1, 1.0), (2, 2.0), (3, 3.0)]))?;
        assert!(std::fs::metadata(&p)?.len() > 0);
        // commit still reports everything written since the last one.
        assert!(w.commit(false)? > 0);
        Ok(())
    }

    #[test]
    fn rotation_drains_buffered_frames_into_sealed_segment() -> TestResult {
        let (_dir, p) = tmp("grouped_rotate.wal")?;
        let mut w = Wal::open_grouped(&p, 1 << 20)?;
        w.append_inserts(&pts(&[(1, 1.0)]))?;
        w.rotate_for_flush()?;
        // The buffered record rotated out with the sealed segment.
        assert_eq!(Wal::replay(&p)?, vec![WalRecord::Insert(pts(&[(1, 1.0)]))]);
        assert!(Wal::sealed_path(&p).exists());
        assert_eq!(w.len_bytes()?, 0);
        Ok(())
    }

    #[test]
    fn reset_drops_buffered_frames() -> TestResult {
        let (_dir, p) = tmp("grouped_reset.wal")?;
        let mut w = Wal::open_grouped(&p, 1 << 20)?;
        w.append_inserts(&pts(&[(1, 1.0)]))?;
        w.reset()?;
        assert_eq!(w.commit(false)?, 0);
        assert!(Wal::replay(&p)?.is_empty());
        Ok(())
    }
}
