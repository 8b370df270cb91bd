//! Hermetic run directories and a stop flag that cannot be skipped.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

/// A directory private to one store: unique per process id plus a
/// counter, removed (with everything in it) on drop.
#[derive(Debug)]
pub struct RunDir {
    path: PathBuf,
}

impl RunDir {
    /// Create `<base>/<tag>-<pid>-<n>`, clearing any leftover of the
    /// same name first.
    pub fn new(base: &Path, tag: &str) -> io::Result<RunDir> {
        let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
        let path = base.join(format!("{tag}-{}-{n}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(RunDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leave no empty base directory behind either; this fails
        // harmlessly while another run directory still lives in it.
        if let Some(base) = self.path.parent() {
            let _ = std::fs::remove_dir(base);
        }
    }
}

/// Sets its flag when dropped, so a thread that exits by panicking
/// still releases every thread waiting on the flag.
pub struct StopGuard<'a>(pub &'a AtomicBool);

impl Drop for StopGuard<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// Total bytes of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    files_bytes(dir, &|_| true)
}

/// Total bytes of the shared write-ahead-log segments under `dir`.
pub fn wal_bytes(dir: &Path) -> io::Result<u64> {
    files_bytes(dir, &|name| {
        name.starts_with("wal-") && name.ends_with(".log")
    })
}

fn files_bytes(dir: &Path, keep: &dyn Fn(&str) -> bool) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        if meta.is_dir() {
            total += files_bytes(&entry.path(), keep)?;
        } else if keep(&entry.file_name().to_string_lossy()) {
            total += meta.len();
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn run_dirs_are_unique_and_removed_on_drop() {
        let base = std::env::temp_dir().join(format!("perfbench-rundir-{}", std::process::id()));
        let a = RunDir::new(&base, "t").unwrap();
        let b = RunDir::new(&base, "t").unwrap();
        assert_ne!(a.path(), b.path());
        std::fs::write(a.path().join("wal-00000001.log"), [0u8; 10]).unwrap();
        std::fs::write(a.path().join("x.tsfile"), [0u8; 5]).unwrap();
        assert_eq!(dir_bytes(a.path()).unwrap(), 15);
        assert_eq!(wal_bytes(a.path()).unwrap(), 10);
        let pa = a.path().to_path_buf();
        drop(a);
        assert!(!pa.exists());
        assert!(b.path().exists());
        drop(b);
        assert!(!base.exists());
    }

    #[test]
    fn stop_guard_fires_when_a_thread_panics() {
        let stop = AtomicBool::new(false);
        let out = std::thread::scope(|s| {
            let spinner = s.spawn(|| {
                while !stop.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            });
            let panicker = s.spawn(|| {
                let _guard = StopGuard(&stop);
                panic!("writer failed");
            });
            let r = panicker.join();
            spinner.join().unwrap();
            r
        });
        assert!(out.is_err());
        assert!(stop.load(Ordering::SeqCst));
    }
}
