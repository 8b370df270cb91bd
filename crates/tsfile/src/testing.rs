//! Scratch directories for the workspace's test suites.
//!
//! libtest runs tests in parallel threads of one process, so a scratch
//! root named only after the process id is shared by every test in the
//! binary: one test's cleanup deletes another's live store. A
//! [`TempDir`] is unique per process *and* per call, and removes itself
//! on drop, so no test ever sees another's files.

use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Calls to [`TempDir::new`] so far in this process.
static NEXT: AtomicU64 = AtomicU64::new(0);

/// A fresh, empty directory under the system temp dir, named
/// `<prefix>-<pid>-<n>`, removed with its contents on drop.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Create a new directory. A leftover of the same name (from an
    /// earlier process that had this pid) is removed first.
    pub fn new(prefix: &str) -> std::io::Result<TempDir> {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("{prefix}-{}-{n}", std::process::id()));
        match std::fs::remove_dir_all(&path) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        std::fs::create_dir_all(&path)?;
        Ok(TempDir { path })
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.path
    }
}

impl AsRef<Path> for TempDir {
    fn as_ref(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // Best effort: a failed removal leaves garbage, never wrong data.
        std::fs::remove_dir_all(&self.path).ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unique_and_removed_on_drop() -> std::io::Result<()> {
        let a = TempDir::new("tsfile-testing")?;
        let b = TempDir::new("tsfile-testing")?;
        assert_ne!(a.path(), b.path());
        assert!(a.is_dir() && b.is_dir());
        std::fs::write(a.join("f"), b"x")?;
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists());
        assert!(b.is_dir());
        Ok(())
    }
}
