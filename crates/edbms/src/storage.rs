//! Injectable storage substrate for the durability layer.
//!
//! Every byte the durability code puts on disk — WAL frames, checkpoint
//! images, manifests — flows through the [`StorageFs`] /
//! [`StorageFile`] trait pair instead of calling `std::fs` directly.
//! Production code uses the zero-cost [`RealFs`] passthrough; tests swap in
//! `prkb-sim`'s fault-injecting filesystem, which fails
//! the Nth operation with EIO, ENOSPC, or a short write, deterministically
//! from a seed. The traits are std-only on purpose: no async, no feature
//! gates, nothing the container doesn't already have.
//!
//! This one seam carries both fault classes: *the syscall itself lying* —
//! EIO on fsync, ENOSPC mid-write, a rename that never happens — and
//! *process death between syscalls*, which is a cut in the op stream (the
//! op at the cut tears or fails, and every later op fails). Both are
//! deterministic, so the suites sweep them.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// An open file handle behind the storage abstraction.
///
/// Only the operations the durability layer actually performs are exposed;
/// anything else would be untestable surface. Handles must be `Send`
/// because WALs migrate across group-commit leader threads.
pub trait StorageFile: Send + fmt::Debug {
    /// Writes the whole buffer (short writes are the implementation's
    /// problem to surface as errors, never to hide).
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Reads the remainder of the file into `buf`, returning bytes read.
    fn read_to_end(&mut self, buf: &mut Vec<u8>) -> io::Result<usize>;
    /// Flushes file *data* to stable storage (`fdatasync`).
    fn sync_data(&mut self) -> io::Result<()>;
    /// Flushes file data and metadata to stable storage (`fsync`).
    fn sync_all(&mut self) -> io::Result<()>;
    /// Truncates (or extends) the file to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
    /// Seeks to an absolute offset from the start of the file.
    fn seek_start(&mut self, pos: u64) -> io::Result<()>;
}

/// A filesystem namespace: open/create/rename/remove plus directory sync.
///
/// Implementations must be cheap to clone via `Arc<dyn StorageFs>` and
/// safe to share across threads.
pub trait StorageFs: Send + Sync + fmt::Debug {
    /// Creates (truncating if present) a read+write file.
    fn create_file(&self, path: &Path) -> io::Result<Box<dyn StorageFile>>;
    /// Opens an *existing* file read+write; errors if absent.
    fn open_file(&self, path: &Path) -> io::Result<Box<dyn StorageFile>>;
    /// Reads an entire file into memory.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Atomically writes `bytes` to a fresh file at `path` (no sync).
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Renames `from` onto `to` (the atomic-publish step).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes a file, or an empty directory.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Recursively creates a directory.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Fsyncs a directory, making renames/creates inside it durable.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Whether `path` exists (any file type).
    fn exists(&self, path: &Path) -> bool;
    /// Lists the entries of a directory (full paths, unsorted).
    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;
    /// Size of the file at `path` in bytes. The default reads the whole
    /// file (correct through any fault wrapper); [`RealFs`] answers from
    /// metadata.
    fn len(&self, path: &Path) -> io::Result<u64> {
        self.read(path).map(|b| b.len() as u64)
    }
    /// Reads exactly `len` bytes starting at `offset` — the segmented
    /// checkpoint backend's bounded block read. Errors if the file ends
    /// before `offset + len`. The default composes [`open_file`]
    /// (fault-covered in any wrapper) with a seek and a truncated
    /// `read_to_end`.
    ///
    /// [`open_file`]: StorageFs::open_file
    fn read_at(&self, path: &Path, offset: u64, len: u64) -> io::Result<Vec<u8>> {
        let mut f = self.open_file(path)?;
        f.seek_start(offset)?;
        let mut buf = Vec::new();
        f.read_to_end(&mut buf)?;
        if (buf.len() as u64) < len {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("read_at past EOF on {}", path.display()),
            ));
        }
        buf.truncate(len as usize);
        Ok(buf)
    }
}

/// Straight passthrough to `std::fs` — the production filesystem.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealFs;

/// Convenience: a shared handle to the production filesystem.
pub fn real_fs() -> Arc<dyn StorageFs> {
    Arc::new(RealFs)
}

#[derive(Debug)]
struct RealFile(std::fs::File);

impl StorageFile for RealFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        io::Write::write_all(&mut self.0, buf)
    }
    fn read_to_end(&mut self, buf: &mut Vec<u8>) -> io::Result<usize> {
        io::Read::read_to_end(&mut self.0, buf)
    }
    fn sync_data(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }
    fn sync_all(&mut self) -> io::Result<()> {
        self.0.sync_all()
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }
    fn seek_start(&mut self, pos: u64) -> io::Result<()> {
        io::Seek::seek(&mut self.0, io::SeekFrom::Start(pos)).map(|_| ())
    }
}

impl StorageFs for RealFs {
    fn create_file(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let f = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Box::new(RealFile(f)))
    }
    fn open_file(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let f = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)?;
        Ok(Box::new(RealFile(f)))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        std::fs::write(path, bytes)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        match std::fs::symlink_metadata(path) {
            Ok(meta) if meta.is_dir() => std::fs::remove_dir(path),
            _ => std::fs::remove_file(path),
        }
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        std::fs::File::open(dir)?.sync_all()
    }
    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            out.push(entry?.path());
        }
        Ok(out)
    }
    fn len(&self, path: &Path) -> io::Result<u64> {
        std::fs::metadata(path).map(|m| m.len())
    }
    fn read_at(&self, path: &Path, offset: u64, len: u64) -> io::Result<Vec<u8>> {
        use io::{Read, Seek};
        let mut f = std::fs::File::open(path)?;
        f.seek(io::SeekFrom::Start(offset))?;
        let mut buf = Vec::with_capacity(len as usize);
        let read = f.take(len).read_to_end(&mut buf)? as u64;
        if read < len {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("read_at past EOF on {}", path.display()),
            ));
        }
        Ok(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("prkb-storage-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn real_fs_roundtrip_and_rename() {
        let dir = tmp("roundtrip");
        let fs = real_fs();
        fs.create_dir_all(&dir).unwrap();
        let a = dir.join("a.bin");
        let b = dir.join("b.bin");
        let mut f = fs.create_file(&a).unwrap();
        f.write_all(b"hello").unwrap();
        f.sync_all().unwrap();
        drop(f);
        fs.rename(&a, &b).unwrap();
        fs.sync_dir(&dir).unwrap();
        assert!(!fs.exists(&a));
        assert_eq!(fs.read(&b).unwrap(), b"hello");
        let names = fs.read_dir(&dir).unwrap();
        assert_eq!(names.len(), 1);
        fs.remove_file(&b).unwrap();
        assert!(fs.open_file(&b).is_err(), "open_file must not create");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn real_file_seek_and_truncate() {
        let dir = tmp("seek");
        let fs = real_fs();
        fs.create_dir_all(&dir).unwrap();
        let p = dir.join("f.bin");
        let mut f = fs.create_file(&p).unwrap();
        f.write_all(b"0123456789").unwrap();
        f.set_len(4).unwrap();
        f.seek_start(0).unwrap();
        let mut buf = Vec::new();
        f.read_to_end(&mut buf).unwrap();
        assert_eq!(buf, b"0123");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
