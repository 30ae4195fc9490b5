//! The workspace's one crash-safe file write.
//!
//! Every file the workspace replaces while a reader may be looking —
//! spill partitions, checkpoint manifests, the Prometheus exposition,
//! the flight-recorder dump — goes through [`write_atomic`]: the new
//! contents land in a `.tmp` sibling, which is fsynced and renamed over
//! the target, and the directory is synced so the rename survives a
//! crash too. A reader therefore sees the old file or the whole new one,
//! never a torn one. Callers layer their own policy on top: the spill
//! wrapper in `cfp-data` adds retries, counters and a failpoint writer,
//! and the checkpoint commit adds its retry and failpoint.

use std::fs::{self, File};
use std::io;
use std::path::Path;

/// Replaces `path` crash-safely and returns what `fill` returns: `fill`
/// writes the new contents into `<path>.tmp` in the same directory, the
/// temporary is fsynced and renamed over `path`, and the directory is
/// synced (best effort: a file system that cannot sync a directory still
/// gets the atomic rename). On any failure the temporary is removed, so
/// no `.tmp` outlives a failed write.
pub fn write_atomic<T>(
    path: &Path,
    fill: impl FnOnce(&mut File) -> io::Result<T>,
) -> io::Result<T> {
    let mut tmp_name = path
        .file_name()
        .ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, format!("{} names no file", path.display()))
        })?
        .to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    let result = (|| {
        let mut file = File::create(&tmp)?;
        let value = fill(&mut file)?;
        // fsync *before* rename: the final name must never point at
        // bytes the disk has not accepted.
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, path)?;
        Ok(value)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
        return result;
    }
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cfp-atomic-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn replaces_the_target_and_leaves_no_tmp() {
        let dir = scratch("ok");
        let target = dir.join("out.json");
        fs::write(&target, b"old").unwrap();
        let n = write_atomic(&target, |f| f.write_all(b"new contents").map(|()| 12)).unwrap();
        assert_eq!(n, 12);
        assert_eq!(fs::read(&target).unwrap(), b"new contents");
        assert_eq!(names(&dir), ["out.json"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_fill_keeps_the_old_file_and_removes_the_tmp() {
        let dir = scratch("fail");
        let target = dir.join("out.json");
        fs::write(&target, b"old").unwrap();
        let err = write_atomic(&target, |f| {
            f.write_all(b"partial")?;
            Err::<(), _>(io::Error::new(io::ErrorKind::StorageFull, "disk full"))
        })
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert_eq!(fs::read(&target).unwrap(), b"old", "a failed write must not touch the target");
        assert_eq!(names(&dir), ["out.json"], "a failed write must not leave its .tmp");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_path_without_a_file_name_is_rejected() {
        let err = write_atomic(Path::new("/"), |_| Ok(())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }
}
