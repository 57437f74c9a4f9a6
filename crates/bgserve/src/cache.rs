//! The memoized result cache: an in-memory LRU plus an optional
//! on-disk tier.
//!
//! Entries hold the deterministic result triple `(outcome, final
//! cycle, trace digest)` plus the coverage digest and — for in-memory
//! entries — the cycle-accounting profile, so a cache hit can still
//! stream a telemetry snapshot to its session.
//!
//! The disk tier (enabled with `--cache-dir`) persists one small JSON
//! file per key, written with [`bench::report::write_atomic`]: a crash
//! mid-write leaves a stale temp file, never a truncated entry that a
//! later server would half-parse into a wrong "cached" result. Disk
//! entries omit the profile (it is telemetry, not part of the result
//! contract), so disk hits emit a result line without a snapshot. A
//! failed write (unwritable or full disk, a `--cache-dir` that is a
//! regular file) leaves the entry served from memory and is counted in
//! `disk_write_errors`, which `status` reports.

use std::collections::HashMap;
use std::path::PathBuf;

use bench::json::{self, str_field, u64_field, Writer};
use bench::report::write_atomic;
use bgsim::telemetry::ProfileSnapshot;

/// One memoized job result.
#[derive(Clone, Debug)]
pub struct CachedResult {
    /// Kernel and mode of the run that minted the entry (the mode is
    /// informational — it is *not* part of the key).
    pub kernel: String,
    pub mode: String,
    pub outcome: String,
    pub final_cycle: u64,
    pub digest: u64,
    pub coverage: u64,
    /// Present for entries minted this process; absent for disk loads.
    pub profile: Option<ProfileSnapshot>,
}

impl CachedResult {
    /// The equality triple `--paranoid` re-verifies.
    pub fn triple(&self) -> (String, u64, u64) {
        (self.outcome.clone(), self.final_cycle, self.digest)
    }

    fn to_disk_json(&self, key: u64) -> String {
        let mut w = Writer::default();
        w.obj().key("key").str(&format!("{key:016x}"));
        w.key("kernel").str(&self.kernel);
        w.key("mode").str(&self.mode);
        w.key("outcome").str(&self.outcome);
        w.key("final_cycle").u64_str(self.final_cycle);
        w.key("digest").hex(self.digest);
        w.key("coverage").hex(self.coverage);
        w.end_obj().finish()
    }

    fn from_disk_json(text: &str) -> Result<CachedResult, String> {
        let v = json::parse(text.trim())?;
        Ok(CachedResult {
            kernel: str_field(&v, "kernel")?,
            mode: str_field(&v, "mode")?,
            outcome: str_field(&v, "outcome")?,
            final_cycle: u64_field(&v, "final_cycle")?,
            digest: u64_field(&v, "digest")?,
            coverage: u64_field(&v, "coverage")?,
            profile: None,
        })
    }
}

/// LRU over job-key digests. `get` refreshes recency; `insert` evicts
/// the least-recently-used entry once `cap` is reached.
pub struct ResultCache {
    cap: usize,
    tick: u64,
    map: HashMap<u64, (u64, CachedResult)>,
    dir: Option<PathBuf>,
    disk_write_errors: u64,
}

impl ResultCache {
    /// `cap` is clamped to at least 1; `dir`, when set, enables the
    /// persistent tier (created on first insert).
    pub fn new(cap: usize, dir: Option<PathBuf>) -> ResultCache {
        ResultCache {
            cap: cap.max(1),
            tick: 0,
            map: HashMap::new(),
            dir,
            disk_write_errors: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Inserts whose disk-tier write failed.
    pub(crate) fn disk_write_errors(&self) -> u64 {
        self.disk_write_errors
    }

    fn disk_path(&self, key: u64) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("{key:016x}.json")))
    }

    /// Look `key` up: memory first (refreshing recency), then the disk
    /// tier (promoting the entry into memory on hit).
    pub fn get(&mut self, key: u64) -> Option<CachedResult> {
        self.tick += 1;
        if let Some((t, e)) = self.map.get_mut(&key) {
            *t = self.tick;
            return Some(e.clone());
        }
        let path = self.disk_path(key)?;
        let text = std::fs::read_to_string(path).ok()?;
        let entry = CachedResult::from_disk_json(&text).ok()?;
        self.insert_mem(key, entry.clone());
        Some(entry)
    }

    fn insert_mem(&mut self, key: u64, entry: CachedResult) {
        self.tick += 1;
        if self.map.len() >= self.cap && !self.map.contains_key(&key) {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (t, _))| *t)
                .map(|(k, _)| *k)
            {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(key, (self.tick, entry));
    }

    /// Insert into memory and, when a disk tier is configured, write
    /// the entry file atomically. A failed write degrades the tier, not
    /// the job: the entry is still served from memory, and the failure
    /// is counted in [`ResultCache::disk_write_errors`].
    pub fn insert(&mut self, key: u64, entry: CachedResult) {
        if let (Some(dir), Some(path)) = (&self.dir, self.disk_path(key)) {
            let written = std::fs::create_dir_all(dir)
                .and_then(|()| write_atomic(&path, entry.to_disk_json(key).as_bytes()));
            if written.is_err() {
                self.disk_write_errors += 1;
            }
        }
        self.insert_mem(key, entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(digest: u64) -> CachedResult {
        CachedResult {
            kernel: "cnk".to_string(),
            mode: "fast".to_string(),
            outcome: "completed".to_string(),
            final_cycle: 12_345,
            digest,
            coverage: 0xdead_beef,
            profile: None,
        }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = ResultCache::new(2, None);
        c.insert(1, entry(1));
        c.insert(2, entry(2));
        assert!(c.get(1).is_some()); // refresh 1
        c.insert(3, entry(3)); // evicts 2
        assert!(c.get(2).is_none());
        assert!(c.get(1).is_some());
        assert!(c.get(3).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn disk_tier_round_trips_and_survives_eviction() {
        let dir = std::env::temp_dir().join(format!("bgserve-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut c = ResultCache::new(1, Some(dir.clone()));
        c.insert(7, entry(0xabcd));
        c.insert(8, entry(0xef01)); // evicts 7 from memory, not disk
        let back = c.get(7).expect("disk tier must resurrect evicted entry");
        assert_eq!(back.digest, 0xabcd);
        assert_eq!(back.final_cycle, 12_345);
        assert_eq!(back.outcome, "completed");
        assert!(back.profile.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entries_are_misses_not_panics() {
        let dir = std::env::temp_dir().join(format!("bgserve-corrupt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(format!("{:016x}.json", 9u64)), b"{torn").unwrap();
        let mut c = ResultCache::new(4, Some(dir.clone()));
        assert!(c.get(9).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
