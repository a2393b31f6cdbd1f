//! Persistent, content-addressed cache of completed simulation results.
//!
//! Every campaign ultimately reduces to a flat list of [`RunSpec`]s, and
//! identical specs recur constantly — sweeps share axis points, the
//! quick/smoke scenario variants overlap, and a re-run campaign repeats
//! every spec verbatim. The cache turns each repeat into an O(1) lookup:
//! executors consult [`Cache::lookup`] before simulating and
//! [`Cache::store`] afterwards, and because a hit returns the exact
//! [`SimMetrics`](rfcache_pipeline::SimMetrics) the original simulation
//! produced (the codec round-trips every `u64` counter exactly),
//! campaign reports stay **byte-identical** whether a run was simulated
//! or served from cache.
//!
//! # Addressing and collision safety
//!
//! An entry is keyed by the spec's FNV [`RunSpec::fingerprint`], which
//! names the shard file it lives in
//! (`<dir>/objects/<hh>/<fingerprint>.jsonl`, where `hh` is the key's
//! top byte). The fingerprint alone is *not* trusted to identify a spec:
//! each entry also stores the complete literal spec rendering the
//! fingerprint was computed over, and [`Cache::lookup`] requires an
//! exact match on that full text — a fingerprint collision therefore
//! lands two entries in one shard file (it is a JSON-lines file exactly
//! so it can hold them) and can never serve the wrong metrics.
//!
//! # Corruption safety
//!
//! Every entry line wraps its payload in a checksum:
//! `{"check": "<fnv64>", "body": {...}}`, where the checksum is FNV-1a
//! over the exact body text. A reader verifies the checksum before
//! parsing the body, so *any* flipped or truncated byte — even one that
//! would still parse as valid JSON — makes the entry invisible rather
//! than wrong, and the executor falls back to simulating. [`Cache::store`]
//! rewrites shard files atomically (tmp file + `sync_data` + rename) and
//! drops unreadable lines as it goes, so a corrupted file heals on the
//! next store.
//!
//! # Concurrency
//!
//! Mutations (stores, session lines, clears) serialize on an advisory
//! `flock(2)` over `<dir>/lock`, so shard workers and distributed
//! coordinators can share one cache directory. Readers don't take the
//! lock: atomic renames mean they only ever see a complete former
//! version of a shard file.
//!
//! # Sessions
//!
//! Each cache-enabled campaign appends one summary line to
//! `<dir>/sessions.jsonl` (mode, lookups, hits, stores), so
//! `experiments cache stats` can report lifetime hit rates and CI can
//! assert a warm run was 100% hits without instrumenting the campaign
//! process itself.

use crate::json::{escape, parse_json, JsonValue};
use crate::metrics_codec::{decode_metrics, encode_metrics};
use crate::run::{fnv1a_64, RunResult, RunSpec};
use std::fmt;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// Schema identifier stamped into every cache entry body.
pub const ENTRY_SCHEMA: &str = "rfcache-result/v1";
/// Schema identifier stamped into every session summary line.
pub const SESSION_SCHEMA: &str = "rfcache-session/v1";

const CHECK_PREFIX: &str = "{\"check\": \"";
const BODY_INFIX: &str = "\", \"body\": ";

/// A persistent, content-addressed store of completed runs, shared
/// safely between concurrent processes. See the module docs for the
/// layout and guarantees.
#[derive(Debug, Clone)]
pub struct Cache {
    dir: PathBuf,
    shard_key: fn(&RunSpec) -> u64,
}

/// One problem [`Cache::verify`] found, locating the offending entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheProblem {
    /// The shard file holding the bad entry.
    pub file: PathBuf,
    /// 1-based line number within the file.
    pub line: usize,
    /// What is wrong with it.
    pub detail: String,
}

impl fmt::Display for CacheProblem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: line {}: {}", self.file.display(), self.line, self.detail)
    }
}

/// One campaign's cache usage, as appended to `sessions.jsonl`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheSession {
    /// Which execution layer ran the campaign: `in-process`,
    /// `shard I/N`, or `service` for every coordinator session.
    pub mode: String,
    /// Specs the campaign asked the cache about.
    pub lookups: u64,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Fresh results written back.
    pub stores: u64,
    /// Seconds since the Unix epoch when the session was recorded.
    pub unix_time: u64,
}

impl CacheSession {
    /// Builds a session summary stamped with the current time.
    pub fn now(mode: impl Into<String>, lookups: u64, hits: u64, stores: u64) -> Self {
        let unix_time = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        CacheSession { mode: mode.into(), lookups, hits, stores, unix_time }
    }

    fn to_line(&self) -> String {
        format!(
            "{{\"schema\": \"{SESSION_SCHEMA}\", \"mode\": \"{}\", \"lookups\": {}, \
             \"hits\": {}, \"stores\": {}, \"unix_time\": {}}}",
            escape(&self.mode),
            self.lookups,
            self.hits,
            self.stores,
            self.unix_time
        )
    }

    fn parse(line: &str) -> Option<Self> {
        let v = parse_json(line).ok()?;
        if v.get("schema")?.as_str()? != SESSION_SCHEMA {
            return None;
        }
        Some(CacheSession {
            mode: v.get("mode")?.as_str()?.to_string(),
            lookups: v.get("lookups")?.as_u64()?,
            hits: v.get("hits")?.as_u64()?,
            stores: v.get("stores")?.as_u64()?,
            unix_time: v.get("unix_time")?.as_u64()?,
        })
    }
}

/// What [`Cache::stats`] measured: the object store plus the lifetime
/// session totals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Readable entries across every shard file.
    pub entries: usize,
    /// Shard files on disk.
    pub files: usize,
    /// Shard files holding more than one entry (fingerprint collisions,
    /// or a forced shard key).
    pub collision_files: usize,
    /// Total bytes of the shard files.
    pub bytes: u64,
    /// Session summary lines recorded.
    pub sessions: usize,
    /// Lifetime lookups across all sessions.
    pub lookups: u64,
    /// Lifetime hits across all sessions.
    pub hits: u64,
    /// Lifetime stores across all sessions.
    pub stores: u64,
    /// The most recent session, if any.
    pub last_session: Option<CacheSession>,
}

impl CacheStats {
    /// Renders the stats of the cache at `dir` as one
    /// `rfcache-cache-stats/v1` JSON object, without a trailing newline
    /// (the line `experiments cache stats --json` prints).
    pub fn to_json(&self, dir: &Path) -> String {
        let session = match &self.last_session {
            Some(s) => format!(
                "{{\"mode\": \"{}\", \"lookups\": {}, \"hits\": {}, \"stores\": {}, \
                 \"unix_time\": {}}}",
                escape(&s.mode),
                s.lookups,
                s.hits,
                s.stores,
                s.unix_time
            ),
            None => "null".to_string(),
        };
        format!(
            "{{\"schema\": \"rfcache-cache-stats/v1\", \"dir\": \"{}\", \"entries\": {}, \
             \"files\": {}, \"collision_files\": {}, \"bytes\": {}, \"sessions\": {}, \
             \"lookups\": {}, \"hits\": {}, \"stores\": {}, \"last_session\": {session}}}",
            escape(&dir.display().to_string()),
            self.entries,
            self.files,
            self.collision_files,
            self.bytes,
            self.sessions,
            self.lookups,
            self.hits,
            self.stores,
        )
    }
}

/// One decoded cache entry: the stored spec identity plus the result.
struct Entry {
    fingerprint: u64,
    spec: String,
    result: RunResult,
}

/// Renders one entry line: checksum-wrapped body, no trailing newline.
fn render_entry(spec_text: &str, fingerprint: u64, result: &RunResult) -> String {
    let body = format!(
        "{{\"schema\": \"{ENTRY_SCHEMA}\", \"fingerprint\": \"{fingerprint:016x}\", \
         \"spec\": \"{}\", \"bench\": \"{}\", \"fp\": {}, \"metrics\": {}}}",
        escape(spec_text),
        escape(&result.bench),
        result.fp,
        encode_metrics(&result.metrics),
    );
    format!("{CHECK_PREFIX}{:016x}{BODY_INFIX}{body}}}", fnv1a_64(body.bytes()))
}

/// Decodes one entry line, verifying the checksum before trusting a
/// single byte of the body, and the body's internal consistency
/// (schema, and that the stored fingerprint really is the FNV of the
/// stored spec text) after.
fn parse_entry(line: &str) -> Result<Entry, String> {
    let rest = line.strip_prefix(CHECK_PREFIX).ok_or("malformed entry frame")?;
    let check_hex = rest.get(..16).ok_or("malformed checksum")?;
    let check =
        u64::from_str_radix(check_hex, 16).map_err(|_| "checksum is not a hex u64".to_string())?;
    let body = rest
        .get(16..)
        .and_then(|r| r.strip_prefix(BODY_INFIX))
        .and_then(|r| r.strip_suffix('}'))
        .ok_or("malformed entry frame")?;
    if fnv1a_64(body.bytes()) != check {
        return Err(format!("checksum mismatch (expected {check:016x})"));
    }
    let v = parse_json(body).map_err(|e| e.to_string())?;
    let text = |key: &str| {
        v.get(key)
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("missing or non-string field `{key}`"))
    };
    if text("schema")? != ENTRY_SCHEMA {
        return Err(format!("unknown entry schema `{}`", text("schema")?));
    }
    let fingerprint = u64::from_str_radix(text("fingerprint")?, 16)
        .map_err(|_| "field `fingerprint` is not a hex u64".to_string())?;
    let spec = text("spec")?.to_string();
    if fnv1a_64(spec.bytes()) != fingerprint {
        return Err(format!(
            "stored fingerprint {fingerprint:016x} is not the FNV of the stored spec"
        ));
    }
    let fp = v
        .get("fp")
        .and_then(JsonValue::as_bool)
        .ok_or_else(|| "missing or non-bool field `fp`".to_string())?;
    let metrics =
        decode_metrics(v.get("metrics").ok_or_else(|| "missing field `metrics`".to_string())?)
            .map_err(|e| e.to_string())?;
    let result = RunResult { bench: text("bench")?.to_string(), fp, metrics };
    Ok(Entry { fingerprint, spec, result })
}

/// Complete (newline-terminated) lines of a file, in order. A torn or
/// unterminated tail — a crash mid-write, a truncation — is simply not
/// yielded, so it can never be mis-parsed as an entry.
fn complete_lines(text: &str) -> impl Iterator<Item = &str> {
    text.split_inclusive('\n')
        .filter(|l| l.ends_with('\n'))
        .map(|l| l.trim_end_matches(['\n', '\r']))
}

#[cfg(unix)]
mod sys {
    pub const LOCK_EX: core::ffi::c_int = 2;

    extern "C" {
        pub fn flock(fd: core::ffi::c_int, operation: core::ffi::c_int) -> core::ffi::c_int;
    }
}

/// Holds an exclusive advisory lock on the cache's `lock` file for its
/// lifetime (closing the descriptor releases `flock(2)` locks).
struct DirLock {
    _file: std::fs::File,
}

impl DirLock {
    fn acquire(dir: &Path) -> io::Result<DirLock> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(dir.join("lock"))?;
        lock_exclusive(&file)?;
        Ok(DirLock { _file: file })
    }
}

#[cfg(unix)]
fn lock_exclusive(file: &std::fs::File) -> io::Result<()> {
    use std::os::unix::io::AsRawFd;
    loop {
        if unsafe { sys::flock(file.as_raw_fd(), sys::LOCK_EX) } == 0 {
            return Ok(());
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Off Unix there is no `flock(2)`; mutations fall back to unlocked
/// atomic renames (last writer wins, readers still never see a torn
/// file).
#[cfg(not(unix))]
fn lock_exclusive(_file: &std::fs::File) -> io::Result<()> {
    Ok(())
}

impl Cache {
    /// Opens (creating on demand) a cache rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Cache> {
        Self::with_shard_key(dir, RunSpec::fingerprint)
    }

    /// [`open`](Self::open) with a custom shard-key function. This is a
    /// test hook: forcing every spec onto one shard key exercises the
    /// collision path (multiple entries in one shard file, disambiguated
    /// by the stored full-spec text) deterministically.
    #[doc(hidden)]
    pub fn with_shard_key(
        dir: impl Into<PathBuf>,
        shard_key: fn(&RunSpec) -> u64,
    ) -> io::Result<Cache> {
        let dir = dir.into();
        std::fs::create_dir_all(dir.join("objects"))?;
        Ok(Cache { dir, shard_key })
    }

    /// The cache's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The shard file entries for `key` live in.
    fn object_path(&self, key: u64) -> PathBuf {
        self.dir
            .join("objects")
            .join(format!("{:02x}", key >> 56))
            .join(format!("{key:016x}.jsonl"))
    }

    /// Looks up the result of an already-simulated spec.
    ///
    /// Never errors: a missing file, a torn tail, a failed checksum, an
    /// unparseable body, or an entry whose stored spec text doesn't
    /// match this spec exactly are all just misses — the caller
    /// simulates, and the subsequent [`store`](Self::store) self-heals
    /// whatever was unreadable.
    pub fn lookup(&self, spec: &RunSpec) -> Option<RunResult> {
        let path = self.object_path((self.shard_key)(spec));
        let data = std::fs::read_to_string(&path).ok()?;
        let spec_text = format!("{spec:?}");
        let fingerprint = spec.fingerprint();
        for line in complete_lines(&data) {
            let Ok(entry) = parse_entry(line) else { continue };
            if entry.fingerprint == fingerprint && entry.spec == spec_text {
                return entry.result.check_workload(spec).is_ok().then_some(entry.result);
            }
        }
        None
    }

    /// Stores a completed run, replacing any previous entry for the same
    /// spec and silently dropping unreadable lines (self-healing).
    ///
    /// The shard file is rewritten atomically (tmp + `sync_data` +
    /// rename) under the cache's advisory lock, so concurrent writers
    /// sharing the directory serialize instead of clobbering each other.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures. Executors treat a failed store as
    /// a warning — the cache is an optimization, not a correctness
    /// dependency.
    pub fn store(&self, spec: &RunSpec, result: &RunResult) -> io::Result<()> {
        let spec_text = format!("{spec:?}");
        let path = self.object_path((self.shard_key)(spec));
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let _lock = DirLock::acquire(&self.dir)?;
        let mut lines: Vec<String> = Vec::new();
        if let Ok(existing) = std::fs::read_to_string(&path) {
            for line in complete_lines(&existing) {
                if let Ok(entry) = parse_entry(line) {
                    if entry.spec != spec_text {
                        lines.push(line.to_string());
                    }
                }
            }
        }
        lines.push(render_entry(&spec_text, spec.fingerprint(), result));
        let mut blob = lines.join("\n");
        blob.push('\n');
        let tmp = path.with_extension(format!("tmp{}", std::process::id()));
        {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(blob.as_bytes())?;
            file.sync_data()?;
        }
        std::fs::rename(&tmp, &path)?;
        crate::transport::sync_parent_dir(&path)
    }

    /// Appends one campaign's usage summary to `sessions.jsonl` (under
    /// the advisory lock, so concurrent shard workers interleave whole
    /// lines).
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn record_session(&self, session: &CacheSession) -> io::Result<()> {
        let _lock = DirLock::acquire(&self.dir)?;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.dir.join("sessions.jsonl"))?;
        let mut line = session.to_line();
        line.push('\n');
        file.write_all(line.as_bytes())?;
        file.sync_data()
    }

    /// Every shard file currently on disk, in sorted order.
    fn object_files(&self) -> io::Result<Vec<PathBuf>> {
        let mut files = Vec::new();
        let objects = self.dir.join("objects");
        let shards = match std::fs::read_dir(&objects) {
            Ok(shards) => shards,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(files),
            Err(e) => return Err(e),
        };
        for shard in shards {
            let shard = shard?;
            if !shard.file_type()?.is_dir() {
                continue;
            }
            for entry in std::fs::read_dir(shard.path())? {
                let path = entry?.path();
                if path.extension().is_some_and(|e| e == "jsonl") {
                    files.push(path);
                }
            }
        }
        files.sort();
        Ok(files)
    }

    /// Measures the object store and folds up the session history.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures (unreadable *entries* are not
    /// errors — they are simply not counted).
    pub fn stats(&self) -> io::Result<CacheStats> {
        let mut stats = CacheStats::default();
        for path in self.object_files()? {
            stats.files += 1;
            stats.bytes += std::fs::metadata(&path)?.len();
            let data = std::fs::read_to_string(&path).unwrap_or_default();
            let readable = complete_lines(&data).filter(|l| parse_entry(l).is_ok()).count();
            stats.entries += readable;
            if readable > 1 {
                stats.collision_files += 1;
            }
        }
        if let Ok(data) = std::fs::read_to_string(self.dir.join("sessions.jsonl")) {
            for line in complete_lines(&data) {
                let Some(session) = CacheSession::parse(line) else { continue };
                stats.sessions += 1;
                stats.lookups += session.lookups;
                stats.hits += session.hits;
                stats.stores += session.stores;
                stats.last_session = Some(session);
            }
        }
        Ok(stats)
    }

    /// Checks every entry end to end — frame, checksum, schema,
    /// fingerprint-vs-spec consistency, metrics decode, and benchmark
    /// resolution — and returns every problem found (empty = healthy).
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn verify(&self) -> io::Result<Vec<CacheProblem>> {
        let mut problems = Vec::new();
        for path in self.object_files()? {
            let data = match std::fs::read_to_string(&path) {
                Ok(data) => data,
                Err(e) => {
                    problems.push(CacheProblem {
                        file: path,
                        line: 0,
                        detail: format!("unreadable: {e}"),
                    });
                    continue;
                }
            };
            if !data.is_empty() && !data.ends_with('\n') {
                problems.push(CacheProblem {
                    file: path.clone(),
                    line: data.lines().count(),
                    detail: "torn final line (no trailing newline)".into(),
                });
            }
            for (n, line) in complete_lines(&data).enumerate() {
                // Workload identity can only be checked against a live
                // spec at lookup time; verify covers everything
                // self-contained (framing, checksum, schema, fingerprint
                // vs. stored spec text, metrics decode).
                let detail = match parse_entry(line) {
                    Ok(_) => continue,
                    Err(e) => e,
                };
                problems.push(CacheProblem { file: path.clone(), line: n + 1, detail });
            }
        }
        Ok(problems)
    }

    /// Deletes every entry and the session history, returning how many
    /// readable entries were removed. The cache directory itself (and
    /// its lock file) survive, so concurrent processes holding the
    /// [`Cache`] keep working — they just start cold.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn clear(&self) -> io::Result<usize> {
        let _lock = DirLock::acquire(&self.dir)?;
        let removed = self.stats()?.entries;
        let objects = self.dir.join("objects");
        if objects.exists() {
            std::fs::remove_dir_all(&objects)?;
        }
        std::fs::create_dir_all(&objects)?;
        match std::fs::remove_file(self.dir.join("sessions.jsonl")) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfcache_core::{RegFileConfig, SingleBankConfig};

    fn temp_cache(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rfcache_cache_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spec(bench: &str) -> RunSpec {
        RunSpec::known(bench, RegFileConfig::Single(SingleBankConfig::one_cycle()))
            .insts(1_500)
            .warmup(300)
    }

    #[test]
    fn store_then_lookup_round_trips_exactly() {
        let dir = temp_cache("roundtrip");
        let cache = Cache::open(&dir).unwrap();
        let s = spec("li");
        assert!(cache.lookup(&s).is_none(), "cold cache must miss");
        let result = s.run();
        cache.store(&s, &result).unwrap();
        let hit = cache.lookup(&s).unwrap();
        assert_eq!(hit.bench, result.bench);
        assert_eq!(hit.fp, result.fp);
        assert_eq!(hit.metrics, result.metrics);
        // A different spec is a miss, not a wrong answer.
        assert!(cache.lookup(&s.clone().insts(1_501)).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_replaces_rather_than_duplicates() {
        let dir = temp_cache("replace");
        let cache = Cache::open(&dir).unwrap();
        let s = spec("li");
        let result = s.run();
        cache.store(&s, &result).unwrap();
        cache.store(&s, &result).unwrap();
        let stats = cache.stats().unwrap();
        assert_eq!((stats.entries, stats.files, stats.collision_files), (1, 1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn any_corrupted_byte_is_a_miss_and_heals_on_store() {
        let dir = temp_cache("corrupt");
        let cache = Cache::open(&dir).unwrap();
        let s = spec("li");
        let result = s.run();
        cache.store(&s, &result).unwrap();
        let path = cache.object_path(s.fingerprint());
        let pristine = std::fs::read(&path).unwrap();
        // Flip every byte position in turn: no single-byte corruption
        // may survive the checksum (newline included: losing it tears
        // the line).
        for at in 0..pristine.len() {
            let mut bytes = pristine.clone();
            bytes[at] = bytes[at].wrapping_add(1);
            std::fs::write(&path, &bytes).unwrap();
            assert!(cache.lookup(&s).is_none(), "corrupt byte {at} served a hit");
        }
        // Storing over the wreckage rewrites a clean file.
        std::fs::write(&path, &pristine[..pristine.len() / 2]).unwrap();
        cache.store(&s, &result).unwrap();
        assert!(cache.lookup(&s).is_some());
        assert!(cache.verify().unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn forced_shard_key_collisions_resolve_by_full_spec() {
        let dir = temp_cache("collide");
        let cache = Cache::with_shard_key(&dir, |_| 0xdead_beef).unwrap();
        let a = spec("li");
        let b = spec("go");
        let (ra, rb) = (a.run(), b.run());
        cache.store(&a, &ra).unwrap();
        cache.store(&b, &rb).unwrap();
        let stats = cache.stats().unwrap();
        assert_eq!((stats.entries, stats.files, stats.collision_files), (2, 1, 1));
        assert_eq!(cache.lookup(&a).unwrap().metrics, ra.metrics);
        assert_eq!(cache.lookup(&b).unwrap().metrics, rb.metrics);
        assert!(cache.verify().unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sessions_accumulate_and_clear_resets() {
        let dir = temp_cache("sessions");
        let cache = Cache::open(&dir).unwrap();
        let s = spec("li");
        cache.store(&s, &s.run()).unwrap();
        cache.record_session(&CacheSession::now("in-process", 3, 1, 2)).unwrap();
        cache.record_session(&CacheSession::now("in-process", 3, 3, 0)).unwrap();
        let stats = cache.stats().unwrap();
        assert_eq!((stats.sessions, stats.lookups, stats.hits, stats.stores), (2, 6, 4, 2));
        assert_eq!(stats.last_session.as_ref().unwrap().hits, 3);
        assert_eq!(cache.clear().unwrap(), 1);
        let stats = cache.stats().unwrap();
        assert_eq!((stats.entries, stats.sessions), (0, 0));
        assert!(cache.lookup(&s).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_json_is_pinned_byte_for_byte() {
        // Scripts and CI parse `experiments cache stats --json`, so its
        // key order and spacing are part of the format.
        let warm = CacheStats {
            entries: 12,
            files: 12,
            collision_files: 0,
            bytes: 31525,
            sessions: 2,
            lookups: 24,
            hits: 12,
            stores: 12,
            last_session: Some(CacheSession {
                mode: "in-process".into(),
                lookups: 12,
                hits: 12,
                stores: 0,
                unix_time: 1792227596,
            }),
        };
        assert_eq!(
            warm.to_json(Path::new("c\"a\\che")),
            r#"{"schema": "rfcache-cache-stats/v1", "dir": "c\"a\\che", "entries": 12, "files": 12, "collision_files": 0, "bytes": 31525, "sessions": 2, "lookups": 24, "hits": 12, "stores": 12, "last_session": {"mode": "in-process", "lookups": 12, "hits": 12, "stores": 0, "unix_time": 1792227596}}"#
        );
        assert_eq!(
            CacheStats::default().to_json(Path::new("e\"mp\\ty")),
            r#"{"schema": "rfcache-cache-stats/v1", "dir": "e\"mp\\ty", "entries": 0, "files": 0, "collision_files": 0, "bytes": 0, "sessions": 0, "lookups": 0, "hits": 0, "stores": 0, "last_session": null}"#
        );
    }

    #[test]
    fn verify_names_the_offending_line() {
        let dir = temp_cache("verify");
        let cache = Cache::open(&dir).unwrap();
        let s = spec("li");
        cache.store(&s, &s.run()).unwrap();
        let path = cache.object_path(s.fingerprint());
        let mut data = std::fs::read_to_string(&path).unwrap();
        data.push_str("not an entry\n");
        std::fs::write(&path, data).unwrap();
        let problems = cache.verify().unwrap();
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert_eq!(problems[0].line, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
