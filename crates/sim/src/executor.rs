//! Campaign execution backends and the shard-file path.
//!
//! [`run_campaign`](crate::scenario::run_campaign) plans a flat list of
//! [`RunSpec`]s; an [`Executor`] decides *where* those specs run and
//! returns the results in plan order, so every scenario's `assemble()`
//! sees exactly what a sequential run would have produced. The in-tree
//! backend is [`InProcess`], a shared-work-queue thread pool.
//!
//! Two more ways to run a campaign live outside this trait:
//!
//! * **Shards.** `experiments --shard I/N` runs [`run_shard`] on the
//!   plan indices `i % N == I` and writes a JSON-lines shard file (one
//!   [`ShardRecord`] per run, stamped with its spec fingerprint); `merge`
//!   reads the files of all `N` shards ([`read_record_file`]) and folds
//!   them back through [`assemble_shard_results`]. Every record passes
//!   one check (its index, spec fingerprint and workload), so *plan
//!   drift* between processes is an error instead of a silently
//!   scrambled report.
//! * **The coordinator.** [`crate::service::serve_service`] leases plan
//!   indices over TCP to `experiments work` processes on any host.
//!
//! Merged output is byte-identical across all of them, whatever the
//! shard count or worker pool.
//!
//! Wherever specs are simulated — the in-process pool, a shard worker,
//! a distributed worker's lease — they go through one batch primitive,
//! [`run_batch`]. It simulates each distinct spec once (the identity is
//! the spec's `Debug` text, which the result cache also matches on, with
//! a trace replay's seed left out) and copies the result to every plan
//! index that repeats it, simulates the specs that differ only in
//! `insts` as one trajectory, and generates each synthetic instruction
//! stream once for all the runs that read it. Each result is identical
//! to [`RunSpec::run`] on its own, so none of this shows in results,
//! records, fingerprints, lease or journal indices, or reports. With a
//! result cache, each distinct spec (seed included) is also looked up
//! and stored once.

use crate::metrics_codec::{CampaignHeader, RecordFile, ShardRecord, TailPolicy};
use crate::run::{distinct_by, run_batch, RunResult, RunSpec};
use std::fmt;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Why a campaign execution failed.
#[derive(Debug)]
pub enum ExecutorError {
    /// A filesystem or socket failure.
    Io {
        /// What was being done.
        context: String,
        /// The underlying error.
        source: io::Error,
    },
    /// A shard file could not be decoded.
    Corrupt {
        /// The offending file.
        file: PathBuf,
        /// What was malformed.
        detail: String,
    },
    /// A record's spec fingerprint disagrees with the coordinator's
    /// plan: coordinator and worker derived different campaigns.
    PlanDrift {
        /// Campaign index of the offending record.
        index: usize,
        /// Expected vs observed fingerprints.
        detail: String,
    },
    /// The shard files do not cover the plan exactly once.
    Coverage {
        /// Which indices are missing or duplicated.
        detail: String,
    },
    /// The coordinator could not complete the campaign (it could not
    /// be planned, or every self-spawned worker was lost).
    Transport {
        /// What went wrong.
        detail: String,
    },
}

impl fmt::Display for ExecutorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecutorError::Io { context, source } => write!(f, "{context}: {source}"),
            ExecutorError::Corrupt { file, detail } => {
                write!(f, "corrupt shard file {}: {detail}", file.display())
            }
            ExecutorError::PlanDrift { index, detail } => {
                write!(f, "plan drift at campaign index {index}: {detail}")
            }
            ExecutorError::Coverage { detail } => write!(f, "incomplete shard coverage: {detail}"),
            ExecutorError::Transport { detail } => {
                write!(f, "distributed campaign failed: {detail}")
            }
        }
    }
}

impl std::error::Error for ExecutorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecutorError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl ExecutorError {
    pub(crate) fn io(context: impl Into<String>, source: io::Error) -> Self {
        ExecutorError::Io { context: context.into(), source }
    }
}

/// A campaign execution backend: runs every spec and returns the results
/// in spec order.
pub trait Executor {
    /// Human-readable backend name for diagnostics.
    fn name(&self) -> String;

    /// Executes all specs, returning one result per spec in input order.
    ///
    /// # Errors
    ///
    /// Returns [`ExecutorError`] when the backend cannot produce a
    /// complete, verified result set.
    fn execute(&self, specs: &[&RunSpec]) -> Result<Vec<RunResult>, ExecutorError>;
}

/// The in-process thread-pool backend: [`run_batch`] on `jobs` worker
/// threads (0 = one per available core). Infallible — the default for
/// everything that fits in one process.
///
/// With [`with_cache`](Self::with_cache), each distinct spec is looked
/// up in the result cache first and only the misses are simulated (in
/// parallel, as usual); each fresh result is stored back once. A cache
/// hit returns the exact metrics the original simulation produced, so
/// reports stay byte-identical either way.
#[derive(Debug, Clone)]
pub struct InProcess {
    /// Worker threads (0 = one per available core).
    pub jobs: usize,
    cache: Option<crate::cache::Cache>,
}

impl InProcess {
    /// Builds the backend with the given worker-thread count.
    pub fn new(jobs: usize) -> Self {
        InProcess { jobs, cache: None }
    }

    /// Consults (and populates) a result cache around every simulation
    /// (builder-style).
    #[must_use]
    pub fn with_cache(mut self, cache: crate::cache::Cache) -> Self {
        self.cache = Some(cache);
        self
    }
}

impl Executor for InProcess {
    fn name(&self) -> String {
        "in-process".into()
    }

    fn execute(&self, specs: &[&RunSpec]) -> Result<Vec<RunResult>, ExecutorError> {
        Ok(match &self.cache {
            Some(cache) => run_batch_cached(specs, self.jobs, cache, "in-process"),
            None => run_batch(specs, self.jobs),
        })
    }
}

/// [`run_batch`] behind a result cache: each distinct spec (by the full
/// `Debug` text the cache matches on) is looked up once, only the
/// distinct misses are simulated, and each fresh result is stored once.
/// Records one cache session named `mode`, whose lookups and hits count
/// plan indices.
fn run_batch_cached(
    specs: &[&RunSpec],
    jobs: usize,
    cache: &crate::cache::Cache,
    mode: &str,
) -> Vec<RunResult> {
    let (firsts, slots) = distinct_by(specs, |spec| format!("{spec:?}"));
    let mut found: Vec<Option<RunResult>> =
        firsts.iter().map(|&i| cache.lookup(specs[i])).collect();
    let hits = slots.iter().filter(|&&k| found[k].is_some()).count();
    let misses: Vec<usize> = (0..firsts.len()).filter(|&k| found[k].is_none()).collect();
    let miss_specs: Vec<&RunSpec> = misses.iter().map(|&k| specs[firsts[k]]).collect();
    let mut stores = 0u64;
    for (&k, result) in misses.iter().zip(run_batch(&miss_specs, jobs)) {
        let spec = specs[firsts[k]];
        match cache.store(spec, &result) {
            Ok(()) => stores += 1,
            Err(e) => eprintln!(
                "[cache: warning: cannot store the result of spec {:016x}: {e}]",
                spec.fingerprint()
            ),
        }
        found[k] = Some(result);
    }
    let session = crate::cache::CacheSession::now(mode, specs.len() as u64, hits as u64, stores);
    if let Err(e) = cache.record_session(&session) {
        eprintln!("[cache: warning: cannot record the session: {e}]");
    }
    if hits > 0 {
        eprintln!(
            "[cache: {hits} of {} run(s) served from {}]",
            specs.len(),
            cache.dir().display()
        );
    }
    slots.iter().map(|&k| found[k].clone().expect("misses were filled above")).collect()
}

/// Runs the worker half of a sharded campaign: executes the plan indices
/// `i % header.of == header.shard` on `jobs` threads (0 = one per
/// available core) and writes the header plus one record per completed
/// spec, in ascending index order, to `out`.
///
/// With a result cache, each distinct spec among this shard's indices is
/// looked up first, only the misses are simulated, and each fresh result
/// is stored back once — the emitted shard file is byte-identical either
/// way. Records one cache session (`shard I/N`) per invocation.
///
/// # Errors
///
/// Propagates write failures.
///
/// # Panics
///
/// Panics if `header.runs` does not match `specs.len()` (the caller
/// built the header from the same plan).
pub fn run_shard<W: Write>(
    header: &CampaignHeader,
    specs: &[&RunSpec],
    jobs: usize,
    cache: Option<&crate::cache::Cache>,
    out: &mut W,
) -> io::Result<()> {
    assert_eq!(header.runs, specs.len(), "header must describe this plan");
    let mine: Vec<usize> = (0..specs.len()).filter(|i| i % header.of == header.shard).collect();
    let my_specs: Vec<&RunSpec> = mine.iter().map(|&i| specs[i]).collect();
    let results = match cache {
        Some(cache) => {
            let mode = format!("shard {}/{}", header.shard, header.of);
            run_batch_cached(&my_specs, jobs, cache, &mode)
        }
        None => run_batch(&my_specs, jobs),
    };
    writeln!(out, "{}", header.to_line())?;
    for (&index, result) in mine.iter().zip(&results) {
        let record = ShardRecord::from_result(index, specs[index].fingerprint(), result);
        writeln!(out, "{}", record.to_line())?;
    }
    Ok(())
}

/// Reads a header+records file: a shard file ([`TailPolicy::Reject`]:
/// workers write them complete or not at all) or a coordinator journal
/// ([`TailPolicy::DropTorn`]: a crash mid-write may tear its last line).
///
/// # Errors
///
/// Returns [`ExecutorError::Io`] on filesystem errors and
/// [`ExecutorError::Corrupt`] on malformed content.
pub fn read_record_file(path: &Path, tail: TailPolicy) -> Result<RecordFile, ExecutorError> {
    let bytes = std::fs::read(path)
        .map_err(|e| ExecutorError::io(format!("cannot open {}", path.display()), e))?;
    RecordFile::parse(&bytes, tail)
        .map_err(|e| ExecutorError::Corrupt { file: path.to_path_buf(), detail: e.to_string() })
}

/// Checks one record against the spec its index names in a `runs`-spec
/// plan (`None` when the index is out of range) — the spec fingerprint
/// matches, and the recorded workload is the spec's — and returns its
/// plan index and result. Every record a campaign accepts passes here:
/// merged shard files, live worker frames, journal replay and cache
/// pre-fill.
///
/// # Errors
///
/// Returns [`ExecutorError::Coverage`] for an out-of-range index and
/// [`ExecutorError::PlanDrift`] for a fingerprint or workload mismatch.
pub(crate) fn check_record(
    spec: Option<&RunSpec>,
    runs: usize,
    record: ShardRecord,
) -> Result<(usize, RunResult), ExecutorError> {
    let index = record.index;
    let Some(spec) = spec else {
        return Err(ExecutorError::Coverage {
            detail: format!("record index {index} exceeds the {runs}-spec plan"),
        });
    };
    let expected = spec.fingerprint();
    if record.fingerprint != expected {
        return Err(ExecutorError::PlanDrift {
            index,
            detail: format!(
                "expected spec fingerprint {expected:016x}, record carries {:016x} \
                 (coordinator and worker planned different campaigns)",
                record.fingerprint
            ),
        });
    }
    let result = record
        .into_run_result(spec)
        .map_err(|e| ExecutorError::PlanDrift { index, detail: e.to_string() })?;
    Ok((index, result))
}

/// Folds shard records into a complete result vector in plan order,
/// checking every record and that every plan index is covered exactly
/// once.
///
/// # Errors
///
/// Returns [`ExecutorError::PlanDrift`] on a fingerprint or workload
/// mismatch, and [`ExecutorError::Coverage`] on out-of-range, missing
/// or duplicate indices. A coverage failure names *every* missing and
/// duplicated index (range-compressed), not just the first — which
/// shard to re-run is then obvious from the index arithmetic.
pub fn assemble_shard_results(
    specs: &[&RunSpec],
    records: Vec<ShardRecord>,
) -> Result<Vec<RunResult>, ExecutorError> {
    let mut slots: Vec<Option<RunResult>> = (0..specs.len()).map(|_| None).collect();
    let mut duplicated: Vec<usize> = Vec::new();
    for record in records {
        let (index, result) = check_record(specs.get(record.index).copied(), specs.len(), record)?;
        if slots[index].is_some() {
            duplicated.push(index);
            continue;
        }
        slots[index] = Some(result);
    }
    let missing: Vec<usize> =
        slots.iter().enumerate().filter(|(_, s)| s.is_none()).map(|(i, _)| i).collect();
    if !missing.is_empty() || !duplicated.is_empty() {
        duplicated.sort_unstable();
        duplicated.dedup();
        let mut parts = Vec::new();
        if !missing.is_empty() {
            parts.push(format!(
                "missing {} of {} campaign index(es): {}",
                missing.len(),
                specs.len(),
                format_index_ranges(&missing)
            ));
        }
        if !duplicated.is_empty() {
            parts.push(format!(
                "duplicated campaign index(es): {}",
                format_index_ranges(&duplicated)
            ));
        }
        return Err(ExecutorError::Coverage { detail: parts.join("; ") });
    }
    Ok(slots.into_iter().map(|slot| slot.expect("gaps were reported above")).collect())
}

/// Renders sorted indices as compact ranges: `[0-3, 7, 9-12]`. Long
/// lists are truncated after 16 ranges with an elision count.
fn format_index_ranges(sorted: &[usize]) -> String {
    const MAX_RANGES: usize = 16;
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    for &i in sorted {
        match ranges.last_mut() {
            Some((_, end)) if *end + 1 == i => *end = i,
            _ => ranges.push((i, i)),
        }
    }
    let shown = ranges.len().min(MAX_RANGES);
    let mut parts: Vec<String> = ranges[..shown]
        .iter()
        .map(|&(a, b)| if a == b { a.to_string() } else { format!("{a}-{b}") })
        .collect();
    if ranges.len() > MAX_RANGES {
        parts.push(format!("… ({} more range(s))", ranges.len() - MAX_RANGES));
    }
    format!("[{}]", parts.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ExperimentOpts;
    use crate::run::run_suite_jobs;
    use crate::scenario::CampaignRequest;
    use rfcache_core::{RegFileConfig, SingleBankConfig};

    fn specs() -> Vec<RunSpec> {
        ["li", "go", "swim"]
            .iter()
            .map(|b| {
                RunSpec::known(b, RegFileConfig::Single(SingleBankConfig::one_cycle()))
                    .insts(1_500)
                    .warmup(300)
            })
            .collect()
    }

    #[test]
    fn in_process_executor_matches_run_suite() {
        let specs = specs();
        let refs: Vec<&RunSpec> = specs.iter().collect();
        let via_executor = InProcess::new(2).execute(&refs).unwrap();
        let direct = run_suite_jobs(&specs, 1);
        assert_eq!(via_executor.len(), direct.len());
        for (a, b) in via_executor.iter().zip(&direct) {
            assert_eq!(a.bench, b.bench);
            assert_eq!(a.metrics, b.metrics);
        }
    }

    #[test]
    fn shard_round_trip_covers_the_plan() {
        let specs = specs();
        let refs: Vec<&RunSpec> = specs.iter().collect();
        let opts = ExperimentOpts::smoke();
        let mut records = Vec::new();
        for shard in 0..2 {
            let campaign = CampaignRequest::new(vec!["x".into()], opts);
            let header = CampaignHeader { campaign, shard, of: 2, runs: refs.len() };
            let mut buf = Vec::new();
            run_shard(&header, &refs, 1, None, &mut buf).unwrap();
            let text = String::from_utf8(buf).unwrap();
            let parsed_header = CampaignHeader::parse(text.lines().next().unwrap()).unwrap();
            assert_eq!(parsed_header.shard, shard);
            for line in text.lines().skip(1) {
                records.push(ShardRecord::parse(line).unwrap());
            }
        }
        let merged = assemble_shard_results(&refs, records).unwrap();
        let direct = run_suite_jobs(&specs, 1);
        for (a, b) in merged.iter().zip(&direct) {
            assert_eq!(a.bench, b.bench);
            assert_eq!(a.metrics, b.metrics);
        }
    }

    #[test]
    fn assemble_rejects_drift_duplicates_and_gaps() {
        let specs = specs();
        let refs: Vec<&RunSpec> = specs.iter().collect();
        let results = run_suite_jobs(&specs, 1);
        let record = |i: usize| ShardRecord::from_result(i, refs[i].fingerprint(), &results[i]);

        // Fingerprint mismatch.
        let mut drifted = record(0);
        drifted.fingerprint ^= 1;
        let err = assemble_shard_results(&refs, vec![drifted, record(1), record(2)]).unwrap_err();
        assert!(matches!(err, ExecutorError::PlanDrift { index: 0, .. }), "{err}");

        // Duplicate index: named, not just counted.
        let err = assemble_shard_results(&refs, vec![record(0), record(0), record(1), record(2)])
            .unwrap_err();
        assert!(matches!(err, ExecutorError::Coverage { .. }), "{err}");
        assert!(err.to_string().contains("duplicated campaign index(es): [0]"), "{err}");

        // Missing index: named, with the plan size for context.
        let err = assemble_shard_results(&refs, vec![record(0), record(2)]).unwrap_err();
        assert!(err.to_string().contains("missing 1 of 3 campaign index(es): [1]"), "{err}");

        // Both at once: one error reports the full coverage picture.
        let err = assemble_shard_results(&refs, vec![record(0), record(0)]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("missing 2 of 3 campaign index(es): [1-2]"), "{msg}");
        assert!(msg.contains("duplicated campaign index(es): [0]"), "{msg}");

        // Out of range.
        let mut wild = record(2);
        wild.index = 9;
        let err = assemble_shard_results(&refs, vec![record(0), record(1), wild]).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");

        // And the happy path still assembles in order.
        let ok = assemble_shard_results(&refs, vec![record(2), record(0), record(1)]).unwrap();
        assert_eq!(ok[0].bench, "li");
        assert_eq!(ok[2].bench, "swim");
    }

    #[test]
    fn index_ranges_compress_and_truncate() {
        assert_eq!(format_index_ranges(&[1]), "[1]");
        assert_eq!(format_index_ranges(&[0, 1, 2, 3, 7, 9, 10, 11, 12]), "[0-3, 7, 9-12]");
        // 20 isolated indices → 16 ranges shown, 4 elided.
        let sparse: Vec<usize> = (0..20).map(|i| i * 2).collect();
        let rendered = format_index_ranges(&sparse);
        assert!(rendered.contains("30"), "{rendered}");
        assert!(!rendered.contains("38"), "{rendered}");
        assert!(rendered.contains("(4 more range(s))"), "{rendered}");
    }

    #[test]
    fn read_record_file_reports_corruption_with_the_path() {
        let dir = std::env::temp_dir().join(format!("rfcache_shardfile_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.jsonl");
        std::fs::write(&path, "not a header\n").unwrap();
        for tail in [TailPolicy::Reject, TailPolicy::DropTorn] {
            let err = read_record_file(&path, tail).unwrap_err();
            assert!(matches!(err, ExecutorError::Corrupt { .. }));
            assert!(err.to_string().contains("bad.jsonl"), "{err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
