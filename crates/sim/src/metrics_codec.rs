//! JSON-lines codec for shard files: full [`SimMetrics`] round-tripping
//! plus the campaign header and per-run records a `--shard I/N` worker
//! emits.
//!
//! A shard file is one [`CampaignHeader`] line followed by one
//! [`ShardRecord`] line per executed spec. Every counter is encoded as a
//! bare JSON integer and parsed back through the literal-preserving
//! reader in [`crate::parse_json`], so the round trip is exact for the
//! whole `u64` range; `f64` values use Rust's shortest round-trip
//! `Display` form. The merge path (CLI `merge`) decodes these files and
//! verifies each record's spec fingerprint against its own campaign plan
//! before assembling reports.

use crate::experiments::ExperimentOpts;
use crate::json::{escape, parse_json, JsonValue};
use crate::run::{RunResult, RunSpec};
use rfcache_core::RegFileStats;
use rfcache_frontend::FetchStats;
use rfcache_pipeline::{OccupancyHistogram, SimMetrics};
use std::fmt;
use std::fmt::Write as _;

/// A decode failure: which part of the input was malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(String);

impl CodecError {
    fn new(message: impl Into<String>) -> Self {
        CodecError(message.into())
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl std::error::Error for CodecError {}

fn field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, CodecError> {
    v.get(key).ok_or_else(|| CodecError::new(format!("missing field `{key}`")))
}

fn u64_field(v: &JsonValue, key: &str) -> Result<u64, CodecError> {
    field(v, key)?.as_u64().ok_or_else(|| CodecError::new(format!("field `{key}` is not a u64")))
}

fn usize_field(v: &JsonValue, key: &str) -> Result<usize, CodecError> {
    usize::try_from(u64_field(v, key)?)
        .map_err(|_| CodecError::new(format!("field `{key}` exceeds usize")))
}

fn bool_field(v: &JsonValue, key: &str) -> Result<bool, CodecError> {
    field(v, key)?.as_bool().ok_or_else(|| CodecError::new(format!("field `{key}` is not a bool")))
}

fn str_field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str, CodecError> {
    field(v, key)?.as_str().ok_or_else(|| CodecError::new(format!("field `{key}` is not a string")))
}

/// Generates the `encode_*`/`decode_*` pair for a struct of `u64`
/// counters from a single field list, so the two sides cannot drift
/// apart. The encoder reads the borrowed struct directly (no clone);
/// the decoder fills a `&mut` in place.
macro_rules! counter_codec {
    ($encode:ident, $decode:ident, $ty:ty, { $($key:ident),* $(,)? }) => {
        fn $encode(out: &mut String, s: &$ty) {
            let fields: &[(&str, u64)] = &[$((stringify!($key), s.$key)),*];
            for (i, (key, value)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{key}\": {value}");
            }
        }

        fn $decode(v: &JsonValue, s: &mut $ty) -> Result<(), CodecError> {
            $(s.$key = u64_field(v, stringify!($key))?;)*
            Ok(())
        }
    };
}

counter_codec!(encode_rf_stats, decode_rf_stats, RegFileStats, {
    bypass_reads, regfile_reads, writebacks, cached_results, policy_skipped,
    port_skipped, evictions, demand_transfers, prefetch_transfers, prefetch_dropped,
    read_port_stalls, upper_miss_stalls, write_port_stalls, values_never_read,
    values_read_once, values_read_many,
});

counter_codec!(encode_fetch_stats, decode_fetch_stats, FetchStats, {
    fetched, blocks, taken_breaks, icache_stalls, btb_bubbles, branches,
    mispredicted_branches,
});

counter_codec!(encode_metric_scalars, decode_metric_scalars, SimMetrics, {
    cycles, committed, branches, mispredicted, commit_idle_cycles, stall_rob_full,
    stall_window_full, stall_no_phys_reg, stall_lsq_full, stall_branch_limit,
});

fn encode_histogram(out: &mut String, h: &OccupancyHistogram) {
    out.push_str("{\"counts\": [");
    for (i, c) in h.counts().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{c}");
    }
    let _ = write!(out, "], \"samples\": {}}}", h.samples());
}

fn decode_histogram(v: &JsonValue) -> Result<OccupancyHistogram, CodecError> {
    let counts = field(v, "counts")?
        .as_array()
        .ok_or_else(|| CodecError::new("field `counts` is not an array"))?
        .iter()
        .map(|c| c.as_u64().ok_or_else(|| CodecError::new("non-u64 entry in `counts`")))
        .collect::<Result<Vec<u64>, _>>()?;
    Ok(OccupancyHistogram::from_parts(counts, u64_field(v, "samples")?))
}

/// Encodes the full metrics set as one compact JSON object.
pub fn encode_metrics(m: &SimMetrics) -> String {
    let mut out = String::from("{");
    encode_metric_scalars(&mut out, m);
    out.push_str(", \"rf_int\": {");
    encode_rf_stats(&mut out, &m.rf_int);
    out.push_str("}, \"rf_fp\": {");
    encode_rf_stats(&mut out, &m.rf_fp);
    out.push_str("}, \"fetch\": {");
    encode_fetch_stats(&mut out, &m.fetch);
    out.push_str("}, \"dcache_hit_rate\": ");
    match m.dcache_hit_rate {
        // `{}` on f64 is the shortest form that parses back exactly.
        Some(rate) => {
            let _ = write!(out, "{rate}");
        }
        None => out.push_str("null"),
    }
    out.push_str(", \"occupancy_value\": ");
    encode_histogram(&mut out, &m.occupancy_value);
    out.push_str(", \"occupancy_ready\": ");
    encode_histogram(&mut out, &m.occupancy_ready);
    out.push('}');
    out
}

/// Decodes a parsed [`encode_metrics`] object.
///
/// # Errors
///
/// Returns [`CodecError`] when a field is missing or has the wrong type.
pub fn decode_metrics(v: &JsonValue) -> Result<SimMetrics, CodecError> {
    let mut m = SimMetrics::default();
    decode_metric_scalars(v, &mut m)?;
    decode_rf_stats(field(v, "rf_int")?, &mut m.rf_int)?;
    decode_rf_stats(field(v, "rf_fp")?, &mut m.rf_fp)?;
    decode_fetch_stats(field(v, "fetch")?, &mut m.fetch)?;
    m.dcache_hit_rate = match field(v, "dcache_hit_rate")? {
        JsonValue::Null => None,
        rate => Some(
            rate.as_f64()
                .ok_or_else(|| CodecError::new("field `dcache_hit_rate` is not a number"))?,
        ),
    };
    m.occupancy_value = decode_histogram(field(v, "occupancy_value")?)?;
    m.occupancy_ready = decode_histogram(field(v, "occupancy_ready")?)?;
    Ok(m)
}

/// [`decode_metrics`] from JSON text.
///
/// # Errors
///
/// Returns [`CodecError`] on malformed JSON or a malformed object.
pub fn decode_metrics_str(json: &str) -> Result<SimMetrics, CodecError> {
    decode_metrics(&parse_json(json).map_err(|e| CodecError::new(e.to_string()))?)
}

/// One completed simulation, as a shard worker reports it: the campaign
/// index the spec had in the flat plan, the spec's fingerprint (drift
/// detection), and the full result.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRecord {
    /// Position of the spec in the flattened campaign plan.
    pub index: usize,
    /// [`RunSpec::fingerprint`](crate::RunSpec::fingerprint) of the spec
    /// that produced the result.
    pub fingerprint: u64,
    /// Workload label (a benchmark name, trace label, or family member
    /// label — whatever the spec's workload reports).
    pub bench: String,
    /// Whether the benchmark belongs to SpecFP95.
    pub fp: bool,
    /// The measured metrics.
    pub metrics: SimMetrics,
}

impl ShardRecord {
    /// Builds the record for one completed campaign spec.
    pub fn from_result(index: usize, fingerprint: u64, result: &RunResult) -> Self {
        ShardRecord {
            index,
            fingerprint,
            bench: result.bench.to_string(),
            fp: result.fp,
            metrics: result.metrics.clone(),
        }
    }

    /// Encodes the record as one JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        format!(
            "{{\"index\": {}, \"fingerprint\": \"{:016x}\", \"bench\": \"{}\", \"fp\": {}, \"metrics\": {}}}",
            self.index,
            self.fingerprint,
            escape(&self.bench),
            self.fp,
            encode_metrics(&self.metrics),
        )
    }

    /// Decodes one record line.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on malformed JSON or a malformed record.
    pub fn parse(line: &str) -> Result<Self, CodecError> {
        Self::from_value(&parse_json(line).map_err(|e| CodecError::new(e.to_string()))?)
    }

    /// Decodes an already parsed record object (also used for `record`
    /// frames of the distributed transport, which carry the same fields).
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on a malformed record.
    pub fn from_value(v: &JsonValue) -> Result<Self, CodecError> {
        let fingerprint = u64::from_str_radix(str_field(v, "fingerprint")?, 16)
            .map_err(|_| CodecError::new("field `fingerprint` is not a hex u64"))?;
        Ok(ShardRecord {
            index: usize_field(v, "index")?,
            fingerprint,
            bench: str_field(v, "bench")?.to_string(),
            fp: bool_field(v, "fp")?,
            metrics: decode_metrics(field(v, "metrics")?)?,
        })
    }

    /// Converts the record back into the [`RunResult`] the worker
    /// observed, verifying the recorded workload identity against the
    /// campaign spec the record claims to answer.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] when the recorded workload label or `fp`
    /// flag contradicts the spec (both indicate a record from an
    /// incompatible binary or a drifted plan).
    pub fn into_run_result(self, spec: &RunSpec) -> Result<RunResult, CodecError> {
        if self.bench != spec.workload.label() {
            return Err(CodecError::new(format!(
                "record is for workload `{}` but the spec is `{}`",
                self.bench,
                spec.workload.label()
            )));
        }
        if self.fp != spec.workload.fp() {
            return Err(CodecError::new(format!(
                "workload `{}` has fp={} but the record says fp={}",
                self.bench,
                spec.workload.fp(),
                self.fp
            )));
        }
        Ok(RunResult { bench: self.bench, fp: self.fp, metrics: self.metrics })
    }
}

/// The first line of a shard file: which campaign the shard belongs to
/// (enough to re-derive the plan deterministically) and which slice of
/// it the worker executed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignHeader {
    /// Scenario names, in campaign order (`all` already expanded).
    pub scenarios: Vec<String>,
    /// Canonical JSON texts of runtime-loaded sweep definitions
    /// (empty for campaigns built purely from built-in scenarios).
    ///
    /// Runtime sweeps have no registry entry another process could
    /// resolve their names against, so the definitions themselves travel
    /// in the header: workers, `merge` and `resume` rebuild a
    /// [`Registry`](crate::scenario::Registry) from these texts before
    /// resolving `scenarios`.
    pub sweeps: Vec<String>,
    /// Measured instructions per benchmark.
    pub insts: u64,
    /// Warmup instructions per benchmark.
    pub warmup: u64,
    /// Workload seed.
    pub seed: u64,
    /// Whether the reduced `--quick` sweeps were planned.
    pub quick: bool,
    /// This worker's shard index (`I` of `I/N`).
    pub shard: usize,
    /// Total shard count (`N` of `I/N`).
    pub of: usize,
    /// Total number of specs in the flattened campaign plan (sanity
    /// check against the re-derived plan).
    pub runs: usize,
}

impl CampaignHeader {
    /// Builds the header for one shard of a campaign planned under
    /// `opts` (`jobs` is intra-process and deliberately not recorded).
    pub fn new(
        scenarios: Vec<String>,
        opts: &ExperimentOpts,
        shard: usize,
        of: usize,
        runs: usize,
    ) -> Self {
        CampaignHeader {
            scenarios,
            sweeps: Vec::new(),
            insts: opts.insts,
            warmup: opts.warmup,
            seed: opts.seed,
            quick: opts.quick,
            shard,
            of,
            runs,
        }
    }

    /// Attaches runtime sweep definitions (canonical JSON texts) to the
    /// header (builder-style).
    #[must_use]
    pub fn with_sweeps(mut self, sweeps: Vec<String>) -> Self {
        self.sweeps = sweeps;
        self
    }

    /// The options the campaign was planned under (worker threads reset
    /// to the default).
    pub fn opts(&self) -> ExperimentOpts {
        ExperimentOpts {
            insts: self.insts,
            warmup: self.warmup,
            seed: self.seed,
            quick: self.quick,
            ..ExperimentOpts::default()
        }
    }

    /// Whether two headers describe the same campaign (everything but
    /// the shard index must agree for their files to be mergeable).
    pub fn same_campaign(&self, other: &CampaignHeader) -> bool {
        self.scenarios == other.scenarios
            && self.sweeps == other.sweeps
            && self.insts == other.insts
            && self.warmup == other.warmup
            && self.seed == other.seed
            && self.quick == other.quick
            && self.of == other.of
            && self.runs == other.runs
    }

    /// [`to_line`](Self::to_line) with the campaign fingerprint stamped
    /// in as an extra field. A journaling coordinator writes this as the
    /// journal's first line; [`RecordFile::parse`] surfaces the stamp so
    /// `resume` can verify its re-derived plan against it. The line still
    /// parses as a plain [`CampaignHeader`] (unknown fields are ignored),
    /// so a completed journal doubles as a valid one-shard shard file.
    pub fn to_journal_line(&self, fingerprint: u64) -> String {
        let line = self.to_line();
        format!("{}, \"campaign_fingerprint\": \"{fingerprint:016x}\"}}", &line[..line.len() - 1])
    }

    /// Encodes the header as one JSON line (no trailing newline).
    ///
    /// The `sweeps` field is only emitted when non-empty, so headers of
    /// campaigns without runtime sweeps render exactly as they did
    /// before the field existed (and old binaries, which ignore unknown
    /// fields, still parse headers that do carry sweeps).
    pub fn to_line(&self) -> String {
        let names: Vec<String> =
            self.scenarios.iter().map(|s| format!("\"{}\"", escape(s))).collect();
        let sweeps = if self.sweeps.is_empty() {
            String::new()
        } else {
            let texts: Vec<String> =
                self.sweeps.iter().map(|s| format!("\"{}\"", escape(s))).collect();
            format!("\"sweeps\": [{}], ", texts.join(", "))
        };
        format!(
            "{{\"scenarios\": [{}], {sweeps}\"insts\": {}, \"warmup\": {}, \"seed\": {}, \"quick\": {}, \"shard\": {}, \"of\": {}, \"runs\": {}}}",
            names.join(", "),
            self.insts,
            self.warmup,
            self.seed,
            self.quick,
            self.shard,
            self.of,
            self.runs,
        )
    }

    /// Decodes one header line.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on malformed JSON, a malformed header, or
    /// an inconsistent shard slice (`of` = 0 or `shard` ≥ `of`).
    pub fn parse(line: &str) -> Result<Self, CodecError> {
        Self::from_value(&parse_json(line).map_err(|e| CodecError::new(e.to_string()))?)
    }

    /// Decodes an already parsed header object (also used for the
    /// campaign description inside a `hello` frame).
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on a malformed header or an inconsistent
    /// shard slice.
    pub fn from_value(v: &JsonValue) -> Result<Self, CodecError> {
        let scenarios = field(v, "scenarios")?
            .as_array()
            .ok_or_else(|| CodecError::new("field `scenarios` is not an array"))?
            .iter()
            .map(|s| {
                s.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| CodecError::new("non-string entry in `scenarios`"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let sweeps = match v.get("sweeps") {
            None => Vec::new(),
            Some(s) => s
                .as_array()
                .ok_or_else(|| CodecError::new("field `sweeps` is not an array"))?
                .iter()
                .map(|t| {
                    t.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| CodecError::new("non-string entry in `sweeps`"))
                })
                .collect::<Result<Vec<_>, _>>()?,
        };
        let header = CampaignHeader {
            scenarios,
            sweeps,
            insts: u64_field(v, "insts")?,
            warmup: u64_field(v, "warmup")?,
            seed: u64_field(v, "seed")?,
            quick: bool_field(v, "quick")?,
            shard: usize_field(v, "shard")?,
            of: usize_field(v, "of")?,
            runs: usize_field(v, "runs")?,
        };
        if header.of == 0 {
            return Err(CodecError::new("shard count 0/0 is invalid"));
        }
        if header.shard >= header.of {
            return Err(CodecError::new(format!(
                "shard index {} must be less than shard count {}",
                header.shard, header.of
            )));
        }
        Ok(header)
    }
}

/// How [`RecordFile::parse`] treats a final line with no trailing
/// newline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailPolicy {
    /// An incomplete final line is corruption. Right for finished shard
    /// files: workers always terminate every record line.
    Reject,
    /// An incomplete final line is dropped and reported via
    /// [`RecordFile::torn`]. Right for the journal of a crashed
    /// coordinator, whose last `write` may have been cut mid-line.
    DropTorn,
}

/// A parsed header+records JSON-lines file: the shard files workers
/// emit and the write-ahead journal the coordinator keeps share this
/// exact shape, so one reader serves `merge` and `resume`.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordFile {
    /// The campaign header from the first line.
    pub header: CampaignHeader,
    /// Campaign fingerprint stamped next to the header by a journaling
    /// coordinator ([`CampaignHeader::to_journal_line`]); `None` for
    /// plain shard files.
    pub campaign_fingerprint: Option<u64>,
    /// One record per complete record line, in file order.
    pub records: Vec<ShardRecord>,
    /// Byte length of the valid prefix: everything up to and including
    /// the last complete line. A resuming coordinator truncates the
    /// journal here before appending.
    pub valid_len: usize,
    /// Bytes of the torn final line dropped under
    /// [`TailPolicy::DropTorn`] (0 when the file ends cleanly).
    pub torn: usize,
}

impl RecordFile {
    /// Parses a header+records file from raw bytes.
    ///
    /// Only *complete* lines (terminated by `\n`) are parsed; a record
    /// is therefore never assembled from a partially written line. What
    /// happens to an unterminated tail is the `tail` policy's call.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] (naming the 1-based line) when the header
    /// or any complete record line is malformed, when no complete header
    /// line exists, or — under [`TailPolicy::Reject`] — when the final
    /// line is unterminated.
    pub fn parse(bytes: &[u8], tail: TailPolicy) -> Result<Self, CodecError> {
        let valid_len = match bytes.iter().rposition(|&b| b == b'\n') {
            Some(last) => last + 1,
            None => 0,
        };
        let torn = bytes.len() - valid_len;
        if torn > 0 && tail == TailPolicy::Reject {
            return Err(CodecError::new(format!(
                "truncated final line ({torn} byte(s) with no trailing newline)"
            )));
        }
        // Strict UTF-8: these files are machine-written, so a bad byte
        // in a *complete* line is disk corruption and must not be
        // smoothed over into a "valid" record. A multi-byte character
        // torn by a crash lives past the last newline, outside this
        // slice, so journal recovery is unaffected.
        let text = std::str::from_utf8(&bytes[..valid_len])
            .map_err(|e| CodecError::new(format!("invalid UTF-8 at byte {}", e.valid_up_to())))?;
        let mut lines = text.lines().enumerate();
        let (_, first) =
            lines.next().ok_or_else(|| CodecError::new("empty file (missing campaign header)"))?;
        let at_line = |n: usize, e: CodecError| CodecError::new(format!("line {}: {e}", n + 1));
        let v = parse_json(first).map_err(|e| at_line(0, CodecError::new(e.to_string())))?;
        let header = CampaignHeader::from_value(&v).map_err(|e| at_line(0, e))?;
        let campaign_fingerprint = match v.get("campaign_fingerprint") {
            Some(fp) => {
                Some(fp.as_str().and_then(|s| u64::from_str_radix(s, 16).ok()).ok_or_else(
                    || at_line(0, CodecError::new("field `campaign_fingerprint` is not a hex u64")),
                )?)
            }
            None => None,
        };
        let mut records = Vec::new();
        for (n, line) in lines {
            if line.trim().is_empty() {
                continue;
            }
            records.push(ShardRecord::parse(line).map_err(|e| at_line(n, e))?);
        }
        Ok(RecordFile { header, campaign_fingerprint, records, valid_len, torn })
    }
}

/// One frame of the distributed campaign protocol
/// ([`crate::transport`]): newline-delimited JSON over TCP, reusing the
/// shard-file codec for the payload types.
///
/// The conversation is:
///
/// 1. coordinator → worker: [`Hello`](Frame::Hello) carrying the
///    [`CampaignHeader`] (enough to re-derive the plan) and the
///    coordinator's campaign fingerprint;
/// 2. worker → coordinator: `Hello` with the fingerprint of the plan
///    the *worker* derived (no campaign — drift check);
/// 3. coordinator → worker: [`Lease`](Frame::Lease) with the plan
///    indices to simulate;
/// 4. worker → coordinator: one [`Record`](Frame::Record) per completed
///    index, then [`Done`](Frame::Done) to acknowledge the lease;
/// 5. steps 3–4 repeat until the coordinator answers with `Done`
///    instead of a new lease: the campaign is complete.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Handshake. The coordinator's hello carries the campaign; the
    /// worker's reply omits it and echoes the fingerprint it computed
    /// from its own re-derived plan.
    Hello {
        /// The campaign description (coordinator → worker only).
        campaign: Option<CampaignHeader>,
        /// [`crate::run::campaign_fingerprint`] of the flattened plan.
        fingerprint: u64,
    },
    /// A work-item lease: plan indices for the worker to simulate.
    Lease {
        /// Coordinator-assigned lease id (diagnostics; re-issued leases
        /// get fresh ids).
        id: u64,
        /// The campaign plan indices to simulate.
        indices: Vec<usize>,
    },
    /// One completed simulation (worker → coordinator). Boxed: the
    /// full metrics set dwarfs the other variants.
    Record(Box<ShardRecord>),
    /// Worker → coordinator: the current lease's records are all sent.
    /// Coordinator → worker: no work remains, disconnect cleanly.
    Done,
    /// Coordinator → worker, instead of a hello: no campaign is being
    /// served right now — disconnect and try again after `after_ms`
    /// milliseconds (the coordinator sends this to workers
    /// that arrive between campaigns, so they never sit in a handshake
    /// that cannot progress).
    Retry {
        /// Suggested reconnect delay, in milliseconds.
        after_ms: u64,
    },
}

impl Frame {
    /// Encodes the frame as one JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            Frame::Hello { campaign, fingerprint } => match campaign {
                Some(header) => format!(
                    "{{\"type\": \"hello\", \"fingerprint\": \"{fingerprint:016x}\", \
                     \"campaign\": {}}}",
                    header.to_line()
                ),
                None => format!("{{\"type\": \"hello\", \"fingerprint\": \"{fingerprint:016x}\"}}"),
            },
            Frame::Lease { id, indices } => {
                let list: Vec<String> = indices.iter().map(usize::to_string).collect();
                format!("{{\"type\": \"lease\", \"id\": {id}, \"indices\": [{}]}}", list.join(", "))
            }
            // A record frame is a shard record plus the `type` tag, so
            // the two codecs cannot drift apart.
            Frame::Record(record) => format!("{{\"type\": \"record\", {}", &record.to_line()[1..]),
            Frame::Done => "{\"type\": \"done\"}".to_string(),
            Frame::Retry { after_ms } => {
                format!("{{\"type\": \"retry\", \"after_ms\": {after_ms}}}")
            }
        }
    }

    /// Decodes one frame line.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on malformed JSON, an unknown frame type,
    /// or a malformed payload.
    pub fn parse(line: &str) -> Result<Self, CodecError> {
        let v = parse_json(line).map_err(|e| CodecError::new(e.to_string()))?;
        match str_field(&v, "type")? {
            "hello" => {
                let fingerprint = u64::from_str_radix(str_field(&v, "fingerprint")?, 16)
                    .map_err(|_| CodecError::new("field `fingerprint` is not a hex u64"))?;
                let campaign = match v.get("campaign") {
                    Some(header) => Some(CampaignHeader::from_value(header)?),
                    None => None,
                };
                Ok(Frame::Hello { campaign, fingerprint })
            }
            "lease" => {
                let indices = field(&v, "indices")?
                    .as_array()
                    .ok_or_else(|| CodecError::new("field `indices` is not an array"))?
                    .iter()
                    .map(|i| {
                        i.as_u64()
                            .and_then(|i| usize::try_from(i).ok())
                            .ok_or_else(|| CodecError::new("non-usize entry in `indices`"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Frame::Lease { id: u64_field(&v, "id")?, indices })
            }
            "record" => Ok(Frame::Record(Box::new(ShardRecord::from_value(&v)?))),
            "done" => Ok(Frame::Done),
            "retry" => Ok(Frame::Retry { after_ms: u64_field(&v, "after_ms")? }),
            other => Err(CodecError::new(format!("unknown frame type `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::RunSpec;
    use rfcache_core::{RegFileConfig, SingleBankConfig};

    fn simulated_metrics() -> SimMetrics {
        let spec = RunSpec::known("li", RegFileConfig::Single(SingleBankConfig::one_cycle()))
            .insts(2_000)
            .warmup(400);
        spec.run().metrics
    }

    #[test]
    fn real_simulation_metrics_round_trip() {
        let m = simulated_metrics();
        let decoded = decode_metrics_str(&encode_metrics(&m)).unwrap();
        assert_eq!(m, decoded);
    }

    #[test]
    fn extreme_counters_round_trip() {
        let m = SimMetrics {
            cycles: u64::MAX,
            committed: u64::MAX - 1,
            rf_int: RegFileStats { values_read_many: u64::MAX, ..Default::default() },
            rf_fp: RegFileStats { prefetch_dropped: u64::MAX, ..Default::default() },
            fetch: FetchStats { mispredicted_branches: u64::MAX, ..Default::default() },
            dcache_hit_rate: Some(0.1 + 0.2), // a value with no short decimal form
            occupancy_value: OccupancyHistogram::from_parts(vec![0, u64::MAX, 3], u64::MAX),
            ..Default::default()
        };
        let decoded = decode_metrics_str(&encode_metrics(&m)).unwrap();
        assert_eq!(m, decoded);
        assert_eq!(decoded.cycles, u64::MAX);
        assert_eq!(decoded.occupancy_value.counts(), &[0, u64::MAX, 3]);
    }

    #[test]
    fn default_metrics_round_trip() {
        let m = SimMetrics::default();
        assert_eq!(m, decode_metrics_str(&encode_metrics(&m)).unwrap());
    }

    #[test]
    fn decode_rejects_missing_and_mistyped_fields() {
        let good = encode_metrics(&SimMetrics::default());
        assert!(decode_metrics_str(&good.replace("\"cycles\"", "\"cycle\"")).is_err());
        assert!(
            decode_metrics_str(&good.replace("\"committed\": 0", "\"committed\": \"0\"")).is_err()
        );
        assert!(decode_metrics_str("not json").is_err());
    }

    #[test]
    fn shard_record_round_trips_and_resolves_the_profile() {
        let spec = RunSpec::known("swim", RegFileConfig::Single(SingleBankConfig::one_cycle()))
            .insts(1_500)
            .warmup(300);
        let result = spec.run();
        let record = ShardRecord::from_result(7, spec.fingerprint(), &result);
        let parsed = ShardRecord::parse(&record.to_line()).unwrap();
        assert_eq!(record, parsed);
        let back = parsed.into_run_result(&spec).unwrap();
        assert_eq!(back.bench, "swim");
        assert!(back.fp);
        assert_eq!(back.metrics, result.metrics);
    }

    #[test]
    fn shard_record_rejects_bench_and_fp_disagreeing_with_the_spec() {
        let spec = RunSpec::known("li", RegFileConfig::Single(SingleBankConfig::one_cycle()));
        let mut record = ShardRecord {
            index: 0,
            fingerprint: 1,
            bench: "quake".into(),
            fp: false,
            metrics: SimMetrics::default(),
        };
        assert!(record.clone().into_run_result(&spec).is_err());
        record.bench = "li".into();
        record.fp = true; // li is SpecInt95
        assert!(record.clone().into_run_result(&spec).is_err());
        record.fp = false;
        assert!(record.into_run_result(&spec).is_ok());
    }

    #[test]
    fn campaign_header_round_trips_and_validates_the_slice() {
        let opts = ExperimentOpts::smoke();
        let header = CampaignHeader::new(vec!["fig6".into(), "table2".into()], &opts, 1, 4, 36);
        let parsed = CampaignHeader::parse(&header.to_line()).unwrap();
        assert_eq!(header, parsed);
        assert!(header.same_campaign(&parsed));
        assert_eq!(parsed.opts().insts, opts.insts);
        assert_eq!(parsed.opts().quick, opts.quick);

        let mut other = header.clone();
        other.shard = 2;
        assert!(header.same_campaign(&other), "shard index is not campaign identity");
        other.insts += 1;
        assert!(!header.same_campaign(&other));

        let bad = header.to_line().replace("\"shard\": 1, \"of\": 4", "\"shard\": 4, \"of\": 4");
        assert!(CampaignHeader::parse(&bad).unwrap_err().to_string().contains("less than"));
        let zero = header.to_line().replace("\"of\": 4", "\"of\": 0");
        assert!(CampaignHeader::parse(&zero).is_err());
    }

    #[test]
    fn record_file_parses_shard_and_journal_shapes() {
        let opts = ExperimentOpts::smoke();
        let header = CampaignHeader::new(vec!["fig6".into()], &opts, 0, 1, 2);
        let spec = RunSpec::known("li", RegFileConfig::Single(SingleBankConfig::one_cycle()))
            .insts(1_500)
            .warmup(300);
        let record = ShardRecord::from_result(0, spec.fingerprint(), &spec.run());

        // Plain shard file: no fingerprint stamp.
        let shard = format!("{}\n{}\n", header.to_line(), record.to_line());
        let parsed = RecordFile::parse(shard.as_bytes(), TailPolicy::Reject).unwrap();
        assert_eq!(parsed.header, header);
        assert_eq!(parsed.campaign_fingerprint, None);
        assert_eq!(parsed.records, vec![record.clone()]);
        assert_eq!(parsed.valid_len, shard.len());
        assert_eq!(parsed.torn, 0);

        // Journal: fingerprint stamped, still a parseable plain header.
        let journal = format!("{}\n{}\n", header.to_journal_line(0xfeed), record.to_line());
        assert_eq!(CampaignHeader::parse(journal.lines().next().unwrap()).unwrap(), header);
        let parsed = RecordFile::parse(journal.as_bytes(), TailPolicy::Reject).unwrap();
        assert_eq!(parsed.campaign_fingerprint, Some(0xfeed));
        assert_eq!(parsed.records.len(), 1);

        // A torn tail is fatal for shard files, recovered for journals.
        let torn = format!("{journal}{{\"index\": 1, \"finge");
        let err = RecordFile::parse(torn.as_bytes(), TailPolicy::Reject).unwrap_err();
        assert!(err.to_string().contains("truncated final line"), "{err}");
        let parsed = RecordFile::parse(torn.as_bytes(), TailPolicy::DropTorn).unwrap();
        assert_eq!(parsed.records, vec![record]);
        assert_eq!(parsed.valid_len, journal.len());
        assert_eq!(parsed.torn, torn.len() - journal.len());

        // A malformed *complete* line is corruption under either policy,
        // and the error names the line.
        let corrupt = format!("{journal}not json\n");
        for policy in [TailPolicy::Reject, TailPolicy::DropTorn] {
            let err = RecordFile::parse(corrupt.as_bytes(), policy).unwrap_err();
            assert!(err.to_string().starts_with("line 3:"), "{err}");
        }

        // No complete header line: empty file or torn header.
        assert!(RecordFile::parse(b"", TailPolicy::DropTorn).is_err());
        let head = header.to_journal_line(1);
        let torn_header = &head.as_bytes()[..head.len() / 2];
        assert!(RecordFile::parse(torn_header, TailPolicy::DropTorn).is_err());

        // A corrupt byte inside a complete line is an error, not a
        // U+FFFD-mangled "valid" record.
        let mut mangled = journal.clone().into_bytes();
        mangled[journal.find("\"bench\"").unwrap() + 2] = 0xFF;
        let err = RecordFile::parse(&mangled, TailPolicy::DropTorn).unwrap_err();
        assert!(err.to_string().contains("invalid UTF-8"), "{err}");
    }

    #[test]
    fn every_frame_kind_round_trips() {
        let opts = ExperimentOpts::smoke();
        let header = CampaignHeader::new(vec!["fig6".into()], &opts, 0, 1, 12);
        let spec = RunSpec::known("li", RegFileConfig::Single(SingleBankConfig::one_cycle()))
            .insts(1_500)
            .warmup(300);
        let record = ShardRecord::from_result(3, spec.fingerprint(), &spec.run());
        let frames = [
            Frame::Hello { campaign: Some(header), fingerprint: 0x00ab_cdef_0123_4567 },
            Frame::Hello { campaign: None, fingerprint: u64::MAX },
            Frame::Lease { id: 7, indices: vec![0, 5, 11] },
            Frame::Lease { id: 8, indices: vec![] },
            Frame::Record(Box::new(record)),
            Frame::Done,
            Frame::Retry { after_ms: 500 },
        ];
        for frame in &frames {
            let line = frame.to_line();
            assert!(!line.contains('\n'), "frames must be single lines: {line}");
            assert_eq!(&Frame::parse(&line).unwrap(), frame, "{line}");
        }
    }

    #[test]
    fn frame_parse_rejects_unknown_types_and_bad_payloads() {
        assert!(Frame::parse("{\"type\": \"nope\"}").unwrap_err().to_string().contains("nope"));
        assert!(Frame::parse("{\"id\": 1}").is_err(), "missing type field");
        assert!(Frame::parse("{\"type\": \"lease\", \"id\": 1}").is_err(), "missing indices");
        assert!(
            Frame::parse("{\"type\": \"lease\", \"id\": 1, \"indices\": [-1]}").is_err(),
            "negative index"
        );
        assert!(Frame::parse("{\"type\": \"hello\", \"fingerprint\": \"xyz\"}").is_err());
        assert!(Frame::parse("not json").is_err());
    }
}
