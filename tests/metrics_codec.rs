//! Property tests for the shard-file metrics codec: every field of
//! [`SimMetrics`] — including zero and `u64::MAX` counters — must
//! survive encode → decode exactly, because merged shard reports are
//! required to be byte-identical to single-process reports.

use proptest::prelude::*;
use rfcache_core::RegFileStats;
use rfcache_frontend::FetchStats;
use rfcache_pipeline::{OccupancyHistogram, SimMetrics};
use rfcache_sim::experiments::ExperimentOpts;
use rfcache_sim::metrics_codec::{
    decode_metrics_str, encode_metrics, CampaignHeader, Frame, ShardRecord,
};
use rfcache_sim::transport::{JournalReader, LineBuffer};

/// Draws the next counter from the generated pool.
fn rf_stats(next: &mut impl FnMut() -> u64) -> RegFileStats {
    RegFileStats {
        bypass_reads: next(),
        regfile_reads: next(),
        writebacks: next(),
        cached_results: next(),
        policy_skipped: next(),
        port_skipped: next(),
        evictions: next(),
        demand_transfers: next(),
        prefetch_transfers: next(),
        prefetch_dropped: next(),
        read_port_stalls: next(),
        upper_miss_stalls: next(),
        write_port_stalls: next(),
        values_never_read: next(),
        values_read_once: next(),
        values_read_many: next(),
    }
}

fn fetch_stats(next: &mut impl FnMut() -> u64) -> FetchStats {
    FetchStats {
        fetched: next(),
        blocks: next(),
        taken_breaks: next(),
        icache_stalls: next(),
        btb_bubbles: next(),
        branches: next(),
        mispredicted_branches: next(),
    }
}

/// Builds a `SimMetrics` consuming exactly 49 counters (10 scalars +
/// 2 × 16 register-file stats + 7 fetch stats) plus the histogram and
/// hit-rate inputs.
fn metrics_from(
    counters: &[u64],
    hit_rate: Option<f64>,
    value_counts: Vec<u64>,
    ready_counts: Vec<u64>,
    samples: (u64, u64),
) -> SimMetrics {
    let mut it = counters.iter().copied();
    let mut next = move || it.next().expect("49 counters");
    SimMetrics {
        cycles: next(),
        committed: next(),
        branches: next(),
        mispredicted: next(),
        commit_idle_cycles: next(),
        stall_rob_full: next(),
        stall_window_full: next(),
        stall_no_phys_reg: next(),
        stall_lsq_full: next(),
        stall_branch_limit: next(),
        rf_int: rf_stats(&mut next),
        rf_fp: rf_stats(&mut next),
        fetch: fetch_stats(&mut next),
        dcache_hit_rate: hit_rate,
        occupancy_value: OccupancyHistogram::from_parts(value_counts, samples.0),
        occupancy_ready: OccupancyHistogram::from_parts(ready_counts, samples.1),
    }
}

proptest! {
    /// Arbitrary counters anywhere in the u64 range — the codec must
    /// not lose a single bit (an f64 intermediate would).
    #[test]
    fn every_field_survives_encode_decode(
        counters in proptest::collection::vec(0u64..=u64::MAX, 49..50),
        hit_kind in 0u32..3,
        hit in 0.0f64..=1.0,
        value_counts in proptest::collection::vec(0u64..=u64::MAX, 0..6),
        ready_counts in proptest::collection::vec(0u64..=u64::MAX, 0..6),
        samples in (0u64..=u64::MAX, 0u64..=u64::MAX),
    ) {
        // hit_kind folds Option and boundary cases into one draw:
        // absent, an arbitrary in-range rate, or exactly 1.0.
        let hit_rate = match hit_kind {
            0 => None,
            1 => Some(hit),
            _ => Some(1.0),
        };
        let m = metrics_from(&counters, hit_rate, value_counts, ready_counts, samples);
        let encoded = encode_metrics(&m);
        let decoded = decode_metrics_str(&encoded).expect("codec output must decode");
        prop_assert_eq!(&m, &decoded, "round trip lost data; encoded: {}", encoded);
        // A second trip is a fixed point: the encoding is canonical.
        prop_assert_eq!(encoded.clone(), encode_metrics(&decoded));
    }
}

proptest! {
    /// Transport framing: a stream of `record` frames (the distributed
    /// protocol's wire format) split at *arbitrary* byte boundaries —
    /// as TCP will — must reassemble into exactly the records sent.
    /// Chunk boundaries land inside numbers, keys, and multi-byte
    /// sequences alike; `LineBuffer` must not care.
    #[test]
    fn record_frame_stream_survives_arbitrary_chunking(
        counters in proptest::collection::vec(0u64..=u64::MAX, 49..50),
        indices in proptest::collection::vec(0u64..1_000_000, 1..5),
        cuts in proptest::collection::vec(0usize..4096, 0..24),
    ) {
        // One record per index, each with distinct (rotated) counters so
        // no two frames are byte-identical.
        let records: Vec<ShardRecord> = indices
            .iter()
            .enumerate()
            .map(|(k, &index)| {
                let mut rotated = counters.clone();
                let shift = k % rotated.len();
                rotated.rotate_left(shift);
                ShardRecord {
                    index: index as usize,
                    fingerprint: index.wrapping_mul(0x9e37_79b9_7f4a_7c15),
                    bench: "li".to_string(),
                    fp: false,
                    metrics: metrics_from(&rotated, Some(0.5), vec![k as u64], vec![], (1, 2)),
                }
            })
            .collect();
        let stream: String =
            records.iter().map(|r| Frame::Record(Box::new(r.clone())).to_line() + "\n").collect();
        let bytes = stream.as_bytes();

        // Sorted, deduplicated cut points inside the stream define the
        // chunking; 0 cuts = one chunk, max cuts = many tiny chunks.
        let mut points: Vec<usize> = cuts.iter().map(|c| c % bytes.len()).collect();
        points.sort_unstable();
        points.dedup();
        points.push(bytes.len());

        let mut buf = LineBuffer::new();
        let mut reassembled = Vec::new();
        let mut start = 0;
        for end in points {
            buf.push(&bytes[start..end]);
            start = end;
            while let Some(line) = buf.next_line() {
                match Frame::parse(&line).expect("chunking must not corrupt frames") {
                    Frame::Record(r) => reassembled.push(*r),
                    other => prop_assert!(false, "unexpected frame {other:?}"),
                }
            }
        }
        prop_assert_eq!(buf.pending(), 0, "stream ends on a frame boundary");
        prop_assert_eq!(&reassembled, &records, "chunked reassembly lost or altered records");
    }
}

proptest! {
    /// Crash recovery: a coordinator journal truncated at an *arbitrary*
    /// byte offset — as a crash mid-`write` truncates it — must yield
    /// exactly the records whose lines survived complete. The torn tail
    /// is dropped, never mis-parsed into a record; only a cut inside the
    /// header line (before anything was durably started) is an error.
    /// Mirror of the `LineBuffer` arbitrary-split test above, on the
    /// disk side of the same codec.
    #[test]
    fn journal_reader_recovers_every_complete_record_at_any_truncation(
        counters in proptest::collection::vec(0u64..=u64::MAX, 49..50),
        nrecords in 1usize..5,
        cut_frac in 0.0f64..=1.0,
    ) {
        let opts = ExperimentOpts::smoke();
        let header = CampaignHeader::new(vec!["fig6".into()], &opts, 0, 1, nrecords);
        let records: Vec<ShardRecord> = (0..nrecords)
            .map(|k| {
                let mut rotated = counters.clone();
                let shift = k % rotated.len();
                rotated.rotate_left(shift);
                ShardRecord {
                    index: k,
                    fingerprint: (k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                    bench: "li".to_string(),
                    fp: false,
                    metrics: metrics_from(&rotated, Some(0.5), vec![k as u64], vec![], (1, 2)),
                }
            })
            .collect();
        let mut journal = header.to_journal_line(0xfeed_face) + "\n";
        for record in &records {
            journal.push_str(&record.to_line());
            journal.push('\n');
        }
        let bytes = journal.as_bytes();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let cut = cut.min(bytes.len());
        let truncated = &bytes[..cut];

        let header_len = journal.find('\n').expect("header line") + 1;
        match JournalReader::parse(truncated) {
            Ok(recovered) => {
                prop_assert!(cut >= header_len, "parse cannot succeed without a full header");
                // Every byte up to the last newline is complete lines;
                // one newline per record beyond the header's.
                let complete =
                    truncated.iter().filter(|&&b| b == b'\n').count().saturating_sub(1);
                prop_assert_eq!(recovered.records.len(), complete);
                prop_assert_eq!(&recovered.records[..], &records[..complete]);
                prop_assert_eq!(recovered.campaign_fingerprint, Some(0xfeed_face));
                let valid =
                    truncated.iter().rposition(|&b| b == b'\n').map_or(0, |nl| nl + 1);
                prop_assert_eq!(recovered.valid_len, valid);
                prop_assert_eq!(recovered.torn, cut - valid);
            }
            Err(_) => {
                prop_assert!(
                    cut < header_len,
                    "only a cut inside the header line may fail (cut {} of {})",
                    cut,
                    bytes.len()
                );
            }
        }
    }
}

#[test]
fn all_zero_and_all_max_counters_round_trip() {
    for fill in [0u64, u64::MAX] {
        let m = metrics_from(&[fill; 49], Some(0.0), vec![fill, fill], vec![fill], (fill, fill));
        assert_eq!(m, decode_metrics_str(&encode_metrics(&m)).unwrap());
    }
    let default = SimMetrics::default();
    assert_eq!(default, decode_metrics_str(&encode_metrics(&default)).unwrap());
}

/// Shard files, journals and cache entries written by older binaries
/// carry a `squashed` counter that was always 0 and is no longer part of
/// `SimMetrics`. The decoder reads fields by name and ignores unknown
/// keys, so such a line still decodes, and it re-encodes to the same
/// line without that key: no schema bump is needed.
#[test]
fn record_line_with_the_retired_squashed_key_still_decodes() {
    const OLD: &str = concat!(
        r#"{"index": 5, "fingerprint": "0123456789abcdef", "bench": "li", "fp": false, "#,
        r#""metrics": {"cycles": 10142, "committed": 20003, "branches": 2950, "#,
        r#""mispredicted": 725, "squashed": 0, "commit_idle_cycles": 1204, "#,
        r#""stall_rob_full": 0, "stall_window_full": 0, "stall_no_phys_reg": 0, "#,
        r#""stall_lsq_full": 0, "stall_branch_limit": 0, "#,
        r#""rf_int": {"bypass_reads": 0, "regfile_reads": 0, "writebacks": 0, "#,
        r#""cached_results": 0, "policy_skipped": 0, "port_skipped": 0, "evictions": 0, "#,
        r#""demand_transfers": 0, "prefetch_transfers": 0, "prefetch_dropped": 0, "#,
        r#""read_port_stalls": 0, "upper_miss_stalls": 0, "write_port_stalls": 0, "#,
        r#""values_never_read": 0, "values_read_once": 0, "values_read_many": 0}, "#,
        r#""rf_fp": {"bypass_reads": 0, "regfile_reads": 0, "writebacks": 0, "#,
        r#""cached_results": 0, "policy_skipped": 0, "port_skipped": 0, "evictions": 0, "#,
        r#""demand_transfers": 0, "prefetch_transfers": 0, "prefetch_dropped": 0, "#,
        r#""read_port_stalls": 0, "upper_miss_stalls": 0, "write_port_stalls": 0, "#,
        r#""values_never_read": 0, "values_read_once": 0, "values_read_many": 0}, "#,
        r#""fetch": {"fetched": 0, "blocks": 0, "taken_breaks": 0, "icache_stalls": 0, "#,
        r#""btb_bubbles": 0, "branches": 0, "mispredicted_branches": 0}, "#,
        r#""dcache_hit_rate": 0.75, "occupancy_value": {"counts": [1, 2], "samples": 3}, "#,
        r#""occupancy_ready": {"counts": [], "samples": 0}}}"#,
    );
    let record = ShardRecord::parse(OLD).expect("an older record line decodes");
    assert_eq!((record.metrics.cycles, record.metrics.mispredicted), (10_142, 725));
    assert_eq!(record.to_line(), OLD.replace(r#""squashed": 0, "#, ""));
}
