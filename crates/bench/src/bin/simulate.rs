//! Single configurable simulation run with a full metrics report.
//!
//! ```text
//! simulate --bench gcc --arch rfc [--insts 200000] [--warmup 60000] [--seed 42]
//!          [--window 128] [--phys-regs 128]
//!          [--upper-entries 16] [--caching nonbypass|ready] [--fetch demand|prefetch]
//!          [--ports R,W] [--rfc-ports R,W,LW,B] [--banks N]
//! ```
//!
//! Architectures: `1cyc`, `2cyc`, `2cyc-full`, `rfc`, `replicated`,
//! `onelevel`.
//!
//! `--trace-out FILE` saves the generated instruction stream in the RFCT
//! format; `--trace-in FILE` replays a saved stream instead of generating
//! one, cyclically as sweeps replay traces, and reports it under the file
//! stem (the `--bench` profile is then ignored).
//!
//! Flags follow the grammar `experiments` shares ([`rfcache_bench::Flags`]).
//! A malformed flag value, a register-file flag the chosen `--arch`
//! ignores (`--upper-entries`, `--caching`, `--fetch` and `--rfc-ports`
//! are for `rfc`, `--ports` for the single banks, `--banks` for
//! `replicated` and `onelevel`), an invalid pipeline or register file
//! configuration and an unreadable or empty trace exit 2 with the reason.

use rfcache_bench::Flags;
use rfcache_core::{
    CachingPolicy, FetchPolicy, OneLevelBankedConfig, PortLimits, RegFileCacheConfig,
    RegFileConfig, ReplicatedBankConfig, SingleBankConfig,
};
use rfcache_pipeline::PipelineConfig;
use rfcache_sim::{RunSpec, TraceWorkload, WorkloadSource, DEFAULT_INSTS, DEFAULT_WARMUP};

fn bail(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: simulate --bench <name> --arch <1cyc|2cyc|2cyc-full|rfc|replicated|onelevel> \
         [--insts N] [--warmup N] [--seed N] [--window N] [--phys-regs N] \
         [--upper-entries N] [--caching nonbypass|ready] [--fetch demand|prefetch] \
         [--ports R,W] [--rfc-ports R,W,LW,B] [--banks N]"
    );
    std::process::exit(2);
}

/// The last value of a comma-separated port flag, `N` counts long.
fn ports<const N: usize>(flags: &Flags, flag: &str, shape: &str) -> Option<[u32; N]> {
    flags
        .all(flag)
        .map(|value| {
            let counts: Vec<u32> = value.split(',').map(|n| flags.number(flag, n)).collect();
            counts.try_into().unwrap_or_else(|_| flags.invalid(flag, value, shape))
        })
        .last()
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let rf_flags = "--ports --upper-entries --caching --fetch --rfc-ports --banks";
    let run_flags = "--bench --trace-in --trace-out --arch --insts --warmup --seed";
    let flags = Flags::parse(&argv, &[run_flags, "--window --phys-regs", rf_flags], &[], bail);
    flags.no_positionals("simulate takes only flags");
    // Every register-file flag applies to some architectures only.
    let arch = flags.value("--arch").unwrap_or("rfc");
    let applies: &[&str] = match arch {
        "1cyc" | "2cyc" | "2cyc-full" => &["--ports"],
        "rfc" => &["--upper-entries", "--caching", "--fetch", "--rfc-ports"],
        "replicated" | "onelevel" => &["--banks"],
        other => bail(&format!("unknown architecture {other}")),
    };
    if let Some(flag) = rf_flags.split_whitespace().find(|f| flags.has(f) && !applies.contains(f)) {
        bail(&format!("{flag} does not apply to --arch {arch}"));
    }
    let single_ports = ports(&flags, "--ports", "expected R,W")
        .map_or(PortLimits::UNLIMITED, |[r, w]| PortLimits::limited(r, w));
    let banks = flags.num("--banks").unwrap_or(8);
    let rf = match arch {
        "1cyc" => RegFileConfig::Single(SingleBankConfig::one_cycle().with_ports(single_ports)),
        "2cyc" => RegFileConfig::Single(
            SingleBankConfig::two_cycle_single_bypass().with_ports(single_ports),
        ),
        "2cyc-full" => RegFileConfig::Single(
            SingleBankConfig::two_cycle_full_bypass().with_ports(single_ports),
        ),
        "rfc" => {
            let caching =
                [("nonbypass", CachingPolicy::NonBypass), ("ready", CachingPolicy::Ready)];
            let fetch =
                [("demand", FetchPolicy::OnDemand), ("prefetch", FetchPolicy::PrefetchFirstPair)];
            let mut cfg = RegFileCacheConfig {
                upper_entries: flags.num("--upper-entries").unwrap_or(16),
                ..RegFileCacheConfig::paper_default()
            }
            .with_policies(
                flags.choice("--caching", &caching).unwrap_or(CachingPolicy::NonBypass),
                flags.choice("--fetch", &fetch).unwrap_or(FetchPolicy::PrefetchFirstPair),
            );
            if let Some([r, w, lw, b]) = ports(&flags, "--rfc-ports", "expected R,W,LW,B") {
                cfg = cfg.with_ports(r, w, lw, b);
            }
            RegFileConfig::Cache(cfg)
        }
        "replicated" => RegFileConfig::Replicated(ReplicatedBankConfig {
            banks,
            ..ReplicatedBankConfig::default()
        }),
        "onelevel" => RegFileConfig::OneLevel(OneLevelBankedConfig::wallace(banks)),
        _ => unreachable!("architecture checked above"),
    };
    let bench = flags.value("--bench").unwrap_or("gcc");
    let insts = flags.num("--insts").unwrap_or(DEFAULT_INSTS);
    let warmup = flags.num("--warmup").unwrap_or(DEFAULT_WARMUP);
    let seed = flags.num("--seed").unwrap_or(42);

    let mut pipeline = PipelineConfig::default();
    if let Some(w) = flags.num("--window") {
        pipeline = pipeline.with_window(w);
    }
    if let Some(p) = flags.num("--phys-regs") {
        pipeline = pipeline.with_phys_regs(p);
    }
    if let Err(reason) = pipeline.validate() {
        bail(&format!("invalid pipeline configuration: {reason}"));
    }
    if let Err(reason) = rf.validate(pipeline.phys_regs) {
        bail(&format!("invalid register file configuration: {reason}"));
    }

    // Optional trace capture/replay via the RFCT format.
    if let Some(path) = flags.value("--trace-out") {
        let profile = rfcache_workload::BenchProfile::by_name(bench)
            .unwrap_or_else(|| bail(&format!("unknown benchmark {bench}")));
        let insts: Vec<_> = rfcache_workload::TraceGenerator::new(profile, seed)
            .take((warmup + insts) as usize)
            .collect();
        let file = std::fs::File::create(path).unwrap_or_else(|e| bail(&e.to_string()));
        rfcache_workload::write_trace(std::io::BufWriter::new(file), &insts)
            .unwrap_or_else(|e| bail(&e.to_string()));
        eprintln!("wrote {} instructions to {path}", insts.len());
    }
    let spec = match flags.value("--trace-in") {
        Some(path) => {
            let trace = TraceWorkload::load(path, None, false).unwrap_or_else(|e| bail(&e));
            RunSpec::from_workload(WorkloadSource::Trace(trace), rf)
        }
        None => RunSpec::new(bench, rf).unwrap_or_else(|e| bail(&e)),
    };
    let result = spec.pipeline(pipeline).insts(insts).warmup(warmup).seed(seed).run();

    let m = &result.metrics;
    println!("benchmark: {} | architecture: {rf}", result.bench);
    println!("{m}");
    println!(
        "stalls: rob {} window {} phys-reg {} lsq {} branch-limit {}",
        m.stall_rob_full,
        m.stall_window_full,
        m.stall_no_phys_reg,
        m.stall_lsq_full,
        m.stall_branch_limit
    );
    println!(
        "fetch: {} blocks, {} icache stalls, {} BTB bubbles",
        m.fetch.blocks, m.fetch.icache_stalls, m.fetch.btb_bubbles
    );
    if let Some(rate) = m.dcache_hit_rate {
        println!("dcache hit rate: {:.1}%", rate * 100.0);
    }
    let rf_stats = m.rf_combined();
    println!("register file: {rf_stats}");
    if let Some(frac) = rf_stats.read_at_most_once_fraction() {
        println!("values read at most once: {:.1}%", frac * 100.0);
    }
    if rf_stats.read_port_stalls + rf_stats.write_port_stalls > 0 {
        println!(
            "port pressure: {} read-port stalls, {} write-port stalls",
            rf_stats.read_port_stalls, rf_stats.write_port_stalls
        );
    }
}
