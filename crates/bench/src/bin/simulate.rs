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
//! A malformed flag value, an invalid pipeline configuration and an
//! unreadable or empty trace exit 2 with the reason.

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

struct Args {
    bench: String,
    trace_in: Option<String>,
    trace_out: Option<String>,
    arch: String,
    insts: u64,
    warmup: u64,
    seed: u64,
    window: Option<usize>,
    phys_regs: Option<usize>,
    upper_entries: usize,
    caching: CachingPolicy,
    fetch: FetchPolicy,
    ports: Option<(u32, u32)>,
    rfc_ports: Option<(u32, u32, u32, u32)>,
    banks: u32,
}

fn parse_args() -> Args {
    let mut args = Args {
        bench: "gcc".into(),
        trace_in: None,
        trace_out: None,
        arch: "rfc".into(),
        insts: DEFAULT_INSTS,
        warmup: DEFAULT_WARMUP,
        seed: 42,
        window: None,
        phys_regs: None,
        upper_entries: 16,
        caching: CachingPolicy::NonBypass,
        fetch: FetchPolicy::PrefetchFirstPair,
        ports: None,
        rfc_ports: None,
        banks: 8,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| bail("missing value"));
        match flag.as_str() {
            "--bench" => args.bench = value(),
            "--trace-in" => args.trace_in = Some(value()),
            "--trace-out" => args.trace_out = Some(value()),
            "--arch" => args.arch = value(),
            "--insts" => args.insts = value().parse().unwrap_or_else(|_| bail("bad --insts")),
            "--warmup" => args.warmup = value().parse().unwrap_or_else(|_| bail("bad --warmup")),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| bail("bad --seed")),
            "--window" => {
                args.window = Some(value().parse().unwrap_or_else(|_| bail("bad --window")))
            }
            "--phys-regs" => {
                args.phys_regs = Some(value().parse().unwrap_or_else(|_| bail("bad --phys-regs")))
            }
            "--upper-entries" => {
                args.upper_entries = value().parse().unwrap_or_else(|_| bail("bad --upper-entries"))
            }
            "--caching" => {
                args.caching = match value().as_str() {
                    "nonbypass" => CachingPolicy::NonBypass,
                    "ready" => CachingPolicy::Ready,
                    _ => bail("bad --caching"),
                }
            }
            "--fetch" => {
                args.fetch = match value().as_str() {
                    "demand" => FetchPolicy::OnDemand,
                    "prefetch" => FetchPolicy::PrefetchFirstPair,
                    _ => bail("bad --fetch"),
                }
            }
            "--ports" => {
                let v = value();
                let parts: Vec<u32> = v.split(',').filter_map(|s| s.parse().ok()).collect();
                if parts.len() != 2 {
                    bail("bad --ports, expected R,W");
                }
                args.ports = Some((parts[0], parts[1]));
            }
            "--rfc-ports" => {
                let v = value();
                let parts: Vec<u32> = v.split(',').filter_map(|s| s.parse().ok()).collect();
                if parts.len() != 4 {
                    bail("bad --rfc-ports, expected R,W,LW,B");
                }
                args.rfc_ports = Some((parts[0], parts[1], parts[2], parts[3]));
            }
            "--banks" => args.banks = value().parse().unwrap_or_else(|_| bail("bad --banks")),
            other => bail(&format!("unknown flag {other}")),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let single_ports =
        args.ports.map(|(r, w)| PortLimits::limited(r, w)).unwrap_or(PortLimits::UNLIMITED);
    let rf = match args.arch.as_str() {
        "1cyc" => RegFileConfig::Single(SingleBankConfig::one_cycle().with_ports(single_ports)),
        "2cyc" => RegFileConfig::Single(
            SingleBankConfig::two_cycle_single_bypass().with_ports(single_ports),
        ),
        "2cyc-full" => RegFileConfig::Single(
            SingleBankConfig::two_cycle_full_bypass().with_ports(single_ports),
        ),
        "rfc" => {
            let mut cfg = RegFileCacheConfig {
                upper_entries: args.upper_entries,
                ..RegFileCacheConfig::paper_default()
            }
            .with_policies(args.caching, args.fetch);
            if let Some((r, w, lw, b)) = args.rfc_ports {
                cfg = cfg.with_ports(r, w, lw, b);
            }
            RegFileConfig::Cache(cfg)
        }
        "replicated" => RegFileConfig::Replicated(ReplicatedBankConfig {
            banks: args.banks,
            ..ReplicatedBankConfig::default()
        }),
        "onelevel" => RegFileConfig::OneLevel(OneLevelBankedConfig::wallace(args.banks)),
        other => bail(&format!("unknown architecture {other}")),
    };

    let mut pipeline = PipelineConfig::default();
    if let Some(w) = args.window {
        pipeline = pipeline.with_window(w);
    }
    if let Some(p) = args.phys_regs {
        pipeline = pipeline.with_phys_regs(p);
    }
    if let Err(reason) = pipeline.validate() {
        bail(&format!("invalid pipeline configuration: {reason}"));
    }

    // Optional trace capture/replay via the RFCT format.
    if let Some(path) = &args.trace_out {
        let profile = rfcache_workload::BenchProfile::by_name(&args.bench)
            .unwrap_or_else(|| bail("unknown benchmark"));
        let insts: Vec<_> = rfcache_workload::TraceGenerator::new(profile, args.seed)
            .take((args.warmup + args.insts) as usize)
            .collect();
        let file = std::fs::File::create(path).unwrap_or_else(|e| bail(&e.to_string()));
        rfcache_workload::write_trace(std::io::BufWriter::new(file), &insts)
            .unwrap_or_else(|e| bail(&e.to_string()));
        eprintln!("wrote {} instructions to {path}", insts.len());
    }
    let spec = match &args.trace_in {
        Some(path) => {
            let trace = TraceWorkload::load(path, None, false).unwrap_or_else(|e| bail(&e));
            RunSpec::from_workload(WorkloadSource::Trace(trace), rf)
        }
        None => RunSpec::new(&args.bench, rf).unwrap_or_else(|e| bail(&e)),
    };
    let result =
        spec.pipeline(pipeline).insts(args.insts).warmup(args.warmup).seed(args.seed).run();

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
