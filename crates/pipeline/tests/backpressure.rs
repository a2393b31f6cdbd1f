//! Structural-hazard and backpressure tests for the out-of-order core:
//! each test constricts exactly one resource and checks both that the
//! machine still completes correctly and that the corresponding stall
//! counter (and only that mechanism) reports pressure.

use rfcache_core::{PortLimits, RegFileConfig, SingleBankConfig};
use rfcache_isa::{ArchReg, OpClass, TraceInst};
use rfcache_pipeline::{Cpu, PipelineConfig};
use rfcache_workload::{BenchProfile, TraceGenerator};

fn one_cycle() -> RegFileConfig {
    RegFileConfig::Single(SingleBankConfig::one_cycle())
}

/// A looping block of independent ALU ops (pcs repeat so the icache hits).
fn alu_stream(n: usize) -> Vec<TraceInst> {
    (0..n)
        .map(|i| {
            TraceInst::alu(
                OpClass::IntAlu,
                ArchReg::int(1 + (i % 20) as u8),
                ArchReg::int(30),
                ArchReg::int(31),
            )
            .with_pc(0x1000 + (i as u64 % 64) * 4)
        })
        .collect()
}

/// A looping stream of independent loads hitting the same hot line.
fn load_stream(n: usize) -> Vec<TraceInst> {
    (0..n)
        .map(|i| {
            TraceInst::load(
                ArchReg::int(1 + (i % 20) as u8),
                ArchReg::int(30),
                0x2000 + (i as u64 % 8) * 8,
                0x1000 + (i as u64 % 64) * 4,
            )
        })
        .collect()
}

#[test]
fn write_port_backpressure_throttles_but_preserves_correctness() {
    let n = 3000u64;
    let unlimited = {
        let mut cpu =
            Cpu::new(PipelineConfig::default(), one_cycle(), alu_stream(n as usize).into_iter());
        cpu.run(n)
    };
    let throttled = {
        let rf = RegFileConfig::Single(
            SingleBankConfig::one_cycle().with_ports(PortLimits::limited(16, 1)),
        );
        let mut cpu = Cpu::new(PipelineConfig::default(), rf, alu_stream(n as usize).into_iter());
        cpu.run(n)
    };
    assert_eq!(throttled.committed, n);
    // One write port bounds sustained throughput at 1 result/cycle.
    assert!(throttled.ipc() <= 1.05, "ipc {}", throttled.ipc());
    assert!(unlimited.ipc() > 2.0 * throttled.ipc());
    assert!(throttled.rf_combined().write_port_stalls > 0);
}

#[test]
fn lsq_capacity_stalls_dispatch() {
    let n = 2000u64;
    let config = PipelineConfig { lsq_size: 4, ..PipelineConfig::default() };
    let mut cpu = Cpu::new(config, one_cycle(), load_stream(n as usize).into_iter());
    let m = cpu.run(n);
    assert_eq!(m.committed, n);
    assert!(m.stall_lsq_full > 0, "tiny LSQ must throttle dispatch");
}

#[test]
fn branch_checkpoint_limit_stalls_dispatch() {
    // A stream of well-predictable taken branches in a tight loop.
    let mut trace = Vec::new();
    for i in 0..2000u64 {
        trace.push(TraceInst::branch(ArchReg::int(30), true, 0x1000, 0x1000));
        trace.push(
            TraceInst::alu(OpClass::IntAlu, ArchReg::int(1), ArchReg::int(30), ArchReg::int(31))
                .with_pc(0x1000 + (i % 2) * 4),
        );
    }
    let total = trace.len() as u64;
    let config = PipelineConfig { max_branches: 2, ..PipelineConfig::default() };
    let mut cpu = Cpu::new(config, one_cycle(), trace.into_iter());
    let m = cpu.run(total);
    assert_eq!(m.committed, total);
    assert!(m.stall_branch_limit > 0, "a 2-branch limit must throttle a branchy stream");
}

#[test]
fn physical_register_shortage_stalls_dispatch() {
    let n = 3000u64;
    // 40 physical registers = 32 architectural + 8 in flight.
    let config = PipelineConfig::default().with_phys_regs(40);
    let mut cpu = Cpu::new(config, one_cycle(), alu_stream(n as usize).into_iter());
    let m = cpu.run(n);
    assert_eq!(m.committed, n);
    assert!(m.stall_no_phys_reg > 0);
    cpu.check_register_accounting();
}

#[test]
fn finite_trace_drains_completely() {
    let trace = alu_stream(777);
    let mut cpu = Cpu::new(PipelineConfig::default(), one_cycle(), trace.into_iter());
    // Ask for more than the trace holds: the run must terminate anyway.
    let m = cpu.run(10_000);
    assert_eq!(m.committed, 777);
}

#[test]
fn issue_width_one_serializes() {
    let n = 2000u64;
    let config = PipelineConfig { issue_width: 1, ..PipelineConfig::default() };
    let mut cpu = Cpu::new(config, one_cycle(), alu_stream(n as usize).into_iter());
    let m = cpu.run(n);
    assert_eq!(m.committed, n);
    assert!(m.ipc() <= 1.02, "issue width 1 bounds IPC: {}", m.ipc());
}

#[test]
fn rfc_with_one_bus_still_completes_workloads() {
    use rfcache_core::RegFileCacheConfig;
    let p = BenchProfile::by_name("compress").unwrap();
    let cfg = RegFileCacheConfig::paper_default().with_ports(3, 2, 2, 1);
    let mut cpu =
        Cpu::new(PipelineConfig::default(), RegFileConfig::Cache(cfg), TraceGenerator::new(p, 4));
    let m = cpu.run(10_000);
    assert!(m.committed >= 10_000);
    assert!(m.rf_combined().demand_transfers > 0);
    cpu.check_register_accounting();
}

#[test]
fn dcache_misses_show_up_in_hit_rate() {
    // Loads spread far beyond the 64KB cache: every line is a miss.
    let n = 2000usize;
    let trace: Vec<TraceInst> = (0..n)
        .map(|i| {
            TraceInst::load(
                ArchReg::int(1 + (i % 20) as u8),
                ArchReg::int(30),
                (i as u64) * 4096,
                0x1000 + (i as u64 % 64) * 4,
            )
        })
        .collect();
    let mut cpu = Cpu::new(PipelineConfig::default(), one_cycle(), trace.into_iter());
    let m = cpu.run(n as u64);
    assert!(m.dcache_hit_rate.unwrap() < 0.1, "{:?}", m.dcache_hit_rate);
}
