//! Scenario tests for the fetch engine: interactions between redirects,
//! icache misses, BTB state, and trace boundaries that the unit tests do
//! not cover.

use rfcache_frontend::{FetchConfig, FetchUnit};
use rfcache_isa::{ArchReg, OpClass, TraceInst};

fn alu(pc: u64) -> TraceInst {
    TraceInst::alu(OpClass::IntAlu, ArchReg::int(1), ArchReg::int(2), ArchReg::int(3)).with_pc(pc)
}

#[test]
fn back_to_back_mispredicts_each_wait_for_their_redirect() {
    // Two consecutive hard-to-predict branches.
    let trace = vec![
        TraceInst::branch(ArchReg::int(1), true, 0x2000, 0x1000),
        TraceInst::branch(ArchReg::int(1), false, 0x3000, 0x2000),
        alu(0x2004),
    ];
    let mut f = FetchUnit::new(FetchConfig::default(), trace.into_iter());
    let mut fetched = Vec::new();
    let mut now = 0;
    while fetched.len() < 3 && now < 100 {
        let block = f.fetch_block(now);
        let redirect = f.awaiting_redirect() && !block.is_empty();
        fetched.extend(block);
        if redirect {
            // Resolve after a fixed 5-cycle latency.
            f.redirect(now + 5);
        }
        now += 1;
    }
    assert_eq!(fetched.len(), 3, "all instructions eventually fetched");
    // The first branch was mispredicted by the cold predictor.
    assert!(fetched[0].mispredicted);
}

#[test]
fn redirect_during_icache_stall_respects_both_delays() {
    let trace = vec![TraceInst::branch(ArchReg::int(1), true, 0x9000, 0x1000), alu(0x9000)];
    let mut f = FetchUnit::new(FetchConfig::default(), trace.into_iter());
    // Cold miss at cycle 0; branch fetched once the line arrives.
    assert!(f.fetch_block(0).is_empty());
    let block = f.fetch_block(6);
    assert_eq!(block.len(), 1);
    assert!(f.awaiting_redirect());
    // Resolve immediately: fetch resumes the cycle after, with a fresh
    // cold miss on the target line.
    f.redirect(7);
    assert!(f.fetch_block(8).is_empty(), "target line is cold");
    let block = f.fetch_block(14);
    assert_eq!(block.len(), 1);
    assert_eq!(block[0].inst.pc, 0x9000);
}

#[test]
fn delivery_follows_trace_order_across_redirects() {
    let mut trace = Vec::new();
    for i in 0..20u64 {
        trace.push(TraceInst::branch(
            ArchReg::int(1),
            i % 2 == 0,
            0x1000 + (i + 1) * 4,
            0x1000 + i * 4,
        ));
    }
    let mut f = FetchUnit::new(FetchConfig::default(), trace.into_iter());
    let mut pcs = Vec::new();
    for now in 0..300 {
        for fi in f.fetch_block(now) {
            pcs.push(fi.inst.pc);
        }
        if f.awaiting_redirect() {
            f.redirect(now);
        }
    }
    // Every instruction arrives once, in trace order: the reorder buffer
    // numbers them in this order at dispatch.
    assert_eq!(pcs, (0..20).map(|i| 0x1000 + i * 4).collect::<Vec<u64>>());
}

#[test]
fn stats_totals_are_consistent() {
    let trace: Vec<TraceInst> = (0..200).map(|i| alu(0x1000 + i * 4)).collect();
    let mut f = FetchUnit::new(FetchConfig::default(), trace.into_iter());
    let mut total = 0;
    for now in 0..500 {
        total += f.fetch_block(now).len();
    }
    assert_eq!(total, 200);
    assert_eq!(f.stats().fetched, 200);
    assert!(f.stats().blocks >= 200 / 8);
    assert_eq!(f.stats().branches, 0);
}
