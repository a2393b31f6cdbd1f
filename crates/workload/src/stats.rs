//! Quick statistics over a trace prefix, used to verify that generated
//! streams match their profiles and to report workload characteristics in
//! the experiment output.

use rfcache_isa::{OpClass, TraceInst};
use std::collections::HashMap;

/// Aggregate statistics of a trace prefix.
///
/// # Examples
///
/// ```
/// use rfcache_workload::{BenchProfile, TraceGenerator, TraceStats};
///
/// let p = BenchProfile::by_name("li").unwrap();
/// let stats = TraceStats::collect(TraceGenerator::new(p, 1).take(10_000));
/// assert_eq!(stats.instructions, 10_000);
/// assert!(stats.branch_fraction() > 0.1); // li is branchy
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceStats {
    /// Total instructions inspected.
    pub instructions: u64,
    /// Count per instruction class.
    pub per_class: HashMap<OpClass, u64>,
    /// Register source operands observed.
    pub register_sources: u64,
    /// Source operands whose producer is within 8 dynamic instructions
    /// (values likely to be caught on the bypass network).
    pub near_sources: u64,
    /// Source operands reading a register never written in the window
    /// ("global" values).
    pub global_sources: u64,
    /// Sum of observed dependence distances (for the mean).
    dep_distance_sum: u64,
    /// Dependence distances measured.
    dep_distance_count: u64,
}

impl TraceStats {
    /// Collects statistics over `trace`.
    pub fn collect<I: IntoIterator<Item = TraceInst>>(trace: I) -> Self {
        let mut stats = TraceStats::default();
        // Last writer position of each architectural register.
        let mut last_def: HashMap<rfcache_isa::ArchReg, u64> = HashMap::new();
        for (pos, inst) in trace.into_iter().enumerate() {
            let pos = pos as u64;
            stats.instructions += 1;
            *stats.per_class.entry(inst.op).or_insert(0) += 1;
            for src in inst.sources() {
                stats.register_sources += 1;
                match last_def.get(&src) {
                    Some(&def_pos) => {
                        let d = pos - def_pos;
                        stats.dep_distance_sum += d;
                        stats.dep_distance_count += 1;
                        if d <= 8 {
                            stats.near_sources += 1;
                        }
                    }
                    None => stats.global_sources += 1,
                }
            }
            if let Some(dst) = inst.dst {
                last_def.insert(dst, pos);
            }
        }
        stats
    }

    /// Fraction of instructions in class `op`.
    pub fn class_fraction(&self, op: OpClass) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        *self.per_class.get(&op).unwrap_or(&0) as f64 / self.instructions as f64
    }

    /// Fraction of instructions that are branches.
    pub fn branch_fraction(&self) -> f64 {
        self.class_fraction(OpClass::Branch)
    }

    /// Fraction of instructions that access memory.
    pub fn mem_fraction(&self) -> f64 {
        self.class_fraction(OpClass::Load) + self.class_fraction(OpClass::Store)
    }

    /// Mean producer→consumer distance in dynamic instructions, or `None`
    /// when no dependence was observed.
    pub fn mean_dep_distance(&self) -> Option<f64> {
        (self.dep_distance_count > 0)
            .then(|| self.dep_distance_sum as f64 / self.dep_distance_count as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BenchProfile, TraceGenerator};

    #[test]
    fn empty_trace_is_all_zero() {
        let s = TraceStats::collect(std::iter::empty());
        assert_eq!(s.instructions, 0);
        assert_eq!(s.mean_dep_distance(), None);
        assert_eq!(s.branch_fraction(), 0.0);
    }

    #[test]
    fn int_codes_have_shorter_dependences_than_fp() {
        // Mean producer→consumer distance: integer codes consume sooner
        // (li, gcc ≈ 3.5-4 instructions) than the loop-parallel FP codes
        // (fpppp, mgrid, swim ≈ 5-6).
        let dist = |name: &str| {
            TraceStats::collect(
                TraceGenerator::new(BenchProfile::by_name(name).unwrap(), 1).take(30_000),
            )
            .mean_dep_distance()
            .unwrap()
        };
        let int = (dist("li") + dist("gcc")) / 2.0;
        let fp = (dist("fpppp") + dist("mgrid") + dist("swim")) / 3.0;
        assert!(int < fp, "int {int} vs fp {fp}");
        assert!(int > 1.0 && fp < 20.0, "distances sane: {int}, {fp}");
    }

    #[test]
    fn class_fractions_sum_to_one() {
        let s = TraceStats::collect(
            TraceGenerator::new(BenchProfile::by_name("applu").unwrap(), 9).take(20_000),
        );
        let total: f64 = OpClass::ALL.iter().map(|&op| s.class_fraction(op)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}
