//! Configuration types for the register file architectures.

use std::fmt;

/// Bypass network extent for a multi-cycle register file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BypassNetwork {
    /// One bypass level per read-stage cycle: a dependent instruction can
    /// start executing the cycle after its producer finishes
    /// (back-to-back). This is the expensive option the paper wants to
    /// avoid for multi-cycle files.
    Full,
    /// Only the last bypass level is kept; values are catchable from the
    /// network exactly `read_latency` cycles after production, leaving no
    /// availability holes but sacrificing back-to-back execution when the
    /// read latency exceeds one cycle.
    SingleLevel,
}

impl fmt::Display for BypassNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BypassNetwork::Full => write!(f, "full bypass"),
            BypassNetwork::SingleLevel => write!(f, "1 bypass level"),
        }
    }
}

/// Which produced values are written into the upper level of the register
/// file cache (§3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CachingPolicy {
    /// Cache every result that was *not* read from the bypass network.
    NonBypass,
    /// Cache only results that are source operands of a not-yet-issued
    /// instruction whose operands are now all available.
    Ready,
}

impl fmt::Display for CachingPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CachingPolicy::NonBypass => write!(f, "non-bypass caching"),
            CachingPolicy::Ready => write!(f, "ready caching"),
        }
    }
}

/// How values are moved from the lower to the upper level (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FetchPolicy {
    /// Transfer an operand only once an instruction that needs it has all
    /// its operands available.
    OnDemand,
    /// Additionally, when an instruction issues, prefetch the other source
    /// operand of the first instruction in the window that consumes its
    /// result.
    PrefetchFirstPair,
}

impl fmt::Display for FetchPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FetchPolicy::OnDemand => write!(f, "fetch-on-demand"),
            FetchPolicy::PrefetchFirstPair => write!(f, "prefetch-first-pair"),
        }
    }
}

/// Replacement policy of the upper bank (the paper uses pseudo-LRU; the
/// alternatives support the ablation study in the benchmark suite).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Replacement {
    /// Tree pseudo-LRU (the paper's choice).
    #[default]
    PseudoLru,
    /// First-in first-out.
    Fifo,
    /// Pseudo-random (xorshift over the slot index).
    Random,
}

impl fmt::Display for Replacement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Replacement::PseudoLru => write!(f, "pseudo-LRU"),
            Replacement::Fifo => write!(f, "FIFO"),
            Replacement::Random => write!(f, "random"),
        }
    }
}

/// Per-cycle port limits; `None` models the paper's "unlimited bandwidth"
/// experiments (Figures 5–7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PortLimits {
    /// Read ports usable per cycle.
    pub read: Option<u32>,
    /// Write ports usable per cycle.
    pub write: Option<u32>,
}

impl PortLimits {
    /// Unlimited read and write bandwidth.
    pub const UNLIMITED: PortLimits = PortLimits { read: None, write: None };

    /// Limited to `read`/`write` ports per cycle.
    pub fn limited(read: u32, write: u32) -> Self {
        PortLimits { read: Some(read), write: Some(write) }
    }
}

/// Configuration of a conventional single-banked register file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SingleBankConfig {
    /// Register read latency in cycles (issue → execute distance).
    pub latency: u64,
    /// Bypass network extent.
    pub bypass: BypassNetwork,
    /// Port limits.
    pub ports: PortLimits,
}

impl SingleBankConfig {
    /// The paper's baseline: 1-cycle access, one bypass level, unlimited
    /// ports. (With a 1-cycle file a single bypass level *is* full bypass.)
    pub fn one_cycle() -> Self {
        SingleBankConfig {
            latency: 1,
            bypass: BypassNetwork::SingleLevel,
            ports: PortLimits::UNLIMITED,
        }
    }

    /// Two-cycle file with only the last bypass level.
    pub fn two_cycle_single_bypass() -> Self {
        SingleBankConfig {
            latency: 2,
            bypass: BypassNetwork::SingleLevel,
            ports: PortLimits::UNLIMITED,
        }
    }

    /// Two-cycle file with a full (two-level) bypass network.
    pub fn two_cycle_full_bypass() -> Self {
        SingleBankConfig { latency: 2, bypass: BypassNetwork::Full, ports: PortLimits::UNLIMITED }
    }

    /// Replaces the port limits (builder-style).
    #[must_use]
    pub fn with_ports(mut self, ports: PortLimits) -> Self {
        self.ports = ports;
        self
    }
}

/// Configuration of the register file cache (two-level organization).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegFileCacheConfig {
    /// Upper-bank entries (16 in the paper).
    pub upper_entries: usize,
    /// Lower-bank access latency in cycles (2 for every Table 2 config).
    pub lower_latency: u64,
    /// Caching policy for produced results.
    pub caching: CachingPolicy,
    /// Transfer policy for upper-bank misses.
    pub fetch: FetchPolicy,
    /// Upper-bank replacement policy.
    pub replacement: Replacement,
    /// Upper-bank read ports per cycle (`None` = unlimited).
    pub upper_read_ports: Option<u32>,
    /// Upper-bank result-write ports per cycle (`None` = unlimited). Bus
    /// arrivals use dedicated ports and are not counted here.
    pub upper_write_ports: Option<u32>,
    /// Lower-bank write ports per cycle (`None` = unlimited).
    pub lower_write_ports: Option<u32>,
    /// Inter-level transfer buses (`None` = unlimited).
    pub buses: Option<u32>,
}

impl RegFileCacheConfig {
    /// The paper's best configuration at unlimited bandwidth: 16-entry
    /// upper bank, 2-cycle lower bank, non-bypass caching with
    /// prefetch-first-pair, pseudo-LRU replacement.
    pub fn paper_default() -> Self {
        RegFileCacheConfig {
            upper_entries: 16,
            lower_latency: 2,
            caching: CachingPolicy::NonBypass,
            fetch: FetchPolicy::PrefetchFirstPair,
            replacement: Replacement::PseudoLru,
            upper_read_ports: None,
            upper_write_ports: None,
            lower_write_ports: None,
            buses: None,
        }
    }

    /// Variant with different policies (builder-style).
    #[must_use]
    pub fn with_policies(mut self, caching: CachingPolicy, fetch: FetchPolicy) -> Self {
        self.caching = caching;
        self.fetch = fetch;
        self
    }

    /// Variant with Table 2-style port limits (builder-style).
    #[must_use]
    pub fn with_ports(
        mut self,
        upper_read: u32,
        upper_write: u32,
        lower_write: u32,
        buses: u32,
    ) -> Self {
        self.upper_read_ports = Some(upper_read);
        self.upper_write_ports = Some(upper_write);
        self.lower_write_ports = Some(lower_write);
        self.buses = Some(buses);
        self
    }
}

/// Configuration of a one-level replicated-bank organization (Alpha 21264
/// style, §5 of the paper): every result is written to all banks, with a
/// one-cycle delay to remote banks; each functional-unit cluster reads its
/// local bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReplicatedConfig {
    /// Number of replicated banks (2 in the 21264 integer unit).
    pub banks: u32,
    /// Per-bank read-port limit (`None` = unlimited).
    pub read_ports_per_bank: Option<u32>,
    /// Extra cycles before a result becomes readable in remote banks.
    pub remote_write_delay: u64,
}

impl Default for ReplicatedConfig {
    fn default() -> Self {
        ReplicatedConfig { banks: 2, read_ports_per_bank: None, remote_write_delay: 1 }
    }
}

/// Any register file architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegFileConfig {
    /// Conventional single-banked file.
    Single(SingleBankConfig),
    /// The two-level register file cache.
    Cache(RegFileCacheConfig),
    /// One-level replicated banks.
    Replicated(ReplicatedConfig),
    /// One-level banked organization without replication.
    OneLevel(crate::OneLevelBankedConfig),
}

impl RegFileConfig {
    /// Register read latency (issue → execute distance) of the
    /// architecture.
    pub fn read_latency(&self) -> u64 {
        match self {
            RegFileConfig::Single(c) => c.latency,
            RegFileConfig::Cache(_) | RegFileConfig::Replicated(_) | RegFileConfig::OneLevel(_) => {
                1
            }
        }
    }

    /// Checks that a model of this architecture can be built for
    /// `phys_regs` physical registers.
    ///
    /// # Errors
    ///
    /// Names the violated bound: no physical registers, a zero read
    /// latency, an upper bank of fewer than two entries, not a power of
    /// two under pseudo-LRU, or not smaller than the register file, a zero
    /// lower-bank latency, no banks, more banks than physical registers
    /// (such a bank holds no register of its own, yet the models keep
    /// its port counters every cycle), or a port or bus limit of 0, which
    /// builds a file that can never read or write a value. (A cache's
    /// `upper_write_ports` may be 0: results then reach the upper bank
    /// by transfer.)
    pub fn validate(&self, phys_regs: usize) -> Result<(), String> {
        if phys_regs == 0 {
            return Err("phys_regs must be at least 1".to_string());
        }
        match *self {
            RegFileConfig::Single(c) if c.latency == 0 => Err("latency must be at least 1".into()),
            RegFileConfig::Cache(c) => {
                let n = c.upper_entries;
                if n < 2 {
                    Err(format!("upper_entries {n} must be at least 2"))
                } else if c.replacement == Replacement::PseudoLru && !n.is_power_of_two() {
                    Err(format!("upper_entries {n} must be a power of two under pseudo-LRU"))
                } else if n >= phys_regs {
                    Err(format!("upper_entries {n} must be fewer than phys_regs {phys_regs}"))
                } else if c.lower_latency == 0 {
                    Err("lower_latency must be at least 1".into())
                } else {
                    Ok(())
                }
            }
            RegFileConfig::Replicated(ReplicatedConfig { banks, .. })
            | RegFileConfig::OneLevel(crate::OneLevelBankedConfig { banks, .. }) => {
                if banks == 0 {
                    Err("banks must be at least 1".into())
                } else if banks as usize > phys_regs {
                    Err(format!("banks {banks} must be at most phys_regs {phys_regs}"))
                } else {
                    Ok(())
                }
            }
            _ => Ok(()),
        }?;
        match self.port_limits().into_iter().find(|&(_, limit)| limit == Some(0)) {
            Some((field, _)) => Err(format!("{field} must be at least 1")),
            None => Ok(()),
        }
    }

    /// The port and bus limits of the architecture, by field name: each
    /// must allow at least one access per cycle.
    fn port_limits(&self) -> Vec<(&'static str, Option<u32>)> {
        match *self {
            RegFileConfig::Single(c) => {
                vec![("read_ports", c.ports.read), ("write_ports", c.ports.write)]
            }
            RegFileConfig::Cache(c) => vec![
                ("upper_read_ports", c.upper_read_ports),
                ("lower_write_ports", c.lower_write_ports),
                ("buses", c.buses),
            ],
            RegFileConfig::Replicated(c) => vec![("read_ports_per_bank", c.read_ports_per_bank)],
            RegFileConfig::OneLevel(c) => vec![
                ("read_ports_per_bank", c.read_ports_per_bank),
                ("write_ports_per_bank", c.write_ports_per_bank),
            ],
        }
    }
}

impl fmt::Display for RegFileConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegFileConfig::Single(c) => {
                write!(f, "{}-cycle single-banked, {}", c.latency, c.bypass)
            }
            RegFileConfig::Cache(c) => {
                write!(f, "register file cache ({} + {})", c.caching, c.fetch)
            }
            RegFileConfig::Replicated(c) => write!(f, "{}-bank replicated", c.banks),
            RegFileConfig::OneLevel(c) => write!(f, "{}-bank one-level", c.banks),
        }
    }
}

pub use self::ReplicatedConfig as ReplicatedBankConfig;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_latencies() {
        assert_eq!(SingleBankConfig::one_cycle().latency, 1);
        assert_eq!(SingleBankConfig::two_cycle_single_bypass().latency, 2);
        assert_eq!(SingleBankConfig::two_cycle_full_bypass().bypass, BypassNetwork::Full);
        assert_eq!(RegFileCacheConfig::paper_default().upper_entries, 16);
    }

    #[test]
    fn read_latency_per_architecture() {
        assert_eq!(
            RegFileConfig::Single(SingleBankConfig::two_cycle_full_bypass()).read_latency(),
            2
        );
        assert_eq!(RegFileConfig::Cache(RegFileCacheConfig::paper_default()).read_latency(), 1);
        assert_eq!(RegFileConfig::Replicated(ReplicatedConfig::default()).read_latency(), 1);
    }

    #[test]
    fn builders_compose() {
        let c = RegFileCacheConfig::paper_default()
            .with_policies(CachingPolicy::Ready, FetchPolicy::OnDemand)
            .with_ports(4, 3, 2, 3);
        assert_eq!(c.caching, CachingPolicy::Ready);
        assert_eq!(c.buses, Some(3));
        let s = SingleBankConfig::one_cycle().with_ports(PortLimits::limited(3, 2));
        assert_eq!(s.ports.read, Some(3));
    }

    #[test]
    fn zero_port_and_bus_counts_are_rejected_by_field() {
        let single = SingleBankConfig::one_cycle();
        let cache = RegFileCacheConfig::paper_default();
        let replicated = ReplicatedConfig::default();
        let onelevel = crate::OneLevelBankedConfig::default();
        let cases = [
            (RegFileConfig::Cache(RegFileCacheConfig { buses: Some(0), ..cache }), "buses"),
            (
                RegFileConfig::Cache(RegFileCacheConfig { upper_read_ports: Some(0), ..cache }),
                "upper_read_ports",
            ),
            (
                RegFileConfig::Cache(RegFileCacheConfig { lower_write_ports: Some(0), ..cache }),
                "lower_write_ports",
            ),
            (RegFileConfig::Single(single.with_ports(PortLimits::limited(0, 2))), "read_ports"),
            (RegFileConfig::Single(single.with_ports(PortLimits::limited(2, 0))), "write_ports"),
            (
                RegFileConfig::Replicated(ReplicatedConfig {
                    read_ports_per_bank: Some(0),
                    ..replicated
                }),
                "read_ports_per_bank",
            ),
            (
                RegFileConfig::OneLevel(crate::OneLevelBankedConfig {
                    read_ports_per_bank: Some(0),
                    ..onelevel
                }),
                "read_ports_per_bank",
            ),
            (
                RegFileConfig::OneLevel(crate::OneLevelBankedConfig {
                    write_ports_per_bank: Some(0),
                    ..onelevel
                }),
                "write_ports_per_bank",
            ),
        ];
        for (config, field) in cases {
            assert_eq!(
                config.validate(128),
                Err(format!("{field} must be at least 1")),
                "{config:?}"
            );
        }
        // One port or bus is enough to make progress, and results reach
        // an upper bank without write ports by transfer.
        let ones = [
            RegFileConfig::Cache(cache.with_ports(1, 0, 1, 1)),
            RegFileConfig::Single(single.with_ports(PortLimits::limited(1, 1))),
            RegFileConfig::Replicated(ReplicatedConfig {
                read_ports_per_bank: Some(1),
                ..replicated
            }),
            RegFileConfig::OneLevel(crate::OneLevelBankedConfig::wallace(8)),
        ];
        for config in ones {
            assert_eq!(config.validate(128), Ok(()), "{config:?}");
        }
    }

    #[test]
    fn bank_counts_are_bounded_by_phys_regs() {
        let replicated =
            |banks| RegFileConfig::Replicated(ReplicatedConfig { banks, ..Default::default() });
        let onelevel = |banks| RegFileConfig::OneLevel(crate::OneLevelBankedConfig::wallace(banks));
        let cases = [
            (replicated(0), Err("banks must be at least 1".to_string())),
            (onelevel(0), Err("banks must be at least 1".to_string())),
            (replicated(128), Ok(())),
            (onelevel(128), Ok(())),
            (replicated(129), Err("banks 129 must be at most phys_regs 128".to_string())),
            (onelevel(u32::MAX), Err(format!("banks {} must be at most phys_regs 128", u32::MAX))),
        ];
        for (config, expected) in cases {
            assert_eq!(config.validate(128), expected, "{config:?}");
        }
    }

    #[test]
    fn display_strings_match_paper_vocabulary() {
        let rfc = RegFileConfig::Cache(RegFileCacheConfig::paper_default());
        let s = rfc.to_string();
        assert!(s.contains("non-bypass caching"), "{s}");
        assert!(s.contains("prefetch-first-pair"), "{s}");
    }
}
