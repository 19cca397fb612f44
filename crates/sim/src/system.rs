//! Multi-channel memory systems.
//!
//! The paper evaluates a single channel ("one-channel, one-rank, one-bank"
//! refresh command policy), but DRAMsim-class simulators support several
//! independent channels with address interleaving, and Smart Refresh
//! composes per channel: each channel's controller keeps its own counter
//! array over its own rows. [`MultiChannelSystem`] provides that substrate
//! and checks that the composition preserves every per-channel guarantee.

use smartrefresh_core::{CbrDistributed, RefreshPolicy};
use smartrefresh_ctrl::{
    AccessResult, ControllerStats, DarpConfig, EccConfig, MemTransaction, MemoryController,
    SimError,
};
use smartrefresh_dram::time::{Duration, Instant};
use smartrefresh_dram::{ModuleConfig, OpStats};
use smartrefresh_faults::FaultInjector;

use crate::experiment::PolicyKind;

/// Several independent channels behind one physical address space.
///
/// Consecutive `interleave_bytes`-sized blocks rotate across channels; the
/// per-channel address is the global address with the channel bits squeezed
/// out, so each channel sees a dense local space.
///
/// Every channel runs the same policy type `P`. The default,
/// `Box<dyn RefreshPolicy>`, is what [`new`](MultiChannelSystem::new)
/// builds from a [`PolicyKind`]; [`with_policy`](MultiChannelSystem::with_policy)
/// takes a concrete policy instead, so every policy hook on the access
/// and maintenance paths is a direct, inlinable call rather than a
/// virtual one.
///
/// # Examples
///
/// ```
/// use smartrefresh_dram::configs::conventional_2gb;
/// use smartrefresh_dram::time::Instant;
/// use smartrefresh_sim::system::MultiChannelSystem;
/// use smartrefresh_sim::PolicyKind;
///
/// let mut sys = MultiChannelSystem::new(conventional_2gb(), 2, 4096, || {
///     PolicyKind::CbrDistributed
/// })?;
/// sys.access(0, false, Instant::ZERO)?;      // channel 0
/// sys.access(4096, false, Instant::ZERO)?;   // channel 1
/// assert_eq!(sys.channels(), 2);
/// # Ok::<(), smartrefresh_ctrl::SimError>(())
/// ```
///
/// The same system with statically dispatched channels:
///
/// ```
/// use smartrefresh_core::CbrDistributed;
/// use smartrefresh_dram::configs::conventional_2gb;
/// use smartrefresh_dram::time::Instant;
/// use smartrefresh_sim::system::MultiChannelSystem;
///
/// let module = conventional_2gb();
/// let (g, r) = (module.geometry, module.timing.retention);
/// let mut sys = MultiChannelSystem::with_policy(module, 2, 4096, || CbrDistributed::new(g, r))?;
/// sys.access(4096, false, Instant::ZERO)?;   // channel 1
/// assert_eq!(sys.channel(1).stats().transactions, 1);
/// # Ok::<(), smartrefresh_ctrl::SimError>(())
/// ```
pub struct MultiChannelSystem<P: RefreshPolicy = Box<dyn RefreshPolicy>> {
    controllers: Vec<MemoryController<P>>,
    interleave_bytes: u64,
    /// `log2(interleave_bytes)`: routing splits an address into block
    /// index and in-block offset with a shift and a mask.
    block_shift: u32,
    /// `log2(channels)`: the channel is the block index's low bits.
    channel_shift: u32,
    /// Worker threads [`advance_to`](Self::advance_to) shards channels
    /// across (1 = sequential). Channels are independent simulations
    /// between coordination points and results merge in channel order, so
    /// the count changes wall-clock, never results.
    threads: usize,
}

/// A system of distributed-CBR channels, the policy the maintenance
/// campaigns (hot channel, co-scheduling) run on every channel.
pub(crate) type CbrSystem = MultiChannelSystem<CbrDistributed>;

impl<P: RefreshPolicy> std::fmt::Debug for MultiChannelSystem<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiChannelSystem")
            .field("channels", &self.controllers.len())
            .field("interleave_bytes", &self.interleave_bytes)
            .finish()
    }
}

impl MultiChannelSystem {
    /// Builds `channels` identical channels of `module`, each with the
    /// boxed policy `policy_of` names (called once per channel, so
    /// policies can be independently seeded) — the front door for callers
    /// that pick the policy at run time. See
    /// [`with_policy`](MultiChannelSystem::with_policy) for the invariants.
    ///
    /// # Errors
    ///
    /// As [`with_policy`](MultiChannelSystem::with_policy).
    pub fn new<F>(
        module: ModuleConfig,
        channels: u32,
        interleave_bytes: u64,
        mut policy_of: F,
    ) -> Result<Self, SimError>
    where
        F: FnMut() -> PolicyKind,
    {
        let template = module.clone();
        Self::with_policy(module, channels, interleave_bytes, || {
            policy_of().build(&template)
        })
    }
}

impl<P: RefreshPolicy> MultiChannelSystem<P> {
    /// Builds `channels` identical channels of `module`, each running the
    /// policy `policy_of` returns (called once per channel, so policies
    /// can be independently seeded).
    ///
    /// # Invariants
    ///
    /// `channels` and `interleave_bytes` must both be powers of two: the
    /// channel is the low bits of the block index and the block offset the
    /// low bits of the address, so routing is shifts and masks.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] when either invariant is violated.
    pub fn with_policy<F>(
        module: ModuleConfig,
        channels: u32,
        interleave_bytes: u64,
        mut policy_of: F,
    ) -> Result<Self, SimError>
    where
        F: FnMut() -> P,
    {
        if !channels.is_power_of_two() {
            return Err(SimError::Config {
                what: "the channel count must be a power of two",
            });
        }
        if !interleave_bytes.is_power_of_two() {
            return Err(SimError::Config {
                what: "the channel interleave must be a power of two bytes",
            });
        }
        let controllers = (0..channels)
            .map(|_| {
                let device = crate::sanitize::device(module.geometry, module.timing);
                MemoryController::new(device, policy_of())
            })
            .collect();
        Ok(MultiChannelSystem {
            controllers,
            interleave_bytes,
            block_shift: interleave_bytes.trailing_zeros(),
            channel_shift: channels.trailing_zeros(),
            threads: 1,
        })
    }

    /// Sets how many worker threads [`advance_to`](Self::advance_to) may
    /// shard the channels across. Zero is clamped to 1. Results are
    /// bit-identical at every setting (see [`crate::parallel`]); this is
    /// a wall-clock knob only.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Installs an ECC path on every channel; `ecc_of` is called with each
    /// channel index so seeds (and scrub/watchdog wiring) can differ per
    /// channel. A system whose scrubbing is owned by a shared scheduler
    /// typically installs decode-only configs with
    /// [`EccConfig::with_ce_export`] here and leaves the per-channel
    /// scrubbers and watchdogs off.
    pub fn with_ecc<F>(mut self, mut ecc_of: F) -> Self
    where
        F: FnMut(usize) -> EccConfig,
    {
        self.controllers = self
            .controllers
            .into_iter()
            .enumerate()
            .map(|(i, c)| c.with_ecc(ecc_of(i)))
            .collect();
        self
    }

    /// Installs fault injectors per channel; `injector_of` is called with
    /// each channel index and may return `None` to leave a channel clean.
    pub fn with_fault_injectors<F>(mut self, mut injector_of: F) -> Self
    where
        F: FnMut(usize) -> Option<FaultInjector>,
    {
        self.controllers = self
            .controllers
            .into_iter()
            .enumerate()
            .map(|(i, c)| match injector_of(i) {
                Some(inj) => c.with_fault_injector(inj),
                None => c,
            })
            .collect();
        self
    }

    /// Overrides every channel's idle page-close timeout (`None` disables
    /// idle closes, leaving pages open until a conflict or refresh).
    pub fn with_page_close_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.controllers = self
            .controllers
            .into_iter()
            .map(|c| c.with_page_close_timeout(timeout))
            .collect();
        self
    }

    /// Enables DARP deferred-refresh dispatch on every channel.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError::Config`] when `cfg.max_deferral` reaches the
    /// per-bank `8 × tREFI` sanitizer bound.
    pub fn with_darp(mut self, cfg: DarpConfig) -> Result<Self, SimError> {
        let mut rebuilt = Vec::with_capacity(self.controllers.len());
        for c in self.controllers {
            rebuilt.push(c.with_darp(cfg)?);
        }
        self.controllers = rebuilt;
        Ok(self)
    }

    /// Installs an activation burst tracker of `samples` entries on every
    /// channel — the histogram demand-aware slot skewing
    /// ([`SkewConfig`](crate::scheduler::SkewConfig)) reads.
    pub fn with_burst_tracking(mut self, samples: usize) -> Self {
        self.controllers = self
            .controllers
            .into_iter()
            .map(|c| c.with_burst_tracking(samples))
            .collect();
        self
    }

    /// Enables SARP subarray parallelism (`subarrays` per bank) on every
    /// channel's device.
    pub fn with_subarrays(mut self, subarrays: u32) -> Self {
        self.controllers = self
            .controllers
            .into_iter()
            .map(|c| c.with_subarrays(subarrays))
            .collect();
        self
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.controllers.len()
    }

    /// Rows per channel (every channel is built from the same module).
    pub fn rows_per_channel(&self) -> u64 {
        self.controllers[0].device().geometry().total_rows()
    }

    /// The channel an address routes to and its channel-local address.
    #[inline]
    pub fn route(&self, addr: u64) -> (usize, u64) {
        let block = addr >> self.block_shift;
        let channel = (block & ((1 << self.channel_shift) - 1)) as usize;
        let local_block = block >> self.channel_shift;
        (
            channel,
            (local_block << self.block_shift) | (addr & (self.interleave_bytes - 1)),
        )
    }

    /// The inverse of [`route`](MultiChannelSystem::route): the global
    /// address that maps to channel-local address `local` on `channel`.
    /// Together they witness that the interleave is a bijection — every
    /// global address has exactly one `(channel, local)` home and back.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is not one of the system's channels.
    #[inline]
    pub fn global_addr(&self, channel: usize, local: u64) -> u64 {
        let n = self.controllers.len();
        assert!(channel < n, "channel {channel} out of range 0..{n}");
        let block = ((local >> self.block_shift) << self.channel_shift) | channel as u64;
        (block << self.block_shift) | (local & (self.interleave_bytes - 1))
    }

    /// Issues one access through the interleave.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the owning channel.
    pub fn access(
        &mut self,
        addr: u64,
        is_write: bool,
        arrival: Instant,
    ) -> Result<AccessResult, SimError> {
        let (channel, local) = self.route(addr);
        self.controllers[channel].access(MemTransaction {
            addr: local,
            is_write,
            arrival,
        })
    }

    /// Advances every channel's refresh machinery to `t`, sharding the
    /// channels across the configured worker threads
    /// ([`with_threads`](Self::with_threads)). Channels never interact
    /// inside this window and errors are reported in channel order, so
    /// the outcome is identical to the sequential loop.
    ///
    /// # Errors
    ///
    /// Propagates the lowest-indexed channel's [`SimError`].
    pub fn advance_to(&mut self, t: Instant) -> Result<(), SimError> {
        let results = crate::parallel::par_map_mut(self.threads, &mut self.controllers, |_, c| {
            c.advance_to(t)
        });
        results.into_iter().collect()
    }

    /// Per-channel controller access (stats, device, policy).
    pub fn channel(&self, i: usize) -> &MemoryController<P> {
        &self.controllers[i]
    }

    /// Mutable per-channel controller access — the hook a system-level
    /// maintenance scheduler uses to advance one channel to a scrub slot
    /// and issue the scrub, without touching the other channels.
    pub fn channel_mut(&mut self, i: usize) -> &mut MemoryController<P> {
        &mut self.controllers[i]
    }

    /// Sum of the channels' DRAM operation counters.
    pub fn total_ops(&self) -> OpStats {
        self.controllers
            .iter()
            .fold(OpStats::new(), |sum, c| sum.add(c.device().stats()))
    }

    /// Sum of the channels' controller statistics, every field
    /// (`max_latency` is the worst channel's).
    pub fn total_ctrl(&self) -> ControllerStats {
        self.controllers
            .iter()
            .fold(ControllerStats::new(), |sum, c| sum.add(c.stats()))
    }

    /// Verifies retention integrity on every channel at `t`.
    ///
    /// # Errors
    ///
    /// Returns the index of the first violating channel together with its
    /// decayed rows.
    pub fn check_integrity(&self, t: Instant) -> Result<(), (usize, Vec<u64>)> {
        for (i, c) in self.controllers.iter().enumerate() {
            if let Err(rows) = c.device().check_integrity(t) {
                return Err((i, rows));
            }
        }
        Ok(())
    }

    /// Runs the protocol sanitizer's end-of-run checks on every channel at
    /// `t`. `Ok(())` when the sanitizer is disabled.
    ///
    /// # Errors
    ///
    /// [`SimError::Sanitizer`] from the first channel with violations.
    pub fn check_sanitizer(&self, t: Instant) -> Result<(), SimError> {
        for c in &self.controllers {
            c.check_sanitizer(t)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartrefresh_core::SmartRefreshConfig;
    use smartrefresh_dram::time::Duration;
    use smartrefresh_dram::{Geometry, TimingParams};

    fn mini() -> ModuleConfig {
        ModuleConfig {
            name: "mini",
            geometry: Geometry::new(1, 2, 64, 16, 64),
            timing: TimingParams::ddr2_667().with_retention(Duration::from_ms(8)),
        }
    }

    fn smart_kind() -> PolicyKind {
        PolicyKind::Smart(SmartRefreshConfig {
            counter_bits: 3,
            segments: 4,
            queue_capacity: 4,
            hysteresis: None,
        })
    }

    #[test]
    fn routing_is_dense_and_balanced() {
        let sys = MultiChannelSystem::new(mini(), 4, 4096, || PolicyKind::CbrDistributed).unwrap();
        let mut per_channel = vec![Vec::new(); 4];
        for block in 0..64u64 {
            let (c, local) = sys.route(block * 4096);
            per_channel[c].push(local);
        }
        for locals in &per_channel {
            assert_eq!(locals.len(), 16, "balanced routing");
            // Local addresses are dense multiples of the interleave.
            for (i, &l) in locals.iter().enumerate() {
                assert_eq!(l, i as u64 * 4096);
            }
        }
    }

    #[test]
    fn route_preserves_offset_within_block() {
        let sys = MultiChannelSystem::new(mini(), 2, 4096, || PolicyKind::CbrDistributed).unwrap();
        let (c1, l1) = sys.route(4096 + 123);
        assert_eq!(c1, 1);
        assert_eq!(l1 % 4096, 123);
        assert_eq!(sys.global_addr(c1, l1), 4096 + 123);
    }

    #[test]
    #[should_panic(expected = "channel 2 out of range 0..2")]
    fn global_addr_rejects_a_missing_channel() {
        let sys = MultiChannelSystem::new(mini(), 2, 4096, || PolicyKind::CbrDistributed).unwrap();
        sys.global_addr(2, 0);
    }

    #[test]
    fn each_channel_refreshes_independently() {
        let mut sys =
            MultiChannelSystem::new(mini(), 2, 4096, || PolicyKind::CbrDistributed).unwrap();
        let t = Instant::ZERO + Duration::from_ms(8);
        sys.advance_to(t).unwrap();
        // Each channel sweeps its own 128 rows once per interval.
        for i in 0..2 {
            assert_eq!(sys.channel(i).device().stats().cbr_refreshes, 128);
        }
        assert_eq!(sys.total_ops().cbr_refreshes, 256);
        assert!(sys.check_integrity(t).is_ok());
    }

    #[test]
    fn smart_refresh_composes_across_channels() {
        let mut sys = MultiChannelSystem::new(mini(), 2, 4096, smart_kind).unwrap();
        // Hammer addresses that land on channel 0 only.
        let mut now = Instant::ZERO;
        for step in 0..3200u64 {
            now = Instant::ZERO + Duration::from_us(10) * step; // 32 ms total
            let addr = (step % 8) * 2 * 4096; // even blocks -> channel 0
            sys.access(addr, false, now).unwrap();
        }
        sys.advance_to(now).unwrap();
        assert!(sys.check_integrity(now).is_ok());
        let ch0 = sys.channel(0).device().stats().ras_only_refreshes;
        let ch1 = sys.channel(1).device().stats().ras_only_refreshes;
        // Channel 0's hot rows skip refreshes; idle channel 1 sweeps fully.
        assert!(ch0 < ch1, "hot channel {ch0} vs idle channel {ch1}");
    }

    #[test]
    fn bad_configs_are_errors_not_panics() {
        assert!(matches!(
            MultiChannelSystem::new(mini(), 2, 3000, || PolicyKind::CbrDistributed),
            Err(SimError::Config { .. })
        ));
        for channels in [0, 3] {
            assert!(matches!(
                MultiChannelSystem::new(mini(), channels, 4096, || PolicyKind::CbrDistributed),
                Err(SimError::Config { .. })
            ));
        }
    }
}
