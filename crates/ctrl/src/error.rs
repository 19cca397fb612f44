//! The simulator-wide error taxonomy.
//!
//! [`SimError`] is the single error type flowing out of the memory
//! controller and everything stacked above it. It wraps the low-level
//! [`DramError`] protocol violations with scheduling context (which command,
//! which bank, at what simulated time), and adds the controller- and
//! policy-level failures that have no device-protocol counterpart:
//! internal state inconsistencies (the conditions the seed code `expect`ed
//! on), §5 pending-queue overflow, and retention violations surfaced by the
//! always-on [`RetentionTracker`](smartrefresh_dram::RetentionTracker)
//! invariant checks.
//!
//! The taxonomy keeps the source chain intact: a
//! [`SimError::Protocol`] answers both *what the controller was doing*
//! (via its own fields) and *what the device rejected* (via
//! [`Error::source`](std::error::Error::source)).

use std::error::Error as StdError;
use std::fmt;

use smartrefresh_dram::time::Instant;
use smartrefresh_dram::DramError;

/// An error raised by the memory controller or the simulation layers above.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The DRAM device rejected a command the controller issued. Carries the
    /// scheduling context the raw [`DramError`] lacks.
    Protocol {
        /// The command being issued (`"activate"`, `"precharge"`, ...).
        op: &'static str,
        /// Target rank.
        rank: u32,
        /// Target bank within the rank.
        bank: u32,
        /// Target row, where the command addresses one.
        row: Option<u32>,
        /// Simulated issue time of the rejected command.
        at: Instant,
        /// The device's protocol verdict.
        source: DramError,
    },
    /// The controller's own bookkeeping contradicted the device state — for
    /// example a row-buffer conflict recorded against a bank with no open
    /// row. Always a simulator bug, never a workload condition.
    StateInconsistency {
        /// What invariant was violated.
        what: &'static str,
        /// Rank where the inconsistency was observed.
        rank: u32,
        /// Bank where the inconsistency was observed.
        bank: u32,
        /// When it was observed.
        at: Instant,
    },
    /// The §5 bounded pending refresh queue overflowed and the run was
    /// configured to treat that as fatal rather than degrade.
    QueueOverflow {
        /// The queue's configured capacity.
        capacity: usize,
        /// When the overflowing push happened.
        at: Instant,
    },
    /// Rows went unrefreshed past their retention deadline — data loss.
    RetentionViolation {
        /// Channel where the violation was detected.
        channel: usize,
        /// Number of decayed rows.
        rows: u64,
        /// When the check ran.
        at: Instant,
    },
    /// A demand read hit a multi-bit error SECDED could detect but not
    /// correct — the data returned to the requester is lost.
    Uncorrectable {
        /// Rank of the poisoned row.
        rank: u32,
        /// Bank of the poisoned row.
        bank: u32,
        /// Row whose data is unrecoverable.
        row: u32,
        /// When the read detected it.
        at: Instant,
    },
    /// A simulator-internal invariant failed outside the controller (a
    /// condition the code previously `expect`ed on). Always a simulator
    /// bug, never a workload condition.
    Internal {
        /// What invariant was violated.
        what: &'static str,
    },
    /// A constructor or builder was handed parameters that violate a
    /// documented invariant (zero channels, a non-power-of-two interleave,
    /// a zero scrub interval). Always a caller error, reported instead of
    /// panicking so sweeps over generated configurations can skip the bad
    /// point and continue.
    Config {
        /// Which invariant the parameters violate.
        what: &'static str,
    },
    /// The shadow protocol sanitizer observed conformance violations —
    /// illegal timings, missed counter resets, silent retention overruns.
    /// Always a simulator bug, never a workload condition.
    Sanitizer {
        /// Total number of violations the sanitizer collected.
        violations: usize,
        /// Rendered diagnostic of the first violation.
        first: String,
    },
}

impl SimError {
    /// Wraps a [`DramError`] with the issuing command's context.
    pub fn protocol(
        op: &'static str,
        rank: u32,
        bank: u32,
        row: Option<u32>,
        at: Instant,
        source: DramError,
    ) -> Self {
        SimError::Protocol {
            op,
            rank,
            bank,
            row,
            at,
            source,
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Protocol {
                op,
                rank,
                bank,
                row,
                at,
                source,
            } => {
                write!(f, "{op} to r{rank}b{bank}")?;
                if let Some(row) = row {
                    write!(f, " row {row}")?;
                }
                write!(f, " at {at} rejected: {source}")
            }
            SimError::StateInconsistency {
                what,
                rank,
                bank,
                at,
            } => write!(f, "state inconsistency at r{rank}b{bank} ({at}): {what}"),
            SimError::QueueOverflow { capacity, at } => {
                write!(
                    f,
                    "pending refresh queue (capacity {capacity}) overflowed at {at}"
                )
            }
            SimError::RetentionViolation { channel, rows, at } => write!(
                f,
                "retention violated on channel {channel}: {rows} row(s) decayed by {at}"
            ),
            SimError::Uncorrectable {
                rank,
                bank,
                row,
                at,
            } => write!(
                f,
                "uncorrectable ECC error at r{rank}b{bank} row {row} ({at})"
            ),
            SimError::Internal { what } => {
                write!(f, "internal simulator invariant violated: {what}")
            }
            SimError::Config { what } => {
                write!(f, "invalid configuration: {what}")
            }
            SimError::Sanitizer { violations, first } => {
                write!(
                    f,
                    "protocol sanitizer found {violations} violation(s); first: {first}"
                )
            }
        }
    }
}

impl StdError for SimError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            SimError::Protocol { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_round_trips_context_and_source() {
        let dram = DramError::BankBusy {
            rank: 1,
            bank: 3,
            ready_at: Instant::from_ps(700),
        };
        let err = SimError::protocol(
            "refresh",
            1,
            3,
            Some(42),
            Instant::from_ps(500),
            dram.clone(),
        );
        // Context survives.
        let SimError::Protocol {
            op,
            rank,
            bank,
            row,
            ..
        } = &err
        else {
            panic!("wrong variant");
        };
        assert_eq!((*op, *rank, *bank, *row), ("refresh", 1, 3, Some(42)));
        // The device error is reachable both directly and via the standard
        // source chain.
        assert!(matches!(&err, SimError::Protocol { source, .. } if *source == dram));
        let src = StdError::source(&err).expect("protocol errors have a source");
        assert_eq!(src.downcast_ref::<DramError>(), Some(&dram));
    }

    #[test]
    fn display_mentions_the_command_and_the_verdict() {
        let err = SimError::protocol(
            "precharge",
            0,
            1,
            None,
            Instant::from_ps(100),
            DramError::NoOpenRow { rank: 0, bank: 1 },
        );
        let s = err.to_string();
        assert!(s.contains("precharge"), "{s}");
        assert!(s.contains("no open row"), "{s}");
    }

    #[test]
    fn non_protocol_variants_have_no_source() {
        let err = SimError::QueueOverflow {
            capacity: 8,
            at: Instant::ZERO,
        };
        assert!(StdError::source(&err).is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: StdError + Send + Sync + 'static>() {}
        assert_bounds::<SimError>();
    }
}
