//! Group-commit durability policy for the ingest engine.
//!
//! PR 6's engine made the *caller* responsible for durability: every
//! ingested fix's ack meant "journaled", and power-loss safety
//! required an explicit [`crate::IngestEngine::sync`]. This module
//! moves that decision into the engine as a [`DurabilityPolicy`]:
//! appends accumulate in each shard's in-memory journal buffer and the
//! engine issues one covering write + fsync whenever the
//! **unsynced-byte** or **stream-time** threshold trips — classic group
//! commit, amortizing one `write(2)` and one fsync over many fixes. (A
//! buffer that reaches [`crate::wal::WRITE_CAP`] first is written
//! early, without a sync.) The write + fsync runs on the engine's
//! journal-syncer thread: the push that trips a threshold hands the
//! batch over and returns, and the batch settles at the shard's next
//! trigger, before the push thread's own next disk operation, in
//! [`crate::IngestEngine::sync`], or on drop.
//!
//! The ack contract stays honest under the batching (see
//! [`crate::Ack`]): a fix whose covering sync has not completed is
//! acked [`crate::Ack::Journaled`] — the triggering push's fix included
//! — and becomes durable, observable via
//! [`crate::IngestEngine::shard_durable_offset`], when the batch
//! covering its frame settles. Only the sync *timing* is policy; which
//! bytes reach the journal, and therefore every recovered corpus, is
//! byte-identical across policies.
//!
//! Retry semantics: transient I/O failures (`EIO`-class) are retried
//! up to [`DurabilityPolicy::max_retries`] times with doubling
//! backoff — a batch's on the syncer thread — then surface as
//! [`crate::ServeError::Backpressure`]; out-of-space is persistent — no
//! retry can free the disk — and surfaces immediately as
//! [`crate::ServeError::StorageFull`]. Either arrives as the cause of
//! the shard's [`crate::ServeError::ShardDegraded`]; a failed
//! group-commit batch is counted in
//! [`crate::IngestStats::sync_failures`] when it settles.

/// When the engine fsyncs the journal, and how it retries transient
/// write failures. Carried inside [`crate::IngestConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DurabilityPolicy {
    /// Fsync once at least this many journal bytes are unsynced.
    /// `1` degenerates to per-push sync; `0` disables the byte trigger.
    pub sync_bytes: u64,
    /// Fsync once the stream clock (never wall clock — sync *timing*
    /// must not be able to perturb replay determinism) has advanced
    /// this many seconds past the last successful sync. `<= 0.0`
    /// disables the time trigger.
    pub sync_interval: f64,
    /// How many times a transient (`EIO`-class) append/sync failure is
    /// retried before the engine reports backpressure. Out-of-space is
    /// never retried.
    pub max_retries: u32,
    /// Base backoff before the first retry, in milliseconds, doubling
    /// per attempt (capped at 64×). `0` retries immediately — what
    /// deterministic tests use.
    pub retry_backoff_ms: u64,
}

impl DurabilityPolicy {
    /// Group commit with production-shaped thresholds: sync every
    /// 256 KiB of journal or 30 s of stream time, whichever trips
    /// first. The default.
    pub fn group_commit() -> Self {
        DurabilityPolicy {
            sync_bytes: 256 * 1024,
            sync_interval: 30.0,
            max_retries: 3,
            retry_backoff_ms: 5,
        }
    }

    /// One fsync per push: every push trips the byte trigger and hands
    /// its frame over as a batch of one, which the shard's next push
    /// settles. The push still acks `Journaled`; a caller that needs a
    /// durable answer calls [`crate::IngestEngine::sync`]. Only tests use
    /// this preset: the most fsync-heavy policy, under which the journal
    /// and the corpus must come out as under [`Self::group_commit`].
    pub fn per_push() -> Self {
        DurabilityPolicy {
            sync_bytes: 1,
            sync_interval: 0.0,
            max_retries: 3,
            retry_backoff_ms: 5,
        }
    }

    /// Never sync on the engine's initiative; the caller drives
    /// durability via [`crate::IngestEngine::sync`] and checkpoints.
    pub fn manual() -> Self {
        DurabilityPolicy {
            sync_bytes: 0,
            sync_interval: 0.0,
            max_retries: 3,
            retry_backoff_ms: 5,
        }
    }

    /// Validates the policy (a NaN interval would poison the stream
    /// clock comparison).
    pub fn validate(&self) -> Result<(), String> {
        if self.sync_interval.is_nan() {
            return Err("durability sync_interval must not be NaN".into());
        }
        Ok(())
    }

    /// Backoff before retry number `attempt` (1-based): the base
    /// doubled per prior attempt, capped at 64× base.
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        self.retry_backoff_ms
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(6))
    }
}

impl Default for DurabilityPolicy {
    fn default() -> Self {
        Self::group_commit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_and_backoff() {
        assert_eq!(
            DurabilityPolicy::default(),
            DurabilityPolicy::group_commit()
        );
        assert_eq!(DurabilityPolicy::per_push().sync_bytes, 1);
        assert_eq!(DurabilityPolicy::manual().sync_bytes, 0);
        let p = DurabilityPolicy {
            retry_backoff_ms: 4,
            ..DurabilityPolicy::default()
        };
        assert_eq!(p.backoff_ms(1), 4);
        assert_eq!(p.backoff_ms(2), 8);
        assert_eq!(p.backoff_ms(3), 16);
        assert_eq!(p.backoff_ms(40), 4 * 64, "doubling caps at 64x");
        let nan = DurabilityPolicy {
            sync_interval: f64::NAN,
            ..DurabilityPolicy::default()
        };
        assert!(nan.validate().is_err());
        assert!(DurabilityPolicy::default().validate().is_ok());
    }
}
