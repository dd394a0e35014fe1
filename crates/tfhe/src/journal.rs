//! The crate's one event buffer and its one time base.
//!
//! Every layer that has something to say about a request says it as an
//! [`Event`] — when, how long, who, what — recorded into a [`Journal`]:
//! the engine's job spans and fault incidents, the dispatcher's request
//! spans, the retries, sheds, breaker transitions and failovers of the
//! resilience layer, the key store's cache transitions.
//!
//! - **One envelope.** `at_ns` and `dur_ns` (zero for an instant), a
//!   [`Who`] and an [`EventKind`]; [`EventKind::label`] is the one short
//!   name per kind that traces and reconciliation tests key on.
//! - **One time base.** Stamps are nanoseconds since a process-wide epoch
//!   ([`now`]), which the dispatcher's batching clock reads too. No
//!   component owns an epoch, so the events of any two journals of one
//!   process concatenate into one timeline without arithmetic.
//! - **One bound.** A journal keeps its newest [`JOURNAL_CAPACITY`]
//!   events, oldest first, and counts what it overwrote
//!   ([`Journal::dropped`]): a flood — an open breaker refusing millions
//!   of submissions a second — turns the ring over and costs no memory.
//!   What must survive such a flood lives in a journal of its own (the
//!   dispatcher's request spans do, and a failover stack's incidents).
//!
//! `morphling_core::trace::ExecutionTrace::add_events` renders any slice
//! of events into a Chrome trace.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

use crate::policy::dur_ns;

/// Events a [`Journal`] keeps before it overwrites its oldest.
pub const JOURNAL_CAPACITY: usize = 16_384;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// `t` in nanoseconds since the process epoch — the first instant anything
/// in the process asked for the time. Instants before it read 0.
pub(crate) fn since_epoch(t: Instant) -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    dur_ns(t.saturating_duration_since(epoch))
}

/// Nanoseconds since the process epoch: the clock every [`Event`] is
/// stamped on.
pub fn now() -> u64 {
    since_epoch(Instant::now())
}

/// The component an [`Event`] happened in.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Who {
    /// Worker thread `i` of a [`BootstrapEngine`](crate::BootstrapEngine).
    Worker(usize),
    /// An engine's supervisor: its decisions about chunks (watchdog,
    /// output checks, re-dispatch).
    Engine,
    /// A [`Dispatcher`](crate::Dispatcher)'s request path: queue, then
    /// batch.
    Dispatcher,
    /// A tenant's entry in a [`KeyStore`](crate::KeyStore).
    Tenant(u64),
    /// A named resilience scope: a failover tier, or `"dispatcher"` for a
    /// dispatcher's own retries and sheds — each with its breaker's
    /// transitions.
    Scope(Arc<str>),
}

/// What happened. Spans ([`Job`](Self::Job), [`Request`](Self::Request))
/// have a duration; everything else is an instant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// An engine worker ran one chunk ([`Who::Worker`]).
    Job {
        /// Bootstraps (input ciphertexts, = blind rotations) completed.
        bootstraps: usize,
        /// Sample extractions (outputs) produced; exceeds `bootstraps`
        /// for fanout chunks.
        extractions: usize,
    },
    /// A worker's job panicked (caught; the chunk was reported back as
    /// [`TfheError::WorkerPanicked`](crate::TfheError::WorkerPanicked)).
    WorkerPanic,
    /// A panicked worker re-entered its receive loop (in-place respawn).
    WorkerRespawn,
    /// A worker exhausted its respawn budget and retired.
    RespawnExhausted,
    /// The watchdog declared a chunk wedged (no reply within the job
    /// timeout).
    WatchdogTimeout {
        /// Engine-wide batch sequence number.
        batch: u64,
        /// Batch-relative index of the chunk's first ciphertext.
        chunk_start: usize,
    },
    /// An output failed the engine's sanity check.
    OutputCheckFailed {
        /// Batch-relative index of the offending output.
        index: usize,
    },
    /// The engine re-dispatched a chunk (after a panic, timeout, or
    /// failed check).
    ChunkRetry {
        /// Batch-relative index of the chunk's first ciphertext.
        chunk_start: usize,
        /// The attempt number of the re-dispatch (1 = first retry).
        attempt: u32,
    },
    /// A request's life through a dispatcher ([`Who::Dispatcher`]): the
    /// span runs from enqueue to the start of its batch, which then
    /// executed for `exec_ns`.
    Request {
        /// Request id (see [`Ticket::id`](crate::Ticket::id)).
        id: u64,
        /// Micro-batch the request executed in.
        batch: u64,
        /// Execution time of that batch, in nanoseconds.
        exec_ns: u64,
    },
    /// A request was re-dispatched after a retryable failure.
    Retry {
        /// Retry number (1 = first re-dispatch).
        attempt: u32,
    },
    /// A breaker tripped open: admission now fails fast.
    BreakerOpen,
    /// A breaker's cooldown elapsed; probe traffic is being admitted.
    BreakerHalfOpen,
    /// A half-open probe succeeded and the breaker closed (recovered).
    BreakerClose,
    /// A failover tier was skipped because its breaker refused admission.
    TierSkipped,
    /// A request moved down to the tier named by the event's
    /// [`Who::Scope`] after a tier above it failed.
    Failover {
        /// Tier that failed the request.
        from: Arc<str>,
    },
    /// An admission was shed at the front door (dispatcher breaker open).
    Shed,
    /// A key-store serve hit an already-resident key.
    Hit,
    /// A key-store serve missed; a backend load was started.
    Miss,
    /// A backend load + deserialize completed and the key became resident.
    Load {
        /// Resident bytes the key accounts for.
        bytes: u64,
    },
    /// An unpinned resident key was evicted to make room.
    Evict {
        /// Bytes released.
        bytes: u64,
    },
    /// A pin was taken (key in use by an in-flight batch).
    Pin,
    /// A pin was released.
    Unpin,
    /// A backend blob failed deserialization
    /// ([`TfheError::KeyCorrupted`](crate::TfheError::KeyCorrupted)).
    Corrupt,
}

impl EventKind {
    /// Short stable lower-case label: the trace span name of an instant,
    /// and what counter-vs-journal reconciliations count by.
    pub fn label(&self) -> &'static str {
        match self {
            Self::Job { .. } => "job",
            Self::WorkerPanic => "worker_panic",
            Self::WorkerRespawn => "worker_respawn",
            Self::RespawnExhausted => "respawn_exhausted",
            Self::WatchdogTimeout { .. } => "watchdog_timeout",
            Self::OutputCheckFailed { .. } => "output_check_failed",
            Self::ChunkRetry { .. } | Self::Retry { .. } => "retry",
            Self::Request { .. } => "request",
            Self::BreakerOpen => "breaker_open",
            Self::BreakerHalfOpen => "breaker_half_open",
            Self::BreakerClose => "breaker_close",
            Self::TierSkipped => "tier_skipped",
            Self::Failover { .. } => "failover",
            Self::Shed => "shed",
            Self::Hit => "hit",
            Self::Miss => "miss",
            Self::Load { .. } => "load",
            Self::Evict { .. } => "evict",
            Self::Pin => "pin",
            Self::Unpin => "unpin",
            Self::Corrupt => "corrupt",
        }
    }
}

/// One journaled event: when, how long, who, what.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// When it happened (a span: when it started), in nanoseconds since
    /// the process epoch ([`now`]).
    pub at_ns: u64,
    /// How long it took, in nanoseconds; zero for an instant.
    pub dur_ns: u64,
    /// The component it happened in.
    pub who: Who,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// An instant, stamped [`now`].
    pub fn instant(who: Who, kind: EventKind) -> Self {
        Self::at(now(), who, kind)
    }

    /// An instant at `at_ns` — for a recorder that is told the time.
    pub(crate) fn at(at_ns: u64, who: Who, kind: EventKind) -> Self {
        Self {
            at_ns,
            dur_ns: 0,
            who,
            kind,
        }
    }
}

#[derive(Debug, Default)]
struct Ring {
    events: VecDeque<Event>,
    dropped: u64,
}

/// The newest [`JOURNAL_CAPACITY`] [`Event`]s recorded, in record order.
///
/// Each component owns its own; concatenate the `events()` of several and
/// they describe one timeline, because every stamp is on the process
/// epoch.
#[derive(Debug, Default)]
pub struct Journal {
    ring: Mutex<Ring>,
}

impl Journal {
    /// An empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Every update leaves the ring valid, so a poisoned lock is still
    /// good to use.
    fn ring(&self) -> std::sync::MutexGuard<'_, Ring> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Append `event`, overwriting the oldest one at capacity.
    pub fn record(&self, event: Event) {
        let mut ring = self.ring();
        if ring.events.len() == JOURNAL_CAPACITY {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(event);
    }

    /// Snapshot of what the journal holds, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.ring().events.iter().cloned().collect()
    }

    /// Events overwritten since construction or the last
    /// [`clear`](Self::clear): `events().len() + dropped()` is how many
    /// were recorded.
    pub fn dropped(&self) -> u64 {
        self.ring().dropped
    }

    /// Forget everything, the dropped count included.
    pub fn clear(&self) {
        *self.ring() = Ring::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_newest_events_in_order_and_counts_the_rest() {
        let journal = Journal::new();
        let attempts = |j: &Journal| -> Vec<u32> {
            j.events()
                .iter()
                .map(|e| match e.kind {
                    EventKind::Retry { attempt } => attempt,
                    _ => unreachable!("only retries were recorded"),
                })
                .collect()
        };
        let record = |attempt: u32| {
            journal.record(Event::instant(Who::Engine, EventKind::Retry { attempt }));
        };
        (0..JOURNAL_CAPACITY as u32).for_each(record);
        assert_eq!(
            (journal.events().len(), journal.dropped()),
            (JOURNAL_CAPACITY, 0)
        );
        (0..10).for_each(|i| record(JOURNAL_CAPACITY as u32 + i));
        let kept = attempts(&journal);
        assert_eq!((kept.len(), journal.dropped()), (JOURNAL_CAPACITY, 10));
        assert!(kept.windows(2).all(|w| w[1] == w[0] + 1));
        assert_eq!(kept[0], 10);
        journal.clear();
        assert_eq!((journal.events().len(), journal.dropped()), (0, 0));
    }

    #[test]
    fn journals_built_apart_share_one_time_base() {
        let early = Journal::new();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let late = Journal::new();
        // With an epoch per journal the first stamp would read 20 ms and
        // the second, taken later, 0.
        early.record(Event::instant(Who::Engine, EventKind::Shed));
        late.record(Event::instant(Who::Engine, EventKind::Shed));
        assert!(early.events()[0].at_ns <= late.events()[0].at_ns);
        if let Some(past) = Instant::now().checked_sub(std::time::Duration::from_secs(3600)) {
            assert_eq!(since_epoch(past), 0, "before the epoch reads 0");
        }
    }
}
