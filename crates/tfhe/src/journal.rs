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
//! - **One journal per serving stack.** A dispatcher records into its
//!   backend's ([`Bootstrapper::journal`](crate::Bootstrapper::journal)),
//!   so one [`Journal::events`] call reads a stack's whole timeline.
//! - **One bound per event class.** A journal keeps the newest
//!   [`JOURNAL_CAPACITY`] events of each class — request spans, work,
//!   incidents, refusals — and counts what it overwrote
//!   ([`Journal::dropped`]): a flood of one class, such as an open breaker
//!   shedding millions of submissions a second, turns its own ring over
//!   and evicts no event of another.
//!
//! `morphling_core::trace::ExecutionTrace::add_events` renders any slice
//! of events into a Chrome trace.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

use crate::policy::dur_ns;

/// Events of one class a [`Journal`] keeps before it overwrites its oldest.
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
    /// A named resilience scope: a dispatcher's fallback tier, or
    /// `"dispatcher"` for its front door's retries and sheds and its first
    /// tier — each with its breaker's transitions.
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
    /// A dispatcher's backend tier was skipped because its breaker refused
    /// the batch.
    TierSkipped,
    /// A batch moved down to the tier named by the event's
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

    /// The ring of a [`Journal`] this kind is kept in: request spans (0),
    /// work (1), refusals (3) or, for anything else, incidents (2).
    fn class(&self) -> usize {
        match self {
            Self::Request { .. } => 0,
            Self::Job { .. } | Self::Hit | Self::Miss | Self::Load { .. } => 1,
            Self::Evict { .. } | Self::Pin | Self::Unpin => 1,
            Self::Shed | Self::TierSkipped => 3,
            _ => 2,
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

/// Per class, the newest events, each with its place in record order.
#[derive(Debug, Default)]
struct Rings {
    recorded: u64,
    classes: [VecDeque<(u64, Event)>; 4],
}

/// The newest [`JOURNAL_CAPACITY`] [`Event`]s of each class recorded,
/// read back in record order. A serving stack's components share one;
/// concatenate the `events()` of several and they still describe one
/// timeline, because every stamp is on the process epoch.
#[derive(Debug, Default)]
pub struct Journal {
    rings: Mutex<Rings>,
    /// Taken by the first dispatcher that records into this journal.
    claimed: AtomicBool,
}

impl Journal {
    /// An empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Every update leaves the rings valid, so a poisoned lock is still
    /// good to use.
    fn rings(&self) -> std::sync::MutexGuard<'_, Rings> {
        self.rings.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Append `event`, overwriting its class's oldest at capacity.
    pub fn record(&self, event: Event) {
        self.record_all([event]);
    }

    /// [`record`](Self::record) each of `events` in turn, under one lock.
    pub(crate) fn record_all(&self, events: impl IntoIterator<Item = Event>) {
        let mut rings = self.rings();
        for event in events {
            let seq = rings.recorded;
            rings.recorded += 1;
            let ring = &mut rings.classes[event.kind.class()];
            if ring.len() == JOURNAL_CAPACITY {
                ring.pop_front();
            }
            ring.push_back((seq, event));
        }
    }

    /// Snapshot of what the journal holds, in record order.
    pub fn events(&self) -> Vec<Event> {
        let mut held: Vec<(u64, Event)> = self.rings().classes.iter().flatten().cloned().collect();
        held.sort_by_key(|&(seq, _)| seq); // merges the four sorted runs
        held.into_iter().map(|(_, e)| e).collect()
    }

    /// Events overwritten since construction or the last
    /// [`clear`](Self::clear): `events().len() + dropped()` is how many
    /// were recorded.
    pub fn dropped(&self) -> u64 {
        let rings = self.rings();
        rings.recorded - rings.classes.iter().map(|c| c.len() as u64).sum::<u64>()
    }

    /// Forget everything, the dropped count included.
    pub fn clear(&self) {
        *self.rings() = Rings::default();
    }

    /// Whether the asking dispatcher is the first: request ids restart at 0
    /// in each, so two never share a journal.
    pub(crate) fn claim(&self) -> bool {
        !self.claimed.swap(true, Ordering::SeqCst)
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
            journal.record(Event::at(now(), Who::Engine, EventKind::Retry { attempt }));
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
    fn a_flood_of_one_class_evicts_no_event_of_another() {
        const FLOOD: u64 = 100_000;
        let journal = Journal::new();
        let job = EventKind::Job {
            bootstraps: 1,
            extractions: 1,
        };
        journal.record(Event::at(0, Who::Worker(0), EventKind::WorkerPanic));
        (1..=FLOOD).for_each(|t| journal.record(Event::at(t, Who::Worker(0), job.clone())));
        let events = journal.events();
        assert_eq!(events.len(), 1 + JOURNAL_CAPACITY);
        assert_eq!(events[0].kind, EventKind::WorkerPanic, "the panic survives");
        assert_eq!(events.last().map(|e| e.at_ns), Some(FLOOD));
        assert_eq!(journal.dropped(), FLOOD - JOURNAL_CAPACITY as u64);

        journal.clear();
        let span = |id| {
            Event::at(
                id,
                Who::Dispatcher,
                EventKind::Request {
                    id,
                    batch: 0,
                    exec_ns: 1,
                },
            )
        };
        let spans: Vec<Event> = (0..8).map(span).collect();
        spans.iter().cloned().for_each(|e| journal.record(e));
        (0..FLOOD).for_each(|t| journal.record(Event::at(t, Who::Dispatcher, EventKind::Shed)));
        let events = journal.events();
        assert_eq!(events[..8], spans, "the request spans survive, first");
        assert!(events[8..].iter().all(|e| e.kind == EventKind::Shed));
        assert_eq!(events.len(), 8 + JOURNAL_CAPACITY);
        assert_eq!(journal.dropped(), FLOOD - JOURNAL_CAPACITY as u64);
    }

    #[test]
    fn events_read_back_in_record_order_across_classes() {
        let journal = Journal::new();
        let kinds = [
            EventKind::Shed,
            EventKind::Miss,
            EventKind::Retry { attempt: 1 },
            EventKind::Request {
                id: 0,
                batch: 0,
                exec_ns: 0,
            },
            EventKind::Pin,
            EventKind::TierSkipped,
        ];
        (kinds.iter().cloned()).for_each(|k| journal.record(Event::at(0, Who::Engine, k)));
        let read: Vec<EventKind> = journal.events().into_iter().map(|e| e.kind).collect();
        assert_eq!(read, kinds);
    }

    #[test]
    fn a_journal_is_claimed_once() {
        let journal = Journal::new();
        assert!(journal.claim());
        assert!(!journal.claim());
        journal.clear();
        assert!(!journal.claim(), "clearing keeps the claim");
    }

    #[test]
    fn journals_built_apart_share_one_time_base() {
        let early = Journal::new();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let late = Journal::new();
        // With an epoch per journal the first stamp would read 20 ms and
        // the second, taken later, 0.
        early.record(Event::at(now(), Who::Engine, EventKind::Shed));
        late.record(Event::at(now(), Who::Engine, EventKind::Shed));
        assert!(early.events()[0].at_ns <= late.events()[0].at_ns);
        if let Some(past) = Instant::now().checked_sub(std::time::Duration::from_secs(3600)) {
            assert_eq!(since_epoch(past), 0, "before the epoch reads 0");
        }
    }
}
