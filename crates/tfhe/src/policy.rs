//! The batch-formation policy — the paper's §V software scheduler — as a
//! pure state machine.
//!
//! [`BatchPolicy`] owns the bounded admission queue and the batch being
//! formed, and nothing else: it reads no clock, takes no lock and never
//! waits. Time is an argument (`u64` nanoseconds since an epoch the caller
//! picks; every sum and difference saturates), cancellation is a predicate
//! the caller passes, and each decision comes back as a value for the
//! caller to act on. Two drivers call it: the dispatcher's batcher, which
//! passes the wall clock and turns [`Poll::WaitUntil`] into a timed wait
//! (`dispatch.rs`), and the autotuner's simulation, which passes virtual
//! time and turns it into a jump (`autotune.rs`). They run the same code,
//! so what the autotuner predicts and what the dispatcher does cannot
//! drift apart.
//!
//! The policy (DESIGN.md §8):
//!
//! - a batch is **seeded** by the oldest live request;
//! - **joiners** are the live requests of the seed's affinity class (its
//!   tenant; tenantless is a class of its own), in queue order, up to
//!   `max_batch_size` — so one server key serves the whole batch and a
//!   key-store backend pins once per backend call. Requests of other
//!   classes stay queued in order;
//! - the batch **flushes** when it is full, when `flush_at` arrives — the
//!   seed's arrival plus `max_linger`, lowered by every member's deadline
//!   minus `deadline_slack` — or when the caller is draining;
//! - at flush time **one sweep** over queue and batch hands back, tagged,
//!   every entry that was cancelled or whose deadline is not after `now`.
//!   A deadline is the latest acceptable execution *start*, so
//!   `deadline == now` is already too late.

use std::collections::VecDeque;
use std::time::Duration;

use crate::keystore::TenantId;
use crate::serving::ServingConfig;

/// `d` in whole nanoseconds, saturating (a `Duration` holds up to 2^64 s).
pub(crate) fn dur_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// One request as the policy sees it. `item` is the caller's own payload.
#[derive(Debug)]
pub(crate) struct Entry<T> {
    pub(crate) item: T,
    /// Only entries of equal affinity share a batch.
    pub(crate) affinity: Option<TenantId>,
    pub(crate) enqueued_ns: u64,
    pub(crate) deadline_ns: Option<u64>,
}

/// Why the flush-time sweep dropped an entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Dropped {
    Cancelled,
    Expired,
}

/// [`BatchPolicy::offer`] refused: the queue is at `queue_capacity`.
#[derive(Debug)]
pub(crate) struct Full;

/// What the caller should do next.
#[derive(Debug)]
pub(crate) enum Poll<T> {
    /// Nothing queued, nothing forming: wait for an [`offer`](BatchPolicy::offer).
    Idle,
    /// A batch is forming; poll again at this time or after the next
    /// offer, whichever is first.
    WaitUntil(u64),
    /// Run `batch` (in order; it can be empty when the sweep took every
    /// member) and resolve each of `dropped` as tagged.
    Flush {
        batch: Vec<Entry<T>>,
        dropped: Vec<(Entry<T>, Dropped)>,
    },
}

pub(crate) struct BatchPolicy<T> {
    max_batch_size: usize,
    max_linger_ns: u64,
    queue_capacity: usize,
    deadline_slack_ns: u64,
    queue: VecDeque<Entry<T>>,
    /// The batch being formed; `forming[0]` is its seed. Members no
    /// longer count against `queue_capacity`.
    forming: Vec<Entry<T>>,
    /// When `forming` flushes even if it is not full.
    flush_at: u64,
}

impl<T> BatchPolicy<T> {
    pub(crate) fn new(cfg: &ServingConfig) -> Self {
        Self {
            max_batch_size: cfg.max_batch_size,
            max_linger_ns: dur_ns(cfg.max_linger),
            queue_capacity: cfg.queue_capacity,
            deadline_slack_ns: dur_ns(cfg.deadline_slack),
            queue: VecDeque::new(),
            forming: Vec::new(),
            flush_at: 0,
        }
    }

    pub(crate) fn is_full(&self) -> bool {
        self.queue.len() >= self.queue_capacity
    }

    /// Bounded-queue admission.
    pub(crate) fn offer(&mut self, entry: Entry<T>) -> Result<(), Full> {
        if self.is_full() {
            return Err(Full);
        }
        self.queue.push_back(entry);
        Ok(())
    }

    /// Advance the policy to `now`. Only `Flush` removes anything, so a
    /// repeated poll at the same `now` repeats `Idle` / `WaitUntil`.
    pub(crate) fn poll(
        &mut self,
        now: u64,
        draining: bool,
        is_cancelled: impl Fn(&T) -> bool,
    ) -> Poll<T> {
        let doom = |e: &Entry<T>| {
            if is_cancelled(&e.item) {
                Some(Dropped::Cancelled)
            } else if e.deadline_ns.is_some_and(|d| d <= now) {
                Some(Dropped::Expired)
            } else {
                None
            }
        };
        if self.forming.is_empty() {
            if self.queue.is_empty() {
                return Poll::Idle;
            }
            // With only doomed entries queued nothing seeds, and the
            // sweep below hands them back with an empty batch.
            let oldest_live = self.queue.iter().position(|e| doom(e).is_none());
            if let Some(seed) = oldest_live.and_then(|i| self.queue.remove(i)) {
                self.flush_at = seed.enqueued_ns.saturating_add(self.max_linger_ns);
                self.join(seed);
            }
        }
        if let Some(affinity) = self.forming.first().map(|seed| seed.affinity) {
            let mut i = 0;
            while self.forming.len() < self.max_batch_size && i < self.queue.len() {
                let e = &self.queue[i];
                if e.affinity == affinity && doom(e).is_none() {
                    if let Some(e) = self.queue.remove(i) {
                        self.join(e);
                    }
                } else {
                    i += 1;
                }
            }
            if self.forming.len() < self.max_batch_size && !draining && now < self.flush_at {
                return Poll::WaitUntil(self.flush_at);
            }
        }
        let mut dropped = Vec::new();
        if self.queue.iter().any(|e| doom(e).is_some()) {
            for e in std::mem::take(&mut self.queue) {
                match doom(&e) {
                    Some(why) => dropped.push((e, why)),
                    None => self.queue.push_back(e),
                }
            }
        }
        let mut batch = Vec::with_capacity(self.forming.len());
        for e in self.forming.drain(..) {
            match doom(&e) {
                Some(why) => dropped.push((e, why)),
                None => batch.push(e),
            }
        }
        Poll::Flush { batch, dropped }
    }

    fn join(&mut self, e: Entry<T>) {
        if let Some(d) = e.deadline_ns {
            let rescue_by = d.saturating_sub(self.deadline_slack_ns);
            self.flush_at = self.flush_at.min(rescue_by);
        }
        self.forming.push(e);
    }

    /// Everything still forming or queued, oldest batch first — for a
    /// caller that is going away and must resolve what it holds.
    pub(crate) fn take_all(&mut self) -> Vec<Entry<T>> {
        let mut all = std::mem::take(&mut self.forming);
        all.extend(self.queue.drain(..));
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// One request of a scripted schedule; its index is its `item`.
    #[derive(Clone, Debug)]
    struct Arrival {
        at: u64,
        affinity: Option<TenantId>,
        deadline: Option<u64>,
        cancel_at: Option<u64>,
    }

    fn arrival(at: u64, tenant: Option<u64>) -> Arrival {
        Arrival {
            at,
            affinity: tenant.map(TenantId::new),
            deadline: None,
            cancel_at: None,
        }
    }

    /// Everything that happens to the policy, on virtual time: arrivals,
    /// cancellations, how long each flushed batch keeps the caller busy
    /// (cycled), and when the caller starts draining.
    #[derive(Clone, Debug)]
    struct Schedule {
        cfg: ServingConfig,
        arrivals: Vec<Arrival>,
        service: Vec<u64>,
        drain_at: Option<u64>,
    }

    #[derive(Debug, Default, PartialEq)]
    struct Outcome {
        /// `(flush time, member ids)` of every non-empty batch.
        batches: Vec<(u64, Vec<usize>)>,
        cancelled: Vec<usize>,
        expired: Vec<usize>,
        refused: Vec<usize>,
    }

    fn knobs(max_batch_size: usize, max_linger: Duration) -> ServingConfig {
        ServingConfig {
            max_batch_size,
            max_linger,
            ..ServingConfig::default()
        }
    }

    fn ids<'a>(entries: impl Iterator<Item = &'a Entry<usize>>) -> Vec<usize> {
        entries.map(|e| e.item).collect()
    }

    /// Drive the policy through `s` the way both real drivers do — offer
    /// what has arrived, poll, act — and check every invariant of the
    /// module docs at every step.
    fn run(s: &Schedule) -> Outcome {
        let cap = s.cfg.max_batch_size.max(1);
        let linger = dur_ns(s.cfg.max_linger);
        let slack = dur_ns(s.cfg.deadline_slack);
        let mut policy = BatchPolicy::new(&s.cfg);
        let mut out = Outcome::default();
        let (mut t, mut next, mut flushes) = (0u64, 0usize, 0usize);
        loop {
            while next < s.arrivals.len() && s.arrivals[next].at <= t {
                let a = &s.arrivals[next];
                let was_full = policy.queue.len() >= s.cfg.queue_capacity;
                let entry = Entry {
                    item: next,
                    affinity: a.affinity,
                    enqueued_ns: a.at,
                    deadline_ns: a.deadline,
                };
                assert_eq!(policy.offer(entry).is_err(), was_full, "refuses iff full");
                if was_full {
                    out.refused.push(next);
                }
                next += 1;
            }
            let draining = s.drain_at.is_some_and(|d| d <= t);
            let cancelled = |id: &usize| s.arrivals[*id].cancel_at.is_some_and(|c| c <= t);
            let dead =
                |id: usize| cancelled(&id) || s.arrivals[id].deadline.is_some_and(|d| d <= t);
            let queue_before = ids(policy.queue.iter());
            let forming_before = ids(policy.forming.iter());

            let polled = policy.poll(t, draining, cancelled);

            let queue_after = ids(policy.queue.iter());
            let forming_after = ids(policy.forming.iter());
            // Whoever stays queued keeps its place relative to the others.
            let mut rest = queue_before.iter();
            assert!(
                queue_after.iter().all(|id| rest.any(|b| b == id)),
                "queue reordered: {queue_before:?} -> {queue_after:?}"
            );
            // The batch as it stood when the policy decided: what was
            // forming, then this poll's joiners (all live, so on a flush
            // they are all in `batch`).
            let flushed: Vec<usize> = match &polled {
                Poll::Flush { batch, .. } => batch.iter().map(|e| e.item).collect(),
                _ => Vec::new(),
            };
            let members: Vec<usize> = match &polled {
                Poll::Flush { .. } => {
                    let joined = flushed.iter().filter(|id| !forming_before.contains(id));
                    forming_before.iter().chain(joined).copied().collect()
                }
                _ => forming_after.clone(),
            };
            assert!(
                members.starts_with(&forming_before),
                "a forming batch only grows"
            );
            assert!(
                members.len() <= cap,
                "{members:?} over max_batch_size {cap}"
            );
            if let Some(&seed) = members.first() {
                let class = s.arrivals[seed].affinity;
                if forming_before.is_empty() {
                    let older = queue_before.iter().take_while(|&&id| id != seed);
                    assert!(older.clone().all(|&id| dead(id)), "seed is the oldest live");
                }
                let mut passed_over = queue_before.iter().filter(|&&id| {
                    s.arrivals[id].affinity == class && !dead(id) && !members.contains(&id)
                });
                if members.len() < cap {
                    assert_eq!(
                        passed_over.next(),
                        None,
                        "live same-class request not joined"
                    );
                }
                for w in members.windows(2) {
                    assert!(w[0] < w[1], "members out of arrival order: {members:?}");
                    assert_eq!(s.arrivals[w[1]].affinity, class, "mixed batch {members:?}");
                }
                let flush_at = members
                    .iter()
                    .filter_map(|&id| s.arrivals[id].deadline)
                    .map(|d| d.saturating_sub(slack))
                    .fold(s.arrivals[seed].at.saturating_add(linger), u64::min);
                let due = members.len() >= cap || draining || flush_at <= t;
                match &polled {
                    Poll::WaitUntil(at) => {
                        assert!(!due, "full, draining or past flush_at must flush now");
                        assert_eq!(*at, flush_at);
                    }
                    Poll::Flush { .. } => assert!(due, "flushed {members:?} early at {t}"),
                    Poll::Idle => panic!("idle with {members:?} forming"),
                }
            }
            match polled {
                Poll::Flush { batch, dropped } => {
                    assert!(forming_after.is_empty());
                    assert!(
                        !queue_after.iter().any(|&id| dead(id)),
                        "sweep left a dead entry"
                    );
                    assert!(!batch.is_empty() || !dropped.is_empty(), "empty flush");
                    for (e, why) in dropped {
                        assert!(dead(e.item));
                        match why {
                            Dropped::Cancelled => {
                                assert!(cancelled(&e.item));
                                out.cancelled.push(e.item);
                            }
                            Dropped::Expired => {
                                assert!(!cancelled(&e.item), "cancellation wins the tag");
                                out.expired.push(e.item);
                            }
                        }
                    }
                    assert!(!flushed.iter().any(|&id| dead(id)), "flushed a dead member");
                    if !flushed.is_empty() {
                        out.batches.push((t, flushed));
                        t = t.saturating_add(s.service[flushes % s.service.len()]);
                        flushes += 1;
                    }
                }
                quiet => {
                    // Nothing left, so polling again changes nothing.
                    let again = policy.poll(t, draining, cancelled);
                    assert_eq!(format!("{quiet:?}"), format!("{again:?}"));
                    assert_eq!(ids(policy.queue.iter()), queue_after);
                    assert_eq!(ids(policy.forming.iter()), forming_after);
                    let wake = [
                        s.arrivals.get(next).map(|a| a.at),
                        s.drain_at.filter(|&d| d > t),
                        match quiet {
                            Poll::WaitUntil(at) => Some(at),
                            _ => None,
                        },
                    ];
                    if matches!(quiet, Poll::Idle) {
                        assert!(queue_after.is_empty() && forming_after.is_empty());
                    }
                    match wake.into_iter().flatten().min() {
                        Some(at) => {
                            assert!(at > t, "time must advance");
                            t = at;
                        }
                        None => break,
                    }
                }
            }
        }
        // Conservation: every request left exactly once.
        let mut left: Vec<usize> = out.batches.iter().flat_map(|(_, b)| b.clone()).collect();
        left.extend(out.cancelled.iter().chain(&out.expired).chain(&out.refused));
        left.sort_unstable();
        assert_eq!(left, (0..s.arrivals.len()).collect::<Vec<_>>(), "{out:?}");
        out
    }

    /// Base seed, overridable via `MORPHLING_CHAOS_SEED` like the chaos
    /// suites under `tests/` (CI sweeps a few).
    fn chaos_seed(default: u64) -> u64 {
        std::env::var("MORPHLING_CHAOS_SEED")
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .map(|s| s.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ default)
            .unwrap_or(default)
    }

    fn random_schedule(rng: &mut StdRng) -> Schedule {
        // Zero, a span on the scale of the arrival gaps, or unbounded.
        let span = |rng: &mut StdRng| match rng.gen_range(0..4) {
            0 => Duration::ZERO,
            1 => Duration::MAX,
            _ => Duration::from_nanos(rng.gen_range(1..4_000)),
        };
        let tenants = rng.gen_range(1..=8u64);
        let mut at = 0u64;
        let arrivals = (0..rng.gen_range(1..60))
            .map(|_| {
                at += [0, 0, rng.gen_range(1..50u64), rng.gen_range(50..2_500u64)]
                    [rng.gen_range(0..4usize)];
                Arrival {
                    at,
                    affinity: (!rng.gen_bool(0.2))
                        .then(|| TenantId::new(rng.gen_range(0..tenants))),
                    deadline: rng.gen_bool(0.4).then(|| at + rng.gen_range(0..6_000u64)),
                    cancel_at: rng.gen_bool(0.2).then(|| at + rng.gen_range(0..6_000u64)),
                }
            })
            .collect();
        Schedule {
            cfg: ServingConfig {
                max_batch_size: rng.gen_range(1..=32),
                max_linger: span(rng),
                queue_capacity: rng.gen_range(1..=12),
                deadline_slack: span(rng),
                ..ServingConfig::default()
            },
            arrivals,
            service: (0..7).map(|_| rng.gen_range(0..3_000)).collect(),
            drain_at: match rng.gen_range(0..3) {
                0 => None,
                1 => Some(0),
                _ => Some(rng.gen_range(0..at + 2)),
            },
        }
    }

    #[test]
    fn random_schedules_keep_every_invariant() {
        let mut rng = StdRng::seed_from_u64(chaos_seed(0x5EED_B47C));
        let (mut batches, mut dropped, mut refused) = (0, 0, 0);
        for _ in 0..2_000 {
            let s = random_schedule(&mut rng);
            let out = run(&s);
            batches += out.batches.len();
            dropped += out.cancelled.len() + out.expired.len();
            refused += out.refused.len();
        }
        // The generator reaches every way out, not only the happy one.
        assert!(batches > 2_000 && dropped > 2_000 && refused > 2_000);
    }

    #[test]
    fn deadline_equal_to_now_is_already_expired() {
        // The batcher is busy with request 0 until t = 100 — exactly
        // request 1's deadline, one short of request 2's.
        let mut arrivals = vec![arrival(0, None), arrival(10, None), arrival(20, None)];
        arrivals[1].deadline = Some(100);
        arrivals[2].deadline = Some(101);
        let out = run(&Schedule {
            cfg: knobs(1, Duration::ZERO),
            arrivals,
            service: vec![100],
            drain_at: None,
        });
        assert_eq!(out.batches, vec![(0, vec![0]), (100, vec![2])]);
        assert_eq!(out.expired, vec![1]);
    }

    #[test]
    fn tenant_affinity_forms_single_tenant_batches() {
        // A lone tenant-1 request lingers out its 50 µs alone; while it
        // runs (10 µs), tenants interleave behind it: 1 2 1 2 1.
        let (a, b) = (Some(1), Some(2));
        let mut arrivals = vec![arrival(0, a)];
        arrivals.extend(
            [a, b, a, b, a]
                .into_iter()
                .zip(51_000..)
                .map(|(t, at)| arrival(at, t)),
        );
        let out = run(&Schedule {
            cfg: knobs(8, Duration::from_micros(50)),
            arrivals,
            service: vec![10_000],
            drain_at: None,
        });
        // Tenant 1's three wait out *their* seed's linger window; tenant
        // 2's two are overdue by then and go at once, in their own order.
        let batches: Vec<Vec<usize>> = out.batches.iter().map(|(_, b)| b.clone()).collect();
        assert_eq!(batches, vec![vec![0], vec![1, 3, 5], vec![2, 4]]);
        assert_eq!(out.batches[1].0, 51_000 + 50_000);
        assert_eq!(out.batches[2].0, 51_000 + 50_000 + 10_000);
    }

    #[test]
    fn tenantless_and_tenant_traffic_never_share_a_batch() {
        let mut arrivals = vec![
            arrival(0, None),
            arrival(51_000, None),
            arrival(51_001, Some(5)),
        ];
        // Cancelled while forming: its batch still flushes on its linger
        // window, just without it.
        arrivals[1].cancel_at = Some(60_500);
        arrivals.push(arrival(51_002, None));
        let out = run(&Schedule {
            cfg: knobs(8, Duration::from_micros(50)),
            arrivals,
            service: vec![10_000],
            drain_at: None,
        });
        assert_eq!(
            out.batches,
            vec![(50_000, vec![0]), (101_000, vec![3]), (111_000, vec![2])]
        );
        assert_eq!(out.cancelled, vec![1]);
    }

    #[test]
    fn unbounded_linger_saturates_instead_of_overflowing() {
        // `Duration::MAX` is a valid `max_linger`: the batch waits for
        // its second member however long that takes, and flushes when it
        // is full.
        let out = run(&Schedule {
            cfg: knobs(2, Duration::MAX),
            arrivals: vec![
                arrival(5, None),
                arrival(1_000_000_000, None),
                arrival(2_000_000_000, None),
            ],
            service: vec![1],
            drain_at: Some(3_000_000_000),
        });
        assert_eq!(
            out.batches,
            vec![(1_000_000_000, vec![0, 1]), (3_000_000_000, vec![2])]
        );
    }
}
