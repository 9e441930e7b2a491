//! The parallel federated driver: K shards on K threads,
//! deterministically.
//!
//! [`crate::FederatedEngine`] drives all N shards of a [`Gateway`] on
//! one thread through a single merged event heap. But the shards are
//! *independent state machines*: a shard's mapping events depend only
//! on its own clock, its own completions/wakeups, and the arrivals
//! routed to it — never on another shard's state. The one federation
//! point that does need a consistent global view is **routing**.
//! [`ParallelFederatedEngine`] exploits exactly that decomposition:
//!
//! * the **coordinator** (the calling thread) routes arrivals in
//!   global arrival order — identical id compaction, `latest` map and
//!   [`FederationStats`] arrival record as the serial driver;
//! * each **shard lane** owns the per-shard driver state the serial
//!   engine kept globally (completion/wakeup heap, ground-truth RNG,
//!   pending-event and wakeup-pending flags, and a mailbox of routed
//!   arrivals) and advances on a worker of a hand-rolled work-stealing
//!   pool (`vendor/rayon`);
//! * the deterministic [`FederationStats`] fan-in is unchanged: the
//!   coordinator merges results in fixed shard order after every lane
//!   has drained.
//!
//! # One ingest loop, one barrier rule
//!
//! The coordinator admits each arrival and routes it into its lane's
//! mailbox. Lanes deliver their mail on their own — at the next
//! barrier, or in the finale — except that the routing decision for an
//! arrival sometimes needs every shard *current*: all events before
//! `tᵢ` (and completions at `tᵢ`) applied, exactly as the serial driver
//! would hold them. The gateway knows when
//! (`Gateway::barrier_due`), and the loop then opens a **barrier**
//! first: every lane with work delivers its mailbox and catches up to
//! the arrival's instant, after which the coordinator runs the sync
//! point (steal pass, view-table refresh). Which arrivals are barriers
//! follows from the routing configuration alone:
//!
//! * a policy that declares [`crate::RoutePolicy::is_stateless`]
//!   (round-robin), or a one-shard federation, never needs one: the
//!   whole stream lands in mailboxes and every lane replays its
//!   private merge of mail and heap events from start to finish with
//!   **zero cross-shard barriers** — embarrassingly parallel;
//! * [`crate::Consistency::BoundedStale`]`{k}` and federation stealing
//!   need one at every *sync ordinal*, each `k + 1` arrivals, where
//!   the steal pass rebalances batch-queue tails and the stale view
//!   table is republished — the serial driver runs the identical sync
//!   schedule at the identical ordinals
//!   (`tests/relaxed_equivalence.rs`);
//! * a stateful policy (least-queued, best-chance) under
//!   [`crate::Consistency::Lockstep`] routes on live views, so every
//!   arrival is a barrier. The arrival chain is then serial by data
//!   dependency (each routing decision observes the previous arrival's
//!   mapping), and only the completion processing between arrivals
//!   parallelises — which is exactly the available parallelism.
//!
//! Two rules keep barriers cheap. An arrival routed into an empty
//! mailbox right before a barrier is delivered on the coordinator at
//! once, since the barrier would deliver it first thing anyway; and a
//! barrier with at most one busy lane opens no pool scope. Under live
//! views that makes each arrival one inline mapping event plus, when
//! several lanes have completions due, one scope over just those lanes.
//!
//! # Bit-identity argument (the headline guarantee)
//!
//! `tests/parallel_equivalence.rs` pins serialized outputs; the
//! reasoning for *why* it holds at any thread count:
//!
//! 1. The serial driver's global event order `(time, class, shard,
//!    id)` restricted to one shard is `(time, class, id)` — exactly
//!    each lane's private [`EventQueue`] order merged with its mailbox
//!    under the same completions-before-arrivals-before-wakeups rule.
//! 2. Clock advances for *other* shards' events are unobservable: a
//!    shard's behaviour depends on its clock only at its own events,
//!    and both drivers advance it to the same instants there. Each
//!    arrival carries its serial-driver processing time (`target`)
//!    into the mailbox, so even out-of-order deliveries replay.
//! 3. Ground-truth durations are sampled from per-shard RNG streams in
//!    per-shard start order — the same sequence either way.
//! 4. Wakeup scheduling: the serial driver checks every shard after
//!    every event, but a shard's wakeup condition (no pending events,
//!    non-empty batch queue) only changes at its *own* events, so the
//!    wakeup is always scheduled either at the stream-exhaustion
//!    instant `T_last` or immediately after one of the shard's own
//!    events — both of which the lane replays with the same `now`.
//! 5. `finish` advances every shard to the federation-wide end time
//!    (the maximum lane clock), matching the serial driver's habit of
//!    advancing all shards to every event time.
//!
//! Parallelism is therefore purely a wall-clock change; the serialized
//! [`FederationStats`] — traces included — is bit-identical.

use crate::event::{Event, EventKind, EventQueue};
use crate::fault::{FaultEvent, FaultKind, FaultPlan, FaultSite};
use crate::gateway::{FederationStats, Gateway};
use crate::journal::{JournalOp, ShardJournal};
use crate::reuse::Admit;
use crate::sink::{NullSink, Sink};
use crate::snapshot::Snapshot;
use crate::supervisor::{
    RecoveryActionKind, RecoveryLog, RecoveryPolicy, ShardRecovery,
};
use crate::SchedulerCore;
use std::collections::VecDeque;
use taskprune_model::{MachineId, PetMatrix, SimTime, Task, TaskId};
use taskprune_prob::rng::Xoshiro256PlusPlus;

/// One routed arrival in a shard's mailbox.
#[derive(Debug, Clone, Copy)]
struct Mail {
    /// The task, already relabelled with its shard-internal id.
    task: Task,
    /// The clock value the serial driver would process it at: the
    /// running maximum of arrival times (equal to `task.arrival` for
    /// the documented non-decreasing streams, later for stragglers).
    target: SimTime,
    /// `Some((primary, merged))` when the coordinator's reuse gate
    /// absorbed this task onto an in-flight primary: the lane delivers
    /// it through the piggyback path instead of a mapping event.
    reuse: Option<(TaskId, bool)>,
}

/// The lane-local half of the self-healing supervisor (see
/// [`crate::ParallelSupervisor`]): each lane carries its own journal,
/// checkpoint, fault schedule, recovery log and [`ShardRecovery`] (the
/// retry budget and recovery steps the serial [`crate::Supervisor`]
/// uses per shard), so every fault is detected and healed by whichever
/// thread delivers the lane's work — no locks, and no coordination
/// beyond the ingest loop's barriers.
///
/// Semantics mirror the serial supervisor per shard:
///
/// * completions are journaled before the fault consult, so a lost or
///   delayed delivery can be redelivered from the durable record at
///   the fault instant (exact heal — zero trace in simulation state);
/// * a crash wipes the core, then bounded retries rebuild it from the
///   lane checkpoint plus journal replay;
/// * an exhausted budget fail-stops the lane: one free salvage restore
///   (a read of durable storage, not a retry) rebuilds the pre-crash
///   history so nothing already completed is lost, then the lane is
///   quarantined — subsequent deliveries are recorded but never
///   started, heap events vanish with the hardware, and everything
///   still pending surfaces as `Unfinished` at the drain.
///
/// The one structural difference from the serial supervisor: there is
/// no cross-shard backlog re-route (other lanes may be mid-slice when
/// one crashes) and no watermark health checks (lanes never pause);
/// the coordinator remaps *future* arrivals around a quarantined lane
/// once a barrier or an ingest pause publishes the fail-stop, and
/// auto-checkpoints run on a per-lane arrival cadence instead of a
/// global watermark.
struct LaneGuard {
    policy: RecoveryPolicy,
    shard: usize,
    /// The durable restore point — refreshed on the checkpoint cadence.
    checkpoint: Snapshot,
    /// Operations applied since `checkpoint` (cleared when it moves).
    journal: ShardJournal,
    /// This shard's slice of the armed [`FaultPlan`].
    faults: Vec<FaultEvent>,
    recovery: ShardRecovery,
    arrivals_seen: u64,
    completions_seen: u64,
    checkpoints_seen: u64,
    recoveries_seen: u64,
    quarantined: bool,
    log: RecoveryLog,
}

/// The armed fault striking the `nth` operation at `site`, if any.
fn fault_at(
    faults: &[FaultEvent],
    site: FaultSite,
    nth: u64,
) -> Option<FaultKind> {
    faults
        .iter()
        .find(|e| e.kind.site() == site && e.nth == nth)
        .map(|e| e.kind)
}

/// Checkpoint restore + journal replay + clock re-advance. Returns
/// whether the core was rebuilt.
fn restore<S: Sink>(
    checkpoint: &Snapshot,
    journal: &ShardJournal,
    core: &mut SchedulerCore<'_, S>,
    now: SimTime,
) -> bool {
    if core.restore(checkpoint).is_err() {
        return false;
    }
    journal.replay(core);
    if now > core.now() {
        core.advance_to(now);
    }
    true
}

impl LaneGuard {
    fn new(policy: RecoveryPolicy, shard: usize, checkpoint: Snapshot) -> Self {
        Self {
            policy,
            shard,
            checkpoint,
            journal: ShardJournal::new(),
            faults: Vec::new(),
            recovery: ShardRecovery::new(shard, &policy),
            arrivals_seen: 0,
            completions_seen: 0,
            checkpoints_seen: 0,
            recoveries_seen: 0,
            quarantined: false,
            log: RecoveryLog::default(),
        }
    }

    /// Journals one completion delivery and consults the fault
    /// schedule. Returns whether the completion should be applied to
    /// the core (`false` = the delivery is lost; the journal record
    /// keeps it recoverable by a later replay, and the stuck task
    /// surfaces as `Unfinished` if the budget never allows one).
    fn on_completion(
        &mut self,
        time: SimTime,
        machine: MachineId,
        task: TaskId,
    ) -> bool {
        // Journal before the fault consult, exactly like the serial
        // driver: the transport loses the delivery *after* the durable
        // record exists, which is what makes redelivery possible.
        self.journal
            .record(time, JournalOp::Completion { machine, task });
        self.completions_seen += 1;
        match fault_at(
            &self.faults,
            FaultSite::Completion,
            self.completions_seen,
        ) {
            Some(
                kind @ (FaultKind::LostCompletion
                | FaultKind::DelayedCompletion),
            ) => {
                self.log.push(
                    time,
                    self.shard,
                    RecoveryActionKind::FaultDetected { fault: kind },
                );
                self.recovery.redeliver(&mut self.log, time)
            }
            Some(FaultKind::DuplicateCompletion) => {
                // The duplicated copy is rejected by the staleness
                // dedupe; the first copy applies and nothing needs
                // healing — log the suppression only.
                self.log.push(
                    time,
                    self.shard,
                    RecoveryActionKind::DuplicateSuppressed,
                );
                true
            }
            _ => true,
        }
    }

    /// Journals one delivered arrival — routed, or absorbed onto a
    /// primary by the reuse gate — and returns whether the shard
    /// crashes right after the delivery commits. Both kinds count
    /// against the same arrival-site fault coordinates: the serial
    /// driver consults its injector once per delivered arrival either
    /// way.
    fn on_arrival(&mut self, mail: &Mail) -> bool {
        let op = match mail.reuse {
            Some((primary, merged)) => JournalOp::Piggyback {
                primary,
                task: mail.task,
                merged,
            },
            None => JournalOp::Arrival(mail.task),
        };
        self.journal.record(mail.target, op);
        self.arrivals_seen += 1;
        fault_at(&self.faults, FaultSite::Arrival, self.arrivals_seen).is_some()
    }

    /// The crash path: wipe, then bounded retries of checkpoint +
    /// journal replay; on an exhausted budget, one free salvage
    /// restore and fail-stop (quarantine).
    fn settle_crash<S: Sink>(
        &mut self,
        core: &mut SchedulerCore<'_, S>,
        now: SimTime,
    ) {
        self.log.push(
            now,
            self.shard,
            RecoveryActionKind::FaultDetected {
                fault: FaultKind::ShardCrash,
            },
        );
        core.wipe();
        let Self {
            checkpoint,
            journal,
            faults,
            recovery,
            recoveries_seen,
            log,
            ..
        } = self;
        let recovered = recovery.restore(log, now, || {
            *recoveries_seen += 1;
            if fault_at(faults, FaultSite::Recovery, *recoveries_seen).is_some()
            {
                return None;
            }
            restore(checkpoint, journal, core, now)
                .then(|| journal.len() as u64)
        });
        if recovered {
            return;
        }
        // Budget exhausted: the shard stays down. Rebuild its state
        // once from durable storage — not to revive it, but so the
        // history up to the crash (completed tasks, outcome records)
        // survives into the final stats — then fail-stop. No backlog
        // re-route: the other lanes may be mid-slice, so the
        // still-queued work lands as `Unfinished` instead.
        let _ = restore(&self.checkpoint, &self.journal, core, now);
        self.quarantined = true;
        self.log.push(
            now,
            self.shard,
            RecoveryActionKind::Quarantined { rerouted: 0 },
        );
    }

    /// Auto-checkpoint on the per-lane arrival cadence (see
    /// [`ShardRecovery::checkpoint`] for the retries).
    fn maybe_checkpoint<S: Sink>(&mut self, core: &SchedulerCore<'_, S>) {
        let interval = self.policy.checkpoint_interval.max(1);
        if !self.arrivals_seen.is_multiple_of(interval) {
            return;
        }
        let Self {
            checkpoint,
            journal,
            faults,
            recovery,
            checkpoints_seen,
            arrivals_seen,
            log,
            ..
        } = self;
        recovery.checkpoint(log, core.now(), *arrivals_seen, || {
            *checkpoints_seen += 1;
            if fault_at(faults, FaultSite::Checkpoint, *checkpoints_seen)
                .is_some()
            {
                return false;
            }
            *checkpoint = core.snapshot();
            journal.clear();
            true
        });
    }
}

/// The per-shard driver state the serial [`crate::FederatedEngine`]
/// keeps globally, privatised so a worker thread can advance the shard
/// without touching anything shared.
struct ShardLane {
    /// This shard's pending completions/wakeups, in the serial
    /// driver's order restricted to the shard.
    events: EventQueue,
    /// Ground-truth duration sampling stream (same seed derivation as
    /// the serial driver: shard 0 keeps the base seed).
    rng: Xoshiro256PlusPlus,
    /// Heap-event count — the wakeup guard's "no event will ever fire
    /// again" condition.
    pending: usize,
    wakeup_pending: bool,
    /// Routed arrivals awaiting delivery at the next barrier or the
    /// finale.
    mailbox: VecDeque<Mail>,
    /// Lane-local supervision, when the engine is wrapped in a
    /// [`crate::ParallelSupervisor`]. `None` costs nothing on the
    /// unsupervised hot path.
    guard: Option<LaneGuard>,
}

impl ShardLane {
    fn new(seed: u64) -> Self {
        Self {
            events: EventQueue::new(),
            rng: Xoshiro256PlusPlus::new(seed),
            pending: 0,
            wakeup_pending: false,
            mailbox: VecDeque::new(),
            guard: None,
        }
    }

    /// Whether this lane has fail-stopped (budget-exhausted crash).
    fn is_quarantined(&self) -> bool {
        self.guard.as_ref().is_some_and(|g| g.quarantined)
    }

    /// Drops every pending heap event — a quarantined lane's hardware
    /// is gone, so in-flight completions and wakeups vanish unseen.
    fn discard_events(&mut self) {
        self.events = EventQueue::new();
        self.pending = 0;
        self.wakeup_pending = false;
    }

    /// Turns the shard's pending starts into completion events,
    /// sampling actual durations from this lane's ground-truth stream
    /// — the per-shard half of the serial driver's `dispatch_starts`.
    fn dispatch_starts<S: Sink>(
        &mut self,
        core: &mut SchedulerCore<'_, S>,
        truth: &PetMatrix,
    ) {
        let now = core.now();
        for start in core.drain_starts() {
            let duration = truth.sample_duration(
                start.machine.type_id,
                start.task.type_id,
                &mut self.rng,
            );
            self.events.push(Event {
                time: now + duration,
                kind: EventKind::Completion {
                    machine: start.machine.id,
                    task: start.task.id,
                },
            });
            self.pending += 1;
        }
    }

    /// Whether a heap event is due strictly before an arrival at
    /// `cutoff` (completions at the cutoff instant fire first, per the
    /// event-ordering contract).
    fn has_due(&self, cutoff: SimTime) -> bool {
        self.events.peek().is_some_and(|e| {
            e.time < cutoff
                || (e.time == cutoff
                    && matches!(e.kind, EventKind::Completion { .. }))
        })
    }

    /// Processes every completion due before an arrival at `cutoff`,
    /// then advances the shard clock to `target` (the arrival's serial
    /// processing instant) so a subsequent routing view or
    /// `push_arrival` observes the same `now` the serial driver would.
    fn advance_events<S: Sink>(
        &mut self,
        core: &mut SchedulerCore<'_, S>,
        truth: &PetMatrix,
        cutoff: SimTime,
        target: SimTime,
    ) {
        if self.is_quarantined() {
            while self.has_due(cutoff) {
                self.events.pop();
                self.pending -= 1;
            }
            if target > core.now() {
                core.advance_to(target);
            }
            return;
        }
        while self.has_due(cutoff) {
            let event = self.events.pop().expect("has_due peeked");
            self.pending -= 1;
            core.advance_to(event.time);
            match event.kind {
                EventKind::Completion { machine, task } => {
                    let apply = match self.guard.as_mut() {
                        Some(g) => g.on_completion(event.time, machine, task),
                        None => true,
                    };
                    if !apply || !core.complete(machine, task) {
                        continue; // lost delivery, or stale after a
                                  // cancellation
                    }
                }
                // Wakeups are only ever scheduled once the arrival
                // stream is exhausted (`drain`), never before.
                _ => unreachable!("only completions precede the drain"),
            }
            self.dispatch_starts(core, truth);
            core.drain_decisions();
        }
        if target > core.now() {
            core.advance_to(target);
        }
    }

    /// Delivers one mailbox arrival: due completions first, then the
    /// shard's mapping event at the arrival's serial instant. When a
    /// [`LaneGuard`] is installed this is also the fault frontier:
    /// the arrival is journaled, the crash schedule consulted after
    /// the mapping round commits, and the auto-checkpoint cadence
    /// advanced.
    fn deliver<S: Sink>(
        &mut self,
        core: &mut SchedulerCore<'_, S>,
        truth: &PetMatrix,
        mail: Mail,
    ) {
        self.advance_events(core, truth, mail.task.arrival, mail.target);
        let quarantined = self.is_quarantined();
        let crashed = !quarantined
            && self.guard.as_mut().is_some_and(|g| g.on_arrival(&mail));
        match mail.reuse {
            Some((primary, merged)) => {
                core.apply_piggyback(primary, mail.task, merged);
            }
            None => core.push_arrival(mail.task),
        }
        if quarantined {
            // Fail-stopped shard: the arrival is recorded so its outcome
            // is accounted (`Unfinished` at the drain — no machine will
            // ever start it), but nothing is dispatched.
            let _ = core.drain_starts();
            core.drain_decisions();
            return;
        }
        self.dispatch_starts(core, truth);
        core.drain_decisions();
        if crashed {
            // The crash strikes after the arrival's mapping round fully
            // committed: the surviving heap already holds the round's
            // consequences, which is exactly the failure model the
            // checkpoint + journal replay rebuilds against.
            let now = core.now();
            let g = self.guard.as_mut().expect("crash implies a guard");
            g.settle_crash(core, now);
            if g.quarantined {
                self.discard_events();
                return;
            }
        }
        if let Some(g) = self.guard.as_mut() {
            g.maybe_checkpoint(core);
        }
    }

    /// The serial driver's per-shard wakeup safety net: when no event
    /// will ever fire again on this shard but its batch queue still
    /// holds work, schedule a synthetic mapping event just past the
    /// earliest pending deadline (clamped to `now`, the serial
    /// driver's clock at the moment it would run this check).
    fn maybe_schedule_wakeup<S: Sink>(
        &mut self,
        core: &SchedulerCore<'_, S>,
        now: SimTime,
    ) {
        if self.wakeup_pending || self.pending > 0 {
            return;
        }
        let Some(earliest) = core.earliest_pending_deadline() else {
            return;
        };
        self.events.push(Event {
            time: SimTime(earliest.ticks().max(now.ticks()) + 1),
            kind: EventKind::Wakeup,
        });
        self.pending += 1;
        self.wakeup_pending = true;
    }

    /// Runs the shard to completion after the last global arrival
    /// (processed at `t_last`): the first wakeup check fires at
    /// `t_last` — the serial driver's stream-exhaustion instant — then
    /// the remaining events drain with a check after each.
    fn drain<S: Sink>(
        &mut self,
        core: &mut SchedulerCore<'_, S>,
        truth: &PetMatrix,
        t_last: SimTime,
    ) {
        if self.is_quarantined() {
            // Heap events die with the hardware; whatever the batch
            // and machine queues still hold surfaces as `Unfinished`
            // when the core finishes.
            self.discard_events();
            return;
        }
        self.maybe_schedule_wakeup(core, t_last);
        while let Some(event) = self.events.pop() {
            self.pending -= 1;
            core.advance_to(event.time);
            match event.kind {
                EventKind::Completion { machine, task } => {
                    let apply = match self.guard.as_mut() {
                        Some(g) => g.on_completion(event.time, machine, task),
                        None => true,
                    };
                    if !apply || !core.complete(machine, task) {
                        continue; // lost delivery, or stale after a
                                  // cancellation
                    }
                }
                EventKind::Wakeup => {
                    if let Some(g) = self.guard.as_mut() {
                        g.journal.record(event.time, JournalOp::Wakeup);
                    }
                    self.wakeup_pending = false;
                    core.wakeup();
                }
                EventKind::Arrival { .. } => {
                    unreachable!("arrivals are mailbox-fed, never enqueued")
                }
            }
            self.dispatch_starts(core, truth);
            core.drain_decisions();
            self.maybe_schedule_wakeup(core, core.now());
        }
    }

    fn deliver_mailbox<S: Sink>(
        &mut self,
        core: &mut SchedulerCore<'_, S>,
        truth: &PetMatrix,
    ) {
        while let Some(mail) = self.mailbox.pop_front() {
            self.deliver(core, truth, mail);
        }
    }

    /// The lane's finale: deliver whatever the mailbox still holds,
    /// then drain. For a run with no barriers this is the lane's whole
    /// simulation, replayed from start to finish as one pool job.
    fn run_shard<S: Sink>(
        &mut self,
        core: &mut SchedulerCore<'_, S>,
        truth: &PetMatrix,
        t_last: Option<SimTime>,
    ) {
        self.deliver_mailbox(core, truth);
        let Some(t_last) = t_last else {
            return; // no arrivals anywhere: nothing can have happened
        };
        // Remaining completions up to the stream-exhaustion instant
        // fire under arrival-phase rules (no wakeup checks yet) …
        self.advance_events(core, truth, t_last, t_last);
        // … then the drain regime begins, exactly at T_last.
        self.drain(core, truth, t_last);
    }
}

/// The parallel federated discrete-event driver. Construct via
/// [`crate::GatewayBuilder::build_parallel`]; behaviourally a drop-in
/// for [`crate::FederatedEngine::run_stream`] — same inputs, same
/// deterministic [`FederationStats`], bit-identical at every thread
/// count — with wall-clock scaling across shards. See the [module
/// docs](self) for the schedule and the bit-identity argument.
pub struct ParallelFederatedEngine<'a, S: Sink = NullSink> {
    gateway: Gateway<'a, S>,
    truth: &'a PetMatrix,
    lanes: Vec<ShardLane>,
    pool: rayon::ThreadPool,
    threads: usize,
    /// Running maximum of ingested arrival times — the serial
    /// processing instant of the latest arrival, carried across
    /// [`ParallelFederatedEngine::ingest_prefix`] calls.
    watermark: Option<SimTime>,
    /// Pre-routing copies of every ingested arrival (original external
    /// ids), kept when resharding needs to re-split the stream.
    arrival_log: Option<Vec<Task>>,
}

impl<'a, S: Sink> ParallelFederatedEngine<'a, S> {
    /// Wraps a built gateway. Crate-internal;
    /// [`crate::GatewayBuilder::build_parallel`] is the public
    /// entrance. `threads = None` honours `TASKPRUNE_THREADS` (else
    /// all hardware threads).
    pub(crate) fn from_gateway(
        gateway: Gateway<'a, S>,
        truth: &'a PetMatrix,
        threads: Option<usize>,
    ) -> Self {
        let lanes = gateway
            .shards()
            .iter()
            .map(|s| ShardLane::new(s.config().seed))
            .collect();
        let threads = threads
            .unwrap_or_else(|| rayon::ThreadPool::global().num_threads())
            .max(1);
        Self {
            gateway,
            truth,
            lanes,
            pool: rayon::ThreadPool::new(threads),
            threads,
            watermark: None,
            arrival_log: None,
        }
    }

    /// Number of shards being driven.
    pub fn n_shards(&self) -> usize {
        self.gateway.n_shards()
    }

    /// Total executor threads (workers + the coordinating caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Consumes an arrival stream ordered by non-decreasing
    /// `task.arrival` — external ids may be sparse, out of order or
    /// duplicated — routes every task in global arrival order, runs
    /// the shards in parallel, and drains everything after the last
    /// arrival. Output is bit-identical to
    /// [`crate::FederatedEngine::run_stream`] on the same inputs.
    pub fn run_stream<I>(self, arrivals: I) -> FederationStats
    where
        I: IntoIterator<Item = Task>,
    {
        self.finish_stream(arrivals)
    }

    /// Routes and executes a prefix of the arrival stream, leaving the
    /// engine paused at the prefix watermark: every prefix arrival has
    /// been routed (id compaction, arrival record, policy state) and
    /// delivered to its shard, and no post-stream drain has begun.
    /// Pair with [`ParallelFederatedEngine::snapshot_gateway`] to
    /// checkpoint the paused federation, then
    /// [`ParallelFederatedEngine::finish_stream`] to resume — or drop
    /// the engine and re-split the recorded
    /// [`ParallelFederatedEngine::arrival_log`] across a different
    /// shard count (live resharding).
    pub fn ingest_prefix<I>(&mut self, arrivals: I)
    where
        I: IntoIterator<Item = Task>,
    {
        self.ingest(arrivals);
        // Mailboxes normally wait for the next barrier or the finale;
        // deliver the routed prefix now so the pause point observes
        // shards advanced to the watermark. The per-shard operation
        // sequence is exactly the one `run_shard` (or the next barrier)
        // would have replayed, so a later `finish_stream` stays
        // bit-identical.
        self.run_lanes(
            |lane| !lane.mailbox.is_empty(),
            |lane, core, truth| lane.deliver_mailbox(core, truth),
        );
        self.sync_quarantine_flags();
    }

    /// Ingests the remaining arrivals and runs the federation to
    /// completion — the second half of a run paused by
    /// [`ParallelFederatedEngine::ingest_prefix`]. Calling it with the
    /// whole stream (no prior prefix) is exactly
    /// [`ParallelFederatedEngine::run_stream`].
    pub fn finish_stream<I>(mut self, arrivals: I) -> FederationStats
    where
        I: IntoIterator<Item = Task>,
    {
        self.ingest(arrivals);
        let t_last = self.watermark;
        // Parallel finale: every lane runs/drains independently —
        // everything since its last barrier, then the post-arrival
        // drain.
        self.run_lanes(
            |_| true,
            |lane, core, truth| lane.run_shard(core, truth, t_last),
        );
        self.sync_quarantine_flags();
        self.finish()
    }

    /// Starts recording every ingested arrival (pre-routing, original
    /// external ids) so a paused run can be re-split across a different
    /// shard count. Idempotent; enable before the first ingest.
    pub fn enable_arrival_log(&mut self) {
        self.arrival_log.get_or_insert_with(Vec::new);
    }

    /// The recorded arrivals in ingest order. Empty unless
    /// [`ParallelFederatedEngine::enable_arrival_log`] was called.
    pub fn arrival_log(&self) -> &[Task] {
        self.arrival_log.as_deref().unwrap_or(&[])
    }

    /// Captures the routing layer — shard cores, id compaction,
    /// arrival records and policy state — as a sealed, versioned
    /// [`Snapshot`]. Meaningful at an
    /// [`ParallelFederatedEngine::ingest_prefix`] pause point.
    pub fn snapshot_gateway(&self) -> Snapshot {
        self.gateway.snapshot()
    }

    /// Installs a [`LaneGuard`] on every lane: journaling on, an
    /// initial checkpoint captured, the retry budget charged. Called by
    /// [`crate::ParallelSupervisor::new`]; arm faults afterwards so the
    /// bootstrap captures are not themselves fault targets.
    pub(crate) fn supervise(&mut self, policy: RecoveryPolicy) {
        for (i, (lane, core)) in self
            .lanes
            .iter_mut()
            .zip(self.gateway.shards().iter())
            .enumerate()
        {
            lane.guard = Some(LaneGuard::new(policy, i, core.snapshot()));
        }
    }

    /// Arms deterministic fault injection lane-locally: each guard
    /// receives its own shard's slice of the plan. Requires
    /// [`ParallelFederatedEngine::supervise`] first (guards hold the
    /// schedules); slices for unsupervised lanes are dropped.
    pub(crate) fn arm_lane_faults(&mut self, plan: &FaultPlan) {
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            if let Some(g) = lane.guard.as_mut() {
                g.faults = plan.for_shard(i);
            }
        }
    }

    /// Whether the gateway carries an overload ladder (tenancy with a
    /// [`crate::LadderConfig`]).
    pub(crate) fn ladder_enabled(&self) -> bool {
        self.gateway.ladder_enabled()
    }

    /// Arrivals admitted past the tenant table so far — the ladder's
    /// sensing watermark (shed tasks never count).
    pub(crate) fn arrivals_admitted(&self) -> u64 {
        self.gateway.arrivals_admitted()
    }

    /// Summed batch-queue depth across healthy shards — the same
    /// pressure signal the serial driver senses, read at a quiescent
    /// ingest pause where every lane is current.
    pub(crate) fn overload_pressure(&self) -> usize {
        self.gateway
            .shards()
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.gateway.is_quarantined(*i))
            .map(|(_, s)| s.pending_batch_len())
            .sum()
    }

    /// Feeds one pressure sample to the overload ladder; mirrors
    /// [`crate::FederatedEngine::overload_tick`] — on a transition the
    /// new rung reaches every healthy shard's pruner bias and each
    /// supervised lane's journal, stamped at the ingest watermark (the
    /// serial driver's clock at the same ordinal).
    pub(crate) fn overload_tick(
        &mut self,
        pressure: usize,
    ) -> Option<(u8, u8)> {
        let (from, to) = self.gateway.overload_tick(pressure)?;
        let time = self.watermark.unwrap_or(SimTime::ZERO);
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            if self.gateway.is_quarantined(i) {
                continue;
            }
            if let Some(g) = lane.guard.as_mut() {
                g.journal.record(time, JournalOp::SlaRung { rung: to });
            }
        }
        for i in 0..self.gateway.n_shards() {
            if self.gateway.is_quarantined(i) {
                continue;
            }
            self.gateway.shards_mut()[i].set_sla_rung(to);
        }
        Some((from, to))
    }

    /// The serial processing instant of the latest ingested arrival
    /// (the supervisor's timestamp for quiescent-pause actions).
    pub(crate) fn watermark_time(&self) -> SimTime {
        self.watermark.unwrap_or(SimTime::ZERO)
    }

    /// Records a supervisor action against `shard`'s lane log (merged
    /// into [`FederationStats::recovery_log`] at the drain). No-op on
    /// unsupervised lanes.
    pub(crate) fn push_recovery_action(
        &mut self,
        time: SimTime,
        shard: usize,
        kind: RecoveryActionKind,
    ) {
        if let Some(g) = self.lanes[shard].guard.as_mut() {
            g.log.push(time, shard, kind);
        }
    }

    /// Publishes new lane fail-stops into the gateway's routing layer,
    /// so later arrivals route around dead shards. Each shard is
    /// published once, as the serial driver does: publishing evicts the
    /// shard's reuse-gate entries, a scan a per-arrival barrier must
    /// not repeat.
    fn sync_quarantine_flags(&mut self) {
        for i in 0..self.lanes.len() {
            if self.lanes[i].is_quarantined() && !self.gateway.is_quarantined(i)
            {
                self.gateway.set_quarantined(i);
            }
        }
    }

    /// The ingest loop. Each admitted arrival is routed into its lane's
    /// mailbox; when the gateway says the arrival must see current
    /// shards ([`Gateway::barrier_due`]), a barrier comes first: every
    /// lane catches up to the arrival's serial instant, then the
    /// coordinator runs the sync point. Stateless routing never needs
    /// a barrier, so its lanes run whole in the finale; bounded-stale
    /// routing and stealing need one every `k + 1` arrivals; stateful
    /// routing on live views needs one before every arrival.
    fn ingest<I>(&mut self, arrivals: I)
    where
        I: IntoIterator<Item = Task>,
    {
        for mut task in arrivals {
            // Tenant admission precedes every coordinate update
            // (watermark, arrival log, barriers, mailboxes): a shed task
            // is invisible, exactly as in the serial driver, and cannot
            // trigger or delay a barrier.
            if self.gateway.pre_admit(&mut task).is_some() {
                continue;
            }
            let cutoff = task.arrival;
            let target = self.watermark.map_or(cutoff, |w| w.max(cutoff));
            self.watermark = Some(target);
            if let Some(log) = self.arrival_log.as_mut() {
                log.push(task);
            }
            if self.gateway.barrier_due() {
                self.sync_lanes(cutoff, target);
                self.run_sync_point(target);
            }
            let (shard, mail) = match self.gateway.admit_route(task) {
                Admit::Fresh { shard, task } => (
                    shard,
                    Mail {
                        task,
                        target,
                        reuse: None,
                    },
                ),
                Admit::Absorb {
                    shard,
                    primary,
                    task,
                    merged,
                } => (
                    shard,
                    Mail {
                        task,
                        target,
                        reuse: Some((primary, merged)),
                    },
                ),
            };
            let lane = &mut self.lanes[shard];
            if lane.mailbox.is_empty() && self.gateway.barrier_due() {
                // The next barrier would deliver this arrival first
                // thing; deliver it on the coordinator now and spare the
                // barrier a spawn. Under live-view routing this is every
                // arrival: the routing + mapping chain is serial by data
                // dependency anyway.
                let core = &mut self.gateway.shards_mut()[shard];
                lane.deliver(core, self.truth, mail);
            } else {
                lane.mailbox.push_back(mail);
            }
        }
    }

    /// Runs `work` on every lane: lanes `busy` reports go to the pool,
    /// the rest run on the coordinator. When at most one lane is busy
    /// no pool scope opens at all — its allocation and completion latch
    /// would cost more than the lane's work.
    fn run_lanes<B, W>(&mut self, busy: B, work: W)
    where
        B: Fn(&ShardLane) -> bool,
        W: Fn(&mut ShardLane, &mut SchedulerCore<'a, S>, &PetMatrix) + Sync,
    {
        let truth = self.truth;
        let lanes = &mut self.lanes;
        let shards = self.gateway.shards_mut();
        if lanes.iter().filter(|l| busy(l)).count() <= 1 {
            for (lane, core) in lanes.iter_mut().zip(shards.iter_mut()) {
                work(lane, core, truth);
            }
            return;
        }
        let work = &work;
        self.pool.scope(|s| {
            for (lane, core) in lanes.iter_mut().zip(shards.iter_mut()) {
                if busy(lane) {
                    s.spawn(move || work(lane, core, truth));
                } else {
                    work(lane, core, truth);
                }
            }
        });
    }

    /// The barrier: every lane drains its mailbox and processes all
    /// completions due before `cutoff`, finishing with its clock at
    /// `target` — the exact state the serial driver holds when it
    /// reaches the same arrival ordinal.
    fn sync_lanes(&mut self, cutoff: SimTime, target: SimTime) {
        self.run_lanes(
            |lane| !lane.mailbox.is_empty() || lane.has_due(cutoff),
            |lane, core, truth| {
                lane.deliver_mailbox(core, truth);
                lane.advance_events(core, truth, cutoff, target);
            },
        );
        self.sync_quarantine_flags();
    }

    /// Runs the coordinator half of a sync point — steal pass plus view
    /// refresh — then journals the transfers into the lane guards and
    /// dispatches the thieves' freshly mapped starts. Steals are
    /// coordinator-side operations: they advance **no** lane fault
    /// coordinate (arrival/completion counts), so a fault plan strikes
    /// the same operations with or without stealing.
    fn run_sync_point(&mut self, target: SimTime) {
        let records = self.gateway.sync_point();
        if records.is_empty() {
            return;
        }
        for record in &records {
            for &(donor_internal, adopted) in &record.moved {
                if let Some(g) = self.lanes[record.from].guard.as_mut() {
                    g.journal.record(
                        target,
                        JournalOp::Steal {
                            task: donor_internal,
                        },
                    );
                }
                if let Some(g) = self.lanes[record.to].guard.as_mut() {
                    g.journal
                        .record(target, JournalOp::Adopt { task: adopted });
                }
            }
        }
        let truth = self.truth;
        let lanes = &mut self.lanes;
        let shards = self.gateway.shards_mut();
        for (lane, core) in lanes.iter_mut().zip(shards.iter_mut()) {
            lane.dispatch_starts(core, truth);
            core.drain_decisions();
        }
    }

    /// Deterministic fan-in: advance every shard to the federation-wide
    /// end time (the serial driver's shared final clock) and collect
    /// the outcome record in fixed shard order — with the lane guards'
    /// recovery logs merged (shard-index order) into the stats.
    fn finish(mut self) -> FederationStats {
        let mut recovery = RecoveryLog::default();
        for lane in &mut self.lanes {
            if let Some(g) = lane.guard.as_mut() {
                recovery.extend(std::mem::take(&mut g.log));
            }
        }
        let t_end = self
            .gateway
            .shards()
            .iter()
            .map(SchedulerCore::now)
            .max()
            .unwrap_or(SimTime::ZERO);
        for core in self.gateway.shards_mut() {
            if t_end > core.now() {
                core.advance_to(t_end);
            }
        }
        let mut stats = self.gateway.finish();
        stats.recovery = recovery;
        stats
    }
}

impl<S: Sink> std::fmt::Debug for ParallelFederatedEngine<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelFederatedEngine")
            .field("gateway", &self.gateway)
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::gateway::GatewayBuilder;
    use crate::route::{LeastQueuedRoute, RoundRobinRoute};
    use crate::traits::{Assignment, BatchMapper, MappingStrategy, NoPruning};
    use crate::view::SystemView;
    use taskprune_model::{
        BinSpec, Cluster, MachineId, TaskOutcome, TaskTypeId,
    };
    use taskprune_prob::Pmf;

    fn det_pet() -> PetMatrix {
        PetMatrix::new(BinSpec::new(100), 1, 1, vec![Pmf::point_mass(2)])
    }

    struct ToZero;
    impl BatchMapper for ToZero {
        fn name(&self) -> &str {
            "to-zero"
        }
        fn select(
            &mut self,
            view: &SystemView<'_>,
            candidates: &[Task],
        ) -> Vec<Assignment> {
            candidates
                .iter()
                .take(view.free_slots(MachineId(0)))
                .map(|t| Assignment {
                    task: t.id,
                    machine: MachineId(0),
                })
                .collect()
        }
    }

    fn tasks(n: u64, every: u64) -> Vec<Task> {
        (0..n)
            .map(|i| {
                let arr = i * every;
                Task::new(
                    i,
                    TaskTypeId(0),
                    SimTime(arr),
                    SimTime(arr + 100_000),
                )
            })
            .collect()
    }

    fn builder<'a>(
        pet: &'a PetMatrix,
        cluster: &Cluster,
        shards: usize,
    ) -> GatewayBuilder<'a, NullSink> {
        GatewayBuilder::new(cluster, pet)
            .config(SimConfig::batch(1))
            .shards(shards)
            .strategy_with(|_| MappingStrategy::Batch(Box::new(ToZero)))
            .pruner_with(|_| Box::new(NoPruning))
    }

    fn run_parallel(
        shards: usize,
        threads: usize,
        stateless: bool,
        workload: &[Task],
    ) -> FederationStats {
        let pet = det_pet();
        let cluster = Cluster::one_per_type(1);
        let mut b = builder(&pet, &cluster, shards).threads(threads);
        if !stateless {
            b = b.policy(LeastQueuedRoute::new());
        } else {
            b = b.policy(RoundRobinRoute::new());
        }
        b.build_parallel()
            .expect("valid configuration")
            .run_stream(workload.iter().copied())
    }

    #[test]
    fn empty_stream_finishes_cleanly() {
        let stats = run_parallel(3, 2, true, &[]);
        assert_eq!(stats.n_tasks(), 0);
        assert_eq!(stats.end_time(), SimTime::ZERO);
    }

    #[test]
    fn both_schedules_complete_everything() {
        let workload = tasks(60, 40);
        for stateless in [true, false] {
            let stats = run_parallel(4, 3, stateless, &workload);
            assert_eq!(stats.n_tasks(), 60, "stateless={stateless}");
            assert_eq!(stats.unreported(), 0, "stateless={stateless}");
            assert_eq!(
                stats.count(TaskOutcome::CompletedOnTime),
                60,
                "stateless={stateless}"
            );
        }
    }

    #[test]
    fn thread_counts_agree_bit_for_bit() {
        // The crate-local smoke version of the root equivalence suite.
        let workload = tasks(80, 25);
        for stateless in [true, false] {
            let reference = run_parallel(4, 1, stateless, &workload);
            for threads in [2, 4] {
                let other = run_parallel(4, threads, stateless, &workload);
                assert_eq!(
                    serde_json::to_string(&reference).unwrap(),
                    serde_json::to_string(&other).unwrap(),
                    "stateless={stateless} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn prefix_ingest_then_finish_matches_one_shot() {
        let workload = tasks(50, 30);
        for stateless in [true, false] {
            let reference = run_parallel(3, 2, stateless, &workload);
            let pet = det_pet();
            let cluster = Cluster::one_per_type(1);
            let mut b = builder(&pet, &cluster, 3).threads(2);
            if stateless {
                b = b.policy(RoundRobinRoute::new());
            } else {
                b = b.policy(LeastQueuedRoute::new());
            }
            let mut engine = b.build_parallel().expect("valid configuration");
            engine.enable_arrival_log();
            engine.ingest_prefix(workload[..20].iter().copied());
            assert_eq!(engine.arrival_log().len(), 20);
            engine
                .snapshot_gateway()
                .verify()
                .expect("paused-federation snapshot verifies");
            let stats = engine.finish_stream(workload[20..].iter().copied());
            assert_eq!(
                serde_json::to_string(&reference).unwrap(),
                serde_json::to_string(&stats).unwrap(),
                "stateless={stateless}"
            );
        }
    }

    #[test]
    fn threads_knob_is_reported() {
        let pet = det_pet();
        let cluster = Cluster::one_per_type(1);
        let engine = builder(&pet, &cluster, 2)
            .threads(7)
            .build_parallel()
            .expect("valid configuration");
        assert_eq!(engine.threads(), 7);
        assert_eq!(engine.n_shards(), 2);
    }
}
