//! The self-healing supervisor: auto-checkpoints, fault detection,
//! bounded retries, and graceful degradation for federated runs.
//!
//! A [`Supervisor`] wraps a [`FederatedEngine`] (and a
//! [`ParallelSupervisor`] its parallel sibling) and pumps its event
//! loop in watermark-sized slices. At every watermark it takes
//! per-shard checkpoints and runs health checks (journal-gap,
//! watermark-lag); when an injected fault surfaces it applies a typed
//! [`RecoveryPolicy`]: bounded retries with deterministic sim-time
//! backoff, checkpoint + journal replay for crashes, and — once a
//! shard's budget is exhausted — quarantine with load shedding: the
//! shard's still-unmapped backlog re-routes to healthy shards, whose
//! pruning thresholds tighten to absorb it.
//!
//! Two invariants make the supervisor testable to the bit:
//!
//! * **Recovery is exact.** A healed fault leaves zero trace in the
//!   simulation state: retry backoff is bookkeeping (logged, never
//!   simulated — the sim clock is the workload's, not the
//!   supervisor's), checkpoints capture state without perturbing it,
//!   and replay mirrors the fault-free delivery order exactly. With a
//!   retry budget covering every injected fault, a supervised run's
//!   serialized [`FederationStats`] is bit-identical to the fault-free
//!   run's — `tests/self_healing.rs` pins this for both drivers.
//! * **Every action is logged.** The [`RecoveryLog`] records each
//!   checkpoint, detection, retry, replay and quarantine with its
//!   sim-time instant, deterministically: two runs of the same
//!   `(seed, plan)` produce identical logs.
//!
//! Function-reuse absorption composes with both invariants: a
//! piggybacked arrival counts against the same per-shard
//! *arrival-ordinal* fault coordinates as a routed one (so one
//! [`FaultPlan`] means the same thing whether a gate absorbs
//! duplicates or not), and each absorption is journaled as
//! [`crate::JournalOp::Piggyback`] before delivery, so checkpoint +
//! journal replay reproduces a merging shard bit-identically —
//! `tests/reuse_equivalence.rs` pins a full-budget storm over a
//! merging run against its fault-free twin.
//!
//! Batch-queue stealing composes the same way. Steals are a
//! synchronous coordinator-side action at sync ordinals (never a
//! lane-local race), quarantined shards are skipped as both thief and
//! victim, and each transfer is journaled as
//! [`crate::JournalOp::Steal`]/[`crate::JournalOp::Adopt`] before any
//! stolen work executes — so checkpoint + journal replay reproduces a
//! stealing shard exactly, and fault coordinates
//! (nth-completion-on-shard) are stealing-invariant. Tasks stolen
//! *into* a shard that later exhausts its budget are salvaged by the
//! same quarantine backlog drain as native ones;
//! `tests/steal_faults.rs` pins both the full-budget bit-identical
//! heal and the zero-loss quarantine path.

use crate::config::RunError;
use crate::fault::{FaultKind, FaultPlan};
use crate::gateway::{DriveSignal, FederatedEngine, FederationStats};
use crate::parallel::ParallelFederatedEngine;
use crate::sink::{NullSink, Sink};
use crate::snapshot::Snapshot;
use serde::{Deserialize, Serialize};
use std::iter::Peekable;
use taskprune_model::{SimTime, Task};

/// How a [`Supervisor`] reacts to faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Recovery attempts each shard may consume across the whole run
    /// (redeliveries, crash restores, checkpoint retries). Once a
    /// shard exhausts its budget, the next unrecoverable fault
    /// quarantines it.
    pub retry_budget: u32,
    /// Base of the exponential retry backoff, in sim-time ticks. The
    /// backoff for attempt *k* is `base · 2^(k−1)`. **Bookkeeping
    /// only**: it is recorded in the [`RecoveryLog`] and drives the
    /// give-up decision, but never advances the simulation clock —
    /// recovery must happen at the fault instant to keep the
    /// truth-RNG streams aligned with the fault-free run.
    pub backoff_base: u64,
    /// Auto-checkpoint every this many ingested arrivals (the
    /// [`FederatedEngine::run_until`] watermark coordinate). Also the
    /// cadence of the journal-gap and watermark-lag health checks.
    pub checkpoint_interval: u64,
    /// Factor applied to healthy shards' pruning thresholds when a
    /// quarantined shard's backlog is re-routed onto them (> 1 prunes
    /// more aggressively — the paper's own mechanism doubling as the
    /// degraded-mode load shed).
    pub quarantine_shed_factor: f64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            retry_budget: 3,
            backoff_base: 64,
            checkpoint_interval: 64,
            quarantine_shed_factor: 1.5,
        }
    }
}

impl RecoveryPolicy {
    /// The degraded-path policy: no retries at all, so the first
    /// unrecoverable fault on a shard quarantines it immediately.
    pub fn no_retries() -> Self {
        Self {
            retry_budget: 0,
            ..Self::default()
        }
    }
}

/// What one supervisor action did.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RecoveryActionKind {
    /// An auto-checkpoint of the shard was captured at the given
    /// arrival watermark.
    CheckpointTaken {
        /// Total arrivals ingested when the checkpoint was taken.
        watermark: u64,
    },
    /// A checkpoint attempt failed transiently (injected
    /// [`FaultKind::CheckpointFailure`]).
    CheckpointFailed {
        /// 1-based attempt number at this watermark.
        attempt: u32,
    },
    /// An injected fault was detected.
    FaultDetected {
        /// What kind of fault fired.
        fault: FaultKind,
    },
    /// A retry was scheduled with deterministic exponential backoff
    /// (bookkeeping only — see [`RecoveryPolicy::backoff_base`]).
    RetryScheduled {
        /// 1-based attempt number for this fault.
        attempt: u32,
        /// The backoff recorded for this attempt, in ticks.
        backoff: u64,
        /// The sim-time instant the backoff nominally expires at.
        at: SimTime,
    },
    /// A lost/delayed completion was redelivered from its journal
    /// record.
    Redelivered,
    /// A duplicated completion delivery was suppressed by the
    /// staleness dedupe (no state was perturbed).
    DuplicateSuppressed,
    /// A crashed shard was rebuilt from its checkpoint plus journal
    /// replay.
    RecoveryReplayed {
        /// Journal operations replayed on top of the checkpoint.
        journal_ops: u64,
    },
    /// A recovery attempt failed (injected
    /// [`FaultKind::RecoveryFailure`] or a corrupt checkpoint).
    RecoveryFailed {
        /// 1-based attempt number for this fault.
        attempt: u32,
    },
    /// The shard exhausted its retry budget and was quarantined; its
    /// salvageable backlog was re-routed to healthy shards.
    Quarantined {
        /// Batch-queued tasks re-routed to healthy shards.
        rerouted: u64,
    },
    /// The overload ladder stepped **up** after sustained queue-depth
    /// pressure: non-Premium admission degrades at the new rung (see
    /// [`crate::LadderConfig`]). Logged once per transition, against
    /// shard 0 (the ladder is a federation-wide coordinate).
    OverloadStepUp {
        /// The rung stepped to (1–3).
        rung: u8,
    },
    /// The overload ladder stepped back **down** after sustained
    /// relief — transitions are one rung at a time, so recovery
    /// retraces the degradation path deterministically.
    OverloadStepDown {
        /// The rung stepped to (0–2).
        rung: u8,
    },
    /// A watermark health check found journaled-but-undelivered
    /// operations on the shard.
    JournalGapDetected {
        /// Number of undelivered operations.
        gap: u64,
    },
    /// A watermark health check found the shard's clock behind the
    /// federation's (a stalled or silently dead shard).
    WatermarkLagDetected {
        /// How far behind, in ticks.
        lag: u64,
    },
}

/// One timestamped supervisor action on one shard.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryAction {
    /// Sim-time instant of the action.
    pub time: SimTime,
    /// The shard acted on.
    pub shard: usize,
    /// What was done.
    pub kind: RecoveryActionKind,
}

/// The deterministic, append-only audit trail of everything a
/// supervisor did. Retrieve it from
/// [`FederationStats::recovery_log`] after the run; it is **not**
/// part of the stats' serialized wire shape (serialize the log itself
/// for durable audit trails).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RecoveryLog {
    actions: Vec<RecoveryAction>,
}

impl RecoveryLog {
    /// The actions, in the order they were taken.
    pub fn actions(&self) -> &[RecoveryAction] {
        &self.actions
    }

    /// Number of recorded actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Whether nothing was recorded (a fault-free supervised run still
    /// records its checkpoints).
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// How many recorded actions satisfy `pred` — convenience for
    /// assertions like "exactly one quarantine".
    pub fn count(&self, pred: impl Fn(&RecoveryActionKind) -> bool) -> usize {
        self.actions.iter().filter(|a| pred(&a.kind)).count()
    }

    pub(crate) fn push(
        &mut self,
        time: SimTime,
        shard: usize,
        kind: RecoveryActionKind,
    ) {
        self.actions.push(RecoveryAction { time, shard, kind });
    }

    pub(crate) fn extend(&mut self, other: RecoveryLog) {
        self.actions.extend(other.actions);
    }
}

/// Deterministic exponential backoff for attempt `k` (1-based):
/// `base · 2^(k−1)`, exponent capped so it can never overflow.
fn backoff_at(base: u64, attempt: u32) -> u64 {
    let exp = attempt.saturating_sub(1).min(16);
    base.saturating_mul(1u64 << exp)
}

/// One shard's retry budget and the three recovery steps that draw on
/// it, shared by the serial [`Supervisor`] (one per shard) and the
/// parallel lane guards (one per lane). Each step pushes its actions
/// to the caller's [`RecoveryLog`], so both drivers record the same
/// sequence for the same fault.
#[derive(Debug)]
pub(crate) struct ShardRecovery {
    shard: usize,
    backoff_base: u64,
    retries_left: u32,
}

impl ShardRecovery {
    pub(crate) fn new(shard: usize, policy: &RecoveryPolicy) -> Self {
        Self {
            shard,
            backoff_base: policy.backoff_base,
            retries_left: policy.retry_budget,
        }
    }

    /// A lost or delayed completion: spends one retry to redeliver it
    /// from its journal record at the fault instant. Returns `false`,
    /// logging nothing, once the budget is spent — the delivery then
    /// stays lost.
    pub(crate) fn redeliver(
        &mut self,
        log: &mut RecoveryLog,
        now: SimTime,
    ) -> bool {
        if self.retries_left == 0 {
            return false;
        }
        self.retries_left -= 1;
        self.log_retry(log, now, 1);
        log.push(now, self.shard, RecoveryActionKind::Redelivered);
        true
    }

    /// Bounded restore retries: each attempt spends one retry and
    /// calls `attempt`, which rebuilds the shard from its checkpoint
    /// plus journal and returns the journal operations replayed, or
    /// `None` when the attempt failed. Returns whether the shard was
    /// rebuilt before the budget ran out.
    pub(crate) fn restore(
        &mut self,
        log: &mut RecoveryLog,
        now: SimTime,
        mut attempt: impl FnMut() -> Option<u64>,
    ) -> bool {
        let mut n = 0u32;
        while self.retries_left > 0 {
            n += 1;
            self.retries_left -= 1;
            self.log_retry(log, now, n);
            match attempt() {
                Some(journal_ops) => {
                    log.push(
                        now,
                        self.shard,
                        RecoveryActionKind::RecoveryReplayed { journal_ops },
                    );
                    return true;
                }
                None => log.push(
                    now,
                    self.shard,
                    RecoveryActionKind::RecoveryFailed { attempt: n },
                ),
            }
        }
        false
    }

    /// Checkpoints at arrival `watermark`: `attempt` captures the
    /// checkpoint and returns `true`, or `false` on a transient
    /// storage fault, which is retried within the budget. Giving up on
    /// exhaustion is safe: the journal keeps growing, so recovery
    /// stays possible from the previous checkpoint.
    pub(crate) fn checkpoint(
        &mut self,
        log: &mut RecoveryLog,
        now: SimTime,
        watermark: u64,
        mut attempt: impl FnMut() -> bool,
    ) {
        let mut n = 0u32;
        loop {
            n += 1;
            if attempt() {
                log.push(
                    now,
                    self.shard,
                    RecoveryActionKind::CheckpointTaken { watermark },
                );
                return;
            }
            log.push(
                now,
                self.shard,
                RecoveryActionKind::CheckpointFailed { attempt: n },
            );
            if self.retries_left == 0 {
                return;
            }
            self.retries_left -= 1;
        }
    }

    fn log_retry(&self, log: &mut RecoveryLog, now: SimTime, attempt: u32) {
        let backoff = backoff_at(self.backoff_base, attempt);
        log.push(
            now,
            self.shard,
            RecoveryActionKind::RetryScheduled {
                attempt,
                backoff,
                at: SimTime(now.ticks().saturating_add(backoff)),
            },
        );
    }
}

/// The self-healing wrapper around the serial [`FederatedEngine`]:
/// auto-checkpoints, detects faults, retries within a budget, and
/// degrades gracefully (quarantine + load shed) when the budget runs
/// out. See the module docs for the two invariants it upholds.
///
/// Construction enables journaling and captures an initial checkpoint
/// of every shard; arm a [`FaultPlan`] afterwards via
/// [`Supervisor::arm`] so the bootstrap captures are not themselves
/// fault targets.
pub struct Supervisor<'a, S: Sink = NullSink> {
    engine: FederatedEngine<'a, S>,
    policy: RecoveryPolicy,
    recovery: Vec<ShardRecovery>,
    checkpoints: Vec<Snapshot>,
    next_watermark: u64,
    log: RecoveryLog,
}

impl<'a, S: Sink> Supervisor<'a, S> {
    /// Wraps `engine`, enabling journaling and taking the initial
    /// per-shard checkpoints recovery will replay from.
    pub fn new(
        mut engine: FederatedEngine<'a, S>,
        policy: RecoveryPolicy,
    ) -> Self {
        engine.enable_journal();
        let n = engine.n_shards();
        let checkpoints = (0..n).map(|s| engine.checkpoint(s)).collect();
        // Relative to the arrivals already ingested, so a supervisor
        // attached to a restored coordinator resumes its checkpoint
        // cadence instead of waiting for an absolute count it may
        // already be past.
        let next_watermark =
            engine.arrivals_ingested() + policy.checkpoint_interval.max(1);
        Self {
            engine,
            policy,
            recovery: (0..n).map(|s| ShardRecovery::new(s, &policy)).collect(),
            checkpoints,
            next_watermark,
            log: RecoveryLog::default(),
        }
    }

    /// Arms deterministic fault injection (see
    /// [`FederatedEngine::arm_faults`]).
    pub fn arm(&mut self, plan: FaultPlan) {
        self.engine.arm_faults(plan);
    }

    /// The supervised engine (for watermark counters, journals, …).
    pub fn engine(&self) -> &FederatedEngine<'a, S> {
        &self.engine
    }

    /// The actions taken so far.
    pub fn recovery_log(&self) -> &RecoveryLog {
        &self.log
    }

    /// Captures the coordinator for a cold restart (see
    /// [`FederatedEngine::snapshot_coordinator`]). Take it at a
    /// paused [`Supervisor::run_until`] watermark.
    pub fn snapshot_coordinator(&self) -> Snapshot {
        self.engine.snapshot_coordinator()
    }

    /// Supervised [`FederatedEngine::run_stream`]: consumes the whole
    /// arrival stream, healing faults as they fire, and returns the
    /// outcome record with the [`RecoveryLog`] attached.
    pub fn run_stream<I>(mut self, arrivals: I) -> FederationStats
    where
        I: IntoIterator<Item = Task>,
    {
        let mut source = arrivals.into_iter().peekable();
        self.pump(&mut source, None);
        self.finish_with_log()
    }

    /// Supervised [`FederatedEngine::run_until`]: drives (and heals)
    /// until `watermark` total arrivals have been ingested, then
    /// pauses non-destructively.
    pub fn run_until<I>(&mut self, source: &mut Peekable<I>, watermark: u64)
    where
        I: Iterator<Item = Task>,
    {
        self.pump(source, Some(watermark));
    }

    /// Supervised [`FederatedEngine::finish_stream`]: consumes the
    /// rest of a paused stream, drains every shard, and returns the
    /// outcome record with the [`RecoveryLog`] attached.
    pub fn finish_stream<I>(
        mut self,
        source: &mut Peekable<I>,
    ) -> FederationStats
    where
        I: Iterator<Item = Task>,
    {
        self.pump(&mut *source, None);
        self.finish_with_log()
    }

    fn finish_with_log(self) -> FederationStats {
        let mut stats = self.engine.finish_now();
        stats.recovery = self.log;
        stats
    }

    /// The supervision loop: drive to the next maintenance watermark
    /// (or the caller's stop watermark, whichever is sooner), settle
    /// whatever surfaced, repeat.
    fn pump<I>(&mut self, source: &mut Peekable<I>, stop_at: Option<u64>)
    where
        I: Iterator<Item = Task>,
    {
        loop {
            let target = match stop_at {
                Some(w) => w.min(self.next_watermark),
                None => self.next_watermark,
            };
            let signal = self.engine.drive(source, Some(target));
            for notice in self.engine.take_notices() {
                self.log.push(
                    notice.time,
                    notice.shard,
                    RecoveryActionKind::DuplicateSuppressed,
                );
            }
            match signal {
                DriveSignal::Exhausted => return,
                DriveSignal::Watermark => {
                    if self.engine.arrivals_ingested() >= self.next_watermark {
                        self.maintain();
                        self.next_watermark +=
                            self.policy.checkpoint_interval.max(1);
                    }
                    if stop_at
                        .is_some_and(|w| self.engine.arrivals_ingested() >= w)
                    {
                        return;
                    }
                }
                DriveSignal::Fault(report) => {
                    let more = source.peek().is_some();
                    self.log.push(
                        report.time,
                        report.shard,
                        RecoveryActionKind::FaultDetected {
                            fault: report.kind,
                        },
                    );
                    match report.kind {
                        FaultKind::ShardCrash => {
                            self.settle_crash(report.shard, report.time, more);
                        }
                        FaultKind::LostCompletion
                        | FaultKind::DelayedCompletion => {
                            // On an exhausted budget the delivery stays
                            // lost. The shard remains live; its stuck
                            // work surfaces as `Unfinished` at the drain
                            // and the journal gap records the loss.
                            if self.recovery[report.shard]
                                .redeliver(&mut self.log, report.time)
                            {
                                self.engine.resolve_fault(&report, true, more);
                            }
                        }
                        FaultKind::DuplicateCompletion
                        | FaultKind::CheckpointFailure
                        | FaultKind::RecoveryFailure => {
                            unreachable!(
                                "drive surfaces only crashes and \
                                 lost/delayed deliveries as faults"
                            )
                        }
                    }
                }
            }
        }
    }

    /// Crash path: bounded retries of checkpoint + journal replay; on
    /// an exhausted budget, salvage the backlog and quarantine.
    fn settle_crash(&mut self, shard: usize, now: SimTime, more: bool) {
        if self.try_recover(shard, now) {
            return;
        }
        // Budget exhausted: the shard stays down. Rebuild its state
        // once from the durable checkpoint + journal — not to revive
        // it, but to salvage the still-unmapped backlog the batch
        // queue held (a free read of durable storage, not a retry) —
        // then quarantine it and shed load on the survivors.
        let _ = self.engine.recover_shard(shard, &self.checkpoints[shard]);
        let rerouted = self.engine.quarantine_shard(shard, more);
        self.engine
            .tighten_healthy_pruners(self.policy.quarantine_shed_factor);
        self.log
            .push(now, shard, RecoveryActionKind::Quarantined { rerouted });
    }

    /// Bounded retry loop around checkpoint + journal replay. Returns
    /// whether the shard was rebuilt.
    fn try_recover(&mut self, shard: usize, now: SimTime) -> bool {
        let engine = &mut self.engine;
        let checkpoint = &self.checkpoints[shard];
        self.recovery[shard].restore(&mut self.log, now, || {
            if engine.recovery_attempt_fails(shard) {
                return None;
            }
            match engine.recover_shard(shard, checkpoint) {
                Ok(()) => Some(engine.journal(shard).len() as u64),
                Err(RunError::RecoveryUnavailable) => unreachable!(
                    "the supervisor enabled journaling at construction"
                ),
                Err(_) => None,
            }
        })
    }

    /// Watermark maintenance: per-shard health checks plus the
    /// auto-checkpoint. Runs at a quiescent pause, so none of it
    /// perturbs simulation state.
    fn maintain(&mut self) {
        let watermark = self.engine.arrivals_ingested();
        let now = self.engine.now();
        // Overload-ladder sensing comes first, so the checkpoints this
        // pause captures already carry the stepped rung (a recovered
        // shard replays the threshold history exactly). The pressure
        // read and the transition are pure functions of shard state at
        // this quiescent admitted-arrival ordinal, so serial and
        // parallel supervision step identically.
        if self.engine.gateway_ref().ladder_enabled() {
            let pressure = self.engine.overload_pressure();
            if let Some((from, to)) = self.engine.overload_tick(pressure) {
                let kind = if to > from {
                    RecoveryActionKind::OverloadStepUp { rung: to }
                } else {
                    RecoveryActionKind::OverloadStepDown { rung: to }
                };
                self.log.push(now, 0, kind);
            }
        }
        for shard in 0..self.engine.n_shards() {
            if self.engine.gateway_ref().is_quarantined(shard) {
                continue;
            }
            // Health check 1: journaled-but-undelivered operations.
            // Positive exactly while a lost delivery stays unhealed;
            // recoverable by a full checkpoint replay if budget
            // remains (the replay redelivers everything journaled).
            let gap = self.engine.journal_gap(shard);
            if gap > 0 {
                self.log.push(
                    now,
                    shard,
                    RecoveryActionKind::JournalGapDetected { gap },
                );
                self.try_recover(shard, now);
            }
            // Health check 2: a shard whose clock fell behind the
            // federation's is stalled or silently dead (defense in
            // depth — the serial driver advances in lockstep, so this
            // firing means an unhealed wipe).
            let shard_now = self.engine.gateway_ref().shards()[shard].now();
            if shard_now < now {
                self.log.push(
                    now,
                    shard,
                    RecoveryActionKind::WatermarkLagDetected {
                        lag: now.ticks() - shard_now.ticks(),
                    },
                );
                self.try_recover(shard, now);
            }
            // Auto-checkpoint, retrying transient storage faults
            // within the budget.
            let engine = &mut self.engine;
            let checkpoints = &mut self.checkpoints;
            self.recovery[shard].checkpoint(
                &mut self.log,
                now,
                watermark,
                || {
                    if engine.checkpoint_attempt_fails(shard) {
                        return false;
                    }
                    checkpoints[shard] = engine.checkpoint(shard);
                    true
                },
            );
        }
    }
}

impl<S: Sink> std::fmt::Debug for Supervisor<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Supervisor")
            .field("policy", &self.policy)
            .field("recovery", &self.recovery)
            .field("actions", &self.log.len())
            .finish_non_exhaustive()
    }
}

/// The self-healing wrapper around the
/// [`ParallelFederatedEngine`]: the same [`RecoveryPolicy`] semantics,
/// applied lane-locally by whichever thread delivers the lane's work
/// (each lane carries its own journal, checkpoint and retry budget,
/// and takes the same recovery steps as the serial [`Supervisor`]).
/// The one semantic difference from the serial supervisor: a lane
/// that exhausts its budget degrades by dropping its own backlog
/// (quarantine without the cross-shard re-route — the other lanes may
/// be mid-slice at the crash instant); the coordinator still remaps
/// *future* arrivals around it once a barrier or an ingest pause
/// publishes the fail-stop.
pub struct ParallelSupervisor<'a, S: Sink = NullSink> {
    engine: ParallelFederatedEngine<'a, S>,
    policy: RecoveryPolicy,
}

impl<'a, S: Sink> ParallelSupervisor<'a, S> {
    /// Wraps `engine`, installing lane guards with `policy`.
    pub fn new(
        mut engine: ParallelFederatedEngine<'a, S>,
        policy: RecoveryPolicy,
    ) -> Self {
        engine.supervise(policy);
        Self { engine, policy }
    }

    /// Arms deterministic fault injection: each lane receives its
    /// shard's slice of the plan.
    pub fn arm(&mut self, plan: &FaultPlan) {
        self.engine.arm_lane_faults(plan);
    }

    /// Supervised parallel run: consumes the whole arrival stream,
    /// healing faults lane-locally, and returns the outcome record
    /// with the merged (shard-index-ordered) [`RecoveryLog`]
    /// attached.
    ///
    /// When the gateway carries an overload ladder, the stream is
    /// ingested in checkpoint-interval slices of **admitted** arrivals
    /// and the ladder sensed at each quiescent pause — the same
    /// coordinates the serial [`Supervisor`] senses at, so the two
    /// drivers step (and recover) rung for rung.
    pub fn run_stream<I>(mut self, arrivals: I) -> FederationStats
    where
        I: IntoIterator<Item = Task>,
    {
        let mut iter = arrivals.into_iter();
        if !self.engine.ladder_enabled() {
            return self.engine.run_stream(iter);
        }
        let interval = self.policy.checkpoint_interval.max(1);
        let mut next = self.engine.arrivals_admitted() + interval;
        loop {
            // Sheds don't advance the admitted watermark, so keep
            // topping the slice up until the pause ordinal is reached
            // (or the stream runs dry).
            let want = next.saturating_sub(self.engine.arrivals_admitted());
            let chunk: Vec<Task> =
                iter.by_ref().take((want as usize).max(1)).collect();
            if chunk.is_empty() {
                break;
            }
            self.engine.ingest_prefix(chunk);
            if self.engine.arrivals_admitted() >= next {
                self.ladder_tick();
                next += interval;
            }
        }
        self.engine.finish_stream(std::iter::empty())
    }

    /// One quiescent-pause ladder sense, mirroring the serial
    /// supervisor's `maintain` step: read pressure, step at most one
    /// rung, and record the transition in the recovery log (via lane
    /// 0's guard — the ladder is a federation-wide coordinate).
    fn ladder_tick(&mut self) {
        let pressure = self.engine.overload_pressure();
        if let Some((from, to)) = self.engine.overload_tick(pressure) {
            let kind = if to > from {
                RecoveryActionKind::OverloadStepUp { rung: to }
            } else {
                RecoveryActionKind::OverloadStepDown { rung: to }
            };
            let time = self.engine.watermark_time();
            self.engine.push_recovery_action(time, 0, kind);
        }
    }
}

impl<S: Sink> std::fmt::Debug for ParallelSupervisor<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelSupervisor")
            .field("engine", &self.engine)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_saturates() {
        assert_eq!(backoff_at(64, 1), 64);
        assert_eq!(backoff_at(64, 2), 128);
        assert_eq!(backoff_at(64, 5), 1024);
        // Exponent caps; no overflow even at absurd attempt counts.
        assert_eq!(backoff_at(u64::MAX, 40), u64::MAX);
    }

    #[test]
    fn policy_defaults_and_no_retries() {
        let p = RecoveryPolicy::default();
        assert!(p.retry_budget > 0);
        assert!(p.checkpoint_interval > 0);
        assert!(p.quarantine_shed_factor > 1.0);
        assert_eq!(RecoveryPolicy::no_retries().retry_budget, 0);
    }

    fn steps(budget: u32) -> ShardRecovery {
        ShardRecovery::new(
            2,
            &RecoveryPolicy {
                retry_budget: budget,
                backoff_base: 10,
                ..RecoveryPolicy::default()
            },
        )
    }

    fn kinds(log: &RecoveryLog) -> Vec<RecoveryActionKind> {
        assert!(log
            .actions()
            .iter()
            .all(|a| a.shard == 2 && a.time == SimTime(100)));
        log.actions().iter().map(|a| a.kind).collect()
    }

    fn retry(attempt: u32, backoff: u64) -> RecoveryActionKind {
        RecoveryActionKind::RetryScheduled {
            attempt,
            backoff,
            at: SimTime(100 + backoff),
        }
    }

    #[test]
    fn redelivery_spends_one_retry_then_stays_lost() {
        let mut r = steps(1);
        let mut log = RecoveryLog::default();
        assert!(r.redeliver(&mut log, SimTime(100)));
        assert_eq!(
            kinds(&log),
            [retry(1, 10), RecoveryActionKind::Redelivered]
        );
        // Budget spent: the delivery stays lost and nothing is logged.
        assert!(!r.redeliver(&mut log, SimTime(100)));
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn restore_retries_until_an_attempt_replays() {
        let mut r = steps(3);
        let mut log = RecoveryLog::default();
        let mut outcomes = [None, Some(7)].into_iter();
        assert!(r.restore(&mut log, SimTime(100), || outcomes.next().unwrap()));
        assert_eq!(
            kinds(&log),
            [
                retry(1, 10),
                RecoveryActionKind::RecoveryFailed { attempt: 1 },
                retry(2, 20),
                RecoveryActionKind::RecoveryReplayed { journal_ops: 7 },
            ]
        );
        // One retry left: a failing attempt spends it and gives up.
        let mut log = RecoveryLog::default();
        assert!(!r.restore(&mut log, SimTime(100), || None));
        assert_eq!(
            kinds(&log),
            [
                retry(1, 10),
                RecoveryActionKind::RecoveryFailed { attempt: 1 }
            ]
        );
        // Exhausted: no attempt is made at all.
        let mut log = RecoveryLog::default();
        assert!(!r.restore(&mut log, SimTime(100), || unreachable!()));
        assert!(log.is_empty());
    }

    #[test]
    fn checkpoint_retries_failures_then_gives_up() {
        let mut r = steps(2);
        let mut log = RecoveryLog::default();
        let mut outcomes = [false, true].into_iter();
        r.checkpoint(&mut log, SimTime(100), 64, || outcomes.next().unwrap());
        assert_eq!(
            kinds(&log),
            [
                RecoveryActionKind::CheckpointFailed { attempt: 1 },
                RecoveryActionKind::CheckpointTaken { watermark: 64 },
            ]
        );
        // One retry left: a persistent failure spends it, then gives up.
        let mut log = RecoveryLog::default();
        let mut attempts = 0;
        let mut failing = || {
            attempts += 1;
            false
        };
        r.checkpoint(&mut log, SimTime(100), 128, &mut failing);
        assert_eq!(
            kinds(&log),
            [
                RecoveryActionKind::CheckpointFailed { attempt: 1 },
                RecoveryActionKind::CheckpointFailed { attempt: 2 },
            ]
        );
        // Exhausted: one attempt, no retry — and a healthy store still
        // checkpoints.
        r.checkpoint(&mut log, SimTime(100), 192, &mut failing);
        assert_eq!(attempts, 3);
        r.checkpoint(&mut log, SimTime(100), 256, || true);
        assert_eq!(
            kinds(&log)[2..],
            [
                RecoveryActionKind::CheckpointFailed { attempt: 1 },
                RecoveryActionKind::CheckpointTaken { watermark: 256 },
            ]
        );
    }

    #[test]
    fn recovery_log_counts() {
        let mut log = RecoveryLog::default();
        assert!(log.is_empty());
        log.push(
            SimTime(5),
            1,
            RecoveryActionKind::FaultDetected {
                fault: FaultKind::ShardCrash,
            },
        );
        log.push(
            SimTime(5),
            1,
            RecoveryActionKind::Quarantined { rerouted: 3 },
        );
        assert_eq!(log.len(), 2);
        assert_eq!(
            log.count(|k| matches!(k, RecoveryActionKind::Quarantined { .. })),
            1
        );
        assert_eq!(log.actions()[0].shard, 1);
    }
}
