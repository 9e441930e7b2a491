//! The self-healing supervisor's two headline guarantees (ISSUE pins):
//!
//! 1. **Recovery is exact.** With a retry budget covering every
//!    injected fault, a supervised run's serialized `FederationStats`
//!    is bit-identical to the fault-free run's — for the serial
//!    `Supervisor` and the parallel `ParallelSupervisor` alike, and
//!    across explicitly generated fault storms (crashes, lost /
//!    duplicated / delayed completions, transient checkpoint and
//!    recovery failures).
//! 2. **Degradation is graceful and deterministic.** With a zero
//!    retry budget, a permanent shard crash quarantines the shard:
//!    the run still completes, every arrival is accounted for
//!    (`unreported() == 0`), the stranded batch backlog is re-routed
//!    to healthy shards (serial driver), and the `RecoveryLog` is
//!    identical across repeated runs.
//!
//! Plus the supporting contracts: supervision itself never perturbs a
//! fault-free run, `recover_shard` without a journal is the typed
//! `RunError::RecoveryUnavailable`, and the facade's
//! `try_run_federated_supervised` survives a mid-run coordinator
//! restart bit-identically.

mod common;

use taskprune::prelude::*;
use taskprune::pruner::PruningMechanism;
use taskprune_sim::{
    FaultEvent, LeastQueuedRoute, RecoveryActionKind, TraceLog,
};

/// Two fixed plan seeds — the same pair the CI fault-matrix job pins.
const PLAN_SEEDS: [u64; 2] = [0xFA01, 0xFA02];

fn fixture(scale: f64) -> (Cluster, PetMatrix, Vec<Task>) {
    let pet = PetGenConfig::paper_heterogeneous(
        taskprune::experiment::PET_MATRIX_SEED,
    )
    .generate();
    let cluster = taskprune_workload::machines::heterogeneous_cluster();
    let workload = WorkloadConfig {
        total_tasks: common::scaled(1_500, scale) as usize,
        span_tu: common::scaled(260, scale) as f64,
        ..WorkloadConfig::paper_default(4321)
    };
    let tasks = workload.generate_trial(&pet, 0).tasks;
    (cluster, pet, tasks)
}

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("serializes")
}

/// Traced + pruned, so the serialized comparisons carry every
/// per-shard trace event — supervision perturbing a single tick or
/// event would show.
fn builder<'a>(
    cluster: &Cluster,
    pet: &'a PetMatrix,
    shards: usize,
) -> GatewayBuilder<'a, TraceLog> {
    let n_types = pet.n_task_types();
    GatewayBuilder::new(cluster, pet)
        .config(SimConfig::batch(55))
        .shards(shards)
        .policy(RoundRobinRoute::new())
        .strategy_with(move |_| HeuristicKind::Mm.make())
        .pruner_with(move |_| {
            Box::new(PruningMechanism::new(
                PruningConfig::paper_default(),
                n_types,
            ))
        })
        .sink_with(|_| TraceLog::new(1_000_000, 4))
}

/// A storm plan sized to the fixture: ordinals span roughly one
/// shard's share of the arrivals, so the crash and delivery faults
/// actually fire mid-run.
fn storm_plan(seed: u64, shards: usize, tasks: usize) -> FaultPlan {
    let span = (tasks / shards).max(8) as u64;
    FaultPlan::generate(seed, &FaultSpec::storm(shards, span))
}

/// Generous budget: a storm puts at most ~9 faults on one shard, and
/// interleaved transient checkpoint/recovery failures consume extra
/// attempts.
fn healing_policy() -> RecoveryPolicy {
    RecoveryPolicy {
        retry_budget: 32,
        ..RecoveryPolicy::default()
    }
}

// ---------------------------------------------------------------------
// Guarantee 0: supervision alone never perturbs the simulation.
// ---------------------------------------------------------------------

/// A supervised run with no fault plan equals the unsupervised run,
/// byte for byte: checkpoints, journaling, and health checks are pure
/// observation.
#[test]
fn supervision_without_faults_is_invisible() {
    let (cluster, pet, tasks) = fixture(common::test_scale());
    let reference = builder(&cluster, &pet, 3)
        .build()
        .expect("valid configuration")
        .run_stream(tasks.iter().copied());
    assert_eq!(reference.unreported(), 0);

    let engine = builder(&cluster, &pet, 3)
        .build()
        .expect("valid configuration");
    let supervised = Supervisor::new(engine, RecoveryPolicy::default())
        .run_stream(tasks.iter().copied());
    assert_eq!(json(&reference), json(&supervised));
    // The run was healthy, so the log holds checkpoints and nothing
    // else.
    let log = supervised.recovery_log();
    assert!(!log.is_empty(), "auto-checkpoints are logged");
    assert_eq!(
        log.len(),
        log.count(|k| matches!(k, RecoveryActionKind::CheckpointTaken { .. })),
        "a fault-free run logs only checkpoints: {log:?}"
    );

    let engine = builder(&cluster, &pet, 3)
        .threads(2)
        .build_parallel()
        .expect("valid configuration");
    let supervised_par =
        ParallelSupervisor::new(engine, RecoveryPolicy::default())
            .run_stream(tasks.iter().copied());
    assert_eq!(json(&reference), json(&supervised_par));
}

// ---------------------------------------------------------------------
// Guarantee 1: full-budget healing is bit-exact — both drivers.
// ---------------------------------------------------------------------

/// Serial headline: for each fixed plan seed, the supervised run under
/// a generated fault storm serializes identically to the fault-free
/// run, and the log shows the storm was actually fought.
#[test]
fn healed_storm_matches_fault_free_serial() {
    let (cluster, pet, tasks) = fixture(common::test_scale());
    let reference = builder(&cluster, &pet, 3)
        .build()
        .expect("valid configuration")
        .run_stream(tasks.iter().copied());
    let reference_json = json(&reference);

    for seed in PLAN_SEEDS {
        let plan = storm_plan(seed, 3, tasks.len());
        assert!(!plan.is_empty());
        let engine = builder(&cluster, &pet, 3)
            .build()
            .expect("valid configuration");
        let mut sup = Supervisor::new(engine, healing_policy());
        sup.arm(plan.clone());
        let healed = sup.run_stream(tasks.iter().copied());
        assert_eq!(
            reference_json,
            json(&healed),
            "plan seed {seed:#x}: healing diverged from fault-free"
        );
        let log = healed.recovery_log();
        assert!(
            log.count(|k| matches!(
                k,
                RecoveryActionKind::FaultDetected { .. }
            )) > 0,
            "plan seed {seed:#x}: no fault ever fired — widen the span"
        );
        assert_eq!(
            log.count(|k| matches!(k, RecoveryActionKind::Quarantined { .. })),
            0,
            "plan seed {seed:#x}: the budget must cover the storm"
        );
    }
}

/// Parallel headline: the same storms, healed lane-locally, still
/// serialize identically to the fault-free run — at 1 worker thread
/// and at several.
#[test]
fn healed_storm_matches_fault_free_parallel() {
    let (cluster, pet, tasks) = fixture(common::test_scale());
    let reference = builder(&cluster, &pet, 3)
        .build()
        .expect("valid configuration")
        .run_stream(tasks.iter().copied());
    let reference_json = json(&reference);

    for seed in PLAN_SEEDS {
        let plan = storm_plan(seed, 3, tasks.len());
        for threads in [1usize, 4] {
            let engine = builder(&cluster, &pet, 3)
                .threads(threads)
                .build_parallel()
                .expect("valid configuration");
            let mut sup = ParallelSupervisor::new(engine, healing_policy());
            sup.arm(&plan);
            let healed = sup.run_stream(tasks.iter().copied());
            assert_eq!(
                reference_json,
                json(&healed),
                "plan seed {seed:#x}, {threads} threads: lane-local \
                 healing diverged from fault-free"
            );
            assert!(
                healed.recovery_log().count(|k| matches!(
                    k,
                    RecoveryActionKind::FaultDetected { .. }
                )) > 0,
                "plan seed {seed:#x}: no fault fired in the lanes"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Guarantee 2: zero budget degrades gracefully and deterministically.
// ---------------------------------------------------------------------

/// A heavily oversubscribed fixture for the degradation tests: the
/// same task count squeezed into a third of the span, so mapping
/// events defer work and the crash shard's batch queue is non-empty
/// when the quarantine salvages it.
fn oversubscribed_fixture(scale: f64) -> (Cluster, PetMatrix, Vec<Task>) {
    let pet = PetGenConfig::paper_heterogeneous(
        taskprune::experiment::PET_MATRIX_SEED,
    )
    .generate();
    let cluster = taskprune_workload::machines::heterogeneous_cluster();
    let workload = WorkloadConfig {
        total_tasks: common::scaled(1_500, scale) as usize,
        span_tu: common::scaled(40, scale) as f64,
        ..WorkloadConfig::paper_default(4321)
    };
    let tasks = workload.generate_trial(&pet, 0).tasks;
    (cluster, pet, tasks)
}

/// The permanent mid-run crash both degradation tests inject.
fn permanent_crash(shard: usize, nth: u64) -> FaultPlan {
    FaultPlan::new(vec![FaultEvent {
        shard,
        kind: FaultKind::ShardCrash,
        nth,
        delay: 0,
    }])
}

/// Serial: budget 0 + permanent crash ⇒ the shard is quarantined, its
/// batch backlog re-routes to the survivors, every arrival is
/// accounted for, and two runs produce the same stats and the same
/// log.
#[test]
fn budget_zero_crash_quarantines_and_reroutes_serial() {
    let (cluster, pet, tasks) = oversubscribed_fixture(common::test_scale());
    let crash_shard = 1usize;
    // Mid-run: roughly half of the crash shard's arrivals ingested.
    let nth = (tasks.len() / 6).max(2) as u64;
    let run = || {
        let engine = builder(&cluster, &pet, 3)
            .build()
            .expect("valid configuration");
        let mut sup = Supervisor::new(engine, RecoveryPolicy::no_retries());
        sup.arm(permanent_crash(crash_shard, nth));
        sup.run_stream(tasks.iter().copied())
    };

    let stats = run();
    assert_eq!(
        stats.unreported(),
        0,
        "a degraded run must still account for every arrival"
    );
    let log = stats.recovery_log();
    assert_eq!(
        log.count(|k| matches!(k, RecoveryActionKind::Quarantined { .. })),
        1,
        "exactly one quarantine: {log:?}"
    );
    let rerouted = log
        .actions()
        .iter()
        .find_map(|a| match a.kind {
            RecoveryActionKind::Quarantined { rerouted } => Some(rerouted),
            _ => None,
        })
        .expect("quarantine action present");
    assert!(
        rerouted > 0,
        "the salvaged batch backlog re-routes to healthy shards"
    );
    // Degradation changed the outcome — this is not the fault-free
    // run.
    let reference = builder(&cluster, &pet, 3)
        .build()
        .expect("valid configuration")
        .run_stream(tasks.iter().copied());
    assert_ne!(json(&reference), json(&stats));
    assert!(stats.count(TaskOutcome::Unfinished) > 0);

    // Deterministic: same stats, same log, run to run.
    let again = run();
    assert_eq!(json(&stats), json(&again));
    assert_eq!(log, again.recovery_log());
}

/// Parallel: budget 0 + permanent crash ⇒ the lane fail-stops
/// (quarantine without the cross-shard re-route — `rerouted == 0` by
/// design), the run completes with every arrival accounted for, and
/// the log is deterministic. Covered under round-robin (barrier-free
/// mailboxes) and least-queued routing (a barrier before every
/// arrival, default `Lockstep`), at 1 and 2 threads.
#[test]
fn budget_zero_crash_fail_stops_parallel() {
    let (cluster, pet, tasks) = oversubscribed_fixture(common::test_scale());
    let crash_shard = 1usize;
    let nth = (tasks.len() / 6).max(2) as u64;
    for least_queued in [false, true] {
        let run = |threads: usize| {
            let mut b = builder(&cluster, &pet, 3).threads(threads);
            if least_queued {
                b = b.policy(LeastQueuedRoute::new());
            }
            let engine = b.build_parallel().expect("valid configuration");
            let mut sup =
                ParallelSupervisor::new(engine, RecoveryPolicy::no_retries());
            sup.arm(&permanent_crash(crash_shard, nth));
            sup.run_stream(tasks.iter().copied())
        };

        let stats = run(2);
        assert_eq!(
            stats.unreported(),
            0,
            "a fail-stopped lane must still account for every arrival \
             (least_queued={least_queued})"
        );
        let log = stats.recovery_log();
        assert_eq!(
            log.count(|k| matches!(
                k,
                RecoveryActionKind::Quarantined { rerouted: 0 }
            )),
            1,
            "one lane-local quarantine, no cross-shard re-route \
             (least_queued={least_queued}): {log:?}"
        );
        assert!(stats.count(TaskOutcome::Unfinished) > 0);

        let again = run(2);
        assert_eq!(json(&stats), json(&again));
        assert_eq!(log, again.recovery_log());
        let inline = run(1);
        assert_eq!(json(&stats), json(&inline));
        assert_eq!(log, inline.recovery_log());
    }
}

// ---------------------------------------------------------------------
// Typed error: recovery without a journal.
// ---------------------------------------------------------------------

/// `recover_shard` on an engine that never enabled journaling is the
/// typed `RunError::RecoveryUnavailable`, not a panic or a silent
/// partial restore.
#[test]
fn recovery_without_a_journal_is_a_typed_error() {
    let (cluster, pet, tasks) = fixture(common::test_scale() * 0.5);
    let mut engine = builder(&cluster, &pet, 3)
        .build()
        .expect("valid configuration");
    let mut source = tasks.iter().copied().peekable();
    engine.run_until(&mut source, (tasks.len() / 3) as u64);
    let snap = engine.checkpoint(1);
    let err = engine
        .recover_shard(1, &snap)
        .expect_err("no journal was ever enabled");
    assert!(
        matches!(err, RunError::RecoveryUnavailable),
        "expected RecoveryUnavailable, got {err:?}"
    );
    assert!(!err.to_string().is_empty());
}

// ---------------------------------------------------------------------
// Facade: supervised runs and cold restarts through the allocator.
// ---------------------------------------------------------------------

fn allocator<'a>(
    cluster: &'a Cluster,
    pet: &'a PetMatrix,
) -> ResourceAllocator<'a> {
    ResourceAllocator::new(cluster, pet, SimConfig::batch(55))
        .heuristic(HeuristicKind::Mm)
        .pruning(PruningConfig::paper_default())
}

/// `try_run_federated_supervised` equals the plain federated run when
/// nothing goes wrong — with and without a mid-run coordinator
/// restart from a snapshot, and with a fully-healed fault storm.
#[test]
fn facade_supervised_restart_matches_uninterrupted() {
    let (cluster, pet, tasks) = fixture(common::test_scale());
    let reference = allocator(&cluster, &pet)
        .try_run_federated(3, Box::new(RoundRobinRoute::new()), &tasks)
        .expect("valid configuration");
    let reference_json = json(&reference);

    // Supervised, no faults, no restart.
    let supervised = allocator(&cluster, &pet)
        .try_run_federated_supervised(
            3,
            Box::new(RoundRobinRoute::new()),
            RecoveryPolicy::default(),
            None,
            None,
            &tasks,
        )
        .expect("valid configuration");
    assert_eq!(reference_json, json(&supervised));

    // Supervised with a cold restart at the midpoint watermark: the
    // coordinator is serialized, dropped, and rebuilt from the wire
    // form before the second half runs.
    let restarted = allocator(&cluster, &pet)
        .try_run_federated_supervised(
            3,
            Box::new(RoundRobinRoute::new()),
            RecoveryPolicy::default(),
            None,
            Some(((tasks.len() / 2) as u64, Box::new(RoundRobinRoute::new()))),
            &tasks,
        )
        .expect("valid configuration");
    assert_eq!(
        reference_json,
        json(&restarted),
        "a cold coordinator restart diverged from the uninterrupted run"
    );

    // Supervised with an armed storm AND a restart: the fault-plan
    // cursor travels inside the coordinator snapshot, so healing
    // stays exact across the restart boundary.
    let stormy = allocator(&cluster, &pet)
        .try_run_federated_supervised(
            3,
            Box::new(RoundRobinRoute::new()),
            healing_policy(),
            Some(storm_plan(PLAN_SEEDS[0], 3, tasks.len())),
            Some(((tasks.len() / 2) as u64, Box::new(RoundRobinRoute::new()))),
            &tasks,
        )
        .expect("valid configuration");
    assert_eq!(
        reference_json,
        json(&stormy),
        "healing across a restart boundary diverged from fault-free"
    );
}

// ---------------------------------------------------------------------
// Full-scale tier.
// ---------------------------------------------------------------------

#[test]
#[ignore = "full-size self-healing sweep; run with --ignored"]
fn full_scale_healed_storms_match_fault_free() {
    let (cluster, pet, tasks) = fixture(1.0);
    let reference = builder(&cluster, &pet, 4)
        .build()
        .expect("valid configuration")
        .run_stream(tasks.iter().copied());
    let reference_json = json(&reference);
    for seed in PLAN_SEEDS {
        let plan = storm_plan(seed, 4, tasks.len());
        let engine = builder(&cluster, &pet, 4)
            .build()
            .expect("valid configuration");
        let mut sup = Supervisor::new(engine, healing_policy());
        sup.arm(plan.clone());
        assert_eq!(
            reference_json,
            json(&sup.run_stream(tasks.iter().copied())),
            "serial, plan seed {seed:#x}"
        );
        let engine = builder(&cluster, &pet, 4)
            .threads(4)
            .build_parallel()
            .expect("valid configuration");
        let mut sup = ParallelSupervisor::new(engine, healing_policy());
        sup.arm(&plan);
        assert_eq!(
            reference_json,
            json(&sup.run_stream(tasks.iter().copied())),
            "parallel, plan seed {seed:#x}"
        );
    }
}
