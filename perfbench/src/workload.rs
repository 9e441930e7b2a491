//! The three workloads: their inputs, made from the workload seed, and
//! the federation each one drives through the public entry points.
//!
//! All three run MM with paper pruning under `SimConfig::batch(7)` on
//! 8-machine heterogeneous shards, and every shard carries the same
//! per-cluster load (10 000 `paper_default` tasks), so capacity is
//! compared fairly across shard counts. Why each was chosen, with the
//! layer share that justifies it, is recorded in `BENCHMARK.json`.

use crate::trace::{Arrivals, TracedMapper, TracedPruner, TracedRoute};
use taskprune::prelude::*;
use taskprune_sim::{
    FederatedEngine, MappingStrategy, NullSink, Pruner, RateLimit, SlaClass,
    TenancyPolicy, TenantSpec,
};
use taskprune_workload::TaskStream;

/// Tasks each shard receives.
const TASKS_PER_SHARD: usize = 10_000;

/// Seed of the workload family every trial is drawn from.
const FAMILY_SEED: u64 = 42;

/// Share of exact duplicates injected into `gateway_underload`.
const DUPLICATE_RATE: f64 = 0.2;

/// Staleness bound of `gateway_underload`'s routing views.
const STALENESS_K: u64 = 4;

/// One benchmark workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// 1 shard, 10 000 tasks over 2400 TU, round-robin: the core's
    /// mapping event, oversubscribed, does nearly all the work.
    CoreOversub,
    /// 4 shards, 40 000 tasks over 6000 TU, best-chance routing on
    /// bounded-stale views with stealing, exact reuse and three tenant
    /// lanes: the core idles and the coordinator layers work.
    GatewayUnderload,
    /// 2 shards, 20 000 tasks over 3000 TU, round-robin, under a
    /// default-policy supervisor that checkpoints every 64 arrivals.
    DurablePaper,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::CoreOversub,
        Workload::GatewayUnderload,
        Workload::DurablePaper,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CoreOversub => "core_oversub",
            Workload::GatewayUnderload => "gateway_underload",
            Workload::DurablePaper => "durable_paper",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn shards(self) -> usize {
        match self {
            Workload::CoreOversub => 1,
            Workload::GatewayUnderload => 4,
            Workload::DurablePaper => 2,
        }
    }

    fn span_tu(self) -> f64 {
        match self {
            // Denser loads make the per-arrival cost of one trial swing
            // several-fold from trial to trial (at 600 TU, 1 100 to
            // 7 900 arrivals per CPU second over eight trials), so no
            // single run can stand for the load level.
            Workload::CoreOversub => 2400.0,
            Workload::GatewayUnderload => 6000.0,
            Workload::DurablePaper => 3000.0,
        }
    }

    /// Whether the run goes through `Supervisor::run_stream`.
    pub fn supervised(self) -> bool {
        self == Workload::DurablePaper
    }

    /// The arrival stream, made only from `seed` (and the fixed system
    /// model): the same seed gives the same tasks.
    ///
    /// The seed selects a *trial* of one fixed `paper_default` family,
    /// as the paper's experiments do: the family fixes the per-type
    /// split, and with it the load level the workload declares, while
    /// the trial draws the arrival instants and deadlines. Seeding the
    /// family instead redraws the type split, and that alone moves the
    /// cost of an oversubscribed arrival several-fold between seeds.
    pub fn inputs(self, seed: u64, pet: &PetMatrix) -> Vec<Task> {
        let trial = (seed ^ (seed >> 32)) as u32;
        let tasks = WorkloadConfig {
            total_tasks: TASKS_PER_SHARD * self.shards(),
            span_tu: self.span_tu(),
            ..WorkloadConfig::paper_default(FAMILY_SEED)
        }
        .generate_trial(pet, trial)
        .tasks;
        if self != Workload::GatewayUnderload {
            return tasks;
        }
        // The duplicate pattern gets its own stream, derived from the
        // workload seed so that it moves with it.
        let dup_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD0B1;
        TaskStream::from_tasks(tasks)
            .with_duplicate_rate(DUPLICATE_RATE, dup_seed)
            .collect()
    }

    /// The configured federation. With `traced`, the mapper, pruner and
    /// routing policy are wrapped in the span-recording shims.
    pub fn builder<'a>(
        self,
        cluster: &Cluster,
        pet: &'a PetMatrix,
        traced: bool,
    ) -> GatewayBuilder<'a, NullSink> {
        let n_types = pet.n_task_types();
        let route: Box<dyn RoutePolicy> = match self {
            Workload::GatewayUnderload => Box::new(BestChanceRoute::new()),
            _ => Box::new(RoundRobinRoute::new()),
        };
        let b = GatewayBuilder::new(cluster, pet)
            .config(SimConfig::batch(7))
            .shards(self.shards())
            .strategy_with(move |_| match HeuristicKind::Mm.make() {
                MappingStrategy::Batch(m) if traced => {
                    MappingStrategy::Batch(Box::new(TracedMapper(m)))
                }
                other => other,
            })
            .pruner_with(move |_| {
                let p: Box<dyn Pruner> = Box::new(PruningMechanism::new(
                    PruningConfig::paper_default(),
                    n_types,
                ));
                if traced {
                    Box::new(TracedPruner(p))
                } else {
                    p
                }
            })
            .policy_boxed(if traced {
                Box::new(TracedRoute(route))
            } else {
                route
            });
        if self != Workload::GatewayUnderload {
            return b;
        }
        b.consistency(Consistency::BoundedStale { k: STALENESS_K })
            .stealing(true)
            .reuse(ReusePolicy::ExactOnly)
            .tenancy(
                TenancyPolicy::new(3)
                    .tenant(TenantSpec::new(SlaClass::Premium))
                    .tenant(
                        TenantSpec::new(SlaClass::Standard)
                            .quota(RateLimit::per_ticks(16, 1_000)),
                    )
                    .tenant(TenantSpec::new(SlaClass::BestEffort)),
            )
    }

    /// Drives one whole stream through the workload's public entry
    /// point; `supervised` chooses `Supervisor::run_stream` over
    /// `FederatedEngine::run_stream`.
    pub fn drive(
        engine: FederatedEngine<'_>,
        arrivals: &mut Arrivals<'_>,
        supervised: bool,
    ) -> FederationStats {
        if supervised {
            Supervisor::new(engine, RecoveryPolicy::default())
                .run_stream(arrivals)
        } else {
            engine.run_stream(arrivals)
        }
    }
}
