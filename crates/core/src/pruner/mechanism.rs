//! The Pruner (Fig. 5): deferring and dropping decisions.
//!
//! Implements the paper's per-mapping-event procedure:
//!
//! ```text
//! (2) collect completions since the previous event  → Fairness γₖ −= c
//! (3) if oversubscription > α                       → Toggle engages
//! (4–6) for each task in each machine queue:
//!         if chance(i,j) ≤ β − γₖ → drop, γₖ += c
//! (10) for each task the heuristic mapped:
//!         if chance(i,j) ≤ β − γₖ → defer to the next mapping event
//! ```
//!
//! Steps 1 (reactive drops) and 7–9/11 (the mapping loop and dispatch)
//! are the engine's responsibility; this type plugs into the engine via
//! the [`Pruner`] trait, leaving the mapping heuristic untouched.

use super::accounting::Accounting;
use super::config::PruningConfig;
use super::fairness::Fairness;
use super::toggle::Toggle;
use serde::{Deserialize, Serialize};
use taskprune_model::{MachineId, Task, TaskId};
use taskprune_sim::{EventReport, Pruner, SystemView};

/// The probabilistic task-pruning mechanism.
#[derive(Debug, Clone)]
pub struct PruningMechanism {
    cfg: PruningConfig,
    accounting: Accounting,
    toggle: Toggle,
    fairness: Fairness,
}

impl PruningMechanism {
    /// Builds the mechanism for a system with `n_task_types` task types.
    pub fn new(cfg: PruningConfig, n_task_types: usize) -> Self {
        Self {
            cfg,
            accounting: Accounting::new(),
            toggle: Toggle::new(cfg.toggle),
            fairness: Fairness::new(cfg.fairness, n_task_types),
        }
    }

    /// The mechanism's configuration.
    pub fn config(&self) -> &PruningConfig {
        &self.cfg
    }

    /// Read access to the accounting counters (for reports and tests).
    pub fn accounting(&self) -> &Accounting {
        &self.accounting
    }

    /// Read access to the fairness scores (for reports and tests).
    pub fn fairness(&self) -> &Fairness {
        &self.fairness
    }

    /// Whether dropping is engaged for the current event.
    pub fn dropping_engaged(&self) -> bool {
        self.toggle.dropping_engaged()
    }
}

impl Pruner for PruningMechanism {
    fn name(&self) -> &str {
        "probabilistic-pruning"
    }

    fn begin_event(&mut self, report: &EventReport) {
        // Step 2: Accounting digests the report; Fairness credits
        // on-time completions.
        self.accounting.observe(report);
        for (task, on_time) in &report.completed {
            if *on_time {
                self.fairness.on_completion(task.type_id);
            }
        }
        for task in &report.dropped_reactive {
            self.fairness.on_reactive_drop(task.type_id);
        }
        // Step 3: Toggle re-evaluates oversubscription.
        self.toggle
            .update(self.accounting.misses_since_last_event());
    }

    fn select_drops(
        &mut self,
        view: &SystemView<'_>,
    ) -> Vec<(MachineId, TaskId)> {
        let mut out = Vec::new();
        self.select_drops_into(view, &mut out);
        out
    }

    /// The real implementation: the scheduler core calls this on the
    /// hot path with a reused output buffer.
    fn select_drops_into(
        &mut self,
        view: &SystemView<'_>,
        out: &mut Vec<(MachineId, TaskId)>,
    ) {
        // Steps 4–6, guarded by the Toggle.
        if !self.toggle.dropping_engaged() {
            return;
        }
        for machine in view.machines() {
            let beta = self.cfg.threshold;
            let fairness = &mut self.fairness;
            let accounting = &mut self.accounting;
            let drops = view.plan_queue_drops(machine.id, |task, chance| {
                let threshold =
                    fairness.effective_threshold(beta, task.type_id);
                if chance <= threshold {
                    // Step 6: drop and record the type's suffering.
                    fairness.on_proactive_drop(task.type_id);
                    accounting.observe_proactive_drop();
                    true
                } else {
                    false
                }
            });
            out.extend(drops.into_iter().map(|id| (machine.id, id)));
        }
    }

    fn should_defer(&mut self, task: &Task, chance: f64) -> bool {
        // Step 10. Deferring applies only in batch mode; the engine only
        // consults this hook from the batch mapping loop.
        if !self.cfg.defer_enabled {
            return false;
        }
        chance
            <= self
                .fairness
                .effective_threshold(self.cfg.threshold, task.type_id)
    }

    fn tighten_threshold(&mut self, factor: f64) {
        // Raising β prunes more: every chance ≤ β − γₖ comparison
        // catches more tasks. Clamp to the same (0, 1] range
        // `with_threshold` enforces, and keep the fairness clamp
        // consistent with it (sufferage never exempts past β). A NaN
        // product (a NaN factor, or β = 0 times an infinite one) would
        // pass through `clamp` and switch pruning off for good, since
        // no chance compares ≤ NaN: leave β unchanged instead.
        let t = self.cfg.threshold * factor;
        if t.is_nan() {
            return;
        }
        let t = t.clamp(0.0, 1.0);
        self.cfg.threshold = t;
        self.cfg.fairness.max_score = self.cfg.fairness.max_score.min(t);
    }

    fn snapshot_state(&self) -> serde::Value {
        // Configuration (toggle mode, fairness factor) is
        // construction-time state, like a queue's capacity: the restore
        // target must be built with the same config, so only the
        // evolving state travels. The threshold is the exception since
        // `tighten_threshold` made it mutable mid-run.
        serde::Value::Object(vec![
            (
                "threshold".to_owned(),
                serde::Value::Float(self.cfg.threshold),
            ),
            ("accounting".to_owned(), self.accounting.to_value()),
            (
                "engaged".to_owned(),
                serde::Value::Bool(self.toggle.dropping_engaged()),
            ),
            (
                "scores".to_owned(),
                serde::Serialize::to_value(self.fairness.scores()),
            ),
        ])
    }

    fn restore_state(
        &mut self,
        state: &serde::Value,
    ) -> Result<(), serde::Error> {
        let accounting =
            Accounting::from_value(state.get_field("accounting")?)?;
        let engaged = bool::from_value(state.get_field("engaged")?)?;
        let scores = Vec::<f64>::from_value(state.get_field("scores")?)?;
        if !self.fairness.restore_scores(&scores) {
            return Err(serde::Error::custom(
                "fairness score count differs from this mechanism's \
                 task-type count",
            ));
        }
        // Absent in pre-tightening snapshots: the threshold was
        // construction-only then, so the built value is already right.
        if let Some(v) = state.get_opt("threshold") {
            self.cfg.threshold = f64::from_value(v)?;
        }
        self.accounting = accounting;
        self.toggle.set_engaged(engaged);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pruner::config::ToggleMode;
    use taskprune_model::{BinSpec, Cluster, PetMatrix, SimTime, TaskTypeId};
    use taskprune_prob::Pmf;
    use taskprune_sim::queue_testing::make_queues;

    fn pet() -> PetMatrix {
        // One machine type, one task type: PET = {2: 0.5, 4: 0.5} bins.
        PetMatrix::new(
            BinSpec::new(100),
            1,
            1,
            vec![Pmf::from_points(&[(2, 0.5), (4, 0.5)]).unwrap()],
        )
    }

    fn task(id: u64, deadline: u64) -> Task {
        Task::new(id, TaskTypeId(0), SimTime(0), SimTime(deadline))
    }

    fn miss_report() -> EventReport {
        EventReport {
            now: SimTime(0),
            completed: vec![],
            dropped_reactive: vec![task(999, 0)],
            cancelled: vec![],
        }
    }

    #[test]
    fn defers_below_threshold_only() {
        let mut p = PruningMechanism::new(PruningConfig::paper_default(), 1);
        assert!(p.should_defer(&task(0, 1_000), 0.49));
        assert!(p.should_defer(&task(1, 1_000), 0.50));
        assert!(!p.should_defer(&task(2, 1_000), 0.51));
    }

    #[test]
    fn nan_tightening_leaves_the_threshold_unchanged() {
        let mut p = PruningMechanism::new(PruningConfig::paper_default(), 1);
        p.tighten_threshold(f64::NAN);
        assert_eq!(p.cfg.threshold, 0.5);
        assert!(p.should_defer(&task(0, 1_000), 0.49));
        // β = 0 times an infinite factor is NaN as well.
        let mut p = PruningMechanism::new(PruningConfig::defer_only(0.0), 1);
        p.tighten_threshold(f64::INFINITY);
        assert_eq!(p.cfg.threshold, 0.0);
        assert!(p.should_defer(&task(1, 1_000), 0.0));
        // A finite product still tightens, clamped to 1.
        let mut p = PruningMechanism::new(PruningConfig::paper_default(), 1);
        p.tighten_threshold(1.5);
        assert_eq!(p.cfg.threshold, 0.75);
        p.tighten_threshold(f64::INFINITY);
        assert_eq!(p.cfg.threshold, 1.0);
    }

    #[test]
    fn defer_disabled_never_defers() {
        let cfg = PruningConfig {
            defer_enabled: false,
            ..PruningConfig::paper_default()
        };
        let mut p = PruningMechanism::new(cfg, 1);
        assert!(!p.should_defer(&task(0, 1_000), 0.0));
    }

    #[test]
    fn drops_require_toggle_engagement() {
        let pet = pet();
        let cluster = Cluster::one_per_type(1);
        let mut queues = make_queues(&cluster, 4, 256);
        // A task with zero chance: deadline bin 1 < min completion bin 2.
        queues[0].admit(task(0, 200));
        let view = SystemView::new(SimTime(0), &queues, &pet);

        let mut p = PruningMechanism::new(PruningConfig::paper_default(), 1);
        // No misses observed → reactive toggle stays off → no drops.
        p.begin_event(&EventReport::default());
        assert!(p.select_drops(&view).is_empty());
        // A deadline miss engages the toggle → the hopeless task drops.
        p.begin_event(&miss_report());
        let drops = p.select_drops(&view);
        assert_eq!(drops.len(), 1);
        assert_eq!(drops[0].1, task(0, 200).id);
    }

    #[test]
    fn always_toggle_drops_without_misses() {
        let pet = pet();
        let cluster = Cluster::one_per_type(1);
        let mut queues = make_queues(&cluster, 4, 256);
        queues[0].admit(task(0, 200));
        let view = SystemView::new(SimTime(0), &queues, &pet);
        let cfg =
            PruningConfig::paper_default().with_toggle(ToggleMode::Always);
        let mut p = PruningMechanism::new(cfg, 1);
        p.begin_event(&EventReport::default());
        assert_eq!(p.select_drops(&view).len(), 1);
    }

    #[test]
    fn never_toggle_never_drops() {
        let pet = pet();
        let cluster = Cluster::one_per_type(1);
        let mut queues = make_queues(&cluster, 4, 256);
        queues[0].admit(task(0, 200));
        let view = SystemView::new(SimTime(0), &queues, &pet);
        let cfg = PruningConfig::defer_only(0.5);
        let mut p = PruningMechanism::new(cfg, 1);
        p.begin_event(&miss_report());
        assert!(p.select_drops(&view).is_empty());
    }

    #[test]
    fn confident_tasks_survive_dropping() {
        let pet = pet();
        let cluster = Cluster::one_per_type(1);
        let mut queues = make_queues(&cluster, 4, 256);
        // Deadline bin 9 ≥ max completion bin 4 → chance 1.0.
        queues[0].admit(task(0, 999));
        let view = SystemView::new(SimTime(0), &queues, &pet);
        let cfg =
            PruningConfig::paper_default().with_toggle(ToggleMode::Always);
        let mut p = PruningMechanism::new(cfg, 1);
        p.begin_event(&EventReport::default());
        assert!(p.select_drops(&view).is_empty());
    }

    #[test]
    fn dropping_updates_fairness_scores() {
        let pet = pet();
        let cluster = Cluster::one_per_type(1);
        let mut queues = make_queues(&cluster, 4, 256);
        queues[0].admit(task(0, 200));
        queues[0].admit(task(1, 200));
        let view = SystemView::new(SimTime(0), &queues, &pet);
        let cfg =
            PruningConfig::paper_default().with_toggle(ToggleMode::Always);
        let mut p = PruningMechanism::new(cfg, 1);
        p.begin_event(&EventReport::default());
        let drops = p.select_drops(&view);
        assert_eq!(drops.len(), 2);
        // Two drops × c=0.05.
        assert!((p.fairness().score(TaskTypeId(0)) - 0.10).abs() < 1e-12);
        assert_eq!(p.accounting().total_proactive_drops, 2);
    }

    #[test]
    fn suffered_type_becomes_exempt_from_deferral() {
        let cfg = PruningConfig::paper_default();
        let mut p = PruningMechanism::new(cfg, 1);
        // Saturate the sufferage score (clamped at β = 0.5).
        for _ in 0..20 {
            p.fairness.on_proactive_drop(TaskTypeId(0));
        }
        // Effective threshold is now 0: even a hopeless task is mapped.
        assert!(!p.should_defer(&task(0, 1_000), 0.001));
        // But an *exactly* zero chance still defers (chance ≤ 0).
        assert!(p.should_defer(&task(1, 1_000), 0.0));
    }

    #[test]
    fn completions_restore_strictness() {
        let mut p = PruningMechanism::new(PruningConfig::paper_default(), 1);
        for _ in 0..4 {
            p.fairness.on_proactive_drop(TaskTypeId(0));
        }
        // threshold = 0.5 − 0.2 = 0.3.
        assert!(!p.should_defer(&task(0, 1_000), 0.35));
        // Two on-time completions: threshold back to 0.4.
        let report = EventReport {
            now: SimTime(10),
            completed: vec![(task(5, 100), true), (task(6, 100), true)],
            dropped_reactive: vec![],
            cancelled: vec![],
        };
        p.begin_event(&report);
        assert!(p.should_defer(&task(0, 1_000), 0.35));
    }
}
