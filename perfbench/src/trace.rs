//! Layer attribution from outside the program.
//!
//! The traced run installs wrappers around the public plug-in seams
//! (`BatchMapper`, `Pruner`, `RoutePolicy`) and times the benchmark's
//! own arrival iterator. Every wrapper forwards every trait method,
//! defaulted ones included, so a traced run makes exactly the calls an
//! untraced one makes; `main` checks that its serialized stats are
//! byte-identical. Spans use the monotonic clock: a thread-CPU-clock
//! read costs several times an `Instant` read and would inflate the
//! traced run far more.
//!
//! The drivers under test are single-threaded, so the span totals live
//! in a thread-local and the wrappers carry no shared state.

use std::cell::Cell;
use std::time::Instant;
use taskprune_model::{MachineId, Task, TaskId};
use taskprune_sim::{
    Assignment, BatchMapper, EventReport, Pruner, RoutePolicy, ShardView,
    SystemView,
};

/// Totals of one traced pass, per layer.
#[derive(Clone, Copy, Default, Debug)]
pub struct Spans {
    /// Mapper rounds (`select`/`select_into` calls).
    pub map_calls: u64,
    /// Candidates handed to the mapper, summed over rounds.
    pub map_candidates: u64,
    /// Time inside the mapper.
    pub map_ns: u64,
    /// Pruner bookkeeping calls (`begin_event`).
    pub begin_calls: u64,
    /// Time inside `begin_event`.
    pub begin_ns: u64,
    /// Drop walks (`select_drops`/`select_drops_into` calls).
    pub drop_calls: u64,
    /// Time inside the drop walks.
    pub drop_ns: u64,
    /// Eq. 2 chance queries answered by the pruner (`should_defer`).
    pub defer_calls: u64,
    /// Routing decisions (`route`/`route_stateless` calls).
    pub route_calls: u64,
    /// Time inside the routing policy.
    pub route_ns: u64,
    /// Arrivals pulled from the benchmark's iterator.
    pub pull_calls: u64,
    /// Time inside the benchmark's iterator (harness cost, not the
    /// program's).
    pub pull_ns: u64,
}

impl Spans {
    /// Time covered by the wrapped children.
    pub fn children_ns(&self) -> u64 {
        self.map_ns
            + self.begin_ns
            + self.drop_ns
            + self.route_ns
            + self.pull_ns
    }
}

thread_local! {
    static SPANS: Cell<Spans> = const {
        Cell::new(Spans {
            map_calls: 0,
            map_candidates: 0,
            map_ns: 0,
            begin_calls: 0,
            begin_ns: 0,
            drop_calls: 0,
            drop_ns: 0,
            defer_calls: 0,
            route_calls: 0,
            route_ns: 0,
            pull_calls: 0,
            pull_ns: 0,
        })
    };
}

/// Takes the totals recorded on this thread since the last call and
/// resets them.
pub fn take() -> Spans {
    SPANS.with(|s| s.take())
}

fn record(f: impl FnOnce(&mut Spans)) {
    SPANS.with(|s| {
        let mut spans = s.get();
        f(&mut spans);
        s.set(spans);
    });
}

/// Runs `f` and adds its monotonic duration, with whatever it counts,
/// to this thread's totals through `add`.
fn timed<T>(f: impl FnOnce() -> T, add: impl FnOnce(&mut Spans, u64)) -> T {
    let start = Instant::now();
    let out = f();
    let ns = start.elapsed().as_nanos() as u64;
    record(|s| add(s, ns));
    out
}

fn add_round(s: &mut Spans, candidates: usize, ns: u64) {
    s.map_calls += 1;
    s.map_candidates += candidates as u64;
    s.map_ns += ns;
}

fn add_drop_walk(s: &mut Spans, ns: u64) {
    s.drop_calls += 1;
    s.drop_ns += ns;
}

fn add_route(s: &mut Spans, ns: u64) {
    s.route_calls += 1;
    s.route_ns += ns;
}

/// A [`BatchMapper`] that times and counts the rounds of the one it
/// wraps.
pub struct TracedMapper(pub Box<dyn BatchMapper>);

impl BatchMapper for TracedMapper {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn select(
        &mut self,
        view: &SystemView<'_>,
        candidates: &[Task],
    ) -> Vec<Assignment> {
        timed(
            || self.0.select(view, candidates),
            |s, ns| add_round(s, candidates.len(), ns),
        )
    }

    fn select_into(
        &mut self,
        view: &SystemView<'_>,
        candidates: &[Task],
        out: &mut Vec<Assignment>,
    ) {
        timed(
            || self.0.select_into(view, candidates, out),
            |s, ns| add_round(s, candidates.len(), ns),
        );
    }

    fn snapshot_state(&self) -> serde::Value {
        self.0.snapshot_state()
    }

    fn restore_state(
        &mut self,
        state: &serde::Value,
    ) -> Result<(), serde::Error> {
        self.0.restore_state(state)
    }
}

/// A [`Pruner`] that times its bookkeeping and drop walks and counts
/// its chance queries.
pub struct TracedPruner(pub Box<dyn Pruner>);

impl Pruner for TracedPruner {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn begin_event(&mut self, report: &EventReport) {
        timed(
            || self.0.begin_event(report),
            |s, ns| {
                s.begin_calls += 1;
                s.begin_ns += ns;
            },
        );
    }

    fn select_drops(
        &mut self,
        view: &SystemView<'_>,
    ) -> Vec<(MachineId, TaskId)> {
        timed(|| self.0.select_drops(view), add_drop_walk)
    }

    fn select_drops_into(
        &mut self,
        view: &SystemView<'_>,
        out: &mut Vec<(MachineId, TaskId)>,
    ) {
        timed(|| self.0.select_drops_into(view, out), add_drop_walk);
    }

    fn should_defer(&mut self, task: &Task, chance: f64) -> bool {
        record(|s| s.defer_calls += 1);
        self.0.should_defer(task, chance)
    }

    fn tighten_threshold(&mut self, factor: f64) {
        self.0.tighten_threshold(factor);
    }

    fn snapshot_state(&self) -> serde::Value {
        self.0.snapshot_state()
    }

    fn restore_state(
        &mut self,
        state: &serde::Value,
    ) -> Result<(), serde::Error> {
        self.0.restore_state(state)
    }
}

/// A [`RoutePolicy`] that times and counts the decisions of the one it
/// wraps.
pub struct TracedRoute(pub Box<dyn RoutePolicy>);

impl RoutePolicy for TracedRoute {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn route(&mut self, shards: &[ShardView<'_>], task: &Task) -> usize {
        timed(|| self.0.route(shards, task), add_route)
    }

    fn is_stateless(&self) -> bool {
        self.0.is_stateless()
    }

    fn route_stateless(&mut self, n_shards: usize, task: &Task) -> usize {
        timed(|| self.0.route_stateless(n_shards, task), add_route)
    }

    fn snapshot_state(&self) -> serde::Value {
        self.0.snapshot_state()
    }

    fn restore_state(
        &mut self,
        state: &serde::Value,
    ) -> Result<(), serde::Error> {
        self.0.restore_state(state)
    }
}

/// The benchmark's arrival iterator. It stamps the monotonic clock at
/// every pull, so the gaps between consecutive pulls are the host time
/// the program spent absorbing one arrival plus everything due before
/// the next. The program pulls when it is ready, so the generator is
/// never late. With `traced`, it also times its own work.
pub struct Arrivals<'t> {
    tasks: std::slice::Iter<'t, Task>,
    len: usize,
    origin: Instant,
    stamps: Vec<u64>,
    traced: bool,
}

impl<'t> Arrivals<'t> {
    /// An iterator over `tasks` whose pull stamps count from now.
    pub fn new(tasks: &'t [Task], traced: bool) -> Self {
        Self {
            tasks: tasks.iter(),
            len: tasks.len(),
            origin: Instant::now(),
            stamps: Vec::with_capacity(tasks.len() + 1),
            traced,
        }
    }

    /// Nanoseconds between consecutive pulls, one per arrival: from the
    /// pull that yielded it to the next pull (the one that found the
    /// stream exhausted, for the last arrival). Pulls after that are
    /// drain-time peeks and are not service samples.
    pub fn service_ns(&self) -> Vec<u64> {
        let pulls = &self.stamps[..=self.len.min(self.stamps.len() - 1)];
        pulls.windows(2).map(|w| w[1] - w[0]).collect()
    }
}

impl Iterator for Arrivals<'_> {
    type Item = Task;

    fn next(&mut self) -> Option<Task> {
        let at = self.origin.elapsed().as_nanos() as u64;
        self.stamps.push(at);
        let task = self.tasks.next().copied();
        if self.traced {
            let ns = (self.origin.elapsed().as_nanos() as u64) - at;
            record(|s| {
                s.pull_calls += 1;
                s.pull_ns += ns;
            });
        }
        task
    }
}
