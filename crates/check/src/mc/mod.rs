//! A loom-style deterministic interleaving explorer, self-contained and
//! std-only.
//!
//! [`Checker::check`] repeatedly executes a small concurrent *model* under a
//! cooperative scheduler: model threads run on real OS threads, but exactly
//! one is runnable at a time, and every visible operation (atomic access or
//! blocking wait) is a *schedule point* where the engine consults a
//! decision log. Depth-first search over that log — which thread
//! runs next, and which message a relaxed/acquire load reads (see
//! [`memory`]) — enumerates every interleaving and every weak-memory read
//! choice up to a bounded number of preemptions (CHESS-style: almost all
//! real concurrency bugs need only 1–2 preemptions, and the bound keeps the
//! state space polynomial instead of exponential).
//!
//! Failures the engine detects:
//! * model assertions ([`Ctx::check`]) — e.g. "the consumed value is the one
//!   that was published";
//! * deadlock — no thread runnable and not all threads done (lost wakeups);
//! * step-budget exhaustion — livelock or an unbounded model loop;
//! * panics escaping the model body.
//!
//! On failure the engine reports the event trace of the failing execution so
//! the interleaving can be read off directly.

pub mod memory;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once};

use memory::{acquires, releases, Memory, Msg, VClock};

/// Sentinel panic payload used to unwind model threads when an execution
/// aborts (failure found elsewhere). Filtered out of the panic hook.
struct AbortExec;

/// Exploration bounds.
#[derive(Clone, Debug)]
pub struct Config {
    /// Maximum preemptive context switches per execution (a switch away from
    /// a thread that could have continued). Non-preemptive switches — the
    /// running thread blocked or exited — are always free.
    pub max_preemptions: u32,
    /// Hard cap on explored executions; hitting it makes the report
    /// non-exhaustive.
    pub max_executions: u64,
    /// Hard cap on schedule points within one execution (livelock guard).
    pub max_steps: u64,
    /// Event-trace ring size kept for failure reports.
    pub max_trace: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            max_preemptions: 2,
            max_executions: 1_000_000,
            max_steps: 20_000,
            max_trace: 256,
        }
    }
}

/// A failed execution: what went wrong plus the event trace leading there.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Human-readable description of the violation.
    pub message: String,
    /// Interleaved event trace of the failing execution (most recent last).
    pub trace: Vec<String>,
}

/// Outcome of one [`Checker::check`] run.
#[derive(Clone, Debug)]
pub struct Report {
    /// Executions explored.
    pub executions: u64,
    /// Whether the bounded state space was fully explored (always `false`
    /// when a failure cut exploration short).
    pub exhausted: bool,
    /// First failure found, if any.
    pub failure: Option<Failure>,
}

impl Report {
    /// Convenience: exploration completed with no violation.
    pub fn passed(&self) -> bool {
        self.failure.is_none() && self.exhausted
    }
}

/// Handle to a modeled atomic location (a plain id — copy freely into
/// thread closures).
#[derive(Clone, Copy, Debug)]
pub struct VAtomic(pub(crate) usize);

type Body = Box<dyn FnOnce(&mut Ctx) + Send + 'static>;

/// Per-execution model construction: allocate locations, spawn threads.
#[derive(Default)]
pub struct Builder {
    mem: Memory,
    names: Vec<String>,
    bodies: Vec<Body>,
}

impl Builder {
    /// Allocates an atomic location with an initial value.
    pub fn atomic(&mut self, name: &str, init: u64) -> VAtomic {
        VAtomic(self.mem.alloc(name, init))
    }

    /// Registers a model thread. Threads start when exploration schedules
    /// them, in any order.
    pub fn thread(&mut self, name: &str, body: impl FnOnce(&mut Ctx) + Send + 'static) {
        self.names.push(name.to_string());
        self.bodies.push(Box::new(body));
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    /// Schedulable.
    Ready,
    /// Blocked until some store appends to the location's history.
    WaitingOnLoc(usize),
    /// Finished (normally or by abort).
    Done,
}

/// One recorded exploration choice: `chosen < options`.
#[derive(Clone, Copy, Debug)]
struct Decision {
    chosen: usize,
    options: usize,
}

struct EngineState {
    // --- persists across executions (the DFS path) ---
    decisions: Vec<Decision>,
    // --- reset per execution ---
    cursor: usize,
    mem: Memory,
    views: Vec<VClock>,
    statuses: Vec<Status>,
    current: usize,
    preemptions: u32,
    steps: u64,
    done_count: usize,
    n_threads: usize,
    exec_finished: bool,
    aborting: bool,
    failure: Option<Failure>,
    events: Vec<String>,
    names: Vec<String>,
}

impl EngineState {
    fn new() -> Self {
        EngineState {
            decisions: Vec::new(),
            cursor: 0,
            mem: Memory::default(),
            views: Vec::new(),
            statuses: Vec::new(),
            current: 0,
            preemptions: 0,
            steps: 0,
            done_count: 0,
            n_threads: 0,
            exec_finished: false,
            aborting: false,
            failure: None,
            events: Vec::new(),
            names: Vec::new(),
        }
    }

    fn reset(&mut self, mem: Memory, names: Vec<String>) {
        let n = names.len();
        self.cursor = 0;
        self.mem = mem;
        self.views = vec![VClock::new(); n];
        self.statuses = vec![Status::Ready; n];
        self.current = usize::MAX;
        self.preemptions = 0;
        self.steps = 0;
        self.done_count = 0;
        self.n_threads = n;
        self.exec_finished = false;
        self.aborting = false;
        self.failure = None;
        self.events.clear();
        self.names = names;
    }

    fn trace(&mut self, max_trace: usize, msg: String) {
        if self.events.len() >= max_trace {
            self.events.remove(0);
        }
        self.events.push(msg);
    }

    fn runnable(&self) -> Vec<usize> {
        (0..self.n_threads)
            .filter(|&t| self.statuses[t] == Status::Ready)
            .collect()
    }

    /// Consumes or extends the decision log. Single-option choices are not
    /// recorded (no branch to explore).
    fn decide(&mut self, options: usize) -> usize {
        debug_assert!(options >= 1);
        if options == 1 {
            return 0;
        }
        if self.cursor < self.decisions.len() {
            let d = self.decisions[self.cursor];
            debug_assert_eq!(
                d.options, options,
                "nondeterministic replay: option count changed"
            );
            self.cursor += 1;
            d.chosen
        } else {
            self.decisions.push(Decision { chosen: 0, options });
            self.cursor += 1;
            0
        }
    }

    /// Advances the DFS path to the next unexplored branch. Returns `false`
    /// when the whole bounded space has been covered.
    fn advance(&mut self) -> bool {
        while let Some(d) = self.decisions.last_mut() {
            if d.chosen + 1 < d.options {
                d.chosen += 1;
                return true;
            }
            self.decisions.pop();
        }
        false
    }
}

/// Shared engine: the scheduler/memory state plus its condvar.
pub(crate) struct Engine {
    cfg: Config,
    st: Mutex<EngineState>,
    cv: Condvar,
}

impl Engine {
    fn lock(&self) -> MutexGuard<'_, EngineState> {
        self.st.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records a failure (first one wins), flips the abort flag and wakes
    /// every thread so it can unwind at its next wait/schedule point.
    fn fail(&self, st: &mut EngineState, msg: String) {
        if st.failure.is_none() {
            let trace = st.events.clone();
            st.failure = Some(Failure {
                message: msg,
                trace,
            });
        }
        st.aborting = true;
        self.cv.notify_all();
    }

    /// Picks the next thread to run when `me` cannot continue (blocked or
    /// done). Detects deadlock and execution completion.
    fn handoff(&self, st: &mut EngineState, _me: usize) {
        if st.aborting {
            self.cv.notify_all();
            return;
        }
        let runnable = st.runnable();
        if runnable.is_empty() {
            if st.done_count == st.n_threads {
                st.exec_finished = true;
            } else {
                let blocked: Vec<String> = (0..st.n_threads)
                    .filter(|&t| st.statuses[t] != Status::Done)
                    .map(|t| format!("{}[{:?}]", st.names[t], st.statuses[t]))
                    .collect();
                self.fail(
                    st,
                    format!("deadlock: no runnable thread ({})", blocked.join(", ")),
                );
            }
            self.cv.notify_all();
            return;
        }
        let pick = st.decide(runnable.len());
        st.current = runnable[pick];
        self.cv.notify_all();
    }

    /// The schedule point executed before every visible operation of `me`.
    /// May switch to another thread (a preemption). Returns with the lock
    /// held, `current == me`, ready to perform the operation atomically.
    fn sched_point(&self, me: usize) -> MutexGuard<'_, EngineState> {
        let mut st = self.lock();
        if st.aborting {
            drop(st);
            std::panic::panic_any(AbortExec);
        }
        debug_assert_eq!(st.current, me, "schedule point from a paused thread");
        st.steps += 1;
        if st.steps > self.cfg.max_steps {
            self.fail(
                &mut st,
                format!(
                    "step budget ({}) exceeded: livelock or unbounded model loop",
                    self.cfg.max_steps
                ),
            );
            drop(st);
            std::panic::panic_any(AbortExec);
        }
        // Options: continue myself (index 0, the no-preemption default), or
        // preempt to any other runnable thread — unless the budget is spent.
        let mut options = vec![me];
        if st.preemptions < self.cfg.max_preemptions {
            options.extend(st.runnable().into_iter().filter(|&t| t != me));
        }
        let pick = st.decide(options.len());
        let next = options[pick];
        if next != me {
            st.preemptions += 1;
            st.current = next;
            self.cv.notify_all();
            st = self.wait_scheduled(st, me);
        }
        st
    }

    /// Blocks until `me` is scheduled again (or the execution aborts).
    fn wait_scheduled<'a>(
        &'a self,
        mut st: MutexGuard<'a, EngineState>,
        me: usize,
    ) -> MutexGuard<'a, EngineState> {
        loop {
            if st.aborting {
                drop(st);
                std::panic::panic_any(AbortExec);
            }
            if st.current == me && st.statuses[me] == Status::Ready {
                return st;
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Wakes every thread blocked on a store to `loc`.
    fn wake_loc_waiters(&self, st: &mut EngineState, loc: usize) {
        for t in 0..st.n_threads {
            if st.statuses[t] == Status::WaitingOnLoc(loc) {
                st.statuses[t] = Status::Ready;
            }
        }
    }
}

/// Per-thread execution context handed to model bodies; all model-visible
/// operations go through it.
pub struct Ctx {
    tid: usize,
    eng: Arc<Engine>,
}

impl Ctx {
    fn trace_op(&self, st: &mut EngineState, text: String) {
        let name = st.names[self.tid].clone();
        let max = self.eng.cfg.max_trace;
        st.trace(max, format!("{name}: {text}"));
    }

    /// Atomic load. Relaxed/acquire loads may read any message at or after
    /// this thread's view — each candidate is a separate exploration branch.
    pub fn load(&mut self, a: VAtomic, ord: Ordering) -> u64 {
        let mut st = self.eng.sched_point(self.tid);
        let from = st.views[self.tid].get(a.0) as usize;
        let len = st.mem.locs[a.0].history.len();
        let idx = from + st.decide(len - from);
        self.finish_load(&mut st, a, idx, ord, false)
    }

    /// A load that always reads the *latest* message. Models the eventual
    /// visibility a real spin loop relies on; use it for loop-control reads
    /// so retry loops converge instead of spinning on a stale value forever.
    /// (On TSO hardware every read of a lock-prefixed location is "fresh",
    /// which is what the production channels' x86 deployment sees.)
    pub fn load_fresh(&mut self, a: VAtomic, ord: Ordering) -> u64 {
        let mut st = self.eng.sched_point(self.tid);
        let idx = st.mem.locs[a.0].history.len() - 1;
        self.finish_load(&mut st, a, idx, ord, true)
    }

    fn finish_load(
        &self,
        st: &mut EngineState,
        a: VAtomic,
        idx: usize,
        ord: Ordering,
        fresh: bool,
    ) -> u64 {
        let (val, view) = {
            let msg = &st.mem.locs[a.0].history[idx];
            (msg.val, msg.view.clone())
        };
        if acquires(ord) {
            st.views[self.tid].join(&view);
        }
        st.views[self.tid].raise(a.0, idx as u64);
        let name = st.mem.locs[a.0].name.clone();
        let tag = if fresh { "load!" } else { "load" };
        self.trace_op(st, format!("{tag} {name} -> {val} ({ord:?}, ts{idx})"));
        val
    }

    /// Atomic store.
    pub fn store(&mut self, a: VAtomic, val: u64, ord: Ordering) {
        let mut st = self.eng.sched_point(self.tid);
        let ts = st.mem.locs[a.0].history.len() as u64;
        st.views[self.tid].raise(a.0, ts);
        let mut view = if releases(ord) {
            st.views[self.tid].clone()
        } else {
            VClock::new()
        };
        view.raise(a.0, ts);
        st.mem.locs[a.0].history.push(Msg { val, ts, view });
        let name = st.mem.locs[a.0].name.clone();
        self.trace_op(&mut st, format!("store {name} = {val} ({ord:?}, ts{ts})"));
        self.eng.wake_loc_waiters(&mut st, a.0);
        self.eng.cv.notify_all();
    }

    /// Atomic read-modify-write: reads the latest message (per-location
    /// atomicity), stores `f(old)`, returns `old`. The written message
    /// inherits the read message's view (release-sequence continuation).
    pub fn rmw(&mut self, a: VAtomic, ord: Ordering, f: impl FnOnce(u64) -> u64) -> u64 {
        let mut st = self.eng.sched_point(self.tid);
        let (old, mut view) = {
            let msg = st.mem.locs[a.0]
                .history
                .last()
                .expect("history never empty");
            (msg.val, msg.view.clone())
        };
        if acquires(ord) {
            let v = view.clone();
            st.views[self.tid].join(&v);
        }
        let ts = st.mem.locs[a.0].history.len() as u64;
        st.views[self.tid].raise(a.0, ts);
        if releases(ord) {
            view.join(&st.views[self.tid]);
        }
        view.raise(a.0, ts);
        let new = f(old);
        st.mem.locs[a.0].history.push(Msg { val: new, ts, view });
        let name = st.mem.locs[a.0].name.clone();
        self.trace_op(
            &mut st,
            format!("rmw {name}: {old} -> {new} ({ord:?}, ts{ts})"),
        );
        self.eng.wake_loc_waiters(&mut st, a.0);
        self.eng.cv.notify_all();
        old
    }

    /// Snapshot of a location's history length, for pairing with
    /// [`wait_changed`](Self::wait_changed). Not a schedule point.
    pub fn mark(&mut self, a: VAtomic) -> u64 {
        let st = self.eng.lock();
        if st.aborting {
            drop(st);
            std::panic::panic_any(AbortExec);
        }
        st.mem.locs[a.0].history.len() as u64
    }

    /// Blocks until some store appends to `a`'s history beyond `mark`.
    /// Returns immediately if one already has. This is the model's bounded
    /// stand-in for a spin-retry: instead of looping (unbounded executions),
    /// the thread sleeps until the location *can* have changed.
    pub fn wait_changed(&mut self, a: VAtomic, mark: u64) {
        let mut st = self.eng.sched_point(self.tid);
        if (st.mem.locs[a.0].history.len() as u64) > mark {
            return;
        }
        st.statuses[self.tid] = Status::WaitingOnLoc(a.0);
        let name = st.mem.locs[a.0].name.clone();
        self.trace_op(&mut st, format!("blocks waiting on {name}"));
        self.eng.handoff(&mut st, self.tid);
        let _st = self.eng.wait_scheduled(st, self.tid);
    }

    /// Model assertion: on failure the execution is recorded as a
    /// counterexample and exploration stops.
    pub fn check(&mut self, cond: bool, msg: &str) {
        if cond {
            return;
        }
        let mut st = self.eng.lock();
        let who = st.names[self.tid].clone();
        self.eng
            .fail(&mut st, format!("assertion failed in {who}: {msg}"));
        drop(st);
        std::panic::panic_any(AbortExec);
    }
}

/// Installs (once, process-wide) a panic hook that silences the engine's
/// internal [`AbortExec`] unwinding while delegating everything else to the
/// previously installed hook.
fn install_quiet_abort_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<AbortExec>().is_none() {
                prev(info);
            }
        }));
    });
}

/// The exploration driver. Create one per model; `check` owns a private
/// worker-thread pool for the duration of the call.
pub struct Checker {
    cfg: Config,
}

impl Default for Checker {
    fn default() -> Self {
        Checker::new(Config::default())
    }
}

impl Checker {
    /// Creates a checker with the given bounds.
    pub fn new(cfg: Config) -> Self {
        Checker { cfg }
    }

    /// Explores every interleaving (up to the configured bounds) of the model
    /// constructed by `build`. `build` runs once per execution and must be
    /// deterministic: allocate the same locations and spawn the same threads
    /// in the same order every time.
    pub fn check(&self, build: impl Fn(&mut Builder)) -> Report {
        install_quiet_abort_hook();
        let engine = Arc::new(Engine {
            cfg: self.cfg.clone(),
            st: Mutex::new(EngineState::new()),
            cv: Condvar::new(),
        });
        let mut workers: Vec<mpsc::Sender<Box<dyn FnOnce() + Send>>> = Vec::new();
        let mut handles = Vec::new();
        let mut executions: u64 = 0;

        let report = loop {
            let mut b = Builder::default();
            build(&mut b);
            let n = b.bodies.len();
            assert!(n > 0, "model has no threads");
            {
                let mut st = engine.lock();
                st.reset(b.mem, b.names);
                // The first schedule decision: which thread starts.
                let pick = st.decide(n);
                st.current = pick;
            }
            while workers.len() < n {
                let (tx, rx) = mpsc::channel::<Box<dyn FnOnce() + Send>>();
                workers.push(tx);
                handles.push(std::thread::spawn(move || {
                    while let Ok(job) = rx.recv() {
                        job();
                    }
                }));
            }
            for (tid, body) in b.bodies.into_iter().enumerate() {
                let eng = Arc::clone(&engine);
                workers[tid]
                    .send(Box::new(move || run_model_thread(eng, tid, body)))
                    .expect("worker thread alive");
            }
            let (failure, exhausted) = {
                let mut st = engine.lock();
                while !st.exec_finished {
                    st = engine.cv.wait(st).unwrap_or_else(|e| e.into_inner());
                }
                executions += 1;
                let failure = st.failure.take();
                if failure.is_some() {
                    (failure, false)
                } else {
                    (None, !st.advance())
                }
            };
            if failure.is_some() {
                break Report {
                    executions,
                    exhausted: false,
                    failure,
                };
            }
            if exhausted {
                break Report {
                    executions,
                    exhausted: true,
                    failure: None,
                };
            }
            if executions >= self.cfg.max_executions {
                break Report {
                    executions,
                    exhausted: false,
                    failure: None,
                };
            }
        };
        drop(workers);
        for h in handles {
            let _ = h.join();
        }
        report
    }
}

/// Worker-side harness around one model thread for one execution.
fn run_model_thread(eng: Arc<Engine>, tid: usize, body: Body) {
    // Wait to be scheduled for the first time.
    {
        let mut st = eng.lock();
        loop {
            if st.aborting {
                break;
            }
            if st.current == tid {
                break;
            }
            st = eng.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        if st.aborting {
            drop(st);
            finish_model_thread(&eng, tid);
            return;
        }
    }
    let mut ctx = Ctx {
        tid,
        eng: Arc::clone(&eng),
    };
    let result = catch_unwind(AssertUnwindSafe(move || body(&mut ctx)));
    if let Err(payload) = result {
        if payload.downcast_ref::<AbortExec>().is_none() {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            let mut st = eng.lock();
            let who = st.names[tid].clone();
            eng.fail(&mut st, format!("panic in model thread {who}: {msg}"));
        }
    }
    finish_model_thread(&eng, tid);
}

/// Marks a model thread done and hands control onward (or completes the
/// execution).
fn finish_model_thread(eng: &Engine, tid: usize) {
    let mut st = eng.lock();
    st.statuses[tid] = Status::Done;
    st.done_count += 1;
    let name = st.names[tid].clone();
    let max = eng.cfg.max_trace;
    st.trace(max, format!("{name}: exits"));
    if st.done_count == st.n_threads {
        st.exec_finished = true;
        eng.cv.notify_all();
        return;
    }
    if st.aborting {
        // Everyone else must still unwind; completion is reached once the
        // last of them calls finish_model_thread.
        eng.cv.notify_all();
        return;
    }
    eng.handoff(&mut st, tid);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two increment-via-load/store threads race: exploration must find the
    /// classic lost update (both read 0, both write 1).
    #[test]
    fn finds_lost_update() {
        let checker = Checker::new(Config {
            max_preemptions: 2,
            ..Config::default()
        });
        let report = checker.check(|b| {
            let x = b.atomic("x", 0);
            let done = b.atomic("done", 0);
            for name in ["a", "b"] {
                b.thread(name, move |c| {
                    let v = c.load(x, Ordering::AcqRel);
                    c.store(x, v + 1, Ordering::AcqRel);
                    c.rmw(done, Ordering::AcqRel, |d| d + 1);
                });
            }
            b.thread("observer", move |c| {
                let m = c.mark(done);
                if c.load_fresh(done, Ordering::Acquire) < 2 {
                    c.wait_changed(done, m);
                }
                while c.load_fresh(done, Ordering::Acquire) < 2 {
                    let m = c.mark(done);
                    c.wait_changed(done, m);
                }
                let v = c.load_fresh(x, Ordering::Acquire);
                c.check(v == 2, "increments must not be lost");
            });
        });
        let f = report.failure.expect("lost update must be found");
        assert!(f.message.contains("increments must not be lost"), "{f:?}");
    }

    /// The same race with atomic RMW increments is correct; exploration must
    /// exhaust without failure.
    #[test]
    fn rmw_increments_are_safe() {
        let checker = Checker::default();
        let report = checker.check(|b| {
            let x = b.atomic("x", 0);
            for name in ["a", "b"] {
                b.thread(name, move |c| {
                    c.rmw(x, Ordering::AcqRel, |v| v + 1);
                });
            }
            b.thread("observer", move |c| {
                while c.load_fresh(x, Ordering::Acquire) < 2 {
                    let m = c.mark(x);
                    c.wait_changed(x, m);
                }
            });
        });
        assert!(report.passed(), "{report:?}");
        assert!(report.executions > 1);
    }

    /// Message passing through a release store / acquire load pair never
    /// observes the stale payload.
    #[test]
    fn release_acquire_message_passing_passes() {
        let report = Checker::default().check(|b| {
            let data = b.atomic("data", 0);
            let flag = b.atomic("flag", 0);
            b.thread("producer", move |c| {
                c.store(data, 42, Ordering::Relaxed);
                c.store(flag, 1, Ordering::Release);
            });
            b.thread("consumer", move |c| {
                while c.load_fresh(flag, Ordering::Acquire) == 0 {
                    let m = c.mark(flag);
                    c.wait_changed(flag, m);
                }
                let v = c.load(data, Ordering::Relaxed);
                c.check(v == 42, "payload must be visible after acquire");
            });
        });
        assert!(report.passed(), "{report:?}");
    }

    /// Downgrading the publication store to relaxed makes the stale-payload
    /// read reachable — the checker must flag it.
    #[test]
    fn relaxed_message_passing_fails() {
        let report = Checker::default().check(|b| {
            let data = b.atomic("data", 0);
            let flag = b.atomic("flag", 0);
            b.thread("producer", move |c| {
                c.store(data, 42, Ordering::Relaxed);
                c.store(flag, 1, Ordering::Relaxed); // bug: no release
            });
            b.thread("consumer", move |c| {
                while c.load_fresh(flag, Ordering::Acquire) == 0 {
                    let m = c.mark(flag);
                    c.wait_changed(flag, m);
                }
                let v = c.load(data, Ordering::Relaxed);
                c.check(v == 42, "payload must be visible after acquire");
            });
        });
        let f = report.failure.expect("stale read must be found");
        assert!(f.message.contains("payload must be visible"), "{f:?}");
    }

    /// A thread waiting on a location nothing stores to is a deadlock.
    #[test]
    fn detects_deadlock() {
        let report = Checker::default().check(|b| {
            let x = b.atomic("x", 0);
            b.thread("sleeper", move |c| {
                let m = c.mark(x);
                c.wait_changed(x, m);
            });
        });
        let f = report.failure.expect("deadlock must be found");
        assert!(f.message.contains("deadlock"), "{f:?}");
    }

    /// Preemption bounding keeps exploration finite and small.
    #[test]
    fn bounded_exploration_terminates() {
        let checker = Checker::new(Config {
            max_preemptions: 1,
            ..Config::default()
        });
        let report = checker.check(|b| {
            let x = b.atomic("x", 0);
            for name in ["a", "b", "c"] {
                b.thread(name, move |c| {
                    c.rmw(x, Ordering::AcqRel, |v| v + 1);
                    c.rmw(x, Ordering::AcqRel, |v| v + 1);
                });
            }
        });
        assert!(report.passed(), "{report:?}");
    }
}
