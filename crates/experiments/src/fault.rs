//! Deterministic fault injection: task faults for the resilient pool and
//! I/O faults for the storage layer.
//!
//! Failure-handling machinery (panic isolation, retry, the instruction
//! watchdog, crash-safe checkpoints) is impossible to test reliably with
//! *real* faults — OOM kills, torn writes, and wall-clock stalls are flaky
//! by nature. A [`FailPlan`] instead injects faults at exact, reproducible
//! points.
//!
//! Two directive families share one grammar (and one `RLR_FAIL_PLAN`
//! environment variable):
//!
//! * **Task faults** (`panic`, `stall`) are keyed by *task index* (the
//!   item's position in the pool input), which is stable across worker
//!   counts and scheduling orders. They are consumed by
//!   [`crate::runner::run_tasks_resilient`] via [`FailPlan`].
//! * **I/O faults** (`torn`, `flip`, `enospc`, `short-read`) are keyed by
//!   *byte offset* within one I/O operation, and by the operation's ordinal
//!   (`@OP`, default 0) among all faultable operations of its direction
//!   (write vs. read). They are consumed by the fallible-I/O seam —
//!   [`FaultWriter`] / [`FaultReader`] — which
//!   [`crate::checkpoint::write_atomic`], corpus publication, and the CLI's
//!   streaming `TraceWriter` paths all write through, so "the process died
//!   at byte k of this write" is a reproducible test case, not a flaky one.
//!
//! ```text
//! RLR_FAIL_PLAN="panic:3"          # panic task 3, first attempt only
//! RLR_FAIL_PLAN="panic:3:2"        # panic task 3's first two attempts
//! RLR_FAIL_PLAN="stall:1:*"        # stall task 1 on every attempt
//! RLR_FAIL_PLAN="torn:64"          # first seam write dies after 64 bytes
//! RLR_FAIL_PLAN="torn:64@2"        # ... the third seam write instead
//! RLR_FAIL_PLAN="flip:100"         # first seam write corrupts byte 100
//! RLR_FAIL_PLAN="enospc"           # first seam write fails: no space
//! RLR_FAIL_PLAN="short-read:40"    # first seam read sees only 40 bytes
//! RLR_FAIL_PLAN="panic:0;torn:16"  # families mix freely
//! ```
//!
//! I/O plans are installed process-wide from the environment (first seam
//! use wins), or per-thread and scoped via [`with_io_plan`] — the form the
//! crash-consistency test wall uses so concurrently running tests cannot
//! observe each other's faults.

use std::cell::RefCell;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// The kind of fault a task directive injects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic before the task body runs (models a crashing cell).
    Panic,
    /// Spin consuming watchdog budget without progress (models a runaway
    /// or hung workload; requires an armed watchdog to terminate).
    Stall,
}

/// The kind of fault an I/O directive injects at the seam.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoFaultKind {
    /// The write dies after exactly N bytes reached the file — the shape a
    /// SIGKILL or power loss leaves behind. The seam returns an error after
    /// the partial payload, so an atomic write never renames into place.
    Torn(u64),
    /// Byte N of the written stream is corrupted (XOR `0xA5`), but the
    /// write *completes* — the shape of silent media corruption. Offsets
    /// past the end of the stream are a no-op.
    Flip(u64),
    /// The write fails immediately with an out-of-space error, before any
    /// byte is written.
    Enospc,
    /// The read observes end-of-file after N bytes — the shape of reading
    /// a file another process only half-wrote.
    ShortRead(u64),
}

impl IoFaultKind {
    fn is_write(self) -> bool {
        !matches!(self, Self::ShortRead(_))
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
struct Directive {
    kind: FaultKind,
    task: usize,
    /// Attempts affected; `None` means every attempt.
    times: Option<u32>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct IoDirective {
    kind: IoFaultKind,
    /// Which faultable operation (0-based, counted per direction) fires it.
    op: u64,
}

/// A deterministic schedule of injected task faults, keyed by task index.
#[derive(Debug, Default)]
pub struct FailPlan {
    directives: Vec<Directive>,
    /// Attempts seen so far per directive (same order as `directives`).
    seen: Mutex<Vec<u32>>,
}

/// A deterministic schedule of injected I/O faults, consumed by the
/// [`FaultWriter`]/[`FaultReader`] seam. Each directive fires on one
/// specific seam operation, identified by its ordinal since the plan was
/// installed (writes and reads are counted independently).
#[derive(Debug, Default)]
pub struct IoFailPlan {
    directives: Vec<IoDirective>,
    write_ops: AtomicU64,
    read_ops: AtomicU64,
}

/// Splits a raw plan into task and I/O directives; shared by both parsers
/// so either family tolerates (and ignores) the other's directives while
/// still rejecting genuine typos.
fn parse_directives(raw: &str) -> Result<(Vec<Directive>, Vec<IoDirective>), String> {
    let mut tasks = Vec::new();
    let mut ios = Vec::new();
    for part in raw.split(';').map(str::trim).filter(|p| !p.is_empty()) {
        let (body, op) = match part.split_once('@') {
            None => (part, 0u64),
            Some((body, op)) => (
                body,
                op.parse()
                    .map_err(|_| format!("`{part}`: @OP must be a number, got `{op}`"))?,
            ),
        };
        let fields: Vec<&str> = body.split(':').collect();
        match fields[0] {
            "panic" | "stall" => {
                if part.contains('@') {
                    return Err(format!("`{part}`: @OP applies to I/O faults only"));
                }
                if fields.len() < 2 || fields.len() > 3 {
                    return Err(format!("`{part}`: expected kind:task[:times]"));
                }
                let kind = if fields[0] == "panic" { FaultKind::Panic } else { FaultKind::Stall };
                let task = fields[1]
                    .parse()
                    .map_err(|_| format!("`{}`: task index must be a number", fields[1]))?;
                let times = match fields.get(2) {
                    None => Some(1),
                    Some(&"*") => None,
                    Some(n) => Some(
                        n.parse::<u32>()
                            .ok()
                            .filter(|&n| n > 0)
                            .ok_or_else(|| format!("`{n}`: times must be a positive number or `*`"))?,
                    ),
                };
                tasks.push(Directive { kind, task, times });
            }
            "torn" | "flip" | "short-read" => {
                if fields.len() != 2 {
                    return Err(format!("`{part}`: expected {}:byte-offset[@OP]", fields[0]));
                }
                let at: u64 = fields[1]
                    .parse()
                    .map_err(|_| format!("`{}`: byte offset must be a number", fields[1]))?;
                let kind = match fields[0] {
                    "torn" => IoFaultKind::Torn(at),
                    "flip" => IoFaultKind::Flip(at),
                    _ => IoFaultKind::ShortRead(at),
                };
                ios.push(IoDirective { kind, op });
            }
            "enospc" => {
                if fields.len() != 1 {
                    return Err(format!("`{part}`: expected enospc[@OP]"));
                }
                ios.push(IoDirective { kind: IoFaultKind::Enospc, op });
            }
            other => {
                return Err(format!(
                    "`{other}`: unknown fault kind (panic|stall|torn|flip|enospc|short-read)"
                ))
            }
        }
    }
    Ok((tasks, ios))
}

impl FailPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// Reads `RLR_FAIL_PLAN`; unset or empty means no injection. I/O
    /// directives in the variable are ignored here (the seam reads them
    /// itself); only the task-fault family is kept.
    ///
    /// # Panics
    ///
    /// Panics on a malformed plan: silently ignoring a typo would make a
    /// fault-injection run indistinguishable from a clean one.
    pub fn from_env() -> Self {
        match std::env::var("RLR_FAIL_PLAN") {
            Ok(raw) if !raw.trim().is_empty() => {
                Self::parse(&raw).unwrap_or_else(|e| panic!("RLR_FAIL_PLAN: {e}"))
            }
            _ => Self::none(),
        }
    }

    /// Parses the task-fault directives of a plan (see the module docs).
    /// I/O directives are validated but not retained.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed directive.
    pub fn parse(raw: &str) -> Result<Self, String> {
        let (directives, _ios) = parse_directives(raw)?;
        let seen = Mutex::new(vec![0; directives.len()]);
        Ok(Self { directives, seen })
    }

    /// `true` if the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.directives.is_empty()
    }

    /// `true` when the next [`FailPlan::fault_for`]`(task)` would inject a
    /// fault. Consumes nothing: the checkpointed sweep asks this to keep
    /// targeted cells on the per-cell path, where `fault_for` then fires.
    pub fn targets(&self, task: usize) -> bool {
        let seen = self.seen.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        self.directives
            .iter()
            .zip(seen.iter())
            .find(|(d, _)| d.task == task)
            .is_some_and(|(d, &attempt)| d.times.is_none_or(|times| attempt < times))
    }

    /// Consults the plan for one attempt of `task`, advancing the
    /// directive's attempt counter. Called by the pool immediately before
    /// the task body runs.
    pub fn fault_for(&self, task: usize) -> Option<FaultKind> {
        if self.directives.is_empty() {
            return None;
        }
        let mut seen = self.seen.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        for (i, d) in self.directives.iter().enumerate() {
            if d.task != task {
                continue;
            }
            let attempt = seen[i];
            seen[i] += 1;
            match d.times {
                None => return Some(d.kind),
                Some(times) if attempt < times => return Some(d.kind),
                Some(_) => return None,
            }
        }
        None
    }
}

impl IoFailPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// Parses the I/O-fault directives of a plan (see the module docs).
    /// Task directives are validated but not retained.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed directive.
    pub fn parse(raw: &str) -> Result<Self, String> {
        let (_tasks, directives) = parse_directives(raw)?;
        Ok(Self { directives, ..Self::default() })
    }

    /// `true` if the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.directives.is_empty()
    }

    fn next(&self, write: bool) -> Option<IoFaultKind> {
        let counter = if write { &self.write_ops } else { &self.read_ops };
        let op = counter.fetch_add(1, Ordering::Relaxed);
        self.directives
            .iter()
            .find(|d| d.kind.is_write() == write && d.op == op)
            .map(|d| d.kind)
    }
}

// ---------------------------------------------------------------------------
// Plan installation: scoped thread-local (tests) over process-global (env).
// ---------------------------------------------------------------------------

thread_local! {
    static TL_IO_PLAN: RefCell<Option<IoFailPlan>> = const { RefCell::new(None) };
}

fn global_io_plan() -> &'static IoFailPlan {
    static GLOBAL: OnceLock<IoFailPlan> = OnceLock::new();
    GLOBAL.get_or_init(|| match std::env::var("RLR_FAIL_PLAN") {
        Ok(raw) if !raw.trim().is_empty() => {
            IoFailPlan::parse(&raw).unwrap_or_else(|e| panic!("RLR_FAIL_PLAN: {e}"))
        }
        _ => IoFailPlan::none(),
    })
}

/// Runs `f` with `plan` installed as this thread's I/O fault plan,
/// restoring the previous plan (if any) afterwards. Operation ordinals
/// (`@OP`) count from the moment of installation. This is how tests inject
/// storage faults without touching process-global state.
pub fn with_io_plan<T>(plan: IoFailPlan, f: impl FnOnce() -> T) -> T {
    let previous = TL_IO_PLAN.with(|tl| tl.replace(Some(plan)));
    struct Restore(Option<IoFailPlan>);
    impl Drop for Restore {
        fn drop(&mut self) {
            TL_IO_PLAN.with(|tl| *tl.borrow_mut() = self.0.take());
        }
    }
    let _restore = Restore(previous);
    f()
}

/// Consumes the next fault for one seam operation: the thread-local plan
/// if one is installed, else the process-global plan from `RLR_FAIL_PLAN`.
fn next_io_fault(write: bool) -> Option<IoFaultKind> {
    let local = TL_IO_PLAN.with(|tl| {
        let tl = tl.borrow();
        tl.as_ref().map(|plan| (true, plan.next(write)))
    });
    match local {
        Some((_, fault)) => fault,
        None => {
            let global = global_io_plan();
            if global.is_empty() {
                None // skip the counter churn for the common clean path
            } else {
                global.next(write)
            }
        }
    }
}

fn torn_error() -> io::Error {
    // Not `Interrupted`: `write_all` transparently retries that kind, and a
    // torn write must look terminal, like the process dying mid-write.
    io::Error::other("injected fault: torn write")
}

fn enospc_error() -> io::Error {
    io::Error::new(io::ErrorKind::StorageFull, "injected fault: no space left on device")
}

/// The XOR mask [`IoFaultKind::Flip`] applies (never a no-op).
pub const FLIP_MASK: u8 = 0xA5;

// ---------------------------------------------------------------------------
// The seam: Write/Read adapters every faultable storage path goes through.
// ---------------------------------------------------------------------------

/// The fallible-write seam. Wraps any [`Write`] sink; constructing one
/// claims the next write-operation ordinal from the installed
/// [`IoFailPlan`] (if any) and applies the claimed fault at exact byte
/// offsets as data streams through. With no plan installed this is a
/// zero-cost pass-through.
pub struct FaultWriter<W: Write> {
    inner: W,
    written: u64,
    fault: Option<IoFaultKind>,
}

impl<W: Write> FaultWriter<W> {
    /// Wraps `inner`, claiming the next write-op fault from the plan.
    pub fn new(inner: W) -> Self {
        Self { inner, written: 0, fault: next_io_fault(true) }
    }

    /// The wrapped sink (e.g. to `sync_all` a file after writing).
    pub fn get_ref(&self) -> &W {
        &self.inner
    }

    /// Unwraps into the inner sink.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for FaultWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.fault {
            None => {
                let n = self.inner.write(buf)?;
                self.written += n as u64;
                Ok(n)
            }
            Some(IoFaultKind::Enospc) => Err(enospc_error()),
            Some(IoFaultKind::Torn(at)) => {
                if self.written >= at {
                    // The bytes up to `at` are on disk; everything after
                    // "never happened". Flush so the partial payload is
                    // observable, exactly like a kill mid-write.
                    self.inner.flush()?;
                    return Err(torn_error());
                }
                let take = usize::try_from(at - self.written)
                    .unwrap_or(usize::MAX)
                    .min(buf.len());
                let n = self.inner.write(&buf[..take])?;
                self.written += n as u64;
                Ok(n)
            }
            Some(IoFaultKind::Flip(at)) => {
                let end = self.written + buf.len() as u64;
                let n = if at >= self.written && at < end {
                    let mut copy = buf.to_vec();
                    copy[(at - self.written) as usize] ^= FLIP_MASK;
                    self.inner.write(&copy)?
                } else {
                    self.inner.write(buf)?
                };
                self.written += n as u64;
                Ok(n)
            }
            Some(IoFaultKind::ShortRead(_)) => {
                // Read faults never reach a writer (`next_io_fault`
                // filters by direction); treat defensively as clean.
                let n = self.inner.write(buf)?;
                self.written += n as u64;
                Ok(n)
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// The fallible-read seam: the read-side dual of [`FaultWriter`].
/// A claimed [`IoFaultKind::ShortRead`] makes the stream report a clean
/// end-of-file after N bytes — how a half-written file reads back.
pub struct FaultReader<R: Read> {
    inner: R,
    read: u64,
    fault: Option<IoFaultKind>,
}

impl<R: Read> FaultReader<R> {
    /// Wraps `inner`, claiming the next read-op fault from the plan.
    pub fn new(inner: R) -> Self {
        Self { inner, read: 0, fault: next_io_fault(false) }
    }
}

impl<R: Read> Read for FaultReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let cap = match self.fault {
            Some(IoFaultKind::ShortRead(at)) => {
                if self.read >= at {
                    return Ok(0); // injected EOF
                }
                usize::try_from(at - self.read).unwrap_or(usize::MAX).min(buf.len())
            }
            _ => buf.len(),
        };
        let n = self.inner.read(&mut buf[..cap])?;
        self.read += n as u64;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_directive_form() {
        let plan = FailPlan::parse("panic:3; stall:1:*;panic:0:2").expect("valid plan");
        assert_eq!(plan.directives.len(), 3);
        assert_eq!(plan.directives[0], Directive { kind: FaultKind::Panic, task: 3, times: Some(1) });
        assert_eq!(plan.directives[1], Directive { kind: FaultKind::Stall, task: 1, times: None });
        assert_eq!(plan.directives[2], Directive { kind: FaultKind::Panic, task: 0, times: Some(2) });
    }

    #[test]
    fn parses_io_directive_forms() {
        let plan = IoFailPlan::parse("torn:64;flip:100@2; enospc@1;short-read:40").expect("valid");
        assert_eq!(
            plan.directives,
            vec![
                IoDirective { kind: IoFaultKind::Torn(64), op: 0 },
                IoDirective { kind: IoFaultKind::Flip(100), op: 2 },
                IoDirective { kind: IoFaultKind::Enospc, op: 1 },
                IoDirective { kind: IoFaultKind::ShortRead(40), op: 0 },
            ]
        );
    }

    #[test]
    fn families_tolerate_each_other_but_not_typos() {
        // A mixed plan parses under both families, each keeping its own.
        let tasks = FailPlan::parse("panic:1;torn:8").expect("task side");
        assert_eq!(tasks.directives.len(), 1);
        let ios = IoFailPlan::parse("panic:1;torn:8").expect("io side");
        assert_eq!(ios.directives.len(), 1);
        for bad in ["oops:1", "torn", "torn:x", "flip:1:2", "enospc:5", "torn:1@x", "panic:1@2"] {
            assert!(FailPlan::parse(bad).is_err(), "`{bad}` must not parse");
            assert!(IoFailPlan::parse(bad).is_err(), "`{bad}` must not parse");
        }
    }

    #[test]
    fn rejects_malformed_plans() {
        for bad in ["oops:1", "panic", "panic:x", "panic:1:0", "panic:1:2:3"] {
            assert!(FailPlan::parse(bad).is_err(), "`{bad}` should not parse");
        }
        assert!(FailPlan::parse("").expect("empty is a no-op plan").is_empty());
        assert!(IoFailPlan::parse("").expect("empty is a no-op plan").is_empty());
    }

    /// Plan text for the fuzzer: `;`-joined directives, each well formed
    /// or a salad of grammar tokens, numbers (some past `u64::MAX`) and
    /// raw bytes.
    fn gen_plan_bytes(rng: &mut simrng::SimRng) -> Vec<u8> {
        use simrng::Rng;
        const TOKENS: [&str; 16] = [
            "panic", "stall", "torn", "flip", "enospc", "short-read", ":", ";", "@", "*", " ",
            "0", "3", "18446744073709551616", "-1", "\u{e9}",
        ];
        let mut parts: Vec<Vec<u8>> = Vec::new();
        for _ in 0..rng.gen_range(0..5usize) {
            let part = match rng.gen_range(0..6u32) {
                0 => format!("panic:{}", rng.gen_range(0..6usize)),
                1 => format!("stall:{}:*", rng.gen_range(0..6usize)),
                2 => format!("panic:{}:{}", rng.gen_range(0..6usize), rng.gen_range(1..4u32)),
                3 => format!("torn:{}@{}", rng.gen_range(0..99u64), rng.gen_range(0..3u64)),
                _ => {
                    let mut salad = Vec::new();
                    for _ in 0..rng.gen_range(1..8usize) {
                        match rng.gen_range(0..4u32) {
                            0 => salad.push(rng.gen_range(0..=255u8)),
                            1 => salad.extend(rng.gen_range(0..40u64).to_string().bytes()),
                            _ => salad.extend(TOKENS[rng.gen_range(0..TOKENS.len())].bytes()),
                        }
                    }
                    parts.push(salad);
                    continue;
                }
            };
            parts.push(part.into_bytes());
        }
        parts.join(&b';')
    }

    #[test]
    fn plan_parsers_never_panic_and_targets_predicts_fault_for() {
        use simrng::prop::{check, Config};
        check("fail_plan_fuzz", Config::with_cases(2000), gen_plan_bytes, |bytes| {
            let raw = String::from_utf8_lossy(bytes);
            let parsed =
                std::panic::catch_unwind(|| (FailPlan::parse(&raw), IoFailPlan::parse(&raw)));
            let Ok((tasks, ios)) = parsed else {
                return Err(format!("parsing {raw:?} panicked"));
            };
            simrng::prop_assert_eq!(tasks.is_ok(), ios.is_ok(), "families disagree on {:?}", raw);
            let Ok(plan) = tasks else { return Ok(()) };
            let mut probe: Vec<usize> = plan.directives.iter().map(|d| d.task).collect();
            probe.extend([0, 1, 2, 3, usize::MAX]);
            for task in probe {
                for attempt in 0..4 {
                    let predicted = plan.targets(task);
                    let fired = plan.fault_for(task).is_some();
                    simrng::prop_assert_eq!(
                        predicted,
                        fired,
                        "{:?}: task {} attempt {}",
                        raw,
                        task,
                        attempt
                    );
                }
            }
            Ok(())
        });
    }

    #[test]
    fn counts_attempts_per_directive() {
        let plan = FailPlan::parse("panic:2:2").expect("valid");
        assert_eq!(plan.fault_for(2), Some(FaultKind::Panic));
        assert_eq!(plan.fault_for(2), Some(FaultKind::Panic));
        assert_eq!(plan.fault_for(2), None, "third attempt succeeds");
        assert_eq!(plan.fault_for(1), None, "other tasks unaffected");
    }

    #[test]
    fn always_directive_never_relents() {
        let plan = FailPlan::parse("stall:0:*").expect("valid");
        for _ in 0..10 {
            assert_eq!(plan.fault_for(0), Some(FaultKind::Stall));
        }
    }

    #[test]
    fn torn_writer_stops_at_the_exact_byte() {
        with_io_plan(IoFailPlan::parse("torn:5").expect("valid"), || {
            let mut sink = Vec::new();
            let mut w = FaultWriter::new(&mut sink);
            let err = w.write_all(b"0123456789").expect_err("torn write must fail");
            assert_eq!(err.kind(), io::ErrorKind::Other);
            assert_eq!(sink, b"01234", "exactly 5 bytes reached the sink");
        });
    }

    #[test]
    fn torn_past_the_end_is_a_complete_write() {
        with_io_plan(IoFailPlan::parse("torn:100").expect("valid"), || {
            let mut sink = Vec::new();
            FaultWriter::new(&mut sink).write_all(b"short").expect("fits under the tear");
            assert_eq!(sink, b"short");
        });
    }

    #[test]
    fn flip_corrupts_one_byte_and_succeeds() {
        with_io_plan(IoFailPlan::parse("flip:3").expect("valid"), || {
            let mut sink = Vec::new();
            let mut w = FaultWriter::new(&mut sink);
            // Two writes so the flip has to track absolute offsets.
            w.write_all(b"ab").expect("clean");
            w.write_all(b"cdef").expect("flip still succeeds");
            assert_eq!(sink, [b'a', b'b', b'c', b'd' ^ FLIP_MASK, b'e', b'f']);
        });
    }

    #[test]
    fn enospc_fails_before_any_byte() {
        with_io_plan(IoFailPlan::parse("enospc").expect("valid"), || {
            let mut sink = Vec::new();
            let err = FaultWriter::new(&mut sink).write_all(b"data").expect_err("no space");
            assert_eq!(err.kind(), io::ErrorKind::StorageFull);
            assert!(sink.is_empty());
        });
    }

    #[test]
    fn op_ordinals_select_one_operation() {
        with_io_plan(IoFailPlan::parse("torn:0@1").expect("valid"), || {
            let mut a = Vec::new();
            FaultWriter::new(&mut a).write_all(b"first").expect("op 0 untouched");
            let mut b = Vec::new();
            assert!(FaultWriter::new(&mut b).write_all(b"second").is_err(), "op 1 torn");
            let mut c = Vec::new();
            FaultWriter::new(&mut c).write_all(b"third").expect("op 2 untouched");
        });
    }

    #[test]
    fn short_read_injects_an_early_eof() {
        with_io_plan(IoFailPlan::parse("short-read:4").expect("valid"), || {
            let mut out = Vec::new();
            let n = FaultReader::new(&b"0123456789"[..])
                .read_to_end(&mut out)
                .expect("short read is clean EOF, not an error");
            assert_eq!(n, 4);
            assert_eq!(out, b"0123");
        });
    }

    #[test]
    fn reads_and_writes_are_counted_independently() {
        with_io_plan(IoFailPlan::parse("short-read:0;flip:0").expect("valid"), || {
            // The write op does not consume the read directive or vice versa.
            let mut sink = Vec::new();
            FaultWriter::new(&mut sink).write_all(b"x").expect("flip completes");
            assert_eq!(sink, [b'x' ^ FLIP_MASK]);
            let mut out = Vec::new();
            FaultReader::new(&b"abc"[..]).read_to_end(&mut out).expect("clean EOF");
            assert!(out.is_empty(), "read op 0 sees an immediate EOF");
        });
    }

    #[test]
    fn scoped_plans_restore_the_previous_plan() {
        with_io_plan(IoFailPlan::parse("torn:0").expect("valid"), || {
            with_io_plan(IoFailPlan::none(), || {
                let mut sink = Vec::new();
                FaultWriter::new(&mut sink).write_all(b"inner").expect("inner plan is clean");
            });
            let mut sink = Vec::new();
            assert!(
                FaultWriter::new(&mut sink).write_all(b"outer").is_err(),
                "outer plan is restored (its op 0 is still pending)"
            );
        });
    }
}
