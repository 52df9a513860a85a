//! The in-process replay of what the TCP run sent.
//!
//! Every long-lived slot's persona is replayed up to the longest
//! prefix any of its sessions sent, and the churn script once. The
//! plain [`Session`] pass always runs: its rendered outcomes are the
//! expected reply of every TCP request. With tracing on, three more
//! passes replay the same streams and time the public entry points of
//! each crate, recording spans in memory:
//!
//! | pass | replica | spans |
//! |------|---------|-------|
//! | session | `Session` | `core.run`, `core.render`, `core.open` |
//! | layers | parse → infer → plan → eval, as `Session::run_phrase` composes them | `syntax.parse`, `types.infer`, `plan.plan`, `eval.exec` |
//! | server | an in-process `Server` with machid's defaults | `server.wire` (`serve_connection` over byte buffers), `server.eval` (`Server::eval`), each with the `server.run` its worker observed |
//! | wal | `Session` + `SessionLog` under the run directory | `wal.commit`, `wal.recovery`, `wal.checkpoint` |
//!
//! Each pass runs on a fresh thread, so the thread-scoped index store,
//! lane counters and WAL dirty-ref channel see one replica only.

use crate::workload::{Class, Spec};
use machiavelli::eval::{builtin_env, eval_expr, PRELUDE};
use machiavelli::plan::{find_select, plan_select};
use machiavelli::syntax::ast::{Expr, ExprKind, PhraseKind};
use machiavelli::syntax::parse_program;
use machiavelli::types::{Inferencer, TypeEnv};
use machiavelli::value::Env;
use machiavelli::Session;
use machiavelli_server::{serve_connection, Server, ServerConfig};
use machiavelli_wal::{DurableSession, SessionLog};
use std::borrow::Cow;
use std::path::{Path, PathBuf};
use std::time::Instant;

type Result<T> = std::result::Result<T, String>;

/// A reply as the wire carries it: the `"; "`-joined outcomes, or the
/// error.
pub type Reply = std::result::Result<String, String>;

/// What to replay for one slot.
pub struct SlotPlan {
    /// Requests of the persona to replay.
    pub prefix: usize,
    /// Evaluate the durability read-back after this many requests.
    pub readback: Option<(usize, String)>,
}

/// One timed interval of the traced replay.
pub struct Span {
    /// Slot, or `usize::MAX` for session opens.
    pub slot: usize,
    /// Request index within the slot's persona.
    pub req: usize,
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Counter deltas the session pass collects around each request.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub store_hits: u64,
    pub store_misses: u64,
    pub store_builds: u64,
    pub store_invalidated: u64,
    pub par_joins: u64,
    pub par_probes: u64,
    pub par_fallbacks: u64,
    pub offloads: u64,
    pub offload_fallbacks: u64,
    pub morsels: u64,
    pub snapshot_builds: u64,
}

/// Output of the session pass.
pub struct Expected {
    /// Per slot, per request.
    pub replies: Vec<Vec<Reply>>,
    pub readbacks: Vec<Option<Reply>>,
    pub churn: Vec<Reply>,
    pub counters: Counters,
}

/// Wal pass totals, per request class.
#[derive(Default)]
pub struct WalStats {
    pub read_bytes: Vec<u64>,
    pub write_bytes: Vec<u64>,
    pub log_bytes: u64,
    pub checkpoint_ns: Vec<u64>,
    pub recovery_ns: Vec<u64>,
}

pub struct Replay {
    pub expected: Expected,
    pub spans: Vec<Span>,
    pub wal: WalStats,
}

/// Run the session pass, and with `traced` the three traced passes.
/// `opens` session opens are timed in the session pass (one per `OPEN`
/// the TCP run sent, capped).
pub fn replay(
    spec: &Spec,
    plans: &[SlotPlan],
    opens: usize,
    traced: bool,
    wal_dir: &Path,
) -> Result<Replay> {
    let clock = Instant::now();
    let mut spans = Vec::new();
    let expected = std::thread::scope(|s| {
        s.spawn(|| session_pass(spec, plans, opens, &clock, &mut spans))
            .join()
            .map_err(|_| "session pass panicked".to_string())?
    })?;
    let mut wal = WalStats::default();
    if traced {
        std::thread::scope(|s| {
            s.spawn(|| layer_pass(spec, plans, &clock, &mut spans))
                .join()
                .map_err(|_| "layer pass panicked".to_string())?
        })?;
        server_pass(spec, plans, &clock, &mut spans)?;
        wal = std::thread::scope(|s| {
            s.spawn(|| wal_pass(spec, plans, wal_dir, &clock, &mut spans))
                .join()
                .map_err(|_| "wal pass panicked".to_string())?
        })?;
    }
    Ok(Replay {
        expected,
        spans,
        wal,
    })
}

fn since(clock: &Instant, t: Instant) -> u64 {
    t.duration_since(*clock).as_nanos() as u64
}

/// Time `f` as one span.
fn timed<T>(
    clock: &Instant,
    spans: &mut Vec<Span>,
    at: (usize, usize),
    name: &'static str,
    parent: Option<&'static str>,
    f: impl FnOnce() -> T,
) -> T {
    let t0 = Instant::now();
    let out = f();
    let t1 = Instant::now();
    spans.push(Span {
        slot: at.0,
        req: at.1,
        name,
        parent,
        start_ns: since(clock, t0),
        end_ns: since(clock, t1),
    });
    out
}

fn render(outcomes: &[machiavelli::Outcome]) -> String {
    outcomes
        .iter()
        .map(|o| o.show())
        .collect::<Vec<_>>()
        .join("; ")
}

fn run_rendered(s: &mut Session, src: &str) -> Reply {
    s.run(src).map(|o| render(&o)).map_err(|e| e.to_string())
}

fn setup_session(spec: &Spec) -> Result<Session> {
    let mut s = Session::try_new().map_err(|e| e.to_string())?;
    for line in &spec.setup {
        s.run(line).map_err(|e| format!("setup: {e}"))?;
    }
    Ok(s)
}

struct Snapshot {
    store: machiavelli::store::StoreStats,
    par: machiavelli::value::tuning::ParStats,
    exec: machiavelli::value::tuning::ExecStats,
}

fn snapshot(s: &Session) -> Snapshot {
    Snapshot {
        store: s.store_stats(),
        par: s.par_stats(),
        exec: s.exec_stats(),
    }
}

fn accumulate(c: &mut Counters, a: &Snapshot, b: &Snapshot) {
    c.store_hits += b.store.hits - a.store.hits;
    c.store_misses += b.store.misses - a.store.misses;
    c.store_builds += b.store.builds - a.store.builds;
    c.store_invalidated += b.store.invalidated - a.store.invalidated;
    c.par_joins += b.par.par_joins - a.par.par_joins;
    c.par_probes += b.par.par_probes - a.par.par_probes;
    c.par_fallbacks += (b.par.par_join_fallbacks - a.par.par_join_fallbacks)
        + (b.par.par_probe_fallbacks - a.par.par_probe_fallbacks)
        + (b.par.par_hom_fallbacks - a.par.par_hom_fallbacks);
    c.offloads += b.exec.offloads - a.exec.offloads;
    c.offload_fallbacks += b.exec.offload_fallbacks - a.exec.offload_fallbacks;
    c.morsels += b.exec.morsels_executed - a.exec.morsels_executed;
    c.snapshot_builds += b.exec.snapshots_built - a.exec.snapshots_built;
}

fn session_pass(
    spec: &Spec,
    plans: &[SlotPlan],
    opens: usize,
    clock: &Instant,
    spans: &mut Vec<Span>,
) -> Result<Expected> {
    let mut out = Expected {
        replies: Vec::new(),
        readbacks: Vec::new(),
        churn: Vec::new(),
        counters: Counters::default(),
    };
    for i in 0..opens.min(64) {
        let s = timed(
            clock,
            spans,
            (usize::MAX, i),
            "core.open",
            None,
            Session::try_new,
        );
        s.map_err(|e| e.to_string())?;
    }
    for (slot, plan) in plans.iter().enumerate() {
        let mut s = setup_session(spec)?;
        let persona = &spec.personas[slot][..plan.prefix];
        let mut replies = Vec::with_capacity(plan.prefix);
        let mut readback = None;
        for k in 0..=plan.prefix {
            if let Some((at, src)) = &plan.readback {
                if *at == k {
                    readback = Some(run_rendered(&mut s, src));
                }
            }
            let Some(req) = persona.get(k) else { break };
            let before = snapshot(&s);
            let result = timed(
                clock,
                spans,
                (slot, k),
                "core.run",
                Some("server.eval"),
                || s.run(&req.src),
            );
            accumulate(&mut out.counters, &before, &snapshot(&s));
            replies.push(match result {
                Ok(outcomes) => Ok(timed(
                    clock,
                    spans,
                    (slot, k),
                    "core.render",
                    Some("server.eval"),
                    || render(&outcomes),
                )),
                Err(e) => Err(e.to_string()),
            });
        }
        out.replies.push(replies);
        out.readbacks.push(readback);
    }
    let mut churn = Session::try_new().map_err(|e| e.to_string())?;
    for req in &spec.churn {
        out.churn.push(run_rendered(&mut churn, &req.src));
    }
    Ok(out)
}

/// The stages of `Session::run`, composed from the crates' public
/// functions the way `Session::run_phrase` composes them, each timed
/// on its own. Planning is timed as a separate, pure call; evaluation
/// plans again, so `plan.plan` is a child of `eval.exec`.
struct Layered {
    inferencer: Inferencer,
    type_env: TypeEnv,
    env: Env,
}

impl Layered {
    fn new() -> Result<Layered> {
        let inferencer = Inferencer::new();
        let type_env = inferencer.builtin_env();
        let mut l = Layered {
            inferencer,
            type_env,
            env: builtin_env(),
        };
        l.run(PRELUDE, &Instant::now(), &mut Vec::new(), (0, 0))?;
        Ok(l)
    }

    fn run(
        &mut self,
        src: &str,
        clock: &Instant,
        spans: &mut Vec<Span>,
        at: (usize, usize),
    ) -> Result<()> {
        let program = timed(clock, spans, at, "syntax.parse", Some("core.run"), || {
            parse_program(src)
        })
        .map_err(|e| e.to_string())?;
        for phrase in &program {
            let typed = timed(clock, spans, at, "types.infer", Some("core.run"), || {
                self.inferencer.infer_phrase(&mut self.type_env, phrase)
            })
            .map_err(|e| e.to_string())?;
            let expr = match &phrase.kind {
                PhraseKind::Val { expr, .. } | PhraseKind::Expr(expr) => Cow::Borrowed(expr),
                PhraseKind::Fun { name, params, body } => Cow::Owned(Expr::new(
                    ExprKind::Rec {
                        name: *name,
                        body: Box::new(Expr::new(
                            ExprKind::Lambda {
                                params: params.clone(),
                                body: Box::new(body.clone()),
                            },
                            phrase.span,
                        )),
                    },
                    phrase.span,
                )),
            };
            timed(clock, spans, at, "plan.plan", Some("eval.exec"), || {
                plan_selects(&expr)
            });
            let value = timed(clock, spans, at, "eval.exec", Some("core.run"), || {
                eval_expr(&self.env, &expr)
            })
            .map_err(|e| e.to_string())?;
            self.env = self.env.bind(typed.name, value);
        }
        Ok(())
    }
}

/// Plan every comprehension at the top of `e` or passed directly to an
/// application (`card(select …)`, `hom(f, op, z, select …)`), the
/// shapes the workloads send.
fn plan_selects(e: &Expr) -> usize {
    let mut planned = 0;
    if let Some((generators, pred, result)) = find_select(e) {
        std::hint::black_box(plan_select(generators, pred, result).is_ok());
        planned += 1;
    }
    if let ExprKind::App { args, .. } = &e.kind {
        planned += args.iter().map(plan_selects).sum::<usize>();
    }
    planned
}

fn layer_pass(
    spec: &Spec,
    plans: &[SlotPlan],
    clock: &Instant,
    spans: &mut Vec<Span>,
) -> Result<()> {
    for (slot, plan) in plans.iter().enumerate() {
        let mut l = Layered::new()?;
        let mut scratch = Vec::new();
        for line in &spec.setup {
            l.run(line, clock, &mut scratch, (slot, 0))?;
        }
        for (k, req) in spec.personas[slot][..plan.prefix].iter().enumerate() {
            l.run(&req.src, clock, spans, (slot, k))?;
        }
    }
    Ok(())
}

fn server_pass(
    spec: &Spec,
    plans: &[SlotPlan],
    clock: &Instant,
    spans: &mut Vec<Span>,
) -> Result<()> {
    let server = Server::start(ServerConfig::default());
    let mut out: Vec<u8> = Vec::new();
    for (slot, plan) in plans.iter().enumerate() {
        // One session driven through the wire layer, one through
        // `Server::eval` directly; both see the same stream.
        let wire = server.open_session().map_err(|e| e.to_string())?;
        let direct = server.open_session().map_err(|e| e.to_string())?;
        for line in &spec.setup {
            for sid in [wire, direct] {
                server.eval(sid, line).map_err(|e| format!("setup: {e}"))?;
            }
        }
        for (k, req) in spec.personas[slot][..plan.prefix].iter().enumerate() {
            let line = format!("EVAL {wire} {}\n", req.src);
            out.clear();
            let q0 = latency_sum_ns();
            timed(
                clock,
                spans,
                (slot, k),
                "server.wire",
                Some("repl.reply_path"),
                || serve_connection(&server, line.as_bytes(), &mut out),
            )
            .map_err(|e| e.to_string())?;
            server_run_span(clock, spans, (slot, k), "server.wire", q0);
            if !out.starts_with(b"VAL ") {
                return Err(format!(
                    "in-process wire replay failed: {}",
                    String::from_utf8_lossy(&out)
                ));
            }
            let q0 = latency_sum_ns();
            timed(
                clock,
                spans,
                (slot, k),
                "server.eval",
                Some("repl.reply_path"),
                || server.eval(direct, &req.src),
            )
            .map_err(|e| e.to_string())?;
            server_run_span(clock, spans, (slot, k), "server.eval", q0);
        }
        for sid in [wire, direct] {
            server.close_session(sid).map_err(|e| e.to_string())?;
        }
    }
    server.shutdown();
    Ok(())
}

/// Total `Session::run` time the server's workers have observed.
fn latency_sum_ns() -> u64 {
    machiavelli::trace::latency_snapshot().sum_ns
}

/// Record the `Session::run` time a worker observed for the request
/// just served (one in flight at a time) as a child of `parent`, so
/// that the wire and dispatch self times come from one replica each.
fn server_run_span(
    clock: &Instant,
    spans: &mut Vec<Span>,
    at: (usize, usize),
    parent: &'static str,
    before_ns: u64,
) {
    let ns = latency_sum_ns() - before_ns;
    let end_ns = since(clock, Instant::now());
    spans.push(Span {
        slot: at.0,
        req: at.1,
        name: "server.run",
        parent: Some(parent),
        start_ns: end_ns - ns,
        end_ns,
    });
}

fn wal_pass(
    spec: &Spec,
    plans: &[SlotPlan],
    wal_dir: &Path,
    clock: &Instant,
    spans: &mut Vec<Span>,
) -> Result<WalStats> {
    let mut stats = WalStats::default();
    let io = |e: machiavelli_wal::WalError| e.to_string();
    for (slot, plan) in plans.iter().enumerate() {
        let dir: PathBuf = wal_dir.join(format!("slot-{slot}"));
        let _ = std::fs::remove_dir_all(&dir);
        let mut session = Session::try_new().map_err(|e| e.to_string())?;
        let (mut log, _) = SessionLog::open(&dir, &mut session).map_err(io)?;
        for line in &spec.setup {
            let outcomes = session.run(line).map_err(|e| e.to_string())?;
            log.commit(&session, &outcomes).map_err(io)?;
        }
        for (k, req) in spec.personas[slot][..plan.prefix].iter().enumerate() {
            let outcomes = session.run(&req.src).map_err(|e| e.to_string())?;
            let receipt = timed(
                clock,
                spans,
                (slot, k),
                "wal.commit",
                Some("repl.reply_path"),
                || log.commit(&session, &outcomes),
            )
            .map_err(io)?;
            match req.class {
                Class::Write => stats.write_bytes.push(receipt.bytes),
                _ => stats.read_bytes.push(receipt.bytes),
            }
        }
        stats.log_bytes += crate::machid::dir_bytes(&dir, Some("wal.log"));
        drop(log);
        drop(session);
        let t0 = Instant::now();
        let (mut recovered, _) = DurableSession::open(&dir).map_err(io)?;
        stats.recovery_ns.push(t0.elapsed().as_nanos() as u64);
        let t0 = Instant::now();
        recovered.checkpoint().map_err(io)?;
        stats.checkpoint_ns.push(t0.elapsed().as_nanos() as u64);
    }
    Ok(stats)
}
