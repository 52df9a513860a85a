//! The TCP phase: set-up, the closed-loop measurement and the
//! durability check, all against a real machid.

use crate::machid::{Conn, Machid};
use crate::replay::Reply;
use crate::workload::{Class, Spec, Step, CONNECTIONS};
use std::path::Path;
use std::time::{Duration, Instant};

type Result<T> = std::result::Result<T, String>;

/// Per-slot client state.
#[derive(Clone, Copy, Default)]
pub struct SlotState {
    pub sid: u64,
    /// Requests sent in the current life.
    pub sent: usize,
    /// Most requests any life of this slot sent.
    pub max_sent: usize,
}

/// One connection's share of the measurement.
pub struct ConnLog {
    /// `(class, latency)` of every completed request.
    pub samples: Vec<(Class, u64)>,
    /// `(slot, request index, latency, reply)` of every persona request.
    pub replies: Vec<(usize, usize, u64, Reply)>,
    /// `(churn script index, reply)`.
    pub churn: Vec<(usize, Reply)>,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub slots: Vec<SlotState>,
    pub max_sid: u64,
    pub finished: Instant,
}

pub struct Setup {
    pub machid: Machid,
    pub conns: Vec<Conn>,
    pub sids: Vec<u64>,
}

/// Start machid, open every slot's session and run the setup program in
/// it; for a durable workload, then restart machid on the same root and
/// reopen (recover) every session.
pub fn set_up(spec: &Spec, bin: &Path, root: Option<&Path>, log: &Path) -> Result<Setup> {
    let mut machid = Machid::start(bin, root, log)?;
    let connect = |m: &Machid| -> Result<Vec<Conn>> {
        (0..CONNECTIONS).map(|_| Conn::connect(&m.addr)).collect()
    };
    let mut conns = connect(&machid)?;
    let mut sids = Vec::with_capacity(spec.slot_count());
    for slot in 0..spec.slot_count() {
        let conn = &mut conns[slot / spec.slots_per_conn];
        let sid = conn.open()?;
        for line in &spec.setup {
            conn.eval(sid, line)?
                .map_err(|err| format!("setup answered {err}"))?;
        }
        sids.push(sid);
    }
    if root.is_some() {
        drop(conns);
        machid.terminate()?;
        machid = Machid::start(bin, root, log)?;
        conns = connect(&machid)?;
        for (slot, &sid) in sids.iter().enumerate() {
            let got = conns[slot / spec.slots_per_conn].open()?;
            if got != sid {
                return Err(format!("recovered session {got}, expected {sid}"));
            }
        }
    }
    Ok(Setup {
        machid,
        conns,
        sids,
    })
}

/// Drive one connection until `deadline`.
fn drive(spec: &Spec, c: usize, conn: &mut Conn, sids: &[u64], deadline: Instant) -> ConnLog {
    let mut log = ConnLog {
        samples: Vec::new(),
        replies: Vec::new(),
        churn: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
        slots: sids
            .iter()
            .map(|&sid| SlotState {
                sid,
                ..SlotState::default()
            })
            .collect(),
        max_sid: sids.iter().copied().max().unwrap_or(0),
        finished: Instant::now(),
    };
    let mut schedule = spec.schedule(c);
    // Time one request; a lost connection ends this connection's run.
    macro_rules! op {
        ($class:expr, $call:expr) => {{
            log.attempted += 1;
            let t0 = Instant::now();
            match $call {
                Ok(v) => {
                    log.samples.push(($class, t0.elapsed().as_nanos() as u64));
                    v
                }
                Err(e) => {
                    log.failures.push(format!("connection {c}: {e}"));
                    break;
                }
            }
        }};
    }
    while Instant::now() < deadline {
        match schedule.next().expect("schedules are endless") {
            Step::Slot(j) => {
                let slot = c * spec.slots_per_conn + j;
                if log.slots[j].sent == spec.session_budget {
                    let sid = log.slots[j].sid;
                    if let Err(e) = op!(Class::Close, conn.close(sid)) {
                        log.failures.push(e);
                    }
                    let sid = op!(Class::Open, conn.open());
                    log.max_sid = log.max_sid.max(sid);
                    for line in &spec.setup {
                        if let Err(e) = op!(Class::Load, conn.eval(sid, line)) {
                            log.failures.push(format!("setup answered {e}"));
                        }
                    }
                    log.slots[j].sid = sid;
                    log.slots[j].sent = 0;
                }
                let st = log.slots[j];
                let req = &spec.personas[slot][st.sent];
                let reply = op!(req.class, conn.eval(st.sid, &req.src));
                let ns = log.samples.last().map_or(0, |s| s.1);
                log.replies.push((slot, st.sent, ns, reply));
                let st = &mut log.slots[j];
                st.sent += 1;
                st.max_sent = st.max_sent.max(st.sent);
            }
            Step::Churn => {
                let sid = op!(Class::Open, conn.open());
                log.max_sid = log.max_sid.max(sid);
                for (i, req) in spec.churn.iter().enumerate() {
                    let reply = op!(req.class, conn.eval(sid, &req.src));
                    log.churn.push((i, reply));
                }
                if let Err(e) = op!(Class::Close, conn.close(sid)) {
                    log.failures.push(e);
                }
            }
        }
    }
    log.finished = Instant::now();
    log
}

/// After the measurement of a durable workload: crash machid, restart
/// it on the same root, reopen every session and read back what each
/// slot's session had written when its last request was acknowledged.
/// Returns the read-back replies per slot.
pub fn durability_check(
    spec: &Spec,
    bin: &Path,
    root: &Path,
    log: &Path,
    slots: &[SlotState],
    max_sid: u64,
) -> Result<Vec<Reply>> {
    let machid = Machid::start(bin, Some(root), log)?;
    let mut conn = Conn::connect(&machid.addr)?;
    // Session ids restart at 1, so reopening up to the highest id used
    // recovers every slot's session; the others are closed again.
    let mut sid = 0;
    while sid < max_sid {
        sid = conn.open()?;
        if !slots.iter().any(|st| st.sid == sid) {
            conn.close(sid)??;
        }
    }
    let mut replies = Vec::with_capacity(slots.len());
    for (slot, st) in slots.iter().enumerate() {
        let src = spec
            .readback(slot, st.sent)
            .expect("durable workloads have a read-back");
        replies.push(conn.eval(st.sid, &src)?);
    }
    drop(conn);
    machid.kill();
    Ok(replies)
}

/// `DurableSession::open` on each slot's directory under machid's root.
pub fn recovery_ns(root: &Path, slots: &[SlotState]) -> Result<Vec<f64>> {
    std::thread::scope(|s| {
        s.spawn(|| {
            slots
                .iter()
                .map(|st| {
                    let t0 = Instant::now();
                    machiavelli_wal::DurableSession::open(
                        &root.join(format!("session-{}", st.sid)),
                    )
                    .map_err(|e| e.to_string())?;
                    Ok(t0.elapsed().as_nanos() as f64)
                })
                .collect()
        })
        .join()
        .map_err(|_| "recovery timing panicked".to_string())?
    })
}

/// Drive every connection from its own thread until `seconds` have
/// passed; returns the per-connection logs and the measured wall time.
pub fn measure(spec: &Spec, conns: &mut [Conn], sids: &[u64], seconds: u64) -> (Vec<ConnLog>, f64) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs(seconds);
    let per_conn = spec.slots_per_conn;
    let logs: Vec<ConnLog> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let sids = &sids[c * per_conn..(c + 1) * per_conn];
                s.spawn(move || drive(spec, c, conn, sids, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let wall_s = logs
        .iter()
        .map(|l| l.finished.duration_since(start).as_secs_f64())
        .fold(0.0, f64::max);
    (logs, wall_s)
}
