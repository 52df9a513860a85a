//! perfbench — the end-to-end and per-layer benchmark of this repository.
//!
//! ```text
//! bash perfbench/run.sh --workload <hot_read|scan_join|durable_mixed>
//!                       --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run: set up the workload on a fresh release `machid` three times
//! (the median is `setup_s`; the third machid is kept), drive it for
//! `--seconds` over loopback TCP from two closed-loop connections,
//! scrape `METRICS`, check durability (`durable_mixed`), then replay
//! every session's stream in-process and compare each TCP reply with
//! the replay's. `--trace 1` also runs the traced replay and prints the
//! per-layer metrics instead of the end-to-end ones. The last line of
//! standard output is the result object; everything else, every metric
//! by name and unit, the layer split and the provenance, goes to
//! standard error and to `perfbench/out/`. See `perfbench/README.md`.

mod machid;
mod measure;
mod replay;
mod report;
mod workload;

use machid::{dir_bytes, files_under, Metrics};
use measure::{ConnLog, Setup, SlotState};
use replay::{Replay, Reply, SlotPlan, Span};
use report::{json_number, json_string, mean, median, quantile, result_line, Metric};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workload::{Class, Spec, Workload, CONNECTIONS, DEFAULT_SEED, HELD_OUT_SEED};

type Result<T> = std::result::Result<T, String>;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// The split check accepts a residual up to this share of the
/// end-to-end mean.
const SPLIT_TOLERANCE: f64 = 0.10;
const RUN_DIR: &str = "perfbench/run";
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    machid: PathBuf,
}

fn parse_args() -> Result<Args> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?
            .to_string();
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(key, value);
    }
    let mut take = |k: &str| map.remove(k).ok_or_else(|| format!("missing --{k}"));
    let workload = take("workload")?;
    let args = Args {
        workload: Workload::parse(&workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: take("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
        machid: PathBuf::from(take("machid")?),
    };
    if let Some(k) = map.keys().next() {
        return Err(format!("unknown option --{k}"));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    // The program under test runs with its shipped defaults; tuning
    // variables in the caller's environment would change what is
    // measured, in machid and in the in-process replay alike.
    for (key, _) in std::env::vars_os() {
        let k = key.to_string_lossy();
        if k.starts_with("MACHID_") || k.starts_with("MACHIAVELLI_") {
            std::env::remove_var(&key);
        }
    }
    match parse_args().and_then(|args| run(&args)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What the TCP phase leaves for the checks and the metrics.
struct Observed {
    setup_s: Vec<f64>,
    logs: Vec<ConnLog>,
    wall_s: f64,
    /// `METRICS` before and after the measurement.
    before: Metrics,
    after: Metrics,
    rss_mb: f64,
    /// machid's `STATS` line.
    stats: String,
    root: Option<PathBuf>,
    /// Every slot's state when the measurement ended.
    slots: Vec<SlotState>,
    /// Durability read-backs, per slot (`durable_mixed`).
    readbacks: Option<Vec<Reply>>,
    /// Bytes under machid's durable root, all files and `wal.log` only.
    disk_bytes: u64,
    log_bytes: u64,
    /// `DurableSession::open` per slot on machid's root, ns.
    recovery_ns: Vec<f64>,
}

impl Observed {
    fn samples_ms(&self, keep: impl Fn(Class) -> bool) -> Vec<f64> {
        self.logs
            .iter()
            .flat_map(|l| &l.samples)
            .filter(|(c, _)| keep(*c))
            .map(|(_, ns)| *ns as f64 / 1e6)
            .collect()
    }

    fn completed(&self) -> usize {
        self.logs.iter().map(|l| l.samples.len()).sum()
    }
}

/// Set up three times (keeping the third machid), measure, and for a
/// durable workload crash and check; every machid is stopped on return.
fn observe(args: &Args, spec: &Spec, run_dir: &Path) -> Result<Observed> {
    let log = run_dir.join("machid.log");
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for i in 0..SETUPS {
        let root = match spec.workload.durable() {
            true => Some(
                std::env::current_dir()
                    .map_err(|e| e.to_string())?
                    .join(run_dir)
                    .join(format!("root-{i}")),
            ),
            false => None,
        };
        let t0 = Instant::now();
        let s = measure::set_up(spec, &args.machid, root.as_deref(), &log)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            drop(s.conns);
            s.machid.terminate()?;
        } else {
            kept = Some((s, root));
        }
    }
    let (
        Setup {
            machid,
            mut conns,
            sids,
        },
        root,
    ) = kept.expect("at least one set-up");
    let stats = conns[0].request("STATS")?;
    let before = conns[0].metrics()?;
    let (logs, wall_s) = measure::measure(spec, &mut conns, &sids, args.seconds);
    let after = conns[0].metrics()?;
    let rss_mb = machid.rss_mb()?;
    drop(conns);

    let slots: Vec<SlotState> = logs.iter().flat_map(|l| l.slots.iter().copied()).collect();
    let mut obs = Observed {
        setup_s,
        logs,
        wall_s,
        before,
        after,
        rss_mb,
        stats,
        root: None,
        slots,
        readbacks: None,
        disk_bytes: 0,
        log_bytes: 0,
        recovery_ns: Vec::new(),
    };
    match root {
        Some(root) => {
            machid.kill();
            obs.disk_bytes = dir_bytes(&root, None);
            obs.log_bytes = dir_bytes(&root, Some("wal.log"));
            let max_sid = obs.logs.iter().map(|l| l.max_sid).max().unwrap_or(0);
            obs.readbacks = Some(measure::durability_check(
                spec,
                &args.machid,
                &root,
                &log,
                &obs.slots,
                max_sid,
            )?);
            obs.recovery_ns = measure::recovery_ns(&root, &obs.slots)?;
            obs.root = Some(root);
        }
        None => machid.terminate()?,
    }
    Ok(obs)
}

/// Compare every reply with the replay's; returns `(attempted, failures)`.
fn check(spec: &Spec, obs: &Observed, replay: &Replay) -> (u64, Vec<String>) {
    let expected = &replay.expected;
    let mut attempted: u64 = obs.logs.iter().map(|l| l.attempted).sum();
    let mut failures: Vec<String> = obs.logs.iter().flat_map(|l| l.failures.clone()).collect();
    for l in &obs.logs {
        for (slot, k, _, reply) in &l.replies {
            if *reply != expected.replies[*slot][*k] {
                failures.push(format!(
                    "slot {slot} request {k} ({}): got {reply:?}, expected {:?}",
                    spec.personas[*slot][*k].src, expected.replies[*slot][*k]
                ));
            }
        }
        for (i, reply) in &l.churn {
            if *reply != expected.churn[*i] {
                failures.push(format!(
                    "churn request {i}: got {reply:?}, expected {:?}",
                    expected.churn[*i]
                ));
            }
        }
    }
    for (slot, got) in obs.readbacks.iter().flatten().enumerate() {
        attempted += 1;
        if Some(got) != expected.readbacks[slot].as_ref() {
            failures.push(format!(
                "durability: slot {slot} (session {}) read back {got:?}, expected {:?}",
                obs.slots[slot].sid, expected.readbacks[slot]
            ));
        }
    }
    (attempted, failures)
}

fn end_to_end(obs: &Observed, attempted: u64, failed: u64) -> Vec<Metric> {
    let nan = f64::NAN;
    let reads = obs.samples_ms(|c| c == Class::Read);
    let writes = obs.samples_ms(|c| c == Class::Write);
    let opens = obs.samples_ms(|c| c == Class::Open);
    vec![
        ("setup_s", median(&obs.setup_s).unwrap_or(nan), "s"),
        ("read_p50_ms", quantile(&reads, 0.50).unwrap_or(nan), "ms"),
        ("read_p99_ms", quantile(&reads, 0.99).unwrap_or(nan), "ms"),
        ("write_p50_ms", quantile(&writes, 0.50).unwrap_or(nan), "ms"),
        ("write_p90_ms", quantile(&writes, 0.90).unwrap_or(nan), "ms"),
        ("open_p50_ms", quantile(&opens, 0.50).unwrap_or(nan), "ms"),
        ("throughput_rps", obs.completed() as f64 / obs.wall_s, "1/s"),
        (
            "success_ratio",
            1.0 - failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
        ("server_rss_mb", obs.rss_mb, "MiB"),
    ]
}

/// Self time per layer of the mean `EVAL`, with the client's mean.
struct Split {
    client_us: f64,
    layers: Vec<(&'static str, f64)>,
    residual_us: f64,
}

fn per_layer(
    spec: &Spec,
    obs: &Observed,
    plans: &[SlotPlan],
    replay: &Replay,
) -> (Vec<Metric>, Split) {
    let nan = f64::NAN;
    let d = |name: &str| obs.after.get(name) - obs.before.get(name);
    let evals_ms = obs.samples_ms(|c| matches!(c, Class::Read | Class::Write | Class::Load));
    let server_evals = d("machiavelli_query_latency_seconds_count");
    let client_us = mean(&evals_ms).unwrap_or(nan) * 1e3;
    let server_eval_us = d("machiavelli_query_latency_seconds_sum") / server_evals * 1e6;
    let reply_path_us = client_us - server_eval_us;

    let requests = plans.iter().map(|p| p.prefix).sum::<usize>().max(1) as f64;
    let per_req = |x: u64| x as f64 / requests;
    let span_sum = |keep: &dyn Fn(&Span) -> bool| -> f64 {
        replay
            .spans
            .iter()
            .filter(|s| keep(s))
            .map(|s| s.ns() as f64)
            .sum()
    };
    let span_us = |name: &str| span_sum(&|s| s.name == name) / requests / 1e3;
    let (run_us, render_us) = (span_us("core.run"), span_us("core.render"));
    let (parse_us, infer_us) = (span_us("syntax.parse"), span_us("types.infer"));
    let (plan_us, exec_us) = (span_us("plan.plan"), span_us("eval.exec"));
    // Time outside `Session::run` of the wire-driven and of the directly
    // driven in-process session: each parent's span minus the
    // `server.run` its worker observed.
    let outside_run_us = |parent: &str| {
        span_us(parent)
            - span_sum(&|s| s.name == "server.run" && s.parent == Some(parent)) / requests / 1e3
    };
    let wire_us = outside_run_us("server.wire") - outside_run_us("server.eval");
    let dispatch_us = outside_run_us("server.eval") - render_us;
    let commit_us = span_us("wal.commit");
    let open_us: Vec<f64> = replay
        .spans
        .iter()
        .filter(|s| s.name == "core.open")
        .map(|s| s.ns() as f64 / 1e3)
        .collect();

    let expected = &replay.expected;
    let replayed = |slot: usize| &spec.personas[slot][..plans[slot].prefix];
    let writes = (0..plans.len())
        .flat_map(replayed)
        .filter(|r| r.class == Class::Write)
        .count();
    // Median `Session::run` of a session's last tenth of reads over its
    // first tenth, median over sessions.
    let ratios: Vec<f64> = (0..plans.len())
        .filter_map(|slot| {
            let runs: Vec<f64> = replay
                .spans
                .iter()
                .filter(|s| s.name == "core.run" && s.slot == slot)
                .filter(|s| spec.personas[slot][s.req].class == Class::Read)
                .map(|s| s.ns() as f64)
                .collect();
            let tenth = runs.len() / 10;
            (tenth >= 5).then(|| {
                median(&runs[runs.len() - tenth..]).unwrap_or(nan)
                    / median(&runs[..tenth]).unwrap_or(nan)
            })
        })
        .collect();
    let c = expected.counters;
    let wal = &replay.wal;
    let f64s = |xs: &[u64]| xs.iter().map(|&x| x as f64).collect::<Vec<f64>>();
    let (recovery_ns, log_bytes) = match spec.workload.durable() {
        true => (obs.recovery_ns.clone(), obs.log_bytes),
        false => (f64s(&wal.recovery_ns), wal.log_bytes),
    };
    let ms_median = |ns: &[f64]| median(ns).unwrap_or(nan) / 1e6;

    let split = {
        let durable_commit_us = if spec.workload.durable() {
            commit_us
        } else {
            0.0
        };
        let layers = vec![
            (
                "repl (network, kernel, reply writes)",
                reply_path_us - wire_us - dispatch_us - render_us - durable_commit_us,
            ),
            ("server.wire", wire_us),
            ("server.dispatch", dispatch_us),
            ("wal.commit", durable_commit_us),
            (
                "core (run glue + render)",
                run_us - parse_us - infer_us - exec_us + render_us,
            ),
            ("syntax.parse", parse_us),
            ("types.infer", infer_us),
            ("eval (exec - plan)", exec_us - plan_us),
            ("plan.plan", plan_us),
        ];
        let residual_us = client_us - layers.iter().map(|(_, v)| v).sum::<f64>();
        Split {
            client_us,
            layers,
            residual_us,
        }
    };
    let metrics = vec![
        ("repl.reply_path_us", reply_path_us, "us"),
        ("server.eval_mean_us", server_eval_us, "us"),
        ("server.wire_us", wire_us, "us"),
        ("server.dispatch_us", dispatch_us, "us"),
        (
            "server.shed_ratio",
            d("machiavelli_queries_shed_total") / evals_ms.len().max(1) as f64,
            "ratio",
        ),
        ("core.run_us", run_us, "us"),
        ("core.open_us", median(&open_us).unwrap_or(nan), "us"),
        ("core.render_us", render_us, "us"),
        (
            "core.late_over_early",
            median(&ratios).unwrap_or(nan),
            "ratio",
        ),
        ("syntax.parse_us", parse_us, "us"),
        ("types.infer_us", infer_us, "us"),
        ("plan.plan_us", plan_us, "us"),
        ("plan.par_joins_per_req", per_req(c.par_joins), "count"),
        ("plan.par_probes_per_req", per_req(c.par_probes), "count"),
        (
            "plan.par_fallbacks_per_req",
            per_req(c.par_fallbacks),
            "count",
        ),
        ("eval.exec_us", exec_us, "us"),
        (
            "store.hit_ratio",
            c.store_hits as f64 / (c.store_hits + c.store_misses).max(1) as f64,
            "ratio",
        ),
        ("store.builds_per_req", per_req(c.store_builds), "count"),
        (
            "store.invalidated_per_write",
            c.store_invalidated as f64 / writes.max(1) as f64,
            "count",
        ),
        (
            "store.shared_publishes",
            obs.after.get("machiavelli_shared_publishes_total"),
            "count",
        ),
        (
            "store.shared_adoptions",
            obs.after.get("machiavelli_shared_adoptions_total"),
            "count",
        ),
        ("exec.offloads_per_req", per_req(c.offloads), "count"),
        (
            "exec.offload_fallbacks_per_req",
            per_req(c.offload_fallbacks),
            "count",
        ),
        ("exec.morsels_per_req", per_req(c.morsels), "count"),
        (
            "exec.snapshot_builds_per_req",
            per_req(c.snapshot_builds),
            "count",
        ),
        (
            "trace.declines_per_req",
            d("machiavelli_declines_total") / server_evals.max(1.0),
            "count",
        ),
        ("wal.commit_us", commit_us, "us"),
        (
            "wal.bytes_per_read",
            mean(&f64s(&wal.read_bytes)).unwrap_or(nan),
            "B",
        ),
        (
            "wal.bytes_per_write",
            mean(&f64s(&wal.write_bytes)).unwrap_or(nan),
            "B",
        ),
        (
            "wal.checkpoint_ms",
            ms_median(&f64s(&wal.checkpoint_ns)),
            "ms",
        ),
        ("wal.recovery_ms", ms_median(&recovery_ns), "ms"),
        ("wal.log_bytes", log_bytes as f64, "B"),
        (
            "wal.disk_bytes_per_req",
            obs.disk_bytes as f64 / obs.completed().max(1) as f64,
            "B",
        ),
        ("split.residual_us", split.residual_us, "us"),
    ];
    (metrics, split)
}

fn provenance(args: &Args, spec: &Spec, obs: &Observed) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let workers = obs
        .stats
        .split_whitespace()
        .skip_while(|w| *w != "workers")
        .nth(1)
        .unwrap_or("?");
    let count = |class: Class| obs.samples_ms(|c| c == class).len();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seed_role\": \"{}\", \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"git_commit\": {}, \"source_fnv1a\": \"{:016x}\", \"stream_fnv1a\": \"{:016x}\", \
         \"machid\": {{\"workers\": {}, \"durable_root\": {}, \"flush_policy\": {}, \"env\": \"shipped defaults\"}}, \
         \"client\": {{\"connections\": {CONNECTIONS}, \"loop\": \"closed\", \"TCP_NODELAY\": true, \
         \"TCP_QUICKACK\": false, \"writes_per_request\": 1}}, \"setup_s\": [{}], \
         \"requests_measured\": {}, \"wall_s\": {}, \"samples\": {{\"read\": {}, \"write\": {}, \"open\": {}}}}}",
        json_string(spec.workload.name()),
        spec.seed,
        match spec.seed {
            DEFAULT_SEED => "default",
            HELD_OUT_SEED => "held-out",
            _ => "other",
        },
        args.seconds,
        args.trace,
        json_string(&git_commit()),
        source_hash(),
        spec.stream_hash(),
        json_string(workers),
        obs.root
            .as_ref()
            .map_or("null".to_string(), |r| json_string(&r.display().to_string())),
        json_string(match obs.root {
            Some(_) => "one fdatasync per commit (shipped)",
            None => "none (in-memory)",
        }),
        obs.setup_s.iter().map(|x| json_number(*x)).collect::<Vec<_>>().join(", "),
        obs.completed(),
        json_number(obs.wall_s),
        count(Class::Read),
        count(Class::Write),
        count(Class::Open),
    )
}

fn run(args: &Args) -> Result<String> {
    if !Path::new("perfbench/Cargo.toml").is_file() {
        return Err("run from the root of the repository".into());
    }
    let spec = Spec::generate(args.workload, args.seed);
    let run_dir = PathBuf::from(RUN_DIR);
    let _ = std::fs::remove_dir_all(&run_dir);
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{RUN_DIR}: {e}"))?;
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;

    let obs = observe(args, &spec, &run_dir)?;
    let plans: Vec<SlotPlan> = obs
        .slots
        .iter()
        .enumerate()
        .map(|(slot, st)| SlotPlan {
            prefix: st.max_sent,
            readback: spec.readback(slot, st.sent).map(|src| (st.sent, src)),
        })
        .collect();
    let opens = obs.samples_ms(|c| c == Class::Open).len();
    let replay = replay::replay(
        &spec,
        &plans,
        opens,
        args.trace,
        &run_dir.join("replay-wal"),
    )?;
    let (attempted, failures) = check(&spec, &obs, &replay);
    let failed = failures.len() as u64;
    for f in failures.iter().take(10) {
        eprintln!("perfbench: FAILED {f}");
    }
    let end_to_end = end_to_end(&obs, attempted, failed);
    let (per_layer, split) = per_layer(&spec, &obs, &plans, &replay);

    let mut text = format!("provenance {}\n", provenance(args, &spec, &obs));
    let shown = if args.trace { &per_layer[..] } else { &[] };
    for (name, value, unit) in end_to_end.iter().chain(shown) {
        text.push_str(&format!("{name:<34} {value:>16.4} {unit}\n"));
    }
    text.push_str(&format!(
        "error_ratio {:.6} ({failed} of {attempted} failed: ERR, refused, wrong or lost)\n",
        failed as f64 / attempted.max(1) as f64
    ));
    // The requests behind the read tail.
    let mut slowest: Vec<(u64, &str)> = obs
        .logs
        .iter()
        .flat_map(|l| &l.replies)
        .map(|(slot, k, ns, _)| (*ns, &spec.personas[*slot][*k]))
        .filter(|(_, r)| r.class == Class::Read)
        .map(|(ns, r)| (ns, r.src.as_str()))
        .collect();
    slowest.sort_unstable_by_key(|&(ns, _)| std::cmp::Reverse(ns));
    text.push_str("slowest reads:\n");
    for (ns, src) in slowest.iter().take(12) {
        text.push_str(&format!("  {:>10.3} ms  {src}\n", *ns as f64 / 1e6));
    }
    if args.trace {
        text.push_str(&format!(
            "split of the mean EVAL ({:.1} us end to end), self time per layer:\n",
            split.client_us
        ));
        for (name, v) in &split.layers {
            text.push_str(&format!("  {name:<38} {v:>12.1} us\n"));
        }
        let ok = split.residual_us.abs() <= SPLIT_TOLERANCE * split.client_us;
        text.push_str(&format!(
            "  {:<38} {:>12.1} us  (check: |residual| <= {:.0}% of the end-to-end mean: {})\n",
            "residual (outside the named layers)",
            split.residual_us,
            SPLIT_TOLERANCE * 100.0,
            if ok { "ok" } else { "OVER" }
        ));
    }
    eprint!("{text}");
    let stem = format!(
        "{OUT_DIR}/{}-seed{}-trace{}",
        spec.workload.name(),
        spec.seed,
        u8::from(args.trace)
    );
    std::fs::write(format!("{stem}.txt"), &text).map_err(|e| format!("{stem}.txt: {e}"))?;
    if args.trace {
        write_spans(&format!("{stem}-spans.jsonl"), &spec, &replay.spans)?;
    }
    let metrics = if args.trace { per_layer } else { end_to_end };
    Ok(result_line(failed == 0, attempted, failed, &metrics))
}

/// One JSON object per span; `core.run` spans carry their request.
fn write_spans(path: &str, spec: &Spec, spans: &[Span]) -> Result<()> {
    let mut out = String::new();
    for s in spans {
        let slot = if s.slot == usize::MAX {
            "null".to_string()
        } else {
            s.slot.to_string()
        };
        let src = if s.name == "core.run" {
            format!(
                ", \"src\": {}",
                json_string(&spec.personas[s.slot][s.req].src)
            )
        } else {
            String::new()
        };
        out.push_str(&format!(
            "{{\"slot\": {slot}, \"req\": {}, \"name\": \"{}\", \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}{src}}}\n",
            s.req,
            s.name,
            s.parent.map_or("null".to_string(), |p| format!("\"{p}\"")),
            s.start_ns,
            s.end_ns
        ));
    }
    std::fs::write(path, out).map_err(|e| format!("{path}: {e}"))
}

/// The commit when run at the top of a git checkout.
fn git_commit() -> String {
    if !Path::new(".git").exists() {
        return "unavailable (not a git checkout)".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unavailable (not a git checkout)".to_string())
}

/// FNV-1a over the paths and contents of every file under `crates/`
/// and the root manifest: identifies the code measured when there is no
/// git commit.
fn source_hash() -> u64 {
    let mut all = Vec::new();
    for f in std::iter::once(PathBuf::from("Cargo.toml")).chain(files_under(Path::new("crates"))) {
        all.extend_from_slice(f.to_string_lossy().as_bytes());
        all.push(0);
        all.extend(std::fs::read(&f).unwrap_or_default());
    }
    workload::fnv1a(&all)
}
