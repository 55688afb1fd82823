//! The `screen_service` workload: the shipped `rotsv-server` binary as a
//! child process, driven over one connection by this benchmark's own
//! open-loop generator — a paced writer thread beside a reader thread,
//! so responses are timestamped as they arrive, never after the last
//! submit. Latency is timed from each job's *due* time.
//!
//! The untraced run offers jobs well above what the daemon can serve and
//! times how fast it works the backlog off: the daemon's capacity, which
//! no offered rate pins. The traced run measures the layers at a fixed
//! nominal rate, then climbs a ladder of fixed absolute rates; the
//! highest passing rung, interpolated towards the first failing one,
//! gives the sustainable rate.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};

use rotsv::num::rng::GaussianRng;
use rotsv::num::units::Ohms;
use rotsv::spice::SolverStats;
use rotsv::tsv::TsvFault;
use rotsv::variation::ProcessSpread;
use rotsv::{die_seed, Die, TestBench};
use rotsv_obs::Json;

use crate::check;
use crate::util::{self, median, percentile, Metric};

/// Size of the capacity phase's backlog, in verdicts (die × V_DD
/// points) per second of the run's window.
const BACKLOG_PER_S: f64 = 45.0;
/// Nominal offered rate of the traced run, verdicts per second.
const NOMINAL_RATE: f64 = 6.0;
/// The rate ladder, verdicts per second: fixed absolute rungs above the
/// nominal rate, climbed until the load is clearly unsustainable.
const LADDER: [f64; 9] = [16.0, 19.0, 22.0, 25.0, 29.0, 34.0, 40.0, 47.0, 55.0];
/// Length of one ladder rung, seconds.
const RUNG_S: f64 = 4.0;
/// Daemon cold starts (spawn to first `pong`) before and after the
/// measured phases each.
const COLD_STARTS: usize = 10;
/// Verdicts recomputed one die at a time after the run.
const CHECK_VERDICTS: usize = 4;
/// Longest wait for a phase's verdicts after its last arrival.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(90);

/// Fault hypotheses of the mix, from a small set so that jobs share
/// engine groups and batch across clients.
#[derive(Debug, Clone, Copy)]
enum Fault {
    None,
    /// 1 kΩ resistive open at mid-TSV.
    Open,
    /// 3 kΩ leak: slower ring, still oscillating.
    Leak,
    /// 300 Ω leak: a hard-stuck ring that burns its time budget.
    Stuck,
}

impl Fault {
    fn json(self) -> Json {
        let kv = |kind: &str, r: f64, x: Option<f64>| {
            let mut m = vec![
                ("kind".into(), Json::Str(kind.into())),
                ("index".into(), Json::Num(0.0)),
                ("r".into(), Json::Num(r)),
            ];
            if let Some(x) = x {
                m.push(("x".into(), Json::Num(x)));
            }
            Json::Obj(m)
        };
        match self {
            Fault::None => Json::Obj(vec![("kind".into(), Json::Str("none".into()))]),
            Fault::Open => kv("open", 1e3, Some(0.5)),
            Fault::Leak => kv("leak", 3e3, None),
            Fault::Stuck => kv("leak", 300.0, None),
        }
    }

    fn faults(self, n: usize) -> Vec<TsvFault> {
        let mut f = vec![TsvFault::None; n];
        f[0] = match self {
            Fault::None => TsvFault::None,
            Fault::Open => TsvFault::ResistiveOpen {
                x: 0.5,
                r: Ohms(1e3),
            },
            Fault::Leak => TsvFault::Leakage { r: Ohms(3e3) },
            Fault::Stuck => TsvFault::Leakage { r: Ohms(300.0) },
        };
        f
    }
}

/// One generated screening job.
#[derive(Debug, Clone)]
struct Job {
    n_segments: usize,
    vdds: Vec<f64>,
    fault: Fault,
    dies: usize,
    seed: u64,
}

impl Job {
    fn verdicts(&self) -> usize {
        self.dies * self.vdds.len()
    }

    fn submit_line(&self, id: usize) -> String {
        Json::Obj(vec![
            ("type".into(), Json::Str("submit".into())),
            ("id".into(), Json::Num(id as f64)),
            ("n_segments".into(), Json::Num(self.n_segments as f64)),
            ("dies".into(), Json::Num(self.dies as f64)),
            (
                "vdd".into(),
                Json::Arr(self.vdds.iter().map(|&v| Json::Num(v)).collect()),
            ),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("spread".into(), Json::Str("paper".into())),
            ("fast".into(), Json::Bool(true)),
            ("fault".into(), self.fault.json()),
            ("under_test".into(), Json::Arr(vec![Json::Num(0.0)])),
        ])
        .render()
    }
}

/// Job templates of the mix, in exact proportion: of every 20 jobs,
/// 9/9/2 ring on 1/2/5 segments, 9 fault-free, 4 open, 6 leaky and one
/// hard-stuck, 7 at two V_DD points, and 1–4 dies each — 68 verdicts.
fn deck() -> Vec<Job> {
    const SEGMENTS: [usize; 20] = [1, 2, 1, 2, 1, 2, 1, 2, 5, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 5];
    const FAULTS: [Fault; 20] = {
        use Fault::*;
        [
            None, Leak, Open, None, Leak, None, Stuck, Open, None, Leak, None, Open, Leak, None,
            None, Leak, Open, None, Leak, None,
        ]
    };
    (0..20)
        .map(|i| Job {
            n_segments: SEGMENTS[i],
            vdds: if i % 10 < 3 || i == 5 {
                vec![1.1, 0.9]
            } else {
                vec![1.1]
            },
            fault: FAULTS[i],
            dies: 1 + (i * 7) % 4,
            seed: 0,
        })
        .collect()
}

/// The seeded job stream: the deck in a fresh seeded order per round,
/// each job with its own seeded die population.
struct JobStream {
    rng: GaussianRng,
    deck: Vec<Job>,
    next: usize,
}

impl JobStream {
    fn new(seed: u64) -> Self {
        let deck = deck();
        Self {
            rng: GaussianRng::seed_from(seed ^ 0x5343_5245_454e_0000),
            next: deck.len(),
            deck,
        }
    }

    /// Mean verdicts per job of the mix.
    fn mean_verdicts(&self) -> f64 {
        self.deck.iter().map(Job::verdicts).sum::<usize>() as f64 / self.deck.len() as f64
    }

    fn next_job(&mut self) -> Job {
        if self.next == self.deck.len() {
            for i in (1..self.deck.len()).rev() {
                let j = self.rng.uniform(0.0, (i + 1) as f64) as usize;
                self.deck.swap(i, j);
            }
            self.next = 0;
        }
        let mut job = self.deck[self.next].clone();
        self.next += 1;
        job.seed = self.rng.uniform(0.0, 1e9) as u64;
        job
    }

    /// One open-loop phase of `count` jobs offering `rate` verdicts per
    /// second: the jobs at Poisson arrival times (uniform order
    /// statistics given the count), as (due offset, job).
    fn phase(&mut self, rate: f64, count: usize) -> Vec<(f64, Job)> {
        let seconds = count as f64 * self.mean_verdicts() / rate;
        let mut due: Vec<f64> = (0..count).map(|_| self.rng.uniform(0.0, seconds)).collect();
        due.sort_by(f64::total_cmp);
        due.into_iter().map(|t| (t, self.next_job())).collect()
    }
}

/// A line from the daemon with its arrival time.
struct Received {
    at: Instant,
    doc: Json,
}

/// Per-job timings of one phase.
#[derive(Default)]
struct Tracked {
    due: Option<Instant>,
    sent: Option<Instant>,
    admitted: Option<Instant>,
    rejected: bool,
    /// (arrival, daemon-side latency_s, status, delta_t, die, vdd)
    verdicts: Vec<(Instant, f64, String, Option<f64>, usize, f64)>,
    expected: usize,
    /// Solver work from the job's `done` manifest.
    stats: Option<Json>,
    /// p90 of the daemon's `mc.dt_drag` histogram when the job finished.
    dt_drag_p90: Option<f64>,
}

/// The running daemon and its line reader. Dropping it kills the
/// process if it is still running, so no error path leaves it behind.
struct Daemon {
    child: Child,
    addr: String,
    _stdout: BufReader<ChildStdout>,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

fn spawn_daemon(bin: &Path, workers: usize) -> Result<Daemon, String> {
    let mut child = Command::new(bin)
        .args([
            "--listen",
            "127.0.0.1:0",
            "--lanes",
            "auto",
            "--workers",
            &workers.to_string(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    stdout
        .read_line(&mut line)
        .map_err(|e| format!("reading the daemon's address: {e}"))?;
    let addr = line.trim().strip_prefix("listening on ").map(str::to_owned);
    let daemon = Daemon {
        child,
        addr: addr.clone().unwrap_or_default(),
        _stdout: stdout,
    };
    match addr {
        Some(_) => Ok(daemon),
        None => Err(format!("unexpected daemon banner {line:?}")),
    }
}

/// Asks the daemon to drain and exit, and waits for it (killing it if
/// it has not exited within 20 s).
fn shutdown(mut d: Daemon, stream: &mut TcpStream) -> Result<(), String> {
    let _ = stream.write_all(b"{\"type\":\"shutdown\"}\n");
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match d.child.try_wait() {
            Ok(Some(_)) => return Ok(()),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            _ => return Err("daemon did not exit after shutdown".into()),
        }
    }
}

/// One cold start: daemon spawn to its first `pong`.
fn cold_start(bin: &Path, workers: usize) -> Result<f64, String> {
    let t0 = Instant::now();
    let d = spawn_daemon(bin, workers)?;
    let mut stream = TcpStream::connect(&d.addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .write_all(b"{\"type\":\"ping\"}\n")
        .map_err(|e| format!("ping: {e}"))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("pong: {e}"))?;
    let wall = t0.elapsed().as_secs_f64();
    if !line.contains("\"pong\"") {
        return Err(format!("expected pong, got {line:?}"));
    }
    shutdown(d, &mut stream)?;
    Ok(wall)
}

/// The ladder's latency limit fixed in `BENCHMARK.json`: the
/// `screen_service` workload's `why` states it as `p50 <= X s`.
fn latency_limit() -> Result<f64, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = rotsv_obs::json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let why = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .and_then(|ws| {
            ws.iter()
                .find(|w| w.get("name").and_then(Json::as_str) == Some("screen_service"))
        })
        .and_then(|w| w.get("why"))
        .and_then(Json::as_str)
        .ok_or("BENCHMARK.json has no screen_service workload")?;
    let rest = why
        .split("p50 <= ")
        .nth(1)
        .ok_or("screen_service why must state 'p50 <= X s'")?;
    rest.split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("cannot read the latency limit from {why:?}"))
}

/// Drives one open-loop phase on the live connection and waits until
/// every admitted job's verdicts are in. Returns the per-job records
/// and the generator's lateness per submit.
fn run_phase(
    writer: &TcpStream,
    rx: &Receiver<Received>,
    first_id: usize,
    schedule: &[(f64, Job)],
) -> Result<(Vec<Tracked>, Vec<f64>), String> {
    let mut jobs: Vec<Tracked> = schedule
        .iter()
        .map(|(_, j)| Tracked {
            expected: j.verdicts(),
            ..Tracked::default()
        })
        .collect();
    let start = Instant::now() + Duration::from_millis(20);
    let lines: Vec<(Instant, String)> = schedule
        .iter()
        .enumerate()
        .map(|(k, (due, job))| {
            (
                start + Duration::from_secs_f64(*due),
                job.submit_line(first_id + k),
            )
        })
        .collect();
    for (t, (due, _)) in jobs.iter_mut().zip(&lines) {
        t.due = Some(*due);
    }
    let end = start + Duration::from_secs_f64(schedule.last().map_or(0.0, |s| s.0));
    let mut w = writer.try_clone().map_err(|e| e.to_string())?;
    let (sent_tx, sent_rx) = mpsc::channel::<Instant>();
    let writer_thread = std::thread::spawn(move || -> Result<(), String> {
        for (due, line) in lines {
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            w.write_all(line.as_bytes())
                .and_then(|()| w.write_all(b"\n"))
                .map_err(|e| format!("submit: {e}"))?;
            let _ = sent_tx.send(sent);
        }
        Ok(())
    });
    let mut outstanding: usize = jobs.iter().map(|j| j.expected).sum();
    let mut done_pending = jobs.len();
    let deadline = end + DRAIN_TIMEOUT;
    while outstanding > 0 || done_pending > 0 {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        match rx.recv_timeout(deadline - now) {
            Ok(Received { at, doc }) => {
                let id = doc.get("id").and_then(Json::as_f64).unwrap_or(-1.0);
                if id < first_id as f64 || id >= (first_id + jobs.len()) as f64 {
                    continue;
                }
                let job = &mut jobs[id as usize - first_id];
                match doc.get("type").and_then(Json::as_str) {
                    Some("admitted") => job.admitted = Some(at),
                    Some("rejected") => {
                        job.rejected = true;
                        outstanding -= job.expected;
                        done_pending -= 1;
                    }
                    Some("verdict") => {
                        let num = |k: &str| doc.get(k).and_then(Json::as_f64);
                        job.verdicts.push((
                            at,
                            num("latency_s").unwrap_or(f64::NAN),
                            doc.get("status")
                                .and_then(Json::as_str)
                                .unwrap_or("?")
                                .to_owned(),
                            num("delta_t"),
                            num("die").unwrap_or(0.0) as usize,
                            num("vdd").unwrap_or(0.0),
                        ));
                        outstanding = outstanding.saturating_sub(1);
                    }
                    Some("done") => {
                        let manifest = doc.get("manifest");
                        job.stats = manifest.and_then(|m| m.get("solver_stats")).cloned();
                        job.dt_drag_p90 = manifest
                            .and_then(|m| m.get("metrics"))
                            .and_then(|m| m.get("histograms"))
                            .and_then(|h| h.get("mc.dt_drag"))
                            .and_then(|h| h.get("p90"))
                            .and_then(Json::as_f64);
                        done_pending -= 1;
                    }
                    _ => {}
                }
            }
            Err(RecvTimeoutError::Timeout) => break,
            Err(RecvTimeoutError::Disconnected) => {
                return Err("daemon closed the connection".into())
            }
        }
    }
    writer_thread
        .join()
        .map_err(|_| "writer thread panicked".to_string())??;
    let sends: Vec<Instant> = sent_rx.try_iter().collect();
    let mut lag = Vec::with_capacity(sends.len());
    for (job, sent) in jobs.iter_mut().zip(sends) {
        let due = job.due.expect("every job has a due time");
        lag.push(sent.saturating_duration_since(due).as_secs_f64());
        job.sent = Some(sent);
    }
    Ok((jobs, lag))
}

/// Verdict latencies from each job's due time; a rejected job or a
/// missing verdict counts as an infinite latency.
fn latencies(jobs: &[&Tracked]) -> Vec<f64> {
    let mut out = Vec::new();
    for j in jobs {
        let due = j.due.expect("due time set");
        for v in &j.verdicts {
            out.push(v.0.saturating_duration_since(due).as_secs_f64());
        }
        let missing = j.expected.saturating_sub(j.verdicts.len());
        out.extend(std::iter::repeat_n(f64::INFINITY, missing));
    }
    out
}

/// A rung's load index: the median due-to-verdict latency of its
/// verdicts (those that drain after the last arrival included) over the
/// limit. A backlog that grows during the rung delays every later
/// verdict from its due time, so it shows here; the rung passes at ≤ 1.
fn load_index(jobs: &[&Tracked], limit: f64) -> f64 {
    median(&latencies(jobs)) / limit
}

/// The ladder's sustainable rate: the load index made non-decreasing in
/// rate (pool-adjacent-violators, so one lucky or unlucky rung cannot
/// end the climb), then interpolated linearly between the last passing
/// rung and the first failing one (from zero load at zero rate when the
/// first rung fails).
fn interpolate(rungs: &[(f64, f64)]) -> f64 {
    // Blocks of (sum, count) whose means increase.
    let mut blocks: Vec<(f64, usize)> = Vec::new();
    for &(_, index) in rungs {
        blocks.push((index.min(1e6), 1));
        while blocks.len() > 1 {
            let (s1, n1) = blocks[blocks.len() - 1];
            let (s0, n0) = blocks[blocks.len() - 2];
            if s0 / n0 as f64 <= s1 / n1 as f64 {
                break;
            }
            blocks.pop();
            *blocks.last_mut().expect("two blocks") = (s0 + s1, n0 + n1);
        }
    }
    let fitted = blocks
        .iter()
        .flat_map(|&(s, n)| std::iter::repeat_n(s / n as f64, n));
    let mut prev = (0.0, 0.0);
    for (&(rate, _), index) in rungs.iter().zip(fitted) {
        if index > 1.0 {
            if !index.is_finite() {
                return prev.0;
            }
            let f = (1.0 - prev.1) / (index - prev.1);
            return prev.0 + f * (rate - prev.0);
        }
        prev = (rate, index);
    }
    prev.0
}

/// CPU seconds process `pid` has used, all threads (`utime + stime` of
/// `/proc/<pid>/stat`, at the kernel's 100 ticks per second).
fn cpu_seconds(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and
            // stime are the 14th and 15th fields of the line.
            let rest = s.rsplit_once(')')?.1;
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some((f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?) / 100.0)
        })
        .unwrap_or(0.0)
}

/// The counter `name` from a Prometheus exposition.
fn prom_counter(text: &str, name: &str) -> f64 {
    let key = format!("rotsv_{}", name.replace('.', "_"));
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let (k, v) = l.split_once(' ')?;
            (k == key).then(|| v.trim().parse().ok())?
        })
        .unwrap_or(0.0)
}

/// The per-layer metrics that only the service measures, at zero for a
/// library workload (which never enters the daemon).
pub fn idle_layer_metrics() -> Vec<Metric> {
    vec![
        Metric::new("server.verdict_p50_s", 0.0, "s"),
        Metric::new("server.verdict_p95_s", 0.0, "s"),
        Metric::new("server.max_rate_dps", 0.0, "1/s"),
        Metric::new("server.admit_p50_s", 0.0, "s"),
        Metric::new("server.queue_wait_p95_s", 0.0, "s"),
        Metric::new("server.engine_p95_s", 0.0, "s"),
        Metric::new("server.wire_p95_s", 0.0, "s"),
        Metric::new("server.dies_per_session", 0.0, "ratio"),
        Metric::new("server.rejected", 0.0, "count"),
        Metric::new("server.units_failed", 0.0, "count"),
    ]
}

/// Every job a session ran with its records, and the generator's
/// lateness per submit.
type Records = (Vec<(Job, Tracked)>, Vec<f64>);

/// The live daemon session: the connection, and the reader thread's
/// channel of timestamped responses.
struct Session {
    daemon: Daemon,
    stream: TcpStream,
    rx: Receiver<Received>,
    reader: std::thread::JoinHandle<()>,
    next_id: usize,
    /// Every job run so far, with its records, for the output checks.
    jobs: Vec<(Job, Tracked)>,
    /// Generator lateness of every submit.
    lag: Vec<f64>,
    /// Time spent inside open-loop phases.
    phase_s: f64,
}

impl Session {
    fn start(bin: &Path, workers: usize) -> Result<Self, String> {
        let daemon = spawn_daemon(bin, workers)?;
        let stream = TcpStream::connect(&daemon.addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let (tx, rx) = mpsc::channel::<Received>();
        let reader_stream = stream.try_clone().map_err(|e| e.to_string())?;
        let reader = std::thread::spawn(move || {
            let mut lines = BufReader::new(reader_stream);
            let mut line = String::new();
            loop {
                line.clear();
                match lines.read_line(&mut line) {
                    Ok(0) | Err(_) => return,
                    Ok(_) => {
                        let at = Instant::now();
                        if let Ok(doc) = rotsv_obs::json::parse(&line) {
                            if tx.send(Received { at, doc }).is_err() {
                                return;
                            }
                        }
                    }
                }
            }
        });
        Ok(Self {
            daemon,
            stream,
            rx,
            reader,
            next_id: 0,
            jobs: Vec::new(),
            lag: Vec::new(),
            phase_s: 0.0,
        })
    }

    /// Runs one open-loop phase and returns the index range of its jobs
    /// in `self.jobs`.
    fn phase(&mut self, schedule: Vec<(f64, Job)>) -> Result<std::ops::Range<usize>, String> {
        let t0 = Instant::now();
        let (tracked, lag) = run_phase(&self.stream, &self.rx, self.next_id, &schedule)?;
        self.phase_s += t0.elapsed().as_secs_f64();
        self.next_id += schedule.len();
        self.lag.extend(lag);
        let start = self.jobs.len();
        self.jobs
            .extend(schedule.into_iter().map(|(_, job)| job).zip(tracked));
        Ok(start..self.jobs.len())
    }

    fn tracked(&self, range: std::ops::Range<usize>) -> Vec<&Tracked> {
        self.jobs[range].iter().map(|(_, t)| t).collect()
    }

    /// The daemon's Prometheus exposition, scraped over the protocol.
    fn scrape(&mut self) -> Result<String, String> {
        self.stream
            .write_all(b"{\"type\":\"metrics\"}\n")
            .map_err(|e| format!("metrics: {e}"))?;
        loop {
            let r = self
                .rx
                .recv_timeout(Duration::from_secs(10))
                .map_err(|_| "no metrics response".to_string())?;
            if r.doc.get("type").and_then(Json::as_str) == Some("metrics") {
                return Ok(r
                    .doc
                    .get("text")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_owned());
            }
        }
    }

    /// Shuts the daemon down and joins the reader; returns the records.
    fn finish(mut self) -> Result<Records, String> {
        shutdown(self.daemon, &mut self.stream)?;
        drop(self.stream);
        self.reader
            .join()
            .map_err(|_| "reader thread panicked".to_string())?;
        Ok((self.jobs, self.lag))
    }
}

/// Output checks over every job run: each verdict present and classified
/// `ok` or `stuck`, and a seeded sample recomputed one die at a time
/// through `TestBench::measure_delta_t`. Returns (attempted, failed).
fn check_jobs(jobs: &[(Job, Tracked)], seed: u64) -> Result<(u64, u64), String> {
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for (_, t) in jobs {
        attempted += t.expected as u64;
        let bad = if t.rejected {
            t.expected
        } else {
            t.verdicts
                .iter()
                .filter(|v| v.2 != "ok" && v.2 != "stuck")
                .count()
                + t.expected.saturating_sub(t.verdicts.len())
        };
        if bad > 0 {
            eprintln!("check failed: a job has {bad} failed, rejected or missing verdicts");
        }
        failed += bad as u64;
    }
    let mut pick = GaussianRng::seed_from(seed ^ 0xC4EC);
    for _ in 0..CHECK_VERDICTS {
        let (job, t) = &jobs[pick.uniform(0.0, jobs.len() as f64) as usize];
        let Some(v) = t.verdicts.first() else {
            continue;
        };
        let die = Die::new(ProcessSpread::paper(), die_seed(job.seed, v.4));
        let m = TestBench::fast(job.n_segments)
            .measure_delta_t(v.5, &job.fault.faults(job.n_segments), &[0], &die)
            .map_err(|e| e.to_string())?;
        let ok = match (m.delta(), v.3) {
            (Some(want), Some(got)) => check::close(got, want),
            (None, None) => m.is_stuck() == (v.2 == "stuck"),
            _ => false,
        };
        if !ok {
            eprintln!(
                "check failed: verdict ΔT {:?} vs recomputed {:?}",
                v.3,
                m.delta()
            );
            failed += 1;
        }
    }
    Ok((attempted, failed))
}

/// Solver work summed from the `done` manifests of `jobs`.
fn solver_stats(jobs: &[&Tracked]) -> SolverStats {
    let mut stats = SolverStats::default();
    for s in jobs.iter().filter_map(|j| j.stats.as_ref()) {
        let c = |k: &str| s.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        stats.merge(&SolverStats {
            symbolic_analyses: c("symbolic_analyses") as u64,
            factorizations: c("factorizations") as u64,
            solves: c("solves") as u64,
            newton_iterations: c("newton_iterations") as u64,
            steps_accepted: c("steps_accepted") as u64,
            steps_rejected: c("steps_rejected") as u64,
            wall_seconds: c("wall_seconds"),
        });
    }
    stats
}

pub fn run(seed: u64, seconds: f64, trace: bool, bin: &Path) -> Result<(), String> {
    let limit = latency_limit()?;
    rotsv::mc::load_measured_tuning(Path::new("BENCH_solver.json"));
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut probes = vec![util::host_probe()];
    let mut colds = Vec::new();
    for _ in 0..COLD_STARTS {
        colds.push(cold_start(bin, workers)?);
    }

    let mut session = Session::start(bin, workers)?;
    let pid = session.daemon.child.id().to_string();
    let mut gen = JobStream::new(seed);
    let deck_jobs = gen.deck.len();
    let deck_verdicts = gen.mean_verdicts() * deck_jobs as f64;
    let t_run = Instant::now();
    let result = if trace {
        traced(&mut session, &mut gen, limit)?
    } else {
        // Capacity: a backlog of whole decks, all due at once, worked off;
        // its completion rate is timed from the due time to the last
        // verdict.
        let decks = (BACKLOG_PER_S * seconds / deck_verdicts).ceil() as usize;
        let schedule: Vec<(f64, Job)> = (0..decks * deck_jobs)
            .map(|_| (0.0, gen.next_job()))
            .collect();
        let t0 = Instant::now();
        let range = session.phase(schedule)?;
        let jobs = session.tracked(range);
        let done: usize = jobs.iter().map(|j| j.verdicts.len()).sum();
        let last = jobs
            .iter()
            .flat_map(|j| j.verdicts.iter().map(|v| v.0))
            .max()
            .unwrap_or(t0);
        let first_due = jobs.iter().filter_map(|j| j.due).min().unwrap_or(t0);
        let capacity = done as f64
            / last
                .saturating_duration_since(first_due)
                .as_secs_f64()
                .max(1e-9);
        println!(
            "capacity phase: {} jobs, {done} verdicts, {capacity:.3} verdicts/s",
            jobs.len()
        );
        vec![
            Metric::new("dies_per_s", capacity, "1/s"),
            Metric::new("setup_s", 0.0, "s"),
            Metric::new("peak_rss_mb", util::peak_rss_mb(&pid).unwrap_or(0.0), "MB"),
        ]
    };
    let measured_s = t_run.elapsed().as_secs_f64();
    let unattributed_s = measured_s - session.phase_s;
    let (jobs, lag) = session.finish()?;
    for _ in 0..COLD_STARTS {
        colds.push(cold_start(bin, workers)?);
    }
    probes.push(util::host_probe());
    let (attempted, failed) = check_jobs(&jobs, seed)?;

    let mut fp = util::fingerprint();
    fp.push(("workload".into(), Json::Str("screen_service".into())));
    fp.push(("daemon_workers".into(), Json::Num(workers as f64)));
    fp.push(("daemon_lanes".into(), Json::Str("auto".into())));
    println!("fingerprint {}", Json::Obj(fp).render());
    println!("measured {measured_s:.1} s; cold starts {colds:?}");

    let metrics: Vec<Metric> = result
        .into_iter()
        .map(|m| match m.name {
            "setup_s" => Metric::new("setup_s", median(&colds), "s"),
            "loadgen.lag_p95_s" => Metric::new(m.name, percentile(&lag, 0.95), m.unit),
            "host.probe_s" => Metric::new(m.name, median(&probes), m.unit),
            "trace.wall_s" => Metric::new(m.name, measured_s, m.unit),
            "trace.unattributed_s" => Metric::new(m.name, unattributed_s, m.unit),
            _ => m,
        })
        .collect();
    util::emit(failed == 0, attempted, failed, &metrics);
    Ok(())
}

/// The traced run: the nominal phase, the ladder, and a metrics scrape.
fn traced(session: &mut Session, gen: &mut JobStream, limit: f64) -> Result<Vec<Metric>, String> {
    let pid = session.daemon.child.id().to_string();
    let cpu0 = cpu_seconds(&pid);
    // Whole decks, so the nominal phase carries the exact mix, and enough
    // of them for ten verdicts beyond p95.
    let deck_jobs = gen.deck.len();
    let decks = (200.0 / (gen.mean_verdicts() * deck_jobs as f64)).ceil() as usize;
    let range = session.phase(gen.phase(NOMINAL_RATE, decks * deck_jobs))?;
    let nominal: Vec<&Tracked> = session.tracked(range.clone());
    let lat = latencies(&nominal);
    // The nominal phase is the ladder's first rung.
    let mut rungs = vec![(NOMINAL_RATE, median(&lat) / limit)];
    for rate in LADDER {
        let count = (rate * RUNG_S / gen.mean_verdicts()).round() as usize;
        let r = session.phase(gen.phase(rate, count))?;
        let index = load_index(&session.tracked(r), limit);
        println!("rung {rate:>5.1}/s: load index {index:.3}");
        rungs.push((rate, index));
        // Climb until the load is clearly unsustainable: two failing
        // rungs in a row, or one at twice the limit.
        let failing = rungs.iter().rev().take_while(|r| r.1 > 1.0).count();
        if failing >= 2 || index > 2.0 {
            break;
        }
    }
    let scrape = session.scrape()?;
    let engine_cpu = cpu_seconds(&pid) - cpu0;
    let nominal: Vec<&Tracked> = session.tracked(range);

    let mut admit = Vec::new();
    let mut queue_wait = Vec::new();
    let mut engine = Vec::new();
    let mut wire = Vec::new();
    for j in &nominal {
        let (Some(sent), Some(admitted)) = (j.sent, j.admitted) else {
            continue;
        };
        admit.push(admitted.saturating_duration_since(sent).as_secs_f64());
        if let Some(first) = j.verdicts.iter().map(|v| v.0).min() {
            queue_wait.push(first.saturating_duration_since(admitted).as_secs_f64());
        }
        for v in &j.verdicts {
            engine.push(v.1);
            wire.push(v.0.saturating_duration_since(sent).as_secs_f64() - v.1);
        }
    }
    // Exact counts from the nominal phase (its job list is fixed by the
    // seed); host time is the daemon's CPU time over every job it ran.
    let stats = solver_stats(&nominal);
    let all: Vec<&Tracked> = session.jobs.iter().map(|(_, t)| t).collect();
    let newton_all = solver_stats(&all).newton_iterations;
    let drag = all.iter().rev().find_map(|j| j.dt_drag_p90).unwrap_or(0.0);
    let steps = stats.steps_accepted + stats.steps_rejected;
    let lu_s = prom_counter(&scrape, "lu.numeric_sum");
    let occupancy = prom_counter(&scrape, "mc.batch_occupancy_sum")
        / prom_counter(&scrape, "mc.batch_occupancy_count").max(1.0);
    let sessions = prom_counter(&scrape, "server.engine_sessions");
    let lanes = rotsv::mc::auto_lane_table()
        .iter()
        .map(|r| r.1)
        .max()
        .unwrap_or(16);
    println!(
        "nominal phase: {} jobs, {} verdicts at {NOMINAL_RATE}/s; ladder {rungs:?}; limit p50 <= {limit} s",
        nominal.len(),
        lat.len()
    );
    Ok(vec![
        Metric::new("core.population_s", 0.0, "s"),
        Metric::new("core.calls", 0.0, "count"),
        Metric::new("core.sched_s", 0.0, "s"),
        Metric::new("core.lanes", lanes as f64, "count"),
        Metric::new("ro.measure_s", engine_cpu, "s"),
        Metric::new(
            "spice.us_per_newton",
            engine_cpu / newton_all.max(1) as f64 * 1e6,
            "us",
        ),
        Metric::new("spice.lane_occupancy", occupancy, "ratio"),
        Metric::new("spice.dt_drag_p90", drag, "ratio"),
        Metric::new("spice.steps", stats.steps_accepted as f64, "count"),
        Metric::new("spice.steps_rejected", stats.steps_rejected as f64, "count"),
        Metric::new(
            "spice.step_accept_ratio",
            stats.steps_accepted as f64 / steps.max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "spice.newton_iters",
            stats.newton_iterations as f64,
            "count",
        ),
        Metric::new(
            "spice.newton_per_step",
            stats.newton_iterations as f64 / stats.steps_accepted.max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "num.symbolic_analyses",
            stats.symbolic_analyses as f64,
            "count",
        ),
        Metric::new("num.factorizations", stats.factorizations as f64, "count"),
        Metric::new("num.lu_numeric_s", lu_s, "s"),
        Metric::new(
            "num.lu_share",
            lu_s / engine_cpu.max(f64::MIN_POSITIVE),
            "ratio",
        ),
        Metric::new("server.verdict_p50_s", median(&lat), "s"),
        Metric::new("server.verdict_p95_s", percentile(&lat, 0.95), "s"),
        Metric::new("server.max_rate_dps", interpolate(&rungs), "1/s"),
        Metric::new("server.admit_p50_s", median(&admit), "s"),
        Metric::new(
            "server.queue_wait_p95_s",
            percentile(&queue_wait, 0.95),
            "s",
        ),
        Metric::new("server.engine_p95_s", percentile(&engine, 0.95), "s"),
        Metric::new("server.wire_p95_s", percentile(&wire, 0.95), "s"),
        Metric::new(
            "server.dies_per_session",
            prom_counter(&scrape, "server.dies_completed") / sessions.max(1.0),
            "ratio",
        ),
        Metric::new(
            "server.rejected",
            prom_counter(&scrape, "server.jobs_rejected"),
            "count",
        ),
        Metric::new(
            "server.units_failed",
            prom_counter(&scrape, "server.units_failed"),
            "count",
        ),
        Metric::new("obs.trace_overhead", 0.0, "ratio"),
        Metric::new("trace.wall_s", 0.0, "s"),
        Metric::new("trace.unattributed_s", 0.0, "s"),
        Metric::new("loadgen.lag_p95_s", 0.0, "s"),
        Metric::new("host.probe_s", 0.0, "s"),
    ])
}
