//! The serving workload: an in-process `gnna-serve` daemon at paper scale
//! driven over loopback HTTP by an open-loop client with seeded Poisson
//! arrivals, every response checked.

use crate::check;
use crate::spans::Spans;
use crate::stats::{mean, median, quantile, Rng};
use crate::{Metrics, Options, Outcome};
use gnna_bench::{Scale, MODEL_SEED};
use gnna_core::layers::{compile_gcn, compile_mpnn};
use gnna_graph::{datasets, Dataset};
use gnna_models::{Gcn, GcnNorm, Mpnn};
use gnna_serve::http::read_response;
use gnna_serve::loadgen::shutdown_and_join;
use gnna_serve::protocol::push_rows;
use gnna_serve::server::{serve, ServeConfig, ServerHandle};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The dataset seed the daemon builds its named inputs with.
const SERVER_DATASET_SEED: u64 = 42;
/// Length of the untimed warm-up load, seconds.
const WARM_UP_S: f64 = 3.0;
/// Mixed into the workload seed for the warm-up schedule.
const WARM_UP_SEED: u64 = 0xa5a5;

/// The serving workload's settings.
#[derive(Debug, Clone, Copy)]
pub struct ServeWorkload {
    /// Nominal arrival rate, requests per second: ~27% of the rate the
    /// mix saturates at on `conns` connections, low enough that queueing
    /// does not amplify host speed drift, high enough for 1000 requests
    /// in a 30 s run.
    pub rate_rps: f64,
    /// Keep-alive client connections.
    pub conns: usize,
    /// Latency limit a good response meets, ms.
    pub limit_ms: f64,
    /// Share of MPNN:QM9_1000 cycle-mode requests.
    pub cycle_share: f64,
    /// Share of MPNN:QM9_1000 functional-mode requests (the rest are
    /// GCN:Cora functional).
    pub func_share: f64,
    /// Dataset scale of the daemon's named inputs.
    pub scale: Scale,
    /// Largest error of a cycle-mode answer that passes, relative to the
    /// largest reference magnitude in its row.
    pub tolerance: f64,
}

impl ServeWorkload {
    /// The workload at paper scale, or small for tests.
    pub fn new(short: bool) -> Self {
        ServeWorkload {
            rate_rps: if short { 40.0 } else { 34.0 },
            conns: 2,
            limit_ms: 100.0,
            cycle_share: 0.6,
            func_share: 0.3,
            scale: if short { Scale::Smoke } else { Scale::Paper },
            tolerance: 1e-3,
        }
    }
}

/// What a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// MPNN:QM9_1000 molecule `k`, cycle mode.
    Cycle(usize),
    /// MPNN:QM9_1000 molecule `k`, functional mode.
    Func(usize),
    /// GCN:Cora, functional mode.
    Cora,
}

/// One scheduled request.
struct Request {
    kind: Kind,
    /// Due time, seconds after the load starts.
    due: f64,
    /// The whole HTTP request, written with one call.
    bytes: Vec<u8>,
}

/// Telemetry fields a response reports, in [`Sample::telemetry`] order.
const TELEMETRY: [&str; 6] = [
    "queue_us",
    "coalesce_us",
    "simulate_us",
    "respond_us",
    "batch_size",
    "total_cycles",
];

/// What the client keeps of one request: timings, the check's verdict and
/// the reported telemetry, but not the body.
struct Sample {
    index: usize,
    sent: f64,
    done: f64,
    status: u16,
    check: Result<(), String>,
    span_id: Option<String>,
    telemetry: [Option<f64>; TELEMETRY.len()],
}

impl Sample {
    fn get(&self, key: &str) -> Option<f64> {
        TELEMETRY
            .iter()
            .position(|k| *k == key)
            .and_then(|i| self.telemetry[i])
    }
}

/// The benchmark's own reference answers, built with the same public
/// calls the daemon's case builder makes.
struct Expected {
    /// Serialized rows per QM9 molecule.
    qm9_rows: Vec<String>,
    /// Reference rows per QM9 molecule.
    qm9_ref: Vec<Vec<f32>>,
    /// Serialized rows of the whole Cora answer.
    cora_rows: String,
}

fn datasets_for(scale: Scale) -> Result<(Dataset, Dataset), String> {
    let s = SERVER_DATASET_SEED;
    let (qm9, cora) = match scale {
        Scale::Paper => (datasets::qm9_1000(s), datasets::cora(s)),
        Scale::Smoke => (
            datasets::qm9_scaled(20, s),
            datasets::cora_scaled(120, 64, 7, s),
        ),
    };
    Ok((
        qm9.map_err(|e| e.to_string())?,
        cora.map_err(|e| e.to_string())?,
    ))
}

fn expected(scale: Scale, spans: &mut Spans) -> Result<Expected, String> {
    let root = spans.open("setup", None);
    let parent = Some(root.id().to_string());
    let parent = parent.as_deref();
    let s = spans.open("graph.generate", parent);
    let (qm9, cora) = datasets_for(scale)?;
    spans.close(s);
    let s = spans.open("models.reference", parent);
    let mpnn = Mpnn::for_dataset_gilmer(
        qm9.vertex_features(),
        qm9.edge_features(),
        64,
        qm9.output_features,
        3,
        MODEL_SEED,
    )
    .map_err(|e| e.to_string())?;
    let q = mpnn
        .forward_dataset(&qm9.instances)
        .map_err(|e| e.to_string())?;
    let gcn = Gcn::for_dataset(cora.vertex_features(), 16, cora.output_features, MODEL_SEED)
        .map_err(|e| e.to_string())?
        .with_norm(GcnNorm::Mean);
    let inst = &cora.instances[0];
    let c = gcn
        .forward(&inst.graph, &inst.x)
        .map_err(|e| e.to_string())?;
    spans.close(s);
    let s = spans.open("core.compile", parent);
    compile_mpnn(&mpnn).map_err(|e| e.to_string())?;
    compile_gcn(&gcn).map_err(|e| e.to_string())?;
    spans.close(s);
    spans.close(root);
    let qm9_ref: Vec<Vec<f32>> = (0..q.rows()).map(|i| q.row(i).to_vec()).collect();
    let qm9_rows = qm9_ref
        .iter()
        .map(|r| {
            let mut s = String::new();
            push_rows(&mut s, std::slice::from_ref(r));
            s
        })
        .collect();
    let cora_ref: Vec<Vec<f32>> = (0..c.rows()).map(|i| c.row(i).to_vec()).collect();
    let mut cora_rows = String::new();
    push_rows(&mut cora_rows, &cora_ref);
    Ok(Expected {
        qm9_rows,
        qm9_ref,
        cora_rows,
    })
}

fn http_request(id: &str, kind: Kind) -> Vec<u8> {
    let body = match kind {
        Kind::Cycle(k) => format!(
            "{{\"id\":\"{id}\",\"model\":\"mpnn\",\"input\":\"qm9\",\"instance\":{k},\"mode\":\"cycle\"}}"
        ),
        Kind::Func(k) => format!(
            "{{\"id\":\"{id}\",\"model\":\"mpnn\",\"input\":\"qm9\",\"instance\":{k},\"mode\":\"functional\"}}"
        ),
        Kind::Cora => format!(
            "{{\"id\":\"{id}\",\"model\":\"gcn\",\"input\":\"cora\",\"mode\":\"functional\"}}"
        ),
    };
    format!(
        "POST /v1/infer HTTP/1.1\r\nHost: gnna-serve\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The seeded open-loop schedule: `rate × seconds` Poisson arrivals in
/// `[0, seconds)` (exponential gaps scaled to the window, so every seed
/// offers the same load), the mix's exact shares shuffled over them, and
/// a random molecule per QM9 request.
fn schedule(
    w: &ServeWorkload,
    seed: u64,
    rate: f64,
    seconds: f64,
    molecules: usize,
) -> Vec<Request> {
    let mut rng = Rng::new(seed ^ 0x5e57_e000_0000_0000);
    let n = (rate * seconds).round().max(1.0) as usize;
    let mut due: Vec<f64> = (0..=n)
        .scan(0.0, |t, _| {
            *t += rng.exp(rate);
            Some(*t)
        })
        .collect();
    let window = due[n] / seconds;
    due.truncate(n);
    let cycles = (w.cycle_share * n as f64).round() as usize;
    let funcs = (w.func_share * n as f64).round() as usize;
    let mut kinds: Vec<u8> = (0..n)
        .map(|i| u8::from(i >= cycles) + u8::from(i >= cycles + funcs))
        .collect();
    for i in (1..n).rev() {
        kinds.swap(i, rng.below(i + 1));
    }
    due.into_iter()
        .zip(kinds)
        .enumerate()
        .map(|(i, (t, kind))| {
            let k = rng.below(molecules);
            let kind = match kind {
                0 => Kind::Cycle(k),
                1 => Kind::Func(k),
                _ => Kind::Cora,
            };
            Request {
                kind,
                due: t / window,
                bytes: http_request(&format!("r{i}"), kind),
            }
        })
        .collect()
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        // Small requests go out at once, as curl sends them.
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { stream, reader })
    }

    fn roundtrip(&mut self, bytes: &[u8]) -> std::io::Result<(u16, String)> {
        self.stream.write_all(bytes)?;
        let resp = read_response(&mut self.reader)?.ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "connection closed")
        })?;
        Ok((resp.status, resp.body))
    }
}

/// Sends the schedule over `conns` keep-alive connections: each request
/// takes the next free connection at or after its due time.
fn drive(
    w: &ServeWorkload,
    addr: SocketAddr,
    reqs: &[Request],
    exp: &Expected,
) -> (Instant, Vec<Sample>) {
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(5);
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..w.conns)
            .map(|_| {
                scope.spawn(|| {
                    let mut got = Vec::new();
                    let mut client = Client::connect(addr);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = reqs.get(i) else { break };
                        let due = start + Duration::from_secs_f64(req.due);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = start.elapsed().as_secs_f64();
                        let result = match &mut client {
                            Ok(c) => c.roundtrip(&req.bytes),
                            Err(e) => Err(std::io::Error::new(e.kind(), e.to_string())),
                        };
                        let done = start.elapsed().as_secs_f64();
                        let (status, body) = result.unwrap_or_else(|e| {
                            client = Client::connect(addr);
                            (0, e.to_string())
                        });
                        got.push(Sample {
                            index: i,
                            sent,
                            done,
                            status,
                            check: check_response(w, req.kind, i, status, &body, exp),
                            span_id: span_id(&body),
                            telemetry: TELEMETRY.map(|k| field(&body, k)),
                        });
                    }
                    got
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    samples.sort_by_key(|s| s.index);
    (start, samples)
}

/// A numeric field of a response body (`"key":123`).
fn field(body: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = body.rfind(&pat)? + pat.len();
    let rest = &body[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// The daemon's `span_id` for a response.
fn span_id(body: &str) -> Option<String> {
    let pat = "\"span_id\":\"";
    let rest = &body[body.rfind(pat)? + pat.len()..];
    Some(rest[..rest.find('"')?].to_string())
}

/// Checks one response against the reference answers.
fn check_response(
    w: &ServeWorkload,
    kind: Kind,
    index: usize,
    status: u16,
    body: &str,
    exp: &Expected,
) -> Result<(), String> {
    if status != 200 {
        return Err(format!(
            "status {status}: {}",
            body.chars().take(200).collect::<String>()
        ));
    }
    if !body.starts_with(&format!("{{\"id\":\"r{index}\",")) {
        return Err("response id does not match the request".into());
    }
    match kind {
        Kind::Func(k) => check::rows_bytes(body, &exp.qm9_rows[k]),
        Kind::Cora => check::rows_bytes(body, &exp.cora_rows),
        Kind::Cycle(k) => {
            if !body.contains("\"mode\":\"cycle\"") {
                return Err("cycle request answered in another mode".into());
            }
            let rows = check::parse_rows(body).ok_or("unparsable rows")?;
            check::grade_scaled(std::slice::from_ref(&exp.qm9_ref[k]), &rows, w.tolerance)
        }
    }
}

/// A running daemon and what starting it cost.
struct Daemon {
    handle: ServerHandle,
    setup_s: f64,
    case_build_s: f64,
}

/// Starts the daemon and sends one warm-up request per key, so every
/// case is built before the load starts.
fn start_daemon(w: &ServeWorkload) -> Result<Daemon, String> {
    let t0 = Instant::now();
    let instances = std::thread::available_parallelism().map_or(1, |n| n.get());
    let handle = serve(ServeConfig {
        addr: "127.0.0.1:0".into(),
        instances,
        scale: w.scale,
        ..ServeConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let mut client = Client::connect(handle.addr()).map_err(|e| e.to_string())?;
    let mut case_build_s = 0.0;
    for (i, kind) in [Kind::Cycle(0), Kind::Func(0), Kind::Cora]
        .into_iter()
        .enumerate()
    {
        let t = Instant::now();
        let (status, body) = client
            .roundtrip(&http_request(&format!("warm{i}"), kind))
            .map_err(|e| e.to_string())?;
        if status != 200 {
            return Err(format!("warm-up request failed with {status}: {body}"));
        }
        // The first request for a (model, input) pair builds its case.
        if kind != Kind::Func(0) {
            case_build_s += t.elapsed().as_secs_f64();
        }
    }
    drop(client);
    Ok(Daemon {
        handle,
        setup_s: t0.elapsed().as_secs_f64(),
        case_build_s,
    })
}

/// Latencies in ms from due time, grouped.
struct Latencies {
    all: Vec<f64>,
    func: Vec<f64>,
    cycle: Vec<f64>,
}

fn latencies(phase: &Phase) -> Latencies {
    let reqs = &phase.reqs;
    let mut l = Latencies {
        all: Vec::new(),
        func: Vec::new(),
        cycle: Vec::new(),
    };
    for s in &phase.samples {
        let ms = 1e3 * (s.done - reqs[s.index].due);
        l.all.push(ms);
        match reqs[s.index].kind {
            Kind::Cycle(_) => l.cycle.push(ms),
            Kind::Func(_) => l.func.push(ms),
            // Cora's large bodies count in the all-request percentiles.
            Kind::Cora => {}
        }
    }
    l
}

/// One load phase.
struct Phase {
    start: Instant,
    reqs: Vec<Request>,
    samples: Vec<Sample>,
}

/// One load phase at `rate` for `seconds`: schedule, drive, check.
fn load(
    w: &ServeWorkload,
    addr: SocketAddr,
    seed: u64,
    rate: f64,
    seconds: f64,
    exp: &Expected,
    out: &mut Outcome,
) -> Phase {
    let reqs = schedule(w, seed, rate, seconds, exp.qm9_ref.len());
    let (start, samples) = drive(w, addr, &reqs, exp);
    for s in &samples {
        out.record(&format!("request r{}", s.index), s.check.clone());
    }
    Phase {
        start,
        reqs,
        samples,
    }
}

/// Runs the serving workload and returns its outcome.
///
/// # Errors
///
/// Daemon start-up or warm-up failures.
pub fn run(w: &ServeWorkload, opts: &Options) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut spans = Spans::new();
    let daemon = start_daemon(w)?;
    // Built after the daemon's own cases, so the peak always holds both.
    let exp = expected(w.scale, &mut spans)?;
    let addr = daemon.handle.addr();
    // Untimed warm-up at saturation: a fresh daemon's jobs run slower
    // until its allocator reaches steady state.
    load(
        w,
        addr,
        opts.seed ^ WARM_UP_SEED,
        4.0 * w.rate_rps,
        WARM_UP_S,
        &exp,
        &mut out,
    );
    let phase = load(w, addr, opts.seed, w.rate_rps, opts.seconds, &exp, &mut out);
    let lat = latencies(&phase);
    let span = phase.samples.iter().map(|s| s.done).fold(0.0, f64::max);
    eprintln!(
        "gnna-perfbench: {} requests answered in {span:.2} s ({:.1} req/s)",
        phase.samples.len(),
        phase.samples.len() as f64 / span
    );
    let mut m = Metrics::new();
    if opts.trace {
        // A second, traced phase on the same schedule: request spans with
        // the daemon's four stages and the unaccounted rest as children.
        let traced = load(w, addr, opts.seed, w.rate_rps, opts.seconds, &exp, &mut out);
        per_layer(&mut m, &mut spans, &traced);
        let tlat = latencies(&traced);
        m.set("serve.p50_ms", median(&tlat.all));
        m.set("serve.func_p50_ms", median(&tlat.func));
        m.set("serve.p99_ms", quantile(&tlat.all, 0.99));
        m.set("serve.case_build_s", daemon.case_build_s);
        m.set(
            "serve.max_rps",
            max_rps(w, addr, opts.seed, opts.seconds / 8.0, &exp, &mut out),
        );
        m.set(
            "trace.overhead_frac",
            median(&tlat.all) / median(&lat.all) - 1.0,
        );
        let last = |name: &str| spans.self_times(name).last().copied().unwrap_or(0.0);
        m.set("graph.generate_s", last("graph.generate"));
        m.set("models.reference_s", last("models.reference"));
        m.set("core.compile_s", last("core.compile"));
    } else {
        let good = phase
            .samples
            .iter()
            .zip(&lat.all)
            .filter(|&(s, &ms)| s.check.is_ok() && ms <= w.limit_ms)
            .count();
        let cycle_field = |key: &str, scale: f64| -> Vec<f64> {
            phase
                .samples
                .iter()
                .filter(|s| matches!(phase.reqs[s.index].kind, Kind::Cycle(_)))
                .filter_map(|s| s.get(key))
                .map(|v| v * scale)
                .collect()
        };
        m.set("sim_wall_s", median(&cycle_field("simulate_us", 1e-6)));
        m.set("sim_cycles", median(&cycle_field("total_cycles", 1.0)));
        m.set("cycle_p50_ms", median(&lat.cycle));
        // Per second of the phase as it ran, from its start to the last
        // answer, so a server that falls behind loses goodput.
        m.set("goodput_rps", good as f64 / span);
    }
    shutdown_and_join(daemon.handle);
    if !opts.trace {
        // Peak memory covers one daemon; the further set-ups only time
        // `setup_s`.
        m.set("peak_rss_mb", crate::stats::peak_rss_mb());
        let mut setup_s = vec![daemon.setup_s];
        while crate::more_setups(&setup_s) {
            let d = start_daemon(w)?;
            setup_s.push(d.setup_s);
            shutdown_and_join(d.handle);
        }
        m.set("setup_s", median(&setup_s));
    }
    out.metrics = m;
    out.spans = Some(spans);
    Ok(out)
}

/// Records one span per request (id = the daemon's `span_id`) with the
/// four reported stages and the unaccounted rest as children, and fills
/// the per-stage metrics from them.
fn per_layer(m: &mut Metrics, spans: &mut Spans, phase: &Phase) {
    let base = spans.ns(phase.start);
    let ns = |secs: f64| base + (secs * 1e9) as u64;
    let stages = ["queue", "coalesce", "simulate", "respond"];
    let mut batch = Vec::new();
    let mut gen_late = Vec::new();
    let mut rejected = 0u64;
    for s in &phase.samples {
        gen_late.push(1e3 * (s.sent - phase.reqs[s.index].due).max(0.0));
        if s.status == 429 {
            rejected += 1;
        }
        let Some(span_id) = &s.span_id else {
            continue;
        };
        let (start, end) = (ns(s.sent), ns(s.done));
        spans.record(span_id, "serve.request", None, start, end);
        let mut t = start;
        for stage in stages {
            let d = (s.get(&format!("{stage}_us")).unwrap_or(0.0) * 1e3) as u64;
            let id = format!("{span_id}/{stage}");
            spans.record(&id, &format!("serve.{stage}"), Some(span_id), t, t + d);
            t += d;
        }
        let rest_ns = (spans.self_time_of(span_id) * 1e9) as u64;
        let id = format!("{span_id}/unaccounted");
        spans.record(&id, "serve.unaccounted", Some(span_id), end - rest_ns, end);
        if let Some(b) = s.get("batch_size") {
            batch.push(b);
        }
    }
    for stage in stages.iter().chain(&["unaccounted"]) {
        let ms: Vec<f64> = spans
            .self_times(&format!("serve.{stage}"))
            .iter()
            .map(|s| s * 1e3)
            .collect();
        m.set(&format!("serve.{stage}_ms_p50"), median(&ms));
        m.set(&format!("serve.{stage}_ms_p99"), quantile(&ms, 0.99));
    }
    m.set("serve.batch_size_mean", mean(&batch));
    m.set("serve.rejected_429", rejected as f64);
    m.set("serve.gen_late_ms_p99", quantile(&gen_late, 0.99));
}

/// Highest of a few rates, from the nominal one up, whose short load
/// phase answers every request correctly with its p99 within the limit.
/// Refusals there only end the search; any other failure counts.
fn max_rps(
    w: &ServeWorkload,
    addr: SocketAddr,
    seed: u64,
    seconds: f64,
    exp: &Expected,
    out: &mut Outcome,
) -> f64 {
    let mut best = 0.0;
    for factor in [1.0, 1.25, 1.5, 1.75, 2.0] {
        let rate = w.rate_rps * factor;
        let mut probe = Outcome::default();
        let phase = load(w, addr, seed, rate, seconds, exp, &mut probe);
        let refused = phase.samples.iter().filter(|s| s.status == 429).count() as u64;
        out.attempted += probe.attempted - refused;
        out.failed += probe.failed - refused;
        out.errors.extend(
            probe
                .errors
                .into_iter()
                .filter(|e| !e.contains("status 429")),
        );
        if probe.failed > 0 || quantile(&latencies(&phase).all, 0.99) > w.limit_ms {
            break;
        }
        best = rate;
    }
    best
}
