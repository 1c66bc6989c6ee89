//! `gnna-serve` — batched multi-tenant GNN inference daemon.
//!
//! ```console
//! $ gnna-serve --smoke --addr 127.0.0.1:7878 &
//! $ curl -s localhost:7878/healthz
//! $ curl -s -d '{"model":"gcn","input":"cora","mode":"cycle"}' localhost:7878/v1/infer
//! $ curl -s localhost:7878/stats
//! $ curl -s -X POST localhost:7878/shutdown
//! ```
//!
//! `--load` switches to the perf-baseline harness: boot an in-process
//! daemon, drive the fixed-seed load schedule batched and unbatched,
//! verify functional bit-identity, and write
//! `BENCH_serve_baseline.json`.

use gnna_bench::cli::{self, Cli, Stop};
use gnna_bench::Scale;
use gnna_serve::loadgen::{run_baseline, run_soak, BaselineOptions, SoakOptions};
use gnna_serve::queue::parse_quota_flag;
use gnna_serve::server::{serve, ServeConfig};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
usage: gnna-serve [options]
  --addr HOST:PORT               bind address (default 127.0.0.1:7878)
  --instances N                  accelerator instances / batch queues
                                 (default 4)
  --max-batch N                  largest coalesced batch (default 16;
                                 1 disables batching)
  --flush-us N                   bounded-latency flush window in
                                 microseconds (default 1000)
  --queue-cap N                  per-instance queue bound; a full queue
                                 answers 429 + Retry-After (default 256)
  --threads N                    shared executor budget for response
                                 assembly (default 1)
  --read-timeout-ms N            per-connection read timeout; an idle
                                 connection is closed after N ms
                                 (default 5000; 0 disables)
  --trace-out PATH               record request/batch spans and write
                                 Chrome trace JSON here on drain
                                 (open in ui.perfetto.dev)
  --tenant-quota [T=]RATE[:BURST[:WEIGHT]]
                                 admission quota: RATE jobs/s with BURST
                                 allowance and DRR WEIGHT for tenant T
                                 (no T= sets the default bucket; RATE 0
                                 = unlimited; repeatable)
  --max-conns N                  live-connection limit; past it new
                                 connections get an immediate 503
                                 (default 0 = unlimited)
  --degrade-watermark N          answer cycle-mode jobs in functional
                                 mode (flagged degraded) when a queue's
                                 backlog is at or past N
                                 (default 0 = off)
  --config cpu-iso-bw|gpu-iso-bw|gpu-iso-flops
                                 Table VI configuration (default gpu-iso-bw)
  --smoke                        scaled-down datasets (CI-speed)
  --load                         run the fixed-seed perf baseline
                                 instead of serving
  --load-jobs N                  baseline jobs per phase (default 64)
  --load-concurrency N           baseline client connections (default 64)
  --min-speedup X                fail the baseline when batched/unbatched
                                 throughput is below X (default 2.0)
  --baseline-out PATH            baseline JSON path
                                 (default BENCH_serve_baseline.json)
  --soak-secs N                  run the sustained mixed-tenant soak for
                                 N seconds instead of serving
  --soak-out PATH                soak JSON path
                                 (default BENCH_serve_soak.json)
  --soak-light-rate X            light tenant arrival rate, jobs/s
                                 (default 8)
  --soak-flood-rate X            flooding tenant attempted rate, jobs/s
                                 (default 60; its quota stays 20/s)
  --soak-max-fairness X          fail when the light tenant's p99 under
                                 flood exceeds X times its isolated p99
                                 (default 2.0)
  --soak-max-rss-growth X        fail when the late-run RSS ceiling
                                 exceeds X times the early-run ceiling
                                 (default 1.25)
  --version                      print the workspace version
  --help                         this message";

struct Args {
    cfg: ServeConfig,
    load: bool,
    load_jobs: usize,
    load_concurrency: usize,
    min_speedup: f64,
    baseline_out: String,
    soak_secs: Option<u64>,
    soak: SoakOptions,
    soak_out: String,
}

fn parse_args(cli: &mut Cli) -> Result<Args, Stop> {
    let mut a = Args {
        cfg: ServeConfig {
            addr: "127.0.0.1:7878".to_string(),
            scale: Scale::Paper,
            ..ServeConfig::default()
        },
        load: false,
        load_jobs: 64,
        load_concurrency: 64,
        min_speedup: 2.0,
        baseline_out: "BENCH_serve_baseline.json".to_string(),
        soak_secs: None,
        soak: SoakOptions::default(),
        soak_out: "BENCH_serve_soak.json".to_string(),
    };
    let cfg = &mut a.cfg;
    while let Some(flag) = cli.next_flag()? {
        match flag.as_str() {
            "--addr" => cfg.addr = cli.value(&flag)?,
            "--instances" => cfg.instances = cli.positive(&flag)?,
            "--max-batch" => cfg.max_batch = cli.positive(&flag)?,
            "--flush-us" => cfg.flush = Duration::from_micros(cli.parse(&flag)?),
            "--queue-cap" => cfg.queue_cap = cli.positive(&flag)?,
            "--threads" => cfg.threads = cli.parse(&flag)?,
            "--read-timeout-ms" => cfg.read_timeout = Duration::from_millis(cli.parse(&flag)?),
            "--trace-out" => cfg.trace_out = Some(cli.value(&flag)?),
            "--config" => cfg.accel = cli::config(&cli.value(&flag)?)?,
            "--smoke" => cfg.scale = Scale::Smoke,
            "--load" => a.load = true,
            "--load-jobs" => a.load_jobs = cli.parse(&flag)?,
            "--load-concurrency" => a.load_concurrency = cli.parse(&flag)?,
            "--min-speedup" => a.min_speedup = cli.parse(&flag)?,
            "--baseline-out" => a.baseline_out = cli.value(&flag)?,
            "--tenant-quota" => match parse_quota_flag(&cli.value(&flag)?)? {
                (Some(t), spec) => cfg.policy.tenants.push((t, spec)),
                (None, spec) => cfg.policy.default_spec = spec,
            },
            "--max-conns" => cfg.max_conns = cli.parse(&flag)?,
            "--degrade-watermark" => cfg.degrade_watermark = cli.parse(&flag)?,
            "--soak-secs" => a.soak_secs = Some(cli.positive(&flag)?),
            "--soak-out" => a.soak_out = cli.value(&flag)?,
            "--soak-light-rate" => a.soak.light_rate = cli.parse(&flag)?,
            "--soak-flood-rate" => a.soak.flood_rate = cli.parse(&flag)?,
            "--soak-max-fairness" => a.soak.max_fairness = cli.parse(&flag)?,
            "--soak-max-rss-growth" => a.soak.max_rss_growth = cli.parse(&flag)?,
            _ => return Err(cli::unknown(&flag)),
        }
    }
    Ok(a)
}

fn run(args: Args) -> Result<(), String> {
    if let Some(secs) = args.soak_secs {
        let opts = &SoakOptions {
            secs,
            accel: args.cfg.accel.clone(),
            scale: args.cfg.scale,
            ..args.soak
        };
        eprintln!(
            "gnna-serve: soak — {} s mixed-tenant (light {}/s + flood {}/s under a {}/s quota)",
            opts.secs, opts.light_rate, opts.flood_rate, opts.flood_quota
        );
        let doc = run_soak(opts)?;
        std::fs::write(&args.soak_out, format!("{doc}\n")).map_err(|e| e.to_string())?;
        eprintln!("gnna-serve: wrote {}", args.soak_out);
        println!("{doc}");
        return Ok(());
    }
    if args.load {
        let opts = BaselineOptions {
            jobs: args.load_jobs,
            concurrency: args.load_concurrency,
            instances: args.cfg.instances,
            max_batch: args.cfg.max_batch,
            accel: args.cfg.accel.clone(),
            scale: args.cfg.scale,
            min_speedup: args.min_speedup,
        };
        eprintln!(
            "gnna-serve: baseline load — {} jobs × {} clients on {} instances (max batch {})",
            opts.jobs, opts.concurrency, opts.instances, opts.max_batch
        );
        let doc = run_baseline(&opts)?;
        std::fs::write(&args.baseline_out, format!("{doc}\n")).map_err(|e| e.to_string())?;
        eprintln!("gnna-serve: wrote {}", args.baseline_out);
        println!("{doc}");
        return Ok(());
    }
    let handle = serve(args.cfg.clone()).map_err(|e| e.to_string())?;
    eprintln!(
        "gnna-serve: listening on {} — {} instances, max batch {}, flush {:?}, queue cap {} \
         (POST /shutdown to stop)",
        handle.addr(),
        args.cfg.instances,
        args.cfg.max_batch,
        args.cfg.flush,
        args.cfg.queue_cap
    );
    handle.join();
    eprintln!("gnna-serve: drained, bye");
    Ok(())
}

fn main() -> ExitCode {
    let args = match cli::parse_env("gnna-serve", USAGE, parse_args) {
        Ok(a) => a,
        Err(code) => return code,
    };
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
