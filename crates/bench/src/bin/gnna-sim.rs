//! `gnna-sim` — simulate one benchmark/configuration pair from the
//! command line.
//!
//! ```console
//! $ gnna-sim --model gcn --input cora --config gpu-iso-bw --clock 2.4
//! $ gnna-sim --model mpnn --input qm9_1000 --smoke --energy --layers
//! ```
//!
//! Prints the simulation report, the Fig-8-style speedups against the
//! measured Table VII baselines, and optionally a per-layer timing
//! breakdown and an energy estimate.

use gnna_bench::cli::{self, Cli, Stop};
use gnna_bench::{build_case, simulate, simulate_traced_opts, Scale, TraceOptions};
use gnna_core::config::AcceleratorConfig;
use gnna_core::energy::EnergyModel;
use gnna_faults::{CrcDomain, EccDomain, FaultPlan, PhysicalRates, RecoveryMode};
use gnna_models::ModelKind;
use gnna_telemetry::{Metric, MetricsRegistry, TraceLevel};
use std::process::ExitCode;

/// The command line as given; `None` and `false` mean the flag was
/// absent, and `main` applies the defaults the usage text states.
#[derive(Default)]
struct Args {
    model: Option<ModelKind>,
    input: Option<&'static str>,
    config: Option<AcceleratorConfig>,
    clock_ghz: Option<f64>,
    threads: Option<usize>,
    flit_bytes: Option<usize>,
    smoke: bool,
    show_layers: bool,
    show_energy: bool,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    trace_level: Option<TraceLevel>,
    flight_capacity: Option<usize>,
    fault_seed: Option<u64>,
    fault_rate: Option<f64>,
    fault_fit: Option<f64>,
    fault_acceleration: Option<f64>,
    fault_recovery: Option<RecoveryMode>,
    ecc_domain: Option<EccDomain>,
    crc_domain: Option<CrcDomain>,
    checkpoint_interval: Option<u64>,
    rollback_budget: Option<u64>,
    mem_retry_budget: Option<u32>,
    stall_window: Option<u64>,
    profile_out: Option<String>,
    profile_json: Option<String>,
    profile_sample_every: Option<u64>,
}

const USAGE: &str = "\
usage: gnna-sim [options]
  --model  gcn|gat|mpnn|pgnn     benchmark model (default gcn)
  --input  cora|citeseer|pubmed|qm9_1000|dblp_1
                                 input dataset (default: the model's
                                 Table VII pairing)
  --config cpu-iso-bw|gpu-iso-bw|gpu-iso-flops
                                 Table VI configuration (default cpu-iso-bw)
  --clock  GHZ                   core clock in GHz: 0.6, 1.2 or 2.4
                                 (default 2.4)
  --threads N                    GPE software threads (default 16)
  --flit-bytes N                 NoC flit / crossbar width in bytes
                                 (default 64; energy A/B ablation knob)
  --smoke                        scaled-down dataset for a fast run
  --layers                       print the per-layer timing breakdown
  --energy                       print the energy estimate
  --trace-out PATH               write a Chrome/Perfetto trace JSON
                                 (load at ui.perfetto.dev)
  --metrics-out PATH             write module counters (.json or .csv)
  --trace-level off|phase|event  trace detail (default: event when
                                 --trace-out is given, off otherwise)
  --flight-capacity N            stall flight-recorder ring size
                                 (default 256; 0 disables the ring)
  --fault-rate P                 per-event transient-fault probability at
                                 every protected site (0 disables; runs
                                 with 0 are bit-identical to no flag)
  --fault-seed N                 fault-injection RNG seed (default 1;
                                 identical seeds replay identical faults)
  --fault-fit F                  physically calibrated fault rate: F is
                                 read as both a link FIT and a DRAM
                                 upsets/Gbit-hour rate and converted to
                                 per-event probabilities at the 2.4 GHz
                                 master clock (alternative to
                                 --fault-rate)
  --fault-acceleration F         multiply --fault-fit rates by F so
                                 faults are observable in bounded sim
                                 time (default 1)
  --fault-recovery retry|passthrough|rollback
                                 what to do when a protection budget is
                                 exhausted (default retry; rollback
                                 snapshots layer-boundary checkpoints
                                 and replays)
  --ecc-domain both|weights|acts DRAM region SECDED protects; faults
                                 outside it are silent corruption
                                 (default both)
  --crc-domain all|data|ctrl     flit traffic link CRC protects; faults
                                 outside it are silent corruption
                                 (default all)
  --checkpoint-interval N        layers between checkpoints under
                                 rollback recovery (default 1)
  --rollback-budget N            rollbacks allowed before the fault
                                 degrades to an error (default 8)
  --mem-retry-budget N           DRAM double-bit re-reads allowed per
                                 error (default unlimited)
  --stall-window N               master cycles without progress before
                                 the watchdog reports a stall
                                 (default 2000000)
  --profile-out PATH             write a collapsed-stack host profile
                                 (flamegraph.pl / inferno input)
  --profile-json PATH            write the host.profile.* metrics as JSON
                                 (the BENCH_profile_baseline.json format)
  --profile-sample-every N       time one cycle in N inside the cycle
                                 loop (default 64; implies profiling)
  --version                      print the workspace version
  --help                         this message";

fn parse_args(cli: &mut Cli) -> Result<Args, Stop> {
    let mut a = Args::default();
    while let Some(flag) = cli.next_flag()? {
        match flag.as_str() {
            "--model" => a.model = Some(cli::model(&cli.value(&flag)?)?),
            "--input" => a.input = Some(cli::input(&cli.value(&flag)?)?),
            "--config" => a.config = Some(cli::config(&cli.value(&flag)?)?),
            "--clock" => a.clock_ghz = Some(cli.parse(&flag)?),
            "--threads" => a.threads = Some(cli.parse(&flag)?),
            "--flit-bytes" => a.flit_bytes = Some(cli.positive(&flag)?),
            "--smoke" => a.smoke = true,
            "--layers" => a.show_layers = true,
            "--energy" => a.show_energy = true,
            "--trace-out" => a.trace_out = Some(cli.value(&flag)?),
            "--metrics-out" => a.metrics_out = Some(cli.value(&flag)?),
            "--trace-level" => {
                a.trace_level =
                    Some(cli.choice(&flag, "trace level", "off|phase|event", TraceLevel::parse)?)
            }
            "--flight-capacity" => a.flight_capacity = Some(cli.parse(&flag)?),
            "--fault-rate" => a.fault_rate = Some(cli.fraction(&flag)?),
            "--fault-seed" => a.fault_seed = Some(cli.parse(&flag)?),
            "--fault-fit" => {
                let f: f64 = cli.parse(&flag)?;
                if f < 0.0 {
                    return Err("--fault-fit must be non-negative".into());
                }
                a.fault_fit = Some(f);
            }
            "--fault-acceleration" => a.fault_acceleration = Some(cli.positive(&flag)?),
            "--fault-recovery" => {
                a.fault_recovery = Some(cli.choice(
                    &flag,
                    "recovery mode",
                    "retry|passthrough|rollback",
                    RecoveryMode::parse,
                )?)
            }
            "--ecc-domain" => a.ecc_domain = Some(cli::ecc_domain(&cli.value(&flag)?)?),
            "--crc-domain" => a.crc_domain = Some(cli::crc_domain(&cli.value(&flag)?)?),
            "--checkpoint-interval" => a.checkpoint_interval = Some(cli.positive(&flag)?),
            "--rollback-budget" => a.rollback_budget = Some(cli.parse(&flag)?),
            "--mem-retry-budget" => a.mem_retry_budget = Some(cli.parse(&flag)?),
            "--stall-window" => a.stall_window = Some(cli.positive(&flag)?),
            "--profile-out" => a.profile_out = Some(cli.value(&flag)?),
            "--profile-json" => a.profile_json = Some(cli.value(&flag)?),
            "--profile-sample-every" => a.profile_sample_every = Some(cli.positive(&flag)?),
            _ => return Err(cli::unknown(&flag)),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match cli::parse_env("gnna-sim", USAGE, parse_args) {
        Ok(a) => a,
        Err(code) => return code,
    };
    let model = args.model.unwrap_or(ModelKind::Gcn);
    let input = args.input.unwrap_or(model.default_input());
    let scale = if args.smoke {
        Scale::Smoke
    } else {
        Scale::Paper
    };
    let clock_ghz = args.clock_ghz.unwrap_or(2.4);
    let case = match build_case(model, input, scale) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: cannot build {model} on {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut config = args
        .config
        .unwrap_or_else(AcceleratorConfig::cpu_iso_bandwidth)
        .with_core_clock(clock_ghz * 1e9);
    if let Some(t) = args.threads {
        config.gpe_threads = t;
    }
    if let Some(n) = args.flit_bytes {
        config = config.with_flit_bytes(n);
    }
    if let Some(w) = args.stall_window {
        config = config.with_stall_window(w);
    }
    // A fault plan is built only when a nonzero rate is requested, so a
    // plain run (or `--fault-rate 0`) stays bit-identical to the
    // pre-fault-subsystem simulator. `--fault-fit` is the physically
    // calibrated alternative; the protection knobs below only bite when
    // one of the two rates built a plan.
    let seed = args.fault_seed.unwrap_or(1);
    let mut fault_plan = match (
        args.fault_rate.filter(|&r| r > 0.0),
        args.fault_fit.filter(|&f| f > 0.0),
    ) {
        (Some(r), _) => Some(FaultPlan::new(seed).with_rate(r)),
        (None, Some(fit)) => Some(FaultPlan::from_physical(
            seed,
            &PhysicalRates {
                dram_upsets_per_gbit_hour: fit,
                link_fit: fit,
                acceleration: args.fault_acceleration.unwrap_or(1.0),
                ..PhysicalRates::default()
            },
        )),
        (None, None) => None,
    };
    if let Some(mut plan) = fault_plan.take() {
        if let Some(mode) = args.fault_recovery {
            plan = plan.with_recovery(mode);
        }
        if let Some(d) = args.ecc_domain {
            plan = plan.with_ecc_domain(d);
        }
        if let Some(d) = args.crc_domain {
            plan = plan.with_crc_domain(d);
        }
        if let Some(n) = args.checkpoint_interval {
            plan = plan.with_checkpoint_interval(n);
        }
        if let Some(n) = args.rollback_budget {
            plan = plan.with_rollback_budget(n);
        }
        if let Some(n) = args.mem_retry_budget {
            plan = plan.with_mem_retry_budget(n);
        }
        println!(
            "fault injection: mem rate {} noc rate {} seed {} recovery {} \
             (SECDED mem [{}], CRC+retransmit noc [{}], DNA bubbles)",
            plan.mem_rate,
            plan.noc_rate,
            plan.seed,
            plan.recovery,
            plan.ecc_domain,
            plan.crc_domain
        );
        fault_plan = Some(plan);
    }
    println!(
        "{model} on {input} ({} vertices, {} MMACs), {} @ {clock_ghz:.1} GHz, {} GPE threads",
        case.dataset.total_nodes(),
        case.macs / 1_000_000,
        config.name,
        config.gpe_threads
    );
    // Tracing is wanted when an output path is given or a level above
    // `off` is requested explicitly; `--trace-level off` forces the
    // untraced path (bit-identical to running without any trace flags).
    let level = args.trace_level.unwrap_or({
        if args.trace_out.is_some() || args.metrics_out.is_some() {
            TraceLevel::Event
        } else {
            TraceLevel::Off
        }
    });
    // Host profiling is wanted when any --profile-* flag is present.
    let profile_sample_every = if args.profile_out.is_some() || args.profile_json.is_some() {
        Some(
            args.profile_sample_every
                .unwrap_or(gnna_telemetry::profile::DEFAULT_SAMPLE_EVERY),
        )
    } else {
        args.profile_sample_every
    };
    let wall = std::time::Instant::now();
    let report = if level == TraceLevel::Off
        && fault_plan.is_none()
        && profile_sample_every.is_none()
    {
        match simulate(&case, &config) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: simulation failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let opts = TraceOptions {
            level,
            flight_capacity: args.flight_capacity,
            fault_plan,
            profile_sample_every,
        };
        let run = match simulate_traced_opts(&case, &config, &opts) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: simulation failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Some(path) = &args.trace_out {
            let json = run.tracer.borrow().to_chrome_json_string();
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("error: cannot write trace {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!(
                "trace: {} ({} events, {} tracks) — load at ui.perfetto.dev",
                path,
                run.tracer.borrow().event_count(),
                run.tracer.borrow().track_count()
            );
        }
        if let Some(path) = &args.metrics_out {
            let body = if path.ends_with(".csv") {
                run.metrics.to_csv_string()
            } else {
                run.metrics.to_json_string()
            };
            if let Err(e) = std::fs::write(path, body) {
                eprintln!("error: cannot write metrics {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("metrics: {} ({} series)", path, run.metrics.len());
        }
        if let Some(profiler) = &run.profiler {
            let prof = profiler.borrow();
            if let Some(path) = &args.profile_out {
                if let Err(e) = std::fs::write(path, prof.collapsed()) {
                    eprintln!("error: cannot write profile {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("host profile: {path} (collapsed stacks — feed to flamegraph tooling)");
            }
            if let Some(path) = &args.profile_json {
                let mut sub = MetricsRegistry::new();
                for (name, m) in run.metrics.iter() {
                    if name.starts_with("host.profile.") {
                        match m {
                            Metric::Counter(v) => sub.counter_set(name, *v),
                            Metric::Gauge(v) => sub.gauge_set(name, *v),
                            Metric::Histogram(h) => sub.histogram_set(name, *h),
                        }
                    }
                }
                if let Err(e) = std::fs::write(path, sub.to_json_string()) {
                    eprintln!("error: cannot write profile metrics {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("host profile metrics: {path} ({} series)", sub.len());
            }
            println!(
                "host profile: {:.0} cycles/sec (sampled 1 in {})",
                prof.cycles_per_sec(),
                prof.sample_every()
            );
        }
        run.report
    };
    println!("{report}");
    println!("(simulated in {:.1?})", wall.elapsed());
    if scale == Scale::Paper {
        if let Some(m) = gnna_baselines::table7::measured(model, input) {
            println!(
                "speedup vs measured baselines: {:.2}x CPU, {:.2}x GPU",
                m.cpu_s / report.latency_s(),
                m.gpu_s / report.latency_s()
            );
        }
    }
    if args.show_layers {
        println!("\nper-layer timing:");
        for l in &report.layers {
            println!(
                "  {:<18} {:>12} cycles ({:>8} config)  {:.3} ms",
                l.name,
                l.cycles,
                l.config_cycles,
                l.cycles as f64 / report.noc_clock_hz * 1e3
            );
        }
    }
    if args.show_energy {
        let e = EnergyModel::default().estimate(&report);
        println!("\nenergy: {e}");
        println!("mean power: {:.2} W", e.mean_power_w(report.latency_s()));
    }
    ExitCode::SUCCESS
}
