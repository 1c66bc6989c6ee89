//! The gnna benchmark: named workloads over the simulator and the serving
//! daemon, every output checked, end-to-end metrics from an untraced run
//! and per-layer metrics from a separate traced run.
//!
//! Run it from the repository root:
//!
//! ```text
//! cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim-pgnn-mesh --seed 42 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

pub mod check;
pub mod serve_mix;
pub mod sim;
pub mod spans;
pub mod stats;

use gnna_core::config::AcceleratorConfig;
use spans::Spans;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Set-ups an untraced run makes at least...
pub const SETUP_REPS: usize = 5;
/// ...and the time they fill at least, so cheap set-ups repeat more;
/// `setup_s` is their median.
pub const SETUP_SECONDS: f64 = 2.0;

/// Whether another set-up repetition is due after `times` (seconds each).
pub fn more_setups(times: &[f64]) -> bool {
    times.len() < SETUP_REPS || times.iter().sum::<f64>() < SETUP_SECONDS
}

/// Cycle-mode inferences an untraced simulation run makes at least.
pub const MIN_REPS: usize = 2;
/// Functional-mode inferences a simulation run makes at least...
pub const FUNC_REPS: usize = 3;
/// ...and the time they fill at least, so cheap models repeat more.
pub const FUNC_SECONDS: f64 = 1.0;
/// The seed the pinned cycle counts were taken on.
pub const DEFAULT_SEED: u64 = 42;

/// End-to-end metrics and their units, emitted by every untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "ratio"),
    ("sim_wall_s", "s"),
    ("sim_cycles", "cycles"),
    ("cycle_p50_ms", "ms"),
    ("goodput_rps", "1/s"),
];

/// GNN layers of the two simulated programs, as `compile_*` names them.
pub const SIM_LAYERS: [&str; 14] = [
    "pgnn0.powers",
    "pgnn1.powers",
    "pgnn2.powers",
    "pgnn3.powers",
    "pgnn4.powers",
    "pgnn5.powers",
    "pgnn6.powers",
    "pgnn7.powers",
    "pgnn8.powers",
    "mpnn.embed",
    "mpnn.step0",
    "mpnn.step1",
    "mpnn.step2",
    "mpnn.readout",
];

/// Per-layer metrics and their units, emitted by every traced run. A
/// metric of a layer the workload does not exercise reads 0.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| v.push((name, unit));
    for name in [
        "graph.generate_s",
        "models.reference_s",
        "models.forward_s",
        "core.compile_s",
    ] {
        add(name.into(), "s");
    }
    for name in ["core.system_new_s", "core.run_s", "core.extract_s"] {
        add(name.into(), "s");
    }
    add("core.cycles_per_s".into(), "cycles/s");
    for phase in gnna_telemetry::HotPhase::ALL {
        add(format!("host.{}.self_s", phase.name()), "s");
    }
    for layer in SIM_LAYERS {
        for part in ["config", "cycles", "barrier"] {
            add(format!("host.layer.{layer}.{part}_s"), "s");
        }
    }
    for layer in SIM_LAYERS {
        add(format!("sim.layer.{layer}.cycles"), "cycles");
        add(format!("sim.layer.{layer}.config_cycles"), "cycles");
    }
    for cause in gnna_core::stats::StallCause::ALL {
        add(format!("gpe.stall.{}", cause.as_str()), "cycles");
    }
    add("gpe.util".into(), "ratio");
    add("dna.util".into(), "ratio");
    add("agg.alloc_failures".into(), "count");
    add("dnq.switches".into(), "count");
    add("noc.flit_hops".into(), "count");
    add("noc.packet_latency_mean".into(), "cycles");
    add("mem.dram_bytes".into(), "bytes");
    add("mem.efficiency".into(), "ratio");
    add("mem.bw_util".into(), "ratio");
    for stage in ["queue", "coalesce", "simulate", "respond", "unaccounted"] {
        add(format!("serve.{stage}_ms_p50"), "ms");
        add(format!("serve.{stage}_ms_p99"), "ms");
    }
    add("serve.p50_ms".into(), "ms");
    add("serve.func_p50_ms".into(), "ms");
    add("serve.p99_ms".into(), "ms");
    add("serve.batch_size_mean".into(), "count");
    add("serve.rejected_429".into(), "count");
    add("serve.gen_late_ms_p99".into(), "ms");
    add("serve.case_build_s".into(), "s");
    add("serve.max_rps".into(), "1/s");
    add("trace.overhead_frac".into(), "ratio");
    v
}

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy)]
pub enum Workload {
    /// A simulation workload.
    Sim(sim::SimWorkload),
    /// The serving workload.
    Serve(serve_mix::ServeWorkload),
}

/// Looks a workload up by name; `short` selects small inputs for tests.
pub fn workload(name: &str, short: bool) -> Option<Workload> {
    let w = match name {
        "sim-pgnn-mesh" => Workload::Sim(sim::SimWorkload {
            kind: sim::Kind::Pgnn {
                nodes: if short { 40 } else { 200 },
            },
            config: AcceleratorConfig::gpu_iso_bandwidth,
            // With the simulator this benchmark was written against, the
            // reference outputs of 2000 seeds put the worst element at
            // 3.8e-6 of its row's scale (seed 1035), where the simulation
            // measured max_rel_err 6.3e-2 and a scaled error of 7.1e-7;
            // 15 simulated seeds reached 2.4e-6 scaled.
            tolerance: 1.0,
            scaled_tolerance: 1e-4,
            pin: (!short).then_some((DEFAULT_SEED, 2_076_194)),
        }),
        "sim-mpnn-1tile" => Workload::Sim(sim::SimWorkload {
            kind: sim::Kind::Mpnn {
                molecules: if short { 12 } else { 1000 },
            },
            config: AcceleratorConfig::cpu_iso_bandwidth,
            // Bit-identical to the reference when this benchmark was written.
            tolerance: 1e-5,
            scaled_tolerance: 1e-5,
            pin: (!short).then_some((DEFAULT_SEED, 16_205_270)),
        }),
        "serve-mix" => Workload::Serve(serve_mix::ServeWorkload::new(short)),
        _ => return None,
    };
    Some(w)
}

/// The names [`workload`] accepts.
pub const WORKLOADS: [&str; 3] = ["sim-pgnn-mesh", "sim-mpnn-1tile", "serve-mix"];

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Workload seed: inputs and schedules derive from it alone.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Small inputs, for the benchmark's own tests.
    pub short: bool,
}

/// Named metric values of one run.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets `name` to `value`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What a run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (inferences or requests).
    pub attempted: u64,
    /// Operations that failed or gave a wrong output.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Measured values.
    pub metrics: Metrics,
    /// Spans recorded during the run.
    pub spans: Option<Spans>,
}

impl Outcome {
    /// Counts one operation, failed when `result` is an error.
    pub fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(format!("{what}: {e}"));
            }
        }
    }

    /// Whether every operation succeeded with a correct output.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

/// Runs one workload: untraced, filling the end-to-end metrics, or
/// traced, filling the per-layer ones.
///
/// # Errors
///
/// An unknown workload, or a failure that leaves nothing to measure.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let w = workload(&opts.workload, opts.short).ok_or_else(|| {
        format!(
            "unknown workload {:?} (expected one of {})",
            opts.workload,
            WORKLOADS.join(", ")
        )
    })?;
    let mut out = match w {
        Workload::Sim(s) => sim::run(&s, opts)?,
        Workload::Serve(s) => serve_mix::run(&s, opts)?,
    };
    if !opts.trace {
        out.metrics.set(
            "ok_frac",
            (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64,
        );
    }
    Ok(out)
}

/// The result line: `correct`, `attempted`, `failed` and every metric of
/// the run's kind with its unit (per-layer metrics the workload does not
/// exercise read 0).
///
/// # Errors
///
/// An end-to-end metric the workload did not produce.
pub fn result_json(opts: &Options, out: &Outcome) -> Result<String, String> {
    let names: Vec<(String, &str)> = if opts.trace {
        per_layer_metrics()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut metrics = String::new();
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = match out.metrics.get(name) {
            Some(v) => v,
            None if opts.trace => 0.0,
            None => return Err(format!("workload produced no {name}")),
        };
        let value = if value.is_finite() { value } else { 0.0 };
        if i > 0 {
            metrics.push(',');
        }
        let _ = write!(
            metrics,
            "\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
        );
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        out.correct(),
        out.attempted,
        out.failed
    ))
}
