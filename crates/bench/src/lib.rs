//! Shared infrastructure for the table/figure benchmark harnesses.
//!
//! Each `cargo bench` target in this crate regenerates one table or
//! figure of the paper (see `DESIGN.md` §3 for the index). This library
//! holds the pieces they share: the benchmark-pair definitions at paper
//! scale, dataset construction, model compilation, and the
//! simulate-one-configuration runner.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod campaign;
pub mod cli;
pub mod report;

use gnna_baselines::table7::MeasuredLatency;
use gnna_core::config::AcceleratorConfig;
use gnna_core::layers::{compile_gat, compile_gcn, compile_mpnn, compile_pgnn, CompiledProgram};
use gnna_core::stats::SimReport;
use gnna_core::system::System;
use gnna_faults::FaultPlan;
use gnna_graph::{datasets, Dataset};
use gnna_models::{Gat, Gcn, GcnNorm, ModelKind, Mpnn, Pgnn};
use gnna_telemetry::profile::{shared_profiler, SharedProfiler};
use gnna_telemetry::{shared, MetricsRegistry, SharedTracer, TraceLevel, Tracer};
use std::error::Error;

/// A boxed error for harness code.
pub type BenchError = Box<dyn Error>;

/// Scale at which to build a benchmark pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The full Table V dataset (used by `cargo bench`).
    Paper,
    /// A small stand-in for CI-speed smoke runs.
    Smoke,
}

/// One runnable benchmark pair: dataset plus compiled program.
#[derive(Debug)]
pub struct BenchCase {
    /// The model family.
    pub model: ModelKind,
    /// Input dataset (Table V name at paper scale).
    pub input: &'static str,
    /// The generated dataset.
    pub dataset: Dataset,
    /// The compiled accelerator program.
    pub program: CompiledProgram,
    /// Useful multiply–accumulates of one inference (for reporting).
    pub macs: u64,
    /// Functional-reference output rows from the `gnna-models` forward
    /// pass: one row per vertex (in instance order) for vertex-output
    /// models, one row per graph for readout models (MPNN). The fault
    /// campaign's accuracy harness compares simulated outputs against
    /// these.
    pub reference: Vec<Vec<f32>>,
}

/// The model hyper-parameters used throughout: GCN hidden 16 (Kipf),
/// GAT 8 heads × 8, MPNN hidden 64 with 3 message-passing steps and the
/// Gilmer edge network, PGNN: 8 layers over powers {0, 1, 2, 4} with
/// hidden 16 (the Line-GNN component configuration; see EXPERIMENTS.md).
pub const MODEL_SEED: u64 = 0xD0C5;

/// Builds one of the six Table VII benchmark pairs.
///
/// # Errors
///
/// Propagates dataset-generation and compilation errors.
pub fn build_case(
    model: ModelKind,
    input: &'static str,
    scale: Scale,
) -> Result<BenchCase, BenchError> {
    let seed = 42;
    let dataset = match (input, scale) {
        ("Cora", Scale::Paper) => datasets::cora(seed)?,
        ("Citeseer", Scale::Paper) => datasets::citeseer(seed)?,
        ("Pubmed", Scale::Paper) => datasets::pubmed(seed)?,
        ("QM9_1000", Scale::Paper) => datasets::qm9_1000(seed)?,
        ("DBLP_1", Scale::Paper) => datasets::dblp_1(seed)?,
        ("Cora", Scale::Smoke) => datasets::cora_scaled(120, 64, 7, seed)?,
        ("Citeseer", Scale::Smoke) => datasets::cora_scaled(140, 96, 6, seed)?,
        ("Pubmed", Scale::Smoke) => datasets::cora_scaled(300, 48, 3, seed)?,
        ("QM9_1000", Scale::Smoke) => datasets::qm9_scaled(20, seed)?,
        ("DBLP_1", Scale::Smoke) => datasets::dblp_scaled(60, seed)?,
        _ => return Err(format!("unknown input {input}").into()),
    };
    let f = dataset.vertex_features();
    let out = dataset.output_features;
    let (program, macs, reference) = match model {
        ModelKind::Gcn => {
            let m = Gcn::for_dataset(f, 16, out, MODEL_SEED)?.with_norm(GcnNorm::Mean);
            let macs = m.inference_macs(&dataset.instances[0].graph);
            let mut reference = Vec::new();
            for inst in &dataset.instances {
                let r = m.forward(&inst.graph, &inst.x)?;
                reference.extend((0..r.rows()).map(|i| r.row(i).to_vec()));
            }
            (compile_gcn(&m)?, macs, reference)
        }
        ModelKind::Gat => {
            let m = Gat::for_dataset(f, out, MODEL_SEED)?;
            let macs = m.inference_macs(&dataset.instances[0].graph);
            let mut reference = Vec::new();
            for inst in &dataset.instances {
                let r = m.forward(&inst.graph, &inst.x)?;
                reference.extend((0..r.rows()).map(|i| r.row(i).to_vec()));
            }
            (compile_gat(&m)?, macs, reference)
        }
        ModelKind::Mpnn => {
            let m = Mpnn::for_dataset_gilmer(f, dataset.edge_features(), 64, out, 3, MODEL_SEED)?;
            let macs = dataset
                .instances
                .iter()
                .map(|i| m.inference_macs(&i.graph))
                .sum();
            let r = m.forward_dataset(&dataset.instances)?;
            let reference = (0..r.rows()).map(|i| r.row(i).to_vec()).collect();
            (compile_mpnn(&m)?, macs, reference)
        }
        ModelKind::Pgnn => {
            let m = Pgnn::deep(&[0, 1, 2, 4], f, 16, out, 9, MODEL_SEED)?;
            let macs = m.inference_macs(&dataset.instances[0].graph);
            let mut reference = Vec::new();
            for inst in &dataset.instances {
                let r = m.forward(&inst.graph, &inst.x)?;
                reference.extend((0..r.rows()).map(|i| r.row(i).to_vec()));
            }
            (compile_pgnn(&m)?, macs, reference)
        }
    };
    Ok(BenchCase {
        model,
        input,
        dataset,
        program,
        macs,
        reference,
    })
}

/// Simulates `case` on `config`; returns the report.
///
/// # Errors
///
/// Propagates simulator construction/stall errors.
pub fn simulate(case: &BenchCase, config: &AcceleratorConfig) -> Result<SimReport, BenchError> {
    let mut sys = System::new(config, &case.dataset.instances, case.program.clone())?;
    Ok(sys.run()?)
}

/// A simulation run with telemetry attached.
#[derive(Debug)]
pub struct TracedRun {
    /// The usual simulation report.
    pub report: SimReport,
    /// The tracer holding the Chrome-trace event stream.
    pub tracer: SharedTracer,
    /// Module counters harvested after the run. When host profiling is
    /// enabled the `host.profile.*` family is merged in here too.
    pub metrics: MetricsRegistry,
    /// The host-phase profiler (`Some` only when
    /// [`TraceOptions::profile_sample_every`] asked for one); use
    /// [`HostProfiler::collapsed`](gnna_telemetry::HostProfiler::collapsed)
    /// for the flamegraph export.
    pub profiler: Option<SharedProfiler>,
}

/// Simulates `case` on `config` with a tracer attached at `level`; the
/// returned [`TracedRun`] carries the trace and the harvested metrics.
///
/// At [`TraceLevel::Off`] this is behaviourally identical to
/// [`simulate`] (the tracer records nothing and the metrics registry is
/// still populated from the final counters).
///
/// # Errors
///
/// Propagates simulator construction/stall errors.
pub fn simulate_traced(
    case: &BenchCase,
    config: &AcceleratorConfig,
    level: TraceLevel,
) -> Result<TracedRun, BenchError> {
    simulate_traced_opts(case, config, &TraceOptions::at_level(level))
}

/// Knobs for a traced run beyond the bare [`TraceLevel`].
#[derive(Debug, Clone)]
pub struct TraceOptions {
    /// Trace detail level.
    pub level: TraceLevel,
    /// Flight-recorder ring size (`None` keeps the tracer default of 256;
    /// `Some(0)` disables the ring entirely).
    pub flight_capacity: Option<usize>,
    /// Deterministic fault-injection plan (`None` — and empty plans —
    /// leave the run bit-identical to a fault-free simulation).
    pub fault_plan: Option<FaultPlan>,
    /// Host-phase profiling: `Some(n)` attaches a
    /// [`HostProfiler`](gnna_telemetry::HostProfiler) sampling one cycle
    /// in `n`. `None` (the default) attaches nothing and leaves the run
    /// bit-identical to an unprofiled simulation.
    pub profile_sample_every: Option<u64>,
}

impl TraceOptions {
    /// Options with the given level and default flight-recorder capacity.
    pub fn at_level(level: TraceLevel) -> Self {
        Self {
            level,
            flight_capacity: None,
            fault_plan: None,
            profile_sample_every: None,
        }
    }

    /// Same options with host profiling at the given sampling period.
    #[must_use]
    pub fn with_profile(mut self, sample_every: u64) -> Self {
        self.profile_sample_every = Some(sample_every);
        self
    }
}

/// [`simulate_traced`] with explicit [`TraceOptions`] (e.g. the
/// `--flight-capacity` flag of `gnna-sim`).
///
/// # Errors
///
/// Propagates simulator construction/stall errors.
pub fn simulate_traced_opts(
    case: &BenchCase,
    config: &AcceleratorConfig,
    opts: &TraceOptions,
) -> Result<TracedRun, BenchError> {
    let mut sys = System::new(config, &case.dataset.instances, case.program.clone())?;
    let tracer = shared(match opts.flight_capacity {
        Some(cap) => Tracer::with_flight_capacity(opts.level, cap),
        None => Tracer::new(opts.level),
    });
    sys.attach_telemetry(std::rc::Rc::clone(&tracer));
    if let Some(plan) = &opts.fault_plan {
        sys.attach_faults(plan)?;
    }
    let profiler = opts.profile_sample_every.map(shared_profiler);
    if let Some(p) = &profiler {
        sys.attach_profiler(std::rc::Rc::clone(p));
    }
    let report = sys.run()?;
    let mut metrics = MetricsRegistry::new();
    sys.harvest_metrics(&mut metrics);
    if let Some(p) = &profiler {
        p.borrow().export_metrics(&mut metrics);
    }
    Ok(TracedRun {
        report,
        tracer,
        metrics,
        profiler,
    })
}

/// The three Table VI configurations at a given core clock.
pub fn configurations(core_clock_hz: f64) -> Vec<AcceleratorConfig> {
    vec![
        AcceleratorConfig::cpu_iso_bandwidth().with_core_clock(core_clock_hz),
        AcceleratorConfig::gpu_iso_bandwidth().with_core_clock(core_clock_hz),
        AcceleratorConfig::gpu_iso_flops().with_core_clock(core_clock_hz),
    ]
}

/// The §VI clock sweep.
pub const CLOCK_SWEEP: [f64; 3] = [0.6e9, 1.2e9, 2.4e9];

/// Speedup of a simulated latency over a measured baseline.
pub fn speedup(baseline: &MeasuredLatency, report: &SimReport, vs_gpu: bool) -> f64 {
    let base = if vs_gpu {
        baseline.gpu_s
    } else {
        baseline.cpu_s
    };
    base / report.latency_s()
}

/// Formats a markdown-ish table row.
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_cases_build() {
        for (model, input) in gnna_models::BENCHMARK_PAIRS {
            let case = build_case(model, input, Scale::Smoke).unwrap();
            assert!(case.macs > 0, "{model} {input}");
            assert!(!case.program.layers.is_empty());
        }
    }

    #[test]
    fn smoke_gcn_simulates() {
        let case = build_case(ModelKind::Gcn, "Cora", Scale::Smoke).unwrap();
        let cfg = AcceleratorConfig::cpu_iso_bandwidth();
        let r = simulate(&case, &cfg).unwrap();
        assert!(r.total_cycles > 0);
        assert!(r.dram_bytes > 0);
    }

    #[test]
    fn configurations_are_table_vi() {
        let cfgs = configurations(2.4e9);
        assert_eq!(cfgs.len(), 3);
        assert_eq!(cfgs[0].num_tiles(), 1);
        assert_eq!(cfgs[1].num_tiles(), 8);
        assert_eq!(cfgs[2].num_tiles(), 16);
    }
}
