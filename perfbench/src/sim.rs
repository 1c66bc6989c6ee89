//! The two simulation workloads: build the inputs from the seed, then run
//! cycle-mode inferences (`System::new` → `run` → `output_matrix`) and
//! functional-mode inferences (the `gnna-models` forward pass) and check
//! every output.

use crate::check;
use crate::spans::Spans;
use crate::stats::median;
use crate::{Metrics, Options, Outcome};
use gnna_bench::MODEL_SEED;
use gnna_core::config::AcceleratorConfig;
use gnna_core::layers::{compile_mpnn, compile_pgnn, CompiledProgram};
use gnna_core::stats::{SimReport, StallCause};
use gnna_core::system::System;
use gnna_graph::{datasets, Dataset};
use gnna_models::{Mpnn, Pgnn};
use gnna_telemetry::profile::{shared_profiler, HotPhase, DEFAULT_SAMPLE_EVERY};
use gnna_telemetry::MetricsRegistry;
use gnna_tensor::Matrix;
use std::rc::Rc;
use std::time::Instant;

/// The model a simulation workload runs.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// PGNN, 9 layers over adjacency powers {0, 1, 2, 4}, on a
    /// DBLP-like community graph of `nodes` vertices.
    Pgnn {
        /// Vertex count of the generated graph.
        nodes: usize,
    },
    /// MPNN (Gilmer edge network, 3 steps) on `molecules` QM9-like graphs.
    Mpnn {
        /// Molecule count; 1000 is the paper's QM9_1000.
        molecules: usize,
    },
}

/// One simulation workload.
#[derive(Debug, Clone, Copy)]
pub struct SimWorkload {
    /// Model and input size.
    pub kind: Kind,
    /// Accelerator configuration it simulates on.
    pub config: fn() -> AcceleratorConfig,
    /// Largest element-wise relative error (`max_rel_err`) against the
    /// functional reference that passes: what the simulator this
    /// benchmark was written against measured, with headroom.
    pub tolerance: f64,
    /// Largest error relative to the row's largest reference magnitude
    /// that passes. It binds where `max_rel_err` cannot: f32 cancellation
    /// leaves some outputs orders of magnitude below their row's scale,
    /// and their relative error is rounding, not a wrong answer.
    pub scaled_tolerance: f64,
    /// `(seed, total_cycles)` the simulation must reproduce exactly.
    pub pin: Option<(u64, u64)>,
}

/// The functional model behind a workload.
enum Model {
    Pgnn(Pgnn),
    Mpnn(Box<Mpnn>),
}

impl Model {
    fn forward(&self, data: &Dataset) -> Result<Vec<Vec<f32>>, String> {
        let m: Matrix = match self {
            Model::Pgnn(m) => {
                let inst = &data.instances[0];
                m.forward(&inst.graph, &inst.x)
            }
            Model::Mpnn(m) => m.forward_dataset(&data.instances),
        }
        .map_err(|e| e.to_string())?;
        Ok((0..m.rows()).map(|i| m.row(i).to_vec()).collect())
    }
}

/// Everything set-up produces.
struct Prepared {
    data: Dataset,
    model: Model,
    program: CompiledProgram,
    reference: Vec<Vec<f32>>,
}

/// Generates the dataset, builds the model, runs the reference forward
/// pass and compiles the program, each under its own span.
fn prepare(kind: Kind, seed: u64, spans: &mut Spans) -> Result<Prepared, String> {
    let root = spans.open("setup", None);
    let parent = Some(root.id().to_string());
    let parent = parent.as_deref();
    let s = spans.open("graph.generate", parent);
    let data = match kind {
        Kind::Pgnn { nodes } => datasets::dblp_scaled(nodes, seed),
        Kind::Mpnn { molecules: 1000 } => datasets::qm9_1000(seed),
        Kind::Mpnn { molecules } => datasets::qm9_scaled(molecules, seed),
    }
    .map_err(|e| e.to_string())?;
    spans.close(s);
    let f = data.vertex_features();
    let out = data.output_features;
    let s = spans.open("models.reference", parent);
    let model = match kind {
        Kind::Pgnn { .. } => Model::Pgnn(
            Pgnn::deep(&[0, 1, 2, 4], f, 16, out, 9, MODEL_SEED).map_err(|e| e.to_string())?,
        ),
        Kind::Mpnn { .. } => Model::Mpnn(Box::new(
            Mpnn::for_dataset_gilmer(f, data.edge_features(), 64, out, 3, MODEL_SEED)
                .map_err(|e| e.to_string())?,
        )),
    };
    let reference = model.forward(&data)?;
    spans.close(s);
    let s = spans.open("core.compile", parent);
    let program = match &model {
        Model::Pgnn(m) => compile_pgnn(m),
        Model::Mpnn(m) => compile_mpnn(m),
    }
    .map_err(|e| e.to_string())?;
    spans.close(s);
    spans.close(root);
    Ok(Prepared {
        data,
        model,
        program,
        reference,
    })
}

/// One cycle-mode inference and what it measured.
struct CycleRun {
    wall_s: f64,
    report: SimReport,
    rows: Vec<Vec<f32>>,
    registry: MetricsRegistry,
}

/// `System::new` → `run` → `output_matrix`, each under its own span;
/// `profile` attaches the host profiler and harvests its metrics.
fn cycle_inference(
    prep: &Prepared,
    cfg: &AcceleratorConfig,
    spans: &mut Spans,
    profile: bool,
) -> Result<CycleRun, String> {
    let root = spans.open("sim.inference", None);
    let parent = Some(root.id().to_string());
    let parent = parent.as_deref();
    let s = spans.open("core.system_new", parent);
    let mut sys =
        System::new(cfg, &prep.data.instances, prep.program.clone()).map_err(|e| e.to_string())?;
    spans.close(s);
    let profiler = profile.then(|| shared_profiler(DEFAULT_SAMPLE_EVERY));
    if let Some(p) = &profiler {
        sys.attach_profiler(Rc::clone(p));
    }
    let s = spans.open("core.run", parent);
    let report = sys.run().map_err(|e| e.to_string())?;
    spans.close(s);
    let s = spans.open("core.extract", parent);
    let mut rows = Vec::with_capacity(prep.reference.len());
    for g in 0..prep.data.instances.len() {
        let m = sys.output_matrix(g).map_err(|e| e.to_string())?;
        rows.extend((0..m.rows()).map(|i| m.row(i).to_vec()));
    }
    spans.close(s);
    let wall_s = spans.close(root);
    let mut registry = MetricsRegistry::new();
    if let Some(p) = &profiler {
        sys.harvest_metrics(&mut registry);
        p.borrow().export_metrics(&mut registry);
    }
    Ok(CycleRun {
        wall_s,
        report,
        rows,
        registry,
    })
}

/// Bit-exact output equality (determinism across repetitions).
fn same_bits(a: &[Vec<f32>], b: &[Vec<f32>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// Checks one cycle-mode inference: graded against the reference, the
/// same cycles and bits as the first repetition, and the pinned cycle
/// count on the pinned seed.
fn check_cycle(
    w: &SimWorkload,
    seed: u64,
    prep: &Prepared,
    run: &CycleRun,
    first: Option<&CycleRun>,
) -> Result<(), String> {
    let acc = check::grade(&prep.reference, &run.rows, w.tolerance)?;
    check::grade_scaled(&prep.reference, &run.rows, w.scaled_tolerance)?;
    if first.is_none() {
        eprintln!("gnna-perfbench: max relative error {:e}", acc.max_rel_err);
    }
    if let Some(f) = first {
        if f.report.total_cycles != run.report.total_cycles || !same_bits(&f.rows, &run.rows) {
            return Err("repeated simulation differs from the first".into());
        }
    }
    check::pinned_cycles(w.pin, seed, run.report.total_cycles)
}

/// Runs a simulation workload and returns its outcome.
///
/// # Errors
///
/// Set-up or simulator errors that leave nothing to measure.
pub fn run(w: &SimWorkload, opts: &Options) -> Result<Outcome, String> {
    let cfg = (w.config)();
    let mut out = Outcome::default();
    let mut spans = Spans::new();
    let t = Instant::now();
    let prep = prepare(w.kind, opts.seed, &mut spans)?;
    let mut setup_s = vec![t.elapsed().as_secs_f64()];

    // Functional-mode inferences: the reference forward pass again, which
    // must reproduce the set-up's bits.
    let mut func_s: Vec<f64> = Vec::new();
    while func_s.len() < crate::FUNC_REPS || func_s.iter().sum::<f64>() < crate::FUNC_SECONDS {
        let s = spans.open("models.forward", None);
        let rows = prep.model.forward(&prep.data);
        func_s.push(spans.close(s));
        out.record(
            "functional inference",
            rows.and_then(|r| {
                same_bits(&r, &prep.reference)
                    .then_some(())
                    .ok_or_else(|| "forward pass is not deterministic".to_string())
            }),
        );
    }

    // Cycle-mode inferences, untraced.
    let start = Instant::now();
    let mut runs: Vec<CycleRun> = Vec::new();
    let mut good = 0usize;
    loop {
        let run = cycle_inference(&prep, &cfg, &mut spans, false)?;
        let check = check_cycle(w, opts.seed, &prep, &run, runs.first());
        good += usize::from(check.is_ok());
        out.record("cycle inference", check);
        runs.push(run);
        // Stop before a repetition that would end past the run's time; the
        // traced run needs one untraced repetition to compare against.
        let elapsed = start.elapsed().as_secs_f64();
        let per_run = elapsed / runs.len() as f64;
        if opts.trace || (runs.len() >= crate::MIN_REPS && elapsed + per_run > opts.seconds) {
            break;
        }
    }
    let walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
    eprintln!("gnna-perfbench: cycle inferences took {walls:.3?} s");
    let cycles = runs[0].report.total_cycles;

    let mut m = Metrics::new();
    if opts.trace {
        let traced = cycle_inference(&prep, &cfg, &mut spans, true)?;
        out.record(
            "traced cycle inference",
            check_cycle(w, opts.seed, &prep, &traced, runs.first()),
        );
        per_layer(&mut m, &spans, &traced, median(&walls));
        m.set("models.forward_s", median(&func_s));
    } else {
        // Peak memory covers one set-up; the further set-ups only time
        // `setup_s`.
        m.set("peak_rss_mb", crate::stats::peak_rss_mb());
        while crate::more_setups(&setup_s) {
            let t = Instant::now();
            prepare(w.kind, opts.seed, &mut spans)?;
            setup_s.push(t.elapsed().as_secs_f64());
        }
        m.set("setup_s", median(&setup_s));
        m.set("sim_wall_s", median(&walls));
        m.set("sim_cycles", cycles as f64);
        m.set("cycle_p50_ms", 1e3 * median(&walls));
        m.set("goodput_rps", good as f64 / walls.iter().sum::<f64>());
    }
    out.metrics = m;
    out.spans = Some(spans);
    Ok(out)
}

/// Fills the per-layer metrics from the traced inference.
fn per_layer(m: &mut Metrics, spans: &Spans, traced: &CycleRun, untraced_wall_s: f64) {
    let last = |name: &str| spans.self_times(name).last().copied().unwrap_or(0.0);
    m.set("graph.generate_s", last("graph.generate"));
    m.set("models.reference_s", last("models.reference"));
    m.set("core.compile_s", last("core.compile"));
    m.set("core.system_new_s", last("core.system_new"));
    let run_s = last("core.run");
    m.set("core.run_s", run_s);
    m.set("core.extract_s", last("core.extract"));
    let r = &traced.report;
    m.set("core.cycles_per_s", r.total_cycles as f64 / run_s);
    let reg = &traced.registry;
    let counter = |key: &str| reg.get_counter(key).unwrap_or(0) as f64;
    for phase in HotPhase::ALL {
        let key = format!("host.profile.self_ns.run;cycles;{}", phase.name());
        m.set(
            &format!("host.{}.self_s", phase.name()),
            counter(&key) / 1e9,
        );
    }
    for layer in &r.layers {
        for part in ["config", "cycles", "barrier"] {
            let key = format!("host.profile.total_ns.run;layer:{};{part}", layer.name);
            m.set(
                &format!("host.layer.{}.{part}_s", layer.name),
                counter(&key) / 1e9,
            );
        }
        m.set(
            &format!("sim.layer.{}.cycles", layer.name),
            layer.cycles as f64,
        );
        m.set(
            &format!("sim.layer.{}.config_cycles", layer.name),
            layer.config_cycles as f64,
        );
    }
    let tile_sum = |suffix: &str| -> f64 {
        (0..r.num_tiles)
            .map(|t| counter(&format!("tile{t}.{suffix}")))
            .sum()
    };
    for cause in StallCause::ALL {
        m.set(
            &format!("gpe.stall.{}", cause.as_str()),
            tile_sum(&format!("stall.{}", cause.as_str())),
        );
    }
    m.set("gpe.util", r.gpe_utilization());
    m.set("dna.util", r.dna_utilization());
    m.set("agg.alloc_failures", tile_sum("agg.alloc_failures"));
    m.set("dnq.switches", tile_sum("dnq.switches"));
    m.set("noc.flit_hops", r.noc_flit_hops as f64);
    let latency = match reg.get("noc.mean_packet_latency") {
        Some(gnna_telemetry::Metric::Gauge(v)) => *v,
        _ => 0.0,
    };
    m.set("noc.packet_latency_mean", latency);
    m.set("mem.dram_bytes", r.dram_bytes as f64);
    m.set("mem.efficiency", r.mem_efficiency());
    m.set("mem.bw_util", r.bandwidth_utilization());
    m.set("trace.overhead_frac", traced.wall_s / untraced_wall_s - 1.0);
}
