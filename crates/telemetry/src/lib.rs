//! # gnna-telemetry
//!
//! Cycle-level observability for the GNNA simulator, in three parts:
//!
//! - [`trace`] — a [`Tracer`](trace::Tracer) that records duration, instant,
//!   and counter events on per-module tracks and serializes them as Chrome
//!   `trace_event` JSON (open in <https://ui.perfetto.dev> or
//!   `chrome://tracing`). The tracer also maintains the stall **flight
//!   recorder**: a ring buffer of the most recent events dumped into the
//!   watchdog error path when a simulation stops making progress.
//! - [`metrics`] — a [`MetricsRegistry`](metrics::MetricsRegistry) of named
//!   counters/gauges/histograms with JSON and CSV serialization, used for the
//!   per-tile breakdown in `SimReport` and the `--metrics-out` file.
//! - [`energy`] — integer-exact energy attribution: a pJ [`CostClass`]
//!   taxonomy, femtojoule [`EnergyRates`], the per-site
//!   [`EnergyLedger`], and the largest-remainder [`apportion_pj`]
//!   export that keeps `*.energy.*_pj` counters summing to the total
//!   exactly (the conservation invariant).
//! - [`profile`] — a host-phase [`HostProfiler`](profile::HostProfiler):
//!   scoped [`PhaseTimer`](profile::PhaseTimer) guards plus sampled
//!   cycle-loop laps measuring where *wall-clock* time goes, exported as
//!   a collapsed-stack file (flamegraph input) and `host.profile.*`
//!   metrics.
//! - [`observer`] — the one [`Observer`](observer::Observer) handle a
//!   running simulation reports to, fanning out to the tracer and the
//!   host profiler.
//! - [`json`] — the std-only JSON writer/parser backing both, exposed so
//!   tests can reconcile emitted files against simulator counters.
//!
//! The crate is **std-only by design** (no external dependencies): the
//! observability layer must never constrain where the simulator builds.
//!
//! ## Zero cost when disabled
//!
//! Detached is a value, not an `Option` at every call site. Each module
//! holds a [`Probe`] and the simulator holds an [`Observer`]; their
//! `Default` is detached, and their event methods are `#[inline]`
//! no-ops behind one branch when nothing is attached. Probes are
//! attached only at [`TraceLevel::Event`], the profiler only on request.
//! The cycle-identity golden test in `gnna-core` asserts `total_cycles`
//! is bit-identical with tracing off vs. on.

pub mod energy;
pub mod json;
pub mod metrics;
pub mod observer;
pub mod profile;
pub mod trace;

pub use energy::{apportion_pj, CostClass, EnergyLedger, EnergyRates};
pub use metrics::{HistogramSummary, Metric, MetricsRegistry};
pub use observer::Observer;
pub use profile::{scope, shared_profiler, HostProfiler, HotPhase, PhaseTimer, SharedProfiler};
pub use trace::{shared, Probe, SharedTracer, TraceLevel, Tracer, TrackId};
