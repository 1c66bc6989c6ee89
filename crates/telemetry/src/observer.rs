//! The one handle a running simulation reports to: an [`Observer`]
//! fans out to the [`Tracer`](crate::trace::Tracer) (runtime-phase
//! track, per-layer energy timeline, flight recorder) and the
//! [`HostProfiler`](crate::profile::HostProfiler) (cycle-loop laps,
//! scoped phases). `Observer::default()` is detached from both, and its
//! methods are then no-ops behind one branch. Module tracks are the
//! [`Probe`]s the modules own.

use crate::energy::{CostClass, EnergyRates, FJ_PER_PJ};
use crate::profile::{self, HotPhase, PhaseTimer, SharedProfiler};
use crate::trace::{Probe, SharedTracer, TraceLevel};
use std::rc::Rc;

/// Per-layer energy attribution (event level only): cumulative
/// per-class event counts are snapshotted at each layer boundary and the
/// deltas retained, so layer energies partition the run total exactly.
#[derive(Debug)]
struct LayerEnergy {
    /// Cumulative class counts at the previous layer boundary.
    prev: [u64; CostClass::COUNT],
    /// Per-layer class-count deltas, one entry per executed layer.
    layers: Vec<[u64; CostClass::COUNT]>,
    /// Counter track for the cumulative-energy timeline.
    track: Probe,
}

/// Tracer and host profiler behind one handle; detached by default.
#[derive(Debug, Default)]
pub struct Observer {
    tracer: Option<SharedTracer>,
    /// Track for runtime phases (CONFIG, layer execute, barrier).
    runtime: Probe,
    energy: Option<LayerEnergy>,
    profiler: Option<SharedProfiler>,
}

impl Observer {
    /// Attaches a tracer and registers the `system`/`runtime` phase
    /// track on it. A tracer at [`TraceLevel::Off`] is not attached.
    pub fn attach_tracer(&mut self, tracer: SharedTracer) {
        if tracer.borrow().level() == TraceLevel::Off {
            return;
        }
        self.runtime = Probe::new(Rc::clone(&tracer), "system", "runtime");
        self.tracer = Some(tracer);
    }

    /// At [`TraceLevel::Event`], registers the `system`/`energy` track
    /// and starts per-layer energy attribution. Call it after the
    /// module tracks are registered: track order is the trace's layout.
    pub fn attach_energy_track(&mut self) {
        let Some(tracer) = &self.tracer else {
            return;
        };
        if tracer.borrow().level() < TraceLevel::Event {
            return;
        }
        self.energy = Some(LayerEnergy {
            prev: [0; CostClass::COUNT],
            layers: Vec::new(),
            track: Probe::new(Rc::clone(tracer), "system", "energy"),
        });
    }

    /// Attaches a host-phase profiler.
    pub fn attach_profiler(&mut self, profiler: SharedProfiler) {
        self.profiler = Some(profiler);
    }

    /// The attached tracer's level ([`TraceLevel::Off`] when detached).
    pub fn level(&self) -> TraceLevel {
        self.tracer
            .as_ref()
            .map_or(TraceLevel::Off, |t| t.borrow().level())
    }

    /// Stamps the tracer's clock: probe events land at master `cycle`.
    #[inline]
    fn set_now(&self, cycle: u64) {
        if let Some(t) = &self.tracer {
            t.borrow_mut().set_now(cycle);
        }
    }

    /// Starts simulated `cycle`: stamps the tracer's clock and opens
    /// the profiler's lap window on sampled cycles.
    #[inline]
    pub fn begin_cycle(&self, cycle: u64) {
        if let Some(p) = &self.profiler {
            p.borrow_mut().begin_cycle();
        }
        self.set_now(cycle);
    }

    /// Charges the time since the previous lap to `phase`.
    #[inline]
    pub fn lap(&self, phase: HotPhase) {
        if let Some(p) = &self.profiler {
            p.borrow_mut().lap(phase);
        }
    }

    /// Closes the cycle's lap window.
    #[inline]
    pub fn end_cycle(&self) {
        if let Some(p) = &self.profiler {
            p.borrow_mut().end_cycle();
        }
    }

    /// Opens a scoped profiler phase, closed when the guard drops.
    pub fn scope(&self, name: &str) -> Option<PhaseTimer> {
        self.profiler.as_ref().map(|p| profile::scope(p, name))
    }

    /// Opens slice `name` on the runtime track at master cycle `at`.
    pub fn phase_begin(&self, at: u64, name: &str) {
        self.set_now(at);
        self.runtime.begin(name);
    }

    /// Closes slice `name` on the runtime track at master cycle `at`.
    pub fn phase_end(&self, at: u64, name: &str) {
        self.set_now(at);
        self.runtime.end(name);
    }

    /// Appends the flight recorder's tail to an error message, so the
    /// error shows the last events leading up to it.
    pub fn with_flight_snapshot(&self, mut msg: String) -> String {
        if let Some(t) = &self.tracer {
            let snap = t.borrow().flight_snapshot();
            if !snap.is_empty() {
                msg.push('\n');
                msg.push_str(&snap);
            }
        }
        msg
    }

    /// Records a layer boundary at master cycle `at` from the run's
    /// cumulative class counts: keeps the delta since the previous
    /// boundary and emits one cumulative-energy counter per
    /// [`CostClass`] plus the total, which Perfetto renders as step
    /// charts next to the stall and link tracks.
    pub fn record_layer_energy(
        &mut self,
        at: u64,
        counts: [u64; CostClass::COUNT],
        rates: &EnergyRates,
    ) {
        self.set_now(at);
        let Some(e) = self.energy.as_mut() else {
            return;
        };
        let mut delta = [0u64; CostClass::COUNT];
        for (d, (now, prev)) in delta.iter_mut().zip(counts.iter().zip(e.prev.iter())) {
            *d = now - prev;
        }
        e.layers.push(delta);
        e.prev = counts;
        let mut total_fj = 0u64;
        for &c in CostClass::ALL.iter() {
            let fj = rates.charge_fj(c, counts[c.index()]);
            total_fj = total_fj.saturating_add(fj);
            e.track.counter(
                &format!("energy.{}_pj", c.as_str()),
                (fj / FJ_PER_PJ) as f64,
            );
        }
        e.track
            .counter("energy.total_pj", (total_fj / FJ_PER_PJ) as f64);
    }

    /// Per-layer class-count deltas recorded so far (`None` below
    /// event level).
    pub fn layer_energy(&self) -> Option<&[[u64; CostClass::COUNT]]> {
        self.energy.as_ref().map(|e| e.layers.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::shared_profiler;
    use crate::trace::{shared, Tracer};

    #[test]
    fn detached_observer_records_nothing() {
        let mut obs = Observer::default();
        obs.attach_energy_track();
        obs.begin_cycle(3);
        obs.lap(HotPhase::Gpe);
        obs.end_cycle();
        obs.phase_begin(3, "config");
        assert!(obs.scope("run").is_none());
        assert_eq!(obs.level(), TraceLevel::Off);
        assert!(obs.layer_energy().is_none());
        assert_eq!(obs.with_flight_snapshot("stalled".into()), "stalled");
    }

    #[test]
    fn off_level_tracers_stay_detached() {
        let tracer = shared(Tracer::new(TraceLevel::Off));
        let mut obs = Observer::default();
        obs.attach_tracer(Rc::clone(&tracer));
        obs.phase_begin(0, "config");
        assert_eq!(obs.level(), TraceLevel::Off);
        assert_eq!(tracer.borrow().track_count(), 0);
    }

    #[test]
    fn attached_observer_fans_out_to_both_sinks() {
        let tracer = shared(Tracer::new(TraceLevel::Event));
        let profiler = shared_profiler(1);
        let mut obs = Observer::default();
        obs.attach_tracer(Rc::clone(&tracer));
        obs.attach_energy_track();
        obs.attach_profiler(Rc::clone(&profiler));
        {
            let _run = obs.scope("run");
            obs.begin_cycle(0);
            obs.lap(HotPhase::Noc);
            obs.end_cycle();
        }
        obs.phase_begin(5, "config");
        obs.phase_end(9, "config");
        let mut counts = [0; CostClass::COUNT];
        counts[CostClass::MacOp.index()] = 10;
        obs.record_layer_energy(9, counts, &EnergyRates::from_pj([1.0; CostClass::COUNT]));
        assert_eq!(obs.layer_energy().map(<[_]>::len), Some(1));
        let t = tracer.borrow();
        assert_eq!(t.track_count(), 2, "runtime + energy tracks");
        assert_eq!(t.count_named("config"), 2);
        assert_eq!(t.count_named("energy.total_pj"), 1);
        assert_eq!(profiler.borrow().cycles_total(), 1);
        assert!(profiler.borrow().collapsed().contains("run"));
    }
}
