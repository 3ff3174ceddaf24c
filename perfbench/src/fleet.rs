//! The fleet-service workloads: `fleet_racks` and `fleet_mixed`.
//!
//! One operation is one `FleetService::run_epoch`. Every
//! [`Spec::failover_every`] epochs the live service checkpoints and a
//! standby service restores the snapshot and takes over (the old live
//! service becomes the next standby); `fleet_mixed` also runs add/remove
//! churn waves against the live fleet.
//!
//! * `fleet_racks` — 4096 identical devices in 64 racks on the
//!   `racks` scenario's calm and surge patterns. Blocks of four epochs;
//!   at each block boundary one whole rack (seeded order) switches to the
//!   surge pattern and the previous one returns to calm. The quiet gate
//!   skips every device whose window did not move, so most epochs do no
//!   fitting and no LP work.
//! * `fleet_mixed` — disk, CPU and web-server classes driven by seeded,
//!   non-periodic regime-switching arrivals: every ready device refits
//!   every epoch, clusters re-solve warm every epoch, and churn waves
//!   add and remove devices.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use dpm_core::{
    CostMetric, DpmError, PolicyOptimizer, ServiceRequester, SolverKind, SystemModel, SystemState,
};
use dpm_mdp::{DiscountedMdp, RandomizedPolicy};
use dpm_runtime::service::ClassId;
use dpm_runtime::{AdaptiveConfig, DeviceId, FleetConfig, FleetReport, FleetService};
use dpm_systems::{cpu, disk, racks, web_server};
use dpm_trace::{SrExtractor, WindowKind, WindowedEstimator};

use crate::clock::Stopwatch;
use crate::report::{Layers, Metrics, Outcome};
use crate::spans::Tracer;
use crate::stats::{self, Rng};
use crate::{fail, Args, Res};

/// Which fleet workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Racks,
    Mixed,
}

/// k of the k-memory workload models (2 SR states) in both fleets; the
/// quiet-gate derivation below counts one-step transitions.
const MEMORY: u32 = 1;
/// Laplace smoothing of every fit.
const SMOOTHING: f64 = 0.5;
/// The quiet gate: skip only devices whose window counts are unchanged.
const QUIET_GATE: f64 = 0.0;
/// Tolerance of the served-policy checks.
const TOL: f64 = 1e-6;
/// Set-up repetitions before and after the measured phase (the median
/// of all is reported, so a slow spell of the host at either end does
/// not decide it).
const SETUP_REPEATS: usize = 4;
/// Worker threads of the measured fleets. The pre-timing check runs 1
/// and 2 workers against each other; the measured phase uses one: on
/// the 2-vCPU reference host, whose speed moves by up to 1.5x with its
/// neighbours' load, two workers made `op_ms_p50` about four times less
/// steady between runs (spreads of about 4% against 1%).
const MEASURED_WORKERS: usize = 1;
/// Epochs of the pre-timing check run (1 vs 2 workers).
const CHECK_EPOCHS: usize = 12;

/// Racks, devices per rack and epochs per block of `fleet_racks`.
const RACKS: usize = 64;
const PER_RACK: usize = 64;
const BLOCK: usize = racks::CALM_EPOCHS;

/// Regimes of `fleet_mixed`: `(P(idle→busy), P(busy→busy))`, light to
/// heavy; all feasible for the disk class under the queue bound.
const MIXED_REGIMES: [(f64, f64); 3] = [(0.01, 0.3), (0.04, 0.5), (0.08, 0.6)];
/// Slices a `fleet_mixed` device stays in one regime before it moves on
/// to the next (light → medium → heavy → light): uniform in this range,
/// drawn afresh at every switch, so no device's load is periodic while
/// every device spends about a third of its time in each regime.
const MIXED_DWELL: (usize, usize) = (1_000, 2_000);
/// Devices per class in `fleet_mixed` at start.
const MIXED_PER_CLASS: usize = 640;

/// A device class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Rack,
    Disk,
    Cpu,
    Web,
}

impl Class {
    fn compose(self, sr: ServiceRequester) -> Result<SystemModel, DpmError> {
        match self {
            Class::Rack => racks::system_for(sr),
            Class::Disk => disk::system_with_workload(sr),
            Class::Cpu => cpu::system_with_workload(sr),
            Class::Web => web_server::system_with_workload(sr),
        }
    }

    fn base_system(self) -> Result<SystemModel, DpmError> {
        match self {
            Class::Rack => racks::system(),
            _ => self.compose(ServiceRequester::two_state(0.05, 0.5)?),
        }
    }
}

/// The shape of one fleet workload.
#[derive(Debug, Clone)]
struct Spec {
    kind: Kind,
    classes: Vec<Class>,
    devices: usize,
    epoch_slices: usize,
    window: usize,
    horizon: f64,
    queue_bound: f64,
    cluster_divergence: f64,
    resolve_divergence: f64,
    warmup_epochs: usize,
    failover_every: usize,
    churn_every: Option<usize>,
    churn_per_class: usize,
    /// Epochs between policy verifications in the measured phase.
    verify_every: usize,
    /// Epochs the measured phase runs per second of `--seconds`: the
    /// rate on the reference host, checks between epochs included. The
    /// phase is sized from it in whole failover periods, so every run
    /// measures the same operations.
    epochs_per_s: f64,
}

impl Spec {
    fn new(kind: Kind) -> Self {
        match kind {
            Kind::Racks => Spec {
                kind,
                classes: vec![Class::Rack],
                devices: RACKS * PER_RACK,
                // Four of the scenario's 400-slice periods per epoch: heavy
                // enough epochs that the tail statistic (ten epochs above
                // it) is not the host's scheduling hiccups.
                epoch_slices: 4 * racks::EPOCH_SLICES,
                window: 8 * racks::EPOCH_SLICES,
                horizon: 2_000.0,
                // Binding and feasible in every window: the surge pattern
                // is infeasible below ~0.8, and without a bound every
                // policy is plain "sleep".
                queue_bound: 1.0,
                cluster_divergence: 0.1,
                resolve_divergence: 0.05,
                warmup_epochs: BLOCK,
                failover_every: 2 * BLOCK,
                churn_every: None,
                churn_per_class: 0,
                verify_every: 1,
                epochs_per_s: 6.0,
            },
            Kind::Mixed => Spec {
                kind,
                classes: vec![Class::Disk, Class::Cpu, Class::Web],
                devices: 3 * MIXED_PER_CLASS,
                epoch_slices: 250,
                window: 2_000,
                horizon: 2_000.0,
                queue_bound: 0.5,
                cluster_divergence: 0.05,
                resolve_divergence: 0.0,
                warmup_epochs: 4,
                failover_every: 16,
                churn_every: Some(8),
                churn_per_class: 16,
                // Every cluster re-solves every epoch, so each check
                // re-verifies the whole fleet; sample it.
                verify_every: 32,
                epochs_per_s: 10.0,
            },
        }
    }

    fn config(&self, workers: usize) -> FleetConfig {
        FleetConfig::new()
            .adaptive(
                AdaptiveConfig::new()
                    .memory(MEMORY)
                    .smoothing(SMOOTHING)
                    .horizon(self.horizon)
                    .window(WindowKind::Sliding(self.window))
                    .max_performance_penalty(self.queue_bound),
            )
            .cluster_divergence(self.cluster_divergence)
            .resolve_divergence(self.resolve_divergence)
            .quiet_divergence(QUIET_GATE)
            .workers(workers)
    }

    fn discount(&self) -> f64 {
        1.0 - 1.0 / self.horizon
    }
}

/// Per-device arrival generator state of `fleet_mixed`.
#[derive(Debug, Clone)]
struct MixedDevice {
    regime: usize,
    /// Slices left in the current regime.
    left: usize,
    last: bool,
}

/// Seeded arrival generation for every device, epoch by epoch.
#[derive(Debug)]
enum Load {
    Racks {
        /// Block `k ≥ 1` surges rack `order[(k − 1) % RACKS]`.
        order: Vec<usize>,
        calm: Vec<u32>,
        surge: Vec<u32>,
    },
    Mixed {
        rng: Rng,
        devices: BTreeMap<u64, MixedDevice>,
    },
}

fn pattern((density, period): (usize, usize), phase: usize, slices: usize) -> Vec<u32> {
    (0..slices)
        .map(|i| u32::from((i + phase) % period < density))
        .collect()
}

impl Load {
    fn new(spec: &Spec, seed: u64) -> Self {
        let mut rng = Rng::new(seed, 0xF1);
        match spec.kind {
            Kind::Racks => {
                let mut order: Vec<usize> = (0..RACKS).collect();
                rng.shuffle(&mut order);
                let phase = rng.below(racks::CALM.1);
                Load::Racks {
                    order,
                    calm: pattern(racks::CALM, phase, spec.epoch_slices),
                    surge: pattern(racks::SURGE, phase, spec.epoch_slices),
                }
            }
            Kind::Mixed => Load::Mixed {
                rng,
                devices: BTreeMap::new(),
            },
        }
    }

    /// Whether rack device `raw` runs the surge pattern in `epoch`.
    fn surged(order: &[usize], raw: u64, epoch: usize) -> bool {
        let rack = raw as usize / PER_RACK;
        (epoch / BLOCK)
            .checked_sub(1)
            .and_then(|k| order.get(k % RACKS))
            .is_some_and(|&r| r == rack)
    }

    /// The epoch's arrival stream for every id in `ids`.
    fn epoch(
        &mut self,
        ids: &[DeviceId],
        epoch: usize,
        slices: usize,
    ) -> Vec<(DeviceId, Vec<u32>)> {
        match self {
            Load::Racks { order, calm, surge } => ids
                .iter()
                .map(|&id| {
                    let stream = if Self::surged(order, id.raw(), epoch) {
                        surge.clone()
                    } else {
                        calm.clone()
                    };
                    (id, stream)
                })
                .collect(),
            Load::Mixed { rng, devices } => ids
                .iter()
                .map(|&id| {
                    let device = devices.entry(id.raw()).or_insert_with(|| MixedDevice {
                        regime: rng.below(MIXED_REGIMES.len()),
                        left: rng.below(MIXED_DWELL.1),
                        last: false,
                    });
                    let mut stream = Vec::with_capacity(slices);
                    for _ in 0..slices {
                        if device.left == 0 {
                            device.regime = (device.regime + 1) % MIXED_REGIMES.len();
                            device.left = MIXED_DWELL.0 + rng.below(MIXED_DWELL.1 - MIXED_DWELL.0);
                        }
                        device.left -= 1;
                        let (p01, p11) = MIXED_REGIMES
                            .get(device.regime)
                            .copied()
                            .unwrap_or((0.0, 0.0));
                        let p = if device.last { p11 } else { p01 };
                        device.last = rng.unit() < p;
                        stream.push(u32::from(device.last));
                    }
                    (id, stream)
                })
                .collect(),
        }
    }

    fn forget(&mut self, id: DeviceId) {
        if let Load::Mixed { devices, .. } = self {
            devices.remove(&id.raw());
        }
    }
}

/// What the quiet gate must do with one device in one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gate {
    NotReady,
    Refit,
    Skip,
}

/// Transition counts `[n(0→0), n(0→1), n(1→0), n(1→1)]`.
type Counts = [f64; 4];

/// Adds `delta` to the count of the transition `from → to`.
fn tally(counts: &mut Counts, from: bool, to: bool, delta: f64) {
    let [n00, n01, n10, n11] = counts;
    let n = match (from, to) {
        (false, false) => n00,
        (false, true) => n01,
        (true, false) => n10,
        (true, true) => n11,
    };
    *n += delta;
}

/// One epoch's stream as the window sees it: the transitions between
/// its consecutive slices, and its first and last slice.
#[derive(Debug, Clone, Copy)]
struct Segment {
    counts: Counts,
    first: bool,
    last: bool,
}

impl Segment {
    fn of(stream: &[u32]) -> Option<Segment> {
        let (&head, rest) = stream.split_first()?;
        let mut counts = [0.0; 4];
        let mut prev = head > 0;
        for &a in rest {
            let bit = a > 0;
            tally(&mut counts, prev, bit, 1.0);
            prev = bit;
        }
        Some(Segment {
            counts,
            first: head > 0,
            last: prev,
        })
    }
}

/// An independent model of one device's sliding window, kept from the
/// generated streams: the window holds the last `capacity` epoch
/// streams (the window length is a whole number of epochs), and its
/// counts are the transitions between consecutive slices inside it.
#[derive(Debug, Clone)]
struct Window {
    segments: VecDeque<Segment>,
    capacity: usize,
    observed: u64,
    at_fit: Option<Counts>,
}

impl Window {
    fn new(capacity: usize) -> Self {
        Window {
            segments: VecDeque::with_capacity(capacity + 1),
            capacity,
            observed: 0,
            at_fit: None,
        }
    }

    fn feed(&mut self, stream: &[u32]) {
        if let Some(segment) = Segment::of(stream) {
            self.segments.push_back(segment);
            if self.segments.len() > self.capacity {
                self.segments.pop_front();
            }
        }
        self.observed += stream.len() as u64;
    }

    fn counts(&self) -> Counts {
        let mut counts = [0.0; 4];
        let mut prev: Option<bool> = None;
        for segment in &self.segments {
            if let Some(last) = prev {
                tally(&mut counts, last, segment.first, 1.0);
            }
            for (total, n) in counts.iter_mut().zip(segment.counts) {
                *total += n;
            }
            prev = Some(segment.last);
        }
        counts
    }

    /// Max-abs change of the smoothed busy probability per history
    /// state between two count tables.
    fn drift(now: Counts, then: Counts) -> f64 {
        let [a00, a01, a10, a11] = now;
        let [b00, b01, b10, b11] = then;
        let p = |n0: f64, n1: f64| (n1 + SMOOTHING) / (n0 + n1 + 2.0 * SMOOTHING);
        (p(a00, a01) - p(b00, b01))
            .abs()
            .max((p(a10, a11) - p(b10, b11)).abs())
    }

    /// The gate's decision after this epoch's stream was fed.
    fn decide(&mut self) -> Gate {
        if self.observed <= u64::from(MEMORY) {
            return Gate::NotReady;
        }
        let now = self.counts();
        match self.at_fit {
            Some(then) if Self::drift(now, then) <= QUIET_GATE => Gate::Skip,
            _ => {
                self.at_fit = Some(now);
                Gate::Refit
            }
        }
    }
}

/// The benchmark's own view of the live fleet: class per device, the
/// members of each class, the window model per device, and the arrival
/// generator.
#[derive(Debug)]
struct Fleet {
    spec: Spec,
    load: Load,
    class_of: BTreeMap<u64, Class>,
    /// Live devices per class, in `spec.classes` order.
    members: Vec<Vec<DeviceId>>,
    windows: BTreeMap<u64, Window>,
    epoch: usize,
}

impl Fleet {
    fn new(spec: &Spec, seed: u64) -> Self {
        Fleet {
            spec: spec.clone(),
            load: Load::new(spec, seed),
            class_of: BTreeMap::new(),
            members: vec![Vec::new(); spec.classes.len()],
            windows: BTreeMap::new(),
            epoch: 0,
        }
    }

    fn added(&mut self, id: DeviceId, class: Class) {
        self.class_of.insert(id.raw(), class);
        if let Some(k) = self.spec.classes.iter().position(|&c| c == class) {
            if let Some(members) = self.members.get_mut(k) {
                members.push(id);
            }
        }
        self.windows.insert(
            id.raw(),
            Window::new(self.spec.window / self.spec.epoch_slices),
        );
    }

    /// Draws a churn wave's victims: `per_class` seeded devices of every
    /// class, taken out of the member lists.
    fn draw_victims(&mut self, rng: &mut Rng, per_class: usize) -> Res<Vec<DeviceId>> {
        let mut victims = Vec::with_capacity(per_class * self.members.len());
        for members in &mut self.members {
            for _ in 0..per_class {
                if members.is_empty() {
                    return fail("churn on an empty class");
                }
                victims.push(members.remove(rng.below(members.len())));
            }
        }
        Ok(victims)
    }

    /// Forgets a removed device (its member-list entry went when it was
    /// drawn as a victim).
    fn removed(&mut self, id: DeviceId) {
        self.class_of.remove(&id.raw());
        self.windows.remove(&id.raw());
        self.load.forget(id);
    }

    /// The next epoch's arrivals for the service's devices.
    fn arrivals(&mut self, service: &FleetService) -> Vec<(DeviceId, Vec<u32>)> {
        self.load
            .epoch(service.device_ids(), self.epoch, self.spec.epoch_slices)
    }

    /// Feeds the window models and returns the expected
    /// `(gauge_skips, gauge_refits)` of the epoch.
    fn gate_counts(&mut self, arrivals: &[(DeviceId, Vec<u32>)]) -> (usize, usize) {
        let (mut skips, mut refits) = (0, 0);
        for (id, stream) in arrivals {
            if let Some(window) = self.windows.get_mut(&id.raw()) {
                window.feed(stream);
                match window.decide() {
                    Gate::Skip => skips += 1,
                    Gate::Refit => refits += 1,
                    Gate::NotReady => {}
                }
            }
        }
        self.epoch += 1;
        (skips, refits)
    }
}

/// The registered classes of a service, in registration order.
type Classes = Vec<(ClassId, Class)>;

/// A service with the spec's classes registered (no devices).
fn empty_service(spec: &Spec, workers: usize) -> Res<(FleetService, Classes)> {
    let mut service = FleetService::new(spec.config(workers));
    let mut classes = Vec::with_capacity(spec.classes.len());
    for &class in &spec.classes {
        let id = service.register_class(&class.base_system()?)?;
        classes.push((id, class));
    }
    Ok((service, classes))
}

/// Builds a fleet from scratch: classes, devices, warm-up epochs.
/// Returns the fleet and the seconds the service calls took (the
/// optional verifier's work is not counted).
fn bring_up(
    spec: &Spec,
    seed: u64,
    workers: usize,
    tracer: &mut Tracer,
    mut verify: Option<(&mut Verifier, &mut Vec<String>)>,
) -> Res<(FleetService, Classes, Fleet, f64)> {
    let mut fleet = Fleet::new(spec, seed);
    let watch = Stopwatch::start();
    let open = tracer.enter("runtime.register_class");
    let (mut service, classes) = empty_service(spec, workers)?;
    tracer.exit(open);
    let open = tracer.enter("runtime.add_device");
    let mut added = Vec::with_capacity(spec.devices);
    for d in 0..spec.devices {
        let Some(&(class_id, class)) = classes.get(d % classes.len().max(1)) else {
            return fail("fleet spec has no classes");
        };
        added.push((service.add_device(class_id)?, class));
    }
    tracer.exit(open);
    let mut secs = watch.secs();
    for (id, class) in added {
        fleet.added(id, class);
    }
    for epoch in 0..spec.warmup_epochs {
        let arrivals = fleet.arrivals(&service);
        let expected = fleet.gate_counts(&arrivals);
        let open = tracer.enter("runtime.run_epoch");
        let watch = Stopwatch::start();
        let report = service.run_epoch(&arrivals)?;
        secs += watch.secs();
        tracer.exit(open);
        if let Some((verifier, problems)) = verify.as_mut() {
            check_report(&report, expected, epoch, problems);
            verifier.verify(&service, &fleet, &report, problems)?;
        }
    }
    Ok((service, classes, fleet, secs))
}

/// A churn wave: removes `victims` and adds `per_class` new devices of
/// every class, so the class mix stays fixed. Only service calls happen
/// here; the caller updates its own view of the fleet afterwards.
fn churn(
    service: &mut FleetService,
    classes: &[(ClassId, Class)],
    victims: &[DeviceId],
    per_class: usize,
) -> Res<Vec<(DeviceId, Class)>> {
    for &victim in victims {
        service.remove_device(victim)?;
    }
    let mut added = Vec::with_capacity(per_class * classes.len());
    for &(class_id, class) in classes {
        for _ in 0..per_class {
            added.push((service.add_device(class_id)?, class));
        }
    }
    Ok(added)
}

/// Records a churn wave in the benchmark's view of the fleet.
fn churned(fleet: &mut Fleet, victims: &[DeviceId], added: Vec<(DeviceId, Class)>) {
    for &victim in victims {
        fleet.removed(victim);
    }
    for (id, class) in added {
        fleet.added(id, class);
    }
}

/// Checks a report against the counts derived from the streams and the
/// containment counters that must stay at zero.
fn check_report(
    report: &FleetReport,
    expected: (usize, usize),
    epoch: usize,
    problems: &mut Vec<String>,
) {
    if (report.gauge_skips, report.gauge_refits) != expected {
        problems.push(format!(
            "epoch {epoch}: gauge skips/refits {}/{} but the streams imply {}/{}",
            report.gauge_skips, report.gauge_refits, expected.0, expected.1
        ));
    }
    let trouble = report.infeasible + report.errors + report.holds + report.quarantined;
    if trouble > 0 {
        problems.push(format!(
            "epoch {epoch}: {} infeasible, {} errors, {} holds, {} quarantined",
            report.infeasible, report.errors, report.holds, report.quarantined
        ));
    }
}

/// Per-slice value of `policy` under `cost` on `system`, by a direct
/// linear solve.
fn evaluated(
    system: &SystemModel,
    cost: CostMetric,
    discount: f64,
    policy: &RandomizedPolicy,
) -> Res<f64> {
    let initial = system.point_distribution(SystemState {
        sp: 0,
        sr: 0,
        queue: 0,
    })?;
    let mdp = DiscountedMdp::new(system.chain().clone(), cost.matrix(system), discount)?;
    Ok(mdp.policy_value(policy, &initial)? * (1.0 - discount))
}

/// Address of a served policy: its identity while the Arc lives.
fn key(policy: &Arc<RandomizedPolicy>) -> usize {
    Arc::as_ptr(policy) as usize
}

/// Checks every policy the fleet serves against standalone solves.
///
/// A cluster's policy is the optimum for its representative's fitted
/// model at the epoch it was solved, and the representative is then a
/// member of the cluster. So when a policy first appears, evaluated by
/// a direct linear solve under some member's fitted model, it must meet
/// the queue bound at the optimal power of that model. The reference
/// optimum comes from the dense tableau `Simplex`, the engine the fleet
/// does not use: the default one-shot path can fall back to the
/// interior-point rescue, whose reported optimum is not reliable to
/// 1e-6. A verified policy keeps its evaluated power until it is
/// replaced (the event gate may hold a policy while fits drift within
/// `resolve_divergence`), which re-derives the report's `mean_power`.
#[derive(Debug, Default)]
struct Verifier {
    /// Policy address → (the policy, kept alive so the address is not
    /// reused; its verified standalone power).
    verified: BTreeMap<usize, (Arc<RandomizedPolicy>, f64)>,
    /// Standalone optimum per (class, fitted model).
    standalone: BTreeMap<Vec<u64>, f64>,
}

impl Verifier {
    /// Device `id`'s fitted model (as a key), the dense-simplex optimum
    /// for it, and the composed system.
    fn optimum(
        &mut self,
        service: &FleetService,
        fleet: &Fleet,
        id: DeviceId,
    ) -> Res<(Vec<u64>, f64, SystemModel)> {
        let (Some(fit), Some(&class)) = (service.fit_of(id), fleet.class_of.get(&id.raw())) else {
            return fail(format!("{id} has no fit or class"));
        };
        let system = class.compose(fit.clone())?;
        let mut model: Vec<u64> = vec![class as u64];
        let p = fit.chain().transition_matrix();
        for s in 0..fit.num_states() {
            model.extend(p.row(s).iter().map(|x| x.to_bits()));
        }
        if let Some(&power) = self.standalone.get(&model) {
            return Ok((model, power, system));
        }
        let power = PolicyOptimizer::new(&system)
            .discount(fleet.spec.discount())
            .max_performance_penalty(fleet.spec.queue_bound)
            .solver(SolverKind::Simplex)
            .solve()?
            .power_per_slice();
        self.standalone.insert(model.clone(), power);
        Ok((model, power, system))
    }

    /// Verifies the policies that appeared since the last call, then
    /// re-derives the report's mean power.
    fn verify(
        &mut self,
        service: &FleetService,
        fleet: &Fleet,
        report: &FleetReport,
        problems: &mut Vec<String>,
    ) -> Res<()> {
        let spec = &fleet.spec;
        let discount = spec.discount();
        let mut groups: BTreeMap<usize, (Arc<RandomizedPolicy>, Vec<DeviceId>)> = BTreeMap::new();
        // Ids are in the controller's device order, so dense indices
        // address the same devices without the id lookups.
        let controller = service.controller();
        for (index, &id) in service.device_ids().iter().enumerate() {
            if controller.device_cluster(index).is_none() {
                continue;
            }
            let policy = controller.device_policy(index);
            groups
                .entry(key(policy))
                .or_insert_with(|| (Arc::clone(policy), Vec::new()))
                .1
                .push(id);
        }
        for (address, (policy, members)) in &groups {
            if self.verified.contains_key(address) {
                continue;
            }
            let mut found = None;
            let mut tried: BTreeSet<Vec<u64>> = BTreeSet::new();
            let mut gaps: Vec<(f64, f64)> = Vec::new();
            for &id in members {
                let (model, power, system) = self.optimum(service, fleet, id)?;
                if !tried.insert(model) {
                    continue;
                }
                let served = evaluated(&system, CostMetric::Power, discount, policy)?;
                let queue = evaluated(&system, CostMetric::QueueOccupancy, discount, policy)?;
                if (served - power).abs() <= TOL && queue <= spec.queue_bound + TOL {
                    found = Some(served);
                    break;
                }
                gaps.push((served - power, queue));
            }
            match found {
                Some(power) => {
                    self.verified.insert(*address, (Arc::clone(policy), power));
                }
                None => {
                    problems.push(format!(
                        "epoch {}: the policy served to {} devices is, under no member's fitted \
                         model, within the queue bound at the power of a standalone solve \
                         ((power above the standalone optimum, queue) per model: {gaps:?})",
                        report.epoch,
                        members.len()
                    ));
                    return Ok(());
                }
            }
        }
        let mut sum = 0.0;
        let mut count = 0usize;
        for (address, (_, members)) in &groups {
            if let Some((_, power)) = self.verified.get(address) {
                sum += power * members.len() as f64;
                count += members.len();
            }
        }
        if count > 0 {
            let mean = sum / count as f64;
            match report.mean_power {
                Some(m) if (m - mean).abs() <= TOL => {}
                other => problems.push(format!(
                    "epoch {}: report mean power {other:?} but standalone solves give {mean}",
                    report.epoch
                )),
            }
        }
        // Forget policies no longer served.
        self.verified
            .retain(|address, _| groups.contains_key(address));
        Ok(())
    }

    /// After a restore that takes over from `live`: checks the restored
    /// policies, and carries verified powers over to the restored copies.
    fn carry_over(
        &mut self,
        live: &FleetService,
        restored: &FleetService,
        problems: &mut Vec<String>,
    ) {
        check_restored(live, restored, problems);
        let mut carried = BTreeMap::new();
        for &id in live.device_ids() {
            if let (Some(old), Some(new)) = (live.policy(id), restored.policy(id)) {
                if let Some((_, power)) = self.verified.get(&key(old)) {
                    carried.insert(key(new), (Arc::clone(new), *power));
                }
            }
        }
        self.verified = carried;
    }
}

/// After a restore: every device's restored policy must equal the live
/// one.
fn check_restored(live: &FleetService, restored: &FleetService, problems: &mut Vec<String>) {
    for &id in live.device_ids() {
        match (live.policy(id), restored.policy(id)) {
            (Some(old), Some(new)) if old == new => {}
            (Some(_), Some(_)) => {
                problems.push(format!("{id}: restored policy differs from the live one"));
            }
            _ => problems.push(format!("{id}: missing policy across restore")),
        }
    }
}

/// Input seed of the pre-timing check scenario. Fixed, so the checks
/// see the same inputs in every run whatever `--seed` is.
const CHECK_SEED: u64 = 0x5EED;

/// What the restore-identity check found: restore points tried, and
/// those whose next epoch differed from the uninterrupted service's.
#[derive(Debug, Clone, Copy, Default)]
struct RestoreIdentity {
    tried: u64,
    diverged: u64,
}

/// Runs the same epochs on a 1-worker and a 2-worker service and
/// compares every report, verifying the 2-worker service's policies as
/// they appear. Before every epoch it also checkpoints the 2-worker
/// service, restores the snapshot into a fresh service and runs the
/// epoch on it too.
///
/// Each such restore point is one operation of the run:
/// `FleetService` promises that the epoch after a restore reports
/// exactly what the uninterrupted service reports. On `fleet_mixed` it
/// does not at some restore points (the restored clusters re-solve from
/// a different basis and spend a pivot more or less). The scenario is
/// fixed, so the same restore points diverge in every run; they are
/// counted as failed operations rather than hidden.
fn check_determinism(spec: &Spec, problems: &mut Vec<String>) -> Res<RestoreIdentity> {
    let mut quiet = Tracer::new(false);
    let mut verifier = Verifier::default();
    let (mut one, classes, mut fleet_one, _) = bring_up(spec, CHECK_SEED, 1, &mut quiet, None)?;
    let (mut two, _, mut fleet_two, _) = bring_up(
        spec,
        CHECK_SEED,
        2,
        &mut quiet,
        Some((&mut verifier, &mut *problems)),
    )?;
    let mut churn_rng = Rng::new(CHECK_SEED, 0xC4);
    let mut identity = RestoreIdentity::default();
    for epoch in 0..CHECK_EPOCHS {
        if let Some(every) = spec.churn_every {
            if epoch % every == every - 1 {
                let victims = fleet_one.draw_victims(&mut churn_rng, spec.churn_per_class)?;
                fleet_two.draw_victims(&mut churn_rng.clone(), spec.churn_per_class)?;
                let added = churn(&mut one, &classes, &victims, spec.churn_per_class)?;
                churned(&mut fleet_one, &victims, added);
                let added = churn(&mut two, &classes, &victims, spec.churn_per_class)?;
                churned(&mut fleet_two, &victims, added);
            }
        }
        let mut snapshot = Vec::new();
        two.checkpoint(&mut snapshot)?;
        let (mut restored, _) = empty_service(spec, 2)?;
        restored.restore(&mut snapshot.as_slice())?;
        check_restored(&two, &restored, problems);
        let arrivals = fleet_one.arrivals(&one);
        let expected = fleet_one.gate_counts(&arrivals);
        fleet_two.gate_counts(&arrivals);
        let a = one.run_epoch(&arrivals)?;
        let b = two.run_epoch(&arrivals)?;
        let r = restored.run_epoch(&arrivals)?;
        check_report(&a, expected, epoch, problems);
        if a != b {
            problems.push(format!(
                "epoch {epoch}: 1-worker and 2-worker reports differ"
            ));
        }
        verifier.verify(&two, &fleet_two, &b, problems)?;
        identity.tried += 1;
        if r != b {
            identity.diverged += 1;
            eprintln!(
                "dpm-perfbench: check epoch {epoch} after restore differs from the live \
                 service's\n  live:     {b:?}\n  restored: {r:?}"
            );
        }
    }
    Ok(identity)
}

/// Traced runs only: the trace layer's fit cost, timed by feeding the
/// same windows the fleet's first devices see to standalone estimators.
#[derive(Debug)]
struct FitProbe {
    estimators: Vec<(DeviceId, WindowedEstimator)>,
}

impl FitProbe {
    const DEVICES: usize = 16;

    fn new(spec: &Spec, service: &FleetService) -> Res<Self> {
        let mut estimators = Vec::with_capacity(Self::DEVICES);
        for &id in service.device_ids().iter().take(Self::DEVICES) {
            let extractor = SrExtractor::try_new(MEMORY)?.with_smoothing(SMOOTHING);
            estimators.push((
                id,
                WindowedEstimator::new(extractor, WindowKind::Sliding(spec.window))?,
            ));
        }
        Ok(FitProbe { estimators })
    }

    fn feed(&mut self, arrivals: &[(DeviceId, Vec<u32>)], tracer: &mut Tracer) {
        for (id, estimator) in &mut self.estimators {
            let Some((_, stream)) = arrivals.iter().find(|(a, _)| a == id) else {
                continue;
            };
            for &a in stream {
                estimator.observe(a);
            }
            if estimator.is_ready() {
                let open = tracer.enter("trace.fit");
                let fitted = estimator.fit();
                tracer.exit(open);
                std::hint::black_box(fitted.ok());
            }
        }
    }
}

/// Runs a fleet workload.
pub fn run(kind: Kind, args: &Args, tracer: &mut Tracer) -> Res<Outcome> {
    let spec = Spec::new(kind);
    if spec.window % spec.epoch_slices != 0 {
        return fail("the window model needs a window of whole epochs");
    }
    let workers = MEASURED_WORKERS;
    let mut problems = Vec::new();

    // Checks first, on a fixed scenario: worker-count determinism, the
    // quiet gate, served policies, and the snapshot round trip.
    let run_watch = Stopwatch::start();
    let identity = check_determinism(&spec, &mut problems)?;
    let checks_done = run_watch.secs();

    // Set-up: classes, devices and warm-up epochs to a ready fleet;
    // repeated, median. The last bring-up is the live service, whose
    // policies are verified from its first epoch on.
    let mut verifier = Verifier::default();
    let mut setup = Vec::with_capacity(2 * SETUP_REPEATS);
    let mut live = None;
    for rep in 0..SETUP_REPEATS {
        let verify = (rep + 1 == SETUP_REPEATS).then_some((&mut verifier, &mut problems));
        let (service, classes, fleet, secs) = bring_up(&spec, args.seed, workers, tracer, verify)?;
        setup.push(secs);
        live = Some((service, classes, fleet));
    }
    let Some((mut service, classes, mut fleet)) = live else {
        return fail("no set-up ran");
    };
    let (mut standby, _) = empty_service(&spec, workers)?;

    let mut layers = Layers::default();
    if tracer.enabled() {
        let mut compose = Vec::new();
        let mut prepare = Vec::new();
        for &class in &spec.classes {
            let watch = Stopwatch::start();
            let system = class.base_system()?;
            compose.push(watch.ms());
            let watch = Stopwatch::start();
            let prepared = PolicyOptimizer::new(&system)
                .discount(spec.discount())
                .max_performance_penalty(spec.queue_bound)
                .prepare()?;
            prepare.push(watch.ms());
            std::hint::black_box(prepared);
        }
        layers.compose_ms = stats::median(&compose);
        layers.prepare_ms = stats::median(&prepare);
    }
    let mut probe = if tracer.enabled() {
        Some(FitProbe::new(&spec, &service)?)
    } else {
        None
    };

    let setup_done = run_watch.secs();
    // Measured phase: whole failover periods, sized from --seconds.
    let periods =
        ((args.seconds * spec.epochs_per_s / spec.failover_every as f64).round() as usize).max(2);
    let epochs = periods * spec.failover_every;
    let mut churn_rng = Rng::new(args.seed, 0xC4);
    let mut op_ms = Vec::with_capacity(epochs);
    let mut quiet_ms = Vec::new();
    let mut shift_ms = Vec::new();
    let mut reports: Vec<FleetReport> = Vec::with_capacity(epochs);
    let mut churn_ms = Vec::new();
    let mut checkpoint_ms = Vec::new();
    let mut restore_ms = Vec::new();
    let mut ttp_ms = Vec::new();
    let mut snapshot_bytes = Vec::new();
    let mut replayed = Vec::new();
    let mut device_epochs = 0usize;
    let mut failed = 0u64;
    for epoch in 0..epochs {
        if let Some(every) = spec.churn_every {
            if epoch % every == every - 1 {
                let victims = fleet.draw_victims(&mut churn_rng, spec.churn_per_class)?;
                let open = tracer.enter("runtime.churn");
                let watch = Stopwatch::start();
                let added = churn(&mut service, &classes, &victims, spec.churn_per_class)?;
                churn_ms.push(watch.ms());
                tracer.exit(open);
                churned(&mut fleet, &victims, added);
            }
        }
        let arrivals = fleet.arrivals(&service);
        let expected = fleet.gate_counts(&arrivals);
        let open = tracer.enter("op");
        let inner = tracer.enter("runtime.run_epoch");
        let watch = Stopwatch::start();
        let result = service.run_epoch(&arrivals);
        let ms = watch.ms();
        tracer.exit(inner);
        tracer.exit(open);
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                eprintln!("dpm-perfbench: epoch {epoch} failed: {e}");
                failed += 1;
                continue;
            }
        };
        op_ms.push(ms);
        if report.gauge_refits == 0 {
            quiet_ms.push(ms);
        } else {
            shift_ms.push(ms);
        }
        device_epochs += report.devices;
        check_report(&report, expected, epoch, &mut problems);
        if epoch % spec.verify_every == 0 || epoch + 1 == epochs {
            verifier.verify(&service, &fleet, &report, &mut problems)?;
        }
        if let Some(probe) = probe.as_mut() {
            probe.feed(&arrivals, tracer);
        }
        reports.push(report);

        if epoch % spec.failover_every == spec.failover_every - 1 {
            let open = tracer.enter("snapshot.checkpoint");
            let watch = Stopwatch::start();
            let mut snapshot = Vec::new();
            service.checkpoint(&mut snapshot)?;
            checkpoint_ms.push(watch.ms());
            tracer.exit(open);
            snapshot_bytes.push(snapshot.len() as f64);
            let open = tracer.enter("snapshot.restore");
            let watch = Stopwatch::start();
            let restored = standby.restore(&mut snapshot.as_slice())?;
            let restore = watch.ms();
            let serving = service
                .device_ids()
                .iter()
                .all(|&id| standby.policy(id).is_some());
            let ttp = watch.ms();
            tracer.exit(open);
            if !serving || standby.device_ids() != service.device_ids() {
                problems.push(format!(
                    "epoch {epoch}: restored fleet does not serve every device"
                ));
            }
            restore_ms.push(restore);
            ttp_ms.push(ttp);
            replayed.push(restored.replayed_solves as f64);
            verifier.carry_over(&service, &standby, &mut problems);
            std::mem::swap(&mut service, &mut standby);
        }
    }

    eprintln!(
        "dpm-perfbench: {}: checks {checks_done:.1} s, set-up {:.1} s, measured {:.1} s \
         ({epochs} epochs)",
        args.workload,
        setup_done - checks_done,
        run_watch.secs() - setup_done,
    );
    for _ in 0..SETUP_REPEATS {
        setup.push(bring_up(&spec, args.seed, workers, tracer, None)?.3);
    }
    let busy_ms: f64 = op_ms
        .iter()
        .chain(&churn_ms)
        .chain(&checkpoint_ms)
        .chain(&restore_ms)
        .sum();
    let powers: Vec<f64> = reports.iter().filter_map(|r| r.mean_power).collect();
    let mut end_to_end = Metrics::default();
    end_to_end.put("setup_s", stats::median(&setup), "s");
    end_to_end.put("op_ms_p50", stats::median(&op_ms), "ms");
    end_to_end.put("op_ms_tail", stats::tail(&op_ms), "ms");
    end_to_end.put("work_per_s", device_epochs as f64 / (busy_ms / 1e3), "1/s");
    end_to_end.put("time_to_policy_ms", stats::median(&ttp_ms), "ms");
    end_to_end.put("power_w", stats::mean(&powers), "W");
    end_to_end.put("peak_rss_mb", crate::peak_rss_mb()?, "MB");

    let per_epoch = |f: fn(&FleetReport) -> usize| -> f64 {
        stats::mean(&reports.iter().map(|r| f(r) as f64).collect::<Vec<_>>())
    };
    let solves: usize = reports.iter().map(|r| r.solves).sum();
    let pivots: usize = reports.iter().map(|r| r.pivots).sum();
    let reuses: usize = reports.iter().map(|r| r.symbolic_reuses).sum();
    layers.warm_pivots = if solves > 0 {
        pivots as f64 / solves as f64
    } else {
        0.0
    };
    layers.symbolic_reuse = if solves > 0 {
        reuses as f64 / solves as f64
    } else {
        0.0
    };
    layers.fit_ms = stats::median(&tracer.durations_ms("trace.fit"));
    layers.epoch_quiet_ms = stats::median(&quiet_ms);
    layers.gauge_skips = per_epoch(|r| r.gauge_skips);
    layers.epoch_shift_ms = stats::median(&shift_ms);
    layers.gauge_refits = per_epoch(|r| r.gauge_refits);
    layers.evictions = per_epoch(|r| r.evictions);
    layers.cluster_solves = per_epoch(|r| r.solves);
    layers.held_solves = per_epoch(|r| r.skipped);
    layers.warm_reloads = per_epoch(|r| r.warm_reloads);
    layers.cold_reloads = per_epoch(|r| r.cold_reloads);
    layers.pivots = per_epoch(|r| r.pivots);
    layers.churn_ms = stats::median(&churn_ms);
    layers.checkpoint_ms = stats::median(&checkpoint_ms);
    layers.snapshot_bytes = stats::median(&snapshot_bytes);
    layers.restore_ms = stats::median(&restore_ms);
    layers.replayed_solves = stats::mean(&replayed);
    let per_layer = layers.metrics(tracer);

    Ok(Outcome {
        correct: problems.is_empty(),
        problems,
        attempted: epochs as u64 + identity.tried,
        failed: failed + identity.diverged,
        end_to_end,
        per_layer,
    })
}
