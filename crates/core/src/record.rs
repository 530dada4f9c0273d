//! One rank record and its one fold (DESIGN.md §4m). Every rank, simulated
//! or live, keeps a [`WorkerOutcome`] as its own state
//! ([`Worker::record`]). The round core counts where things happen: Σ `dt`
//! in `complete_round`, messages and DKT merges in `on_payload`. A backend
//! prices each send through [`WorkerOutcome::sent`] (the network model's
//! bytes on the simulator, exact frame lengths live), pushes its
//! evaluation points ([`Worker::push_eval`]) and takes the record at the
//! end of the run with [`Worker::take_record`]. [`assemble_metrics`] folds a run's records into
//! [`RunMetrics`] on both backends; a live rank's record crosses a process
//! boundary as one JSON line ([`WorkerOutcome::to_json`]).

use crate::config::RunConfig;
use crate::messages::WIRE_LABELS;
use crate::metrics::{HealthSummary, RunMetrics};
use crate::worker::Worker;
use dlion_nn::EvalResult;
use dlion_telemetry::json::{self, Json};
use dlion_tensor::Tensor;

/// One periodic (or final) evaluation of a rank's model.
#[derive(Clone, Copy, Debug)]
pub struct EvalPoint {
    /// Iterations completed when the evaluation ran.
    pub iteration: u64,
    /// When it ran: virtual seconds on the simulator, wall seconds since
    /// the cluster epoch live.
    pub wall: f64,
    pub accuracy: f64,
    pub loss: f64,
}

/// One rank's record of its run.
#[derive(Debug, Default)]
pub struct WorkerOutcome {
    pub id: usize,
    pub iterations: u64,
    /// Seconds spent computing gradients: wall seconds live, the virtual
    /// steps (`train_secs`) on the simulator.
    pub busy_secs: f64,
    /// When the rank finished: wall seconds since the cluster epoch live,
    /// the virtual end time on the simulator.
    pub wall_secs: f64,
    pub msgs_sent: u64,
    pub msgs_recv: u64,
    /// Bytes sent by payload kind: the network model's bytes on the
    /// simulator, exact encoded frame lengths live.
    pub grad_bytes: f64,
    pub weight_bytes: f64,
    pub control_bytes: f64,
    /// Bytes of net-only control frames (ack/done/rcp), live only — overhead
    /// the simulator does not model, kept out of the counters above.
    pub net_overhead_bytes: f64,
    /// Exact encoded bytes sent per wire label, in [`WIRE_LABELS`] order —
    /// one-for-one comparable between the backends.
    pub wire_bytes: [f64; WIRE_LABELS.len()],
    pub dkt_merges: u64,
    /// This rank left the run early (a permanent planned kill). It reports
    /// no final evaluation or weights, and the fold leaves it out of every
    /// evaluation row.
    pub departed: bool,
    pub evals: Vec<EvalPoint>,
    /// Every GBS change this rank's batching decided, as `(nominal round
    /// time, new GBS)`: the round's scheduled boundary, not the instant the
    /// exchange completed, so identical schedules give bit-identical traces.
    pub gbs_trace: Vec<(f64, usize)>,
    /// Every LBS repartition, as `(nominal time, per-worker shares)`; a
    /// worker that was not a member of the round holds share 0.
    pub lbs_trace: Vec<(f64, Vec<usize>)>,
    /// Training-clock seconds, Σ `dt` over the rank's iterations (virtual
    /// on the simulator, pinnable live through `assumed_iter_time`): the
    /// health verdict's rates are `iterations / train_secs`.
    pub train_secs: f64,
    /// Final weight tensors, when `cfg.capture_weights` is on.
    pub final_weights: Option<Vec<Tensor>>,
}

impl WorkerOutcome {
    /// Price one sent payload: `kind` is its [`crate::Payload::kind`],
    /// `slot` its [`crate::messages::wire_slot`], `bytes` what the kind
    /// counters charge and `encoded` its exact encoded length.
    pub fn sent(&mut self, kind: &str, slot: usize, bytes: f64, encoded: f64) {
        self.msgs_sent += 1;
        match kind {
            "grad" => self.grad_bytes += bytes,
            "weights" => self.weight_bytes += bytes,
            _ => self.control_bytes += bytes,
        }
        self.wire_bytes[slot] += encoded;
    }

    /// The labels that carried bytes, with their totals.
    fn wire_bytes_by_kind(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        WIRE_LABELS
            .into_iter()
            .zip(self.wire_bytes)
            .filter(|&(_, b)| b > 0.0)
    }

    /// One-line JSON for crossing a process boundary (`dlion-worker` →
    /// `dlion-live --transport procs`). Final weights are deliberately not
    /// serialized — weight capture is an in-process (test) facility.
    pub fn to_json(&self) -> String {
        fn list<T>(items: impl IntoIterator<Item = T>, item: impl FnMut(T) -> String) -> String {
            items.into_iter().map(item).collect::<Vec<_>>().join(",")
        }
        let num = |v: f64| {
            let mut s = String::new();
            json::f64_into(v, &mut s);
            s
        };
        let mut s = format!(
            "{{\"id\":{},\"iterations\":{},\"msgs_sent\":{},\"msgs_recv\":{},\"dkt_merges\":{},\"departed\":{}",
            self.id, self.iterations, self.msgs_sent, self.msgs_recv, self.dkt_merges,
            self.departed
        );
        for (key, v) in [
            ("busy_secs", self.busy_secs),
            ("wall_secs", self.wall_secs),
            ("train_secs", self.train_secs),
            ("grad_bytes", self.grad_bytes),
            ("weight_bytes", self.weight_bytes),
            ("control_bytes", self.control_bytes),
            ("net_overhead_bytes", self.net_overhead_bytes),
        ] {
            s.push_str(&format!(",\"{key}\":{}", num(v)));
        }
        let buckets = list(self.wire_bytes_by_kind(), |(label, v)| {
            format!("\"{label}\":{}", num(v))
        });
        let evals = list(&self.evals, |e| {
            let (it, wall, acc, loss) = (e.iteration, num(e.wall), num(e.accuracy), num(e.loss));
            format!("{{\"iteration\":{it},\"wall\":{wall},\"accuracy\":{acc},\"loss\":{loss}}}")
        });
        let gbs = list(&self.gbs_trace, |&(t, g)| format!("[{},{g}]", num(t)));
        let lbs = list(&self.lbs_trace, |(t, p)| format!("[{},{p:?}]", num(*t)));
        s + &format!(
            ",\"wire_bytes_by_kind\":{{{buckets}}},\"evals\":[{evals}],\"gbs_trace\":[{gbs}],\"lbs_trace\":[{lbs}]}}"
        )
    }

    /// Parse [`WorkerOutcome::to_json`] output. Parent and child are always
    /// the same build: every field `to_json` writes is required.
    pub fn from_json(line: &str) -> Result<WorkerOutcome, String> {
        let v = json::parse(line)?;
        let int = |key: &str| num(&v, key).map(|x| x as u64);
        let float = |key: &str| num(&v, key);
        let Some(&Json::Bool(departed)) = v.get("departed") else {
            return Err("missing departed".into());
        };
        let mut out = WorkerOutcome {
            id: int("id")? as usize,
            iterations: int("iterations")?,
            msgs_sent: int("msgs_sent")?,
            msgs_recv: int("msgs_recv")?,
            dkt_merges: int("dkt_merges")?,
            busy_secs: float("busy_secs")?,
            wall_secs: float("wall_secs")?,
            grad_bytes: float("grad_bytes")?,
            weight_bytes: float("weight_bytes")?,
            control_bytes: float("control_bytes")?,
            net_overhead_bytes: float("net_overhead_bytes")?,
            train_secs: float("train_secs")?,
            departed,
            ..Default::default()
        };
        let arr = |key: &str| match v.get(key) {
            Some(Json::Arr(items)) => Ok(items),
            _ => Err(format!("missing {key}")),
        };
        let Some(Json::Obj(buckets)) = v.get("wire_bytes_by_kind") else {
            return Err("missing wire_bytes_by_kind".into());
        };
        for (label, val) in buckets {
            let bad = || format!("bad wire_bytes_by_kind[{label}]");
            let slot = WIRE_LABELS.iter().position(|&l| l == label.as_str());
            out.wire_bytes[slot.ok_or_else(bad)?] = val.as_f64().ok_or_else(bad)?;
        }
        for e in arr("evals")? {
            out.evals.push(EvalPoint {
                iteration: num(e, "iteration")? as u64,
                wall: num(e, "wall")?,
                accuracy: num(e, "accuracy")?,
                loss: num(e, "loss")?,
            });
        }
        // A trace row is `[nominal time, value]`.
        let rows = |key: &str| -> Result<Vec<(f64, &Json)>, String> {
            let bad = || format!("bad {key} row");
            let rows = arr(key)?.iter().map(|r| match r {
                Json::Arr(p) if p.len() == 2 => p[0].as_f64().map(|t| (t, &p[1])),
                _ => None,
            });
            rows.map(|r| r.ok_or_else(bad)).collect()
        };
        for (t, gbs) in rows("gbs_trace")? {
            out.gbs_trace
                .push((t, gbs.as_f64().ok_or("bad gbs_trace value")? as usize));
        }
        for (t, shares) in rows("lbs_trace")? {
            let parts: Option<Vec<usize>> = match shares {
                Json::Arr(ps) => ps.iter().map(|p| p.as_f64().map(|x| x as usize)).collect(),
                _ => None,
            };
            out.lbs_trace.push((t, parts.ok_or("bad lbs_trace")?));
        }
        Ok(out)
    }
}

/// `v[key]` as a number.
fn num(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing {key}"))
}

impl Worker {
    /// Log an evaluation of this rank's model, run at `wall`, in its record.
    pub fn push_eval(&mut self, wall: f64, r: EvalResult) -> EvalPoint {
        let point = EvalPoint {
            iteration: self.iteration,
            wall,
            accuracy: r.accuracy,
            loss: r.loss,
        };
        self.record.evals.push(point);
        point
    }

    /// The end-of-run take, on both backends, after the backend's final
    /// evaluation (which settles the update log: on the simulator inside
    /// its pool jobs): the record, with the final weights if
    /// `capture_weights` — a departed rank's slot stays empty, its model
    /// being whatever it was at departure — the batching traces, the
    /// iteration count and the departed flag.
    pub fn take_record(&mut self, capture_weights: bool) -> WorkerOutcome {
        let departed = self.departed();
        let mut r = std::mem::take(&mut self.record);
        if capture_weights && !departed {
            self.settle(drop);
            r.final_weights = Some(self.model.weights());
        }
        (r.id, r.iterations, r.departed) = (self.id, self.iteration, departed);
        r.gbs_trace = std::mem::take(&mut self.batching.gbs_trace);
        r.lbs_trace = std::mem::take(&mut self.batching.lbs_trace);
        r
    }
}

/// Fold a run's rank records into [`RunMetrics`], on both backends. Times
/// are the backend's clock (virtual on the simulator, wall seconds since
/// the cluster epoch live); byte counts are what the records priced.
/// Evaluation rows hold the ranks that finished the run: a departed rank is
/// in none of them. The verdict's rates are on the training clock
/// (`train_secs`), so under a pinned iteration time the whole health summary
/// is bit-comparable across repeat runs, transports and the simulator.
pub fn assemble_metrics(
    cfg: &RunConfig,
    env_label: &str,
    mut outcomes: Vec<WorkerOutcome>,
) -> RunMetrics {
    outcomes.sort_by_key(|o| o.id);
    let mut m = RunMetrics {
        system: cfg.system.name(),
        env: env_label.to_string(),
        seed: cfg.seed,
        iterations: outcomes.iter().map(|o| o.iterations).collect(),
        busy_time: outcomes.iter().map(|o| o.busy_secs).collect(),
        ..Default::default()
    };
    m.duration = outcomes.iter().map(|o| o.wall_secs).fold(0.0, f64::max);
    for o in &outcomes {
        m.grad_bytes += o.grad_bytes;
        m.weight_bytes += o.weight_bytes;
        m.control_bytes += o.control_bytes;
        m.dkt_merges += o.dkt_merges;
        for (label, bytes) in o.wire_bytes_by_kind() {
            *m.wire_bytes_by_kind.entry(label.to_owned()).or_insert(0.0) += bytes;
        }
    }
    // Every member decides every batching round from the same RCPs, so any
    // one full member's copy is *the* trace: the first rank that finished.
    let survivors: Vec<&WorkerOutcome> = outcomes.iter().filter(|o| !o.departed).collect();
    if let Some(rep) = survivors.first() {
        m.gbs_trace = rep.gbs_trace.clone();
        m.lbs_trace = rep.lbs_trace.clone();
    }
    // The survivors evaluate at the same points (the simulator's ticks, or
    // `eval_every` plus the final evaluation live); a row's time is the
    // latest survivor's clock at that point.
    let rows = survivors.iter().map(|o| o.evals.len()).min().unwrap_or(0);
    for e in 0..rows {
        let points: Vec<EvalPoint> = survivors.iter().map(|o| o.evals[e]).collect();
        let field = |f: fn(&EvalPoint) -> f64| points.iter().map(f);
        m.eval_times.push(field(|p| p.wall).fold(0.0, f64::max));
        m.worker_acc.push(field(|p| p.accuracy).collect());
        m.worker_loss.push(field(|p| p.loss).collect());
    }
    if cfg.capture_weights {
        m.final_weights = outcomes
            .iter_mut()
            .map(|o| o.final_weights.take().unwrap_or_default())
            .collect();
    }
    let departed = outcomes.iter().map(|o| o.departed).collect();
    // Iterations per training-clock second (0 for a rank that never stepped).
    let rate = |o: &WorkerOutcome| o.iterations as f64 / o.train_secs;
    let rates = outcomes
        .iter()
        .map(|o| if o.train_secs > 0.0 { rate(o) } else { 0.0 });
    m.health = HealthSummary::compute(rates.collect(), departed);
    if cfg.telemetry {
        let tm = &mut m.telemetry;
        for o in &outcomes {
            tm.add("msgs_sent", o.msgs_sent);
            tm.add("msgs_recv", o.msgs_recv);
            let sent = o.grad_bytes + o.weight_bytes + o.control_bytes;
            tm.add("bytes_sent", sent as u64);
            tm.add("net_overhead_bytes", o.net_overhead_bytes as u64);
            tm.add("dkt_merges", o.dkt_merges);
            tm.observe("worker_busy_secs", o.busy_secs);
        }
        // Cluster-wide controller activity is counted once, not per rank.
        tm.add("gbs_adjusts", m.gbs_trace.len() as u64);
        tm.add("lbs_repartitions", m.lbs_trace.len() as u64);
        tm.gauge_max("workers", outcomes.len() as f64);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemKind;

    fn wire(pairs: &[(&str, f64)]) -> [f64; WIRE_LABELS.len()] {
        WIRE_LABELS.map(|l| pairs.iter().find(|p| p.0 == l).map_or(0.0, |p| p.1))
    }

    fn outcome(id: usize) -> WorkerOutcome {
        WorkerOutcome {
            id,
            iterations: 10,
            busy_secs: 1.0 + id as f64,
            wall_secs: 5.0 + id as f64,
            msgs_sent: 20,
            msgs_recv: 20,
            grad_bytes: 1000.0,
            weight_bytes: 0.0,
            control_bytes: 50.0,
            net_overhead_bytes: 200.0,
            dkt_merges: 1,
            departed: false,
            evals: vec![EvalPoint {
                iteration: 10,
                wall: 4.0 + id as f64,
                accuracy: 0.5,
                loss: 1.0,
            }],
            gbs_trace: vec![(0.25, 160)],
            lbs_trace: vec![(0.0, vec![32, 32]), (0.25, vec![80, 80])],
            wire_bytes: wire(&[("grad_dense", 1000.0), ("control", 50.0)]),
            train_secs: 0.5,
            ..Default::default()
        }
    }

    fn cfg() -> RunConfig {
        RunConfig::small_test(SystemKind::Baseline)
    }

    #[test]
    fn outcome_json_round_trips() {
        let out = WorkerOutcome {
            id: 2,
            iterations: 30,
            busy_secs: 1.5,
            wall_secs: 2.25,
            msgs_sent: 60,
            msgs_recv: 58,
            grad_bytes: 123456.0,
            weight_bytes: 0.0,
            control_bytes: 28.0,
            net_overhead_bytes: 1160.0,
            dkt_merges: 1,
            departed: false,
            evals: vec![EvalPoint {
                iteration: 30,
                wall: 2.0,
                accuracy: 0.375,
                loss: 1.875,
            }],
            gbs_trace: vec![(0.25, 160), (0.5, 240)],
            lbs_trace: vec![(0.0, vec![32, 32, 32]), (0.25, vec![54, 53, 53])],
            wire_bytes: wire(&[("grad_dense", 123456.0), ("control", 28.0)]),
            train_secs: 1.5,
            final_weights: None,
        };
        let back = WorkerOutcome::from_json(&out.to_json()).unwrap();
        assert_eq!(back.id, 2);
        assert_eq!(back.train_secs, 1.5);
        assert_eq!(back.gbs_trace, vec![(0.25, 160), (0.5, 240)]);
        assert_eq!(back.lbs_trace.len(), 2);
        assert_eq!(back.lbs_trace[1], (0.25, vec![54, 53, 53]));
        assert_eq!(back.iterations, 30);
        assert_eq!(back.msgs_sent, 60);
        assert_eq!(back.busy_secs, 1.5);
        assert_eq!(back.net_overhead_bytes, 1160.0);
        assert_eq!(back.evals.len(), 1);
        assert_eq!(back.evals[0].accuracy, 0.375);
        assert!(!back.departed);
        assert_eq!(back.wire_bytes, out.wire_bytes);
        assert!(back.final_weights.is_none());
    }

    #[test]
    fn departed_outcome_round_trips() {
        let out = WorkerOutcome {
            id: 1,
            iterations: 20,
            departed: true,
            ..Default::default()
        };
        let back = WorkerOutcome::from_json(&out.to_json()).unwrap();
        assert!(back.departed);
        assert_eq!(back.iterations, 20);
        assert!(back.evals.is_empty());
    }

    #[test]
    fn outcome_json_rejects_garbage() {
        assert!(WorkerOutcome::from_json("not json").is_err());
        assert!(WorkerOutcome::from_json("{\"id\":1}").is_err());
        // A line without `departed` is not a survivor: it is not a record.
        let line = WorkerOutcome::default().to_json();
        let headless = line.replace(",\"departed\":false", "");
        assert_ne!(headless, line);
        assert!(WorkerOutcome::from_json(&headless).is_err());
        // Nor is a byte bucket no wire label names.
        let odd = line.replace(
            "\"wire_bytes_by_kind\":{}",
            "\"wire_bytes_by_kind\":{\"x\":1}",
        );
        assert!(WorkerOutcome::from_json(&odd).is_err());
    }

    #[test]
    fn a_send_is_priced_once_by_kind_and_by_label() {
        let mut r = WorkerOutcome::default();
        r.sent("grad", 2, 500.0, 520.0);
        r.sent("dkt_request", 5, 20.0, 20.0);
        assert_eq!(r.msgs_sent, 2);
        assert_eq!((r.grad_bytes, r.control_bytes), (500.0, 20.0));
        assert_eq!(
            r.wire_bytes,
            wire(&[("grad_fp16", 520.0), ("control", 20.0)])
        );
    }

    #[test]
    fn metrics_assembly_sums_and_orders() {
        // Out-of-order outcomes must land in id order.
        let m = assemble_metrics(&cfg(), "live/2w", vec![outcome(1), outcome(0)]);
        assert_eq!(m.iterations, vec![10, 10]);
        assert_eq!(m.busy_time, vec![1.0, 2.0]);
        assert_eq!(m.grad_bytes, 2000.0);
        assert_eq!(m.control_bytes, 100.0);
        assert_eq!(m.dkt_merges, 2);
        assert_eq!(m.duration, 6.0);
        assert_eq!(m.eval_times, vec![5.0]);
        assert_eq!(m.worker_acc, vec![vec![0.5, 0.5]]);
        assert_eq!(m.env, "live/2w");
        // Cluster-wide trajectory: one representative copy, not a sum.
        assert_eq!(m.gbs_trace, vec![(0.25, 160)]);
        assert_eq!(m.lbs_trace.len(), 2);
        // Exactly the labels that carried bytes.
        let keys: Vec<_> = m.wire_bytes_by_kind.keys().collect();
        assert_eq!(keys, ["control", "grad_dense"]);
        assert_eq!(m.wire_bytes_by_kind["grad_dense"], 2000.0);
        assert_eq!(m.wire_bytes_by_kind["control"], 100.0);
        assert!(m.telemetry.is_empty());
    }

    #[test]
    fn departed_workers_excluded_from_eval_rows() {
        // Survivors evaluate twice; a departed rank stopped evaluating when
        // it left (after one evaluation, or before any). Neither its points
        // nor its shorter list may shape a row: the row count is the
        // survivors', and each row holds the survivors only.
        let survivor = |id| {
            let mut o = outcome(id);
            let later = EvalPoint {
                iteration: 20,
                wall: 9.0,
                ..o.evals[0]
            };
            o.evals.push(later);
            o
        };
        for kept in [1, 0] {
            let mut dead = outcome(1);
            dead.departed = true;
            dead.evals.truncate(kept);
            let m = assemble_metrics(&cfg(), "live/3w", vec![survivor(0), dead, survivor(2)]);
            assert_eq!(m.eval_times, vec![6.0, 9.0], "departed rank kept {kept}");
            assert_eq!(m.worker_acc, vec![vec![0.5, 0.5]; 2]);
            assert_eq!(m.worker_loss, vec![vec![1.0, 1.0]; 2]);
            // Per-worker scalar columns still cover everyone.
            assert_eq!(m.iterations.len(), 3);
        }
    }

    #[test]
    fn health_summary_scores_rates_and_records_departures() {
        let mut slow = outcome(2);
        slow.train_secs = 1.5; // rate 6.67 vs the others' 20
        let mut gone = outcome(1);
        gone.departed = true;
        let m = assemble_metrics(&cfg(), "live/3w", vec![outcome(0), gone, slow]);
        assert_eq!(m.health.straggler, 2);
        assert!((m.health.straggler_score - 3.0).abs() < 1e-12);
        assert!((m.health.rates[0] - 20.0).abs() < 1e-12);
        assert_eq!(m.health.departed, vec![false, true, false]);
    }

    #[test]
    fn telemetry_aggregation_when_enabled() {
        let mut cfg = cfg();
        cfg.telemetry = true;
        let m = assemble_metrics(&cfg, "live/2w", vec![outcome(0), outcome(1)]);
        assert_eq!(m.telemetry.counter("msgs_sent"), 40);
        assert_eq!(m.telemetry.counter("bytes_sent"), 2100);
        assert_eq!(m.telemetry.counter("net_overhead_bytes"), 400);
        assert_eq!(m.telemetry.counter("gbs_adjusts"), 1);
        assert_eq!(m.telemetry.counter("lbs_repartitions"), 2);
    }
}
