//! Deterministic fault injection: which workers leave a run, and when.
//!
//! Micro-clouds lose and regain capacity over time (PAPER §2); the
//! simulator expresses that with [`dlion_simnet::PiecewiseConst`]
//! dynamism schedules, and the live backend expresses it with worker
//! churn — a `dlion-worker` departing (and optionally rejoining)
//! mid-run. A [`FaultPlan`] is the shared description both backends
//! consume (`RunConfig::fault`, `--kill`), with one meaning on both: a
//! permanent kill broadcasts a `Payload::Leave` and is seeded into the
//! ledger ([`crate::Membership::planned`]); a rejoining one pauses the
//! worker — it stops stepping, keeps receiving and stays a member.
//!
//! Kill specs are written `W@I` ("worker W leaves when it reaches
//! iteration I") with an optional `+R` suffix ("…or, instead of leaving,
//! pauses there for R seconds and resumes"), comma-separated: `1@20`,
//! `1@20+0.5,3@40`.
//! Iteration-indexed kills are what makes live churn *reproducible*:
//! every worker knows the exact departure iteration, so every survivor
//! renormalizes at the same round regardless of wall-clock timing (see
//! `dlion-net`'s driver).

/// One worker's scheduled departure.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KillSpec {
    /// Worker id that leaves.
    pub worker: usize,
    /// The worker departs when its completed-iteration count reaches
    /// this value (it finishes rounds `0..at_iter`, then leaves).
    pub at_iter: u64,
    /// Seconds the worker pauses before it rejoins (virtual seconds in the
    /// simulator, clock seconds live); `None` = the departure is
    /// permanent.
    pub rejoin_after: Option<f64>,
}

/// A run's worth of scheduled departures (empty = no faults).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    pub kills: Vec<KillSpec>,
}

impl FaultPlan {
    /// Parse a comma-separated kill list: `W@I` or `W@I+R`.
    pub fn parse(s: &str) -> Result<FaultPlan, String> {
        let mut kills = Vec::new();
        for spec in s.split(',').filter(|p| !p.is_empty()) {
            let (worker, rest) = spec
                .split_once('@')
                .ok_or_else(|| format!("kill spec '{spec}' is not worker@iter"))?;
            let worker: usize = worker
                .parse()
                .map_err(|_| format!("bad worker id in kill spec '{spec}'"))?;
            let (iter, rejoin) = match rest.split_once('+') {
                Some((i, r)) => {
                    let r: f64 = r
                        .parse()
                        .map_err(|_| format!("bad rejoin delay in kill spec '{spec}'"))?;
                    if r < 0.0 || !r.is_finite() {
                        return Err(format!("rejoin delay must be finite and >= 0 in '{spec}'"));
                    }
                    (i, Some(r))
                }
                None => (rest, None),
            };
            let at_iter: u64 = iter
                .parse()
                .map_err(|_| format!("bad iteration in kill spec '{spec}'"))?;
            kills.push(KillSpec {
                worker,
                at_iter,
                rejoin_after: rejoin,
            });
        }
        Ok(FaultPlan { kills })
    }

    /// Render back to the `--kill` argument syntax (process spawning).
    pub fn render(&self) -> String {
        self.kills
            .iter()
            .map(|k| match k.rejoin_after {
                Some(r) => format!("{}@{}+{r}", k.worker, k.at_iter),
                None => format!("{}@{}", k.worker, k.at_iter),
            })
            .collect::<Vec<_>>()
            .join(",")
    }

    pub fn is_empty(&self) -> bool {
        self.kills.is_empty()
    }

    /// The kill scheduled for `worker`, if any.
    pub fn kill_of(&self, worker: usize) -> Option<KillSpec> {
        self.kills.iter().copied().find(|k| k.worker == worker)
    }

    /// Sanity-check a plan against a cluster of `n` workers running
    /// `iters` iterations: ids in range, at most one kill per worker,
    /// kills after at least one completed round and before the run ends
    /// (a kill at `iters` would never fire), and at least one survivor.
    pub fn validate(&self, n: usize, iters: u64) -> Result<(), String> {
        let mut seen = vec![false; n];
        for k in &self.kills {
            if k.worker >= n {
                return Err(format!("kill names worker {} of {n}", k.worker));
            }
            if seen[k.worker] {
                return Err(format!("worker {} is killed twice", k.worker));
            }
            seen[k.worker] = true;
            if k.at_iter == 0 {
                return Err(format!(
                    "worker {} killed at iteration 0 (must complete at least one round)",
                    k.worker
                ));
            }
            if k.at_iter >= iters {
                return Err(format!(
                    "worker {} killed at iteration {} >= run length {iters}",
                    k.worker, k.at_iter
                ));
            }
        }
        let permanent = self
            .kills
            .iter()
            .filter(|k| k.rejoin_after.is_none())
            .count();
        if n > 0 && permanent >= n {
            return Err("plan kills every worker".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_kills_and_rejoins() {
        let p = FaultPlan::parse("1@20").unwrap();
        assert_eq!(
            p.kills,
            vec![KillSpec {
                worker: 1,
                at_iter: 20,
                rejoin_after: None
            }]
        );
        let p = FaultPlan::parse("1@20+0.5,3@40").unwrap();
        assert_eq!(p.kills.len(), 2);
        assert_eq!(p.kill_of(1).unwrap().rejoin_after, Some(0.5));
        assert_eq!(p.kill_of(3).unwrap().at_iter, 40);
        assert_eq!(p.kill_of(0), None);
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn parse_round_trips_through_render() {
        for s in ["1@20", "1@20+0.5,3@40", "2@5+0"] {
            let p = FaultPlan::parse(s).unwrap();
            assert_eq!(FaultPlan::parse(&p.render()).unwrap(), p);
        }
    }

    #[test]
    fn rejects_malformed_specs() {
        for s in ["1", "@5", "x@5", "1@y", "1@5+z", "1@5+-1"] {
            assert!(FaultPlan::parse(s).is_err(), "accepted '{s}'");
        }
    }

    #[test]
    fn validation_catches_bad_plans() {
        let ok = FaultPlan::parse("1@5").unwrap();
        assert!(ok.validate(3, 10).is_ok());
        assert!(ok.validate(1, 10).is_err(), "worker out of range");
        assert!(ok.validate(3, 5).is_err(), "kill at/after run end");
        assert!(FaultPlan::parse("1@0").unwrap().validate(3, 10).is_err());
        assert!(FaultPlan::parse("1@2,1@3")
            .unwrap()
            .validate(3, 10)
            .is_err());
        assert!(FaultPlan::parse("0@2,1@3")
            .unwrap()
            .validate(2, 10)
            .is_err());
        // A rejoining worker is not a permanent loss.
        assert!(FaultPlan::parse("0@2+1,1@3")
            .unwrap()
            .validate(2, 10)
            .is_ok());
    }
}
