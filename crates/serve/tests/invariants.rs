//! Property-style invariants for the serving front door.
//!
//! Three families, each checked across a seeded loop rather than a single
//! hand-picked case:
//!
//! 1. The admission bound is hard — no offered load pushes queue depth past
//!    capacity.
//! 2. Conservation — `served + shed + rejected == offered` for every seed,
//!    policy, and arrival process.
//! 3. Reproducibility — seeded Poisson and bursty traces are bit-identical
//!    across generations, and so are whole serving runs.

use gpu_sim::Gpu;
use serve::{
    attention_topologies, generate, run, Admission, AdmissionQueue, ArrivalProcess, OpKind,
    Request, ServePolicy, TrafficConfig,
};

fn small_policy() -> ServePolicy {
    ServePolicy {
        queue_capacity: 16,
        max_batch: 4,
        batch_window_us: 25.0,
        p99_budget_us: 4_000.0,
        ..ServePolicy::default()
    }
}

fn traffic(seed: u64, process: ArrivalProcess, n: usize) -> Vec<Request> {
    generate(&TrafficConfig {
        seed,
        process,
        requests: n,
        deadline_us: 3_000.0,
        sddmm_fraction: 0.3,
        topologies: 2,
    })
}

/// Queue-level property: random offer/drain sequences never exceed the
/// bound, and the high-water mark records it faithfully.
#[test]
fn admission_bound_is_never_exceeded() {
    for seed in 0..20u64 {
        let cap = 1 + (seed as usize % 7);
        let mut q = AdmissionQueue::new(cap);
        let mut rng = sparse::rng::SplitMix64::new(seed ^ 0xA11CE);
        let mut admitted = 0u64;
        let mut rejected = 0u64;
        for id in 0..200u64 {
            let r = Request {
                id,
                arrival_us: id as f64,
                deadline_us: id as f64 + 50.0,
                op: if id % 3 == 0 {
                    OpKind::Sddmm
                } else {
                    OpKind::Spmm
                },
                topology: (id % 2) as usize,
            };
            match q.try_admit(r) {
                Admission::Admitted => admitted += 1,
                Admission::Rejected => rejected += 1,
                Admission::Shed => unreachable!("the queue itself never sheds"),
            }
            assert!(q.len() <= cap, "depth {} exceeded bound {cap}", q.len());
            // Randomly drain a window or expire, like the scheduler would.
            if rng.next_f64() < 0.4 {
                let op = if rng.next_f64() < 0.5 {
                    OpKind::Spmm
                } else {
                    OpKind::Sddmm
                };
                q.take_window(op, (rng.next_u64() % 2) as usize, 3);
            }
            if rng.next_f64() < 0.1 {
                q.take_expired(id as f64);
            }
            assert!(q.max_depth() <= cap);
        }
        assert_eq!(admitted + rejected, 200);
    }
}

/// End-to-end property: every offered request gets exactly one typed
/// outcome, under light and crushing load, for both arrival processes.
#[test]
fn conservation_holds_across_seeds_and_processes() {
    let gpu = Gpu::v100();
    let topologies = attention_topologies(128, 32, 7);
    let policy = small_policy();
    for seed in 0..4u64 {
        for process in [
            ArrivalProcess::Poisson {
                rate_per_s: 5_000.0,
            },
            ArrivalProcess::Poisson {
                rate_per_s: 500_000.0,
            },
            ArrivalProcess::Bursty {
                rate_per_s: 800_000.0,
                on_us: 200.0,
                off_us: 2_000.0,
            },
        ] {
            let reqs = traffic(seed, process, 120);
            let report = run(&gpu, &topologies, &policy, &reqs).expect("serving must not error");
            assert_eq!(
                report.served + report.shed + report.rejected,
                report.offered,
                "conservation broke for seed {seed} process {process:?}"
            );
            assert_eq!(report.lost(), 0);
            assert!(
                report.max_queue_depth <= policy.queue_capacity,
                "queue bound violated: {} > {}",
                report.max_queue_depth,
                policy.queue_capacity
            );
            assert_eq!(report.latency.count() as u64, report.served);
            assert_eq!(report.rung_counts.iter().sum::<u64>(), report.served);
        }
    }
}

/// Overload must produce typed outcomes, not silence: a bursty trace at
/// ~40x the servable rate has to shed or reject something, and still serve
/// something.
#[test]
fn overload_sheds_or_rejects_but_still_serves() {
    let gpu = Gpu::v100();
    let topologies = attention_topologies(128, 32, 7);
    let policy = small_policy();
    let reqs = traffic(
        42,
        ArrivalProcess::Bursty {
            rate_per_s: 2_000_000.0,
            on_us: 500.0,
            off_us: 100.0,
        },
        300,
    );
    let report = run(&gpu, &topologies, &policy, &reqs).expect("serving must not error");
    assert!(report.served > 0, "overload starved everything");
    assert!(
        report.shed + report.rejected > 0,
        "40x overload produced no typed overflow outcomes"
    );
    assert_eq!(report.lost(), 0);
}

/// Backpressure path: with a queue too large for the bound to mask policy
/// and a tight p99 budget, overload must surface as door-shedding — typed
/// `Shed`, zero `Rejected`.
#[test]
fn tight_budget_sheds_at_the_door_before_the_bound() {
    let gpu = Gpu::v100();
    let topologies = attention_topologies(128, 32, 7);
    let policy = ServePolicy {
        queue_capacity: 512,
        max_batch: 4,
        batch_window_us: 25.0,
        p99_budget_us: 250.0,
        ..ServePolicy::default()
    };
    let reqs = traffic(
        9,
        ArrivalProcess::Poisson {
            rate_per_s: 1_000_000.0,
        },
        300,
    );
    let report = run(&gpu, &topologies, &policy, &reqs).expect("serving must not error");
    assert!(report.shed > 0, "tight budget never shed");
    assert_eq!(report.rejected, 0, "the bound fired before backpressure");
    assert_eq!(report.lost(), 0);
}

/// Deadline path: requests whose deadline expires while queued are shed,
/// not served late and not lost.
#[test]
fn expired_requests_are_shed_not_served() {
    let gpu = Gpu::v100();
    let topologies = attention_topologies(128, 32, 7);
    let policy = ServePolicy {
        queue_capacity: 64,
        max_batch: 4,
        batch_window_us: 25.0,
        p99_budget_us: 1e9, // backpressure off: only expiry can shed
        ..ServePolicy::default()
    };
    let reqs = generate(&TrafficConfig {
        seed: 13,
        process: ArrivalProcess::Bursty {
            rate_per_s: 2_000_000.0,
            on_us: 400.0,
            off_us: 100.0,
        },
        requests: 200,
        deadline_us: 120.0,
        sddmm_fraction: 0.3,
        topologies: 2,
    });
    let report = run(&gpu, &topologies, &policy, &reqs).expect("serving must not error");
    assert!(
        report.shed > 0,
        "no queued request expired under a 120us deadline"
    );
    assert_eq!(report.lost(), 0);
    assert_eq!(report.latency.count() as u64, report.served);
}

/// Seeded traces are bit-reproducible: same config ⇒ identical ids, ops,
/// topologies, and bit-identical arrival instants.
#[test]
fn traces_are_bit_reproducible() {
    for seed in [1u64, 99, 0xDEAD] {
        for process in [
            ArrivalProcess::Poisson {
                rate_per_s: 20_000.0,
            },
            ArrivalProcess::Bursty {
                rate_per_s: 300_000.0,
                on_us: 150.0,
                off_us: 900.0,
            },
        ] {
            let a = traffic(seed, process, 250);
            let b = traffic(seed, process, 250);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.id, y.id);
                assert_eq!(x.op, y.op);
                assert_eq!(x.topology, y.topology);
                assert_eq!(
                    x.arrival_us.to_bits(),
                    y.arrival_us.to_bits(),
                    "arrival drift at id {} (seed {seed})",
                    x.id
                );
                assert_eq!(x.deadline_us.to_bits(), y.deadline_us.to_bits());
            }
        }
    }
    // Different seeds must actually differ (the generator is not stuck).
    let a = traffic(
        1,
        ArrivalProcess::Poisson {
            rate_per_s: 20_000.0,
        },
        50,
    );
    let b = traffic(
        2,
        ArrivalProcess::Poisson {
            rate_per_s: 20_000.0,
        },
        50,
    );
    assert!(a.iter().zip(&b).any(|(x, y)| x.arrival_us != y.arrival_us));
}

/// Whole serving runs are deterministic: identical seed and policy produce
/// bit-identical latency distributions and identical outcome counts.
#[test]
fn serving_runs_are_deterministic() {
    let gpu = Gpu::v100();
    let topologies = attention_topologies(128, 32, 7);
    let policy = small_policy();
    let reqs = traffic(
        7,
        ArrivalProcess::Poisson {
            rate_per_s: 100_000.0,
        },
        150,
    );
    let r1 = run(&gpu, &topologies, &policy, &reqs).expect("serving must not error");
    let r2 = run(&gpu, &topologies, &policy, &reqs).expect("serving must not error");
    assert_eq!(r1.served, r2.served);
    assert_eq!(r1.shed, r2.shed);
    assert_eq!(r1.rejected, r2.rejected);
    assert_eq!(r1.batches, r2.batches);
    assert_eq!(r1.latency.p99().to_bits(), r2.latency.p99().to_bits());
    assert_eq!(r1.sim_end_us.to_bits(), r2.sim_end_us.to_bits());
}

/// Bursty traces respect their off-windows: no arrival may land inside a
/// silent gap.
#[test]
fn bursty_arrivals_avoid_off_windows() {
    let on_us = 100.0;
    let off_us = 1_000.0;
    let reqs = traffic(
        5,
        ArrivalProcess::Bursty {
            rate_per_s: 400_000.0,
            on_us,
            off_us,
        },
        300,
    );
    let period = on_us + off_us;
    for r in &reqs {
        let phase = r.arrival_us % period;
        assert!(
            phase <= on_us + 1e-6,
            "request {} arrived {:.2} us into a {:.0} us off-window",
            r.id,
            phase - on_us,
            off_us
        );
    }
    // And they must be monotone.
    for w in reqs.windows(2) {
        assert!(w[0].arrival_us <= w[1].arrival_us);
    }
}
