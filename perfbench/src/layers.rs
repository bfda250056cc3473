//! The per-layer metrics of the traced run, in `BENCHMARK.json` order.
//!
//! Every traced run reports every name; a metric that a workload does not
//! exercise reads 0 (see the table in `perfbench/README.md`). Host-time
//! metrics (`_s`) are seconds per pass, taken from the traced run's spans.

pub const PER_LAYER: &[(&str, &str)] = &[
    // sparse
    ("sparse.generate_s", "s"),
    ("sparse.fingerprint_s", "s"),
    ("sparse.lut_build_s", "s"),
    ("sparse.lut_dead_frac", "frac"),
    // gpu-sim
    ("gpu-sim.profile_s", "s"),
    ("gpu-sim.dedup_ratio", "frac"),
    ("gpu-sim.blocks_simulated", "count"),
    ("gpu-sim.cache_lookup_s", "s"),
    ("gpu-sim.cache_hit_ratio", "frac"),
    ("gpu-sim.cache_entries", "count"),
    ("gpu-sim.audit_s", "s"),
    ("gpu-sim.sanitize_s", "s"),
    ("gpu-sim.launch_s", "s"),
    ("gpu-sim.replay_s", "s"),
    ("gpu-sim.fleet.makespan_us", "us"),
    ("gpu-sim.fleet.busy_us", "us"),
    ("gpu-sim.fleet.idle_us", "us"),
    ("gpu-sim.fleet.transfer_us", "us"),
    ("gpu-sim.fleet.eff", "frac"),
    // core
    ("core.spmm_sim_us", "us"),
    ("core.sddmm_sim_us", "us"),
    ("core.speedup_vs_cusparse", "x"),
    ("core.paper_err_pct", "%"),
    ("core.fused", "bool"),
    ("core.fused_sim_us", "us"),
    ("core.fused_s", "s"),
    ("core.shard_spmm_s", "s"),
    ("core.shard_sddmm_s", "s"),
    ("core.joint_s", "s"),
    ("core.joint_sim_us", "us"),
    ("core.joint_skip_frac", "frac"),
    ("core.dispatch_window_s", "s"),
    // baselines
    ("baselines.cusparse_sim_us", "us"),
    // serve: latency and rate
    ("serve.p50_us.mid", "us"),
    ("serve.p99_us.light", "us"),
    ("serve.p99_us.mid", "us"),
    ("serve.p99_us.heavy", "us"),
    ("serve.max_rate_rps", "1/s"),
    // serve: one block per rate point
    ("serve.offered.light", "count"),
    ("serve.served.light", "count"),
    ("serve.shed.light", "count"),
    ("serve.rejected.light", "count"),
    ("serve.batches.light", "count"),
    ("serve.mean_batch.light", "count"),
    ("serve.max_queue_depth.light", "count"),
    ("serve.generate_s.light", "s"),
    ("serve.run_s.light", "s"),
    ("serve.generator_late_us.light", "us"),
    ("serve.offered.mid", "count"),
    ("serve.served.mid", "count"),
    ("serve.shed.mid", "count"),
    ("serve.rejected.mid", "count"),
    ("serve.batches.mid", "count"),
    ("serve.mean_batch.mid", "count"),
    ("serve.max_queue_depth.mid", "count"),
    ("serve.generate_s.mid", "s"),
    ("serve.run_s.mid", "s"),
    ("serve.generator_late_us.mid", "us"),
    ("serve.offered.heavy", "count"),
    ("serve.served.heavy", "count"),
    ("serve.shed.heavy", "count"),
    ("serve.rejected.heavy", "count"),
    ("serve.batches.heavy", "count"),
    ("serve.mean_batch.heavy", "count"),
    ("serve.max_queue_depth.heavy", "count"),
    ("serve.generate_s.heavy", "s"),
    ("serve.run_s.heavy", "s"),
    ("serve.generator_late_us.heavy", "us"),
    // the traced run itself
    ("trace.overhead_frac", "frac"),
    ("trace.coverage", "frac"),
];

#[cfg(test)]
mod tests {
    use super::PER_LAYER;

    /// `BENCHMARK.json` at the repository root lists the same per-layer
    /// names and units, in the same order.
    #[test]
    fn matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let section = text.split("\"per_layer\"").nth(1).unwrap();
        let mut listed = Vec::new();
        for entry in section.split("\"name\": \"").skip(1) {
            let name = entry.split('"').next().unwrap();
            let unit = entry
                .split("\"unit\": \"")
                .nth(1)
                .and_then(|u| u.split('"').next())
                .unwrap();
            listed.push((name.to_string(), unit.to_string()));
        }
        let ours: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed, ours);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
    }
}
