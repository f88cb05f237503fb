//! Property tests for the wire v1.2 verbs: `cosched` and `stats`
//! requests and their reports round-trip through format → parse for
//! arbitrary tenant counts, selectors, weights, SLOs and counter
//! values — the encoding identity the solver service's golden fixtures
//! rely on.

use pipeline_model::io::{
    format_cosched, format_report, format_stats, parse_cosched_at, parse_report, parse_stats_at,
    WireCosched, WireCoschedReport, WireReport, WireStats, WireStatsReport,
};
use proptest::prelude::*;

/// The tenant-selector pool: `None` is the wire token `-` (default
/// instance), paths carry the characters the format allows (no spaces,
/// commas or `=`).
fn selector_from(draw: usize) -> Option<String> {
    match draw % 4 {
        0 => None,
        1 => Some("a.pw".to_string()),
        2 => Some("tenants/b.pw".to_string()),
        _ => Some("zoo-3.pw".to_string()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `format_cosched` → `parse_cosched_at` is the identity for every
    /// combination of selectors and the optional index-aligned vectors.
    #[test]
    fn prop_cosched_wire_round_trips(
        id in 0u64..1_000_000,
        objective_idx in 0usize..3,
        selectors in proptest::collection::vec(0usize..4, 1..5),
        with_weights in 0usize..2,
        weights in proptest::collection::vec(1e-3f64..1e3, 5),
        with_slos in 0usize..2,
        slos in proptest::collection::vec(0usize..3, 5),
        strategy_idx in 0usize..4,
        tolerance in proptest::collection::vec(1e-9f64..1.0, 1),
        with_tolerance in 0usize..2,
    ) {
        let k = selectors.len();
        let req = WireCosched {
            id,
            objective: ["max-min", "weighted-sum", "slo"][objective_idx].to_string(),
            tenants: selectors.iter().map(|&d| selector_from(d)).collect(),
            weights: (with_weights == 1).then(|| weights[..k].to_vec()),
            slos: (with_slos == 1).then(|| {
                slos[..k]
                    .iter()
                    .map(|&d| (d > 0).then(|| f64::from(d as u32) * 1.5))
                    .collect()
            }),
            strategy: ["auto", "best", "exact", "h3"][strategy_idx].to_string(),
            tolerance: (with_tolerance == 1).then(|| tolerance[0]),
        };
        let line = format_cosched(&req);
        prop_assert_eq!(parse_cosched_at(&line, 0).expect("round trip"), req, "{}", line);
    }

    /// `stats` requests round-trip (the verb carries only the id).
    #[test]
    fn prop_stats_wire_round_trips(id in 0u64..u64::MAX) {
        let req = WireStats { id };
        let line = format_stats(&req);
        prop_assert_eq!(parse_stats_at(&line, 0).expect("round trip"), req, "{}", line);
    }

    /// Cosched reports — partition groups, per-tenant periods, latencies
    /// and SLO verdicts — survive format → parse bit-for-bit.
    #[test]
    fn prop_cosched_reports_round_trip(
        id in 0u64..1_000_000,
        objective_idx in 0usize..3,
        score in 1e-6f64..1e6,
        tiebreak in 1e-6f64..1e6,
        group_sizes in proptest::collection::vec(1usize..4, 1..4),
        periods in proptest::collection::vec(1e-6f64..1e6, 4),
        latencies in proptest::collection::vec(1e-6f64..1e6, 4),
        slo_met_draws in proptest::collection::vec(0usize..2, 4),
    ) {
        let k = group_sizes.len();
        let slo_met: Vec<bool> = slo_met_draws.iter().map(|&d| d == 1).collect();
        // Distinct ascending processor ids per group, disjoint across
        // groups — the shape real co-schedules put on the wire.
        let mut next_proc = 0usize;
        let partition: Vec<Vec<usize>> = group_sizes
            .iter()
            .map(|&size| {
                let group: Vec<usize> = (next_proc..next_proc + size).collect();
                next_proc += size;
                group
            })
            .collect();
        let feasible = slo_met[..k].iter().all(|&m| m);
        let report = WireReport::Cosched(WireCoschedReport {
            id,
            objective: ["max-min", "weighted-sum", "slo"][objective_idx].to_string(),
            score,
            tiebreak,
            feasible,
            partition,
            periods: periods[..k].to_vec(),
            latencies: latencies[..k].to_vec(),
            slo_met: slo_met[..k].to_vec(),
        });
        let line = format_report(&report);
        prop_assert_eq!(parse_report(&line).expect("round trip"), report, "{}", line);
    }

    /// Stats reports round-trip for arbitrary counter values.
    #[test]
    fn prop_stats_reports_round_trip(
        id in 0u64..1_000_000,
        counters in proptest::collection::vec(0u64..u64::MAX, 9),
    ) {
        let report = WireReport::Stats(WireStatsReport {
            id,
            live: counters[0],
            connections: counters[1],
            rejected: counters[2],
            requests: counters[3],
            failures: counters[4],
            cache_hits: counters[5],
            cache_misses: counters[6],
            cache_evictions: counters[7],
            uptime_s: counters[8],
        });
        let line = format_report(&report);
        prop_assert_eq!(parse_report(&line).expect("round trip"), report, "{}", line);
    }
}
