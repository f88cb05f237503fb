//! Executable versions of the paper's complexity results.
//!
//! * **Theorem 1** (NMWTS → Hetero-1D-Partition): the gadget instance
//!   achieves bound `K = 1` iff the source NMWTS instance is solvable,
//!   and a `K = 1` partition decodes back to a matching.
//! * **Theorem 2** (Hetero-1D-Partition → period minimization): with all
//!   communication volumes zero and `b = 1`, the pipeline period
//!   minimization problem *is* the partitioning problem — the exact
//!   pipeline solver and the exact chains solver must agree.
//! * **Lemma 1**: latency minimization is the single-fastest-processor
//!   mapping.

use pipeline_workflows::chains::nmwts::{
    decode_matching, reduce, solve_nmwts_brute, NmwtsInstance,
};
use pipeline_workflows::chains::{hetero_exact_bnb, ChainPartition};
use pipeline_workflows::core::exact::exact_min_period_in;
use pipeline_workflows::core::SolveWorkspace;
use pipeline_workflows::model::{Application, CostModel, IntervalMapping, Platform};
use proptest::prelude::*;

#[test]
fn theorem1_forward_and_backward_on_small_instances() {
    let solvable = [
        NmwtsInstance::new(vec![1, 2], vec![2, 1], vec![3, 3]),
        NmwtsInstance::new(vec![1, 1], vec![2, 2], vec![3, 3]),
        NmwtsInstance::new(vec![2, 3], vec![1, 4], vec![3, 7]),
    ];
    for inst in &solvable {
        assert!(
            solve_nmwts_brute(inst).is_some(),
            "fixture must be solvable"
        );
        let red = reduce(inst);
        let sol = hetero_exact_bnb(&red.tasks, &red.speeds, 500_000_000)
            .expect("gadget solvable within budget");
        assert!(sol.objective <= 1.0 + 1e-9, "bound K=1 must be achievable");
        let (s1, s2) = decode_matching(&red, &sol).expect("K=1 solutions decode");
        assert!(
            inst.check(&s1, &s2),
            "decoded permutations must solve NMWTS"
        );
    }

    let unsolvable = [
        NmwtsInstance::new(vec![1, 3], vec![1, 3], vec![3, 5]),
        NmwtsInstance::new(vec![2, 2], vec![2, 2], vec![3, 5]),
    ];
    for inst in &unsolvable {
        assert!(inst.sums_balanced(), "fixtures keep Σx+Σy=Σz");
        assert!(
            solve_nmwts_brute(inst).is_none(),
            "fixture must be unsolvable"
        );
        let red = reduce(inst);
        let sol =
            hetero_exact_bnb(&red.tasks, &red.speeds, 500_000_000).expect("gadget within budget");
        assert!(
            sol.objective > 1.0 + 1e-9,
            "unsolvable NMWTS must force the bound above 1, got {}",
            sol.objective
        );
    }
}

#[test]
fn theorem2_zero_comm_pipeline_equals_hetero_partitioning() {
    // The reduction of Theorem 2, run in both directions through our two
    // exact solvers.
    let cases: Vec<(Vec<f64>, Vec<f64>)> = vec![
        (vec![3.0, 1.0, 4.0, 1.0, 5.0], vec![2.0, 3.0]),
        (vec![10.0, 1.0, 1.0, 10.0], vec![5.0, 1.0, 5.0]),
        (vec![2.0, 2.0, 2.0, 2.0, 2.0, 2.0], vec![1.0, 2.0, 3.0]),
    ];
    for (works, speeds) in cases {
        let n = works.len();
        let app = Application::new(works.clone(), vec![0.0; n + 1]).unwrap();
        let pf = Platform::comm_homogeneous(speeds.clone(), 1.0).unwrap();
        let cm = CostModel::new(&app, &pf);
        let (pipeline_opt, _) = exact_min_period_in(&cm, &mut SolveWorkspace::new());
        let chains_opt = hetero_exact_bnb(&works, &speeds, 100_000_000)
            .expect("within budget")
            .objective;
        assert!(
            (pipeline_opt - chains_opt).abs() < 1e-9,
            "pipeline exact {pipeline_opt} != chains exact {chains_opt}"
        );
    }
}

#[test]
fn lemma1_fastest_processor_is_latency_optimal() {
    let app = Application::new(vec![5.0, 9.0, 2.0, 7.0], vec![3.0, 1.0, 4.0, 1.0, 5.0]).unwrap();
    let pf = Platform::comm_homogeneous(vec![3.0, 8.0, 5.0], 10.0).unwrap();
    let cm = CostModel::new(&app, &pf);
    let lemma1 = IntervalMapping::all_on_fastest(&app, &pf);
    let l_star = cm.latency(&lemma1);
    // Exhaustive check over all interval mappings (n = 4, p = 3).
    let front =
        pipeline_workflows::core::exact::exact_pareto_front_in(&cm, &mut SolveWorkspace::new());
    let best_front_latency = front
        .latencies()
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    assert!(
        (best_front_latency - l_star).abs() < 1e-9,
        "some mapping beat the Lemma-1 latency: {best_front_latency} < {l_star}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Theorem 2 reduction as a property: on zero-communication
    /// instances the two exact solvers agree.
    #[test]
    fn prop_theorem2_reduction_agrees(
        works in proptest::collection::vec(0.5_f64..20.0, 2..7),
        speeds in proptest::collection::vec(1.0_f64..10.0, 1..4),
    ) {
        let n = works.len();
        let app = Application::new(works.clone(), vec![0.0; n + 1]).unwrap();
        let pf = Platform::comm_homogeneous(speeds.clone(), 1.0).unwrap();
        let cm = CostModel::new(&app, &pf);
        let (pipeline_opt, _) = exact_min_period_in(&cm, &mut SolveWorkspace::new());
        let chains_opt = hetero_exact_bnb(&works, &speeds, 100_000_000)
            .expect("budget").objective;
        prop_assert!((pipeline_opt - chains_opt).abs() < 1e-6 * (1.0 + chains_opt));
    }

    /// The weighted bottleneck of any valid partition upper-bounds the
    /// exact chains optimum (sanity of the exact solver's optimality).
    #[test]
    fn prop_any_partition_dominates_exact(
        works in proptest::collection::vec(0.5_f64..20.0, 2..7),
        speeds in proptest::collection::vec(1.0_f64..10.0, 2..4),
        cut_mask in 0u32..64,
    ) {
        let n = works.len();
        let exact = hetero_exact_bnb(&works, &speeds, 100_000_000)
            .expect("budget").objective;
        // Build an arbitrary partition from the mask, capped at p parts.
        let mut bounds = vec![0usize];
        for i in 1..n {
            if cut_mask & (1 << i) != 0 && bounds.len() < speeds.len() {
                bounds.push(i);
            }
        }
        bounds.push(n);
        let part = ChainPartition::from_bounds(bounds, n);
        let m = part.n_parts();
        // Fastest-first assignment of the m parts.
        let mut order: Vec<usize> = (0..speeds.len()).collect();
        order.sort_by(|&a, &b| speeds[b].partial_cmp(&speeds[a]).unwrap());
        let in_order: Vec<f64> = order[..m].iter().map(|&u| speeds[u]).collect();
        let obj = part.weighted_bottleneck(&works, &in_order);
        prop_assert!(obj >= exact - 1e-9,
            "hand partition {obj} beat the exact optimum {exact}");
    }
}
