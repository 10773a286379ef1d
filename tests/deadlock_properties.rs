//! Property-based tests of the framework's central invariant: whatever
//! the flows, CDG derivation and selector configuration, the routes that
//! come out are structurally valid and deadlock-free.

use bsor_repro::cdg::{AcyclicCdg, TurnModel};
use bsor_repro::flow::{FlowId, FlowNetwork, FlowSet, WeightParams};
use bsor_repro::netgraph::algo;
use bsor_repro::routing::selectors::DijkstraSelector;
use bsor_repro::routing::{deadlock, FlowOrder, Route, RouteHop, RouteSet, VcMask};
use bsor_repro::topology::{NodeId, Topology};
use proptest::prelude::*;

fn arbitrary_flows(nodes: usize, max_flows: usize) -> impl Strategy<Value = Vec<(u32, u32, f64)>> {
    prop::collection::vec(
        (0..nodes as u32, 0..nodes as u32, 1.0..100.0f64),
        1..max_flows,
    )
    .prop_map(|v| v.into_iter().filter(|(s, d, _)| s != d).collect::<Vec<_>>())
    .prop_filter("at least one flow", |v| !v.is_empty())
}

/// A random walk per `(start, steps)` pair: each step leaves the
/// current node on out-link `choice % degree` with VC mask `bits`
/// (clipped to the VC count, never empty). U-turns and revisits are
/// allowed, so the induced dependence graph is often cyclic.
fn walk_routes(topo: &Topology, vcs: u8, walks: &[(u32, Vec<(u32, u8)>)]) -> Vec<Route> {
    let n = topo.num_nodes() as u32;
    walks
        .iter()
        .enumerate()
        .map(|(i, (start, steps))| {
            let mut node = NodeId(start % n);
            let hops = steps
                .iter()
                .map(|&(choice, bits)| {
                    let out = topo.out_links(node);
                    let link = out[choice as usize % out.len()];
                    node = topo.link(link).dst;
                    let mask = bits & VcMask::all(vcs).0;
                    RouteHop {
                        link,
                        vcs: VcMask(if mask == 0 { 1 } else { mask }),
                    }
                })
                .collect();
            Route {
                flow: FlowId(i as u32),
                hops,
            }
        })
        .collect()
}

/// One lap around the topology's ring (row 0 of a torus) plus the
/// first link again, on every VC: its own dependencies close a cycle.
fn closed_lap(topo: &Topology, vcs: u8, flow: u32) -> Route {
    let lap: Vec<NodeId> = if topo.height() > 1 {
        (0..topo.width())
            .map(|x| topo.node_at(x, 0).expect("row 0"))
            .collect()
    } else {
        topo.node_ids().collect()
    };
    let n = lap.len();
    Route {
        flow: FlowId(flow),
        hops: (0..=n)
            .map(|i| RouteHop {
                link: topo
                    .find_link(lap[i % n], lap[(i + 1) % n])
                    .expect("lap neighbours are adjacent"),
                vcs: VcMask::all(vcs),
            })
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Differential check of the planner's only deadlock gate: on
    /// arbitrary (often cyclic) hop sequences over rings and tori,
    /// `certify` succeeds exactly when `analyze` finds no cycle, every
    /// certificate it issues re-verifies against the routes, and a
    /// refusal carries the same cycle `analyze` reports.
    #[test]
    fn certify_agrees_with_analyze_on_arbitrary_walks(
        torus in 0u8..2,
        size in 3u16..=6,
        vcs in 1u8..=2,
        walks in prop::collection::vec(
            (0u32..64, prop::collection::vec((0u32..8, 1u8..4), 1..10)),
            1..8,
        ),
        lap in 0u8..2,
    ) {
        let topo = if torus == 1 {
            Topology::torus2d(size.min(4), size.min(4))
        } else {
            Topology::ring(size + 2)
        };
        let mut routes = walk_routes(&topo, vcs, &walks);
        if lap == 1 {
            routes.push(closed_lap(&topo, vcs, routes.len() as u32));
        }
        let routes = RouteSet::from_routes(routes);
        let analysis = deadlock::analyze(&topo, &routes, vcs);
        let certified = deadlock::certify(&topo, &routes, vcs);
        prop_assert_eq!(certified.is_ok(), analysis.is_free());
        match &certified {
            Ok(certificate) => {
                prop_assert!(certificate.verify(&routes));
                prop_assert_eq!(certificate.vcs(), vcs);
            }
            Err(cycle) => {
                prop_assert!(!cycle.is_empty());
                prop_assert_eq!(
                    &analysis,
                    &deadlock::DeadlockAnalysis::Cyclic { cycle: cycle.clone() }
                );
            }
        }
        if lap == 1 {
            prop_assert!(!analysis.is_free(), "a closed lap is a dependence cycle");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dijkstra_routes_always_valid_and_deadlock_free(
        triples in arbitrary_flows(16, 24),
        model_idx in 0usize..12,
        vcs in 1u8..=4,
        m_const in 1.0..2000.0f64,
        order_seed in 0u64..1000,
    ) {
        let topo = Topology::mesh2d(4, 4);
        let models = TurnModel::valid_models(&topo).expect("grid");
        let acyclic = AcyclicCdg::turn_model(&topo, vcs, &models[model_idx % models.len()])
            .expect("valid model");
        let net = FlowNetwork::new(&topo, &acyclic);
        let mut flows = FlowSet::new();
        for (s, d, dem) in &triples {
            flows.push(NodeId(*s), NodeId(*d), *dem);
        }
        let routes = DijkstraSelector::new()
            .with_weights(WeightParams { m_const, vc_bias: 0.001 / m_const })
            .with_order(FlowOrder::Random { seed: order_seed })
            .select(&net, &flows)
            .expect("turn-model CDGs keep every pair routable");
        prop_assert!(routes.validate(&topo, &flows, vcs).is_ok());
        prop_assert!(deadlock::is_deadlock_free(&topo, &routes, vcs));
        // MCL is bounded below by the largest demand and above by total.
        let mcl = routes.mcl(&topo, &flows);
        prop_assert!(mcl >= flows.max_demand() - 1e-9);
        prop_assert!(mcl <= flows.total_demand() + 1e-9);
    }

    #[test]
    fn ad_hoc_routable_cdgs_route_everything(
        seed in 0u64..500,
        vcs in 1u8..=2,
    ) {
        let topo = Topology::mesh2d(4, 4);
        let acyclic = AcyclicCdg::ad_hoc_routable(&topo, vcs, seed).expect("grid");
        prop_assert!(algo::is_acyclic(acyclic.graph()));
        // All-pairs flows must route.
        let mut flows = FlowSet::new();
        for s in topo.node_ids() {
            for d in topo.node_ids() {
                if s != d {
                    flows.push(s, d, 1.0);
                }
            }
        }
        let net = FlowNetwork::new(&topo, &acyclic);
        let routes = DijkstraSelector::new().select(&net, &flows).expect("routable by construction");
        prop_assert!(deadlock::is_deadlock_free(&topo, &routes, vcs));
    }

    #[test]
    fn refinement_never_increases_mcl(
        triples in arbitrary_flows(16, 20),
        passes in 1usize..4,
    ) {
        // Rip-up/reroute only accepts a new path when the global MCL does
        // not grow, so refinement is monotone non-increasing in MCL.
        let topo = Topology::mesh2d(4, 4);
        let acyclic = AcyclicCdg::turn_model(&topo, 2, &TurnModel::west_first()).expect("valid");
        let net = FlowNetwork::new(&topo, &acyclic);
        let mut flows = FlowSet::new();
        for (s, d, dem) in &triples {
            flows.push(NodeId(*s), NodeId(*d), *dem);
        }
        let base = DijkstraSelector::new().select(&net, &flows).expect("routable");
        let refined = DijkstraSelector::new()
            .with_refinement(passes)
            .select(&net, &flows)
            .expect("routable");
        prop_assert!(
            refined.mcl(&topo, &flows) <= base.mcl(&topo, &flows) + 1e-9,
            "refined {} vs base {}",
            refined.mcl(&topo, &flows),
            base.mcl(&topo, &flows)
        );
        prop_assert!(refined.validate(&topo, &flows, 2).is_ok());
        prop_assert!(deadlock::is_deadlock_free(&topo, &refined, 2));
    }
}
