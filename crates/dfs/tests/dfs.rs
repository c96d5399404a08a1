//! First-class integration tests for the DFS crate: placement
//! determinism, topology/locality wiring, and the evolve API's version
//! and layout invariants (append/mutate edge cases).

use proptest::prelude::*;

use incmr_dfs::{
    BlockId, BlockSpec, ClusterTopology, DiskId, EvenRoundRobin, Namespace, NodeId,
    PinnedPlacement, RandomPlacement, ReplicatedPlacement,
};
use incmr_simkit::rng::DetRng;

fn specs(n: usize) -> Vec<BlockSpec> {
    (0..n)
        .map(|i| BlockSpec {
            bytes: 64_000_000,
            records: 20_000 + i as u64,
        })
        .collect()
}

fn paper_ns(n_blocks: usize) -> (Namespace, incmr_dfs::FileId) {
    let mut ns = Namespace::new(ClusterTopology::paper_cluster());
    let mut rng = DetRng::seed_from(42);
    let id = ns
        .create_file("t", &specs(n_blocks), &mut EvenRoundRobin::new(), &mut rng)
        .unwrap();
    (ns, id)
}

// ---------------------------------------------------------------- placement

#[test]
fn placement_is_a_pure_function_of_policy_state_and_seed() {
    let layout = |seed: u64| {
        let mut ns = Namespace::new(ClusterTopology::paper_cluster());
        let mut rng = DetRng::seed_from(seed);
        let id = ns
            .create_file("t", &specs(40), &mut RandomPlacement::new(2), &mut rng)
            .unwrap();
        ns.blocks_of(id)
            .iter()
            .map(|&b| ns.block(b).locations.clone())
            .collect::<Vec<_>>()
    };
    assert_eq!(layout(7), layout(7), "same seed, same layout");
    assert_ne!(layout(7), layout(8), "different seed, different layout");
}

#[test]
fn append_after_create_equals_one_big_create() {
    // Creating 30 blocks then appending 10 under the same continuing policy
    // state lays out identically to creating 40 at once.
    let mut big = Namespace::new(ClusterTopology::paper_cluster());
    let mut rng = DetRng::seed_from(1);
    let big_id = big
        .create_file("t", &specs(40), &mut EvenRoundRobin::new(), &mut rng)
        .unwrap();

    let mut grown = Namespace::new(ClusterTopology::paper_cluster());
    let mut rng = DetRng::seed_from(1);
    let mut policy = EvenRoundRobin::new();
    let grown_id = grown
        .create_file("t", &specs(40)[..30], &mut policy, &mut rng)
        .unwrap();
    grown.append_blocks(grown_id, &specs(40)[30..], &mut policy, &mut rng);

    assert_eq!(grown.num_blocks(), big.num_blocks());
    for i in 0..40u32 {
        let a = big.block(BlockId(i));
        let b = grown.block(BlockId(i));
        assert_eq!(a.locations, b.locations, "block {i} placement");
        assert_eq!(a.records, b.records);
        assert_eq!(a.index, b.index);
        assert_eq!(b.version, 0);
    }
    let _ = big_id;
}

#[test]
fn locality_tracks_mutation_induced_moves() {
    let (mut ns, _) = paper_ns(4);
    // Block 0 starts on disk 0 (node 0).
    assert!(ns.is_local(BlockId(0), NodeId(0)));
    let mut rng = DetRng::seed_from(5);
    ns.mutate_blocks(
        &[BlockId(0)],
        &mut PinnedPlacement::new(DiskId(39)),
        &mut rng,
    );
    assert!(!ns.is_local(BlockId(0), NodeId(0)), "replica moved away");
    assert!(ns.is_local(BlockId(0), NodeId(9)), "now on the last node");
    assert_eq!(ns.primary_replica(BlockId(0)), Ok(DiskId(39)));
    assert_eq!(ns.local_replica(BlockId(0), NodeId(9)), Some(DiskId(39)));
}

// ------------------------------------------------------------------ evolve

#[test]
fn append_to_empty_file_starts_at_index_zero() {
    let mut ns = Namespace::new(ClusterTopology::paper_cluster());
    let mut rng = DetRng::seed_from(3);
    let id = ns
        .create_file("empty", &[], &mut EvenRoundRobin::new(), &mut rng)
        .unwrap();
    assert_eq!(ns.blocks_of(id).len(), 0);
    let new = ns.append_blocks(id, &specs(2), &mut EvenRoundRobin::new(), &mut rng);
    assert_eq!(new, vec![BlockId(0), BlockId(1)]);
    assert_eq!(ns.block(BlockId(0)).index, 0);
    assert_eq!(ns.block(BlockId(1)).index, 1);
}

#[test]
fn append_of_nothing_is_a_no_op() {
    let (mut ns, id) = paper_ns(3);
    let mut rng = DetRng::seed_from(3);
    let new = ns.append_blocks(id, &[], &mut EvenRoundRobin::new(), &mut rng);
    assert!(new.is_empty());
    assert_eq!(ns.num_blocks(), 3);
}

#[test]
fn appends_interleave_across_files_with_global_block_ids() {
    let (mut ns, a) = paper_ns(2);
    let mut rng = DetRng::seed_from(3);
    let b = ns
        .create_file("u", &specs(2), &mut EvenRoundRobin::new(), &mut rng)
        .unwrap();
    let new_a = ns.append_blocks(a, &specs(1), &mut EvenRoundRobin::new(), &mut rng);
    let new_b = ns.append_blocks(b, &specs(1), &mut EvenRoundRobin::new(), &mut rng);
    assert_eq!(new_a, vec![BlockId(4)], "global ids keep growing densely");
    assert_eq!(new_b, vec![BlockId(5)]);
    assert_eq!(ns.block(BlockId(4)).index, 2, "file-local index continues");
    assert_eq!(ns.blocks_of(a), &[BlockId(0), BlockId(1), BlockId(4)]);
    assert_eq!(ns.blocks_of(b), &[BlockId(2), BlockId(3), BlockId(5)]);
}

#[test]
fn repeated_mutation_of_one_block_counts_every_rewrite() {
    let (mut ns, _) = paper_ns(1);
    let mut rng = DetRng::seed_from(3);
    for expect in 1..=5u32 {
        let v = ns.mutate_blocks(&[BlockId(0)], &mut EvenRoundRobin::new(), &mut rng);
        assert_eq!(v, vec![expect]);
    }
    assert_eq!(ns.version_of(BlockId(0)), 5);
}

#[test]
fn mutating_the_same_block_twice_in_one_call_bumps_twice() {
    let (mut ns, _) = paper_ns(2);
    let mut rng = DetRng::seed_from(3);
    let v = ns.mutate_blocks(
        &[BlockId(1), BlockId(1)],
        &mut EvenRoundRobin::new(),
        &mut rng,
    );
    assert_eq!(v, vec![1, 2]);
}

proptest! {
    /// Version counters over an arbitrary mutate schedule equal a simple
    /// recount of how often each block appeared, and never decrease.
    #[test]
    fn versions_are_monotone_mutation_counts(
        schedule in prop::collection::vec(prop::collection::vec(0u32..8, 0..4), 0..12)
    ) {
        let (mut ns, _) = paper_ns(8);
        let mut rng = DetRng::seed_from(11);
        let mut expected = [0u32; 8];
        for batch in &schedule {
            let ids: Vec<BlockId> = batch.iter().map(|&i| BlockId(i)).collect();
            let before: Vec<u32> = ids.iter().map(|&b| ns.version_of(b)).collect();
            let after = ns.mutate_blocks(&ids, &mut EvenRoundRobin::new(), &mut rng);
            for (b, a) in before.iter().zip(&after) {
                prop_assert!(a > b, "version must strictly increase per rewrite");
            }
            for &i in batch {
                expected[i as usize] += 1;
            }
        }
        for i in 0..8u32 {
            prop_assert_eq!(ns.version_of(BlockId(i)), expected[i as usize]);
        }
    }

    /// Replicated placement holds all four invariants across arbitrary
    /// shapes: exactly r replicas, no node holds two, rack-spread whenever
    /// the topology has >= 2 racks, and a layout independent of the RNG
    /// seed.
    #[test]
    fn replicated_placement_invariants(
        nodes in 2u16..12,
        disks_per_node in 1u8..4,
        racks in 1u16..5,
        r in 1u8..5,
        n_blocks in 1usize..60,
        seed_a in 0u64..1000,
        seed_b in 0u64..1000,
    ) {
        let racks = racks.min(nodes);
        let r = r.min(nodes as u8);
        let topo = ClusterTopology::new(nodes, disks_per_node, 1).with_racks(racks);
        let layout = |seed: u64| {
            let mut policy = ReplicatedPlacement::try_new(r, &topo).unwrap();
            let mut rng = DetRng::seed_from(seed);
            (0..n_blocks)
                .map(|i| {
                    use incmr_dfs::PlacementPolicy;
                    policy.place(i, &topo, &mut rng)
                })
                .collect::<Vec<Vec<DiskId>>>()
        };
        let a = layout(seed_a);
        prop_assert_eq!(&a, &layout(seed_b), "layout must not depend on seed");
        for locs in &a {
            prop_assert_eq!(locs.len(), r as usize, "exactly r replicas");
            let mut holders: Vec<NodeId> = locs.iter().map(|&d| topo.node_of(d)).collect();
            holders.sort();
            holders.dedup();
            prop_assert_eq!(holders.len(), r as usize, "no node holds two replicas");
            if racks >= 2 && r >= 2 {
                let mut rs: Vec<_> = holders.iter().map(|&n| topo.rack_of(n)).collect();
                rs.sort();
                rs.dedup();
                prop_assert!(rs.len() >= 2, "replicas must span racks");
            }
        }
    }

    /// Appends never disturb existing blocks' metadata or versions.
    #[test]
    fn append_preserves_existing_blocks(extra in 1usize..20) {
        let (mut ns, id) = paper_ns(6);
        let before: Vec<_> = (0..6u32)
            .map(|i| {
                let b = ns.block(BlockId(i));
                (b.locations.clone(), b.records, b.version)
            })
            .collect();
        let mut rng = DetRng::seed_from(13);
        ns.append_blocks(id, &specs(extra), &mut EvenRoundRobin::new(), &mut rng);
        prop_assert_eq!(ns.num_blocks(), 6 + extra);
        for i in 0..6u32 {
            let b = ns.block(BlockId(i));
            prop_assert_eq!(&b.locations, &before[i as usize].0);
            prop_assert_eq!(b.records, before[i as usize].1);
            prop_assert_eq!(b.version, before[i as usize].2);
        }
    }
}
