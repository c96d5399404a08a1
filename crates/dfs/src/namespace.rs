//! The DFS namespace: files, their blocks, and block locations.
//!
//! Blocks are the unit the MapReduce framework schedules over — each block is
//! one *input split*, processed by one map task. A block records its byte
//! length and record count (what the cost model and the Input Provider's
//! records-per-split estimate need), plus its replica locations (what the
//! scheduler's locality logic needs).

use std::collections::HashMap;
use std::fmt;

use incmr_simkit::rng::DetRng;

use crate::placement::PlacementPolicy;
use crate::topology::{ClusterTopology, NodeId};
use crate::DiskId;

/// A file in the namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(pub u32);

/// A block (= input split), globally unique across all files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

impl fmt::Display for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "file{}", self.0)
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blk{}", self.0)
    }
}

/// Size description of one block at file-creation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSpec {
    /// Length in bytes (drives I/O cost).
    pub bytes: u64,
    /// Number of records contained (drives CPU cost and selectivity math).
    pub records: u64,
}

/// A stored block: its file, position within the file, size, and replicas.
#[derive(Debug, Clone)]
pub struct Block {
    /// Globally-unique id.
    pub id: BlockId,
    /// Owning file.
    pub file: FileId,
    /// Index of this block within its file.
    pub index: u32,
    /// Length in bytes.
    pub bytes: u64,
    /// Number of records.
    pub records: u64,
    /// Disks holding a replica. Never empty at creation; node deaths (via
    /// [`Namespace::drop_node_replicas`]) can drain it to empty — the block
    /// is then *lost* until re-replicated from nowhere (it cannot be), so
    /// readers must handle [`DfsError::NoLiveReplica`] from
    /// [`Namespace::primary_replica`].
    pub locations: Vec<DiskId>,
    /// Replication factor this block was placed with — the target the
    /// re-replication daemon restores towards after replica loss.
    pub replication: u8,
    /// Content version: 0 at creation, bumped by every
    /// [`Namespace::mutate_blocks`] rewrite. The memoization plane keys
    /// cached map output on `(job signature, block, version)`, so a bump
    /// invalidates exactly this block's cache entries.
    pub version: u32,
}

/// A file: a name and an ordered list of blocks.
#[derive(Debug, Clone)]
pub struct DfsFile {
    /// Globally-unique id.
    pub id: FileId,
    /// Namespace path (unique).
    pub name: String,
    /// Blocks in file order.
    pub blocks: Vec<BlockId>,
}

/// Errors from namespace operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DfsError {
    /// A file with this name already exists.
    DuplicateName(String),
    /// Lookup of an unknown file name.
    NoSuchFile(String),
    /// The block has no replica left: every holder's copy was dropped
    /// with its node ([`Namespace::drop_node_replicas`]), so the data is
    /// lost.
    NoLiveReplica(BlockId),
}

impl fmt::Display for DfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DfsError::DuplicateName(n) => write!(f, "file already exists: {n}"),
            DfsError::NoSuchFile(n) => write!(f, "no such file: {n}"),
            DfsError::NoLiveReplica(b) => write!(f, "no live replica of {b}"),
        }
    }
}

impl std::error::Error for DfsError {}

/// The filesystem namespace plus the topology it is laid out on.
#[derive(Debug, Clone)]
pub struct Namespace {
    topology: ClusterTopology,
    files: Vec<DfsFile>,
    blocks: Vec<Block>,
    by_name: HashMap<String, FileId>,
}

impl Namespace {
    /// An empty namespace on the given topology.
    pub fn new(topology: ClusterTopology) -> Self {
        Namespace {
            topology,
            files: Vec::new(),
            blocks: Vec::new(),
            by_name: HashMap::new(),
        }
    }

    /// The topology this namespace is laid out on.
    pub fn topology(&self) -> &ClusterTopology {
        &self.topology
    }

    /// Create a file from block specs, placing each block with `policy`.
    pub fn create_file(
        &mut self,
        name: &str,
        specs: &[BlockSpec],
        policy: &mut dyn PlacementPolicy,
        rng: &mut DetRng,
    ) -> Result<FileId, DfsError> {
        if self.by_name.contains_key(name) {
            return Err(DfsError::DuplicateName(name.to_string()));
        }
        let file_id = FileId(self.files.len() as u32);
        let mut block_ids = Vec::with_capacity(specs.len());
        for (index, spec) in specs.iter().enumerate() {
            let locations = policy.place(index, &self.topology, rng);
            assert!(!locations.is_empty(), "placement returned no replicas");
            let id = BlockId(self.blocks.len() as u32);
            self.blocks.push(Block {
                id,
                file: file_id,
                index: index as u32,
                bytes: spec.bytes,
                records: spec.records,
                replication: locations.len() as u8,
                locations,
                version: 0,
            });
            block_ids.push(id);
        }
        self.files.push(DfsFile {
            id: file_id,
            name: name.to_string(),
            blocks: block_ids,
        });
        self.by_name.insert(name.to_string(), file_id);
        Ok(file_id)
    }

    /// Append new blocks to an existing file (the evolve API's "new data
    /// arrived" half). Each block is placed with `policy` at its file-local
    /// index, continuing where `create_file` left off, so an append under
    /// the same policy/rng state lays out exactly like a larger initial
    /// file. Appended blocks start at version 0.
    ///
    /// Returns the new block ids in file order.
    ///
    /// # Panics
    /// Panics on a `file` id not issued by this namespace.
    pub fn append_blocks(
        &mut self,
        file: FileId,
        specs: &[BlockSpec],
        policy: &mut dyn PlacementPolicy,
        rng: &mut DetRng,
    ) -> Vec<BlockId> {
        let base = self.files[file.0 as usize].blocks.len();
        let mut block_ids = Vec::with_capacity(specs.len());
        for (offset, spec) in specs.iter().enumerate() {
            let index = base + offset;
            let locations = policy.place(index, &self.topology, rng);
            assert!(!locations.is_empty(), "placement returned no replicas");
            let id = BlockId(self.blocks.len() as u32);
            self.blocks.push(Block {
                id,
                file,
                index: index as u32,
                bytes: spec.bytes,
                records: spec.records,
                replication: locations.len() as u8,
                locations,
                version: 0,
            });
            block_ids.push(id);
        }
        self.files[file.0 as usize]
            .blocks
            .extend_from_slice(&block_ids);
        block_ids
    }

    /// Rewrite existing blocks in place (the evolve API's "data changed"
    /// half): each block's version counter is bumped and the block is
    /// re-placed with `policy` at its file-local index — a rewrite lands
    /// wherever the placement policy's current state puts it, exactly as a
    /// real DFS rewrite allocates fresh extents. Sizes are unchanged.
    ///
    /// Returns the new version of each block, in argument order.
    ///
    /// # Panics
    /// Panics on a block id not issued by this namespace.
    pub fn mutate_blocks(
        &mut self,
        blocks: &[BlockId],
        policy: &mut dyn PlacementPolicy,
        rng: &mut DetRng,
    ) -> Vec<u32> {
        blocks
            .iter()
            .map(|&id| {
                let index = self.blocks[id.0 as usize].index as usize;
                let locations = policy.place(index, &self.topology, rng);
                assert!(!locations.is_empty(), "placement returned no replicas");
                let b = &mut self.blocks[id.0 as usize];
                b.version += 1;
                b.replication = locations.len() as u8;
                b.locations = locations;
                b.version
            })
            .collect()
    }

    /// A block's current content version (0 until first mutated).
    ///
    /// # Panics
    /// Panics on an id not issued by this namespace.
    pub fn version_of(&self, id: BlockId) -> u32 {
        self.blocks[id.0 as usize].version
    }

    /// Look up a file by name.
    pub fn file_by_name(&self, name: &str) -> Result<&DfsFile, DfsError> {
        self.by_name
            .get(name)
            .map(|id| &self.files[id.0 as usize])
            .ok_or_else(|| DfsError::NoSuchFile(name.to_string()))
    }

    /// A file's metadata.
    ///
    /// # Panics
    /// Panics on an id not issued by this namespace.
    pub fn file(&self, id: FileId) -> &DfsFile {
        &self.files[id.0 as usize]
    }

    /// A block's metadata.
    ///
    /// # Panics
    /// Panics on an id not issued by this namespace.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.0 as usize]
    }

    /// Block ids of a file, in file order.
    pub fn blocks_of(&self, file: FileId) -> &[BlockId] {
        &self.file(file).blocks
    }

    /// True if some replica of `block` lives on a disk of `node`.
    pub fn is_local(&self, block: BlockId, node: NodeId) -> bool {
        self.block(block)
            .locations
            .iter()
            .any(|&d| self.topology.node_of(d) == node)
    }

    /// A replica disk of `block` on `node`, if any (the disk a local map
    /// task would read from).
    pub fn local_replica(&self, block: BlockId, node: NodeId) -> Option<DiskId> {
        self.block(block)
            .locations
            .iter()
            .copied()
            .find(|&d| self.topology.node_of(d) == node)
    }

    /// The first replica — the disk a remote read targets (with
    /// replication 1, the only copy). Dead holders are already gone from
    /// `locations` ([`Namespace::drop_node_replicas`]), so this is the
    /// first live replica.
    ///
    /// # Errors
    /// [`DfsError::NoLiveReplica`] when the block has no replica left.
    pub fn primary_replica(&self, block: BlockId) -> Result<DiskId, DfsError> {
        self.block(block)
            .locations
            .first()
            .copied()
            .ok_or(DfsError::NoLiveReplica(block))
    }

    /// Permanently remove every replica hosted on `node`'s disks — the
    /// data-loss half of a node death (the node's storage is gone; if it
    /// rejoins later it comes back empty). Returns the ids of blocks that
    /// lost a replica, in id order. Blocks whose `locations` drain to empty
    /// are *lost* until a holder is restored externally.
    pub fn drop_node_replicas(&mut self, node: NodeId) -> Vec<BlockId> {
        let mut affected = Vec::new();
        for b in &mut self.blocks {
            let before = b.locations.len();
            b.locations.retain(|&d| self.topology.node_of(d) != node);
            if b.locations.len() < before {
                affected.push(b.id);
            }
        }
        affected
    }

    /// Add a replica of `block` on `disk` (re-replication). No-op guard:
    /// panics if the disk already holds the block — the caller picks fresh
    /// holders.
    ///
    /// # Panics
    /// Panics on an id not issued by this namespace or a duplicate replica.
    pub fn add_replica(&mut self, block: BlockId, disk: DiskId) {
        assert!(
            disk.0 < self.topology.num_disks(),
            "disk {disk} out of range"
        );
        let b = &mut self.blocks[block.0 as usize];
        assert!(!b.locations.contains(&disk), "{disk} already holds {block}");
        b.locations.push(disk);
    }

    /// Total number of blocks across all files.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Total number of files.
    pub fn num_files(&self) -> usize {
        self.files.len()
    }

    /// Blocks stored per disk — the load-balance view used to validate the
    /// "evenly distributed across the disks" requirement.
    pub fn blocks_per_disk(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.topology.num_disks() as usize];
        for b in &self.blocks {
            for d in &b.locations {
                counts[d.0 as usize] += 1;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::EvenRoundRobin;

    fn specs(n: usize) -> Vec<BlockSpec> {
        (0..n)
            .map(|i| BlockSpec {
                bytes: 1000 + i as u64,
                records: 10 + i as u64,
            })
            .collect()
    }

    fn ns_with_file(n_blocks: usize) -> (Namespace, FileId) {
        let mut ns = Namespace::new(ClusterTopology::paper_cluster());
        let mut rng = DetRng::seed_from(1);
        let id = ns
            .create_file("t", &specs(n_blocks), &mut EvenRoundRobin::new(), &mut rng)
            .unwrap();
        (ns, id)
    }

    #[test]
    fn create_and_lookup() {
        let (ns, id) = ns_with_file(5);
        assert_eq!(ns.file_by_name("t").unwrap().id, id);
        assert_eq!(ns.blocks_of(id).len(), 5);
        assert_eq!(ns.num_blocks(), 5);
        let b = ns.block(ns.blocks_of(id)[3]);
        assert_eq!(b.bytes, 1003);
        assert_eq!(b.records, 13);
        assert_eq!(b.index, 3);
        assert_eq!(b.file, id);
    }

    #[test]
    fn duplicate_name_rejected() {
        let (mut ns, _) = ns_with_file(1);
        let mut rng = DetRng::seed_from(2);
        let err = ns
            .create_file("t", &specs(1), &mut EvenRoundRobin::new(), &mut rng)
            .unwrap_err();
        assert_eq!(err, DfsError::DuplicateName("t".into()));
    }

    #[test]
    fn missing_file_lookup_errors() {
        let (ns, _) = ns_with_file(1);
        assert!(matches!(
            ns.file_by_name("nope"),
            Err(DfsError::NoSuchFile(_))
        ));
    }

    #[test]
    fn locality_matches_placement() {
        let (ns, id) = ns_with_file(40);
        // Round-robin from disk 0: block i lives on disk i, node i/4.
        let blocks = ns.blocks_of(id).to_vec();
        assert!(ns.is_local(blocks[0], NodeId(0)));
        assert!(!ns.is_local(blocks[0], NodeId(1)));
        assert!(ns.is_local(blocks[7], NodeId(1)));
        assert_eq!(ns.local_replica(blocks[7], NodeId(1)), Some(DiskId(7)));
        assert_eq!(ns.local_replica(blocks[7], NodeId(2)), None);
        assert_eq!(ns.primary_replica(blocks[7]), Ok(DiskId(7)));
    }

    #[test]
    fn even_layout_balances_disks() {
        let (ns, _) = ns_with_file(80);
        assert!(ns.blocks_per_disk().iter().all(|&c| c == 2));
    }

    #[test]
    fn append_extends_file_and_continues_layout() {
        let (mut ns, id) = ns_with_file(3);
        let mut rng = DetRng::seed_from(9);
        let mut policy = EvenRoundRobin::new();
        // Advance the policy past the original 3 blocks so appends continue
        // the round-robin where creation left off.
        for i in 0..3 {
            policy.place(i, ns.topology(), &mut rng);
        }
        let new = ns.append_blocks(id, &specs(2), &mut policy, &mut rng);
        assert_eq!(new, vec![BlockId(3), BlockId(4)]);
        assert_eq!(ns.num_blocks(), 5);
        assert_eq!(ns.blocks_of(id).len(), 5);
        let b = ns.block(BlockId(3));
        assert_eq!(b.index, 3);
        assert_eq!(b.version, 0);
        assert_eq!(b.locations, vec![DiskId(3)]);
    }

    #[test]
    fn mutate_bumps_versions_monotonically() {
        let (mut ns, _) = ns_with_file(4);
        let mut rng = DetRng::seed_from(9);
        assert_eq!(ns.version_of(BlockId(2)), 0);
        let v1 = ns.mutate_blocks(&[BlockId(2)], &mut EvenRoundRobin::new(), &mut rng);
        assert_eq!(v1, vec![1]);
        let v2 = ns.mutate_blocks(
            &[BlockId(2), BlockId(0)],
            &mut EvenRoundRobin::new(),
            &mut rng,
        );
        assert_eq!(v2, vec![2, 1]);
        assert_eq!(ns.version_of(BlockId(2)), 2);
        assert_eq!(ns.version_of(BlockId(0)), 1);
        assert_eq!(ns.version_of(BlockId(1)), 0, "untouched blocks keep v0");
    }

    #[test]
    fn mutate_replaces_locations_but_keeps_sizes() {
        let (mut ns, _) = ns_with_file(4);
        let before = ns.block(BlockId(1)).clone();
        let mut rng = DetRng::seed_from(9);
        // A fresh round-robin places file index 1 on disk 1 again — use a
        // pinned policy to force a visible move.
        ns.mutate_blocks(
            &[BlockId(1)],
            &mut crate::placement::PinnedPlacement::new(DiskId(7)),
            &mut rng,
        );
        let after = ns.block(BlockId(1));
        assert_eq!(after.locations, vec![DiskId(7)]);
        assert_eq!(after.bytes, before.bytes);
        assert_eq!(after.records, before.records);
        assert_eq!(after.index, before.index);
    }

    #[test]
    fn primary_replica_fails_over_to_first_live_holder() {
        let topo = ClusterTopology::new(4, 2, 1).with_racks(2);
        let mut ns = Namespace::new(topo);
        let mut rng = DetRng::seed_from(1);
        let mut policy = crate::placement::ReplicatedPlacement::try_new(2, &topo).unwrap();
        ns.create_file("t", &specs(1), &mut policy, &mut rng)
            .unwrap();
        let b = BlockId(0);
        let locs = ns.block(b).locations.clone();
        assert_eq!(locs.len(), 2);
        assert_eq!(ns.primary_replica(b), Ok(locs[0]));
        ns.drop_node_replicas(topo.node_of(locs[0]));
        assert_eq!(ns.primary_replica(b), Ok(locs[1]));
        ns.drop_node_replicas(topo.node_of(locs[1]));
        assert_eq!(ns.primary_replica(b), Err(DfsError::NoLiveReplica(b)));
    }

    #[test]
    fn drop_node_replicas_strips_and_reports() {
        let topo = ClusterTopology::new(4, 2, 1).with_racks(2);
        let mut ns = Namespace::new(topo);
        let mut rng = DetRng::seed_from(1);
        let mut policy = crate::placement::ReplicatedPlacement::try_new(2, &topo).unwrap();
        ns.create_file("t", &specs(8), &mut policy, &mut rng)
            .unwrap();
        let held: Vec<BlockId> = (0..8)
            .map(BlockId)
            .filter(|&b| ns.is_local(b, NodeId(1)))
            .collect();
        assert!(!held.is_empty());
        let affected = ns.drop_node_replicas(NodeId(1));
        assert_eq!(affected, held);
        for b in affected {
            assert!(!ns.is_local(b, NodeId(1)));
            assert_eq!(ns.block(b).replication, 2, "target survives the loss");
            assert_eq!(ns.block(b).locations.len(), 1);
        }
        assert!(ns.drop_node_replicas(NodeId(1)).is_empty(), "idempotent");
    }

    #[test]
    fn add_replica_restores_target() {
        let topo = ClusterTopology::new(2, 1, 1);
        let mut ns = Namespace::new(topo);
        let mut rng = DetRng::seed_from(1);
        let mut policy = crate::placement::ReplicatedPlacement::try_new(2, &topo).unwrap();
        ns.create_file("t", &specs(1), &mut policy, &mut rng)
            .unwrap();
        ns.drop_node_replicas(NodeId(0));
        let b = ns.block(BlockId(0));
        assert!(b.locations.len() < b.replication as usize, "below target");
        ns.add_replica(BlockId(0), DiskId(0));
        assert_eq!(ns.block(BlockId(0)).locations, vec![DiskId(1), DiskId(0)]);
    }

    #[test]
    #[should_panic(expected = "already holds")]
    fn duplicate_replica_panics() {
        let (mut ns, _) = ns_with_file(1);
        let d = ns.block(BlockId(0)).locations[0];
        ns.add_replica(BlockId(0), d);
    }

    #[test]
    fn multiple_files_get_distinct_blocks() {
        let (mut ns, a) = ns_with_file(3);
        let mut rng = DetRng::seed_from(3);
        let b = ns
            .create_file("u", &specs(2), &mut EvenRoundRobin::new(), &mut rng)
            .unwrap();
        assert_ne!(a, b);
        assert_eq!(ns.num_files(), 2);
        assert_eq!(ns.num_blocks(), 5);
        let all: Vec<u32> = ns
            .blocks_of(a)
            .iter()
            .chain(ns.blocks_of(b))
            .map(|b| b.0)
            .collect();
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
    }
}
