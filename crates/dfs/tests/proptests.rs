//! Property tests: the DFS behaves like a plain byte vector per file,
//! under arbitrary append/read interleavings and chunk sizes.

use logbase_dfs::{Dfs, DfsConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64
        })]

    /// Appends concatenate; positional reads return exactly the model's
    /// bytes, regardless of chunk size (so chunk-boundary handling is
    /// exercised for every offset/length combination).
    #[test]
    fn prop_dfs_file_is_a_byte_vector(
        chunk_size in 1u64..64,
        appends in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..96), 1..16),
        reads in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..16),
    ) {
        let dfs = Dfs::new(DfsConfig::in_memory(3, 2).with_chunk_size(chunk_size));
        dfs.create("f").unwrap();
        let mut model: Vec<u8> = Vec::new();
        for data in &appends {
            let off = dfs.append("f", data).unwrap();
            prop_assert_eq!(off, model.len() as u64);
            model.extend_from_slice(data);
        }
        prop_assert_eq!(dfs.len("f").unwrap(), model.len() as u64);
        prop_assert_eq!(&dfs.read_all("f").unwrap()[..], &model[..]);
        for (off, len) in reads {
            let off = u64::from(off) % (model.len() as u64 + 1);
            let len = u64::from(len).min(model.len() as u64 - off);
            let got = dfs.read("f", off, len).unwrap();
            prop_assert_eq!(&got[..], &model[off as usize..(off + len) as usize]);
        }
    }

    /// The sequential reader agrees with positional reads at every
    /// step size.
    #[test]
    fn prop_sequential_reader_matches_model(
        payload in proptest::collection::vec(any::<u8>(), 1..512),
        step in 1u64..64,
    ) {
        let dfs = Dfs::new(DfsConfig::in_memory(3, 2).with_chunk_size(32));
        dfs.create("f").unwrap();
        dfs.append("f", &payload).unwrap();
        let mut r = dfs.open_reader("f").unwrap();
        let mut got = Vec::new();
        while r.remaining() > 0 {
            let take = r.remaining().min(step);
            got.extend_from_slice(&r.read_exact(take).unwrap());
        }
        prop_assert_eq!(got, payload);
    }

    /// Any single node failure is invisible to reads at replication ≥ 2.
    #[test]
    fn prop_single_failure_transparent(
        payload in proptest::collection::vec(any::<u8>(), 1..256),
        victim in 0u32..3,
    ) {
        let dfs = Dfs::new(DfsConfig::in_memory(3, 2).with_chunk_size(16));
        dfs.create("f").unwrap();
        dfs.append("f", &payload).unwrap();
        dfs.kill_node(victim);
        // Replication 2 of 3 nodes: one failure may hit 0, 1 or 2 of a
        // chunk's replicas; with r=2 at most one of them — reads succeed.
        prop_assert_eq!(&dfs.read_all("f").unwrap()[..], &payload[..]);
    }
}

mod datanode_model {
    //! One data-node block against a `Vec<u8>`, on both backends, through
    //! appends, truncations, torn appends and restarts — and after every
    //! step the files on disk must say what the node's memory says.

    use logbase_dfs::{
        BlockId, DataNode, FaultInjector, FaultSpec, OpClass, ScheduledFault, StorageBackend,
        SUB_BLOCK,
    };
    use proptest::prelude::*;
    use std::sync::Arc;

    const BLOCK: BlockId = 7;
    const DISK: u32 = 0;
    const MEM: u32 = 1;

    #[derive(Debug, Clone)]
    enum Op {
        Append(Vec<u8>),
        /// An append of which only `keep` bytes land before the node
        /// dies; the node is restarted afterwards.
        Torn(Vec<u8>, usize),
        /// Truncate to this length modulo (current length + 1).
        Truncate(u16),
        Restart,
        Read(u16, u16),
    }

    struct Harness {
        dir: tempfile::TempDir,
        faults: Arc<FaultInjector>,
        disk: DataNode,
        mem: DataNode,
        /// What the disk node must hold.
        on_disk: Vec<u8>,
        /// What the memory node must hold (a restart empties it).
        in_mem: Vec<u8>,
    }

    impl Harness {
        fn new() -> Harness {
            let dir = tempfile::tempdir().unwrap();
            let faults = Arc::new(FaultInjector::new(1));
            let disk = StorageBackend::Disk(dir.path().to_path_buf());
            Harness {
                disk: DataNode::new(DISK, 0, &disk, Arc::clone(&faults)).unwrap(),
                mem: DataNode::new(MEM, 0, &StorageBackend::Memory, Arc::clone(&faults)).unwrap(),
                dir,
                faults,
                on_disk: Vec::new(),
                in_mem: Vec::new(),
            }
        }

        fn restart(&mut self) {
            for node in [&self.disk, &self.mem] {
                node.kill();
                node.restart();
            }
            self.in_mem.clear();
        }

        fn step(&mut self, op: &Op) {
            match op {
                Op::Append(data) => {
                    self.on_disk.extend_from_slice(data);
                    self.in_mem.extend_from_slice(data);
                    let len = self.disk.append_block(BLOCK, data).unwrap();
                    assert_eq!(len, self.on_disk.len() as u64);
                    let len = self.mem.append_block(BLOCK, data).unwrap();
                    assert_eq!(len, self.in_mem.len() as u64);
                }
                Op::Torn(data, keep) => {
                    let torn = ScheduledFault::TornAppend { keep: *keep };
                    for node in [&self.disk, &self.mem] {
                        let spec = FaultSpec::default().with_scheduled(1, torn.clone());
                        self.faults.set_spec(node.id(), OpClass::Append, spec);
                        assert!(node.append_block(BLOCK, data).is_err());
                        assert!(!node.is_alive());
                    }
                    self.faults.clear();
                    self.on_disk
                        .extend_from_slice(&data[..(*keep).min(data.len())]);
                    self.restart();
                }
                Op::Truncate(to) => {
                    let to = *to as usize % (self.on_disk.len() + 1);
                    self.disk.truncate_block(BLOCK, to as u64).unwrap();
                    self.on_disk.truncate(to);
                    let to = to % (self.in_mem.len() + 1);
                    self.mem.truncate_block(BLOCK, to as u64).unwrap();
                    self.in_mem.truncate(to);
                }
                Op::Restart => self.restart(),
                Op::Read(off, len) => {
                    for (node, model) in [(&self.disk, &self.on_disk), (&self.mem, &self.in_mem)] {
                        if !node.has_block(BLOCK) {
                            continue;
                        }
                        let off = *off as usize % (model.len() + 1);
                        let len = (*len as usize).min(model.len() - off);
                        let got = node.read_block(BLOCK, off as u64, len).unwrap();
                        assert_eq!(got, &model[off..off + len], "read {off}+{len}");
                    }
                }
            }
            self.check();
        }

        /// Lengths and contents agree with the models, and the sidecar on
        /// disk is exactly the checksums of the block file on disk.
        fn check(&self) {
            for (node, model) in [(&self.disk, &self.on_disk), (&self.mem, &self.in_mem)] {
                assert_eq!(node.block_len(BLOCK).unwrap(), model.len() as u64);
                if node.has_block(BLOCK) {
                    assert_eq!(&node.read_block(BLOCK, 0, model.len()).unwrap(), model);
                }
            }
            let dir = self.dir.path().join(format!("dn-{DISK}"));
            let file = std::fs::read(dir.join(format!("blk_{BLOCK}"))).unwrap_or_default();
            let sidecar = std::fs::read(dir.join(format!("blk_{BLOCK}.crc"))).unwrap_or_default();
            assert_eq!(file, self.on_disk);
            let recomputed: Vec<u8> = file
                .chunks(SUB_BLOCK)
                .flat_map(|c| crc32fast::hash(c).to_le_bytes())
                .collect();
            assert_eq!(
                sidecar,
                recomputed,
                ".crc differs from the sums of the {}-byte block file",
                file.len()
            );
        }
    }

    /// The sequences the random walk must not be trusted to find.
    #[test]
    fn named_cases() {
        let mut h = Harness::new();
        let bytes = |n: usize, b: u8| vec![b; n];
        // Restart in the middle of a sub-block, then keep appending.
        h.step(&Op::Append(bytes(700, 1)));
        h.step(&Op::Restart);
        h.step(&Op::Append(bytes(100, 2)));
        h.step(&Op::Append(bytes(1500, 3)));
        // Truncate to an unaligned length, then append across the cut.
        h.step(&Op::Truncate(1301));
        h.step(&Op::Append(bytes(3, 4)));
        h.step(&Op::Append(bytes(900, 5)));
        // Truncate to an aligned length and to nothing.
        h.step(&Op::Truncate(1024));
        h.step(&Op::Append(bytes(1, 6)));
        h.step(&Op::Truncate(0));
        h.step(&Op::Append(bytes(513, 7)));
        // Torn append (the prefix ends mid-sub-block), restart, append.
        h.step(&Op::Torn(bytes(2000, 8), 777));
        h.step(&Op::Read(500, 900));
        h.step(&Op::Append(bytes(1085, 9)));
        // A torn append that kept nothing, and one on a fresh block.
        h.step(&Op::Torn(bytes(10, 10), 0));
        h.step(&Op::Truncate(0));
        h.step(&Op::Torn(bytes(600, 11), 600));
        h.step(&Op::Append(bytes(512, 12)));
        h.step(&Op::Read(0, u16::MAX));
    }

    fn op() -> impl Strategy<Value = Op> {
        let data = || proptest::collection::vec(any::<u8>(), 1..3000);
        prop_oneof![
            6 => data().prop_map(Op::Append),
            1 => (data(), 0usize..3000).prop_map(|(d, keep)| Op::Torn(d, keep)),
            2 => any::<u16>().prop_map(Op::Truncate),
            1 => Just(Op::Restart),
            3 => (any::<u16>(), any::<u16>()).prop_map(|(o, l)| Op::Read(o, l)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48 })]

        #[test]
        fn prop_block_is_a_byte_vector_with_an_honest_sidecar(
            ops in proptest::collection::vec(op(), 1..40),
        ) {
            let mut h = Harness::new();
            for op in &ops {
                h.step(op);
            }
        }
    }
}
