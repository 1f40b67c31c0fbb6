//! Data nodes: checksummed block stores with failure injection.

use crate::config::StorageBackend;
use crate::fault::{FaultAction, FaultInjector, OpClass};
use crc32fast::Hasher;
use logbase_common::{Error, Result};
use parking_lot::Mutex;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Identifier of a data node within one DFS instance.
pub type NodeId = u32;

/// Globally unique block id (assigned by the name node).
pub type BlockId = u64;

/// Checksum granularity: one CRC32 per 512-byte sub-block, HDFS-style
/// (`io.bytes.per.checksum`). Reads verify every sub-block they touch, so
/// a flipped bit anywhere in the covered range surfaces as
/// [`Error::ChecksumMismatch`] instead of silently corrupt data.
pub const SUB_BLOCK: usize = 512;

fn block_path(dir: &Path, block: BlockId) -> PathBuf {
    dir.join(format!("blk_{block}"))
}

fn sidecar_path(dir: &Path, block: BlockId) -> PathBuf {
    dir.join(format!("blk_{block}.crc"))
}

/// Where a replica's bytes live.
enum Store {
    Memory(Vec<u8>),
    /// The block file (opened `O_APPEND`) and its `.crc` sidecar, both
    /// held open for as long as the node keeps the block's state.
    Disk {
        data: File,
        sidecar: File,
    },
}

/// One replica: its bytes and the checksums that describe them.
///
/// `sums` always holds exactly one CRC per sub-block of `len` bytes, the
/// last one covering the partial tail when `len` is not a multiple of
/// [`SUB_BLOCK`]. Every sum is computed from the bytes the writer handed
/// over, never from bytes read back: a CRC's register *is* its checksum,
/// so the partial tail's sum is also where hashing resumes when the next
/// append arrives ([`Hasher::new_with_initial`]), and a byte that rots in
/// the tail stays detectable however many appends follow. The one
/// exception is [`Block::truncate`] into the middle of a sub-block, which
/// has no way to know the CRC of the kept prefix but to hash it.
struct Block {
    /// `dn-<node> blk_<id>`, for error messages.
    name: String,
    len: u64,
    /// Little-endian, i.e. already in the sidecar's format, so persisting
    /// a run of them is a borrow, not a copy.
    sums: Vec<[u8; 4]>,
    store: Store,
}

impl Block {
    fn in_memory(name: String) -> Block {
        Block {
            name,
            len: 0,
            sums: Vec::new(),
            store: Store::Memory(Vec::new()),
        }
    }

    /// Open the replica of `block` under `dir`, creating it empty when it
    /// is absent and `create` is set (`None` when absent and not). What is
    /// found is trusted as far as it is self-consistent: the block file's
    /// length, and a sidecar holding exactly one sum per sub-block of
    /// that length. The data is not re-read — reads verify it.
    fn open(dir: &Path, block: BlockId, create: bool, name: String) -> Result<Option<Block>> {
        let data = match OpenOptions::new()
            .read(true)
            .append(true)
            .create(create)
            .open(block_path(dir, block))
        {
            Ok(f) => f,
            Err(e) if !create && e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let len = data.metadata()?.len();
        let sidecar = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(sidecar_path(dir, block))?;
        let stored = sidecar.metadata()?.len();
        let expected = len.div_ceil(SUB_BLOCK as u64) * 4;
        if stored != expected {
            return Err(Error::Corruption(format!(
                "{name}: sidecar holds {stored} bytes of checksums, a {len}-byte block has {expected}"
            )));
        }
        let mut raw = vec![0u8; expected as usize];
        sidecar.read_exact_at(&mut raw, 0)?;
        let sums = raw
            .chunks_exact(4)
            .map(|c| [c[0], c[1], c[2], c[3]])
            .collect();
        Ok(Some(Block {
            name,
            len,
            sums,
            store: Store::Disk { data, sidecar },
        }))
    }

    /// Write `sums[first..]` at their place in the sidecar.
    fn persist_sums(&self, first: usize) -> Result<()> {
        if let Store::Disk { sidecar, .. } = &self.store {
            sidecar.write_all_at(self.sums[first..].as_flattened(), first as u64 * 4)?;
        }
        Ok(())
    }

    /// Append `bytes`; returns the replica length afterwards. On disk
    /// that is one `write` of the data and one positional write of the
    /// sums it changed; nothing is read back.
    fn append(&mut self, bytes: &[u8]) -> Result<u64> {
        match &mut self.store {
            Store::Memory(data) => data.extend_from_slice(bytes),
            Store::Disk { data, .. } => {
                if let Err(e) = data.write_all(bytes) {
                    // Keep the file at the length the sums describe.
                    let _ = data.set_len(self.len);
                    return Err(e.into());
                }
            }
        }
        let mut filled = (self.len % SUB_BLOCK as u64) as usize;
        let mut tail = match filled {
            0 => Hasher::new(),
            _ => Hasher::new_with_initial(u32::from_le_bytes(
                self.sums.pop().expect("a partial sub-block has a sum"),
            )),
        };
        let first = self.sums.len();
        let mut rest = bytes;
        while !rest.is_empty() {
            let (piece, after) = rest.split_at(rest.len().min(SUB_BLOCK - filled));
            tail.update(piece);
            filled += piece.len();
            if filled == SUB_BLOCK {
                self.sums
                    .push(std::mem::take(&mut tail).finalize().to_le_bytes());
                filled = 0;
            }
            rest = after;
        }
        if filled != 0 {
            self.sums.push(tail.finalize().to_le_bytes());
        }
        self.len += bytes.len() as u64;
        self.persist_sums(first)?;
        Ok(self.len)
    }

    /// Read `len` bytes at `offset`: the whole sub-blocks covering the
    /// range (one positional read on disk), verified against `sums`.
    fn read(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let end = offset
            .checked_add(len as u64)
            .filter(|e| *e <= self.len)
            .ok_or_else(|| Error::OutOfBounds {
                file: self.name.clone(),
                offset,
                len: len as u64,
                size: self.len,
            })?;
        let first = offset as usize / SUB_BLOCK;
        let start = first * SUB_BLOCK;
        let stop = (end.div_ceil(SUB_BLOCK as u64) * SUB_BLOCK as u64).min(self.len) as usize;
        let skip = offset as usize - start;
        match &self.store {
            Store::Memory(data) => {
                self.verify(first, &data[start..stop])?;
                Ok(data[offset as usize..end as usize].to_vec())
            }
            Store::Disk { data, .. } => {
                let mut raw = vec![0u8; stop - start];
                data.read_exact_at(&mut raw, start as u64)?;
                self.verify(first, &raw)?;
                raw.truncate(skip + len);
                raw.drain(..skip);
                Ok(raw)
            }
        }
    }

    /// Check `data`, which starts at sub-block `first`, against `sums`.
    fn verify(&self, first: usize, data: &[u8]) -> Result<()> {
        for (i, chunk) in (first..).zip(data.chunks(SUB_BLOCK)) {
            let expected = self.sums.get(i).copied().map(u32::from_le_bytes);
            let expected = expected.ok_or_else(|| {
                Error::Corruption(format!("{}: missing checksum for sub-block {i}", self.name))
            })?;
            let actual = crc32fast::hash(chunk);
            if actual != expected {
                return Err(Error::ChecksumMismatch {
                    context: format!("{} sub-block {i}", self.name),
                    expected,
                    actual,
                });
            }
        }
        Ok(())
    }

    /// Shrink to `len` bytes (no-op at or below it already).
    fn truncate(&mut self, len: u64) -> Result<()> {
        if self.len <= len {
            return Ok(());
        }
        let first = len as usize / SUB_BLOCK;
        // The prefix kept of a sub-block cut in two: its CRC cannot be
        // had from the CRC of the longer run, only from the bytes.
        let mut kept = [0u8; SUB_BLOCK];
        let kept = &mut kept[..len as usize % SUB_BLOCK];
        match &mut self.store {
            Store::Memory(data) => {
                data.truncate(len as usize);
                kept.copy_from_slice(&data[first * SUB_BLOCK..]);
            }
            Store::Disk { data, .. } => {
                data.read_exact_at(kept, (first * SUB_BLOCK) as u64)?;
                data.set_len(len)?;
            }
        }
        self.len = len;
        self.sums.truncate(first);
        if !kept.is_empty() {
            self.sums.push(crc32fast::hash(kept).to_le_bytes());
        }
        self.persist_sums(first)?;
        if let Store::Disk { sidecar, .. } = &self.store {
            sidecar.set_len(self.sums.len() as u64 * 4)?;
        }
        Ok(())
    }
}

/// One simulated data node.
///
/// Holds replicas of chunks ("blocks") with per-sub-block CRC32 checksums
/// and supports failure injection two ways: coarse kill/restart (a killed
/// node rejects every operation with [`Error::NodeDown`]; restarting a
/// memory-backed node loses its blocks, a disk-backed node keeps them),
/// and a seeded [`FaultInjector`] consulted before every block operation
/// for transient errors, latency, torn appends and bit flips.
pub struct DataNode {
    id: NodeId,
    rack: u32,
    alive: AtomicBool,
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
    /// Disk-backed: the directory the block files live in. `None`: the
    /// blocks live in `blocks` and nowhere else.
    dir: Option<PathBuf>,
    /// Per-block state. For a disk-backed node this holds the blocks
    /// touched since the last restart (their lengths, sums and two open
    /// fds each); the files are the truth and the rest are opened on
    /// first use.
    blocks: Mutex<HashMap<BlockId, Block>>,
    faults: Arc<FaultInjector>,
}

impl DataNode {
    /// Create a node backed per `backend`, consulting `faults` before
    /// every block operation.
    pub fn new(
        id: NodeId,
        rack: u32,
        backend: &StorageBackend,
        faults: Arc<FaultInjector>,
    ) -> Result<Self> {
        let dir = match backend {
            StorageBackend::Memory => None,
            StorageBackend::Disk(root) => {
                let dir = root.join(format!("dn-{id}"));
                std::fs::create_dir_all(&dir)?;
                Some(dir)
            }
        };
        Ok(DataNode {
            id,
            rack,
            alive: AtomicBool::new(true),
            bytes_written: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            dir,
            blocks: Mutex::new(HashMap::new()),
            faults,
        })
    }

    /// Node identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Rack the node lives in.
    pub fn rack(&self) -> u32 {
        self.rack
    }

    /// Liveness flag.
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Kill the node: every subsequent operation fails until restart.
    pub fn kill(&self) {
        self.alive.store(false, Ordering::Release);
    }

    /// Restart the node. Memory-backed nodes come back empty (their RAM
    /// is gone); disk-backed nodes keep their blocks and reopen them on
    /// first use.
    pub fn restart(&self) {
        self.blocks.lock().clear();
        self.alive.store(true, Ordering::Release);
    }

    fn check_alive(&self) -> Result<()> {
        if self.is_alive() {
            Ok(())
        } else {
            Err(Error::NodeDown(format!("dn-{}", self.id)))
        }
    }

    fn context(&self, block: BlockId) -> String {
        format!("dn-{} blk_{block}", self.id)
    }

    /// Consult the fault injector for `class`: sleeps any injected
    /// latency, then returns the action for the caller to apply.
    fn fault(&self, class: OpClass) -> FaultAction {
        let decision = self.faults.decide(self.id, class);
        if let Some(latency) = decision.latency {
            std::thread::sleep(latency);
        }
        decision.action
    }

    /// The state of `block` within `blocks` (the locked map), first
    /// opening it from disk — or, with `create`, starting it empty — when
    /// it is not there. `None`: this node holds no such replica.
    fn block<'a>(
        &self,
        blocks: &'a mut HashMap<BlockId, Block>,
        block: BlockId,
        create: bool,
    ) -> Result<Option<&'a mut Block>> {
        match blocks.entry(block) {
            Entry::Occupied(e) => Ok(Some(e.into_mut())),
            Entry::Vacant(slot) => {
                let opened = match &self.dir {
                    Some(dir) => Block::open(dir, block, create, self.context(block))?,
                    None => create.then(|| Block::in_memory(self.context(block))),
                };
                Ok(opened.map(|b| slot.insert(b)))
            }
        }
    }

    /// Append `data` to the replica of `block`, creating it if absent.
    /// Returns the replica length after the append.
    pub fn append_block(&self, block: BlockId, data: &[u8]) -> Result<u64> {
        self.check_alive()?;
        match self.fault(OpClass::Append) {
            FaultAction::Proceed | FaultAction::BitFlip { .. } => {}
            FaultAction::TransientIo => {
                return Err(FaultInjector::transient_error(self.id, OpClass::Append))
            }
            FaultAction::Crash => {
                self.kill();
                return Err(Error::NodeDown(format!("dn-{} (injected crash)", self.id)));
            }
            FaultAction::TornAppend { keep } => {
                // Persist a prefix, then die: the classic torn write.
                let keep = keep.min(data.len());
                let _ = self.append_raw(block, &data[..keep]);
                self.kill();
                return Err(Error::Io(std::io::Error::new(
                    std::io::ErrorKind::Interrupted,
                    format!(
                        "injected torn append on dn-{}: kept {keep}/{} bytes",
                        self.id,
                        data.len()
                    ),
                )));
            }
        }
        self.append_raw(block, data)
    }

    fn append_raw(&self, block: BlockId, data: &[u8]) -> Result<u64> {
        let mut blocks = self.blocks.lock();
        let b = self
            .block(&mut blocks, block, true)?
            .ok_or_else(|| Error::FileNotFound(self.context(block)))?;
        let len = b.append(data)?;
        self.bytes_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        Ok(len)
    }

    /// Read `len` bytes at `offset` within the replica of `block`,
    /// verifying the checksums of every sub-block the range touches.
    pub fn read_block(&self, block: BlockId, offset: u64, len: usize) -> Result<Vec<u8>> {
        self.check_alive()?;
        match self.fault(OpClass::Read) {
            FaultAction::Proceed | FaultAction::TornAppend { .. } => {}
            FaultAction::TransientIo => {
                return Err(FaultInjector::transient_error(self.id, OpClass::Read))
            }
            FaultAction::Crash => {
                self.kill();
                return Err(Error::NodeDown(format!("dn-{} (injected crash)", self.id)));
            }
            FaultAction::BitFlip { byte_seed, bit } => {
                self.flip_bit(block, byte_seed, bit)?;
            }
        }
        self.bytes_read.fetch_add(len as u64, Ordering::Relaxed);
        let mut blocks = self.blocks.lock();
        self.block(&mut blocks, block, false)?
            .ok_or_else(|| Error::FileNotFound(self.context(block)))?
            .read(offset, len)
    }

    /// Flip one bit of the stored replica (fault injection). The target
    /// byte is `byte_seed % block_len`; an absent or empty block is left
    /// alone. Checksums are deliberately *not* updated — the next read
    /// covering the byte fails with [`Error::ChecksumMismatch`].
    fn flip_bit(&self, block: BlockId, byte_seed: u64, bit: u8) -> Result<()> {
        let mut blocks = self.blocks.lock();
        match &self.dir {
            None => {
                if let Some(Block {
                    store: Store::Memory(data),
                    ..
                }) = blocks.get_mut(&block)
                {
                    if !data.is_empty() {
                        let at = (byte_seed % data.len() as u64) as usize;
                        data[at] ^= 1 << (bit % 8);
                    }
                }
            }
            // Through a handle of its own: the block's is `O_APPEND`, and
            // the damage is meant to happen behind the node's back.
            Some(dir) => {
                if let Ok(f) = OpenOptions::new()
                    .read(true)
                    .write(true)
                    .open(block_path(dir, block))
                {
                    let size = f.metadata()?.len();
                    if size > 0 {
                        let at = byte_seed % size;
                        let mut byte = [0u8];
                        f.read_exact_at(&mut byte, at)?;
                        byte[0] ^= 1 << (bit % 8);
                        f.write_all_at(&byte, at)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Shrink the replica of `block` to `len` bytes (no-op when the
    /// replica is absent or already at/below `len`). The replication
    /// pipeline uses this to undo partial appends before re-driving a
    /// write.
    pub fn truncate_block(&self, block: BlockId, len: u64) -> Result<()> {
        self.check_alive()?;
        let mut blocks = self.blocks.lock();
        match self.block(&mut blocks, block, false)? {
            Some(b) => b.truncate(len),
            None => Ok(()),
        }
    }

    /// Length of the local replica of `block` (0 if absent).
    pub fn block_len(&self, block: BlockId) -> Result<u64> {
        self.check_alive()?;
        if let Some(b) = self.blocks.lock().get(&block) {
            return Ok(b.len);
        }
        // Not opened since the last restart: ask the file, without
        // spending two fds on a block that is only being probed.
        Ok(self
            .dir
            .as_ref()
            .and_then(|dir| block_path(dir, block).metadata().ok())
            .map_or(0, |m| m.len()))
    }

    /// Whether this node holds a replica of `block`.
    pub fn has_block(&self, block: BlockId) -> bool {
        if !self.is_alive() {
            return false;
        }
        self.blocks.lock().contains_key(&block)
            || self
                .dir
                .as_ref()
                .is_some_and(|dir| block_path(dir, block).exists())
    }

    /// Block report: every block id this node holds a replica of. The
    /// name node diffs this against its chunk table to reclaim orphaned
    /// replicas after a restart.
    pub fn list_blocks(&self) -> Vec<BlockId> {
        let blocks = self.blocks.lock();
        let Some(dir) = &self.dir else {
            return blocks.keys().copied().collect();
        };
        let mut out = Vec::new();
        if let Ok(entries) = std::fs::read_dir(dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                if let Some(id) = name.strip_prefix("blk_") {
                    if let Ok(id) = id.parse::<BlockId>() {
                        out.push(id);
                    }
                }
            }
        }
        out
    }

    /// Drop the local replica of `block` (and its checksum sidecar).
    pub fn delete_block(&self, block: BlockId) -> Result<()> {
        self.check_alive()?;
        match self.fault(OpClass::Delete) {
            FaultAction::Proceed | FaultAction::BitFlip { .. } | FaultAction::TornAppend { .. } => {
            }
            FaultAction::TransientIo => {
                return Err(FaultInjector::transient_error(self.id, OpClass::Delete))
            }
            FaultAction::Crash => {
                self.kill();
                return Err(Error::NodeDown(format!("dn-{} (injected crash)", self.id)));
            }
        }
        let mut blocks = self.blocks.lock();
        blocks.remove(&block);
        if let Some(dir) = &self.dir {
            for path in [block_path(dir, block), sidecar_path(dir, block)] {
                match std::fs::remove_file(path) {
                    Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e.into()),
                    _ => {}
                }
            }
        }
        Ok(())
    }

    /// Total bytes written to this node since creation.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    /// Total bytes read from this node since creation.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultSpec, ScheduledFault};

    fn quiet(id: NodeId, rack: u32, backend: &StorageBackend) -> DataNode {
        DataNode::new(id, rack, backend, Arc::new(FaultInjector::disabled())).unwrap()
    }

    #[test]
    fn memory_append_and_read() {
        let n = quiet(0, 0, &StorageBackend::Memory);
        assert_eq!(n.append_block(1, b"abc").unwrap(), 3);
        assert_eq!(n.append_block(1, b"def").unwrap(), 6);
        assert_eq!(n.read_block(1, 2, 3).unwrap(), b"cde");
        assert_eq!(n.block_len(1).unwrap(), 6);
        assert!(n.has_block(1));
        assert!(!n.has_block(2));
    }

    #[test]
    fn read_out_of_bounds() {
        let n = quiet(0, 0, &StorageBackend::Memory);
        n.append_block(1, b"abc").unwrap();
        assert!(matches!(
            n.read_block(1, 2, 5),
            Err(Error::OutOfBounds { .. })
        ));
        assert!(matches!(n.read_block(9, 0, 1), Err(Error::FileNotFound(_))));
    }

    #[test]
    fn kill_blocks_all_ops_and_memory_restart_wipes() {
        let n = quiet(7, 1, &StorageBackend::Memory);
        n.append_block(1, b"abc").unwrap();
        n.kill();
        assert!(!n.is_alive());
        assert!(matches!(n.append_block(1, b"x"), Err(Error::NodeDown(_))));
        assert!(matches!(n.read_block(1, 0, 1), Err(Error::NodeDown(_))));
        assert!(!n.has_block(1));
        n.restart();
        assert!(n.is_alive());
        // Memory nodes lose their blocks on restart.
        assert!(!n.has_block(1));
    }

    #[test]
    fn disk_node_survives_restart() {
        let dir = tempfile::tempdir().unwrap();
        let backend = StorageBackend::Disk(dir.path().to_path_buf());
        let n = quiet(3, 0, &backend);
        n.append_block(5, b"persistent").unwrap();
        n.kill();
        n.restart();
        assert!(n.has_block(5));
        assert_eq!(n.read_block(5, 0, 10).unwrap(), b"persistent");
    }

    #[test]
    fn disk_append_read_delete() {
        let dir = tempfile::tempdir().unwrap();
        let backend = StorageBackend::Disk(dir.path().to_path_buf());
        let n = quiet(0, 0, &backend);
        n.append_block(1, b"hello ").unwrap();
        assert_eq!(n.append_block(1, b"world").unwrap(), 11);
        assert_eq!(n.read_block(1, 6, 5).unwrap(), b"world");
        assert_eq!(n.block_len(1).unwrap(), 11);
        n.delete_block(1).unwrap();
        assert!(!n.has_block(1));
        assert_eq!(n.block_len(1).unwrap(), 0);
    }

    #[test]
    fn io_accounting() {
        let n = quiet(0, 0, &StorageBackend::Memory);
        n.append_block(1, &[0u8; 100]).unwrap();
        n.read_block(1, 0, 40).unwrap();
        assert_eq!(n.bytes_written(), 100);
        assert_eq!(n.bytes_read(), 40);
    }

    #[test]
    fn checksums_span_sub_blocks() {
        for backend in [
            StorageBackend::Memory,
            StorageBackend::Disk(tempfile::tempdir().unwrap().path().to_path_buf()),
        ] {
            let n = quiet(0, 0, &backend);
            // Build a block spanning several sub-blocks from ragged
            // appends, then read at assorted alignments.
            let mut expect = Vec::new();
            for i in 0..20u32 {
                let piece = vec![i as u8; 137];
                expect.extend_from_slice(&piece);
                n.append_block(1, &piece).unwrap();
            }
            assert_eq!(n.block_len(1).unwrap(), expect.len() as u64);
            for (off, len) in [
                (0usize, 10usize),
                (500, 600),
                (511, 2),
                (1024, 512),
                (2000, 740),
            ] {
                assert_eq!(
                    n.read_block(1, off as u64, len).unwrap(),
                    &expect[off..off + len],
                    "range {off}+{len}"
                );
            }
        }
    }

    #[test]
    fn bit_flip_is_caught_by_read_checksums() {
        for backend in [
            StorageBackend::Memory,
            StorageBackend::Disk(tempfile::tempdir().unwrap().path().to_path_buf()),
        ] {
            let faults = Arc::new(FaultInjector::new(42));
            let n = DataNode::new(0, 0, &backend, Arc::clone(&faults)).unwrap();
            n.append_block(1, &[7u8; 2000]).unwrap();
            faults.set_spec(
                0,
                OpClass::Read,
                FaultSpec::default().with_scheduled(1, ScheduledFault::BitFlip),
            );
            let err = n.read_block(1, 0, 2000).unwrap_err();
            assert!(err.is_corruption(), "expected checksum failure, got {err}");
            // The corruption is persistent: later reads of the damaged
            // sub-block keep failing even with no further faults.
            assert!(n.read_block(1, 0, 2000).is_err());
        }
    }

    /// A byte that rots in the partial tail sub-block must stay
    /// detectable after the next append: the tail's sum is continued
    /// from what the writer sent, not recomputed from what is stored.
    #[test]
    fn append_does_not_bless_a_corrupt_tail_on_disk() {
        let dir = tempfile::tempdir().unwrap();
        let n = quiet(0, 0, &StorageBackend::Disk(dir.path().to_path_buf()));
        n.append_block(1, &[7u8; 700]).unwrap();
        // Damage byte 600 (sub-block 1, the partial tail) behind the
        // node's back.
        let file = OpenOptions::new()
            .write(true)
            .open(block_path(&dir.path().join("dn-0"), 1))
            .unwrap();
        file.write_all_at(&[8u8], 600).unwrap();
        assert_eq!(n.append_block(1, &[9u8; 100]).unwrap(), 800);
        let err = n.read_block(1, 0, 800).unwrap_err();
        assert!(err.is_corruption(), "corrupt tail served: {err}");
        // Reopening from the files changes nothing: the sidecar still
        // carries the writer's sums.
        n.kill();
        n.restart();
        n.append_block(1, &[9u8; 400]).unwrap();
        assert!(n.read_block(1, 512, 688).unwrap_err().is_corruption());
        // The sub-block before the damage is unaffected.
        assert_eq!(n.read_block(1, 0, 512).unwrap(), &[7u8; 512]);
    }

    #[test]
    fn append_does_not_bless_a_corrupt_tail_in_memory() {
        let faults = Arc::new(FaultInjector::new(11));
        let n = DataNode::new(0, 0, &StorageBackend::Memory, Arc::clone(&faults)).unwrap();
        // 300 bytes: whichever byte the flip picks is in the partial tail.
        n.append_block(1, &[7u8; 300]).unwrap();
        faults.set_spec(
            0,
            OpClass::Read,
            FaultSpec::default().with_scheduled(1, ScheduledFault::BitFlip),
        );
        assert!(n.read_block(1, 0, 300).unwrap_err().is_corruption());
        assert_eq!(n.append_block(1, &[9u8; 100]).unwrap(), 400);
        let err = n.read_block(1, 0, 400).unwrap_err();
        assert!(err.is_corruption(), "corrupt tail served: {err}");
    }

    #[test]
    fn failed_append_is_not_counted_as_written() {
        let dir = tempfile::tempdir().unwrap();
        let n = quiet(0, 0, &StorageBackend::Disk(dir.path().to_path_buf()));
        n.append_block(1, &[1u8; 100]).unwrap();
        // A block whose file cannot be created: the node's directory is
        // gone.
        std::fs::remove_dir_all(dir.path().join("dn-0")).unwrap();
        assert!(n.append_block(2, &[2u8; 50]).is_err());
        assert_eq!(n.bytes_written(), 100);
    }

    #[test]
    fn reopen_rejects_a_sidecar_that_does_not_describe_the_block() {
        let dir = tempfile::tempdir().unwrap();
        let n = quiet(0, 0, &StorageBackend::Disk(dir.path().to_path_buf()));
        n.append_block(1, &[5u8; 1300]).unwrap();
        n.kill();
        n.restart();
        // Three sub-blocks, two sums.
        OpenOptions::new()
            .write(true)
            .open(sidecar_path(&dir.path().join("dn-0"), 1))
            .unwrap()
            .set_len(8)
            .unwrap();
        assert!(n.read_block(1, 0, 10).unwrap_err().is_corruption());
        assert!(n.append_block(1, b"x").unwrap_err().is_corruption());
        // Quarantine still works: the replica can be dropped and rebuilt.
        n.delete_block(1).unwrap();
        assert_eq!(n.append_block(1, b"fresh").unwrap(), 5);
        assert_eq!(n.read_block(1, 0, 5).unwrap(), b"fresh");
    }

    #[test]
    fn torn_append_persists_prefix_and_kills_node() {
        let dir = tempfile::tempdir().unwrap();
        let faults = Arc::new(FaultInjector::new(9));
        let n = DataNode::new(
            2,
            0,
            &StorageBackend::Disk(dir.path().to_path_buf()),
            Arc::clone(&faults),
        )
        .unwrap();
        n.append_block(1, b"committed").unwrap();
        faults.set_spec(
            2,
            OpClass::Append,
            FaultSpec::default().with_scheduled(1, ScheduledFault::TornAppend { keep: 3 }),
        );
        let err = n.append_block(1, b"doomed-write").unwrap_err();
        assert!(
            err.is_retriable(),
            "torn append should read as transient: {err}"
        );
        assert!(!n.is_alive());
        n.restart();
        assert_eq!(n.block_len(1).unwrap(), 12); // "committed" + "doo"
        assert_eq!(n.read_block(1, 0, 12).unwrap(), b"committeddoo");
    }

    #[test]
    fn truncate_undoes_partial_appends() {
        for backend in [
            StorageBackend::Memory,
            StorageBackend::Disk(tempfile::tempdir().unwrap().path().to_path_buf()),
        ] {
            let n = quiet(0, 0, &backend);
            n.append_block(1, &[1u8; 700]).unwrap();
            n.append_block(1, &[2u8; 300]).unwrap();
            n.truncate_block(1, 700).unwrap();
            assert_eq!(n.block_len(1).unwrap(), 700);
            assert_eq!(n.read_block(1, 0, 700).unwrap(), &[1u8; 700]);
            // Truncating to a larger size is a no-op.
            n.truncate_block(1, 5000).unwrap();
            assert_eq!(n.block_len(1).unwrap(), 700);
            // Re-appending after truncation keeps checksums consistent.
            n.append_block(1, &[3u8; 100]).unwrap();
            let got = n.read_block(1, 600, 200).unwrap();
            assert_eq!(&got[..100], &[1u8; 100]);
            assert_eq!(&got[100..], &[3u8; 100]);
        }
    }

    #[test]
    fn block_report_lists_replicas() {
        let dir = tempfile::tempdir().unwrap();
        let backend = StorageBackend::Disk(dir.path().to_path_buf());
        let n = quiet(0, 0, &backend);
        n.append_block(3, b"x").unwrap();
        n.append_block(9, b"y").unwrap();
        let mut blocks = n.list_blocks();
        blocks.sort_unstable();
        assert_eq!(blocks, vec![3, 9]);
        n.delete_block(3).unwrap();
        assert_eq!(n.list_blocks(), vec![9]);
    }

    #[test]
    fn injected_transient_errors_are_retriable() {
        let faults = Arc::new(FaultInjector::new(1));
        let n = DataNode::new(0, 0, &StorageBackend::Memory, Arc::clone(&faults)).unwrap();
        n.append_block(1, b"abc").unwrap();
        faults.set_spec(0, OpClass::Read, FaultSpec::transient(1.0));
        let err = n.read_block(1, 0, 3).unwrap_err();
        assert!(err.is_retriable());
        faults.clear();
        assert_eq!(n.read_block(1, 0, 3).unwrap(), b"abc");
    }
}
