//! Slot-reusing arena for in-flight request state.
//!
//! The engine used to key in-flight traces and DRAM reads by an
//! ever-growing id in a `HashMap`; every request then paid two hash +
//! probe walks on the hot path. A [`Slab`] makes the id *be* the slot
//! index: insertion pops a free slot (or appends), and lookup/removal is a
//! bounds-checked vector index. The population stays small (bounded by
//! in-flight requests), so slots recycle quickly and the table never
//! grows past the high-water mark of concurrent requests.

/// Sentinel id for requests that never need to be looked up again
/// (write-through packets, DRAM writes). Never a valid slot.
pub const NO_SLOT: u64 = u64::MAX;

/// A vector-backed arena whose keys are recycled slot indices.
///
/// # Examples
///
/// ```
/// use fuse_gpu::slab::Slab;
///
/// let mut slab: Slab<&str> = Slab::new();
/// let a = slab.insert("alpha");
/// let b = slab.insert("beta");
/// assert_eq!(slab.remove(a), Some("alpha"));
/// let c = slab.insert("gamma"); // recycles slot `a`
/// assert_eq!(c, a);
/// assert_eq!(slab.len(), 2);
/// assert_eq!(slab.get(b), Some(&"beta"));
/// assert_eq!(slab.get(a), Some(&"gamma"));
/// ```
#[derive(Debug, Clone)]
pub struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// An empty slab.
    pub fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Stores `value` and returns its slot id (a recycled slot if one is
    /// free, else a fresh one).
    ///
    /// # Panics
    ///
    /// Panics if the slab would outgrow the `u32` free-list index space
    /// (more than `u32::MAX` simultaneously live entries) — the same
    /// hard-capacity discipline as `ChainArena::alloc`; without it,
    /// [`Slab::remove`]'s free-list push would silently truncate the
    /// slot id and alias two live requests.
    pub fn insert(&mut self, value: T) -> u64 {
        self.len += 1;
        if let Some(slot) = self.free.pop() {
            let slot = slot as usize;
            debug_assert!(self.slots[slot].is_none(), "free list held a live slot");
            self.slots[slot] = Some(value);
            slot as u64
        } else {
            assert!(self.slots.len() <= u32::MAX as usize, "slab full");
            self.slots.push(Some(value));
            (self.slots.len() - 1) as u64
        }
    }

    /// The value at `id`, if live.
    pub fn get(&self, id: u64) -> Option<&T> {
        self.slots.get(id as usize).and_then(|s| s.as_ref())
    }

    /// Mutable access to the value at `id`, if live.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        self.slots.get_mut(id as usize).and_then(|s| s.as_mut())
    }

    /// Takes the value at `id` out, freeing the slot for reuse.
    pub fn remove(&mut self, id: u64) -> Option<T> {
        let value = self.slots.get_mut(id as usize).and_then(Option::take)?;
        self.len -= 1;
        // In range: a live id is < slots.len(), which insert caps at
        // u32::MAX + 1; the checked conversion keeps that proof local.
        self.free.push(crate::convert::narrow(id));
        Some(value)
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entry is live (O(1) — the drain check runs this every
    /// cycle).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops every live entry and resets the free list, keeping the
    /// backing storage. Ids handed out before the clear must not be used
    /// again: they may alias fresh insertions.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.len = 0;
    }
}

/// Sentinel node index terminating a [`Chain`]. Never a valid node.
const NO_NODE: u32 = u32::MAX;

/// Handle to one FIFO list inside a [`ChainArena`]: head and tail node
/// indices. An empty chain is `Chain::new()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chain {
    head: u32,
    tail: u32,
}

impl Chain {
    /// An empty chain.
    pub const fn new() -> Self {
        Chain {
            head: NO_NODE,
            tail: NO_NODE,
        }
    }

    /// True when the chain holds no values.
    pub fn is_empty(&self) -> bool {
        self.head == NO_NODE
    }
}

impl Default for Chain {
    fn default() -> Self {
        Self::new()
    }
}

/// An arena of singly-linked FIFO chains sharing one node pool.
///
/// The same slot-recycling discipline as [`Slab`], but for *many short
/// lists*: each [`Chain`] (e.g. the waiter list of one outstanding L2
/// miss) threads through intrusive `next` indices in a shared node
/// vector, and drained nodes return to a free list. Steady-state push
/// and drain therefore never allocate — the pool only grows to the
/// high-water mark of simultaneously queued values, unlike a
/// `Vec`-per-list design that allocates a fresh vector per miss.
///
/// # Examples
///
/// ```
/// use fuse_gpu::slab::{Chain, ChainArena};
///
/// let mut arena: ChainArena<u32> = ChainArena::new();
/// let mut chain = Chain::new();
/// arena.push_back(&mut chain, 1);
/// arena.push_back(&mut chain, 2);
/// let mut drained = Vec::new();
/// arena.drain(chain, |v| drained.push(v));
/// assert_eq!(drained, vec![1, 2], "FIFO order");
/// assert_eq!(arena.live(), 0, "nodes recycled");
/// ```
#[derive(Debug, Clone)]
pub struct ChainArena<T> {
    /// `(value, next)` nodes; `next` is [`NO_NODE`] at a chain's tail.
    nodes: Vec<(T, u32)>,
    free: Vec<u32>,
}

impl<T: Copy> ChainArena<T> {
    /// An empty arena.
    pub const fn new() -> Self {
        ChainArena {
            nodes: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Nodes currently threaded on some chain.
    pub fn live(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    fn alloc(&mut self, value: T) -> u32 {
        if let Some(slot) = self.free.pop() {
            self.nodes[slot as usize] = (value, NO_NODE);
            slot
        } else {
            assert!(self.nodes.len() < NO_NODE as usize, "arena full");
            self.nodes.push((value, NO_NODE));
            (self.nodes.len() - 1) as u32
        }
    }

    /// Appends `value` at the tail of `chain`.
    pub fn push_back(&mut self, chain: &mut Chain, value: T) {
        let node = self.alloc(value);
        if chain.head == NO_NODE {
            chain.head = node;
        } else {
            self.nodes[chain.tail as usize].1 = node;
        }
        chain.tail = node;
    }

    /// Consumes `chain` head-to-tail (FIFO), handing each value to `f`
    /// and returning every node to the free list.
    pub fn drain(&mut self, chain: Chain, mut f: impl FnMut(T)) {
        let mut cur = chain.head;
        while cur != NO_NODE {
            let (value, next) = self.nodes[cur as usize];
            self.free.push(cur);
            f(value);
            cur = next;
        }
    }
}

impl<T: Copy> Default for ChainArena<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s = Slab::new();
        let a = s.insert(10u32);
        let b = s.insert(20);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(a), Some(&10));
        assert_eq!(s.get_mut(b).map(|v| std::mem::replace(v, 21)), Some(20));
        assert_eq!(s.get(b), Some(&21));
        assert_eq!(s.remove(a), Some(10));
        assert_eq!(s.remove(a), None, "double remove is safe");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn slots_are_recycled_lifo() {
        let mut s = Slab::new();
        let ids: Vec<u64> = (0..4).map(|i| s.insert(i)).collect();
        s.remove(ids[1]);
        s.remove(ids[3]);
        assert_eq!(s.insert(90), ids[3]);
        assert_eq!(s.insert(91), ids[1]);
        assert_eq!(s.insert(92), 4, "exhausted free list grows the table");
        assert_eq!(s.slots.len(), 5, "high-water mark, not total inserts");
    }

    #[test]
    fn empty_is_o1_and_exact() {
        let mut s = Slab::new();
        assert!(s.is_empty());
        let a = s.insert(1);
        assert!(!s.is_empty());
        s.remove(a);
        assert!(s.is_empty());
    }

    #[test]
    fn clear_resets_population_and_keeps_storage() {
        let mut s = Slab::new();
        let ids: Vec<u64> = (0..4).map(|i| s.insert(i)).collect();
        s.remove(ids[2]);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.get(ids[0]), None, "cleared ids are dead");
        assert_eq!(s.insert(99), 0, "table restarts from slot zero");
    }

    #[test]
    fn missing_ids_are_none() {
        let mut s: Slab<u8> = Slab::new();
        assert_eq!(s.get(0), None);
        assert_eq!(s.get(NO_SLOT), None);
        assert_eq!(s.get_mut(7), None);
        assert_eq!(s.remove(NO_SLOT), None);
    }

    #[test]
    fn chains_are_fifo_and_independent() {
        let mut arena: ChainArena<u32> = ChainArena::new();
        let mut a = Chain::new();
        let mut b = Chain::new();
        assert!(a.is_empty());
        for i in 0..5 {
            arena.push_back(&mut a, i);
            arena.push_back(&mut b, 100 + i);
        }
        assert!(!a.is_empty());
        assert_eq!(arena.live(), 10);
        let mut got = Vec::new();
        arena.drain(a, |v| got.push(v));
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        got.clear();
        arena.drain(b, |v| got.push(v));
        assert_eq!(got, vec![100, 101, 102, 103, 104]);
        assert_eq!(arena.live(), 0);
    }

    #[test]
    fn chain_nodes_recycle_without_growth() {
        let mut arena: ChainArena<u8> = ChainArena::new();
        for round in 0..100u8 {
            let mut c = Chain::new();
            for i in 0..4 {
                arena.push_back(&mut c, round.wrapping_add(i));
            }
            let mut n = 0;
            arena.drain(c, |_| n += 1);
            assert_eq!(n, 4);
        }
        assert_eq!(
            arena.nodes.len(),
            4,
            "pool must stay at the high-water mark"
        );
    }

    #[test]
    fn interleaved_chains_keep_their_own_order() {
        // Alternating pushes across two chains fragment the node pool;
        // each chain must still drain in its own FIFO order.
        let mut arena: ChainArena<u32> = ChainArena::new();
        let mut a = Chain::new();
        let mut b = Chain::new();
        for i in 0..8 {
            if i % 2 == 0 {
                arena.push_back(&mut a, i);
            } else {
                arena.push_back(&mut b, i);
            }
        }
        let mut got_a = Vec::new();
        arena.drain(a, |v| got_a.push(v));
        assert_eq!(got_a, vec![0, 2, 4, 6]);
        let mut got_b = Vec::new();
        arena.drain(b, |v| got_b.push(v));
        assert_eq!(got_b, vec![1, 3, 5, 7]);
    }
}
