package storebuffer

import (
	"invisifence/internal/memtypes"
)

// NonSpecEpoch marks a coalescing-buffer entry holding non-speculative
// stores.
const NonSpecEpoch = -1

// CoalescingEntry is one block-granularity entry with per-word valid bits.
// Epoch is NonSpecEpoch for non-speculative stores or the checkpoint epoch
// index for speculative ones; speculative and non-speculative stores to the
// same block never coalesce (§3.1), so a block may have several entries of
// different classes, ordered by seq.
type CoalescingEntry struct {
	Block  memtypes.Addr
	Words  memtypes.BlockData
	Valid  [memtypes.WordsPerBlock]bool
	Epoch  int
	Issued bool // ownership request sent for this block
	seq    uint64
}

// Seq exposes the entry's age order (older = smaller) for drain ordering.
func (e *CoalescingEntry) Seq() uint64 { return e.seq }

// Coalescing is the unordered block-granularity store buffer. Capacity is
// sized to the number of outstanding store misses (8 entries for a single
// checkpoint, 32 with two in-flight checkpoints, per Figure 6).
type Coalescing struct {
	entries  []*CoalescingEntry
	capacity int
	nextSeq  uint64

	// free recycles removed entries: occupancy is capacity-bounded, so after
	// warm-up every Store that needs a fresh entry pops one here and the
	// speculation-path store stream allocates nothing.
	free []*CoalescingEntry
}

// NewCoalescing creates a coalescing store buffer with the given capacity.
func NewCoalescing(capacity int) *Coalescing {
	return &Coalescing{capacity: capacity}
}

// Full reports whether a store needing a fresh entry would fail.
func (c *Coalescing) Full() bool { return len(c.entries) >= c.capacity }

// Empty reports whether the buffer holds no stores.
func (c *Coalescing) Empty() bool { return len(c.entries) == 0 }

// Len returns the current entry count.
func (c *Coalescing) Len() int { return len(c.entries) }

// Capacity returns the configured capacity.
func (c *Coalescing) Capacity() int { return c.capacity }

// mergeTarget returns the entry a store of the given class may coalesce
// into: the youngest entry for the block, and only if it has the same
// epoch class (no speculative/non-speculative or cross-epoch coalescing,
// and no writing into an older entry past a younger one).
func (c *Coalescing) mergeTarget(block memtypes.Addr, epoch int) *CoalescingEntry {
	var youngest *CoalescingEntry
	for _, e := range c.entries {
		if e.Block == block && (youngest == nil || e.seq > youngest.seq) {
			youngest = e
		}
	}
	if youngest != nil && youngest.Epoch == epoch {
		return youngest
	}
	return nil
}

// CanStore reports whether Store would accept a store of the epoch class to
// the block: it merges into a target entry, or a fresh entry is free.
func (c *Coalescing) CanStore(block memtypes.Addr, epoch int) bool {
	return c.mergeTarget(block, epoch) != nil || !c.Full()
}

// Store buffers a retired store. It returns false, changing nothing, if a
// new entry is needed but the buffer is full.
func (c *Coalescing) Store(addr memtypes.Addr, val memtypes.Word, epoch int) bool {
	block := memtypes.BlockAddr(addr)
	wi := memtypes.WordIndex(addr)
	if e := c.mergeTarget(block, epoch); e != nil {
		e.Words[wi] = val
		e.Valid[wi] = true
		return true
	}
	if c.Full() {
		return false
	}
	c.nextSeq++
	var e *CoalescingEntry
	if k := len(c.free); k > 0 {
		e = c.free[k-1]
		c.free = c.free[:k-1]
		*e = CoalescingEntry{Block: block, Epoch: epoch, seq: c.nextSeq}
	} else {
		e = &CoalescingEntry{Block: block, Epoch: epoch, seq: c.nextSeq}
	}
	e.Words[wi] = val
	e.Valid[wi] = true
	c.entries = append(c.entries, e)
	return true
}

// Forward returns the youngest buffered value for the word at addr, if any.
// Only the local core ever searches the buffer; external coherence requests
// do not (§3.1).
func (c *Coalescing) Forward(addr memtypes.Addr) (memtypes.Word, bool) {
	block := memtypes.BlockAddr(addr)
	wi := memtypes.WordIndex(addr)
	var best *CoalescingEntry
	for _, e := range c.entries {
		if e.Block == block && e.Valid[wi] && (best == nil || e.seq > best.seq) {
			best = e
		}
	}
	if best == nil {
		return 0, false
	}
	return best.Words[wi], true
}

// Entries returns the live entries in age order (the slice is the internal
// one; callers must not mutate its structure).
func (c *Coalescing) Entries() []*CoalescingEntry { return c.entries }

// EntriesForBlock returns the entries for one block in age order.
func (c *Coalescing) EntriesForBlock(block memtypes.Addr) []*CoalescingEntry {
	var out []*CoalescingEntry
	for _, e := range c.entries {
		if e.Block == block {
			out = append(out, e)
		}
	}
	return out
}

// HasBlock reports whether any entry (of any epoch class) holds stores for
// the block. Allocation-free equivalent of len(EntriesForBlock(block)) > 0
// for the hot paths (eviction pinning, retirement bypass checks).
func (c *Coalescing) HasBlock(block memtypes.Addr) bool {
	for _, e := range c.entries {
		if e.Block == block {
			return true
		}
	}
	return false
}

// IsOldestForBlock reports whether e is the oldest live entry for its block.
// The entries slice is kept in seq order, so the first same-block entry
// encountered decides; this replaces the allocating EntriesForBlock walk on
// the per-cycle drain path.
func (c *Coalescing) IsOldestForBlock(target *CoalescingEntry) bool {
	for _, e := range c.entries {
		if e == target {
			return true
		}
		if e.Block == target.Block {
			return false
		}
	}
	panic("storebuffer: IsOldestForBlock of entry not present")
}

// Remove deletes an entry (after its words have been written to the L1) and
// recycles it.
func (c *Coalescing) Remove(target *CoalescingEntry) {
	for i, e := range c.entries {
		if e == target {
			c.entries = append(c.entries[:i], c.entries[i+1:]...)
			c.free = append(c.free, target)
			return
		}
	}
	panic("storebuffer: remove of entry not present")
}

// FlashInvalidateSpec drops every speculative entry of the given epoch (the
// paper's abort operation) and returns how many were dropped. Non-
// speculative entries are untouched because speculative and non-speculative
// stores never coalesce.
func (c *Coalescing) FlashInvalidateSpec(epoch int) int {
	kept := c.entries[:0]
	dropped := 0
	for _, e := range c.entries {
		if e.Epoch == epoch {
			dropped++
			c.free = append(c.free, e)
		} else {
			kept = append(kept, e)
		}
	}
	for i := len(kept); i < len(c.entries); i++ {
		c.entries[i] = nil
	}
	c.entries = kept
	return dropped
}

// CountEpoch returns the number of entries in the given epoch class.
func (c *Coalescing) CountEpoch(epoch int) int {
	n := 0
	for _, e := range c.entries {
		if e.Epoch == epoch {
			n++
		}
	}
	return n
}

// ReclassifyEpoch moves all entries from one epoch class to another: used
// when an epoch commits while some of its stores still sit in the buffer
// waiting for fills (they become non-speculative), and when epoch indexes
// rotate after a commit.
func (c *Coalescing) ReclassifyEpoch(from, to int) int {
	n := 0
	for _, e := range c.entries {
		if e.Epoch == from {
			e.Epoch = to
			n++
		}
	}
	return n
}
