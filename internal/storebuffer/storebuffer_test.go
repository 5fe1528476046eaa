package storebuffer

import (
	"math/rand"
	"testing"

	"invisifence/internal/memtypes"
)

// ------------------------------------------------------------------ FIFO

func TestFIFOOrderAndCapacity(t *testing.T) {
	f := NewFIFO(4)
	for i := 0; i < 4; i++ {
		if !f.Push(memtypes.Addr(i*8), memtypes.Word(i)) {
			t.Fatalf("push %d failed", i)
		}
	}
	if !f.Full() || f.Push(0x100, 1) {
		t.Fatal("push into full FIFO succeeded")
	}
	// A refused push changes nothing.
	if f.Len() != 4 {
		t.Fatalf("len = %d after a refused push", f.Len())
	}
	if _, ok := f.Forward(0x100); ok {
		t.Fatal("refused push is visible to forwarding")
	}
	for i := 0; i < 4; i++ {
		h := f.Head()
		if h == nil || h.Val != memtypes.Word(i) {
			t.Fatalf("head %d = %+v", i, h)
		}
		f.Pop()
	}
	if !f.Empty() {
		t.Fatal("not empty after draining")
	}
}

func TestFIFOForwardYoungest(t *testing.T) {
	f := NewFIFO(8)
	f.Push(0x40, 1)
	f.Push(0x48, 2)
	f.Push(0x40, 3) // newer store to same word
	if v, ok := f.Forward(0x40); !ok || v != 3 {
		t.Fatalf("forward = %d,%v want 3", v, ok)
	}
	if v, ok := f.Forward(0x48); !ok || v != 2 {
		t.Fatalf("forward = %d,%v want 2", v, ok)
	}
	if _, ok := f.Forward(0x50); ok {
		t.Fatal("forward hit for absent word")
	}
}

func TestFIFOPrefetchBlocks(t *testing.T) {
	f := NewFIFO(16)
	f.Push(0x00, 1) // block 0
	f.Push(0x08, 2) // block 0
	f.Push(0x40, 3) // block 1
	f.Push(0x80, 4) // block 2
	blocks := f.PrefetchBlocks(3)
	if len(blocks) != 2 || blocks[0] != 0 || blocks[1] != 0x40 {
		t.Fatalf("prefetch blocks = %v", blocks)
	}
}

func TestFIFOPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewFIFO(2).Pop()
}

// ------------------------------------------------------------ Coalescing

func TestCoalescingMergeSameEpoch(t *testing.T) {
	c := NewCoalescing(2)
	if !c.Store(0x40, 1, NonSpecEpoch) || !c.Store(0x48, 2, NonSpecEpoch) {
		t.Fatal("stores failed")
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1 (merged)", c.Len())
	}
	e := c.Entries()[0]
	if !e.Valid[0] || !e.Valid[1] || e.Words[0] != 1 || e.Words[1] != 2 {
		t.Fatalf("bad entry %+v", e)
	}
}

func TestCoalescingNoCrossEpochMerge(t *testing.T) {
	c := NewCoalescing(4)
	c.Store(0x40, 1, NonSpecEpoch)
	c.Store(0x48, 2, 0) // speculative epoch 0: no coalescing (§3.1)
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	// A later store of the same epoch merges into the youngest entry only.
	c.Store(0x40, 3, 0)
	if c.Len() != 2 {
		t.Fatalf("len = %d after same-epoch merge, want 2", c.Len())
	}
	// A non-speculative store now cannot merge (the youngest entry for the
	// block is speculative): new entry.
	c.Store(0x40, 4, NonSpecEpoch)
	if c.Len() != 3 {
		t.Fatalf("len = %d, want 3", c.Len())
	}
}

func TestCoalescingForwardYoungest(t *testing.T) {
	c := NewCoalescing(4)
	c.Store(0x40, 1, NonSpecEpoch)
	c.Store(0x40, 9, 0) // younger speculative value
	if v, ok := c.Forward(0x40); !ok || v != 9 {
		t.Fatalf("forward = %d,%v want 9", v, ok)
	}
	if _, ok := c.Forward(0x48); ok {
		t.Fatal("hit for invalid word")
	}
}

func TestCoalescingCapacity(t *testing.T) {
	c := NewCoalescing(2)
	c.Store(0x000, 1, NonSpecEpoch)
	c.Store(0x040, 2, NonSpecEpoch)
	if c.CanStore(0x080, NonSpecEpoch) || c.Store(0x080, 3, NonSpecEpoch) {
		t.Fatal("store beyond capacity succeeded")
	}
	// A refused store changes nothing.
	if c.Len() != 2 || c.HasBlock(0x080) {
		t.Fatalf("refused store changed the buffer: len %d", c.Len())
	}
	if _, ok := c.Forward(0x080); ok {
		t.Fatal("refused store is visible to forwarding")
	}
	// A speculative store to a buffered block needs its own entry too.
	if c.CanStore(0x000, 0) || c.Store(0x000, 5, 0) {
		t.Fatal("cross-epoch store into a full buffer succeeded")
	}
	if v, _ := c.Forward(0x000); v != 1 {
		t.Fatalf("refused store changed a buffered word: %d", v)
	}
	// Merging into an existing block still works when full.
	if !c.CanStore(0x000, NonSpecEpoch) || !c.Store(0x008, 4, NonSpecEpoch) {
		t.Fatal("merge into existing entry failed when full")
	}
}

func TestCoalescingFlashInvalidateSpec(t *testing.T) {
	c := NewCoalescing(8)
	c.Store(0x000, 1, NonSpecEpoch)
	c.Store(0x040, 2, 0)
	c.Store(0x080, 3, 1)
	c.Store(0x0C0, 4, 0)
	if n := c.FlashInvalidateSpec(0); n != 2 {
		t.Fatalf("dropped %d, want 2", n)
	}
	if c.Len() != 2 || c.CountEpoch(NonSpecEpoch) != 1 || c.CountEpoch(1) != 1 {
		t.Fatalf("wrong survivors: len=%d", c.Len())
	}
}

func TestCoalescingEntriesForBlockAgeOrder(t *testing.T) {
	c := NewCoalescing(8)
	c.Store(0x40, 1, NonSpecEpoch)
	c.Store(0x40, 2, 0)
	c.Store(0x40, 3, 1)
	es := c.EntriesForBlock(0x40)
	if len(es) != 3 {
		t.Fatalf("entries = %d", len(es))
	}
	for i := 1; i < len(es); i++ {
		if es[i].Seq() <= es[i-1].Seq() {
			t.Fatal("entries not in age order")
		}
	}
}

func TestCoalescingRemove(t *testing.T) {
	c := NewCoalescing(4)
	c.Store(0x40, 1, NonSpecEpoch)
	c.Store(0x80, 2, NonSpecEpoch)
	c.Remove(c.Entries()[0])
	if c.Len() != 1 || c.Entries()[0].Block != 0x80 {
		t.Fatal("wrong entry removed")
	}
}

func TestCoalescingReclassify(t *testing.T) {
	c := NewCoalescing(4)
	c.Store(0x40, 1, 2)
	c.Store(0x80, 2, 2)
	if n := c.ReclassifyEpoch(2, NonSpecEpoch); n != 2 {
		t.Fatalf("reclassified %d", n)
	}
	if c.CountEpoch(NonSpecEpoch) != 2 || c.CountEpoch(2) != 0 {
		t.Fatal("reclassify failed")
	}
}

// TestCoalescingForwardVsReference: random stores against a per-word
// reference map, checking forwarding always returns the newest value.
func TestCoalescingForwardVsReference(t *testing.T) {
	c := NewCoalescing(64)
	ref := make(map[memtypes.Addr]memtypes.Word)
	rng := rand.New(rand.NewSource(7))
	epoch := NonSpecEpoch
	for i := 0; i < 2000; i++ {
		a := memtypes.Addr(rng.Intn(16)*8 + rng.Intn(4)*64)
		v := memtypes.Word(i)
		if c.Store(a, v, epoch) {
			ref[memtypes.WordAlign(a)] = v
		}
		probe := memtypes.Addr(rng.Intn(16)*8 + rng.Intn(4)*64)
		got, ok := c.Forward(probe)
		want, wok := ref[memtypes.WordAlign(probe)]
		if ok != wok || (ok && got != want) {
			t.Fatalf("forward(%#x) = %d,%v want %d,%v", uint64(probe), got, ok, want, wok)
		}
	}
}
