package cpu

import (
	"testing"
	"unsafe"

	"invisifence/internal/isa"
	"invisifence/internal/memtypes"
)

// fakeBackend is a single-cycle flat memory with no ordering constraints —
// enough to unit-test the core pipeline in isolation.
type fakeBackend struct {
	mem        map[memtypes.Addr]memtypes.Word
	now        *uint64
	hitLatency uint64

	// Controls for stall-path tests.
	stallStores bool
	stallReason StallReason
	missAddrs   map[memtypes.Addr]bool // loads to these addresses go pending
	pending     []pendingFill

	retired int
}

type pendingFill struct {
	tag  uint64
	addr memtypes.Addr
}

func newFake(now *uint64) *fakeBackend {
	return &fakeBackend{
		mem:        make(map[memtypes.Addr]memtypes.Word),
		now:        now,
		hitLatency: 2,
		missAddrs:  make(map[memtypes.Addr]bool),
	}
}

func (f *fakeBackend) StartLoad(tag uint64, addr memtypes.Addr) LoadResult {
	if f.missAddrs[memtypes.BlockAddr(addr)] {
		f.pending = append(f.pending, pendingFill{tag, addr})
		return LoadResult{Status: LoadMiss}
	}
	return LoadResult{Status: LoadHit, Value: f.mem[addr], ReadyAt: *f.now + f.hitLatency}
}

func (f *fakeBackend) Retire(hs HeadState) (bool, memtypes.Word, StallReason) {
	switch {
	case hs.Op.IsStore():
		if f.stallStores {
			return false, 0, f.stallReason
		}
		f.mem[hs.Addr] = hs.Val
	case hs.Op.IsAtomic():
		old := f.mem[hs.Addr]
		if nv, doWrite := AtomicApply(hs.Op, old, hs.OpA, hs.OpB); doWrite {
			f.mem[hs.Addr] = nv
		}
		return true, old, StallNone
	}
	return true, 0, StallNone
}

func (f *fakeBackend) OnRetireInstr() { f.retired++ }

// run executes prog on a fresh core until halt or maxCycles.
func run(t *testing.T, prog *isa.Program, setup func(*fakeBackend), maxCycles uint64) (*Core, *fakeBackend) {
	t.Helper()
	var now uint64
	fb := newFake(&now)
	if setup != nil {
		setup(fb)
	}
	c := New(0, DefaultConfig(), prog, [isa.NumRegs]memtypes.Word{}, fb)
	for now = 1; now < maxCycles && !c.Halted(); now++ {
		c.Tick(now)
		// Deliver one pending fill per cycle after a fixed delay.
		if len(fb.pending) > 0 && now%17 == 0 {
			p := fb.pending[0]
			fb.pending = fb.pending[1:]
			c.FillLoad(p.tag, fb.mem[p.addr])
		}
	}
	if !c.Halted() {
		t.Fatalf("program did not halt in %d cycles", maxCycles)
	}
	return c, fb
}

func TestALUAndBranchLoop(t *testing.T) {
	b := isa.NewBuilder("loop")
	b.MovI(isa.R1, 0)
	b.MovI(isa.R2, 10)
	b.Label("l")
	b.AddI(isa.R1, isa.R1, 3)
	b.AddI(isa.R2, isa.R2, -1)
	b.Bne(isa.R2, isa.R0, "l")
	b.Halt()
	c, _ := run(t, b.MustBuild(), nil, 10_000)
	if got := c.ArchReg(isa.R1); got != 30 {
		t.Fatalf("r1 = %d, want 30", got)
	}
	if c.Retired == 0 || c.RetiredLoads != 0 {
		t.Fatalf("bad counters: %d retired", c.Retired)
	}
}

func TestAllALUOps(t *testing.T) {
	b := isa.NewBuilder("alu")
	b.MovI(isa.R1, 12)
	b.MovI(isa.R2, 5)
	b.Add(isa.R3, isa.R1, isa.R2)   // 17
	b.Sub(isa.R4, isa.R1, isa.R2)   // 7
	b.Mul(isa.R5, isa.R1, isa.R2)   // 60
	b.And(isa.R6, isa.R1, isa.R2)   // 4
	b.Or(isa.R7, isa.R1, isa.R2)    // 13
	b.Xor(isa.R8, isa.R1, isa.R2)   // 9
	b.ShlI(isa.R9, isa.R1, 2)       // 48
	b.ShrI(isa.R12, isa.R1, 2)      // 3
	b.SltU(isa.R13, isa.R2, isa.R1) // 1
	b.Seq(isa.R14, isa.R1, isa.R1)  // 1
	b.Halt()
	c, _ := run(t, b.MustBuild(), nil, 1000)
	want := map[isa.Reg]memtypes.Word{
		isa.R3: 17, isa.R4: 7, isa.R5: 60, isa.R6: 4, isa.R7: 13,
		isa.R8: 9, isa.R9: 48, isa.R12: 3, isa.R13: 1, isa.R14: 1,
	}
	for r, v := range want {
		if got := c.ArchReg(r); got != v {
			t.Errorf("r%d = %d, want %d", r, got, v)
		}
	}
}

func TestStoreLoadForwardValue(t *testing.T) {
	b := isa.NewBuilder("fwd2")
	b.MovI(isa.R1, 0x100)
	b.MovI(isa.R2, 42)
	b.St(isa.R1, 0, isa.R2)
	b.Ld(isa.R3, isa.R1, 0)
	b.St(isa.R1, 8, isa.R3) // persist for inspection
	b.Halt()
	c, fb := run(t, b.MustBuild(), nil, 10_000)
	if got := fb.mem[0x108]; got != 42 {
		t.Fatalf("forwarded value = %d, want 42", got)
	}
	if got := c.ArchReg(isa.R3); got != 42 {
		t.Fatalf("r3 = %d", got)
	}
}

func TestLoadMissFillPath(t *testing.T) {
	b := isa.NewBuilder("miss")
	b.MovI(isa.R1, 0x200)
	b.Ld(isa.R3, isa.R1, 0)
	b.AddI(isa.R3, isa.R3, 1)
	b.St(isa.R1, 8, isa.R3)
	b.Halt()
	_, fb := run(t, b.MustBuild(), func(f *fakeBackend) {
		f.mem[0x200] = 10
		f.missAddrs[memtypes.BlockAddr(0x200)] = true
	}, 10_000)
	if got := fb.mem[0x208]; got != 11 {
		t.Fatalf("mem = %d, want 11", got)
	}
}

func TestAtomicProducesOldValue(t *testing.T) {
	b := isa.NewBuilder("atomic")
	b.MovI(isa.R1, 0x300)
	b.MovI(isa.R2, 5)
	b.Fadd(isa.R3, isa.R1, 0, isa.R2) // r3 = old (0), mem = 5
	b.Fadd(isa.R4, isa.R1, 0, isa.R2) // r4 = 5, mem = 10
	b.MovI(isa.R5, 10)
	b.MovI(isa.R6, 77)
	b.Cas(isa.R7, isa.R1, 0, isa.R5, isa.R6) // succeeds: r7 = 10, mem = 77
	b.Cas(isa.R8, isa.R1, 0, isa.R5, isa.R6) // fails: r8 = 77
	b.Swap(isa.R9, isa.R1, 0, isa.R2)        // r9 = 77, mem = 5
	b.Halt()
	c, fb := run(t, b.MustBuild(), nil, 10_000)
	if c.ArchReg(isa.R3) != 0 || c.ArchReg(isa.R4) != 5 || c.ArchReg(isa.R7) != 10 ||
		c.ArchReg(isa.R8) != 77 || c.ArchReg(isa.R9) != 77 {
		t.Fatalf("atomic results wrong: %d %d %d %d %d",
			c.ArchReg(isa.R3), c.ArchReg(isa.R4), c.ArchReg(isa.R7), c.ArchReg(isa.R8), c.ArchReg(isa.R9))
	}
	if fb.mem[0x300] != 5 {
		t.Fatalf("final mem = %d", fb.mem[0x300])
	}
	if c.RetiredAtomics != 5 {
		t.Fatalf("retired atomics = %d", c.RetiredAtomics)
	}
}

func TestBranchMispredictRecovery(t *testing.T) {
	// A data-dependent branch whose direction alternates: the predictor
	// will mispredict at least once; results must still be exact.
	b := isa.NewBuilder("flip")
	b.MovI(isa.R1, 0)  // i
	b.MovI(isa.R2, 20) // n
	b.MovI(isa.R3, 0)  // evens
	b.Label("l")
	b.MovI(isa.R4, 1)
	b.And(isa.R4, isa.R1, isa.R4)
	b.Bne(isa.R4, isa.R0, "odd")
	b.AddI(isa.R3, isa.R3, 1)
	b.Label("odd")
	b.AddI(isa.R1, isa.R1, 1)
	b.Bltu(isa.R1, isa.R2, "l")
	b.Halt()
	c, _ := run(t, b.MustBuild(), nil, 100_000)
	if got := c.ArchReg(isa.R3); got != 10 {
		t.Fatalf("evens = %d, want 10", got)
	}
	if c.Mispredicts == 0 {
		t.Fatal("expected at least one mispredict")
	}
}

func TestSnoopReplayReloads(t *testing.T) {
	// Execute a load, snoop its block before retirement, and check the
	// replayed load observes the new value.
	var now uint64
	fb := newFake(&now)
	fb.mem[0x400] = 1
	b := isa.NewBuilder("snoop")
	b.MovI(isa.R1, 0x400)
	b.Delay(30) // keep the load unretired for a while after it executes
	b.Ld(isa.R3, isa.R1, 0)
	b.Halt()
	c := New(0, DefaultConfig(), b.MustBuild(), [isa.NumRegs]memtypes.Word{}, fb)
	snooped := false
	for now = 1; now < 10_000 && !c.Halted(); now++ {
		c.Tick(now)
		if !snooped && now == 20 {
			// The load has executed (value 1) but the Delay blocks its
			// retirement. An external write arrives:
			fb.mem[0x400] = 2
			if !c.SnoopBlock(memtypes.BlockAddr(0x400)) {
				t.Fatal("snoop found no load to replay")
			}
			snooped = true
		}
	}
	if !c.Halted() {
		t.Fatal("did not halt")
	}
	if got := c.ArchReg(isa.R3); got != 2 {
		t.Fatalf("r3 = %d, want 2 (replayed value)", got)
	}
	if c.Replays == 0 {
		t.Fatal("no replay counted")
	}
}

func TestFlushAllRestoresAndUnhalts(t *testing.T) {
	b := isa.NewBuilder("flush")
	b.MovI(isa.R1, 1)
	b.Halt()
	var now uint64
	fb := newFake(&now)
	c := New(0, DefaultConfig(), b.MustBuild(), [isa.NumRegs]memtypes.Word{}, fb)
	for now = 1; !c.Halted(); now++ {
		c.Tick(now)
	}
	var regs [isa.NumRegs]memtypes.Word
	regs[isa.R1] = 99
	c.FlushAll(regs, 1) // restore at the halt instruction
	if c.Halted() {
		t.Fatal("FlushAll must clear halted (speculative halt rollback)")
	}
	if c.ArchReg(isa.R1) != 99 {
		t.Fatal("registers not restored")
	}
	for ; !c.Halted(); now++ {
		c.Tick(now)
	}
	if c.ArchReg(isa.R1) != 99 {
		t.Fatal("re-execution clobbered restored register")
	}
}

func TestStoreConflictReplay(t *testing.T) {
	// A load issues past an older store with a then-unknown address; when
	// the store's address resolves to the same word, the load replays.
	b := isa.NewBuilder("conflict")
	b.MovI(isa.R1, 0x500)
	b.Ld(isa.R2, isa.R1, 0) // r2 = mem[0x500] (initially 7)
	b.Mul(isa.R3, isa.R2, isa.R2)
	b.Mul(isa.R3, isa.R3, isa.R3) // long dependency chain for the address
	b.MovI(isa.R4, 0x500)
	b.Add(isa.R4, isa.R4, isa.R0)
	b.MovI(isa.R5, 50)
	b.St(isa.R4, 0, isa.R5) // store to 0x500 (addr known late is hard to force; rely on program order)
	b.Ld(isa.R6, isa.R4, 0) // must see 50, by forwarding or replay
	b.St(isa.R1, 8, isa.R6)
	b.Halt()
	_, fb := run(t, b.MustBuild(), func(f *fakeBackend) { f.mem[0x500] = 7 }, 10_000)
	if got := fb.mem[0x508]; got != 50 {
		t.Fatalf("load after store = %d, want 50", got)
	}
}

func TestROBCapacityStall(t *testing.T) {
	// A pending load miss at the head with a long tail of ALU work: the
	// ROB must fill and fetch must stop, then drain after the fill.
	b := isa.NewBuilder("rob")
	b.MovI(isa.R1, 0x600)
	b.Ld(isa.R2, isa.R1, 0)
	for i := 0; i < 200; i++ {
		b.AddI(isa.R3, isa.R3, 1)
	}
	b.Halt()
	c, _ := run(t, b.MustBuild(), func(f *fakeBackend) {
		f.missAddrs[memtypes.BlockAddr(0x600)] = true
	}, 100_000)
	if got := c.ArchReg(isa.R3); got != 200 {
		t.Fatalf("r3 = %d, want 200", got)
	}
}

// ------------------------------------------------------- issue semantics

// issueRig drives a core cycle by cycle with manual fill delivery, so the
// issue-stage tests can observe each entry's state between ticks.
type issueRig struct {
	t   *testing.T
	now uint64
	fb  *fakeBackend
	c   *Core
}

func newIssueRig(t *testing.T, prog *isa.Program, setup func(*fakeBackend)) *issueRig {
	r := &issueRig{t: t}
	r.fb = newFake(&r.now)
	if setup != nil {
		setup(r.fb)
	}
	r.c = New(0, DefaultConfig(), prog, [isa.NumRegs]memtypes.Word{}, r.fb)
	return r
}

// tick advances one cycle and returns the pcs (in age order) of the
// entries that left the dispatched state during it (Halt excluded: it has
// no execution).
func (r *issueRig) tick() []int {
	r.now++
	was := map[uint64]int{}
	for i := range r.c.rob {
		e := &r.c.rob[i]
		if e.used && e.state == sDispatched && e.in.Op != isa.Halt {
			was[e.seq] = e.pc
		}
	}
	r.c.Tick(r.now)
	var left []int
	for i, s := 0, r.c.head; i < r.c.count; i, s = i+1, (s+1)%len(r.c.rob) {
		e := &r.c.rob[s]
		if pc, ok := was[e.seq]; ok && e.state != sDispatched {
			left = append(left, pc)
		}
	}
	return left
}

// fill delivers the outstanding miss to block addr.
func (r *issueRig) fill(addr memtypes.Addr) {
	for i, p := range r.fb.pending {
		if memtypes.BlockAddr(p.addr) == memtypes.BlockAddr(addr) {
			r.fb.pending = append(r.fb.pending[:i], r.fb.pending[i+1:]...)
			r.c.FillLoad(p.tag, r.fb.mem[p.addr])
			return
		}
	}
	r.t.Fatalf("no pending fill for %#x", uint64(addr))
}

// entry returns the live ROB entry at pc.
func (r *issueRig) entry(pc int) *robEntry {
	for i := range r.c.rob {
		if e := &r.c.rob[i]; e.used && e.pc == pc {
			return e
		}
	}
	r.t.Fatalf("pc %d not in the ROB at cycle %d", pc, r.now)
	return nil
}

func TestIssueWindowBound(t *testing.T) {
	// A miss feeds n dependents that fill the front of the dispatch queue;
	// an independent MovI sits at queue position n. It issues at once when
	// n < IssueWindow, and not before the window moves when n == IssueWindow.
	window := DefaultConfig().IssueWindow
	for _, n := range []int{window - 1, window} {
		b := isa.NewBuilder("window")
		b.MovI(isa.R1, 0x600)
		b.Ld(isa.R2, isa.R1, 0)
		for i := 0; i < n; i++ {
			b.AddI(isa.R3, isa.R2, int64(i))
		}
		indep := 2 + n
		b.MovI(isa.R5, 7)
		b.Halt()
		r := newIssueRig(t, b.MustBuild(), func(f *fakeBackend) {
			f.mem[0x600] = 1
			f.missAddrs[memtypes.BlockAddr(0x600)] = true
		})
		for r.now < 100 {
			r.tick()
		}
		issuedEarly := r.entry(indep).state != sDispatched
		if want := n < window; issuedEarly != want {
			t.Fatalf("n=%d: independent op issued before the fill = %v, want %v", n, issuedEarly, want)
		}
		if n < window {
			continue
		}
		r.fill(0x600)
		depAt, indepAt := uint64(0), uint64(0)
		for indepAt == 0 && r.now < 200 {
			for _, pc := range r.tick() {
				switch pc {
				case 2:
					depAt = r.now
				case indep:
					indepAt = r.now
				}
			}
		}
		if depAt == 0 || indepAt <= depAt {
			t.Fatalf("oldest dependent issued at cycle %d, out-of-window op at %d; want it only after the window moved", depAt, indepAt)
		}
	}
}

func TestIssueWidthPortsAndAgeOrder(t *testing.T) {
	cfg := DefaultConfig()
	cases := []struct {
		name  string
		loads bool
		limit int
	}{
		{"alu-width", false, cfg.IssueWidth},
		{"mem-ports", true, cfg.MemPorts},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Eight ops wait on one miss; after the fill they are all ready
			// in the same cycle and must drain oldest first, limit per cycle.
			b := isa.NewBuilder(tc.name)
			b.MovI(isa.R1, 0x600)
			b.Ld(isa.R2, isa.R1, 0)
			for i := 0; i < 8; i++ {
				if tc.loads {
					b.Ld(isa.Reg(4+i), isa.R2, int64(i)*memtypes.WordBytes)
				} else {
					b.AddI(isa.Reg(4+i), isa.R2, int64(i))
				}
			}
			b.Halt()
			r := newIssueRig(t, b.MustBuild(), func(f *fakeBackend) {
				f.mem[0x600] = 0x800
				f.missAddrs[memtypes.BlockAddr(0x600)] = true
			})
			for r.now < 30 {
				r.tick()
			}
			r.fill(0x600)
			var order []int
			for len(order) < 8 {
				left := r.tick()
				if len(left) > tc.limit {
					t.Fatalf("cycle %d: %d ops issued, limit %d", r.now, len(left), tc.limit)
				}
				if len(order) == 0 && len(left) != 0 && len(left) != tc.limit {
					t.Fatalf("cycle %d: first issue cycle started %d ops, want %d", r.now, len(left), tc.limit)
				}
				order = append(order, left...)
				if r.now > 100 {
					t.Fatal("dependents never issued")
				}
			}
			for i, pc := range order {
				if pc != 2+i {
					t.Fatalf("issue order %v is not oldest first", order)
				}
			}
		})
	}
}

func TestIssueOldestFirstAcrossWakeOrder(t *testing.T) {
	// Two groups wait on two misses; the younger group's fill arrives first,
	// in the same inter-cycle gap. Both groups are ready together, and the
	// older group takes the issue slots.
	b := isa.NewBuilder("age")
	b.MovI(isa.R1, 0x600)
	b.MovI(isa.R6, 0x680)
	b.Ld(isa.R2, isa.R1, 0)
	b.Ld(isa.R3, isa.R6, 0)
	for i := 0; i < 4; i++ {
		b.AddI(isa.Reg(7+i), isa.R2, int64(i))
	}
	for i := 0; i < 4; i++ {
		b.AddI(isa.Reg(12+i), isa.R3, int64(i))
	}
	b.Halt()
	r := newIssueRig(t, b.MustBuild(), func(f *fakeBackend) {
		f.missAddrs[memtypes.BlockAddr(0x600)] = true
		f.missAddrs[memtypes.BlockAddr(0x680)] = true
	})
	for r.now < 30 {
		r.tick()
	}
	r.fill(0x680)
	r.fill(0x600)
	var first []int
	for len(first) == 0 && r.now < 100 {
		first = r.tick()
	}
	if len(first) != 4 || first[0] != 4 || first[3] != 7 {
		t.Fatalf("first issue cycle started pcs %v, want the older group 4..7", first)
	}
}

func TestLoadWaitsBehindSameAddressAtomic(t *testing.T) {
	// A miss at the head keeps an issued Fadd from retiring; a younger load
	// to the Fadd's word must wait (the old value is unknown until the RMW
	// performs) and issue in the cycle the Fadd retires (issue runs after
	// retirement), which the core's hint must not skip.
	b := isa.NewBuilder("atomic-wait")
	b.MovI(isa.R1, 0x300)
	b.MovI(isa.R2, 5)
	b.MovI(isa.R8, 0x700)
	b.Ld(isa.R9, isa.R8, 0)
	b.Fadd(isa.R3, isa.R1, 0, isa.R2)
	b.Ld(isa.R4, isa.R1, 0)
	b.Halt()
	const atomicPC, loadPC = 4, 5
	r := newIssueRig(t, b.MustBuild(), func(f *fakeBackend) {
		f.mem[0x300] = 10
		f.missAddrs[memtypes.BlockAddr(0x700)] = true
	})
	for r.now < 40 {
		r.tick()
		if r.now < 10 {
			continue
		}
		if !r.entry(atomicPC).addrOK {
			t.Fatalf("cycle %d: atomic has not generated its address", r.now)
		}
		if r.entry(loadPC).state != sDispatched {
			t.Fatalf("cycle %d: load issued past an unretired same-address atomic", r.now)
		}
	}
	r.fill(0x700)
	hint := func() uint64 {
		return min(r.c.NextEvent(), r.c.HeadState().ReadyAt)
	}
	retiredAt, issuedAt := uint64(0), uint64(0)
	for (retiredAt == 0 || issuedAt == 0) && r.now < 100 {
		before := hint()
		left := r.tick()
		if retiredAt == 0 && r.c.RetiredAtomics == 1 {
			retiredAt = r.now
		}
		for _, pc := range left {
			if pc == loadPC {
				issuedAt = r.now
				if before > r.now {
					t.Fatalf("hint %d skips cycle %d, where the load issues", before, r.now)
				}
			}
		}
	}
	if retiredAt == 0 || issuedAt != retiredAt {
		t.Fatalf("atomic retired at cycle %d, load issued at %d; want the load in the retirement cycle's issue", retiredAt, issuedAt)
	}
	for !r.c.Halted() && r.now < 200 {
		r.tick()
	}
	if got := r.c.ArchReg(isa.R4); got != 15 {
		t.Fatalf("r4 = %d, want 15 (the atomic's result)", got)
	}
}

func TestROBEntrySize(t *testing.T) {
	// The ROB dominates a core's construction cost (ROBSize entries per
	// core per run), so the entry must not grow.
	if got := unsafe.Sizeof(robEntry{}); got > 192 {
		t.Fatalf("robEntry is %d bytes, want <= 192", got)
	}
}

func TestPredictorTwoBit(t *testing.T) {
	// A fresh counter is weakly taken; counters saturate at 0 and 3.
	b := isa.NewBuilder("pred")
	b.Halt()
	var now uint64
	c := New(0, DefaultConfig(), b.MustBuild(), [isa.NumRegs]memtypes.Word{}, newFake(&now))
	const pc = 5
	if !c.predictTaken(pc) {
		t.Fatal("fresh counter does not predict taken")
	}
	steps := []struct {
		taken, want bool
	}{
		{false, false}, {false, false}, {false, false}, // 1, 0, 0
		{true, false}, {true, true}, {true, true}, {true, true}, // 1, 2, 3, 3
		{false, true}, {false, false}, // 2, 1
	}
	for i, st := range steps {
		c.updatePredictor(pc, st.taken)
		if got := c.predictTaken(pc); got != st.want {
			t.Fatalf("step %d: predictTaken = %v, want %v", i, got, st.want)
		}
	}
	if c.predictTaken(pc+1) != true {
		t.Fatal("updates leaked into a neighbouring counter")
	}
}

func TestIssueWindowFixedAtScanStart(t *testing.T) {
	// Dispatch queue: 3 dependents of miss A, window-3 dependents of miss
	// B, then an independent MovI at position window. When A fills, the 3
	// A-dependents issue; the window is the queue as the scan started, so
	// the MovI still waits one cycle although issue width is left.
	window := DefaultConfig().IssueWindow
	b := isa.NewBuilder("window-scan")
	b.MovI(isa.R1, 0x600)
	b.MovI(isa.R6, 0x680)
	b.Ld(isa.R2, isa.R1, 0)
	b.Ld(isa.R3, isa.R6, 0)
	for i := 0; i < 3; i++ {
		b.AddI(isa.R7, isa.R2, int64(i))
	}
	for i := 0; i < window-3; i++ {
		b.AddI(isa.R8, isa.R3, int64(i))
	}
	indep := 4 + window
	b.MovI(isa.R5, 7)
	b.Halt()
	r := newIssueRig(t, b.MustBuild(), func(f *fakeBackend) {
		f.missAddrs[memtypes.BlockAddr(0x600)] = true
		f.missAddrs[memtypes.BlockAddr(0x680)] = true
	})
	for r.now < 60 {
		r.tick()
	}
	if r.entry(indep).state != sDispatched {
		t.Fatal("out-of-window op issued before any fill")
	}
	r.fill(0x600)
	depAt, indepAt := uint64(0), uint64(0)
	for indepAt == 0 && r.now < 100 {
		for _, pc := range r.tick() {
			switch pc {
			case 4:
				depAt = r.now
			case indep:
				indepAt = r.now
			}
		}
	}
	if depAt == 0 || indepAt != depAt+1 {
		t.Fatalf("A-dependents issued at cycle %d, the out-of-window op at %d; want it one cycle later", depAt, indepAt)
	}
}

func TestParkedLoadForwardsFromResolvedStore(t *testing.T) {
	// A load waits behind an older same-address Fadd that cannot retire (a
	// miss holds the head). A store between the two then resolves to the
	// same word: the load's store search now ends at that store, so it
	// forwards from it in the same cycle, long before the Fadd retires.
	b := isa.NewBuilder("parked-forward")
	b.MovI(isa.R1, 0x300)
	b.MovI(isa.R2, 5)
	b.MovI(isa.R8, 0x700)
	b.MovI(isa.R11, 0x780)
	b.Ld(isa.R9, isa.R8, 0)           // miss: holds the head
	b.Fadd(isa.R3, isa.R1, 0, isa.R2) // blocks the load below
	b.Ld(isa.R10, isa.R11, 0)         // miss: the store's address
	b.St(isa.R10, 0, isa.R2)          // resolves to 0x300 on the fill
	b.Ld(isa.R4, isa.R1, 0)
	b.Halt()
	const storePC, loadPC = 7, 8
	r := newIssueRig(t, b.MustBuild(), func(f *fakeBackend) {
		f.mem[0x780] = 0x300
		f.missAddrs[memtypes.BlockAddr(0x700)] = true
		f.missAddrs[memtypes.BlockAddr(0x780)] = true
	})
	for r.now < 30 {
		r.tick()
	}
	if r.entry(loadPC).state != sDispatched {
		t.Fatal("load issued past an unretired same-address atomic")
	}
	r.fill(0x780)
	storeAt, loadAt := uint64(0), uint64(0)
	for loadAt == 0 && r.now < 60 {
		for _, pc := range r.tick() {
			switch pc {
			case storePC:
				storeAt = r.now
			case loadPC:
				loadAt = r.now
			}
		}
	}
	if storeAt == 0 || loadAt != storeAt {
		t.Fatalf("store issued at cycle %d, load at %d; want the load in the store's cycle", storeAt, loadAt)
	}
	if r.c.RetiredAtomics != 0 {
		t.Fatal("the Fadd retired; the test wants the load to issue before it")
	}
	r.fill(0x700)
	for !r.c.Halted() && r.now < 200 {
		r.tick()
	}
	if got := r.c.ArchReg(isa.R4); got != 5 {
		t.Fatalf("r4 = %d, want 5 (forwarded from the store)", got)
	}
}
