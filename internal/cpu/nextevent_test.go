package cpu

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"invisifence/internal/isa"
	"invisifence/internal/memtypes"
)

// The late-hint check for the core. The idle-skip scheduler trusts
// NextEvent (folded with HeadState.ReadyAt, as the node does) to name the
// earliest cycle the core can change state without an external input; a
// late hint lets the scheduler skip a cycle that would have done work,
// which elsewhere surfaces only as a distant end-result diff. Here the core
// is ticked every cycle and any change of its fingerprint before the
// previous hint fails on the spot, with a state dump.

// fuzzProgram mirrors the shape of internal/sim's random programs: a
// fixed-trip loop over straight-line ALU ops, loads, stores and atomics on
// a private region, with data-dependent skips and an occasional fence.
func fuzzProgram(rng *rand.Rand) *isa.Program {
	b := isa.NewBuilder("nextevent-fuzz")
	scratch := []isa.Reg{isa.R4, isa.R5, isa.R6, isa.R7, isa.R8, isa.R9, isa.R12, isa.R13}
	b.MovI(isa.R20, 0x10000)
	b.MovI(isa.R2, 0)
	b.MovI(isa.R3, int64(4+rng.Intn(6)))
	for i, r := range scratch {
		b.MovI(r, int64(rng.Intn(1000)+i))
	}
	b.Label("loop")
	for i, n := 0, 10+rng.Intn(30); i < n; i++ {
		rd := scratch[rng.Intn(len(scratch))]
		r1 := scratch[rng.Intn(len(scratch))]
		r2 := scratch[rng.Intn(len(scratch))]
		off := int64(rng.Intn(64)) * memtypes.WordBytes
		switch rng.Intn(11) {
		case 0:
			b.Add(rd, r1, r2)
		case 1:
			b.Sub(rd, r1, r2)
		case 2:
			b.Mul(rd, r1, r2)
		case 3:
			b.Xor(rd, r1, r2)
		case 4:
			b.AddI(rd, r1, int64(rng.Intn(64))-32)
		case 5, 6:
			b.Ld(rd, isa.R20, off)
		case 7, 8:
			b.St(isa.R20, off, r1)
		case 9:
			switch rng.Intn(3) {
			case 0:
				b.Fadd(rd, isa.R20, off, r1)
			case 1:
				b.Swap(rd, isa.R20, off, r1)
			case 2:
				b.Cas(rd, isa.R20, off, r1, r2)
			}
		case 10:
			b.Delay(int64(1 + rng.Intn(8)))
		}
		if rng.Intn(8) == 0 {
			skip := b.FreshLabel("skip")
			b.MovI(isa.R14, 1)
			b.And(isa.R14, rd, isa.R14)
			b.Bne(isa.R14, isa.R0, skip)
			b.AddI(rd, rd, 3)
			b.Label(skip)
		}
	}
	if rng.Intn(2) == 0 {
		b.Fence()
	}
	b.AddI(isa.R2, isa.R2, 1)
	b.Bltu(isa.R2, isa.R3, "loop")
	b.Halt()
	return b.MustBuild()
}

// fuzzBackend is the flat fake memory with seeded misses (filled after a
// delay), MSHR-full retries, and hits.
type fuzzBackend struct {
	*fakeBackend
	rng               *rand.Rand
	missPct, retryPct int
	fillDelay         uint64
	fills             []timedFill
}

type timedFill struct {
	at   uint64
	tag  uint64
	addr memtypes.Addr
}

func (f *fuzzBackend) StartLoad(tag uint64, addr memtypes.Addr) LoadResult {
	switch r := f.rng.Intn(100); {
	case r < f.retryPct:
		return LoadResult{Status: LoadRetry}
	case r < f.retryPct+f.missPct:
		f.fills = append(f.fills, timedFill{*f.now + f.fillDelay, tag, addr})
		return LoadResult{Status: LoadMiss}
	}
	return f.fakeBackend.StartLoad(tag, addr)
}

// checkIssueSets verifies the dispatched and ready sets against the entry
// states: exactly the dispatched entries are in the dispatched set, and
// every dispatched entry with no pending operand is ready, unless it is a
// load parked behind an atomic (address generated, not issued).
func checkIssueSets(c *Core) error {
	bit := func(m []uint64, s int) bool { return m[s>>6]&(1<<(s&63)) != 0 }
	live := make([]bool, len(c.rob))
	for i, s := 0, c.head; i < c.count; i, s = i+1, (s+1)%len(c.rob) {
		live[s] = true
		e := &c.rob[s]
		disp := e.state == sDispatched
		if bit(c.dispMask, s) != disp {
			return fmt.Errorf("slot %d: in dispatched set = %v, state %d", s, !disp, e.state)
		}
		ready := bit(c.readyMask, s)
		parked := e.in.Op.IsLoad() && e.addrOK
		if ready && (!disp || e.pending != 0) || disp && e.pending == 0 && !ready && !parked {
			return fmt.Errorf("slot %d: ready = %v, state %d, pending %d", s, ready, e.state, e.pending)
		}
	}
	for s := range live {
		if !live[s] && (bit(c.dispMask, s) || bit(c.readyMask, s)) {
			return fmt.Errorf("dead slot %d is in the issue sets", s)
		}
	}
	return nil
}

// dumpCore renders the core state for a failure message.
func dumpCore(c *Core) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "now=%d head=%d tail=%d count=%d fetchPC=%d stallTil=%d retired=%d execMin=%d NextEvent=%d head=%+v\n",
		c.now, c.head, c.tail, c.count, c.fetchPC, c.stallTil, c.Retired, c.execMin, c.NextEvent(), c.HeadState())
	for i, s := 0, c.head; i < c.count; i, s = i+1, (s+1)%len(c.rob) {
		e := &c.rob[s]
		fmt.Fprintf(&sb, "  slot %2d seq %4d pc %3d %-28v state=%d doneAt=%d opOK=%v srcRef=%v pending=%d pendFill=%v addrOK=%v\n",
			s, e.seq, e.pc, e.in, e.state, e.doneAt, e.opOK, e.srcRef, e.pending, e.pendFill, e.addrOK)
	}
	return sb.String()
}

// checkCoreHints runs one seeded program on a fake backend, ticking every
// cycle, and fails if the core's state changes before the hint recorded
// after the previous cycle's inputs, if the issue sets disagree with the
// entry states, or if the program does not halt.
func checkCoreHints(t *testing.T, seed int64, miss, retry, delay, snoop uint8, flush bool) {
	prog := fuzzProgram(rand.New(rand.NewSource(seed)))
	var now uint64
	fb := &fuzzBackend{
		fakeBackend: newFake(&now),
		rng:         rand.New(rand.NewSource(seed ^ 0x5eed)),
		missPct:     int(miss % 50),
		retryPct:    int(retry % 20),
		fillDelay:   1 + uint64(delay%64),
	}
	ext := rand.New(rand.NewSource(seed ^ 0xe7e))
	c := New(0, DefaultConfig(), prog, [isa.NumRegs]memtypes.Word{}, fb)
	var fp []uint64
	hint := uint64(0)
	for now = 1; now < 200_000 && !c.Halted(); now++ {
		c.Tick(now)
		if cur := c.Fingerprint(nil); now < hint && !slices.Equal(cur, fp) {
			t.Fatalf("cycle %d: core state changed before its hint %d\n%s", now, hint, dumpCore(c))
		}
		if err := checkIssueSets(c); err != nil {
			t.Fatalf("cycle %d: %v\n%s", now, err, dumpCore(c))
		}
		if c.Halted() {
			break // a flush now would resume past the retired Halt
		}
		// External inputs, between cycles as the node delivers them.
		kept := fb.fills[:0]
		for _, f := range fb.fills {
			if f.at <= now {
				c.FillLoad(f.tag, fb.mem[f.addr])
			} else {
				kept = append(kept, f)
			}
		}
		fb.fills = kept
		if ext.Intn(200) < int(snoop%20) {
			c.SnoopBlock(memtypes.BlockAddr(0x10000 + memtypes.Addr(ext.Intn(64))*memtypes.WordBytes))
		}
		if flush && ext.Intn(150) == 0 {
			var regs [isa.NumRegs]memtypes.Word
			for r := range regs {
				regs[r] = c.ArchReg(isa.Reg(r))
			}
			c.FlushAll(regs, c.ArchPC())
		}
		fp = c.Fingerprint(nil)
		hint = min(c.NextEvent(), c.HeadState().ReadyAt)
		if hint <= now {
			t.Fatalf("cycle %d: hint %d is not in the future\n%s", now, hint, dumpCore(c))
		}
	}
	if !c.Halted() {
		t.Fatalf("did not halt\n%s", dumpCore(c))
	}
}

func FuzzCoreNextEvent(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(0), uint8(0), false)
	f.Add(int64(2), uint8(20), uint8(0), uint8(16), uint8(0), false)
	f.Add(int64(3), uint8(30), uint8(10), uint8(40), uint8(5), false)
	f.Add(int64(4), uint8(10), uint8(5), uint8(3), uint8(10), true)
	f.Add(int64(5), uint8(45), uint8(15), uint8(63), uint8(19), true)
	f.Add(int64(6), uint8(5), uint8(19), uint8(1), uint8(2), true)
	f.Add(int64(7), uint8(25), uint8(2), uint8(30), uint8(0), true)
	f.Add(int64(8), uint8(49), uint8(0), uint8(8), uint8(15), false)
	// Found by fuzzing: a mispredicted branch that is the youngest entry
	// squashes nothing, so its issue-set bits are cleared by issue itself.
	f.Add(int64(136), uint8(70), uint8(131), uint8(89), uint8(22), false)
	f.Fuzz(checkCoreHints)
}
