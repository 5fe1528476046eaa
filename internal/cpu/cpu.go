// Package cpu models the out-of-order processor core of Figure 6: a 4-wide,
// 96-entry-ROB machine with speculative out-of-order load execution,
// store-to-load forwarding, optimistic memory disambiguation with replay,
// a bimodal branch predictor, and in-order retirement.
//
// The core is "functional-at-execute": instruction values are computed when
// the timing model executes them, against the simulated memory system. All
// recovery paths (branch mispredicts, in-window memory-ordering replays
// triggered by load-queue snooping, and post-retirement speculation aborts
// driven by the InvisiFence engine) restore architectural register state and
// refetch, so rollback is functionally real.
//
// Memory-ordering policy is delegated to a Backend (implemented by the node):
// the core asks the backend to retire every load, store, atomic, and fence,
// and the backend applies the Figure 2 consistency rules or initiates
// InvisiFence speculation.
package cpu

import (
	"fmt"
	"math/bits"

	"invisifence/internal/isa"
	"invisifence/internal/memtypes"
)

// StallReason classifies why retirement is blocked this cycle.
type StallReason uint8

const (
	// StallNone: not stalled (or ROB empty).
	StallNone StallReason = iota
	// StallSBFull: a store cannot retire because the store buffer is full.
	StallSBFull
	// StallSBDrain: retirement waits for the store buffer to drain due to
	// an ordering requirement.
	StallSBDrain
	// StallOther: data stalls (load miss at head, atomic data wait, ...).
	StallOther
)

// String implements fmt.Stringer.
func (r StallReason) String() string {
	switch r {
	case StallNone:
		return "none"
	case StallSBFull:
		return "sb-full"
	case StallSBDrain:
		return "sb-drain"
	case StallOther:
		return "other"
	}
	return fmt.Sprintf("StallReason(%d)", uint8(r))
}

// LoadStatus is the immediate outcome of Backend.StartLoad.
type LoadStatus uint8

const (
	// LoadForwarded: value supplied by the post-retirement store buffer.
	LoadForwarded LoadStatus = iota
	// LoadHit: value supplied by the L1 after its hit latency.
	LoadHit
	// LoadMiss: a fill is outstanding; the backend will call
	// Core.FillLoad(tag, value) when data arrives.
	LoadMiss
	// LoadRetry: no resources (MSHR full); the core retries next cycle.
	LoadRetry
)

// LoadResult is the backend's answer to StartLoad.
type LoadResult struct {
	Status  LoadStatus
	Value   memtypes.Word
	ReadyAt uint64 // cycle the value may feed dependents (Forwarded/Hit)
}

// Backend is the node-side memory system and consistency/speculation policy
// the core talks to.
type Backend interface {
	// StartLoad begins a load's memory access. tag identifies the request
	// for a later FillLoad on a miss.
	StartLoad(tag uint64, addr memtypes.Addr) LoadResult
	// Retire applies retirement policy to the ROB head, a ready fence, load,
	// store or atomic: it returns whether the head retires, an atomic's old
	// value when it does, and the stall reason when it does not.
	Retire(hs HeadState) (ok bool, old memtypes.Word, why StallReason)
	// OnRetireInstr is called once per retired instruction (chunk sizing,
	// forward-progress tracking).
	OnRetireInstr()
}

// Config sizes the core (defaults follow Figure 6).
type Config struct {
	FetchWidth      int
	IssueWidth      int
	RetireWidth     int
	ROBSize         int
	MemPorts        int
	RedirectPenalty uint64
	PredictorBits   int // log2 of bimodal predictor entries
	// IssueWindow caps how many waiting instructions the scheduler
	// examines per cycle (the issue queue is smaller than the ROB in real
	// machines; this also bounds simulation cost).
	IssueWindow int
}

// DefaultConfig returns the Figure 6 core: 4-wide, 96-entry ROB, 3 memory
// ports, 8-stage pipeline (a 6-cycle redirect penalty).
func DefaultConfig() Config {
	return Config{
		FetchWidth:      4,
		IssueWidth:      4,
		RetireWidth:     4,
		ROBSize:         96,
		MemPorts:        3,
		RedirectPenalty: 6,
		PredictorBits:   12,
		IssueWindow:     40,
	}
}

// entry states.
const (
	sDispatched uint8 = iota
	sIssued           // executing (doneAt pending) or load access in flight
	sDone             // value bound (for atomics: only after retirement action)
)

// robEntry is one ROB slot. Word-sized fields come first and the flags are
// packed at the end, so the entry carries no interior padding.
type robEntry struct {
	seq      uint64
	pc       int
	in       isa.Instr
	predNext int // fetch-time predicted successor pc
	doneAt   uint64
	value    memtypes.Word
	addr     memtypes.Addr
	dataVal  memtypes.Word // staged store data
	fwdSeq   uint64        // load: seq of the forwarding store

	// Operand capture. srcSeq validates srcRef against slot reuse: if the
	// slot no longer holds that seq, the producer retired and its value is
	// in the architectural file under srcReg.
	srcRef [3]int // producer ROB slot or -1
	srcSeq [3]uint64
	opVal  [3]memtypes.Word

	// Wakeup links (see wake). As a producer, wakeHead is the newest
	// consumer operand registered on this entry, encoded slot<<2|k, or -1;
	// as a consumer, wakeNext[k] chains operand k to the next-older
	// registration on the same producer. pending counts the operands issue
	// needs that are still waiting for their producer's wake.
	wakeHead int32
	wakeNext [3]int32

	srcReg  [3]isa.Reg
	opOK    [3]bool
	pending uint8

	used   bool
	state  uint8
	addrOK bool

	// Load bookkeeping.
	valueOK  bool // value bound (may still be before doneAt)
	fwdSQ    bool // value forwarded from an in-flight (in-window) store
	fromL1   bool // value came from the memory system (SB/L1/fill)
	pendFill bool // waiting for FillLoad
}

// slotQueue is a FIFO of ROB slot indices with O(1) head removal: a head
// offset instead of re-slicing, with amortized compaction, so the retire-
// side pops neither walk the queue off its backing array (which forced a
// reallocation every few dozen pushes) nor shift the whole queue per pop.
type slotQueue struct {
	buf  []int
	head int
}

// slots returns the live entries in order (do not retain across mutation).
func (q *slotQueue) slots() []int { return q.buf[q.head:] }

func (q *slotQueue) len() int { return len(q.buf) - q.head }

func (q *slotQueue) push(s int) { q.buf = append(q.buf, s) }

func (q *slotQueue) reset() { q.buf = q.buf[:0]; q.head = 0 }

// popHead drops the first live entry, compacting once the dead prefix
// dominates (amortized O(1), bounded memory).
func (q *slotQueue) popHead() {
	q.head++
	switch {
	case q.head == len(q.buf):
		q.reset()
	case q.head >= 32 && q.head*2 >= len(q.buf):
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
}

// Core is one simulated processor core.
type Core struct {
	cfg     Config
	id      int
	prog    *isa.Program
	backend Backend
	now     uint64

	archRegs [isa.NumRegs]memtypes.Word
	pc       int
	halted   bool

	rob         []robEntry
	head        int
	tail        int // next free slot index
	count       int
	nextSeq     uint64
	rename      [isa.NumRegs]int // ROB slot of latest producer, -1 = architectural
	fetchPC     int
	stallTil    uint64
	fetchedHalt bool

	// LQ/SQ: slots of in-flight loads and stores/atomics in program
	// order, and the list of executing entries awaiting completion.
	loadQ  slotQueue
	storeQ slotQueue
	execQ  []int

	// Wakeup-driven issue (DESIGN.md §9): dispMask marks the slots still
	// waiting to issue (sDispatched), readyMask the subset whose operands
	// are all bound. Both are bitsets over ROB slots, read in age order from
	// head, so issue visits ready entries only.
	dispMask, readyMask []uint64

	// Bimodal 2-bit counters, stored XOR 2 so that the zeroed allocation
	// starts every counter weakly taken (which helps tight spin loops
	// converge fast).
	pred     []uint8
	predMask uint32

	// execMin is a conservative lower bound on the earliest doneAt of any
	// execQ entry (never late: queueExec lowers it, a promote pass
	// recomputes it from survivors, squashes only remove entries). Most
	// cycles promote is a single compare against it.
	execMin uint64

	// Per-cycle outputs for the node's accounting.
	RetiredThisCycle int
	HeadStall        StallReason

	// Stats.
	Retired, RetiredLoads, RetiredStores, RetiredAtomics, RetiredFences uint64
	Mispredicts, Replays, Squashes                                      uint64
	FetchedWrongPath                                                    uint64
}

// New creates a core running prog with the given initial register state.
func New(id int, cfg Config, prog *isa.Program, regs [isa.NumRegs]memtypes.Word, backend Backend) *Core {
	if cfg.ROBSize <= 0 {
		panic("cpu: ROB size must be positive")
	}
	words := (cfg.ROBSize + 63) / 64
	masks := make([]uint64, 2*words)
	c := &Core{
		cfg:       cfg,
		id:        id,
		prog:      prog,
		backend:   backend,
		rob:       make([]robEntry, cfg.ROBSize),
		dispMask:  masks[:words:words],
		readyMask: masks[words:],
		pred:      make([]uint8, 1<<cfg.PredictorBits),
		predMask:  uint32(1<<cfg.PredictorBits - 1),
	}
	c.archRegs = regs
	c.archRegs[isa.R0] = 0
	c.execMin = memtypes.NoEvent
	for i := range c.rename {
		c.rename[i] = -1
	}
	return c
}

// Halted reports whether the program has retired its Halt.
func (c *Core) Halted() bool { return c.halted }

// ArchReg returns the committed value of a register.
func (c *Core) ArchReg(r isa.Reg) memtypes.Word { return c.archRegs[r] }

// ArchPC returns the committed program counter.
func (c *Core) ArchPC() int { return c.pc }

// ROBOccupancy returns the number of in-flight instructions.
func (c *Core) ROBOccupancy() int { return c.count }

func (c *Core) slotAge(slot int) int {
	// Age = distance from head in ring order.
	d := slot - c.head
	if d < 0 {
		d += c.cfg.ROBSize
	}
	return d
}

func (c *Core) older(a, b int) bool { return c.slotAge(a) < c.slotAge(b) }

// SyncNow re-aligns the core's internal clock before the node processes
// incoming messages. Message-driven paths (FillLoad completions, SnoopBlock
// replays, FlushAll aborts) read c.now before Tick runs; the lock-step loop
// guarantees it then equals the previous cycle, and redirect penalties are
// anchored to it. After an idle-skip jump the last ticked cycle may be
// several cycles back, so the node re-anchors explicitly to keep both loops
// bit-identical.
func (c *Core) SyncNow(now uint64) { c.now = now }

// Tick advances the core one cycle: complete, retire, issue, fetch.
func (c *Core) Tick(now uint64) {
	c.now = now
	c.RetiredThisCycle = 0
	c.HeadStall = StallNone
	if c.halted {
		return
	}
	c.promote()
	c.retire()
	c.issue()
	c.fetch()
}

// promote marks finished executions done so they can retire this cycle,
// and wakes their consumers so they can issue this cycle. Only entries on
// the exec queue (issued with a completion time) are examined; squashed
// entries are dropped by seq mismatch.
func (c *Core) promote() {
	if len(c.execQ) == 0 || c.now < c.execMin {
		return // nothing can have completed yet
	}
	live := c.execQ[:0]
	next := uint64(memtypes.NoEvent)
	for _, s := range c.execQ {
		e := &c.rob[s]
		if !e.used || e.state != sIssued || e.pendFill {
			continue // squashed, reused, or re-queued via FillLoad
		}
		if c.now >= e.doneAt {
			e.state = sDone
			c.wake(e)
			continue
		}
		live = append(live, s)
		next = min(next, e.doneAt)
	}
	c.execQ = live
	c.execMin = next
}

// queueExec registers an issued entry for later completion. The exec queue
// is also the timed wake queue: the entry's consumers wake when promote
// reaches its doneAt.
func (c *Core) queueExec(slot int) {
	c.execQ = append(c.execQ, slot)
	if d := c.rob[slot].doneAt; d < c.execMin {
		c.execMin = d
	}
}

// ---------------------------------------------------------------- retire

func (c *Core) retire() {
	for n := 0; n < c.cfg.RetireWidth; n++ {
		if c.count == 0 || c.headReadyAt(c.now) != c.now {
			c.stallAt(StallOther)
			return
		}
		e := &c.rob[c.head]
		op := e.in.Op
		if op == isa.Halt {
			c.commitEntry(e)
			c.halted = true
			return
		}
		if op == isa.Fence || op.IsMem() {
			ok, old, why := c.backend.Retire(c.headView(c.now))
			if !ok {
				c.stallAt(why)
				return
			}
			switch {
			case op == isa.Fence:
				c.RetiredFences++
			case op.IsLoad():
				c.RetiredLoads++
			case op.IsStore():
				c.RetiredStores++
			default:
				e.value = old
				e.state = sDone
				c.RetiredAtomics++
			}
		}
		c.commitEntry(e)
		if op.IsAtomic() {
			c.unparkLoads(e.addr)
		}
	}
}

// unparkLoads makes ready the loads parked behind a retired atomic at addr
// (issueLoad parks them).
func (c *Core) unparkLoads(addr memtypes.Addr) {
	for _, s := range c.loadQ.slots() {
		if l := &c.rob[s]; l.state == sDispatched && l.addrOK && l.addr == addr {
			setBit(c.readyMask, s)
		}
	}
}

func (c *Core) stallAt(why StallReason) {
	if c.RetiredThisCycle == 0 {
		c.HeadStall = why
	}
}

// commitEntry retires the head entry: architectural state update and
// rename release. In-flight consumers referencing this slot detect the
// retirement by seq mismatch and read the architectural file instead;
// consumers still registered on it (an atomic's, whose value binds only
// now) are woken for this cycle's issue.
func (c *Core) commitEntry(e *robEntry) {
	slot := c.head
	in := e.in
	if in.Op.WritesRd() && in.Rd != isa.R0 {
		c.archRegs[in.Rd] = e.value
		if c.rename[in.Rd] == slot {
			c.rename[in.Rd] = -1
		}
	}
	if c.loadQ.len() > 0 && c.loadQ.slots()[0] == slot {
		c.loadQ.popHead()
	}
	if c.storeQ.len() > 0 && c.storeQ.slots()[0] == slot {
		c.storeQ.popHead()
	}
	// Halt and Fence can retire straight out of sDispatched (retirement
	// policy handles them at the head before issue ever sees them).
	if e.state == sDispatched {
		c.leaveDisp(slot)
	}
	c.wake(e)
	c.pc = e.predNext // committed successor (mispredicts were squashed at execute)
	e.used = false
	c.head = (c.head + 1) % c.cfg.ROBSize
	c.count--
	c.Retired++
	c.RetiredThisCycle++
	c.backend.OnRetireInstr()
}

// ----------------------------------------------------------------- issue

func (c *Core) issue() {
	s := c.nextSet(c.readyMask, 0)
	if s < 0 {
		return
	}
	issued := 0
	memIssued := 0
	// left counts the entries that left the dispatched set during this scan;
	// all are older than the current one, so an entry's position in the
	// dispatched order as the scan started is the dispatched entries still
	// older than it plus left.
	left := 0
	for ; s >= 0 && issued < c.cfg.IssueWidth; s = c.nextSet(c.readyMask, c.slotAge(s)+1) {
		if !c.inWindow(s, left) {
			break
		}
		e := &c.rob[s]
		in := e.in
		switch {
		case in.Op == isa.Halt || in.Op == isa.Fence:
			// No execution; retirement policy handles them at the head.
			e.state = sDone
			e.doneAt = c.now
		case in.Op.IsLoad():
			if memIssued >= c.cfg.MemPorts {
				continue
			}
			if c.issueLoad(s, e) {
				memIssued++
				issued++
			}
		case in.Op.IsStore():
			e.addr = memtypes.WordAlign(memtypes.Addr(e.opVal[0]) + memtypes.Addr(in.Imm))
			e.addrOK = true
			e.dataVal = e.opVal[1]
			e.state = sDone
			e.doneAt = c.now
			issued++
			c.checkStoreConflicts(s, e)
		case in.Op.IsAtomic():
			// Address generation only; the RMW happens at retirement.
			e.addr = memtypes.WordAlign(memtypes.Addr(e.opVal[0]) + memtypes.Addr(in.Imm))
			e.addrOK = true
			e.state = sIssued
			e.doneAt = c.now
			issued++
			c.checkStoreConflicts(s, e)
		case in.Op.IsBranch():
			issued++
			if c.executeBranch(s, e) {
				// Mispredicted: younger entries are gone; stop the scan.
				c.leaveDisp(s)
				return
			}
		default:
			e.value = evalALU(in, e.opVal[0], e.opVal[1])
			e.state = sIssued
			e.doneAt = c.now + in.Op.Latency(in.Imm)
			c.queueExec(s)
			issued++
		}
		// A load that stays dispatched (no port, LoadRetry, parked) keeps
		// its place. After a replay squash the rebuilt sets already exclude
		// this entry, but it still left during this scan.
		if e.state != sDispatched {
			c.leaveDisp(s)
			left++
		}
	}
}

// inWindow reports whether the dispatched slot s is among the first
// IssueWindow dispatched entries, counting as dispatched the left older
// entries that issued earlier in the current scan. Its age bounds its
// position from above, which settles most entries without a count.
func (c *Core) inWindow(s, left int) bool {
	window := c.cfg.IssueWindow
	if window <= 0 {
		window = c.cfg.ROBSize
	}
	age := c.slotAge(s)
	return age < window || c.countSet(c.dispMask, age)+left < window
}

// leaveDisp drops a slot from the dispatched and ready sets the moment it
// leaves sDispatched.
func (c *Core) leaveDisp(s int) {
	clearBit(c.dispMask, s)
	clearBit(c.readyMask, s)
}

// enterDisp adds a slot in sDispatched to the dispatched set, and to the
// ready set when no operand it needs is pending.
func (c *Core) enterDisp(s int) {
	setBit(c.dispMask, s)
	if c.rob[s].pending == 0 {
		setBit(c.readyMask, s)
	}
}

// wake delivers a completed producer's value to every consumer operand
// registered on it; a consumer whose last pending operand this was becomes
// ready. Producers complete in promote (ALU ops and loads, at the doneAt
// fixed when they issued or filled) or at retirement (atomics), both before
// issue runs in that cycle, so a woken consumer can issue in the same cycle
// its old-style operand check would first have passed. Nothing wakes
// during an issue scan: an entry issued there completes at the earliest in
// the next cycle's promote.
func (c *Core) wake(p *robEntry) {
	for l := p.wakeHead; l >= 0; {
		s, k := int(l>>2), l&3
		e := &c.rob[s]
		l = e.wakeNext[k]
		e.opVal[k] = p.value
		e.opOK[k] = true
		e.srcRef[k] = -1
		if e.pending--; e.pending == 0 {
			setBit(c.readyMask, s)
		}
	}
	p.wakeHead = -1
}

// nextSet returns the oldest slot of age >= a whose bit is set in m (a
// bitset over ROB slots with bits only on live entries), or -1.
func (c *Core) nextSet(m []uint64, a int) int {
	n := len(c.rob)
	s := c.head + a
	if s < n {
		if r := firstSet(m, s, n); r >= 0 {
			return r
		}
		s = n
	}
	return firstSet(m, s-n, c.head)
}

// countSet returns how many of the a oldest live slots have their bit set
// in m.
func (c *Core) countSet(m []uint64, a int) int {
	n := len(c.rob)
	if s := c.head + a; s > n {
		return countRange(m, c.head, n) + countRange(m, 0, s-n)
	}
	return countRange(m, c.head, c.head+a)
}

func setBit(m []uint64, i int)   { m[i>>6] |= 1 << (i & 63) }
func clearBit(m []uint64, i int) { m[i>>6] &^= 1 << (i & 63) }

// firstSet returns the lowest set bit index in [lo, hi), or -1.
func firstSet(m []uint64, lo, hi int) int {
	for lo < hi {
		if w := m[lo>>6] >> (lo & 63); w != 0 {
			if s := lo + bits.TrailingZeros64(w); s < hi {
				return s
			}
			return -1
		}
		lo = (lo | 63) + 1
	}
	return -1
}

// countRange returns the number of set bits with index in [lo, hi).
func countRange(m []uint64, lo, hi int) int {
	n := 0
	for lo < hi {
		w := m[lo>>6] >> (lo & 63)
		if span := hi - lo; span < 64-(lo&63) {
			w &= 1<<span - 1
		}
		n += bits.OnesCount64(w)
		lo = (lo | 63) + 1
	}
	return n
}

// issueLoad computes the address, searches older in-flight stores, and
// falls back to the memory system. Returns true if a port was consumed.
func (c *Core) issueLoad(slot int, e *robEntry) bool {
	e.addr = memtypes.WordAlign(memtypes.Addr(e.opVal[0]) + memtypes.Addr(e.in.Imm))
	e.addrOK = true
	// Search older stores/atomics (store queue, youngest-first) for a
	// same-word match.
	sq := c.storeQ.slots()
	for i := len(sq) - 1; i >= 0; i-- {
		o := &c.rob[sq[i]]
		if o.seq >= e.seq {
			continue // younger than the load
		}
		if !o.addrOK || o.addr != e.addr {
			continue
		}
		if o.in.Op.IsStore() {
			// Forward staged data.
			e.value = o.dataVal
			e.valueOK = true
			e.fwdSQ = true
			e.fwdSeq = o.seq
			e.fromL1 = false
			e.state = sIssued
			e.doneAt = c.now + 1
			c.queueExec(slot)
			return true
		}
		// The atomic's result is unknown until it retires: wait, parked
		// outside the ready set. Nothing changes this search's outcome
		// until the atomic retires or a store or atomic between the two
		// resolves to this word; both make the load ready again
		// (unparkLoads, checkStoreConflicts).
		clearBit(c.readyMask, slot)
		return false
	}
	// Optimistic past unknown-address stores; the store-side conflict check
	// replays us if we were wrong.
	res := c.backend.StartLoad(e.seq, e.addr)
	switch res.Status {
	case LoadRetry:
		e.addrOK = true
		return true // port consumed, retry next cycle
	case LoadForwarded, LoadHit:
		e.value = res.Value
		e.valueOK = true
		e.fromL1 = res.Status == LoadHit
		e.state = sIssued
		e.doneAt = res.ReadyAt
		c.queueExec(slot)
	case LoadMiss:
		e.pendFill = true
		e.fromL1 = true
		e.state = sIssued
		e.doneAt = ^uint64(0) >> 1
	}
	return true
}

// checkStoreConflicts implements optimistic disambiguation: when a store or
// atomic computes its address, the oldest younger load that executed with a
// value not forwarded from it and that overlaps its word is replayed.
// A younger load parked on this word now stops its store search here
// instead, so it is made ready again.
func (c *Core) checkStoreConflicts(slot int, st *robEntry) {
	for _, s := range c.loadQ.slots() {
		l := &c.rob[s]
		if l.seq <= st.seq || !l.addrOK || l.addr != st.addr {
			continue
		}
		if l.state == sDispatched {
			setBit(c.readyMask, s)
			continue
		}
		if l.valueOK && l.fwdSeq != st.seq {
			c.Replays++
			c.squashFrom(s)
			return
		}
	}
}

// executeBranch resolves a branch at issue and redirects on mispredict.
// It reports whether a mispredict squashed younger entries.
func (c *Core) executeBranch(slot int, e *robEntry) bool {
	actual := c.branchTarget(e)
	e.state = sDone
	e.doneAt = c.now
	e.value = 0
	c.updatePredictor(e.pc, actual != e.pc+1)
	if actual == e.predNext {
		return false
	}
	c.Mispredicts++
	e.predNext = actual
	if c.slotAge(slot)+1 < c.count {
		c.squashSlots((slot + 1) % c.cfg.ROBSize)
	}
	c.fetchPC = actual
	c.fetchedHalt = false
	c.stallTil = c.now + c.cfg.RedirectPenalty
	return true
}

func (c *Core) branchTarget(e *robEntry) int {
	in := e.in
	taken := false
	switch in.Op {
	case isa.Br:
		taken = true
	case isa.Beq:
		taken = e.opVal[0] == e.opVal[1]
	case isa.Bne:
		taken = e.opVal[0] != e.opVal[1]
	case isa.Bltu:
		taken = e.opVal[0] < e.opVal[1]
	case isa.Bgeu:
		taken = e.opVal[0] >= e.opVal[1]
	}
	if taken {
		return in.Target
	}
	return e.pc + 1
}

// ----------------------------------------------------------------- fetch

func (c *Core) fetch() {
	if c.now < c.stallTil || c.fetchedHalt {
		return
	}
	for n := 0; n < c.cfg.FetchWidth && c.count < c.cfg.ROBSize; n++ {
		if c.fetchPC < 0 || c.fetchPC >= len(c.prog.Instrs) {
			// Fell off the program (wrong path); stop until redirected.
			c.FetchedWrongPath++
			return
		}
		in := c.prog.Instrs[c.fetchPC]
		next := c.fetchPC + 1
		if in.Op == isa.Br {
			next = in.Target
		} else if in.Op.IsCondBranch() && c.predictTaken(c.fetchPC) {
			next = in.Target
		}
		c.dispatch(c.fetchPC, in, next)
		if in.Op == isa.Halt {
			c.fetchedHalt = true
			return
		}
		c.fetchPC = next
	}
}

func (c *Core) dispatch(pc int, in isa.Instr, predNext int) {
	slot := c.tail
	e := &c.rob[slot]
	c.nextSeq++
	// Field-wise reset instead of *e = robEntry{...}: the composite literal
	// zeroes and copies the whole ~200-byte entry per dispatched instruction,
	// which profiled as the core's single hottest line. Every field read
	// before being written is reset here; opVal/srcSeq/srcReg/wakeNext slots
	// are only read under opOK[k]==false with srcRef[k] >= 0 (both set by
	// bind) or after bind wrote the value, so their stale contents are dead.
	e.used = true
	e.seq = c.nextSeq
	e.pc = pc
	e.in = in
	e.predNext = predNext
	e.state = sDispatched
	e.doneAt = 0
	e.value = 0
	e.addr = 0
	e.addrOK = false
	e.dataVal = 0
	e.valueOK = false
	e.fwdSQ = false
	e.fwdSeq = 0
	e.fromL1 = false
	e.pendFill = false
	e.wakeHead = -1
	e.pending = 0
	// Issue needs every source except for loads and atomics, whose address
	// generation needs rs1 only (an atomic's data operands are read at
	// retirement, see headView).
	addrOnly := in.Op.IsLoad() || in.Op.IsAtomic()
	for k := 0; k < 3; k++ {
		e.srcRef[k] = -1
		e.opOK[k] = true
	}
	bind := func(k int, r isa.Reg) {
		if r == isa.R0 {
			e.opVal[k] = 0
			e.opOK[k] = true
			e.srcRef[k] = -1
			return
		}
		if p := c.rename[r]; p >= 0 {
			pe := &c.rob[p]
			if pe.state == sDone && c.now >= pe.doneAt {
				e.opVal[k] = pe.value
				e.opOK[k] = true
			} else {
				e.srcRef[k] = p
				e.srcSeq[k] = pe.seq
				e.srcReg[k] = r
				e.opOK[k] = false
				if k == 0 || !addrOnly {
					// Register on the producer; its wake binds the value.
					e.wakeNext[k] = pe.wakeHead
					pe.wakeHead = int32(slot<<2 | k)
					e.pending++
				}
			}
		} else {
			e.opVal[k] = c.archRegs[r]
			e.opOK[k] = true
		}
	}
	switch {
	case in.Op == isa.MovI || in.Op == isa.Delay || in.Op == isa.Nop || in.Op == isa.Halt || in.Op == isa.Fence || in.Op == isa.Br:
		// No sources.
	case in.Op == isa.AddI || in.Op == isa.ShlI || in.Op == isa.ShrI || in.Op.IsLoad():
		bind(0, in.Rs1)
	case in.Op == isa.Cas:
		bind(0, in.Rs1)
		bind(1, in.Rs2)
		bind(2, in.Rs3)
	default:
		bind(0, in.Rs1)
		bind(1, in.Rs2)
	}
	if in.Op.WritesRd() && in.Rd != isa.R0 {
		c.rename[in.Rd] = slot
	}
	if in.Op.IsLoad() {
		c.loadQ.push(slot)
	} else if in.Op.IsStore() || in.Op.IsAtomic() {
		c.storeQ.push(slot)
	}
	c.enterDisp(slot)
	c.tail = (c.tail + 1) % c.cfg.ROBSize
	c.count++
}

// ---------------------------------------------------------------- squash

// squashFrom squashes the entry at slot and everything younger, restarting
// fetch at that entry's pc (replay).
func (c *Core) squashFrom(slot int) {
	pc := c.rob[slot].pc
	c.squashSlots(slot)
	c.fetchPC = pc
	c.fetchedHalt = false
	c.stallTil = c.now + c.cfg.RedirectPenalty
}

// squashSlots removes the entry at slot and everything younger from the ROB
// and rebuilds the rename table.
func (c *Core) squashSlots(slot int) {
	n := c.slotAge(slot)
	for i, s := n, slot; i < c.count; i, s = i+1, (s+1)%c.cfg.ROBSize {
		c.rob[s].used = false
	}
	c.count = n
	c.tail = slot
	c.Squashes++
	c.rebuildRename()
}

// FlushAll squashes the entire pipeline and redirects fetch to pc with
// architectural registers replaced by regs: the InvisiFence abort path.
// A Halt that retired speculatively is rolled back too: the core resumes.
func (c *Core) FlushAll(regs [isa.NumRegs]memtypes.Word, pc int) {
	for i, s := 0, c.head; i < c.count; i, s = i+1, (s+1)%c.cfg.ROBSize {
		c.rob[s].used = false
	}
	c.count = 0
	c.tail = c.head
	c.archRegs = regs
	c.archRegs[isa.R0] = 0
	c.pc = pc
	c.fetchPC = pc
	c.fetchedHalt = false
	c.halted = false
	c.stallTil = c.now + c.cfg.RedirectPenalty
	c.Squashes++
	c.rebuildRename()
}

// rebuildRename reconstructs the rename table, the load/store/exec queues
// and the dispatched/ready sets from the surviving ROB entries after a
// squash, and unlinks squashed consumers from the survivors' wake lists.
func (c *Core) rebuildRename() {
	for i := range c.rename {
		c.rename[i] = -1
	}
	c.loadQ.reset()
	c.storeQ.reset()
	c.execQ = c.execQ[:0]
	clear(c.dispMask)
	clear(c.readyMask)
	for i, s := 0, c.head; i < c.count; i, s = i+1, (s+1)%c.cfg.ROBSize {
		e := &c.rob[s]
		// Wake lists run newest first and a squash removes the youngest
		// entries, so squashed consumers form a prefix of each list.
		for l := e.wakeHead; l >= 0 && !c.rob[l>>2].used; l = e.wakeHead {
			e.wakeHead = c.rob[l>>2].wakeNext[l&3]
		}
		if e.in.Op.WritesRd() && e.in.Rd != isa.R0 {
			c.rename[e.in.Rd] = s
		}
		if e.in.Op.IsLoad() {
			c.loadQ.push(s)
		} else if e.in.Op.IsStore() || e.in.Op.IsAtomic() {
			c.storeQ.push(s)
		}
		if e.state == sIssued && !e.in.Op.IsAtomic() && !e.pendFill {
			c.execQ = append(c.execQ, s)
			if e.doneAt < c.execMin {
				c.execMin = e.doneAt
			}
		}
		if e.state == sDispatched {
			c.enterDisp(s)
		}
	}
}

// ------------------------------------------------------------- externals

// FillLoad delivers data for an outstanding load miss. Stale fills (for
// squashed entries) are ignored by tag mismatch.
func (c *Core) FillLoad(tag uint64, val memtypes.Word) {
	for _, s := range c.loadQ.slots() {
		e := &c.rob[s]
		if e.used && e.seq == tag && e.pendFill {
			e.pendFill = false
			e.value = val
			e.valueOK = true
			e.doneAt = c.now + 1
			c.queueExec(s)
			return
		}
	}
}

// SnoopBlock implements load-queue snooping (§2.1): an external
// invalidation or ownership transfer for a block replays the oldest
// executed-but-unretired load to that block (in-window-forwarded loads are
// exempt: they read their own in-flight store). Returns true if a replay
// occurred. Conventional implementations of all three models need this;
// InvisiFence-Continuous would not (§4.2), but keeping it on is
// conservative and covers execute-to-retire protection gaps (DESIGN.md).
func (c *Core) SnoopBlock(block memtypes.Addr) bool {
	for _, s := range c.loadQ.slots() {
		e := &c.rob[s]
		if e.used && e.valueOK && !e.fwdSQ && memtypes.BlockAddr(e.addr) == block {
			c.Replays++
			c.squashFrom(s)
			return true
		}
	}
	return false
}

// --------------------------------------------------------- event horizon

// NextEvent returns the earliest future cycle at which this core might make
// progress on its own — complete an execution, issue a newly-ready
// instruction, or fetch — or memtypes.NoEvent when the core is provably
// blocked until an external input (a load fill) arrives. Retirement at the
// ROB head is deliberately excluded: whether a retirement-ready head
// actually advances depends on the memory backend's consistency policy, so
// the node folds HeadState into its own horizon. The hint must never be
// late: if the core would change state at cycle T, the returned value must
// be <= T. Early hints only cost a wasted tick.
//
// The method is read-only; in particular it never captures operands (the
// issue path does that), so calling it cannot perturb the simulation.
func (c *Core) NextEvent() uint64 {
	if c.halted {
		return memtypes.NoEvent
	}
	next := uint64(memtypes.NoEvent)
	// Fetch: possible whenever there is ROB room and a valid fetch PC.
	// (A wrong-path PC past the program end fetches nothing; SkipCycles
	// replicates its per-cycle counter.)
	if !c.fetchedHalt && c.count < c.cfg.ROBSize && c.fetchPC >= 0 && c.fetchPC < len(c.prog.Instrs) {
		next = min(next, max(c.now+1, c.stallTil))
	}
	// Execution completions promote entries to sDone. execMin bounds every
	// live completion from below (possibly early when stale entries linger
	// — a wasted tick, never a missed one).
	if len(c.execQ) > 0 {
		next = min(next, max(c.now+1, c.execMin))
	}
	// Issue. A dispatched entry becomes ready only when a wake delivers its
	// last operand: a promote (bounded by the exec-queue term above) or an
	// atomic's retirement (the node's head horizon); a parked load, only at
	// such a retirement or by an issue. A ready entry inside the window
	// issues (or retries, for a load short of a port or an MSHR) next
	// cycle; one outside it waits for the window to move, which takes an
	// issue or a retirement. The ready set is age-ordered, so the oldest
	// ready entry decides.
	if s := c.nextSet(c.readyMask, 0); s >= 0 && c.inWindow(s, 0) {
		next = min(next, c.now+1)
	}
	return next
}

// Fingerprint appends to dst the core state its hints speak for: ROB
// occupancy and position, fetch state, retirement count, and each in-flight
// entry's state, bound operands and completion time. The late-hint checkers
// compare it across cycles the hint called quiet.
func (c *Core) Fingerprint(dst []uint64) []uint64 {
	dispatched := 0
	dst = append(dst, uint64(c.count), uint64(c.head), uint64(c.tail), uint64(c.fetchPC), c.stallTil, c.Retired)
	for i, s := 0, c.head; i < c.count; i, s = i+1, (s+1)%len(c.rob) {
		e := &c.rob[s]
		if e.state == sDispatched {
			dispatched++
		}
		var ok uint64
		for k, b := range e.opOK {
			if b {
				ok |= 1 << k
			}
		}
		dst = append(dst, uint64(e.state), ok, e.doneAt)
	}
	return append(dst, uint64(dispatched))
}

// HeadState is a read-only view of the ROB head's retirement attempt: what
// the core hands Backend.Retire, and what the node plans its horizon from.
type HeadState struct {
	Op   isa.Op
	Addr memtypes.Addr // meaningful once Ready (loads/stores/atomics)
	// Ready reports that the retirement policy is invoked for the head at
	// the attempt's cycle. ReadyAt is the earliest cycle that could happen
	// (memtypes.NoEvent: only after an external event such as a fill, or
	// never, with no head).
	Ready   bool
	ReadyAt uint64
	// FromL1 reports that a load's value came from the memory system (store
	// buffer, L1 or fill), not from an in-window store.
	FromL1 bool
	// Val is a store's data; OpA/OpB are an atomic's data operands (the
	// compare value and, for CAS, the swap value).
	Val, OpA, OpB memtypes.Word
}

// HeadState returns the view of the head's retirement attempt next cycle.
func (c *Core) HeadState() HeadState {
	if c.halted || c.count == 0 {
		return HeadState{ReadyAt: memtypes.NoEvent}
	}
	return c.headView(c.now + 1)
}

// headView is the view of the head's retirement attempt at cycle at:
// retirement hands it to the backend at the current cycle, and HeadState
// shows it for the next one. Nothing is bound. Every producer of the head
// is older than it and so has retired: an operand not captured yet is in
// the architectural file.
func (c *Core) headView(at uint64) HeadState {
	e := &c.rob[c.head]
	hs := HeadState{Op: e.in.Op, Addr: e.addr, ReadyAt: c.headReadyAt(at), FromL1: e.fromL1, Val: e.dataVal}
	hs.Ready = hs.ReadyAt == at
	if hs.Ready && e.in.Op.IsAtomic() {
		hs.OpA = c.headOp(e, 1)
		if e.in.Op == isa.Cas {
			hs.OpB = c.headOp(e, 2)
		}
	}
	return hs
}

// headReadyAt is the earliest cycle from at on at which the head's
// retirement can be attempted (memtypes.NoEvent: only after an external
// event or an issue). Retirement and HeadState both decide readiness here.
func (c *Core) headReadyAt(at uint64) uint64 {
	e := &c.rob[c.head]
	switch {
	case e.in.Op == isa.Halt || e.in.Op == isa.Fence:
		return at
	case e.in.Op.IsAtomic():
		if e.addrOK {
			return at
		}
		return memtypes.NoEvent // not issued yet; NextEvent's issue term covers it
	case e.pendFill || e.state == sDispatched:
		return memtypes.NoEvent // a fill, or the issue term of NextEvent, owns this event
	}
	return max(at, e.doneAt) // issued entries complete at doneAt (promote runs before retire)
}

// headOp returns operand k of the head entry e (see headView).
func (c *Core) headOp(e *robEntry, k int) memtypes.Word {
	if e.opOK[k] {
		return e.opVal[k]
	}
	return c.archRegs[e.srcReg[k]]
}

// SkipCycles replicates the per-cycle effects of k externally-idle cycles
// the simulator fast-forwarded past (cycles c.now+1 .. c.now+k). The core's
// state is frozen during a skip by construction; the only per-cycle effect
// is the wrong-path fetch counter, which increments while fetch is unstalled
// with a PC past the program end.
func (c *Core) SkipCycles(k uint64) {
	if c.halted || c.fetchedHalt || c.count >= c.cfg.ROBSize {
		return
	}
	if c.fetchPC >= 0 && c.fetchPC < len(c.prog.Instrs) {
		return // would have fetched; the scheduler never skips this state
	}
	first := c.now + 1
	if c.stallTil > first {
		first = c.stallTil
	}
	if last := c.now + k; last >= first {
		c.FetchedWrongPath += last - first + 1
	}
}

// ------------------------------------------------------------ predictor

func (c *Core) predIndex(pc int) uint32 { return uint32(pc) & c.predMask }

// predictTaken and updatePredictor read and write counters XOR 2 (see
// Core.pred): a stored 0 is the counter value 2.
func (c *Core) predictTaken(pc int) bool { return c.pred[c.predIndex(pc)]^2 >= 2 }

func (c *Core) updatePredictor(pc int, taken bool) {
	i := c.predIndex(pc)
	v := c.pred[i] ^ 2
	if taken {
		if v < 3 {
			c.pred[i] = (v + 1) ^ 2
		}
	} else if v > 0 {
		c.pred[i] = (v - 1) ^ 2
	}
}

// ------------------------------------------------------------------- ALU

func evalALU(in isa.Instr, a, b memtypes.Word) memtypes.Word {
	switch in.Op {
	case isa.MovI:
		return memtypes.Word(in.Imm)
	case isa.Add:
		return a + b
	case isa.AddI:
		return a + memtypes.Word(in.Imm)
	case isa.Sub:
		return a - b
	case isa.Mul:
		return a * b
	case isa.And:
		return a & b
	case isa.Or:
		return a | b
	case isa.Xor:
		return a ^ b
	case isa.ShlI:
		return a << uint(in.Imm&63)
	case isa.ShrI:
		return a >> uint(in.Imm&63)
	case isa.SltU:
		if a < b {
			return 1
		}
		return 0
	case isa.Seq:
		if a == b {
			return 1
		}
		return 0
	case isa.Nop, isa.Delay:
		return 0
	}
	panic(fmt.Sprintf("cpu: evalALU on %v", in.Op))
}

// AtomicApply computes an atomic op's new memory value. doWrite is false
// for a failed compare-and-swap (treated as a read, per §3.2's load+store
// decomposition: no written state is created).
func AtomicApply(op isa.Op, old, opA, opB memtypes.Word) (memtypes.Word, bool) {
	switch op {
	case isa.Cas:
		if old == opA {
			return opB, true
		}
		return old, false
	case isa.Fadd:
		return old + opA, true
	case isa.Swap:
		return opA, true
	}
	panic(fmt.Sprintf("cpu: AtomicApply on %v", op))
}
