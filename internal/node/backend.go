package node

import (
	"invisifence/internal/cache"
	"invisifence/internal/coherence"
	"invisifence/internal/consistency"
	ifcore "invisifence/internal/core"
	"invisifence/internal/cpu"
	"invisifence/internal/isa"
	"invisifence/internal/memtypes"
	"invisifence/internal/storebuffer"
)

// ---------------------------------------------------------------------
// cpu.Backend: the load path.
// ---------------------------------------------------------------------

// StartLoad implements cpu.Backend. Value priority: post-retirement store
// buffer forwarding, then L1, then an outstanding-miss fill.
func (n *Node) StartLoad(tag uint64, addr memtypes.Addr) cpu.LoadResult {
	if n.fifoSB != nil {
		if v, ok := n.fifoSB.Forward(addr); ok {
			return cpu.LoadResult{Status: cpu.LoadForwarded, Value: v, ReadyAt: n.now + 1}
		}
	} else if v, ok := n.coalSB.Forward(addr); ok {
		return cpu.LoadResult{Status: cpu.LoadForwarded, Value: v, ReadyAt: n.now + 1}
	}
	block := memtypes.BlockAddr(addr)
	if line := n.l1.Lookup(addr); line != nil {
		n.markExecRead(line) // continuous mode marks at execution (§4.2)
		return cpu.LoadResult{
			Status:  cpu.LoadHit,
			Value:   line.Data[memtypes.WordIndex(addr)],
			ReadyAt: n.now + n.l1.HitLatency(),
		}
	}
	if m, ok := n.mshrs[block]; ok {
		m.waiters = append(m.waiters, loadWaiter{tag: tag, addr: addr})
		return cpu.LoadResult{Status: cpu.LoadMiss}
	}
	if !n.requestBlock(block, false) {
		return cpu.LoadResult{Status: cpu.LoadRetry}
	}
	n.mshrs[block].waiters = append(n.mshrs[block].waiters, loadWaiter{tag: tag, addr: addr})
	return cpu.LoadResult{Status: cpu.LoadMiss}
}

// ---------------------------------------------------------------------
// cpu.Backend: retirement policy (Figure 2 rules, Figure 4 triggers).
// ---------------------------------------------------------------------

// A retirement attempt of the ROB head either acts or waits. plan decides
// which, read-only, and everything else derives from that one answer:
// Retire carries out an act, NextEvent asks for the next cycle for an act
// and adds no event for a wait, and SkipCycles replays nothing but cycle
// accounting, because a wait changes nothing (DESIGN.md §7, the retirement
// plan contract).

// step is one action of an act. The steps of an act run in this order.
type step uint16

const (
	stepBegin    step = 1 << iota // begin a speculation, then plan again
	stepReplay                    // the load's line left the L1: replay it
	stepMarkRead                  // set the line's speculatively-read bit
	stepClean                     // start a cleaning writeback of the block
	stepCount                     // count a speculative store (ASO SSB occupancy)
	stepWrite                     // write the word into the L1 line
	stepPush                      // buffer the word at the plan's epoch
	stepOwn                       // request ownership of the block
	stepRetire                    // the head retires
)

// wait names an attempt that changes nothing (Node.HeadWait).
type wait string

const (
	waitLoadDrain       wait = "load-drain"        // SC load behind buffered stores
	waitFenceDrain      wait = "fence-drain"       // fence behind buffered stores
	waitFIFOFull        wait = "fifo-full"         // store, FIFO buffer full
	waitCoalFull        wait = "coal-full"         // store, coalescing buffer full
	waitStoreDrain      wait = "store-drain"       // SC/TSO store, drain-grace window
	waitReleaseDrain    wait = "release-drain"     // RC releasing store behind buffered stores
	waitAtomicDrain     wait = "atomic-drain"      // atomic behind buffered stores
	waitAtomicOwn       wait = "atomic-own"        // atomic, its miss outstanding
	waitAtomicCleaning  wait = "atomic-cleaning"   // atomic behind a cleaning writeback
	waitAtomicSB        wait = "atomic-sb"         // atomic behind a same-block buffered store
	waitSpecSSBFull     wait = "spec-ssb-full"     // speculative store, ASO SSB full
	waitSpecSBFull      wait = "spec-sb-full"      // speculative store, buffer full
	waitSpecAtomicFill  wait = "spec-atomic-fill"  // speculative atomic, its miss outstanding
	waitSpecAtomicStore wait = "spec-atomic-store" // speculative atomic, store half blocked
)

// plan is the decided retirement attempt: an act (steps != 0) or a wait.
type plan struct {
	steps step
	wait  wait
	why   cpu.StallReason // reported when the head does not retire
	line  *cache.Line     // the L1 line the steps mark or write
	epoch int             // the epoch of marks, writes and pushes
	val   memtypes.Word   // the word written or buffered
	old   memtypes.Word   // an atomic's old value
}

func waitFor(w wait, why cpu.StallReason) plan { return plan{wait: w, why: why} }

// HeadWait names the wait the ROB head's next retirement attempt makes, or
// returns "" when the attempt acts or no attempt is due.
func (n *Node) HeadWait() string {
	if hs := n.core.HeadState(); hs.Ready {
		if p := n.plan(&hs); p.steps == 0 {
			return string(p.wait)
		}
	}
	return ""
}

// Retire implements cpu.Backend: it carries out the plan of the head's
// attempt. Acquiring loads (ld.acq) need no extra machinery: in-order
// retirement plus load-queue snooping already order a retired load before
// everything younger, which is exactly the acquire edge RC requires.
func (n *Node) Retire(hs cpu.HeadState) (bool, memtypes.Word, cpu.StallReason) {
	p := n.plan(&hs)
	if p.steps&stepBegin != 0 {
		n.engine.Begin()
		p = n.plan(&hs)
	}
	block := memtypes.BlockAddr(hs.Addr)
	if p.steps&(stepWrite|stepPush) != 0 && (hs.Op.IsStore() || p.epoch >= 0) && coherence.TraceOn() {
		coherence.TraceEvent(n.now, hs.Addr, "node%d retire store val=%d epoch=%d", n.id, p.val, p.epoch)
	}
	if p.steps&stepReplay != 0 {
		n.core.SnoopBlock(block)
	}
	if p.steps&stepMarkRead != 0 {
		n.l1.MarkSpecRead(p.line, p.epoch)
	}
	if p.steps&stepClean != 0 {
		n.startCleaning(block)
	}
	if p.steps&stepCount != 0 {
		n.invariantAddr(n.engine.OnSpecStore(), "SSB refused a planned store to", hs.Addr)
	}
	if p.steps&stepWrite != 0 {
		p.line.Data[memtypes.WordIndex(hs.Addr)] = p.val
		p.line.State = cache.Modified
		if p.epoch >= 0 {
			n.l1.MarkSpecWritten(p.line, p.epoch)
		}
	}
	if p.steps&stepPush != 0 {
		ok := n.fifoSB != nil && n.fifoSB.Push(hs.Addr, p.val) ||
			n.coalSB != nil && n.coalSB.Store(hs.Addr, p.val, p.epoch)
		n.invariantAddr(ok, "store buffer refused a planned store to", hs.Addr)
	}
	if p.steps&stepOwn != 0 {
		n.requestBlock(block, true)
	}
	if p.steps&stepRetire == 0 {
		return false, 0, p.why
	}
	return true, p.old, cpu.StallNone
}

// plan decides the head's retirement attempt by the Figure 2 ordering
// rules, the Figure 4 speculation triggers, or under speculation the §3.2
// paths. Halt and plain ops retire in the core without an attempt.
func (n *Node) plan(hs *cpu.HeadState) plan {
	if n.engine.Speculating() {
		return n.planSpec(hs)
	}
	rules := consistency.RulesFor(n.cfg.Model)
	buffered := !n.sbEmpty()
	switch op := hs.Op; {
	case op == isa.Fence && buffered:
		return n.orderStall(trigFence, waitFenceDrain)
	case op.IsLoad() && rules.LoadNeedsDrain && buffered:
		// SC: a load may not retire past outstanding stores...
		return n.orderStall(trigLoad, waitLoadDrain)
	case op.IsStore() && n.fifoSB != nil:
		// Conventional SC/TSO: word-granularity FIFO.
		if n.fifoSB.Full() {
			return waitFor(waitFIFOFull, cpu.StallSBFull)
		}
		return plan{steps: stepPush | stepRetire, val: hs.Val}
	case op.IsStore():
		switch {
		case (n.cfg.Model == consistency.SC || n.cfg.Model == consistency.TSO) && buffered:
			// An unordered buffer may not hold reordered stores: speculate
			// (Figure 4's "store/atomic reorderings") or wait for the drain
			// (the forward-progress grace window).
			return n.orderStall(trigStore, waitStoreDrain)
		case n.cfg.Model == consistency.RC && op.IsRelease() && buffered:
			// A releasing store may not become visible before any earlier
			// store: drain first, or speculate past the release (Invisi_rc's
			// selective trigger, Louvre's version-epoch open). Plain stores
			// coalesce freely.
			return n.orderStall(trigRelease, waitReleaseDrain)
		}
		return n.planStore(hs.Addr, hs.Val, storebuffer.NonSpecEpoch)
	case op.IsAtomic() && rules.AtomicNeedsDrain && buffered:
		// SC/TSO, and RC, whose atomics are synchronization accesses.
		return n.orderStall(trigAtomic, waitAtomicDrain)
	case op.IsAtomic():
		return n.planAtomic(hs)
	}
	return plan{steps: stepRetire}
}

// orderStall is an ordering stall at a trigger of kind k: speculate past it
// where the engine may, else wait for the buffer to drain.
func (n *Node) orderStall(k triggerKind, w wait) plan {
	if n.canTriggerSpeculationOn(k) {
		return plan{steps: stepBegin}
	}
	return waitFor(w, cpu.StallSBDrain)
}

// planAtomic is the conventional atomic past its drain: obtain ownership
// ("complete store", Figure 2), then read-modify-write the L1.
func (n *Node) planAtomic(hs *cpu.HeadState) plan {
	block := memtypes.BlockAddr(hs.Addr)
	line := n.l1.Peek(hs.Addr)
	switch {
	case line == nil:
		return n.own(block, cpu.StallOther, waitAtomicOwn) // data miss
	case !line.State.Writable():
		// The ownership wait is the Figure 4 atomic trigger under RMO and
		// RC; elsewhere it is an atomic-induced ordering stall (Figure 1).
		if (n.cfg.Model == consistency.RMO || n.cfg.Model == consistency.RC) &&
			n.canTriggerSpeculationOn(trigAtomic) {
			return plan{steps: stepBegin}
		}
		return n.own(block, cpu.StallSBDrain, waitAtomicOwn)
	case n.cleaning(block):
		return waitFor(waitAtomicCleaning, cpu.StallOther)
	case n.coalSB != nil && n.sbHasBlock(block):
		// A buffered store to this block must drain first (RMO permits a
		// non-empty buffer at atomics); the direct RMW may not jump ahead of
		// it in the block's age order.
		return waitFor(waitAtomicSB, cpu.StallSBDrain)
	}
	p := plan{steps: stepRetire, line: line, epoch: storebuffer.NonSpecEpoch}
	p.old = line.Data[memtypes.WordIndex(hs.Addr)]
	if nv, doWrite := cpu.AtomicApply(hs.Op, p.old, hs.OpA, hs.OpB); doWrite {
		p.steps |= stepWrite
		p.val = nv
	}
	return p
}

// own plans an attempt that needs the block's data or ownership: the first
// attempt requests it, later ones wait for the fill.
func (n *Node) own(block memtypes.Addr, why cpu.StallReason, w wait) plan {
	if _, ok := n.mshrs[block]; ok {
		return waitFor(w, why)
	}
	return plan{steps: stepOwn, why: why}
}

// planSpec plans the attempt inside a speculation (§3.2). Fences retire
// freely; loads mark the speculatively-read bit at retirement
// (selective/ASO; continuous marked at execution, and marking again closes
// the gap for loads that executed in the non-speculative window after an
// abort). Store-buffer-forwarded load values need no bit: they are the
// core's own not-yet-visible stores, protected by the written state.
func (n *Node) planSpec(hs *cpu.HeadState) plan {
	y := n.engine.YoungestEpoch()
	switch {
	case hs.Op.IsLoad() && hs.FromL1:
		line := n.l1.Peek(hs.Addr)
		if line == nil {
			// The line left the L1 between execution and retirement (racing
			// same-cycle eviction): replay rather than retire a value that
			// is no longer protected.
			return plan{steps: stepReplay, why: cpu.StallOther}
		}
		return plan{steps: stepMarkRead | stepRetire, line: line, epoch: y}
	case hs.Op.IsStore():
		return n.planStore(hs.Addr, hs.Val, y)
	case hs.Op.IsAtomic():
		return n.planSpecAtomic(hs, y)
	}
	return plan{steps: stepRetire}
}

// planSpecAtomic treats the atomic as a load+store pair contained in one
// speculation (§3.2). Unlike a plain load, an atomic's read must stay
// adjacent to its paired write in the global order, so it must always pin
// a readable L1 copy with the speculatively-read bit, even when the value
// itself forwards from the store buffer. Without the bit, a remote write
// arriving between a buffered own-store and commit would go undetected and
// break read-modify-write atomicity.
func (n *Node) planSpecAtomic(hs *cpu.HeadState, y int) plan {
	line := n.l1.Peek(hs.Addr)
	if line == nil {
		return n.own(memtypes.BlockAddr(hs.Addr), cpu.StallOther, waitSpecAtomicFill)
	}
	old, ok := n.coalSB.Forward(hs.Addr)
	if !ok {
		old = line.Data[memtypes.WordIndex(hs.Addr)]
	}
	p := plan{steps: stepRetire} // a failed CAS is read-only
	if nv, doWrite := cpu.AtomicApply(hs.Op, old, hs.OpA, hs.OpB); doWrite {
		p = n.planStore(hs.Addr, nv, y)
	}
	p.line, p.epoch, p.old = line, y, old
	if !line.SpecRead[y] {
		p.steps |= stepMarkRead
	}
	if p.steps == 0 {
		p.wait = waitSpecAtomicStore
	}
	return p
}

// planStore plans a store into the coalescing buffer's world, at epoch
// NonSpecEpoch (the baseline RMO path) or a speculation's epoch (§3.2).
// A hit may write the L1 directly, but only if the buffer holds nothing for
// its block: buffered entries drain in age order, and a direct write
// jumping ahead of a buffered older store would later be overwritten by it.
func (n *Node) planStore(addr memtypes.Addr, val memtypes.Word, epoch int) plan {
	block := memtypes.BlockAddr(addr)
	line := n.l1.Peek(addr)
	writable := line != nil && line.State.Writable()
	p := plan{why: cpu.StallSBFull, line: line, epoch: epoch, val: val}
	direct := writable && !n.cleaning(block) && !n.sbHasBlock(block)
	if epoch == storebuffer.NonSpecEpoch {
		switch {
		case direct:
			p.steps = stepWrite | stepRetire
		case n.coalSB.CanStore(block, epoch):
			p.steps = stepPush | stepOwn | stepRetire
		default:
			p.wait = waitCoalFull
		}
		return p
	}
	if direct {
		switch {
		case line.State == cache.Modified && !line.SpecWrittenAny():
			// Non-speculatively dirty: the pre-speculative value must
			// survive abort. Clean-writeback in the background; the store
			// waits in the buffer meanwhile (§3.2).
			p.steps, direct = stepClean, false
		case n.heldByOlderEpoch(line, epoch):
			// Written by an older in-flight checkpoint: hold in the buffer
			// until that checkpoint commits (§3.1).
			direct = false
		}
	}
	switch {
	case n.engine.SSBWouldBlock():
		p.wait = waitSpecSSBFull
	case direct:
		p.steps = stepCount | stepWrite | stepRetire
	case n.coalSB.CanStore(block, epoch):
		p.steps |= stepCount | stepPush | stepRetire
		if !writable {
			p.steps |= stepOwn
		}
	case n.engine.Config().Mode == ifcore.ModeASO:
		// The SSB counts the store before the buffer refuses it. (The other
		// modes read the count nowhere, so their refused store is a wait.)
		p.steps |= stepCount
	default:
		p.wait = waitSpecSBFull
	}
	return p
}

// cleaning reports whether a cleaning writeback of the block is under way.
func (n *Node) cleaning(block memtypes.Addr) bool {
	_, ok := n.cleanings[block]
	return ok
}

// triggerKind classifies the retirement stall that would start a
// speculation: which instruction class hit an ordering requirement.
type triggerKind uint8

const (
	trigLoad triggerKind = iota
	trigStore
	trigRelease // st.rel blocked on a store-buffer drain (RC)
	trigAtomic
	trigFence
)

// canTriggerSpeculationOn reports whether a checkpoint-based speculation
// may begin now at a stall of the given kind. Selective mode (and the ASO
// baseline) speculates at every ordering stall (Figure 4); Louvre-style
// versioned ordering opens a version epoch only at release boundaries and
// takes the conventional stall everywhere else.
func (n *Node) canTriggerSpeculationOn(k triggerKind) bool {
	switch n.engine.Config().Mode {
	case ifcore.ModeSelective, ifcore.ModeASO:
	case ifcore.ModeLouvre:
		if k != trigRelease {
			return false
		}
	default:
		return false
	}
	return n.engine.CanBegin()
}

// sbHasBlock reports whether the coalescing buffer holds any entry (of any
// epoch class) for the block.
func (n *Node) sbHasBlock(block memtypes.Addr) bool {
	return n.coalSB.HasBlock(block)
}

// heldByOlderEpoch reports whether an older active checkpoint wrote this
// line.
func (n *Node) heldByOlderEpoch(line *cache.Line, y int) bool {
	for _, e := range n.engine.ActiveEpochs() {
		if e == y {
			return false
		}
		if line.SpecWritten[e] {
			return true
		}
	}
	return false
}

// OnRetireInstr implements cpu.Backend.
func (n *Node) OnRetireInstr() {
	n.st.Retired++
	n.engine.OnRetireInstr()
}

// ---------------------------------------------------------------------
// core.Host: machine-state primitives for the engine.
// ---------------------------------------------------------------------

// CaptureCheckpoint implements core.Host.
func (n *Node) CaptureCheckpoint() ([isa.NumRegs]memtypes.Word, int) {
	var regs [isa.NumRegs]memtypes.Word
	for r := 0; r < isa.NumRegs; r++ {
		regs[r] = n.core.ArchReg(isa.Reg(r))
	}
	if coherence.TraceOn() {
		coherence.TraceAlways(n.now, "node%d CHECKPOINT pc=%d r2=%d", n.id, n.core.ArchPC(), regs[2])
	}
	return regs, n.core.ArchPC()
}

// RestoreCheckpoint implements core.Host (the abort path's pipeline flush
// and register restore).
func (n *Node) RestoreCheckpoint(regs [isa.NumRegs]memtypes.Word, pc int) {
	if coherence.TraceOn() {
		coherence.TraceAlways(n.now, "node%d RESTORE pc=%d r2=%d", n.id, pc, regs[2])
	}
	n.core.FlushAll(regs, pc)
}

// FlashClearSpecBits implements core.Host (commit).
func (n *Node) FlashClearSpecBits(epoch int) {
	if coherence.TraceOn() {
		coherence.TraceAlways(n.now, "node%d COMMIT epoch=%d", n.id, epoch)
	}
	n.l1.FlashClearSpec(epoch)
}

// CondInvalidateSpec implements core.Host (abort).
func (n *Node) CondInvalidateSpec(epoch int) int {
	k := n.l1.ConditionalInvalidate(epoch)
	if coherence.TraceOn() {
		coherence.TraceAlways(n.now, "node%d ABORT epoch=%d invalidated=%d pc->%d", n.id, epoch, k, n.core.ArchPC())
	}
	return k
}

// SBFlashInvalidate implements core.Host (abort).
func (n *Node) SBFlashInvalidate(epoch int) int {
	if n.coalSB == nil {
		return 0
	}
	return n.coalSB.FlashInvalidateSpec(epoch)
}

// SBEpochDrained implements core.Host: the §3.2 commit condition. All
// stores prior to and within the epoch must have completed into the cache:
// no non-speculative entries, no entries of this epoch. (Entries of younger
// epochs may remain: the two-checkpoint case.)
func (n *Node) SBEpochDrained(epoch int) bool {
	if n.coalSB == nil {
		return true
	}
	if n.coalSB.CountEpoch(storebuffer.NonSpecEpoch) > 0 {
		return false
	}
	return n.coalSB.CountEpoch(epoch) == 0
}
