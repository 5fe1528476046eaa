// Package node assembles one simulated node: the out-of-order core, the L1D
// and L2 caches, the post-retirement store buffer, the home-directory slice,
// the cache-side coherence state machine, and the InvisiFence/ASO engine.
//
// The node implements both cpu.Backend (retirement policy per the Figure 2
// consistency rules, speculation triggers per Figure 4) and core.Host (the
// machine-state primitives the engine drives: checkpoint restore, flash
// operations, store-buffer flush).
package node

import (
	"fmt"

	"invisifence/internal/cache"
	"invisifence/internal/coherence"
	"invisifence/internal/consistency"
	ifcore "invisifence/internal/core"
	"invisifence/internal/cpu"
	"invisifence/internal/isa"
	"invisifence/internal/memctrl"
	"invisifence/internal/memtypes"
	"invisifence/internal/network"
	"invisifence/internal/stats"
	"invisifence/internal/storebuffer"
)

// Config describes one node.
type Config struct {
	ID    network.NodeID
	Nodes int
	Model consistency.Model
	// Engine selects speculation policy; Mode Off is a conventional
	// implementation of Model.
	Engine ifcore.Config
	Core   cpu.Config
	L1     cache.Config
	L2     cache.Config
	Memory memctrl.Config
	// MSHRs bounds outstanding misses (Figure 6: 32).
	MSHRs int
	// SBCapacity sizes the store buffer: 64 word entries (FIFO, SC/TSO),
	// 8 block entries (coalescing, single checkpoint), 32 (two in-flight
	// checkpoints), per Figure 6.
	SBCapacity int
	// StorePrefetchDepth is how far past the FIFO head exclusive
	// prefetches are issued (Flexus-style store prefetching; 0 disables).
	StorePrefetchDepth int
	// MsgsPerCycle bounds protocol messages consumed per cycle.
	MsgsPerCycle int
	// SnoopLQ enables in-window load-queue snooping. Kept on in every
	// configuration including continuous (see DESIGN.md: functionally
	// conservative, hardware-cost claim unaffected).
	SnoopLQ bool
	// FillHoldCycles parks external probes for a block for this many
	// cycles after its fill arrives, so the requesting core can perform at
	// least one access before surrendering the line. This is the standard
	// livelock-avoidance window for hot atomics (ownership would otherwise
	// ping-pong forever without any fetch-add completing). Bounded, so it
	// cannot deadlock. 0 disables.
	FillHoldCycles uint64
}

// UsesFIFOSB reports whether this configuration uses the word-granularity
// FIFO store buffer (conventional SC/TSO) rather than the coalescing buffer.
func (c *Config) UsesFIFOSB() bool {
	return c.Engine.Mode == ifcore.ModeOff &&
		consistency.RulesFor(c.Model).SB == consistency.SBFIFOWord
}

type mshrEntry struct {
	block    memtypes.Addr
	wantX    bool
	upgrade  bool
	sent     bool
	fromL2   bool   // served by local L2
	readyAt  uint64 // completion time for local L2 serves
	prefetch bool
	waiters  []loadWaiter
	// invalidated marks a miss whose block was invalidated while pending:
	// an Inv (from a directory transaction ordered after the one producing
	// our fill) can overtake a 3-hop forwarded fill on a different network
	// pair. The stale fill must be discarded and the request reissued, or
	// the node would install a permanently incoherent copy.
	invalidated bool
}

type loadWaiter struct {
	tag  uint64
	addr memtypes.Addr
}

type wbEntry struct {
	data  memtypes.BlockData
	dirty bool
}

// parkedProbe holds a deferred or raced coherence message by value; the
// parked list and its retry scratch swap backing arrays each cycle, so
// parking allocates nothing in steady state.
type parkedProbe struct {
	src      network.NodeID
	msg      coherence.Msg
	deadline uint64 // CoV deferral deadline; 0 = no deadline (resource wait)
	isCoV    bool
}

// Node is one processor node of the 16-node system.
type Node struct {
	cfg   Config
	id    network.NodeID
	nodes int
	net   *network.Network
	dir   *coherence.Directory
	mem   *memctrl.Memory
	core  *cpu.Core
	l1    *cache.Cache
	l2    *cache.Cache

	fifoSB *storebuffer.FIFO
	coalSB *storebuffer.Coalescing
	engine *ifcore.Engine

	st  *stats.NodeStats
	now uint64

	mshrs      map[memtypes.Addr]*mshrEntry
	mshrOrder  []*mshrEntry
	mshrFree   []*mshrEntry   // recycled miss entries (waiter capacity kept)
	setPending map[uint64]int // L1 set index -> outstanding fills/locks

	wbBuf     map[memtypes.Addr]wbEntry
	cleanings map[memtypes.Addr]uint64 // block -> cleaning-writeback done cycle
	cleanList []memtypes.Addr          // deterministic iteration
	fillHold  map[memtypes.Addr]uint64 // block -> probe-hold deadline after fill

	parked        []parkedProbe
	parkedScratch []parkedProbe // retryParked's reusable iteration snapshot
	// parkedFills marks blocks whose fill data has arrived but is waiting
	// for a victim way. Probes for these blocks must queue behind the fill:
	// serving them first would invalidate the cached copy and let the
	// parked fill later re-install stale data.
	parkedFills map[memtypes.Addr]bool

	accounting bool // false once the core halts (post-halt drain not charged)

	// Stats.
	CleaningWBs, Prefetches, L2HitFills, RemoteFills uint64
}

// New builds a node. The workload program and initial registers seed the
// core.
func New(cfg Config, net *network.Network, prog *isa.Program, regs [isa.NumRegs]memtypes.Word) *Node {
	if cfg.MsgsPerCycle <= 0 {
		cfg.MsgsPerCycle = 8
	}
	n := &Node{
		cfg:         cfg,
		id:          cfg.ID,
		nodes:       cfg.Nodes,
		net:         net,
		mem:         memctrl.New(cfg.Memory),
		l1:          cache.New(cfg.L1),
		l2:          cache.New(cfg.L2),
		st:          &stats.NodeStats{},
		mshrs:       make(map[memtypes.Addr]*mshrEntry),
		setPending:  make(map[uint64]int),
		wbBuf:       make(map[memtypes.Addr]wbEntry),
		cleanings:   make(map[memtypes.Addr]uint64),
		fillHold:    make(map[memtypes.Addr]uint64),
		parkedFills: make(map[memtypes.Addr]bool),
		accounting:  true,
	}
	n.dir = coherence.NewDirectory(cfg.ID, cfg.Nodes, n.mem, net)
	if cfg.UsesFIFOSB() {
		n.fifoSB = storebuffer.NewFIFO(cfg.SBCapacity)
	} else {
		n.coalSB = storebuffer.NewCoalescing(cfg.SBCapacity)
	}
	n.engine = ifcore.New(cfg.Engine, n)
	n.core = cpu.New(int(cfg.ID), cfg.Core, prog, regs, n)
	return n
}

// Directory exposes the node's home-directory slice (tests).
func (n *Node) Directory() *coherence.Directory { return n.dir }

// Memory exposes the node's memory controller (workload init, result reads).
func (n *Node) Memory() *memctrl.Memory { return n.mem }

// Core exposes the core (tests).
func (n *Node) Core() *cpu.Core { return n.core }

// L1 exposes the L1 cache (tests).
func (n *Node) L1() *cache.Cache { return n.l1 }

// L2 exposes the L2 cache (tests).
func (n *Node) L2() *cache.Cache { return n.l2 }

// Engine exposes the speculation engine (tests).
func (n *Node) Engine() *ifcore.Engine { return n.engine }

// Stats exposes accounting (also part of core.Host).
func (n *Node) Stats() *stats.NodeStats { return n.st }

// Now implements core.Host.
func (n *Node) Now() uint64 { return n.now }

// Halted reports whether the core has retired its Halt.
func (n *Node) Halted() bool { return n.core.Halted() }

// Finished reports whether the node is fully quiesced: program halted,
// speculation resolved, stores drained, no outstanding misses.
func (n *Node) Finished() bool {
	return n.core.Halted() && !n.engine.Speculating() && n.sbEmpty() &&
		len(n.mshrs) == 0 && len(n.parked) == 0 && len(n.cleanings) == 0
}

func (n *Node) sbEmpty() bool {
	if n.fifoSB != nil {
		return n.fifoSB.Empty()
	}
	return n.coalSB.Empty()
}

// MSHRCount returns outstanding misses (tests, diagnostics).
func (n *Node) MSHRCount() int { return len(n.mshrs) }

// ParkedCount returns parked probes/fills awaiting retry (tests, diagnostics).
func (n *Node) ParkedCount() int { return len(n.parked) }

// SBOccupancy returns current store buffer entries (tests).
func (n *Node) SBOccupancy() int {
	if n.fifoSB != nil {
		return n.fifoSB.Len()
	}
	return n.coalSB.Len()
}

func (n *Node) home(a memtypes.Addr) network.NodeID {
	return coherence.HomeOf(a, n.nodes)
}

func (n *Node) send(dst network.NodeID, m coherence.Msg) {
	if coherence.TraceOn() {
		coherence.Trace(n.now, fmt.Sprintf("node%d->%d", n.id, dst), m, "")
	}
	n.net.Send(n.id, dst, m)
}

// Tick advances the node one cycle. The simulator has already advanced the
// network, so this cycle's deliveries are in the inbox.
func (n *Node) Tick(now uint64) {
	n.now = now
	// Message-driven core paths below (fills, snoops, aborts) anchor
	// redirect timing to the core's clock, which lock-step execution leaves
	// at the previous cycle; re-anchor it in case idle-skip jumped.
	n.core.SyncNow(now - 1)
	n.retryParked()
	n.deliver()
	n.dir.Tick(now)
	n.completeCleanings()
	n.completeL2Serves()
	n.issueRequests()
	n.drainStoreBuffer()
	if n.core.Halted() {
		n.engine.RequestHalt()
	}
	n.engine.Tick()
	n.core.Tick(now)
	n.account()
}

// deliver consumes protocol messages from the network inbox.
func (n *Node) deliver() {
	for i := 0; i < n.cfg.MsgsPerCycle; i++ {
		m, ok := n.net.Recv(n.id)
		if !ok {
			return
		}
		if m.Payload.Kind.IsDirRequest() {
			n.dir.Handle(n.now, m.Src, m.Payload)
			continue
		}
		if coherence.TraceOn() {
			coherence.Trace(n.now, fmt.Sprintf("node%d<-%d", n.id, m.Src), m.Payload, "")
		}
		n.handleCacheMsg(m.Src, m.Payload)
	}
}

// NextEvent returns the earliest future cycle at which this node might
// change state on its own — excluding new network deliveries, which the
// simulator tracks through the network's own horizon. It returns
// memtypes.NoEvent when every pending activity is waiting on an external
// input. The contract is one-sided: the hint must never be later than the
// node's true next state change, but may be earlier (costing only a tick).
//
// The method is read-only with respect to simulated state, so the answer
// never perturbs a run: a simulation on per-node event horizons is
// bit-exact against lock-step (enforced by TestGoldenResults and
// TestParallelBitExact).
func (n *Node) NextEvent() uint64 {
	// Unconsumed deliveries, parked probes/fills, and unsent miss requests
	// are all retried next cycle.
	if n.net.InboxLen(n.id) > 0 || len(n.parked) > 0 {
		return n.now + 1
	}
	// A cycle that retired instructions classifies as Busy; the next cycle
	// may classify differently even if frozen, so never skip across it.
	if n.core.RetiredThisCycle > 0 {
		return n.now + 1
	}
	next := uint64(memtypes.NoEvent)
	for _, m := range n.mshrOrder {
		switch {
		case !m.sent && !m.fromL2:
			return n.now + 1 // request issues next cycle
		case m.fromL2:
			// Includes completed-but-stuck local serves (no victim yet),
			// which retry every cycle via max(now+1, ...).
			next = min(next, max(n.now+1, m.readyAt))
		}
	}
	for _, done := range n.cleanings {
		next = min(next, max(n.now+1, done))
	}
	if t := n.sbNextEvent(); t < next {
		next = t
	}
	// The head's retirement attempt: an act changes state next cycle, a wait
	// wakes through the other terms (drains, fills, cleanings, commits).
	if hs := n.core.HeadState(); !hs.Ready {
		next = min(next, hs.ReadyAt) // NoEvent while a fill or issue owns it
	} else if n.plan(&hs).steps != 0 {
		return n.now + 1
	}
	next = min(next, n.dir.NextEvent(n.now))
	next = min(next, n.engine.NextEvent(n.now))
	next = min(next, n.mem.NextEvent(n.now))
	next = min(next, n.core.NextEvent())
	return next
}

// sbNextEvent reports when the store-buffer drain engine would next act.
func (n *Node) sbNextEvent() uint64 {
	if n.fifoSB != nil {
		if e := n.fifoSB.Head(); e != nil {
			block := memtypes.BlockAddr(e.Addr)
			if line := n.l1.Peek(block); line != nil && line.State.Writable() {
				return n.now + 1 // head drains next cycle
			}
			if _, ok := n.mshrs[block]; !ok {
				return n.now + 1 // ownership request (re)attempted next cycle
			}
		}
		if n.cfg.StorePrefetchDepth > 0 && len(n.mshrs) < n.cfg.MSHRs-4 {
			for _, block := range n.fifoSB.PrefetchBlocks(n.cfg.StorePrefetchDepth) {
				if _, ok := n.mshrs[block]; ok {
					continue
				}
				if line := n.l1.Peek(block); line != nil && line.State.Writable() {
					continue
				}
				return n.now + 1 // a store prefetch would be attempted
			}
		}
		return memtypes.NoEvent
	}
	// Coalescing buffer: an entry whose block has neither an outstanding
	// miss nor a cleaning writeback in progress is (re)attempted every
	// cycle; entries pinned behind a sent miss or a cleaning wake through
	// those events. (A block with an outstanding remote miss can never be
	// writable locally, so no drain is missed by waiting on the fill.)
	for _, e := range n.coalSB.Entries() {
		if _, ok := n.mshrs[e.Block]; ok {
			continue
		}
		if _, ok := n.cleanings[e.Block]; ok {
			continue
		}
		return n.now + 1
	}
	return memtypes.NoEvent
}

// SkipCycles fast-forwards the node across k cycles (n.now+1 .. n.now+k)
// in which the simulator proved no component makes progress. Frozen state
// means every skipped cycle classifies exactly like the cycle just ticked
// (NextEvent refuses to skip after a retiring cycle), so cycle accounting
// is replayed in bulk; the core replicates its own per-cycle counters. A
// skipped retirement attempt is a wait, which changes nothing.
func (n *Node) SkipCycles(k uint64) {
	if n.accounting {
		var cl stats.CycleClass
		switch n.core.HeadStall {
		case cpu.StallSBFull:
			cl = stats.SBFull
		case cpu.StallSBDrain:
			cl = stats.SBDrain
		default:
			cl = stats.Other
		}
		n.st.AccountN(cl, n.engine.YoungestEpoch(), k)
	}
	n.core.SkipCycles(k)
}

// account classifies this cycle for the Figure 9 breakdown.
func (n *Node) account() {
	if !n.accounting {
		return
	}
	if n.core.Halted() {
		n.accounting = false
		return
	}
	var cl stats.CycleClass
	if n.core.RetiredThisCycle > 0 {
		cl = stats.Busy
	} else {
		switch n.core.HeadStall {
		case cpu.StallSBFull:
			cl = stats.SBFull
		case cpu.StallSBDrain:
			cl = stats.SBDrain
		default:
			cl = stats.Other
		}
	}
	n.st.Account(cl, n.engine.YoungestEpoch())
}

// Fingerprint appends to dst the node state its hints speak for, apart from
// the cycle accounting that SkipCycles replays: the core's (Core.Fingerprint)
// and its head stall, the MSHRs, parked probes, cleanings, store-buffer
// entries, speculation epochs and event counters. The late-hint checker
// compares it across cycles the hint called quiet.
func (n *Node) Fingerprint(dst []uint64) []uint64 {
	dst = n.core.Fingerprint(dst)
	b := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}
	dst = append(dst, uint64(n.core.HeadStall), n.CleaningWBs, n.Prefetches, n.L2HitFills, n.RemoteFills,
		uint64(len(n.wbBuf)), uint64(len(n.fillHold)), uint64(len(n.parkedFills)), uint64(len(n.setPending)))
	for _, m := range n.mshrOrder {
		dst = append(dst, uint64(m.block), b(m.wantX)|b(m.upgrade)<<1|b(m.sent)<<2|b(m.fromL2)<<3|b(m.prefetch)<<4|b(m.invalidated)<<5,
			m.readyAt, uint64(len(m.waiters)))
	}
	for _, p := range n.parked {
		dst = append(dst, uint64(p.src), uint64(p.msg.Kind), uint64(p.msg.Addr), p.deadline, b(p.isCoV))
	}
	for _, block := range n.cleanList {
		dst = append(dst, uint64(block), n.cleanings[block])
	}
	if n.fifoSB != nil {
		// Entries change only by a push (a retirement) or a pop (the length).
		dst = append(dst, uint64(n.fifoSB.Len()))
	} else {
		for _, e := range n.coalSB.Entries() {
			dst = append(dst, uint64(e.Block), uint64(int64(e.Epoch)), b(e.Issued))
			for w := range e.Words {
				dst = append(dst, uint64(e.Words[w]), b(e.Valid[w]))
			}
		}
	}
	for _, ep := range n.engine.ActiveEpochs() {
		dst = append(dst, uint64(ep))
	}
	return append(dst, n.engine.CommitBusyUntil())
}

// DebugString dumps miss/parking/cleaning state for diagnostics.
func (n *Node) DebugString() string {
	out := ""
	for _, m := range n.mshrOrder {
		out += fmt.Sprintf("  mshr %#x wantX=%v sent=%v upg=%v fromL2=%v pf=%v waiters=%d\n",
			uint64(m.block), m.wantX, m.sent, m.upgrade, m.fromL2, m.prefetch, len(m.waiters))
	}
	for _, p := range n.parked {
		out += fmt.Sprintf("  parked %v from=%d cov=%v deadline=%d\n", p.msg, p.src, p.isCoV, p.deadline)
	}
	for b, t := range n.cleanings {
		out += fmt.Sprintf("  cleaning %#x until %d\n", uint64(b), t)
	}
	if n.coalSB != nil {
		for _, e := range n.coalSB.Entries() {
			line := "absent"
			if l := n.l1.Peek(e.Block); l != nil {
				line = l.State.String()
			}
			out += fmt.Sprintf("  sb entry %#x epoch=%d l1=%s\n", uint64(e.Block), e.Epoch, line)
		}
	}
	out += fmt.Sprintf("  engine: active=%v, head wait %q\n", n.engine.ActiveEpochs(), n.HeadWait())
	return out
}

func (n *Node) invariant(cond bool, format string, args ...any) {
	if !cond {
		panic(fmt.Sprintf("node %d @%d: %s", n.id, n.now, fmt.Sprintf(format, args...)))
	}
}

// invariantAddr is the hot-path variant of invariant: the ...any form boxes
// its arguments on every call even when the condition holds, which made the
// per-fill and per-probe checks the largest allocation sites in the
// simulator. The address is formatted only on failure.
func (n *Node) invariantAddr(cond bool, msg string, a memtypes.Addr) {
	if !cond {
		panic(fmt.Sprintf("node %d @%d: %s %#x", n.id, n.now, msg, uint64(a)))
	}
}
