// The cluster event loop: per-node local clocks over network shards, epoch
// barriers at the torus lookahead. It is the only code that advances the
// clock.
//
// The contract (DESIGN.md §7, condensed):
//
//   - Nodes interact only through the network. The minimum latency between
//     nodes in different clusters — the lookahead L — bounds how far one
//     cluster's present can influence another's future: a message sent at
//     cycle t arrives no earlier than t+L. Link contention
//     (Config.Net.LinkBandwidth > 0) preserves the bound: injection-link
//     state is per source node, resolved inside the sender's shard at send
//     time — a cross-cluster send contends only at injection — and
//     queuing/serialization only ever delay delivery (DESIGN.md §10).
//   - Therefore, once every cluster has simulated through cycle E and
//     exchanged cross-cluster messages, each cluster can simulate
//     (E, E+L] independently: every message that can arrive in that window
//     is already in its shard's in-flight heap. With one cluster there is
//     no cross-cluster traffic, so L is unbounded and an epoch ends only at
//     MaxCycles or the watchdog deadline.
//   - Within its epoch a cluster runs an event loop with per-node local
//     clocks: a node ticks only at cycles where its cached NextEvent
//     horizon or an arriving message says it could change state; the
//     skipped node-cycles are replayed in bulk with SkipCycles before its
//     next tick. Lock-step (Config.DisableIdleSkip) is the same loop with
//     every horizon forced to the next cycle.
//   - Termination must match lock-step bit-exactly: the run ends at the
//     first cycle F at which every node reports Finished. A cluster whose
//     nodes are all finished pauses rather than simulating ahead (cycles
//     past F must never be simulated), and the coordinator resolves the
//     exact F with an iterative barrier protocol (see resolve).
//
// Determinism: between barriers, each cluster touches only its own nodes
// and shard; the coordinator touches shared state only while every worker
// is parked (channel-synchronized, so the race detector agrees). Message
// delivery order is a total order independent of exchange batching (see the
// ordering note in internal/network).
package sim

import (
	"fmt"

	"invisifence/internal/coherence"
	"invisifence/internal/memtypes"
	"invisifence/internal/network"
	"invisifence/internal/node"
	"invisifence/internal/stats"
)

// cluster is one slice of the machine: a contiguous run of nodes plus their
// network shard.
type cluster struct {
	idx      int
	shard    *network.Network
	nodes    []*node.Node
	ids      []network.NodeID
	lockstep bool // force every horizon to the next cycle

	// clock is the cluster's local clock: every owned node's state reflects
	// all cycles <= clock (ticked or provably idle). lastTick and horizon
	// are the per-node local clocks: lastTick[i] is the last cycle node i
	// actually ticked, horizon[i] its NextEvent hint cached at that tick
	// (absolute cycle, or memtypes.NoEvent). Cycles in (lastTick[i], clock]
	// are node i's lag, replayed in bulk via SkipCycles before its next
	// tick.
	clock    uint64
	lastTick []uint64
	horizon  []uint64

	// lastCycle is the last cycle the cluster simulated (runCycle), and
	// lastRetire the last cycle at which one of its nodes retired an
	// instruction (the watchdog's progress mark).
	lastCycle  uint64
	lastRetire uint64

	// paused marks that the cluster stopped at pauseCycle because all its
	// nodes were Finished there and the coordinator had not yet proven the
	// run extends further (the endgame protocol).
	paused     bool
	pauseCycle uint64

	st stats.RunnerStats

	// cmds and done connect a worker goroutine while a multi-cluster run
	// is in flight; nil when the cluster advances on the caller's
	// goroutine.
	cmds chan clusterCmd
	done chan struct{}
}

// clusterCmd asks a worker to advance its cluster: simulate up to limit,
// pausing at the first cycle >= safe at which all its nodes are Finished.
// safe is the coordinator's guarantee that the run reaches cycle safe
// (F >= safe), so pausing earlier is never necessary.
type clusterCmd struct{ safe, limit uint64 }

func newCluster(idx int, shard *network.Network, all []*node.Node, ids []int, lockstep bool) *cluster {
	c := &cluster{
		idx: idx, shard: shard, lockstep: lockstep,
		nodes:    make([]*node.Node, len(ids)),
		ids:      make([]network.NodeID, len(ids)),
		lastTick: make([]uint64, len(ids)),
		horizon:  make([]uint64, len(ids)),
	}
	for i, id := range ids {
		c.nodes[i] = all[id]
		c.ids[i] = network.NodeID(id)
		// Before its first tick every node is one fetch away from work.
		c.horizon[i] = 1
	}
	return c
}

// nextEventTime returns the earliest cycle at which anything in this
// cluster could change state: a node horizon or an in-flight delivery.
// Arrivals already sitting in an inbox force the owed node's horizon to
// lastTick+1, so they are covered by the horizon terms.
func (c *cluster) nextEventTime() uint64 {
	t := c.shard.NextEvent()
	for _, h := range c.horizon {
		if h < t {
			t = h
		}
	}
	return t
}

func (c *cluster) allFinished() bool {
	for _, n := range c.nodes {
		if !n.Finished() {
			return false
		}
	}
	return true
}

// advance simulates the cluster forward to limit under the pause rule: stop
// at the first cycle t >= safe at which every owned node is Finished —
// that cycle might be the whole run's finish F, and no node may ever be
// simulated past F. The event loop ticks only nodes whose horizon is due or
// whose inbox is non-empty; everyone else accrues lag.
func (c *cluster) advance(safe, limit uint64) {
	c.paused = false
	for {
		fin := c.allFinished()
		if fin && c.clock >= safe {
			c.paused = true
			c.pauseCycle = c.clock
			return
		}
		lim := limit
		if fin && safe < lim {
			// All nodes finished but the run is only proven to reach safe:
			// advance to safe (processing any arrivals on the way, which may
			// un-finish a node) and re-evaluate there.
			lim = safe
		}
		if c.clock >= lim {
			return
		}
		t := c.nextEventTime()
		if t > lim { // includes NoEvent under a finite limit
			c.clock = lim // provably-idle stretch: pure lag, no work
			continue
		}
		if t == memtypes.NoEvent {
			// Only an unbounded epoch (one cluster, no MaxCycles, no
			// watchdog) gets here: nothing can ever happen again.
			panic(fmt.Sprintf("sim: deadlock at cycle %d: no pending event and no MaxCycles or watchdog bound\n%s",
				c.clock, debugState(c.nodes)))
		}
		if t <= c.clock {
			panic(fmt.Sprintf("sim: cluster %d event horizon %d not beyond clock %d", c.idx, t, c.clock))
		}
		c.runCycle(t)
		c.clock = t
	}
}

// runCycle simulates exactly cycle t: deliver arrivals, then tick every due
// node (ascending node ID, the order every send's ordering key assumes),
// replaying each ticked node's lag first.
func (c *cluster) runCycle(t uint64) {
	c.shard.Tick(t)
	for i, n := range c.nodes {
		if c.horizon[i] <= t || c.shard.InboxLen(c.ids[i]) > 0 {
			if gap := t - c.lastTick[i] - 1; gap > 0 {
				n.SkipCycles(gap)
				c.st.SkippedNodeCycles += gap
			}
			n.Tick(t)
			c.lastTick[i] = t
			if c.lockstep {
				c.horizon[i] = t + 1
			} else {
				c.horizon[i] = n.NextEvent()
			}
			if n.Core().RetiredThisCycle > 0 {
				c.lastRetire = t
			}
			c.st.NodeTicks++
		}
	}
	c.lastCycle = t
	c.st.SimulatedCycles++
}

// flushLag brings every node's accounting up to cycle "to" (all remaining
// lag is provably idle), aligning the cluster with what lock-step would
// have ticked by then.
func (c *cluster) flushLag(to uint64) {
	for i, n := range c.nodes {
		if gap := to - c.lastTick[i]; gap > 0 {
			n.SkipCycles(gap)
			c.st.SkippedNodeCycles += gap
			c.lastTick[i] = to
		}
	}
	c.clock = to
}

// ---------------------------------------------------------------- runner

// run is the coordinator: it drives the clusters through epochs, exchanges
// cross-shard messages at barriers, fast-forwards whole-system idle
// stretches, and resolves the exact finish cycle. It returns true when
// every node finished, false when MaxCycles truncated the run. One cluster
// advances on the caller's goroutine; several get one worker goroutine
// each, unless a per-cycle observation hook (DebugHook, coherence tracing)
// is set: then every cluster advances on the caller's goroutine, one cycle
// per epoch, so the hook sees cycles in order.
func (s *System) run() bool {
	hooked := s.DebugHook != nil || coherence.TraceOn()
	la := s.lookahead
	if hooked {
		la = 1
	} else if len(s.clusters) > 1 {
		s.startWorkers()
		defer s.stopWorkers()
	}
	st := &s.clusters[0].st // coordinator-level counters
	for {
		// Whole-system idle jump: the clock may advance to one cycle before
		// the global horizon, but never across MaxCycles or the watchdog
		// deadline. No node ticks, so no Finished flag can change during
		// the jumped stretch — the run cannot end inside it.
		bound := s.bound()
		jump := bound
		if h := s.nextEventTime(); h != memtypes.NoEvent && h-1 < jump {
			jump = h - 1
		}
		if jump != memtypes.NoEvent && jump > s.now {
			st.IdleJumpCycles += jump - s.now
			for _, c := range s.clusters {
				c.clock = jump
			}
			s.now = jump
		}

		target := bound
		if target-s.now > la {
			target = s.now + la
		}
		s.dispatch(s.clusters, s.now, target)
		ended := s.resolve(target)
		if s.DebugHook != nil && s.simulated(target) {
			s.DebugHook(target)
		}
		if ended {
			return true
		}
		s.now = target
		st.Epochs++

		// Barrier exchange: move every cross-cluster message into the shard
		// that owns its destination. All of them arrive after target (the
		// lookahead guarantee), so injection precedes any cycle at which
		// they could be delivered.
		s.exchange()

		if s.cfg.MaxCycles > 0 && s.now >= s.cfg.MaxCycles {
			for _, c := range s.clusters {
				c.flushLag(s.now)
			}
			return false
		}
		if w := s.cfg.WatchdogCycles; w > 0 && s.now-s.lastRetire() > w {
			panic(fmt.Sprintf("sim: no retirement progress for %d cycles at cycle %d\n%s",
				w, s.now, debugState(s.nodes)))
		}
	}
}

// bound is the last cycle the next epoch may reach: MaxCycles or the
// watchdog deadline (one cycle past WatchdogCycles without a retirement),
// whichever comes first; memtypes.NoEvent when neither is set.
func (s *System) bound() uint64 {
	b := uint64(memtypes.NoEvent)
	if s.cfg.MaxCycles > 0 {
		b = s.cfg.MaxCycles
	}
	if w := s.cfg.WatchdogCycles; w > 0 {
		if d := s.lastRetire() + w + 1; d < b {
			b = d
		}
	}
	return b
}

func (s *System) lastRetire() uint64 {
	var t uint64
	for _, c := range s.clusters {
		t = max(t, c.lastRetire)
	}
	return t
}

func (s *System) nextEventTime() uint64 {
	h := uint64(memtypes.NoEvent)
	for _, c := range s.clusters {
		h = min(h, c.nextEventTime())
	}
	return h
}

// simulated reports whether some cluster simulated cycle t.
func (s *System) simulated(t uint64) bool {
	for _, c := range s.clusters {
		if c.lastCycle == t {
			return true
		}
	}
	return false
}

func (s *System) startWorkers() {
	for _, c := range s.clusters {
		c.cmds = make(chan clusterCmd)
		c.done = make(chan struct{})
		go func(c *cluster, cmds <-chan clusterCmd, done chan<- struct{}) {
			for cmd := range cmds {
				c.advance(cmd.safe, cmd.limit)
				done <- struct{}{}
			}
		}(c, c.cmds, c.done)
	}
}

func (s *System) stopWorkers() {
	for _, c := range s.clusters {
		close(c.cmds)
		c.cmds, c.done = nil, nil
	}
}

// dispatch runs advance(safe, limit) on every cluster in sel — concurrently
// on the workers if they are running, else in order on this goroutine —
// and waits for all of them (the barrier).
func (s *System) dispatch(sel []*cluster, safe, limit uint64) {
	for _, c := range sel {
		if c.cmds == nil {
			c.advance(safe, limit)
		} else {
			c.cmds <- clusterCmd{safe: safe, limit: limit}
		}
	}
	for _, c := range sel {
		if c.cmds != nil {
			<-c.done
		}
	}
}

// resolve runs the endgame protocol after an epoch's advance, returning
// true (with s.now at the finish cycle) when the run ends in this epoch.
// The run ends at the first cycle F at which every node is Finished; each
// cluster pauses at its own first all-finished cycle, and F — if it lies
// in this epoch — is the fixpoint of: take the maximum pause cycle F*,
// prove the run reaches it (every earlier cycle had an unfinished node in
// the cluster that paused at F*), let the clusters behind catch up to it,
// and repeat until either every cluster pauses at the same cycle (the run
// ends there) or some cluster passes the epoch end unfinished (the run
// continues; stragglers catch up to the epoch end).
func (s *System) resolve(target uint64) bool {
	clusters := s.clusters
	for {
		allPaused := true
		for _, c := range clusters {
			if !c.paused {
				allPaused = false
				break
			}
		}
		if !allPaused {
			// The run provably extends through target: catch stragglers up.
			var behind []*cluster
			for _, c := range clusters {
				if c.paused && c.clock < target {
					behind = append(behind, c)
				}
			}
			if len(behind) > 0 {
				clusters[0].st.Resolutions++
				s.dispatch(behind, target, target)
			}
			for _, c := range clusters {
				c.paused = false
			}
			return false
		}
		f := clusters[0].pauseCycle
		same := true
		for _, c := range clusters[1:] {
			if c.pauseCycle > f {
				f = c.pauseCycle
			}
			if c.pauseCycle != clusters[0].pauseCycle {
				same = false
			}
		}
		if same {
			// Every node Finished at f, and no cluster simulated past it:
			// this is exactly where lock-step returns.
			for _, c := range clusters {
				c.flushLag(f)
			}
			s.now = f
			return true
		}
		var behind []*cluster
		for _, c := range clusters {
			if c.clock < f {
				behind = append(behind, c)
			}
		}
		clusters[0].st.Resolutions++
		s.dispatch(behind, f, target)
	}
}

// lookahead computes the epoch length: the minimum message latency between
// any two nodes in different clusters (memtypes.NoEvent for one cluster).
// Self-messages (LocalLatency) are always intra-cluster, so with several
// clusters the bound is at least one torus hop.
func lookahead(net *network.Network, groups [][]int) uint64 {
	la := uint64(memtypes.NoEvent)
	for ci, as := range groups {
		for cj, bs := range groups {
			if ci == cj {
				continue
			}
			for _, a := range as {
				for _, b := range bs {
					la = min(la, net.Latency(network.NodeID(a), network.NodeID(b)))
				}
			}
		}
	}
	return la
}

// exchange drains every shard's outbox and injects each message into the
// shard owning its destination. Insertion order cannot affect delivery
// order (total ordering key), so a simple per-destination regrouping
// suffices.
func (s *System) exchange() {
	if s.xferScratch == nil {
		s.xferScratch = make([][]network.Message, len(s.clusters))
	}
	for _, src := range s.clusters {
		for _, m := range src.shard.DrainOutbox() {
			c := s.clusterOf[int(m.Dst)]
			s.xferScratch[c] = append(s.xferScratch[c], m)
		}
	}
	for c, ms := range s.xferScratch {
		if len(ms) > 0 {
			s.clusters[c].shard.Inject(ms)
			s.xferScratch[c] = ms[:0]
		}
	}
}

// RunnerStats returns the loop's telemetry for the run so far, merged over
// clusters in ascending order. It is intentionally not part of Result:
// every runner setting must produce deeply-equal Results, while the work
// the loop does to get there differs.
func (s *System) RunnerStats() stats.RunnerStats {
	var r stats.RunnerStats
	for _, c := range s.clusters {
		r.Merge(&c.st)
	}
	return r
}
