// Package sim assembles the full 16-node system of Figure 6 — cores, cache
// hierarchies, store buffers, directories, torus — and drives the
// deterministic cycle loop.
package sim

import (
	"fmt"

	"invisifence/internal/cache"
	"invisifence/internal/isa"
	"invisifence/internal/memtypes"
	"invisifence/internal/network"
	"invisifence/internal/node"
	"invisifence/internal/stats"
)

// Config describes a whole-system run.
type Config struct {
	Net  network.Config
	Node node.Config // template; ID is assigned per node
	// MaxCycles bounds the run (0 = unbounded).
	MaxCycles uint64
	// WatchdogCycles panics if no instruction retires anywhere for this
	// long (deadlock detector; 0 disables). The panic names the cycle one
	// past the deadline, under every runner setting.
	WatchdogCycles uint64
	// DisableIdleSkip runs the cycle loop lock-step: every node's event
	// horizon is forced to the next cycle, so every node and shard ticks
	// every cycle. Results are bit-exact either way; the flag is the
	// oracle the horizon hints are tested against, a baseline for the
	// bench harness, and a diagnostic bisect knob. It combines freely
	// with Clusters.
	DisableIdleSkip bool
	// Clusters >= 2 partitions the torus into that many node clusters, each
	// simulated by its own goroutine over its own network shard, synchronized
	// at epoch barriers derived from the minimum cross-cluster message
	// latency (DESIGN.md §7). By default (<= 1) one shard owns every node and
	// the loop runs on the caller's goroutine. Results are bit-exact at any
	// setting (TestParallelBitExact). Two rules fall back to one cluster:
	// more clusters than nodes, and network jitter (its RNG is consumed in
	// global send order, which only a shard owning every node reproduces).
	// With a DebugHook or coherence tracing set, the clusters advance one
	// after another on the caller's goroutine, one cycle per epoch.
	Clusters int
}

// Result summarizes a completed run.
type Result struct {
	Cycles    uint64
	Finished  bool // all programs halted and quiesced
	Retired   uint64
	Breakdown stats.Breakdown
	PerNode   []*stats.NodeStats

	// SpecFraction is the Figure 10 metric aggregated over cores.
	SpecFraction float64

	// Aggregate event counters.
	Speculations, Commits, Aborts uint64
	CoVDeferrals, CoVSaves        uint64
	CleaningWBs, Prefetches       uint64
	L2HitFills, RemoteFills       uint64
	Mispredicts, Replays          uint64

	// Net is the interconnect's link-contention telemetry (all-zero when
	// Config.Net.LinkBandwidth is 0). Unlike RunnerStats it is part of
	// Result because it is simulated machine state, deterministic under
	// every runner setting: link reservations are per-source-node, so
	// every partition computes identical occupancy, and the per-shard
	// counters merge order-independently (stats.NetStats).
	Net stats.NetStats
}

// System is one assembled machine.
type System struct {
	cfg   Config
	nodes []*node.Node
	// now is the last cycle every node's state reflects (ticked or
	// provably idle): the last epoch end, and Result.Cycles once Run
	// returns.
	now uint64

	// clusters partition the nodes into contiguous index ranges, each over
	// its own network shard; one cluster owns every node unless
	// Config.Clusters asks for more. clusterOf[id] is node id's cluster,
	// lookahead the epoch length (DESIGN.md §7), and xferScratch the
	// barrier exchange's regrouping buffers.
	clusters    []*cluster
	clusterOf   []int
	lookahead   uint64
	xferScratch [][]network.Message

	// DebugHook, when set, runs on the caller's goroutine after every
	// simulated cycle, in increasing cycle order (every cycle under
	// DisableIdleSkip). Cycles at which no node or shard has an event are
	// not simulated and do not invoke it; nodes idle at a hooked cycle may
	// lag in their cycle-class accounting until their next tick.
	DebugHook func(now uint64)
}

// New builds the system. programs[i] runs on node i; regs[i] seeds its
// registers (thread id, argument pointers).
func New(cfg Config, programs []*isa.Program, regs [][isa.NumRegs]memtypes.Word) *System {
	nnodes := cfg.Net.Width * cfg.Net.Height
	if len(programs) != nnodes {
		panic(fmt.Sprintf("sim: %d programs for %d nodes", len(programs), nnodes))
	}
	k := cfg.Clusters
	if k < 1 || k > nnodes || cfg.Net.Jitter > 0 {
		k = 1
	}
	s := &System{cfg: cfg, clusterOf: make([]int, nnodes)}
	groups := partition(nnodes, k)
	shards := make([]*network.Network, k)
	for c, ids := range groups {
		owned := make([]bool, nnodes)
		for _, id := range ids {
			owned[id] = true
			s.clusterOf[id] = c
		}
		shards[c] = network.NewShard(cfg.Net, owned)
	}
	for i := 0; i < nnodes; i++ {
		nc := cfg.Node
		nc.ID = network.NodeID(i)
		nc.Nodes = nnodes
		var r [isa.NumRegs]memtypes.Word
		if regs != nil {
			r = regs[i]
		}
		s.nodes = append(s.nodes, node.New(nc, shards[s.clusterOf[i]], programs[i], r))
	}
	for c, ids := range groups {
		s.clusters = append(s.clusters, newCluster(c, shards[c], s.nodes, ids, cfg.DisableIdleSkip))
	}
	s.lookahead = lookahead(shards[0], groups)
	return s
}

// partition splits n node indices into k contiguous, balanced clusters. On
// the row-major torus, contiguous index ranges are whole rows (plus row
// fragments), so the minimum cross-cluster hop distance — the parallel
// runner's lookahead — stays at one hop rather than collapsing to zero
// (self-messages, the only sub-hop latency, are always intra-cluster).
func partition(n, k int) [][]int {
	base, rem := n/k, n%k
	out := make([][]int, 0, k)
	next := 0
	for c := 0; c < k; c++ {
		size := base
		if c < rem {
			size++
		}
		ids := make([]int, 0, size)
		for j := 0; j < size; j++ {
			ids = append(ids, next)
			next++
		}
		out = append(out, ids)
	}
	return out
}

// Nodes returns the node count.
func (s *System) Nodes() int { return len(s.nodes) }

// Node returns node i (tests).
func (s *System) Node(i int) *node.Node { return s.nodes[i] }

// WriteWord initializes a word in memory at its home node. Call before Run.
func (s *System) WriteWord(a memtypes.Addr, v memtypes.Word) {
	home := int(a>>memtypes.BlockShift) % len(s.nodes)
	s.nodes[home].Memory().WriteWord(a, v)
}

// ReadWord returns the current coherent value of a word: the unique dirty
// cached copy if one exists, else home memory. Intended for post-run result
// validation on a quiesced system.
func (s *System) ReadWord(a memtypes.Addr) memtypes.Word {
	wi := memtypes.WordIndex(a)
	for _, n := range s.nodes {
		if l := n.L1().Peek(a); l != nil && l.State == cache.Modified {
			return l.Data[wi]
		}
	}
	for _, n := range s.nodes {
		if l := n.L2().Peek(a); l != nil && l.State == cache.Modified {
			return l.Data[wi]
		}
	}
	home := int(a>>memtypes.BlockShift) % len(s.nodes)
	return s.nodes[home].Memory().ReadWord(a)
}

// Run executes the simulation until every node quiesces (or MaxCycles
// truncates it). The cluster event loop (DESIGN.md §6-§7) is the only code
// that advances the clock; lock-step, the cluster count, and the
// per-cycle observation hooks are parameters of it, and every setting
// produces deeply-equal Results (TestParallelBitExact, TestGoldenResults).
func (s *System) Run() Result { return s.result(s.run()) }

func debugState(nodes []*node.Node) string {
	out := ""
	for i, n := range nodes {
		c := n.Core()
		out += fmt.Sprintf("node %d: halted=%v pc=%d rob=%d sb=%d retired=%d spec=%v\n",
			i, c.Halted(), c.ArchPC(), c.ROBOccupancy(), n.SBOccupancy(),
			c.Retired, n.Engine().Speculating())
	}
	return out
}

func (s *System) result(finished bool) Result {
	r := Result{
		Cycles:   s.now,
		Finished: finished,
	}
	for _, c := range s.clusters { // ascending shard order; Merge is order-independent anyway
		r.Net.Merge(&c.shard.Contention)
	}
	var specCycles, totalCycles uint64
	for _, n := range s.nodes {
		st := n.Stats()
		r.PerNode = append(r.PerNode, st)
		r.Breakdown.Add(&st.Final)
		r.Retired += st.Retired
		specCycles += st.SpecCycles
		totalCycles += st.TotalCycles
		r.Speculations += st.Speculations
		r.Commits += st.Commits
		r.Aborts += st.Aborts
		r.CoVDeferrals += st.CoVDeferrals
		r.CoVSaves += st.CoVSaves
		r.CleaningWBs += n.CleaningWBs
		r.Prefetches += n.Prefetches
		r.L2HitFills += n.L2HitFills
		r.RemoteFills += n.RemoteFills
		r.Mispredicts += n.Core().Mispredicts
		r.Replays += n.Core().Replays
	}
	if totalCycles > 0 {
		r.SpecFraction = float64(specCycles) / float64(totalCycles)
	}
	return r
}
