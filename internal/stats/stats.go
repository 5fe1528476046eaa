// Package stats implements the cycle-accounting taxonomy of Figure 9
// (Busy / Other / SB full / SB drain / Violation), speculation-time
// tracking for Figure 10, and the multi-seed mean and 95% confidence
// interval reporting that stands in for SimFlex sampling (§6.1).
package stats

import (
	"fmt"
	"math"
)

// CycleClass classifies one core-cycle at retirement, matching the five
// runtime components of Figure 9.
type CycleClass uint8

const (
	// Busy: at least one instruction retired this cycle.
	Busy CycleClass = iota
	// Other: stalls unrelated to memory ordering (load misses at the ROB
	// head, empty ROB after redirects, atomic data waits).
	Other
	// SBFull: a store stalls retirement waiting for a free store buffer
	// entry.
	SBFull
	// SBDrain: retirement stalls until the store buffer drains because of
	// an ordering requirement (SC loads, TSO/RMO atomics and fences).
	SBDrain
	// Violation: cycles spent in post-retirement speculation that was
	// eventually rolled back.
	Violation
	// NumClasses is the class count.
	NumClasses
)

// String implements fmt.Stringer.
func (c CycleClass) String() string {
	switch c {
	case Busy:
		return "Busy"
	case Other:
		return "Other"
	case SBFull:
		return "SB full"
	case SBDrain:
		return "SB drain"
	case Violation:
		return "Violation"
	}
	return fmt.Sprintf("CycleClass(%d)", uint8(c))
}

// Breakdown is a per-class cycle count.
type Breakdown [NumClasses]uint64

// Total sums all classes.
func (b *Breakdown) Total() uint64 {
	var t uint64
	for _, v := range b {
		t += v
	}
	return t
}

// Add merges another breakdown into this one.
func (b *Breakdown) Add(o *Breakdown) {
	for i := range b {
		b[i] += o[i]
	}
}

// Frac returns class c's share of the total, in [0,1].
func (b *Breakdown) Frac(c CycleClass) float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return float64(b[c]) / float64(t)
}

// NodeStats accumulates one core's accounting. Cycles spent inside an
// active speculation are staged per checkpoint epoch; commit folds the
// staged cycles into the final breakdown under their original classes,
// abort reclassifies them all as Violation (the paper's definition: cycles
// of speculative work that is ultimately discarded).
type NodeStats struct {
	Final Breakdown

	// staged[epoch] holds provisional cycles for an active epoch.
	staged [8]Breakdown

	// SpecCycles counts every cycle spent with speculation active
	// (committed or not): the Figure 10 numerator.
	SpecCycles uint64
	// TotalCycles counts every accounted cycle (the Figure 10 denominator).
	TotalCycles uint64

	// Event counters.
	Speculations  uint64 // speculation episodes begun
	Commits       uint64 // epochs committed
	Aborts        uint64 // epochs aborted
	CoVDeferrals  uint64 // probes deferred by commit-on-violate
	CoVSaves      uint64 // deferrals that ended in commit rather than abort
	ForcedCommits uint64 // commits forced by eviction pressure
	Retired       uint64 // instructions retired
}

// Account records one cycle of class c. If epoch >= 0 the cycle is staged
// against that active speculation epoch; otherwise it is final.
func (s *NodeStats) Account(c CycleClass, epoch int) {
	s.AccountN(c, epoch, 1)
}

// AccountN records n identical cycles of class c at once: the idle-skip
// scheduler fast-forwards stretches in which the per-cycle classification
// is provably constant, and replays their accounting in bulk.
func (s *NodeStats) AccountN(c CycleClass, epoch int, n uint64) {
	s.TotalCycles += n
	if epoch >= 0 {
		s.SpecCycles += n
		s.staged[epoch][c] += n
		return
	}
	s.Final[c] += n
}

// CommitEpoch folds an epoch's staged cycles into the final breakdown.
func (s *NodeStats) CommitEpoch(epoch int) {
	s.Final.Add(&s.staged[epoch])
	s.staged[epoch] = Breakdown{}
	s.Commits++
}

// AbortEpoch reclassifies an epoch's staged cycles as Violation.
func (s *NodeStats) AbortEpoch(epoch int) {
	s.Final[Violation] += s.staged[epoch].Total()
	s.staged[epoch] = Breakdown{}
	s.Aborts++
}

// SpecFraction returns the Figure 10 metric: the fraction of cycles spent
// speculating.
func (s *NodeStats) SpecFraction() float64 {
	if s.TotalCycles == 0 {
		return 0
	}
	return float64(s.SpecCycles) / float64(s.TotalCycles)
}

// RunnerStats is scheduler telemetry: how much work the cycle loop actually
// did to simulate a run, filled for every run. The loop keeps one instance
// per cluster (written only by that cluster's goroutine between barriers)
// and sim.System.RunnerStats merges them in ascending cluster order, so
// the aggregate is deterministic. It is deliberately not part of a run's
// Result: every runner setting must produce deeply-equal Results, while
// the work to get there necessarily differs.
type RunnerStats struct {
	// SimulatedCycles counts cycles at which at least one of the cluster's
	// nodes ticked; NodeTicks counts individual node ticks and
	// SkippedNodeCycles the node-cycles replayed in bulk via SkipCycles
	// (the per-node local-clock win: NodeTicks + SkippedNodeCycles =
	// nodes x simulated span).
	SimulatedCycles   uint64
	NodeTicks         uint64
	SkippedNodeCycles uint64

	// Coordinator-level counters (identical across clusters; tracked once).
	Epochs         uint64 // epoch barriers executed
	IdleJumpCycles uint64 // cycles fast-forwarded by whole-system jumps at barriers
	Resolutions    uint64 // endgame finish-resolution rounds
}

// Merge adds o into r field-wise. Callers merge per-cluster instances in
// ascending cluster order for a deterministic aggregate.
func (r *RunnerStats) Merge(o *RunnerStats) {
	r.SimulatedCycles += o.SimulatedCycles
	r.NodeTicks += o.NodeTicks
	r.SkippedNodeCycles += o.SkippedNodeCycles
	r.Epochs += o.Epochs
	r.IdleJumpCycles += o.IdleJumpCycles
	r.Resolutions += o.Resolutions
}

// NetStats is the interconnect's link-contention accounting (DESIGN.md
// §10). All counters are zero when the contention model is off
// (network.Config.LinkBandwidth == 0): a latency-only run carries no
// contention telemetry, which keeps bandwidth-0 Results byte-identical to
// the pre-contention simulator.
//
// The counters are deterministic under every runner setting: every injection
// link belongs to exactly one source node, each node's sends happen at
// identical cycles in identical order under every runner (the bit-exactness
// contract), and the per-shard instances merge with order-independent
// operations (sums and a max).
type NetStats struct {
	// Messages counts sends that traversed an injection link (self-sends
	// bypass the network's links and are excluded).
	Messages uint64 `json:",omitempty"`
	// QueuedMessages is the subset of Messages that found their injection
	// link busy and waited.
	QueuedMessages uint64 `json:",omitempty"`
	// QueueDelayCycles sums every message's queuing delay: cycles between
	// the send and the start of its link transmission.
	QueueDelayCycles uint64 `json:",omitempty"`
	// LinkBusyCycles sums link-occupancy reservations (flits x
	// cycles-per-flit over all link-traversing messages).
	LinkBusyCycles uint64 `json:",omitempty"`
	// MaxQueueDepth is the largest number of messages simultaneously
	// holding or waiting on any single injection link.
	MaxQueueDepth uint64 `json:",omitempty"`
}

// Merge folds o into n: counters sum, MaxQueueDepth takes the maximum.
// Both operations are order-independent, so merging per-shard instances in
// any order yields the serial network's aggregate exactly.
func (n *NetStats) Merge(o *NetStats) {
	n.Messages += o.Messages
	n.QueuedMessages += o.QueuedMessages
	n.QueueDelayCycles += o.QueueDelayCycles
	n.LinkBusyCycles += o.LinkBusyCycles
	if o.MaxQueueDepth > n.MaxQueueDepth {
		n.MaxQueueDepth = o.MaxQueueDepth
	}
}

// QueueDelayPerMsg returns the mean queuing delay in cycles per
// link-traversing message (0 when the contention model was off).
func (n NetStats) QueueDelayPerMsg() float64 {
	if n.Messages == 0 {
		return 0
	}
	return float64(n.QueueDelayCycles) / float64(n.Messages)
}

// Summary is the mean and 95% confidence half-width of a set of samples
// (one per seed), the stand-in for SimFlex sampling error bars.
type Summary struct {
	Mean     float64
	HalfCI95 float64
	N        int
}

// Summarize computes the summary of samples using a normal approximation
// (1.96 sigma / sqrt(n)); with the small seed counts used here this is the
// intent of the paper's error bars, not a strict t-interval.
func Summarize(samples []float64) Summary {
	n := len(samples)
	if n == 0 {
		return Summary{}
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	mean := sum / float64(n)
	if n == 1 {
		return Summary{Mean: mean, N: 1}
	}
	var ss float64
	for _, v := range samples {
		d := v - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(n-1))
	return Summary{Mean: mean, HalfCI95: 1.96 * sd / math.Sqrt(float64(n)), N: n}
}

func (s Summary) String() string {
	if s.N <= 1 {
		return fmt.Sprintf("%.3f", s.Mean)
	}
	return fmt.Sprintf("%.3f ±%.3f", s.Mean, s.HalfCI95)
}
