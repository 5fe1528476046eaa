// Package invisifence is a from-scratch Go reproduction of
//
//	Blundell, Martin, Wenisch. "InvisiFence: Performance-Transparent
//	Memory Ordering in Conventional Multiprocessors." ISCA 2009.
//
// It bundles a deterministic cycle-level 16-node multiprocessor simulator
// (out-of-order cores, private L1/L2, directory MESI coherence over a 2D
// torus), conventional implementations of SC, TSO, and RMO, the paper's
// InvisiFence selective and continuous speculation mechanisms (including
// commit-on-violate), an ASO-style baseline, proxies for the paper's seven
// workloads, and experiment drivers that regenerate every figure in the
// paper's evaluation.
//
// Quick start:
//
//	cfg := invisifence.DefaultConfig()
//	cfg.Workload = "apache"
//	cfg.Variant = invisifence.SelectiveVariant(invisifence.SC)
//	res, err := invisifence.Run(cfg)
//
// Grid experiments go through [Sweep] (or cmd/sweep), which expands a
// declarative [SweepSpec] over a bounded worker pool and persists every
// result to a content-addressed cache, so overlapping experiments across
// processes and tools simulate each configuration exactly once.
//
// See README.md for the repository layout, DESIGN.md for the system
// inventory, and EXPERIMENTS.md for measured results against the paper.
package invisifence

import (
	"fmt"

	"invisifence/internal/cache"
	"invisifence/internal/consistency"
	ifcore "invisifence/internal/core"
	"invisifence/internal/cpu"
	"invisifence/internal/memctrl"
	"invisifence/internal/memtypes"
	"invisifence/internal/network"
	"invisifence/internal/node"
	"invisifence/internal/sim"
	"invisifence/internal/stats"
	"invisifence/internal/workload"
)

// Model is a memory consistency model.
type Model = consistency.Model

// The three models of §2, plus release consistency (RC).
const (
	SC  = consistency.SC
	TSO = consistency.TSO
	RMO = consistency.RMO
	RC  = consistency.RC
)

// Variant names one consistency implementation: a model plus a speculation
// policy and its store buffer sizing.
type Variant struct {
	// Name is the label used in figures ("sc", "Invisi_rmo", ...).
	Name string
	// Model is the consistency model the implementation enforces.
	Model Model
	// Engine configures post-retirement speculation (Mode Off =
	// conventional).
	Engine ifcore.Config
	// SBCapacity sizes the store buffer per Figure 6 (entries).
	SBCapacity int
}

// ConventionalVariant returns the conventional implementation of a model:
// word-FIFO store buffer for SC/TSO (64 entries), block-coalescing for RMO
// (8 entries).
func ConventionalVariant(m Model) Variant {
	cap := 64
	if consistency.RulesFor(m).SB == consistency.SBCoalescingBlock {
		cap = 8
	}
	return Variant{
		Name:       m.String(),
		Model:      m,
		Engine:     ifcore.Config{Mode: ifcore.ModeOff, Model: m},
		SBCapacity: cap,
	}
}

// SelectiveVariant returns INVISIFENCE-SELECTIVE for a model: a single
// checkpoint and an 8-entry coalescing buffer (the paper's
// highest-performing configuration).
func SelectiveVariant(m Model) Variant {
	return Variant{
		Name:       "Invisi_" + m.String(),
		Model:      m,
		Engine:     ifcore.DefaultSelective(m),
		SBCapacity: 8,
	}
}

// Selective2CkptVariant returns the two-checkpoint selective variant of
// §6.4 (32-entry buffer per Figure 6).
func Selective2CkptVariant(m Model) Variant {
	eng := ifcore.DefaultSelective(m)
	eng.MaxCheckpoints = 2
	return Variant{
		Name:       "Invisi_" + m.String() + "-2ckpt",
		Model:      m,
		Engine:     eng,
		SBCapacity: 32,
	}
}

// ContinuousVariant returns INVISIFENCE-CONTINUOUS (§4.2), optionally with
// the commit-on-violate policy (§3.2, 4000-cycle timeout).
func ContinuousVariant(cov bool) Variant {
	name := "Invisi_cont"
	if cov {
		name = "Invisi_cont_CoV"
	}
	return Variant{
		Name:       name,
		Model:      SC,
		Engine:     ifcore.DefaultContinuous(cov),
		SBCapacity: 32,
	}
}

// ASOVariant returns the ASO-style baseline (§2.2/§6.4) enforcing SC.
func ASOVariant() Variant {
	return Variant{
		Name:       "ASO_sc",
		Model:      SC,
		Engine:     ifcore.DefaultASO(),
		SBCapacity: 32,
	}
}

// LouvreVariant returns the Louvre-style versioned-ordering baseline over
// release consistency: version epochs open only at release boundaries
// (two in flight: current + draining, hence the 32-entry buffer), with
// squash-on-version-conflict instead of general speculation.
func LouvreVariant() Variant {
	return Variant{
		Name:       "Louvre_rc",
		Model:      RC,
		Engine:     ifcore.DefaultLouvre(),
		SBCapacity: 32,
	}
}

// MachineConfig is the Figure 6 system model. Capacities are scaled to the
// proxy workloads' footprints (see DESIGN.md §1); latencies follow the
// paper at 4 GHz.
type MachineConfig struct {
	Width, Height int
	HopLatency    uint64 // cycles per torus hop (25 ns = 100)
	LocalLatency  uint64
	Jitter        uint64 // interleaving exploration (0 in experiments)
	// LinkBandwidth enables the per-link contention model: cycles per flit
	// on each torus injection link (messages queue at busy links, DESIGN.md
	// §10). 0 — the calibrated Figure 6 default — keeps the latency-only
	// torus, bit-exact with the pre-contention simulator; the omitempty tag
	// keeps bandwidth-0 cache keys and golden results byte-stable.
	LinkBandwidth uint64 `json:"LinkBandwidth,omitempty"`

	L1Bytes, L1Ways int
	L1Latency       uint64
	L2Bytes, L2Ways int
	L2Latency       uint64

	MemLatency uint64
	MemBanks   int
	BankBusy   uint64

	MSHRs              int
	StorePrefetchDepth int
	MsgsPerCycle       int

	Core cpu.Config
}

// DefaultMachine returns the Figure 6 configuration (L2 scaled from 8 MB
// to 1 MB per node to match the proxy working sets).
func DefaultMachine() MachineConfig {
	return MachineConfig{
		Width: 4, Height: 4,
		HopLatency:   100,
		LocalLatency: 1,
		L1Bytes:      64 << 10, L1Ways: 2, L1Latency: 2,
		L2Bytes: 1 << 20, L2Ways: 8, L2Latency: 25,
		MemLatency: 160, MemBanks: 64, BankBusy: 8,
		MSHRs:              32,
		StorePrefetchDepth: 8,
		MsgsPerCycle:       8,
		Core:               cpu.DefaultConfig(),
	}
}

// Config is one simulation run.
type Config struct {
	Machine  MachineConfig
	Variant  Variant
	Workload string
	Seed     int64
	// Scale multiplies workload size (1.0 = calibrated default).
	Scale float64
	// MaxCycles bounds the run (0 = the runner's generous default).
	MaxCycles uint64
	// DisableIdleSkip runs the cycle loop lock-step: every node ticks every
	// cycle instead of only at its event horizons. Simulated results are
	// bit-identical either way (enforced by the golden tests), so the flag
	// is excluded from cache keys; it exists for cmd/bench speedup
	// measurements and as a diagnostic bisect knob.
	DisableIdleSkip bool `json:"-"`
	// Clusters >= 2 splits one simulation's nodes into that many clusters,
	// each advanced by its own goroutine over its own network shard and
	// synchronized at epoch barriers (DESIGN.md §7); by default one shard
	// owns every node and the run stays on the caller's goroutine. Results
	// are bit-identical at every setting (TestParallelBitExact), so — like
	// DisableIdleSkip — the knob is excluded from cache keys. More clusters
	// than nodes, or network jitter, fall back to one cluster.
	Clusters int `json:"-"`
}

// DefaultConfig returns a 16-core run of apache under conventional SC.
func DefaultConfig() Config {
	return Config{
		Machine:  DefaultMachine(),
		Variant:  ConventionalVariant(SC),
		Workload: "apache",
		Seed:     1,
		Scale:    1.0,
	}
}

// Result is a completed run.
type Result struct {
	Config    Config
	Cycles    uint64
	Retired   uint64
	Breakdown stats.Breakdown
	// SpecFraction is the share of core-cycles spent inside speculation
	// (Figure 10).
	SpecFraction float64
	// Counters aggregates interesting events.
	Speculations, Commits, Aborts uint64
	CoVDeferrals, CoVSaves        uint64
	CleaningWBs                   uint64
	// NetStats is the link-contention telemetry (queuing delay, link busy
	// cycles, queue depths), embedded so its fields — every one zero, and
	// omitted from the JSON encoding, unless Machine.LinkBandwidth was
	// non-zero — marshal flat, keeping bandwidth-0 golden results and
	// cached entries byte-stable.
	stats.NetStats
	// Validated reports that the workload's end-to-end data invariant held.
	Validated bool
}

// Workloads lists the seven paper workloads in Figure 1/7 order.
func Workloads() []string { return workload.Names() }

// Run executes one configuration and validates the workload invariant.
func Run(cfg Config) (Result, error) { return RunBounded(cfg, 0) }

// RunBounded is Run with an external cycle backstop: the simulation is
// bounded by the smaller of cfg.MaxCycles (defaulted when zero) and
// backstop (ignored when zero). The bound never enters cfg — MaxCycles
// participates in cache keys, so a service-side backstop must cap the
// run without changing what run it is.
func RunBounded(cfg Config, backstop uint64) (Result, error) {
	cores := cfg.Machine.Width * cfg.Machine.Height
	wl, err := workload.Get(cfg.Workload, workload.Params{
		Cores: cores,
		Model: cfg.Variant.Model,
		Seed:  cfg.Seed,
		Scale: cfg.Scale,
	})
	if err != nil {
		return Result{}, err
	}
	maxCycles := cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = 500_000_000
	}
	if backstop != 0 && backstop < maxCycles {
		maxCycles = backstop
	}
	scfg := sim.Config{
		Net: network.Config{
			Width: cfg.Machine.Width, Height: cfg.Machine.Height,
			HopLatency: cfg.Machine.HopLatency, LocalLatency: cfg.Machine.LocalLatency,
			Jitter: cfg.Machine.Jitter, Seed: cfg.Seed,
			LinkBandwidth: cfg.Machine.LinkBandwidth,
		},
		Node: node.Config{
			Model:              cfg.Variant.Model,
			Engine:             cfg.Variant.Engine,
			Core:               cfg.Machine.Core,
			L1:                 cache.Config{SizeBytes: cfg.Machine.L1Bytes, Ways: cfg.Machine.L1Ways, HitLatency: cfg.Machine.L1Latency, Name: "L1"},
			L2:                 cache.Config{SizeBytes: cfg.Machine.L2Bytes, Ways: cfg.Machine.L2Ways, HitLatency: cfg.Machine.L2Latency, Name: "L2"},
			Memory:             memctrl.Config{AccessLatency: cfg.Machine.MemLatency, Banks: cfg.Machine.MemBanks, BankBusy: cfg.Machine.BankBusy},
			MSHRs:              cfg.Machine.MSHRs,
			SBCapacity:         cfg.Variant.SBCapacity,
			StorePrefetchDepth: cfg.Machine.StorePrefetchDepth,
			MsgsPerCycle:       cfg.Machine.MsgsPerCycle,
			SnoopLQ:            true,
			FillHoldCycles:     8,
		},
		MaxCycles:       maxCycles,
		WatchdogCycles:  2_000_000,
		DisableIdleSkip: cfg.DisableIdleSkip,
		Clusters:        cfg.Clusters,
	}
	s := sim.New(scfg, wl.Programs, wl.RegInit)
	for a, v := range wl.MemInit {
		s.WriteWord(a, v)
	}
	r := s.Run()
	if !r.Finished {
		return Result{}, fmt.Errorf("invisifence: %s/%s did not finish within %d cycles",
			cfg.Workload, cfg.Variant.Name, maxCycles)
	}
	if err := wl.Validate(func(a memtypes.Addr) memtypes.Word { return s.ReadWord(a) }); err != nil {
		return Result{}, fmt.Errorf("invisifence: %s/%s invariant violated: %w",
			cfg.Workload, cfg.Variant.Name, err)
	}
	return Result{
		Config:       cfg,
		Cycles:       r.Cycles,
		Retired:      r.Retired,
		Breakdown:    r.Breakdown,
		SpecFraction: r.SpecFraction,
		Speculations: r.Speculations,
		Commits:      r.Commits,
		Aborts:       r.Aborts,
		CoVDeferrals: r.CoVDeferrals,
		CoVSaves:     r.CoVSaves,
		CleaningWBs:  r.CleaningWBs,
		NetStats:     r.Net,
		Validated:    true,
	}, nil
}
