package sim

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"invisifence/internal/cache"
	"invisifence/internal/consistency"
	ifcore "invisifence/internal/core"
	"invisifence/internal/cpu"
	"invisifence/internal/isa"
	"invisifence/internal/memctrl"
	"invisifence/internal/memtypes"
	"invisifence/internal/network"
	"invisifence/internal/stats"
	"invisifence/internal/workload"
)

// The late-hint check for whole nodes. The idle-skip scheduler trusts each
// node's NextEvent to name the earliest cycle the node can change state
// without a network delivery; a late hint skips a cycle that would have
// done work, which elsewhere surfaces only as a distant end-result diff.
// Here every node ticks every cycle (lock-step), and any change of a node's
// fingerprint at a cycle its previous hint called quiet, with nothing
// delivered to its inbox, fails on the spot with a state dump. The cycle
// accounting such a cycle adds must be exactly the one SkipCycles would
// replay.

// hintVariants are the node configurations the checker runs, by the names
// of the experiment variants they stand for.
var hintVariants = []struct {
	name  string
	model consistency.Model
	eng   ifcore.Config
}{
	{"sc", consistency.SC, offEngine(consistency.SC)},
	{"tso", consistency.TSO, offEngine(consistency.TSO)},
	{"rmo", consistency.RMO, offEngine(consistency.RMO)},
	{"rc", consistency.RC, offEngine(consistency.RC)},
	{"invisi-sc", consistency.SC, ifcore.DefaultSelective(consistency.SC)},
	{"invisi-tso", consistency.TSO, ifcore.DefaultSelective(consistency.TSO)},
	{"invisi-rmo", consistency.RMO, ifcore.DefaultSelective(consistency.RMO)},
	{"invisi-rc", consistency.RC, ifcore.DefaultSelective(consistency.RC)},
	{"louvre-rc", consistency.RC, ifcore.DefaultLouvre()},
	{"continuous", consistency.SC, ifcore.DefaultContinuous(false)},
	{"continuous-cov", consistency.SC, ifcore.DefaultContinuous(true)},
	{"aso", consistency.SC, ifcore.DefaultASO()},
}

// hintScale sizes the paper workloads for the checker.
const hintScale = 0.005

// paperConfig is the Figure 6 machine the experiments run on (a 4x4
// torus at 100 cycles per hop, 64 KB L1s, 1 MB L2s).
func paperConfig(w, h int, model consistency.Model, eng ifcore.Config) Config {
	cfg := testConfig(w, h, model, eng)
	cfg.Net.HopLatency = 100
	cfg.Node.L1 = cache.Config{SizeBytes: 64 << 10, Ways: 2, HitLatency: 2, Name: "L1"}
	cfg.Node.L2 = cache.Config{SizeBytes: 1 << 20, Ways: 8, HitLatency: 25, Name: "L2"}
	cfg.Node.Memory = memctrl.Config{AccessLatency: 160, Banks: 64, BankBusy: 8}
	cfg.Node.MSHRs = 32
	cfg.Node.StorePrefetchDepth = 8
	return cfg
}

// hintRun is one checker run. workload names the programs: the sim
// fuzzer's random shape (""), a hand-built program of this package
// ("contended", "contended-nosnoop", "atomic-pressure" and "corner" on the
// 2x2 test machine, "cleaning-abort" on a 2x2 machine with the Figure 6
// latencies), or a paper workload at hintScale on the Figure 6 machine.
type hintRun struct {
	workload string
	variant  int
	seed     int64
}

func (r hintRun) String() string {
	wl := r.workload
	if wl == "" {
		wl = "random"
	}
	return fmt.Sprintf("%s/%s/seed%d", wl, hintVariants[r.variant].name, r.seed)
}

// hintSlack is what a checker run measured: its length, the slack of its
// hints, and the waits of the retirement plan.
type hintSlack struct {
	cycles         uint64
	hinted, wasted uint64 // node ticks a hint asked for; those that changed nothing
	quiet          uint64 // node-cycles a hint called quiet
	// waits counts, per node-cycle, the wait the head's next retirement
	// attempt is planned to make (node.HeadWait).
	waits map[string]uint64
}

// classOf is the Figure 9 class of a cycle that retires nothing.
func classOf(why cpu.StallReason) stats.CycleClass {
	switch why {
	case cpu.StallSBFull:
		return stats.SBFull
	case cpu.StallSBDrain:
		return stats.SBDrain
	}
	return stats.Other
}

// checkNodeHints runs r lock-step and fails on the first node state change
// at a cycle the node's previous hint called quiet.
func checkNodeHints(t *testing.T, r hintRun) hintSlack {
	t.Helper()
	v := hintVariants[r.variant]
	cfg := testConfig(2, 2, v.model, v.eng)
	progs := make([]*isa.Program, 4)
	regs := make([][isa.NumRegs]memtypes.Word, 4)
	var memInit map[memtypes.Addr]memtypes.Word
	rng := rand.New(rand.NewSource(r.seed))
	for i := range progs {
		switch r.workload {
		case "":
			progs[i], regs[i] = randomProgram(rng, i, memtypes.Addr(0x100000+i*0x10000))
		case "contended", "contended-nosnoop":
			progs[i] = programFor(v.model, i, len(progs))
		case "atomic-pressure":
			progs[i] = specAtomicPressureProgram(i, len(progs))
		case "corner":
			progs[i] = cornerProgram(i)
		case "cleaning-abort":
			cfg = paperConfig(2, 2, v.model, v.eng)
			progs[i] = cleaningAbortProgram(i, int(r.seed%80), int(r.seed/80%80))
		}
	}
	// Without load-queue snooping, a load whose line leaves the L1 before
	// it retires is caught at retirement (the plan's replay).
	cfg.Node.SnoopLQ = r.workload != "contended-nosnoop"
	if slices.Contains(workload.Names(), r.workload) {
		cfg = paperConfig(4, 4, v.model, v.eng)
		p := workload.Params{Cores: cfg.Net.Width * cfg.Net.Height, Model: v.model, Seed: r.seed, Scale: hintScale}
		wl := workload.MustGet(r.workload, p)
		progs, regs, memInit = wl.Programs, wl.RegInit, wl.MemInit
	}
	s := New(cfg, progs, regs)
	for a, w := range memInit {
		s.WriteWord(a, w)
	}
	shard := s.clusters[0].shard
	type seen struct {
		fp     []uint64
		st     stats.NodeStats
		halted bool // ever halted
		why    cpu.StallReason
		epoch  int
		hint   uint64
	}
	prev := make([]seen, len(progs))
	slack := hintSlack{waits: map[string]uint64{}}
	var fp []uint64
	for now := uint64(1); ; now++ {
		if now > 3_000_000 {
			t.Fatalf("%v: did not finish", r)
		}
		shard.Tick(now)
		finished := true
		for i, n := range s.nodes {
			delivered := shard.InboxLen(network.NodeID(i)) > 0
			n.Tick(now)
			fp = n.Fingerprint(fp[:0])
			st := *n.Stats()
			p := &prev[i]
			want := p.st
			if !p.halted {
				want.AccountN(classOf(p.why), p.epoch, 1)
			}
			same := slices.Equal(fp, p.fp) && st == want
			switch {
			case delivered:
			case now < p.hint:
				slack.quiet++
				if !same {
					t.Fatalf("%v: node %d changed state at cycle %d, before its hint %d: %s\nhead %+v\n%s",
						r, i, now, p.hint, fpDiff(p.fp, fp, &want, &st), n.Core().HeadState(), n.DebugString())
				}
			case same:
				slack.hinted++
				slack.wasted++
			default:
				slack.hinted++
			}
			p.fp = append(p.fp[:0], fp...)
			p.st = st
			// The node stops its accounting at the first halt, also one
			// that an abort later rolls back.
			p.halted = p.halted || n.Core().Halted()
			p.why = n.Core().HeadStall
			p.epoch = n.Engine().YoungestEpoch()
			p.hint = n.NextEvent()
			if w := n.HeadWait(); w != "" {
				slack.waits[w]++
			}
			if p.hint <= now {
				t.Fatalf("%v: node %d hint %d at cycle %d is not in the future", r, i, p.hint, now)
			}
			finished = finished && n.Finished()
		}
		if finished {
			slack.cycles = now
			return slack
		}
	}
}

// fpDiff names the first difference between two node observations.
func fpDiff(was, is []uint64, wantSt, st *stats.NodeStats) string {
	for i := range min(len(was), len(is)) {
		if was[i] != is[i] {
			return fmt.Sprintf("fingerprint word %d %d -> %d", i, was[i], is[i])
		}
	}
	if len(was) != len(is) {
		return fmt.Sprintf("fingerprint length %d -> %d", len(was), len(is))
	}
	return fmt.Sprintf("stats %+v, want %+v", *st, *wantSt)
}

// hintWorkloads indexes the fuzz target's workload argument.
var hintWorkloads = append([]string{"", "contended", "contended-nosnoop", "atomic-pressure", "corner", "cleaning-abort"},
	workload.Names()...)

// hintSeeds are the checker's tier-1 runs: random programs and the corner
// program under every variant, the contention programs, one cleaning race,
// and small paper-workload cells covering the conventional models, the
// Invisi_* variants, ASO, continuous and the RC family. Together they reach
// every wait of the retirement plan (TestRetirePlanWaitCoverage).
func hintSeeds() []hintRun {
	var runs []hintRun
	for v := range hintVariants {
		runs = append(runs, hintRun{variant: v, seed: 28}, hintRun{workload: "corner", variant: v})
	}
	cells := []struct{ workload, variant string }{
		{"contended", "sc"}, {"contended", "tso"}, {"contended", "rmo"}, {"contended", "rc"},
		{"contended", "invisi-sc"}, {"contended", "invisi-rc"}, {"contended", "louvre-rc"},
		{"contended", "aso"}, {"contended-nosnoop", "invisi-sc"}, {"atomic-pressure", "invisi-sc"},
		{"apache", "sc"}, {"zeus", "tso"}, {"apache", "rmo"}, {"apache", "rc"},
		{"apache", "invisi-sc"}, {"oltp-oracle", "invisi-tso"}, {"zeus", "invisi-rmo"},
		{"oltp-db2", "invisi-rc"}, {"apache", "louvre-rc"}, {"zeus", "continuous"},
		{"zeus", "continuous-cov"}, {"oltp-oracle", "aso"},
	}
	for _, c := range cells {
		runs = append(runs, hintRun{workload: c.workload, variant: variantIndex(c.variant), seed: 1})
	}
	// Thread 0's fence after 52 muls, thread 1's store after 6: the abort
	// lands inside the cleaning window.
	return append(runs, hintRun{workload: "cleaning-abort", variant: variantIndex("invisi-rmo"), seed: 6*80 + 52})
}

func variantIndex(name string) int {
	for v, hv := range hintVariants {
		if hv.name == name {
			return v
		}
	}
	panic("unknown variant " + name)
}

func FuzzNodeNextEvent(f *testing.F) {
	for _, r := range hintSeeds() {
		f.Add(r.seed, uint8(r.variant), uint8(slices.Index(hintWorkloads, r.workload)))
	}
	f.Fuzz(func(t *testing.T, seed int64, variant, wl uint8) {
		r := hintRun{
			workload: hintWorkloads[int(wl)%len(hintWorkloads)],
			variant:  int(variant) % len(hintVariants),
			seed:     seed,
		}
		sl := checkNodeHints(t, r)
		t.Logf("%v: hinted ticks %d, wasted %d; quiet node-cycles %d", r, sl.hinted, sl.wasted, sl.quiet)
	})
}

// planWaits are the waits of the retirement plan (node.HeadWait) that the
// checker's seeds must reach.
var planWaits = []string{
	"load-drain", "fence-drain", "fifo-full", "coal-full", "store-drain",
	"release-drain", "atomic-drain", "atomic-own", "atomic-cleaning",
	"atomic-sb", "spec-ssb-full", "spec-sb-full", "spec-atomic-fill",
	"spec-atomic-store",
}

// hintOutcome is one checker seed's pinned outcome: its length and how
// often each wait of the retirement plan occurred (per node-cycle).
type hintOutcome struct {
	Run    string            `json:"run"`
	Cycles uint64            `json:"cycles"`
	Waits  map[string]uint64 `json:"waits"`
}

// TestRetirePlanWaitCoverage runs the checker's seeds and fails unless every
// wait of the retirement plan occurs in them, so that each is checked to
// change nothing. Each seed's outcome is pinned in testdata/hint_outcomes.json
// (regenerated by -update-timing), so an act of the plan that turns into a
// wait fails here even where no end result is pinned.
func TestRetirePlanWaitCoverage(t *testing.T) {
	seeds := hintSeeds()
	got := make([]hintOutcome, len(seeds))
	t.Run("seeds", func(t *testing.T) {
		for i, r := range seeds {
			t.Run(r.String(), func(t *testing.T) {
				t.Parallel()
				sl := checkNodeHints(t, r)
				got[i] = hintOutcome{Run: r.String(), Cycles: sl.cycles, Waits: sl.waits}
			})
		}
	})
	total := map[string]uint64{}
	for _, o := range got {
		for w, k := range o.Waits {
			total[w] += k
		}
	}
	for _, w := range planWaits {
		if total[w] == 0 {
			t.Errorf("no seed reaches the %s wait", w)
		}
	}
	t.Logf("node-cycles per wait: %v", total)
	path := filepath.Join("testdata", "hint_outcomes.json")
	if *updateTiming {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read outcome golden (regenerate with -update-timing): %v", err)
	}
	var want []hintOutcome
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		for i := range min(len(got), len(want)) {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("outcome diverged from golden:\n got: %+v\nwant: %+v", got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Errorf("%d outcomes, golden has %d (regenerate with -update-timing)", len(got), len(want))
		}
	}
}

// cornerProgram steers a thread into two rare retirement waits. Three
// stores whose blocks sit in the L2 only retire together, so their three L2
// refills land in one cycle; the buffer drains two entries per cycle, and
// under RMO the atomic behind them finds its line writable with the third
// entry still buffered. Then a stream of stores to distinct cold blocks
// fills any store buffer, the 64-entry FIFO included.
func cornerProgram(tid int) *isa.Program {
	const l1Stride = 16 << 10 / 2 // testConfig's L1 way size: same-set stride
	b := isa.NewBuilder("corner")
	b.MovI(isa.R1, int64(tid+1))
	b.MovI(isa.R20, int64(0x60000+tid*0x10000))
	for k := int64(0); k < 3; k++ {
		b.St(isa.R20, k*memtypes.BlockBytes, isa.R1)
	}
	b.Delay(300)
	for k := int64(0); k < 3; k++ { // evict the three blocks to the L2
		b.Ld(isa.R5, isa.R20, k*memtypes.BlockBytes+l1Stride)
		b.Ld(isa.R5, isa.R20, k*memtypes.BlockBytes+2*l1Stride)
	}
	b.Delay(300)
	for k := int64(0); k < 3; k++ {
		b.St(isa.R20, k*memtypes.BlockBytes, isa.R1)
	}
	b.Fadd(isa.R6, isa.R20, 2*memtypes.BlockBytes, isa.R1)
	b.MovI(isa.R22, int64(0x200000+tid*0x10000))
	for k := int64(0); k < 72; k++ {
		b.St(isa.R22, k*memtypes.BlockBytes, isa.R1)
	}
	b.Halt()
	return b.MustBuild()
}

// cleaningAbortProgram: thread 0 speculates at a fence (a store miss is
// buffered), and its atomic on a non-speculatively dirty block starts a
// cleaning writeback; thread 1's store to a block thread 0 read
// speculatively aborts it, and thread 0 re-executes the atomic
// unspeculated while the cleaning is still under way. Mul chains (3 cycles
// each) place the fence (n) and the attacking store (m).
func cleaningAbortProgram(tid, n, m int) *isa.Program {
	b := isa.NewBuilder("cleaning-abort")
	b.MovI(isa.R1, int64(tid+1))
	b.MovI(isa.R21, int64(0x60000+tid*0x10000))
	b.MovI(isa.R23, 0x300000)
	b.MovI(isa.R24, int64(0x200000+tid*0x4000))
	switch tid {
	case 0:
		b.Ld(isa.R5, isa.R23, 0)
		b.Fadd(isa.R6, isa.R21, 0, isa.R1)
		b.St(isa.R24, 0, isa.R1)
		b.Xor(isa.R9, isa.R6, isa.R6)
		for k := 0; k < n; k++ {
			b.Mul(isa.R9, isa.R9, isa.R1)
		}
		b.Fence()
		b.Fadd(isa.R6, isa.R21, 0, isa.R1)
		b.Ld(isa.R5, isa.R23, 0)
	case 1:
		b.Fadd(isa.R6, isa.R21, 0, isa.R1)
		b.Xor(isa.R9, isa.R6, isa.R6)
		for k := 0; k < m; k++ {
			b.Mul(isa.R9, isa.R9, isa.R1)
		}
		b.Add(isa.R25, isa.R23, isa.R9)
		b.St(isa.R25, 0, isa.R1)
	}
	b.Halt()
	return b.MustBuild()
}
