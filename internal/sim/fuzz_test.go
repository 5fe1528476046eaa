package sim

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"invisifence/internal/consistency"
	ifcore "invisifence/internal/core"
	"invisifence/internal/isa"
	"invisifence/internal/memtypes"
	"invisifence/internal/stats"
)

// The random programs are also a timing oracle: they mix replays, atomics,
// fences and data-dependent branches in ways the workload grid does not, so
// every seed × engine pins its cycle count, breakdown, speculation counters
// and per-core recovery counters. Regenerate only for an intentional
// semantic change:
//
//	go test ./internal/sim -run TestRandomProgramsMatchReference -update-timing
var updateTiming = flag.Bool("update-timing", false, "rewrite testdata/random_timing.json from the current simulator")

// randomTiming is one seed × engine's pinned timing outcome.
type randomTiming struct {
	Seed         int64           `json:"seed"`
	Engine       string          `json:"engine"`
	Cycles       uint64          `json:"cycles"`
	Retired      uint64          `json:"retired"`
	Breakdown    stats.Breakdown `json:"breakdown"`
	Speculations uint64          `json:"speculations"`
	Commits      uint64          `json:"commits"`
	Aborts       uint64          `json:"aborts"`
	Replays      []uint64        `json:"replays"`     // per core
	Squashes     []uint64        `json:"squashes"`    // per core
	Mispredicts  []uint64        `json:"mispredicts"` // per core
}

func randomTimingPath() string { return filepath.Join("testdata", "random_timing.json") }

// randomProgram emits a random but terminating program: a fixed-trip outer
// loop over straight-line blocks of ALU ops, loads, stores, and atomics
// against a private memory region, plus data-dependent inner branches.
// Returned alongside is the expected architectural result, computed by the
// reference interpreter.
func randomProgram(rng *rand.Rand, tid int, region memtypes.Addr) (*isa.Program, [isa.NumRegs]memtypes.Word) {
	b := isa.NewBuilder(fmt.Sprintf("fuzz-t%d", tid))
	regionWords := int64(256)
	scratch := []isa.Reg{isa.R4, isa.R5, isa.R6, isa.R7, isa.R8, isa.R9, isa.R12, isa.R13}

	b.MovI(isa.R20, int64(region))
	b.MovI(isa.R2, 0)                    // loop counter
	b.MovI(isa.R3, int64(4+rng.Intn(6))) // trips
	for i, r := range scratch {
		b.MovI(r, int64(rng.Intn(1000)+i))
	}
	b.Label("loop")
	n := 10 + rng.Intn(30)
	for i := 0; i < n; i++ {
		rd := scratch[rng.Intn(len(scratch))]
		r1 := scratch[rng.Intn(len(scratch))]
		r2 := scratch[rng.Intn(len(scratch))]
		off := int64(rng.Intn(int(regionWords))) * memtypes.WordBytes
		switch rng.Intn(10) {
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
		}
		// Occasional data-dependent skip (exercises mispredict recovery).
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

	var regs [isa.NumRegs]memtypes.Word
	regs[isa.R1] = memtypes.Word(tid)
	return b.MustBuild(), regs
}

// TestRandomProgramsMatchReference is the end-to-end differential test:
// random programs on 4 cores with disjoint data regions must produce
// exactly the reference interpreter's architectural results — registers and
// memory — under every consistency implementation, speculative or not.
// Any mis-speculation that leaks, any lost store, any wrong forwarding
// breaks the comparison. Each run's timing is compared against
// testdata/random_timing.json as well.
func TestRandomProgramsMatchReference(t *testing.T) {
	engines := []struct {
		name  string
		model consistency.Model
		eng   ifcore.Config
	}{
		{"sc", consistency.SC, offEngine(consistency.SC)},
		{"rmo", consistency.RMO, offEngine(consistency.RMO)},
		{"invisi-sc", consistency.SC, ifcore.DefaultSelective(consistency.SC)},
		{"continuous-cov", consistency.SC, ifcore.DefaultContinuous(true)},
		{"aso", consistency.SC, ifcore.DefaultASO()},
	}
	const cores = 4
	var timings []randomTiming
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		progs := make([]*isa.Program, cores)
		regInits := make([][isa.NumRegs]memtypes.Word, cores)
		regions := make([]memtypes.Addr, cores)
		for i := 0; i < cores; i++ {
			regions[i] = memtypes.Addr(0x100000 + i*0x10000)
			progs[i], regInits[i] = randomProgram(rng, i, regions[i])
		}
		// Reference execution.
		type expect struct {
			regs [isa.NumRegs]memtypes.Word
			mem  map[memtypes.Addr]memtypes.Word
		}
		want := make([]expect, cores)
		for i := 0; i < cores; i++ {
			it := isa.NewInterp(progs[i], regInits[i], nil)
			if err := it.Run(2_000_000); err != nil {
				t.Fatalf("seed %d: reference: %v", seed, err)
			}
			want[i] = expect{regs: it.Regs, mem: it.Mem}
		}
		for _, e := range engines {
			cfg := testConfig(2, 2, e.model, e.eng)
			s := New(cfg, progs, regInits)
			res := s.Run()
			if !res.Finished {
				t.Fatalf("seed %d/%s: did not finish", seed, e.name)
			}
			for i := 0; i < cores; i++ {
				for r := 0; r < isa.NumRegs; r++ {
					got := s.Node(i).Core().ArchReg(isa.Reg(r))
					if got != want[i].regs[r] {
						t.Fatalf("seed %d/%s: core %d r%d = %d, want %d",
							seed, e.name, i, r, got, want[i].regs[r])
					}
				}
				for a, v := range want[i].mem {
					if got := s.ReadWord(a); got != v {
						t.Fatalf("seed %d/%s: core %d mem[%#x] = %d, want %d",
							seed, e.name, i, uint64(a), got, v)
					}
				}
			}
			tm := randomTiming{
				Seed: seed, Engine: e.name,
				Cycles: res.Cycles, Retired: res.Retired, Breakdown: res.Breakdown,
				Speculations: res.Speculations, Commits: res.Commits, Aborts: res.Aborts,
			}
			for i := 0; i < cores; i++ {
				c := s.Node(i).Core()
				tm.Replays = append(tm.Replays, c.Replays)
				tm.Squashes = append(tm.Squashes, c.Squashes)
				tm.Mispredicts = append(tm.Mispredicts, c.Mispredicts)
			}
			timings = append(timings, tm)
		}
	}
	checkRandomTiming(t, timings)
}

// checkRandomTiming compares got against the pinned file (or rewrites it
// under -update-timing).
func checkRandomTiming(t *testing.T, got []randomTiming) {
	t.Helper()
	if *updateTiming {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(randomTimingPath(), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(randomTimingPath())
	if err != nil {
		t.Fatalf("read timing golden (regenerate with -update-timing): %v", err)
	}
	var want []randomTiming
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("timing golden has %d runs, want %d (regenerate with -update-timing)", len(want), len(got))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("seed %d/%s: timing diverged from golden:\n got: %+v\nwant: %+v",
				got[i].Seed, got[i].Engine, got[i], want[i])
		}
	}
}
