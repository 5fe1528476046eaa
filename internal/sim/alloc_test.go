package sim

import (
	"testing"

	"invisifence/internal/consistency"
	ifcore "invisifence/internal/core"
	"invisifence/internal/isa"
)

// stepSystem drives the system's own cycle loop for a bounded window: it
// moves the MaxCycles truncation point forward by cycles and runs the loop
// to it, without building a Result. The loop resumes where the previous
// window stopped, so the test measures a window of steady-state cycles of
// exactly the code Run executes.
func stepSystem(s *System, cycles int) {
	s.cfg.MaxCycles = s.now + uint64(cycles)
	if s.run() {
		panic("stepSystem: the programs finished inside the window")
	}
}

// TestSteadyStateCycleAllocFree pins the devirtualized message path and the
// pooled directory/node/store-buffer state: after warm-up, simulating more
// cycles of a contended multi-node workload must not allocate at all — for
// the conventional SC configuration and for INVISIFENCE-SELECTIVE-SC, whose
// speculation paths (coalescing-buffer churn, cleaning writebacks, probe
// parking, abort/recovery) used to dominate the heap profile. A regression
// here means some per-message or per-transaction state went back on the
// heap.
func TestSteadyStateCycleAllocFree(t *testing.T) {
	cases := []struct {
		name  string
		model consistency.Model
		eng   ifcore.Config
	}{
		{"sc", consistency.SC, offEngine(consistency.SC)},
		{"invisi-sc", consistency.SC, ifcore.DefaultSelective(consistency.SC)},
	}
	for _, c := range cases {
		for _, lockstep := range []bool{false, true} {
			name := c.name
			if lockstep {
				name += "-lockstep" // every cycle exercises the full path
			}
			t.Run(name, func(t *testing.T) {
				cfg := testConfig(2, 2, c.model, c.eng)
				cfg.DisableIdleSkip = lockstep
				nnodes := cfg.Net.Width * cfg.Net.Height
				progs := make([]*isa.Program, nnodes)
				for i := range progs {
					// Iterations far beyond the measured window so the cores
					// never halt inside it.
					progs[i] = contendedLoopProgram(i, nnodes, 1_000_000)
				}
				s := New(cfg, progs, nil)
				// Warm-up: reach every structure's high-water mark (queue and
				// pool capacities, map sizes, lazily materialized cache sets).
				stepSystem(s, 30_000)
				avg := testing.AllocsPerRun(20, func() {
					stepSystem(s, 250)
				})
				if avg != 0 {
					t.Fatalf("steady-state cycle stepping allocates: %.2f allocs per 250-cycle window", avg)
				}
			})
		}
	}
}

// contendedLoopProgram is contendedProgram with a configurable iteration
// count: a spin lock, shared counters, store bursts, and neighbour reads.
func contendedLoopProgram(tid, threads int, iters int64) *isa.Program {
	const (
		lockAddr  = 0x10000
		countAddr = 0x10040
		slotBase  = 0x20000
		privBase  = 0x40000
	)
	b := isa.NewBuilder("contend-loop")
	if d := int64(tid * 7); d > 0 {
		b.Delay(d)
	}
	b.MovI(isa.R1, lockAddr)
	b.MovI(isa.R2, countAddr)
	b.MovI(isa.R3, slotBase+int64(tid)*64)
	b.MovI(isa.R4, privBase+int64(tid)*4096)
	b.MovI(isa.R5, 0)
	b.MovI(isa.R6, iters)
	b.Label("iter")
	b.Label("spin")
	b.MovI(isa.R7, 0)
	b.MovI(isa.R8, 1)
	b.Cas(isa.R9, isa.R1, 0, isa.R7, isa.R8)
	b.Bne(isa.R9, isa.R7, "spin")
	b.Ld(isa.R10, isa.R2, 0)
	b.AddI(isa.R10, isa.R10, 1)
	b.St(isa.R2, 0, isa.R10)
	b.St(isa.R3, 0, isa.R10)
	b.Fence()
	b.MovI(isa.R7, 0)
	b.St(isa.R1, 0, isa.R7)
	b.MovI(isa.R11, 0)
	b.MovI(isa.R12, 8)
	b.Label("burst")
	b.ShlI(isa.R13, isa.R11, 6)
	b.Add(isa.R13, isa.R13, isa.R4)
	b.St(isa.R13, 0, isa.R11)
	b.AddI(isa.R11, isa.R11, 1)
	b.Bltu(isa.R11, isa.R12, "burst")
	b.MovI(isa.R14, slotBase+int64((tid+1)%threads)*64)
	b.Ld(isa.R15, isa.R14, 0)
	b.MovI(isa.R8, 1)
	b.Fadd(isa.R9, isa.R2, 8, isa.R8)
	b.AddI(isa.R5, isa.R5, 1)
	b.Bltu(isa.R5, isa.R6, "iter")
	b.Halt()
	return b.MustBuild()
}
