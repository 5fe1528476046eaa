package sim

import (
	"reflect"
	"testing"

	"invisifence/internal/consistency"
	"invisifence/internal/isa"
	"invisifence/internal/memtypes"
)

// contendedProgram builds a program that hammers shared state from every
// angle the consistency machinery cares about: a spin lock (CAS + fences),
// fetch-adds on a shared counter, private-array stores that fill the store
// buffer, and loads of the other threads' slots.
func contendedProgram(tid, threads int) *isa.Program {
	const (
		lockAddr  = 0x10000
		countAddr = 0x10040
		slotBase  = 0x20000
		privBase  = 0x40000
	)
	b := isa.NewBuilder("contend")
	if d := int64(tid * 7); d > 0 {
		b.Delay(d)
	}
	b.MovI(isa.R1, lockAddr)
	b.MovI(isa.R2, countAddr)
	b.MovI(isa.R3, slotBase+int64(tid)*memtypes.BlockBytes)
	b.MovI(isa.R4, privBase+int64(tid)*4096)
	b.MovI(isa.R5, 0) // loop counter
	b.MovI(isa.R6, 6) // iterations
	b.Label("iter")
	// Acquire the lock.
	b.Label("spin")
	b.MovI(isa.R7, 0)
	b.MovI(isa.R8, 1)
	b.Cas(isa.R9, isa.R1, 0, isa.R7, isa.R8)
	b.Bne(isa.R9, isa.R7, "spin")
	// Critical section: bump the shared counter, publish to our slot.
	b.Ld(isa.R10, isa.R2, 0)
	b.AddI(isa.R10, isa.R10, 1)
	b.St(isa.R2, 0, isa.R10)
	b.St(isa.R3, 0, isa.R10)
	b.Fence()
	// Release.
	b.MovI(isa.R7, 0)
	b.St(isa.R1, 0, isa.R7)
	// Non-critical work: a burst of private stores (store-buffer pressure)
	// and a read of a neighbour's slot (sharing misses).
	b.MovI(isa.R11, 0)
	b.MovI(isa.R12, 8)
	b.Label("burst")
	b.ShlI(isa.R13, isa.R11, 6)
	b.Add(isa.R13, isa.R13, isa.R4)
	b.St(isa.R13, 0, isa.R11)
	b.AddI(isa.R11, isa.R11, 1)
	b.Bltu(isa.R11, isa.R12, "burst")
	b.MovI(isa.R14, slotBase+int64((tid+1)%threads)*memtypes.BlockBytes)
	b.Ld(isa.R15, isa.R14, 0)
	// Shared fetch-add outside the lock.
	b.MovI(isa.R8, 1)
	b.Fadd(isa.R9, isa.R2, 8, isa.R8)
	b.AddI(isa.R5, isa.R5, 1)
	b.Bltu(isa.R5, isa.R6, "iter")
	b.Halt()
	return b.MustBuild()
}

// rcContendedProgram is contendedProgram specialized to release
// consistency: the lock's test load and the release store carry their
// ordering as ld.acq / st.rel annotations, with no standalone fences.
// Every RC-specific backend path is exercised — the release drain-or-
// trigger stall, the structural acquire, and the draining atomics.
func rcContendedProgram(tid, threads int) *isa.Program {
	const (
		lockAddr  = 0x10000
		countAddr = 0x10040
		slotBase  = 0x20000
		privBase  = 0x40000
	)
	b := isa.NewBuilder("contend-rc")
	if d := int64(tid * 7); d > 0 {
		b.Delay(d)
	}
	b.MovI(isa.R1, lockAddr)
	b.MovI(isa.R2, countAddr)
	b.MovI(isa.R3, slotBase+int64(tid)*memtypes.BlockBytes)
	b.MovI(isa.R4, privBase+int64(tid)*4096)
	b.MovI(isa.R5, 0) // loop counter
	b.MovI(isa.R6, 6) // iterations
	b.Label("iter")
	// Acquire the lock (ld.acq test, CAS set).
	b.Label("spin")
	b.MovI(isa.R7, 0)
	b.MovI(isa.R8, 1)
	b.LdAcq(isa.R9, isa.R1, 0)
	b.Bne(isa.R9, isa.R7, "spin")
	b.Cas(isa.R9, isa.R1, 0, isa.R7, isa.R8)
	b.Bne(isa.R9, isa.R7, "spin")
	// Critical section: bump the shared counter, publish to our slot.
	b.Ld(isa.R10, isa.R2, 0)
	b.AddI(isa.R10, isa.R10, 1)
	b.St(isa.R2, 0, isa.R10)
	b.St(isa.R3, 0, isa.R10)
	// Release: the lock-clearing store carries the ordering.
	b.MovI(isa.R7, 0)
	b.StRel(isa.R1, 0, isa.R7)
	// Non-critical work: a burst of private stores (store-buffer pressure,
	// release-drain latency) and a read of a neighbour's slot.
	b.MovI(isa.R11, 0)
	b.MovI(isa.R12, 8)
	b.Label("burst")
	b.ShlI(isa.R13, isa.R11, 6)
	b.Add(isa.R13, isa.R13, isa.R4)
	b.St(isa.R13, 0, isa.R11)
	b.AddI(isa.R11, isa.R11, 1)
	b.Bltu(isa.R11, isa.R12, "burst")
	b.MovI(isa.R14, slotBase+int64((tid+1)%threads)*memtypes.BlockBytes)
	b.Ld(isa.R15, isa.R14, 0)
	// Shared fetch-add outside the lock (drains under RC).
	b.MovI(isa.R8, 1)
	b.Fadd(isa.R9, isa.R2, 8, isa.R8)
	b.AddI(isa.R5, isa.R5, 1)
	b.Bltu(isa.R5, isa.R6, "iter")
	b.Halt()
	return b.MustBuild()
}

// programFor picks the contended program matching the model's sync idiom.
func programFor(model consistency.Model, tid, threads int) *isa.Program {
	if model == consistency.RC {
		return rcContendedProgram(tid, threads)
	}
	return contendedProgram(tid, threads)
}

// TestIdleSkipBitExact pins idle skipping under an observer: with a
// DebugHook set, the default loop advances in one-cycle epochs on the
// caller's goroutine and calls the hook after every simulated cycle. For
// every consistency implementation the hook must see strictly increasing
// cycles, must not see every cycle (the per-node clocks still skip cycles
// at which nothing is due), and the Result must equal the unobserved run's.
// The lock-step comparison of the same grid lives in TestParallelBitExact.
func TestIdleSkipBitExact(t *testing.T) {
	for _, c := range runnerCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			var hooks, last uint64
			hooked := runWith(t, c.model, c.eng, func(*Config) {}, func(now uint64) {
				if now <= last {
					t.Fatalf("DebugHook went from cycle %d to %d", last, now)
				}
				last = now
				hooks++
			})
			plain := runWith(t, c.model, c.eng, func(*Config) {}, nil)
			if !reflect.DeepEqual(plain, hooked) {
				t.Errorf("hooked run diverged:\nplain:  %+v\nhooked: %+v", plain, hooked)
			}
			if last != hooked.Cycles || hooks == 0 || hooks >= hooked.Cycles {
				t.Errorf("DebugHook ran %d times, last at %d, for %d cycles", hooks, last, hooked.Cycles)
			}
		})
	}
}

// TestIdleSkipNextEventSanity checks the horizon hints on a quiesced
// system: the network shard must report no in-flight events, and every node must
// report either no event or the conservative now+1 guard that follows a
// retiring cycle (the final Halt retired on the last ticked cycle).
func TestIdleSkipNextEventSanity(t *testing.T) {
	cfg := testConfig(2, 2, consistency.SC, offEngine(consistency.SC))
	nnodes := cfg.Net.Width * cfg.Net.Height
	progs := make([]*isa.Program, nnodes)
	for i := range progs {
		progs[i] = haltProgram()
	}
	s := New(cfg, progs, nil)
	res := s.Run()
	if !res.Finished {
		t.Fatal("halt-only system did not finish")
	}
	for i := 0; i < s.Nodes(); i++ {
		n := s.Node(i)
		e := n.NextEvent()
		if e != memtypes.NoEvent && !(n.Core().RetiredThisCycle > 0 && e == res.Cycles+1) {
			t.Errorf("quiesced node %d reports unexpected event at %d (cycles=%d)", i, e, res.Cycles)
		}
	}
	if e := s.clusters[0].shard.NextEvent(); e != memtypes.NoEvent {
		t.Errorf("quiesced network still reports event at %d", e)
	}
}
