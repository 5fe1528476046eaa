package sim

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"invisifence/internal/consistency"
	ifcore "invisifence/internal/core"
	"invisifence/internal/isa"
	"invisifence/internal/memtypes"
)

// runnerCases is the full consistency-implementation grid the parallel
// runner must be invisible on: every Figure 2 conventional model and every
// speculation policy.
var runnerCases = []struct {
	name  string
	model consistency.Model
	eng   ifcore.Config
}{
	{"conventional-sc", consistency.SC, ifcore.Config{Mode: ifcore.ModeOff, Model: consistency.SC}},
	{"conventional-tso", consistency.TSO, ifcore.Config{Mode: ifcore.ModeOff, Model: consistency.TSO}},
	{"conventional-rmo", consistency.RMO, ifcore.Config{Mode: ifcore.ModeOff, Model: consistency.RMO}},
	{"conventional-rc", consistency.RC, ifcore.Config{Mode: ifcore.ModeOff, Model: consistency.RC}},
	{"selective-sc", consistency.SC, ifcore.DefaultSelective(consistency.SC)},
	{"selective-rmo", consistency.RMO, ifcore.DefaultSelective(consistency.RMO)},
	{"selective-rc", consistency.RC, ifcore.DefaultSelective(consistency.RC)},
	{"louvre-rc", consistency.RC, ifcore.DefaultLouvre()},
	{"continuous", consistency.SC, ifcore.DefaultContinuous(false)},
	{"continuous-cov", consistency.SC, ifcore.DefaultContinuous(true)},
	{"aso", consistency.SC, ifcore.DefaultASO()},
}

// runWith runs the contended-program system under one runner setting, with
// hook (if non-nil) as its DebugHook.
func runWith(t *testing.T, model consistency.Model, eng ifcore.Config, mutate func(*Config), hook func(uint64)) Result {
	t.Helper()
	cfg := testConfig(2, 2, model, eng)
	mutate(&cfg)
	nnodes := cfg.Net.Width * cfg.Net.Height
	progs := make([]*isa.Program, nnodes)
	for i := range progs {
		progs[i] = programFor(model, i, nnodes)
	}
	s := New(cfg, progs, nil)
	s.DebugHook = hook
	res := s.Run()
	if !res.Finished {
		t.Fatalf("run did not finish (cycles=%d)", res.Cycles)
	}
	return res
}

// TestParallelBitExact proves the loop's parameters are invisible: for every
// consistency implementation, the full Result — cycles, retirement counts,
// the per-class cycle breakdown, per-node stats, and every event counter —
// is identical across lock-step, the default one-shard loop, and two
// cluster counts (including one that divides the nodes unevenly).
func TestParallelBitExact(t *testing.T) {
	for _, c := range runnerCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			lockstep := runWith(t, c.model, c.eng, func(cfg *Config) { cfg.DisableIdleSkip = true }, nil)
			skipped := runWith(t, c.model, c.eng, func(cfg *Config) {}, nil)
			par2 := runWith(t, c.model, c.eng, func(cfg *Config) { cfg.Clusters = 2 }, nil)
			par3 := runWith(t, c.model, c.eng, func(cfg *Config) { cfg.Clusters = 3 }, nil)
			if !reflect.DeepEqual(lockstep, skipped) {
				t.Errorf("default loop diverged from lock-step:\nlock-step: %+v\ndefault:   %+v", lockstep, skipped)
			}
			if !reflect.DeepEqual(lockstep, par2) {
				t.Errorf("parallel(2) diverged from lock-step:\nlock-step: %+v\nparallel:  %+v", lockstep, par2)
			}
			if !reflect.DeepEqual(lockstep, par3) {
				t.Errorf("parallel(3) diverged from lock-step:\nlock-step: %+v\nparallel:  %+v", lockstep, par3)
			}
		})
	}
}

// TestParallelFallbacks pins the two rules that fall back to one cluster
// — more clusters than nodes, and jitter with Clusters >= 2 — and the hook
// contract on a clustered system: the clusters advance in order on the
// caller's goroutine, the hook sees strictly increasing simulated cycles
// (every cycle under DisableIdleSkip), and the Result equals lock-step's.
func TestParallelFallbacks(t *testing.T) {
	base := testConfig(2, 2, consistency.SC, offEngine(consistency.SC))
	progs := make([]*isa.Program, 4)
	for i := range progs {
		progs[i] = contendedProgram(i, 4)
	}
	for _, c := range []struct {
		name   string
		mutate func(*Config)
		want   int
	}{
		{"default", func(c *Config) {}, 1},
		{"two-clusters", func(c *Config) { c.Clusters = 2 }, 2},
		{"clusters-exceed-nodes", func(c *Config) { c.Clusters = 5 }, 1},
		{"jitter", func(c *Config) { c.Clusters = 2; c.Net.Jitter = 3 }, 1},
	} {
		cfg := base
		c.mutate(&cfg)
		if got := len(New(cfg, progs, nil).clusters); got != c.want {
			t.Errorf("%s: %d clusters, want %d", c.name, got, c.want)
		}
	}

	want := runWith(t, consistency.SC, offEngine(consistency.SC), func(c *Config) { c.DisableIdleSkip = true }, nil)
	for _, lockstep := range []bool{false, true} {
		var hooks, last uint64
		res := runWith(t, consistency.SC, offEngine(consistency.SC), func(c *Config) {
			c.Clusters = 2
			c.DisableIdleSkip = lockstep
		}, func(now uint64) {
			if now <= last || (lockstep && now != last+1) {
				t.Fatalf("lockstep=%v: DebugHook went from cycle %d to %d", lockstep, last, now)
			}
			last = now
			hooks++
		})
		if last != res.Cycles || (lockstep && hooks != res.Cycles) || (!lockstep && hooks >= res.Cycles) {
			t.Errorf("lockstep=%v: DebugHook ran %d times, last at %d, for %d cycles", lockstep, hooks, last, res.Cycles)
		}
		if !reflect.DeepEqual(want, res) {
			t.Errorf("lockstep=%v: hooked 2-cluster run diverged from lock-step:\nlock-step: %+v\nhooked:    %+v", lockstep, want, res)
		}
	}
}

// TestWatchdog pins the retirement watchdog: with every core stuck in a
// 5000-cycle Delay and a 1000-cycle watchdog, lock-step and the default
// loop both panic one cycle past the deadline, and a clustered run panics
// too.
func TestWatchdog(t *testing.T) {
	b := isa.NewBuilder("stuck")
	b.Delay(5000)
	b.Halt()
	prog := b.MustBuild()
	for _, c := range []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"lockstep", func(c *Config) { c.DisableIdleSkip = true }, "no retirement progress for 1000 cycles at cycle 1001\n"},
		{"default", func(c *Config) {}, "no retirement progress for 1000 cycles at cycle 1001\n"},
		{"two-clusters", func(c *Config) { c.Clusters = 2 }, "no retirement progress for 1000 cycles at cycle "},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := testConfig(2, 2, consistency.SC, offEngine(consistency.SC))
			cfg.WatchdogCycles = 1000
			c.mutate(&cfg)
			s := New(cfg, []*isa.Program{prog, prog, prog, prog}, nil)
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, c.want) {
					t.Fatalf("panic %q, want it to contain %q", msg, c.want)
				}
			}()
			s.Run()
		})
	}
}

// TestParallelBitExactRandomPrograms is the seed-randomized equivalence
// sweep: for a fixed list of seeds (no wall-clock dependence anywhere),
// random multi-threaded programs must produce deeply-equal Results under
// lock-step, the default one-shard loop, and two and three clusters, across
// a mix of speculative and conventional implementations. MaxCycles truncation is
// exercised too (seeded runs that hit the bound must truncate at the same
// cycle with identical partial stats).
func TestParallelBitExactRandomPrograms(t *testing.T) {
	engines := []struct {
		name  string
		model consistency.Model
		eng   ifcore.Config
	}{
		{"sc", consistency.SC, ifcore.Config{Mode: ifcore.ModeOff, Model: consistency.SC}},
		{"invisi-sc", consistency.SC, ifcore.DefaultSelective(consistency.SC)},
		{"continuous-cov", consistency.SC, ifcore.DefaultContinuous(true)},
	}
	seeds := []int64{1, 7, 42, 1234, 99991}
	const cores = 4
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		progs := make([]*isa.Program, cores)
		regInits := make([][isa.NumRegs]memtypes.Word, cores)
		for i := 0; i < cores; i++ {
			progs[i], regInits[i] = randomProgram(rng, i, memtypes.Addr(0x100000+i*0x10000))
		}
		for _, e := range engines {
			run := func(mutate func(*Config)) Result {
				cfg := testConfig(2, 2, e.model, e.eng)
				// Also pin MaxCycles truncation behavior on a subset of seeds.
				if seed%2 == 1 {
					cfg.MaxCycles = 30_000
				}
				mutate(&cfg)
				s := New(cfg, progs, regInits)
				return s.Run()
			}
			lockstep := run(func(c *Config) { c.DisableIdleSkip = true })
			for _, k := range []int{0, 2, 3} {
				if res := run(func(c *Config) { c.Clusters = k }); !reflect.DeepEqual(lockstep, res) {
					t.Errorf("seed %d/%s: clusters=%d diverged from lock-step:\nlock-step: %+v\nclusters:  %+v",
						seed, e.name, k, lockstep, res)
				}
			}
		}
	}
}
