package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"invisifence"
	"invisifence/internal/cache"
	"invisifence/internal/crossval"
	"invisifence/internal/isa"
	"invisifence/internal/litmus"
	"invisifence/internal/memctrl"
	"invisifence/internal/memtypes"
	"invisifence/internal/network"
	"invisifence/internal/node"
	"invisifence/internal/runcache"
	"invisifence/internal/sim"
	"invisifence/internal/staticfence"
	"invisifence/internal/stats"
	"invisifence/internal/workload"
)

// perLayer lists every per-layer metric with its unit, in report order.
// Metrics a workload does not exercise are reported as 0.
var perLayer = []struct{ name, unit string }{
	{"cpu.host_pct", "%"}, {"cpu.host_ns_per_retired", "ns/instr"}, {"cpu.kips", "kinstr/s"},
	{"cpu.retired", "count"}, {"cpu.fetched_wrong_path", "count"}, {"cpu.wrong_path_frac", "fraction"},
	{"cpu.squashes", "count"}, {"cpu.replays", "count"}, {"cpu.mispredicts", "count"}, {"cpu.new_cum_pct", "%"},
	{"sim.host_pct", "%"}, {"sim.kcycles_per_s", "kcycles/s"}, {"sim.cycles", "count"},
	{"sim.ticked_cycles", "count"}, {"sim.skip_frac", "fraction"}, {"sim.node_ticks", "count"},
	{"sim.new_ms", "ms"}, {"sim.run_ms", "ms"}, {"sim.new_cum_pct", "%"}, {"sim.run_cum_pct", "%"},
	{"node.host_pct", "%"}, {"node.remote_fills", "count"}, {"node.l2_hit_fills", "count"},
	{"node.prefetches", "count"}, {"node.cleaning_wbs", "count"},
	{"node.sb_full_cycles", "cycles"}, {"node.sb_drain_cycles", "cycles"},
	{"core.host_pct", "%"}, {"core.model_speedup", "x"}, {"core.speculations", "count"}, {"core.commits", "count"},
	{"core.aborts", "count"}, {"core.commit_frac", "fraction"}, {"core.forced_commits", "count"},
	{"core.cov_deferrals", "count"}, {"core.violation_cycles", "cycles"}, {"core.spec_fraction", "fraction"},
	{"cache.host_pct", "%"}, {"cache.l1_hits", "count"}, {"cache.l1_misses", "count"}, {"cache.l1_hit_rate", "fraction"},
	{"cache.evictions", "count"},
	{"coherence.host_pct", "%"}, {"coherence.transactions", "count"}, {"coherence.forwards", "count"},
	{"coherence.invals", "count"}, {"coherence.queued", "count"},
	{"network.host_pct", "%"}, {"network.messages", "count"}, {"network.queued_frac", "fraction"},
	{"network.queue_delay_per_msg", "cycles/msg"},
	{"memctrl.reads", "count"}, {"memctrl.writes", "count"}, {"storebuffer.host_pct", "%"},
	{"workload.gen_ms", "ms"},
	{"runcache.puts", "count"}, {"runcache.hits", "count"}, {"runcache.misses", "count"},
	{"runcache.errors", "count"}, {"runcache.warm_s", "s"},
	{"fencesearch.evals_simulated", "count"}, {"fencesearch.cache_hits", "count"},
	{"staticfence.analyze_ms", "ms"}, {"staticfence.host_pct", "%"},
	{"runtime.host_pct", "%"}, {"runtime.gc_cycles", "count"}, {"runtime.gc_cpu_frac", "fraction"},
	{"bench.trace_overhead_pct", "%"},
}

// tracedPass runs the workload's traced pass under the CPU profiler and
// returns every per-layer metric.
func tracedPass(w *workloadDef, o options, first *pass, wall float64, gc0, gc1 gcSample, t *tally) (map[string]metric, error) {
	profPath := filepath.Join(o.workdir, fmt.Sprintf("cpu-%d.pprof", os.Getpid()))
	f, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	defer os.Remove(profPath)
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	// sum holds the layers' counters and the spans, keyed by per-layer
	// metric name, plus the inputs of the derived ratios.
	sum := map[string]float64{}
	start := time.Now()
	switch w.name {
	case "fig8":
		err = rebuild(fig8Cells(o), first, sum, t)
	case "rc-contention":
		var jobs []invisifence.Config
		if jobs, err = rcSpec(o).Jobs(); err == nil {
			err = rebuild(jobs, first, sum, t)
		}
	case "oracle":
		err = tracedOracle(o, first, sum, t)
	}
	traced := time.Since(start).Seconds()
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	prof, err := rollup(profPath)
	if err != nil {
		return nil, err
	}
	printProfile(prof)

	m := map[string]metric{}
	for _, pl := range perLayer {
		m[pl.name] = metric{sum[pl.name], pl.unit}
	}
	set := func(name string, v float64) {
		pl, ok := m[name]
		if !ok {
			panic("perfbench: unlisted per-layer metric " + name)
		}
		pl.Value = v
		m[name] = pl
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	for _, layer := range []string{"cpu", "sim", "node", "core", "cache", "coherence", "network", "storebuffer", "staticfence", "runtime"} {
		set(layer+".host_pct", prof.flatPct(layer))
	}
	set("cpu.new_cum_pct", prof.cumPct("invisifence/internal/cpu.New"))
	set("sim.new_cum_pct", prof.cumPct("invisifence/internal/sim.New"))
	set("sim.run_cum_pct", prof.cumPct("invisifence/internal/sim.(*System).Run"))
	set("cpu.host_ns_per_retired", ratio(prof.flat["cpu"]*1e6, sum["cpu.retired"]))
	set("cpu.kips", float64(first.retired)/wall/1e3)
	set("cpu.wrong_path_frac", ratio(sum["cpu.fetched_wrong_path"], sum["cpu.fetched_wrong_path"]+sum["cpu.retired"]))
	set("sim.kcycles_per_s", float64(first.cycles)/wall/1e3)
	if sum["sim.cycles"] > 0 {
		set("sim.skip_frac", 1-sum["sim.ticked_cycles"]/sum["sim.cycles"])
	}
	set("core.model_speedup", first.speedup)
	set("core.commit_frac", ratio(sum["core.commits"], sum["core.commits"]+sum["core.aborts"]))
	set("core.spec_fraction", ratio(sum["spec_cycles"], sum["node_cycles"]))
	set("cache.l1_hit_rate", ratio(sum["cache.l1_hits"], sum["cache.l1_hits"]+sum["cache.l1_misses"]))
	set("network.queued_frac", ratio(sum["queued_messages"], sum["network.messages"]))
	set("network.queue_delay_per_msg", ratio(sum["queue_delay_cycles"], sum["network.messages"]))
	set("runcache.puts", float64(first.cache.Puts))
	set("runcache.hits", float64(first.cache.Hits))
	set("runcache.misses", float64(first.cache.Misses))
	set("runcache.errors", float64(first.cache.Errors))
	set("runcache.warm_s", first.warm.Seconds())
	set("runtime.gc_cycles", float64(gc1.cycles-gc0.cycles))
	set("runtime.gc_cpu_frac", ratio(gc1.gcCPU-gc0.gcCPU, gc1.allCPU-gc0.allCPU))
	set("bench.trace_overhead_pct", 100*(traced/wall-1))
	fmt.Printf("perfbench: traced pass %.3f s against untraced wall_s %.3f s\n", traced, wall)
	return m, nil
}

// cellTrace is one rebuilt cell: its result, and its counters and spans
// keyed as in tracedPass's sum.
type cellTrace struct {
	res   sim.Result
	count map[string]float64
	err   error
}

// rebuild re-runs every cell from public layer calls — workload.Get,
// sim.New, WriteWord, Run, Validate — with spans around each, reads the
// layers' counters, and checks the result bit for bit against what
// invisifence.Run produced for the same Config in the untraced pass.
func rebuild(cfgs []invisifence.Config, first *pass, sum map[string]float64, t *tally) error {
	for _, cfg := range cfgs {
		ct := rebuildCell(cfg)
		name := cellKey(cfg.Workload, cfg.Variant, cfg.Machine.LinkBandwidth)
		if ct.err != nil {
			t.check(false, "traced rebuild %s: %v", name, ct.err)
			continue
		}
		r := ct.res
		want, ok := first.cells[name]
		t.check(ok, "traced rebuild %s: no untraced result to compare with", name)
		if ok {
			t.check(r.Cycles == want.Cycles && r.Retired == want.Retired && r.Breakdown == want.Breakdown &&
				r.Commits == want.Commits && r.Aborts == want.Aborts && r.Speculations == want.Speculations &&
				r.Net == want.NetStats,
				"traced rebuild %s differs from invisifence.Run: cycles %d/%d retired %d/%d breakdown %v/%v commits %d/%d aborts %d/%d",
				name, r.Cycles, want.Cycles, r.Retired, want.Retired, r.Breakdown, want.Breakdown,
				r.Commits, want.Commits, r.Aborts, want.Aborts)
		}
		// Reconcile the per-node counters with the Result.
		var nodeRetired, classCycles, nodeCycles uint64
		for _, st := range r.PerNode {
			nodeRetired += st.Retired
			classCycles += st.Final.Total()
			nodeCycles += st.TotalCycles
		}
		coreRetired := uint64(ct.count["cpu.retired"])
		t.check(nodeRetired == r.Retired && coreRetired == r.Retired,
			"traced rebuild %s: per-node Stats().Retired %d, Core().Retired %d, Result.Retired %d", name, nodeRetired, coreRetired, r.Retired)
		t.check(classCycles == nodeCycles, "traced rebuild %s: breakdown cycles %d != per-node TotalCycles %d", name, classCycles, nodeCycles)
		for k, v := range ct.count {
			sum[k] += v
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rebuildCell runs one cell the way invisifence.RunBounded does, with the
// layer calls made here so they can be timed and their counters read.
func rebuildCell(cfg invisifence.Config) cellTrace {
	ct := cellTrace{count: map[string]float64{}}
	add := func(name string, v uint64) { ct.count[name] += float64(v) }
	t0 := time.Now()
	wl, err := workload.Get(cfg.Workload, workload.Params{
		Cores: cfg.Machine.Width * cfg.Machine.Height, Model: cfg.Variant.Model,
		Seed: cfg.Seed, Scale: cfg.Scale,
	})
	ct.count["workload.gen_ms"] = ms(time.Since(t0))
	if err != nil {
		ct.err = err
		return ct
	}
	scfg := simConfig(cfg)
	t1 := time.Now()
	s := sim.New(scfg, wl.Programs, wl.RegInit)
	ct.count["sim.new_ms"] = ms(time.Since(t1))
	for a, v := range wl.MemInit {
		s.WriteWord(a, v)
	}
	// The serial loop calls DebugHook on ticked cycles only, so counting
	// calls counts the cycles the idle-skip scheduler did not skip.
	var ticked uint64
	s.DebugHook = func(uint64) { ticked++ }
	t2 := time.Now()
	r := s.Run()
	ct.count["sim.run_ms"] = ms(time.Since(t2))
	if !r.Finished {
		ct.err = fmt.Errorf("did not finish within %d cycles", scfg.MaxCycles)
		return ct
	}
	if err := wl.Validate(func(a memtypes.Addr) memtypes.Word { return s.ReadWord(a) }); err != nil {
		ct.err = fmt.Errorf("invariant violated: %w", err)
		return ct
	}
	ct.res = r
	add("sim.cycles", r.Cycles)
	add("sim.ticked_cycles", ticked)
	add("sim.node_ticks", ticked*uint64(s.Nodes()))
	add("node.sb_full_cycles", r.Breakdown[stats.SBFull])
	add("node.sb_drain_cycles", r.Breakdown[stats.SBDrain])
	add("core.violation_cycles", r.Breakdown[stats.Violation])
	add("network.messages", r.Net.Messages)
	add("queued_messages", r.Net.QueuedMessages)
	add("queue_delay_cycles", r.Net.QueueDelayCycles)
	for i := 0; i < s.Nodes(); i++ {
		n := s.Node(i)
		core, st, l1, l2, dir := n.Core(), n.Stats(), n.L1(), n.L2(), n.Directory()
		add("cpu.retired", core.Retired)
		add("cpu.fetched_wrong_path", core.FetchedWrongPath)
		add("cpu.squashes", core.Squashes)
		add("cpu.replays", core.Replays)
		add("cpu.mispredicts", core.Mispredicts)
		add("node.remote_fills", n.RemoteFills)
		add("node.l2_hit_fills", n.L2HitFills)
		add("node.prefetches", n.Prefetches)
		add("node.cleaning_wbs", n.CleaningWBs)
		add("core.speculations", st.Speculations)
		add("core.commits", st.Commits)
		add("core.aborts", st.Aborts)
		add("core.forced_commits", st.ForcedCommits)
		add("core.cov_deferrals", st.CoVDeferrals)
		add("spec_cycles", st.SpecCycles)
		add("node_cycles", st.TotalCycles)
		add("cache.l1_hits", l1.Hits)
		add("cache.l1_misses", l1.Misses)
		add("cache.evictions", l1.Evictions+l2.Evictions)
		add("coherence.transactions", dir.Transactions)
		add("coherence.forwards", dir.Forwards)
		add("coherence.invals", dir.Invals)
		add("coherence.queued", dir.Queued)
		add("memctrl.reads", n.Memory().Reads)
		add("memctrl.writes", n.Memory().Writes)
	}
	return ct
}

// simConfig maps a run Config to the simulator's, as RunBounded does with
// no backstop. The traced rebuild's bit-exact check against
// invisifence.Run catches any drift between the two mappings.
func simConfig(cfg invisifence.Config) sim.Config {
	maxCycles := cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = 500_000_000
	}
	m := cfg.Machine
	return sim.Config{
		Net: network.Config{
			Width: m.Width, Height: m.Height,
			HopLatency: m.HopLatency, LocalLatency: m.LocalLatency,
			Jitter: m.Jitter, Seed: cfg.Seed,
			LinkBandwidth: m.LinkBandwidth,
		},
		Node: node.Config{
			Model:              cfg.Variant.Model,
			Engine:             cfg.Variant.Engine,
			Core:               m.Core,
			L1:                 cache.Config{SizeBytes: m.L1Bytes, Ways: m.L1Ways, HitLatency: m.L1Latency, Name: "L1"},
			L2:                 cache.Config{SizeBytes: m.L2Bytes, Ways: m.L2Ways, HitLatency: m.L2Latency, Name: "L2"},
			Memory:             memctrl.Config{AccessLatency: m.MemLatency, Banks: m.MemBanks, BankBusy: m.BankBusy},
			MSHRs:              m.MSHRs,
			SBCapacity:         cfg.Variant.SBCapacity,
			StorePrefetchDepth: m.StorePrefetchDepth,
			MsgsPerCycle:       m.MsgsPerCycle,
			SnoopLQ:            true,
			FillHoldCycles:     8,
		},
		MaxCycles:       maxCycles,
		WatchdogCycles:  2_000_000,
		DisableIdleSkip: cfg.DisableIdleSkip,
		Clusters:        cfg.Clusters,
	}
}

// tracedOracle times the static analyzer on every corpus test and model,
// then repeats the cross-validation, whose report must equal the untraced
// one.
func tracedOracle(o options, first *pass, sum map[string]float64, t *tally) error {
	for _, test := range litmus.Tests {
		if test.Target == nil {
			continue
		}
		bodies := litmus.BodyPrograms(test, isa.NoFences)
		done := map[string]bool{}
		for _, spec := range litmus.AllConfigs() {
			if done[spec.Model.String()] {
				continue
			}
			done[spec.Model.String()] = true
			start := time.Now()
			if _, err := staticfence.Analyze(test.Name, bodies, spec.Model, staticfence.LitmusLayout()); err != nil {
				return fmt.Errorf("staticfence %s/%v: %w", test.Name, spec.Model, err)
			}
			sum["staticfence.analyze_ms"] += ms(time.Since(start))
		}
	}
	evals, err := runcache.Open("")
	if err != nil {
		return err
	}
	rep, err := crossval.Run(crossval.Options{Seeds: oracleSeeds(o), Workers: workers, Cache: evals})
	if err != nil {
		t.check(false, "oracle: traced crossval: %v", err)
		return nil
	}
	t.check(rep.String() == first.output, "oracle: traced crossval report differs from the untraced one")
	st := evals.Stats()
	sum["fencesearch.evals_simulated"], sum["fencesearch.cache_hits"] = float64(st.Puts), float64(st.Hits)
	return nil
}
