// Command bench measures the simulator core's wall-clock performance on the
// reference grid — the seven paper workloads under conventional SC and
// INVISIFENCE-SELECTIVE-SC — and records the trajectory as a BENCH_<n>.json
// file, so every PR that touches the core leaves a measured data point
// behind. Grid cells run under the parallel runner (-clusters; by default
// derived from GOMAXPROCS and the 16-node grid, see defaultClusters);
// simulated results are scheduler-independent (TestGoldenResults,
// TestParallelBitExact), so trajectories stay comparable across files.
//
// For the reference apache cells (conventional SC and Invisi_sc, the two
// configurations the performance acceptance gates track) it additionally
// re-runs the simulation on the default one-shard loop and lock-step,
// recording the trajectory per cell: lock-step ns, one-shard ("serial") ns,
// clustered ns, and the derived speedups.
//
// Besides the latency-only grid it measures two contention smoke cells —
// apache under conventional SC and Invisi_sc with a finite link bandwidth
// (-linkbw, cycles/flit) — so the per-link contention model's cost and its
// queuing-delay telemetry are tracked in every BENCH file and in the
// -quick CI artifact, plus one release-consistency cell (apache under
// Invisi_rc) tracking the RC retirement paths.
//
// Usage:
//
//	bench                 # full grid at scale 1.0, 3 iterations per cell
//	bench -quick          # CI smoke: scale 0.25, 1 iteration
//	bench -out results/   # write BENCH_<n>.json into a directory
//	bench -workloads apache,ocean -variants sc -iters 5
//	bench -clusters 0     # measure the serial schedulers only
//	bench -clusters -1    # explicit auto: derive clusters from GOMAXPROCS
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"invisifence"
)

// benchRun is one measured grid cell. LinkBandwidth and the queuing-delay
// telemetry identify and describe contention cells (0 for the latency-only
// torus); cmd/benchdiff keys on LinkBandwidth and carries — but never
// gates on — the delay columns.
type benchRun struct {
	Workload         string  `json:"workload"`
	Variant          string  `json:"variant"`
	Scale            float64 `json:"scale"`
	LinkBandwidth    uint64  `json:"link_bandwidth,omitempty"`
	Iters            int     `json:"iters"`
	SimCycles        uint64  `json:"sim_cycles"`
	Retired          uint64  `json:"retired"`
	NsPerRun         int64   `json:"ns_per_run"`
	CyclesPerSec     float64 `json:"cycles_per_sec"`
	AllocsPerRun     uint64  `json:"allocs_per_run"`
	BytesPerRun      uint64  `json:"bytes_per_run"`
	QueueDelayPerMsg float64 `json:"queue_delay_per_msg,omitempty"`
}

// reference pins one cell's scheduler trajectory: the same simulation under
// lock-step, the default one-shard loop, and -clusters clusters, in this
// binary (isolating scheduler effects from everything else) — and, when
// -prerefactor-ns supplies a measurement of the seed core on the same
// host, against the pre-refactor implementation as a whole. OptimizedNs
// is the configured cluster count's time (the one-shard loop with
// -clusters 0).
type reference struct {
	Workload           string  `json:"workload"`
	Variant            string  `json:"variant"`
	Scale              float64 `json:"scale"`
	Clusters           int     `json:"clusters"`
	OptimizedNs        int64   `json:"optimized_ns"`
	SerialNs           int64   `json:"serial_ns"`
	LockstepNs         int64   `json:"lockstep_ns"`
	SerialSpeedup      float64 `json:"serial_speedup"`   // serial / optimized
	LockstepSpeedup    float64 `json:"lockstep_speedup"` // lock-step / optimized
	PreRefactorNs      int64   `json:"prerefactor_ns,omitempty"`
	PreRefactorSpeedup float64 `json:"prerefactor_speedup,omitempty"`
}

// benchFile is the BENCH_<n>.json schema. v2 adds per-cell scheduler
// references (References) in place of v1's single apache/SC entry.
type benchFile struct {
	Schema    string      `json:"schema"`
	GoVersion string      `json:"go_version"`
	GOOS      string      `json:"goos"`
	GOARCH    string      `json:"goarch"`
	CPUs      int         `json:"cpus"`
	Quick     bool        `json:"quick"`
	Clusters  int         `json:"clusters"`
	Runs      []benchRun  `json:"runs"`
	Reference []reference `json:"references,omitempty"`
}

func measure(cfg invisifence.Config, iters int) (benchRun, error) {
	var ms0, ms1 runtime.MemStats
	var res invisifence.Result
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := 0; i < iters; i++ {
		var err error
		res, err = invisifence.Run(cfg)
		if err != nil {
			return benchRun{}, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	ns := elapsed.Nanoseconds() / int64(iters)
	r := benchRun{
		Workload:         cfg.Workload,
		Variant:          cfg.Variant.Name,
		Scale:            cfg.Scale,
		LinkBandwidth:    cfg.Machine.LinkBandwidth,
		Iters:            iters,
		SimCycles:        res.Cycles,
		Retired:          res.Retired,
		NsPerRun:         ns,
		AllocsPerRun:     (ms1.Mallocs - ms0.Mallocs) / uint64(iters),
		BytesPerRun:      (ms1.TotalAlloc - ms0.TotalAlloc) / uint64(iters),
		QueueDelayPerMsg: res.QueueDelayPerMsg(),
	}
	if ns > 0 {
		r.CyclesPerSec = float64(res.Cycles) / (float64(ns) / 1e9)
	}
	return r, nil
}

// defaultClusters derives the parallel-runner cluster count from
// GOMAXPROCS, clamped to [4, 16]: the reference grid simulates 16 nodes, so
// more clusters than nodes is never useful, and on small hosts the floor
// keeps the historical 4-cluster configuration (ROADMAP "Adaptive cluster
// count": on 1 CPU, 2-16 clusters measure within noise and all beat serial
// — the per-node clocks, not the parallelism, carry the win — so the floor
// costs nothing while keeping trajectories comparable with BENCH_2/3).
func defaultClusters() int {
	k := runtime.GOMAXPROCS(0)
	if k < 4 {
		return 4
	}
	if k > 16 {
		return 16
	}
	return k
}

// nextBenchPath returns dir/BENCH_<n>.json for the smallest unused n >= 1.
func nextBenchPath(dir string) string {
	for n := 1; ; n++ {
		p := filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", n))
		if _, err := os.Stat(p); os.IsNotExist(err) {
			return p
		}
	}
}

func main() {
	quick := flag.Bool("quick", false, "CI smoke mode: scale 0.25, one iteration per cell")
	iters := flag.Int("iters", 0, "iterations per cell (0 = 3, or 1 with -quick)")
	scale := flag.Float64("scale", 0, "workload scale (0 = 1.0, or 0.25 with -quick)")
	out := flag.String("out", "", "output path or directory (default: next free ./BENCH_<n>.json)")
	workloads := flag.String("workloads", "", "comma-separated workloads (default: all seven)")
	variants := flag.String("variants", "sc,invisi-sc", "comma-separated variant names")
	noRef := flag.Bool("no-reference", false, "skip the apache scheduler-trajectory measurements")
	preNs := flag.Int64("prerefactor-ns", 0, "measured ns/run of the pre-refactor (seed) core for apache/SC at the same scale on this host; recorded for the trajectory")
	clusters := flag.Int("clusters", -1, "clusters for grid cells (-1 = derive from GOMAXPROCS, 0 = the default one-shard loop)")
	linkbw := flag.Uint64("linkbw", 4, "link bandwidth in cycles/flit for the contention smoke cells (0 skips them; only run on the unfiltered reference grid)")
	flag.Parse()

	if *clusters < 0 {
		*clusters = defaultClusters()
	}

	if *iters == 0 {
		if *quick {
			*iters = 1
		} else {
			*iters = 3
		}
	}
	if *scale == 0 {
		if *quick {
			*scale = 0.25
		} else {
			*scale = 1.0
		}
	}
	wls := invisifence.Workloads()
	if *workloads != "" {
		wls = strings.Split(*workloads, ",")
	}
	vns := strings.Split(*variants, ",")

	file := benchFile{
		Schema:    "invisifence-bench/v2",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		Quick:     *quick,
		Clusters:  *clusters,
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	for _, wl := range wls {
		for _, vn := range vns {
			v, err := invisifence.VariantByName(strings.TrimSpace(vn))
			if err != nil {
				fail(err)
			}
			cfg := invisifence.DefaultConfig()
			cfg.Workload = strings.TrimSpace(wl)
			cfg.Variant = v
			cfg.Scale = *scale
			cfg.Clusters = *clusters
			r, err := measure(cfg, *iters)
			if err != nil {
				fail(err)
			}
			file.Runs = append(file.Runs, r)
			fmt.Fprintf(os.Stderr, "%-12s %-12s %9d cycles  %12d ns/run  %10.0f cycles/s  %8d allocs\n",
				r.Workload, r.Variant, r.SimCycles, r.NsPerRun, r.CyclesPerSec, r.AllocsPerRun)
		}
	}

	// Contention smoke cells: the SC-vs-Invisi_sc reference pair under a
	// congested torus, so the contention model's wall-clock cost and its
	// queuing-delay telemetry ride every BENCH file (and the -quick CI
	// artifact). benchdiff keys these cells by their link_bandwidth, apart
	// from the latency-only grid. A filtered invocation (-workloads or
	// -variants) is a targeted measurement, not the reference grid, so the
	// extras are skipped — same spirit as -no-reference for the
	// scheduler-trajectory cells.
	if *linkbw > 0 && *workloads == "" && *variants == "sc,invisi-sc" {
		for _, vn := range []string{"sc", "invisi-sc"} {
			v, err := invisifence.VariantByName(vn)
			if err != nil {
				fail(err)
			}
			cfg := invisifence.DefaultConfig()
			cfg.Workload = "apache"
			cfg.Variant = v
			cfg.Scale = *scale
			cfg.Clusters = *clusters
			cfg.Machine.LinkBandwidth = *linkbw
			r, err := measure(cfg, *iters)
			if err != nil {
				fail(err)
			}
			file.Runs = append(file.Runs, r)
			fmt.Fprintf(os.Stderr, "%-12s %-12s %9d cycles  %12d ns/run  %10.0f cycles/s  qdelay/msg %.1f  (linkbw %d)\n",
				r.Workload, r.Variant, r.SimCycles, r.NsPerRun, r.CyclesPerSec, r.QueueDelayPerMsg, r.LinkBandwidth)
		}
	}

	// Release-consistency smoke cell: apache under speculation-over-RC
	// (Invisi_rc), so the RC retirement paths — annotated sync library,
	// release-triggered speculation, draining atomics — leave a measured
	// wall-clock point in every BENCH file and the -quick CI artifact for
	// benchdiff to track. Skipped on filtered invocations like the other
	// extras.
	if *workloads == "" && *variants == "sc,invisi-sc" {
		v, err := invisifence.VariantByName("invisi-rc")
		if err != nil {
			fail(err)
		}
		cfg := invisifence.DefaultConfig()
		cfg.Workload = "apache"
		cfg.Variant = v
		cfg.Scale = *scale
		cfg.Clusters = *clusters
		r, err := measure(cfg, *iters)
		if err != nil {
			fail(err)
		}
		file.Runs = append(file.Runs, r)
		fmt.Fprintf(os.Stderr, "%-12s %-12s %9d cycles  %12d ns/run  %10.0f cycles/s  %8d allocs\n",
			r.Workload, r.Variant, r.SimCycles, r.NsPerRun, r.CyclesPerSec, r.AllocsPerRun)
	}

	if !*noRef {
		for _, v := range []invisifence.Variant{
			invisifence.ConventionalVariant(invisifence.SC),
			invisifence.SelectiveVariant(invisifence.SC),
		} {
			cfg := invisifence.DefaultConfig()
			cfg.Workload = "apache"
			cfg.Variant = v
			cfg.Scale = *scale
			cfg.Clusters = *clusters
			opt, err := measure(cfg, *iters)
			if err != nil {
				fail(err)
			}
			serial := opt // -clusters 0: optimized IS the one-shard loop
			if *clusters >= 2 {
				cfg.Clusters = 0
				serial, err = measure(cfg, *iters)
				if err != nil {
					fail(err)
				}
			}
			cfg.DisableIdleSkip = true
			lock, err := measure(cfg, *iters)
			if err != nil {
				fail(err)
			}
			ref := reference{
				Workload:        "apache",
				Variant:         v.Name,
				Scale:           *scale,
				Clusters:        *clusters,
				OptimizedNs:     opt.NsPerRun,
				SerialNs:        serial.NsPerRun,
				LockstepNs:      lock.NsPerRun,
				SerialSpeedup:   float64(serial.NsPerRun) / float64(opt.NsPerRun),
				LockstepSpeedup: float64(lock.NsPerRun) / float64(opt.NsPerRun),
			}
			if *preNs > 0 && v.Name == "sc" {
				ref.PreRefactorNs = *preNs
				ref.PreRefactorSpeedup = float64(*preNs) / float64(opt.NsPerRun)
			}
			file.Reference = append(file.Reference, ref)
			fmt.Fprintf(os.Stderr, "reference apache/%s: parallel(%d) %d ns, serial %d ns (%.2fx), lock-step %d ns (%.2fx)",
				v.Name, *clusters, opt.NsPerRun, serial.NsPerRun, ref.SerialSpeedup, lock.NsPerRun, ref.LockstepSpeedup)
			if ref.PreRefactorNs > 0 {
				fmt.Fprintf(os.Stderr, ", pre-refactor %d ns (%.2fx)", ref.PreRefactorNs, ref.PreRefactorSpeedup)
			}
			fmt.Fprintln(os.Stderr)
		}
	}

	path := *out
	switch {
	case path == "":
		path = nextBenchPath(".")
	default:
		if st, err := os.Stat(path); err == nil && st.IsDir() {
			path = nextBenchPath(path)
		}
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		fail(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fail(err)
	}
	fmt.Println(path)
}
