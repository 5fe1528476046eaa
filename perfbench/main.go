// Command perfbench is the repository benchmark. It drives one workload
// through the public entry points users call (Campaign/Figure8, Sweep,
// crossval), checks every output, and prints one JSON result line.
//
//	perfbench -workload fig8 -seed 1 -seconds 30 -trace 0
//
// With -trace 0 it repeats the workload's fixed work for -seconds and
// reports the end-to-end metrics (see measure for how the repetitions are
// summarised). With -trace 1 it additionally runs one traced pass — spans
// around the calls into each layer, the layers' own work counters, and a
// CPU profile rolled up per package with `go tool pprof` — and reports the
// per-layer metrics.
// Run it through perfbench/run.sh from the repository root, which builds
// it inside the checkout first. See perfbench/METRICS.md for what each
// metric means and which change it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strings"
	"time"
)

// Set-up time is measured in setupGroups groups of setupGroupSize fresh
// processes. A fresh process's start-up time has a long tail (other
// tenants, page faults), so each group keeps its fastest process and
// setup_s is the median over the groups. A group runs before each of the
// first setupGroups repetitions and the rest after the last one, so the
// groups spread over the run.
const (
	setupGroups    = 9
	setupGroupSize = 5
)

// workers is the number of concurrent simulations. Measured on the oracle
// workload, two workers made the resident-set peak vary by a third from
// run to run, one by a few percent.
const workers = 1

// measureProcs is the measuring process's GOMAXPROCS. With one, the
// garbage collector runs on the simulation's CPU rather than on the
// other, so a repetition's time depends on one CPU's speed, which the
// reference pass run in the same process tracks. On the oracle, where
// the collector does most of the work, interleaved blocks of repetitions
// varied by 6-13% (coefficient of variation) with one and by 16-18% with
// two, and took 15% less time with one.
const measureProcs = 1

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64
	refs     string
	workdir  string
	update   bool
}

func main() {
	var o options
	var traceFlag int
	mode := flag.String("mode", "run", "run: measure and report; setup: do one set-up and exit (used to time set-up)")
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed (Config.Seed of every simulated cell)")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long the repeated measurement runs")
	flag.IntVar(&traceFlag, "trace", 0, "1 = also run the traced pass and report per-layer metrics")
	flag.Float64Var(&o.scale, "scale", 0, "workload scale (0 = the workload's default)")
	flag.StringVar(&o.refs, "refs", "perfbench/refs", "directory of reference outputs")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/work", "work directory for result caches and profiles")
	flag.BoolVar(&o.update, "update-refs", false, "write the reference output for this workload, scale and seed instead of checking it")
	flag.Parse()

	w, ok := workloads[o.workload]
	if !ok || (traceFlag != 0 && traceFlag != 1) || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -trace 0|1 and -seconds > 0\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	o.trace = traceFlag == 1
	if o.scale == 0 {
		o.scale = w.defaultScale
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fatal(err)
	}

	switch *mode {
	case "setup":
		if err := w.setup(o); err != nil {
			fatal(err)
		}
	case "run":
		res, err := measure(w, o)
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	default:
		fatal(fmt.Errorf("unknown -mode %q", *mode))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line printed last on stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts checked operations: simulated cells, crossval cells and
// output comparisons. Every failed check is printed to stderr.
type tally struct{ attempted, failed int }

func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: "+format+"\n", args...)
	}
}

// measure runs the set-up groups, the repeated untraced passes and, with
// -trace 1, the traced pass.
//
// Host times are reported at the reference host speed (see refloop.go).
// norm_wall_s is the median over the repetitions of each repetition's
// wall time × refNominal ÷ the mean time of the reference passes run just
// before and just after it. setup_s is the median over the set-up groups,
// rescaled by refNominal ÷ the run's median reference pass. alloc_mb and
// peak_rss_mb are the smallest value over the repetitions: other tenants
// only ever delay the garbage collector, so the least disturbed
// repetition is the steadiest estimate of the program's own cost.
func measure(w *workloadDef, o options) (result, error) {
	ref, haveRef, err := loadRef(o)
	if err != nil {
		return result{}, err
	}

	runtime.GOMAXPROCS(measureProcs)
	var t tally
	var walls, refs, allocs, rss, setups []float64
	var first *pass
	var gc0, gc1 gcSample
	start := time.Now()
	budget := time.Duration(o.seconds * float64(time.Second))
	for i := 0; ; i++ {
		if len(setups) < setupGroups {
			s, err := timeSetup(o)
			if err != nil {
				return result{}, err
			}
			setups = append(setups, s)
		}
		// Run the reference pass on an idle, collected heap. Then start
		// every repetition from a collected heap returned to the OS, so
		// each one's allocation and resident set start alike.
		debug.FreeOSMemory()
		r, err := refPass()
		if err != nil {
			return result{}, err
		}
		refs = append(refs, r)
		debug.FreeOSMemory()
		if i == 0 {
			gc0 = readGC()
		}
		p, err := runPass(w, o, &t)
		if err != nil {
			return result{}, err
		}
		walls = append(walls, p.wall.Seconds())
		allocs = append(allocs, float64(p.allocBytes)/1e6)
		rss = append(rss, p.peakRSS/1e6)
		if first == nil {
			first = p
			gc1 = readGC()
			switch {
			case o.update:
				if t.failed > 0 {
					return result{}, fmt.Errorf("not writing %s: the run failed its checks", refPath(o))
				}
				if err := writeRef(o, p.output); err != nil {
					return result{}, err
				}
			case haveRef:
				t.check(p.output == ref, "%s output differs from reference %s", w.name, refPath(o))
			default:
				fmt.Fprintf(os.Stderr, "perfbench: no reference for %s; checked invariants and repeatability only\n", refPath(o))
			}
		} else {
			t.check(p.output == first.output, "%s output of repetition %d differs from the first", w.name, i+1)
		}
		// Stop unless another repetition would end within half a
		// repetition of the budget, so a run lasts about -seconds.
		if elapsed := time.Since(start); elapsed+p.wall/2 > budget {
			break
		}
	}
	debug.FreeOSMemory()
	r, err := refPass()
	if err != nil {
		return result{}, err
	}
	refs = append(refs, r)
	for len(setups) < setupGroups {
		s, err := timeSetup(o)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, s)
	}

	norms := make([]float64, len(walls))
	for i, wall := range walls {
		norms[i] = wall * refNominal / ((refs[i] + refs[i+1]) / 2)
	}
	wall := slices.Min(walls)
	m := map[string]metric{
		"norm_wall_s": {median(norms), "s"},
		"setup_s":     {median(setups) * refNominal / median(refs), "s"},
		"alloc_mb":    {slices.Min(allocs), "MB"},
		"peak_rss_mb": {slices.Min(rss), "MB"},
	}
	printSummary(w, o, first, walls, refs, m)
	if o.trace {
		lm, err := tracedPass(w, o, first, wall, gc0, gc1, &t)
		if err != nil {
			return result{}, err
		}
		m = lm
	}
	fmt.Printf("  %-18s %14.4f %-9s %d failed of %d checked operations\n",
		"error_rate", float64(t.failed)/float64(t.attempted), "fraction", t.failed, t.attempted)
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// runPass runs the workload's fixed work once in a fresh work
// directory (so every modelled cache and result cache starts empty) and
// records its host time, allocation and resident-set peak.
func runPass(w *workloadDef, o options, t *tally) (*pass, error) {
	dir, err := os.MkdirTemp(o.workdir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	start := time.Now()
	p, err := w.run(o, dir, t)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	p.wall = wall
	p.allocBytes = after.TotalAlloc - before.TotalAlloc
	if p.peakRSS, err = peakRSS(); err != nil {
		return nil, err
	}
	return p, nil
}

// resetPeakRSS sets the kernel's record of the process's resident-set
// peak (VmHWM) back to the current resident set.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the resident-set peak: %w", err)
	}
	return nil
}

// peakRSS returns the process's resident-set peak since the last
// resetPeakRSS, in bytes, from /proc/self/status.
func peakRSS() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscan(rest, &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb * 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// timeSetup starts one group of setupGroupSize fresh processes that each
// do the workload's set-up and exit, and returns the shortest wall time
// from process start to exit.
func timeSetup(o options) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	args := []string{"-mode", "setup", "-workload", o.workload,
		"-seed", fmt.Sprint(o.seed), "-scale", fmt.Sprint(o.scale), "-workdir", o.workdir}
	samples := make([]float64, setupGroupSize)
	for i := range samples {
		cmd := exec.Command(exe, args...)
		cmd.Stdout = io.Discard
		cmd.Stderr = os.Stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("set-up process: %w", err)
		}
		samples[i] = time.Since(start).Seconds()
	}
	return slices.Min(samples), nil
}

// gcSample is a snapshot of the runtime's GC counters.
type gcSample struct {
	cycles        uint64
	gcCPU, allCPU float64
}

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return gcSample{cycles: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), allCPU: s[2].Value.Float64()}
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// printSummary prints every end-to-end figure, including those that exist
// only for some workloads (simulated throughput, model speed-up, error
// rate), by name with its unit. It goes to stdout ahead of the JSON line.
func printSummary(w *workloadDef, o options, p *pass, walls, refs []float64, m map[string]metric) {
	wall := slices.Min(walls)
	fmt.Printf("perfbench: workload=%s seed=%d scale=%g workers=%d repetitions=%d\n",
		w.name, o.seed, o.scale, workers, len(walls))
	line := func(name string, v float64, unit, note string) {
		fmt.Printf("  %-18s %14.4f %-9s %s\n", name, v, unit, note)
	}
	line("norm_wall_s", m["norm_wall_s"].Value, "s", fmt.Sprintf("median over %d repetitions of wall time at the reference speed", len(walls)))
	line("wall_s", wall, "s", fmt.Sprintf("fastest of %d repetitions (median %.3f, max %.3f)", len(walls), median(walls), slices.Max(walls)))
	line("ref_s", median(refs), "s", fmt.Sprintf("median reference pass (min %.3f, max %.3f; %.3f at the reference speed)", slices.Min(refs), slices.Max(refs), refNominal))
	line("setup_s", m["setup_s"].Value, "s", fmt.Sprintf("median over %d groups of the fastest of %d fresh processes, at the reference speed", setupGroups, setupGroupSize))
	if p.cycles > 0 {
		line("sim_kcycles_per_s", float64(p.cycles)/wall/1e3, "kcycles/s", fmt.Sprintf("%d simulated cycles", p.cycles))
		line("sim_kips", float64(p.retired)/wall/1e3, "kinstr/s", fmt.Sprintf("%d retired instructions", p.retired))
	}
	line("alloc_mb", m["alloc_mb"].Value, "MB", "smallest TotalAlloc delta over the repetitions")
	line("peak_rss_mb", m["peak_rss_mb"].Value, "MB", "smallest resident-set peak (VmHWM) over the repetitions")
	if p.speedup > 0 {
		note := p.speedupNote
		if w.paperSpeedup > 0 {
			note += fmt.Sprintf("; paper %.2fx, model error %+.1f%%", w.paperSpeedup, 100*(p.speedup/w.paperSpeedup-1))
		}
		line("model_speedup", p.speedup, "x", note)
	}
}
