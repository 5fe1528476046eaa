package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"invisifence"
	"invisifence/internal/crossval"
	"invisifence/internal/isa"
	"invisifence/internal/litmus"
	"invisifence/internal/runcache"
	"invisifence/internal/workload"
)

// workloadDef is one benchmark workload: a fixed unit of work run through
// a public entry point, and the set-up a process does before it.
type workloadDef struct {
	name         string
	defaultScale float64
	// paperSpeedup is the paper's figure for model_speedup (0 = none).
	paperSpeedup float64
	setup        func(o options) error
	run          func(o options, dir string, t *tally) (*pass, error)
}

// pass is one execution of a workload's fixed work.
type pass struct {
	// output is the user-visible output compared with the reference.
	output string
	// cells maps "workload/variant-name/linkbw" to the result the public
	// path produced, for the traced rebuild to match bit for bit.
	cells map[string]invisifence.Result
	// cycles and retired are summed over every simulated cell.
	cycles, retired uint64
	// speedup is the geomean simulated speed-up of the speculative
	// variant over its conventional base (0 when the workload has none).
	speedup     float64
	speedupNote string
	// warm is the time of rc-contention's second, fully cached sweep.
	warm  time.Duration
	cache runcache.Stats

	wall       time.Duration
	allocBytes uint64
	peakRSS    float64
}

var workloads = map[string]*workloadDef{
	"fig8":          {name: "fig8", defaultScale: 0.25, paperSpeedup: 1.36, setup: fig8Setup, run: fig8Run},
	"rc-contention": {name: "rc-contention", defaultScale: 0.1, setup: rcSetup, run: rcRun},
	"oracle":        {name: "oracle", defaultScale: 1, setup: oracleSetup, run: oracleRun},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// fig8Variants are the six bars of Figure 8 in VariantByName spelling.
var fig8Variants = []string{"sc", "tso", "rmo", "invisi-sc", "invisi-tso", "invisi-rmo"}

func cellKey(wl string, v invisifence.Variant, linkbw uint64) string {
	return fmt.Sprintf("%s/%s/%d", wl, v.Name, linkbw)
}

func variant(name string) invisifence.Variant {
	v, err := invisifence.VariantByName(name)
	if err != nil {
		panic(err) // the benchmark's own variant lists are constants
	}
	return v
}

// fig8Cells lists the 42 Figure 8 cell configurations, as Campaign builds
// them.
func fig8Cells(o options) []invisifence.Config {
	var cfgs []invisifence.Config
	for _, wl := range invisifence.Workloads() {
		for _, name := range fig8Variants {
			cfgs = append(cfgs, invisifence.Config{
				Machine: invisifence.DefaultMachine(), Variant: variant(name),
				Workload: wl, Seed: o.seed, Scale: o.scale,
			})
		}
	}
	return cfgs
}

// expand does a simulation workload's set-up: key every job the way the
// result cache does, and generate each distinct input program once.
func expand(o options, cfgs []invisifence.Config) error {
	generated := map[string]bool{}
	for _, cfg := range cfgs {
		_ = invisifence.ResultKey(cfg)
		k := cfg.Workload + "/" + cfg.Variant.Model.String()
		if generated[k] {
			continue
		}
		generated[k] = true
		if _, err := workload.Get(cfg.Workload, workload.Params{
			Cores: cfg.Machine.Width * cfg.Machine.Height, Model: cfg.Variant.Model,
			Seed: cfg.Seed, Scale: cfg.Scale,
		}); err != nil {
			return err
		}
	}
	return nil
}

func fig8Setup(o options) error {
	dir, err := os.MkdirTemp(o.workdir, "setup-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	c := invisifence.NewCampaign(invisifence.ExpOptions{Seeds: []int64{o.seed}, Scale: o.scale, Parallel: workers, CacheDir: dir})
	if err := c.CacheErr(); err != nil {
		return err
	}
	return expand(o, fig8Cells(o))
}

// fig8Run regenerates Figure 8 with a fresh, empty result cache.
func fig8Run(o options, dir string, t *tally) (*pass, error) {
	c := invisifence.NewCampaign(invisifence.ExpOptions{Seeds: []int64{o.seed}, Scale: o.scale, Parallel: workers, CacheDir: dir})
	if err := c.CacheErr(); err != nil {
		return nil, err
	}
	table, err := invisifence.Figure8(c)
	ncells := len(fig8Cells(o))
	if err != nil {
		for i := 0; i < ncells; i++ {
			t.check(false, "fig8: Figure8: %v", err)
		}
		return &pass{output: "error: " + err.Error()}, nil
	}
	p := &pass{output: table.String(), cells: map[string]invisifence.Result{}, cache: c.CacheStats()}
	logGeo := 0.0
	for _, wl := range invisifence.Workloads() {
		var sc, isc uint64
		for _, name := range fig8Variants {
			v := variant(name)
			rs, err := c.Results(wl, v)
			if err != nil || len(rs) != 1 {
				t.check(false, "fig8: %s/%s: no result (%v)", wl, name, err)
				continue
			}
			r := rs[0]
			t.check(r.Validated && r.Cycles > 0, "fig8: %s/%s not validated", wl, name)
			p.cells[cellKey(wl, v, 0)] = r
			p.cycles += r.Cycles
			p.retired += r.Retired
			switch name {
			case "sc":
				sc = r.Cycles
			case "invisi-sc":
				isc = r.Cycles
			}
		}
		logGeo += math.Log(float64(sc) / float64(isc))
	}
	t.check(c.Simulated() == ncells, "fig8: simulated %d cells, want %d from an empty cache", c.Simulated(), ncells)
	p.speedup = math.Exp(logGeo / float64(len(invisifence.Workloads())))
	p.speedupNote = fmt.Sprintf("geomean %s/%s cycles over %d workloads", variant("sc").Name, variant("invisi-sc").Name, len(invisifence.Workloads()))
	printed := tableCell(table, "geomean", variant("invisi-sc").Name)
	t.check(printed == fmt.Sprintf("%.3f", p.speedup), "fig8: model_speedup %.3f differs from the Figure 8 geomean %q", p.speedup, printed)
	return p, nil
}

// tableCell returns the cell in the row whose first column is row and the
// column headed col.
func tableCell(t *invisifence.Table, row, col string) string {
	for i, h := range t.Header {
		if h != col {
			continue
		}
		for _, r := range t.Rows {
			if len(r) > i && r[0] == row {
				return r[i]
			}
		}
	}
	return ""
}

// rcSpec is the fixed RC/contention grid: three release-hot and
// barrier-heavy workloads × the RC family plus invisi-sc × latency-only
// and contended links. zeus stands in for oltp-db2: the amount of work
// oltp-db2 does varies with the seed (its Σ retired instructions spread
// by 62% over seeds 0–12), which alone put this workload's wall_s spread
// over seeds at its bound, while apache, zeus and ocean do the same work
// for every seed.
func rcSpec(o options) invisifence.SweepSpec {
	return invisifence.SweepSpec{
		Workloads:      []string{"apache", "zeus", "ocean"},
		Variants:       []string{"rc", "invisi-rc", "louvre-rc", "invisi-sc"},
		LinkBandwidths: []uint64{0, 4},
		Seeds:          []int64{o.seed},
		Scale:          o.scale,
	}
}

func rcSetup(o options) error {
	dir, err := os.MkdirTemp(o.workdir, "setup-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if _, err := runcache.Open(dir); err != nil {
		return err
	}
	jobs, err := rcSpec(o).Jobs()
	if err != nil {
		return err
	}
	return expand(o, jobs)
}

// rcRun sweeps the grid against an empty cache, then sweeps it again
// against the same cache, which must simulate nothing.
func rcRun(o options, dir string, t *tally) (*pass, error) {
	spec := rcSpec(o)
	opts := invisifence.SweepOptions{Parallel: workers, CacheDir: dir}
	cold, err := invisifence.Sweep(spec, opts)
	if err != nil {
		for i := 0; i < spec.Size(); i++ {
			t.check(false, "rc-contention: cold sweep: %v", err)
		}
		return &pass{output: "error: " + err.Error()}, nil
	}
	warmStart := time.Now()
	warm, err := invisifence.Sweep(spec, opts)
	warmTime := time.Since(warmStart)
	if err != nil {
		t.check(false, "rc-contention: warm sweep: %v", err)
		return &pass{output: "error: " + err.Error()}, nil
	}
	table := cold.Table().String()
	t.check(cold.Simulated == spec.Size(), "rc-contention: cold sweep simulated %d cells, want %d", cold.Simulated, spec.Size())
	t.check(warm.Simulated == 0, "rc-contention: warm sweep simulated %d cells, want 0", warm.Simulated)
	t.check(warm.Table().String() == table, "rc-contention: warm table differs from cold table")

	p := &pass{output: table, cells: map[string]invisifence.Result{}, warm: warmTime}
	p.cache = cold.CacheStats
	p.cache.Hits += warm.CacheStats.Hits
	p.cache.Misses += warm.CacheStats.Misses
	p.cache.Puts += warm.CacheStats.Puts
	p.cache.Errors += warm.CacheStats.Errors
	for _, r := range cold.Runs {
		res := r.Result
		t.check(res.Validated && res.Cycles > 0, "rc-contention: %s/%s/linkbw %d not validated",
			r.Config.Workload, r.Config.Variant.Name, r.Config.Machine.LinkBandwidth)
		p.cells[cellKey(r.Config.Workload, r.Config.Variant, r.Config.Machine.LinkBandwidth)] = res
		p.cycles += res.Cycles
		p.retired += res.Retired
	}
	logGeo, pairs := 0.0, 0
	rc, irc := variant("rc"), variant("invisi-rc")
	for _, wl := range spec.Workloads {
		for _, bw := range spec.LinkBandwidths {
			base, specul := p.cells[cellKey(wl, rc, bw)].Cycles, p.cells[cellKey(wl, irc, bw)].Cycles
			if base == 0 || specul == 0 {
				continue
			}
			logGeo += math.Log(float64(base) / float64(specul))
			pairs++
		}
	}
	if pairs > 0 {
		p.speedup = math.Exp(logGeo / float64(pairs))
		p.speedupNote = fmt.Sprintf("geomean %s/%s cycles over %d workload x linkbw pairs", rc.Name, irc.Name, pairs)
	}
	return p, nil
}

// oracleSeeds scales crossval's 48 interleaving seeds (the count its
// checked summary is defined on) by -scale, for the smoke test.
func oracleSeeds(o options) int {
	return max(1, int(math.Round(48*o.scale)))
}

func oracleSetup(o options) error {
	if _, err := runcache.Open(""); err != nil {
		return err
	}
	for _, test := range litmus.Tests {
		litmus.BodyPrograms(test, isa.NoFences)
	}
	return nil
}

// oracleRun cross-validates the static fence analyzer against the
// simulator over the whole litmus corpus, with an in-memory result cache.
// The corpus and its interleaving seeds are fixed, so the seed does not
// change this workload's input.
func oracleRun(o options, dir string, t *tally) (*pass, error) {
	cache, err := runcache.Open("")
	if err != nil {
		return nil, err
	}
	rep, err := crossval.Run(crossval.Options{Seeds: oracleSeeds(o), Workers: workers, Cache: cache})
	if err != nil {
		t.check(false, "oracle: crossval: %v", err)
		return &pass{output: "error: " + err.Error()}, nil
	}
	for _, c := range rep.Cells {
		t.check(c.Class != crossval.ClassViolation, "oracle: %s/%s soundness violation: %s", c.Test, c.Config, c.Detail)
	}
	return &pass{output: rep.String(), cache: cache.Stats()}, nil
}

// refPath names the reference output for a workload, scale and seed. The
// oracle's input does not depend on the seed, so its references do not
// either.
func refPath(o options) string {
	name := fmt.Sprintf("%s-scale%g-seed%d.txt", o.workload, o.scale, o.seed)
	if o.workload == "oracle" {
		name = fmt.Sprintf("%s-scale%g.txt", o.workload, o.scale)
	}
	return filepath.Join(o.refs, name)
}

func loadRef(o options) (string, bool, error) {
	data, err := os.ReadFile(refPath(o))
	if os.IsNotExist(err) {
		return "", false, nil
	}
	if err != nil {
		return "", false, err
	}
	return string(data), true, nil
}

func writeRef(o options, output string) error {
	if err := os.MkdirAll(o.refs, 0o755); err != nil {
		return err
	}
	return os.WriteFile(refPath(o), []byte(output), 0o644)
}
