package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// profile is a CPU profile rolled up per package.
type profile struct {
	totalMs float64
	// flat is flat time per layer: invisifence/internal/<layer> packages
	// by layer name, the Go runtime as "runtime", anything else by its
	// package path.
	flat map[string]float64
	// cum is cumulative time per function.
	cum map[string]float64
}

func (p *profile) flatPct(layer string) float64 {
	if p.totalMs == 0 {
		return 0
	}
	return 100 * p.flat[layer] / p.totalMs
}

func (p *profile) cumPct(fn string) float64 {
	if p.totalMs == 0 {
		return 0
	}
	return 100 * p.cum[fn] / p.totalMs
}

// rollup reads a CPU profile with `go tool pprof -top` (every node, times
// in ms) and sums flat time per package.
func rollup(path string) (*profile, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "tool", "pprof", "-top", "-unit=ms",
		"-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", exe, path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	p := &profile{flat: map[string]float64{}, cum: map[string]float64{}}
	sc := bufio.NewScanner(bytes.NewReader(out))
	inTable := false
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "Total samples = "); i >= 0 {
			f := strings.Fields(line[i+len("Total samples = "):])
			if len(f) > 0 {
				p.totalMs, _ = parseMs(f[0])
			}
			continue
		}
		f := strings.Fields(line)
		if len(f) == 5 && f[0] == "flat" && f[1] == "flat%" {
			inTable = true
			continue
		}
		if !inTable || len(f) < 6 {
			continue
		}
		flat, err1 := parseMs(f[0])
		cum, err2 := parseMs(f[3])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("go tool pprof: unparsable line %q", line)
		}
		fn := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		p.flat[layerOf(fn)] += flat
		p.cum[fn] += cum
	}
	if p.totalMs == 0 {
		return nil, fmt.Errorf("go tool pprof: no samples in %s", path)
	}
	return p, nil
}

// parseMs parses a pprof time printed with -unit=ms ("1230ms", "0").
func parseMs(s string) (float64, error) {
	return strconv.ParseFloat(strings.TrimSuffix(s, "ms"), 64)
}

// layerOf maps a profiled function to its layer.
func layerOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return "runtime" // assembly stubs such as gcWriteBarrier carry no package
	}
	pkg := fn[:slash+1+dot]
	switch {
	case strings.HasPrefix(pkg, "invisifence/internal/"):
		return strings.TrimPrefix(pkg, "invisifence/internal/")
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return pkg
}

// printProfile prints the per-package flat-time table, largest first.
func printProfile(p *profile) {
	type row struct {
		pkg string
		ms  float64
	}
	var rows []row
	for pkg, ms := range p.flat {
		rows = append(rows, row{pkg, ms})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].ms != rows[j].ms {
			return rows[i].ms > rows[j].ms
		}
		return rows[i].pkg < rows[j].pkg
	})
	fmt.Printf("perfbench: CPU profile of the traced pass, %.0f ms sampled; flat time per package:\n", p.totalMs)
	for _, r := range rows {
		if pct := p.flatPct(r.pkg); pct >= 0.1 {
			fmt.Printf("  %-24s %6.1f%%\n", r.pkg, pct)
		}
	}
	for _, fn := range []string{"invisifence/internal/sim.New", "invisifence/internal/cpu.New", "invisifence/internal/sim.(*System).Run"} {
		fmt.Printf("  cum %-40s %6.1f%%\n", fn, p.cumPct(fn))
	}
}
