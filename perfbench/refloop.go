package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// The reference pass measures how fast the host runs at the moment. On a
// shared machine that drifts with what other tenants do, in stretches of
// tens of seconds: ten rc-contention runs of identical input, each the
// fastest of about fifteen repetitions, ranged from 2.1 s to 3.3 s. Process
// CPU time moved exactly as wall time did, so the time is not lost to
// other processes but to a slower CPU (shared caches, memory bandwidth,
// sibling hyperthreads). A fixed pass of the benchmark's own code, run
// in the measuring process between repetitions, slows with it, and the
// program cannot change it. Replayed over recorded 40 s windows in slow
// phases of the host, the median of repetitions normalised by the passes
// on either side varied by 4% (coefficient of variation) on rc-contention
// and fig8, where the fastest raw repetition varied by 11% and 8%. The
// pass has three parts, because the simulator slows under every kind of
// contention: branchy integer work, random read-modify-writes over a
// 16 MB table, and Go map inserts and lookups over freshly allocated nodes.

// refTableWords sizes the reference pass's table: 16 MB.
const refTableWords = 2 << 20

// refNominal is the reference pass's time, in seconds, on the 2-vCPU host
// the bounds were set on, in a calm phase. It only sets the scale of the
// normalised times, which read as seconds at that host speed.
const refNominal = 0.3

type refNode struct {
	key  uint64
	next *refNode
	pad  [4]uint64
}

// refPass runs the reference pass once and returns its time in seconds.
// The table is mapped outside the Go heap, touched before timing starts
// and unmapped afterwards; callers collect the map's garbage before the
// next repetition, so the pass leaves the heap and resident set as it
// found them.
func refPass() (float64, error) {
	mem, err := syscall.Mmap(-1, 0, refTableWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return 0, fmt.Errorf("mapping the reference pass's table: %w", err)
	}
	defer syscall.Munmap(mem)
	tab := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), refTableWords)
	for i := range tab {
		tab[i] = uint64(i)
	}

	start := time.Now()
	x, acc := uint64(88172645463325252), uint64(0)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := 0; i < 15_000_000; i++ {
		if next()&3 == 1 {
			acc += x >> 3
		} else {
			acc ^= x
		}
	}
	for i := 0; i < 3_000_000; i++ {
		j := next() & (refTableWords - 1)
		tab[j] += acc
		acc += tab[(j*7)&(refTableWords-1)]
	}
	m := map[uint64]*refNode{}
	var prev *refNode
	for i := 0; i < 150_000; i++ {
		n := &refNode{key: next(), next: prev}
		m[n.key%200_000] = n
		prev = n
	}
	for i := uint64(0); i < 600_000; i++ {
		if n, ok := m[i%200_000]; ok {
			acc += n.key
		}
	}
	d := time.Since(start).Seconds()
	if acc == 0 { // keeps the loops from being optimised away
		fmt.Fprintln(os.Stderr, "perfbench: reference pass checksum is 0")
	}
	return d, nil
}
