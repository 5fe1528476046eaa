package sim

import (
	"reflect"
	"testing"
)

// TestParallelBitExactContention extends the bit-exactness contract to the
// link-contention model (DESIGN.md §10): with a finite LinkBandwidth,
// lock-step, the default one-shard loop, and two and three clusters must
// still produce deeply-equal Results — including the contention telemetry,
// which is simulated machine state.
// Injection-link state is per source node, so the conservative lookahead
// and the shard ordering rule are unaffected; this test is the executable
// form of that argument.
func TestParallelBitExactContention(t *testing.T) {
	for _, c := range runnerCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			contended := func(cfg *Config) { cfg.Net.LinkBandwidth = 3 }
			lockstep := runWith(t, c.model, c.eng, func(cfg *Config) {
				contended(cfg)
				cfg.DisableIdleSkip = true
			}, nil)
			skipped := runWith(t, c.model, c.eng, contended, nil)
			par2 := runWith(t, c.model, c.eng, func(cfg *Config) {
				contended(cfg)
				cfg.Clusters = 2
			}, nil)
			par3 := runWith(t, c.model, c.eng, func(cfg *Config) {
				contended(cfg)
				cfg.Clusters = 3
			}, nil)
			if !reflect.DeepEqual(lockstep, skipped) {
				t.Errorf("default loop diverged from lock-step under contention:\nlock-step: %+v\ndefault:   %+v", lockstep, skipped)
			}
			if !reflect.DeepEqual(lockstep, par2) {
				t.Errorf("parallel(2) diverged from lock-step under contention:\nlock-step: %+v\nparallel:  %+v", lockstep, par2)
			}
			if !reflect.DeepEqual(lockstep, par3) {
				t.Errorf("parallel(3) diverged from lock-step under contention:\nlock-step: %+v\nparallel:  %+v", lockstep, par3)
			}
			// The run must actually exercise the model, or the equalities
			// above prove nothing.
			if lockstep.Net.Messages == 0 || lockstep.Net.QueuedMessages == 0 {
				t.Errorf("contention model not exercised: %+v", lockstep.Net)
			}

			// Bandwidth 0 is the latency-only torus: telemetry-free, and
			// bit-exact with a config that never mentions the knob.
			base := runWith(t, c.model, c.eng, func(cfg *Config) {}, nil)
			if base.Net.Messages != 0 {
				t.Errorf("latency-only run accumulated contention telemetry: %+v", base.Net)
			}
			// Queuing only ever delays messages, so a congested run cannot
			// finish faster than the latency-only one.
			if lockstep.Cycles < base.Cycles {
				t.Errorf("contended run finished in %d cycles, faster than latency-only %d", lockstep.Cycles, base.Cycles)
			}
		})
	}
}
