package network

import (
	"testing"
	"testing/quick"

	"invisifence/internal/coherence"
	"invisifence/internal/memtypes"
	"invisifence/internal/stats"
)

// pl wraps a test tag in the wire format (the only payload the network
// carries since devirtualization); tag reads it back.
func pl(i int) coherence.Msg { return coherence.Msg{Addr: memtypes.Addr(i)} }

func payloadTag(m Message) int { return int(m.Payload.Addr) }

func mk(t *testing.T, cfg Config) *Network {
	t.Helper()
	return New(cfg)
}

func TestHopsTorus4x4(t *testing.T) {
	n := mk(t, Config{Width: 4, Height: 4, HopLatency: 10})
	cases := []struct {
		a, b NodeID
		want int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, 3, 1},  // wraparound in x
		{0, 12, 1}, // wraparound in y
		{0, 5, 2},
		{0, 15, 2}, // diagonal wrap
		{0, 10, 4}, // farthest point on a 4x4 torus
		{5, 10, 2}, // (1,1)->(2,2)
	}
	for _, c := range cases {
		if got := n.Hops(c.a, c.b); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestHopsSymmetric(t *testing.T) {
	n := mk(t, Config{Width: 4, Height: 4, HopLatency: 10})
	f := func(a, b uint8) bool {
		x, y := NodeID(a%16), NodeID(b%16)
		return n.Hops(x, y) == n.Hops(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHopsTriangleInequality(t *testing.T) {
	n := mk(t, Config{Width: 4, Height: 4, HopLatency: 10})
	f := func(a, b, c uint8) bool {
		x, y, z := NodeID(a%16), NodeID(b%16), NodeID(c%16)
		return n.Hops(x, z) <= n.Hops(x, y)+n.Hops(y, z)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeliveryLatency(t *testing.T) {
	n := mk(t, Config{Width: 4, Height: 4, HopLatency: 10, LocalLatency: 1})
	n.Tick(100)
	n.Send(0, 5, pl(7)) // 2 hops = 20 cycles
	for now := uint64(101); now < 120; now++ {
		n.Tick(now)
		if _, ok := n.Recv(5); ok {
			t.Fatalf("delivered early at %d", now)
		}
	}
	n.Tick(120)
	m, ok := n.Recv(5)
	if !ok {
		t.Fatal("not delivered at latency")
	}
	if payloadTag(m) != 7 || m.Src != 0 {
		t.Fatalf("bad message %+v", m)
	}
}

func TestLocalDelivery(t *testing.T) {
	n := mk(t, Config{Width: 2, Height: 2, HopLatency: 10, LocalLatency: 1})
	n.Tick(10)
	n.Send(3, 3, pl(42))
	n.Tick(11)
	if _, ok := n.Recv(3); !ok {
		t.Fatal("local message not delivered after LocalLatency")
	}
}

func TestPerPairFIFO(t *testing.T) {
	// Even with jitter, two messages on the same (src,dst) pair must be
	// delivered in send order.
	n := mk(t, Config{Width: 4, Height: 4, HopLatency: 5, Jitter: 20, Seed: 99})
	n.Tick(1)
	for i := 0; i < 50; i++ {
		n.Send(1, 2, pl(i))
	}
	got := make([]int, 0, 50)
	for now := uint64(2); now < 500 && len(got) < 50; now++ {
		n.Tick(now)
		for {
			m, ok := n.Recv(2)
			if !ok {
				break
			}
			got = append(got, payloadTag(m))
		}
	}
	if len(got) != 50 {
		t.Fatalf("delivered %d of 50", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order at %d: %d", i, v)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int {
		n := mk(t, Config{Width: 4, Height: 4, HopLatency: 7, Jitter: 9, Seed: 4})
		n.Tick(1)
		for i := 0; i < 30; i++ {
			n.Send(NodeID(i%3), NodeID(12+i%4), pl(i))
		}
		var order []int
		for now := uint64(2); now < 300; now++ {
			n.Tick(now)
			for d := 0; d < n.Nodes(); d++ {
				for {
					m, ok := n.Recv(NodeID(d))
					if !ok {
						break
					}
					order = append(order, payloadTag(m))
				}
			}
		}
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 30 {
		t.Fatalf("lengths %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic delivery at %d", i)
		}
	}
}

func TestPendingCount(t *testing.T) {
	n := mk(t, Config{Width: 2, Height: 2, HopLatency: 10})
	n.Tick(1)
	if n.Pending() != 0 {
		t.Fatal("pending on empty network")
	}
	n.Send(0, 1, pl(1))
	if n.Pending() != 1 {
		t.Fatal("in-flight not pending")
	}
	n.Tick(11)
	if n.Pending() != 1 {
		t.Fatal("delivered-unconsumed not pending")
	}
	n.Recv(1)
	if n.Pending() != 0 {
		t.Fatal("consumed still pending")
	}
}

func TestCounters(t *testing.T) {
	n := mk(t, Config{Width: 4, Height: 4, HopLatency: 10})
	n.Tick(1)
	n.Send(0, 5, pl(1)) // 2 hops
	n.Send(0, 1, pl(2)) // 1 hop
	if n.Sent != 2 || n.TotalHops != 3 {
		t.Fatalf("sent=%d hops=%d", n.Sent, n.TotalHops)
	}
}

// TestShardOrderingMatchesSerial drives the same send schedule through a
// whole-torus network and through a two-shard partition with barrier
// exchanges, and requires identical per-destination delivery sequences —
// the composite shard ordering key must reproduce the serial global-seq
// order exactly, including same-cycle ties from different sources and
// per-pair FIFO bumps.
func TestShardOrderingMatchesSerial(t *testing.T) {
	cfg := Config{Width: 2, Height: 2, HopLatency: 5, LocalLatency: 1}
	type send struct {
		at       uint64
		src, dst NodeID
		tag      int
	}
	// Sends chosen to create same-arrival ties at shared destinations from
	// sources in both shards, plus repeated same-pair sends (FIFO bumps).
	var schedule []send
	tag := 0
	for cyc := uint64(1); cyc <= 12; cyc++ {
		for src := NodeID(0); src < 4; src++ {
			for _, dst := range []NodeID{(src + 1) % 4, (src + 2) % 4, src} {
				schedule = append(schedule, send{cyc, src, dst, tag})
				tag++
			}
		}
	}
	serial := func() [][]int {
		n := New(cfg)
		got := make([][]int, 4)
		for now := uint64(1); now <= 40; now++ {
			n.Tick(now)
			for dst := NodeID(0); dst < 4; dst++ {
				for {
					m, ok := n.Recv(dst)
					if !ok {
						break
					}
					got[dst] = append(got[dst], payloadTag(m))
				}
			}
			for _, s := range schedule {
				if s.at == now {
					n.Send(s.src, s.dst, pl(s.tag))
				}
			}
		}
		return got
	}()

	sharded := func() [][]int {
		// Shard A owns {0,1}, shard B owns {2,3}; exchange every cycle
		// (valid: min cross-shard latency >= 1).
		shards := [2]*Network{
			NewShard(cfg, []bool{true, true, false, false}),
			NewShard(cfg, []bool{false, false, true, true}),
		}
		shardOf := func(id NodeID) int {
			if id < 2 {
				return 0
			}
			return 1
		}
		got := make([][]int, 4)
		for now := uint64(1); now <= 40; now++ {
			for _, sh := range shards {
				sh.Tick(now)
			}
			for dst := NodeID(0); dst < 4; dst++ {
				sh := shards[shardOf(dst)]
				for {
					m, ok := sh.Recv(dst)
					if !ok {
						break
					}
					got[dst] = append(got[dst], payloadTag(m))
				}
			}
			for _, s := range schedule {
				if s.at == now {
					shards[shardOf(s.src)].Send(s.src, s.dst, pl(s.tag))
				}
			}
			for _, sh := range shards {
				for _, m := range sh.DrainOutbox() {
					shards[shardOf(m.Dst)].Inject([]Message{m})
				}
			}
		}
		return got
	}()

	for dst := range serial {
		if len(serial[dst]) != len(sharded[dst]) {
			t.Fatalf("dst %d: serial delivered %d, sharded %d", dst, len(serial[dst]), len(sharded[dst]))
		}
		for i := range serial[dst] {
			if serial[dst][i] != sharded[dst][i] {
				t.Fatalf("dst %d: delivery %d differs: serial tag %d, sharded tag %d",
					dst, i, serial[dst][i], sharded[dst][i])
			}
		}
	}
}

// TestShardRejectsJitter pins the fallback contract: a shard owning a
// strict subset of the nodes cannot reproduce the jitter RNG's global
// consumption order.
func TestShardRejectsJitter(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewShard accepted a jittered config")
		}
	}()
	NewShard(Config{Width: 2, Height: 2, HopLatency: 5, Jitter: 2}, []bool{true, true, false, false})
}

// TestWholeShardJitterMatchesSerial pins the jitter contract of a shard
// that owns every node: fed sends in global (cycle, node) order, it
// consumes the jitter RNG exactly as the whole-torus network does, so
// every delivery lands at the same cycle in the same order.
func TestWholeShardJitterMatchesSerial(t *testing.T) {
	cfg := Config{Width: 2, Height: 2, HopLatency: 5, LocalLatency: 1, Jitter: 7, Seed: 3}
	drive := func(n *Network) []uint64 {
		var got []uint64 // (cycle, tag) pairs, flattened
		tag := 0
		for now := uint64(1); now <= 60; now++ {
			n.Tick(now)
			for dst := NodeID(0); dst < 4; dst++ {
				for {
					m, ok := n.Recv(dst)
					if !ok {
						break
					}
					got = append(got, now, uint64(payloadTag(m)))
				}
			}
			if now > 20 {
				continue
			}
			for src := NodeID(0); src < 4; src++ {
				for _, dst := range []NodeID{(src + 1) % 4, (src + 3) % 4, src} {
					n.Send(src, dst, pl(tag))
					tag++
				}
			}
		}
		return got
	}
	want := drive(New(cfg))
	got := drive(NewShard(cfg, []bool{true, true, true, true}))
	if len(want) != 2*20*4*3 {
		t.Fatalf("serial delivered %d of %d messages", len(want)/2, 20*4*3)
	}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("whole-node shard diverged from the serial network at delivery %d", i/2)
		}
	}
}

// ------------------------------------------------------- link contention

// contCfg is a 4x4 torus with the contention model on: 10 cycles/flit, so
// a control message occupies its injection link for 10 cycles and a
// data-bearing one for 50 (header + 4 block flits).
func contCfg() Config {
	return Config{Width: 4, Height: 4, HopLatency: 100, LocalLatency: 1, LinkBandwidth: 10}
}

func TestLinkContentionSerializes(t *testing.T) {
	n := mk(t, contCfg())
	n.Tick(1)
	// Two control messages on the same injection link (0 -> 1 is the +X
	// link of node 0): the first transmits [1,11) and arrives at 11+100;
	// the second queues 10 cycles, transmits [11,21), arrives at 121.
	n.Send(0, 1, pl(1))
	n.Send(0, 1, pl(2))
	n.Tick(110)
	if _, ok := n.Recv(1); ok {
		t.Fatal("message delivered before serialization + propagation completed")
	}
	n.Tick(111)
	if m, ok := n.Recv(1); !ok || payloadTag(m) != 1 {
		t.Fatalf("first message not delivered at 111 (ok=%v)", ok)
	}
	n.Tick(120)
	if _, ok := n.Recv(1); ok {
		t.Fatal("queued message delivered before its link wait elapsed")
	}
	n.Tick(121)
	if m, ok := n.Recv(1); !ok || payloadTag(m) != 2 {
		t.Fatalf("queued message not delivered at 121 (ok=%v)", ok)
	}
	c := n.Contention
	if c.Messages != 2 || c.QueuedMessages != 1 || c.QueueDelayCycles != 10 {
		t.Errorf("counters = %+v, want 2 messages, 1 queued, 10 delay cycles", c)
	}
	if c.LinkBusyCycles != 20 || c.MaxQueueDepth != 2 {
		t.Errorf("counters = %+v, want 20 busy cycles, max depth 2", c)
	}
}

func TestLinkContentionDataFlits(t *testing.T) {
	n := mk(t, contCfg())
	n.Tick(1)
	m := pl(1)
	m.HasData = true
	n.Send(0, 1, m) // 5 flits x 10 cycles: transmits [1,51), arrives 151
	n.Tick(150)
	if _, ok := n.Recv(1); ok {
		t.Fatal("data message delivered before its serialization elapsed")
	}
	n.Tick(151)
	if _, ok := n.Recv(1); !ok {
		t.Fatal("data message not delivered at 151")
	}
	if got := n.Contention.LinkBusyCycles; got != 50 {
		t.Errorf("LinkBusyCycles = %d, want 50 (5 flits x 10 cycles)", got)
	}
}

func TestLinkContentionDistinctLinksIndependent(t *testing.T) {
	n := mk(t, contCfg())
	n.Tick(1)
	// 0->1 leaves on +X, 0->4 on +Y: different links, no queuing.
	n.Send(0, 1, pl(1))
	n.Send(0, 4, pl(2))
	n.Tick(111)
	if _, ok := n.Recv(1); !ok {
		t.Fatal("+X message not delivered uncontended")
	}
	if _, ok := n.Recv(4); !ok {
		t.Fatal("+Y message not delivered uncontended")
	}
	if q := n.Contention.QueuedMessages; q != 0 {
		t.Errorf("QueuedMessages = %d, want 0 (distinct links)", q)
	}
}

func TestLinkContentionLocalBypass(t *testing.T) {
	n := mk(t, contCfg())
	n.Tick(1)
	n.Send(0, 0, pl(1))
	n.Tick(2)
	if _, ok := n.Recv(0); !ok {
		t.Fatal("self-send not delivered at LocalLatency")
	}
	if n.Contention.Messages != 0 || n.Contention.LinkBusyCycles != 0 {
		t.Errorf("self-send touched the links: %+v", n.Contention)
	}
}

// TestLinkBandwidthZeroUnchanged pins the bit-exactness guarantee: with
// LinkBandwidth 0 the contention path is never entered and delivery times
// equal the latency-only model's.
func TestLinkBandwidthZeroUnchanged(t *testing.T) {
	n := mk(t, Config{Width: 4, Height: 4, HopLatency: 100, LocalLatency: 1})
	n.Tick(1)
	n.Send(0, 1, pl(1))
	n.Send(0, 1, pl(2))
	n.Tick(101)
	if m, ok := n.Recv(1); !ok || payloadTag(m) != 1 {
		t.Fatal("latency-only delivery at hop latency broken")
	}
	// Same-pair FIFO bump: second message one cycle later, as ever.
	n.Tick(102)
	if m, ok := n.Recv(1); !ok || payloadTag(m) != 2 {
		t.Fatal("latency-only FIFO bump broken")
	}
	if n.Contention != (stats.NetStats{}) {
		t.Errorf("latency-only run accumulated contention telemetry: %+v", n.Contention)
	}
	if ev := n.LinkNextEvent(); ev != memtypes.NoEvent {
		t.Errorf("LinkNextEvent = %d with contention off, want NoEvent", ev)
	}
}

func TestLinkNextEvent(t *testing.T) {
	n := mk(t, contCfg())
	n.Tick(1)
	if ev := n.LinkNextEvent(); ev != memtypes.NoEvent {
		t.Fatalf("idle links report next event %d, want NoEvent", ev)
	}
	n.Send(0, 1, pl(1))
	n.Send(0, 1, pl(2))
	// The link's reservation backlog runs through cycle 21 (two back-to-
	// back 10-cycle transmissions); it frees at 21, before either arrival.
	if ev := n.LinkNextEvent(); ev != 21 {
		t.Errorf("LinkNextEvent = %d, want 21", ev)
	}
	if ev := n.NextEvent(); ev != 21 {
		t.Errorf("NextEvent = %d, want 21 (link release precedes arrivals)", ev)
	}
	n.Tick(21)
	if ev := n.LinkNextEvent(); ev != memtypes.NoEvent {
		t.Errorf("LinkNextEvent = %d after release, want NoEvent", ev)
	}
	if ev := n.NextEvent(); ev != 111 {
		t.Errorf("NextEvent = %d after release, want first arrival 111", ev)
	}
}

func TestLinkQueueDepth(t *testing.T) {
	n := mk(t, contCfg())
	n.Tick(1)
	for i := 0; i < 4; i++ {
		n.Send(0, 1, pl(i))
	}
	if d := n.Contention.MaxQueueDepth; d != 4 {
		t.Errorf("MaxQueueDepth = %d, want 4", d)
	}
	// After the backlog fully drains, a fresh send sees depth 1 again (the
	// expired windows are dropped), so the max is a true high-water mark.
	n.Tick(60)
	n.Send(0, 1, pl(9))
	if d := n.Contention.MaxQueueDepth; d != 4 {
		t.Errorf("MaxQueueDepth = %d after drain+send, want 4 (high-water)", d)
	}
}

// TestShardContentionMatchesSerial mirrors TestShardOrderingMatchesSerial
// with the contention model on: per-source link state lives with the
// sender's shard, so delivery schedules and the merged contention counters
// must equal the serial network's exactly.
func TestShardContentionMatchesSerial(t *testing.T) {
	cfg := Config{Width: 2, Height: 2, HopLatency: 5, LocalLatency: 1, LinkBandwidth: 3}
	type send struct {
		at       uint64
		src, dst NodeID
		tag      int
	}
	var schedule []send
	tag := 0
	for cyc := uint64(1); cyc <= 12; cyc++ {
		for src := NodeID(0); src < 4; src++ {
			for _, dst := range []NodeID{(src + 1) % 4, (src + 2) % 4, src} {
				schedule = append(schedule, send{cyc, src, dst, tag})
				tag++
			}
		}
	}
	const horizon = 400 // generous: backlogged links push arrivals far out
	serialNet := New(cfg)
	serial := make([][]int, 4)
	for now := uint64(1); now <= horizon; now++ {
		serialNet.Tick(now)
		for dst := NodeID(0); dst < 4; dst++ {
			for {
				m, ok := serialNet.Recv(dst)
				if !ok {
					break
				}
				serial[dst] = append(serial[dst], payloadTag(m))
			}
		}
		for _, s := range schedule {
			if s.at == now {
				serialNet.Send(s.src, s.dst, pl(s.tag))
			}
		}
	}

	shards := [2]*Network{
		NewShard(cfg, []bool{true, true, false, false}),
		NewShard(cfg, []bool{false, false, true, true}),
	}
	shardOf := func(id NodeID) int {
		if id < 2 {
			return 0
		}
		return 1
	}
	sharded := make([][]int, 4)
	for now := uint64(1); now <= horizon; now++ {
		for _, sh := range shards {
			sh.Tick(now)
		}
		for dst := NodeID(0); dst < 4; dst++ {
			sh := shards[shardOf(dst)]
			for {
				m, ok := sh.Recv(dst)
				if !ok {
					break
				}
				sharded[dst] = append(sharded[dst], payloadTag(m))
			}
		}
		for _, s := range schedule {
			if s.at == now {
				shards[shardOf(s.src)].Send(s.src, s.dst, pl(s.tag))
			}
		}
		for _, sh := range shards {
			for _, m := range sh.DrainOutbox() {
				shards[shardOf(m.Dst)].Inject([]Message{m})
			}
		}
	}

	for dst := range serial {
		if len(serial[dst]) != len(sharded[dst]) {
			t.Fatalf("dst %d: serial delivered %d, sharded %d", dst, len(serial[dst]), len(sharded[dst]))
		}
		for i := range serial[dst] {
			if serial[dst][i] != sharded[dst][i] {
				t.Fatalf("dst %d: delivery %d differs: serial tag %d, sharded tag %d",
					dst, i, serial[dst][i], sharded[dst][i])
			}
		}
	}
	var merged stats.NetStats
	for _, sh := range shards {
		merged.Merge(&sh.Contention)
	}
	if merged != serialNet.Contention {
		t.Errorf("merged shard contention %+v != serial %+v", merged, serialNet.Contention)
	}
	if serialNet.Contention.QueuedMessages == 0 {
		t.Error("schedule produced no queuing; the test exercises nothing")
	}
}
