package network

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/sim"
)

// treeCfg returns netCfg with the two-level tree of leaf nodes per leaf.
func treeCfg(leaf int) config.NetworkConfig {
	c := netCfg()
	c.Topology = config.TopologyTree
	c.TreeLeafSize = leaf
	return c
}

func TestTreeSameLeafLatency(t *testing.T) {
	e := sim.NewEngine()
	f := NewFabric(e, treeCfg(4), 8)
	var arrived sim.Time
	f.Bind(1, func(m *Message) { arrived = e.Now() })
	e.Go("s", func(p *sim.Proc) { f.Send(&Message{Src: 0, Dst: 1, Size: 64}) })
	e.Run()
	// Same leaf: ser(src) + link + switch + ser(dst) + link — identical to
	// the star path.
	want := 2*sim.BytesAtGbps(64, 100) + 300*sim.Nanosecond
	if arrived != want {
		t.Fatalf("same-leaf latency = %v, want %v", arrived, want)
	}
}

func TestTreeCrossLeafLatency(t *testing.T) {
	e := sim.NewEngine()
	f := NewFabric(e, treeCfg(4), 8)
	var arrived sim.Time
	f.Bind(5, func(m *Message) { arrived = e.Now() })
	e.Go("s", func(p *sim.Proc) { f.Send(&Message{Src: 0, Dst: 5, Size: 64}) })
	e.Run()
	// Cross leaf: 4 serialization stages + 4 links + 3 switches.
	want := 4*sim.BytesAtGbps(64, 100) + 4*100*sim.Nanosecond + 3*100*sim.Nanosecond
	if arrived != want {
		t.Fatalf("cross-leaf latency = %v, want %v", arrived, want)
	}
	if f.UnloadedLatency(64) != want {
		t.Fatalf("UnloadedLatency = %v, want %v", f.UnloadedLatency(64), want)
	}
}

func TestTreeLeafAccessors(t *testing.T) {
	e := sim.NewEngine()
	f := NewFabric(e, treeCfg(4), 10)
	if f.Leaves() != 3 {
		t.Fatalf("Leaves = %d", f.Leaves())
	}
	if f.Nodes() != 10 {
		t.Fatalf("Nodes = %d", f.Nodes())
	}
}

func TestTreeUplinkOversubscription(t *testing.T) {
	// All four nodes of leaf 0 blast cross-leaf simultaneously: the shared
	// uplink serializes them, so the aggregate takes ~4x one transfer.
	e := sim.NewEngine()
	f := NewFabric(e, treeCfg(4), 8)
	for i := 4; i < 8; i++ {
		f.Bind(NodeID(i), func(m *Message) {})
	}
	const msg = 256 << 10
	e.Go("gen", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			f.Send(&Message{Src: NodeID(i), Dst: NodeID(4 + i), Size: msg})
		}
	})
	e.Run()
	elapsed := f.LastDelivery()
	uplinkFloor := sim.BytesAtGbps(4*msg, 100)
	if elapsed < uplinkFloor {
		t.Fatalf("4 cross-leaf transfers finished in %v, faster than the uplink floor %v", elapsed, uplinkFloor)
	}
	// The same load on a star finishes much faster (no shared stage).
	e2 := sim.NewEngine()
	star := NewFabric(e2, netCfg(), 8)
	for i := 4; i < 8; i++ {
		star.Bind(NodeID(i), func(m *Message) {})
	}
	e2.Go("gen", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			star.Send(&Message{Src: NodeID(i), Dst: NodeID(4 + i), Size: msg})
		}
	})
	e2.Run()
	if star.LastDelivery() >= elapsed {
		t.Fatalf("star (%v) should beat the oversubscribed tree (%v)", star.LastDelivery(), elapsed)
	}
}

// Property: the tree conserves bytes and preserves per-pair order under
// random traffic, like the star.
func TestTreeConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := sim.NewEngine()
		n := rng.Intn(6) + 2
		leaf := rng.Intn(3) + 1
		fab := NewFabric(e, treeCfg(leaf), n)
		type pair struct{ s, d NodeID }
		lastSeen := map[pair]int{}
		ok := true
		for i := 0; i < n; i++ {
			i := i
			fab.Bind(NodeID(i), func(m *Message) {
				pr := pair{m.Src, m.Dst}
				if seq := m.Payload.(int); seq <= lastSeen[pr] {
					ok = false
				} else {
					lastSeen[pr] = seq
				}
			})
		}
		var sent int64
		e.Go("gen", func(p *sim.Proc) {
			for i := 1; i <= 20; i++ {
				src, dst := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
				if src == dst {
					continue
				}
				size := int64(rng.Intn(10000))
				sent += size
				fab.Send(&Message{Src: src, Dst: dst, Size: size, Payload: i})
				p.Sleep(sim.Time(rng.Intn(500)) * sim.Nanosecond)
			}
		})
		e.Run()
		var delivered int64
		for i := 0; i < n; i++ {
			delivered += fab.BytesDelivered(NodeID(i))
		}
		return ok && delivered == sent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTreeValidation(t *testing.T) {
	e := sim.NewEngine()
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero nodes", func() { NewFabric(e, treeCfg(4), 0) })
	mustPanic("zero leaf", func() { NewFabric(e, treeCfg(0), 4) })
	f := NewFabric(e, treeCfg(2), 4)
	mustPanic("loopback", func() { f.Send(&Message{Src: 1, Dst: 1, Size: 1}) })
	mustPanic("range", func() { f.Send(&Message{Src: 0, Dst: 9, Size: 1}) })
	mustPanic("negative", func() { f.Send(&Message{Src: 0, Dst: 1, Size: -1}) })
}
