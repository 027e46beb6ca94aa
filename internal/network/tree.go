package network

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/sim"
)

// Transport is the interface NICs speak to an interconnect. The star
// Fabric of Table 2 and the two-level TreeFabric extension both satisfy
// it, so experiments can swap topologies without touching the NIC model.
type Transport interface {
	// Bind installs the delivery handler for a node.
	Bind(id NodeID, h Handler)
	// Send injects a message (asynchronous; no loopback).
	Send(m *Message)
	// Nodes returns the port count.
	Nodes() int
	// UnloadedLatency estimates end-to-end latency on an idle fabric for
	// the topology's worst-case path.
	UnloadedLatency(size int64) sim.Time
	// BytesSent / BytesDelivered / MessagesDelivered report accounting.
	BytesSent(id NodeID) int64
	BytesDelivered(id NodeID) int64
	MessagesDelivered(id NodeID) int64
	// LastDelivery reports the most recent delivery time.
	LastDelivery() sim.Time
	// SetInjector installs a fault injector (nil = lossless).
	SetInjector(in *fault.Injector)
	// SetAuditor installs the invariant auditor's message-conservation
	// hooks (nil = no-op).
	SetAuditor(a *audit.Auditor)
	// PacketsDropped / MessagesLost / MessagesCorrupted report injected
	// fault accounting; all zero on a lossless fabric.
	PacketsDropped() int64
	MessagesLost() int64
	MessagesCorrupted() int64
}

var (
	_ Transport = (*Fabric)(nil)
	_ Transport = (*TreeFabric)(nil)
)

// stage is one store-and-forward hop: a FIFO serialized at the stage rate,
// each packet forwarded after the fixed post-latency. Like the star
// fabric's ports, a stage is an event-driven state machine — one
// serialization-completion event per packet, no pump process.
type stage struct {
	q    []*treePacket
	head int
	cur  *treePacket // in service; nil when the stage is idle
	done func()
	gbps float64
	post sim.Time
	// faultPoint marks the injection stage (the node-to-leaf egress hop);
	// fault verdicts are drawn exactly once per packet, there.
	faultPoint bool

	// Fat-tree extensions (FatTree only; all zero and inert for
	// TreeFabric — a stage with credits 0 never blocks, never marks, and
	// belongs to no switch).
	//
	// dead marks a port of a killed switch or trunk: arriving frames are
	// dropped with reason "switchdown", and full() reads false so
	// upstream ports never block on a sink.
	dead bool
	// credits bounds occupancy (queued + in-service + reserved); 0 =
	// unbounded. ecnThresh marks arriving messages when occupancy is at
	// or above it; 0 = never mark.
	credits   int
	ecnThresh int
	// reserved counts frames committed upstream (serialization started)
	// but still in post-latency flight toward this stage.
	reserved int
	// blocked is the FIFO of upstream stages stalled waiting for one of
	// this stage's credits; stalled marks a stage parked in some
	// downstream blocked list.
	blocked []*stage
	stalled bool
	// owner is the audit switch index whose hop-conservation ledger this
	// port belongs to; -1 = node-owned (the egress injection port).
	owner int
}

func (s *stage) push(p *treePacket) { s.q = append(s.q, p) }

func (s *stage) pop() *treePacket {
	p := s.q[s.head]
	s.q[s.head] = nil
	s.head++
	if s.head == len(s.q) {
		s.q = s.q[:0]
		s.head = 0
	}
	return p
}

func (s *stage) empty() bool { return s.head == len(s.q) }

type treePacket struct {
	msg   *Message
	bytes int64
	last  bool
	// path holds the remaining stages; empty means deliver.
	path []*stage
}

// TreeFabric is a two-level fat-tree-style interconnect: nodes attach to
// leaf switches; leaves connect to one root through uplinks shared by all
// of a leaf's nodes (oversubscription). Same-leaf traffic takes
// node → leaf → node; cross-leaf traffic adds the two uplink hops and the
// root switch. It extends the paper's single-switch star (Table 2) so
// topology sensitivity can be studied.
type TreeFabric struct {
	eng *sim.Engine
	cfg config.NetworkConfig
	inj *fault.Injector
	au  *audit.Auditor

	leafSize int
	nleaves  int

	egress   []*stage // per node: into its leaf
	ingress  []*stage // per node: leaf to node
	uplink   []*stage // per leaf: leaf to root
	downlink []*stage // per leaf: root to leaf

	handlers []Handler

	bytesSent      []int64
	bytesDelivered []int64
	msgsDelivered  []int64
	pktsDropped    int64
	msgsLost       int64
	msgsCorrupted  int64
	lastDelivery   sim.Time
}

// NewTreeFabric builds a tree over n nodes with leafSize nodes per leaf
// switch. n need not divide evenly; the last leaf may be partial.
func NewTreeFabric(eng *sim.Engine, cfg config.NetworkConfig, n, leafSize int) *TreeFabric {
	if n <= 0 || leafSize <= 0 {
		panic("network: tree fabric needs positive node and leaf sizes")
	}
	nleaves := (n + leafSize - 1) / leafSize
	t := &TreeFabric{
		eng:            eng,
		cfg:            cfg,
		leafSize:       leafSize,
		nleaves:        nleaves,
		handlers:       make([]Handler, n),
		bytesSent:      make([]int64, n),
		bytesDelivered: make([]int64, n),
		msgsDelivered:  make([]int64, n),
	}
	mk := func(post sim.Time) *stage {
		s := &stage{gbps: cfg.BandwidthGbps, post: post}
		s.done = func() { t.stageDone(s) }
		return s
	}
	for i := 0; i < n; i++ {
		// Node-to-leaf: propagation + leaf switch traversal. This is the
		// fault-injection stage for tree topologies.
		eg := mk(cfg.LinkLatency + cfg.SwitchLatency)
		eg.faultPoint = true
		t.egress = append(t.egress, eg)
		// Leaf-to-node: propagation only.
		t.ingress = append(t.ingress, mk(cfg.LinkLatency))
	}
	for l := 0; l < nleaves; l++ {
		// Leaf-to-root: propagation + root switch traversal.
		t.uplink = append(t.uplink, mk(cfg.LinkLatency+cfg.SwitchLatency))
		// Root-to-leaf: propagation + leaf switch traversal.
		t.downlink = append(t.downlink, mk(cfg.LinkLatency+cfg.SwitchLatency))
	}
	return t
}

// leaf returns the leaf switch index of a node.
func (t *TreeFabric) leaf(id NodeID) int { return int(id) / t.leafSize }

// Nodes implements Transport.
func (t *TreeFabric) Nodes() int { return len(t.handlers) }

// Leaves returns the leaf-switch count.
func (t *TreeFabric) Leaves() int { return t.nleaves }

// Bind implements Transport.
func (t *TreeFabric) Bind(id NodeID, h Handler) { t.handlers[id] = h }

// SetInjector implements Transport.
func (t *TreeFabric) SetInjector(in *fault.Injector) { t.inj = in }

// SetAuditor implements Transport.
func (t *TreeFabric) SetAuditor(a *audit.Auditor) { t.au = a }

// Send implements Transport.
func (t *TreeFabric) Send(m *Message) {
	if int(m.Src) < 0 || int(m.Src) >= len(t.handlers) || int(m.Dst) < 0 || int(m.Dst) >= len(t.handlers) {
		panic(fmt.Sprintf("network: tree send %d->%d outside fabric of %d nodes", m.Src, m.Dst, len(t.handlers)))
	}
	if m.Src == m.Dst {
		panic("network: fabric does not route loopback traffic")
	}
	if m.Size < 0 {
		panic("network: negative message size")
	}
	if t.handlers[m.Dst] == nil {
		panic(fmt.Sprintf("network: send %d->%d but no handler is bound for node %d (call Bind before sending)", m.Src, m.Dst, m.Dst))
	}
	m.SentAt = t.eng.Now()
	t.bytesSent[m.Src] += m.Size
	t.au.MessageSent(int(m.Src), int(m.Dst))

	var path []*stage
	if t.leaf(m.Src) == t.leaf(m.Dst) {
		path = []*stage{t.egress[m.Src], t.ingress[m.Dst]}
	} else {
		path = []*stage{
			t.egress[m.Src],
			t.uplink[t.leaf(m.Src)],
			t.downlink[t.leaf(m.Dst)],
			t.ingress[m.Dst],
		}
	}
	remaining := m.Size
	for {
		chunk := remaining
		if chunk > t.cfg.MTUBytes {
			chunk = t.cfg.MTUBytes
		}
		remaining -= chunk
		pkt := &treePacket{msg: m, bytes: chunk, last: remaining == 0, path: path[1:]}
		path[0].push(pkt)
		if remaining == 0 {
			break
		}
	}
	if path[0].cur == nil {
		t.stageStart(path[0])
	}
}

// stageStart puts the next queued packet on a stage's wire; the completion
// event fires when its last byte has serialized.
func (t *TreeFabric) stageStart(s *stage) {
	s.cur = s.pop()
	t.eng.After(sim.BytesAtGbps(s.cur.bytes, s.gbps), s.done)
}

// stageDone finishes one packet's serialization on a stage and forwards it
// down its remaining path after the stage's post-latency.
func (t *TreeFabric) stageDone(s *stage) {
	pkt := s.cur
	s.cur = nil
	post := s.post
	dropped := false
	if s.faultPoint && t.inj != nil {
		fate := t.inj.Packet(t.eng.Now(), int(pkt.msg.Src), int(pkt.msg.Dst))
		if fate.Drop {
			t.pktsDropped++
			if !pkt.msg.damaged {
				pkt.msg.damaged = true
				t.msgsLost++
				t.au.MessageLost(int(pkt.msg.Src), int(pkt.msg.Dst))
			}
			dropped = true
		} else {
			if fate.Corrupt && !pkt.msg.Corrupted {
				pkt.msg.Corrupted = true
				t.msgsCorrupted++
			}
			if fate.DelayFactor > 1 {
				// Degradation stretches the hop latency the packet is about
				// to pay (propagation + switching), not its serialization.
				post = sim.Time(float64(post) * fate.DelayFactor)
			}
			post += fate.Delay
		}
	}
	if !dropped {
		next := pkt
		t.eng.After(post, func() {
			if len(next.path) > 0 {
				ns := next.path[0]
				next.path = next.path[1:]
				ns.push(next)
				if ns.cur == nil {
					t.stageStart(ns)
				}
				return
			}
			t.deliver(next)
		})
	}
	if !s.empty() {
		t.stageStart(s)
	}
}

func (t *TreeFabric) deliver(pkt *treePacket) {
	dst := pkt.msg.Dst
	t.bytesDelivered[dst] += pkt.bytes
	if pkt.last {
		if pkt.msg.damaged {
			return
		}
		t.msgsDelivered[dst]++
		t.lastDelivery = t.eng.Now()
		t.au.MessageDelivered(int(pkt.msg.Src), int(dst))
		h := t.handlers[dst]
		if h == nil {
			panic(fmt.Sprintf("network: no handler bound for node %d", dst))
		}
		h(pkt.msg)
	}
}

// UnloadedLatency implements Transport for the worst-case (cross-leaf)
// path: four serialization stages pipelined plus the fixed latencies.
func (t *TreeFabric) UnloadedLatency(size int64) sim.Time {
	ser := func(n int64) sim.Time {
		var out sim.Time
		for n > 0 {
			chunk := n
			if chunk > t.cfg.MTUBytes {
				chunk = t.cfg.MTUBytes
			}
			out += sim.BytesAtGbps(chunk, t.cfg.BandwidthGbps)
			n -= chunk
		}
		return out
	}
	full := ser(size)
	lastChunk := size % t.cfg.MTUBytes
	if lastChunk == 0 {
		lastChunk = min64(size, t.cfg.MTUBytes)
	}
	// First stage streams the whole message; the three later stages each
	// add one more chunk of pipeline fill.
	fixed := 4*t.cfg.LinkLatency + 3*t.cfg.SwitchLatency
	return full + 3*sim.BytesAtGbps(lastChunk, t.cfg.BandwidthGbps) + fixed
}

// BytesSent implements Transport.
func (t *TreeFabric) BytesSent(id NodeID) int64 { return t.bytesSent[id] }

// BytesDelivered implements Transport.
func (t *TreeFabric) BytesDelivered(id NodeID) int64 { return t.bytesDelivered[id] }

// MessagesDelivered implements Transport.
func (t *TreeFabric) MessagesDelivered(id NodeID) int64 { return t.msgsDelivered[id] }

// LastDelivery implements Transport.
func (t *TreeFabric) LastDelivery() sim.Time { return t.lastDelivery }

// PacketsDropped implements Transport.
func (t *TreeFabric) PacketsDropped() int64 { return t.pktsDropped }

// MessagesLost implements Transport.
func (t *TreeFabric) MessagesLost() int64 { return t.msgsLost }

// MessagesCorrupted implements Transport.
func (t *TreeFabric) MessagesCorrupted() int64 { return t.msgsCorrupted }
