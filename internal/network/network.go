// Package network models the paper's fabric (Table 2): a single-switch star
// topology with 100 ns links, a 100 ns switch, and 100 Gb/s ports.
//
// Messages are segmented into MTU-sized packets. Each packet serializes on
// the source port, propagates over the source link, pays the switch latency,
// serializes on the destination port (modeling the egress link rate and
// destination contention), and propagates over the destination link. The
// fabric preserves packet — and therefore message — order per (src, dst)
// pair and conserves bandwidth on every port.
package network

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/sim"
)

// NodeID identifies a node (port) on the fabric.
type NodeID int

// Message is one network transfer between two nodes. The fabric treats the
// payload as opaque; NIC models attach whatever metadata they need.
type Message struct {
	Src, Dst NodeID
	Size     int64 // payload size in bytes (headers are ignored)
	Kind     string
	Payload  any

	// SentAt is stamped by the fabric when the message is injected.
	SentAt sim.Time

	// SrcEpoch and DstEpoch are incarnation epochs stamped by the sending
	// NIC: SrcEpoch is the sender's current incarnation and DstEpoch is the
	// sender's view of the destination's incarnation. The receiving NIC
	// fences frames from a dead incarnation (SrcEpoch behind its view) and
	// frames addressed to a previous life of its own (DstEpoch mismatch).
	// Both stay at the initial incarnation (1) unless a node crashes.
	SrcEpoch, DstEpoch int64

	// Corrupted is set by the fault injector when any packet of the
	// message was corrupted in flight; the receiving NIC's checksum
	// detects it (and NACKs it when reliable delivery is on).
	Corrupted bool
	// SilentCorrupt is set by the SDC plan when a packet's payload bits
	// flipped in flight WITHOUT tripping the link checksum: the link CRC
	// passes, so only the end-to-end payload checksum (or a verified
	// collective) can catch it. The receiving NIC materializes the bit
	// flips into the payload when this is set.
	SilentCorrupt bool
	// ECN is set by a congested fat-tree switch port (occupancy at or
	// above TopologyConfig.ECNThreshold when a frame of this message
	// enqueued); the receiving NIC echoes it in the corresponding ACK so
	// the sender's adaptive RTO backs off. Congestion feedback only — it
	// never fails a checksum or suppresses delivery.
	ECN bool
	// damaged marks a message with at least one dropped packet; the
	// fabric suppresses its delivery.
	damaged bool
}

// Handler receives a complete message at its destination, at the simulated
// time the last byte arrives.
type Handler func(m *Message)

// packet is one MTU-sized segment of a message in flight. Packets are
// pooled (see Fabric.newPacket): arrive and deliver are bound to
// the packet object once, when it is first allocated, so the two per-hop
// schedules — switch flight and destination-link propagation — allocate
// no closures in steady state.
type packet struct {
	msg   *Message
	bytes int64
	last  bool
	// dst caches int(msg.Dst) for the pre-bound hop callbacks.
	dst     int
	arrive  func()
	deliver func()
}

// port is one serialization stage of a fabric port: a FIFO of waiting
// packets plus the packet currently on the wire. Serialization is modeled
// as a chain of completion events — one event per packet — rather than a
// pump process, which would cost two goroutine context switches per
// packet. done is the stage's pre-bound completion callback, so the
// steady-state path allocates no closures for serialization.
type port struct {
	q    []*packet
	head int
	cur  *packet // in service; nil when the stage is idle
	done func()
}

func (pq *port) push(p *packet) { pq.q = append(pq.q, p) }

func (pq *port) pop() *packet {
	p := pq.q[pq.head]
	pq.q[pq.head] = nil
	pq.head++
	if pq.head == len(pq.q) {
		pq.q = pq.q[:0]
		pq.head = 0
	}
	return p
}

func (pq *port) empty() bool { return pq.head == len(pq.q) }

// Fabric is the star-topology interconnect.
type Fabric struct {
	eng *sim.Engine
	cfg config.NetworkConfig
	inj *fault.Injector
	au  *audit.Auditor

	egress   []port // per-source injection stage
	ingress  []port // per-destination switch output stage
	handlers []Handler

	bytesSent      []int64
	bytesDelivered []int64
	msgsDelivered  []int64
	pktsDropped    int64
	msgsLost       int64
	msgsCorrupted  int64
	lastDelivery   sim.Time

	// pktFree recycles packet objects: drawn in Send, returned on delivery
	// or drop.
	pktFree []*packet
}

// NewFabric creates a fabric with n nodes. Handlers must be bound with
// Bind before traffic reaches a node.
func NewFabric(eng *sim.Engine, cfg config.NetworkConfig, n int) *Fabric {
	if n <= 0 {
		panic("network: fabric needs at least one node")
	}
	f := &Fabric{
		eng:            eng,
		cfg:            cfg,
		egress:         make([]port, n),
		ingress:        make([]port, n),
		handlers:       make([]Handler, n),
		bytesSent:      make([]int64, n),
		bytesDelivered: make([]int64, n),
		msgsDelivered:  make([]int64, n),
	}
	for i := 0; i < n; i++ {
		i := i
		f.egress[i].done = func() { f.egressDone(i) }
		f.ingress[i].done = func() { f.ingressDone(i) }
	}
	return f
}

// newPacket draws a recycled packet from the free list (or allocates one,
// binding its hop callbacks exactly once).
func (f *Fabric) newPacket() *packet {
	if n := len(f.pktFree); n > 0 {
		p := f.pktFree[n-1]
		f.pktFree[n-1] = nil
		f.pktFree = f.pktFree[:n-1]
		return p
	}
	p := &packet{}
	p.arrive = func() {
		f.ingress[p.dst].push(p)
		if f.ingress[p.dst].cur == nil {
			f.ingressStart(p.dst)
		}
	}
	p.deliver = func() { f.deliverPacket(p) }
	return p
}

// freePacket returns a retired packet to the free list. The caller must
// hold the only remaining reference.
func (f *Fabric) freePacket(p *packet) {
	p.msg = nil
	f.pktFree = append(f.pktFree, p)
}

// Nodes returns the number of ports.
func (f *Fabric) Nodes() int { return len(f.handlers) }

// Bind installs the delivery handler for a node.
func (f *Fabric) Bind(id NodeID, h Handler) {
	f.handlers[id] = h
}

// SetInjector installs the fault injector. A nil injector (the default)
// keeps the fabric lossless.
func (f *Fabric) SetInjector(in *fault.Injector) { f.inj = in }

// SetAuditor installs the invariant auditor's per-pair message
// conservation hooks. Nil keeps the hooks no-ops.
func (f *Fabric) SetAuditor(a *audit.Auditor) { f.au = a }

// Send injects a message. It is asynchronous: the call returns immediately
// and delivery happens via the destination handler. Sending to self is
// rejected — loopback is the NIC model's job, not the fabric's.
func (f *Fabric) Send(m *Message) {
	if int(m.Src) < 0 || int(m.Src) >= len(f.handlers) || int(m.Dst) < 0 || int(m.Dst) >= len(f.handlers) {
		panic(fmt.Sprintf("network: send %d->%d outside fabric of %d nodes", m.Src, m.Dst, len(f.handlers)))
	}
	if m.Src == m.Dst {
		panic("network: fabric does not route loopback traffic")
	}
	if m.Size < 0 {
		panic("network: negative message size")
	}
	if f.handlers[m.Dst] == nil {
		panic(fmt.Sprintf("network: send %d->%d but no handler is bound for node %d (call Bind before sending)", m.Src, m.Dst, m.Dst))
	}
	src := int(m.Src)
	m.SentAt = f.eng.Now()
	f.bytesSent[src] += m.Size
	f.au.MessageSent(src, int(m.Dst))

	remaining := m.Size
	for {
		chunk := remaining
		if chunk > f.cfg.MTUBytes {
			chunk = f.cfg.MTUBytes
		}
		remaining -= chunk
		pkt := f.newPacket()
		pkt.msg, pkt.bytes, pkt.last, pkt.dst = m, chunk, remaining == 0, int(m.Dst)
		f.egress[m.Src].push(pkt)
		if remaining == 0 {
			break
		}
	}
	if f.egress[m.Src].cur == nil {
		f.egressStart(int(m.Src))
	}
}

// egressStart puts the next queued packet on the source link. The
// completion event fires when its last byte has serialized.
func (f *Fabric) egressStart(portID int) {
	pq := &f.egress[portID]
	pq.cur = pq.pop()
	f.eng.After(sim.BytesAtGbps(pq.cur.bytes, f.cfg.BandwidthGbps), pq.done)
}

// egressDone finishes one packet's source-port serialization and launches
// it toward the switch.
func (f *Fabric) egressDone(portID int) {
	pq := &f.egress[portID]
	pkt := pq.cur
	pq.cur = nil
	// Fault-injection point: the packet has consumed its serialization
	// time on the source port (a dropped packet still wasted that
	// bandwidth) and is about to enter the switch.
	flight := f.cfg.LinkLatency + f.cfg.SwitchLatency
	dropped := false
	if f.inj != nil {
		fate := f.inj.Packet(f.eng.Now(), int(pkt.msg.Src), int(pkt.msg.Dst))
		if fate.Drop {
			f.pktsDropped++
			if !pkt.msg.damaged {
				pkt.msg.damaged = true
				f.msgsLost++
				f.au.MessageLost(portID, pkt.dst)
			}
			dropped = true
		} else {
			if fate.Corrupt && !pkt.msg.Corrupted {
				pkt.msg.Corrupted = true
				f.msgsCorrupted++
			}
			// Silent wire corruption: the payload bits flip but the link
			// checksum stays green, so the Corrupted flag is NOT set and
			// the frame delivers normally. Drawn from the SDC plan's
			// private RNG so arming it never shifts the injector stream.
			if f.inj.SDC().WirePacket(f.eng.Now(), int(pkt.msg.Src), int(pkt.msg.Dst)) {
				pkt.msg.SilentCorrupt = true
			}
			if fate.DelayFactor > 1 {
				// Link degradation stretches propagation + switching, not
				// serialization: the port drained at full rate, the medium
				// is what got slow.
				flight = sim.Time(float64(flight) * fate.DelayFactor)
			}
			flight += fate.Delay
		}
	}
	if dropped {
		f.freePacket(pkt)
	} else {
		// Propagation to the switch plus switch traversal, then enqueue on
		// the destination port. Flight time is pure delay (pipelined), so
		// model it with a scheduled event rather than occupying the port.
		f.eng.After(flight, pkt.arrive)
	}
	if !pq.empty() {
		f.egressStart(portID)
	}
}

// ingressStart puts the next queued packet on the destination link.
func (f *Fabric) ingressStart(portID int) {
	pq := &f.ingress[portID]
	pq.cur = pq.pop()
	f.eng.After(sim.BytesAtGbps(pq.cur.bytes, f.cfg.BandwidthGbps), pq.done)
}

// ingressDone finishes one packet's destination-port serialization and,
// after the destination link propagation, delivers completed messages to
// the bound handler.
func (f *Fabric) ingressDone(portID int) {
	pq := &f.ingress[portID]
	pktDone := pq.cur
	pq.cur = nil
	f.eng.After(f.cfg.LinkLatency, pktDone.deliver)
	if !pq.empty() {
		f.ingressStart(portID)
	}
}

// deliverPacket lands one packet at its destination after the final link
// propagation, handing complete messages to the bound handler. The packet
// is recycled here (the handler may immediately reuse it for a reply).
func (f *Fabric) deliverPacket(pkt *packet) {
	portID := pkt.dst
	last, m := pkt.last, pkt.msg
	f.bytesDelivered[portID] += pkt.bytes
	f.freePacket(pkt)
	if !last {
		return
	}
	if m.damaged {
		// At least one packet of the message was dropped: the message
		// never completes at the receiver.
		return
	}
	f.msgsDelivered[portID]++
	f.lastDelivery = f.eng.Now()
	f.au.MessageDelivered(int(m.Src), portID)
	h := f.handlers[portID]
	if h == nil {
		panic(fmt.Sprintf("network: no handler bound for node %d", portID))
	}
	h(m)
}

// UnloadedLatency returns the end-to-end latency of a message of the given
// size on an idle fabric: ser(src) + link + switch + ser(dst) + link.
func (f *Fabric) UnloadedLatency(size int64) sim.Time {
	ser := func(n int64) sim.Time {
		var t sim.Time
		for n > 0 {
			chunk := n
			if chunk > f.cfg.MTUBytes {
				chunk = f.cfg.MTUBytes
			}
			t += sim.BytesAtGbps(chunk, f.cfg.BandwidthGbps)
			n -= chunk
		}
		return t
	}
	// With >MTU messages the two serialization stages pipeline; the
	// end-to-end time is first-stage full serialization + one more MTU on
	// the second stage. For single-packet messages it is simply 2x ser.
	full := ser(size)
	lastChunk := size % f.cfg.MTUBytes
	if lastChunk == 0 {
		lastChunk = min64(size, f.cfg.MTUBytes)
	}
	return full + sim.BytesAtGbps(lastChunk, f.cfg.BandwidthGbps) +
		2*f.cfg.LinkLatency + f.cfg.SwitchLatency
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// BytesSent returns the bytes injected by a node.
func (f *Fabric) BytesSent(id NodeID) int64 { return f.bytesSent[id] }

// BytesDelivered returns the bytes delivered to a node.
func (f *Fabric) BytesDelivered(id NodeID) int64 { return f.bytesDelivered[id] }

// MessagesDelivered returns the count of complete messages delivered to a node.
func (f *Fabric) MessagesDelivered(id NodeID) int64 { return f.msgsDelivered[id] }

// LastDelivery returns the time of the most recent message delivery.
func (f *Fabric) LastDelivery() sim.Time { return f.lastDelivery }

// PacketsDropped returns the number of packets the fault injector dropped.
func (f *Fabric) PacketsDropped() int64 { return f.pktsDropped }

// MessagesLost returns the number of messages that lost at least one packet
// and were therefore never delivered.
func (f *Fabric) MessagesLost() int64 { return f.msgsLost }

// MessagesCorrupted returns the number of messages flagged corrupt in flight.
func (f *Fabric) MessagesCorrupted() int64 { return f.msgsCorrupted }
