// Package network models the interconnect: one port-graph fabric that
// every topology compiles into as a shape.
//
// Nodes attach to leaf switches; podLeaves leaves plus pod-local spine
// switches form a pod; core switches join the pods. Routing is up/down:
// same-leaf traffic turns at the leaf, intra-pod traffic climbs to one
// pod spine, cross-pod traffic climbs through a spine and a core into the
// destination pod. The paper's single-switch star (Table 2) is the shape
// with one leaf holding every node and no spine or core tier; the
// two-level tree is one pod with one spine and no cores; the fat-tree is
// config.TopologyConfig.WithDefaults(). A tier with no switches builds no
// ports, so a shape pays only for the ports it routes through.
//
// Messages are segmented into MTU-sized frames. Each transmit port is a
// passive stage: a FIFO serialized at the link rate, each frame forwarded
// after the port's fixed post-latency (propagation, plus the next switch
// traversal on every hop but the last). Serialization is a chain of
// completion events — one event per frame per port, no pump goroutines —
// so the fabric replays bit-for-bit from a seed, preserves frame (and
// therefore message) order per (src, dst) pair, and conserves bandwidth
// on every port.
//
// Faults: every frame draws its fault verdict exactly once, when it
// leaves the sender's own port (drop, link corruption, silent wire
// corruption, jitter, degradation). A whole switch (leaf/spine/core) or
// one inter-switch trunk can die at a scheduled instant and optionally
// come back. A dead port drops everything queued, in service, or arriving
// — counted per switch so the auditor's hop-conservation check still
// balances — and route computation skips it: each message picks its path
// at Send from the surviving candidates in deterministic hash order, so
// retransmissions reroute around a kill without any global coordination.
// When no candidate survives the message is counted Unrouteable (never
// silently stalled) and the watchdog surfaces the named diagnosis.
//
// Congestion: QueueCredits bounds every switch port to that many frames
// (queued + in service + committed upstream); a full port backpressures
// its upstream stage — which parks in the port's blocked FIFO and resumes
// when a credit frees — instead of growing an unbounded buffer. Because
// up/down routing makes the stage graph a DAG, backpressure cannot
// deadlock. ECNThreshold marks messages that enqueue on an
// already-congested port; the receiving NIC echoes the mark in its ACK
// and the sender's adaptive RTO backs off. Both are off on the star and
// the tree.
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
	// ECN is set by a congested switch port (occupancy at or above
	// TopologyConfig.ECNThreshold when a frame of this message enqueued);
	// the receiving NIC echoes it in the corresponding ACK so the sender's
	// adaptive RTO backs off. Congestion feedback only — it never fails a
	// checksum or suppresses delivery.
	ECN bool
	// damaged marks a message with at least one dropped packet; the
	// fabric suppresses its delivery.
	damaged bool
}

// Handler receives a complete message at its destination, at the simulated
// time the last byte arrives.
type Handler func(m *Message)

// UnroutedSample records one message the fabric could not route: every
// candidate path crossed a dead switch or trunk. The watchdog's HangError
// reports these so a partitioned-by-switch-failure run diagnoses as
// Unrouteable instead of hanging.
type UnroutedSample struct {
	Src, Dst NodeID
	At       sim.Time
	// Reason names the exhausted resource, e.g. "leaf 1 down" or
	// "no surviving spine/core path".
	Reason string
}

// unroutedSampleMax bounds the retained Unrouteable samples (diagnosis
// wants a few named examples, not the full flood of an incast storm).
const unroutedSampleMax = 4

// maxHops is the longest up/down route: egress, leaf up, spine up, core
// down, spine down, ingress.
const maxHops = 6

// shape is the resolved layout a topology compiles into. spines is per
// pod; a zero spines or cores tier builds no ports.
type shape struct {
	leafSize, podLeaves, spines, cores int
	credits, ecnThresh                 int
}

// shapeOf compiles cfg.Topology over n nodes. The star ignores
// cfg.FatTree and cfg.TreeLeafSize; the tree ignores cfg.FatTree.
func shapeOf(cfg config.NetworkConfig, n int) shape {
	switch cfg.Topology {
	case config.TopologyStar, "":
		return shape{leafSize: n, podLeaves: 1}
	case config.TopologyTree:
		k := cfg.TreeLeafSize
		if k <= 0 {
			panic("network: tree fabric needs a positive leaf size")
		}
		return shape{leafSize: k, podLeaves: (n + k - 1) / k, spines: 1}
	case config.TopologyFatTree:
		t := cfg.FatTree.WithDefaults()
		return shape{t.LeafSize, t.PodLeaves, t.Spines, t.Cores, t.QueueCredits, t.ECNThreshold}
	default:
		panic(fmt.Sprintf("network: unknown topology %q", cfg.Topology))
	}
}

// stage is one transmit port: a FIFO serialized at the link rate, each
// frame forwarded after the fixed post-latency. It is an event-driven
// state machine — one serialization-completion event per frame.
type stage struct {
	q    []*packet
	head int
	cur  *packet // in service; nil when the stage is idle
	done func()
	post sim.Time
	// faultPoint marks the injection stage (the node-to-leaf egress hop);
	// fault verdicts are drawn exactly once per packet, there.
	faultPoint bool
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

func (s *stage) push(p *packet) { s.q = append(s.q, p) }

func (s *stage) pop() *packet {
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

// occupancy is the port's credit load: frames queued, in service, and
// committed by an upstream stage but still in post-latency flight.
func (s *stage) occupancy() int {
	n := len(s.q) - s.head + s.reserved
	if s.cur != nil {
		n++
	}
	return n
}

// full reports whether the port has no free credit. A dead port is never
// full: it is a sink (arrivals drop), so upstream stages must not block
// on it forever.
func (s *stage) full() bool {
	return s.credits > 0 && !s.dead && s.occupancy() >= s.credits
}

// route is one up/down path, held by value so picking it allocates
// nothing.
type route struct {
	hops [maxHops]*stage
	n    int
}

// packet is one MTU-sized frame of a message in flight. Packets are
// pooled (see Fabric.newPacket): arrive is bound to the packet once, when
// it is first allocated, and the route is copied into the packet's own
// array, so a steady-state send allocates nothing per message, packet or
// hop.
type packet struct {
	msg   *Message
	bytes int64
	last  bool
	route [maxHops]*stage
	// path is the remaining stages, sliced from route; empty means
	// deliver.
	path   []*stage
	arrive func()
}

// Fabric is the interconnect. Its ports are shared by all node pairs, all
// driven by the cluster's one engine.
type Fabric struct {
	eng   *sim.Engine
	cfg   config.NetworkConfig
	shape shape
	inj   *fault.Injector
	au    *audit.Auditor

	nleaves int
	npods   int
	nspines int // global spine count: npods * shape.spines
	ncores  int

	egress  []*stage // per node: into its leaf (fault injection point)
	ingress []*stage // per node: leaf to node

	leafUp    [][]*stage // [leaf][podSpineLocal]: leaf to pod spine
	spineDown [][]*stage // [globalSpine][podLeafLocal]: spine to pod leaf
	spineUp   [][]*stage // [globalSpine][core]: spine to core
	coreDown  [][]*stage // [core][globalSpine]: core to spine

	aliveLeaf  []bool
	aliveSpine []bool
	aliveCore  []bool

	handlers []Handler

	bytesSent      []int64
	bytesDelivered []int64
	msgsDelivered  []int64
	pktsDropped    int64
	msgsLost       int64
	msgsCorrupted  int64
	lastDelivery   sim.Time

	// Switch-domain and congestion accounting.
	switchDrops   int64 // frames dropped at dead ports ("switchdown")
	ecnMarks      int64 // messages marked by a congested port
	unrouteable   int64 // messages with no surviving path at Send
	unroutedFirst []UnroutedSample

	// pktFree recycles packet objects: drawn in Send, returned on
	// delivery or drop, emptied by ReleasePool.
	pktFree []*packet
}

// NewFabric builds the fabric over n nodes in the shape cfg.Topology
// selects. Handlers must be bound with Bind before traffic reaches a
// node.
func NewFabric(eng *sim.Engine, cfg config.NetworkConfig, n int) *Fabric {
	if n <= 0 {
		panic("network: fabric needs at least one node")
	}
	sh := shapeOf(cfg, n)
	nleaves := (n + sh.leafSize - 1) / sh.leafSize
	npods := (nleaves + sh.podLeaves - 1) / sh.podLeaves
	nspines := npods * sh.spines
	f := &Fabric{
		eng:            eng,
		cfg:            cfg,
		shape:          sh,
		nleaves:        nleaves,
		npods:          npods,
		nspines:        nspines,
		ncores:         sh.cores,
		egress:         make([]*stage, n),
		ingress:        make([]*stage, n),
		handlers:       make([]Handler, n),
		bytesSent:      make([]int64, n),
		bytesDelivered: make([]int64, n),
		msgsDelivered:  make([]int64, n),
		aliveLeaf:      make([]bool, nleaves),
		aliveSpine:     make([]bool, nspines),
		aliveCore:      make([]bool, sh.cores),
	}
	for _, alive := range [][]bool{f.aliveLeaf, f.aliveSpine, f.aliveCore} {
		for i := range alive {
			alive[i] = true
		}
	}
	// Every port comes from one slab, sized to the shape.
	slab := make([]stage, 2*n+nleaves*sh.spines+nspines*(sh.podLeaves+sh.cores)+sh.cores*nspines)
	mk := func(post sim.Time, owner int) *stage {
		s := &slab[0]
		slab = slab[1:]
		s.post, s.owner = post, owner
		if owner >= 0 {
			s.credits = sh.credits
			s.ecnThresh = sh.ecnThresh
		}
		s.done = func() { f.stageDone(s) }
		return s
	}
	ports := func(k int, post sim.Time, owner int) []*stage {
		out := make([]*stage, k)
		for i := range out {
			out[i] = mk(post, owner)
		}
		return out
	}
	hop := cfg.LinkLatency + cfg.SwitchLatency
	for i := 0; i < n; i++ {
		// Node-to-leaf: the sender's own port — unbounded (the source
		// buffer), fault injection point, owned by no switch.
		f.egress[i] = mk(hop, -1)
		f.egress[i].faultPoint = true
		// Leaf-to-node: propagation only, owned by the node's leaf.
		f.ingress[i] = mk(cfg.LinkLatency, f.leafSwitch(f.leafOf(i)))
	}
	if sh.spines > 0 {
		f.leafUp = make([][]*stage, nleaves)
		for l := range f.leafUp {
			f.leafUp[l] = ports(sh.spines, hop, f.leafSwitch(l))
		}
		f.spineDown = make([][]*stage, nspines)
		f.spineUp = make([][]*stage, nspines)
		for g := range f.spineDown {
			f.spineDown[g] = ports(sh.podLeaves, hop, f.spineSwitch(g))
			f.spineUp[g] = ports(sh.cores, hop, f.spineSwitch(g))
		}
	}
	f.coreDown = make([][]*stage, sh.cores)
	for c := range f.coreDown {
		f.coreDown[c] = ports(nspines, hop, f.coreSwitch(c))
	}
	return f
}

// leafOf returns the leaf switch index of a node.
func (f *Fabric) leafOf(node int) int { return node / f.shape.leafSize }

// Switch-index space for the audit hop-conservation ledger: leaves first,
// then global spines, then cores.
func (f *Fabric) leafSwitch(l int) int  { return l }
func (f *Fabric) spineSwitch(g int) int { return f.nleaves + g }
func (f *Fabric) coreSwitch(c int) int  { return f.nleaves + f.nspines + c }

// SwitchCount returns the total switch count across all tiers (the size
// of the audit hop ledger).
func (f *Fabric) SwitchCount() int { return f.nleaves + f.nspines + f.ncores }

// SwitchName renders a ledger index back to its tier name, for reports.
func (f *Fabric) SwitchName(sw int) string {
	switch {
	case sw < f.nleaves:
		return fmt.Sprintf("%s%d", config.SwitchTierLeaf, sw)
	case sw < f.nleaves+f.nspines:
		return fmt.Sprintf("%s%d", config.SwitchTierSpine, sw-f.nleaves)
	default:
		return fmt.Sprintf("%s%d", config.SwitchTierCore, sw-f.nleaves-f.nspines)
	}
}

// Leaves, Pods, Spines, Cores report the built shape.
func (f *Fabric) Leaves() int { return f.nleaves }
func (f *Fabric) Pods() int   { return f.npods }
func (f *Fabric) Spines() int { return f.nspines }
func (f *Fabric) Cores() int  { return f.ncores }

// Nodes returns the number of ports.
func (f *Fabric) Nodes() int { return len(f.handlers) }

// Bind installs the delivery handler for a node.
func (f *Fabric) Bind(id NodeID, h Handler) { f.handlers[id] = h }

// SetInjector installs the fault injector. A nil injector (the default)
// keeps the fabric lossless.
func (f *Fabric) SetInjector(in *fault.Injector) { f.inj = in }

// SetAuditor installs the invariant auditor's per-pair message
// conservation hooks. Nil keeps the hooks no-ops. The caller must
// RegisterHops(SwitchCount()) for the per-switch ledger.
func (f *Fabric) SetAuditor(a *audit.Auditor) { f.au = a }

// newPacket draws a recycled packet from the free list (or allocates one,
// binding its arrive callback exactly once).
func (f *Fabric) newPacket() *packet {
	if n := len(f.pktFree); n > 0 {
		p := f.pktFree[n-1]
		f.pktFree[n-1] = nil
		f.pktFree = f.pktFree[:n-1]
		return p
	}
	p := &packet{}
	p.arrive = func() { f.arrive(p) }
	return p
}

// freePacket returns a retired packet to the free list. The caller must
// hold the only remaining reference.
func (f *Fabric) freePacket(p *packet) {
	p.msg = nil
	f.pktFree = append(f.pktFree, p)
}

// ReleasePool drops the packet free list; node.Cluster.Run calls it when
// the engine drains, so the list never outlives a run.
func (f *Fabric) ReleasePool() { f.pktFree = nil }

// PooledPackets returns the number of packets on the free list.
func (f *Fabric) PooledPackets() int { return len(f.pktFree) }

// pathHash spreads (src, dst) pairs across the ECMP candidate orderings
// deterministically (no RNG: same pair, same preference order, forever).
func pathHash(src, dst NodeID) int {
	h := uint32(src)*0x9E3779B1 ^ uint32(dst)*0x85EBCA77
	h ^= h >> 16
	return int(h & 0x7FFFFFFF)
}

// pickPath computes one up/down route from src to dst over the surviving
// switches and trunks, scanning ECMP candidates from a deterministic
// hash offset. It returns an empty route and a named reason when nothing
// survives.
func (f *Fabric) pickPath(src, dst NodeID) (route, string) {
	ls, ld := f.leafOf(int(src)), f.leafOf(int(dst))
	if !f.aliveLeaf[ls] {
		return route{}, fmt.Sprintf("leaf %d down", ls)
	}
	if !f.aliveLeaf[ld] {
		return route{}, fmt.Sprintf("leaf %d down", ld)
	}
	if ls == ld {
		return route{hops: [maxHops]*stage{f.egress[src], f.ingress[dst]}, n: 2}, ""
	}
	h := pathHash(src, dst)
	sh := f.shape
	ps, pd := ls/sh.podLeaves, ld/sh.podLeaves
	if ps == pd {
		for i := 0; i < sh.spines; i++ {
			sl := (h + i) % sh.spines
			g := ps*sh.spines + sl
			up := f.leafUp[ls][sl]
			dn := f.spineDown[g][ld%sh.podLeaves]
			if !f.aliveSpine[g] || up.dead || dn.dead {
				continue
			}
			return route{hops: [maxHops]*stage{f.egress[src], up, dn, f.ingress[dst]}, n: 4}, ""
		}
		return route{}, fmt.Sprintf("no surviving spine path in pod %d", ps)
	}
	for i := 0; i < sh.spines; i++ {
		gs := ps*sh.spines + (h+i)%sh.spines
		up1 := f.leafUp[ls][gs%sh.spines]
		if !f.aliveSpine[gs] || up1.dead {
			continue
		}
		for j := 0; j < f.ncores; j++ {
			c := (h + j) % f.ncores
			up2 := f.spineUp[gs][c]
			if !f.aliveCore[c] || up2.dead {
				continue
			}
			for k := 0; k < sh.spines; k++ {
				gd := pd*sh.spines + (h+k)%sh.spines
				dn1 := f.coreDown[c][gd]
				dn2 := f.spineDown[gd][ld%sh.podLeaves]
				if !f.aliveSpine[gd] || dn1.dead || dn2.dead {
					continue
				}
				return route{hops: [maxHops]*stage{f.egress[src], up1, up2, dn1, dn2, f.ingress[dst]}, n: 6}, ""
			}
		}
	}
	return route{}, "no surviving spine/core path"
}

// Send injects a message. It is asynchronous: the call returns immediately
// and delivery happens via the destination handler. Sending to self is
// rejected — loopback is the NIC model's job, not the fabric's. The whole
// message routes over one path, chosen here; a mid-flight kill damages it
// (reliable senders retransmit and the retransmission reroutes), and a
// message with no surviving path is counted Unrouteable instead of queued
// toward a dead port.
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
	m.SentAt = f.eng.Now()
	f.bytesSent[m.Src] += m.Size
	f.au.MessageSent(int(m.Src), int(m.Dst))

	r, reason := f.pickPath(m.Src, m.Dst)
	if r.n == 0 {
		f.unrouteable++
		if len(f.unroutedFirst) < unroutedSampleMax {
			f.unroutedFirst = append(f.unroutedFirst, UnroutedSample{
				Src: m.Src, Dst: m.Dst, At: f.eng.Now(), Reason: reason,
			})
		}
		m.damaged = true
		f.msgsLost++
		f.au.MessageLost(int(m.Src), int(m.Dst))
		return
	}
	first := r.hops[0]
	remaining := m.Size
	for {
		chunk := remaining
		if chunk > f.cfg.MTUBytes {
			chunk = f.cfg.MTUBytes
		}
		remaining -= chunk
		pkt := f.newPacket()
		pkt.msg, pkt.bytes, pkt.last, pkt.route = m, chunk, remaining == 0, r.hops
		pkt.path = pkt.route[1:r.n]
		first.push(pkt)
		if remaining == 0 {
			break
		}
	}
	f.maybeStart(first)
}

// maybeStart starts the stage's next serialization unless it is already
// serving, parked on a full downstream port, dead, or empty.
func (f *Fabric) maybeStart(s *stage) {
	if s.cur == nil && !s.stalled && !s.dead && !s.empty() {
		f.stageStart(s)
	}
}

// stageStart commits the stage's head frame: it reserves a credit on the
// frame's next port (or parks in that port's blocked FIFO when it is
// full) and begins serialization.
func (f *Fabric) stageStart(s *stage) {
	pkt := s.q[s.head]
	if len(pkt.path) > 0 {
		ns := pkt.path[0]
		if ns.full() {
			s.stalled = true
			ns.blocked = append(ns.blocked, s)
			return
		}
		ns.reserved++
	}
	s.pop()
	s.cur = pkt
	f.eng.After(sim.BytesAtGbps(pkt.bytes, f.cfg.BandwidthGbps), s.done)
}

// kickBlocked resumes stages parked on s while s has free credits.
func (f *Fabric) kickBlocked(s *stage) {
	for len(s.blocked) > 0 && !s.full() {
		u := s.blocked[0]
		s.blocked = s.blocked[1:]
		u.stalled = false
		if u.dead || u.empty() || u.cur != nil {
			continue
		}
		f.stageStart(u)
	}
}

// loseMessage marks the packet's message damaged (delivery suppressed,
// reliable senders will retransmit and reroute), counting it lost once.
func (f *Fabric) loseMessage(pkt *packet) {
	f.pktsDropped++
	if !pkt.msg.damaged {
		pkt.msg.damaged = true
		f.msgsLost++
		f.au.MessageLost(int(pkt.msg.Src), int(pkt.msg.Dst))
	}
}

// dropPacket accounts and recycles one frame dropped at a dead port; the
// owning switch's hop ledger records the drop.
func (f *Fabric) dropPacket(pkt *packet, owner int) {
	f.switchDrops++
	f.loseMessage(pkt)
	if owner >= 0 {
		f.au.HopDropped(owner)
	}
	f.freePacket(pkt)
}

// releaseReservation returns the credit a dropped in-service frame had
// reserved on its next port, waking anything parked on it.
func (f *Fabric) releaseReservation(pkt *packet) {
	if len(pkt.path) > 0 {
		ns := pkt.path[0]
		ns.reserved--
		f.kickBlocked(ns)
	}
}

// stageDone finishes one frame's serialization: the frame leaves this
// port (freeing a credit) and flies the post-latency to its next port or
// to delivery. A port killed mid-service drops the frame here instead.
func (f *Fabric) stageDone(s *stage) {
	pkt := s.cur
	s.cur = nil
	if s.dead {
		f.releaseReservation(pkt)
		f.dropPacket(pkt, s.owner)
		return
	}
	if s.owner >= 0 {
		f.au.HopOut(s.owner)
	}
	post := s.post
	dropped := false
	if s.faultPoint && f.inj != nil {
		post, dropped = f.inject(pkt, post)
	}
	if dropped {
		f.releaseReservation(pkt)
		f.freePacket(pkt)
	} else {
		// Flight time is pure delay (pipelined), so it is a scheduled
		// event rather than port occupancy.
		f.eng.After(post, pkt.arrive)
	}
	f.kickBlocked(s)
	f.maybeStart(s)
}

// inject is the fabric's one fault point: the frame has consumed its
// serialization time on the sender's port (a dropped frame still wasted
// that bandwidth) and is about to enter its leaf. It returns the frame's
// post-latency and whether the injector dropped it.
func (f *Fabric) inject(pkt *packet, post sim.Time) (sim.Time, bool) {
	m := pkt.msg
	now := f.eng.Now()
	fate := f.inj.Packet(now, int(m.Src), int(m.Dst))
	if fate.Drop {
		f.loseMessage(pkt)
		return post, true
	}
	if fate.Corrupt && !m.Corrupted {
		m.Corrupted = true
		f.msgsCorrupted++
	}
	// Silent wire corruption: the payload bits flip but the link checksum
	// stays green, so the Corrupted flag is NOT set and the frame delivers
	// normally. Drawn from the SDC plan's private RNG so arming it never
	// shifts the injector stream.
	if f.inj.SDC().WirePacket(now, int(m.Src), int(m.Dst)) {
		m.SilentCorrupt = true
	}
	if fate.DelayFactor > 1 {
		// Link degradation stretches propagation + switching, not
		// serialization: the port drained at full rate, the medium is
		// what got slow.
		post = sim.Time(float64(post) * fate.DelayFactor)
	}
	return post + fate.Delay, false
}

// arrive lands one frame at its next port (or delivers it). Arrival at a
// port of a switch killed while the frame was in flight drops it.
func (f *Fabric) arrive(pkt *packet) {
	if len(pkt.path) == 0 {
		f.deliver(pkt)
		return
	}
	ns := pkt.path[0]
	pkt.path = pkt.path[1:]
	ns.reserved--
	if ns.owner >= 0 {
		f.au.HopIn(ns.owner)
	}
	if ns.dead {
		f.dropPacket(pkt, ns.owner)
		return
	}
	if ns.ecnThresh > 0 && ns.occupancy() >= ns.ecnThresh && !pkt.msg.ECN {
		pkt.msg.ECN = true
		f.ecnMarks++
	}
	ns.push(pkt)
	f.maybeStart(ns)
}

// deliver lands one frame at its destination after the final link
// propagation, handing complete messages to the bound handler. The packet
// is recycled first (the handler may immediately reuse it for a reply).
func (f *Fabric) deliver(pkt *packet) {
	last, m := pkt.last, pkt.msg
	dst := m.Dst
	f.bytesDelivered[dst] += pkt.bytes
	f.freePacket(pkt)
	if !last || m.damaged {
		// A message with a dropped packet never completes at the receiver.
		return
	}
	f.msgsDelivered[dst]++
	f.lastDelivery = f.eng.Now()
	f.au.MessageDelivered(int(m.Src), int(dst))
	f.handlers[dst](m)
}

// UnloadedLatency returns the end-to-end latency of a message of the given
// size on an idle fabric over the shape's longest route: 2, 4 or 6
// stages. The first stage streams the whole message; each later stage
// adds one more chunk of pipeline fill, one link and one switch.
func (f *Fabric) UnloadedLatency(size int64) sim.Time {
	stages := 2
	switch {
	case f.ncores > 0:
		stages = 6
	case f.nspines > 0:
		stages = 4
	}
	mtu, gbps := f.cfg.MTUBytes, f.cfg.BandwidthGbps
	var full sim.Time
	for n := size; n > 0; n -= mtu {
		full += sim.BytesAtGbps(min(n, mtu), gbps)
	}
	lastChunk := size % mtu
	if lastChunk == 0 {
		lastChunk = min(size, mtu)
	}
	fill := sim.Time(stages - 1)
	return full + fill*sim.BytesAtGbps(lastChunk, gbps) +
		sim.Time(stages)*f.cfg.LinkLatency + fill*f.cfg.SwitchLatency
}

// BytesSent returns the bytes injected by a node.
func (f *Fabric) BytesSent(id NodeID) int64 { return f.bytesSent[id] }

// BytesDelivered returns the bytes delivered to a node.
func (f *Fabric) BytesDelivered(id NodeID) int64 { return f.bytesDelivered[id] }

// MessagesDelivered returns the count of complete messages delivered to a node.
func (f *Fabric) MessagesDelivered(id NodeID) int64 { return f.msgsDelivered[id] }

// LastDelivery returns the time of the most recent message delivery.
func (f *Fabric) LastDelivery() sim.Time { return f.lastDelivery }

// PacketsDropped returns the number of packets the fault injector or a
// dead port dropped.
func (f *Fabric) PacketsDropped() int64 { return f.pktsDropped }

// MessagesLost returns the number of messages that lost at least one
// packet (or found no route) and were therefore never delivered.
func (f *Fabric) MessagesLost() int64 { return f.msgsLost }

// MessagesCorrupted returns the number of messages flagged corrupt in flight.
func (f *Fabric) MessagesCorrupted() int64 { return f.msgsCorrupted }

// SwitchDrops reports frames dropped at dead switch/trunk ports.
func (f *Fabric) SwitchDrops() int64 { return f.switchDrops }

// ECNMarks reports messages marked by congested ports.
func (f *Fabric) ECNMarks() int64 { return f.ecnMarks }

// Unrouteable reports messages that found no surviving path at Send.
func (f *Fabric) Unrouteable() int64 { return f.unrouteable }

// UnroutedSamples returns the first few Unrouteable messages, for the
// watchdog diagnosis.
func (f *Fabric) UnroutedSamples() []UnroutedSample { return f.unroutedFirst }
