// Package health is the heartbeat-based failure detector: every node runs
// an agent whose CPU side pre-registers triggered heartbeat Puts on the
// NIC and whose GPU side runs a persistent one-work-group ticker kernel
// that fires them by writing the heartbeat tag to the trigger address — so
// a heartbeat proves the whole node (CPU runtime, GPU, NIC trigger
// pipeline) is alive, not just a host daemon. Received heartbeats feed a
// shared membership view; a sweeper suspects nodes whose beats stop, and a
// restarted node's beats — carrying its new incarnation epoch — revive it.
//
// The membership view is the deliberately simple "shared bulletin board"
// abstraction: detection latency is modeled (heartbeat period, suspicion
// timeout, stabilization delay), dissemination is not. Partition awareness
// rides on the same board: each received heartbeat is recorded per
// *observer* (the node whose NIC delivered it), forming a reachability
// matrix of who currently hears whom. A node nobody hears — itself
// included — is crash-Suspect, exactly as before. A node that still beats
// locally but has lost mutual reachability with the majority of the
// cluster is Partitioned: alive, just unreachable. The majority rule
// (a component must contain strictly more than half of the non-Suspect
// nodes to make progress) is what refuses split-brain — in a symmetric
// cut neither side qualifies and WaitStable reports ErrSplitBrain instead
// of letting both halves run the collective.
package health

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/audit"
	"repro/internal/config"
	"repro/internal/sim"
)

// Status is a member's health verdict in the shared view.
type Status int

const (
	// Alive means beats are arriving within the suspicion timeout.
	Alive Status = iota
	// Suspect means no beat arrived for SuspectAfter; the node is treated
	// as failed until a beat from a newer (or the same) incarnation revives
	// it.
	Suspect
	// Partitioned means the node still beats (so it is not crashed) but has
	// lost mutual reachability with the majority component. Unlike Suspect
	// the verdict self-heals: when the cut heals and cross-beats resume the
	// node returns to Alive and OnHeal hooks fire.
	Partitioned
	// Quarantined means the node is alive and reachable but accumulated
	// enough silent-data-corruption strikes (ReportCorrupt) that its
	// output cannot be trusted. The verdict is permanent: heartbeats never
	// revive a quarantined member, and collectives recompute without it.
	Quarantined
	// Slow means the node is alive, reachable, and honest — it is just not
	// keeping pace: its progress watermarks advance at a fraction of the
	// heartbeat rate, or collective hops through it keep missing their
	// hedge deadlines. Unlike Suspect the node's channels stay fully
	// usable; the mitigation is routing (ring exclusion, hedged hops), not
	// condemnation. The verdict self-heals: when the relative-progress
	// score recovers past the hysteresis band the node returns to Alive
	// and OnRecovered hooks fire.
	Slow
)

func (s Status) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Partitioned:
		return "partitioned"
	case Quarantined:
		return "quarantined"
	case Slow:
		return "slow"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Fail-slow scoring constants. The EWMA weight balances reaction speed
// against jitter tolerance: one outlier sample moves the heartbeat score
// at most 40%, so crossing the verdict threshold takes a sustained trend.
// Hedge-deadline misses (ReportLag) live on a separate lag score: each
// miss multiplies it by lagPenalty — two misses from full speed land it
// below the default 0.5 threshold — and it heals toward full speed by
// lagRecoverRate per sweep (half-life ~34 periods), NOT by heartbeat
// samples. The split matters: a NIC-side straggler's heartbeats can look
// healthy (tiny messages, ticks unaffected), and if arrival samples could
// replenish the same score a lag report drains, in-band evidence from
// hedged collectives could never accumulate into a verdict.
const (
	slowEWMAAlpha  = 0.4
	lagPenalty     = 0.6
	lagRecoverRate = 0.02
)

// ErrSplitBrain is returned by WaitStable when the view is stable but no
// component holds a strict majority of the non-Suspect nodes — e.g. a
// symmetric half/half cut. No side may run a collective in that state;
// drivers back off and retry, bounded by their attempt budget.
var ErrSplitBrain = errors.New("health: no majority component (split-brain refused)")

// Member is one node's entry in the membership view.
type Member struct {
	Status      Status
	Incarnation int64
	LastBeat    sim.Time
}

// Stats counts membership transitions for tests and run reports.
type Stats struct {
	Beats      int64
	Suspicions int64
	Revivals   int64 // Suspect -> Alive on a fresh beat
	Rejoins    int64 // revivals that carried a new incarnation
	Partitions int64 // Alive -> Partitioned transitions
	Heals      int64 // Partitioned -> Alive transitions

	CorruptReports int64 // SDC strikes fed in via ReportCorrupt
	Quarantines    int64 // members quarantined for corrupt data

	SlowVerdicts    int64 // Alive -> Slow transitions
	SlowsRecovered  int64 // Slow -> Alive transitions
	LagReports      int64 // hedge-deadline misses fed in via ReportLag
	ProgressSamples int64 // EWMA relative-progress samples folded in
}

// Membership is the shared failure-detector view of the cluster.
type Membership struct {
	eng *sim.Engine
	cfg config.HealthConfig

	members      []Member
	viewID       int64
	lastChange   sim.Time
	changed      *sim.Signal
	sweeper      *sim.Proc
	onSuspect    []func(node int)
	onPart       []func(node int)
	onHeal       []func(node int)
	onQuarantine []func(node int)
	onSlow       []func(node int)
	onRecovered  []func(node int)
	stats        Stats
	stopped      bool
	au           *audit.Auditor

	// Fail-slow detection state, armed only when cfg.SlowDetect (all
	// slices nil otherwise — detection-free views never pay for it).
	// wm/nicWM are the latest progress watermarks per subject (GPU tick
	// count and NIC command completions, piggybacked on heartbeats); the
	// prev pair is the last sample the EWMA consumed.
	wm         []int64
	nicWM      []int64
	wmAt       []sim.Time
	wmPrev     []int64
	wmPrevAt   []sim.Time
	wmValid    []bool
	score      []float64
	lagScore   []float64  // hedge-deadline debt, decayed by time not samples
	belowSince []sim.Time // when the score first dipped below threshold; -1 = not below

	// strikes accumulates corruption reports per subject; reaching the
	// configured quarantine budget flips the member to Quarantined.
	strikes []int64

	// lastHeard[i][j] is when observer i last received subject j's
	// heartbeat — the reachability-vote matrix. Partition detection is
	// armed only once crossEvidence is set (some observer heard someone
	// other than itself): plain Beat-driven views never pay for it.
	lastHeard     [][]sim.Time
	crossEvidence bool
	splitBrain    bool
	// scratch buffers reused by recompute (single-threaded engine).
	compID []int
	queue  []int
}

// NewMembership creates the view with every node alive at incarnation 1
// and starts the suspicion sweeper. Callers must Stop it when the workload
// finishes, or the sweeper's periodic events keep the simulation alive.
func NewMembership(eng *sim.Engine, cfg config.HealthConfig, n int) *Membership {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("health: %v", err))
	}
	m := &Membership{
		eng:       eng,
		cfg:       cfg,
		members:   make([]Member, n),
		changed:   sim.NewSignal(eng),
		lastHeard: make([][]sim.Time, n),
		compID:    make([]int, n),
		queue:     make([]int, 0, n),
		strikes:   make([]int64, n),
	}
	now := eng.Now()
	for i := range m.members {
		m.members[i] = Member{Status: Alive, Incarnation: 1, LastBeat: now}
		m.lastHeard[i] = make([]sim.Time, n)
		for j := range m.lastHeard[i] {
			m.lastHeard[i][j] = now
		}
	}
	if cfg.SlowDetect {
		m.wm = make([]int64, n)
		m.nicWM = make([]int64, n)
		m.wmAt = make([]sim.Time, n)
		m.wmPrev = make([]int64, n)
		m.wmPrevAt = make([]sim.Time, n)
		m.wmValid = make([]bool, n)
		m.score = make([]float64, n)
		m.lagScore = make([]float64, n)
		m.belowSince = make([]sim.Time, n)
		for i := 0; i < n; i++ {
			m.score[i] = 1
			m.lagScore[i] = 1
			m.belowSince[i] = -1
		}
	}
	m.sweeper = eng.Go("health.sweep", m.sweep)
	return m
}

// Config returns the timing configuration the view runs under.
func (m *Membership) Config() config.HealthConfig { return m.cfg }

// SetAuditor installs the invariant auditor; every stable view WaitStable
// hands out is then checked for strict majority and view-id stability.
func (m *Membership) SetAuditor(a *audit.Auditor) { m.au = a }

// Stats returns a snapshot of the transition counters.
func (m *Membership) Stats() Stats { return m.stats }

// ViewID returns the current view version; it increments on every
// suspicion, revival, partition, or heal.
func (m *Membership) ViewID() int64 { return m.viewID }

// Changed returns the signal broadcast on every view change.
func (m *Membership) Changed() *sim.Signal { return m.changed }

// Member returns node's current entry.
func (m *Membership) Member(node int) Member { return m.members[node] }

// Alive returns the ranks currently believed alive — the majority
// component when partition detection is engaged — in rank order.
func (m *Membership) Alive() []int {
	out := make([]int, 0, len(m.members))
	for i := range m.members {
		if m.members[i].Status == Alive {
			out = append(out, i)
		}
	}
	return out
}

// Partitioned returns the ranks currently diagnosed as partitioned, in
// rank order.
func (m *Membership) Partitioned() []int {
	var out []int
	for i := range m.members {
		if m.members[i].Status == Partitioned {
			out = append(out, i)
		}
	}
	return out
}

// Slow returns the ranks currently carrying the Slow verdict, in rank
// order.
func (m *Membership) Slow() []int {
	var out []int
	for i := range m.members {
		if m.members[i].Status == Slow {
			out = append(out, i)
		}
	}
	return out
}

// SlowScore returns node's effective progress score (1 = full speed,
// approaching 0 = stalled): the lower of its heartbeat-rate EWMA and its
// lag-report debt. Returns 1 when slow detection is off.
func (m *Membership) SlowScore(node int) float64 {
	if m.score == nil {
		return 1
	}
	return min(m.score[node], m.lagScore[node])
}

// ProgressWatermark returns node's latest piggybacked progress watermarks:
// GPU heartbeat tick count and NIC command completions. Zero when slow
// detection is off or nothing was observed yet.
func (m *Membership) ProgressWatermark(node int) (ticks, nicCompletions int64) {
	if m.wm == nil {
		return 0, 0
	}
	return m.wm[node], m.nicWM[node]
}

// Quarantined returns the ranks currently quarantined for corrupt data,
// in rank order.
func (m *Membership) Quarantined() []int {
	var out []int
	for i := range m.members {
		if m.members[i].Status == Quarantined {
			out = append(out, i)
		}
	}
	return out
}

// Strikes returns the accumulated corruption reports against node.
func (m *Membership) Strikes(node int) int64 { return m.strikes[node] }

// OnSuspect registers a hook invoked (in registration order) each time a
// node transitions Alive -> Suspect. The cluster wiring uses it to
// propagate the verdict into survivor NICs' reliability layers.
func (m *Membership) OnSuspect(fn func(node int)) {
	m.onSuspect = append(m.onSuspect, fn)
}

// OnPartition registers a hook invoked each time a node transitions
// Alive -> Partitioned. The suite wiring uses it to declare the node's
// reliability channels dead with reason PeerDeadPartition.
func (m *Membership) OnPartition(fn func(node int)) {
	m.onPart = append(m.onPart, fn)
}

// OnHeal registers a hook invoked each time a node returns to Alive from
// Partitioned — or from a same-incarnation false suspicion — so NIC
// channels condemned by the outage can be healed.
func (m *Membership) OnHeal(fn func(node int)) {
	m.onHeal = append(m.onHeal, fn)
}

// OnQuarantine registers a hook invoked when a node crosses the strike
// budget and is quarantined. The suite wiring uses it to declare the
// node's reliability channels dead with reason PeerDeadCorrupt.
func (m *Membership) OnQuarantine(fn func(node int)) {
	m.onQuarantine = append(m.onQuarantine, fn)
}

// OnSlow registers a hook invoked each time a node transitions
// Alive -> Slow. The suite wiring uses it to record the verdict in NIC
// stats; recovery drivers see the straggler leave Alive() automatically.
func (m *Membership) OnSlow(fn func(node int)) {
	m.onSlow = append(m.onSlow, fn)
}

// OnRecovered registers a hook invoked each time a node returns to Alive
// from Slow — the late-rejoin path: the next stable attempt includes it
// again.
func (m *Membership) OnRecovered(fn func(node int)) {
	m.onRecovered = append(m.onRecovered, fn)
}

// ReportCorrupt feeds n new corruption strikes against subject into the
// board — blame evidence from e2e checksum failures or verified-collective
// mismatches on correctly-delivered frames, indicting the subject's
// compute rather than any link. Crossing the configured strike budget
// (HealthConfig.QuarantineStrikes, default 3) quarantines the subject:
// a permanent verdict that fires OnQuarantine hooks and bumps the view.
func (m *Membership) ReportCorrupt(subject int, n int64) {
	if n <= 0 {
		return
	}
	m.strikes[subject] += n
	m.stats.CorruptReports += n
	mb := &m.members[subject]
	if mb.Status == Quarantined {
		return
	}
	if m.strikes[subject] < int64(m.cfg.EffectiveQuarantineStrikes()) {
		return
	}
	mb.Status = Quarantined
	m.stats.Quarantines++
	m.bump()
	for _, fn := range m.onQuarantine {
		fn(subject)
	}
}

// Beat records a self-reported heartbeat from node under incarnation inc —
// shorthand for BeatFrom(node, node, inc), kept for direct-drive callers.
func (m *Membership) Beat(node int, inc int64) {
	m.BeatFrom(node, node, inc)
}

// BeatFrom records that observer received subject's heartbeat under
// incarnation inc — one reachability vote on the shared board. Beats from
// an older incarnation than the recorded one are stale post-crash
// stragglers and are ignored. A beat from a newer incarnation — or any
// beat while the subject is suspected — revives it and bumps the view.
func (m *Membership) BeatFrom(observer, subject int, inc int64) {
	mb := &m.members[subject]
	if mb.Status == Quarantined {
		// Quarantine is permanent: a flaky core beats convincingly right up
		// until it corrupts the next reduction. No beat revives it.
		return
	}
	if inc < mb.Incarnation {
		return
	}
	m.stats.Beats++
	now := m.eng.Now()
	mb.LastBeat = now
	m.lastHeard[observer][subject] = now
	if observer != subject {
		m.crossEvidence = true
	}
	rejoin := inc > mb.Incarnation
	if rejoin {
		mb.Incarnation = inc
		m.stats.Rejoins++
	}
	if m.score != nil && (rejoin || mb.Status == Suspect) {
		// A rejoin or revival restarts the progress baseline: the new
		// incarnation's watermarks start over, and scoring across the
		// silent gap would manufacture a false Slow verdict.
		m.resetProgress(subject)
	}
	if mb.Status == Suspect || rejoin {
		revived := mb.Status == Suspect
		if revived {
			m.stats.Revivals++
		}
		mb.Status = Alive
		m.bump()
		if revived && !rejoin {
			// A same-incarnation revival is a retracted false accusation:
			// the node never died, so channels condemned as crashed must be
			// healed, not await an epoch announcement that will never come.
			for _, fn := range m.onHeal {
				fn(subject)
			}
		}
	}
}

// BeatProgress is BeatFrom plus progress evidence: the heartbeat payload
// carried the subject's progress watermarks (GPU tick count, NIC command
// completions), read live at DMA time. With slow detection off it degrades
// to exactly BeatFrom.
func (m *Membership) BeatProgress(observer, subject int, inc, ticks, nicCompletions int64) {
	mb := &m.members[subject]
	stale := mb.Status == Quarantined || inc < mb.Incarnation
	m.BeatFrom(observer, subject, inc)
	if m.score == nil || stale {
		return
	}
	if ticks > m.wm[subject] {
		m.wm[subject] = ticks
		m.wmAt[subject] = m.eng.Now()
	}
	if nicCompletions > m.nicWM[subject] {
		m.nicWM[subject] = nicCompletions
	}
}

// ReportLag feeds n hedge-deadline misses against subject into the board —
// in-band evidence from a hedged collective whose hop through the subject
// kept missing its soft deadline. Each miss multiplies the subject's lag
// score by lagPenalty; the debt heals with time (lagRecoverRate per
// sweep), never with heartbeat samples, so a NIC-side straggler whose
// heartbeats look healthy is still condemned once misses outpace the
// decay. The verdict itself lands at the next sweep once the effective
// score has sat below threshold for the grace period. No-op when slow
// detection is off.
func (m *Membership) ReportLag(subject int, n int64) {
	if n <= 0 || m.score == nil {
		return
	}
	m.stats.LagReports += n
	mb := &m.members[subject]
	if mb.Status == Suspect || mb.Status == Quarantined {
		return
	}
	for k := int64(0); k < n; k++ {
		m.lagScore[subject] *= lagPenalty
	}
}

// resetProgress restarts subject's progress baseline and scores.
func (m *Membership) resetProgress(subject int) {
	m.wm[subject] = 0
	m.nicWM[subject] = 0
	m.wmAt[subject] = 0
	m.wmPrev[subject] = 0
	m.wmPrevAt[subject] = 0
	m.wmValid[subject] = false
	m.score[subject] = 1
	m.lagScore[subject] = 1
	m.belowSince[subject] = -1
}

// bump advances the view and wakes everything waiting on it.
func (m *Membership) bump() {
	m.viewID++
	m.lastChange = m.eng.Now()
	m.changed.Broadcast()
}

// sweep is the detection loop: every Period it suspects members whose last
// beat is older than SuspectAfter, then recomputes reachability components.
func (m *Membership) sweep(p *sim.Proc) {
	for {
		p.Sleep(m.cfg.Period)
		m.recompute(p.Now())
	}
}

// recompute applies crash suspicion and — once cross-observer evidence
// exists — partition detection to the current board. All iteration is
// index-ordered, so verdicts and hook order are deterministic.
func (m *Membership) recompute(now sim.Time) {
	// Crash suspicion: nobody, the node itself included, has heard it
	// within the horizon. A partitioned-but-alive node never trips this —
	// its own beats keep refreshing LastBeat on the shared board.
	for i := range m.members {
		mb := &m.members[i]
		if mb.Status == Quarantined {
			// Quarantined members are out of the cluster for good: neither
			// suspected (their silence is expected — channels are condemned)
			// nor counted in any reachability component below.
			continue
		}
		if mb.Status != Suspect && now-mb.LastBeat > m.cfg.SuspectAfter {
			mb.Status = Suspect
			m.stats.Suspicions++
			m.bump()
			for _, fn := range m.onSuspect {
				fn(i)
			}
		}
	}
	if m.score != nil {
		m.scoreProgress(now)
	}
	if !m.crossEvidence {
		return
	}

	// Mutual-reachability components over the non-Suspect nodes: an edge
	// (i, j) exists when each has heard the other within the horizon, so an
	// asymmetric blackhole severs the edge even though one direction still
	// delivers. Component ids are assigned by BFS in index order.
	fresh := func(i, j int) bool { return now-m.lastHeard[i][j] <= m.cfg.SuspectAfter }
	n := len(m.members)
	nonSuspect := 0
	for i := 0; i < n; i++ {
		if m.members[i].Status != Suspect && m.members[i].Status != Quarantined {
			nonSuspect++
			m.compID[i] = -1
		} else {
			m.compID[i] = -2
		}
	}
	bestComp, bestSize := -1, 0
	comps := 0
	for i := 0; i < n; i++ {
		if m.compID[i] != -1 {
			continue
		}
		id := comps
		comps++
		size := 0
		m.queue = append(m.queue[:0], i)
		m.compID[i] = id
		for len(m.queue) > 0 {
			u := m.queue[0]
			m.queue = m.queue[1:]
			size++
			for v := 0; v < n; v++ {
				if m.compID[v] == -1 && fresh(u, v) && fresh(v, u) {
					m.compID[v] = id
					m.queue = append(m.queue, v)
				}
			}
		}
		if size > bestSize {
			bestComp, bestSize = id, size
		}
	}
	// The majority rule: strictly more than half of the non-Suspect nodes.
	// Crashed nodes leave the denominator (a 3-of-4 survivor set is a
	// majority), but a symmetric cut keeps it (2 of 4 is not).
	majority := bestComp
	if 2*bestSize <= nonSuspect {
		majority = -1
	}
	m.splitBrain = majority == -1

	for i := 0; i < n; i++ {
		mb := &m.members[i]
		if mb.Status == Suspect || mb.Status == Quarantined {
			continue
		}
		inMaj := majority >= 0 && m.compID[i] == majority
		switch {
		case mb.Status == Alive && !inMaj:
			mb.Status = Partitioned
			m.stats.Partitions++
			m.bump()
			for _, fn := range m.onPart {
				fn(i)
			}
		case mb.Status == Partitioned && inMaj:
			mb.Status = Alive
			m.stats.Heals++
			m.bump()
			for _, fn := range m.onHeal {
				fn(i)
			}
		}
	}
}

// scoreProgress folds the latest progress watermarks into each member's
// relative-progress EWMA, decays lag debt, and applies the Slow verdict
// lifecycle with hysteresis.
//
// The heartbeat score moves ONLY on arrival samples — a fresh watermark
// since the last consumed one scores rel = Δticks / (Δt / Period), the
// subject's observed heartbeat-tick rate against the configured rate. A
// GPU-class straggler's ticker is dilated, so its rel collapses to
// 1/factor. Tick counts are captured at NIC DMA time, so the rate is
// robust to delivery queueing: a burst of beats that sat behind a bulk
// chunk transfer still scores rel ~ 1. Deliberately NO sample is taken
// during silence — a busy NIC legitimately delays beats for a full bulk
// transfer, and scoring the gap would condemn every node that merely
// sends large chunks (total silence beyond SuspectAfter is fail-stop
// suspicion's verdict, not a slow one).
//
// The lag score heals toward 1 by lagRecoverRate per sweep; the verdict
// runs on the effective score min(heartbeat, lag), so either feed alone
// can condemn and both must look healthy to recover.
//
// Verdicts: Alive drops to Slow when the effective score sits below
// SlowThreshold for SlowGrace (transient jitter never flaps); Slow
// returns to Alive only past the higher SlowRecover bound.
// Suspect/Partitioned/Quarantined members are never scored — their
// failure modes belong to other verdicts.
func (m *Membership) scoreProgress(now sim.Time) {
	thr := m.cfg.EffectiveSlowThreshold()
	rec := m.cfg.EffectiveSlowRecover()
	grace := m.cfg.EffectiveSlowGrace()
	period := float64(m.cfg.Period)
	for i := range m.members {
		mb := &m.members[i]
		if mb.Status == Suspect || mb.Status == Quarantined || mb.Status == Partitioned {
			m.belowSince[i] = -1
			continue
		}
		switch {
		case !m.wmValid[i]:
			if m.wmAt[i] > 0 || m.wm[i] > 0 {
				// First observation anchors the baseline; no score yet.
				m.wmPrev[i], m.wmPrevAt[i] = m.wm[i], m.wmAt[i]
				m.wmValid[i] = true
			}
		case m.wmAt[i] > m.wmPrevAt[i]:
			dt := float64(m.wmAt[i] - m.wmPrevAt[i])
			if expected := dt / period; expected > 0 {
				rel := float64(m.wm[i]-m.wmPrev[i]) / expected
				m.sample(i, rel)
			}
			m.wmPrev[i], m.wmPrevAt[i] = m.wm[i], m.wmAt[i]
		}
		m.lagScore[i] += (1 - m.lagScore[i]) * lagRecoverRate
		eff := min(m.score[i], m.lagScore[i])
		switch {
		case mb.Status == Alive && eff < thr:
			if m.belowSince[i] < 0 {
				m.belowSince[i] = now
			} else if now-m.belowSince[i] >= grace {
				mb.Status = Slow
				m.stats.SlowVerdicts++
				m.belowSince[i] = -1
				m.bump()
				for _, fn := range m.onSlow {
					fn(i)
				}
			}
		case mb.Status == Alive:
			m.belowSince[i] = -1
		case mb.Status == Slow && eff > rec:
			mb.Status = Alive
			m.stats.SlowsRecovered++
			m.belowSince[i] = -1
			m.bump()
			for _, fn := range m.onRecovered {
				fn(i)
			}
		}
	}
}

// sample folds one relative-progress observation (clamped to [0, 1]) into
// node i's EWMA.
func (m *Membership) sample(i int, rel float64) {
	if rel < 0 {
		rel = 0
	}
	if rel > 1 {
		rel = 1
	}
	m.score[i] = (1-slowEWMAAlpha)*m.score[i] + slowEWMAAlpha*rel
	m.stats.ProgressSamples++
}

// WaitStable parks p until the view has been unchanged for StabilizeDelay,
// then returns the stable view id. When the stable view has no majority
// component the error is ErrSplitBrain: the caller must not run a
// collective, and should back off and retry against its attempt budget.
// Recovery drivers call this before each attempt so they do not commit to
// a membership that is still settling.
func (m *Membership) WaitStable(p *sim.Proc) (int64, error) {
	for {
		d := m.lastChange + m.cfg.StabilizeDelay - p.Now()
		if d <= 0 {
			if m.splitBrain {
				return m.viewID, ErrSplitBrain
			}
			if m.au != nil {
				// The adopted member set is the ranks a collective may build
				// on (Alive + Slow); the population for the majority rule is
				// everyone not condemned as crashed or corrupt — Partitioned
				// members count against the majority, exactly as in recompute.
				members := make([]int, 0, len(m.members))
				population := 0
				for i := range m.members {
					switch m.members[i].Status {
					case Suspect, Quarantined:
					case Partitioned:
						population++
					default: // Alive, Slow
						population++
						members = append(members, i)
					}
				}
				m.au.ViewAdopted(p.Now(), uint64(m.viewID), members, population)
			}
			return m.viewID, nil
		}
		p.Sleep(d)
	}
}

// Stop kills the sweeper so the simulation can drain. Idempotent.
func (m *Membership) Stop() {
	if m.stopped {
		return
	}
	m.stopped = true
	m.eng.Kill(m.sweeper)
}

// String renders the view for debugging and run reports.
func (m *Membership) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "view %d:", m.viewID)
	for i := range m.members {
		mb := &m.members[i]
		fmt.Fprintf(&b, " %d=%s/inc%d", i, mb.Status, mb.Incarnation)
	}
	return b.String()
}
