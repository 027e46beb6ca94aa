package network

import (
	"fmt"

	"repro/internal/config"
)

// Switch failure domains: a whole switch or one inter-switch trunk dies
// and optionally comes back. Routing reads the alive flags and the dead
// ports at Send; the ports themselves drop what they hold.

// killStage marks one port dead and drops everything it holds. The
// in-service frame (if any) drops when its serialization event fires;
// stages parked on this port resume immediately (a dead port is a sink,
// never a block).
func (f *Fabric) killStage(s *stage) {
	if s.dead {
		return
	}
	s.dead = true
	for !s.empty() {
		f.dropPacket(s.pop(), s.owner)
	}
	f.kickBlocked(s)
}

// switchStages returns the transmit ports owned by one switch.
func (f *Fabric) switchStages(tier string, index int) []*stage {
	var out []*stage
	switch tier {
	case config.SwitchTierLeaf:
		if index < 0 || index >= f.nleaves {
			panic(fmt.Sprintf("network: fabric has no leaf %d (have %d)", index, f.nleaves))
		}
		for i, s := range f.ingress {
			if f.leafOf(i) == index {
				out = append(out, s)
			}
		}
		if f.leafUp != nil {
			out = append(out, f.leafUp[index]...)
		}
	case config.SwitchTierSpine:
		if index < 0 || index >= f.nspines {
			panic(fmt.Sprintf("network: fabric has no spine %d (have %d)", index, f.nspines))
		}
		out = append(out, f.spineDown[index]...)
		out = append(out, f.spineUp[index]...)
	case config.SwitchTierCore:
		if index < 0 || index >= f.ncores {
			panic(fmt.Sprintf("network: fabric has no core %d (have %d)", index, f.ncores))
		}
		out = append(out, f.coreDown[index]...)
	default:
		panic(fmt.Sprintf("network: unknown switch tier %q", tier))
	}
	return out
}

func (f *Fabric) setSwitchAlive(tier string, index int, alive bool) {
	switch tier {
	case config.SwitchTierLeaf:
		f.aliveLeaf[index] = alive
	case config.SwitchTierSpine:
		f.aliveSpine[index] = alive
	case config.SwitchTierCore:
		f.aliveCore[index] = alive
	}
}

// KillSwitch takes a whole switch dark: routing skips it, its ports drop
// everything held and everything that arrives until RestoreSwitch.
func (f *Fabric) KillSwitch(tier string, index int) {
	for _, s := range f.switchStages(tier, index) {
		f.killStage(s)
	}
	f.setSwitchAlive(tier, index, false)
}

// RestoreSwitch brings a killed switch back, with empty ports.
func (f *Fabric) RestoreSwitch(tier string, index int) {
	for _, s := range f.switchStages(tier, index) {
		s.dead = false
	}
	f.setSwitchAlive(tier, index, true)
}

// trunkStages resolves one inter-switch link to its two directional
// ports. Valid trunks are leaf↔spine within one pod and spine↔core.
func (f *Fabric) trunkStages(aTier string, aIdx int, bTier string, bIdx int) (up, down *stage) {
	if aTier == config.SwitchTierSpine && bTier == config.SwitchTierLeaf {
		aTier, aIdx, bTier, bIdx = bTier, bIdx, aTier, aIdx
	}
	if aTier == config.SwitchTierCore && bTier == config.SwitchTierSpine {
		aTier, aIdx, bTier, bIdx = bTier, bIdx, aTier, aIdx
	}
	sh := f.shape
	switch {
	case aTier == config.SwitchTierLeaf && bTier == config.SwitchTierSpine:
		if aIdx < 0 || aIdx >= f.nleaves || bIdx < 0 || bIdx >= f.nspines {
			panic(fmt.Sprintf("network: fabric has no trunk %s%d-%s%d", aTier, aIdx, bTier, bIdx))
		}
		if aIdx/sh.podLeaves != bIdx/sh.spines {
			panic(fmt.Sprintf("network: leaf%d and spine%d are in different pods (no trunk)", aIdx, bIdx))
		}
		return f.leafUp[aIdx][bIdx%sh.spines], f.spineDown[bIdx][aIdx%sh.podLeaves]
	case aTier == config.SwitchTierSpine && bTier == config.SwitchTierCore:
		if aIdx < 0 || aIdx >= f.nspines || bIdx < 0 || bIdx >= f.ncores {
			panic(fmt.Sprintf("network: fabric has no trunk %s%d-%s%d", aTier, aIdx, bTier, bIdx))
		}
		return f.spineUp[aIdx][bIdx], f.coreDown[bIdx][aIdx]
	default:
		panic(fmt.Sprintf("network: no trunk between tiers %q and %q", aTier, bTier))
	}
}

// KillTrunk takes one inter-switch link dark in both directions.
func (f *Fabric) KillTrunk(aTier string, aIdx int, bTier string, bIdx int) {
	up, down := f.trunkStages(aTier, aIdx, bTier, bIdx)
	f.killStage(up)
	f.killStage(down)
}

// RestoreTrunk brings a killed trunk back.
func (f *Fabric) RestoreTrunk(aTier string, aIdx int, bTier string, bIdx int) {
	up, down := f.trunkStages(aTier, aIdx, bTier, bIdx)
	up.dead = false
	down.dead = false
}
