package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file splits a CPU profile's samples by repository module. It reads
// the gzipped protobuf that runtime/pprof writes with a minimal decoder, so
// the benchmark needs nothing beyond the standard library.

const repoPrefix = "repro/internal/"

// harnessModule is the bucket for the benchmark's own frames (package main).
const harnessModule = "perfbench"

// attribution accumulates profile samples, in CPU seconds, by bucket.
type attribution struct {
	self    map[string]float64 // innermost repo frame's module, "runtime" when none
	charged map[string]float64 // innermost non-sim repo frame's module, "sim.loop" or "runtime"
	switchS float64            // sim samples spent in runtime scheduling or channel frames
	total   float64
}

func newAttribution() *attribution {
	return &attribution{self: map[string]float64{}, charged: map[string]float64{}}
}

// module returns the repository module a frame belongs to, or "" when the
// frame is not the repository's.
func module(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return harnessModule
	}
	if !strings.HasPrefix(fn, repoPrefix) {
		return ""
	}
	rest := fn[len(repoPrefix):]
	if i := strings.IndexAny(rest, "/."); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// isLoopCaller reports whether fn is the event loop's caller: a sample whose
// only frames outside sim are this one is engine work, not a layer's.
func isLoopCaller(fn string) bool {
	return fn == repoPrefix+"node.(*Cluster).Run" || fn == repoPrefix+"node.(*Cluster).RunUntil"
}

// schedFrames are the Go runtime's goroutine scheduling, channel and lock
// functions: the cost of handing control between a proc and the engine.
var schedFrames = map[string]bool{}

func init() {
	for _, f := range strings.Fields(`chansend chansend1 chanrecv chanrecv1 chanrecv2 closechan
		selectgo block gopark goparkunlock park_m goready ready schedule findRunnable execute
		mcall gogo gosched_m goschedImpl Gosched lock lock2 lockWithRank unlock unlock2
		unlockWithRank casgstatus wakep startm stopm mPark notewakeup notesleep futex
		futexsleep futexwakeup runqput runqget runqgrab runqsteal send recv sendDirect
		recvDirect acquireSudog releaseSudog resetspinning handoffp stealWork procyield
		osyield usleep checkTimers netpoll newproc newproc1 gfget goexit0 goexit1 Goexit
		dropg acquirep releasep`) {
		schedFrames[f] = true
	}
}

func isRuntimeFrame(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/")
}

// attribute classifies one stack, given leaf first.
func attribute(stack []string) (self, charged string, switching bool) {
	self, charged = "runtime", "runtime"
	sawSim, sawSched := false, false
	leafRuntime := true
	for _, fn := range stack {
		if leafRuntime {
			if isRuntimeFrame(fn) {
				sawSched = sawSched || schedFrames[strings.TrimPrefix(fn, "runtime.")]
				continue
			}
			leafRuntime = false
		}
		m := module(fn)
		if m == "" {
			continue
		}
		if self == "runtime" {
			self = m
			switching = m == "sim" && sawSched
		}
		if m == "sim" {
			sawSim = true
			continue
		}
		if isLoopCaller(fn) && sawSim {
			return self, "sim.loop", switching
		}
		return self, m, switching
	}
	if sawSim {
		charged = "sim.loop"
	}
	return self, charged, switching
}

// add folds a decoded profile into the attribution.
func (a *attribution) add(p *profile) {
	for _, s := range p.samples {
		sec := float64(s.nanos) / 1e9
		self, charged, sw := attribute(s.stack)
		a.self[self] += sec
		a.charged[charged] += sec
		if sw {
			a.switchS += sec
		}
		a.total += sec
	}
}

// profile is the part of a pprof profile the attribution needs.
type profile struct {
	samples []sample
}

type sample struct {
	stack []string // function names, leaf first, inlined frames expanded
	nanos int64
}

// parseProfile decodes a gzipped pprof CPU profile.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		rawSamples []rawSample
		strs       []string
		valueIdx   = -1
		sampleType []int64 // string index of each value's type
		locFuncs   = map[uint64][]uint64{}
		funcName   = map[uint64]int64{}
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return fields(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					sampleType = append(sampleType, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := fields(b, func(n, w int, v uint64, bb []byte) error {
				switch n {
				case 1:
					return varints(w, v, bb, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(w, v, bb, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			rawSamples = append(rawSamples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(n, _ int, v uint64, bb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(bb, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, t := range sampleType {
		if t >= 0 && int(t) < len(strs) && strs[t] == "cpu" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	p := &profile{}
	for _, rs := range rawSamples {
		if valueIdx >= len(rs.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		s := sample{nanos: rs.values[valueIdx]}
		for _, l := range rs.locs {
			for _, f := range locFuncs[l] {
				if n := funcName[f]; n >= 0 && int(n) < len(strs) {
					s.stack = append(s.stack, strs[n])
				}
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// fields walks one protobuf message, calling fn with each field's number,
// wire type, and its varint value or length-delimited bytes.
func fields(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// varints yields a repeated varint field, packed (wire type 2) or not.
func varints(wire int, v uint64, b []byte, fn func(uint64)) error {
	if wire == 0 {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		fn(x)
		b = b[n:]
	}
	return nil
}
