package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestAttributeProcStackChargedToCallingLayer(t *testing.T) {
	// A GPU work-group proc parked in sim, leaf in the channel handoff.
	stack := []string{
		"runtime.chanrecv",
		"runtime.chanrecv1",
		"repro/internal/sim.(*Proc).park",
		"repro/internal/sim.(*Proc).Sleep",
		"repro/internal/gpu.(*WGCtx).Compute",
		"repro/internal/collective.(*rankState).gpuReduceKernel.func1",
		"repro/internal/gpu.(*GPU).frontend.func1",
		"repro/internal/sim.(*Engine).GoLane.func1.2",
		"repro/internal/sim.(*Engine).GoLane.func1",
		"runtime.goexit",
	}
	self, charged, sw := attribute(stack)
	if self != "sim" || charged != "gpu" || !sw {
		t.Fatalf("attribute = (%s, %s, %v), want (sim, gpu, true)", self, charged, sw)
	}
}

func TestAttributeEventLoopStackToSimLoop(t *testing.T) {
	stack := []string{
		"repro/internal/sim.heapEntry.less",
		"repro/internal/sim.(*Engine).siftDown",
		"repro/internal/sim.(*Engine).heapPop",
		"repro/internal/sim.(*Engine).step",
		"repro/internal/sim.(*Engine).Run",
		"repro/internal/node.(*Cluster).Run",
		"repro/internal/collective.Run",
		"main.allreduceCell.func1",
		"main.runCell",
		"main.measureLoop",
		"runtime.goexit",
	}
	self, charged, sw := attribute(stack)
	if self != "sim" || charged != "sim.loop" || sw {
		t.Fatalf("attribute = (%s, %s, %v), want (sim, sim.loop, false)", self, charged, sw)
	}
	// An event callback run by the loop is charged to its own layer.
	cb := append([]string{"repro/internal/network.(*Fabric).ingressDone"}, stack[3:]...)
	if _, charged, _ := attribute(cb); charged != "network" {
		t.Fatalf("callback charged to %s, want network", charged)
	}
}

func TestAttributeRuntimeParkLeafToSwitch(t *testing.T) {
	// The engine side of a handoff: dispatch wakes the proc and parks.
	stack := []string{
		"runtime.futex",
		"runtime.futexwakeup",
		"runtime.notewakeup",
		"runtime.startm",
		"runtime.wakep",
		"runtime.ready",
		"runtime.goready",
		"runtime.send",
		"runtime.chansend",
		"runtime.chansend1",
		"repro/internal/sim.(*Engine).dispatch",
		"repro/internal/sim.(*Proc).resumeEvent",
		"repro/internal/sim.(*Engine).step",
		"repro/internal/sim.(*Engine).Run",
		"repro/internal/node.(*Cluster).Run",
		"main.runCell",
	}
	self, charged, sw := attribute(stack)
	if self != "sim" || charged != "sim.loop" || !sw {
		t.Fatalf("attribute = (%s, %s, %v), want (sim, sim.loop, true)", self, charged, sw)
	}
	// Allocation under sim is sim's work, not a switch.
	alloc := append([]string{"runtime.mallocgc", "runtime.newobject"}, stack[10:]...)
	if _, _, sw := attribute(alloc); sw {
		t.Fatal("allocation leaf counted as a switch")
	}
	// A scheduler stack with no repository frame is runtime's.
	if self, charged, sw := attribute([]string{"runtime.schedule", "runtime.park_m", "runtime.mcall"}); self != "runtime" || charged != "runtime" || sw {
		t.Fatalf("bare scheduler stack = (%s, %s, %v), want (runtime, runtime, false)", self, charged, sw)
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

func TestParseProfileReadsRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var spinNs int64
	for _, s := range p.samples {
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".spin") {
				spinNs += s.nanos
				break
			}
		}
	}
	if spinNs == 0 {
		t.Fatalf("no samples under spin among %d samples", len(p.samples))
	}
}
