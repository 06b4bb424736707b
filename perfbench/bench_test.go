package main

import (
	"io"
	"testing"

	"redcache/internal/hbm"
	"redcache/internal/workloads"
)

// tinySweep is paper-sweep's pipeline on two tiny-scale workloads.
var tinySweep = workload{name: "tiny-sweep", scale: workloads.Tiny,
	labels: []string{"LU", "HIST"}, archs: hbm.All(), sweep: true}

func TestMeasureUntraced(t *testing.T) {
	out, err := measure(tinySweep, 1, 0.001, false, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// Two repetitions of 2 workloads x 9 architectures.
	if !out.correct || out.attempted != 36 || out.failed != 0 {
		t.Errorf("correct %v attempted %d failed %d, want true 36 0", out.correct, out.attempted, out.failed)
	}
	for _, d := range endToEnd {
		if out.values[d.name] <= 0 {
			t.Errorf("%s = %v, want > 0", d.name, out.values[d.name])
		}
	}
}

func TestMeasureTraced(t *testing.T) {
	out, err := measure(tinySweep, 2, 0.001, true, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// One untraced repetition, the profiled one and the timed-call pass.
	if !out.correct || out.attempted != 54 || out.failed != 0 {
		t.Errorf("correct %v attempted %d failed %d, want true 54 0", out.correct, out.attempted, out.failed)
	}
	for _, d := range perLayer {
		if _, ok := out.values[d.name]; !ok {
			t.Errorf("traced pass reports no %s", d.name)
		}
	}
	for _, name := range []string{"sim.cycles", "engine.events_fired", "engine.pending_mean", "dram.hbm_queue_depth_mean", "cpu.load_stall_cycles", "sim.run_max_s"} {
		if out.values[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, out.values[name])
		}
	}
}
