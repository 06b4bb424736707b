package sim

import (
	"bytes"
	"fmt"
	"testing"

	"redcache/internal/config"
	"redcache/internal/hbm"
	"redcache/internal/obs"
	"redcache/internal/workloads"
)

// fullOpts builds the standard full-coverage option set: telemetry
// (series + event trace) and invariants — every observer a run can
// carry.
func fullOpts() *Options {
	return &Options{
		InvariantCycles: 4096,
		Telemetry:       &obs.Options{EpochCycles: 4096, TraceEvents: true},
	}
}

// fullString renders everything the run-identity contract covers:
// the golden counters, event and sweep counts, and the telemetry
// series and event trace.
func fullString(t *testing.T, r *Result) string {
	t.Helper()
	s := goldenString(r)
	s += fmt.Sprintf("Events:%d InvariantChecks:%d\n", r.EventsFired, r.InvariantChecks)
	if r.Telemetry != nil {
		var buf bytes.Buffer
		if err := obs.WriteSeriesJSONL(&buf, r.Telemetry.Series()); err != nil {
			t.Fatal(err)
		}
		if err := obs.WriteSeriesCSV(&buf, r.Telemetry.Series()); err != nil {
			t.Fatal(err)
		}
		if err := obs.WriteEventsJSONL(&buf, r.Telemetry.Tracer); err != nil {
			t.Fatal(err)
		}
		s += buf.String()
	}
	return s
}

// TestRunAllArchitectures smoke-tests the full pipeline: every
// architecture completes a tiny workload, produces a positive execution
// time, and conserves basic request accounting.
func TestRunAllArchitectures(t *testing.T) {
	cfg := config.Tiny()
	tr := workloads.MG(cfg.CPU.Cores, workloads.Tiny, 1)
	for _, arch := range hbm.All() {
		res, err := Run(cfg, arch, tr, nil)
		if err != nil {
			t.Fatalf("%s: %v", arch, err)
		}
		if res.Cycles <= 0 {
			t.Errorf("%s: non-positive execution time %d", arch, res.Cycles)
		}
		if res.Instructions <= 0 {
			t.Errorf("%s: no instructions retired", arch)
		}
		total := res.Ctl.Reads + res.Ctl.Writes
		if total == 0 {
			t.Errorf("%s: controller saw no requests", arch)
		}
		if res.Energy.System() <= 0 {
			t.Errorf("%s: non-positive system energy", arch)
		}
		t.Logf("%-10s cycles=%-10d reqs=%-8d hbmB=%-10d ddrB=%-10d hit=%.2f",
			arch, res.Cycles, total, res.HBMIface.TotalBytes(),
			res.DDRIface.TotalBytes(), res.Ctl.Demand.HitRate())
	}
}
