package sim

import (
	"bytes"
	"testing"

	"redcache/internal/config"
	"redcache/internal/hbm"
	"redcache/internal/obs"
	"redcache/internal/workloads"
)

// telemetryRun executes one LU run with telemetry enabled and returns
// the full exported byte stream (series JSONL + CSV + event trace).
func telemetryRun(t *testing.T, arch hbm.Arch, epoch int64) (*Result, string) {
	t.Helper()
	sys := config.Default()
	sys.CPU.Cores = 4
	spec, err := workloads.ByLabel("LU")
	if err != nil {
		t.Fatal(err)
	}
	tr := spec.Gen(sys.CPU.Cores, workloads.Tiny, 1)
	res, err := Run(sys, arch, tr, &Options{
		Telemetry: &obs.Options{EpochCycles: epoch, TraceEvents: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.WriteSeriesJSONL(&buf, res.Telemetry.Series()); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteSeriesCSV(&buf, res.Telemetry.Series()); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteEventsJSONL(&buf, res.Telemetry.Tracer); err != nil {
		t.Fatal(err)
	}
	return res, buf.String()
}

// TestTelemetryByteIdentical extends the determinism contract to the
// telemetry subsystem: repeated telemetry-enabled runs must export
// byte-identical series and event traces.
func TestTelemetryByteIdentical(t *testing.T) {
	for _, arch := range []hbm.Arch{hbm.ArchRedCache, hbm.ArchNoHBM} {
		arch := arch
		t.Run(string(arch), func(t *testing.T) {
			_, first := telemetryRun(t, arch, 5000)
			for i := 0; i < 2; i++ {
				if _, again := telemetryRun(t, arch, 5000); again != first {
					t.Fatalf("run %d exported different telemetry bytes", i+2)
				}
			}
		})
	}
}

// TestTelemetryDoesNotPerturbSimulation pins the read-only property of
// the sampler: a telemetry-enabled run must report exactly the seed
// counters of a plain run (goldenString covers every counter except
// EventsFired, which legitimately includes the sampler ticks).
func TestTelemetryDoesNotPerturbSimulation(t *testing.T) {
	plain := goldenRun(t, "LU", hbm.ArchRedCache, workloads.Tiny, 0)
	telRes, _ := telemetryRun(t, hbm.ArchRedCache, 5000)
	if got, want := goldenString(telRes), goldenString(plain); got != want {
		t.Fatalf("telemetry perturbed simulation counters:\n--- plain\n%s\n--- telemetry\n%s", want, got)
	}
}

// TestTelemetryProbeSchema asserts the full RedCache wire-up exports
// the series the paper's time-resolved figures need: γ, the α buffer,
// RCU occupancy and piggybacks, and per-interface bandwidth.
func TestTelemetryProbeSchema(t *testing.T) {
	res, _ := telemetryRun(t, hbm.ArchRedCache, 5000)
	ser := res.Telemetry.Series()
	have := make(map[string]bool, len(ser.Names()))
	for _, n := range ser.Names() {
		have[n] = true
	}
	for _, want := range []string{
		"red.gamma", "red.alpha", "red.alpha_buffer_hit_rate",
		"red.rcu_occupancy", "red.rcu_piggyback",
		"hbm.bandwidth_util", "ddr.bandwidth_util",
		"cpu.instructions", "l3.hit_rate", "engine.events_fired",
	} {
		if !have[want] {
			t.Errorf("probe %q missing from RedCache telemetry schema", want)
		}
	}
	if ser.Rows() == 0 {
		t.Fatal("telemetry series is empty")
	}
	if res.Telemetry.Tracer.Len() == 0 {
		t.Fatal("event trace is empty (tiny LU bypasses thousands of requests)")
	}
}
