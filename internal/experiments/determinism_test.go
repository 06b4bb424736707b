package experiments

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"redcache/internal/hbm"
	"redcache/internal/workloads"
)

// renderReports runs the figure pipeline on one suite and returns every
// rendered report byte: Fig 9 table + CSV, Fig 3 sketches + groups, and
// the per-workload text statistics.
func renderReports(t *testing.T, s *Suite) []byte {
	t.Helper()
	var buf bytes.Buffer

	f9, err := s.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	f9.WriteTable(&buf)
	buf.WriteString(f9.CSV())

	f3, err := s.Fig3(s.Workloads)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f3 {
		Fig3Sketch(r, 12, &buf)
	}

	ts, err := s.TextStats()
	if err != nil {
		t.Fatal(err)
	}
	ts.WriteTable(&buf)

	// Telemetry-enabled run: the per-epoch bandwidth series must be as
	// byte-stable across serial/parallel harness runs as the figures.
	bw, err := s.EpochBandwidthCSV("LU", hbm.ArchRedCache, 5000)
	if err != nil {
		t.Fatal(err)
	}
	buf.WriteString(bw)
	return buf.Bytes()
}

// checkedTinySuite is tinySuite with the online invariant checker
// turned on for every run.
func checkedTinySuite() *Suite {
	s := tinySuite()
	s.InvariantCycles = 25000
	return s
}

// TestReportBytesDeterministic asserts the end-to-end harness property
// the paper's figure comparisons rely on: the same configuration run
// through the full experiment pipeline — once serially under
// GOMAXPROCS=1 and once with a parallel worker fan-out — emits
// byte-identical reports.  This is the regression net under the
// detmaprange fixes (sorted-key emission in stats and report paths).
// Every run also carries the invariant checker, so a violation anywhere
// in the pipeline fails the test.
func TestReportBytesDeterministic(t *testing.T) {
	serial := func() []byte {
		prev := runtime.GOMAXPROCS(1)
		defer runtime.GOMAXPROCS(prev)
		s := checkedTinySuite()
		s.Parallel = 1
		return renderReports(t, s)
	}()

	parallel := func() []byte {
		s := checkedTinySuite()
		s.Parallel = 8
		return renderReports(t, s)
	}()

	if !bytes.Equal(serial, parallel) {
		t.Fatalf("report bytes differ between GOMAXPROCS=1/serial and parallel runs:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}

	// And a straight repeat at default parallelism: identical again.
	repeat := renderReports(t, checkedTinySuite())
	if !bytes.Equal(parallel, repeat) {
		t.Fatalf("report bytes differ across repeated parallel runs:\n--- first ---\n%s\n--- repeat ---\n%s",
			parallel, repeat)
	}
}

// TestGroupsEmissionStable pins the sorted-key aggregation in
// stats.ReuseHistogram.Groups via the Fig 3 path: two independent runs
// must produce identical group slices element-for-element.
func TestGroupsEmissionStable(t *testing.T) {
	run := func() []Fig3Result {
		s := NewSuite(workloads.Tiny)
		s.Sys.CPU.Cores = 4
		s.Workloads = []string{"RDX"}
		out, err := s.Fig3(s.Workloads)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Fig3 groups differ across runs:\n%+v\n%+v", a, b)
	}
}
