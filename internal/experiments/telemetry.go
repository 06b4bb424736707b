package experiments

import (
	"strconv"
	"strings"

	"redcache/internal/hbm"
	"redcache/internal/obs"
	"redcache/internal/sim"
)

// EpochBandwidthCSV runs one (workload, arch) pair with cycle-domain
// telemetry enabled and renders the per-epoch interface bandwidth
// series as CSV — the time-resolved view behind Fig 2's aggregate
// bandwidth numbers.  Byte counts are per-epoch increments; utilization
// is the interval busy fraction.  The run is separate from the
// memoized figure results (those simulate without telemetry), and the
// output is byte-deterministic.
func (s *Suite) EpochBandwidthCSV(label string, arch hbm.Arch, epoch int64) (string, error) {
	t, err := s.genTrace(label)
	if err != nil {
		return "", err
	}
	cfg := *s.Sys
	res, err := sim.Run(&cfg, arch, t, &sim.Options{
		InvariantCycles: s.InvariantCycles,
		Telemetry:       &obs.Options{EpochCycles: epoch},
	})
	if err != nil {
		return "", err
	}
	ser := res.Telemetry.Series()

	cols := []string{"hbm.bandwidth_util", "ddr.bandwidth_util",
		"hbm.read_bytes", "hbm.write_bytes", "ddr.read_bytes", "ddr.write_bytes"}
	var b strings.Builder
	b.WriteString("cycle,hbm_bw_util,ddr_bw_util,hbm_read_bytes,hbm_write_bytes,ddr_read_bytes,ddr_write_bytes\n")
	for row := 0; row < ser.Rows(); row++ {
		b.WriteString(strconv.FormatInt(ser.Cycle(row), 10))
		for _, c := range cols {
			v, _ := ser.Value(row, c) // absent columns (No-HBM) read as 0
			b.WriteByte(',')
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}
