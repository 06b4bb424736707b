package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"

	"redcache/internal/sim"
	"redcache/internal/trace"
)

// digest fingerprints the simulated outcome of one run: cycles,
// instructions, both memory interfaces, the DRAM-cache controller's
// statistics, the L3 and the energy breakdown.  It leaves out what
// legitimately differs between an untraced and a traced run of the same
// configuration (events fired, which counts telemetry ticks; the
// telemetry itself).  %v prints floats in their shortest exact form, so
// equal digests mean equal values.
func digest(r *sim.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d %d %+v %+v %+v %+v %+v",
		r.Cycles, r.Instructions, r.HBMIface, r.DDRIface, r.Ctl, r.L3, r.Energy)
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// instructions is what a correct run must retire for t: every record is
// one memory instruction preceded by Gap non-memory instructions.
func instructions(t *trace.Trace) int64 {
	var n int64
	for _, s := range t.Streams {
		for _, r := range s {
			n += int64(r.Gap) + 1
		}
	}
	return n
}

// validate checks one result against what the simulator must guarantee
// independently of timing: every traced instruction retired and the
// interface counters are structurally consistent.
func validate(r *sim.Result, wantInstr int64) error {
	if r.Cycles <= 0 {
		return fmt.Errorf("non-positive cycle count %d", r.Cycles)
	}
	if r.Instructions != wantInstr {
		return fmt.Errorf("retired %d instructions, trace holds %d", r.Instructions, wantInstr)
	}
	if err := r.HBMIface.Check(); err != nil {
		return err
	}
	return r.DDRIface.Check()
}

// ledger counts operations (one per simulation run) and their failures.
// A run fails when it errors, fails validate, or produces a digest that
// differs from the first run of the same configuration in this process.
type ledger struct {
	configs   []runConfig
	wantInstr map[string]int64 // trace label → instructions
	ref       []string         // per-config reference digest
	attempted int
	failed    int
	log       io.Writer
}

func newLedger(configs []runConfig, wantInstr map[string]int64, log io.Writer) *ledger {
	return &ledger{configs: configs, wantInstr: wantInstr, ref: make([]string, len(configs)), log: log}
}

// record accounts for one run of configs[i].
func (l *ledger) record(i int, r *sim.Result, err error) {
	l.attempted++
	c := l.configs[i]
	if err == nil {
		err = validate(r, l.wantInstr[c.label])
	}
	if err == nil {
		d := digest(r)
		switch l.ref[i] {
		case "":
			l.ref[i] = d
		case d:
		default:
			err = fmt.Errorf("digest %s differs from an earlier run's %s", d, l.ref[i])
		}
	}
	if err != nil {
		l.failed++
		fmt.Fprintf(l.log, "perfbench: %s/%s failed: %v\n", c.label, c.arch, err)
	}
}

// workloadDigest combines the per-config digests in config order; it is
// empty while some config has no passing run.
func (l *ledger) workloadDigest() string {
	for _, d := range l.ref {
		if d == "" {
			return ""
		}
	}
	h := sha256.Sum256([]byte(strings.Join(l.ref, ",")))
	return hex.EncodeToString(h[:8])
}
