package sim

// Checkpoint/restore for the whole machine.  A snapshot is taken at an
// observationally free pause point (between events) and contains every bit of mutable simulation state;
// wiring — component topology, callbacks, probe closures — is NOT
// serialized but rebuilt by running the normal buildMachine wire-up
// and then overwriting its state (restore-by-rebuild).  The manifest
// pins everything that must match for a resume to be sound; any
// difference is a structured reject, never a silent re-run.
//
// Stream order is load-order-constrained: the CPU complex restores
// first because re-creating its request slots registers the completion
// callbacks and request-pointer keys, then the DRAM-cache controller
// (re-creating its pooled ops registers their fire callbacks), then
// the channel models (whose queued transactions resolve those keys),
// and the engine heap last (its events resolve against everything).

import (
	"fmt"

	"redcache/internal/ckpt"
	"redcache/internal/config"
	"redcache/internal/engine"
	"redcache/internal/hbm"
	"redcache/internal/trace"
)

const tagSim = 0x53494d31 // "SIM1"

// ckptController is the checkpoint face a DRAM-cache controller
// exposes; every architecture implements it (reference topologies just
// have less state).
type ckptController interface {
	SaveState(*ckpt.Writer, *engine.FnRegistry) error
	LoadState(*ckpt.Reader, *engine.FnRegistry) error
}

// manifest builds the provenance record for this machine.  Cycle and
// Final are stamped by checkpoint().
func (m *machine) manifest() *ckpt.Manifest {
	man := &ckpt.Manifest{
		Format:          ckpt.FormatVersion,
		ConfigSHA:       ckpt.HashConfig(m.cfg),
		Workload:        m.t.Name,
		Arch:            string(m.arch),
		Seed:            m.cfg.Seed,
		InvariantCycles: m.opts.InvariantCycles,
		MaxCycles:       m.opts.MaxCycles,
	}
	if f := m.opts.Faults; f != nil && f.Enabled() {
		man.Faults = f.Spec()
		man.FaultSeed = f.Seed
	}
	if m.tel != nil {
		man.EpochCycles = m.tel.EpochCycles()
	}
	return man
}

// checkpoint snapshots the machine to the configured path.  finalOp is
// "" for a periodic (resumable) snapshot, or the abort op for a
// diagnostic snapshot, which goes to CkptPath+".final" so it can never
// clobber the last good periodic snapshot.
func (m *machine) checkpoint(finalOp string) error {
	man := m.manifest()
	man.Cycle = m.eng.Now()
	man.Final = finalOp
	var w ckpt.Writer
	if err := m.saveState(&w); err != nil {
		return fmt.Errorf("sim: snapshot at cycle %d: %w", man.Cycle, err)
	}
	path := m.opts.CkptPath
	if finalOp != "" {
		path += ".final"
	}
	return ckpt.SaveFile(path, man, w.Bytes())
}

// saveState serializes every component in the canonical stream order.
func (m *machine) saveState(w *ckpt.Writer) error {
	w.Tag(tagSim)
	m.cx.SaveState(w)
	if c, ok := m.ctl.(ckptController); ok {
		if err := c.SaveState(w, m.reg); err != nil {
			return err
		}
	} else {
		return fmt.Errorf("sim: %s controller does not support checkpointing", m.arch)
	}
	w.Bool(m.hbmCtl != nil)
	if m.hbmCtl != nil {
		if err := m.hbmCtl.SaveState(w, m.reg); err != nil {
			return err
		}
	}
	if err := m.ddrCtl.SaveState(w, m.reg); err != nil {
		return err
	}
	// The live interface counters belong to Result, not the channel
	// models (which only hold wiring pointers to them).
	m.res.HBMIface.SaveState(w)
	m.res.DDRIface.SaveState(w)
	m.inj.SaveState(w)
	w.Bool(m.tel != nil)
	if m.tel != nil {
		m.tel.SaveState(w)
	}
	w.Bool(m.invs != nil)
	if m.invs != nil {
		w.I64(m.invs.sweeps)
	}
	return m.eng.SaveState(w, m.reg)
}

// loadState restores a payload into a freshly built machine, mirroring
// saveState exactly.
func (m *machine) loadState(r *ckpt.Reader) error {
	r.Tag(tagSim)
	if err := r.Err(); err != nil {
		return err
	}
	if err := m.cx.LoadState(r); err != nil {
		return err
	}
	c, ok := m.ctl.(ckptController)
	if !ok {
		return fmt.Errorf("sim: %s controller does not support checkpointing", m.arch)
	}
	if err := c.LoadState(r, m.reg); err != nil {
		return err
	}
	hasHBM := r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	if hasHBM != (m.hbmCtl != nil) {
		return fmt.Errorf("sim: checkpoint HBM channel presence %v, machine wired %v: %w",
			hasHBM, m.hbmCtl != nil, ckpt.ErrCorrupt)
	}
	if m.hbmCtl != nil {
		if err := m.hbmCtl.LoadState(r, m.reg); err != nil {
			return err
		}
	}
	if err := m.ddrCtl.LoadState(r, m.reg); err != nil {
		return err
	}
	m.res.HBMIface.LoadState(r)
	m.res.DDRIface.LoadState(r)
	if err := m.inj.LoadState(r); err != nil {
		return err
	}
	hasTel := r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	if hasTel != (m.tel != nil) {
		return fmt.Errorf("sim: checkpoint telemetry presence %v, machine wired %v: %w",
			hasTel, m.tel != nil, ckpt.ErrCorrupt)
	}
	if m.tel != nil {
		if err := m.tel.LoadState(r); err != nil {
			return err
		}
	}
	hasInvs := r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	if hasInvs != (m.invs != nil) {
		return fmt.Errorf("sim: checkpoint invariant-runner presence %v, machine wired %v: %w",
			hasInvs, m.invs != nil, ckpt.ErrCorrupt)
	}
	if m.invs != nil {
		m.invs.sweeps = r.I64()
	}
	if err := m.eng.LoadState(r, m.reg); err != nil {
		return err
	}
	if err := r.Err(); err != nil {
		return err
	}
	if n := r.Remaining(); n != 0 {
		return fmt.Errorf("sim: %d payload bytes left after machine restore: %w", n, ckpt.ErrCorrupt)
	}
	return nil
}

// Resume restores the run checkpointed at path and executes it to
// completion.  The caller supplies the same configuration, trace, and
// options as the original run; the checkpoint's manifest is checked
// against them field by field, and any difference — or a diagnostic
// (Final) snapshot — is a wrapped ckpt.ErrMismatch.  A run resumed
// from any of its periodic snapshots produces a Result, telemetry
// series, and invariant verdicts byte-identical to the uninterrupted
// run's.
func Resume(cfg *config.System, arch hbm.Arch, t *trace.Trace, opts *Options, path string) (*Result, error) {
	if err := validateRun(cfg, t, opts); err != nil {
		return nil, err
	}
	man, payload, err := ckpt.LoadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := buildMachine(cfg, arch, t, opts)
	if err != nil {
		return nil, err
	}
	if err := man.Compatible(m.manifest()); err != nil {
		return nil, fmt.Errorf("sim: cannot resume %s: %w", path, err)
	}
	if err := m.loadState(ckpt.NewReader(payload)); err != nil {
		return nil, fmt.Errorf("sim: restoring %s: %w", path, err)
	}
	return m.complete()
}
