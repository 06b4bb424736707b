// Package sim wires a complete simulated machine — cores, SRAM cache
// hierarchy, a DRAM-cache controller, and the WideIO/DDR4 channel
// models — and runs one workload trace to completion.
package sim

import (
	"fmt"

	"redcache/internal/config"
	"redcache/internal/cpu"
	"redcache/internal/dram"
	"redcache/internal/energy"
	"redcache/internal/engine"
	"redcache/internal/hbm"
	"redcache/internal/mem"
	"redcache/internal/obs"
	"redcache/internal/stats"
	"redcache/internal/trace"
)

// Result captures everything the experiment harnesses report about one
// (workload, architecture) run.
type Result struct {
	Arch     hbm.Arch
	Workload string

	Cycles       int64 // execution time: last core retirement
	Instructions int64

	HBMIface stats.Interface // zero-valued for No-HBM
	DDRIface stats.Interface
	Ctl      hbm.Stats
	L3       stats.CacheStats
	Energy   energy.Breakdown

	// EventsFired counts engine events executed over the whole run — the
	// denominator for events/sec throughput reporting in cmd/redbench.
	EventsFired uint64

	// Telemetry holds the epoch time-series and event trace when
	// Options.Telemetry was set; nil otherwise.
	Telemetry *obs.Telemetry

	// InvariantChecks counts completed online invariant sweeps when
	// Options.InvariantCycles was set.
	InvariantChecks int64
}

// Seconds converts cycles to wall time at the configured frequency.
func (r *Result) Seconds(cfg *config.System) float64 {
	return float64(r.Cycles) / (cfg.CPU.FreqGHz * 1e9)
}

// TransferredBytes is the total data moved over both interfaces — the x
// axis of Fig 2.
func (r *Result) TransferredBytes() int64 {
	return r.HBMIface.TotalBytes() + r.DDRIface.TotalBytes()
}

// AggregateBandwidth is the summed interface bandwidth in bytes/cycle —
// the y axis of Fig 2.
func (r *Result) AggregateBandwidth() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.TransferredBytes()) / float64(r.Cycles)
}

// IPC reports retired instructions per cycle across the machine.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// Options tweak a run.
type Options struct {
	// DDRObserver, when set, receives per-transaction service details of
	// main-memory accesses (the Fig 3 homo-reuse harness).
	DDRObserver dram.Observer
	// MaxCycles aborts runaway simulations via the cycle-budget
	// watchdog (and a matching engine event bound): a run still short of
	// completion at this cycle returns a structured *Error instead of
	// hanging.  0 means no limit.
	MaxCycles int64
	// InvariantCycles, when > 0, runs the online invariant checker
	// (engine heap order, FR-FCFS queue state, tag-store/RCU CAM
	// consistency, counter sanity) every this many cycles; a violation
	// aborts the run with a structured *Error.
	InvariantCycles int64
	// Telemetry, when set, enables cycle-domain telemetry: every
	// component registers probes at wire-up and the engine samples them
	// every Telemetry.EpochCycles cycles.  Sampling is read-only, so a
	// telemetry-enabled run produces the same simulation counters as a
	// plain one.
	Telemetry *obs.Options
}

// machine is one fully wired simulated system: the engine, both
// channel models, the DRAM-cache controller, the CPU complex, and the
// observers.  Construction (buildMachine) is separated from execution
// (complete) so only the run itself sits under the panic recovery that
// turns guard trips into a structured *Error.
type machine struct {
	cfg  *config.System
	arch hbm.Arch
	t    *trace.Trace
	opts *Options

	eng    *engine.Engine
	res    *Result
	hbmCtl *dram.Controller
	ddrCtl *dram.Controller
	ctl    hbm.Controller
	cx     *cpu.Complex
	tel    *obs.Telemetry
	invs   *invariantRunner
}

// validateRun checks Run's inputs.
func validateRun(cfg *config.System, t *trace.Trace) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if t.Cores() == 0 {
		return fmt.Errorf("sim: trace %q has no streams", t.Name)
	}
	return nil
}

// buildMachine wires a complete machine in the canonical order — the
// order is part of the determinism contract (telemetry columns).
func buildMachine(cfg *config.System, arch hbm.Arch, t *trace.Trace, opts *Options) (*machine, error) {
	if opts == nil {
		opts = &Options{}
	}
	m := &machine{cfg: cfg, arch: arch, t: t, opts: opts}

	m.eng = engine.New()

	m.res = &Result{Arch: arch, Workload: t.Name}
	m.res.HBMIface.Name = "WideIO"
	m.res.DDRIface.Name = "DDRx"

	if arch != hbm.ArchNoHBM {
		m.hbmCtl = dram.NewController(m.eng, cfg.HBM, &m.res.HBMIface)
	}
	m.ddrCtl = dram.NewController(m.eng, cfg.MainMem, &m.res.DDRIface)
	if opts.DDRObserver != nil {
		m.ddrCtl.SetObserver(opts.DDRObserver)
	}

	ctl, err := hbm.New(arch, m.eng, cfg, m.hbmCtl, m.ddrCtl)
	if err != nil {
		return nil, err
	}
	m.ctl = ctl

	m.cx = cpu.NewComplex(m.eng, cfg, t, submitFunc(func(req *mem.Request) { m.ctl.Submit(req) }))

	if opts.Telemetry != nil {
		tel, err := obs.New(*opts.Telemetry)
		if err != nil {
			return nil, err
		}
		m.tel = tel
		// Registration order fixes the exported column order, so it is
		// part of the telemetry file format: engine, interfaces +
		// channels, cache controller, CPU, L3.
		tel.Tracer.SetClock(m.eng.Now)
		eng := m.eng
		tel.Reg.Counter("engine.events_fired", func() int64 { return int64(eng.Fired) })
		tel.Reg.Gauge("engine.pending", func() int64 { return int64(eng.Pending()) })
		if m.hbmCtl != nil {
			obs.RegisterInterface(&tel.Reg, "hbm", &m.res.HBMIface, m.eng.Now)
			m.hbmCtl.RegisterProbes(&tel.Reg, "hbm")
		}
		obs.RegisterInterface(&tel.Reg, "ddr", &m.res.DDRIface, m.eng.Now)
		m.ddrCtl.RegisterProbes(&tel.Reg, "ddr")
		m.ctl.RegisterTelemetry(tel)
		m.cx.RegisterProbes(&tel.Reg)
		obs.RegisterCache(&tel.Reg, "l3", m.cx.Hier.L3Stats())
		tel.Start()
		m.eng.SchedulePeriodic(tel.EpochCycles(), tel.Sample)
	}

	if opts.InvariantCycles > 0 {
		m.invs = newInvariantRunner(m.eng.CheckHeap, m.hbmCtl, m.ddrCtl, m.ctl, &m.res.HBMIface, &m.res.DDRIface)
		m.eng.SchedulePeriodic(opts.InvariantCycles, m.invs.tick)
	}

	m.cx.Start()

	if opts.MaxCycles > 0 {
		// Also translate the cycle bound into a generous event bound:
		// every component schedules O(1) events per cycle of useful work,
		// so the event limit catches same-cycle scheduling loops the
		// cycle deadline alone would never pass.
		m.eng.Limit = uint64(opts.MaxCycles)
	}
	return m, nil
}

// complete executes the machine to completion — main run (with the
// optional watchdog budget), writeback drain, telemetry finish, and
// result harvest.  Panics from the run loop (watchdog, invariant
// violations, bugs) surface as a structured *Error.
func (m *machine) complete() (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, asError(r, m.eng, m.t.Name, m.arch)
		}
	}()
	m.runLoop()
	if m.cx.AllDoneAt < 0 {
		return nil, &Error{Op: "deadlock", Workload: m.t.Name, Arch: m.arch,
			Cycle: m.eng.Now(), Fired: m.eng.Fired, Pending: m.eng.Pending(),
			Err: fmt.Errorf("event queue drained before all cores retired")}
	}

	m.ctl.Drain()
	m.eng.Run() // let the drain traffic settle

	if m.tel != nil {
		m.tel.Finish(m.eng.Now())
		m.res.Telemetry = m.tel
	}

	m.res.Cycles = m.cx.AllDoneAt
	m.res.Instructions = m.cx.Instructions()
	m.res.EventsFired = m.eng.Fired
	m.res.Ctl = *m.ctl.Stats()
	m.res.L3 = *m.cx.Hier.L3Stats()
	if m.invs != nil {
		m.res.InvariantChecks = m.invs.sweeps
	}

	in := energy.Inputs{
		Cycles:      m.res.Cycles,
		DDR:         &m.res.DDRIface,
		SRAMAccess:  m.res.Ctl.SRAMAccess,
		InSituCount: m.res.Ctl.InSitu,
	}
	if m.arch != hbm.ArchNoHBM {
		in.HBM = &m.res.HBMIface
	}
	m.res.Energy = energy.Compute(m.cfg, in)
	return m.res, nil
}

// runLoop executes the main run: watchdog-bounded when MaxCycles is
// set, and always finishing with an unbounded run so trailing periodic
// ticks auto-stop at the same cycle as an unbounded run.
func (m *machine) runLoop() {
	if budget := m.opts.MaxCycles; budget > 0 {
		// Cycle-exact watchdog.  The budget is enforced by the bounded
		// run itself rather than a queued sentinel event: an event
		// parked at the budget cycle would hold the queue open after the
		// cores retire, dragging the clock (and the writeback drain) to
		// the budget cycle and perturbing interface counters.
		if !m.eng.RunWithin(budget) && m.cx.AllDoneAt < 0 {
			panic(watchdogAbort{budget: budget})
		}
		// Cores retired within budget; anything still queued past the
		// deadline is a periodic tick about to auto-stop, and letting it
		// fire keeps the clock identical to an unbounded run.
	}
	m.eng.Run()
}

// Run simulates the trace on the given architecture and returns the
// collected results.  Watchdog trips, invariant violations, and panics
// inside the run loop surface as a structured *Error carrying the
// engine state at the point of failure.
func Run(cfg *config.System, arch hbm.Arch, t *trace.Trace, opts *Options) (*Result, error) {
	if err := validateRun(cfg, t); err != nil {
		return nil, err
	}
	m, err := buildMachine(cfg, arch, t, opts)
	if err != nil {
		return nil, err
	}
	return m.complete()
}

// submitFunc adapts a function to cpu.Submitter.
type submitFunc func(*mem.Request)

// Submit implements cpu.Submitter.
func (f submitFunc) Submit(req *mem.Request) { f(req) }
