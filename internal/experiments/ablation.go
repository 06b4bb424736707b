package experiments

import (
	"fmt"

	"redcache/internal/config"
	"redcache/internal/hbm"
	"redcache/internal/sim"
)

// AblationPoint is one configuration of an ablation sweep.
type AblationPoint struct {
	Name string
	// RelTime is execution time normalized to the sweep's first point
	// (geomean across the suite's workloads).
	RelTime float64
	// RelHBMEnergy is HBM-cache energy on the same normalization.
	RelHBMEnergy float64
}

// ablate runs RedCache across the suite's workloads once per variant,
// where each variant mutates a copy of the system config, and normalizes
// to the first variant.  The workload × variant runs share the suite's
// pool of s.Parallel workers in workload-major order, so each trace is
// generated once and dropped after its last variant; each run writes
// only its own times[vi][wi] and energies[vi][wi] cell, so the points do
// not depend on completion order.
func (s *Suite) ablate(variants []struct {
	name   string
	mutate func(sys *systemMutator)
}) ([]AblationPoint, error) {
	labels := s.Labels()
	times := make([][]float64, len(variants))
	energies := make([][]float64, len(variants))
	for vi := range variants {
		times[vi] = make([]float64, len(labels))
		energies[vi] = make([]float64, len(labels))
	}
	runLabels := make([]string, 0, len(labels)*len(variants))
	for _, w := range labels {
		for range variants {
			runLabels = append(runLabels, w)
		}
	}
	traces := s.newBatchTraces(runLabels)
	err := s.forEach(len(runLabels), func(i int) error {
		wi, vi := i/len(variants), i%len(variants)
		v, w := variants[vi], labels[wi]
		defer traces.done(w)
		t, err := traces.get(w)
		if err != nil {
			return err
		}
		cfg := *s.Sys
		v.mutate(&systemMutator{sys: &cfg})
		res, err := sim.Run(&cfg, hbm.ArchRedCache, t, nil)
		if err != nil {
			return fmt.Errorf("ablation %s/%s: %w", v.name, w, err)
		}
		times[vi][wi] = float64(res.Cycles)
		energies[vi][wi] = res.Energy.HBMCache()
		if s.Progress != nil {
			s.Progress(fmt.Sprintf("ablation %s/%s: %d cycles", v.name, w, res.Cycles))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []AblationPoint
	for vi, v := range variants {
		var rt, re []float64
		for i := range labels {
			rt = append(rt, times[vi][i]/times[0][i])
			re = append(re, energies[vi][i]/energies[0][i])
		}
		out = append(out, AblationPoint{
			Name: v.name, RelTime: Geomean(rt), RelHBMEnergy: Geomean(re),
		})
	}
	return out, nil
}

// systemMutator wraps config mutation for ablations.
type systemMutator struct{ sys *config.System }

// AblationRCUSize sweeps the RCU queue capacity (the paper fixes 32
// entries, §III-C); it quantifies how much of RedCache's win the update
// queue is responsible for.
func (s *Suite) AblationRCUSize() ([]AblationPoint, error) {
	mk := func(n int) func(*systemMutator) {
		return func(m *systemMutator) { m.sys.Red.RCUEntries = n }
	}
	return s.ablate([]struct {
		name   string
		mutate func(*systemMutator)
	}{
		{"rcu-32 (paper)", mk(32)},
		{"rcu-1", mk(1)},
		{"rcu-8", mk(8)},
		{"rcu-128", mk(128)},
	})
}

// AblationAlphaAdaptivity compares the adaptive α controller against
// frozen thresholds, isolating the value of run-time tuning (§III-A).
func (s *Suite) AblationAlphaAdaptivity() ([]AblationPoint, error) {
	fixed := func(a int) func(*systemMutator) {
		return func(m *systemMutator) {
			m.sys.Red.AlphaInit = a
			m.sys.Red.AlphaMin = a
			m.sys.Red.AlphaMax = a
		}
	}
	return s.ablate([]struct {
		name   string
		mutate func(*systemMutator)
	}{
		{"adaptive (paper)", func(*systemMutator) {}},
		{"fixed α=1", fixed(1)},
		{"fixed α=4", fixed(4)},
		{"fixed α=16", fixed(16)},
		{"fixed α=64", fixed(64)},
	})
}

// AblationGammaAdaptivity compares the adaptive γ against frozen
// lifetimes (§III-A-2).
func (s *Suite) AblationGammaAdaptivity() ([]AblationPoint, error) {
	fixed := func(g int) func(*systemMutator) {
		return func(m *systemMutator) {
			m.sys.Red.GammaInit = g
			m.sys.Red.GammaMin = g
			m.sys.Red.GammaMax = g
		}
	}
	return s.ablate([]struct {
		name   string
		mutate func(*systemMutator)
	}{
		{"adaptive (paper)", func(*systemMutator) {}},
		{"fixed γ=4", fixed(4)},
		{"fixed γ=32", fixed(32)},
		{"fixed γ=255 (never invalidate)", fixed(255)},
	})
}
