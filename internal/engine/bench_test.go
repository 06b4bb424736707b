package engine

import "testing"

// BenchmarkEngineScheduleFire measures steady-state scheduler throughput:
// 64 self-rescheduling "components" (closures created once, outside the
// timed region) keep the heap at a realistic working depth while every
// iteration pays one Schedule plus one Step — the exact cost profile of
// the simulator's hot loop.
func BenchmarkEngineScheduleFire(b *testing.B) {
	e := New()
	const comps = 64
	fns := make([]func(), comps)
	for i := range fns {
		i := i
		delta := int64(i%13 + 1)
		fns[i] = func() { e.After(delta, fns[i]) }
	}
	for i, fn := range fns {
		e.Schedule(int64(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkEngineEndToEnd drains a full schedule per iteration — the
// Run() path (pop loop, clock advance, limit check) rather than the
// per-event Step path.
func BenchmarkEngineEndToEnd(b *testing.B) {
	const comps = 64
	const eventsPerRun = 16384
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := New()
		fired := 0
		fns := make([]func(), comps)
		for j := range fns {
			j := j
			delta := int64(j%17 + 1)
			fns[j] = func() {
				fired++
				if fired < eventsPerRun {
					e.After(delta, fns[j])
				}
			}
		}
		for j, fn := range fns {
			e.Schedule(int64(j%5), fn)
		}
		e.Run()
	}
	b.ReportMetric(float64(b.N)*eventsPerRun/b.Elapsed().Seconds(), "events/s")
}
