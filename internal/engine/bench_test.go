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

// BenchmarkEngineTimerRearm measures the channel wake path: 6 timers
// (the default 4 HBM + 2 DDR channels) whose decisions mostly re-arm
// for the next cycle and now and then defer to a bank's ready time,
// while per-channel arrivals supersede deferred decisions with an
// earlier arm and issued commands queue completions on the heap.  One
// op is one Step, timer or heap event.
func BenchmarkEngineTimerRearm(b *testing.B) {
	e := New()
	const chans = 6
	const bankReady = 12
	const dataLatency = 3
	timers := make([]*Timer, chans)
	decisions := 0
	complete := func(int64) {}
	for i := range timers {
		i := i
		timers[i] = e.NewTimer(func() {
			decisions++
			if decisions%4 == 0 {
				timers[i].Arm(e.Now() + bankReady)
				return
			}
			e.ScheduleTimed(e.Now()+dataLatency, complete)
			timers[i].Arm(e.Now() + 1)
		})
	}
	arrivals := make([]func(), chans)
	for i := range arrivals {
		i := i
		gap := int64(i%5 + 3)
		arrivals[i] = func() {
			if t := timers[i]; !t.Armed() || t.At() > e.Now() {
				t.Arm(e.Now())
			}
			e.After(gap, arrivals[i])
		}
		e.Schedule(int64(i), arrivals[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}
