// Package fixture exercises the nowallclock analyzer.
package fixture

import (
	"math/rand"
	"time" // want `package redcache/internal/lint/testdata/src/nowallclock imports "time"`
)

// bad: wall-clock read.
func stamp() int64 {
	return time.Now().UnixNano() // want `time.Now reads the wall clock`
}

// bad: derivatives of the wall clock.
func elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want `time.Since reads the wall clock`
}

// bad: host-time delays.
func pause() {
	time.Sleep(time.Millisecond) // want `time.Sleep reads the wall clock`
}

// bad: the global generator has process-wide, unseeded state.
func roll() int {
	return rand.Intn(6) // want `rand.Intn uses the global random generator`
}

// good: explicit seeded generator, the workload-generator idiom.
func seededRoll(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(6)
}

// bad: seeding from the clock is still wall-clock dependence.
func clockSeeded() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano())) // want `time.Now reads the wall clock`
}

// good: justified escape hatch for host-side tooling.
func progressStamp() int64 {
	return time.Now().Unix() //redvet:wallclock — CLI progress display only
}

// good: the annotated-helper idiom — all host time reads funnel
// through one monotonic helper whose annotation names the sanctioned
// wall-clock use.
type stopwatch struct{ base time.Time }

func (p *stopwatch) nowNs() int64 {
	return time.Since(p.base).Nanoseconds() //redvet:wallclock — host-side timing only, never fed back into simulated state
}

// bad: an unannotated read inside the same type does not inherit the
// helper's justification — every wall-clock site carries its own.
func (p *stopwatch) leakedNow() time.Time {
	return time.Now() // want `time.Now reads the wall clock`
}
