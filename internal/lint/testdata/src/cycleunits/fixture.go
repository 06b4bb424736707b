// Package fixture exercises the cycleunits analyzer.
package fixture

import "redcache/internal/engine"

// bad: cycle counts exceed 2^31 at default scale.
func truncate(cycles int64) int {
	return int(cycles) // want `truncating conversion`
}

// bad: narrower still.
func truncate32(cycles int64) uint32 {
	return uint32(cycles) // want `truncating conversion`
}

// good: widening.
func widen(n int) int64 {
	return int64(n)
}

// good: same-width reinterpretation (addresses, block ids).
func sameWidth(cycles int64) uint64 {
	return uint64(cycles)
}

// bad: hard-coded latency belongs in internal/config.
func magicAfter(eng *engine.Engine) {
	eng.After(100, func() {}) // want `magic latency literal 100`
}

// bad: literals buried in the schedule-time expression too.
func magicSchedule(eng *engine.Engine) {
	eng.Schedule(eng.Now()+42, func() {}) // want `magic latency literal 42`
}

// bad: the allocation-free scheduling variants carry the same unit
// contract as Schedule.
func magicScheduleTimed(eng *engine.Engine) {
	eng.ScheduleTimed(eng.Now()+17, func(int64) {}) // want `magic latency literal 17`
}

func magicTimerArm(eng *engine.Engine) {
	eng.NewTimer(func() {}).Arm(eng.Now() + 33) // want `magic latency literal 33`
}

// good: named latencies, zero delay, and the +1 tie-break cycle.
func namedDelay(eng *engine.Engine, tCAS int64) {
	eng.After(tCAS, func() {})
	eng.After(0, func() {})
	eng.Schedule(eng.Now()+1, func() {})
	eng.ScheduleTimed(eng.Now()+tCAS, func(int64) {})
	eng.NewTimer(func() {}).Arm(eng.Now() + 1)
}

// good: justified narrowing with a documented bound.
func barWidth(v int64) int {
	return int(v) //redvet:units — caller clamps v to [0,40]
}
