// Package unitflow is the fixture for the unitflow analyzer:
// nanosecond-domain values must never reach engine scheduling sinks,
// whether tainted locally or laundered through another package's
// returns, parameter forwarding, struct fields, channels, or a
// transitive sink function.
package unitflow

import (
	"time"

	"redcache/internal/engine"
	"redcache/internal/lint/testdata/src/unitflow/nsutil"
)

func direct(e *engine.Engine) {
	ns := time.Now().UnixNano()
	e.Schedule(ns, nil) // want `nanosecond-domain value ns reaches`
}

func crossReturn(e *engine.Engine) {
	lat := nsutil.LatencyNS()
	e.Schedule(lat, nil) // want `nanosecond-domain value lat reaches`
}

func crossForward(e *engine.Engine, d time.Duration) {
	v := nsutil.Forward(int64(d))
	e.Schedule(v, nil) // want `nanosecond-domain value v reaches`
}

func transitiveSink(e *engine.Engine, d time.Duration) {
	nsutil.Sched(e, int64(d)) // want `transitive engine-schedule sink`
}

type sample struct {
	whenNS int64
}

func fieldTaint(e *engine.Engine, d time.Duration) {
	var s sample
	s.whenNS = int64(d)
	e.ScheduleTimed(s.whenNS, nil) // want `nanosecond-domain value s\.whenNS reaches`
}

func chanTaint(e *engine.Engine, d time.Duration) {
	ch := make(chan int64, 1)
	ch <- int64(d)
	e.Schedule(<-ch, nil) // want `nanosecond-domain value <-ch reaches`
}

// clean schedules a cycle-typed value: no diagnostic.
func clean(e *engine.Engine, cycles int64) {
	e.Schedule(cycles, nil)
}

// comparisons drop taint: a deadline check yields a bool decision, not
// a time value.
func compare(e *engine.Engine, d time.Duration, cycles int64) {
	if int64(d) > cycles {
		e.Schedule(cycles, nil)
	}
}

// timerArm: a re-armable timer's arm cycle is an engine time argument
// like Schedule's.
func timerArm(t *engine.Timer, d time.Duration) {
	t.Arm(int64(d)) // want `nanosecond-domain value int64\(d\) reaches`
}
