// Package wallflow is the fixture for the wallflow analyzer:
// wall-clock readings (time.Now/Since/Until) are taint sources that
// must never reach a deterministic sink — engine scheduling, a
// deterministic-package entry point, or a deterministic struct field —
// while stderr reports remain sanctioned.
package wallflow

import (
	"fmt"
	"os"
	"time"

	"redcache/internal/engine"
	"redcache/internal/lint/testdata/src/wallflow/wallutil"
	"redcache/internal/stats"
)

func direct(e *engine.Engine) {
	limit := time.Now().UnixNano()
	e.RunUntil(limit) // want `wall-clock-derived value limit reaches`
}

func fieldStore(iface *stats.Interface, t0 time.Time) {
	iface.BusyCycles = time.Since(t0).Nanoseconds() // want `wall-clock-derived value stored into deterministic field .*Interface\.BusyCycles`
}

func crossReturn(e *engine.Engine) {
	e.RunUntil(wallutil.Stamp()) // want `wall-clock-derived value wallutil\.Stamp\(\) reaches`
}

func transitiveSink(t0 time.Time) {
	wallutil.Consume(time.Since(t0).Nanoseconds()) // want `transitive deterministic sink`
}

// report is the sanctioned path: wall time flows to stderr only.
func report(start time.Time) {
	fmt.Fprintf(os.Stderr, "wall: %.2fs\n", time.Since(start).Seconds())
}
