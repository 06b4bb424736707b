package hbm

import (
	"testing"

	"redcache/internal/config"
	"redcache/internal/dram"
	"redcache/internal/engine"
	"redcache/internal/mem"
	"redcache/internal/stats"
)

// submitBatch is how many requests the stream submits before it lets
// the engine drain them.
const submitBatch = 256

// submitWarmup is how many batches run before the timer: enough for
// every hot page to pass the α admission threshold.
const submitWarmup = 128

// submitStream drives one controller with a fixed synthetic stream: an
// LCG walk in which three requests in four fall in a 256 KB hot region
// (hits once warm) and the rest scatter over 64 MB (misses, fills and
// victim writebacks), and one request in four is an L3 writeback.
type submitStream struct {
	ctl Controller
	eng *engine.Engine
	x   uint64
	req mem.Request
}

func (s *submitStream) run(n int) {
	noop := func(int64) {}
	for j := 0; j < n; j++ {
		s.x = s.x*6364136223846793005 + 1442695040888963407
		block := s.x >> 40 & (1<<20 - 1)
		if s.x>>62 != 0 {
			block &= 1<<12 - 1
		}
		typ := mem.Read
		if s.x>>20&3 == 0 {
			typ = mem.Write
		}
		s.req = mem.Request{Addr: mem.Addr(block * mem.BlockSize), Type: typ,
			Issued: s.eng.Now(), Done: noop}
		s.ctl.Submit(&s.req)
	}
	s.eng.Run()
}

// BenchmarkSubmit measures the request path of the tag-and-data
// controller once per architecture flag set, at config.Default().  One
// op is one request end to end: Submit, both DRAM devices and the
// completion callback.  Warm-up batches run before the timer so the op
// pool, the DRAM queues and the α and RCU state have settled.
func BenchmarkSubmit(b *testing.B) {
	for _, arch := range Figure9Archs() {
		b.Run(string(arch), func(b *testing.B) {
			cfg := config.Default()
			eng := engine.New()
			var hbmIface, ddrIface stats.Interface
			ctl, err := New(arch, eng, cfg,
				dram.NewController(eng, cfg.HBM, &hbmIface),
				dram.NewController(eng, cfg.MainMem, &ddrIface))
			if err != nil {
				b.Fatal(err)
			}
			s := &submitStream{ctl: ctl, eng: eng, x: 1}
			for i := 0; i < submitWarmup; i++ {
				s.run(submitBatch)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n += submitBatch {
				s.run(min(submitBatch, b.N-n))
			}
		})
	}
}
