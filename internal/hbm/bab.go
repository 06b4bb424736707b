package hbm

import "math/rand"

// babMonitor is Bear's Bandwidth-Aware Bypass (Chou, Jaleel, Qureshi,
// ISCA'15): miss fills are installed only with a probability steered by
// a sampled hit-rate monitor, so a thrashing cache stops paying
// fill+victim bandwidth.
type babMonitor struct {
	rng *rand.Rand
	// hitEWMA tracks recent demand read hit rate in [0,1].
	hitEWMA float64
	// sampleCtr dedicates 1/32 of fill decisions to always-fill sampling
	// so the monitor keeps observing the cache's potential.
	sampleCtr uint64
}

const babEWMAWeight = 0.002

// babSeedMix decorrelates the BAB sampler from every other consumer of
// the run seed.
const babSeedMix = 0xbea7

func newBABMonitor(seed int64) *babMonitor {
	return &babMonitor{rng: rand.New(rand.NewSource(seed ^ babSeedMix)), hitEWMA: 0.5}
}

func (b *babMonitor) observe(hit bool) {
	v := 0.0
	if hit {
		v = 1.0
	}
	b.hitEWMA += babEWMAWeight * (v - b.hitEWMA)
}

// shouldFill decides one miss fill: sample sets always fill; an
// uncontended cache (HBM busy under 40% of the cycles so far) always
// fills, since bypassing exists to relieve bandwidth pressure, not to
// shrink the cache; otherwise the fill probability rises with the
// observed usefulness of the cache.
func (b *babMonitor) shouldFill(now, hbmBusy int64) bool {
	b.sampleCtr++
	if b.sampleCtr%32 == 0 {
		return true
	}
	if now > 0 {
		if util := float64(hbmBusy) / float64(now); util < 0.4 {
			return true
		}
	}
	p := 0.1 + 0.9*b.hitEWMA
	return b.rng.Float64() < p
}
