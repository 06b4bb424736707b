package hbm

import "fmt"

// check validates the tag store: every valid entry's tag must map back
// to the frame that holds it.
func (t *tagStore) check() error {
	for i := range t.entries {
		e := &t.entries[i]
		if !e.valid {
			continue
		}
		if e.tag&t.mask != uint64(i) {
			return fmt.Errorf("hbm: frame %d holds tag %#x, which maps to frame %d",
				i, e.tag, e.tag&t.mask)
		}
	}
	return nil
}

// CheckInvariants is the hbm leg of the opt-in online invariant
// checker: the tag store, the RCU CAM, the regret tracker, and the
// adaptive α/γ threshold ranges.  Never called on the steady-state path.
func (c *tad) CheckInvariants() error {
	if err := c.tags.check(); err != nil {
		return err
	}
	if c.gamma < c.d.cfg.Red.GammaMin || c.gamma > c.d.cfg.Red.GammaMax {
		return fmt.Errorf("hbm: gamma %d outside configured range [%d, %d]",
			c.gamma, c.d.cfg.Red.GammaMin, c.d.cfg.Red.GammaMax)
	}
	if c.at != nil {
		if a := c.at.Alpha(); a < c.d.cfg.Red.AlphaMin || a > c.d.cfg.Red.AlphaMax {
			return fmt.Errorf("hbm: alpha %d outside configured range [%d, %d]",
				a, c.d.cfg.Red.AlphaMin, c.d.cfg.Red.AlphaMax)
		}
	}
	if len(c.regretRing) > regretCap || len(c.regret) > len(c.regretRing) {
		return fmt.Errorf("hbm: regret tracker holds %d map entries over a %d-slot ring (cap %d)",
			len(c.regret), len(c.regretRing), regretCap)
	}
	if c.rcu != nil {
		return c.rcu.check(c.tags)
	}
	return nil
}

// check validates the RCU CAM: bounded occupancy, block-aligned unique
// addresses, location tags consistent with the address mapping, every
// pending block resident in tags (eviction and invalidation drop a
// block's entry before its frame goes), and a counting filter that
// counts exactly the entries.
func (r *rcuManager) check(tags *tagStore) error {
	if len(r.entries) > r.cap {
		return fmt.Errorf("hbm: RCU CAM holds %d entries, above capacity %d", len(r.entries), r.cap)
	}
	for i := range r.entries {
		e := &r.entries[i]
		if e.addr != e.addr.Align() {
			return fmt.Errorf("hbm: RCU entry %d address %#x not block-aligned", i, uint64(e.addr))
		}
		if loc := r.hbm.Map(e.addr); e.row != r.hbm.RowKey(loc) || e.ch != loc.Channel {
			return fmt.Errorf("hbm: RCU entry %d location tag inconsistent with mapping of %#x",
				i, uint64(e.addr))
		}
		if !tags.present(e.addr) {
			return fmt.Errorf("hbm: RCU entry %d holds %#x, which is not resident", i, uint64(e.addr))
		}
		for j := i + 1; j < len(r.entries); j++ {
			if r.entries[j].addr == e.addr {
				return fmt.Errorf("hbm: RCU CAM holds duplicate entries for %#x", uint64(e.addr))
			}
		}
	}
	var filter [256]uint8
	for i := range r.entries {
		filter[rcuBucket(r.entries[i].addr)]++
	}
	if filter != r.filter {
		return fmt.Errorf("hbm: RCU counting filter disagrees with the %d CAM entries", len(r.entries))
	}
	return nil
}
