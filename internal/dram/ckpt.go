package dram

// Checkpoint save/load for the channel model.  The full command-level
// state is serialized: queue contents (as transaction records whose
// completion callbacks are mapped to registry keys), bank/rank timing
// state, bus and refresh bookkeeping, and wake bookkeeping.  The
// FR-FCFS row index is derived state, rebuilt as the queues reload.
// Pools are restored to their saved high-water mark so a resumed run's
// allocation behaviour matches the uninterrupted one.

import (
	"fmt"

	"redcache/internal/ckpt"
	"redcache/internal/engine"
	"redcache/internal/mem"
)

const tagDRAM = 0x44524d31 // "DRM1"

// RegisterFns registers the controller's schedulable callbacks under
// the given controller id (stable across runs: the sim wires the HBM
// device as 0 and main memory as 1).
func (c *Controller) RegisterFns(reg *engine.FnRegistry, ctlID uint32) {
	reg.RegisterArg(engine.Key(engine.KeyDRAMWake, ctlID, 0), c.wakeFn)
}

// saveState serializes one bank's timing state.
func (b *bank) saveState(w *ckpt.Writer) {
	w.I64(b.openRow)
	w.I64(b.actAt)
	w.I64(b.readyAt)
	w.I64(b.lastRdAt)
	w.I64(b.lastWrEnd)
	w.I64(b.rcReady)
}

// loadState restores one bank's timing state.
func (b *bank) loadState(r *ckpt.Reader) {
	b.openRow = r.I64()
	b.actAt = r.I64()
	b.readyAt = r.I64()
	b.lastRdAt = r.I64()
	b.lastWrEnd = r.I64()
	b.rcReady = r.I64()
}

// saveState serializes one rank's activation history and banks.
func (rk *rank) saveState(w *ckpt.Writer) {
	w.Count(len(rk.banks))
	for i := range rk.banks {
		rk.banks[i].saveState(w)
	}
	w.I64(rk.lastAct)
	for i := range rk.actHist {
		w.I64(rk.actHist[i])
	}
	w.Int(rk.actIdx)
}

// loadState restores one rank.  The bank count is geometry, pinned by
// the manifest's config hash, so a disagreement is corruption.
func (rk *rank) loadState(r *ckpt.Reader) error {
	n := r.Count(1 << 16)
	if err := r.Err(); err != nil {
		return err
	}
	if n != len(rk.banks) {
		return fmt.Errorf("dram: checkpoint has %d banks, geometry has %d: %w",
			n, len(rk.banks), ckpt.ErrCorrupt)
	}
	for i := range rk.banks {
		rk.banks[i].loadState(r)
	}
	rk.lastAct = r.I64()
	for i := range rk.actHist {
		rk.actHist[i] = r.I64()
	}
	rk.actIdx = r.Int()
	return r.Err()
}

// saveTxn serializes one queued transaction.  Loc is a pure function
// of Addr (via Map) and is recomputed at load.
func (c *Controller) saveTxn(w *ckpt.Writer, reg *engine.FnRegistry, t *Txn) error {
	_ = t.Loc // derived: recomputed from Addr by Map at load
	w.U64(uint64(t.Addr))
	w.U8(uint8(t.Op))
	w.Int(t.Bytes)
	w.I64(t.Arrive)
	w.Bool(t.Prio)
	if t.onDone == nil {
		w.U64(0)
		return nil
	}
	key, ok := reg.TimedKeyOf(t.onDone)
	if !ok {
		return fmt.Errorf("dram: queued %s transaction at %#x has an unregistered completion callback", t.Op, t.Addr)
	}
	w.U64(key)
	return nil
}

// loadTxn restores one transaction into a pool slot of ch.
func (c *Controller) loadTxn(r *ckpt.Reader, reg *engine.FnRegistry, ch *channel) (*Txn, error) {
	t := ch.getTxn()
	t.Addr = mem.Addr(r.U64())
	t.Op = Op(r.U8())
	t.Bytes = r.Int()
	t.Arrive = r.I64()
	t.Prio = r.Bool()
	key := r.U64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if t.Op > OpWrite {
		return nil, fmt.Errorf("dram: transaction op %d: %w", t.Op, ckpt.ErrCorrupt)
	}
	t.Loc = c.Map(t.Addr)
	if key != 0 {
		fn, ok := reg.TimedByKey(key)
		if !ok {
			return nil, fmt.Errorf("dram: transaction references unknown callback key %#x: %w",
				key, ckpt.ErrCorrupt)
		}
		t.onDone = fn
	} else {
		t.onDone = nil
	}
	return t, nil
}

// saveRows serializes an FR-FCFS queue oldest-first.  The row FIFOs and hits are derived: loadRows and syncHits
// rebuild them.
func (c *Controller) saveRows(w *ckpt.Writer, reg *engine.FnRegistry, q *rowQueue) error {
	_, _, _, _, _ = q.tail, q.seq, q.slots, q.used, q.shift // derived: rebuilt by push
	_, _ = q.hit, q.hitMask                                 // derived: rebuilt by syncHits
	_, _ = q.bankBits, q.banksPerRank                       // geometry, not state
	w.Count(q.len())
	for t := q.head; t != nil; t = t.next {
		if err := c.saveTxn(w, reg, t); err != nil {
			return err
		}
	}
	return nil
}

// loadRows restores an FR-FCFS queue in saved order, with no hits; the
// caller runs syncHits once the banks' open rows are loaded.
func (c *Controller) loadRows(r *ckpt.Reader, reg *engine.FnRegistry, ch *channel, q *rowQueue) error {
	n := r.Count(c.MaxQueue)
	if err := r.Err(); err != nil {
		return err
	}
	q.reset()
	for i := 0; i < n; i++ {
		t, err := c.loadTxn(r, reg, ch)
		if err != nil {
			return err
		}
		q.push(t, -1)
	}
	return nil
}

// SaveState serializes every channel.
func (c *Controller) SaveState(w *ckpt.Writer, reg *engine.FnRegistry) error {
	w.Tag(tagDRAM)
	w.Count(len(c.chans))
	for i := range c.chans {
		if err := c.saveChannel(w, reg, &c.chans[i]); err != nil {
			return err
		}
	}
	return nil
}

// LoadState restores every channel into a freshly wired controller.
func (c *Controller) LoadState(r *ckpt.Reader, reg *engine.FnRegistry) error {
	r.Tag(tagDRAM)
	n := r.Count(1 << 16)
	if err := r.Err(); err != nil {
		return err
	}
	if n != len(c.chans) {
		return fmt.Errorf("dram: checkpoint has %d channels, geometry has %d: %w",
			n, len(c.chans), ckpt.ErrCorrupt)
	}
	for i := range c.chans {
		if err := c.loadChannel(r, reg, &c.chans[i]); err != nil {
			return err
		}
	}
	return nil
}

// saveChannel serializes one channel's complete scheduling state.
func (c *Controller) saveChannel(w *ckpt.Writer, reg *engine.FnRegistry, ch *channel) error {
	if err := c.saveRows(w, reg, &ch.rdq); err != nil {
		return err
	}
	if err := c.saveRows(w, reg, &ch.wrq); err != nil {
		return err
	}
	w.Bool(ch.drainWr)
	w.Int(ch.drainBudget)
	w.Count(len(ch.ranks))
	for i := range ch.ranks {
		ch.ranks[i].saveState(w)
	}
	w.I64(ch.busFreeAt)
	w.I64(ch.lastColAt)
	w.U8(uint8(ch.lastOp))
	w.I64(ch.lastDataEnd)
	w.I64(ch.nextRefresh)
	w.I64(ch.refreshEnd)
	w.Bool(ch.hasPending)
	w.I64(ch.pendingAt)
	w.Count(len(ch.pool))
	return nil
}

// loadChannel restores one channel, pre-growing its transaction pool
// to the saved high-water mark.
func (c *Controller) loadChannel(r *ckpt.Reader, reg *engine.FnRegistry, ch *channel) error {
	if err := c.loadRows(r, reg, ch, &ch.rdq); err != nil {
		return err
	}
	if err := c.loadRows(r, reg, ch, &ch.wrq); err != nil {
		return err
	}
	ch.drainWr = r.Bool()
	ch.drainBudget = r.Int()
	n := r.Count(1 << 16)
	if err := r.Err(); err != nil {
		return err
	}
	if n != len(ch.ranks) {
		return fmt.Errorf("dram: checkpoint has %d ranks, geometry has %d: %w",
			n, len(ch.ranks), ckpt.ErrCorrupt)
	}
	for i := range ch.ranks {
		if err := ch.ranks[i].loadState(r); err != nil {
			return err
		}
	}
	ch.syncHits()
	ch.busFreeAt = r.I64()
	ch.lastColAt = r.I64()
	ch.lastOp = Op(r.U8())
	ch.lastDataEnd = r.I64()
	ch.nextRefresh = r.I64()
	ch.refreshEnd = r.I64()
	ch.hasPending = r.Bool()
	ch.pendingAt = r.I64()
	pool := r.Count(1 << 24)
	if err := r.Err(); err != nil {
		return err
	}
	for len(ch.pool) < pool {
		ch.putTxn(newTxn())
	}
	return r.Err()
}
