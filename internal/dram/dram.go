// Package dram implements a command-level, cycle-accurate DRAM channel
// model used for both the in-package WideIO (HBM) cache and the off-chip
// DDR4 main memory.  It enforces the Table I timing constraints per
// command (tRCD/tCAS/tRP/tCCD/tWTR/tWR/tRTP/tRRD/tRAS/tRC/tFAW/tBL/tCWD),
// models open-page row buffers with FR-FCFS scheduling, bus turnaround,
// and periodic refresh.
//
// The controller exposes two hooks the RedCache RCU manager (§III-C of
// the paper) relies on:
//
//   - a write hook fired when a write column command is issued, letting
//     the RCU piggyback a same-row update burst at tCCD cost, and
//   - an idle hook fired when a channel's transaction queue drains.
package dram

import (
	"fmt"
	"math/bits"

	"redcache/internal/config"
	"redcache/internal/engine"
	"redcache/internal/fault"
	"redcache/internal/mem"
	"redcache/internal/stats"
)

// Op is a transaction direction.
type Op uint8

const (
	OpRead Op = iota
	OpWrite
)

// String implements fmt.Stringer.
func (o Op) String() string {
	if o == OpWrite {
		return "WR"
	}
	return "RD"
}

// Location is a decoded DRAM coordinate.
type Location struct {
	Channel int
	Rank    int
	Bank    int
	Row     int64
	Col     int64 // 64 B column within the row
}

// SameRow reports whether two locations address the same open row.
func (l Location) SameRow(o Location) bool {
	return l.Channel == o.Channel && l.Rank == o.Rank && l.Bank == o.Bank && l.Row == o.Row
}

// Txn is one pending transaction.
type Txn struct {
	Addr mem.Addr
	Op   Op
	// Prio schedules a write with the reads instead of deferring it to a
	// write-drain burst: it models an update the controller insists on
	// performing immediately, paying the bus turnaround inline
	// (Red-Basic's r-count writes).
	Prio   bool
	Bytes  int
	Arrive int64
	Loc    Location
	onDone func(finish int64)

	// Links owned by the rowQueue holding the transaction: its push
	// order, the queue-order list, and its (rank, bank, row) FIFO.
	seq        uint64
	prev, next *Txn
	rowNext    *Txn
}

// bank is per-channel DRAM bank state.
//
//redvet:state
type bank struct {
	openRow   int64 // -1 when closed
	actAt     int64 // cycle of last ACT
	readyAt   int64 // earliest next ACT permitted by tRC / refresh
	lastRdAt  int64 // last read column command (for tRTP)
	lastWrEnd int64 // end of last write data (for tWR)
	rcReady   int64 // actAt + tRC
}

// rank is per-channel rank timing state.
//
//redvet:state
type rank struct {
	banks   []bank
	lastAct int64    // for tRRD
	actHist [4]int64 // ring buffer of recent ACT times for tFAW
	actIdx  int
}

// channel is one DRAM channel's command-scheduling state: its queues,
// ranks and banks, bus and refresh bookkeeping.
//
//redvet:state
type channel struct {
	rdq, wrq    rowQueue // split read/write transaction queues
	drainWr     bool     // write-drain mode (watermark hysteresis)
	drainBudget int      // writes remaining in the current drain burst
	ranks       []rank
	busFreeAt   int64 // data bus availability
	lastColAt   int64 // last column command (tCCD)
	lastOp      Op
	lastDataEnd int64
	nextRefresh int64
	refreshEnd  int64
	// Wake bookkeeping: at most one *live* decision event; an event only
	// runs when its timestamp matches pendingAt (earlier wakes supersede
	// later ones, whose stale events are dropped on firing).
	hasPending bool
	pendingAt  int64
	// pool recycles Txn structs channel-locally; see getTxn.
	pool []*Txn
}

// WriteHook is consulted when a write column command is issued.  It
// returns extra piggyback bytes to append to the burst (the RCU
// same-row flush, §III-C condition 1).
type WriteHook func(loc Location) (extraBytes int)

// IdleHook is fired when a channel's transaction queue drains
// (§III-C condition 2).
type IdleHook func(ch int)

// Controller models one DRAM device (all channels) behind one interface.
type Controller struct {
	eng   *engine.Engine
	cfg   config.DRAM
	iface *stats.Interface

	chans []channel

	chanShift, chanMask uint64
	colShift, colMask   uint64
	bankShift, bankMask uint64
	banksPerChan        int

	writeHook WriteHook
	idleHook  IdleHook
	observer  Observer
	// inj injects row-activation failures and transient bus errors into
	// the command schedule; nil (the default) costs one check per site.
	inj *fault.Injector

	// wakeFn is the single scheduling-decision callback shared by all
	// channels; the channel index travels as the event's fixed argument,
	// so a wake never allocates a closure.
	wakeFn func(arg uint64)

	// MaxQueue bounds the per-channel transaction queue; Enqueue panics
	// beyond it to catch upstream flow-control bugs.
	MaxQueue int
}

func log2(x int) uint64 {
	if x <= 0 || x&(x-1) != 0 {
		panic(fmt.Sprintf("dram: %d is not a positive power of two", x))
	}
	return uint64(bits.TrailingZeros(uint(x)))
}

// NewController builds a controller for cfg, reporting traffic into iface.
func NewController(eng *engine.Engine, cfg config.DRAM, iface *stats.Interface) *Controller {
	c := &Controller{eng: eng, cfg: cfg, iface: iface, MaxQueue: 1 << 16}
	g := cfg.Geometry
	c.chanShift = log2(g.Channels)
	c.chanMask = uint64(g.Channels - 1)
	blocksPerRow := g.RowBytes / mem.BlockSize
	c.colShift = log2(blocksPerRow)
	c.colMask = uint64(blocksPerRow - 1)
	c.banksPerChan = g.RanksPerChan * g.BanksPerRank
	c.bankShift = log2(c.banksPerChan)
	c.bankMask = uint64(c.banksPerChan - 1)

	c.chans = make([]channel, g.Channels)
	for i := range c.chans {
		ch := &c.chans[i]
		ch.rdq.init(c.banksPerChan, g.BanksPerRank)
		ch.wrq.init(c.banksPerChan, g.BanksPerRank)
		ch.ranks = make([]rank, g.RanksPerChan)
		for r := range ch.ranks {
			rk := &ch.ranks[r]
			rk.banks = make([]bank, g.BanksPerRank)
			// A large negative history means the tRRD/tFAW windows never
			// constrain the first activations.
			const farPast = -(int64(1) << 40)
			rk.lastAct = farPast
			for i := range rk.actHist {
				rk.actHist[i] = farPast
			}
			for b := range rk.banks {
				rk.banks[b].openRow = -1
			}
		}
		if cfg.Timing.TREFI > 0 {
			// Stagger refresh across channels to avoid artificial lockstep.
			ch.nextRefresh = cfg.Timing.TREFI * int64(i+1) / int64(g.Channels)
		} else {
			ch.nextRefresh = 1 << 62
		}
	}
	c.wakeFn = func(arg uint64) {
		chIdx := int(arg)
		ch := &c.chans[chIdx]
		// Only the live decision event may run: its timestamp matches
		// pendingAt, and the engine guarantees Now() equals the firing
		// time, so this is the same stale-event check the closure-based
		// implementation captured per event.
		if !ch.hasPending || ch.pendingAt != c.eng.Now() {
			return // superseded
		}
		ch.hasPending = false
		c.trySchedule(chIdx)
	}
	return c
}

// getTxn takes a transaction slot from the channel's free list (or
// allocates one on a cold start).  A transaction's fields are dead once
// issue() returns (the completion callback is copied into the engine
// event, observers run synchronously), so the slot goes back on the
// free list instead of to the garbage collector.
//
//redvet:hotpath
func (ch *channel) getTxn() *Txn {
	if n := len(ch.pool); n > 0 {
		t := ch.pool[n-1]
		ch.pool = ch.pool[:n-1]
		*t = Txn{}
		return t
	}
	return newTxn()
}

// newTxn services a pool miss; after warm-up every issue() returns its
// slot, so the pool high-water mark equals the in-flight maximum.
//
//redvet:coldstart — pool refill before the in-flight high-water mark
func newTxn() *Txn { return new(Txn) }

// putTxn returns an issued transaction's slot to the free list.  The
// push is a reslice (allocation-free) once the pool's backing array has
// reached the in-flight high-water mark.
//
//redvet:hotpath
func (ch *channel) putTxn(t *Txn) {
	if len(ch.pool) == cap(ch.pool) {
		ch.growPool()
	}
	n := len(ch.pool)
	ch.pool = ch.pool[:n+1]
	ch.pool[n] = t
}

// growPool grows the free list's backing array.
//
//redvet:coldstart — amortized free-list growth up to the in-flight high-water mark
func (ch *channel) growPool() {
	grown := make([]*Txn, len(ch.pool), max(16, 2*cap(ch.pool)))
	copy(grown, ch.pool)
	ch.pool = grown
}

// queuePush routes a transaction into the channel's read or write queue.
//
//redvet:hotpath
func (ch *channel) queuePush(t *Txn) {
	openRow := ch.ranks[t.Loc.Rank].banks[t.Loc.Bank].openRow
	if t.Op == OpWrite && !t.Prio {
		ch.wrq.push(t, openRow)
	} else {
		ch.rdq.push(t, openRow)
	}
}

// rowOpened re-points both queues' hit for bank b (the channel-wide
// bank index) at the FIFO of the row just activated there.
//
//redvet:hotpath
func (ch *channel) rowOpened(b int, row int64) {
	ch.rdq.rowOpened(b, row)
	ch.wrq.rowOpened(b, row)
}

// syncHits points both queues' hits at the FIFOs of the banks' open
// rows, for queues refilled without hits (checkpoint restore).
func (ch *channel) syncHits() {
	for r := range ch.ranks {
		for bi, b := range ch.ranks[r].banks {
			if b.openRow >= 0 {
				ch.rowOpened(ch.rdq.bankOf(Location{Rank: r, Bank: bi}), b.openRow)
			}
		}
	}
}

// SetWriteHook installs the RCU piggyback hook.
func (c *Controller) SetWriteHook(h WriteHook) { c.writeHook = h }

// SetIdleHook installs the queue-drained hook.
func (c *Controller) SetIdleHook(h IdleHook) { c.idleHook = h }

// Observer receives per-transaction service details: whether the access
// hit an open row and the exact interface cycles it consumed (bus burst
// plus the row-cycle penalty on a miss).  The Fig 3 homo-reuse harness
// attributes per-block bandwidth cost through this hook.
type Observer func(t *Txn, rowHit bool, cycles int64)

// SetObserver installs the per-transaction observer.
func (c *Controller) SetObserver(o Observer) { c.observer = o }

// SetFaultInjector installs the fault source (nil disables injection).
func (c *Controller) SetFaultInjector(inj *fault.Injector) { c.inj = inj }

// Interface exposes the traffic statistics this controller accumulates
// (the RedCache α controller reads bus utilization from it).
func (c *Controller) Interface() *stats.Interface { return c.iface }

// Map decodes a physical address into channel/rank/bank/row/column using
// block-interleaved mapping: consecutive 64 B blocks stripe across
// channels, then across columns of a row, then across banks.
//
//redvet:hotpath
func (c *Controller) Map(addr mem.Addr) Location {
	blk := uint64(addr) >> mem.BlockShift
	ch := blk & c.chanMask
	x := blk >> c.chanShift
	col := x & c.colMask
	y := x >> c.colShift
	bk := y & c.bankMask
	row := y >> c.bankShift
	return Location{
		Channel: int(ch),
		Rank:    int(bk) / c.cfg.Geometry.BanksPerRank,
		Bank:    int(bk) % c.cfg.Geometry.BanksPerRank,
		Row:     int64(row),
		Col:     int64(col),
	}
}

// Read enqueues a read of `bytes` at addr; onDone fires at data return.
//
//redvet:hotpath
func (c *Controller) Read(addr mem.Addr, bytes int, onDone func(int64)) {
	c.enqueue(addr, OpRead, bytes, false, onDone)
}

// Write enqueues a write of `bytes` at addr; onDone (optional) fires when
// the write data has been transferred.
//
//redvet:hotpath
func (c *Controller) Write(addr mem.Addr, bytes int, onDone func(int64)) {
	c.enqueue(addr, OpWrite, bytes, false, onDone)
}

// WritePriority enqueues a write that is scheduled in arrival order with
// the reads rather than waiting for a write-drain burst, forcing the bus
// to turn around for it.
//
//redvet:hotpath
func (c *Controller) WritePriority(addr mem.Addr, bytes int, onDone func(int64)) {
	c.enqueue(addr, OpWrite, bytes, true, onDone)
}

// Write-drain watermarks: reads are served first; queued writes drain
// when the write queue grows past wrHiWM (and keep draining down to
// wrLoWM) or when no reads are pending.  Writes are posted, so only
// their bandwidth matters — this is the staged-write/virtual-write-queue
// discipline of the paper's references [12][13].
const (
	wrHiWM = 24
	wrLoWM = 8
	// wrBurst bounds one drain burst so a sustained write stream cannot
	// starve demand reads.
	wrBurst = 12
)

// QueueLen reports the number of queued transactions on addr's channel.
//
//redvet:hotpath
func (c *Controller) QueueLen(addr mem.Addr) int {
	ch := &c.chans[c.Map(addr).Channel]
	return ch.rdq.len() + ch.wrq.len()
}

// TotalQueued reports queued transactions across all channels.
func (c *Controller) TotalQueued() int {
	n := 0
	for i := range c.chans {
		n += c.chans[i].rdq.len() + c.chans[i].wrq.len()
	}
	return n
}

// Refreshing reports whether addr's channel is currently under refresh.
//
//redvet:hotpath
func (c *Controller) Refreshing(addr mem.Addr) bool {
	ch := &c.chans[c.Map(addr).Channel]
	return c.eng.Now() < ch.refreshEnd
}

// enqueue stages one transaction in its channel's read or write queue
// and wakes the channel's scheduler.
//
//redvet:hotpath
func (c *Controller) enqueue(addr mem.Addr, op Op, bytes int, prio bool, onDone func(int64)) {
	// Sub-block sizes model masked/burst-chopped writes (e.g. 8 B r-count
	// updates into the spare ECC bits); anything larger moves whole 64 B
	// blocks.
	if bytes <= 0 || (bytes > mem.BlockSize && bytes%mem.BlockSize != 0) {
		panic(fmt.Sprintf("dram: invalid transaction size %d", bytes))
	}
	loc := c.Map(addr)
	ch := &c.chans[loc.Channel]
	t := ch.getTxn()
	t.Addr, t.Op, t.Bytes, t.Prio, t.onDone = addr, op, bytes, prio, onDone
	t.Arrive = c.eng.Now()
	t.Loc = loc
	c.iface.Requests++
	if ch.rdq.len()+ch.wrq.len() >= c.MaxQueue {
		panic("dram: transaction queue overflow (missing upstream flow control)")
	}
	ch.queuePush(t)
	c.kick(loc.Channel)
}

//redvet:hotpath
func (c *Controller) kick(chIdx int) {
	c.wake(chIdx, c.eng.Now())
}

// wake arranges for a scheduling decision on the channel at cycle `at`.
// At most one decision event is live: an earlier wake supersedes a later
// pending one (the stale event is dropped when it fires), and a wake at
// or after the pending time is a no-op.
//
//redvet:hotpath
func (c *Controller) wake(chIdx int, at int64) {
	ch := &c.chans[chIdx]
	if now := c.eng.Now(); at < now {
		at = now
	}
	if ch.hasPending && ch.pendingAt <= at {
		return
	}
	ch.hasPending = true
	ch.pendingAt = at
	c.eng.ScheduleArg(at, c.wakeFn, uint64(chIdx))
}

// readyAt returns the cycle at which t's *first* DRAM command (precharge
// or activate on a row miss, the column command on a row hit) becomes
// legal under the bank, rank and channel constraints.  Unlike the full
// schedule computed by issue(), it carries no pipeline latency terms, so
// a transaction whose resources are free reports "ready now" — this is
// the quantity the commit-horizon test and FR-FCFS scoring need.
//
//redvet:hotpath
func (c *Controller) readyAt(ch *channel, t *Txn) int64 {
	tm := c.cfg.Timing
	rk := &ch.ranks[t.Loc.Rank]
	b := &rk.banks[t.Loc.Bank]
	if b.openRow == t.Loc.Row {
		r := max(b.actAt+tm.TRCD, ch.lastColAt+tm.TCCD)
		if t.Op == OpRead && ch.lastOp == OpWrite {
			r = max(r, ch.lastDataEnd+tm.TWTR)
		}
		return r
	}
	if b.openRow >= 0 {
		// The precharge is the first command.
		return max(b.actAt+tm.TRAS, b.lastRdAt+tm.TRTP, b.lastWrEnd+tm.TWR)
	}
	// The activate is the first command.
	return max(b.rcReady, b.readyAt, rk.lastAct+tm.TRRD,
		rk.actHist[rk.actIdx]+tm.TFAW)
}

// pickScan bounds how many queue entries are dry-run scored when no row
// hit exists; beyond it the scheduler falls back to FCFS.
const pickScan = 16

// pickFrom implements FR-FCFS within one queue: the oldest row-hit
// transaction if any exists; otherwise, among the oldest pickScan
// entries, the one whose bank lets it issue earliest (the oldest on a
// tie).  It returns the slot of the picked transaction's row FIFO,
// whose head the picked transaction always is.
//
//redvet:hotpath
func (c *Controller) pickFrom(ch *channel, q *rowQueue) int {
	if s := q.oldestHit(); s >= 0 {
		return s
	}
	best, bestAt := q.head, int64(1)<<62
	n := 0
	for t := q.head; t != nil && n < pickScan; t = t.next {
		if at := c.readyAt(ch, t); at < bestAt {
			best, bestAt = t, at
		}
		n++
	}
	return q.slotOf(best)
}

// selectQueue applies the write-drain policy and returns the queue to
// serve plus whether it is the write queue.
//
//redvet:hotpath
func (c *Controller) selectQueue(ch *channel) (q *rowQueue, isWrite bool) {
	serveWrites := false
	switch {
	case ch.rdq.len() == 0:
		serveWrites = true
	case ch.drainWr:
		if ch.wrq.len() <= wrLoWM || ch.drainBudget <= 0 {
			ch.drainWr = false
		} else {
			serveWrites = true
		}
	case ch.wrq.len() >= wrHiWM:
		ch.drainWr = true
		ch.drainBudget = wrBurst
		serveWrites = true
	}
	if serveWrites && ch.wrq.len() > 0 {
		return &ch.wrq, true
	}
	return &ch.rdq, false
}

// commitHorizon is how close (in cycles) a transaction's column command
// must be before the scheduler commits it.  Deferring further-out work
// keeps the queue visible to FR-FCFS so later row hits can overtake.
const commitHorizon = 8

//redvet:hotpath
func (c *Controller) trySchedule(chIdx int) {
	ch := &c.chans[chIdx]
	now := c.eng.Now()

	if ch.rdq.len()+ch.wrq.len() == 0 {
		if c.idleHook != nil {
			c.idleHook(chIdx)
		}
		if ch.rdq.len()+ch.wrq.len() == 0 {
			// Idle until the next enqueue.  Refresh for an idle channel
			// is handled lazily on the next kick; skipped idle refreshes
			// do not perturb timing.
			return
		}
	}
	// Refresh takes priority once due (but only while there is work, so
	// an idle system's event queue can drain).
	if now >= ch.nextRefresh {
		c.doRefresh(chIdx, ch)
		return
	}
	if now < ch.refreshEnd {
		c.wake(chIdx, ch.refreshEnd)
		return
	}

	q, isWrite := c.selectQueue(ch)
	s := c.pickFrom(ch, q)
	t := q.slots[s].head
	if at := c.readyAt(ch, t); at > now+commitHorizon {
		// Not issueable soon: leave it queued so a better candidate (a
		// row hit arriving meanwhile) can overtake, and wake when this
		// one would become ready.
		c.wake(chIdx, at-commitHorizon)
		return
	}
	q.pop(s)
	if isWrite && ch.drainWr {
		ch.drainBudget--
	}
	c.issue(ch, t, now)
	ch.putTxn(t)
	c.wake(chIdx, now+1)
}

// issue computes the full command schedule for t against current bank and
// bus state, updates state and statistics, and fires the completion
// callback.  It returns the cycle the data burst starts.
//
//redvet:hotpath
func (c *Controller) issue(ch *channel, t *Txn, now int64) int64 {
	tm := c.cfg.Timing
	rk := &ch.ranks[t.Loc.Rank]
	b := &rk.banks[t.Loc.Bank]

	var colReady int64 // earliest column command permitted by bank state
	rowHit := b.openRow == t.Loc.Row
	if rowHit {
		colReady = max(now, b.actAt+tm.TRCD)
		c.iface.RowHits++
	} else {
		c.iface.RowMisses++
		// Precharge (if a row is open), respecting tRAS/tRTP/tWR.
		preAt := now
		if b.openRow >= 0 {
			preAt = max(preAt, b.actAt+tm.TRAS, b.lastRdAt+tm.TRTP, b.lastWrEnd+tm.TWR)
		}
		// Activate, respecting tRP, tRC, tRRD, tFAW and refresh recovery.
		actAt := max(preAt+boolTo64(b.openRow >= 0)*tm.TRP,
			b.rcReady, b.readyAt, rk.lastAct+tm.TRRD,
			rk.actHist[rk.actIdx]+tm.TFAW)
		if c.inj.RowActivate(t.Loc.Channel, t.Loc.Rank, t.Loc.Bank, t.Loc.Row) {
			// The activation failed (detected by the die): retry after a
			// fresh precharge-activate cycle, charging the extra command.
			actAt += tm.TRP + tm.TRCD
			c.iface.Activates++
		}
		b.actAt = actAt
		b.rcReady = actAt + tm.TRC
		b.openRow = t.Loc.Row
		ch.rowOpened(ch.rdq.bankOf(t.Loc), t.Loc.Row)
		rk.lastAct = actAt
		rk.actHist[rk.actIdx] = actAt
		rk.actIdx = (rk.actIdx + 1) % 4
		c.iface.Activates++
		colReady = actAt + tm.TRCD
	}

	// Column command constraints shared across the channel.
	cmdAt := max(colReady, ch.lastColAt+tm.TCCD)
	if t.Op == OpRead && ch.lastOp == OpWrite {
		cmdAt = max(cmdAt, ch.lastDataEnd+tm.TWTR)
	}

	var lat int64
	if t.Op == OpRead {
		lat = tm.TCAS
	} else {
		lat = tm.TCWD
	}
	// The data burst must wait for the bus; read-after-write turnaround
	// beyond tWTR and write-after-read bubbles collapse into bus
	// availability plus a two-cycle direction-switch penalty.
	dataStart := cmdAt + lat
	minStart := ch.busFreeAt
	if ch.lastDataEnd > 0 && t.Op != ch.lastOp {
		minStart = max(minStart, ch.lastDataEnd+2)
	}
	if dataStart < minStart {
		dataStart = minStart
		cmdAt = dataStart - lat
	}

	burstCycles := busCycles(t.Bytes, tm.TBL)
	if c.writeHook != nil && t.Op == OpWrite {
		if extra := c.writeHook(t.Loc); extra > 0 {
			// Piggybacked same-row RCU updates extend the transfer
			// instead of paying a new turnaround.
			burstCycles += busCycles(extra, tm.TBL)
			c.iface.WriteBytes += int64(extra)
		}
	}
	if c.inj.BusBurst(t.Loc.Channel, t.Bytes) {
		// Link CRC caught a transient error: the whole burst (including
		// any piggybacked bytes) is retransmitted, doubling its bus
		// occupancy without moving extra payload.
		burstCycles *= 2
	}
	dataEnd := dataStart + burstCycles

	// Commit channel/bank state.
	ch.lastColAt = cmdAt
	ch.lastOp = t.Op
	ch.lastDataEnd = dataEnd
	ch.busFreeAt = dataEnd
	if t.Op == OpRead {
		b.lastRdAt = cmdAt
		c.iface.ReadBytes += int64(t.Bytes)
	} else {
		b.lastWrEnd = dataEnd
		c.iface.WriteBytes += int64(t.Bytes)
	}
	c.iface.BusyCycles += burstCycles

	if c.observer != nil {
		cost := burstCycles
		if !rowHit {
			cost += tm.TRCD + tm.TRP
		}
		c.observer(t, rowHit, cost)
	}

	if t.onDone != nil {
		// ScheduleTimed passes the firing cycle (== dataEnd) to onDone,
		// storing the func value verbatim — no wrapper closure.
		c.eng.ScheduleTimed(dataEnd, t.onDone)
	}
	return dataStart
}

//redvet:hotpath
func (c *Controller) doRefresh(chIdx int, ch *channel) {
	tm := c.cfg.Timing
	now := c.eng.Now()
	end := now + tm.TRFC
	ch.refreshEnd = end
	ch.nextRefresh = now + tm.TREFI
	ch.busFreeAt = max(ch.busFreeAt, end)
	for r := range ch.ranks {
		rk := &ch.ranks[r]
		for bi := range rk.banks {
			b := &rk.banks[bi]
			b.openRow = -1
			b.readyAt = max(b.readyAt, end)
		}
	}
	ch.rdq.clearHits()
	ch.wrq.clearHits()
	c.iface.Refreshes++
	c.wake(chIdx, end)
}

// busCycles converts a transfer size into data-bus cycles: tBL covers a
// 64 B block; smaller masked writes take a proportional (rounded-up)
// slice of the burst.
//
//redvet:hotpath
func busCycles(bytes int, tbl int64) int64 {
	c := (int64(bytes)*tbl + mem.BlockSize - 1) / mem.BlockSize
	if c < 1 {
		c = 1
	}
	return c
}

//redvet:hotpath
func boolTo64(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
