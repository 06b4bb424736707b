package obs

// EventKind names one structured trace event.  The set covers every
// adaptive decision the paper's §III mechanisms make at cycle
// granularity.
type EventKind uint8

const (
	// EvAdmission: a page crossed the α threshold (addr = page ID,
	// A = α at admission, B = the page's access count).
	EvAdmission EventKind = iota
	// EvBypass: a pre-admission request was routed straight to DDR4
	// (addr = block, A = current α).
	EvBypass
	// EvInvalidate: γ last-write invalidation freed a frame (addr =
	// block, A = the block's fresh r-count, B = γ).
	EvInvalidate
	// EvRCUEnqueue: an r-count update entered the RCU CAM (addr =
	// block, A = count, B = occupancy after insert).
	EvRCUEnqueue
	// EvRCUPiggyback: a pending update rode a same-row demand write
	// (addr = block, A = count).
	EvRCUPiggyback
	// EvRCUOverflow: the CAM was full and the oldest update aged out,
	// leaving DRAM stale (addr = block, A = count).
	EvRCUOverflow
	// EvRCUIdleFlush: a pending update persisted on an idle channel
	// (addr = block, A = count).
	EvRCUIdleFlush
	// EvGammaMove: the γ threshold adapted (A = old, B = new).
	EvGammaMove
	// EvAlphaMove: the α threshold adapted (A = old, B = new).
	EvAlphaMove

	numEventKinds
)

// eventNames are the wire names used by the JSONL exporter.
var eventNames = [numEventKinds]string{
	"admission", "bypass", "invalidate",
	"rcu_enqueue", "rcu_piggyback", "rcu_overflow", "rcu_idle_flush",
	"gamma_move", "alpha_move",
}

// String implements fmt.Stringer.
func (k EventKind) String() string {
	if int(k) < len(eventNames) {
		return eventNames[k]
	}
	return "unknown"
}

// Event is one structured trace record.  A and B are kind-specific
// scalar arguments (see the EventKind docs); keeping them scalar is
// what makes Emit allocation-free.
type Event struct {
	Cycle int64
	Kind  EventKind
	Addr  uint64
	A, B  int64
}

// Tracer is the structured event trace: a fixed-capacity ring of Event
// records behind a compile-out-style guard.  A nil *Tracer (telemetry
// off) or Enabled=false makes Emit a nil/flag check and return, so
// instrumented hot paths stay 0 allocs/op and effectively free when
// tracing is disabled.
type Tracer struct {
	// Enabled gates recording; call sites may also pre-check it to skip
	// argument computation.
	Enabled bool

	now  func() int64
	buf  []Event
	head int
	n    int
	// DroppedEvents counts the oldest events overwritten after the ring
	// filled.
	DroppedEvents int64
}

// NewTracer builds an enabled tracer with the given ring capacity,
// reading cycles from now.
func NewTracer(capacity int, now func() int64) *Tracer {
	return &Tracer{Enabled: true, now: now, buf: make([]Event, capacity)}
}

// SetClock installs the cycle source (the event engine's Now).
func (t *Tracer) SetClock(now func() int64) {
	if t != nil {
		t.now = now
	}
}

// Emit records one event at the current cycle.  Safe on a nil receiver;
// zero allocations on every path.
//
//redvet:hotpath
func (t *Tracer) Emit(kind EventKind, addr uint64, a, b int64) {
	if t == nil || !t.Enabled {
		return
	}
	pos := t.head + t.n
	if pos >= len(t.buf) {
		pos -= len(t.buf)
	}
	if t.n == len(t.buf) {
		t.head++
		if t.head == len(t.buf) {
			t.head = 0
		}
		t.DroppedEvents++
	} else {
		t.n++
	}
	t.buf[pos] = Event{Cycle: t.clock(), Kind: kind, Addr: addr, A: a, B: b}
}

//redvet:hotpath
func (t *Tracer) clock() int64 {
	if t.now == nil {
		return 0
	}
	return t.now()
}

// Len reports the number of retained events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// At returns a retained event (0 = oldest).
func (t *Tracer) At(i int) Event {
	pos := t.head + i
	if pos >= len(t.buf) {
		pos -= len(t.buf)
	}
	return t.buf[pos]
}
