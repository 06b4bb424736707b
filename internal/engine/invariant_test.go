package engine

import (
	"strings"
	"testing"
)

func TestCheckHeapCleanQueue(t *testing.T) {
	e := New()
	for i := int64(50); i > 0; i-- {
		e.Schedule(i*3, func() {})
	}
	if err := e.CheckHeap(); err != nil {
		t.Fatalf("fresh queue: %v", err)
	}
	for i := 0; i < 25; i++ {
		e.Step()
		if err := e.CheckHeap(); err != nil {
			t.Fatalf("after step %d: %v", i, err)
		}
	}
}

func TestCheckHeapDetectsCorruption(t *testing.T) {
	e := New()
	for i := int64(1); i <= 20; i++ {
		e.Schedule(i*10, func() {})
	}
	// Corrupt a leaf so it sorts before its parent.
	e.events[7].at = -5
	err := e.CheckHeap()
	if err == nil {
		t.Fatal("corrupted heap passed CheckHeap")
	}
	if !strings.Contains(err.Error(), "heap order violated") &&
		!strings.Contains(err.Error(), "in the past") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestCheckHeapDetectsStaleClock(t *testing.T) {
	e := New()
	e.Schedule(10, func() {})
	e.now = 50
	if err := e.CheckHeap(); err == nil {
		t.Fatal("past-scheduled event passed CheckHeap")
	}
}

func TestCheckHeapCleanTimers(t *testing.T) {
	e := New()
	tm := e.NewTimer(func() {})
	tm.Arm(40)
	tm.Arm(12)
	e.Schedule(5, func() { tm.Arm(40) })
	for e.Step() {
		if err := e.CheckHeap(); err != nil {
			t.Fatalf("cycle %d: %v", e.Now(), err)
		}
	}
}

func TestCheckHeapDetectsTimerCorruption(t *testing.T) {
	for name, corrupt := range map[string]func(*Engine, *Timer){
		"armed in the past": func(e *Engine, tm *Timer) { e.now = tm.At() + 1 },
		"arm seq beyond allocator": func(e *Engine, tm *Timer) {
			tm.arms[0].seq = e.seq + 3
		},
		"position not an arm": func(e *Engine, tm *Timer) { e.tpos[tm.id].seq = e.seq + 1 },
		"armed count":         func(e *Engine, tm *Timer) { e.armed++ },
	} {
		e := New()
		tm := e.NewTimer(func() {})
		tm.Arm(30)
		tm.Arm(20)
		if err := e.CheckHeap(); err != nil {
			t.Fatalf("%s: clean timer failed CheckHeap: %v", name, err)
		}
		corrupt(e, tm)
		if err := e.CheckHeap(); err == nil {
			t.Errorf("%s: corrupted timer passed CheckHeap", name)
		}
	}
}
