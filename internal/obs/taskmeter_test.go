package obs

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestTaskMeterNilSafe: every charge and read is a no-op on a nil meter —
// the contract that lets hot paths charge unconditionally.
func TestTaskMeterNilSafe(t *testing.T) {
	var m *TaskMeter
	m.PageFault(8192, true)
	m.VectorOpen()
	m.Tuples(5)
	m.StaticEmpty()
	if m.PagesFaulted() != 0 {
		t.Fatal("nil meter reported pages")
	}
	if m.Counters() != (TaskCounters{}) {
		t.Fatal("nil meter counters not zero")
	}
}

func TestTaskMeterCounts(t *testing.T) {
	m := &TaskMeter{}
	m.PageFault(8192, true)
	m.PageFault(8192, false)
	m.VectorOpen()
	m.Tuples(7)
	m.StaticEmpty()
	want := TaskCounters{
		PagesFaulted:     2,
		BytesRead:        16384,
		ChecksumVerifies: 1,
		VectorOpens:      1,
		Tuples:           7,
		StaticEmpty:      1,
	}
	if got := m.Counters(); got != want {
		t.Fatalf("counters = %+v, want %+v", got, want)
	}
	if m.PagesFaulted() != 2 {
		t.Fatalf("PagesFaulted = %d", m.PagesFaulted())
	}
}

// TestTaskMeterConcurrent: parallel workers of one evaluation charge the
// same meter; totals must be exact (meaningful under -race).
func TestTaskMeterConcurrent(t *testing.T) {
	m := &TaskMeter{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.PageFault(8192, true)
				m.Tuples(2)
			}
		}()
	}
	wg.Wait()
	c := m.Counters()
	if c.PagesFaulted != 8000 || c.Tuples != 16000 || c.ChecksumVerifies != 8000 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestMeterContext(t *testing.T) {
	if MeterFrom(context.Background()) != nil {
		t.Fatal("background ctx carried a meter")
	}
	if MeterFrom(nil) != nil {
		t.Fatal("nil ctx carried a meter")
	}
	m := &TaskMeter{}
	ctx := WithMeter(context.Background(), m)
	if MeterFrom(ctx) != m {
		t.Fatal("meter did not round-trip through the context")
	}
	ctx = WithQueryText(ctx, "for $b in /bib/book return $b")
	if got := QueryTextFrom(ctx); got != "for $b in /bib/book return $b" {
		t.Fatalf("query text = %q", got)
	}
	if QueryTextFrom(context.Background()) != "" || QueryTextFrom(nil) != "" {
		t.Fatal("empty contexts must report empty query text")
	}
}

func TestQueryRegistry(t *testing.T) {
	r := NewQueryRegistry()
	m := &TaskMeter{}
	cancelled := false
	id1 := r.Register(func() string { return "q1" }, m, func() { cancelled = true })
	id2 := r.Register(nil, nil, nil)
	if id1 == id2 {
		t.Fatal("ids must be unique")
	}
	list := r.List()
	if len(list) != 2 || list[0].ID != id1 || list[1].ID != id2 {
		t.Fatalf("list = %+v", list)
	}
	if list[0].Query != "q1" || list[1].Query != "" {
		t.Fatalf("query texts = %q, %q", list[0].Query, list[1].Query)
	}
	m.Tuples(3)
	if got := r.List()[0].Counters.Tuples; got != 3 {
		t.Fatalf("live counters not visible: tuples = %d", got)
	}
	if r.Cancel(id2) {
		t.Fatal("query with nil cancel reported cancellable")
	}
	if !r.Cancel(id1) || !cancelled {
		t.Fatal("cancel did not fire")
	}
	r.Finish(id1)
	r.Finish(id2)
	if len(r.List()) != 0 {
		t.Fatal("finished queries still listed")
	}
	if r.Cancel(id1) {
		t.Fatal("finished query reported cancellable")
	}
}

func TestSlowRing(t *testing.T) {
	s := NewSlowRing(2)
	if s.ShouldCapture(time.Hour, 1<<40) {
		t.Fatal("unconfigured ring captured")
	}
	s.Configure(100*time.Millisecond, 10, 2)
	if !s.ShouldCapture(150*time.Millisecond, 0) {
		t.Fatal("latency threshold did not trigger")
	}
	if !s.ShouldCapture(0, 10) {
		t.Fatal("pages threshold did not trigger")
	}
	if s.ShouldCapture(50*time.Millisecond, 9) {
		t.Fatal("under both thresholds still captured")
	}
	for i := int64(1); i <= 3; i++ {
		s.Record(SlowQueryRecord{ID: i})
	}
	got := s.List()
	if len(got) != 2 || got[0].ID != 3 || got[1].ID != 2 {
		t.Fatalf("ring = %+v, want newest-first [3 2]", got)
	}
	// Disabling a threshold (0) turns that trigger off.
	s.Configure(0, 5, 2)
	if s.ShouldCapture(time.Hour, 0) {
		t.Fatal("disabled latency threshold triggered")
	}
	if !s.ShouldCapture(0, 5) {
		t.Fatal("pages threshold lost on reconfigure")
	}
	if len(s.List()) != 0 {
		t.Fatal("reconfigure did not clear the ring")
	}
}
