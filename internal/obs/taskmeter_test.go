package obs

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
)

// TestTaskMeterNilSafe: every charge and read is a no-op on a nil meter —
// the contract that lets hot paths charge unconditionally.
func TestTaskMeterNilSafe(t *testing.T) {
	var m *TaskMeter
	m.PageFault(8192, true)
	m.Add(TaskCounters{VectorsOpened: 1, Tuples: 5})
	m.CacheHit()
	m.ReadRetry()
	if m.PagesFaulted() != 0 || m.ReadRetries() != 0 {
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
	m.Add(TaskCounters{VectorsOpened: 1, Tuples: 7})
	m.Add(TaskCounters{Tuples: 1, StaticEmpty: 1})
	m.CacheHit()
	m.ReadRetry()
	want := TaskCounters{
		PagesFaulted:     2,
		BytesRead:        16384,
		ChecksumVerifies: 1,
		VectorsOpened:    1,
		Tuples:           8,
		StaticEmpty:      1,
		CacheHits:        1,
		ReadRetries:      1,
	}
	if got := m.Counters(); got != want {
		t.Fatalf("counters = %+v, want %+v", got, want)
	}
	if m.PagesFaulted() != 2 {
		t.Fatalf("PagesFaulted = %d", m.PagesFaulted())
	}
}

// TestTaskCountersSumsAndJSON: Sub undoes Add field by field, and
// AppendJSON writes what encoding/json writes, key for key.
func TestTaskCountersSumsAndJSON(t *testing.T) {
	a := TaskCounters{VectorsOpened: 1, ValuesScanned: 2, RowsProduced: 3, Tuples: 4, RunsExpanded: 5, IndexHits: 6,
		PagesFaulted: 7, BytesRead: 8, ChecksumVerifies: 9, ReadRetries: 10, StaticEmpty: 11, CacheHits: 12}
	sum := a
	sum.Add(a)
	if sum.Sub(a) != a || sum.Sub(sum) != (TaskCounters{}) {
		t.Fatalf("sum %+v minus %+v is not the operand", sum, a)
	}
	want, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	if got := sum.AppendJSON([]byte("x")); string(got) != "x"+string(want) {
		t.Fatalf("AppendJSON = %s, want x%s", got, want)
	}
}

// TestTaskMeterConcurrent: goroutines charging the same meter at once
// leave exact totals (meaningful under -race).
func TestTaskMeterConcurrent(t *testing.T) {
	m := &TaskMeter{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.PageFault(8192, true)
				m.Add(TaskCounters{Tuples: 2})
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
	m.Add(TaskCounters{Tuples: 3})
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
