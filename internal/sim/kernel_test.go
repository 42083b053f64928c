package sim

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestKernelTickOrderAndCount(t *testing.T) {
	k := NewKernel()
	var order []int
	k.Register(TickerFunc(func(now Cycle) { order = append(order, 1) }))
	k.Register(TickerFunc(func(now Cycle) { order = append(order, 2) }))
	k.Run(3)
	want := []int{1, 2, 1, 2, 1, 2}
	if len(order) != len(want) {
		t.Fatalf("got %d ticks, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("tick order %v, want %v", order, want)
		}
	}
	if k.Now() != 3 {
		t.Fatalf("Now = %d, want 3", k.Now())
	}
}

func TestScheduleRunsBeforeTickersAtSameCycle(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Register(TickerFunc(func(now Cycle) {
		if now == 5 {
			order = append(order, "tick")
		}
	}))
	k.Schedule(5, func(now Cycle) { order = append(order, "event") })
	k.Run(10)
	if len(order) != 2 || order[0] != "event" || order[1] != "tick" {
		t.Fatalf("order = %v, want [event tick]", order)
	}
}

func TestScheduleFIFOWithinCycle(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(2, func(Cycle) { got = append(got, i) })
	}
	k.Run(3)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-cycle events out of order: %v", got)
		}
	}
}

func TestAfterChainsAndStop(t *testing.T) {
	k := NewKernel()
	count := 0
	var again func(Cycle)
	again = func(now Cycle) {
		count++
		if count == 5 {
			k.Stop()
			return
		}
		k.After(2, again)
	}
	k.After(2, again)
	end := k.Run(1000)
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if end >= 1000 {
		t.Fatal("Stop did not end the run early")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	k := NewKernel()
	k.Run(5)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	k.Schedule(2, func(Cycle) {})
}

func TestEventHeapOrdersArbitrarySchedules(t *testing.T) {
	// Property: events fire in non-decreasing cycle order regardless of
	// insertion order.
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		k := NewKernel()
		var fired []Cycle
		for _, d := range delays {
			at := Cycle(d % 1000)
			k.Schedule(at, func(now Cycle) { fired = append(fired, now) })
		}
		k.Run(1001)
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPendingCyclesSorted(t *testing.T) {
	k := NewKernel()
	for _, at := range []Cycle{9, 3, 7, 1} {
		k.Schedule(at, func(Cycle) {})
	}
	// The pending set pops in cycle order whatever the insertion order.
	var got []Cycle
	for len(k.events) > 0 {
		got = append(got, k.events.pop().at)
	}
	if !reflect.DeepEqual(got, []Cycle{1, 3, 7, 9}) {
		t.Fatalf("pending cycles pop as %v, want [1 3 7 9]", got)
	}
}

func TestPendingEvents(t *testing.T) {
	k := NewKernel()
	if n := len(k.events); n != 0 {
		t.Fatalf("fresh kernel has %d pending events", n)
	}
	for _, at := range []Cycle{2, 5, 5} {
		k.Schedule(at, func(Cycle) {})
	}
	if n := len(k.events); n != 3 {
		t.Fatalf("%d pending events, want 3", n)
	}
	k.Run(3) // fires the cycle-2 event
	if n := len(k.events); n != 2 {
		t.Fatalf("%d pending events after partial run, want 2", n)
	}
	k.Run(6)
	if n := len(k.events); n != 0 {
		t.Fatalf("%d pending events after full run, want 0", n)
	}
}
