package stepsim

import "testing"

// TestFIFOOrderAndBoundedReuse checks the queue pops in push order
// through rewinds and shifts, and that a standing backlog — the queue
// never empties — keeps reusing one bounded array.
func TestFIFOOrderAndBoundedReuse(t *testing.T) {
	var q fifo[int]
	next, want := 0, 0
	push := func() { q.push(next); next++ }
	pop := func() {
		if got := q.pop(); got != want {
			t.Fatalf("popped %d, want %d", got, want)
		}
		want++
	}
	// Drain to empty a few times: each empty queue rewinds.
	for round := 0; round < 3; round++ {
		for i := 0; i < 5; i++ {
			push()
		}
		for q.len() > 0 {
			pop()
		}
		if q.head != 0 || len(q.buf) != 0 {
			t.Fatalf("empty queue not rewound: head %d, len %d", q.head, len(q.buf))
		}
	}
	// A standing backlog of three: one in, one out, forever.
	for i := 0; i < 3; i++ {
		push()
	}
	capAfterWarmUp := 0
	for i := 0; i < 10000; i++ {
		push()
		pop()
		if i == 100 {
			capAfterWarmUp = cap(q.buf)
		}
		if q.len() != 3 {
			t.Fatalf("backlog %d, want 3", q.len())
		}
	}
	if c := cap(q.buf); c != capAfterWarmUp || c > 16 {
		t.Fatalf("backing array grew to cap %d (cap %d after warm-up) under a standing backlog of 3", c, capAfterWarmUp)
	}
	for q.len() > 0 {
		pop()
	}
}
