package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call the benchmark made into a layer of the
// simulator. Times are nanoseconds since the tracer's epoch.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Lane   int    `json:"lane"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layer is the module a span's name belongs to: the text before the
// first dot ("stepsim.Simulate" → "stepsim").
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory, one buffer per lane. Lane 0 is the main
// goroutine and lanes 1..n are sweep workers; each lane is written by one
// goroutine at a time, so recording takes no lock. A nil *tracer records
// nothing, which keeps the untraced paths free of tracing cost.
type tracer struct {
	epoch time.Time
	lanes [][]span
}

func newTracer(lanes int) *tracer {
	return &tracer{epoch: time.Now(), lanes: make([][]span, lanes)}
}

// begin opens a span on lane under parent (0 for a root) and returns its
// handle. IDs encode the lane, so lanes never collide.
func (t *tracer) begin(lane int, name string, parent uint64) spanRef {
	if t == nil {
		return spanRef{}
	}
	id := uint64(lane)<<40 | uint64(len(t.lanes[lane])+1)
	t.lanes[lane] = append(t.lanes[lane], span{ID: id, Parent: parent, Name: name, Lane: lane, Start: int64(time.Since(t.epoch))})
	return spanRef{t: t, lane: lane, idx: len(t.lanes[lane]) - 1}
}

// spanRef is an open span.
type spanRef struct {
	t    *tracer
	lane int
	idx  int
}

// ID returns the span's ID, or 0 for the untraced no-op span.
func (r spanRef) ID() uint64 {
	if r.t == nil {
		return 0
	}
	return r.t.lanes[r.lane][r.idx].ID
}

// end closes the span.
func (r spanRef) end() {
	if r.t == nil {
		return
	}
	r.t.lanes[r.lane][r.idx].End = int64(time.Since(r.t.epoch))
}

// dur returns the closed span's duration, or 0 for the no-op span.
func (r spanRef) dur() int64 {
	if r.t == nil {
		return 0
	}
	return r.t.lanes[r.lane][r.idx].dur()
}

// spans returns every recorded span, lane by lane in recording order.
func (t *tracer) spans() []span {
	var out []span
	for _, l := range t.lanes {
		out = append(out, l...)
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of it covered by its children on the same lane. A child on another
// lane ran concurrently (a worker serving a pool), so it does not
// shorten its parent's self time; it is counted on its own lane. With
// spans properly nested per lane, the self times of one lane sum to the
// durations of that lane's root spans.
func selfTimes(spans []span) map[uint64]int64 {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		var iv [][2]int64
		for _, c := range children[s.ID] {
			if c.Lane == s.Lane {
				iv = append(iv, [2]int64{max(c.Start, s.Start), min(c.End, s.End)})
			}
		}
		self[s.ID] = s.dur() - unionLen(iv)
	}
	return self
}

// unionLen is the total length covered by the intervals.
func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	open := false
	for _, v := range iv {
		if v[1] <= v[0] {
			continue
		}
		if !open || v[0] > curE {
			if open {
				total += curE - curS
			}
			curS, curE, open = v[0], v[1], true
			continue
		}
		curE = max(curE, v[1])
	}
	if open {
		total += curE - curS
	}
	return total
}

// layerSelf sums self times per layer, and returns the total lane time:
// the summed durations of every lane's root spans (spans whose parent is
// absent or on another lane).
func layerSelf(spans []span) (perLayer map[string]int64, laneTime int64) {
	self := selfTimes(spans)
	lane := make(map[uint64]int, len(spans))
	for _, s := range spans {
		lane[s.ID] = s.Lane
	}
	perLayer = map[string]int64{}
	for _, s := range spans {
		perLayer[s.layer()] += self[s.ID]
		if pl, ok := lane[s.Parent]; !ok || pl != s.Lane {
			laneTime += s.dur()
		}
	}
	return perLayer, laneTime
}

// writeSelfTable prints the per-layer self-time table, largest first.
func writeSelfTable(w io.Writer, perLayer map[string]int64, laneTime int64) {
	names := make([]string, 0, len(perLayer))
	for n := range perLayer {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if perLayer[names[i]] != perLayer[names[j]] {
			return perLayer[names[i]] > perLayer[names[j]]
		}
		return names[i] < names[j]
	})
	fmt.Fprintf(w, "%-12s %12s %8s\n", "layer", "self_ms", "share")
	var sum int64
	for _, n := range names {
		sum += perLayer[n]
		fmt.Fprintf(w, "%-12s %12.3f %7.2f%%\n", n, float64(perLayer[n])/1e6, 100*float64(perLayer[n])/float64(max(laneTime, 1)))
	}
	fmt.Fprintf(w, "%-12s %12.3f  (lane time %.3f ms)\n", "sum", float64(sum)/1e6, float64(laneTime)/1e6)
}

// writeSpans writes spans, grouped by phase, as JSON to path.
func writeSpans(path string, spans map[string][]span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// sumDur sums the durations of spans named name.
func sumDur(spans []span, name string) (total int64) {
	for _, s := range spans {
		if s.Name == name {
			total += s.dur()
		}
	}
	return total
}

// durationsMs lists the durations in milliseconds of spans named name.
func durationsMs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}
