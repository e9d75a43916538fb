// Package trace collects and analyzes machine execution traces: who sent
// what to whom and when, per-processor busy/idle breakdowns, traffic
// matrices, and a textual timeline. It exists because a simulator's main
// advantage over real hardware is observability — every run can explain
// itself.
//
// Wire a Recorder into a machine:
//
//	rec := trace.NewRecorder()
//	m, _ := machine.New(machine.Config{Dim: 4, Trace: rec.Record})
//	... run ...
//	report := trace.Analyze(rec.Events())
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"text/tabwriter"

	"hypersort/internal/cube"
	"hypersort/internal/machine"
)

// Recorder is a concurrency-safe collector of machine trace events.
type Recorder struct {
	mu     sync.Mutex
	events []machine.TraceEvent
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Record appends one event; pass it as machine.Config.Trace.
func (r *Recorder) Record(ev machine.TraceEvent) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

// Events returns a snapshot of the collected events, ordered by event
// time (ties broken by node then kind for determinism).
func (r *Recorder) Events() []machine.TraceEvent {
	r.mu.Lock()
	out := append([]machine.TraceEvent(nil), r.events...)
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time < out[j].Time
		}
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// Reset clears the recorder for reuse between runs.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.events = r.events[:0]
	r.mu.Unlock()
}

// Len returns the number of collected events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// NodeProfile is one processor's activity summary.
type NodeProfile struct {
	Node        cube.NodeID
	Sends       int
	Recvs       int
	KeysOut     int64
	KeysIn      int64
	Comparisons int64
	// ComputeTime is the virtual time spent comparing (comparisons times
	// the compare cost is not recoverable from events alone, so this is
	// measured as the clock advance attributed to compute events).
	LastTime machine.Time
}

// Report is the digest of one run's trace.
type Report struct {
	Events   int
	Makespan machine.Time
	Profiles []NodeProfile // by ascending node address
	// Traffic[a][b] counts messages a -> b.
	Traffic map[cube.NodeID]map[cube.NodeID]int
	// HopHistogram counts sends by routed hop count; extra-hop traffic
	// from reindexing shows up here as mass above 1.
	HopHistogram map[int]int
}

// Analyze digests an event stream.
func Analyze(events []machine.TraceEvent) *Report {
	rep := &Report{
		Traffic:      make(map[cube.NodeID]map[cube.NodeID]int),
		HopHistogram: make(map[int]int),
	}
	profiles := make(map[cube.NodeID]*NodeProfile)
	get := func(id cube.NodeID) *NodeProfile {
		p, ok := profiles[id]
		if !ok {
			p = &NodeProfile{Node: id}
			profiles[id] = p
		}
		return p
	}
	for _, ev := range events {
		rep.Events++
		p := get(ev.Node)
		if ev.Time > p.LastTime {
			p.LastTime = ev.Time
		}
		if ev.Time > rep.Makespan {
			rep.Makespan = ev.Time
		}
		switch ev.Kind {
		case machine.TraceSend:
			p.Sends++
			p.KeysOut += int64(ev.Keys)
			row := rep.Traffic[ev.Node]
			if row == nil {
				row = make(map[cube.NodeID]int)
				rep.Traffic[ev.Node] = row
			}
			row[ev.Peer]++
			rep.HopHistogram[ev.Hops]++
		case machine.TraceRecv:
			p.Recvs++
			p.KeysIn += int64(ev.Keys)
		case machine.TraceCompute:
			p.Comparisons += int64(ev.Keys)
		}
	}
	for _, p := range profiles {
		rep.Profiles = append(rep.Profiles, *p)
	}
	sort.Slice(rep.Profiles, func(i, j int) bool { return rep.Profiles[i].Node < rep.Profiles[j].Node })
	return rep
}

// Summary renders the report as an aligned table plus the hop histogram.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d events, makespan %d\n", r.Events, r.Makespan)
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "node\tsends\trecvs\tkeys out\tkeys in\tcomparisons\tlast event")
	for _, p := range r.Profiles {
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			p.Node, p.Sends, p.Recvs, p.KeysOut, p.KeysIn, p.Comparisons, p.LastTime)
	}
	w.Flush()
	hops := make([]int, 0, len(r.HopHistogram))
	for h := range r.HopHistogram {
		hops = append(hops, h)
	}
	sort.Ints(hops)
	b.WriteString("messages by hop count:")
	for _, h := range hops {
		fmt.Fprintf(&b, " %d-hop: %d", h, r.HopHistogram[h])
	}
	b.WriteString("\n")
	return b.String()
}

// Timeline renders the first limit events in time order, one per line —
// a readable flight recorder for debugging kernels.
func Timeline(events []machine.TraceEvent, limit int) string {
	var b strings.Builder
	for i, ev := range events {
		if i >= limit {
			fmt.Fprintf(&b, "... (%d more events)\n", len(events)-limit)
			break
		}
		switch ev.Kind {
		case machine.TraceSend:
			fmt.Fprintf(&b, "t=%-8d node %-3d send %3d keys -> %d (tag %d, %d hops)\n",
				ev.Time, ev.Node, ev.Keys, ev.Peer, ev.Tag, ev.Hops)
		case machine.TraceRecv:
			fmt.Fprintf(&b, "t=%-8d node %-3d recv %3d keys <- %d (tag %d)\n",
				ev.Time, ev.Node, ev.Keys, ev.Peer, ev.Tag)
		case machine.TraceCompute:
			fmt.Fprintf(&b, "t=%-8d node %-3d compute %d comparisons\n",
				ev.Time, ev.Node, ev.Keys)
		}
	}
	return b.String()
}
