package trace_test

import (
	"fmt"
	"os"

	"hypersort/internal/machine"
	"hypersort/internal/trace"
)

// ExampleAnalyze digests a small hand-built event stream: node 0 sends
// 64 keys one hop to node 1, which merges them. With real machines the
// stream comes from a Recorder wired into machine.Config.Trace.
func ExampleAnalyze() {
	events := []machine.TraceEvent{
		{Node: 0, Kind: machine.TraceCompute, Keys: 6, Time: 12},
		{Node: 0, Kind: machine.TraceSend, Peer: 1, Tag: 1, Keys: 64, Hops: 1, Time: 76},
		{Node: 1, Kind: machine.TraceRecv, Peer: 0, Tag: 1, Keys: 64, Time: 140},
		{Node: 1, Kind: machine.TraceCompute, Keys: 63, Time: 266},
	}

	rep := trace.Analyze(events)
	fmt.Printf("events: %d\n", rep.Events)
	fmt.Printf("makespan: %d\n", rep.Makespan)
	fmt.Printf("node 1 received: %d keys\n", rep.Profiles[1].KeysIn)
	fmt.Printf("messages 0->1: %d\n", rep.Traffic[0][1])
	fmt.Printf("1-hop messages: %d\n", rep.HopHistogram[1])
	// Output:
	// events: 4
	// makespan: 266
	// node 1 received: 64 keys
	// messages 0->1: 1
	// 1-hop messages: 1
}

// ExampleWriteChrome exports a Ring's contents as Chrome trace-event
// JSON — load the bytes in https://ui.perfetto.dev to see the timeline.
func ExampleWriteChrome() {
	ring := trace.NewRing(1024, 1)
	// In production the ring is attached engine-wide; here we feed it
	// directly.
	ring.Record(machine.TraceEvent{Node: 0, Kind: machine.TraceSend, Peer: 1, Tag: 1, Keys: 8, Hops: 1, Time: 10})
	ring.Record(machine.TraceEvent{Node: 1, Kind: machine.TraceRecv, Peer: 0, Tag: 1, Keys: 8, Time: 24})

	if err := trace.WriteChrome(os.Stdout, ring.Snapshot(0)); err != nil {
		fmt.Println("export failed:", err)
	}
	// Output:
	// {"traceEvents":[{"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"node 0"}},{"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":1,"args":{"name":"node 1"}},{"name":"send","cat":"machine","ph":"i","ts":10,"pid":0,"tid":0,"s":"t","args":{"peer":1,"keys":8,"tag":1,"hops":1}},{"name":"recv","cat":"machine","ph":"i","ts":24,"pid":0,"tid":1,"s":"t","args":{"peer":0,"keys":8,"tag":1}}],"displayTimeUnit":"ns"}
}
