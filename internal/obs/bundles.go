package obs

import (
	"fmt"
	"sync"
)

// This file defines the pre-wired metric bundles the rest of the
// repository consumes: plain structs of registered instruments, so call
// sites hold direct pointers (no name lookups anywhere near a hot path)
// and a nil bundle pointer disables a whole subsystem's instrumentation
// with one branch.

// MachineMetrics is the simulated machine's bundle. The machine mutates
// nothing per message — per-node counters it already keeps are flushed
// into these counters once per Run, so the per-event hot path (Send,
// Recv, Compute) is untouched. The one exception is QueueDepth, sampled
// on the blocked-receive path only (a receive that found its message
// queued never samples).
type MachineMetrics struct {
	// Runs counts completed machine runs (kernel executions).
	Runs *Counter
	// Messages, KeysSent, and KeyHops aggregate the communication
	// counters of machine.Result over all runs.
	Messages *Counter
	KeysSent *Counter
	KeyHops  *Counter
	// Comparisons aggregates key comparisons over all runs.
	Comparisons *Counter
	// RecvWaits counts receives that blocked waiting for their message.
	RecvWaits *Counter
	// Makespan is the distribution of per-run simulated completion times.
	Makespan *Histogram
	// QueueDepth is the distribution of mailbox depths observed by
	// blocked receivers (sampled 1-in-16 per node to bound the cost of
	// walking the mailbox). Sustained large depths indicate link
	// congestion — a peer is producing faster than its partner consumes.
	QueueDepth *Histogram

	// Link-congestion instruments, flushed once per congestion-priced
	// run (multipath routing or hot links armed); legacy runs never
	// touch them.

	// LinkWait is the per-run distribution of total virtual time
	// messages queued behind busy links in the occupancy replay.
	LinkWait *Histogram
	// MaxLinkOccupancy gauges the traversal count of the hottest single
	// link in the most recent congestion-priced run.
	MaxLinkOccupancy *Gauge
	// StripedTransfers counts transfers split across multiple disjoint
	// paths.
	StripedTransfers *Counter

	// linkWaitDim holds the per-dimension link-wait histogram family,
	// one series per hypercube dimension, grown on demand (the bundle
	// does not know the machine dimension at registration time).
	reg         *Registry
	dimMu       sync.Mutex
	linkWaitDim []*Histogram
}

// FlushCongestion records one congestion-priced run's replay output:
// the total link wait (overall histogram plus the per-dimension family),
// the hottest link's traversal count, and the striped-transfer count.
func (mm *MachineMetrics) FlushCongestion(linkWait int64, perDim []int64, maxOcc, striped int64) {
	mm.LinkWait.Observe(linkWait)
	mm.MaxLinkOccupancy.Set(maxOcc)
	mm.StripedTransfers.Add(striped)
	mm.dimMu.Lock()
	for len(mm.linkWaitDim) < len(perDim) {
		d := len(mm.linkWaitDim)
		mm.linkWaitDim = append(mm.linkWaitDim, mm.reg.LabeledHistogram(
			"hypersort_machine_link_wait_dim_vtime",
			"Per-run virtual time messages queued behind busy links, split by link dimension; cost-model units.",
			"dim", fmt.Sprint(d)))
	}
	dims := mm.linkWaitDim[:len(perDim)]
	mm.dimMu.Unlock()
	for d, w := range perDim {
		dims[d].Observe(w)
	}
}

// NewMachineMetrics registers the machine bundle in r. Idempotent: the
// instruments are shared across repeated calls on one registry.
func NewMachineMetrics(r *Registry) *MachineMetrics {
	return &MachineMetrics{
		Runs: r.Counter("hypersort_machine_runs_total",
			"Completed simulated machine runs (one SPMD kernel execution each)."),
		Messages: r.Counter("hypersort_machine_messages_total",
			"Point-to-point messages sent across all runs."),
		KeysSent: r.Counter("hypersort_machine_keys_sent_total",
			"Keys carried by all messages across all runs."),
		KeyHops: r.Counter("hypersort_machine_key_hops_total",
			"Key*link traffic across all runs (each key counted once per hop travelled)."),
		Comparisons: r.Counter("hypersort_machine_comparisons_total",
			"Key comparisons performed across all runs."),
		RecvWaits: r.Counter("hypersort_machine_recv_waits_total",
			"Receives that blocked because no matching message was queued."),
		Makespan: r.Histogram("hypersort_machine_makespan",
			"Per-run simulated completion time, in cost-model units."),
		QueueDepth: r.Histogram("hypersort_machine_queue_depth",
			"Mailbox depth observed by blocked receivers (sampled 1-in-16 per node); messages."),
		LinkWait: r.Histogram("hypersort_machine_link_wait_vtime",
			"Per-run virtual time messages queued behind busy links in the congestion replay; cost-model units."),
		MaxLinkOccupancy: r.Gauge("hypersort_machine_link_max_occupancy",
			"Traversal count of the hottest single link in the most recent congestion-priced run."),
		StripedTransfers: r.Counter("hypersort_machine_striped_transfers_total",
			"Transfers split across multiple vertex-disjoint paths by multipath routing."),
		reg: r,
	}
}

// ClusterMetrics is the shard router's bundle: cluster-wide routing
// counters plus one labelled series per shard. The per-shard families
// (ShardRequests, ShardInflight) are indexed by shard id, so the router
// holds direct pointers and pays one atomic op per update, exactly like
// every other bundle.
type ClusterMetrics struct {
	// Requests counts requests that entered the router (shed ones
	// included); Spills counts requests steered off their home shard to a
	// replica because the home crossed the spill high-water mark; Sheds
	// counts requests refused before enqueueing because every eligible
	// shard (home plus replicas) was saturated.
	Requests *Counter
	Spills   *Counter
	Sheds    *Counter
	// Decision is the distribution of nanoseconds the router spent
	// choosing a shard (hash, ring walk, load reads) — the cluster layer's
	// own overhead, separable from engine queueing.
	Decision *Histogram
	// Reroutes counts requests re-dispatched to a ring successor after
	// their chosen shard failed mid-call (multi-process mode: shard
	// process death or transport error; always zero in-process).
	Reroutes *Counter
	// ShardRequests counts requests dispatched to each shard;
	// ShardInflight gauges each shard's requests currently in flight (the
	// load signal the spill and shed thresholds compare against).
	ShardRequests []*Counter
	ShardInflight []*Gauge
}

// NewClusterMetrics registers the cluster bundle for a router of `shards`
// shards in r. Idempotent per (name, shard) series: two clusters in one
// process accumulate into the same families.
func NewClusterMetrics(r *Registry, shards int) *ClusterMetrics {
	cm := &ClusterMetrics{
		Requests: r.Counter("hypersort_cluster_requests_total",
			"Requests that entered the cluster router, shed ones included."),
		Spills: r.Counter("hypersort_cluster_spills_total",
			"Requests steered to a replica shard because the home shard crossed the spill high-water mark."),
		Sheds: r.Counter("hypersort_cluster_sheds_total",
			"Requests refused before enqueueing because every eligible shard was saturated."),
		Decision: r.Histogram("hypersort_cluster_router_decision_ns",
			"Nanoseconds the router spent choosing a shard (hash, ring walk, load reads)."),
		Reroutes: r.Counter("hypersort_cluster_reroutes_total",
			"Requests re-dispatched to a ring successor after their chosen shard failed mid-call."),
	}
	for s := 0; s < shards; s++ {
		id := fmt.Sprint(s)
		cm.ShardRequests = append(cm.ShardRequests, r.LabeledCounter(
			"hypersort_cluster_shard_requests_total",
			"Requests dispatched to this shard.", "shard", id))
		cm.ShardInflight = append(cm.ShardInflight, r.LabeledGauge(
			"hypersort_cluster_shard_inflight",
			"Requests currently in flight on this shard (the router's spill/shed load signal).", "shard", id))
	}
	return cm
}

// TransportMetrics is the multi-process wire layer's bundle, held by
// the proxy side (the shard clients): per-call round-trip time,
// pipeline depth, and shard health transitions.
type TransportMetrics struct {
	// RTT is the per-call round-trip distribution in nanoseconds,
	// measured from frame encode to response decode — wire overhead
	// plus shard-side queueing and execution.
	RTT *Histogram
	// PipelineDepth is the distribution of calls already in flight to
	// a shard when another was sent; sustained depth near the
	// connection-pool capacity means the pipeline, not the shard, is
	// the bottleneck.
	PipelineDepth *Histogram
	// ShardUnhealthy counts healthy→unhealthy transitions across all
	// shard clients (one per detected shard death, not per failed
	// call).
	ShardUnhealthy *Counter
}

// NewTransportMetrics registers the transport bundle in r. Idempotent.
func NewTransportMetrics(r *Registry) *TransportMetrics {
	return &TransportMetrics{
		RTT: r.Histogram("hypersort_transport_rtt_ns",
			"Per-call shard round-trip time in nanoseconds (encode to decode, shard queueing included)."),
		PipelineDepth: r.Histogram("hypersort_transport_pipeline_depth",
			"Calls already in flight to a shard when another was sent."),
		ShardUnhealthy: r.Counter("hypersort_transport_shard_unhealthy_total",
			"Healthy-to-unhealthy shard transitions detected by the transport clients."),
	}
}

// EngineMetrics is the request engine's bundle, recorded once per request
// — always on, because a request costs milliseconds and these cost
// nanoseconds.
type EngineMetrics struct {
	// Requests counts completed requests; Failures the subset that
	// returned an error.
	Requests *Counter
	Failures *Counter
	// PlanHits / PlanMisses count plan-cache lookups (a miss runs the
	// cutting-dimension search once; cached failures count as hits).
	PlanHits   *Counter
	PlanMisses *Counter
	// MachinesBuilt / MachinesCloned count full constructions versus
	// pool-clone fast paths.
	MachinesBuilt  *Counter
	MachinesCloned *Counter
	// Latency is the wall-clock request latency distribution in
	// nanoseconds, measured inside Engine.Do (queueing for a pooled
	// machine included, HTTP overhead excluded).
	Latency *Histogram
	// PoolInUse gauges machines currently leased to in-flight requests.
	PoolInUse *Gauge

	// Admission instruments.

	// AdmissionRejected counts requests refused because their
	// configuration was at the admission bound (the caller saw
	// ErrAdmissionRejected); Cancelled counts requests whose context was
	// cancelled while they waited for a machine.
	AdmissionRejected *Counter
	Cancelled         *Counter
	// QueueWait is the distribution of nanoseconds a request spent
	// waiting for a machine (see QueueWaitHistogram).
	QueueWait *Histogram

	// Live-fault recovery instruments (the replanning path that survives
	// mid-run injected casualties).

	// Replans counts successful hot replans: a run died to an injected
	// fault, diagnosis converged, a new plan was found, and the request
	// completed on the degraded configuration.
	Replans *Counter
	// KeysRedistributed counts keys re-spread over the surviving
	// processors by successful replans.
	KeysRedistributed *Counter
	// Unrecoverable counts casualties the engine could not replan
	// around (no single-fault partition, or no processors left); the
	// caller saw ErrUnrecoverable.
	Unrecoverable *Counter
	// RecoveryLatency is the wall-clock nanoseconds from a fatal injected
	// casualty to the recovered request completing (diagnosis round,
	// replan, and degraded re-run included).
	RecoveryLatency *Histogram

	// Direct-mode instruments (the host-speed execution substrate; the
	// simulator stays the oracle).

	// DirectRequests counts requests served by the direct substrate (no
	// machine lease, predicted Result).
	DirectRequests *Counter
	// OracleRuns counts sampled direct results re-executed on the
	// simulator for cross-checking; DirectParityBreaks counts oracle runs
	// whose sorted output differed from the direct output — any nonzero
	// value is a bug in one substrate.
	OracleRuns         *Counter
	DirectParityBreaks *Counter
	// DirectCostError is the distribution of |predicted − simulated|
	// makespan error over oracle runs, in permille of the simulated
	// makespan.
	DirectCostError *Histogram
}

// QueueWaitHistogram registers (idempotently) and returns the engine's
// machine-pool acquire wait histogram in r. It is the Retry-After
// signal, so the HTTP layer and the shard server read it without
// registering the rest of the engine bundle.
func QueueWaitHistogram(r *Registry) *Histogram {
	return r.Histogram("hypersort_engine_queue_wait_ns",
		"Nanoseconds a request waited for a machine-pool acquire.")
}

// NewEngineMetrics registers the engine bundle in r. Idempotent.
func NewEngineMetrics(r *Registry) *EngineMetrics {
	return &EngineMetrics{
		Requests: r.Counter("hypersort_engine_requests_total",
			"Completed engine requests, including failed ones."),
		Failures: r.Counter("hypersort_engine_failures_total",
			"Engine requests that returned an error."),
		PlanHits: r.Counter("hypersort_engine_plan_hits_total",
			"Plan-cache lookups that found an entry (cached failures included)."),
		PlanMisses: r.Counter("hypersort_engine_plan_misses_total",
			"Plan-cache lookups that ran the partition search."),
		MachinesBuilt: r.Counter("hypersort_engine_machines_built_total",
			"Full machine constructions (one template per pool)."),
		MachinesCloned: r.Counter("hypersort_engine_machines_cloned_total",
			"Clone fast-path machine constructions (pool growth)."),
		Latency: r.Histogram("hypersort_engine_request_latency_ns",
			"Wall-clock request latency in nanoseconds, including machine-pool queueing."),
		PoolInUse: r.Gauge("hypersort_engine_pool_in_use",
			"Simulated machines currently leased to in-flight requests."),
		AdmissionRejected: r.Counter("hypersort_engine_admission_rejected_total",
			"Requests refused because their configuration was at the admission bound of in-flight requests."),
		Cancelled: r.Counter("hypersort_engine_cancelled_total",
			"Requests whose context was cancelled while waiting for a machine."),
		QueueWait: QueueWaitHistogram(r),
		Replans: r.Counter("hypersort_engine_replans_total",
			"Successful hot replans after a mid-run injected casualty (diagnosis converged, new plan found, request completed)."),
		KeysRedistributed: r.Counter("hypersort_engine_keys_redistributed_total",
			"Keys re-spread over surviving processors by successful replans."),
		Unrecoverable: r.Counter("hypersort_engine_unrecoverable_total",
			"Casualties the engine could not replan around (caller saw ErrUnrecoverable)."),
		RecoveryLatency: r.Histogram("hypersort_engine_recovery_latency_ns",
			"Wall-clock nanoseconds from fatal injected casualty to recovered request completion."),
		DirectRequests: r.Counter("hypersort_engine_direct_requests_total",
			"Requests served by the direct host-speed substrate (no machine lease, predicted Result)."),
		OracleRuns: r.Counter("hypersort_engine_oracle_runs_total",
			"Sampled direct results re-executed on the simulator oracle for cross-checking."),
		DirectParityBreaks: r.Counter("hypersort_engine_direct_parity_breaks_total",
			"Oracle runs whose sorted output differed from the direct output (any nonzero value is a bug)."),
		DirectCostError: r.Histogram("hypersort_engine_direct_cost_error_permille",
			"Absolute predicted-vs-simulated makespan error over oracle runs, in permille of the simulated makespan."),
	}
}
