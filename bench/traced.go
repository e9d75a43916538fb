package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"hypersort/internal/experiments"
	"hypersort/internal/xrand"
)

// tracedRequests caps the sequential pass of a traced run.
const tracedRequests = 2000

// Time shares of a traced serve run, as fractions of the measured
// seconds: the load phase that feeds the servers' counters, and the
// sequential pass that times requests over HTTP and in process.
func countersTime(s time.Duration) time.Duration { return s / 4 }
func passTime(s time.Duration) time.Duration     { return s * 3 / 4 }

// blockTime is how long a traced run sends requests over HTTP before it
// replays them in process.
const blockTime = 250 * time.Millisecond

// runTracedServe measures a serve workload layer by layer. It runs an
// open loop at the workload's rate to read the servers' counters, times
// requests one at a time over HTTP with spans off and on (the median
// paired difference is the tracing overhead), and replays the same
// requests through each layer's entry point in this process.
func runTracedServe(ctx context.Context, o options, bins binaries, w *workload) (*result, error) {
	res := newResult(perLayer)
	pool := w.pool(xrand.New(o.seed))
	tr := &tracer{t0: time.Now()}

	f, t, _, err := coldStart(ctx, bins, w, pool, res)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	defer t.close()

	// Counters under the workload's open-loop load.
	before, err := scrape(ctx, t)
	if err != nil {
		return nil, err
	}
	load := openLoop(ctx, t, w.rate, countersTime(o.seconds), len(pool))
	res.account(load)
	after, err := scrape(ctx, t)
	if err != nil {
		return nil, err
	}
	setCounters(res, before, after, len(load.samples))

	var shardAddrs []string
	for _, p := range f.procs[:len(f.procs)-1] {
		shardAddrs = append(shardAddrs, p.addr)
	}
	rp, err := newReplay(w, shardAddrs)
	if err != nil {
		return nil, err
	}
	defer rp.close()
	search, compile, err := configTimes(distinctConfigs(pool), 20)
	if err != nil {
		return nil, err
	}
	// The layer under the facade: the engine, or for a proxy the
	// transport round trip to a shard.
	below := "engine.do"
	if w.shards > 0 {
		below = "transport.rtt"
	}

	// Requests 0, 1, 2, ... in blocks of about blockTime: each request of
	// a block goes to the real server twice, with spans off and on in
	// alternating order, then /healthz is timed; then the block's requests
	// go through each layer's entry point in this process. Short blocks
	// keep drift in the host's speed out of the comparison.
	var off, on, floor, bodies []float64
	layers := map[string][]float64{}
	var sums, facadeSelf, engineSelf, messages, comparisons []float64
	answers := make([][]byte, len(pool))
	var buf bytes.Buffer
	deadline := time.Now().Add(passTime(o.seconds))
	for seq := 0; seq < tracedRequests && ctx.Err() == nil && (seq == 0 || time.Now().Before(deadline)); {
		first, blockEnd := seq, time.Now().Add(blockTime)
		for ; seq < tracedRequests && (seq == first || time.Now().Before(blockEnd)); seq++ {
			r := pool[seq%len(pool)]
			for k := 0; k < 2; k++ {
				start, end, err := t.exchange(ctx, seq, &buf)
				res.Attempted++
				if err != nil {
					res.fail(err)
				}
				if (seq+k)%2 == 1 {
					on = append(on, tr.add("http"+r.path, seq, "", 1, start, end))
				} else {
					off = append(off, us(end.Sub(start)))
				}
			}
			bodies = append(bodies, float64(len(r.body)+buf.Len())/1024)
			if answers[r.id] == nil {
				answers[r.id] = bytes.Clone(buf.Bytes())
			}
			start := time.Now()
			status, err := t.get(ctx, "/healthz", &buf)
			floor = append(floor, us(time.Since(start)))
			res.Attempted++
			if err != nil || status != 200 {
				res.fail(fmt.Errorf("GET /healthz: status %d: %v", status, err))
			}
		}
		for i := first; i < seq; i++ {
			r := pool[i%len(pool)]
			lt, direct, stats, err := rp.one(ctx, tr, i, r, answers[r.id])
			if err != nil {
				return nil, fmt.Errorf("replay: %w", err)
			}
			for name, v := range lt {
				layers[name] = append(layers[name], v)
			}
			// The blocking path of a request: HTTP, decode, facade, encode.
			sums = append(sums, lt["serve.http_transfer"]+lt["serve.json_decode"]+lt["facade.sort"]+lt["serve.json_encode"])
			kernel := lt["machine.ftsort"] + lt["machine.topk"]
			if direct {
				kernel = lt["direct.exec"] + lt["direct.predict"]
			}
			facadeSelf = append(facadeSelf, lt["facade.sort"]-lt[below])
			engineSelf = append(engineSelf, lt["engine.do"]-kernel)
			messages = append(messages, float64(stats.Messages))
			comparisons = append(comparisons, float64(stats.Comparisons))
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e2e := pct(off, 0.5)

	p50 := func(name string) float64 { return pct(layers[name], 0.5) }
	res.set("serve.http_floor_us", pct(floor, 0.5))
	res.set("serve.json_decode_us", p50("serve.json_decode"))
	res.set("serve.json_encode_us", p50("serve.json_encode"))
	res.set("serve.body_kib", pct(bodies, 0.5))
	res.set("serve.http_transfer_us", p50("serve.http_transfer"))
	res.set("serve.residual_us", e2e-pct(sums, 0.5))
	res.set("facade.sort_us", p50("facade.sort"))
	res.set("facade.sort_p99_us", pct(layers["facade.sort"], 0.99))
	res.set("engine.do_us", p50("engine.do"))
	res.set("partition.search_us", pct(search, 0.5))
	res.set("partition.lookup_us", p50("partition.lookup"))
	res.set("direct.compile_us", pct(compile, 0.5))
	res.set("direct.exec_us", p50("direct.exec"))
	res.set("direct.predict_us", p50("direct.predict"))
	res.set("machine.ftsort_us", p50("machine.ftsort"))
	res.set("machine.topk_us", p50("machine.topk"))
	res.set("machine.messages", pct(messages, 0.5))
	res.set("machine.comparisons", pct(comparisons, 0.5))
	res.set("transport.encode_us", p50("transport.encode"))
	res.set("transport.decode_us", p50("transport.decode"))
	res.set("transport.rtt_us", p50("transport.rtt"))
	res.set("transport.self_us", p50("transport.self"))
	res.set("cluster.do_us", p50("cluster.do"))
	res.set("ledger.e2e_p50_us", e2e)
	res.set("ledger.layer_sum_us", pct(sums, 0.5))
	overhead := make([]float64, len(on))
	for i := range on {
		overhead[i] = on[i] - off[i]
	}
	res.set("ledger.trace_overhead_us", pct(overhead, 0.5))

	path := filepath.Join(o.work, fmt.Sprintf("trace-%s-%d.json", w.name, o.seed))
	if err := tr.writeChrome(path); err != nil {
		return nil, err
	}
	m := res.Metrics
	logf("%s ledger: p50 µs over %d requests, each timed over HTTP and replayed in process",
		w.name, len(sums))
	logf("  http transfer %7.1f  (real binary's /healthz floor %.1f)", m["serve.http_transfer_us"].Value, m["serve.http_floor_us"].Value)
	logf("  json decode %9.1f", m["serve.json_decode_us"].Value)
	logf("  facade sort %9.1f  = facade self %.1f + %s %.1f; engine self %.1f",
		m["facade.sort_us"].Value, pct(facadeSelf, 0.5), below, p50(below), pct(engineSelf, 0.5))
	logf("  json encode %9.1f", m["serve.json_encode_us"].Value)
	logf("  layer sum %11.1f  vs e2e p50 %.1f: residual %.1f (%.1f%%)",
		m["ledger.layer_sum_us"].Value, m["ledger.e2e_p50_us"].Value, m["serve.residual_us"].Value,
		100*m["serve.residual_us"].Value/m["ledger.e2e_p50_us"].Value)
	logf("  transport: rtt %.1f, self %.1f (rtt less the shard engine's own time), codec %.1f; cluster.do %.1f vs engine.do %.1f; tracing overhead %.2f µs",
		m["transport.rtt_us"].Value, m["transport.self_us"].Value, m["transport.encode_us"].Value+m["transport.decode_us"].Value,
		m["cluster.do_us"].Value, m["engine.do_us"].Value, m["ledger.trace_overhead_us"].Value)
	logf("  trace written to %s", path)
	return res, nil
}

// setCounters derives the per-layer counts from two scrapes of the front
// process around a load phase of n requests.
func setCounters(res *result, before, after *serverMetrics, n int) {
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	eb, ea := before.Engine, after.Engine
	res.set("engine.direct_share", ratio(ea.DirectRequests-eb.DirectRequests, ea.Requests-eb.Requests))
	res.set("engine.fused_depth", ratio(ea.FusedRequests-eb.FusedRequests, ea.FusedBatches-eb.FusedBatches))
	hits, misses := ea.PlanHits-eb.PlanHits, ea.PlanMisses-eb.PlanMisses
	res.set("engine.plan_hit_ratio", ratio(hits, hits+misses))
	res.set("engine.queue_wait_p99_us", histQuantile(before.queueWait, after.queueWait, 0.99)/1000)
	if after.Cluster != nil && before.Cluster != nil {
		res.set("cluster.spills", float64(after.Cluster.Spills-before.Cluster.Spills))
		res.set("cluster.sheds", float64(after.Cluster.Sheds-before.Cluster.Sheds))
		res.set("cluster.reroutes", float64(after.Cluster.Reroutes-before.Cluster.Reroutes))
	}
	res.set("proc.allocs_per_req", float64(after.Memory.Mallocs-before.Memory.Mallocs)/float64(n))
	res.set("proc.gc_per_1k_req", float64(after.Memory.NumGC-before.Memory.NumGC)*1000/float64(n))
}

// tracedReproduceRounds is how many process runs and in-process
// replays a traced reproduce run alternates.
const tracedReproduceRounds = 2

// runTracedReproduce splits a reproduction into the experiments calls
// cmd/reproduce makes. It times cmd/reproduce processes as the
// end-to-end figure and makes the same calls at the same seed in this
// process, one span each.
func runTracedReproduce(ctx context.Context, o options, bins binaries) (*result, error) {
	res := newResult(perLayer)
	tr := &tracer{t0: time.Now()}
	// The calls and arguments of cmd/reproduce's default (full) run.
	const trials, figTrials = 10000, 5
	seed := o.seed
	layers := []struct {
		metric string
		run    func() error
	}{
		{"experiments.table1_s", func() error {
			_, err := experiments.Table1(experiments.Table1Config{Trials: trials, Seed: seed})
			return err
		}},
		{"experiments.table2_s", func() error {
			_, err := experiments.Table2(experiments.Table2Config{Trials: trials, Seed: seed})
			return err
		}},
		{"experiments.fig7_s", func() error {
			for _, n := range []int{6, 5, 3, 4} {
				series, err := experiments.Fig7(experiments.Fig7Config{N: n, TrialsPerPoint: figTrials, Seed: seed})
				if err != nil {
					return err
				}
				experiments.CheckFig7Shape(series)
			}
			return nil
		}},
		{"experiments.ablations_s", func() error { return ablations(seed, trials) }},
	}
	// Rounds alternate a cmd/reproduce process with the same calls in
	// this process, so drift in the host's speed touches both alike.
	var walls, sums []float64
	per := map[string][]float64{}
	for round := 0; round < tracedReproduceRounds; round++ {
		start := time.Now()
		r, err := reproduceOnce(ctx, bins.reproduce, o.work, o.seed)
		tr.since("reproduce", round, "", 1, start)
		res.Attempted++
		if err == nil {
			err = checkReproduction(o, r.out, "")
		}
		if err != nil {
			res.fail(err)
		}
		os.RemoveAll(r.out)
		walls = append(walls, us(r.wall))
		sum := 0.0
		for _, l := range layers {
			start := time.Now()
			err := l.run()
			d := tr.since(strings.TrimSuffix(l.metric, "_s"), round, "reproduce", 2, start)
			res.Attempted++
			if err != nil {
				res.fail(fmt.Errorf("%s: %w", l.metric, err))
			}
			per[l.metric] = append(per[l.metric], d)
			sum += d
		}
		sums = append(sums, sum)
	}
	for _, l := range layers {
		res.set(l.metric, median(per[l.metric])/1e6)
	}
	res.set("ledger.e2e_p50_us", median(walls))
	res.set("ledger.layer_sum_us", median(sums))

	path := filepath.Join(o.work, fmt.Sprintf("trace-reproduce-%d.json", o.seed))
	if err := tr.writeChrome(path); err != nil {
		return nil, err
	}
	m := res.Metrics
	e2e, sum := median(walls)/1e6, median(sums)/1e6
	logf("reproduce ledger (median of %d rounds): table1 %.2f s, table2 %.2f s, fig7 %.2f s, ablations %.2f s; layer sum %.2f s vs process wall %.2f s: residual %.1f%%",
		tracedReproduceRounds, m["experiments.table1_s"].Value, m["experiments.table2_s"].Value, m["experiments.fig7_s"].Value,
		m["experiments.ablations_s"].Value, sum, e2e, 100*(e2e-sum)/e2e)
	logf("  trace written to %s", path)
	return res, nil
}

// ablations makes cmd/reproduce's E8–E16 calls.
func ablations(seed uint64, trials int) error {
	steps := []func() error{
		func() error { _, err := experiments.CostAgreement(seed); return err },
		func() error { _, err := experiments.HeuristicValue(6, 4000, 20, seed); return err },
		func() error { _, err := experiments.FaultModelComparison(5, 4000, 10, seed); return err },
		func() error { _, err := experiments.ProtocolComparison(5, 4000, 5, seed); return err },
		func() error {
			_, err := experiments.DistributionOverhead(6, 3, []int{3200, 32000, 320000}, seed)
			return err
		},
		func() error {
			_, err := experiments.Speedup(64000, 8, seed, experiments.DefaultSpeedupCost())
			return err
		},
		func() error { _, err := experiments.BeyondGuarantee(5, 12, min(trials, 400), seed); return err },
		func() error { _, err := experiments.Availability(5, 4000, 40, nil, seed); return err },
		func() error { _, err := experiments.LinkFaults(5, 4000, 4, 10, seed); return err },
	}
	for _, s := range steps {
		if err := s(); err != nil {
			return err
		}
	}
	return nil
}
