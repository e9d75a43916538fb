package main

import (
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A server that stalls once for 200 ms must not hide the stall: every
// request due while it lasts is charged from its due time, and the
// generator reports how late it sent them.
func TestOpenLoopChargesStallFromDueTime(t *testing.T) {
	const stall = 200 * time.Millisecond
	var mu sync.Mutex
	var stalled atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		mu.Lock()
		if stalled.CompareAndSwap(false, true) {
			time.Sleep(stall)
		}
		mu.Unlock()
		_, _ = w.Write(answerBody("[1,2,3]"))
	}))
	defer srv.Close()
	pool := []*request{single(0, item{op: "sort", keys: []int64{3, 1, 2}, want: renderKeys([]int64{1, 2, 3})})}
	tg := newTarget(srv.URL, pool)
	defer tg.close()

	// One request every 10 ms for a second: about 20 fall due during the
	// stall, and both connections are stuck in it.
	p := openLoop(context.Background(), tg, 100, time.Second, 0)
	res := newResult(endToEnd)
	res.account(p)
	if res.Attempted != 100 || res.Failed != 0 {
		t.Fatalf("%d sent, %d failed (first: %v); want 100, 0", res.Attempted, res.Failed, res.firstErr)
	}
	// Request 10 fell due 100 ms into the stall: its latency runs from
	// then, though the server answered it within a moment of its send.
	s := p.samples[10]
	if s.lat < stall/2-20*time.Millisecond {
		t.Errorf("request due mid-stall has latency %v; want it charged from its due time (≥ ~%v)", s.lat, stall/2)
	}
	if service := s.lat - s.late; service > 50*time.Millisecond {
		t.Errorf("request due mid-stall: %v after its send; the stall belongs in its lateness (%v)", service, s.late)
	}
	if _, lateMax := p.lateness(); lateMax < stall/2 {
		t.Errorf("generator lateness max %v; want the stall to show (≥ %v)", lateMax, stall/2)
	}
	// Long after the stall the schedule is met again.
	if late := p.samples[95].late; late > 50*time.Millisecond {
		t.Errorf("request 95 sent %v late; the generator did not catch up", late)
	}
}

func TestOpenLoopCountsFailures(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"busy"}`, http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	tg := newTarget(srv.URL, []*request{single(0, item{op: "sort", want: renderKeys([]int64{1})})})
	defer tg.close()
	p := openLoop(context.Background(), tg, 200, 100*time.Millisecond, 0)
	res := newResult(endToEnd)
	res.account(p)
	if res.Failed != 20 || res.Attempted != 20 || res.Correct {
		t.Fatalf("%d of %d failed, correct=%v; want all 20 failed", res.Failed, res.Attempted, res.Correct)
	}
	if lat := p.latencies(); !math.IsInf(lat[0], 1) {
		t.Errorf("a failed request reads %v ms; want +Inf", lat[0])
	}
}

// A percentile needs at least ten samples beyond it; a thinner tail is
// an error, never a number.
func TestQuantileRefusesThinTail(t *testing.T) {
	xs := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	if _, err := quantile(xs(999), 0.99); !errors.Is(err, errThinTail) {
		t.Errorf("p99 of 999 samples: err %v, want errThinTail", err)
	}
	if v, err := quantile(xs(1000), 0.99); err != nil || v != 990 {
		t.Errorf("p99 of 1000 samples = %v, %v; want 990", v, err)
	}
	if _, err := quantile(xs(19), 0.5); !errors.Is(err, errThinTail) {
		t.Errorf("p50 of 19 samples: err %v, want errThinTail", err)
	}
	if v, err := quantile(xs(20), 0.5); err != nil || v != 10 {
		t.Errorf("p50 of 20 samples = %v, %v; want 10", v, err)
	}
}

func TestHistQuantileInterpolatesDelta(t *testing.T) {
	inf := math.Inf(1)
	before := []bucket{{1024, 10}, {inf, 10}}
	after := []bucket{{1024, 10}, {2048, 110}, {inf, 110}}
	// All 100 new observations sit in (1024, 2048]; the 99th lies 99% of
	// the way through it.
	if got, want := histQuantile(before, after, 0.99), 1024+1024*0.99; math.Abs(got-want) > 1e-9 {
		t.Errorf("p99 = %v, want %v", got, want)
	}
	if got := histQuantile(after, after, 0.99); got != 0 {
		t.Errorf("p99 with nothing observed = %v, want 0", got)
	}
}
