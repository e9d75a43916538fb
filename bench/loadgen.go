package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// senders is both the number of client connections and the number of
// sender goroutines; the whole load comes from this one process.
const senders = 2

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

var errThinTail = errors.New("too few samples beyond the percentile")

// target is the HTTP front door of a running fleet plus the workload's
// request pool.
type target struct {
	base   string
	client *http.Client
	pool   []*request
}

func newTarget(base string, pool []*request) *target {
	tr := &http.Transport{MaxConnsPerHost: senders, MaxIdleConnsPerHost: senders, DisableCompression: true}
	return &target{base: base, client: &http.Client{Transport: tr}, pool: pool}
}

func (t *target) close() { t.client.CloseIdleConnections() }

func (t *target) request(seq int) *request { return t.pool[seq%len(t.pool)] }

// send posts request seq of the stream and reads the whole answer into
// buf.
func (t *target) send(ctx context.Context, seq int, buf *bytes.Buffer) (int, error) {
	r := t.request(seq)
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, t.base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return 0, err
	}
	hr.Header.Set("Content-Type", "application/json")
	return t.do(hr, buf)
}

// get fetches path into buf.
func (t *target) get(ctx context.Context, path string, buf *bytes.Buffer) (int, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, t.base+path, nil)
	if err != nil {
		return 0, err
	}
	return t.do(hr, buf)
}

func (t *target) do(hr *http.Request, buf *bytes.Buffer) (int, error) {
	resp, err := t.client.Do(hr)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// exchange sends request seq and checks the answer; the check runs
// after end is stamped, off the timed path.
func (t *target) exchange(ctx context.Context, seq int, buf *bytes.Buffer) (start, end time.Time, err error) {
	start = time.Now()
	status, err := t.send(ctx, seq, buf)
	end = time.Now()
	if err == nil {
		err = t.request(seq).check(status, buf.Bytes())
	}
	if err != nil {
		err = fmt.Errorf("seq %d: %w", seq, err)
	}
	return start, end, err
}

// sample is one request's outcome: lat runs from the request's due
// time, and late is how long after its due time it was sent.
type sample struct {
	lat, late time.Duration
	err       error
}

// phase is the outcome of one load phase.
type phase struct {
	samples []sample
}

// latencies returns the sorted latencies in milliseconds; a failed
// request counts as +Inf.
func (p *phase) latencies() []float64 {
	ms := make([]float64, len(p.samples))
	for i, s := range p.samples {
		ms[i] = math.Inf(1)
		if s.err == nil {
			ms[i] = float64(s.lat) / float64(time.Millisecond)
		}
	}
	slices.Sort(ms)
	return ms
}

// lateness returns the generator's p99 and maximum send lateness.
func (p *phase) lateness() (p99, max time.Duration) {
	late := make([]float64, len(p.samples))
	for i, s := range p.samples {
		late[i] = float64(s.late)
	}
	slices.Sort(late)
	if len(late) == 0 {
		return 0, 0
	}
	return time.Duration(late[(len(late)*99)/100]), time.Duration(late[len(late)-1])
}

// quantile returns the nearest-rank q-quantile of sorted values. It
// fails when fewer than minTail samples lie beyond it: a thin tail is
// reported as an error, never as a number.
func quantile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minTail {
		return 0, fmt.Errorf("p%g of %d samples: %w (%d beyond, need %d)", q*100, n, errThinTail, max(n-rank, 0), minTail)
	}
	return sorted[rank-1], nil
}

// median returns the middle value of xs (the mean of the middle two for
// an even count), leaving xs unchanged.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// openLoop sends rate×dur requests on a fixed schedule from seq0 on,
// whether or not earlier ones have completed. Each request's latency
// runs from its due time, so a stall is charged to every request due
// while it lasts, and the generator's own lateness is kept per sample.
// The phase ends when every due request has completed or ctx is done.
func openLoop(ctx context.Context, t *target, rate float64, dur time.Duration, seq0 int) *phase {
	n := int(rate * dur.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	p := &phase{samples: make([]sample, n)}
	t0 := time.Now().Add(interval)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := t0.Add(time.Duration(i) * interval)
				if !sleepUntil(ctx, due) {
					p.samples[i] = sample{err: fmt.Errorf("seq %d: %w", seq0+i, ctx.Err())}
					continue
				}
				start, end, err := t.exchange(ctx, seq0+i, &buf)
				p.samples[i] = sample{lat: end.Sub(due), late: start.Sub(due), err: err}
			}
		}()
	}
	wg.Wait()
	return p
}

// closedLoop keeps senders requests in flight for dur: each sender
// sends its next request as soon as its previous one completes. It is
// the untimed warm-up before an open loop.
func closedLoop(ctx context.Context, t *target, dur time.Duration, seq0 int) *phase {
	p := &phase{}
	var mu sync.Mutex
	var next atomic.Int64
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			var mine []sample
			for time.Now().Before(deadline) && ctx.Err() == nil {
				_, _, err := t.exchange(ctx, seq0+int(next.Add(1)-1), &buf)
				mine = append(mine, sample{err: err})
			}
			mu.Lock()
			p.samples = append(p.samples, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return p
}

// sleepUntil sleeps until t; it reports false if ctx ended first.
func sleepUntil(ctx context.Context, t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err() == nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}
