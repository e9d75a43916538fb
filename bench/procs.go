package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hypersort/internal/cluster"
	"hypersort/internal/engine"
)

// binaries are the program binaries the benchmark builds from source.
type binaries struct {
	serve, reproduce string
}

// build compiles cmd/serve and cmd/reproduce of the repository at root
// into dir.
func build(ctx context.Context, root, dir string) (binaries, error) {
	if _, err := os.Stat(filepath.Join(root, "cmd", "serve")); err != nil {
		return binaries{}, fmt.Errorf("no repository at %s: %w", root, err)
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return binaries{}, err
	}
	bins := binaries{serve: filepath.Join(abs, "serve"), reproduce: filepath.Join(abs, "reproduce")}
	for _, b := range []string{bins.serve, bins.reproduce} {
		cmd := exec.CommandContext(ctx, "go", "build", "-o", b, "./cmd/"+filepath.Base(b))
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			return binaries{}, fmt.Errorf("go build %s: %v\n%s", filepath.Base(b), err, out)
		}
	}
	return bins, nil
}

// process is one launched serve process.
type process struct {
	cmd     *exec.Cmd
	addr    string
	drained chan struct{} // closed when the process's stdout reaches EOF
}

// launch starts bin with args, with GOMAXPROCS=procs when procs is
// positive, and waits for its "listening on ADDR" line. The rest of its
// standard output is drained and discarded.
func launch(ctx context.Context, bin string, procs int, args ...string) (*process, error) {
	cmd := exec.Command(bin, args...)
	if procs > 0 {
		cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs))
	}
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = dieWithParent()
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &process{cmd: cmd, drained: make(chan struct{})}
	addrC := make(chan string, 1)
	go func() {
		defer close(p.drained)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				addr, _, _ := strings.Cut(line[i+len("listening on "):], " ")
				select {
				case addrC <- addr:
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, out)
	}()
	select {
	case p.addr = <-addrC:
		return p, nil
	case <-p.drained:
		p.stop()
		return nil, fmt.Errorf("%s %v exited before listening", filepath.Base(bin), args)
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s %v printed no listen address", filepath.Base(bin), args)
	case <-ctx.Done():
		p.stop()
		return nil, ctx.Err()
	}
}

// stop asks the process to drain and exit, kills it if it has not
// within 15 s, and waits until it has ended.
func (p *process) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		<-p.drained
		_ = p.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill()
		<-done
	}
}

// fleet is the set of serve processes one workload runs.
type fleet struct {
	procs []*process // shards first, the HTTP front process last
	base  string     // http://host:port of the front process
}

// startFleet launches w's processes: one serve, or w.shards shard
// processes and a proxy in front of them.
func startFleet(ctx context.Context, bins binaries, w *workload) (*fleet, error) {
	f := &fleet{}
	front := []string{"-addr", "127.0.0.1:0"}
	if w.shards > 0 {
		addrs := make([]string, w.shards)
		for i := range addrs {
			p, err := launch(ctx, bins.serve, w.procs, append([]string{"-cluster-mode=shard", "-addr", "127.0.0.1:0"}, w.flags...)...)
			if err != nil {
				f.stop()
				return nil, err
			}
			f.procs = append(f.procs, p)
			addrs[i] = p.addr
		}
		front = append(append(front, "-cluster-mode=proxy", "-shard-addrs", strings.Join(addrs, ",")), w.proxyFlags...)
	} else {
		front = append(front, w.flags...)
	}
	p, err := launch(ctx, bins.serve, w.procs, front...)
	if err != nil {
		f.stop()
		return nil, err
	}
	f.procs = append(f.procs, p)
	f.base = "http://" + p.addr
	return f, nil
}

// stop stops the front process first, then the shards behind it.
func (f *fleet) stop() {
	for i := len(f.procs) - 1; i >= 0; i-- {
		f.procs[i].stop()
	}
	f.procs = nil
}

// cpuTicks sums user+system CPU of the fleet's processes in clock ticks.
func (f *fleet) cpuTicks() (int64, error) {
	var sum int64
	for _, p := range f.procs {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		// Fields after the parenthesised command name; utime and stime
		// are fields 14 and 15 of the whole line.
		_, rest, ok := bytes.Cut(data, []byte(") "))
		fields := strings.Fields(string(rest))
		if !ok || len(fields) < 13 {
			return 0, fmt.Errorf("pid %d: malformed /proc stat", p.cmd.Process.Pid)
		}
		for _, s := range fields[11:13] {
			v, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return 0, err
			}
			sum += v
		}
	}
	return sum, nil
}

// clockTicksPerSecond is Linux's USER_HZ, the unit of /proc stat times.
const clockTicksPerSecond = 100

// peakRSSMiB sums the fleet's peak resident set sizes (VmHWM).
func (f *fleet) peakRSSMiB() (float64, error) {
	var kib int64
	for _, p := range f.procs {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		v, err := statusField(data, "VmHWM:")
		if err != nil {
			return 0, fmt.Errorf("pid %d: %w", p.cmd.Process.Pid, err)
		}
		kib += v
	}
	return float64(kib) / 1024, nil
}

// statusField parses a "Name:   1234 kB" line of /proc/<pid>/status.
func statusField(data []byte, name string) (int64, error) {
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, name); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("no %s line", name)
}

// serverMetrics is the slice of a front process's /v1/metrics and
// /metrics the per-layer counters read.
type serverMetrics struct {
	Memory struct {
		Mallocs uint64 `json:"mallocs"`
		NumGC   uint32 `json:"num_gc"`
	} `json:"memory"`
	Engine  engine.Metrics   `json:"engine"`
	Cluster *cluster.Metrics `json:"cluster"`
	// queueWait is the cumulative hypersort_engine_queue_wait_ns
	// histogram: upper bound in ns to cumulative count.
	queueWait []bucket
}

type bucket struct {
	le  float64
	cum int64
}

// scrape reads the front process's counters.
func scrape(ctx context.Context, t *target) (*serverMetrics, error) {
	var buf bytes.Buffer
	m := &serverMetrics{}
	if status, err := t.get(ctx, "/v1/metrics", &buf); err != nil || status != 200 {
		return nil, fmt.Errorf("GET /v1/metrics: status %d: %v", status, err)
	}
	if err := json.Unmarshal(buf.Bytes(), m); err != nil {
		return nil, fmt.Errorf("GET /v1/metrics: %w", err)
	}
	if status, err := t.get(ctx, "/metrics", &buf); err != nil || status != 200 {
		return nil, fmt.Errorf("GET /metrics: status %d: %v", status, err)
	}
	const prefix = `hypersort_engine_queue_wait_ns_bucket{le="`
	for _, line := range strings.Split(buf.String(), "\n") {
		rest, ok := strings.CutPrefix(line, prefix)
		if !ok {
			continue
		}
		le, count, ok := strings.Cut(rest, `"} `)
		if !ok {
			continue
		}
		b := bucket{le: math.Inf(1)}
		if le != "+Inf" {
			v, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return nil, fmt.Errorf("/metrics: bucket %q: %w", le, err)
			}
			b.le = v
		}
		n, err := strconv.ParseInt(count, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: bucket count %q: %w", count, err)
		}
		b.cum = n
		m.queueWait = append(m.queueWait, b)
	}
	return m, nil
}

// histQuantile estimates the q-quantile of the observations a
// cumulative histogram gained between before and after, interpolating
// linearly inside the bucket that holds it. It returns 0 when nothing
// was observed.
func histQuantile(before, after []bucket, q float64) float64 {
	cumBefore := func(le float64) int64 {
		var c int64
		for _, b := range before {
			if b.le <= le {
				c = b.cum
			}
		}
		return c
	}
	var total int64
	delta := make([]int64, len(after))
	for i, b := range after {
		delta[i] = b.cum - cumBefore(b.le)
		total = delta[i]
	}
	if total <= 0 {
		return 0
	}
	target := q * float64(total)
	lower, prev := 0.0, int64(0)
	for i, b := range after {
		if float64(delta[i]) >= target && delta[i] > prev {
			if math.IsInf(b.le, 1) {
				return lower
			}
			return lower + (b.le-lower)*(target-float64(prev))/float64(delta[i]-prev)
		}
		if !math.IsInf(b.le, 1) {
			lower = b.le
		}
		prev = delta[i]
	}
	return lower
}

// dieWithParent makes a child process get SIGKILL if the benchmark
// dies first, so no server outlives a killed run.
func dieWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// errNotLinux reports a platform without the /proc files the
// benchmark reads.
var errNotLinux = errors.New("the benchmark reads /proc and runs on Linux only")
