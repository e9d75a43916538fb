package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// goldenSeed is the seed the committed results/ directory was made with.
const goldenSeed = 1992

// reproRun is one cmd/reproduce process run.
type reproRun struct {
	out string // its output directory
	// wall runs from launch to exit; firstArtefact from launch until
	// Table 1 is written (the "reproducing: Table 2" progress line).
	wall, firstArtefact time.Duration
	cpu                 time.Duration
	maxRSSKiB           int64
}

// reproduceOnce runs bin -seed seed -out <fresh dir under work>.
func reproduceOnce(ctx context.Context, bin, work string, seed uint64) (reproRun, error) {
	out, err := os.MkdirTemp(work, "reproduce-")
	if err != nil {
		return reproRun{}, err
	}
	r := reproRun{out: out}
	cmd := exec.CommandContext(ctx, bin, "-seed", strconv.FormatUint(seed, 10), "-out", out)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = dieWithParent()
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return r, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return r, err
	}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if r.firstArtefact == 0 && strings.HasPrefix(sc.Text(), "reproducing: Table 2") {
			r.firstArtefact = time.Since(start)
		}
	}
	err = cmd.Wait()
	r.wall = time.Since(start)
	if err != nil {
		return r, fmt.Errorf("reproduce -seed %d: %w", seed, err)
	}
	if r.firstArtefact == 0 {
		return r, fmt.Errorf("reproduce -seed %d: no Table 2 progress line", seed)
	}
	ps := cmd.ProcessState
	r.cpu = ps.UserTime() + ps.SystemTime()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		r.maxRSSKiB = ru.Maxrss
	}
	return r, nil
}

// minReproduceRuns is the fewest runs whose median a run reports.
const minReproduceRuns = 3

// runReproduce runs cmd/reproduce back to back — at least
// minReproduceRuns times, then while another run still fits in the
// measured seconds — and checks that every run writes the same bytes
// as the first, and at the golden seed the same bytes as results/.
func runReproduce(ctx context.Context, bins binaries, o options) (*result, error) {
	res := newResult(endToEnd)
	var walls, setups, cpus, rss []float64
	var first string
	start := time.Now()
	for n := 0; ; n++ {
		if n >= minReproduceRuns && time.Since(start)+time.Duration(median(walls)*float64(time.Millisecond)) > o.seconds {
			break
		}
		r, err := reproduceOnce(ctx, bins.reproduce, o.work, o.seed)
		res.Attempted++
		if err != nil {
			os.RemoveAll(r.out)
			res.fail(err)
			break
		}
		if err := checkReproduction(o, r.out, first); err != nil {
			res.fail(err)
		}
		if first == "" {
			first = r.out
			defer os.RemoveAll(first)
		} else {
			os.RemoveAll(r.out)
		}
		walls = append(walls, float64(r.wall)/float64(time.Millisecond))
		setups = append(setups, r.firstArtefact.Seconds())
		cpus = append(cpus, float64(r.cpu)/float64(time.Millisecond))
		rss = append(rss, float64(r.maxRSSKiB)/1024)
	}
	res.set("p50_ms", median(walls))
	res.set("p99_ms", maxOf(walls))
	res.set("cpu_ms_per_op", median(cpus))
	res.set("rss_mb", median(rss))
	res.set("setup_s", median(setups))
	logf("reproduce: %d runs, wall median %.0f ms max %.0f ms, first artefact %.2f s, cpu %.0f ms/run, peak rss %.1f MiB",
		len(walls), median(walls), maxOf(walls), median(setups), median(cpus), median(rss))
	return res, nil
}

// checkReproduction compares dir with the first run's output and, at the
// golden seed, with the committed results/.
func checkReproduction(o options, dir, first string) error {
	if first != "" {
		if err := sameTree(first, dir); err != nil {
			return fmt.Errorf("reproduce is not deterministic: %w", err)
		}
	}
	if o.seed == goldenSeed {
		if err := sameTree(filepath.Join(o.root, "results"), dir); err != nil {
			return fmt.Errorf("reproduce -seed %d differs from results/: %w", goldenSeed, err)
		}
	}
	return nil
}

// sameTree reports the first difference between two directories of
// regular files.
func sameTree(want, got string) error {
	names := map[string]bool{}
	err := filepath.WalkDir(want, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(want, path)
		names[rel] = true
		a, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		b, err := os.ReadFile(filepath.Join(got, rel))
		if err != nil {
			return err
		}
		if !bytes.Equal(a, b) {
			return fmt.Errorf("%s differs", rel)
		}
		return nil
	})
	if err != nil {
		return err
	}
	return filepath.WalkDir(got, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if rel, _ := filepath.Rel(got, path); !names[rel] {
			return fmt.Errorf("unexpected file %s", rel)
		}
		return nil
	})
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
