package main

import (
	"bytes"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"hypersort/internal/xrand"
)

// answerBody renders an answer the way cmd/serve's writeJSON does.
func answerBody(keys string) []byte {
	return []byte(`{"keys":` + keys + `,"stats":{"Makespan":1,"Messages":2,"KeysSent":3,"KeyHops":4,"Comparisons":5},"direct":true}` + "\n")
}

func TestCheckAcceptsCorrectAnswers(t *testing.T) {
	sort := single(0, item{op: "sort", keys: []int64{3, 1, 2}, want: renderKeys([]int64{1, 2, 3})})
	if err := sort.check(http.StatusOK, answerBody("[1,2,3]")); err != nil {
		t.Errorf("exact answer: %v", err)
	}
	// A formatting change alone is not a wrong answer: the slow path
	// decodes and compares values.
	if err := sort.check(http.StatusOK, []byte(`{"stats":{}, "keys": [1, 2, 3]}`)); err != nil {
		t.Errorf("reformatted answer: %v", err)
	}
	b := batch(1, []item{
		{op: "sort", want: renderKeys([]int64{1, 2})},
		{op: "sort", want: renderKeys([]int64{5, 9})},
	})
	body := []byte(`{"results":[{"keys":[1,2],"stats":{}},{"keys":[5,9],"stats":{}}]}` + "\n")
	if err := b.check(http.StatusOK, body); err != nil {
		t.Errorf("batch answer: %v", err)
	}
}

func TestCheckRejectsWrongAnswers(t *testing.T) {
	sort := single(7, item{op: "sort", keys: []int64{3, 1, 2, 4}, want: renderKeys([]int64{1, 2, 3, 4})})
	topk := single(8, item{op: "topk", k: 2, keys: []int64{3, 1, 2, 4}, want: renderKeys([]int64{3, 4})})
	b := batch(9, []item{
		{op: "sort", want: renderKeys([]int64{1, 2})},
		{op: "sort", want: renderKeys([]int64{5, 9})},
	})
	cases := []struct {
		name   string
		r      *request
		status int
		body   []byte
	}{
		{"unsorted", sort, 200, answerBody("[1,3,2,4]")},
		{"dropped key", sort, 200, answerBody("[1,2,3]")},
		{"extra key", sort, 200, answerBody("[1,2,3,4,5]")},
		{"no keys", sort, 200, []byte(`{"stats":{}}`)},
		{"503", sort, http.StatusServiceUnavailable, []byte(`{"error":"engine: admission queue full"}`)},
		{"500", sort, http.StatusInternalServerError, nil},
		{"top-k too few", topk, 200, answerBody("[4]")},
		{"top-k too many", topk, 200, answerBody("[2,3,4]")},
		{"top-k not the largest", topk, 200, answerBody("[1,2]")},
		{"batch item wrong", b, 200, []byte(`{"results":[{"keys":[1,2]},{"keys":[9,5]}]}`)},
		{"batch item failed", b, 200, []byte(`{"results":[{"keys":[1,2]},{"error":"boom"}]}`)},
		{"batch item missing", b, 200, []byte(`{"results":[{"keys":[1,2]}]}`)},
		{"not JSON", sort, 200, []byte(`<html>`)},
	}
	for _, c := range cases {
		err := c.r.check(c.status, c.body)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if want := fmt.Sprintf("request %d", c.r.id); !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not name %s", c.name, err, want)
		}
	}
}

// The top-k expectation is the tail of the sorted keys.
func TestTopKExpectationIsSortedTail(t *testing.T) {
	topk := newItem(ladder[0], "topk", 16, 1024, xrand.New(3))
	sorted := newItem(ladder[0], "sort", 0, 1024, xrand.New(3))
	if !bytes.HasSuffix(sorted.want, append([]byte{','}, topk.want[1:]...)) {
		t.Errorf("top-16 expectation %s is not the tail of the sorted keys", topk.want)
	}
}

func TestSeedDeterminism(t *testing.T) {
	for _, w := range workloads {
		if w.pool == nil {
			continue
		}
		a, b, c := w.pool(xrand.New(42)), w.pool(xrand.New(42)), w.pool(xrand.New(43))
		if len(a) != len(b) {
			t.Fatalf("%s: pool sizes %d and %d", w.name, len(a), len(b))
		}
		same := 0
		for i := range a {
			if !bytes.Equal(a[i].body, b[i].body) {
				t.Errorf("%s: request %d differs between two generations from seed 42", w.name, i)
			}
			if !bytes.Equal(a[i].items[0].want, b[i].items[0].want) {
				t.Errorf("%s: expectation %d differs between two generations from seed 42", w.name, i)
			}
			if bytes.Equal(a[i].body, c[i].body) {
				same++
			}
		}
		if same > 0 {
			t.Errorf("%s: %d of %d requests are identical for seeds 42 and 43", w.name, same, len(a))
		}
	}
}

// Every distinct (configuration, operation) gets a cold-start probe.
func TestProbesCoverEveryConfigAndOp(t *testing.T) {
	cases := map[string]int{"serve-small": 4, "serve-large": 2, "proxy-mix": 9}
	for name, want := range cases {
		pool := findWorkload(name).pool(xrand.New(1))
		if got := len(probes(pool)); got != want {
			t.Errorf("%s: %d probes, want %d", name, got, want)
		}
	}
}
