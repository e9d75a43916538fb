package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"testing"

	"hypersort"
)

// nopResponseWriter keeps only the status and discards the answer, so
// the benchmark times the handler rather than a recorder's buffer.
type nopResponseWriter struct {
	h      http.Header
	status int
}

func (w *nopResponseWriter) Header() http.Header         { return w.h }
func (w *nopResponseWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nopResponseWriter) WriteHeader(status int)      { w.status = status }

// BenchmarkServeSortHandler times one /v1/sort request through the
// production handler set — body read, decode, engine, answer — on the
// paper's Q6[3 17 40] with no trace ring, so ModeAuto serves it direct.
func BenchmarkServeSortHandler(b *testing.B) {
	for _, n := range []int{256, 1024, 16384} {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			eng := hypersort.NewEngine(hypersort.EngineConfig{Mode: hypersort.ModeAuto})
			defer eng.Close()
			mux := newMux(eng, nil, false, hypersort.RouteECube)
			body := []byte(sortBody(6, []int64{3, 17, 40}, n))
			rd := bytes.NewReader(body)
			req, err := http.NewRequest(http.MethodPost, "/v1/sort", nil)
			if err != nil {
				b.Fatal(err)
			}
			w := &nopResponseWriter{h: http.Header{}}
			serve := func() {
				rd.Reset(body)
				req.Body = io.NopCloser(rd)
				req.ContentLength = int64(len(body))
				mux.ServeHTTP(w, req)
			}
			serve() // plan and compile the schedule outside the timer
			if w.status != http.StatusOK {
				b.Fatalf("status %d", w.status)
			}
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve()
			}
		})
	}
}
