package main

// The request and answer codec of /v1/sort, /v1/batch and the chaos
// endpoints. Keys dominate these bodies — a 16,384-key sort is ~200 KB of
// digits — and every pass of encoding/json's scanner over them costs
// about a millisecond, so keys never reach encoding/json in either
// direction:
//
//   - Decode: spliceKeys walks the body's request objects by hand,
//     parses each "keys" member straight into []hypersort.Key, and hands
//     encoding/json a copy of the body in which every keys value is
//     replaced by a small integer token (a keysRef). encoding/json still
//     decodes everything else and still applies its own rules to the
//     token — case-insensitive member names, last duplicate wins, batch
//     elements merged in place — so the accepted requests and decoded
//     fields are the ones a plain json.Decoder produced.
//   - Encode: appendResult writes the answer object with strconv, field
//     for field as encoding/json renders the wire result, into a pooled
//     buffer sent once with Content-Length.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"hypersort"
	"hypersort/internal/transport"
)

const (
	// maxBody caps a request body: the frame limit the shard wire
	// already enforces, so a body the proxy accepts always fits a frame.
	maxBody = transport.MaxFrame
	// maxPooled is the largest buffer returned to bufPool; one outsized
	// request must not pin its buffer for the life of the process.
	maxPooled = 4 << 20
)

var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) > maxPooled {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// keysRef is the token a request's "keys" member decodes to: 0 for no
// keys (absent or null), i > 0 for the i-th array spliceKeys parsed.
type keysRef int

// keyTable holds the keys arrays parsed out of one body.
type keyTable [][]hypersort.Key

// get resolves a decoded token to its keys; no keys is nil.
func (t keyTable) get(ref keysRef) []hypersort.Key {
	if ref == 0 {
		return nil
	}
	return t[ref-1]
}

// readRequest reads a POST body and decodes it into dst: a *wireRequest,
// a *wireInjection or a *wireBatch. It returns the keys the decoded
// keysRef tokens name. On failure it has already answered with a JSON
// error: 405 for other methods, 413 for a body past maxBody, 400 for an
// unreadable or malformed body, including any bytes after the top-level
// value.
func readRequest(w http.ResponseWriter, r *http.Request, dst any) (keyTable, bool) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return nil, false
	}
	body := getBuf()
	defer putBuf(body)
	if err := readBody(body, w, r, maxBody); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body over %d bytes", tooBig.Limit))
		} else {
			writeError(w, http.StatusBadRequest, "bad body: "+err.Error())
		}
		return nil, false
	}
	keys, err := decodeRequest(*body, dst)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return nil, false
	}
	return keys, true
}

// decodeRequest decodes body into dst as readRequest describes: the keys
// by hand, everything else by encoding/json with the keys spliced out.
func decodeRequest(body []byte, dst any) (keyTable, error) {
	_, batch := dst.(*wireBatch)
	spliced := getBuf()
	defer putBuf(spliced)
	var keys keyTable
	var err error
	*spliced, keys, err = spliceKeys(*spliced, body, batch)
	if err != nil {
		return nil, err
	}
	return keys, json.Unmarshal(*spliced, dst)
}

// readBody reads r's body, at most limit bytes, into buf. A declared
// Content-Length past limit fails before anything is read.
func readBody(buf *[]byte, w http.ResponseWriter, r *http.Request, limit int64) error {
	if r.ContentLength > limit {
		return &http.MaxBytesError{Limit: limit}
	}
	b := *buf
	if n := int(r.ContentLength); n > cap(b) && n <= maxPooled {
		b = make([]byte, 0, n+1) // +1: the read that reports EOF
	}
	body := http.MaxBytesReader(w, r.Body, limit)
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			*buf = b
			return err
		}
	}
	*buf = b
	return nil
}

// errKeys is the error for a keys value that is not an array of
// integers (or null): what encoding/json reports for []int64.
var errKeys = errors.New("keys: want null or an array of integers in the int64 range")

// keyScanner walks one body, parsing keys members and copying the rest.
type keyScanner struct {
	src  []byte
	pos  int
	out  []byte // the spliced copy of src[:last]
	last int
	keys keyTable
}

// spliceKeys appends to dst a copy of body in which the value of every
// "keys" member of a request object is replaced by its keysRef token,
// and returns the parsed keys. The request objects are the top-level
// object, or with batch every object element of the top-level
// "requests" arrays; keys members anywhere else are left to
// encoding/json like any other member. Member names match as
// encoding/json matches them to struct fields. A body that is not an
// object at the top level is copied as is, for encoding/json to accept
// (null) or reject.
func spliceKeys(dst, body []byte, batch bool) ([]byte, keyTable, error) {
	s := keyScanner{src: body, out: dst}
	s.ws()
	if s.pos < len(s.src) && s.src[s.pos] == '{' {
		if err := s.object(batch); err != nil {
			return dst, nil, err
		}
	}
	return append(s.out, s.src[s.last:]...), s.keys, nil
}

func (s *keyScanner) ws() {
	for s.pos < len(s.src) {
		switch s.src[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// next skips whitespace and returns the byte at the cursor, 0 at the
// end (a NUL byte is no more valid JSON than the end is).
func (s *keyScanner) next() byte {
	s.ws()
	if s.pos == len(s.src) {
		return 0
	}
	return s.src[s.pos]
}

func (s *keyScanner) syntaxErr() error {
	if s.pos >= len(s.src) {
		return errors.New("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %q at offset %d", s.src[s.pos], s.pos)
}

// object walks the object at the cursor. In the batch envelope it
// descends into "requests"; in a request object it parses "keys".
func (s *keyScanner) object(envelope bool) error {
	s.pos++ // '{'
	if s.next() == '}' {
		s.pos++
		return nil
	}
	for {
		if s.next() != '"' {
			return s.syntaxErr()
		}
		start := s.pos
		if err := s.str(); err != nil {
			return err
		}
		name := s.src[start:s.pos]
		if s.next() != ':' {
			return s.syntaxErr()
		}
		s.pos++
		if s.next() == 0 {
			return s.syntaxErr()
		}
		var err error
		switch {
		case envelope && nameIs(name, "requests"):
			err = s.requests()
		case !envelope && nameIs(name, "keys"):
			err = s.keysValue()
		default:
			err = s.skip()
		}
		if err != nil {
			return err
		}
		switch s.next() {
		case ',':
			s.pos++
		case '}':
			s.pos++
			return nil
		default:
			return s.syntaxErr()
		}
	}
}

// nameIs reports whether the quoted member name matches field the way
// encoding/json matches a struct field: exactly or under Unicode simple
// case folding, after unescaping.
func nameIs(quoted []byte, field string) bool {
	raw := quoted[1 : len(quoted)-1]
	if bytes.IndexByte(raw, '\\') < 0 {
		return bytes.EqualFold(raw, []byte(field))
	}
	var name string
	return json.Unmarshal(quoted, &name) == nil && bytes.EqualFold([]byte(name), []byte(field))
}

// requests walks a "requests" value: each object element is a request.
func (s *keyScanner) requests() error {
	if s.src[s.pos] != '[' {
		return s.skip()
	}
	s.pos++
	if s.next() == ']' {
		s.pos++
		return nil
	}
	for {
		var err error
		switch s.next() {
		case 0:
			return s.syntaxErr()
		case '{':
			err = s.object(false)
		default:
			err = s.skip()
		}
		if err != nil {
			return err
		}
		switch s.next() {
		case ',':
			s.pos++
		case ']':
			s.pos++
			return nil
		default:
			return s.syntaxErr()
		}
	}
}

// keysValue parses the keys value at the cursor and splices its token in.
func (s *keyScanner) keysValue() error {
	start := s.pos
	var ref int
	switch {
	case bytes.HasPrefix(s.src[s.pos:], []byte("null")):
		s.pos += len("null")
	case s.src[s.pos] == '[':
		keys, err := s.keyArray()
		if err != nil {
			return err
		}
		s.keys = append(s.keys, keys)
		ref = len(s.keys)
	default:
		return errKeys
	}
	s.out = append(s.out, s.src[s.last:start]...)
	s.out = strconv.AppendInt(s.out, int64(ref), 10)
	s.last = s.pos
	return nil
}

// keyArray parses an array of integers as encoding/json decodes one into
// []int64: a null element is 0, anything but an integer literal in the
// int64 range is an error.
func (s *keyScanner) keyArray() ([]hypersort.Key, error) {
	s.pos++ // '['
	// Size the slice from the commas before the first ']'; in a valid
	// array that bracket closes it.
	n := 1
	if end := bytes.IndexByte(s.src[s.pos:], ']'); end >= 0 {
		n += bytes.Count(s.src[s.pos:s.pos+end], []byte{','})
	}
	keys := make([]hypersort.Key, 0, n)
	if s.next() == ']' {
		s.pos++
		return keys, nil
	}
	for {
		s.ws()
		k, err := s.int64()
		if err != nil {
			return nil, err
		}
		keys = append(keys, hypersort.Key(k))
		switch s.next() {
		case ',':
			s.pos++
		case ']':
			s.pos++
			return keys, nil
		default:
			return nil, s.syntaxErr()
		}
	}
}

// int64 parses one array element: an integer literal, or null for 0.
func (s *keyScanner) int64() (int64, error) {
	src, i := s.src, s.pos
	if bytes.HasPrefix(src[i:], []byte("null")) {
		s.pos += len("null")
		return 0, nil
	}
	neg := i < len(src) && src[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for i < len(src) && '0' <= src[i] && src[i] <= '9' {
		u = u*10 + uint64(src[i]-'0')
		i++
	}
	digits := i - start
	switch {
	case digits == 0, digits > 1 && src[start] == '0', digits > 19:
		// No digits, a leading zero, or past 2^63 before any overflow.
		return 0, errKeys
	case i < len(src) && (src[i] == '.' || src[i] == 'e' || src[i] == 'E'):
		return 0, errKeys
	case neg && u > 1<<63, !neg && u > 1<<63-1:
		return 0, errKeys
	}
	s.pos = i
	if neg {
		return -int64(u), nil // -(1<<63) wraps to itself, as wanted
	}
	return int64(u), nil
}

// str skips the string at the cursor. Escapes and control characters
// are left for encoding/json to judge.
func (s *keyScanner) str() error {
	for i := s.pos + 1; i < len(s.src); i++ {
		switch s.src[i] {
		case '\\':
			i++
		case '"':
			s.pos = i + 1
			return nil
		}
	}
	s.pos = len(s.src)
	return s.syntaxErr()
}

// skip moves past the value at the cursor without judging it:
// encoding/json validates every byte the walk does not splice out.
func (s *keyScanner) skip() error {
	switch c := s.src[s.pos]; c {
	case '"':
		return s.str()
	case '{', '[':
		depth := 0
		for s.pos < len(s.src) {
			switch s.src[s.pos] {
			case '"':
				if err := s.str(); err != nil {
					return err
				}
				continue
			case '{', '[':
				depth++
			case '}', ']':
				depth--
			}
			s.pos++
			if depth == 0 {
				return nil
			}
		}
		return s.syntaxErr()
	default:
		// A number or a literal: everything up to a delimiter.
		start := s.pos
		for s.pos < len(s.src) {
			switch s.src[s.pos] {
			case ',', '}', ']', ' ', '\t', '\n', '\r', '"', '{', '[', ':':
				if s.pos == start {
					return s.syntaxErr()
				}
				return nil
			}
			s.pos++
		}
		if s.pos == start {
			return s.syntaxErr()
		}
		return nil
	}
}

// appendResult appends one outcome exactly as encoding/json rendered the
// wire result {keys, value, stats, direct, error}: a failed request
// carries only zero stats and its error; kth and median carry "value";
// sort and topk carry "keys" when there are any. "direct":true marks a
// result of the direct host-speed substrate, whose keys are exact and
// whose stats are the analytic prediction, not simulator measurements.
func appendResult(b []byte, op hypersort.Op, res hypersort.Result) []byte {
	if res.Err != nil {
		return appendError(b, res.Err.Error())
	}
	b = append(b, '{')
	switch op {
	case hypersort.OpKthSmallest, hypersort.OpMedian:
		b = append(b, `"value":`...)
		b = strconv.AppendInt(b, int64(res.Value), 10)
		b = append(b, ',')
	default:
		if len(res.Keys) > 0 {
			b = append(b, `"keys":[`...)
			for i, k := range res.Keys {
				if i > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendInt(b, int64(k), 10)
			}
			b = append(b, "],"...)
		}
	}
	b = appendStats(b, res.Stats)
	if res.Direct {
		b = append(b, `,"direct":true`...)
	}
	return append(b, '}')
}

// appendError appends a failed outcome: zero stats and the message.
func appendError(b []byte, msg string) []byte {
	b = append(b, '{')
	b = appendStats(b, hypersort.Stats{})
	b = append(b, `,"error":`...)
	// encoding/json's string escaping (HTML-safe, U+2028/9, invalid
	// UTF-8) is kept byte for byte by using it; errors are the rare path.
	q, _ := json.Marshal(msg)
	b = append(b, q...)
	return append(b, '}')
}

func appendStats(b []byte, st hypersort.Stats) []byte {
	b = append(b, `"stats":{"Makespan":`...)
	b = strconv.AppendInt(b, st.Makespan, 10)
	b = append(b, `,"Messages":`...)
	b = strconv.AppendInt(b, st.Messages, 10)
	b = append(b, `,"KeysSent":`...)
	b = strconv.AppendInt(b, st.KeysSent, 10)
	b = append(b, `,"KeyHops":`...)
	b = strconv.AppendInt(b, st.KeyHops, 10)
	b = append(b, `,"Comparisons":`...)
	b = strconv.AppendInt(b, st.Comparisons, 10)
	return append(b, '}')
}

// appendBatch appends the /v1/batch answer {"results":[...]} for the
// results of reqs.
func appendBatch(b []byte, reqs []hypersort.Request, results []hypersort.Result) []byte {
	b = append(b, `{"results":[`...)
	for i, res := range results {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendResult(b, reqs[i].Op, res)
	}
	return append(b, "]}"...)
}

// writeBody sends the JSON document in *buf, plus the newline
// json.Encoder ends every document with, in one write with
// Content-Length set; buf goes back to the pool.
func writeBody(w http.ResponseWriter, status int, buf *[]byte) {
	*buf = append(*buf, '\n')
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(*buf)))
	w.WriteHeader(status)
	_, _ = w.Write(*buf)
	putBuf(buf)
}
