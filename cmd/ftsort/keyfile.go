package main

// Key files let ftsort sort real data rather than only synthetic
// workloads (-in, -out). Two formats are supported, chosen by file
// extension:
//
//   - .txt (or anything else): one decimal integer per line; blank lines
//     and lines starting with '#' are ignored.
//   - .bin: little-endian int64, no header.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"hypersort/internal/sortutil"
)

// readKeys loads keys from path, dispatching on the extension.
func readKeys(path string) ([]sortutil.Key, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".bin") {
		return readBinary(f)
	}
	return readText(f, path)
}

// writeKeys stores keys to path, dispatching on the extension.
func writeKeys(path string, keys []sortutil.Key) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".bin") {
		return writeBinary(f, keys)
	}
	return writeText(f, keys)
}

func readText(r io.Reader, path string) ([]sortutil.Key, error) {
	var keys []sortutil.Key
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseInt(line, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("ftsort: %s:%d: %v", path, lineNo, err)
		}
		keys = append(keys, sortutil.Key(v))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ftsort: reading %s: %w", path, err)
	}
	return keys, nil
}

func writeText(w io.Writer, keys []sortutil.Key) error {
	bw := bufio.NewWriter(w)
	for _, k := range keys {
		if _, err := fmt.Fprintln(bw, int64(k)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func readBinary(r io.Reader) ([]sortutil.Key, error) {
	br := bufio.NewReader(r)
	var keys []sortutil.Key
	buf := make([]byte, 8)
	for {
		_, err := io.ReadFull(br, buf)
		if err == io.EOF {
			return keys, nil
		}
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("ftsort: truncated binary key file (%d bytes past the last full key)", len(keys)*8)
		}
		if err != nil {
			return nil, err
		}
		keys = append(keys, sortutil.Key(int64(binary.LittleEndian.Uint64(buf))))
	}
}

func writeBinary(w io.Writer, keys []sortutil.Key) error {
	bw := bufio.NewWriter(w)
	buf := make([]byte, 8)
	for _, k := range keys {
		binary.LittleEndian.PutUint64(buf, uint64(int64(k)))
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}
