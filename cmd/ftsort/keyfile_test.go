package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hypersort/internal/sortutil"
	"hypersort/internal/workload"
	"hypersort/internal/xrand"
)

func TestTextRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "keys.txt")
	keys := workload.MustGenerate(workload.Uniform, 500, xrand.New(1))
	keys = append(keys, -42, 0) // negatives and zero
	if err := writeKeys(path, keys); err != nil {
		t.Fatal(err)
	}
	got, err := readKeys(path)
	if err != nil {
		t.Fatal(err)
	}
	if !sortutil.SameMultiset(got, keys) {
		t.Fatal("text round trip lost keys")
	}
	for i := range keys {
		if got[i] != keys[i] {
			t.Fatal("text round trip reordered keys")
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "keys.bin")
	keys := workload.MustGenerate(workload.Gaussian, 700, xrand.New(2))
	if err := writeKeys(path, keys); err != nil {
		t.Fatal(err)
	}
	got, err := readKeys(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(keys) {
		t.Fatalf("got %d keys", len(got))
	}
	for i := range keys {
		if got[i] != keys[i] {
			t.Fatal("binary round trip corrupted keys")
		}
	}
}

func TestTextCommentsAndBlanks(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "keys.txt")
	content := "# header comment\n10\n\n  20  \n# trailing\n30\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := readKeys(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []sortutil.Key{10, 20, 30}
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v", got)
		}
	}
}

func TestTextBadLine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "keys.txt")
	if err := os.WriteFile(path, []byte("1\nbanana\n3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := readKeys(path)
	if err == nil || !strings.Contains(err.Error(), ":2:") {
		t.Errorf("want line-numbered error, got %v", err)
	}
}

func TestBinaryTruncated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "keys.bin")
	if err := os.WriteFile(path, []byte{1, 2, 3, 4, 5}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readKeys(path); err == nil {
		t.Error("truncated binary accepted")
	}
}

func TestReadMissingFile(t *testing.T) {
	if _, err := readKeys(filepath.Join(t.TempDir(), "nope.txt")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestEmptyFiles(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"empty.txt", "empty.bin"} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := readKeys(path)
		if err != nil || len(got) != 0 {
			t.Errorf("%s: got %v, %v", name, got, err)
		}
	}
}
